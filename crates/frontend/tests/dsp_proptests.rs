//! Property tests for the DSP extension modules: resampling and framing.

use asr_frontend::audio::Waveform;
use asr_frontend::framing::FrameConfig;
use asr_frontend::resample::resample;
use asr_tensor::init;
use proptest::prelude::*;

/// Case count: `PROPTEST_CASES` when set (the CI deep-proptest job exports
/// 512), else the tier-1 default. The vendored proptest does not read the
/// environment itself, so the config expression does.
fn env_cases(default: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(env_cases(32))]

    #[test]
    fn resample_preserves_duration(len in 160usize..16000, target in prop::sample::select(vec![8000u32, 11025, 22050, 44100])) {
        let w = Waveform::new((0..len).map(|i| (i as f32 * 0.01).sin()).collect(), 16_000);
        let r = resample(&w, target);
        prop_assert_eq!(r.sample_rate, target);
        prop_assert!((r.duration_s() - w.duration_s()).abs() < 0.01, "duration {} vs {}", r.duration_s(), w.duration_s());
    }

    #[test]
    fn resample_output_within_input_range(len in 64usize..2000, seed in 0u64..100) {
        let samples: Vec<f32> = (0..len).map(|i| {

            ((i as u64).wrapping_mul(seed + 7) % 200) as f32 / 100.0 - 1.0
        }).collect();
        let lo = samples.iter().cloned().fold(f32::MAX, f32::min);
        let hi = samples.iter().cloned().fold(f32::MIN, f32::max);
        let r = resample(&Waveform::new(samples, 16_000), 12_345);
        // linear interpolation cannot overshoot the convex hull
        for &x in &r.samples {
            prop_assert!(x >= lo - 1e-6 && x <= hi + 1e-6);
        }
    }

    #[test]
    fn framing_never_reads_out_of_bounds(len in 0usize..2000, flen in 1usize..400, hop in 1usize..200) {
        // frames() must produce only full frames and never panic
        let w = Waveform::new(vec![0.1; len], 16_000);
        let cfg = FrameConfig { frame_len: flen, hop };
        let frames = asr_frontend::framing::frames(&w, &cfg);
        for f in &frames {
            prop_assert_eq!(f.len(), flen);
        }
        prop_assert_eq!(frames.len(), cfg.num_frames(len));
    }

    #[test]
    fn pgm_size_formula(rows in 1usize..30, cols in 1usize..30, seed in 0u64..50) {
        let m = init::uniform(rows, cols, -1.0, 1.0, seed);
        let pgm = asr_frontend::image::to_pgm(&m);
        let header_len = format!("P5\n{} {}\n255\n", rows, cols).len();
        prop_assert_eq!(pgm.len(), header_len + rows * cols);
    }
}
