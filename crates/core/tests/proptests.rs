//! Property tests over the accelerator's scheduling and resource models
//! under randomized (but valid) configurations.

use asr_accel::arch::{layer_bytes, simulate, Architecture};
use asr_accel::schedule;
use asr_accel::{mm, resources, AccelConfig};
use asr_tensor::WeightEncoding;
use proptest::prelude::*;

/// Case count: `PROPTEST_CASES` when set (the CI deep-proptest job exports
/// 512), else the tier-1 default. The vendored proptest does not read the
/// environment itself, so the config expression does.
fn env_cases(default: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

/// Strategy: a valid accelerator configuration with randomized PSA shape,
/// unroll penalty, head split and built length.
fn valid_config() -> impl Strategy<Value = AccelConfig> {
    (
        1usize..=4, // psa rows exponent -> 2,4,8,16? use 2..=8 via *2
        prop::sample::select(vec![32usize, 64, 128]), // psa cols
        1u64..=16,  // ii
        prop::sample::select(vec![8usize, 4, 2, 1]), // parallel heads
        1usize..=48, // built seq len
    )
        .prop_map(|(rows_half, cols, ii, heads, s)| {
            let mut cfg = AccelConfig::paper_default();
            cfg.psa.rows = rows_half * 2;
            cfg.psa.cols = cols;
            cfg.psa.ii = ii;
            cfg.parallel_heads = heads;
            cfg.max_seq_len = s;
            cfg
        })
}

proptest! {
    #![proptest_config(env_cases(48))]

    #[test]
    fn architecture_ordering_for_any_valid_config(cfg in valid_config()) {
        let s = cfg.max_seq_len;
        let a1 = simulate(&cfg, Architecture::A1, s).latency_s;
        let a2 = simulate(&cfg, Architecture::A2, s).latency_s;
        let a3 = simulate(&cfg, Architecture::A3, s).latency_s;
        // Hard invariants: prefetching never loses to the naive schedule.
        prop_assert!(a2 <= a1 + 1e-9, "A2 {} vs A1 {}", a2, a1);
        prop_assert!(a3 <= a1 + 1e-9, "A3 {} vs A1 {}", a3, a1);
        prop_assert!(a3.is_finite() && a3 > 0.0);
        // NOTE: A3 <= A2 is NOT a theorem over arbitrary configurations —
        // A3 splits decoder loads into half-layer phases, and when a phase
        // load exceeds the previous phase's compute (possible with tall/fast
        // PSAs near the load/compute crossover) the split pipeline stalls
        // where A2's whole-layer pipeline had slack. The paper's design point
        // satisfies the Fig 4.11 balance premise, where A3 does win; that is
        // pinned by `a3_wins_when_the_fig_4_11_premise_holds` below and the
        // arch.rs unit tests.
    }

    #[test]
    fn a3_wins_when_the_fig_4_11_premise_holds(cfg in valid_config()) {
        // Fig 4.11's premise: each phase's compute covers the next phase's
        // load. Under it, A3 is never slower than A2 (beyond transfer setup).
        let s = cfg.max_seq_len;
        let bytes = layer_bytes(&cfg);
        let max_load = cfg
            .device
            .hbm
            .read_time_s(bytes.encoder.max(bytes.decoder_mha).max(bytes.decoder_ffn), 2);
        let min_compute = cfg
            .device
            .clock
            .to_seconds(schedule::decoder::decoder_ffn_phase_cycles(&cfg, s)
                .min(schedule::decoder::decoder_mha_phase_cycles(&cfg, s))
                .min(schedule::encoder_cycles(&cfg, s)));
        // trivially pass when the premise doesn't hold for this config
        // (prop_assume would reject too many cases at short built lengths)
        if min_compute < max_load {
            return Ok(());
        }
        let a2 = simulate(&cfg, Architecture::A2, s).latency_s;
        let a3 = simulate(&cfg, Architecture::A3, s).latency_s;
        prop_assert!(
            a3 <= a2 + 20.0 * cfg.device.hbm.transfer_latency_s,
            "A3 {} vs A2 {}",
            a3,
            a2
        );
    }

    #[test]
    fn encoder_is_mha_plus_ffn(cfg in valid_config()) {
        let s = cfg.max_seq_len;
        let enc = schedule::encoder_cycles(&cfg, s);
        let sum = schedule::mha_block_cycles(&cfg, s, s) + schedule::ffn_block_cycles(&cfg, s);
        prop_assert_eq!(enc, sum);
    }

    #[test]
    fn decoder_always_costs_more_than_encoder(cfg in valid_config()) {
        let s = cfg.max_seq_len;
        prop_assert!(schedule::decoder_cycles(&cfg, s) > schedule::encoder_cycles(&cfg, s));
    }

    #[test]
    fn resource_estimate_scales_with_psa_count(cfg in valid_config()) {
        // halving the pool can never increase the total estimate
        let full = resources::estimate(&cfg).total();
        let mut half = cfg.clone();
        half.psas_per_slr = cfg.psas_per_slr / 2;
        // keep the head split valid
        half.parallel_heads = half.n_psas().min(8);
        if half.validate().is_ok() {
            let h = resources::estimate(&half).total();
            prop_assert!(h.lut <= full.lut);
            prop_assert!(h.dsp <= full.dsp);
        }
    }

    #[test]
    fn layer_bytes_scale_exactly_with_precision(cfg in valid_config()) {
        let f32_bytes = layer_bytes(&cfg);
        let mut q = cfg.clone();
        q.encoding = WeightEncoding::Int8;
        let q_bytes = layer_bytes(&q);
        prop_assert_eq!(f32_bytes.encoder, q_bytes.encoder * 4);
        prop_assert_eq!(f32_bytes.decoder_mha, q_bytes.decoder_mha * 4);
        prop_assert_eq!(f32_bytes.decoder_ffn, q_bytes.decoder_ffn * 4);
    }

    #[test]
    fn mm_cycles_all_positive_and_mm5_dominates_mm2(cfg in valid_config()) {
        let s = cfg.max_seq_len;
        for kind in mm::MmKind::ALL {
            prop_assert!(mm::mm_cycles(kind, &cfg, s).get() > 0, "{:?}", kind);
        }
        prop_assert!(mm::mm5_cycles(&cfg, s) > mm::mm2_cycles(&cfg, s, s));
    }

    #[test]
    fn padded_latency_is_flat_below_built_length(cfg in valid_config(), frac in 0.1f64..1.0) {
        let s = cfg.max_seq_len;
        let input = ((s as f64 * frac) as usize).max(1);
        let full = simulate(&cfg, Architecture::A3, s).latency_s;
        let short = simulate(&cfg, Architecture::A3, input).latency_s;
        prop_assert!((full - short).abs() < 1e-12, "padding must flatten latency");
    }

    #[test]
    fn verification_passes_for_random_configs(cfg in valid_config()) {
        for arch in Architecture::ALL {
            let r = simulate(&cfg, arch, cfg.max_seq_len);
            let v = asr_accel::verify::verify(&r);
            prop_assert!(v.is_empty(), "{:?}: {:?}", arch, v);
        }
    }
}
