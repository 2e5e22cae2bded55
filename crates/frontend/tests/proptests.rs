//! Property tests for the DSP and text substrates.

use asr_frontend::fft::{dft_naive, fft_inplace, Complex};
use asr_frontend::text::normalize;
use asr_frontend::wer::{cer, edit_distance, wer};
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
    #![proptest_config(env_cases(48))]

    #[test]
    fn fft_matches_dft(exp in 1u32..7, seed in 0u64..1000) {
        let n = 1usize << exp;
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                let v = ((i as u64).wrapping_mul(seed + 1) % 17) as f32 - 8.0;
                Complex::new(v, ((i as u64 * 3 + seed) % 11) as f32 - 5.0)
            })
            .collect();
        let mut fast = x.clone();
        fft_inplace(&mut fast);
        let slow = dft_naive(&x);
        for (f, s) in fast.iter().zip(&slow) {
            prop_assert!((f.re - s.re).abs() < 1e-2 * n as f32);
            prop_assert!((f.im - s.im).abs() < 1e-2 * n as f32);
        }
    }

    #[test]
    fn fft_is_linear(exp in 1u32..6, a in -3.0f32..3.0) {
        let n = 1usize << exp;
        let x: Vec<Complex> = (0..n).map(|i| Complex::new(i as f32, 0.0)).collect();
        let mut fx = x.clone();
        fft_inplace(&mut fx);
        let mut fax: Vec<Complex> = x.iter().map(|c| Complex::new(a * c.re, a * c.im)).collect();
        fft_inplace(&mut fax);
        for (s, t) in fx.iter().zip(&fax) {
            prop_assert!((a * s.re - t.re).abs() < 1e-2 * n as f32);
            prop_assert!((a * s.im - t.im).abs() < 1e-2 * n as f32);
        }
    }

    #[test]
    fn edit_distance_identity(v in proptest::collection::vec(0u8..5, 0..20)) {
        prop_assert_eq!(edit_distance(&v, &v), 0);
    }

    #[test]
    fn edit_distance_symmetric(
        a in proptest::collection::vec(0u8..5, 0..15),
        b in proptest::collection::vec(0u8..5, 0..15),
    ) {
        prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
    }

    #[test]
    fn edit_distance_triangle(
        a in proptest::collection::vec(0u8..4, 0..10),
        b in proptest::collection::vec(0u8..4, 0..10),
        c in proptest::collection::vec(0u8..4, 0..10),
    ) {
        prop_assert!(edit_distance(&a, &c) <= edit_distance(&a, &b) + edit_distance(&b, &c));
    }

    #[test]
    fn edit_distance_bounded_by_lengths(
        a in proptest::collection::vec(0u8..5, 0..15),
        b in proptest::collection::vec(0u8..5, 0..15),
    ) {
        let d = edit_distance(&a, &b);
        prop_assert!(d <= a.len().max(b.len()));
        prop_assert!(d >= a.len().abs_diff(b.len()));
    }

    #[test]
    fn wer_zero_iff_normalized_equal(s in "[a-zA-Z ,.!]{0,40}") {
        let w = wer(&s, &s);
        prop_assert_eq!(w, 0.0);
        prop_assert_eq!(cer(&s, &s), 0.0);
    }

    #[test]
    fn normalize_idempotent(s in "[ -~]{0,60}") {
        let once = normalize(&s);
        prop_assert_eq!(normalize(&once), once);
    }

    #[test]
    fn normalize_output_alphabet(s in "[ -~]{0,60}") {
        for c in normalize(&s).chars() {
            prop_assert!(c.is_ascii_uppercase() || c == ' ' || c == '\'');
        }
    }
}
