//! Property tests: the systolic engines are exact matmuls with lawful timing.

#![recursion_limit = "4096"]

use asr_systolic::{
    CheckedPsa, IntegrityLevel, LaneFault, PipelinedAdder, Psa, PsaConfig, SystolicGrid,
};
use asr_tensor::{init, max_abs_diff, ops};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grid_always_matches_naive(l in 1usize..7, m in 1usize..10, n in 1usize..7, seed in 0u64..500) {
        let a = init::uniform(l, m, -2.0, 2.0, seed);
        let b = init::uniform(m, n, -2.0, 2.0, seed + 1);
        let (c, cycles) = SystolicGrid::new(l, n).matmul(&a, &b);
        prop_assert!(max_abs_diff(&c, &ops::matmul_naive(&a, &b)) < 1e-4);
        prop_assert_eq!(cycles.get(), (l + m + n - 2) as u64);
    }

    #[test]
    fn psa_bitwise_matches_naive(l in 1usize..40, m in 1usize..80, n in 1usize..80, seed in 0u64..500) {
        let a = init::uniform(l, m, -1.0, 1.0, seed);
        let b = init::uniform(m, n, -1.0, 1.0, seed + 1);
        prop_assert_eq!(Psa::paper_default().matmul(&a, &b), ops::matmul_naive(&a, &b));
    }

    #[test]
    fn psa_cycles_monotone_in_each_dim(l in 1usize..32, m in 1usize..128, n in 1usize..128) {
        let psa = Psa::paper_default();
        let base = psa.cycles(l, m, n);
        prop_assert!(psa.cycles(l + 1, m, n) >= base);
        prop_assert!(psa.cycles(l, m + 1, n) >= base);
        prop_assert!(psa.cycles(l, m, n + 1) >= base);
    }

    #[test]
    fn higher_ii_never_faster(l in 1usize..16, m in 1usize..64, n in 1usize..64, ii in 1u64..20) {
        let slow = Psa::new(PsaConfig { rows: 2, cols: 64, ii: ii + 1, fill: 8 });
        let fast = Psa::new(PsaConfig { rows: 2, cols: 64, ii, fill: 8 });
        prop_assert!(slow.cycles(l, m, n) >= fast.cycles(l, m, n));
    }

    #[test]
    fn bigger_psa_never_slower(lq in 1usize..5, m in 1usize..64, n in 1usize..64) {
        // Doubling the PSA row count halves the wave count when l is a
        // multiple of 4; the 2-cycle drain growth never outweighs that.
        let l = lq * 4;
        let small = Psa::new(PsaConfig { rows: 2, cols: 64, ii: 12, fill: 8 });
        let big = Psa::new(PsaConfig { rows: 4, cols: 64, ii: 12, fill: 8 });
        prop_assert!(big.cycles(l, m, n) <= small.cycles(l, m, n));
    }

    #[test]
    fn adder_cycles_monotone(r in 1usize..64, c in 1usize..512) {
        let add = PipelinedAdder::paper_default();
        prop_assert!(add.cycles(r + 1, c) >= add.cycles(r, c));
        prop_assert!(add.cycles(r, c + 1) >= add.cycles(r, c));
    }

    #[test]
    fn stepped_machine_matches_analytic_cycles_everywhere(
        l in 1usize..12, m in 1usize..40, n in 1usize..80, ii in 1u64..16
    ) {
        let cfg = PsaConfig { rows: 2, cols: 64, ii, fill: 8 };
        let a = init::uniform(l, m, -1.0, 1.0, (l * m) as u64);
        let b = init::uniform(m, n, -1.0, 1.0, (m * n) as u64);
        let stepped = asr_systolic::psa_stepped::run_stepped(&cfg, &a, &b);
        let analytic = Psa::new(cfg).cycles(l, m, n);
        prop_assert_eq!(stepped.cycles, analytic);
        prop_assert_eq!(stepped.output, ops::matmul_naive(&a, &b));
    }

    #[test]
    fn int8_psa_error_bounded(l in 1usize..10, m in 1usize..40, n in 1usize..20, seed in 0u64..200) {
        use asr_tensor::quant::QuantizedMatrix;
        let a = init::uniform(l, m, -1.0, 1.0, seed);
        let b = init::uniform(m, n, -1.0, 1.0, seed + 1);
        let q = asr_systolic::quant_psa::Int8Psa::from_fp32(PsaConfig::paper_default());
        let approx = q.matmul(&a, &QuantizedMatrix::quantize(&b));
        let exact = ops::matmul_naive(&a, &b);
        // worst case error per output element: m * (step_a + step_b) with
        // steps <= 1/127; generous bound of 2 m/100
        let bound = 2.0 * m as f32 / 100.0 + 1e-3;
        prop_assert!(max_abs_diff(&approx, &exact) < bound,
            "err {} > bound {}", max_abs_diff(&approx, &exact), bound);
    }

    #[test]
    fn int8_psa_always_faster_than_fp32(l in 1usize..32, m in 1usize..128, n in 1usize..128) {
        let fp32 = Psa::paper_default();
        let q = asr_systolic::quant_psa::Int8Psa::from_fp32(PsaConfig::paper_default());
        prop_assert!(q.cycles(l, m, n) <= fp32.cycles(l, m, n));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn abft_detects_any_single_lane_fault(
        lane in 0usize..64, l in 1usize..12, m in 1usize..96, n in 1usize..160
    ) {
        // ABFT detects any single sticky lane fault within one block: every
        // corrupted tile's checksum mismatches, and localized recompute
        // restores the clean bits exactly. Delta sweeps the seeded range.
        let psa = Psa::paper_default();
        let delta = 0.5 + (lane % 8) as f32 * 0.5;
        let seed = (lane * 131 + l * 17 + m * 3 + n) as u64;
        let a = init::uniform(l, m, -1.0, 1.0, seed);
        let b = init::uniform(m, n, -1.0, 1.0, seed + 1);
        let clean = psa.matmul(&a, &b);
        let eng = CheckedPsa::with_fault(
            psa,
            IntegrityLevel::DetectAndRecompute,
            Some(LaneFault { lane, delta }),
        );
        let repaired = asr_systolic::PsaMatmul::matmul(&eng, &a, &b);
        let stats = eng.stats();
        // The lane corrupts a tile iff it lands inside the tile's width.
        prop_assert_eq!(stats.detected, stats.corrupted_tiles);
        prop_assert_eq!(stats.recomputed, stats.corrupted_tiles);
        prop_assert_eq!(repaired, clean);
    }
}
