//! System-level property tests spanning crates.

use proptest::prelude::*;
use transformer_asr_accel::accel::arch::{simulate, Architecture};
use transformer_asr_accel::accel::{mm, mm_exec, AccelConfig, SystolicBackend};
use transformer_asr_accel::tensor::{init, max_abs_diff, ops, MatMul};

fn unpadded_cfg(s: usize) -> AccelConfig {
    let mut c = AccelConfig::paper_default();
    c.max_seq_len = s;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn architecture_ordering_holds_for_any_s(s in 1usize..48) {
        let c = unpadded_cfg(s);
        let a1 = simulate(&c, Architecture::A1, s).latency_s;
        let a2 = simulate(&c, Architecture::A2, s).latency_s;
        let a3 = simulate(&c, Architecture::A3, s).latency_s;
        prop_assert!(a2 <= a1 + 1e-9, "s={}: A2 {} > A1 {}", s, a2, a1);
        // allow A3 the fixed setup cost of its split decoder transfers plus
        // the phase-granular buffer conservatism (see core proptests)
        prop_assert!(a3 <= a2 * 1.005 + 20.0 * c.device.hbm.transfer_latency_s,
            "s={}: A3 {} > A2 {}", s, a3, a2);
        prop_assert!(a3 > 0.0);
    }

    #[test]
    fn a1_is_load_plus_compute_exactly(s in 1usize..40) {
        let c = unpadded_cfg(s);
        let r = simulate(&c, Architecture::A1, s);
        prop_assert!((r.latency_s - (r.load_total_s + r.compute_total_s)).abs() < 1e-9);
    }

    #[test]
    fn latencies_monotone_in_s(s in 2usize..40) {
        let c_small = unpadded_cfg(s - 1);
        let c_big = unpadded_cfg(s);
        for arch in Architecture::ALL {
            let small = simulate(&c_small, arch, s - 1).latency_s;
            let big = simulate(&c_big, arch, s).latency_s;
            prop_assert!(big >= small - 1e-12, "{:?} s={} {} < {}", arch, s, big, small);
        }
    }

    #[test]
    fn mm_dims_compose_for_any_s(s in 1usize..64) {
        let c = AccelConfig::paper_default();
        for kind in mm::MmKind::ALL {
            let ((l, m), (m2, n), (lo, no)) = kind.dims(s, &c);
            prop_assert_eq!(m, m2);
            prop_assert_eq!((l, n), (lo, no));
        }
    }

    #[test]
    fn mm_cycles_positive_and_monotone(s in 2usize..48) {
        let c = AccelConfig::paper_default();
        for kind in mm::MmKind::ALL {
            let small = mm::mm_cycles(kind, &c, s - 1);
            let big = mm::mm_cycles(kind, &c, s);
            prop_assert!(big >= small, "{:?}", kind);
            prop_assert!(small.get() > 0);
        }
    }

    #[test]
    fn systolic_backend_exact_on_random_products(
        l in 1usize..16, m in 1usize..48, n in 1usize..48, seed in 0u64..500
    ) {
        let a = init::uniform(l, m, -1.0, 1.0, seed);
        let b = init::uniform(m, n, -1.0, 1.0, seed + 1);
        let be = SystolicBackend::paper_default();
        prop_assert_eq!(be.matmul(&a, &b), ops::matmul_naive(&a, &b));
    }

    #[test]
    fn mm1_striping_matches_plain_matmul(
        rows in 1usize..=32,
        seed in 0u64..u64::MAX,
        cols in prop::sample::select(vec![16usize, 32, 64, 128]),
    ) {
        // MM1 (Fig 4.3) cuts the 512-wide input into d_model / cols stripes
        // (32, 16, 8 or 4 here) and sums the per-stripe PSA products.
        let mut c = AccelConfig::paper_default();
        c.psa.cols = cols;
        let x = init::uniform(rows, c.model.d_model, -0.5, 0.5, seed);
        let w = init::uniform(c.model.d_model, 64, -0.5, 0.5, seed.wrapping_add(1));
        let striped = mm_exec::mm1_exec_with(&c, &c.psa_engine(), &x, &w);
        prop_assert!(max_abs_diff(&striped, &ops::matmul_naive(&x, &w)) < 2e-3);
    }

    #[test]
    fn zero_padding_is_numerically_inert(s in 1usize..12, pad in 0usize..8, seed in 0u64..200) {
        // The bitstream pads inputs to the built length (§5.1.5); padding
        // must not change the unpadded region of any product.
        let d = 24;
        let x = init::uniform(s, d, -1.0, 1.0, seed);
        let w = init::uniform(d, 16, -1.0, 1.0, seed + 1);
        let xp = x.pad_to(s + pad, d);
        let full = ops::matmul_naive(&xp, &w);
        let cropped = full.submatrix(0, 0, s, 16);
        prop_assert!(max_abs_diff(&cropped, &ops::matmul_naive(&x, &w)) < 1e-5);
    }

    #[test]
    fn compute_stall_never_negative(s in 1usize..40) {
        let c = unpadded_cfg(s);
        for arch in Architecture::ALL {
            let r = simulate(&c, arch, s);
            prop_assert!(r.compute_stall_s >= 0.0);
            prop_assert!(r.latency_s >= r.compute_total_s);
        }
    }
}
