//! Property tests for the platform substrate: timeline exclusivity, resource
//! algebra, transfer-model monotonicity, runtime dependency ordering.

use asr_fpga_sim::device::{alveo_u50, SlrId};
use asr_fpga_sim::hbm::HbmSpec;
use asr_fpga_sim::resources::ResourceVector;
use asr_fpga_sim::runtime::Runtime;
use asr_fpga_sim::timeline::Timeline;
use proptest::prelude::*;

/// Case count: `PROPTEST_CASES` when set (the CI deep-proptest job exports
/// 512), else the tier-1 default. The vendored proptest does not read the
/// environment itself, so the config expression does.
fn env_cases(default: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

fn rv() -> impl Strategy<Value = ResourceVector> {
    (0u64..1000, 0u64..1000, 0u64..100_000, 0u64..100_000)
        .prop_map(|(b, d, f, l)| ResourceVector::new(b, d, f, l))
}

proptest! {
    #![proptest_config(env_cases(48))]

    #[test]
    fn resource_addition_commutes_and_associates(a in rv(), b in rv(), c in rv()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a + ResourceVector::ZERO, a);
    }

    #[test]
    fn checked_sub_inverts_add(a in rv(), b in rv()) {
        prop_assert_eq!((a + b).checked_sub(&b), Some(a));
    }

    #[test]
    fn fits_is_a_partial_order(a in rv(), b in rv()) {
        // a fits a+b always; and if a fits b and b fits a then a == b
        prop_assert!(a.fits_within(&(a + b)));
        if a.fits_within(&b) && b.fits_within(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn binding_constraint_has_max_utilization(a in rv()) {
        let budget = ResourceVector::new(2688, 5952, 1_743_360, 871_680);
        let (_, pct) = a.binding_constraint(&budget);
        let (b, d, f, l) = a.utilization_pct(&budget);
        let max = b.max(d).max(f).max(l);
        prop_assert!((pct - max).abs() < 1e-12);
    }

    #[test]
    fn hbm_read_time_monotone_in_bytes_antitone_in_channels(
        bytes in 1u64..100_000_000, ch in 1u32..16
    ) {
        let hbm = HbmSpec::u50();
        prop_assert!(hbm.read_time_s(bytes + 1024, ch) >= hbm.read_time_s(bytes, ch));
        prop_assert!(hbm.read_time_s(bytes, ch + 1) <= hbm.read_time_s(bytes, ch));
    }

    #[test]
    fn timeline_rejects_any_overlapping_pair(start in 0.0f64..100.0, len in 0.1f64..10.0, overlap in 0.01f64..0.99) {
        let mut tl = Timeline::new();
        tl.push("u", "a", start, start + len).unwrap();
        // second span starting strictly inside the first
        let second_start = start + len * overlap;
        prop_assert!(tl.push("u", "b", second_start, second_start + len).is_err());
        // but fine on a different unit
        prop_assert!(tl.push("v", "b", second_start, second_start + len).is_ok());
    }

    #[test]
    fn timeline_busy_never_exceeds_makespan(spans in proptest::collection::vec((0.0f64..50.0, 0.01f64..5.0), 1..20)) {
        let mut tl = Timeline::new();
        let mut t = 0.0;
        for (i, (gap, len)) in spans.iter().enumerate() {
            t += gap;
            tl.push("u", format!("s{}", i), t, t + len).unwrap();
            t += len;
        }
        prop_assert!(tl.busy_time("u") <= tl.makespan() + 1e-9);
        prop_assert!(tl.utilization("u") <= 1.0 + 1e-12);
    }

    #[test]
    fn runtime_chain_latency_is_sum(d1 in 0.001f64..0.1, d2 in 0.001f64..0.1, d3 in 0.001f64..0.1) {
        let mut rt = Runtime::new(alveo_u50());
        let q = rt.create_queue("k");
        let a = rt.enqueue_kernel(q, "a", SlrId::Slr0, d1, &[]);
        let b = rt.enqueue_kernel(q, "b", SlrId::Slr0, d2, &[a]);
        let _c = rt.enqueue_kernel(q, "c", SlrId::Slr0, d3, &[b]);
        prop_assert!((rt.finish() - (d1 + d2 + d3)).abs() < 1e-12);
    }

    #[test]
    fn runtime_parallel_latency_is_max(d1 in 0.001f64..0.1, d2 in 0.001f64..0.1) {
        let mut rt = Runtime::new(alveo_u50());
        let q0 = rt.create_queue("k0");
        let q1 = rt.create_queue("k1");
        rt.enqueue_kernel(q0, "a", SlrId::Slr0, d1, &[]);
        rt.enqueue_kernel(q1, "b", SlrId::Slr1, d2, &[]);
        prop_assert!((rt.finish() - d1.max(d2)).abs() < 1e-12);
    }
}
