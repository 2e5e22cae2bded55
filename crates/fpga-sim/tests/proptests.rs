//! Property tests for the platform substrate: timeline exclusivity, resource
//! algebra, transfer-model monotonicity, runtime dependency ordering.

use asr_fpga_sim::device::{alveo_u50, SlrId};
use asr_fpga_sim::hbm::HbmSpec;
use asr_fpga_sim::resources::ResourceVector;
use asr_fpga_sim::runtime::Runtime;
use asr_fpga_sim::timeline::{Span, Timeline, TimelineError};
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

/// The linear-scan timeline that per-unit latest ends replaced: `push`,
/// `free_at` and `unit_spans` copied verbatim (each push scans every earlier
/// span of its unit), with the queries built on them. The reference the
/// booking property holds [`Timeline`] to.
mod linear {
    use super::{Span, TimelineError};
    use std::borrow::Cow;

    const EPS: f64 = 1e-12;

    #[derive(Default)]
    pub struct Timeline {
        spans: Vec<Span>,
        by_unit: Vec<(Cow<'static, str>, Vec<usize>)>,
    }

    impl Timeline {
        fn indices(&self, unit: &str) -> Option<&[usize]> {
            self.by_unit.iter().find(|(u, _)| u == unit).map(|(_, idx)| idx.as_slice())
        }

        pub fn push(
            &mut self,
            unit: impl Into<Cow<'static, str>>,
            label: impl Into<Cow<'static, str>>,
            start: f64,
            end: f64,
        ) -> Result<(), TimelineError> {
            let (unit, label) = (unit.into(), label.into());
            if end < start - EPS {
                return Err(TimelineError::NegativeDuration { label: label.into_owned() });
            }
            let slot = self.by_unit.iter().position(|(u, _)| *u == unit);
            if let Some(slot) = slot {
                for &i in &self.by_unit[slot].1 {
                    let s = &self.spans[i];
                    // overlap iff intervals intersect with positive measure
                    if start < s.end - EPS && s.start < end - EPS {
                        let (unit, existing) = (unit.into_owned(), s.label.to_string());
                        let label = label.into_owned();
                        return Err(TimelineError::Overlap { unit, label, existing });
                    }
                }
            }
            let idx = self.spans.len();
            match slot {
                Some(slot) => self.by_unit[slot].1.push(idx),
                None => self.by_unit.push((unit.clone(), vec![idx])),
            }
            self.spans.push(Span { unit, label, start, end });
            Ok(())
        }

        pub fn free_at(&self, unit: &str, t: f64) -> f64 {
            match self.indices(unit) {
                None => t,
                Some(indices) => {
                    let last_end = indices
                        .iter()
                        .map(|&i| self.spans[i].end)
                        .fold(f64::NEG_INFINITY, f64::max);
                    t.max(last_end)
                }
            }
        }

        pub fn spans(&self) -> &[Span] {
            &self.spans
        }

        pub fn unit_spans(&self, unit: &str) -> Vec<&Span> {
            let mut v: Vec<&Span> = self
                .indices(unit)
                .map(|idx| idx.iter().map(|&i| &self.spans[i]).collect())
                .unwrap_or_default();
            v.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            v
        }

        pub fn busy_time(&self, unit: &str) -> f64 {
            self.unit_spans(unit).iter().map(|s| s.duration()).sum()
        }

        pub fn stall_time(&self, unit: &str) -> f64 {
            let spans = self.unit_spans(unit);
            if spans.len() < 2 {
                return 0.0;
            }
            let mut stall = 0.0;
            for w in spans.windows(2) {
                stall += (w[1].start - w[0].end).max(0.0);
            }
            stall
        }

        pub fn units(&self) -> Vec<&str> {
            let mut units: Vec<&str> = self.by_unit.iter().map(|(u, _)| u.as_ref()).collect();
            units.sort_unstable();
            units
        }
    }
}

/// The units a drawn sequence books, and one it never does.
const UNITS: [&str; 4] = ["load-0", "compute", "load-1", "absent"];
/// Grid of the drawn bounds, seconds: coarse, so bounds coincide.
const GRID: f64 = 1e-3;
/// Offsets of a bound from its grid point, seconds: within and across the
/// timeline's 1 ps tolerance on either side.
const SHIFTS: [f64; 9] = [0.0, 0.5e-12, -0.5e-12, 1e-12, -1e-12, 1.5e-12, -1.5e-12, 2e-12, -2e-12];

/// A span's fields, its bounds as bits, so the comparison is bit-exact.
fn bits(s: &Span) -> (String, String, u64, u64) {
    (s.unit.to_string(), s.label.to_string(), s.start.to_bits(), s.end.to_bits())
}

/// One drawn push: unit, grid start and offset, then a length in grid steps
/// with the end's offset (a length of 4 or more is instead a duration a
/// shift below zero), and a NaN pick (0: start, 1: end, else none).
type Push = (usize, u32, usize, u32, usize, usize);

fn bounds(&(_, k, shift, len, end_shift, nan): &Push) -> (f64, f64) {
    let start = k as f64 * GRID + SHIFTS[shift];
    let end = match len {
        0..=3 => (k + len) as f64 * GRID + SHIFTS[end_shift],
        _ => start - SHIFTS[end_shift].abs(),
    };
    match nan {
        0 => (f64::NAN, end),
        1 => (start, f64::NAN),
        _ => (start, end),
    }
}

proptest! {
    #![proptest_config(env_cases(128))]

    // Booking each unit's latest end answers every push and every query
    // exactly as scanning the unit's spans did: the same `Ok` or the same
    // error, its labels included, and the same bits from every query, for
    // bounds on and a fraction of a picosecond around a coarse grid, zero
    // and slightly negative durations and pushes out of start order. A NaN
    // bound is refused typed, naming its label, and books nothing, so the
    // reference (which books it) sees only the pushes the timeline takes.
    #[test]
    fn booked_latest_ends_answer_as_the_linear_scan_did(
        units in 2usize..=3,
        pushes in proptest::collection::vec(
            (0usize..3, 0u32..6, 0usize..9, 0u32..6, 0usize..9, 0usize..12),
            1..32,
        ),
    ) {
        let (mut tl, mut reference) = (Timeline::new(), linear::Timeline::default());
        for (i, push) in pushes.iter().enumerate() {
            let unit = UNITS[push.0 % units];
            let (start, end) = bounds(push);
            let label = format!("s{i}");
            let got = tl.push(unit, label.clone(), start, end);
            if start.is_nan() || end.is_nan() {
                prop_assert_eq!(got, Err(TimelineError::NanBound { label }));
            } else {
                let want = reference.push(unit, label, start, end);
                prop_assert_eq!(got, want, "push {} of {:?}", i, pushes);
            }
            let spans: Vec<_> = tl.spans().iter().map(bits).collect();
            let want: Vec<_> = reference.spans().iter().map(bits).collect();
            prop_assert_eq!(spans, want);
            prop_assert_eq!(tl.units(), reference.units());
            for unit in UNITS {
                for t in [0.0, 2.5 * GRID, 9.0 * GRID, f64::NAN] {
                    prop_assert_eq!(
                        tl.free_at(unit, t).to_bits(),
                        reference.free_at(unit, t).to_bits()
                    );
                }
                let spans: Vec<_> = tl.unit_spans(unit).into_iter().map(bits).collect();
                let want: Vec<_> = reference.unit_spans(unit).into_iter().map(bits).collect();
                prop_assert_eq!(spans, want);
                prop_assert_eq!(tl.busy_time(unit).to_bits(), reference.busy_time(unit).to_bits());
                prop_assert_eq!(
                    tl.stall_time(unit).to_bits(),
                    reference.stall_time(unit).to_bits()
                );
            }
        }
    }
}
