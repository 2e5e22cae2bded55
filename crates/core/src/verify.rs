//! Schedule verification: machine-checked invariants over simulated
//! architectures.
//!
//! The `Timeline` already rejects double-booked units; this module checks the
//! *semantic* invariants a correct load/compute schedule must satisfy —
//! every compute starts after its own load finishes, the double buffer is
//! never over-subscribed, computes run in layer order — and reports specific
//! violations. Used by tests as failure injection (hand-built broken
//! schedules must be caught) and by the CLI as a post-simulation check.

use crate::arch::ArchResult;
use asr_fpga_sim::timeline::Timeline;

/// A violated schedule invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A compute span has no matching load span.
    MissingLoad {
        /// The compute label (e.g. "CE3").
        compute: String,
    },
    /// A compute starts before its weights finished loading.
    ComputeBeforeLoad {
        /// The phase label.
        label: String,
        /// Load end time.
        load_end: f64,
        /// Compute start time.
        compute_start: f64,
    },
    /// Computes run out of layer order.
    OutOfOrder {
        /// The earlier-indexed compute that starts later.
        first: String,
        /// The later-indexed compute that starts earlier.
        second: String,
    },
    /// More than two loads are in flight/resident before their compute — the
    /// double buffer cannot hold them.
    BufferOversubscribed {
        /// The load that would need a third buffer.
        label: String,
    },
}

/// Extract the phase key from a span label ("LWE3" / "CE3" → "E3").
fn phase_key(label: &str) -> Option<&str> {
    label.strip_prefix("LW").or_else(|| label.strip_prefix('C'))
}

/// Verify a simulated architecture result; empty vec means all invariants hold.
pub fn verify(result: &ArchResult) -> Vec<Violation> {
    verify_timeline(&result.timeline)
}

/// Verify any load/compute timeline with `load-*` and `compute` units.
pub fn verify_timeline(tl: &Timeline) -> Vec<Violation> {
    let mut violations = Vec::new();

    // collect loads by phase key
    let mut loads: Vec<(&str, f64, f64)> = Vec::new(); // (key, start, end)
    for unit in tl.units() {
        if unit.starts_with("load") {
            for span in tl.unit_spans(unit) {
                if let Some(key) = phase_key(&span.label) {
                    loads.push((key, span.start, span.end));
                }
            }
        }
    }
    let computes: Vec<(&str, f64, f64)> = tl
        .unit_spans("compute")
        .into_iter()
        .filter_map(|s| phase_key(&s.label).map(|k| (k, s.start, s.end)))
        .collect();

    // 1. every compute has a load that finished before it starts
    for &(key, cstart, _) in &computes {
        match loads.iter().find(|&&(k, ..)| k == key) {
            None => violations.push(Violation::MissingLoad { compute: key.to_string() }),
            Some(&(_, _, lend)) => {
                if cstart < lend - 1e-12 {
                    violations.push(Violation::ComputeBeforeLoad {
                        label: key.to_string(),
                        load_end: lend,
                        compute_start: cstart,
                    });
                }
            }
        }
    }

    // 2. computes in order (they are sorted by start; labels must follow
    //    insertion order of loads)
    let load_order: Vec<&str> = {
        let mut v = loads.clone();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        v.into_iter().map(|(k, ..)| k).collect()
    };
    let pos = |k: &str| load_order.iter().position(|&x| x == k);
    for w in computes.windows(2) {
        if let (Some(p0), Some(p1)) = (pos(w[0].0), pos(w[1].0)) {
            if p0 > p1 {
                violations.push(Violation::OutOfOrder {
                    first: w[1].0.to_string(),
                    second: w[0].0.to_string(),
                });
            }
        }
    }

    // 3. double buffer: at any load's start, at most one earlier LAYER may be
    //    loaded-but-not-yet-computed (a decoder's "m"/"f" phases share one
    //    layer buffer).
    let layer_of = |key: &str| key.trim_end_matches(['m', 'f']).to_string();
    for &(key, lstart, _) in &loads {
        let mut resident: Vec<String> = loads
            .iter()
            .filter(|&&(k, ls, _)| {
                layer_of(k) != layer_of(key) && ls <= lstart + 1e-12 && {
                    // still resident if its compute hasn't finished by lstart
                    computes
                        .iter()
                        .find(|&&(ck, ..)| ck == k)
                        .map(|&(_, _, cend)| cend > lstart + 1e-12)
                        .unwrap_or(true)
                }
            })
            .map(|&(k, ..)| layer_of(k))
            .collect();
        resident.sort();
        resident.dedup();
        if resident.len() > 1 {
            violations.push(Violation::BufferOversubscribed { label: key.to_string() });
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{simulate, Architecture};
    use crate::config::AccelConfig;

    fn unpadded(s: usize) -> AccelConfig {
        let mut c = AccelConfig::paper_default();
        c.max_seq_len = s;
        c
    }

    #[test]
    fn all_architectures_pass_verification() {
        for s in [4usize, 16, 32] {
            let cfg = unpadded(s);
            for arch in Architecture::ALL {
                let r = simulate(&cfg, arch, s);
                let v = verify(&r);
                assert!(v.is_empty(), "{:?} s={}: {:?}", arch, s, v);
            }
        }
    }

    #[test]
    fn injected_compute_before_load_is_caught() {
        let mut tl = Timeline::new();
        tl.push("load-0", "LWE1", 0.0, 2.0).unwrap();
        tl.push("compute", "CE1", 1.0, 3.0).unwrap(); // starts mid-load
        let v = verify_timeline(&tl);
        assert!(matches!(v[0], Violation::ComputeBeforeLoad { .. }), "{:?}", v);
    }

    #[test]
    fn injected_missing_load_is_caught() {
        let mut tl = Timeline::new();
        tl.push("compute", "CE1", 0.0, 1.0).unwrap();
        let v = verify_timeline(&tl);
        assert_eq!(v, vec![Violation::MissingLoad { compute: "E1".into() }]);
    }

    #[test]
    fn injected_out_of_order_computes_caught() {
        let mut tl = Timeline::new();
        tl.push("load-0", "LWE1", 0.0, 1.0).unwrap();
        tl.push("load-0", "LWE2", 1.0, 2.0).unwrap();
        // E2 computes before E1
        tl.push("compute", "CE2", 2.0, 3.0).unwrap();
        tl.push("compute", "CE1", 3.0, 4.0).unwrap();
        let v = verify_timeline(&tl);
        assert!(v.iter().any(|x| matches!(x, Violation::OutOfOrder { .. })), "{:?}", v);
    }

    #[test]
    fn injected_triple_buffering_caught() {
        let mut tl = Timeline::new();
        // three loads all before any compute finishes
        tl.push("load-0", "LWE1", 0.0, 1.0).unwrap();
        tl.push("load-0", "LWE2", 1.0, 2.0).unwrap();
        tl.push("load-0", "LWE3", 2.0, 3.0).unwrap();
        tl.push("compute", "CE1", 3.0, 4.0).unwrap();
        tl.push("compute", "CE2", 4.0, 5.0).unwrap();
        tl.push("compute", "CE3", 5.0, 6.0).unwrap();
        let v = verify_timeline(&tl);
        assert!(v.iter().any(|x| matches!(x, Violation::BufferOversubscribed { .. })), "{:?}", v);
    }

    #[test]
    fn clean_hand_built_schedule_passes() {
        let mut tl = Timeline::new();
        tl.push("load-0", "LWE1", 0.0, 1.0).unwrap();
        tl.push("compute", "CE1", 1.0, 3.0).unwrap();
        tl.push("load-0", "LWE2", 1.0, 2.0).unwrap();
        tl.push("compute", "CE2", 3.0, 5.0).unwrap();
        assert!(verify_timeline(&tl).is_empty());
    }
}
