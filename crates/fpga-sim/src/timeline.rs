//! Span-based discrete-event timeline.
//!
//! The A1/A2/A3 architectures of the paper are load/compute *schedules* —
//! Figs 4.8–4.11 are literally Gantt charts. This module models exactly that:
//! named units (an HBM channel, the PSA pool, a kernel) own non-overlapping
//! time spans; the timeline computes makespan, per-unit busy time, stalls,
//! and validates that no unit is ever double-booked.

use std::borrow::Cow;

/// One occupied interval on a unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unit the span occupies (e.g. `"hbm-ch0"`, `"psa-pool"`). A constant
    /// unit name is borrowed, so a schedule's spans share it uncopied.
    pub unit: Cow<'static, str>,
    /// Label describing the work (e.g. `"LW3"`, `"C2"`). A label a
    /// schedule names from a constant table is borrowed, like the unit.
    pub label: Cow<'static, str>,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

impl Span {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Error from an invalid span insertion.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineError {
    /// `end < start`.
    NegativeDuration {
        /// Offending label.
        label: String,
    },
    /// The span overlaps an existing span on the same unit.
    Overlap {
        /// Unit that was double-booked.
        unit: String,
        /// The new span's label.
        label: String,
        /// The existing span's label.
        existing: String,
    },
}

impl std::fmt::Display for TimelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimelineError::NegativeDuration { label } => {
                write!(f, "span '{}' has negative duration", label)
            }
            TimelineError::Overlap { unit, label, existing } => {
                write!(f, "unit '{}': span '{}' overlaps existing '{}'", unit, label, existing)
            }
        }
    }
}

impl std::error::Error for TimelineError {}

/// A collection of spans with per-unit exclusivity.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    spans: Vec<Span>,
    /// Each unit's span indices, in insertion order, with the units in
    /// first-use order. A schedule drives a handful of units (its load
    /// engines, the compute unit, a fault track), so a linear scan finds a
    /// unit without building a map keyed by owned names.
    by_unit: Vec<(Cow<'static, str>, Vec<usize>)>,
}

/// Tolerance for treating two floats as the same instant (1 ps).
const EPS: f64 = 1e-12;

impl Timeline {
    /// Empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The span indices of `unit`, if it holds any.
    fn indices(&self, unit: &str) -> Option<&[usize]> {
        self.by_unit.iter().find(|(u, _)| u == unit).map(|(_, idx)| idx.as_slice())
    }

    /// Add a span, enforcing unit exclusivity.
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

    /// First instant at which `unit` is free at-or-after `t`.
    ///
    /// With non-overlapping spans this is simply `max(t, last end)` when `t`
    /// falls inside/behind the occupied region; gaps before the last span are
    /// not reused (schedules here are append-only, like the paper's pipelines).
    pub fn free_at(&self, unit: &str, t: f64) -> f64 {
        match self.indices(unit) {
            None => t,
            Some(indices) => {
                let last_end =
                    indices.iter().map(|&i| self.spans[i].end).fold(f64::NEG_INFINITY, f64::max);
                t.max(last_end)
            }
        }
    }

    /// All spans in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans on one unit, sorted by start time.
    pub fn unit_spans(&self, unit: &str) -> Vec<&Span> {
        let mut v: Vec<&Span> = self
            .indices(unit)
            .map(|idx| idx.iter().map(|&i| &self.spans[i]).collect())
            .unwrap_or_default();
        v.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        v
    }

    /// Latest end time over all spans (0 for an empty timeline).
    pub fn makespan(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Total busy time of a unit.
    pub fn busy_time(&self, unit: &str) -> f64 {
        self.unit_spans(unit).iter().map(|s| s.duration()).sum()
    }

    /// Idle time of a unit within `[first start, last end]` — the "stalls"
    /// the paper's A2→A3 refinement removes from the compute phase.
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

    /// Busy fraction of a unit relative to the whole makespan.
    pub fn utilization(&self, unit: &str) -> f64 {
        let total = self.makespan();
        if total == 0.0 {
            0.0
        } else {
            self.busy_time(unit) / total
        }
    }

    /// All unit names present, sorted.
    pub fn units(&self) -> Vec<&str> {
        let mut units: Vec<&str> = self.by_unit.iter().map(|(u, _)| u.as_ref()).collect();
        units.sort_unstable();
        units
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_makespan() {
        let mut tl = Timeline::new();
        tl.push("u", "a", 0.0, 1.0).unwrap();
        tl.push("u", "b", 1.0, 2.5).unwrap();
        tl.push("v", "c", 0.5, 0.75).unwrap();
        assert_eq!(tl.makespan(), 2.5);
        assert_eq!(tl.spans().len(), 3);
    }

    #[test]
    fn overlap_rejected_same_unit_allowed_cross_unit() {
        let mut tl = Timeline::new();
        tl.push("u", "a", 0.0, 1.0).unwrap();
        let err = tl.push("u", "b", 0.5, 1.5).unwrap_err();
        assert!(matches!(err, TimelineError::Overlap { .. }));
        // the same interval on a different unit is fine
        tl.push("v", "b", 0.5, 1.5).unwrap();
    }

    #[test]
    fn touching_spans_are_not_overlap() {
        let mut tl = Timeline::new();
        tl.push("u", "a", 0.0, 1.0).unwrap();
        tl.push("u", "b", 1.0, 2.0).unwrap();
    }

    #[test]
    fn negative_duration_rejected() {
        let mut tl = Timeline::new();
        assert!(matches!(
            tl.push("u", "bad", 2.0, 1.0),
            Err(TimelineError::NegativeDuration { .. })
        ));
    }

    #[test]
    fn free_at_after_last_span() {
        let mut tl = Timeline::new();
        assert_eq!(tl.free_at("u", 3.0), 3.0);
        tl.push("u", "a", 0.0, 5.0).unwrap();
        assert_eq!(tl.free_at("u", 3.0), 5.0);
        assert_eq!(tl.free_at("u", 7.0), 7.0);
    }

    #[test]
    fn stall_is_gap_between_spans() {
        let mut tl = Timeline::new();
        tl.push("c", "C1", 0.0, 1.0).unwrap();
        tl.push("c", "C2", 1.5, 2.5).unwrap();
        tl.push("c", "C3", 2.5, 3.0).unwrap();
        assert!((tl.stall_time("c") - 0.5).abs() < 1e-12);
        assert!((tl.busy_time("c") - 2.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_fraction() {
        let mut tl = Timeline::new();
        tl.push("c", "C1", 0.0, 1.0).unwrap();
        tl.push("l", "L1", 0.0, 4.0).unwrap();
        assert!((tl.utilization("c") - 0.25).abs() < 1e-12);
        assert!((tl.utilization("l") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unit_spans_sorted() {
        let mut tl = Timeline::new();
        tl.push("u", "late", 5.0, 6.0).unwrap();
        tl.push("u", "early", 0.0, 1.0).unwrap();
        let spans = tl.unit_spans("u");
        assert_eq!(spans[0].label, "early");
        assert_eq!(spans[1].label, "late");
    }

    #[test]
    fn units_list_sorted_whatever_the_first_use_order() {
        let mut tl = Timeline::new();
        tl.push("maxi-1", "LW2", 0.0, 1.0).unwrap();
        tl.push("kernels", "C1", 0.0, 1.0).unwrap();
        tl.push("maxi-0", "LW1", 0.0, 1.0).unwrap();
        tl.push("maxi-1", "LW4", 1.0, 2.0).unwrap();
        assert_eq!(tl.units(), ["kernels", "maxi-0", "maxi-1"]);
        assert_eq!(tl.unit_spans("maxi-1").len(), 2);
        assert_eq!(tl.free_at("maxi-1", 0.5), 2.0);
    }

    #[test]
    fn zero_duration_span_ok() {
        let mut tl = Timeline::new();
        tl.push("u", "marker", 1.0, 1.0).unwrap();
        tl.push("u", "work", 1.0, 2.0).unwrap();
        assert_eq!(tl.busy_time("u"), 1.0);
    }
}
