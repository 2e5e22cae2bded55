//! Statistics helpers: percentiles with sample counts, best-of-repetition
//! host timing, the seeded arrival schedule, bisection for capacity and
//! the backlog test.

use std::time::Instant;

/// A distribution summary that always carries its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Median (nearest rank).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Samples summarised.
    pub n: usize,
}

impl Dist {
    /// Summarise `values` (any order). An empty sample summarises to zeros.
    pub fn of(values: &[f64]) -> Dist {
        if values.is_empty() {
            return Dist { median: 0.0, min: 0.0, n: 0 };
        }
        let sorted = sorted(values);
        Dist { median: percentile(&sorted, 0.5), min: sorted[0], n: sorted.len() }
    }
}

/// A sorted copy (total order; NaN never occurs in timings or latencies).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `q` of the sample at or below it. `q` in (0, 1].
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The fastest of a set of repeated host timings of one identical sample.
pub fn best_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Host seconds per call of `f`, timed over a batch of calls that together
/// last at least `min_batch_s` (so sub-millisecond calls are never timed
/// one at a time). Returns the per-call time and the batch's call count.
pub fn time_batched<T>(min_batch_s: f64, mut f: impl FnMut() -> T) -> (f64, usize) {
    let t0 = Instant::now();
    let mut calls = 0usize;
    loop {
        std::hint::black_box(f());
        calls += 1;
        let el = t0.elapsed().as_secs_f64();
        if el >= min_batch_s {
            return (el / calls as f64, calls);
        }
    }
}

/// SplitMix64: the benchmark's only random source, so inputs depend on the
/// seed argument alone.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Arrival times of a unit-rate Poisson process: `n` cumulative sums of
/// exponential gaps with mean 1. Dividing by a rate `r` gives the same
/// arrivals offered at `r` per second, so every load point and every
/// bisection probe sees one schedule, only compressed.
pub fn unit_poisson(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -rng.unit().ln();
            t
        })
        .collect()
}

/// The highest value in `[lo, hi]` at which `pass` holds, by bisection to a
/// resolution of `tol`. `pass(lo)` must hold and `pass(hi)` must not; the
/// probe outcomes are assumed monotone (true below capacity, false above).
/// Returns `None` when either end violates that assumption.
pub fn bisect_max(lo: f64, hi: f64, tol: f64, mut pass: impl FnMut(f64) -> bool) -> Option<f64> {
    assert!(lo < hi && tol > 0.0, "bad bisection bracket [{lo}, {hi}] / {tol}");
    if !pass(lo) || pass(hi) {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if pass(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Tolerance of the backlog test: the final eighth's mean latency may
/// exceed the eighth before it by sampling noise, not by a trend.
pub const BACKLOG_TOLERANCE: f64 = 0.10;

/// Mean of `values` with every value above `cap` counted as `cap`.
fn capped_mean(values: &[f64], cap: f64) -> f64 {
    values.iter().map(|&v| v.min(cap)).sum::<f64>() / values.len() as f64
}

/// Whether a run's backlog grew: `latencies` are per offered operation in
/// arrival order, `f64::INFINITY` for one that never finished. The backlog
/// grew when the mean latency of the run's final eighth exceeds that of the
/// eighth before it by more than [`BACKLOG_TOLERANCE`]; an unfinished
/// operation counts as the run's slowest finished one. Adjacent late
/// segments (rather than the first quarter against the last) keep a planned
/// mid-run loss of capacity, such as a node kill, from reading as a
/// backlog, and means (rather than medians) keep latencies that cluster on
/// a few service times from flipping the test.
pub fn backlog_grows(latencies: &[f64]) -> bool {
    let e = latencies.len() / 8;
    if e == 0 {
        return false;
    }
    let cap = latencies.iter().copied().filter(|l| l.is_finite()).fold(0.0, f64::max);
    let end = latencies.len();
    let before = capped_mean(&latencies[end - 2 * e..end - e], cap);
    let last = capped_mean(&latencies[end - e..], cap);
    last > before * (1.0 + BACKLOG_TOLERANCE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_counts() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = sorted(&v);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // With ten samples the p99 rank is the maximum.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.99), 10.0);
        let d = Dist::of(&[3.0, 1.0, 2.0]);
        assert_eq!(d, Dist { median: 2.0, min: 1.0, n: 3 });
        assert_eq!(Dist::of(&[]).n, 0);
    }

    #[test]
    fn best_of_repetitions_is_the_minimum() {
        assert_eq!(best_of(&[1.5, 0.9, 1.2]), 0.9);
        assert_eq!(best_of(&[]), f64::INFINITY);
    }

    #[test]
    fn batched_timing_covers_the_minimum_batch() {
        let (per_call, calls) = time_batched(0.002, || std::hint::black_box(1 + 1));
        assert!(calls > 1);
        assert!(per_call * calls as f64 >= 0.002);
    }

    #[test]
    fn unit_poisson_is_seeded_increasing_and_unit_rate() {
        let a = unit_poisson(20_000, 5);
        assert_eq!(a, unit_poisson(20_000, 5));
        assert_ne!(a, unit_poisson(20_000, 6));
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate - 1.0).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn bisection_on_a_fixed_unit_rate_schedule() {
        // A toy single-server queue over one unit-rate schedule with a
        // 10 ms service time: it keeps up below 100 per second, and the
        // bisection must land just under that on the scaled schedule.
        let unit = unit_poisson(5_000, 11);
        let keeps_up = |rate: f64| {
            let mut free = 0.0f64;
            let lat: Vec<f64> = unit
                .iter()
                .map(|&u| {
                    let t = u / rate;
                    free = free.max(t) + 0.010;
                    free - t
                })
                .collect();
            !backlog_grows(&lat) && percentile(&sorted(&lat), 0.99) <= 0.1
        };
        let cap = bisect_max(1.0, 1000.0, 0.5, keeps_up).expect("bracket holds");
        assert!(cap > 50.0 && cap < 100.0, "capacity {cap}");
        assert_eq!(bisect_max(1.0, 1000.0, 0.5, keeps_up), Some(cap), "same schedule, same answer");
        assert_eq!(bisect_max(1.0, 2.0, 0.1, |_| true), None, "upper end must fail");
        assert_eq!(bisect_max(1.0, 2.0, 0.1, |_| false), None, "lower end must pass");
    }

    #[test]
    fn backlog_test_flags_only_a_trend() {
        let flat: Vec<f64> = (0..400).map(|i| 10.0 + (i % 7) as f64 * 0.1).collect();
        assert!(!backlog_grows(&flat));
        let growing: Vec<f64> = (0..400).map(|i| 10.0 + i as f64).collect();
        assert!(backlog_grows(&growing));
        // Misses count as the slowest finished latency, here one near a
        // 200 ms deadline early in the run.
        let mut late_misses = flat.clone();
        late_misses[5] = 190.0;
        for l in late_misses.iter_mut().skip(360) {
            *l = f64::INFINITY;
        }
        assert!(backlog_grows(&late_misses));
        let mut step_down: Vec<f64> = flat.clone();
        for l in step_down.iter_mut().skip(240) {
            *l *= 2.0; // capacity halved at 60 %: a level shift, not a trend
        }
        assert!(!backlog_grows(&step_down));
        assert!(!backlog_grows(&[1.0, 2.0, 3.0]), "too short to split into eighths");
    }
}
