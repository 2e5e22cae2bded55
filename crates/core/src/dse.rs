//! Design-space exploration over the head-parallelism axis (Table 5.3).
//!
//! The pool of eight PSAs can serve 8 heads with 1 PSA each, 4 heads with 2,
//! 2 with 4, or 1 with 8. More PSAs per head shorten each MM1 (stripes run in
//! parallel) but serialise the head passes; the paper finds the fully
//! head-parallel point fastest (84.15 ms vs 92.03 ms at the serial extreme).

use crate::arch::{simulate, Architecture};
use crate::config::AccelConfig;
use crate::resources;

/// One explored design point.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// Heads computed concurrently.
    pub parallel_heads: usize,
    /// PSAs per concurrent head.
    pub psas_per_head: usize,
    /// A3 end-to-end latency at the built sequence length, milliseconds.
    pub latency_ms: f64,
    /// Whether the point fits the device.
    pub fits: bool,
}

/// Explore the Table 5.3 design points at the configuration's built length.
pub fn explore(base: &AccelConfig) -> Vec<DesignPoint> {
    explore_points(base, &[8, 4, 2, 1])
}

/// Explore arbitrary parallel-head counts, each sharing the whole pool. A
/// head count the configuration refuses (one that does not split the pool
/// evenly, say) is no design point, and is skipped.
pub fn explore_points(base: &AccelConfig, heads: &[usize]) -> Vec<DesignPoint> {
    heads
        .iter()
        .filter_map(|&heads| {
            let mut cfg = base.clone();
            cfg.parallel_heads = heads;
            cfg.validate().ok()?;
            let r = simulate(&cfg, Architecture::A3, cfg.max_seq_len);
            Some(DesignPoint {
                parallel_heads: heads,
                psas_per_head: cfg.psas_per_head(),
                latency_ms: r.latency_s * 1e3,
                fits: resources::check_fit(&cfg).is_ok(),
            })
        })
        .collect()
}

/// Sweep PSA dimensions (rows × cols candidates), reporting latency and fit —
/// the "we have experimented with various dimensions of the PSA block"
/// exploration of §5.1.4. A shape the configuration refuses (a zero
/// dimension) is skipped.
pub fn explore_psa_shapes(
    base: &AccelConfig,
    shapes: &[(usize, usize)],
) -> Vec<(usize, usize, f64, bool)> {
    shapes
        .iter()
        .filter_map(|&(rows, cols)| {
            let mut cfg = base.clone();
            cfg.psa.rows = rows;
            cfg.psa.cols = cols;
            cfg.validate().ok()?;
            let r = simulate(&cfg, Architecture::A3, cfg.max_seq_len);
            Some((rows, cols, r.latency_s * 1e3, resources::check_fit(&cfg).is_ok()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> AccelConfig {
        AccelConfig::paper_default()
    }

    #[test]
    fn table_5_3_ordering_holds() {
        // Paper: 84.15 < 85.72 < 87.43 < 92.03 as head parallelism shrinks.
        let points = explore(&base());
        assert_eq!(points.len(), 4);
        for w in points.windows(2) {
            assert!(
                w[0].latency_ms < w[1].latency_ms,
                "({}, {}) at {} ms should beat ({}, {}) at {} ms",
                w[0].parallel_heads,
                w[0].psas_per_head,
                w[0].latency_ms,
                w[1].parallel_heads,
                w[1].psas_per_head,
                w[1].latency_ms
            );
        }
    }

    #[test]
    fn latencies_are_in_the_paper_band() {
        // Paper band: 84.15–92.03 ms. The model's serial extreme lands a few
        // ms higher (its per-pass adder/drain overheads don't amortise), so
        // allow up to 105 ms.
        for p in explore(&base()) {
            assert!(
                p.latency_ms > 80.0 && p.latency_ms < 105.0,
                "({}, {}) at {} ms",
                p.parallel_heads,
                p.psas_per_head,
                p.latency_ms
            );
        }
    }

    #[test]
    fn all_table_points_fit_the_device() {
        assert!(explore(&base()).iter().all(|p| p.fits));
    }

    #[test]
    fn spread_is_modest_like_the_paper() {
        // Paper spread: 92.03/84.15 = 1.094. Ours must stay under ~1.2.
        let points = explore(&base());
        let spread = points.last().unwrap().latency_ms / points[0].latency_ms;
        assert!(spread > 1.02 && spread < 1.2, "spread {}", spread);
    }

    #[test]
    fn a_head_count_the_pool_cannot_split_is_skipped_not_a_panic() {
        assert!(explore_points(&base(), &[3]).is_empty());
        let heads: Vec<usize> =
            explore_points(&base(), &[8, 3, 2]).iter().map(|p| p.parallel_heads).collect();
        assert_eq!(heads, [8, 2]);
    }

    #[test]
    fn a_zero_dimension_psa_shape_is_skipped_not_a_panic() {
        assert!(explore_psa_shapes(&base(), &[(0, 64)]).is_empty());
        assert!(explore_psa_shapes(&base(), &[(2, 0)]).is_empty());
        let shapes: Vec<(usize, usize)> = explore_psa_shapes(&base(), &[(0, 64), (2, 64), (2, 0)])
            .iter()
            .map(|&(rows, cols, _, _)| (rows, cols))
            .collect();
        assert_eq!(shapes, [(2, 64)]);
    }

    #[test]
    fn psa_shape_sweep_runs() {
        let shapes = [(2usize, 64usize), (4, 64), (2, 32)];
        let out = explore_psa_shapes(&base(), &shapes);
        assert_eq!(out.len(), 3);
        // wider/taller PSAs are faster but cost more
        let base_lat = out[0].2;
        assert!(out[1].2 < base_lat, "4x64 should beat 2x64");
        assert!(out[2].2 > base_lat, "2x32 should lose to 2x64");
    }
}
