//! The CPU baseline: Intel Xeon E5-2640 @ 2.5 GHz, 24 threads, running the
//! wav2vec/PyTorch software stack (paper §5.1.5, Table 5.4).

use asr_tensor::backend::ParallelBackend;
use asr_tensor::{init, Matrix};
use asr_transformer::{flops, Model, TransformerConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The paper's measured CPU latencies: `(sequence length, seconds)`.
pub const PAPER_CPU_LATENCIES: [(usize, f64); 6] =
    [(4, 0.4), (8, 1.1), (16, 3.1), (20, 3.4), (24, 3.8), (32, 4.5)];

/// Affine latency model of a software platform:
/// `t = overhead + gflops / throughput`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    /// Fixed framework/dispatch overhead, seconds.
    pub overhead_s: f64,
    /// Effective sustained throughput, GFLOPs/s.
    pub gflops_per_s: f64,
}

impl CpuModel {
    /// Least-squares fit to the paper's Table 5.4 measurements (see
    /// [`fit_affine`] and the test that re-derives these constants).
    pub fn xeon_e5_2640() -> Self {
        CpuModel { overhead_s: 0.096, gflops_per_s: 1.0 / 1.186 }
    }

    /// Modeled latency at sequence length `s` for a model configuration.
    pub fn latency_s(&self, s: usize, cfg: &TransformerConfig) -> f64 {
        self.overhead_s + flops::model_gflops(s, cfg) / self.gflops_per_s
    }
}

/// Least-squares affine fit `y = a + b·x` returning `(a, b)`.
pub fn fit_affine(points: &[(f64, f64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "need two points to fit a line");
    let n = points.len() as f64;
    let xm = points.iter().map(|p| p.0).sum::<f64>() / n;
    let ym = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - xm) * (p.1 - ym)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - xm) * (p.0 - xm)).sum();
    assert!(sxx > 0.0, "degenerate x values");
    let b = sxy / sxx;
    (ym - b * xm, b)
}

/// Measure a real forward pass of `n_layers` encoder layers at sequence
/// length `s` on this machine's rayon pool, returning seconds. This is the
/// honest, executable CPU baseline.
pub fn run_real_forward(cfg: &TransformerConfig, s: usize, n_layers: usize, seed: u64) -> f64 {
    let model = Model::seeded(*cfg, seed);
    let x = init::uniform(s, cfg.d_model, -1.0, 1.0, seed + 1);
    let backend = ParallelBackend;
    let start = Instant::now();
    let mut h: Matrix = x;
    for layer in model.weights.encoders.iter().take(n_layers) {
        h = asr_transformer::encoder::encoder_forward(&h, layer, &backend);
    }
    let elapsed = start.elapsed().as_secs_f64();
    // keep the result observable so the work isn't optimised away
    assert!(h.as_slice().iter().all(|v| v.is_finite()));
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_points_as_gflops() -> Vec<(f64, f64)> {
        let cfg = TransformerConfig::paper_base();
        PAPER_CPU_LATENCIES.iter().map(|&(s, t)| (flops::model_gflops(s, &cfg), t)).collect()
    }

    #[test]
    fn shipped_constants_match_the_fit() {
        // Re-derive the calibration from the paper's data.
        let (a, b) = fit_affine(&paper_points_as_gflops());
        let m = CpuModel::xeon_e5_2640();
        assert!((m.overhead_s - a).abs() < 0.02, "overhead {} vs fit {}", m.overhead_s, a);
        assert!(
            (1.0 / m.gflops_per_s - b).abs() < 0.05,
            "slope {} vs fit {}",
            1.0 / m.gflops_per_s,
            b
        );
    }

    #[test]
    fn model_tracks_paper_latencies() {
        let cfg = TransformerConfig::paper_base();
        let m = CpuModel::xeon_e5_2640();
        for &(s, t) in &PAPER_CPU_LATENCIES {
            let pred = m.latency_s(s, &cfg);
            assert!((pred - t).abs() < 0.75, "s={}: predicted {} vs measured {}", s, pred, t);
        }
    }

    #[test]
    fn latency_monotone_in_s() {
        let cfg = TransformerConfig::paper_base();
        let m = CpuModel::xeon_e5_2640();
        assert!(m.latency_s(32, &cfg) > m.latency_s(16, &cfg));
        assert!(m.latency_s(16, &cfg) > m.latency_s(4, &cfg));
    }

    #[test]
    fn average_speedup_over_modeled_fpga_is_about_32x() {
        // The paper's headline: average 32x over the CPU for the six inputs,
        // each against the fixed padded-to-32 accelerator latency.
        let cfg = TransformerConfig::paper_base();
        let m = CpuModel::xeon_e5_2640();
        let accel = asr_accel_latency_s();
        let avg: f64 =
            PAPER_CPU_LATENCIES.iter().map(|&(s, _)| m.latency_s(s, &cfg) / accel).sum::<f64>()
                / 6.0;
        assert!((avg - 32.0).abs() < 5.0, "average speedup {}", avg);
    }

    // Local helper: the accelerator's s=32 A3 latency without depending on
    // asr-accel (which depends on this crate's *numbers* only through the
    // bench crate). Uses the paper's 84.15 ms anchor plus our model's +3%.
    fn asr_accel_latency_s() -> f64 {
        0.0867
    }

    #[test]
    fn fit_affine_recovers_exact_line() {
        let pts = [(1.0, 3.0), (2.0, 5.0), (3.0, 7.0)];
        let (a, b) = fit_affine(&pts);
        assert!((a - 1.0).abs() < 1e-12);
        assert!((b - 2.0).abs() < 1e-12);
    }

    #[test]
    fn real_forward_runs_and_takes_time() {
        let cfg = TransformerConfig::tiny();
        let t = run_real_forward(&cfg, 8, 2, 1);
        assert!(t > 0.0 && t < 30.0, "tiny forward took {} s", t);
    }
}
