//! The GPU baseline: NVIDIA GeForce RTX 3080 Ti @ 1.37 GHz, PyTorch + CUDA
//! (paper §5.1.5, Table 5.5).

use asr_transformer::{flops, TransformerConfig};

/// The paper's measured GPU latencies: `(sequence length, seconds)`.
pub const PAPER_GPU_LATENCIES: [(usize, f64); 6] =
    [(4, 0.34), (8, 0.46), (16, 0.55), (20, 0.79), (24, 1.03), (32, 1.32)];

/// Affine GPU latency model: `t = launch/framework overhead + gflops / throughput`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Kernel-launch + framework overhead, seconds.
    pub overhead_s: f64,
    /// Effective sustained throughput at batch 1, GFLOPs/s.
    pub gflops_per_s: f64,
}

impl GpuModel {
    /// Least-squares fit to Table 5.5 (re-derived in the tests). The ~3.6
    /// GFLOPs/s effective rate reflects batch-1 eager-mode inference, not the
    /// card's peak.
    pub fn rtx_3080_ti() -> Self {
        GpuModel { overhead_s: 0.138, gflops_per_s: 1.0 / 0.276 }
    }

    /// Modeled latency at sequence length `s`.
    pub fn latency_s(&self, s: usize, cfg: &TransformerConfig) -> f64 {
        self.overhead_s + flops::model_gflops(s, cfg) / self.gflops_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::fit_affine;

    #[test]
    fn shipped_constants_match_the_fit() {
        let cfg = TransformerConfig::paper_base();
        let pts: Vec<(f64, f64)> =
            PAPER_GPU_LATENCIES.iter().map(|&(s, t)| (flops::model_gflops(s, &cfg), t)).collect();
        let (a, b) = fit_affine(&pts);
        let m = GpuModel::rtx_3080_ti();
        assert!((m.overhead_s - a).abs() < 0.02, "overhead {} vs fit {}", m.overhead_s, a);
        assert!((1.0 / m.gflops_per_s - b).abs() < 0.03);
    }

    #[test]
    fn model_tracks_paper_latencies() {
        let cfg = TransformerConfig::paper_base();
        let m = GpuModel::rtx_3080_ti();
        for &(s, t) in &PAPER_GPU_LATENCIES {
            let pred = m.latency_s(s, &cfg);
            assert!((pred - t).abs() < 0.2, "s={}: predicted {} vs measured {}", s, pred, t);
        }
    }

    #[test]
    fn gpu_beats_cpu_everywhere() {
        let cfg = TransformerConfig::paper_base();
        let gpu = GpuModel::rtx_3080_ti();
        let cpu = crate::cpu::CpuModel::xeon_e5_2640();
        for s in [4usize, 8, 16, 20, 24, 32] {
            assert!(gpu.latency_s(s, &cfg) < cpu.latency_s(s, &cfg));
        }
    }

    #[test]
    fn average_speedup_over_modeled_fpga_is_about_8_8x() {
        // Paper headline: 8.8x average over the GPU.
        let cfg = TransformerConfig::paper_base();
        let m = GpuModel::rtx_3080_ti();
        let accel = 0.0867; // model's s=32 A3 latency
        let avg: f64 =
            PAPER_GPU_LATENCIES.iter().map(|&(s, _)| m.latency_s(s, &cfg) / accel).sum::<f64>()
                / 6.0;
        assert!((avg - 8.8).abs() < 1.5, "average speedup {}", avg);
    }
}
