//! Reference-work data for Table 5.6 (published numbers, §5.1.7).
//!
//! The paper compares GFLOPs-per-second against three published
//! implementations: the HAT CPU baseline \[34\], and the GPU and FPGA designs
//! of Qi et al. \[29\] (2-encoder/1-decoder transformer, hidden 400, FF 200,
//! 4 heads, on 8× Quadro RTX 6000 and an Alveo U200). No code exists to
//! port, so their printed numbers are data.

/// One comparison row of Table 5.6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefWork {
    /// Label as printed in the paper.
    pub name: &'static str,
    /// Platform class.
    pub platform: &'static str,
    /// Model workload, GFLOPs.
    pub gflops: f64,
    /// Reported latency, seconds.
    pub latency_s: f64,
}

impl RefWork {
    /// GFLOPs per second — the table's comparison metric.
    pub fn gflops_per_s(&self) -> f64 {
        self.gflops / self.latency_s
    }
}

/// The three reference rows of Table 5.6.
pub const REFERENCE_WORKS: [RefWork; 3] = [
    RefWork { name: "[34] HAT", platform: "CPU", gflops: 1.1, latency_s: 2.1 },
    RefWork { name: "[29] Qi et al.", platform: "GPU", gflops: 1.1, latency_s: 0.147 },
    RefWork { name: "[29] Qi et al.", platform: "FPGA", gflops: 0.114, latency_s: 0.00785 },
];

/// Improvement of a measured GFLOPs/s figure over the CPU reference row.
pub fn improvement_over_cpu_ref(gflops_per_s: f64) -> f64 {
    gflops_per_s / REFERENCE_WORKS[0].gflops_per_s()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_5_6_reference_metrics() {
        // Paper: 0.52, 7.48, 14.47 GFLOPs/s for the three rows.
        let v: Vec<f64> = REFERENCE_WORKS.iter().map(|r| r.gflops_per_s()).collect();
        assert!((v[0] - 0.52).abs() < 0.01, "{}", v[0]);
        assert!((v[1] - 7.48).abs() < 0.01, "{}", v[1]);
        assert!((v[2] - 14.47).abs() < 0.1, "{}", v[2]);
    }

    #[test]
    fn paper_improvements_reproduce() {
        // Paper: 1x, 14.38x, 27.82x, and 90.8x for the proposed 47.23 GFLOPs/s.
        assert!((improvement_over_cpu_ref(REFERENCE_WORKS[1].gflops_per_s()) - 14.38).abs() < 0.2);
        assert!((improvement_over_cpu_ref(REFERENCE_WORKS[2].gflops_per_s()) - 27.82).abs() < 0.3);
        assert!((improvement_over_cpu_ref(47.23) - 90.2).abs() < 2.0);
    }
}
