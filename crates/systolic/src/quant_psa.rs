//! Int8 PSA — the fixed-precision engine of the thesis's future work (§6.2).
//!
//! An int8 multiply-accumulate is dramatically cheaper than fp32 on FPGA
//! fabric: the multiplier fits LUT slices (or packs two per DSP48), and the
//! fp32 alignment/normalisation logic — the reason the fp32 PSA is
//! LUT-bound — disappears. The model here keeps the same 2×64 geometry and
//! wave/tile schedule but with:
//!
//! * a lower initiation interval (`ii = 4` vs the fp32 12): the k-loop no
//!   longer waits on a deep floating-point accumulate chain;
//! * a quarter of the per-PE LUT/FF cost;
//! * int8 weights, so the HBM weight traffic also drops 4×.

use crate::psa::PsaConfig;
use asr_fpga_sim::{Cycles, ResourceVector};
use asr_tensor::quant::{matmul_quantized, QuantizedMatrix};
use asr_tensor::Matrix;

/// Int8 PSA configuration derivation from the fp32 design point.
pub fn int8_config_from(fp32: PsaConfig) -> PsaConfig {
    PsaConfig {
        rows: fp32.rows,
        cols: fp32.cols,
        // integer accumulation pipelines at a fraction of the fp32 II
        ii: (fp32.ii / 3).max(1),
        fill: fp32.fill,
    }
}

/// An int8 PSA engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Int8Psa {
    /// Geometry and timing (see [`int8_config_from`]).
    pub config: PsaConfig,
}

impl Int8Psa {
    /// Int8 engine derived from an fp32 design point.
    pub fn from_fp32(fp32: PsaConfig) -> Self {
        Int8Psa { config: int8_config_from(fp32) }
    }

    /// Cycles for an `(l × m) · (m × n)` product — same schedule as the fp32
    /// PSA, lower initiation interval.
    pub fn cycles(&self, l: usize, m: usize, n: usize) -> Cycles {
        crate::psa::Psa::new(self.config).cycles(l, m, n)
    }

    /// Functional quantized product: quantizes the f32 activations on entry,
    /// multiplies against pre-quantized weights, returns f32.
    pub fn matmul(&self, a: &Matrix, b_q: &QuantizedMatrix) -> Matrix {
        let a_q = QuantizedMatrix::quantize(a);
        matmul_quantized(&a_q, b_q)
    }

    /// Fabric cost: the same fit structure as the fp32 PSA
    /// (`Psa::resource_cost`) at a quarter of the per-PE LUT/FF and half the
    /// DSP (two int8 MACs pack per DSP48E2).
    pub fn resource_cost(&self) -> ResourceVector {
        let pes = (self.config.rows * self.config.cols) as u64;
        ResourceVector { bram_18k: 24, dsp: pes / 2, ff: pes * 225 + 4_000, lut: pes * 150 + 2_000 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psa::Psa;
    use asr_tensor::{init, ops};

    fn fp32() -> PsaConfig {
        PsaConfig::paper_default()
    }

    #[test]
    fn int8_ii_is_a_third() {
        let q = int8_config_from(fp32());
        assert_eq!(q.ii, 4);
        assert_eq!((q.rows, q.cols), (2, 64));
    }

    #[test]
    fn int8_is_about_3x_faster_per_mm() {
        let f = Psa::new(fp32());
        let q = Int8Psa::from_fp32(fp32());
        let r = f.cycles(32, 512, 64).get() as f64 / q.cycles(32, 512, 64).get() as f64;
        assert!(r > 2.5 && r < 3.2, "speedup {}", r);
    }

    #[test]
    fn int8_matmul_approximates_f32() {
        let q = Int8Psa::from_fp32(fp32());
        let a = init::uniform(8, 32, -1.0, 1.0, 1);
        let b = init::uniform(32, 8, -1.0, 1.0, 2);
        let exact = ops::matmul_naive(&a, &b);
        let approx = q.matmul(&a, &QuantizedMatrix::quantize(&b));
        let rel = asr_tensor::max_abs_diff(&approx, &exact) / exact.max_abs().max(1e-6);
        assert!(rel < 0.05, "relative error {}", rel);
    }

    #[test]
    fn int8_pe_is_much_cheaper() {
        let f = Psa::new(fp32()).resource_cost();
        let q = Int8Psa::from_fp32(fp32()).resource_cost();
        assert!(q.lut * 3 < f.lut, "LUT {} vs {}", q.lut, f.lut);
        assert!(q.ff * 3 < f.ff);
        assert!(q.dsp * 2 == f.dsp);
    }
}
