//! Partially-unrolled systolic array (PSA) — the accelerator's workhorse.
//!
//! A full `l × n` systolic array is unaffordable at transformer sizes, so the
//! paper computes `b` product rows at a time on a `b × w` PSA (§4.4: "we can
//! trade off parallelism with area by computing the product matrix b rows ...
//! at a time"), with `b = 2`, `w = 64` chosen experimentally. Partial loop
//! unrolling in HLS further trades latency for LUT/DSP area; the thesis
//! quantifies it as "increasing the latency by at least ~16×". We model that
//! as an initiation interval `ii` on the k-loop: one multiply-accumulate wave
//! issues every `ii` cycles instead of every cycle.
//!
//! ## Timing model
//!
//! For a product `(l × m) · (m × n)` on a `b × w` PSA:
//!
//! ```text
//! column tiles  T = ceil(n / w)
//! row waves     W = ceil(l / b)
//! cycles        = T · W · (m · ii + drain) + fill
//! drain         = w + b            (pipeline flush through the array)
//! ```
//!
//! With `b = 2`, `w = 64`, `ii = 12` this calibrates the full encoder stack to
//! the paper's measured 84.15 ms at `s = 32` (see `asr-accel::calib`).
//!
//! ## Functional model
//!
//! `matmul` computes the exact f32 product with the same accumulation order
//! as the hardware (sequential over `k` within a tile), so results are
//! bit-identical to the naive reference for any operand sizes.

use asr_fpga_sim::{Cycles, ResourceVector};
use asr_tensor::{ops, Matrix};

/// Static configuration of one PSA block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsaConfig {
    /// Product rows computed per wave (`b` in the paper; 2 in the shipped design).
    pub rows: usize,
    /// PSA width in output columns (`w`; 64 in the shipped design).
    pub cols: usize,
    /// Initiation interval of the k-loop — the partial-unroll latency penalty.
    pub ii: u64,
    /// Extra cycles to fill the pipeline once per invocation.
    pub fill: u64,
}

impl PsaConfig {
    /// The paper's 2×64 PSA with the calibrated unroll penalty.
    pub fn paper_default() -> Self {
        PsaConfig { rows: 2, cols: 64, ii: 12, fill: 8 }
    }

    /// A fully-unrolled (ideal) PSA: one MAC wave per cycle.
    pub fn fully_unrolled(rows: usize, cols: usize) -> Self {
        PsaConfig { rows, cols, ii: 1, fill: 8 }
    }

    /// Drain cycles: the operand/result skew through the array.
    pub fn drain(&self) -> u64 {
        (self.cols + self.rows) as u64
    }

    /// Number of multiply-accumulate processing elements.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }
}

/// A PSA engine: functional matmul + cycle accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Psa {
    /// The block's configuration.
    pub config: PsaConfig,
}

impl Psa {
    /// Build a PSA from a configuration.
    pub fn new(config: PsaConfig) -> Self {
        assert!(config.rows > 0 && config.cols > 0, "PSA must be non-empty");
        assert!(config.ii >= 1, "initiation interval must be >= 1");
        Self { config }
    }

    /// The paper's PSA.
    pub fn paper_default() -> Self {
        Self::new(PsaConfig::paper_default())
    }

    /// Cycles to compute an `(l × m) · (m × n)` product on this PSA.
    pub fn cycles(&self, l: usize, m: usize, n: usize) -> Cycles {
        assert!(l > 0 && m > 0 && n > 0, "degenerate matmul {}x{}x{}", l, m, n);
        let tiles = n.div_ceil(self.config.cols) as u64;
        let waves = l.div_ceil(self.config.rows) as u64;
        Cycles(tiles * waves * (m as u64 * self.config.ii + self.config.drain()) + self.config.fill)
    }

    /// Functional product `a · b` with hardware-faithful accumulation order.
    ///
    /// One [`Self::matmul_region`] over every output column, so each weight
    /// row is read once for all product rows. Every element accumulates
    /// sequentially over `k` — the same order the PE chain applies, so this
    /// is bit-identical to the naive triple loop.
    pub fn matmul(&self, a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(
            a.cols(),
            b.rows(),
            "psa matmul shape mismatch: {}x{} * {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        let mut out = Matrix::zeros(a.rows(), b.cols());
        self.matmul_region(a, b, &mut out, 0, b.cols());
        out
    }

    /// Accumulate columns `[j0, je)` of the product into `out`, with the
    /// hardware accumulation order (sequential `k` for every element). It
    /// runs k-outer, four weight rows at a time: rows `k..k + 4`'s slices
    /// are added into every product row before row `k + 4` is read, each
    /// element taking its four terms one add at a time in ascending `k`
    /// (`o = (((o + a0·b0) + a1·b1) + a2·b2) + a3·b3`), and the last
    /// `a.cols() % 4` rows one at a time.
    ///
    /// This is the PSA's block primitive: `matmul` is one call over all
    /// columns, [`CheckedPsa`](crate::CheckedPsa) is a loop of these over
    /// the column tiles, and the ABFT recompute path re-runs a single
    /// failing tile through the same code — so a recomputed tile is
    /// bit-identical to a clean run by construction.
    pub fn matmul_region(&self, a: &Matrix, b: &Matrix, out: &mut Matrix, j0: usize, je: usize) {
        debug_assert!(j0 <= je && je <= b.cols(), "bad tile [{}, {})", j0, je);
        let body = a.cols() - a.cols() % 4;
        for k in (0..body).step_by(4) {
            let [b0, b1, b2, b3] = [k, k + 1, k + 2, k + 3].map(|r| &b.row(r)[j0..je]);
            for i in 0..a.rows() {
                let [a0, a1, a2, a3] = [k, k + 1, k + 2, k + 3].map(|c| a[(i, c)]);
                let terms = b0.iter().zip(b1).zip(b2).zip(b3);
                for (o, (((&x0, &x1), &x2), &x3)) in out.row_mut(i)[j0..je].iter_mut().zip(terms) {
                    *o = *o + a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3;
                }
            }
        }
        for k in body..a.cols() {
            let brow = &b.row(k)[j0..je];
            for i in 0..a.rows() {
                let aik = a[(i, k)];
                for (o, &bv) in out.row_mut(i)[j0..je].iter_mut().zip(brow) {
                    *o += aik * bv;
                }
            }
        }
    }

    /// Fabric cost of this PSA block.
    ///
    /// Per-PE costs model an LUT-heavy fp32 MAC (the thesis: "the processing
    /// elements within the systolic array structure are LUT-intensive"), plus
    /// per-block control and operand-buffer BRAM. Constants are fitted so the
    /// complete design reproduces Table 5.2 (see `asr-accel::resources`).
    pub fn resource_cost(&self) -> ResourceVector {
        let pes = self.config.pe_count() as u64;
        ResourceVector { bram_18k: 24, dsp: pes, ff: pes * 900 + 4_000, lut: pes * 600 + 2_000 }
    }
}

/// Split an `(l × m) · (m × n)` product into per-k partial sums exactly as the
/// naive loop would, used by tests to pin the accumulation order.
pub fn reference_same_order(a: &Matrix, b: &Matrix) -> Matrix {
    ops::matmul_naive(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_tensor::init;

    #[test]
    fn functional_is_bit_identical_to_naive() {
        let psa = Psa::paper_default();
        for &(l, m, n) in &[(1, 1, 1), (2, 64, 64), (5, 33, 70), (32, 512, 64), (3, 7, 129)] {
            let a = init::uniform(l, m, -1.0, 1.0, (l + m) as u64);
            let b = init::uniform(m, n, -1.0, 1.0, (m + n) as u64);
            // Same k-accumulation order => exactly equal, not just close.
            assert_eq!(psa.matmul(&a, &b), reference_same_order(&a, &b));
        }
    }

    #[test]
    fn cycle_formula_mm1_shape() {
        // MM1 stripe: (32 x 64) . (64 x 64) on the 2x64 PSA:
        // 1 tile * 16 waves * (64*12 + 66) + 8 fill = 13352 cycles.
        let psa = Psa::paper_default();
        assert_eq!(psa.cycles(32, 64, 64), Cycles(16 * (64 * 12 + 66) + 8));
    }

    #[test]
    fn cycles_scale_with_waves() {
        let psa = Psa::paper_default();
        let c4 = psa.cycles(4, 64, 64).get();
        let c32 = psa.cycles(32, 64, 64).get();
        // ceil(4/2)=2 waves vs ceil(32/2)=16 waves: 8x the wave term.
        assert!((c32 as f64 / c4 as f64 - 8.0).abs() < 0.05);
    }

    #[test]
    fn odd_row_count_rounds_up_waves() {
        let psa = Psa::paper_default();
        assert_eq!(psa.cycles(3, 10, 64), psa.cycles(4, 10, 64));
        assert!(psa.cycles(3, 10, 64) > psa.cycles(2, 10, 64));
    }

    #[test]
    fn wide_output_tiles() {
        let psa = Psa::paper_default();
        // n = 512 on a 64-wide PSA => 8 tiles.
        let one_tile = psa.cycles(2, 16, 64).get() - psa.config.fill;
        let eight_tiles = psa.cycles(2, 16, 512).get() - psa.config.fill;
        assert_eq!(eight_tiles, one_tile * 8);
    }

    #[test]
    fn unroll_penalty_slows_by_about_ii() {
        let ideal = Psa::new(PsaConfig::fully_unrolled(2, 64));
        let real = Psa::paper_default();
        let r = real.cycles(32, 512, 64).get() as f64 / ideal.cycles(32, 512, 64).get() as f64;
        // The drain term dilutes the pure ii ratio slightly.
        assert!(r > 10.0 && r < 12.5, "penalty ratio {}", r);
    }

    #[test]
    fn resource_cost_is_lut_heavy() {
        let cost = Psa::paper_default().resource_cost();
        // per the thesis the PEs are LUT-intensive; DSP use is modest
        assert!(cost.lut > cost.dsp * 100);
        assert_eq!(cost.dsp, 128); // one DSP per PE in the shipped fit
    }

    #[test]
    #[should_panic(expected = "degenerate matmul")]
    fn zero_dim_cycles_panics() {
        let _ = Psa::paper_default().cycles(0, 4, 4);
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_ii_panics() {
        let _ = Psa::new(PsaConfig { rows: 2, cols: 64, ii: 0, fill: 0 });
    }
}
