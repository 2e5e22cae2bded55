//! Symmetric int8 quantization — the substrate for the thesis's stated
//! future work ("we will explore fixed precision end-to-end ASR models ...
//! Fixed precision models offer lower resource utilization, addressing our
//! primary constraint of LUT resources", §6.2).
//!
//! Per-tensor symmetric quantization: `q = round(x / scale)` clamped to
//! `[-127, 127]`, `scale = max|x| / 127`. Quantized matmul accumulates in
//! `i32` and rescales to f32 — exactly what an int8 PSA would do with a wide
//! accumulator.

use crate::matrix::Matrix;

/// A symmetrically quantized int8 matrix with its scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    /// Dequantization scale: `x ≈ q · scale`.
    pub scale: f32,
}

impl QuantizedMatrix {
    /// Quantize an f32 matrix (per-tensor symmetric).
    pub fn quantize(m: &Matrix) -> Self {
        let max_abs = m.max_abs();
        // an all-zero matrix quantizes with a unit scale
        let scale = if max_abs == 0.0 { 1.0 } else { max_abs / 127.0 };
        let data =
            m.as_slice().iter().map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8).collect();
        QuantizedMatrix { rows: m.rows(), cols: m.cols(), data, scale }
    }

    /// Shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row `i` as an i8 slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[i8] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Dequantize back to f32.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&q| q as f32 * self.scale).collect(),
        )
    }

    /// Memory footprint in bytes (1 byte per element — 4× smaller than f32,
    /// quartering the HBM weight traffic).
    pub fn size_bytes(&self) -> u64 {
        self.data.len() as u64
    }
}

/// Quantized matmul: i8 × i8 → i32 accumulate → rescale to f32.
pub fn matmul_quantized(a: &QuantizedMatrix, b: &QuantizedMatrix) -> Matrix {
    assert_eq!(
        a.cols, b.rows,
        "quantized matmul shape mismatch: {}x{} * {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let out_scale = a.scale * b.scale;
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let mut acc = vec![0i32; n];
        for (p, &ap) in arow.iter().enumerate().take(k) {
            if ap == 0 {
                continue;
            }
            let brow = b.row(p);
            for (accj, &bv) in acc.iter_mut().zip(brow) {
                *accj += (ap as i32) * (bv as i32);
            }
        }
        for (o, &v) in out.row_mut(i).iter_mut().zip(&acc) {
            *o = v as f32 * out_scale;
        }
    }
    out
}

/// Root-mean-square quantization error of round-tripping `m` through int8.
pub fn quantization_rmse(m: &Matrix) -> f32 {
    let deq = QuantizedMatrix::quantize(m).dequantize();
    let n = m.len().max(1) as f32;
    (m.as_slice().iter().zip(deq.as_slice()).map(|(&x, &y)| (x - y) * (x - y)).sum::<f32>() / n)
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::ops;

    #[test]
    fn roundtrip_error_is_bounded_by_half_step() {
        let m = init::uniform(16, 16, -2.0, 2.0, 1);
        let q = QuantizedMatrix::quantize(&m);
        let deq = q.dequantize();
        let half_step = q.scale / 2.0 + 1e-6;
        for (&x, &y) in m.as_slice().iter().zip(deq.as_slice()) {
            assert!((x - y).abs() <= half_step, "{} vs {}", x, y);
        }
    }

    #[test]
    fn zero_matrix_quantizes_cleanly() {
        let q = QuantizedMatrix::quantize(&Matrix::zeros(3, 3));
        assert_eq!(q.dequantize(), Matrix::zeros(3, 3));
    }

    #[test]
    fn extremes_map_to_127() {
        let m = Matrix::from_vec(1, 2, vec![3.0, -3.0]);
        let q = QuantizedMatrix::quantize(&m);
        assert_eq!(q.row(0), &[127, -127]);
    }

    #[test]
    fn quantized_matmul_approximates_f32() {
        let a = init::uniform(8, 32, -1.0, 1.0, 2);
        let b = init::uniform(32, 8, -1.0, 1.0, 3);
        let exact = ops::matmul_naive(&a, &b);
        let approx =
            matmul_quantized(&QuantizedMatrix::quantize(&a), &QuantizedMatrix::quantize(&b));
        // relative error of int8 GEMM on well-scaled data: a few percent
        let denom = exact.max_abs().max(1e-6);
        let rel = crate::approx::max_abs_diff(&approx, &exact) / denom;
        assert!(rel < 0.05, "relative error {}", rel);
    }

    #[test]
    fn footprint_is_quarter_of_f32() {
        let m = Matrix::zeros(512, 64);
        let q = QuantizedMatrix::quantize(&m);
        assert_eq!(q.size_bytes() * 4, m.size_bytes());
    }

    #[test]
    fn rmse_small_for_smooth_data() {
        let m = init::uniform(32, 32, -1.0, 1.0, 7);
        let e = quantization_rmse(&m);
        // uniform quantization RMSE ≈ step / sqrt(12) = (1/127)/3.46 ≈ 0.0023
        assert!(e < 0.005, "rmse {}", e);
        assert!(e > 0.0);
    }

    #[test]
    #[should_panic(expected = "quantized matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = QuantizedMatrix::quantize(&Matrix::zeros(2, 3));
        let b = QuantizedMatrix::quantize(&Matrix::zeros(4, 2));
        let _ = matmul_quantized(&a, &b);
    }
}
