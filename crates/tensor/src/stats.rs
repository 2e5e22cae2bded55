//! Matrix statistics: summaries used by reports, calibration and the
//! quantization error analysis.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Summary statistics of a matrix's elements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Element count.
    pub count: usize,
    /// Minimum element.
    pub min: f32,
    /// Maximum element.
    pub max: f32,
    /// Mean.
    pub mean: f32,
    /// Population standard deviation.
    pub std: f32,
    /// Fraction of exactly-zero elements.
    pub sparsity: f32,
}

/// Compute the summary of a non-empty matrix.
pub fn summarize(m: &Matrix) -> Summary {
    assert!(!m.is_empty(), "cannot summarise an empty matrix");
    let n = m.len() as f32;
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    let mut sum = 0.0f64;
    let mut zeros = 0usize;
    for &x in m.as_slice() {
        min = min.min(x);
        max = max.max(x);
        sum += x as f64;
        if x == 0.0 {
            zeros += 1;
        }
    }
    let mean = (sum / n as f64) as f32;
    let var = m
        .as_slice()
        .iter()
        .map(|&x| {
            let d = x - mean;
            (d * d) as f64
        })
        .sum::<f64>()
        / n as f64;
    Summary { count: m.len(), min, max, mean, std: (var as f32).sqrt(), sparsity: zeros as f32 / n }
}

/// Histogram of elements over `bins` equal-width buckets spanning
/// `[min, max]`. Returns bucket counts; a constant matrix lands in bucket 0.
pub fn histogram(m: &Matrix, bins: usize) -> Vec<usize> {
    assert!(bins >= 1, "need at least one bin");
    assert!(!m.is_empty(), "cannot histogram an empty matrix");
    let s = summarize(m);
    let width = (s.max - s.min).max(f32::MIN_POSITIVE);
    let mut counts = vec![0usize; bins];
    for &x in m.as_slice() {
        let b = (((x - s.min) / width) * bins as f32) as usize;
        counts[b.min(bins - 1)] += 1;
    }
    counts
}

/// Frobenius norm.
pub fn frobenius(m: &Matrix) -> f32 {
    m.as_slice().iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt() as f32
}

/// Signal-to-quantization-noise ratio in dB between a reference and an
/// approximation (higher is better; int8 lands near 40 dB, int16 near 90).
pub fn sqnr_db(reference: &Matrix, approx: &Matrix) -> f32 {
    assert_eq!(reference.shape(), approx.shape(), "sqnr shape mismatch");
    let sig: f64 = reference.as_slice().iter().map(|&x| (x as f64).powi(2)).sum();
    let noise: f64 = reference
        .as_slice()
        .iter()
        .zip(approx.as_slice())
        .map(|(&r, &a)| ((r - a) as f64).powi(2))
        .sum();
    if noise == 0.0 {
        return f32::INFINITY;
    }
    (10.0 * (sig / noise).log10()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::quant::QuantizedMatrix;

    #[test]
    fn summary_of_known_matrix() {
        let m = Matrix::from_vec(1, 4, vec![0.0, 1.0, 2.0, 3.0]);
        let s = summarize(&m);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 1.5).abs() < 1e-6);
        assert!((s.sparsity - 0.25).abs() < 1e-6);
        assert!((s.std - (1.25f32).sqrt()).abs() < 1e-5);
    }

    #[test]
    fn histogram_totals_and_spread() {
        let m = init::uniform(100, 100, -1.0, 1.0, 1);
        let h = histogram(&m, 10);
        assert_eq!(h.iter().sum::<usize>(), 10_000);
        // uniform data: every bin populated
        assert!(h.iter().all(|&c| c > 500), "{:?}", h);
    }

    #[test]
    fn constant_matrix_histogram() {
        let m = Matrix::filled(3, 3, 5.0);
        let h = histogram(&m, 4);
        assert_eq!(h[0], 9);
        assert_eq!(h[1..].iter().sum::<usize>(), 0);
    }

    #[test]
    fn frobenius_of_identity() {
        assert!((frobenius(&Matrix::identity(9)) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn int8_sqnr_is_in_band() {
        let m = init::uniform(64, 64, -1.0, 1.0, 3);
        let q8 = QuantizedMatrix::quantize(&m).dequantize();
        let s8 = sqnr_db(&m, &q8);
        assert!(s8 > 35.0 && s8 < 60.0, "int8 SQNR {}", s8);
    }

    #[test]
    fn sqnr_of_exact_copy_is_infinite() {
        let m = init::uniform(4, 4, -1.0, 1.0, 4);
        assert_eq!(sqnr_db(&m, &m.clone()), f32::INFINITY);
    }

    #[test]
    #[should_panic(expected = "empty matrix")]
    fn empty_summary_panics() {
        let _ = summarize(&Matrix::zeros(0, 5));
    }
}
