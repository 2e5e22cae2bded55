//! Row-major dense `f32` matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32`.
///
/// All shapes in the reproduced system are small enough (≤ 2048 per side) that
/// a flat `Vec<f32>` with explicit strides is the fastest and simplest layout.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Build the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major slice of the elements.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f32> {
        assert!(j < self.cols, "column {} out of bounds ({})", j, self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Copy of the sub-matrix `rows r0..r0+nr`, `cols c0..c0+nc`.
    ///
    /// This is the building block for the block-stripping used by the MM1 and
    /// MM4–MM6 schemes in the accelerator.
    pub fn submatrix(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Matrix {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "submatrix [{}..{}, {}..{}] out of bounds for {}x{}",
            r0,
            r0 + nr,
            c0,
            c0 + nc,
            self.rows,
            self.cols
        );
        let mut out = Matrix::zeros(nr, nc);
        for i in 0..nr {
            out.row_mut(i).copy_from_slice(&self.row(r0 + i)[c0..c0 + nc]);
        }
        out
    }

    /// Column stripe `c0..c0+nc` over all rows.
    pub fn col_stripe(&self, c0: usize, nc: usize) -> Matrix {
        self.submatrix(0, c0, self.rows, nc)
    }

    /// Row stripe `r0..r0+nr` over all columns.
    pub fn row_stripe(&self, r0: usize, nr: usize) -> Matrix {
        self.submatrix(r0, 0, nr, self.cols)
    }

    /// Write `block` into this matrix at offset `(r0, c0)`.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "set_submatrix: block {}x{} at ({},{}) out of bounds for {}x{}",
            block.rows,
            block.cols,
            r0,
            c0,
            self.rows,
            self.cols
        );
        for i in 0..block.rows {
            self.row_mut(r0 + i)[c0..c0 + block.cols].copy_from_slice(block.row(i));
        }
    }

    /// Concatenate matrices horizontally (same row count).
    pub fn hconcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hconcat of zero matrices");
        let rows = parts[0].rows;
        assert!(parts.iter().all(|m| m.rows == rows), "hconcat: row counts differ");
        let cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut c0 = 0;
        for part in parts {
            out.set_submatrix(0, c0, part);
            c0 += part.cols;
        }
        out
    }

    /// Concatenate matrices vertically (same column count).
    pub fn vconcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vconcat of zero matrices");
        let cols = parts[0].cols;
        assert!(parts.iter().all(|m| m.cols == cols), "vconcat: column counts differ");
        let rows: usize = parts.iter().map(|m| m.rows).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut r0 = 0;
        for part in parts {
            out.set_submatrix(r0, 0, part);
            r0 += part.rows;
        }
        out
    }

    /// Zero-pad to `(rows, cols)`, keeping this matrix in the top-left corner.
    ///
    /// Used by the MM2/MM3 schemes, which pad small operands up to the PSA
    /// native width (Fig 4.4 of the paper).
    pub fn pad_to(&self, rows: usize, cols: usize) -> Matrix {
        assert!(
            rows >= self.rows && cols >= self.cols,
            "pad_to: target {}x{} smaller than {}x{}",
            rows,
            cols,
            self.rows,
            self.cols
        );
        let mut out = Matrix::zeros(rows, cols);
        out.set_submatrix(0, 0, self);
        out
    }

    /// Split into `n` equal column stripes.
    ///
    /// # Panics
    /// Panics if `cols` is not divisible by `n`.
    pub fn split_cols(&self, n: usize) -> Vec<Matrix> {
        assert_eq!(self.cols % n, 0, "split_cols: {} not divisible by {}", self.cols, n);
        let w = self.cols / n;
        (0..n).map(|k| self.col_stripe(k * w, w)).collect()
    }

    /// Split into `n` equal row stripes.
    ///
    /// # Panics
    /// Panics if `rows` is not divisible by `n`.
    pub fn split_rows(&self, n: usize) -> Vec<Matrix> {
        assert_eq!(self.rows % n, 0, "split_rows: {} not divisible by {}", self.rows, n);
        let h = self.rows / n;
        (0..n).map(|k| self.row_stripe(k * h, h)).collect()
    }

    /// Maximum absolute element value (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Element count as f32 memory footprint in bytes (f32 = 4 bytes).
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() as u64) * 4
    }

    /// Apply a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for i in 0..show {
            let row = self.row(i);
            let shown: Vec<String> = row.iter().take(8).map(|x| format!("{:9.4}", x)).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_indexing() {
        let m = Matrix::from_fn(4, 3, |i, j| (i * 10 + j) as f32);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m[(3, 2)], 32.0);
    }

    #[test]
    #[should_panic(expected = "Matrix::from_vec")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(5, 7, |i, j| (i * 7 + j) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (7, 5));
        assert_eq!(t[(3, 2)], m[(2, 3)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn identity_is_identity() {
        let id = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f32);
        let b = m.submatrix(1, 2, 2, 2);
        assert_eq!(b.as_slice(), &[6.0, 7.0, 10.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn submatrix_oob_panics() {
        let m = Matrix::zeros(3, 3);
        let _ = m.submatrix(2, 2, 2, 2);
    }

    #[test]
    fn set_submatrix_roundtrip() {
        let mut m = Matrix::zeros(4, 4);
        let b = Matrix::filled(2, 2, 7.0);
        m.set_submatrix(1, 1, &b);
        assert_eq!(m[(1, 1)], 7.0);
        assert_eq!(m[(2, 2)], 7.0);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m.submatrix(1, 1, 2, 2), b);
    }

    #[test]
    fn hconcat_vconcat() {
        let a = Matrix::filled(2, 3, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        let h = Matrix::hconcat(&[&a, &b]);
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h[(1, 2)], 1.0);
        assert_eq!(h[(1, 3)], 2.0);

        let c = Matrix::filled(1, 5, 3.0);
        let v = Matrix::vconcat(&[&h, &c]);
        assert_eq!(v.shape(), (3, 5));
        assert_eq!(v[(2, 4)], 3.0);
    }

    #[test]
    fn pad_keeps_topleft_zeroes_rest() {
        let m = Matrix::filled(2, 3, 5.0);
        let p = m.pad_to(4, 4);
        assert_eq!(p.shape(), (4, 4));
        assert_eq!(p[(1, 2)], 5.0);
        assert_eq!(p[(3, 3)], 0.0);
        assert_eq!(p.submatrix(0, 0, 2, 3), m);
    }

    #[test]
    fn split_cols_reassembles() {
        let m = Matrix::from_fn(3, 8, |i, j| (i * 8 + j) as f32);
        let stripes = m.split_cols(4);
        assert_eq!(stripes.len(), 4);
        let refs: Vec<&Matrix> = stripes.iter().collect();
        assert_eq!(Matrix::hconcat(&refs), m);
    }

    #[test]
    fn split_rows_reassembles() {
        let m = Matrix::from_fn(6, 3, |i, j| (i * 3 + j) as f32);
        let stripes = m.split_rows(3);
        let refs: Vec<&Matrix> = stripes.iter().collect();
        assert_eq!(Matrix::vconcat(&refs), m);
    }

    #[test]
    fn size_bytes_counts_f32() {
        assert_eq!(Matrix::zeros(512, 64).size_bytes(), 512 * 64 * 4);
    }

    #[test]
    fn col_extracts_column() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f32);
        assert_eq!(m.col(1), vec![1.0, 3.0, 5.0]);
    }
}
