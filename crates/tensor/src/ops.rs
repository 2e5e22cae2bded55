//! Matrix arithmetic: matmul backends, adds, bias broadcast, scaling.

use crate::matrix::Matrix;

/// Panic with a clear message unless `a`'s columns match `b`'s rows.
#[inline]
fn check_mm(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// Textbook triple-loop matmul. The correctness oracle for all other backends.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    check_mm(a, b);
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let aip = a[(i, p)];
            if aip == 0.0 {
                continue;
            }
            let brow = b.row(p);
            let orow = out.row_mut(i);
            for j in 0..n {
                orow[j] += aip * brow[j];
            }
        }
    }
    out
}

/// Cache-blocked single-threaded matmul.
///
/// Blocks over `k` and `j` so the working set of `b` stays in L1/L2; the
/// inner loop vectorises. Accumulation order over `k` differs from
/// [`matmul_naive`] only within a block boundary, so results agree to within
/// a few ULP — tests use approximate comparison.
pub fn matmul_blocked(a: &Matrix, b: &Matrix) -> Matrix {
    check_mm(a, b);
    const BK: usize = 64;
    const BJ: usize = 256;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for p0 in (0..k).step_by(BK) {
        let pe = (p0 + BK).min(k);
        for j0 in (0..n).step_by(BJ) {
            let je = (j0 + BJ).min(n);
            for i in 0..m {
                let arow = a.row(i);
                let orow = &mut out.row_mut(i)[j0..je];
                for (p, &aip) in arow.iter().enumerate().take(pe).skip(p0) {
                    let brow = &b.row(p)[j0..je];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += aip * bv;
                    }
                }
            }
        }
    }
    out
}

/// Element-wise sum `a + b`.
///
/// # Panics
/// Panics on shape mismatch.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "add shape mismatch");
    let mut out = a.clone();
    add_assign(&mut out, b);
    out
}

/// `a += b` in place.
pub fn add_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "add_assign shape mismatch");
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
}

/// Broadcast-add a `1 × cols` bias row to every row of `a`.
///
/// This is the `B(·)` adder block of the paper's Fig 4.13: the hardware has
/// eight `s × 64` adders that apply the Q/K/V and linear-layer biases.
pub fn add_bias(a: &Matrix, bias: &Matrix) -> Matrix {
    let mut out = a.clone();
    add_bias_assign(&mut out, bias);
    out
}

/// In-place broadcast bias add.
pub fn add_bias_assign(a: &mut Matrix, bias: &Matrix) {
    assert_eq!(bias.rows(), 1, "bias must be a row vector, got {:?}", bias.shape());
    assert_eq!(bias.cols(), a.cols(), "bias width {} != matrix width {}", bias.cols(), a.cols());
    let b = bias.row(0);
    for i in 0..a.rows() {
        for (x, &bv) in a.row_mut(i).iter_mut().zip(b) {
            *x += bv;
        }
    }
}

/// Scale every element by `s`.
pub fn scale(a: &Matrix, s: f32) -> Matrix {
    let mut out = a.clone();
    out.map_inplace(|x| x * s);
    out
}

/// Element-wise difference `a - b`.
pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "sub shape mismatch");
    let mut out = a.clone();
    for (x, &y) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x -= y;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::assert_close;
    use crate::init;

    fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
        init::uniform(rows, cols, -1.0, 1.0, seed)
    }

    #[test]
    fn naive_matches_hand_example() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul_naive(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = seeded(7, 7, 1);
        let id = Matrix::identity(7);
        assert_close(&matmul_naive(&a, &id), &a, 0.0);
        assert_close(&matmul_naive(&id, &a), &a, 0.0);
    }

    #[test]
    fn blocked_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (32, 512, 64), (17, 100, 33)] {
            let a = seeded(m, k, 2);
            let b = seeded(k, n, 3);
            assert_close(&matmul_blocked(&a, &b), &matmul_naive(&a, &b), 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul_naive(&a, &b);
    }

    #[test]
    fn add_and_sub_are_inverse() {
        let a = seeded(4, 6, 6);
        let b = seeded(4, 6, 7);
        let s = add(&a, &b);
        assert_close(&sub(&s, &b), &a, 1e-6);
    }

    #[test]
    fn bias_broadcasts_rows() {
        let a = Matrix::zeros(3, 4);
        let bias = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let out = add_bias(&a, &bias);
        for i in 0..3 {
            assert_eq!(out.row(i), bias.row(0));
        }
    }

    #[test]
    #[should_panic(expected = "bias must be a row vector")]
    fn bias_wrong_shape_panics() {
        let a = Matrix::zeros(3, 4);
        let bad = Matrix::zeros(2, 4);
        let _ = add_bias(&a, &bad);
    }

    #[test]
    fn scale_scales() {
        let a = Matrix::filled(2, 2, 3.0);
        assert_eq!(scale(&a, 0.5).as_slice(), &[1.5, 1.5, 1.5, 1.5]);
    }

    #[test]
    fn matmul_distributes_over_block_stripes() {
        // The MM1 scheme correctness argument: A*B == sum_k A_colstripe_k * B_rowstripe_k.
        let a = seeded(6, 16, 8);
        let b = seeded(16, 10, 9);
        let full = matmul_naive(&a, &b);
        let a_stripes = a.split_cols(4);
        let b_stripes = b.split_rows(4);
        let mut acc = Matrix::zeros(6, 10);
        for (as_, bs) in a_stripes.iter().zip(&b_stripes) {
            add_assign(&mut acc, &matmul_naive(as_, bs));
        }
        assert_close(&acc, &full, 1e-4);
    }
}
