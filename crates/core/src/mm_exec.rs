//! Functional execution of the MM1–MM6 schemes through their exact hardware
//! decompositions.
//!
//! [`crate::mm`] gives each scheme's *cycle* cost; this module executes each
//! scheme's *data movement* literally — column/row stripes, per-PSA slices,
//! per-SLR weight halves, partial-product accumulation, padding — and checks
//! the result against a plain matmul. Together they justify that the timing
//! model charges exactly the work the hardware would do.

use crate::config::AccelConfig;
use asr_systolic::abft::PsaMatmul;
use asr_tensor::{ops, Matrix};

/// MM1 (Fig 4.3): Input1 split into 8 column stripes, Input2 into 8 row
/// stripes; pairwise stripe products accumulate through the pipelined adder.
pub fn mm1_exec(cfg: &AccelConfig, x: &Matrix, w: &Matrix) -> Matrix {
    mm1_exec_with(cfg, &cfg.psa_engine(), x, w)
}

/// [`mm1_exec`] on an explicit PSA engine (e.g. an ABFT-checked one).
pub fn mm1_exec_with(cfg: &AccelConfig, psa: &dyn PsaMatmul, x: &Matrix, w: &Matrix) -> Matrix {
    let stripes = cfg.model.d_model / cfg.psa.cols;
    assert_eq!(x.cols(), cfg.model.d_model, "MM1 input width");
    assert_eq!(w.rows(), cfg.model.d_model, "MM1 weight height");
    let xs = x.split_cols(stripes);
    let ws = w.split_rows(stripes);
    let mut acc = Matrix::zeros(x.rows(), w.cols());
    for (a, b) in xs.iter().zip(&ws) {
        ops::add_assign(&mut acc, &psa.matmul(a, b));
    }
    acc
}

/// MM2 (Fig 4.4): `Q · Kᵀ` with both operands zero-padded to the PSA width,
/// result cropped back to `s × s`.
pub fn mm2_exec(cfg: &AccelConfig, q: &Matrix, k: &Matrix) -> Matrix {
    mm2_exec_with(cfg, &cfg.psa_engine(), q, k)
}

/// [`mm2_exec`] on an explicit PSA engine (e.g. an ABFT-checked one).
pub fn mm2_exec_with(cfg: &AccelConfig, psa: &dyn PsaMatmul, q: &Matrix, k: &Matrix) -> Matrix {
    let w = cfg.psa.cols;
    let s = q.rows();
    let kt = k.transpose();
    let qp = q.pad_to(s, w.max(q.cols()));
    let ktp = kt.pad_to(w.max(kt.rows()), w.max(kt.cols()));
    let full = psa.matmul(&qp, &ktp);
    full.submatrix(0, 0, s, kt.cols())
}

/// MM3 (Fig 4.4): `scores · V` padded the same way.
pub fn mm3_exec(cfg: &AccelConfig, scores: &Matrix, v: &Matrix) -> Matrix {
    mm3_exec_with(cfg, &cfg.psa_engine(), scores, v)
}

/// [`mm3_exec`] on an explicit PSA engine (e.g. an ABFT-checked one).
pub fn mm3_exec_with(
    cfg: &AccelConfig,
    psa: &dyn PsaMatmul,
    scores: &Matrix,
    v: &Matrix,
) -> Matrix {
    let w = cfg.psa.cols;
    let s = scores.rows();
    let sp = scores.pad_to(s, w.max(scores.cols()));
    let vp = v.pad_to(w.max(v.rows()), v.cols());
    let full = psa.matmul(&sp, &vp);
    full.submatrix(0, 0, s, v.cols())
}

/// MM4 (Fig 4.5): the concatenated head outputs split into 8 column stripes
/// (4 per SLR), the weight into 8 row stripes, one slice per PSA; partial
/// products accumulate across the pool.
pub fn mm4_exec(cfg: &AccelConfig, concat: &Matrix, w_a: &Matrix) -> Matrix {
    mm4_exec_with(cfg, &cfg.psa_engine(), concat, w_a)
}

/// [`mm4_exec`] on an explicit PSA engine (e.g. an ABFT-checked one).
pub fn mm4_exec_with(
    cfg: &AccelConfig,
    psa: &dyn PsaMatmul,
    concat: &Matrix,
    w_a: &Matrix,
) -> Matrix {
    let n = cfg.n_psas();
    let xs = concat.split_cols(n);
    let ws = w_a.split_rows(n);
    let mut acc = Matrix::zeros(concat.rows(), w_a.cols());
    for (a, b) in xs.iter().zip(&ws) {
        ops::add_assign(&mut acc, &psa.matmul(a, b));
    }
    acc
}

/// MM5 (Fig 4.6): each SLR receives a `d × d_ff/2` weight half; the input
/// splits into two `s × d/2` halves; each of the four PSAs per SLR computes
/// one `(s × d/2) · (d/2 × d_ff/4)` block; the per-output-half partials
/// accumulate and the halves concatenate column-wise.
pub fn mm5_exec(cfg: &AccelConfig, x: &Matrix, w1: &Matrix) -> Matrix {
    mm5_exec_with(cfg, &cfg.psa_engine(), x, w1)
}

/// [`mm5_exec`] on an explicit PSA engine (e.g. an ABFT-checked one).
pub fn mm5_exec_with(_cfg: &AccelConfig, psa: &dyn PsaMatmul, x: &Matrix, w1: &Matrix) -> Matrix {
    let x_halves = x.split_cols(2);
    let w_row_halves = w1.split_rows(2);
    // each SLR owns one column half of the weights
    let mut out_halves = Vec::with_capacity(2);
    for slr in 0..2 {
        // the SLR's weight half: columns [slr*dff/2, ...)
        let dff = w1.cols();
        let w_slr_cols = |wrh: &Matrix| wrh.col_stripe(slr * dff / 2, dff / 2);
        // two partial products (one per input half) accumulate
        let mut acc = Matrix::zeros(x.rows(), dff / 2);
        for (xh, wrh) in x_halves.iter().zip(&w_row_halves) {
            ops::add_assign(&mut acc, &psa.matmul(xh, &w_slr_cols(wrh)));
        }
        out_halves.push(acc);
    }
    Matrix::hconcat(&[&out_halves[0], &out_halves[1]])
}

/// MM6 (Fig 4.7): the `s × d_ff` hidden splits into 8 column chunks (4 per
/// SLR), the weight into 8 row chunks; per-SLR partials sum locally, then the
/// SLR1 partial crosses the ISC and the final accumulation yields `s × d`.
pub fn mm6_exec(cfg: &AccelConfig, h: &Matrix, w2: &Matrix) -> Matrix {
    mm6_exec_with(cfg, &cfg.psa_engine(), h, w2)
}

/// [`mm6_exec`] on an explicit PSA engine (e.g. an ABFT-checked one).
pub fn mm6_exec_with(cfg: &AccelConfig, psa: &dyn PsaMatmul, h: &Matrix, w2: &Matrix) -> Matrix {
    let n = cfg.n_psas();
    let hs = h.split_cols(n);
    let ws = w2.split_rows(n);
    let mut slr_partials = [Matrix::zeros(h.rows(), w2.cols()), Matrix::zeros(h.rows(), w2.cols())];
    for (i, (a, b)) in hs.iter().zip(&ws).enumerate() {
        let slr = i / cfg.psas_per_slr;
        let p = psa.matmul(a, b);
        ops::add_assign(&mut slr_partials[slr], &p);
    }
    // cross-SLR final accumulation
    ops::add(&slr_partials[0], &slr_partials[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_tensor::{assert_close, init};

    fn cfg() -> AccelConfig {
        AccelConfig::paper_default()
    }

    #[test]
    fn mm1_scheme_matches_plain_matmul() {
        let c = cfg();
        let x = init::uniform(32, 512, -0.5, 0.5, 1);
        let w = init::uniform(512, 64, -0.5, 0.5, 2);
        assert_close(&mm1_exec(&c, &x, &w), &ops::matmul_naive(&x, &w), 2e-3);
    }

    #[test]
    fn mm2_padding_scheme_matches() {
        let c = cfg();
        for s in [4usize, 8, 16, 32] {
            let q = init::uniform(s, 64, -1.0, 1.0, s as u64);
            let k = init::uniform(s, 64, -1.0, 1.0, s as u64 + 1);
            let expect = ops::matmul_naive(&q, &k.transpose());
            assert_close(&mm2_exec(&c, &q, &k), &expect, 1e-3);
        }
    }

    #[test]
    fn mm3_padding_scheme_matches() {
        let c = cfg();
        let s = 16;
        let scores = init::uniform(s, s, 0.0, 1.0, 3);
        let v = init::uniform(s, 64, -1.0, 1.0, 4);
        assert_close(&mm3_exec(&c, &scores, &v), &ops::matmul_naive(&scores, &v), 1e-3);
    }

    #[test]
    fn mm4_pool_split_matches() {
        let c = cfg();
        let concat = init::uniform(32, 512, -0.5, 0.5, 5);
        let w_a = init::uniform(512, 512, -0.1, 0.1, 6);
        assert_close(&mm4_exec(&c, &concat, &w_a), &ops::matmul_naive(&concat, &w_a), 2e-3);
    }

    #[test]
    fn mm5_slr_split_matches() {
        let c = cfg();
        let x = init::uniform(8, 512, -0.5, 0.5, 7);
        let w1 = init::uniform(512, 2048, -0.1, 0.1, 8);
        assert_close(&mm5_exec(&c, &x, &w1), &ops::matmul_naive(&x, &w1), 2e-3);
    }

    #[test]
    fn mm6_cross_slr_accumulation_matches() {
        let c = cfg();
        let h = init::uniform(8, 2048, -0.5, 0.5, 9);
        let w2 = init::uniform(2048, 512, -0.05, 0.05, 10);
        assert_close(&mm6_exec(&c, &h, &w2), &ops::matmul_naive(&h, &w2), 2e-3);
    }

    #[test]
    fn whole_ffn_through_schemes() {
        // MM5 -> ReLU -> MM6 chained through the hardware decompositions.
        let c = cfg();
        let x = init::uniform(4, 512, -0.5, 0.5, 11);
        let w1 = init::uniform(512, 2048, -0.05, 0.05, 12);
        let w2 = init::uniform(2048, 512, -0.05, 0.05, 13);
        let mut hidden = mm5_exec(&c, &x, &w1);
        asr_tensor::activations::relu_inplace(&mut hidden);
        let out = mm6_exec(&c, &hidden, &w2);

        let mut expect_h = ops::matmul_naive(&x, &w1);
        asr_tensor::activations::relu_inplace(&mut expect_h);
        let expect = ops::matmul_naive(&expect_h, &w2);
        assert_close(&out, &expect, 5e-3);
    }
}
