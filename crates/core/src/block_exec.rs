//! A complete encoder layer executed purely through the hardware schemes.
//!
//! [`crate::mm_exec`] validates each MM scheme in isolation; this module
//! chains them into the full Fig 4.13 block — per-head Q/K/V projections via
//! the MM1 striping, padded MM2/MM3 with scaling and softmax, the pool-wide
//! MM4/MM5/MM6 splits, the bias adders and both Add-Norms — and the tests pin
//! the result against `asr_transformer::encoder::encoder_forward` on the
//! *paper-sized* layer. This is the end-to-end functional proof that the
//! accelerator's decomposition computes exactly the model it claims to.

use crate::config::AccelConfig;
use crate::mm_exec;
use asr_systolic::abft::PsaMatmul;
use asr_tensor::activations::{relu_inplace, softmax_rows_inplace};
use asr_tensor::norm::layer_norm;
use asr_tensor::{ops, Matrix};
use asr_transformer::attention::LayerKv;
use asr_transformer::weights::EncoderWeights;

/// One attention head computed through the MM1/MM2/MM3 schemes
/// (the Fig 4.13 operation chain, functionally), over the head's cached
/// context keys and values followed by the rows' own. Returns the head
/// output and the keys and values it attended over.
fn head_via_schemes(
    cfg: &AccelConfig,
    engine: &dyn PsaMatmul,
    x: &Matrix,
    ctx: &LayerKv,
    w: &asr_transformer::weights::AttentionWeights,
    head: usize,
) -> (Matrix, Matrix, Matrix) {
    // MM1(K), B(K)
    let k = ctx.keys_then(
        head,
        ops::add_bias(&mm_exec::mm1_exec_with(cfg, engine, x, &w.w_k[head]), &w.b_k[head]),
    );
    // MM1(Q), B(Q)
    let q = ops::add_bias(&mm_exec::mm1_exec_with(cfg, engine, x, &w.w_q[head]), &w.b_q[head]);
    // MM2 (padded), then Sc + Sm
    let mut scores = mm_exec::mm2_exec_with(cfg, engine, &q, &k);
    let scale = 1.0 / (cfg.model.d_k() as f32).sqrt();
    scores.map_inplace(|v| v * scale);
    softmax_rows_inplace(&mut scores);
    // MM1(V), B(V), MM3 (padded)
    let v = ctx.values_then(
        head,
        ops::add_bias(&mm_exec::mm1_exec_with(cfg, engine, x, &w.w_v[head]), &w.b_v[head]),
    );
    (mm_exec::mm3_exec_with(cfg, engine, &scores, &v), k, v)
}

/// Full encoder layer through the schemes: 8 heads → concat → MM4 + B_A →
/// Add-Norm → MM5 + B_1F → ReLU → MM6 + B_2F → Add-Norm.
pub fn encoder_forward_via_schemes(cfg: &AccelConfig, x: &Matrix, w: &EncoderWeights) -> Matrix {
    encoder_forward_via_schemes_with(cfg, &cfg.psa_engine(), x, w)
}

/// [`encoder_forward_via_schemes`] on an explicit PSA engine — the hook the
/// integrity runner uses to route the whole layer through an ABFT-checked
/// PSA ([`asr_systolic::abft::CheckedPsa`]).
pub fn encoder_forward_via_schemes_with(
    cfg: &AccelConfig,
    engine: &dyn PsaMatmul,
    x: &Matrix,
    w: &EncoderWeights,
) -> Matrix {
    encoder_layer_via_schemes(cfg, engine, x, &LayerKv::default(), w).0
}

/// One encoder layer through the schemes over the new rows `x`, whose
/// heads attend over the cached context `ctx` followed by the rows' own
/// keys and values — the stream chunk's layer
/// ([`asr_transformer::encoder::encoder_layer`] on the hardware
/// decomposition). Returns the rows' output and the layer's keys and
/// values over `[ctx ; x]`; an empty context is
/// [`encoder_forward_via_schemes_with`] op for op.
pub fn encoder_layer_via_schemes(
    cfg: &AccelConfig,
    engine: &dyn PsaMatmul,
    x: &Matrix,
    ctx: &LayerKv,
    w: &EncoderWeights,
) -> (Matrix, LayerKv) {
    assert_eq!(x.cols(), cfg.model.d_model, "input width mismatch");
    // the eight heads (computed concurrently on hardware; sequentially here)
    let mut heads = Vec::with_capacity(cfg.model.n_heads);
    let mut kv = LayerKv::default();
    for h in 0..cfg.model.n_heads {
        let (out, k, v) = head_via_schemes(cfg, engine, x, ctx, &w.mha, h);
        heads.push(out);
        kv.k.push(k);
        kv.v.push(v);
    }
    let refs: Vec<&Matrix> = heads.iter().collect();
    let concat = Matrix::hconcat(&refs);

    // MM4 across the pool + B_A, then Add-Norm
    let mha_out =
        ops::add_bias(&mm_exec::mm4_exec_with(cfg, engine, &concat, &w.mha.w_a), &w.mha.b_a);
    let x1 = layer_norm(&ops::add(x, &mha_out), &w.ln1.w, &w.ln1.b);

    // FFN: MM5 + B_1F, ReLU, MM6 + B_2F, Add-Norm
    let mut hidden = ops::add_bias(&mm_exec::mm5_exec_with(cfg, engine, &x1, &w.ffn.w1), &w.ffn.b1);
    relu_inplace(&mut hidden);
    let ffn_out =
        ops::add_bias(&mm_exec::mm6_exec_with(cfg, engine, &hidden, &w.ffn.w2), &w.ffn.b2);
    (layer_norm(&ops::add(&x1, &ffn_out), &w.ln2.w, &w.ln2.b), kv)
}

/// One encoder layer over a whole batch of utterances, under a single
/// weight residency: the layer's stripes are fetched once (the timing path
/// charges one `LW` load per batch) and the utterances stream through the
/// schemes back-to-back. Functionally each output is bit-identical to
/// [`encoder_forward_via_schemes_with`] on that utterance alone — the PSA
/// engine is stateless per matmul, so sharing it across the batch cannot
/// leak data between utterances.
pub fn encoder_forward_via_schemes_batch(
    cfg: &AccelConfig,
    engine: &dyn PsaMatmul,
    xs: &[Matrix],
    w: &EncoderWeights,
) -> Vec<Matrix> {
    xs.iter().map(|x| encoder_forward_via_schemes_with(cfg, engine, x, w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_tensor::backend::ReferenceBackend;
    use asr_tensor::{init, max_abs_diff};
    use asr_transformer::encoder::encoder_forward;
    use asr_transformer::TransformerConfig;

    #[test]
    fn scheme_encoder_matches_model_encoder_at_paper_size() {
        // The real thing: a paper-sized encoder layer (d_model 512, 8 heads,
        // d_ff 2048) at s = 4 through the full hardware decomposition.
        let cfg = AccelConfig::paper_default();
        let w = EncoderWeights::seeded(&TransformerConfig::paper_base(), 42);
        let x = init::uniform(4, 512, -0.5, 0.5, 7);

        let via_schemes = encoder_forward_via_schemes(&cfg, &x, &w);
        let reference = encoder_forward(&x, &w, &ReferenceBackend);

        let d = max_abs_diff(&via_schemes, &reference);
        assert!(d < 5e-3, "scheme-executed encoder diverges by {}", d);
    }

    #[test]
    fn scheme_encoder_deterministic() {
        let cfg = AccelConfig::paper_default();
        let w = EncoderWeights::seeded(&TransformerConfig::paper_base(), 1);
        let x = init::uniform(2, 512, -0.5, 0.5, 2);
        assert_eq!(
            encoder_forward_via_schemes(&cfg, &x, &w),
            encoder_forward_via_schemes(&cfg, &x, &w)
        );
    }

    #[test]
    fn longer_sequences_also_match() {
        let cfg = AccelConfig::paper_default();
        let w = EncoderWeights::seeded(&TransformerConfig::paper_base(), 3);
        let x = init::uniform(8, 512, -0.5, 0.5, 4);
        let d = max_abs_diff(
            &encoder_forward_via_schemes(&cfg, &x, &w),
            &encoder_forward(&x, &w, &ReferenceBackend),
        );
        assert!(d < 5e-3, "diverges by {}", d);
    }

    #[test]
    fn batched_layer_is_bit_identical_to_solo_layers() {
        let cfg = AccelConfig::paper_default();
        let w = EncoderWeights::seeded(&TransformerConfig::paper_base(), 5);
        let xs: Vec<Matrix> = (0..3).map(|i| init::uniform(4, 512, -0.5, 0.5, 10 + i)).collect();
        let engine = cfg.psa_engine();
        let batched = encoder_forward_via_schemes_batch(&cfg, &engine, &xs, &w);
        for (x, b) in xs.iter().zip(&batched) {
            assert_eq!(*b, encoder_forward_via_schemes_with(&cfg, &engine, x, &w));
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_width_rejected() {
        let cfg = AccelConfig::paper_default();
        let w = EncoderWeights::seeded(&TransformerConfig::paper_base(), 1);
        let _ = encoder_forward_via_schemes(&cfg, &Matrix::zeros(4, 64), &w);
    }
}
