//! One encoder layer: MHA → Add-Norm → FFN → Add-Norm (Fig 3.1, left stack).

use crate::addnorm::add_norm;
use crate::attention::{attention_over_context, AttentionMask, LayerKv};
use crate::ffn::ffn_forward;
use crate::weights::EncoderWeights;
use asr_tensor::{MatMul, Matrix};

/// Forward pass of one encoder layer over an `s × d_model` input.
pub fn encoder_forward(x: &Matrix, w: &EncoderWeights, backend: &dyn MatMul) -> Matrix {
    encoder_layer(x, &LayerKv::default(), w, backend).0
}

/// One encoder layer over the new rows `x`, whose self-attention spans the
/// cached context `ctx` followed by the rows' own keys and values. Returns
/// the rows' layer output and the layer's keys and values over
/// `[ctx ; x]`. An empty context is [`encoder_forward`] op for op.
pub fn encoder_layer(
    x: &Matrix,
    ctx: &LayerKv,
    w: &EncoderWeights,
    backend: &dyn MatMul,
) -> (Matrix, LayerKv) {
    let (mha_out, kv) = attention_over_context(x, x, ctx, &w.mha, AttentionMask::None, backend);
    let x1 = add_norm(x, &mha_out, &w.ln1);
    let ffn_out = ffn_forward(&x1, &w.ffn, backend);
    (add_norm(&x1, &ffn_out, &w.ln2), kv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransformerConfig;
    use asr_tensor::backend::ReferenceBackend;
    use asr_tensor::init;

    #[test]
    fn shape_preserved_through_layer() {
        let cfg = TransformerConfig::tiny();
        let w = EncoderWeights::seeded(&cfg, 1);
        let x = init::uniform(7, cfg.d_model, -1.0, 1.0, 2);
        let y = encoder_forward(&x, &w, &ReferenceBackend);
        assert_eq!(y.shape(), x.shape());
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn output_rows_are_layer_normalised() {
        // Final op is an Add-Norm: per-row statistics are bounded.
        let cfg = TransformerConfig::tiny();
        let w = EncoderWeights::seeded(&cfg, 1);
        let x = init::uniform(4, cfg.d_model, -3.0, 3.0, 4);
        let y = encoder_forward(&x, &w, &ReferenceBackend);
        for i in 0..4 {
            let max = y.row(i).iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            assert!(max < 20.0, "row {} exploded to {}", i, max);
        }
    }

    #[test]
    fn different_inputs_different_outputs() {
        let cfg = TransformerConfig::tiny();
        let w = EncoderWeights::seeded(&cfg, 1);
        let x1 = init::uniform(3, cfg.d_model, -1.0, 1.0, 5);
        let x2 = init::uniform(3, cfg.d_model, -1.0, 1.0, 6);
        assert_ne!(
            encoder_forward(&x1, &w, &ReferenceBackend),
            encoder_forward(&x2, &w, &ReferenceBackend)
        );
    }
}
