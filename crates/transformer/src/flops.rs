//! FLOP accounting (paper §4.2).
//!
//! Conventions: one multiply-accumulate = 2 FLOPs; the decoder is costed at
//! full sequence length `t = s` (the accelerator schedules the decoder stack
//! over the padded sequence, exactly like the paper's latency model). The
//! paper states the deployed model "requires 4 Giga floating-point operations
//! to process a single input sequence" — [`model_flops`] reproduces that at
//! `s = 32`.

use crate::config::TransformerConfig;

/// FLOPs of a dense `(l × m) · (m × n)` matmul.
pub fn matmul_flops(l: usize, m: usize, n: usize) -> u64 {
    2 * (l as u64) * (m as u64) * (n as u64)
}

/// FLOPs of one multi-head attention block with query length `s_q` over a
/// memory of length `s_kv`.
pub fn attention_flops(s_q: usize, s_kv: usize, cfg: &TransformerConfig) -> u64 {
    let (d, dk, h) = (cfg.d_model, cfg.d_k(), cfg.n_heads as u64);
    // MM1 projections: Q from the query side, K and V from the memory side.
    let mm1 = h * (matmul_flops(s_q, d, dk) + 2 * matmul_flops(s_kv, d, dk));
    // MM2: Q·Kᵀ ; MM3: scores·V.
    let mm2 = h * matmul_flops(s_q, dk, s_kv);
    let mm3 = h * matmul_flops(s_q, s_kv, dk);
    // MM4 output projection.
    let mm4 = matmul_flops(s_q, d, d);
    // Minor ops: biases (one add/element), scale + softmax (~5 flops/score).
    let minor = h * (s_q as u64 * dk as u64 * 3)
        + (s_q as u64 * d as u64)
        + 5 * h * (s_q as u64 * s_kv as u64);
    mm1 + mm2 + mm3 + mm4 + minor
}

/// FLOPs of one FFN block at sequence length `s`.
pub fn ffn_flops(s: usize, cfg: &TransformerConfig) -> u64 {
    let (d, dff) = (cfg.d_model, cfg.d_ff);
    matmul_flops(s, d, dff) + matmul_flops(s, dff, d)
        // biases + ReLU
        + (s * dff) as u64 * 2 + (s * d) as u64
}

/// FLOPs of one layer-norm pass (mean, variance, normalise, affine ≈ 6/elem).
pub fn layernorm_flops(s: usize, cfg: &TransformerConfig) -> u64 {
    6 * (s * cfg.d_model) as u64
}

/// FLOPs of one encoder layer.
pub fn encoder_flops(s: usize, cfg: &TransformerConfig) -> u64 {
    attention_flops(s, s, cfg) + ffn_flops(s, cfg) + 2 * layernorm_flops(s, cfg)
}

/// FLOPs of one decoder layer (masked self-attention at length `t`,
/// cross-attention over an `s`-length memory, FFN).
pub fn decoder_flops(t: usize, s: usize, cfg: &TransformerConfig) -> u64 {
    attention_flops(t, t, cfg)
        + attention_flops(t, s, cfg)
        + ffn_flops(t, cfg)
        + 3 * layernorm_flops(t, cfg)
}

/// FLOPs of the full stack at sequence length `s` (decoder at `t = s`).
pub fn model_flops(s: usize, cfg: &TransformerConfig) -> u64 {
    cfg.n_encoders as u64 * encoder_flops(s, cfg) + cfg.n_decoders as u64 * decoder_flops(s, s, cfg)
}

/// Model FLOPs in GFLOPs.
pub fn model_gflops(s: usize, cfg: &TransformerConfig) -> f64 {
    model_flops(s, cfg) as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_is_about_4_gflops_at_s32() {
        // The paper's headline figure (§1.1).
        let g = model_gflops(32, &TransformerConfig::paper_base());
        assert!((g - 4.0).abs() < 0.15, "model is {} GFLOPs", g);
    }

    #[test]
    fn flops_scale_roughly_linearly_in_s() {
        let cfg = TransformerConfig::paper_base();
        let r = model_flops(32, &cfg) as f64 / model_flops(16, &cfg) as f64;
        // quadratic attention terms are small at these lengths
        assert!(r > 1.9 && r < 2.2, "scaling ratio {}", r);
    }

    #[test]
    fn ffn_is_about_twice_the_mha_flops() {
        // Consistent with §5.1.4: the FFN block dominates.
        let cfg = TransformerConfig::paper_base();
        let r = ffn_flops(32, &cfg) as f64 / attention_flops(32, 32, &cfg) as f64;
        assert!(r > 1.5 && r < 2.5, "FFN/MHA ratio {}", r);
    }

    #[test]
    fn encoder_vs_decoder_ratio() {
        // decoder = 2 attention blocks + FFN, encoder = 1 + FFN.
        let cfg = TransformerConfig::paper_base();
        let e = encoder_flops(32, &cfg) as f64;
        let d = decoder_flops(32, 32, &cfg) as f64;
        assert!(d > e * 1.2 && d < e * 1.6, "ratio {}", d / e);
    }

    #[test]
    fn matmul_flops_formula() {
        assert_eq!(matmul_flops(2, 3, 4), 48);
    }
}
