//! Scaled dot-product and multi-head attention (Eq 3.1–3.2).

use crate::weights::AttentionWeights;
use asr_tensor::activations::{apply_causal_mask, softmax_rows_inplace};
use asr_tensor::{ops, MatMul, Matrix};

/// Masking mode of an attention block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionMask {
    /// No mask (encoder self-attention, decoder cross-attention).
    None,
    /// Look-ahead mask: position `i` attends only to `j ≤ i`
    /// (decoder masked self-attention, "M-MHA").
    Causal,
}

/// One encoder layer's self-attention keys and values: per head, one
/// `rows × d_k` matrix of each, row `i` projected from the layer input's
/// row `i`. A stream chunk's layers attend over the cached rows of these
/// that earlier chunks computed ([`crate::streaming::StreamState`]); an
/// empty value (no heads) is no context.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerKv {
    /// Per-head keys.
    pub k: Vec<Matrix>,
    /// Per-head values.
    pub v: Vec<Matrix>,
}

impl LayerKv {
    /// The trailing `keep` rows of every head's keys and values.
    pub fn tail(&self, keep: usize) -> LayerKv {
        let tail = |m: &Matrix| m.submatrix(m.rows() - keep, 0, keep, m.cols());
        LayerKv { k: self.k.iter().map(tail).collect(), v: self.v.iter().map(tail).collect() }
    }

    /// Head `h`'s keys: the cached rows, then `new`.
    pub fn keys_then(&self, h: usize, new: Matrix) -> Matrix {
        after(self.k.get(h), new)
    }

    /// Head `h`'s values: the cached rows, then `new`.
    pub fn values_then(&self, h: usize, new: Matrix) -> Matrix {
        after(self.v.get(h), new)
    }
}

fn after(cached: Option<&Matrix>, new: Matrix) -> Matrix {
    match cached {
        Some(c) => Matrix::vconcat(&[c, &new]),
        None => new,
    }
}

/// `softmax(Q·Kᵀ / √d_k) · V` over projected queries, keys and values: MM2,
/// scale (Sc), softmax (Sm), MM3. The query count may differ from the key
/// count; a causal mask needs them equal.
fn attend(q: &Matrix, k: &Matrix, v: &Matrix, mask: AttentionMask, backend: &dyn MatMul) -> Matrix {
    let mut scores = backend.matmul(q, &k.transpose());
    let scale = 1.0 / (q.cols() as f32).sqrt();
    scores.map_inplace(|x| x * scale);
    if mask == AttentionMask::Causal {
        apply_causal_mask(&mut scores);
    }
    softmax_rows_inplace(&mut scores);
    backend.matmul(&scores, v)
}

/// Full multi-head attention (Eq 3.2): run every head, concatenate, project
/// through `W_A` and add `B_A`. `queries_from` provides the Q projection
/// input; `memory` provides K and V (identical for self-attention, the
/// encoder output for cross-attention).
pub fn multi_head_attention(
    queries_from: &Matrix,
    memory: &Matrix,
    w: &AttentionWeights,
    mask: AttentionMask,
    backend: &dyn MatMul,
) -> Matrix {
    attention_over_context(queries_from, memory, &LayerKv::default(), w, mask, backend).0
}

/// [`multi_head_attention`] whose keys and values are the cached `ctx` rows
/// followed by those projected from `memory`. Returns the attention output
/// and, per head, the keys and values it attended over. An empty `ctx` is
/// [`multi_head_attention`] op for op.
pub fn attention_over_context(
    queries_from: &Matrix,
    memory: &Matrix,
    ctx: &LayerKv,
    w: &AttentionWeights,
    mask: AttentionMask,
    backend: &dyn MatMul,
) -> (Matrix, LayerKv) {
    let mut kv = LayerKv::default();
    let mut heads = Vec::with_capacity(w.w_q.len());
    for h in 0..w.w_q.len() {
        // MM1 projections (paper Table 4.2).
        let q = ops::add_bias(&backend.matmul(queries_from, &w.w_q[h]), &w.b_q[h]);
        let k = ctx.keys_then(h, ops::add_bias(&backend.matmul(memory, &w.w_k[h]), &w.b_k[h]));
        let v = ctx.values_then(h, ops::add_bias(&backend.matmul(memory, &w.w_v[h]), &w.b_v[h]));
        heads.push(attend(&q, &k, &v, mask, backend));
        kv.k.push(k);
        kv.v.push(v);
    }
    let refs: Vec<&Matrix> = heads.iter().collect();
    let concat = Matrix::hconcat(&refs);
    // MM4 + bias.
    (ops::add_bias(&backend.matmul(&concat, &w.w_a), &w.b_a), kv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransformerConfig;
    use asr_tensor::backend::ReferenceBackend;
    use asr_tensor::init;

    fn rig() -> (TransformerConfig, AttentionWeights, Matrix) {
        let cfg = TransformerConfig::tiny();
        let w = AttentionWeights::seeded(&cfg, 3);
        let x = init::uniform(6, cfg.d_model, -1.0, 1.0, 7);
        (cfg, w, x)
    }

    #[test]
    fn mha_output_shape_matches_input() {
        let (_, w, x) = rig();
        let y = multi_head_attention(&x, &x, &w, AttentionMask::None, &ReferenceBackend);
        assert_eq!(y.shape(), x.shape());
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn causal_mask_blocks_future_influence() {
        // Changing a future position must not change earlier outputs when the
        // causal mask is on.
        let (_, w, x) = rig();
        let y1 = multi_head_attention(&x, &x, &w, AttentionMask::Causal, &ReferenceBackend);
        let mut x2 = x.clone();
        // perturb the LAST row only
        let last = x2.rows() - 1;
        for v in x2.row_mut(last) {
            *v += 1.0;
        }
        let y2 = multi_head_attention(&x2, &x2, &w, AttentionMask::Causal, &ReferenceBackend);
        for i in 0..last {
            for j in 0..y1.cols() {
                assert!(
                    (y1[(i, j)] - y2[(i, j)]).abs() < 1e-5,
                    "row {} leaked future information",
                    i
                );
            }
        }
    }

    #[test]
    fn unmasked_attention_sees_future() {
        // Sanity inverse of the causal test: without the mask the earlier
        // outputs DO change.
        let (_, w, x) = rig();
        let y1 = multi_head_attention(&x, &x, &w, AttentionMask::None, &ReferenceBackend);
        let mut x2 = x.clone();
        let last = x2.rows() - 1;
        for v in x2.row_mut(last) {
            *v += 1.0;
        }
        let y2 = multi_head_attention(&x2, &x2, &w, AttentionMask::None, &ReferenceBackend);
        let changed =
            (0..last).any(|i| (0..y1.cols()).any(|j| (y1[(i, j)] - y2[(i, j)]).abs() > 1e-4));
        assert!(changed);
    }

    #[test]
    fn cross_attention_uses_memory_length() {
        let (cfg, w, x) = rig();
        let memory = init::uniform(9, cfg.d_model, -1.0, 1.0, 11);
        let y = multi_head_attention(&x, &memory, &w, AttentionMask::None, &ReferenceBackend);
        // output length follows the query side
        assert_eq!(y.shape(), (6, cfg.d_model));
    }

    #[test]
    fn single_row_attention_is_well_defined() {
        let (cfg, w, _) = rig();
        let x = init::uniform(1, cfg.d_model, -1.0, 1.0, 13);
        let y = multi_head_attention(&x, &x, &w, AttentionMask::Causal, &ReferenceBackend);
        assert_eq!(y.shape(), (1, cfg.d_model));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn head_uses_scale_one_over_sqrt_dk() {
        // With W_Q = W_K = identity-ish and large values the scale keeps
        // softmax finite; indirectly verified through finiteness at large X.
        let (_, w, _) = rig();
        let x = init::uniform(4, 32, -30.0, 30.0, 17);
        let y = multi_head_attention(&x, &x, &w, AttentionMask::None, &ReferenceBackend);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }
}
