//! Incremental decoding with a K/V cache.
//!
//! Naive autoregressive decoding recomputes the entire decoder stack for the
//! whole prefix at every step — `O(T²)` attention projections. The standard
//! inference optimisation caches each layer's K/V projections (self-attention)
//! and the cross-attention K/V (which depend only on the encoder memory), so
//! each step only projects the newest token. Decoding results are identical
//! to the uncached path; the tests pin that equality token-for-token.

use crate::model::Model;
use crate::weights::{AttentionWeights, DecoderWeights};
use asr_frontend::vocab::{self, TokenId};
use asr_tensor::activations::softmax_rows_inplace;
use asr_tensor::norm::layer_norm;
use asr_tensor::{ops, MatMul, Matrix};

/// Per-layer cached state.
#[derive(Clone)]
struct LayerCache {
    /// Self-attention K per head: grows one row per step.
    self_k: Vec<Matrix>,
    /// Self-attention V per head.
    self_v: Vec<Matrix>,
    /// Cross-attention K per head (fixed once computed).
    cross_k: Vec<Matrix>,
    /// Cross-attention V per head.
    cross_v: Vec<Matrix>,
}

/// Decoder-stack cache across steps.
#[derive(Clone)]
pub struct KvCache {
    layers: Vec<LayerCache>,
}

impl KvCache {
    /// Build the cache: precomputes the cross-attention K/V from the memory.
    pub fn new(model: &Model, memory: &Matrix, backend: &dyn MatMul) -> Self {
        let layers = model
            .weights
            .decoders
            .iter()
            .map(|dec| {
                let h = dec.cross_mha.w_k.len();
                let mut cross_k = Vec::with_capacity(h);
                let mut cross_v = Vec::with_capacity(h);
                for hd in 0..h {
                    cross_k.push(ops::add_bias(
                        &backend.matmul(memory, &dec.cross_mha.w_k[hd]),
                        &dec.cross_mha.b_k[hd],
                    ));
                    cross_v.push(ops::add_bias(
                        &backend.matmul(memory, &dec.cross_mha.w_v[hd]),
                        &dec.cross_mha.b_v[hd],
                    ));
                }
                LayerCache { self_k: Vec::new(), self_v: Vec::new(), cross_k, cross_v }
            })
            .collect();
        KvCache { layers }
    }

    /// Steps cached so far.
    pub fn len(&self) -> usize {
        self.layers.first().and_then(|l| l.self_k.first()).map(|k| k.rows()).unwrap_or(0)
    }

    /// True before the first step.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Attention of ONE new query row against cached K/V for one head.
fn cached_head_attention(
    q_row: &Matrix, // 1 × d_k
    k: &Matrix,     // t × d_k
    v: &Matrix,     // t × d_k
) -> Matrix {
    let mut scores = ops::matmul_naive(q_row, &k.transpose()); // 1 × t
    let scale = 1.0 / (q_row.cols() as f32).sqrt();
    scores.map_inplace(|x| x * scale);
    // causality is implicit: the cache only holds past positions
    softmax_rows_inplace(&mut scores);
    ops::matmul_naive(&scores, v) // 1 × d_k
}

/// Multi-head attention of one new row with cache append (self-attention) or
/// fixed cache (cross-attention).
fn cached_mha(
    x_row: &Matrix,
    w: &AttentionWeights,
    k_cache: &mut Vec<Matrix>,
    v_cache: &mut Vec<Matrix>,
    append: bool,
    backend: &dyn MatMul,
) -> Matrix {
    let h = w.w_q.len();
    let mut heads = Vec::with_capacity(h);
    for hd in 0..h {
        let q = ops::add_bias(&backend.matmul(x_row, &w.w_q[hd]), &w.b_q[hd]);
        if append {
            let k_new = ops::add_bias(&backend.matmul(x_row, &w.w_k[hd]), &w.b_k[hd]);
            let v_new = ops::add_bias(&backend.matmul(x_row, &w.w_v[hd]), &w.b_v[hd]);
            if k_cache.len() <= hd {
                k_cache.push(k_new);
                v_cache.push(v_new);
            } else {
                k_cache[hd] = Matrix::vconcat(&[&k_cache[hd], &k_new]);
                v_cache[hd] = Matrix::vconcat(&[&v_cache[hd], &v_new]);
            }
        }
        heads.push(cached_head_attention(&q, &k_cache[hd], &v_cache[hd]));
    }
    let refs: Vec<&Matrix> = heads.iter().collect();
    ops::add_bias(&backend.matmul(&Matrix::hconcat(&refs), &w.w_a), &w.b_a)
}

fn cached_decoder_layer(
    x_row: &Matrix,
    dec: &DecoderWeights,
    cache: &mut LayerCache,
    backend: &dyn MatMul,
) -> Matrix {
    let self_att =
        cached_mha(x_row, &dec.masked_mha, &mut cache.self_k, &mut cache.self_v, true, backend);
    let x1 = layer_norm(&ops::add(x_row, &self_att), &dec.ln1.w, &dec.ln1.b);
    // cross-attention: cache fixed, no append
    let mut ck = cache.cross_k.clone();
    let mut cv = cache.cross_v.clone();
    let cross = cached_mha(&x1, &dec.cross_mha, &mut ck, &mut cv, false, backend);
    let x2 = layer_norm(&ops::add(&x1, &cross), &dec.ln2.w, &dec.ln2.b);
    let ffn = crate::ffn::ffn_forward(&x2, &dec.ffn, backend);
    layer_norm(&ops::add(&x2, &ffn), &dec.ln3.w, &dec.ln3.b)
}

/// One incremental decode step: feed the newest token, get its logits row.
pub fn step(model: &Model, token: TokenId, cache: &mut KvCache, backend: &dyn MatMul) -> Matrix {
    let mut x = model.embed(&[token]);
    for (dec, layer_cache) in model.weights.decoders.iter().zip(&mut cache.layers) {
        x = cached_decoder_layer(&x, dec, layer_cache, backend);
    }
    ops::add_bias(&backend.matmul(&x, &model.weights.out_proj), &model.weights.out_bias)
}

/// Multi-head attention for a whole beam at once: the *weight* matmuls (Q,
/// and for self-attention K/V, plus the output projection) run as ONE
/// coalesced `B × d` pass per head — the kernel shape the decode plan's
/// batch-of-`beam` `Compute` models — while the attention itself stays
/// per-hypothesis against each hypothesis's own cache. Weight matmuls are
/// row-independent, so each hypothesis's rows are bit-identical to a solo
/// [`cached_mha`]; the tests pin that.
fn beam_mha(
    x: &Matrix, // B × d_model
    w: &AttentionWeights,
    lcs: &mut [&mut LayerCache],
    self_attn: bool,
    backend: &dyn MatMul,
) -> Matrix {
    let h = w.w_q.len();
    let b = x.rows();
    let mut heads: Vec<Matrix> = Vec::with_capacity(h);
    for hd in 0..h {
        let q = ops::add_bias(&backend.matmul(x, &w.w_q[hd]), &w.b_q[hd]); // B × d_k
        let kv_new = if self_attn {
            let k = ops::add_bias(&backend.matmul(x, &w.w_k[hd]), &w.b_k[hd]);
            let v = ops::add_bias(&backend.matmul(x, &w.w_v[hd]), &w.b_v[hd]);
            Some((k, v))
        } else {
            None
        };
        let mut out_rows: Vec<Matrix> = Vec::with_capacity(b);
        for (i, lc) in lcs.iter_mut().enumerate() {
            let q_row = q.submatrix(i, 0, 1, q.cols());
            if let Some((k_new, v_new)) = &kv_new {
                let k_row = k_new.submatrix(i, 0, 1, k_new.cols());
                let v_row = v_new.submatrix(i, 0, 1, v_new.cols());
                if lc.self_k.len() <= hd {
                    lc.self_k.push(k_row);
                    lc.self_v.push(v_row);
                } else {
                    lc.self_k[hd] = Matrix::vconcat(&[&lc.self_k[hd], &k_row]);
                    lc.self_v[hd] = Matrix::vconcat(&[&lc.self_v[hd], &v_row]);
                }
            }
            let (k, v) = if self_attn {
                (&lc.self_k[hd], &lc.self_v[hd])
            } else {
                (&lc.cross_k[hd], &lc.cross_v[hd])
            };
            out_rows.push(cached_head_attention(&q_row, k, v));
        }
        let refs: Vec<&Matrix> = out_rows.iter().collect();
        heads.push(Matrix::vconcat(&refs)); // B × d_k
    }
    let refs: Vec<&Matrix> = heads.iter().collect();
    ops::add_bias(&backend.matmul(&Matrix::hconcat(&refs), &w.w_a), &w.b_a)
}

/// One decoder layer for a whole beam: coalesced weight matmuls,
/// per-hypothesis attention and cache appends.
fn beam_decoder_layer(
    x: &Matrix, // B × d_model
    dec: &DecoderWeights,
    lcs: &mut [&mut LayerCache],
    backend: &dyn MatMul,
) -> Matrix {
    let self_att = beam_mha(x, &dec.masked_mha, lcs, true, backend);
    let x1 = layer_norm(&ops::add(x, &self_att), &dec.ln1.w, &dec.ln1.b);
    let cross = beam_mha(&x1, &dec.cross_mha, lcs, false, backend);
    let x2 = layer_norm(&ops::add(&x1, &cross), &dec.ln2.w, &dec.ln2.b);
    let ffn = crate::ffn::ffn_forward(&x2, &dec.ffn, backend);
    layer_norm(&ops::add(&x2, &ffn), &dec.ln3.w, &dec.ln3.b)
}

/// One coalesced decode step for `tokens.len()` beam hypotheses: hypothesis
/// `i` feeds `tokens[i]` through `caches[i]` and gets back row `i` of the
/// returned `B × vocab` logits. Every weight matmul runs once for the whole
/// beam (one weight residency, one batch-of-`B` kernel — the shape
/// `ExecPlan::lower_decode_step` lowers); weight matmuls are row-independent,
/// so each row is bit-identical to a solo [`step`] on the same cache, which
/// the tests pin. All caches must share the same memory projection.
pub fn step_beam(
    model: &Model,
    tokens: &[TokenId],
    caches: &mut [KvCache],
    backend: &dyn MatMul,
) -> Matrix {
    assert_eq!(tokens.len(), caches.len(), "one cache per hypothesis");
    assert!(!tokens.is_empty(), "empty beam");
    let rows: Vec<Matrix> = tokens.iter().map(|&t| model.embed(&[t])).collect();
    let refs: Vec<&Matrix> = rows.iter().collect();
    let mut x = Matrix::vconcat(&refs); // B × d_model
    for l in 0..model.weights.decoders.len() {
        let mut lcs: Vec<&mut LayerCache> = caches.iter_mut().map(|c| &mut c.layers[l]).collect();
        x = beam_decoder_layer(&x, &model.weights.decoders[l], &mut lcs, backend);
    }
    ops::add_bias(&backend.matmul(&x, &model.weights.out_proj), &model.weights.out_bias)
}

/// Greedy decode using the K/V cache; token-identical to
/// [`Model::greedy_decode`] but `O(T)` projections instead of `O(T²)`.
pub fn greedy_decode_cached(
    model: &Model,
    memory: &Matrix,
    max_len: usize,
    backend: &dyn MatMul,
) -> Vec<TokenId> {
    let mut cache = KvCache::new(model, memory, backend);
    greedy_decode_with(model, &mut cache, max_len, backend)
}

/// Greedy decode against a freshly built cache (no decoded steps yet), so a
/// caller can choose the backend that projects its memory — the functional
/// twin's checked engine, say — apart from the one that steps it.
pub fn greedy_decode_with(
    model: &Model,
    cache: &mut KvCache,
    max_len: usize,
    backend: &dyn MatMul,
) -> Vec<TokenId> {
    let mut tokens = vec![vocab::SOS];
    let mut last = vocab::SOS;
    for _ in 0..max_len {
        let logits = step(model, last, cache, backend);
        let next = logits
            .row(0)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .expect("non-empty logits");
        tokens.push(next);
        last = next;
        if next == vocab::EOS {
            break;
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransformerConfig;
    use asr_tensor::backend::ReferenceBackend;
    use asr_tensor::init;

    fn rig() -> (Model, Matrix) {
        let model = Model::seeded(TransformerConfig::tiny(), 31);
        let x = init::uniform(6, model.config.d_model, -1.0, 1.0, 4);
        let mem = model.encode(&x, &ReferenceBackend);
        (model, mem)
    }

    #[test]
    fn cached_decode_matches_uncached_exactly() {
        let (model, mem) = rig();
        let uncached = model.greedy_decode(&mem, 12, &ReferenceBackend);
        let cached = greedy_decode_cached(&model, &mem, 12, &ReferenceBackend);
        assert_eq!(cached, uncached);
    }

    #[test]
    fn cached_decode_matches_on_several_memories() {
        let model = Model::seeded(TransformerConfig::tiny(), 77);
        for seed in 0..5u64 {
            let x = init::uniform(4, model.config.d_model, -2.0, 2.0, seed);
            let mem = model.encode(&x, &ReferenceBackend);
            assert_eq!(
                greedy_decode_cached(&model, &mem, 8, &ReferenceBackend),
                model.greedy_decode(&mem, 8, &ReferenceBackend),
                "seed {}",
                seed
            );
        }
    }

    #[test]
    fn cache_grows_one_row_per_step() {
        let (model, mem) = rig();
        let mut cache = KvCache::new(&model, &mem, &ReferenceBackend);
        assert!(cache.is_empty());
        step(&model, vocab::SOS, &mut cache, &ReferenceBackend);
        assert_eq!(cache.len(), 1);
        step(&model, 5, &mut cache, &ReferenceBackend);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn beam_step_rows_are_bit_identical_to_solo_steps() {
        // The coalesced batch-of-B kernel must not change arithmetic:
        // every weight matmul is row-independent, so hypothesis i's logits
        // row equals a solo step on the same cache, bit for bit.
        let (model, mem) = rig();
        let tokens = [vocab::SOS, 3, 7];
        let mut solo_caches: Vec<KvCache> =
            (0..3).map(|_| KvCache::new(&model, &mem, &ReferenceBackend)).collect();
        let mut beam_caches = solo_caches.clone();
        // advance each solo cache independently
        let solo: Vec<Matrix> = tokens
            .iter()
            .zip(&mut solo_caches)
            .map(|(&t, c)| step(&model, t, c, &ReferenceBackend))
            .collect();
        let beamed = step_beam(&model, &tokens, &mut beam_caches, &ReferenceBackend);
        assert_eq!(beamed.rows(), 3);
        for (i, s) in solo.iter().enumerate() {
            for j in 0..model.config.vocab_size {
                assert!(
                    beamed[(i, j)].to_bits() == s[(0, j)].to_bits(),
                    "hypothesis {} logit {} diverged",
                    i,
                    j
                );
            }
        }
        // and the caches advanced identically
        for (a, b) in solo_caches.iter().zip(&beam_caches) {
            assert_eq!(a.len(), b.len());
        }
    }

    #[test]
    fn beam_of_one_steps_exactly_like_the_greedy_path() {
        let (model, mem) = rig();
        let mut greedy_cache = KvCache::new(&model, &mem, &ReferenceBackend);
        let mut beam_cache = [KvCache::new(&model, &mem, &ReferenceBackend)];
        for &t in &[vocab::SOS, 2, 5] {
            let g = step(&model, t, &mut greedy_cache, &ReferenceBackend);
            let b = step_beam(&model, &[t], &mut beam_cache, &ReferenceBackend);
            for j in 0..model.config.vocab_size {
                assert_eq!(b[(0, j)].to_bits(), g[(0, j)].to_bits(), "logit {}", j);
            }
        }
    }

    #[test]
    fn step_logits_match_full_forward_last_row() {
        let (model, mem) = rig();
        let prefix = [vocab::SOS, 7, 9];
        // full forward
        let full = model.decode_logits(&prefix, &mem, &ReferenceBackend);
        // incremental
        let mut cache = KvCache::new(&model, &mem, &ReferenceBackend);
        let mut last_logits = Matrix::zeros(1, model.config.vocab_size);
        for &t in &prefix {
            last_logits = step(&model, t, &mut cache, &ReferenceBackend);
        }
        for j in 0..model.config.vocab_size {
            assert!(
                (last_logits[(0, j)] - full[(prefix.len() - 1, j)]).abs() < 1e-3,
                "logit {} differs: {} vs {}",
                j,
                last_logits[(0, j)],
                full[(prefix.len() - 1, j)]
            );
        }
    }
}
