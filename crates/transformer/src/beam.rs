//! Beam-search decoding.
//!
//! ESPnet's recognizer (the software stack the paper deploys) decodes with
//! beam search rather than pure greedy; this module provides it so the
//! library covers the full recognizer surface. Hypotheses are scored by
//! accumulated log-probability with an optional length penalty; `beam = 1`
//! reduces exactly to greedy decoding.

use crate::cache::{self, KvCache};
use crate::model::Model;
use asr_frontend::vocab::{self, TokenId};
use asr_tensor::{MatMul, Matrix};

/// Beam-search parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamConfig {
    /// Beam width (1 = greedy).
    pub beam: usize,
    /// Maximum generated tokens (excluding `<sos>`).
    pub max_len: usize,
    /// Length-normalisation exponent α: scores divide by `len^α`.
    pub length_penalty: f32,
}

impl BeamConfig {
    /// A typical ASR beam.
    pub fn default_asr() -> Self {
        BeamConfig { beam: 4, max_len: 64, length_penalty: 0.6 }
    }
}

/// One decoding hypothesis.
#[derive(Debug, Clone)]
pub struct Hypothesis {
    /// Token ids including `<sos>` (and `<eos>` when finished).
    pub tokens: Vec<TokenId>,
    /// Accumulated log-probability.
    pub log_prob: f32,
    /// Whether `<eos>` has been emitted.
    pub finished: bool,
}

impl Hypothesis {
    /// Length-normalised score.
    pub fn score(&self, alpha: f32) -> f32 {
        let len = (self.tokens.len().saturating_sub(1)).max(1) as f32;
        self.log_prob / len.powf(alpha)
    }
}

/// Log-softmax of a logits row.
fn log_softmax(row: &[f32]) -> Vec<f32> {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
    row.iter().map(|&x| x - max - log_sum).collect()
}

/// Beam-search decode against an encoder memory. Returns hypotheses sorted
/// best-first by length-normalised score.
pub fn beam_search(
    model: &Model,
    memory: &Matrix,
    cfg: &BeamConfig,
    backend: &dyn MatMul,
) -> Vec<Hypothesis> {
    assert!(cfg.beam >= 1, "beam width must be >= 1");
    assert!(cfg.max_len >= 1, "max_len must be >= 1");
    let mut beams = vec![Hypothesis { tokens: vec![vocab::SOS], log_prob: 0.0, finished: false }];

    for _ in 0..cfg.max_len {
        if beams.iter().all(|h| h.finished) {
            break;
        }
        let mut candidates: Vec<Hypothesis> = Vec::with_capacity(beams.len() * cfg.beam);
        for hyp in &beams {
            if hyp.finished {
                candidates.push(hyp.clone());
                continue;
            }
            let logits = model.decode_logits(&hyp.tokens, memory, backend);
            let lp = log_softmax(logits.row(logits.rows() - 1));
            // expand the top `beam` continuations of this hypothesis
            let mut idx: Vec<usize> = (0..lp.len()).collect();
            idx.sort_by(|&a, &b| lp[b].partial_cmp(&lp[a]).unwrap());
            for &t in idx.iter().take(cfg.beam) {
                let mut tokens = hyp.tokens.clone();
                tokens.push(t);
                candidates.push(Hypothesis {
                    tokens,
                    log_prob: hyp.log_prob + lp[t],
                    finished: t == vocab::EOS,
                });
            }
        }
        candidates.sort_by(|a, b| {
            b.score(cfg.length_penalty).partial_cmp(&a.score(cfg.length_penalty)).unwrap()
        });
        candidates.truncate(cfg.beam);
        beams = candidates;
    }
    beams.sort_by(|a, b| {
        b.score(cfg.length_penalty).partial_cmp(&a.score(cfg.length_penalty)).unwrap()
    });
    beams
}

/// KV-cached, kernel-coalesced beam search: the cross-attention K/V are
/// projected ONCE from the memory and shared (cloned) across the whole beam,
/// each hypothesis keeps its own self-attention cache, and every step scores
/// ALL live hypotheses through one [`cache::step_beam`] — a single
/// batch-of-`B` kernel per weight matmul, exactly the coalesced `Compute`
/// shape `ExecPlan::lower_decode_step` lowers. `O(T)` projections per
/// hypothesis instead of the eager [`beam_search`]'s `O(T²)`.
///
/// At `beam = 1` the continuation choice ties-to-last like
/// [`cache::greedy_decode_with`]'s argmax, so a width-1 beam is
/// token-identical to the greedy path — pinned by tests and proptests.
pub fn beam_search_cached(
    model: &Model,
    memory: &Matrix,
    cfg: &BeamConfig,
    backend: &dyn MatMul,
) -> Vec<Hypothesis> {
    let no_hook = |_: usize, _: &Matrix| Ok::<(), std::convert::Infallible>(());
    beam_search_cached_with(model, memory, cfg, backend, no_hook).unwrap_or_else(|e| match e {})
}

/// [`beam_search_cached`] with a hook on every step: `on_step(step,
/// logits)` sees the step's logits, one row per live hypothesis, before the
/// beam expands them. The accelerator's functional twin lowers each step's
/// plan and guards the logits there. An `Err` from the hook ends the search
/// with that error.
pub fn beam_search_cached_with<E>(
    model: &Model,
    memory: &Matrix,
    cfg: &BeamConfig,
    backend: &dyn MatMul,
    mut on_step: impl FnMut(usize, &Matrix) -> Result<(), E>,
) -> Result<Vec<Hypothesis>, E> {
    assert!(cfg.beam >= 1, "beam width must be >= 1");
    assert!(cfg.max_len >= 1, "max_len must be >= 1");
    let root = KvCache::new(model, memory, backend);
    let mut beams =
        vec![(Hypothesis { tokens: vec![vocab::SOS], log_prob: 0.0, finished: false }, root)];

    for step in 0..cfg.max_len {
        if beams.iter().all(|(h, _)| h.finished) {
            break;
        }
        // One coalesced batch-of-B step over every live hypothesis.
        let live: Vec<usize> =
            beams.iter().enumerate().filter(|(_, (h, _))| !h.finished).map(|(i, _)| i).collect();
        let fronts: Vec<TokenId> =
            live.iter().map(|&i| *beams[i].0.tokens.last().expect("non-empty")).collect();
        let mut caches: Vec<KvCache> = live.iter().map(|&i| beams[i].1.clone()).collect();
        let logits = cache::step_beam(model, &fronts, &mut caches, backend);
        on_step(step, &logits)?;

        let mut candidates: Vec<(Hypothesis, KvCache)> = Vec::with_capacity(beams.len() * cfg.beam);
        let mut row = 0usize;
        for (hyp, kv) in &beams {
            if hyp.finished {
                candidates.push((hyp.clone(), kv.clone()));
                continue;
            }
            let lp = log_softmax(logits.row(row));
            // Descending log-prob; ties prefer the higher token id so a
            // width-1 beam picks exactly what greedy's ties-to-last argmax
            // picks.
            let mut idx: Vec<usize> = (0..lp.len()).collect();
            idx.sort_by(|&a, &b| lp[b].partial_cmp(&lp[a]).unwrap().then(b.cmp(&a)));
            for &t in idx.iter().take(cfg.beam) {
                let mut tokens = hyp.tokens.clone();
                tokens.push(t);
                candidates.push((
                    Hypothesis {
                        tokens,
                        log_prob: hyp.log_prob + lp[t],
                        finished: t == vocab::EOS,
                    },
                    caches[row].clone(),
                ));
            }
            row += 1;
        }
        candidates.sort_by(|a, b| {
            b.0.score(cfg.length_penalty).partial_cmp(&a.0.score(cfg.length_penalty)).unwrap()
        });
        candidates.truncate(cfg.beam);
        beams = candidates;
    }
    beams.sort_by(|a, b| {
        b.0.score(cfg.length_penalty).partial_cmp(&a.0.score(cfg.length_penalty)).unwrap()
    });
    Ok(beams.into_iter().map(|(h, _)| h).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransformerConfig;
    use asr_tensor::backend::ReferenceBackend;
    use asr_tensor::init;

    fn rig() -> (Model, Matrix) {
        let model = Model::seeded(TransformerConfig::tiny(), 21);
        let x = init::uniform(5, model.config.d_model, -1.0, 1.0, 3);
        let mem = model.encode(&x, &ReferenceBackend);
        (model, mem)
    }

    #[test]
    fn beam_one_equals_greedy() {
        let (model, mem) = rig();
        let cfg = BeamConfig { beam: 1, max_len: 10, length_penalty: 0.0 };
        let beams = beam_search(&model, &mem, &cfg, &ReferenceBackend);
        let greedy = model.greedy_decode(&mem, 10, &ReferenceBackend);
        assert_eq!(beams[0].tokens, greedy);
    }

    #[test]
    fn wider_beam_never_scores_worse() {
        let (model, mem) = rig();
        let narrow = beam_search(
            &model,
            &mem,
            &BeamConfig { beam: 1, max_len: 8, length_penalty: 0.0 },
            &ReferenceBackend,
        );
        let wide = beam_search(
            &model,
            &mem,
            &BeamConfig { beam: 4, max_len: 8, length_penalty: 0.0 },
            &ReferenceBackend,
        );
        assert!(wide[0].score(0.0) >= narrow[0].score(0.0) - 1e-5);
    }

    #[test]
    fn returns_beam_many_sorted_hypotheses() {
        let (model, mem) = rig();
        let cfg = BeamConfig { beam: 3, max_len: 6, length_penalty: 0.6 };
        let beams = beam_search(&model, &mem, &cfg, &ReferenceBackend);
        assert_eq!(beams.len(), 3);
        for w in beams.windows(2) {
            assert!(w[0].score(0.6) >= w[1].score(0.6));
        }
    }

    #[test]
    fn hypotheses_start_with_sos_and_are_in_vocab() {
        let (model, mem) = rig();
        let beams = beam_search(&model, &mem, &BeamConfig::default_asr(), &ReferenceBackend);
        for h in &beams {
            assert_eq!(h.tokens[0], vocab::SOS);
            assert!(h.tokens.iter().all(|&t| t < model.config.vocab_size));
            assert!(h.log_prob <= 0.0);
        }
    }

    #[test]
    fn cached_beam_one_is_token_identical_to_cached_greedy() {
        let (model, mem) = rig();
        let cfg = BeamConfig { beam: 1, max_len: 10, length_penalty: 0.0 };
        let beams = beam_search_cached(&model, &mem, &cfg, &ReferenceBackend);
        let mut cache = crate::cache::KvCache::new(&model, &mem, &ReferenceBackend);
        let greedy = crate::cache::greedy_decode_with(&model, &mut cache, 10, &ReferenceBackend);
        assert_eq!(beams[0].tokens, greedy);
    }

    #[test]
    fn cached_beam_matches_eager_beam_token_for_token() {
        let (model, mem) = rig();
        for beam in [1usize, 2, 4] {
            let cfg = BeamConfig { beam, max_len: 8, length_penalty: 0.6 };
            let eager = beam_search(&model, &mem, &cfg, &ReferenceBackend);
            let cached = beam_search_cached(&model, &mem, &cfg, &ReferenceBackend);
            assert_eq!(cached.len(), eager.len(), "beam {}", beam);
            assert_eq!(cached[0].tokens, eager[0].tokens, "beam {}", beam);
        }
    }

    #[test]
    fn log_softmax_normalises() {
        let lp = log_softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = lp.iter().map(|&x| x.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(lp.iter().all(|&x| x < 0.0));
    }

    #[test]
    #[should_panic(expected = "beam width")]
    fn zero_beam_panics() {
        let (model, mem) = rig();
        let _ = beam_search(
            &model,
            &mem,
            &BeamConfig { beam: 0, max_len: 4, length_penalty: 0.0 },
            &ReferenceBackend,
        );
    }
}
