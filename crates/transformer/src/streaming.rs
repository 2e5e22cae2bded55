//! Chunked (streaming) encoding with typed, resumable session state.
//!
//! The paper cites streaming Transformer ASR (Moritz et al. \[26\]) as the
//! related direction for real-time use: instead of attending over the whole
//! utterance, the encoder processes fixed-size chunks with a window of left
//! context, so transcription can begin before the audio ends. This module
//! implements chunk-wise encoding over the same encoder stack in two forms:
//!
//! * [`encode_streaming`] — the batch view: all audio is present, chunks are
//!   sliced out of one feature matrix (with the whole input as one chunk it
//!   reduces exactly to offline encoding);
//! * [`push_chunk`] — the live view: chunks arrive one at a time and the
//!   encoder's left-context carryover travels in a typed, CRC-enveloped
//!   [`StreamState`]. The two are bit-identical chunk for chunk, and a
//!   `StreamState` captured after chunk *k* resumes on any host (after a
//!   device failover, say) with outputs bit-identical to the uninterrupted
//!   stream — the serving tier's mid-stream failover rests on this. The
//!   accelerator's functional twin carries the same `StreamState` through
//!   its checked schemes, with the same chunk checks, window and
//!   roll-forward.
//!
//! Degenerate configurations are rejected with a typed [`StreamingError`]
//! instead of panicking; a poisoned or hand-edited `StreamState` fails its
//! CRC check typed rather than silently corrupting the rest of the stream.

use crate::cache::KvCache;
use crate::model::Model;
use asr_frontend::vocab::TokenId;
use asr_tensor::{crc32, MatMul, Matrix};

/// Streaming parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingConfig {
    /// Encoder steps per chunk.
    pub chunk: usize,
    /// Left-context steps carried into each chunk's attention window.
    pub left_context: usize,
}

impl StreamingConfig {
    /// A latency-oriented default: 8-step chunks with 8 steps of context.
    pub fn low_latency() -> Self {
        StreamingConfig { chunk: 8, left_context: 8 }
    }

    /// The widest attention window any steady-state chunk sees.
    pub fn window(&self) -> usize {
        self.chunk + self.left_context
    }

    /// Reject degenerate parameters typed: a zero-step chunk can never
    /// advance the stream. (Zero left context is valid — it is the
    /// no-carryover configuration the offline-equality tests use.)
    pub fn validate(&self) -> Result<(), StreamingError> {
        if self.chunk == 0 {
            return Err(StreamingError::ZeroChunk);
        }
        Ok(())
    }
}

/// Typed failures of the streaming encoder. The `core` crate lifts these
/// into its `AccelError` at the serving boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamingError {
    /// `chunk == 0`: the stream can never advance.
    ZeroChunk,
    /// An empty feature matrix was offered as input or as a chunk.
    EmptyInput,
    /// A chunk carried more rows than the configured chunk size.
    OversizedChunk {
        /// Configured steps per chunk.
        chunk: usize,
        /// Rows actually offered.
        got: usize,
    },
    /// A chunk's feature width does not match the model's `d_model`.
    FeatureWidth {
        /// The model's expected feature width.
        expected: usize,
        /// Columns actually offered.
        got: usize,
    },
    /// The state's CRC does not cover its contents: the carryover was
    /// corrupted (or hand-edited) after capture and must not be resumed.
    StateCrc {
        /// CRC stored in the state.
        stored: u32,
        /// CRC computed over the state actually held.
        computed: u32,
    },
}

impl std::fmt::Display for StreamingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamingError::ZeroChunk => write!(f, "chunk must be >= 1 step"),
            StreamingError::EmptyInput => write!(f, "empty input: a chunk needs >= 1 step"),
            StreamingError::OversizedChunk { chunk, got } => {
                write!(f, "chunk of {} steps exceeds the configured chunk size {}", got, chunk)
            }
            StreamingError::FeatureWidth { expected, got } => {
                write!(f, "chunk features are {} wide, the model expects {}", got, expected)
            }
            StreamingError::StateCrc { stored, computed } => write!(
                f,
                "stream state failed its CRC (stored {:#010x}, computed {:#010x})",
                stored, computed
            ),
        }
    }
}

impl std::error::Error for StreamingError {}

/// The encoder's left-context carryover between chunks, CRC-enveloped so a
/// session can move between hosts (mid-stream failover) without silently
/// resuming from corrupted state. Holds the *raw feature* tail — the last
/// `left_context` input rows — because that is all a chunk's attention
/// window needs; encoded outputs already emitted never need revisiting.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamState {
    /// Configured steps per chunk (bound into the CRC so a state cannot be
    /// resumed under a different chunking).
    pub chunk: usize,
    /// Configured left-context steps.
    pub left_context: usize,
    /// Chunks already encoded.
    pub chunk_idx: usize,
    /// Encoder rows already emitted.
    pub emitted_rows: usize,
    /// The trailing `min(left_context, emitted_rows)` feature rows — the
    /// next chunk's attention context. Public so tests can poison it; any
    /// mutation invalidates [`StreamState::crc`].
    pub ctx: Matrix,
    /// CRC-32 over the context rows and cursors, checked on every resume.
    pub crc: u32,
}

impl StreamState {
    /// Open a fresh stream under a validated configuration.
    pub fn open(cfg: &StreamingConfig) -> Result<StreamState, StreamingError> {
        cfg.validate()?;
        let ctx = Matrix::zeros(0, 0);
        let crc = Self::crc_of(cfg.chunk, cfg.left_context, 0, 0, &ctx);
        Ok(StreamState {
            chunk: cfg.chunk,
            left_context: cfg.left_context,
            chunk_idx: 0,
            emitted_rows: 0,
            ctx,
            crc,
        })
    }

    fn crc_of(chunk: usize, left_context: usize, idx: usize, emitted: usize, ctx: &Matrix) -> u32 {
        let mut bytes = Vec::with_capacity(8 * 5 + ctx.len() * 4);
        for v in [chunk, left_context, idx, emitted, ctx.rows()] {
            bytes.extend_from_slice(&(v as u64).to_le_bytes());
        }
        for v in ctx.as_slice() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        crc32(&bytes)
    }

    /// Check the stored CRC against the state actually held. A mismatch
    /// means the carryover was corrupted after capture; the session must
    /// not resume from it.
    pub fn verify(&self) -> Result<(), StreamingError> {
        let computed = Self::crc_of(
            self.chunk,
            self.left_context,
            self.chunk_idx,
            self.emitted_rows,
            &self.ctx,
        );
        if computed != self.crc {
            return Err(StreamingError::StateCrc { stored: self.crc, computed });
        }
        Ok(())
    }

    /// Admit an arriving chunk before any compute: the state must pass its
    /// CRC, and the chunk must carry `1..=chunk` rows of `d_model` features.
    pub fn check_chunk(&self, chunk: &Matrix, d_model: usize) -> Result<(), StreamingError> {
        self.verify()?;
        if chunk.rows() == 0 {
            return Err(StreamingError::EmptyInput);
        }
        if chunk.rows() > self.chunk {
            return Err(StreamingError::OversizedChunk { chunk: self.chunk, got: chunk.rows() });
        }
        if chunk.cols() != d_model {
            return Err(StreamingError::FeatureWidth { expected: d_model, got: chunk.cols() });
        }
        Ok(())
    }

    /// The chunk's attention window: the carried context rows, then the
    /// chunk. The chunk's encoder rows are the window's rows past
    /// `ctx.rows()`.
    pub fn window(&self, chunk: &Matrix) -> Matrix {
        if self.ctx.rows() == 0 {
            chunk.clone()
        } else {
            Matrix::vconcat(&[&self.ctx, chunk])
        }
    }

    /// The state after this state's `window` ([`StreamState::window`]) is
    /// encoded: the window's trailing `left_context` rows become the next
    /// context, the cursors move one chunk on, and the CRC covers the
    /// result.
    pub fn advance(&self, window: &Matrix) -> StreamState {
        let keep = self.left_context.min(window.rows());
        let ctx = if keep == 0 {
            Matrix::zeros(0, 0)
        } else {
            window.submatrix(window.rows() - keep, 0, keep, window.cols())
        };
        let chunk_idx = self.chunk_idx + 1;
        let emitted_rows = self.emitted_rows + (window.rows() - self.ctx.rows());
        let crc = Self::crc_of(self.chunk, self.left_context, chunk_idx, emitted_rows, &ctx);
        StreamState {
            chunk: self.chunk,
            left_context: self.left_context,
            chunk_idx,
            emitted_rows,
            ctx,
            crc,
        }
    }
}

/// Encode one arriving chunk under the state's carried left context,
/// returning the chunk's encoder rows and the successor state. The rows are
/// bit-identical to what [`encode_streaming`] produces for the same chunk
/// of the same audio — arrival one-at-a-time changes nothing — and a state
/// captured here resumes bit-identically anywhere (the failover guarantee).
pub fn push_chunk(
    model: &Model,
    state: &StreamState,
    chunk: &Matrix,
    backend: &dyn MatMul,
) -> Result<(Matrix, StreamState), StreamingError> {
    state.check_chunk(chunk, model.config.d_model)?;
    let window = state.window(chunk);
    let encoded = model.encode(&window, backend);
    let out = encoded.submatrix(state.ctx.rows(), 0, chunk.rows(), encoded.cols());
    Ok((out, state.advance(&window)))
}

/// Encode features chunk by chunk. Each chunk attends over
/// `[chunk_start − left_context, chunk_end)`; only the chunk's own rows are
/// emitted. Output shape equals the offline encoder's. Implemented as a
/// fold over [`push_chunk`], so the batch view and the live one-chunk-at-a-
/// time view cannot drift apart.
pub fn encode_streaming(
    model: &Model,
    features: &Matrix,
    cfg: &StreamingConfig,
    backend: &dyn MatMul,
) -> Result<Matrix, StreamingError> {
    cfg.validate()?;
    let s = features.rows();
    if s == 0 {
        return Err(StreamingError::EmptyInput);
    }
    let mut out = Matrix::zeros(s, model.config.d_model);
    let mut state = StreamState::open(cfg)?;
    let mut start = 0usize;
    while start < s {
        let end = (start + cfg.chunk).min(s);
        let chunk = features.submatrix(start, 0, end - start, features.cols());
        let (rows, next) = push_chunk(model, &state, &chunk, backend)?;
        out.set_submatrix(start, 0, &rows);
        state = next;
        start = end;
    }
    Ok(out)
}

/// Run a full streaming recognition: encode chunk by chunk and emit the
/// partial transcript after every chunk. The decoder's cross-attention K/V
/// are *extended* with each chunk's new memory rows
/// ([`KvCache::extend_memory`]) rather than recomputed from scratch, and
/// each partial decode reuses them with a reset self-attention cache. The
/// final partial is token-identical to an offline decode of the streamed
/// memory.
pub fn transcribe_streaming(
    model: &Model,
    features: &Matrix,
    cfg: &StreamingConfig,
    max_len: usize,
    backend: &dyn MatMul,
) -> Result<Vec<Vec<TokenId>>, StreamingError> {
    cfg.validate()?;
    let s = features.rows();
    if s == 0 {
        return Err(StreamingError::EmptyInput);
    }
    let mut state = StreamState::open(cfg)?;
    let mut cache: Option<KvCache> = None;
    let mut partials = Vec::new();
    let mut start = 0usize;
    while start < s {
        let end = (start + cfg.chunk).min(s);
        let chunk = features.submatrix(start, 0, end - start, features.cols());
        let (rows, next) = push_chunk(model, &state, &chunk, backend)?;
        match cache.as_mut() {
            None => cache = Some(KvCache::new(model, &rows, backend)),
            Some(c) => c.extend_memory(model, &rows, backend),
        }
        let c = cache.as_mut().expect("cache initialized on the first chunk");
        c.reset_self();
        partials.push(crate::cache::greedy_decode_with(model, c, max_len, backend));
        state = next;
        start = end;
    }
    Ok(partials)
}

/// First-emission latency advantage: the number of encoder steps that must
/// arrive before the first output can be produced (offline: all of them;
/// streaming: one chunk).
pub fn first_emission_steps(total_steps: usize, cfg: &StreamingConfig) -> usize {
    cfg.chunk.min(total_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::greedy_decode_cached;
    use crate::config::TransformerConfig;
    use asr_tensor::backend::ReferenceBackend;
    use asr_tensor::{init, max_abs_diff};

    fn rig() -> (Model, Matrix) {
        let model = Model::seeded(TransformerConfig::tiny(), 13);
        let x = init::uniform(12, model.config.d_model, -1.0, 1.0, 5);
        (model, x)
    }

    #[test]
    fn whole_input_chunk_equals_offline() {
        let (model, x) = rig();
        let offline = model.encode(&x, &ReferenceBackend);
        let streamed = encode_streaming(
            &model,
            &x,
            &StreamingConfig { chunk: 12, left_context: 0 },
            &ReferenceBackend,
        )
        .unwrap();
        assert_eq!(streamed, offline);
    }

    #[test]
    fn chunked_output_has_right_shape_and_is_finite() {
        let (model, x) = rig();
        let streamed = encode_streaming(
            &model,
            &x,
            &StreamingConfig { chunk: 4, left_context: 4 },
            &ReferenceBackend,
        )
        .unwrap();
        assert_eq!(streamed.shape(), (12, model.config.d_model));
        assert!(streamed.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn more_context_gets_closer_to_offline() {
        let (model, x) = rig();
        let offline = model.encode(&x, &ReferenceBackend);
        let narrow = encode_streaming(
            &model,
            &x,
            &StreamingConfig { chunk: 4, left_context: 0 },
            &ReferenceBackend,
        )
        .unwrap();
        let wide = encode_streaming(
            &model,
            &x,
            &StreamingConfig { chunk: 4, left_context: 8 },
            &ReferenceBackend,
        )
        .unwrap();
        let err_narrow = max_abs_diff(&narrow, &offline);
        let err_wide = max_abs_diff(&wide, &offline);
        assert!(
            err_wide <= err_narrow + 1e-6,
            "wide context {} should not be worse than narrow {}",
            err_wide,
            err_narrow
        );
    }

    #[test]
    fn first_chunk_rows_ignore_the_future() {
        // Changing input after the first chunk+0 context must not change the
        // first chunk's output rows.
        let (model, x) = rig();
        let cfg = StreamingConfig { chunk: 4, left_context: 0 };
        let a = encode_streaming(&model, &x, &cfg, &ReferenceBackend).unwrap();
        let mut x2 = x.clone();
        for r in 6..12 {
            for v in x2.row_mut(r) {
                *v += 3.0;
            }
        }
        let b = encode_streaming(&model, &x2, &cfg, &ReferenceBackend).unwrap();
        for r in 0..4 {
            for c in 0..a.cols() {
                assert_eq!(a[(r, c)], b[(r, c)], "row {} saw the future", r);
            }
        }
    }

    #[test]
    fn first_emission_latency_is_one_chunk() {
        let cfg = StreamingConfig::low_latency();
        assert_eq!(first_emission_steps(32, &cfg), 8);
        assert_eq!(first_emission_steps(4, &cfg), 4);
    }

    #[test]
    fn ragged_final_chunk_handled() {
        let (model, x) = rig(); // 12 rows
        let streamed = encode_streaming(
            &model,
            &x,
            &StreamingConfig { chunk: 5, left_context: 2 },
            &ReferenceBackend,
        )
        .unwrap();
        assert_eq!(streamed.rows(), 12);
    }

    #[test]
    fn zero_chunk_is_a_typed_error_not_a_panic() {
        let (model, x) = rig();
        let cfg = StreamingConfig { chunk: 0, left_context: 4 };
        assert_eq!(cfg.validate(), Err(StreamingError::ZeroChunk));
        let err = encode_streaming(&model, &x, &cfg, &ReferenceBackend).unwrap_err();
        assert_eq!(err, StreamingError::ZeroChunk);
        assert!(StreamState::open(&cfg).is_err());
    }

    #[test]
    fn empty_input_is_a_typed_error() {
        let (model, _) = rig();
        let empty = Matrix::zeros(0, model.config.d_model);
        let err =
            encode_streaming(&model, &empty, &StreamingConfig::low_latency(), &ReferenceBackend)
                .unwrap_err();
        assert_eq!(err, StreamingError::EmptyInput);
    }

    #[test]
    fn oversized_and_misshapen_chunks_are_typed_errors() {
        let (model, x) = rig();
        let cfg = StreamingConfig { chunk: 4, left_context: 2 };
        let state = StreamState::open(&cfg).unwrap();
        let too_long = x.submatrix(0, 0, 6, x.cols());
        assert!(matches!(
            push_chunk(&model, &state, &too_long, &ReferenceBackend),
            Err(StreamingError::OversizedChunk { chunk: 4, got: 6 })
        ));
        let too_wide = Matrix::zeros(4, model.config.d_model + 1);
        assert!(matches!(
            push_chunk(&model, &state, &too_wide, &ReferenceBackend),
            Err(StreamingError::FeatureWidth { .. })
        ));
    }

    #[test]
    fn push_chunk_matches_batch_streaming_bit_for_bit() {
        let (model, x) = rig();
        let cfg = StreamingConfig { chunk: 5, left_context: 3 };
        let batch = encode_streaming(&model, &x, &cfg, &ReferenceBackend).unwrap();
        let mut state = StreamState::open(&cfg).unwrap();
        let mut out = Matrix::zeros(x.rows(), model.config.d_model);
        let mut start = 0;
        while start < x.rows() {
            let end = (start + cfg.chunk).min(x.rows());
            let chunk = x.submatrix(start, 0, end - start, x.cols());
            let (rows, next) = push_chunk(&model, &state, &chunk, &ReferenceBackend).unwrap();
            out.set_submatrix(start, 0, &rows);
            state = next;
            start = end;
        }
        assert_eq!(out, batch);
        assert_eq!(state.emitted_rows, 12);
        assert_eq!(state.chunk_idx, 3);
    }

    #[test]
    fn resumed_state_is_bit_identical_to_uninterrupted() {
        // Encode chunks 0..2, capture the state ("device died"), resume on a
        // "different host" (a clone of the state) — the remaining chunks'
        // rows must match the uninterrupted stream exactly.
        let (model, x) = rig();
        let cfg = StreamingConfig { chunk: 3, left_context: 4 };
        let uninterrupted = encode_streaming(&model, &x, &cfg, &ReferenceBackend).unwrap();

        let mut state = StreamState::open(&cfg).unwrap();
        for start in [0usize, 3] {
            let chunk = x.submatrix(start, 0, 3, x.cols());
            let (_, next) = push_chunk(&model, &state, &chunk, &ReferenceBackend).unwrap();
            state = next;
        }
        let moved = state.clone(); // what failover ships to the new device
        moved.verify().unwrap();
        let mut resumed_rows = Vec::new();
        let mut s2 = moved;
        for start in [6usize, 9] {
            let chunk = x.submatrix(start, 0, 3, x.cols());
            let (rows, next) = push_chunk(&model, &s2, &chunk, &ReferenceBackend).unwrap();
            resumed_rows.push(rows);
            s2 = next;
        }
        for (i, rows) in resumed_rows.iter().enumerate() {
            let start = 6 + 3 * i;
            let expect = uninterrupted.submatrix(start, 0, 3, uninterrupted.cols());
            assert_eq!(*rows, expect, "resumed chunk at row {} diverged", start);
        }
    }

    #[test]
    fn poisoned_state_is_rejected_typed() {
        let (model, x) = rig();
        let cfg = StreamingConfig { chunk: 4, left_context: 4 };
        let state = StreamState::open(&cfg).unwrap();
        let (_, mut state) =
            push_chunk(&model, &state, &x.submatrix(0, 0, 4, x.cols()), &ReferenceBackend).unwrap();
        state.ctx.as_mut_slice()[0] += 1.0;
        assert!(matches!(state.verify(), Err(StreamingError::StateCrc { .. })));
        let err = push_chunk(&model, &state, &x.submatrix(4, 0, 4, x.cols()), &ReferenceBackend)
            .unwrap_err();
        assert!(matches!(err, StreamingError::StateCrc { .. }));
    }

    #[test]
    fn streaming_partials_end_at_the_offline_transcript() {
        let (model, x) = rig();
        let cfg = StreamingConfig { chunk: 4, left_context: 8 };
        let partials = transcribe_streaming(&model, &x, &cfg, 8, &ReferenceBackend).unwrap();
        assert_eq!(partials.len(), 3, "one partial per chunk");
        // The final partial decodes the full streamed memory; pin it against
        // a from-scratch cached decode of the same memory.
        let memory = encode_streaming(&model, &x, &cfg, &ReferenceBackend).unwrap();
        let offline = greedy_decode_cached(&model, &memory, 8, &ReferenceBackend);
        assert_eq!(*partials.last().unwrap(), offline);
    }
}
