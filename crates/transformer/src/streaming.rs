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
//!   its checked schemes, with the same chunk checks and roll-forward.
//!
//! A chunk computes only its new rows. The carryover is each encoder
//! layer's self-attention keys and values for the trailing `left_context`
//! rows, as that layer computed them when the rows were new; every layer
//! attends over those cached rows followed by the chunk's own (Emformer's
//! left-context K/V carry, Shi et al., ICASSP 2021). Context rows are never
//! re-encoded.
//!
//! Degenerate configurations are rejected with a typed [`StreamingError`]
//! instead of panicking; a poisoned or hand-edited `StreamState` fails its
//! CRC check typed rather than silently corrupting the rest of the stream.

use crate::attention::LayerKv;
use crate::config::TransformerConfig;
use crate::encoder::encoder_layer;
use crate::model::Model;
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
    /// The carryover is not shaped for the model: a layer or head count,
    /// `d_k`, or row count other than the model and the state's cursors
    /// imply (a state captured under another model, say).
    CarryoverShape {
        /// Encoder layers the model has.
        layers: usize,
        /// Heads per layer.
        heads: usize,
        /// Cached rows per head: `min(left_context, emitted_rows)`.
        rows: usize,
        /// Columns per head, `d_k`.
        d_k: usize,
    },
    /// The state's CRC does not cover its contents: the carryover was
    /// corrupted (or hand-edited) after capture and must not be resumed.
    StateCrc {
        /// CRC stored in the state.
        stored: u32,
        /// CRC computed over the state actually held.
        computed: u32,
    },
    /// The state's cursors cannot move one chunk on: `chunk_idx + 1` or
    /// `emitted_rows + rows` does not fit a `usize` (a hand-edited state
    /// re-sealed so it passes its CRC).
    CursorOverflow {
        /// Chunks the state says are already encoded.
        chunk_idx: usize,
        /// Rows the state says are already emitted.
        emitted_rows: usize,
        /// Rows the arriving chunk carries.
        rows: usize,
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
            StreamingError::CarryoverShape { layers, heads, rows, d_k } => write!(
                f,
                "carryover is not shaped for the model: expected {} layers x {} heads of \
                 {} x {} keys and values",
                layers, heads, rows, d_k
            ),
            StreamingError::StateCrc { stored, computed } => write!(
                f,
                "stream state failed its CRC (stored {:#010x}, computed {:#010x})",
                stored, computed
            ),
            StreamingError::CursorOverflow { chunk_idx, emitted_rows, rows } => write!(
                f,
                "stream cursors cannot advance: chunk {} + 1 or row {} + {} overflows",
                chunk_idx, emitted_rows, rows
            ),
        }
    }
}

impl std::error::Error for StreamingError {}

/// The encoder's left-context carryover between chunks, CRC-enveloped so a
/// session can move between hosts (mid-stream failover) without silently
/// resuming from corrupted state. Holds, for each encoder layer and head,
/// the keys and values of the trailing `min(left_context, emitted_rows)`
/// rows, as that layer computed them when the rows were new — all a
/// chunk's layers need to attend over its left context without
/// re-encoding it.
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
    /// Per encoder layer, the cached context keys and values; empty while
    /// no context is carried. Public so tests can poison it; any mutation
    /// invalidates [`StreamState::crc`].
    pub kv: Vec<LayerKv>,
    /// CRC-32 over the cursors and every key and value bit, checked on
    /// every resume.
    pub crc: u32,
}

impl StreamState {
    /// Open a fresh stream under a validated configuration.
    pub fn open(cfg: &StreamingConfig) -> Result<StreamState, StreamingError> {
        cfg.validate()?;
        Ok(Self::sealed(cfg.chunk, cfg.left_context, 0, 0, Vec::new()))
    }

    fn sealed(
        chunk: usize,
        left_context: usize,
        chunk_idx: usize,
        emitted_rows: usize,
        kv: Vec<LayerKv>,
    ) -> StreamState {
        let crc = Self::crc_of(chunk, left_context, chunk_idx, emitted_rows, &kv);
        StreamState { chunk, left_context, chunk_idx, emitted_rows, kv, crc }
    }

    fn crc_of(
        chunk: usize,
        left_context: usize,
        idx: usize,
        emitted: usize,
        kv: &[LayerKv],
    ) -> u32 {
        let mut bytes = Vec::new();
        for v in [chunk, left_context, idx, emitted, kv.len()] {
            bytes.extend_from_slice(&(v as u64).to_le_bytes());
        }
        for layer in kv {
            for v in [layer.k.len(), layer.v.len()] {
                bytes.extend_from_slice(&(v as u64).to_le_bytes());
            }
            for m in layer.k.iter().chain(&layer.v) {
                for v in [m.rows(), m.cols()] {
                    bytes.extend_from_slice(&(v as u64).to_le_bytes());
                }
                for v in m.as_slice() {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
            }
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
            &self.kv,
        );
        if computed != self.crc {
            return Err(StreamingError::StateCrc { stored: self.crc, computed });
        }
        Ok(())
    }

    /// Encode one arriving chunk and roll the state forward: the one public
    /// way a stream moves on. The chunk is admitted before any compute —
    /// the state passes its CRC, the chunk carries `1..=chunk` rows of
    /// `d_model` features, the carryover is shaped for `model` and the
    /// cursors have room to move one chunk on — or refused with the typed
    /// error. Then `layer` runs each item of `layers` in turn over the
    /// rows so far (the chunk's own, first), attending over that layer's
    /// cached context keys and values, and returns its output rows with its
    /// keys and values over `[context ; rows]`. Returns the last layer's
    /// rows and the successor state, which keeps each layer's trailing
    /// `left_context` rows, has its cursors one chunk on and is sealed
    /// under its CRC.
    pub fn step<L, E: From<StreamingError>>(
        &self,
        chunk: &Matrix,
        model: &TransformerConfig,
        layers: impl IntoIterator<Item = L>,
        mut layer: impl FnMut(L, &Matrix, &LayerKv) -> Result<(Matrix, LayerKv), E>,
    ) -> Result<(Matrix, StreamState), E> {
        self.check_chunk(chunk, model)?;
        let mut x = chunk.clone();
        let mut kv = Vec::with_capacity(model.n_encoders);
        for (l, item) in layers.into_iter().enumerate() {
            let (y, layer_kv) = layer(item, &x, self.context(l))?;
            x = y;
            kv.push(layer_kv);
        }
        Ok((x, self.advance(chunk.rows(), &kv)))
    }

    /// Admit an arriving chunk before any compute: the state must pass its
    /// CRC, the chunk must carry `1..=chunk` rows of `d_model` features,
    /// the carryover must be shaped for the model — `n_encoders`
    /// layers of `n_heads` keys and values, each
    /// `min(left_context, emitted_rows) × d_k`, or nothing when that is 0 —
    /// and the cursors must have room to move one chunk on.
    fn check_chunk(&self, chunk: &Matrix, model: &TransformerConfig) -> Result<(), StreamingError> {
        self.verify()?;
        if chunk.rows() == 0 {
            return Err(StreamingError::EmptyInput);
        }
        if chunk.rows() > self.chunk {
            return Err(StreamingError::OversizedChunk { chunk: self.chunk, got: chunk.rows() });
        }
        if chunk.cols() != model.d_model {
            return Err(StreamingError::FeatureWidth {
                expected: model.d_model,
                got: chunk.cols(),
            });
        }
        let (layers, heads, d_k) = (model.n_encoders, model.n_heads, model.d_k());
        let rows = self.left_context.min(self.emitted_rows);
        let shaped = if rows == 0 {
            self.kv.is_empty()
        } else {
            self.kv.len() == layers
                && self.kv.iter().all(|l| {
                    l.k.len() == heads
                        && l.v.len() == heads
                        && l.k.iter().chain(&l.v).all(|m| m.shape() == (rows, d_k))
                })
        };
        if !shaped {
            return Err(StreamingError::CarryoverShape { layers, heads, rows, d_k });
        }
        if self.chunk_idx.checked_add(1).is_none()
            || self.emitted_rows.checked_add(chunk.rows()).is_none()
        {
            return Err(StreamingError::CursorOverflow {
                chunk_idx: self.chunk_idx,
                emitted_rows: self.emitted_rows,
                rows: chunk.rows(),
            });
        }
        Ok(())
    }

    /// Layer `layer`'s cached context: what that layer's attention spans
    /// before the chunk's own rows (empty while none is carried).
    fn context(&self, layer: usize) -> &LayerKv {
        static NONE: LayerKv = LayerKv { k: Vec::new(), v: Vec::new() };
        self.kv.get(layer).unwrap_or(&NONE)
    }

    /// The state after a chunk of `rows` new rows whose layers returned
    /// `kv` (each layer's keys and values over `[context ; chunk]`): each
    /// layer keeps its trailing `left_context` rows, the cursors move one
    /// chunk on, and the CRC covers the result. A chunk
    /// [`check_chunk`](Self::check_chunk) admitted always has room for the
    /// cursors to move.
    fn advance(&self, rows: usize, kv: &[LayerKv]) -> StreamState {
        let emitted_rows = self.emitted_rows + rows;
        let keep = self.left_context.min(emitted_rows);
        let kv = if keep == 0 { Vec::new() } else { kv.iter().map(|l| l.tail(keep)).collect() };
        Self::sealed(self.chunk, self.left_context, self.chunk_idx + 1, emitted_rows, kv)
    }
}

/// Encode one arriving chunk under the state's carried context
/// ([`StreamState::step`] over the model's encoder layers): only the
/// chunk's rows run through the encoder layers, each attending over its
/// cached context keys and values then the rows' own. Returns the chunk's
/// encoder rows and the successor state. The rows are bit-identical to
/// what [`encode_streaming`] produces for the same chunk of the same audio
/// — arrival one-at-a-time changes nothing — and a state captured here
/// resumes bit-identically anywhere (the failover guarantee).
pub fn push_chunk(
    model: &Model,
    state: &StreamState,
    chunk: &Matrix,
    backend: &dyn MatMul,
) -> Result<(Matrix, StreamState), StreamingError> {
    state.step(chunk, &model.config, &model.weights.encoders, |enc, x, context| {
        Ok(encoder_layer(x, context, enc, backend))
    })
}

/// Encode features chunk by chunk. Each chunk's layers attend over the
/// cached keys and values of rows `[chunk_start − left_context,
/// chunk_start)` and then the chunk's own; only the chunk's rows are
/// computed and emitted. Output shape equals the offline encoder's. Implemented as a
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

/// First-emission latency advantage: the number of encoder steps that must
/// arrive before the first output can be produced (offline: all of them;
/// streaming: one chunk).
pub fn first_emission_steps(total_steps: usize, cfg: &StreamingConfig) -> usize {
    cfg.chunk.min(total_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        state.kv[0].k[0].as_mut_slice()[0] += 1.0;
        assert!(matches!(state.verify(), Err(StreamingError::StateCrc { .. })));
        let err = push_chunk(&model, &state, &x.submatrix(4, 0, 4, x.cols()), &ReferenceBackend)
            .unwrap_err();
        assert!(matches!(err, StreamingError::StateCrc { .. }));
    }

    #[test]
    fn the_carryover_is_the_trailing_rows_kv_and_the_next_chunk_attends_over_it() {
        let (model, x) = rig();
        let cfg = StreamingConfig { chunk: 5, left_context: 3 };
        let open = StreamState::open(&cfg).unwrap();
        let (_, state) =
            push_chunk(&model, &open, &x.submatrix(0, 0, 5, x.cols()), &ReferenceBackend).unwrap();
        assert_eq!(state.kv.len(), model.config.n_encoders);
        // Layer 0's input is the features themselves, so its carried keys
        // and values are the projections of feature rows 2..5.
        let tail = x.submatrix(2, 0, 3, x.cols());
        let a = &model.weights.encoders[0].mha;
        for h in 0..model.config.n_heads {
            let k =
                asr_tensor::ops::add_bias(&ReferenceBackend.matmul(&tail, &a.w_k[h]), &a.b_k[h]);
            let v =
                asr_tensor::ops::add_bias(&ReferenceBackend.matmul(&tail, &a.w_v[h]), &a.b_v[h]);
            assert_eq!((&state.context(0).k[h], &state.context(0).v[h]), (&k, &v), "head {}", h);
        }
        // The next chunk's rows depend on that context.
        let next = x.submatrix(5, 0, 5, x.cols());
        let with = push_chunk(&model, &state, &next, &ReferenceBackend).unwrap().0;
        let without = push_chunk(&model, &open, &next, &ReferenceBackend).unwrap().0;
        assert_ne!(with, without);
    }

    /// A hand-edited state re-sealed so it passes its CRC: what a carryover
    /// captured under another model looks like on arrival.
    fn resealed(mut state: StreamState) -> StreamState {
        if let Err(StreamingError::StateCrc { computed, .. }) = state.verify() {
            state.crc = computed;
        }
        state
    }

    #[test]
    fn a_state_whose_cursors_cannot_advance_is_refused_typed() {
        // One 4-row chunk in, then the row or chunk cursor set to the top of
        // `usize` and the state re-sealed: the next chunk must be refused
        // before any compute, not wrap the cursors or overflow.
        let (model, x) = rig();
        let cfg = StreamingConfig { chunk: 4, left_context: 4 };
        let open = StreamState::open(&cfg).unwrap();
        let (_, state) =
            push_chunk(&model, &open, &x.submatrix(0, 0, 4, x.cols()), &ReferenceBackend).unwrap();
        let next = x.submatrix(4, 0, 4, x.cols());
        for (chunk_idx, emitted_rows) in [(1, usize::MAX), (usize::MAX, 4), (1, usize::MAX - 3)] {
            let forged = StreamState::sealed(4, 4, chunk_idx, emitted_rows, state.kv.clone());
            assert_eq!(
                push_chunk(&model, &forged, &next, &ReferenceBackend).map(|r| r.1),
                Err(StreamingError::CursorOverflow { chunk_idx, emitted_rows, rows: 4 })
            );
        }
        // The last row a cursor can reach is still admitted.
        let edge = StreamState::sealed(4, 4, 1, usize::MAX - 4, state.kv.clone());
        let (_, after) = push_chunk(&model, &edge, &next, &ReferenceBackend).unwrap();
        assert_eq!((after.chunk_idx, after.emitted_rows), (2, usize::MAX));
        after.verify().unwrap();
    }

    #[test]
    fn a_carryover_not_shaped_for_the_model_is_refused_typed() {
        let (model, x) = rig();
        let cfg = StreamingConfig { chunk: 4, left_context: 4 };
        let open = StreamState::open(&cfg).unwrap();
        let (_, state) =
            push_chunk(&model, &open, &x.submatrix(0, 0, 4, x.cols()), &ReferenceBackend).unwrap();
        let refused = |m: &Model, st: &StreamState| {
            let chunk = init::uniform(4, m.config.d_model, -1.0, 1.0, 9);
            match push_chunk(m, st, &chunk, &ReferenceBackend) {
                Err(StreamingError::CarryoverShape { .. }) => {}
                other => panic!("expected CarryoverShape, got {:?}", other.map(|r| r.0.shape())),
            }
        };
        // Another model's carryover: a wider d_model, a deeper stack, more
        // heads.
        let tiny = TransformerConfig::tiny();
        for other in [
            TransformerConfig { d_model: 64, ..tiny },
            TransformerConfig { n_encoders: 3, ..tiny },
            TransformerConfig { n_heads: 8, ..tiny },
        ] {
            refused(&Model::seeded(other, 13), &state);
        }
        // This model, but a carryover its cursors do not imply: an extra
        // cached row in one head, a missing layer, context before any row
        // was emitted.
        let mut extra = state.clone();
        let v = &extra.kv[1].v[2];
        extra.kv[1].v[2] = Matrix::vconcat(&[v, &v.submatrix(0, 0, 1, v.cols())]);
        let mut short = state.clone();
        short.kv.pop();
        let mut early = open.clone();
        early.kv = state.kv.clone();
        for st in [extra, short, early] {
            refused(&model, &resealed(st));
        }
    }
}
