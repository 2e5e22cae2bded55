//! Typed errors for the accelerator model.
//!
//! The seed grew up panicking at every boundary — fine for a calculator,
//! useless for a host runtime that must *survive* faults and degrade instead
//! of dying. [`AccelError`] is the error type every fallible entry point
//! ([`crate::config::AccelConfig::validate`],
//! the [`crate::plan::ExecPlan`] constructors — where lowering rejects bad
//! batches and over-length inputs before any executor runs —
//! [`crate::host_runtime::run_plan_with_recovery`], inside its
//! [`crate::host_runtime::BatchFailure`],
//! [`crate::host::HostController`]) returns; panics are reserved for
//! internal invariants.

/// Anything that can go wrong between the host API and the card.
#[derive(Debug, Clone, PartialEq)]
pub enum AccelError {
    /// The accelerator configuration is internally inconsistent.
    Config(String),
    /// The input is longer than the built (padded) sequence length.
    InvalidInput {
        /// Unpadded input length requested.
        input_len: usize,
        /// The bitstream's built sequence length.
        max_seq_len: usize,
    },
    /// A model passed to the host does not match the accelerator's shape.
    ModelMismatch(String),
    /// A command kept failing after every allowed retry and no degradation
    /// rung was left to fall back to.
    Unrecoverable {
        /// The phase being scheduled when recovery ran out of options.
        phase: String,
        /// The failing command's label.
        label: String,
        /// Attempts consumed (including the first).
        attempts: u32,
        /// Simulation time at which the run was declared lost, seconds —
        /// the failure-detection latency a serving tier charges the device.
        at_s: f64,
    },
    /// A weight stripe failed its CRC check on every allowed fetch attempt:
    /// the data in HBM (or the link delivering it) is silently corrupt and
    /// no clean copy could be obtained.
    CorruptWeights {
        /// The phase whose weights were being loaded.
        phase: String,
        /// The failing load command's label.
        label: String,
        /// Fetch attempts consumed (including the first).
        attempts: u32,
        /// Simulation time at which the load was abandoned, seconds.
        at_s: f64,
    },
    /// An ABFT checksum mismatch was detected in a PSA pass but the
    /// integrity level does not allow recomputation, so the result cannot
    /// be trusted.
    CorruptCompute {
        /// The phase whose matmul failed its checksum.
        phase: String,
        /// Corrupted output tiles detected in the pass.
        tiles: u64,
    },
    /// An activation guard tripped at a layer boundary: non-finite or
    /// absurdly large values escaped into the datapath.
    CorruptActivations {
        /// The layer boundary where the guard fired.
        boundary: String,
        /// What the guard saw (NaN/Inf or the offending magnitude).
        detail: String,
    },
    /// The serving queue is full: the request was shed at admission.
    Overloaded {
        /// Requests already waiting.
        queued: usize,
        /// The bounded queue's capacity.
        capacity: usize,
    },
    /// The request's deadline elapsed before a result was produced.
    DeadlineExceeded {
        /// The per-request deadline, seconds.
        deadline_s: f64,
        /// Time spent (queueing + cancelled service) before giving up, seconds.
        waited_s: f64,
    },
    /// A checkpoint failed validation against the target device's schedule
    /// (stale stripe CRC, mismatched architecture/integrity/batch, or an
    /// incoherent frontier). Resume must not proceed — the caller falls
    /// back to a clean full restart rather than silently reusing state.
    CheckpointRejected {
        /// What the validation found.
        reason: String,
    },
    /// A streaming configuration is degenerate: zero-step chunks, an
    /// attention window that exceeds the built sequence length, or a
    /// session parameter no schedule can be lowered for. Rejected typed at
    /// session open instead of panicking (or silently clamping) mid-stream.
    InvalidStream {
        /// What the validation found.
        reason: String,
    },
    /// A queued audio chunk was shed because it could no longer meet its
    /// per-chunk deadline even if dispatched immediately — serving it would
    /// only waste a device on audio the stream has already moved past.
    StaleChunk {
        /// Stream (session) the chunk belongs to.
        stream: usize,
        /// Chunk index within the stream.
        chunk: usize,
        /// The per-chunk deadline, seconds from the chunk's arrival.
        deadline_s: f64,
        /// How far past the point of no return the chunk was, seconds.
        late_s: f64,
    },
    /// A stream's bounded chunk queue is full: the arriving chunk is shed
    /// at the session boundary so a slow stream backs up onto itself
    /// instead of starving the shared device pool.
    StreamBackpressure {
        /// Stream (session) whose queue overflowed.
        stream: usize,
        /// Chunks already waiting in the session queue.
        queued: usize,
        /// The bounded per-session queue capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for AccelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccelError::Config(msg) => write!(f, "invalid configuration: {}", msg),
            AccelError::InvalidInput { input_len, max_seq_len } => write!(
                f,
                "input length {} exceeds the built sequence length {}",
                input_len, max_seq_len
            ),
            AccelError::ModelMismatch(msg) => write!(f, "model mismatch: {}", msg),
            AccelError::Unrecoverable { phase, label, attempts, at_s } => write!(
                f,
                "unrecoverable fault in phase {}: '{}' failed after {} attempts ({:.3} ms in)",
                phase,
                label,
                attempts,
                at_s * 1e3
            ),
            AccelError::CorruptWeights { phase, label, attempts, at_s } => write!(
                f,
                "corrupt weights in phase {}: '{}' failed CRC on all {} fetches ({:.3} ms in)",
                phase,
                label,
                attempts,
                at_s * 1e3
            ),
            AccelError::CorruptCompute { phase, tiles } => write!(
                f,
                "corrupt compute in phase {}: {} PSA tile(s) failed the ABFT checksum",
                phase, tiles
            ),
            AccelError::CorruptActivations { boundary, detail } => {
                write!(f, "corrupt activations at {}: {}", boundary, detail)
            }
            AccelError::Overloaded { queued, capacity } => {
                write!(f, "overloaded: {} requests already queued (capacity {})", queued, capacity)
            }
            AccelError::DeadlineExceeded { deadline_s, waited_s } => write!(
                f,
                "deadline of {:.1} ms exceeded after {:.1} ms",
                deadline_s * 1e3,
                waited_s * 1e3
            ),
            AccelError::CheckpointRejected { reason } => {
                write!(f, "checkpoint rejected: {} (full restart required)", reason)
            }
            AccelError::InvalidStream { reason } => {
                write!(f, "invalid streaming configuration: {}", reason)
            }
            AccelError::StaleChunk { stream, chunk, deadline_s, late_s } => write!(
                f,
                "stale chunk shed: stream {} chunk {} past its {:.1} ms deadline by {:.1} ms",
                stream,
                chunk,
                deadline_s * 1e3,
                late_s * 1e3
            ),
            AccelError::StreamBackpressure { stream, queued, capacity } => write!(
                f,
                "stream {} backpressure: {} chunks already queued (session capacity {})",
                stream, queued, capacity
            ),
        }
    }
}

impl std::error::Error for AccelError {}

impl From<asr_transformer::streaming::StreamingError> for AccelError {
    fn from(e: asr_transformer::streaming::StreamingError) -> Self {
        use asr_transformer::streaming::StreamingError;
        match e {
            // Corrupted carryover state, one not shaped for the model, or
            // one whose cursors cannot advance, is a rejected resume, same
            // contract as a poisoned PlanCheckpoint: restart clean, never
            // reuse.
            StreamingError::StateCrc { .. }
            | StreamingError::CarryoverShape { .. }
            | StreamingError::CursorOverflow { .. } => {
                AccelError::CheckpointRejected { reason: e.to_string() }
            }
            _ => AccelError::InvalidStream { reason: e.to_string() },
        }
    }
}

/// Result alias used across the crate's fallible boundaries.
pub type Result<T> = std::result::Result<T, AccelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = AccelError::InvalidInput { input_len: 64, max_seq_len: 32 };
        assert!(e.to_string().contains("64"));
        assert!(e.to_string().contains("32"));
        let e = AccelError::Unrecoverable {
            phase: "E3".into(),
            label: "LWE3".into(),
            attempts: 4,
            at_s: 1e-3,
        };
        assert!(e.to_string().contains("LWE3"));
        let e = AccelError::Overloaded { queued: 64, capacity: 64 };
        assert!(e.to_string().contains("64"));
        let e = AccelError::CorruptWeights {
            phase: "E1".into(),
            label: "LWE1".into(),
            attempts: 4,
            at_s: 2e-3,
        };
        assert!(e.to_string().contains("CRC"));
        assert!(e.to_string().contains("LWE1"));
        let e = AccelError::CorruptCompute { phase: "D1".into(), tiles: 3 };
        assert!(e.to_string().contains("ABFT"));
        let e = AccelError::CorruptActivations {
            boundary: "encoder 0 output".into(),
            detail: "NaN".into(),
        };
        assert!(e.to_string().contains("encoder 0 output"));
        let e = AccelError::DeadlineExceeded { deadline_s: 0.2, waited_s: 0.3 };
        assert!(e.to_string().contains("200.0 ms"));
        let e = AccelError::CheckpointRejected { reason: "stale CRC on stripe E3".into() };
        assert!(e.to_string().contains("stale CRC"));
        assert!(e.to_string().contains("full restart"));
        let e = AccelError::InvalidStream { reason: "chunk must be >= 1 step".into() };
        assert!(e.to_string().contains("chunk must be >= 1 step"));
        let e = AccelError::StaleChunk { stream: 3, chunk: 7, deadline_s: 0.05, late_s: 0.01 };
        assert!(e.to_string().contains("stream 3 chunk 7"));
        assert!(e.to_string().contains("50.0 ms"));
        let e = AccelError::StreamBackpressure { stream: 2, queued: 4, capacity: 4 };
        assert!(e.to_string().contains("stream 2"));
        assert!(e.to_string().contains("capacity 4"));
    }
}
