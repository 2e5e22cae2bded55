//! Silent-data-corruption defense: the functional half of DESIGN.md §9.
//!
//! The timing path ([`crate::host_runtime::run_plan_with_recovery`]) charges the
//! latency of CRC refetches and ABFT recomputes; this module carries the
//! *data*. It loads a model stripe by stripe through the CRC envelope
//! ([`asr_transformer::weights::WeightStripe`]), applies a fault plan's
//! silent corruptions to the fetched bytes, and runs the full encoder +
//! decoder forward pass through an ABFT-checked PSA
//! ([`asr_systolic::abft::CheckedPsa`]). The end-to-end contract, pinned by
//! the tests:
//!
//! * at [`IntegrityLevel::Off`] corrupted bytes flow straight into compute —
//!   the run completes but its outputs silently diverge (`escaped` counts
//!   every corruption that got through);
//! * at [`IntegrityLevel::Detect`] every corruption is caught — weight
//!   corruption is re-fetched (bounded), compute corruption fails typed
//!   ([`AccelError::CorruptCompute`]) because nothing can repair it;
//! * at [`IntegrityLevel::DetectAndRecompute`] the run completes with
//!   outputs **bit-identical** to the zero-fault run: CRC refetch restores
//!   clean stripes, the ABFT recompute path re-runs exactly the failing
//!   column tiles, and `escaped` is zero.
//!
//! Independent of the level, [`guard_activations`] runs at every layer
//! boundary: non-finite or absurd-magnitude activations fail typed even
//! when the integrity checks are off.

use crate::arch::Architecture;
use crate::block_exec::{encoder_forward_via_schemes_batch, encoder_layer_via_schemes};
use crate::config::AccelConfig;
use crate::error::{AccelError, Result};
use crate::host_runtime::MAX_ATTEMPTS;
use crate::plan::{DecodeStepSpec, ExecPlan, PhaseKind, PlanReuse, ResidentStripe};
use asr_fpga_sim::faults::{FaultKind, FaultPlan};
use asr_frontend::vocab::TokenId;
use asr_systolic::abft::{AbftStats, CheckedPsa, IntegrityLevel, LaneFault};
use asr_tensor::{crc32, init, Matrix, WeightEncoding};
use asr_transformer::beam::{beam_search_cached_with, BeamConfig, Hypothesis};
use asr_transformer::decoder::decoder_forward;
use asr_transformer::streaming::{StreamState, StreamingConfig};
use asr_transformer::weights::{ModelWeights, WeightStripe};
use asr_transformer::Model;

/// Corruption accounting across a run: what was injected, what the defenses
/// saw, and what got through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorruptionCounters {
    /// Corruption events injected (corrupted stripe fetches + corrupted
    /// PSA tiles).
    pub injected: u64,
    /// Events caught by a CRC or ABFT check.
    pub detected: u64,
    /// Weight stripes re-fetched after a CRC mismatch.
    pub refetched: u64,
    /// PSA tiles recomputed after an ABFT mismatch.
    pub recomputed: u64,
    /// Corruption events that flowed into compute unchecked. Must be zero
    /// at any level with checks enabled; nonzero only at `Off`.
    pub escaped: u64,
}

impl CorruptionCounters {
    /// Fold another run's counters into this one.
    pub fn merge(&mut self, other: &CorruptionCounters) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.refetched += other.refetched;
        self.recomputed += other.recomputed;
        self.escaped += other.escaped;
    }

    /// Whether any corruption was injected at all.
    pub fn any_injected(&self) -> bool {
        self.injected > 0
    }
}

/// Activation values above this magnitude trip the guard even when finite —
/// far above anything a layer-normed datapath produces legitimately.
pub const MAX_ACTIVATION: f32 = 1e6;

/// Always-on layer-boundary guard: NaN/Inf or absurd magnitudes fail typed
/// ([`AccelError::CorruptActivations`]) regardless of the integrity level.
pub fn guard_activations(m: &Matrix, boundary: &str) -> Result<()> {
    for &v in m.as_slice() {
        if !v.is_finite() {
            return Err(AccelError::CorruptActivations {
                boundary: boundary.to_string(),
                detail: format!("non-finite value {}", v),
            });
        }
        if v.abs() > MAX_ACTIVATION {
            return Err(AccelError::CorruptActivations {
                boundary: boundary.to_string(),
                detail: format!("magnitude {} exceeds {}", v, MAX_ACTIVATION),
            });
        }
    }
    Ok(())
}

/// One silent corruption applied to a weight stripe's fetched bytes.
///
/// `byte_in_word` is restricted to the three mantissa bytes (0..=2 of a
/// little-endian f32), mirroring the seeded fault model: a corrupted weight
/// stays *finite*, so only the checksums — not the NaN guards — can see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeCorruption {
    /// Index of the target stripe in [`ModelWeights::matrices`] order.
    pub stripe: usize,
    /// Word offset inside the stripe (taken modulo the stripe's length).
    pub word: usize,
    /// Byte within the word, 0..=2 (mantissa bytes only).
    pub byte_in_word: u8,
    /// XOR mask applied to that byte (nonzero).
    pub xor: u8,
    /// Fetch attempts that see the corruption; later fetches read clean
    /// bytes (transient HBM/DMA upset).
    pub failing_fetches: u32,
}

/// The silent faults of a [`FaultPlan`] projected onto the functional path.
#[derive(Debug, Clone, Default)]
pub struct FunctionalFaults {
    /// Weight-stripe byte corruptions (HBM bit flips, DMA payload damage).
    pub stripes: Vec<StripeCorruption>,
    /// Sticky arithmetic fault on one PSA lane, if the plan drew one.
    pub lane: Option<LaneFault>,
}

impl FunctionalFaults {
    /// No faults.
    pub fn none() -> Self {
        FunctionalFaults::default()
    }

    /// Whether the plan carries any silent fault.
    pub fn is_empty(&self) -> bool {
        self.stripes.is_empty() && self.lane.is_none()
    }

    /// Project a plan's silent faults onto a model with `n_stripes` weight
    /// matrices and a `psa_cols`-wide PSA. Loud faults are ignored — they
    /// belong to the timing path.
    pub fn from_plan(plan: &FaultPlan, n_stripes: usize, psa_cols: usize) -> Self {
        let mut f = FunctionalFaults::default();
        for k in plan.faults() {
            match k {
                FaultKind::HbmBitFlip { word, bit, failing_attempts, .. } => {
                    f.stripes.push(StripeCorruption {
                        stripe: word % n_stripes.max(1),
                        word: word / n_stripes.max(1),
                        byte_in_word: bit / 8,
                        xor: 1u8 << (bit % 8),
                        failing_fetches: *failing_attempts,
                    });
                }
                FaultKind::DmaCorruption { word, xor, failing_attempts, .. } => {
                    f.stripes.push(StripeCorruption {
                        stripe: word % n_stripes.max(1),
                        word: word / n_stripes.max(1),
                        byte_in_word: 1,
                        xor: *xor,
                        failing_fetches: *failing_attempts,
                    });
                }
                FaultKind::PsaStickyLane { lane, delta } => {
                    f.lane = Some(LaneFault { lane: lane % psa_cols, delta: *delta });
                }
                _ => {}
            }
        }
        f
    }

    /// [`Self::from_plan`] for a seeded silent-fault plan
    /// ([`asr_fpga_sim::faults::FaultProfile::silent_only`]).
    pub fn seeded(seed: u64, n_stripes: usize, psa_cols: usize) -> Self {
        let profile = asr_fpga_sim::faults::FaultProfile::silent_only();
        Self::from_plan(&FaultPlan::seeded_with(seed, &profile), n_stripes, psa_cols)
    }
}

/// What the host should do after one CRC-checked fetch attempt — the
/// outcome of [`crc_refetch_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcStep {
    /// The stripe is clean (or no corruption was present): use it.
    Accept,
    /// Checks are off and the stripe is corrupt: use it anyway — the
    /// corruption escapes into compute (`escaped` was counted).
    Escape,
    /// CRC mismatch with budget left: refetch (`detected`/`refetched`
    /// counted).
    Refetch,
    /// CRC mismatch with the budget exhausted: fail typed with
    /// [`AccelError::CorruptWeights`] (`detected` counted).
    Exhausted,
}

/// One step of the CRC-refetch loop, shared by the timing executor
/// (`host_runtime::run_plan_with_recovery`, where `corrupt` is the DMA's
/// `payload_corrupt` bit) and the functional loader (`fetch_stripe`, where
/// `corrupt` is an actual CRC-32 mismatch over the fetched bytes).
///
/// The helper owns the `detected`/`refetched`/`escaped` accounting and the
/// budget decision (a stripe gets the host's four attempts, the first
/// included); it deliberately does **not** count `injected` — on the
/// functional side a stripe can be corrupted in a way the CRC still passes
/// (two cancelling flips), so injection is the caller's observation, not a
/// property of the check.
pub fn crc_refetch_step(
    corrupt: bool,
    checks_enabled: bool,
    attempt: u32,
    counters: &mut CorruptionCounters,
) -> CrcStep {
    if !checks_enabled {
        // Off: nobody looks at the CRC; corrupted bytes flow downstream.
        if corrupt {
            counters.escaped += 1;
            return CrcStep::Escape;
        }
        return CrcStep::Accept;
    }
    if !corrupt {
        return CrcStep::Accept;
    }
    counters.detected += 1;
    if attempt >= MAX_ATTEMPTS {
        return CrcStep::Exhausted;
    }
    counters.refetched += 1;
    CrcStep::Refetch
}

/// Fetch one stripe through the CRC envelope, applying any corruption that
/// targets it, and decode the bytes that the configured level lets through.
fn fetch_stripe(
    stripe: &WeightStripe,
    idx: usize,
    faults: &FunctionalFaults,
    level: IntegrityLevel,
    counters: &mut CorruptionCounters,
) -> Result<Matrix> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let mut bytes = stripe.bytes.clone();
        let mut hit = false;
        for c in faults.stripes.iter().filter(|c| c.stripe == idx) {
            if attempt > c.failing_fetches {
                continue;
            }
            let words = bytes.len() / 4;
            if words == 0 {
                continue;
            }
            bytes[(c.word % words) * 4 + (c.byte_in_word as usize).min(2)] ^= c.xor;
            hit = true;
        }
        if hit {
            counters.injected += 1;
        }
        // `hit` says corruption was applied; with checks on the predicate is
        // the CRC itself (a lucky pair of flips could cancel), and at Off
        // the CRC is never read — `hit` is all the host could know.
        let corrupt = if level.checks_enabled() { crc32(&bytes) != stripe.crc } else { hit };
        match crc_refetch_step(corrupt, level.checks_enabled(), attempt, counters) {
            CrcStep::Accept | CrcStep::Escape => return Ok(decode_bytes(stripe, bytes)),
            CrcStep::Refetch => {}
            CrcStep::Exhausted => {
                return Err(AccelError::CorruptWeights {
                    phase: "load".into(),
                    label: stripe.label.clone(),
                    attempts: attempt,
                    at_s: 0.0,
                });
            }
        }
    }
}

fn decode_bytes(stripe: &WeightStripe, bytes: Vec<u8>) -> Matrix {
    // Fault injection flips bytes in place, never resizes, so the decode is
    // structurally total for every encoding (a corrupted sparse payload is
    // still the bitmap's payload length — the values are garbage, which is
    // exactly what an escaped silent fault should produce).
    WeightStripe {
        label: stripe.label.clone(),
        rows: stripe.rows,
        cols: stripe.cols,
        bytes,
        crc: stripe.crc,
        encoding: stripe.encoding.clone(),
    }
    .decode()
}

/// Load every weight matrix through the CRC envelope under `level`,
/// applying `faults`. Returns the model the datapath will actually compute
/// with (corrupted at `Off`, clean at `Detect`+ or a typed error).
pub fn load_model_with_faults(
    w: &ModelWeights,
    faults: &FunctionalFaults,
    level: IntegrityLevel,
    counters: &mut CorruptionCounters,
) -> Result<ModelWeights> {
    load_model_with_faults_encoded(w, WeightEncoding::Dense, faults, level, counters)
}

/// [`load_model_with_faults`] with the stripes on the wire in `spec`'s
/// encoding: each matrix is exported through the shared codec
/// ([`WeightStripe::export_encoded`]), corruption strikes the **encoded**
/// bytes, the CRC (also over encoded bytes) arbitrates, and the survivors
/// decode at load. `WeightEncoding::Dense` is exactly the legacy path.
pub fn load_model_with_faults_encoded(
    w: &ModelWeights,
    spec: WeightEncoding,
    faults: &FunctionalFaults,
    level: IntegrityLevel,
    counters: &mut CorruptionCounters,
) -> Result<ModelWeights> {
    let stripes: Vec<WeightStripe> = w
        .matrices()
        .iter()
        .enumerate()
        .map(|(i, m)| WeightStripe::export_encoded(format!("W{}", i), m, spec))
        .collect();
    let mut loaded = w.clone();
    for (i, (slot, stripe)) in loaded.matrices_mut().into_iter().zip(&stripes).enumerate() {
        *slot = fetch_stripe(stripe, i, faults, level, counters)?;
    }
    Ok(loaded)
}

/// Per-utterance outputs of a batched functional run.
#[derive(Debug, Clone)]
pub struct UtteranceRun {
    /// Final encoder-stack output for this utterance.
    pub encoder_out: Matrix,
    /// Final decoder-stack output for this utterance.
    pub decoder_out: Matrix,
    /// Greedy per-step transcript for this utterance.
    pub transcript: Vec<usize>,
}

/// Outcome of a batched functional run: shared defenses (the model is
/// loaded and CRC-scrubbed **once** for the whole batch, one ABFT engine
/// checks every utterance), per-utterance data.
#[derive(Debug, Clone)]
pub struct BatchIntegrityRun {
    /// Corruption accounting for the batch — one stripe load's worth, not
    /// one per utterance.
    pub counters: CorruptionCounters,
    /// The shared ABFT engine's tile-level statistics across the batch.
    pub abft: AbftStats,
    /// Each utterance's outputs, in input order.
    pub utterances: Vec<UtteranceRun>,
}

/// The host-side classifier head: project decoder output onto the vocab
/// and take each row's argmax (ties break to the lowest index, so the
/// transcript is deterministic).
fn transcript_of(w: &ModelWeights, decoder_out: &Matrix) -> Vec<usize> {
    use asr_tensor::backend::ReferenceBackend;
    use asr_tensor::{ops, MatMul};
    let logits = ops::add_bias(&ReferenceBackend.matmul(decoder_out, &w.out_proj), &w.out_bias);
    (0..logits.rows())
        .map(|r| {
            let row = logits.row(r);
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best
        })
        .collect()
}

/// Mid-run state of the functional interpreter, cut at a phase barrier —
/// the data half of [`crate::plan::PlanCheckpoint`]. Captures the batch's
/// partial activations (`xs`/`ys`), the layer cursors, and a CRC-32 over
/// all of it so a poisoned or hand-edited checkpoint is *rejected typed*
/// ([`AccelError::CheckpointRejected`]) instead of silently reused.
///
/// Resume reloads the model from `model_seed` through the same CRC
/// envelope (deterministic, so the reloaded weights are bit-identical to
/// the original load) and replays only the phases past `completed_phases`.
#[derive(Debug, Clone)]
pub struct FunctionalCheckpoint {
    /// Phases fully retired before the cut — the first phase a resumed run
    /// executes.
    pub completed_phases: usize,
    /// Encoder layers already consumed.
    pub enc_idx: usize,
    /// Decoder layers already consumed.
    pub dec_idx: usize,
    /// Model seed of the original run; resume reloads from it.
    pub model_seed: u64,
    /// Corruption accounting up to the cut (prefix-scoped; a resumed run's
    /// counters are suffix-scoped and do **not** include these).
    pub counters: CorruptionCounters,
    /// Per-utterance encoder activations at the cut. Public so tests can
    /// poison them; any mutation invalidates `state_crc`.
    pub xs: Vec<Matrix>,
    /// Per-utterance decoder activations at the cut (empty until the first
    /// decoder phase ran).
    pub ys: Vec<Matrix>,
    /// CRC-32 over the activations and cursors, checked by [`Self::verify`].
    pub state_crc: u32,
}

impl FunctionalCheckpoint {
    fn crc_of(xs: &[Matrix], ys: &[Matrix], completed: usize, enc: usize, dec: usize) -> u32 {
        let mut bytes = Vec::new();
        for m in xs.iter().chain(ys) {
            for v in m.as_slice() {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        for idx in [completed, enc, dec] {
            bytes.extend_from_slice(&(idx as u64).to_le_bytes());
        }
        crc32(&bytes)
    }

    /// Check the stored activation CRC against the state actually held.
    /// A mismatch means the checkpoint was corrupted after capture; resume
    /// must fall back to a clean full restart.
    pub fn verify(&self) -> Result<()> {
        let crc =
            Self::crc_of(&self.xs, &self.ys, self.completed_phases, self.enc_idx, self.dec_idx);
        if crc != self.state_crc {
            return Err(AccelError::CheckpointRejected {
                reason: format!(
                    "stale CRC on functional activation state \
                     (stored {:#010x}, computed {:#010x})",
                    self.state_crc, crc
                ),
            });
        }
        Ok(())
    }
}

/// The interpreter's phase cursor: activations plus layer indices.
struct PhaseCursor {
    xs: Vec<Matrix>,
    ys: Vec<Matrix>,
    enc_idx: usize,
    dec_idx: usize,
}

/// Execute the plan's phases in `range`, advancing the cursor in place.
fn advance_phases(
    cfg: &AccelConfig,
    plan: &ExecPlan,
    w: &ModelWeights,
    engine: &CheckedPsa,
    cur: &mut PhaseCursor,
    range: std::ops::Range<usize>,
    steps: usize,
) -> Result<()> {
    for p in &plan.phases[range] {
        match p.kind {
            PhaseKind::Encoder => {
                cur.xs = encoder_forward_via_schemes_batch(
                    cfg,
                    engine,
                    &cur.xs,
                    &w.encoders[cur.enc_idx],
                );
                for (u, x) in cur.xs.iter().enumerate() {
                    guard_activations(x, &format!("encoder {} output [u{}]", cur.enc_idx, u))?;
                }
                cur.enc_idx += 1;
            }
            PhaseKind::DecoderFull => {
                if cur.ys.is_empty() {
                    cur.ys = (0..cur.xs.len())
                        .map(|_| w.embedding.submatrix(0, 0, steps, cfg.model.d_model))
                        .collect();
                }
                for (u, (y, encoder_out)) in cur.ys.iter_mut().zip(&cur.xs).enumerate() {
                    *y = decoder_forward(y, encoder_out, &w.decoders[cur.dec_idx], engine);
                    guard_activations(y, &format!("decoder {} output [u{}]", cur.dec_idx, u))?;
                }
                cur.dec_idx += 1;
            }
            PhaseKind::DecoderMha | PhaseKind::DecoderFfn => {
                return Err(AccelError::Config(
                    "functional interpreter needs full decoder phases; \
                     lower the plan at A1/A2 granularity"
                        .into(),
                ));
            }
            PhaseKind::DecodeEmbed { .. }
            | PhaseKind::DecodeKv { .. }
            | PhaseKind::DecodeLayer { .. }
            | PhaseKind::DecodeOut { .. } => {
                return Err(AccelError::Config(
                    "decode-step phases interpret via run_functional_decode, \
                     not the eager plan interpreter"
                        .into(),
                ));
            }
            PhaseKind::StreamContext { .. } | PhaseKind::StreamLayer { .. } => {
                return Err(AccelError::Config(
                    "stream-chunk phases interpret via push_functional_chunk, \
                     not the eager plan interpreter"
                        .into(),
                ));
            }
        }
    }
    Ok(())
}

/// The functional interpreter over a lowered [`ExecPlan`]: one CRC-verified
/// weight-load pass ([`load_model_with_faults`] — the plan's `LoadStripe` +
/// `Verify(WeightCrc)` nodes carried into data), then the plan's phases in
/// schedule order on one shared ABFT-checked PSA. Encoder phases run the
/// whole batch layer-major through [`encoder_forward_via_schemes_batch`];
/// decoder phases advance every utterance one layer.
///
/// The interpreter needs full decoder phases ([`PhaseKind::DecoderFull`]) —
/// the A3 M-MHA/FFN half-phases are a *timing* split with no functional
/// seam — so lower the plan at [`Architecture::A1`]/[`Architecture::A2`]
/// granularity; half-phases fail typed.
///
/// Each utterance's outputs are bit-identical to a batch-of-one run with
/// the same input seed: weights are read-only, and the checked PSA applies
/// its fault statelessly per matmul, so batching cannot change any
/// utterance's bits. The *counters* are one batch's worth: stripe
/// corruptions are injected (and scrubbed) once per batch, not once per
/// utterance. Deterministic in its arguments, which is what the
/// bit-identity tests compare across integrity levels.
pub fn run_functional_plan(
    cfg: &AccelConfig,
    plan: &ExecPlan,
    model_seed: u64,
    input_seeds: &[u64],
    faults: &FunctionalFaults,
) -> Result<BatchIntegrityRun> {
    if plan.resume.is_some() {
        return Err(AccelError::Config(
            "plan is a resumed suffix; interpret it via resume_functional_plan \
             with the checkpoint it was lowered from"
                .into(),
        ));
    }
    let (w, engine, cur) = functional_prelude(cfg, plan, model_seed, input_seeds, faults)?;
    let mut counters = cur.1;
    let mut cursor = cur.0;
    let steps = functional_steps(cfg, plan);
    advance_phases(cfg, plan, &w, &engine, &mut cursor, 0..plan.phases.len(), steps)?;
    functional_epilogue(plan, &w, &engine, cursor, &mut counters, steps)
}

/// Shared setup for the plan interpreter: validate the batch, load the
/// model through the CRC envelope, build the checked engine, seed the
/// encoder inputs. Returns the model, engine, and a fresh cursor paired
/// with the load's corruption counters.
#[allow(clippy::type_complexity)]
fn functional_prelude(
    cfg: &AccelConfig,
    plan: &ExecPlan,
    model_seed: u64,
    input_seeds: &[u64],
    faults: &FunctionalFaults,
) -> Result<(ModelWeights, CheckedPsa, (PhaseCursor, CorruptionCounters))> {
    if input_seeds.len() != plan.batch {
        return Err(AccelError::Config(format!(
            "plan lowered for batch {} but {} input seeds supplied",
            plan.batch,
            input_seeds.len()
        )));
    }
    let level = plan.integrity;
    let mut counters = CorruptionCounters::default();
    let clean = ModelWeights::seeded(&cfg.model, model_seed);
    let w = load_model_with_faults_encoded(&clean, cfg.encoding, faults, level, &mut counters)?;
    let engine = CheckedPsa::with_fault(cfg.psa_engine(), level, faults.lane);
    let s = functional_rows(plan);
    let xs: Vec<Matrix> = input_seeds
        .iter()
        .map(|&seed| init::uniform(s, cfg.model.d_model, -0.5, 0.5, seed))
        .collect();
    let cursor = PhaseCursor { xs, ys: Vec::new(), enc_idx: 0, dec_idx: 0 };
    Ok((w, engine, (cursor, counters)))
}

/// Rows of each utterance's encoder activations: the built length, cut to
/// the batch's longest input.
fn functional_rows(plan: &ExecPlan) -> usize {
    let input_len = plan.input_lens.iter().copied().max().unwrap_or(1);
    plan.seq_len.min(input_len.max(1))
}

/// Decoder token-prefix length: the first `steps` embedding rows stand in
/// for a decoded token prefix (the functional path needs data, not a beam
/// search).
fn functional_steps(cfg: &AccelConfig, plan: &ExecPlan) -> usize {
    functional_rows(plan).min(cfg.model.vocab_size)
}

/// Shared teardown: materialize per-utterance outputs and fold the ABFT
/// statistics into the corruption counters under the plan's level.
fn functional_epilogue(
    plan: &ExecPlan,
    w: &ModelWeights,
    engine: &CheckedPsa,
    mut cursor: PhaseCursor,
    counters: &mut CorruptionCounters,
    steps: usize,
) -> Result<BatchIntegrityRun> {
    if cursor.ys.is_empty() {
        // A plan with no decoder phases: the "decoder output" is the
        // untouched token prefix, as on the pre-plan path.
        cursor.ys = (0..cursor.xs.len())
            .map(|_| w.embedding.submatrix(0, 0, steps, w.embedding.cols()))
            .collect();
    }
    let utterances = cursor
        .xs
        .into_iter()
        .zip(cursor.ys)
        .map(|(encoder_out, y)| {
            let transcript = transcript_of(w, &y);
            UtteranceRun { encoder_out, decoder_out: y, transcript }
        })
        .collect::<Vec<_>>();

    let abft = fold_abft(plan.integrity, engine, counters, "forward")?;
    Ok(BatchIntegrityRun { counters: *counters, abft, utterances })
}

/// Run the interpreter up to (exclusive) `cut_phase` and capture a
/// [`FunctionalCheckpoint`] at that barrier. `cut_phase == 0` checkpoints
/// before any compute; `cut_phase == plan.phases.len()` captures the
/// completed state (useful only for exhaustive cut tests).
pub fn functional_checkpoint_at(
    cfg: &AccelConfig,
    plan: &ExecPlan,
    model_seed: u64,
    input_seeds: &[u64],
    faults: &FunctionalFaults,
    cut_phase: usize,
) -> Result<FunctionalCheckpoint> {
    if cut_phase > plan.phases.len() {
        return Err(AccelError::Config(format!(
            "cut phase {} past the plan's {} phases",
            cut_phase,
            plan.phases.len()
        )));
    }
    let (w, engine, (mut cursor, counters)) =
        functional_prelude(cfg, plan, model_seed, input_seeds, faults)?;
    let steps = functional_steps(cfg, plan);
    advance_phases(cfg, plan, &w, &engine, &mut cursor, 0..cut_phase, steps)?;
    let state_crc = FunctionalCheckpoint::crc_of(
        &cursor.xs,
        &cursor.ys,
        cut_phase,
        cursor.enc_idx,
        cursor.dec_idx,
    );
    Ok(FunctionalCheckpoint {
        completed_phases: cut_phase,
        enc_idx: cursor.enc_idx,
        dec_idx: cursor.dec_idx,
        model_seed,
        counters,
        xs: cursor.xs,
        ys: cursor.ys,
        state_crc,
    })
}

/// The checkpoint-interpreting path: verify the checkpoint's activation
/// CRC (stale state is rejected typed — never silently reused), reload the
/// model from the checkpoint's seed through the same CRC envelope, and
/// replay only the phases past the cut. The resumed utterance outputs are
/// **bit-identical** to an unfaulted straight run: the model reload is
/// deterministic and the checked PSA applies its fault statelessly per
/// matmul, so nothing about the cut can change the bits.
///
/// `plan` is the *full* plan the checkpoint was cut from. The returned
/// counters are suffix-scoped (one model reload + the replayed phases);
/// fold in `ckpt.counters` for whole-run accounting.
///
/// A checkpoint whose state the plan's prefix could not have left is
/// refused typed before any phase runs, whatever its CRC: layer cursors
/// that are not the prefix's encoder and decoder phase counts, activations
/// of another shape than the plan's, or decoder activations present before
/// the first decoder phase (or not one per utterance after it).
pub fn resume_functional_plan(
    cfg: &AccelConfig,
    plan: &ExecPlan,
    ckpt: &FunctionalCheckpoint,
    input_seeds: &[u64],
    faults: &FunctionalFaults,
) -> Result<BatchIntegrityRun> {
    ckpt.verify()?;
    let reject = |reason: String| Err(AccelError::CheckpointRejected { reason });
    let Some(done) = plan.phases.get(..ckpt.completed_phases) else {
        return reject(format!(
            "frontier {} past the plan's {} phases",
            ckpt.completed_phases,
            plan.phases.len()
        ));
    };
    if ckpt.xs.len() != plan.batch {
        return reject(format!(
            "checkpoint holds {} utterances but the plan batches {}",
            ckpt.xs.len(),
            plan.batch
        ));
    }
    let ran = |kind: PhaseKind| done.iter().filter(|p| p.kind == kind).count();
    let (encoders, decoders) = (ran(PhaseKind::Encoder), ran(PhaseKind::DecoderFull));
    if (ckpt.enc_idx, ckpt.dec_idx) != (encoders, decoders) {
        return reject(format!(
            "cursors at encoder {} and decoder {}, but the {} phases before the frontier \
             hold {} encoder and {} decoder phases",
            ckpt.enc_idx, ckpt.dec_idx, ckpt.completed_phases, encoders, decoders
        ));
    }
    let ys_len = if decoders == 0 { 0 } else { plan.batch };
    if ckpt.ys.len() != ys_len {
        return reject(format!(
            "{} decoder activations after {} decoder phases of a batch of {}",
            ckpt.ys.len(),
            decoders,
            plan.batch
        ));
    }
    let (d_model, steps) = (cfg.model.d_model, functional_steps(cfg, plan));
    let shapes = [("encoder", &ckpt.xs, functional_rows(plan)), ("decoder", &ckpt.ys, steps)];
    for (what, ms, rows) in shapes {
        if let Some(m) = ms.iter().find(|m| (m.rows(), m.cols()) != (rows, d_model)) {
            return reject(format!(
                "{} activations of {} x {}, not the plan's {} x {}",
                what,
                m.rows(),
                m.cols(),
                rows,
                d_model
            ));
        }
    }
    let (w, engine, (_fresh, counters)) =
        functional_prelude(cfg, plan, ckpt.model_seed, input_seeds, faults)?;
    let mut counters = counters;
    let mut cursor = PhaseCursor {
        xs: ckpt.xs.clone(),
        ys: ckpt.ys.clone(),
        enc_idx: ckpt.enc_idx,
        dec_idx: ckpt.dec_idx,
    };
    advance_phases(
        cfg,
        plan,
        &w,
        &engine,
        &mut cursor,
        ckpt.completed_phases..plan.phases.len(),
        steps,
    )?;
    functional_epilogue(plan, &w, &engine, cursor, &mut counters, steps)
}

/// The chunk plan a functional stream session executes on `arch`: its
/// `chunk` new rows over `left_context` cached rows lowered as a stream
/// chunk ([`ExecPlan::lower_stream_chunk`]), the same `CTX` and encoder
/// phases the stream pool, the runtime and the walker lower. A window the
/// bitstream cannot hold is refused typed ([`AccelError::InvalidStream`])
/// before any chunk runs.
pub fn chunk_plan(state: &StreamState, cfg: &AccelConfig, arch: Architecture) -> Result<ExecPlan> {
    ExecPlan::lower_stream_chunk(cfg, arch, state.chunk, state.left_context, &[])
}

/// One chunk through the checked schemes. A plan that is not the
/// session's chunk plan — `CTX`, then one stream layer per encoder layer,
/// at the session's geometry — is refused typed before any compute; then
/// [`StreamState::step`] admits the chunk against the carryover state (CRC,
/// shape, cursors) and runs only its rows through exactly the plan's
/// encoder phases, each layer attending over its cached context keys and
/// values then the rows' own ([`encoder_layer_via_schemes`]), and rolls
/// the state forward. A chunk with no context is bit-identical to an
/// offline encode of its rows.
pub fn push_functional_chunk(
    cfg: &AccelConfig,
    plan: &ExecPlan,
    w: &ModelWeights,
    engine: &CheckedPsa,
    state: &StreamState,
    chunk: &Matrix,
) -> Result<(Matrix, StreamState)> {
    let ctx = PhaseKind::StreamContext { rows: state.left_context };
    let layer =
        PhaseKind::StreamLayer { rows: state.chunk, keys: state.chunk + state.left_context };
    if let Some((_, p)) =
        plan.phases.iter().enumerate().find(|(i, p)| p.kind != if *i == 0 { ctx } else { layer })
    {
        return Err(AccelError::Config(format!(
            "a stream chunk runs its CTX load then chunk encoder phases only, lowered for {} \
             new + {} context rows, but the plan's phase {} is {:?}",
            state.chunk, state.left_context, p.label, p.kind
        )));
    }
    if plan.phases.len() != 1 + w.encoders.len() {
        return Err(AccelError::ModelMismatch(format!(
            "chunk plan schedules {} phases but the model needs CTX + {} encoder layers",
            plan.phases.len(),
            w.encoders.len()
        )));
    }
    let layers = plan.phases[1..].iter().zip(&w.encoders);
    state.step(chunk, &cfg.model, layers, |(p, enc), x, context| {
        let (y, kv) = encoder_layer_via_schemes(cfg, engine, x, context, enc);
        guard_activations(&y, &format!("stream chunk {} {} output", state.chunk_idx, p.label))?;
        Ok((y, kv))
    })
}

/// A functional stream driven to the end of its features.
#[derive(Debug, Clone)]
pub struct FunctionalStreamRun {
    /// Encoder rows emitted by *this* run, in stream order — the full
    /// stream for a fresh run, the suffix past the cut for a resumed one.
    pub encoder_out: Matrix,
    /// First feature row this run emitted (0 for a fresh run).
    pub start_row: usize,
    /// Chunks pushed by this run.
    pub chunks: usize,
    /// Corruption accounting (model load + every chunk's ABFT traffic).
    pub counters: CorruptionCounters,
    /// ABFT statistics across the run's chunks.
    pub abft: AbftStats,
    /// Carryover state after the last chunk — what a failover would ship.
    pub final_state: StreamState,
}

/// Advance a stream over the features past `state.emitted_rows`, one chunk
/// plan execution at a time.
fn drive_functional_stream(
    cfg: &AccelConfig,
    plan: &ExecPlan,
    w: &ModelWeights,
    engine: &CheckedPsa,
    mut state: StreamState,
    features: &Matrix,
) -> Result<(Matrix, StreamState, usize)> {
    let s = features.rows();
    let start = state.emitted_rows;
    if start > s {
        return Err(AccelError::InvalidStream {
            reason: format!("stream already emitted {} of {} feature rows", start, s),
        });
    }
    let mut out = Matrix::zeros(s - start, features.cols());
    let mut chunks = 0usize;
    let mut row = start;
    while row < s {
        let end = (row + state.chunk).min(s);
        let chunk = features.submatrix(row, 0, end - row, features.cols());
        let (emit, next) = push_functional_chunk(cfg, plan, w, engine, &state, &chunk)?;
        out.set_submatrix(row - start, 0, &emit);
        state = next;
        chunks += 1;
        row = end;
    }
    Ok((out, state, chunks))
}

/// Fold the engine's ABFT statistics into the counters under `level`: every
/// corrupted tile escapes at `Off`, fails the run typed at `Detect`
/// (nothing can repair it), and counts as recomputed at
/// `DetectAndRecompute`.
fn fold_abft(
    level: IntegrityLevel,
    engine: &CheckedPsa,
    counters: &mut CorruptionCounters,
    phase: &str,
) -> Result<AbftStats> {
    let abft = engine.stats();
    counters.injected += abft.corrupted_tiles;
    match level {
        IntegrityLevel::Off => counters.escaped += abft.corrupted_tiles,
        IntegrityLevel::Detect => {
            counters.detected += abft.detected;
            if abft.detected > 0 {
                return Err(AccelError::CorruptCompute {
                    phase: phase.into(),
                    tiles: abft.detected,
                });
            }
        }
        IntegrityLevel::DetectAndRecompute => {
            counters.detected += abft.detected;
            counters.recomputed += abft.recomputed;
        }
    }
    Ok(abft)
}

/// The functional streaming pipeline: load the model once through the CRC
/// envelope, lower the session's per-chunk plan, and push the features
/// through chunk by chunk. Deterministic in `(cfg, model_seed, features,
/// chunk, left_context, faults)`; a run whose chunk spans the whole input
/// is bit-identical to the offline batch encoder.
pub fn run_functional_stream(
    cfg: &AccelConfig,
    model_seed: u64,
    features: &Matrix,
    chunk: usize,
    left_context: usize,
    faults: &FunctionalFaults,
) -> Result<FunctionalStreamRun> {
    let state = StreamState::open(&StreamingConfig { chunk, left_context })?;
    resume_functional_stream(cfg, model_seed, &state, features, faults)
}

/// The failover path: verify the shipped carryover state's CRC (stale
/// state is rejected typed — never silently reused), reload the model from
/// seed through the same deterministic CRC envelope, and replay **only the
/// rows past the cut**. The emitted suffix is bit-identical to the
/// uninterrupted stream's same rows: the carried per-layer keys and values
/// plus the deterministic reload are everything the encode depends on. A
/// carryover not shaped for the model (captured under another one, say)
/// is refused typed ([`AccelError::CheckpointRejected`]).
pub fn resume_functional_stream(
    cfg: &AccelConfig,
    model_seed: u64,
    state: &StreamState,
    features: &Matrix,
    faults: &FunctionalFaults,
) -> Result<FunctionalStreamRun> {
    state.verify()?;
    // A3, the streaming deployment's architecture. A chunk's phase table is
    // the same under every architecture; the architecture only sets load
    // edges, which the twin does not time.
    let plan = chunk_plan(state, cfg, Architecture::A3)?;
    let mut counters = CorruptionCounters::default();
    let clean = ModelWeights::seeded(&cfg.model, model_seed);
    let w =
        load_model_with_faults_encoded(&clean, cfg.encoding, faults, cfg.integrity, &mut counters)?;
    let engine = CheckedPsa::with_fault(cfg.psa_engine(), cfg.integrity, faults.lane);
    let start_row = state.emitted_rows;
    let (encoder_out, final_state, chunks) =
        drive_functional_stream(cfg, &plan, &w, &engine, state.clone(), features)?;
    let abft = fold_abft(cfg.integrity, &engine, &mut counters, "stream")?;
    Ok(FunctionalStreamRun { encoder_out, start_row, chunks, counters, abft, final_state })
}

// ---------------------------------------------------------------------------
// Plan-lowered autoregressive decode (DESIGN.md §15)
// ---------------------------------------------------------------------------

/// What [`run_functional_decode`] produced: the decoded hypotheses plus the
/// corruption/ABFT accounting and the load-byte ledger its plan-lowered
/// steps accumulated.
#[derive(Debug, Clone)]
pub struct FunctionalDecodeRun {
    /// Best hypothesis token ids, including `<sos>` (and `<eos>` when the
    /// beam finished before `max_steps`).
    pub tokens: Vec<TokenId>,
    /// Every surviving hypothesis, best-first (length = beam width).
    pub hypotheses: Vec<Hypothesis>,
    /// Decode steps executed — one lowered [`ExecPlan`] each.
    pub steps: usize,
    /// Corruption accounting (model load + the ABFT fold).
    pub counters: CorruptionCounters,
    /// ABFT statistics over every checked matmul in the session.
    pub abft: AbftStats,
    /// Scheduled load bytes of the cold (step-0) plan.
    pub cold_load_bytes: u64,
    /// Scheduled load bytes of the last steady-state plan (0 when the
    /// session decoded a single step).
    pub steady_load_bytes: u64,
    /// HBM bytes actually fetched across all steps.
    pub fetched_load_bytes: u64,
    /// HBM bytes the KV-cache residency elided across all steps.
    pub elided_load_bytes: u64,
    /// Folded resident-reuse accounting across all steps.
    pub reuse: PlanReuse,
}

impl FunctionalDecodeRun {
    /// Fraction of the session's scheduled load bytes that never moved.
    pub fn elided_fraction(&self) -> f64 {
        let total = self.fetched_load_bytes + self.elided_load_bytes;
        if total == 0 {
            0.0
        } else {
            self.elided_load_bytes as f64 / total as f64
        }
    }
}

/// The plan-lowered functional decode twin: load the model through the CRC
/// envelope, encode a seeded `mem_len`-row feature block, then run the
/// KV-cached beam search ([`beam_search_cached_with`]) on the checked
/// engine. Its per-step hook lowers EVERY step's [`DecodeStepSpec`] plan
/// against the previous step's pinned stripes
/// ([`ExecPlan::decode_pinned_stripes`]) — recording exactly which bytes
/// the accelerator would fetch versus elide — and guards the step's logits.
///
/// At `beam = 1` the continuation choice ties-to-last like
/// [`asr_transformer::cache::greedy_decode_with`]'s argmax, so the twin's
/// tokens are bit-identical to the cached greedy path — including under silent faults
/// at `DetectAndRecompute`, where the CRC envelope and the ABFT recompute
/// restore the clean bits before they reach the beam. Pinned by tests and
/// `decode_proptests`.
pub fn run_functional_decode(
    cfg: &AccelConfig,
    model_seed: u64,
    input_seed: u64,
    mem_len: usize,
    max_steps: usize,
    beam: usize,
    faults: &FunctionalFaults,
) -> Result<FunctionalDecodeRun> {
    cfg.validate()?;
    if mem_len == 0 || max_steps == 0 || beam == 0 {
        return Err(AccelError::Config(format!(
            "degenerate decode session: mem_len {} max_steps {} beam {}",
            mem_len, max_steps, beam
        )));
    }
    let mut counters = CorruptionCounters::default();
    let clean = ModelWeights::seeded(&cfg.model, model_seed);
    let w =
        load_model_with_faults_encoded(&clean, cfg.encoding, faults, cfg.integrity, &mut counters)?;
    let engine = CheckedPsa::with_fault(cfg.psa_engine(), cfg.integrity, faults.lane);
    let model = Model { config: cfg.model, weights: w };
    let features = init::uniform(mem_len, cfg.model.d_model, -0.5, 0.5, input_seed);
    let memory = model.encode(&features, &engine);
    guard_activations(&memory, "decode encoder memory")?;

    let mut resident: Vec<ResidentStripe> = Vec::new();
    let mut reuse = PlanReuse::default();
    let (mut cold, mut steady, mut fetched, mut elided) = (0u64, 0u64, 0u64, 0u64);
    let mut steps = 0usize;
    let beam_cfg = BeamConfig { beam, max_len: max_steps, length_penalty: 0.0 };
    let hypotheses =
        beam_search_cached_with(&model, &memory, &beam_cfg, &engine, |step, logits| {
            // Lower this step's plan against whatever the previous step left
            // pinned; the ledger records what the accelerator would move.
            let spec = DecodeStepSpec { step, mem_len, beam, max_steps };
            let plan =
                ExecPlan::lower_decode_step(cfg, Architecture::A2, spec, &resident, cfg.integrity)?;
            fetched += plan.fetched_load_bytes();
            if let Some(r) = plan.reuse {
                elided += r.elided_load_bytes;
                reuse.offered += r.offered;
                reuse.elided_loads += r.elided_loads;
                reuse.elided_load_bytes += r.elided_load_bytes;
                reuse.stale += r.stale;
                reuse.stale_version += r.stale_version;
            }
            if step == 0 {
                cold = plan.scheduled_load_bytes();
            } else {
                steady = plan.scheduled_load_bytes();
            }
            resident = plan.decode_pinned_stripes();
            steps += 1;
            guard_activations(logits, "decode logits")
        })?;

    let abft = fold_abft(cfg.integrity, &engine, &mut counters, "decode")?;
    let tokens = hypotheses[0].tokens.clone();
    Ok(FunctionalDecodeRun {
        tokens,
        hypotheses,
        steps,
        counters,
        abft,
        cold_load_bytes: cold,
        steady_load_bytes: steady,
        fetched_load_bytes: fetched,
        elided_load_bytes: elided,
        reuse,
    })
}

/// A small-but-complete accelerator configuration for the functional
/// integrity path: the tiny transformer (2 encoders, 1 decoder,
/// `d_model = 32`, 4 heads) on a pool of eight 2×16 PSAs. Small enough
/// that the full forward pass runs in test time; wide enough that every
/// MM scheme's decomposition (stripes, pool splits, SLR halves) is
/// non-degenerate.
pub fn small_config() -> AccelConfig {
    use asr_systolic::psa::PsaConfig;
    let mut cfg = AccelConfig::paper_default();
    cfg.model = asr_transformer::TransformerConfig::tiny();
    cfg.psa = PsaConfig { rows: 2, cols: 16, ii: 12, fill: 8 };
    cfg.parallel_heads = 4;
    cfg.max_seq_len = 8;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_transformer::cache::{self, KvCache};

    fn cfg_at(level: IntegrityLevel) -> AccelConfig {
        let mut c = small_config();
        c.integrity = level;
        c
    }

    /// One utterance of `input_len` rows, lowered at A2 (the interpreter's
    /// granularity) and the config's integrity level.
    fn solo_plan(cfg: &AccelConfig, input_len: usize) -> ExecPlan {
        ExecPlan::lower(cfg, Architecture::A2, input_len, 1, cfg.integrity).unwrap()
    }

    #[test]
    fn small_config_is_valid() {
        small_config().validate().unwrap();
    }

    #[test]
    fn guard_passes_normal_activations_and_fails_nan_inf_magnitude() {
        let ok = Matrix::from_vec(1, 3, vec![0.5, -1.0, 3.0]);
        guard_activations(&ok, "x").unwrap();
        for bad in [f32::NAN, f32::INFINITY, -f32::INFINITY, 2e6] {
            let m = Matrix::from_vec(1, 2, vec![1.0, bad]);
            let err = guard_activations(&m, "encoder 1 output").unwrap_err();
            match err {
                AccelError::CorruptActivations { boundary, .. } => {
                    assert_eq!(boundary, "encoder 1 output")
                }
                other => panic!("expected CorruptActivations, got {}", other),
            }
        }
    }

    #[test]
    fn clean_load_is_bit_identical_and_counts_nothing() {
        let w = ModelWeights::seeded(&asr_transformer::TransformerConfig::tiny(), 3);
        let mut c = CorruptionCounters::default();
        let loaded = load_model_with_faults(
            &w,
            &FunctionalFaults::none(),
            IntegrityLevel::DetectAndRecompute,
            &mut c,
        )
        .unwrap();
        assert_eq!(loaded, w);
        assert_eq!(c, CorruptionCounters::default());
    }

    #[test]
    fn corrupted_fetch_is_detected_and_refetched_clean() {
        let w = ModelWeights::seeded(&asr_transformer::TransformerConfig::tiny(), 3);
        let faults = FunctionalFaults {
            stripes: vec![StripeCorruption {
                stripe: 5,
                word: 17,
                byte_in_word: 2,
                xor: 0x20,
                failing_fetches: 2,
            }],
            lane: None,
        };
        let mut c = CorruptionCounters::default();
        let loaded = load_model_with_faults(&w, &faults, IntegrityLevel::Detect, &mut c).unwrap();
        assert_eq!(loaded, w, "refetched model must be bit-identical to clean");
        assert_eq!(c.injected, 2);
        assert_eq!(c.detected, 2);
        assert_eq!(c.refetched, 2);
        assert_eq!(c.escaped, 0);
    }

    #[test]
    fn sparse_encoded_runs_are_bit_identical_to_dense_under_faults() {
        // SparseTiles is lossless, so the whole functional pipeline — load
        // through the CRC envelope (with seeded transient corruption on the
        // *encoded* bytes), encode, decode, transcribe — must produce the
        // same bits as the dense wire format.
        let dense_cfg = cfg_at(IntegrityLevel::Detect);
        let mut sparse_cfg = dense_cfg.clone();
        sparse_cfg.encoding = WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 100 };
        let faults = FunctionalFaults {
            stripes: vec![StripeCorruption {
                stripe: 4,
                word: 9,
                byte_in_word: 1,
                xor: 0x08,
                failing_fetches: 1,
            }],
            lane: None,
        };
        let input = [11 ^ 0x5eed];
        let dense = run_functional_plan(&dense_cfg, &solo_plan(&dense_cfg, 6), 11, &input, &faults)
            .unwrap();
        let sparse =
            run_functional_plan(&sparse_cfg, &solo_plan(&sparse_cfg, 6), 11, &input, &faults)
                .unwrap();
        let (d, sp) = (&dense.utterances[0], &sparse.utterances[0]);
        assert_eq!(d.encoder_out, sp.encoder_out);
        assert_eq!(d.decoder_out, sp.decoder_out);
        assert_eq!(d.transcript, sp.transcript);
        assert_eq!(sparse.counters.injected, 1);
        assert_eq!(sparse.counters.refetched, 1);
    }

    #[test]
    fn int8_load_matches_the_shared_codec_under_faults() {
        // Detect scrubs the transient corruption, so the loaded model must
        // equal the clean encode→decode of every matrix — the same
        // quantize→dequantize the QuantizedBackend pins.
        let w = ModelWeights::seeded(&asr_transformer::TransformerConfig::tiny(), 3);
        let faults = FunctionalFaults {
            stripes: vec![StripeCorruption {
                stripe: 7,
                word: 2,
                byte_in_word: 0,
                xor: 0x11,
                failing_fetches: 2,
            }],
            lane: None,
        };
        let mut c = CorruptionCounters::default();
        let loaded = load_model_with_faults_encoded(
            &w,
            WeightEncoding::Int8,
            &faults,
            IntegrityLevel::Detect,
            &mut c,
        )
        .unwrap();
        assert_eq!(c.refetched, 2);
        for (orig, got) in w.matrices().into_iter().zip(loaded.matrices()) {
            let (enc, payload) = asr_tensor::encoding::encode(orig, WeightEncoding::Int8);
            let want =
                asr_tensor::encoding::decode(&enc, orig.rows(), orig.cols(), &payload).unwrap();
            assert_eq!(got, &want, "decode-at-load must match the shared codec");
        }
    }

    #[test]
    fn encoded_corruption_escapes_at_off_and_stays_decodable() {
        // With checks off a flipped encoded byte flows downstream: the
        // stripe still decodes structurally (lengths never change), the
        // values are garbage — a silent fault, same contract as dense.
        let w = ModelWeights::seeded(&asr_transformer::TransformerConfig::tiny(), 3);
        let faults = FunctionalFaults {
            stripes: vec![StripeCorruption {
                stripe: 0,
                word: 1,
                byte_in_word: 0,
                xor: 0x7f,
                failing_fetches: u32::MAX,
            }],
            lane: None,
        };
        for spec in [
            WeightEncoding::Int8,
            WeightEncoding::BlockCirculant { block: 4 },
            WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 100 },
        ] {
            let mut c = CorruptionCounters::default();
            let loaded =
                load_model_with_faults_encoded(&w, spec, &faults, IntegrityLevel::Off, &mut c)
                    .unwrap();
            assert_eq!(c.escaped, 1, "{:?}", spec);
            let (enc, payload) = asr_tensor::encoding::encode(w.matrices()[0], spec);
            let clean = asr_tensor::encoding::decode(
                &enc,
                loaded.matrices()[0].rows(),
                loaded.matrices()[0].cols(),
                &payload,
            )
            .unwrap();
            assert_ne!(loaded.matrices()[0], &clean, "corruption must land ({:?})", spec);
            assert!(loaded.matrices()[0].as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn corruption_escapes_at_off_and_changes_the_weights() {
        let w = ModelWeights::seeded(&asr_transformer::TransformerConfig::tiny(), 3);
        let faults = FunctionalFaults {
            stripes: vec![StripeCorruption {
                stripe: 0,
                word: 3,
                byte_in_word: 0,
                xor: 0x01,
                failing_fetches: u32::MAX,
            }],
            lane: None,
        };
        let mut c = CorruptionCounters::default();
        let loaded = load_model_with_faults(&w, &faults, IntegrityLevel::Off, &mut c).unwrap();
        assert_ne!(loaded, w, "Off must let the corruption through");
        assert_eq!(c.escaped, 1);
        assert_eq!(c.detected, 0);
        // every corrupted weight is still finite (mantissa-only corruption)
        assert!(loaded.matrices().iter().all(|m| m.as_slice().iter().all(|v| v.is_finite())));
    }

    #[test]
    fn persistent_corruption_exhausts_fetches_with_a_typed_error() {
        let w = ModelWeights::seeded(&asr_transformer::TransformerConfig::tiny(), 3);
        let faults = FunctionalFaults {
            stripes: vec![StripeCorruption {
                stripe: 2,
                word: 0,
                byte_in_word: 1,
                xor: 0xff,
                failing_fetches: u32::MAX,
            }],
            lane: None,
        };
        let mut c = CorruptionCounters::default();
        let err = load_model_with_faults(&w, &faults, IntegrityLevel::Detect, &mut c).unwrap_err();
        match err {
            AccelError::CorruptWeights { label, attempts, .. } => {
                assert_eq!(label, "W2");
                assert_eq!(attempts, MAX_ATTEMPTS);
            }
            other => panic!("expected CorruptWeights, got {}", other),
        }
    }

    #[test]
    fn seeded_projection_draws_all_three_silent_classes() {
        let profile = asr_fpga_sim::faults::FaultProfile::silent_only();
        let plan = FaultPlan::seeded_with(7, &profile);
        let f = FunctionalFaults::from_plan(&plan, 133, 16);
        assert_eq!(f.stripes.len(), 2, "bit flip + DMA corruption");
        assert!(f.lane.is_some());
        assert!(f.stripes.iter().all(|c| c.xor != 0 && c.byte_in_word <= 2));
    }

    #[test]
    fn zero_fault_runs_are_bit_identical_across_all_levels() {
        // Satellite (c): Detect and DetectAndRecompute under an empty fault
        // plan are bit-identical to Off — the checks are pure observers.
        let input = [11 ^ 0x5eed];
        let none = FunctionalFaults::none();
        let off = cfg_at(IntegrityLevel::Off);
        let base = run_functional_plan(&off, &solo_plan(&off, 4), 11, &input, &none).unwrap();
        for level in [IntegrityLevel::Detect, IntegrityLevel::DetectAndRecompute] {
            let cfg = cfg_at(level);
            let run = run_functional_plan(&cfg, &solo_plan(&cfg, 4), 11, &input, &none).unwrap();
            let (u, b) = (&run.utterances[0], &base.utterances[0]);
            assert_eq!(u.encoder_out, b.encoder_out, "{:?}", level);
            assert_eq!(u.decoder_out, b.decoder_out, "{:?}", level);
            assert_eq!(run.counters, CorruptionCounters::default(), "{:?}", level);
            assert!(run.abft.checked_tiles > 0, "{:?} must actually check", level);
        }
        assert_eq!(base.counters, CorruptionCounters::default());
    }

    #[test]
    fn acceptance_detect_recompute_is_bit_identical_while_off_diverges() {
        // The PR's acceptance criterion, end to end: a seeded plan with all
        // three silent-fault classes; DetectAndRecompute restores the
        // zero-fault bits with nothing escaped, Off silently diverges.
        let input = [11 ^ 0x5eed];
        let off = cfg_at(IntegrityLevel::Off);
        let off_plan = solo_plan(&off, 4);
        let clean =
            run_functional_plan(&off, &off_plan, 11, &input, &FunctionalFaults::none()).unwrap();
        let clean = &clean.utterances[0];
        let seed = 7u64;
        let n_stripes = ModelWeights::seeded(&small_config().model, 11).matrices().len();
        let faults = FunctionalFaults::seeded(seed, n_stripes, small_config().psa.cols);
        assert!(!faults.is_empty(), "seed must draw silent faults");

        let full = cfg_at(IntegrityLevel::DetectAndRecompute);
        let protected =
            run_functional_plan(&full, &solo_plan(&full, 4), 11, &input, &faults).unwrap();
        let repaired = &protected.utterances[0];
        assert_eq!(repaired.encoder_out, clean.encoder_out, "encoder bits must match");
        assert_eq!(repaired.decoder_out, clean.decoder_out, "decoder bits must match");
        assert!(protected.counters.any_injected());
        assert_eq!(protected.counters.escaped, 0, "nothing may escape at DetectAndRecompute");
        assert_eq!(
            protected.counters.detected,
            protected.counters.refetched + protected.counters.recomputed,
            "every detection is answered by a refetch or a recompute"
        );

        let unprotected = run_functional_plan(&off, &off_plan, 11, &input, &faults).unwrap();
        assert!(unprotected.counters.escaped > 0);
        let diverged = &unprotected.utterances[0];
        assert!(
            diverged.encoder_out != clean.encoder_out || diverged.decoder_out != clean.decoder_out,
            "Off must demonstrably diverge"
        );
    }

    #[test]
    fn functional_resume_is_bit_identical_to_a_straight_run() {
        let cfg = cfg_at(IntegrityLevel::DetectAndRecompute);
        let n_stripes = ModelWeights::seeded(&cfg.model, 11).matrices().len();
        let faults = FunctionalFaults::seeded(7, n_stripes, cfg.psa.cols);
        let seeds = [21u64, 22u64];
        let plan = ExecPlan::lower(&cfg, Architecture::A2, 4, seeds.len(), cfg.integrity).unwrap();
        let straight = run_functional_plan(&cfg, &plan, 11, &seeds, &faults).unwrap();

        // Cut mid-plan (after the encoders), resume, compare every bit.
        let cut = plan.phases.iter().filter(|p| p.kind == PhaseKind::Encoder).count();
        let ckpt = functional_checkpoint_at(&cfg, &plan, 11, &seeds, &faults, cut).unwrap();
        let resumed = resume_functional_plan(&cfg, &plan, &ckpt, &seeds, &faults).unwrap();
        assert_eq!(resumed.utterances.len(), straight.utterances.len());
        for (r, s) in resumed.utterances.iter().zip(&straight.utterances) {
            assert_eq!(r.encoder_out, s.encoder_out);
            assert_eq!(r.decoder_out, s.decoder_out);
            assert_eq!(r.transcript, s.transcript);
        }
    }

    #[test]
    fn poisoned_functional_checkpoint_is_rejected_then_restarts_clean() {
        let cfg = cfg_at(IntegrityLevel::Detect);
        let seeds = [5u64];
        let plan = ExecPlan::lower(&cfg, Architecture::A2, 4, 1, cfg.integrity).unwrap();
        let mut ckpt =
            functional_checkpoint_at(&cfg, &plan, 9, &seeds, &FunctionalFaults::none(), 1).unwrap();
        ckpt.xs[0].as_mut_slice()[0] += 1.0;
        let err = resume_functional_plan(&cfg, &plan, &ckpt, &seeds, &FunctionalFaults::none())
            .unwrap_err();
        match err {
            AccelError::CheckpointRejected { reason } => assert!(reason.contains("stale CRC")),
            other => panic!("expected CheckpointRejected, got {}", other),
        }
        // The clean full restart path stays open.
        run_functional_plan(&cfg, &plan, 9, &seeds, &FunctionalFaults::none()).unwrap();
    }

    /// A batch-1 A2 checkpoint cut after the first phase, rewritten by
    /// `edit` and re-sealed with the CRC of what it now holds, so only the
    /// resume's own checks stand between it and the interpreter.
    fn resume_rewritten(edit: impl FnOnce(&mut FunctionalCheckpoint)) -> Result<BatchIntegrityRun> {
        let cfg = cfg_at(IntegrityLevel::Detect);
        let seeds = [5u64];
        let plan = ExecPlan::lower(&cfg, Architecture::A2, 4, 1, cfg.integrity).unwrap();
        let none = FunctionalFaults::none();
        let mut ckpt = functional_checkpoint_at(&cfg, &plan, 9, &seeds, &none, 1).unwrap();
        edit(&mut ckpt);
        let c = &ckpt;
        ckpt.state_crc =
            FunctionalCheckpoint::crc_of(&c.xs, &c.ys, c.completed_phases, c.enc_idx, c.dec_idx);
        resume_functional_plan(&cfg, &plan, &ckpt, &seeds, &none)
    }

    #[test]
    fn a_resealed_checkpoint_with_a_foreign_cursor_is_refused_typed() {
        let err = resume_rewritten(|c| c.enc_idx = 99).unwrap_err();
        assert!(matches!(err, AccelError::CheckpointRejected { .. }), "{}", err);
        assert!(err.to_string().contains("cursors at encoder 99"), "{}", err);
    }

    #[test]
    fn a_resealed_checkpoint_with_narrow_activations_is_refused_typed() {
        let err = resume_rewritten(|c| c.xs[0] = Matrix::zeros(3, 5)).unwrap_err();
        assert!(matches!(err, AccelError::CheckpointRejected { .. }), "{}", err);
        assert!(err.to_string().contains("encoder activations of 3 x 5"), "{}", err);
    }

    #[test]
    fn run_functional_plan_rejects_resumed_suffix_plans() {
        let cfg = cfg_at(IntegrityLevel::Detect);
        let full = ExecPlan::lower(&cfg, Architecture::A2, 4, 1, cfg.integrity).unwrap();
        let ckpt = crate::plan::PlanCheckpoint::at(&full, 1, 1, &[], 0.0);
        let suffix = ExecPlan::resume(&cfg, &ckpt).unwrap();
        let err =
            run_functional_plan(&cfg, &suffix, 9, &[5], &FunctionalFaults::none()).unwrap_err();
        assert!(matches!(err, AccelError::Config(_)), "{}", err);
        assert!(err.to_string().contains("resume_functional_plan"));
    }

    #[test]
    fn detect_without_recompute_fails_typed_on_compute_corruption() {
        let faults =
            FunctionalFaults { stripes: vec![], lane: Some(LaneFault { lane: 3, delta: 1.5 }) };
        let input = [11 ^ 0x5eed];
        let detect = cfg_at(IntegrityLevel::Detect);
        let err =
            run_functional_plan(&detect, &solo_plan(&detect, 4), 11, &input, &faults).unwrap_err();
        assert!(matches!(err, AccelError::CorruptCompute { .. }), "{}", err);
        // ...while recompute survives the same fault bit-identically.
        let off = cfg_at(IntegrityLevel::Off);
        let clean =
            run_functional_plan(&off, &solo_plan(&off, 4), 11, &input, &FunctionalFaults::none())
                .unwrap();
        let full = cfg_at(IntegrityLevel::DetectAndRecompute);
        let repaired =
            run_functional_plan(&full, &solo_plan(&full, 4), 11, &input, &faults).unwrap();
        assert_eq!(repaired.utterances[0].decoder_out, clean.utterances[0].decoder_out);
        assert!(repaired.abft.recomputed > 0);
    }

    fn stream_features(seed: u64, rows: usize) -> Matrix {
        let cfg = small_config();
        init::uniform(rows, cfg.model.d_model, -0.5, 0.5, seed)
    }

    #[test]
    fn full_window_stream_matches_the_offline_batch_encoder_bit_for_bit() {
        // A chunk that spans the whole input encodes one window == the
        // offline batch; the stream must reproduce its bits exactly.
        let cfg = cfg_at(IntegrityLevel::Off);
        let features = stream_features(7 ^ 0x5eed, 8);
        let stream =
            run_functional_stream(&cfg, 7, &features, 8, 0, &FunctionalFaults::none()).unwrap();
        let offline = run_functional_plan(
            &cfg,
            &solo_plan(&cfg, 8),
            7,
            &[7 ^ 0x5eed],
            &FunctionalFaults::none(),
        )
        .unwrap();
        assert_eq!(stream.chunks, 1);
        assert_eq!(stream.encoder_out, offline.utterances[0].encoder_out);
    }

    #[test]
    fn resumed_stream_suffix_is_bit_identical_even_under_silent_faults() {
        // The failover contract: ship the CRC'd carryover state, replay the
        // remaining rows, get the uninterrupted stream's bits — with a
        // corrupted stripe fetch *and* a sticky PSA lane in play.
        let cfg = cfg_at(IntegrityLevel::DetectAndRecompute);
        let faults = FunctionalFaults {
            stripes: vec![StripeCorruption {
                stripe: 2,
                word: 3,
                byte_in_word: 1,
                xor: 0x40,
                failing_fetches: 1,
            }],
            lane: Some(LaneFault { lane: 1, delta: 0.75 }),
        };
        let features = stream_features(21, 8);
        let full = run_functional_stream(&cfg, 4, &features, 2, 3, &faults).unwrap();
        assert_eq!(full.chunks, 4);

        // Run the first two chunks only, as the dying device would have.
        let prefix = features.submatrix(0, 0, 4, features.cols());
        let cut = run_functional_stream(&cfg, 4, &prefix, 2, 3, &faults).unwrap();
        assert_eq!(cut.final_state.emitted_rows, 4);

        let resumed =
            resume_functional_stream(&cfg, 4, &cut.final_state, &features, &faults).unwrap();
        assert_eq!(resumed.start_row, 4);
        assert_eq!(resumed.chunks, 2, "only the unfinished rows replay");
        let suffix = full.encoder_out.submatrix(4, 0, 4, full.encoder_out.cols());
        assert_eq!(resumed.encoder_out, suffix);
        assert_eq!(resumed.final_state.crc, full.final_state.crc);
    }

    #[test]
    fn poisoned_stream_state_is_rejected_typed() {
        let cfg = cfg_at(IntegrityLevel::Off);
        let features = stream_features(3, 6);
        let run =
            run_functional_stream(&cfg, 5, &features, 2, 2, &FunctionalFaults::none()).unwrap();
        let mut state = run.final_state;
        state.emitted_rows -= 1; // a stale cursor must never silently resume
        let err = resume_functional_stream(&cfg, 5, &state, &features, &FunctionalFaults::none())
            .unwrap_err();
        assert!(matches!(err, AccelError::CheckpointRejected { .. }), "{}", err);
    }

    #[test]
    fn a_stream_state_whose_cursors_cannot_advance_is_rejected_typed() {
        // A chunk cursor at the top of `usize`, re-sealed with the CRC the
        // state's own check computes: refused before any compute.
        let cfg = cfg_at(IntegrityLevel::Off);
        let none = FunctionalFaults::none();
        let features = stream_features(3, 6);
        let prefix = features.submatrix(0, 0, 2, features.cols());
        let mut state = run_functional_stream(&cfg, 5, &prefix, 2, 2, &none).unwrap().final_state;
        state.chunk_idx = usize::MAX;
        if let Err(asr_transformer::streaming::StreamingError::StateCrc { computed, .. }) =
            state.verify()
        {
            state.crc = computed;
        }
        let err = resume_functional_stream(&cfg, 5, &state, &features, &none).unwrap_err();
        match err {
            AccelError::CheckpointRejected { reason } => {
                assert!(reason.contains("cursors cannot advance"), "{}", reason)
            }
            other => panic!("expected CheckpointRejected, got {}", other),
        }
    }

    #[test]
    fn the_twin_streams_what_the_transformer_streams() {
        // Both twins run each chunk's rows through layers that attend over
        // the carried keys and values: the scheme decomposition only
        // reorders the sums.
        let cfg = cfg_at(IntegrityLevel::Off);
        let features = stream_features(9, 8);
        let none = FunctionalFaults::none();
        let twin = run_functional_stream(&cfg, 5, &features, 2, 3, &none).unwrap();
        let model = Model { config: cfg.model, weights: ModelWeights::seeded(&cfg.model, 5) };
        let stream = StreamingConfig { chunk: 2, left_context: 3 };
        let reference = asr_transformer::streaming::encode_streaming(
            &model,
            &features,
            &stream,
            &asr_tensor::backend::ReferenceBackend,
        )
        .unwrap();
        let d = asr_tensor::max_abs_diff(&twin.encoder_out, &reference);
        assert!(d < 1e-4, "the twin's stream diverges by {}", d);
    }

    #[test]
    fn a_carryover_from_another_model_is_rejected_typed() {
        // A CRC-valid state captured under another model — a deeper stack,
        // a wider d_model — resumed on this one: refused like a poisoned
        // state, never a panic mid-chunk.
        let cfg = cfg_at(IntegrityLevel::Off);
        let none = FunctionalFaults::none();
        let features = stream_features(3, 6);
        for other in [
            asr_transformer::TransformerConfig { n_encoders: 3, ..cfg.model },
            asr_transformer::TransformerConfig { d_model: 64, ..cfg.model },
        ] {
            let mut other_cfg = cfg.clone();
            other_cfg.model = other;
            let prefix = init::uniform(2, other.d_model, -0.5, 0.5, 3);
            let state =
                run_functional_stream(&other_cfg, 5, &prefix, 2, 2, &none).unwrap().final_state;
            let err = resume_functional_stream(&cfg, 5, &state, &features, &none).unwrap_err();
            match err {
                AccelError::CheckpointRejected { reason } => {
                    assert!(reason.contains("not shaped for the model"), "{}", reason)
                }
                other => panic!("expected CheckpointRejected, got {}", other),
            }
        }
    }

    #[test]
    fn degenerate_stream_sessions_are_rejected_typed_at_open() {
        let cfg = cfg_at(IntegrityLevel::Off);
        let features = stream_features(3, 6);
        let err =
            run_functional_stream(&cfg, 5, &features, 0, 2, &FunctionalFaults::none()).unwrap_err();
        assert!(matches!(err, AccelError::InvalidStream { .. }), "{}", err);
        // Window past the built sequence length: typed at open, not a
        // lowering error three chunks in.
        let err = run_functional_stream(&cfg, 5, &features, 4, 16, &FunctionalFaults::none())
            .unwrap_err();
        match err {
            AccelError::InvalidStream { reason } => assert!(reason.contains("attention window")),
            other => panic!("expected InvalidStream, got {}", other),
        }
    }

    // -- plan-lowered decode twin ------------------------------------------

    /// The eager reference the twin must match bit-for-bit: same seeded
    /// model, same checked engine, `greedy_decode_with` on a fresh cache.
    fn reference_greedy(cfg: &AccelConfig, model_seed: u64, input_seed: u64) -> Vec<TokenId> {
        let w = ModelWeights::seeded(&cfg.model, model_seed);
        let model = Model { config: cfg.model, weights: w };
        let engine = CheckedPsa::with_fault(cfg.psa_engine(), cfg.integrity, None);
        let features = init::uniform(6, cfg.model.d_model, -0.5, 0.5, input_seed);
        let memory = model.encode(&features, &engine);
        let mut kv = KvCache::new(&model, &memory, &engine);
        cache::greedy_decode_with(&model, &mut kv, 8, &engine)
    }

    #[test]
    fn decode_twin_beam_one_is_bit_identical_to_cached_greedy() {
        let cfg = cfg_at(IntegrityLevel::DetectAndRecompute);
        let run = run_functional_decode(&cfg, 7, 11, 6, 8, 1, &FunctionalFaults::none()).unwrap();
        assert_eq!(run.tokens, reference_greedy(&cfg, 7, 11));
        assert_eq!(run.counters, CorruptionCounters::default());
        assert!(run.steps >= 1 && run.steps <= 8);
    }

    #[test]
    fn faulted_decode_recovers_to_the_clean_transcript() {
        // Seeded silent faults at DetectAndRecompute: the CRC envelope and
        // the ABFT recompute must hand the beam exactly the clean bits.
        let cfg = cfg_at(IntegrityLevel::DetectAndRecompute);
        let n_stripes = ModelWeights::seeded(&cfg.model, 7).matrices().len();
        for seed in [1u64, 2, 3] {
            let faults = FunctionalFaults::seeded(seed, n_stripes, cfg.psa.cols);
            let run = run_functional_decode(&cfg, 7, 11, 6, 8, 1, &faults).unwrap();
            assert_eq!(run.tokens, reference_greedy(&cfg, 7, 11), "fault seed {}", seed);
            assert_eq!(run.counters.escaped, 0, "fault seed {}", seed);
        }
    }

    #[test]
    fn decode_twin_elides_the_majority_of_load_bytes_and_balances() {
        let cfg = cfg_at(IntegrityLevel::DetectAndRecompute);
        let run = run_functional_decode(&cfg, 7, 11, 6, 8, 2, &FunctionalFaults::none()).unwrap();
        if run.steps > 1 {
            assert!(
                run.elided_fraction() > 0.5,
                "steady steps must elide most bytes, got {}",
                run.elided_fraction()
            );
            assert!(run.steady_load_bytes <= run.cold_load_bytes);
        }
        assert_eq!(run.reuse.offered, run.reuse.elided_loads + run.reuse.stale);
        assert_eq!(
            run.fetched_load_bytes + run.elided_load_bytes,
            run.cold_load_bytes + run.steady_load_bytes * (run.steps as u64 - 1)
        );
    }

    #[test]
    fn decode_twin_returns_beam_many_sorted_hypotheses() {
        let cfg = cfg_at(IntegrityLevel::Off);
        let run = run_functional_decode(&cfg, 7, 11, 6, 6, 3, &FunctionalFaults::none()).unwrap();
        assert_eq!(run.hypotheses.len(), 3);
        for w in run.hypotheses.windows(2) {
            assert!(w[0].score(0.0) >= w[1].score(0.0));
        }
        assert_eq!(run.tokens, run.hypotheses[0].tokens);
    }

    #[test]
    fn degenerate_decode_sessions_are_rejected_typed() {
        let cfg = cfg_at(IntegrityLevel::Off);
        for (mem, steps, beam) in [(0usize, 8usize, 1usize), (6, 0, 1), (6, 8, 0)] {
            let err =
                run_functional_decode(&cfg, 7, 11, mem, steps, beam, &FunctionalFaults::none())
                    .unwrap_err();
            assert!(matches!(err, AccelError::Config(_)), "{}", err);
        }
    }

    #[test]
    fn eager_plan_interpreter_rejects_decode_plans_typed() {
        let cfg = cfg_at(IntegrityLevel::Off);
        let plan = ExecPlan::lower_decode_step(
            &cfg,
            Architecture::A2,
            DecodeStepSpec::greedy(0, 6, 8),
            &[],
            cfg.integrity,
        )
        .unwrap();
        let err =
            run_functional_plan(&cfg, &plan, 7, &[11], &FunctionalFaults::none()).unwrap_err();
        match err {
            AccelError::Config(reason) => assert!(reason.contains("decode"), "{}", reason),
            other => panic!("expected Config, got {}", other),
        }
    }
}
