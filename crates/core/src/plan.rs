//! The lowered execution-plan IR: one program for solo, batch, and A1/A2/A3.
//!
//! Before this module the forward pass existed as six parallel bodies —
//! the analytic solo and batch simulators, the solo and batch runtime
//! paths and their fault-tolerant twins, and the batched functional run —
//! each re-deriving the A1/A2/A3 overlap structure by hand. The paper's own
//! framing (Figs 4.8–4.11, 4.13) says these are one program: the host lowers
//! the 18-layer schedule into an explicit stream of load/compute commands
//! whose *edges* encode the prefetch policy. One private emitter does
//! exactly that lowering, and every consumer walks the same [`ExecPlan`]:
//!
//! * the **analytic cost walker** ([`walk_cost`]) prices the DAG with the
//!   recurrence the per-architecture simulators used to hand-roll;
//! * the **runtime executor** (`host_runtime::run_plan_with_recovery`, and
//!   `host_runtime::run_plan`, which is it with nothing armed) replays the
//!   commands through the OpenCL-style [`asr_fpga_sim::runtime::Runtime`]
//!   with the full retry/degradation ladder;
//! * the **functional interpreter** (`integrity::run_functional_plan`)
//!   executes the plan's phases on real `f32` data through the CRC envelope
//!   and the ABFT-checked PSA.
//!
//! A caller lowers its plan with the constructor of its kind —
//! [`ExecPlan::lower`] or [`ExecPlan::lower_batch`] (the eager schedule),
//! [`ExecPlan::lower_stream_chunk`], [`ExecPlan::lower_decode_step`] or
//! [`ExecPlan::resume`] — and hands it to a consumer; no consumer lowers
//! one for it. Each constructor checks only its own kind, then hands its
//! batch and phase table to the emitter, so kinds cannot be combined.
//!
//! A1/A2/A3 are not three simulators here — they are three *edge policies*
//! applied during lowering:
//!
//! * **A1** — no overlap: every [`PlanCmd::LoadStripe`] gains a *serialize
//!   edge* on the previous phase's last compute (plus the double-buffer
//!   edge), so loads can never run under compute;
//! * **A2** — single prefetch engine: loads carry only the *double-buffer
//!   edge* (the compute two phases back frees the weight-buffer slot), so
//!   one engine task-pipelines `LW_{i+1}` under `C_i`;
//! * **A3** — two engines on disjoint HBM channel pairs, same double-buffer
//!   edges, decoders split into M-MHA/FFN half-phases whose loads are
//!   *paired* ([`PlanCmd::LoadStripe::paired_with_prev`], Fig 4.11) so both
//!   engines fill concurrently.
//!
//! Solo execution is exactly a batch of one: the lowering emits one
//! [`PlanCmd::Compute`] per utterance per phase, and a batch-of-one plan's
//! command stream is identical — labels, dependency sets, order — to the
//! historical solo stream, which the equivalence proptests pin span for
//! span and bit for bit.

use crate::arch::{layer_bytes, Architecture};
use crate::calib;
use crate::config::AccelConfig;
use crate::error::{AccelError, Result};
use crate::schedule::{decoder, encoder};
use asr_fpga_sim::Timeline;
use asr_systolic::abft::IntegrityLevel;
use asr_tensor::crc32::Crc32;
use asr_tensor::WeightEncoding;
use std::borrow::Cow;

/// Which compute recurrence a phase uses, so consumers (including degraded
/// configurations mid-recovery) can re-derive the phase cost on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// One full encoder layer (MHA + FFN, Fig 4.13).
    Encoder,
    /// A decoder's combined M-MHA + MHA half-phase (A3 granularity).
    DecoderMha,
    /// A decoder's FFN half-phase (A3 granularity).
    DecoderFfn,
    /// One full decoder layer (A1/A2 granularity).
    DecoderFull,
    /// A stream chunk's carried attention context (`CTX`): per encoder
    /// layer, the keys and values of the `rows` left-context rows earlier
    /// chunks computed, uploaded from the host's CRC-enveloped stream state
    /// and written into the heads' banks. Its content changes on every
    /// dispatch ([`PhaseKind::reloads_every_dispatch`]).
    StreamContext {
        /// Cached context rows per layer.
        rows: usize,
    },
    /// One encoder layer of a stream chunk: only the chunk's `rows` new
    /// rows run through it, attending over `keys` keys — the cached
    /// context's, then their own.
    StreamLayer {
        /// New rows the layer computes.
        rows: usize,
        /// Keys each row attends over: context rows plus `rows`.
        keys: usize,
    },
    /// The `beam` front-token embedding rows of a decode step. The phase's
    /// label and byte count are step-invariant but its *content* is not —
    /// the rows name different vocabulary entries every step
    /// ([`PhaseKind::reloads_every_dispatch`]).
    DecodeEmbed {
        /// Hypotheses coalesced into the one batch-of-`beam` kernel.
        beam: usize,
    },
    /// The decode session's K/V residency: the once-projected encoder-memory
    /// cross K/V plus the fixed-capacity self-attention cache allocation.
    /// Cold (step 0) compute is the cross projection of all `mem_len` rows;
    /// steady-state compute is only the per-step cache append.
    DecodeKv {
        /// 0-based decode step this plan lowers.
        step: usize,
        /// Encoder-memory rows the cross K/V cover.
        mem_len: usize,
        /// Hypotheses sharing the residency.
        beam: usize,
    },
    /// One cached decoder-layer step: self-MHA over `step + 1` cached rows,
    /// cross-MHA over the `mem_len` resident rows, output projections and
    /// FFN, all coalesced batch-of-`beam`.
    DecodeLayer {
        /// 0-based decode step this plan lowers.
        step: usize,
        /// Encoder-memory rows cross-attention spans.
        mem_len: usize,
        /// Hypotheses coalesced into the one kernel.
        beam: usize,
    },
    /// The vocabulary output projection of a decode step.
    DecodeOut {
        /// Hypotheses coalesced into the one kernel.
        beam: usize,
    },
}

impl PhaseKind {
    /// Whether this is one of the per-step decode phases (as opposed to the
    /// eager full-sequence encoder/decoder phases).
    pub fn is_decode(&self) -> bool {
        matches!(
            self,
            PhaseKind::DecodeEmbed { .. }
                | PhaseKind::DecodeKv { .. }
                | PhaseKind::DecodeLayer { .. }
                | PhaseKind::DecodeOut { .. }
        )
    }

    /// Whether the phase's bytes change content on every dispatch while its
    /// label and byte count stay the same: a decode step's token-embedding
    /// rows and a stream chunk's carried context. A CRC match on such a
    /// stripe proves nothing, so the lowering never elides its load, and
    /// neither [`ExecPlan::pinned_stripes`] nor
    /// [`ExecPlan::decode_pinned_stripes`] pins it.
    pub fn reloads_every_dispatch(&self) -> bool {
        matches!(self, PhaseKind::DecodeEmbed { .. } | PhaseKind::StreamContext { .. })
    }
}

/// The shape of one autoregressive decode step lowered by
/// [`ExecPlan::lower_decode_step`]. Everything that makes a phase's *bytes*
/// step-varying is deliberately excluded: the self-attention cache is priced
/// at its fixed `max_steps` allocation so every elidable phase keeps a
/// step-invariant label, byte count, and
/// [`PlanCheckpoint::stripe_crc`] — the precondition for cross-step
/// resident-stripe elision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeStepSpec {
    /// 0-based decode step (0 = cold: nothing resident yet).
    pub step: usize,
    /// Encoder-memory rows the cross-attention K/V are projected from.
    pub mem_len: usize,
    /// Beam hypotheses scored as one coalesced batch-of-`beam` compute per
    /// phase (1 = greedy).
    pub beam: usize,
    /// Self-attention cache capacity in steps (the decode length budget the
    /// session reserved bank space for). Must exceed `step`.
    pub max_steps: usize,
}

impl DecodeStepSpec {
    /// Spec for `step` of a greedy (beam-1) session over `mem_len` memory
    /// rows with a `max_steps` cache budget.
    pub fn greedy(step: usize, mem_len: usize, max_steps: usize) -> Self {
        DecodeStepSpec { step, mem_len, beam: 1, max_steps }
    }
}

/// One weight-residency phase of the lowered schedule: a whole encoder
/// layer, a whole decoder layer (A1/A2), or a decoder half-phase (A3).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPhase {
    /// Schedule label (`"E3"`, `"D2"`, `"D2f"`). It and the two span labels
    /// are borrowed from the name table for every phase of the paper
    /// model's schedules, and formatted once for a deeper model's extra
    /// layers.
    pub label: Cow<'static, str>,
    /// The label of the phase's load span, `LW{label}`.
    pub load_label: Cow<'static, str>,
    /// The label of the phase's compute span, `C{label}`.
    pub compute_label: Cow<'static, str>,
    /// Weight bytes this phase streams from HBM — *encoded* bytes on the
    /// wire ([`AccelConfig::encoded_bytes`]), not the logical dense size.
    pub bytes: u64,
    /// Cost recurrence of the phase's compute block.
    pub kind: PhaseKind,
    /// Stripe codec the phase's weights stream in. Folded into
    /// [`PlanCheckpoint::stripe_crc`], so stripes resident under one
    /// encoding can never be silently reused under another.
    pub encoding: WeightEncoding,
}

/// Index of a command node inside [`ExecPlan::nodes`].
pub type CmdId = usize;

/// What a [`Verify`](PlanCmd::Verify) node checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyCheck {
    /// CRC-32 envelope over a fetched weight stripe.
    WeightCrc,
    /// ABFT column checksums over a compute block's PSA tiles.
    AbftChecksum,
}

/// One lowered command. The IR is deliberately small: everything the three
/// consumers need — engine, channel, and PSA-pool assignments — is explicit
/// on the node, and everything policy-dependent (retry budgets, degraded
/// costs) is left to the executor.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanCmd {
    /// Stream one phase's weight stripes from HBM into a buffer slot.
    LoadStripe {
        /// Phase index into [`ExecPlan::phases`].
        phase: usize,
        /// Prefetch engine (load queue) assignment: `phase % engines`.
        engine: usize,
        /// The two HBM channels this engine drives (disjoint per engine).
        channels: [usize; 2],
        /// Bytes moved.
        bytes: u64,
        /// Fig 4.11 pairing: this load may start together with the previous
        /// phase's load (they occupy different engines).
        paired_with_prev: bool,
        /// Weight-set version the stripe belongs to
        /// ([`AccelConfig::weight_version`] at lowering time).
        version: u64,
    },
    /// One utterance's compute block under the phase's resident weights.
    Compute {
        /// Phase index into [`ExecPlan::phases`].
        phase: usize,
        /// Utterance index inside the batch.
        utterance: usize,
        /// SLR assignment (`phase % 2` — the static, fault-free projection;
        /// the recovery executor re-routes onto a survivor after SLR loss).
        slr: usize,
    },
    /// Integrity checkpoint attached to a load (CRC) or a compute (ABFT).
    /// Verify nodes are emitted only when the plan's [`IntegrityLevel`] has
    /// checks enabled; they carry no runtime command of their own — the
    /// timing executors fold their cost into the checked command, and the
    /// functional interpreter performs the actual byte/tile checks.
    Verify {
        /// Phase index into [`ExecPlan::phases`].
        phase: usize,
        /// The command this checkpoint verifies.
        target: CmdId,
        /// What is being checked.
        check: VerifyCheck,
    },
    /// Synchronization point. The terminal barrier depends on the last
    /// compute and the last load: its readiness is batch completion.
    Barrier,
}

/// A command plus its dependency edges (indices of earlier nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// The lowered command.
    pub cmd: PlanCmd,
    /// Commands that must finish before this one may start, held inline:
    /// no command has more than two edges. A load holds its double-buffer
    /// edge, then its A1 serialize edge; a compute its load, then the
    /// previous compute; a verify its target; the barrier the last
    /// compute, then the last load. An absent edge is `None`. Queue order
    /// (in-order engines) is positional and not repeated here.
    pub deps: [Option<CmdId>; 2],
}

/// Per-kind command totals of a plan (what `asrsim plan` prints).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCounts {
    /// [`PlanCmd::LoadStripe`] nodes.
    pub loads: usize,
    /// [`PlanCmd::Compute`] nodes.
    pub computes: usize,
    /// [`PlanCmd::Verify`] nodes.
    pub verifies: usize,
    /// [`PlanCmd::Barrier`] nodes.
    pub barriers: usize,
}

impl PlanCounts {
    /// All nodes.
    pub fn total(&self) -> usize {
        self.loads + self.computes + self.verifies + self.barriers
    }
}

/// A weight stripe still resident in a device's double-buffer slots when a
/// checkpoint was cut, or pinned in a card's weight cache, with the CRC-32
/// the loader verified it against. A resume re-loads and re-verifies every
/// stripe its suffix needs, but refuses a checkpoint whose recorded CRC no
/// longer matches the stripe the schedule would fetch; a cache lowering
/// elides a load only over a CRC-matching stripe (DESIGN.md §12).
#[derive(Debug, Clone, PartialEq)]
pub struct ResidentStripe {
    /// Phase index into the checkpointed schedule.
    pub phase: usize,
    /// The phase's schedule label (`"E3"`, `"D2f"`).
    pub label: Cow<'static, str>,
    /// Stripe bytes.
    pub bytes: u64,
    /// CRC-32 the load's verify accepted.
    pub crc: u32,
    /// Weight-set version the stripe was loaded from. A stripe pinned under
    /// one version is *stale* under any other — its elision is refused
    /// typed, never silently reused (rolling upgrades, DESIGN.md §14).
    pub version: u64,
}

/// A barrier-granular cut through an [`ExecPlan`]: everything needed to
/// lower and execute only the uncompleted suffix of the DAG on the same or
/// another device. Cuts land on phase barriers — a phase is in the frontier
/// only once its load, its verifies, and *every* utterance's compute have
/// retired — so a checkpoint never claims partial credit the Verify nodes
/// have not signed off on. Partially-computed phases are replayed.
///
/// The checkpoint is self-describing (architecture, integrity level, padded
/// sequence length, phase table digest): [`ExecPlan::resume`]
/// re-derives the schedule from the target device's config and rejects the
/// checkpoint with [`AccelError::CheckpointRejected`] on any mismatch —
/// stale stripes restart cleanly instead of being silently reused.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCheckpoint {
    /// Overlap architecture the interrupted plan was lowered for.
    pub arch: Architecture,
    /// Integrity level the interrupted plan was lowered at.
    pub integrity: IntegrityLevel,
    /// Padded sequence length every phase computed at.
    pub seq_len: usize,
    /// Unpadded input lengths of the interrupted batch, in batch order.
    pub input_lens: Vec<usize>,
    /// Schedule labels, one per phase — the identity of the phase table.
    pub phase_labels: Vec<Cow<'static, str>>,
    /// Weight bytes per phase, parallel to `phase_labels`.
    pub phase_bytes: Vec<u64>,
    /// Leading utterances that retired their final compute before the cut;
    /// they leave the batch and are not replayed.
    pub finished_utterances: usize,
    /// Finish times of those utterances (device-local seconds).
    pub finished_s: Vec<f64>,
    /// Barrier frontier: phases `[0, completed_phases)` fully computed for
    /// every remaining utterance.
    pub completed_phases: usize,
    /// Load frontier: stripes of phases `[0, loaded_phases)` were fetched
    /// and CRC-verified at least once (`>= completed_phases` when the
    /// prefetch engines ran ahead of compute).
    pub loaded_phases: usize,
    /// Stripes still held in the two double-buffer slots at the cut (at
    /// most the last two completed loads).
    pub resident: Vec<ResidentStripe>,
    /// Device-local time the checkpoint was cut, seconds.
    pub captured_at_s: f64,
    /// Weight-set version the interrupted plan was lowered against. A
    /// resume on a device flashed to any other version is rejected typed —
    /// compute banked under one weight set never completes under another.
    pub weight_version: u64,
    /// Stripe encoding the interrupted plan streamed its weights in. A
    /// resume under any other encoding is rejected typed — the resident
    /// bytes are simply not the target schedule's bytes. Defaults to dense
    /// for pre-encoding checkpoints.
    pub encoding: WeightEncoding,
}

impl PlanCheckpoint {
    /// The CRC-32 a phase's stripe verifies against in the timing model:
    /// a digest of the schedule identity (label + byte count). The
    /// functional path checks real bytes; the timing path checks that a
    /// checkpoint's resident stripes still describe the stripes the
    /// target schedule would fetch. The weight-set version is folded into
    /// the digest, so a stripe loaded under one version can never
    /// CRC-match the same schedule slot under another. The stripe
    /// encoding's identity is folded in for the same reason: int8 bytes
    /// resident in a slot are not the dense bytes a dense schedule wants,
    /// even when the byte counts happen to coincide.
    pub fn stripe_crc(phase: &PlanPhase, version: u64) -> u32 {
        let mut crc = Crc32::new();
        crc.update(phase.label.as_bytes());
        crc.update(&phase.bytes.to_le_bytes());
        crc.update(&version.to_le_bytes());
        phase.encoding.digest_into(&mut crc);
        crc.finalize()
    }

    /// Snapshot a plan at a barrier frontier. `completed_phases` /
    /// `loaded_phases` are absolute phase indices (a resumed plan's
    /// checkpoint composes with its predecessor's frontier);
    /// `finished_s` is the prefix of utterances past their final compute.
    pub fn at(
        plan: &ExecPlan,
        completed_phases: usize,
        loaded_phases: usize,
        finished_s: &[f64],
        captured_at_s: f64,
    ) -> PlanCheckpoint {
        let resident = (loaded_phases.saturating_sub(2)..loaded_phases)
            .map(|i| ResidentStripe {
                phase: i,
                label: plan.phases[i].label.clone(),
                bytes: plan.phases[i].bytes,
                crc: Self::stripe_crc(&plan.phases[i], plan.weight_version),
                version: plan.weight_version,
            })
            .collect();
        PlanCheckpoint {
            arch: plan.arch,
            integrity: plan.integrity,
            seq_len: plan.seq_len,
            input_lens: plan.input_lens.clone(),
            phase_labels: plan.phases.iter().map(|p| p.label.clone()).collect(),
            phase_bytes: plan.phases.iter().map(|p| p.bytes).collect(),
            finished_utterances: finished_s.len(),
            finished_s: finished_s.to_vec(),
            completed_phases,
            loaded_phases,
            resident,
            captured_at_s,
            weight_version: plan.weight_version,
            encoding: plan.encoding,
        }
    }

    /// Input lengths of the utterances still to serve (the batch a resume
    /// lowering must be built with). Empty when the finished prefix covers
    /// the whole batch, or claims more utterances than it had; a resume
    /// refuses both.
    pub fn remaining_lens(&self) -> &[usize] {
        self.input_lens.get(self.finished_utterances..).unwrap_or_default()
    }

    /// Whether any phase (for any remaining utterance) is still unexecuted.
    pub fn work_remains(&self) -> bool {
        self.completed_phases < self.phase_labels.len() && !self.remaining_lens().is_empty()
    }

    /// Bytes the interrupted run already moved over HBM (the load work a
    /// non-checkpointed restart would re-pay).
    pub fn loaded_bytes(&self) -> u64 {
        self.phase_bytes[..self.loaded_phases.min(self.phase_bytes.len())].iter().sum()
    }
}

/// Resume metadata attached to a plan lowered by
/// [`ExecPlan::resume`]: where the suffix starts and how much work
/// the cut allowed the lowering to skip (the replay-accounting numbers the
/// CLI surfaces).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanResume {
    /// First phase with nodes in this plan; phases `[0, start_phase)` have
    /// neither a load nor computes.
    pub start_phase: usize,
    /// HBM bytes not re-moved: the completed prefix's loads.
    pub skipped_load_bytes: u64,
    /// Compute nodes not re-executed (completed phases × remaining batch).
    pub skipped_computes: usize,
    /// Suffix loads that re-fetch a stripe the interrupted run had already
    /// loaded (the replayed-bytes number).
    pub replayed_loads: usize,
    /// Bytes those replayed loads re-move.
    pub replayed_load_bytes: u64,
    /// Utterances that had fully finished before the cut (carried for
    /// callers; they are not part of this plan's batch).
    pub base_finished: usize,
    /// Their recorded finish times, device-local to the interrupted run.
    pub finished_s: Vec<f64>,
}

/// Resident-weight reuse accounting of a plan lowered against a resident
/// stripe set: how many of the offered stripes the
/// lowering could elide, and how many were stale. This is a card's
/// weight-cache saving ([`crate::serve`]): every dispatch after a card's
/// first success skips the `LoadStripe`s whose CRC-matching stripes that
/// success left pinned — a serve request, a cluster node's request, or
/// the next chunk of a stream alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanReuse {
    /// Resident stripes offered to the lowering.
    pub offered: usize,
    /// `LoadStripe` nodes elided because an offered stripe CRC-matched the
    /// schedule's stripe for that phase.
    pub elided_loads: usize,
    /// HBM bytes those elided loads would have moved.
    pub elided_load_bytes: u64,
    /// Offered stripes that did **not** match the schedule (wrong phase,
    /// label, byte count, or a stale CRC) — re-loaded and re-verified,
    /// never silently reused.
    pub stale: usize,
    /// The subset of `stale` refused *specifically* because the stripe was
    /// pinned under a different weight-set version than the lowering's —
    /// the typed stale-version rejection a rolling upgrade relies on.
    pub stale_version: usize,
}

/// A lowered, inspectable execution plan: the phase table plus the command
/// DAG. Built by one constructor per plan kind ([`ExecPlan::lower`],
/// [`ExecPlan::lower_batch`], [`ExecPlan::lower_stream_chunk`],
/// [`ExecPlan::lower_decode_step`], [`ExecPlan::resume`]); consumed by the
/// analytic walker, the runtime executors, and the functional interpreter.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    /// Overlap architecture the plan was lowered for (edge policy).
    pub arch: Architecture,
    /// Utterances in the batch (1 = solo).
    pub batch: usize,
    /// Unpadded input length of each utterance, in batch order.
    pub input_lens: Vec<usize>,
    /// Padded (built) sequence length every phase computes at.
    pub seq_len: usize,
    /// Integrity level the plan was lowered at (drives Verify emission).
    pub integrity: IntegrityLevel,
    /// Weight-set version the plan was lowered against
    /// ([`AccelConfig::weight_version`]).
    pub weight_version: u64,
    /// Stripe encoding the plan's loads stream ([`AccelConfig::encoding`]).
    /// The phase byte counts already price it; consumers that move real
    /// bytes (the functional interpreter) decode through the same codec.
    pub encoding: WeightEncoding,
    /// The weight-residency phases, in schedule order.
    pub phases: Vec<PlanPhase>,
    /// The command DAG, in dispatch order.
    pub nodes: Vec<PlanNode>,
    /// Present when this plan is the resumed suffix of a checkpointed run.
    pub resume: Option<PlanResume>,
    /// Present when this plan was lowered against a non-empty resident
    /// stripe set (a card's weight cache, a stream's or decode session's
    /// pinned stripes).
    pub reuse: Option<PlanReuse>,
    /// Per phase, the [`PlanCmd::LoadStripe`] node id. `None` for phases
    /// before a resume cut and for stripes the weight cache elides.
    load_of: Vec<Option<CmdId>>,
    /// The [`PlanCmd::Compute`] node ids, `batch` per phase in utterance
    /// order, from the start phase on (phases before a resume cut have
    /// none).
    computes: Vec<CmdId>,
}

impl ExecPlan {
    /// Lower a uniform batch: `batch` utterances of the same `input_len`,
    /// nothing resident. This is the shortcut most callers lower with; see
    /// [`lower_batch`](Self::lower_batch) for per-utterance lengths and a
    /// card's resident stripes.
    pub fn lower(
        cfg: &AccelConfig,
        arch: Architecture,
        input_len: usize,
        batch: usize,
        integrity: IntegrityLevel,
    ) -> Result<ExecPlan> {
        Self::lower_lens(cfg, arch, vec![input_len; batch], integrity, &[])
    }

    /// Lower the eager schedule for a batch of unpadded input lengths, one
    /// per utterance, each padded to the built length (§5.1.5); an empty
    /// batch is an [`AccelError::Config`]. Each phase whose stripe in
    /// `resident` CRC-matches the schedule (phase, label, byte count,
    /// [`PlanCheckpoint::stripe_crc`]) emits **no** `LoadStripe` — a card's
    /// weight cache at work. Any other offered stripe is counted stale on
    /// [`PlanReuse`] and its phase re-loads and re-verifies: a stale cache
    /// costs bandwidth, never correctness. Pass an empty slice for a cold
    /// card.
    pub fn lower_batch(
        cfg: &AccelConfig,
        arch: Architecture,
        input_lens: &[usize],
        integrity: IntegrityLevel,
        resident: &[ResidentStripe],
    ) -> Result<ExecPlan> {
        Self::lower_lens(cfg, arch, input_lens.to_vec(), integrity, resident)
    }

    /// [`lower_batch`](Self::lower_batch) on input lengths the plan keeps:
    /// [`lower`](Self::lower) builds its uniform batch straight into them.
    fn lower_lens(
        cfg: &AccelConfig,
        arch: Architecture,
        input_lens: Vec<usize>,
        integrity: IntegrityLevel,
        resident: &[ResidentStripe],
    ) -> Result<ExecPlan> {
        cfg.validate()?;
        if input_lens.is_empty() {
            return Err(AccelError::Config("batch size must be >= 1".into()));
        }
        let seq_len = padded_batch_len(cfg, &input_lens)?;
        let phases = phase_list(cfg, arch);
        let held = Held::Resident(resident);
        Ok(Self::emit(cfg, arch, integrity, input_lens, seq_len, phases, held))
    }

    /// Lower one streaming chunk: a batch-of-one plan of `rows` new rows
    /// over `context` cached rows — the `CTX` load of every encoder layer's
    /// carried keys and values ([`PhaseKind::StreamContext`]), then the
    /// encoder layers over the new rows only ([`PhaseKind::StreamLayer`]).
    /// A chunk's product is its encoder rows, so it never runs a decoder.
    /// `resident` is what the stream's previous chunk left pinned (empty
    /// for a cold chunk), elided as in [`lower_batch`](Self::lower_batch)
    /// except that `CTX` never is. Zero rows, or an attention window past
    /// the built sequence length, is an [`AccelError::InvalidStream`]. The
    /// walker, the stream pool, the runtime and the functional twin all
    /// lower chunks here.
    pub fn lower_stream_chunk(
        cfg: &AccelConfig,
        arch: Architecture,
        rows: usize,
        context: usize,
        resident: &[ResidentStripe],
    ) -> Result<ExecPlan> {
        cfg.validate()?;
        if rows == 0 {
            return Err(AccelError::InvalidStream {
                reason: "a chunk must compute >= 1 new encoder step".into(),
            });
        }
        if rows + context > cfg.max_seq_len {
            return Err(AccelError::InvalidStream {
                reason: format!(
                    "attention window {} ({} new + {} context) exceeds the built sequence \
                     length {}",
                    rows + context,
                    rows,
                    context,
                    cfg.max_seq_len
                ),
            });
        }
        let seq_len = cfg.padded_seq_len(rows)?;
        let phases = stream_chunk_phase_list(cfg, rows, context);
        let held = Held::Resident(resident);
        Ok(Self::emit(cfg, arch, cfg.integrity, vec![rows], seq_len, phases, held))
    }

    /// Lower one autoregressive decode step: the per-step skeleton (token
    /// embedding rows, K/V residency, the decoder layers, the vocabulary
    /// projection), each phase ONE coalesced batch-of-`beam` compute, so
    /// the plan is solo. `resident` is what a previous step left pinned
    /// ([`decode_pinned_stripes`](Self::decode_pinned_stripes); empty for
    /// the cold step), so steady steps fetch only the embedding rows. A
    /// zero beam or memory, or a step outside the cache allocation, is an
    /// [`AccelError::Config`].
    pub fn lower_decode_step(
        cfg: &AccelConfig,
        arch: Architecture,
        spec: DecodeStepSpec,
        resident: &[ResidentStripe],
        integrity: IntegrityLevel,
    ) -> Result<ExecPlan> {
        cfg.validate()?;
        if spec.beam == 0 {
            return Err(AccelError::Config("decode beam must be >= 1".into()));
        }
        if spec.mem_len == 0 {
            return Err(AccelError::Config("decode memory must be non-empty".into()));
        }
        if spec.step >= spec.max_steps {
            return Err(AccelError::Config(format!(
                "decode step {} outside the {}-step cache allocation",
                spec.step, spec.max_steps
            )));
        }
        let seq_len = cfg.padded_seq_len(spec.mem_len)?;
        let phases = decode_phase_list(cfg, &spec);
        let held = Held::Resident(resident);
        Ok(Self::emit(cfg, arch, integrity, vec![spec.mem_len], seq_len, phases, held))
    }

    /// Re-lower the uncompleted suffix a checkpoint describes, for its
    /// remaining utterances at its architecture and integrity level. The
    /// resume runs on another card than the one that cut the checkpoint,
    /// so it re-fetches (and re-verifies) every stripe the suffix needs. A
    /// poisoned checkpoint, or one that does not match the schedule `cfg`
    /// derives, is refused with [`AccelError::CheckpointRejected`]: the
    /// caller's clean fallback is a full restart, never silent reuse.
    pub fn resume(cfg: &AccelConfig, ckpt: &PlanCheckpoint) -> Result<ExecPlan> {
        let remaining = ckpt.remaining_lens();
        if remaining.is_empty() {
            return Err(AccelError::CheckpointRejected {
                reason: format!(
                    "no utterance left to resume: {} of {} finished",
                    ckpt.finished_utterances,
                    ckpt.input_lens.len()
                ),
            });
        }
        cfg.validate()?;
        let seq_len = padded_batch_len(cfg, remaining)?;
        let phases = phase_list(cfg, ckpt.arch);
        validate_checkpoint(ckpt, cfg, seq_len, &phases)?;
        let held = Held::Cut(ckpt);
        Ok(Self::emit(cfg, ckpt.arch, ckpt.integrity, remaining.to_vec(), seq_len, phases, held))
    }

    /// Prefetch engines the plan drives (A1/A2 = 1, A3 = 2).
    pub fn engines(&self) -> usize {
        match self.arch {
            Architecture::A3 => 2,
            _ => 1,
        }
    }

    /// Seconds a compute of `full_s` occupies the PSAs once the plan's
    /// stripe encoding skips its empty tiles (DESIGN.md §16): scaled by the
    /// expected tile occupancy. Gated on a strictly positive skip, so
    /// dense-tile plans keep their bits. The walker and both runtime
    /// executors scale their compute here.
    pub(crate) fn occupied_s(&self, full_s: f64) -> f64 {
        let skip = self.encoding.zero_tile_fraction();
        if skip > 0.0 {
            full_s * (1.0 - skip)
        } else {
            full_s
        }
    }

    /// First phase with work in this plan (0 unless resumed).
    pub fn start_phase(&self) -> usize {
        self.resume.as_ref().map_or(0, |r| r.start_phase)
    }

    /// The [`PlanCmd::LoadStripe`] node of a phase, if this plan fetches
    /// the phase's stripe (`None` before a resume cut or when the weight
    /// cache elides it).
    pub fn load_of(&self, phase: usize) -> Option<CmdId> {
        self.load_of[phase]
    }

    /// A phase's [`PlanCmd::Compute`] nodes, in utterance order.
    pub fn computes_of(&self, phase: usize) -> &[CmdId] {
        match phase.checked_sub(self.start_phase()) {
            Some(k) => &self.computes[k * self.batch..][..self.batch],
            None => &[],
        }
    }

    /// The batch's last compute of a phase — what frees the double-buffer
    /// slot and what A1 serialize edges (and degraded-to-A1 executors) gate
    /// the next load on. `None` for phases before a resume cut.
    pub fn last_compute_of(&self, phase: usize) -> Option<CmdId> {
        self.computes_of(phase).last().copied()
    }

    /// The span tag the runtime appends to batched dispatches (`#B4`);
    /// `None` at batch 1 so a solo stream stays label-identical to the
    /// historical solo path.
    pub fn tag(&self) -> Option<String> {
        if self.batch > 1 {
            Some(format!("B{}", self.batch))
        } else {
            None
        }
    }

    /// Per-kind command totals.
    pub fn counts(&self) -> PlanCounts {
        let mut c = PlanCounts::default();
        for n in &self.nodes {
            match n.cmd {
                PlanCmd::LoadStripe { .. } => c.loads += 1,
                PlanCmd::Compute { .. } => c.computes += 1,
                PlanCmd::Verify { .. } => c.verifies += 1,
                PlanCmd::Barrier => c.barriers += 1,
            }
        }
        c
    }

    /// Edge totals by policy: `(double_buffer, serialize, paired_loads)`.
    /// Double-buffer edges gate a load on the compute two phases back;
    /// serialize edges (A1 only) gate it on the previous phase's compute;
    /// paired loads are the Fig 4.11 M-MHA/FFN launches.
    pub fn edge_counts(&self) -> (usize, usize, usize) {
        let (mut buf, mut ser, mut paired) = (0usize, 0usize, 0usize);
        for (i, lw) in self.load_of.iter().enumerate() {
            let Some(lw) = *lw else { continue };
            let node = &self.nodes[lw];
            for &d in node.deps.iter().flatten() {
                if let PlanCmd::Compute { phase, .. } = self.nodes[d].cmd {
                    if i >= 2 && phase == i - 2 {
                        buf += 1;
                    } else if i >= 1 && phase == i - 1 {
                        ser += 1;
                    }
                }
            }
            if let PlanCmd::LoadStripe { paired_with_prev: true, .. } = node.cmd {
                paired += 1;
            }
        }
        (buf, ser, paired)
    }

    /// Total weight bytes the schedule *would* stream with nothing
    /// resident — the denominator of the streaming elided-load fraction.
    pub fn scheduled_load_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.bytes).sum()
    }

    /// Bytes this plan's emitted `LoadStripe` nodes actually move — the
    /// numerator left after resume skips and resident-reuse elision
    /// (`scheduled_load_bytes` minus everything not fetched).
    pub fn fetched_load_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match n.cmd {
                PlanCmd::LoadStripe { bytes, .. } => bytes,
                _ => 0,
            })
            .sum()
    }

    /// The leading `slots` weight stripes with their schedule CRCs — what
    /// a card pins in its weight cache after its first successful dispatch
    /// ([`crate::serve::PIN_SLOTS`] of them). The pipeline-fill loads are
    /// the ones a per-dispatch plan cannot hide under compute, so the cache
    /// pins the *front* of the schedule; the cycling double-buffer slots
    /// keep handling the rest. A phase whose content changes every dispatch
    /// ([`PhaseKind::reloads_every_dispatch`]) is skipped, not pinned. Pass
    /// the result as the `resident` set of the card's next dispatch
    /// ([`lower_batch`](Self::lower_batch),
    /// [`lower_stream_chunk`](Self::lower_stream_chunk)).
    pub fn pinned_stripes(&self, slots: usize) -> Vec<ResidentStripe> {
        self.resident_stripes(|_| true).take(slots).collect()
    }

    /// The stripes a decode session pins resident after a step: every
    /// decode phase *except* the token-embedding rows, whose content
    /// changes each step and must always be re-fetched. Pass the result as
    /// the `resident` set of the next step's
    /// [`lower_decode_step`](Self::lower_decode_step); on a non-decode plan
    /// this is empty (use
    /// [`pinned_stripes`](Self::pinned_stripes) there).
    pub fn decode_pinned_stripes(&self) -> Vec<ResidentStripe> {
        self.resident_stripes(|p| p.kind.is_decode()).collect()
    }

    /// The stripes of the phases `keep` selects that a device may hold
    /// resident, in schedule order, with their schedule CRCs.
    fn resident_stripes<'p>(
        &'p self,
        keep: impl Fn(&PlanPhase) -> bool + 'p,
    ) -> impl Iterator<Item = ResidentStripe> + 'p {
        self.phases
            .iter()
            .enumerate()
            .filter(move |(_, p)| keep(p) && !p.kind.reloads_every_dispatch())
            .map(|(i, p)| ResidentStripe {
                phase: i,
                label: p.label.clone(),
                bytes: p.bytes,
                crc: PlanCheckpoint::stripe_crc(p, self.weight_version),
                version: self.weight_version,
            })
    }

    /// Bytes each HBM channel moves over the whole plan (indexable by the
    /// channel ids on the [`PlanCmd::LoadStripe`] nodes). Each engine's
    /// traffic is striped evenly across its two channels.
    pub fn channel_load_bytes(&self) -> Vec<u64> {
        let mut ch = vec![0u64; 2 * self.engines()];
        for n in &self.nodes {
            if let PlanCmd::LoadStripe { channels, bytes, .. } = n.cmd {
                ch[channels[0]] += bytes - bytes / 2;
                ch[channels[1]] += bytes / 2;
            }
        }
        ch
    }
}

/// The padded length a batch computes at: every utterance pads to
/// [`AccelConfig::padded_seq_len`], so one past the built length is refused
/// typed.
fn padded_batch_len(cfg: &AccelConfig, input_lens: &[usize]) -> Result<usize> {
    input_lens.iter().try_fold(0, |seq_len, &len| Ok(seq_len.max(cfg.padded_seq_len(len)?)))
}

/// What the device already holds when a plan is emitted.
enum Held<'a> {
    /// Stripes a card or session kept pinned: each one that CRC-matches its
    /// phase elides that phase's load ([`PlanReuse`]).
    Resident(&'a [ResidentStripe]),
    /// A validated checkpoint's cut: phases before its compute frontier
    /// have no work left ([`PlanResume`]).
    Cut(&'a PlanCheckpoint),
}

impl ExecPlan {
    /// Lower a batch's phase table into the command DAG: the one emitter behind
    /// every [`ExecPlan`] constructor, each of which has already checked its
    /// own inputs.
    fn emit(
        cfg: &AccelConfig,
        arch: Architecture,
        integrity: IntegrityLevel,
        input_lens: Vec<usize>,
        seq_len: usize,
        phases: Vec<PlanPhase>,
        held: Held<'_>,
    ) -> ExecPlan {
        let batch = input_lens.len();
        let engines = match arch {
            Architecture::A3 => 2,
            _ => 1,
        };
        let verify = integrity.checks_enabled();
        let (start_phase, resident) = match held {
            Held::Resident(resident) => (0, resident),
            Held::Cut(ckpt) => (ckpt.completed_phases, &[][..]),
        };

        // Resident-reuse validation: every offered stripe either CRC-matches
        // the stripe this schedule would fetch for its phase (its load is
        // elided) or is counted stale and re-loaded. With none offered there
        // is nothing to flag, so the flags stay unallocated.
        let mut reuse_acct = None;
        let mut resident_ok = Vec::new();
        if !resident.is_empty() {
            let acct =
                reuse_acct.insert(PlanReuse { offered: resident.len(), ..Default::default() });
            resident_ok = vec![false; phases.len()];
            for r in resident {
                match phases.get(r.phase) {
                    // A version-stale stripe is refused *before* the CRC
                    // check so the refusal is typed on the accounting: the
                    // weights on the device are simply not this lowering's
                    // weight set, however intact they are.
                    Some(_) if r.version != cfg.weight_version => {
                        acct.stale += 1;
                        acct.stale_version += 1;
                    }
                    // The embedding rows and a chunk's carried context change
                    // content every dispatch while keeping a fixed label and
                    // byte count, so a CRC match proves nothing — refuse the
                    // elision unconditionally.
                    Some(p) if p.kind.reloads_every_dispatch() => {
                        acct.stale += 1;
                    }
                    Some(p)
                        if r.label == p.label
                            && r.bytes == p.bytes
                            && r.crc == PlanCheckpoint::stripe_crc(p, cfg.weight_version) =>
                    {
                        resident_ok[r.phase] = true;
                    }
                    _ => acct.stale += 1,
                }
            }
        }

        // Every phase from the start on emits its load, its computes and,
        // with checks enabled, one verify each; the barrier closes the DAG.
        let work_phases = phases.len().saturating_sub(start_phase);
        let per_phase = if verify { 2 * (1 + batch) } else { 1 + batch };
        let mut nodes: Vec<PlanNode> = Vec::with_capacity(work_phases * per_phase + 1);
        let mut load_of: Vec<Option<CmdId>> = Vec::with_capacity(phases.len());
        let mut computes: Vec<CmdId> = Vec::with_capacity(work_phases * batch);
        // The batch's last compute of an emitted phase (`None` before the cut).
        let last_compute = |computes: &[CmdId], phase: usize| {
            phase.checked_sub(start_phase).map(|k| computes[(k + 1) * batch - 1])
        };
        let mut prev_compute: Option<CmdId> = None;
        for (i, p) in phases.iter().enumerate() {
            if i < start_phase {
                // Completed before the cut: the suffix has no work here.
                load_of.push(None);
                continue;
            }
            let lw = if resident_ok.get(i) == Some(&true) {
                // Weight cache hit: an earlier dispatch on the card left the
                // CRC-matching stripe pinned, so the fetch is elided and the
                // phase computes straight out of the resident slot.
                if let Some(acct) = reuse_acct.as_mut() {
                    acct.elided_loads += 1;
                    acct.elided_load_bytes += p.bytes;
                }
                None
            } else {
                // Edge policy. Double-buffer edge (all architectures): this
                // load's buffer slot is freed by the compute two phases
                // back — dropped when that compute retired before the cut.
                let buffer = i.checked_sub(2).and_then(|j| last_compute(&computes, j));
                // Serialize edge (A1 only): no overlap — the load
                // additionally waits out the previous phase's whole compute.
                let serialize = match arch {
                    Architecture::A1 => i.checked_sub(1).and_then(|j| last_compute(&computes, j)),
                    _ => None,
                };
                let engine = i % engines;
                let lw = nodes.len();
                nodes.push(PlanNode {
                    cmd: PlanCmd::LoadStripe {
                        phase: i,
                        engine,
                        channels: [2 * engine, 2 * engine + 1],
                        bytes: p.bytes,
                        paired_with_prev: p.kind == PhaseKind::DecoderFfn,
                        version: cfg.weight_version,
                    },
                    deps: [buffer, serialize],
                });
                if verify {
                    nodes.push(PlanNode {
                        cmd: PlanCmd::Verify {
                            phase: i,
                            target: lw,
                            check: VerifyCheck::WeightCrc,
                        },
                        deps: [Some(lw), None],
                    });
                }
                Some(lw)
            };
            load_of.push(lw);
            for u in 0..batch {
                let ck = nodes.len();
                nodes.push(PlanNode {
                    cmd: PlanCmd::Compute { phase: i, utterance: u, slr: i % 2 },
                    deps: [lw, prev_compute],
                });
                if verify {
                    nodes.push(PlanNode {
                        cmd: PlanCmd::Verify {
                            phase: i,
                            target: ck,
                            check: VerifyCheck::AbftChecksum,
                        },
                        deps: [Some(ck), None],
                    });
                }
                prev_compute = Some(ck);
                computes.push(ck);
            }
        }
        // Terminal barrier: ready exactly when the batch is complete.
        let last_load = load_of.iter().rev().find_map(|lw| *lw);
        let last = prev_compute.expect("schedule has phases");
        nodes.push(PlanNode { cmd: PlanCmd::Barrier, deps: [Some(last), last_load] });

        let resume = match held {
            Held::Resident(_) => None,
            Held::Cut(ckpt) => {
                // Replayed loads: suffix stripes the interrupted run had
                // already fetched, which the target fetches again.
                let (replayed_loads, replayed_load_bytes) = (start_phase
                    ..ckpt.loaded_phases.min(phases.len()))
                    .filter(|&i| load_of[i].is_some())
                    .fold((0, 0), |(n, bytes), i| (n + 1, bytes + phases[i].bytes));
                Some(PlanResume {
                    start_phase,
                    skipped_load_bytes: phases[..start_phase].iter().map(|p| p.bytes).sum(),
                    skipped_computes: start_phase * batch,
                    replayed_loads,
                    replayed_load_bytes,
                    base_finished: ckpt.finished_utterances,
                    finished_s: ckpt.finished_s.clone(),
                })
            }
        };

        ExecPlan {
            arch,
            batch,
            input_lens,
            seq_len,
            integrity,
            weight_version: cfg.weight_version,
            encoding: cfg.encoding,
            phases,
            nodes,
            resume,
            reuse: reuse_acct,
            load_of,
            computes,
        }
    }
}

/// Check a checkpoint against the schedule the target config derives for
/// its architecture and remaining batch (`seq_len`, `phases`), or return
/// the typed rejection that sends the caller back to a clean full restart.
fn validate_checkpoint(
    ckpt: &PlanCheckpoint,
    cfg: &AccelConfig,
    seq_len: usize,
    phases: &[PlanPhase],
) -> Result<()> {
    let reject = |reason: String| AccelError::CheckpointRejected { reason };
    if ckpt.encoding != cfg.encoding {
        // The resident bytes were encoded under another codec: whatever
        // their CRCs say, they are not this schedule's stripes.
        return Err(reject(format!(
            "stripe encoding {} != target {}",
            ckpt.encoding, cfg.encoding
        )));
    }
    if ckpt.weight_version != cfg.weight_version {
        // Compute banked under one weight set must never complete under
        // another: a rolled or half-upgraded target refuses the resume
        // typed and the caller re-pays the suffix from scratch.
        return Err(reject(format!(
            "weight version {} != target {}",
            ckpt.weight_version, cfg.weight_version
        )));
    }
    if ckpt.seq_len != seq_len {
        return Err(reject(format!("padded seq len {} != target {}", ckpt.seq_len, seq_len)));
    }
    if ckpt.finished_s.len() != ckpt.finished_utterances {
        return Err(reject("finish times do not cover the finished prefix".into()));
    }
    if ckpt.phase_labels.len() != phases.len() || ckpt.phase_bytes.len() != phases.len() {
        return Err(reject(format!(
            "phase table has {} phases, target schedule {}",
            ckpt.phase_labels.len(),
            phases.len()
        )));
    }
    for (i, p) in phases.iter().enumerate() {
        if ckpt.phase_labels[i] != p.label || ckpt.phase_bytes[i] != p.bytes {
            return Err(reject(format!(
                "phase {} is {}, checkpoint says {}",
                i, p.label, ckpt.phase_labels[i]
            )));
        }
    }
    if ckpt.completed_phases > phases.len() || ckpt.loaded_phases > phases.len() {
        return Err(reject("frontier lies past the end of the schedule".into()));
    }
    if ckpt.loaded_phases < ckpt.completed_phases {
        return Err(reject("load frontier behind the compute frontier".into()));
    }
    if ckpt.finished_utterances > 0 && ckpt.completed_phases + 1 < phases.len() {
        // An utterance finishes with its last phase's compute, so every
        // earlier phase has computed for the whole batch by then. A prefix
        // finished ahead of that frontier would drop the rest of its
        // utterances' phases.
        return Err(reject(format!(
            "{} utterances finished with only {} of {} phases computed",
            ckpt.finished_utterances,
            ckpt.completed_phases,
            phases.len()
        )));
    }
    if !ckpt.work_remains() {
        return Err(reject("nothing to resume: the checkpointed batch is complete".into()));
    }
    for r in &ckpt.resident {
        let Some(p) = phases.get(r.phase) else {
            return Err(reject(format!(
                "resident stripe names phase {} of {}",
                r.phase,
                phases.len()
            )));
        };
        if r.version != ckpt.weight_version {
            return Err(reject(format!(
                "resident stripe {} pinned at weight version {}, checkpoint cut at {}",
                r.label, r.version, ckpt.weight_version
            )));
        }
        if r.label != p.label
            || r.bytes != p.bytes
            || r.crc != PlanCheckpoint::stripe_crc(p, cfg.weight_version)
        {
            return Err(reject(format!(
                "stale CRC on resident stripe {} (phase {})",
                r.label, r.phase
            )));
        }
    }
    Ok(())
}

/// A phase's labels: its schedule label, then the labels of its load and
/// compute spans, `LW{label}` and `C{label}`.
type PhaseLabels = [Cow<'static, str>; 3];

/// One family of layer phases: layer `n` (1-based) is labelled
/// `{prefix}{n}{suffix}`, and `table` holds the paper model's layers.
struct LayerNames {
    prefix: &'static str,
    suffix: &'static str,
    table: &'static [PhaseLabels],
}

impl LayerNames {
    /// Layer `i`'s (0-based) labels: borrowed from the table, or past its
    /// end formatted, once per phase.
    fn of(&self, i: usize) -> PhaseLabels {
        self.table.get(i).cloned().unwrap_or_else(|| {
            let label = format!("{}{}{}", self.prefix, i + 1, self.suffix);
            let (load, compute) = (["LW", &label].concat(), ["C", &label].concat());
            [label.into(), load.into(), compute.into()]
        })
    }
}

/// Name-table entries, borrowed: a layer family's, one per layer number
/// given, or one fixed label's.
macro_rules! phase_labels {
    ($prefix:literal $suffix:literal: $($n:literal)+) => {
        LayerNames {
            prefix: $prefix,
            suffix: $suffix,
            table: &[$(phase_labels!($prefix, $n, $suffix)),+],
        }
    };
    ($($part:literal),+) => {
        [
            Cow::Borrowed(concat!($($part),+)),
            Cow::Borrowed(concat!("LW", $($part),+)),
            Cow::Borrowed(concat!("C", $($part),+)),
        ]
    };
}

// The name table: every label of the paper model's schedules (its 12
// encoder layers, its 6 decoder layers whole and in halves, a stream
// chunk's carried context and a decode step's own phases), each with its
// span labels.
const ENCODERS: LayerNames = phase_labels!("E" "": 1 2 3 4 5 6 7 8 9 10 11 12);
const DECODERS: LayerNames = phase_labels!("D" "": 1 2 3 4 5 6);
const DECODER_MHAS: LayerNames = phase_labels!("D" "m": 1 2 3 4 5 6);
const DECODER_FFNS: LayerNames = phase_labels!("D" "f": 1 2 3 4 5 6);
const CTX: PhaseLabels = phase_labels!("CTX");
const TOK: PhaseLabels = phase_labels!("TOK");
const KV: PhaseLabels = phase_labels!("KV");
const OUT: PhaseLabels = phase_labels!("OUT");

impl PlanPhase {
    /// A phase labelled `[label, load, compute]`.
    fn new(
        [label, load_label, compute_label]: PhaseLabels,
        bytes: u64,
        kind: PhaseKind,
        encoding: WeightEncoding,
    ) -> PlanPhase {
        PlanPhase { label, load_label, compute_label, bytes, kind, encoding }
    }
}

/// The encoder layers `E1..E{n}` as phases of `kind`: the head of every
/// eager schedule ([`PhaseKind::Encoder`]) and the body of a stream chunk
/// ([`PhaseKind::StreamLayer`]). Architecture-independent — only the
/// decoder phases split at A3.
fn encoder_phases(cfg: &AccelConfig, kind: PhaseKind) -> impl Iterator<Item = PlanPhase> + '_ {
    let bytes = layer_bytes(cfg).encoder;
    (0..cfg.model.n_encoders)
        .map(move |i| PlanPhase::new(ENCODERS.of(i), bytes, kind, cfg.encoding))
}

/// A stream chunk's phases ([`ExecPlan::lower_stream_chunk`]): `CTX`, whose
/// bytes are every encoder layer's f32 keys and values for the `context`
/// cached rows, then the encoder layers over the `rows` new rows.
fn stream_chunk_phase_list(cfg: &AccelConfig, rows: usize, context: usize) -> Vec<PlanPhase> {
    let kv_values = cfg.model.n_encoders * 2 * context * cfg.model.d_model;
    let ctx = PlanPhase::new(
        CTX,
        (kv_values * std::mem::size_of::<f32>()) as u64,
        PhaseKind::StreamContext { rows: context },
        cfg.encoding,
    );
    let layer = PhaseKind::StreamLayer { rows, keys: context + rows };
    std::iter::once(ctx).chain(encoder_phases(cfg, layer)).collect()
}

/// The 18-layer (24-phase at A3 granularity) schedule skeleton.
pub fn phase_list(cfg: &AccelConfig, arch: Architecture) -> Vec<PlanPhase> {
    let bytes = layer_bytes(cfg);
    let phase = |names, bytes, kind| PlanPhase::new(names, bytes, kind, cfg.encoding);
    let n_dec = cfg.model.n_decoders;
    let dec_phases = if arch == Architecture::A3 { 2 * n_dec } else { n_dec };
    let mut phases = Vec::with_capacity(cfg.model.n_encoders + dec_phases);
    phases.extend(encoder_phases(cfg, PhaseKind::Encoder));
    for i in 0..n_dec {
        if arch == Architecture::A3 {
            // Fig 4.11: LWi_m ∥ LWi_f on the two engines; Ci_m then Ci_f.
            phases.push(phase(DECODER_MHAS.of(i), bytes.decoder_mha, PhaseKind::DecoderMha));
            phases.push(phase(DECODER_FFNS.of(i), bytes.decoder_ffn, PhaseKind::DecoderFfn));
        } else {
            let full = bytes.decoder_mha + bytes.decoder_ffn;
            phases.push(phase(DECODERS.of(i), full, PhaseKind::DecoderFull));
        }
    }
    phases
}

/// The per-step decode schedule skeleton: the `beam` token-embedding rows,
/// the K/V residency, the decoder layers, and the vocabulary projection.
/// Every phase that is legal to elide across steps keeps a step-invariant
/// label and byte count — in particular the self-attention cache is priced
/// at its full `max_steps` allocation, not the rows filled so far — so the
/// only per-step traffic left once the previous step's
/// [`ExecPlan::decode_pinned_stripes`] are resident is the embedding rows.
pub fn decode_phase_list(cfg: &AccelConfig, spec: &DecodeStepSpec) -> Vec<PlanPhase> {
    let bytes = layer_bytes(cfg);
    let phase = |names, bytes, kind| PlanPhase::new(names, bytes, kind, cfg.encoding);
    let d = cfg.model.d_model as u64;
    let vocab = cfg.model.vocab_size as u64;
    let (step, mem_len, beam) = (spec.step, spec.mem_len, spec.beam);
    let n_dec = cfg.model.n_decoders;
    let mut phases = Vec::with_capacity(n_dec + 3);
    let embed = cfg.encoded_bytes(beam as u64 * d);
    phases.push(phase(TOK, embed, PhaseKind::DecodeEmbed { beam }));
    // Cross K/V for every decoder layer plus the fixed-capacity
    // per-hypothesis self-cache allocation.
    let kv = cfg.encoded_bytes(
        n_dec as u64 * 2 * d * (mem_len as u64 + beam as u64 * spec.max_steps as u64),
    );
    phases.push(phase(KV, kv, PhaseKind::DecodeKv { step, mem_len, beam }));
    for i in 0..n_dec {
        let full = bytes.decoder_mha + bytes.decoder_ffn;
        phases.push(phase(DECODERS.of(i), full, PhaseKind::DecodeLayer { step, mem_len, beam }));
    }
    let out = cfg.encoded_bytes(d * vocab + vocab);
    phases.push(phase(OUT, out, PhaseKind::DecodeOut { beam }));
    phases
}

/// Seconds of compute for one phase under a (possibly degraded) config.
/// `s` is the plan's padded sequence length; the stream and decode kinds
/// carry their own geometry and ignore it.
pub fn phase_compute_s(cfg: &AccelConfig, kind: PhaseKind, s: usize) -> f64 {
    let clock = cfg.device.clock;
    match kind {
        PhaseKind::Encoder => clock.to_seconds(encoder::encoder_cycles(cfg, s)),
        PhaseKind::StreamContext { rows } => {
            clock.to_seconds(encoder::stream_context_cycles(cfg, rows))
        }
        PhaseKind::StreamLayer { rows, keys } => {
            clock.to_seconds(encoder::encoder_layer_cycles(cfg, rows, keys))
        }
        PhaseKind::DecoderMha => clock.to_seconds(decoder::decoder_mha_phase_cycles(cfg, s)),
        PhaseKind::DecoderFfn => clock.to_seconds(decoder::decoder_ffn_phase_cycles(cfg, s)),
        PhaseKind::DecoderFull => clock.to_seconds(decoder::decoder_cycles(cfg, s)),
        PhaseKind::DecodeEmbed { beam } => {
            clock.to_seconds(decoder::decode_embed_cycles(cfg, beam))
        }
        PhaseKind::DecodeKv { step, mem_len, beam } => clock.to_seconds(if step == 0 {
            decoder::decode_kv_project_cycles(cfg, mem_len)
        } else {
            decoder::decode_kv_append_cycles(cfg, beam)
        }),
        PhaseKind::DecodeLayer { step, mem_len, beam } => {
            clock.to_seconds(decoder::decode_layer_step_cycles(cfg, step, mem_len, beam))
        }
        PhaseKind::DecodeOut { beam } => {
            clock.to_seconds(decoder::decode_out_proj_cycles(cfg, beam))
        }
    }
}

/// Per phase of `plan`, the seconds one utterance's compute takes at the
/// plan's padded length under `cfg`, before any zero-tile skip. Phases of
/// one [`PhaseKind`] share a recurrence (the twelve encoder layers, the
/// six decoder halves of each side), so each distinct kind is evaluated
/// once.
pub(crate) fn phase_compute_table(cfg: &AccelConfig, plan: &ExecPlan) -> Vec<f64> {
    let mut seen: Vec<(PhaseKind, f64)> = Vec::with_capacity(4);
    plan.phases
        .iter()
        .map(|p| match seen.iter().find(|(k, _)| *k == p.kind) {
            Some(&(_, t)) => t,
            None => {
                let t = phase_compute_s(cfg, p.kind, plan.seq_len);
                seen.push((p.kind, t));
                t
            }
        })
        .collect()
}

/// What the analytic walker prices a plan at.
#[derive(Debug, Clone)]
pub struct PlanCost {
    /// End-to-end makespan, seconds.
    pub latency_s: f64,
    /// Sum of load-span durations across the prefetch engines, seconds.
    pub load_total_s: f64,
    /// Sum of compute-span durations, seconds.
    pub compute_total_s: f64,
    /// Idle time on the compute unit between first and last compute, seconds.
    pub compute_stall_s: f64,
    /// Compute seconds the schedule never issued because the plan's stripe
    /// encoding marks whole tiles empty ([`WeightEncoding::SparseTiles`]):
    /// the walker scales each compute span by the expected occupancy and
    /// banks the remainder here. Zero for every dense-tile encoding.
    pub skipped_compute_s: f64,
    /// The analytic span schedule (`load-{e}` / `compute` units).
    pub timeline: Timeline,
    /// Per phase, when its `LoadStripe` retires (0 for phases with no load
    /// in this plan: resume prefixes and elided resident stripes).
    pub phase_load_end_s: Vec<f64>,
    /// Per phase, when the *batch's last* compute retires (0 for phases
    /// before a resume cut).
    pub phase_compute_end_s: Vec<f64>,
}

impl PlanCost {
    /// The barrier frontier at `elapsed_s` into the priced schedule:
    /// `(completed_phases, loaded_phases)` exactly as a
    /// [`PlanCheckpoint`] wants them. A phase counts completed once its
    /// whole batch of computes retired, loaded once its stripe retired;
    /// the load frontier never trails the compute frontier (a computed
    /// phase's weights were necessarily resident). This is how a node
    /// fail-stop at an arbitrary virtual time cuts a checkpoint from a
    /// run that was never going to fail on its own (DESIGN.md §14).
    pub fn frontier_at(&self, elapsed_s: f64) -> (usize, usize) {
        let eps = 1e-12;
        let completed =
            self.phase_compute_end_s.iter().filter(|&&t| t > 0.0 && t <= elapsed_s + eps).count();
        let loaded =
            self.phase_load_end_s.iter().filter(|&&t| t > 0.0 && t <= elapsed_s + eps).count();
        (completed, loaded.max(completed))
    }
}

/// The walker's span unit of each prefetch engine (A3 drives two).
const LOAD_UNITS: [&str; 2] = ["load-0", "load-1"];

/// The analytic cost walker: price an [`ExecPlan`] with the closed-form
/// recurrence, producing the same spans the per-architecture simulators
/// used to emit (one `LW{label}` span per load, one `C{label}` span per
/// phase covering the batch's back-to-back computes).
///
/// The walker derives every start time from the plan's *edges*: a load
/// starts at the max of its engine's availability, its dependency finishes,
/// and (for paired loads) its partner's start; a compute starts when its
/// load and the previous compute are done. One recurrence prices all three
/// architectures — the edge policy is already in the plan.
///
/// The totals are summed as the spans are pushed, in the order and from
/// the starting values the timeline's [`Timeline::makespan`],
/// [`Timeline::busy_time`] and [`Timeline::stall_time`] use, so they read
/// the same bits as those would: each unit's spans go in push order, which
/// is also their start order, since no engine and no compute starts
/// before its predecessor on the unit.
pub fn walk_cost(cfg: &AccelConfig, plan: &ExecPlan) -> PlanCost {
    let channels_per_engine = calib::HBM_CHANNELS_A1_A2;
    let load_time = |bytes: u64| cfg.device.hbm.read_time_s(bytes, channels_per_engine);
    let compute_s = phase_compute_table(cfg, plan);

    // A phase pushes at most one load span and one compute span.
    let mut tl = Timeline::with_capacity(2 * plan.phases.len());
    let mut engine_free = [0.0f64; LOAD_UNITS.len()];
    let mut load_end = vec![0.0f64; plan.phases.len()];
    let mut compute_end = vec![0.0f64; plan.phases.len()];
    let mut skipped_compute_s = 0.0f64;
    // `f64`'s `Sum` starts from its own neutral element (−0.0 since Rust
    // 1.81), which a unit with no spans reads back; the busy sums start
    // there too. The makespan and the stall start from 0.0, as the
    // timeline's do.
    let sum_start: f64 = std::iter::empty::<f64>().sum();
    let mut latency_s = 0.0f64;
    let mut load_busy = [sum_start; LOAD_UNITS.len()];
    let mut compute_total_s = sum_start;
    let mut compute_stall_s = 0.0f64;
    let mut prev_compute_end: Option<f64> = None;

    for (i, p) in plan.phases.iter().enumerate() {
        if let Some(lw_id) = plan.load_of(i) {
            let node = &plan.nodes[lw_id];
            let PlanCmd::LoadStripe { engine, bytes, paired_with_prev, .. } = node.cmd else {
                unreachable!("load_of indexes a LoadStripe");
            };
            let lt = load_time(bytes);
            let mut start = engine_free[engine];
            for &d in node.deps.iter().flatten() {
                if let PlanCmd::Compute { phase, .. } = plan.nodes[d].cmd {
                    start = start.max(compute_end[phase]);
                }
            }
            if paired_with_prev && i >= 1 && plan.load_of(i - 1).is_some() {
                // Fig 4.11: the FFN load launches together with its MHA
                // partner's load (they occupy different engines).
                let partner_start = load_end[i - 1] - load_time(plan.phases[i - 1].bytes);
                start = start.max(partner_start);
            }
            let end = start + lt;
            tl.push(LOAD_UNITS[engine], p.load_label.clone(), start, end).unwrap();
            latency_s = latency_s.max(end);
            load_busy[engine] += end - start;
            load_end[i] = end;
            engine_free[engine] = end;
        }
        // Trusted resident stripes (resumed plans) leave load_end at 0: the
        // weights are already in their slot, compute gates only on order.
        let n = plan.computes_of(i).len();
        if n == 0 {
            // Completed before a resume cut: no work to price.
            continue;
        }
        let prev_c = if i >= 1 { compute_end[i - 1] } else { 0.0 };
        let cs = load_end[i].max(prev_c);
        let full_ct = compute_s[i] * n as f64;
        let ct = plan.occupied_s(full_ct);
        skipped_compute_s += full_ct - ct;
        let end = cs + ct;
        tl.push("compute", p.compute_label.clone(), cs, end).unwrap();
        latency_s = latency_s.max(end);
        compute_total_s += end - cs;
        if let Some(prev_end) = prev_compute_end {
            compute_stall_s += (cs - prev_end).max(0.0);
        }
        prev_compute_end = Some(end);
        compute_end[i] = end;
    }

    PlanCost {
        latency_s,
        load_total_s: load_busy[..plan.engines()].iter().sum(),
        compute_total_s,
        compute_stall_s,
        skipped_compute_s,
        timeline: tl,
        phase_load_end_s: load_end,
        phase_compute_end_s: compute_end,
    }
}

/// The analytic shape of a decode session — what `asrsim plan --decode` and
/// the benchmark's `plan.decode_*` and `plan.modeled_ms_per_token` metrics
/// report: cold-step vs steady-state traffic and latency, and the
/// resident-reuse accounting that separates them.
#[derive(Debug, Clone)]
pub struct DecodeAnalytics {
    /// Priced cold step (step 0, nothing resident).
    pub cold: PlanCost,
    /// Priced steady-state step (everything but the embedding rows elided).
    pub steady: PlanCost,
    /// HBM bytes the cold step fetches.
    pub cold_step_bytes: u64,
    /// HBM bytes a steady-state step still fetches.
    pub steady_step_bytes: u64,
    /// Fraction of the scheduled bytes a steady-state step elides.
    pub elided_fraction: f64,
    /// The steady-state step's reuse accounting.
    pub reuse: PlanReuse,
    /// Steady-state decode latency per emitted token, milliseconds.
    pub steady_ms_per_token: f64,
}

/// Price a decode session analytically: lower the cold step, pin its
/// elidable stripes, lower `steady_step` against them, and walk both DAGs.
pub fn decode_analytics(
    cfg: &AccelConfig,
    arch: Architecture,
    mem_len: usize,
    beam: usize,
    max_steps: usize,
    steady_step: usize,
    integrity: IntegrityLevel,
) -> Result<DecodeAnalytics> {
    let cold_spec = DecodeStepSpec { step: 0, mem_len, beam, max_steps };
    let cold_plan = ExecPlan::lower_decode_step(cfg, arch, cold_spec, &[], integrity)?;
    let pinned = cold_plan.decode_pinned_stripes();
    let steady_spec = DecodeStepSpec { step: steady_step.min(max_steps - 1), ..cold_spec };
    let steady_plan = ExecPlan::lower_decode_step(cfg, arch, steady_spec, &pinned, integrity)?;
    let reuse = steady_plan.reuse.unwrap_or_default();
    let cold = walk_cost(cfg, &cold_plan);
    let steady = walk_cost(cfg, &steady_plan);
    let scheduled = steady_plan.scheduled_load_bytes().max(1);
    Ok(DecodeAnalytics {
        cold_step_bytes: cold_plan.fetched_load_bytes(),
        steady_step_bytes: steady_plan.fetched_load_bytes(),
        elided_fraction: reuse.elided_load_bytes as f64 / scheduled as f64,
        reuse,
        steady_ms_per_token: steady.latency_s * 1e3,
        cold,
        steady,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unpadded(s: usize) -> AccelConfig {
        let mut c = AccelConfig::paper_default();
        c.max_seq_len = s;
        c
    }

    #[test]
    fn lowering_emits_one_load_per_phase_and_batch_computes() {
        let cfg = unpadded(8);
        for (arch, n_phases) in
            [(Architecture::A1, 18), (Architecture::A2, 18), (Architecture::A3, 24)]
        {
            for batch in [1usize, 3] {
                let plan = ExecPlan::lower(&cfg, arch, 8, batch, IntegrityLevel::Off).unwrap();
                let c = plan.counts();
                assert_eq!(c.loads, n_phases, "{:?}", arch);
                assert_eq!(c.computes, n_phases * batch, "{:?}", arch);
                assert_eq!(c.verifies, 0);
                assert_eq!(c.barriers, 1);
                assert_eq!(plan.phases.len(), n_phases);
            }
        }
    }

    #[test]
    fn edge_policy_matches_the_architecture() {
        let cfg = unpadded(8);
        let a1 = ExecPlan::lower(&cfg, Architecture::A1, 8, 1, IntegrityLevel::Off).unwrap();
        let (buf1, ser1, pair1) = a1.edge_counts();
        assert_eq!(buf1, 16, "A1 keeps the double-buffer edges");
        assert_eq!(ser1, 17, "A1 serializes every load behind the previous compute");
        assert_eq!(pair1, 0);

        let a2 = ExecPlan::lower(&cfg, Architecture::A2, 8, 1, IntegrityLevel::Off).unwrap();
        let (buf2, ser2, pair2) = a2.edge_counts();
        assert_eq!((buf2, ser2, pair2), (16, 0, 0), "A2 is pure double-buffer");

        let a3 = ExecPlan::lower(&cfg, Architecture::A3, 8, 1, IntegrityLevel::Off).unwrap();
        let (buf3, ser3, pair3) = a3.edge_counts();
        assert_eq!((buf3, ser3), (22, 0));
        assert_eq!(pair3, 6, "one paired FFN load per decoder");
    }

    #[test]
    fn decode_step_lowers_tok_kv_layers_out() {
        let cfg = unpadded(8);
        let spec = DecodeStepSpec::greedy(0, 8, 16);
        let plan =
            ExecPlan::lower_decode_step(&cfg, Architecture::A2, spec, &[], IntegrityLevel::Off)
                .unwrap();
        let n_dec = cfg.model.n_decoders;
        assert_eq!(plan.phases.len(), n_dec + 3);
        assert_eq!(plan.phases[0].label, "TOK");
        assert_eq!(plan.phases[1].label, "KV");
        assert_eq!(plan.phases[n_dec + 2].label, "OUT");
        let c = plan.counts();
        assert_eq!(c.loads, n_dec + 3, "cold step fetches every phase");
        assert_eq!(c.computes, n_dec + 3, "one coalesced compute per phase");
        assert_eq!(c.barriers, 1);
        assert_eq!(plan.batch, 1);
        assert_eq!(plan.phases[1].kind, PhaseKind::DecodeKv { step: 0, mem_len: 8, beam: 1 });
    }

    #[test]
    fn steady_decode_step_loads_only_the_embedding_rows() {
        let cfg = unpadded(8);
        let cold = ExecPlan::lower_decode_step(
            &cfg,
            Architecture::A2,
            DecodeStepSpec::greedy(0, 8, 16),
            &[],
            IntegrityLevel::Off,
        )
        .unwrap();
        let pinned = cold.decode_pinned_stripes();
        assert_eq!(pinned.len(), cfg.model.n_decoders + 2, "everything but TOK pins");
        let steady = ExecPlan::lower_decode_step(
            &cfg,
            Architecture::A2,
            DecodeStepSpec::greedy(5, 8, 16),
            &pinned,
            IntegrityLevel::Off,
        )
        .unwrap();
        assert_eq!(steady.counts().loads, 1, "only TOK is fetched");
        assert_eq!(steady.fetched_load_bytes(), steady.phases[0].bytes);
        let reuse = steady.reuse.unwrap();
        assert_eq!(reuse.offered, pinned.len());
        assert_eq!(reuse.elided_loads, pinned.len());
        assert_eq!(reuse.stale, 0);
        assert!(
            reuse.elided_load_bytes as f64 / steady.scheduled_load_bytes() as f64 > 0.5,
            "steady-state steps must elide most of the cold traffic"
        );
    }

    /// A CRC-matching pin of phase 0 — what a device would offer if it
    /// kept that stripe resident.
    fn pin_of_phase_0(plan: &ExecPlan) -> ResidentStripe {
        let p = &plan.phases[0];
        ResidentStripe {
            phase: 0,
            label: p.label.clone(),
            bytes: p.bytes,
            crc: PlanCheckpoint::stripe_crc(p, plan.weight_version),
            version: plan.weight_version,
        }
    }

    #[test]
    fn content_varying_phases_are_never_pinned_or_elided_even_when_offered() {
        // TOK's and CTX's labels and bytes are dispatch-invariant but their
        // content is not: no pinned set holds them, and a CRC-matching pin
        // of either is refused, counted stale, and the phase still loads.
        let cfg = unpadded(8);
        let decode = |step: usize, resident: &[ResidentStripe]| {
            let spec = DecodeStepSpec::greedy(step, 8, 16);
            ExecPlan::lower_decode_step(&cfg, Architecture::A2, spec, resident, IntegrityLevel::Off)
                .unwrap()
        };
        let chunk = |resident: &[ResidentStripe]| {
            ExecPlan::lower_stream_chunk(&cfg, Architecture::A2, 4, 4, resident).unwrap()
        };
        let (cold_step, cold_chunk) = (decode(0, &[]), chunk(&[]));
        assert!(cold_step.decode_pinned_stripes().iter().all(|r| r.phase != 0));
        // Every stripe offered, phase 0's included.
        let offer = |cold: &ExecPlan| {
            let all = cold.pinned_stripes(cold.phases.len());
            assert!(cold.phases[0].kind.reloads_every_dispatch(), "{}", cold.phases[0].label);
            assert_eq!(all.len(), cold.phases.len() - 1, "{} is pinned", cold.phases[0].label);
            std::iter::once(pin_of_phase_0(cold)).chain(all).collect::<Vec<_>>()
        };
        for warm in [decode(3, &offer(&cold_step)), chunk(&offer(&cold_chunk))] {
            let (label, n) = (&warm.phases[0].label, warm.phases.len());
            let reuse = warm.reuse.unwrap();
            assert_eq!(
                (reuse.stale, reuse.elided_loads),
                (1, n - 1),
                "the {} pin is refused",
                label
            );
            assert!(warm.load_of(0).is_some(), "{} still loads", label);
            assert_eq!(warm.counts().loads, 1, "only {} loads", label);
        }
    }

    #[test]
    fn decode_step_rejects_bad_specs() {
        let cfg = unpadded(8);
        let bad = |spec: DecodeStepSpec| {
            ExecPlan::lower_decode_step(&cfg, Architecture::A2, spec, &[], IntegrityLevel::Off)
                .unwrap_err()
        };
        bad(DecodeStepSpec { step: 0, mem_len: 8, beam: 0, max_steps: 16 });
        bad(DecodeStepSpec { step: 0, mem_len: 0, beam: 1, max_steps: 16 });
        bad(DecodeStepSpec { step: 16, mem_len: 8, beam: 1, max_steps: 16 });
    }

    #[test]
    fn stream_chunk_lowers_ctx_then_the_encoder_layers_over_the_new_rows() {
        let cfg = unpadded(8);
        let n_enc = cfg.model.n_encoders;
        for arch in Architecture::ALL {
            let chunk = ExecPlan::lower_stream_chunk(&cfg, arch, 2, 4, &[]).unwrap();
            let eager = ExecPlan::lower(&cfg, arch, 8, 1, cfg.integrity).unwrap();
            let ctx = &chunk.phases[0];
            assert_eq!((&*ctx.label, ctx.kind), ("CTX", PhaseKind::StreamContext { rows: 4 }));
            // 12 layers x (K, V) x 4 rows x 512 f32 values
            assert_eq!(ctx.bytes, 196_608);
            for (c, e) in chunk.phases[1..].iter().zip(&eager.phases[..n_enc]) {
                assert_eq!((&c.label, c.bytes), (&e.label, e.bytes), "{:?}", arch);
                assert_eq!(c.kind, PhaseKind::StreamLayer { rows: 2, keys: 6 });
            }
            assert_eq!((chunk.batch, chunk.input_lens.clone()), (1, vec![2]));
            let c = chunk.counts();
            assert_eq!((c.loads, c.computes, c.barriers), (n_enc + 1, n_enc + 1, 1), "{:?}", arch);
            let cost = walk_cost(&cfg, &chunk);
            assert_eq!(cost.latency_s, cost.phase_compute_end_s[n_enc]);
        }
        // With no context the chunk's layers price exactly as the eager
        // schedule's encoder prefix at s = rows: CTX moves and computes
        // nothing, and the dropped decoders only ever ran after the prefix.
        let cfg = unpadded(6);
        for arch in Architecture::ALL {
            let chunk = ExecPlan::lower_stream_chunk(&cfg, arch, 6, 0, &[]).unwrap();
            let eager = ExecPlan::lower(&cfg, arch, 6, 1, cfg.integrity).unwrap();
            assert_eq!(chunk.phases[0].bytes, 0);
            let (chunk_cost, eager_cost) = (walk_cost(&cfg, &chunk), walk_cost(&cfg, &eager));
            assert_eq!(
                chunk_cost.phase_compute_end_s[1..],
                eager_cost.phase_compute_end_s[..n_enc],
                "{:?}",
                arch
            );
        }
    }

    #[test]
    fn stream_chunk_rejects_bad_windows_and_other_plan_kinds() {
        let cfg = unpadded(8);
        for (rows, context) in [(0usize, 4usize), (5, 4), (9, 0)] {
            let err = ExecPlan::lower_stream_chunk(&cfg, Architecture::A2, rows, context, &[])
                .unwrap_err();
            assert!(matches!(err, AccelError::InvalidStream { .. }), "{rows}+{context}: {err}");
        }
    }

    #[test]
    fn decode_analytics_shows_majority_elision_and_cheaper_steady_steps() {
        let cfg = unpadded(8);
        let a = decode_analytics(&cfg, Architecture::A2, 8, 1, 16, 5, IntegrityLevel::Off).unwrap();
        assert!(a.elided_fraction > 0.5, "elided {}", a.elided_fraction);
        assert!(a.steady_step_bytes < a.cold_step_bytes / 2);
        assert!(a.steady.latency_s < a.cold.latency_s, "steady steps skip the fills");
        assert!(a.steady_ms_per_token > 0.0);
        // beam-4 coalescing: one batched step is cheaper than four solo steps
        let b = decode_analytics(&cfg, Architecture::A2, 8, 4, 16, 5, IntegrityLevel::Off).unwrap();
        assert!(b.steady_ms_per_token < a.steady_ms_per_token * 4.0);
    }

    #[test]
    fn verify_nodes_appear_only_with_checks_enabled() {
        let cfg = unpadded(8);
        let off = ExecPlan::lower(&cfg, Architecture::A3, 8, 2, IntegrityLevel::Off).unwrap();
        assert_eq!(off.counts().verifies, 0);
        let det = ExecPlan::lower(&cfg, Architecture::A3, 8, 2, IntegrityLevel::Detect).unwrap();
        // one CRC verify per load + one ABFT verify per compute
        assert_eq!(det.counts().verifies, 24 + 24 * 2);
        // and the verify nodes change nothing about loads/computes
        assert_eq!(off.counts().loads, det.counts().loads);
        assert_eq!(off.counts().computes, det.counts().computes);
    }

    #[test]
    fn channel_bytes_cover_all_engine_channels() {
        let cfg = unpadded(8);
        let plan = ExecPlan::lower(&cfg, Architecture::A3, 8, 1, IntegrityLevel::Off).unwrap();
        let ch = plan.channel_load_bytes();
        assert_eq!(ch.len(), 4);
        assert!(ch.iter().all(|&b| b > 0), "{:?}", ch);
        let total: u64 = ch.iter().sum();
        let expected: u64 = plan.phases.iter().map(|p| p.bytes).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn lowering_is_deterministic() {
        let cfg = unpadded(8);
        let a = ExecPlan::lower(&cfg, Architecture::A3, 8, 3, IntegrityLevel::Detect).unwrap();
        let b = ExecPlan::lower(&cfg, Architecture::A3, 8, 3, IntegrityLevel::Detect).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn labels_past_the_name_table_are_the_formats_they_replace() {
        // 40 + 40 layers: every label past E12, D6, D6m and D6f is
        // formatted, and the plan prices as a table-named one does.
        let mut deep = unpadded(8);
        deep.model.n_encoders = 40;
        deep.model.n_decoders = 40;
        for arch in [Architecture::A1, Architecture::A3] {
            let plan = ExecPlan::lower(&deep, arch, 8, 1, IntegrityLevel::Off).unwrap();
            let mut want: Vec<String> = (1..=40).map(|i| format!("E{}", i)).collect();
            for i in 1..=40 {
                match arch {
                    Architecture::A3 => want.extend([format!("D{}m", i), format!("D{}f", i)]),
                    _ => want.push(format!("D{}", i)),
                }
            }
            assert_eq!(plan.phases.len(), want.len(), "{:?}", arch);
            for (p, label) in plan.phases.iter().zip(&want) {
                let got = [&*p.label, &*p.load_label, &*p.compute_label];
                assert_eq!(got, [label.clone(), format!("LW{}", label), format!("C{}", label)]);
            }
            let walk = walk_cost(&deep, &plan);
            let spans: Vec<&str> = walk.timeline.spans().iter().map(|s| &*s.label).collect();
            let want_spans: Vec<String> =
                want.iter().flat_map(|l| [format!("LW{}", l), format!("C{}", l)]).collect();
            assert_eq!(spans, want_spans, "{:?}", arch);
            let run = crate::host_runtime::run_plan(&deep, &plan);
            assert_eq!(walk.latency_s.to_bits(), run.makespan_s.to_bits(), "{:?}", arch);
            assert_eq!(walk.load_total_s.to_bits(), run.load_busy_s.to_bits(), "{:?}", arch);
        }
    }

    #[test]
    fn the_paper_and_serve_builds_borrow_every_label() {
        let borrowed = |l: &Cow<'static, str>| matches!(l, Cow::Borrowed(_));
        let serve = crate::serve::ServeConfig::new(2, 0, 120.0, 0.2).accel;
        for cfg in [AccelConfig::paper_default(), serve] {
            for arch in Architecture::ALL {
                let s = cfg.max_seq_len;
                let step = DecodeStepSpec::greedy(0, s, 16);
                let plans = [
                    ExecPlan::lower(&cfg, arch, s, 1, cfg.integrity).unwrap(),
                    ExecPlan::lower_stream_chunk(&cfg, arch, s / 2, s / 2, &[]).unwrap(),
                    ExecPlan::lower_decode_step(&cfg, arch, step, &[], cfg.integrity).unwrap(),
                ];
                for plan in &plans {
                    for p in &plan.phases {
                        let labels = [&p.label, &p.load_label, &p.compute_label];
                        assert!(labels.into_iter().all(borrowed), "{:?} {}", arch, p.label);
                    }
                    for s in walk_cost(&cfg, plan).timeline.spans() {
                        assert!(borrowed(&s.label), "{:?} span {}", arch, s.label);
                    }
                    let ckpt = PlanCheckpoint::at(plan, 1, 2, &[], 0.0);
                    assert!(ckpt.phase_labels.iter().all(borrowed), "{:?}", arch);
                    assert!(ckpt.resident.iter().map(|r| &r.label).all(borrowed), "{:?}", arch);
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_a_typed_error() {
        let cfg = unpadded(8);
        let err = ExecPlan::lower(&cfg, Architecture::A3, 8, 0, IntegrityLevel::Off).unwrap_err();
        assert!(matches!(err, AccelError::Config(_)), "{}", err);
    }

    #[test]
    fn oversized_utterance_is_a_typed_error() {
        let cfg = unpadded(4);
        let err = ExecPlan::lower(&cfg, Architecture::A3, 5, 1, IntegrityLevel::Off).unwrap_err();
        assert!(matches!(err, AccelError::InvalidInput { .. }), "{}", err);
    }

    #[test]
    fn terminal_barrier_depends_on_the_last_compute() {
        let cfg = unpadded(8);
        let plan = ExecPlan::lower(&cfg, Architecture::A3, 8, 2, IntegrityLevel::Off).unwrap();
        let last = plan.nodes.last().unwrap();
        assert_eq!(last.cmd, PlanCmd::Barrier);
        let last_compute = plan.last_compute_of(plan.phases.len() - 1);
        assert!(last_compute.is_some() && last.deps.contains(&last_compute));
    }

    #[test]
    fn resume_lowers_only_the_uncompleted_suffix() {
        let cfg = unpadded(8);
        let full = ExecPlan::lower(&cfg, Architecture::A3, 8, 2, IntegrityLevel::Detect).unwrap();
        let n = full.phases.len();
        let ckpt = PlanCheckpoint::at(&full, 10, 11, &[], 1.0e-3);
        let suffix = ExecPlan::resume(&cfg, &ckpt).unwrap();
        assert_eq!(suffix.phases.len(), n, "phase table stays whole for stable indices");
        for i in 0..10 {
            assert!(suffix.load_of(i).is_none());
            assert!(suffix.computes_of(i).is_empty());
        }
        let counts = suffix.counts();
        assert_eq!(counts.loads, n - 10, "untrusted resume re-loads the whole suffix");
        assert_eq!(counts.computes, (n - 10) * 2);
        let r = suffix.resume.as_ref().unwrap();
        assert_eq!(r.start_phase, 10);
        assert_eq!(r.skipped_computes, 10 * 2);
        let prefix_bytes: u64 = full.phases[..10].iter().map(|p| p.bytes).sum();
        assert_eq!(r.skipped_load_bytes, prefix_bytes);
        // phase 10 was already loaded (loaded_phases = 11), and the
        // resume fetches it again: its bytes are the replayed load traffic.
        assert_eq!(r.replayed_loads, 1);
        assert_eq!(r.replayed_load_bytes, full.phases[10].bytes);
    }

    #[test]
    fn poisoned_checkpoint_is_rejected_typed() {
        let cfg = unpadded(8);
        let full = ExecPlan::lower(&cfg, Architecture::A3, 8, 1, IntegrityLevel::Off).unwrap();
        let good = PlanCheckpoint::at(&full, 5, 6, &[], 0.0);
        assert!(ExecPlan::resume(&cfg, &good).is_ok());

        // A stale CRC on a resident stripe rejects, never silently reuses.
        let mut stale = good.clone();
        stale.resident[0].crc ^= 0xdead_beef;
        let err = ExecPlan::resume(&cfg, &stale).unwrap_err();
        assert!(matches!(err, AccelError::CheckpointRejected { .. }), "{}", err);

        let mut wrong_arch = good.clone();
        wrong_arch.arch = Architecture::A1;
        assert!(ExecPlan::resume(&cfg, &wrong_arch).is_err());

        let mut done = good;
        done.completed_phases = full.phases.len();
        done.loaded_phases = full.phases.len();
        let err = ExecPlan::resume(&cfg, &done).unwrap_err();
        assert!(matches!(err, AccelError::CheckpointRejected { .. }), "{}", err);
    }

    #[test]
    fn a_finished_prefix_past_the_batch_is_refused_typed() {
        // The paper build's batch of two, cut mid-run, then rewritten to
        // claim three finished utterances: the slice of the remaining
        // batch used to panic before any check ran.
        let cfg = AccelConfig::paper_default();
        let pair = ExecPlan::lower(&cfg, Architecture::A3, 32, 2, IntegrityLevel::Off).unwrap();
        let mut ckpt = PlanCheckpoint::at(&pair, 5, 6, &[], 0.0);
        ckpt.finished_utterances = 3;
        assert!(ckpt.remaining_lens().is_empty());
        assert!(!ckpt.work_remains());
        let err = ExecPlan::resume(&cfg, &ckpt).unwrap_err();
        assert!(matches!(err, AccelError::CheckpointRejected { .. }), "{}", err);
    }

    #[test]
    fn a_finished_prefix_ahead_of_the_compute_frontier_is_refused_typed() {
        // Utterance 0 of a batch of two cannot have finished while only 3
        // of 18 phases have computed for the whole batch: a resume would
        // silently drop its other 15.
        let cfg = unpadded(8);
        let pair = ExecPlan::lower(&cfg, Architecture::A2, 8, 2, IntegrityLevel::Off).unwrap();
        let n = pair.phases.len();
        let ckpt = PlanCheckpoint::at(&pair, 3, 4, &[1e-3], 2e-3);
        let err = ExecPlan::resume(&cfg, &ckpt).unwrap_err();
        assert!(matches!(err, AccelError::CheckpointRejected { .. }), "{}", err);
        // Once every phase but the last has computed for the whole batch,
        // utterance 0 may have finished: the last phase resumes for the
        // other one.
        let ckpt = PlanCheckpoint::at(&pair, n - 1, n, &[1e-3], 2e-3);
        let suffix = ExecPlan::resume(&cfg, &ckpt).unwrap();
        assert_eq!((suffix.batch, suffix.start_phase()), (1, n - 1));
    }

    #[test]
    fn resumed_walk_costs_less_than_the_full_plan() {
        let cfg = unpadded(8);
        for arch in Architecture::ALL {
            let full = ExecPlan::lower(&cfg, arch, 8, 2, IntegrityLevel::Off).unwrap();
            let mut prev = walk_cost(&cfg, &full).latency_s;
            for cut in 1..full.phases.len() {
                let ckpt = PlanCheckpoint::at(&full, cut, cut, &[], 0.0);
                let suffix = ExecPlan::resume(&cfg, &ckpt).unwrap();
                let cost = walk_cost(&cfg, &suffix);
                assert!(
                    cost.latency_s <= prev + 1e-12,
                    "{:?} cut {}: {} > {}",
                    arch,
                    cut,
                    cost.latency_s,
                    prev
                );
                prev = cost.latency_s;
            }
        }
    }

    #[test]
    fn resident_reuse_elides_matching_stripes() {
        let cfg = unpadded(8);
        for arch in Architecture::ALL {
            let cold = ExecPlan::lower(&cfg, arch, 8, 1, IntegrityLevel::Off).unwrap();
            assert_eq!(cold.reuse, None, "cold plans carry no reuse accounting");
            let pinned = cold.pinned_stripes(4);
            assert_eq!(pinned.len(), 4);
            let warm =
                ExecPlan::lower_batch(&cfg, arch, &[8], IntegrityLevel::Off, &pinned).unwrap();
            let reuse = warm.reuse.expect("warm plan carries reuse accounting");
            assert_eq!(reuse.offered, 4);
            assert_eq!(reuse.elided_loads, 4);
            assert_eq!(reuse.stale, 0);
            let pinned_bytes: u64 = cold.phases[..4].iter().map(|p| p.bytes).sum();
            assert_eq!(reuse.elided_load_bytes, pinned_bytes);
            for i in 0..4 {
                assert!(warm.load_of(i).is_none(), "{:?} phase {} load must be elided", arch, i);
                assert!(!warm.computes_of(i).is_empty(), "computes still run from residency");
            }
            assert_eq!(warm.counts().loads, cold.counts().loads - 4);
            assert_eq!(warm.counts().computes, cold.counts().computes);
            // Fewer bytes on the wire can only help the critical path.
            let (cold_s, warm_s) =
                (walk_cost(&cfg, &cold).latency_s, walk_cost(&cfg, &warm).latency_s);
            assert!(warm_s <= cold_s + 1e-12, "{:?}: warm {} > cold {}", arch, warm_s, cold_s);
        }
    }

    #[test]
    fn stale_resident_stripes_reload_instead_of_eliding() {
        let cfg = unpadded(8);
        let cold = ExecPlan::lower(&cfg, Architecture::A2, 8, 1, IntegrityLevel::Off).unwrap();
        let mut pinned = cold.pinned_stripes(3);
        pinned[1].crc ^= 0xdead_beef; // the cache entry no longer matches HBM
        let warm =
            ExecPlan::lower_batch(&cfg, Architecture::A2, &[8], IntegrityLevel::Off, &pinned)
                .unwrap();
        let reuse = warm.reuse.unwrap();
        assert_eq!(reuse.offered, 3);
        assert_eq!(reuse.elided_loads, 2);
        assert_eq!(reuse.stale, 1);
        assert!(warm.load_of(0).is_none());
        assert!(warm.load_of(1).is_some(), "stale stripe re-loads; never trusted");
        assert!(warm.load_of(2).is_none());
        // A stripe naming a phase past the schedule is stale too, not a panic.
        let mut beyond = cold.pinned_stripes(1);
        beyond[0].phase = cold.phases.len() + 7;
        let plan =
            ExecPlan::lower_batch(&cfg, Architecture::A2, &[8], IntegrityLevel::Off, &beyond)
                .unwrap();
        assert_eq!(plan.reuse.unwrap().stale, 1);
        assert_eq!(plan.reuse.unwrap().elided_loads, 0);
    }

    #[test]
    fn reuse_survives_verify_nodes_and_keeps_compute_verifies() {
        // With integrity on, an elided load drops its CRC verify (there is
        // no fetch to check) but every compute keeps its ABFT verify.
        let cfg = unpadded(8);
        let cold = ExecPlan::lower(&cfg, Architecture::A2, 8, 1, IntegrityLevel::Detect).unwrap();
        let pinned = cold.pinned_stripes(4);
        let warm =
            ExecPlan::lower_batch(&cfg, Architecture::A2, &[8], IntegrityLevel::Detect, &pinned)
                .unwrap();
        assert_eq!(warm.counts().loads, cold.counts().loads - 4);
        assert_eq!(warm.counts().verifies, cold.counts().verifies - 4);
        assert_eq!(warm.counts().computes, cold.counts().computes);
    }

    #[test]
    fn resume_on_a_different_weight_version_is_rejected_typed() {
        let cfg = unpadded(8);
        let full = ExecPlan::lower(&cfg, Architecture::A2, 8, 2, IntegrityLevel::Off).unwrap();
        assert_eq!(full.weight_version, 0);
        let ckpt = PlanCheckpoint::at(&full, 4, 5, &[], 1.0e-3);
        assert_eq!(ckpt.weight_version, 0);
        // The same device after a weight reflash: the banked prefix was
        // computed under v0 weights and must not complete under v1.
        let mut flashed = cfg.clone();
        flashed.weight_version = 1;
        let err = ExecPlan::resume(&flashed, &ckpt).unwrap_err();
        match err {
            AccelError::CheckpointRejected { reason } => {
                assert!(reason.contains("weight version"), "{}", reason)
            }
            other => panic!("expected CheckpointRejected, got {}", other),
        }
        // Identical version resumes fine.
        assert!(ExecPlan::resume(&cfg, &ckpt).is_ok());
    }

    #[test]
    fn version_stale_resident_stripes_reload_with_typed_accounting() {
        let cfg = unpadded(8);
        let cold = ExecPlan::lower(&cfg, Architecture::A2, 8, 1, IntegrityLevel::Off).unwrap();
        let pinned = cold.pinned_stripes(3);
        let mut flashed = cfg.clone();
        flashed.weight_version = 2;
        // Stripes pinned under v0 offered to a v2 lowering: every elision
        // is refused and the refusal is typed as a version stale, not a
        // generic CRC mismatch.
        let warm =
            ExecPlan::lower_batch(&flashed, Architecture::A2, &[8], IntegrityLevel::Off, &pinned)
                .unwrap();
        let reuse = warm.reuse.unwrap();
        assert_eq!(reuse.offered, 3);
        assert_eq!(reuse.elided_loads, 0);
        assert_eq!(reuse.stale, 3);
        assert_eq!(reuse.stale_version, 3);
        for i in 0..3 {
            assert!(warm.load_of(i).is_some(), "phase {} must re-fetch v2 weights", i);
        }
        // Same-version stripes still elide, and the plan tags its loads.
        let v2 = warm.pinned_stripes(3);
        let rewarm =
            ExecPlan::lower_batch(&flashed, Architecture::A2, &[8], IntegrityLevel::Off, &v2)
                .unwrap();
        assert_eq!(rewarm.reuse.unwrap().elided_loads, 3);
        assert_eq!(rewarm.reuse.unwrap().stale_version, 0);
        for n in &rewarm.nodes {
            if let PlanCmd::LoadStripe { version, .. } = n.cmd {
                assert_eq!(version, 2, "every load carries the lowering's weight version");
            }
        }
    }

    #[test]
    fn cross_encoding_resident_stripes_are_stale_despite_identical_bytes() {
        // Block-circulant at block 4 and int8 move the same byte count per
        // encoder stripe (its 3,152,384 weights divide by 4) — a case where
        // label+bytes alone cannot tell the codecs apart. The stripe CRC
        // folds in the encoding digest, so the elision ledger still refuses
        // the swap.
        let mut bc = unpadded(8);
        bc.encoding = WeightEncoding::BlockCirculant { block: 4 };
        let cold = ExecPlan::lower(&bc, Architecture::A2, 8, 1, IntegrityLevel::Off).unwrap();
        let pinned = cold.pinned_stripes(3);
        let mut int8 = bc.clone();
        int8.encoding = WeightEncoding::Int8;
        let int8_cold =
            ExecPlan::lower(&int8, Architecture::A2, 8, 1, IntegrityLevel::Off).unwrap();
        assert_eq!(int8_cold.phases[0].bytes, cold.phases[0].bytes, "byte counts collide");
        let warm =
            ExecPlan::lower_batch(&int8, Architecture::A2, &[8], IntegrityLevel::Off, &pinned)
                .unwrap();
        let reuse = warm.reuse.unwrap();
        assert_eq!(reuse.offered, 3);
        assert_eq!(reuse.elided_loads, 0, "block-circulant bytes must not satisfy int8 loads");
        assert_eq!(reuse.stale, 3);
    }

    #[test]
    fn resume_under_another_encoding_is_rejected_typed() {
        let cfg = unpadded(8);
        let full = ExecPlan::lower(&cfg, Architecture::A2, 8, 2, IntegrityLevel::Off).unwrap();
        let ckpt = PlanCheckpoint::at(&full, 4, 5, &[], 1.0e-3);
        assert_eq!(ckpt.encoding, WeightEncoding::Dense);
        // The node restarts with a block-circulant build: the banked dense
        // prefix is meaningless under the new codec.
        let mut bc = cfg.clone();
        bc.encoding = WeightEncoding::BlockCirculant { block: 8 };
        let err = ExecPlan::resume(&bc, &ckpt).unwrap_err();
        match err {
            AccelError::CheckpointRejected { reason } => {
                assert!(reason.contains("encoding"), "{}", reason)
            }
            other => panic!("expected CheckpointRejected, got {}", other),
        }
        assert!(ExecPlan::resume(&cfg, &ckpt).is_ok());
    }

    #[test]
    fn sparse_plans_shrink_loads_and_skip_zero_tiles_in_the_walker() {
        let dense = unpadded(8);
        let mut sparse = dense.clone();
        sparse.encoding = WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 60 };
        let dplan = ExecPlan::lower(&dense, Architecture::A2, 8, 1, IntegrityLevel::Off).unwrap();
        let splan = ExecPlan::lower(&sparse, Architecture::A2, 8, 1, IntegrityLevel::Off).unwrap();
        assert!(
            splan.scheduled_load_bytes() < dplan.scheduled_load_bytes(),
            "absent tiles never cross HBM"
        );
        let dcost = walk_cost(&dense, &dplan);
        let scost = walk_cost(&sparse, &splan);
        assert_eq!(dcost.skipped_compute_s, 0.0, "dense plans skip nothing");
        assert!(scost.skipped_compute_s > 0.0);
        // Every compute span scales by the 60% occupancy, so the totals do too.
        assert!((scost.compute_total_s / dcost.compute_total_s - 0.6).abs() < 1e-9);
        assert!(
            (scost.compute_total_s + scost.skipped_compute_s - dcost.compute_total_s).abs() < 1e-9,
            "issued + skipped == the dense compute budget"
        );
    }

    #[test]
    fn int8_plans_schedule_a_quarter_of_the_dense_load_bytes() {
        let dense = unpadded(8);
        let mut int8 = dense.clone();
        int8.encoding = WeightEncoding::Int8;
        let dplan = ExecPlan::lower(&dense, Architecture::A2, 8, 1, IntegrityLevel::Off).unwrap();
        let qplan = ExecPlan::lower(&int8, Architecture::A2, 8, 1, IntegrityLevel::Off).unwrap();
        assert_eq!(dplan.scheduled_load_bytes(), 4 * qplan.scheduled_load_bytes());
        // Lossless-by-construction walker pin: int8 shrinks loads only,
        // never compute.
        let dcost = walk_cost(&dense, &dplan);
        let qcost = walk_cost(&int8, &qplan);
        assert_eq!(qcost.skipped_compute_s, 0.0);
        assert!((qcost.compute_total_s - dcost.compute_total_s).abs() < 1e-12);
        assert!(qcost.latency_s <= dcost.latency_s);
    }

    #[test]
    fn a3_plans_schedule_the_pinned_weight_bytes() {
        let solo = |cfg: &AccelConfig| {
            ExecPlan::lower(cfg, Architecture::A3, cfg.max_seq_len, 1, IntegrityLevel::Off)
                .unwrap()
                .scheduled_load_bytes()
        };
        let paper = AccelConfig::paper_default();
        for (encoding, bytes) in [
            (WeightEncoding::Dense, 252_211_200),
            (WeightEncoding::Int8, 63_052_800),
            (WeightEncoding::BlockCirculant { block: 8 }, 31_526_400),
            (WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 60 }, 151_819_308),
        ] {
            let cfg = AccelConfig { encoding, ..paper.clone() };
            assert_eq!(solo(&cfg), bytes, "{encoding}");
        }
        assert_eq!(solo(&crate::quant::int8_config(&paper)), 63_052_800);
        assert_eq!(solo(&crate::serve::ServeConfig::new(2, 7, 50.0, 0.2).accel), 63_052_800);
        let stream = crate::stream::StreamConfig::new(4, 1, 4, 0.06).accel;
        let (rows, context) = (crate::stream::CHUNK_STEPS, crate::stream::LEFT_CONTEXT);
        let chunk = ExecPlan::lower_stream_chunk(&stream, Architecture::A3, rows, context, &[]);
        assert_eq!(chunk.unwrap().scheduled_load_bytes(), 38_025_216);
    }

    #[test]
    fn frontier_at_walks_the_analytic_barrier_schedule() {
        let cfg = unpadded(8);
        let plan = ExecPlan::lower(&cfg, Architecture::A3, 8, 2, IntegrityLevel::Off).unwrap();
        let cost = walk_cost(&cfg, &plan);
        assert_eq!(cost.phase_compute_end_s.len(), plan.phases.len());
        // Before anything retires: empty frontier. After the makespan: full.
        assert_eq!(cost.frontier_at(0.0), (0, 0));
        let (done, loaded) = cost.frontier_at(cost.latency_s + 1e-9);
        assert_eq!(done, plan.phases.len());
        assert_eq!(loaded, plan.phases.len());
        // Mid-run the frontier is monotone and loads never trail computes.
        let mut prev = (0usize, 0usize);
        for k in 1..=20 {
            let t = cost.latency_s * (k as f64) / 20.0;
            let (c, l) = cost.frontier_at(t);
            assert!(c >= prev.0 && l >= prev.1, "monotone");
            assert!(l >= c, "loads never trail computes");
            // A frontier cut at this instant must be a valid checkpoint.
            if c > 0 && c < plan.phases.len() {
                let ck = PlanCheckpoint::at(&plan, c, l, &[], t);
                assert!(ExecPlan::resume(&cfg, &ck).is_ok(), "cut at {} resumes", t);
            }
            prev = (c, l);
        }
    }
}
