//! The 18-layer schedule expressed through the OpenCL-style runtime model.
//!
//! `arch::simulate` prices the lowered [`ExecPlan`] analytically; this
//! module *executes* the same plan through the event-based
//! [`asr_fpga_sim::runtime::Runtime`] — command queues, buffers, events —
//! exactly as the paper's host code does through OpenCL (§2.2.7). One
//! executor, [`run_plan_with_recovery`], replays the plan's
//! `LoadStripe`/`Compute` nodes under a fault plan with the full
//! retry/degradation machinery; [`run_plan`] is that executor with nothing
//! armed, the fault-free replay. The analytic walker and this executor are
//! independent consumers of one IR, and the tests pin them to each other: a
//! disagreement means one of them mis-models the overlap structure. Both
//! entry points take a plan the caller lowered ([`ExecPlan::lower`],
//! [`ExecPlan::resume`], [`ExecPlan::lower_stream_chunk`] or
//! [`ExecPlan::lower_decode_step`]); neither lowers one itself.
//!
//! Every command's [`CommandStatus`] is checked, transient failures are
//! retried with exponential backoff, hangs are reaped by the watchdog and
//! relaunched, and permanent faults walk the **degradation ladder**:
//!
//! * losing one of A3's two prefetch engines degrades A3 → A2 (all loads on
//!   the survivor, prefetching preserved);
//! * losing the last prefetch engine degrades A2 → A1 (a recovery DMA path
//!   that cannot overlap compute: every load waits for the previous layer's
//!   compute);
//! * losing an SLR halves the PSA pool (`psas_per_slr` halved, and
//!   `parallel_heads` halved only when they stop dividing the pool) and
//!   relaunches every remaining kernel on the surviving SLR.
//!
//! Fault markers and recovery decisions are both recorded on the timeline's
//! [`FAULT_UNIT`] track, so a degraded run's Gantt chart shows *what broke
//! and what the host did about it*.
//!
//! Loud faults fail commands; **silent** ones don't. A load that completed
//! with corrupt payload ([`Runtime::payload_corrupt`]) is only caught here
//! if the config's [`crate::config::AccelConfig::integrity`] level has the
//! CRC checks on: the host then re-fetches the stripe (bounded by the same
//! four-attempt budget as a retry) and fails typed with
//! [`AccelError::CorruptWeights`] if clean bytes never arrive. A sticky PSA
//! lane is caught by the ABFT column checksums: `Detect` fails typed
//! ([`AccelError::CorruptCompute`], nothing can repair it), while
//! `DetectAndRecompute` re-runs the corrupted tiles and charges the extra
//! PSA cycles (DESIGN.md §9 cost model). Every decision lands on the
//! [`FAULT_UNIT`] track as an `integrity:` annotation, and the run's
//! [`CorruptionCounters`] report injected/detected/refetched/recomputed/
//! escaped totals.

use crate::arch::Architecture;
use crate::calib;
use crate::config::AccelConfig;
use crate::error::{AccelError, Result};
use crate::integrity::{crc_refetch_step, CorruptionCounters, CrcStep};
use crate::plan::{phase_compute_table, ExecPlan, PlanCheckpoint, PlanCmd};
use asr_fpga_sim::device::SlrId;
use asr_fpga_sim::faults::{FaultKind, FaultPlan};
use asr_fpga_sim::runtime::{CommandStats, CommandStatus, Event, QueueId, Runtime, FAULT_UNIT};

/// Per-utterance kernel label: the solo stream keeps the historical
/// `C{phase}` labels (bit-identity with every pre-batching pin), a batched
/// stream names each utterance's slice `C{phase}[u{n}]` so fault plans can
/// target a single utterance mid-batch.
fn kernel_label(phase: &str, batch: usize, u: usize) -> String {
    if batch == 1 {
        format!("C{}", phase)
    } else {
        format!("C{}[u{}]", phase, u)
    }
}

/// Count the HBM weight loads a run actually issued and the seconds its
/// prefetch engines spent busy, off the timeline (backoff pauses parked on
/// the `maxi-*` queues are excluded). Busy seconds are summed per engine,
/// then over the engines, as the walker sums its `PlanCost::load_total_s`;
/// the total starts from `Iterator::sum`'s empty value, so a plan that
/// loads nothing reports the walker's `-0.0`.
fn load_stats(rt: &Runtime) -> (usize, f64) {
    let mut issued = 0usize;
    let mut busy = -0.0f64;
    for unit in rt.timeline().units() {
        if !unit.starts_with("maxi") {
            continue;
        }
        let mut unit_busy = 0.0f64;
        for span in rt.timeline().unit_spans(unit) {
            if span.label.trim_start_matches(['!', '~']).starts_with("LW") {
                issued += 1;
                unit_busy += span.end - span.start;
            }
        }
        busy += unit_busy;
    }
    (issued, busy)
}

/// The fault-free replay: [`run_plan_with_recovery`] with nothing armed.
/// Every `LoadStripe` becomes an HBM load on its assigned engine queue
/// (`maxi-{e}`), every `Compute` a kernel on its assigned SLR, with the
/// plan's edges mapped to runtime events. A kernel runs its phase's
/// recurrence, less the tiles a sparse stripe encoding skips, as the walker
/// prices it. `Verify` and `Barrier` nodes are semantic markers — CRC cost
/// lives in the payload checks, ABFT cost in the kernel cycles — so they
/// dispatch nothing. At batch 1 the result is bit for bit what
/// [`crate::plan::walk_cost`] prices: makespan, load busy seconds and every
/// phase's compute end.
pub fn run_plan(cfg: &AccelConfig, plan: &ExecPlan) -> BatchedRun {
    run_plan_with_recovery(cfg, plan, FaultPlan::none()).expect(
        "an unarmed run cannot fail: no fault fires, and every healthy command fits its \
         watchdog budget",
    )
}

/// Attempts allowed per command, the first included: a transient fault
/// that outlasts them makes the run [`AccelError::Unrecoverable`]. The same
/// budget bounds CRC refetches of a corrupt stripe
/// ([`crate::integrity::crc_refetch_step`]).
pub(crate) const MAX_ATTEMPTS: u32 = 4;

/// First retry backoff, seconds; it doubles on each further retry
/// (modelled as host-side latency on the failing queue).
const BACKOFF_BASE_S: f64 = 1e-4;

/// Per-command watchdog timeout: a hung command is reaped after this many
/// seconds or its own nominal duration, whichever is longer
/// ([`Runtime::set_watchdog`]).
const WATCHDOG_S: f64 = 0.05;

/// The pause before retry number `attempts` (1-based).
fn backoff_s(attempts: u32) -> f64 {
    BACKOFF_BASE_S * f64::powi(2.0, attempts as i32 - 1)
}

/// Worst-case seconds one command can spend backing off before its
/// attempt budget runs out. Serving-tier admission charges this against
/// the request deadline so recovery backoff cannot silently blow past an
/// admission-checked deadline.
pub(crate) fn max_total_backoff_s() -> f64 {
    (1..MAX_ATTEMPTS).map(backoff_s).sum()
}

/// One recovery decision, as recorded on the timeline's fault track.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Simulation time of the decision, seconds.
    pub time_s: f64,
    /// Phase being scheduled (e.g. `"E3"`, `"D2f"`).
    pub phase: String,
    /// What the host did (retry, degrade, reschedule) and why.
    pub detail: String,
}

/// Outcome of a plan run that survived to completion, faulted or not: a
/// solo, batched, resumed, stream-chunk or decode-step plan alike.
#[derive(Debug, Clone)]
pub struct BatchedRun {
    /// The runtime (work spans, fault markers, recovery annotations).
    pub runtime: Runtime,
    /// Makespan of the whole batch with faults and recovery, seconds. The
    /// fault overhead is this over [`run_plan`]'s makespan of the same
    /// plan, less one.
    pub makespan_s: f64,
    /// Utterances in the batch.
    pub batch: usize,
    /// Per-utterance completion times (finish of each utterance's final
    /// phase), seconds.
    pub utterance_finish_s: Vec<f64>,
    /// HBM weight loads issued (one per phase per attempt, never per
    /// utterance).
    pub loads_issued: usize,
    /// Seconds the prefetch engines spent moving weights.
    pub load_busy_s: f64,
    /// Architecture the run started at.
    pub entry_arch: Architecture,
    /// Architecture the run finished at (after any ladder descent).
    pub final_arch: Architecture,
    /// SLR that dropped out, if one did.
    pub dead_slr: Option<usize>,
    /// Total retries spent on transient faults.
    pub retries: u32,
    /// Every recovery decision, in order.
    pub events: Vec<RecoveryEvent>,
    /// Silent-corruption accounting (CRC + ABFT), per DESIGN.md §9.
    pub corruption: CorruptionCounters,
    /// Phase barriers crossed — each one a point the run checkpointed at
    /// (a resumed plan counts only the suffix's barriers).
    pub checkpoints: u32,
    /// The skipped/replayed accounting of the resume lowering, when this
    /// run executed a checkpointed suffix rather than a full plan.
    pub resume: Option<crate::plan::PlanResume>,
}

/// A batched run that died mid-flight: the typed error, when the device
/// gave up, and which utterances had already finished every phase — the
/// serving layer fails over only the rest.
#[derive(Debug, Clone)]
pub struct BatchFailure {
    /// The typed error that ended the run.
    pub error: AccelError,
    /// When the host detected the failure, seconds into the run (0 for
    /// pre-dispatch errors such as a sticky lane caught at `Detect`).
    pub at_s: f64,
    /// Completion times of the utterances that finished their final phase
    /// before the failure (a prefix of the batch, in utterance order).
    pub finished_s: Vec<f64>,
    /// The barrier-granular frontier the run had reached when it died —
    /// what a checkpointing caller resumes from (same device after a
    /// transient, or the failover target cross-device). `None` only for
    /// errors raised before any dispatch state existed (e.g. lowering).
    pub checkpoint: Option<PlanCheckpoint>,
    /// Command-level statistics of the dead run, watchdog kills included —
    /// the health signal the serving tier folds into its routing EWMA.
    pub stats: CommandStats,
}

/// A failure with nothing finished, no checkpoint and no command stats —
/// what a lowering error is. The failure time is read off the error: the
/// detection time of an `Unrecoverable` or `CorruptWeights`, else 0.
impl From<AccelError> for BatchFailure {
    fn from(error: AccelError) -> Self {
        let at_s = match &error {
            AccelError::Unrecoverable { at_s, .. } | AccelError::CorruptWeights { at_s, .. } => {
                *at_s
            }
            _ => 0.0,
        };
        BatchFailure {
            error,
            at_s,
            finished_s: Vec::new(),
            checkpoint: None,
            stats: CommandStats::default(),
        }
    }
}

/// What a replay has done so far: the runtime it drives, the decisions it
/// recorded, and its barrier-granular frontier in absolute phase indices
/// (a resumed plan starts past its cut, so a second failure checkpoints
/// *forward* of the first — double faults compose).
struct Replay<'p> {
    plan: &'p ExecPlan,
    rt: Runtime,
    events: Vec<RecoveryEvent>,
    retries: u32,
    finished_s: Vec<f64>,
    completed_phases: usize,
    loaded_through: usize,
}

impl Replay<'_> {
    /// Record a decision on the fault track and in the run's event list.
    fn record(&mut self, t: f64, phase: &str, kind: &str, detail: String) {
        self.rt.annotate(FAULT_UNIT, format!("{}: {}", kind, detail), t);
        self.events.push(RecoveryEvent { time_s: t, phase: phase.to_string(), detail });
    }

    /// End the run with `error`, shipping the frontier as a typed
    /// checkpoint plus the dead run's command stats.
    fn fail(&self, error: AccelError) -> BatchFailure {
        let failure = BatchFailure::from(error);
        let checkpoint = Some(PlanCheckpoint::at(
            self.plan,
            self.completed_phases,
            self.loaded_through,
            &self.finished_s,
            failure.at_s,
        ));
        let finished_s = self.finished_s.clone();
        BatchFailure { finished_s, checkpoint, stats: self.rt.command_stats(), ..failure }
    }

    /// The transient-retry rule, one for loads and kernels: attempt
    /// `attempts` of `label` failed or was reaped. Inside the budget its
    /// queue backs off (the pause doubles each retry) and the decision is
    /// recorded as `{verb} #{attempts}`; the attempt that exhausts the
    /// budget makes the run [`AccelError::Unrecoverable`].
    #[allow(clippy::result_large_err)]
    fn retry(
        &mut self,
        queue: QueueId,
        phase: &str,
        label: &str,
        verb: &str,
        attempts: u32,
        failed: Event,
    ) -> std::result::Result<(), BatchFailure> {
        let t = self.rt.finish_time(failed);
        if attempts >= MAX_ATTEMPTS {
            return Err(self.fail(AccelError::Unrecoverable {
                phase: phase.to_string(),
                label: label.to_string(),
                attempts,
                at_s: t,
            }));
        }
        let backoff = backoff_s(attempts);
        self.rt.enqueue_backoff(queue, format!("backoff#{} {}", attempts, label), backoff, &[]);
        self.retries += 1;
        let detail =
            format!("{} #{} of {} after {:.1} us backoff", verb, attempts, label, backoff * 1e6);
        self.record(t, phase, "recovery", detail);
        Ok(())
    }
}

/// The plan executor: replay an [`ExecPlan`] under a [`FaultPlan`],
/// checking every command's [`CommandStatus`]. Transient failures retry
/// against the plan node's own dependency edges, four attempts per command
/// with a 0.1 ms backoff that doubles, and a watchdog reaps a hung command
/// after 50 ms or its nominal duration, whichever is longer; permanent
/// engine loss drops the node's engine assignment and walks the A3 → A2 →
/// A1 ladder (at A1 every remaining `LoadStripe` gains the serialize edge
/// the A1 lowering would have given it); SLR loss halves the PSA pool and
/// re-routes every remaining `Compute` node onto the survivor; silent
/// corruption is answered per the plan's `Verify` semantics (CRC refetch
/// via [`crate::integrity::crc_refetch_step`], ABFT stretch or typed
/// failure). Each kernel's seconds come from
/// `plan::phase_compute_table`, rebuilt only after an SLR loss.
// The failure path is cold and consumed immediately; a boxed error
// would just push the indirection onto every caller.
#[allow(clippy::result_large_err)]
pub fn run_plan_with_recovery(
    cfg: &AccelConfig,
    plan: &ExecPlan,
    faults: FaultPlan,
) -> std::result::Result<BatchedRun, BatchFailure> {
    // Silent PSA faults never fail a command, so they must be read off the
    // fault plan before it moves into the runtime.
    let sticky_lanes =
        faults.faults().iter().filter(|k| matches!(k, FaultKind::PsaStickyLane { .. })).count()
            as u64;

    let mut rt = Runtime::with_faults(cfg.device.clone(), faults);
    rt.set_watchdog(Some(WATCHDOG_S));
    rt.set_plan_tag(plan.tag());

    let mut engines: Vec<QueueId> =
        (0..plan.engines()).map(|e| rt.create_queue(format!("maxi-{}", e))).collect();
    let compute_queue = rt.create_queue("kernels");

    let start = plan.start_phase();
    let mut run = Replay {
        plan,
        rt,
        events: Vec::new(),
        retries: 0,
        finished_s: Vec::with_capacity(plan.batch),
        completed_phases: start,
        loaded_through: start,
    };
    let phases = &plan.phases;
    let mut level = plan.arch;
    let mut live_cfg = cfg.clone();
    let mut compute_s = phase_compute_table(cfg, plan);
    let mut dead_slr: Option<usize> = None;
    let mut corruption = CorruptionCounters::default();

    // A sticky PSA lane corrupts tiles in every phase; what happens next is
    // the integrity level's call. `Detect` has no repair path — fail typed
    // before wasting the run. `DetectAndRecompute` re-runs the faulty PSA's
    // tiles: one extra PSA's worth of work per pass, re-spread across the
    // pool, stretches every kernel by `1/n_psas()` (DESIGN.md §9 cost model).
    let mut kernel_stretch = 1.0f64;
    if sticky_lanes > 0 {
        corruption.injected += sticky_lanes;
        if plan.integrity.recomputes() {
            corruption.detected += sticky_lanes;
            corruption.recomputed += sticky_lanes;
            kernel_stretch = 1.0 + sticky_lanes as f64 / cfg.n_psas() as f64;
            let detail = format!(
                "sticky PSA lane: ABFT recompute engaged, kernels stretched {:.3}x",
                kernel_stretch
            );
            run.record(0.0, &phases[0].label, "integrity", detail);
        } else if plan.integrity.checks_enabled() {
            let phase = phases[0].label.clone();
            return Err(run.fail(AccelError::CorruptCompute { phase, tiles: sticky_lanes }));
        } else {
            corruption.escaped += sticky_lanes;
        }
    }

    let last_phase = phases.len() - 1;
    // Runtime event of each plan node already replayed (what dependency
    // edges resolve to); retries overwrite the slot with the last attempt.
    let mut node_events: Vec<Option<Event>> = vec![None; plan.nodes.len()];
    let deps_of = |node_events: &[Option<Event>], id: usize| -> Vec<Event> {
        let deps = &plan.nodes[id].deps;
        deps.iter().map(|&d| node_events[d].expect("plan deps precede their node")).collect()
    };
    let mut checkpoints = 0u32;
    for (i, p) in phases.iter().enumerate() {
        if plan.load_of(i).is_none() && plan.computes_of(i).is_empty() {
            // Completed before a resume cut: no work to replay.
            continue;
        }
        // ---- load node (once for the whole batch), with retry /
        // engine-ladder recovery. Skipped entirely when the stripe is
        // trusted resident from the checkpointed run (same-device resume).
        if let Some(lw_id) = plan.load_of(i) {
            let load_label = format!("LW{}", p.label);
            let mut attempts = 0u32;
            let load_ev = loop {
                let slot = i % engines.len();
                // The plan's static prefetch edges, plus — after a mid-run
                // descent to A1 — the serialize edge the A1 lowering would have
                // emitted: no prefetch rung left, loads wait out compute.
                let mut deps = deps_of(&node_events, lw_id);
                if level == Architecture::A1 && plan.arch != Architecture::A1 && i >= 1 {
                    if let Some(c) = plan.last_compute_of(i - 1) {
                        deps.push(node_events[c].expect("previous phase computed"));
                    }
                }
                let lw = run.rt.enqueue_hbm_load(
                    engines[slot],
                    load_label.clone(),
                    p.bytes,
                    calib::HBM_CHANNELS_A1_A2,
                    &deps,
                );
                attempts += 1;
                match run.rt.status(lw) {
                    CommandStatus::Completed => {
                        // The DMA reported success — but is the payload clean?
                        // Silent HBM/DMA corruption only trips the CRC check;
                        // the shared refetch step decides what happens next.
                        let corrupt = run.rt.payload_corrupt(lw);
                        if corrupt {
                            corruption.injected += 1;
                        }
                        match crc_refetch_step(
                            corrupt,
                            plan.integrity.checks_enabled(),
                            attempts,
                            &mut corruption,
                        ) {
                            CrcStep::Accept | CrcStep::Escape => break lw,
                            CrcStep::Exhausted => {
                                return Err(run.fail(AccelError::CorruptWeights {
                                    phase: p.label.clone(),
                                    label: load_label,
                                    attempts,
                                    at_s: run.rt.finish_time(lw),
                                }));
                            }
                            CrcStep::Refetch => {
                                let t = run.rt.finish_time(lw);
                                let tag = run.rt.corruption_tag(lw).unwrap_or("corrupt payload");
                                let detail = format!(
                                    "{} on {}: CRC mismatch, refetch #{}",
                                    tag, load_label, attempts
                                );
                                run.record(t, &p.label, "integrity", detail);
                            }
                        }
                    }
                    CommandStatus::Failed(cause) if cause.is_permanent() => {
                        let t = run.rt.finish_time(lw);
                        engines.remove(slot);
                        attempts = 0; // degradation re-issues the command with a fresh budget
                        let detail = if engines.is_empty() {
                            // Last prefetch engine gone: fall to A1 on a
                            // recovery DMA path that cannot overlap compute.
                            engines.push(run.rt.create_queue("maxi-recovery"));
                            level = Architecture::A1;
                            "engine lost, degrade to A1 (no prefetch)".to_string()
                        } else {
                            let was = level;
                            level = Architecture::A2;
                            format!(
                                "engine lost, degrade {} -> A2 (single prefetch engine)",
                                was.name()
                            )
                        };
                        run.record(t, &p.label, "recovery", detail);
                    }
                    // Transient failure or watchdog timeout: back off and retry.
                    _ => run.retry(engines[slot], &p.label, &load_label, "retry", attempts, lw)?,
                }
            };

            node_events[lw_id] = Some(load_ev);
        }
        // Loaded (or trusted resident): the stripe frontier advances.
        run.loaded_through = run.loaded_through.max(i + 1);

        // ---- compute nodes: the batch's utterances back-to-back under the
        // resident layer, each with retry / SLR-ladder recovery ----
        for (u, &ck_id) in plan.computes_of(i).iter().enumerate() {
            let kernel_label = kernel_label(&p.label, plan.batch, u);
            let mut attempts = 0u32;
            let ck = loop {
                // The plan's static SLR assignment, unless an SLR died:
                // then every remaining compute re-routes to the survivor.
                let slr = match dead_slr {
                    Some(d) => SlrId::from_index(1 - d),
                    None => {
                        let PlanCmd::Compute { slr, .. } = plan.nodes[ck_id].cmd else {
                            unreachable!("computes_of indexes Computes")
                        };
                        SlrId::from_index(slr)
                    }
                };
                let ck = run.rt.enqueue_kernel(
                    compute_queue,
                    kernel_label.clone(),
                    slr,
                    plan.occupied_s(compute_s[i]) * kernel_stretch,
                    &deps_of(&node_events, ck_id),
                );
                attempts += 1;
                match run.rt.status(ck) {
                    CommandStatus::Completed => break ck,
                    CommandStatus::Failed(cause) if cause.is_permanent() => {
                        let t = run.rt.finish_time(ck);
                        let lost = |attempts| AccelError::Unrecoverable {
                            phase: p.label.clone(),
                            label: kernel_label.clone(),
                            attempts,
                            at_s: t,
                        };
                        if dead_slr.is_some() {
                            // Second SLR loss: nothing left.
                            return Err(run.fail(lost(attempts)));
                        }
                        dead_slr = Some(slr.index());
                        attempts = 0; // relaunch on the survivor starts a fresh budget
                        live_cfg =
                            slr_degraded_config(&live_cfg).map_err(|_| run.fail(lost(attempts)))?;
                        compute_s = phase_compute_table(&live_cfg, plan);
                        let detail = format!(
                            "SLR{} lost: PSA pool halved to {}, relaunch on SLR{}",
                            slr.index(),
                            live_cfg.n_psas(),
                            1 - slr.index()
                        );
                        run.record(t, &p.label, "recovery", detail);
                    }
                    _ => {
                        run.retry(compute_queue, &p.label, &kernel_label, "relaunch", attempts, ck)?
                    }
                }
            };
            node_events[ck_id] = Some(ck);
            if i == last_phase {
                run.finished_s.push(run.rt.finish_time(ck));
            }
        }
        // Phase barrier: every utterance's compute (and any verify) for
        // this phase has retired — the frontier a checkpoint cuts at.
        run.completed_phases = i + 1;
        checkpoints += 1;
    }

    let makespan_s = run.rt.finish();
    let (loads_issued, load_busy_s) = load_stats(&run.rt);
    Ok(BatchedRun {
        runtime: run.rt,
        makespan_s,
        batch: plan.batch,
        utterance_finish_s: run.finished_s,
        loads_issued,
        load_busy_s,
        entry_arch: plan.arch,
        final_arch: level,
        dead_slr,
        retries: run.retries,
        events: run.events,
        corruption,
        checkpoints,
        resume: plan.resume.clone(),
    })
}

/// The configuration after losing one SLR: half the PSA pool, and half the
/// parallel heads only when they no longer share the halved pool evenly.
///
/// The survivor's PSAs are modelled as a (halved) 2-SLR pool to keep the
/// config invariants; only the pool *size* affects the schedule recurrences.
pub fn slr_degraded_config(cfg: &AccelConfig) -> Result<AccelConfig> {
    if cfg.psas_per_slr < 2 || !cfg.psas_per_slr.is_multiple_of(2) {
        return Err(AccelError::Config(format!(
            "cannot halve a {}-PSA pool after SLR loss",
            cfg.n_psas()
        )));
    }
    let mut d = cfg.clone();
    d.psas_per_slr /= 2;
    // Odd heads that no longer divide the pool stay as they are, and
    // `validate` refuses them.
    if !d.n_psas().is_multiple_of(d.parallel_heads) && d.parallel_heads.is_multiple_of(2) {
        d.parallel_heads /= 2;
    }
    d.validate()?;
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::simulate;
    use crate::plan::DecodeStepSpec;
    use asr_fpga_sim::faults::FaultKind;

    fn unpadded(s: usize) -> AccelConfig {
        let mut c = AccelConfig::paper_default();
        c.max_seq_len = s;
        c
    }

    /// `batch` utterances of length `s`, lowered at the config's integrity.
    fn lower(cfg: &AccelConfig, arch: Architecture, s: usize, batch: usize) -> ExecPlan {
        ExecPlan::lower(cfg, arch, s, batch, cfg.integrity).unwrap()
    }

    #[test]
    fn runtime_and_arch_simulators_agree_on_a3() {
        for s in [4usize, 8, 16, 32] {
            let cfg = unpadded(s);
            let bespoke = simulate(&cfg, Architecture::A3, s).latency_s;
            let via_runtime = run_plan(&cfg, &lower(&cfg, Architecture::A3, s, 1)).makespan_s;
            assert!(
                (bespoke - via_runtime).abs() / bespoke < 0.01,
                "s={}: arch {} vs runtime {}",
                s,
                bespoke,
                via_runtime
            );
        }
    }

    #[test]
    fn runtime_and_arch_simulators_agree_on_a2() {
        for s in [4usize, 16, 32] {
            let cfg = unpadded(s);
            let bespoke = simulate(&cfg, Architecture::A2, s).latency_s;
            let via_runtime = run_plan(&cfg, &lower(&cfg, Architecture::A2, s, 1)).makespan_s;
            assert!(
                (bespoke - via_runtime).abs() / bespoke < 0.01,
                "s={}: arch {} vs runtime {}",
                s,
                bespoke,
                via_runtime
            );
        }
    }

    #[test]
    fn the_runtime_skips_the_zero_tiles_the_walker_skips() {
        // `asrsim plan --encoding sparse:4@60` walks 52.587 ms at s = 32 on
        // A3; before the runtime scaled its compute, it ran 86.689 ms.
        let mut cfg = unpadded(32);
        cfg.encoding = asr_tensor::WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 60 };
        let plan = lower(&cfg, Architecture::A3, 32, 1);
        let walked = crate::plan::walk_cost(&cfg, &plan).latency_s;
        assert!((walked * 1e3 - 52.587).abs() < 5e-4, "walked {} ms", walked * 1e3);
        assert_eq!(run_plan(&cfg, &plan).makespan_s.to_bits(), walked.to_bits());
    }

    #[test]
    fn a_long_healthy_kernel_outlives_the_watchdog_timeout() {
        // At s = 384 each encoder kernel runs past the 50 ms timeout; the
        // watchdog must not reap it, so the unarmed executor prices the
        // plan exactly as the walker does.
        let cfg = unpadded(384);
        let plan = lower(&cfg, Architecture::A3, 384, 1);
        let walked = crate::plan::walk_cost(&cfg, &plan).latency_s;
        let run = run_plan(&cfg, &plan);
        assert_eq!(run.makespan_s.to_bits(), walked.to_bits());
        assert_eq!(run.runtime.command_stats().timed_out, 0);
    }

    #[test]
    fn runtime_timeline_has_load_and_kernel_tracks() {
        let cfg = unpadded(8);
        let rt = run_plan(&cfg, &lower(&cfg, Architecture::A3, 8, 1)).runtime;
        let units = rt.timeline().units();
        assert!(units.contains(&"maxi-0"));
        assert!(units.contains(&"maxi-1"));
        assert!(units.contains(&"kernels"));
        // 12 encoders + 6 decoders split m/f = 24 computes
        assert_eq!(rt.timeline().unit_spans("kernels").len(), 24);
    }

    #[test]
    fn runtime_and_arch_simulators_agree_on_a1() {
        for s in [4usize, 8, 16, 32] {
            let cfg = unpadded(s);
            let bespoke = simulate(&cfg, Architecture::A1, s).latency_s;
            let via_runtime = run_plan(&cfg, &lower(&cfg, Architecture::A1, s, 1)).makespan_s;
            assert!(
                (bespoke - via_runtime).abs() / bespoke < 0.01,
                "s={}: arch {} vs runtime {}",
                s,
                bespoke,
                via_runtime
            );
        }
    }

    #[test]
    fn transient_load_error_is_retried_to_completion() {
        let cfg = unpadded(8);
        let plan = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LWE3".into(), failing_attempts: 2 });
        let solo = lower(&cfg, Architecture::A3, 8, 1);
        let run = run_plan_with_recovery(&cfg, &solo, plan).unwrap();
        assert_eq!(run.retries, 2);
        assert!(run.makespan_s.is_finite());
        assert!(run.makespan_s >= run_plan(&cfg, &solo).makespan_s, "faults cannot speed a run up");
        assert_eq!(run.final_arch, Architecture::A3, "transients don't degrade");
        assert!(!run.runtime.timeline().unit_spans(FAULT_UNIT).is_empty());
    }

    #[test]
    fn retries_exhausted_is_unrecoverable() {
        let cfg = unpadded(8);
        let plan = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LWE3".into(), failing_attempts: 99 });
        let solo = lower(&cfg, Architecture::A3, 8, 1);
        let err = run_plan_with_recovery(&cfg, &solo, plan).unwrap_err().error;
        assert!(matches!(err, AccelError::Unrecoverable { .. }), "{}", err);
    }

    #[test]
    fn engine_loss_from_start_matches_a2_within_1_percent() {
        // The ISSUE acceptance: a dead A3 prefetch engine leaves a schedule
        // equivalent to A2 from that layer onward. Killed from command 0,
        // the whole run must land within 1% of the A2 runtime schedule.
        // Use a load-bound length so A2 and A3 genuinely differ.
        let cfg = unpadded(4);
        let plan = FaultPlan::none()
            .with(FaultKind::EngineDropout { queue: "maxi-1".into(), from_command: 0 });
        let solo = lower(&cfg, Architecture::A3, 4, 1);
        let run = run_plan_with_recovery(&cfg, &solo, plan).unwrap();
        let a2 = run_plan(&cfg, &lower(&cfg, Architecture::A2, 4, 1)).makespan_s;
        assert_eq!(run.final_arch, Architecture::A2);
        assert!(
            (run.makespan_s - a2).abs() / a2 < 0.01,
            "degraded A3 {} vs A2 {}",
            run.makespan_s,
            a2
        );
        // the fault and the degradation decision are both on the timeline
        let markers = run.runtime.timeline().unit_spans(FAULT_UNIT);
        assert!(markers.iter().any(|m| m.label.contains("engine-dropout")));
        assert!(markers.iter().any(|m| m.label.contains("degrade")));
    }

    #[test]
    fn engine_loss_mid_run_lands_between_a3_and_a2() {
        let cfg = unpadded(4);
        let plan = FaultPlan::none()
            .with(FaultKind::EngineDropout { queue: "maxi-1".into(), from_command: 4 });
        let solo = lower(&cfg, Architecture::A3, 4, 1);
        let run = run_plan_with_recovery(&cfg, &solo, plan).unwrap();
        let a2 = run_plan(&cfg, &lower(&cfg, Architecture::A2, 4, 1)).makespan_s;
        let a3 = run_plan(&cfg, &solo).makespan_s;
        assert_eq!(run.final_arch, Architecture::A2);
        assert!(run.makespan_s >= a3 - 1e-12, "{} vs A3 {}", run.makespan_s, a3);
        assert!(run.makespan_s <= a2 * 1.01, "{} vs A2 {}", run.makespan_s, a2);
    }

    #[test]
    fn double_engine_loss_degrades_to_a1() {
        let cfg = unpadded(4);
        let plan = FaultPlan::none()
            .with(FaultKind::EngineDropout { queue: "maxi-0".into(), from_command: 2 })
            .with(FaultKind::EngineDropout { queue: "maxi-1".into(), from_command: 2 });
        let solo = lower(&cfg, Architecture::A3, 4, 1);
        let run = run_plan_with_recovery(&cfg, &solo, plan).unwrap();
        assert_eq!(run.final_arch, Architecture::A1);
        // A1 without overlap is no faster than the bespoke A1 simulation
        // minus its first-fill (loose sanity bound), and certainly slower
        // than fault-free A3.
        let a3 = run_plan(&cfg, &solo).makespan_s;
        assert!(
            run.makespan_s > a3,
            "A1 fallback {} must cost more than A3 {}",
            run.makespan_s,
            a3
        );
    }

    #[test]
    fn slr_loss_halves_the_pool_and_relaunches() {
        let cfg = unpadded(8);
        let plan = FaultPlan::none().with(FaultKind::SlrDropout { slr: 1, from_command: 3 });
        let solo = lower(&cfg, Architecture::A3, 8, 1);
        let run = run_plan_with_recovery(&cfg, &solo, plan).unwrap();
        assert_eq!(run.dead_slr, Some(1));
        assert!(run.makespan_s > run_plan(&cfg, &solo).makespan_s, "halved pool must cost latency");
        // every kernel from the dropout onward runs on SLR0
        let kernels = run.runtime.timeline().unit_spans("kernels");
        let relaunched: Vec<_> =
            kernels.iter().filter(|k| !k.label.starts_with('!')).skip(3).collect();
        assert!(!relaunched.is_empty());
        assert!(relaunched.iter().all(|k| k.label.contains("@SLR0")), "all on the survivor");
    }

    #[test]
    fn degraded_config_rebalances_the_head_split() {
        // Each Table 5.3 split walked down one SLR loss per rung, as
        // (parallel heads, PSAs per head, pool), until a 2-PSA pool refuses.
        let ladders = [
            (8, [(4, 1, 4), (2, 1, 2)]),
            (4, [(4, 1, 4), (2, 1, 2)]),
            (2, [(2, 2, 4), (2, 1, 2)]),
            (1, [(1, 4, 4), (1, 2, 2)]),
        ];
        for (heads, rungs) in ladders {
            let mut cfg = AccelConfig::paper_default();
            cfg.parallel_heads = heads;
            for (h, per_head, pool) in rungs {
                cfg = slr_degraded_config(&cfg).unwrap();
                assert_eq!(
                    (cfg.parallel_heads, cfg.psas_per_head(), cfg.n_psas()),
                    (h, per_head, pool),
                    "from {heads} heads"
                );
                assert_eq!(cfg.psas_per_slr, pool / 2);
                cfg.validate().unwrap();
            }
            let err = slr_degraded_config(&cfg).unwrap_err();
            assert!(
                matches!(&err, AccelError::Config(msg)
                    if msg == "cannot halve a 2-PSA pool after SLR loss"),
                "from {heads} heads: {err}"
            );
        }
    }

    #[test]
    fn second_slr_loss_is_a_typed_error_not_a_panic() {
        // Regression for the degradation ladder's bottom rung: with both
        // SLRs dead the host must surface `AccelError::Unrecoverable`,
        // never panic, whatever order the dropouts land in.
        let cfg = unpadded(8);
        for (a, b) in [(0usize, 1usize), (1, 0)] {
            let plan = FaultPlan::none()
                .with(FaultKind::SlrDropout { slr: a, from_command: 0 })
                .with(FaultKind::SlrDropout { slr: b, from_command: 2 });
            let solo = lower(&cfg, Architecture::A3, 8, 1);
            let err = run_plan_with_recovery(&cfg, &solo, plan).unwrap_err().error;
            assert!(
                matches!(err, AccelError::Unrecoverable { .. }),
                "slr order {}/{}: {}",
                a,
                b,
                err
            );
        }
    }

    #[test]
    fn degrading_a_degraded_config_bottoms_out_as_a_typed_error() {
        // Walking `slr_degraded_config` down from the paper design point
        // must end in `AccelError::Config`, not a panic or a zero-PSA pool.
        let mut cfg = AccelConfig::paper_default();
        let mut steps = 0;
        loop {
            match slr_degraded_config(&cfg) {
                Ok(d) => {
                    assert!(d.n_psas() >= 1 && d.n_psas() < cfg.n_psas());
                    cfg = d;
                    steps += 1;
                    assert!(steps < 16, "degradation must terminate");
                }
                Err(e) => {
                    assert!(matches!(e, AccelError::Config(_)), "{}", e);
                    break;
                }
            }
        }
        assert!(steps >= 1, "the paper design point has at least one rung");
    }

    #[test]
    fn unrecoverable_errors_carry_the_failure_time() {
        let cfg = unpadded(8);
        let plan = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LWE1".into(), failing_attempts: u32::MAX });
        let solo = lower(&cfg, Architecture::A3, 8, 1);
        let err = run_plan_with_recovery(&cfg, &solo, plan).unwrap_err().error;
        match err {
            AccelError::Unrecoverable { at_s, attempts, .. } => {
                assert!(at_s.is_finite() && at_s > 0.0, "failure time {}", at_s);
                assert_eq!(attempts, MAX_ATTEMPTS);
            }
            other => panic!("expected Unrecoverable, got {}", other),
        }
    }

    #[test]
    fn seeded_plans_complete_on_every_architecture() {
        let cfg = unpadded(8);
        for arch in [Architecture::A1, Architecture::A2, Architecture::A3] {
            let solo = lower(&cfg, arch, 8, 1);
            let nominal = run_plan(&cfg, &solo).makespan_s;
            for seed in 0..12u64 {
                let run = run_plan_with_recovery(&cfg, &solo, FaultPlan::seeded(seed))
                    .unwrap_or_else(|f| panic!("{} seed {}: {}", arch.name(), seed, f.error));
                assert!(run.makespan_s.is_finite());
                assert!(run.makespan_s >= nominal - 1e-12);
            }
        }
    }

    fn unpadded_at(s: usize, level: asr_systolic::abft::IntegrityLevel) -> AccelConfig {
        let mut c = unpadded(s);
        c.integrity = level;
        c
    }

    #[test]
    fn silent_corruption_escapes_at_off_with_nominal_timing() {
        use asr_fpga_sim::faults::FaultProfile;
        let cfg = unpadded(8); // integrity off by default
        let plan = FaultPlan::seeded_with(3, &FaultProfile::silent_only());
        assert!(plan.has_silent_faults());
        let solo = lower(&cfg, Architecture::A3, 8, 1);
        let run = run_plan_with_recovery(&cfg, &solo, plan).unwrap();
        // Nobody asks, nobody pays: timing is exactly nominal, but the
        // corruption went straight into compute.
        assert!((run.makespan_s - run_plan(&cfg, &solo).makespan_s).abs() < 1e-12);
        assert!(run.corruption.injected > 0);
        assert_eq!(run.corruption.escaped, run.corruption.injected);
        assert_eq!(run.corruption.detected, 0);
    }

    #[test]
    fn crc_detection_refetches_to_a_clean_stripe() {
        use asr_systolic::abft::IntegrityLevel;
        let cfg = unpadded_at(8, IntegrityLevel::Detect);
        let plan = FaultPlan::none().with(FaultKind::HbmBitFlip {
            label: "LWE3".into(),
            word: 100,
            bit: 7,
            failing_attempts: 2,
        });
        let solo = lower(&cfg, Architecture::A3, 8, 1);
        let run = run_plan_with_recovery(&cfg, &solo, plan).unwrap();
        assert_eq!(run.corruption.injected, 2);
        assert_eq!(run.corruption.detected, 2);
        assert_eq!(run.corruption.refetched, 2);
        assert_eq!(run.corruption.escaped, 0);
        let nominal = run_plan(&cfg, &solo).makespan_s;
        assert!(run.makespan_s > nominal, "refetch DMA traffic must cost latency");
        let markers = run.runtime.timeline().unit_spans(FAULT_UNIT);
        assert!(markers.iter().any(|m| m.label.contains("integrity:")));
    }

    #[test]
    fn persistent_stripe_corruption_is_a_typed_error() {
        use asr_systolic::abft::IntegrityLevel;
        let cfg = unpadded_at(8, IntegrityLevel::Detect);
        let plan = FaultPlan::none().with(FaultKind::HbmBitFlip {
            label: "LWE1".into(),
            word: 0,
            bit: 0,
            failing_attempts: u32::MAX,
        });
        let solo = lower(&cfg, Architecture::A3, 8, 1);
        let err = run_plan_with_recovery(&cfg, &solo, plan).unwrap_err().error;
        match err {
            AccelError::CorruptWeights { attempts, at_s, .. } => {
                assert_eq!(attempts, MAX_ATTEMPTS);
                assert!(at_s > 0.0);
            }
            other => panic!("expected CorruptWeights, got {}", other),
        }
    }

    #[test]
    fn sticky_lane_at_detect_fails_typed_and_recompute_completes() {
        use asr_systolic::abft::IntegrityLevel;
        let plan = || FaultPlan::none().with(FaultKind::PsaStickyLane { lane: 9, delta: 1.0 });
        let detect = unpadded_at(8, IntegrityLevel::Detect);
        let solo = lower(&detect, Architecture::A3, 8, 1);
        let err = run_plan_with_recovery(&detect, &solo, plan()).unwrap_err().error;
        assert!(matches!(err, AccelError::CorruptCompute { .. }), "{}", err);

        let recompute = unpadded_at(8, IntegrityLevel::DetectAndRecompute);
        let solo = lower(&recompute, Architecture::A3, 8, 1);
        let run = run_plan_with_recovery(&recompute, &solo, plan()).unwrap();
        assert_eq!(run.corruption.recomputed, 1);
        assert_eq!(run.corruption.escaped, 0);
        let nominal = run_plan(&recompute, &solo).makespan_s;
        assert!(run.makespan_s > nominal, "recomputed tiles must cost PSA cycles");
        assert!(run.events.iter().any(|e| e.detail.contains("recompute")));
    }

    #[test]
    fn integrity_levels_are_bit_identical_under_an_empty_plan() {
        use asr_systolic::abft::IntegrityLevel;
        // Timing side of the integrity levels: with no faults injected, a
        // checked run is bit for bit what the walker prices *at the same
        // level* — the defense machinery adds no nondeterminism, only the
        // static checksum-pass cycles (visible as Off < Detect makespan).
        let mut makespans = Vec::new();
        for level in
            [IntegrityLevel::Off, IntegrityLevel::Detect, IntegrityLevel::DetectAndRecompute]
        {
            let cfg = unpadded_at(8, level);
            let plan = lower(&cfg, Architecture::A3, 8, 1);
            let walked = crate::plan::walk_cost(&cfg, &plan).latency_s;
            let run = run_plan(&cfg, &plan);
            assert_eq!(walked.to_bits(), run.makespan_s.to_bits(), "{:?}", level);
            assert_eq!(run.corruption, CorruptionCounters::default(), "{:?}", level);
            makespans.push(run.makespan_s);
        }
        assert!(makespans[1] > makespans[0], "ABFT checksum passes must cost cycles");
        assert_eq!(
            makespans[1].to_bits(),
            makespans[2].to_bits(),
            "recompute costs nothing when nothing corrupts"
        );
    }

    #[test]
    fn seeded_silent_plans_converge_at_detect_and_recompute() {
        use asr_fpga_sim::faults::FaultProfile;
        use asr_systolic::abft::IntegrityLevel;
        let cfg = unpadded_at(8, IntegrityLevel::DetectAndRecompute);
        let solo = lower(&cfg, Architecture::A3, 8, 1);
        for seed in 0..12u64 {
            let plan = FaultPlan::seeded_with(seed, &FaultProfile::silent_only());
            let run = run_plan_with_recovery(&cfg, &solo, plan)
                .unwrap_or_else(|f| panic!("seed {}: {}", seed, f.error));
            assert!(run.corruption.injected > 0, "seed {}", seed);
            assert_eq!(run.corruption.escaped, 0, "seed {}: nothing may escape", seed);
            assert_eq!(run.corruption.detected, run.corruption.injected, "seed {}", seed);
            assert_eq!(
                run.corruption.detected,
                run.corruption.refetched + run.corruption.recomputed,
                "seed {}: every detection answered",
                seed
            );
        }
    }

    #[test]
    fn failure_carries_a_checkpoint_and_resume_skips_finished_phases() {
        let cfg = unpadded(8);
        let faults = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LWD1".into(), failing_attempts: u32::MAX });
        let pair = lower(&cfg, Architecture::A2, 8, 2);
        let failure = run_plan_with_recovery(&cfg, &pair, faults).unwrap_err();
        let ckpt = failure.checkpoint.as_ref().expect("mid-run failure checkpoints");
        assert_eq!(ckpt.completed_phases, 12, "all encoder phases retired before LWD1 died");
        assert!(ckpt.loaded_phases >= ckpt.completed_phases);
        assert!(failure.stats.failed > 0, "dead attempts feed the health stats");

        // Failover target: resume cross-device (no trust), clean card.
        let suffix = ExecPlan::resume(&cfg, ckpt, false).unwrap();
        let resumed = run_plan_with_recovery(&cfg, &suffix, FaultPlan::none()).unwrap();
        assert_eq!(resumed.utterance_finish_s.len(), 2, "both utterances served, exactly once");
        assert_eq!(resumed.checkpoints, 6, "only the six decoder phases replay");
        let full = run_plan_with_recovery(&cfg, &pair, FaultPlan::none()).unwrap();
        assert!(resumed.loads_issued < full.loads_issued, "suffix loads strictly fewer");
        assert!(resumed.makespan_s < full.makespan_s, "suffix compute strictly cheaper");
    }

    #[test]
    fn double_fault_during_resume_advances_the_checkpoint() {
        // Satellite: a second hard fault while executing a resumed suffix
        // must resume again from the *newer* checkpoint (or fail typed) —
        // never duplicate or drop an utterance.
        let cfg = unpadded(8);
        let first = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LWD1".into(), failing_attempts: u32::MAX });
        let pair = lower(&cfg, Architecture::A2, 8, 2);
        let f1 = run_plan_with_recovery(&cfg, &pair, first).unwrap_err();
        let c1 = f1.checkpoint.unwrap();

        let second = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LWD4".into(), failing_attempts: u32::MAX });
        let suffix = ExecPlan::resume(&cfg, &c1, false).unwrap();
        let f2 = run_plan_with_recovery(&cfg, &suffix, second).unwrap_err();
        let c2 = f2.checkpoint.unwrap();
        assert!(
            c2.completed_phases > c1.completed_phases,
            "second checkpoint is strictly newer: {} vs {}",
            c2.completed_phases,
            c1.completed_phases
        );
        assert_eq!(c2.remaining_lens().len() + f2.finished_s.len(), 2, "no utterance dropped");

        let last = ExecPlan::resume(&cfg, &c2, false).unwrap();
        let done = run_plan_with_recovery(&cfg, &last, FaultPlan::none()).unwrap();
        assert_eq!(
            done.utterance_finish_s.len() + f2.finished_s.len() + f1.finished_s.len(),
            2,
            "every utterance served exactly once across the three attempts"
        );
    }

    #[test]
    fn resume_on_the_same_device_trusts_the_resident_stripe() {
        let cfg = unpadded(8);
        let faults = FaultPlan::none()
            .with(FaultKind::KernelHang { label: "CD2".into(), failing_attempts: u32::MAX });
        let solo = lower(&cfg, Architecture::A2, 8, 1);
        let failure = run_plan_with_recovery(&cfg, &solo, faults).unwrap_err();
        let ckpt = failure.checkpoint.unwrap();
        assert!(failure.stats.timed_out > 0, "watchdog kills are recorded in the stats");
        let resume = |trust| {
            let suffix = ExecPlan::resume(&cfg, &ckpt, trust).unwrap();
            run_plan_with_recovery(&cfg, &suffix, FaultPlan::none()).unwrap()
        };
        let (same, other) = (resume(true), resume(false));
        assert!(
            same.loads_issued < other.loads_issued,
            "same-device trust re-fetches strictly fewer stripes ({} vs {})",
            same.loads_issued,
            other.loads_issued
        );
        assert_eq!(same.utterance_finish_s.len(), 1);
        assert_eq!(other.utterance_finish_s.len(), 1);
    }

    #[test]
    fn seeded_plans_always_complete() {
        let cfg = unpadded(8);
        let solo = lower(&cfg, Architecture::A3, 8, 1);
        let nominal = run_plan(&cfg, &solo).makespan_s;
        for seed in 0..24u64 {
            let run = run_plan_with_recovery(&cfg, &solo, FaultPlan::seeded(seed))
                .unwrap_or_else(|f| panic!("seed {}: {}", seed, f.error));
            assert!(run.makespan_s.is_finite(), "seed {}", seed);
            assert!(run.makespan_s >= nominal - 1e-12, "seed {}", seed);
        }
    }

    #[test]
    fn stream_chunks_after_the_first_elide_the_pinned_stripe_set() {
        let cfg = unpadded(8);
        for arch in [Architecture::A2, Architecture::A3] {
            let cold = ExecPlan::lower_stream_chunk(&cfg, arch, 4, 4, &[]).unwrap();
            assert_eq!(cold.reuse, None, "a cold first chunk has nothing to elide");
            let pinned = cold.pinned_stripes(4);
            assert_eq!(pinned.len(), 4);

            let warm = ExecPlan::lower_stream_chunk(&cfg, arch, 4, 4, &pinned).unwrap();
            let reuse = warm.reuse.expect("warm chunk carries reuse accounting");
            assert_eq!(reuse.elided_loads, 4, "{:?}", arch);
            assert_eq!(reuse.stale, 0);
            // The acceptance floor: a warm chunk elides at least the
            // double-buffered stripe set's bytes (two phases deep).
            let double_buffered: u64 = pinned.iter().take(2).map(|p| p.bytes).sum();
            assert!(
                reuse.elided_load_bytes >= double_buffered,
                "{:?}: elided {} < double-buffered set {}",
                arch,
                reuse.elided_load_bytes,
                double_buffered
            );
            let cold_run = run_plan_with_recovery(&cfg, &cold, FaultPlan::none()).unwrap();
            let warm_run = run_plan_with_recovery(&cfg, &warm, FaultPlan::none()).unwrap();
            assert!(
                warm_run.makespan_s <= cold_run.makespan_s + 1e-12,
                "{:?}: warm {} > cold {}",
                arch,
                warm_run.makespan_s,
                cold_run.makespan_s
            );
            assert!(warm_run.loads_issued < cold_run.loads_issued);
            assert_eq!(warm.scheduled_load_bytes(), cold.scheduled_load_bytes());
        }
    }

    #[test]
    fn stream_chunk_failure_carries_a_replayable_checkpoint() {
        // A mid-chunk device death hands back the barrier frontier; the
        // serving layer replays only this chunk on the failover target and
        // gets the same makespan a clean run would have.
        let cfg = unpadded(8);
        let chunk = ExecPlan::lower_stream_chunk(&cfg, Architecture::A2, 4, 4, &[]).unwrap();
        // A stripe that never loads outlasts the retry budget.
        let dead_load = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LWE4".into(), failing_attempts: u32::MAX });
        let fail = run_plan_with_recovery(&cfg, &chunk, dead_load).unwrap_err();
        assert!(fail.checkpoint.is_some(), "{}", fail.error);
        // Replay the whole chunk cold on a healthy device — the stream's
        // carryover state lives above this layer, so a full chunk replay
        // is always safe.
        let replay = run_plan_with_recovery(&cfg, &chunk, FaultPlan::none()).unwrap();
        assert_eq!(replay.retries, 0);
    }

    // -- decode-step execution ---------------------------------------------

    #[test]
    fn steady_decode_step_executes_faster_and_fetches_less_than_the_cold_step() {
        let cfg = unpadded(8);
        let spec0 = DecodeStepSpec::greedy(0, 8, 8);
        let cold =
            ExecPlan::lower_decode_step(&cfg, Architecture::A2, spec0, &[], cfg.integrity).unwrap();
        let cold_run = run_plan_with_recovery(&cfg, &cold, FaultPlan::none()).unwrap();
        assert!(cold_run.makespan_s > 0.0);
        let pinned = cold.decode_pinned_stripes();
        assert!(!pinned.is_empty(), "the cold step must pin its stripes");
        assert_eq!(cold.fetched_load_bytes(), cold.scheduled_load_bytes());

        let spec1 = DecodeStepSpec::greedy(1, 8, 8);
        let steady =
            ExecPlan::lower_decode_step(&cfg, Architecture::A2, spec1, &pinned, cfg.integrity)
                .unwrap();
        let steady_run = run_plan_with_recovery(&cfg, &steady, FaultPlan::none()).unwrap();
        let reuse = steady.reuse.expect("steady step lowers against residents");
        assert!(reuse.elided_loads > 0, "steady step must elide pinned loads");
        assert!(
            steady.fetched_load_bytes() * 2 < steady.scheduled_load_bytes(),
            "steady fetch {} vs scheduled {}",
            steady.fetched_load_bytes(),
            steady.scheduled_load_bytes()
        );
        assert!(
            steady_run.makespan_s < cold_run.makespan_s,
            "steady {} vs cold {}",
            steady_run.makespan_s,
            cold_run.makespan_s
        );
    }

    #[test]
    fn faulted_decode_step_recovers_with_the_batch_ladder() {
        let cfg = unpadded(8);
        let spec = DecodeStepSpec::greedy(0, 8, 8);
        let step =
            ExecPlan::lower_decode_step(&cfg, Architecture::A2, spec, &[], cfg.integrity).unwrap();
        let faults = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "KV".into(), failing_attempts: 1 });
        let run = run_plan_with_recovery(&cfg, &step, faults).unwrap();
        assert!(run.retries >= 1, "the transient fault must be retried");
    }
}
