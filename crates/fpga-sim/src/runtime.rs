//! OpenCL-style host runtime model (paper §2.2.7).
//!
//! The paper's host drives the card through the OpenCL flow: create a
//! context, allocate device buffers, enqueue writes, launch kernels with
//! event dependencies, read results back. This module models the part of
//! that flow the accelerator's schedule issues — HBM weight loads, kernel
//! launches and host-side backoffs on in-order queues, ordered by event
//! dependencies — as a deterministic task graph over the platform's
//! transfer/compute costs, and produces a [`Timeline`] of what the queues
//! did.
//!
//! Commands can *fail*: a [`crate::faults::FaultPlan`] attached to the
//! runtime turns enqueues into failed, stalled, or hung commands, and every
//! event carries a [`CommandStatus`]. Failures propagate through event
//! dependencies (a command whose dependency did not complete is itself
//! `Failed`), and an optional per-command watchdog converts hangs into
//! [`CommandStatus::TimedOut`] instead of an infinite makespan. With an
//! empty plan the arithmetic is bit-identical to the fault-free model.

use crate::device::{DeviceSpec, SlrId};
use crate::faults::{FaultKind, FaultPlan};
use crate::timeline::Timeline;
use std::collections::HashMap;

/// Timeline unit that carries zero-duration fault/recovery markers.
pub const FAULT_UNIT: &str = "faults";

/// Handle to an enqueued command's completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event(usize);

/// Why a command failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCause {
    /// Transient HBM burst error (retry may succeed).
    HbmLoad,
    /// The DMA engine behind the queue is dead (permanent).
    EngineDead,
    /// The SLR hosting the kernel is dead (permanent).
    SlrDead,
    /// An upstream dependency did not complete; this command never ran.
    Dependency,
}

impl FailureCause {
    /// Permanent faults make retrying on the same unit pointless.
    pub fn is_permanent(self) -> bool {
        matches!(self, FailureCause::EngineDead | FailureCause::SlrDead)
    }
}

/// Terminal state of an enqueued command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandStatus {
    /// Ran to completion.
    Completed,
    /// Errored out; see the cause.
    Failed(FailureCause),
    /// Hung and was reaped by the watchdog.
    TimedOut,
}

impl CommandStatus {
    /// Convenience: did the command complete?
    pub fn is_ok(self) -> bool {
        self == CommandStatus::Completed
    }
}

#[derive(Debug, Clone, Copy)]
struct EventInfo {
    finish_s: f64,
    status: CommandStatus,
    /// Tag of the silent fault that corrupted this command's payload, if
    /// any. The status still reads `Completed` — that is what makes the
    /// fault silent; only an integrity check (CRC envelope) can observe it.
    corrupt: Option<&'static str>,
}

/// Aggregate [`CommandStatus`] outcomes of everything a runtime enqueued —
/// the per-device health signal a serving tier scores cards by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandStats {
    /// Commands that ran to completion.
    pub completed: usize,
    /// Commands that failed (including dependency-propagated failures).
    pub failed: usize,
    /// Commands reaped by the watchdog.
    pub timed_out: usize,
}

impl CommandStats {
    /// Total commands enqueued.
    pub fn total(self) -> usize {
        self.completed + self.failed + self.timed_out
    }

    /// Fraction of commands that completed; 1.0 for an idle runtime, so a
    /// device that has done nothing is presumed healthy.
    pub fn success_ratio(self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.completed as f64 / self.total() as f64
        }
    }
}

/// An in-order command queue bound to one engine (DMA channel or kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueId(usize);

/// Command classes the fault plan discriminates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmdClass {
    HbmLoad,
    Kernel(usize),
    /// Host-side pause (retry backoff); never faulted.
    Backoff,
}

/// The modeled OpenCL context: device + queues + events.
#[derive(Debug, Clone)]
pub struct Runtime {
    device: DeviceSpec,
    events: Vec<EventInfo>,
    queues: Vec<(String, f64)>, // (unit name, free-at time)
    timeline: Timeline,
    plan: FaultPlan,
    watchdog_s: Option<f64>,
    /// Commands dispatched per queue (dependency-failed commands never
    /// reach the engine and do not count).
    queue_cmds: Vec<usize>,
    /// Attempt counts per (queue, label): re-enqueueing the same label on
    /// the same queue is the next attempt of the same logical command.
    attempts: HashMap<(usize, String), u32>,
    /// HBM loads dispatched (for [`FaultKind::ChannelDegrade`] triggers).
    loads_dispatched: usize,
    /// Kernels dispatched (for [`FaultKind::SlrDropout`] triggers).
    kernels_dispatched: usize,
    /// Structural faults already marked on the timeline (marker spams once).
    marked: Vec<String>,
    /// Optional plan tag appended to *span labels only* (`label #tag`), so
    /// a plan-driven batched dispatch is identifiable on the Timeline. The
    /// raw command label is untouched: fault matching and attempt counting
    /// must behave exactly as in the solo path.
    plan_tag: Option<String>,
}

impl Runtime {
    /// Create a context on a device (no faults).
    pub fn new(device: DeviceSpec) -> Self {
        Self::with_faults(device, FaultPlan::none())
    }

    /// Create a context on a device with a fault plan attached.
    pub fn with_faults(device: DeviceSpec, plan: FaultPlan) -> Self {
        Runtime {
            device,
            events: Vec::new(),
            queues: Vec::new(),
            timeline: Timeline::new(),
            plan,
            watchdog_s: None,
            queue_cmds: Vec::new(),
            attempts: HashMap::new(),
            loads_dispatched: 0,
            kernels_dispatched: 0,
            marked: Vec::new(),
            plan_tag: None,
        }
    }

    /// Tag (or untag with `None`) subsequent commands with an execution
    /// plan's tag (see `ExecPlan::tag` in the core crate — `Some("B4")` for
    /// a batch of four, `None` for solo). The tag is appended to the *span
    /// label* on the Timeline (`LWE1 #B4`); the command label itself — what
    /// fault plans match on and what the attempt counter keys on — never
    /// changes, so a tagged command stream is timing- and fault-identical
    /// to an untagged one.
    pub fn set_plan_tag(&mut self, tag: Option<String>) {
        self.plan_tag = tag;
    }

    /// Arm (or disarm with `None`) the per-command watchdog. Each command's
    /// budget is the timeout or its own nominal duration, whichever is
    /// longer, so a healthy command is never reaped however long it runs;
    /// a command whose effective duration exceeds its budget is reaped at
    /// the budget with status [`CommandStatus::TimedOut`]. Hung kernels
    /// *require* a watchdog to finish at all.
    pub fn set_watchdog(&mut self, timeout_s: Option<f64>) {
        self.watchdog_s = timeout_s;
    }

    /// Create an in-order command queue (named after its engine).
    pub fn create_queue(&mut self, name: impl Into<String>) -> QueueId {
        self.queues.push((name.into(), 0.0));
        self.queue_cmds.push(0);
        QueueId(self.queues.len() - 1)
    }

    fn deps_ready(&self, deps: &[Event]) -> f64 {
        deps.iter().map(|e| self.events[e.0].finish_s).fold(0.0, f64::max)
    }

    /// The first transient fault matching this command at this attempt, and
    /// whether a structural fault kills it outright.
    fn faulted_outcome(
        &self,
        queue: usize,
        label: &str,
        class: CmdClass,
        attempt: u32,
    ) -> Option<(CommandStatus, FaultOverride)> {
        if class == CmdClass::Backoff {
            return None;
        }
        // Structural faults take precedence regardless of plan order: a dead
        // engine or SLR cannot execute the command, so a transient stall or
        // error matching the same command must not mask the dropout.
        for f in self.plan.faults() {
            match (f, class) {
                (FaultKind::EngineDropout { queue: q, from_command }, _)
                    if *q == self.queues[queue].0 && self.queue_cmds[queue] >= *from_command =>
                {
                    return Some((
                        CommandStatus::Failed(FailureCause::EngineDead),
                        FaultOverride::Instant,
                    ));
                }
                (FaultKind::SlrDropout { slr, from_command }, CmdClass::Kernel(k_slr))
                    if *slr == k_slr && self.kernels_dispatched >= *from_command =>
                {
                    return Some((
                        CommandStatus::Failed(FailureCause::SlrDead),
                        FaultOverride::Instant,
                    ));
                }
                _ => {}
            }
        }
        for f in self.plan.faults() {
            match (f, class) {
                (FaultKind::HbmLoadError { label: l, failing_attempts }, CmdClass::HbmLoad)
                    if label.contains(l.as_str()) && attempt <= *failing_attempts =>
                {
                    return Some((
                        CommandStatus::Failed(FailureCause::HbmLoad),
                        FaultOverride::Partial(0.5),
                    ));
                }
                (FaultKind::KernelHang { label: l, failing_attempts }, CmdClass::Kernel(_))
                    if label.contains(l.as_str()) && attempt <= *failing_attempts =>
                {
                    return Some((CommandStatus::TimedOut, FaultOverride::Hang));
                }
                (FaultKind::HbmStall { label: l, factor }, CmdClass::HbmLoad)
                    if label.contains(l.as_str()) =>
                {
                    return Some((CommandStatus::Completed, FaultOverride::Slowdown(*factor)));
                }
                _ => {}
            }
        }
        None
    }

    /// Record a zero-duration fault marker on the dedicated timeline unit.
    fn mark_fault(&mut self, tag: &str, label: &str, t: f64) {
        let text = format!("{}: {}", tag, label);
        self.timeline.push(FAULT_UNIT, text, t, t).expect("zero-duration markers never overlap");
    }

    /// Record a structural fault marker only the first time it fires.
    fn mark_structural(&mut self, tag: &str, label: &str, t: f64) {
        if !self.marked.iter().any(|k| k == tag) {
            self.marked.push(tag.to_string());
            self.mark_fault(tag, label, t);
        }
    }

    fn enqueue_cmd(
        &mut self,
        queue: QueueId,
        label: String,
        class: CmdClass,
        nominal_s: f64,
        deps: &[Event],
    ) -> Event {
        let ready = self.deps_ready(deps);

        // Failure propagation: a command whose dependency did not complete
        // never reaches the engine.
        if deps.iter().any(|e| !self.events[e.0].status.is_ok()) {
            self.events.push(EventInfo {
                finish_s: ready,
                status: CommandStatus::Failed(FailureCause::Dependency),
                corrupt: None,
            });
            return Event(self.events.len() - 1);
        }

        let attempt = {
            let c = self.attempts.entry((queue.0, label.clone())).or_insert(0);
            *c += 1;
            *c
        };

        let outcome = self.faulted_outcome(queue.0, &label, class, attempt);

        let (unit, free) = self.queues[queue.0].clone();
        let start = free.max(ready);
        let budget = self.watchdog_s.map(|w| w.max(nominal_s));

        let (status, duration, span_label) = match outcome {
            None => (CommandStatus::Completed, nominal_s, label.clone()),
            Some((st, FaultOverride::Instant)) => (st, 0.0, format!("!{}", label)),
            Some((st, FaultOverride::Partial(frac))) => {
                (st, nominal_s * frac, format!("!{}", label))
            }
            Some((st, FaultOverride::Hang)) => match budget {
                Some(w) => (st, w, format!("!{}", label)),
                None => (st, f64::INFINITY, format!("!{}", label)),
            },
            Some((_, FaultOverride::Slowdown(factor))) => {
                let slowed = nominal_s * factor;
                match budget {
                    Some(w) if slowed > w => (CommandStatus::TimedOut, w, format!("!{}", label)),
                    _ => (CommandStatus::Completed, slowed, format!("~{}", label)),
                }
            }
        };
        let span_label = match &self.plan_tag {
            Some(tag) => format!("{} #{}", span_label, tag),
            None => span_label,
        };

        let end = start + duration;
        self.timeline.push(unit, span_label, start, end).expect("in-order queue never overlaps");
        self.queues[queue.0].1 = end;
        self.queue_cmds[queue.0] += 1;
        match class {
            CmdClass::HbmLoad => self.loads_dispatched += 1,
            CmdClass::Kernel(_) => self.kernels_dispatched += 1,
            _ => {}
        }

        if let Some((st, _)) = outcome {
            let tag = match st {
                CommandStatus::Failed(FailureCause::EngineDead) => Some("engine-dropout"),
                CommandStatus::Failed(FailureCause::SlrDead) => Some("slr-dropout"),
                CommandStatus::Failed(FailureCause::HbmLoad) => Some("hbm-load-error"),
                CommandStatus::TimedOut => Some("kernel-hang"),
                _ => None,
            };
            if let Some(tag) = tag {
                self.mark_fault(tag, &label, end);
            }
        }

        // A command that completed may still carry a corrupted payload: a
        // silent fault leaves timing and status untouched by design.
        let corrupt =
            if status.is_ok() { self.silent_corruption(&label, class, attempt) } else { None };

        self.events.push(EventInfo { finish_s: end, status, corrupt });
        Event(self.events.len() - 1)
    }

    /// The first silent fault whose label/class/attempt window covers this
    /// command. Silent faults never alter timing or status, so this is
    /// consulted only to tag the event's payload as corrupt.
    fn silent_corruption(
        &self,
        label: &str,
        class: CmdClass,
        attempt: u32,
    ) -> Option<&'static str> {
        if class != CmdClass::HbmLoad {
            return None;
        }
        for f in self.plan.faults() {
            match f {
                FaultKind::HbmBitFlip { label: l, failing_attempts, .. }
                    if label.contains(l.as_str()) && attempt <= *failing_attempts =>
                {
                    return Some("hbm-bit-flip");
                }
                FaultKind::DmaCorruption { label: l, failing_attempts, .. }
                    if label.contains(l.as_str()) && attempt <= *failing_attempts =>
                {
                    return Some("dma-corruption");
                }
                _ => {}
            }
        }
        None
    }

    /// Enqueue an HBM burst load of `bytes` through `channels` channels
    /// (a kernel M-AXI weight fetch). An active [`FaultKind::ChannelDegrade`]
    /// reduces the effective channel count.
    pub fn enqueue_hbm_load(
        &mut self,
        queue: QueueId,
        label: impl Into<String>,
        bytes: u64,
        channels: u32,
        deps: &[Event],
    ) -> Event {
        let label = label.into();
        let mut effective = channels;
        let mut degraded = None;
        for f in self.plan.faults() {
            if let FaultKind::ChannelDegrade { lost, from_load } = f {
                if self.loads_dispatched >= *from_load {
                    effective = channels.saturating_sub(*lost).max(1);
                    degraded = Some(*lost);
                }
            }
        }
        let t = self.device.hbm.read_time_s(bytes, effective);
        let ev = self.enqueue_cmd(queue, label.clone(), CmdClass::HbmLoad, t, deps);
        if let Some(lost) = degraded {
            let t_end = self.events[ev.0].finish_s;
            let note = format!("-{} HBM ch ({})", lost, label);
            self.mark_structural("channel-degrade", &note, t_end);
        }
        ev
    }

    /// Enqueue a kernel launch of a known duration on the SLR's compute queue.
    pub fn enqueue_kernel(
        &mut self,
        queue: QueueId,
        name: impl Into<String>,
        slr: SlrId,
        duration_s: f64,
        deps: &[Event],
    ) -> Event {
        let label = format!("{} @SLR{}", name.into(), slr.index());
        self.enqueue_cmd(queue, label, CmdClass::Kernel(slr.index()), duration_s, deps)
    }

    /// Enqueue a host-side pause on a queue (retry backoff). Never faulted;
    /// shows up on the timeline so recovery cost is visible.
    pub fn enqueue_backoff(
        &mut self,
        queue: QueueId,
        label: impl Into<String>,
        delay_s: f64,
        deps: &[Event],
    ) -> Event {
        self.enqueue_cmd(queue, label.into(), CmdClass::Backoff, delay_s, deps)
    }

    /// Terminal status of an enqueued command.
    pub fn status(&self, ev: Event) -> CommandStatus {
        self.events[ev.0].status
    }

    /// True when the command completed but a silent fault corrupted its
    /// payload. The status path cannot see this — a host that never asks
    /// (integrity off) computes on the wrong bits.
    pub fn payload_corrupt(&self, ev: Event) -> bool {
        self.events[ev.0].corrupt.is_some()
    }

    /// Tag of the silent fault that corrupted this command's payload.
    pub fn corruption_tag(&self, ev: Event) -> Option<&'static str> {
        self.events[ev.0].corrupt
    }

    /// Aggregate outcome counts over every command enqueued so far.
    pub fn command_stats(&self) -> CommandStats {
        let mut stats = CommandStats::default();
        for e in &self.events {
            match e.status {
                CommandStatus::Completed => stats.completed += 1,
                CommandStatus::Failed(_) => stats.failed += 1,
                CommandStatus::TimedOut => stats.timed_out += 1,
            }
        }
        stats
    }

    /// The instant the command's event fired (its end time).
    pub fn finish_time(&self, ev: Event) -> f64 {
        self.events[ev.0].finish_s
    }

    /// Block until everything completes; returns the finish time, seconds.
    pub fn finish(&self) -> f64 {
        self.timeline.makespan()
    }

    /// The schedule the queues executed.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Append a zero-duration annotation span on a named unit (used by the
    /// host to record recovery decisions next to the fault markers).
    pub fn annotate(&mut self, unit: &str, label: impl Into<String>, t: f64) {
        self.timeline.push(unit, label.into(), t, t).expect("zero-duration markers never overlap");
    }
}

/// How a fault reshapes a command's duration.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FaultOverride {
    /// Fails at enqueue time (dead unit): zero duration.
    Instant,
    /// Fails after this fraction of the nominal duration.
    Partial(f64),
    /// Never completes (watchdog or infinite).
    Hang,
    /// Completes, but this many times slower.
    Slowdown(f64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::alveo_u50;

    #[test]
    fn independent_queues_overlap() {
        let mut rt = Runtime::new(alveo_u50());
        let q0 = rt.create_queue("kernel-slr0");
        let q1 = rt.create_queue("kernel-slr1");
        let a = rt.enqueue_kernel(q0, "heads0-3", SlrId::Slr0, 1e-3, &[]);
        let b = rt.enqueue_kernel(q1, "heads4-7", SlrId::Slr1, 1e-3, &[]);
        let _ = (a, b);
        // two 1 ms kernels on separate SLRs finish in 1 ms, not 2
        assert!((rt.finish() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn dependencies_serialise_across_queues() {
        let mut rt = Runtime::new(alveo_u50());
        let q0 = rt.create_queue("a");
        let q1 = rt.create_queue("b");
        let first = rt.enqueue_kernel(q0, "stage1", SlrId::Slr0, 2e-3, &[]);
        let second = rt.enqueue_kernel(q1, "stage2", SlrId::Slr1, 1e-3, &[first]);
        let _ = second;
        assert!((rt.finish() - 3e-3).abs() < 1e-9);
    }

    #[test]
    fn in_order_queue_serialises_without_deps() {
        let mut rt = Runtime::new(alveo_u50());
        let q = rt.create_queue("maxi-0");
        rt.enqueue_hbm_load(q, "LW1", 1 << 20, 2, &[]);
        rt.enqueue_hbm_load(q, "LW2", 1 << 20, 2, &[]);
        let spans = rt.timeline().unit_spans("maxi-0");
        assert_eq!(spans.len(), 2);
        assert!(spans[1].start >= spans[0].end - 1e-12);
    }

    #[test]
    fn hbm_loads_use_channel_model() {
        let mut rt = Runtime::new(alveo_u50());
        let q = rt.create_queue("maxi-0");
        rt.enqueue_hbm_load(q, "LW1", 12_600_000, 2, &[]);
        let dev = alveo_u50();
        assert!((rt.finish() - dev.hbm.read_time_s(12_600_000, 2)).abs() < 1e-12);
    }

    #[test]
    fn transient_load_error_fails_then_retry_succeeds() {
        let plan = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LW3".into(), failing_attempts: 1 });
        let mut rt = Runtime::with_faults(alveo_u50(), plan);
        let q = rt.create_queue("maxi-0");
        let first = rt.enqueue_hbm_load(q, "LW3", 1 << 20, 2, &[]);
        assert_eq!(rt.status(first), CommandStatus::Failed(FailureCause::HbmLoad));
        // second attempt of the same label clears
        let second = rt.enqueue_hbm_load(q, "LW3", 1 << 20, 2, &[]);
        assert!(rt.status(second).is_ok());
        // the failed attempt took half the nominal time and is on the timeline
        let spans = rt.timeline().unit_spans("maxi-0");
        assert_eq!(spans.len(), 2);
        assert!(spans[0].label.starts_with('!'));
        assert!((spans[0].duration() - spans[1].duration() / 2.0).abs() < 1e-12);
        // and the fault is marked
        assert_eq!(rt.timeline().unit_spans(FAULT_UNIT).len(), 1);
    }

    #[test]
    fn failure_propagates_through_dependencies() {
        let plan = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LW".into(), failing_attempts: 1 });
        let mut rt = Runtime::with_faults(alveo_u50(), plan);
        let q = rt.create_queue("maxi-0");
        let k = rt.create_queue("kernels");
        let lw = rt.enqueue_hbm_load(q, "LW1", 1 << 20, 2, &[]);
        let ck = rt.enqueue_kernel(k, "C1", SlrId::Slr0, 1e-3, &[lw]);
        assert_eq!(rt.status(ck), CommandStatus::Failed(FailureCause::Dependency));
        // the dependent kernel never ran: no span on its queue
        assert!(rt.timeline().unit_spans("kernels").is_empty());
        // and a retry chain downstream of the failure still works
        let lw2 = rt.enqueue_hbm_load(q, "LW1", 1 << 20, 2, &[]);
        let ck2 = rt.enqueue_kernel(k, "C1", SlrId::Slr0, 1e-3, &[lw2]);
        assert!(rt.status(ck2).is_ok());
    }

    #[test]
    fn watchdog_reaps_hung_kernel() {
        let plan = FaultPlan::none()
            .with(FaultKind::KernelHang { label: "C2".into(), failing_attempts: 1 });
        let mut rt = Runtime::with_faults(alveo_u50(), plan);
        rt.set_watchdog(Some(5e-3));
        let k = rt.create_queue("kernels");
        let ev = rt.enqueue_kernel(k, "C2", SlrId::Slr0, 1e-3, &[]);
        assert_eq!(rt.status(ev), CommandStatus::TimedOut);
        assert!((rt.finish_time(ev) - 5e-3).abs() < 1e-12, "reaped at the watchdog timeout");
        // retry of the hung kernel completes in the nominal time
        let ev2 = rt.enqueue_kernel(k, "C2", SlrId::Slr0, 1e-3, &[]);
        assert!(rt.status(ev2).is_ok());
        assert!((rt.finish_time(ev2) - 6e-3).abs() < 1e-12);
    }

    #[test]
    fn the_watchdog_budget_stretches_to_a_long_command() {
        // A 50 ms watchdog, a kernel of 80 ms: healthy, it runs to
        // completion; hung, it is reaped at its own 80 ms, not at 50 ms.
        let plan = FaultPlan::none()
            .with(FaultKind::KernelHang { label: "C9".into(), failing_attempts: 1 });
        let mut rt = Runtime::with_faults(alveo_u50(), plan);
        rt.set_watchdog(Some(0.05));
        let k = rt.create_queue("kernels");
        let healthy = rt.enqueue_kernel(k, "C1", SlrId::Slr0, 0.08, &[]);
        assert_eq!(rt.status(healthy), CommandStatus::Completed);
        assert!((rt.finish_time(healthy) - 0.08).abs() < 1e-12);
        let hung = rt.enqueue_kernel(k, "C9", SlrId::Slr0, 0.08, &[]);
        assert_eq!(rt.status(hung), CommandStatus::TimedOut);
        assert!((rt.finish_time(hung) - 0.16).abs() < 1e-12, "reaped after its own 80 ms");
    }

    #[test]
    fn hang_without_watchdog_is_infinite() {
        let plan = FaultPlan::none()
            .with(FaultKind::KernelHang { label: "C".into(), failing_attempts: 1 });
        let mut rt = Runtime::with_faults(alveo_u50(), plan);
        let k = rt.create_queue("kernels");
        let ev = rt.enqueue_kernel(k, "C1", SlrId::Slr0, 1e-3, &[]);
        assert_eq!(rt.status(ev), CommandStatus::TimedOut);
        assert!(rt.finish().is_infinite());
    }

    #[test]
    fn dead_engine_fails_everything_from_trigger() {
        let plan = FaultPlan::none()
            .with(FaultKind::EngineDropout { queue: "maxi-1".into(), from_command: 1 });
        let mut rt = Runtime::with_faults(alveo_u50(), plan);
        let q0 = rt.create_queue("maxi-0");
        let q1 = rt.create_queue("maxi-1");
        let first = rt_load(&mut rt, q1, "LW1");
        assert!(rt.status(first).is_ok(), "command 0 still fine");
        let dead = rt_load(&mut rt, q1, "LW2");
        assert_eq!(rt.status(dead), CommandStatus::Failed(FailureCause::EngineDead));
        assert!(FailureCause::EngineDead.is_permanent());
        // retrying on the dead engine is pointless
        let retried = rt_load(&mut rt, q1, "LW2");
        assert!(!rt.status(retried).is_ok());
        // the sibling engine is unaffected
        let sibling = rt_load(&mut rt, q0, "LW2");
        assert!(rt.status(sibling).is_ok());
    }

    fn rt_load(rt: &mut Runtime, q: QueueId, label: &str) -> Event {
        rt.enqueue_hbm_load(q, label, 1 << 20, 2, &[])
    }

    #[test]
    fn dead_slr_fails_its_kernels_only() {
        let plan = FaultPlan::none().with(FaultKind::SlrDropout { slr: 1, from_command: 0 });
        let mut rt = Runtime::with_faults(alveo_u50(), plan);
        let k = rt.create_queue("kernels");
        let on0 = rt.enqueue_kernel(k, "C1", SlrId::Slr0, 1e-3, &[]);
        let on1 = rt.enqueue_kernel(k, "C2", SlrId::Slr1, 1e-3, &[]);
        assert!(rt.status(on0).is_ok());
        assert_eq!(rt.status(on1), CommandStatus::Failed(FailureCause::SlrDead));
    }

    #[test]
    fn channel_degrade_slows_loads() {
        let plan = FaultPlan::none().with(FaultKind::ChannelDegrade { lost: 1, from_load: 0 });
        let mut rt = Runtime::with_faults(alveo_u50(), plan);
        let q = rt.create_queue("maxi-0");
        rt.enqueue_hbm_load(q, "LW1", 12_600_000, 2, &[]);
        let dev = alveo_u50();
        // two channels requested, one effective
        assert!((rt.finish() - dev.hbm.read_time_s(12_600_000, 1)).abs() < 1e-12);
        assert!(!rt.timeline().unit_spans(FAULT_UNIT).is_empty());
    }

    #[test]
    fn stall_slows_but_completes() {
        let plan = FaultPlan::none().with(FaultKind::HbmStall { label: "LW1".into(), factor: 2.0 });
        let mut rt = Runtime::with_faults(alveo_u50(), plan);
        let q = rt.create_queue("maxi-0");
        let ev = rt.enqueue_hbm_load(q, "LW1", 12_600_000, 2, &[]);
        assert!(rt.status(ev).is_ok());
        let dev = alveo_u50();
        assert!((rt.finish() - 2.0 * dev.hbm.read_time_s(12_600_000, 2)).abs() < 1e-12);
    }

    #[test]
    fn command_stats_count_every_terminal_status() {
        let plan = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LW1".into(), failing_attempts: 1 })
            .with(FaultKind::KernelHang { label: "C9".into(), failing_attempts: 1 });
        let mut rt = Runtime::with_faults(alveo_u50(), plan);
        rt.set_watchdog(Some(5e-3));
        assert_eq!(rt.command_stats(), CommandStats::default());
        assert!((rt.command_stats().success_ratio() - 1.0).abs() < 1e-12, "idle is healthy");
        let q = rt.create_queue("maxi-0");
        let k = rt.create_queue("kernels");
        let lw = rt.enqueue_hbm_load(q, "LW1", 1 << 20, 2, &[]); // fails once
        let _dep = rt.enqueue_kernel(k, "C1", SlrId::Slr0, 1e-3, &[lw]); // dependency failure
        let lw2 = rt.enqueue_hbm_load(q, "LW1", 1 << 20, 2, &[]); // retry completes
        let _ck = rt.enqueue_kernel(k, "C1", SlrId::Slr0, 1e-3, &[lw2]); // completes
        let _hang = rt.enqueue_kernel(k, "C9", SlrId::Slr0, 1e-3, &[]); // reaped
        let stats = rt.command_stats();
        assert_eq!(stats, CommandStats { completed: 2, failed: 2, timed_out: 1 });
        assert_eq!(stats.total(), 5);
        assert!((stats.success_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn silent_bit_flip_completes_with_nominal_timing_but_corrupt_payload() {
        let plan = FaultPlan::none().with(FaultKind::HbmBitFlip {
            label: "LW1".into(),
            word: 17,
            bit: 4,
            failing_attempts: 1,
        });
        let mut rt = Runtime::with_faults(alveo_u50(), plan);
        let q = rt.create_queue("maxi-0");
        let ev = rt.enqueue_hbm_load(q, "LW1", 12_600_000, 2, &[]);
        // Status and timing are exactly the fault-free ones...
        assert!(rt.status(ev).is_ok());
        let dev = alveo_u50();
        assert!((rt.finish_time(ev) - dev.hbm.read_time_s(12_600_000, 2)).abs() < 1e-12);
        // ...no fault marker appears on the timeline (it is *silent*)...
        assert!(rt.timeline().unit_spans(FAULT_UNIT).is_empty());
        // ...but the payload is flagged corrupt for whoever asks.
        assert!(rt.payload_corrupt(ev));
        assert_eq!(rt.corruption_tag(ev), Some("hbm-bit-flip"));
        // The refetch reads a clean copy.
        let ev2 = rt.enqueue_hbm_load(q, "LW1", 12_600_000, 2, &[]);
        assert!(rt.status(ev2).is_ok());
        assert!(!rt.payload_corrupt(ev2));
    }

    #[test]
    fn dma_corruption_marks_loads_never_kernels() {
        let plan = FaultPlan::none().with(FaultKind::DmaCorruption {
            label: "E1".into(),
            word: 3,
            xor: 0x40,
            failing_attempts: 1,
        });
        let mut rt = Runtime::with_faults(alveo_u50(), plan);
        let q = rt.create_queue("maxi-0");
        let ev = rt.enqueue_hbm_load(q, "LWE1", 1 << 20, 2, &[]);
        assert!(rt.status(ev).is_ok());
        assert_eq!(rt.corruption_tag(ev), Some("dma-corruption"));
        // The label matches the kernel too, but kernels carry no DMA payload.
        let k = rt.create_queue("kernels");
        let ck = rt.enqueue_kernel(k, "E1", SlrId::Slr0, 1e-3, &[ev]);
        assert!(rt.status(ck).is_ok());
        assert!(!rt.payload_corrupt(ck));
    }

    #[test]
    fn empty_plan_is_bit_identical_to_no_plan() {
        let build = |rt: &mut Runtime| {
            let q = rt.create_queue("maxi-0");
            let k = rt.create_queue("kernels");
            let lw = rt.enqueue_hbm_load(q, "LW1", 12_600_000, 2, &[]);
            rt.enqueue_kernel(k, "C1", SlrId::Slr0, 4.2e-3, &[lw]);
        };
        let mut a = Runtime::new(alveo_u50());
        let mut b = Runtime::with_faults(alveo_u50(), FaultPlan::none());
        build(&mut a);
        build(&mut b);
        assert_eq!(a.timeline().spans(), b.timeline().spans());
        assert_eq!(a.finish().to_bits(), b.finish().to_bits());
    }
}
