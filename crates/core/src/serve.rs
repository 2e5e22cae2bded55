//! Multi-device serving runtime: admission control, deadlines, circuit
//! breakers, and failover across a pool of simulated Alveo cards.
//!
//! PR 1 made a *single* utterance survive injected faults
//! ([`crate::host_runtime::run_plan_with_recovery`]). This module adds the
//! robustness *between* requests that a production deployment needs (the
//! serving-tier concerns FTRANS and AccelTran leave to the host):
//!
//! * **Admission control** — a bounded FIFO queue; a request arriving at a
//!   full queue is shed with the typed [`AccelError::Overloaded`].
//! * **Deadlines** — each request carries `deadline_s` from its arrival.
//!   Work still in flight at the deadline is cancelled (the device is freed
//!   at the cancel instant) and the miss counts against the device's health;
//!   queued requests that can no longer make their deadline even at the
//!   fault-free nominal makespan are expired without wasting a device.
//! * **Per-attempt timeout** — an attempt that outlives half the request
//!   deadline is cancelled early enough to leave deadline budget for a
//!   failover. A deadline whose half cannot fit a solo run is refused, and
//!   a request only joins a batch whose projected makespan fits it.
//! * **Circuit breaker** — per device, closed → open after 3 consecutive
//!   failures, half-open after a 0.25 s cooldown of simulated time; the
//!   half-open probe request closes the breaker on success and re-opens it
//!   on failure. A card that keeps tripping the PR 1 degradation ladder is
//!   quarantined instead of retried forever.
//! * **Failover** — a request that fails or times out on one device is
//!   re-enqueued once at the head of the queue, excluding the card that
//!   failed it; dispatch routes it to the healthiest other card.
//! * **Drain / shutdown** — [`ServePool::drain`] completes all in-flight and
//!   queued work; with a shutdown grace window, requests that would only
//!   start after `last arrival + grace` are dropped and reported.
//! * **Cluster hooks** — a pool is one *fault domain* of the
//!   [`crate::cluster`] tier: [`ServePool::run_until`] co-simulates it with
//!   its siblings, [`ServePool::projected_start_s`] tells the router when
//!   a request submitted now would start,
//!   [`ServePool::begin_drain`]/[`ServePool::end_drain`] park it for a
//!   rolling weight upgrade, [`ServePool::set_weight_version`] reflashes it
//!   (idle-only — a version can never change under an in-flight batch),
//!   [`ServePool::fail_stop`] kills the whole node and hands the survivors'
//!   work out as [`Evicted`] requests, and [`ServePool::adopt`] takes
//!   another node's evictees in — checkpoints riding along, resident-stripe
//!   trust refused cross-device as always.
//!
//! Everything runs in *virtual* time — arrivals at `i / rps`, service times
//! from the deterministic runtime simulation — so the same configuration
//! reproduces bit-identical counts and latencies on every run, in CI or not.
//! Per-device health is scored from the [`asr_fpga_sim::runtime::CommandStats`] of each run's
//! command statuses (a degraded or retry-heavy run lowers the score even
//! when it ultimately succeeds).

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::rc::Rc;

use crate::arch::Architecture;
use crate::config::AccelConfig;
use crate::error::{AccelError, Result};
use crate::host_runtime::{
    max_total_backoff_s, run_plan, run_plan_with_recovery, BatchFailure, BatchedRun,
};
use crate::integrity::CorruptionCounters;
use crate::plan::{walk_cost, ExecPlan, PlanBuilder, PlanCheckpoint, PlanReuse, ResidentStripe};
use asr_fpga_sim::device::DeviceId;
use asr_fpga_sim::faults::{FaultKind, FaultPlan};
use asr_tensor::WeightEncoding;

/// Breaker state machine: closed → open → half-open → (closed | open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Quarantined: no requests until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe request is in flight.
    HalfOpen,
}

impl BreakerState {
    /// Name as printed in the serve report.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// The per-device breaker state machine, shared with the streaming pool
/// ([`crate::stream`]): a card that keeps failing requests — or keeps
/// killing streams — is quarantined the same way.
#[derive(Debug, Clone)]
pub(crate) struct Breaker {
    pub(crate) state: BreakerState,
    consecutive_failures: u32,
    open_until_s: f64,
    pub(crate) opens: u32,
}

impl Breaker {
    /// Consecutive failures (hard failures, timeouts, deadline cancels) that
    /// open the breaker.
    const FAILURE_THRESHOLD: u32 = 3;
    /// Simulated seconds the breaker stays open before admitting a
    /// half-open probe request.
    const COOLDOWN_S: f64 = 0.25;

    pub(crate) fn new() -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until_s: 0.0,
            opens: 0,
        }
    }

    /// Would a request dispatched at `now` be admitted?
    pub(crate) fn would_admit(&self, now: f64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => now >= self.open_until_s,
            // The single probe is in flight (the device is busy with it);
            // no further request is admitted until it reports.
            BreakerState::HalfOpen => false,
        }
    }

    /// The breaker's next self-transition time, if one is pending.
    pub(crate) fn reopen_time(&self) -> Option<f64> {
        match self.state {
            BreakerState::Open => Some(self.open_until_s),
            _ => None,
        }
    }

    /// A request was dispatched at `now`: an open breaker past its cooldown
    /// moves to half-open (the request is the probe).
    pub(crate) fn on_dispatch(&mut self, now: f64) {
        if self.state == BreakerState::Open && now >= self.open_until_s {
            self.state = BreakerState::HalfOpen;
        }
    }

    pub(crate) fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    pub(crate) fn on_failure(&mut self, now: f64) {
        self.consecutive_failures += 1;
        let probe_failed = self.state == BreakerState::HalfOpen;
        if probe_failed || self.consecutive_failures >= Self::FAILURE_THRESHOLD {
            self.state = BreakerState::Open;
            self.open_until_s = now + Self::COOLDOWN_S;
            self.opens += 1;
        }
    }
}

/// Leading weight stripes a card keeps resident once a dispatch succeeds
/// on it ([`ExecPlan::pinned_stripes`]): the pipeline-fill loads a plan
/// cannot hide under compute.
pub const PIN_SLOTS: usize = 4;

/// What one dispatch on a card does, read off the runtime's run. The
/// simulation is deterministic, so [`Card::outcome`] memoises it: every
/// like dispatch on a card behaves alike.
#[derive(Debug, Clone)]
pub(crate) enum CardOutcome {
    /// The whole dispatch completes after `service_s`, utterance `u`
    /// finishing at `utt_finish_s[u]`, with run quality `quality` (the
    /// `CommandStats` success ratio: degraded/retry-heavy runs score lower).
    /// `reuse` counts the loads the plan elided against the card's resident
    /// stripes; `pins` are the stripes the run leaves resident if it is the
    /// card's first success (none for a resumed suffix, which never loaded
    /// the schedule's front).
    Ok {
        service_s: f64,
        utt_finish_s: Vec<f64>,
        quality: f64,
        corruption: CorruptionCounters,
        load_busy_s: f64,
        timed_out: usize,
        reuse: PlanReuse,
        pins: Rc<[ResidentStripe]>,
    },
    /// The run dies `fail_after_s` into the dispatch; utterances that
    /// already produced their last kernel (`finished_s[u]`, front of the
    /// batch) still count as served. Carries the barrier-granular frontier
    /// the run banked (`checkpoint`), the dead run's command quality for the
    /// health EWMA, and its watchdog-kill count.
    Fail {
        fail_after_s: f64,
        finished_s: Vec<f64>,
        checkpoint: Option<Rc<PlanCheckpoint>>,
        quality: f64,
        timed_out: usize,
    },
}

impl CardOutcome {
    /// The outcome of a run of `plan`. A run that dies — loudly
    /// (`Unrecoverable`) or via an exhausted CRC budget (`CorruptWeights`)
    /// — fails the still unfinished members at the recorded fault time;
    /// utterances already past their last kernel are carried in
    /// `finished_s`.
    pub(crate) fn of(plan: &ExecPlan, run: std::result::Result<BatchedRun, BatchFailure>) -> Self {
        match run {
            Ok(run) => {
                let stats = run.runtime.command_stats();
                CardOutcome::Ok {
                    service_s: run.makespan_s,
                    utt_finish_s: run.utterance_finish_s,
                    quality: stats.success_ratio(),
                    corruption: run.corruption,
                    load_busy_s: run.load_busy_s,
                    timed_out: stats.timed_out,
                    reuse: plan.reuse.unwrap_or_default(),
                    pins: match plan.resume {
                        None => plan.pinned_stripes(PIN_SLOTS).into(),
                        Some(_) => Rc::from([]),
                    },
                }
            }
            Err(fail) => fail.into(),
        }
    }
}

impl From<BatchFailure> for CardOutcome {
    fn from(fail: BatchFailure) -> Self {
        CardOutcome::Fail {
            fail_after_s: fail.at_s,
            finished_s: fail.finished_s,
            checkpoint: fail.checkpoint.map(Rc::new),
            quality: fail.stats.success_ratio(),
            timed_out: fail.stats.timed_out,
        }
    }
}

/// Work on a card, from dispatch to settle.
#[derive(Debug)]
pub(crate) struct Flight<W> {
    pub(crate) work: W,
    pub(crate) started_s: f64,
    /// When the card frees up.
    pub(crate) finish_s: f64,
}

/// One card of a pool, as both [`ServePool`] (and so every cluster node)
/// and the streaming pool ([`crate::stream`]) hold it: its fault plan,
/// breaker, routing health, in-flight slot, busy time and dispatch
/// counters, its weight cache, and the memo of what a dispatch on it does.
/// `K` keys the memo; `W` is the work in flight. Each pool decides *when* a
/// dispatch moves the health score; the card owns the three rules that
/// move it.
///
/// The weight cache is FTRANS's keep-weights-resident idea at card
/// granularity: the card's first successful dispatch of a whole plan
/// leaves that plan's leading [`PIN_SLOTS`] stripes resident, and every
/// later dispatch lowers against them
/// ([`crate::plan::PlanBuilder::reuse_resident`]), eliding each load whose
/// stripe CRC-matches. A dispatch that dies pins nothing, a resumed suffix
/// neither pins nor elides, and a flash ([`Card::flash`]) empties the cache.
#[derive(Debug)]
pub(crate) struct Card<K, W> {
    pub(crate) id: DeviceId,
    pub(crate) plan: FaultPlan,
    pub(crate) breaker: Breaker,
    /// Routing health in [0, 1]: an EWMA over dispatch quality.
    pub(crate) health: f64,
    pub(crate) in_flight: Option<Flight<W>>,
    /// Memoised outcomes, keyed by the pool's key and whether the card
    /// was warm.
    outcomes: HashMap<(K, bool), CardOutcome>,
    /// The weight cache: empty while the card is cold.
    resident: Vec<ResidentStripe>,
    /// Requests (or chunks) dispatched to this card.
    pub(crate) served: usize,
    pub(crate) completed: usize,
    pub(crate) failed: usize,
    /// Watchdog-timeout kills summed over this card's dispatches — the
    /// hang-prone signal behind the health penalty.
    pub(crate) timed_out: usize,
    pub(crate) busy_s: f64,
}

impl<K: Eq + Hash, W> Card<K, W> {
    pub(crate) fn new(index: usize, plan: FaultPlan) -> Self {
        Card {
            id: DeviceId::new(index),
            plan,
            breaker: Breaker::new(),
            health: 1.0,
            in_flight: None,
            outcomes: HashMap::new(),
            resident: Vec::new(),
            served: 0,
            completed: 0,
            failed: 0,
            timed_out: 0,
            busy_s: 0.0,
        }
    }

    /// What a dispatch keyed `key` does on this card. The first time the
    /// key meets the card cold, and again the first time it meets it warm,
    /// `run` lowers its plan against the card's resident stripes (none
    /// while cold) and executes it under the card's fault plan; the memo
    /// answers after.
    pub(crate) fn outcome(
        &mut self,
        key: K,
        run: impl FnOnce(FaultPlan, &[ResidentStripe]) -> CardOutcome,
    ) -> CardOutcome {
        let warm = self.is_warm();
        self.outcomes
            .entry((key, warm))
            .or_insert_with(|| run(self.plan.clone(), &self.resident))
            .clone()
    }

    /// Whether the card's weight cache holds pinned stripes.
    pub(crate) fn is_warm(&self) -> bool {
        !self.resident.is_empty()
    }

    /// A dispatch succeeded on this card: the first to pin anything leaves
    /// its `pins` resident.
    pub(crate) fn keep_resident(&mut self, pins: &[ResidentStripe]) {
        if self.resident.is_empty() {
            self.resident = pins.to_vec();
        }
    }

    /// Drop the memo: the card's fault plan changed.
    pub(crate) fn forget_outcomes(&mut self) {
        self.outcomes.clear();
    }

    /// The card was flashed to other weights: the memo and the weight
    /// cache both go, so the next dispatch runs cold.
    pub(crate) fn flash(&mut self) {
        self.outcomes.clear();
        self.resident.clear();
    }

    /// Put `work` on the idle card from `now` until `finish_s`. An open
    /// breaker past its cooldown lets it through as the half-open probe.
    pub(crate) fn start(&mut self, now: f64, finish_s: f64, work: W) {
        self.breaker.on_dispatch(now);
        self.in_flight = Some(Flight { work, started_s: now, finish_s });
    }

    /// Take the flight that has settled by `now`, booking its busy time.
    pub(crate) fn settle(&mut self, now: f64) -> Option<Flight<W>> {
        let fl = self.in_flight.take_if(|fl| fl.finish_s <= now + 1e-15)?;
        self.busy_s += fl.finish_s - fl.started_s;
        Some(fl)
    }

    /// Take the flight cut off at `now` (the card died under it), booking
    /// the busy time it got to.
    pub(crate) fn kill(&mut self, now: f64) -> Option<Flight<W>> {
        let fl = self.in_flight.take()?;
        self.busy_s += (now - fl.started_s).max(0.0);
        Some(fl)
    }

    /// Health rule 1: a dispatch that succeeded scores its run's quality.
    pub(crate) fn credit(&mut self, quality: f64) {
        self.health = 0.8 * self.health + 0.2 * quality;
    }

    /// Health rule 2: a run that died scores half its quality, so the
    /// watchdog kills and retries it accumulated drag the card down faster
    /// than the flat penalty.
    pub(crate) fn debit_dead_run(&mut self, quality: f64) {
        self.health = 0.8 * self.health + 0.2 * (0.5 * quality);
    }

    /// Health rule 3: a failure with no run quality to score decays the
    /// health flatly.
    pub(crate) fn decay(&mut self) {
        self.health *= 0.8;
    }
}

/// The share of `scheduled` load bytes a weight cache elided; 0 when
/// nothing was scheduled.
pub(crate) fn elided_fraction(elided_bytes: u64, scheduled_bytes: u64) -> f64 {
    if scheduled_bytes == 0 {
        0.0
    } else {
        elided_bytes as f64 / scheduled_bytes as f64
    }
}

/// The `elided loads` line of the serve, stream and cluster reports.
pub(crate) fn elided_loads_line(loads: usize, elided_bytes: u64, scheduled_bytes: u64) -> String {
    format!(
        "elided loads         : {} ({} bytes, {:.1} % of scheduled)",
        loads,
        elided_bytes,
        elided_fraction(elided_bytes, scheduled_bytes) * 100.0
    )
}

/// The `queue wait p50 / p99` line of the serve and cluster reports: each
/// completed request's wait from arrival to the dispatch that served it,
/// latency less service (clamped at zero, where rounding leaves a dispatch
/// at arrival a hair below it).
pub(crate) fn queue_wait_line<'a>(records: impl IntoIterator<Item = &'a RequestRecord>) -> String {
    let mut waits: Vec<f64> = records
        .into_iter()
        .filter_map(|r| match r.outcome {
            RequestOutcome::Completed { latency_s, service_s, .. } => {
                Some((latency_s - service_s).max(0.0))
            }
            _ => None,
        })
        .collect();
    waits.sort_by(f64::total_cmp);
    format!(
        "queue wait p50 / p99 : {:.2} / {:.2} ms",
        percentile(&waits, 0.50) * 1e3,
        percentile(&waits, 0.99) * 1e3
    )
}

/// Nearest-rank percentile `p` (in [0, 1]) of ascending `sorted` values;
/// 0 when there are none.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[((sorted.len() - 1) as f64 * p).round() as usize]
    }
}

/// Dynamic-batching tuning for the serving pool.
///
/// Compatible queued requests (same build, same padded length — always true
/// in this pool) are coalesced into one device dispatch: the card loads each
/// layer's weight stripes once (CRC-verified once) and runs the batch's
/// per-utterance computes back-to-back under the resident layer, so the
/// A2/A3 prefetch cost is amortized over the whole batch. A request only
/// joins a batch whose *projected batched makespan* still fits its deadline
/// and the per-attempt timeout. Among those sizes the dispatcher takes the
/// one whose projected finishes, summed over the queue and the arrivals
/// expected within one deadline, are least: on a compute-bound card a
/// batch saves only the pipeline fill, so it forms only when enough work
/// would otherwise wait for the card.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Largest number of queued requests coalesced into one dispatch
    /// (1 = the pre-batching solo path, bit-identically).
    pub max_batch: usize,
    /// How long the dispatcher may hold an underfull batch open waiting for
    /// more arrivals, measured from the queue head's arrival; 0 dispatches
    /// immediately. Only an empty remainder of the queue lingers, only on
    /// the last idle card that could start it (if more work is already
    /// waiting, or another card is free, the batch dispatches at once), and
    /// only if one more member saves the card the whole window:
    /// `n(1) + n(b) - n(b+1) >= linger_s`, with `n` the fault-free cold
    /// makespan per batch size. The int8 A3 deployment card saves 1.881 ms
    /// at b = 1 and 1.239 ms beyond, so it does not linger at 5 ms; an A1
    /// card saves a whole load pass (11.93 ms at int8) and does.
    pub linger_s: f64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch: 1, linger_s: 0.0 }
    }
}

/// Serving-runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Accelerator configuration every card in the pool is flashed with.
    pub accel: AccelConfig,
    /// Overlap architecture the cards run.
    pub arch: Architecture,
    /// Number of cards in the pool.
    pub devices: usize,
    /// Pool fault-model seed (see [`pool_fault_plans`]); 0 = clean pool.
    pub fault_seed: u64,
    /// Offered load, requests per second of simulated time.
    pub rps: f64,
    /// Per-request deadline from arrival, seconds.
    pub deadline_s: f64,
    /// Requests in the workload.
    pub requests: usize,
    /// Bounded admission queue capacity (waiting requests, in-flight
    /// excluded); at least 1.
    pub queue_capacity: usize,
    /// Shutdown grace: queued requests that would start later than
    /// `last arrival + grace` are dropped. `None` drains everything.
    pub shutdown_grace_s: Option<f64>,
    /// Dynamic-batching tuning (default: batch of 1, no linger — the
    /// pre-batching behavior).
    pub batch: BatchConfig,
    /// Checkpointed failover (`asrsim serve --checkpoint`): a hard mid-batch
    /// fault hands the failed attempt's [`PlanCheckpoint`] to the failover
    /// target, which re-executes only the uncompleted suffix instead of the
    /// whole batch. Off by default — failover restarts from scratch, and the
    /// replayed-work accounting records what that re-payment cost.
    pub checkpoint: bool,
}

impl ServeConfig {
    /// A serving setup over `devices` cards at `rps` offered load. The
    /// cards are flashed with the *deployment* build: int8 weights (the
    /// [`crate::quant`] variant — 4× less HBM traffic than the f32 research
    /// build) at `s = 4` chunks, which keeps fault-free service near 12 ms
    /// so a single healthy card sustains ~80 req/s. Override `accel` for
    /// other builds.
    pub fn new(devices: usize, fault_seed: u64, rps: f64, deadline_s: f64) -> Self {
        let mut accel = AccelConfig::paper_default();
        accel.max_seq_len = 4;
        accel.bytes_per_weight = 1;
        accel.encoding = WeightEncoding::Int8;
        ServeConfig {
            accel,
            arch: Architecture::A3,
            devices,
            fault_seed,
            rps,
            deadline_s,
            requests: 200,
            queue_capacity: 64,
            shutdown_grace_s: None,
            batch: BatchConfig::default(),
            checkpoint: false,
        }
    }

    /// Per-attempt service timeout, seconds: half the request deadline,
    /// which leaves the other half as budget for a failover.
    fn attempt_timeout(&self) -> f64 {
        self.deadline_s * 0.5
    }
}

/// The pool fault model behind `asrsim serve --faults <seed>`: seed 0 is a
/// clean pool; any other seed breaks exactly one card — index
/// `seed % devices` — with an HBM load fault that fails every attempt, so
/// every run on it exhausts its retry budget and the serving tier must shed
/// around it. Use [`ServePool::with_plans`] for arbitrary per-card plans.
pub fn pool_fault_plans(seed: u64, devices: usize) -> Vec<FaultPlan> {
    (0..devices)
        .map(|i| {
            if seed != 0 && i == (seed as usize) % devices {
                FaultPlan::none().with(FaultKind::HbmLoadError {
                    label: "LW".into(),
                    failing_attempts: u32::MAX,
                })
            } else {
                FaultPlan::none()
            }
        })
        .collect()
}

/// Terminal outcome of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// Served within its deadline.
    Completed {
        /// Card that served it.
        device: DeviceId,
        /// Arrival-to-finish latency, seconds.
        latency_s: f64,
        /// Pure service time from batch dispatch to this utterance's last
        /// kernel (at batch 1, bit-identical to the makespan of
        /// `run_plan_with_recovery` on the solo plan).
        service_s: f64,
        /// How many utterances shared the dispatch that served it.
        batch: usize,
        /// Corruption counters of the batch run that served it (the card
        /// loads and scrubs each stripe once per batch, so the counters are
        /// shared by every utterance riding in it).
        corruption: CorruptionCounters,
        /// Weight-set version the serving dispatch ran under. Members of
        /// one dispatch always share it — flashing is idle-only — and the
        /// cluster proptests audit exactly that.
        version: u64,
    },
    /// Shed at admission (bounded queue full).
    Shed,
    /// Deadline elapsed — in the queue, or cancelled in flight with no
    /// budget or failover left. Carries the typed error for callers.
    DeadlineMissed(AccelError),
    /// Hard failure on a device with no failover attempt remaining.
    Failed(AccelError),
    /// Dropped by the shutdown grace window before ever starting.
    DroppedAtShutdown,
}

/// One request's journey through the pool.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Submission order (0-based).
    pub id: usize,
    /// Arrival time, simulated seconds.
    pub arrival_s: f64,
    /// Service attempts dispatched (0 = never started).
    pub attempts: u32,
    /// Whether the request was re-enqueued onto another card.
    pub failed_over: bool,
    /// How it ended.
    pub outcome: RequestOutcome,
}

/// Per-card section of the serve report.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// Card identity.
    pub id: DeviceId,
    /// Attempts dispatched to this card (probes included).
    pub served: usize,
    /// Attempts that completed within deadline.
    pub completed: usize,
    /// Attempts that ended in a hard failure.
    pub failed: usize,
    /// Attempts cancelled by a timeout or the deadline.
    pub cancelled: usize,
    /// Watchdog-timeout kills across this card's dispatches (hang-prone
    /// cards accumulate these and are penalized by the health EWMA).
    pub timed_out: usize,
    /// Times the breaker opened.
    pub breaker_opens: u32,
    /// Breaker state at drain.
    pub breaker_final: BreakerState,
    /// Health score in [0, 1] at drain (EWMA of per-run command outcomes).
    pub health: f64,
    /// Busy seconds (service, failures, and cancelled work all occupy the card).
    pub busy_s: f64,
    /// Silent-corruption accounting summed over this card's attempts
    /// (each successful attempt contributes its run's counters).
    pub corruption: CorruptionCounters,
}

/// Workload-level results of a serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests submitted.
    pub submitted: usize,
    /// Requests served within deadline.
    pub completed: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Requests whose deadline elapsed (queued or in flight).
    pub deadline_missed: usize,
    /// Requests that failed with no recovery path left.
    pub failed: usize,
    /// Requests dropped by the shutdown grace window.
    pub dropped_at_shutdown: usize,
    /// Failover re-enqueues performed.
    pub failed_over: usize,
    /// First arrival to last completion, simulated seconds.
    pub wall_s: f64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Median arrival-to-finish latency over completed requests, seconds.
    pub p50_latency_s: f64,
    /// 99th-percentile latency over completed requests, seconds.
    pub p99_latency_s: f64,
    /// Per-card breakdown.
    pub per_device: Vec<DeviceReport>,
    /// Every request's journey, in submission order.
    pub records: Vec<RequestRecord>,
    /// Pool-wide silent-corruption accounting (sum over cards).
    pub corruption: CorruptionCounters,
    /// Device dispatches performed (a batch of any size is one dispatch).
    pub batches: usize,
    /// Mean utterances per dispatch.
    pub mean_batch: f64,
    /// Mean batch occupancy: `mean_batch / max_batch`, in [0, 1].
    pub occupancy: f64,
    /// Configured batch-size ceiling.
    pub max_batch: usize,
    /// Mean HBM weight-load busy seconds *per utterance* over successful
    /// batch runs — the amortization headline (each batch pays its layer
    /// loads once, split across its members).
    pub amortized_load_s: f64,
    /// HBM weight-load busy seconds of one fault-free solo run on a cold
    /// card — the un-amortized baseline every request would pay at batch 1
    /// with no weight cache.
    pub solo_load_s: f64,
    /// `LoadStripe`s the cards' weight caches elided across successful
    /// runs.
    pub elided_loads: usize,
    /// Bytes those elisions kept off the HBM channels.
    pub elided_load_bytes: u64,
    /// Bytes the dispatched schedules would have streamed with nothing
    /// resident (every dispatch, failed ones included).
    pub scheduled_load_bytes: u64,
    /// Failover dispatches that resumed a checkpointed suffix.
    pub resumed_dispatches: usize,
    /// Checkpoints rejected at validation (stale CRC or mismatch); each
    /// fell back to a clean full restart — never silent reuse.
    pub checkpoint_rejects: usize,
    /// `LoadStripe` bytes re-fetched that a prior attempt already loaded
    /// (what failover-from-scratch re-pays; resumes pay only untrusted
    /// re-loads of the suffix).
    pub replayed_load_bytes: u64,
    /// Attempt-seconds re-executed that a prior attempt already spent.
    pub replayed_compute_s: f64,
    /// `LoadStripe` bytes resumes skipped (completed prefix + trusted
    /// resident stripes).
    pub skipped_load_bytes: u64,
    /// Banked attempt-seconds successful resumes did not re-execute.
    pub skipped_compute_s: f64,
    /// Weight-set version the pool's cards ended on.
    pub weight_version: u64,
    /// Checkpoint rejects caused specifically by a weight-version mismatch
    /// (subset of `checkpoint_rejects`).
    pub version_rejects: usize,
    /// Requests forced out by [`ServePool::fail_stop`] for another node to
    /// adopt (they are not losses — the adopting pool records their fate).
    pub evicted: usize,
}

impl ServeReport {
    /// Fraction of submitted requests served within deadline.
    pub fn success_ratio(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.completed as f64 / self.submitted as f64
        }
    }

    /// Render the `asrsim serve` table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("submitted            : {}", self.submitted));
        line(format!(
            "completed            : {} ({:.1} %)",
            self.completed,
            self.success_ratio() * 100.0
        ));
        line(format!("shed (admission)     : {}", self.shed));
        line(format!("deadline missed      : {}", self.deadline_missed));
        line(format!("failed               : {}", self.failed));
        line(format!("dropped at shutdown  : {}", self.dropped_at_shutdown));
        line(format!("failed over          : {}", self.failed_over));
        line(format!("wall time            : {:8.2} ms", self.wall_s * 1e3));
        line(format!("throughput           : {:8.2} req/s", self.throughput_rps));
        line(format!(
            "latency p50 / p99    : {:.2} / {:.2} ms",
            self.p50_latency_s * 1e3,
            self.p99_latency_s * 1e3
        ));
        line(queue_wait_line(&self.records));
        line(format!(
            "batches dispatched   : {} (mean batch {:.2}, occupancy {:.0} %)",
            self.batches,
            self.mean_batch,
            self.occupancy * 100.0
        ));
        line(format!(
            "amortized load/utt   : {:.3} ms (solo {:.3} ms)",
            self.amortized_load_s * 1e3,
            self.solo_load_s * 1e3
        ));
        line(elided_loads_line(
            self.elided_loads,
            self.elided_load_bytes,
            self.scheduled_load_bytes,
        ));
        line(format!(
            "checkpoint resume    : {} resumed, {} rejected",
            self.resumed_dispatches, self.checkpoint_rejects
        ));
        if self.version_rejects > 0 {
            line(format!(
                "version rejects      : {} (cross-version resume refused, v{})",
                self.version_rejects, self.weight_version
            ));
        }
        if self.evicted > 0 {
            line(format!("evicted (fail-stop)  : {}", self.evicted));
        }
        line(format!(
            "replayed work        : {:.3} ms compute, {} load bytes",
            self.replayed_compute_s * 1e3,
            self.replayed_load_bytes
        ));
        line(format!(
            "skipped by resume    : {:.3} ms compute, {} load bytes",
            self.skipped_compute_s * 1e3,
            self.skipped_load_bytes
        ));
        if self.corruption.any_injected() {
            line(format!(
                "corruption           : {} injected, {} detected, {} refetched, {} recomputed, {} escaped",
                self.corruption.injected,
                self.corruption.detected,
                self.corruption.refetched,
                self.corruption.recomputed,
                self.corruption.escaped
            ));
        }
        line(format!(
            "{:>6} {:>7} {:>6} {:>6} {:>7} {:>15} {:>7} {:>9}",
            "device", "served", "ok", "fail", "cancel", "breaker(opens)", "health", "busy(ms)"
        ));
        for d in &self.per_device {
            line(format!(
                "{:>6} {:>7} {:>6} {:>6} {:>7} {:>10}({:>3}) {:>7.3} {:>9.2}",
                d.id.to_string(),
                d.served,
                d.completed,
                d.failed,
                d.cancelled,
                d.breaker_final.name(),
                d.breaker_opens,
                d.health,
                d.busy_s * 1e3
            ));
        }
        out
    }
}

#[derive(Debug, Clone)]
struct Request {
    id: usize,
    arrival_s: f64,
    attempts: u32,
    failed_over: bool,
    exclude: Option<usize>,
    /// The failed attempt's checkpoint riding with this failover member.
    /// All members of one failed dispatch share one `Rc` — the dispatcher
    /// re-assembles the group by pointer identity so a resumed suffix runs
    /// with exactly the batch the checkpoint was cut for.
    ckpt: Option<Rc<PlanCheckpoint>>,
}

/// A request forced out of a fail-stopped pool ([`ServePool::fail_stop`])
/// with everything another node needs to pick it up: the original arrival
/// (its deadline does not reset just because its node died), the attempts
/// already spent, and any barrier-granular checkpoint of the banked work.
/// A whole dispatch's evictees share one `Rc` so the adopting pool's
/// dispatcher re-assembles the failover group by pointer identity, exactly
/// like an intra-pool checkpointed failover.
#[derive(Debug, Clone)]
pub struct Evicted {
    /// Original arrival time (global virtual seconds).
    pub arrival_s: f64,
    /// Attempts already spent on the dead node.
    pub attempts: u32,
    /// The banked frontier riding with this request, if any.
    pub ckpt: Option<Rc<PlanCheckpoint>>,
}

/// How one member of an in-flight batch will leave the card.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MemberEnd {
    Success {
        service_s: f64,
    },
    Failure,
    /// Cancelled by the per-attempt timeout: budget may remain to fail over.
    AttemptTimeout,
    /// Cancelled at the absolute deadline: terminal miss.
    DeadlineCancel,
}

/// A batch on a card.
#[derive(Debug, Clone)]
struct Batch {
    /// Batch members with their individual settle times and ends.
    members: Vec<(Request, f64, MemberEnd)>,
    /// Run quality, and the stripes the run leaves resident, when the
    /// whole batch succeeded; `None` on any cancel or failure (those score
    /// the card down instead, and pin nothing).
    batch_success: Option<(f64, Rc<[ResidentStripe]>)>,
    /// Counters of the batch run serving this dispatch.
    run_corruption: CorruptionCounters,
    /// The frontier a failed dispatch banked — handed to the failover
    /// members at settle time. One fresh `Rc` per dispatch, so pointer
    /// identity delimits exactly this batch's group in the queue.
    checkpoint: Option<Rc<PlanCheckpoint>>,
    /// The dead run's command quality (`None` when the dispatch succeeded
    /// or was only cancelled).
    fail_quality: Option<f64>,
}

/// A serving card: the pool card, its dispatch memo keyed by batch size
/// (and, inside the card, by whether its weight cache is warm), plus what
/// only the serving pool counts.
#[derive(Debug)]
struct Device {
    card: Card<usize, Batch>,
    /// Counters summed over every batch run dispatched to this card.
    corruption: CorruptionCounters,
    batches: usize,
    cancelled: usize,
}

/// The serving pool: bounded queue + health-tracked devices, advanced in
/// deterministic virtual time.
#[derive(Debug)]
pub struct ServePool {
    cfg: ServeConfig,
    devices: Vec<Device>,
    queue: VecDeque<Request>,
    now_s: f64,
    /// Fault-free makespan of one request on a cold card — the
    /// dispatcher's service-time expectation for certain-miss expiry. A
    /// warm card is never slower, so every safety decision keeps the cold
    /// bound.
    nominal_s: f64,
    /// Fault-free cold makespan per batch size (memoised; seeded with size 1).
    nominal_batch: HashMap<usize, f64>,
    /// Weight bytes one dispatch's schedule streams with nothing resident
    /// (the same at every batch size: a batch loads each stripe once).
    schedule_bytes: u64,
    /// `LoadStripe`s the cards' weight caches elided over successful runs.
    elided_loads: usize,
    /// Bytes those elisions kept off the HBM channels.
    elided_load_bytes: u64,
    /// Bytes the dispatched schedules would have streamed with nothing
    /// resident.
    scheduled_load_bytes: u64,
    /// HBM weight-load busy seconds of one fault-free solo run.
    solo_load_s: f64,
    /// Load busy seconds summed over successful batch runs.
    load_busy_total_s: f64,
    /// Utterances carried by those successful batch runs.
    ok_batch_utts: usize,
    last_arrival_s: f64,
    /// The first submission's arrival: the arrival rate is measured from
    /// here to `last_arrival_s`.
    first_submit_s: Option<f64>,
    submitted: usize,
    failed_over: usize,
    records: Vec<(usize, RequestRecord)>,
    last_finish_s: f64,
    draining: bool,
    /// Fail-stopped: the node died; the pool refuses all further work.
    dead: bool,
    /// Requests forced out by [`ServePool::fail_stop`].
    evicted: usize,
    /// Checkpoint rejects caused specifically by a weight-version mismatch
    /// (a subset of `checkpoint_rejects`) — the typed cross-version refusal
    /// rolling upgrades rely on.
    version_rejects: usize,
    /// Failover dispatches that resumed from a checkpointed suffix.
    resumed_dispatches: usize,
    /// Checkpoints rejected at validation; each fell back to a full restart.
    checkpoint_rejects: usize,
    /// `LoadStripe` bytes re-fetched that a prior attempt already loaded.
    replayed_load_bytes: u64,
    /// Attempt-seconds re-executed that a prior attempt already spent.
    replayed_compute_s: f64,
    /// `LoadStripe` bytes resumes skipped (completed prefix + trusted).
    skipped_load_bytes: u64,
    /// Banked attempt-seconds successful resumes did not re-execute.
    skipped_compute_s: f64,
}

impl ServePool {
    /// A pool whose per-card fault plans come from [`pool_fault_plans`].
    pub fn new(cfg: ServeConfig) -> Result<Self> {
        let plans = pool_fault_plans(cfg.fault_seed, cfg.devices);
        Self::with_plans(cfg, plans)
    }

    /// A pool with an explicit fault plan per card.
    pub fn with_plans(cfg: ServeConfig, plans: Vec<FaultPlan>) -> Result<Self> {
        if cfg.devices == 0 || plans.len() != cfg.devices {
            return Err(AccelError::Config(format!(
                "pool needs >= 1 device and one fault plan each (got {} plans for {} devices)",
                plans.len(),
                cfg.devices
            )));
        }
        if cfg.rps <= 0.0 || !cfg.rps.is_finite() {
            return Err(AccelError::Config(format!(
                "offered load must be positive, got {}",
                cfg.rps
            )));
        }
        if cfg.queue_capacity == 0 {
            return Err(AccelError::Config(
                "queue_capacity must be >= 1: an empty queue refuses even an idle pool".into(),
            ));
        }
        if cfg.batch.max_batch == 0 {
            return Err(AccelError::Config("batch.max_batch must be >= 1".into()));
        }
        if !cfg.batch.linger_s.is_finite() || cfg.batch.linger_s < 0.0 {
            return Err(AccelError::Config(format!(
                "batch.linger_s must be finite and >= 0, got {}",
                cfg.batch.linger_s
            )));
        }
        let s = cfg.accel.max_seq_len;
        let solo = ExecPlan::lower(&cfg.accel, cfg.arch, s, 1, cfg.accel.integrity)?;
        let nominal = run_plan(&cfg.accel, &solo);
        let nominal_s = nominal.makespan_s;
        if cfg.attempt_timeout() < nominal_s {
            return Err(AccelError::Config(format!(
                "deadline {:.1} ms is below twice the nominal makespan {:.1} ms: the \
                 per-attempt timeout (half the deadline) would cut every request",
                cfg.deadline_s * 1e3,
                nominal_s * 1e3
            )));
        }
        let devices = plans
            .into_iter()
            .enumerate()
            .map(|(i, plan)| Device {
                card: Card::new(i, plan),
                corruption: CorruptionCounters::default(),
                batches: 0,
                cancelled: 0,
            })
            .collect();
        Ok(ServePool {
            devices,
            queue: VecDeque::new(),
            now_s: 0.0,
            nominal_s,
            nominal_batch: HashMap::from([(1, nominal_s)]),
            schedule_bytes: solo.scheduled_load_bytes(),
            elided_loads: 0,
            elided_load_bytes: 0,
            scheduled_load_bytes: 0,
            solo_load_s: nominal.load_busy_s,
            load_busy_total_s: 0.0,
            ok_batch_utts: 0,
            last_arrival_s: 0.0,
            first_submit_s: None,
            submitted: 0,
            failed_over: 0,
            records: Vec::new(),
            last_finish_s: 0.0,
            draining: false,
            dead: false,
            evicted: 0,
            version_rejects: 0,
            resumed_dispatches: 0,
            checkpoint_rejects: 0,
            replayed_load_bytes: 0,
            replayed_compute_s: 0.0,
            skipped_load_bytes: 0,
            skipped_compute_s: 0.0,
            cfg,
        })
    }

    /// Fault-free makespan of one request on a cold card (the service-time
    /// expectation; a warm card is never slower).
    pub fn nominal_s(&self) -> f64 {
        self.nominal_s
    }

    /// Fault-free makespan of a size-`batch` dispatch on a cold card — the
    /// projected batch makespan a joining request's deadline is checked
    /// against, an upper bound for a warm card, and what the dispatcher's
    /// price and linger rule charge a batch. Memoised and lowered on first
    /// use; the underlying schedule is deterministic.
    fn batch_nominal_s(&mut self, batch: usize) -> f64 {
        if let Some(&t) = self.nominal_batch.get(&batch) {
            return t;
        }
        let (accel, s) = (&self.cfg.accel, self.cfg.accel.max_seq_len);
        let plan = ExecPlan::lower(accel, self.cfg.arch, s, batch, accel.integrity)
            .expect("pool config validated at construction");
        let makespan_s = run_plan(accel, &plan).makespan_s;
        self.nominal_batch.insert(batch, makespan_s);
        makespan_s
    }

    /// Submit one request arriving at `arrival_s` (finite, and must not
    /// decrease between calls). Returns the typed [`AccelError::Overloaded`]
    /// when the request is shed at admission; the shed is also counted in
    /// the report. A non-finite arrival is refused with
    /// [`AccelError::Config`] and not counted as submitted.
    pub fn submit(&mut self, arrival_s: f64) -> Result<()> {
        if self.dead {
            return Err(AccelError::Config("pool is fail-stopped".into()));
        }
        if !arrival_s.is_finite() {
            return Err(AccelError::Config(format!(
                "arrival time must be finite, got {arrival_s}"
            )));
        }
        self.advance_to(arrival_s);
        let id = self.submitted;
        self.submitted += 1;
        self.first_submit_s.get_or_insert(arrival_s);
        self.last_arrival_s = arrival_s;
        if self.queue.len() >= self.cfg.queue_capacity {
            self.finish_request(
                Request {
                    id,
                    arrival_s,
                    attempts: 0,
                    failed_over: false,
                    exclude: None,
                    ckpt: None,
                },
                RequestOutcome::Shed,
            );
            return Err(AccelError::Overloaded {
                queued: self.queue.len(),
                capacity: self.cfg.queue_capacity,
            });
        }
        self.queue.push_back(Request {
            id,
            arrival_s,
            attempts: 0,
            failed_over: false,
            exclude: None,
            ckpt: None,
        });
        self.dispatch();
        Ok(())
    }

    /// Complete all queued and in-flight work (graceful shutdown) and return
    /// the report. Queued requests outside the shutdown grace window are
    /// dropped and reported, in-flight work always completes or is cancelled
    /// at its deadline — never abandoned mid-run.
    pub fn drain(mut self) -> ServeReport {
        self.begin_drain();
        while !self.is_idle() {
            let next = self.next_event_time();
            let t = next.expect("a drainable pool always has a next event");
            self.advance_to(t);
        }
        self.into_report()
    }

    // ---- cluster hooks ----
    //
    // A cluster router co-simulates several pools in one global virtual
    // time: it peeks each pool's `next_event_s`, advances every pool to the
    // earliest global event with `run_until`, and uses the drain/version/
    // fail-stop hooks below to express node-granular lifecycle (rolling
    // upgrades, node death, correlated fault injection) without duplicating
    // the event loop.

    /// Stop accepting the linger optimisation and start the shutdown grace
    /// window: the borrowed half of [`ServePool::drain`], for callers that
    /// need the pool back afterwards (rolling upgrades drain, flash, then
    /// serve again via [`ServePool::end_drain`]).
    pub fn begin_drain(&mut self) {
        self.draining = true;
        self.dispatch();
    }

    /// Leave draining mode (the node rejoins service after a flash).
    pub fn end_drain(&mut self) {
        self.draining = false;
        self.dispatch();
    }

    /// No queued work and no card busy.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.devices.iter().all(|d| d.card.in_flight.is_none())
    }

    /// Whether [`ServePool::fail_stop`] has killed this pool.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Current virtual time, seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Requests currently on a card.
    pub fn in_flight(&self) -> usize {
        self.devices
            .iter()
            .filter_map(|d| d.card.in_flight.as_ref())
            .map(|f| f.work.members.len())
            .sum()
    }

    /// Requests submitted so far (shed included).
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// The earliest virtual time a request submitted now could start: each
    /// card whose breaker admits work frees up at its in-flight finish (now
    /// if idle), and the queue ahead takes the earliest-free card in FIFO
    /// order for a cold nominal run each, the price every safety decision
    /// uses; the dispatcher lays out the queue beyond a dispatch the same
    /// way. A pool with no admitting card (a dead one included) reads
    /// infinity, never idle. The cluster router places work by this alone.
    pub fn projected_start_s(&self) -> f64 {
        if self.dead {
            return f64::INFINITY;
        }
        let free = self.admitting_cards_free_s().map(|(_, t)| t);
        if self.queue.is_empty() {
            // The common case at routing time: no queue to lay out.
            return free.min_by(f64::total_cmp).unwrap_or(f64::INFINITY);
        }
        let mut free: Vec<f64> = free.collect();
        for r in &self.queue {
            lay_out_solo(&mut free, r.arrival_s, self.nominal_s);
        }
        free.into_iter().min_by(f64::total_cmp).unwrap_or(f64::INFINITY)
    }

    /// Earliest strictly-future internal event, for a co-simulating router.
    pub fn next_event_s(&self) -> Option<f64> {
        if self.dead {
            return None;
        }
        self.next_event_time()
    }

    /// Process every internal event up to and including `target`, then move
    /// the clock there. Public face of the virtual-time machinery for
    /// co-simulation; a dead pool just moves its clock.
    pub fn run_until(&mut self, target: f64) {
        if self.dead {
            self.now_s = self.now_s.max(target);
            return;
        }
        self.advance_to(target);
    }

    /// The weight-set version the pool's cards are flashed to.
    pub fn weight_version(&self) -> u64 {
        self.cfg.accel.weight_version
    }

    /// Flash every card to weight version `v`. Only an idle, drained pool
    /// may be flashed — in-flight or queued work pins the old version, which
    /// is exactly the invariant that keeps any single dispatched batch on
    /// one weight version. Empties every card's weight cache (its stripes
    /// are the old version's) and clears the memoised dispatch outcomes
    /// (their banked checkpoints are tagged with the old version).
    pub fn set_weight_version(&mut self, v: u64) -> Result<()> {
        if self.dead {
            return Err(AccelError::Config("pool is fail-stopped".into()));
        }
        if !self.is_idle() {
            return Err(AccelError::Config(format!(
                "cannot flash weight version {} with {} queued and {} in flight",
                v,
                self.queue.len(),
                self.in_flight()
            )));
        }
        self.cfg.accel.weight_version = v;
        for d in &mut self.devices {
            d.card.flash();
        }
        Ok(())
    }

    /// Final breaker state and lifetime open count per card.
    pub fn breaker_summary(&self) -> Vec<(BreakerState, u32)> {
        self.devices.iter().map(|d| (d.card.breaker.state, d.card.breaker.opens)).collect()
    }

    /// Merge extra fault plans (one per card) into the pool — the node-wide
    /// correlated-burst injection point. Future dispatches see the merged
    /// plan; the memoised outcomes are cleared so they do.
    pub fn inject_faults(&mut self, extra: &[FaultPlan]) -> Result<()> {
        if extra.len() != self.devices.len() {
            return Err(AccelError::Config(format!(
                "fault injection needs one plan per card: {} plans for {} cards",
                extra.len(),
                self.devices.len()
            )));
        }
        for (d, plan) in self.devices.iter_mut().zip(extra) {
            d.card.plan = d.card.plan.clone().merged(plan);
            d.card.forget_outcomes();
        }
        Ok(())
    }

    /// Kill the node at the current virtual time. Utterances whose last
    /// kernel already landed still count as completed (their results left
    /// the cards before the power went); everything else — queued work and
    /// unfinished in-flight members — is evicted with its original arrival
    /// time, spent attempts, and (when checkpointing is on) a
    /// barrier-granular cut of the banked work, for a surviving node to
    /// [`ServePool::adopt`]. The pool refuses all work afterwards.
    pub fn fail_stop(&mut self) -> Vec<Evicted> {
        let now = self.now_s;
        self.dead = true;
        self.draining = true;
        let mut out: Vec<Evicted> = Vec::new();
        for i in 0..self.devices.len() {
            let Some(fl) = self.devices[i].card.kill(now) else { continue };
            let batch = fl.work.members.len();
            let device = self.devices[i].card.id;
            // Finished prefix: members whose final kernel retired at or
            // before the kill instant are served, not lost.
            let mut finished_local: Vec<f64> = Vec::new();
            let mut unfinished: Vec<Request> = Vec::new();
            for (r, t, end) in fl.work.members {
                match end {
                    MemberEnd::Success { service_s } if t <= now + 1e-15 => {
                        finished_local.push(service_s);
                        self.devices[i].card.completed += 1;
                        self.finish_request(
                            r.clone(),
                            RequestOutcome::Completed {
                                device,
                                latency_s: t - r.arrival_s,
                                service_s,
                                batch,
                                corruption: fl.work.run_corruption,
                                version: self.cfg.accel.weight_version,
                            },
                        );
                    }
                    _ => unfinished.push(r),
                }
            }
            if unfinished.is_empty() {
                continue;
            }
            // Cut the banked frontier at the kill instant. A member already
            // carrying a checkpoint keeps it (a resumed suffix's absolute
            // frontier is at least that cut); fresh members share one new
            // cut over the analytic barrier schedule of the cold plan, which
            // a warm card is never behind, so the cut claims no work the
            // card had not done.
            let group_ckpt: Option<Rc<PlanCheckpoint>> = if self.cfg.checkpoint
                && unfinished.iter().any(|r| r.ckpt.is_none())
            {
                let s = self.cfg.accel.max_seq_len;
                ExecPlan::lower(&self.cfg.accel, self.cfg.arch, s, batch, self.cfg.accel.integrity)
                    .ok()
                    .and_then(|plan| {
                        let cost = walk_cost(&self.cfg.accel, &plan);
                        let (completed, loaded) = cost.frontier_at(now - fl.started_s);
                        let ck = PlanCheckpoint::at(
                            &plan,
                            completed,
                            loaded,
                            &finished_local,
                            now - fl.started_s,
                        );
                        ck.work_remains().then(|| Rc::new(ck))
                    })
            } else {
                None
            };
            for r in unfinished {
                let ckpt = r.ckpt.clone().or_else(|| group_ckpt.clone());
                self.evicted += 1;
                out.push(Evicted { arrival_s: r.arrival_s, attempts: r.attempts, ckpt });
            }
        }
        for r in std::mem::take(&mut self.queue) {
            self.evicted += 1;
            out.push(Evicted { arrival_s: r.arrival_s, attempts: r.attempts, ckpt: r.ckpt });
        }
        out
    }

    /// Take over requests evicted from a dead node. Each adopted request
    /// keeps its original arrival time (its deadline does not reset because
    /// its node died) and its checkpoint `Rc` (group identity survives the
    /// handoff, so a whole evicted dispatch resumes together). Adoption
    /// respects the bounded queue: overflow is shed typed, like admission.
    pub fn adopt(&mut self, evicted: Vec<Evicted>) -> Result<()> {
        if self.dead {
            return Err(AccelError::Config("pool is fail-stopped".into()));
        }
        for e in evicted {
            let id = self.submitted;
            self.submitted += 1;
            let r = Request {
                id,
                arrival_s: e.arrival_s,
                attempts: e.attempts,
                failed_over: false,
                exclude: None,
                ckpt: e.ckpt,
            };
            if self.queue.len() >= self.cfg.queue_capacity {
                self.finish_request(r, RequestOutcome::Shed);
                continue;
            }
            self.queue.push_back(r);
        }
        self.dispatch();
        Ok(())
    }

    /// Run the configured workload end to end: `requests` arrivals at
    /// `1/rps` spacing, then drain.
    pub fn run(cfg: ServeConfig) -> Result<ServeReport> {
        let n = cfg.requests;
        let rps = cfg.rps;
        let mut pool = ServePool::new(cfg)?;
        for i in 0..n {
            // A shed request is already recorded; the typed error is the
            // caller-facing half of the same event.
            let _ = pool.submit(i as f64 / rps);
        }
        Ok(pool.drain())
    }

    // ---- virtual-time machinery ----

    /// Earliest *strictly future* internal event: an in-flight completion,
    /// a breaker cooldown expiry that could unblock the queue, or the
    /// queued head's deadline. Events at or before `now_s` have already
    /// been applied by the dispatch that follows every clock move.
    fn next_event_time(&self) -> Option<f64> {
        let now = self.now_s;
        let mut t: Option<f64> = None;
        let mut fold = |cand: f64| {
            if cand > now {
                t = Some(t.map_or(cand, |cur: f64| cur.min(cand)));
            }
        };
        for d in &self.devices {
            if let Some(fl) = &d.card.in_flight {
                fold(fl.finish_s);
            } else if !self.queue.is_empty() {
                if let Some(reopen) = d.card.breaker.reopen_time() {
                    fold(reopen);
                }
            }
        }
        // A queued head that can no longer be served must still expire even
        // if no completion or reopen precedes its deadline.
        if let Some(r) = self.queue.front() {
            fold(r.arrival_s + self.cfg.deadline_s);
        }
        // A lingering underfull batch dispatches when the head's linger
        // window closes, even with no other event pending.
        if !self.draining && self.cfg.batch.max_batch > 1 && self.cfg.batch.linger_s > 0.0 {
            if let Some(r) = self.queue.front() {
                fold(r.arrival_s + self.cfg.batch.linger_s);
            }
        }
        t
    }

    /// Process every internal event up to and including `target`, then move
    /// the clock there.
    fn advance_to(&mut self, target: f64) {
        loop {
            match self.next_event_time() {
                Some(t) if t <= target => {
                    self.now_s = t;
                    self.complete_finished();
                    self.dispatch();
                }
                _ => break,
            }
        }
        self.now_s = self.now_s.max(target);
        self.dispatch();
    }

    /// Settle every in-flight batch whose finish time has been reached:
    /// score the card once per dispatch, then settle each member on its own
    /// terms — a mid-batch fault fails over only the unfinished utterances.
    fn complete_finished(&mut self) {
        let now = self.now_s;
        for i in 0..self.devices.len() {
            let Some(fl) = self.devices[i].card.settle(now) else { continue };
            let batch = fl.work;
            let hard = batch.members.iter().any(|(_, _, e)| matches!(e, MemberEnd::Failure));
            let soft = batch.members.iter().any(|(_, _, e)| {
                matches!(e, MemberEnd::AttemptTimeout | MemberEnd::DeadlineCancel)
            });
            if hard || soft {
                self.note_attempt_failure(
                    i,
                    fl.finish_s,
                    if hard { batch.fail_quality } else { None },
                );
            } else if let Some((quality, pins)) = batch.batch_success {
                let card = &mut self.devices[i].card;
                card.breaker.on_success();
                card.credit(quality);
                card.keep_resident(&pins);
            }
            let size = batch.members.len();
            let device = self.devices[i].card.id;
            // Reverse order so failover push_fronts leave the queue in
            // request-id order.
            for (r, t, end) in batch.members.into_iter().rev() {
                match end {
                    MemberEnd::Success { service_s } => {
                        self.devices[i].card.completed += 1;
                        self.finish_request(
                            r.clone(),
                            RequestOutcome::Completed {
                                device,
                                latency_s: t - r.arrival_s,
                                service_s,
                                batch: size,
                                corruption: batch.run_corruption,
                                version: self.cfg.accel.weight_version,
                            },
                        );
                    }
                    MemberEnd::Failure => {
                        self.devices[i].card.failed += 1;
                        let err = AccelError::Unrecoverable {
                            phase: "serve".into(),
                            label: format!("request#{} on {}", r.id, device),
                            attempts: r.attempts,
                            at_s: t,
                        };
                        // The dispatch's banked frontier rides with every
                        // failover member; whether it is resumed or re-paid
                        // from scratch is decided at re-dispatch.
                        let mut r = r;
                        r.ckpt = batch.checkpoint.clone();
                        self.failover_or(r, i, RequestOutcome::Failed(err));
                    }
                    MemberEnd::AttemptTimeout => {
                        self.devices[i].cancelled += 1;
                        let err = AccelError::DeadlineExceeded {
                            deadline_s: self.cfg.deadline_s,
                            waited_s: t - r.arrival_s,
                        };
                        let mut r = r;
                        r.ckpt = batch.checkpoint.clone();
                        self.failover_or(r, i, RequestOutcome::DeadlineMissed(err));
                    }
                    MemberEnd::DeadlineCancel => {
                        self.devices[i].cancelled += 1;
                        let err = AccelError::DeadlineExceeded {
                            deadline_s: self.cfg.deadline_s,
                            waited_s: t - r.arrival_s,
                        };
                        self.finish_request(r, RequestOutcome::DeadlineMissed(err));
                    }
                }
            }
        }
    }

    /// A dispatch that ended in any failure or cancel counts once against
    /// the card's breaker and health: a hard failure scores the dead run's
    /// quality, a cancel takes the flat penalty.
    fn note_attempt_failure(&mut self, device: usize, at_s: f64, fail_quality: Option<f64>) {
        let card = &mut self.devices[device].card;
        card.breaker.on_failure(at_s);
        match fail_quality {
            Some(q) => card.debit_dead_run(q),
            None => card.decay(),
        }
    }

    /// Re-enqueue a failed/timed-out request once onto the rest of the pool,
    /// or record its terminal outcome. The budget check charges the retry
    /// backoff a recovering attempt may sleep through, so a long backoff
    /// cannot silently blow past an admission-checked deadline.
    fn failover_or(&mut self, mut r: Request, from_device: usize, terminal: RequestOutcome) {
        let budget_left = self.now_s + self.nominal_s + max_total_backoff_s()
            <= r.arrival_s + self.cfg.deadline_s;
        if !r.failed_over && self.devices.len() > 1 && budget_left {
            r.failed_over = true;
            r.exclude = Some(from_device);
            self.failed_over += 1;
            self.queue.push_front(r);
        } else {
            self.finish_request(r, terminal);
        }
    }

    /// Each card whose breaker admits work, with the time it frees up: now
    /// if idle, else its in-flight finish.
    fn admitting_cards_free_s(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        let now = self.now_s;
        self.devices
            .iter()
            .enumerate()
            .filter(move |(_, d)| d.card.breaker.would_admit(now))
            .map(move |(j, d)| (j, d.card.in_flight.as_ref().map_or(now, |fl| fl.finish_s)))
    }

    /// Arrivals per second, measured from the pool's own submissions: the
    /// count so far over the time from the first to the latest, that time
    /// floored at one deadline so a start-up burst does not read as a
    /// sustained rate.
    fn arrival_rate(&self) -> f64 {
        let span = self.first_submit_s.map_or(0.0, |t| self.last_arrival_s - t);
        self.submitted as f64 / span.max(self.cfg.deadline_s)
    }

    /// The dispatch size in `1..=fit` for idle card `card` that minimises
    /// the summed projected finish of every queued request and of the
    /// arrivals expected within one deadline at the measured rate (none
    /// once the pool drains, since it takes no more submissions). Each
    /// member of a size-`b` dispatch ends at `now + n(b)`; the rest of the
    /// queue, then the expected arrivals, start FIFO and solo at the cold
    /// `n(1)` on whichever admitting card frees up first
    /// ([`lay_out_solo`]). Ties go to the smaller size.
    fn cheapest_size(&mut self, card: usize, fit: usize) -> usize {
        let (now, n1) = (self.now_s, self.nominal_s);
        let free: Vec<(usize, f64)> = self.admitting_cards_free_s().collect();
        // Per size: when each card frees up, and the summed finish so far
        // (measured from now).
        let mut layouts: Vec<(Vec<f64>, f64)> = Vec::with_capacity(fit);
        for b in 1..=fit {
            let nb = self.batch_nominal_s(b);
            let mut cards: Vec<f64> =
                free.iter().map(|&(j, t)| if j == card { now + nb } else { t }).collect();
            let mut cost = b as f64 * nb;
            for r in self.queue.iter().skip(b) {
                cost += lay_out_solo(&mut cards, r.arrival_s, n1) - now;
            }
            layouts.push((cards, cost));
        }
        let rate = self.arrival_rate();
        let expected =
            if self.draining { 0 } else { (rate * self.cfg.deadline_s).floor() as usize };
        for k in 1..=expected {
            let at = now + k as f64 / rate;
            // A card free by `at` serves this arrival and every later one
            // like any other such card. Once every size's cards agree up
            // to that, each later arrival costs every size the same: stop.
            for (cards, _) in &mut layouts {
                cards.sort_by(f64::total_cmp);
            }
            let alike = |cards: &[f64]| {
                cards.iter().zip(&layouts[0].0).all(|(a, b)| a.max(at) == b.max(at))
            };
            if layouts[1..].iter().all(|(cards, _)| alike(cards)) {
                break;
            }
            for (cards, cost) in &mut layouts {
                *cost += lay_out_solo(cards, at, n1) - now;
            }
        }
        let costs = layouts.iter().map(|&(_, cost)| cost).enumerate();
        costs.min_by(|a, b| a.1.total_cmp(&b.1)).map_or(1, |(i, _)| i + 1)
    }

    /// Pull work from the queue head onto the best available card.
    fn dispatch(&mut self) {
        let now = self.now_s;
        // The grace window only bites once the caller has started draining:
        // before that, more arrivals may still come and the backlog is live.
        let shutdown_cutoff = if self.draining {
            self.cfg.shutdown_grace_s.map(|g| self.last_arrival_s + g)
        } else {
            None
        };
        while let Some(head) = self.queue.front().cloned() {
            let deadline = head.arrival_s + self.cfg.deadline_s;
            // Certain miss: even a fault-free run no longer fits the budget.
            if now + self.nominal_s > deadline {
                self.queue.pop_front();
                let err = AccelError::DeadlineExceeded {
                    deadline_s: self.cfg.deadline_s,
                    waited_s: now - head.arrival_s,
                };
                self.finish_request(head, RequestOutcome::DeadlineMissed(err));
                continue;
            }
            if let Some(cutoff) = shutdown_cutoff {
                if now > cutoff {
                    self.queue.pop_front();
                    self.finish_request(head, RequestOutcome::DroppedAtShutdown);
                    continue;
                }
            }
            // Health-weighted least-loaded routing over idle cards whose
            // breakers admit, excluding the card that already failed this
            // request. A card's cost is its lifetime attempt count inflated
            // by poor health, so a degraded-but-not-quarantined card keeps
            // receiving a trickle of traffic (enough for its breaker to see
            // consecutive failures and open) while healthy cards carry the
            // bulk. Ties go to the lowest index — fully deterministic.
            let mut best: Option<(usize, f64)> = None;
            let mut idle = 0usize;
            for (i, d) in self.devices.iter().enumerate() {
                let card = &d.card;
                if card.in_flight.is_some()
                    || Some(i) == head.exclude
                    || !card.breaker.would_admit(now)
                {
                    continue;
                }
                idle += 1;
                let cost = card.served as f64 / card.health;
                best = match best {
                    Some((_, b_cost)) if b_cost <= cost => best,
                    _ => Some((i, cost)),
                };
            }
            let Some((i, _)) = best else { break };
            // A checkpointed failover group rides together: the checkpoint
            // was cut for exactly these members, so the dispatch *is* the
            // group — no growing, no splitting. With checkpointing disabled
            // (or a mangled group — a member expired out of it), the banked
            // work is re-paid by a clean full restart and the re-payment is
            // recorded in the replayed-work accounting.
            if let Some(ck) = head.ckpt.clone() {
                let mut group = 1usize;
                while group < self.queue.len()
                    && self.queue[group].ckpt.as_ref().is_some_and(|c| Rc::ptr_eq(c, &ck))
                {
                    group += 1;
                }
                if self.cfg.checkpoint && group == ck.remaining_lens().len() {
                    let members: Vec<Request> = (0..group)
                        .map(|_| {
                            let mut r = self.queue.pop_front().expect("sized against the queue");
                            r.attempts += 1;
                            r
                        })
                        .collect();
                    self.start_attempt(i, members);
                    continue;
                }
                self.replayed_load_bytes += ck.loaded_bytes();
                self.replayed_compute_s += ck.captured_at_s;
                for r in self.queue.iter_mut().take(group) {
                    r.ckpt = None;
                }
                // fall through: the head is a plain full-restart request now
            }
            // Size the dispatch past the head. A queued request can join
            // only while the *projected batched makespan* still fits the
            // attempt timeout and every member's deadline (batch-aware
            // admission), and a failed-over request never rides the card it
            // excluded. Among the sizes that pass, the dispatch takes the
            // one with the least summed finish over the queue and the
            // arrivals still to come: on a compute-bound card each member
            // adds nearly a solo run, so a batch pays only when enough work
            // would otherwise wait for the card.
            let max_batch = self.cfg.batch.max_batch;
            let attempt_cutoff = now + self.cfg.attempt_timeout();
            let queued = self.queue.len();
            let mut fit = 1usize;
            while fit < max_batch && fit < queued {
                if self.queue[fit].exclude == Some(i) || self.queue[fit].ckpt.is_some() {
                    break;
                }
                let projected = self.batch_nominal_s(fit + 1);
                let fits = now + projected <= attempt_cutoff
                    && (0..=fit)
                        .all(|j| now + projected <= self.queue[j].arrival_s + self.cfg.deadline_s);
                if !fits {
                    break;
                }
                fit += 1;
            }
            let size = if fit > 1 { self.cheapest_size(i, fit) } else { 1 };
            // Linger: hold an underfull batch open while the whole queue
            // fits in it, the head's linger window is still running, this
            // is the last card that could start it — with another idle card
            // able to take the next arrival, waiting buys no batching — and
            // one more member would save the card at least the whole window
            // (`n(1) + n(b) - n(b+1)`), so the wait pays for itself.
            if !self.draining
                && size < max_batch
                && size == queued
                && idle == 1
                && now < head.arrival_s + self.cfg.batch.linger_s
                && self.nominal_s + self.batch_nominal_s(size) - self.batch_nominal_s(size + 1)
                    >= self.cfg.batch.linger_s
            {
                break;
            }
            let members: Vec<Request> = (0..size)
                .map(|_| {
                    let mut r = self.queue.pop_front().expect("sized against the queue");
                    r.attempts += 1;
                    r
                })
                .collect();
            self.start_attempt(i, members);
        }
    }

    /// Place a batch on a card and schedule how each member will end.
    fn start_attempt(&mut self, device: usize, members: Vec<Request>) {
        let now = self.now_s;
        let b = members.len();
        let outcome = match members[0].ckpt.clone() {
            Some(ck) => self.resumed_outcome(device, &ck),
            None => self.device_outcome(device, b),
        };
        let attempt_cutoff = now + self.cfg.attempt_timeout();
        let latest_deadline = members
            .iter()
            .map(|r| r.arrival_s + self.cfg.deadline_s)
            .fold(f64::NEG_INFINITY, f64::max);
        let cutoff = attempt_cutoff.min(latest_deadline);
        self.scheduled_load_bytes += self.schedule_bytes;
        let (
            settled,
            finish_s,
            batch_success,
            run_corruption,
            fail_ckpt,
            fail_quality,
            run_timeouts,
        ) = match outcome {
            CardOutcome::Ok {
                service_s,
                utt_finish_s,
                quality,
                corruption,
                load_busy_s,
                timed_out,
                reuse,
                pins,
            } => {
                self.load_busy_total_s += load_busy_s;
                self.ok_batch_utts += b;
                self.elided_loads += reuse.elided_loads;
                self.elided_load_bytes += reuse.elided_load_bytes;
                let mut all_ok = true;
                let settled: Vec<(Request, f64, MemberEnd)> = members
                    .into_iter()
                    .enumerate()
                    .map(|(u, r)| {
                        let end_u = now + utt_finish_s[u];
                        let dl_u = r.arrival_s + self.cfg.deadline_s;
                        if end_u <= cutoff && end_u <= dl_u {
                            (r, end_u, MemberEnd::Success { service_s: utt_finish_s[u] })
                        } else if dl_u <= cutoff {
                            all_ok = false;
                            (r, dl_u, MemberEnd::DeadlineCancel)
                        } else {
                            all_ok = false;
                            (r, cutoff, MemberEnd::AttemptTimeout)
                        }
                    })
                    .collect();
                let finish_s = (now + service_s).min(cutoff);
                (
                    settled,
                    finish_s,
                    all_ok.then_some((quality, pins)),
                    corruption,
                    None,
                    None,
                    timed_out,
                )
            }
            CardOutcome::Fail { fail_after_s, finished_s, checkpoint, quality, timed_out } => {
                // A mid-batch fault: members whose last kernel already
                // landed are served; the rest fail at the fault instant.
                let fail_t = now + fail_after_s;
                let settled: Vec<(Request, f64, MemberEnd)> = members
                    .into_iter()
                    .enumerate()
                    .map(|(u, r)| {
                        let dl_u = r.arrival_s + self.cfg.deadline_s;
                        if let Some(&f) = finished_s.get(u) {
                            let end_u = now + f;
                            if end_u <= cutoff && end_u <= dl_u {
                                return (r, end_u, MemberEnd::Success { service_s: f });
                            }
                        }
                        if fail_t <= cutoff && fail_t <= dl_u {
                            (r, fail_t, MemberEnd::Failure)
                        } else if dl_u <= cutoff {
                            (r, dl_u, MemberEnd::DeadlineCancel)
                        } else {
                            (r, cutoff, MemberEnd::AttemptTimeout)
                        }
                    })
                    .collect();
                let finish_s = fail_t.min(cutoff);
                // Re-wrap in a fresh `Rc`: memoised outcomes share one
                // allocation across dispatches, and pointer identity must
                // delimit exactly *this* dispatch's failover group.
                let ckpt = checkpoint.map(|c| Rc::new((*c).clone()));
                (
                    settled,
                    finish_s,
                    None,
                    CorruptionCounters::default(),
                    ckpt,
                    Some(quality),
                    timed_out,
                )
            }
        };
        let d = &mut self.devices[device];
        d.card.start(
            now,
            finish_s,
            Batch {
                members: settled,
                batch_success,
                run_corruption,
                checkpoint: fail_ckpt,
                fail_quality,
            },
        );
        d.card.served += b;
        d.card.timed_out += run_timeouts;
        d.batches += 1;
        d.corruption.merge(&run_corruption);
    }

    /// What a size-`batch` dispatch on this card does: the batch's plan,
    /// lowered against the card's weight cache, under the card's fault plan
    /// through the recovery executor — once per (card, batch size, warm).
    fn device_outcome(&mut self, device: usize, batch: usize) -> CardOutcome {
        let cfg = &self.cfg;
        self.devices[device].card.outcome(batch, |faults, resident| {
            let (accel, s) = (&cfg.accel, cfg.accel.max_seq_len);
            match PlanBuilder::new(accel, cfg.arch)
                .utterances(&vec![s; batch])
                .integrity(accel.integrity)
                .reuse_resident(resident)
                .build()
            {
                Ok(plan) => CardOutcome::of(&plan, run_plan_with_recovery(accel, &plan, faults)),
                Err(e) => BatchFailure::from(e).into(),
            }
        })
    }

    /// What resuming `ck` on this card does — *not* memoised: each
    /// checkpoint is a distinct suffix. The resume lowers against the
    /// card's config without trusting the dead card's resident stripes
    /// (failover is cross-device) and without the card's own weight cache
    /// (a resume and resident reuse are exclusive lowerings); a checkpoint
    /// that fails validation is rejected typed and the dispatch falls back
    /// to a clean full restart, re-paying the banked work.
    fn resumed_outcome(&mut self, device: usize, ck: &PlanCheckpoint) -> CardOutcome {
        // Cross-version refusal, typed and counted separately: a checkpoint
        // cut under one weight set never completes under another (plan
        // validation would reject it too; gating here types the counter the
        // rolling-upgrade invariant is audited by).
        if ck.weight_version != self.cfg.accel.weight_version {
            self.version_rejects += 1;
            self.checkpoint_rejects += 1;
            self.replayed_load_bytes += ck.loaded_bytes();
            self.replayed_compute_s += ck.captured_at_s;
            return self.device_outcome(device, ck.remaining_lens().len());
        }
        let (accel, faults) = (&self.cfg.accel, self.devices[device].card.plan.clone());
        let plan = ExecPlan::resume(accel, ck, false);
        let run = match &plan {
            Ok(plan) => run_plan_with_recovery(accel, plan, faults),
            Err(e) => Err(e.clone().into()),
        };
        match &run {
            Ok(run) => {
                if let Some(res) = &run.resume {
                    self.skipped_load_bytes += res.skipped_load_bytes;
                    self.replayed_load_bytes += res.replayed_load_bytes;
                }
                self.skipped_compute_s += ck.captured_at_s;
            }
            Err(fail) if matches!(fail.error, AccelError::CheckpointRejected { .. }) => {
                self.checkpoint_rejects += 1;
                self.replayed_load_bytes += ck.loaded_bytes();
                self.replayed_compute_s += ck.captured_at_s;
                return self.device_outcome(device, ck.remaining_lens().len());
            }
            // Double fault mid-resume: the failure banks a *newer* frontier
            // (its completed prefix includes the resumed suffix's progress),
            // so the next failover resumes from there — utterances are
            // partitioned, never replayed from scratch or dropped.
            Err(_) => {}
        }
        self.resumed_dispatches += 1;
        match plan {
            Ok(plan) => CardOutcome::of(&plan, run),
            Err(e) => BatchFailure::from(e).into(),
        }
    }

    fn finish_request(&mut self, r: Request, outcome: RequestOutcome) {
        if let RequestOutcome::Completed { latency_s, .. } = outcome {
            self.last_finish_s = self.last_finish_s.max(r.arrival_s + latency_s);
        }
        self.records.push((
            r.id,
            RequestRecord {
                id: r.id,
                arrival_s: r.arrival_s,
                attempts: r.attempts,
                failed_over: r.failed_over,
                outcome,
            },
        ));
    }

    pub(crate) fn into_report(mut self) -> ServeReport {
        self.records.sort_by_key(|(id, _)| *id);
        let records: Vec<RequestRecord> = self.records.into_iter().map(|(_, r)| r).collect();
        let count = |f: &dyn Fn(&RequestRecord) -> bool| records.iter().filter(|r| f(r)).count();
        let completed = count(&|r| matches!(r.outcome, RequestOutcome::Completed { .. }));
        let shed = count(&|r| matches!(r.outcome, RequestOutcome::Shed));
        let deadline_missed = count(&|r| matches!(r.outcome, RequestOutcome::DeadlineMissed(_)));
        let failed = count(&|r| matches!(r.outcome, RequestOutcome::Failed(_)));
        let dropped = count(&|r| matches!(r.outcome, RequestOutcome::DroppedAtShutdown));
        let mut latencies: Vec<f64> = records
            .iter()
            .filter_map(|r| match r.outcome {
                RequestOutcome::Completed { latency_s, .. } => Some(latency_s),
                _ => None,
            })
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let wall_s = self.last_finish_s;
        let mut corruption = CorruptionCounters::default();
        for d in &self.devices {
            corruption.merge(&d.corruption);
        }
        let batches: usize = self.devices.iter().map(|d| d.batches).sum();
        let served: usize = self.devices.iter().map(|d| d.card.served).sum();
        let mean_batch = if batches > 0 { served as f64 / batches as f64 } else { 0.0 };
        let amortized_load_s = if self.ok_batch_utts > 0 {
            self.load_busy_total_s / self.ok_batch_utts as f64
        } else {
            0.0
        };
        ServeReport {
            submitted: self.submitted,
            completed,
            shed,
            deadline_missed,
            failed,
            dropped_at_shutdown: dropped,
            failed_over: self.failed_over,
            wall_s,
            throughput_rps: if wall_s > 0.0 { completed as f64 / wall_s } else { 0.0 },
            p50_latency_s: percentile(&latencies, 0.50),
            p99_latency_s: percentile(&latencies, 0.99),
            per_device: self
                .devices
                .iter()
                .map(|d| DeviceReport {
                    id: d.card.id,
                    served: d.card.served,
                    completed: d.card.completed,
                    failed: d.card.failed,
                    cancelled: d.cancelled,
                    timed_out: d.card.timed_out,
                    breaker_opens: d.card.breaker.opens,
                    breaker_final: d.card.breaker.state,
                    health: d.card.health,
                    busy_s: d.card.busy_s,
                    corruption: d.corruption,
                })
                .collect(),
            records,
            corruption,
            batches,
            mean_batch,
            occupancy: mean_batch / self.cfg.batch.max_batch as f64,
            max_batch: self.cfg.batch.max_batch,
            amortized_load_s,
            solo_load_s: self.solo_load_s,
            elided_loads: self.elided_loads,
            elided_load_bytes: self.elided_load_bytes,
            scheduled_load_bytes: self.scheduled_load_bytes,
            resumed_dispatches: self.resumed_dispatches,
            checkpoint_rejects: self.checkpoint_rejects,
            replayed_load_bytes: self.replayed_load_bytes,
            replayed_compute_s: self.replayed_compute_s,
            skipped_load_bytes: self.skipped_load_bytes,
            skipped_compute_s: self.skipped_compute_s,
            weight_version: self.cfg.accel.weight_version,
            version_rejects: self.version_rejects,
            evicted: self.evicted,
        }
    }
}

/// One step of the FIFO layout behind [`ServePool::projected_start_s`] and
/// the dispatcher's price: a request arriving at `arrival_s` starts on
/// whichever card in `free` frees up first, no earlier than it arrives, for
/// a cold solo run of `n1`. Moves that card's free time to the request's
/// finish and returns it; infinity when there is no card.
fn lay_out_solo(free: &mut [f64], arrival_s: f64, n1: f64) -> f64 {
    match free.iter_mut().min_by(|a, b| a.total_cmp(b)) {
        Some(first) => {
            *first = first.max(arrival_s) + n1;
            *first
        }
        None => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(devices: usize, seed: u64, rps: f64, deadline_s: f64) -> ServeConfig {
        ServeConfig::new(devices, seed, rps, deadline_s)
    }

    /// A size-`batch` plan as a cold card lowers it, and as a warm one
    /// does: against the leading stripes its first dispatch pinned.
    fn cold_and_warm(c: &ServeConfig, batch: usize) -> (ExecPlan, ExecPlan) {
        let s = c.accel.max_seq_len;
        let cold = ExecPlan::lower(&c.accel, c.arch, s, batch, c.accel.integrity).unwrap();
        let warm = PlanBuilder::new(&c.accel, c.arch)
            .utterances(&vec![s; batch])
            .integrity(c.accel.integrity)
            .reuse_resident(&cold.pinned_stripes(PIN_SLOTS))
            .build()
            .unwrap();
        (cold, warm)
    }

    /// Fault-free `(cold, warm)` makespans of a size-`batch` dispatch.
    fn cold_and_warm_s(c: &ServeConfig, batch: usize) -> (f64, f64) {
        let (cold, warm) = cold_and_warm(c, batch);
        (run_plan(&c.accel, &cold).makespan_s, run_plan(&c.accel, &warm).makespan_s)
    }

    /// Advance a pool through every event it has pending.
    fn settle(pool: &mut ServePool) {
        while !pool.is_idle() {
            let t = pool.next_event_s().expect("a busy pool has a next event");
            pool.run_until(t);
        }
    }

    fn service_s(record: &RequestRecord) -> f64 {
        match record.outcome {
            RequestOutcome::Completed { service_s, .. } => service_s,
            ref other => panic!("request {} not served: {:?}", record.id, other),
        }
    }

    #[test]
    fn clean_pool_serves_everything() {
        let report = ServePool::run(cfg(2, 0, 40.0, 0.5)).unwrap();
        assert_eq!(report.completed, report.submitted);
        assert_eq!(report.shed + report.failed + report.deadline_missed, 0);
        assert_eq!(report.failed_over, 0);
        assert!(report.p50_latency_s > 0.0 && report.p99_latency_s >= report.p50_latency_s);
        for d in &report.per_device {
            assert_eq!(d.breaker_final, BreakerState::Closed);
            assert!(d.health > 0.99, "{} health {}", d.id, d.health);
        }
    }

    #[test]
    fn faulty_device_is_quarantined_and_requests_fail_over() {
        // seed 7 on a 2-card pool breaks dev1 (7 % 2 == 1).
        let report = ServePool::run(cfg(2, 7, 50.0, 0.2)).unwrap();
        assert!(
            report.success_ratio() >= 0.90,
            "success {:.3} with a faulty card",
            report.success_ratio()
        );
        assert!(report.failed_over > 0, "failures must be re-routed");
        let bad = &report.per_device[1];
        assert!(bad.breaker_opens >= 1, "the breaker must open on the faulty card");
        assert!(bad.failed > 0);
        assert_eq!(bad.completed, 0, "every attempt on the broken card fails");
        let good = &report.per_device[0];
        assert!(good.completed > 0);
        assert!(good.health > bad.health, "routing signal must separate the cards");
    }

    #[test]
    fn same_seed_reproduces_identical_counts() {
        let a = ServePool::run(cfg(3, 5, 80.0, 0.2)).unwrap();
        let b = ServePool::run(cfg(3, 5, 80.0, 0.2)).unwrap();
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.deadline_missed, b.deadline_missed);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.failed_over, b.failed_over);
        assert_eq!(a.wall_s.to_bits(), b.wall_s.to_bits());
        assert_eq!(a.p99_latency_s.to_bits(), b.p99_latency_s.to_bits());
        for (x, y) in a.per_device.iter().zip(&b.per_device) {
            assert_eq!(
                (x.served, x.completed, x.failed, x.cancelled),
                (y.served, y.completed, y.failed, y.cancelled)
            );
            assert_eq!(x.breaker_opens, y.breaker_opens);
        }
    }

    #[test]
    fn checkpointed_failover_replays_strictly_fewer_bytes_and_cycles() {
        // Device 0 dies mid-plan (decoder-4 load, after 12 encoder phases
        // and 3 decoder phases banked); device 1 is clean. The same
        // workload with --checkpoint resumes the banked frontier on the
        // failover target instead of re-paying it.
        let run = |checkpoint: bool| {
            let mut c = cfg(2, 0, 20.0, 0.5);
            c.requests = 4;
            c.checkpoint = checkpoint;
            let bad = FaultPlan::none()
                .with(FaultKind::HbmLoadError { label: "LWD4".into(), failing_attempts: u32::MAX });
            let mut pool = ServePool::with_plans(c, vec![bad, FaultPlan::none()]).unwrap();
            for i in 0..4usize {
                let _ = pool.submit(i as f64 / 20.0);
            }
            pool.drain()
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(off.resumed_dispatches, 0);
        assert!(off.replayed_load_bytes > 0, "restart-from-scratch re-pays the banked loads");
        assert!(off.replayed_compute_s > 0.0);
        assert!(on.resumed_dispatches > 0, "checkpointed failover must resume");
        assert_eq!(on.checkpoint_rejects, 0);
        assert!(
            on.replayed_load_bytes < off.replayed_load_bytes,
            "resume must replay strictly fewer LoadStripe bytes ({} vs {})",
            on.replayed_load_bytes,
            off.replayed_load_bytes
        );
        assert!(
            on.replayed_compute_s < off.replayed_compute_s,
            "resume must replay strictly fewer compute seconds ({} vs {})",
            on.replayed_compute_s,
            off.replayed_compute_s
        );
        assert!(on.skipped_load_bytes > 0, "the skipped prefix is the benefit");
        assert_eq!(on.completed, on.submitted, "every request still served");
        assert_eq!(off.completed, off.submitted);
    }

    #[test]
    fn watchdog_kills_feed_device_accounting_and_health() {
        // Device 0 hangs twice per run on an encoder kernel (the watchdog
        // reaps it, the retry succeeds); device 1 is clean. The hang-prone
        // card's kills must show in its accounting and drag its health
        // below the clean card's, so routing shifts load away from it.
        let mut c = cfg(2, 0, 50.0, 0.5);
        c.requests = 10;
        let hang = FaultPlan::none()
            .with(FaultKind::KernelHang { label: "CE5".into(), failing_attempts: 2 });
        let mut pool = ServePool::with_plans(c, vec![hang, FaultPlan::none()]).unwrap();
        for i in 0..10usize {
            let _ = pool.submit(i as f64 / 50.0);
        }
        let report = pool.drain();
        let hangy = &report.per_device[0];
        let clean = &report.per_device[1];
        assert!(hangy.timed_out > 0, "watchdog kills must be recorded");
        assert_eq!(clean.timed_out, 0);
        assert!(
            hangy.health < clean.health,
            "hang-prone card must score lower: {} vs {}",
            hangy.health,
            clean.health
        );
    }

    #[test]
    fn overload_sheds_with_a_typed_error() {
        // One card, tiny queue, arrivals far faster than service.
        let mut c = cfg(1, 0, 10_000.0, 1.0);
        c.queue_capacity = 2;
        c.requests = 50;
        let mut pool = ServePool::new(c).unwrap();
        let mut shed = 0;
        for i in 0..50usize {
            match pool.submit(i as f64 / 10_000.0) {
                Ok(()) => {}
                Err(AccelError::Overloaded { capacity, .. }) => {
                    assert_eq!(capacity, 2);
                    shed += 1;
                }
                Err(e) => panic!("unexpected error {}", e),
            }
        }
        assert!(shed > 0, "a 2-deep queue at 10k rps must shed");
        let report = pool.drain();
        assert_eq!(report.shed, shed);
        assert_eq!(report.submitted, 50);
    }

    #[test]
    fn deadline_below_nominal_is_a_typed_config_error() {
        let err = ServePool::run(cfg(2, 0, 10.0, 1e-6)).unwrap_err();
        assert!(matches!(err, AccelError::Config(_)), "{}", err);
        // Above nominal but below twice it: the per-attempt timeout (half
        // the deadline) would cut every solo run.
        let nominal = ServePool::new(cfg(2, 0, 10.0, 1.0)).unwrap().nominal_s();
        let err = ServePool::run(cfg(2, 0, 10.0, 1.5 * nominal)).unwrap_err();
        assert!(matches!(err, AccelError::Config(_)), "{}", err);
    }

    #[test]
    fn zero_devices_is_a_typed_config_error() {
        let err = ServePool::new(cfg(0, 0, 10.0, 0.5)).unwrap_err();
        assert!(matches!(err, AccelError::Config(_)), "{}", err);
    }

    #[test]
    fn zero_queue_capacity_is_a_typed_config_error() {
        let mut c = cfg(1, 0, 10.0, 0.5);
        c.queue_capacity = 0;
        let err = ServePool::new(c).unwrap_err();
        assert!(matches!(err, AccelError::Config(_)), "{}", err);
    }

    #[test]
    fn non_finite_arrival_is_refused_typed_and_not_submitted() {
        let mut pool = ServePool::new(cfg(1, 0, 10.0, 0.5)).unwrap();
        for t in [f64::NAN, f64::INFINITY] {
            let err = pool.submit(t).unwrap_err();
            assert!(matches!(err, AccelError::Config(_)), "arrival {t}: {err}");
        }
        pool.submit(0.0).unwrap();
        let report = pool.drain();
        assert_eq!(report.submitted, 1, "a refused arrival is not a request");
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn queued_backlog_expires_instead_of_running_doomed_work() {
        // One healthy card, deadline barely above twice nominal (so a solo
        // run fits the half-deadline attempt timeout): a queue wait past
        // one nominal is fatal, and the pool must expire the backlog rather
        // than run it.
        let mut c = cfg(1, 0, 200.0, 1.0);
        let mut pool = ServePool::new(c.clone()).unwrap();
        c.deadline_s = pool.nominal_s() * 2.1;
        c.requests = 40;
        pool = ServePool::new(c).unwrap();
        for i in 0..40usize {
            let _ = pool.submit(i as f64 / 200.0);
        }
        let report = pool.drain();
        assert!(report.deadline_missed > 0);
        assert_eq!(report.completed + report.deadline_missed + report.shed, report.submitted);
        // expiry is decided at dispatch, so missed requests never occupied a card
        let served: usize = report.per_device.iter().map(|d| d.served).sum();
        assert_eq!(served, report.completed);
    }

    #[test]
    fn shutdown_grace_drops_the_tail_of_the_queue() {
        let mut c = cfg(1, 0, 500.0, 2.0);
        c.requests = 30;
        c.shutdown_grace_s = Some(0.0);
        let report = ServePool::run(c).unwrap();
        assert!(report.dropped_at_shutdown > 0, "a zero-grace shutdown drops the backlog");
        assert_eq!(
            report.completed + report.dropped_at_shutdown + report.deadline_missed + report.shed,
            report.submitted
        );
    }

    #[test]
    fn single_faulty_card_pool_fails_requests_without_hanging() {
        // No failover target: requests must fail fast with typed errors and
        // the drain must terminate (half-open probes keep failing).
        let mut c = cfg(1, 1, 100.0, 0.3);
        c.requests = 20;
        let report = ServePool::run(c).unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.failed + report.deadline_missed + report.shed, report.submitted);
        assert!(report.per_device[0].breaker_opens >= 1);
        for r in &report.records {
            match &r.outcome {
                RequestOutcome::Failed(e) => {
                    assert!(matches!(e, AccelError::Unrecoverable { .. }))
                }
                RequestOutcome::DeadlineMissed(e) => {
                    assert!(matches!(e, AccelError::DeadlineExceeded { .. }))
                }
                RequestOutcome::Shed => {}
                other => panic!("unexpected outcome {:?}", other),
            }
        }
    }

    #[test]
    fn persistent_silent_corruption_trips_the_breaker_at_detect() {
        use asr_systolic::abft::IntegrityLevel;
        // Card 1's stripes never fetch clean. At `Detect` every attempt on
        // it fails typed (CorruptWeights) once the refetch budget runs out;
        // the serving tier must quarantine the card and route around it.
        let mut c = cfg(2, 0, 50.0, 0.2);
        c.accel.integrity = IntegrityLevel::Detect;
        c.requests = 40;
        let plans = vec![
            FaultPlan::none(),
            FaultPlan::none().with(FaultKind::HbmBitFlip {
                label: "LW".into(),
                word: 9,
                bit: 3,
                failing_attempts: u32::MAX,
            }),
        ];
        let mut pool = ServePool::with_plans(c, plans).unwrap();
        for i in 0..40usize {
            let _ = pool.submit(i as f64 / 50.0);
        }
        let report = pool.drain();
        assert!(
            report.success_ratio() >= 0.90,
            "success {:.3} with a corrupt card",
            report.success_ratio()
        );
        assert!(report.failed_over > 0, "integrity failures must be re-routed");
        let bad = &report.per_device[1];
        assert!(bad.breaker_opens >= 1, "repeated integrity failures must open the breaker");
        assert_eq!(bad.completed, 0, "no attempt on the corrupt card may complete");
        assert!(report.per_device[0].completed > 0);
    }

    #[test]
    fn transient_corruption_is_scrubbed_and_reported() {
        use asr_systolic::abft::IntegrityLevel;
        // Card 1 delivers corrupt stripes on the first two fetches of every
        // load; CRC refetch scrubs them, everything completes, and the
        // report carries the corruption section with zero escapes.
        let mut c = cfg(2, 0, 40.0, 0.5);
        c.accel.integrity = IntegrityLevel::DetectAndRecompute;
        c.requests = 30;
        let plans = vec![
            FaultPlan::none(),
            FaultPlan::none().with(FaultKind::DmaCorruption {
                label: "LW".into(),
                word: 42,
                xor: 0x11,
                failing_attempts: 2,
            }),
        ];
        let mut pool = ServePool::with_plans(c, plans).unwrap();
        for i in 0..30usize {
            let _ = pool.submit(i as f64 / 40.0);
        }
        let report = pool.drain();
        assert_eq!(report.completed, report.submitted);
        assert!(report.corruption.any_injected(), "the corrupt card must be exercised");
        assert_eq!(report.corruption.escaped, 0);
        assert_eq!(report.corruption.detected, report.corruption.injected);
        assert!(report.per_device[1].corruption.refetched > 0);
        assert_eq!(report.per_device[0].corruption, CorruptionCounters::default());
        assert!(report.render().contains("corruption"));
    }

    #[test]
    fn breaker_state_machine_walks_closed_open_half_open() {
        // Three consecutive failures open it; it stays open for 0.25 s.
        let mut b = Breaker::new();
        assert!(b.would_admit(0.0));
        b.on_failure(0.0);
        b.on_failure(0.1);
        assert!(b.would_admit(0.15), "two failures stay closed");
        b.on_failure(0.2);
        assert_eq!(b.state, BreakerState::Open);
        assert!(!b.would_admit(0.4));
        assert!(b.would_admit(0.5), "cooldown elapsed: probe admitted");
        b.on_dispatch(0.5);
        assert_eq!(b.state, BreakerState::HalfOpen);
        assert!(!b.would_admit(0.55), "only one probe in flight");
        b.on_failure(0.6);
        assert_eq!(b.state, BreakerState::Open);
        assert_eq!(b.opens, 2);
        assert!(!b.would_admit(0.8), "a failed probe restarts the cooldown");
        b.on_dispatch(0.9);
        b.on_success();
        assert_eq!(b.state, BreakerState::Closed);
        assert!(b.would_admit(0.95));
    }

    #[test]
    fn invalid_batch_config_is_a_typed_config_error() {
        let mut c = cfg(1, 0, 10.0, 0.5);
        c.batch = BatchConfig { max_batch: 0, linger_s: 0.0 };
        assert!(matches!(ServePool::new(c).unwrap_err(), AccelError::Config(_)));
        let mut c = cfg(1, 0, 10.0, 0.5);
        c.batch = BatchConfig { max_batch: 4, linger_s: -1.0 };
        assert!(matches!(ServePool::new(c).unwrap_err(), AccelError::Config(_)));
    }

    #[test]
    fn batch_capable_pool_with_no_backlog_matches_the_solo_path_bitwise() {
        // Two cards at 25 ms spacing with ~12 ms service: a device is always
        // free at arrival, so the queue never backs up and every dispatch is
        // solo. The batch-capable pool must then reproduce the max_batch=1
        // path bit for bit — request by request.
        let base = cfg(2, 0, 40.0, 0.5);
        let mut batched = base.clone();
        batched.batch = BatchConfig { max_batch: 4, linger_s: 0.0 };
        let a = ServePool::run(base).unwrap();
        let b = ServePool::run(batched).unwrap();
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.wall_s.to_bits(), b.wall_s.to_bits());
        assert_eq!(a.p50_latency_s.to_bits(), b.p50_latency_s.to_bits());
        assert_eq!(a.p99_latency_s.to_bits(), b.p99_latency_s.to_bits());
        for (x, y) in a.records.iter().zip(&b.records) {
            match (&x.outcome, &y.outcome) {
                (
                    RequestOutcome::Completed { latency_s: la, service_s: sa, device: da, .. },
                    RequestOutcome::Completed {
                        latency_s: lb,
                        service_s: sb,
                        device: db,
                        batch,
                        ..
                    },
                ) => {
                    assert_eq!(da, db);
                    assert_eq!(la.to_bits(), lb.to_bits(), "request {}", x.id);
                    assert_eq!(sa.to_bits(), sb.to_bits(), "request {}", x.id);
                    assert_eq!(*batch, 1);
                }
                other => panic!("outcomes diverged: {:?}", other),
            }
        }
    }

    #[test]
    fn backlog_coalesces_and_amortizes_weight_loads() {
        // One card, 1 ms arrivals, ~12 ms service: the backlog forms batches
        // and each batch pays its layer loads once, so the per-utterance
        // amortized load cost drops below the solo baseline.
        let mut c = cfg(1, 0, 1000.0, 0.5);
        c.requests = 9;
        c.batch = BatchConfig { max_batch: 4, linger_s: 0.0 };
        let report = ServePool::run(c).unwrap();
        assert_eq!(report.completed, report.submitted);
        assert!(
            report.records.iter().any(|r| matches!(
                r.outcome,
                RequestOutcome::Completed { batch, .. } if batch > 1
            )),
            "a 9-deep backlog on one card must coalesce"
        );
        assert!(report.batches < report.submitted);
        assert!(report.mean_batch > 1.0);
        assert!(report.occupancy > 0.0 && report.occupancy <= 1.0);
        assert!(report.solo_load_s > 0.0);
        assert!(
            report.amortized_load_s < report.solo_load_s,
            "amortized {} must beat solo {}",
            report.amortized_load_s,
            report.solo_load_s
        );
        let rendered = report.render();
        assert!(rendered.contains("occupancy"), "{}", rendered);
        assert!(rendered.contains("amortized"), "{}", rendered);
    }

    #[test]
    fn linger_holds_an_underfull_batch_until_it_fills_or_expires() {
        // At A1 every load waits for the previous compute, so a second
        // member saves a whole load pass, which repays the 5 ms window.
        let mut c = cfg(1, 0, 10.0, 0.5);
        c.arch = Architecture::A1;
        c.batch = BatchConfig { max_batch: 2, linger_s: 0.005 };
        // The first dispatch finds the card cold; every later one warm.
        let (cold_n1, warm_n1) = cold_and_warm_s(&c, 1);
        let (cold_n2, _) = cold_and_warm_s(&c, 2);
        assert!(2.0 * cold_n1 - cold_n2 >= c.batch.linger_s, "a batch-mate repays the linger");
        let first_of_cold_pair = run_plan(&c.accel, &cold_and_warm(&c, 2).0).utterance_finish_s[0];
        let mut pool = ServePool::new(c).unwrap();
        pool.submit(0.0).unwrap(); // lingers...
        pool.submit(0.002).unwrap(); // ...fills the batch: dispatch at 2 ms
        pool.submit(0.1).unwrap(); // lone: lingers the full 5 ms window
        pool.submit(0.2).unwrap(); // lone at drain: dispatches immediately
        let report = pool.drain();
        assert_eq!(report.completed, 4);
        match &report.records[0].outcome {
            RequestOutcome::Completed { latency_s, batch, .. } => {
                assert_eq!(*batch, 2);
                // Held 2 ms for the batch to fill, then served batched, cold.
                assert!(
                    (*latency_s - (0.002 + first_of_cold_pair)).abs() < 1e-9,
                    "latency {} vs wait+cold pair {}",
                    latency_s,
                    0.002 + first_of_cold_pair
                );
            }
            other => panic!("unexpected outcome {:?}", other),
        }
        match &report.records[2].outcome {
            RequestOutcome::Completed { latency_s, batch, .. } => {
                assert_eq!(*batch, 1);
                // Dispatched exactly when its linger window closed.
                assert!(
                    (*latency_s - (0.005 + warm_n1)).abs() < 1e-9,
                    "latency {} vs linger+warm nominal {}",
                    latency_s,
                    0.005 + warm_n1
                );
            }
            other => panic!("unexpected outcome {:?}", other),
        }
        match &report.records[3].outcome {
            RequestOutcome::Completed { latency_s, batch, .. } => {
                assert_eq!(*batch, 1);
                // Draining skips the linger: served at its arrival.
                assert!((*latency_s - warm_n1).abs() < 1e-9, "latency {}", latency_s);
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn a_lone_request_does_not_linger_while_another_card_is_idle() {
        // Two idle cards: holding the request for a batch-mate buys nothing
        // while a second card could start the next arrival, so it is served
        // at its arrival, solo, on a cold card.
        let mut c = cfg(2, 0, 10.0, 0.5);
        c.batch = BatchConfig { max_batch: 2, linger_s: 0.005 };
        let (cold_n1, _) = cold_and_warm_s(&c, 1);
        let mut pool = ServePool::new(c).unwrap();
        pool.submit(0.0).unwrap();
        settle(&mut pool);
        let report = pool.drain();
        match &report.records[0].outcome {
            RequestOutcome::Completed { latency_s, batch, .. } => {
                assert_eq!(*batch, 1);
                assert_eq!(latency_s.to_bits(), cold_n1.to_bits(), "served at arrival");
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn a_compute_bound_card_does_not_linger() {
        // The int8 A3 deployment card is compute-bound from batch 2: one
        // more member saves n(1) + n(b) - n(b+1) of card time, 1.881 ms at
        // b = 1 and 1.239 ms beyond, less than the 5 ms window. A lone
        // request on the last idle card therefore starts at its arrival.
        let mut c = cfg(2, 0, 10.0, 0.5);
        c.batch = BatchConfig { max_batch: 8, linger_s: 0.005 };
        let mut sizes = ServePool::new(c.clone()).unwrap();
        let n1 = sizes.nominal_s();
        for (b, saving_ms) in [(1, 1.881), (2, 1.239), (7, 1.239)] {
            let saving = n1 + sizes.batch_nominal_s(b) - sizes.batch_nominal_s(b + 1);
            assert!((saving * 1e3 - saving_ms).abs() < 5e-4, "b = {b}: {} ms", saving * 1e3);
        }
        let mut pool = ServePool::new(c).unwrap();
        pool.submit(0.0).unwrap(); // card 0 busy from here
        pool.submit(0.001).unwrap(); // card 1 is the last idle card
        assert_eq!(pool.queue.len(), 0, "the lone request did not wait for a batch-mate");
        let report = pool.drain();
        match &report.records[1].outcome {
            RequestOutcome::Completed { latency_s, batch, device, .. } => {
                assert_eq!((*batch, *device), (1, DeviceId::new(1)));
                assert!((latency_s - n1).abs() < 1e-12, "latency {latency_s} vs cold solo {n1}");
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }

    /// When request `id` in `report` started and finished its dispatch.
    fn started_and_finished_s(report: &ServeReport, id: usize) -> (f64, f64) {
        let r = &report.records[id];
        match r.outcome {
            RequestOutcome::Completed { latency_s, service_s, .. } => {
                let finished = r.arrival_s + latency_s;
                (finished - service_s, finished)
            }
            ref other => panic!("request {id} not served: {other:?}"),
        }
    }

    /// The card and batch size that served request `id`.
    fn served_on(report: &ServeReport, id: usize) -> (DeviceId, usize) {
        match report.records[id].outcome {
            RequestOutcome::Completed { device, batch, .. } => (device, batch),
            ref other => panic!("request {id} not served: {other:?}"),
        }
    }

    #[test]
    fn a_backlog_splits_by_finish_time() {
        // Requests 0 and 1 start solo on the two cold cards at 0 and 1 ms;
        // 2-5 queue behind them. On this compute-bound card a batch-mate
        // adds 10.04 ms of card time and saves 1.88, so each card takes the
        // next queued request solo as it frees up: cards 0, 1, 0, 1. The
        // last ends at 35.4 ms, later than a pair on each card (34.3 ms),
        // but the four finish about 16 ms sooner summed.
        let mut c = cfg(2, 0, 10.0, 0.5);
        c.batch = BatchConfig { max_batch: 8, linger_s: 0.0 };
        let (cold_n1, warm_n1) = cold_and_warm_s(&c, 1);
        let warm_pair = run_plan(&c.accel, &cold_and_warm(&c, 2).1).utterance_finish_s;
        let mut pool = ServePool::new(c).unwrap();
        for i in 0..6 {
            pool.submit(i as f64 * 1e-3).unwrap();
        }
        let report = pool.drain();
        assert_eq!(report.completed, 6);
        for (id, card, start_s) in [
            (2, 0, cold_n1),
            (3, 1, 1e-3 + cold_n1),
            (4, 0, cold_n1 + warm_n1),
            (5, 1, 1e-3 + cold_n1 + warm_n1),
        ] {
            assert_eq!(served_on(&report, id), (DeviceId::new(card), 1), "request {id}");
            let (started, _) = started_and_finished_s(&report, id);
            assert!((started - start_s).abs() < 1e-12, "request {id} started {started}");
        }
        let summed: f64 = (2..6).map(|id| started_and_finished_s(&report, id).1).sum();
        // A warm pair on each card from the same two starts.
        let paired: f64 = [cold_n1, 1e-3 + cold_n1]
            .iter()
            .flat_map(|start| warm_pair.iter().map(move |f| start + f))
            .sum();
        assert!(
            summed < paired - 0.015,
            "solo runs end {:.3} ms summed, pairs {:.3} ms",
            summed * 1e3,
            paired * 1e3
        );
    }

    #[test]
    fn a_queued_pair_splits_when_batching_would_delay_both() {
        // Card 0 frees at n(1) = 11.92 ms with requests 2 and 3 queued;
        // card 1 runs request 1 until 11 ms + n(1) = 22.92 ms. Batched on
        // card 0 the pair would end at 11.92 + n(2) = 33.89 ms each, which
        // beats card 1 finishing request 3 at 34.85 ms, so the makespan
        // rule batched it. Summed, request 2 solo (ending at 23.85 ms) and
        // request 3 on card 1 (34.85 ms) finish sooner: each runs solo.
        let mut c = cfg(2, 0, 10.0, 0.5);
        c.batch = BatchConfig { max_batch: 8, linger_s: 0.0 };
        let (cold_n1, _) = cold_and_warm_s(&c, 1);
        let mut pool = ServePool::new(c).unwrap();
        for t in [0.0, 0.011, 0.0111, 0.0112] {
            pool.submit(t).unwrap();
        }
        let report = pool.drain();
        assert_eq!(report.completed, 4);
        for (id, card, start_s) in [(2, 0, cold_n1), (3, 1, 0.011 + cold_n1)] {
            assert_eq!(served_on(&report, id), (DeviceId::new(card), 1), "request {id}");
            let (started, _) = started_and_finished_s(&report, id);
            assert!((started - start_s).abs() < 1e-12, "request {id} started {started}");
        }
    }

    /// One card of max batch 2 takes 40 steady arrivals at `rps`, each
    /// finding it idle, then two requests 1 and 2 ms after the last, while
    /// it is busy. The pool runs `run_for` past the last steady arrival,
    /// if given, then drains; returns the pair's batch sizes.
    fn queued_pair_batches(rps: f64, run_for: Option<f64>) -> Vec<Option<usize>> {
        let mut c = cfg(1, 0, rps, 0.2);
        c.batch = BatchConfig { max_batch: 2, linger_s: 0.0 };
        let mut pool = ServePool::new(c).unwrap();
        let last = 39.0 / rps;
        for t in (0..40).map(|i| i as f64 / rps).chain([last + 1e-3, last + 2e-3]) {
            pool.submit(t).unwrap();
        }
        if let Some(dt) = run_for {
            pool.run_until(last + dt);
        }
        let report = pool.drain();
        assert_eq!(report.completed, 42);
        assert!(served_batches(&report)[..40].iter().all(|&b| b == Some(1)));
        served_batches(&report)[40..].to_vec()
    }

    #[test]
    fn arrivals_still_to_come_make_a_queued_pair_batch() {
        // Over the queue alone the pair runs solo: batched, both members
        // end at n(2), 8.16 ms more summed than n(1) and 2 n(1). But the
        // batch hands the card back 1.88 ms sooner, and at 80 req/s every
        // arrival expected within the deadline queues behind the card, so
        // each gains that: the pair batches. At 40 req/s they find the card
        // idle, and the pair runs solo. The card frees 11.92 ms after the
        // last steady arrival, so the pair dispatches before the drain.
        assert_eq!(queued_pair_batches(80.0, Some(0.05)), [Some(2), Some(2)]);
        assert_eq!(queued_pair_batches(40.0, Some(0.05)), [Some(1), Some(1)]);
    }

    #[test]
    fn a_draining_pool_prices_no_arrivals() {
        // The same pair at 80 req/s, with the pool draining as soon as it
        // arrives: no submission can follow, so the pair is priced over
        // the queue alone and runs solo.
        assert_eq!(queued_pair_batches(80.0, None), [Some(1), Some(1)]);
    }

    /// When each card of `pool` frees up: its in-flight finish, now if idle.
    fn card_free_s(pool: &ServePool) -> Vec<f64> {
        let now = pool.now_s();
        pool.devices
            .iter()
            .map(|d| d.card.in_flight.as_ref().map_or(now, |fl| fl.finish_s))
            .collect()
    }

    #[test]
    fn an_idle_pool_projects_a_start_of_now() {
        let mut pool = ServePool::new(cfg(2, 0, 10.0, 0.5)).unwrap();
        assert_eq!(pool.projected_start_s(), 0.0);
        pool.submit(0.1).unwrap();
        settle(&mut pool);
        pool.run_until(0.3);
        assert_eq!(pool.projected_start_s().to_bits(), 0.3f64.to_bits());
    }

    #[test]
    fn a_busy_card_projects_its_finish_plus_a_cold_nominal_per_queued_request() {
        let mut pool = ServePool::new(cfg(1, 0, 10.0, 0.5)).unwrap();
        let n = pool.nominal_s();
        pool.submit(0.002).unwrap();
        let mut want = card_free_s(&pool)[0];
        assert!(want > 0.002, "the card is busy");
        for k in 0..4 {
            assert_eq!(pool.queue.len(), k);
            assert_eq!(pool.projected_start_s().to_bits(), want.to_bits(), "{k} queued");
            pool.submit(0.003 + k as f64 * 1e-3).unwrap();
            want += n;
        }
    }

    #[test]
    fn two_busy_cards_take_the_queue_ahead_in_fifo_order() {
        let mut pool = ServePool::new(cfg(2, 0, 10.0, 0.5)).unwrap();
        let n = pool.nominal_s();
        pool.submit(0.0).unwrap();
        pool.submit(0.001).unwrap();
        let (f0, f1) = (card_free_s(&pool)[0], card_free_s(&pool)[1]);
        assert!(f0 < f1 && f1 < f0 + n);
        // Card 0 frees first, so the queued requests alternate 0, 1, 0, 1
        // and the next one starts where the last assignment left off.
        for (k, want) in [f0, f1, f0 + n, f1 + n, f0 + n + n].into_iter().enumerate() {
            assert_eq!(pool.queue.len(), k);
            assert_eq!(pool.projected_start_s().to_bits(), want.to_bits(), "{k} queued");
            pool.submit(0.002 + k as f64 * 1e-3).unwrap();
        }
    }

    #[test]
    fn a_pool_with_no_admitting_card_never_projects_idle() {
        // A lone card that fails every dispatch opens its breaker on the
        // third failure: idle with an empty queue, it still starts nothing.
        let bad = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LWD4".into(), failing_attempts: u32::MAX });
        let mut pool = ServePool::with_plans(cfg(1, 0, 10.0, 0.5), vec![bad]).unwrap();
        for _ in 0..3 {
            pool.submit(pool.now_s()).unwrap();
            settle(&mut pool);
        }
        assert_eq!(pool.breaker_summary()[0].0, BreakerState::Open);
        assert!(pool.is_idle());
        assert_eq!(pool.projected_start_s(), f64::INFINITY);
        // A fail-stopped pool admits nothing either.
        let mut dead = ServePool::new(cfg(2, 0, 10.0, 0.5)).unwrap();
        dead.fail_stop();
        assert_eq!(dead.projected_start_s(), f64::INFINITY);
    }

    #[test]
    fn warm_dispatches_price_below_cold_with_walker_equal_to_runtime() {
        // The int8 s = 4 deployment build at A3: the cache elides E1-E4,
        // 9.558 ms of load where a cold dispatch streams 11.945 ms.
        let c = cfg(1, 0, 10.0, 0.5);
        for (batch, cold_ms, warm_ms) in [(1, 11.923, 11.259), (2, 21.965, 21.368)] {
            let (cold, warm) = cold_and_warm(&c, batch);
            let reuse = warm.reuse.expect("the warm plan is lowered against the cache");
            assert_eq!((reuse.offered, reuse.elided_loads, reuse.stale), (PIN_SLOTS, PIN_SLOTS, 0));
            for (plan, ms) in [(&cold, cold_ms), (&warm, warm_ms)] {
                let walked = walk_cost(&c.accel, plan).latency_s;
                let ran = run_plan(&c.accel, plan).makespan_s;
                assert!((walked - ran).abs() <= 1e-12 * ran, "walker {walked} vs runtime {ran}");
                assert!(
                    (ran * 1e3 - ms).abs() < 5e-4,
                    "batch {batch}: {:.4} ms, want {ms}",
                    ran * 1e3
                );
            }
        }
        let (cold, warm) = cold_and_warm(&c, 1);
        let load_ms = |plan: &ExecPlan| run_plan(&c.accel, plan).load_busy_s * 1e3;
        assert!((load_ms(&cold) - 11.945).abs() < 5e-4, "cold load {}", load_ms(&cold));
        assert!((load_ms(&warm) - 9.558).abs() < 5e-4, "warm load {}", load_ms(&warm));
    }

    #[test]
    fn a_cards_first_success_warms_it_and_a_flash_empties_its_cache() {
        let c = cfg(1, 0, 10.0, 0.5);
        let (cold_n1, warm_n1) = cold_and_warm_s(&c, 1);
        let schedule_bytes = cold_and_warm(&c, 1).0.scheduled_load_bytes();
        let mut pool = ServePool::new(c).unwrap();
        pool.submit(0.0).unwrap();
        settle(&mut pool);
        assert!(pool.devices[0].card.is_warm(), "a success pins the leading stripes");
        pool.submit(0.1).unwrap();
        settle(&mut pool);
        pool.set_weight_version(1).unwrap();
        assert!(!pool.devices[0].card.is_warm(), "a flash empties the cache");
        // The next dispatch lowers against nothing: no old-version stripe
        // is offered, so none is elided and none is refused stale.
        match pool.device_outcome(0, 1) {
            CardOutcome::Ok { reuse, .. } => assert_eq!(reuse, PlanReuse::default()),
            other => panic!("a clean card failed: {other:?}"),
        }
        pool.submit(0.2).unwrap();
        let report = pool.drain();
        let served: Vec<u64> = report.records.iter().map(|r| service_s(r).to_bits()).collect();
        assert_eq!(served, [cold_n1, warm_n1, cold_n1].map(f64::to_bits));
        assert_eq!(report.elided_loads, PIN_SLOTS, "only the warm dispatch elided");
        assert_eq!(report.scheduled_load_bytes, 3 * schedule_bytes);
        assert!(report.render().contains(&elided_loads_line(
            report.elided_loads,
            report.elided_load_bytes,
            report.scheduled_load_bytes
        )));
    }

    #[test]
    fn a_card_whose_every_dispatch_dies_never_warms() {
        // Card 0 dies at the fourth decoder load of every run, well after
        // it streamed E1-E4; card 1 is clean. A dispatch that dies pins
        // nothing, so card 0 only ever runs its cold plan.
        let mut c = cfg(2, 0, 50.0, 0.5);
        c.requests = 20;
        let bad = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LWD4".into(), failing_attempts: u32::MAX });
        let mut pool = ServePool::with_plans(c, vec![bad, FaultPlan::none()]).unwrap();
        for i in 0..20usize {
            let _ = pool.submit(i as f64 / 50.0);
        }
        settle(&mut pool);
        let (dead, clean) = (&pool.devices[0].card, &pool.devices[1].card);
        assert!(dead.failed > 0 && dead.completed == 0);
        assert!(!dead.is_warm(), "a dispatch that dies pins nothing");
        assert!(dead.outcomes.keys().all(|&(_, warm)| !warm), "every run on it was cold");
        assert!(clean.is_warm());
    }

    #[test]
    fn a_resume_on_a_warm_card_elides_nothing_from_its_cache() {
        // Two requests at once: card 0 takes the first and dies at LWD4,
        // card 1 serves the second (cold) and is warm when the failed-over
        // checkpoint resumes on it. The resume lowers without the cache —
        // resumes and resident reuse are exclusive — and leaves it as it
        // was.
        let mut c = cfg(2, 0, 20.0, 0.5);
        c.checkpoint = true;
        let bad = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LWD4".into(), failing_attempts: u32::MAX });
        let mut pool = ServePool::with_plans(c, vec![bad, FaultPlan::none()]).unwrap();
        pool.submit(0.0).unwrap();
        pool.submit(0.0).unwrap();
        settle(&mut pool);
        assert!(pool.devices[1].card.is_warm());
        let report = pool.drain();
        assert_eq!(report.completed, 2);
        assert_eq!(report.resumed_dispatches, 1);
        assert_eq!(report.elided_loads, 0, "a resume elides nothing from the cache");
        assert_eq!(report.elided_load_bytes, 0);
    }

    /// Completed records' batch sizes by request id (`None` if not served).
    fn served_batches(report: &ServeReport) -> Vec<Option<usize>> {
        report
            .records
            .iter()
            .map(|r| match r.outcome {
                RequestOutcome::Completed { batch, .. } => Some(batch),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn request_whose_deadline_cannot_fit_the_batch_is_not_coalesced() {
        // One card, batches of up to 2. Request 0 runs solo; requests 1
        // and 2 then ride one batch of two while 3 and 4 wait behind it.
        // At A1 a batch-mate shares the whole load pass, so a pair ends
        // sooner summed than two solo runs back to back.
        let a1 = |deadline_s: f64| {
            let mut c = cfg(1, 0, 10.0, deadline_s);
            c.arch = Architecture::A1;
            c
        };
        let probe = |deadline_s: f64| {
            let mut c = a1(deadline_s);
            c.batch = BatchConfig { max_batch: 2, linger_s: 0.0 };
            let mut pool = ServePool::new(c).unwrap();
            for t in [0.0, 0.001, 0.002, 0.003, 0.004] {
                pool.submit(t).unwrap();
            }
            pool.drain()
        };
        let mut sizes = ServePool::new(a1(1.0)).unwrap();
        let (n1, n2) = (sizes.nominal_s(), sizes.batch_nominal_s(2));
        assert!(n2 > n1, "a second utterance must lengthen the batch");
        // Request 3 reaches the head at n1 + n2. A batch of two fits the
        // attempt timeout (n2 <= d / 2) and request 3 still fits solo, but
        // the pair would blow its deadline: 2 * n2 <= d < n1 + 2 * n2 - a3.
        let tight = 2.0 * n2 + 0.5 * (n1 - 0.003);
        assert!(n1 + n2 - 0.003 > 0.5 * tight, "the head has waited past half its deadline");
        let report = probe(tight);
        let batches = served_batches(&report);
        assert_eq!(batches[1..3], [Some(2), Some(2)], "the timeout admits a pair: {batches:?}");
        assert_eq!(batches[3], Some(1), "the head's deadline keeps it solo: {batches:?}");
        // Control: the same arrivals with a roomy deadline do coalesce.
        let batches = served_batches(&probe(1.0));
        assert_eq!(batches[3..5], [Some(2), Some(2)], "{batches:?}");
    }

    #[test]
    fn batch_that_outlasts_the_attempt_timeout_is_not_formed() {
        // Request 0 runs solo; at its finish the pair 1+2 fits both
        // members' deadlines (from n1 + n2 - a1 on) but not the attempt
        // timeout, half the deadline (from 2 * n2 on), which would cut it.
        // At A1 the pair would otherwise batch: it ends sooner summed.
        // Request 2 arrives at 20 ms, late enough to fit solo after 1.
        let a1 = |deadline_s: f64| {
            let mut c = cfg(1, 0, 10.0, deadline_s);
            c.arch = Architecture::A1;
            c
        };
        let mut sizes = ServePool::new(a1(1.0)).unwrap();
        let (n1, n2) = (sizes.nominal_s(), sizes.batch_nominal_s(2));
        let deadline_s = 0.5 * ((n1 + n2 - 0.001) + 2.0 * n2);
        let mut c = a1(deadline_s);
        c.batch = BatchConfig { max_batch: 2, linger_s: 0.0 };
        let mut pool = ServePool::new(c).unwrap();
        for t in [0.0, 0.001, 0.020] {
            pool.submit(t).unwrap();
        }
        let report = pool.drain();
        assert_eq!(served_batches(&report), [Some(1); 3], "{:?}", report.records);
    }

    #[test]
    fn mid_batch_fault_fails_over_only_the_unfinished_utterances() {
        // Card 0 hangs utterance 1's final-phase kernel — a fault only a
        // batched dispatch can trigger (solo labels carry no [u1]). The
        // batch's first utterance is already finished when the run dies, so
        // only the second fails over; card 1 serves it.
        //
        // At int8 A1, n(1) = 22.62 ms and each batch-mate adds 10.68 ms.
        // Card 1 starts its solo run 22 ms after card 0 does, so when card
        // 0 frees, the pair queued behind them ends sooner summed batched
        // on card 0 (twice n(2): 66.60 ms from then) than split (n(1) for
        // the first, card 1's remaining 22 ms plus n(1) for the second:
        // 67.23 ms).
        let mut c = cfg(2, 0, 200.0, 1.0);
        c.arch = Architecture::A1;
        c.batch = BatchConfig { max_batch: 2, linger_s: 0.0 };
        let plans = vec![
            FaultPlan::none()
                .with(FaultKind::KernelHang { label: "D6[u1]".into(), failing_attempts: u32::MAX }),
            FaultPlan::none(),
        ];
        let mut pool = ServePool::with_plans(c, plans).unwrap();
        for t in [0.0, 0.022, 0.0221, 0.0222] {
            pool.submit(t).unwrap();
        }
        let report = pool.drain();
        assert_eq!(report.completed, 4, "records: {:?}", report.records);
        assert_eq!(report.failed_over, 1);
        // Request 2 rode the front of the faulty batch and still completed.
        match &report.records[2].outcome {
            RequestOutcome::Completed { batch, .. } => assert_eq!(*batch, 2),
            other => panic!("unexpected outcome {:?}", other),
        }
        assert!(!report.records[2].failed_over);
        // Request 3 was the unfinished utterance: failed over, served solo.
        match &report.records[3].outcome {
            RequestOutcome::Completed { batch, device, .. } => {
                assert_eq!(*batch, 1);
                assert_eq!(*device, DeviceId::new(1));
            }
            other => panic!("unexpected outcome {:?}", other),
        }
        assert!(report.records[3].failed_over);
        assert_eq!(report.records[3].attempts, 2);
        assert_eq!(report.per_device[0].failed, 1);
    }

    #[test]
    fn mid_batch_fault_without_failover_is_a_typed_unrecoverable() {
        // At int8 A1 the pair queued behind request 0 ends sooner summed
        // batched (twice n(2), 66.60 ms) than solo back to back (n(1) plus
        // 2 n(1), 67.85 ms), so it batches.
        let mut c = cfg(1, 0, 200.0, 1.0);
        c.arch = Architecture::A1;
        c.batch = BatchConfig { max_batch: 2, linger_s: 0.0 };
        let plans = vec![FaultPlan::none()
            .with(FaultKind::KernelHang { label: "D6[u1]".into(), failing_attempts: u32::MAX })];
        let mut pool = ServePool::with_plans(c, plans).unwrap();
        pool.submit(0.0).unwrap();
        pool.submit(1e-4).unwrap();
        pool.submit(2e-4).unwrap();
        let report = pool.drain();
        // Solo dispatches never match the fault; the batch's front member
        // survives it; only the hung utterance fails, typed.
        assert_eq!(report.completed, 2);
        assert_eq!(report.failed, 1);
        assert_eq!(report.failed_over, 0, "one card: nowhere to fail over");
        match &report.records[2].outcome {
            RequestOutcome::Failed(e) => {
                assert!(matches!(e, AccelError::Unrecoverable { .. }), "{}", e)
            }
            other => panic!("unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn pool_fault_plans_break_exactly_one_card_per_nonzero_seed() {
        assert!(pool_fault_plans(0, 4).iter().all(|p| p.is_empty()));
        for seed in 1..9u64 {
            let plans = pool_fault_plans(seed, 4);
            let broken: Vec<usize> = (0..4).filter(|&i| !plans[i].is_empty()).collect();
            assert_eq!(broken, vec![(seed as usize) % 4], "seed {}", seed);
        }
    }

    #[test]
    fn drain_completes_an_in_flight_checkpointed_failover() {
        // Device 0 dies mid-plan, so its dispatch banks a checkpoint and
        // the members fail over. The drain is started while the *resumed*
        // dispatch is still on device 1 — the drain loop must carry it to
        // completion, not strand or restart it.
        let mut c = cfg(2, 0, 20.0, 0.5);
        c.requests = 4;
        c.checkpoint = true;
        let bad = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LWD4".into(), failing_attempts: u32::MAX });
        let mut pool = ServePool::with_plans(c, vec![bad, FaultPlan::none()]).unwrap();
        for i in 0..4usize {
            let _ = pool.submit(i as f64 / 20.0);
        }
        let mut t = 0.0;
        while !(pool.resumed_dispatches > 0 && pool.in_flight() > 0) {
            t += 1e-3;
            assert!(t < 10.0, "a checkpointed failover must go in flight");
            pool.run_until(t);
        }
        let report = pool.drain();
        assert!(report.resumed_dispatches > 0);
        assert_eq!(report.checkpoint_rejects, 0);
        assert_eq!(report.completed, report.submitted, "drain must finish the resumed suffix");
    }

    #[test]
    fn breaker_half_open_retrip_during_drain_ends_open() {
        // Device 0 hard-fails every dispatch; the backlog on the clean card
        // outlasts the breaker's 0.25 s cooldown, so the breaker probes
        // half-open while the drain is still live. The probe fails, the
        // breaker re-trips, and the drain completes on the clean card:
        // final state Open with at least two opens.
        let mut c = cfg(2, 0, 400.0, 1.0);
        c.requests = 40;
        let bad = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label: "LWE1".into(), failing_attempts: u32::MAX });
        let mut pool = ServePool::with_plans(c, vec![bad, FaultPlan::none()]).unwrap();
        for i in 0..40usize {
            let _ = pool.submit(i as f64 / 400.0);
        }
        let report = pool.drain();
        let bad_card = &report.per_device[0];
        assert!(
            bad_card.breaker_opens >= 2,
            "cooldown must expire mid-drain and the probe re-trip: {} opens",
            bad_card.breaker_opens
        );
        assert_eq!(bad_card.breaker_final, BreakerState::Open);
        assert_eq!(report.failed + report.deadline_missed + report.completed, report.submitted);
        assert!(report.completed > 0, "the clean card must carry the drain");
    }

    #[test]
    fn fail_stop_evicts_unfinished_work_and_adoption_loses_nothing() {
        // Kill node A mid-backlog; node B adopts the evictees. Utterances
        // that finished on A before the kill stay completed on A; every
        // evicted request is served by B — zero losses across the pair.
        let mut ca = cfg(1, 0, 100.0, 2.0);
        ca.checkpoint = true;
        let mut a = ServePool::new(ca).unwrap();
        for i in 0..8usize {
            let _ = a.submit(i as f64 / 100.0);
        }
        a.run_until(0.03);
        let evicted = a.fail_stop();
        assert!(a.is_dead());
        assert!(!evicted.is_empty(), "a mid-backlog kill must evict something");
        assert!(a.submit(1.0).is_err(), "a dead pool refuses work");
        let ra = {
            let a_evicted = evicted.len();
            let r = a.into_report();
            assert_eq!(r.evicted, a_evicted);
            r
        };
        let mut b = ServePool::new(cfg(1, 0, 100.0, 2.0)).unwrap();
        b.run_until(0.03);
        b.adopt(evicted).unwrap();
        let rb = b.drain();
        assert_eq!(
            ra.completed + rb.completed,
            ra.submitted,
            "every utterance is either finished on the dead node or served by the adopter"
        );
        for rec in &rb.records {
            assert!(
                matches!(rec.outcome, RequestOutcome::Completed { .. }),
                "adopted request lost: {:?}",
                rec.outcome
            );
        }
    }

    #[test]
    fn weight_version_flash_is_idle_only_and_cross_version_resume_is_refused() {
        let mut c = cfg(1, 0, 50.0, 0.5);
        c.checkpoint = true;
        let mut pool = ServePool::new(c.clone()).unwrap();
        pool.submit(0.0).unwrap();
        assert!(
            pool.set_weight_version(1).is_err(),
            "an in-flight dispatch pins the current version"
        );
        while !pool.is_idle() {
            let t = pool.next_event_s().expect("busy pool has a next event");
            pool.run_until(t);
        }
        pool.set_weight_version(1).unwrap();
        assert_eq!(pool.weight_version(), 1);
        // A checkpoint cut under v0 arrives via adoption: the resume is
        // refused typed (version_rejects) and the request is served by a
        // clean full restart under v1.
        let v0 = AccelConfig::paper_default();
        let plan = ExecPlan::lower(&v0, c.arch, v0.max_seq_len, 1, v0.integrity).unwrap();
        let cost = walk_cost(&v0, &plan);
        let (completed, loaded) = cost.frontier_at(cost.latency_s * 0.5);
        let ck = PlanCheckpoint::at(&plan, completed, loaded, &[], cost.latency_s * 0.5);
        assert!(ck.work_remains());
        let now = pool.now_s();
        pool.adopt(vec![Evicted { arrival_s: now, attempts: 1, ckpt: Some(Rc::new(ck)) }]).unwrap();
        let report = pool.drain();
        assert_eq!(report.version_rejects, 1, "cross-version resume must be refused typed");
        assert_eq!(report.checkpoint_rejects, 1);
        assert_eq!(report.completed, report.submitted, "the refusal downgrades, not drops");
        assert!(report.render().contains("version rejects"));
    }
}
