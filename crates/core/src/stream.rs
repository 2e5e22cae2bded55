//! Streaming recognition sessions that survive faults: chunked plans,
//! mid-stream failover, and per-chunk deadline enforcement.
//!
//! [`crate::serve`] treats a request as one utterance; live dictation is a
//! *session* — a microphone emitting audio chunks at a fixed cadence, each
//! chunk a small work item with its own deadline, all sharing one encoder
//! carryover state. This module promotes `transformer::streaming` to a
//! first-class serve workload on top of the ExecPlan + checkpoint
//! foundation:
//!
//! * **Chunked plans with resident-weight reuse** — every chunk lowers a
//!   batch-of-one [`crate::plan::ExecPlan`] of its [`CHUNK_STEPS`] new rows
//!   over [`LEFT_CONTEXT`] cached ones
//!   ([`crate::plan::ExecPlan::lower_stream_chunk`]): a `CTX` load of every
//!   encoder layer's carried keys and values, then the encoder layers over
//!   the new rows only (a chunk's product is encoder rows, so it never runs
//!   a decoder). The first chunk a card serves pins the leading
//!   [`PIN_SLOTS`] weight stripes in the card's weight cache (the one every
//!   pool's card keeps, [`crate::serve`]); every later chunk offers them
//!   back ([`crate::plan::PlanBuilder::reuse_resident`]) and elides the
//!   CRC-matching `LoadStripe`s — FTRANS's keep-weights-resident win,
//!   applied across the work items of a stream. The weights are shared by
//!   every stream, so one warm card serves *all* its sessions out of
//!   residency. `CTX` is the stream's own and changes every chunk, so every
//!   dispatch loads it.
//! * **Mid-stream failover** — a device that dies mid-chunk fails the
//!   session over to a healthy card and replays **only the unfinished
//!   chunk**: the encoder carryover state (the CRC-enveloped
//!   [`asr_transformer::streaming::StreamState`], which the functional twin
//!   carries too) lives above the device, so served chunks are never
//!   re-run, and the replay loads its `CTX` from that host copy like any
//!   other dispatch. The functional bit-identity of that handoff is pinned by the
//!   integrity layer ([`crate::integrity::resume_functional_stream`]) and
//!   the transformer proptests; this pool simulates its scheduling and
//!   accounting.
//! * **Per-chunk deadlines with stale-chunk shedding** — a queued chunk
//!   that can no longer meet its deadline even if dispatched immediately is
//!   shed typed ([`crate::error::AccelError::StaleChunk`]) without wasting
//!   a device on audio the stream has moved past.
//! * **Bounded per-session queues with backpressure** — a chunk arriving at
//!   a full session queue ([`SESSION_QUEUE`] chunks) is shed typed
//!   ([`crate::error::AccelError::StreamBackpressure`]): a slow stream
//!   backs up onto itself, and the least-recently-served dispatch order
//!   guarantees it cannot starve the other sessions off the pool.
//! * **Jitter-tolerant admission** — chunk arrivals carry a deterministic,
//!   seeded jitter in virtual time; the pool's behaviour is bit-reproducible
//!   for a given `(config, seed)`.
//! * **Session-aware breaker accounting** — chunk failures feed the same
//!   per-device breaker/health machinery as [`crate::serve`]; a device that
//!   keeps killing streams opens its breaker and its remaining sessions
//!   re-home gracefully (no further failed attempts) instead of dying with
//!   it.
//!
//! Everything runs in deterministic virtual time, exactly like
//! [`crate::serve::ServePool`].

use std::collections::VecDeque;
use std::rc::Rc;

use crate::arch::Architecture;
use crate::config::AccelConfig;
use crate::error::{AccelError, Result};
use crate::host_runtime::{run_plan, run_plan_with_recovery};
use crate::plan::{walk_cost, ExecPlan, PlanReuse, ResidentStripe};
use crate::serve::{
    elided_fraction, elided_loads_line, percentile, pool_fault_plans, BreakerState, Card,
    CardOutcome, PIN_SLOTS,
};
use asr_fpga_sim::device::DeviceId;
use asr_fpga_sim::faults::FaultPlan;
use asr_tensor::WeightEncoding;

/// Encoder steps per chunk: the new rows a chunk computes.
pub const CHUNK_STEPS: usize = 4;
/// Left-context rows whose per-layer keys and values carry between chunks.
pub const LEFT_CONTEXT: usize = 4;
/// Bounded per-session chunk queue capacity (in-flight excluded).
pub const SESSION_QUEUE: usize = 4;

/// Streaming-pool configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Accelerator build every card is flashed with. [`StreamConfig::new`]
    /// builds it at `max_seq_len == CHUNK_STEPS + LEFT_CONTEXT` — the
    /// streaming deployment bitstream is sized for the chunk's attention
    /// window, not the whole utterance.
    pub accel: AccelConfig,
    /// Overlap architecture the cards run.
    pub arch: Architecture,
    /// Cards in the pool.
    pub devices: usize,
    /// Pool fault-model seed ([`pool_fault_plans`]); 0 = clean pool.
    pub fault_seed: u64,
    /// Concurrently open streams (microphones).
    pub streams: usize,
    /// Chunks each stream emits before closing.
    pub chunks_per_stream: usize,
    /// Audio cadence: seconds between consecutive chunks of one stream.
    pub chunk_interval_s: f64,
    /// Per-chunk deadline from the chunk's arrival, seconds.
    pub deadline_s: f64,
    /// Maximum arrival jitter, seconds; each chunk's arrival shifts by a
    /// deterministic seeded amount in `[0, jitter_s)`.
    pub jitter_s: f64,
}

impl StreamConfig {
    /// A streaming deployment over `devices` cards: int8 weights, the
    /// bitstream sized for the chunk window ([`Self::window`]), 40 ms audio
    /// cadence. Override fields for other workloads.
    pub fn new(devices: usize, fault_seed: u64, streams: usize, deadline_s: f64) -> Self {
        let mut accel = AccelConfig::paper_default();
        accel.max_seq_len = CHUNK_STEPS + LEFT_CONTEXT;
        accel.bytes_per_weight = 1;
        accel.encoding = WeightEncoding::Int8;
        StreamConfig {
            accel,
            arch: Architecture::A3,
            devices,
            fault_seed,
            streams,
            chunks_per_stream: 12,
            chunk_interval_s: 0.040,
            deadline_s,
            jitter_s: 0.0,
        }
    }

    /// The keys a chunk's attention spans, in encoder steps: the cached left
    /// context plus the chunk's new rows.
    pub fn window(&self) -> usize {
        CHUNK_STEPS + LEFT_CONTEXT
    }

    /// Reject degenerate session parameters typed
    /// ([`AccelError::InvalidStream`]) at pool construction — never
    /// mid-stream, never by panicking. An attention window past the built
    /// sequence length is refused by the chunk lowering
    /// ([`crate::plan::PlanBuilder::stream_chunk`]), which the pool runs at
    /// construction too.
    pub fn validate(&self) -> Result<()> {
        self.accel.validate()?;
        if self.streams == 0 || self.chunks_per_stream == 0 {
            return Err(AccelError::InvalidStream {
                reason: "a pool needs >= 1 stream of >= 1 chunk".into(),
            });
        }
        if !(self.chunk_interval_s.is_finite() && self.chunk_interval_s > 0.0) {
            return Err(AccelError::InvalidStream {
                reason: format!("chunk interval must be positive, got {}", self.chunk_interval_s),
            });
        }
        if !(self.deadline_s.is_finite() && self.deadline_s > 0.0) {
            return Err(AccelError::InvalidStream {
                reason: format!("chunk deadline must be positive, got {}", self.deadline_s),
            });
        }
        if !(self.jitter_s.is_finite() && self.jitter_s >= 0.0) {
            return Err(AccelError::InvalidStream {
                reason: format!("jitter must be finite and >= 0, got {}", self.jitter_s),
            });
        }
        if self.devices == 0 {
            return Err(AccelError::Config("pool needs >= 1 device".into()));
        }
        Ok(())
    }
}

/// Deterministic arrival jitter in `[0, max_s)` — splitmix64 over the
/// (seed, stream, chunk) triple, so the same configuration reproduces the
/// same arrival pattern bit-for-bit. Shared with [`crate::cluster`]'s
/// traffic traces and rendezvous router, which need the same property:
/// seeded, hash-quality, allocation-free determinism.
pub(crate) fn jitter(seed: u64, stream: usize, chunk: usize, max_s: f64) -> f64 {
    if max_s <= 0.0 {
        return 0.0;
    }
    let mut z = seed
        ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (chunk as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) * max_s
}

/// The arrival schedule [`StreamPool::run`] generates: stream `i` opens at
/// a small deterministic stagger, chunk `j` arrives `j` intervals later
/// plus its seeded jitter. Arrivals within a stream never decrease.
pub fn default_arrivals(cfg: &StreamConfig) -> Vec<Vec<f64>> {
    (0..cfg.streams)
        .map(|i| {
            let open = i as f64 * cfg.chunk_interval_s / cfg.streams.max(1) as f64;
            let mut last = 0.0f64;
            (0..cfg.chunks_per_stream)
                .map(|j| {
                    let t = open
                        + j as f64 * cfg.chunk_interval_s
                        + jitter(cfg.fault_seed ^ 0x5eed, i, j, cfg.jitter_s);
                    last = last.max(t);
                    last
                })
                .collect()
        })
        .collect()
}

/// How one chunk left the pool.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkOutcome {
    /// Encoded within the session's ordering; `late` flags a finish past
    /// the chunk's deadline (counts as a miss, but the stream continues).
    Served {
        /// Card that served it.
        device: DeviceId,
        /// Arrival-to-finish latency, seconds.
        latency_s: f64,
        /// Finished past its deadline.
        late: bool,
    },
    /// Shed at dispatch: could no longer meet its deadline.
    Stale(AccelError),
    /// Shed at arrival: the session's bounded queue was full.
    Backpressure(AccelError),
    /// The session was dropped before this chunk could be served.
    SessionDropped,
}

/// One chunk's journey.
#[derive(Debug, Clone)]
pub struct ChunkRecord {
    /// Stream (session) index.
    pub stream: usize,
    /// Chunk index within the stream.
    pub chunk: usize,
    /// Arrival time, virtual seconds.
    pub arrival_s: f64,
    /// Dispatch attempts (replays after a device death included).
    pub attempts: u32,
    /// How it ended.
    pub outcome: ChunkOutcome,
}

/// Per-card section of the stream report.
#[derive(Debug, Clone)]
pub struct StreamDeviceReport {
    /// Card identity.
    pub id: DeviceId,
    /// Chunks dispatched to this card.
    pub served: usize,
    /// Chunks that completed.
    pub completed: usize,
    /// Chunk attempts that died on this card (each one failed a stream
    /// over to another card, or dropped it).
    pub failed: usize,
    /// Watchdog-timeout kills across this card's dispatches.
    pub timed_out: usize,
    /// Sessions whose final failed attempt died here.
    pub streams_killed: usize,
    /// Times the breaker opened.
    pub breaker_opens: u32,
    /// Breaker state at drain.
    pub breaker_final: BreakerState,
    /// Health score in [0, 1] at drain.
    pub health: f64,
    /// Busy seconds.
    pub busy_s: f64,
    /// Whether the card's weight cache was warm at drain.
    pub warm: bool,
}

/// Workload-level results of a streaming run.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Streams opened.
    pub streams: usize,
    /// Streams that reached their last chunk (served or shed, but alive).
    pub streams_survived: usize,
    /// Streams dropped (no device could make progress on them).
    pub streams_dropped: usize,
    /// Chunks submitted across all streams.
    pub chunks_total: usize,
    /// Chunks served (late ones included).
    pub chunks_served: usize,
    /// Chunks shed stale at dispatch.
    pub stale_shed: usize,
    /// Chunks shed by session backpressure at arrival.
    pub backpressure_shed: usize,
    /// Served chunks that finished past their deadline.
    pub late: usize,
    /// Mid-stream failovers performed (device death → healthy card).
    pub failovers: usize,
    /// Chunk dispatches that were replays of an unfinished chunk — the
    /// failover accounting: this must equal `failovers` (only the
    /// unfinished chunk is ever replayed, never the stream).
    pub chunks_replayed: usize,
    /// Median arrival-to-finish latency over served chunks, seconds.
    pub p50_chunk_latency_s: f64,
    /// 99th-percentile chunk latency, seconds.
    pub p99_chunk_latency_s: f64,
    /// Missed fraction: (stale + backpressure + late + dropped) /
    /// chunks_total. A chunk that was shed, served late or dropped with
    /// its session missed its deadline.
    pub deadline_miss_rate: f64,
    /// `LoadStripe`s elided by resident-weight reuse across the run.
    pub elided_loads: usize,
    /// Bytes those elisions kept off the HBM channels.
    pub elided_load_bytes: u64,
    /// Bytes the schedules would have streamed with nothing resident.
    pub scheduled_load_bytes: u64,
    /// `elided_load_bytes / scheduled_load_bytes`.
    pub elided_fraction: f64,
    /// Fault-free warm per-chunk service time, seconds (the stale-shed
    /// admission bound).
    pub nominal_chunk_s: f64,
    /// First arrival to last settle, virtual seconds.
    pub wall_s: f64,
    /// Per-card breakdown.
    pub per_device: Vec<StreamDeviceReport>,
    /// Every chunk's journey, in (stream, chunk) order.
    pub records: Vec<ChunkRecord>,
}

impl StreamReport {
    /// Fraction of chunks served within deadline.
    pub fn on_time_ratio(&self) -> f64 {
        if self.chunks_total == 0 {
            1.0
        } else {
            (self.chunks_served - self.late) as f64 / self.chunks_total as f64
        }
    }

    /// Render the `asrsim stream` table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("streams              : {}", self.streams));
        line(format!("streams survived     : {}", self.streams_survived));
        line(format!("streams dropped      : {}", self.streams_dropped));
        line(format!(
            "chunks               : {} submitted, {} served ({} late)",
            self.chunks_total, self.chunks_served, self.late
        ));
        line(format!("stale shed           : {}", self.stale_shed));
        line(format!("backpressure shed    : {}", self.backpressure_shed));
        line(format!("deadline miss rate   : {:.1} %", self.deadline_miss_rate * 100.0));
        line(format!("failovers            : {}", self.failovers));
        line(format!("replayed chunks      : {}", self.chunks_replayed));
        line(format!(
            "chunk latency p50/p99: {:.2} / {:.2} ms (nominal {:.2} ms)",
            self.p50_chunk_latency_s * 1e3,
            self.p99_chunk_latency_s * 1e3,
            self.nominal_chunk_s * 1e3
        ));
        line(elided_loads_line(
            self.elided_loads,
            self.elided_load_bytes,
            self.scheduled_load_bytes,
        ));
        line(format!("wall time            : {:8.2} ms", self.wall_s * 1e3));
        line(format!(
            "{:>6} {:>7} {:>6} {:>6} {:>7} {:>15} {:>7} {:>9} {:>5}",
            "device",
            "served",
            "ok",
            "fail",
            "killed",
            "breaker(opens)",
            "health",
            "busy(ms)",
            "warm"
        ));
        for d in &self.per_device {
            line(format!(
                "{:>6} {:>7} {:>6} {:>6} {:>7} {:>10}({:>3}) {:>7.3} {:>9.2} {:>5}",
                d.id.to_string(),
                d.served,
                d.completed,
                d.failed,
                d.streams_killed,
                d.breaker_final.name(),
                d.breaker_opens,
                d.health,
                d.busy_s * 1e3,
                if d.warm { "yes" } else { "no" }
            ));
        }
        out
    }
}

/// Analytic per-chunk numbers off the plan walker — the third IR consumer:
/// the same chunk plans the runtime executes are priced by
/// [`crate::plan::walk_cost`]. The benchmark (`perfbench/`) reports them
/// as `stream.cold_chunk_ms` and `stream.warm_chunk_ms`.
#[derive(Debug, Clone, Copy)]
pub struct StreamAnalytics {
    /// Analytic latency of a cold chunk (nothing resident), seconds.
    pub cold_chunk_s: f64,
    /// Analytic latency of a warm chunk (pinned stripes elided), seconds.
    pub warm_chunk_s: f64,
    /// Elided fraction of the schedule's load bytes on a warm chunk.
    pub elided_fraction: f64,
    /// Streams the pool sustains at zero analytic miss rate: each stream
    /// offers one warm chunk per interval, each device serves them
    /// back-to-back.
    pub sustainable_streams: usize,
}

/// A deployment's cold and warm chunk plans: [`CHUNK_STEPS`] new rows over
/// [`LEFT_CONTEXT`] cached ones. The warm one lowers against the weight
/// stripes the cold one pins; both load `CTX`, and both are
/// device-neutral.
fn chunk_plans(cfg: &StreamConfig) -> Result<(ExecPlan, ExecPlan)> {
    let lower = |resident| {
        ExecPlan::lower_stream_chunk(&cfg.accel, cfg.arch, CHUNK_STEPS, LEFT_CONTEXT, resident)
    };
    let cold = lower(&[])?;
    let warm = lower(&cold.pinned_stripes(PIN_SLOTS))?;
    Ok((cold, warm))
}

/// Price one cold and one warm chunk plan through the analytic walker.
pub fn stream_analytics(cfg: &StreamConfig) -> Result<StreamAnalytics> {
    cfg.validate()?;
    let (cold, warm) = chunk_plans(cfg)?;
    let cold_chunk_s = walk_cost(&cfg.accel, &cold).latency_s;
    let warm_chunk_s = walk_cost(&cfg.accel, &warm).latency_s;
    let reuse = warm.reuse.unwrap_or_default();
    let scheduled = cold.scheduled_load_bytes().max(1);
    let per_device = (cfg.chunk_interval_s / warm_chunk_s).floor() as usize;
    Ok(StreamAnalytics {
        cold_chunk_s,
        warm_chunk_s,
        elided_fraction: reuse.elided_load_bytes as f64 / scheduled as f64,
        sustainable_streams: per_device * cfg.devices,
    })
}

#[derive(Debug, Clone)]
struct ArrivedChunk {
    idx: usize,
    arrival_s: f64,
    attempts: u32,
}

/// A session's chunk on a card.
#[derive(Debug, Clone)]
struct ChunkWork {
    session: usize,
    chunk: ArrivedChunk,
    /// What the run elided and the stripes it leaves resident; `None` when
    /// the card died under the chunk.
    ok: Option<(PlanReuse, Rc<[ResidentStripe]>)>,
}

/// A streaming card: the pool card (every chunk plan is alike, so its
/// memo is keyed only by whether its weight cache is warm), plus what only
/// the streaming pool tracks.
#[derive(Debug)]
struct StreamDevice {
    card: Card<(), ChunkWork>,
    streams_killed: usize,
}

#[derive(Debug)]
struct Session {
    home: usize,
    /// Device excluded for the current head chunk (it just died under it).
    exclude: Option<usize>,
    arrivals: Vec<f64>,
    arrived: usize,
    queue: VecDeque<ArrivedChunk>,
    in_flight: bool,
    dropped: bool,
    /// Least-recently-served dispatch fairness key.
    last_dispatch_s: f64,
}

impl Session {
    fn open(id: usize, devices: usize, arrivals: Vec<f64>) -> Self {
        Session {
            home: id % devices,
            exclude: None,
            arrivals,
            arrived: 0,
            queue: VecDeque::new(),
            in_flight: false,
            dropped: false,
            last_dispatch_s: -1.0,
        }
    }

    fn closed(&self) -> bool {
        self.dropped
            || (self.arrived == self.arrivals.len() && self.queue.is_empty() && !self.in_flight)
    }
}

/// The streaming pool: bounded per-session queues + health-tracked devices,
/// advanced in deterministic virtual time.
#[derive(Debug)]
pub struct StreamPool {
    cfg: StreamConfig,
    devices: Vec<StreamDevice>,
    sessions: Vec<Session>,
    now_s: f64,
    /// Fault-free warm chunk service time — the stale-shed bound.
    nominal_s: f64,
    /// The chunk plan a card runs cold, and the one it runs warm. Every
    /// card's first success pins `cold`'s leading stripes, the set `warm`
    /// is lowered against, so one pair serves every card.
    cold: ExecPlan,
    warm: ExecPlan,
    elided_loads: usize,
    elided_load_bytes: u64,
    scheduled_load_bytes: u64,
    failovers: usize,
    chunks_replayed: usize,
    records: Vec<ChunkRecord>,
    last_settle_s: f64,
}

impl StreamPool {
    /// A pool whose per-card fault plans come from [`pool_fault_plans`] and
    /// whose arrivals come from [`default_arrivals`].
    pub fn run(cfg: StreamConfig) -> Result<StreamReport> {
        let arrivals = default_arrivals(&cfg);
        let plans = pool_fault_plans(cfg.fault_seed, cfg.devices);
        Self::run_with(cfg, arrivals, plans)
    }

    /// The test hook: explicit per-stream arrival schedules and per-card
    /// fault plans. `arrivals[i][j]` is chunk `j` of stream `i`'s arrival
    /// time (finite, non-decreasing within a stream); a non-finite arrival
    /// is refused typed ([`AccelError::InvalidStream`]) before the pool
    /// runs.
    pub fn run_with(
        cfg: StreamConfig,
        arrivals: Vec<Vec<f64>>,
        plans: Vec<FaultPlan>,
    ) -> Result<StreamReport> {
        cfg.validate()?;
        if arrivals.len() != cfg.streams || plans.len() != cfg.devices {
            return Err(AccelError::Config(format!(
                "pool shaped for {} streams / {} devices but got {} arrival \
                 schedules / {} fault plans",
                cfg.streams,
                cfg.devices,
                arrivals.len(),
                plans.len()
            )));
        }
        if let Some(t) = arrivals.iter().flatten().find(|t| !t.is_finite()) {
            return Err(AccelError::InvalidStream {
                reason: format!("chunk arrival times must be finite, got {t}"),
            });
        }
        let (cold, warm) = chunk_plans(&cfg)?;
        let nominal_s = run_plan(&cfg.accel, &warm).makespan_s;
        if nominal_s > cfg.deadline_s {
            return Err(AccelError::InvalidStream {
                reason: format!(
                    "chunk deadline {:.2} ms is below the warm nominal service \
                     time {:.2} ms: every chunk would miss",
                    cfg.deadline_s * 1e3,
                    nominal_s * 1e3
                ),
            });
        }
        let devices = plans
            .into_iter()
            .enumerate()
            .map(|(i, plan)| StreamDevice { card: Card::new(i, plan), streams_killed: 0 })
            .collect();
        let n_devices = cfg.devices;
        let sessions =
            arrivals.into_iter().enumerate().map(|(i, a)| Session::open(i, n_devices, a)).collect();
        let mut pool = StreamPool {
            cfg,
            devices,
            sessions,
            now_s: 0.0,
            nominal_s,
            cold,
            warm,
            elided_loads: 0,
            elided_load_bytes: 0,
            scheduled_load_bytes: 0,
            failovers: 0,
            chunks_replayed: 0,
            records: Vec::new(),
            last_settle_s: 0.0,
        };
        pool.drive();
        Ok(pool.into_report())
    }

    // ---- virtual-time machinery ----

    fn drive(&mut self) {
        self.process_arrivals();
        self.dispatch();
        while !self.sessions.iter().all(|s| s.closed()) {
            let Some(t) = self.next_event_time() else {
                // No future event but open sessions remain: every queued
                // chunk is stuck behind an excluded/quarantined pool. Let
                // their deadlines expire via the queue-head fold below —
                // reaching here means the invariant broke.
                unreachable!("open sessions always have a next event");
            };
            self.now_s = t;
            self.process_arrivals();
            self.complete_finished();
            self.dispatch();
        }
    }

    /// Earliest strictly-future event: a chunk arrival, an in-flight
    /// settle, a breaker cooldown expiry, or a queued head's deadline (so
    /// stale chunks shed even on an otherwise-quiet pool).
    fn next_event_time(&self) -> Option<f64> {
        let now = self.now_s;
        let mut t: Option<f64> = None;
        let mut fold = |cand: f64| {
            if cand > now {
                t = Some(t.map_or(cand, |cur: f64| cur.min(cand)));
            }
        };
        for s in &self.sessions {
            if s.dropped {
                continue;
            }
            if s.arrived < s.arrivals.len() {
                fold(s.arrivals[s.arrived]);
            }
            if let Some(head) = s.queue.front() {
                fold(head.arrival_s + self.cfg.deadline_s);
            }
        }
        for d in &self.devices {
            if let Some(fl) = &d.card.in_flight {
                fold(fl.finish_s);
            } else if let Some(reopen) = d.card.breaker.reopen_time() {
                fold(reopen);
            }
        }
        t
    }

    /// Admit every chunk whose arrival time has been reached: into the
    /// session's bounded queue, or shed typed at the session boundary.
    fn process_arrivals(&mut self) {
        let now = self.now_s + 1e-15;
        for i in 0..self.sessions.len() {
            while self.sessions[i].arrived < self.sessions[i].arrivals.len()
                && self.sessions[i].arrivals[self.sessions[i].arrived] <= now
            {
                let s = &mut self.sessions[i];
                let idx = s.arrived;
                let arrival_s = s.arrivals[idx];
                s.arrived += 1;
                if s.queue.len() >= SESSION_QUEUE {
                    let err = AccelError::StreamBackpressure {
                        stream: i,
                        queued: s.queue.len(),
                        capacity: SESSION_QUEUE,
                    };
                    self.records.push(ChunkRecord {
                        stream: i,
                        chunk: idx,
                        arrival_s,
                        attempts: 0,
                        outcome: ChunkOutcome::Backpressure(err),
                    });
                    continue;
                }
                s.queue.push_back(ArrivedChunk { idx, arrival_s, attempts: 0 });
            }
        }
    }

    /// Settle every in-flight chunk whose finish time has been reached.
    fn complete_finished(&mut self) {
        let now = self.now_s;
        for d_idx in 0..self.devices.len() {
            let Some(fl) = self.devices[d_idx].card.settle(now) else { continue };
            self.last_settle_s = self.last_settle_s.max(fl.finish_s);
            let ChunkWork { session: s_idx, chunk, ok } = fl.work;
            self.sessions[s_idx].in_flight = false;
            if let Some((reuse, pins)) = ok {
                let card = &mut self.devices[d_idx].card;
                card.breaker.on_success();
                card.completed += 1;
                card.keep_resident(&pins);
                self.elided_loads += reuse.elided_loads;
                self.elided_load_bytes += reuse.elided_load_bytes;
                let deadline = chunk.arrival_s + self.cfg.deadline_s;
                self.records.push(ChunkRecord {
                    stream: s_idx,
                    chunk: chunk.idx,
                    arrival_s: chunk.arrival_s,
                    attempts: chunk.attempts,
                    outcome: ChunkOutcome::Served {
                        device: self.devices[d_idx].card.id,
                        latency_s: fl.finish_s - chunk.arrival_s,
                        late: fl.finish_s > deadline + 1e-15,
                    },
                });
                self.sessions[s_idx].exclude = None;
                continue;
            }
            // The device died under this chunk: session-aware breaker and
            // health accounting, then fail the *session* over — the
            // carryover state lives above the device, so only this chunk
            // replays. As in the serving pool, a failover needs another
            // card to go to.
            let card = &mut self.devices[d_idx].card;
            card.breaker.on_failure(fl.finish_s);
            card.failed += 1;
            card.decay();
            let cards = self.devices.len();
            if cards > 1 && (chunk.attempts as usize) < cards {
                self.failovers += 1;
                self.chunks_replayed += 1;
                self.sessions[s_idx].exclude = Some(d_idx);
                self.sessions[s_idx].queue.push_front(chunk);
            } else {
                // No card can make progress on this stream: drop the
                // session, recording every chunk it still owed — this one,
                // the queued ones and those yet to arrive.
                self.devices[d_idx].streams_killed += 1;
                let s = &mut self.sessions[s_idx];
                s.dropped = true;
                let mut owed: Vec<ArrivedChunk> =
                    std::iter::once(chunk).chain(s.queue.drain(..)).collect();
                owed.extend((s.arrived..s.arrivals.len()).map(|idx| ArrivedChunk {
                    idx,
                    arrival_s: s.arrivals[idx],
                    attempts: 0,
                }));
                s.arrived = s.arrivals.len();
                for c in owed {
                    self.records.push(ChunkRecord {
                        stream: s_idx,
                        chunk: c.idx,
                        arrival_s: c.arrival_s,
                        attempts: c.attempts,
                        outcome: ChunkOutcome::SessionDropped,
                    });
                }
            }
        }
    }

    /// Place ready head chunks onto devices: least-recently-served session
    /// first (a flooding stream cannot starve the pool), sticky to the
    /// session's home device while it admits, re-homing to the healthiest
    /// admitting card when it does not.
    fn dispatch(&mut self) {
        let now = self.now_s;
        loop {
            // Stale-shed every queue head that can no longer make its
            // deadline even if dispatched right now. Replays are exempt:
            // the carryover state needs the unfinished chunk's output for
            // transcript continuity, so a failed-over chunk is served late
            // rather than shed.
            for i in 0..self.sessions.len() {
                while let Some(head) = self.sessions[i].queue.front() {
                    if self.sessions[i].in_flight || head.attempts > 0 {
                        break;
                    }
                    let deadline = head.arrival_s + self.cfg.deadline_s;
                    if now + self.nominal_s <= deadline + 1e-15 {
                        break;
                    }
                    let head = self.sessions[i].queue.pop_front().expect("peeked");
                    let err = AccelError::StaleChunk {
                        stream: i,
                        chunk: head.idx,
                        deadline_s: self.cfg.deadline_s,
                        late_s: now + self.nominal_s - deadline,
                    };
                    self.records.push(ChunkRecord {
                        stream: i,
                        chunk: head.idx,
                        arrival_s: head.arrival_s,
                        attempts: head.attempts,
                        outcome: ChunkOutcome::Stale(err),
                    });
                    self.sessions[i].exclude = None;
                    self.last_settle_s = self.last_settle_s.max(now);
                }
            }
            // Least-recently-served ready session.
            let mut pick: Option<(usize, f64)> = None;
            for (i, s) in self.sessions.iter().enumerate() {
                if s.dropped || s.in_flight || s.queue.is_empty() {
                    continue;
                }
                let key = s.last_dispatch_s;
                pick = match pick {
                    Some((_, k)) if k <= key => pick,
                    _ => Some((i, key)),
                };
            }
            let Some((s_idx, _)) = pick else { break };
            let Some(d_idx) = self.route(s_idx, now) else { break };
            self.start_chunk(s_idx, d_idx);
        }
    }

    /// The session's target card: home while it is idle and admitting;
    /// when home is quarantined or excluded, the healthiest idle admitting
    /// card (graceful drain of a stream-killing device). `None` parks the
    /// chunk in its queue until a device frees or a breaker reopens.
    fn route(&mut self, s_idx: usize, now: f64) -> Option<usize> {
        let s = &self.sessions[s_idx];
        let home = s.home;
        let home_ok = s.exclude != Some(home) && self.devices[home].card.breaker.would_admit(now);
        if home_ok {
            return if self.devices[home].card.in_flight.is_none() { Some(home) } else { None };
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, d) in self.devices.iter().enumerate() {
            let card = &d.card;
            if Some(i) == s.exclude || card.in_flight.is_some() || !card.breaker.would_admit(now) {
                continue;
            }
            best = match best {
                Some((_, h)) if h >= card.health => best,
                _ => Some((i, card.health)),
            };
        }
        best.map(|(i, _)| i)
    }

    /// Dispatch the session's head chunk on the card and schedule its end.
    fn start_chunk(&mut self, s_idx: usize, d_idx: usize) {
        let now = self.now_s;
        let mut chunk = self.sessions[s_idx].queue.pop_front().expect("ready head");
        chunk.attempts += 1;
        self.sessions[s_idx].in_flight = true;
        self.sessions[s_idx].last_dispatch_s = now;
        self.sessions[s_idx].home = d_idx;
        let (accel, cold, warm) = (&self.cfg.accel, &self.cold, &self.warm);
        let card = &mut self.devices[d_idx].card;
        // What one chunk dispatch on this card does: the chunk plan for the
        // card's weight cache through the fault-tolerant executor — once
        // per (card, warm/cold).
        let outcome = card.outcome((), |faults, resident| {
            let plan = if resident.is_empty() { cold } else { warm };
            CardOutcome::of(plan, run_plan_with_recovery(accel, plan, faults))
        });
        card.served += 1;
        let (finish_s, ok) = match outcome {
            CardOutcome::Ok { service_s, quality, timed_out, reuse, pins, .. } => {
                card.timed_out += timed_out;
                card.credit(quality);
                (now + service_s, Some((reuse, pins)))
            }
            CardOutcome::Fail { fail_after_s, quality, timed_out, .. } => {
                card.timed_out += timed_out;
                card.debit_dead_run(quality);
                (now + fail_after_s.max(1e-9), None)
            }
        };
        card.start(now, finish_s, ChunkWork { session: s_idx, chunk, ok });
        self.scheduled_load_bytes += self.cold.scheduled_load_bytes();
    }

    fn into_report(mut self) -> StreamReport {
        self.records.sort_by_key(|r| (r.stream, r.chunk, r.attempts));
        let records = self.records;
        let chunks_total: usize = self.sessions.iter().map(|s| s.arrivals.len()).sum();
        let served: Vec<&ChunkRecord> =
            records.iter().filter(|r| matches!(r.outcome, ChunkOutcome::Served { .. })).collect();
        let late = served
            .iter()
            .filter(|r| matches!(r.outcome, ChunkOutcome::Served { late: true, .. }))
            .count();
        let stale_shed =
            records.iter().filter(|r| matches!(r.outcome, ChunkOutcome::Stale(_))).count();
        let backpressure_shed =
            records.iter().filter(|r| matches!(r.outcome, ChunkOutcome::Backpressure(_))).count();
        let dropped =
            records.iter().filter(|r| matches!(r.outcome, ChunkOutcome::SessionDropped)).count();
        let mut latencies: Vec<f64> = served
            .iter()
            .filter_map(|r| match r.outcome {
                ChunkOutcome::Served { latency_s, .. } => Some(latency_s),
                _ => None,
            })
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let streams_dropped = self.sessions.iter().filter(|s| s.dropped).count();
        let chunks_served = served.len();
        StreamReport {
            streams: self.sessions.len(),
            streams_survived: self.sessions.len() - streams_dropped,
            streams_dropped,
            chunks_total,
            chunks_served,
            stale_shed,
            backpressure_shed,
            late,
            failovers: self.failovers,
            chunks_replayed: self.chunks_replayed,
            p50_chunk_latency_s: percentile(&latencies, 0.50),
            p99_chunk_latency_s: percentile(&latencies, 0.99),
            deadline_miss_rate: if chunks_total == 0 {
                0.0
            } else {
                (stale_shed + backpressure_shed + late + dropped) as f64 / chunks_total as f64
            },
            elided_loads: self.elided_loads,
            elided_load_bytes: self.elided_load_bytes,
            scheduled_load_bytes: self.scheduled_load_bytes,
            elided_fraction: elided_fraction(self.elided_load_bytes, self.scheduled_load_bytes),
            nominal_chunk_s: self.nominal_s,
            wall_s: self.last_settle_s,
            per_device: self
                .devices
                .iter()
                .map(|d| StreamDeviceReport {
                    id: d.card.id,
                    served: d.card.served,
                    completed: d.card.completed,
                    failed: d.card.failed,
                    timed_out: d.card.timed_out,
                    streams_killed: d.streams_killed,
                    breaker_opens: d.card.breaker.opens,
                    breaker_final: d.card.breaker.state,
                    health: d.card.health,
                    busy_s: d.card.busy_s,
                    warm: d.card.is_warm(),
                })
                .collect(),
            records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_fpga_sim::faults::FaultKind;

    fn cfg(devices: usize, seed: u64, streams: usize) -> StreamConfig {
        let mut c = StreamConfig::new(devices, seed, streams, 0.060);
        c.chunks_per_stream = 8;
        c.chunk_interval_s = 0.040;
        c
    }

    #[test]
    fn clean_pool_serves_every_chunk_and_warms_every_card() {
        let report = StreamPool::run(cfg(2, 0, 4)).unwrap();
        assert_eq!(report.chunks_total, 32);
        assert_eq!(report.chunks_served, 32);
        assert_eq!(report.streams_dropped, 0);
        assert_eq!(report.stale_shed + report.backpressure_shed + report.late, 0);
        assert_eq!(report.failovers, 0);
        assert!(report.p99_chunk_latency_s >= report.p50_chunk_latency_s);
        for d in &report.per_device {
            assert!(d.warm, "{} never warmed its stream cache", d.id);
            assert_eq!(d.breaker_final, BreakerState::Closed);
        }
    }

    #[test]
    fn warm_chunks_elide_at_least_the_double_buffered_stripe_set() {
        let report = StreamPool::run(cfg(2, 0, 4)).unwrap();
        // Every chunk after each device's first runs warm.
        let warm_chunks = report.chunks_served - report.per_device.len();
        assert!(report.elided_loads > 0);
        let c = cfg(2, 0, 4);
        let plan =
            ExecPlan::lower_stream_chunk(&c.accel, c.arch, CHUNK_STEPS, LEFT_CONTEXT, &[]).unwrap();
        let double_buffered: u64 = plan.pinned_stripes(2).iter().map(|p| p.bytes).sum();
        assert!(
            report.elided_load_bytes >= warm_chunks as u64 * double_buffered,
            "elided {} bytes < {} warm chunks x {} double-buffered bytes",
            report.elided_load_bytes,
            warm_chunks,
            double_buffered
        );
        assert!(report.elided_fraction > 0.0 && report.elided_fraction < 1.0);
    }

    #[test]
    fn seeded_device_fault_drops_zero_streams_and_replays_only_unfinished_chunks() {
        // seed 1 on a 4-card pool breaks dev1; the stream homed there must
        // fail over on its first chunk and never look back.
        let report = StreamPool::run(cfg(4, 1, 4)).unwrap();
        assert_eq!(report.streams_dropped, 0, "a device fault must not drop a stream");
        assert_eq!(report.streams_survived, report.streams);
        assert!(report.failovers > 0, "the broken card must fail streams over");
        assert_eq!(
            report.chunks_replayed, report.failovers,
            "only the unfinished chunk replays, never the stream"
        );
        // Exactly one stream was homed on the broken card; exactly its
        // interrupted chunk replays.
        assert_eq!(report.failovers, 1);
        assert_eq!(report.chunks_served, report.chunks_total);
        let bad = &report.per_device[1];
        assert_eq!(bad.completed, 0);
        assert!(bad.failed > 0);
        assert!(!bad.warm);
        let good = &report.per_device[0];
        assert!(good.completed > 0 && good.warm);
        assert!(good.health > bad.health);
        assert!(report.elided_loads > 0, "failover must not disable resident reuse");
    }

    #[test]
    fn a_flooding_stream_sheds_onto_itself_not_onto_its_neighbours() {
        // Stream 0 emits six chunks in 0.5 ms on a single shared card, one
        // more than its in-flight slot and 4-deep session queue hold;
        // streams 1 and 2 keep their normal cadence. The bounded session
        // queue + least-recently-served dispatch must keep the neighbours
        // at a zero miss rate.
        let mut c = cfg(1, 0, 3);
        c.chunk_interval_s = 0.100;
        c.deadline_s = 0.100;
        c.chunks_per_stream = 6;
        let mut arrivals = default_arrivals(&c);
        arrivals[0] = (0..c.chunks_per_stream).map(|j| 1e-4 * j as f64).collect();
        let plans = pool_fault_plans(0, 1);
        let report = StreamPool::run_with(c, arrivals, plans).unwrap();
        assert_eq!(report.streams_dropped, 0);
        let miss = |stream: usize| {
            report
                .records
                .iter()
                .filter(|r| r.stream == stream)
                .filter(|r| !matches!(r.outcome, ChunkOutcome::Served { late: false, .. }))
                .count()
        };
        assert!(
            miss(0) > 0,
            "the flooding stream must shed (backpressure {} stale {})",
            report.backpressure_shed,
            report.stale_shed
        );
        assert_eq!(miss(1), 0, "stream 1 must be isolated from the flood");
        assert_eq!(miss(2), 0, "stream 2 must be isolated from the flood");
        assert!(report.backpressure_shed > 0, "the flood must hit the bounded session queue");
    }

    #[test]
    fn same_seed_reproduces_identical_reports() {
        let mut c = cfg(3, 5, 6);
        c.jitter_s = 0.004;
        let a = StreamPool::run(c.clone()).unwrap();
        let b = StreamPool::run(c).unwrap();
        assert_eq!(a.chunks_served, b.chunks_served);
        assert_eq!(a.stale_shed, b.stale_shed);
        assert_eq!(a.failovers, b.failovers);
        assert_eq!(a.elided_load_bytes, b.elided_load_bytes);
        assert_eq!(a.wall_s.to_bits(), b.wall_s.to_bits());
        assert_eq!(a.p99_chunk_latency_s.to_bits(), b.p99_chunk_latency_s.to_bits());
    }

    #[test]
    fn degenerate_stream_configs_are_rejected_typed() {
        // A bitstream built shorter than the chunk window.
        let mut c = cfg(2, 0, 2);
        c.accel.max_seq_len = c.window() - 1;
        match StreamPool::run(c).unwrap_err() {
            AccelError::InvalidStream { reason } => assert!(reason.contains("attention window")),
            other => panic!("expected InvalidStream, got {}", other),
        }
        let mut c = cfg(2, 0, 2);
        c.deadline_s = 1e-9;
        match StreamPool::run(c).unwrap_err() {
            AccelError::InvalidStream { reason } => assert!(reason.contains("every chunk")),
            other => panic!("expected InvalidStream, got {}", other),
        }
    }

    #[test]
    fn a_non_finite_arrival_is_refused_typed_before_the_pool_runs() {
        let c = cfg(1, 0, 2);
        let mut arrivals = default_arrivals(&c);
        arrivals[1][3] = f64::NAN;
        let err = StreamPool::run_with(c, arrivals, pool_fault_plans(0, 1)).unwrap_err();
        match err {
            AccelError::InvalidStream { reason } => assert!(reason.contains("finite"), "{reason}"),
            other => panic!("expected InvalidStream, got {}", other),
        }
    }

    #[test]
    fn analytics_price_warm_below_cold_and_report_sustainable_streams() {
        let c = cfg(2, 0, 4);
        let a = stream_analytics(&c).unwrap();
        assert!(a.warm_chunk_s <= a.cold_chunk_s);
        assert!(a.elided_fraction > 0.0 && a.elided_fraction < 1.0);
        assert!(a.sustainable_streams > 0);
    }

    #[test]
    fn report_renders_the_greppable_lines() {
        let report = StreamPool::run(cfg(4, 1, 4)).unwrap();
        let text = report.render();
        assert!(text.contains("streams dropped      : 0"), "{}", text);
        assert!(text.contains("replayed chunks      : 1"), "{}", text);
        assert!(text.contains("elided loads"), "{}", text);
        assert!(text.contains("deadline miss rate"), "{}", text);
    }

    #[test]
    fn a_pool_of_broken_cards_drops_streams_instead_of_hanging() {
        let mut c = cfg(2, 0, 2);
        c.chunks_per_stream = 3;
        let plans = vec![
            FaultPlan::none().with(FaultKind::HbmLoadError {
                label: "LW".into(),
                failing_attempts: u32::MAX,
            });
            2
        ];
        let arrivals = default_arrivals(&c);
        let report = StreamPool::run_with(c, arrivals, plans).unwrap();
        assert_eq!(report.streams_dropped, report.streams);
        assert_eq!(report.chunks_served, 0);
        assert!(report.per_device.iter().map(|d| d.streams_killed).sum::<usize>() >= 2);
        assert_eq!(report.deadline_miss_rate, 1.0, "a dropped chunk missed its deadline");
    }

    #[test]
    fn a_single_broken_card_drops_every_stream_without_failing_over_onto_itself() {
        // Seed 1 breaks the only card: there is no other card to fail a
        // session over to, so each stream drops on its first failed chunk.
        let report = StreamPool::run(cfg(1, 1, 2)).unwrap();
        assert_eq!(report.streams_dropped, 2);
        assert_eq!(report.chunks_served, 0);
        assert_eq!(report.failovers, 0);
        assert_eq!(report.chunks_replayed, report.failovers);
        assert_eq!(report.per_device[0].streams_killed, 2);
        assert_eq!(report.deadline_miss_rate, 1.0);
    }
}
