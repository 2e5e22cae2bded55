//! Cluster-scale serving: multiple [`ServePool`] nodes as fault domains
//! behind one front router, co-simulated in a single deterministic virtual
//! time (DESIGN.md §14).
//!
//! Each node wraps one pool — its cards share a power domain, an HBM
//! supply chain, and a router link, so faults are injected at *node*
//! granularity: fail-stop death, power-domain dropout (the whole node goes
//! dark, then reboots empty), correlated HBM corruption bursts (the same
//! silent bit flip on every card), and router↔node partitions (the router
//! times out, hedges the dispatch to another node, and holds the node out
//! of routing until a probe lands).
//!
//! The router places by finish time: each node's pool projects when a
//! request submitted now would start ([`ServePool::projected_start_s`]),
//! and the router takes the earliest, ties going to the higher
//! rendezvous-hash score of the session. A session's requests therefore
//! stick to its affinity node unless another node would start them
//! strictly earlier, so an idle cluster routes by affinity alone; when a
//! node dies only its sessions re-home — rendezvous scores are
//! per-(session, node), so the surviving assignment is stable.
//!
//! Cross-node failover hands the barrier-granular [`PlanCheckpoint`]s a
//! dying node evicts ([`ServePool::fail_stop`]) to the version-matching
//! survivor that would start them first: resident-stripe trust stays
//! refused cross-device, a cross-version checkpoint is a typed rejection
//! that downgrades to suffix replay, and utterances that finished before
//! the kill are never lost.
//!
//! Rolling weight upgrades drain one node at a time (flash is idle-only —
//! [`ServePool::set_weight_version`] — so no dispatched batch ever mixes
//! weight versions), and the upgrade pauses, then rolls back, when the
//! survivor set's capacity or breaker state makes the SLO unattainable.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::error::{AccelError, Result};
use crate::plan::PlanCheckpoint;
use crate::serve::{
    elided_loads_line, latency_p50_p99, outcome_counts, queue_wait_line, BreakerState,
    DispatchCounters, Evicted, RequestRecord, ServeConfig, ServePool, ServeReport,
};
use crate::stream::jitter;
use asr_fpga_sim::faults::correlated_hbm_burst;

/// Arrival-pattern shape of the offered load. All traces are seeded and
/// deterministic; they differ in how the configured mean rate is spread
/// over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficTrace {
    /// Fixed `1/rps` spacing (the `serve` workload).
    Steady,
    /// A full sinusoidal day over the trace: instantaneous rate swings
    /// between 0.4× and 1.6× the mean — the peak finds capacity limits,
    /// the trough gives upgrades room.
    Diurnal,
    /// Tight 8-request bursts at 8× the mean rate, separated by quiet
    /// gaps that restore the mean — queue-depth and linger stress.
    Bursty,
}

impl TrafficTrace {
    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Result<TrafficTrace> {
        match s {
            "steady" => Ok(TrafficTrace::Steady),
            "diurnal" => Ok(TrafficTrace::Diurnal),
            "bursty" => Ok(TrafficTrace::Bursty),
            other => Err(AccelError::Config(format!(
                "unknown trace '{}' (expected steady | diurnal | bursty)",
                other
            ))),
        }
    }

    /// The arrival schedule: `requests` timestamps at mean rate `rps`,
    /// seeded jitter included, monotone non-decreasing.
    pub fn arrivals(&self, rps: f64, requests: usize, seed: u64) -> Vec<f64> {
        let base = 1.0 / rps;
        let mut t = 0.0f64;
        let mut out: Vec<f64> = Vec::with_capacity(requests);
        for i in 0..requests {
            let frac = i as f64 / requests.max(1) as f64;
            let gap = match self {
                TrafficTrace::Steady => base,
                TrafficTrace::Diurnal => base / (1.0 + 0.6 * (std::f64::consts::TAU * frac).sin()),
                TrafficTrace::Bursty => {
                    if i % 8 == 7 {
                        // The gap restores the mean over the 8-burst.
                        base * 8.0 - 7.0 * base / 8.0
                    } else {
                        base / 8.0
                    }
                }
            };
            t += gap;
            let j = match self {
                TrafficTrace::Steady => 0.0,
                _ => jitter(seed ^ 0x7ace, 0, i, gap * 0.1),
            };
            let at = t + j;
            out.push(out.last().copied().map_or(at, |p: f64| p.max(at)));
        }
        out
    }
}

/// Node-granular fault injection: each variant takes a whole fault domain.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeFault {
    /// Fail-stop at `at_s`: every card dies at once, queued and unfinished
    /// in-flight work is evicted for a survivor to adopt, the node never
    /// returns.
    Kill {
        /// Node index.
        node: usize,
        /// Virtual time of death, seconds.
        at_s: f64,
    },
    /// Power-domain dropout: like a kill, but the node reboots empty (at
    /// its current weight version) after `outage_s`.
    PowerDropout {
        /// Node index.
        node: usize,
        /// Virtual time the power goes, seconds.
        at_s: f64,
        /// Outage duration before the reboot completes, seconds.
        outage_s: f64,
    },
    /// Correlated HBM corruption: the *same* seeded silent bit flip lands
    /// on every card of the node at once
    /// ([`asr_fpga_sim::faults::correlated_hbm_burst`]) — a shared-supply
    /// corruption event a per-card fault model cannot express.
    HbmBurst {
        /// Node index.
        node: usize,
        /// Virtual time the burst lands, seconds.
        at_s: f64,
        /// Burst seed (word/bit/attempt pattern).
        seed: u64,
    },
    /// Router↔node link partition for `for_s`: a dispatch to the node times
    /// out (a quarter of the request deadline) and the router hedges the
    /// request to another node, then holds the node out of routing until a
    /// probe lands. Work already on the node keeps running and completes.
    Partition {
        /// Node index.
        node: usize,
        /// Partition start, seconds.
        at_s: f64,
        /// Partition duration, seconds.
        for_s: f64,
    },
}

/// Flash duration per node (the node is out of service), seconds.
const FLASH_S: f64 = 0.005;
/// Live, reachable nodes (beyond the one being pulled) required to take a
/// node out of service; fewer pauses the rollout.
const MIN_LIVE_SPARES: usize = 1;
/// Paused longer than this and the rollout rolls back: already-flashed
/// nodes are drained and re-flashed to the old version, newest first.
const PAUSE_TIMEOUT_S: f64 = 0.25;

/// Rolling weight-version upgrade plan.
#[derive(Debug, Clone, PartialEq)]
pub struct UpgradeConfig {
    /// Version to flash the fleet to.
    pub to_version: u64,
    /// Virtual time the rollout starts, seconds; finite and >= 0.
    pub start_s: f64,
}

impl UpgradeConfig {
    /// A rollout to `to_version` starting at `start_s`: 5 ms flashes, one
    /// live spare required, 250 ms pause budget.
    pub fn new(to_version: u64, start_s: f64) -> Self {
        UpgradeConfig { to_version, start_s }
    }
}

/// How the rollout ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpgradeOutcome {
    /// No upgrade was requested.
    NotRequested,
    /// Every live node runs the new version.
    Completed,
    /// The rollout paused past its budget and every flashed node was
    /// returned to the old version.
    RolledBack,
}

impl UpgradeOutcome {
    /// Render spelling.
    pub fn name(self) -> &'static str {
        match self {
            UpgradeOutcome::NotRequested => "not requested",
            UpgradeOutcome::Completed => "completed",
            UpgradeOutcome::RolledBack => "rolled back",
        }
    }
}

/// Cluster-level configuration: the node template plus router, trace,
/// fault, and upgrade plans.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Fault-domain count.
    pub nodes: usize,
    /// Total offered load across the cluster, requests per second.
    pub rps: f64,
    /// Requests in the workload.
    pub requests: usize,
    /// Session-affinity key space: request `i` belongs to session
    /// `i % sessions`.
    pub sessions: usize,
    /// Arrival-pattern shape.
    pub trace: TrafficTrace,
    /// Router/trace seed (rendezvous salts, trace jitter).
    pub seed: u64,
    /// Node-granular fault plan.
    pub faults: Vec<NodeFault>,
    /// Rolling-upgrade plan, if any.
    pub upgrade: Option<UpgradeConfig>,
    /// Per-node pool template (`devices` is per node; `rps` is the
    /// per-node share used for admission validation).
    pub serve: ServeConfig,
}

impl ClusterConfig {
    /// A cluster of `nodes` × `devices` cards at `rps` total offered load,
    /// checkpointed failover on (the cluster exists to hand work across
    /// fault domains).
    pub fn new(nodes: usize, devices: usize, rps: f64, deadline_s: f64) -> Self {
        let mut serve =
            ServeConfig::new(devices, 0, (rps / nodes.max(1) as f64).max(1.0), deadline_s);
        serve.checkpoint = true;
        ClusterConfig {
            nodes,
            rps,
            requests: 300,
            sessions: 16,
            trace: TrafficTrace::Steady,
            seed: 1,
            faults: Vec::new(),
            upgrade: None,
            serve,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.nodes == 0 {
            return Err(AccelError::Config("cluster needs at least one node".into()));
        }
        if self.sessions == 0 {
            return Err(AccelError::Config("session key space must be >= 1".into()));
        }
        if self.rps <= 0.0 || !self.rps.is_finite() {
            return Err(AccelError::Config(format!(
                "offered load must be positive, got {}",
                self.rps
            )));
        }
        if let Some(u) = &self.upgrade {
            if !(u.start_s.is_finite() && u.start_s >= 0.0) {
                return Err(AccelError::Config(format!(
                    "upgrade start must be a finite time >= 0, got {}",
                    u.start_s
                )));
            }
            if self.nodes < 2 {
                return Err(AccelError::Config(
                    "a rolling upgrade needs >= 2 nodes (one drains while others serve)".into(),
                ));
            }
            if u.to_version == self.serve.accel.weight_version {
                return Err(AccelError::Config(format!(
                    "upgrade target {} is already the deployed version",
                    u.to_version
                )));
            }
        }
        for f in &self.faults {
            let node = match f {
                NodeFault::Kill { node, .. }
                | NodeFault::PowerDropout { node, .. }
                | NodeFault::HbmBurst { node, .. }
                | NodeFault::Partition { node, .. } => *node,
            };
            if node >= self.nodes {
                return Err(AccelError::Config(format!(
                    "fault targets node {} but the cluster has {}",
                    node, self.nodes
                )));
            }
        }
        Ok(())
    }
}

/// Per-node section of the cluster report: the merged accounting of every
/// incarnation the node ran (a dropout node reboots into a new pool).
#[derive(Debug, Clone)]
pub struct NodeSummary {
    /// Node index.
    pub node: usize,
    /// Weight version the node ended on.
    pub version: u64,
    /// Whether the node was fail-stopped and never returned.
    pub killed: bool,
    /// Requests submitted to this node (adoptions and hedges included).
    pub submitted: usize,
    /// Requests completed here.
    pub completed: usize,
    /// Requests evicted by fail-stops here.
    pub evicted: usize,
    /// Cross-version checkpoint refusals here.
    pub version_rejects: usize,
    /// Breaker opens summed over cards and incarnations.
    pub breaker_opens: u32,
}

/// Workload-level results of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Fault-domain count.
    pub nodes: usize,
    /// External requests offered to the router.
    pub offered: usize,
    /// Requests served within deadline (cluster-wide).
    pub completed: usize,
    /// Shed at admission (node queues full).
    pub shed: usize,
    /// Deadlines missed.
    pub deadline_missed: usize,
    /// Hard failures with no recovery path.
    pub failed: usize,
    /// Dropped at shutdown.
    pub dropped: usize,
    /// Requests with *no* terminal accounting anywhere — evictions no
    /// survivor adopted plus arrivals the router could never place. The
    /// zero-loss invariant is `lost == 0` whenever a survivor exists.
    pub lost: usize,
    /// Dispatches hedged to another node after a link timeout.
    pub hedged: usize,
    /// Evicted requests adopted by a surviving node.
    pub handoffs: usize,
    /// Checkpointed suffixes resumed, cluster-wide.
    pub resumed_dispatches: usize,
    /// Checkpoints rejected at validation, cluster-wide.
    pub checkpoint_rejects: usize,
    /// Rejections caused by a weight-version mismatch (subset).
    pub version_rejects: usize,
    /// `LoadStripe`s the cards' weight caches elided, summed over nodes.
    pub elided_loads: usize,
    /// Bytes those elisions kept off the HBM channels.
    pub elided_load_bytes: u64,
    /// Bytes the dispatched schedules would have streamed with nothing
    /// resident, summed over nodes.
    pub scheduled_load_bytes: u64,
    /// Median arrival-to-finish latency over completions, seconds.
    pub p50_latency_s: f64,
    /// 99th-percentile latency, seconds.
    pub p99_latency_s: f64,
    /// First arrival to last completion, seconds.
    pub wall_s: f64,
    /// Completions per simulated second.
    pub throughput_rps: f64,
    /// How the rollout ended.
    pub upgrade: UpgradeOutcome,
    /// Summed node out-of-service time during the rollout, seconds.
    pub upgrade_downtime_s: f64,
    /// Per-node accounting.
    pub per_node: Vec<NodeSummary>,
    /// Every request's journey: `(node, record)` across all incarnations.
    pub records: Vec<(usize, RequestRecord)>,
}

impl ClusterReport {
    /// Fraction of offered requests served within deadline.
    pub fn success_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }

    /// Render the `asrsim cluster` table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("cluster nodes        : {}", self.nodes));
        line(format!("requests offered     : {}", self.offered));
        line(format!(
            "completed            : {} ({:.1} %)",
            self.completed,
            self.success_ratio() * 100.0
        ));
        line(format!("lost                 : {}", self.lost));
        line(format!(
            "shed / missed / failed / dropped : {} / {} / {} / {}",
            self.shed, self.deadline_missed, self.failed, self.dropped
        ));
        line(format!("hedged dispatches    : {}", self.hedged));
        line(format!("failover handoffs    : {}", self.handoffs));
        line(format!(
            "checkpoint resume    : {} resumed, {} rejected ({} cross-version)",
            self.resumed_dispatches, self.checkpoint_rejects, self.version_rejects
        ));
        line(elided_loads_line(
            self.elided_loads,
            self.elided_load_bytes,
            self.scheduled_load_bytes,
        ));
        line(format!(
            "latency p50 / p99    : {:.2} / {:.2} ms",
            self.p50_latency_s * 1e3,
            self.p99_latency_s * 1e3
        ));
        line(queue_wait_line(self.records.iter().map(|(_, r)| r)));
        line(format!("throughput           : {:8.2} req/s", self.throughput_rps));
        line(format!(
            "upgrade              : {} (downtime {:.2} ms)",
            self.upgrade.name(),
            self.upgrade_downtime_s * 1e3
        ));
        line(format!(
            "{:>5} {:>8} {:>10} {:>10} {:>8} {:>9} {:>7} {:>7}",
            "node", "version", "submitted", "completed", "evicted", "vrejects", "opens", "state"
        ));
        for n in &self.per_node {
            line(format!(
                "{:>5} {:>8} {:>10} {:>10} {:>8} {:>9} {:>7} {:>7}",
                n.node,
                n.version,
                n.submitted,
                n.completed,
                n.evicted,
                n.version_rejects,
                n.breaker_opens,
                if n.killed { "dead" } else { "live" }
            ));
        }
        out
    }
}

// ---- internal machinery ----

#[derive(Debug, Clone, PartialEq)]
enum EvKind {
    Arrival(usize),
    Hedge { arrival_s: f64, key: usize, excluded: Vec<usize> },
    Fault(usize),
    Revive(usize),
    FlashDone(usize),
    Tick,
}

#[derive(Debug)]
struct Ev {
    t: f64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.t.total_cmp(&other.t) == Ordering::Equal && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    // Min-heap via reversed ordering: earliest time first, then insertion
    // order — fully deterministic.
    fn cmp(&self, other: &Self) -> Ordering {
        other.t.total_cmp(&self.t).then(other.seq.cmp(&self.seq))
    }
}

/// The router's breaker on one node's link. A dispatch that times out on
/// the link holds the node out of routing for one link timeout; then one
/// dispatch goes through as a probe. A probe that lands ends the hold, and
/// one that times out holds the node again.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Link {
    /// No timeout outstanding: dispatches flow.
    Up,
    /// Held out of routing until `until`; the first dispatch after that is
    /// the probe.
    Held { until: f64 },
    /// The probe is on the wire and has not landed.
    Probing,
}

#[derive(Debug)]
struct Node {
    /// The running pool; `None` while the node is down, for good once
    /// `killed`, else rebooting after a power dropout.
    pool: Option<ServePool>,
    cfg: ServeConfig,
    version: u64,
    killed: bool,
    partitioned_until: f64,
    link: Link,
    upgrading: bool,
    /// Final reports of the pools that went down here, banked at each kill
    /// or dropout (a dropout reboots into a new pool).
    reports: Vec<ServeReport>,
}

impl Node {
    fn routable(&self) -> bool {
        self.pool.is_some() && !self.upgrading
    }

    /// Whether the router may dispatch to the node at `now` as far as its
    /// link breaker goes.
    fn link_admits(&self, now: f64) -> bool {
        match self.link {
            Link::Up => true,
            Link::Held { until } => now >= until,
            Link::Probing => false,
        }
    }
}

#[derive(Debug)]
enum UState {
    Waiting,
    Draining(usize),
    Flashing(usize),
    Paused { since: f64 },
    Settled(UpgradeOutcome),
}

#[derive(Debug)]
struct UpgradeRun {
    cfg: UpgradeConfig,
    from: u64,
    rolling_back: bool,
    queue: Vec<usize>,
    state: UState,
    drain_started_s: f64,
    downtime_s: f64,
}

impl UpgradeRun {
    fn target(&self) -> u64 {
        if self.rolling_back {
            self.from
        } else {
            self.cfg.to_version
        }
    }

    fn settled(&self) -> bool {
        matches!(self.state, UState::Settled(_))
    }
}

/// The cluster simulation. Build with [`Cluster::run`].
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<Node>,
    heap: BinaryHeap<Ev>,
    seq: u64,
    now_s: f64,
    arrivals: Vec<f64>,
    hedged: usize,
    handoffs: usize,
    lost_unplaced: usize,
    upgrade: Option<UpgradeRun>,
}

impl Cluster {
    /// Run the configured cluster workload end to end and report.
    pub fn run(cfg: ClusterConfig) -> Result<ClusterReport> {
        cfg.validate()?;
        let arrivals = cfg.trace.arrivals(cfg.rps, cfg.requests, cfg.seed);
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for _ in 0..cfg.nodes {
            let node_cfg = cfg.serve.clone();
            let pool = ServePool::new(node_cfg.clone())?;
            nodes.push(Node {
                pool: Some(pool),
                cfg: node_cfg,
                version: cfg.serve.accel.weight_version,
                killed: false,
                partitioned_until: 0.0,
                link: Link::Up,
                upgrading: false,
                reports: Vec::new(),
            });
        }
        let upgrade = cfg.upgrade.clone().map(|u| UpgradeRun {
            from: cfg.serve.accel.weight_version,
            rolling_back: false,
            queue: (0..cfg.nodes).collect(),
            state: UState::Waiting,
            drain_started_s: 0.0,
            downtime_s: 0.0,
            cfg: u,
        });
        let mut cluster = Cluster {
            nodes,
            heap: BinaryHeap::new(),
            seq: 0,
            now_s: 0.0,
            arrivals,
            hedged: 0,
            handoffs: 0,
            lost_unplaced: 0,
            upgrade,
            cfg,
        };
        for i in 0..cluster.arrivals.len() {
            cluster.push(cluster.arrivals[i], EvKind::Arrival(i));
        }
        for i in 0..cluster.cfg.faults.len() {
            let at = match &cluster.cfg.faults[i] {
                NodeFault::Kill { at_s, .. }
                | NodeFault::PowerDropout { at_s, .. }
                | NodeFault::HbmBurst { at_s, .. }
                | NodeFault::Partition { at_s, .. } => *at_s,
            };
            cluster.push(at, EvKind::Fault(i));
        }
        if let Some(u) = &cluster.upgrade {
            let at = u.cfg.start_s;
            cluster.push(at, EvKind::Tick);
        }
        cluster.event_loop();
        Ok(cluster.into_report())
    }

    fn push(&mut self, t: f64, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Ev { t, seq, kind });
    }

    /// Router link timeout before a dispatch to an unreachable node is
    /// hedged elsewhere, seconds: a quarter of the request deadline.
    fn link_timeout(&self) -> f64 {
        self.cfg.serve.deadline_s * 0.25
    }

    fn tick_s(&self) -> f64 {
        self.link_timeout().clamp(1e-3, 0.05)
    }

    fn event_loop(&mut self) {
        while let Some(ev) = self.heap.pop() {
            let t = ev.t.max(self.now_s);
            self.now_s = t;
            for n in &mut self.nodes {
                if let Some(p) = n.pool.as_mut() {
                    p.run_until(t);
                }
            }
            match ev.kind {
                EvKind::Arrival(i) => self.on_arrival(i),
                EvKind::Hedge { arrival_s, key, excluded } => {
                    self.on_hedge(arrival_s, key, excluded)
                }
                EvKind::Fault(i) => self.on_fault(i),
                EvKind::Revive(n) => self.on_revive(n),
                EvKind::FlashDone(n) => self.on_flash_done(n),
                EvKind::Tick => {}
            }
            self.step_upgrade();
            // The rollout must settle even after the trace ends: keep one
            // tick alive while it is pending.
            let unsettled = self.upgrade.as_ref().is_some_and(|u| !u.settled());
            if unsettled && self.heap.is_empty() {
                let at = self.now_s + self.tick_s();
                self.push(at, EvKind::Tick);
            }
        }
    }

    // ---- routing ----

    fn partitioned(&self, node: usize) -> bool {
        self.now_s < self.nodes[node].partitioned_until
    }

    /// The routable candidate that would start the request first
    /// ([`ServePool::projected_start_s`]), ties going to the higher
    /// rendezvous-hash score: the session sticks to its affinity node (the
    /// highest score) unless another node would start it strictly earlier,
    /// so an idle cluster routes by affinity alone. A node whose link
    /// breaker holds it is skipped.
    fn route(&self, key: usize, excluded: &[usize]) -> Option<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| n.routable() && n.link_admits(self.now_s) && !excluded.contains(i))
            .filter_map(|(i, n)| {
                let score = jitter(self.cfg.seed ^ 0xAF1F17, key, i, 1.0);
                Some((i, n.pool.as_ref()?.projected_start_s(), score))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1).then(b.2.total_cmp(&a.2)))
            .map(|(i, _, _)| i)
    }

    fn on_arrival(&mut self, i: usize) {
        let t = self.arrivals[i];
        let key = i % self.cfg.sessions;
        self.place(t, key, Vec::new());
    }

    /// A hedge fires when its dispatch timed out on the link to the last
    /// node it excludes (a retry after nothing was routable excludes none):
    /// the router holds that node for one link timeout, then re-places.
    fn on_hedge(&mut self, arrival_s: f64, key: usize, excluded: Vec<usize>) {
        if let Some(&node) = excluded.last() {
            self.nodes[node].link = Link::Held { until: self.now_s + self.link_timeout() };
        }
        self.place(arrival_s, key, excluded);
    }

    /// Route and submit one request. A partitioned target times the
    /// dispatch out after the link timeout, marks the node excluded, and
    /// hedges; the retry arrives with its original deadline intact. A
    /// dispatch to a held node whose hold has run out is the probe: it
    /// lands and ends the hold, or times out and stays on the wire.
    fn place(&mut self, arrival_s: f64, key: usize, mut excluded: Vec<usize>) {
        let Some(node) = self.route(key, &excluded) else {
            // Nothing routable. If a node is mid-reboot or the whole
            // fleet is partitioned, retry after a timeout; a fleet
            // with no future is a terminal router loss.
            let future = self.nodes.iter().any(|n| !n.killed);
            if future {
                let at = self.now_s + self.link_timeout();
                self.hedged += 1;
                self.push(at, EvKind::Hedge { arrival_s, key, excluded: Vec::new() });
            } else {
                self.lost_unplaced += 1;
            }
            return;
        };
        let probe = matches!(self.nodes[node].link, Link::Held { .. });
        if self.partitioned(node) {
            // The router cannot see the partition: the dispatch times
            // out on the wire, then hedges away from the node.
            if probe {
                self.nodes[node].link = Link::Probing;
            }
            self.hedged += 1;
            excluded.push(node);
            let at = self.now_s + self.link_timeout();
            self.push(at, EvKind::Hedge { arrival_s, key, excluded });
            return;
        }
        self.nodes[node].link = Link::Up;
        let pool = self.nodes[node].pool.as_mut().expect("routable implies a pool");
        if arrival_s >= pool.now_s() {
            // Overload is the pool's typed shed, already recorded.
            let _ = pool.submit(arrival_s);
        } else {
            // A hedged retry keeps its original arrival (the deadline
            // does not reset because a link flapped).
            pool.adopt(vec![Evicted { arrival_s, attempts: 0, ckpt: None }]);
        }
    }

    // ---- faults ----

    fn on_fault(&mut self, i: usize) {
        match self.cfg.faults[i].clone() {
            NodeFault::Kill { node, .. } => {
                self.kill_node(node, None);
            }
            NodeFault::PowerDropout { node, at_s, outage_s } => {
                self.kill_node(node, Some(at_s + outage_s));
            }
            NodeFault::HbmBurst { node, seed, .. } => {
                let n = &mut self.nodes[node];
                if let Some(p) = n.pool.as_mut() {
                    let burst = correlated_hbm_burst(seed, n.cfg.devices);
                    let _ = p.inject_faults(&burst);
                }
            }
            NodeFault::Partition { node, at_s, for_s } => {
                let n = &mut self.nodes[node];
                n.partitioned_until = n.partitioned_until.max(at_s + for_s);
            }
        }
    }

    /// Fail-stop a node, bank its pool's final report and hand its
    /// evictions to a survivor. `revive_at` distinguishes a power dropout
    /// (the node reboots empty) from a kill. A dropout on a node that is
    /// already down changes nothing; a kill keeps a rebooting node down.
    fn kill_node(&mut self, node: usize, revive_at: Option<f64>) {
        let n = &mut self.nodes[node];
        if n.killed || (n.pool.is_none() && revive_at.is_some()) {
            return;
        }
        n.killed = revive_at.is_none();
        n.upgrading = false;
        let evicted = match n.pool.take() {
            Some(pool) => {
                let (evicted, report) = pool.fail_stop();
                n.reports.push(report);
                evicted
            }
            None => Vec::new(),
        };
        if let Some(at) = revive_at {
            self.push(at, EvKind::Revive(node));
        }
        // A node dying mid-upgrade abandons its drain/flash slot; the
        // rollout re-evaluates with the survivors.
        if let Some(u) = self.upgrade.as_mut() {
            u.queue.retain(|&q| q != node);
            match u.state {
                UState::Draining(n) | UState::Flashing(n) if n == node => {
                    u.state = UState::Waiting;
                }
                _ => {}
            }
        }
        if evicted.is_empty() {
            return;
        }
        self.adopt_evicted(node, evicted);
    }

    /// Pick the adopter for a dead node's evictions: a version-matching
    /// survivor when one exists (its checkpoints resume instead of being
    /// version-rejected), the one among them that would start the work
    /// first. The whole eviction set goes to one node so checkpoint groups
    /// stay contiguous.
    fn adopt_evicted(&mut self, from: usize, evicted: Vec<Evicted>) {
        let want: Option<u64> = evicted
            .iter()
            .find_map(|e| e.ckpt.as_ref().map(|c: &std::rc::Rc<PlanCheckpoint>| c.weight_version));
        let best = self
            .survivors(from)
            .filter_map(|(i, n)| {
                let matches = want.is_none_or(|v| n.version == v);
                Some((i, matches, n.pool.as_ref()?.projected_start_s()))
            })
            .min_by(|a, b| b.1.cmp(&a.1).then(a.2.total_cmp(&b.2)));
        // With no survivor the evictions stay lost: the report counts
        // evictions less handoffs.
        if let Some((adopter, _, _)) = best {
            self.handoffs += evicted.len();
            self.nodes[adopter].pool.as_mut().expect("routable").adopt(evicted);
        }
    }

    fn on_revive(&mut self, node: usize) {
        let n = &mut self.nodes[node];
        if n.killed {
            return;
        }
        let mut cfg = n.cfg.clone();
        cfg.accel.weight_version = n.version;
        let mut pool = ServePool::new(cfg).expect("the template validated at startup");
        pool.run_until(self.now_s);
        n.pool = Some(pool);
    }

    // ---- rolling upgrade ----

    fn on_flash_done(&mut self, node: usize) {
        let target = match self.upgrade.as_ref() {
            Some(u) if matches!(u.state, UState::Flashing(n) if n == node) => u.target(),
            _ => return,
        };
        let n = &mut self.nodes[node];
        let Some(pool) = n.pool.as_mut() else { return };
        pool.set_weight_version(target).expect("a drained node is idle");
        pool.end_drain();
        n.version = target;
        n.upgrading = false;
        let u = self.upgrade.as_mut().expect("flashing implies a rollout");
        u.downtime_s += self.now_s - u.drain_started_s;
        u.state = UState::Waiting;
    }

    /// The nodes other than `without` that could take work now: routable
    /// and reachable.
    fn survivors(&self, without: usize) -> impl Iterator<Item = (usize, &Node)> + '_ {
        let nodes = self.nodes.iter().enumerate();
        nodes.filter(move |&(i, n)| i != without && n.routable() && !self.partitioned(i))
    }

    /// Total service rate the candidate survivor set can sustain.
    fn survivor_capacity(&self, without: usize) -> f64 {
        self.survivors(without)
            .filter_map(|(_, n)| n.pool.as_ref())
            .map(|p| {
                p.breaker_summary().iter().filter(|(s, _)| *s != BreakerState::Open).count() as f64
                    / p.nominal_s()
            })
            .sum()
    }

    fn step_upgrade(&mut self) {
        let now = self.now_s;
        let Some(mut u) = self.upgrade.take() else { return };
        if u.settled() || now + 1e-15 < u.cfg.start_s {
            self.upgrade = Some(u);
            return;
        }
        self.step_upgrade_inner(&mut u, now);
        self.upgrade = Some(u);
    }

    fn step_upgrade_inner(&mut self, u: &mut UpgradeRun, now: f64) {
        match u.state {
            UState::Settled(_) => {}
            UState::Flashing(_) => {}
            UState::Draining(node) => {
                let idle = self.nodes[node].pool.as_ref().is_some_and(|p| p.is_idle());
                if idle {
                    u.state = UState::Flashing(node);
                    let at = now + FLASH_S;
                    self.push(at, EvKind::FlashDone(node));
                } else if let Some(t) =
                    self.nodes[node].pool.as_ref().and_then(|p| p.next_event_s())
                {
                    self.push(t, EvKind::Tick);
                } else {
                    let at = now + self.tick_s();
                    self.push(at, EvKind::Tick);
                }
            }
            UState::Waiting | UState::Paused { .. } => {
                // Skip nodes already at the target (or gone).
                let target = u.target();
                u.queue.retain(|&q| !self.nodes[q].killed && self.nodes[q].version != target);
                let Some(&next) = u.queue.first() else {
                    u.state = UState::Settled(if u.rolling_back {
                        UpgradeOutcome::RolledBack
                    } else {
                        UpgradeOutcome::Completed
                    });
                    return;
                };
                // The SLO gate: enough live, reachable spares, with enough
                // admitting capacity, to absorb the pulled node's share.
                let spares = self.survivors(next).count();
                let capacity = self.survivor_capacity(next);
                let ok = spares >= MIN_LIVE_SPARES && capacity >= self.cfg.rps;
                if ok {
                    u.queue.remove(0);
                    u.state = UState::Draining(next);
                    u.drain_started_s = now;
                    let n = &mut self.nodes[next];
                    n.upgrading = true;
                    if let Some(p) = n.pool.as_mut() {
                        p.begin_drain();
                    }
                    let at = now + self.tick_s();
                    self.push(at, EvKind::Tick);
                } else {
                    let since = match u.state {
                        UState::Paused { since } => since,
                        _ => now,
                    };
                    if now - since > PAUSE_TIMEOUT_S && !u.rolling_back {
                        // SLO unattainable for too long: return every
                        // flashed node to the old version, newest first.
                        u.rolling_back = true;
                        let to = u.cfg.to_version;
                        u.queue = (0..self.nodes.len())
                            .rev()
                            .filter(|&i| !self.nodes[i].killed && self.nodes[i].version == to)
                            .collect();
                        u.state = UState::Waiting;
                    } else if now - since > PAUSE_TIMEOUT_S {
                        // Rolling back but still gated: finish degraded —
                        // the rollback completes as capacity returns; if
                        // it never does, the run ends rolled back with
                        // whatever was restored.
                        u.state = UState::Settled(UpgradeOutcome::RolledBack);
                        return;
                    } else {
                        u.state = UState::Paused { since };
                    }
                    let at = now + self.tick_s();
                    self.push(at, EvKind::Tick);
                }
            }
        }
    }

    // ---- reporting ----

    fn into_report(self) -> ClusterReport {
        let upgrade_outcome = match self.upgrade.as_ref() {
            None => UpgradeOutcome::NotRequested,
            Some(u) => match u.state {
                UState::Settled(o) => o,
                // The trace ended mid-rollout (or permanently gated): the
                // fleet is mixed, which is a rollback by policy.
                _ => UpgradeOutcome::RolledBack,
            },
        };
        let upgrade_downtime_s = self.upgrade.as_ref().map_or(0.0, |u| u.downtime_s);
        let mut per_node = Vec::with_capacity(self.nodes.len());
        let mut records: Vec<(usize, RequestRecord)> = Vec::new();
        let mut counters = DispatchCounters::default();
        let mut wall = 0.0f64;
        for (i, node) in self.nodes.into_iter().enumerate() {
            // Every surviving pool drains to completion.
            let mut reports = node.reports;
            reports.extend(node.pool.map(ServePool::drain));
            let (mut submitted, mut completed, mut breaker_opens) = (0, 0, 0);
            let mut here = DispatchCounters::default();
            for r in reports {
                submitted += r.submitted;
                completed += r.completed;
                breaker_opens += r.per_device.iter().map(|d| d.card.breaker_opens).sum::<u32>();
                here.merge(&r.counters);
                wall = wall.max(r.wall_s);
                records.extend(r.records.into_iter().map(|rec| (i, rec)));
            }
            counters.merge(&here);
            per_node.push(NodeSummary {
                node: i,
                version: node.version,
                killed: node.killed,
                submitted,
                completed,
                evicted: here.evicted,
                version_rejects: here.version_rejects,
                breaker_opens,
            });
        }
        let [completed, shed, missed, failed, dropped] =
            outcome_counts(records.iter().map(|(_, r)| r));
        let (p50_latency_s, p99_latency_s) = latency_p50_p99(records.iter().map(|(_, r)| r));
        let submitted: usize = per_node.iter().map(|n| n.submitted).sum();
        // Hedged retries are submitted once, at the node that finally took
        // them, so they do not double-count. Adoptions do.
        let offered = submitted - self.handoffs + self.lost_unplaced;
        // Conservation: every submission ends in a terminal record or an
        // eviction; evictions end adopted (re-submitted) or lost.
        let lost = (counters.evicted - self.handoffs) + self.lost_unplaced;
        debug_assert_eq!(
            completed + shed + missed + failed + dropped + counters.evicted,
            submitted
        );
        ClusterReport {
            nodes: per_node.len(),
            offered,
            completed,
            shed,
            deadline_missed: missed,
            failed,
            dropped,
            lost,
            hedged: self.hedged,
            handoffs: self.handoffs,
            resumed_dispatches: counters.resumed_dispatches,
            checkpoint_rejects: counters.checkpoint_rejects,
            version_rejects: counters.version_rejects,
            elided_loads: counters.elided_loads,
            elided_load_bytes: counters.elided_load_bytes,
            scheduled_load_bytes: counters.scheduled_load_bytes,
            p50_latency_s,
            p99_latency_s,
            wall_s: wall,
            throughput_rps: if wall > 0.0 { completed as f64 / wall } else { 0.0 },
            upgrade: upgrade_outcome,
            upgrade_downtime_s,
            per_node,
            records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::RequestOutcome;

    fn cfg(nodes: usize, devices: usize, rps: f64) -> ClusterConfig {
        let mut c = ClusterConfig::new(nodes, devices, rps, 0.5);
        c.requests = 120;
        c
    }

    #[test]
    fn clean_cluster_serves_everything_deterministically() {
        let a = Cluster::run(cfg(3, 1, 60.0)).unwrap();
        let b = Cluster::run(cfg(3, 1, 60.0)).unwrap();
        assert_eq!(a.offered, 120);
        assert_eq!(a.completed, a.offered);
        assert_eq!(a.lost, 0);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.wall_s.to_bits(), b.wall_s.to_bits());
        assert_eq!(a.p99_latency_s.to_bits(), b.p99_latency_s.to_bits());
    }

    #[test]
    fn traces_are_monotone_and_hold_the_mean_rate() {
        for trace in [TrafficTrace::Steady, TrafficTrace::Diurnal, TrafficTrace::Bursty] {
            let a = trace.arrivals(100.0, 400, 7);
            assert_eq!(a.len(), 400);
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{:?} must be monotone", trace);
            let span = a.last().unwrap() - a[0];
            let rate = 399.0 / span;
            assert!(
                (rate - 100.0).abs() < 25.0,
                "{:?} mean rate {:.1} strays from 100",
                trace,
                rate
            );
        }
    }

    #[test]
    fn session_affinity_is_sticky_and_rehomes_only_on_death() {
        let mut c = cfg(3, 1, 30.0);
        c.sessions = 6;
        let clean = Cluster::run(c.clone()).unwrap();
        // Sticky: at low load every session is served by exactly one node.
        let homes = |r: &ClusterReport| {
            let mut map: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); 6];
            for (node, rec) in &r.records {
                if matches!(rec.outcome, RequestOutcome::Completed { .. }) {
                    // Request ids are per-pool; recover the session from
                    // arrival order instead: arrivals are strictly steady,
                    // so arrival index = round(arrival * rps).
                    let idx = (rec.arrival_s * 30.0).round() as usize;
                    map[idx % 6].insert(*node);
                }
            }
            map
        };
        let clean_homes = homes(&clean);
        for (s, nodes) in clean_homes.iter().enumerate() {
            assert_eq!(nodes.len(), 1, "session {} must stick to one node: {:?}", s, nodes);
        }
        // Kill one home mid-trace: its sessions re-home, the rest stay.
        let victim = *clean_homes[0].iter().next().unwrap();
        let mut faulted_cfg = c.clone();
        faulted_cfg.faults = vec![NodeFault::Kill { node: victim, at_s: 1.0 }];
        let faulted = Cluster::run(faulted_cfg).unwrap();
        assert_eq!(faulted.lost, 0, "a kill with survivors loses nothing");
        let moved = homes(&faulted);
        for (s, nodes) in moved.iter().enumerate() {
            if clean_homes[s].contains(&victim) {
                assert!(
                    nodes.iter().any(|n| *n != victim),
                    "session {} homed to the dead node must re-home",
                    s
                );
            } else {
                assert_eq!(
                    nodes, &clean_homes[s],
                    "session {} not homed to the dead node must not move",
                    s
                );
            }
        }
    }

    #[test]
    fn node_kill_loses_nothing_and_preserves_the_finished_prefix() {
        let base = cfg(3, 1, 60.0);
        let clean = Cluster::run(base.clone()).unwrap();
        let mut faulted_cfg = base;
        faulted_cfg.faults = vec![NodeFault::Kill { node: 1, at_s: 0.7 }];
        let faulted = Cluster::run(faulted_cfg).unwrap();
        assert_eq!(faulted.lost, 0);
        assert_eq!(
            faulted.completed + faulted.shed + faulted.deadline_missed + faulted.failed,
            faulted.offered
        );
        assert!(faulted.handoffs > 0 || faulted.per_node[1].evicted == 0);
        // Requests finished before the kill are bit-identical to the
        // fault-free run: history cannot be rewritten by a later fault.
        let finish = |r: &crate::serve::RequestRecord| match r.outcome {
            RequestOutcome::Completed { latency_s, .. } => Some(r.arrival_s + latency_s),
            _ => None,
        };
        let mut clean_prefix: Vec<(u64, u64)> = clean
            .records
            .iter()
            .filter_map(|(_, r)| finish(r).filter(|&t| t <= 0.7))
            .map(|t| (t.to_bits(), 0))
            .collect();
        let mut fault_prefix: Vec<(u64, u64)> = faulted
            .records
            .iter()
            .filter_map(|(_, r)| finish(r).filter(|&t| t <= 0.7))
            .map(|t| (t.to_bits(), 0))
            .collect();
        clean_prefix.sort_unstable();
        fault_prefix.sort_unstable();
        assert_eq!(clean_prefix, fault_prefix, "pre-kill completions must be bit-identical");
    }

    #[test]
    fn a_kill_on_queued_and_in_flight_work_hands_all_of_it_over() {
        // `asrsim cluster`'s bursty chaos run (golden cluster_bursty): node
        // 2 dies at 7.7 s with a request on its card and more queued.
        let mut c = ClusterConfig::new(3, 1, 150.0, 0.2);
        c.requests = 2000;
        c.sessions = 1024;
        c.trace = TrafficTrace::Bursty;
        c.upgrade = Some(UpgradeConfig::new(2, 4.0));
        c.faults = vec![NodeFault::Kill { node: 2, at_s: 7.7 }];
        let r = Cluster::run(c).unwrap();
        let evicted = r.per_node[2].evicted;
        // A one-card node holds one request in flight, so a second
        // eviction was queued.
        assert!(evicted >= 2, "the kill evicted {evicted}");
        assert_eq!(r.handoffs, evicted, "every eviction is adopted");
        assert!(r.resumed_dispatches >= 1, "the in-flight request resumes its checkpoint");
        assert_eq!(r.lost, 0);
    }

    #[test]
    fn power_dropout_evicts_then_reboots_and_the_node_serves_again() {
        let mut c = cfg(2, 1, 50.0);
        c.faults = vec![NodeFault::PowerDropout { node: 0, at_s: 0.5, outage_s: 0.3 }];
        let r = Cluster::run(c).unwrap();
        assert_eq!(r.lost, 0);
        assert!(!r.per_node[0].killed, "a dropout node reboots");
        // Submissions on node 0 = pre-dropout incarnation + rebooted one;
        // the reboot must actually take traffic again.
        assert!(r.per_node[0].submitted > 0);
        let last_on_0 = r
            .records
            .iter()
            .filter(|(n, rec)| *n == 0 && matches!(rec.outcome, RequestOutcome::Completed { .. }))
            .map(|(_, rec)| rec.arrival_s)
            .fold(0.0f64, f64::max);
        assert!(last_on_0 > 0.8, "the rebooted node must serve post-outage arrivals");
    }

    #[test]
    fn partition_hedges_past_the_dead_link_and_misses_stay_bounded() {
        let mut c = cfg(2, 1, 40.0);
        c.sessions = 4;
        c.faults = vec![NodeFault::Partition { node: 0, at_s: 0.5, for_s: 0.5 }];
        let r = Cluster::run(c).unwrap();
        assert!(r.hedged > 0, "a partitioned affinity target must hedge");
        assert_eq!(r.lost, 0);
        assert_eq!(r.completed + r.shed + r.deadline_missed + r.failed + r.dropped, r.offered);
        assert!(r.completed > r.offered * 8 / 10, "most requests survive the partition");
    }

    #[test]
    fn a_partitioned_node_is_held_out_of_routing_until_a_probe_lands() {
        // `asrsim cluster`'s partition run (golden cluster_partition): node
        // 1's link is down from 2 s to 5 s. A router that keeps routing to
        // the node until each dispatch times out hedges 180 times (the
        // affinity router before finish-time routing, 88). Holding the
        // node after a timeout and probing it once per hold leaves a probe
        // about every two link timeouts.
        let mut c = ClusterConfig::new(3, 1, 100.0, 0.2);
        c.requests = 1000;
        c.sessions = 64;
        c.faults = vec![NodeFault::Partition { node: 1, at_s: 2.0, for_s: 3.0 }];
        let r = Cluster::run(c).unwrap();
        assert!(r.hedged <= 88, "{} hedged dispatches", r.hedged);
        assert_eq!(r.lost, 0);
        assert!(r.p99_latency_s <= 0.06252, "p99 {:.3} ms", r.p99_latency_s * 1e3);
        let healed = r.records.iter().filter(|(node, rec)| {
            *node == 1
                && rec.arrival_s > 5.0
                && matches!(rec.outcome, RequestOutcome::Completed { .. })
        });
        assert!(healed.count() > 0, "node 1 must serve again once its link is back");
    }

    #[test]
    fn correlated_hbm_burst_is_scrubbed_by_integrity_capable_nodes() {
        let mut c = cfg(2, 2, 40.0);
        c.serve.accel.integrity = asr_systolic::abft::IntegrityLevel::DetectAndRecompute;
        c.faults = vec![NodeFault::HbmBurst { node: 0, at_s: 0.2, seed: 9 }];
        let r = Cluster::run(c).unwrap();
        assert_eq!(r.lost, 0);
        assert!(r.completed > 0);
    }

    #[test]
    fn rolling_upgrade_completes_one_node_at_a_time_with_no_mixed_batches() {
        let mut c = cfg(3, 1, 45.0);
        c.requests = 200;
        c.upgrade = Some(UpgradeConfig::new(2, 0.5));
        let r = Cluster::run(c).unwrap();
        assert_eq!(r.upgrade, UpgradeOutcome::Completed);
        assert_eq!(r.lost, 0);
        assert!(r.per_node.iter().all(|n| n.version == 2), "fleet must end on v2");
        assert!(r.upgrade_downtime_s > 0.0);
        // The no-mixed-batches audit: per (node, device), sort completions
        // by dispatch start; the served version must be monotone 1→2 with
        // a single switch point (members of one batch share a dispatch
        // start, so mixing would show as an interleave).
        let mut by_card: std::collections::BTreeMap<(usize, String), Vec<(u64, u64)>> =
            Default::default();
        for (node, rec) in &r.records {
            if let RequestOutcome::Completed { latency_s, service_s, device, version, .. } =
                &rec.outcome
            {
                let start = rec.arrival_s + latency_s - service_s;
                by_card
                    .entry((*node, device.to_string()))
                    .or_default()
                    .push((start.to_bits(), *version));
            }
        }
        let mut upgraded_cards = 0;
        for ((node, dev), mut v) in by_card {
            v.sort_unstable();
            let versions: Vec<u64> = v.iter().map(|(_, ver)| *ver).collect();
            let switches = versions.windows(2).filter(|w| w[0] != w[1]).count();
            assert!(
                switches <= 1,
                "node {} card {} interleaved versions: {:?}",
                node,
                dev,
                versions
            );
            assert!(versions.windows(2).all(|w| w[0] <= w[1]));
            if switches == 1 {
                upgraded_cards += 1;
            }
        }
        assert!(upgraded_cards > 0, "some card must serve on both sides of its flash");
    }

    #[test]
    fn upgrade_with_a_dead_survivor_set_rolls_back_cleanly() {
        // Two nodes, one spare required: killing the spare right after the
        // rollout starts leaves no survivor set, so the rollout pauses and
        // then rolls back.
        let mut c = cfg(2, 1, 40.0);
        c.requests = 200;
        c.upgrade = Some(UpgradeConfig::new(2, 0.5));
        c.faults = vec![NodeFault::Kill { node: 1, at_s: 0.45 }];
        let r = Cluster::run(c).unwrap();
        assert_eq!(r.upgrade, UpgradeOutcome::RolledBack);
        assert_eq!(r.lost, 0, "the kill still loses nothing");
        assert!(
            r.per_node.iter().filter(|n| !n.killed).all(|n| n.version == 0),
            "live nodes must end on the old version"
        );
    }

    #[test]
    fn cross_version_eviction_prefers_matching_adopter_or_rejects_typed() {
        // Kill a node mid-trace while an upgrade is far enough along that
        // versions are mixed: the evictions either land on a matching node
        // (resumed) or are version-rejected typed and replayed — never
        // silently reused, never lost.
        let mut c = cfg(3, 1, 45.0);
        c.requests = 240;
        c.upgrade = Some(UpgradeConfig::new(2, 0.3));
        c.faults = vec![NodeFault::Kill { node: 2, at_s: 1.2 }];
        let r = Cluster::run(c).unwrap();
        assert_eq!(r.lost, 0);
        assert_eq!(r.completed + r.shed + r.deadline_missed + r.failed + r.dropped, r.offered);
    }

    #[test]
    fn config_validation_is_typed() {
        assert!(matches!(
            Cluster::run(ClusterConfig::new(0, 1, 40.0, 0.5)).unwrap_err(),
            AccelError::Config(_)
        ));
        let mut c = cfg(1, 1, 40.0);
        c.upgrade = Some(UpgradeConfig::new(2, 0.5));
        assert!(matches!(Cluster::run(c).unwrap_err(), AccelError::Config(_)));
        let mut c = cfg(2, 1, 40.0);
        c.faults = vec![NodeFault::Kill { node: 7, at_s: 0.1 }];
        assert!(matches!(Cluster::run(c).unwrap_err(), AccelError::Config(_)));
        let mut c = cfg(2, 1, 40.0);
        c.upgrade = Some(UpgradeConfig::new(0, 0.5));
        assert!(matches!(Cluster::run(c).unwrap_err(), AccelError::Config(_)));
        // An upgrade that starts before time 0, or never.
        for start_s in [-1.0, f64::NAN, f64::INFINITY] {
            let mut c = cfg(2, 1, 40.0);
            c.upgrade = Some(UpgradeConfig::new(2, start_s));
            let err = Cluster::run(c).unwrap_err();
            assert!(matches!(err, AccelError::Config(_)), "start {start_s}: {err}");
        }
    }

    #[test]
    fn report_renders_the_headline_lines() {
        let r = Cluster::run(cfg(2, 1, 40.0)).unwrap();
        let text = r.render();
        assert!(text.contains("lost                 : 0"));
        assert!(text.contains("upgrade              : not requested"));
        assert!(text.contains("cluster nodes        : 2"));
    }

    #[test]
    fn cluster_scaling_is_never_superlinear() {
        // Offered well past what three one-card nodes serve, so every node
        // count runs at its capacity: N fault domains can finish at most N
        // times what one does, whatever the arrival shape.
        let throughput = |nodes: usize, trace: TrafficTrace| {
            let mut c = ClusterConfig::new(nodes, 1, 600.0, 0.2);
            c.requests = 3000;
            c.sessions = 64;
            c.seed = 5;
            c.trace = trace;
            Cluster::run(c).unwrap().throughput_rps
        };
        for trace in [TrafficTrace::Steady, TrafficTrace::Diurnal, TrafficTrace::Bursty] {
            let one = throughput(1, trace);
            assert!(one > 0.0, "{:?}: one node served nothing", trace);
            for nodes in [2usize, 3] {
                let n = throughput(nodes, trace);
                assert!(
                    n <= nodes as f64 * one,
                    "{:?}: {} nodes serve {:.2} rps, more than {} x the one-node {:.2} rps",
                    trace,
                    nodes,
                    n,
                    nodes,
                    one
                );
            }
        }
    }
}
