//! Property tests for cluster-scale serving (DESIGN.md §14): zero lost
//! finished utterances for a node kill at ANY virtual time — including
//! mid-rolling-upgrade — a pre-kill completion prefix bit-identical to the
//! fault-free run, no dispatched batch ever mixing weight versions, typed
//! (never silent) cross-version checkpoint refusal, rollouts that either
//! complete or roll back cleanly, and every request accounted for through
//! power dropouts and kills that land on rebooting nodes.
#![recursion_limit = "1024"]

use asr_accel::cluster::{
    Cluster, ClusterConfig, NodeFault, TrafficTrace, UpgradeConfig, UpgradeOutcome,
};
use asr_accel::serve::RequestOutcome;
use proptest::prelude::*;

/// Completions per (node, card): `(dispatch_start_bits, request_id, version)`.
type PerCard = std::collections::BTreeMap<(usize, String), Vec<(u64, u64, u64)>>;

/// Case count: `PROPTEST_CASES` when set (the CI deep-proptest job exports
/// 512), else the tier-1 default. The vendored proptest does not read the
/// environment itself, so the config expression does.
fn env_cases(default: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

fn base(nodes: usize, rps: f64, seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::new(nodes, 1, rps, 0.5);
    c.requests = 150;
    c.seed = seed;
    c
}

fn trace(pick: usize) -> TrafficTrace {
    match pick % 3 {
        0 => TrafficTrace::Steady,
        1 => TrafficTrace::Diurnal,
        _ => TrafficTrace::Bursty,
    }
}

/// The node-state timeline the cluster runs `faults` (kills and power
/// dropouts only) to: the faults fire in time order, ties in list order and
/// before any reboot due at the same instant; a dropout on a node that is
/// down does nothing, and a kill keeps a node down for good, a rebooting
/// one included. Returns which nodes end killed, and whether a node ever
/// went down while no other node was up — the one case in which the
/// cluster may lose work, since nothing can adopt what it evicts.
fn went_down_alone(nodes: usize, faults: &[NodeFault]) -> (Vec<bool>, bool) {
    let mut order: Vec<(f64, &NodeFault)> = faults
        .iter()
        .map(|f| match f {
            NodeFault::Kill { at_s, .. } | NodeFault::PowerDropout { at_s, .. } => (*at_s, f),
            other => panic!("only kills and dropouts are modelled, got {other:?}"),
        })
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut killed = vec![false; nodes];
    let mut reboot_at: Vec<Option<f64>> = vec![None; nodes];
    let mut alone = false;
    for (t, fault) in order {
        for r in &mut reboot_at {
            *r = r.filter(|&at| at >= t);
        }
        let up = |m: usize| !killed[m] && reboot_at[m].is_none();
        let (node, revive) = match *fault {
            NodeFault::Kill { node, .. } => (node, None),
            NodeFault::PowerDropout { node, at_s, outage_s } => (node, Some(at_s + outage_s)),
            _ => unreachable!(),
        };
        if killed[node] || (!up(node) && revive.is_some()) {
            continue;
        }
        alone |= up(node) && !(0..nodes).any(|m| m != node && up(m));
        killed[node] = revive.is_none();
        reboot_at[node] = revive;
    }
    (killed, alone)
}

/// Completion stamps of the run, `(finish_bits, arrival_bits)`, sorted —
/// the bit-exact shape of the served workload.
fn completions(r: &asr_accel::cluster::ClusterReport) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = r
        .records
        .iter()
        .filter_map(|(_, rec)| match rec.outcome {
            RequestOutcome::Completed { latency_s, .. } => {
                Some(((rec.arrival_s + latency_s).to_bits(), rec.arrival_s.to_bits()))
            }
            _ => None,
        })
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(env_cases(8))]

    // The headline invariant: kill ANY single node at ANY virtual time —
    // with survivors present — and no request vanishes: everything offered
    // ends in exactly one typed terminal record, and every completion that
    // settled before the kill is bit-identical to the fault-free run (a
    // later fault cannot rewrite served history).
    #[test]
    fn any_time_node_kill_loses_nothing_and_keeps_the_finished_prefix(
        seed in 0u64..512,
        victim in 0usize..3,
        kill_ms in 10u64..2500,
        trace_pick in 0usize..3,
    ) {
        let at_s = kill_ms as f64 / 1e3;
        let mut clean_cfg = base(3, 70.0, seed);
        clean_cfg.trace = trace(trace_pick);
        let mut kill_cfg = clean_cfg.clone();
        kill_cfg.faults = vec![NodeFault::Kill { node: victim, at_s }];
        let clean = Cluster::run(clean_cfg).unwrap();
        let killed = Cluster::run(kill_cfg).unwrap();
        prop_assert_eq!(killed.lost, 0, "a kill with survivors must lose nothing");
        prop_assert_eq!(
            killed.completed + killed.shed + killed.deadline_missed + killed.failed
                + killed.dropped,
            killed.offered,
            "every offered request needs exactly one terminal record"
        );
        let cut = at_s.to_bits();
        let pre = |v: &[(u64, u64)]| {
            v.iter().copied().filter(|(f, _)| *f <= cut).collect::<Vec<_>>()
        };
        prop_assert_eq!(
            pre(&completions(&clean)),
            pre(&completions(&killed)),
            "completions settled before the kill must be bit-identical to the clean run"
        );
    }

    // Same invariant under maximum churn: a kill and 1–2 power dropouts
    // land while a rolling upgrade is in flight (each dropout within 100 ms
    // of the rollout's start, so it can cut a drain or a flash, or take a
    // node still queued). The upgrade must still settle one way or the
    // other (completed or rolled back); a completed one leaves every live
    // node on the target version, a rebooted one included; and nothing is
    // lost unless a node went down while no other node was up.
    #[test]
    fn node_kill_and_dropouts_mid_rolling_upgrade_lose_nothing_and_settle(
        seed in 0u64..512,
        victim in 0usize..3,
        kill_ms in 100u64..2200,
        upgrade_at_ms in 50u64..1500,
        dropouts in prop::collection::vec((0usize..3, 0u64..200, 50u64..1500), 1..=2),
    ) {
        let mut cfg = base(3, 70.0, seed);
        cfg.requests = 200;
        cfg.upgrade = Some(UpgradeConfig::new(2, upgrade_at_ms as f64 / 1e3));
        cfg.faults = vec![NodeFault::Kill { node: victim, at_s: kill_ms as f64 / 1e3 }];
        cfg.faults.extend(dropouts.iter().map(|&(node, lead_ms, outage_ms)| {
            NodeFault::PowerDropout {
                node,
                at_s: (upgrade_at_ms + lead_ms - 100) as f64 / 1e3,
                outage_s: outage_ms as f64 / 1e3,
            }
        }));
        let (_, alone) = went_down_alone(3, &cfg.faults);
        let what = format!("{:?}", cfg.faults);
        let r = Cluster::run(cfg).unwrap();
        if !alone {
            prop_assert_eq!(r.lost, 0, "a node went down while another was up: {}", what);
        }
        prop_assert!(
            matches!(r.upgrade, UpgradeOutcome::Completed | UpgradeOutcome::RolledBack),
            "the rollout must settle, got {:?}: {}", r.upgrade, what
        );
        if r.upgrade == UpgradeOutcome::Completed {
            prop_assert!(
                r.per_node.iter().filter(|n| !n.killed).all(|n| n.version == 2),
                "a completed rollout leaves every live node on the target version: {:?}, {}",
                r.per_node.iter().map(|n| (n.version, n.killed)).collect::<Vec<_>>(),
                what
            );
        }
        prop_assert_eq!(
            r.completed + r.shed + r.deadline_missed + r.failed + r.dropped + r.lost,
            r.offered,
            "{}", what
        );
    }

    // Identical configuration, identical report — the cluster inherits the
    // pools' determinism even through routing, faults, and upgrades.
    #[test]
    fn same_seed_reproduces_the_identical_cluster_run(
        seed in 0u64..512,
        nodes in 2usize..5,
        trace_pick in 0usize..3,
        kill_pick in 0usize..2,
    ) {
        let mut cfg = base(nodes, 60.0, seed);
        cfg.trace = trace(trace_pick);
        if kill_pick == 1 {
            cfg.faults = vec![NodeFault::Kill { node: seed as usize % nodes, at_s: 0.9 }];
        }
        let a = Cluster::run(cfg.clone()).unwrap();
        let b = Cluster::run(cfg).unwrap();
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.lost, b.lost);
        prop_assert_eq!(a.hedged, b.hedged);
        prop_assert_eq!(a.handoffs, b.handoffs);
        prop_assert_eq!(a.wall_s.to_bits(), b.wall_s.to_bits());
        prop_assert_eq!(completions(&a), completions(&b));
    }

    // The no-mixed-versions pin: per (node, card), order completions by
    // dispatch start. Members of one batch share a start, so a batch that
    // mixed weight versions would show as an interleave at one timestamp;
    // monotone non-decreasing versions with at most one switch per card
    // proves every dispatch ran homogeneous.
    #[test]
    fn no_dispatched_batch_ever_mixes_weight_versions(
        seed in 0u64..512,
        upgrade_at_ms in 50u64..1200,
        kill_pick in 0usize..2,
        kill_ms in 200u64..2000,
    ) {
        let mut cfg = base(3, 80.0, seed);
        cfg.requests = 200;
        cfg.serve.batch.max_batch = 4;
        cfg.upgrade = Some(UpgradeConfig::new(2, upgrade_at_ms as f64 / 1e3));
        if kill_pick == 1 {
            cfg.faults = vec![NodeFault::Kill { node: 0, at_s: kill_ms as f64 / 1e3 }];
        }
        let r = Cluster::run(cfg).unwrap();
        prop_assert_eq!(r.lost, 0);
        let mut by_card: PerCard = Default::default();
        for (node, rec) in &r.records {
            if let RequestOutcome::Completed { latency_s, service_s, device, version, .. } =
                &rec.outcome
            {
                let start = (rec.arrival_s + latency_s - service_s).to_bits();
                by_card
                    .entry((*node, device.to_string()))
                    .or_default()
                    .push((start, rec.id as u64, *version));
            }
        }
        for ((node, dev), mut v) in by_card {
            v.sort_unstable();
            // Same dispatch start => same batch => the version must match.
            for w in v.windows(2) {
                if w[0].0 == w[1].0 {
                    prop_assert_eq!(
                        w[0].2, w[1].2,
                        "node {} card {} dispatched a mixed-version batch", node, dev
                    );
                }
            }
            let versions: Vec<u64> = v.iter().map(|(_, _, ver)| *ver).collect();
            prop_assert!(
                versions.windows(2).all(|w| w[0] <= w[1]),
                "node {} card {} served versions non-monotonically: {:?} (flash is idle-only)",
                node, dev, versions
            );
        }
    }

    // Cross-version failover is a typed downgrade, never silent reuse: a
    // checkpoint cut at one weight version and adopted by a node flashed to
    // another must surface as `version_rejects` (suffix replayed clean) —
    // and still lose nothing.
    #[test]
    fn cross_version_checkpoints_are_refused_typed_and_nothing_is_lost(
        seed in 0u64..512,
        kill_ms in 400u64..1600,
    ) {
        let mut cfg = base(3, 80.0, seed);
        cfg.requests = 200;
        cfg.serve.batch.max_batch = 4;
        // Fast rollout so versions are mixed when the kill lands.
        cfg.upgrade = Some(UpgradeConfig::new(2, 0.05));
        cfg.faults = vec![NodeFault::Kill { node: seed as usize % 3, at_s: kill_ms as f64 / 1e3 }];
        let r = Cluster::run(cfg).unwrap();
        prop_assert_eq!(r.lost, 0);
        prop_assert!(
            r.version_rejects <= r.checkpoint_rejects,
            "version refusals are a subset of typed checkpoint rejections"
        );
        prop_assert_eq!(
            r.completed + r.shed + r.deadline_missed + r.failed + r.dropped,
            r.offered
        );
    }

    // Power dropouts and a kill, each on any node at any time, so the kill
    // can land on a rebooting node (one case in three aims it at the first
    // dropout's outage). Every offered request ends in exactly one terminal
    // record or is lost, each node's submissions are its records plus its
    // evictions, a killed node stays down, and nothing is lost unless a
    // node went down while no other node was up.
    #[test]
    fn dropouts_and_a_kill_conserve_every_request(
        seed in 0u64..512,
        nodes in 2usize..5,
        dropouts in prop::collection::vec((0usize..4, 10u64..2500, 50u64..1500), 1..=2),
        (kill_node, kill_ms, aim) in (0usize..4, 10u64..2500, 0usize..3),
    ) {
        let mut cfg = base(nodes, 70.0, seed);
        cfg.faults = dropouts
            .iter()
            .map(|&(node, at_ms, outage_ms)| NodeFault::PowerDropout {
                node: node % nodes,
                at_s: at_ms as f64 / 1e3,
                outage_s: outage_ms as f64 / 1e3,
            })
            .collect();
        let (first, at_ms, outage_ms) = dropouts[0];
        cfg.faults.push(match aim {
            0 => NodeFault::Kill {
                node: first % nodes,
                at_s: (at_ms + outage_ms / 2) as f64 / 1e3,
            },
            _ => NodeFault::Kill { node: kill_node % nodes, at_s: kill_ms as f64 / 1e3 },
        });
        let (killed, alone) = went_down_alone(nodes, &cfg.faults);
        let requests = cfg.requests;
        let r = Cluster::run(cfg.clone()).unwrap();
        let what = format!("{:?}", cfg.faults);
        prop_assert_eq!(r.offered, requests, "{}", what);
        prop_assert_eq!(
            r.completed + r.shed + r.deadline_missed + r.failed + r.dropped + r.lost,
            r.offered,
            "{}", what
        );
        for n in &r.per_node {
            let records = r.records.iter().filter(|(node, _)| *node == n.node).count();
            prop_assert_eq!(n.submitted, records + n.evicted, "node {}: {}", n.node, what);
            prop_assert_eq!(n.killed, killed[n.node], "node {}: {}", n.node, what);
        }
        if !alone {
            prop_assert_eq!(r.lost, 0, "a node went down while another was up: {}", what);
        }
    }

    // Finish-time routing never leaves a node idle while a request queues:
    // with no faults and no upgrade, a request that waited found every
    // other node busy at its arrival. Each one-card node's busy intervals
    // are rebuilt from its completed records, one dispatch at a time.
    #[test]
    fn a_cluster_never_queues_a_request_while_another_node_is_idle(
        seed in 0u64..512,
        nodes in 2usize..5,
        trace_pick in 0usize..3,
        rps_per_node in 30u64..61,
    ) {
        let mut cfg = base(nodes, (rps_per_node * nodes as u64) as f64, seed);
        cfg.trace = trace(trace_pick);
        let r = Cluster::run(cfg).unwrap();
        let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); nodes];
        let mut waited: Vec<(usize, f64, f64)> = Vec::new();
        for (node, rec) in &r.records {
            if let RequestOutcome::Completed { latency_s, service_s, .. } = rec.outcome {
                let end = rec.arrival_s + latency_s;
                busy[*node].push((end - service_s, end));
                let wait = latency_s - service_s;
                if wait > 1e-9 {
                    waited.push((*node, rec.arrival_s, wait));
                }
            }
        }
        for (node, at, wait) in waited {
            for (other, spans) in busy.iter().enumerate().filter(|(o, _)| *o != node) {
                prop_assert!(
                    spans.iter().any(|&(s, e)| s < at + 1e-9 && e > at + 1e-9),
                    "a request waited {:.3} ms on node {} from {:.6} s while node {} was idle",
                    wait * 1e3, node, at, other
                );
            }
        }
    }

    // A rollout gated by a dying survivor set must end settled — completed
    // when capacity returns, rolled back otherwise — and a rolled-back
    // fleet's live nodes all run the original version.
    #[test]
    fn rollouts_complete_or_roll_back_cleanly(
        seed in 0u64..512,
        spare_pick in 0usize..2,
    ) {
        let mut cfg = base(2, 50.0, seed);
        cfg.requests = 200;
        cfg.upgrade = Some(UpgradeConfig::new(3, 0.5));
        if spare_pick == 1 {
            cfg.faults = vec![NodeFault::Kill { node: 1, at_s: 0.45 }];
        }
        let r = Cluster::run(cfg).unwrap();
        prop_assert_eq!(r.lost, 0);
        match r.upgrade {
            UpgradeOutcome::Completed => prop_assert!(
                r.per_node.iter().filter(|n| !n.killed).all(|n| n.version == 3)
            ),
            UpgradeOutcome::RolledBack => prop_assert!(
                r.per_node.iter().filter(|n| !n.killed).all(|n| n.version == 0),
                "a rolled-back fleet must be uniformly on the original version"
            ),
            UpgradeOutcome::NotRequested => prop_assert!(false, "an upgrade was requested"),
        }
    }
}
