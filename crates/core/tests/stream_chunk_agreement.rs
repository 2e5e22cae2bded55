//! The chunk consumers agree on one plan (DESIGN.md §13, ROADMAP aim 3).
//!
//! A streaming chunk is lowered once, by `ExecPlan::lower_stream_chunk`,
//! as its encoder phases. These tests hold every consumer to that one
//! phase table: the walker behind `stream_analytics`, the stream pool, the
//! runtime's recovery executor, and the functional twin. They
//! also check that the walker and the runtime finish each phase at the same
//! time, and that a chunk's checkpoint is never resumed as a full eager
//! schedule.

use asr_accel::host_runtime::{run_plan, run_plan_with_recovery, RecoveryPolicy};
use asr_accel::integrity::{
    chunk_plan, push_functional_chunk, run_functional_stream, small_config, FunctionalFaults,
};
use asr_accel::plan::{walk_cost, DecodeStepSpec, ExecPlan, PhaseKind};
use asr_accel::stream::{stream_analytics, StreamConfig, StreamPool};
use asr_accel::{AccelError, Architecture};
use asr_fpga_sim::faults::{FaultKind, FaultPlan};
use asr_systolic::abft::CheckedPsa;
use asr_tensor::init;
use asr_transformer::streaming::{StreamState, StreamingConfig};
use asr_transformer::weights::ModelWeights;

/// The streaming deployment (`StreamConfig::new`) on `arch`, on a clean
/// pool with a cadence and deadline every architecture meets.
fn deployment(arch: Architecture) -> StreamConfig {
    let mut cfg = StreamConfig::new(4, 0, 4, 0.200);
    cfg.arch = arch;
    cfg.chunks_per_stream = 4;
    cfg.chunk_interval_s = 0.100;
    cfg
}

/// A plan's phase table: label, bytes and kind per phase.
fn table(plan: &ExecPlan) -> Vec<(String, u64, PhaseKind)> {
    plan.phases.iter().map(|p| (p.label.clone(), p.bytes, p.kind)).collect()
}

/// The cold and warm chunk plans of a deployment.
fn chunk_plans(cfg: &StreamConfig) -> (ExecPlan, ExecPlan) {
    let cold = ExecPlan::lower_stream_chunk(&cfg.accel, cfg.arch, cfg.window(), &[]).unwrap();
    let pinned = cold.pinned_stripes(cfg.pin_slots);
    let warm = ExecPlan::lower_stream_chunk(&cfg.accel, cfg.arch, cfg.window(), &pinned).unwrap();
    (cold, warm)
}

/// A runtime span's command label, without the ` @SLR{n}` placement the
/// runtime appends to kernels.
fn command(label: &str) -> &str {
    label.split(" @").next().unwrap_or(label)
}

/// Labels of a runtime timeline's spans that start with `prefix`, prefix
/// stripped, in dispatch order.
fn span_labels(run: &asr_accel::BatchedRun, prefix: &str) -> Vec<String> {
    run.runtime
        .timeline()
        .spans()
        .iter()
        .filter_map(|s| command(&s.label).strip_prefix(prefix).map(str::to_string))
        .collect()
}

#[test]
fn every_chunk_consumer_lowers_the_same_encoder_phase_table() {
    for arch in Architecture::ALL {
        let cfg = deployment(arch);
        let (cold, warm) = chunk_plans(&cfg);
        let one = table(&cold);
        assert_eq!(one.len(), 12, "{:?}: a chunk is the 12 encoder layers", arch);
        assert!(one.iter().all(|(_, _, kind)| *kind == PhaseKind::Encoder), "{:?}", arch);
        assert_eq!(table(&warm), one, "{:?}: elision keeps the phase table", arch);
        let labels: Vec<String> = one.iter().map(|(l, _, _)| l.clone()).collect();
        let reuse = warm.reuse.expect("the warm chunk lowers against the pinned stripes");

        // Walker: the analytics price exactly these two plans.
        let a = stream_analytics(&cfg).unwrap();
        assert_eq!(a.cold_chunk_s, walk_cost(&cfg.accel, &cold).latency_s, "{:?}", arch);
        assert_eq!(a.warm_chunk_s, walk_cost(&cfg.accel, &warm).latency_s, "{:?}", arch);
        let elided = reuse.elided_load_bytes as f64 / cold.scheduled_load_bytes() as f64;
        assert_eq!(a.elided_fraction, elided, "{:?}", arch);

        // Runtime: the recovery executor runs one kernel per phase of the
        // table and loads exactly the stripes the plan does not elide. Both
        // plans pin the same stripes and schedule the same bytes.
        let pinned = cold.pinned_stripes(cfg.pin_slots);
        for plan in [&cold, &warm] {
            let run =
                run_plan_with_recovery(&cfg.accel, plan, FaultPlan::none(), &cfg.policy).unwrap();
            assert_eq!(span_labels(&run, "C"), labels, "{:?}", arch);
            let fetched: Vec<String> = (0..plan.phases.len())
                .filter(|&i| plan.load_of(i).is_some())
                .map(|i| plan.phases[i].label.clone())
                .collect();
            assert_eq!(span_labels(&run, "LW"), fetched, "{:?}", arch);
            assert_eq!(plan.pinned_stripes(cfg.pin_slots), pinned, "{:?}", arch);
            assert_eq!(plan.scheduled_load_bytes(), cold.scheduled_load_bytes(), "{:?}", arch);
        }

        // Pool: every dispatch schedules the table's bytes, every warm one
        // elides the warm plan's bytes, and the stale-shed bound is the
        // warm plan's makespan.
        let report = StreamPool::run(cfg.clone()).unwrap();
        assert_eq!(report.chunks_served, report.chunks_total, "{:?}", arch);
        let dispatches: usize = report.per_device.iter().map(|d| d.served).sum();
        let cold_dispatches = report.per_device.iter().filter(|d| d.served > 0).count();
        assert_eq!(
            report.scheduled_load_bytes,
            dispatches as u64 * cold.scheduled_load_bytes(),
            "{:?}",
            arch
        );
        assert_eq!(
            report.elided_load_bytes,
            (dispatches - cold_dispatches) as u64 * reuse.elided_load_bytes,
            "{:?}",
            arch
        );
        let nominal = run_plan(&cfg.accel, &warm).makespan_s;
        assert!((report.nominal_chunk_s - nominal).abs() <= 1e-12, "{:?}", arch);

        // Twin: the session's chunk plan is the same table.
        let state = StreamState::open(&StreamingConfig {
            chunk: cfg.chunk_steps,
            left_context: cfg.left_context,
        })
        .unwrap();
        assert_eq!(table(&chunk_plan(&state, &cfg.accel, arch).unwrap()), one, "{:?}", arch);
    }
}

#[test]
fn walker_and_runtime_finish_every_chunk_phase_together() {
    for arch in Architecture::ALL {
        let cfg = deployment(arch);
        let (cold, warm) = chunk_plans(&cfg);
        for plan in [&cold, &warm] {
            let cost = walk_cost(&cfg.accel, plan);
            let run = run_plan(&cfg.accel, plan);
            for (i, p) in plan.phases.iter().enumerate() {
                let kernel = format!("C{}", p.label);
                let span =
                    run.runtime.timeline().spans().iter().find(|s| command(&s.label) == kernel);
                let end = span.unwrap_or_else(|| panic!("{:?}: no {} kernel", arch, kernel)).end;
                let walked = cost.phase_compute_end_s[i];
                assert!(
                    (end - walked).abs() <= 0.01 * walked,
                    "{:?} {}: runtime ends at {} s, walker at {} s",
                    arch,
                    p.label,
                    end,
                    walked
                );
            }
            assert!((run.makespan_s - cost.latency_s).abs() <= 0.01 * cost.latency_s);
        }
        // With prefetch (A2, A3) both consumers price a chunk at 13.29 ms
        // cold and 12.69 ms warm, and the warm chunk hides every load it
        // still makes under compute.
        if arch != Architecture::A1 {
            for (plan, ms) in [(&cold, 13.2899), (&warm, 12.6931)] {
                let walked = walk_cost(&cfg.accel, plan).latency_s;
                let ran = run_plan(&cfg.accel, plan).makespan_s;
                assert!((walked * 1e3 - ms).abs() < 1e-3, "{:?}: {} ms, not {}", arch, walked, ms);
                assert!((ran - walked).abs() < 1e-12, "{:?}: runtime {} s", arch, ran);
            }
            let stall = walk_cost(&cfg.accel, &warm).compute_stall_s;
            assert_eq!(stall, 0.0, "{:?}: a warm chunk never stalls", arch);
        }
        // The chunk's timeline holds encoder spans only.
        for s in walk_cost(&cfg.accel, &warm).timeline.spans() {
            assert!(s.label.starts_with("LWE") || s.label.starts_with("CE"), "{}", s.label);
        }
    }
}

#[test]
fn the_twin_runs_exactly_the_chunk_plans_phases() {
    let cfg = small_config();
    let (chunk, left_context) = (2usize, 2usize);
    let window = chunk + left_context;
    let w = ModelWeights::seeded(&cfg.model, 7);
    let engine = CheckedPsa::with_fault(cfg.psa_engine(), cfg.integrity, None);
    let features = init::uniform(4, cfg.model.d_model, -0.5, 0.5, 11);
    let first = features.submatrix(0, 0, chunk, features.cols());
    let state = StreamState::open(&StreamingConfig { chunk, left_context }).unwrap();

    // The twin's own run emits the rows every architecture's chunk plan,
    // cold or warm, emits: the phases are the same, only the edges differ.
    let twin =
        run_functional_stream(&cfg, 7, &features, chunk, left_context, &FunctionalFaults::none())
            .unwrap();
    let rows = twin.encoder_out.submatrix(0, 0, chunk, twin.encoder_out.cols());
    for arch in Architecture::ALL {
        let cold = chunk_plan(&state, &cfg, arch).unwrap();
        assert_eq!(cold.phases.len(), cfg.model.n_encoders);
        let pinned = cold.pinned_stripes(1);
        let warm = ExecPlan::lower_stream_chunk(&cfg, arch, window, &pinned).unwrap();
        for plan in [&cold, &warm] {
            let (out, next) =
                push_functional_chunk(&cfg, plan, &w, &engine, &state, &first).unwrap();
            assert_eq!(out, rows, "{:?}", arch);
            assert_eq!(next.emitted_rows, chunk);
        }
    }

    // A plan that holds a decoder pass or a decode step is refused typed
    // before any compute.
    let eager = ExecPlan::lower(&cfg, Architecture::A2, window, 1, cfg.integrity).unwrap();
    let step = ExecPlan::lower_decode_step(
        &cfg,
        Architecture::A2,
        DecodeStepSpec::greedy(0, window, 8),
        &[],
        cfg.integrity,
    )
    .unwrap();
    for plan in [&eager, &step] {
        match push_functional_chunk(&cfg, plan, &w, &engine, &state, &first) {
            Err(AccelError::Config(reason)) => assert!(reason.contains("encoder phases only")),
            other => panic!("expected a typed Config refusal, got {:?}", other.map(|r| r.0)),
        }
    }
}

#[test]
fn a_chunk_checkpoint_never_resumes_into_a_full_schedule() {
    // A mid-chunk device death hands back a barrier checkpoint of the
    // chunk's encoder phases. Offered to the eager resume path, it is
    // refused typed: the phase tables differ.
    let mut cfg = asr_accel::AccelConfig::paper_default();
    cfg.max_seq_len = 8;
    let policy = RecoveryPolicy { allow_degradation: false, ..RecoveryPolicy::default() };
    let dead_engine = FaultPlan::none()
        .with(FaultKind::EngineDropout { queue: "maxi-0".into(), from_command: 6 });
    let chunk = ExecPlan::lower_stream_chunk(&cfg, Architecture::A2, 8, &[]).unwrap();
    let fail = run_plan_with_recovery(&cfg, &chunk, dead_engine, &policy)
        .expect_err("the dropped engine kills the chunk");
    let ckpt = fail.checkpoint.expect("a failed chunk carries its barrier checkpoint");
    assert_eq!(ckpt.phase_labels.len(), cfg.model.n_encoders);
    for trust_resident in [false, true] {
        match ExecPlan::resume(&cfg, &ckpt, trust_resident) {
            Err(AccelError::CheckpointRejected { reason }) => {
                assert!(reason.contains("phase table"), "{}", reason)
            }
            other => panic!("expected CheckpointRejected, got {:?}", other.map(|p| p.phases.len())),
        }
    }

    // The pool replays the whole chunk instead: one failover, one replay.
    let mut pool = StreamConfig::new(4, 1, 4, 0.060);
    pool.chunks_per_stream = 8;
    let report = StreamPool::run(pool).unwrap();
    assert_eq!(report.failovers, 1);
    assert_eq!(report.chunks_replayed, report.failovers);
    assert_eq!(report.streams_dropped, 0);
}
