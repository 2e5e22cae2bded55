//! Dynamic-batching pins: batch-vs-solo bit-identity on the functional,
//! runtime, and serving paths, plus the cycle-accounting regressions that
//! prove a batch of B utterances issues each layer's HBM weight load exactly
//! once (never B times).
//!
//! Case counts honour `PROPTEST_CASES` (the CI deep-proptest job exports
//! 512); tier-1 runs use the per-block defaults.
#![recursion_limit = "1024"]

use std::collections::HashMap;

use asr_accel::arch::{layer_bytes, simulate};
use asr_accel::host_runtime::{run_plan, BatchedRun};
use asr_accel::integrity::{run_functional_plan, small_config, FunctionalFaults};
use asr_accel::plan::{
    phase_compute_s, phase_list, walk_cost, DecodeStepSpec, ExecPlan, PlanBuilder, PlanCheckpoint,
};
use asr_accel::{calib, schedule, serve};
use asr_accel::{AccelConfig, Architecture, CorruptionCounters};
use asr_fpga_sim::device::SlrId;
use asr_fpga_sim::runtime::{Event, Runtime};
use asr_fpga_sim::{Cycles, FaultKind, FaultPlan, Timeline};
use asr_systolic::abft::{IntegrityLevel, LaneFault};
use asr_tensor::WeightEncoding;
use asr_transformer::weights::ModelWeights;
use proptest::prelude::*;

/// Per-block case count: `PROPTEST_CASES` when set, else the tier-1 default.
/// The vendored proptest does not read the environment itself, so the config
/// expression does.
fn env_cases(default: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

fn unpadded(len: usize) -> AccelConfig {
    let mut c = AccelConfig::paper_default();
    c.max_seq_len = len;
    c
}

/// `batch` utterances of length `s`, lowered at the config's integrity.
fn lower(cfg: &AccelConfig, arch: Architecture, s: usize, batch: usize) -> ExecPlan {
    ExecPlan::lower(cfg, arch, s, batch, cfg.integrity).unwrap()
}

fn any_arch() -> impl Strategy<Value = Architecture> {
    prop::sample::select(vec![Architecture::A1, Architecture::A2, Architecture::A3])
}

// ---------------------------------------------------------------------------
// Functional path: a batched run is bit-identical to the solo runs, and the
// CRC envelope pays for ONE weight load per batch.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(env_cases(8))]

    // For random batch sizes, model/input seeds, stripe-fault seeds and
    // integrity levels: every utterance of a batched functional run is
    // bit-for-bit (encoder, decoder, transcript) what a batch-of-one plan
    // computes for it, and the batch's corruption counters equal ONE solo
    // run's — the model is loaded once per batch, so injections do not
    // scale with B.
    #[test]
    fn batched_functional_run_is_bit_identical_to_solo_runs(
        model_seed in 1u64..1000,
        input_base in 0u64..1000,
        batch in 1usize..=8,
        fault_seed in 0u64..500,
        level_idx in 0usize..3,
    ) {
        let mut cfg = small_config();
        cfg.integrity = [
            IntegrityLevel::Off,
            IntegrityLevel::Detect,
            IntegrityLevel::DetectAndRecompute,
        ][level_idx];
        let n_stripes = ModelWeights::seeded(&cfg.model, model_seed).matrices().len();
        let mut faults = FunctionalFaults::seeded(fault_seed, n_stripes, cfg.psa.cols);
        // Lane faults interact with the level (typed error at Detect) and
        // are pinned by the dedicated test below; keep this one stripe-only.
        faults.lane = None;
        let seeds: Vec<u64> = (0..batch as u64).map(|u| input_base + u).collect();
        let solo_plan = lower(&cfg, Architecture::A2, 4, 1);

        match run_functional_plan(&cfg, &lower(&cfg, Architecture::A2, 4, batch), model_seed, &seeds, &faults) {
            Ok(b) => {
                prop_assert_eq!(b.utterances.len(), batch);
                for (u, &seed) in seeds.iter().enumerate() {
                    let solo = run_functional_plan(&cfg, &solo_plan, model_seed, &[seed], &faults)
                        .expect("solo run must succeed when the batched run does");
                    let one = &solo.utterances[0];
                    prop_assert_eq!(
                        &b.utterances[u].encoder_out, &one.encoder_out,
                        "utterance {} encoder diverged", u
                    );
                    prop_assert_eq!(
                        &b.utterances[u].decoder_out, &one.decoder_out,
                        "utterance {} decoder diverged", u
                    );
                    prop_assert_eq!(
                        &b.utterances[u].transcript, &one.transcript,
                        "utterance {} transcript diverged", u
                    );
                    // One load's worth of accounting, not B×.
                    prop_assert_eq!(b.counters, solo.counters);
                }
            }
            Err(e) => {
                // The fault is fatal at this level (refetch budget burned,
                // or an escaped corruption tripping an activation guard):
                // the solo path must fail for at least one of the same
                // utterances.
                let any_solo_err = seeds.iter().any(|&seed| {
                    run_functional_plan(&cfg, &solo_plan, model_seed, &[seed], &faults).is_err()
                });
                prop_assert!(any_solo_err, "batch failed ({}) but every solo run passed", e);
            }
        }
    }

    // ABFT half: a sticky PSA lane under DetectAndRecompute is repaired for
    // every utterance of the batch — outputs match the FAULT-FREE solo runs
    // token for token, with zero escapes.
    #[test]
    fn lane_fault_recompute_keeps_batched_transcripts_clean(
        model_seed in 1u64..500,
        input_base in 0u64..500,
        batch in 2usize..=4,
        lane in 0usize..16,
        delta in prop::sample::select(vec![1.5f32, -2.0, 3.0]),
    ) {
        let mut cfg = small_config();
        cfg.integrity = IntegrityLevel::DetectAndRecompute;
        let faults = FunctionalFaults { stripes: vec![], lane: Some(LaneFault { lane, delta }) };
        let seeds: Vec<u64> = (0..batch as u64).map(|u| input_base + 7 * u).collect();

        let plan = lower(&cfg, Architecture::A2, 4, batch);
        let run = run_functional_plan(&cfg, &plan, model_seed, &seeds, &faults).unwrap();
        prop_assert_eq!(run.counters.escaped, 0);
        prop_assert!(run.abft.recomputed > 0, "the sticky lane must trip the ABFT check");
        let clean_cfg = {
            let mut c = small_config();
            c.integrity = IntegrityLevel::Off;
            c
        };
        let clean_plan = lower(&clean_cfg, Architecture::A2, 4, 1);
        for (u, &seed) in seeds.iter().enumerate() {
            let clean = run_functional_plan(
                &clean_cfg, &clean_plan, model_seed, &[seed], &FunctionalFaults::none(),
            )
            .unwrap();
            let clean = &clean.utterances[0];
            prop_assert_eq!(
                &run.utterances[u].decoder_out, &clean.decoder_out,
                "utterance {} not repaired to the clean bits", u
            );
            prop_assert_eq!(&run.utterances[u].transcript, &clean.transcript);
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime path: the batched schedule through the fault-capable runtime.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(env_cases(32))]

    // `--batch 1` IS the solo path: a batch-of-one plan runs under the
    // solo labels (no `[u0]` kernel slices, no batch tag), and its one
    // utterance finishes exactly at the makespan, on every architecture.
    #[test]
    fn batch_of_one_is_bitwise_the_solo_schedule(
        arch in any_arch(),
        s in prop::sample::select(vec![2usize, 4, 8, 16]),
    ) {
        let cfg = unpadded(s);
        let b1 = run_plan(&cfg, &lower(&cfg, arch, s, 1));
        let spans = b1.runtime.timeline().spans();
        prop_assert!(spans.iter().all(|sp| !sp.label.contains("[u") && !sp.label.contains('#')));
        prop_assert_eq!(b1.utterance_finish_s.len(), 1);
        prop_assert_eq!(b1.utterance_finish_s[0].to_bits(), b1.makespan_s.to_bits());
    }
}

// ---------------------------------------------------------------------------
// Walker = runtime at batch 1: the pools price a solo dispatch with
// `walk_cost`, and the cards run it through the runtime, so the two
// consumers must agree bit for bit on every plan a batch of one can take.
// ---------------------------------------------------------------------------

/// Each phase's compute end as the runtime ran it: the end of the phase's
/// one kernel span (`C{label} @SLR{n}`), 0 for a phase with no compute.
fn runtime_compute_ends(plan: &ExecPlan, run: &BatchedRun) -> Vec<f64> {
    let kernels = run.runtime.timeline().unit_spans("kernels");
    plan.phases
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if plan.computes_of(i).is_empty() {
                return 0.0;
            }
            let prefix = format!("C{} @SLR", p.label);
            kernels.iter().find(|s| s.label.starts_with(&prefix)).expect("phase computed").end
        })
        .collect()
}

/// A batch-1 plan of one of five shapes: the full schedule, the full
/// schedule over a warm card's pinned stripes, a checkpoint's resumed
/// suffix, a stream chunk, or a decode step. `a`, `b` and `c` pick each
/// shape's pin count, cut, window or step, folded into range; `trust`
/// lets the resume trust its resident stripes and runs the chunk or the
/// decode step warm.
fn batch1_plan(
    cfg: &AccelConfig,
    arch: Architecture,
    shape: usize,
    (a, b, c): (usize, usize, usize),
    trust: bool,
) -> ExecPlan {
    let s = cfg.max_seq_len;
    let full = || ExecPlan::lower(cfg, arch, s, 1, cfg.integrity).unwrap();
    match shape {
        0 => full(),
        1 => {
            let pinned = full().pinned_stripes(a % 6);
            PlanBuilder::new(cfg, arch).utterances(&[s]).reuse_resident(&pinned).build().unwrap()
        }
        2 => {
            let full = full();
            let phases = full.phases.len();
            let completed = a % phases;
            let loaded = (completed + b % 3).min(phases);
            let ckpt = PlanCheckpoint::at(&full, completed, loaded, &[], 0.0);
            ExecPlan::resume(cfg, &ckpt, trust).unwrap()
        }
        3 => {
            let rows = 1 + a % s;
            let context = b % (s - rows + 1);
            let cold = ExecPlan::lower_stream_chunk(cfg, arch, rows, context, &[]).unwrap();
            let resident = if trust { cold.pinned_stripes(serve::PIN_SLOTS) } else { Vec::new() };
            ExecPlan::lower_stream_chunk(cfg, arch, rows, context, &resident).unwrap()
        }
        _ => {
            let max_steps = 1 + a % 16;
            let spec = DecodeStepSpec {
                step: b % max_steps,
                mem_len: 1 + c % s,
                beam: 1 + c % 4,
                max_steps,
            };
            let level = cfg.integrity;
            let cold = ExecPlan::lower_decode_step(cfg, arch, spec, &[], level).unwrap();
            let resident = if trust { cold.decode_pinned_stripes() } else { Vec::new() };
            ExecPlan::lower_decode_step(cfg, arch, spec, &resident, level).unwrap()
        }
    }
}

proptest! {
    #![proptest_config(env_cases(48))]

    // At batch 1 the walker and the runtime price one command stream:
    // the makespan, the load engines' busy seconds and every phase's
    // compute end agree to the bit, whatever the architecture, stripe
    // encoding (zero-tile skips included), integrity level, resident set,
    // resume cut, stream window or decode step.
    #[test]
    fn batch_one_walker_and_runtime_agree_bit_for_bit(
        arch in any_arch(),
        s in prop::sample::select(vec![2usize, 4, 8, 16, 32]),
        encoding in prop::sample::select(vec![0usize, 1, 2, 3]),
        occupancy_pct in 0u32..=100,
        level_idx in 0usize..3,
        shape in 0usize..5,
        cut in (0usize..64, 0usize..64, 0usize..64),
        trust in prop::sample::select(vec![false, true]),
    ) {
        let mut cfg = unpadded(s);
        cfg.encoding = match encoding {
            0 => WeightEncoding::Dense,
            1 => WeightEncoding::Int8,
            2 => WeightEncoding::BlockCirculant { block: 4 },
            _ => WeightEncoding::SparseTiles { tile: 4, occupancy_pct },
        };
        cfg.integrity = [
            IntegrityLevel::Off,
            IntegrityLevel::Detect,
            IntegrityLevel::DetectAndRecompute,
        ][level_idx];
        let plan = batch1_plan(&cfg, arch, shape, cut, trust);
        let walk = walk_cost(&cfg, &plan);
        let run = run_plan(&cfg, &plan);
        let what = format!("{:?} s={} {} shape {} {:?}", arch, s, cfg.encoding, shape, cut);
        prop_assert_eq!(walk.latency_s.to_bits(), run.makespan_s.to_bits(), "makespan, {}", what);
        prop_assert_eq!(
            walk.load_total_s.to_bits(), run.load_busy_s.to_bits(), "load busy, {}", what
        );
        let ends = runtime_compute_ends(&plan, &run);
        for (i, (w, r)) in walk.phase_compute_end_s.iter().zip(&ends).enumerate() {
            prop_assert_eq!(w.to_bits(), r.to_bits(), "phase {} compute end, {}", i, what);
        }
    }
}

// ---------------------------------------------------------------------------
// Serving path: a batching pool attributes to each request exactly the
// corruption accounting the solo pool reports for it.
// ---------------------------------------------------------------------------

fn run_corrupt_pool(
    max_batch: usize,
    requests: usize,
    rps: f64,
    failing_attempts: u32,
) -> serve::ServeReport {
    let mut c = serve::ServeConfig::new(1, 0, rps, 50.0);
    c.accel.integrity = IntegrityLevel::DetectAndRecompute;
    c.requests = requests;
    c.batch = serve::BatchConfig { max_batch, linger_s: 0.0 };
    let plans = vec![FaultPlan::none().with(FaultKind::DmaCorruption {
        label: "LW".into(),
        word: 42,
        xor: 0x11,
        failing_attempts,
    })];
    let mut pool = serve::ServePool::with_plans(c, plans).unwrap();
    for i in 0..requests {
        let _ = pool.submit(i as f64 / rps);
    }
    pool.drain()
}

fn corruption_by_id(report: &serve::ServeReport) -> HashMap<usize, CorruptionCounters> {
    report
        .records
        .iter()
        .filter_map(|r| match &r.outcome {
            serve::RequestOutcome::Completed { corruption, .. } => Some((r.id, *corruption)),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(env_cases(16))]

    // Satellite 1, pool half: under a transient DMA-corruption plan the
    // batching pool completes everything the solo pool completes, charges
    // each request the SAME per-run corruption counters (one CRC-scrubbed
    // load per dispatch), and — because batches share loads — injects no
    // more corruption in total than the solo pool.
    #[test]
    fn batching_pool_attributes_corruption_identically_to_the_solo_pool(
        requests in 4usize..=16,
        max_batch in 2usize..=6,
        rps in prop::sample::select(vec![200.0f64, 1000.0]),
        failing_attempts in 1u32..=2,
    ) {
        let solo = run_corrupt_pool(1, requests, rps, failing_attempts);
        let batched = run_corrupt_pool(max_batch, requests, rps, failing_attempts);
        prop_assert_eq!(solo.completed, requests);
        prop_assert_eq!(batched.completed, requests);
        let solo_c = corruption_by_id(&solo);
        let batched_c = corruption_by_id(&batched);
        for (id, c) in &batched_c {
            prop_assert_eq!(
                c, &solo_c[id],
                "request {}: batched corruption diverged from solo", id
            );
            prop_assert_eq!(c.escaped, 0);
        }
        prop_assert!(batched.corruption.any_injected(), "the plan must fire");
        prop_assert!(
            batched.corruption.injected <= solo.corruption.injected,
            "amortized loads cannot inject more than solo loads ({} > {})",
            batched.corruption.injected,
            solo.corruption.injected
        );
        prop_assert!(batched.batches <= solo.batches);
    }
}

// ---------------------------------------------------------------------------
// Serving path: on a compute-bound card the dispatcher neither lingers nor
// leaves a card idle while a backlog waits.
// ---------------------------------------------------------------------------

/// Whether card intervals `busy` cover `[from, to]` without a gap.
fn covered(busy: &[(f64, f64)], from: f64, to: f64) -> bool {
    const EPS: f64 = 1e-12;
    let mut t = from;
    while t < to - EPS {
        match busy
            .iter()
            .filter(|&&(s, e)| s <= t + EPS && e > t + EPS)
            .map(|&(_, e)| e)
            .reduce(f64::max)
        {
            Some(e) => t = e,
            None => return false,
        }
    }
    true
}

proptest! {
    #![proptest_config(env_cases(32))]

    // The int8 A3 deployment card saves at most 1.881 ms of card time per
    // extra batch member, so a linger of 1.9 ms or more never pays, and a
    // backlog splits by finish time across the cards. Together: no
    // request ever waits while some card is idle. The cards' busy
    // intervals are rebuilt from the records alone: a dispatch starts at
    // finish - service_s and holds its card until its last member ends.
    #[test]
    fn a_compute_bound_pool_never_idles_a_card_while_work_waits(
        devices in 1usize..=3,
        max_batch in 1usize..=8,
        linger_ms in 1.9f64..10.0,
        gaps_ms in prop::collection::vec(0.0f64..15.0, 1..40),
    ) {
        let mut c = serve::ServeConfig::new(devices, 0, 100.0, 1.0);
        c.batch = serve::BatchConfig { max_batch, linger_s: linger_ms * 1e-3 };
        let mut pool = serve::ServePool::new(c).unwrap();
        let mut t = 0.0;
        for gap in &gaps_ms {
            t += gap * 1e-3;
            pool.submit(t).unwrap();
        }
        let report = pool.drain();
        prop_assert_eq!(report.completed, gaps_ms.len());
        let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); devices];
        let mut waited = Vec::new();
        for r in &report.records {
            let serve::RequestOutcome::Completed { device, latency_s, service_s, .. } = r.outcome
            else {
                unreachable!("a clean pool with a 1 s deadline serves everything")
            };
            let finish = r.arrival_s + latency_s;
            busy[device.index()].push((finish - service_s, finish));
            waited.push((r.id, r.arrival_s, finish - service_s));
        }
        for (id, arrival, started) in waited {
            for (card, intervals) in busy.iter().enumerate() {
                prop_assert!(
                    covered(intervals, arrival, started),
                    "request {} waited {:.3} ms from {:.3} ms while card {} sat idle",
                    id, (started - arrival) * 1e3, arrival * 1e3, card
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cycle-accounting regressions (satellite 2): hand-computed pins.
// ---------------------------------------------------------------------------

/// A batch of B utterances issues each layer's HBM weight load exactly once:
/// 24 phase loads at A3 (12 encoders + 6 M-MHA + 6 FFN halves), 18 at A1/A2
/// (whole-decoder loads) — independent of B — and the engines' busy seconds
/// are bit-identical across batch sizes.
#[test]
fn batch_issues_each_layer_load_exactly_once() {
    let cfg = unpadded(4);
    for (arch, expected_loads) in
        [(Architecture::A1, 18), (Architecture::A2, 18), (Architecture::A3, 24)]
    {
        let solo = run_plan(&cfg, &lower(&cfg, arch, 4, 1));
        assert_eq!(solo.loads_issued, expected_loads, "{:?}", arch);
        for b in [2usize, 4, 8] {
            let run = run_plan(&cfg, &lower(&cfg, arch, 4, b));
            assert_eq!(
                run.loads_issued, expected_loads,
                "{:?} batch {} must not re-issue per-utterance loads",
                arch, b
            );
            // Busy seconds are summed from span endpoints at batch-dependent
            // absolute times, so allow rounding noise — but nothing more.
            assert!(
                (run.load_busy_s - solo.load_busy_s).abs() <= 1e-12 * solo.load_busy_s,
                "{:?} batch {}: HBM busy time must not scale with the batch ({} vs {})",
                arch,
                b,
                run.load_busy_s,
                solo.load_busy_s
            );
            // B utterances × one kernel per phase, all sharing the loads.
            assert_eq!(run.runtime.timeline().unit_spans("kernels").len(), expected_loads * b);
        }
    }
}

/// A1 is the guarded no-overlap baseline: the batched makespan is exactly
/// the hand-computed serial sum Σ load_i + B·Σ compute_i, assembled from
/// `layer_bytes`, the HBM read-time model and the schedule cycle counts —
/// nothing overlaps, and only compute scales with B.
#[test]
fn a1_batched_makespan_is_the_hand_computed_serial_sum() {
    let cfg = unpadded(4);
    let clock = cfg.device.clock;
    let bytes = layer_bytes(&cfg);
    let ch = calib::HBM_CHANNELS_A1_A2;
    let n_enc = cfg.model.n_encoders as f64;
    let n_dec = cfg.model.n_decoders as f64;
    // A1/A2 load each decoder's M-MHA and FFN weights as ONE phase.
    let load_s = n_enc * cfg.device.hbm.read_time_s(bytes.encoder, ch)
        + n_dec * cfg.device.hbm.read_time_s(bytes.decoder_mha + bytes.decoder_ffn, ch);
    let compute_s = n_enc * clock.to_seconds(schedule::encoder_cycles(&cfg, 4))
        + n_dec * clock.to_seconds(schedule::decoder_cycles(&cfg, 4));

    for b in [1usize, 2, 4, 8] {
        let r = walk_cost(&cfg, &lower(&cfg, Architecture::A1, 4, b));
        let expected = load_s + b as f64 * compute_s;
        assert!(
            (r.latency_s - expected).abs() <= 1e-9 * expected,
            "A1 batch {}: simulated {} vs hand-computed {}",
            b,
            r.latency_s,
            expected
        );
        // The load engine's busy time never depends on the batch.
        assert!(
            (r.load_total_s - load_s).abs() <= 1e-9 * load_s,
            "A1 batch {}: load busy {} vs {}",
            b,
            r.load_total_s,
            load_s
        );
    }
}

/// In the load-bound regime (s = 4) the per-utterance residual stall under
/// A2/A3 shrinks strictly as the batch grows: each prefetch now hides behind
/// B utterances of compute. By B = 8 the A3 stall per utterance is under 30 %
/// of solo.
#[test]
fn per_utterance_stall_shrinks_as_the_batch_grows() {
    let cfg = unpadded(4);
    for arch in [Architecture::A2, Architecture::A3] {
        let mut prev = f64::INFINITY;
        for b in [1usize, 2, 4, 8] {
            let r = walk_cost(&cfg, &lower(&cfg, arch, 4, b));
            let per_utt = r.compute_stall_s / b as f64;
            assert!(
                per_utt < prev,
                "{:?}: stall/utt {} at batch {} did not shrink (prev {})",
                arch,
                per_utt,
                b,
                prev
            );
            prev = per_utt;
        }
    }
    let solo = walk_cost(&cfg, &lower(&cfg, Architecture::A3, 4, 1)).compute_stall_s;
    let b8 = walk_cost(&cfg, &lower(&cfg, Architecture::A3, 4, 8)).compute_stall_s / 8.0;
    assert!(b8 < 0.3 * solo, "A3 stall/utt at batch 8 is {} vs solo {}", b8, solo);
}

/// The runtime command stream and the analytic recurrence, handed the same
/// batched plan, agree to rounding: the walker prices a phase's batch as one
/// `ct × n` span where the runtime chains `n` computes, and the two sums
/// differed by at most 5.1e-15 relative over A1–A3, s 2–32 and batch 1–8.
#[test]
fn runtime_and_analytic_batched_makespans_agree() {
    for arch in Architecture::ALL {
        for s in [4usize, 8] {
            let cfg = unpadded(s);
            for b in [2usize, 4, 8] {
                let plan = lower(&cfg, arch, s, b);
                let analytic = walk_cost(&cfg, &plan).latency_s;
                let run = run_plan(&cfg, &plan);
                assert!(
                    (analytic - run.makespan_s).abs() / analytic < 1e-12,
                    "{:?} s={} b={}: analytic {} vs runtime {}",
                    arch,
                    s,
                    b,
                    analytic,
                    run.makespan_s
                );
            }
        }
    }
}

/// Amortization pays: with overlap (A2/A3), serving B utterances in one
/// batch strictly beats B solo passes — the B−1 repeated weight loads are
/// gone — and per-utterance latency decreases monotonically in B.
#[test]
fn batched_makespan_beats_b_solo_passes_under_overlap() {
    let cfg = unpadded(4);
    for arch in [Architecture::A2, Architecture::A3] {
        let solo = simulate(&cfg, arch, 4).latency_s;
        let mut prev_per_utt = f64::INFINITY;
        for b in [2usize, 4, 8] {
            let batched = walk_cost(&cfg, &lower(&cfg, arch, 4, b)).latency_s;
            assert!(
                batched < b as f64 * solo,
                "{:?} batch {}: {} not better than {} solo passes ({})",
                arch,
                b,
                batched,
                b,
                b as f64 * solo
            );
            let per_utt = batched / b as f64;
            assert!(per_utt < prev_per_utt, "{:?}: per-utterance latency must shrink", arch);
            prev_per_utt = per_utt;
        }
    }
}

// ---------------------------------------------------------------------------
// Plan-IR equivalence: the unified ExecPlan lowering and its two timing
// consumers reproduce the pre-refactor per-architecture bodies bit for bit.
// The references below are verbatim copies of the deleted recurrence and
// emission loop (the per-arch `match` of the batched analytic simulator in
// `arch` and the straight-line loop of the batched runtime entry point in
// `host_runtime`), so any drift in the lowering's edge policy or the
// executors shows up as a span diff here.
// ---------------------------------------------------------------------------

struct LegacyPhase {
    label: String,
    load_bytes: u64,
    compute: Cycles,
    pair_with_prev_load: bool,
}

/// Verbatim copy of the deleted `arch::build_phases`.
fn legacy_build_phases(cfg: &AccelConfig, s: usize, arch: Architecture) -> Vec<LegacyPhase> {
    let bytes = layer_bytes(cfg);
    let clock_phases_split = arch == Architecture::A3;
    let mut phases = Vec::new();
    for i in 0..cfg.model.n_encoders {
        phases.push(LegacyPhase {
            label: format!("E{}", i + 1),
            load_bytes: bytes.encoder,
            compute: schedule::encoder_cycles(cfg, s),
            pair_with_prev_load: false,
        });
    }
    for i in 0..cfg.model.n_decoders {
        if clock_phases_split {
            phases.push(LegacyPhase {
                label: format!("D{}m", i + 1),
                load_bytes: bytes.decoder_mha,
                compute: schedule::decoder::decoder_mha_phase_cycles(cfg, s),
                pair_with_prev_load: false,
            });
            phases.push(LegacyPhase {
                label: format!("D{}f", i + 1),
                load_bytes: bytes.decoder_ffn,
                compute: schedule::decoder::decoder_ffn_phase_cycles(cfg, s),
                pair_with_prev_load: true,
            });
        } else {
            phases.push(LegacyPhase {
                label: format!("D{}", i + 1),
                load_bytes: bytes.decoder_mha + bytes.decoder_ffn,
                compute: schedule::decoder_cycles(cfg, s),
                pair_with_prev_load: false,
            });
        }
    }
    phases
}

struct LegacyArchResult {
    latency_s: f64,
    load_total_s: f64,
    compute_total_s: f64,
    compute_stall_s: f64,
    timeline: Timeline,
}

/// Verbatim copy of the deleted per-architecture `match` of the batched
/// analytic simulator — A1's serial walk and the A2/A3 prefetch
/// recurrence as separate hand-rolled bodies.
fn legacy_simulate_batch(
    cfg: &AccelConfig,
    arch: Architecture,
    input_len: usize,
    batch: usize,
) -> LegacyArchResult {
    cfg.validate().expect("valid accelerator configuration");
    let s = cfg.padded_seq_len(input_len).unwrap();
    let clock = cfg.device.clock;
    let phases = legacy_build_phases(cfg, s, arch);

    let channels_per_engine = calib::HBM_CHANNELS_A1_A2;
    let engines: usize = match arch {
        Architecture::A1 | Architecture::A2 => 1,
        Architecture::A3 => 2,
    };
    let load_time = |bytes: u64| cfg.device.hbm.read_time_s(bytes, channels_per_engine);

    let mut tl = Timeline::new();
    let mut compute_end = vec![0.0f64; phases.len()];
    let mut load_end = vec![0.0f64; phases.len()];

    match arch {
        Architecture::A1 => {
            let mut t = 0.0;
            for (i, p) in phases.iter().enumerate() {
                let lt = load_time(p.load_bytes);
                tl.push("load-0", format!("LW{}", p.label), t, t + lt).unwrap();
                let ct = clock.to_seconds(p.compute) * batch as f64;
                tl.push("compute", format!("C{}", p.label), t + lt, t + lt + ct).unwrap();
                load_end[i] = t + lt;
                compute_end[i] = t + lt + ct;
                t = compute_end[i];
            }
        }
        Architecture::A2 | Architecture::A3 => {
            let mut engine_free = vec![0.0f64; engines];
            for (i, p) in phases.iter().enumerate() {
                let engine = i % engines;
                let lt = load_time(p.load_bytes);
                let buffer_free = if i >= 2 { compute_end[i - 2] } else { 0.0 };
                let mut start = engine_free[engine].max(buffer_free);
                if p.pair_with_prev_load && i >= 1 {
                    let partner_start = load_end[i - 1] - load_time(phases[i - 1].load_bytes);
                    start = start.max(partner_start);
                }
                tl.push(format!("load-{}", engine), format!("LW{}", p.label), start, start + lt)
                    .unwrap();
                load_end[i] = start + lt;
                engine_free[engine] = start + lt;

                let prev_c = if i >= 1 { compute_end[i - 1] } else { 0.0 };
                let cs = load_end[i].max(prev_c);
                let ct = clock.to_seconds(p.compute) * batch as f64;
                tl.push("compute", format!("C{}", p.label), cs, cs + ct).unwrap();
                compute_end[i] = cs + ct;
            }
        }
    }

    let latency_s = tl.makespan();
    let load_total_s: f64 = (0..engines).map(|e| tl.busy_time(&format!("load-{}", e))).sum();
    LegacyArchResult {
        latency_s,
        load_total_s,
        compute_total_s: tl.busy_time("compute"),
        compute_stall_s: tl.stall_time("compute"),
        timeline: tl,
    }
}

/// Verbatim copy of the deleted straight-line emission loop of the batched
/// runtime entry point (modulo the `set_batch_tag` → `set_plan_tag`
/// rename). Returns the runtime plus the makespan and per-utterance
/// finishes the old entry point reported.
fn legacy_run_batch(
    cfg: &AccelConfig,
    arch: Architecture,
    input_len: usize,
    batch: usize,
) -> (Runtime, f64, Vec<f64>) {
    let kernel_label = |phase: &str, u: usize| {
        if batch == 1 {
            format!("C{}", phase)
        } else {
            format!("C{}[u{}]", phase, u)
        }
    };
    cfg.validate().unwrap();
    let s = cfg.padded_seq_len(input_len).unwrap();

    let mut rt = Runtime::new(cfg.device.clone());
    if batch > 1 {
        rt.set_plan_tag(Some(format!("B{}", batch)));
    }
    let engines = match arch {
        Architecture::A3 => 2,
        _ => 1,
    };
    let load_queues: Vec<_> =
        (0..engines).map(|e| rt.create_queue(format!("maxi-{}", e))).collect();
    let compute_queue = rt.create_queue("kernels");

    let phases = phase_list(cfg, arch);
    let last_phase = phases.len() - 1;
    let mut phase_last_compute: Vec<Event> = Vec::with_capacity(phases.len());
    let mut prev_compute: Option<Event> = None;
    let mut utterance_finish_s: Vec<f64> = Vec::with_capacity(batch);
    for (i, p) in phases.iter().enumerate() {
        let mut deps: Vec<Event> = Vec::new();
        if i >= 2 {
            deps.push(phase_last_compute[i - 2]);
        }
        if arch == Architecture::A1 && i >= 1 {
            deps.push(phase_last_compute[i - 1]);
        }
        let lw = rt.enqueue_hbm_load(
            load_queues[i % engines],
            format!("LW{}", p.label),
            p.bytes,
            calib::HBM_CHANNELS_A1_A2,
            &deps,
        );

        let compute_s = phase_compute_s(cfg, p.kind, s);
        for u in 0..batch {
            let mut cdeps = vec![lw];
            if let Some(prev) = prev_compute {
                cdeps.push(prev);
            }
            let ck = rt.enqueue_kernel(
                compute_queue,
                kernel_label(&p.label, u),
                if i % 2 == 0 { SlrId::Slr0 } else { SlrId::Slr1 },
                compute_s,
                &cdeps,
            );
            prev_compute = Some(ck);
            if i == last_phase {
                utterance_finish_s.push(rt.finish_time(ck));
            }
        }
        phase_last_compute.push(prev_compute.expect("batch >= 1 enqueued a compute"));
    }

    let makespan_s = rt.finish();
    (rt, makespan_s, utterance_finish_s)
}

proptest! {
    #![proptest_config(env_cases(24))]

    // The analytic walker over a lowered plan reproduces the deleted
    // per-architecture recurrences bit for bit: same spans, same scalar
    // metrics, for every (arch, length, batch) request.
    #[test]
    fn plan_walker_matches_the_legacy_per_arch_recurrences(
        arch in any_arch(),
        batch in 1usize..=8,
        s in prop::sample::select(vec![2usize, 4, 8, 16, 32]),
    ) {
        let cfg = unpadded(s);
        let new = walk_cost(&cfg, &lower(&cfg, arch, s, batch));
        let old = legacy_simulate_batch(&cfg, arch, s, batch);
        prop_assert_eq!(old.timeline.spans(), new.timeline.spans(), "{:?} b={}", arch, batch);
        prop_assert_eq!(old.latency_s.to_bits(), new.latency_s.to_bits());
        prop_assert_eq!(old.load_total_s.to_bits(), new.load_total_s.to_bits());
        prop_assert_eq!(old.compute_total_s.to_bits(), new.compute_total_s.to_bits());
        prop_assert_eq!(old.compute_stall_s.to_bits(), new.compute_stall_s.to_bits());
    }

    // The plan executor replays the same command stream — labels, queues,
    // dependency-resolved span times, per-utterance finishes — the deleted
    // straight-line emission loop enqueued.
    #[test]
    fn plan_executor_matches_the_legacy_emission_loop(
        arch in any_arch(),
        batch in 1usize..=6,
        s in prop::sample::select(vec![2usize, 4, 8, 16]),
    ) {
        let cfg = unpadded(s);
        let new = run_plan(&cfg, &lower(&cfg, arch, s, batch));
        let (rt, makespan_s, finishes) = legacy_run_batch(&cfg, arch, s, batch);
        prop_assert_eq!(rt.timeline().spans(), new.runtime.timeline().spans(),
            "{:?} b={}", arch, batch);
        prop_assert_eq!(makespan_s.to_bits(), new.makespan_s.to_bits());
        prop_assert_eq!(finishes.len(), new.utterance_finish_s.len());
        for (a, b) in finishes.iter().zip(&new.utterance_finish_s) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    // Lowering is a pure function of its request: the same (config, arch,
    // lengths, integrity) always produces the identical DAG, with the
    // expected per-kind command totals.
    #[test]
    fn lowering_is_deterministic_with_the_expected_shape(
        arch in any_arch(),
        batch in 1usize..=8,
        s in prop::sample::select(vec![2usize, 4, 8, 16]),
        level_idx in 0usize..3,
    ) {
        let level = [
            IntegrityLevel::Off,
            IntegrityLevel::Detect,
            IntegrityLevel::DetectAndRecompute,
        ][level_idx];
        let cfg = unpadded(s);
        let a = ExecPlan::lower(&cfg, arch, s, batch, level).unwrap();
        let b = ExecPlan::lower(&cfg, arch, s, batch, level).unwrap();
        prop_assert_eq!(&a, &b, "lowering must be deterministic");
        let c = a.counts();
        prop_assert_eq!(c.loads, a.phases.len());
        prop_assert_eq!(c.computes, a.phases.len() * batch);
        prop_assert_eq!(c.barriers, 1);
        let expected_verifies =
            if level.checks_enabled() { c.loads + c.computes } else { 0 };
        prop_assert_eq!(c.verifies, expected_verifies);
    }
}
