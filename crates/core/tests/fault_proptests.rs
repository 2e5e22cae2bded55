//! Property tests for the fault-injected runtime: zero-fault transparency,
//! recoverability of seeded plans, and the A3→A2 degradation equivalence.
#![recursion_limit = "1024"]

use asr_accel::arch::{layer_bytes, simulate};
use asr_accel::host_runtime::{run_plan, run_plan_with_recovery};
use asr_accel::integrity::{load_model_with_faults, FunctionalFaults, StripeCorruption};
use asr_accel::plan::{ExecPlan, PlanBuilder};
use asr_accel::schedule;
use asr_accel::serve;
use asr_accel::{AccelConfig, Architecture, CorruptionCounters};
use asr_fpga_sim::runtime::FAULT_UNIT;
use asr_fpga_sim::{FaultKind, FaultPlan};
use asr_systolic::abft::IntegrityLevel;
use asr_transformer::weights::ModelWeights;
use asr_transformer::TransformerConfig;
use proptest::prelude::*;

/// Case count: `PROPTEST_CASES` when set (the CI deep-proptest job exports
/// 512), else the tier-1 default. The vendored proptest does not read the
/// environment itself, so the config expression does.
fn env_cases(default: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

/// Strategy: a valid accelerator configuration with randomized PSA shape,
/// head split and built length (mirrors the scheduling proptests).
fn valid_config() -> impl Strategy<Value = AccelConfig> {
    (
        1usize..=4, // psa rows half -> 2..=8
        prop::sample::select(vec![32usize, 64, 128]),
        prop::sample::select(vec![8usize, 4, 2, 1]), // parallel heads
        2usize..=32,                                 // built seq len
    )
        .prop_map(|(rows_half, cols, heads, s)| {
            let mut cfg = AccelConfig::paper_default();
            cfg.psa.rows = rows_half * 2;
            cfg.psa.cols = cols;
            cfg.parallel_heads = heads;
            cfg.max_seq_len = s;
            cfg
        })
}

fn any_arch() -> impl Strategy<Value = Architecture> {
    prop::sample::select(vec![Architecture::A1, Architecture::A2, Architecture::A3])
}

/// One utterance at the config's built length, lowered at its integrity.
fn solo(cfg: &AccelConfig, arch: Architecture) -> ExecPlan {
    ExecPlan::lower(cfg, arch, cfg.max_seq_len, 1, cfg.integrity).unwrap()
}

/// A batch at the config's built length as a warm card lowers it: against
/// the leading stripes a card's first dispatch pins.
fn warm(cfg: &AccelConfig, arch: Architecture, batch: usize) -> ExecPlan {
    PlanBuilder::new(cfg, arch)
        .utterances(&vec![cfg.max_seq_len; batch])
        .reuse_resident(&solo(cfg, arch).pinned_stripes(serve::PIN_SLOTS))
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(env_cases(32))]

    // Every seeded fault plan is recoverable by construction: the run ends
    // Ok with a finite makespan, and faults never make the run *faster*
    // than the fault-free nominal schedule.
    #[test]
    fn seeded_plans_recover_with_finite_overhead(
        seed in 0u64..u64::MAX,
        s in 2usize..=16,
    ) {
        let mut cfg = AccelConfig::paper_default();
        cfg.max_seq_len = s;
        let plan = solo(&cfg, Architecture::A3);
        let run = run_plan_with_recovery(&cfg, &plan, FaultPlan::seeded(seed))
            .unwrap_or_else(|f| panic!("seed {}: {}", seed, f.error));
        let nominal = run_plan(&cfg, &plan).makespan_s;
        prop_assert!(run.makespan_s.is_finite(), "seed {}", seed);
        prop_assert!(
            run.makespan_s >= nominal - 1e-12,
            "seed {}: faulted {} beat nominal {}",
            seed,
            run.makespan_s,
            nominal
        );
        prop_assert!(
            run.makespan_s / nominal - 1.0 >= -1e-12,
            "the fault overhead is an excess fraction"
        );
    }

    // Killing one A3 prefetch engine before its first command leaves a
    // single-engine task pipeline. The degraded run keeps A3's phase-split
    // load granularity, so it is not bit-equal to A2 for arbitrary
    // configurations (the paper design point's within-1% match is pinned by
    // `engine_loss_from_start_matches_a2_within_1_percent`). The universal
    // sandwich: no faster than dual-engine A3, no slower than the fully
    // sequential A1 schedule plus per-split transfer setups. Under the
    // Fig 4.11 balance premise (every phase's compute covers any phase's
    // load) the tight bound holds too: the degraded run tracks A2.
    #[test]
    fn a3_with_a_dead_engine_behaves_like_a2(cfg in valid_config()) {
        let s = cfg.max_seq_len;
        let dead_engine = FaultPlan::none()
            .with(FaultKind::EngineDropout { queue: "maxi-1".into(), from_command: 0 });
        let a3_plan = solo(&cfg, Architecture::A3);
        let run = run_plan_with_recovery(&cfg, &a3_plan, dead_engine)
            .unwrap();
        let a2 = run_plan(&cfg, &solo(&cfg, Architecture::A2)).makespan_s;
        let a3 = run_plan(&cfg, &a3_plan).makespan_s;
        let a1 = simulate(&cfg, Architecture::A1, s).latency_s;
        let setup_slack = 40.0 * cfg.device.hbm.transfer_latency_s;
        prop_assert_eq!(run.final_arch, Architecture::A2);
        prop_assert!(run.makespan_s >= a3 - 1e-12, "degraded {} vs A3 {}", run.makespan_s, a3);
        prop_assert!(
            run.makespan_s <= a1 * 1.01 + setup_slack,
            "degraded A3 {} vs A1 {}",
            run.makespan_s,
            a1
        );

        let bytes = layer_bytes(&cfg);
        let max_load = cfg
            .device
            .hbm
            .read_time_s(bytes.encoder.max(bytes.decoder_mha).max(bytes.decoder_ffn), 2);
        let min_compute = cfg
            .device
            .clock
            .to_seconds(schedule::decoder::decoder_ffn_phase_cycles(&cfg, s)
                .min(schedule::decoder::decoder_mha_phase_cycles(&cfg, s))
                .min(schedule::encoder_cycles(&cfg, s)));
        if min_compute >= max_load {
            prop_assert!(
                run.makespan_s <= a2 * 1.01 + setup_slack,
                "degraded A3 {} vs A2 {}",
                run.makespan_s,
                a2
            );
        }
    }

    // The serving layer is pure orchestration: on a clean pool, every
    // completed request's *service* time must be bit-identical to what an
    // independent run of the plan its card ran produces — the cold solo
    // plan on the card's first dispatch, the plan lowered against the
    // card's pinned stripes after. Queuing and routing may shift latencies
    // but never touch the compute.
    #[test]
    fn clean_pool_service_times_match_independent_runs(
        devices in 1usize..=3,
        rps in prop::sample::select(vec![40.0f64, 80.0, 200.0]),
        requests in 4usize..=24,
        arch in any_arch(),
    ) {
        let mut cfg = serve::ServeConfig::new(devices, 0, rps, 2.0);
        cfg.arch = arch;
        cfg.requests = requests;
        let run = |plan: &ExecPlan| {
            run_plan_with_recovery(&cfg.accel, plan, FaultPlan::none()).unwrap().makespan_s
        };
        let cold_s = run(&solo(&cfg.accel, arch));
        let warm_s = run(&warm(&cfg.accel, arch, 1));
        prop_assert!(warm_s < cold_s, "the cache must shorten a dispatch: {warm_s} vs {cold_s}");
        let report = serve::ServePool::run(cfg).unwrap();
        prop_assert_eq!(report.completed, requests, "clean pool serves everything");
        // Solo dispatches from one FIFO queue with nothing failing: request
        // order is dispatch order, so a card's first record is its cold one.
        let mut warmed = vec![false; devices];
        for r in &report.records {
            match &r.outcome {
                serve::RequestOutcome::Completed { service_s, latency_s, device, .. } => {
                    let card_warm = std::mem::replace(&mut warmed[device.index()], true);
                    let want = if card_warm { warm_s } else { cold_s };
                    prop_assert_eq!(
                        service_s.to_bits(),
                        want.to_bits(),
                        "request {} on {} ({}) diverged from its independent run",
                        r.id,
                        device,
                        if card_warm { "warm" } else { "cold" }
                    );
                    prop_assert!(*latency_s >= *service_s - 1e-15);
                }
                other => prop_assert!(false, "unexpected outcome {:?}", other),
            }
        }
        let cards_used = warmed.iter().filter(|&&w| w).count();
        prop_assert_eq!(report.elided_loads, (requests - cards_used) * serve::PIN_SLOTS);
    }

    // The serving tier's safety decisions (admission, expiry, batch
    // projections, the cluster's upgrade gate) price every dispatch at the
    // cold nominal. That is sound only if a warm card is never slower: at
    // every architecture and batch size, each utterance of the warm plan
    // finishes no later than it does cold.
    #[test]
    fn a_warm_dispatch_never_outlasts_the_cold_nominal(
        cfg in valid_config(),
        arch in any_arch(),
        batch in 1usize..=8,
    ) {
        let cold = ExecPlan::lower(&cfg, arch, cfg.max_seq_len, batch, cfg.integrity).unwrap();
        let cold = run_plan(&cfg, &cold);
        let warm = run_plan(&cfg, &warm(&cfg, arch, batch));
        prop_assert!(warm.makespan_s <= cold.makespan_s, "{} > {}", warm.makespan_s, cold.makespan_s);
        for (w, c) in warm.utterance_finish_s.iter().zip(&cold.utterance_finish_s) {
            prop_assert!(w <= c, "utterance finishes at {} warm, {} cold", w, c);
        }
    }

    // Satellite (b), CRC half: ANY transient single-byte corruption of any
    // weight stripe is caught by the CRC envelope *before compute* — the
    // Detect-level load refetches until the model is bit-identical to a
    // clean load, with every injection accounted for — while the same fault
    // at Off flows straight into the datapath.
    #[test]
    fn transient_stripe_corruption_always_refetches_to_a_bit_identical_model(
        seed in 0u64..100,
        stripe_sel in 0usize..1_000_000,
        word in 0usize..4096,
        byte_in_word in 0u8..3,
        xor in 1u8..=255,
        failing_fetches in 1u32..=3,
    ) {
        let cfg = TransformerConfig::tiny();
        let w = ModelWeights::seeded(&cfg, seed);
        let n_stripes = w.matrices().len();
        let faults = FunctionalFaults {
            stripes: vec![StripeCorruption {
                stripe: stripe_sel % n_stripes,
                word,
                byte_in_word,
                xor,
                failing_fetches,
            }],
            lane: None,
        };

        let mut clean_c = CorruptionCounters::default();
        let clean = load_model_with_faults(
            &w, &FunctionalFaults::none(), IntegrityLevel::Detect, &mut clean_c,
        ).unwrap();
        prop_assert_eq!(clean_c, CorruptionCounters::default());

        // Detect: every corrupted fetch is seen by the CRC and retried; the
        // model that reaches compute is bit-identical to the clean load.
        let mut c = CorruptionCounters::default();
        let loaded = load_model_with_faults(&w, &faults, IntegrityLevel::Detect, &mut c).unwrap();
        prop_assert_eq!(&loaded, &clean, "scrubbed load diverged from the clean load");
        prop_assert_eq!(c.injected, failing_fetches as u64);
        prop_assert_eq!(c.detected, failing_fetches as u64);
        prop_assert_eq!(c.refetched, failing_fetches as u64);
        prop_assert_eq!(c.escaped, 0);

        // Off: the same fault escapes into the weights unnoticed.
        let mut c0 = CorruptionCounters::default();
        let off = load_model_with_faults(&w, &faults, IntegrityLevel::Off, &mut c0).unwrap();
        prop_assert_eq!(c0.injected, 1);
        prop_assert_eq!(c0.escaped, 1);
        prop_assert_eq!(c0.detected, 0);
        prop_assert!(off != clean, "mantissa corruption must change the loaded weights");
    }
}

// ---------------------------------------------------------------------------
// The unarmed executor: `run_plan` is the recovery executor with nothing
// armed, so fault-free it must recover from nothing. The span-for-span
// reference is the legacy emission loop in `batch_proptests.rs`.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(env_cases(24))]

    // At every integrity level and on every architecture, A1 included (its
    // loads gate on the previous compute instead of using a prefetch
    // engine), an unarmed run retries nothing, records no recovery event
    // or fault marker, stays at its entry architecture with both SLRs,
    // counts no corruption, and finishes each utterance once, in order,
    // the last at the makespan.
    #[test]
    fn the_unarmed_executor_recovers_from_nothing_at_every_level(
        cfg in valid_config(),
        arch in any_arch(),
        batch in 1usize..=8,
        level_idx in 0usize..3,
    ) {
        let level = [
            IntegrityLevel::Off,
            IntegrityLevel::Detect,
            IntegrityLevel::DetectAndRecompute,
        ][level_idx];
        let plan = ExecPlan::lower(&cfg, arch, cfg.max_seq_len, batch, level).unwrap();
        let run = run_plan(&cfg, &plan);
        prop_assert_eq!(run.retries, 0);
        prop_assert!(run.events.is_empty(), "{:?}", run.events);
        prop_assert!(run.runtime.timeline().unit_spans(FAULT_UNIT).is_empty());
        prop_assert_eq!(run.entry_arch, arch);
        prop_assert_eq!(run.final_arch, arch);
        prop_assert_eq!(run.dead_slr, None);
        prop_assert_eq!(run.corruption, CorruptionCounters::default());
        prop_assert_eq!(run.runtime.command_stats().completed, run.runtime.command_stats().total());
        prop_assert_eq!(run.utterance_finish_s.len(), batch);
        prop_assert!(run.utterance_finish_s.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(run.utterance_finish_s[batch - 1].to_bits(), run.makespan_s.to_bits());
    }
}
