//! Property tests for the fault-injected runtime: zero-fault transparency,
//! recoverability of seeded plans, and the A3→A2 degradation equivalence.
#![recursion_limit = "1024"]

use asr_accel::arch::{layer_bytes, simulate};
use asr_accel::host_runtime::{run_plan, run_plan_with_recovery, RecoveryPolicy};
use asr_accel::integrity::{load_model_with_faults, FunctionalFaults, StripeCorruption};
use asr_accel::plan::ExecPlan;
use asr_accel::schedule;
use asr_accel::serve;
use asr_accel::{AccelConfig, Architecture, CorruptionCounters};
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
        prop::sample::select(vec![(8usize, 1usize), (4, 2), (2, 4), (1, 8)]),
        2usize..=32, // built seq len
    )
        .prop_map(|(rows_half, cols, (heads, per_head), s)| {
            let mut cfg = AccelConfig::paper_default();
            cfg.psa.rows = rows_half * 2;
            cfg.psa.cols = cols;
            cfg.parallel_heads = heads;
            cfg.psas_per_head = per_head;
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
        let run = run_plan_with_recovery(&cfg, &plan, FaultPlan::seeded(seed), &RecoveryPolicy::default())
            .unwrap_or_else(|f| panic!("seed {}: {}", seed, f.error));
        prop_assert!(run.makespan_s.is_finite(), "seed {}", seed);
        prop_assert!(
            run.makespan_s >= run.nominal_s - 1e-12,
            "seed {}: faulted {} beat nominal {}",
            seed,
            run.makespan_s,
            run.nominal_s
        );
        prop_assert!(
            run.makespan_s / run.nominal_s - 1.0 >= -1e-12,
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
        let run = run_plan_with_recovery(&cfg, &a3_plan, dead_engine, &RecoveryPolicy::default())
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
    // independent run of the build's solo plan produces — queuing and
    // routing may shift latencies but never touch the compute.
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
        let plan = solo(&cfg.accel, arch);
        let solo = run_plan_with_recovery(&cfg.accel, &plan, FaultPlan::none(), &cfg.policy).unwrap();
        let report = serve::ServePool::run(cfg).unwrap();
        prop_assert_eq!(report.completed, requests, "clean pool serves everything");
        for r in &report.records {
            match &r.outcome {
                serve::RequestOutcome::Completed { service_s, latency_s, .. } => {
                    prop_assert_eq!(
                        service_s.to_bits(),
                        solo.makespan_s.to_bits(),
                        "request {} service diverged from the solo run",
                        r.id
                    );
                    prop_assert!(*latency_s >= *service_s - 1e-15);
                }
                other => prop_assert!(false, "unexpected outcome {:?}", other),
            }
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
// Plan-IR recovery equivalence: fault-free, the recovery executor replays a
// lowered plan exactly as the plain executor does.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(env_cases(24))]

    // Fault-free, the recovery executor over a lowered plan is a no-op
    // wrapper around the plain plan executor at every integrity level and
    // on every architecture, A1 included (its loads gate on the previous
    // compute instead of using a prefetch engine): identical spans,
    // makespan, per-utterance finishes and load accounting; zero retries,
    // no recovery events, empty counters.
    #[test]
    fn zero_fault_plan_recovery_matches_run_plan_at_every_level(
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
        let s = cfg.max_seq_len;
        let plan = ExecPlan::lower(&cfg, arch, s, batch, level).unwrap();
        let base = run_plan(&cfg, &plan);
        let run = run_plan_with_recovery(&cfg, &plan, FaultPlan::none(), &RecoveryPolicy::default())
            .unwrap_or_else(|f| panic!("clean plan failed: {}", f.error));
        prop_assert_eq!(base.runtime.timeline().spans(), run.runtime.timeline().spans());
        prop_assert_eq!(base.makespan_s.to_bits(), run.makespan_s.to_bits());
        prop_assert_eq!(run.utterance_finish_s.len(), batch);
        for (a, b) in base.utterance_finish_s.iter().zip(&run.utterance_finish_s) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(base.loads_issued, run.loads_issued);
        prop_assert_eq!(base.load_busy_s.to_bits(), run.load_busy_s.to_bits());
        prop_assert_eq!(run.retries, 0);
        prop_assert!(run.events.is_empty());
        prop_assert_eq!(run.final_arch, arch);
        prop_assert_eq!(run.corruption, CorruptionCounters::default());
    }
}
