//! Decode-equivalence pins: the plan-lowered KV-cached decode twin is
//! bit-identical to the eager transformer decode (greedy and beam, clean and
//! under seeded silent faults with recovery), and the per-step plans' elision
//! accounting always balances.
//!
//! Case counts honour `PROPTEST_CASES` (the CI deep-proptest job exports
//! 512); tier-1 runs use the per-block defaults.
#![recursion_limit = "1024"]

use asr_accel::host_runtime::run_plan_with_recovery;
use asr_accel::integrity::{run_functional_decode, small_config, FunctionalFaults};
use asr_accel::plan::{DecodeStepSpec, ExecPlan};
use asr_accel::{AccelConfig, Architecture};
use asr_fpga_sim::FaultPlan;
use asr_systolic::abft::{CheckedPsa, IntegrityLevel};
use asr_tensor::init;
use asr_transformer::beam::{beam_search_cached, BeamConfig};
use asr_transformer::cache::{greedy_decode_with, KvCache};
use asr_transformer::weights::ModelWeights;
use asr_transformer::Model;
use proptest::prelude::*;

/// Per-block case count: `PROPTEST_CASES` when set, else the tier-1 default.
/// The vendored proptest does not read the environment itself, so the config
/// expression does.
fn env_cases(default: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

fn cfg_at(level: IntegrityLevel) -> AccelConfig {
    let mut c = small_config();
    c.integrity = level;
    c
}

/// The eager reference the twin must match bit-for-bit: the same seeded
/// model on the same checked engine, decoded with the transformer crate's
/// own cached greedy path.
fn reference_greedy(
    cfg: &AccelConfig,
    model_seed: u64,
    input_seed: u64,
    mem_len: usize,
    max_steps: usize,
) -> Vec<usize> {
    let w = ModelWeights::seeded(&cfg.model, model_seed);
    let model = Model { config: cfg.model, weights: w };
    let engine = CheckedPsa::with_fault(cfg.psa_engine(), cfg.integrity, None);
    let features = init::uniform(mem_len, cfg.model.d_model, -0.5, 0.5, input_seed);
    let memory = model.encode(&features, &engine);
    let mut kv = KvCache::new(&model, &memory, &engine);
    greedy_decode_with(&model, &mut kv, max_steps, &engine)
}

/// The eager cached beam reference (the transformer crate's own coalesced
/// beam), on the same checked engine.
fn reference_beam(
    cfg: &AccelConfig,
    model_seed: u64,
    input_seed: u64,
    mem_len: usize,
    max_steps: usize,
    beam: usize,
) -> Vec<usize> {
    let w = ModelWeights::seeded(&cfg.model, model_seed);
    let model = Model { config: cfg.model, weights: w };
    let engine = CheckedPsa::with_fault(cfg.psa_engine(), cfg.integrity, None);
    let features = init::uniform(mem_len, cfg.model.d_model, -0.5, 0.5, input_seed);
    let memory = model.encode(&features, &engine);
    let bc = BeamConfig { beam, max_len: max_steps, length_penalty: 0.0 };
    beam_search_cached(&model, &memory, &bc, &engine)[0].tokens.clone()
}

// ---------------------------------------------------------------------------
// Transcript equivalence: the plan-lowered twin is bit-identical to the
// eager transformer decode, clean and under seeded faults with recovery.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(env_cases(4))]

    // For random model/input seeds and session shapes, the twin's greedy
    // transcript (beam = 1) is bit-identical to `greedy_decode_with` on the
    // same engine — the plan lowering in the loop changes the *accounting*,
    // never the bits.
    #[test]
    fn plan_lowered_greedy_decode_is_bit_identical_to_eager(
        model_seed in 1u64..500,
        input_seed in 1u64..500,
        mem_len in 2usize..=8,
        max_steps in 2usize..=6,
    ) {
        let cfg = cfg_at(IntegrityLevel::DetectAndRecompute);
        let run = run_functional_decode(
            &cfg, model_seed, input_seed, mem_len, max_steps, 1, &FunctionalFaults::none(),
        ).unwrap();
        let eager = reference_greedy(&cfg, model_seed, input_seed, mem_len, max_steps);
        prop_assert_eq!(run.tokens, eager);
    }

    // Seeded silent faults at DetectAndRecompute: the CRC envelope and the
    // ABFT recompute must hand the beam exactly the clean bits, so the
    // faulted transcript equals the clean one and nothing escapes.
    #[test]
    fn faulted_decode_recovers_to_the_clean_transcript(
        model_seed in 1u64..200,
        fault_seed in 1u64..500,
        beam in 1usize..=2,
    ) {
        let cfg = cfg_at(IntegrityLevel::DetectAndRecompute);
        let clean = run_functional_decode(
            &cfg, model_seed, 11, 5, 5, beam, &FunctionalFaults::none(),
        ).unwrap();
        let n_stripes = ModelWeights::seeded(&cfg.model, model_seed).matrices().len();
        let faults = FunctionalFaults::seeded(fault_seed, n_stripes, cfg.psa.cols);
        let faulted = run_functional_decode(
            &cfg, model_seed, 11, 5, 5, beam, &faults,
        ).unwrap();
        prop_assert_eq!(faulted.tokens, clean.tokens);
        prop_assert_eq!(faulted.counters.escaped, 0);
    }

    // A width-1 beam reduces exactly to greedy, and the twin's transcript
    // at any width equals the transformer crate's own coalesced beam.
    #[test]
    fn twin_beam_matches_the_eager_beam_and_width_one_is_greedy(
        model_seed in 1u64..200,
        input_seed in 1u64..200,
        beam in 1usize..=3,
    ) {
        let cfg = cfg_at(IntegrityLevel::Off);
        let run = run_functional_decode(
            &cfg, model_seed, input_seed, 5, 5, beam, &FunctionalFaults::none(),
        ).unwrap();
        let eager = reference_beam(&cfg, model_seed, input_seed, 5, 5, beam);
        prop_assert_eq!(run.tokens.clone(), eager);
        if beam == 1 {
            let greedy = reference_greedy(&cfg, model_seed, input_seed, 5, 5);
            prop_assert_eq!(run.tokens, greedy);
        }
    }
}

// ---------------------------------------------------------------------------
// Elision accounting: cheap plan-level properties at the paper scale.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(env_cases(32))]

    // For any steady step t > 0 lowered against the cold step's pinned
    // stripes: the step never schedules more bytes than the cold step, the
    // fetched/elided split exactly covers the schedule, the reuse counters
    // balance, and residency elides the majority of the step's traffic.
    #[test]
    fn steady_step_accounting_always_balances(
        mem_len in 2usize..=32,
        beam in 1usize..=4,
        extra in 1usize..=30,
        t in 1usize..=30,
        level in prop::sample::select(vec![
            IntegrityLevel::Off,
            IntegrityLevel::Detect,
            IntegrityLevel::DetectAndRecompute,
        ]),
    ) {
        let mut cfg = AccelConfig::paper_default();
        cfg.max_seq_len = 32;
        let max_steps = t + extra;
        let cold_spec = DecodeStepSpec { step: 0, mem_len, beam, max_steps };
        let cold = ExecPlan::lower_decode_step(&cfg, Architecture::A2, cold_spec, &[], level)
            .unwrap();
        let pinned = cold.decode_pinned_stripes();
        let spec = DecodeStepSpec { step: t, ..cold_spec };
        let steady = ExecPlan::lower_decode_step(&cfg, Architecture::A2, spec, &pinned, level)
            .unwrap();

        prop_assert!(steady.scheduled_load_bytes() <= cold.scheduled_load_bytes());
        prop_assert!(steady.fetched_load_bytes() < cold.fetched_load_bytes());
        let reuse = steady.reuse.unwrap();
        prop_assert_eq!(reuse.offered, reuse.elided_loads + reuse.stale);
        prop_assert_eq!(
            steady.fetched_load_bytes() + reuse.elided_load_bytes,
            steady.scheduled_load_bytes()
        );
        prop_assert!(
            reuse.elided_load_bytes * 2 > steady.scheduled_load_bytes(),
            "steady steps must elide the majority: elided {} of {}",
            reuse.elided_load_bytes,
            steady.scheduled_load_bytes()
        );
    }

    // The runtime executor agrees with the lowering's ledger: a steady step
    // fetches under half its scheduled bytes, and run through the recovery
    // executor it finishes faster than its cold step.
    #[test]
    fn runtime_decode_step_matches_the_plan_ledger(
        mem_len in 2usize..=16,
        beam in 1usize..=2,
    ) {
        let mut cfg = AccelConfig::paper_default();
        cfg.max_seq_len = 32;
        let cold_spec = DecodeStepSpec::greedy(0, mem_len, 8);
        let cold_spec = DecodeStepSpec { beam, ..cold_spec };
        let cold =
            ExecPlan::lower_decode_step(&cfg, Architecture::A2, cold_spec, &[], cfg.integrity)
                .unwrap();
        let cold_run = run_plan_with_recovery(&cfg, &cold, FaultPlan::none()).unwrap();
        prop_assert_eq!(cold.fetched_load_bytes(), cold.scheduled_load_bytes());

        let spec = DecodeStepSpec { step: 1, ..cold_spec };
        let pinned = cold.decode_pinned_stripes();
        let steady =
            ExecPlan::lower_decode_step(&cfg, Architecture::A2, spec, &pinned, cfg.integrity)
                .unwrap();
        let steady_run = run_plan_with_recovery(&cfg, &steady, FaultPlan::none()).unwrap();
        prop_assert!(steady.fetched_load_bytes() * 2 < steady.scheduled_load_bytes());
        prop_assert!(steady_run.makespan_s < cold_run.makespan_s);
    }
}
