//! Property tests for barrier-granular plan checkpointing (DESIGN.md §12):
//! resume-equals-straight-run bit identity at any cut, exhaustive barrier
//! cuts, poisoned-checkpoint rejection with a clean restart path, and
//! utterance conservation across single- and double-fault failovers.
#![recursion_limit = "1024"]

use asr_accel::host_runtime::{run_plan_with_recovery, RecoveryPolicy};
use asr_accel::integrity::{
    functional_checkpoint_at, resume_functional_plan, run_functional_plan, small_config,
    FunctionalFaults,
};
use asr_accel::plan::ExecPlan;
use asr_accel::{AccelConfig, AccelError, Architecture};
use asr_fpga_sim::{FaultKind, FaultPlan};
use asr_systolic::abft::IntegrityLevel;
use asr_transformer::weights::ModelWeights;
use proptest::prelude::*;

/// Case count: `PROPTEST_CASES` when set (the CI deep-proptest job exports
/// 512), else the tier-1 default. The vendored proptest does not read the
/// environment itself, so the config expression does.
fn env_cases(default: u32) -> ProptestConfig {
    let cases =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

/// The functional path's config: tiny model, full integrity so seeded
/// silent faults exercise the CRC/ABFT envelope across the cut.
fn func_cfg() -> AccelConfig {
    let mut c = small_config();
    c.integrity = IntegrityLevel::DetectAndRecompute;
    c
}

/// The timing path's config: paper shapes at a short built length so each
/// proptest case stays cheap.
fn timing_cfg() -> AccelConfig {
    let mut c = AccelConfig::paper_default();
    c.max_seq_len = 8;
    c
}

fn assert_bit_identical(
    resumed: &asr_accel::integrity::BatchIntegrityRun,
    straight: &asr_accel::integrity::BatchIntegrityRun,
) {
    assert_eq!(resumed.utterances.len(), straight.utterances.len());
    for (r, s) in resumed.utterances.iter().zip(&straight.utterances) {
        assert_eq!(r.encoder_out, s.encoder_out, "encoder bits must match");
        assert_eq!(r.decoder_out, s.decoder_out, "decoder bits must match");
        assert_eq!(r.transcript, s.transcript, "transcripts must match");
    }
}

proptest! {
    #![proptest_config(env_cases(8))]

    // The tentpole identity: for ANY functional fault seed and ANY barrier
    // cut, running the prefix, checkpointing, and resuming the suffix is
    // bit-identical to the uninterrupted run — silent-fault injection,
    // CRC scrubbing, and ABFT recompute included.
    #[test]
    fn functional_resume_matches_straight_run_at_any_cut(
        fault_seed in 0u64..1024,
        cut_pick in 0usize..64,
        model_seed in 1u64..16,
    ) {
        let cfg = func_cfg();
        let seeds = [31u64, 32];
        let plan =
            ExecPlan::lower(&cfg, Architecture::A2, 4, seeds.len(), cfg.integrity).unwrap();
        let n_stripes = ModelWeights::seeded(&cfg.model, model_seed).matrices().len();
        let faults = FunctionalFaults::seeded(fault_seed, n_stripes, cfg.psa.cols);
        let cut = cut_pick % (plan.phases.len() + 1);
        let straight = run_functional_plan(&cfg, &plan, model_seed, &seeds, &faults).unwrap();
        let ckpt =
            functional_checkpoint_at(&cfg, &plan, model_seed, &seeds, &faults, cut).unwrap();
        let resumed = resume_functional_plan(&cfg, &plan, &ckpt, &seeds, &faults).unwrap();
        assert_bit_identical(&resumed, &straight);
    }

    // A checkpoint whose activation state was tampered with (any utterance,
    // any element, any bit) is rejected with the typed error — and the
    // clean full-restart path stays open afterwards.
    #[test]
    fn poisoned_checkpoint_is_rejected_and_restart_stays_clean(
        cut_pick in 1usize..64,
        poison_idx in 0usize..4096,
        bit in 0u32..23, // mantissa bits: always representable, never NaN-safe-equal
    ) {
        let mut cfg = func_cfg();
        cfg.integrity = IntegrityLevel::Detect;
        let seeds = [5u64];
        let plan = ExecPlan::lower(&cfg, Architecture::A2, 4, 1, cfg.integrity).unwrap();
        let cut = 1 + cut_pick % plan.phases.len();
        let mut ckpt =
            functional_checkpoint_at(&cfg, &plan, 9, &seeds, &FunctionalFaults::none(), cut)
                .unwrap();
        let xs = ckpt.xs[0].as_mut_slice();
        let i = poison_idx % xs.len();
        xs[i] = f32::from_bits(xs[i].to_bits() ^ (1 << bit));
        let err = resume_functional_plan(&cfg, &plan, &ckpt, &seeds, &FunctionalFaults::none())
            .unwrap_err();
        prop_assert!(
            matches!(err, AccelError::CheckpointRejected { .. }),
            "expected CheckpointRejected, got {}",
            err
        );
        run_functional_plan(&cfg, &plan, 9, &seeds, &FunctionalFaults::none()).unwrap();
    }
}

proptest! {
    #![proptest_config(env_cases(16))]

    // Kill any phase's weight load persistently: either the recovery ladder
    // absorbs it (every utterance still served), or the run dies carrying a
    // checkpoint whose resume serves exactly the remaining utterances with
    // strictly less work than a full restart once any phase was banked.
    #[test]
    fn killed_batch_resumes_with_every_utterance_served_exactly_once(
        phase_pick in 0usize..64,
        batch in 1usize..=3,
        arch in prop::sample::select(vec![Architecture::A2, Architecture::A3]),
    ) {
        let cfg = timing_cfg();
        let plan = ExecPlan::lower(&cfg, arch, 8, batch, cfg.integrity).unwrap();
        let k = phase_pick % plan.phases.len();
        let label = format!("LW{}", plan.phases[k].label);
        let kill = FaultPlan::none()
            .with(FaultKind::HbmLoadError { label, failing_attempts: u32::MAX });
        let policy = RecoveryPolicy::default();
        let failure = match run_plan_with_recovery(&cfg, &plan, kill, &policy) {
            // The ladder found a rung (e.g. the label only matched a phase
            // another arch renames): no lost work, nothing to resume.
            Ok(run) => {
                prop_assert_eq!(run.utterance_finish_s.len(), batch);
                return Ok(());
            }
            Err(f) => f,
        };
        let ckpt = failure.checkpoint.as_ref().expect("mid-run failures checkpoint");
        let suffix = ExecPlan::resume(&cfg, ckpt, false).unwrap();
        let resumed = run_plan_with_recovery(&cfg, &suffix, FaultPlan::none(), &policy).unwrap();
        prop_assert_eq!(
            ckpt.finished_utterances + resumed.utterance_finish_s.len(),
            batch,
            "every utterance served exactly once across the cut"
        );
        let full = run_plan_with_recovery(&cfg, &plan, FaultPlan::none(), &policy).unwrap();
        prop_assert!(resumed.loads_issued <= full.loads_issued);
        if ckpt.completed_phases > 0 {
            prop_assert!(resumed.loads_issued < full.loads_issued,
                "a banked frontier must skip loads ({} vs {})",
                resumed.loads_issued, full.loads_issued);
            prop_assert!(resumed.makespan_s < full.makespan_s,
                "a banked frontier must finish sooner ({} vs {})",
                resumed.makespan_s, full.makespan_s);
        }
    }

    // A second hard fault while executing a resumed suffix advances the
    // frontier (or at worst holds it) and the final clean resume serves
    // exactly the utterances the newest checkpoint says remain — never a
    // duplicate, never a drop.
    #[test]
    fn double_fault_during_resume_conserves_utterances(
        first_pick in 0usize..64,
        second_pick in 0usize..64,
        batch in 1usize..=3,
    ) {
        let cfg = timing_cfg();
        let arch = Architecture::A2;
        let plan = ExecPlan::lower(&cfg, arch, 8, batch, cfg.integrity).unwrap();
        let n = plan.phases.len();
        let (k1, k2) = (first_pick % n, second_pick % n);
        let policy = RecoveryPolicy::default();
        let kill = |k: usize| {
            FaultPlan::none().with(FaultKind::HbmLoadError {
                label: format!("LW{}", plan.phases[k].label),
                failing_attempts: u32::MAX,
            })
        };
        let f1 = match run_plan_with_recovery(&cfg, &plan, kill(k1), &policy) {
            Ok(run) => {
                prop_assert_eq!(run.utterance_finish_s.len(), batch);
                return Ok(());
            }
            Err(f) => f,
        };
        let c1 = f1.checkpoint.as_ref().expect("first failure checkpoints");
        let suffix = ExecPlan::resume(&cfg, c1, false).unwrap();
        match run_plan_with_recovery(&cfg, &suffix, kill(k2), &policy) {
            // Second kill targeted the completed prefix: the suffix never
            // re-issues that load, so the resume sails through.
            Ok(run) => {
                prop_assert_eq!(c1.finished_utterances + run.utterance_finish_s.len(), batch);
            }
            Err(f2) => {
                let c2 = f2.checkpoint.as_ref().expect("second failure re-checkpoints");
                prop_assert!(c2.completed_phases >= c1.completed_phases,
                    "the frontier never moves backwards");
                prop_assert!(c2.remaining_lens().len() <= c1.remaining_lens().len());
                let last = ExecPlan::resume(&cfg, c2, false).unwrap();
                let done = run_plan_with_recovery(&cfg, &last, FaultPlan::none(), &policy).unwrap();
                prop_assert_eq!(done.utterance_finish_s.len(), c2.remaining_lens().len());
            }
        }
    }
}

/// Exhaustive complement to the sampled identity above: EVERY barrier cut
/// of one faulted plan resumes bit-identically, boundaries included (cut 0
/// replays everything, cut == phases resumes an already-finished run).
#[test]
fn every_barrier_cut_resumes_bit_identically() {
    let cfg = func_cfg();
    let seeds = [21u64, 22];
    // A2 granularity: the functional interpreter needs full decoder phases.
    let plan = ExecPlan::lower(&cfg, Architecture::A2, 4, seeds.len(), cfg.integrity).unwrap();
    let n_stripes = ModelWeights::seeded(&cfg.model, 11).matrices().len();
    let faults = FunctionalFaults::seeded(7, n_stripes, cfg.psa.cols);
    let straight = run_functional_plan(&cfg, &plan, 11, &seeds, &faults).unwrap();
    for cut in 0..=plan.phases.len() {
        let ckpt = functional_checkpoint_at(&cfg, &plan, 11, &seeds, &faults, cut).unwrap();
        let resumed = resume_functional_plan(&cfg, &plan, &ckpt, &seeds, &faults).unwrap();
        assert_bit_identical(&resumed, &straight);
    }
}
