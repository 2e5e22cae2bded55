//! Property tests for barrier-granular plan checkpointing (DESIGN.md §12):
//! resume-equals-straight-run bit identity at any cut, exhaustive barrier
//! cuts, poisoned-checkpoint rejection with a clean restart path,
//! utterance conservation across single- and double-fault failovers, and
//! rewritten checkpoints refused typed or resumed cleanly.
#![recursion_limit = "1024"]

use asr_accel::host_runtime::{run_plan, run_plan_with_recovery};
use asr_accel::integrity::{
    functional_checkpoint_at, resume_functional_plan, run_functional_plan, small_config,
    FunctionalFaults,
};
use asr_accel::plan::{walk_cost, ExecPlan, PlanCheckpoint};
use asr_accel::{AccelConfig, AccelError, Architecture};
use asr_fpga_sim::{FaultKind, FaultPlan};
use asr_systolic::abft::IntegrityLevel;
use asr_tensor::WeightEncoding;
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
        let failure = match run_plan_with_recovery(&cfg, &plan, kill) {
            // The ladder found a rung (e.g. the label only matched a phase
            // another arch renames): no lost work, nothing to resume.
            Ok(run) => {
                prop_assert_eq!(run.utterance_finish_s.len(), batch);
                return Ok(());
            }
            Err(f) => f,
        };
        let ckpt = failure.checkpoint.as_ref().expect("mid-run failures checkpoint");
        let suffix = ExecPlan::resume(&cfg, ckpt).unwrap();
        let resumed = run_plan_with_recovery(&cfg, &suffix, FaultPlan::none()).unwrap();
        prop_assert_eq!(
            ckpt.finished_utterances + resumed.utterance_finish_s.len(),
            batch,
            "every utterance served exactly once across the cut"
        );
        let full = run_plan_with_recovery(&cfg, &plan, FaultPlan::none()).unwrap();
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
        let kill = |k: usize| {
            FaultPlan::none().with(FaultKind::HbmLoadError {
                label: format!("LW{}", plan.phases[k].label),
                failing_attempts: u32::MAX,
            })
        };
        let f1 = match run_plan_with_recovery(&cfg, &plan, kill(k1)) {
            Ok(run) => {
                prop_assert_eq!(run.utterance_finish_s.len(), batch);
                return Ok(());
            }
            Err(f) => f,
        };
        let c1 = f1.checkpoint.as_ref().expect("first failure checkpoints");
        let suffix = ExecPlan::resume(&cfg, c1).unwrap();
        match run_plan_with_recovery(&cfg, &suffix, kill(k2)) {
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
                let last = ExecPlan::resume(&cfg, c2).unwrap();
                let done = run_plan_with_recovery(&cfg, &last, FaultPlan::none()).unwrap();
                prop_assert_eq!(done.utterance_finish_s.len(), c2.remaining_lens().len());
            }
        }
    }
}

/// The integrity levels a checkpoint can name.
const LEVELS: [IntegrityLevel; 3] =
    [IntegrityLevel::Off, IntegrityLevel::Detect, IntegrityLevel::DetectAndRecompute];

/// Rewrite one field of a checkpoint — `field` picks which, `v` drives the
/// new value — as a stale, hand-edited or foreign checkpoint would arrive.
fn rewrite(ckpt: &mut PlanCheckpoint, field: usize, v: u64) {
    let u = v as usize;
    match field {
        0 => ckpt.arch = Architecture::ALL[u % 3],
        1 => ckpt.integrity = LEVELS[u % 3],
        2 => ckpt.seq_len = u % 12,
        3 => match (u % 3, ckpt.input_lens.len()) {
            (0, _) | (_, 0) => ckpt.input_lens.push(u % 12),
            (1, _) => drop(ckpt.input_lens.pop()),
            (_, n) => ckpt.input_lens[u / 3 % n] = u % 12,
        },
        4 => {
            let n = ckpt.phase_labels.len().max(1);
            let label = ["E1", "D1", "D1m", "D6f", "CTX", "X"][u / n % 6];
            match ckpt.phase_labels.get_mut(u % n) {
                Some(l) => *l = label.into(),
                None => ckpt.phase_labels.push(label.into()),
            }
        }
        5 => match u % 2 {
            0 => ckpt.phase_bytes.push(v),
            _ => drop(ckpt.phase_bytes.pop()),
        },
        6 => ckpt.finished_utterances = u % 5,
        7 => ckpt.finished_s = (0..u % 4).map(|k| (k + 1) as f64 * 1e-3).collect(),
        8 => ckpt.completed_phases = u % 30,
        9 => ckpt.loaded_phases = u % 30,
        10 | 11 if ckpt.resident.is_empty() => ckpt.loaded_phases = u % 30,
        10 => {
            let n = ckpt.resident.len();
            ckpt.resident[u % n].phase = u / n % 30;
        }
        11 => {
            let n = ckpt.resident.len();
            ckpt.resident[u % n].version = (u / n % 3) as u64;
        }
        12 => ckpt.weight_version = v % 3,
        _ => {
            ckpt.encoding = [
                WeightEncoding::Dense,
                WeightEncoding::Int8,
                WeightEncoding::BlockCirculant { block: 8 },
                WeightEncoding::SparseTiles { tile: 4, occupancy_pct: 60 },
            ][u % 4]
        }
    }
}

proptest! {
    #![proptest_config(env_cases(64))]

    // A cut checkpoint with 1–3 fields rewritten — the schedule identity,
    // the batch, the phase table, the finished prefix, a frontier, a
    // resident stripe, the weight version or the encoding — is refused
    // typed, or resumes into a plan that the walker and the runtime price
    // to the same finite makespan. It never panics. `ExecPlan::resume`
    // reads the architecture, integrity level and batch from the checkpoint
    // itself, so this is what holds those fields to account.
    #[test]
    fn a_rewritten_checkpoint_is_refused_typed_or_resumes_cleanly(
        arch in prop::sample::select(Architecture::ALL.to_vec()),
        integrity in prop::sample::select(LEVELS.to_vec()),
        batch in 1usize..=3,
        (completed, ahead, finished) in (0usize..64, 0usize..3, 0usize..3),
        edits in prop::collection::vec((0usize..14, 0u64..1 << 20), 1..=3),
    ) {
        let cfg = timing_cfg();
        let plan = ExecPlan::lower(&cfg, arch, 8, batch, integrity).unwrap();
        let n = plan.phases.len();
        let completed = completed % n;
        let finished_s: Vec<f64> =
            (0..finished % batch).map(|k| (k + 1) as f64 * 1e-3).collect();
        let mut ckpt =
            PlanCheckpoint::at(&plan, completed, (completed + ahead).min(n), &finished_s, 2e-3);
        for &(field, v) in &edits {
            rewrite(&mut ckpt, field, v);
        }
        match ExecPlan::resume(&cfg, &ckpt) {
            Err(e) => prop_assert!(
                matches!(e, AccelError::CheckpointRejected { .. } | AccelError::InvalidInput { .. }),
                "{:?}: untyped refusal {}",
                edits,
                e
            ),
            Ok(suffix) => {
                // A finished prefix resumes only with every phase but the
                // last computed for the whole batch.
                let cut = suffix.resume.as_ref().expect("a resumed plan carries its cut");
                prop_assert!(
                    cut.base_finished == 0 || cut.start_phase + 1 >= suffix.phases.len(),
                    "{:?}: {} finished at phase {} of {}",
                    edits,
                    cut.base_finished,
                    cut.start_phase,
                    suffix.phases.len()
                );
                let walked = walk_cost(&cfg, &suffix).latency_s;
                let ran = run_plan(&cfg, &suffix).makespan_s;
                prop_assert!(walked.is_finite() && walked > 0.0, "{:?}: walked {}", edits, walked);
                prop_assert!((walked - ran).abs() <= 1e-12, "{:?}: {} vs {}", edits, walked, ran);
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
