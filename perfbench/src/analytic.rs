//! Modeled-clock per-layer figures that depend on no workload input: the
//! paper build's plan at s = 32 priced by the program's own `walk_cost`
//! (its `Timeline` spans `LWE*`/`CE*`/`LWD*`/`CD*`), the A2 decode analytics,
//! the serve build's batch makespans and the stream build's chunk costs.
//! Every traced run reports them, whatever its workload.

use crate::metrics::Metrics;
use crate::stats::{time_batched, Dist};
use crate::Run;
use asr_accel::{
    decode_analytics, run_plan, stream_analytics, walk_cost, AccelConfig, Architecture,
    DecodeAnalytics, ExecPlan, HostController, PlanCost, ServeConfig, StreamConfig,
};
use asr_systolic::abft::IntegrityLevel;

/// The paper's measured end-to-end latency at s = 32 (§5.1.6), ms.
const PAPER_E2E_MS: f64 = 120.45;
/// Host timing: batches of at least this long, this many batches.
const BATCH_S: f64 = 0.010;
const BATCHES: usize = 15;

fn lower(cfg: &AccelConfig, s: usize, batch: usize) -> ExecPlan {
    ExecPlan::lower(cfg, Architecture::A3, s, batch, IntegrityLevel::Off)
        .expect("paper build lowers")
}

/// Utterances per modeled second of the batch-8 s = 32 plan, with its cost.
pub fn batch8(cfg: &AccelConfig) -> (f64, PlanCost) {
    let cost = walk_cost(cfg, &lower(cfg, 32, 8));
    (8.0 / cost.latency_s, cost)
}

/// Beam decode on A2: beam 4, a 32-row memory, 64 steps, step 32 steady.
pub fn paper_decode(cfg: &AccelConfig) -> DecodeAnalytics {
    decode_analytics(cfg, Architecture::A2, 32, 4, 64, 32, IntegrityLevel::Off)
        .expect("paper decode lowers")
}

/// Compute time of the timeline's `C*` spans whose phase label starts with
/// `prefix` (`E` encoder, `D` decoder), ms.
fn compute_ms(cost: &PlanCost, prefix: &str) -> f64 {
    let label = format!("C{prefix}");
    cost.timeline
        .spans()
        .iter()
        .filter(|s| s.unit == "compute" && s.label.starts_with(&label))
        .map(|s| (s.end - s.start) * 1e3)
        .sum()
}

pub fn report(run: &mut Run, m: &mut Metrics) {
    let cfg = AccelConfig::paper_default();
    let host = HostController::new(cfg.clone()).expect("paper configuration is valid");
    let e2e_ms = host.latency_report(32).total_s * 1e3;
    m.set("plan.modeled_e2e_ms", e2e_ms);
    m.set("plan.paper_error_pct", (e2e_ms / PAPER_E2E_MS - 1.0) * 100.0);

    let plan = lower(&cfg, 32, 1);
    let cost = walk_cost(&cfg, &plan);
    m.set("plan.load_ms", cost.load_total_s * 1e3);
    m.set("plan.compute_ms", cost.compute_total_s * 1e3);
    m.set("plan.stall_ms", cost.compute_stall_s * 1e3);
    m.set("plan.encoder_compute_ms", compute_ms(&cost, "E"));
    m.set("plan.decoder_compute_ms", compute_ms(&cost, "D"));
    m.set("plan.hbm_mb", plan.scheduled_load_bytes() as f64 / 1e6);

    let (utt_per_s, batch8) = batch8(&cfg);
    m.set("plan.modeled_utt_per_s", utt_per_s);
    m.set("plan.batch8_compute_ms", batch8.compute_total_s * 1e3);
    m.set("plan.batch8_stall_ms", batch8.compute_stall_s * 1e3);

    let da = paper_decode(&cfg);
    m.set("plan.modeled_ms_per_token", da.steady_ms_per_token);
    m.set("plan.decode_cold_ms", da.cold.latency_s * 1e3);
    m.set("plan.decode_steady_kb", da.steady_step_bytes as f64 / 1024.0);
    m.set("plan.decode_elided_frac", da.elided_fraction);

    // Host clock: lowering and walking, timed in batches, interleaved.
    let (mut lower_us, mut walk_us) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        lower_us.push(time_batched(BATCH_S, || lower(&cfg, 32, 1)).0 * 1e6);
        walk_us.push(time_batched(BATCH_S, || walk_cost(&cfg, &plan)).0 * 1e6);
    }
    let (lower_us, walk_us) = (Dist::of(&lower_us), Dist::of(&walk_us));
    m.set("plan.lower_us", lower_us.median);
    m.set("plan.lower_us_min", lower_us.min);
    m.set("plan.walk_us", walk_us.median);
    m.set("plan.walk_us_min", walk_us.min);
    m.set("plan.host_samples", lower_us.n as f64);

    let serve = ServeConfig::new(2, 0, 120.0, 0.2).accel;
    for b in [1usize, 2, 4, 8] {
        let ms = run_plan(&serve, &lower(&serve, serve.max_seq_len, b)).makespan_s * 1e3;
        m.set(&format!("host_runtime.batch_ms_b{b}"), ms);
    }

    let sa = stream_analytics(&StreamConfig::new(4, 1, 4, 0.060)).expect("stream build prices");
    m.set("stream.cold_chunk_ms", sa.cold_chunk_s * 1e3);
    m.set("stream.warm_chunk_ms", sa.warm_chunk_s * 1e3);
    run.note(format!(
        "modeled: e2e {e2e_ms:.3} ms (paper {PAPER_E2E_MS} ms), steady decode {:.3} ms/token",
        da.steady_ms_per_token
    ));
}
