//! `asrsim` — command-line front end to the accelerator simulator.
//!
//! ```text
//! asrsim latency   [--s N]             E2E latency report (§5.1.6)
//! asrsim report    [--s N]             combined latency/resource/energy report
//! asrsim arch      [--s N]             A1/A2/A3 comparison at one length
//! asrsim dse                           Table 5.3 design-space exploration
//! asrsim quant                         fixed-point (int8) report (§6.2)
//! asrsim breakdown [--s N]             per-block latency breakdown (§5.1.4)
//! asrsim pipeline  [--s N] [--n K]     pipelined batch throughput
//! asrsim trace <out.json> [--s N]      A3 schedule as Chrome trace JSON
//! asrsim plan      [--s N] [--arch a1|a2|a3] [--batch B]
//!                  [--integrity off|detect|detect-recompute]
//!                  [--encoding dense|int8|bc:<B>|sparse:<T>[@OCC]]
//!                                      lowered ExecPlan dump: command counts,
//!                                      prefetch edges, critical path,
//!                                      per-channel HBM load bytes, and the
//!                                      encoded (on-the-wire) traffic plus
//!                                      zero-tile compute skipped by the
//!                                      chosen stripe encoding
//! asrsim plan --decode [--s N] [--arch a1|a2|a3] [--beam B] [--steps T]
//!                  [--step K] [--integrity off|detect|detect-recompute]
//!                                      per-step decode plans: cold vs
//!                                      steady-state load bytes, the elided
//!                                      fraction KV residency buys, and the
//!                                      steady ms/token critical path
//! asrsim decode    [--beam B] [--steps T] [--mem M] [--fault-seed S]
//!                                      functional decode smoke: runs the
//!                                      plan-lowered beam decode clean and
//!                                      under seeded silent faults, fails on
//!                                      any transcript divergence or if the
//!                                      steady steps elide nothing
//! asrsim csv <fig5.2|table5.1|ii>      sweep data as CSV on stdout
//! asrsim faults <seed> [--s N] [--arch a1|a2|a3] [--integrity off|detect|detect-recompute]
//!                                      fault-injected run: degraded vs nominal
//! asrsim faults <seed> --checkpoint [--batch B] [--kill LABEL]
//!                                      kill a batched run mid-flight, dump the
//!                                      barrier checkpoint, then resume the
//!                                      suffix on a clean spare and compare
//!                                      against a full restart
//! asrsim --faults <seed> [--s N]       same, as a flag
//! asrsim serve [--devices N] [--faults SEED] [--rps R] [--deadline-ms D]
//!              [--n K] [--queue Q] [--batch B] [--linger-ms L]
//!              [--integrity off|detect|detect-recompute]
//!              [--checkpoint] [--kill LABEL]
//!                                      multi-device serving runtime with
//!                                      dynamic batching; --checkpoint resumes
//!                                      failed batches from their barrier
//!                                      frontier, --kill plants a persistent
//!                                      load fault on card 0
//! asrsim stream [--streams N] [--chunk-ms C] [--deadline-ms D]
//!               [--faults SEED] [--jitter-ms J] [--devices K] [--chunks M]
//!               [--integrity off|detect|detect-recompute]
//!                                      fault-tolerant streaming sessions:
//!                                      chunked plans with resident-weight
//!                                      reuse, per-chunk deadlines with stale
//!                                      shedding, bounded session queues, and
//!                                      mid-stream failover that replays only
//!                                      the unfinished chunk
//! asrsim cluster [--nodes N] [--devices K] [--rps R] [--deadline-ms D]
//!                [--n REQS] [--sessions S] [--seed SEED]
//!                [--trace steady|diurnal|bursty] [--no-checkpoint]
//!                [--kill-node N@T] [--dropout N@T+O] [--hbm-burst N@T]
//!                [--partition N@T+D] [--upgrade V] [--upgrade-at T]
//!                                      multi-node cluster: each node is one
//!                                      fault domain (a ServePool) behind a
//!                                      session-affinity router; node-granular
//!                                      faults, cross-node checkpointed
//!                                      failover, rolling weight upgrades
//! ```
//!
//! Failures are one-line typed errors with distinct exit codes so scripts
//! can tell them apart: 2 = usage (unknown command or missing argument),
//! 3 = bad value, 4 = contradictory flags, 5 = configuration or run the
//! simulator refused, 6 = filesystem error.

use std::process::ExitCode;
use transformer_asr_accel::accel::arch::{simulate, Architecture};
use transformer_asr_accel::accel::cluster::{
    Cluster, ClusterConfig, NodeFault, TrafficTrace, UpgradeConfig,
};
use transformer_asr_accel::accel::serve::{pool_fault_plans, ServeConfig, ServePool, ServeReport};
use transformer_asr_accel::accel::stream::{
    StreamConfig, StreamPool, CHUNK_STEPS, LEFT_CONTEXT, SESSION_QUEUE,
};
use transformer_asr_accel::accel::{
    decode_analytics, dse, latency, quant, run_functional_decode, run_plan, run_plan_with_recovery,
    sweep, walk_cost, AccelConfig, AccelError, ExecPlan, FunctionalFaults, HostController,
};
use transformer_asr_accel::fpga::trace::to_chrome_trace;
use transformer_asr_accel::fpga::{FaultKind, FaultPlan};
use transformer_asr_accel::systolic::abft::IntegrityLevel;
use transformer_asr_accel::tensor::WeightEncoding;

/// Typed one-line CLI failure. Each variant maps to its own exit code so a
/// harness can distinguish a typo (3) from an impossible combination (4)
/// from a configuration the simulator itself refused (5).
#[derive(Debug)]
enum CliError {
    /// Unknown command or missing required argument (exit 2).
    Usage(String),
    /// A value failed to parse or is out of range (exit 3).
    BadValue(String),
    /// Flags that are valid alone but contradictory together (exit 4).
    BadCombo(String),
    /// The simulator rejected the configuration or run with a typed error
    /// (exit 5).
    Rejected(String),
    /// Filesystem failure (exit 6).
    Io(String),
}

impl CliError {
    fn exit(self) -> ExitCode {
        let (kind, code, msg) = match &self {
            CliError::Usage(m) => ("usage", 2, m),
            CliError::BadValue(m) => ("bad value", 3, m),
            CliError::BadCombo(m) => ("bad combination", 4, m),
            CliError::Rejected(m) => ("rejected", 5, m),
            CliError::Io(m) => ("io error", 6, m),
        };
        eprintln!("asrsim: {}: {}", kind, msg);
        ExitCode::from(code)
    }
}

/// Every simulator error is a typed refusal of the requested configuration
/// or run.
impl From<AccelError> for CliError {
    fn from(e: AccelError) -> Self {
        CliError::Rejected(e.to_string())
    }
}

fn finish(r: Result<(), CliError>) -> ExitCode {
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.exit(),
    }
}

/// `flag`'s value through `parse`, or `default` when the flag is absent. A
/// present flag with a missing or unparsable value is a typed error saying
/// what the flag `expects`.
fn parse_flag_value<T>(
    args: &[String],
    flag: &str,
    default: T,
    expects: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, CliError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let v = args.get(i + 1).map(String::as_str).unwrap_or("");
    parse(v).ok_or_else(|| CliError::BadValue(format!("{} expects {}, got '{}'", flag, expects, v)))
}

fn parse_usize_strict(args: &[String], flag: &str, default: usize) -> Result<usize, CliError> {
    parse_flag_value(args, flag, default, "an unsigned integer", |v| v.parse().ok())
}

/// A count flag (beam width, steps, batch, utterances, requests, queue
/// capacity, streams, chunks, sessions, nodes, cards per node): an integer
/// of at least 1. Zero is a bad value, not a request for one.
fn parse_count(args: &[String], flag: &str, default: usize) -> Result<usize, CliError> {
    parse_flag_value(args, flag, default, "an integer >= 1", |v| v.parse().ok().filter(|&n| n >= 1))
}

/// The values a time or rate flag accepts.
#[derive(Clone, Copy)]
enum Range {
    /// A finite number `> 0`: a rate, a deadline, a chunk cadence.
    Positive,
    /// A finite number `>= 0`, where zero means none: a linger, a jitter.
    NonNegative,
}

/// A time or rate flag, read as a finite number in `range`. A value
/// outside it is a bad value, like an unparsable one; a positive deadline
/// too short for the build is left for the simulator to refuse.
fn parse_f64_in(args: &[String], flag: &str, default: f64, range: Range) -> Result<f64, CliError> {
    let (expects, in_range): (&str, fn(f64) -> bool) = match range {
        Range::Positive => ("a finite number > 0", |x| x > 0.0),
        Range::NonNegative => ("a finite number >= 0", |x| x >= 0.0),
    };
    parse_flag_value(args, flag, default, expects, |v| {
        v.parse::<f64>().ok().filter(|&x| x.is_finite() && in_range(x))
    })
}

/// The positional argument after the command. Missing, or a flag in its
/// place, is a usage error.
fn positional<'a>(args: &'a [String], usage: &str) -> Result<&'a str, CliError> {
    args.get(1)
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage(usage.to_string()))
}

/// Every value of a repeatable flag, in order.
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == flag)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// `NODE@TIME` or `NODE@TIME+DURATION` fault spec (e.g. `0@0.5`, `1@0.5+0.3`).
fn parse_fault_spec(flag: &str, v: &str, duration: bool) -> Result<(usize, f64, f64), CliError> {
    let shape = if duration { "NODE@TIME+DURATION" } else { "NODE@TIME" };
    let bad = || CliError::BadValue(format!("{} expects {}, got '{}'", flag, shape, v));
    let (node_s, rest) = v.split_once('@').ok_or_else(bad)?;
    let node: usize = node_s.parse().map_err(|_| bad())?;
    let (at_s, dur_s) = if duration {
        let (t, d) = rest.split_once('+').ok_or_else(bad)?;
        (t.parse::<f64>().map_err(|_| bad())?, d.parse::<f64>().map_err(|_| bad())?)
    } else {
        (rest.parse::<f64>().map_err(|_| bad())?, 0.0)
    };
    if !at_s.is_finite() || !dur_s.is_finite() || at_s < 0.0 || dur_s < 0.0 {
        return Err(bad());
    }
    Ok((node, at_s, dur_s))
}

fn parse_str_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// `--integrity off|detect|detect-recompute` (default off).
fn parse_integrity_flag(args: &[String]) -> Result<IntegrityLevel, CliError> {
    parse_flag_value(
        args,
        "--integrity",
        IntegrityLevel::Off,
        "off, detect, or detect-recompute",
        |v| IntegrityLevel::parse(&v.to_ascii_lowercase()),
    )
}

/// `--encoding dense|int8|bc:<B>|sparse:<T>[@OCC]` (default dense).
fn parse_encoding_flag(args: &[String]) -> Result<WeightEncoding, CliError> {
    parse_flag_value(
        args,
        "--encoding",
        WeightEncoding::Dense,
        "dense, int8, bc:<B>, or sparse:<T>[@OCC]",
        |v| parse_encoding(&v.to_ascii_lowercase()),
    )
}

fn parse_encoding(v: &str) -> Option<WeightEncoding> {
    match v {
        "dense" => Some(WeightEncoding::Dense),
        "int8" => Some(WeightEncoding::Int8),
        _ => {
            if let Some(block) = v.strip_prefix("bc:") {
                return Some(WeightEncoding::BlockCirculant { block: block.parse().ok()? });
            }
            let rest = v.strip_prefix("sparse:")?;
            let (tile, occupancy_pct) = match rest.split_once('@') {
                Some((t, o)) => (t.parse().ok()?, o.parse().ok()?),
                None => (rest.parse().ok()?, 100),
            };
            Some(WeightEncoding::SparseTiles { tile, occupancy_pct })
        }
    }
}

/// `--arch a1|a2|a3` (default A3).
fn parse_arch_flag(args: &[String]) -> Result<Architecture, CliError> {
    parse_flag_value(args, "--arch", Architecture::A3, "a1, a2, or a3", |v| {
        match v.to_ascii_lowercase().as_str() {
            "a1" => Some(Architecture::A1),
            "a2" => Some(Architecture::A2),
            "a3" => Some(Architecture::A3),
            _ => None,
        }
    })
}

/// Longest sequence length `--s` accepts: every subcommand that reads it
/// builds the bitstream at exactly that length.
const MAX_SEQ_LEN: usize = 512;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    finish(run(&args))
}

fn run(args: &[String]) -> Result<(), CliError> {
    const COMMANDS: &str =
        "latency|report|arch|dse|quant|breakdown|pipeline|trace|plan|decode|csv|faults|serve|stream|cluster";
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage(format!("asrsim <{}> [options]", COMMANDS)));
    };
    let s = || {
        parse_flag_value(args, "--s", 32, "a sequence length in 1..=512", |v| {
            v.parse().ok().filter(|s| (1..=MAX_SEQ_LEN).contains(s))
        })
    };

    match cmd.as_str() {
        "latency" => cmd_latency(s()?),
        "report" => cmd_report(s()?),
        "arch" => cmd_arch(s()?),
        "dse" => cmd_dse(),
        "quant" => cmd_quant(),
        "breakdown" => cmd_breakdown(s()?),
        "pipeline" => cmd_pipeline(s()?, parse_count(args, "--n", 10)?),
        "trace" => return cmd_trace(positional(args, "asrsim trace <out.json> [--s N]")?, s()?),
        "csv" => return cmd_csv(positional(args, "asrsim csv <fig5.2|table5.1|ii>")?),
        // `asrsim --faults <seed>` is the flag form of the `faults`
        // subcommand. Only when it leads: `serve` owns its own `--faults`.
        "faults" | "--faults" => {
            let usage = format!("asrsim {} <seed> [--s N] [--arch a1|a2|a3]", cmd);
            let v = positional(args, &usage)?;
            let seed = v.parse().map_err(|_| {
                CliError::BadValue(format!("{} expects an unsigned integer seed, got '{}'", cmd, v))
            })?;
            return cmd_faults(seed, s()?, args);
        }
        "plan" => return cmd_plan(s()?, args),
        "decode" => return cmd_decode(args),
        "serve" => return cmd_serve(args),
        "stream" => return cmd_stream(args),
        "cluster" => return cmd_cluster(args),
        other => {
            return Err(CliError::Usage(format!(
                "unknown command '{}' (expected {})",
                other, COMMANDS
            )));
        }
    }
    Ok(())
}

fn unpadded(s: usize) -> AccelConfig {
    let mut c = AccelConfig::paper_default();
    c.max_seq_len = s;
    c
}

fn cmd_latency(s: usize) {
    let host = HostController::new(unpadded(s)).expect("paper default config is valid");
    let r = host.latency_report(s);
    println!("sequence length      : {} (built {})", r.input_len, r.seq_len);
    println!("preprocessing        : {:8.2} ms", r.preprocessing_s * 1e3);
    println!("accelerator (A3)     : {:8.2} ms", r.accelerator_s * 1e3);
    println!("end to end           : {:8.2} ms", r.total_s * 1e3);
    println!("throughput           : {:8.2} seq/s", r.throughput_seq_per_s);
    println!("workload             : {:8.2} GFLOPs", r.gflops);
    println!("sustained            : {:8.2} GFLOPs/s", r.gflops_per_s);
    println!("energy efficiency    : {:8.3} GFLOPs/J", r.gflops_per_joule);
}

fn cmd_report(s: usize) {
    use transformer_asr_accel::accel::report;
    let r = report::generate(&unpadded(s));
    print!("{}", report::render(&r));
}

fn cmd_arch(s: usize) {
    let cfg = unpadded(s);
    println!("{:>6} {:>12} {:>12} {:>10}", "arch", "latency(ms)", "stall(ms)", "vs A1");
    let a1 = simulate(&cfg, Architecture::A1, s).latency_s;
    for a in Architecture::ALL {
        let r = simulate(&cfg, a, s);
        println!(
            "{:>6} {:>12.2} {:>12.2} {:>9.2}x",
            a.name(),
            r.latency_s * 1e3,
            r.compute_stall_s * 1e3,
            a1 / r.latency_s
        );
    }
}

fn cmd_dse() {
    let base = AccelConfig::paper_default();
    println!("{:>6} {:>10} {:>12} {:>6}", "heads", "psas/head", "latency(ms)", "fits");
    for p in dse::enumerate(&base, &dse::SearchSpace::table_5_3(&base)) {
        println!(
            "{:>6} {:>10} {:>12.2} {:>6}",
            p.parallel_heads,
            p.psas_per_head,
            p.latency_ms,
            if p.fits { "yes" } else { "NO" }
        );
    }
}

fn cmd_quant() {
    let r = quant::report(&AccelConfig::paper_default());
    println!("fp32 latency : {:8.2} ms", r.fp32_latency_ms);
    println!("int8 latency : {:8.2} ms ({:.2}x)", r.int8_latency_ms, r.speedup);
    println!("fp32 fabric  : {}", r.fp32_resources.total());
    println!("int8 fabric  : {}", r.int8_resources.total());
    println!("int8 LUT     : {:.1}%", r.int8_lut_pct);
    println!("fp32 HBM     : {:>12} B scheduled per utterance", r.fp32_hbm_bytes);
    println!(
        "int8 HBM     : {:>12} B scheduled ({:.1}x lighter on the wire)",
        r.int8_hbm_bytes,
        r.fp32_hbm_bytes as f64 / r.int8_hbm_bytes.max(1) as f64
    );
}

fn cmd_breakdown(s: usize) {
    let b = latency::breakdown(&AccelConfig::paper_default(), s);
    println!("{:<36} {:>10} {:>9} {:>7}", "operation", "cycles", "ms", "% enc");
    for r in &b.rows {
        println!("{:<36} {:>10} {:>9.3} {:>6.1}%", r.name, r.cycles, r.ms, r.pct_of_encoder);
    }
    println!(
        "encoder layer total: {} cycles; decoder layer: {} cycles",
        b.encoder_total, b.decoder_total
    );
}

/// `n` utterances through the host → accelerator pipeline, read off the
/// §5.1.6 report: after the first utterance's end to end, one finishes
/// every period, the slower stage's latency.
fn cmd_pipeline(s: usize, n: usize) {
    let host = HostController::new(unpadded(s)).expect("paper default config is valid");
    let r = host.latency_report(s);
    let period = 1.0 / r.throughput_seq_per_s;
    let rate = if n > 1 { r.throughput_seq_per_s } else { 1.0 / r.total_s };
    println!("utterances           : {}", n);
    println!("total wall time      : {:8.2} ms", (r.total_s + (n - 1) as f64 * period) * 1e3);
    println!("steady-state rate    : {:8.2} seq/s", rate);
    println!("host busy            : {:8.2} ms", n as f64 * r.preprocessing_s * 1e3);
    println!("accelerator busy     : {:8.2} ms", n as f64 * r.accelerator_s * 1e3);
}

fn cmd_trace(path: &str, s: usize) -> Result<(), CliError> {
    let cfg = unpadded(s);
    let r = simulate(&cfg, Architecture::A3, s);
    std::fs::write(path, to_chrome_trace(&r.timeline))
        .map_err(|e| CliError::Io(format!("{}: {}", path, e)))?;
    println!("wrote {} spans to {}", r.timeline.spans().len(), path);
    Ok(())
}

fn cmd_faults(seed: u64, s: usize, args: &[String]) -> Result<(), CliError> {
    let arch = parse_arch_flag(args)?;
    let level = parse_integrity_flag(args)?;
    let mut cfg = unpadded(s);
    cfg.integrity = level;
    if has_flag(args, "--checkpoint") {
        return cmd_faults_checkpoint(seed, &cfg, arch, args);
    }
    let plan = FaultPlan::seeded(seed);
    println!("fault seed           : {}", seed);
    println!("architecture         : {}", arch.name());
    println!("integrity level      : {}", level.name());
    println!("injected faults      : {}", plan.faults().len());
    for f in plan.faults() {
        println!("  - {:?}", f);
    }
    let exec = ExecPlan::lower(&cfg, arch, s, 1, cfg.integrity)?;
    let run = run_plan_with_recovery(&cfg, &exec, plan).map_err(|f| f.error)?;
    let nominal_s = run_plan(&cfg, &exec).makespan_s;
    let overhead = run.makespan_s / nominal_s - 1.0;
    println!("nominal latency      : {:8.2} ms ({})", nominal_s * 1e3, run.entry_arch.name());
    println!("degraded latency     : {:8.2} ms ({})", run.makespan_s * 1e3, run.final_arch.name());
    println!("fault overhead       : {:8.2} %", overhead * 100.0);
    println!("retries              : {}", run.retries);
    let c = &run.corruption;
    if c.any_injected() || level.checks_enabled() {
        println!(
            "corruption           : {} injected, {} detected, {} refetched, {} recomputed, {} escaped",
            c.injected, c.detected, c.refetched, c.recomputed, c.escaped
        );
        if c.escaped > 0 {
            println!("                       WARNING: corrupted data reached compute undetected");
        }
    }
    if let Some(slr) = run.dead_slr {
        println!("dead SLR             : SLR{} (pool halved, relaunched on survivor)", slr);
    }
    if run.events.is_empty() {
        println!("recovery events      : none");
    } else {
        println!("recovery events      :");
        for e in &run.events {
            println!("  [{:9.3} ms] {:<16} {}", e.time_s * 1e3, e.phase, e.detail);
        }
    }
    Ok(())
}

/// `asrsim faults <seed> --checkpoint`: kill a batched run with a persistent
/// load fault, show the barrier-granular checkpoint the failure carries, then
/// resume the uncompleted suffix on a clean spare (which re-loads every
/// suffix stripe) and compare against paying for a full restart.
fn cmd_faults_checkpoint(
    seed: u64,
    cfg: &AccelConfig,
    arch: Architecture,
    args: &[String],
) -> Result<(), CliError> {
    let batch = parse_count(args, "--batch", 2)?;
    let kill = parse_str_flag(args, "--kill").unwrap_or_else(|| "LWD4".to_string());
    let s = cfg.max_seq_len;
    // The kill goes *first*: transient-fault matching is first-match-wins,
    // and a seeded plan's broad "LW" faults would mask it otherwise.
    let mut plan = FaultPlan::none()
        .with(FaultKind::HbmLoadError { label: kill.clone(), failing_attempts: u32::MAX });
    for f in FaultPlan::seeded(seed).faults() {
        plan.push(f.clone());
    }
    println!("fault seed           : {} (+ persistent kill on '{}')", seed, kill);
    println!("architecture         : {}", arch.name());
    println!("integrity level      : {}", cfg.integrity.name());
    println!("batch                : {}", batch);
    let full_plan = ExecPlan::lower(cfg, arch, s, batch, cfg.integrity)?;
    let failure = match run_plan_with_recovery(cfg, &full_plan, plan) {
        Ok(run) => {
            println!(
                "run completed        : {:8.2} ms — '{}' matched no command, nothing to resume",
                run.makespan_s * 1e3,
                kill
            );
            return Ok(());
        }
        Err(f) => f,
    };
    println!("hard fault           : {}", failure.error);
    let Some(ckpt) = failure.checkpoint else {
        return Err(CliError::Rejected(
            "no checkpoint captured (the run died before any dispatch state existed)".into(),
        ));
    };
    println!(
        "checkpoint frontier  : {}/{} phases computed, {} loaded",
        ckpt.completed_phases,
        ckpt.phase_labels.len(),
        ckpt.loaded_phases
    );
    println!(
        "finished utterances  : {}/{} left the batch before the cut",
        ckpt.finished_utterances, batch
    );
    let resident: Vec<String> = ckpt
        .resident
        .iter()
        .map(|r| format!("{} ({} B, crc {:#010x})", r.label, r.bytes, r.crc))
        .collect();
    println!(
        "resident stripes     : {}",
        if resident.is_empty() { "none".to_string() } else { resident.join(", ") }
    );
    println!(
        "banked work          : {:8.2} ms compute, {} load bytes",
        ckpt.captured_at_s * 1e3,
        ckpt.loaded_bytes()
    );
    // Fail over to a clean spare: the dead card's double-buffer residency
    // stays behind, so suffix stripes re-load.
    let resumed = ExecPlan::resume(cfg, &ckpt).and_then(|suffix| {
        run_plan_with_recovery(cfg, &suffix, FaultPlan::none()).map_err(|f| f.error)
    });
    match resumed {
        Ok(run) => {
            let res = run.resume.as_ref().expect("a resumed plan carries its accounting");
            println!(
                "resume               : ok on clean spare, suffix from phase {}",
                res.start_phase
            );
            println!("  suffix makespan    : {:8.2} ms", run.makespan_s * 1e3);
            println!(
                "  skipped by resume  : {} computes, {} load bytes",
                res.skipped_computes, res.skipped_load_bytes
            );
            println!(
                "  replayed by resume : {} loads, {} bytes",
                res.replayed_loads, res.replayed_load_bytes
            );
            let full = run_plan_with_recovery(cfg, &full_plan, FaultPlan::none()).map_err(|f| {
                CliError::Rejected(format!("full-restart baseline failed: {}", f.error))
            })?;
            println!(
                "  full restart       : {:8.2} ms, {} loads — resume saves {:8.2} ms",
                full.makespan_s * 1e3,
                full.loads_issued,
                (full.makespan_s - run.makespan_s) * 1e3
            );
        }
        Err(e) => {
            // Typed rejection (or a second hard fault): never reuse the
            // state silently — fall back to a clean full restart.
            println!("resume failed        : {}", e);
            let full = run_plan_with_recovery(cfg, &full_plan, FaultPlan::none())
                .map_err(|f| CliError::Rejected(format!("full restart failed: {}", f.error)))?;
            println!("full restart         : {:8.2} ms", full.makespan_s * 1e3);
        }
    }
    Ok(())
}

fn cmd_plan(s: usize, args: &[String]) -> Result<(), CliError> {
    let arch = parse_arch_flag(args)?;
    let level = parse_integrity_flag(args)?;
    let enc = parse_encoding_flag(args)?;
    if has_flag(args, "--decode") {
        return cmd_plan_decode(s, arch, level, enc, args);
    }
    let batch = parse_count(args, "--batch", 1)?;
    let mut cfg = unpadded(s);
    cfg.encoding = enc;
    cfg.validate()?;
    let plan = ExecPlan::lower(&cfg, arch, s, batch, level)?;
    let counts = plan.counts();
    let (buf, ser, paired) = plan.edge_counts();
    let cost = walk_cost(&cfg, &plan);
    println!("architecture         : {}", arch.name());
    println!("input length         : {} (built {})", s, plan.seq_len);
    println!("batch                : {}", plan.batch);
    println!("integrity level      : {}", level.name());
    println!("stripe encoding      : {}", cfg.encoding);
    println!("phases               : {}", plan.phases.len());
    println!(
        "commands             : {} LoadStripe, {} Compute, {} Verify, {} Barrier ({} total)",
        counts.loads,
        counts.computes,
        counts.verifies,
        counts.barriers,
        counts.total()
    );
    println!(
        "prefetch edges       : {} double-buffer, {} serialize, {} paired loads",
        buf, ser, paired
    );
    println!("critical path        : {:8.2} ms", cost.latency_s * 1e3);
    println!("load busy            : {:8.2} ms", cost.load_total_s * 1e3);
    println!("compute busy         : {:8.2} ms", cost.compute_total_s * 1e3);
    println!("compute stall        : {:8.2} ms", cost.compute_stall_s * 1e3);
    if cost.skipped_compute_s > 0.0 {
        println!(
            "zero-tile skip       : {:8.2} ms of compute elided ({:.0}% occupancy)",
            cost.skipped_compute_s * 1e3,
            (1.0 - cfg.encoding.zero_tile_fraction()) * 100.0
        );
    }
    println!("scheduled load bytes : {:>12} B (encoded, on the wire)", plan.scheduled_load_bytes());
    println!("channel load bytes   :");
    for (ch, bytes) in plan.channel_load_bytes().iter().enumerate() {
        println!("  HBM[{}]             : {:>12} B", ch, bytes);
    }
    Ok(())
}

/// `asrsim plan --decode` — the analytic decode-session shape: the cold
/// step's full weight traffic, the steady-state step that fetches only the
/// front-token embedding rows, and the per-token critical path.
fn cmd_plan_decode(
    s: usize,
    arch: Architecture,
    level: IntegrityLevel,
    enc: WeightEncoding,
    args: &[String],
) -> Result<(), CliError> {
    let beam = parse_count(args, "--beam", 1)?;
    let max_steps = parse_count(args, "--steps", 16)?;
    let steady_step = parse_usize_strict(args, "--step", max_steps / 2)?;
    if steady_step >= max_steps {
        return Err(CliError::BadValue(format!(
            "--step {} must be below --steps {}",
            steady_step, max_steps
        )));
    }
    let mut cfg = unpadded(s);
    cfg.encoding = enc;
    cfg.validate()?;
    let mem_len = cfg.max_seq_len;
    let da = decode_analytics(&cfg, arch, mem_len, beam, max_steps, steady_step, level)?;
    println!("architecture         : {}", arch.name());
    println!("encoder memory rows  : {}", mem_len);
    println!("beam / max steps     : {} / {}", beam, max_steps);
    println!("integrity level      : {}", level.name());
    println!("stripe encoding      : {}", cfg.encoding);
    println!(
        "cold step (t=0)      : {:8.3} ms critical path, {:>12} B fetched",
        da.cold.latency_s * 1e3,
        da.cold_step_bytes
    );
    let steady_hdr = format!("steady step (t={})", steady_step);
    println!(
        "{:<21}: {:8.3} ms critical path, {:>12} B fetched",
        steady_hdr,
        da.steady.latency_s * 1e3,
        da.steady_step_bytes
    );
    println!("steady ms/token      : {:8.3} ms", da.steady_ms_per_token);
    println!(
        "elided load bytes    : {:8.1} % of the scheduled step traffic",
        da.elided_fraction * 100.0
    );
    println!(
        "resident reuse       : {} offered, {} elided ({} B), {} stale",
        da.reuse.offered, da.reuse.elided_loads, da.reuse.elided_load_bytes, da.reuse.stale
    );
    Ok(())
}

/// `asrsim decode` — the functional decode smoke: run the plan-lowered beam
/// decode clean and under seeded silent faults at `detect-recompute`, and
/// fail typed if the faulted transcript diverges or residency elides
/// nothing. CI greps these lines.
fn cmd_decode(args: &[String]) -> Result<(), CliError> {
    let beam = parse_count(args, "--beam", 1)?;
    let steps = parse_count(args, "--steps", 6)?;
    let mem = parse_count(args, "--mem", 6)?;
    let fault_seed = parse_usize_strict(args, "--fault-seed", 9)? as u64;
    let mut cfg = transformer_asr_accel::accel::integrity::small_config();
    cfg.integrity = IntegrityLevel::DetectAndRecompute;
    if mem > cfg.max_seq_len {
        return Err(CliError::BadValue(format!(
            "--mem {} exceeds the smoke config's max_seq_len {}",
            mem, cfg.max_seq_len
        )));
    }
    let clean = run_functional_decode(&cfg, 7, 11, mem, steps, beam, &FunctionalFaults::none())?;
    let n_stripes =
        transformer_asr_accel::transformer::ModelWeights::seeded(&cfg.model, 7).matrices().len();
    let faults = FunctionalFaults::seeded(fault_seed, n_stripes, cfg.psa.cols);
    let faulted = run_functional_decode(&cfg, 7, 11, mem, steps, beam, &faults)?;
    if faulted.tokens != clean.tokens {
        return Err(CliError::Rejected(format!(
            "transcript diverged under faults: clean {:?} vs faulted {:?}",
            clean.tokens, faulted.tokens
        )));
    }
    if clean.steps > 1 && clean.elided_load_bytes == 0 {
        return Err(CliError::Rejected("steady decode steps elided zero load bytes".into()));
    }
    println!("decode steps         : {} (beam {}, memory rows {})", clean.steps, beam, mem);
    println!("transcript           : {} tokens, zero divergence under faults", clean.tokens.len());
    println!(
        "elided load bytes    : {} of {} scheduled ({:.1} %)",
        clean.elided_load_bytes,
        clean.fetched_load_bytes + clean.elided_load_bytes,
        clean.elided_fraction() * 100.0
    );
    println!(
        "fault accounting     : {} injected, {} detected, {} recomputed, {} escaped",
        faulted.counters.injected,
        faulted.counters.detected,
        faulted.counters.recomputed,
        faulted.counters.escaped
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let devices = parse_usize_strict(args, "--devices", 2)?;
    let seed = parse_usize_strict(args, "--faults", 0)? as u64;
    let rps = parse_f64_in(args, "--rps", 50.0, Range::Positive)?;
    let deadline_s = parse_f64_in(args, "--deadline-ms", 200.0, Range::Positive)? / 1e3;
    let level = parse_integrity_flag(args)?;
    let checkpoint = has_flag(args, "--checkpoint");
    let batch = parse_usize_strict(args, "--batch", 0)?;
    if has_flag(args, "--batch") && batch == 0 {
        // The combo check outranks the range check: `--checkpoint` resumes
        // *batched* dispatches, so disabling batching contradicts it.
        return Err(if checkpoint {
            CliError::BadCombo(
                "--checkpoint resumes batched dispatches; it cannot be combined with --batch 0"
                    .into(),
            )
        } else {
            CliError::BadValue("--batch must be >= 1 (the dispatcher needs a batch bound)".into())
        });
    }
    let mut cfg = ServeConfig::new(devices, seed, rps, deadline_s);
    cfg.accel.integrity = level;
    cfg.requests = parse_count(args, "--n", cfg.requests)?;
    cfg.queue_capacity = parse_count(args, "--queue", cfg.queue_capacity)?;
    if has_flag(args, "--batch") {
        cfg.batch.max_batch = batch;
    }
    cfg.batch.linger_s =
        parse_f64_in(args, "--linger-ms", cfg.batch.linger_s * 1e3, Range::NonNegative)? / 1e3;
    cfg.checkpoint = checkpoint;
    let kill = parse_str_flag(args, "--kill");
    println!("devices              : {}", cfg.devices);
    println!("pool fault seed      : {}", cfg.fault_seed);
    println!("integrity level      : {}", level.name());
    println!("offered load         : {:8.2} req/s", cfg.rps);
    println!("deadline             : {:8.2} ms", cfg.deadline_s * 1e3);
    println!("requests             : {}", cfg.requests);
    println!("queue capacity       : {}", cfg.queue_capacity);
    println!("max batch            : {}", cfg.batch.max_batch);
    println!("batch linger         : {:8.2} ms", cfg.batch.linger_s * 1e3);
    println!("checkpointed failover: {}", if cfg.checkpoint { "on" } else { "off" });
    if let Some(label) = &kill {
        println!("killed load label    : '{}' (card 0, persistent)", label);
    }
    let report = run_serve_pool(cfg, kill)?;
    print!("{}", report.render());
    Ok(())
}

/// `asrsim cluster` — multi-node serving: each node is one fault domain
/// behind a session-affinity router, with node-granular fault injection,
/// cross-node checkpointed failover, and rolling weight upgrades.
fn cmd_cluster(args: &[String]) -> Result<(), CliError> {
    let nodes = parse_count(args, "--nodes", 2)?;
    let devices = parse_count(args, "--devices", 1)?;
    let rps = parse_f64_in(args, "--rps", 60.0, Range::Positive)?;
    let deadline_s = parse_f64_in(args, "--deadline-ms", 500.0, Range::Positive)? / 1e3;
    let mut cfg = ClusterConfig::new(nodes, devices, rps, deadline_s);
    cfg.requests = parse_count(args, "--n", cfg.requests)?;
    cfg.sessions = parse_count(args, "--sessions", cfg.sessions)?;
    cfg.seed = parse_usize_strict(args, "--seed", cfg.seed as usize)? as u64;
    if let Some(t) = parse_str_flag(args, "--trace") {
        cfg.trace = TrafficTrace::parse(&t).map_err(|e| CliError::BadValue(e.to_string()))?;
    }
    if has_flag(args, "--no-checkpoint") {
        cfg.serve.checkpoint = false;
    }
    for v in flag_values(args, "--kill-node") {
        let (node, at_s, _) = parse_fault_spec("--kill-node", &v, false)?;
        cfg.faults.push(NodeFault::Kill { node, at_s });
    }
    for v in flag_values(args, "--dropout") {
        let (node, at_s, outage_s) = parse_fault_spec("--dropout", &v, true)?;
        cfg.faults.push(NodeFault::PowerDropout { node, at_s, outage_s });
    }
    for v in flag_values(args, "--hbm-burst") {
        let (node, at_s, _) = parse_fault_spec("--hbm-burst", &v, false)?;
        cfg.faults.push(NodeFault::HbmBurst { node, at_s, seed: cfg.seed ^ node as u64 });
    }
    for v in flag_values(args, "--partition") {
        let (node, at_s, for_s) = parse_fault_spec("--partition", &v, true)?;
        cfg.faults.push(NodeFault::Partition { node, at_s, for_s });
    }
    for f in &cfg.faults {
        let (flag, node) = match f {
            NodeFault::Kill { node, .. } => ("--kill-node", *node),
            NodeFault::PowerDropout { node, .. } => ("--dropout", *node),
            NodeFault::HbmBurst { node, .. } => ("--hbm-burst", *node),
            NodeFault::Partition { node, .. } => ("--partition", *node),
        };
        if node >= nodes {
            return Err(CliError::BadValue(format!(
                "{} targets node {} but the cluster has {} (nodes are 0-based)",
                flag, node, nodes
            )));
        }
    }
    if has_flag(args, "--upgrade") {
        if nodes < 2 {
            return Err(CliError::BadCombo(
                "--upgrade is a rolling drain: it needs --nodes >= 2 so survivors keep serving"
                    .into(),
            ));
        }
        let to = parse_usize_strict(args, "--upgrade", 0)? as u64;
        let at = parse_flag_value(args, "--upgrade-at", 0.1, "a time in seconds >= 0", |v| {
            v.parse::<f64>().ok().filter(|t| t.is_finite() && *t >= 0.0)
        })?;
        cfg.upgrade = Some(UpgradeConfig::new(to, at));
    } else if has_flag(args, "--upgrade-at") {
        return Err(CliError::BadCombo("--upgrade-at needs --upgrade VERSION".into()));
    }
    println!("nodes                : {} x {} cards", cfg.nodes, devices);
    println!("offered load         : {:8.2} req/s ({:?} trace)", cfg.rps, cfg.trace);
    println!("deadline             : {:8.2} ms", cfg.serve.deadline_s * 1e3);
    println!("requests / sessions  : {} / {}", cfg.requests, cfg.sessions);
    println!("checkpointed failover: {}", if cfg.serve.checkpoint { "on" } else { "off" });
    for f in &cfg.faults {
        println!("fault                : {:?}", f);
    }
    if let Some(u) = &cfg.upgrade {
        println!(
            "rolling upgrade      : v{} -> v{} starting at {:.2} s",
            cfg.serve.accel.weight_version, u.to_version, u.start_s
        );
    }
    let report = Cluster::run(cfg)?;
    print!("{}", report.render());
    Ok(())
}

/// `asrsim stream` — the fault-tolerant streaming session pool: N concurrent
/// streams of fixed-cadence audio chunks over a shared card pool, per-chunk
/// deadlines, resident-weight reuse across chunks, and mid-stream failover.
fn cmd_stream(args: &[String]) -> Result<(), CliError> {
    let devices = parse_usize_strict(args, "--devices", 2)?;
    let seed = parse_usize_strict(args, "--faults", 0)? as u64;
    let streams = parse_count(args, "--streams", 4)?;
    let chunk_ms = parse_f64_in(args, "--chunk-ms", 40.0, Range::Positive)?;
    let deadline_ms = parse_f64_in(args, "--deadline-ms", 60.0, Range::Positive)?;
    let jitter_ms = parse_f64_in(args, "--jitter-ms", 0.0, Range::NonNegative)?;
    let level = parse_integrity_flag(args)?;
    let mut cfg = StreamConfig::new(devices, seed, streams, deadline_ms / 1e3);
    cfg.accel.integrity = level;
    cfg.chunk_interval_s = chunk_ms / 1e3;
    cfg.jitter_s = jitter_ms / 1e3;
    cfg.chunks_per_stream = parse_count(args, "--chunks", cfg.chunks_per_stream)?;
    println!("devices              : {}", cfg.devices);
    println!("pool fault seed      : {}", cfg.fault_seed);
    println!("integrity level      : {}", level.name());
    println!(
        "chunk window         : {} steps ({} chunk + {} left context)",
        cfg.window(),
        CHUNK_STEPS,
        LEFT_CONTEXT
    );
    println!("chunk cadence        : {:8.2} ms", cfg.chunk_interval_s * 1e3);
    println!("chunk deadline       : {:8.2} ms", cfg.deadline_s * 1e3);
    println!("arrival jitter       : {:8.2} ms", cfg.jitter_s * 1e3);
    println!("chunks per stream    : {}", cfg.chunks_per_stream);
    println!("session queue        : {}", SESSION_QUEUE);
    let report = StreamPool::run(cfg)?;
    print!("{}", report.render());
    Ok(())
}

/// Run the configured serve workload; with `kill`, card 0's fault plan is
/// replaced by a persistent load fault on the given label (the other cards
/// keep their seeded pool plans) to exercise failover paths on demand. A
/// pool with no card 0 keeps its empty plan list, which `with_plans` rejects.
fn run_serve_pool(cfg: ServeConfig, kill: Option<String>) -> Result<ServeReport, AccelError> {
    let Some(label) = kill else {
        return ServePool::run(cfg);
    };
    let mut plans = pool_fault_plans(cfg.fault_seed, cfg.devices);
    if let Some(card0) = plans.first_mut() {
        *card0 =
            FaultPlan::none().with(FaultKind::HbmLoadError { label, failing_attempts: u32::MAX });
    }
    let (n, rps) = (cfg.requests, cfg.rps);
    let mut pool = ServePool::with_plans(cfg, plans)?;
    for i in 0..n {
        let _ = pool.submit(i as f64 / rps);
    }
    Ok(pool.drain())
}

fn cmd_csv(which: &str) -> Result<(), CliError> {
    let cfg = AccelConfig::paper_default();
    let rows = match which {
        "fig5.2" => sweep::sweep_load_compute(&cfg, &(2..=40).step_by(2).collect::<Vec<_>>()),
        "table5.1" => sweep::sweep_architectures(&cfg, &[4, 8, 16, 32]),
        "ii" => sweep::sweep_ii(&cfg, &[1, 2, 4, 8, 12, 16, 24]),
        other => {
            return Err(CliError::BadValue(format!(
                "unknown csv sweep '{}': expected fig5.2, table5.1, or ii",
                other
            )));
        }
    };
    print!("{}", sweep::to_csv(&rows));
    Ok(())
}
