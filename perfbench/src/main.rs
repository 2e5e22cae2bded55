//! The repository's benchmark: four workloads over both of the system's
//! clocks, with correctness checks and an optional traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline_paper --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` it carries the end-to-end metrics, with `--trace 1` the
//! per-layer ones, and the traced run also writes its spans as a Chrome
//! trace under `perfbench/out/`. A failed correctness check prints the
//! line with `"correct": false` and exits 1; bad arguments exit 2.

mod analytic;
mod metrics;
mod offline;
mod pools;
mod stats;
mod trace;

use metrics::Metrics;
use std::process::ExitCode;
use std::time::Instant;

/// A workload: fills the metrics of one run.
type Workload = fn(&mut Run, &mut Metrics);

/// The workloads, each with the function that runs it.
const WORKLOADS: &[(&str, Workload)] = &[
    ("offline_paper", offline::run),
    ("serve_poisson", pools::serve),
    ("stream_failover", pools::stream),
    ("cluster_chaos", pools::cluster),
];

/// One run's context: its inputs, its clock, and what it found.
pub struct Run {
    workload: &'static str,
    /// The workload seed; every input is generated from it.
    pub seed: u64,
    seconds: f64,
    /// When the run started; also the epoch of every span.
    pub start: Instant,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
    digest: u32,
}

impl Run {
    /// Whether the measuring time is not yet used up.
    pub fn time_left(&self) -> bool {
        self.start.elapsed().as_secs_f64() < self.seconds
    }

    /// Measuring time not yet used, seconds.
    pub fn seconds_left(&self) -> f64 {
        self.seconds - self.start.elapsed().as_secs_f64()
    }

    /// Share of the measuring time used so far.
    pub fn elapsed_frac(&self) -> f64 {
        self.start.elapsed().as_secs_f64() / self.seconds
    }

    /// Record a failed correctness check.
    pub fn fail(&mut self, what: String) {
        eprintln!("perfbench: check failed: {what}");
        self.failures.push(what);
    }

    /// A line of the human-readable summary.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A summary line for one of the headline figures ([`metrics::NAMED`]).
    pub fn named(&mut self, name: &str, value: f64) {
        let &(_, unit, better, carried) =
            metrics::NAMED.iter().find(|n| n.0 == name).expect("name is in metrics::NAMED");
        self.note(format!("{name} = {value} {unit} ({better} is better; {carried})"));
    }

    /// Fold modeled outputs into the run's digest, which two runs with the
    /// same seed must print identically.
    pub fn digest(&mut self, text: &str) {
        let mut bytes = self.digest.to_le_bytes().to_vec();
        bytes.extend_from_slice(text.as_bytes());
        self.digest = asr_tensor::crc32(&bytes);
    }

    /// Write the traced run's spans, once, at the end.
    pub fn write_trace(&mut self, tr: &trace::Tracer) {
        let dir = std::path::Path::new("perfbench").join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", self.workload, self.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.chrome_json())) {
            Ok(()) => self.note(format!("trace: {} spans -> {}", tr.spans().len(), path.display())),
            Err(e) => self.fail(format!("cannot write {}: {e}", path.display())),
        }
    }
}

struct Args {
    workload: &'static str,
    run: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let &(workload, run) = WORKLOADS.iter().find(|(w, _)| *w == name).ok_or(format!(
        "unknown workload {name}; expected one of {:?}",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
    ))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u32 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let traced = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, run, seed, seconds: seconds as f64, traced })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let mut run = Run {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        start: Instant::now(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        notes: Vec::new(),
        digest: 0,
    };
    let mut m = Metrics::new(args.traced);
    (args.run)(&mut run, &mut m);
    if args.traced {
        analytic::report(&mut run, &mut m);
    }

    println!("workload {} seed {} trace {}", run.workload, run.seed, args.traced as u8);
    for line in &run.notes {
        println!("  {line}");
    }
    println!("  load generator lateness: 0 (arrivals are handed to the pools in virtual time)");
    println!("  modeled-output digest: {:08x}", run.digest);
    println!("  measured for {:.1} s", run.start.elapsed().as_secs_f64());
    let correct = run.failures.is_empty();
    println!("{}", m.to_json(correct, run.attempted.max(1), run.failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
