//! Golden reports: every `asrsim` invocation the verify notes run, plus
//! each report, table and CSV subcommand, with its stdout and exit code
//! compared byte for byte against `tests/golden/<name>.txt`. These are the
//! CLI's only pins (CI runs no `asrsim` smoke step beside them), so an
//! entry's comment names the lines its file holds and why. A refactor that
//! must not change behaviour passes here unchanged; a report that changes
//! on purpose is re-blessed with `GOLDEN_BLESS=1 cargo test --test golden`,
//! and the diff of the golden files is what review reads.

#[path = "support/golden.rs"]
mod golden;

use std::path::{Path, PathBuf};
use std::process::Command;

/// Report invocations: golden file name and arguments.
const REPORTS: &[(&str, &str)] = &[
    // The §5.1.6 headline: "end to end           :   123.91 ms".
    ("latency", "latency --s 32"),
    ("report", "report --s 32"),
    ("arch", "arch --s 32"),
    ("dse", "dse"),
    ("quant", "quant"),
    ("breakdown", "breakdown --s 32"),
    ("breakdown_s64", "breakdown --s 64"),
    ("pipeline", "pipeline --s 32 --n 12"),
    // One utterance: its rate is 1 / end to end, 8.07 seq/s.
    ("pipeline_single", "pipeline --s 32 --n 1"),
    ("csv_table5_1", "csv table5.1"),
    ("csv_fig5_2", "csv fig5.2"),
    ("csv_ii", "csv ii"),
    ("faults_demo", "faults 0 --s 8"),
    ("faults_flag_form", "--faults 0 --s 8"),
    ("faults_a1", "faults 0 --arch a1"),
    ("faults_long", "faults 0 --s 256"),
    ("faults_integrity_off", "faults 7 --integrity off"),
    // Silent faults scrubbed: "24 injected, 24 detected, 24 refetched, 0
    // recomputed, 0 escaped", and no WARNING line.
    ("faults_detect_recompute", "faults 7 --integrity detect-recompute"),
    // Kill a card mid-plan, resume the suffix: "resume               : ok
    // on clean spare".
    ("faults_checkpoint", "faults 7 --checkpoint"),
    // A faulty card and failover. Each card's first dispatch runs cold
    // (11.92 ms), every later one elides the four stripes its weight cache
    // pinned: "latency p50 / p99    : 11.26 / 13.15 ms" and "elided loads
    //         : 796 (2509297664 bytes, 18.3 % of scheduled)".
    ("serve_failover", "serve --devices 2 --faults 7 --rps 50 --deadline-ms 200"),
    // Checkpointed failover: "checkpoint resume    : N resumed, 0
    // rejected" and "replayed work        : 0.000 ms compute, 0 load bytes".
    ("serve_checkpoint", "serve --checkpoint --kill LWD4 --n 4 --rps 20 --deadline-ms 500"),
    // The full-restart bill the checkpointed run's 0 bytes is compared
    // against: "replayed work        : 32.204 ms compute, 151322112 load bytes".
    ("serve_restart", "serve --kill LWD4 --n 4 --rps 20 --deadline-ms 500"),
    // A batch-capable pool at 120 rps (EXPERIMENTS' batch sweep at B = 8):
    // the latency and the queue wait, arrival to the serving dispatch,
    // "11.26 / 11.26 ms" and "0.00 / 0.00 ms".
    (
        "serve_batched",
        "serve --devices 2 --batch 8 --linger-ms 5 --rps 120 --deadline-ms 200 --n 200",
    ),
    // Overload on three cards (the max-batch-8 row of examples/serving.rs):
    // the backlog forms batches, so "latency p50 / p99    : 75.91 / 120.45
    // ms" and "queue wait p50 / p99 : 44.27 / 106.78 ms" pin the growth rule.
    (
        "serve_overload",
        "serve --devices 3 --batch 8 --linger-ms 5 --rps 310 --deadline-ms 150 --n 300",
    ),
    // Mid-stream device death: "streams dropped      : 0", "replayed
    // chunks      : 1". The chunk price (a chunk loads CTX, then runs its 4
    // new rows through the 12 encoder layers): "chunk latency p50/p99: 6.70
    // / 7.48 ms (nominal 6.70 ms)" and "elided loads         : 116
    // (365676544 bytes, 29.1 % of scheduled)".
    (
        "stream_failover",
        "stream --streams 4 --devices 4 --faults 1 --chunk-ms 40 --deadline-ms 60 --chunks 8",
    ),
    // A lone broken card has nowhere to fail a stream over to: both
    // streams drop, every chunk they owed counts as missed ("deadline miss
    // rate   : 100.0 %"), exit 0.
    ("stream_one_card", "stream --devices 1 --faults 1 --streams 2 --chunks 8"),
    // A node killed mid-rolling-upgrade, zero loss. Warm cards at the
    // median; the p99 is a cold dispatch (a card's first, or its first after
    // the upgrade's flash): "latency p50 / p99    : 11.26 / 11.92 ms".
    (
        "cluster_chaos",
        "cluster --nodes 3 --rps 80 --n 200 --upgrade 2 --upgrade-at 0.4 --kill-node 2@1.0",
    ),
    // perfbench's cluster_chaos gauntlet at the CLI: bursty traffic, and a
    // kill that lands while node 2 holds work, "lost                 : 0".
    // The router sends each request to the node that would start it first:
    // "latency p50 / p99    : 22.00 / 43.87 ms" and "queue wait p50 / p99 :
    // 10.74 / 32.61 ms".
    (
        "cluster_bursty",
        "cluster --nodes 3 --rps 150 --n 2000 --sessions 1024 --trace bursty --deadline-ms 200 \
         --upgrade 2 --upgrade-at 4 --kill-node 2@7.7",
    ),
    (
        "cluster_partition",
        "cluster --nodes 3 --rps 100 --n 1000 --sessions 64 --deadline-ms 200 --partition 1@2+3",
    ),
    (
        "cluster_dropout_upgrade",
        "cluster --nodes 3 --rps 80 --n 200 --upgrade 2 --upgrade-at 0.4 --dropout 1@0.41+0.2",
    ),
    ("plan_batch", "plan --s 8 --arch a3 --batch 4"),
    ("plan_detect_a1", "plan --s 8 --arch a1 --integrity detect"),
    // Steady-step elision: "elided load bytes    : 100.0 %".
    ("plan_decode", "plan --decode --s 32 --beam 4 --steps 64"),
    // "steady ms/token      :    3.865 ms" and "cold step (t=0)      :
    // 22.167 ms critical path,    108046460 B fetched".
    ("plan_decode_a2", "plan --decode --arch a2 --s 32 --beam 4 --steps 64 --step 32"),
    ("plan_decode_beam1", "plan --decode --beam 1"),
    // int8 quarters the wire: "scheduled load bytes :    252211200 B"
    // dense, "stripe encoding      : int8" and "63052800 B" int8; sparse
    // adds a "zero-tile skip       :" line.
    ("plan_dense", "plan --encoding dense"),
    ("plan_int8", "plan --encoding int8"),
    ("plan_sparse", "plan --encoding sparse:4@60"),
    // A faulted decode: "zero divergence under faults", with elided loads.
    ("decode", "decode --beam 2 --steps 6"),
    ("decode_beam1", "decode --beam 1"),
    // Relative to the scratch directory the invocations run in.
    ("trace", "trace golden_trace.json --s 4"),
];

/// Invocations run for their exit code, pinned together in
/// `exit_codes.txt`: 2 usage, 3 bad value, 4 bad combination, 5 rejected,
/// 6 I/O.
const EXITS: &[&str] = &[
    "",
    "bench",
    "latency --s x",
    "latency --s 513",
    "report --s x",
    "report --s 0",
    "arch --s x",
    "arch --s 513",
    "breakdown --s x",
    "pipeline --n x",
    "pipeline --n 0",
    "pipeline --s 513",
    "trace",
    "trace /nonexistent/dir/out.json",
    "trace golden_trace.json --s 513",
    "plan --encoding bogus",
    "plan --arch a9",
    "plan --batch x",
    "plan --batch 0",
    "plan --decode --beam 0",
    "plan --decode --steps 0",
    "plan --decode --steps 4 --step 4",
    "plan --encoding sparse:0",
    "decode --beam abc",
    "decode --mem 99",
    "decode --beam 0",
    "decode --steps 0",
    "decode --mem 0",
    "csv",
    "csv bogus",
    "faults",
    "faults x",
    "faults 0 --integrity bogus",
    "faults 1 --checkpoint --batch 0",
    "--faults",
    "serve --checkpoint --batch 0",
    "serve --batch 0",
    "serve --queue 0",
    "serve --n 0",
    "serve --rps 0",
    "serve --rps -5",
    "serve --deadline-ms 0",
    "serve --deadline-ms -1",
    "serve --linger-ms -1",
    "serve --deadline-ms 0.001",
    "serve --deadline-ms 20",
    "serve --devices 0 --kill LWD4",
    "stream --streams x",
    "stream --streams 0",
    "stream --chunks 0",
    "stream --devices 0",
    "stream --chunk-ms 0",
    "stream --jitter-ms -1",
    "stream --deadline-ms 0",
    "stream --deadline-ms -1",
    "stream --deadline-ms 0.001",
    "cluster --n 0",
    "cluster --sessions 0",
    "cluster --rps 0",
    "cluster --rps -5",
    "cluster --deadline-ms 0",
    "cluster --deadline-ms -1",
    "cluster --nodes 1 --upgrade 2",
    "cluster --upgrade-at 0.4",
    "cluster --upgrade 2 --upgrade-at -1",
    "cluster --nodes 2 --kill-node 5@0.5",
    "cluster --kill-node banana",
];

/// One invocation as its golden text: the command, its exit code, then its
/// stdout verbatim. It runs in the test scratch directory, where `trace`
/// writes its file.
fn invoke(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_asrsim"))
        .args(args.split_whitespace())
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("failed to launch asrsim");
    format!(
        "$ asrsim {args}\nexit {}\n{}",
        out.status.code().expect("asrsim exits with a code"),
        String::from_utf8_lossy(&out.stdout)
    )
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

#[test]
fn reports_match_their_golden_files() {
    let diffs: Vec<String> = REPORTS
        .iter()
        .filter_map(|(name, args)| golden::check(&golden_path(name), &invoke(args)).err())
        .collect();
    assert!(diffs.is_empty(), "{} report(s) differ from golden:\n{}", diffs.len(), diffs.concat());
}

#[test]
fn exit_codes_match_their_golden_file() {
    let actual: String = EXITS.iter().map(|args| invoke(args)).collect();
    if let Err(diff) = golden::check(&golden_path("exit_codes"), &actual) {
        panic!("exit codes differ from golden:\n{diff}");
    }
}
