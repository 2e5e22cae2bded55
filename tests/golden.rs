//! Golden reports: every `asrsim` invocation that CI and the verify notes
//! run, plus each report, table and CSV subcommand, with its stdout and
//! exit code compared byte for byte against
//! `tests/golden/<name>.txt`. A refactor that must not change behaviour
//! passes here unchanged; a report that changes on purpose is re-blessed
//! with `GOLDEN_BLESS=1 cargo test --test golden`, and the diff of the
//! golden files is what review reads.

#[path = "support/golden.rs"]
mod golden;

use std::path::{Path, PathBuf};
use std::process::Command;

/// Report invocations: golden file name and arguments.
const REPORTS: &[(&str, &str)] = &[
    ("latency", "latency --s 32"),
    ("report", "report --s 32"),
    ("arch", "arch --s 32"),
    ("dse", "dse"),
    ("quant", "quant"),
    ("breakdown", "breakdown --s 32"),
    ("breakdown_s64", "breakdown --s 64"),
    ("pipeline", "pipeline --s 32 --n 12"),
    ("csv_table5_1", "csv table5.1"),
    ("csv_fig5_2", "csv fig5.2"),
    ("csv_ii", "csv ii"),
    ("faults_demo", "faults 0 --s 8"),
    ("faults_flag_form", "--faults 0 --s 8"),
    ("faults_a1", "faults 0 --arch a1"),
    ("faults_long", "faults 0 --s 256"),
    ("faults_integrity_off", "faults 7 --integrity off"),
    ("faults_detect_recompute", "faults 7 --integrity detect-recompute"),
    ("faults_checkpoint", "faults 7 --checkpoint"),
    ("serve_failover", "serve --devices 2 --faults 7 --rps 50 --deadline-ms 200"),
    ("serve_checkpoint", "serve --checkpoint --kill LWD4 --n 4 --rps 20 --deadline-ms 500"),
    ("serve_restart", "serve --kill LWD4 --n 4 --rps 20 --deadline-ms 500"),
    (
        "serve_batched",
        "serve --devices 2 --batch 8 --linger-ms 5 --rps 120 --deadline-ms 200 --n 200",
    ),
    (
        "serve_overload",
        "serve --devices 3 --batch 8 --linger-ms 5 --rps 310 --deadline-ms 150 --n 300",
    ),
    (
        "stream_failover",
        "stream --streams 4 --devices 4 --faults 1 --chunk-ms 40 --deadline-ms 60 --chunks 8",
    ),
    ("stream_one_card", "stream --devices 1 --faults 1 --streams 2 --chunks 8"),
    (
        "cluster_chaos",
        "cluster --nodes 3 --rps 80 --n 200 --upgrade 2 --upgrade-at 0.4 --kill-node 2@1.0",
    ),
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
    ("plan_decode", "plan --decode --s 32 --beam 4 --steps 64"),
    ("plan_decode_a2", "plan --decode --arch a2 --s 32 --beam 4 --steps 64 --step 32"),
    ("plan_decode_beam1", "plan --decode --beam 1"),
    ("plan_dense", "plan --encoding dense"),
    ("plan_int8", "plan --encoding int8"),
    ("plan_sparse", "plan --encoding sparse:4@60"),
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
