//! Smoke tests for the `asrsim` CLI binary — every subcommand must run,
//! exit cleanly, and print its headline numbers.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_asrsim"))
        .args(args)
        .output()
        .expect("failed to launch asrsim");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    (out.status.success(), stdout)
}

/// Exit code and stderr — for the typed-failure contract (2 = usage,
/// 3 = bad value, 4 = bad combination, 5 = rejected config, 6 = io).
fn run_code(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_asrsim"))
        .args(args)
        .output()
        .expect("failed to launch asrsim");
    (out.status.code().expect("no exit code"), String::from_utf8_lossy(&out.stderr).to_string())
}

#[test]
fn latency_subcommand() {
    let (ok, out) = run(&["latency", "--s", "32"]);
    assert!(ok);
    assert!(out.contains("end to end"));
    assert!(out.contains("GFLOPs/J"));
}

#[test]
fn arch_subcommand_lists_all_three() {
    let (ok, out) = run(&["arch", "--s", "8"]);
    assert!(ok);
    for a in ["A1", "A2", "A3"] {
        assert!(out.contains(a), "missing {}", a);
    }
}

#[test]
fn dse_subcommand() {
    let (ok, out) = run(&["dse"]);
    assert!(ok);
    assert!(out.lines().count() >= 5);
}

#[test]
fn quant_subcommand() {
    let (ok, out) = run(&["quant"]);
    assert!(ok);
    assert!(out.contains("int8 latency"));
}

#[test]
fn breakdown_subcommand() {
    let (ok, out) = run(&["breakdown"]);
    assert!(ok);
    assert!(out.contains("MM5"));
    assert!(out.contains("encoder layer total"));
}

#[test]
fn pipeline_subcommand() {
    let (ok, out) = run(&["pipeline", "--s", "32", "--n", "4"]);
    assert!(ok);
    assert!(out.contains("steady-state rate"));
}

#[test]
fn trace_subcommand_writes_json() {
    let path = std::env::temp_dir().join("asrsim_cli_trace.json");
    let (ok, _) = run(&["trace", path.to_str().unwrap(), "--s", "4"]);
    assert!(ok);
    let data = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(data.trim_start().starts_with('['));
    assert!(data.contains("\"ph\":\"X\""));
}

#[test]
fn csv_subcommand_emits_rows() {
    let (ok, out) = run(&["csv", "fig5.2"]);
    assert!(ok);
    assert!(out.starts_with("param,value,series,metric_ms"));
    assert!(out.lines().count() > 10);
}

#[test]
fn plan_subcommand_dumps_the_lowered_dag() {
    let (ok, out) = run(&["plan", "--s", "8", "--arch", "a3", "--batch", "4"]);
    assert!(ok, "plan must exit cleanly:\n{}", out);
    assert!(out.contains("architecture         : A3"));
    assert!(out.contains("batch                : 4"));
    assert!(out.contains("phases               : 24"));
    assert!(out.contains("24 LoadStripe, 96 Compute, 0 Verify, 1 Barrier"), "{}", out);
    assert!(out.contains("22 double-buffer, 0 serialize, 6 paired loads"), "{}", out);
    assert!(out.contains("critical path"));
    // A3 drives two engines = four HBM channels.
    for ch in ["HBM[0]", "HBM[1]", "HBM[2]", "HBM[3]"] {
        assert!(out.contains(ch), "missing {}:\n{}", ch, out);
    }
}

#[test]
fn plan_subcommand_emits_verify_nodes_at_detect() {
    let (ok, out) = run(&["plan", "--s", "8", "--arch", "a1", "--integrity", "detect"]);
    assert!(ok);
    assert!(out.contains("integrity level      : detect"));
    // 18 phases at A1 granularity: one CRC verify per load, one ABFT verify
    // per (solo) compute.
    assert!(out.contains("18 LoadStripe, 18 Compute, 36 Verify, 1 Barrier"), "{}", out);
    assert!(out.contains("16 double-buffer, 17 serialize, 0 paired loads"), "{}", out);
    // A1 runs one engine = two HBM channels.
    assert!(out.contains("HBM[1]") && !out.contains("HBM[2]"), "{}", out);
}

#[test]
fn plan_subcommand_rejects_a_bad_arch() {
    let (code, err) = run_code(&["plan", "--arch", "a9"]);
    assert_eq!(code, 3, "an unknown architecture is a bad value: {}", err);
    assert!(err.starts_with("asrsim: bad value:"), "{}", err);
}

#[test]
fn faults_subcommand_reports_degraded_vs_nominal() {
    let (ok, out) = run(&["faults", "0", "--s", "8"]);
    assert!(ok);
    assert!(out.contains("nominal latency"));
    assert!(out.contains("degraded latency"));
    assert!(out.contains("fault overhead"));
    // seed 0 kills the maxi-1 prefetch engine and SLR1: both recoveries
    // must show up in the report
    assert!(out.contains("degrade A3 -> A2"));
    assert!(out.contains("dead SLR"));
}

#[test]
fn faults_flag_form_matches_subcommand() {
    let (ok_a, out_a) = run(&["faults", "7", "--s", "8"]);
    let (ok_b, out_b) = run(&["--faults", "7", "--s", "8"]);
    assert!(ok_a && ok_b);
    assert_eq!(out_a, out_b, "flag and subcommand forms must agree");
}

#[test]
fn faults_without_seed_fails() {
    let (code, err) = run_code(&["faults"]);
    assert_eq!(code, 2, "a missing seed is a usage error: {}", err);
    let (code, err) = run_code(&["faults", "x"]);
    assert_eq!(code, 3, "an unparsable seed is a bad value: {}", err);
}

#[test]
fn faults_arch_flag_selects_the_architecture() {
    let (ok_a1, out_a1) = run(&["faults", "0", "--s", "8", "--arch", "a1"]);
    assert!(ok_a1);
    assert!(out_a1.contains("architecture         : A1"));
    // A1 has no prefetch engine to lose, so the A3 -> A2 rung never fires.
    assert!(!out_a1.contains("degrade A3 -> A2"));

    let (ok_a2, out_a2) = run(&["faults", "0", "--s", "8", "--arch", "a2"]);
    assert!(ok_a2);
    assert!(out_a2.contains("architecture         : A2"));

    let (code, err) = run_code(&["faults", "0", "--arch", "a9"]);
    assert_eq!(code, 3, "an unknown architecture is a bad value: {}", err);
}

#[test]
fn serve_subcommand_reports_failover_around_the_faulty_card() {
    let (ok, out) =
        run(&["serve", "--devices", "2", "--faults", "7", "--rps", "50", "--deadline-ms", "200"]);
    assert!(ok, "serve must exit cleanly:\n{}", out);
    assert!(out.contains("submitted            : 200"));
    assert!(out.contains("throughput"));
    assert!(out.contains("latency p50 / p99"));
    // seed 7 on two cards breaks dev1: its breaker must open and traffic
    // must fail over to dev0.
    assert!(out.contains("open"), "breaker state missing:\n{}", out);
    assert!(out.contains("dev0") && out.contains("dev1"));
}

#[test]
fn serve_same_seed_is_bit_identical_across_runs() {
    let args = ["serve", "--devices", "3", "--faults", "5", "--rps", "80", "--n", "120"];
    let (ok_a, out_a) = run(&args);
    let (ok_b, out_b) = run(&args);
    assert!(ok_a && ok_b);
    assert_eq!(out_a, out_b, "same seed must reproduce the identical report");
}

#[test]
fn serve_batched_reports_occupancy_and_amortized_loads() {
    let (ok, out) = run(&[
        "serve",
        "--devices",
        "2",
        "--batch",
        "4",
        "--linger-ms",
        "5",
        "--faults",
        "7",
        "--rps",
        "120",
        "--deadline-ms",
        "200",
        "--n",
        "80",
    ]);
    assert!(ok, "batched serve must exit cleanly:\n{}", out);
    assert!(out.contains("max batch            : 4"), "{}", out);
    assert!(out.contains("batch linger         :"), "{}", out);
    assert!(out.contains("occupancy"), "occupancy line missing:\n{}", out);
    assert!(out.contains("amortized load/utt"), "amortization line missing:\n{}", out);
    assert!(out.contains("batches dispatched"), "{}", out);
}

#[test]
fn serve_batched_same_seed_is_bit_identical_across_runs() {
    let args = [
        "serve",
        "--devices",
        "2",
        "--batch",
        "4",
        "--linger-ms",
        "5",
        "--faults",
        "7",
        "--rps",
        "120",
        "--n",
        "80",
    ];
    let (ok_a, out_a) = run(&args);
    let (ok_b, out_b) = run(&args);
    assert!(ok_a && ok_b);
    assert_eq!(out_a, out_b, "same seed must reproduce the identical batched report");
}

#[test]
fn serve_rejects_a_zero_batch() {
    let (ok, _) = run(&["serve", "--batch", "0"]);
    assert!(!ok, "batch 0 must be refused");
}

#[test]
fn serve_rejects_an_impossible_deadline() {
    let (ok, _) = run(&["serve", "--deadline-ms", "0.001"]);
    assert!(!ok, "a deadline below the nominal makespan must be refused");
}

#[test]
fn serve_rejects_a_deadline_its_attempt_timeout_would_cut() {
    // 20 ms clears the 11.92 ms nominal makespan, but the per-attempt
    // timeout (half the deadline) would cut every request at 10 ms.
    let (code, err) = run_code(&["serve", "--deadline-ms", "20"]);
    assert_eq!(code, 5, "{}", err);
    assert!(err.starts_with("asrsim: rejected:"), "{}", err);
}

#[test]
fn stream_subcommand_survives_a_seeded_device_fault() {
    let (ok, out) = run(&[
        "stream",
        "--streams",
        "4",
        "--devices",
        "4",
        "--faults",
        "1",
        "--chunk-ms",
        "40",
        "--deadline-ms",
        "60",
        "--chunks",
        "8",
    ]);
    assert!(ok, "stream must exit cleanly:\n{}", out);
    // The seeded fault (card 1) must not kill a single session, and the
    // unfinished chunk must be the only work replayed.
    assert!(out.contains("streams dropped      : 0"), "{}", out);
    assert!(out.contains("replayed chunks      : 1"), "{}", out);
    assert!(out.contains("chunk latency p50/p99"), "{}", out);
    // Warm chunks must elide resident stripes — the reuse path is live.
    assert!(!out.contains("elided loads         : 0 ("), "no elisions:\n{}", out);
    assert!(out.contains("dev0") && out.contains("dev3"));
}

#[test]
fn stream_same_seed_is_bit_identical_across_runs() {
    let args = [
        "stream",
        "--streams",
        "6",
        "--devices",
        "3",
        "--faults",
        "5",
        "--jitter-ms",
        "4",
        "--chunks",
        "8",
    ];
    let (ok_a, out_a) = run(&args);
    let (ok_b, out_b) = run(&args);
    assert!(ok_a && ok_b);
    assert_eq!(out_a, out_b, "same seed must reproduce the identical stream report");
}

#[test]
fn stream_rejects_an_impossible_deadline() {
    let (code, err) = run_code(&["stream", "--deadline-ms", "0.001"]);
    assert_eq!(code, 5, "a deadline below the warm nominal chunk time is refused: {}", err);
}

#[test]
fn cluster_subcommand_survives_a_node_kill_with_zero_loss() {
    let (ok, out) =
        run(&["cluster", "--nodes", "3", "--rps", "60", "--n", "120", "--kill-node", "1@0.8"]);
    assert!(ok, "cluster must exit cleanly:\n{}", out);
    assert!(out.contains("lost                 : 0"), "{}", out);
    assert!(out.contains("cluster nodes        : 3"), "{}", out);
    assert!(out.contains("dead"), "the killed node must report dead:\n{}", out);
}

#[test]
fn cluster_same_seed_is_bit_identical_across_runs() {
    let args = [
        "cluster",
        "--nodes",
        "3",
        "--rps",
        "80",
        "--n",
        "150",
        "--trace",
        "bursty",
        "--seed",
        "9",
        "--kill-node",
        "0@0.6",
        "--partition",
        "2@0.3+0.4",
    ];
    let (ok_a, out_a) = run(&args);
    let (ok_b, out_b) = run(&args);
    assert!(ok_a && ok_b);
    assert_eq!(out_a, out_b, "same seed must reproduce the identical cluster report");
}

#[test]
fn cluster_rolling_upgrade_with_mid_upgrade_kill_settles_cleanly() {
    let (ok, out) = run(&[
        "cluster",
        "--nodes",
        "3",
        "--rps",
        "80",
        "--n",
        "200",
        "--upgrade",
        "2",
        "--upgrade-at",
        "0.4",
        "--kill-node",
        "2@1.0",
    ]);
    assert!(ok, "chaos run must exit cleanly:\n{}", out);
    assert!(out.contains("lost                 : 0"), "{}", out);
    assert!(
        out.contains("upgrade              : completed")
            || out.contains("upgrade              : rolled back"),
        "the rollout must settle:\n{}",
        out
    );
}

#[test]
fn checkpoint_with_zero_batch_is_a_bad_combination() {
    let (code, err) = run_code(&["serve", "--checkpoint", "--batch", "0"]);
    assert_eq!(code, 4, "contradictory flags exit 4: {}", err);
    assert!(err.starts_with("asrsim: bad combination:"), "{}", err);
    assert_eq!(err.lines().count(), 1, "typed failures are one line: {}", err);
}

#[test]
fn zero_batch_alone_is_a_bad_value() {
    let (code, err) = run_code(&["serve", "--batch", "0"]);
    assert_eq!(code, 3, "an out-of-range flag exits 3: {}", err);
    assert!(err.starts_with("asrsim: bad value:"), "{}", err);
}

#[test]
fn upgrade_without_enough_nodes_is_a_bad_combination() {
    let (code, err) = run_code(&["cluster", "--nodes", "1", "--upgrade", "2"]);
    assert_eq!(code, 4, "{}", err);
    assert!(err.contains("--nodes >= 2"), "{}", err);
}

#[test]
fn fault_on_a_nonexistent_node_is_a_bad_value() {
    let (code, err) = run_code(&["cluster", "--nodes", "2", "--kill-node", "5@0.5"]);
    assert_eq!(code, 3, "{}", err);
    assert!(err.contains("node 5"), "{}", err);
}

#[test]
fn unparsable_fault_spec_is_a_bad_value() {
    let (code, err) = run_code(&["cluster", "--kill-node", "banana"]);
    assert_eq!(code, 3, "{}", err);
    assert!(err.contains("NODE@TIME"), "{}", err);
}

#[test]
fn rejected_configuration_exits_5() {
    for args in [&["serve", "--deadline-ms", "0.001"][..], &["stream", "--devices", "0"]] {
        let (code, err) = run_code(args);
        assert_eq!(code, 5, "a config the simulator refuses exits 5: {}", err);
        assert!(err.starts_with("asrsim: rejected:"), "{}", err);
    }
}

#[test]
fn unknown_command_fails() {
    for cmd in ["definitely-not-a-command", "bench"] {
        let (code, err) = run_code(&[cmd]);
        assert_eq!(code, 2, "'{}' is an unknown command, a usage error: {}", cmd, err);
    }
}

#[test]
fn no_args_fails_with_usage() {
    let (code, err) = run_code(&[]);
    assert_eq!(code, 2, "{}", err);
    assert!(err.contains("usage"), "{}", err);
}

#[test]
fn malformed_numeric_flags_are_bad_values() {
    for args in [
        &["latency", "--s", "x"][..],
        &["plan", "--batch", "x"],
        &["stream", "--streams", "x"],
        // --s outside 1..=512, once a panic in the simulator
        &["latency", "--s", "513"],
        &["arch", "--s", "513"],
        &["pipeline", "--s", "513"],
        &["trace", "unwritten.json", "--s", "513"],
        &["report", "--s", "0"],
        // a zero count, and a decode step past --steps
        &["decode", "--beam", "0"],
        &["decode", "--steps", "0"],
        &["decode", "--mem", "0"],
        &["plan", "--batch", "0"],
        &["plan", "--decode", "--beam", "0"],
        &["plan", "--decode", "--steps", "0"],
        &["plan", "--decode", "--steps", "4", "--step", "4"],
        &["faults", "1", "--checkpoint", "--batch", "0"],
        &["pipeline", "--n", "0"],
        &["serve", "--queue", "0"],
        &["serve", "--n", "0"],
        &["stream", "--streams", "0"],
        &["stream", "--chunks", "0"],
        &["cluster", "--n", "0"],
        &["cluster", "--sessions", "0"],
        // a rollout that would start before time 0
        &["cluster", "--upgrade", "2", "--upgrade-at", "-1"],
    ] {
        let (code, err) = run_code(args);
        assert_eq!(code, 3, "{:?} must not fall back to the default: {}", args, err);
        assert!(err.starts_with("asrsim: bad value:"), "{}", err);
        assert_eq!(err.lines().count(), 1, "{:?}: {}", args, err);
    }
}

#[test]
fn missing_positional_arguments_are_usage_errors() {
    for args in [&["trace"][..], &["csv"], &["--faults"]] {
        let (code, err) = run_code(args);
        assert_eq!(code, 2, "{:?}: {}", args, err);
        assert!(err.starts_with("asrsim: usage:"), "{}", err);
    }
}

#[test]
fn unknown_values_are_bad_values() {
    for args in [
        &["csv", "bogus"][..],
        &["faults", "0", "--integrity", "bogus"],
        &["plan", "--encoding", "bogus"],
    ] {
        let (code, err) = run_code(args);
        assert_eq!(code, 3, "{:?}: {}", args, err);
    }
}

#[test]
fn trace_write_failure_is_an_io_error() {
    // The binary is a file, so no path under it can be created.
    let path = format!("{}/out.json", env!("CARGO_BIN_EXE_asrsim"));
    let (code, err) = run_code(&["trace", &path, "--s", "4"]);
    assert_eq!(code, 6, "{}", err);
    assert!(err.starts_with("asrsim: io error:"), "{}", err);
}
