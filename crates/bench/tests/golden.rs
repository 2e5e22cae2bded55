//! Golden tests on the formatted repro output: the rendered tables must
//! contain the exact cells the paper pins down, and `repro all` must print
//! `tests/golden/repro_all.txt` byte for byte (`GOLDEN_BLESS=1` rewrites
//! it).

#[path = "../../../tests/support/golden.rs"]
mod golden;

use asr_bench::format::render_table;
use asr_bench::tables;
use std::path::Path;
use std::process::Command;

#[test]
fn repro_all_matches_its_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .output()
        .expect("failed to launch repro");
    assert!(out.status.success(), "repro all exited {:?}", out.status.code());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/repro_all.txt");
    if let Err(diff) = golden::check(&path, &String::from_utf8_lossy(&out.stdout)) {
        panic!("repro all differs from golden:\n{diff}");
    }
}

#[test]
fn table4_1_renders_the_paper_counts() {
    let rows: Vec<Vec<String>> = tables::table4_1_rows()
        .iter()
        .map(|r| vec![r.count.to_string(), r.name.to_string()])
        .collect();
    let rendered = render_table(&["Number", "Weight matrix"], &rows);
    for cell in ["576", "24", "84", "18", "W_Q/K/V", "L_N"] {
        assert!(rendered.contains(cell), "missing '{}' in:\n{}", cell, rendered);
    }
}

#[test]
fn table4_2_renders_all_six_mms() {
    let rows = tables::table4_2_rows(32);
    assert_eq!(rows.len(), 6);
    let rendered: String =
        rows.iter().map(|r| format!("{} {}x{}\n", r.name, r.input2.0, r.input2.1)).collect();
    assert!(rendered.contains("MM1 512x64"));
    assert!(rendered.contains("MM5 512x2048"));
    assert!(rendered.contains("MM6 2048x512"));
}

#[test]
fn table5_2_renders_exact_utilization() {
    let rows = tables::table5_2_rows();
    let lut = rows.iter().find(|r| r.0 == "LUT").unwrap();
    assert_eq!((lut.1, lut.2), (765_828, 871_680));
    let bram = rows.iter().find(|r| r.0 == "BRAM_18K").unwrap();
    assert_eq!((bram.1, bram.2), (1_202, 2_688));
}

#[test]
fn markdown_report_stable_headline_cells() {
    let md = asr_bench::report::generate_markdown();
    // these exact strings are the contract with EXPERIMENTS.md
    for cell in ["| 576 | W_Q/K/V |", "| LUT | 765828 | 871680 |", "| This work | FPGA |"] {
        assert!(md.contains(cell), "missing '{}'", cell);
    }
}

#[test]
fn fig5_2_series_stable_to_microseconds() {
    // The analytic model is deterministic: pin two representative points so
    // accidental calibration drift is caught at review time.
    let rows = tables::fig5_2_rows([4usize, 32].into_iter());
    assert!((rows[0].load_ms - 2.381).abs() < 0.01, "load {}", rows[0].load_ms);
    assert!((rows[0].compute_ms - 0.530).abs() < 0.05, "compute(4) {}", rows[0].compute_ms);
    assert!((rows[1].compute_ms - 4.227).abs() < 0.05, "compute(32) {}", rows[1].compute_ms);
}

#[test]
fn table5_1_latencies_stable() {
    let rows = tables::table5_1_rows();
    let get =
        |s: usize, arch: &str| rows.iter().find(|r| r.s == s && r.arch == arch).unwrap().latency_ms;
    assert!((get(32, "A3") - 87.64).abs() < 0.5, "{}", get(32, "A3"));
    assert!((get(4, "A3") - 29.64).abs() < 0.5, "{}", get(4, "A3"));
    assert!((get(32, "A1") - 132.9).abs() < 1.0, "{}", get(32, "A1"));
}
