//! Device-aware auto-tuning (§6.2): search PSA shapes × head splits for the
//! latency-optimal design that fits the Alveo U50, and print the
//! latency/LUT Pareto front.
//!
//! ```text
//! cargo run --release --example autotune
//! ```

use transformer_asr_accel::accel::dse::{best, enumerate, pareto_front, SearchSpace};
use transformer_asr_accel::accel::AccelConfig;

fn main() {
    let base = AccelConfig::paper_default();
    let space = SearchSpace::paper_neighbourhood();
    let cands = enumerate(&base, &space);

    println!(
        "{:>5} {:>6} {:>6} {:>10} {:>12} {:>10} {:>5}",
        "rows", "cols", "heads", "psas/head", "latency(ms)", "LUT", "fits"
    );
    for c in &cands {
        println!(
            "{:>5} {:>6} {:>6} {:>10} {:>12.2} {:>10} {:>5}",
            c.psa_rows,
            c.psa_cols,
            c.parallel_heads,
            c.psas_per_head,
            c.latency_ms,
            c.lut,
            if c.fits { "yes" } else { "no" }
        );
    }

    if let Some(b) = best(&base, &space) {
        println!(
            "\nlatency-optimal fitting design: {}x{} PSAs, {} heads x {} PSAs/head -> {:.2} ms",
            b.psa_rows, b.psa_cols, b.parallel_heads, b.psas_per_head, b.latency_ms
        );
    }

    println!("\nlatency/LUT Pareto front:");
    for c in pareto_front(&cands) {
        println!(
            "  {}x{:<4} heads={} -> {:7.2} ms @ {:>7} LUT",
            c.psa_rows, c.psa_cols, c.parallel_heads, c.latency_ms, c.lut
        );
    }
    println!("\n(the paper's 2x64 / 8-head point is the shipped trade-off; taller PSAs");
    println!(" are faster but blow the LUT budget — §5.1.4's 'unsynthesizable' wall)");
}
