//! Design-space exploration: Table 5.3 plus the PSA-shape and unroll-penalty
//! (II) sweeps of §5.1.4, with resource-fit checking against the Alveo U50.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use transformer_asr_accel::accel::dse::{self, SearchSpace};
use transformer_asr_accel::accel::{resources, AccelConfig};
use transformer_asr_accel::systolic::psa::{Psa, PsaConfig};

fn main() {
    let base = AccelConfig::paper_default();

    println!("Table 5.3 — heads × PSAs-per-head (A3, s = 32):");
    println!(
        "{:>14} {:>14} {:>12} {:>6}",
        "parallel heads", "PSAs per head", "latency(ms)", "fits"
    );
    for p in dse::enumerate(&base, &SearchSpace::table_5_3(&base)) {
        println!(
            "{:>14} {:>14} {:>12.2} {:>6}",
            p.parallel_heads,
            p.psas_per_head,
            p.latency_ms,
            if p.fits { "yes" } else { "NO" }
        );
    }

    println!("\nPSA shape sweep (rows × cols):");
    println!("{:>8} {:>12} {:>6}", "shape", "latency(ms)", "fits");
    let shapes = [(2usize, 64usize), (2, 32), (2, 128), (4, 64), (4, 32), (8, 64), (4, 128)];
    for c in dse::enumerate(&base, &SearchSpace::psa_shapes(&base, &shapes)) {
        let fits = if c.fits { "yes" } else { "NO" };
        println!("{:>5}x{:<3} {:>11.2} {:>6}", c.psa_rows, c.psa_cols, c.latency_ms, fits);
    }

    println!("\nUnroll penalty (II) sweep, one MM1 stripe (32x64 by 64x64):");
    for ii in [1u64, 4, 8, 12, 16] {
        let psa = Psa::new(PsaConfig { ii, ..base.psa });
        println!("  II={:<2}  {:>6} cycles", ii, psa.cycles(32, 64, 64).get());
    }

    println!("\nResource estimate of the shipped design:");
    let est = resources::estimate(&base);
    println!("  PSAs          : {}", est.psas);
    println!("  adders        : {}", est.adders);
    println!("  function units: {}", est.function_units);
    println!("  buffers       : {}", est.buffers);
    println!("  misc/control  : {}", est.misc);
    println!("  TOTAL         : {}", est.total());
    match resources::check_fit(&base) {
        Ok((b, d, f, l)) => {
            println!("  fits: BRAM {:.1}%  DSP {:.1}%  FF {:.1}%  LUT {:.1}%", b, d, f, l)
        }
        Err(e) => println!("  DOES NOT FIT: {}", e),
    }

    // The paper's point about pushing parallelism: doubling the PSA pool
    // makes the design unsynthesizable.
    let mut doubled = base.clone();
    doubled.psas_per_slr = 8;
    println!("\nDoubled PSA pool (16 PSAs):");
    match resources::check_fit(&doubled) {
        Ok(_) => println!("  unexpectedly fits"),
        Err(e) => println!("  rejected as unsynthesizable: {}", e),
    }
}
