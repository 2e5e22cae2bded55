//! Serving-runtime fault sweep: one pool configuration, every pool fault
//! seed, and the availability numbers an SRE would put on a dashboard.
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! Seed 0 is a clean pool (the baseline row); every other seed breaks one
//! card with a hard HBM load fault, and the table shows the serving tier
//! absorbing it: the broken card's breaker opens, traffic fails over, and
//! the success ratio stays high. Everything runs in virtual time, so the
//! table is bit-identical on every machine and every run.

use transformer_asr_accel::accel::serve::{BatchConfig, ServeConfig, ServePool};
use transformer_asr_accel::accel::stream::{StreamConfig, StreamPool};

fn main() {
    let devices = 3;
    let rps = 120.0;
    let deadline_ms = 150.0;
    let requests = 300;

    println!(
        "pool: {} cards, {:.0} req/s offered, {:.0} ms deadline, {} requests\n",
        devices, rps, deadline_ms, requests
    );
    println!(
        "{:>4} {:>6} {:>9} {:>6} {:>7} {:>8} {:>8} {:>9} {:>9}",
        "seed", "broken", "success%", "shed", "missed", "failover", "breaker", "p50(ms)", "p99(ms)"
    );

    for seed in 0..8u64 {
        let mut cfg = ServeConfig::new(devices, seed, rps, deadline_ms / 1e3);
        cfg.requests = requests;
        let report = ServePool::run(cfg).expect("serve config is valid");
        let broken =
            if seed == 0 { "-".to_string() } else { format!("dev{}", (seed as usize) % devices) };
        let opens: u32 = report.per_device.iter().map(|d| d.card.breaker_opens).sum();
        println!(
            "{:>4} {:>6} {:>8.1} {:>6} {:>7} {:>8} {:>8} {:>9.2} {:>9.2}",
            seed,
            broken,
            report.success_ratio() * 100.0,
            report.shed,
            report.deadline_missed,
            report.counters.failed_over,
            opens,
            report.p50_latency_s * 1e3,
            report.p99_latency_s * 1e3,
        );
    }

    println!("\nevery non-zero seed row should stay near 100% success: the");
    println!("breaker quarantines the broken card and failover re-routes its");
    println!("traffic onto the surviving {} cards.", devices - 1);

    // Second sweep: dynamic batching on a clean pool pushed past its solo
    // capacity. Raising the batch ceiling lets each dispatch share one
    // weight-load pass (the lowered plan issues each layer's HBM load once
    // per batch, not per request), so the amortized load cost per utterance
    // falls as occupancy rises and the overload clears. Each card's weight
    // cache already spares a warm solo dispatch its first four stripe loads
    // (11.26 ms against 11.92 cold, about 266 req/s over three cards), so
    // the rate is set where this 300-request burst still outruns solo
    // dispatch. The 5 ms linger is allowed but never taken: the int8 card
    // is compute-bound from batch 2, where one more member saves under
    // 1.9 ms of card time, so batches form from the backlog alone, and
    // only where they shorten the summed finish of the queue and of the
    // arrivals the pool expects within one deadline.
    let burst_rps = 310.0;
    println!("\ndynamic batching (clean pool, {:.0} req/s, 5 ms linger allowed):\n", burst_rps);
    println!(
        "{:>9} {:>8} {:>9} {:>10} {:>10} {:>13} {:>9} {:>9}",
        "max batch",
        "success%",
        "batches",
        "mean batch",
        "occupancy",
        "load/utt(ms)",
        "p50(ms)",
        "p99(ms)"
    );
    for max_batch in [1usize, 2, 4, 8] {
        let mut cfg = ServeConfig::new(devices, 0, burst_rps, deadline_ms / 1e3);
        cfg.requests = requests;
        cfg.batch = BatchConfig { max_batch, linger_s: 5e-3 };
        let report = ServePool::run(cfg).expect("serve config is valid");
        println!(
            "{:>9} {:>8.1} {:>9} {:>10.2} {:>9.0}% {:>13.3} {:>9.2} {:>9.2}",
            max_batch,
            report.success_ratio() * 100.0,
            report.batches,
            report.mean_batch,
            report.occupancy * 100.0,
            report.amortized_load_s * 1e3,
            report.p50_latency_s * 1e3,
            report.p99_latency_s * 1e3,
        );
    }
    println!("\nsolo dispatch sheds load at this rate; batching amortizes the");
    println!("weight loads (load/utt drops with occupancy) and clears the");
    println!("overload. Every member waits for its whole batch, so a batch");
    println!("forms only where it lowers the summed finish of the queue and");
    println!("of the arrivals expected within one deadline, and only while");
    println!("its makespan fits the {:.0} ms per-attempt timeout (half the", deadline_ms / 2.0);
    println!("deadline). Batches stay small: max batch 4 and 8 dispatch");
    println!("alike. No batch waits out the linger: a batch-mate saves this");
    println!("compute-bound card under 1.9 ms, so batches form from the");
    println!("backlog alone.");

    // Third sweep: streaming recognition sessions — live microphones, not
    // utterance requests. A streams x chunk-cadence grid over a 2-card pool
    // with a seeded device fault: tighter cadence raises pressure, the
    // bounded session queues shed stale chunks instead of dropping
    // sessions, and warm resident weights elide most scheduled load bytes.
    println!("\nstreaming sessions (2 cards, seed 1 breaks dev1, 60 ms deadline):\n");
    println!(
        "{:>7} {:>9} {:>8} {:>7} {:>6} {:>8} {:>9} {:>9} {:>8}",
        "streams",
        "chunk(ms)",
        "dropped",
        "miss%",
        "shed",
        "failover",
        "p50(ms)",
        "p99(ms)",
        "elided%"
    );
    for streams in [4usize, 8, 12] {
        for chunk_ms in [40.0f64, 60.0, 80.0] {
            let mut cfg = StreamConfig::new(2, 1, streams, 0.060);
            cfg.chunks_per_stream = 8;
            cfg.chunk_interval_s = chunk_ms / 1e3;
            let report = StreamPool::run(cfg).expect("stream config is valid");
            println!(
                "{:>7} {:>9.0} {:>8} {:>6.1}% {:>6} {:>8} {:>9.2} {:>9.2} {:>7.1}%",
                streams,
                chunk_ms,
                report.streams_dropped,
                report.deadline_miss_rate * 100.0,
                report.stale_shed + report.backpressure_shed,
                report.failovers,
                report.p50_chunk_latency_s * 1e3,
                report.p99_chunk_latency_s * 1e3,
                report.elided_fraction * 100.0,
            );
        }
    }
    println!("\nevery row keeps 'dropped' at zero: the card that dies mid-chunk");
    println!("fails its sessions over and only the unfinished chunk replays.");
    println!("Overloaded rows shed stale chunks typed instead of stalling the");
    println!("pool, and the elided column is the resident-weight reuse win.");
}
