//! Multi-utterance pipelined throughput (§5.1.6).
//!
//! The paper reports 11.88 sequences/second against an 84.15 ms accelerator
//! latency — i.e. throughput is set by the accelerator alone, because the
//! host's preprocessing of utterance `k+1` overlaps the accelerator's work on
//! utterance `k`. This module simulates that two-stage pipeline over a batch
//! of utterances and verifies the steady-state rate.

use crate::arch::{simulate, Architecture};
use crate::calib;
use crate::config::AccelConfig;
use asr_fpga_sim::Timeline;

/// Result of a pipelined batch run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Utterances processed.
    pub n: usize,
    /// Total wall time, seconds.
    pub total_s: f64,
    /// Steady-state throughput, sequences/second.
    pub throughput_seq_per_s: f64,
    /// Host-stage busy time, seconds.
    pub host_busy_s: f64,
    /// Accelerator busy time, seconds.
    pub accel_busy_s: f64,
}

/// Simulate `n` same-length utterances through the host → accelerator
/// pipeline under the given architecture.
pub fn run_pipeline(
    cfg: &AccelConfig,
    arch: Architecture,
    input_len: usize,
    n: usize,
) -> (PipelineResult, Timeline) {
    assert!(n >= 1, "need at least one utterance");
    let s = cfg.padded_seq_len(input_len);
    let pre = calib::preprocessing_latency_s(s);
    let acc = simulate(cfg, arch, input_len).latency_s;

    let mut tl = Timeline::new();
    let mut host_free = 0.0f64;
    let mut accel_free = 0.0f64;
    let mut last_done = 0.0f64;
    for k in 0..n {
        let h_start = host_free;
        let h_end = h_start + pre;
        tl.push("host", format!("pre{}", k + 1), h_start, h_end).unwrap();
        host_free = h_end;

        let a_start = h_end.max(accel_free);
        let a_end = a_start + acc;
        tl.push("accel", format!("seq{}", k + 1), a_start, a_end).unwrap();
        accel_free = a_end;
        last_done = a_end;
    }

    let throughput = if n > 1 {
        // steady-state: exclude the first utterance's fill
        (n - 1) as f64 / (last_done - (pre + acc))
    } else {
        1.0 / last_done
    };
    (
        PipelineResult {
            n,
            total_s: last_done,
            throughput_seq_per_s: throughput,
            host_busy_s: tl.busy_time("host"),
            accel_busy_s: tl.busy_time("accel"),
        },
        tl,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AccelConfig {
        AccelConfig::paper_default()
    }

    #[test]
    fn steady_state_rate_is_accelerator_bound() {
        // §5.1.6: throughput 11.88 seq/s ≈ 1 / accelerator latency, because
        // the 36 ms of preprocessing hides under the 84 ms of compute.
        let (r, _) = run_pipeline(&cfg(), Architecture::A3, 32, 20);
        let acc = simulate(&cfg(), Architecture::A3, 32).latency_s;
        assert!(
            (r.throughput_seq_per_s - 1.0 / acc).abs() * acc < 0.01,
            "throughput {} vs 1/acc {}",
            r.throughput_seq_per_s,
            1.0 / acc
        );
        assert!((r.throughput_seq_per_s - 11.42).abs() < 0.3);
    }

    #[test]
    fn pipelining_beats_sequential() {
        let (r, _) = run_pipeline(&cfg(), Architecture::A3, 32, 10);
        let acc = simulate(&cfg(), Architecture::A3, 32).latency_s;
        let pre = calib::preprocessing_latency_s(32);
        let sequential = 10.0 * (acc + pre);
        assert!(r.total_s < sequential * 0.85, "{} vs {}", r.total_s, sequential);
    }

    #[test]
    fn single_utterance_matches_e2e_latency() {
        let (r, _) = run_pipeline(&cfg(), Architecture::A3, 32, 1);
        let acc = simulate(&cfg(), Architecture::A3, 32).latency_s;
        let pre = calib::preprocessing_latency_s(32);
        assert!((r.total_s - (acc + pre)).abs() < 1e-12);
    }

    #[test]
    fn host_stage_never_the_bottleneck_at_paper_sizes() {
        let (r, tl) = run_pipeline(&cfg(), Architecture::A3, 32, 8);
        assert!(r.accel_busy_s > r.host_busy_s);
        // the accelerator never idles between sequences after the fill
        assert!(tl.stall_time("accel") < 1e-9);
    }

    #[test]
    fn timeline_units_exclusive() {
        let (_, tl) = run_pipeline(&cfg(), Architecture::A2, 16, 5);
        assert_eq!(tl.unit_spans("host").len(), 5);
        assert_eq!(tl.unit_spans("accel").len(), 5);
    }
}
