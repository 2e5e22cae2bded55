//! One-stop accelerator report: latency, resources, energy and schedule
//! verification combined into a single structure — the summary a deployment
//! would log per configuration.

use crate::arch::{simulate, Architecture};
use crate::config::AccelConfig;
use crate::energy;
use crate::resources;
use crate::verify;
use asr_transformer::flops;

/// Combined report over one configuration.
#[derive(Debug, Clone)]
pub struct AccelReport {
    /// Built sequence length.
    pub seq_len: usize,
    /// A1/A2/A3 latencies, ms.
    pub latency_ms: [f64; 3],
    /// Compute stall under A3, ms.
    pub a3_stall_ms: f64,
    /// Model workload, GFLOPs.
    pub gflops: f64,
    /// Sustained GFLOPs/s under A3.
    pub gflops_per_s: f64,
    /// Energy efficiency under A3, GFLOPs/J.
    pub gflops_per_joule: f64,
    /// Resource utilization percentages `(bram, dsp, ff, lut)`.
    pub utilization_pct: (f64, f64, f64, f64),
    /// The binding fabric constraint.
    pub binding_constraint: &'static str,
    /// Whether the design fits the device per-SLR.
    pub fits: bool,
    /// Schedule-verifier violations across all three architectures
    /// (empty for a correct model).
    pub violations: usize,
}

/// Build the report for a configuration.
pub fn generate(cfg: &AccelConfig) -> AccelReport {
    cfg.validate().expect("valid accelerator configuration");
    let s = cfg.max_seq_len;
    let sims: Vec<_> = Architecture::ALL.iter().map(|&a| simulate(cfg, a, s)).collect();
    let latency_ms = [sims[0].latency_s * 1e3, sims[1].latency_s * 1e3, sims[2].latency_s * 1e3];
    let a3 = &sims[2];
    let est = resources::estimate(cfg).total();
    let (name, _) = est.binding_constraint(&cfg.device.total_resources());
    AccelReport {
        seq_len: s,
        latency_ms,
        a3_stall_ms: a3.compute_stall_s * 1e3,
        gflops: flops::model_gflops(s, &cfg.model),
        gflops_per_s: energy::accelerator_gflops_per_s(cfg, s, a3.latency_s),
        gflops_per_joule: energy::accelerator_gflops_per_joule(cfg, s, a3.latency_s),
        utilization_pct: est.utilization_pct(&cfg.device.total_resources()),
        binding_constraint: name,
        fits: resources::check_fit(cfg).is_ok(),
        violations: sims.iter().map(|r| verify::verify(r).len()).sum(),
    }
}

/// Render the report as aligned text.
pub fn render(r: &AccelReport) -> String {
    let (b, d, f, l) = r.utilization_pct;
    format!(
        "accelerator report (s = {})\n\
         ---------------------------------\n\
         A1 / A2 / A3 latency : {:8.2} / {:8.2} / {:8.2} ms\n\
         A3 compute stall     : {:8.2} ms\n\
         workload             : {:8.2} GFLOPs\n\
         sustained (A3)       : {:8.2} GFLOPs/s\n\
         energy efficiency    : {:8.3} GFLOPs/J\n\
         utilization          : BRAM {:.1}%  DSP {:.1}%  FF {:.1}%  LUT {:.1}%\n\
         binding constraint   : {}\n\
         fits device          : {}\n\
         schedule violations  : {}\n",
        r.seq_len,
        r.latency_ms[0],
        r.latency_ms[1],
        r.latency_ms[2],
        r.a3_stall_ms,
        r.gflops,
        r.gflops_per_s,
        r.gflops_per_joule,
        b,
        d,
        f,
        l,
        r.binding_constraint,
        r.fits,
        r.violations
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_report_headline_values() {
        let r = generate(&AccelConfig::paper_default());
        assert_eq!(r.seq_len, 32);
        assert!((r.latency_ms[2] - 87.6).abs() < 1.0);
        assert!(r.latency_ms[0] > r.latency_ms[1]);
        assert!((r.gflops - 4.09).abs() < 0.1);
        assert_eq!(r.binding_constraint, "LUT");
        assert!(r.fits);
        assert_eq!(r.violations, 0);
    }

    #[test]
    fn render_contains_every_line() {
        let r = generate(&AccelConfig::paper_default());
        let text = render(&r);
        for needle in ["A1 / A2 / A3", "GFLOPs/J", "binding constraint", "LUT", "violations  : 0"] {
            assert!(text.contains(needle), "missing '{}' in:\n{}", needle, text);
        }
    }

    #[test]
    fn int8_report_is_consistent() {
        let q = crate::quant::int8_config(&AccelConfig::paper_default());
        let r = generate(&q);
        assert!(r.latency_ms[2] < 40.0);
        assert_eq!(r.violations, 0);
    }
}
