//! Structured parameter sweeps with CSV export.
//!
//! The evaluation's figures are series over a swept parameter (sequence
//! length, architecture, head split, PSA shape). This module produces those
//! series as typed rows and renders CSV, so the plots behind Fig 5.2 /
//! Tables 5.1 and 5.3 regenerate from one command (see
//! `examples/export_csv.rs`).

use crate::arch::{self, simulate, Architecture};
use crate::config::AccelConfig;

/// One record of a sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Swept parameter name.
    pub param: String,
    /// Swept parameter value.
    pub value: f64,
    /// Series name (e.g. "A3", "load", "compute").
    pub series: String,
    /// Measured quantity (milliseconds unless noted).
    pub metric_ms: f64,
}

/// Sweep the per-layer load and compute times over sequence length (Fig 5.2).
pub fn sweep_load_compute(cfg: &AccelConfig, s_values: &[usize]) -> Vec<SweepRow> {
    let mut rows = Vec::with_capacity(s_values.len() * 2);
    let load_ms = arch::encoder_load_time_s(cfg) * 1e3;
    for &s in s_values {
        rows.push(SweepRow {
            param: "seq_len".into(),
            value: s as f64,
            series: "load".into(),
            metric_ms: load_ms,
        });
        rows.push(SweepRow {
            param: "seq_len".into(),
            value: s as f64,
            series: "compute".into(),
            metric_ms: arch::encoder_compute_time_s(cfg, s) * 1e3,
        });
    }
    rows
}

/// Sweep the three architectures over sequence length (Table 5.1 as series).
pub fn sweep_architectures(base: &AccelConfig, s_values: &[usize]) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for &s in s_values {
        let mut cfg = base.clone();
        cfg.max_seq_len = s;
        for a in Architecture::ALL {
            rows.push(SweepRow {
                param: "seq_len".into(),
                value: s as f64,
                series: a.name().into(),
                metric_ms: simulate(&cfg, a, s).latency_s * 1e3,
            });
        }
    }
    rows
}

/// Sweep the PSA initiation interval (the unroll-factor experiments of
/// §5.1.4) at the built length under A3.
pub fn sweep_ii(base: &AccelConfig, ii_values: &[u64]) -> Vec<SweepRow> {
    ii_values
        .iter()
        .map(|&ii| {
            let mut cfg = base.clone();
            cfg.psa.ii = ii;
            SweepRow {
                param: "ii".into(),
                value: ii as f64,
                series: "A3".into(),
                metric_ms: simulate(&cfg, Architecture::A3, cfg.max_seq_len).latency_s * 1e3,
            }
        })
        .collect()
}

/// Render sweep rows as CSV (`param,value,series,metric_ms`).
pub fn to_csv(rows: &[SweepRow]) -> String {
    let mut out = String::from("param,value,series,metric_ms\n");
    for r in rows {
        out.push_str(&format!("{},{},{},{:.6}\n", r.param, r.value, r.series, r.metric_ms));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AccelConfig {
        AccelConfig::paper_default()
    }

    #[test]
    fn load_compute_sweep_has_two_series_per_point() {
        let rows = sweep_load_compute(&cfg(), &[4, 8, 16, 32]);
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().filter(|r| r.series == "load").count() == 4);
    }

    #[test]
    fn architecture_sweep_is_ordered() {
        let rows = sweep_architectures(&cfg(), &[4, 32]);
        assert_eq!(rows.len(), 6);
        // within each s: A1 >= A2 >= A3
        for chunk in rows.chunks(3) {
            assert!(chunk[0].metric_ms >= chunk[1].metric_ms);
            assert!(chunk[1].metric_ms >= chunk[2].metric_ms);
        }
    }

    #[test]
    fn ii_sweep_monotone() {
        let rows = sweep_ii(&cfg(), &[1, 4, 8, 12, 16]);
        for w in rows.windows(2) {
            assert!(w[1].metric_ms >= w[0].metric_ms, "latency must grow with II");
        }
    }

    #[test]
    fn csv_renders_header_and_rows() {
        let rows = sweep_load_compute(&cfg(), &[4]);
        let csv = to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "param,value,series,metric_ms");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("seq_len,4,load,"));
    }
}
