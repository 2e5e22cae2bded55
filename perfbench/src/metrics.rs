//! The metric catalogue and the result line.
//!
//! Every workload reports every end-to-end metric (untraced run) or every
//! per-layer metric (traced run). A per-layer metric of a layer the
//! workload never calls reads 0: that layer did no work in it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. The two clocks never mix within a
/// metric: `setup_s` is host wall time, the rest are the accelerator's
/// modeled time. Host throughput (`host.rtf`) is per-layer: this host's
/// speed drifts by more than any allowed bound between runs minutes apart.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("mean_ms", "ms"), ("p99_ms", "ms"), ("capacity_per_s", "1/s")];

/// The eleven headline figures, `(name, unit, better, carried as)`. Each is
/// defined on some workloads only, while the result line must carry every
/// end-to-end metric on every workload, so it carries the four above, which
/// every workload defines. Each untraced run's summary prints the figures
/// that apply to its workload, with the metric that carries each.
pub const NAMED: &[(&str, &str, &str, &str)] = &[
    ("host_rtf", "s/s", "lower", "per-layer host.rtf"),
    ("setup_s", "s", "lower", "end-to-end setup_s"),
    ("modeled_e2e_ms", "ms", "lower", "per-layer plan.modeled_e2e_ms"),
    ("modeled_ms_per_token", "ms", "lower", "per-layer plan.modeled_ms_per_token"),
    ("modeled_utt_per_s", "1/s", "higher", "per-layer plan.modeled_utt_per_s"),
    ("p50_ms", "ms", "lower", "summary only; end-to-end mean_ms instead"),
    ("p99_ms", "ms", "lower", "end-to-end p99_ms"),
    ("sustainable_rps", "1/s", "higher", "end-to-end capacity_per_s"),
    ("sustainable_streams", "streams", "higher", "per-layer stream.sustainable_streams"),
    ("upgrade_downtime_ms", "ms", "lower", "per-layer cluster.upgrade_downtime_ms"),
    ("sim_kops_per_s", "kreq/s", "higher", "per-layer cluster.sim_kops_per_s"),
];

/// Offered rates of the serve ladder, requests per second.
pub const SERVE_LADDER: [u32; 9] = [60, 90, 120, 150, 180, 210, 240, 270, 300];

/// Concurrent stream counts of the streaming ladder.
pub const STREAM_LADDER: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Fixed per-layer metrics: `(name, unit)`. The ladders add
/// `serve.p99_ms_r{R}`, `serve.ok_frac_r{R}` and `stream.on_time_frac_s{N}`.
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("host.rtf", "s/s"),
    ("frontend.fbank_ms", "ms"),
    ("frontend.fbank_ms_min", "ms"),
    ("frontend.subsample_ms", "ms"),
    ("frontend.subsample_ms_min", "ms"),
    ("frontend.samples", "count"),
    ("frontend.calib_ms", "ms"),
    ("transformer.encode_ms", "ms"),
    ("transformer.encode_ms_min", "ms"),
    ("transformer.encoder_layer_ms", "ms"),
    ("transformer.encoder_layer_ms_min", "ms"),
    ("transformer.encoder_layer_samples", "count"),
    ("transformer.kv_init_ms", "ms"),
    ("transformer.kv_init_ms_min", "ms"),
    ("transformer.decode_ms", "ms"),
    ("transformer.decode_ms_min", "ms"),
    ("transformer.decode_step_ms", "ms"),
    ("transformer.decode_step_ms_min", "ms"),
    ("transformer.decode_step_samples", "count"),
    ("transformer.decode_steps", "count"),
    ("transformer.decode_self_ms", "ms"),
    ("transformer.decode_self_ms_min", "ms"),
    ("systolic.calls", "count"),
    ("systolic.gmac", "GMAC"),
    ("systolic.mb_moved", "MB"),
    ("systolic.busy_ms", "ms"),
    ("systolic.share", "ratio"),
    ("systolic.encode_gflops", "GFLOP/s"),
    ("systolic.decode_gflops", "GFLOP/s"),
    ("trace.overhead_pct", "%"),
    ("plan.modeled_e2e_ms", "ms"),
    ("plan.paper_error_pct", "%"),
    ("plan.load_ms", "ms"),
    ("plan.compute_ms", "ms"),
    ("plan.stall_ms", "ms"),
    ("plan.encoder_compute_ms", "ms"),
    ("plan.decoder_compute_ms", "ms"),
    ("plan.hbm_mb", "MB"),
    ("plan.modeled_utt_per_s", "1/s"),
    ("plan.batch8_compute_ms", "ms"),
    ("plan.batch8_stall_ms", "ms"),
    ("plan.modeled_ms_per_token", "ms"),
    ("plan.decode_cold_ms", "ms"),
    ("plan.decode_steady_kb", "KiB"),
    ("plan.decode_elided_frac", "ratio"),
    ("plan.lower_us", "us"),
    ("plan.lower_us_min", "us"),
    ("plan.walk_us", "us"),
    ("plan.walk_us_min", "us"),
    ("plan.host_samples", "count"),
    ("host_runtime.batch_ms_b1", "ms"),
    ("host_runtime.batch_ms_b2", "ms"),
    ("host_runtime.batch_ms_b4", "ms"),
    ("host_runtime.batch_ms_b8", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.shed", "count"),
    ("serve.missed", "count"),
    ("serve.failed", "count"),
    ("serve.mean_batch", "requests"),
    ("serve.occupancy", "ratio"),
    ("serve.amortized_load_ms", "ms"),
    ("serve.host_us_per_req", "us"),
    ("stream.sustainable_streams", "streams"),
    ("stream.stale_shed", "count"),
    ("stream.backpressure_shed", "count"),
    ("stream.late", "count"),
    ("stream.failovers", "count"),
    ("stream.replayed", "count"),
    ("stream.elided_frac", "ratio"),
    ("stream.cold_chunk_ms", "ms"),
    ("stream.warm_chunk_ms", "ms"),
    ("stream.host_us_per_chunk", "us"),
    ("cluster.completed_frac", "ratio"),
    ("cluster.hedged", "count"),
    ("cluster.handoffs", "count"),
    ("cluster.resumed", "count"),
    ("cluster.checkpoint_rejects", "count"),
    ("cluster.version_rejects", "count"),
    ("cluster.node_share_max", "ratio"),
    ("cluster.upgrade_downtime_ms", "ms"),
    ("cluster.sustainable_rps_n1", "1/s"),
    ("cluster.sustainable_rps_n2", "1/s"),
    ("cluster.sustainable_rps_n3", "1/s"),
    ("cluster.host_us_per_req", "us"),
    ("cluster.sim_kops_per_s", "kreq/s"),
];

/// Every per-layer metric, `(name, unit)`, fixed ones first.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for r in SERVE_LADDER {
        all.push((format!("serve.p99_ms_r{r}"), "ms"));
        all.push((format!("serve.ok_frac_r{r}"), "ratio"));
    }
    for n in STREAM_LADDER {
        all.push((format!("stream.on_time_frac_s{n}"), "ratio"));
    }
    all
}

/// The metrics one run reports, checked against the catalogue.
pub struct Metrics {
    catalogue: BTreeMap<String, &'static str>,
    values: BTreeMap<String, f64>,
    traced: bool,
}

impl Metrics {
    /// An empty set for an untraced (`traced == false`) or traced run.
    pub fn new(traced: bool) -> Self {
        let catalogue = if traced {
            per_layer().into_iter().collect()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
        };
        Metrics { catalogue, values: BTreeMap::new(), traced }
    }

    /// Record `name`; panics on a name outside this run's catalogue or a
    /// non-finite value, both bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(self.catalogue.contains_key(name), "metric {name} is not in the catalogue");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name.to_string(), value);
    }

    /// Whether this run reports per-layer metrics.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// The result line. Per-layer metrics the workload did not measure read
    /// 0; an end-to-end metric left unset is a bug.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit)) in self.catalogue.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(&v) => v,
                None if self.traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_within_limits() {
        let mut names: Vec<String> = END_TO_END.iter().map(|&(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(per_layer().len() <= 128);
        let mut named: Vec<&str> = NAMED.iter().map(|n| n.0).collect();
        named.sort();
        named.dedup();
        assert_eq!(named.len(), 11, "eleven headline figures");
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in per_layer() {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\": ").count();
        assert_eq!(listed, END_TO_END.len() + per_layer().len(), "BENCHMARK.json lists extras");
    }

    #[test]
    fn result_line_zero_fills_only_per_layer() {
        let mut m = Metrics::new(true);
        m.set("systolic.calls", 12.0);
        let line = m.to_json(true, 3, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"systolic.calls\": {\"value\": 12.0, \"unit\": \"count\"}"));
        assert!(line.contains("\"frontend.fbank_ms\": {\"value\": 0.0, \"unit\": \"ms\"}"));
        let untraced = std::panic::catch_unwind(|| Metrics::new(false).to_json(true, 1, 0));
        assert!(untraced.is_err(), "an unset end-to-end metric must not print");
    }
}
