//! Structured generators for every table and figure of the evaluation.

use asr_accel::arch::{self, Architecture};
use asr_accel::host::HostController;
use asr_accel::{dse, energy, resources, AccelConfig};
use asr_baselines::refworks::{improvement_over_cpu_ref, RefWork, REFERENCE_WORKS};
use asr_baselines::{CpuModel, GpuModel};
use asr_frontend::dataset::{self, Utterance};
use asr_frontend::noise::{recognize, ErrorModel};
use asr_frontend::wer::corpus_wer;
use asr_frontend::{FbankExtractor, Subsampler};
use asr_transformer::weights::{weight_inventory, InventoryRow};
use asr_transformer::{flops, Model, TransformerConfig};

/// Effective GPU power during batch-1 inference, watts. Reverse-engineered
/// from the paper's §5.1.6 figure of ~0.055 GFLOPs/J at 4 GFLOPs / 1.32 s:
/// the card idles far below TDP on this workload.
pub const GPU_INFERENCE_POWER_W: f64 = 55.0;

/// The paper's configuration built for sequence length `s` (no padding).
pub fn config_built_for(s: usize) -> AccelConfig {
    let mut cfg = AccelConfig::paper_default();
    cfg.max_seq_len = s;
    cfg
}

// ---------------------------------------------------------------- Table 4.1

/// Table 4.1: weight matrices read for an encoder-decoder stack.
pub fn table4_1_rows() -> Vec<InventoryRow> {
    weight_inventory(&TransformerConfig::paper_base())
}

// ---------------------------------------------------------------- Table 4.2

/// One row of Table 4.2.
#[derive(Debug, Clone)]
pub struct Table42Row {
    /// MM kind name.
    pub name: String,
    /// Input 1 dims.
    pub input1: (usize, usize),
    /// Input 2 dims.
    pub input2: (usize, usize),
    /// Output dims.
    pub output: (usize, usize),
    /// Paper figure reference.
    pub figure: &'static str,
}

/// Table 4.2: dimensions of the matrix multiplications at sequence length `s`.
pub fn table4_2_rows(s: usize) -> Vec<Table42Row> {
    let cfg = AccelConfig::paper_default();
    asr_accel::mm::MmKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let (a, b, o) = kind.dims(s, &cfg);
            Table42Row {
                name: format!("MM{}", i + 1),
                input1: a,
                input2: b,
                output: o,
                figure: kind.figure(),
            }
        })
        .collect()
}

// ------------------------------------------------------------------ Fig 5.2

/// One point of the Fig 5.2 load/compute sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig52Row {
    /// Sequence length.
    pub s: usize,
    /// Weight load time of one encoder layer, ms.
    pub load_ms: f64,
    /// Compute time of one MHA + FFN block, ms.
    pub compute_ms: f64,
}

/// Fig 5.2: load vs compute time of one MHA + FFN block over `s`.
pub fn fig5_2_rows(s_range: impl Iterator<Item = usize>) -> Vec<Fig52Row> {
    let cfg = AccelConfig::paper_default();
    let load_ms = arch::encoder_load_time_s(&cfg) * 1e3;
    s_range
        .map(|s| Fig52Row { s, load_ms, compute_ms: arch::encoder_compute_time_s(&cfg, s) * 1e3 })
        .collect()
}

/// The Fig 5.2 crossover sequence length (paper: ≈ 18).
pub fn fig5_2_crossover() -> Option<usize> {
    arch::load_compute_crossover(&AccelConfig::paper_default(), 64)
}

// ---------------------------------------------------------------- Table 5.1

/// One row of Table 5.1.
#[derive(Debug, Clone)]
pub struct Table51Row {
    /// Sequence length the design was built for.
    pub s: usize,
    /// Architecture name.
    pub arch: &'static str,
    /// Modeled latency, ms.
    pub latency_ms: f64,
    /// Improvement over A1 at the same `s`.
    pub improvement: f64,
}

/// Table 5.1: architecture-wise latency for sequence lengths 4, 8, 16, 32.
pub fn table5_1_rows() -> Vec<Table51Row> {
    let mut rows = Vec::new();
    for &s in &[4usize, 8, 16, 32] {
        let cfg = config_built_for(s);
        let a1 = arch::simulate(&cfg, Architecture::A1, s).latency_s;
        for a in Architecture::ALL {
            let lat = arch::simulate(&cfg, a, s).latency_s;
            rows.push(Table51Row {
                s,
                arch: a.name(),
                latency_ms: lat * 1e3,
                improvement: a1 / lat,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- Table 5.2

/// Table 5.2 data: `(resource name, used, available)` at the built length 32.
pub fn table5_2_rows() -> Vec<(&'static str, u64, u64)> {
    let cfg = AccelConfig::paper_default();
    let used = resources::estimate(&cfg).total();
    let avail = cfg.device.total_resources();
    vec![
        ("BRAM_18K", used.bram_18k, avail.bram_18k),
        ("DSP", used.dsp, avail.dsp),
        ("FF", used.ff, avail.ff),
        ("LUT", used.lut, avail.lut),
    ]
}

// ---------------------------------------------------------------- Table 5.3

/// Table 5.3: the head-parallelism design-space exploration at s = 32.
pub fn table5_3_rows() -> Vec<dse::DesignPoint> {
    dse::explore(&AccelConfig::paper_default())
}

// ---------------------------------------------------------- Tables 5.4, 5.5

/// One row of the CPU/GPU comparison tables.
#[derive(Debug, Clone, Copy)]
pub struct BaselineRow {
    /// Input sequence length.
    pub s: usize,
    /// Modeled baseline latency, seconds.
    pub baseline_s: f64,
    /// The paper's measured latency, seconds.
    pub paper_s: f64,
    /// Modeled improvement (baseline / accelerator-at-padded-32).
    pub improvement: f64,
    /// The paper's reported improvement.
    pub paper_improvement: f64,
}

/// The accelerator latency every Table 5.4/5.5 input runs at: the padded
/// s = 32 design under A3.
pub fn accelerator_latency_s() -> f64 {
    let cfg = AccelConfig::paper_default();
    arch::simulate(&cfg, Architecture::A3, 32).latency_s
}

/// Table 5.4: latencies for different sequence lengths versus the CPU.
pub fn table5_4_rows() -> Vec<BaselineRow> {
    let model = TransformerConfig::paper_base();
    let cpu = CpuModel::xeon_e5_2640();
    let accel = accelerator_latency_s();
    let paper_improvements = [4.75, 13.1, 36.8, 40.5, 45.2, 53.5];
    asr_baselines::cpu::PAPER_CPU_LATENCIES
        .iter()
        .zip(paper_improvements)
        .map(|(&(s, paper_s), paper_improvement)| {
            let baseline_s = cpu.latency_s(s, &model);
            BaselineRow {
                s,
                baseline_s,
                paper_s,
                improvement: baseline_s / accel,
                paper_improvement,
            }
        })
        .collect()
}

/// Table 5.5: latencies for different sequence lengths versus the GPU.
pub fn table5_5_rows() -> Vec<BaselineRow> {
    let model = TransformerConfig::paper_base();
    let gpu = GpuModel::rtx_3080_ti();
    let accel = accelerator_latency_s();
    let paper_improvements = [4.01, 5.4, 6.3, 9.39, 12.1, 15.5];
    asr_baselines::gpu::PAPER_GPU_LATENCIES
        .iter()
        .zip(paper_improvements)
        .map(|(&(s, paper_s), paper_improvement)| {
            let baseline_s = gpu.latency_s(s, &model);
            BaselineRow {
                s,
                baseline_s,
                paper_s,
                improvement: baseline_s / accel,
                paper_improvement,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Table 5.6

/// One row of Table 5.6.
#[derive(Debug, Clone)]
pub struct Table56Row {
    /// Work label.
    pub name: String,
    /// Platform class.
    pub platform: &'static str,
    /// Workload GFLOPs.
    pub gflops: f64,
    /// Latency, seconds.
    pub latency_s: f64,
    /// GFLOPs per second.
    pub gflops_per_s: f64,
    /// Improvement over the CPU reference row.
    pub improvement: f64,
}

/// Table 5.6: performance comparison with reference works, plus this design.
pub fn table5_6_rows() -> Vec<Table56Row> {
    let mut rows: Vec<Table56Row> = REFERENCE_WORKS
        .iter()
        .map(|r: &RefWork| Table56Row {
            name: r.name.to_string(),
            platform: r.platform,
            gflops: r.gflops,
            latency_s: r.latency_s,
            gflops_per_s: r.gflops_per_s(),
            improvement: improvement_over_cpu_ref(r.gflops_per_s()),
        })
        .collect();
    let cfg = AccelConfig::paper_default();
    let lat = accelerator_latency_s();
    let g = flops::model_gflops(32, &cfg.model);
    let gps = energy::accelerator_gflops_per_s(&cfg, 32, lat);
    rows.push(Table56Row {
        name: "This work".to_string(),
        platform: "FPGA",
        gflops: g,
        latency_s: lat,
        gflops_per_s: gps,
        improvement: improvement_over_cpu_ref(gps),
    });
    rows
}

// ----------------------------------------------------------------- § 5.1.6

/// The scalar results of §5.1.6.
#[derive(Debug, Clone, Copy)]
pub struct OtherResults {
    /// End-to-end latency at s = 32, ms (paper: 120.45).
    pub e2e_ms: f64,
    /// Host preprocessing latency, ms (paper: 36.3).
    pub preprocessing_ms: f64,
    /// Throughput, sequences/s (paper: 11.88).
    pub throughput_seq_per_s: f64,
    /// Accelerator energy efficiency, GFLOPs/J (paper: 1.38).
    pub fpga_gflops_per_j: f64,
    /// GPU energy efficiency, GFLOPs/J (paper: ~0.055).
    pub gpu_gflops_per_j: f64,
}

/// §5.1.6: end-to-end latency, throughput and energy efficiency.
pub fn section_5_1_6() -> OtherResults {
    let host =
        HostController::new(AccelConfig::paper_default()).expect("paper default config is valid");
    let r = host.latency_report(32);
    let gpu = GpuModel::rtx_3080_ti();
    let gpu_lat = gpu.latency_s(32, &TransformerConfig::paper_base());
    OtherResults {
        e2e_ms: r.total_s * 1e3,
        preprocessing_ms: r.preprocessing_s * 1e3,
        throughput_seq_per_s: r.throughput_seq_per_s,
        fpga_gflops_per_j: r.gflops_per_joule,
        gpu_gflops_per_j: r.gflops / (gpu_lat * GPU_INFERENCE_POWER_W),
    }
}

// ----------------------------------------------------------------- § 5.1.1

/// Result of the WER experiment.
#[derive(Debug, Clone, Copy)]
pub struct WerResult {
    /// Corpus word error rate (paper: ~0.095).
    pub wer: f64,
    /// Utterances scored.
    pub n_utterances: usize,
}

/// §5.1.1: corpus WER through the calibrated noisy-channel recognizer.
pub fn wer_experiment(n_utterances: usize, seed: u64) -> WerResult {
    let model = ErrorModel::paper_operating_point();
    let pairs: Vec<(String, String)> = (0..n_utterances)
        .map(|i| {
            let t = dataset::sample_transcript(40, seed + i as u64);
            let h = recognize(&t, &model, seed + 10_000 + i as u64);
            (t, h)
        })
        .collect();
    WerResult { wer: corpus_wer(&pairs), n_utterances }
}

// ------------------------------------------------------------------ Fig 5.1

/// Result of the Fig 5.1 end-to-end demonstration.
#[derive(Debug, Clone)]
pub struct Fig51Result {
    /// The utterance's LibriSpeech-style id.
    pub utterance_id: String,
    /// Ground-truth transcript.
    pub transcript: String,
    /// Recognized text (calibrated noisy channel — see DESIGN.md §2).
    pub recognized: String,
    /// The seeded model's raw greedy decode through the systolic backend.
    pub model_text: String,
    /// Number of fbank frames.
    pub n_frames: usize,
    /// Encoder sequence length (unpadded).
    pub input_len: usize,
    /// End-to-end latency report.
    pub e2e_ms: f64,
}

/// Fig 5.1: raw audio → recognized text, through the full pipeline.
///
/// `quick` swaps the paper-size Transformer for the structurally identical
/// tiny configuration so the functional pass finishes in milliseconds; the
/// latency report always uses the paper-size accelerator model.
pub fn fig5_1(seed: u64, quick: bool) -> Fig51Result {
    let mut cfg = AccelConfig::paper_default();
    if quick {
        cfg.model = TransformerConfig::tiny();
        cfg.parallel_heads = 4;
        cfg.max_seq_len = 8;
    }
    let host = HostController::new(cfg.clone()).expect("valid configuration");
    let model = Model::seeded(cfg.model, seed);
    let sub = Subsampler::paper_default(cfg.model.d_model, seed + 1);
    let ex = FbankExtractor::paper_default();
    let utt: Utterance = dataset::utterance(if quick { 2.0 } else { 10.0 }, seed);
    let r = host
        .process_utterance(&utt, &model, &sub, &ex, &ErrorModel::paper_operating_point(), seed + 2)
        .expect("model shape matches the configuration");
    // Always report the paper-size accelerator's latency for the figure.
    let paper_latency = HostController::new(AccelConfig::paper_default())
        .expect("paper default config is valid")
        .latency_report(32)
        .total_s;
    Fig51Result {
        utterance_id: utt.id,
        transcript: utt.transcript,
        recognized: r.recognized_text,
        model_text: r.model_text.chars().take(60).collect(),
        n_frames: r.n_frames,
        input_len: r.input_len,
        e2e_ms: paper_latency * 1e3,
    }
}

// ----------------------------------------------------------------- § 5.1.4

/// The §5.1.4 discussion quantities.
#[derive(Debug, Clone, Copy)]
pub struct DiscussionResult {
    /// FFN-block to MHA-block latency ratio (paper: ~2).
    pub ffn_over_mha: f64,
    /// The binding fabric constraint (paper: LUT).
    pub binding_constraint: &'static str,
    /// Its utilization percentage.
    pub binding_pct: f64,
}

/// §5.1.4: block latency ratio and the binding resource constraint.
pub fn discussion() -> DiscussionResult {
    let cfg = AccelConfig::paper_default();
    let mha = asr_accel::schedule::mha_block_cycles(&cfg, 32, 32).get() as f64;
    let ffn = asr_accel::schedule::ffn_block_cycles(&cfg, 32).get() as f64;
    let used = resources::estimate(&cfg).total();
    let (name, pct) = used.binding_constraint(&cfg.device.total_resources());
    DiscussionResult { ffn_over_mha: ffn / mha, binding_constraint: name, binding_pct: pct }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_1_has_12_rows_in_order() {
        let rows = table5_1_rows();
        assert_eq!(rows.len(), 12);
        assert_eq!(rows[0].arch, "A1");
        assert!((rows[0].improvement - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig5_2_load_constant_compute_growing() {
        let rows = fig5_2_rows((2..=40).step_by(2));
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert_eq!(first.load_ms, last.load_ms);
        assert!(last.compute_ms > first.compute_ms * 5.0);
    }

    #[test]
    fn table5_4_average_speedup_near_paper() {
        let rows = table5_4_rows();
        let avg: f64 = rows.iter().map(|r| r.improvement).sum::<f64>() / rows.len() as f64;
        assert!((avg - 32.0).abs() < 6.0, "avg CPU speedup {}", avg);
    }

    #[test]
    fn table5_5_average_speedup_near_paper() {
        let rows = table5_5_rows();
        let avg: f64 = rows.iter().map(|r| r.improvement).sum::<f64>() / rows.len() as f64;
        assert!((avg - 8.8).abs() < 2.0, "avg GPU speedup {}", avg);
    }

    #[test]
    fn table5_6_this_work_wins() {
        let rows = table5_6_rows();
        let ours = rows.last().unwrap();
        assert_eq!(ours.name, "This work");
        assert!(ours.gflops_per_s > rows[2].gflops_per_s * 3.0);
        assert!((ours.improvement - 90.0).abs() < 10.0, "improvement {}", ours.improvement);
    }

    #[test]
    fn section_5_1_6_matches_paper_scalars() {
        let o = section_5_1_6();
        assert!((o.e2e_ms - 120.45).abs() / 120.45 < 0.05, "e2e {}", o.e2e_ms);
        assert!((o.throughput_seq_per_s - 11.88).abs() / 11.88 < 0.05);
        assert!((o.fpga_gflops_per_j - 1.38).abs() < 0.12);
        assert!((o.gpu_gflops_per_j - 0.055).abs() < 0.01);
        assert!(o.fpga_gflops_per_j / o.gpu_gflops_per_j > 10.0);
    }

    #[test]
    fn wer_lands_near_9_5_percent() {
        let r = wer_experiment(150, 7);
        assert!((r.wer - 0.095).abs() < 0.02, "WER {}", r.wer);
    }

    #[test]
    fn fig5_1_quick_runs_end_to_end() {
        let r = fig5_1(3, true);
        assert!(!r.transcript.is_empty());
        assert!(!r.recognized.is_empty());
        assert!(r.n_frames > 50);
        assert!((r.e2e_ms - 120.45).abs() / 120.45 < 0.06);
    }

    #[test]
    fn discussion_matches_section_5_1_4() {
        let d = discussion();
        assert!(d.ffn_over_mha > 1.5 && d.ffn_over_mha < 2.2);
        assert_eq!(d.binding_constraint, "LUT");
    }
}
