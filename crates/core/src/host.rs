//! The host-side controller (Fig 4.12, §2.2.7, §4.6).
//!
//! The host performs data preparation and feature extraction, uploads each
//! layer's weights through PCIe/HBM as the accelerator consumes them, and
//! sequences the 12 encoder + 6 decoder computations on the kernels with no
//! FPGA reconfiguration. This module ties the whole reproduction together:
//!
//! * [`HostController::latency_report`] — the §5.1.6 numbers: preprocessing
//!   latency, accelerator latency, end-to-end latency, throughput,
//!   GFLOPs/s, GFLOPs/J.
//! * [`HostController::process_utterance`] — the functional path: audio →
//!   fbank → conv subsampling → Transformer on the systolic backend →
//!   characters, plus the calibrated noisy-channel recognition used for the
//!   WER story (the untrained seeded model's raw decode is also returned).

use crate::arch::{simulate, Architecture};
use crate::calib;
use crate::config::AccelConfig;
use crate::energy;
use crate::error::{AccelError, Result};
use crate::exec::SystolicBackend;
use crate::plan::PlanCost;
use asr_frontend::dataset::Utterance;
use asr_frontend::noise::{self, ErrorModel};
use asr_frontend::{FbankExtractor, Subsampler, Vocab};
use asr_transformer::{flops, Model};

/// The §5.1.6 end-to-end latency/throughput/energy report.
#[derive(Debug, Clone)]
pub struct E2eLatency {
    /// Unpadded input sequence length.
    pub input_len: usize,
    /// Padded (built) sequence length.
    pub seq_len: usize,
    /// Host preprocessing + data preparation, seconds.
    pub preprocessing_s: f64,
    /// Accelerator (18-layer) latency, seconds.
    pub accelerator_s: f64,
    /// End-to-end latency, seconds.
    pub total_s: f64,
    /// Steady-state throughput, sequences/second (accelerator-bound: host
    /// preprocessing pipelines with the accelerator).
    pub throughput_seq_per_s: f64,
    /// Model work at the padded length, GFLOPs.
    pub gflops: f64,
    /// Sustained accelerator GFLOPs/s.
    pub gflops_per_s: f64,
    /// Accelerator energy efficiency, GFLOPs/J.
    pub gflops_per_joule: f64,
}

/// Result of the functional E2E path over one utterance.
#[derive(Debug, Clone)]
pub struct E2eResult {
    /// Number of fbank frames extracted.
    pub n_frames: usize,
    /// Encoder sequence length before padding.
    pub input_len: usize,
    /// The latency report for this input.
    pub latency: E2eLatency,
    /// The seeded model's raw greedy decode (untrained ⇒ arbitrary text, but
    /// deterministic and backend-exact).
    pub model_text: String,
    /// Calibrated noisy-channel recognition of the utterance (the WER story;
    /// see DESIGN.md §2 on this substitution).
    pub recognized_text: String,
}

/// The top-level controller.
#[derive(Debug, Clone)]
pub struct HostController {
    /// Accelerator configuration.
    pub cfg: AccelConfig,
    /// Overlap architecture used for scheduling (the shipped design uses A3).
    pub arch: Architecture,
}

impl HostController {
    /// Controller over a configuration, scheduling with architecture A3.
    ///
    /// Fails with [`AccelError::Config`] on an inconsistent configuration.
    pub fn new(cfg: AccelConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Self { cfg, arch: Architecture::A3 })
    }

    /// Simulate the accelerator schedule for an input length.
    pub fn schedule(&self, input_len: usize) -> PlanCost {
        simulate(&self.cfg, self.arch, input_len)
    }

    /// The §5.1.6 report for an input length.
    pub fn latency_report(&self, input_len: usize) -> E2eLatency {
        let acc = self.schedule(input_len).latency_s;
        let s = self.cfg.max_seq_len;
        let pre = calib::preprocessing_latency_s(s);
        E2eLatency {
            input_len,
            seq_len: s,
            preprocessing_s: pre,
            accelerator_s: acc,
            total_s: pre + acc,
            throughput_seq_per_s: 1.0 / acc,
            gflops: flops::model_gflops(s, &self.cfg.model),
            gflops_per_s: energy::accelerator_gflops_per_s(&self.cfg, s, acc),
            gflops_per_joule: energy::accelerator_gflops_per_joule(&self.cfg, s, acc),
        }
    }

    /// Run the functional E2E pipeline over one utterance.
    ///
    /// `model` must match the configuration's Transformer shape, and
    /// `subsampler` must produce `d_model`-wide outputs. The waveform flows
    /// through the real DSP front end and the real model forward pass on the
    /// systolic backend; the recognition text for the WER story comes from
    /// the calibrated noisy channel (`error_model`).
    pub fn process_utterance(
        &self,
        utt: &Utterance,
        model: &Model,
        subsampler: &Subsampler,
        extractor: &FbankExtractor,
        error_model: &ErrorModel,
        seed: u64,
    ) -> Result<E2eResult> {
        if model.config != self.cfg.model {
            return Err(AccelError::ModelMismatch(format!(
                "model shape {:?} does not match the accelerator configuration {:?}",
                model.config, self.cfg.model
            )));
        }
        let features = extractor.extract(&utt.audio);
        let encoder_in = subsampler.forward(&features);
        let input_len = encoder_in.rows().min(self.cfg.max_seq_len).max(1);
        // The bitstream computes at the padded length; functionally we run
        // the unpadded features (padding is numerically inert, see the
        // padding proptests in asr-tensor).
        let trimmed = encoder_in.submatrix(0, 0, input_len, encoder_in.cols());

        let backend = SystolicBackend::new(&self.cfg);
        let tokens = model.transcribe_tokens(&trimmed, 2 * self.cfg.max_seq_len, &backend);
        let vocab = Vocab::librispeech_chars();
        let model_text = vocab.decode(&tokens);
        let recognized_text = noise::recognize(&utt.transcript, error_model, seed);

        Ok(E2eResult {
            n_frames: features.rows(),
            input_len,
            latency: self.latency_report(input_len),
            model_text,
            recognized_text,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_frontend::dataset;
    use asr_frontend::wer::wer;
    use asr_transformer::TransformerConfig;

    #[test]
    fn section_5_1_6_numbers_reproduce() {
        // E2E 120.45 ms, preprocessing 36.3 ms, throughput 11.88 seq/s at s=32.
        let host = HostController::new(AccelConfig::paper_default()).unwrap();
        let r = host.latency_report(32);
        assert!(
            (r.preprocessing_s * 1e3 - 36.3).abs() < 0.5,
            "preproc {} ms",
            r.preprocessing_s * 1e3
        );
        assert!((r.total_s * 1e3 - 120.45).abs() / 120.45 < 0.05, "total {} ms", r.total_s * 1e3);
        assert!(
            (r.throughput_seq_per_s - 11.88).abs() / 11.88 < 0.05,
            "{} seq/s",
            r.throughput_seq_per_s
        );
        assert!((r.gflops - 4.0).abs() < 0.2);
    }

    #[test]
    fn short_inputs_pad_to_the_built_length() {
        let host = HostController::new(AccelConfig::paper_default()).unwrap();
        let r = host.latency_report(4);
        assert_eq!(r.input_len, 4);
        assert_eq!(r.seq_len, 32);
    }

    #[test]
    fn functional_pipeline_runs_on_a_tiny_model() {
        // A tiny-but-structurally-identical configuration keeps this test fast.
        let mut cfg = AccelConfig::paper_default();
        cfg.model = TransformerConfig::tiny();
        cfg.parallel_heads = 4; // tiny() has 4 heads
        cfg.max_seq_len = 8;
        let host = HostController::new(cfg.clone()).unwrap();
        let model = Model::seeded(cfg.model, 11);
        let sub = Subsampler::paper_default(cfg.model.d_model, 3);
        let ex = FbankExtractor::paper_default();
        let utt = dataset::utterance(2.0, 5);
        let r = host
            .process_utterance(&utt, &model, &sub, &ex, &ErrorModel::paper_operating_point(), 9)
            .unwrap();
        assert!(r.n_frames > 100, "frames {}", r.n_frames);
        assert!(r.input_len >= 1 && r.input_len <= 8);
        // The noisy-channel recognition stays close to the ground truth.
        let w = wer(&utt.transcript, &r.recognized_text);
        assert!(w < 0.5, "WER {} unexpectedly high", w);
        assert!(r.latency.total_s > 0.0);
    }

    #[test]
    fn mismatched_model_is_a_typed_error() {
        let host = HostController::new(AccelConfig::paper_default()).unwrap();
        let model = Model::seeded(TransformerConfig::tiny(), 1);
        let sub = Subsampler::paper_default(32, 1);
        let ex = FbankExtractor::paper_default();
        let utt = dataset::utterance(1.0, 1);
        let err =
            host.process_utterance(&utt, &model, &sub, &ex, &ErrorModel::perfect(), 1).unwrap_err();
        assert!(matches!(err, AccelError::ModelMismatch(_)), "{}", err);
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let mut cfg = AccelConfig::paper_default();
        cfg.parallel_heads = 3; // 8 heads don't divide into groups of 3
        let err = HostController::new(cfg).unwrap_err();
        assert!(matches!(err, AccelError::Config(_)), "{}", err);
    }
}
