//! The composed host-side front end: everything §3.1 describes, as one
//! pipeline.
//!
//! `raw audio → resample to 16 kHz (when needed) → fbank → conv
//! subsampling → s × d_model encoder input`. This is the object a
//! deployment holds; the individual modules remain available for piecemeal
//! use.

use crate::audio::{Waveform, SAMPLE_RATE};
use crate::fbank::FbankExtractor;
use crate::resample::resample;
use crate::subsample::Subsampler;
use asr_tensor::Matrix;

/// The composed front end.
pub struct FrontendPipeline {
    extractor: FbankExtractor,
    subsampler: Subsampler,
}

/// Result of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Encoder input, `s × d_model`.
    pub encoder_input: Matrix,
    /// Fbank frames extracted.
    pub n_frames: usize,
    /// Audio seconds actually featurised.
    pub audio_seconds: f64,
}

impl FrontendPipeline {
    /// The paper's configuration: fbank80 + 40× conv subsampling to
    /// `d_model`, no VAD, no CMVN.
    pub fn paper_default(d_model: usize, seed: u64) -> Self {
        FrontendPipeline {
            extractor: FbankExtractor::paper_default(),
            subsampler: Subsampler::paper_default(d_model, seed),
        }
    }

    /// Run the pipeline on a waveform at any sample rate.
    pub fn process(&self, audio: &Waveform) -> PipelineOutput {
        let audio_16k = if audio.sample_rate == SAMPLE_RATE {
            audio.clone()
        } else {
            resample(audio, SAMPLE_RATE)
        };
        let features = self.extractor.extract(&audio_16k);
        let encoder_input = self.subsampler.forward(&features);
        PipelineOutput {
            n_frames: features.rows(),
            audio_seconds: audio_16k.duration_s(),
            encoder_input,
        }
    }

    /// Expected encoder sequence length for `t` fbank frames.
    pub fn output_len(&self, t: usize) -> usize {
        self.subsampler.output_len(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset;

    fn pipeline() -> FrontendPipeline {
        FrontendPipeline::paper_default(64, 1)
    }

    #[test]
    fn basic_pipeline_produces_encoder_input() {
        let utt = dataset::utterance(3.0, 7);
        let out = pipeline().process(&utt.audio);
        assert_eq!(out.encoder_input.cols(), 64);
        assert!(out.n_frames > 200);
        assert!(out.encoder_input.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(out.encoder_input.rows(), pipeline().output_len(out.n_frames));
    }

    #[test]
    fn resampling_is_automatic() {
        let utt = dataset::utterance(2.0, 3);
        let down = resample(&utt.audio, 8_000);
        let out = pipeline().process(&down);
        // same duration => roughly the same frame count as the 16 kHz path
        let direct = pipeline().process(&utt.audio);
        assert!((out.n_frames as i64 - direct.n_frames as i64).abs() <= 2);
    }

    #[test]
    fn deterministic() {
        let utt = dataset::utterance(1.5, 5);
        let a = pipeline().process(&utt.audio);
        let b = pipeline().process(&utt.audio);
        assert_eq!(a.encoder_input, b.encoder_input);
    }
}
