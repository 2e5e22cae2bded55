//! ASR front end: everything between a raw waveform and the Transformer, plus
//! the text side (vocabulary, scoring) of the pipeline.
//!
//! The paper's host performs "data pre-processing and feature extraction"
//! (§3.1): pre-emphasis, 25 ms framing with a window function, STFT, an
//! 80-dimensional triangular mel filterbank, then a 2-D convolution + max-pool
//! front end feeding `d_model`-dimensional vectors to the encoder stack. All
//! of that is implemented here from scratch (including the FFT).
//!
//! LibriSpeech itself is not available in this environment, so [`dataset`]
//! synthesizes a deterministic speech-like corpus (formant synthesis over a
//! word list, 16 kHz / 16-bit like LibriSpeech) with ground-truth transcripts,
//! and [`noise`] provides the calibrated noisy-channel recognizer used to
//! reproduce the paper's WER measurement machinery (§5.1.1, WER ≈ 9.5 %).

pub mod audio;
pub mod dataset;
pub mod fbank;
pub mod fft;
pub mod framing;
pub mod image;
pub mod mel;
pub mod noise;
pub mod pipeline;
pub mod preemphasis;
pub mod resample;
pub mod stft;
pub mod subsample;
pub mod text;
pub mod vocab;
pub mod wer;
pub mod window;

pub use audio::Waveform;
pub use fbank::{FbankConfig, FbankExtractor};
pub use subsample::Subsampler;
pub use vocab::Vocab;
pub use wer::{edit_distance, wer};
