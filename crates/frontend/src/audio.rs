//! Waveform container and synthetic speech-like signal generation.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// LibriSpeech's sample rate (16 kHz), used throughout.
pub const SAMPLE_RATE: u32 = 16_000;

/// A mono audio signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    /// Samples in `[-1, 1]`.
    pub samples: Vec<f32>,
    /// Samples per second.
    pub sample_rate: u32,
}

impl Waveform {
    /// Construct from samples at a given rate.
    pub fn new(samples: Vec<f32>, sample_rate: u32) -> Self {
        assert!(sample_rate > 0, "sample rate must be positive");
        Self { samples, sample_rate }
    }

    /// Duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate as f64
    }

    /// Encode as 16-bit PCM (LibriSpeech's storage format); values clamp.
    pub fn to_pcm16(&self) -> Vec<i16> {
        self.samples.iter().map(|&x| (x.clamp(-1.0, 1.0) * i16::MAX as f32) as i16).collect()
    }

    /// Decode 16-bit PCM back to float samples.
    pub fn from_pcm16(pcm: &[i16], sample_rate: u32) -> Self {
        let samples = pcm.iter().map(|&x| x as f32 / i16::MAX as f32).collect();
        Self::new(samples, sample_rate)
    }

    /// Peak absolute amplitude.
    pub fn peak(&self) -> f32 {
        self.samples.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }
}

/// Deterministic formant-style synthesis of a speech-like signal for a
/// transcript. Each character drives a short segment whose formant
/// frequencies are a function of the character, giving a signal whose
/// spectral content varies like speech (voiced bands + noise floor) without
/// any claim of intelligibility. This is the LibriSpeech stand-in: it
/// exercises the identical DSP/feature path with realistic durations.
pub fn synthesize_speech(transcript: &str, seed: u64) -> Waveform {
    let sr = SAMPLE_RATE as f32;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // ~70 ms per character ≈ 12–15 characters/second reading speed.
    let seg_len = (0.07 * sr) as usize;
    let mut samples = Vec::with_capacity(transcript.len() * seg_len);
    let mut phase1 = 0.0f32;
    let mut phase2 = 0.0f32;
    let mut phase0 = 0.0f32;

    for ch in transcript.chars() {
        let c = ch as u32;
        if ch == ' ' {
            // Inter-word gap: low-level noise only.
            for _ in 0..seg_len / 2 {
                samples.push(rng.gen_range(-0.01..0.01));
            }
            continue;
        }
        // Formants derived from the character code: F1 in 300–900 Hz,
        // F2 in 900–2500 Hz; F0 (pitch) 90–220 Hz.
        let f0 = 90.0 + (c % 13) as f32 * 10.0;
        let f1 = 300.0 + (c % 7) as f32 * 85.0;
        let f2 = 900.0 + (c % 11) as f32 * 145.0;
        let w0 = 2.0 * std::f32::consts::PI * f0 / sr;
        let w1 = 2.0 * std::f32::consts::PI * f1 / sr;
        let w2 = 2.0 * std::f32::consts::PI * f2 / sr;
        for k in 0..seg_len {
            // Raised-cosine segment envelope avoids clicks at boundaries.
            let env = 0.5 - 0.5 * (2.0 * std::f32::consts::PI * k as f32 / seg_len as f32).cos();
            phase0 += w0;
            phase1 += w1;
            phase2 += w2;
            let voiced = 0.45 * phase0.sin() + 0.3 * phase1.sin() + 0.18 * phase2.sin();
            let aspiration: f32 = rng.gen_range(-0.05..0.05);
            samples.push(env * (voiced + aspiration) * 0.8);
        }
    }
    Waveform::new(samples, SAMPLE_RATE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_matches_sample_count() {
        let w = Waveform::new(vec![0.0; 16_000], SAMPLE_RATE);
        assert!((w.duration_s() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pcm_roundtrip_is_close() {
        let w = Waveform::new(vec![0.0, 0.5, -0.5, 0.99, -0.99], SAMPLE_RATE);
        let back = Waveform::from_pcm16(&w.to_pcm16(), SAMPLE_RATE);
        for (a, b) in w.samples.iter().zip(&back.samples) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn pcm_clamps_out_of_range() {
        let w = Waveform::new(vec![2.0, -2.0], SAMPLE_RATE);
        let pcm = w.to_pcm16();
        assert_eq!(pcm[0], i16::MAX);
        assert_eq!(pcm[1], -i16::MAX);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = synthesize_speech("HELLO WORLD", 7);
        let b = synthesize_speech("HELLO WORLD", 7);
        assert_eq!(a, b);
    }

    #[test]
    fn synthesis_duration_scales_with_text() {
        let short = synthesize_speech("HI", 1);
        let long = synthesize_speech("A MUCH LONGER SENTENCE OF TEXT", 1);
        assert!(long.duration_s() > 3.0 * short.duration_s());
    }

    #[test]
    fn synthesis_stays_in_range() {
        let w = synthesize_speech("THE QUICK BROWN FOX", 3);
        assert!(w.peak() <= 1.0);
        assert!(w.peak() > 0.1, "signal should not be silence");
    }

    #[test]
    fn different_text_different_audio() {
        let a = synthesize_speech("AAA", 1);
        let b = synthesize_speech("ZZZ", 1);
        assert_ne!(a.samples, b.samples);
    }
}
