//! Calibration constants and their derivations.
//!
//! The accelerator model is analytic; these are the constants that anchor it
//! to the paper's measured operating points. Everything else (schedules,
//! overlap structure, resource composition) follows from the architecture.
//!
//! ## PSA initiation interval (`PSA_II = 12`)
//!
//! The thesis (§4.4) states partial unrolling increases PSA latency "by at
//! least ~16×" versus a fully-unrolled array. Solving the encoder-stack cycle
//! model for the paper's measured 84.15 ms at `s = 32`
//! (Table 5.1, A3, compute-bound):
//!
//! ```text
//! t_enc  = t_heads + t_MM4 + t_FFN
//! t_head = 3·t_MM1 + t_MM2 + t_MM3                      (Fig 4.13)
//! t_MM1  = 8 stripes · ceil(s/2) waves · (64·II + 66)   (Fig 4.3)
//! t_FFN  = 2 · [8 tiles · ceil(s/2) · (256·II + 66)]    (Figs 4.6–4.7)
//! stack  = 12·t_enc + 6·t_dec ,  t_dec = 2·t_MHA + t_FFN
//! ```
//!
//! yields `II ≈ 12.0`, consistent with the thesis's ~16× figure once the
//! drain terms are included. With `II = 12` the model gives 84.6 ms at
//! `s = 32` (paper: 84.15 ms) and FFN/MHA ≈ 1.8 (paper: "approximately
//! double").
//!
//! ## HBM effective channel bandwidth (2.65 GB/s)
//!
//! One encoder streams 12.6 MB of f32 weights per layer. The Fig 5.2
//! crossover (load time = compute time at `s ≈ 18`) fixes the two-channel
//! load time at ~2.4 ms, i.e. ~2.65 GB/s per pseudo-channel through a
//! 300 MHz M-AXI burst engine — ~18 % of raw HBM2 pseudo-channel bandwidth,
//! a typical HLS attainment.
//!
//! ## Kernel power (34.4 W)
//!
//! §5.1.6 reports 1.38 GFLOPs/J at 4 GFLOPs / 84.15 ms, implying ~34 W of
//! kernel power (the 75 W figure is the whole board).
//!
//! ## Host preprocessing latency (2.8 ms + 1.05 ms × s)
//!
//! §5.1.6 reports 36.3 ms of host-side data preparation + feature extraction
//! at `s = 32`; the cost is dominated by the STFT/fbank work, which is linear
//! in audio length (and hence in `s`). The affine fit passes through the
//! paper's point.

use asr_systolic::psa::PsaConfig;

/// Calibrated PSA initiation interval (see module docs).
pub const PSA_II: u64 = 12;

/// The paper's PSA geometry: 2 rows × 64 columns.
pub const PSA_ROWS: usize = 2;
/// PSA width.
pub const PSA_COLS: usize = 64;

/// PSAs per Super Logic Region; the design's pool of eight spans both SLRs.
pub const PSAS_PER_SLR: usize = 4;

/// HBM channels feeding the kernels under architectures A1/A2 (one per SLR).
pub const HBM_CHANNELS_A1_A2: u32 = 2;

/// Effective kernel power for the energy-efficiency figure, watts.
pub const KERNEL_POWER_W: f64 = 34.4;

/// Host preprocessing latency model: `a + b·s` seconds.
pub const PREPROC_BASE_S: f64 = 2.8e-3;
/// Per-sequence-step preprocessing cost, seconds.
pub const PREPROC_PER_STEP_S: f64 = 1.046e-3;

/// The calibrated PSA configuration.
pub fn paper_psa() -> PsaConfig {
    PsaConfig { rows: PSA_ROWS, cols: PSA_COLS, ii: PSA_II, fill: 8 }
}

/// Host preprocessing latency for sequence length `s`, seconds.
pub fn preprocessing_latency_s(s: usize) -> f64 {
    PREPROC_BASE_S + PREPROC_PER_STEP_S * s as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psa_matches_paper_geometry() {
        let p = paper_psa();
        assert_eq!((p.rows, p.cols), (2, 64));
        assert_eq!(p.ii, 12);
    }

    #[test]
    fn preprocessing_hits_paper_point() {
        // §5.1.6: 36.3 ms at s = 32.
        let t = preprocessing_latency_s(32);
        assert!((t - 36.3e-3).abs() < 0.5e-3, "preproc {} s", t);
    }
}
