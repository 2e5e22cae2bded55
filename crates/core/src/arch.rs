//! The three end-to-end load/compute architectures A1, A2, A3 (§4.5).
//!
//! * **A1** (Fig 4.8) — naive: load layer `i`'s weights, compute layer `i`,
//!   repeat. One load engine, no overlap.
//! * **A2** (Fig 4.9) — task-pipelined: `C_i` runs in parallel with
//!   `LW_{i+1}` through a double weight buffer. One load engine.
//! * **A3** (Fig 4.10/4.11) — double-buffered *loads*: two load engines on
//!   disjoint HBM channel pairs keep two `LW`s in flight (`LW_{i+2}` starts
//!   as soon as `C_i` frees its buffer), halving the residual compute stall.
//!   Decoder layers split their load into the combined M-MHA+MHA phase and
//!   the FFN phase, loaded concurrently on the two engines (Fig 4.11).
//!
//! Since the `core::plan` refactor the three architectures are not three
//! simulators: [`simulate`] lowers the request into one
//! [`crate::plan::ExecPlan`] (where A1/A2/A3 differ only in the prefetch
//! edges the lowering emits) and prices it with the analytic walker
//! [`crate::plan::walk_cost`]. The walker builds an explicit
//! [`asr_fpga_sim::Timeline`], so unit exclusivity (no double-booked load
//! engine or PSA pool) is machine-checked, and stalls are measured rather
//! than assumed.

use crate::calib;
use crate::config::AccelConfig;
use crate::plan::{walk_cost, ExecPlan, PlanCost};
use crate::schedule::encoder;
use asr_systolic::abft::IntegrityLevel;

/// Which overlap architecture to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Sequential load→compute (Fig 4.8).
    A1,
    /// Load/compute task pipelining (Fig 4.9).
    A2,
    /// Dual-engine overlapped loads (Figs 4.10–4.11).
    A3,
}

impl Architecture {
    /// All three in paper order.
    pub const ALL: [Architecture; 3] = [Architecture::A1, Architecture::A2, Architecture::A3];

    /// Name as printed in Table 5.1.
    pub fn name(self) -> &'static str {
        match self {
            Architecture::A1 => "A1",
            Architecture::A2 => "A2",
            Architecture::A3 => "A3",
        }
    }
}

/// Analytic weight footprints (f32 bytes) of the model's layer phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerBytes {
    /// One encoder layer's full weight set.
    pub encoder: u64,
    /// A decoder's combined M-MHA + MHA weights (with their Add-Norms).
    pub decoder_mha: u64,
    /// A decoder's FFN weights (with its Add-Norm).
    pub decoder_ffn: u64,
}

/// Compute the per-layer weight traffic from the model configuration.
///
/// Weight *counts* come from the model shape; bytes on the wire come from
/// [`AccelConfig::encoded_bytes`]. At the default dense encoding this
/// matches `asr_transformer::weights::*::size_bytes` exactly; the int8
/// variant ([`asr_tensor::WeightEncoding::Int8`]) quarters the traffic, and
/// the compressed encodings shrink it further.
pub fn layer_bytes(cfg: &AccelConfig) -> LayerBytes {
    let (d, dk, dff, h) = (
        cfg.model.d_model as u64,
        cfg.model.d_k() as u64,
        cfg.model.d_ff as u64,
        cfg.model.n_heads as u64,
    );
    let attn = 3 * h * (d * dk + dk) + d * d + d;
    let ln_pair = 2 * d;
    let ffn = d * dff + dff + dff * d + d;
    LayerBytes {
        encoder: cfg.encoded_bytes(attn + ffn + 2 * ln_pair),
        decoder_mha: cfg.encoded_bytes(2 * attn + 2 * ln_pair),
        decoder_ffn: cfg.encoded_bytes(ffn + ln_pair),
    }
}

/// Simulate an architecture for an input of (unpadded) length `input_len`:
/// the paper's solo run, lowered into a batch-of-one plan and priced by the
/// analytic walker, whose [`PlanCost`] it returns.
///
/// The input is padded to the built sequence length (§5.1.5,
/// `cfg.max_seq_len`); compute and load times are those of the padded
/// length.
///
/// # Panics
///
/// If `input_len` exceeds `cfg.max_seq_len` or `cfg` is invalid. A caller
/// holding unchecked input lowers with [`ExecPlan::lower`], which returns
/// the typed error, and prices the plan with [`walk_cost`].
pub fn simulate(cfg: &AccelConfig, arch: Architecture, input_len: usize) -> PlanCost {
    let plan = ExecPlan::lower(cfg, arch, input_len, 1, IntegrityLevel::Off)
        .expect("input fits the built sequence length");
    walk_cost(cfg, &plan)
}

/// Load time of one encoder layer's weights (Fig 5.2's "Load" series), seconds.
pub fn encoder_load_time_s(cfg: &AccelConfig) -> f64 {
    cfg.device.hbm.read_time_s(layer_bytes(cfg).encoder, calib::HBM_CHANNELS_A1_A2)
}

/// Compute time of one encoder layer (one MHA + FFN block, Fig 5.2's
/// "Compute" series) at sequence length `s`, seconds. Unlike [`simulate`],
/// this does NOT pad: Fig 5.2 sweeps the actual sequence length.
pub fn encoder_compute_time_s(cfg: &AccelConfig, s: usize) -> f64 {
    cfg.device.clock.to_seconds(encoder::encoder_cycles(cfg, s))
}

/// The Fig 5.2 crossover: smallest `s` at which compute exceeds load.
pub fn load_compute_crossover(cfg: &AccelConfig, max_s: usize) -> Option<usize> {
    let load = encoder_load_time_s(cfg);
    (1..=max_s).find(|&s| encoder_compute_time_s(cfg, s) > load)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AccelConfig {
        AccelConfig::paper_default()
    }

    fn unpadded(len: usize) -> AccelConfig {
        // build the bitstream exactly at the input length, so s = len
        let mut c = cfg();
        c.max_seq_len = len;
        c
    }

    #[test]
    fn layer_bytes_match_weight_containers() {
        use asr_transformer::weights::{DecoderWeights, EncoderWeights};
        let c = cfg();
        let b = layer_bytes(&c);
        let enc = EncoderWeights::seeded(&c.model, 1);
        let dec = DecoderWeights::seeded(&c.model, 2);
        assert_eq!(b.encoder, enc.size_bytes());
        assert_eq!(b.decoder_mha, dec.mha_phase_bytes());
        assert_eq!(b.decoder_ffn, dec.ffn_phase_bytes());
    }

    #[test]
    fn a3_never_slower_than_a2_never_slower_than_a1() {
        for len in [4, 8, 16, 32] {
            let c = unpadded(len);
            let a1 = simulate(&c, Architecture::A1, len).latency_s;
            let a2 = simulate(&c, Architecture::A2, len).latency_s;
            let a3 = simulate(&c, Architecture::A3, len).latency_s;
            assert!(a2 <= a1 + 1e-9, "s={}: A2 {} > A1 {}", len, a2, a1);
            assert!(a3 <= a2 + 1e-9, "s={}: A3 {} > A2 {}", len, a3, a2);
        }
    }

    #[test]
    fn table_5_1_shape_a3_speedup_band() {
        // Paper: A3 improves on A1 by 1.46x (s=32) to 1.94x (s=4). The model
        // must land in a compatible band (1.4–2.3x) with the gain shrinking
        // as s grows.
        let gain = |len| {
            let c = unpadded(len);
            simulate(&c, Architecture::A1, len).latency_s
                / simulate(&c, Architecture::A3, len).latency_s
        };
        let g4 = gain(4);
        let g32 = gain(32);
        assert!(g4 > 1.6 && g4 < 2.4, "s=4 gain {}", g4);
        assert!(g32 > 1.3 && g32 < 1.7, "s=32 gain {}", g32);
        assert!(g4 > g32, "gain must shrink with s");
    }

    #[test]
    fn a2_equals_a3_when_compute_bound() {
        // s = 32 > 18: no load stalls remain, so A2 ≈ A3 (paper: both 84.15).
        let c = unpadded(32);
        let a2 = simulate(&c, Architecture::A2, 32).latency_s;
        let a3 = simulate(&c, Architecture::A3, 32).latency_s;
        assert!((a2 - a3).abs() / a2 < 0.02, "A2 {} vs A3 {}", a2, a3);
    }

    #[test]
    fn s32_latency_near_paper() {
        // Paper Table 5.1: A3 at s=32 is 84.15 ms. Allow 5% (our simulator
        // includes the first-load fill the paper folds away).
        let c = unpadded(32);
        let ms = simulate(&c, Architecture::A3, 32).latency_s * 1e3;
        assert!((ms - 84.15).abs() / 84.15 < 0.05, "A3 s=32 = {} ms", ms);
    }

    #[test]
    fn crossover_lands_near_s18() {
        // Fig 5.2: compute exceeds load at s ≈ 18.
        let c = cfg();
        let x = load_compute_crossover(&c, 40).expect("crossover exists");
        assert!((16..=20).contains(&x), "crossover at s={}", x);
    }

    #[test]
    fn compute_bound_a3_has_no_stalls_after_fill() {
        let c = unpadded(32);
        let r = simulate(&c, Architecture::A3, 32);
        assert!(
            r.compute_stall_s < 1e-4,
            "compute stalls {} s in the compute-bound regime",
            r.compute_stall_s
        );
    }

    #[test]
    fn load_bound_a3_stall_about_half_of_a2() {
        // §4.5: A3 reduces the compute stall from (LW−C) to (LW−C)/2 per layer.
        let c = unpadded(4);
        let a2 = simulate(&c, Architecture::A2, 4);
        let a3 = simulate(&c, Architecture::A3, 4);
        assert!(
            a3.compute_stall_s < 0.65 * a2.compute_stall_s,
            "A3 stall {} vs A2 stall {}",
            a3.compute_stall_s,
            a2.compute_stall_s
        );
    }

    #[test]
    fn padding_makes_short_inputs_cost_the_built_length() {
        let c = cfg(); // built for 32
        let r4 = simulate(&c, Architecture::A3, 4);
        let r32 = simulate(&c, Architecture::A3, 32);
        assert_eq!(r4.compute_total_s.to_bits(), r32.compute_total_s.to_bits());
        assert!((r4.latency_s - r32.latency_s).abs() < 1e-9);
    }

    #[test]
    fn timeline_has_expected_units() {
        let c = unpadded(8);
        let r = simulate(&c, Architecture::A3, 8);
        let units = r.timeline.units();
        assert!(units.contains(&"compute"));
        assert!(units.contains(&"load-0"));
        assert!(units.contains(&"load-1"));
        let r1 = simulate(&c, Architecture::A1, 8);
        assert!(!r1.timeline.units().contains(&"load-1"));
    }
}
