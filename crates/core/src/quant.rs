//! Fixed-precision accelerator variant — the thesis's future work (§6.2):
//! "we will explore fixed precision end-to-end ASR models with no loss of
//! accuracy. Fixed precision models offer lower resource utilization,
//! addressing our primary constraint of LUT resources. This will enable the
//! development of accelerators with lower latency."
//!
//! The int8 variant keeps the entire architecture — the PSA pool geometry,
//! the MM1–MM6 schemes, the Fig 4.13 schedule, A1/A2/A3 — and changes three
//! things:
//!
//! 1. the PSA initiation interval drops (integer MACs don't wait on the fp32
//!    accumulate chain): II 12 → 4;
//! 2. weights stream as 1 byte instead of 4, quartering the HBM traffic;
//! 3. each PE costs ~4× less LUT/FF, relieving the design's binding
//!    constraint.

use crate::arch::{simulate, Architecture};
use crate::config::AccelConfig;
use crate::plan::ExecPlan;
use crate::resources::{self, ResourceEstimate};
use asr_systolic::abft::IntegrityLevel;
use asr_systolic::quant_psa::{int8_config_from, Int8Psa};
use asr_tensor::quant::{matmul_quantized, QuantizedMatrix};
use asr_tensor::{MatMul, Matrix, WeightEncoding};

/// Derive the int8 accelerator configuration from an fp32 design point.
pub fn int8_config(base: &AccelConfig) -> AccelConfig {
    let mut cfg = base.clone();
    cfg.psa = int8_config_from(base.psa);
    cfg.encoding = WeightEncoding::Int8;
    cfg
}

/// A [`MatMul`] backend that quantizes both operands to int8 and multiplies
/// with i32 accumulation — the functional model of the int8 PSA (weights
/// would be pre-quantized offline; quantizing per call is numerically
/// identical for a fixed operand).
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantizedBackend;

impl MatMul for QuantizedBackend {
    fn matmul(&self, a: &Matrix, b: &Matrix) -> Matrix {
        matmul_quantized(&QuantizedMatrix::quantize(a), &QuantizedMatrix::quantize(b))
    }
    fn name(&self) -> &'static str {
        "systolic-int8"
    }
}

/// The fixed-point exploration report.
#[derive(Debug, Clone)]
pub struct QuantReport {
    /// fp32 A3 latency at the built length, ms.
    pub fp32_latency_ms: f64,
    /// int8 A3 latency, ms.
    pub int8_latency_ms: f64,
    /// Latency improvement factor.
    pub speedup: f64,
    /// fp32 design resources.
    pub fp32_resources: ResourceEstimate,
    /// int8 design resources.
    pub int8_resources: ResourceEstimate,
    /// int8 LUT utilization (the constraint the future work targets), percent.
    pub int8_lut_pct: f64,
    /// HBM bytes the fp32 A3 plan schedules for one utterance — quoted from
    /// the lowered plan's `LoadStripe` nodes, not re-derived locally.
    pub fp32_hbm_bytes: u64,
    /// HBM bytes the int8 A3 plan schedules (the encoding-aware figure).
    pub int8_hbm_bytes: u64,
}

/// Compare the fp32 design against its int8 derivative.
pub fn report(base: &AccelConfig) -> QuantReport {
    let s = base.max_seq_len;
    let q = int8_config(base);
    let fp32_latency = simulate(base, Architecture::A3, s).latency_s;
    let int8_latency = simulate(&q, Architecture::A3, s).latency_s;
    let fp32_resources = resources::estimate(base);
    let int8_resources =
        resources::estimate_with_psa_cost(&q, Int8Psa::from_fp32(base.psa).resource_cost());
    let total = int8_resources.total();
    let (.., lut_pct) = {
        let (b, d, f, l) = total.utilization_pct(&q.device.total_resources());
        (b, d, f, l)
    };
    let scheduled = |cfg: &AccelConfig| {
        ExecPlan::lower(cfg, Architecture::A3, s, 1, IntegrityLevel::Off)
            .expect("a validated config lowers")
            .scheduled_load_bytes()
    };
    QuantReport {
        fp32_latency_ms: fp32_latency * 1e3,
        int8_latency_ms: int8_latency * 1e3,
        speedup: fp32_latency / int8_latency,
        fp32_resources,
        int8_resources,
        int8_lut_pct: lut_pct,
        fp32_hbm_bytes: scheduled(base),
        int8_hbm_bytes: scheduled(&q),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_tensor::backend::ReferenceBackend;
    use asr_tensor::init;
    use asr_transformer::{Model, TransformerConfig};

    fn base() -> AccelConfig {
        AccelConfig::paper_default()
    }

    #[test]
    fn int8_config_changes_ii_and_bytes() {
        let q = int8_config(&base());
        assert_eq!(q.psa.ii, 4);
        assert_eq!(q.encoded_bytes(1000), 1000);
        q.validate().unwrap();
    }

    #[test]
    fn int8_is_2_to_3x_faster_end_to_end() {
        // Compute drops ~3x (II 12 -> 4) and loads drop 4x; end to end the
        // compute-bound s=32 design speeds up by roughly the II ratio.
        let r = report(&base());
        assert!(r.speedup > 2.0 && r.speedup < 3.3, "speedup {}", r.speedup);
        assert!(r.int8_latency_ms < 40.0, "int8 {} ms", r.int8_latency_ms);
    }

    #[test]
    fn int8_relieves_the_lut_constraint() {
        let r = report(&base());
        let fp32_lut = r.fp32_resources.total().lut;
        let int8_lut = r.int8_resources.total().lut;
        assert!(int8_lut * 2 < fp32_lut, "int8 LUT {} vs fp32 {}", int8_lut, fp32_lut);
        assert!(r.int8_lut_pct < 50.0, "int8 LUT at {}%", r.int8_lut_pct);
    }

    #[test]
    fn int8_loads_are_4x_lighter() {
        let b = crate::arch::layer_bytes(&base());
        let q = crate::arch::layer_bytes(&int8_config(&base()));
        assert_eq!(b.encoder, q.encoder * 4);
        assert_eq!(b.decoder_ffn, q.decoder_ffn * 4);
        // The report quotes the same ratio straight off the lowered plans.
        let r = report(&base());
        assert_eq!(r.fp32_hbm_bytes, 4 * r.int8_hbm_bytes);
        assert!(r.int8_hbm_bytes > 0);
    }

    #[test]
    fn quantized_backend_tracks_f32_on_tiny_model() {
        // "no loss of accuracy" is the future-work goal; on the seeded tiny
        // model the int8 encoder output must stay close to f32.
        let model = Model::seeded(TransformerConfig::tiny(), 5);
        let x = init::uniform(6, model.config.d_model, -1.0, 1.0, 2);
        let f32_out = model.encode(&x, &ReferenceBackend);
        let int8_out = model.encode(&x, &QuantizedBackend);
        let rel = asr_tensor::max_abs_diff(&int8_out, &f32_out) / f32_out.max_abs().max(1e-6);
        assert!(rel < 0.35, "relative encoder divergence {}", rel);
        // and the per-element error is small on average
        let n = f32_out.len() as f32;
        let rmse = (f32_out
            .as_slice()
            .iter()
            .zip(int8_out.as_slice())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f32>()
            / n)
            .sqrt();
        assert!(rmse < 0.1, "rmse {}", rmse);
    }

    #[test]
    fn int8_still_fits_the_device() {
        let q = int8_config(&base());
        let est =
            resources::estimate_with_psa_cost(&q, Int8Psa::from_fp32(base().psa).resource_cost());
        assert!(est.total().fits_within(&q.device.total_resources()));
    }
}
