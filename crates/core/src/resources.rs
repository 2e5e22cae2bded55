//! Design-level resource estimation (Table 5.2).
//!
//! The estimate composes per-unit costs: the eight PSAs (LUT-heavy fp32 MACs
//! — the thesis's binding constraint), the eight `s × 64` adders, per-SLR
//! softmax and layer-norm function units, double-buffered weight BRAM,
//! activation BRAM that scales with the built sequence length, and a fixed
//! control/AXI/ISC overhead. The constants are fitted so the shipped
//! configuration (8 × 2×64 PSAs, `s = 32`) reproduces Table 5.2 exactly;
//! everything then scales with the configuration, which is what the
//! design-space exploration (Table 5.3 / §5.1.4) needs.

use crate::config::AccelConfig;
use asr_fpga_sim::resources::{OverSubscribed, ResourceBudget, ResourceVector};

/// Per-lane cost of one pipelined fp32 adder lane (LUT-based, no DSP).
const ADDER_LANE: ResourceVector = ResourceVector { bram_18k: 0, dsp: 0, ff: 180, lut: 120 };
/// One softmax (exp) unit; one per SLR.
const SOFTMAX_UNIT: ResourceVector =
    ResourceVector { bram_18k: 0, dsp: 64, ff: 14_000, lut: 9_000 };
/// One layer-norm unit; one per SLR.
const NORM_UNIT: ResourceVector = ResourceVector { bram_18k: 0, dsp: 48, ff: 11_000, lut: 7_000 };
/// Double-buffered weight storage per SLR.
const WEIGHT_BUFFER_PER_SLR: ResourceVector =
    ResourceVector { bram_18k: 400, dsp: 0, ff: 0, lut: 0 };
/// Activation BRAM per SLR per unit of sequence length.
const ACT_BRAM_PER_S_PER_SLR: u64 = 3;
/// Fixed control, AXI and inter-SLR plumbing.
const MISC: ResourceVector = ResourceVector { bram_18k: 18, dsp: 100, ff: 96_132, lut: 41_988 };

/// Itemised resource estimate.
#[derive(Debug, Clone)]
pub struct ResourceEstimate {
    /// Cost of all PSA blocks.
    pub psas: ResourceVector,
    /// Cost of all adder blocks.
    pub adders: ResourceVector,
    /// Softmax + layer-norm function units.
    pub function_units: ResourceVector,
    /// Weight and activation BRAM.
    pub buffers: ResourceVector,
    /// Control/AXI/ISC overhead.
    pub misc: ResourceVector,
}

impl ResourceEstimate {
    /// Total design footprint.
    pub fn total(&self) -> ResourceVector {
        self.psas + self.adders + self.function_units + self.buffers + self.misc
    }
}

/// Estimate the design's resources for a configuration (fp32 PSAs).
pub fn estimate(cfg: &AccelConfig) -> ResourceEstimate {
    estimate_with_psa_cost(cfg, cfg.psa_engine().resource_cost())
}

/// Estimate with an explicit per-PSA cost — used by the int8 variant in
/// [`crate::quant`], which swaps the fp32 MAC fabric for integer PEs.
pub fn estimate_with_psa_cost(cfg: &AccelConfig, psa_cost: ResourceVector) -> ResourceEstimate {
    cfg.validate().expect("valid accelerator configuration");
    let n = cfg.n_psas as u64;
    let adder = ADDER_LANE * (cfg.adder.lanes as u64) * n;
    let funcs = (SOFTMAX_UNIT + NORM_UNIT) * 2;
    let buffers = WEIGHT_BUFFER_PER_SLR * 2
        + ResourceVector {
            bram_18k: ACT_BRAM_PER_S_PER_SLR * cfg.max_seq_len as u64 * 2,
            ..ResourceVector::ZERO
        };
    ResourceEstimate {
        psas: psa_cost * n,
        adders: adder,
        function_units: funcs,
        buffers,
        misc: MISC,
    }
}

/// Check the design fits the device, returning per-SLR allocation results.
///
/// PSAs, adders and function units split evenly across the two SLRs (the
/// paper distributes four PSAs per SLR); buffers and misc are split evenly
/// too. Returns the utilization percentages on success.
pub fn check_fit(cfg: &AccelConfig) -> Result<(f64, f64, f64, f64), OverSubscribed> {
    let est = estimate(cfg);
    let total = est.total();
    // per-SLR budget check with a half share each
    let half = ResourceVector {
        bram_18k: total.bram_18k.div_ceil(2),
        dsp: total.dsp.div_ceil(2),
        ff: total.ff.div_ceil(2),
        lut: total.lut.div_ceil(2),
    };
    for slr in [0usize, 1] {
        let mut budget = ResourceBudget::new(cfg.device.slr_resources[slr]);
        budget.allocate(half)?;
    }
    Ok(total.utilization_pct(&cfg.device.total_resources()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AccelConfig {
        AccelConfig::paper_default()
    }

    #[test]
    fn reproduces_table_5_2_exactly() {
        // Paper Table 5.2 at s = 32: BRAM 1202, DSP 1348, FF 1,191,892, LUT 765,828.
        let total = estimate(&cfg()).total();
        assert_eq!(total, ResourceVector::new(1202, 1348, 1_191_892, 765_828));
    }

    #[test]
    fn design_is_lut_bound() {
        // §5.1.4: "the architecture is limited by the LUTs".
        let c = cfg();
        let total = estimate(&c).total();
        let (name, pct) = total.binding_constraint(&c.device.total_resources());
        assert_eq!(name, "LUT");
        assert!(pct > 80.0 && pct < 100.0, "LUT at {}%", pct);
    }

    #[test]
    fn dsp_utilization_is_low() {
        // §5.1.3: "the DSP utilization is relatively low".
        let c = cfg();
        let (_, dsp, ..) = estimate(&c).total().utilization_pct(&c.device.total_resources());
        assert!(dsp < 30.0, "DSP at {}%", dsp);
    }

    #[test]
    fn shipped_design_fits_the_device() {
        assert!(check_fit(&cfg()).is_ok());
    }

    #[test]
    fn doubling_psas_breaks_the_fit() {
        // The paper: pushing DSP parallelism "exerts the available FFs and
        // LUTs, making the design unsynthesizable".
        let mut c = cfg();
        c.n_psas = 16;
        c.psas_per_slr = 8;
        c.parallel_heads = 8;
        c.psas_per_head = 2;
        assert!(check_fit(&c).is_err());
    }

    #[test]
    fn bram_scales_with_built_sequence_length() {
        let mut c = cfg();
        let b32 = estimate(&c).total().bram_18k;
        c.max_seq_len = 64;
        let b64 = estimate(&c).total().bram_18k;
        assert_eq!(b64 - b32, 3 * 32 * 2);
    }

    #[test]
    fn estimate_is_itemised_consistently() {
        let est = estimate(&cfg());
        let sum = est.psas + est.adders + est.function_units + est.buffers + est.misc;
        assert_eq!(sum, est.total());
    }
}
