//! The attention-head schedule of Fig 4.13.
//!
//! Operation chain within one head on its PSA(s):
//!
//! ```text
//! MM1(K) ──▶ MM1(Q) ──▶ MM2 ──▶ MM1(V) ──▶ B(V) ──▶ MM3
//!            ∥ B(K)            ∥ Sc + Sm
//! ```
//!
//! * `B(K)` runs on the head's `s × 64` adder in parallel with `MM1(Q)`;
//! * scaling and softmax run on the element-wise unit in parallel with
//!   `MM1(V)` ("the combined latency ... is less than that of MM1(V)");
//! * `B(V)` is exposed: it uses the adder immediately before `MM3` reuses the
//!   same PSA.
//!
//! With `psas_per_head() > 1` (the Table 5.3 design points) the eight MM1
//! stripes spread across the head's PSAs, shortening every `MM1` by that
//! factor while the (small) MM2/MM3 passes stay on one PSA.

use crate::config::AccelConfig;
use crate::mm;
use crate::schedule::elementwise_cycles;
use asr_fpga_sim::Cycles;

/// Cycles of one MM1 when its stripes are spread over the head's PSAs.
pub fn mm1_on_head(cfg: &AccelConfig, s: usize) -> Cycles {
    let psa = cfg.psa_engine();
    let dk = cfg.model.d_k();
    let stripes = (cfg.model.d_model / cfg.psa.cols).max(1);
    let passes = stripes.div_ceil(cfg.psas_per_head()) as u64;
    Cycles(psa.cycles(s, cfg.psa.cols, dk).get() * passes) + cfg.adder.cycles(s, dk)
}

/// Cycles of one full head pass (all five MMs with the Fig 4.13 overlaps)
/// for `rows` query rows over `keys` keys: the projections run over the
/// rows, the score and context passes and the softmax over `rows × keys`.
pub fn head_pass_cycles(cfg: &AccelConfig, rows: usize, keys: usize) -> Cycles {
    let t1 = mm1_on_head(cfg, rows);
    let t2 = mm::mm2_cycles(cfg, rows, keys);
    let t3 = mm::mm3_cycles(cfg, rows, keys);
    // Scaling + softmax of the rows×keys score matrix overlap MM1(V); only
    // the excess (if any) is exposed.
    let scsm = elementwise_cycles(rows * keys);
    let exposed_scsm = scsm.saturating_sub(t1);
    // B(V) on the adder is exposed between MM1(V) and MM3.
    let bv = cfg.adder.cycles(rows, cfg.model.d_k());
    // K, Q, V projections are sequential on the head's PSAs (§4.3: "the MM1
    // operations within each attention head are executed sequentially").
    Cycles(t1.get() * 3) + t2 + exposed_scsm + bv + t3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AccelConfig {
        AccelConfig::paper_default()
    }

    #[test]
    fn shipped_head_is_three_mm1_plus_small() {
        let c = cfg();
        let t1 = mm1_on_head(&c, 32);
        let head = head_pass_cycles(&c, 32, 32);
        // dominated by the three sequential MM1s
        assert!(head > Cycles(t1.get() * 3));
        assert!(head < Cycles(t1.get() * 3 + t1.get()));
    }

    #[test]
    fn scsm_is_hidden_behind_mm1v_at_paper_sizes() {
        // The Fig 4.13 premise: t_Sc + t_Sm < t_MM1(V) for s ≤ 32.
        let c = cfg();
        for s in [4, 8, 16, 32] {
            assert!(elementwise_cycles(s * s) < mm1_on_head(&c, s), "not hidden at s={}", s);
        }
    }

    #[test]
    fn more_psas_per_head_shorten_mm1() {
        let mut c = cfg();
        let base = mm1_on_head(&c, 32);
        c.parallel_heads = 2;
        let quad = mm1_on_head(&c, 32);
        // 8 stripes over 4 PSAs: 2 passes instead of 8.
        let ratio = base.get() as f64 / quad.get() as f64;
        assert!(ratio > 3.0 && ratio < 4.5, "ratio {}", ratio);
    }

    #[test]
    fn head_cycles_monotone_in_s() {
        let c = cfg();
        assert!(head_pass_cycles(&c, 32, 32) > head_pass_cycles(&c, 16, 16));
        assert!(head_pass_cycles(&c, 16, 16) > head_pass_cycles(&c, 4, 4));
    }

    #[test]
    fn head_pass_at_s32_matches_calibration() {
        // ~347 k cycles at the shipped design point (see calib.rs).
        let c = cfg();
        let cyc = head_pass_cycles(&c, 32, 32).get();
        assert!((cyc as f64 - 348_000.0).abs() < 10_000.0, "head pass {} cycles", cyc);
    }
}
