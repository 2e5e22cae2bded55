//! Span-level construction of the Fig 4.13 schedules.
//!
//! [`encoder_timeline`] and [`decoder_timeline`] lay every operation of a
//! layer onto the physical units — the eight PSAs, their adders, the per-head
//! softmax lanes, the layer-norm unit and the inter-SLR stream — as explicit
//! timeline spans. The [`asr_fpga_sim::Timeline`] enforces unit exclusivity,
//! so this module is a machine-checked proof that the Fig 4.13 overlaps are
//! realisable: no PSA, adder, or function unit is ever double-booked, and the
//! makespans equal the analytic [`super::encoder_cycles`] /
//! [`super::decoder_cycles`] exactly.

use crate::config::AccelConfig;
use crate::mm;
use crate::schedule::{self, head::mm1_on_head};
use asr_fpga_sim::{Cycles, Timeline};

/// Charge `dur` cycles on `unit` starting at `t`, returning the end time.
fn span(tl: &mut Timeline, unit: &str, label: &str, t: u64, dur: Cycles) -> u64 {
    let end = t + dur.get();
    tl.push(unit.to_owned(), label.to_owned(), t as f64, end as f64)
        .unwrap_or_else(|e| panic!("schedule conflict: {}", e));
    end
}

/// Lay one MHA block (heads → MM4 → B_A → Add-Norm) starting at `t0`;
/// returns its end time. `tag` disambiguates span labels across blocks.
fn lay_mha_block(cfg: &AccelConfig, tl: &mut Timeline, t0: u64, tag: &str, s: usize) -> u64 {
    let dk = cfg.model.d_k();
    let d = cfg.model.d_model;
    let t1 = mm1_on_head(cfg, s);
    let t2 = mm::mm2_cycles(cfg, s, s);
    let t3 = mm::mm3_cycles(cfg, s, s);
    let t_bias = cfg.adder.cycles(s, dk);
    let scsm = schedule::elementwise_cycles(s * s);

    // ---- the eight concurrent attention heads --------------------------
    let mut head_end = t0;
    for h in 0..cfg.model.n_heads {
        let psa = format!("psa-{}", h);
        let add = format!("adder-{}", h);
        let sfu = format!("sfu-head-{}", h);
        let mut t = t0;
        t = span(tl, &psa, &format!("{} MM1(K) h{}", tag, h), t, t1);
        // B(K) on the head's adder overlaps MM1(Q)
        span(tl, &add, &format!("{} B(K) h{}", tag, h), t, t_bias);
        t = span(tl, &psa, &format!("{} MM1(Q) h{}", tag, h), t, t1);
        // B(Q) overlaps MM2
        span(tl, &add, &format!("{} B(Q) h{}", tag, h), t, t_bias);
        t = span(tl, &psa, &format!("{} MM2 h{}", tag, h), t, t2);
        // Sc + Sm on the head's function lane overlap MM1(V)
        span(tl, &sfu, &format!("{} Sc+Sm h{}", tag, h), t, scsm);
        t = span(tl, &psa, &format!("{} MM1(V) h{}", tag, h), t, t1);
        // exposed softmax excess, if any (none at paper sizes)
        t += scsm.saturating_sub(t1).get();
        t = span(tl, &add, &format!("{} B(V) h{}", tag, h), t, t_bias);
        t = span(tl, &psa, &format!("{} MM3 h{}", tag, h), t, t3);
        head_end = head_end.max(t);
    }

    // ---- MM4 across the whole pool --------------------------------------
    let mm4_psa = cfg.psa_engine().cycles(s, d / cfg.n_psas(), d);
    let mut t = head_end;
    for p in 0..cfg.n_psas() {
        span(tl, &format!("psa-{}", p), &format!("{} MM4 slice", tag), t, mm4_psa);
    }
    t += mm4_psa.get();
    // pipelined accumulation exposes one adder pass
    let acc = cfg.adder.cycles(s, d);
    for p in 0..cfg.n_psas() {
        span(tl, &format!("adder-{}", p), &format!("{} MM4 acc", tag), t, acc);
    }
    t += acc.get();
    // B_A split across the adders
    let ba = cfg.adder.cycles(s, d / cfg.n_psas());
    for p in 0..cfg.n_psas() {
        span(tl, &format!("adder-{}", p), &format!("{} B_A", tag), t, ba);
    }
    t += ba.get();
    lay_add_norm(cfg, tl, t, tag, s)
}

/// Lay one Add-Norm (residual add on the adders, norm on the norm unit).
fn lay_add_norm(cfg: &AccelConfig, tl: &mut Timeline, t0: u64, tag: &str, s: usize) -> u64 {
    let d = cfg.model.d_model;
    let an_add = cfg.adder.cycles(s, d / cfg.n_psas());
    for p in 0..cfg.n_psas() {
        span(tl, &format!("adder-{}", p), &format!("{} AddNorm add", tag), t0, an_add);
    }
    let an_norm = schedule::elementwise_cycles(s * d);
    span(tl, "norm-unit", &format!("{} AddNorm norm", tag), t0 + an_add.get(), an_norm);
    t0 + an_add.get() + an_norm.get()
}

/// Lay one FFN block (MM5 → B_1F → MM6 (+ISC) → B_2F → Add-Norm).
fn lay_ffn_block(cfg: &AccelConfig, tl: &mut Timeline, t0: u64, tag: &str, s: usize) -> u64 {
    let d = cfg.model.d_model;
    let mut t = t0;
    let mm5_psa = cfg.psa_engine().cycles(s, d / 2, cfg.model.d_ff / cfg.psas_per_slr);
    for p in 0..cfg.n_psas() {
        span(tl, &format!("psa-{}", p), &format!("{} MM5 slice", tag), t, mm5_psa);
    }
    t += mm5_psa.get();
    let acc5 = cfg.adder.cycles(s, cfg.model.d_ff / cfg.psas_per_slr);
    for p in 0..cfg.n_psas() {
        span(tl, &format!("adder-{}", p), &format!("{} MM5 acc", tag), t, acc5);
    }
    t += acc5.get();
    let b1 = cfg.adder.cycles(s, cfg.model.d_ff / cfg.n_psas());
    for p in 0..cfg.n_psas() {
        span(tl, &format!("adder-{}", p), &format!("{} B_1F", tag), t, b1);
    }
    t += b1.get();

    let mm6_psa = cfg.psa_engine().cycles(s, cfg.model.d_ff / cfg.n_psas(), d);
    for p in 0..cfg.n_psas() {
        span(tl, &format!("psa-{}", p), &format!("{} MM6 slice", tag), t, mm6_psa);
    }
    t += mm6_psa.get();
    let acc6 = cfg.adder.cycles(s, d);
    for p in 0..cfg.n_psas() {
        span(tl, &format!("adder-{}", p), &format!("{} MM6 acc", tag), t, acc6);
    }
    t += acc6.get();
    let crossing = Cycles(asr_fpga_sim::isc::IscSpec::u50().transfer_cycles((s * d) as u64 * 4));
    t = span(tl, "isc", &format!("{} MM6 cross-SLR", tag), t, crossing);
    let acc6b = cfg.adder.cycles(s, d);
    for p in 0..cfg.n_psas() {
        span(tl, &format!("adder-{}", p), &format!("{} MM6 final acc", tag), t, acc6b);
    }
    t += acc6b.get();
    let b2 = cfg.adder.cycles(s, d / cfg.n_psas());
    for p in 0..cfg.n_psas() {
        span(tl, &format!("adder-{}", p), &format!("{} B_2F", tag), t, b2);
    }
    t += b2.get();
    lay_add_norm(cfg, tl, t, &format!("{} ffn", tag), s)
}

fn require_head_parallel(cfg: &AccelConfig) {
    assert_eq!(
        cfg.parallel_heads, cfg.model.n_heads,
        "detailed layout requires the fully head-parallel configuration"
    );
}

/// Build the span-level schedule of one encoder layer (times in cycles).
///
/// Only the shipped head-parallel layout (`parallel_heads == n_heads`) is
/// laid out span-by-span; other DSE points serialise head passes and are
/// covered by the analytic model.
pub fn encoder_timeline(cfg: &AccelConfig, s: usize) -> Timeline {
    require_head_parallel(cfg);
    let mut tl = Timeline::new();
    let t = lay_mha_block(cfg, &mut tl, 0, "mha", s);
    debug_assert_eq!(t, schedule::mha_block_cycles(cfg, s, s).get());
    lay_ffn_block(cfg, &mut tl, t, "ffn", s);
    tl
}

/// Build the span-level schedule of one decoder layer: masked MHA, cross
/// MHA, FFN (Fig 4.11's `Ci_m` then `Ci_f`).
pub fn decoder_timeline(cfg: &AccelConfig, s: usize) -> Timeline {
    require_head_parallel(cfg);
    let mut tl = Timeline::new();
    let t = lay_mha_block(cfg, &mut tl, 0, "m-mha", s);
    let t = lay_mha_block(cfg, &mut tl, t, "x-mha", s);
    debug_assert_eq!(t, schedule::decoder::decoder_mha_phase_cycles(cfg, s).get());
    lay_ffn_block(cfg, &mut tl, t, "ffn", s);
    tl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{decoder_cycles, encoder_cycles};

    fn cfg() -> AccelConfig {
        AccelConfig::paper_default()
    }

    #[test]
    fn detailed_makespan_equals_analytic_encoder_cycles() {
        for s in [4usize, 8, 16, 32] {
            let tl = encoder_timeline(&cfg(), s);
            let analytic = encoder_cycles(&cfg(), s).get() as f64;
            assert!(
                (tl.makespan() - analytic).abs() < 0.5,
                "s={}: detailed {} vs analytic {}",
                s,
                tl.makespan(),
                analytic
            );
        }
    }

    #[test]
    fn detailed_decoder_makespan_equals_analytic() {
        for s in [4usize, 16, 32] {
            let tl = decoder_timeline(&cfg(), s);
            let analytic = decoder_cycles(&cfg(), s).get() as f64;
            assert!(
                (tl.makespan() - analytic).abs() < 0.5,
                "s={}: detailed {} vs analytic {}",
                s,
                tl.makespan(),
                analytic
            );
        }
    }

    #[test]
    fn no_unit_is_double_booked() {
        // encoder/decoder timelines panic on any overlap; building them is the test.
        let tl = encoder_timeline(&cfg(), 32);
        assert!(tl.spans().len() > 100, "expected a rich schedule, got {}", tl.spans().len());
        let td = decoder_timeline(&cfg(), 32);
        assert!(td.spans().len() > tl.spans().len());
    }

    #[test]
    fn psas_run_nearly_the_entire_time_frame() {
        // §4.6: "the PSA blocks, which perform the major portion of
        // computation run for the entire time frame except for minute stalls".
        let tl = encoder_timeline(&cfg(), 32);
        for p in 0..8 {
            let u = tl.utilization(&format!("psa-{}", p));
            assert!(u > 0.9, "psa-{} utilization {}", p, u);
        }
    }

    #[test]
    fn decoder_psas_also_highly_utilised() {
        let tl = decoder_timeline(&cfg(), 32);
        for p in 0..8 {
            let u = tl.utilization(&format!("psa-{}", p));
            assert!(u > 0.9, "psa-{} utilization {}", p, u);
        }
    }

    #[test]
    fn softmax_lanes_overlap_value_projection() {
        // Sc+Sm spans must sit strictly inside the MM1(V) window.
        let tl = encoder_timeline(&cfg(), 32);
        let scsm = tl.unit_spans("sfu-head-0");
        assert_eq!(scsm.len(), 1);
        let psa = tl.unit_spans("psa-0");
        let mm1v = psa.iter().find(|s| s.label.contains("MM1(V)")).unwrap();
        assert!(scsm[0].start >= mm1v.start - 0.5);
        assert!(scsm[0].end <= mm1v.end + 0.5);
    }

    #[test]
    fn decoder_has_two_mha_phases_back_to_back() {
        let tl = decoder_timeline(&cfg(), 16);
        let psa0 = tl.unit_spans("psa-0");
        let masked_mm3 = psa0.iter().find(|s| s.label.starts_with("m-mha MM3")).unwrap();
        let cross_mm1 = psa0.iter().find(|s| s.label.starts_with("x-mha MM1(K)")).unwrap();
        assert!(cross_mm1.start >= masked_mm3.end - 0.5, "cross MHA must follow masked MHA");
    }

    #[test]
    fn heads_are_concurrent_not_serial() {
        let tl = encoder_timeline(&cfg(), 32);
        let h0 = tl.unit_spans("psa-0")[0].start;
        let h7 = tl.unit_spans("psa-7")[0].start;
        assert_eq!(h0, h7, "all heads must start together");
    }

    #[test]
    #[should_panic(expected = "fully head-parallel")]
    fn serial_config_rejected() {
        let mut c = cfg();
        c.parallel_heads = 4;
        let _ = encoder_timeline(&c, 8);
    }
}
