//! Per-block latency breakdown — the quantitative backing for the §5.1.4
//! discussion ("the FFN block ... consumes approximately double the latency
//! compared to the MHA block").

use crate::config::AccelConfig;
use crate::mm;
use crate::schedule;
use asr_fpga_sim::Cycles;

/// One row of the breakdown.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Block/operation name.
    pub name: String,
    /// Cycle cost.
    pub cycles: u64,
    /// Wall time at the kernel clock, milliseconds.
    pub ms: f64,
    /// Share of one encoder layer, percent.
    pub pct_of_encoder: f64,
}

/// Full layer breakdown.
#[derive(Debug, Clone)]
pub struct LatencyBreakdown {
    /// Sequence length analysed.
    pub seq_len: usize,
    /// Per-operation rows.
    pub rows: Vec<BreakdownRow>,
    /// One encoder layer's total cycles.
    pub encoder_total: u64,
    /// One decoder layer's total cycles.
    pub decoder_total: u64,
}

/// Break one encoder layer down by operation at sequence length `s`.
pub fn breakdown(cfg: &AccelConfig, s: usize) -> LatencyBreakdown {
    let clock = cfg.device.clock;
    let enc = schedule::encoder_cycles(cfg, s).get();
    let row = |name: &str, c: Cycles| BreakdownRow {
        name: name.to_string(),
        cycles: c.get(),
        ms: clock.to_ms(c),
        pct_of_encoder: 100.0 * c.get() as f64 / enc as f64,
    };
    let rows = vec![
        row("MM1 (one projection, striped)", mm::mm1_cycles(cfg, s)),
        row("MM2 (QK^T, padded)", mm::mm2_cycles(cfg, s, s)),
        row("MM3 (scores·V, padded)", mm::mm3_cycles(cfg, s, s)),
        row("attention head pass (Fig 4.13)", schedule::head_pass_cycles(cfg, s, s)),
        row("MM4 (W_A, pool-wide)", mm::mm4_cycles(cfg, s)),
        row("MHA block (+Add-Norm)", schedule::mha_block_cycles(cfg, s, s)),
        row("MM5 (W_1F, pool-wide)", mm::mm5_cycles(cfg, s)),
        row("MM6 (W_2F, pool-wide + ISC)", mm::mm6_cycles(cfg, s)),
        row("FFN block (+Add-Norm)", schedule::ffn_block_cycles(cfg, s)),
    ];
    LatencyBreakdown {
        seq_len: s,
        rows,
        encoder_total: enc,
        decoder_total: schedule::decoder_cycles(cfg, s).get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_partition_the_encoder() {
        let cfg = AccelConfig::paper_default();
        let b = breakdown(&cfg, 32);
        let mha = b.rows.iter().find(|r| r.name.starts_with("MHA")).unwrap();
        let ffn = b.rows.iter().find(|r| r.name.starts_with("FFN")).unwrap();
        assert_eq!(mha.cycles + ffn.cycles, b.encoder_total);
        assert!((mha.pct_of_encoder + ffn.pct_of_encoder - 100.0).abs() < 1e-9);
    }

    #[test]
    fn ffn_share_is_about_two_thirds() {
        // FFN ≈ 2x MHA means ~64% of the encoder layer.
        let cfg = AccelConfig::paper_default();
        let b = breakdown(&cfg, 32);
        let ffn = b.rows.iter().find(|r| r.name.starts_with("FFN")).unwrap();
        assert!(ffn.pct_of_encoder > 55.0 && ffn.pct_of_encoder < 72.0);
    }

    #[test]
    fn decoder_total_exceeds_encoder() {
        let cfg = AccelConfig::paper_default();
        let b = breakdown(&cfg, 32);
        assert!(b.decoder_total > b.encoder_total);
    }

    #[test]
    fn mm5_and_mm6_dominate_all_mms() {
        let cfg = AccelConfig::paper_default();
        let b = breakdown(&cfg, 32);
        let cyc = |n: &str| b.rows.iter().find(|r| r.name.starts_with(n)).unwrap().cycles;
        assert!(cyc("MM5") > cyc("MM4"));
        assert!(cyc("MM6") > cyc("MM4"));
        assert!(cyc("MM5") > cyc("MM1"));
    }
}
