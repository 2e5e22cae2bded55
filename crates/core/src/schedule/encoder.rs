//! Encoder-layer compute schedule: MHA block + FFN block (Fig 4.13, §4.6).

use crate::config::AccelConfig;
use crate::mm;
use crate::schedule::{addnorm_cycles, elementwise_cycles, head::head_pass_cycles};
use asr_fpga_sim::Cycles;

/// Cycles of the MHA block including its Add-Norm for `rows` query rows
/// over `keys` keys: `head_passes` rounds of concurrent heads, the
/// pool-wide MM4, the bias `B_A`, and the Add-Norm.
pub fn mha_block_cycles(cfg: &AccelConfig, rows: usize, keys: usize) -> Cycles {
    let passes = cfg.head_passes() as u64;
    let heads = Cycles(head_pass_cycles(cfg, rows, keys).get() * passes);
    let mm4 = mm::mm4_cycles(cfg, rows);
    // B_A over rows×512 split across the eight adders.
    let ba = cfg.adder.cycles(rows, cfg.model.d_model / cfg.n_psas());
    heads + mm4 + ba + addnorm_cycles(cfg, rows)
}

/// Cycles of the FFN block including its Add-Norm: MM5, `B_1F` (+ReLU hidden
/// behind it on the element-wise unit), MM6, `B_2F`, Add-Norm.
pub fn ffn_block_cycles(cfg: &AccelConfig, s: usize) -> Cycles {
    let mm5 = mm::mm5_cycles(cfg, s);
    let b1 = cfg.adder.cycles(s, cfg.model.d_ff / cfg.n_psas());
    let mm6 = mm::mm6_cycles(cfg, s);
    let b2 = cfg.adder.cycles(s, cfg.model.d_model / cfg.n_psas());
    mm5 + b1 + mm6 + b2 + addnorm_cycles(cfg, s)
}

/// Cycles of one full encoder layer.
pub fn encoder_cycles(cfg: &AccelConfig, s: usize) -> Cycles {
    encoder_layer_cycles(cfg, s, s)
}

/// Cycles of one encoder layer that computes `rows` new rows whose
/// self-attention spans `keys` keys — a stream chunk's layer, attending
/// over its cached context then its own rows. The Q/K/V projections, MM4,
/// the FFN and both Add-Norms run over the rows; MM2, MM3 and the softmax
/// over `rows × keys`. [`encoder_cycles`] is the `rows = keys` case.
pub fn encoder_layer_cycles(cfg: &AccelConfig, rows: usize, keys: usize) -> Cycles {
    mha_block_cycles(cfg, rows, keys) + ffn_block_cycles(cfg, rows)
}

/// Cycles to write a stream chunk's carried context — `rows` cached keys
/// and values per encoder layer — into the heads' banks on the
/// element-wise unit. No context, no write.
pub fn stream_context_cycles(cfg: &AccelConfig, rows: usize) -> Cycles {
    if rows == 0 {
        return Cycles(0);
    }
    elementwise_cycles(cfg.model.n_encoders * 2 * rows * cfg.model.d_model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_fpga_sim::Clock;

    fn cfg() -> AccelConfig {
        AccelConfig::paper_default()
    }

    #[test]
    fn encoder_at_s32_is_about_4_2_ms() {
        // Derived in calib.rs from the paper's 84.15 ms stack latency.
        let c = cfg();
        let ms = Clock::u50_kernel().to_ms(encoder_cycles(&c, 32));
        assert!((ms - 4.2).abs() < 0.15, "encoder layer {} ms", ms);
    }

    #[test]
    fn ffn_is_roughly_twice_the_mha_block() {
        // §5.1.4: "the FFN block ... consumes approximately double the
        // latency compared to the MHA block".
        let c = cfg();
        let r = ffn_block_cycles(&c, 32).get() as f64 / mha_block_cycles(&c, 32, 32).get() as f64;
        assert!(r > 1.5 && r < 2.2, "FFN/MHA = {}", r);
    }

    #[test]
    fn compute_scales_with_sequence_length() {
        let c = cfg();
        let c4 = encoder_cycles(&c, 4).get() as f64;
        let c32 = encoder_cycles(&c, 32).get() as f64;
        // wave count scales 8x from s=4 to s=32
        assert!(c32 / c4 > 6.0 && c32 / c4 < 9.0, "scaling {}", c32 / c4);
    }

    #[test]
    fn the_chunk_layer_is_the_encoder_at_zero_context_and_never_cheaper_with_more_keys() {
        let c = cfg();
        for rows in 1..=64 {
            let mut prev = encoder_layer_cycles(&c, rows, rows);
            assert_eq!(prev, encoder_cycles(&c, rows), "rows {}", rows);
            for keys in rows + 1..=rows + 64 {
                let next = encoder_layer_cycles(&c, rows, keys);
                assert!(next >= prev, "rows {} keys {}: {:?} < {:?}", rows, keys, next, prev);
                prev = next;
            }
        }
    }

    #[test]
    fn fewer_parallel_heads_cost_more() {
        let base = encoder_cycles(&cfg(), 32);
        let mut c = cfg();
        c.parallel_heads = 1;
        let serial = encoder_cycles(&c, 32);
        assert!(serial > base);
    }
}
