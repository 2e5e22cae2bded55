//! Decoder-layer compute schedule: M-MHA + cross MHA + FFN (Fig 4.11).
//!
//! The look-ahead mask changes *which* scores survive softmax, not the
//! operation count: the hardware computes the full padded `s × s` score
//! matrix either way, so a masked MHA block costs the same as an MHA block
//! (the paper's load/compute phases treat them identically).

use crate::config::AccelConfig;
use crate::mm;
use crate::schedule::encoder::{ffn_block_cycles, mha_block_cycles};
use crate::schedule::{addnorm_cycles, elementwise_cycles};
use asr_fpga_sim::Cycles;

/// Cycles of the decoder's combined M-MHA + MHA phase (`Ci_m` of Fig 4.11).
pub fn decoder_mha_phase_cycles(cfg: &AccelConfig, s: usize) -> Cycles {
    Cycles(mha_block_cycles(cfg, s, s).get() * 2)
}

/// Cycles of the decoder's FFN phase (`Ci_f` of Fig 4.11).
pub fn decoder_ffn_phase_cycles(cfg: &AccelConfig, s: usize) -> Cycles {
    ffn_block_cycles(cfg, s)
}

/// Cycles of one full decoder layer.
pub fn decoder_cycles(cfg: &AccelConfig, s: usize) -> Cycles {
    decoder_mha_phase_cycles(cfg, s) + decoder_ffn_phase_cycles(cfg, s)
}

// ---------------------------------------------------------------------------
// Per-step autoregressive decode recurrences.
//
// The eager phase models above charge a full `s × s` score matrix per layer;
// a KV-cached decode step only touches the *new* rows: `beam` query rows
// against a cache of `kv_len` keys. These recurrences price exactly that —
// one coalesced batch-of-`beam` pass per operation, column-tiled over the
// cache — and back the `DecodeEmbed`/`DecodeKv`/`DecodeLayer`/`DecodeOut`
// plan phases.
// ---------------------------------------------------------------------------

/// Cycles to materialise the `beam` front-token embedding rows (table-row
/// gather plus the positional add on the element-wise unit).
pub fn decode_embed_cycles(cfg: &AccelConfig, beam: usize) -> Cycles {
    elementwise_cycles(beam * cfg.model.d_model)
}

/// Single-query attention against a K/V cache of `kv_len` rows, coalesced
/// over `beam` hypotheses: the `beam×d_k · d_k×kv` score pass and the
/// `beam×kv · kv×d_k` context pass run padded to the PSA width (the Fig 4.4
/// shape at `s = beam`), column-tiled over the cache, with the softmax exp
/// riding the element-wise unit between them.
pub fn decode_attention_cycles(cfg: &AccelConfig, kv_len: usize, beam: usize) -> Cycles {
    assert!(kv_len > 0 && beam > 0, "degenerate decode attention");
    let psa = cfg.psa_engine();
    let w = cfg.psa.cols;
    let dk = cfg.model.d_k();
    let tiles = (kv_len.div_ceil(w)).max(1) as u64;
    // both passes pad the inner dim and output width up to the PSA width
    let (m, n) = (w.max(dk), w);
    let pass = psa.cycles(beam, m, n);
    Cycles(pass.get() * tiles * 2)
        + elementwise_cycles(beam * kv_len)
        + mm::integrity_overhead(cfg, m, n, tiles * 2)
}

/// Cycles of one cached decoder-layer step: self-MHA over the `step + 1`
/// cached rows, cross-MHA over the `mem_len` resident encoder rows (Q
/// projection only — K/V were projected once at session start), both output
/// projections, and the FFN, all coalesced batch-of-`beam`.
pub fn decode_layer_step_cycles(
    cfg: &AccelConfig,
    step: usize,
    mem_len: usize,
    beam: usize,
) -> Cycles {
    let passes = cfg.head_passes() as u64;
    let self_kv = step + 1; // the new row is appended before it is attended
    let self_head =
        Cycles(mm::mm1_cycles(cfg, beam).get() * 3) + decode_attention_cycles(cfg, self_kv, beam);
    let cross_head = mm::mm1_cycles(cfg, beam) + decode_attention_cycles(cfg, mem_len, beam);
    let heads = Cycles((self_head + cross_head).get() * passes);
    let mm4 = mm::mm4_cycles(cfg, beam);
    let ba = cfg.adder.cycles(beam, cfg.model.d_model / cfg.n_psas());
    let mha_blocks = Cycles((mm4 + ba).get() * 2);
    let mm5 = mm::mm5_cycles(cfg, beam);
    let b1 = cfg.adder.cycles(beam, cfg.model.d_ff / cfg.n_psas());
    let mm6 = mm::mm6_cycles(cfg, beam);
    let b2 = cfg.adder.cycles(beam, cfg.model.d_model / cfg.n_psas());
    let addnorms = Cycles(addnorm_cycles(cfg, beam).get() * 3);
    heads + mha_blocks + mm5 + b1 + mm6 + b2 + addnorms
}

/// Cycles of the vocabulary output projection for `beam` rows: the
/// `d_model × vocab` weight runs as `⌈vocab/d_model⌉` pool-wide MM4-shaped
/// tiles, then the logits pass the element-wise unit.
pub fn decode_out_proj_cycles(cfg: &AccelConfig, beam: usize) -> Cycles {
    let d = cfg.model.d_model;
    let vocab = cfg.model.vocab_size;
    let tiles = (vocab.div_ceil(d)).max(1) as u64;
    Cycles(mm::mm4_cycles(cfg, beam).get() * tiles) + elementwise_cycles(beam * vocab)
}

/// Cycles of the one-time cross-attention K/V projection of the `mem_len`
/// encoder rows, for every decoder layer and head — the `DecodeKv` phase's
/// cold-step compute. Steady-state steps reuse the resident projections and
/// pay only [`decode_kv_append_cycles`].
pub fn decode_kv_project_cycles(cfg: &AccelConfig, mem_len: usize) -> Cycles {
    let passes = cfg.head_passes() as u64;
    let per_layer = mm::mm1_cycles(cfg, mem_len).get() * 2 * passes;
    Cycles(per_layer * cfg.model.n_decoders as u64)
}

/// Cycles to append the step's freshly projected self-attention K/V rows into
/// the resident cache across all decoder layers (a bank write on the
/// element-wise unit; the projections themselves are priced inside
/// [`decode_layer_step_cycles`]).
pub fn decode_kv_append_cycles(cfg: &AccelConfig, beam: usize) -> Cycles {
    elementwise_cycles(cfg.model.n_decoders * 2 * beam * cfg.model.d_model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::encoder::encoder_cycles;
    use asr_fpga_sim::Clock;

    fn cfg() -> AccelConfig {
        AccelConfig::paper_default()
    }

    #[test]
    fn decoder_costs_more_than_encoder() {
        let c = cfg();
        assert!(decoder_cycles(&c, 32) > encoder_cycles(&c, 32));
    }

    #[test]
    fn mha_and_ffn_phase_latencies_roughly_balance() {
        // Fig 4.11's premise: "The load and compute latency of the two MHA
        // blocks are approximately equal to the FFN block."
        let c = cfg();
        let r = decoder_mha_phase_cycles(&c, 32).get() as f64
            / decoder_ffn_phase_cycles(&c, 32).get() as f64;
        assert!(r > 0.7 && r < 1.4, "phase ratio {}", r);
    }

    #[test]
    fn cached_decode_step_is_far_cheaper_than_an_eager_layer() {
        // The whole point of KV caching: one step touches `beam` query rows,
        // not the full s × s score matrix.
        let c = cfg();
        let step = decode_layer_step_cycles(&c, 8, 32, 1);
        let eager = decoder_cycles(&c, 32);
        assert!(step.get() * 4 < eager.get(), "step {} vs eager {}", step.get(), eager.get());
    }

    #[test]
    fn decode_step_cycles_grow_with_cache_depth_and_beam() {
        let c = cfg();
        assert!(
            decode_layer_step_cycles(&c, 200, 32, 1) > decode_layer_step_cycles(&c, 2, 32, 1),
            "deeper self-attention cache must cost more"
        );
        assert!(
            decode_layer_step_cycles(&c, 4, 32, 4) > decode_layer_step_cycles(&c, 4, 32, 1),
            "wider beams must cost more"
        );
        assert!(
            decode_attention_cycles(&c, 96, 1) > decode_attention_cycles(&c, 8, 1),
            "attention must column-tile over the cache"
        );
    }

    #[test]
    fn beam_coalescing_beats_solo_replays() {
        // One batch-of-4 pass must be cheaper than four solo passes: the PSA
        // wave pipeline amortises fill/drain across the coalesced rows.
        let c = cfg();
        let coalesced = decode_layer_step_cycles(&c, 4, 32, 4);
        let solo = decode_layer_step_cycles(&c, 4, 32, 1);
        assert!(coalesced.get() < solo.get() * 4, "coalesced {:?} vs 4×solo {:?}", coalesced, solo);
    }

    #[test]
    fn kv_projection_is_a_one_time_cost_worth_eliding() {
        let c = cfg();
        let project = decode_kv_project_cycles(&c, 32);
        let append = decode_kv_append_cycles(&c, 1);
        assert!(project.get() > append.get() * 100, "project {:?} append {:?}", project, append);
    }

    #[test]
    fn full_stack_latency_matches_paper_table_5_1() {
        // 12 encoders + 6 decoders, compute only, s = 32: the paper's A2/A3
        // compute-bound latency is 84.15 ms. The model must land within 2%.
        let c = cfg();
        let total = Cycles(encoder_cycles(&c, 32).get() * 12 + decoder_cycles(&c, 32).get() * 6);
        let ms = Clock::u50_kernel().to_ms(total);
        assert!((ms - 84.15).abs() / 84.15 < 0.02, "stack compute = {} ms vs paper 84.15 ms", ms);
    }
}
