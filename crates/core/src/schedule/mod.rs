//! Block-wise compute schedules (paper §4.6, Fig 4.13).
//!
//! These models answer one question: how many kernel cycles does each
//! encoder/decoder block occupy on the PSA pool, given the Fig 4.13 operation
//! ordering and its overlaps (bias adds behind MM1 passes, scaling+softmax
//! behind `MM1(V)`, pipelined partial-product accumulation).

pub mod decoder;
pub mod detailed;
pub mod encoder;
pub mod head;

pub use decoder::decoder_cycles;
pub use encoder::{encoder_cycles, ffn_block_cycles, mha_block_cycles};
pub use head::head_pass_cycles;

use crate::config::AccelConfig;
use asr_fpga_sim::Cycles;

/// Cycle cost of the element-wise special-function unit (softmax exp,
/// layer-norm statistics, ReLU): a 4-lane pipelined unit at initiation
/// interval 1 with a 32-cycle depth.
pub fn elementwise_cycles(elements: usize) -> Cycles {
    assert!(elements > 0, "degenerate element-wise op");
    Cycles(32 + elements as u64 / 4)
}

/// Cycle cost of one Add-Norm block over an `s × d_model` activation: the
/// residual add is split across the eight `s × 64` adders on both SLRs
/// (§4.6), then the normalisation runs on the element-wise unit.
pub fn addnorm_cycles(cfg: &AccelConfig, s: usize) -> Cycles {
    let d = cfg.model.d_model;
    let add = cfg.adder.cycles(s, d / cfg.n_psas().max(1));
    add + elementwise_cycles(s * d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_scales_with_elements() {
        assert!(elementwise_cycles(4096) > elementwise_cycles(64));
        assert_eq!(elementwise_cycles(400).get(), 32 + 100);
    }

    #[test]
    fn addnorm_is_cheap_relative_to_matmuls() {
        let cfg = AccelConfig::paper_default();
        let an = addnorm_cycles(&cfg, 32);
        let mm4 = crate::mm::mm4_cycles(&cfg, 32);
        assert!(an.get() * 10 < mm4.get(), "Add-Norm {} vs MM4 {}", an.get(), mm4.get());
    }
}
