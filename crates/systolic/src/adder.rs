//! Pipelined element-wise adder blocks.
//!
//! The design instantiates eight `s × 64` adders (one per PSA) that apply
//! biases, sum block-striped partial products, and execute the residual Add of
//! the Add-Norm blocks (paper §4.6). An adder processes one 64-wide row slice
//! per cycle after a fixed pipeline-depth fill, so adding two `r × c` matrices
//! costs `depth + r · ceil(c / lanes)` cycles.

use asr_fpga_sim::Cycles;

/// A fixed-width pipelined adder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinedAdder {
    /// Parallel add lanes (64 in the shipped design: an `s × 64` adder).
    pub lanes: usize,
    /// Pipeline depth in cycles (fp32 adder latency).
    pub depth: u64,
}

impl PipelinedAdder {
    /// The design's 64-lane adder; fp32 addition pipelines at ~8 stages in HLS.
    pub fn paper_default() -> Self {
        PipelinedAdder { lanes: 64, depth: 8 }
    }

    /// Cycles to add two `rows × cols` matrices element-wise.
    pub fn cycles(&self, rows: usize, cols: usize) -> Cycles {
        assert!(rows > 0 && cols > 0, "degenerate add {}x{}", rows, cols);
        let beats = (rows * cols.div_ceil(self.lanes)) as u64;
        Cycles(self.depth + beats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_one_beat_per_row_slice() {
        let add = PipelinedAdder::paper_default();
        // 32 rows x 64 cols: 32 beats + 8 depth
        assert_eq!(add.cycles(32, 64), Cycles(40));
        // 32 rows x 512 cols: 8 slices per row = 256 beats + 8
        assert_eq!(add.cycles(32, 512), Cycles(264));
    }

    #[test]
    fn narrow_matrix_still_one_beat_per_row() {
        let add = PipelinedAdder::paper_default();
        assert_eq!(add.cycles(4, 3), Cycles(8 + 4));
    }

    #[test]
    #[should_panic(expected = "degenerate add")]
    fn zero_rows_panics() {
        let _ = PipelinedAdder::paper_default().cycles(0, 4);
    }
}
