//! Systolic-array matrix-multiplication engines.
//!
//! The paper's compute fabric is built from **partially-unrolled systolic
//! arrays (PSAs)** of dimension 2×64 (§4.4, Algorithm 1). This crate provides
//! both views of that hardware:
//!
//! * [`grid`] — a literal cycle-accurate simulation of the full
//!   output-stationary systolic array of Fig 4.2 (PE grid, skewed operand
//!   wavefronts). Used to validate the dataflow and the `l + m + n − 2`
//!   latency law on small matrices.
//! * [`psa`] — the PSA model used by the accelerator: a functional matmul
//!   whose accumulation order matches the hardware, plus an analytic timing
//!   model (row waves × column tiles × (m·II + drain)) with the partial-unroll
//!   initiation-interval penalty the thesis describes ("increasing the latency
//!   by at least ~16×" in exchange for LUT/DSP savings).
//! * [`adder`] — the `s × 64` pipelined element-wise adder blocks.

//! * [`abft`] — Huang–Abraham checksum protection over the PSA tiles: the
//!   [`abft::IntegrityLevel`] knob, the [`abft::CheckedPsa`] engine with
//!   per-tile detection and localized recompute, and the extra-cycle
//!   accounting for the latency model (DESIGN.md §9).

pub mod abft;
pub mod adder;
pub mod grid;
pub mod psa;
pub mod psa_stepped;
pub mod quant_psa;

pub use abft::{AbftStats, CheckedPsa, IntegrityLevel, LaneFault, PsaMatmul};
pub use adder::PipelinedAdder;
pub use grid::SystolicGrid;
pub use psa::{Psa, PsaConfig};
