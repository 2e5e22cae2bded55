//! Dense `f32` linear-algebra substrate for the Transformer ASR accelerator.
//!
//! Everything in the reproduced system — the reference model, the systolic-array
//! functional units, and the CPU baseline — operates on the row-major [`Matrix`]
//! type defined here. The crate deliberately stays small and dependency-light:
//! it provides exactly the operations the paper's Transformer needs
//! (matmul, bias add, residual add, row-wise softmax, ReLU, layer norm) plus
//! seeded initialisation and approximate-comparison helpers used by the tests.
//!
//! Two matmul kernels are provided, both on the calling thread:
//!
//! * [`ops::matmul_naive`] — the textbook triple loop, the oracle in tests;
//! * [`ops::matmul_blocked`] — cache-blocked, behind
//!   [`backend::ReferenceBackend`].
//!
//! The [`backend::MatMul`] trait lets `asr-transformer` swap the reference
//! kernels for the systolic functional units in `asr-systolic` without the
//! model code changing.

pub mod activations;
pub mod approx;
pub mod backend;
pub mod crc32;
pub mod encoding;
pub mod init;
pub mod matrix;
pub mod norm;
pub mod ops;
pub mod quant;
pub mod stats;

pub use approx::{assert_close, max_abs_diff, relative_close};
pub use backend::MatMul;
pub use crc32::crc32;
pub use encoding::{StripeEncoding, WeightEncoding};
pub use matrix::Matrix;
