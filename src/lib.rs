//! # transformer-asr-accel
//!
//! A Rust reproduction of *"Hardware Accelerator for Transformer based
//! End-to-End Automatic Speech Recognition System"* (D S Yamini et al.,
//! RAW 2023 / IIIT-H thesis 2023): a host-orchestrated Alveo-U50 accelerator
//! for a 12-encoder/6-decoder Transformer ASR model, rebuilt as a functional
//! + cycle-level simulation stack.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`tensor`] — dense f32 matrices, matmul backends, activations;
//! * [`fpga`] — the Alveo U50 platform model (SLRs, resources, HBM);
//! * [`systolic`] — systolic-array engines (cycle-accurate grid + PSA);
//! * [`frontend`] — audio DSP, synthetic corpus, vocabulary, WER;
//! * [`transformer`] — the ESPnet `transformer_base`-shaped model;
//! * [`accel`] — the paper's contribution: MM1–MM6 schemes, Fig 4.13
//!   schedules, A1/A2/A3 overlap, host controller, DSE;
//! * [`baselines`] — calibrated Xeon/RTX-3080-Ti latency models.
//!
//! ## Quickstart
//!
//! ```
//! use transformer_asr_accel::accel::{AccelConfig, HostController};
//!
//! let host = HostController::new(AccelConfig::paper_default()).unwrap();
//! let report = host.latency_report(32);
//! // The paper's §5.1.6 headline: ~120 ms end to end at s = 32.
//! assert!((report.total_s * 1e3 - 120.45).abs() / 120.45 < 0.05);
//! ```

pub use asr_accel as accel;
pub use asr_baselines as baselines;
pub use asr_fpga_sim as fpga;
pub use asr_frontend as frontend;
pub use asr_systolic as systolic;
pub use asr_tensor as tensor;
pub use asr_transformer as transformer;
