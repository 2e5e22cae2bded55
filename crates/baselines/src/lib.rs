//! Comparison platforms: the CPU and GPU the paper measures against, plus the
//! reference works of Table 5.6.
//!
//! The physical Xeon E5-2640 and RTX 3080 Ti are not available here, so each
//! baseline is an affine latency model `t = overhead + FLOPs / throughput`
//! least-squares fitted to the paper's measured latencies (Tables 5.4 / 5.5)
//! — the fit residuals and the fitting data are kept in the tests, so the
//! calibration is reproducible. The host wall clock of the model itself, on
//! this machine, is perfbench's to measure (its `frontend.*` and
//! `transformer.*` metrics).

pub mod cpu;
pub mod gpu;
pub mod refworks;

pub use cpu::CpuModel;
pub use gpu::GpuModel;
