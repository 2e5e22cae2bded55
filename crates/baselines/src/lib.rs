//! Comparison platforms: the CPU and GPU the paper measures against, plus the
//! reference works of Table 5.6.
//!
//! The physical Xeon E5-2640 and RTX 3080 Ti are not available here, so each
//! baseline is an affine latency model `t = overhead + FLOPs / throughput`
//! least-squares fitted to the paper's measured latencies (Tables 5.4 / 5.5)
//! — the fit residuals and the fitting data are kept in the tests, so the
//! calibration is reproducible. A *real* single-threaded CPU execution path
//! ([`cpu::run_real_forward`]) is also provided for honest wall-clock
//! benchmarking of the same model on this machine.

pub mod cpu;
pub mod gpu;
pub mod refworks;

pub use cpu::CpuModel;
pub use gpu::GpuModel;
