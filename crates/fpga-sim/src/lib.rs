//! Cycle-level model of the FPGA platform the paper evaluates on.
//!
//! The paper's accelerator runs on an AMD/Xilinx **Alveo U50** card: a single
//! UltraScale+ device split into two Super Logic Regions (SLRs), 8 GB of HBM2
//! attached to SLR0, and a PCIe Gen3 ×16 host link. No FPGA is available in
//! this environment, so this crate provides the simulation substrate the
//! accelerator model (`asr-accel`) schedules against:
//!
//! * [`resources`] — BRAM/DSP/FF/LUT resource vectors with checked budgets
//!   (reproduces the Table 5.2 utilization accounting);
//! * [`device`] — device presets, notably [`device::alveo_u50`];
//! * [`clock`] — cycle/time conversion at the 300 MHz kernel clock;
//! * [`hbm`] — the transfer-time model for weight loads;
//! * [`timeline`] — a span-based discrete-event timeline used to compose the
//!   A1/A2/A3 load–compute schedules and verify no unit is double-booked;
//! * [`energy`] — GFLOPs/J accounting for the §5.1.6 energy comparison.
//!
//! Everything is deterministic: transfers and compute spans are analytic
//! functions of sizes and bandwidths, not sampled.

pub mod clock;
pub mod device;
pub mod energy;
pub mod faults;
pub mod floorplan;
pub mod hbm;
pub mod isc;
pub mod power;
pub mod resources;
pub mod runtime;
pub mod timeline;
pub mod trace;

pub use clock::{Clock, Cycles};
pub use device::{alveo_u50, DeviceId, DeviceSpec, SlrId};
pub use faults::{FaultKind, FaultPlan, FaultProfile};
pub use resources::ResourceVector;
pub use runtime::{CommandStats, CommandStatus, FailureCause};
pub use timeline::{Span, Timeline};
