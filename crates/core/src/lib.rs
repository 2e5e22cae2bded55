//! The paper's primary contribution: a host-orchestrated hardware accelerator
//! for the Transformer end-to-end ASR model, reproduced as a functional +
//! timing simulator over the `asr-fpga-sim` / `asr-systolic` substrates.
//!
//! Structure (Chapter 4 of the thesis, block for block):
//!
//! * [`calib`] — every calibration constant with its derivation;
//! * [`config`] — the accelerator configuration ([`config::AccelConfig`]):
//!   PSA pool shape, SLR split, HBM channel assignment;
//! * [`mm`] — the six matmul scheduling schemes MM1–MM6 (Table 4.2,
//!   Figs 4.3–4.7): operand dimensions, PSA routing, cycle costs;
//! * [`schedule`] — the block-wise compute schedules: the Fig 4.13 attention-
//!   head schedule, encoder and decoder layer schedules;
//! * [`arch`] — the three end-to-end load/compute overlap architectures
//!   A1/A2/A3 (Figs 4.8–4.11) priced on a span timeline;
//! * [`plan`] — the lowered execution-plan IR: one constructor per plan
//!   kind on [`plan::ExecPlan`], all over one emitter of an explicit
//!   `LoadStripe`/`Compute`/`Verify`/`Barrier` DAG, where A1/A2/A3 are
//!   prefetch-edge policies and solo execution is a batch of one; consumed
//!   by the analytic walker, the runtime executors, and the functional
//!   interpreter;
//! * [`exec`] — the functional execution path: the real f32 model forward
//!   pass routed through the systolic functional units
//!   ([`exec::SystolicBackend`]), proving the dataflow is numerically faithful;
//! * [`host`] — the top-level controller (Fig 4.12): per-layer prefetch,
//!   E2E latency/throughput/energy report (§5.1.6);
//! * [`resources`] — the design-level resource estimator (Table 5.2);
//! * [`dse`] — design-space exploration over heads × PSAs-per-head (Table 5.3);
//! * [`energy`] — GFLOPs/s and GFLOPs/J accounting (Table 5.6, §5.1.6);
//! * [`integrity`] — the silent-data-corruption defense (DESIGN.md §9):
//!   CRC-enveloped weight loads, ABFT-checked PSA matmuls, localized
//!   recompute, and always-on activation guards.

pub mod arch;
pub mod autotune;
pub mod block_exec;
pub mod calib;
pub mod cluster;
pub mod config;
pub mod dse;
pub mod energy;
pub mod error;
pub mod exec;
pub mod host;
pub mod host_runtime;
pub mod integrity;
pub mod latency;
pub mod mm;
pub mod mm_exec;
pub mod pipeline;
pub mod plan;
pub mod quant;
pub mod report;
pub mod resources;
pub mod schedule;
pub mod serve;
pub mod stream;
pub mod sweep;
pub mod verify;

pub use arch::Architecture;
pub use cluster::{
    Cluster, ClusterConfig, ClusterReport, NodeFault, NodeSummary, TrafficTrace, UpgradeConfig,
    UpgradeOutcome,
};
pub use config::AccelConfig;
pub use error::AccelError;
pub use exec::SystolicBackend;
pub use host::HostController;
pub use host_runtime::{run_plan, run_plan_with_recovery, BatchFailure, BatchedRun};
pub use integrity::{
    functional_checkpoint_at, resume_functional_plan, run_functional_decode, run_functional_plan,
    BatchIntegrityRun, CorruptionCounters, FunctionalCheckpoint, FunctionalDecodeRun,
    FunctionalFaults, UtteranceRun,
};
pub use plan::{
    decode_analytics, walk_cost, DecodeAnalytics, DecodeStepSpec, ExecPlan, PlanCheckpoint,
    PlanCmd, PlanCost, PlanNode, PlanResume, ResidentStripe,
};
pub use serve::{
    pool_fault_plans, BatchConfig, BreakerState, Evicted, RequestOutcome, RequestRecord,
    ServeConfig, ServePool, ServeReport,
};
pub use stream::{stream_analytics, StreamAnalytics, StreamConfig, StreamPool, StreamReport};
