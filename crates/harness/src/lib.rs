//! # ftspm-harness — experiment orchestration
//!
//! Glues the reproduction together the way the paper's tool flow does:
//!
//! 1. **Profile** the workload once on an idealised machine
//!    ([`profiling_structure`]: every block mapped, 1-cycle accesses) to
//!    obtain the Table I statistics and access sequence;
//! 2. run **MDA** (or the baseline mapper) to fix each block's region;
//! 3. **re-run** the workload on the target structure with that mapping,
//!    collecting cycles, per-region read/write distributions, dynamic and
//!    static energy, STT-RAM wear, and the analytic vulnerability.
//!
//! [`RunBuilder`] is the front door: chain the structure, workload,
//! fault options, thread count and observability sink, then call
//! [`RunBuilder::run`] (one workload, one structure),
//! [`RunBuilder::run_multi`] (an N-core workload in lockstep) or
//! [`RunBuilder::run_suite`] (whole workload set on FTSPM plus both
//! baselines). [`evaluate_workload`] performs the three-structure
//! evaluation for a single workload. All of them, and the profiling
//! pass, execute through one private run path. The `report` module
//! renders the paper's tables and figures from the results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
mod builder;
pub mod journal;
mod metrics;
mod pipeline;
pub mod report;

pub use builder::RunBuilder;
pub use metrics::{MultiRunMetrics, RegionTraffic, RunMetrics, StructureKind, WorkloadEvaluation};
pub use pipeline::{
    evaluate_workload, profile_workload, profiling_structure, FaultOptionsError, LiveFaultOptions,
    LiveFaultOptionsBuilder, RunError,
};
