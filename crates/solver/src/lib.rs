//! # temp-solver — the Dual-Level Wafer Solver (DLWS, §VII)
//!
//! DLWS pairs a *wafer-centric cost model* with a *dual-level search*:
//!
//! * [`cost`] — the analytic cost model of Eqs. 2–4: per-layer time is
//!   `Collective + max(Comp, P2P-stream)`, per-step time adds pipeline
//!   bubbles, gradient synchronization and the embedding/LM-head end
//!   segments; memory feasibility, energy, throughput and power
//!   efficiency are produced alongside, plus per-segment costing via
//!   [`cost::WaferCostModel::evaluate_segment`];
//! * [`dp`] — recursive dynamic programming over the heterogeneous
//!   segment chain, with ragged per-segment candidate lists, resharding
//!   transition costs and typed [`dp::DpError`]s (level 1 of the DLS
//!   algorithm, Fig. 12(b));
//! * [`ilp`] — an exact exhaustive/branch-and-bound baseline, standing in
//!   for the ILP formulation whose search time §VIII-H compares against;
//! * [`search`] — the shared search pipeline: candidates enumerated once,
//!   evaluations memoized behind a thread-safe cache, cache misses costed
//!   exactly and in parallel, with admissible bound pruning on chain
//!   solves (the one way the solver prices candidates);
//! * [`runtime`] — the persistent thread pool (one locked task queue,
//!   one item per task, nested submission) every parallel path runs on;
//! * [`shard`] — sharded cache locks and single-flight coalescing, so
//!   concurrent solvers neither serialize on one mutex nor duplicate an
//!   in-flight evaluation;
//! * [`dlws`] — the end-to-end solver: enumerate → cost → chain DP → plan;
//! * [`stage`] — stage-partitioned multi-wafer planning: pipeline stages
//!   as contiguous segment-chain slices, with cut positions, per-stage
//!   strategies and inter-wafer handoffs solved jointly (Fig. 19);
//! * [`pool`] — the cross-model context pool zoo sweeps share wafer-level
//!   state through.
//!
//! # Example
//!
//! ```
//! use temp_solver::dlws::Dlws;
//! use temp_graph::models::ModelZoo;
//! use temp_graph::workload::Workload;
//! use temp_wsc::config::WaferConfig;
//!
//! let model = ModelZoo::gpt3_6_7b();
//! let plan = Dlws::new(WaferConfig::hpca(), model.clone(), Workload::for_model(&model))
//!     .solve()
//!     .expect("a feasible plan exists");
//! assert!(plan.report.fits_memory);
//! ```

pub mod cost;
pub mod dlws;
pub mod dp;
pub mod faultcamp;
pub mod ilp;
pub mod persist;
pub mod pool;
pub mod runtime;
pub mod search;
pub mod shard;
pub mod stage;

pub use cost::{CostReport, SegmentCost, WaferCostModel};
pub use dlws::{Dlws, ExecutionPlan, SegmentAssignment};
pub use dp::DpError;
pub use pool::ContextPool;
pub use search::{ImportSummary, SearchContext, SearchStats};
pub use stage::{MultiWaferPlan, StagePlan};

/// Errors produced by the solver.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// No configuration fits the wafer's memory.
    NoFeasiblePlan(String),
    /// A sub-component failed (mapping, layout, ...).
    Internal(String),
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::NoFeasiblePlan(msg) => write!(f, "no feasible plan: {msg}"),
            SolverError::Internal(msg) => write!(f, "solver internal error: {msg}"),
        }
    }
}

impl std::error::Error for SolverError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SolverError>;
