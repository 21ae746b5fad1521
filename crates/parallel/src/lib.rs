//! # temp-parallel — parallelism strategies and tensor-stream orchestration
//!
//! Implements the paper's parallelization layer:
//!
//! * [`strategy`] — the hybrid-parallelism configuration lattice
//!   (DP/FSDP/TP/SP/CP/PP/TATP degrees whose product covers the die array)
//!   and its enumeration;
//! * [`groups`] — physical group formation on the mesh (topology-aware
//!   blocks vs. naive strips) with ring/snake diagnostics;
//! * [`tspp`] — the naive tensor-stream partition strawman (logical ring
//!   with O(N)-hop wrap transfers — the Fig. 5(a) failure mode);
//! * [`tatp`] — Algorithm 1: bidirectional redundant-transfer orchestration
//!   where every transfer is a single hop and each die computes exactly one
//!   sub-output per round;
//! * [`memory`] — per-die memory footprints under any hybrid configuration
//!   (the replication accounting behind Figs. 4(c) and 13);
//! * [`schedule`] — lowering stream orchestrations onto physical dies as
//!   simulator-ready [`temp_sim::RoundSchedule`]s.
//!
//! # Example
//!
//! ```
//! use temp_parallel::tatp::TatpOrchestration;
//!
//! let orch = TatpOrchestration::build(8);
//! orch.validate().expect("Algorithm 1 invariants hold");
//! assert_eq!(orch.rounds().len(), 8);
//! assert!(orch.max_hop_distance() <= 1);
//! ```

pub mod groups;
pub mod memory;
pub mod schedule;
pub mod strategy;
pub mod stream;
pub mod tatp;
pub mod tspp;

pub use memory::FootprintBreakdown;
pub use strategy::{HybridConfig, ParallelKind};
pub use tatp::TatpOrchestration;
pub use tspp::TsppOrchestration;

/// Errors produced by parallel-plan construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParallelError {
    /// Parallel degrees do not multiply to the die count.
    DegreeMismatch {
        /// Product of configured degrees.
        product: usize,
        /// Dies available.
        dies: usize,
    },
    /// An orchestration invariant failed (payload describes which).
    InvariantViolation(String),
    /// An invalid parameter reached the planner.
    InvalidParameter(String),
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelError::DegreeMismatch { product, dies } => {
                write!(
                    f,
                    "parallel degrees multiply to {product}, but wafer has {dies} dies"
                )
            }
            ParallelError::InvariantViolation(msg) => write!(f, "invariant violation: {msg}"),
            ParallelError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for ParallelError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ParallelError>;
