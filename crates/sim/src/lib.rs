//! # temp-sim — wafer-scale chip simulator
//!
//! The paper evaluates TEMP on ASTRA-sim 2.0 extended with Ramulator and a
//! network-on-wafer model (§VII-A, §VIII-A). This crate is the Rust
//! substitute: an analytic + link-level-contention simulator producing the
//! same quantities the paper's figures consume — operator latencies,
//! collective/P2P communication times under mesh contention, per-link load
//! and utilization, and energy. Memory occupancy (the OOM verdict) is
//! `temp_parallel::memory`'s per-die footprint.
//!
//! Modules:
//!
//! * [`compute`] — roofline operator-latency model (GEMM efficiency curve,
//!   bandwidth-bound vector ops);
//! * [`network`] — flows, routing and the max–min fair-share contention
//!   model over mesh links;
//! * [`collectives`] — ring/chain implementations of all-gather, all-reduce,
//!   reduce-scatter, broadcast and P2P chains as flow programs;
//! * [`power`] — energy ledger and throughput-per-watt accounting;
//! * [`engine`] — round-based schedule execution with communication/
//!   computation overlap (Eq. 2 of the paper).
//!
//! # Example
//!
//! ```
//! use temp_sim::compute::ComputeModel;
//! use temp_graph::op::{OpKind, Operator};
//! use temp_graph::tensor::LinearDims;
//! use temp_wsc::config::WaferConfig;
//!
//! let cfg = WaferConfig::hpca();
//! let model = ComputeModel::new(&cfg);
//! let gemm = Operator::new("g", OpKind::Gemm(LinearDims::new(1, 2048, 4096, 4096)));
//! let t = model.op_latency(&gemm, 1.0);
//! assert!(t > 0.0);
//! ```

pub mod collectives;
pub mod compute;
pub mod engine;
pub mod network;
pub mod power;

pub use compute::ComputeModel;
pub use engine::{Round, RoundReport, RoundSchedule, ScheduleEngine};
pub use network::{ContentionSim, Flow};
pub use power::EnergyLedger;

/// Errors produced by simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A flow referenced a route with no links (distinct endpoints but an
    /// empty path).
    EmptyRoute {
        /// Source die.
        src: u32,
        /// Destination die.
        dst: u32,
    },
    /// An invalid parameter reached the simulator.
    InvalidParameter(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EmptyRoute { src, dst } => {
                write!(f, "flow {src} -> {dst} has an empty route")
            }
            SimError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
