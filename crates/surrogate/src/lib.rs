//! # temp-surrogate — the DNN-based cost model (§VII-A, Fig. 21)
//!
//! The paper trains a DNN on an ASTRA-sim-generated dataset so the DLWS
//! search can query latencies in microseconds instead of re-simulating
//! (100–1000x faster search). This crate reproduces the methodology:
//!
//! * [`dataset`] — sweeps operator/communication parameters through the
//!   `temp-sim` models to build (features, latency) samples for the three
//!   Fig. 21 target classes: computation, collective communication, and
//!   computation/communication overlap;
//! * [`mlp`] — a small feed-forward network (manual backprop, Adam,
//!   feature/target normalization, seeded init);
//! * [`linreg`] — the multivariate linear-regression baseline (normal
//!   equations);
//! * [`metrics`] — Pearson correlation and mean relative error.
//!
//! The crate reproduces the Fig. 21 accuracy study. The solver does not
//! consult it: DLWS prices candidates with the exact cost model, and
//! admissible bound pruning is what keeps the search fast.
//!
//! # Example
//!
//! ```
//! use temp_surrogate::dataset::{generate, TargetClass};
//! use temp_surrogate::linreg::LinearRegression;
//! use temp_surrogate::metrics::{mean_relative_error, pearson};
//!
//! let data = generate(TargetClass::Compute, 200, 7);
//! let (train, test) = data.split(0.8);
//! let lr = LinearRegression::fit(&train);
//! let pred = lr.predict_all(&test);
//! let corr = pearson(&pred, &test.targets);
//! assert!(corr > 0.8);
//! let _err = mean_relative_error(&pred, &test.targets);
//! ```

pub mod dataset;
pub mod linreg;
pub mod metrics;
pub mod mlp;

pub use dataset::{Dataset, TargetClass};
pub use linreg::LinearRegression;
pub use mlp::{Mlp, TrainParams};
