//! Seeded fault-injection campaigns over the model zoo (§VIII-F, Fig. 20).
//!
//! Where `temp_core::fault` predicts degradation with closed-form
//! detour/derating formulas, this harness answers the question the paper
//! actually poses: *what does the planner itself do on a broken wafer?*
//! For every `(fault rate, seed)` point it injects faults into the mesh,
//! re-runs the full DLWS search on the degraded cost model
//! ([`Dlws::resolve_degraded`]), and records the re-solved plan's
//! throughput relative to the healthy plan from the same solver.
//!
//! Invariants the campaign checks on every re-solved plan:
//!
//! - the plan's memory verdict holds under the **derated** per-die HBM
//!   budget (worst surviving die, not nameplate capacity);
//! - a disconnected fabric — or a fabric with no feasible plan — scores
//!   zero throughput rather than being silently skipped.
//!
//! Seeds mirror `temp_core::fault`'s sweeps (`1000 + s` for links,
//! `2000 + s` for cores) so the re-solved curves and the closed-form
//! baseline are directly comparable point by point.

use temp_graph::models::ModelConfig;
use temp_graph::workload::Workload;
use temp_wsc::config::WaferConfig;
use temp_wsc::fault::FaultMap;

use crate::dlws::Dlws;

/// Which fault class a campaign injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// D2D link failures — reroutes, then a connectivity cliff.
    Link,
    /// Compute-core failures — graceful derating, shrinking memory.
    Core,
}

impl FaultKind {
    /// Seed base matching the closed-form sweeps in `temp_core::fault`.
    pub fn seed_base(self) -> u64 {
        match self {
            FaultKind::Link => 1000,
            FaultKind::Core => 2000,
        }
    }

    /// Injects this fault class at `rate` into `mesh`.
    pub fn inject(self, mesh: &temp_wsc::topology::Mesh, rate: f64, seed: u64) -> FaultMap {
        match self {
            FaultKind::Link => FaultMap::inject_link_faults(mesh, rate, seed),
            FaultKind::Core => FaultMap::inject_core_faults(mesh, rate, seed),
        }
    }
}

/// One `(rate, seeds)` aggregate of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignPoint {
    /// Injected fault rate.
    pub rate: f64,
    /// Mean over seeds of `healthy chain cost / degraded chain cost`
    /// (1.0 = no loss; 0.0 = no feasible plan / disconnected).
    pub relative_throughput: f64,
    /// Seeds whose re-solve produced a feasible plan.
    pub feasible_seeds: usize,
    /// Seeds swept at this rate.
    pub seeds: usize,
}

/// A full per-model degradation curve from re-solved plans.
#[derive(Debug, Clone)]
pub struct CampaignCurve {
    /// Model name (Table II label).
    pub model: String,
    /// Fault class injected.
    pub kind: FaultKind,
    /// One aggregate per swept rate, in sweep order.
    pub points: Vec<CampaignPoint>,
}

impl CampaignCurve {
    /// Relative throughput at the first swept rate (typically 0.0).
    pub fn head(&self) -> f64 {
        self.points
            .first()
            .map(|p| p.relative_throughput)
            .unwrap_or(0.0)
    }

    /// Relative throughput at the last swept rate.
    pub fn tail(&self) -> f64 {
        self.points
            .last()
            .map(|p| p.relative_throughput)
            .unwrap_or(0.0)
    }
}

/// One request of a flat-batched campaign ([`run_campaigns`]): a model
/// crossed with one fault class and its rate grid.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Model to re-solve on the degraded fabric.
    pub model: ModelConfig,
    /// Fault class injected.
    pub kind: FaultKind,
    /// Rates swept, in order.
    pub rates: Vec<f64>,
}

/// Runs a seeded fault campaign for one model: injects `kind` faults at
/// every rate in `rates` for `seeds` seeds, re-solves on the degraded
/// fabric, and aggregates relative throughput.
///
/// A thin wrapper over [`run_campaigns`] with a single spec.
///
/// # Panics
///
/// Panics if a re-solved plan violates its derated memory verdict — that
/// is a solver invariant, not a data point.
pub fn run_campaign(
    wafer: &WaferConfig,
    model: &ModelConfig,
    kind: FaultKind,
    rates: &[f64],
    seeds: u64,
) -> CampaignCurve {
    run_campaigns(
        wafer,
        &[CampaignSpec {
            model: model.clone(),
            kind,
            rates: rates.to_vec(),
        }],
        seeds,
    )
    .pop()
    .expect("one spec in, one curve out")
}

/// Flat-batched fault campaigns: the full `(spec x seed)` grid is
/// scheduled as one batch on the solver runtime
/// ([`crate::runtime::global`]), so campaign wall time scales with the
/// worker count instead of the grid size. Each lane re-solves every
/// rate of its grid ([`Dlws::resolve_degraded`]), deriving each fault
/// map's degraded view exactly once.
///
/// Scores are aggregated in seed order, so curves are independent of the
/// runtime's scheduling.
///
/// # Panics
///
/// Panics if any re-solved plan violates its derated memory verdict —
/// that is a solver invariant, not a data point.
pub fn run_campaigns(
    wafer: &WaferConfig,
    specs: &[CampaignSpec],
    seeds: u64,
) -> Vec<CampaignCurve> {
    // One solver + healthy plan per distinct model: healthy solves are
    // shared across fault kinds and across every lane's rate-0 point.
    let mut solvers: Vec<(String, Dlws, f64)> = Vec::new();
    for spec in specs {
        if solvers.iter().any(|(name, _, _)| *name == spec.model.name) {
            continue;
        }
        let workload = Workload::for_model(&spec.model);
        let solver = Dlws::new(wafer.clone(), spec.model.clone(), workload);
        let healthy = solver
            .solve()
            .expect("healthy wafer must have a feasible plan");
        solvers.push((spec.model.name.clone(), solver, healthy.chain_cost));
    }
    let solver_of = |name: &str| {
        solvers
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, s, h)| (s, *h))
            .expect("solver built for every spec")
    };

    let mesh = wafer.mesh();
    let lanes: Vec<(usize, u64)> = (0..specs.len())
        .flat_map(|i| (0..seeds).map(move |s| (i, s)))
        .collect();

    // One lane = one (spec, seed): every rate of that seed's sweep.
    let lane_scores: Vec<Vec<Option<f64>>> = crate::runtime::global().map(&lanes, &|&(i, s)| {
        let spec = &specs[i];
        let (solver, _) = solver_of(&spec.model.name);
        spec.rates
            .iter()
            .map(|&rate| {
                let faults = spec.kind.inject(&mesh, rate, spec.kind.seed_base() + s);
                match solver.resolve_degraded(&faults) {
                    Ok(plan) => {
                        assert!(
                            plan.report.fits_memory,
                            "{} {:?} rate {rate} seed {s}: re-solved plan \
                             violates the derated memory verdict",
                            spec.model.name, spec.kind
                        );
                        Some(plan.chain_cost)
                    }
                    // Disconnected fabric or nothing fits the derated
                    // wafer: zero throughput, counted, not skipped.
                    Err(_) => None,
                }
            })
            .collect()
    });

    // Aggregate per spec in seed order, so the curve is deterministic
    // regardless of lane scheduling.
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let (_, healthy_cost) = solver_of(&spec.model.name);
            let points = spec
                .rates
                .iter()
                .enumerate()
                .map(|(r, &rate)| {
                    let mut total = 0.0;
                    let mut feasible = 0usize;
                    for (lane, scores) in lanes.iter().zip(&lane_scores) {
                        if lane.0 != i {
                            continue;
                        }
                        if let Some(chain_cost) = scores[r] {
                            feasible += 1;
                            total += healthy_cost / chain_cost;
                        }
                    }
                    CampaignPoint {
                        rate,
                        relative_throughput: total / seeds as f64,
                        feasible_seeds: feasible,
                        seeds: seeds as usize,
                    }
                })
                .collect();
            CampaignCurve {
                model: spec.model.name.clone(),
                kind: spec.kind,
                points,
            }
        })
        .collect()
}

/// The link-fault rates Fig. 20(b) sweeps (cliff region included).
pub fn fig20_link_rates() -> Vec<f64> {
    vec![0.0, 0.1, 0.2, 0.3, 0.35, 0.4, 0.5]
}

/// The core-fault rates Fig. 20(c) sweeps.
pub fn fig20_core_rates() -> Vec<f64> {
    vec![0.0, 0.05, 0.10, 0.15, 0.20, 0.25]
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_graph::models::ModelZoo;

    #[test]
    fn healthy_rate_scores_exactly_one() {
        let curve = run_campaign(
            &WaferConfig::hpca(),
            &ModelZoo::gpt3_6_7b(),
            FaultKind::Link,
            &[0.0],
            2,
        );
        assert_eq!(curve.points.len(), 1);
        assert!((curve.head() - 1.0).abs() < 1e-12, "{}", curve.head());
        assert_eq!(curve.points[0].feasible_seeds, 2);
    }

    #[test]
    fn core_faults_degrade_gracefully_links_hit_a_cliff() {
        let wafer = WaferConfig::hpca();
        let model = ModelZoo::gpt3_6_7b();
        let core = run_campaign(&wafer, &model, FaultKind::Core, &[0.0, 0.25], 3);
        assert!(
            core.tail() > 0.6 && core.tail() < 1.0,
            "25% core faults must degrade gracefully: {}",
            core.tail()
        );
        let link = run_campaign(&wafer, &model, FaultKind::Link, &[0.15, 0.8], 3);
        assert!(
            link.head() > 0.0,
            "moderate link faults must still re-solve"
        );
        assert_eq!(
            link.tail(),
            0.0,
            "80% link faults disconnect every seed's mesh"
        );
        assert_eq!(link.points[1].feasible_seeds, 0);
    }
}
