//! Integration tests for the two-tier search pipeline and the dense-link
//! contention fast path.
//!
//! * The surrogate gate must be *safe*: across the fig13 model zoo the
//!   gated search returns the same [`ExecutionPlan`] as exhaustive exact
//!   search (the exact winner always survives the gate).
//! * The dense-link `ContentionSim` must be a pure re-implementation:
//!   it agrees with the retained `HashMap` reference to 1e-9 relative on
//!   fig05-style contended flow sets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use temp_repro::graph::models::ModelZoo;
use temp_repro::graph::workload::Workload;
use temp_repro::sim::network::{ContentionSim, Flow};
use temp_repro::solver::cost::WaferCostModel;
use temp_repro::solver::dlws::Dlws;
use temp_repro::solver::search::{CostTier, SearchContext};
use temp_repro::wsc::config::WaferConfig;
use temp_repro::wsc::topology::DieId;
use temp_repro::wsc::units::MB;

/// Paper §VII-A / Fig. 21: the surrogate accelerates the search without
/// changing its answer. For every fig13 zoo model the gated solve (cold
/// context) must select the identical plan to exhaustive exact search.
/// Both solves share one context, so the comparison is bit-exact: the
/// winning report is literally the same cached evaluation.
#[test]
fn gated_search_matches_exhaustive_on_the_fig13_zoo() {
    for model in ModelZoo::table2() {
        let name = model.name.clone();
        let workload = Workload::for_model(&model);
        let ctx = std::sync::Arc::new(SearchContext::new(WaferCostModel::new(
            WaferConfig::hpca(),
            model,
            workload,
        )));
        let solver = Dlws::from_context(ctx.clone());

        // Gated solve first, on the cold context.
        ctx.set_cost_tier(CostTier::SurrogateGated);
        let gated = solver.solve().unwrap_or_else(|e| panic!("{name}: {e}"));
        let after_gated = ctx.stats();

        // Exhaustive solve on the same context: only the candidates the
        // gate pruned still need costing. Bound pruning is disabled so
        // the reference really is exhaustive — with it on, the incumbent
        // from the gate's own evaluations can prune every remaining
        // candidate, and "strictly fewer misses" no longer discriminates.
        ctx.set_pruning(false);
        ctx.set_cost_tier(CostTier::Exact);
        let exact = solver.solve().unwrap_or_else(|e| panic!("{name}: {e}"));
        let after_exact = ctx.stats();

        assert_eq!(
            after_exact.plan_hits, after_gated.plan_hits,
            "{name}: the exact plan came from the memo"
        );
        assert_eq!(
            gated, exact,
            "{name}: gated plan must equal the exhaustive plan"
        );
        assert!(
            after_gated.gate_pruned > 0,
            "{name}: the gate never engaged ({after_gated:?})"
        );
        assert!(
            after_gated.misses < after_exact.misses,
            "{name}: the gated solve must cost strictly fewer candidates \
             ({after_gated:?} vs {after_exact:?})"
        );
    }
}

/// The winner-retention guarantee must hold on *heterogeneous* chains:
/// when the exact solve assigns the embedding or head a different
/// strategy than the blocks, the gated solve must reproduce the identical
/// per-segment assignment — not merely the same block winner. The
/// chain-aware surrogate features plus the gate's closed-form chain
/// correction are what make this hold.
#[test]
fn gated_matches_exact_on_a_heterogeneous_chain() {
    let model = ModelZoo::gpt3_6_7b();
    let workload = Workload::for_model(&model);
    // One shared context so the comparison is bit-exact (re-evaluating a
    // key in a fresh context agrees only up to float association).
    let ctx = std::sync::Arc::new(SearchContext::new(WaferCostModel::new(
        WaferConfig::hpca(),
        model,
        workload,
    )));
    let solver = Dlws::from_context(ctx.clone());

    // Gated solve first, on the cold context, so the gate really prunes.
    ctx.set_cost_tier(CostTier::SurrogateGated);
    let gated = solver.solve().expect("gated plan");
    assert!(
        ctx.stats().gate_pruned > 0,
        "the gate never engaged: {:?}",
        ctx.stats()
    );

    let plan_hits = ctx.stats().plan_hits;
    ctx.set_cost_tier(CostTier::Exact);
    let exact = solver.solve().expect("exact plan");
    assert_eq!(
        ctx.stats().plan_hits,
        plan_hits,
        "the exact plan came from the memo"
    );
    assert!(
        exact.is_heterogeneous(),
        "GPT-3 6.7B must exercise the heterogeneous chain: {:?}",
        exact
            .segments
            .iter()
            .map(|s| s.config.label())
            .collect::<Vec<_>>()
    );
    assert!(
        exact.chain_cost < exact.report.step_time,
        "heterogeneous chain must beat the uniform evaluation \
         ({} vs {})",
        exact.chain_cost,
        exact.report.step_time
    );
    assert_eq!(
        exact.segments, gated.segments,
        "gated solve must reproduce the exact per-segment assignment"
    );
    assert_eq!(exact, gated, "gated and exact plans must be identical");
}

/// The winner-retention guarantee on **MoE chains**: for every MoE zoo
/// model the gated solve (cold context) must select the identical plan —
/// including the per-segment assignment, where the MoE run picks an
/// expert-parallel tuple — to exhaustive exact search. On mixed chains
/// the gate trains its predictor on the dense block-only residual and
/// adds the tier-independent segment rows in closed form (the MoE row
/// dominates the step time, so a total-time target would bury the block
/// signal the ranking has to discriminate); this test is what holds that
/// construction to the same bar as the dense zoo.
#[test]
fn gated_search_matches_exhaustive_on_the_moe_zoo() {
    for model in ModelZoo::moe_zoo() {
        let name = model.name.clone();
        let workload = Workload::for_model(&model);
        let ctx = std::sync::Arc::new(SearchContext::new(WaferCostModel::new(
            WaferConfig::hpca(),
            model,
            workload,
        )));
        let solver = Dlws::from_context(ctx.clone());

        ctx.set_cost_tier(CostTier::SurrogateGated);
        let gated = solver.solve().unwrap_or_else(|e| panic!("{name}: {e}"));
        let after_gated = ctx.stats();

        ctx.set_cost_tier(CostTier::Exact);
        let exact = solver.solve().unwrap_or_else(|e| panic!("{name}: {e}"));
        let after_exact = ctx.stats();

        assert_eq!(
            after_exact.plan_hits, after_gated.plan_hits,
            "{name}: the exact plan came from the memo"
        );
        assert_eq!(
            gated, exact,
            "{name}: gated plan must equal the exhaustive plan"
        );
        assert!(
            after_gated.gate_pruned > 0,
            "{name}: the gate never engaged ({after_gated:?})"
        );
        assert!(
            after_gated.misses < after_exact.misses,
            "{name}: the gated solve must cost strictly fewer candidates \
             ({after_gated:?} vs {after_exact:?})"
        );
        // The retained plan exercises the expert-parallel axis: the MoE
        // run's strategy is not the dense blocks'.
        use temp_repro::graph::segment::SegmentKind;
        let moe = exact
            .segments
            .iter()
            .find(|s| s.kind == SegmentKind::MoeBlock)
            .unwrap_or_else(|| panic!("{name}: no MoE run in the solved chain"));
        let dense = exact
            .segments
            .iter()
            .find(|s| s.kind == SegmentKind::Block)
            .unwrap_or_else(|| panic!("{name}: no dense run in the solved chain"));
        assert_ne!(moe.config, dense.config, "{name}");
        assert!(moe.config.ep > 1, "{name}: MoE run stayed at ep = 1");
    }
}

/// The per-degree batch mode of the gate: a surrogate-gated multi-wafer
/// sweep must select plans identical to the exact sweep — every degree's
/// batch is ranked and shortlisted on its own, so the winner-retention
/// guarantee holds per solve even though the sweep pre-costs all degrees
/// up front. Both sweeps share one context so the comparison is
/// bit-exact.
#[test]
fn gated_multiwafer_sweep_matches_exact_sweep() {
    use temp_repro::core::baselines::BaselineSystem;
    use temp_repro::core::framework::Temp;
    use temp_repro::solver::dlws::Dlws;

    let model = ModelZoo::gpt3_76b();
    let workload = Workload::for_model(&model);
    let ctx = std::sync::Arc::new(SearchContext::new(WaferCostModel::new(
        WaferConfig::hpca(),
        model,
        workload,
    )));
    let temp = Temp::from_solver(Dlws::from_context(ctx.clone()));
    let system = BaselineSystem::temp();

    // Gated sweep first, on the cold context, so the gate really prunes.
    ctx.set_cost_tier(CostTier::SurrogateGated);
    let gated = temp.evaluate_multiwafer_sweep(&system, &[2, 4], &[1, 2]);
    let after_gated = ctx.stats();
    assert!(
        after_gated.gate_pruned > 0,
        "the per-degree gate never engaged: {after_gated:?}"
    );

    // Exact sweep on the same context: only pruned candidates re-cost.
    ctx.set_cost_tier(CostTier::Exact);
    let exact = temp.evaluate_multiwafer_sweep(&system, &[2, 4], &[1, 2]);
    let after_exact = ctx.stats();
    assert!(
        after_gated.misses < after_exact.misses,
        "the gated sweep must cost strictly fewer candidates \
         ({after_gated:?} vs {after_exact:?})"
    );

    assert_eq!(gated.len(), exact.len());
    for (g, e) in gated.iter().zip(&exact) {
        assert_eq!(
            g, e,
            "gated sweep entry {}x{} must equal the exact entry",
            g.wafer_count, g.pp_multiplier
        );
    }
}

/// Fig. 5(b)-style contended flow sets: neighbor chains forced through
/// shared links, row/column crossings, plus seeded random traffic. The
/// dense water-filling must agree with the HashMap reference to 1e-9
/// relative on every completion time.
#[test]
fn dense_contention_sim_matches_reference_on_fig05_flow_sets() {
    let cfg = WaferConfig::hpca();
    let mesh = cfg.mesh();
    let sim = ContentionSim::new(&cfg);
    let dies = mesh.die_count() as u32;

    let mut flow_sets: Vec<Vec<Flow>> = Vec::new();
    // Fig. 5(a)/(b): same-row transfers sharing middle links.
    flow_sets.push(
        (0..6)
            .map(|i| Flow::xy(&mesh, DieId(i), DieId(i + 2), 128.0 * MB))
            .collect(),
    );
    // Row/column crossings plus long diagonals.
    flow_sets.push(vec![
        Flow::xy(&mesh, DieId(0), DieId(7), 64.0 * MB),
        Flow::xy(&mesh, DieId(8), DieId(15), 64.0 * MB),
        Flow::xy(&mesh, DieId(0), DieId(24), 64.0 * MB),
        Flow::xy(&mesh, DieId(7), DieId(31), 64.0 * MB),
        Flow::xy(&mesh, DieId(0), DieId(31), 96.0 * MB),
        Flow::xy(&mesh, DieId(31), DieId(0), 96.0 * MB),
    ]);
    // Seeded random traffic, including local (zero-route) flows.
    let mut rng = StdRng::seed_from_u64(41);
    for _ in 0..8 {
        let n = rng.gen_range(4..24);
        flow_sets.push(
            (0..n)
                .map(|_| {
                    let src = DieId(rng.gen_range(0..dies));
                    let dst = DieId(rng.gen_range(0..dies));
                    let bytes = rng.gen_range(1.0..256.0) * MB;
                    Flow::xy(&mesh, src, dst, bytes)
                })
                .collect(),
        );
    }

    for (case, flows) in flow_sets.iter().enumerate() {
        let dense = sim.simulate(flows);
        let reference = sim.simulate_reference(flows);
        let tol = |r: f64| 1e-9 * r.abs().max(1e-12);
        assert!(
            (dense.makespan - reference.makespan).abs() <= tol(reference.makespan),
            "case {case}: makespan {} vs {}",
            dense.makespan,
            reference.makespan
        );
        for (i, (d, r)) in dense
            .completion
            .iter()
            .zip(&reference.completion)
            .enumerate()
        {
            assert!(
                (d - r).abs() <= tol(*r),
                "case {case}, flow {i}: {d} vs {r}"
            );
        }
        assert_eq!(dense.link_bytes, reference.link_bytes, "case {case}");
        // Ties in the max-load scan may resolve to different links across
        // HashMap instances; the load itself must agree.
        assert_eq!(
            dense.max_loaded_link.map(|(_, b)| b),
            reference.max_loaded_link.map(|(_, b)| b),
            "case {case}"
        );
    }
}

/// The gate is an optimization, not a semantic switch: flipping the tier
/// back to exact on a warm context reproduces the original behavior and
/// the cache survives both pipelines.
#[test]
fn tier_switch_is_idempotent_on_a_warm_context() {
    let model = ModelZoo::gpt3_6_7b();
    let workload = Workload::for_model(&model);
    let ctx = std::sync::Arc::new(SearchContext::new(WaferCostModel::new(
        WaferConfig::hpca(),
        model,
        workload,
    )));
    let solver = Dlws::from_context(ctx.clone());
    // Exhaustive first solve: bound pruning would leave uncached holes
    // (skips are not verdicts) that the gate's stride-sampled training
    // set then re-costs, which is exactly the warmth this test relies on.
    ctx.set_pruning(false);
    let exact_first = solver.solve().unwrap();
    let misses_after_exact = ctx.stats().misses;

    // A gated solve on the warm context answers everything from cache.
    ctx.set_cost_tier(CostTier::SurrogateGated);
    let gated = solver.solve().unwrap();
    assert_eq!(
        ctx.stats().plan_hits,
        0,
        "the gated plan came from the memo"
    );
    assert_eq!(exact_first, gated);
    assert_eq!(
        ctx.stats().misses,
        misses_after_exact,
        "warm gated solve must not re-cost anything"
    );
    // On a warm context every ranked-out candidate is answered from the
    // cache, so the only entries still counted as pruned are the
    // memory-precheck skips — candidates whose exact cost is infinite
    // anyway. Nothing with a finite exact cost may be pruned.
    let candidates = ctx.candidates().to_vec();
    ctx.set_cost_tier(CostTier::Exact);
    let exact_costs = ctx.cost_candidates(
        &candidates,
        temp_repro::mapping::engines::MappingEngine::Tcme,
    );
    let infeasible = exact_costs.iter().filter(|(t, _)| !t.is_finite()).count();
    assert!(
        ctx.stats().gate_pruned as usize <= infeasible,
        "warm gated solve pruned a candidate with a finite exact cost \
         ({} pruned, {} infeasible)",
        ctx.stats().gate_pruned,
        infeasible
    );
}
