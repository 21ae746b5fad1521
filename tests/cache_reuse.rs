//! Integration tests for the cached search pipeline: `compare_all()` must
//! perform at most one full candidate-costing pass across all seven
//! compared systems, and the cache must survive (not be consumed by)
//! repeated solves.

use temp_repro::core::baselines::BaselineSystem;
use temp_repro::core::framework::Temp;
use temp_repro::graph::models::ModelZoo;

#[test]
fn compare_all_costs_each_key_at_most_once() {
    let temp = Temp::hpca(ModelZoo::gpt3_6_7b());
    let reports = temp.compare_all();
    assert_eq!(reports.len(), 7);
    let stats = temp.search_stats();

    // "One full candidate-costing pass" upper bound: every candidate, per
    // distinct mapping engine, in at most two recompute modes (the base
    // mode plus the OOM escalation). The seed behavior was one pass *per
    // system* (7 sweeps); the cache must keep us at per-engine unions.
    let candidates = temp.solver().candidates();
    let engines = 3; // SMap, GMap, TCME
    let one_pass_bound = (candidates.len() * engines * 2) as u64;
    assert!(
        stats.misses <= one_pass_bound,
        "misses {} exceed the one-pass bound {one_pass_bound}",
        stats.misses
    );

    // And strictly fewer evaluations than the seed's per-system sweeps:
    // systems sharing an engine overlap (Megatron's space is a subset of
    // MeSP's), so the sweep must have produced cache hits. Replay the
    // sweep against the now-warm cache to count exactly how many cost-
    // model runs the uncached behavior would have needed (base mode per
    // admitted candidate, plus the full-recompute escalation wherever the
    // base mode does not fit memory).
    let base_mode = temp.workload().recompute;
    let ctx = temp.solver().context();
    let per_system_evals: usize = BaselineSystem::all_systems()
        .iter()
        .map(|s| {
            candidates
                .iter()
                .filter(|c| s.partitioner.admits(c))
                .map(|c| match ctx.evaluate(c, s.engine, base_mode) {
                    Some(report) if report.fits_memory => 1,
                    _ => 2,
                })
                .sum::<usize>()
        })
        .sum();
    assert!(
        (stats.misses as usize) < per_system_evals,
        "misses {} not below the uncached per-system total {per_system_evals}",
        stats.misses
    );
    assert!(
        stats.hits > 0,
        "overlapping system spaces must hit the cache"
    );
}

#[test]
fn second_sweep_is_answered_entirely_from_the_cache() {
    let temp = Temp::hpca(ModelZoo::gpt3_6_7b());
    let first = temp.compare_all();
    let after_first = temp.search_stats();
    let second = temp.compare_all();
    let after_second = temp.search_stats();
    assert_eq!(
        after_first.misses, after_second.misses,
        "the second compare_all must not run the cost model at all"
    );
    // Every system's solve repeats with the same key: the plan memo
    // answers all seven without even reading the cost table.
    assert_eq!(
        after_second.plan_hits,
        after_first.plan_hits + first.len() as u64
    );
    assert_eq!(after_second.hits, after_first.hits);
    assert_eq!(first, second, "cached sweep must reproduce the reports");
}

#[test]
fn multiwafer_planning_shares_the_same_cache() {
    use temp_repro::wsc::config::WaferConfig;
    use temp_repro::wsc::multiwafer::MultiWaferSystem;

    let temp = Temp::hpca(ModelZoo::gpt3_175b());
    let wafers = MultiWaferSystem::new(WaferConfig::hpca(), 4).unwrap();
    let system = BaselineSystem::temp();
    let first = temp.evaluate_multiwafer(&system, &wafers, 1);
    let after_first = temp.search_stats();
    let second = temp.evaluate_multiwafer(&system, &wafers, 1);
    let after_second = temp.search_stats();
    assert!(!first.oom);
    assert_eq!(
        after_first.misses, after_second.misses,
        "repeating the multi-wafer evaluation must be pure cache hits"
    );
    // The stage-partitioned handoff pricing must not leak into cached
    // reports: both evaluations see identical plans and step times.
    assert_eq!(first, second);
    assert_eq!(first.step_time(), second.step_time());
}

#[test]
fn repeated_pooled_solves_hit_at_least_ninety_percent() {
    use temp_repro::solver::pool::ContextPool;
    use temp_repro::wsc::config::WaferConfig;

    let pool = ContextPool::new(WaferConfig::hpca());
    let model = ModelZoo::gpt3_6_7b();

    // First sweep fills the cache; the second must be answered almost
    // entirely from it — the 0.10 sweep hit rate the bench recorded was
    // the *cold* pass dominating the ratio, not eviction or key churn.
    let first = Temp::pooled(&pool, model.clone());
    let systems = first.compare_all().len() as u64;
    let cold = first.search_stats();
    assert!(cold.misses > 0);

    // The second sweep runs on the same pooled context, so each system's
    // solve is a plan-memo hit. Counting a memo hit as answered from the
    // cache, the warm rate must stay at or above 0.9.
    let second = Temp::pooled(&pool, model.clone());
    second.compare_all();
    let warm = second.search_stats();
    let warm_hits = warm.hits - cold.hits + warm.plan_hits - cold.plan_hits;
    let warm_misses = warm.misses - cold.misses;
    assert_eq!(warm_misses, 0, "the pooled re-sweep re-costed a key");
    assert_eq!(warm.plan_hits - cold.plan_hits, systems);
    let warm_rate = warm_hits as f64 / (warm_hits + warm_misses).max(1) as f64;
    assert!(
        warm_rate >= 0.9,
        "pooled re-solve hit rate {warm_rate:.3} below 0.9 \
         ({warm_hits} hits / {warm_misses} misses)"
    );

    // The context-wide totals: the hit counter never runs backwards and
    // the sweeps' lookups include cache serves.
    assert!(warm.hits >= cold.hits, "{cold:?} -> {warm:?}");
    assert!(warm.hit_rate() > 0.0, "{warm:?}");
}

#[test]
fn context_pool_reuses_wafer_level_state_across_models() {
    use std::sync::Arc;
    use temp_repro::solver::pool::ContextPool;
    use temp_repro::wsc::config::WaferConfig;

    let pool = ContextPool::new(WaferConfig::hpca());

    // fig13/fig18-style zoo sweep: several models through one pool. Every
    // context shares the wafer-level candidate enumeration by pointer.
    let models = [ModelZoo::gpt3_6_7b(), ModelZoo::llama2_7b()];
    for model in &models {
        let temp = Temp::pooled(&pool, model.clone());
        let reports = temp.compare_all();
        assert_eq!(reports.len(), 7);
    }
    assert_eq!(pool.len(), models.len());
    let ctx_a = pool.context(
        &models[0],
        &temp_repro::graph::workload::Workload::for_model(&models[0]),
    );
    let ctx_b = pool.context(
        &models[1],
        &temp_repro::graph::workload::Workload::for_model(&models[1]),
    );
    assert!(
        Arc::ptr_eq(&ctx_a.candidates_arc(), &ctx_b.candidates_arc()),
        "pooled contexts must share one candidate enumeration"
    );
    assert!(Arc::ptr_eq(&ctx_a.candidates_arc(), &pool.candidates()));

    // A second sweep over the same model reuses the *same warm context*:
    // zero new cost-model evaluations, identical reports.
    let temp_again = Temp::pooled(&pool, models[0].clone());
    let misses_before = temp_again.search_stats().misses;
    assert!(misses_before > 0, "first sweep must have filled the cache");
    let replay = temp_again.compare_all();
    assert_eq!(
        temp_again.search_stats().misses,
        misses_before,
        "a pooled re-sweep must be answered entirely from the cache"
    );
    let fresh = Temp::pooled(&pool, models[0].clone());
    assert_eq!(replay, fresh.compare_all());
    assert_eq!(pool.len(), models.len(), "no duplicate contexts");
}
