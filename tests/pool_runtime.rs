//! Integration tests for the work-stealing solver runtime and the
//! persistent cache warm starts: pool results must be bit-identical to
//! serial execution under stress (concurrent submitters, skewed task
//! costs, nested submission), and a fresh process importing persisted
//! caches must answer the zoo from restored plans with zero exact
//! evaluations, and re-solve it identically from the tables alone.

use std::sync::Arc;

use temp_repro::graph::models::ModelZoo;
use temp_repro::graph::workload::Workload;
use temp_repro::solver::pool::ContextPool;
use temp_repro::solver::runtime::WorkPool;

/// Deterministic xorshift — the stress tests are seeded, not flaky.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A deliberately skewed, seeded per-item workload: most items are
/// trivial, a few spin orders of magnitude longer, emulating the real
/// costing batches (a 32-die TATP ring costs far more than pure DP).
fn skewed_work(seed: u64, item: u64) -> u64 {
    let mut s = seed ^ (item.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
    let spin = if xorshift(&mut s) % 16 == 0 { 4000 } else { 50 };
    let mut acc = item;
    for _ in 0..spin {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    acc
}

#[test]
fn pool_matches_serial_under_skewed_costs() {
    let pool = WorkPool::with_workers(4);
    for seed in [1u64, 42, 0xdead_beef] {
        let items: Vec<u64> = (0..1500).collect();
        let serial: Vec<u64> = items.iter().map(|&i| skewed_work(seed, i)).collect();
        for chunk in [1, 7, 64] {
            let pooled = pool.map(&items, &|&i| skewed_work(seed, i), chunk);
            assert_eq!(pooled, serial, "seed {seed}, chunk {chunk}");
        }
    }
    let stats = pool.stats();
    assert!(stats.executed > 0, "work must actually run on the pool");
}

#[test]
fn many_concurrent_submitters_get_order_preserving_results() {
    let pool = Arc::new(WorkPool::with_workers(4));
    let submitters = 8u64;
    let handles: Vec<_> = (0..submitters)
        .map(|seed| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                // Each submitter runs several rounds so submissions from
                // different threads interleave on the shared deques.
                for round in 0..4u64 {
                    let n = 200 + (seed * 37 + round * 13) % 300;
                    let items: Vec<u64> = (0..n).collect();
                    let expect: Vec<u64> = items.iter().map(|&i| skewed_work(seed, i)).collect();
                    let got = pool.map(&items, &|&i| skewed_work(seed, i), 3);
                    assert_eq!(got, expect, "submitter {seed}, round {round}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter panicked");
    }
}

#[test]
fn nested_submission_inside_tasks_matches_serial() {
    let pool = Arc::new(WorkPool::with_workers(3));
    let outer: Vec<u64> = (0..24).collect();
    let serial: Vec<u64> = outer
        .iter()
        .map(|&r| {
            (0..100)
                .map(|c| skewed_work(r, c))
                .fold(0u64, u64::wrapping_add)
        })
        .collect();
    let inner_items: Vec<u64> = (0..100).collect();
    let nested = pool.map(
        &outer,
        &|&r| {
            // A task that itself fans out on the same pool: the worker
            // helps (pop-own / steal) instead of blocking, so this must
            // complete and agree with serial even at depth.
            pool.map(&inner_items, &|&c| skewed_work(r, c), 5)
                .into_iter()
                .fold(0u64, u64::wrapping_add)
        },
        1,
    );
    assert_eq!(nested, serial);
}

/// Every cache file in `from`, copied into `to` with its plans section
/// emptied: the tables a restart would import without restored plans.
fn copy_without_plans(from: &std::path::Path, to: &std::path::Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create stripped dir");
    for entry in std::fs::read_dir(from).expect("list cache dir") {
        let path = entry.expect("cache dir entry").path();
        let text = std::fs::read_to_string(&path).expect("read cache file");
        let cut = text.find("\nplans ").expect("plans section") + 1;
        let enumeration = text[cut..]
            .split_ascii_whitespace()
            .nth(2)
            .expect("enumeration hash");
        let stripped = format!("{}plans 0 {enumeration}\n", &text[..cut]);
        std::fs::write(to.join(path.file_name().unwrap()), stripped).expect("write stripped");
    }
}

#[test]
fn persisted_caches_warm_start_a_fresh_pool_with_identical_plans() {
    use temp_repro::graph::models::ModelConfig;
    use temp_repro::mapping::engines::MappingEngine;
    use temp_repro::parallel::strategy::HybridConfig;
    use temp_repro::serve::{model_by_slug, wafer_config, zoo_slugs};
    use temp_repro::solver::dlws::ExecutionPlan;
    use temp_repro::solver::SearchStats;

    let dir = std::env::temp_dir().join(format!("temp-plan-restore-{}", std::process::id()));
    let stripped = dir.with_extension("stripped");
    let _ = std::fs::remove_dir_all(&dir);

    // One solve: `(wafer, model, engine, pp, Megatron-style filter?)`.
    type Solve = (&'static str, ModelConfig, MappingEngine, usize, bool);
    let megatron = |c: &HybridConfig| c.tatp == 1 && !c.fsdp;
    let mut solves: Vec<Solve> = Vec::new();
    for wafer in ["hpca", "8x8"] {
        for slug in zoo_slugs() {
            for engine in [
                MappingEngine::Tcme,
                MappingEngine::SMap,
                MappingEngine::GMap,
            ] {
                solves.push((wafer, model_by_slug(slug).unwrap(), engine, 1, false));
            }
        }
    }
    solves.push(("hpca", ModelZoo::gpt3_6_7b(), MappingEngine::SMap, 1, true));
    solves.push(("hpca", ModelZoo::gpt3_6_7b(), MappingEngine::Tcme, 2, false));
    assert_eq!(solves.len(), 8 * 2 * 3 + 2);

    let pools =
        || ["hpca", "8x8"].map(|wafer| ContextPool::new(wafer_config(wafer).expect("known wafer")));
    let run = |pools: &[ContextPool; 2]| -> (Vec<ExecutionPlan>, SearchStats) {
        let plans = solves
            .iter()
            .map(|(wafer, model, engine, pp, filtered)| {
                let pool = &pools[usize::from(*wafer == "8x8")];
                let solver = pool.solver(model, &Workload::for_model(model));
                solver
                    .solve_with_engine_pp(*engine, *pp, |c| !filtered || megatron(c))
                    .expect("zoo solve")
            })
            .collect();
        let mut stats = SearchStats::default();
        for pool in pools {
            stats += pool.aggregate_stats().0;
        }
        (plans, stats)
    };

    let cold = pools();
    let (cold_plans, cold_stats) = run(&cold);
    assert!(cold_stats.misses > 0);
    for pool in &cold {
        pool.save_to(&dir).expect("save");
    }

    // A restart: every key is answered from its restored plan.
    let warm = pools();
    for pool in &warm {
        pool.load_from(&dir).expect("load");
    }
    let (warm_plans, warm_stats) = run(&warm);
    for (i, (warm, cold)) in warm_plans.iter().zip(&cold_plans).enumerate() {
        assert_eq!(
            warm, cold,
            "solve {i} ({:?}) differs after restore",
            solves[i].1.name
        );
    }
    assert_eq!(warm_stats.plan_hits, solves.len() as u64);
    assert_eq!(warm_stats.misses, 0, "{warm_stats:?}");
    assert_eq!(
        warm_stats.hits, 0,
        "a restored plan reads no cost-table entry"
    );

    // Without the plans section, the imported tables alone re-solve to
    // the same plans with zero exact evaluations.
    copy_without_plans(&dir, &stripped);
    let resolved = pools();
    for pool in &resolved {
        pool.load_from(&stripped).expect("load stripped");
    }
    let (resolved_plans, resolved_stats) = run(&resolved);
    assert_eq!(resolved_stats.plan_hits, 0);
    assert_eq!(
        resolved_stats.misses, 0,
        "the imported tables alone answer every solve without evaluating: {resolved_stats:?}"
    );
    assert!(resolved_stats.hits > 0, "{resolved_stats:?}");
    for (i, (plan, cold)) in resolved_plans.iter().zip(&cold_plans).enumerate() {
        assert_eq!(
            plan, cold,
            "solve {i} ({:?}) differs after re-solve",
            solves[i].1.name
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&stripped);
}
