//! Integration tests for the best-first streamed bound pruning: the
//! pruned search commits verdicts in stream order under the sequential
//! rule, so a serial context and a pooled one commit the same
//! evaluations, prune the same candidates and return the same plans, and
//! concurrent solves that commit shared keys in different orders on one
//! context both finish with their sequential plans.

use temp_repro::core::baselines::BaselineSystem;
use temp_repro::core::framework::Temp;
use temp_repro::graph::models::ModelZoo;
use temp_repro::graph::workload::Workload;
use temp_repro::mapping::engines::MappingEngine;
use temp_repro::solver::dlws::Dlws;
use temp_repro::solver::search::SearchStats;
use temp_repro::wsc::config::WaferConfig;
use temp_repro::wsc::multiwafer::MultiWaferSystem;

const ENGINES: [MappingEngine; 3] = [
    MappingEngine::Tcme,
    MappingEngine::SMap,
    MappingEngine::GMap,
];

/// The counts the committed stream fixes: everything but the
/// scheduling-dependent speculative discards and timings.
fn committed(stats: SearchStats) -> (u64, u64, u64) {
    (stats.misses, stats.bound_pruned, stats.dominated_pruned)
}

/// The fig13 zoo under every engine: a context costing serially and a
/// pooled one agree on every plan and on the committed counts.
#[test]
fn serial_and_pooled_streams_commit_alike_on_the_zoo_under_every_engine() {
    for engine in ENGINES {
        for model in ModelZoo::table2() {
            let name = format!("{} {engine:?}", model.name);
            let solve = |parallel: bool| {
                let workload = Workload::for_model(&model);
                let solver = Dlws::new(WaferConfig::hpca(), model.clone(), workload);
                solver.context().set_parallel(parallel);
                let plan = solver.solve_with_engine(engine, |_| true);
                (plan, committed(solver.context().stats()))
            };
            let (serial, serial_counts) = solve(false);
            let (pooled, pooled_counts) = solve(true);
            assert_eq!(serial_counts, pooled_counts, "{name}");
            match (serial, pooled) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{name}"),
                (Err(_), Err(_)) => {}
                _ => panic!("{name}: feasibility diverged"),
            }
        }
    }
}

/// The 2/4/8-wafer stage sweep: serial and pooled contexts agree on every
/// point's plan and on the committed counts.
#[test]
fn serial_and_pooled_streams_commit_alike_across_the_stage_sweep() {
    for model in [ModelZoo::gpt3_6_7b(), ModelZoo::mixtral_8x7b()] {
        let sweep = |parallel: bool| {
            let temp = Temp::hpca(model.clone());
            temp.solver().context().set_parallel(parallel);
            let points = temp.evaluate_multiwafer_sweep(&BaselineSystem::temp(), &[2, 4, 8], &[1]);
            (points, committed(temp.search_stats()))
        };
        let (serial, serial_counts) = sweep(false);
        let (pooled, pooled_counts) = sweep(true);
        assert_eq!(serial_counts, pooled_counts, "{}", model.name);
        assert!(serial_counts.2 > 0, "{}: nothing was dominated", model.name);
        assert_eq!(serial.len(), pooled.len(), "{}", model.name);
        for (s, p) in serial.iter().zip(&pooled) {
            let point = format!("{} {}x{}", model.name, s.wafer_count, s.pp_multiplier);
            assert_eq!(s.report.oom, p.report.oom, "{point}");
            assert_eq!(s.report.plan, p.report.plan, "{point}");
        }
    }
}

/// A chain solve at pipeline degree 2 and a two-wafer stage-partitioned
/// solve cost the same `pp = 2` keys in different bound orders. Run
/// concurrently on one context, each may find keys the other leads: both
/// must finish (no solve waits on a foreign flight while holding an
/// uncommitted lease) and return their sequential plans.
#[test]
fn concurrent_chain_and_stage_solves_on_one_context_finish_with_their_sequential_plans() {
    let wafers = MultiWaferSystem::new(WaferConfig::hpca(), 2).expect("two wafers");
    for model in [ModelZoo::gpt3_6_7b(), ModelZoo::llama2_7b()] {
        let solver = || {
            let workload = Workload::for_model(&model);
            Dlws::new(WaferConfig::hpca(), model.clone(), workload)
        };
        let chain = |s: &Dlws| s.solve_with_engine_pp(MappingEngine::Tcme, 2, |_| true);
        let stage = |s: &Dlws| s.solve_stage_partitioned(MappingEngine::Tcme, &wafers, 1, |_| true);
        let want_chain = chain(&solver()).expect("chain solve");
        let want_stage = stage(&solver()).expect("stage solve");

        let shared = solver();
        let gate = std::sync::Barrier::new(2);
        let (got_chain, got_stage) = std::thread::scope(|s| {
            let c = s.spawn(|| {
                gate.wait();
                chain(&shared)
            });
            let st = s.spawn(|| {
                gate.wait();
                stage(&shared)
            });
            (
                c.join().expect("chain thread"),
                st.join().expect("stage thread"),
            )
        });
        assert_eq!(
            got_chain.expect("chain solve"),
            want_chain,
            "{}",
            model.name
        );
        assert_eq!(
            got_stage.expect("stage solve"),
            want_stage,
            "{}",
            model.name
        );
    }
}
