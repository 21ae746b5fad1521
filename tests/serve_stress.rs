//! Concurrency stress for plan serving: many threads pushing
//! overlapping solves — same models and different models — through one
//! shared [`ContextPool`] must produce plans bit-identical to a
//! sequential run, without duplicating exact-evaluation work (the
//! single-flight gate: total evals ≤ 1.2x the distinct keys costed).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use temp_repro::graph::models::{ModelConfig, ModelZoo};
use temp_repro::graph::workload::Workload;
use temp_repro::serve::PlanServer;
use temp_repro::solver::dlws::ExecutionPlan;
use temp_repro::solver::pool::ContextPool;
use temp_repro::wsc::config::WaferConfig;

/// The models under stress — the fig13 zoo.
fn stress_zoo() -> Vec<ModelConfig> {
    ModelZoo::table2()
}

fn solve_on(pool: &ContextPool, model: &ModelConfig) -> ExecutionPlan {
    let workload = Workload::for_model(model);
    pool.solver(model, &workload)
        .solve()
        .expect("zoo model must solve")
}

#[test]
fn overlapping_concurrent_solves_match_sequential_bit_for_bit() {
    let zoo = stress_zoo();

    // Sequential reference on its own pool.
    let reference_pool = ContextPool::new(WaferConfig::hpca());
    let reference: Vec<ExecutionPlan> = zoo.iter().map(|m| solve_on(&reference_pool, m)).collect();

    // 12 threads on one shared pool: every zoo model solved by two
    // threads at once, all released together.
    let shared = Arc::new(ContextPool::new(WaferConfig::hpca()));
    let lanes = zoo.len() * 2;
    let barrier = Arc::new(Barrier::new(lanes));
    let handles: Vec<_> = (0..lanes)
        .map(|lane| {
            let shared = Arc::clone(&shared);
            let barrier = Arc::clone(&barrier);
            let model = zoo[lane % zoo.len()].clone();
            std::thread::spawn(move || {
                barrier.wait();
                (lane % stress_zoo().len(), solve_on(&shared, &model))
            })
        })
        .collect();
    for handle in handles {
        let (index, plan) = handle.join().expect("stress lane");
        assert_eq!(
            plan, reference[index],
            "concurrent solve of zoo[{index}] diverged from the sequential plan"
        );
    }

    // Single-flight: the shared pool must not have re-costed keys that
    // another lane was already evaluating.
    let (stats, unique_keys) = shared.aggregate_stats();
    assert!(unique_keys > 0, "stress run must cost something");
    let duplicate_work = stats.misses as f64 / unique_keys as f64;
    assert!(
        duplicate_work <= 1.2,
        "duplicate-work ratio {duplicate_work:.3} > 1.2 \
         ({} evals over {unique_keys} unique keys)",
        stats.misses
    );
    // And the shared pool costed no more keys than the sequential run.
    let (ref_stats, ref_keys) = reference_pool.aggregate_stats();
    assert_eq!(
        unique_keys, ref_keys,
        "concurrent and sequential runs explored different key sets"
    );
    assert!(
        stats.misses <= ref_stats.misses + (ref_stats.misses / 5),
        "concurrent evals {} exceed 1.2x the sequential {}",
        stats.misses,
        ref_stats.misses
    );
}

#[test]
fn eight_identical_queries_coalesce_onto_one_evaluation_run() {
    let server = Arc::new(PlanServer::new(None).expect("cold server"));
    let clients = 8;
    let barrier = Arc::new(Barrier::new(clients));
    let replies: Vec<String> = (0..clients)
        .map(|_| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                server.handle_line("solve llama2_7b").text().to_string()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("client"))
        .collect();

    // All eight observe the identical plan (replies differ only in the
    // trailing wall-clock field).
    let stable = |r: &str| r.split(",\"wall_ms\"").next().unwrap_or("").to_string();
    let first = stable(&replies[0]);
    assert!(first.starts_with("{\"ok\":true"), "got {first}");
    for reply in &replies {
        assert_eq!(stable(reply), first);
    }

    // And the eight-way race costs what one solve costs.
    let lone = PlanServer::new(None).expect("cold server");
    lone.handle_line("solve llama2_7b");
    let (lone_stats, _) = lone.aggregate();
    let (stats, unique) = server.aggregate();
    assert_eq!(
        stats.misses, lone_stats.misses,
        "identical concurrent queries re-ran exact evaluations"
    );
    assert_eq!(unique, stats.misses as usize, "every eval keyed uniquely");
}

#[test]
fn mixed_wafer_queries_stay_isolated_per_pool() {
    let server = Arc::new(PlanServer::new(None).expect("cold server"));
    let handles: Vec<_> = ["hpca", "4x4", "hpca", "4x4"]
        .into_iter()
        .map(|wafer| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                server
                    .handle_line(&format!("solve gpt3_6_7b wafer={wafer}"))
                    .text()
                    .to_string()
            })
        })
        .collect();
    let replies: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("wafer lane"))
        .collect();
    for reply in &replies {
        assert!(reply.starts_with("{\"ok\":true"), "got {reply}");
    }
    // Different wafer fabrics may pick different plans; the same wafer
    // must answer identically.
    let stable = |r: &str| r.split(",\"wall_ms\"").next().unwrap_or("").to_string();
    assert_eq!(stable(&replies[0]), stable(&replies[2]));
    assert_eq!(stable(&replies[1]), stable(&replies[3]));
}

#[test]
fn a_deadline_query_never_fails_an_undeadlined_query_beside_it() {
    let label = |reply: &str| {
        let start = reply.find("\"plan\":\"").expect("plan field") + "\"plan\":\"".len();
        reply[start..].split('"').next().unwrap_or("").to_string()
    };
    let lone = PlanServer::new(None).expect("cold server");
    let want = label(lone.handle_line("solve gpt3_6_7b engine=smap").text());

    // A failed solve is not memoized, so every round re-costs until one
    // succeeds; the deadline clients keep querying while it runs. The
    // SMap deadline client races the undeadlined solve for the same keys.
    let server = PlanServer::new(None).expect("cold server");
    for round in 0..20 {
        let barrier = Barrier::new(3);
        let done = AtomicBool::new(false);
        let reply = std::thread::scope(|scope| {
            for line in [
                "solve gpt3_6_7b deadline_ms=0",
                "solve gpt3_6_7b engine=smap deadline_ms=0",
            ] {
                let (barrier, done, server) = (&barrier, &done, &server);
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..100 {
                        if done.load(Ordering::Relaxed) {
                            break;
                        }
                        let reply = server.handle_line(line);
                        let text = reply.text();
                        assert!(text.starts_with("{\"ok\":true"), "{line}: {text}");
                    }
                });
            }
            barrier.wait();
            let reply = server
                .handle_line("solve gpt3_6_7b engine=smap")
                .text()
                .to_string();
            done.store(true, Ordering::Relaxed);
            reply
        });
        assert!(reply.starts_with("{\"ok\":true"), "round {round}: {reply}");
        assert_eq!(label(&reply), want, "round {round}");
    }
}
