//! `eval-sweep`: the paper's evaluation in one process — 8 zoo models x
//! per-wafer arrays {8x4, 8x8}, in seeded order. Each pair runs
//! `Temp::compare_all` (the seven systems of Fig. 13), then
//! `evaluate_multiwafer_sweep` over 2/4/8 wafers x 1/2 stages per wafer
//! (Fig. 19). Only this workload reaches the baseline-filtered solves,
//! the unpruned exact batch and the stage/cut-balancing layer.

use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use temp_core::baselines::BaselineSystem;
use temp_core::framework::{MultiWaferSweepEntry, SystemReport, Temp};
use temp_graph::segment::SegmentKind;
use temp_graph::workload::Workload;
use temp_serve::{model_by_slug, zoo_slugs};
use temp_solver::dp::{balance_stage_cuts, balance_weighted_cuts};
use temp_solver::runtime;
use temp_wsc::config::WaferConfig;
use temp_wsc::multiwafer::MultiWaferSystem;

use crate::json::{self, Obj};
use crate::ready;
use crate::replay::{self, ReplayInput};
use crate::trace::Tracer;

/// Per-wafer die arrays.
const ARRAYS: [(u32, u32); 2] = [(8, 4), (8, 8)];
const WAFER_COUNTS: [usize; 3] = [2, 4, 8];
const PP_MULTIPLIERS: [usize; 2] = [1, 2];

/// Candidates replayed per compared system (seven per pair).
const REPLAY_CANDIDATES: usize = 3;

/// Cut-balancing calls timed per sweep entry.
const BALANCE_REPEATS: usize = 5;

/// Load level by model size: up to 16B, 47B-76B, 175B parameters.
fn level(model: &str) -> &'static str {
    match model {
        "gpt3_6_7b" | "llama2_7b" | "deepseek_moe_16b" => "low",
        "mixtral_8x7b" | "llama3_70b" | "gpt3_76b" => "mid",
        _ => "high",
    }
}

fn pairs(seed: u64) -> Vec<(&'static str, (u32, u32))> {
    let mut pairs: Vec<_> = zoo_slugs()
        .into_iter()
        .flat_map(|m| ARRAYS.iter().map(move |a| (m, *a)))
        .collect();
    pairs.shuffle(&mut StdRng::seed_from_u64(seed));
    pairs
}

fn array_name((w, h): (u32, u32)) -> String {
    format!("{w}x{h}")
}

/// `(entry name, plan or "oom")` for every system and sweep entry.
fn labels(systems: &[SystemReport], sweep: &[MultiWaferSweepEntry]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = systems
        .iter()
        .map(|r| {
            let plan = r
                .plan
                .as_ref()
                .map_or("oom".to_string(), |p| p.config.to_string());
            (r.system.clone(), plan)
        })
        .collect();
    for e in sweep {
        let plan = e
            .report
            .plan
            .as_ref()
            .map_or("oom".to_string(), |p| p.body.config.to_string());
        out.push((
            format!("TEMP@{}w/x{}", e.wafer_count, e.pp_multiplier),
            plan,
        ));
    }
    out
}

/// Evaluates one (model, array) pair: compare-all, then the sweep, each
/// inside its span.
fn evaluate(
    tracer: &Tracer,
    root: u64,
    qid: Option<u64>,
    model: &str,
    array: (u32, u32),
) -> (Temp, Vec<SystemReport>, Vec<MultiWaferSweepEntry>) {
    let wafer = WaferConfig::with_array(array.0, array.1).expect("nonzero array");
    let model = model_by_slug(model).expect("zoo model");
    let workload = Workload::for_model(&model);
    let temp = tracer.span("search.context_first", root, qid, 1, |_| {
        Temp::new(wafer, model, workload)
    });
    let systems = tracer.span("core.compare_all", root, qid, 7, |_| temp.compare_all());
    let sweep = tracer.span("core.sweep", root, qid, 6, |_| {
        temp.evaluate_multiwafer_sweep(&BaselineSystem::temp(), &WAFER_COUNTS, &PP_MULTIPLIERS)
    });
    (temp, systems, sweep)
}

pub fn run(seed: u64, trace: Option<PathBuf>, setup_only: bool) -> Option<String> {
    let tracer = Tracer::new(trace.is_some());
    let workers = runtime::global().workers();
    let pairs = pairs(seed);
    ready();
    if setup_only {
        return None;
    }
    let mut results = Vec::new();
    let mut inputs = Vec::new();
    let mut evals = 0u64;
    let started = Instant::now();
    for (i, &(model_slug, array)) in pairs.iter().enumerate() {
        let qid = Some(i as u64);
        tracer.span("core.pair", 0, qid, 1, |root| {
            let t0 = Instant::now();
            let (temp, systems, sweep) = evaluate(&tracer, root, qid, model_slug, array);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let stats = temp.search_stats();
            evals += stats.misses;
            if tracer.enabled() {
                tracer.count("search.evals", stats.misses as f64);
                tracer.count("search.hits", stats.hits as f64);
                tracer.count("search.coalesced", stats.coalesced as f64);
                tracer.count("search.shard_waits", stats.shard_waits as f64);
                tracer.count("search.bound_pruned", stats.bound_pruned as f64);
                tracer.count("search.dominated_pruned", stats.dominated_pruned as f64);
                let cm = temp.solver().cost_model();
                let (mh, mm) = cm.mapping_memo_stats();
                let (ch, cmiss) = cm.collective_memo_stats();
                tracer.count("cost.mapping_memo.hits", mh as f64);
                tracer.count("cost.mapping_memo.misses", mm as f64);
                tracer.count("cost.collective_memo.hits", ch as f64);
                tracer.count("cost.collective_memo.misses", cmiss as f64);
                stage_replay(&tracer, root, qid, &temp, &sweep);
                for (system, report) in BaselineSystem::all_systems().iter().zip(&systems) {
                    if let Some(plan) = &report.plan {
                        inputs.push(ReplayInput {
                            query: i as u64,
                            ctx: temp.solver().context().clone(),
                            engine: system.engine,
                            winner: plan.config,
                            partitioner: Some(system.partitioner),
                        });
                    }
                }
            }
            let entries: Vec<String> = labels(&systems, &sweep)
                .iter()
                .map(|(name, plan)| {
                    format!("[\"{}\",\"{}\"]", json::escape(name), json::escape(plan))
                })
                .collect();
            results.push(
                Obj::new()
                    .str("model", model_slug)
                    .str("array", &array_name(array))
                    .str("level", level(model_slug))
                    .num("ms", ms)
                    .raw("labels", &json::array(&entries))
                    .finish(),
            );
        });
    }
    let wall_s = started.elapsed().as_secs_f64();
    if let Some(path) = &trace {
        let warm = temp_sim::network::contention_warm_stats();
        tracer.count("sim.contention_warm.hits", warm.0 as f64);
        tracer.count("sim.contention_warm.misses", warm.1 as f64);
        tracer.count("runtime.workers", workers as f64);
        replay::run(&tracer, &inputs, REPLAY_CANDIDATES);
        tracer.write(path).expect("write trace file");
    }
    Some(
        Obj::new()
            .str("workload", "eval-sweep")
            .num("wall_s", wall_s)
            .int("evals", evals)
            .int("workers", workers as u64)
            .raw("pairs", &json::array(&results))
            .finish(),
    )
}

/// Times the stage layer on the warm context: each sweep point's
/// `Temp::evaluate_multiwafer` (the stage-partitioned solve, costing
/// served from the cache), and the cut balancer on that point's own
/// per-block unit times and end-segment extras.
fn stage_replay(
    tracer: &Tracer,
    root: u64,
    qid: Option<u64>,
    temp: &Temp,
    sweep: &[MultiWaferSweepEntry],
) {
    let system = BaselineSystem::temp();
    let chain = temp.solver().context().chain();
    let micro = temp.workload().micro_batches.max(1) as f64;
    let runs: Vec<(SegmentKind, u64)> = chain
        .segments()
        .iter()
        .filter(|s| matches!(s.kind, SegmentKind::Block | SegmentKind::MoeBlock))
        .map(|s| (s.kind, s.count))
        .collect();
    let count_of = |kind| -> u64 {
        runs.iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, c)| c)
            .sum()
    };
    let (dense, moe) = (
        count_of(SegmentKind::Block),
        count_of(SegmentKind::MoeBlock),
    );
    for entry in sweep {
        let wafers =
            MultiWaferSystem::new(temp.wafer().clone(), entry.wafer_count).expect("wafer count");
        tracer.span("stage.solve", root, qid, 1, |_| {
            temp.evaluate_multiwafer(&system, &wafers, entry.pp_multiplier)
        });
        let Some(plan) = &entry.report.plan else {
            continue;
        };
        let report = &plan.body.report;
        let stages = plan.stage_count() as f64;
        let reps = micro + stages - 1.0;
        let blocks = dense + moe;
        let unit = if moe == 0 {
            report.block_time() / (reps * (blocks as f64 / stages).max(1.0))
        } else if dense > 0 {
            report.block_time() * stages / (reps * dense as f64)
        } else {
            0.0
        };
        let unit_moe = if moe > 0 {
            report.moe_time * stages / (reps * moe as f64)
        } else {
            0.0
        };
        let (first, last) = (report.embedding_time / micro, report.head_time / micro);
        let m = entry.pp_multiplier as u64;
        let mins: Vec<u64> = if m == 1 {
            Vec::new()
        } else {
            (0..entry.wafer_count)
                .map(|w| {
                    if w == 0 || w == entry.wafer_count - 1 {
                        m - 1
                    } else {
                        m
                    }
                })
                .collect()
        };
        let weights: Vec<f64> = runs
            .iter()
            .flat_map(|&(kind, count)| {
                let w = if kind == SegmentKind::Block {
                    unit
                } else {
                    unit_moe
                };
                std::iter::repeat_n(w, count as usize)
            })
            .collect();
        for _ in 0..BALANCE_REPEATS {
            tracer.span("dp.balance_cuts", root, qid, 1, |_| {
                if moe == 0 {
                    balance_stage_cuts(blocks, entry.wafer_count, unit, first, last, &mins).ok()
                } else {
                    balance_weighted_cuts(&weights, entry.wafer_count, first, last, &mins).ok()
                }
            });
        }
    }
}

/// Every eval-sweep entry's plan: `{"model|array|entry": plan or "oom"}`.
pub fn reference_labels() -> String {
    let mut obj = Obj::new();
    for model in zoo_slugs() {
        for array in ARRAYS {
            let (_, systems, sweep) = evaluate(&Tracer::new(false), 0, None, model, array);
            for (name, plan) in labels(&systems, &sweep) {
                obj = obj.str(&format!("{model}|{}|{name}", array_name(array)), &plan);
            }
        }
    }
    obj.finish()
}
