//! `cold-plan`: a fresh process answers 120 distinct `solve` lines one at
//! a time (closed loop, one client) through `PlanServer::handle_line`.
//!
//! The lines cover the 8 zoo models x 5 wafers x 3 engines in seeded
//! order; about a quarter of the TCME lines carry a deadline that never
//! fires. Every line misses the cache, so costing, mapping and the
//! contention simulator do almost all the work.
//!
//! The traced pass sends the same queries through `ContextPool::solver`
//! and the `Dlws::solve*` calls `PlanServer::solve` makes, reading the
//! context's `SearchStats` and memo counters around each solve (the
//! server's own aggregate keeps only six counters), then replays each
//! query's inputs through the layers below (see [`crate::replay`]).

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use temp_graph::workload::Workload;
use temp_serve::{model_by_slug, wafer_config, zoo_slugs, PlanServer};
use temp_solver::dlws::Dlws;
use temp_solver::pool::ContextPool;
use temp_solver::runtime;
use temp_solver::search::SearchContext;

use crate::json::{self, Obj};
use crate::replay::{self, ReplayInput};
use crate::trace::Tracer;
use crate::{engine_of, ready, solve_like_server, Reply, ENGINES, GENEROUS_DEADLINE_MS};

/// Wafers of the cold workload: 32 to 128 dies. Below 32 dies the 175B
/// models have no feasible plan; 16x16 takes seconds per query.
pub const WAFERS: [&str; 5] = ["hpca", "4x8", "8x8", "16x4", "16x8"];

/// One `solve` line of the cold workload.
pub struct Query {
    pub model: &'static str,
    pub wafer: &'static str,
    pub engine: &'static str,
    pub deadline_ms: Option<u64>,
}

impl Query {
    pub fn line(&self) -> String {
        let mut line = format!(
            "solve {} wafer={} engine={}",
            self.model, self.wafer, self.engine
        );
        if let Some(ms) = self.deadline_ms {
            line.push_str(&format!(" deadline_ms={ms}"));
        }
        line
    }

    pub fn key(&self) -> String {
        format!("{}|{}|{}", self.model, self.wafer, self.engine)
    }

    /// Load level by working-set size: 32, 64 or 128 dies.
    pub fn level(&self) -> &'static str {
        match wafer_config(self.wafer).expect("known wafer").die_count() {
            0..=32 => "low",
            33..=64 => "mid",
            _ => "high",
        }
    }
}

/// The workload's 120 queries in seeded order.
pub fn queries(seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = Vec::new();
    for model in zoo_slugs() {
        for wafer in WAFERS {
            for engine in ENGINES {
                queries.push(Query {
                    model,
                    wafer,
                    engine,
                    deadline_ms: None,
                });
            }
        }
    }
    queries.shuffle(&mut rng);
    for query in &mut queries {
        if query.engine == "tcme" && rng.gen_bool(0.25) {
            query.deadline_ms = Some(GENEROUS_DEADLINE_MS);
        }
    }
    queries
}

fn request_json(query: &Query, ms: f64, reply: &Reply) -> String {
    Obj::new()
        .str("key", &query.key())
        .str("level", query.level())
        .num("ms", ms)
        .bool("ok", reply.ok)
        .bool("timed_out", reply.timed_out)
        .str("plan", &reply.plan)
        .num("step_time", reply.step_time)
        .finish()
}

pub fn run(seed: u64, trace: Option<PathBuf>, setup_only: bool) -> Option<String> {
    if let Some(path) = trace {
        return Some(run_traced(seed, &path));
    }
    let server = PlanServer::new(None).expect("cold server");
    let workers = runtime::global().workers();
    let queries = queries(seed);
    let lines: Vec<String> = queries.iter().map(Query::line).collect();
    ready();
    if setup_only {
        return None;
    }
    let started = Instant::now();
    let mut requests = Vec::with_capacity(lines.len());
    for (query, line) in queries.iter().zip(&lines) {
        let t0 = Instant::now();
        let response = server.handle_line(line);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        requests.push(request_json(query, ms, &Reply::parse(response.text())));
    }
    let wall_s = started.elapsed().as_secs_f64();
    let (stats, _) = server.aggregate();
    Some(
        Obj::new()
            .str("workload", "cold-plan")
            .num("wall_s", wall_s)
            .int("evals", stats.misses)
            .int("workers", workers as u64)
            .raw("requests", &json::array(&requests))
            .finish(),
    )
}

/// The counters read around one solve.
#[derive(Clone, Copy)]
struct Snapshot {
    evals: u64,
    hits: u64,
    coalesced: u64,
    shard_waits: u64,
    bound_pruned: u64,
    dominated_pruned: u64,
    map_memo: (u64, u64),
    coll_memo: (u64, u64),
    warm: (u64, u64),
}

impl Snapshot {
    fn take(ctx: &SearchContext) -> Snapshot {
        let s = ctx.stats();
        Snapshot {
            evals: s.misses,
            hits: s.hits,
            coalesced: s.coalesced,
            shard_waits: s.shard_waits,
            bound_pruned: s.bound_pruned,
            dominated_pruned: s.dominated_pruned,
            map_memo: ctx.cost_model().mapping_memo_stats(),
            coll_memo: ctx.cost_model().collective_memo_stats(),
            warm: temp_sim::network::contention_warm_stats(),
        }
    }

    /// Adds the counters that moved between `self` and `later`.
    fn count_delta(&self, later: &Snapshot, tracer: &Tracer) {
        let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
        tracer.count("search.evals", d(self.evals, later.evals));
        tracer.count("search.hits", d(self.hits, later.hits));
        tracer.count("search.coalesced", d(self.coalesced, later.coalesced));
        tracer.count("search.shard_waits", d(self.shard_waits, later.shard_waits));
        tracer.count(
            "search.bound_pruned",
            d(self.bound_pruned, later.bound_pruned),
        );
        tracer.count(
            "search.dominated_pruned",
            d(self.dominated_pruned, later.dominated_pruned),
        );
        tracer.count(
            "cost.mapping_memo.hits",
            d(self.map_memo.0, later.map_memo.0),
        );
        tracer.count(
            "cost.mapping_memo.misses",
            d(self.map_memo.1, later.map_memo.1),
        );
        tracer.count(
            "cost.collective_memo.hits",
            d(self.coll_memo.0, later.coll_memo.0),
        );
        tracer.count(
            "cost.collective_memo.misses",
            d(self.coll_memo.1, later.coll_memo.1),
        );
        tracer.count("sim.contention_warm.hits", d(self.warm.0, later.warm.0));
        tracer.count("sim.contention_warm.misses", d(self.warm.1, later.warm.1));
    }
}

fn run_traced(seed: u64, path: &std::path::Path) -> String {
    let tracer = Tracer::new(true);
    let workers = runtime::global().workers();
    tracer.count("runtime.workers", workers as f64);
    let queries = queries(seed);
    ready();
    let mut pools: BTreeMap<&str, Arc<ContextPool>> = BTreeMap::new();
    let mut built: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut inputs = Vec::new();
    let mut requests = Vec::new();
    let mut evals = 0u64;
    let started = Instant::now();
    for (i, query) in queries.iter().enumerate() {
        let qid = Some(i as u64);
        tracer.span("search.query", 0, qid, 1, |root| {
            let pool = pools
                .entry(query.wafer)
                .or_insert_with(|| {
                    tracer.span("search.pool_new", root, qid, 1, |_| {
                        Arc::new(ContextPool::new(
                            wafer_config(query.wafer).expect("known wafer"),
                        ))
                    })
                })
                .clone();
            let model = model_by_slug(query.model).expect("zoo model");
            let workload = Workload::for_model(&model);
            let name = if built.insert((query.wafer, query.model)) {
                "search.context_first"
            } else {
                "search.context"
            };
            let ctx = tracer.span(name, root, qid, 1, |_| pool.context(&model, &workload));
            let solver = Dlws::from_context(Arc::clone(&ctx));
            let engine = engine_of(query.engine);
            let before = Snapshot::take(&ctx);
            let t0 = Instant::now();
            let outcome = tracer.span("search.solve", root, qid, 1, |_| {
                solve_like_server(&solver, engine, query.deadline_ms)
            });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let after = Snapshot::take(&ctx);
            before.count_delta(&after, &tracer);
            evals += after.evals - before.evals;
            let reply = match &outcome {
                Ok((plan, timed_out)) => Reply {
                    ok: true,
                    timed_out: *timed_out,
                    plan: plan.config.label(),
                    step_time: plan.report.step_time,
                    wall_ms: ms,
                },
                Err(_) => Reply::default(),
            };
            requests.push(request_json(query, ms, &reply));
            if let Ok((plan, _)) = outcome {
                inputs.push(ReplayInput {
                    query: i as u64,
                    ctx,
                    engine,
                    winner: plan.config,
                    partitioner: None,
                });
            }
        });
    }
    let wall_s = started.elapsed().as_secs_f64();
    replay::run(&tracer, &inputs, replay::CANDIDATES);
    tracer.write(path).expect("write trace file");
    Obj::new()
        .str("workload", "cold-plan")
        .num("wall_s", wall_s)
        .int("evals", evals)
        .int("workers", workers as u64)
        .raw("requests", &json::array(&requests))
        .finish()
}

/// Every cold key's unbounded plan: `{"model|wafer|engine": [label,
/// step_time]}`.
pub fn reference_plans() -> String {
    let server = PlanServer::new(None).expect("reference server");
    let mut obj = Obj::new();
    for model in zoo_slugs() {
        for wafer in WAFERS {
            for engine in ENGINES {
                let query = Query {
                    model,
                    wafer,
                    engine,
                    deadline_ms: None,
                };
                let reply = Reply::parse(server.handle_line(&query.line()).text());
                assert!(reply.ok, "reference solve {} failed", query.key());
                let pair = format!(
                    "[\"{}\",{}]",
                    json::escape(&reply.plan),
                    json::num(reply.step_time)
                );
                obj = obj.raw(&query.key(), &pair);
            }
        }
    }
    obj.finish()
}
