//! `serve-mix`: a warm restart followed by open-loop serving.
//!
//! `serve-prep` (a separate, untimed process) solves the 48 hot keys —
//! 8 zoo models x {`hpca`, `8x8`} x 3 engines — cold and saves the cache
//! directory. The measured process then runs `PlanServer::new(dir)` and
//! one warm-up pass over the hot keys (its set-up), and serves seeded
//! exponential arrivals in 2 s blocks that cycle through three fixed
//! offered rates. Key popularity is Zipf-skewed; ~20% of solves ask for
//! `objective=throughput`, ~25% of TCME solves carry a deadline that
//! never fires, and 1% of lines are `stats`.
//!
//! Two client threads claim the next due arrival from the precomputed
//! schedule (there is no dispatcher thread) and time each request from
//! its due time, so a stall also charges the wait it imposes on the
//! requests queued behind it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use temp_graph::workload::Workload;
use temp_serve::{model_by_slug, wafer_config, zoo_slugs, PlanServer};
use temp_solver::dlws::Dlws;
use temp_solver::pool::ContextPool;
use temp_solver::runtime;

use crate::json::{self, Obj};
use crate::replay::{self, ReplayInput};
use crate::trace::Tracer;
use crate::{engine_of, ready, Reply, ENGINES, GENEROUS_DEADLINE_MS};

/// Wafers of the hot keys.
const WAFERS: [&str; 2] = ["hpca", "8x8"];

/// Client threads (the benchmark machine's core count).
const CLIENTS: usize = 2;

/// Phase names, in order of the offered rates.
const PHASES: [&str; 3] = ["low", "mid", "high"];

/// Length of one constant-rate block of the schedule.
const BLOCK_SECONDS: f64 = 2.0;

/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.0;

/// Seed of the fixed key-popularity ranking.
const POPULARITY_SEED: u64 = 0x7e3d;

pub struct Config {
    pub seed: u64,
    pub cache: PathBuf,
    pub rates: Vec<f64>,
    /// Length of the whole timed schedule.
    pub seconds: f64,
    pub trace: Option<PathBuf>,
    pub setup_only: bool,
}

/// One hot key: `(model, wafer, engine)`.
type Key = (&'static str, &'static str, &'static str);

fn hot_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for model in zoo_slugs() {
        for wafer in WAFERS {
            for engine in ENGINES {
                keys.push((model, wafer, engine));
            }
        }
    }
    keys
}

fn key_name(key: &Key) -> String {
    format!("{}|{}|{}", key.0, key.1, key.2)
}

fn solve_line(key: &Key) -> String {
    format!("solve {} wafer={} engine={}", key.0, key.1, key.2)
}

/// Solves every hot key cold into `cache` and saves it.
pub fn prep(cache: &Path) -> Option<String> {
    let server = PlanServer::new(Some(cache)).expect("prep server");
    for key in hot_keys() {
        let reply = Reply::parse(server.handle_line(&solve_line(&key)).text());
        assert!(reply.ok, "prep solve {} failed", key_name(&key));
    }
    let saved = server.save().expect("save prep cache");
    let (stats, _) = server.aggregate();
    Some(
        Obj::new()
            .int("saved", saved as u64)
            .int("evals", stats.misses)
            .finish(),
    )
}

/// One scheduled arrival.
struct Arrival {
    due: Duration,
    /// Which offered rate (phase) and which of its blocks it belongs to.
    phase: usize,
    block: usize,
    line: String,
    /// The hot key for a solve line, `None` for `stats`.
    key: Option<usize>,
}

/// The Zipf popularity law over the hot keys: cumulative probabilities
/// by rank, and the key at each rank. The ranking is one fixed
/// permutation, the same for every seed, so runs on different seeds
/// serve the same key mix and only the arrival stream and per-line
/// options vary.
fn popularity(keys: &[Key]) -> (Vec<f64>, Vec<usize>) {
    let mut ranked: Vec<usize> = (0..keys.len()).collect();
    ranked.shuffle(&mut StdRng::seed_from_u64(POPULARITY_SEED));
    let weights: Vec<f64> = (0..keys.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cumulative = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    (cumulative, ranked)
}

/// The whole timed schedule: blocks of `BLOCK_SECONDS` that cycle
/// through the offered rates (low, mid, high, low, ...), each filled
/// with exponential arrivals at its rate. Interleaving the rates spreads
/// every rate over the whole run, so a burst of machine noise lands on
/// one block of each rate instead of on one rate's whole phase.
fn schedule(seed: u64, rates: &[f64], seconds: f64, keys: &[Key]) -> Vec<Arrival> {
    let (cumulative, ranked) = popularity(keys);
    let blocks = ((seconds / BLOCK_SECONDS).round() as usize).max(rates.len());
    let mut arrivals = Vec::new();
    for b in 0..blocks {
        let phase = b % rates.len();
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(b as u64 + 1),
        );
        let start = b as f64 * BLOCK_SECONDS;
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / rates[phase];
            if t >= BLOCK_SECONDS {
                break;
            }
            let due = Duration::from_secs_f64(start + t);
            let (line, key) = if rng.gen_bool(0.01) {
                ("stats".to_string(), None)
            } else {
                let pick: f64 = rng.gen_range(0.0..1.0);
                let rank = cumulative
                    .iter()
                    .position(|&c| pick < c)
                    .unwrap_or(keys.len() - 1);
                let key = &keys[ranked[rank]];
                let mut line = solve_line(key);
                if rng.gen_bool(0.2) {
                    line.push_str(" objective=throughput");
                }
                if key.2 == "tcme" && rng.gen_bool(0.25) {
                    line.push_str(&format!(" deadline_ms={GENEROUS_DEADLINE_MS}"));
                }
                (line, Some(ranked[rank]))
            };
            arrivals.push(Arrival {
                due,
                phase,
                block: b,
                line,
                key,
            });
        }
    }
    arrivals
}

/// What one request observed.
struct Record {
    index: usize,
    due: Instant,
    start: Instant,
    end: Instant,
    /// The client was idle when it claimed the arrival, so any lateness
    /// at `start` is the generator's own (timer) lag.
    idle: bool,
    reply: Reply,
}

/// Sleeps until `due`. No spinning: on a machine with as many cores as
/// clients, a spinning client steals the core a solve needs.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// One client: claims the next due arrival, waits for its due time,
/// sends it, and records what happened.
fn client(
    server: &PlanServer,
    arrivals: &[Arrival],
    next: &AtomicUsize,
    origin: Instant,
    tracer: &Tracer,
) -> Vec<Record> {
    let mut records = Vec::new();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(arrival) = arrivals.get(index) else {
            return records;
        };
        let due = origin + arrival.due;
        let idle = Instant::now() < due;
        wait_until(due);
        let start = Instant::now();
        let response = server.handle_line(&arrival.line);
        let end = Instant::now();
        let reply = Reply::parse(response.text());
        if tracer.enabled() {
            let qid = Some(index as u64);
            let request = tracer.record("serve.request", 0, qid, due, end, 1);
            let name = if arrival.key.is_some() {
                "serve.handle_line/solve"
            } else {
                "serve.handle_line/stats"
            };
            let handle = tracer.record(name, request, qid, start, end, 1);
            if arrival.key.is_some() && reply.ok {
                // The reply's own solve time, placed at the end of the
                // handle span: the rest of the span is parse, pool lookup
                // and formatting.
                let solve = Duration::from_secs_f64(reply.wall_ms / 1e3);
                let solve_start = end.checked_sub(solve).unwrap_or(start).max(start);
                tracer.record("search.solve", handle, qid, solve_start, end, 1);
            }
        }
        records.push(Record {
            index,
            due,
            start,
            end,
            idle,
            reply,
        });
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Counts and plan observations of one offered rate.
#[derive(Default)]
struct Phase {
    sent: u64,
    ok: u64,
    failed: u64,
    timed_out: u64,
    stats_lines: u64,
    lag_max_ms: f64,
    /// Latencies (ms) per block, in due order.
    blocks: BTreeMap<usize, Vec<f64>>,
    /// Per block: completion of its last arrival minus that arrival's
    /// due time.
    drain_ms: BTreeMap<usize, f64>,
    /// `(key, plan label, step-time bits)` -> replies.
    plans: BTreeMap<(usize, String, u64), u64>,
}

impl Phase {
    fn observe(&mut self, arrival: &Arrival, record: &Record) {
        self.sent += 1;
        let latency = ms(record.end - record.due);
        self.blocks.entry(arrival.block).or_default().push(latency);
        // Records arrive in due order, so the block's last write wins.
        self.drain_ms.insert(arrival.block, latency);
        if record.idle {
            self.lag_max_ms = self
                .lag_max_ms
                .max(ms(record.start.saturating_duration_since(record.due)));
        }
        let reply = &record.reply;
        if !reply.ok {
            self.failed += 1;
            return;
        }
        self.ok += 1;
        match arrival.key {
            None => self.stats_lines += 1,
            Some(_) if reply.timed_out => self.timed_out += 1,
            Some(key) => {
                *self
                    .plans
                    .entry((key, reply.plan.clone(), reply.step_time.to_bits()))
                    .or_insert(0) += 1;
            }
        }
    }

    fn render(&self, name: &str, rate: f64, keys: &[Key]) -> String {
        let blocks: Vec<String> = self.blocks.values().map(|l| json::num_array(l)).collect();
        let observed: Vec<String> = self
            .plans
            .iter()
            .map(|((key, label, bits), count)| {
                format!(
                    "[\"{}\",\"{}\",{},{count}]",
                    key_name(&keys[*key]),
                    json::escape(label),
                    json::num(f64::from_bits(*bits))
                )
            })
            .collect();
        Obj::new()
            .str("name", name)
            .num("rate", rate)
            .num("seconds", self.blocks.len() as f64 * BLOCK_SECONDS)
            .int("sent", self.sent)
            .int("ok", self.ok)
            .int("failed", self.failed)
            .int("timed_out", self.timed_out)
            .int("stats_lines", self.stats_lines)
            .num("lag_max_ms", self.lag_max_ms)
            .num(
                "drain_max_ms",
                self.drain_ms.values().fold(0.0, |a, b| a.max(*b)),
            )
            .raw("blocks_lat_ms", &json::array(&blocks))
            .raw("plans", &json::array(&observed))
            .finish()
    }
}

pub fn run(config: &Config) -> Option<String> {
    let tracer = Tracer::new(config.trace.is_some());
    let keys = hot_keys();
    let workers = runtime::global().workers();
    let server = PlanServer::new(Some(&config.cache)).expect("serve-mix server");
    // The warm-up pass: the first solve of each key imports its cache.
    for key in &keys {
        let reply = Reply::parse(server.handle_line(&solve_line(key)).text());
        assert!(reply.ok, "warm-up solve {} failed", key_name(key));
    }
    let (warm, _) = server.aggregate();
    let arrivals = schedule(config.seed, &config.rates, config.seconds, &keys);
    ready();
    if config.setup_only {
        return None;
    }

    let next = AtomicUsize::new(0);
    // A short lead so both clients are parked before the first arrival.
    let origin = Instant::now() + Duration::from_millis(5);
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client(&server, &arrivals, &next, origin, &tracer)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let (after, _) = server.aggregate();
    records.sort_by_key(|r| r.index);

    let mut phases: Vec<Phase> = config.rates.iter().map(|_| Phase::default()).collect();
    for record in &records {
        let arrival = &arrivals[record.index];
        phases[arrival.phase].observe(arrival, record);
    }
    let rendered: Vec<String> = phases
        .iter()
        .zip(PHASES.iter().zip(&config.rates))
        .map(|(phase, (name, rate))| phase.render(name, *rate, &keys))
        .collect();

    if let Some(path) = &config.trace {
        tracer.count("runtime.workers", workers as f64);
        let inputs = persist_replay(&tracer, &config.cache, &keys, arrivals.len() as u64);
        replay::run(&tracer, &inputs, replay::CANDIDATES);
        tracer.write(path).expect("write trace file");
    }
    Some(
        Obj::new()
            .str("workload", "serve-mix")
            .int("warmup_evals", warm.misses)
            .int("workers", workers as u64)
            .int("evals", after.misses - warm.misses)
            .int("hits", after.hits - warm.hits)
            .int("coalesced", after.coalesced - warm.coalesced)
            .int("shard_waits", after.shard_waits - warm.shard_waits)
            .raw("phases", &json::array(&rendered))
            .finish(),
    )
}

/// Times the persistence layer on the prepared cache directory — import
/// of every cache file into a fresh context, export, and a pool-level
/// load and save — and returns the warm contexts as replay inputs (one
/// per hot key, with its warm-solved winner).
fn persist_replay(
    tracer: &Tracer,
    cache: &Path,
    keys: &[Key],
    query_base: u64,
) -> Vec<ReplayInput> {
    let resave = cache.join("resave");
    let mut inputs = Vec::new();
    for wafer in WAFERS {
        let config = wafer_config(wafer).expect("known wafer");
        let loaded = ContextPool::new(config.clone());
        tracer
            .span("persist.load_from", 0, None, 1, |_| loaded.load_from(cache))
            .expect("load cache dir");
        let pool = ContextPool::new(config);
        for model_slug in zoo_slugs() {
            let model = model_by_slug(model_slug).expect("zoo model");
            let workload = Workload::for_model(&model);
            let ctx = pool.context(&model, &workload);
            let file = cache.join(format!("cache-{:016x}.txt", ctx.cost_model().fingerprint()));
            let text = std::fs::read_to_string(&file).expect("read prepared cache file");
            tracer.count("persist.cache_bytes", text.len() as f64);
            tracer.count("persist.files", 1.0);
            tracer
                .span("persist.import_cost_table", 0, None, 1, |_| {
                    ctx.import_cost_table(&text)
                })
                .expect("import prepared cache file");
            tracer.span("persist.export_cost_table", 0, None, 1, |_| {
                ctx.export_cost_table()
            });
            for (index, key) in keys.iter().enumerate() {
                if key.0 != model_slug || key.1 != wafer {
                    continue;
                }
                let engine = engine_of(key.2);
                let plan = Dlws::from_context(Arc::clone(&ctx))
                    .solve_with_engine(engine, |_| true)
                    .expect("warm solve of a hot key");
                inputs.push(ReplayInput {
                    query: query_base + index as u64,
                    ctx: Arc::clone(&ctx),
                    engine,
                    winner: plan.config,
                    partitioner: None,
                });
            }
        }
        tracer
            .span("persist.save_to", 0, None, 1, |_| pool.save_to(&resave))
            .expect("re-save cache");
    }
    inputs
}
