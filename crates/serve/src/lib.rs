//! # temp-serve — concurrent plan serving over the TEMP solver
//!
//! The ROADMAP's production-serving direction: a [`PlanServer`] holds
//! one cross-model [`ContextPool`] per wafer configuration and answers
//! **mapping queries** — model + wafer config + objective — over a
//! line-delimited text protocol (stdin or a TCP socket, see the
//! `temp-serve` binary). Every solve multiplexes onto the shared
//! [`temp_solver::runtime::global`] solver pool; a per-query
//! deadline, on any engine, travels with its own solve as a
//! [`temp_solver::runtime::CancelToken`], so a slow query degrades to a
//! best-effort plan instead of stalling the server (its costing stream
//! ends once the deadline fired and it holds a feasible candidate), and
//! the queries sharing its context never see the deadline.
//!
//! Concurrency is the point: simultaneous queries for the same model
//! share one [`temp_solver::search::SearchContext`], whose single-flight
//! evaluation coalescing makes N identical in-flight queries cost
//! barely more exact evaluations than one. The server's
//! [`PlanServer::stats_json`] exposes the duplicate-work ratio (total
//! exact evals ÷ distinct keys) that the `serve_load` driver gates on.
//!
//! Warm restarts: [`PlanServer::new`] pointed at a cache directory
//! imports every matching `cache-<fingerprint>.txt` on startup, and
//! [`PlanServer::save`] (the binary calls it on shutdown) persists every
//! pooled context back — atomically, temp-file + rename — so a
//! restarted server answers the whole fig13 zoo with **zero** exact
//! evaluations.
//!
//! ## Protocol
//!
//! One request per line, one single-line JSON reply per request:
//!
//! ```text
//! solve <model> [wafer=hpca|fig3|WxH] [engine=tcme|smap|gmap]
//!               [deadline_ms=<n>] [objective=step_time|throughput|power_eff]
//! stats      -> pool-wide counters (evals, unique keys, plan_hits, ...)
//! save       -> persist caches now
//! ping       -> liveness probe
//! shutdown   -> save (when a cache dir is set) and stop serving
//! ```
//!
//! Blank lines and `#` comments are ignored. Replies are `{"ok":true,...}`
//! or `{"ok":false,"error":"..."}`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use temp_graph::models::{ModelConfig, ModelZoo};
use temp_graph::workload::Workload;
use temp_mapping::engines::MappingEngine;
use temp_solver::pool::ContextPool;
use temp_solver::search::SearchStats;
use temp_wsc::config::WaferConfig;

/// Model slugs the protocol accepts, with their zoo constructors.
/// The first [`FIG13_ZOO`] entries are the fig13 seven-system zoo's
/// models (table 2); the tail adds the MoE zoo heads.
type ModelCtor = fn() -> ModelConfig;

const ZOO: &[(&str, ModelCtor)] = &[
    ("gpt3_6_7b", ModelZoo::gpt3_6_7b),
    ("llama2_7b", ModelZoo::llama2_7b),
    ("llama3_70b", ModelZoo::llama3_70b),
    ("gpt3_76b", ModelZoo::gpt3_76b),
    ("gpt3_175b", ModelZoo::gpt3_175b),
    ("opt_175b", ModelZoo::opt_175b),
    ("mixtral_8x7b", ModelZoo::mixtral_8x7b),
    ("deepseek_moe_16b", ModelZoo::deepseek_moe_16b),
];

/// How many leading [`zoo_slugs`] entries form the fig13 (table 2) zoo.
pub const FIG13_ZOO: usize = 6;

/// Every model slug the protocol accepts.
pub fn zoo_slugs() -> Vec<&'static str> {
    ZOO.iter().map(|(slug, _)| *slug).collect()
}

/// The fig13 zoo slugs (table 2's six dense models).
pub fn fig13_slugs() -> Vec<&'static str> {
    ZOO[..FIG13_ZOO].iter().map(|(slug, _)| *slug).collect()
}

/// The model behind a protocol slug.
pub fn model_by_slug(slug: &str) -> Option<ModelConfig> {
    ZOO.iter()
        .find(|(s, _)| *s == slug)
        .map(|(_, build)| build())
}

/// Which report metric a query ranks by in its reply's `score` field.
/// The solver always minimizes step time; the objective selects what the
/// caller reads off the solved plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Seconds per optimizer step (lower is better). The default.
    #[default]
    StepTime,
    /// Training throughput in tokens/s (higher is better).
    Throughput,
    /// Tokens/s per watt (higher is better).
    PowerEfficiency,
}

impl Objective {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "step_time" => Ok(Objective::StepTime),
            "throughput" => Ok(Objective::Throughput),
            "power_eff" | "power_efficiency" => Ok(Objective::PowerEfficiency),
            other => Err(format!("unknown objective {other:?}")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Objective::StepTime => "step_time",
            Objective::Throughput => "throughput",
            Objective::PowerEfficiency => "power_eff",
        }
    }
}

/// One parsed `solve` request.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Model slug (see [`zoo_slugs`]).
    pub model: String,
    /// Wafer configuration key (`hpca` or `fig3`).
    pub wafer: String,
    /// Mapping engine to plan with.
    pub engine: MappingEngine,
    /// Optional wall-clock budget, on any engine; an expired budget
    /// returns the best plan among the candidates costed in time, with
    /// `"timed_out":true`. A solve fails under a deadline only where it
    /// fails without one.
    pub deadline_ms: Option<u64>,
    /// Which metric the reply's `score` field carries.
    pub objective: Objective,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Plan a model (`solve ...`).
    Solve(Query),
    /// Pool-wide counters.
    Stats,
    /// Persist caches now.
    Save,
    /// Liveness probe.
    Ping,
    /// Save (if configured) and stop serving.
    Shutdown,
}

impl Request {
    /// Parses one protocol line. Blank lines and `#` comments parse to
    /// [`Request::Ping`]-free `Err` — callers should skip them first
    /// with [`is_noise`].
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut tokens = line.split_whitespace();
        let verb = tokens.next().ok_or("empty request")?;
        match verb {
            "stats" => Ok(Request::Stats),
            "save" => Ok(Request::Save),
            "ping" => Ok(Request::Ping),
            "quit" | "shutdown" => Ok(Request::Shutdown),
            "solve" => {
                let model = tokens
                    .next()
                    .ok_or("solve needs a model slug (e.g. `solve gpt3_6_7b`)")?
                    .to_string();
                let mut query = Query {
                    model,
                    wafer: "hpca".to_string(),
                    engine: MappingEngine::Tcme,
                    deadline_ms: None,
                    objective: Objective::StepTime,
                };
                for opt in tokens {
                    let (key, value) = opt
                        .split_once('=')
                        .ok_or_else(|| format!("malformed option {opt:?} (want key=value)"))?;
                    match key {
                        "wafer" => {
                            wafer_config(value)?;
                            query.wafer = value.to_string();
                        }
                        "engine" => {
                            query.engine = match value {
                                "tcme" => MappingEngine::Tcme,
                                "smap" => MappingEngine::SMap,
                                "gmap" => MappingEngine::GMap,
                                other => return Err(format!("unknown engine {other:?}")),
                            }
                        }
                        "deadline_ms" => {
                            let ms: u64 = value
                                .parse()
                                .map_err(|e| format!("bad deadline_ms {value:?}: {e}"))?;
                            query.deadline_ms = Some(ms);
                        }
                        "objective" => query.objective = Objective::parse(value)?,
                        other => return Err(format!("unknown option {other:?}")),
                    }
                }
                Ok(Request::Solve(query))
            }
            other => Err(format!(
                "unknown request {other:?} (want solve/stats/save/ping/shutdown)"
            )),
        }
    }
}

/// Whether a protocol line carries no request (blank or `#` comment).
pub fn is_noise(line: &str) -> bool {
    let trimmed = line.trim();
    trimmed.is_empty() || trimmed.starts_with('#')
}

/// Resolves a protocol wafer key: `hpca` (the 8x4 evaluation wafer),
/// `fig3` (the 6x8 reference array — note its 48 dies admit no
/// power-of-two parallel tuples, so solves on it report
/// `NoFeasiblePlan`), or a custom `WxH` array such as `4x4`.
pub fn wafer_config(key: &str) -> Result<WaferConfig, String> {
    match key {
        "hpca" => Ok(WaferConfig::hpca()),
        "fig3" => Ok(WaferConfig::fig3()),
        custom => {
            let (w, h) = custom
                .split_once('x')
                .ok_or_else(|| format!("unknown wafer {custom:?} (want hpca, fig3, or WxH)"))?;
            let w: u32 = w.parse().map_err(|_| format!("bad wafer width {w:?}"))?;
            let h: u32 = h.parse().map_err(|_| format!("bad wafer height {h:?}"))?;
            WaferConfig::with_array(w, h).map_err(|e| e.to_string())
        }
    }
}

/// Minimal JSON string escaping for error messages and labels.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// An `{"ok":false,...}` reply.
pub fn error_reply(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(message))
}

/// What [`PlanServer::handle_line`] wants done with its reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Write the reply and keep serving.
    Reply(String),
    /// Write the reply, then stop serving (caches already saved).
    Quit(String),
}

impl Response {
    /// The reply line either way.
    pub fn text(&self) -> &str {
        match self {
            Response::Reply(s) | Response::Quit(s) => s,
        }
    }
}

/// The serving core: per-wafer context pools, query counters, optional
/// warm-start directory. Shared behind an `Arc`, every method takes
/// `&self` — connection handlers and load-driver clients call
/// [`PlanServer::handle_line`] concurrently.
#[derive(Debug)]
pub struct PlanServer {
    pools: Mutex<HashMap<String, Arc<ContextPool>>>,
    cache_dir: Option<PathBuf>,
    queries: AtomicU64,
    errors: AtomicU64,
    timeouts: AtomicU64,
}

impl PlanServer {
    /// A server with an empty (cold) pool set. With `cache_dir` set, the
    /// default `hpca` pool is created immediately and warm-imports any
    /// matching cache files the directory already holds; the directory
    /// is created if missing so the shutdown save always has a home.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating or reading the cache
    /// directory.
    pub fn new(cache_dir: Option<&Path>) -> std::io::Result<Self> {
        let server = PlanServer {
            pools: Mutex::new(HashMap::new()),
            cache_dir: cache_dir.map(Path::to_path_buf),
            queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
        };
        if let Some(dir) = &server.cache_dir {
            std::fs::create_dir_all(dir)?;
            server.pool("hpca").map_err(std::io::Error::other)?;
        }
        Ok(server)
    }

    /// The pool for a wafer key, built (and warm-imported) on demand.
    fn pool(&self, wafer: &str) -> Result<Arc<ContextPool>, String> {
        let config = wafer_config(wafer)?;
        let mut pools = self.pools.lock().expect("pools lock");
        if let Some(pool) = pools.get(wafer) {
            return Ok(Arc::clone(pool));
        }
        let pool = Arc::new(ContextPool::new(config));
        if let Some(dir) = &self.cache_dir {
            // Fingerprints embed the wafer, so one shared directory
            // serves every pool; files for other wafers never match.
            pool.load_from(dir).map_err(|e| e.to_string())?;
        }
        pools.insert(wafer.to_string(), Arc::clone(&pool));
        Ok(pool)
    }

    /// Handles one protocol line. Safe to call from many threads; solves
    /// for the same `(model, workload)` share one context and coalesce
    /// duplicate in-flight evaluations.
    pub fn handle_line(&self, line: &str) -> Response {
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return Response::Reply(error_reply(&e));
            }
        };
        match request {
            Request::Solve(query) => Response::Reply(match self.solve(&query) {
                Ok(reply) => reply,
                Err(e) => {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    error_reply(&e)
                }
            }),
            Request::Stats => Response::Reply(self.stats_json()),
            Request::Ping => Response::Reply("{\"ok\":true,\"pong\":true}".to_string()),
            Request::Save => Response::Reply(match self.save() {
                Ok(saved) => format!("{{\"ok\":true,\"saved\":{saved}}}"),
                Err(e) => {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    error_reply(&e.to_string())
                }
            }),
            Request::Shutdown => {
                let saved = self.save().unwrap_or_default();
                Response::Quit(format!(
                    "{{\"ok\":true,\"shutdown\":true,\"saved\":{saved}}}"
                ))
            }
        }
    }

    /// Plans one query and renders its reply line.
    ///
    /// # Errors
    ///
    /// Unknown slugs/wafers and infeasible models come back as the error
    /// string for an `{"ok":false}` reply.
    pub fn solve(&self, query: &Query) -> Result<String, String> {
        let model = model_by_slug(&query.model)
            .ok_or_else(|| format!("unknown model {:?} (see `stats` for slugs)", query.model))?;
        let workload = Workload::for_model(&model);
        let pool = self.pool(&query.wafer)?;
        let solver = pool.solver(&model, &workload);
        let started = Instant::now();
        let (plan, timed_out) = solver
            .solve_within(query.engine, query.deadline_ms.map(Duration::from_millis))
            .map_err(|e| format!("{e:?}"))?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        if timed_out {
            self.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let score = match query.objective {
            Objective::StepTime => plan.report.step_time,
            Objective::Throughput => plan.report.throughput,
            Objective::PowerEfficiency => plan.report.power_efficiency,
        };
        Ok(format!(
            "{{\"ok\":true,\"model\":\"{}\",\"wafer\":\"{}\",\"engine\":\"{}\",\
             \"plan\":\"{}\",\"objective\":\"{}\",\"score\":{score},\
             \"step_time\":{},\"chain_cost\":{},\"throughput\":{},\
             \"timed_out\":{timed_out},\"wall_ms\":{wall_ms}}}",
            json_escape(&query.model),
            json_escape(&query.wafer),
            plan.engine,
            json_escape(&plan.config.label()),
            query.objective.name(),
            plan.report.step_time,
            plan.chain_cost,
            plan.report.throughput,
        ))
    }

    /// Pool-wide counters summed over every wafer pool:
    /// `(stats, unique evaluation keys)`.
    pub fn aggregate(&self) -> (SearchStats, usize) {
        let pools: Vec<Arc<ContextPool>> = {
            let map = self.pools.lock().expect("pools lock");
            map.values().map(Arc::clone).collect()
        };
        let mut total = SearchStats::default();
        let mut unique = 0usize;
        for pool in pools {
            let (stats, keys) = pool.aggregate_stats();
            total += stats;
            unique += keys;
        }
        (total, unique)
    }

    /// Total exact evaluations ÷ distinct keys costed — 1.0 means no
    /// duplicated work at all; single-flight keeps concurrent identical
    /// queries at ~1.0 (0.0 on an idle server).
    pub fn duplicate_work_ratio(&self) -> f64 {
        let (stats, unique) = self.aggregate();
        if unique == 0 {
            0.0
        } else {
            stats.misses as f64 / unique as f64
        }
    }

    /// The `stats` reply.
    pub fn stats_json(&self) -> String {
        let (stats, unique) = self.aggregate();
        format!(
            "{{\"ok\":true,\"queries\":{},\"errors\":{},\"timeouts\":{},\
             \"evals\":{},\"hits\":{},\"unique_keys\":{unique},\
             \"duplicate_work_ratio\":{},\"coalesced\":{},\"shard_waits\":{},\
             \"plan_hits\":{},\"models\":[{}]}}",
            self.queries.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.timeouts.load(Ordering::Relaxed),
            stats.misses,
            stats.hits,
            if unique == 0 {
                0.0
            } else {
                stats.misses as f64 / unique as f64
            },
            stats.coalesced,
            stats.shard_waits,
            stats.plan_hits,
            zoo_slugs()
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(","),
        )
    }

    /// Queries served so far (successful `solve`s).
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Persists every pool's contexts into the cache directory
    /// (atomically, per file). Without a configured directory this is a
    /// no-op reporting zero files.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from [`ContextPool::save_to`].
    pub fn save(&self) -> std::io::Result<usize> {
        let Some(dir) = &self.cache_dir else {
            return Ok(0);
        };
        let pools: Vec<Arc<ContextPool>> = {
            let map = self.pools.lock().expect("pools lock");
            map.values().map(Arc::clone).collect()
        };
        let mut saved = 0;
        for pool in pools {
            saved += pool.save_to(dir)?;
        }
        Ok(saved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_the_protocol() {
        assert_eq!(Request::parse("stats"), Ok(Request::Stats));
        assert_eq!(Request::parse("ping"), Ok(Request::Ping));
        assert_eq!(Request::parse("save"), Ok(Request::Save));
        assert_eq!(Request::parse("shutdown"), Ok(Request::Shutdown));
        assert_eq!(Request::parse("quit"), Ok(Request::Shutdown));
        let q = Request::parse(
            "solve gpt3_6_7b wafer=hpca engine=smap deadline_ms=250 objective=throughput",
        )
        .expect("full solve line parses");
        assert_eq!(
            q,
            Request::Solve(Query {
                model: "gpt3_6_7b".into(),
                wafer: "hpca".into(),
                engine: MappingEngine::SMap,
                deadline_ms: Some(250),
                objective: Objective::Throughput,
            })
        );
        assert!(Request::parse("solve").is_err());
        assert!(Request::parse("solve m engine=warp").is_err());
        assert!(Request::parse("solve m wafer=tiny").is_err());
        assert!(Request::parse("solve m deadline_ms=soon").is_err());
        assert!(Request::parse("fly me to the moon").is_err());
        assert!(is_noise("   "));
        assert!(is_noise("# comment"));
        assert!(!is_noise("solve gpt3_6_7b"));
    }

    #[test]
    fn unknown_model_is_an_error_reply_not_a_panic() {
        let server = PlanServer::new(None).expect("server");
        let reply = server.handle_line("solve not_a_model");
        assert!(reply.text().starts_with("{\"ok\":false"));
        assert!(reply.text().contains("unknown model"));
        assert!(matches!(reply, Response::Reply(_)));
    }

    #[test]
    fn solve_stats_and_shutdown_round_trip() {
        let server = PlanServer::new(None).expect("server");
        let reply = server.handle_line("solve gpt3_6_7b");
        let text = reply.text();
        assert!(text.starts_with("{\"ok\":true"), "got {text}");
        assert!(text.contains("\"model\":\"gpt3_6_7b\""));
        assert!(text.contains("\"timed_out\":false"));
        // A repeat of the same query is answered from the shared context:
        // no new exact evaluations.
        let (before, _) = server.aggregate();
        let again = server.handle_line("solve gpt3_6_7b");
        assert_eq!(
            again.text().split("\"wall_ms\"").next(),
            text.split("\"wall_ms\"").next(),
            "repeat queries must serve the identical plan"
        );
        let (after, _) = server.aggregate();
        assert_eq!(before.misses, after.misses, "repeat query re-evaluated");
        assert_eq!(
            after.plan_hits,
            before.plan_hits + 1,
            "repeat query re-solved"
        );
        let stats = server.handle_line("stats");
        assert!(stats.text().contains("\"queries\":2"));
        assert!(stats.text().contains("\"plan_hits\":1"), "{}", stats.text());
        assert!(matches!(server.handle_line("shutdown"), Response::Quit(_)));
    }

    #[test]
    fn server_aggregate_sums_every_stats_field_of_every_pool() {
        let server = PlanServer::new(None).expect("server");
        for line in ["solve gpt3_6_7b", "solve llama2_7b wafer=8x8"] {
            let reply = server.handle_line(line);
            assert!(reply.text().starts_with("{\"ok\":true"), "{}", reply.text());
        }
        let pools: Vec<Arc<ContextPool>> = server
            .pools
            .lock()
            .expect("pools lock")
            .values()
            .cloned()
            .collect();
        assert_eq!(pools.len(), 2);
        let mut expected = SearchStats::default();
        let mut expected_keys = 0;
        for pool in &pools {
            for ctx in pool.contexts() {
                expected += ctx.stats();
                expected_keys += ctx.eval_cache_len();
            }
        }
        let (total, keys) = server.aggregate();
        assert_eq!(total, expected);
        assert_eq!(keys, expected_keys);
        // Counters the server once dropped from its sum.
        assert!(total.bound_pruned > 0, "{total:?}");
        assert!(total.exact_ns > 0 && total.bound_ns > 0, "{total:?}");
    }

    #[test]
    fn zero_deadline_on_a_memoized_key_replies_with_the_full_plan() {
        let server = PlanServer::new(None).expect("server");
        let full = server.handle_line("solve gpt3_6_7b");
        let reply = server.handle_line("solve gpt3_6_7b deadline_ms=0");
        let text = reply.text();
        assert!(text.contains("\"timed_out\":false"), "got {text}");
        assert_eq!(
            text.split("\"wall_ms\"").next(),
            full.text().split("\"wall_ms\"").next(),
            "a warm key must serve the full plan under any deadline"
        );
        assert_eq!(server.aggregate().0.plan_hits, 1);
    }

    #[test]
    fn zero_deadline_plans_on_every_engine() {
        let server = PlanServer::new(None).expect("server");
        for engine in ["smap", "gmap"] {
            let reply =
                server.handle_line(&format!("solve gpt3_6_7b engine={engine} deadline_ms=0"));
            let text = reply.text();
            assert!(text.starts_with("{\"ok\":true"), "{engine}: {text}");
            assert!(text.contains("\"timed_out\":true"), "{engine}: {text}");
        }
        let stats = server.handle_line("stats");
        assert!(stats.text().contains("\"timeouts\":2"), "{}", stats.text());
        assert!(stats.text().contains("\"errors\":0"), "{}", stats.text());
    }

    #[test]
    fn failed_solves_count_as_errors_not_queries() {
        let server = PlanServer::new(None).expect("server");
        // 48 dies admit no power-of-two tuple: the solve finds no plan.
        let reply = server.handle_line("solve gpt3_6_7b wafer=fig3");
        assert!(
            reply.text().starts_with("{\"ok\":false"),
            "{}",
            reply.text()
        );
        let stats = server.handle_line("stats");
        assert!(
            stats.text().contains("\"queries\":0,\"errors\":1"),
            "{}",
            stats.text()
        );
        assert_eq!(server.queries(), 0);
    }

    #[test]
    fn oversized_wafer_is_an_error_reply() {
        let server = PlanServer::new(None).expect("server");
        let reply = server.handle_line("solve gpt3_6_7b wafer=70000x70000");
        let text = reply.text();
        assert!(text.starts_with("{\"ok\":false"), "got {text}");
        assert!(text.contains("die-id range"), "got {text}");
        assert!(matches!(server.handle_line("ping"), Response::Reply(_)));
    }

    #[test]
    fn escaping_keeps_replies_single_line() {
        let escaped = error_reply("a \"quoted\"\nbackslash \\ tab\t");
        assert!(!escaped.contains('\n'));
        assert_eq!(
            escaped,
            "{\"ok\":false,\"error\":\"a \\\"quoted\\\"\\nbackslash \\\\ tab\\t\"}"
        );
    }
}
