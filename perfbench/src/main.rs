//! `perfbench` — the workload driver of the planner benchmark.
//!
//! `perfbench/run.py` builds this binary and runs every workload pass in a
//! fresh process, so thread-local contention caches, contention warm
//! starts and the process-wide `runtime::global()` pool start cold:
//!
//! ```text
//! perfbench cold-plan  --seed N [--trace FILE] [--setup-only]
//! perfbench serve-prep --cache DIR
//! perfbench serve-mix  --seed N --cache DIR --rates A,B,C --seconds S
//!                      [--trace FILE] [--setup-only]
//! perfbench eval-sweep --seed N [--trace FILE] [--setup-only]
//! perfbench reference
//! perfbench version
//! ```
//!
//! Each workload prints `ready` on a line of its own once its set-up is
//! done (the driver times process start to that line as `setup_s`), then
//! one JSON line of raw results. With `--trace FILE` the pass records
//! spans around its calls into each layer and writes them to `FILE`.

mod cold;
mod json;
mod replay;
mod serve;
mod sweep;
mod trace;

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;

use temp_mapping::engines::MappingEngine;
use temp_solver::dlws::{Dlws, ExecutionPlan};

/// Mapping engines as the protocol names them.
pub const ENGINES: [&str; 3] = ["tcme", "smap", "gmap"];

/// A deadline long enough never to fire: it keeps the cancel-token
/// costing path on the measured path without changing any plan.
pub const GENEROUS_DEADLINE_MS: u64 = 600_000;

pub fn engine_of(name: &str) -> MappingEngine {
    match name {
        "tcme" => MappingEngine::Tcme,
        "smap" => MappingEngine::SMap,
        "gmap" => MappingEngine::GMap,
        other => panic!("unknown engine {other}"),
    }
}

/// Tells the driver that set-up is over and measured work starts now.
pub fn ready() {
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready").expect("write ready line");
    out.flush().expect("flush ready line");
}

/// Plans one query exactly as `PlanServer::solve` does: deadline'd
/// queries through `solve_with_deadline`, TCME through `solve`, the other
/// engines through `solve_with_engine`.
pub fn solve_like_server(
    solver: &Dlws,
    engine: MappingEngine,
    deadline_ms: Option<u64>,
) -> Result<(ExecutionPlan, bool), String> {
    match deadline_ms {
        Some(ms) => solver
            .solve_with_deadline(std::time::Duration::from_millis(ms))
            .map_err(|e| format!("{e:?}")),
        None => match engine {
            MappingEngine::Tcme => solver.solve().map(|p| (p, false)),
            engine => solver
                .solve_with_engine(engine, |_| true)
                .map(|p| (p, false)),
        }
        .map_err(|e| format!("{e:?}")),
    }
}

/// The fields of a `solve` reply the benchmark checks.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    pub ok: bool,
    pub timed_out: bool,
    pub plan: String,
    pub step_time: f64,
    pub wall_ms: f64,
}

impl Reply {
    pub fn parse(text: &str) -> Reply {
        Reply {
            ok: text.starts_with("{\"ok\":true"),
            timed_out: raw_field(text, "timed_out") == Some("true"),
            plan: string_field(text, "plan").unwrap_or_default().to_string(),
            step_time: raw_field(text, "step_time")
                .and_then(|v| v.parse().ok())
                .unwrap_or(f64::NAN),
            wall_ms: raw_field(text, "wall_ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0),
        }
    }
}

/// Everything after `"field":` in a one-line reply.
fn after_field<'a>(text: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":");
    Some(&text[text.find(&needle)? + needle.len()..])
}

/// The value of a number or boolean field.
fn raw_field<'a>(text: &'a str, field: &str) -> Option<&'a str> {
    let rest = after_field(text, field)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The value of a string field (plan labels carry no quotes).
fn string_field<'a>(text: &'a str, field: &str) -> Option<&'a str> {
    let value = after_field(text, field)?.strip_prefix('"')?;
    value.split('"').next()
}

/// `--key value` options.
struct Args {
    options: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let key = raw[i].trim_start_matches("--").to_string();
            match raw.get(i + 1) {
                Some(value) if !value.starts_with("--") => {
                    options.insert(key, value.clone());
                    i += 2;
                }
                _ => {
                    flags.push(key);
                    i += 1;
                }
            }
        }
        Args { options, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    fn need(&self, key: &str) -> &str {
        self.get(key)
            .unwrap_or_else(|| fail(&format!("missing --{key}")))
    }

    fn seed(&self) -> u64 {
        self.need("seed")
            .parse()
            .unwrap_or_else(|_| fail("--seed must be an unsigned integer"))
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn trace(&self) -> Option<PathBuf> {
        self.get("trace").map(PathBuf::from)
    }
}

fn fail(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    std::process::exit(2);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        fail("usage: perfbench <cold-plan|serve-prep|serve-mix|eval-sweep|reference|version> [options]");
    };
    let args = Args::parse(rest);
    let setup_only = args.flag("setup-only");
    let line = match command.as_str() {
        "cold-plan" => cold::run(args.seed(), args.trace(), setup_only),
        "serve-prep" => serve::prep(&PathBuf::from(args.need("cache"))),
        "serve-mix" => {
            let rates: Vec<f64> = args
                .need("rates")
                .split(',')
                .map(|r| r.parse().unwrap_or_else(|_| fail("bad --rates")))
                .collect();
            let seconds: f64 = args
                .need("seconds")
                .parse()
                .unwrap_or_else(|_| fail("bad --seconds"));
            serve::run(&serve::Config {
                seed: args.seed(),
                cache: PathBuf::from(args.need("cache")),
                rates,
                seconds,
                trace: args.trace(),
                setup_only,
            })
        }
        "eval-sweep" => sweep::run(args.seed(), args.trace(), setup_only),
        "reference" => reference(),
        "version" => Some(temp_solver::cost::COST_MODEL_VERSION.to_string()),
        other => fail(&format!("unknown command {other}")),
    };
    if let Some(line) = line {
        println!("{line}");
    }
}

/// The correctness oracle's reference outputs for the current cost
/// model: every cold-plan key's plan label and step time (serve-mix keys
/// are a subset), and every eval-sweep entry's plan or `oom`.
fn reference() -> Option<String> {
    let plans = cold::reference_plans();
    let sweep = sweep::reference_labels();
    Some(
        json::Obj::new()
            .int(
                "cost_model_version",
                u64::from(temp_solver::cost::COST_MODEL_VERSION),
            )
            .raw("plans", &plans)
            .raw("eval_sweep", &sweep)
            .finish(),
    )
}
