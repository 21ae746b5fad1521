//! `serve_load` — the plan-serving load driver.
//!
//! Three phases against in-process [`PlanServer`]s:
//!
//! 1. **Single-flight**: eight clients behind a barrier fire the
//!    identical query at one cold server; the exact-evaluation count is
//!    compared to a lone cold solve. Coalescing keeps the ratio at ~1.0
//!    (the gate allows 1.2x).
//! 2. **Open-loop load**: a seeded dispatcher draws exponential
//!    inter-arrivals and feeds a mixed fig13-zoo query stream to a
//!    client pool through a queue, so arrivals never wait on service
//!    (open loop). Reports qps, p50/p99 arrival-to-completion latency,
//!    and the pool-wide duplicate-work ratio (exact evals ÷ unique
//!    keys).
//! 3. **Warm restart**: one server solves the zoo into a cache
//!    directory and shuts down; a second server starts from that
//!    directory and must answer the whole zoo with **zero** exact
//!    evaluations and byte-identical plans. The cache restores each
//!    solved plan, so the first pass and a repeat of every query are
//!    all served from the plan memo (`plan_hits` = 2 x zoo).
//!
//! With `--json <path>` the consolidated record is written for
//! baselining; with `--check <path>` the run is gated against that
//! baseline (duplicate-work ratios, warm evals, plan-memo hits,
//! warm-restart qps) and
//! exits non-zero on regression. `--smoke` shrinks the load phase for
//! CI.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temp_serve::{fig13_slugs, PlanServer};

/// Pulls an integer field out of a one-record bench JSON line (the
/// vendored serde stand-in cannot deserialize).
fn json_u64_field(record: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\"");
    let after_key = record.find(&needle)? + needle.len();
    let rest = record[after_key..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Pulls a float field out of a one-record bench JSON line.
fn json_f64_field(record: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\"");
    let after_key = record.find(&needle)? + needle.len();
    let rest = record[after_key..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let digits: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    digits.parse().ok()
}

/// The reply prefix that is stable across runs (everything before the
/// wall-clock field).
fn stable_reply(reply: &str) -> &str {
    reply.split(",\"wall_ms\"").next().unwrap_or(reply)
}

/// Latency percentile over a sorted sample, nearest-rank.
fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Phase 1: N identical queries racing one cold server vs. one query on
/// another. Returns (concurrent evals, lone evals, coalesced count).
fn single_flight_phase(clients: usize) -> (u64, u64, u64) {
    let server = Arc::new(PlanServer::new(None).expect("cold server"));
    let barrier = Arc::new(Barrier::new(clients));
    let replies: Vec<String> = {
        let mut handles = Vec::new();
        for _ in 0..clients {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            handles.push(thread::spawn(move || {
                barrier.wait();
                server.handle_line("solve gpt3_6_7b").text().to_string()
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    };
    let first = stable_reply(&replies[0]).to_string();
    for reply in &replies {
        assert_eq!(
            stable_reply(reply),
            first,
            "coalesced clients must observe the identical plan"
        );
    }
    let (stats, _) = server.aggregate();

    let lone = PlanServer::new(None).expect("cold server");
    lone.handle_line("solve gpt3_6_7b");
    let (lone_stats, _) = lone.aggregate();
    (stats.misses, lone_stats.misses, stats.coalesced)
}

/// An arrival queue: dispatcher pushes timestamped query lines, clients
/// pop them; `closed` drains the pool at end of stream.
struct ArrivalQueue {
    jobs: Mutex<(VecDeque<(Instant, String)>, bool)>,
    ready: Condvar,
}

impl ArrivalQueue {
    fn new() -> Self {
        ArrivalQueue {
            jobs: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: (Instant, String)) {
        self.jobs.lock().expect("queue lock").0.push_back(job);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.jobs.lock().expect("queue lock").1 = true;
        self.ready.notify_all();
    }

    fn pop(&self) -> Option<(Instant, String)> {
        let mut guard = self.jobs.lock().expect("queue lock");
        loop {
            if let Some(job) = guard.0.pop_front() {
                return Some(job);
            }
            if guard.1 {
                return None;
            }
            guard = self.ready.wait(guard).expect("queue wait");
        }
    }
}

struct LoadResult {
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    duplicate_work_ratio: f64,
    coalesced: u64,
    shard_waits: u64,
}

/// Phase 2: seeded open-loop arrivals of mixed zoo queries.
fn open_loop_phase(queries: usize, clients: usize, rate_qps: f64, seed: u64) -> LoadResult {
    let server = Arc::new(PlanServer::new(None).expect("cold server"));
    let queue = Arc::new(ArrivalQueue::new());
    let latencies = Arc::new(Mutex::new(Vec::with_capacity(queries)));

    let mut workers = Vec::new();
    for _ in 0..clients {
        let server = Arc::clone(&server);
        let queue = Arc::clone(&queue);
        let latencies = Arc::clone(&latencies);
        workers.push(thread::spawn(move || {
            while let Some((arrived, line)) = queue.pop() {
                let reply = server.handle_line(&line);
                assert!(
                    reply.text().starts_with("{\"ok\":true"),
                    "load query failed: {}",
                    reply.text()
                );
                let waited_ms = arrived.elapsed().as_secs_f64() * 1e3;
                latencies.lock().expect("latency lock").push(waited_ms);
            }
        }));
    }

    // Open loop: arrivals are drawn up front from the seeded stream and
    // dispatched on schedule regardless of how service is keeping up.
    let mut rng = StdRng::seed_from_u64(seed);
    let zoo = fig13_slugs();
    let started = Instant::now();
    for index in 0..queries {
        let slug = zoo[rng.gen_range(0..zoo.len())];
        let line = if index % 5 == 4 {
            format!("solve {slug} objective=throughput")
        } else {
            format!("solve {slug}")
        };
        // Exponential inter-arrival gap (inverse-CDF of a uniform draw),
        // so bursts and lulls both occur at the offered rate.
        let gap = -rng.gen_range(1e-9..1.0f64).ln() / rate_qps;
        thread::sleep(std::time::Duration::from_secs_f64(gap));
        queue.push((Instant::now(), line));
    }
    queue.close();
    for worker in workers {
        worker.join().expect("load client");
    }
    let wall_s = started.elapsed().as_secs_f64();

    let mut sorted = latencies.lock().expect("latency lock").clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    assert_eq!(sorted.len(), queries, "every arrival must complete");
    let (stats, _) = server.aggregate();
    LoadResult {
        qps: queries as f64 / wall_s,
        p50_ms: percentile_ms(&sorted, 50.0),
        p99_ms: percentile_ms(&sorted, 99.0),
        duplicate_work_ratio: server.duplicate_work_ratio(),
        coalesced: stats.coalesced,
        shard_waits: stats.shard_waits,
    }
}

struct WarmResult {
    warm_evals: u64,
    warm_qps: f64,
    plans_match: bool,
    plan_hits: u64,
    /// Queries per warm pass (the fig13 zoo's size).
    zoo: u64,
}

/// Phase 3: solve the zoo into a cache dir, restart, and replay it warm
/// twice. Both replays must be served from the plan memo: the first from
/// the plans the cache restored, the second from the same entries.
fn warm_restart_phase(dir: &Path) -> WarmResult {
    let _ = std::fs::remove_dir_all(dir);
    let zoo = fig13_slugs();

    let cold = PlanServer::new(Some(dir)).expect("cold server with cache dir");
    let mut cold_plans = Vec::new();
    for slug in &zoo {
        let reply = cold.handle_line(&format!("solve {slug}"));
        assert!(reply.text().starts_with("{\"ok\":true"), "{}", reply.text());
        cold_plans.push(stable_reply(reply.text()).to_string());
    }
    cold.handle_line("shutdown");
    // The atomic save must leave no torn temp files behind.
    for entry in std::fs::read_dir(dir).expect("cache dir listing") {
        let name = entry.expect("cache dir entry").file_name();
        assert!(
            !name.to_string_lossy().contains(".tmp-"),
            "save_to left a temp file behind: {name:?}"
        );
    }

    let warm = PlanServer::new(Some(dir)).expect("warm server with cache dir");
    let restarted = Instant::now();
    let mut plans_match = true;
    for (slug, cold_plan) in zoo.iter().zip(&cold_plans) {
        let reply = warm.handle_line(&format!("solve {slug}"));
        plans_match &= stable_reply(reply.text()) == cold_plan;
    }
    let warm_wall_s = restarted.elapsed().as_secs_f64();
    for (slug, cold_plan) in zoo.iter().zip(&cold_plans) {
        let reply = warm.handle_line(&format!("solve {slug}"));
        plans_match &= stable_reply(reply.text()) == cold_plan;
    }
    let (warm_stats, _) = warm.aggregate();
    let _ = std::fs::remove_dir_all(dir);
    WarmResult {
        warm_evals: warm_stats.misses,
        warm_qps: zoo.len() as f64 / warm_wall_s,
        plans_match,
        plan_hits: warm_stats.plan_hits,
        zoo: zoo.len() as u64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seed: u64 = flag_value("--seed")
        .map(|v| v.parse().expect("--seed takes an integer"))
        .unwrap_or(42);
    let queries: usize = flag_value("--queries")
        .map(|v| v.parse().expect("--queries takes an integer"))
        .unwrap_or(if smoke { 48 } else { 200 });
    let clients: usize = flag_value("--clients")
        .map(|v| v.parse().expect("--clients takes an integer"))
        .unwrap_or(if smoke { 4 } else { 8 });
    let rate_qps: f64 = flag_value("--rate")
        .map(|v| v.parse().expect("--rate takes a float"))
        .unwrap_or(if smoke { 200.0 } else { 400.0 });
    let cache_dir = flag_value("--cache-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("temp-serve-load-{}", std::process::id()))
        });
    let json_path = flag_value("--json").map(PathBuf::from);
    // Read the baseline before --json can overwrite it.
    let baseline = flag_value("--check").and_then(|p| std::fs::read_to_string(p).ok());

    let threads_effective = temp_solver::runtime::global().workers();
    println!("serve_load: {threads_effective} runtime worker(s), seed {seed}");

    println!("phase 1: single-flight — 8 identical queries vs. one");
    let (flight_evals, lone_evals, flight_coalesced) = single_flight_phase(8);
    let singleflight_ratio = flight_evals as f64 / lone_evals.max(1) as f64;
    println!(
        "  evals: {flight_evals} concurrent vs {lone_evals} lone \
         (ratio {singleflight_ratio:.3}, {flight_coalesced} coalesced)"
    );

    println!("phase 2: open loop — {queries} queries, {clients} clients, {rate_qps} qps offered");
    let load = open_loop_phase(queries, clients, rate_qps, seed);
    println!(
        "  {:.1} qps served, p50 {:.3} ms, p99 {:.3} ms, duplicate work {:.3}x, \
         {} coalesced, {} shard waits",
        load.qps,
        load.p50_ms,
        load.p99_ms,
        load.duplicate_work_ratio,
        load.coalesced,
        load.shard_waits
    );

    println!("phase 3: warm restart through {}", cache_dir.display());
    let warm = warm_restart_phase(&cache_dir);
    println!(
        "  {} warm evals, {:.1} warm qps, {} plan-memo hits, plans match: {}",
        warm.warm_evals, warm.warm_qps, warm.plan_hits, warm.plans_match
    );

    let record = format!(
        "{{\"bench\":\"serve_load\",\"smoke\":{smoke},\"threads_effective\":{threads_effective},\
         \"seed\":{seed},\"queries\":{queries},\"clients\":{clients},\"rate_qps\":{rate_qps},\
         \"qps\":{:.4},\"p50_ms\":{:.4},\"p99_ms\":{:.4},\
         \"duplicate_work_ratio\":{:.4},\"coalesced\":{},\"shard_waits\":{},\
         \"singleflight_ratio\":{singleflight_ratio:.4},\"singleflight_evals\":{flight_evals},\
         \"lone_evals\":{lone_evals},\"singleflight_coalesced\":{flight_coalesced},\
         \"warm_evals\":{},\"warm_qps\":{:.4},\"warm_restart_plans_match\":{},\
         \"plan_hits\":{}}}",
        load.qps,
        load.p50_ms,
        load.p99_ms,
        load.duplicate_work_ratio,
        load.coalesced,
        load.shard_waits,
        warm.warm_evals,
        warm.warm_qps,
        warm.plans_match,
        warm.plan_hits,
    );
    println!("{record}");
    if let Some(path) = &json_path {
        std::fs::write(path, format!("{record}\n")).expect("write --json record");
        println!("wrote {}", path.display());
    }

    let mut failed = false;
    // Hard invariants first: these hold on any machine at any speed.
    if singleflight_ratio > 1.2 {
        eprintln!(
            "FAIL: single-flight ratio {singleflight_ratio:.3} > 1.2 — concurrent identical \
             queries are duplicating exact evaluations"
        );
        failed = true;
    }
    if load.duplicate_work_ratio > 1.2 {
        eprintln!(
            "FAIL: duplicate-work ratio {:.3} > 1.2 under open-loop load",
            load.duplicate_work_ratio
        );
        failed = true;
    }
    if warm.warm_evals != 0 {
        eprintln!(
            "FAIL: warm-restarted server ran {} exact evals on the fig13 zoo (want 0)",
            warm.warm_evals
        );
        failed = true;
    }
    if !warm.plans_match {
        eprintln!("FAIL: warm-restarted plans differ from the cold server's");
        failed = true;
    }
    if warm.plan_hits != 2 * warm.zoo {
        eprintln!(
            "FAIL: the warm server served {} of its {} zoo queries from the plan memo; \
             restored plans must answer every one",
            warm.plan_hits,
            2 * warm.zoo
        );
        failed = true;
    }
    if let Some(baseline) = &baseline {
        // Speed gates are generous (5x) — they catch serving falling off
        // a cliff, not scheduler noise.
        if let Some(base_warm_qps) = json_f64_field(baseline, "warm_qps") {
            if warm.warm_qps < base_warm_qps / 5.0 {
                eprintln!(
                    "FAIL: warm-restart qps {:.1} fell below a fifth of the committed {:.1}",
                    warm.warm_qps, base_warm_qps
                );
                failed = true;
            }
        }
        if let Some(base_p99) = json_f64_field(baseline, "p99_ms") {
            let limit = base_p99 * 5.0 + 25.0;
            if load.p99_ms > limit {
                eprintln!(
                    "FAIL: p99 latency {:.3} ms exceeds {limit:.3} ms \
                     (5x committed {base_p99:.3} ms + 25 ms slack)",
                    load.p99_ms
                );
                failed = true;
            }
        }
        if let Some(base_plan_hits) = json_u64_field(baseline, "plan_hits") {
            if warm.plan_hits < base_plan_hits {
                eprintln!(
                    "FAIL: warm plan-memo hits {} fell below the committed {base_plan_hits}",
                    warm.plan_hits
                );
                failed = true;
            }
        }
        if let Some(base_warm_evals) = json_u64_field(baseline, "warm_evals") {
            if warm.warm_evals > base_warm_evals {
                eprintln!(
                    "FAIL: warm evals {} regressed over the committed {base_warm_evals}",
                    warm.warm_evals
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("serve_load passed: coalescing, open-loop load, and warm restart all within gates");
}
