//! §VIII-H: DLS search time vs the exact (ILP-style) baseline, plus the
//! search-pipeline regression benchmark: serial vs pooled
//! candidate costing, the bound-pruned evaluation counts of a cold
//! single-model solve, the multi-wafer sweep, the MoE chain and 16x16 and
//! 32x32 wafers, the candidate-cache hit rate of the seven-system sweep,
//! the persisted-cache warm start over the fig13 zoo, and the mapping
//! drafts and segment rows a pipeline-degree sweep builds.
//!
//! Machine-readable results are emitted as single-line JSON records
//! (prefix `{"bench":"search_time",...}`) for the bench trajectory.
//! With `--json <path>` the binary additionally writes one consolidated
//! `BENCH_search.json` record so the perf trajectory is machine-tracked
//! across PRs. With `--check <path>` the fresh exact eval counts are
//! diffed against a committed baseline record (>20% regression fails),
//! the warm start from the saved cost tables alone must replay with ≤10%
//! of the cold evaluations, serial and pooled cold zoo solves must commit
//! identical evaluations and plans, and on
//! a ≥4-core runner the pool must beat serial costing by >1.5x — the CI
//! bench-regression gates. With `--warm-smoke --cache-dir <dir>` the
//! binary instead runs one leg of the cross-process warm-start smoke:
//! the first invocation solves the zoo cold and persists its caches, the
//! second re-solves warm and fails unless every plan is identical and
//! restored from the cache, with zero evaluations.

use std::path::Path;
use std::time::Instant;

use temp_bench::header;
use temp_core::framework::Temp;
use temp_graph::models::{ModelConfig, ModelZoo};
use temp_graph::workload::Workload;
use temp_mapping::engines::MappingEngine;
use temp_solver::cost::WaferCostModel;
use temp_solver::dlws::Dlws;
use temp_solver::dp::solve_chain;
use temp_solver::ilp::solve_exact;
use temp_solver::pool::ContextPool;
use temp_solver::runtime::available_workers;
use temp_solver::search::SearchContext;
use temp_wsc::config::WaferConfig;

fn context() -> SearchContext {
    let model = ModelZoo::gpt3_6_7b();
    let workload = Workload::for_model(&model);
    SearchContext::new(WaferCostModel::new(WaferConfig::hpca(), model, workload))
}

/// Pulls an integer field out of a one-record bench JSON line without a
/// JSON parser (the vendored serde stand-in cannot deserialize).
/// Tolerates whitespace after the colon so a pretty-printed or
/// hand-edited baseline still parses.
fn json_u64_field(record: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\"");
    let after_key = record.find(&needle)? + needle.len();
    let rest = record[after_key..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Pulls a float field out of a one-record bench JSON line (same
/// tolerance for whitespace as [`json_u64_field`]).
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

/// Per-model instrumentation captured during a zoo solve: wall time and
/// mean exact-evaluation latency.
struct ZooModelStats {
    name: String,
    solve_wall_s: f64,
    eval_ns_mean: f64,
}

/// Solves the fig13 zoo on one pool with the bound pruner toggled,
/// returning per-model plan fingerprints, the total exact-evaluation
/// count, and per-model solve instrumentation.
fn solve_zoo_with(pool: &ContextPool, pruning: bool) -> (Vec<String>, u64, Vec<ZooModelStats>) {
    let mut plans = Vec::new();
    let mut evals = 0u64;
    let mut per_model = Vec::new();
    for model in ModelZoo::table2() {
        let workload = Workload::for_model(&model);
        let ctx = pool.context(&model, &workload);
        ctx.set_pruning(pruning);
        let before = ctx.stats();
        let t0 = Instant::now();
        let plan = pool
            .solver(&model, &workload)
            .solve()
            .expect("zoo model must solve");
        let solve_wall_s = t0.elapsed().as_secs_f64();
        let after = ctx.stats();
        evals += after.misses;
        let d_misses = after.misses.saturating_sub(before.misses);
        let d_exact_ns = after.exact_ns.saturating_sub(before.exact_ns);
        per_model.push(ZooModelStats {
            name: model.name.clone(),
            solve_wall_s,
            eval_ns_mean: d_exact_ns as f64 / d_misses.max(1) as f64,
        });
        // `{:?}` renders the step time bit-exactly, so matching
        // fingerprints mean matching plans, not just matching labels.
        plans.push(format!(
            "{} {} {:?}",
            model.name,
            plan.config.label(),
            plan.report.step_time
        ));
    }
    (plans, evals, per_model)
}

/// Production path: the zoo solve with the admissible bound pruner on.
fn solve_zoo(pool: &ContextPool) -> (Vec<String>, u64, Vec<ZooModelStats>) {
    solve_zoo_with(pool, true)
}

/// Cold bound-pruned solve of `model` on a `side x side` wafer: prints
/// the plan and a `metric` JSON line, and returns
/// `(solve seconds, exact evaluations)`.
fn cold_wafer_solve(model: &ModelConfig, side: u32, metric: &str) -> (f64, u64) {
    let solver = Dlws::new(
        WaferConfig::with_array(side, side).expect("square wafer"),
        model.clone(),
        Workload::for_model(model),
    );
    let t0 = Instant::now();
    let plan = solver.solve().expect("cold wafer plan");
    let solve_s = t0.elapsed().as_secs_f64();
    let evals = solver.search_stats().misses;
    println!(
        "cold solve {solve_s:.3} s ({evals} evals) -> plan {}",
        plan.config.label()
    );
    println!(
        "{{\"bench\":\"search_time\",\"metric\":\"{metric}\",\"solve_s\":{solve_s:.6},\"exact_evals\":{evals}}}"
    );
    (solve_s, evals)
}

/// Mapping drafts built by a cold fig13-zoo solve under all three engines
/// on one pool: the engines share each context's draft memo, so a layout
/// is drafted once per policy whichever engine reaches it first. The
/// contexts cost serially, so the count does not depend on the worker
/// count: pooled best-first streams also draft for speculative verdicts
/// they later discard.
fn zoo_map_drafts() -> u64 {
    let pool = ContextPool::new(WaferConfig::hpca());
    ModelZoo::table2()
        .iter()
        .map(|model| {
            let solver = pool.solver(model, &Workload::for_model(model));
            solver.context().set_parallel(false);
            for engine in [
                MappingEngine::Tcme,
                MappingEngine::SMap,
                MappingEngine::GMap,
            ] {
                // Infeasible engine/model pairs still count their drafts.
                let _ = solver.solve_with_engine(engine, |_| true);
            }
            solver.cost_model().draft_memo_stats().1
        })
        .sum()
}

/// Mapping drafts built and segment rows computed by one GPT-3 6.7B
/// context running `compare_all` and then the 2/4/8-wafer x 1/2-stage
/// sweep. The sweep's stage solves cost the candidates at pipeline
/// degrees 2 to 16, and share the single-wafer solves' drafts and
/// segment rows (both are keyed at `pp = 1`). The context costs serially,
/// as in [`zoo_map_drafts`].
fn sweep_sharing() -> (u64, u64) {
    let temp = Temp::hpca(ModelZoo::gpt3_6_7b());
    temp.solver().context().set_parallel(false);
    let _ = temp.compare_all();
    let _ = temp.evaluate_multiwafer_sweep(
        &temp_core::baselines::BaselineSystem::temp(),
        &[2, 4, 8],
        &[1, 2],
    );
    (
        temp.solver().cost_model().draft_memo_stats().1,
        temp.search_stats().seg_misses,
    )
}

/// Strips the bit-exact step time off a zoo fingerprint, leaving
/// `model label`. Fingerprints from *independent* contexts agree only up
/// to float association (HashMap-ordered sums), so cross-pool winner
/// comparison matches on the configuration, not the rendered float.
fn winner_of(fingerprint: &str) -> &str {
    fingerprint
        .rsplit_once(' ')
        .map(|(head, _)| head)
        .unwrap_or(fingerprint)
}

/// Empties the plans section of every cache file in `dir`, so a pool
/// loading them re-solves from the imported cost tables alone.
fn drop_saved_plans(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("list cache dir") {
        let path = entry.expect("cache dir entry").path();
        let text = std::fs::read_to_string(&path).expect("read cache file");
        let cut = text.find("\nplans ").expect("plans section") + 1;
        let enumeration = text[cut..]
            .split_ascii_whitespace()
            .nth(2)
            .expect("enumeration hash");
        let tables = format!("{}plans 0 {enumeration}\n", &text[..cut]);
        std::fs::write(&path, tables).expect("write cache file");
    }
}

/// One leg of the cross-process warm-start smoke (`--warm-smoke`): cold
/// legs solve and persist, warm legs (a `meta.txt` already exists) load
/// the persisted caches and must replay the identical plans from the
/// restored plan memo, with zero evaluations. Returns the process exit
/// code.
fn warm_smoke(dir: &Path) -> i32 {
    let meta_path = dir.join("meta.txt");
    let pool = ContextPool::new(WaferConfig::hpca());
    match std::fs::read_to_string(&meta_path) {
        Ok(meta) => {
            let mut lines = meta.lines();
            let cold_evals: u64 = lines
                .next()
                .and_then(|l| l.strip_prefix("cold_evals "))
                .and_then(|v| v.parse().ok())
                .expect("malformed meta.txt");
            let cold_plans: Vec<&str> = lines.collect();
            pool.load_from(dir).expect("load persisted caches");
            let (plans, warm_evals, _) = solve_zoo(&pool);
            println!(
                "warm leg: {warm_evals} evals vs {cold_evals} cold ({:.1}% of cold)",
                100.0 * warm_evals as f64 / cold_evals.max(1) as f64
            );
            if plans != cold_plans {
                eprintln!("FAIL: warm-start plans differ from the cold leg's");
                for (c, w) in cold_plans.iter().zip(&plans) {
                    if c != w {
                        eprintln!("  cold: {c}\n  warm: {w}");
                    }
                }
                return 1;
            }
            // Every zoo solve is a key the cold leg memoized, so the warm
            // leg answers each from its restored plan.
            if warm_evals != 0 {
                eprintln!(
                    "FAIL: warm start needed {warm_evals} evals; restored plans need none \
                     ({cold_evals} cold evals)"
                );
                return 1;
            }
            println!("warm-start smoke passed: identical plans, zero evaluations");
            0
        }
        Err(_) => {
            let (plans, cold_evals, _) = solve_zoo(&pool);
            pool.save_to(dir).expect("persist caches");
            let mut meta = format!("cold_evals {cold_evals}\n");
            for plan in &plans {
                meta.push_str(plan);
                meta.push('\n');
            }
            std::fs::write(&meta_path, meta).expect("write meta.txt");
            println!(
                "cold leg: {cold_evals} evals over {} models, caches saved to {}",
                plans.len(),
                dir.display()
            );
            0
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--warm-smoke") {
        let dir = args
            .iter()
            .position(|a| a == "--cache-dir")
            .and_then(|i| args.get(i + 1))
            .expect("--warm-smoke requires --cache-dir <dir>");
        std::process::exit(warm_smoke(Path::new(dir)));
    }
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    // The carried pruned-zoo baseline anchors the batched-costing gate
    // to the pre-batching engine: re-baselining (--json rewrites)
    // preserves `pruned_zoo_baseline_s` once it exists, falling back to
    // the old record's own `pruned_zoo_s` on the first transition. Read
    // it up front — --json may overwrite the file later in the run.
    let carried_pruned_zoo_baseline_s = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .into_iter()
        .chain(json_path.as_ref())
        .find_map(|path| {
            let record = std::fs::read_to_string(path).ok()?;
            json_f64_field(&record, "pruned_zoo_baseline_s")
                .or_else(|| json_f64_field(&record, "pruned_zoo_s"))
        });
    // Read the regression baseline up front: --json may overwrite the
    // same file later in the run.
    let check_baseline = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .map(|path| {
            let record = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("read bench baseline {path}: {e}"));
            let evals = json_u64_field(&record, "exact_evals")
                .unwrap_or_else(|| panic!("no exact_evals field in {path}"));
            let mw_evals = json_u64_field(&record, "multiwafer_exact_evals")
                .unwrap_or_else(|| panic!("no multiwafer_exact_evals field in {path}"));
            let moe_evals = json_u64_field(&record, "moe_exact_evals")
                .unwrap_or_else(|| panic!("no moe_exact_evals field in {path}"));
            let large_evals = json_u64_field(&record, "large_wafer_exact_evals")
                .unwrap_or_else(|| panic!("no large_wafer_exact_evals field in {path}"));
            let wafer32_evals = json_u64_field(&record, "wafer32_exact_evals")
                .unwrap_or_else(|| panic!("no wafer32_exact_evals field in {path}"));
            let wafer64_evals = json_u64_field(&record, "wafer64_exact_evals")
                .unwrap_or_else(|| panic!("no wafer64_exact_evals field in {path}"));
            let map_drafts = json_u64_field(&record, "map_drafts")
                .unwrap_or_else(|| panic!("no map_drafts field in {path}"));
            let sweep_map_drafts = json_u64_field(&record, "sweep_map_drafts")
                .unwrap_or_else(|| panic!("no sweep_map_drafts field in {path}"));
            let sweep_seg_misses = json_u64_field(&record, "sweep_seg_misses")
                .unwrap_or_else(|| panic!("no sweep_seg_misses field in {path}"));
            let pruned_candidates = json_u64_field(&record, "pruned_candidates")
                .unwrap_or_else(|| panic!("no pruned_candidates field in {path}"));
            let campaign_s = json_f64_field(&record, "campaign_s")
                .unwrap_or_else(|| panic!("no campaign_s field in {path}"));
            (
                path.clone(),
                evals,
                mw_evals,
                moe_evals,
                large_evals,
                wafer32_evals,
                wafer64_evals,
                map_drafts,
                sweep_map_drafts,
                sweep_seg_misses,
                pruned_candidates,
                campaign_s,
            )
        });

    header("§VIII-H: end-to-end DLS solve time (GPT-3 6.7B, 32 dies)");
    let model = ModelZoo::gpt3_6_7b();
    let solver = Dlws::new(
        WaferConfig::hpca(),
        model.clone(),
        Workload::for_model(&model),
    );
    let t0 = Instant::now();
    let plan = solver.solve().expect("feasible");
    let dls_total = t0.elapsed().as_secs_f64();
    // Evaluations of the cold bound-pruned solve: the `exact_evals` gate.
    let exact_evals = solver.search_stats().misses;
    println!(
        "DLS total: {dls_total:.2} s ({exact_evals} evals) -> plan {} (chain cost {:.4} s{}) \
         (paper: ~3 minutes incl. simulation)",
        plan.config.label(),
        plan.chain_cost,
        if plan.is_heterogeneous() {
            ", heterogeneous chain"
        } else {
            ""
        }
    );
    // A second solve is answered from the candidate cache.
    let t0 = Instant::now();
    let _ = solver.solve().expect("feasible");
    let dls_cached = t0.elapsed().as_secs_f64();
    let stats = solver.search_stats();
    println!(
        "DLS re-solve (cached): {dls_cached:.4} s ({:.0}x faster; cache {} hits / {} misses)",
        dls_total / dls_cached.max(1e-9),
        stats.hits,
        stats.misses
    );
    let (enum_s, bound_s, exact_s, derate_s) = stats.phase_seconds();
    println!(
        "phases: enumerate {enum_s:.4} s, bound {bound_s:.4} s, exact {exact_s:.4} s, \
         derate {derate_s:.4} s ({} bound-pruned + {} dominated)",
        stats.bound_pruned, stats.dominated_pruned
    );
    println!(
        "{{\"bench\":\"search_time\",\"metric\":\"solve\",\"cold_s\":{dls_total:.6},\"cached_s\":{dls_cached:.6},\"evals\":{exact_evals},\"bound_s\":{bound_s:.6},\"exact_s\":{exact_s:.6},\"pruned\":{},\"plan\":\"{}\"}}",
        stats.pruned_candidates(),
        plan.config.label()
    );

    header("search pipeline: serial vs pooled costing");
    let threads = available_workers();
    // What the solver runtime actually brought up — the figure CI
    // legs pin via TEMP_THREADS and the one every parallel claim is
    // conditioned on.
    let threads_effective = temp_solver::runtime::global().workers();
    println!("threads: {threads} requested, {threads_effective} effective in the runtime");
    // Pool path: the same exhaustive batch with its best-first lanes
    // (at most three) on the solver runtime. Production solves run this
    // stream too, through `cost_candidates_chain` with real bounds; the
    // equal bounds here take pruning out of the timing. A cold batch
    // takes milliseconds, too short to time once, so each side is the
    // median of five rounds on fresh contexts, after one untimed pooled
    // round that pays the workers' cold thread-local arenas.
    let candidates = context().candidates().to_vec();
    let cold_batch_s = |parallel: bool| {
        let ctx = context();
        ctx.set_parallel(parallel);
        let t0 = Instant::now();
        let _ = ctx.cost_candidates(&candidates, MappingEngine::Tcme);
        t0.elapsed().as_secs_f64()
    };
    cold_batch_s(true);
    let median_of_5 = |parallel: bool| {
        let mut rounds: Vec<f64> = (0..5).map(|_| cold_batch_s(parallel)).collect();
        rounds.sort_by(f64::total_cmp);
        rounds[2]
    };
    let serial_s = median_of_5(false);
    let pool_s = median_of_5(true);

    let pool_speedup = serial_s / pool_s.max(1e-9);
    println!(
        "{} candidates, {threads} worker thread(s): serial {serial_s:.3} s, pool {pool_s:.3} s ({pool_speedup:.2}x)",
        candidates.len()
    );
    if threads == 1 {
        println!("(single core: the pool degrades to the serial loop by design)");
    }
    println!(
        "{{\"bench\":\"search_time\",\"metric\":\"costing\",\"candidates\":{},\"threads\":{threads},\"serial_s\":{serial_s:.6},\"pool_s\":{pool_s:.6},\"pool_speedup\":{pool_speedup:.4}}}",
        candidates.len()
    );

    header("multi-wafer sweep: 2 and 4 wafers, cold");
    // A fresh framework so the sweep costs from a cold cache: each
    // point's stage solve bound-prunes its candidates against the
    // verdicts the points before it cached.
    use temp_core::baselines::BaselineSystem;
    let sweep_temp = Temp::hpca(ModelZoo::gpt3_6_7b());
    let t0 = Instant::now();
    let sweep_entries =
        sweep_temp.evaluate_multiwafer_sweep(&BaselineSystem::temp(), &[2, 4], &[1]);
    let sweep_s = t0.elapsed().as_secs_f64();
    let mw_exact_evals = sweep_temp.search_stats().misses;
    println!(
        "sweep {sweep_s:.3} s ({mw_exact_evals} evals) over {} points",
        sweep_entries.len()
    );
    println!(
        "{{\"bench\":\"search_time\",\"metric\":\"multiwafer_sweep\",\"exact_s\":{sweep_s:.6},\"exact_evals\":{mw_exact_evals}}}"
    );

    header("MoE chain: cold bound-pruned solve on the fine-grained expert config");
    // A mixed dense/MoE chain (DeepSeek-style, 64 experts): the MoE row is
    // priced over the expert-parallel space and is not pruned yet.
    let moe_model = ModelZoo::deepseek_moe_16b();
    let moe_solver = Dlws::new(
        WaferConfig::hpca(),
        moe_model.clone(),
        Workload::for_model(&moe_model),
    );
    let t0 = Instant::now();
    let moe_plan = moe_solver.solve().expect("MoE plan");
    let moe_exact_s = t0.elapsed().as_secs_f64();
    let moe_exact_evals = moe_solver.search_stats().misses;
    let moe_ep = moe_plan
        .segments
        .iter()
        .find(|s| s.kind == temp_graph::segment::SegmentKind::MoeBlock)
        .map(|s| s.config.ep)
        .unwrap_or(1);
    println!("cold solve {moe_exact_s:.3} s ({moe_exact_evals} evals) -> MoE run ep={moe_ep}");
    println!(
        "{{\"bench\":\"search_time\",\"metric\":\"moe_solve\",\"exact_s\":{moe_exact_s:.6},\"exact_evals\":{moe_exact_evals},\"moe_ep\":{moe_ep}}}"
    );

    header("large wafer: cold bound-pruned solve of GPT-3 6.7B on 16x16 (256 dies)");
    // Mapping cost grows with the die count: a 16x16 layer carries ~1k
    // flows per contention round, so this row tracks the large-wafer path.
    let (large_wafer_solve_s, large_wafer_exact_evals) =
        cold_wafer_solve(&model, 16, "large_wafer_solve");

    header("32x32 wafer: cold bound-pruned solve of GPT-3 6.7B on 1024 dies (TCME)");
    // Strip layouts at this size carry thousands of flows per contention
    // round: the row that tracks the largest wafer a cold solve serves.
    let (wafer32_solve_s, wafer32_exact_evals) = cold_wafer_solve(&model, 32, "wafer32_solve");

    header("64x64 wafer: cold bound-pruned solve of GPT-3 6.7B on 4096 dies (TCME)");
    // Four times the 32x32 row's dies: tracks how the contention
    // simulation and draft traffic scale toward wafer-scale die counts.
    let (wafer64_solve_s, wafer64_exact_evals) = cold_wafer_solve(&model, 64, "wafer64_solve");

    header("candidate cache: the seven-system compare_all sweep");
    let temp = Temp::hpca(ModelZoo::gpt3_6_7b());
    let t0 = Instant::now();
    let _ = temp.compare_all();
    let first_sweep_s = t0.elapsed().as_secs_f64();
    let after_first = temp.search_stats();
    let t0 = Instant::now();
    let _ = temp.compare_all();
    let second_sweep_s = t0.elapsed().as_secs_f64();
    let after_second = temp.search_stats();
    println!(
        "first sweep {first_sweep_s:.3} s ({} misses, {} hits, hit rate {:.1}%)",
        after_first.misses,
        after_first.hits,
        100.0 * after_first.hit_rate()
    );
    // Per-sweep deltas: the cumulative counters would dilute the second
    // sweep's hit rate with the first sweep's mandatory misses.
    let second_misses = after_second.misses - after_first.misses;
    let second_hits = after_second.hits - after_first.hits;
    let second_hit_rate = if second_hits + second_misses == 0 {
        0.0
    } else {
        second_hits as f64 / (second_hits + second_misses) as f64
    };
    // A repeated sweep is answered by the plan memo, which reads no cost
    // table entry: its hit rate is 0/0 and its plan hits tell the story.
    println!(
        "second sweep {second_sweep_s:.3} s ({second_misses} new misses, hit rate {:.1}%, \
         {} plan-memo hits)",
        100.0 * second_hit_rate,
        after_second.plan_hits - after_first.plan_hits
    );
    println!("segment-table hits {}", after_second.seg_hits);
    println!(
        "{{\"bench\":\"search_time\",\"metric\":\"cache\",\"first_sweep_s\":{first_sweep_s:.6},\"second_sweep_s\":{second_sweep_s:.6},\"first_sweep_misses\":{},\"first_sweep_hits\":{},\"second_sweep_hit_rate\":{second_hit_rate:.4},\"seg_hits\":{}}}",
        after_first.misses,
        after_first.hits,
        after_second.seg_hits
    );

    header("persisted-cache warm start: fig13 zoo, export -> fresh pool -> import");
    // The table half of the `--warm-smoke` CI legs: a cold pool solves
    // the six-model zoo and persists every context's cache, the saved
    // plans are dropped, and a brand-new pool importing the remaining
    // cost tables must re-solve the identical plans while running almost
    // no exact evaluations. (The CI legs keep the plans and need none.)
    let warm_dir = std::env::temp_dir().join(format!("temp-bench-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&warm_dir);
    let cold_pool = ContextPool::new(WaferConfig::hpca());
    let t0 = Instant::now();
    let (cold_fps, cold_evals, _) = solve_zoo(&cold_pool);
    let cold_zoo_s = t0.elapsed().as_secs_f64();
    let saved = cold_pool.save_to(&warm_dir).expect("persist zoo caches");
    drop_saved_plans(&warm_dir);
    let warm_pool = ContextPool::new(WaferConfig::hpca());
    warm_pool.load_from(&warm_dir).expect("import zoo caches");
    let t0 = Instant::now();
    let (warm_fps, warm_evals, _) = solve_zoo(&warm_pool);
    let warm_zoo_s = t0.elapsed().as_secs_f64();
    let warm_plans_match = cold_fps == warm_fps;
    let _ = std::fs::remove_dir_all(&warm_dir);
    println!(
        "cold zoo solve {cold_zoo_s:.3} s ({cold_evals} evals over {} models, {saved} caches saved)",
        cold_fps.len()
    );
    println!(
        "warm zoo solve {warm_zoo_s:.3} s ({warm_evals} evals, {:.1}% of cold), plans match: {warm_plans_match}",
        100.0 * warm_evals as f64 / cold_evals.max(1) as f64
    );
    println!(
        "{{\"bench\":\"search_time\",\"metric\":\"warm_start\",\"cold_s\":{cold_zoo_s:.6},\"warm_s\":{warm_zoo_s:.6},\"cold_evals\":{cold_evals},\"warm_evals\":{warm_evals},\"plans_match\":{warm_plans_match}}}"
    );

    header("bound-pruned search: admissible prefilter vs exhaustive cold zoo solve");
    // Two cold pools over the same six-model zoo: one with the
    // lower-bound pruner disabled (the exhaustive reference), one with it
    // on (the production path). Same winners are required — the bounds
    // are admissible — so the only difference is how many candidates ever
    // reach the exact cost model.
    let exhaustive_pool = ContextPool::new(WaferConfig::hpca());
    let t0 = Instant::now();
    let (exhaustive_fps, exhaustive_evals, _) = solve_zoo_with(&exhaustive_pool, false);
    let exhaustive_zoo_s = t0.elapsed().as_secs_f64();

    let pruned_pool = ContextPool::new(WaferConfig::hpca());
    let t0 = Instant::now();
    let (pruned_fps, pruned_evals, zoo_model_stats) = solve_zoo_with(&pruned_pool, true);
    let pruned_zoo_s = t0.elapsed().as_secs_f64();

    let prune_speedup = exhaustive_zoo_s / pruned_zoo_s.max(1e-9);
    let pruned_winners_match = exhaustive_fps.len() == pruned_fps.len()
        && exhaustive_fps
            .iter()
            .zip(&pruned_fps)
            .all(|(e, p)| winner_of(e) == winner_of(p));
    let mut pruned_candidates = 0u64;
    let mut zoo_bound_s = 0.0f64;
    let mut zoo_exact_s = 0.0f64;
    for model in ModelZoo::table2() {
        let workload = Workload::for_model(&model);
        let ctx = pruned_pool.context(&model, &workload);
        let s = ctx.stats();
        pruned_candidates += s.pruned_candidates();
        let (_, b, e, _) = s.phase_seconds();
        zoo_bound_s += b;
        zoo_exact_s += e;
    }
    // Concurrency counters from the sharded caches: evaluations that
    // parked on another thread's in-flight cost run instead of
    // duplicating it, and lock shards found contended. Single-threaded
    // legs report 0/0 — the counters exist so the multi-thread CI leg
    // tracks residual serialization across PRs.
    let (pool_stats, unique_eval_keys) = pruned_pool.aggregate_stats();
    let coalesced_evals = pool_stats.coalesced;
    let shard_waits = pool_stats.shard_waits;
    println!(
        "exhaustive zoo solve {exhaustive_zoo_s:.3} s ({exhaustive_evals} evals); \
         pruned {pruned_zoo_s:.3} s ({pruned_evals} evals, {pruned_candidates} pruned) \
         -> {prune_speedup:.2}x, winners match: {pruned_winners_match}"
    );
    println!(
        "single-flight: {coalesced_evals} coalesced evals, {shard_waits} shard waits \
         over {unique_eval_keys} unique keys on the pruned pool"
    );
    println!("pruned-leg phases: bound {zoo_bound_s:.4} s vs exact {zoo_exact_s:.4} s");
    for m in &zoo_model_stats {
        println!(
            "  {}: solve {:.4} s, mean exact eval {:.0} ns",
            m.name, m.solve_wall_s, m.eval_ns_mean
        );
    }
    println!(
        "{{\"bench\":\"search_time\",\"metric\":\"bound_pruning\",\"exhaustive_s\":{exhaustive_zoo_s:.6},\"pruned_s\":{pruned_zoo_s:.6},\"prune_speedup\":{prune_speedup:.4},\"exhaustive_evals\":{exhaustive_evals},\"pruned_evals\":{pruned_evals},\"pruned_candidates\":{pruned_candidates},\"bound_s\":{zoo_bound_s:.6},\"winners_match\":{pruned_winners_match}}}"
    );

    header("best-first streaming: serial vs pooled cold zoo solve");
    // The pruned stream commits verdicts strictly in bound order, so a
    // pool whose contexts cost serially must commit exactly the pooled
    // leg's evaluations and prune exactly its candidates, with the same
    // plans. Only the speculative verdicts the pooled workers computed
    // past the commit frontier and then discarded differ (recorded, not
    // gated: they depend on scheduling).
    let serial_pool = ContextPool::new(WaferConfig::hpca());
    for model in ModelZoo::table2() {
        serial_pool
            .context(&model, &Workload::for_model(&model))
            .set_parallel(false);
    }
    let (serial_fps, serial_evals, _) = solve_zoo_with(&serial_pool, true);
    let (serial_stats, _) = serial_pool.aggregate_stats();
    let discarded = pool_stats.discarded;
    let streams_agree = serial_fps == pruned_fps
        && (
            serial_evals,
            serial_stats.bound_pruned,
            serial_stats.dominated_pruned,
        ) == (
            pruned_evals,
            pool_stats.bound_pruned,
            pool_stats.dominated_pruned,
        );
    println!(
        "serial {serial_evals} evals, {} dominated; pooled {pruned_evals} evals, {} dominated, \
         {discarded} speculative verdicts discarded; plans and counts agree: {streams_agree}",
        serial_stats.dominated_pruned, pool_stats.dominated_pruned
    );
    println!(
        "{{\"bench\":\"search_time\",\"metric\":\"streaming\",\"serial_evals\":{serial_evals},\"pooled_evals\":{pruned_evals},\"discarded\":{discarded},\"agree\":{streams_agree}}}"
    );

    header("shared mapping drafts: cold fig13 zoo under TCME, SMap and GMap");
    let map_drafts = zoo_map_drafts();
    println!(
        "{map_drafts} drafts built over {} models",
        ModelZoo::table2().len()
    );
    println!("{{\"bench\":\"search_time\",\"metric\":\"map_drafts\",\"map_drafts\":{map_drafts}}}");

    header("pipeline-degree sharing: compare_all, then the 2/4/8-wafer x 1/2-stage sweep");
    let (sweep_map_drafts, sweep_seg_misses) = sweep_sharing();
    println!("{sweep_map_drafts} drafts built, {sweep_seg_misses} segment rows computed");
    println!(
        "{{\"bench\":\"search_time\",\"metric\":\"sweep_sharing\",\"sweep_map_drafts\":{sweep_map_drafts},\"sweep_seg_misses\":{sweep_seg_misses}}}"
    );

    header("flat-batched fault campaigns: one (model x kind x rate x seed) grid");
    // A compact fig20-shaped campaign: every lane is one seed's full rate
    // sweep, flat-batched on the solver runtime.
    use temp_solver::faultcamp::{run_campaigns, CampaignSpec, FaultKind};
    let campaign_specs = [
        CampaignSpec {
            model: ModelZoo::gpt3_6_7b(),
            kind: FaultKind::Link,
            rates: vec![0.0, 0.1, 0.2],
        },
        CampaignSpec {
            model: ModelZoo::gpt3_6_7b(),
            kind: FaultKind::Core,
            rates: vec![0.0, 0.1, 0.2],
        },
    ];
    let campaign_seeds = 2u64;
    let t0 = Instant::now();
    let curves = run_campaigns(&WaferConfig::hpca(), &campaign_specs, campaign_seeds);
    let campaign_s = t0.elapsed().as_secs_f64();
    let campaign_lanes = campaign_specs.len() as u64 * campaign_seeds;
    for curve in &curves {
        println!(
            "  {} {:?}: head {:.3} -> tail {:.3} over {} rates",
            curve.model,
            curve.kind,
            curve.head(),
            curve.tail(),
            curve.points.len()
        );
    }
    println!(
        "campaign: {campaign_lanes} lanes x {} rates in {campaign_s:.3} s on {threads_effective} worker(s)",
        campaign_specs[0].rates.len()
    );
    println!(
        "{{\"bench\":\"search_time\",\"metric\":\"campaign\",\"campaign_s\":{campaign_s:.6},\"lanes\":{campaign_lanes},\"seeds\":{campaign_seeds},\"threads_effective\":{threads_effective}}}"
    );

    header("chain assignment: DP (DLS level 1) vs exact branch-and-bound (ILP stand-in)");
    println!(
        "{:>9} {:>12} {:>14} {:>10}",
        "segments", "DP time s", "exact time s", "speedup"
    );
    // Anti-pruning cost structure so the exact solver does real work.
    let k = 6usize;
    for segments in [4usize, 6, 8, 10, 12] {
        let costs: Vec<Vec<f64>> = (0..segments)
            .map(|s| {
                (0..k)
                    .map(|c| 3.0 - 0.4 * c as f64 + 0.01 * s as f64)
                    .collect()
            })
            .collect();
        let tr = |_s: usize, a: usize, b: usize| if a == b { 0.0 } else { 0.05 };
        let t0 = Instant::now();
        for _ in 0..100 {
            let _ = solve_chain(&costs, tr).expect("well-formed chain");
        }
        let dp_t = t0.elapsed().as_secs_f64() / 100.0;
        let t0 = Instant::now();
        let exact = solve_exact(&costs, tr);
        let ex_t = t0.elapsed().as_secs_f64();
        println!(
            "{segments:>9} {dp_t:>12.6} {ex_t:>14.6} {:>9.0}x  ({} nodes)",
            ex_t / dp_t.max(1e-9),
            exact.nodes_expanded
        );
    }
    println!("(exact search grows as k^segments; a 96-layer model is out of reach, matching the paper's 40-1000+ hour ILP times — DLS stays polynomial: >200x speedups appear within the rows above)");

    if let Some(path) = json_path {
        // One consolidated record per run so the perf trajectory is
        // machine-tracked across PRs (vendored serde is a no-op stub, so
        // the record is assembled by hand).
        let record = format!(
            concat!(
                "{{\"bench\":\"search_time\",\"model\":\"GPT-3 6.7B\",\"threads\":{},",
                "\"threads_effective\":{},",
                "\"serial_s\":{:.6},\"pool_s\":{:.6},\"pool_speedup\":{:.4},",
                "\"exact_cold_s\":{:.6},\"exact_evals\":{},",
                "\"multiwafer_exact_evals\":{},\"moe_exact_evals\":{},\"moe_ep\":{},",
                "\"large_wafer_exact_evals\":{},\"large_wafer_solve_s\":{:.6},",
                "\"wafer32_exact_evals\":{},\"wafer32_solve_s\":{:.6},",
                "\"wafer64_exact_evals\":{},\"wafer64_solve_s\":{:.6},",
                "\"sweep_cache_hit_rate\":{:.4},\"sweep_seg_hits\":{},",
                "\"cold_evals\":{},\"warm_evals\":{},\"warm_plans_match\":{},",
                "\"exhaustive_zoo_s\":{:.6},\"pruned_zoo_s\":{:.6},",
                "\"prune_speedup\":{:.4},\"exhaustive_evals\":{},\"pruned_evals\":{},",
                "\"pruned_candidates\":{},\"bound_time_s\":{:.6},",
                "\"pruned_winners_match\":{},",
                "\"campaign_s\":{:.6},\"campaign_lanes\":{},\"map_drafts\":{},",
                "\"sweep_map_drafts\":{},\"sweep_seg_misses\":{},",
                "\"coalesced_evals\":{},\"shard_waits\":{},\"unique_eval_keys\":{},",
                "\"serial_zoo_evals\":{},\"discarded\":{},\"streams_agree\":{},",
                "\"pruned_zoo_baseline_s\":{:.6},\"zoo_models\":[{}]}}\n"
            ),
            threads,
            threads_effective,
            serial_s,
            pool_s,
            pool_speedup,
            dls_total,
            exact_evals,
            mw_exact_evals,
            moe_exact_evals,
            moe_ep,
            large_wafer_exact_evals,
            large_wafer_solve_s,
            wafer32_exact_evals,
            wafer32_solve_s,
            wafer64_exact_evals,
            wafer64_solve_s,
            after_first.hit_rate(),
            after_second.seg_hits,
            cold_evals,
            warm_evals,
            warm_plans_match,
            exhaustive_zoo_s,
            pruned_zoo_s,
            prune_speedup,
            exhaustive_evals,
            pruned_evals,
            pruned_candidates,
            zoo_bound_s,
            pruned_winners_match,
            campaign_s,
            campaign_lanes,
            map_drafts,
            sweep_map_drafts,
            sweep_seg_misses,
            coalesced_evals,
            shard_waits,
            unique_eval_keys,
            serial_evals,
            discarded,
            streams_agree,
            carried_pruned_zoo_baseline_s.unwrap_or(pruned_zoo_s),
            zoo_model_stats
                .iter()
                .map(|m| format!(
                    "{{\"name\":\"{}\",\"solve_wall_s\":{:.6},\"eval_ns_mean\":{:.1}}}",
                    m.name, m.solve_wall_s, m.eval_ns_mean
                ))
                .collect::<Vec<_>>()
                .join(","),
        );
        std::fs::write(&path, &record).expect("write bench JSON");
        println!("\nwrote {path}");
    }

    if let Some((
        path,
        baseline_evals,
        baseline_mw_evals,
        baseline_moe_evals,
        baseline_large_evals,
        baseline_wafer32_evals,
        baseline_wafer64_evals,
        baseline_map_drafts,
        baseline_sweep_map_drafts,
        baseline_sweep_seg_misses,
        baseline_pruned_candidates,
        baseline_campaign_s,
    )) = check_baseline
    {
        // Bench-regression gate: fail when a cold bound-pruned search —
        // single wafer, the multi-wafer sweep, the MoE chain, or the
        // 16x16, 32x32 and 64x64 wafers — needs >20% more exact
        // evaluations, the cold three-engine zoo >20% more mapping
        // drafts, or the pipeline-degree sweep >20% more drafts or
        // segment rows, than the committed baseline record.
        // (`large_wafer_solve_s`, `wafer32_solve_s` and `wafer64_solve_s`
        // are recorded, not gated: wall time varies across runners.)
        let mut failed = false;
        for (what, fresh, baseline) in [
            ("exact_evals", exact_evals, baseline_evals),
            ("multiwafer_exact_evals", mw_exact_evals, baseline_mw_evals),
            ("moe_exact_evals", moe_exact_evals, baseline_moe_evals),
            (
                "large_wafer_exact_evals",
                large_wafer_exact_evals,
                baseline_large_evals,
            ),
            (
                "wafer32_exact_evals",
                wafer32_exact_evals,
                baseline_wafer32_evals,
            ),
            (
                "wafer64_exact_evals",
                wafer64_exact_evals,
                baseline_wafer64_evals,
            ),
            ("map_drafts", map_drafts, baseline_map_drafts),
            (
                "sweep_map_drafts",
                sweep_map_drafts,
                baseline_sweep_map_drafts,
            ),
            (
                "sweep_seg_misses",
                sweep_seg_misses,
                baseline_sweep_seg_misses,
            ),
        ] {
            let limit = (baseline as f64 * 1.2).ceil() as u64;
            println!(
                "{what} regression check vs {path}: fresh {fresh} vs baseline {baseline} (limit {limit})"
            );
            if fresh > limit {
                eprintln!(
                    "FAIL: {what} regressed >20% ({fresh} > {limit}); \
                     re-baseline BENCH_search.json only if the regression is intended"
                );
                failed = true;
            }
        }
        // Warm-start gate: persisted cost tables must cut the zoo re-solve
        // to ≤10% of the cold evaluations and replay identical plans.
        println!(
            "warm-start check: {warm_evals} warm vs {cold_evals} cold evals, plans match: {warm_plans_match}"
        );
        if warm_evals * 10 > cold_evals || !warm_plans_match {
            eprintln!("FAIL: warm start must replay identical plans with ≤10% of the cold evals");
            failed = true;
        }

        // Streaming gate: serial and pooled best-first streams commit the
        // same evaluations and plans at any worker count.
        println!(
            "streaming check: serial {serial_evals} vs pooled {pruned_evals} committed evals, \
             plans and pruned counts agree: {streams_agree}"
        );
        if !streams_agree {
            eprintln!(
                "FAIL: serial and pooled cold zoo solves must commit identical evaluations, \
                 pruned counts and plans"
            );
            failed = true;
        }

        // Pool gate: on a real multi-core runner the persistent pool must
        // beat serial costing by >1.5x. A 1-thread leg of the CI matrix
        // (or this container's single core) cannot show a speedup, so the
        // gate only arms at 4+ workers.
        if threads >= 4 {
            println!("pool-speedup check: {pool_speedup:.2}x at {threads} threads (limit >1.50x)");
            if pool_speedup <= 1.5 {
                eprintln!("FAIL: pool speedup {pool_speedup:.2}x <= 1.5x at {threads} threads");
                failed = true;
            }
        } else {
            println!(
                "pool-speedup check skipped ({threads} thread(s) < 4: no parallelism to measure)"
            );
        }

        // Pruning gates. The speedup gate is in-run (exhaustive vs pruned
        // on this very machine, so it is machine-independent); the
        // pruned-candidate count guards the bound quality itself — if the
        // bounds loosen, fewer candidates are pruned and the count drops
        // below 80% of the committed baseline.
        println!(
            "prune-speedup check: {prune_speedup:.2}x (limit >=2.00x), winners match: {pruned_winners_match}"
        );
        if prune_speedup < 2.0 || !pruned_winners_match {
            eprintln!(
                "FAIL: bound pruning must keep a >=2x cold zoo speedup with unchanged winners"
            );
            failed = true;
        }
        // Batched-costing gate: the SoA engine (hoisted op-graph walk,
        // mapping memo, allocation-free hot paths) must keep the cold
        // pruned zoo solve >=2x faster than the carried pre-batching
        // baseline, with the winners still matching the exhaustive leg.
        match carried_pruned_zoo_baseline_s {
            Some(baseline_s) => {
                let limit = baseline_s / 2.0;
                println!(
                    "batched-costing check vs {path}: fresh pruned_zoo_s {pruned_zoo_s:.6} s \
                     vs carried baseline {baseline_s:.6} s (limit {limit:.6} s), \
                     winners match: {pruned_winners_match}"
                );
                if pruned_zoo_s > limit || !pruned_winners_match {
                    eprintln!(
                        "FAIL: batched costing must keep pruned_zoo_s at or under half the \
                         carried {baseline_s:.6} s baseline with unchanged winners"
                    );
                    failed = true;
                }
            }
            None => println!(
                "batched-costing check skipped: no pruned_zoo_baseline_s or pruned_zoo_s \
                 in {path}"
            ),
        }
        let pruned_floor = (baseline_pruned_candidates as f64 * 0.8).floor() as u64;
        println!(
            "pruned-candidates check vs {path}: fresh {pruned_candidates} vs baseline \
             {baseline_pruned_candidates} (floor {pruned_floor})"
        );
        if pruned_candidates < pruned_floor {
            eprintln!(
                "FAIL: pruned_candidates dropped >20% ({pruned_candidates} < {pruned_floor}); \
                 the lower bounds have loosened"
            );
            failed = true;
        }
        // Campaign wall-time gate: generous (3x the committed baseline)
        // because CI runners vary, but a scheduling regression that
        // serializes the lanes blows well past it.
        let campaign_limit = baseline_campaign_s * 3.0;
        println!(
            "campaign wall-time check vs {path}: fresh {campaign_s:.3} s vs baseline \
             {baseline_campaign_s:.3} s (limit {campaign_limit:.3} s)"
        );
        if campaign_s > campaign_limit {
            eprintln!(
                "FAIL: flat-batched campaign took {campaign_s:.3} s, over 3x the committed \
                 {baseline_campaign_s:.3} s baseline"
            );
            failed = true;
        }

        if failed {
            std::process::exit(1);
        }
        println!("bench regression checks passed");
    }
}
