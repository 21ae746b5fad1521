#!/usr/bin/env python3
"""Planner benchmark: cold planning, warm open-loop serving, and the
paper's evaluation sweep.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-plan --seed 1 --seconds 24 --trace 0

It builds the `perfbench` binary (the package in this directory) with
cargo, runs the workload in fresh processes, checks every plan against
the committed reference outputs, and prints one JSON result line last:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics; with `--trace 1`
one untraced and one traced pass run, and the metrics are the per-layer
metrics derived from the traced pass's spans and counters, plus the
tracing overhead. `--write-reference` regenerates the reference outputs
for the current cost-model version. See README.md beside this file.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cold-plan", "serve-mix", "eval-sweep")
LEVELS = ("low", "mid", "high")

# Every pass is a fresh process; none may outlive this budget.
PASS_TIMEOUT_S = 150.0
# Set-up samples per run (passes first, then set-up-only processes).
SETUP_SAMPLES = 15
# The tail percentile of the logged latencies. p99 does not repeat on a
# small shared VM (see README.md), p95 does.
TAIL = 95
# Latency limits of slo_max_qps, per workload (ms, on the tail).
LATENCY_LIMIT_MS = {"cold-plan": 1000.0, "serve-mix": 25.0, "eval-sweep": 5000.0}
# Backlog test of an open-loop phase.
MAX_DRAIN_MS = 250.0
MAX_GENERATOR_LAG_MS = 250.0
MIN_SERVED_SHARE = 0.95
# Relative tolerance of step times against the reference (cross-process
# HashMap-order sums jitter in the last bits).
STEP_RTOL = 1e-9

END_TO_END = [("setup_s", "s"), ("plans_per_s", "1/s"), ("plan_ms_p50", "ms"), ("slo_max_qps", "1/s")]
# Latency tails and per-level latencies: computed and logged, but not
# metrics — under the host noise of a small shared VM their run-to-run
# spread exceeds any admissible regression bound (see README.md).
LOGGED = (
    [(f"plan_ms_p{TAIL}", "ms")]
    + [(f"lat_p50_ms.{lv}", "ms") for lv in LEVELS]
    + [(f"lat_p{TAIL}_ms.{lv}", "ms") for lv in LEVELS]
)

PER_LAYER = [
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.handle_ms.p50", "ms"),
    ("serve.handle_ms.p99", "ms"),
    ("serve.reply_overhead_us.p50", "us"),
    ("serve.stats_us.p50", "us"),
    ("serve.generator_lag_ms.max", "ms"),
    ("persist.import_s", "s"),
    ("persist.cache_bytes", "bytes"),
    ("search.evals", "count"),
    ("search.bound_pruned", "count"),
    ("search.dominated_pruned", "count"),
    ("search.hit_rate", "ratio"),
    ("search.coalesced", "count"),
    ("search.shard_waits", "count"),
    ("search.enumerate_ms", "ms"),
    ("search.solve_ms.p50", "ms"),
    ("cost.bound_us_per_cand", "us"),
    ("cost.exact_us_per_eval", "us"),
    ("cost.exact_warm_us_per_eval", "us"),
    ("cost.segment_us_per_eval", "us"),
    ("cost.mapping_memo_hit_rate", "ratio"),
    ("cost.collective_memo_hit_rate", "ratio"),
    ("mapping.map_us_per_call.tcme", "us"),
    ("mapping.map_us_per_call.smap", "us"),
    ("mapping.map_us_per_call.gmap", "us"),
    ("mapping.optimize_us_per_call", "us"),
    ("mapping.flows_per_layer", "count"),
    ("sim.contention_us_per_call", "us"),
    ("sim.contention_warm_hit_rate", "ratio"),
    ("sim.collective_us_per_call", "us"),
    ("dp.solve_chain_us_per_call", "us"),
    ("dp.balance_cuts_us_per_call", "us"),
    ("stage.solve_ms.p50", "ms"),
    ("core.compare_all_ms.p50", "ms"),
    ("core.sweep_ms.p50", "ms"),
    ("runtime.workers", "count"),
    ("trace.overhead_pct", "%"),
]


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def block_median(blocks, p):
    """Median over schedule blocks of each block's p-th percentile: a
    burst of machine noise moves one block, not the run."""
    return median([percentile(block, p) for block in blocks])


# ---------------------------------------------------------------- build


def target_dir():
    raw = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(raw)
    return path if path.is_absolute() else ROOT / path


def build():
    """Builds the benchmark binary from source; exits 1 on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        log("build failed")
        sys.exit(1)
    binary = target_dir() / "release" / "perfbench"
    if not binary.is_file():
        log(f"built binary missing at {binary}")
        sys.exit(1)
    return binary


# -------------------------------------------------------------- passes


class PassFailed(Exception):
    pass


def spawn(binary, args):
    """Runs one pass in a fresh process. Returns (setup seconds, result
    object or None); set-up is process start to the `ready` line."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [str(binary)] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    killer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready_at = time.monotonic()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise PassFailed(f"{args[0]} exited with {code}")
    lines = [l for l in rest.splitlines() if l.strip()]
    return ready_at - started, (json.loads(lines[-1]) if lines else None)


def setup_samples(binary, args, have):
    """Tops the run's set-up samples up to `SETUP_SAMPLES` with
    set-up-only processes."""
    samples = list(have)
    while len(samples) < SETUP_SAMPLES:
        setup, _ = spawn(binary, args + ["--setup-only"])
        samples.append(setup)
    return samples


# --------------------------------------------------------- correctness


class Checker:
    """Counts attempted and failed outputs against the reference."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.valid = True
        self.problems = []

    def problem(self, message):
        if len(self.problems) < 10:
            self.problems.append(message)

    def plan(self, key, ok, timed_out, label, step_time, count=1):
        """One solve reply (or `count` identical ones)."""
        self.attempted += count
        expected = self.reference["plans"].get(key)
        good = ok and not timed_out and expected is not None and step_time is not None
        if good:
            ref_label, ref_step = expected
            good = label == ref_label and abs(step_time - ref_step) <= STEP_RTOL * abs(ref_step)
        if not good:
            self.failed += count
            self.problem(f"{key}: got {label} {step_time} ok={ok} timed_out={timed_out}, "
                         f"want {expected}")

    def label(self, key, label):
        """One eval-sweep entry: a plan label or `oom`."""
        self.attempted += 1
        expected = self.reference["eval_sweep"].get(key)
        if label != expected:
            self.failed += 1
            self.problem(f"{key}: got {label}, want {expected}")

    def failures(self, count, message):
        """Requests that failed outright (`ok:false` or timed out)."""
        self.attempted += count
        self.failed += count
        if count:
            self.problem(message)


def load_reference(binary):
    version = subprocess.run(
        [str(binary), "version"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    path = HERE / "reference" / f"v{version}.json"
    if not path.is_file():
        log(f"no reference outputs for cost model version {version} ({path.name}); "
            "regenerate with --write-reference")
        return None
    return json.loads(path.read_text())


# ----------------------------------------------------------- workloads


def check_cold(result, checker):
    for r in result["requests"]:
        checker.plan(r["key"], r["ok"], r["timed_out"], r["plan"], r["step_time"])


def check_sweep(result, checker):
    for pair in result["pairs"]:
        for name, label in pair["labels"]:
            checker.label(f"{pair['model']}|{pair['array']}|{name}", label)


def closed_loop_metrics(workload, passes):
    """End-to-end metrics of a closed-loop run. Every pass sends the same
    requests, so each request's latency is taken as its median over the
    passes — a stall that hits one pass does not move it — and the
    metrics are computed over those per-request medians."""
    if workload == "cold-plan":
        items = lambda result: [(r["key"], r["level"], r["ms"], 1) for r in result["requests"]]
    else:
        items = lambda result: [
            (f"{p['model']}|{p['array']}", p["level"], p["ms"], len(p["labels"]))
            for p in result["pairs"]
        ]
    samples = defaultdict(list)
    info = {}
    for result in passes:
        for key, level, ms, plans in items(result):
            samples[key].append(ms)
            info[key] = (level, plans)
    latency = {key: median(v) for key, v in samples.items()}
    ms = list(latency.values())
    busy_s = sum(ms) / 1e3
    metrics = {
        "plans_per_s": sum(plans for _, plans in info.values()) / busy_s,
        # Interpolated: eval-sweep's 16 pair latencies fall in two clusters
        # (8x4 and 8x8 arrays) and its nearest-rank median jumps between
        # them.
        "plan_ms_p50": median(ms),
        f"plan_ms_p{TAIL}": percentile(ms, TAIL),
    }
    for lv in LEVELS:
        level = [latency[k] for k, (l, _) in info.items() if l == lv]
        metrics[f"lat_p50_ms.{lv}"] = percentile(level, 50)
        metrics[f"lat_p{TAIL}_ms.{lv}"] = percentile(level, TAIL)
    meets = percentile(ms, TAIL) <= LATENCY_LIMIT_MS[workload]
    metrics["slo_max_qps"] = len(ms) / busy_s if meets else 0.0
    return metrics


def check_serve(result, checker):
    for phase in result["phases"]:
        checked = 0
        for key, label, step_time, count in phase["plans"]:
            checker.plan(key, True, False, label, step_time, count)
            checked += count
        checker.failures(phase["failed"], f"{phase['name']}: {phase['failed']} ok:false replies")
        checker.failures(phase["timed_out"], f"{phase['name']}: {phase['timed_out']} timed out")
        # `stats` lines carry no plan: they count as attempted, and as
        # failed above when they were refused.
        checker.attempted += phase["sent"] - checked - phase["failed"] - phase["timed_out"]
    if result["evals"] != 0:
        checker.valid = False
        checker.problem(f"{result['evals']} exact evals on a warm server")


def phase_summary(phase):
    """Latency and the SLO verdict of one offered rate. The rate meets
    its SLO when its tail is under the limit and it shows no growing
    backlog: nothing failed, the served rate kept up with the offered
    one, every block drained, and the generator ran on time."""
    blocks = phase["blocks_lat_ms"]
    served_qps = phase["ok"] / phase["seconds"]
    offered_qps = phase["sent"] / phase["seconds"]
    tail = block_median(blocks, TAIL)
    backlog_free = (
        phase["failed"] == 0
        and served_qps >= MIN_SERVED_SHARE * offered_qps
        and phase["drain_max_ms"] <= MAX_DRAIN_MS
        and phase["lag_max_ms"] <= MAX_GENERATOR_LAG_MS
    )
    return {
        "p50": block_median(blocks, 50),
        "tail": tail,
        "served_qps": served_qps,
        "meets": backlog_free and tail <= LATENCY_LIMIT_MS["serve-mix"],
    }


def serve_metrics(result):
    metrics = {}
    blocks = []
    ok = 0
    seconds = 0.0
    slo = 0.0
    for lv, phase in zip(LEVELS, result["phases"]):
        summary = phase_summary(phase)
        metrics[f"lat_p50_ms.{lv}"] = summary["p50"]
        metrics[f"lat_p{TAIL}_ms.{lv}"] = summary["tail"]
        if summary["meets"]:
            slo = max(slo, summary["served_qps"])
        log(f"serve-mix {lv}: offered {phase['rate']:.0f}/s served {summary['served_qps']:.1f}/s "
            f"sent {phase['sent']} ok {phase['ok']} failed {phase['failed']} "
            f"lag_max {phase['lag_max_ms']:.2f} ms drain_max {phase['drain_max_ms']:.2f} ms "
            f"p50 {summary['p50']:.3f} ms p{TAIL} {summary['tail']:.3f} ms meets_slo {summary['meets']}")
        blocks.extend(phase["blocks_lat_ms"])
        ok += phase["ok"]
        seconds += phase["seconds"]
    metrics["plans_per_s"] = ok / seconds
    metrics["plan_ms_p50"] = block_median(blocks, 50)
    metrics[f"plan_ms_p{TAIL}"] = block_median(blocks, TAIL)
    metrics["slo_max_qps"] = slo
    return metrics


def serve_args(seed, cache, rates, seconds):
    return [
        "serve-mix", "--seed", str(seed), "--cache", str(cache),
        "--rates", ",".join(str(r) for r in rates), "--seconds", str(seconds),
    ]


def pass_seed(seed, index):
    """The seed of a run's `index`-th closed-loop pass. Each pass sends
    the same requests in its own order, so a run's per-request medians
    cover several orders and no single order's cache history sets them."""
    return seed * 1000 + index


def run_closed_loop(binary, workload, seed, seconds, checker):
    """Fresh-process passes until `seconds` have been measured."""
    passes, setups = [], []
    started = time.monotonic()
    while True:
        args = [workload, "--seed", str(pass_seed(seed, len(passes)))]
        setup, result = spawn(binary, args)
        setups.append(setup)
        passes.append(result)
        if time.monotonic() - started >= seconds:
            break
    setups = setup_samples(binary, [workload, "--seed", str(seed)], setups)
    check = check_cold if workload == "cold-plan" else check_sweep
    for result in passes:
        check(result, checker)
    # Every pass does the same work, whatever its order: the exact-eval
    # count must repeat, or a pass was not cold.
    evals = sorted({r["evals"] for r in passes})
    if len(evals) != 1:
        checker.problem(f"search.evals differs between fresh-process passes: {evals}")
        checker.valid = False
    log(f"{workload}: {len(passes)} passes, search.evals {evals}")
    metrics = closed_loop_metrics(workload, passes)
    metrics["setup_s"] = median(setups)
    return metrics


def prepare_cache(binary, work):
    cache = work / "serve-cache"
    shutil.rmtree(cache, ignore_errors=True)
    _, prep = spawn_plain(binary, ["serve-prep", "--cache", str(cache)])
    log(f"serve-prep: {prep}")
    return cache


def spawn_plain(binary, args):
    """Runs a helper process that prints no `ready` line."""
    result = subprocess.run([str(binary)] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, timeout=PASS_TIMEOUT_S)
    if result.returncode != 0:
        raise PassFailed(f"{args[0]} exited with {result.returncode}")
    lines = [l for l in result.stdout.splitlines() if l.strip()]
    return None, json.loads(lines[-1])


def run_serve(binary, seed, seconds, rates, work, checker):
    cache = prepare_cache(binary, work)
    args = serve_args(seed, cache, rates, seconds)
    setup, result = spawn(binary, args)
    setups = setup_samples(binary, args, [setup])
    check_serve(result, checker)
    metrics = serve_metrics(result)
    metrics["setup_s"] = median(setups)
    return metrics


# -------------------------------------------------------------- traces


def span_index(trace):
    by_name = defaultdict(list)
    by_id = {}
    children = defaultdict(list)
    for s in trace["spans"]:
        by_name[s["name"]].append(s)
        by_id[s["id"]] = s
        if s["parent"]:
            children[s["parent"]].append(s)
    return by_name, by_id, children


def duration(span):
    return span["end_ns"] - span["start_ns"]


def layer_metrics(workload, trace, traced_result, untraced_result):
    """Every per-layer metric from one traced pass; a layer the workload
    does not exercise reads 0."""
    by_name, by_id, children = span_index(trace)
    c = trace["counters"]
    m = {name: 0.0 for name, _ in PER_LAYER}

    def mean_us(name):
        spans = by_name.get(name, [])
        return sum(duration(s) for s in spans) / len(spans) / 1e3 if spans else 0.0

    def per_item_us(name):
        spans = by_name.get(name, [])
        items = sum(s["items"] for s in spans)
        return sum(duration(s) for s in spans) / items / 1e3 if items else 0.0

    def p50_ms(name):
        return percentile([duration(s) / 1e6 for s in by_name.get(name, [])], 50)

    def rate(hits, misses):
        total = c.get(hits, 0.0) + c.get(misses, 0.0)
        return c.get(hits, 0.0) / total if total else 0.0

    # serve: queue wait (due -> handle start), handle, reply overhead.
    handles = by_name.get("serve.handle_line/solve", []) + by_name.get("serve.handle_line/stats", [])
    if handles:
        waits = [(h["start_ns"] - by_id[h["parent"]]["start_ns"]) / 1e6 for h in handles]
        durs = [duration(h) / 1e6 for h in handles]
        m["serve.queue_wait_ms.p50"] = percentile(waits, 50)
        m["serve.queue_wait_ms.p99"] = percentile(waits, 99)
        m["serve.handle_ms.p50"] = percentile(durs, 50)
        m["serve.handle_ms.p99"] = percentile(durs, 99)
        overhead = [
            (duration(h) - sum(duration(k) for k in children[h["id"]])) / 1e3
            for h in by_name.get("serve.handle_line/solve", [])
        ]
        m["serve.reply_overhead_us.p50"] = percentile(overhead, 50)
        m["serve.stats_us.p50"] = percentile(
            [duration(h) / 1e3 for h in by_name.get("serve.handle_line/stats", [])], 50)
        m["serve.generator_lag_ms.max"] = max(p["lag_max_ms"] for p in traced_result["phases"])

    # persist
    m["persist.import_s"] = sum(duration(s) for s in by_name.get("persist.import_cost_table", [])) / 1e9
    m["persist.cache_bytes"] = c.get("persist.cache_bytes", 0.0)

    # search: exact counts of the real solves.
    if workload == "serve-mix":
        r = traced_result
        evals, hits = r["evals"], r["hits"]
        m["search.evals"] = evals
        m["search.hit_rate"] = hits / (hits + evals) if hits + evals else 0.0
        m["search.coalesced"] = r["coalesced"]
        m["search.shard_waits"] = r["shard_waits"]
    else:
        m["search.evals"] = c.get("search.evals", 0.0)
        m["search.hit_rate"] = rate("search.hits", "search.evals")
        m["search.coalesced"] = c.get("search.coalesced", 0.0)
        m["search.shard_waits"] = c.get("search.shard_waits", 0.0)
        m["search.bound_pruned"] = c.get("search.bound_pruned", 0.0)
        m["search.dominated_pruned"] = c.get("search.dominated_pruned", 0.0)
        m["cost.mapping_memo_hit_rate"] = rate("cost.mapping_memo.hits", "cost.mapping_memo.misses")
        m["cost.collective_memo_hit_rate"] = rate(
            "cost.collective_memo.hits", "cost.collective_memo.misses")
        m["sim.contention_warm_hit_rate"] = rate(
            "sim.contention_warm.hits", "sim.contention_warm.misses")
    firsts = by_name.get("search.context_first", [])
    if firsts:
        built = sum(duration(s) for s in firsts + by_name.get("search.pool_new", []))
        m["search.enumerate_ms"] = built / len(firsts) / 1e6
    m["search.solve_ms.p50"] = p50_ms("search.solve")

    # cost, mapping, sim, dp: the replay's per-call and per-item times.
    m["cost.bound_us_per_cand"] = per_item_us("cost.chain_bounds")
    m["cost.exact_us_per_eval"] = per_item_us("cost.evaluate_batch.cold")
    m["cost.exact_warm_us_per_eval"] = per_item_us("cost.evaluate_batch.warm")
    m["cost.segment_us_per_eval"] = per_item_us("cost.evaluate_segment")
    for engine in ("tcme", "smap", "gmap"):
        m[f"mapping.map_us_per_call.{engine}"] = mean_us(f"mapping.map_hybrid.{engine}")
    m["mapping.optimize_us_per_call"] = mean_us("mapping.optimize")
    flows = by_name.get("mapping.layer_flows", [])
    m["mapping.flows_per_layer"] = sum(s["items"] for s in flows) / len(flows) if flows else 0.0
    m["sim.contention_us_per_call"] = mean_us("sim.contention")
    m["sim.collective_us_per_call"] = per_item_us("sim.collective")
    m["dp.solve_chain_us_per_call"] = mean_us("dp.solve_chain")
    m["dp.balance_cuts_us_per_call"] = mean_us("dp.balance_cuts")
    m["stage.solve_ms.p50"] = p50_ms("stage.solve")
    m["core.compare_all_ms.p50"] = p50_ms("core.compare_all")
    m["core.sweep_ms.p50"] = p50_ms("core.sweep")
    m["runtime.workers"] = c.get("runtime.workers", 0.0)
    m["trace.overhead_pct"] = overhead_pct(workload, traced_result, untraced_result)
    return m


def overhead_pct(workload, traced, untraced):
    """Traced against untraced: the measured loop's wall time, or for the
    open loop the median request latency."""
    if workload == "serve-mix":
        def p50(result):
            return block_median([b for p in result["phases"] for b in p["blocks_lat_ms"]], 50)
        return (p50(traced) / p50(untraced) - 1.0) * 100.0
    return (traced["wall_s"] / untraced["wall_s"] - 1.0) * 100.0


def run_traced(binary, workload, seed, seconds, rates, work, checker):
    traces = target_dir() / "perfbench-traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{workload}-seed{seed}.json"
    if workload == "serve-mix":
        cache = prepare_cache(binary, work)
        args = serve_args(seed, cache, rates, seconds)
        check = check_serve
    else:
        args = [workload, "--seed", str(seed)]
        check = check_cold if workload == "cold-plan" else check_sweep
    _, untraced = spawn(binary, args)
    _, traced = spawn(binary, args + ["--trace", str(path)])
    for result in (untraced, traced):
        check(result, checker)
    trace = json.loads(path.read_text())
    log(f"{workload}: {len(trace['spans'])} spans written to {path}")
    if workload != "serve-mix" and untraced["evals"] != traced["evals"]:
        checker.problem(f"search.evals differs: untraced {untraced['evals']}, traced {traced['evals']}")
        checker.valid = False
    return layer_metrics(workload, trace, traced, untraced)


# ---------------------------------------------------------------- main


def write_reference(binary):
    _, reference = spawn_plain(binary, ["reference"])
    path = HERE / "reference" / f"v{reference['cost_model_version']}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    log(f"wrote {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rates", default="200,500,1000",
                        help="serve-mix offered rates (low,mid,high), requests/s")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.write_reference:
        write_reference(binary)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    rates = [float(r) for r in args.rates.split(",")]
    if len(rates) != len(LEVELS):
        parser.error("--rates takes three rates")
    reference = load_reference(binary)
    if reference is None:
        return 1

    checker = Checker(reference)
    work = target_dir() / "perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            values = run_traced(binary, args.workload, args.seed, args.seconds, rates, work, checker)
            names = PER_LAYER
        elif args.workload == "serve-mix":
            values = run_serve(binary, args.seed, args.seconds, rates, work, checker)
            names = END_TO_END
        else:
            values = run_closed_loop(binary, args.workload, args.seed, args.seconds, checker)
            names = END_TO_END
    except PassFailed as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in checker.problems:
        log(f"check failed: {problem}")
    if checker.attempted:
        log(f"failed_ratio {checker.failed / checker.attempted:.6f} "
            f"({checker.failed} of {checker.attempted})")
    if names is END_TO_END:
        log("latency: " + " ".join(f"{n}={values[n]:.4g}{u}" for n, u in LOGGED))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    print(json.dumps({
        "correct": checker.failed == 0 and checker.valid and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
