//! The shared search pipeline behind every DLWS solve.
//!
//! A [`SearchContext`] owns everything that is invariant across solves of
//! one `(wafer, model, workload)` triple:
//!
//! * the **candidate enumeration** — computed once, reused by every
//!   engine/filter combination (per-solve pipeline degrees are applied as
//!   a cheap rewrite of the base tuples);
//! * the **resharding transition cost** — computed once per context
//!   instead of once per solve;
//! * a **memoized evaluation cache** keyed by
//!   `(HybridConfig, MappingEngine, RecomputeMode)` — the expensive part
//!   of a solve is costing candidates (each one maps traffic onto the
//!   wafer and runs the contention simulator), and baseline sweeps like
//!   `Temp::compare_all()` cost heavily overlapping candidate spaces;
//! * **one costing stream** — every batch, pruned or exhaustive, is
//!   costed by the best-first stream of
//!   `SearchContext::cost_candidates_bounded`, whose lanes run on the
//!   persistent solver runtime ([`crate::runtime`]);
//! * **cross-process warmth** — the evaluation cache and plan memo
//!   round-trip through plain text ([`SearchContext::export_cost_table`] /
//!   [`SearchContext::import_cost_table`]), fingerprint-keyed so imports
//!   can never cross wafers, models, workloads or cost-model revisions;
//!   the segment table is not persisted, because its rows are closed form
//!   and recomputed on first read;
//! * a **plan memo** keyed by `PlanKey` — a solved plan is a pure
//!   function of the costs above plus the solve's engine, pipeline
//!   degree and candidate list, so a repeated query returns the stored
//!   [`ExecutionPlan`] without costing or DP (see
//!   `SearchContext::memoized_plan`).
//!
//! Sharing a context across solves (clone the [`std::sync::Arc`]) turns
//! the seed behavior — seven baselines × full re-enumeration and
//! re-costing — into one costing pass per distinct evaluation key.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};

use temp_graph::segment::{SegmentChain, SegmentKind};
use temp_graph::workload::{RecomputeMode, Workload};
use temp_mapping::engines::MappingEngine;
use temp_parallel::strategy::HybridConfig;
use temp_wsc::fault::FaultMap;

use crate::cost::{CostReport, EvalHoist, SegmentCost, WaferCostModel};
use crate::dlws::{ExecutionPlan, PlanKey};
use crate::runtime::CancelToken;
use crate::shard::{Claim, Flight, FlightLease, FlightTable, ShardedMap, WordHashMap};

/// Memoization key: one cost-model evaluation is fully determined by the
/// configuration, the mapping engine and the recompute mode (the wafer,
/// model and the rest of the workload are fixed per context).
pub type EvalKey = (HybridConfig, MappingEngine, RecomputeMode);

/// Memoization key of the per-segment cost table: one entry per
/// `(SegmentKind, HybridConfig, recompute)` — block instances are
/// identical, so the kind (not the instance index) keys the table, and
/// segment costs never depend on the mapping engine (see
/// [`WaferCostModel::evaluate_segment_with`]) or the pipeline degree (the
/// config is stored with `pp = 1`), so one table serves every engine and
/// every sweep point.
pub type SegmentKey = (SegmentKind, HybridConfig, RecomputeMode);

/// A costed candidate: its objective (step time; infinite when nothing
/// fits memory) and, when feasible, the workload it was planned under
/// (recompute may have escalated) plus the full report.
pub type CandidateCost = (f64, Option<(Workload, CostReport)>);

/// Cache counters for one context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Evaluations answered from the cache.
    pub hits: u64,
    /// Evaluations that ran the cost model. Single-flight coalescing
    /// makes this equal to the number of distinct keys costed even under
    /// concurrent solves: a key's first claimant computes, every
    /// concurrent claimant counts under [`SearchStats::coalesced`]
    /// instead.
    pub misses: u64,
    /// Lookups that missed while another thread was already costing the
    /// same key: the caller parked on the in-flight evaluation (helping
    /// the runtime meanwhile) and observed the leader's stored report
    /// instead of recomputing. Each of these would have been a duplicate
    /// cost-model run before single-flight coalescing.
    pub coalesced: u64,
    /// Lock-shard acquisitions (cost table, segment table, mapping
    /// memo) that found their shard contended and had to block — the
    /// residual serialization left after sharding.
    pub shard_waits: u64,
    /// Per-segment cost-table lookups answered from the table.
    pub seg_hits: u64,
    /// Per-segment cost-table entries computed (closed-form; cheap, but
    /// counted so tests can assert the table is memoized).
    pub seg_misses: u64,
    /// Candidates the admissible prefilter rejected outright (invalid
    /// degrees, disconnected fabric, or HBM overflow under every
    /// recompute escalation) — exactly the set the exact path would have
    /// reported infinite, skipped without evaluation.
    pub bound_pruned: u64,
    /// Candidates whose admissible lower bound exceeded the incumbent
    /// committed before them, skipped without evaluation (see
    /// `SearchContext::cost_candidates_bounded`).
    pub dominated_pruned: u64,
    /// Speculative verdicts the best-first stream computed past its
    /// commit frontier and then discarded (their bound turned out
    /// dominated, or a paused frontier dropped them): the wasted work of
    /// costing ahead. Never cached, never counted as misses; depends on
    /// scheduling, unlike every other count here.
    pub discarded: u64,
    /// Wall time (ns) spent enumerating the candidate space.
    pub enumerate_ns: u64,
    /// Wall time (ns) spent in the batched bound prefilter (bounds,
    /// end-segment floors, pruning decisions).
    pub bound_ns: u64,
    /// Wall time (ns) spent in exact batch costing (mapping + contention
    /// simulation of cache misses).
    pub exact_ns: u64,
    /// Wall time (ns) spent deriving degraded fabrics (DegradedView +
    /// rerouted ContentionSim), attributed to the context that spawned
    /// the degraded sibling. ContentionSim runs on the healthy path too,
    /// inside exact costing; that time is part of `exact_ns`.
    pub derate_ns: u64,
    /// Solves answered whole from the plan memo (solved here or restored
    /// by an import): no cost-table lookup or chain DP ran, so they add
    /// to neither `hits` nor `misses`.
    pub plan_hits: u64,
}

impl SearchStats {
    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total candidates skipped without exact evaluation (prefilter +
    /// incumbent dominance).
    pub fn pruned_candidates(&self) -> u64 {
        self.bound_pruned + self.dominated_pruned
    }

    /// The phase timing breakdown in seconds:
    /// `(enumerate, bound, exact, derate)`.
    pub fn phase_seconds(&self) -> (f64, f64, f64, f64) {
        let s = |ns: u64| ns as f64 / 1e9;
        (
            s(self.enumerate_ns),
            s(self.bound_ns),
            s(self.exact_ns),
            s(self.derate_ns),
        )
    }
}

impl std::ops::AddAssign for SearchStats {
    /// Field-by-field sum: the one way pool- and server-wide stats roll
    /// up from contexts.
    fn add_assign(&mut self, other: SearchStats) {
        // Destructured, so a new field cannot be left out of the sum.
        let SearchStats {
            hits,
            misses,
            coalesced,
            shard_waits,
            seg_hits,
            seg_misses,
            bound_pruned,
            dominated_pruned,
            discarded,
            enumerate_ns,
            bound_ns,
            exact_ns,
            derate_ns,
            plan_hits,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.coalesced += coalesced;
        self.shard_waits += shard_waits;
        self.seg_hits += seg_hits;
        self.seg_misses += seg_misses;
        self.bound_pruned += bound_pruned;
        self.dominated_pruned += dominated_pruned;
        self.discarded += discarded;
        self.enumerate_ns += enumerate_ns;
        self.bound_ns += bound_ns;
        self.exact_ns += exact_ns;
        self.derate_ns += derate_ns;
        self.plan_hits += plan_hits;
    }
}

/// What [`SearchContext::import_cost_table`] brought in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportSummary {
    /// Whole-chain evaluation entries imported (including cached
    /// failures).
    pub evals: usize,
    /// Solved plans restored into the plan memo.
    pub plans: usize,
}

/// Shared, thread-safe search state for one `(wafer, model, workload)`
/// triple. See the module docs for what is amortized here.
#[derive(Debug)]
pub struct SearchContext {
    cost: WaferCostModel,
    /// The full intra-wafer candidate space (pp = 1): every power-of-two
    /// degree tuple, with and without FSDP sharding. `Arc` so a
    /// [`crate::pool::ContextPool`] can share one enumeration across every
    /// model planned on the same wafer.
    base_candidates: Arc<Vec<HybridConfig>>,
    /// Transition cost between two distinct configurations: the
    /// layer-boundary activation redistributed over the wafer bisection.
    /// Identical configurations transition for free.
    full_reshard: f64,
    /// Whether batch costing may fan out over threads.
    parallel: AtomicBool,
    /// Whole-chain evaluation cache, sharded so concurrent solvers on
    /// different keys do not serialize on one lock.
    cache: ShardedMap<EvalKey, Option<CostReport>>,
    /// Single-flight claims over `cache` keys: when concurrent solves
    /// miss on the same key, one leader costs it and every follower
    /// parks on the flight (helping the runtime) instead of recomputing.
    flights: FlightTable<EvalKey>,
    /// Per-segment cost table — closed-form entries, memoized so repeated
    /// chain solves read their end-segment rows for free.
    seg_cache: ShardedMap<SegmentKey, Option<SegmentCost>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Lookups answered by parking on another thread's in-flight
    /// evaluation (see [`SearchStats::coalesced`]).
    coalesced: AtomicU64,
    seg_hits: AtomicU64,
    seg_misses: AtomicU64,
    /// Whether the chain and stage costing paths may skip candidates via
    /// the admissible prefilter + incumbent dominance (default on; turned
    /// off for exhaustive reference runs).
    pruning: AtomicBool,
    bound_pruned: AtomicU64,
    dominated_pruned: AtomicU64,
    discarded: AtomicU64,
    enumerate_ns: AtomicU64,
    bound_ns: AtomicU64,
    exact_ns: AtomicU64,
    derate_ns: AtomicU64,
    /// Solved plans. Every entry was computed under the current settings
    /// by a solve with no deadline.
    plans: RwLock<WordHashMap<PlanKey, ExecutionPlan>>,
    /// Bumped after every settings change that can move a winner (which
    /// also clears `plans`). A solve stores its plan only if the epoch it
    /// drew at start is still current at the end.
    plan_epoch: AtomicU64,
    plan_hits: AtomicU64,
}

impl SearchContext {
    /// Builds a context: enumerates the candidate space and prices the
    /// resharding transition once. MoE models extend the dense
    /// enumeration with expert-parallel tuples (`ep > 1`, capped at the
    /// expert count) — see [`SearchContext::enumerate_moe_candidates`].
    pub fn new(cost: WaferCostModel) -> Self {
        let started = std::time::Instant::now();
        let dies = cost.wafer().die_count();
        let base = match cost.model().moe {
            Some(moe) => Arc::new(Self::enumerate_moe_candidates(
                dies,
                moe.num_experts as usize,
            )),
            None => Arc::new(Self::enumerate_base_candidates(dies)),
        };
        let elapsed = started.elapsed().as_nanos() as u64;
        let ctx = Self::with_shared_candidates(cost, base);
        ctx.enumerate_ns.fetch_add(elapsed, Ordering::Relaxed);
        ctx
    }

    /// The wafer-level candidate enumeration a context is built over —
    /// it depends only on the die count, so zoo sweeps on one wafer can
    /// compute it once and share it across models (see
    /// [`crate::pool::ContextPool`]).
    pub fn enumerate_base_candidates(dies: usize) -> Vec<HybridConfig> {
        let mut base_candidates = HybridConfig::enumerate_tuples(dies, false);
        base_candidates.extend(
            HybridConfig::enumerate_tuples(dies, true)
                .into_iter()
                .filter(|c| c.dp > 1),
        );
        base_candidates
    }

    /// The MoE candidate enumeration: the dense tuples (its `ep = 1`
    /// prefix, so dense segments keep their full space) extended with
    /// every expert-parallel degree up to `min(num_experts, dies)`. Dense
    /// models never see `ep > 1` candidates — their behavior (and eval
    /// count) is byte-identical to the pre-MoE pipeline.
    pub fn enumerate_moe_candidates(dies: usize, num_experts: usize) -> Vec<HybridConfig> {
        let max_ep = num_experts.min(dies);
        let mut out = HybridConfig::enumerate_tuples_ep(dies, false, max_ep);
        out.extend(
            HybridConfig::enumerate_tuples_ep(dies, true, max_ep)
                .into_iter()
                .filter(|c| c.dp > 1),
        );
        out
    }

    /// As [`SearchContext::new`] with an externally-shared candidate
    /// enumeration. A pooled (dense) enumeration handed to a MoE model is
    /// extended with the expert-parallel tuples; dense models must be
    /// given candidates covering this wafer's die count.
    pub fn with_shared_candidates(
        cost: WaferCostModel,
        base_candidates: Arc<Vec<HybridConfig>>,
    ) -> Self {
        let started = std::time::Instant::now();
        let dies = cost.wafer().die_count();
        let base_candidates = match cost.model().moe {
            Some(moe) if base_candidates.iter().all(|c| c.ep == 1) => Arc::new(
                Self::enumerate_moe_candidates(dies, moe.num_experts as usize),
            ),
            _ => base_candidates,
        };
        let enumerate_ns = started.elapsed().as_nanos() as u64;
        debug_assert!(base_candidates
            .iter()
            .all(|c| c.intra_wafer_degree() * c.ep == dies));

        // All-to-all of one layer-boundary activation over the wafer
        // bisection, approximated as sqrt(dies) rows of links.
        let model = cost.model();
        let workload = cost.workload();
        let act_bytes = workload.micro_batch_size() as f64
            * workload.seq_len as f64
            * model.hidden as f64
            * workload.compute_dtype.bytes() as f64;
        let bisection = cost.wafer().d2d.bandwidth * (dies as f64).sqrt();
        let full_reshard = act_bytes / bisection;

        SearchContext {
            cost,
            base_candidates,
            full_reshard,
            parallel: AtomicBool::new(true),
            cache: ShardedMap::new(),
            flights: FlightTable::new(),
            seg_cache: ShardedMap::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            seg_hits: AtomicU64::new(0),
            seg_misses: AtomicU64::new(0),
            pruning: AtomicBool::new(true),
            bound_pruned: AtomicU64::new(0),
            dominated_pruned: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            enumerate_ns: AtomicU64::new(enumerate_ns),
            bound_ns: AtomicU64::new(0),
            exact_ns: AtomicU64::new(0),
            derate_ns: AtomicU64::new(0),
            plans: RwLock::default(),
            plan_epoch: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
        }
    }

    /// The model's segment chain IR (embedding -> blocks -> head), built
    /// once by the cost model.
    pub fn chain(&self) -> &SegmentChain {
        self.cost.chain()
    }

    /// Memoized per-segment cost of one `(kind, config, recompute)` key.
    /// The config is keyed and evaluated with `pp = 1`: a segment row is
    /// one wafer's cost (no segment formula reads the pipeline degree), so
    /// every pipeline degree of a config shares its rows. `None` records
    /// "the segment could not be evaluated" (invalid configuration),
    /// exactly like the whole-chain cache.
    pub fn segment_cost(
        &self,
        kind: SegmentKind,
        cfg: &HybridConfig,
        mode: RecomputeMode,
    ) -> Option<SegmentCost> {
        let cfg = &HybridConfig { pp: 1, ..*cfg };
        let key = (kind, *cfg, mode);
        if let Some(cached) = self.seg_cache.get(&key) {
            self.seg_hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        self.seg_misses.fetch_add(1, Ordering::Relaxed);
        let segment = self.cost.chain().find(kind)?;
        let workload = self.cost.workload().clone().with_recompute(mode);
        let result = self
            .cost
            .evaluate_segment_with(segment, cfg, &workload)
            .ok();
        self.seg_cache.insert_if_absent(key, result)
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &WaferCostModel {
        &self.cost
    }

    /// The base (pp = 1) candidate space, enumerated once at construction.
    pub fn candidates(&self) -> &[HybridConfig] {
        &self.base_candidates
    }

    /// The shared handle behind [`SearchContext::candidates`] — pooled
    /// contexts on one wafer return pointer-identical enumerations.
    pub fn candidates_arc(&self) -> Arc<Vec<HybridConfig>> {
        Arc::clone(&self.base_candidates)
    }

    /// The base candidates with a fixed pipeline degree applied
    /// (multi-wafer planning fixes `pp` to the wafer count).
    pub fn candidates_with_pp(&self, pp: usize) -> Vec<HybridConfig> {
        self.base_candidates
            .iter()
            .map(|c| HybridConfig {
                pp: pp.max(1),
                ..*c
            })
            .collect()
    }

    /// Enables/disables threaded batch costing (default: enabled; a
    /// single-core machine degrades to the serial path either way).
    pub fn set_parallel(&self, on: bool) {
        self.parallel.store(on, Ordering::Relaxed);
    }

    /// Whether batch costing fans out over threads.
    pub fn parallel(&self) -> bool {
        self.parallel.load(Ordering::Relaxed)
    }

    /// A sibling context planning on the degraded fabric `faults`
    /// describes: same `(model, workload)`, fault-derated cost model (see
    /// [`WaferCostModel::with_fault_map`]), and the **shared** candidate
    /// enumeration (it depends only on the die count — faults do not
    /// change which degree tuples exist, only which are feasible). The
    /// caches start empty: degraded evaluations live under a different
    /// fingerprint and must never mix with healthy entries.
    pub fn derated(&self, faults: &FaultMap) -> SearchContext {
        let started = std::time::Instant::now();
        let ctx =
            SearchContext::with_shared_candidates(self.cost.derated(faults), self.candidates_arc());
        // Deriving the DegradedView and the rerouted ContentionSim is the
        // expensive part of spawning a degraded sibling; attribute it to
        // the parent so campaign profiles show where fault sweeps spend.
        self.derate_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        ctx
    }

    /// Enables/disables bound pruning in the chain and stage costing
    /// paths (default: enabled). Exhaustive reference runs (tests,
    /// benchmark baselines) disable it; plans are bit-identical either
    /// way — the flag only changes how many candidates pay the exact cost
    /// model. With pruning off both paths cost every candidate through
    /// [`SearchContext::cost_candidates`], which passes no token:
    /// deadlines bound pruned solves only, so a deadline'd solve costs
    /// the whole space like an undeadlined one.
    pub fn set_pruning(&self, on: bool) {
        if self.pruning.swap(on, Ordering::Relaxed) != on {
            self.replace_plans(Vec::new());
        }
    }

    /// Whether the chain and stage costing paths may prune.
    pub fn pruning(&self) -> bool {
        self.pruning.load(Ordering::Relaxed)
    }

    /// Serializes the warm state of this context that takes a mapping or
    /// a solve to rebuild — the whole-chain evaluation cache (including
    /// memoized *failures*) and the plan memo — as plain text, keyed by
    /// [`WaferCostModel::fingerprint`]. A fresh context importing this
    /// answers every memoized solve from its restored plan, and re-solves
    /// other searches with near-zero exact evaluations. The per-segment
    /// cost table is left out: its rows are closed form, so a re-solve
    /// recomputes each one on first read in microseconds.
    ///
    /// Format (line-oriented, floats `{:?}`-rendered so they round-trip
    /// bit-exactly):
    ///
    /// ```text
    /// temp-cache v6 <fingerprint as 16 hex digits>
    /// evals <n>
    /// E <dp> <fsdp> <tp> <sp> <cp> <tatp> <ep> <pp> <engine> <mode> <report | ->
    /// plans <n> <enumeration hash as 16 hex digits>
    /// P <engine> <pp> <words> <mask word>... <winner cfg> <mode> <report>
    ///   <segments> (<kind> <count> <cfg> <step-time>)... <chain-cost>
    /// ```
    ///
    /// A `P` record (one line) is a memoized plan: its key's admitted
    /// candidates are a hex bitmask over
    /// [`SearchContext::candidates_with_pp`], and its workload is the
    /// context's own with the plan's recompute mode. The `plans` line
    /// carries a hash of the base enumeration the masks index, so a
    /// file written under another enumeration is rejected. Deadline'd solves
    /// never enter the memo, so no best-effort plan is ever written.
    /// Records are sorted, so exporting the same state twice yields
    /// byte-identical text (HashMap iteration order never leaks out).
    pub fn export_cost_table(&self) -> String {
        use crate::persist;
        use std::fmt::Write as _;

        let mut out = format!("temp-cache v6 {:016x}\n", self.cost.fingerprint());

        let mut evals: Vec<String> = self
            .cache
            .snapshot()
            .into_iter()
            .map(|((cfg, engine, mode), report)| {
                let payload = match report {
                    Some(r) => persist::encode_report(&r),
                    None => "-".to_string(),
                };
                format!(
                    "E {} {} {} {payload}",
                    persist::encode_cfg(&cfg),
                    persist::engine_code(engine),
                    persist::mode_code(mode),
                )
            })
            .collect();
        evals.sort_unstable();
        writeln!(out, "evals {}", evals.len()).expect("write to string");
        for line in evals {
            out.push_str(&line);
            out.push('\n');
        }

        let mut plans: Vec<String> = self
            .plans
            .read()
            .expect("plan memo lock")
            .iter()
            .map(|(key, plan)| {
                format!(
                    "P {} {} {} {}",
                    persist::engine_code(key.engine),
                    key.pp,
                    persist::encode_mask(&self.candidates_with_pp(key.pp), &key.candidates),
                    persist::encode_plan(plan),
                )
            })
            .collect();
        plans.sort_unstable();
        writeln!(
            out,
            "plans {} {:016x}",
            plans.len(),
            persist::enumeration_hash(self.candidates())
        )
        .expect("write to string");
        for line in plans {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Imports a cache persisted by [`SearchContext::export_cost_table`]
    /// into this context, merging entry by entry (existing entries win —
    /// an import never clobbers state the live context already computed).
    /// The plan memo is replaced by the file's plans.
    ///
    /// Imported entries touch neither the hit nor the miss counters:
    /// stats keep measuring what *this* process computed and reused.
    ///
    /// # Errors
    ///
    /// Rejects text whose header (including any other format version),
    /// fingerprint (wrong wafer/model/workload or cost-model revision —
    /// see [`crate::cost::COST_MODEL_VERSION`]) or any record is
    /// malformed, including section counts the file cannot hold and codes
    /// out of range for their field; on error the context is left exactly
    /// as it was (the import is parsed fully before anything is merged).
    pub fn import_cost_table(&self, text: &str) -> std::result::Result<ImportSummary, String> {
        use crate::persist::{self, Fields};

        let mut lines = text.lines();
        let header = lines.next().ok_or("empty cache text")?;
        let mut f = Fields::new(header);
        if f.next()? != "temp-cache" || f.next()? != "v6" {
            return Err(format!("not a temp-cache v6 header: {header:?}"));
        }
        let fp = u64::from_str_radix(f.next()?, 16).map_err(|e| format!("bad fingerprint: {e}"))?;
        f.finish()?;
        let own = self.cost.fingerprint();
        if fp != own {
            return Err(format!(
                "cache fingerprint {fp:016x} does not match this context's {own:016x} \
                 (different wafer, model, workload or cost-model version)"
            ));
        }

        // Section counts come from the file itself: never reserve more
        // records than the file has lines.
        let line_count = text.bytes().filter(|&b| b == b'\n').count() + 1;

        // Parse everything first; merge only a fully-valid import.
        let evals_line = lines.next().ok_or("missing evals section")?;
        let mut f = Fields::new(evals_line);
        if f.next()? != "evals" {
            return Err(format!("expected evals section, got {evals_line:?}"));
        }
        let n_evals = f.usize()?;
        f.finish()?;
        let mut evals = Vec::with_capacity(n_evals.min(line_count));
        for _ in 0..n_evals {
            let line = lines.next().ok_or("truncated evals section")?;
            let mut f = Fields::new(line);
            if f.next()? != "E" {
                return Err(format!("expected E record, got {line:?}"));
            }
            let cfg = persist::decode_cfg(&mut f)?;
            let engine = persist::engine_from_code(f.u8()?)?;
            let mode = persist::mode_from_code(f.u8()?)?;
            let report = if f.takes_none_marker() {
                None
            } else {
                Some(persist::decode_report(cfg, engine, &mut f)?)
            };
            f.finish()?;
            evals.push(((cfg, engine, mode), report));
        }

        let plans_line = lines.next().ok_or("missing plans section")?;
        let mut f = Fields::new(plans_line);
        if f.next()? != "plans" {
            return Err(format!("expected plans section, got {plans_line:?}"));
        }
        let n_plans = f.usize()?;
        let enumeration =
            u64::from_str_radix(f.next()?, 16).map_err(|e| format!("bad enumeration hash: {e}"))?;
        f.finish()?;
        let own = persist::enumeration_hash(self.candidates());
        if enumeration != own {
            return Err(format!(
                "plans index candidate enumeration {enumeration:016x}, \
                 this context enumerates {own:016x}"
            ));
        }
        let mut plans = Vec::with_capacity(n_plans.min(line_count));
        for _ in 0..n_plans {
            let line = lines.next().ok_or("truncated plans section")?;
            let mut f = Fields::new(line);
            if f.next()? != "P" {
                return Err(format!("expected P record, got {line:?}"));
            }
            let engine = persist::engine_from_code(f.u8()?)?;
            let pp = f.usize()?;
            let candidates = persist::decode_mask(&mut f, &self.candidates_with_pp(pp))?;
            let plan = persist::decode_plan(engine, self.cost.workload(), &mut f)?;
            f.finish()?;
            let key = PlanKey {
                engine,
                pp,
                candidates,
            };
            plans.push((key, plan));
        }

        // All parsed — merge.
        let summary = ImportSummary {
            evals: evals.len(),
            plans: plans.len(),
        };
        for (key, report) in evals {
            self.cache.insert_if_absent(key, report);
        }
        // Imported verdicts can move what the incumbent sees, so the
        // memo is replaced by the file's plans, each a pure function of
        // the table it was saved with.
        self.replace_plans(plans);
        Ok(summary)
    }

    /// Per-step DP-row costs of one segment kind over a candidate list:
    /// `count x micro_batches x` the memoized per-instance segment time,
    /// `INFINITY` where the segment's own footprint does not fit a die.
    /// When *every* candidate fails the per-segment check the row is
    /// rebuilt without it (the check is a necessary-condition heuristic;
    /// whole-chain feasibility is settled by the exact evaluation), so the
    /// chain objective never silently drops a segment's real cost.
    ///
    /// This is the single source of the end-segment rows for both the
    /// chain DP (`Dlws`) and the pruned path's incumbent and floors —
    /// they must agree or the pruning stops being admissible.
    ///
    /// Segment costs do not depend on the mapping engine, so `_engine`
    /// does not enter the row; it is accepted so every engine's solve
    /// calls this one way.
    pub fn segment_step_costs(
        &self,
        kind: SegmentKind,
        candidates: &[HybridConfig],
        _engine: MappingEngine,
        mode: RecomputeMode,
    ) -> Vec<f64> {
        let count = self.cost.chain().find(kind).map(|s| s.count).unwrap_or(1) as f64;
        let micro = self.cost.workload().micro_batches.max(1) as f64;
        let row_with = |require_fit: bool| -> Vec<f64> {
            candidates
                .iter()
                .map(|cfg| match self.segment_cost(kind, cfg, mode) {
                    Some(sc) if sc.fits_memory || !require_fit => sc.time * count * micro,
                    _ => f64::INFINITY,
                })
                .collect()
        };
        let row = row_with(true);
        if row.iter().all(|t| !t.is_finite()) {
            row_with(false)
        } else {
            row
        }
    }

    /// Resharding (transition) cost between two candidate configurations.
    pub fn resharding_cost(&self, a: &HybridConfig, b: &HybridConfig) -> f64 {
        if a == b {
            0.0
        } else {
            self.full_reshard
        }
    }

    /// The off-diagonal resharding cost (one layer-boundary activation
    /// over the wafer bisection) — what any two distinct strategies pay
    /// per boundary crossing.
    pub fn full_reshard_cost(&self) -> f64 {
        self.full_reshard
    }

    /// Distinct evaluation keys the whole-chain cache holds (computed,
    /// coalesced or imported). The denominator of the duplicate-work
    /// ratio serving benchmarks report: `misses / eval_cache_len` stays
    /// at 1.0 when single-flight coalescing absorbs every concurrent
    /// duplicate.
    pub fn eval_cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Plans the memo holds.
    pub fn plan_memo_len(&self) -> usize {
        self.plans.read().expect("plan memo lock").len()
    }

    /// The memoized plan for `key`, counted under
    /// [`SearchStats::plan_hits`]. Deadline'd solves read the memo too, so
    /// a warm key never times out.
    pub(crate) fn memoized_plan(&self, key: &PlanKey) -> Option<ExecutionPlan> {
        let plan = self
            .plans
            .read()
            .expect("plan memo lock")
            .get(key)
            .cloned()?;
        self.plan_hits.fetch_add(1, Ordering::Relaxed);
        Some(plan)
    }

    /// The ticket an undeadlined solve draws before it starts: the
    /// current settings epoch.
    pub(crate) fn plan_ticket(&self) -> u64 {
        self.plan_epoch.load(Ordering::SeqCst)
    }

    /// Stores a solved plan when its `ticket` is still current: no
    /// setting changed since the solve drew it. Checked under the memo
    /// lock, so an invalidation racing the store either fails the check
    /// or clears the entry after it.
    pub(crate) fn memoize_plan(&self, ticket: u64, key: PlanKey, plan: &ExecutionPlan) {
        let mut plans = self.plans.write().expect("plan memo lock");
        if self.plan_epoch.load(Ordering::SeqCst) == ticket {
            plans.entry(key).or_insert_with(|| plan.clone());
        }
    }

    /// Replaces the memo by `restored` (empty after a setting that can
    /// move a winner changed) under one lock. The epoch bump comes first,
    /// so a solve that ran under the old state cannot store after the
    /// swap.
    fn replace_plans(&self, restored: Vec<(PlanKey, ExecutionPlan)>) {
        self.plan_epoch.fetch_add(1, Ordering::SeqCst);
        let mut plans = self.plans.write().expect("plan memo lock");
        plans.clear();
        plans.extend(restored);
    }

    /// Cache counters so far.
    pub fn stats(&self) -> SearchStats {
        SearchStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            shard_waits: self.cache.waits()
                + self.seg_cache.waits()
                + self.cost.mapping_shard_waits(),
            seg_hits: self.seg_hits.load(Ordering::Relaxed),
            seg_misses: self.seg_misses.load(Ordering::Relaxed),
            bound_pruned: self.bound_pruned.load(Ordering::Relaxed),
            dominated_pruned: self.dominated_pruned.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            enumerate_ns: self.enumerate_ns.load(Ordering::Relaxed),
            bound_ns: self.bound_ns.load(Ordering::Relaxed),
            exact_ns: self.exact_ns.load(Ordering::Relaxed),
            derate_ns: self.derate_ns.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
        }
    }

    /// Memoized single evaluation. `None` records "the cost model could
    /// not evaluate this key" (e.g. the configuration cannot be laid
    /// out), so failures are not retried either.
    ///
    /// Concurrent misses on the same key are **single-flighted**: the
    /// first claimant costs it, every concurrent claimant parks on the
    /// in-flight evaluation — helping the shared runtime drain tasks
    /// while it waits, so it never convoys idle behind the leader's own
    /// fan-out — and all observers get the identical stored report. A
    /// leader that panics retires its flight without publishing; a
    /// parked follower then re-claims and computes.
    pub fn evaluate(
        &self,
        cfg: &HybridConfig,
        engine: MappingEngine,
        mode: RecomputeMode,
    ) -> Option<CostReport> {
        let key = (*cfg, engine, mode);
        loop {
            if let Some(cached) = self.cache.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return cached;
            }
            match self.flights.claim(key) {
                Claim::Leader(lease) => {
                    // Re-check under the claim: a previous leader may
                    // have published between our miss and our claim.
                    if let Some(cached) = self.cache.get(&key) {
                        drop(lease);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return cached;
                    }
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let workload = self.cost.workload().clone().with_recompute(mode);
                    let result = self.cost.evaluate_with(cfg, engine, &workload).ok();
                    // Publish before retiring the flight, so woken
                    // followers find the entry.
                    let stored = self.cache.insert_if_absent(key, result);
                    drop(lease);
                    return stored;
                }
                Claim::Follower(flight) => {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    let pool = crate::runtime::global();
                    flight.wait(|| pool.help_one());
                    // Loop: the leader published (next peek hits), or
                    // died without publishing (we claim leadership).
                }
            }
        }
    }

    /// The recompute modes a candidate escalates through: the workload's
    /// own, then [`RecomputeMode::Full`] when that overflows HBM or fails.
    fn recompute_ladder(&self) -> impl Iterator<Item = RecomputeMode> {
        let base = self.cost.workload().recompute;
        std::iter::once(base).chain((base != RecomputeMode::Full).then_some(RecomputeMode::Full))
    }

    /// As [`SearchContext::cost_of`] but answered purely from the cache,
    /// with the number of cache entries read: `None` when the cached
    /// entries cannot determine the outcome (some mode on the escalation
    /// path is not cached yet). Never evaluates and never touches the
    /// hit/miss counters — the costing stream uses this to serve verdicts
    /// a warm context already owns and to draw its incumbent from them.
    fn cost_of_cached(
        &self,
        cfg: &HybridConfig,
        engine: MappingEngine,
    ) -> Option<(CandidateCost, u64)> {
        let mut reads = 0;
        for mode in self.recompute_ladder() {
            reads += 1;
            match self.cache.get(&(*cfg, engine, mode))? {
                Some(report) if report.fits_memory => {
                    let workload = self.cost.workload().clone().with_recompute(mode);
                    return Some(((report.step_time, Some((workload, report))), reads));
                }
                // Cached OOM or layout failure: try the next mode, exactly
                // like `cost_of`'s escalation.
                _ => {}
            }
        }
        Some(((f64::INFINITY, None), reads))
    }

    /// Costs a candidate, escalating recompute on OOM; infeasible
    /// candidates get infinite cost. Never mutates cached state — the
    /// returned payload is a clone, so the context stays valid across
    /// arbitrarily many solves.
    pub fn cost_of(&self, cfg: &HybridConfig, engine: MappingEngine) -> CandidateCost {
        self.cost_from(cfg, engine, self.cost.workload().recompute)
    }

    /// [`SearchContext::cost_of`]'s escalation, entered at `first`.
    fn cost_from(
        &self,
        cfg: &HybridConfig,
        engine: MappingEngine,
        first: RecomputeMode,
    ) -> CandidateCost {
        for mode in self.recompute_ladder().skip_while(|&m| m != first) {
            if let Some(report) = self.evaluate(cfg, engine, mode) {
                if report.fits_memory {
                    let workload = self.cost.workload().clone().with_recompute(mode);
                    return (report.step_time, Some((workload, report)));
                }
            }
        }
        (f64::INFINITY, None)
    }

    /// Costs a batch of candidates exactly, aligned with `candidates`:
    /// the best-first stream of `SearchContext::cost_candidates_bounded`
    /// with every bound `-INFINITY`, no deadline and the step time as the
    /// objective. With every bound equal the stream runs in index order
    /// and no position is ever dominated, so every candidate is costed:
    /// cached verdicts are served as hits, every other candidate climbs
    /// the `[base, Full]` recompute ladder of [`SearchContext::cost_of`]
    /// through one `WaferCostModel::eval_hoist` per rung —
    /// bit-identical to `cost_of`. A repeated configuration is costed
    /// once; single-flight serves its other occurrences the same reports.
    pub fn cost_candidates(
        &self,
        candidates: &[HybridConfig],
        engine: MappingEngine,
    ) -> Vec<CandidateCost> {
        let lower = vec![Some(f64::NEG_INFINITY); candidates.len()];
        self.cost_candidates_bounded(candidates, engine, None, &lower, |_, cc| cc.0)
    }

    /// Batch costing for a **chain solve** (the DLWS body row): like
    /// [`SearchContext::cost_candidates`], but allowed to skip candidates
    /// that provably cannot win the chain DP. `candidates` is the dense
    /// body row (`ep == 1`); `moe_candidates` is the list the chain's
    /// MoeBlock row (if any) is priced over — a superset of `candidates`
    /// for MoE models, ignored for dense chains.
    ///
    /// Each candidate is priced by the best chain through it:
    /// [`crate::dp::keyed_chain_through`] gives, from the non-block rows
    /// and the DP's transition law, the cheapest rest of the chain around
    /// each block choice. The lower bound adds the candidate's
    /// [`WaferCostModel::chain_bounds`] block row to it, the exact value
    /// its exact block row; the minimum of the exact values is the chain
    /// DP's optimum. See `SearchContext::cost_candidates_bounded` for
    /// the skip rules, `token`'s deadline among them.
    /// [`SearchContext::set_pruning`]`(false)` costs the whole batch
    /// through [`SearchContext::cost_candidates`] instead, which passes
    /// no token — the exhaustive reference tests compare against; plans
    /// are bit-identical either way.
    pub fn cost_candidates_chain(
        &self,
        candidates: &[HybridConfig],
        moe_candidates: &[HybridConfig],
        engine: MappingEngine,
        token: Option<&CancelToken>,
    ) -> Vec<CandidateCost> {
        let chain = self.cost.chain();
        let block_row = match chain.position(SegmentKind::Block) {
            Some(row) if self.pruning() => row,
            _ => return self.cost_candidates(candidates, engine),
        };

        let bound_started = std::time::Instant::now();
        let base_mode = self.cost.workload().recompute;
        let bounds = self.cost.chain_bounds(candidates);
        // The non-block rows, priced over exactly the lists the chain DP
        // will consume (memoized — the solve re-reads them for free).
        let lists = chain_lists(chain, candidates, moe_candidates);
        let rows: Vec<Vec<f64>> = chain
            .segments()
            .iter()
            .zip(&lists)
            .map(|(segment, list)| match segment.kind {
                SegmentKind::Block => Vec::new(),
                kind => self.segment_step_costs(kind, list, engine, base_mode),
            })
            .collect();
        let through =
            crate::dp::keyed_chain_through(&rows, &lists, self.chain_switch_cost(), block_row);
        let lower: Vec<Option<f64>> = bounds
            .iter()
            .zip(&through)
            .map(|(b, rest)| b.feasible.then_some(rest + b.lb_block))
            .collect();
        self.add_bound_time(bound_started.elapsed());

        self.cost_candidates_bounded(candidates, engine, token, &lower, |i, (t, payload)| {
            match payload {
                Some((_, report)) if t.is_finite() => through[i] + report.block_time(),
                _ => f64::INFINITY,
            }
        })
    }

    /// What the chain DP charges for crossing a boundary between two
    /// distinct strategies: [`SearchContext::full_reshard_cost`] once per
    /// micro-batch.
    pub(crate) fn chain_switch_cost(&self) -> f64 {
        self.cost.workload().micro_batches.max(1) as f64 * self.full_reshard
    }

    /// Charges bound-phase wall time to [`SearchStats::bound_ns`].
    pub(crate) fn add_bound_time(&self, elapsed: std::time::Duration) {
        self.bound_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The one costing stream, shared by the chain solve
    /// ([`SearchContext::cost_candidates_chain`]), the
    /// stage-partitioned solve (`Dlws::solve_stage_partitioned`) and the
    /// exhaustive batch ([`SearchContext::cost_candidates`]). The
    /// caller supplies, per candidate, an admissible lower bound on the
    /// objective it minimizes (`None` when the exact path is guaranteed
    /// to report infinity) and `exact(i, cost)`, the objective value
    /// candidate `i` achieves given its exact costing (infinite when it
    /// cannot be scored). Three admissible skip rules and one deadline
    /// rule:
    ///
    /// 1. **Prefilter** — `None` bounds come back `(INFINITY, None)`
    ///    without touching the cost model (counted in `bound_pruned`).
    /// 2. **Incumbent** — the best `exact` value among candidates whose
    ///    verdict the cache already knows (warm contexts, campaign rate
    ///    points, earlier solves), served as hits exactly like the
    ///    exhaustive path.
    /// 3. **Best-first dominance** — the uncached candidates are costed
    ///    in `(lower bound, index)` order, each lowering the incumbent as
    ///    it commits. The first candidate whose bound exceeds the
    ///    incumbent committed before it (up to a relative float margin)
    ///    cannot win, and neither can any later one, whose bound is at
    ///    least as large: the stream ends there, and those candidates
    ///    come back `(INFINITY, None)` (counted in `dominated_pruned`).
    /// 4. **Deadline** — once `token` has fired and the committed
    ///    incumbent is finite, the stream ends at its commit frontier and
    ///    the positions from it on come back `(INFINITY, None)`, counted
    ///    nowhere. Until then the stream keeps costing in bound order, so
    ///    a deadline'd solve fails only where an unbounded one fails.
    ///
    /// Workers cost a few candidates past the commit frontier
    /// speculatively, but verdicts commit strictly in stream order under
    /// the sequential rule, so the committed set, the counters and the
    /// plans are those of a serial best-first pass at any worker count. A
    /// speculative verdict the rule discards is not cached and counts in
    /// [`SearchStats::discarded`]. Skipped candidates are **not** cached
    /// (a skip is not a verdict); a warm rerun prunes a superset of the
    /// cold run's skips, so replays stay zero-miss.
    pub(crate) fn cost_candidates_bounded(
        &self,
        candidates: &[HybridConfig],
        engine: MappingEngine,
        token: Option<&CancelToken>,
        lower: &[Option<f64>],
        exact: impl Fn(usize, &CandidateCost) -> f64 + Sync,
    ) -> Vec<CandidateCost> {
        let bound_started = std::time::Instant::now();
        let n = candidates.len();
        // Prefilter, then the incumbent from the verdicts the cache
        // already holds. Prefiltered candidates are not cached — a skip
        // is not a verdict.
        let mut results: Vec<Option<CandidateCost>> = vec![None; n];
        let mut prefiltered = 0u64;
        let mut reads = 0u64;
        let mut incumbent = f64::INFINITY;
        let mut uncached: Vec<usize> = Vec::new();
        for (i, lb) in lower.iter().enumerate() {
            if lb.is_none() {
                results[i] = Some((f64::INFINITY, None));
                prefiltered += 1;
                continue;
            }
            match self.cost_of_cached(&candidates[i], engine) {
                Some((cc, hits)) => {
                    incumbent = incumbent.min(exact(i, &cc));
                    reads += hits;
                    results[i] = Some(cc);
                }
                None => uncached.push(i),
            }
        }
        self.bound_pruned.fetch_add(prefiltered, Ordering::Relaxed);
        self.hits.fetch_add(reads, Ordering::Relaxed);
        self.add_bound_time(bound_started.elapsed());

        if !uncached.is_empty() {
            let started = std::time::Instant::now();
            let ladder = Ladder::new(self, engine);
            let stream = BestFirst::new(
                ladder, candidates, lower, &exact, token, uncached, incumbent,
            );
            for (i, cc) in stream.run() {
                results[i] = Some(cc);
            }
            self.exact_ns
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        results
            .into_iter()
            .map(|r| r.expect("every candidate resolved"))
            .collect()
    }
}

/// How many stream positions past the commit frontier workers may pull
/// while the frontier itself is still in flight. A fixed constant, never
/// derived from the worker count, so the speculative work per solve stays
/// small whatever `TEMP_THREADS` says; the committed set does not depend
/// on it.
const STREAM_LOOKAHEAD: usize = 2;

/// Relative slack on the dominance threshold, covering the float
/// association differences between the bound's fixed-order sums and the
/// exact evaluation's fold order.
const REL_MARGIN: f64 = 1e-9;

/// The `[base, Full]` recompute ladder of one best-first stream: the
/// workload of each rung and its evaluation hoist, derived once per
/// stream on first use, and the single-flight protocol around each key.
struct Ladder<'t> {
    ctx: &'t SearchContext,
    engine: MappingEngine,
    base: Rung,
    full: Rung,
}

/// A recompute mode's workload and its lazily derived hoist.
type Rung = (Workload, OnceLock<EvalHoist>);

/// One candidate's climb of the ladder, as a task computed it.
struct Verdict<'t> {
    /// Reports this task computed as the key's single-flight leader,
    /// with their leases: published at commit, dropped unpublished on
    /// discard.
    led: Vec<(EvalKey, Option<CostReport>, FlightLease<'t, EvalKey>)>,
    /// Cache serves along the way.
    hits: u64,
    outcome: Outcome,
}

// Lives inside a `Verdict`, which the stream boxes.
#[allow(clippy::large_enum_variant)]
enum Outcome {
    /// The candidate's cost (`(INFINITY, None)` when nothing fits).
    Costed(CandidateCost),
    /// Another solve is costing the key of this recompute mode.
    Follow(RecomputeMode, Arc<Flight>),
}

impl<'t> Ladder<'t> {
    fn new(ctx: &'t SearchContext, engine: MappingEngine) -> Self {
        let workload = ctx.cost.workload();
        Ladder {
            ctx,
            engine,
            base: (workload.clone(), OnceLock::new()),
            full: (
                workload.clone().with_recompute(RecomputeMode::Full),
                OnceLock::new(),
            ),
        }
    }

    /// The rung of recompute mode `mode`.
    fn rung(&self, mode: RecomputeMode) -> &Rung {
        if mode == self.base.0.recompute {
            &self.base
        } else {
            &self.full
        }
    }

    /// Climbs the ladder for `cfg`: the base mode's report, then the
    /// escalation mode's when the base overflows HBM or fails. Keys this
    /// task leads keep their leases in the verdict; a key another solve
    /// is costing ends the climb as [`Outcome::Follow`] — tasks never
    /// park on foreign flights.
    fn cost(&self, cfg: &HybridConfig) -> Verdict<'t> {
        let ctx = self.ctx;
        let mut verdict = Verdict {
            led: Vec::new(),
            hits: 0,
            outcome: Outcome::Costed((f64::INFINITY, None)),
        };
        for mode in ctx.recompute_ladder() {
            let key = (*cfg, self.engine, mode);
            let report = match ctx.cache.get(&key) {
                Some(cached) => {
                    verdict.hits += 1;
                    cached
                }
                None => match ctx.flights.claim(key) {
                    Claim::Leader(lease) => match ctx.cache.get(&key) {
                        // Lost race: a previous leader published between
                        // the peek and the claim.
                        Some(cached) => {
                            verdict.hits += 1;
                            cached
                        }
                        None => {
                            let (workload, hoist) = self.rung(mode);
                            let hoist = hoist.get_or_init(|| ctx.cost.eval_hoist(workload));
                            let report = ctx
                                .cost
                                .evaluate_hoisted(hoist, cfg, self.engine, workload)
                                .ok();
                            verdict.led.push((key, report.clone(), lease));
                            report
                        }
                    },
                    Claim::Follower(flight) => {
                        verdict.outcome = Outcome::Follow(mode, flight);
                        break;
                    }
                },
            };
            if let Some(report) = report.filter(|r| r.fits_memory) {
                let cc = (report.step_time, Some((self.rung(mode).0.clone(), report)));
                verdict.outcome = Outcome::Costed(cc);
                break;
            }
        }
        verdict
    }

    /// Publishes the reports `verdict` led (stored entries win races, so
    /// every observer of a key sees one report), retires their flights
    /// and counts the climb's hits and misses; returns its outcome.
    fn publish(&self, verdict: Verdict<'t>) -> Outcome {
        let ctx = self.ctx;
        let led = verdict.led.len() as u64;
        for (key, report, lease) in verdict.led {
            ctx.cache.insert_if_absent(key, report);
            drop(lease);
        }
        ctx.misses.fetch_add(led, Ordering::Relaxed);
        ctx.hits.fetch_add(verdict.hits, Ordering::Relaxed);
        verdict.outcome
    }

    /// Finishes a climb that met another solve's flight at `mode`: waits
    /// for it, then climbs on from `mode` through the cache. Callers hold
    /// no lease here. The wait runs no pool tasks: a task run on top of
    /// this frame could bury the frame that must publish or drop the
    /// awaited lease.
    fn follow(
        &self,
        cfg: &HybridConfig,
        mode: RecomputeMode,
        flight: Arc<Flight>,
    ) -> CandidateCost {
        self.ctx.coalesced.fetch_add(1, Ordering::Relaxed);
        flight.wait(|| false);
        // The leader published before retiring its flight; one that died
        // or was discarded without publishing leaves the key to `evaluate`,
        // which re-claims and computes.
        self.ctx.cost_from(cfg, self.engine, mode)
    }
}

/// One best-first costing stream of
/// [`SearchContext::cost_candidates_bounded`]: a shared cursor over the
/// stream order, a commit frontier, and the verdicts workers computed
/// past it.
struct BestFirst<'t, E> {
    ladder: Ladder<'t>,
    candidates: &'t [HybridConfig],
    lower: &'t [Option<f64>],
    exact: &'t E,
    /// The solve's deadline, if it has one.
    token: Option<&'t CancelToken>,
    /// Candidate indices in stream order.
    order: Vec<usize>,
    state: Mutex<StreamState<'t>>,
    /// Signalled whenever the frontier, the end or the pause flag moves.
    turn: Condvar,
}

/// The mutable part of a [`BestFirst`] stream.
struct StreamState<'t> {
    /// The next position to pull.
    next: usize,
    /// The commit frontier: every position below it is settled.
    committed: usize,
    /// Positions at or past `end` are dominated and never committed.
    end: usize,
    /// The deadline rule ended the stream at `committed`.
    cut: bool,
    /// The best objective value committed so far.
    incumbent: f64,
    /// Per position, a worker's verdict and the objective value it gives,
    /// awaiting its turn; `None` before the deposit and after the commit.
    slots: Vec<Option<(Box<Verdict<'t>>, f64)>>,
    /// The committed costs, by position; `None` for dominated and cut
    /// positions.
    costs: Vec<Option<CandidateCost>>,
    discarded: u64,
    /// The frontier's verdict waits on another solve's flight: workers
    /// stop pulling, so the wait happens with no lease held.
    paused: bool,
    /// A worker panicked: everyone stops.
    aborted: bool,
}

impl StreamState<'_> {
    /// Reopens the positions in `range`, discarding the verdicts filed
    /// there (dropping their leases unpublished).
    fn discard(&mut self, range: std::ops::Range<usize>) {
        for slot in &mut self.slots[range] {
            if slot.take().is_some() {
                self.discarded += 1;
            }
        }
    }
}

impl<'t, E: Fn(usize, &CandidateCost) -> f64 + Sync> BestFirst<'t, E> {
    fn new(
        ladder: Ladder<'t>,
        candidates: &'t [HybridConfig],
        lower: &'t [Option<f64>],
        exact: &'t E,
        token: Option<&'t CancelToken>,
        mut order: Vec<usize>,
        incumbent: f64,
    ) -> Self {
        // Stream order: by `(bound, index)`.
        let lb = |i: usize| lower[i].expect("streamed candidates have bounds");
        order.sort_by(|&a, &b| {
            lb(a)
                .partial_cmp(&lb(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let len = order.len();
        BestFirst {
            ladder,
            candidates,
            lower,
            exact,
            token,
            order,
            state: Mutex::new(StreamState {
                next: 0,
                committed: 0,
                end: len,
                cut: false,
                incumbent,
                slots: (0..len).map(|_| None).collect(),
                costs: vec![None; len],
                discarded: 0,
                paused: false,
                aborted: false,
            }),
            turn: Condvar::new(),
        }
    }

    /// Runs the stream to its end and returns every streamed candidate's
    /// `(index, cost)` — `(INFINITY, None)` for the dominated and cut
    /// ones — counting the dominated and discarded positions into the
    /// context.
    fn run(self) -> Vec<(usize, CandidateCost)> {
        let ctx = self.ladder.ctx;
        let pool = crate::runtime::global();
        let workers = if ctx.parallel() {
            pool.workers().min(STREAM_LOOKAHEAD + 1)
        } else {
            1
        };
        loop {
            if workers > 1 {
                let lanes: Vec<usize> = (0..workers).collect();
                pool.map(&lanes, &|_| self.work());
            } else {
                self.work();
            }
            if !self.resume() {
                break;
            }
        }
        let state = self.state.into_inner().expect("stream lock");
        let dominated = state.costs.len() - state.end;
        ctx.dominated_pruned
            .fetch_add(dominated as u64, Ordering::Relaxed);
        ctx.discarded.fetch_add(state.discarded, Ordering::Relaxed);
        self.order
            .into_iter()
            .zip(state.costs)
            .map(|(i, cc)| (i, cc.unwrap_or((f64::INFINITY, None))))
            .collect()
    }

    fn lock(&self) -> MutexGuard<'_, StreamState<'t>> {
        self.state.lock().expect("stream lock")
    }

    /// Whether position `pos` cannot beat `incumbent`.
    fn dominated(&self, pos: usize, incumbent: f64) -> bool {
        let lb = self.lower[self.order[pos]].expect("streamed candidates have bounds");
        lb > incumbent * (1.0 + REL_MARGIN)
    }

    /// One worker: pull, cost, deposit, until the stream ends or pauses.
    fn work(&self) {
        /// Stops the stream when its worker unwinds, so no peer waits on
        /// a position that will never be deposited.
        struct Abort<'s, 't, E>(&'s BestFirst<'t, E>);
        impl<E> Drop for Abort<'_, '_, E> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    if let Ok(mut state) = self.0.state.lock() {
                        state.aborted = true;
                    }
                    self.0.turn.notify_all();
                }
            }
        }
        let _abort = Abort(self);
        while let Some(pos) = self.pull() {
            let i = self.order[pos];
            let verdict = self.ladder.cost(&self.candidates[i]);
            let value = match &verdict.outcome {
                Outcome::Costed(cc) => (self.exact)(i, cc),
                Outcome::Follow(..) => f64::INFINITY,
            };
            self.deposit(pos, verdict, value);
        }
    }

    /// Whether the deadline rule ends the stream: the token fired and
    /// the committed incumbent is finite, so the solve has a plan.
    fn expired(&self, state: &StreamState<'t>) -> bool {
        state.incumbent.is_finite() && self.token.is_some_and(CancelToken::is_cancelled)
    }

    /// Ends the stream at the commit frontier under the deadline rule,
    /// discarding the verdicts filed from it on.
    fn cut(state: &mut StreamState<'t>) {
        state.cut = true;
        let frontier = state.committed;
        state.discard(frontier..state.slots.len());
    }

    /// The next position to cost, waiting while it lies more than
    /// [`STREAM_LOOKAHEAD`] past the frontier; `None` once the stream
    /// ends, pauses or aborts.
    fn pull(&self) -> Option<usize> {
        let mut state = self.lock();
        loop {
            if state.paused || state.aborted || state.cut || state.next >= state.end {
                return None;
            }
            if self.expired(&state) {
                Self::cut(&mut state);
                self.turn.notify_all();
                return None;
            }
            if state.next <= state.committed + STREAM_LOOKAHEAD {
                break;
            }
            state = self.turn.wait(state).expect("stream lock");
        }
        let pos = state.next;
        state.next += 1;
        if self.dominated(pos, state.incumbent) {
            // The committed incumbent only falls, so this position is
            // dominated at its turn too, and so is every later one.
            self.end_at(&mut state, pos);
            self.turn.notify_all();
            return None;
        }
        Some(pos)
    }

    /// Files a worker's verdict and commits what it unblocks.
    fn deposit(&self, pos: usize, verdict: Verdict<'t>, value: f64) {
        let mut state = self.lock();
        if pos >= state.end || state.aborted || state.cut {
            state.discarded += 1;
        } else {
            state.slots[pos] = Some((Box::new(verdict), value));
            self.advance(&mut state);
        }
        drop(state);
        self.turn.notify_all();
    }

    /// Commits ready verdicts from the frontier on, in stream order,
    /// under the sequential rule.
    fn advance(&self, state: &mut StreamState<'t>) {
        while !state.paused && !state.cut && state.committed < state.end {
            if self.expired(state) {
                Self::cut(state);
                return;
            }
            let pos = state.committed;
            let Some((verdict, value)) = state.slots[pos].take() else {
                return;
            };
            if self.dominated(pos, state.incumbent) {
                state.discarded += 1;
                self.end_at(state, pos);
                return;
            }
            if let Outcome::Follow(..) = verdict.outcome {
                state.slots[pos] = Some((verdict, value));
                state.paused = true;
                return;
            }
            let Outcome::Costed(cc) = self.ladder.publish(*verdict) else {
                unreachable!("followed verdicts pause the stream");
            };
            Self::settle(state, cc, value);
        }
    }

    /// Commits the frontier position with its cost and objective value.
    fn settle(state: &mut StreamState<'t>, cc: CandidateCost, value: f64) {
        state.incumbent = state.incumbent.min(value);
        state.costs[state.committed] = Some(cc);
        state.committed += 1;
    }

    /// Ends the stream at `pos`: it and every later position are
    /// dominated, so the verdicts already filed past it are discarded.
    fn end_at(&self, state: &mut StreamState<'t>, pos: usize) {
        state.end = pos;
        state.discard(pos..state.slots.len());
    }

    /// After every worker returned: settles a paused frontier and reports
    /// whether the stream goes on. The speculative verdicts past the
    /// frontier are discarded first, so the wait on the foreign flight
    /// happens with no lease held — two solves committing keys in
    /// different orders can never wait on each other.
    fn resume(&self) -> bool {
        let mut state = self.lock();
        if state.aborted || !state.paused {
            return false;
        }
        if self.expired(&state) {
            Self::cut(&mut state);
            return false;
        }
        let pos = state.committed;
        let Some((verdict, _)) = state.slots[pos].take() else {
            unreachable!("a paused frontier holds its verdict");
        };
        let next = std::mem::replace(&mut state.next, pos + 1);
        state.discard(pos + 1..next);
        drop(state);
        let Outcome::Follow(mode, flight) = self.ladder.publish(*verdict) else {
            unreachable!("only followed verdicts pause the stream");
        };
        let i = self.order[pos];
        let cc = self.ladder.follow(&self.candidates[i], mode, flight);
        let value = (self.exact)(i, &cc);
        let mut state = self.lock();
        state.paused = false;
        Self::settle(&mut state, cc, value);
        self.advance(&mut state);
        true
    }
}

/// The candidate list each segment of a chain solve chooses from: the
/// MoE run takes `moe_candidates` (the full space, expert-parallel tuples
/// included), every other segment the dense body row `candidates`.
pub(crate) fn chain_lists<'a>(
    chain: &SegmentChain,
    candidates: &'a [HybridConfig],
    moe_candidates: &'a [HybridConfig],
) -> Vec<&'a [HybridConfig]> {
    chain
        .segments()
        .iter()
        .map(|segment| match segment.kind {
            SegmentKind::MoeBlock => moe_candidates,
            _ => candidates,
        })
        .collect()
}

/// The smallest finite entry of a cost row, or `0.0` when it has none —
/// the additive floor a row contributes to a lower bound.
pub(crate) fn finite_min(row: &[f64]) -> f64 {
    let min = row
        .iter()
        .copied()
        .filter(|t| t.is_finite())
        .fold(f64::INFINITY, f64::min);
    if min.is_finite() {
        min
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_graph::models::ModelZoo;
    use temp_wsc::config::WaferConfig;

    fn context() -> SearchContext {
        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        SearchContext::new(WaferCostModel::new(WaferConfig::hpca(), model, workload))
    }

    #[test]
    fn candidate_space_matches_seed_enumeration() {
        let ctx = context();
        // 56 plain tuples + the FSDP tuples with dp > 1.
        assert!(ctx.candidates().len() > 56);
        assert!(ctx
            .candidates()
            .iter()
            .all(|c| c.intra_wafer_degree() == 32));
        let with_pp = ctx.candidates_with_pp(4);
        assert!(with_pp.iter().all(|c| c.pp == 4));
        assert_eq!(with_pp.len(), ctx.candidates().len());
    }

    #[test]
    fn evaluate_is_memoized_including_failures() {
        let ctx = context();
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        let first = ctx.evaluate(&cfg, MappingEngine::Tcme, RecomputeMode::Selective);
        let stats = ctx.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let second = ctx.evaluate(&cfg, MappingEngine::Tcme, RecomputeMode::Selective);
        let stats = ctx.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(first, second);

        // An invalid configuration fails once and the failure is cached.
        let bad = HybridConfig::tuple(2, 2, 1, 4); // product 16 != 32
        assert!(ctx
            .evaluate(&bad, MappingEngine::Tcme, RecomputeMode::Selective)
            .is_none());
        assert!(ctx
            .evaluate(&bad, MappingEngine::Tcme, RecomputeMode::Selective)
            .is_none());
        assert_eq!(ctx.stats().misses, 2);
    }

    #[test]
    fn cost_of_does_not_consume_the_cache() {
        let ctx = context();
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        let (t1, p1) = ctx.cost_of(&cfg, MappingEngine::Tcme);
        let (t2, p2) = ctx.cost_of(&cfg, MappingEngine::Tcme);
        assert_eq!(t1, t2);
        assert_eq!(p1, p2);
        assert!(p1.is_some());
        // The second call was pure cache hits.
        let stats = ctx.stats();
        assert!(stats.hits >= 1, "{stats:?}");
    }

    #[test]
    fn batch_costing_serial_and_parallel_agree() {
        let serial = context();
        serial.set_parallel(false);
        let parallel = context();
        let cands: Vec<HybridConfig> = serial.candidates().to_vec();
        let a = serial.cost_candidates(&cands, MappingEngine::SMap);
        let b = parallel.cost_candidates(&cands, MappingEngine::SMap);
        // The cost model folds HashMap-ordered sums, so two evaluations
        // of the same key agree only up to float association: compare
        // with a relative tolerance, not bitwise.
        for (i, ((ta, _), (tb, _))) in a.iter().zip(&b).enumerate() {
            match (ta.is_finite(), tb.is_finite()) {
                (true, true) => {
                    assert!(
                        (ta - tb).abs() <= 1e-9 * ta.abs(),
                        "candidate {i}: {ta} vs {tb}"
                    )
                }
                (fa, fb) => assert_eq!(fa, fb, "candidate {i}: {ta} vs {tb}"),
            }
        }
        // One full pass: misses == one evaluation per candidate plus any
        // full-recompute escalations, all distinct keys.
        assert!(serial.stats().misses >= cands.len() as u64);
    }

    #[test]
    fn a_repeated_configuration_is_costed_once_with_one_verdict() {
        let engine = MappingEngine::Tcme;
        let distinct: Vec<HybridConfig> =
            context().candidates().iter().step_by(5).copied().collect();
        // Each configuration appears three times: twice adjacent (within
        // the stream's lookahead, so pooled lanes can cost both at once)
        // and once more at the end of the batch.
        let batch: Vec<HybridConfig> = distinct
            .iter()
            .flat_map(|c| [*c, *c])
            .chain(distinct.iter().copied())
            .collect();
        let reference = context();
        reference.set_parallel(false);
        reference.cost_candidates(&distinct, engine);
        let rungs = reference.stats().misses;
        assert!(
            rungs > distinct.len() as u64,
            "no configuration escalated to Full recompute"
        );
        for parallel in [false, true] {
            let ctx = context();
            ctx.set_parallel(parallel);
            let costs = ctx.cost_candidates(&batch, engine);
            for (i, cfg) in batch.iter().enumerate() {
                let first = batch.iter().position(|c| c == cfg).expect("present");
                // `{:?}` renders every float bit-exactly.
                assert_eq!(
                    format!("{:?}", costs[i]),
                    format!("{:?}", costs[first]),
                    "parallel={parallel} {cfg:?}"
                );
            }
            let stats = ctx.stats();
            assert_eq!(stats.misses, rungs, "parallel={parallel}");
            assert_eq!(ctx.eval_cache_len() as u64, rungs, "parallel={parallel}");
        }
    }

    #[test]
    fn a_fired_token_skips_uncached_candidates_without_caching_or_escalating() {
        let engine = MappingEngine::Tcme;
        let cands: Vec<HybridConfig> = context().candidates().to_vec();
        // One feasible verdict cached before the token fires gives the
        // stream a finite incumbent, so the deadline rule ends it at once.
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        let warm = |ctx: &SearchContext| {
            let cc = ctx.cost_of(&cfg, engine);
            assert!(cc.0.is_finite());
            cc
        };
        let ctx = context();
        let cached = warm(&ctx);
        let (misses, entries) = (ctx.stats().misses, ctx.eval_cache_len());
        let token = CancelToken::new();
        token.cancel();
        let skipped = ctx.cost_candidates_chain(&cands, &cands, engine, Some(&token));
        // The cached verdict is still served; every other candidate comes
        // back infinite without a cost-model run, a cache entry or a
        // Full-recompute escalation, and counts as neither miss nor
        // dominated.
        let at = cands
            .iter()
            .position(|c| *c == cfg)
            .expect("cfg enumerated");
        assert_eq!(skipped[at], cached);
        assert!(skipped
            .iter()
            .enumerate()
            .all(|(i, c)| i == at || c == &(f64::INFINITY, None)));
        assert_eq!(ctx.stats().misses, misses);
        assert_eq!(ctx.eval_cache_len(), entries);
        assert_eq!(ctx.stats().dominated_pruned, 0);
        // An unbounded chain costing afterwards re-costs the skipped
        // candidates exactly as a fresh context does.
        let recosted = ctx.cost_candidates_chain(&cands, &cands, engine, None);
        let fresh = context();
        warm(&fresh);
        let want = fresh.cost_candidates_chain(&cands, &cands, engine, None);
        assert_eq!(ctx.stats().misses, fresh.stats().misses);
        assert_eq!(ctx.stats().dominated_pruned, fresh.stats().dominated_pruned);
        for (i, (a, b)) in recosted.iter().zip(&want).enumerate() {
            assert_eq!(a.0.is_finite(), b.0.is_finite(), "candidate {i}");
        }
        assert!(ctx.stats().misses > misses);
    }

    #[test]
    fn segment_cost_table_is_memoized_per_key() {
        let ctx = context();
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        let first = ctx.segment_cost(SegmentKind::Head, &cfg, RecomputeMode::Selective);
        assert!(first.is_some());
        let misses = ctx.stats().seg_misses;
        assert!(misses >= 1);
        let second = ctx.segment_cost(SegmentKind::Head, &cfg, RecomputeMode::Selective);
        assert_eq!(first, second);
        assert_eq!(ctx.stats().seg_misses, misses, "second lookup must hit");
        // A different kind under the same config is a distinct key.
        let emb = ctx.segment_cost(SegmentKind::Embedding, &cfg, RecomputeMode::Selective);
        assert!(emb.is_some());
        assert_ne!(first, emb);
        assert_eq!(ctx.stats().seg_misses, misses + 1);
        // Invalid configurations memoize their failure too.
        let bad = HybridConfig::tuple(2, 2, 1, 4);
        for _ in 0..2 {
            assert!(ctx
                .segment_cost(SegmentKind::Block, &bad, RecomputeMode::Selective)
                .is_none());
        }
        assert_eq!(ctx.stats().seg_misses, misses + 2);
    }

    #[test]
    fn every_pipeline_degree_shares_one_segment_row() {
        // Segment rows key on `pp = 1`. If a segment formula ever reads
        // `pp`, the memoized rows below stop matching a direct evaluation
        // at the candidate's own `pp`, and `pp` must go back into the key.
        for model in [ModelZoo::gpt3_6_7b(), ModelZoo::mixtral_8x7b()] {
            let workload = Workload::for_model(&model);
            let ctx = SearchContext::new(WaferCostModel::new(
                WaferConfig::hpca(),
                model.clone(),
                workload.clone(),
            ));
            let modes = [RecomputeMode::Selective, RecomputeMode::Full];
            let rows = |pp: usize, direct: bool| -> Vec<String> {
                let mut out = Vec::new();
                for cfg in ctx.candidates_with_pp(pp) {
                    for segment in ctx.chain().segments() {
                        for mode in modes {
                            let cost = if direct {
                                let workload = workload.clone().with_recompute(mode);
                                ctx.cost_model()
                                    .evaluate_segment_with(segment, &cfg, &workload)
                                    .ok()
                            } else {
                                ctx.segment_cost(segment.kind, &cfg, mode)
                            };
                            out.push(format!("{cost:?}"));
                        }
                    }
                }
                out
            };
            rows(1, false);
            let misses = ctx.stats().seg_misses;
            for pp in [2, 4, 8, 16] {
                let label = format!("{} pp={pp}", model.name);
                assert_eq!(rows(pp, false), rows(pp, true), "{label}");
                assert_eq!(ctx.stats().seg_misses, misses, "{label}: no new row");
            }
        }
    }

    #[test]
    fn segment_step_costs_never_drop_a_segment() {
        let ctx = context();
        let candidates = ctx.candidates().to_vec();
        let row = ctx.segment_step_costs(
            SegmentKind::Head,
            &candidates,
            MappingEngine::Tcme,
            RecomputeMode::Selective,
        );
        assert_eq!(row.len(), candidates.len());
        // The row is never all-infinite: if the per-segment footprint
        // check rejected everything, it is rebuilt without the check so
        // the chain objective keeps the segment's real cost.
        assert!(row.iter().any(|t| t.is_finite()), "{row:?}");
        // Entries are per-step costs (count x micro x per-instance time),
        // consistent with the memoized table.
        let micro = ctx.cost_model().workload().micro_batches as f64;
        let sc = ctx
            .segment_cost(SegmentKind::Head, &candidates[0], RecomputeMode::Selective)
            .unwrap();
        if sc.fits_memory {
            assert!((row[0] - sc.time * micro).abs() <= 1e-12 * row[0].abs());
        }
    }

    #[test]
    fn cost_table_round_trips_through_text() {
        let ctx = context();
        let good = HybridConfig::tuple(2, 2, 1, 8);
        let bad = HybridConfig::tuple(2, 2, 1, 4); // product 16 != 32
        ctx.evaluate(&good, MappingEngine::Tcme, RecomputeMode::Selective);
        ctx.evaluate(&good, MappingEngine::SMap, RecomputeMode::Full);
        ctx.evaluate(&bad, MappingEngine::Tcme, RecomputeMode::Selective);
        ctx.segment_cost(SegmentKind::Head, &good, RecomputeMode::Selective);

        let text = ctx.export_cost_table();
        assert_eq!(
            text,
            ctx.export_cost_table(),
            "export must be deterministic"
        );

        // The segment row above is closed form and stays out of the file.
        assert!(
            !text
                .lines()
                .any(|l| l.starts_with("S ") || l.starts_with("segs")),
            "{text}"
        );

        let fresh = context();
        let summary = fresh.import_cost_table(&text).expect("import");
        assert_eq!(summary.evals, 3);

        // Imported entries answer without running the cost model, and the
        // memoized failure is a failure on the warm side too.
        assert_eq!(
            fresh.evaluate(&good, MappingEngine::Tcme, RecomputeMode::Selective),
            ctx.evaluate(&good, MappingEngine::Tcme, RecomputeMode::Selective),
        );
        assert!(fresh
            .evaluate(&bad, MappingEngine::Tcme, RecomputeMode::Selective)
            .is_none());
        assert_eq!(fresh.stats().misses, 0, "warm lookups must not evaluate");
        assert_eq!(fresh.stats().hits, 2);

        // Exporting the import reproduces the text bit for bit.
        assert_eq!(fresh.export_cost_table(), text);
    }

    #[test]
    fn import_rejects_foreign_and_malformed_caches() {
        let ctx = context();
        ctx.evaluate(
            &HybridConfig::tuple(2, 2, 1, 8),
            MappingEngine::Tcme,
            RecomputeMode::Selective,
        );
        let text = ctx.export_cost_table();

        // A different model is a different fingerprint.
        let other_model = ModelZoo::llama2_7b();
        let other = SearchContext::new(WaferCostModel::new(
            WaferConfig::hpca(),
            other_model.clone(),
            Workload::for_model(&other_model),
        ));
        let err = other.import_cost_table(&text).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");

        // Malformed input leaves the context untouched.
        let fresh = context();
        assert!(fresh.import_cost_table("").is_err());
        assert!(fresh.import_cost_table("temp-cache v6 0\n").is_err());
        // The fingerprint embeds `COST_MODEL_VERSION`, so a cache written
        // by any other cost-model revision dies at the header.
        let header = text.lines().next().expect("header");
        let skewed = text.replacen(header, "temp-cache v6 0000000000000000", 1);
        let err = fresh.import_cost_table(&skewed).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        let plans_line = text
            .lines()
            .find(|l| l.starts_with("plans "))
            .expect("plans section");
        // A v5 file still carries the segment table between its evals and
        // its plans; it is rejected whole at its header, and a v6 header
        // over such a body fails at the section.
        let v5_body = text.replacen("temp-cache v6", "temp-cache v5", 1).replacen(
            plans_line,
            &format!("segs 1\nS 3 2 0 2 1 1 8 1 1 1 0.5 0.25 0.125 0.0 1024.0 1\n{plans_line}"),
            1,
        );
        // Older formats — v1 (per-engine segment table), v2 (winner-rank
        // and gate-predictor sections), v3 (no plans section), v4
        // (collective-kernel section) and v5 (segment table) — are
        // rejected whole.
        for old in ["v1", "v2", "v3", "v4", "v5"] {
            let stale = v5_body.replacen("temp-cache v5", &format!("temp-cache {old}"), 1);
            let err = fresh.import_cost_table(&stale).unwrap_err();
            assert!(err.contains("v6 header"), "{err}");
        }
        let relabeled = v5_body.replacen("temp-cache v5", "temp-cache v6", 1);
        let err = fresh.import_cost_table(&relabeled).unwrap_err();
        assert!(err.contains("expected plans section"), "{err}");
        // A v6 header over a body without the plans section is torn.
        let sectionless = text.replacen(&format!("{plans_line}\n"), "", 1);
        let err = fresh.import_cost_table(&sectionless).unwrap_err();
        assert!(err.contains("missing plans section"), "{err}");
        // So is a plans section without its enumeration hash.
        let unhashed = text.replacen(plans_line, "plans 0", 1);
        assert!(fresh.import_cost_table(&unhashed).is_err());
        let truncated = text.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(fresh.import_cost_table(&truncated).is_err());
        let mangled = text.replacen("E ", "E x", 1);
        assert!(fresh.import_cost_table(&mangled).is_err());
        assert_eq!(
            fresh.export_cost_table().lines().nth(1),
            Some("evals 0"),
            "failed imports must not merge partial state"
        );
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let ctx = context();
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        ctx.evaluate(&cfg, MappingEngine::Tcme, RecomputeMode::Selective);
        ctx.evaluate(&cfg, MappingEngine::Tcme, RecomputeMode::Selective);
        let s = ctx.stats();
        assert_eq!((s.hits, s.misses), (1, 1));

        // A different engine is a distinct key.
        ctx.evaluate(&cfg, MappingEngine::SMap, RecomputeMode::Selective);
        let s = ctx.stats();
        assert_eq!((s.hits, s.misses), (1, 2));

        // Segment-table hits are counted too.
        ctx.segment_cost(SegmentKind::Head, &cfg, RecomputeMode::Selective);
        ctx.segment_cost(SegmentKind::Head, &cfg, RecomputeMode::Selective);
        let s = ctx.stats();
        assert_eq!((s.seg_hits, s.seg_misses), (1, 1));
    }

    #[test]
    fn resharding_is_free_only_on_the_diagonal() {
        let ctx = context();
        let a = HybridConfig::tuple(2, 2, 1, 8);
        let b = HybridConfig::tuple(4, 1, 1, 8);
        assert_eq!(ctx.resharding_cost(&a, &a), 0.0);
        assert!(ctx.resharding_cost(&a, &b) > 0.0);
        assert_eq!(ctx.resharding_cost(&a, &b), ctx.resharding_cost(&b, &a));
    }

    #[test]
    fn hit_rate_reflects_counters() {
        let s = SearchStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(SearchStats::default().hit_rate(), 0.0);
    }
}
