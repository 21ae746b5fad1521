//! The end-to-end Dual-Level Wafer Solver.
//!
//! Pipeline (Fig. 12(b)):
//!
//! 1. **Enumerate** hybrid configurations (power-of-two degree tuples, with
//!    and without FSDP sharding) — done once per [`SearchContext`];
//! 2. **Cost** each with the wafer-centric model under the TCME engine,
//!    escalating to full recomputation when a configuration OOMs — cache
//!    misses are costed through the batched SoA engine (one hoisted
//!    op-graph walk per recompute rung and pass), hits are free;
//! 3. **Graph-partition + DP** — the heterogeneous segment chain
//!    (embedding -> blocks -> LM head, [`temp_graph::segment`]) picks a
//!    candidate **per segment** under resharding transition costs: the
//!    blocks are priced by the exact whole-model evaluation, the end
//!    segments by the shared closed-form segment table;
//! 4. Emit the best [`ExecutionPlan`].
//!
//! The paper's DLS level 2 is a GA over mapping parameters its DP does
//! not see. Here every gene would be one of the DP's own per-segment
//! choices, which the chain DP already solves optimally, so there is no
//! GA stage: the DP's assignment is the plan.
//!
//! A [`Dlws`] is a thin façade over a shared [`SearchContext`]: cloning
//! the solver (or building several solvers from one context via
//! [`Dlws::from_context`]) shares the evaluation cache, so baseline
//! sweeps that solve the same triple under different engines/filters do
//! not re-cost overlapping candidates.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use temp_graph::models::ModelConfig;
use temp_graph::segment::SegmentKind;
use temp_graph::workload::Workload;
use temp_mapping::engines::MappingEngine;
use temp_parallel::strategy::HybridConfig;
use temp_wsc::config::WaferConfig;
use temp_wsc::fault::FaultMap;

use crate::cost::{CostReport, WaferCostModel};
use crate::dp::solve_keyed_chain;
use crate::runtime::CancelToken;
use crate::search::{CandidateCost, SearchContext, SearchStats};
use crate::{Result, SolverError};

/// One segment run's strategy in a solved heterogeneous chain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentAssignment {
    /// Which segment kind the run covers.
    pub kind: SegmentKind,
    /// Number of identical instances in the run.
    pub count: u64,
    /// The strategy the run executes under.
    pub config: HybridConfig,
    /// The run's per-step cost contribution in the chain objective.
    pub step_time: f64,
}

/// A solved plan ready for execution/evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// The chosen hybrid configuration of the Transformer-block run (the
    /// chain's dominant segment, and what the whole-model [`CostReport`]
    /// was evaluated under).
    pub config: HybridConfig,
    /// The mapping engine.
    pub engine: MappingEngine,
    /// The workload actually planned (recompute mode may have escalated).
    pub workload: Workload,
    /// The cost report of the chosen plan (uniform-replication evaluation
    /// of [`ExecutionPlan::config`]).
    pub report: CostReport,
    /// The per-segment strategy assignment of the heterogeneous chain DP:
    /// embedding and head may legitimately pick different strategies from
    /// the blocks when the saving beats the boundary resharding.
    pub segments: Vec<SegmentAssignment>,
    /// Total chain objective (segment costs + resharding transitions).
    /// Equals [`CostReport::step_time`] when the assignment is uniform;
    /// strictly below it when heterogeneity pays.
    pub chain_cost: f64,
}

impl ExecutionPlan {
    /// Whether the chain assigned different strategies to different
    /// segments.
    pub fn is_heterogeneous(&self) -> bool {
        self.segments.windows(2).any(|w| w[0].config != w[1].config)
    }
}

/// What a chain solve's plan is a function of, beyond the context's own
/// state: the engine, the pipeline degree and the filtered candidate list
/// (filters are closures, so the list they admit is their identity).
/// Settings that can move a winner are not in the key: changing the
/// pruning flag clears the context's memo, and a cache import replaces
/// it with the file's plans.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    pub(crate) engine: MappingEngine,
    pub(crate) pp: usize,
    /// A subsequence of `candidates_with_pp(pp)`, in enumeration order.
    pub(crate) candidates: Vec<HybridConfig>,
}

impl PlanKey {
    /// The key of a solve over the `pp` candidates of `ctx` that
    /// `admit` accepts.
    pub(crate) fn new(
        ctx: &SearchContext,
        engine: MappingEngine,
        pp: usize,
        admit: impl Fn(&HybridConfig) -> bool,
    ) -> PlanKey {
        PlanKey {
            engine,
            pp,
            candidates: ctx
                .candidates_with_pp(pp)
                .into_iter()
                .filter(|c| admit(c))
                .collect(),
        }
    }
}

/// The dual-level wafer solver.
#[derive(Debug, Clone)]
pub struct Dlws {
    ctx: Arc<SearchContext>,
}

impl Dlws {
    /// Creates a solver for a (wafer, model, workload) triple, with a
    /// fresh search context.
    pub fn new(wafer: WaferConfig, model: ModelConfig, workload: Workload) -> Self {
        Dlws::from_context(Arc::new(SearchContext::new(WaferCostModel::new(
            wafer, model, workload,
        ))))
    }

    /// Creates a solver over an existing (possibly shared) context — all
    /// solvers built this way share one evaluation cache.
    pub fn from_context(ctx: Arc<SearchContext>) -> Self {
        Dlws { ctx }
    }

    /// Creates a solver that plans directly on the degraded fabric
    /// `faults` describes: the cost model derates compute, usable memory
    /// and link-bound time from the fault map's [`temp_wsc::fault::DegradedView`]
    /// (see [`WaferCostModel::with_fault_map`]). A healthy map routes
    /// through the unmodified healthy pipeline, so its plans are
    /// bit-for-bit identical to [`Dlws::new`].
    pub fn with_fault_map(
        wafer: WaferConfig,
        model: ModelConfig,
        workload: Workload,
        faults: &FaultMap,
    ) -> Self {
        Dlws::from_context(Arc::new(SearchContext::new(
            WaferCostModel::with_fault_map(wafer, model, workload, faults),
        )))
    }

    /// A sibling solver planning the same `(model, workload)` on the
    /// degraded fabric: shares the candidate enumeration (an `Arc` —
    /// faults change feasibility, not which degree tuples exist), but
    /// costs everything through the fault-derated model.
    /// The degraded context's caches start empty; they are keyed by a
    /// fault-extended fingerprint and must not mix with healthy entries.
    pub fn degraded(&self, faults: &FaultMap) -> Dlws {
        Dlws {
            ctx: Arc::new(self.ctx.derated(faults)),
        }
    }

    /// Re-solves this solver's triple on the degraded fabric — the
    /// framework-level fault adaptation of §VIII-F: partitions are
    /// re-balanced (candidates re-ranked under derated compute/memory)
    /// and communication re-routed (collectives priced over the surviving
    /// links). A healthy map short-circuits to [`Dlws::solve`] on the
    /// *shared* healthy context, so the fault-free sweep point is the
    /// healthy plan itself, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NoFeasiblePlan`] when the degraded wafer
    /// cannot host the model at all — a disconnected mesh, or derated
    /// memory that no candidate fits (the fig20 link-fault cliff).
    pub fn resolve_degraded(&self, faults: &FaultMap) -> Result<ExecutionPlan> {
        if faults.is_healthy() {
            return self.solve();
        }
        self.degraded(faults).solve()
    }

    /// The shared search context (enumeration + cache + stats).
    pub fn context(&self) -> &Arc<SearchContext> {
        &self.ctx
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &WaferCostModel {
        self.ctx.cost_model()
    }

    /// Cache counters of the shared context.
    pub fn search_stats(&self) -> SearchStats {
        self.ctx.stats()
    }

    /// All candidate configurations for this wafer (enumerated once, at
    /// context construction).
    pub fn candidates(&self) -> Vec<HybridConfig> {
        self.ctx.candidates().to_vec()
    }

    /// Costs a candidate, escalating recompute on OOM; infeasible plans get
    /// infinite cost. Memoized in the shared context.
    pub fn cost_of(&self, cfg: &HybridConfig, engine: MappingEngine) -> CandidateCost {
        self.ctx.cost_of(cfg, engine)
    }

    /// Runs the full dual-level search.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NoFeasiblePlan`] when every configuration
    /// OOMs even with full recomputation.
    pub fn solve(&self) -> Result<ExecutionPlan> {
        self.solve_with_engine(MappingEngine::Tcme, |_| true)
    }

    /// Runs the full search with `engine`, under a wall-clock budget when
    /// one is given. A memoized plan is returned at once, never timed
    /// out. Otherwise a budget gives the solve its own [`CancelToken`]
    /// with the deadline: once it fires and a feasible candidate is
    /// committed, the best-first costing stream ends at its commit
    /// frontier (see [`SearchContext::cost_candidates_chain`]), and the
    /// solve returns the best plan among the candidates costed so far.
    /// Until then it keeps costing in bound order. The token belongs to
    /// this call alone: solves running beside it on the shared context
    /// never see it. A plan solved under a budget is never memoized,
    /// whether or not the deadline fired; an unbounded one is, as in
    /// [`Dlws::solve_with_engine_pp`].
    ///
    /// Returns the plan and whether the deadline fired. A `true` flag
    /// means the plan is best-effort: some candidates may never have
    /// been costed.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NoFeasiblePlan`] only when no candidate at
    /// all fits the wafer — the same condition under which the unbounded
    /// solve fails.
    pub fn solve_within(
        &self,
        engine: MappingEngine,
        budget: Option<std::time::Duration>,
    ) -> Result<(ExecutionPlan, bool)> {
        let key = PlanKey::new(&self.ctx, engine, 1, |_| true);
        self.solve_key(key, budget)
    }

    /// [`Dlws::solve_within`] on the TCME engine with a budget.
    ///
    /// # Errors
    ///
    /// As [`Dlws::solve_within`].
    pub fn solve_with_deadline(
        &self,
        budget: std::time::Duration,
    ) -> Result<(ExecutionPlan, bool)> {
        self.solve_within(MappingEngine::Tcme, Some(budget))
    }

    /// Full search restricted to an engine and a configuration filter —
    /// baseline planners (Megatron/MeSP/FSDP) reuse the machinery with their
    /// own legal sub-spaces.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NoFeasiblePlan`] when no filtered
    /// configuration fits memory.
    pub fn solve_with_engine(
        &self,
        engine: MappingEngine,
        filter: impl Fn(&HybridConfig) -> bool,
    ) -> Result<ExecutionPlan> {
        self.solve_with_engine_pp(engine, 1, filter)
    }

    /// As [`Dlws::solve_with_engine`] with a fixed pipeline degree across
    /// wafers (multi-WSC planning; Fig. 19).
    ///
    /// A repeat of an earlier solve on the same context (same engine,
    /// degree and admitted candidates, no setting changed since, or a
    /// plan restored by a cache import) is answered from the context's
    /// plan memo without costing or DP. A fresh solve stores its plan
    /// there unless a setting changed while it ran.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NoFeasiblePlan`] when no filtered
    /// configuration fits memory.
    pub fn solve_with_engine_pp(
        &self,
        engine: MappingEngine,
        pp: usize,
        filter: impl Fn(&HybridConfig) -> bool,
    ) -> Result<ExecutionPlan> {
        let key = PlanKey::new(&self.ctx, engine, pp, filter);
        self.solve_key(key, None).map(|(plan, _)| plan)
    }

    /// The plan of `key`: the memoized one, or a fresh solve, bounded by
    /// `budget` when one is given. An unbounded solve memoizes its plan;
    /// a bounded one never does. Returns the plan and whether the
    /// deadline fired.
    fn solve_key(
        &self,
        key: PlanKey,
        budget: Option<std::time::Duration>,
    ) -> Result<(ExecutionPlan, bool)> {
        if let Some(plan) = self.ctx.memoized_plan(&key) {
            return Ok((plan, false));
        }
        let Some(budget) = budget else {
            let ticket = self.ctx.plan_ticket();
            let plan = self.solve_candidates(key.engine, &key.candidates, None)?;
            self.ctx.memoize_plan(ticket, key, &plan);
            return Ok((plan, false));
        };
        let token = CancelToken::with_deadline(budget);
        let plan = self.solve_candidates(key.engine, &key.candidates, Some(&token))?;
        Ok((plan, token.is_cancelled()))
    }

    /// The dual-level search proper over an admitted candidate list,
    /// bypassing the plan memo; `token`, when given, bounds its costing.
    fn solve_candidates(
        &self,
        engine: MappingEngine,
        all_candidates: &[HybridConfig],
        token: Option<&CancelToken>,
    ) -> Result<ExecutionPlan> {
        if all_candidates.is_empty() {
            return Err(SolverError::NoFeasiblePlan(
                "no candidates pass the filter".into(),
            ));
        }
        // Whole-model (body) candidates: expert-parallel tuples are
        // dense-equivalent to their `dp x ep` twins on every segment that
        // has no experts (EP folds into DP there), so only `ep = 1`
        // tuples pay the exact pipeline — evaluating the twins would both
        // waste the costing budget and seed float-association ties the DP
        // would break arbitrarily. `ep > 1` tuples exist solely for the
        // MoE segment row, which is closed-form.
        let candidates: Vec<HybridConfig> = all_candidates
            .iter()
            .copied()
            .filter(|c| c.ep == 1)
            .collect();
        if candidates.is_empty() {
            return Err(SolverError::NoFeasiblePlan(
                "no dense-path candidates pass the filter".into(),
            ));
        }
        // Cost the body candidates through the bound-pruned chain path:
        // cache misses share one hoist per recompute rung and are costed
        // best bound first, one candidate per task, hits (from earlier
        // solves over overlapping spaces) are free, and candidates the
        // admissible bounds prove non-optimal skip the cost model
        // entirely.
        let costed: Vec<CandidateCost> =
            self.ctx
                .cost_candidates_chain(&candidates, all_candidates, engine, token);
        if costed.iter().all(|(t, _)| !t.is_finite()) {
            return Err(SolverError::NoFeasiblePlan(
                "every candidate OOMs even with full recomputation".into(),
            ));
        }

        // Level 1: DP over the real heterogeneous segment chain
        // (embedding -> blocks -> [MoE blocks] -> head) with resharding
        // transition costs. The lists are ragged: dense segments choose
        // among the body candidates, the MoE run among the *full* space
        // including expert-parallel tuples.
        //
        // The block run's per-candidate cost is the *exact* whole-model
        // step time minus the embedding/head/MoE contributions
        // (contention simulation included); every other segment is priced
        // from the shared closed-form segment table, which pruning never
        // touches — so skipping block candidates cannot perturb the other
        // segments' choices.
        // A resharding boundary is crossed once per micro-batch.
        let base_mode = self.ctx.cost_model().workload().recompute;
        let micro = self.ctx.cost_model().workload().micro_batches.max(1) as f64;
        let chain = self.ctx.chain();
        let block_row = chain
            .position(SegmentKind::Block)
            .ok_or_else(|| SolverError::Internal("chain has no block segment".into()))?;
        let seg_cands = crate::search::chain_lists(chain, &candidates, all_candidates);
        let seg_costs: Vec<Vec<f64>> = chain
            .segments()
            .iter()
            .zip(&seg_cands)
            .map(|(seg, cands)| match seg.kind {
                SegmentKind::Block => costed
                    .iter()
                    .map(|(t, payload)| match payload {
                        Some((_, report)) if t.is_finite() => report.block_time(),
                        _ => f64::INFINITY,
                    })
                    .collect(),
                // End and MoE segments: the shared per-step rows (one
                // source of truth with the pruned path's bounds).
                kind => self.ctx.segment_step_costs(kind, cands, engine, base_mode),
            })
            .collect();
        let reshard = |s: usize, a: usize, b: usize| {
            micro
                * self
                    .ctx
                    .resharding_cost(&seg_cands[s - 1][a], &seg_cands[s][b])
        };
        // Every boundary follows one law (an equal config is free, any
        // other costs `micro x full_reshard`), so the keyed DP solves the
        // chain in `O(S x C log C)` with `solve_chain`'s exact answer.
        let dp = solve_keyed_chain(&seg_costs, &seg_cands, self.ctx.chain_switch_cost())
            .map_err(|e| SolverError::Internal(format!("chain DP: {e}")))?;
        debug_assert!(
            crate::dp::solve_chain(&seg_costs, reshard).is_ok_and(|reference| {
                reference.choices == dp.choices && reference.cost.to_bits() == dp.cost.to_bits()
            }),
            "keyed chain DP diverged from the reference"
        );

        // The chain objective of the DP's assignment, summed forward
        // segment by segment (the DP folds in its own order, which can
        // differ in the last bit).
        let choices = &dp.choices;
        let mut chain_cost = 0.0;
        for (s, &c) in choices.iter().enumerate() {
            chain_cost += seg_costs[s][c];
            if s > 0 {
                chain_cost += reshard(s, choices[s - 1], c);
            }
        }
        let winner = choices[block_row];
        // Clone the winner's payload out of the costed vector instead of
        // `mem::take`-ing it: the shared cache must stay intact so the
        // context remains reusable across solves.
        let (workload, report) = costed[winner].1.clone().ok_or_else(|| {
            SolverError::NoFeasiblePlan("chain DP chose an infeasible candidate".into())
        })?;
        let segments: Vec<SegmentAssignment> = chain
            .segments()
            .iter()
            .zip(choices)
            .enumerate()
            .map(|(s, (seg, &c))| SegmentAssignment {
                kind: seg.kind,
                count: seg.count,
                config: seg_cands[s][c],
                step_time: seg_costs[s][c],
            })
            .collect();
        Ok(ExecutionPlan {
            config: candidates[winner],
            engine,
            workload,
            report,
            segments,
            chain_cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_graph::models::ModelZoo;
    use temp_graph::workload::RecomputeMode;

    fn solver(model: ModelConfig) -> Dlws {
        let workload = Workload::for_model(&model);
        Dlws::new(WaferConfig::hpca(), model, workload)
    }

    #[test]
    fn solves_small_model() {
        let plan = solver(ModelZoo::gpt3_6_7b()).solve().unwrap();
        assert!(plan.report.fits_memory);
        assert!(plan.report.step_time.is_finite());
        assert_eq!(plan.config.intra_wafer_degree(), 32);
    }

    #[test]
    fn optimal_tatp_degree_is_in_the_paper_band() {
        // §VIII-D: "the optimal TATP dimension consistently falls within
        // 8-16". Small models land exactly there; for the largest models our
        // cost model's margins between 16 and 32 are within noise, so we
        // assert TATP dominance (>= 8) rather than the exact upper edge.
        let plan = solver(ModelZoo::gpt3_6_7b()).solve().unwrap();
        assert!(
            (8..=16).contains(&plan.config.tatp),
            "GPT-3 6.7B: chose {}",
            plan.config.label()
        );
        let plan = solver(ModelZoo::gpt3_76b()).solve().unwrap();
        assert!(
            plan.config.tatp >= 8,
            "GPT-3 76B: chose {}",
            plan.config.label()
        );
    }

    #[test]
    fn restricted_search_honors_filter() {
        // A Megatron-style planner: no TATP, no FSDP.
        let plan = solver(ModelZoo::gpt3_6_7b())
            .solve_with_engine(MappingEngine::SMap, |c| c.tatp == 1 && !c.fsdp && c.sp == 1)
            .unwrap();
        assert_eq!(plan.config.tatp, 1);
        assert!(!plan.config.fsdp);
    }

    #[test]
    fn tatp_enabled_plan_beats_restricted_baseline() {
        let s = solver(ModelZoo::gpt3_6_7b());
        let temp = s.solve().unwrap();
        let mega = s
            .solve_with_engine(MappingEngine::SMap, |c| c.tatp == 1 && !c.fsdp)
            .unwrap();
        assert!(
            temp.report.step_time < mega.report.step_time,
            "TEMP {} vs Megatron-style {}",
            temp.report.step_time,
            mega.report.step_time
        );
    }

    #[test]
    fn empty_filter_is_an_error() {
        let s = solver(ModelZoo::gpt3_6_7b());
        let err = s
            .solve_with_engine(MappingEngine::Tcme, |_| false)
            .unwrap_err();
        assert!(matches!(err, SolverError::NoFeasiblePlan(_)));
    }

    #[test]
    fn large_model_escalates_recompute() {
        let plan = solver(ModelZoo::gpt3_175b()).solve().unwrap();
        // 175B on one 32-die wafer cannot keep 34·sbh activations around.
        assert_eq!(plan.workload.recompute, RecomputeMode::Full);
        assert!(plan.report.fits_memory);
    }

    #[test]
    fn chain_assignment_is_heterogeneous_and_beats_uniform() {
        let plan = solver(ModelZoo::gpt3_6_7b()).solve().unwrap();
        assert_eq!(plan.segments.len(), 3);
        assert_eq!(plan.segments[0].kind, SegmentKind::Embedding);
        assert_eq!(plan.segments[1].kind, SegmentKind::Block);
        assert_eq!(plan.segments[2].kind, SegmentKind::Head);
        // The block run is what the plan's config/report describe.
        assert_eq!(plan.segments[1].config, plan.config);
        // The chain objective can only improve on the uniform evaluation,
        // and on GPT-3 6.7B it strictly does: the embedding escapes the
        // blocks' vocab-parallel all-reduce.
        assert!(plan.chain_cost <= plan.report.step_time);
        assert!(plan.is_heterogeneous(), "{:?}", plan.segments);
        assert_ne!(plan.segments[0].config, plan.segments[1].config);
        assert!(plan.chain_cost < plan.report.step_time);
        // Chain-cost bookkeeping: segment contributions plus boundary
        // transitions reproduce the total.
        let micro = plan.workload.micro_batches as f64;
        let boundary = solver(ModelZoo::gpt3_6_7b()).context().full_reshard_cost();
        let mut total = 0.0;
        for (i, seg) in plan.segments.iter().enumerate() {
            total += seg.step_time;
            if i > 0 && plan.segments[i - 1].config != seg.config {
                total += micro * boundary;
            }
        }
        assert!(
            (total - plan.chain_cost).abs() <= 1e-9 * plan.chain_cost,
            "{total} vs {}",
            plan.chain_cost
        );
    }

    #[test]
    fn repeated_solves_reuse_the_cache() {
        let s = solver(ModelZoo::gpt3_6_7b());
        let first = s.solve().unwrap();
        let after_first = s.search_stats();
        assert!(after_first.misses > 0);
        let second = s.solve().unwrap();
        let after_second = s.search_stats();
        assert_eq!(first, second, "cached solve must reproduce the plan");
        assert_eq!(
            after_first.misses, after_second.misses,
            "second solve must not re-cost anything"
        );
        assert_eq!(
            after_second.plan_hits,
            after_first.plan_hits + 1,
            "second solve must be served from the plan memo"
        );
        assert_eq!(
            after_first.hits, after_second.hits,
            "a memo hit reads no cost-table entry"
        );
    }

    #[test]
    fn timed_out_solves_leave_the_plan_memo_empty() {
        let s = solver(ModelZoo::gpt3_6_7b());
        let (best_effort, timed_out) = s
            .solve_with_deadline(std::time::Duration::ZERO)
            .expect("a zero deadline must produce a plan");
        assert!(timed_out);
        assert_eq!(s.context().plan_memo_len(), 0, "best effort was memoized");
        // The next unbounded solve runs the full search.
        let full = s.solve().unwrap();
        assert_eq!(s.search_stats().plan_hits, 0);
        // A fresh context re-folds HashMap-ordered sums, so the cost
        // matches up to float association, not bitwise.
        let cold = solver(ModelZoo::gpt3_6_7b()).solve().unwrap();
        assert_eq!(full.config, cold.config);
        assert!((full.chain_cost - cold.chain_cost).abs() <= 1e-9 * cold.chain_cost);
        assert!(full.chain_cost <= best_effort.chain_cost);
        assert_eq!(s.context().plan_memo_len(), 1);
    }

    #[test]
    fn a_deadline_never_cuts_short_a_concurrent_solve_on_the_same_context() {
        let model = ModelZoo::gpt3_6_7b();
        let shape = |plan: &ExecutionPlan| {
            let segments: Vec<_> = plan
                .segments
                .iter()
                .map(|a| (a.kind, a.count, a.config))
                .collect();
            (plan.config, segments)
        };
        let want = solver(model.clone())
            .solve_with_engine(MappingEngine::SMap, |_| true)
            .unwrap();
        // Each round races on a fresh context, so the undeadlined solve
        // costs cold while deadline'd solves run back to back beside it.
        for round in 0..8 {
            let s = solver(model.clone());
            let barrier = std::sync::Barrier::new(2);
            let done = std::sync::atomic::AtomicBool::new(false);
            let plan = std::thread::scope(|scope| {
                scope.spawn(|| {
                    barrier.wait();
                    for _ in 0..100 {
                        if done.load(std::sync::atomic::Ordering::Relaxed) {
                            break;
                        }
                        s.solve_with_deadline(std::time::Duration::ZERO)
                            .expect("a zero deadline must produce a plan");
                    }
                });
                barrier.wait();
                let plan = s.solve_with_engine(MappingEngine::SMap, |_| true);
                done.store(true, std::sync::atomic::Ordering::Relaxed);
                plan
            });
            let plan = plan.unwrap_or_else(|e| panic!("round {round}: undeadlined solve: {e:?}"));
            assert_eq!(shape(&plan), shape(&want), "round {round}");
            assert!(
                (plan.chain_cost - want.chain_cost).abs() <= 1e-9 * want.chain_cost,
                "round {round}: {} vs {}",
                plan.chain_cost,
                want.chain_cost
            );
        }
    }

    #[test]
    fn with_pruning_off_a_zero_deadline_costs_the_whole_space() {
        // The exhaustive path passes no token to the costing stream, so a
        // fired deadline changes neither what is costed nor the plan.
        let engine = MappingEngine::SMap;
        let s = solver(ModelZoo::gpt3_6_7b());
        s.context().set_pruning(false);
        let (deadlined, _) = s
            .solve_within(engine, Some(std::time::Duration::ZERO))
            .unwrap();
        let after_deadline = s.search_stats();
        assert_eq!(after_deadline.pruned_candidates(), 0);
        let reference = solver(ModelZoo::gpt3_6_7b());
        reference.context().set_pruning(false);
        let (_, timed_out) = reference.solve_within(engine, None).unwrap();
        assert!(!timed_out);
        assert_eq!(after_deadline.misses, reference.search_stats().misses);
        // The undeadlined solve on the same context re-costs nothing and
        // returns the same plan, built from the same cached reports.
        let (full, _) = s.solve_within(engine, None).unwrap();
        assert_eq!(s.search_stats().misses, after_deadline.misses);
        assert_eq!(full, deadlined);
    }

    #[test]
    fn settings_changes_clear_the_plan_memo() {
        let s = solver(ModelZoo::gpt3_6_7b());
        let ctx = s.context();
        let _ = s.solve().unwrap();
        assert_eq!(ctx.plan_memo_len(), 1);
        // Re-applying the current value keeps the memo.
        ctx.set_pruning(true);
        assert_eq!(ctx.plan_memo_len(), 1);
        ctx.set_pruning(false);
        assert_eq!(ctx.plan_memo_len(), 0);
        // A different engine is a different key.
        let _ = s.solve().unwrap();
        let hits = s.search_stats().plan_hits;
        let _ = s.solve_with_engine(MappingEngine::SMap, |_| true).unwrap();
        assert_eq!(s.search_stats().plan_hits, hits);
        assert_eq!(ctx.plan_memo_len(), 2);
    }

    #[test]
    fn only_memoized_plans_reach_the_export() {
        // A server's `deadline_ms` query is a `solve_with_deadline`.
        let p_records = |s: &Dlws| {
            let text = s.context().export_cost_table();
            text.lines().filter(|l| l.starts_with("P ")).count()
        };
        for budget in [
            std::time::Duration::ZERO,
            std::time::Duration::from_secs(3600),
        ] {
            let s = solver(ModelZoo::gpt3_6_7b());
            let _ = s.solve_with_deadline(budget).unwrap();
            assert_eq!(
                p_records(&s),
                0,
                "a deadline'd plan was exported ({budget:?})"
            );
        }
        let s = solver(ModelZoo::gpt3_6_7b());
        let plan = s.solve().unwrap();
        assert_eq!(p_records(&s), 1);
        let restarted = solver(ModelZoo::gpt3_6_7b());
        let text = s.context().export_cost_table();
        assert_eq!(
            restarted.context().import_cost_table(&text).unwrap().plans,
            1
        );
        assert_eq!(restarted.solve().unwrap(), plan);
        s.context().set_pruning(false);
        assert_eq!(p_records(&s), 0, "a cleared memo still exported a plan");
    }

    #[test]
    fn an_imported_cache_recomputes_segment_rows_and_replans_identically() {
        // An exhaustive TCME solve costs every TCME candidate, so a
        // Megatron-style TCME solve after the import needs no exact
        // evaluation; its segment rows are not in the file and are
        // recomputed, and the plan matches the exporting context's.
        let megatron = |c: &HybridConfig| c.tatp == 1 && !c.fsdp;
        let s = solver(ModelZoo::gpt3_6_7b());
        s.context().set_pruning(false);
        let _ = s.solve().unwrap();
        let text = s.context().export_cost_table();
        let restarted = solver(ModelZoo::gpt3_6_7b());
        restarted.context().import_cost_table(&text).unwrap();
        let plan = restarted
            .solve_with_engine(MappingEngine::Tcme, megatron)
            .unwrap();
        let stats = restarted.search_stats();
        assert_eq!(stats.misses, 0, "every exact evaluation was imported");
        assert!(stats.seg_misses > 0, "segment rows must be recomputed");
        assert_eq!(
            plan,
            s.solve_with_engine(MappingEngine::Tcme, megatron).unwrap()
        );
    }

    #[test]
    fn zero_deadline_still_returns_a_usable_plan_and_the_context_survives() {
        let s = solver(ModelZoo::gpt3_6_7b());
        let (best_effort, timed_out) = s
            .solve_with_deadline(std::time::Duration::ZERO)
            .expect("a zero deadline must produce a plan");
        assert!(timed_out, "a zero budget must report expiry");
        assert!(best_effort.report.fits_memory);
        assert!(best_effort.chain_cost.is_finite());
        assert_eq!(best_effort.segments.len(), 3);
        // The same context (and its shared pool) keeps serving full solves.
        let full = s.solve().unwrap();
        assert!(
            full.chain_cost <= best_effort.chain_cost,
            "unbounded search can only improve on the best effort: {} vs {}",
            full.chain_cost,
            best_effort.chain_cost
        );
    }

    #[test]
    fn generous_deadline_reproduces_the_unbounded_plan() {
        let s = solver(ModelZoo::gpt3_6_7b());
        let (plan, timed_out) = s
            .solve_with_deadline(std::time::Duration::from_secs(3600))
            .unwrap();
        assert!(!timed_out);
        assert_eq!(plan, s.solve().unwrap());
    }

    #[test]
    fn never_firing_deadline_costs_exactly_like_the_undeadlined_solve() {
        for engine in [
            MappingEngine::Tcme,
            MappingEngine::SMap,
            MappingEngine::GMap,
        ] {
            let bounded = solver(ModelZoo::gpt3_6_7b());
            let (plan, timed_out) = bounded
                .solve_within(engine, Some(std::time::Duration::from_secs(3600)))
                .unwrap();
            assert!(!timed_out, "{engine}");
            let free = solver(ModelZoo::gpt3_6_7b());
            let want = free.solve_with_engine(engine, |_| true).unwrap();
            // The same exact evaluations as a fresh undeadlined solve...
            assert_eq!(
                bounded.search_stats().misses,
                free.search_stats().misses,
                "{engine}: a live token changed what was costed"
            );
            // ...and the same plan: bit for bit against an undeadlined
            // solve over the same cost table (nothing new is costed), and
            // up to float association against the fresh context.
            let misses = bounded.search_stats().misses;
            assert_eq!(bounded.solve_with_engine(engine, |_| true).unwrap(), plan);
            assert_eq!(bounded.search_stats().misses, misses, "{engine}");
            assert_eq!(plan.config, want.config, "{engine}");
            assert!(
                (plan.chain_cost - want.chain_cost).abs() <= 1e-9 * want.chain_cost,
                "{engine}"
            );
        }
    }

    #[test]
    fn a_cold_zero_deadline_plans_every_engine_alike_serial_and_pooled() {
        let shape = |plan: &ExecutionPlan| {
            let configs: Vec<_> = plan.segments.iter().map(|a| a.config).collect();
            (plan.config, configs)
        };
        for engine in [
            MappingEngine::Tcme,
            MappingEngine::SMap,
            MappingEngine::GMap,
        ] {
            let run = |parallel: bool| {
                let s = solver(ModelZoo::gpt3_6_7b());
                s.context().set_parallel(parallel);
                let (plan, timed_out) = s
                    .solve_within(engine, Some(std::time::Duration::ZERO))
                    .expect("a zero deadline must produce a plan");
                assert!(timed_out, "{engine}");
                assert!(plan.report.fits_memory, "{engine}");
                assert!(plan.chain_cost.is_finite(), "{engine}");
                assert_eq!(plan.engine, engine);
                assert_eq!(s.context().plan_memo_len(), 0, "{engine}: memoized");
                (plan, s.search_stats())
            };
            let (serial, serial_stats) = run(false);
            let (pooled, pooled_stats) = run(true);
            assert_eq!(shape(&serial), shape(&pooled), "{engine}");
            assert!(
                (serial.chain_cost - pooled.chain_cost).abs() <= 1e-9 * serial.chain_cost,
                "{engine}"
            );
            assert_eq!(serial_stats.misses, pooled_stats.misses, "{engine}");
            // Positions the deadline cut are not dominated.
            assert_eq!(serial_stats.dominated_pruned, 0, "{engine}");
            assert_eq!(pooled_stats.dominated_pruned, 0, "{engine}");
        }
    }

    #[test]
    fn healthy_fault_map_resolves_to_the_identical_plan() {
        use temp_wsc::fault::FaultMap;
        let s = solver(ModelZoo::gpt3_6_7b());
        let healthy = FaultMap::healthy(&WaferConfig::hpca().mesh());
        let baseline = s.solve().unwrap();
        let resolved = s.resolve_degraded(&healthy).unwrap();
        assert_eq!(resolved, baseline, "healthy re-solve must be bit-for-bit");
    }

    #[test]
    fn link_faults_resolve_to_a_feasible_slower_plan() {
        use temp_wsc::fault::FaultMap;
        let s = solver(ModelZoo::gpt3_6_7b());
        let healthy = s.solve().unwrap();
        let mesh = WaferConfig::hpca().mesh();
        let faults = FaultMap::inject_link_faults(&mesh, 0.15, 23);
        assert!(faults.is_connected(&mesh));
        let degraded = s.resolve_degraded(&faults).unwrap();
        assert!(degraded.report.fits_memory);
        assert!(
            degraded.report.step_time >= healthy.report.step_time,
            "degraded fabric cannot beat the healthy plan: {} vs {}",
            degraded.report.step_time,
            healthy.report.step_time
        );
    }

    #[test]
    fn clones_share_one_cache() {
        let s = solver(ModelZoo::gpt3_6_7b());
        let clone = s.clone();
        let _ = s.solve().unwrap();
        let misses_after_original = clone.search_stats().misses;
        let _ = clone.solve().unwrap();
        assert_eq!(
            clone.search_stats().misses,
            misses_after_original,
            "clone's solve must be answered from the shared cache"
        );
    }
}
