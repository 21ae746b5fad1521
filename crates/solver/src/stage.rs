//! Stage-partitioned multi-wafer planning (Fig. 19, §VIII-E).
//!
//! A pipeline stage is a **contiguous slice of the segment chain**, not a
//! scalar degree: the planner jointly picks the cut positions (how many
//! Transformer blocks each stage owns) and the per-stage strategies, with
//! the first stage owning the embedding and the last the LM head. The
//! pre-refactor behavior — one uniform intra-wafer solve scaled by a
//! pipeline-degree multiplier — priced every stage identically and
//! charged the embedding/head as if they serialized outside the pipeline;
//! here they live *inside* their stages, so a step costs
//!
//! ```text
//! T_step = sum_s t_s  +  (micro - 1) x max_s t_s  +  handoffs
//! ```
//!
//! (fill/drain of one micro-batch through every stage, then the
//! bottleneck paces the remaining `micro - 1`). Stages sharing a wafer
//! (`pp_multiplier > 1`) time-multiplex the same dies, so the pace is set
//! by the **wafer load** — the sum of its stages' times — not by the
//! smallest stage: splitting one wafer into more virtual stages is not a
//! free speedup. Inter-wafer handoffs are priced from the **actual
//! boundary activation tensor** at each cut
//! ([`SegmentChain::boundary_activation_bytes`]) through
//! [`MultiWaferSystem::inter_wafer_transfer_time`]; stage boundaries that
//! stay on one wafer keep the activation resident and pay nothing.
//!
//! The search reuses the whole existing pipeline: candidates are costed
//! exactly through the shared [`crate::search::SearchContext`], the
//! block unit time comes from the exact whole-model evaluation, the end
//! segments from the closed-form per-segment cost table, and the cut
//! positions from the
//! [`crate::dp::balance_stage_cuts`] parametric DP. Candidates are
//! bound-pruned like the single-wafer body row: since the pace is at
//! least the mean wafer load, `(1 + (micro - 1) / W) x` a floor on
//! `sum_s t_s` bounds every candidate's step from below, and a candidate
//! whose bound exceeds an already-scored candidate's exact step is never
//! costed (see [`crate::search::SearchContext::cost_candidates_bounded`]).
//! Plans are bit-identical to the exhaustive search. With one stage the
//! planner delegates to the single-wafer solve, so `wafer_count = 1`
//! reproduces it bit-for-bit.

use serde::{Deserialize, Serialize};

use temp_graph::segment::{SegmentChain, SegmentKind};
use temp_graph::workload::{RecomputeMode, Workload};
use temp_mapping::engines::MappingEngine;
use temp_parallel::strategy::HybridConfig;
use temp_wsc::multiwafer::MultiWaferSystem;

use crate::dlws::{Dlws, ExecutionPlan, SegmentAssignment};
use crate::dp;
use crate::par;
use crate::search::{finite_min, CandidateCost, SearchContext};
use crate::{Result, SolverError};

/// One pipeline stage of a multi-wafer plan: which slice of the chain it
/// owns, on which wafer, under which strategies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagePlan {
    /// Stage index in pipeline order.
    pub stage: usize,
    /// The wafer hosting this stage (stages fill wafers in order).
    pub wafer: usize,
    /// The contiguous chain slice this stage executes.
    pub chain: SegmentChain,
    /// Strategy per run of the slice (the end stages may assign their
    /// embedding/head a different strategy than the blocks).
    pub segments: Vec<SegmentAssignment>,
    /// Per-micro-batch latency of this stage, including any intra-stage
    /// resharding boundary.
    pub stage_time: f64,
    /// Boundary activation bytes this stage receives from its
    /// predecessor (zero for the first stage).
    pub inbound_bytes: f64,
    /// Whether that inbound handoff crossed wafers (and therefore paid
    /// the inter-wafer link).
    pub inter_wafer_inbound: bool,
}

/// A solved stage-partitioned multi-wafer deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiWaferPlan {
    /// Wafers in the chain.
    pub wafer_count: usize,
    /// Stages per wafer.
    pub pp_multiplier: usize,
    /// The pipeline-body plan: the block strategy (its `config.pp` is the
    /// stage count), the exact whole-model report it was priced from, and
    /// the overall chain assignment.
    pub body: ExecutionPlan,
    /// Per-stage slices, strategies and handoffs, in pipeline order.
    pub stages: Vec<StagePlan>,
    /// One optimizer-step wall-clock time of the pipelined execution.
    pub step_time: f64,
    /// The per-micro-batch time of the most loaded *wafer* (the sum of
    /// its stages' times) — what paces the pipeline, since stages on one
    /// wafer time-multiplex the same dies.
    pub bottleneck_time: f64,
    /// Fill/drain bubble per step: `sum_s t_s` minus one pace quantum.
    pub bubble_time: f64,
    /// Total inter-wafer handoff time per step (priced from the actual
    /// boundary activation tensors at the cuts).
    pub handoff_time: f64,
}

impl MultiWaferPlan {
    /// Total pipeline stages (`wafer_count x pp_multiplier`).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Whether any stage assigned a segment a strategy different from the
    /// pipeline body's.
    pub fn is_heterogeneous(&self) -> bool {
        self.stages
            .iter()
            .flat_map(|s| &s.segments)
            .any(|a| a.config != self.body.config)
    }

    /// Block instances per stage, in pipeline order.
    pub fn blocks_per_stage(&self) -> Vec<u64> {
        self.stages
            .iter()
            .map(|s| {
                s.chain
                    .find(SegmentKind::Block)
                    .map(|seg| seg.count)
                    .unwrap_or(0)
            })
            .collect()
    }
}

impl Dlws {
    /// Plans a stage-partitioned multi-wafer deployment: cut positions,
    /// per-stage strategies and inter-wafer handoffs, jointly. See the
    /// module docs for the objective.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NoFeasiblePlan`] when no filtered candidate
    /// fits memory, or when the pipeline is deeper than the block chain.
    pub fn solve_stage_partitioned(
        &self,
        engine: MappingEngine,
        wafers: &MultiWaferSystem,
        pp_multiplier: usize,
        filter: impl Fn(&HybridConfig) -> bool,
    ) -> Result<MultiWaferPlan> {
        let pp_multiplier = pp_multiplier.max(1);
        // One wafer has no pipeline boundaries and its stages would
        // time-multiplex one die array, so the multiplier is moot: plan
        // it as a single stage. The single-wafer solve *is* that plan
        // (bit-for-bit).
        if wafers.wafer_count == 1 {
            let ctx = self.context();
            let micro = ctx.cost_model().workload().micro_batches.max(1) as f64;
            let body = self.solve_with_engine_pp(engine, 1, filter)?;
            let stage_time = body.report.step_time / micro;
            let stages = vec![StagePlan {
                stage: 0,
                wafer: 0,
                chain: ctx.chain().clone(),
                segments: body.segments.clone(),
                stage_time,
                inbound_bytes: 0.0,
                inter_wafer_inbound: false,
            }];
            return Ok(MultiWaferPlan {
                wafer_count: wafers.wafer_count,
                pp_multiplier,
                step_time: body.report.step_time,
                bottleneck_time: stage_time,
                bubble_time: 0.0,
                handoff_time: 0.0,
                body,
                stages,
            });
        }

        let search = StageSearch::new(self.context(), wafers, pp_multiplier, engine, filter)?;
        let costed = search.cost();
        if costed.iter().all(|(t, _)| !t.is_finite()) {
            return Err(SolverError::NoFeasiblePlan(
                "every candidate OOMs even with full recomputation".into(),
            ));
        }

        // Scoring one candidate is pure arithmetic over the precomputed
        // rows, so the batch fans out on the runtime pool (its own cost
        // class — items here are far cheaper than exact costing, so the
        // adaptive cutoff keeps small sweeps serial), while the winner
        // fold below runs in index order with strict less-than,
        // bit-identical to the serial loop.
        static STAGE_SCORE_CLASS: par::ParClass = par::ParClass::new();
        let indices: Vec<usize> = (0..costed.len()).collect();
        let scored = par::par_map_class(&STAGE_SCORE_CLASS, &indices, |&i| {
            search.score(i, &costed[i])
        });
        let mut best: Option<Winner> = None;
        for candidate in scored.into_iter().flatten() {
            if best
                .as_ref()
                .map(|b| candidate.step < b.step)
                .unwrap_or(true)
            {
                best = Some(candidate);
            }
        }
        let w = best.ok_or_else(|| {
            SolverError::NoFeasiblePlan("no candidate admits a stage partition".into())
        })?;

        search.assemble(w, &costed)
    }
}

/// One partitioned stage problem (at least two wafers): the filtered
/// candidate list at the pipeline degree, the interior runs the cuts
/// balance over, and the end-segment rows and resharding charge every
/// candidate's score reads.
struct StageSearch<'a> {
    ctx: &'a SearchContext,
    wafers: &'a MultiWaferSystem,
    engine: MappingEngine,
    pp_multiplier: usize,
    stage_count: usize,
    micro: f64,
    /// Interior instances in chain order: dense blocks and (for MoE
    /// models) MoE blocks. They are the pipeline's divisible work; the
    /// embedding/head stay pinned to the end stages.
    interior: Vec<(SegmentKind, u64)>,
    dense_blocks: u64,
    moe_blocks: u64,
    /// Per-wafer block floors: with `m` virtual stages per wafer every
    /// stage must stay non-empty, so interior wafers need `m` blocks
    /// and the end wafers `m - 1` (their end segment fills one stage).
    wafer_mins: Vec<u64>,
    candidates: Vec<HybridConfig>,
    /// End-segment rows (per-step, closed-form) over `candidates`.
    emb_row: Vec<f64>,
    head_row: Vec<f64>,
    /// Per-step resharding charge of moving an end segment off the
    /// body's strategy — the same quantity the single-wafer chain DP
    /// uses.
    boundary_step: f64,
}

impl<'a> StageSearch<'a> {
    /// # Errors
    ///
    /// [`SolverError::NoFeasiblePlan`] when the pipeline is deeper than
    /// the block chain or no candidate passes `filter`.
    fn new(
        ctx: &'a SearchContext,
        wafers: &'a MultiWaferSystem,
        pp_multiplier: usize,
        engine: MappingEngine,
        filter: impl Fn(&HybridConfig) -> bool,
    ) -> Result<Self> {
        let stage_count = wafers.stage_count(pp_multiplier);
        let interior: Vec<(SegmentKind, u64)> = ctx
            .chain()
            .segments()
            .iter()
            .filter(|s| matches!(s.kind, SegmentKind::Block | SegmentKind::MoeBlock))
            .map(|s| (s.kind, s.count))
            .collect();
        let count_of = |kind: SegmentKind| -> u64 {
            interior
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, c)| c)
                .sum()
        };
        let dense_blocks = count_of(SegmentKind::Block);
        let moe_blocks = count_of(SegmentKind::MoeBlock);
        let blocks = dense_blocks + moe_blocks;
        if blocks == 0 {
            return Err(SolverError::Internal("chain has no block segment".into()));
        }
        if blocks < stage_count as u64 {
            return Err(SolverError::NoFeasiblePlan(format!(
                "pipeline of {stage_count} stages is deeper than the {blocks}-block chain"
            )));
        }

        let candidates: Vec<HybridConfig> = ctx
            .candidates_with_pp(stage_count)
            .into_iter()
            .filter(|c| filter(c))
            .collect();
        if candidates.is_empty() {
            return Err(SolverError::NoFeasiblePlan(
                "no candidates pass the filter".into(),
            ));
        }

        let base_mode = ctx.cost_model().workload().recompute;
        let emb_row =
            ctx.segment_step_costs(SegmentKind::Embedding, &candidates, engine, base_mode);
        let head_row = ctx.segment_step_costs(SegmentKind::Head, &candidates, engine, base_mode);
        let micro = ctx.cost_model().workload().micro_batches.max(1) as f64;

        let wafer_count = wafers.wafer_count;
        let m = pp_multiplier as u64;
        let wafer_mins: Vec<u64> = if m == 1 {
            Vec::new()
        } else {
            (0..wafer_count)
                .map(|w| {
                    if w == 0 || w == wafer_count - 1 {
                        m - 1
                    } else {
                        m
                    }
                })
                .collect()
        };

        Ok(StageSearch {
            ctx,
            wafers,
            engine,
            pp_multiplier,
            stage_count,
            micro,
            interior,
            dense_blocks,
            moe_blocks,
            wafer_mins,
            candidates,
            emb_row,
            head_row,
            boundary_step: micro * ctx.full_reshard_cost(),
        })
    }

    /// Costs the candidates exactly, skipping those whose stage-step
    /// lower bound cannot beat the incumbent
    /// ([`SearchContext::cost_candidates_bounded`]); with pruning off,
    /// the exhaustive batch.
    fn cost(&self) -> Vec<CandidateCost> {
        if !self.ctx.pruning() {
            return self.ctx.cost_candidates(&self.candidates, self.engine);
        }
        let lower = self.lower_bounds();
        self.ctx
            .cost_candidates_bounded(&self.candidates, self.engine, None, &lower, |i, cc| {
                self.score(i, cc).map_or(f64::INFINITY, |w| w.step)
            })
    }

    /// Admissible lower bounds on every candidate's stage step
    /// `(micro - 1) x pace + sum_stages + handoff`: the pace (the most
    /// loaded wafer) is at least the mean wafer load `sum_stages / W`
    /// and handoffs are non-negative, so with `S` stages
    ///
    /// ```text
    /// lb = (1 + (micro - 1) / W) x ( S x lb_block / (micro + S - 1)
    ///        + S x share x moe_layers x min_mode t_moe
    ///        + (min emb_row + min head_row) / micro )
    /// ```
    ///
    /// where `lb_block` is the [`WaferCostModel::chain_bounds`] block
    /// row, `share = max(layers / S, 1) / layers` (Eq. 4's stage share)
    /// and `t_moe` the per-micro MoE segment time, minimized over the
    /// recompute modes the exact path may escalate through. `None` marks
    /// candidates the exact path is guaranteed to price infinite.
    ///
    /// [`WaferCostModel::chain_bounds`]: crate::cost::WaferCostModel::chain_bounds
    fn lower_bounds(&self) -> Vec<Option<f64>> {
        let started = std::time::Instant::now();
        let ctx = self.ctx;
        let model = ctx.cost_model().model();
        let s = self.stage_count as f64;
        let w = self.wafers.wafer_count as f64;
        let micro = self.micro;
        let pace_factor = 1.0 + (micro - 1.0) / w;
        let layers = model.layers as f64;
        let moe_layers = model.moe_layer_count() as f64;
        let share = (layers / s).max(1.0) / layers;
        let end_floor = (finite_min(&self.emb_row) + finite_min(&self.head_row)) / micro;
        let base_mode = ctx.cost_model().workload().recompute;
        let bounds = ctx.cost_model().chain_bounds(&self.candidates);
        let out = self
            .candidates
            .iter()
            .zip(&bounds)
            .map(|(cfg, b)| {
                if !b.feasible {
                    return None;
                }
                let moe = if moe_layers > 0.0 {
                    let t_moe: Vec<f64> = [base_mode, RecomputeMode::Full]
                        .into_iter()
                        .filter_map(|mode| ctx.segment_cost(SegmentKind::MoeBlock, cfg, mode))
                        .map(|sc| sc.time)
                        .collect();
                    s * share * moe_layers * finite_min(&t_moe)
                } else {
                    0.0
                };
                let interior = s * b.lb_block / (micro + s - 1.0) + moe;
                Some(pace_factor * (interior + end_floor))
            })
            .collect();
        ctx.add_bound_time(started.elapsed());
        out
    }

    /// Scores candidate `i` given its exact costing: assigns the end
    /// segments (per-segment cost table + resharding boundary), balances
    /// the wafer loads against the end-wafer extras, and prices the
    /// pipelined step. `None` when the candidate is infeasible or admits
    /// no partition.
    fn score(&self, i: usize, costed: &CandidateCost) -> Option<Winner> {
        let (t, payload) = costed;
        if !t.is_finite() {
            return None;
        }
        let (_, report) = payload.as_ref()?;
        let micro = self.micro;
        let (emb_idx, emb_step) = best_end(&self.emb_row, i, self.boundary_step);
        let (head_idx, head_step) = best_end(&self.head_row, i, self.boundary_step);
        if !emb_step.is_finite() || !head_step.is_finite() {
            return None;
        }
        let (dense_blocks, moe_blocks) = (self.dense_blocks, self.moe_blocks);
        let blocks = dense_blocks + moe_blocks;
        let wafer_count = self.wafers.wafer_count;
        // Per-(micro-batch, instance) units of the body, one per
        // interior kind: the exact whole-model dense/MoE times divided
        // back out of Eq. 4 (`block_time = (micro + S - 1) x
        // (dense / S) x layer_time`, and likewise `moe_time`).
        let s_f = self.stage_count as f64;
        let pipeline_reps = micro + s_f - 1.0;
        let unit = if moe_blocks == 0 {
            // Dense chains keep the seed arithmetic bit-for-bit.
            let local_layers = (blocks as f64 / s_f).max(1.0);
            report.block_time() / (pipeline_reps * local_layers)
        } else if dense_blocks > 0 {
            report.block_time() * s_f / (pipeline_reps * dense_blocks as f64)
        } else {
            0.0
        };
        let unit_moe = if moe_blocks > 0 {
            report.moe_time * s_f / (pipeline_reps * moe_blocks as f64)
        } else {
            0.0
        };
        // Balance at wafer granularity: the pace is the most loaded
        // wafer, however its blocks split into virtual stages. Dense
        // chains keep the uniform parametric solver; mixed chains run
        // the weighted one, whose cuts can isolate expert-heavy
        // stretches onto their own wafers (a stage of expensive MoE
        // instances simply takes fewer of them).
        let cuts = if moe_blocks == 0 {
            dp::balance_stage_cuts(
                blocks,
                wafer_count,
                unit,
                emb_step / micro,
                head_step / micro,
                &self.wafer_mins,
            )
        } else {
            let weights = interior_weights(&self.interior, unit, unit_moe);
            dp::balance_weighted_cuts(
                &weights,
                wafer_count,
                emb_step / micro,
                head_step / micro,
                &self.wafer_mins,
            )
        };
        let cuts = cuts.ok()?;

        // Handoffs: only wafer-crossing boundaries pay the link, and
        // each is priced from the boundary tensor at its actual cut.
        let chain = self.ctx.chain();
        let mut handoff = 0.0;
        let mut acc = 1u64; // the embedding precedes the first cut
        for wafer_blocks in cuts.blocks.iter().take(wafer_count - 1) {
            acc += wafer_blocks;
            let bytes = chain.boundary_activation_bytes(acc).unwrap_or(0.0);
            handoff += micro * self.wafers.inter_wafer_transfer_time(bytes);
        }

        let interior_time = dense_blocks as f64 * unit + moe_blocks as f64 * unit_moe;
        let sum_stages = interior_time + (emb_step + head_step) / micro;
        let step = (micro - 1.0) * cuts.bottleneck + sum_stages + handoff;
        Some(Winner {
            index: i,
            emb_idx,
            head_idx,
            emb_step,
            head_step,
            unit,
            unit_moe,
            wafer_blocks: cuts.blocks,
            pace: cuts.bottleneck,
            bubble: sum_stages - cuts.bottleneck,
            handoff,
            step,
        })
    }

    /// Builds the [`MultiWaferPlan`] for a chosen winner: slices the
    /// chain at the cut positions and attaches per-run assignments. The
    /// stage-time accounting reads the same interior run list the cut
    /// solver balanced over, so it cannot diverge from the cuts it
    /// prices.
    fn assemble(&self, w: Winner, costed: &[CandidateCost]) -> Result<MultiWaferPlan> {
        let StageSearch {
            wafers,
            engine,
            pp_multiplier,
            stage_count,
            micro,
            ref interior,
            ref candidates,
            ref emb_row,
            ref head_row,
            boundary_step,
            ..
        } = *self;
        let chain = self.ctx.chain();
        let wafer_count = w.wafer_blocks.len();
        let (workload, report): (Workload, _) = costed[w.index]
            .1
            .clone()
            .ok_or_else(|| SolverError::Internal("winner lost its report".into()))?;
        let body_cfg = candidates[w.index];

        // Split every wafer's allotment into its virtual stages (balanced
        // counts; the stage holding an end segment may take zero blocks),
        // then cut the chain at the resulting stage boundaries.
        let mut stage_blocks: Vec<u64> = Vec::with_capacity(stage_count);
        for (wafer, &k) in w.wafer_blocks.iter().enumerate() {
            stage_blocks.extend(split_within_wafer(
                k,
                pp_multiplier,
                wafer == 0,
                wafer == wafer_count - 1,
            ));
        }
        let mut cut_pos = Vec::with_capacity(stage_count - 1);
        let mut acc = 1u64; // the embedding precedes the first cut
        for k in stage_blocks.iter().take(stage_count - 1) {
            acc += k;
            cut_pos.push(acc);
        }
        let slices = chain
            .split_at(&cut_pos)
            .ok_or_else(|| SolverError::Internal("degenerate cut positions".into()))?;

        let assignment_for = |kind: SegmentKind, count: u64| -> SegmentAssignment {
            match kind {
                SegmentKind::Embedding => SegmentAssignment {
                    kind,
                    count,
                    config: candidates[w.emb_idx],
                    step_time: emb_row[w.emb_idx],
                },
                SegmentKind::Head => SegmentAssignment {
                    kind,
                    count,
                    config: candidates[w.head_idx],
                    step_time: head_row[w.head_idx],
                },
                SegmentKind::Block => SegmentAssignment {
                    kind,
                    count,
                    config: body_cfg,
                    // Per-step execution time of this run's blocks.
                    step_time: count as f64 * w.unit * micro,
                },
                SegmentKind::MoeBlock => SegmentAssignment {
                    kind,
                    count,
                    config: body_cfg,
                    step_time: count as f64 * w.unit_moe * micro,
                },
            }
        };

        // Per-micro weight of every interior instance, in chain order —
        // stage times on a mixed chain are weighted sums, not
        // count x unit.
        let weights = interior_weights(interior, w.unit, w.unit_moe);
        let mut weight_prefix = Vec::with_capacity(weights.len() + 1);
        weight_prefix.push(0.0);
        for wt in &weights {
            weight_prefix.push(weight_prefix.last().unwrap() + wt);
        }

        let mut stages = Vec::with_capacity(stage_count);
        let mut item_start = 0usize;
        for (s, slice) in slices.into_iter().enumerate() {
            let segments: Vec<SegmentAssignment> = slice
                .segments()
                .iter()
                .map(|seg| assignment_for(seg.kind, seg.count))
                .collect();
            let item_end = item_start + stage_blocks[s] as usize;
            let mut stage_time = weight_prefix[item_end] - weight_prefix[item_start];
            item_start = item_end;
            if s == 0 {
                stage_time += w.emb_step / micro;
            }
            if s == stage_count - 1 {
                stage_time += w.head_step / micro;
            }
            let (inbound_bytes, inter_wafer_inbound) = if s == 0 {
                (0.0, false)
            } else {
                (
                    chain
                        .boundary_activation_bytes(cut_pos[s - 1])
                        .unwrap_or(0.0),
                    wafers.boundary_crosses_wafers(s - 1, pp_multiplier),
                )
            };
            stages.push(StagePlan {
                stage: s,
                wafer: wafers.wafer_of_stage(s, pp_multiplier),
                chain: slice,
                segments,
                stage_time,
                inbound_bytes,
                inter_wafer_inbound,
            });
        }

        // The body plan mirrors a single-wafer ExecutionPlan: whole-chain
        // assignment plus the chain objective under this pipeline degree.
        let chain_cost = emb_row[w.emb_idx]
            + if w.emb_idx == w.index {
                0.0
            } else {
                boundary_step
            }
            + report.block_time()
            + report.moe_time
            + head_row[w.head_idx]
            + if w.head_idx == w.index {
                0.0
            } else {
                boundary_step
            };
        let mut body_segments = vec![assignment_for(SegmentKind::Embedding, 1)];
        for &(kind, count) in interior {
            body_segments.push(match kind {
                SegmentKind::Block => SegmentAssignment {
                    kind,
                    count,
                    config: body_cfg,
                    step_time: report.block_time(),
                },
                SegmentKind::MoeBlock => SegmentAssignment {
                    kind,
                    count,
                    config: body_cfg,
                    step_time: report.moe_time,
                },
                _ => unreachable!("interior runs are blocks"),
            });
        }
        body_segments.push(assignment_for(SegmentKind::Head, 1));
        let body = ExecutionPlan {
            config: body_cfg,
            engine,
            workload,
            segments: body_segments,
            chain_cost,
            report,
        };

        Ok(MultiWaferPlan {
            wafer_count: wafers.wafer_count,
            pp_multiplier,
            body,
            stages,
            step_time: w.step,
            bottleneck_time: w.pace,
            bubble_time: w.bubble,
            handoff_time: w.handoff,
        })
    }
}

/// Internal record of the best candidate found by the joint search.
struct Winner {
    index: usize,
    emb_idx: usize,
    head_idx: usize,
    /// Per-step end-segment costs including any resharding boundary.
    emb_step: f64,
    head_step: f64,
    /// Per-(micro, instance) body unit times: dense blocks and MoE blocks.
    unit: f64,
    unit_moe: f64,
    /// Interior instances (dense + MoE blocks) per wafer.
    wafer_blocks: Vec<u64>,
    /// Per-micro load of the most loaded wafer.
    pace: f64,
    bubble: f64,
    handoff: f64,
    step: f64,
}

/// Per-micro-batch weight of every interior instance in chain order:
/// dense blocks at `unit`, MoE blocks at `unit_moe`.
fn interior_weights(interior: &[(SegmentKind, u64)], unit: f64, unit_moe: f64) -> Vec<f64> {
    let mut weights = Vec::with_capacity(interior.iter().map(|(_, c)| *c as usize).sum());
    for &(kind, count) in interior {
        let w = if kind == SegmentKind::MoeBlock {
            unit_moe
        } else {
            unit
        };
        weights.extend(std::iter::repeat(w).take(count as usize));
    }
    weights
}

/// Splits one wafer's block allotment across its `m` virtual stages as
/// evenly as possible. A stage holding an end segment (the first stage of
/// the first wafer, the last of the last) may take zero blocks; every
/// other stage gets at least one — the caller's wafer-level floors
/// guarantee enough blocks exist.
fn split_within_wafer(blocks: u64, m: usize, has_embedding: bool, has_head: bool) -> Vec<u64> {
    let mut parts: Vec<u64> = (0..m)
        .map(|i| {
            let end = (i == 0 && has_embedding) || (i == m - 1 && has_head);
            u64::from(!end)
        })
        .collect();
    let mut remaining = blocks.saturating_sub(parts.iter().sum());
    while remaining > 0 {
        let min = *parts.iter().min().expect("m >= 1");
        let next = parts.iter().position(|&p| p == min).expect("non-empty");
        parts[next] += 1;
        remaining -= 1;
    }
    parts
}

/// Picks the cheapest strategy for an end segment given the body's
/// candidate `own`: staying on the body's strategy is free of boundaries,
/// any other pays one per-step resharding charge. Returns the chosen row
/// index and its per-step cost including the charge.
fn best_end(row: &[f64], own: usize, boundary: f64) -> (usize, f64) {
    let mut best = (own, row[own]);
    for (idx, &t) in row.iter().enumerate() {
        let cost = if idx == own { t } else { t + boundary };
        if cost < best.1 {
            best = (idx, cost);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_graph::models::{ModelConfig, ModelZoo};
    use temp_graph::workload::Workload;
    use temp_wsc::config::WaferConfig;

    fn solver(model: ModelConfig) -> Dlws {
        let workload = Workload::for_model(&model);
        Dlws::new(WaferConfig::hpca(), model, workload)
    }

    fn wafers(n: usize) -> MultiWaferSystem {
        MultiWaferSystem::new(WaferConfig::hpca(), n).unwrap()
    }

    #[test]
    fn one_stage_reproduces_the_single_wafer_plan_bit_for_bit() {
        let s = solver(ModelZoo::gpt3_6_7b());
        let single = s.solve().unwrap();
        let plan = s
            .solve_stage_partitioned(MappingEngine::Tcme, &wafers(1), 1, |_| true)
            .unwrap();
        assert_eq!(plan.body, single);
        assert_eq!(plan.step_time, single.report.step_time);
        assert_eq!(plan.stage_count(), 1);
        assert_eq!(plan.handoff_time, 0.0);
        assert_eq!(plan.bubble_time, 0.0);
        assert_eq!(plan.stages[0].chain, s.context().chain().clone());
    }

    #[test]
    fn stages_partition_the_chain_and_balance_the_ends() {
        let s = solver(ModelZoo::gpt3_6_7b());
        let plan = s
            .solve_stage_partitioned(MappingEngine::Tcme, &wafers(2), 2, |_| true)
            .unwrap();
        assert_eq!(plan.stage_count(), 4);
        let blocks = plan.blocks_per_stage();
        assert_eq!(blocks.iter().sum::<u64>(), 32);
        // The slices reassemble into the whole chain.
        let total: u64 = plan.stages.iter().map(|st| st.chain.expanded_len()).sum();
        assert_eq!(total, s.context().chain().expanded_len());
        assert_eq!(
            plan.stages[0].chain.segments()[0].kind,
            SegmentKind::Embedding
        );
        assert_eq!(
            plan.stages
                .last()
                .unwrap()
                .chain
                .segments()
                .last()
                .unwrap()
                .kind,
            SegmentKind::Head
        );
        // Stage placement: stages 0-1 on wafer 0, 2-3 on wafer 1; only the
        // middle boundary crosses wafers.
        let wafer_seq: Vec<usize> = plan.stages.iter().map(|st| st.wafer).collect();
        assert_eq!(wafer_seq, vec![0, 0, 1, 1]);
        let crossings: Vec<bool> = plan
            .stages
            .iter()
            .map(|st| st.inter_wafer_inbound)
            .collect();
        assert_eq!(crossings, vec![false, false, true, false]);
        assert!(plan.handoff_time > 0.0);
        // Step-time bookkeeping: micro x pace + bubble + handoff.
        let micro = plan.body.workload.micro_batches as f64;
        let recon = micro * plan.bottleneck_time + plan.bubble_time + plan.handoff_time;
        assert!(
            (recon - plan.step_time).abs() <= 1e-9 * plan.step_time,
            "{recon} vs {}",
            plan.step_time
        );
        // The pace is the most loaded *wafer* (its stages time-multiplex
        // one die array), not the largest single stage.
        let mut wafer_loads = [0.0f64; 2];
        for st in &plan.stages {
            wafer_loads[st.wafer] += st.stage_time;
        }
        let max_load = wafer_loads.iter().copied().fold(0.0f64, f64::max);
        assert!(
            (max_load - plan.bottleneck_time).abs() <= 1e-9 * max_load,
            "{max_load} vs {}",
            plan.bottleneck_time
        );
    }

    #[test]
    fn virtual_stages_are_not_a_free_speedup() {
        // Splitting each wafer into more virtual stages cannot beat the
        // same deployment at one stage per wafer: the dies are shared, so
        // the pace is the wafer load either way (only the stage display
        // granularity changes).
        let s = solver(ModelZoo::gpt3_6_7b());
        let flat = s
            .solve_stage_partitioned(MappingEngine::Tcme, &wafers(2), 1, |_| true)
            .unwrap();
        let virt = s
            .solve_stage_partitioned(MappingEngine::Tcme, &wafers(2), 2, |_| true)
            .unwrap();
        assert_eq!(virt.stage_count(), 4);
        assert_eq!(flat.stage_count(), 2);
        // Same handoff structure (one wafer crossing) and no pace gain.
        assert!(
            virt.step_time >= flat.step_time * (1.0 - 5e-3),
            "virtual stages must not fabricate speedup: {} vs {}",
            virt.step_time,
            flat.step_time
        );
    }

    #[test]
    fn deeper_pipelines_than_the_chain_are_rejected() {
        let s = solver(ModelZoo::gpt3_6_7b());
        // 32 blocks cannot fill 64 stages.
        let err = s
            .solve_stage_partitioned(MappingEngine::Tcme, &wafers(8), 8, |_| true)
            .unwrap_err();
        assert!(matches!(err, SolverError::NoFeasiblePlan(_)), "{err}");
        let err = s
            .solve_stage_partitioned(MappingEngine::Tcme, &wafers(2), 1, |_| false)
            .unwrap_err();
        assert!(matches!(err, SolverError::NoFeasiblePlan(_)));
    }

    /// Every stage-step bound is admissible on a sampled candidate grid:
    /// it never exceeds the exact step of a candidate that scores, and
    /// `None` is only claimed when the exact path indeed returns
    /// infinity.
    #[test]
    fn stage_bounds_are_admissible_on_a_sampled_grid() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;

        for model in [
            ModelZoo::gpt3_6_7b(),
            ModelZoo::gpt3_175b(),
            ModelZoo::mixtral_8x7b(),
            ModelZoo::deepseek_moe_16b(),
        ] {
            let name = model.name.clone();
            let s = solver(model);
            let ctx = s.context();
            let mut rng = StdRng::seed_from_u64(0x57A6E);
            let sampled: HashSet<HybridConfig> = ctx
                .candidates()
                .iter()
                .filter(|_| rng.gen_bool(0.6))
                .copied()
                .collect();
            let mut scored = 0;
            for (wafer_count, m) in [(2, 1), (2, 2), (4, 1), (8, 1)] {
                let sys = wafers(wafer_count);
                let search = StageSearch::new(ctx, &sys, m, MappingEngine::Tcme, |c| {
                    sampled.contains(&HybridConfig { pp: 1, ..*c })
                })
                .unwrap();
                let lower = search.lower_bounds();
                let costs = ctx.cost_candidates(&search.candidates, MappingEngine::Tcme);
                for (i, (lb, cc)) in lower.iter().zip(&costs).enumerate() {
                    let cfg = search.candidates[i];
                    let Some(lb) = lb else {
                        assert!(!cc.0.is_finite(), "{name} {cfg:?}: bound claims infeasible");
                        continue;
                    };
                    if let Some(w) = search.score(i, cc) {
                        scored += 1;
                        assert!(
                            *lb <= w.step * (1.0 + 1e-9),
                            "{name} {wafer_count}x{m} {cfg:?}: bound {lb} above exact step {}",
                            w.step
                        );
                    }
                }
            }
            assert!(scored > 20, "{name}: only {scored} candidates scored");
        }
    }

    #[test]
    fn cold_two_wafer_stage_solve_prunes_dominated_candidates() {
        let s = solver(ModelZoo::gpt3_6_7b());
        s.solve_stage_partitioned(MappingEngine::Tcme, &wafers(2), 1, |_| true)
            .unwrap();
        let stats = s.search_stats();
        assert!(stats.dominated_pruned > 0, "{stats:?}");
    }

    #[test]
    fn stage_plan_beats_the_uniform_multiplier_costing() {
        // The uniform-multiplier model charges the embedding/head outside
        // the pipeline and every stage boundary at inter-wafer price; the
        // stage-partitioned plan overlaps the ends inside their stages and
        // must therefore be at least as fast given the same degree.
        let s = solver(ModelZoo::gpt3_6_7b());
        let sys = wafers(2);
        let plan = s
            .solve_stage_partitioned(MappingEngine::Tcme, &sys, 1, |_| true)
            .unwrap();
        // Uniform-multiplier reference: best pp=2 candidate + handoff.
        let ctx = s.context();
        let candidates = ctx.candidates_with_pp(2);
        let costed = ctx.cost_candidates(&candidates, MappingEngine::Tcme);
        let uniform_best = costed
            .iter()
            .map(|(t, _)| *t)
            .filter(|t| t.is_finite())
            .fold(f64::INFINITY, f64::min);
        let workload = s.cost_model().workload();
        let act = workload.micro_batch_size() as f64
            * workload.seq_len as f64
            * s.cost_model().model().hidden as f64
            * workload.compute_dtype.bytes() as f64;
        let uniform =
            uniform_best + sys.inter_wafer_transfer_time(act) * workload.micro_batches as f64;
        assert!(
            plan.step_time <= uniform * (1.0 + 1e-9),
            "stage {} vs uniform {uniform}",
            plan.step_time
        );
        // GPT-3 6.7B's embedding leaves the body's vocab-sharded tuple, so
        // the win is strict.
        assert!(plan.is_heterogeneous(), "{:?}", plan.stages[0].segments);
        assert!(plan.step_time < uniform);
    }
}
