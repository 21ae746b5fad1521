//! The wafer-centric cost model (Eqs. 2–4 of the paper).
//!
//! For each Transformer layer under a hybrid configuration:
//!
//! ```text
//! T_layer = Collective(cfg) + max(Comp(cfg), P2P-stream(cfg))      (Eq. 2)
//! ```
//!
//! collectives (TP/SP/CP/DP/FSDP rings) are exposed, the TATP stream
//! overlaps with compute. Per step:
//!
//! ```text
//! T_step = micro_batches / pp-overlap x layers x T_layer + bubbles (Eq. 4)
//! ```
//!
//! Alongside time, the model produces per-die memory (OOM detection),
//! energy (compute / D2D / HBM), throughput and power efficiency — every
//! quantity the evaluation figures consume.

use serde::{Deserialize, Serialize};

use temp_graph::models::ModelConfig;
use temp_graph::op::{OpKind, Operator};
use temp_graph::segment::{Segment, SegmentChain, SegmentKind};
use temp_graph::tensor::LinearDims;
use temp_graph::transformer::TransformerBuilder;
use temp_graph::workload::Workload;
use temp_mapping::comm::{layer_traffic, CommPattern, TrafficClass};
use temp_mapping::engines::{select, Draft, MappingEngine};
use temp_mapping::MappingError;
use temp_parallel::groups::LayoutPolicy;
use temp_parallel::memory::{per_die_footprint, FootprintBreakdown};
use temp_parallel::strategy::HybridConfig;
use temp_sim::collectives::{Collective, CollectiveKind};
use temp_sim::compute::ComputeModel;
use temp_sim::network::{rerouted_neighbor_flows, ContentionSim};
use temp_sim::power::EnergyLedger;
use temp_wsc::config::WaferConfig;
use temp_wsc::fault::{DegradedView, FaultMap};
use temp_wsc::units::MB;

use crate::{Result, SolverError};

/// Full cost evaluation of one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// Configuration evaluated.
    pub config: HybridConfig,
    /// Mapping engine used.
    pub engine: MappingEngine,
    /// One optimizer-step wall-clock time in seconds.
    pub step_time: f64,
    /// Critical-path compute time per step.
    pub compute_time: f64,
    /// Exposed collective communication time per step.
    pub collective_time: f64,
    /// TATP stream time per step (overlapped against compute).
    pub stream_time: f64,
    /// Stream time *not* hidden behind compute.
    pub exposed_stream_time: f64,
    /// Pipeline bubble time per step.
    pub bubble_time: f64,
    /// Embedding-segment time per step (lookup + vocab-parallel output
    /// all-reduce + sparse gradient exchange under this configuration).
    pub embedding_time: f64,
    /// LM-head-segment time per step (final norm + logits GEMM +
    /// cross-entropy reduction + tied-weight gradient sync).
    pub head_time: f64,
    /// MoE-block time per step (expert compute, all-to-all dispatch and
    /// combine, expert gradient sync), pipeline-scaled like the dense
    /// blocks. Zero for dense models.
    pub moe_time: f64,
    /// Per-die memory footprint.
    pub memory: FootprintBreakdown,
    /// Whether the footprint fits per-die HBM.
    pub fits_memory: bool,
    /// Energy per step.
    pub energy: EnergyLedger,
    /// Training throughput in tokens/s.
    pub throughput: f64,
    /// Average power in watts.
    pub power: f64,
    /// Throughput per watt (tokens/s/W).
    pub power_efficiency: f64,
    /// Contention inflation factor of the mapped collectives.
    pub contention_factor: f64,
}

impl CostReport {
    /// Fraction of step time spent on exposed communication.
    pub fn comm_fraction(&self) -> f64 {
        if self.step_time <= 0.0 {
            return 0.0;
        }
        (self.collective_time + self.exposed_stream_time + self.bubble_time) / self.step_time
    }

    /// Step time of the **dense** Transformer-block run alone (everything
    /// except the embedding, LM-head and MoE segments) — the per-candidate
    /// block cost the heterogeneous chain DP consumes. MoE segments carry
    /// their own chain row ([`CostReport::moe_time`] under a uniform
    /// assignment), so they must not leak into the dense row.
    pub fn block_time(&self) -> f64 {
        (self.step_time - self.embedding_time - self.head_time - self.moe_time).max(0.0)
    }
}

/// Cost of **one segment instance** for **one micro-batch** under a
/// configuration (Eq. 2 shape: `collective + max(compute, stream)`).
///
/// Deliberately closed-form: per-die operator arithmetic plus analytic
/// ring-collective times, no layout and no contention simulation, so a
/// whole candidate batch can be segment-costed in microseconds and bound
/// pruning never changes what the table holds. The per-segment
/// memory check is a *necessary* condition — the segment's own parameter
/// state and activations must fit a die; whole-chain feasibility is still
/// settled by the exact [`CostReport::fits_memory`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentCost {
    /// Which segment kind was costed.
    pub kind: SegmentKind,
    /// Per-micro-batch time of one instance: `coll + max(comp, stream)`.
    pub time: f64,
    /// Compute component.
    pub compute_time: f64,
    /// Exposed collective component.
    pub collective_time: f64,
    /// TATP stream component (overlaps with compute).
    pub stream_time: f64,
    /// Per-die bytes attributable to this segment instance.
    pub memory_bytes: f64,
    /// Whether the segment's own footprint fits one die's HBM.
    pub fits_memory: bool,
}

/// Revision of the cost model's *semantics*. Bump whenever a change makes
/// previously-computed [`CostReport`]s stale (new cost terms, changed
/// equations, new report fields) — persisted caches are keyed by this, so
/// a bump invalidates every existing warm-start file instead of silently
/// serving answers from an older model.
pub const COST_MODEL_VERSION: u32 = 2;

/// One candidate's verdict from the batched admissible prefilter
/// ([`WaferCostModel::chain_bounds`]): structural/memory feasibility plus
/// a lower bound on the dense-block chain row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateBound {
    /// `false` only when the exact path is guaranteed to return infinity
    /// for this candidate (invalid degrees, disconnected fabric, or HBM
    /// overflow under every recompute escalation).
    pub feasible: bool,
    /// Admissible lower bound on [`CostReport::block_time`]; `0.0` when
    /// infeasible.
    pub lb_block: f64,
}

/// The communication-relevant slice of one engine's mapping — all an
/// evaluation reads from it. Layouts, flows and link loads stay in the
/// mapping crate; the costing hot path prices the layout-free traffic
/// table itself ([`WaferCostModel::layer_comm`]) and needs only the
/// simulated contention factor and the pre-reduced D2D volume.
#[derive(Debug, Clone, Copy)]
struct MappedComm {
    contention_factor: f64,
    /// Per-layer D2D byte volume (`Σ bytes · per_layer_count · group`),
    /// pre-reduced for the energy ledger.
    comm_bytes_layer: f64,
}

/// The only workload fields `layer_traffic` reads: batch geometry
/// (global batch, sequence length, micro-batches) and dtype width.
type Geometry = (u64, u64, u64, u8);

/// Key of one memoized mapping: the engine, the pp-free layout config
/// (`layout_config`: `ep` folded into `dp`, `pp = 1`) and the batch
/// geometry. Recompute mode, fault state and the pipeline degree are
/// deliberately absent — mappings are identical across recompute
/// escalation, across degraded siblings (faults derate timing factors,
/// not the layout) and across pipeline degrees (stages live on other
/// wafers, so no layout, route or traffic class reads `pp`), which is
/// exactly where the sharing pays.
type MappingKey = (u8, HybridConfig, Geometry);

/// Key of one memoized [`Draft`]: as [`MappingKey`] with the layout policy
/// in place of the engine, so the three engines and every pipeline degree
/// share drafts.
type DraftKey = (LayoutPolicy, HybridConfig, Geometry);

/// A memoized draft and, when it was built just now, its XY flows.
type DraftWithFlows = (
    std::sync::Arc<Draft>,
    Option<Vec<temp_mapping::comm::TaggedFlow>>,
);

/// Memoized communication mappings, shared across clones and degraded
/// siblings. Mapping (layout, routing, traffic optimization and
/// contention simulation) dominates a cold evaluation's wall time; the
/// memo runs it in two levels. `drafts` keeps one engine-independent
/// [`Draft`] per `(policy, pp-free layout, geometry)` — comm ops and
/// scalars, no layouts or flows — and every engine's selection reads from
/// it, so each layout is drafted once. `table` keeps each engine's
/// selection per `(engine, pp-free layout, geometry)`. Failures are
/// stored as their exact errors so a memoized miss reproduces the same
/// [`SolverError::Internal`] a fresh mapping would. Both levels are
/// single-flighted: concurrent requests for one key build it once, the
/// others wait for the stored entry.
struct MappingMemo {
    #[allow(clippy::type_complexity)]
    table: crate::shard::ShardedMap<MappingKey, std::result::Result<MappedComm, String>>,
    drafts: crate::shard::ShardedMap<
        DraftKey,
        std::result::Result<std::sync::Arc<Draft>, MappingError>,
    >,
    table_flights: crate::shard::FlightTable<MappingKey>,
    draft_flights: crate::shard::FlightTable<DraftKey>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    draft_hits: std::sync::atomic::AtomicU64,
    draft_misses: std::sync::atomic::AtomicU64,
}

impl Default for MappingMemo {
    fn default() -> Self {
        MappingMemo {
            table: crate::shard::ShardedMap::new(),
            drafts: crate::shard::ShardedMap::new(),
            table_flights: crate::shard::FlightTable::new(),
            draft_flights: crate::shard::FlightTable::new(),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
            draft_hits: std::sync::atomic::AtomicU64::new(0),
            draft_misses: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for MappingMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappingMemo").finish_non_exhaustive()
    }
}

/// The wait strategy of the mapping memo's single-flight followers: they
/// run inside costing tasks, so they park without executing pool tasks.
/// A foreign task run on top of a waiting frame could block on work the
/// frames below it hold (a streamed solve's commit frontier), and the
/// leader they wait for never waits on anything itself.
fn no_help() -> bool {
    false
}

/// Candidate-independent inputs of one exact evaluation, hoisted once per
/// `(model, workload)`: the op-graph walk (the block the layer compute
/// law prices) and every shared scalar. A batched pass derives these a
/// single time and amortizes them over the whole candidate group,
/// mirroring the structure-of-arrays shape of
/// [`WaferCostModel::chain_bounds`]; the single-candidate path routes
/// through the same hoist, which is what makes batched and per-candidate
/// evaluation bit-identical by construction.
pub(crate) struct EvalHoist {
    /// One Transformer block's operator graph.
    block: temp_graph::graph::ComputeGraph,
    /// `4/3` under full recompute, else `1`.
    recompute_factor: f64,
    micro: f64,
    layers: f64,
    moe_count: f64,
    dense_count: f64,
    /// Step FLOPs with the recompute factor applied.
    step_flops: f64,
    /// Per-step HBM traffic (parameter states + activations).
    hbm_bytes: f64,
    tokens: f64,
    static_power: f64,
}

/// The analytic wafer cost model.
#[derive(Debug, Clone)]
pub struct WaferCostModel {
    wafer: WaferConfig,
    model: ModelConfig,
    workload: Workload,
    compute: ComputeModel,
    /// The model's segment chain, built once. Segment structure (ops,
    /// params, FLOPs) does not depend on the recompute mode, so the chain
    /// is valid for every workload this model evaluates with; only the
    /// block's *activation accounting* is recompute-sensitive and that is
    /// read from the live workload, not the chain.
    chain: SegmentChain,
    /// Degraded-fabric derating factors (identity for a healthy wafer —
    /// the healthy code path is bit-for-bit unchanged).
    fault: DegradedView,
    /// Multiplicative slowdown on every link-bound term (collectives,
    /// all-to-all, TATP stream): `max` of the analytic
    /// `detour / bisection` factor and the [`ContentionSim`]-measured
    /// rerouted-neighbor-ring inflation. Exactly `1.0` when healthy.
    link_factor: f64,
    /// Memoized communication mappings, shared across clones and degraded
    /// siblings (layouts and routed flows are fault-independent).
    map_memo: std::sync::Arc<MappingMemo>,
}

impl WaferCostModel {
    /// Creates a cost model for a (wafer, model, workload) triple.
    pub fn new(wafer: WaferConfig, model: ModelConfig, workload: Workload) -> Self {
        Self::build(wafer, model, workload, DegradedView::healthy(), 1.0)
    }

    /// Creates a **fault-aware** cost model: every evaluation prices the
    /// degraded fabric the fault map describes — compute derated by the
    /// mean surviving-core fraction, usable per-die memory by the worst
    /// die's, and every link-bound term inflated by the rerouted-traffic
    /// slowdown (analytic detour/bisection crossed with a
    /// [`ContentionSim`] run of the rerouted neighbor exchanges). A
    /// healthy map produces a model identical to
    /// [`WaferCostModel::new`]'s, fingerprint included.
    pub fn with_fault_map(
        wafer: WaferConfig,
        model: ModelConfig,
        workload: Workload,
        faults: &FaultMap,
    ) -> Self {
        if faults.is_healthy() {
            return Self::new(wafer, model, workload);
        }
        let mesh = wafer.mesh();
        let view = faults.degraded_view(&mesh);
        let link_factor = if !view.connected {
            f64::INFINITY
        } else {
            // Measured inflation: every formerly-adjacent exchange rerouted
            // over surviving links, against the healthy one-hop baseline.
            // D2D-scale payloads (§III-B granularity) so bandwidth, not
            // latency, dominates the ratio.
            let bytes = 16.0 * MB;
            let sim = ContentionSim::new(&wafer);
            let measured = match rerouted_neighbor_flows(&mesh, faults, bytes) {
                Some(flows) => {
                    let degraded = sim.simulate(&flows).makespan;
                    let healthy = bytes / sim.link_bandwidth + sim.hop_latency;
                    (degraded / healthy).max(1.0)
                }
                None => f64::INFINITY,
            };
            view.link_time_factor().max(measured)
        };
        Self::build(wafer, model, workload, view, link_factor)
    }

    /// This model re-derated for a (different) fault map, sharing the
    /// wafer/model/workload triple — the re-solve entry points build their
    /// degraded siblings through here.
    pub fn derated(&self, faults: &FaultMap) -> Self {
        let mut sibling = Self::with_fault_map(
            self.wafer.clone(),
            self.model.clone(),
            self.workload.clone(),
            faults,
        );
        // Mappings depend only on the layout, never on the fault state:
        // faults derate timing factors, not layouts or routes.
        sibling.map_memo = self.map_memo.clone();
        sibling
    }

    fn build(
        wafer: WaferConfig,
        model: ModelConfig,
        workload: Workload,
        fault: DegradedView,
        link_factor: f64,
    ) -> Self {
        let compute = ComputeModel::new(&wafer);
        let chain = SegmentChain::for_model(&model, &workload);
        WaferCostModel {
            wafer,
            model,
            workload,
            compute,
            chain,
            fault,
            link_factor,
            map_memo: std::sync::Arc::new(MappingMemo::default()),
        }
    }

    /// Whether this model derates for faults at all.
    pub fn is_degraded(&self) -> bool {
        !self.fault.is_identity()
    }

    /// Usable per-die HBM under the fault state: the nominal capacity
    /// scaled by the worst die's surviving fraction (a uniform SPMD shard
    /// must fit the most degraded die). This is the capacity the memory
    /// verdict — [`CostReport::fits_memory`] and the per-segment check —
    /// tests against.
    pub fn usable_hbm(&self) -> f64 {
        self.wafer.hbm.capacity * self.fault.memory_factor
    }

    /// The model's segment chain IR (embedding -> blocks -> head).
    pub fn chain(&self) -> &SegmentChain {
        &self.chain
    }

    /// The wafer configuration.
    pub fn wafer(&self) -> &WaferConfig {
        &self.wafer
    }

    /// The model configuration.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Fingerprint of everything an evaluation's answer depends on: the
    /// full `(wafer, model, workload)` triple plus [`COST_MODEL_VERSION`].
    /// Persisted caches are keyed by this, so a cache written under any
    /// other wafer geometry, model shape, workload or cost-model revision
    /// is rejected on import. Hashes the `Debug` renderings — they cover
    /// every field, and adding a field changes the rendering, which is
    /// exactly the conservatism a cache key wants.
    pub fn fingerprint(&self) -> u64 {
        let mut ident = format!(
            "temp-cost v{} | {:?} | {:?} | {:?}",
            COST_MODEL_VERSION, self.wafer, self.model, self.workload
        );
        // The fault state is part of the answer's identity: a cache warmed
        // on a healthy (or differently degraded) wafer must never serve a
        // degraded solve. Healthy models keep the historical key, so
        // existing warm-start files stay valid.
        if self.is_degraded() {
            use std::fmt::Write;
            let _ = write!(
                ident,
                " | fault {:?} link_factor {:?}",
                self.fault, self.link_factor
            );
        }
        crate::persist::fnv1a(ident.as_bytes())
    }

    /// Raw analytic collective time of `kind` over `n` dies moving `bytes`
    /// under this wafer's D2D link parameters (no link derating).
    fn collective_raw_time(&self, kind: CollectiveKind, n: usize, bytes: f64) -> f64 {
        Collective::analytic_time_for(kind, n, bytes, &self.wafer.d2d)
    }

    /// The memoized communication mapping of `(engine, layout_cfg)` under
    /// `workload`'s batch geometry: the engine's [`select`] over the
    /// memoized drafts. `layout_cfg` is a `layout_config`, so every
    /// pipeline degree of a layout shares one entry. A serve is
    /// bit-identical to remapping: for a fixed wafer/model, drafts and
    /// selections are pure functions of their keys (recompute mode, fault
    /// state and `pp` never reach them), and failures are replayed with
    /// their exact error strings.
    fn mapped_comm(
        &self,
        engine: MappingEngine,
        workload: &Workload,
        layout_cfg: &HybridConfig,
    ) -> Result<MappedComm> {
        use std::sync::atomic::Ordering;
        let geometry = (
            workload.global_batch,
            workload.seq_len,
            workload.micro_batches,
            workload.compute_dtype.bytes() as u8,
        );
        let key = (crate::persist::engine_code(engine), *layout_cfg, geometry);
        let memo = &self.map_memo;
        let (stored, built) = memo
            .table
            .get_or_build(&memo.table_flights, key, no_help, || {
                let computed = select(engine, &self.wafer, |policy| {
                    self.draft(policy, workload, layout_cfg, geometry)
                })
                .map(|selection| {
                    let comm_bytes_layer = selection
                        .draft
                        .comm_ops
                        .iter()
                        .map(|op| op.bytes * op.per_layer_count * op.group.len().max(1) as f64)
                        .sum();
                    MappedComm {
                        contention_factor: selection.contention_factor(),
                        comm_bytes_layer,
                    }
                })
                .map_err(|e| e.to_string());
                (computed, ())
            });
        match built {
            Some(()) => memo.misses.fetch_add(1, Ordering::Relaxed),
            None => memo.hits.fetch_add(1, Ordering::Relaxed),
        };
        stored.map_err(SolverError::Internal)
    }

    /// The memoized [`Draft`] of `layout_cfg` laid out with `policy`, with
    /// its XY flows when it was built just now (as [`select`] takes it).
    fn draft(
        &self,
        policy: LayoutPolicy,
        workload: &Workload,
        layout_cfg: &HybridConfig,
        geometry: Geometry,
    ) -> std::result::Result<DraftWithFlows, MappingError> {
        use std::sync::atomic::Ordering;
        let key = (policy, *layout_cfg, geometry);
        let memo = &self.map_memo;
        let (stored, built) = memo
            .drafts
            .get_or_build(&memo.draft_flights, key, no_help, || {
                match Draft::build(&self.wafer, &self.model, workload, layout_cfg, policy) {
                    Ok((_, flows, draft)) => (Ok(std::sync::Arc::new(draft)), Some(flows)),
                    Err(e) => (Err(e), None),
                }
            });
        match built {
            Some(_) => memo.draft_misses.fetch_add(1, Ordering::Relaxed),
            None => memo.draft_hits.fetch_add(1, Ordering::Relaxed),
        };
        Ok((stored?, built.flatten()))
    }

    /// `(hits, misses)` of the mapping memo's `(engine, layout)` lookups
    /// since it was created (shared across clones and degraded siblings).
    pub fn mapping_memo_stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering;
        (
            self.map_memo.hits.load(Ordering::Relaxed),
            self.map_memo.misses.load(Ordering::Relaxed),
        )
    }

    /// `(hits, misses)` of the draft memo's `(policy, layout)` lookups
    /// since it was created; a miss is one draft built. Shared like
    /// [`WaferCostModel::mapping_memo_stats`].
    pub fn draft_memo_stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering;
        (
            self.map_memo.draft_hits.load(Ordering::Relaxed),
            self.map_memo.draft_misses.load(Ordering::Relaxed),
        )
    }

    /// Always `(0, 0)`: collective times are computed directly, with no
    /// memo in front. Kept for callers that still read the counters.
    pub fn collective_memo_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Contended lock-shard acquisitions observed by the mapping memo's
    /// table — feeds the `shard_waits` statistic of
    /// [`crate::search::SearchStats`].
    pub fn mapping_shard_waits(&self) -> u64 {
        self.map_memo.table.waits()
    }

    /// Batched admissible prefilter (structure-of-arrays pass over a
    /// candidate batch): for each configuration, whether it can possibly
    /// be feasible, and a lower bound on its dense-block chain row.
    ///
    /// Admissibility contract (what makes exact-with-pruning bit-identical
    /// to exhaustive search):
    ///
    /// * `feasible == false` only when the exact escalation path
    ///   ([`crate::search::SearchContext::cost_of`]) is *guaranteed* to
    ///   return infinity: the degree product is invalid, the fabric is
    ///   disconnected, or the memory verdict the exact path reads (the
    ///   same `memory_verdict` call: [`per_die_footprint`] plus the
    ///   logits transient) overflows usable HBM under the base **and**
    ///   the fully-recomputed workload.
    /// * `lb_block <=` the exact [`CostReport::block_time`] (up to float
    ///   association; pruning thresholds carry a relative epsilon). The
    ///   bound keeps only terms the exact evaluation can never undercut:
    ///   compute without the recompute factor (`>= 1`), and the layer's
    ///   communication priced by the exact path's own function
    ///   (`layer_comm` over `temp_mapping::comm::layer_traffic`) at
    ///   contention factor 1, where the exact path passes the simulated
    ///   factor (`>= 1`). The TATP stream term carries no contention
    ///   factor, so it is bitwise the exact one. Because the bound and the
    ///   price read one table through one function, a change to either
    ///   moves both.
    pub fn chain_bounds(&self, candidates: &[HybridConfig]) -> Vec<CandidateBound> {
        use temp_graph::workload::RecomputeMode;
        const INFEASIBLE: CandidateBound = CandidateBound {
            feasible: false,
            lb_block: 0.0,
        };
        if !self.fault.connected {
            return vec![INFEASIBLE; candidates.len()];
        }
        let base = &self.workload;
        let full = self.workload.clone().with_recompute(RecomputeMode::Full);
        // Hoisted across the batch: block ops and model scalars do not
        // depend on the candidate.
        let hoist = self.eval_hoist(base);
        let dies = self.wafer.die_count();
        candidates
            .iter()
            .map(|cfg| {
                if cfg.validate(dies).is_err() {
                    return INFEASIBLE;
                }
                let fits_any = self.memory_verdict(cfg, base).1
                    || (base.recompute != RecomputeMode::Full && self.memory_verdict(cfg, &full).1);
                if !fits_any {
                    return INFEASIBLE;
                }
                // Compute floor: recompute-free per-layer compute time.
                let comp_floor = self.ops_compute_time(hoist.block.ops(), cfg, base, 1);
                // Comm floor: the exact path's price at contention factor 1.
                let (comm_floor, stream_floor) = self.layer_comm(&layout_config(cfg), base, 1.0);
                let lb_layer = comm_floor + comp_floor.max(stream_floor);
                let pp = cfg.pp as f64;
                let local_layers = (hoist.layers / pp).max(1.0);
                // Dense-block share of one pipeline stage: MoE models
                // price only their dense layers here (the MoE run has its
                // own chain row).
                let mult = if hoist.moe_count > 0.0 {
                    local_layers / hoist.layers * hoist.dense_count
                } else {
                    local_layers
                };
                let lb_block = (hoist.micro + pp - 1.0) * mult * lb_layer;
                CandidateBound {
                    feasible: true,
                    lb_block,
                }
            })
            .collect()
    }

    /// Evaluates one configuration end to end (Eq. 4).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Internal`] when the configuration cannot be
    /// laid out on the wafer.
    pub fn evaluate(&self, cfg: &HybridConfig, engine: MappingEngine) -> Result<CostReport> {
        self.evaluate_with(cfg, engine, &self.workload)
    }

    /// As [`WaferCostModel::evaluate`] with an explicit workload (planners
    /// escalate recompute modes through this).
    pub fn evaluate_with(
        &self,
        cfg: &HybridConfig,
        engine: MappingEngine,
        workload: &Workload,
    ) -> Result<CostReport> {
        self.evaluate_hoisted(&self.eval_hoist(workload), cfg, engine, workload)
    }

    /// Batched exact costing: evaluates a whole candidate group sharing
    /// `(engine, workload)` — and hence the recompute mode — in one pass.
    /// The op-graph walk and the shared scalars are hoisted once per
    /// group; distinct layout keys are mapped once through the mapping
    /// memo and every duplicate (recompute escalations, `dp·ep`
    /// foldings, degraded siblings) is served from it. Results are
    /// positionally aligned with `cfgs` and **bit-identical** to calling
    /// [`WaferCostModel::evaluate_with`] per candidate: both paths run the
    /// same hoisted core.
    pub fn evaluate_batch(
        &self,
        cfgs: &[HybridConfig],
        engine: MappingEngine,
        workload: &Workload,
    ) -> Vec<Result<CostReport>> {
        let hoist = self.eval_hoist(workload);
        cfgs.iter()
            .map(|cfg| self.evaluate_hoisted(&hoist, cfg, engine, workload))
            .collect()
    }

    pub(crate) fn eval_hoist(&self, workload: &Workload) -> EvalHoist {
        let recompute_factor = match workload.recompute {
            temp_graph::workload::RecomputeMode::Full => 4.0 / 3.0,
            _ => 1.0,
        };
        let micro = workload.micro_batches as f64;
        EvalHoist {
            block: TransformerBuilder::new(&self.model, workload).block(),
            recompute_factor,
            micro,
            layers: self.model.layers as f64,
            moe_count: self.model.moe_layer_count() as f64,
            dense_count: self.model.dense_layer_count() as f64,
            step_flops: workload.step_flops(&self.model) * recompute_factor,
            hbm_bytes: 3.0 * workload.param_state_bytes(&self.model)
                + 2.0 * workload.activation_bytes_total(&self.model) * micro,
            tokens: workload.tokens_per_step() as f64,
            static_power: 0.15 * self.wafer.die.peak_power() * self.wafer.die_count() as f64,
        }
    }

    pub(crate) fn evaluate_hoisted(
        &self,
        hoist: &EvalHoist,
        cfg: &HybridConfig,
        engine: MappingEngine,
        workload: &Workload,
    ) -> Result<CostReport> {
        cfg.validate(self.wafer.die_count())
            .map_err(|e| SolverError::Internal(e.to_string()))?;
        self.check_connected()?;

        // ---- Memory ---------------------------------------------------------
        let (memory, fits_memory) = self.memory_verdict(cfg, workload);

        // ---- Per-layer compute (per micro-batch) ---------------------------
        // The block graph is hoisted — only the per-candidate degrees enter
        // the compute law here.
        let comp_layer =
            self.ops_compute_time(hoist.block.ops(), cfg, workload, 1) * hoist.recompute_factor;

        // ---- Communication ---------------------------------------------------
        // The mapping engines see the pp-free, EP-folded `layout_config`.
        // The MoE-specific traffic (all-to-all dispatch/combine, expert
        // gradient sync) is priced by the segment evaluator below, not by
        // the dense mapping.
        let layout_cfg = layout_config(cfg);
        let mapping = self.mapped_comm(engine, workload, &layout_cfg)?;
        let contention_factor = mapping.contention_factor;
        let (coll_layer, stream_layer) = self.layer_comm(&layout_cfg, workload, contention_factor);

        // ---- Eq. 2 per layer, Eq. 4 per step --------------------------------
        let layer_time = coll_layer + comp_layer.max(stream_layer);
        let exposed_stream = (stream_layer - comp_layer).max(0.0) * hoist.layers * hoist.micro;
        let local_layers = (hoist.layers / cfg.pp as f64).max(1.0);
        let micro = hoist.micro;
        // 1F1B pipeline: total = (micro + pp - 1) stages; bubbles = (pp-1).
        let pp = cfg.pp as f64;
        // Interior segments per stage: dense blocks priced by the mapped
        // per-layer path above, MoE blocks by the closed-form segment
        // evaluator (expert compute, all-to-all dispatch/combine, expert
        // gradient sync — all per micro-batch). Both run *inside* the
        // pipeline, so both scale with the stage share and enter the
        // bubble term. Dense models keep the pre-MoE arithmetic
        // bit-for-bit.
        let moe_count = hoist.moe_count;
        let (stage_time, stage_moe) = if moe_count > 0.0 {
            let moe_seg = self
                .chain
                .find(SegmentKind::MoeBlock)
                .ok_or_else(|| SolverError::Internal("MoE model without MoeBlock run".into()))?;
            let moe_layer_time = self.evaluate_segment_with(moe_seg, cfg, workload)?.time;
            let share = local_layers / hoist.layers;
            let stage_moe = share * moe_count * moe_layer_time;
            (
                share * hoist.dense_count * layer_time + stage_moe,
                stage_moe,
            )
        } else {
            (local_layers * layer_time, 0.0)
        };
        let step_body = micro * stage_time;
        let bubble_time = (pp - 1.0) * stage_time;
        let step_time = step_body + bubble_time;
        let moe_time = (micro + pp - 1.0) * stage_moe;

        // ---- Segment chain: embedding + LM head -----------------------------
        // The block run above replicates one block cost `layers` times; the
        // chain's end segments have their own physics (lookup-bound
        // embedding with a vocab-parallel output all-reduce, vocab-GEMM
        // head with tied-weight gradient sync) and are costed through the
        // same closed-form segment evaluator the chain DP consumes, so a
        // uniform chain assignment reproduces this step time exactly.
        let mut embedding_time = 0.0;
        let mut head_time = 0.0;
        for seg in self.chain.segments() {
            if matches!(seg.kind, SegmentKind::Block | SegmentKind::MoeBlock) {
                // Interior segments were priced into the pipeline body
                // above.
                continue;
            }
            let t = self.evaluate_segment_with(seg, cfg, workload)?.time * seg.count as f64 * micro;
            match seg.kind {
                SegmentKind::Embedding => embedding_time = t,
                SegmentKind::Head => head_time = t,
                SegmentKind::Block | SegmentKind::MoeBlock => {}
            }
        }
        let step_time = step_time + embedding_time + head_time;

        // ---- Energy ----------------------------------------------------------
        let mut energy = EnergyLedger::new();
        // Step FLOPs (recompute factor applied) and HBM traffic — parameter
        // states (read+write) + activations per step — are hoisted.
        energy.add_compute(hoist.step_flops, &self.wafer);
        energy.add_hbm(hoist.hbm_bytes, &self.wafer);
        // D2D: per-layer comm volumes x layers x micro-batches (collective
        // rounds already included in volume), charged at measured mean hops.
        energy.add_d2d(
            mapping.comm_bytes_layer * hoist.layers * micro,
            1.2,
            &self.wafer,
        );

        // ---- Throughput / power ----------------------------------------------
        let throughput = if step_time > 0.0 {
            hoist.tokens / step_time
        } else {
            0.0
        };
        // Static/leakage floor: always-on clock trees, SRAM retention and
        // PHYs draw ~15% of the wafer's peak power regardless of load. This
        // is what makes *throughput per watt* reward faster plans (Fig. 14)
        // rather than only lower energy per token.
        let power = energy.average_power(step_time) + hoist.static_power;
        let power_efficiency = if power > 0.0 { throughput / power } else { 0.0 };

        Ok(CostReport {
            config: *cfg,
            engine,
            step_time,
            compute_time: comp_layer * local_layers * micro * pp.max(1.0) / pp,
            collective_time: coll_layer * local_layers * micro,
            stream_time: stream_layer * local_layers * micro,
            exposed_stream_time: exposed_stream / pp,
            bubble_time,
            embedding_time,
            head_time,
            moe_time,
            memory,
            fits_memory,
            energy,
            throughput,
            power,
            power_efficiency,
            contention_factor,
        })
    }

    /// Per-die, per-micro-batch compute time of an operator list under a
    /// configuration, including TATP's round granularity effects — the
    /// GEMM law shared by the block, the embedding/head segments and both
    /// halves of a MoE block.
    ///
    /// HBM traffic is charged once per operand per layer: the input shard
    /// stays SRAM-resident across TATP rounds and the streamed weight
    /// sub-blocks arrive over D2D, so round count affects only GEMM
    /// *efficiency* (smaller per-round tiles under-fill the PE array) and
    /// per-round launch overhead — the Fig. 9 diminishing-returns tail.
    ///
    /// `experts_local` is the number of experts each die stores (`1` for
    /// dense ops). Total per-die FLOPs do not depend on it (the
    /// all-to-all rebalances tokens), but the granularity does: each die
    /// runs one GEMM per local expert over its share of the routed token
    /// rows, so low `ep` splits the token budget into many thin GEMMs
    /// that under-fill the PE array and multiply launch overhead, and the
    /// HBM traffic covers every local expert's weights and token shard.
    pub fn ops_compute_time<'a>(
        &self,
        ops: impl IntoIterator<Item = &'a Operator>,
        cfg: &HybridConfig,
        workload: &Workload,
        experts_local: u64,
    ) -> f64 {
        // Expert parallelism folds into the data-parallel dimension for
        // all dense-path work (Megatron-style EP: the ep groups process
        // disjoint batch shards through attention and the dense blocks;
        // only the expert path differs). `ep = 1` keeps the dense
        // arithmetic bit-for-bit.
        let (dp, tp, spcp, tatp) = (
            (cfg.dp * cfg.ep.max(1)) as u64,
            cfg.tp as u64,
            (cfg.sp * cfg.cp) as u64,
            cfg.tatp as u64,
        );
        let batch_div = dp * micro_share(workload);
        let dtype = workload.compute_dtype;
        let mut total = 0.0;
        for op in ops {
            match op.kind.linear_dims() {
                Some(dims) => {
                    // Per-die shares: DP/micro on batch, SP/CP + TATP on
                    // rows (split across the local experts), TP + TATP
                    // on columns.
                    let local = LinearDims {
                        b: shard(dims.b, batch_div),
                        m: shard(dims.m, spcp * tatp * experts_local),
                        n: dims.n,
                        k: shard(dims.k, tp * tatp),
                    };
                    // Local work: all `tatp` rounds of every local expert
                    // (each round is one sub-output of the local rows x
                    // one weight block).
                    let per_round_flops = 3.0 * local.flops();
                    let local_flops = per_round_flops * (tatp * experts_local) as f64;
                    let eff = self.compute.gemm_efficiency(per_round_flops).max(1e-3);
                    let compute_time = local_flops / (self.compute.peak_flops * eff);
                    // HBM per local expert: input once, all weight blocks
                    // once, output once (backward re-touches: x3).
                    let mem_bytes = 3.0
                        * experts_local as f64
                        * (local.input_bytes(dtype)
                            + local.weight_bytes(dtype) * tatp as f64
                            + local.output_bytes(dtype) * tatp as f64);
                    let mem_time =
                        self.compute.hbm_latency + mem_bytes / self.compute.hbm_bandwidth;
                    total += compute_time.max(mem_time)
                        + (tatp * experts_local) as f64 * self.compute.launch_overhead;
                }
                None => {
                    let divisor = (batch_div * spcp * tatp * tp) as f64;
                    let scaled = scale_elementwise(&op.kind, divisor);
                    // The latency law reads only the kind; an empty name
                    // keeps this per-op arm free of heap allocations.
                    let sub = temp_graph::op::Operator::new(String::new(), scaled);
                    total += self.compute.training_latency(&sub, 1.0);
                }
            }
        }
        total / self.compute_factor()
    }

    /// Surviving-compute scaling: re-balanced partitions spread work in
    /// proportion to live cores, so aggregate compute slows by the mean
    /// surviving fraction. `1.0` healthy.
    fn compute_factor(&self) -> f64 {
        self.fault.compute_factor.max(1e-9)
    }

    /// Fails evaluations outright on a partitioned wafer: lockstep SPMD
    /// collectives cannot complete across disconnected components, so no
    /// configuration is feasible at any price.
    fn check_connected(&self) -> Result<()> {
        if self.fault.connected {
            Ok(())
        } else {
            Err(SolverError::Internal(
                "degraded wafer is disconnected: no feasible plan".into(),
            ))
        }
    }

    /// Evaluates one segment instance under this model's workload. See
    /// [`SegmentCost`] for the contract (closed-form, engine-independent,
    /// per-micro-batch units).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Internal`] when the configuration is invalid
    /// for this wafer's die count.
    pub fn evaluate_segment(
        &self,
        segment: &Segment,
        cfg: &HybridConfig,
        _engine: MappingEngine,
    ) -> Result<SegmentCost> {
        self.evaluate_segment_with(segment, cfg, &self.workload)
    }

    /// As [`WaferCostModel::evaluate_segment`] with an explicit workload
    /// (recompute escalation flows through here). The mapping engine does
    /// not enter the arithmetic — segment comm is priced with analytic
    /// ring collectives so the table is identical across engines.
    pub fn evaluate_segment_with(
        &self,
        segment: &Segment,
        cfg: &HybridConfig,
        workload: &Workload,
    ) -> Result<SegmentCost> {
        cfg.validate(self.wafer.die_count())
            .map_err(|e| SolverError::Internal(e.to_string()))?;
        self.check_connected()?;
        let recompute_factor = match (segment.kind, workload.recompute) {
            // Only block activations are recomputed; the embedding lookup
            // and the head's loss path run once either way.
            (
                SegmentKind::Block | SegmentKind::MoeBlock,
                temp_graph::workload::RecomputeMode::Full,
            ) => 4.0 / 3.0,
            _ => 1.0,
        };
        let compute_time = match segment.kind {
            // MoE blocks split their ops: the shared path (attention,
            // norms, router, dispatch/combine elementwise work) shards
            // like any dense segment, while the expert FFN shards its
            // routed tokens over the expert-parallel groups and streams
            // `E / ep` experts' weights per die.
            SegmentKind::MoeBlock => {
                let experts_local = self
                    .model
                    .moe
                    .map_or(1, |moe| moe.num_experts.div_ceil(cfg.ep.max(1) as u64));
                let is_expert = |o: &&Operator| o.name.starts_with("expert-");
                let ops = || segment.ops.iter();
                self.ops_compute_time(ops().filter(|o| !is_expert(o)), cfg, workload, 1)
                    + self.ops_compute_time(ops().filter(is_expert), cfg, workload, experts_local)
            }
            _ => self.ops_compute_time(&segment.ops, cfg, workload, 1),
        } * recompute_factor;
        let (collective_time, stream_time) = self.segment_comm(segment, cfg, workload);
        let memory_bytes = self.segment_footprint(segment, cfg, workload);
        let fits_memory = memory_bytes <= self.usable_hbm();
        Ok(SegmentCost {
            kind: segment.kind,
            time: collective_time + compute_time.max(stream_time),
            compute_time,
            collective_time,
            stream_time,
            memory_bytes,
            fits_memory,
        })
    }

    /// Analytic ring-collective time over a group of `n` dies (idealized
    /// one-hop neighbors, contention-free — the same formula the exact
    /// path's [`Collective::analytic_time`] uses), degraded-link inflation
    /// included.
    fn ring_time(&self, n: usize, kind: CollectiveKind, bytes: f64) -> f64 {
        if n < 2 || bytes <= 0.0 {
            return 0.0;
        }
        self.collective_raw_time(kind, n, bytes) * self.link_factor
    }

    /// Per-micro-batch exposed collective and TATP-stream time of one
    /// segment instance. Each segment kind has its own communication
    /// physics:
    ///
    /// * **Embedding** — vocab-parallel lookup needs an output all-reduce
    ///   over the `tp x tatp` table shards; gradients are row-sparse, so
    ///   the DP exchange moves only the touched rows (`tokens x H`), not
    ///   the `V x H` table.
    /// * **Block** — the dense layer's contention-free price, read from
    ///   the same traffic table as the exact evaluation and the bound
    ///   ([`WaferCostModel::layer_comm`] at contention factor 1).
    /// * **Head** — vocab-parallel cross-entropy needs only two scalars
    ///   per token across the shard group, but the tied `V x H` weight
    ///   picks up *dense* gradients that must all-reduce across DP
    ///   replicas.
    fn segment_comm(
        &self,
        segment: &Segment,
        cfg: &HybridConfig,
        workload: &Workload,
    ) -> (f64, f64) {
        use CollectiveKind::{AllGather, AllReduce, AllToAll, ReduceScatter};
        // Dense-path collectives see EP folded into DP (the ep groups are
        // batch shards for everything except the expert path).
        let ep = cfg.ep.max(1);
        let (dp, tp, spcp, tatp) = (
            cfg.dp.max(1) * ep,
            cfg.tp.max(1),
            (cfg.sp * cfg.cp).max(1),
            cfg.tatp.max(1),
        );
        let e = workload.compute_dtype.bytes() as f64;
        let micro = workload.micro_batches.max(1) as f64;
        let tokens_local = (workload.micro_batch_size() as f64 / dp as f64).max(1.0)
            * (workload.seq_len as f64 / spcp as f64).max(1.0);
        let act_local = tokens_local * self.model.hidden as f64 * e;
        let vocab_shard = tp * tatp;
        let mut coll = 0.0;
        let mut stream = 0.0;
        match segment.kind {
            SegmentKind::Embedding => {
                // Forward output all-reduce over the vocab shards.
                coll += self.ring_time(vocab_shard, AllReduce, act_local);
                // Row-sparse gradient exchange, once per step.
                coll += self.ring_time(dp, AllReduce, act_local) / micro;
            }
            SegmentKind::Head => {
                // Vocab-parallel cross-entropy: max + sum, two FP32 scalars
                // per token across the shard group.
                coll += self.ring_time(vocab_shard, AllReduce, tokens_local * 8.0);
                // Tied-weight dense gradient all-reduce across DP replicas,
                // once per step over this rank's table shard.
                let table_shard =
                    self.model.hidden as f64 * self.model.vocab as f64 * e / vocab_shard as f64;
                coll += self.ring_time(dp, AllReduce, table_shard) / micro;
            }
            SegmentKind::Block => return self.layer_comm(&layout_config(cfg), workload, 1.0),
            SegmentKind::MoeBlock => {
                let Some(moe) = self.model.moe else {
                    return (0.0, 0.0);
                };
                let attn_params_bytes = self.model.attn_params_per_layer() as f64 * e;
                let expert_params_bytes = moe.expert_params(self.model.hidden) as f64 * e;
                // Known gap: the attention-path terms of this arm are not
                // read from `layer_traffic`. SP and CP share one group over
                // the local activation, there is no CP KV gather, the
                // DP/FSDP terms amortize over micro-batches and the stream
                // runs one stage per layer. Reading them from the table
                // would move MoE plans.
                //
                // Shared attention path: TP/SP collectives (EP already
                // folded into the dp-sharded act_local).
                coll += 4.0 * self.ring_time(tp, AllReduce, act_local);
                coll += 2.0
                    * (self.ring_time(spcp, AllGather, act_local)
                        + self.ring_time(spcp, ReduceScatter, act_local));
                // All-to-all dispatch + combine over the expert-parallel
                // groups, forward and backward (4 passes), each moving
                // this rank's routed token copies. The capacity factor is
                // the pace term: the fullest group carries `cf x` the mean
                // payload, and the collective finishes with it.
                if ep > 1 {
                    let payload = act_local * moe.top_k as f64;
                    coll += 4.0 * moe.capacity_factor * self.ring_time(ep, AllToAll, payload);
                }
                // Gradient sync: attention grads replicate across the full
                // dp x ep batch dimension like a dense block's; each
                // expert shard only syncs across the `dp` replicas inside
                // its expert-parallel group (`1/ep` of the expert
                // weights). Under FSDP the expert states additionally
                // shard over those replicas — the memory verdict credits
                // that, so the comm model must charge the matching
                // per-step weight all-gather and gradient reduce-scatter,
                // exactly like the attention path above.
                let group_dp = cfg.dp.max(1);
                let expert_shard_bytes = expert_params_bytes / ep as f64;
                if cfg.fsdp {
                    coll += self.ring_time(dp, AllGather, attn_params_bytes)
                        + self.ring_time(dp, ReduceScatter, attn_params_bytes) / micro;
                    coll += self.ring_time(group_dp, AllGather, expert_shard_bytes)
                        + self.ring_time(group_dp, ReduceScatter, expert_shard_bytes) / micro;
                } else {
                    coll += self.ring_time(dp, AllReduce, attn_params_bytes) / micro;
                    coll += self.ring_time(group_dp, AllReduce, expert_shard_bytes) / micro;
                }
                // TATP streams the attention weights (expert weights stay
                // put — tokens travel instead).
                if tatp > 1 {
                    let chunk = attn_params_bytes / (tp * tatp * tatp) as f64;
                    stream = tatp as f64 * self.stream_round_time(chunk);
                }
            }
        }
        (coll, stream)
    }

    /// Per-layer, per-micro-batch `(collective, stream)` time of the dense
    /// layer's traffic table ([`temp_mapping::comm::layer_traffic`] of the
    /// pp-free, EP-folded `layout_cfg`) — the one function that prices it,
    /// for the exact evaluation (at the mapping's simulated contention
    /// factor), the bound and the Block segment row (both at `1.0`).
    ///
    /// Groups of one class run concurrently on disjoint die sets with
    /// identical size, bytes and count, so a class costs what one of its
    /// groups costs; distinct collective classes add up, summed in
    /// class-code order. The TATP stream overlaps compute and is returned
    /// apart: it runs `tatp` rounds per stage, each moving one chunk per
    /// direction (see `stream_round_time`). Allocates nothing.
    fn layer_comm(
        &self,
        layout_cfg: &HybridConfig,
        workload: &Workload,
        contention_factor: f64,
    ) -> (f64, f64) {
        let mut coll_by_class = [0.0f64; TrafficClass::CLASS_COUNT];
        let mut stream = 0.0;
        layer_traffic(layout_cfg, &self.model, workload, |class| {
            if class.pattern == CommPattern::P2pStream {
                let t_deg = class.group_size as f64;
                stream =
                    class.per_layer_count * t_deg * self.stream_round_time(class.bytes / t_deg);
            } else {
                coll_by_class[class.class_code()] = self.collective_raw_time(
                    class.collective_kind(),
                    class.group_size,
                    class.bytes,
                ) * class.per_layer_count
                    * contention_factor
                    * self.link_factor;
            }
        });
        (coll_by_class.iter().sum(), stream)
    }

    /// The whole-model memory verdict: the [`per_die_footprint`] plus the
    /// end segments' transients — notably the head's logits shard, which
    /// the per-layer accounting never prices — against usable HBM. Shared
    /// by the exact evaluation and the bound's feasibility test.
    fn memory_verdict(
        &self,
        cfg: &HybridConfig,
        workload: &Workload,
    ) -> (FootprintBreakdown, bool) {
        let mut memory = per_die_footprint(&self.model, workload, cfg);
        memory.buffers += self.logits_transient_bytes(cfg, workload);
        let fits = memory.fits(self.usable_hbm());
        (memory, fits)
    }

    /// One TATP stream round moving `chunk` bytes per direction — the
    /// single source of the per-round pricing for the dense layer
    /// (`layer_comm`) and the MoE segment's attention stream. Effective
    /// bandwidth depends on granularity: fine chunks at very high degrees
    /// under-utilize the D2D links (§III-B), producing the Fig. 9 tail.
    /// The two directions run on disjoint directed links (the 0.5 factor).
    fn stream_round_time(&self, chunk: f64) -> f64 {
        (self.wafer.d2d.latency
            + 0.5 * STREAM_WAVE_MULTIPLICITY * chunk / self.wafer.d2d.effective_bandwidth(chunk))
            * self.link_factor
    }

    /// The head's transient logits shard per die:
    /// `tokens_local x V / vocab_shard` bytes, alive while the loss is
    /// computed. Charged both in the per-segment footprint and in the
    /// whole-model memory verdict.
    fn logits_transient_bytes(&self, cfg: &HybridConfig, workload: &Workload) -> f64 {
        let (dp, tp, spcp, tatp) = (
            (cfg.dp * cfg.ep.max(1)).max(1) as f64,
            cfg.tp.max(1) as f64,
            (cfg.sp * cfg.cp).max(1) as f64,
            cfg.tatp.max(1) as f64,
        );
        let tokens_local = (workload.micro_batch_size() as f64 / dp).max(1.0)
            * (workload.seq_len as f64 / spcp).max(1.0);
        tokens_local * self.model.vocab as f64 * workload.compute_dtype.bytes() as f64 / (tp * tatp)
    }

    /// Per-die bytes attributable to one segment instance: sharded
    /// parameter states plus sharded activations (and the head's transient
    /// logits shard). A necessary-condition footprint — whole-chain
    /// feasibility stays with the whole-model verdict in
    /// [`WaferCostModel::evaluate_with`] ([`per_die_footprint`] plus the
    /// end-segment transients).
    fn segment_footprint(&self, segment: &Segment, cfg: &HybridConfig, workload: &Workload) -> f64 {
        let ep = cfg.ep.max(1) as f64;
        let (dp, tp, spcp, tatp) = (
            cfg.dp.max(1) as f64 * ep,
            cfg.tp.max(1) as f64,
            (cfg.sp * cfg.cp).max(1) as f64,
            cfg.tatp.max(1) as f64,
        );
        let param_shard = tp * tatp * if cfg.fsdp { dp } else { 1.0 };
        let params_state = match (segment.kind, self.model.moe) {
            // Expert weights shard over the expert-parallel groups on top
            // of TP/TATP(/FSDP); the shared attention path replicates like
            // a dense block's. Unlike the dense rows — whose feasibility
            // the exact whole-model verdict owns — the MoE row *is* the
            // solver's only memory signal for expert placement, so it
            // charges the whole run: all `count` MoE layers' expert shards
            // are co-resident on the same dies. At `ep = 1` that is the
            // entire expert set of the model.
            (SegmentKind::MoeBlock, Some(moe)) => {
                let attn = self.model.attn_params_per_layer() as f64;
                let experts = moe.expert_params(self.model.hidden) as f64;
                // Experts shard over ep x TP/TATP, and over the group's
                // dp replicas under FSDP.
                let expert_shard =
                    tp * tatp * ep * if cfg.fsdp { cfg.dp.max(1) as f64 } else { 1.0 };
                segment.count as f64
                    * (attn / param_shard + experts / expert_shard)
                    * workload.bytes_per_param()
            }
            _ => segment.params as f64 * workload.bytes_per_param() / param_shard,
        };
        let act = match segment.kind {
            SegmentKind::Block | SegmentKind::MoeBlock => {
                let dense = workload.activation_bytes_per_layer(&self.model) / (dp * spcp * tatp);
                // Routed expert copies (kept for backward unless full
                // recompute drops everything) shard over `ep` too.
                let expert = match (segment.kind, self.model.moe, workload.recompute) {
                    (
                        SegmentKind::MoeBlock,
                        Some(moe),
                        temp_graph::workload::RecomputeMode::Selective
                        | temp_graph::workload::RecomputeMode::None,
                    ) => {
                        // `dp` already folds the ep groups in.
                        workload.micro_batch_size() as f64
                            * workload.seq_len as f64
                            * moe.routed_activation_elems_per_token(self.model.hidden)
                            * workload.compute_dtype.bytes() as f64
                            / (dp * spcp * tatp)
                    }
                    _ => 0.0,
                };
                dense + expert
            }
            _ => segment.activation_bytes / (dp * spcp * tatp),
        };
        let extra = match segment.kind {
            SegmentKind::Head => self.logits_transient_bytes(cfg, workload),
            _ => 0.0,
        };
        params_state + act + extra
    }
}

/// Layout normalization: the configuration one wafer lays out. The
/// expert-parallel groups occupy the die array like an outer
/// data-parallel dimension (experts shard where replicas would sit), so
/// the dense path and the mapping engines see `ep` folded into `dp`; and
/// pipeline stages live across wafers, so `pp = 1`. Every pipeline degree
/// of one layout therefore shares its drafts and mappings; `pp` enters
/// only the pipeline arithmetic and the whole-model memory verdict, both
/// read from the candidate itself.
fn layout_config(cfg: &HybridConfig) -> HybridConfig {
    HybridConfig {
        dp: cfg.dp * cfg.ep.max(1),
        ep: 1,
        pp: 1,
        ..*cfg
    }
}

/// Mean concurrent waves per directed link per TATP stream round: ~1 with
/// the occasional 3-wave peak (see
/// `TatpOrchestration::peak_link_multiplicity`), averaging out to ~1.5
/// over a stage.
const STREAM_WAVE_MULTIPLICITY: f64 = 1.5;

/// Micro-batching divides the batch dimension before DP does.
fn micro_share(workload: &Workload) -> u64 {
    workload.micro_batches.max(1)
}

fn shard(v: u64, by: u64) -> u64 {
    (v / by.max(1)).max(1)
}

fn scale_elementwise(kind: &OpKind, divisor: f64) -> OpKind {
    let d = |v: u64| -> u64 { ((v as f64 / divisor).ceil() as u64).max(1) };
    match kind {
        OpKind::Softmax { rows, cols } => OpKind::Softmax {
            rows: d(*rows),
            cols: *cols,
        },
        OpKind::LayerNorm { tokens, hidden } => OpKind::LayerNorm {
            tokens: d(*tokens),
            hidden: *hidden,
        },
        OpKind::Activation { elems } => OpKind::Activation { elems: d(*elems) },
        OpKind::Residual { elems } => OpKind::Residual { elems: d(*elems) },
        OpKind::Embedding {
            tokens,
            hidden,
            vocab,
        } => OpKind::Embedding {
            tokens: d(*tokens),
            hidden: *hidden,
            vocab: *vocab,
        },
        other => *other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_graph::models::ModelZoo;
    use temp_graph::workload::RecomputeMode;

    fn model_6_7b() -> WaferCostModel {
        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        WaferCostModel::new(WaferConfig::hpca(), model, workload)
    }

    #[test]
    fn evaluate_produces_positive_times() {
        let m = model_6_7b();
        let r = m
            .evaluate(&HybridConfig::tuple(2, 2, 1, 8), MappingEngine::Tcme)
            .unwrap();
        assert!(r.step_time > 0.0);
        assert!(r.compute_time > 0.0);
        assert!(r.throughput > 0.0);
        assert!(r.power > 0.0);
        assert!(r.power_efficiency > 0.0);
        assert!(r.contention_factor >= 1.0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let m = model_6_7b();
        let bad = HybridConfig::tuple(2, 2, 1, 4); // product 16 != 32
        assert!(m.evaluate(&bad, MappingEngine::Tcme).is_err());
    }

    #[test]
    fn tatp_uses_less_memory_than_megatron_tp() {
        let m = model_6_7b();
        let mega = m
            .evaluate(&HybridConfig::tuple(4, 8, 1, 1), MappingEngine::SMap)
            .unwrap();
        let tatp = m
            .evaluate(&HybridConfig::tuple(4, 1, 1, 8), MappingEngine::Tcme)
            .unwrap();
        assert!(
            tatp.memory.total() < mega.memory.total(),
            "TATP {:.2e} vs Megatron {:.2e}",
            tatp.memory.total(),
            mega.memory.total()
        );
    }

    #[test]
    fn tcme_outperforms_smap_on_step_time() {
        let m = model_6_7b();
        let cfg = HybridConfig {
            dp: 4,
            fsdp: true,
            tatp: 8,
            ..Default::default()
        };
        let smap = m.evaluate(&cfg, MappingEngine::SMap).unwrap();
        let tcme = m.evaluate(&cfg, MappingEngine::Tcme).unwrap();
        assert!(
            tcme.step_time <= smap.step_time * 1.001,
            "tcme {} vs smap {}",
            tcme.step_time,
            smap.step_time
        );
    }

    #[test]
    fn stream_overlaps_with_compute() {
        let m = model_6_7b();
        let r = m
            .evaluate(&HybridConfig::tuple(1, 1, 1, 32), MappingEngine::Tcme)
            .unwrap();
        // The exposed stream must be (much) smaller than the raw stream.
        assert!(r.exposed_stream_time <= r.stream_time);
    }

    #[test]
    fn full_recompute_costs_time_saves_memory() {
        let model = ModelZoo::gpt3_175b();
        let base = Workload::for_model(&model);
        let m = WaferCostModel::new(WaferConfig::hpca(), model, base.clone());
        let cfg = HybridConfig::tuple(1, 2, 2, 8);
        let sel = m.evaluate_with(&cfg, MappingEngine::Tcme, &base).unwrap();
        let full = m
            .evaluate_with(
                &cfg,
                MappingEngine::Tcme,
                &base.with_recompute(RecomputeMode::Full),
            )
            .unwrap();
        assert!(full.memory.activations < sel.memory.activations);
        assert!(full.step_time > sel.step_time);
    }

    #[test]
    fn pipeline_adds_bubbles() {
        let model = ModelZoo::gpt3_175b();
        let w = Workload::for_model(&model);
        let m = WaferCostModel::new(WaferConfig::hpca(), model, w);
        let flat = m
            .evaluate(&HybridConfig::tuple(1, 2, 2, 8), MappingEngine::Tcme)
            .unwrap();
        let piped = m
            .evaluate(
                &HybridConfig {
                    pp: 4,
                    tp: 2,
                    sp: 2,
                    tatp: 8,
                    ..Default::default()
                },
                MappingEngine::Tcme,
            )
            .unwrap();
        assert_eq!(flat.bubble_time, 0.0);
        assert!(piped.bubble_time > 0.0);
    }

    #[test]
    fn whole_model_report_prices_the_end_segments() {
        let m = model_6_7b();
        let r = m
            .evaluate(&HybridConfig::tuple(2, 2, 1, 8), MappingEngine::Tcme)
            .unwrap();
        assert!(r.embedding_time > 0.0);
        assert!(r.head_time > 0.0);
        assert!(r.block_time() > 0.0);
        assert!(
            (r.block_time() + r.embedding_time + r.head_time - r.step_time).abs()
                <= 1e-12 * r.step_time
        );
        // The end segments are a small tax on a 32-layer model, not the
        // dominant term.
        assert!(r.embedding_time + r.head_time < 0.2 * r.step_time, "{r:?}");
    }

    #[test]
    fn segment_costs_reflect_their_physics() {
        let m = model_6_7b();
        let chain = temp_graph::segment::SegmentChain::for_model(m.model(), m.workload());
        let emb = chain
            .find(temp_graph::segment::SegmentKind::Embedding)
            .unwrap();
        let head = chain.find(temp_graph::segment::SegmentKind::Head).unwrap();
        let block = chain.find(temp_graph::segment::SegmentKind::Block).unwrap();

        // Embedding: sharding the vocab costs an output all-reduce that a
        // pure sequence split avoids entirely.
        let vocab_sharded = HybridConfig::tuple(2, 1, 1, 16);
        let seq_split = HybridConfig::tuple(1, 1, 32, 1);
        let e_vocab = m
            .evaluate_segment(emb, &vocab_sharded, MappingEngine::Tcme)
            .unwrap();
        let e_seq = m
            .evaluate_segment(emb, &seq_split, MappingEngine::Tcme)
            .unwrap();
        assert_eq!(e_seq.collective_time, 0.0, "{e_seq:?}");
        assert!(e_vocab.collective_time > 0.0, "{e_vocab:?}");
        assert!(e_seq.time < e_vocab.time);

        // Head: the dense tied-weight gradient all-reduce punishes wide DP
        // replication relative to vocab sharding.
        let dp_wide = HybridConfig::tuple(32, 1, 1, 1);
        let h_dp = m
            .evaluate_segment(head, &dp_wide, MappingEngine::Tcme)
            .unwrap();
        let h_vocab = m
            .evaluate_segment(head, &vocab_sharded, MappingEngine::Tcme)
            .unwrap();
        assert!(h_dp.collective_time > h_vocab.collective_time);

        // All three kinds produce sane, feasible costs on a mid config.
        for seg in [emb, block, head] {
            let c = m
                .evaluate_segment(seg, &HybridConfig::tuple(2, 2, 1, 8), MappingEngine::Tcme)
                .unwrap();
            assert!(c.time > 0.0, "{c:?}");
            assert!(c.fits_memory, "{c:?}");
            assert_eq!(c.kind, seg.kind);
        }

        // Invalid configurations are rejected, not mis-costed.
        let bad = HybridConfig::tuple(2, 2, 1, 4); // product 16 != 32
        assert!(m.evaluate_segment(emb, &bad, MappingEngine::Tcme).is_err());
    }

    #[test]
    fn healthy_fault_map_is_the_identity_fingerprint_included() {
        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        let wafer = WaferConfig::hpca();
        let healthy = FaultMap::healthy(&wafer.mesh());
        let base = WaferCostModel::new(wafer.clone(), model.clone(), workload.clone());
        let faulted = WaferCostModel::with_fault_map(wafer, model, workload, &healthy);
        assert!(!faulted.is_degraded());
        assert_eq!(faulted.fingerprint(), base.fingerprint());
        assert_eq!(faulted.usable_hbm(), base.wafer().hbm.capacity);
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        let a = base.evaluate(&cfg, MappingEngine::Tcme).unwrap();
        let b = faulted.evaluate(&cfg, MappingEngine::Tcme).unwrap();
        assert_eq!(a, b, "healthy map must price bit-for-bit identically");
    }

    #[test]
    fn link_faults_inflate_link_time_but_not_compute() {
        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        let wafer = WaferConfig::hpca();
        let faults = FaultMap::inject_link_faults(&wafer.mesh(), 0.1, 11);
        let base = WaferCostModel::new(wafer.clone(), model.clone(), workload.clone());
        let degraded = base.derated(&faults);
        assert!(degraded.is_degraded());
        assert_ne!(degraded.fingerprint(), base.fingerprint());
        // Memory and compute are untouched by pure link faults.
        assert_eq!(degraded.usable_hbm(), base.wafer().hbm.capacity);
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        let h = base.evaluate(&cfg, MappingEngine::Tcme).unwrap();
        let d = degraded.evaluate(&cfg, MappingEngine::Tcme).unwrap();
        assert_eq!(d.compute_time, h.compute_time);
        assert!(
            d.collective_time > h.collective_time,
            "rerouted collectives must cost more: {} vs {}",
            d.collective_time,
            h.collective_time
        );
        assert!(d.step_time > h.step_time);
    }

    #[test]
    fn core_faults_slow_compute_and_shrink_usable_memory() {
        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        let wafer = WaferConfig::hpca();
        let faults = FaultMap::inject_core_faults(&wafer.mesh(), 0.25, 7);
        let base = WaferCostModel::new(wafer.clone(), model.clone(), workload.clone());
        let degraded = base.derated(&faults);
        assert!(degraded.usable_hbm() < base.wafer().hbm.capacity);
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        let h = base.evaluate(&cfg, MappingEngine::Tcme).unwrap();
        let d = degraded.evaluate(&cfg, MappingEngine::Tcme).unwrap();
        assert!(
            d.compute_time > h.compute_time,
            "derated cores must slow compute"
        );
        // Graceful: 25% dead cores cost well under 2x.
        assert!(
            d.step_time < 2.0 * h.step_time,
            "{} vs {}",
            d.step_time,
            h.step_time
        );
    }

    #[test]
    fn disconnected_fabric_is_infeasible() {
        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        let wafer = WaferConfig::hpca();
        let faults = FaultMap::inject_link_faults(&wafer.mesh(), 1.0, 3);
        assert!(!faults.is_connected(&wafer.mesh()));
        let m = WaferCostModel::with_fault_map(wafer, model, workload, &faults);
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        assert!(m.evaluate(&cfg, MappingEngine::Tcme).is_err());
        let chain = m.chain().clone();
        let seg = chain.find(temp_graph::segment::SegmentKind::Block).unwrap();
        assert!(m.evaluate_segment(seg, &cfg, MappingEngine::Tcme).is_err());
    }

    #[test]
    fn sweet_spot_exists_for_tatp_degree() {
        // Fig. 9: throughput peaks at a moderate TATP degree; N=32 is not
        // better than N=8 or 16 per-layer once granularity effects bite.
        let m = model_6_7b();
        let mut times = Vec::new();
        for tatp in [2usize, 4, 8, 16, 32] {
            let dp = 32 / tatp;
            let r = m
                .evaluate(&HybridConfig::tuple(dp, 1, 1, tatp), MappingEngine::Tcme)
                .unwrap();
            times.push((tatp, r.step_time));
        }
        let best = times
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        assert!((4..=16).contains(&best), "sweet spot at {best}: {times:?}");
    }

    #[test]
    fn concurrent_requests_build_one_draft_and_one_mapping() {
        const THREADS: usize = 4;
        let m = model_6_7b();
        let workload = m.workload().clone();
        let cfg = HybridConfig::tuple(2, 2, 1, 8);
        let geometry = (
            workload.global_batch,
            workload.seq_len,
            workload.micro_batches,
            workload.compute_dtype.bytes() as u8,
        );
        let gate = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    gate.wait();
                    m.draft(LayoutPolicy::RowMajorStrips, &workload, &cfg, geometry)
                        .expect("draft");
                });
            }
        });
        assert_eq!(m.draft_memo_stats(), (THREADS as u64 - 1, 1));

        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    gate.wait();
                    m.mapped_comm(MappingEngine::Tcme, &workload, &cfg)
                        .expect("mapping");
                });
            }
        });
        assert_eq!(m.mapping_memo_stats(), (THREADS as u64 - 1, 1));
    }

    /// The per-layer pricing loop before the traffic table: each mapped
    /// op priced on its own group, the max over a class's groups, then the
    /// class sum in class-code order; the stream is the max over groups.
    /// Returns the report's `(collective_time, stream_time)` bits.
    fn per_group_times(
        m: &WaferCostModel,
        cfg: &HybridConfig,
        engine: MappingEngine,
    ) -> (u64, u64) {
        let mapping = temp_mapping::engines::map_hybrid(
            engine,
            &m.wafer,
            &m.model,
            &m.workload,
            &layout_config(cfg),
        )
        .expect("a valid candidate maps");
        let mut coll_by_class = [0.0f64; TrafficClass::CLASS_COUNT];
        let mut stream: f64 = 0.0;
        for op in &mapping.comm_ops {
            if op.pattern == CommPattern::P2pStream {
                let t_deg = cfg.tatp.max(1) as f64;
                let t = op.per_layer_count * t_deg * m.stream_round_time(op.bytes / t_deg);
                stream = stream.max(t);
            } else {
                let t = m.collective_raw_time(op.collective_kind(), op.group.len(), op.bytes)
                    * op.per_layer_count
                    * mapping.contention_factor()
                    * m.link_factor;
                let code = op.source.index() * CommPattern::COUNT + op.pattern.index();
                coll_by_class[code] = coll_by_class[code].max(t);
            }
        }
        let local_layers = (m.model.layers as f64 / cfg.pp as f64).max(1.0);
        let micro = m.workload.micro_batches as f64;
        let coll: f64 = coll_by_class.iter().sum();
        let scaled = |t: f64| (t * local_layers * micro).to_bits();
        (scaled(coll), scaled(stream))
    }

    #[test]
    fn the_traffic_table_prices_like_the_per_group_loop() {
        use crate::search::SearchContext;
        use MappingEngine::{GMap, SMap, Tcme};
        let wafer = WaferConfig::hpca();
        let faults = FaultMap::inject_link_faults(&wafer.mesh(), 0.1, 11);
        for model in [ModelZoo::gpt3_6_7b(), ModelZoo::deepseek_moe_16b()] {
            let dies = wafer.die_count();
            let candidates = match model.moe {
                Some(moe) => SearchContext::enumerate_moe_candidates(dies, moe.num_experts as _),
                None => SearchContext::enumerate_base_candidates(dies),
            };
            let healthy =
                WaferCostModel::new(wafer.clone(), model.clone(), Workload::for_model(&model));
            let degraded = healthy.derated(&faults);
            assert_ne!(degraded.link_factor, 1.0);
            let mut checked = 0;
            for cfg in &candidates {
                for (engine, m) in [SMap, GMap, Tcme]
                    .iter()
                    .flat_map(|e| [(*e, &healthy), (*e, &degraded)])
                {
                    if let Ok(r) = m.evaluate(cfg, engine) {
                        let got = (r.collective_time.to_bits(), r.stream_time.to_bits());
                        let label = format!("{} {} {engine}", model.name, cfg.label());
                        assert_eq!(got, per_group_times(m, cfg, engine), "{label}");
                        checked += 1;
                    }
                }
            }
            assert!(checked >= candidates.len(), "{}: {checked}", model.name);
        }
    }

    #[test]
    fn every_pipeline_degree_shares_one_mapping_and_prices_like_a_fresh_model() {
        // The mapping and draft memos key on the pp-free `layout_config`:
        // every pipeline degree must reuse the pp = 1 entries and still
        // price exactly as a fresh model does at that degree. (The
        // tripwire in `temp_mapping::engines` checks that no mapping
        // reads `pp`; if one does, `pp` must go back into the keys.)
        use crate::search::SearchContext;
        use MappingEngine::{GMap, SMap, Tcme};
        let wafer = WaferConfig::hpca();
        for model in [ModelZoo::gpt3_6_7b(), ModelZoo::mixtral_8x7b()] {
            let dies = wafer.die_count();
            let candidates = match model.moe {
                Some(moe) => SearchContext::enumerate_moe_candidates(dies, moe.num_experts as _),
                None => SearchContext::enumerate_base_candidates(dies),
            };
            assert!(candidates.iter().any(|c| c.ep > 1) == model.moe.is_some());
            let fresh =
                || WaferCostModel::new(wafer.clone(), model.clone(), Workload::for_model(&model));
            let reports = |m: &WaferCostModel, pp: usize| -> Vec<String> {
                let mut out = Vec::new();
                for engine in [SMap, GMap, Tcme] {
                    for cfg in &candidates {
                        let staged = HybridConfig { pp, ..*cfg };
                        out.push(format!("{:?}", m.evaluate(&staged, engine)));
                    }
                }
                out
            };
            let shared = fresh();
            reports(&shared, 1);
            let built = (shared.mapping_memo_stats().1, shared.draft_memo_stats().1);
            for pp in [2, 4, 8, 16] {
                let got = reports(&shared, pp);
                let label = format!("{} pp={pp}", model.name);
                let now = (shared.mapping_memo_stats().1, shared.draft_memo_stats().1);
                assert_eq!(now, built, "{label}: no new mapping or draft");
                assert_eq!(got, reports(&fresh(), pp), "{label}");
            }
        }
    }

    #[test]
    fn segment_costs_are_identical_under_every_engine() {
        // The per-segment cost table is keyed without the engine, so the
        // engine must never enter segment arithmetic.
        use crate::search::SearchContext;
        let wafers = [
            WaferConfig::hpca(),
            WaferConfig::with_array(8, 8).expect("8x8 wafer"),
        ];
        let models = ModelZoo::table2().into_iter().chain(ModelZoo::moe_zoo());
        for model in models {
            for wafer in &wafers {
                let dies = wafer.die_count();
                let candidates = match model.moe {
                    Some(moe) => {
                        SearchContext::enumerate_moe_candidates(dies, moe.num_experts as usize)
                    }
                    None => SearchContext::enumerate_base_candidates(dies),
                };
                let m =
                    WaferCostModel::new(wafer.clone(), model.clone(), Workload::for_model(&model));
                for seg in m.chain().segments() {
                    for cfg in &candidates {
                        let tcme = m.evaluate_segment(seg, cfg, MappingEngine::Tcme).ok();
                        for engine in [MappingEngine::SMap, MappingEngine::GMap] {
                            assert_eq!(
                                m.evaluate_segment(seg, cfg, engine).ok(),
                                tcme,
                                "{} {:?} {} under {engine:?}",
                                model.name,
                                seg.kind,
                                cfg.label()
                            );
                        }
                    }
                }
            }
        }
    }
}
