//! Communication extraction: what each parallel strategy moves per layer and
//! per step (the traffic side of the unified parallelism representation).
//!
//! Per Transformer layer and training step:
//!
//! | strategy | traffic |
//! |----------|---------|
//! | TP       | 4 all-reduces of the layer activation over each TP group (2 fwd + 2 bwd) |
//! | SP       | 2 all-gathers + 2 reduce-scatters of the (sequence-sharded) activation |
//! | CP       | 1 KV all-gather per attention |
//! | FSDP     | per-layer weight all-gather (fwd + bwd) + gradient reduce-scatter |
//! | DP       | gradient all-reduce every micro-batch (vanilla DDP) |
//! | TATP     | the bidirectional 1-hop stream (handled by the orchestration; tagged P2P flows for contention analysis) |

use serde::{Deserialize, Serialize};

use temp_graph::models::ModelConfig;
use temp_graph::workload::Workload;
use temp_parallel::groups::WaferLayout;
use temp_parallel::strategy::{HybridConfig, ParallelKind};
use temp_sim::collectives::{Collective, CollectiveKind};
use temp_sim::network::Flow;
use temp_wsc::topology::{DieId, Mesh};

/// Communication pattern classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommPattern {
    /// Ring all-reduce.
    AllReduce,
    /// Ring all-gather.
    AllGather,
    /// Ring reduce-scatter.
    ReduceScatter,
    /// Neighbor-to-neighbor stream (TATP).
    P2pStream,
}

impl CommPattern {
    /// Number of pattern classes (the bound for per-pattern fixed arrays).
    pub const COUNT: usize = 4;

    /// Canonical small-integer code in `0..CommPattern::COUNT`, stable
    /// across runs.
    pub fn index(self) -> usize {
        match self {
            CommPattern::AllReduce => 0,
            CommPattern::AllGather => 1,
            CommPattern::ReduceScatter => 2,
            CommPattern::P2pStream => 3,
        }
    }

    /// The collective kind this pattern times as (P2P streams map to one
    /// shift).
    pub fn collective_kind(self) -> CollectiveKind {
        match self {
            CommPattern::AllReduce => CollectiveKind::AllReduce,
            CommPattern::AllGather => CollectiveKind::AllGather,
            CommPattern::ReduceScatter => CollectiveKind::ReduceScatter,
            CommPattern::P2pStream => CollectiveKind::P2pShift,
        }
    }
}

/// One `(source, pattern)` traffic class of one layer: what every group of
/// its strategy moves. Layout-free — every group of a class has the
/// strategy's degree as its size and carries the same bytes and count, so
/// one class prices all of its groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficClass {
    /// Which strategy generates it.
    pub source: ParallelKind,
    /// Pattern class.
    pub pattern: CommPattern,
    /// Dies per group (the strategy's degree).
    pub group_size: usize,
    /// Full payload bytes (per rank).
    pub bytes: f64,
    /// How many times the op runs per layer (fwd+bwd combined).
    pub per_layer_count: f64,
}

impl TrafficClass {
    /// Total distinct `(source, pattern)` traffic-class codes.
    pub const CLASS_COUNT: usize = ParallelKind::COUNT * CommPattern::COUNT;

    /// Canonical traffic-class code in `0..TrafficClass::CLASS_COUNT` —
    /// the index of this class's accumulator slot in the costing hot path.
    pub fn class_code(&self) -> usize {
        self.source.index() * CommPattern::COUNT + self.pattern.index()
    }

    /// The collective kind this class times as.
    pub fn collective_kind(&self) -> CollectiveKind {
        self.pattern.collective_kind()
    }

    /// The strategy whose layout groups carry this class (FSDP runs on
    /// the DP groups).
    pub fn group_kind(&self) -> ParallelKind {
        match self.source {
            ParallelKind::Fsdp => ParallelKind::Dp,
            kind => kind,
        }
    }

    /// This class placed on one group.
    fn place(&self, group: Vec<DieId>) -> CommOp {
        CommOp {
            source: self.source,
            pattern: self.pattern,
            group,
            bytes: self.bytes,
            per_layer_count: self.per_layer_count,
        }
    }
}

/// One communication operation of the plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommOp {
    /// Which strategy generated it.
    pub source: ParallelKind,
    /// Pattern class.
    pub pattern: CommPattern,
    /// Member dies in logical order.
    pub group: Vec<DieId>,
    /// Full payload bytes (per rank).
    pub bytes: f64,
    /// How many times the op runs per layer (fwd+bwd combined).
    pub per_layer_count: f64,
}

impl CommOp {
    /// The collective kind this op times as (P2P streams map to one shift).
    pub fn collective_kind(&self) -> CollectiveKind {
        self.pattern.collective_kind()
    }

    /// The collective equivalent for timing and round simulation.
    pub fn collective(&self) -> Collective {
        Collective::new(self.collective_kind(), self.group.clone(), self.bytes)
    }
}

/// A flow tagged with a payload identity, so the optimizer can detect and
/// merge duplicate data moving over shared links (multicast).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaggedFlow {
    /// The routed flow.
    pub flow: Flow,
    /// Payload identity: flows with equal ids carry identical data.
    pub payload: u64,
}

impl AsRef<Flow> for TaggedFlow {
    fn as_ref(&self) -> &Flow {
        &self.flow
    }
}

/// The traffic table of one Transformer layer: calls `visit` once per
/// `(source, pattern)` class `cfg` issues, in a fixed order (TP, SP, CP,
/// FSDP or DP, TATP). `cfg` must have expert parallelism already folded
/// into `dp` (a layout places the dense-path degrees only). Allocates
/// nothing, so the costing hot path can price a layer straight from it.
pub fn layer_traffic(
    cfg: &HybridConfig,
    model: &ModelConfig,
    workload: &Workload,
    mut visit: impl FnMut(TrafficClass),
) {
    let e = workload.compute_dtype.bytes() as f64;
    let (dp, tp, sp, cp, tatp) = (
        cfg.dp as f64,
        cfg.tp as f64,
        cfg.sp as f64,
        cfg.cp as f64,
        cfg.tatp as f64,
    );
    // Local activation tensor of one layer boundary (per die).
    let local_tokens =
        workload.micro_batch_size() as f64 / dp * workload.seq_len as f64 / (sp * cp);
    let act_bytes = local_tokens * model.hidden as f64 * e;
    // Per-die weight shard of one layer.
    let layer_weight_bytes =
        model.params_per_layer() as f64 * e / (tp * tatp * if cfg.fsdp { dp } else { 1.0 });
    let mut class = |source, pattern, group_size, bytes, per_layer_count| {
        visit(TrafficClass {
            source,
            pattern,
            group_size,
            bytes,
            per_layer_count,
        })
    };
    use CommPattern::{AllGather, AllReduce, P2pStream, ReduceScatter};
    use ParallelKind::{Cp, Dp, Fsdp, Sp, Tatp, Tp};

    if cfg.tp > 1 {
        class(Tp, AllReduce, cfg.tp, act_bytes, 4.0);
    }
    if cfg.sp > 1 {
        class(Sp, AllGather, cfg.sp, act_bytes * sp, 2.0);
        class(Sp, ReduceScatter, cfg.sp, act_bytes * sp, 2.0);
    }
    if cfg.cp > 1 {
        let kv_bytes = 2.0 * act_bytes * cp / model.heads as f64 * model.kv_heads as f64;
        class(Cp, AllGather, cfg.cp, kv_bytes, 1.0);
    }
    if cfg.fsdp && cfg.dp > 1 {
        let bytes = layer_weight_bytes * cfg.dp as f64;
        class(Fsdp, AllGather, cfg.dp, bytes, 2.0);
        class(Fsdp, ReduceScatter, cfg.dp, bytes, 1.0);
    } else if cfg.dp > 1 {
        // Vanilla DDP semantics: gradients synchronize every micro-batch
        // (no gradient-accumulation fusion), which is what makes DP-heavy
        // configurations communication-bound on the wafer (§VIII-D).
        class(Dp, AllReduce, cfg.dp, layer_weight_bytes, 1.0);
    }
    if cfg.tatp > 1 {
        // Bidirectional redundant stream: ~2x the streamed tensor per
        // layer, all 1-hop between logical neighbors; fwd + bwd + grad
        // stages (Eq. 1).
        let bytes = 2.0 * layer_weight_bytes * tatp;
        class(Tatp, P2pStream, cfg.tatp, bytes, 3.0);
    }
}

/// Extracts every communication op of one training step, per layer, for a
/// laid-out hybrid configuration: each [`layer_traffic`] class placed on
/// every group of its strategy.
pub fn extract_comm_ops(
    layout: &WaferLayout,
    model: &ModelConfig,
    workload: &Workload,
) -> Vec<CommOp> {
    let mut classes = Vec::with_capacity(TrafficClass::CLASS_COUNT);
    layer_traffic(layout.config(), model, workload, |class| {
        classes.push(class)
    });
    let mut ops = Vec::new();
    // A strategy's classes go group by group (an SP group's all-gather
    // beside its reduce-scatter). `layer_flows` routes and numbers the
    // payloads in op order, and TCME's simulated round depends on that
    // order in the last bit, so it is part of every mapping's identity.
    let mut rest = &classes[..];
    while let Some(first) = rest.first() {
        let kind = first.group_kind();
        let (run, tail) = rest.split_at(rest.iter().take_while(|c| c.group_kind() == kind).count());
        for group in layout.groups_of(kind) {
            ops.extend(run.iter().map(|class| class.place(group.clone())));
        }
        rest = tail;
    }
    ops
}

/// Expands comm ops into tagged flows (one round's worth per op) routed XY,
/// for static contention analysis of a layer.
pub fn layer_flows(mesh: &Mesh, ops: &[CommOp]) -> Vec<TaggedFlow> {
    let mut flows = Vec::new();
    let mut payload: u64 = 0;
    for op in ops {
        let n = op.group.len();
        if n < 2 {
            continue;
        }
        match op.pattern {
            CommPattern::P2pStream => {
                // Neighbor exchanges in both directions, one chunk each.
                let chunk = op.bytes / n as f64;
                for w in op.group.windows(2) {
                    payload += 1;
                    flows.push(TaggedFlow {
                        flow: Flow::xy(mesh, w[0], w[1], chunk),
                        payload,
                    });
                    payload += 1;
                    flows.push(TaggedFlow {
                        flow: Flow::xy(mesh, w[1], w[0], chunk),
                        payload,
                    });
                }
            }
            _ => {
                // One ring round: every rank ships a shard to its successor.
                // Ranks forward *the same logical shard set*, but each
                // rank's message is distinct data: unique payload per flow.
                let shard = op.bytes / n as f64;
                for i in 0..n {
                    payload += 1;
                    flows.push(TaggedFlow {
                        flow: Flow::xy(mesh, op.group[i], op.group[(i + 1) % n], shard),
                        payload,
                    });
                }
            }
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use temp_graph::models::ModelZoo;
    use temp_parallel::groups::LayoutPolicy;
    use temp_parallel::strategy::HybridConfig;
    use temp_wsc::config::WaferConfig;

    fn setup(cfg: HybridConfig) -> (Mesh, WaferLayout, ModelConfig, Workload) {
        let wafer = WaferConfig::hpca();
        let mesh = wafer.mesh();
        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        let layout = WaferLayout::build(&mesh, &cfg, LayoutPolicy::TopologyAware).unwrap();
        (mesh, layout, model, workload)
    }

    #[test]
    fn tp_generates_four_allreduces_per_group() {
        let (_, layout, model, workload) = setup(HybridConfig::tuple(4, 8, 1, 1));
        let ops = extract_comm_ops(&layout, &model, &workload);
        let tp_ops: Vec<&CommOp> = ops
            .iter()
            .filter(|o| o.source == ParallelKind::Tp)
            .collect();
        assert_eq!(tp_ops.len(), 4, "one op per TP group");
        assert!(tp_ops.iter().all(|o| o.pattern == CommPattern::AllReduce));
        assert!(tp_ops
            .iter()
            .all(|o| (o.per_layer_count - 4.0).abs() < 1e-12));
    }

    #[test]
    fn fsdp_gathers_weights_dp_reduces_gradients() {
        let (_, layout, model, workload) = setup(HybridConfig {
            dp: 32,
            fsdp: true,
            ..Default::default()
        });
        let ops = extract_comm_ops(&layout, &model, &workload);
        assert!(ops
            .iter()
            .any(|o| o.source == ParallelKind::Fsdp && o.pattern == CommPattern::AllGather));
        let (_, layout, model, workload) = setup(HybridConfig::tuple(32, 1, 1, 1));
        let ops = extract_comm_ops(&layout, &model, &workload);
        assert!(ops
            .iter()
            .all(|o| o.source == ParallelKind::Dp && o.pattern == CommPattern::AllReduce));
    }

    #[test]
    fn tatp_streams_are_single_hop_neighbor_flows() {
        let (mesh, layout, model, workload) = setup(HybridConfig::tuple(2, 2, 1, 8));
        let ops = extract_comm_ops(&layout, &model, &workload);
        let flows = layer_flows(&mesh, &ops);
        for tf in flows.iter().filter(|tf| tf.flow.bytes > 0.0) {
            // TATP flows between logical neighbors are 1 hop under the
            // topology-aware layout; collective rounds may be longer.
            assert!(tf.flow.hops() >= 1);
        }
        let stream_ops: Vec<&CommOp> = ops
            .iter()
            .filter(|o| o.pattern == CommPattern::P2pStream)
            .collect();
        assert_eq!(stream_ops.len(), 4, "one stream per TATP group");
    }

    #[test]
    fn sp_volume_equals_tp_volume() {
        // The all-gather + reduce-scatter pair moves the same bytes as an
        // all-reduce — SP's advantage is memory, not volume.
        let (_, l_tp, model, w) = setup(HybridConfig::tuple(4, 8, 1, 1));
        let (_, l_sp, _, _) = setup(HybridConfig::tuple(4, 1, 8, 1));
        let tp_total: f64 = extract_comm_ops(&l_tp, &model, &w)
            .iter()
            .filter(|o| o.source == ParallelKind::Tp)
            .map(|o| o.bytes * o.per_layer_count * 2.0) // all-reduce ~ 2x volume
            .sum();
        let sp_total: f64 = extract_comm_ops(&l_sp, &model, &w)
            .iter()
            .filter(|o| o.source == ParallelKind::Sp)
            .map(|o| o.bytes * o.per_layer_count)
            .sum();
        let ratio = sp_total / tp_total;
        assert!((0.4..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn every_placed_op_matches_its_traffic_class() {
        // Folding EP into DP maps every MoE candidate onto a dense tuple,
        // so the dense enumerations (plus a CP split, which they lack)
        // cover the whole zoo's layouts.
        let models = [ModelZoo::table2(), ModelZoo::moe_zoo()].concat();
        let row = |c: &TrafficClass| {
            let (bytes, count) = (c.bytes.to_bits(), c.per_layer_count.to_bits());
            (c.source, c.pattern, c.group_size, bytes, count)
        };
        let placed = |o: &CommOp| {
            let (bytes, count) = (o.bytes.to_bits(), o.per_layer_count.to_bits());
            (o.source, o.pattern, o.group.len(), bytes, count)
        };
        for wafer in [WaferConfig::hpca(), WaferConfig::with_array(8, 8).unwrap()] {
            let dies = wafer.die_count();
            let mut cfgs = HybridConfig::enumerate_tuples(dies, false);
            let fsdp = HybridConfig::enumerate_tuples(dies, true);
            cfgs.extend(fsdp.into_iter().filter(|c| c.dp > 1));
            cfgs.push(HybridConfig {
                cp: 2,
                ..HybridConfig::tuple(2, 2, 1, dies / 8)
            });
            let policies = [LayoutPolicy::TopologyAware, LayoutPolicy::RowMajorStrips];
            for (cfg, policy) in cfgs.iter().flat_map(|c| policies.map(|p| (c, p))) {
                let Ok(layout) = WaferLayout::build(&wafer.mesh(), cfg, policy) else {
                    continue;
                };
                for model in &models {
                    let workload = Workload::for_model(model);
                    let mut classes = Vec::new();
                    layer_traffic(cfg, model, &workload, |c| classes.push(c));
                    let ops = extract_comm_ops(&layout, model, &workload);
                    let label = format!("{} {} {policy:?}", model.name, cfg.label());
                    for op in &ops {
                        let matches = |c: &TrafficClass| row(c) == placed(op);
                        assert!(classes.iter().any(matches), "{label}: {op:?}");
                    }
                    for class in &classes {
                        assert_eq!(class.group_size, cfg.degree(class.group_kind()));
                        let matches = |o: &CommOp| row(class) == placed(o);
                        assert!(ops.iter().any(matches), "{label}: no group for {class:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn pure_config_generates_no_foreign_ops() {
        let (_, layout, model, workload) = setup(HybridConfig::tuple(1, 1, 1, 32));
        let ops = extract_comm_ops(&layout, &model, &workload);
        assert!(ops.iter().all(|o| o.source == ParallelKind::Tatp));
    }
}
