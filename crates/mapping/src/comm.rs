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
//! | DP       | per-step gradient all-reduce (amortized per layer here) |
//! | TATP     | the bidirectional 1-hop stream (handled by the orchestration; tagged P2P flows for contention analysis) |

use serde::{Deserialize, Serialize};

use temp_graph::models::ModelConfig;
use temp_graph::workload::Workload;
use temp_parallel::groups::WaferLayout;
use temp_parallel::strategy::ParallelKind;
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
    /// How many times the op runs per layer (fwd+bwd combined); DP gradient
    /// all-reduce is amortized to `1 / layers`.
    pub per_layer_count: f64,
}

impl CommOp {
    /// Total distinct `(source, pattern)` traffic-class codes.
    pub const CLASS_COUNT: usize = ParallelKind::COUNT * CommPattern::COUNT;

    /// Canonical `(source, pattern)` traffic-class code in
    /// `0..CommOp::CLASS_COUNT` — the index of this op's per-class
    /// accumulator slot in the costing hot path.
    pub fn class_code(&self) -> usize {
        self.source.index() * CommPattern::COUNT + self.pattern.index()
    }

    /// The collective kind this op times as (P2P streams map to one shift).
    pub fn collective_kind(&self) -> CollectiveKind {
        match self.pattern {
            CommPattern::AllReduce => CollectiveKind::AllReduce,
            CommPattern::AllGather => CollectiveKind::AllGather,
            CommPattern::ReduceScatter => CollectiveKind::ReduceScatter,
            CommPattern::P2pStream => CollectiveKind::P2pShift,
        }
    }

    /// The collective equivalent for timing. Timing-only callers that
    /// would discard the group can skip this allocation:
    /// [`Collective::analytic_time_for`] with
    /// [`CommOp::collective_kind`] and `group.len()` prices identically.
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

/// Extracts every communication op of one training step, per layer, for a
/// laid-out hybrid configuration.
pub fn extract_comm_ops(
    layout: &WaferLayout,
    model: &ModelConfig,
    workload: &Workload,
) -> Vec<CommOp> {
    let cfg = layout.config();
    let mut ops = Vec::new();
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

    if cfg.tp > 1 {
        for group in layout.groups_of(ParallelKind::Tp) {
            ops.push(CommOp {
                source: ParallelKind::Tp,
                pattern: CommPattern::AllReduce,
                group,
                bytes: act_bytes,
                per_layer_count: 4.0,
            });
        }
    }
    if cfg.sp > 1 {
        for group in layout.groups_of(ParallelKind::Sp) {
            ops.push(CommOp {
                source: ParallelKind::Sp,
                pattern: CommPattern::AllGather,
                group: group.clone(),
                bytes: act_bytes * sp,
                per_layer_count: 2.0,
            });
            ops.push(CommOp {
                source: ParallelKind::Sp,
                pattern: CommPattern::ReduceScatter,
                group,
                bytes: act_bytes * sp,
                per_layer_count: 2.0,
            });
        }
    }
    if cfg.cp > 1 {
        for group in layout.groups_of(ParallelKind::Cp) {
            ops.push(CommOp {
                source: ParallelKind::Cp,
                pattern: CommPattern::AllGather,
                group,
                bytes: 2.0 * act_bytes * cp / model.heads as f64 * model.kv_heads as f64,
                per_layer_count: 1.0,
            });
        }
    }
    if cfg.fsdp && cfg.dp > 1 {
        for group in layout.groups_of(ParallelKind::Dp) {
            ops.push(CommOp {
                source: ParallelKind::Fsdp,
                pattern: CommPattern::AllGather,
                group: group.clone(),
                bytes: layer_weight_bytes * cfg.dp as f64,
                per_layer_count: 2.0,
            });
            ops.push(CommOp {
                source: ParallelKind::Fsdp,
                pattern: CommPattern::ReduceScatter,
                group,
                bytes: layer_weight_bytes * cfg.dp as f64,
                per_layer_count: 1.0,
            });
        }
    } else if cfg.dp > 1 {
        for group in layout.groups_of(ParallelKind::Dp) {
            ops.push(CommOp {
                source: ParallelKind::Dp,
                pattern: CommPattern::AllReduce,
                group,
                bytes: layer_weight_bytes,
                // Vanilla DDP semantics: gradients synchronize every
                // micro-batch (no gradient-accumulation fusion), which is
                // what makes DP-heavy configurations communication-bound on
                // the wafer (§VIII-D).
                per_layer_count: 1.0,
            });
        }
    }
    if cfg.tatp > 1 {
        for group in layout.groups_of(ParallelKind::Tatp) {
            // Bidirectional redundant stream: ~2x the streamed tensor per
            // layer, all 1-hop between logical neighbors.
            ops.push(CommOp {
                source: ParallelKind::Tatp,
                pattern: CommPattern::P2pStream,
                group,
                bytes: 2.0 * layer_weight_bytes * tatp,
                per_layer_count: 3.0, // fwd + bwd + grad stages (Eq. 1)
            });
        }
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
    fn pure_config_generates_no_foreign_ops() {
        let (_, layout, model, workload) = setup(HybridConfig::tuple(1, 1, 1, 32));
        let ops = extract_comm_ops(&layout, &model, &workload);
        assert!(ops.iter().all(|o| o.source == ParallelKind::Tatp));
    }
}
