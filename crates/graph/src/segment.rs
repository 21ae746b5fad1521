//! The segment-chain IR: the model as a chain of *distinct* segments.
//!
//! TEMP's Level-1 DP (Fig. 12(b)) is defined over a chain of segments cut
//! at residual-legal boundaries. A real decoder-only LLM is not a uniform
//! stack of identical Transformer blocks: it is
//!
//! ```text
//! [ Embedding ] -> [ Block ] x L -> [ Head ]
//!   vocab x H       13 ops each      final LN + LM head GEMM + CE softmax
//!   lookup-bound    GEMM-bound       vocab-GEMM-bound
//! ```
//!
//! and the three segment kinds have very different cost physics: the
//! embedding lookup is HBM-bandwidth-bound and pays a vocab-parallel
//! output all-reduce when the table is sharded over TP/TATP, the blocks
//! are the Fig. 12(a) GEMM pipeline, and the LM head is one huge
//! `[B,S,H] x [H,V]` GEMM whose tied-weight gradients must synchronize
//! across data-parallel replicas. Costing them with one replicated block
//! cost (the pre-segment-chain behavior) makes the DP's transition matrix
//! vacuous — every segment always picks the same candidate.
//!
//! [`SegmentChain::for_model`] derives the chain from a
//! [`ModelConfig`] + [`Workload`] pair via [`TransformerBuilder`], with
//! per-segment parameter/FLOP/activation footprints. Identical interior
//! blocks are run-length compressed ([`Segment::count`]): a run of equal
//! segments assigned one candidate pays no internal transitions, and for
//! non-negative transition costs a uniform within-run assignment is
//! optimal, so the compressed DP is exact.

use serde::{Deserialize, Serialize};

use crate::models::ModelConfig;
use crate::op::Operator;
use crate::transformer::TransformerBuilder;
use crate::workload::Workload;

/// The segment vocabulary of a decoder-only LLM chain.
///
/// `Hash`/`Eq` because the solver memoizes per-segment costs under the key
/// `(SegmentKind, HybridConfig, MappingEngine, RecomputeMode)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentKind {
    /// Token-embedding lookup (vocab x H table).
    Embedding,
    /// One Fig. 12(a) Transformer block.
    Block,
    /// One Mixture-of-Experts block: the dense attention path plus a
    /// router, expert FFNs dispatched over the expert-parallel groups
    /// (all-to-all), and the combine back into the residual stream.
    MoeBlock,
    /// Final norm + LM-head GEMM + cross-entropy softmax.
    Head,
}

impl SegmentKind {
    /// Every segment kind, in the one canonical order. [`SegmentKind::index`]
    /// is defined as the position in this array; anything that needs a
    /// dense per-kind table (cost-table keys, persisted cache records) must go
    /// through it so adding a kind cannot desynchronize consumers.
    pub const ALL: [SegmentKind; 4] = [
        SegmentKind::Embedding,
        SegmentKind::Block,
        SegmentKind::MoeBlock,
        SegmentKind::Head,
    ];

    /// The kind's position in [`SegmentKind::ALL`]. Match-exhaustive: a
    /// new kind fails to compile until it is placed in the canonical
    /// ordering (and the `ALL` round-trip is unit-tested).
    pub fn index(&self) -> usize {
        match self {
            SegmentKind::Embedding => 0,
            SegmentKind::Block => 1,
            SegmentKind::MoeBlock => 2,
            SegmentKind::Head => 3,
        }
    }

    /// Stable small-integer encoding for persisted cache records (derived
    /// from the canonical [`SegmentKind::index`]).
    pub fn code(&self) -> u8 {
        self.index() as u8
    }
}

impl std::fmt::Display for SegmentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SegmentKind::Embedding => "embedding",
            SegmentKind::Block => "block",
            SegmentKind::MoeBlock => "moe-block",
            SegmentKind::Head => "head",
        };
        write!(f, "{s}")
    }
}

/// One run of identical segments in the chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// What kind of segment this is.
    pub kind: SegmentKind,
    /// How many identical instances the run covers (blocks: `model.layers`;
    /// embedding/head: 1).
    pub count: u64,
    /// Trained parameters of one instance (the LM head's GEMM weight is
    /// tied to the embedding table and owned there).
    pub params: u64,
    /// Training FLOPs of one instance at the global batch (fwd + bwd).
    pub flops: f64,
    /// Unsharded *stored* activation bytes of one instance for one
    /// micro-batch (what the backward pass keeps around).
    pub activation_bytes: f64,
    /// Unsharded *boundary* tensor bytes of one instance for one
    /// micro-batch: what the segment hands to its successor (the residual
    /// stream, `B x S x H` for every kind in the dense chain). This is the
    /// tensor a pipeline cut after this segment must move between stages.
    pub output_bytes: f64,
    /// The operator list of one instance, built at the global batch (the
    /// cost model applies per-die sharding, exactly as for blocks).
    pub ops: Vec<Operator>,
}

/// The whole-model segment chain: embedding -> blocks -> head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentChain {
    segments: Vec<Segment>,
}

impl SegmentChain {
    /// Builds the chain for a model/workload pair. The block run is
    /// derived from [`TransformerBuilder::block`]; embedding and head come
    /// from [`TransformerBuilder::embedding_graph`] /
    /// [`TransformerBuilder::head_graph`].
    pub fn for_model(model: &ModelConfig, workload: &Workload) -> Self {
        let builder = TransformerBuilder::new(model, workload);
        let micro_tokens = workload.micro_batch_size() as f64 * workload.seq_len as f64;
        let act_dtype = workload.compute_dtype.bytes() as f64;
        let sbh = micro_tokens * model.hidden as f64 * act_dtype;

        let make = |kind: SegmentKind, count: u64, ops: Vec<Operator>, act_bytes: f64| {
            let params = ops.iter().map(|o| o.kind.weight_params()).sum();
            let flops = ops.iter().map(Operator::training_flops).sum();
            Segment {
                kind,
                count,
                params,
                flops,
                activation_bytes: act_bytes,
                // Every dense-chain segment emits the residual stream.
                output_bytes: sbh,
                ops,
            }
        };

        let embedding = make(
            SegmentKind::Embedding,
            1,
            builder.embedding_graph().ops().to_vec(),
            sbh,
        );
        let block = make(
            SegmentKind::Block,
            model.dense_layer_count(),
            builder.block().ops().to_vec(),
            workload.activation_bytes_per_layer(model),
        );
        // The head's LM GEMM reuses the (tied) embedding table: strip its
        // weight from the head's param accounting so the chain total
        // matches `ModelConfig::total_params`.
        let mut head = make(
            SegmentKind::Head,
            1,
            builder.head_graph().ops().to_vec(),
            sbh,
        );
        head.params = head.params.saturating_sub(model.hidden * model.vocab);

        let mut segments = vec![embedding, block];
        if let Some(moe) = model.moe {
            // MoE blocks: the op list's GEMM accounting sees one expert's
            // weights (the dispatch fans tokens across experts), so the
            // run's params/flops come from the model-level accounting —
            // every expert's weights stored, `top_k x capacity` expert
            // passes executed per token.
            let mut moe_block = make(
                SegmentKind::MoeBlock,
                model.moe_layer_count(),
                builder.moe_block_graph().ops().to_vec(),
                workload.activation_bytes_per_layer(model)
                    + micro_tokens
                        * moe.routed_activation_elems_per_token(model.hidden)
                        * act_dtype,
            );
            moe_block.params = model.moe_params_per_layer();
            // `make` already set output_bytes to the residual stream
            // (B x S x H) — the combine output is exactly that tensor, so
            // a pipeline cut after a MoE block moves it, not the routed
            // expert copies.
            segments.push(moe_block);
        }
        segments.push(head);
        SegmentChain { segments }
    }

    /// The run-length-compressed segments, in chain order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total segment instances in the expanded chain (`L + 2`).
    pub fn expanded_len(&self) -> u64 {
        self.segments.iter().map(|s| s.count).sum()
    }

    /// The first segment of a kind, if present.
    pub fn find(&self, kind: SegmentKind) -> Option<&Segment> {
        self.segments.iter().find(|s| s.kind == kind)
    }

    /// Index of the first segment of a kind within [`SegmentChain::segments`].
    pub fn position(&self, kind: SegmentKind) -> Option<usize> {
        self.segments.iter().position(|s| s.kind == kind)
    }

    /// Total trained parameters across the chain (tied LM-head weight
    /// counted once, at the embedding).
    pub fn total_params(&self) -> u64 {
        self.segments.iter().map(|s| s.count * s.params).sum()
    }

    /// Rebuilds a chain from explicit runs (sub-chains produced by
    /// [`SegmentChain::slice`] go through here). Zero-count runs are
    /// dropped; adjacent runs are *not* merged — a slice preserves the
    /// run order of its parent.
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        SegmentChain {
            segments: segments.into_iter().filter(|s| s.count > 0).collect(),
        }
    }

    /// The segment kind at expanded position `idx` (0-based over the
    /// `L + 2` expanded instances).
    pub fn kind_at(&self, idx: u64) -> Option<SegmentKind> {
        let mut offset = 0;
        for seg in &self.segments {
            if idx < offset + seg.count {
                return Some(seg.kind);
            }
            offset += seg.count;
        }
        None
    }

    /// The contiguous sub-chain covering expanded positions
    /// `[start, end)` — the slice of the chain a pipeline stage owns.
    /// Runs straddling the range boundary are split with adjusted counts;
    /// per-instance quantities (params, FLOPs, ops) are unchanged.
    /// Returns `None` for an empty or out-of-range window.
    pub fn slice(&self, start: u64, end: u64) -> Option<SegmentChain> {
        if start >= end || end > self.expanded_len() {
            return None;
        }
        let mut out = Vec::new();
        let mut offset = 0;
        for seg in &self.segments {
            let run_start = offset;
            let run_end = offset + seg.count;
            offset = run_end;
            let lo = run_start.max(start);
            let hi = run_end.min(end);
            if lo < hi {
                out.push(Segment {
                    count: hi - lo,
                    ..seg.clone()
                });
            }
        }
        Some(SegmentChain::from_segments(out))
    }

    /// Splits the chain into `cuts.len() + 1` contiguous stage sub-chains
    /// at the given expanded cut positions (a cut at `p` separates
    /// expanded instance `p - 1` from instance `p`). Cuts must be strictly
    /// increasing and interior (`0 < cut < expanded_len`), so every stage
    /// is non-empty and the stages partition the chain exactly — no
    /// instance lost or duplicated.
    pub fn split_at(&self, cuts: &[u64]) -> Option<Vec<SegmentChain>> {
        let len = self.expanded_len();
        let interior =
            cuts.windows(2).all(|w| w[0] < w[1]) && cuts.iter().all(|&c| c > 0 && c < len);
        if !interior {
            return None;
        }
        let mut stages = Vec::with_capacity(cuts.len() + 1);
        let mut start = 0;
        for &cut in cuts.iter().chain(std::iter::once(&len)) {
            stages.push(self.slice(start, cut)?);
            start = cut;
        }
        Some(stages)
    }

    /// The boundary activation tensor a pipeline cut at expanded position
    /// `cut` must move between stages: the *output* bytes of the producing
    /// instance (`cut - 1`) for one micro-batch. This is what an
    /// inter-wafer handoff is priced from.
    pub fn boundary_activation_bytes(&self, cut: u64) -> Option<f64> {
        if cut == 0 || cut >= self.expanded_len() {
            return None;
        }
        let mut offset = 0;
        for seg in &self.segments {
            if cut - 1 < offset + seg.count {
                return Some(seg.output_bytes);
            }
            offset += seg.count;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelZoo;

    fn chain() -> (ModelConfig, SegmentChain) {
        let model = ModelZoo::gpt3_6_7b();
        let workload = Workload::for_model(&model);
        let chain = SegmentChain::for_model(&model, &workload);
        (model, chain)
    }

    #[test]
    fn chain_is_embedding_blocks_head() {
        let (model, chain) = chain();
        let kinds: Vec<SegmentKind> = chain.segments().iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SegmentKind::Embedding,
                SegmentKind::Block,
                SegmentKind::Head
            ]
        );
        assert_eq!(chain.expanded_len(), model.layers + 2);
        assert_eq!(chain.segments()[1].count, model.layers);
    }

    #[test]
    fn chain_params_match_model_accounting() {
        let (model, chain) = chain();
        // Embedding holds vocab x H; blocks hold params_per_layer each; the
        // head owns only its final norm (tied GEMM weight lives at the
        // embedding). The model's total adds the final norm nowhere, so the
        // chain may exceed it by exactly that 2H.
        let slack = 2 * model.hidden;
        assert_eq!(chain.total_params(), model.total_params() + slack);
    }

    #[test]
    fn segment_kinds_have_distinct_cost_drivers() {
        let (_, chain) = chain();
        let emb = chain.find(SegmentKind::Embedding).unwrap();
        let block = chain.find(SegmentKind::Block).unwrap();
        let head = chain.find(SegmentKind::Head).unwrap();
        // The head's vocab GEMM dwarfs the embedding lookup.
        assert!(head.flops > 100.0 * emb.flops);
        // A block is GEMM-heavy but far below the vocab GEMM per instance
        // on this model (V >> 12H for GPT-3 6.7B at H=4096).
        assert!(head.flops > block.flops * 0.5);
        assert!(block.flops > emb.flops);
    }

    #[test]
    fn slices_partition_the_expanded_chain() {
        let (model, chain) = chain();
        let len = chain.expanded_len();
        // A three-way split with the cuts inside the block run.
        let cuts = [5u64, len - 1];
        let stages = chain.split_at(&cuts).expect("valid cuts");
        assert_eq!(stages.len(), 3);
        // No instance lost or duplicated, kinds preserved in order.
        let total: u64 = stages.iter().map(SegmentChain::expanded_len).sum();
        assert_eq!(total, len);
        let expanded: Vec<SegmentKind> = stages
            .iter()
            .flat_map(|s| {
                s.segments()
                    .iter()
                    .flat_map(|seg| std::iter::repeat_n(seg.kind, seg.count as usize))
            })
            .collect();
        let reference: Vec<SegmentKind> = (0..len).map(|i| chain.kind_at(i).unwrap()).collect();
        assert_eq!(expanded, reference);
        // Params are conserved across the split.
        let split_params: u64 = stages.iter().map(SegmentChain::total_params).sum();
        assert_eq!(split_params, chain.total_params());
        // First stage owns the embedding and 4 blocks; last owns the head.
        assert_eq!(stages[0].segments()[0].kind, SegmentKind::Embedding);
        assert_eq!(stages[0].segments()[1].count, 4);
        assert_eq!(stages[2].segments()[0].kind, SegmentKind::Head);
        // The middle stage holds every block the end stages did not take.
        assert_eq!(stages[1].expanded_len(), model.layers - 4);
    }

    #[test]
    fn invalid_cuts_are_rejected() {
        let (_, chain) = chain();
        let len = chain.expanded_len();
        assert!(chain.split_at(&[0]).is_none(), "cut at the chain start");
        assert!(chain.split_at(&[len]).is_none(), "cut at the chain end");
        assert!(chain.split_at(&[7, 7]).is_none(), "non-increasing cuts");
        assert!(chain.split_at(&[9, 3]).is_none(), "descending cuts");
        assert!(chain.slice(5, 5).is_none(), "empty slice");
        assert!(chain.slice(0, len + 1).is_none(), "out-of-range slice");
        // No cuts at all: one stage covering the whole chain.
        let whole = chain.split_at(&[]).unwrap();
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0], chain);
    }

    #[test]
    fn boundary_bytes_come_from_the_producer() {
        let (model, chain) = chain();
        let len = chain.expanded_len();
        // Every interior cut of the dense chain moves the residual stream.
        let sbh = chain.find(SegmentKind::Embedding).unwrap().output_bytes;
        assert!(sbh > 0.0);
        for cut in 1..len {
            assert_eq!(chain.boundary_activation_bytes(cut), Some(sbh), "{cut}");
        }
        assert_eq!(chain.boundary_activation_bytes(0), None);
        assert_eq!(chain.boundary_activation_bytes(len), None);
        // The block's stored activations are not its boundary tensor:
        // selective recompute keeps far more than one residual stream.
        let block = chain.find(SegmentKind::Block).unwrap();
        assert!(block.activation_bytes > block.output_bytes, "{model:?}");
    }

    #[test]
    fn kind_index_matches_the_canonical_ordering() {
        // `index()` must be exactly the position in `ALL`: dense, unique,
        // covering every kind — the invariant that keys per-kind cost
        // tables.
        for (i, kind) in SegmentKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind}");
            assert_eq!(kind.code() as usize, i, "{kind}");
        }
        let mut seen: Vec<usize> = SegmentKind::ALL.iter().map(SegmentKind::index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..SegmentKind::ALL.len()).collect::<Vec<_>>());
    }

    #[test]
    fn moe_models_build_mixed_chains() {
        for model in ModelZoo::moe_zoo() {
            let workload = Workload::for_model(&model);
            let chain = SegmentChain::for_model(&model, &workload);
            let kinds: Vec<SegmentKind> = chain.segments().iter().map(|s| s.kind).collect();
            assert_eq!(
                kinds,
                vec![
                    SegmentKind::Embedding,
                    SegmentKind::Block,
                    SegmentKind::MoeBlock,
                    SegmentKind::Head
                ],
                "{}",
                model.name
            );
            assert_eq!(chain.expanded_len(), model.layers + 2, "{}", model.name);
            let dense = chain.find(SegmentKind::Block).unwrap();
            let moe = chain.find(SegmentKind::MoeBlock).unwrap();
            assert_eq!(dense.count, model.dense_layer_count());
            assert_eq!(moe.count, model.moe_layer_count());
            // The MoE run stores every expert's weights.
            assert_eq!(moe.params, model.moe_params_per_layer());
            assert!(moe.params > dense.params, "{}", model.name);
            // The combine output is the residual stream: a cut after any
            // MoE instance moves exactly B x S x H.
            let sbh = chain.find(SegmentKind::Embedding).unwrap().output_bytes;
            assert_eq!(moe.output_bytes, sbh, "{}", model.name);
            // Routed expert copies make the MoE block's stored activations
            // exceed the dense block's.
            assert!(moe.activation_bytes > dense.activation_bytes);
            // Chain totals match the model accounting (same 2H final-norm
            // slack as the dense chain).
            assert_eq!(
                chain.total_params(),
                model.total_params() + 2 * model.hidden,
                "{}",
                model.name
            );
        }
    }

    #[test]
    fn positions_and_lookup_agree() {
        let (_, chain) = chain();
        assert_eq!(chain.position(SegmentKind::Embedding), Some(0));
        assert_eq!(chain.position(SegmentKind::Block), Some(1));
        assert_eq!(chain.position(SegmentKind::Head), Some(2));
        assert_eq!(
            chain.find(SegmentKind::Block).map(|s| s.kind),
            Some(SegmentKind::Block)
        );
    }
}
