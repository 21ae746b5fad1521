//! Training workload configuration and memory accounting.
//!
//! The paper trains with mixed precision (FP16 weights/activations, FP32
//! Adam states; §VIII-A). Memory per die is the sum of
//!
//! * parameter states — weights + gradients + optimizer (16 B/param before
//!   sharding);
//! * activations — per-layer footprints following the Megatron-3
//!   (Korthikanti et al. \[52\]) accounting, with optional
//!   selective/full recomputation and FlashAttention (which removes the
//!   `S x S` score materialization).

use serde::{Deserialize, Serialize};

use crate::models::ModelConfig;
use crate::tensor::DType;
use crate::{GraphError, Result};

/// Activation recomputation policy.
///
/// `Hash` is required because the mode is part of the solver's
/// memoization key `(HybridConfig, MappingEngine, RecomputeMode)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RecomputeMode {
    /// Keep every intermediate activation.
    None,
    /// Selective recomputation: drop the attention score/softmax tensors
    /// (equivalent in footprint to FlashAttention).
    #[default]
    Selective,
    /// Full recomputation: keep only each block's input.
    Full,
}

/// A training-step workload: batch geometry, precision and recompute policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Global batch size (sequences per optimizer step).
    pub global_batch: u64,
    /// Sequence length.
    pub seq_len: u64,
    /// Gradient-accumulation micro-batches; activations are alive for one
    /// micro-batch at a time (per in-flight pipeline stage).
    pub micro_batches: u64,
    /// Weight/activation dtype (paper: FP16).
    pub compute_dtype: DType,
    /// Optimizer master/moment dtype (paper: FP32 Adam).
    pub optimizer_dtype: DType,
    /// Activation recomputation policy.
    pub recompute: RecomputeMode,
    /// Whether FlashAttention is used (fused attention, no score tensor).
    pub flash_attention: bool,
}

impl Workload {
    /// Standard mixed-precision Adam training at the paper's settings.
    pub fn training(global_batch: u64, seq_len: u64) -> Self {
        Workload {
            global_batch,
            seq_len,
            micro_batches: 8,
            compute_dtype: DType::F16,
            optimizer_dtype: DType::F32,
            recompute: RecomputeMode::Selective,
            flash_attention: true,
        }
    }

    /// The workload a model's Table II row prescribes.
    pub fn for_model(model: &ModelConfig) -> Self {
        Workload::training(model.default_batch, model.default_seq)
    }

    /// Overrides the micro-batch count.
    pub fn with_micro_batches(mut self, micro_batches: u64) -> Self {
        self.micro_batches = micro_batches.max(1);
        self
    }

    /// Overrides the recompute mode.
    pub fn with_recompute(mut self, recompute: RecomputeMode) -> Self {
        self.recompute = recompute;
        self
    }

    /// Sequences per micro-batch.
    pub fn micro_batch_size(&self) -> u64 {
        (self.global_batch / self.micro_batches).max(1)
    }

    /// Tokens processed per optimizer step.
    pub fn tokens_per_step(&self) -> u64 {
        self.global_batch * self.seq_len
    }

    /// Validates batch geometry.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] for zero batch/sequence or
    /// micro-batches exceeding the global batch.
    pub fn validate(&self) -> Result<()> {
        if self.global_batch == 0 || self.seq_len == 0 {
            return Err(GraphError::InvalidParameter(
                "zero batch or sequence".into(),
            ));
        }
        if self.micro_batches == 0 || self.micro_batches > self.global_batch {
            return Err(GraphError::InvalidParameter(format!(
                "micro_batches {} incompatible with global batch {}",
                self.micro_batches, self.global_batch
            )));
        }
        Ok(())
    }

    /// Bytes of parameter state per parameter before any sharding:
    /// FP16 weight + FP16 gradient + FP32 Adam m + FP32 Adam v (12 B/param;
    /// the FP16 weight doubles as the master copy, as the wafer's
    /// 32 x 72 GB capacity envelope implies for the paper's 175B runs).
    pub fn bytes_per_param(&self) -> f64 {
        let w = self.compute_dtype.bytes() as f64;
        let g = self.compute_dtype.bytes() as f64;
        let opt = 2.0 * self.optimizer_dtype.bytes() as f64;
        w + g + opt
    }

    /// Unsharded parameter-state bytes for a whole model.
    pub fn param_state_bytes(&self, model: &ModelConfig) -> f64 {
        model.total_params() as f64 * self.bytes_per_param()
    }

    /// Activation bytes of **one Transformer layer for one micro-batch**,
    /// before parallel sharding, following Megatron-3 accounting:
    ///
    /// * no recompute, standard attention: `s·b·h·(34 + 5·a·s/h)`
    /// * FlashAttention or selective recompute: `s·b·h·34`
    /// * full recompute: `2·s·b·h` (block input only)
    ///
    /// where `b` here is the micro-batch size.
    pub fn activation_bytes_per_layer(&self, model: &ModelConfig) -> f64 {
        self.activation_bytes_per_layer_with(model, self.micro_batch_size(), self.seq_len)
    }

    /// As [`Workload::activation_bytes_per_layer`] with explicit local batch
    /// and sequence (callers apply DP/SP sharding by shrinking them).
    pub fn activation_bytes_per_layer_with(
        &self,
        model: &ModelConfig,
        local_batch: u64,
        local_seq: u64,
    ) -> f64 {
        let s = local_seq as f64;
        let b = local_batch as f64;
        let h = model.hidden as f64;
        let a = model.heads as f64;
        match self.recompute {
            RecomputeMode::Full => 2.0 * s * b * h,
            RecomputeMode::Selective => 34.0 * s * b * h,
            RecomputeMode::None => {
                let score_term = if self.flash_attention {
                    0.0
                } else {
                    5.0 * a * s / h
                };
                s * b * h * (34.0 + score_term)
            }
        }
    }

    /// Unsharded total activation bytes for the whole model (one in-flight
    /// micro-batch).
    pub fn activation_bytes_total(&self, model: &ModelConfig) -> f64 {
        model.layers as f64 * self.activation_bytes_per_layer(model)
    }

    /// Approximate training FLOPs per optimizer step: `6 · params · tokens`
    /// for GEMM work plus the attention quadratic term
    /// `12 · L · h · s² · b` (fwd+bwd, two batched matmuls). MoE models
    /// charge only their *active* parameters (each token runs `top_k` of
    /// the `num_experts` expert FFNs), so stored experts do not inflate
    /// the FLOP count.
    pub fn step_flops(&self, model: &ModelConfig) -> f64 {
        let gemm = 6.0 * model.active_params() as f64 * self.tokens_per_step() as f64;
        let attn = 12.0
            * model.layers as f64
            * model.hidden as f64
            * (self.seq_len as f64).powi(2)
            * self.global_batch as f64;
        gemm + attn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelZoo;
    use temp_wsc::units::GB;

    #[test]
    fn defaults_are_mixed_precision_adam() {
        let w = Workload::training(128, 2048);
        assert_eq!(w.compute_dtype, DType::F16);
        assert_eq!(w.optimizer_dtype, DType::F32);
        assert!((w.bytes_per_param() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_degenerate_workloads() {
        assert!(Workload::training(0, 2048).validate().is_err());
        assert!(Workload::training(128, 0).validate().is_err());
        let w = Workload::training(4, 128).with_micro_batches(8);
        assert!(w.validate().is_err());
    }

    #[test]
    fn micro_batch_size_divides_global() {
        let w = Workload::training(128, 2048); // 8 micro-batches
        assert_eq!(w.micro_batch_size(), 16);
        assert_eq!(w.tokens_per_step(), 128 * 2048);
    }

    #[test]
    fn param_state_is_12_bytes_each() {
        let m = ModelZoo::gpt3_6_7b();
        let w = Workload::training(128, 2048);
        let total = w.param_state_bytes(&m);
        let expected = m.total_params() as f64 * 12.0;
        assert!((total - expected).abs() < 1.0);
        // GPT-3 6.7B: ~80 GB of parameter states before sharding.
        assert!(total > 70.0 * GB && total < 90.0 * GB, "{total}");
    }

    #[test]
    fn recompute_modes_order_memory() {
        let m = ModelZoo::gpt3_175b();
        let base = Workload::training(128, 2048);
        let none = base.clone().with_recompute(RecomputeMode::None);
        let none_std = Workload {
            flash_attention: false,
            ..none.clone()
        };
        let sel = base.clone().with_recompute(RecomputeMode::Selective);
        let full = base.with_recompute(RecomputeMode::Full);
        let a_none_std = none_std.activation_bytes_per_layer(&m);
        let a_none = none.activation_bytes_per_layer(&m);
        let a_sel = sel.activation_bytes_per_layer(&m);
        let a_full = full.activation_bytes_per_layer(&m);
        assert!(a_none_std > a_none, "score tensor dominates without flash");
        assert!(a_none >= a_sel);
        assert!(a_sel > a_full);
    }

    #[test]
    fn activation_bytes_scale_with_batch_and_seq() {
        let m = ModelZoo::gpt3_6_7b();
        let w = Workload::training(128, 2048);
        let a1 = w.activation_bytes_per_layer_with(&m, 16, 2048);
        let a2 = w.activation_bytes_per_layer_with(&m, 32, 2048);
        let a3 = w.activation_bytes_per_layer_with(&m, 16, 4096);
        assert!((a2 / a1 - 2.0).abs() < 1e-9);
        assert!((a3 / a1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn step_flops_approximates_six_params_tokens() {
        let m = ModelZoo::gpt3_175b();
        let w = Workload::training(128, 2048);
        let f = w.step_flops(&m);
        let floor = 6.0 * m.total_params() as f64 * w.tokens_per_step() as f64;
        assert!(f > floor);
        assert!(
            f < 1.3 * floor,
            "attention term should be a modest addition"
        );
    }
}
