//! Analytical iteration cost model.
//!
//! The model follows the standard roofline analysis of transformer serving:
//!
//! * **Prefill** is compute-bound: time ≈ FLOPs / (peak FLOP/s × efficiency).
//! * **Decode** is memory-bandwidth-bound: every iteration streams the full
//!   weights once plus the KV cache of every sequence in the batch.
//! * A **mixed batch** (chunked prefill + decode) is one forward pass, so its
//!   time is the max of the bytes-side and FLOPs-side estimates plus fixed
//!   and per-sequence overheads.
//!
//! This reproduces the two streaming-specific tensions §3.3 of the paper
//! calls out: large batches saturate memory bandwidth (decode slows as total
//! context grows), while small batches waste compute.

use tokenflow_sim::SimDuration;

use crate::hardware::HardwareProfile;
use crate::model::ModelProfile;

/// Empirical efficiency factors and fixed overheads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostOverheads {
    /// Fixed per-iteration overhead in microseconds (kernel launches,
    /// scheduler bookkeeping, sampler).
    pub base_iter_us: u64,
    /// Additional overhead per sequence in the batch, in microseconds
    /// (paged-attention bookkeeping, sampling, detokenisation).
    pub per_seq_us: f64,
    /// Fraction of peak FLOP/s achieved by prefill kernels.
    pub prefill_efficiency: f64,
    /// Fraction of peak memory bandwidth achieved by decode kernels.
    pub decode_bw_efficiency: f64,
    /// Bytes reserved for activations and CUDA-graph scratch, subtracted from
    /// the KV budget.
    pub activation_reserve_bytes: u64,
}

impl Default for CostOverheads {
    fn default() -> Self {
        CostOverheads {
            base_iter_us: 250,
            per_seq_us: 8.0,
            prefill_efficiency: 0.55,
            decode_bw_efficiency: 0.75,
            activation_reserve_bytes: 2 << 30,
        }
    }
}

/// The composition of one engine iteration (one forward pass).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterationSpec {
    /// New prompt tokens processed this iteration (across all prefill
    /// sequences; chunked prefill caps this).
    pub prefill_tokens: u64,
    /// Context already cached for the prefilling sequences (affects
    /// attention cost only).
    pub prefill_past_tokens: u64,
    /// Number of prefill sequences in the batch.
    pub prefill_seqs: u32,
    /// Number of decoding sequences (each generates one token).
    pub decode_batch: u32,
    /// Total context length across all decoding sequences.
    pub decode_context: u64,
}

impl IterationSpec {
    /// True when the iteration performs no work.
    pub fn is_empty(&self) -> bool {
        self.prefill_tokens == 0 && self.decode_batch == 0
    }
}

/// Combines a model and a hardware profile into iteration latencies.
///
/// # Examples
///
/// ```
/// use tokenflow_model::{CostModel, HardwareProfile, ModelProfile};
///
/// let cost = CostModel::new(ModelProfile::llama3_8b(), HardwareProfile::h200());
/// // Single-stream decode on an H200 lands in the hundreds of tokens/sec.
/// let rate = cost.peak_decode_rate();
/// assert!(rate > 100.0 && rate < 500.0, "rate {rate}");
/// ```
#[derive(Debug, Clone)]
pub struct CostModel {
    model: ModelProfile,
    hardware: HardwareProfile,
    overheads: CostOverheads,
}

impl CostModel {
    /// Creates a cost model with default overheads.
    pub fn new(model: ModelProfile, hardware: HardwareProfile) -> Self {
        CostModel {
            model,
            hardware,
            overheads: CostOverheads::default(),
        }
    }

    /// The model profile in use.
    pub fn model(&self) -> &ModelProfile {
        &self.model
    }

    /// The hardware profile in use.
    pub fn hardware(&self) -> &HardwareProfile {
        &self.hardware
    }

    /// The overhead parameters in use.
    pub fn overheads(&self) -> &CostOverheads {
        &self.overheads
    }

    /// Effective device memory bandwidth in bytes/second.
    fn eff_bw(&self) -> f64 {
        self.hardware.mem_bw * self.overheads.decode_bw_efficiency
    }

    /// Effective compute throughput in FLOP/s.
    fn eff_flops(&self) -> f64 {
        self.hardware.flops * self.overheads.prefill_efficiency
    }

    /// Latency of one engine iteration described by `spec`.
    pub fn iteration_time(&self, spec: &IterationSpec) -> SimDuration {
        if spec.is_empty() {
            return SimDuration::ZERO;
        }
        // Bytes side: the full weights stream once per forward pass, plus the
        // KV cache of every decoding sequence.
        let bytes = self.model.weight_bytes() as f64
            + spec.decode_context as f64 * self.model.kv_bytes_per_token() as f64;
        let bytes_time = bytes / self.eff_bw();

        // FLOPs side: linear layers for every processed token plus attention.
        let tokens = spec.prefill_tokens + spec.decode_batch as u64;
        let mut flops = tokens as f64 * self.model.flops_per_token();
        // Prefill attention: token k of the chunk attends over past + k
        // context; averaging gives past + n/2.
        if spec.prefill_tokens > 0 {
            let avg_ctx = spec.prefill_past_tokens + spec.prefill_tokens / 2;
            flops += spec.prefill_tokens as f64 * self.model.attn_flops(avg_ctx);
        }
        flops += self.model.attn_flops(spec.decode_context);
        let flops_time = flops / self.eff_flops();

        let seqs = spec.prefill_seqs as f64 + spec.decode_batch as f64;
        let overhead_us = self.overheads.base_iter_us as f64 + seqs * self.overheads.per_seq_us;

        SimDuration::from_secs_f64(bytes_time.max(flops_time) + overhead_us * 1e-6)
    }

    /// Latency of prefilling `new_tokens` with `past` tokens already cached,
    /// as a dedicated (non-mixed) iteration.
    pub fn prefill_time(&self, new_tokens: u64, past: u64) -> SimDuration {
        self.iteration_time(&IterationSpec {
            prefill_tokens: new_tokens,
            prefill_past_tokens: past,
            prefill_seqs: 1,
            decode_batch: 0,
            decode_context: 0,
        })
    }

    /// Latency of a pure decode iteration for `batch` sequences holding
    /// `context_total` cached tokens between them.
    pub fn decode_time(&self, batch: u32, context_total: u64) -> SimDuration {
        self.iteration_time(&IterationSpec {
            prefill_tokens: 0,
            prefill_past_tokens: 0,
            prefill_seqs: 0,
            decode_batch: batch,
            decode_context: context_total,
        })
    }

    /// Single-stream decode rate in tokens/second (batch of one, short
    /// context).
    pub fn peak_decode_rate(&self) -> f64 {
        1.0 / self.decode_time(1, 128).as_secs_f64()
    }

    /// Number of KV-cache tokens that fit on the device when the engine is
    /// allowed `mem_frac` of total VRAM (the SGLang `mem-frac` knob).
    ///
    /// Returns zero when the weights alone exceed the budget.
    pub fn kv_token_capacity(&self, mem_frac: f64) -> u64 {
        let usable = (self.hardware.vram_bytes as f64 * mem_frac) as u64;
        let budget = usable
            .saturating_sub(self.model.weight_bytes())
            .saturating_sub(self.overheads.activation_reserve_bytes);
        budget / self.model.kv_bytes_per_token()
    }

    /// Aggregate decode throughput (tokens/second) for a batch of `batch`
    /// sequences averaging `avg_context` cached tokens each.
    pub fn batch_throughput(&self, batch: u32, avg_context: u64) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        let t = self.decode_time(batch, batch as u64 * avg_context);
        batch as f64 / t.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h200_llama() -> CostModel {
        CostModel::new(ModelProfile::llama3_8b(), HardwareProfile::h200())
    }

    fn rtx_llama() -> CostModel {
        CostModel::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090())
    }

    #[test]
    fn empty_iteration_is_free() {
        assert_eq!(
            h200_llama().iteration_time(&IterationSpec::default()),
            SimDuration::ZERO
        );
    }

    #[test]
    fn decode_slower_on_weaker_hardware() {
        let h = h200_llama().decode_time(1, 512);
        let r = rtx_llama().decode_time(1, 512);
        assert!(r > h, "4090 {r} should be slower than H200 {h}");
    }

    #[test]
    fn decode_time_grows_with_context() {
        let c = h200_llama();
        let short = c.decode_time(64, 64 * 128);
        let long = c.decode_time(64, 64 * 4096);
        assert!(long > short);
    }

    #[test]
    fn decode_time_grows_with_batch() {
        let c = h200_llama();
        assert!(c.decode_time(256, 256 * 1024) > c.decode_time(8, 8 * 1024));
    }

    #[test]
    fn batching_improves_aggregate_throughput() {
        let c = h200_llama();
        let single = c.batch_throughput(1, 1024);
        let batched = c.batch_throughput(64, 1024);
        assert!(
            batched > 10.0 * single,
            "batched {batched} vs single {single}"
        );
    }

    #[test]
    fn large_batches_hit_diminishing_returns() {
        // The marginal throughput of going 128 -> 256 must be much less than
        // 1 -> 2: memory bandwidth saturates (§3.3 batch-vs-decode-speed).
        let c = h200_llama();
        let gain_small = c.batch_throughput(2, 2048) - c.batch_throughput(1, 2048);
        let gain_large = (c.batch_throughput(256, 2048) - c.batch_throughput(128, 2048)) / 128.0;
        assert!(gain_large < gain_small * 0.6);
    }

    #[test]
    fn prefill_scales_roughly_linearly() {
        let c = rtx_llama();
        let t512 = c.prefill_time(512, 0).as_secs_f64();
        let t2048 = c.prefill_time(2048, 0).as_secs_f64();
        let ratio = t2048 / t512;
        assert!((3.0..6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn peak_decode_rates_are_plausible() {
        // Published single-stream decode rates: H200 ≈ 150–300 tok/s,
        // RTX 4090 ≈ 40–80 tok/s for an 8B model in fp16.
        let h = h200_llama().peak_decode_rate();
        let r = rtx_llama().peak_decode_rate();
        assert!((100.0..400.0).contains(&h), "H200 {h}");
        assert!((30.0..90.0).contains(&r), "4090 {r}");
    }

    #[test]
    fn per_request_rate_drops_under_heavy_batching() {
        // Figure 2 (right): under load per-request speed falls but stays
        // well above reading speed.
        let c = h200_llama();
        let t = c.decode_time(256, 256 * 2000).as_secs_f64();
        let per_request = 1.0 / t;
        assert!(per_request < c.peak_decode_rate() / 2.0);
        assert!(
            per_request > 12.0,
            "still above reading speed: {per_request}"
        );
    }

    #[test]
    fn kv_capacity_reflects_mem_frac() {
        let c = h200_llama();
        let small = c.kv_token_capacity(0.3);
        let large = c.kv_token_capacity(0.9);
        assert!(large > 2 * small);
        assert!(small > 50_000, "H200 at 0.3 still holds plenty: {small}");
    }

    #[test]
    fn kv_capacity_zero_when_weights_do_not_fit() {
        let c = CostModel::new(ModelProfile::qwen2_5_32b(), HardwareProfile::rtx4090());
        // 65 GB of weights cannot fit a 24 GB card.
        assert_eq!(c.kv_token_capacity(1.0), 0);
    }

    #[test]
    fn qwen32b_slower_than_llama8b() {
        let big = CostModel::new(ModelProfile::qwen2_5_32b(), HardwareProfile::h200());
        let small = h200_llama();
        assert!(big.peak_decode_rate() < small.peak_decode_rate() / 2.0);
    }

    #[test]
    fn mixed_batch_costs_more_than_decode_alone() {
        let c = h200_llama();
        let decode_only = c.decode_time(32, 32 * 1024);
        let mixed = c.iteration_time(&IterationSpec {
            prefill_tokens: 1024,
            prefill_past_tokens: 0,
            prefill_seqs: 1,
            decode_batch: 32,
            decode_context: 32 * 1024,
        });
        assert!(mixed > decode_only);
    }
}
