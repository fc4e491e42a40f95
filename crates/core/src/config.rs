//! Engine configuration.

use tokenflow_metrics::QosParams;
use tokenflow_model::{CostModel, HardwareProfile, ModelProfile};
use tokenflow_sim::SimDuration;

/// Tokens per KV block (the paged-attention page size) in every engine.
pub const BLOCK_TOKENS: u64 = 16;

/// Complete configuration of a serving engine instance.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Model being served.
    pub model: ModelProfile,
    /// Accelerator profile.
    pub hardware: HardwareProfile,
    /// Fraction of device memory the engine may use (SGLang `mem-frac`).
    pub mem_frac: f64,
    /// Enable write-through background sync (§5.1).
    pub write_through: bool,
    /// Enable KV offload entirely; `false` is the w/o-offload ablation.
    pub offload_enabled: bool,
    /// Enable load-evict overlap (§5.3).
    pub load_evict_overlap: bool,
    /// Hard cap on concurrently decoding requests.
    pub max_batch: u32,
    /// Prompt-token budget of one dedicated prefill iteration.
    pub max_prefill_tokens: u64,
    /// QoS metric parameters.
    pub qos: QosParams,
    /// Time-series sampling interval.
    pub sample_interval: SimDuration,
    /// Record full token timelines for the first N requests (0 disables).
    pub timeline_requests: usize,
    /// Simulation safety deadline: runs longer than this are cut off and
    /// reported incomplete.
    pub deadline: SimDuration,
    /// Iteration-count safety cap for
    /// [`Engine::run_to_completion`](crate::Engine::run_to_completion): a
    /// backstop against non-terminating configurations (e.g. a required
    /// rate no hardware satisfies).
    pub max_iterations: u64,
    /// Honor scheduler plan horizons: replay the composed batch across
    /// certified-quiescent decode steps instead of re-running admission,
    /// planning, and composition. `false` forces the full pipeline every
    /// step (the differential-testing and debugging path); results are
    /// byte-identical either way.
    pub plan_horizon: bool,
    /// Record the decision-event trace journal. Off (the default) the
    /// trace sink is a no-op and the hot path stays allocation-free;
    /// results are byte-identical either way.
    pub trace: bool,
}

impl EngineConfig {
    /// A configuration with the paper's defaults for the given model and
    /// hardware.
    pub fn new(model: ModelProfile, hardware: HardwareProfile) -> Self {
        EngineConfig {
            model,
            hardware,
            mem_frac: 0.9,
            write_through: true,
            offload_enabled: true,
            load_evict_overlap: true,
            max_batch: 256,
            max_prefill_tokens: 8_192,
            qos: QosParams::default(),
            sample_interval: SimDuration::from_millis(1_000),
            timeline_requests: 0,
            deadline: SimDuration::from_secs(4 * 3_600),
            max_iterations: 50_000_000,
            plan_horizon: true,
            trace: false,
        }
    }

    /// Enables or disables the plan-horizon fast path.
    pub fn with_plan_horizon(mut self, enabled: bool) -> Self {
        self.plan_horizon = enabled;
        self
    }

    /// Sets the memory fraction (SGLang `mem-frac`).
    pub fn with_mem_frac(mut self, f: f64) -> Self {
        self.mem_frac = f;
        self
    }

    /// Caps the running batch size.
    pub fn with_max_batch(mut self, b: u32) -> Self {
        self.max_batch = b;
        self
    }

    /// Enables token-timeline recording for the first `n` requests.
    pub fn with_timelines(mut self, n: usize) -> Self {
        self.timeline_requests = n;
        self
    }

    /// Configures the memory-hierarchy feature flags (for the Table 2
    /// ablations).
    pub fn with_kv_features(mut self, offload: bool, write_through: bool, overlap: bool) -> Self {
        self.offload_enabled = offload;
        self.write_through = write_through && offload;
        self.load_evict_overlap = overlap;
        self
    }

    /// Builds the cost model for this configuration, with the default
    /// overheads.
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(self.model.clone(), self.hardware.clone())
    }

    /// GPU KV capacity in tokens under this configuration.
    pub fn gpu_kv_tokens(&self) -> u64 {
        self.cost_model().kv_token_capacity(self.mem_frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200());
        assert!(c.gpu_kv_tokens() > 100_000);
        assert!(c.write_through && c.offload_enabled && c.load_evict_overlap);
    }

    #[test]
    fn mem_frac_shrinks_capacity() {
        let full = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200());
        let third = full.clone().with_mem_frac(0.3);
        assert!(third.gpu_kv_tokens() < full.gpu_kv_tokens() / 2);
    }

    #[test]
    fn kv_feature_flags_compose() {
        let c = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090())
            .with_kv_features(false, true, true);
        // Write-through is meaningless without offload.
        assert!(!c.offload_enabled);
        assert!(!c.write_through);
    }
}
