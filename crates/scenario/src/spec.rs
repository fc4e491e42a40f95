//! The declarative spec types: every axis of the serving surface as data.
//!
//! A [`ScenarioSpec`] names a model, a hardware profile, engine knobs, a
//! scheduling policy, a workload, and a topology (single engine, fixed
//! cluster, or autoscaled fleet). Each axis is a plain enum/struct with
//! the same defaults as the hand-built constructors, so an empty object
//! `{}` on any axis means "what `::new()` would give you" and a spec-built
//! stack is byte-identical to the equivalent hand-built one (the
//! `equivalence` test suite pins that per shipped combination). Where the
//! runtime already has a plain parameter type — `TokenFlowParams`,
//! `ArrivalSpec`, `RateDist`, `FaultPlan` and its parts — the spec holds
//! it directly. Each type's [`Variants`] table lists its `type` names
//! (the `*_NAMES` constants) and the default of each variant.
//!
//! Specs are parsed from and emitted to JSON by [`crate::codec`]; the
//! emitted form is canonical (every field explicit, fixed order), so
//! `parse(emit(spec)) == spec` and emission is a fixed point.

use tokenflow_fault::{CrashFault, FaultPlan, RetryPolicy, WindowFault};
use tokenflow_sched::TokenFlowParams;
use tokenflow_sim::SimDuration;
use tokenflow_workload::presets::DEFAULT_RATE;
use tokenflow_workload::{ArrivalSpec, RateDist};

/// Valid `scheduler.type` names.
pub const SCHEDULER_NAMES: &[&str] = &["fcfs", "chunked", "andes", "tokenflow"];
/// Valid `router` names.
pub const ROUTER_NAMES: &[&str] = &["round-robin", "least-loaded", "backlog-aware", "rate-aware"];
/// Valid `policy.type` names.
pub const SCALE_POLICY_NAMES: &[&str] = &["reactive", "predictive-ewma", "scripted"];
/// Valid `workload.type` names.
pub const WORKLOAD_TYPE_NAMES: &[&str] = &[
    "preset",
    "diurnal-flash-crowd",
    "synthetic",
    "trace-csv",
    "inline",
];
/// Valid Table 1 preset names (`workload.name` under `"type": "preset"`).
pub const PRESET_NAMES: &[&str] = &[
    "rtx4090-a",
    "rtx4090-b",
    "rtx4090-c",
    "rtx4090-d",
    "h200-a",
    "h200-b",
    "h200-c",
    "h200-d",
];
/// Valid `topology.type` names.
pub const TOPOLOGY_NAMES: &[&str] = &["single", "cluster", "autoscaled"];
/// Valid `execution` forms.
pub const EXECUTION_NAMES: &[&str] = &["sequential", "parallel", "auto"];
/// Valid `arrivals.type` names.
pub const ARRIVAL_NAMES: &[&str] = &["burst", "poisson", "mmpp", "diurnal"];
/// Valid length-distribution `type` names.
pub const LENGTH_DIST_NAMES: &[&str] = &[
    "fixed",
    "normal",
    "lognormal",
    "uniform",
    "sharegpt-prompt",
    "sharegpt-output",
];
/// Valid rate-distribution `type` names.
pub const RATE_DIST_NAMES: &[&str] = &["fixed", "uniform", "mix"];
/// Valid hardware profile names.
pub const HARDWARE_NAMES: &[&str] = &["RTX4090", "A6000", "H200", "Ascend910B"];
/// Valid model profile names.
pub const MODEL_NAMES: &[&str] = &["Llama3-8B", "Qwen2-7B", "Qwen2.5-7B", "Qwen2.5-32B"];

/// A spec type's variant table: its valid `type` names and the default
/// of each variant — what the codec dispatches on. A struct has no names
/// and one default.
pub trait Variants: Clone + Default {
    /// Valid `type` names of an enum; empty for a struct.
    const NAMES: &'static [&'static str] = &[];

    /// The default of the variant called `name`; `None` for a name outside
    /// [`Variants::NAMES`]. A struct keeps this: its default, for any name.
    fn variant(_name: &str) -> Option<Self> {
        Some(Self::default())
    }

    /// The variant's `type` name (empty for a struct): the entry of
    /// [`Variants::NAMES`] whose default is the same variant.
    fn type_name(&self) -> &'static str {
        let this = std::mem::discriminant(self);
        Self::NAMES
            .iter()
            .copied()
            .find(|name| Self::variant(name).is_some_and(|v| std::mem::discriminant(&v) == this))
            .unwrap_or_default()
    }
}

/// A scheduling policy plus its knobs.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerSpec {
    /// SGLang's conservative FCFS baseline. `headroom: None` keeps the
    /// conservative full-output admission reserve; `Some(n)` switches to
    /// an `n`-token headroom reserve.
    Fcfs {
        /// Optional admission headroom override, tokens.
        headroom: Option<u64>,
    },
    /// SGLang with Sarathi-style chunked prefill.
    Chunked {
        /// Prompt tokens mixed into each decode iteration.
        chunk: u64,
    },
    /// The Andes-style QoE-aware preemptive baseline.
    Andes {
        /// Full re-ranking period, milliseconds.
        interval_ms: u64,
    },
    /// The paper's buffer-aware two-step scheduler.
    TokenFlow(TokenFlowParams),
}

impl Default for SchedulerSpec {
    fn default() -> Self {
        SchedulerSpec::TokenFlow(TokenFlowParams::default())
    }
}

impl Variants for SchedulerSpec {
    const NAMES: &'static [&'static str] = SCHEDULER_NAMES;

    fn variant(name: &str) -> Option<Self> {
        Some(match name {
            "fcfs" => SchedulerSpec::Fcfs { headroom: None },
            "chunked" => SchedulerSpec::Chunked { chunk: 512 },
            "andes" => SchedulerSpec::Andes { interval_ms: 500 },
            "tokenflow" => SchedulerSpec::default(),
            _ => return None,
        })
    }
}

/// A routing policy (knob-free; canonical JSON form is the bare string).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterSpec {
    /// Cycle through active replicas.
    RoundRobin,
    /// Fewest live requests (prefill-backlog tie-break).
    #[default]
    LeastLoaded,
    /// Join-shortest-prefill-queue.
    BacklogAware,
    /// Declared-rate vs capacity scoring.
    RateAware,
}

impl Variants for RouterSpec {
    const NAMES: &'static [&'static str] = ROUTER_NAMES;

    fn variant(name: &str) -> Option<Self> {
        Some(match name {
            "round-robin" => RouterSpec::RoundRobin,
            "least-loaded" => RouterSpec::LeastLoaded,
            "backlog-aware" => RouterSpec::BacklogAware,
            "rate-aware" => RouterSpec::RateAware,
            _ => return None,
        })
    }
}

/// A fleet-sizing policy plus its knobs.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalePolicySpec {
    /// Thresholds on admission pressure (`ReactivePolicy`).
    Reactive {
        /// Rate-headroom slack (fleet sized so `Σ rᵢ ≤ n·Γ×this`).
        target_utilization: f64,
        /// TTFT budget in queued prefill tokens per replica.
        backlog_per_replica: u64,
        /// KV fill fraction the sizing allows per replica.
        kv_watermark: f64,
    },
    /// EWMA forecast of the arrival token rate (`PredictivePolicy`).
    PredictiveEwma {
        /// EWMA time constant, seconds.
        tau_secs: f64,
        /// Rate-headroom slack.
        target_utilization: f64,
        /// TTFT budget in queued prefill tokens per replica.
        backlog_per_replica: u64,
        /// KV fill fraction the sizing allows per replica.
        kv_watermark: f64,
    },
    /// A fixed fleet-size schedule (`ScriptedPolicy`).
    Scripted {
        /// `(effective_from_secs, target_fleet_size)` steps.
        steps: Vec<(f64, u64)>,
    },
}

impl Default for ScalePolicySpec {
    fn default() -> Self {
        ScalePolicySpec::Reactive {
            target_utilization: 0.60,
            backlog_per_replica: 1_024,
            kv_watermark: 0.50,
        }
    }
}

impl ScalePolicySpec {
    /// The default predictive spec (τ = 30 s).
    pub fn predictive_default() -> Self {
        ScalePolicySpec::PredictiveEwma {
            tau_secs: 30.0,
            target_utilization: 0.60,
            backlog_per_replica: 1_024,
            kv_watermark: 0.50,
        }
    }
}

impl Variants for ScalePolicySpec {
    const NAMES: &'static [&'static str] = SCALE_POLICY_NAMES;

    fn variant(name: &str) -> Option<Self> {
        Some(match name {
            "reactive" => ScalePolicySpec::default(),
            "predictive-ewma" => ScalePolicySpec::predictive_default(),
            "scripted" => ScalePolicySpec::Scripted { steps: Vec::new() },
            _ => return None,
        })
    }
}

/// Control-plane bounds and timing. `gamma: None` derives Γ from the
/// engine's own cost model (`ControlConfig::for_engine`).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlSpec {
    /// Fleet floor (≥ 1).
    pub min_replicas: u64,
    /// Fleet ceiling.
    pub max_replicas: u64,
    /// Boot delay of a provisioned replica, seconds.
    pub boot_delay_secs: f64,
    /// Scale-down cooldown, seconds.
    pub cooldown_secs: f64,
    /// Per-replica stall-free streaming capacity Γ override, tokens/s.
    pub gamma: Option<f64>,
    /// Periodic control tick interval, seconds (`None` = arrival-driven).
    pub control_tick_secs: Option<f64>,
}

impl Variants for ControlSpec {}

impl Default for ControlSpec {
    fn default() -> Self {
        ControlSpec {
            min_replicas: 1,
            max_replicas: 64,
            boot_delay_secs: 10.0,
            cooldown_secs: 5.0,
            gamma: None,
            control_tick_secs: None,
        }
    }
}

/// How cluster epochs execute. Behavior-invariant by the executor
/// equivalence contract — this only trades wall-clock for threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionSpec {
    /// Advance replicas on the coordinator thread.
    #[default]
    Sequential,
    /// Advance replicas on a persistent worker pool with this many
    /// lanes.
    Parallel(u64),
    /// Pool sized to the host's available parallelism
    /// ([`Execution::parallel_auto`](tokenflow_cluster::Execution::parallel_auto)).
    Auto,
}

impl Variants for ExecutionSpec {
    const NAMES: &'static [&'static str] = EXECUTION_NAMES;

    fn variant(name: &str) -> Option<Self> {
        Some(match name {
            "sequential" => ExecutionSpec::Sequential,
            "parallel" => ExecutionSpec::Parallel(4),
            "auto" => ExecutionSpec::Auto,
            _ => return None,
        })
    }
}

/// An engine-facing workload description.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A Table 1 controlled setup by name (see [`PRESET_NAMES`]).
    Preset {
        /// Preset name, e.g. `"rtx4090-a"`.
        name: String,
        /// Generation seed.
        seed: u64,
    },
    /// The autoscaling stress preset: diurnal base plus a flash crowd.
    DiurnalFlashCrowd {
        /// Diurnal peak arrival rate, requests/second.
        peak_rate: f64,
        /// Trace horizon, seconds.
        duration_secs: f64,
        /// Flash-crowd size, requests.
        crowd_size: u64,
        /// Flash-crowd instant, seconds.
        crowd_at_secs: f64,
        /// Streaming-rate distribution.
        rate: RateDist,
        /// Generation seed.
        seed: u64,
    },
    /// A fully synthetic workload: arrival process × length × rate dists.
    Synthetic {
        /// Arrival process.
        arrivals: ArrivalSpec,
        /// Prompt-length distribution.
        prompt: LengthDistSpec,
        /// Output-length distribution.
        output: LengthDistSpec,
        /// Streaming-rate distribution.
        rate: RateDist,
        /// Generation seed.
        seed: u64,
    },
    /// A CSV trace replay (`arrival_us,prompt_tokens,output_tokens,rate_tps`).
    TraceCsv {
        /// Path to the CSV file. Relative paths resolve against the
        /// process working directory unless rebased
        /// (see `ScenarioSpec::rebase_paths`).
        path: String,
    },
    /// Requests spelled out inline.
    Inline {
        /// The requests, in arrival order.
        requests: Vec<InlineRequest>,
    },
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec::DiurnalFlashCrowd {
            peak_rate: 1.5,
            duration_secs: 120.0,
            crowd_size: 30,
            crowd_at_secs: 30.0,
            rate: RateDist::Uniform { lo: 8.0, hi: 24.0 },
            seed: 42,
        }
    }
}

impl WorkloadSpec {
    /// Resolves a relative `trace-csv` path against `base` (the single
    /// place the resolution rule lives — scenario- and sweep-level
    /// rebasing both call this).
    pub fn rebase_paths(&mut self, base: &std::path::Path) {
        if let WorkloadSpec::TraceCsv { path } = self {
            let p = std::path::Path::new(path.as_str());
            if p.is_relative() {
                *path = base.join(p).to_string_lossy().into_owned();
            }
        }
    }
}

impl Variants for WorkloadSpec {
    const NAMES: &'static [&'static str] = WORKLOAD_TYPE_NAMES;

    fn variant(name: &str) -> Option<Self> {
        Some(match name {
            "preset" => WorkloadSpec::Preset {
                name: String::new(),
                seed: 42,
            },
            "diurnal-flash-crowd" => WorkloadSpec::default(),
            "synthetic" => WorkloadSpec::Synthetic {
                arrivals: ArrivalSpec::default(),
                prompt: LengthDistSpec::default(),
                output: LengthDistSpec::SharegptOutput,
                rate: RateDist::default(),
                seed: 42,
            },
            "trace-csv" => WorkloadSpec::TraceCsv {
                path: String::new(),
            },
            "inline" => WorkloadSpec::Inline {
                requests: Vec::new(),
            },
            _ => return None,
        })
    }
}

/// One inline request.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineRequest {
    /// Arrival time, seconds.
    pub arrival_secs: f64,
    /// Prompt length, tokens.
    pub prompt_tokens: u64,
    /// Output budget, tokens.
    pub output_tokens: u64,
    /// Required streaming rate, tokens/second.
    pub rate: f64,
}

impl Variants for InlineRequest {}

impl Default for InlineRequest {
    fn default() -> Self {
        InlineRequest {
            arrival_secs: 0.0,
            prompt_tokens: 256,
            output_tokens: 128,
            rate: DEFAULT_RATE,
        }
    }
}

impl Variants for ArrivalSpec {
    const NAMES: &'static [&'static str] = ARRIVAL_NAMES;

    fn variant(name: &str) -> Option<Self> {
        Some(match name {
            "burst" => ArrivalSpec::default(),
            "poisson" => ArrivalSpec::Poisson {
                rate: 2.0,
                duration: SimDuration::from_secs(60),
            },
            "mmpp" => ArrivalSpec::Mmpp {
                base_rate: 1.0,
                burst_rate: 20.0,
                mean_calm: SimDuration::from_secs(25),
                mean_burst: SimDuration::from_secs(6),
                duration: SimDuration::from_secs(300),
            },
            // `period` defaults to the horizon (the codec derives it).
            "diurnal" => ArrivalSpec::Diurnal {
                trough_rate: 0.5,
                peak_rate: 5.0,
                period: SimDuration::ZERO,
                duration: SimDuration::from_secs(600),
            },
            _ => return None,
        })
    }
}

/// A token-length distribution (mirrors `tokenflow_workload::LengthDist`,
/// plus the two named ShareGPT presets).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum LengthDistSpec {
    /// Every request gets exactly this many tokens.
    Fixed(u64),
    /// Normal clamped to `[min, max]`.
    Normal {
        /// Mean length.
        mean: f64,
        /// Standard deviation.
        std: f64,
        /// Lower clamp.
        min: u64,
        /// Upper clamp.
        max: u64,
    },
    /// Lognormal clamped to `[min, max]`.
    LogNormal {
        /// Target mean.
        mean: f64,
        /// Target standard deviation.
        std: f64,
        /// Lower clamp.
        min: u64,
        /// Upper clamp.
        max: u64,
    },
    /// Uniform over `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: u64,
        /// Upper bound.
        hi: u64,
    },
    /// ShareGPT-like prompt lengths.
    #[default]
    SharegptPrompt,
    /// ShareGPT-like output lengths.
    SharegptOutput,
}

impl Variants for LengthDistSpec {
    const NAMES: &'static [&'static str] = LENGTH_DIST_NAMES;

    fn variant(name: &str) -> Option<Self> {
        Some(match name {
            "fixed" => LengthDistSpec::Fixed(256),
            // `std` and `max` default to mean/4 and mean×4 (the codec derives them).
            "normal" => LengthDistSpec::Normal {
                mean: 512.0,
                std: 0.0,
                min: 16,
                max: 0,
            },
            // `std` defaults to the mean (the codec derives it).
            "lognormal" => LengthDistSpec::LogNormal {
                mean: 350.0,
                std: 0.0,
                min: 8,
                max: 8_192,
            },
            "uniform" => LengthDistSpec::Uniform { lo: 16, hi: 1_024 },
            "sharegpt-prompt" => LengthDistSpec::SharegptPrompt,
            "sharegpt-output" => LengthDistSpec::SharegptOutput,
            _ => return None,
        })
    }
}

impl Variants for RateDist {
    const NAMES: &'static [&'static str] = RATE_DIST_NAMES;

    fn variant(name: &str) -> Option<Self> {
        Some(match name {
            "fixed" => RateDist::default(),
            "uniform" => RateDist::Uniform { lo: 8.0, hi: 24.0 },
            "mix" => RateDist::Mix(Vec::new()),
            _ => return None,
        })
    }
}

/// Engine knobs (the subset of `EngineConfig` a scenario varies; defaults
/// equal `EngineConfig::new`).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    /// Hard cap on concurrently decoding requests.
    pub max_batch: u64,
    /// Fraction of device memory the engine may use.
    pub mem_frac: f64,
    /// Enable KV offload (`false` = w/o-offload ablation).
    pub offload_enabled: bool,
    /// Enable write-through background sync.
    pub write_through: bool,
    /// Enable load-evict overlap.
    pub load_evict_overlap: bool,
    /// Prompt-token budget of one dedicated prefill iteration.
    pub max_prefill_tokens: u64,
    /// Simulation safety deadline, seconds.
    pub deadline_secs: f64,
    /// Honor scheduler plan horizons (the engine's quiescent-step fast
    /// path). `false` forces the full pipeline every step; results are
    /// byte-identical either way — the knob exists for differential
    /// testing and debugging.
    pub plan_horizon: bool,
}

impl Variants for EngineSpec {}

impl Default for EngineSpec {
    fn default() -> Self {
        EngineSpec {
            max_batch: 256,
            mem_frac: 0.9,
            offload_enabled: true,
            write_through: true,
            load_evict_overlap: true,
            max_prefill_tokens: 8_192,
            deadline_secs: (4 * 3_600) as f64,
            plan_horizon: true,
        }
    }
}

/// How many engines serve, and how they are wired together.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum TopologySpec {
    /// One engine, no router.
    #[default]
    Single,
    /// A fixed cluster of `replicas` engines behind `router`.
    Cluster {
        /// Replica count (≥ 1).
        replicas: u64,
        /// Routing policy.
        router: RouterSpec,
        /// Epoch execution strategy.
        execution: ExecutionSpec,
    },
    /// An elastic fleet: `bootstrap` replicas at time zero, resized by
    /// `policy` within `control`'s bounds.
    Autoscaled {
        /// Replicas live at time zero.
        bootstrap: u64,
        /// Routing policy.
        router: RouterSpec,
        /// Fleet-sizing policy.
        policy: ScalePolicySpec,
        /// Control-plane bounds and timing.
        control: ControlSpec,
        /// Epoch execution strategy.
        execution: ExecutionSpec,
    },
}

impl Variants for TopologySpec {
    const NAMES: &'static [&'static str] = TOPOLOGY_NAMES;

    fn variant(name: &str) -> Option<Self> {
        Some(match name {
            "single" => TopologySpec::Single,
            "cluster" => TopologySpec::Cluster {
                replicas: 2,
                router: RouterSpec::default(),
                execution: ExecutionSpec::default(),
            },
            "autoscaled" => TopologySpec::Autoscaled {
                bootstrap: 1,
                router: RouterSpec::default(),
                policy: ScalePolicySpec::default(),
                control: ControlSpec::default(),
                execution: ExecutionSpec::default(),
            },
            _ => return None,
        })
    }
}

impl Variants for CrashFault {}

impl Variants for WindowFault {}

impl Variants for RetryPolicy {}

impl Variants for FaultPlan {}

/// One complete scenario: the whole serving surface as data.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (free-form; lands in reports).
    pub name: String,
    /// Model profile, by name (see [`MODEL_NAMES`]).
    pub model: String,
    /// Hardware profile, by name (see [`HARDWARE_NAMES`]).
    pub hardware: String,
    /// Engine knobs.
    pub engine: EngineSpec,
    /// Scheduling policy.
    pub scheduler: SchedulerSpec,
    /// Workload.
    pub workload: WorkloadSpec,
    /// Serving topology.
    pub topology: TopologySpec,
    /// Deterministic fault schedule (`None` = fault-free). Only cluster
    /// and autoscaled topologies accept one, and every replica index it
    /// names must lie inside the topology (`replicas` for a fixed
    /// cluster, `control.max_replicas` for an elastic fleet).
    pub fault: Option<FaultPlan>,
}

impl Variants for ScenarioSpec {}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: "unnamed".to_string(),
            model: "Llama3-8B".to_string(),
            hardware: "RTX4090".to_string(),
            engine: EngineSpec::default(),
            scheduler: SchedulerSpec::default(),
            workload: WorkloadSpec::default(),
            topology: TopologySpec::default(),
            fault: None,
        }
    }
}

impl ScenarioSpec {
    /// Rewrites relative file paths inside the spec (currently only
    /// `workload.path` of a `trace-csv` workload) to resolve against
    /// `base` — what the CLI does with the spec file's own directory, so
    /// scenarios can name traces relative to themselves.
    pub fn rebase_paths(&mut self, base: &std::path::Path) {
        self.workload.rebase_paths(base);
    }
}
