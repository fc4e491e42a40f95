//! # TokenFlow
//!
//! Responsive LLM text-streaming serving under request burst via preemptive
//! scheduling — a complete Rust implementation of the EuroSys '26 paper's
//! system, with a deterministic execution substrate standing in for the
//! GPU testbed (see `DESIGN.md` for the substitution argument).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim`] — deterministic time, events, and RNG.
//! * [`model`] — model/hardware profiles and the analytical cost model.
//! * [`kv`] — the hierarchical KV-cache manager (write-through, chunked
//!   writing, load-evict overlap).
//! * [`client`] — the token-buffer consumption model and Figure 1 rates.
//! * [`workload`] — burst/Poisson/BurstGPT/industrial workload generators.
//! * [`metrics`] — QoS, effective throughput, percentiles, time series,
//!   and report merging for multi-replica runs.
//! * [`sched`] — the four scheduling policies (SGLang FCFS, SGLang
//!   chunked, Andes-style, TokenFlow) behind the plan-based [`Scheduler`]
//!   interface, plus the `SchedContextBuilder` the engine assembles
//!   contexts with.
//! * [`core`] — the serving engine as a staged pipeline (admission → KV
//!   orchestration → batch composition/pricing → delivery) orchestrated by
//!   `Engine::step`, and the [`run_simulation`] entry point.
//! * [`cluster`] — multi-replica serving: `ClusterEngine` drives N engine
//!   replicas on one simulated timeline behind a pluggable `Router`
//!   (round-robin, least-loaded, rate-aware QoS).
//! * [`control`] — the elastic control plane: `ScalePolicy`
//!   (reactive / EWMA-predictive / scripted) driving a deterministic
//!   `Provisioning → Active → Draining → Retired` replica lifecycle at
//!   arrival barriers, with replica-seconds cost accounting.
//! * [`scenario`] — the declarative layer and **canonical construction
//!   path**: every axis above as a spec type, composed into one
//!   `ScenarioSpec` that builds a single engine, a fixed cluster, or
//!   an autoscaled fleet from a JSON file, plus cartesian sweeps over
//!   spec fields. The `tokenflow` CLI (`tokenflow run`, `tokenflow
//!   sweep`, `tokenflow list-policies`) drives it without writing Rust.
//!
//! [`Scheduler`]: sched::Scheduler
//! [`run_simulation`]: core::run_simulation
//!
//! ## Quickstart
//!
//! One JSON spec describes the whole stack; `build()` assembles exactly
//! what a hand-written `main` would (the equivalence suite pins the two
//! byte-identical), and `run()` drives it to a report:
//!
//! ```
//! use tokenflow::scenario::parse_scenario;
//!
//! let spec = parse_scenario(r#"{
//!     "model": "Llama3-8B",
//!     "hardware": "H200",
//!     "scheduler": "tokenflow",
//!     "workload": {"type": "inline", "requests": [
//!         {"arrival_secs": 0, "prompt_tokens": 256, "output_tokens": 128, "rate": 15}
//!     ]},
//!     "topology": "single"
//! }"#).unwrap();
//! let outcome = spec.build().unwrap().run();
//! assert_eq!(outcome.report.completed, 1);
//! println!("TTFT: {:.3}s", outcome.report.ttft.mean);
//! ```
//!
//! The imperative APIs remain for step-level control:
//!
//! ```
//! use tokenflow::core::{run_simulation, EngineConfig};
//! use tokenflow::model::{HardwareProfile, ModelProfile};
//! use tokenflow::sched::TokenFlowScheduler;
//! use tokenflow::sim::{RequestId, SimTime};
//! use tokenflow::workload::{RequestSpec, Workload};
//!
//! let workload = Workload::new(vec![RequestSpec {
//!     id: RequestId(0),
//!     arrival: SimTime::ZERO,
//!     prompt_tokens: 256,
//!     output_tokens: 128,
//!     rate: 15.0, // the client reads at 15 tokens/second
//! }]);
//! let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200());
//! let outcome = run_simulation(config, TokenFlowScheduler::new(), &workload);
//! assert_eq!(outcome.report.completed, 1);
//! ```
//!
//! ## Scaling out
//!
//! ```
//! use tokenflow::cluster::{ClusterEngine, RateAwareRouter};
//! use tokenflow::core::EngineConfig;
//! use tokenflow::model::{HardwareProfile, ModelProfile};
//! use tokenflow::sched::TokenFlowScheduler;
//! use tokenflow::sim::{RequestId, SimTime};
//! use tokenflow::workload::{RequestSpec, Workload};
//!
//! let workload = Workload::new(
//!     (0..8)
//!         .map(|_| RequestSpec {
//!             id: RequestId(0),
//!             arrival: SimTime::ZERO,
//!             prompt_tokens: 128,
//!             output_tokens: 64,
//!             rate: 15.0,
//!         })
//!         .collect(),
//! );
//! let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200());
//! let outcome = ClusterEngine::new(config, 2, RateAwareRouter::new(), || {
//!     Box::new(TokenFlowScheduler::new())
//! })
//! .run(&workload);
//! assert_eq!(outcome.merged.completed, 8);
//! assert_eq!(outcome.replicas.len(), 2);
//! ```

// audit: tier(host)
#![forbid(unsafe_code)]

pub use tokenflow_client as client;
pub use tokenflow_cluster as cluster;
pub use tokenflow_control as control;
pub use tokenflow_core as core;
pub use tokenflow_fault as fault;
pub use tokenflow_kv as kv;
pub use tokenflow_metrics as metrics;
pub use tokenflow_model as model;
pub use tokenflow_scenario as scenario;
pub use tokenflow_sched as sched;
pub use tokenflow_sim as sim;
pub use tokenflow_workload as workload;

/// Convenience re-exports of the most common entry points.
pub mod prelude {
    pub use tokenflow_cluster::{
        ClusterEngine, ClusterOutcome, Execution, LeastLoadedRouter, RateAwareRouter,
        RoundRobinRouter, Router,
    };
    pub use tokenflow_control::{
        ControlConfig, ControlPlane, PredictivePolicy, ReactivePolicy, ReplicaPhase, ScaleDecision,
        ScalePolicy, ScriptedPolicy,
    };
    pub use tokenflow_core::{
        run_simulation, run_simulation_boxed, Engine, EngineConfig, EngineLoad, SimOutcome,
    };
    pub use tokenflow_metrics::{QosParams, RunReport};
    pub use tokenflow_model::{CostModel, HardwareProfile, ModelProfile};
    pub use tokenflow_scenario::{
        parse_scenario, parse_sweep, run_sweep, Harness, RunOutcome, ScenarioSpec, SweepSpec,
    };
    pub use tokenflow_sched::{
        AndesScheduler, ChunkedPrefillScheduler, FcfsScheduler, Scheduler, TokenFlowParams,
        TokenFlowScheduler,
    };
    pub use tokenflow_sim::{RequestId, SimDuration, SimTime};
    pub use tokenflow_workload::{ArrivalSpec, RateDist, RequestSpec, Workload};
}
