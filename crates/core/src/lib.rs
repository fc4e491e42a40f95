//! The TokenFlow serving engine, structured as a staged pipeline.
//!
//! [`Engine`] implements a continuous-batching iteration loop in the style
//! of SGLang's scheduler process, decomposed into four explicit,
//! separately-testable stages that [`Engine::step`] orchestrates:
//!
//! * `admission` — arrival ingest, scheduler-context construction (via
//!   [`SchedContextBuilder`](tokenflow_sched::SchedContextBuilder)), and
//!   application of the policy's plan (admissions, resumes, preemptions)
//!   through the hierarchical [`KvManager`](tokenflow_kv::KvManager);
//! * `kv_orchestrator` — translation of finished evict/load transfers
//!   into request-phase changes, plus compute-window write-through pumping;
//! * `batch` — prefill+decode batch composition under the scheduler's
//!   policy, the GPU-memory fit (emergency reclamation, shedding), and
//!   cost-model pricing via [`CostModel`](tokenflow_model::CostModel);
//! * `delivery` — token delivery into per-request client buffers,
//!   request completion, and sampled telemetry.
//!
//! Request lifecycle state shared by the stages lives in `state`; each
//! stage takes `&mut` views of it rather than owning the world. That
//! decomposition is what makes the loop reusable: the `tokenflow-cluster`
//! crate drives N replicas of this engine on one simulated timeline behind
//! a pluggable router, using [`Engine::load_snapshot`] as the routing
//! signal.
//!
//! All four evaluated systems (SGLang FCFS, SGLang chunked, Andes,
//! TokenFlow) run through this same loop; only the scheduler differs —
//! exactly the controlled comparison the paper's evaluation performs.
//!
//! Use [`run_simulation`] for one-call experiment runs, or drive an
//! [`Engine`] step by step with [`Engine::step`] for interactive use.

// audit: tier(deterministic)
#![forbid(unsafe_code)]

pub(crate) mod admission;
pub(crate) mod batch;
pub mod config;
pub(crate) mod delivery;
pub mod engine;
pub(crate) mod kv_orchestrator;
pub mod outcome;
pub mod profiler;
pub mod state;

pub use config::{EngineConfig, BLOCK_TOKENS};
pub use engine::{Completion, Engine, StepOutcome};
pub use outcome::SimOutcome;
pub use state::EngineLoad;

use tokenflow_sched::Scheduler;
use tokenflow_workload::Workload;

/// Runs a complete workload through the engine and collects every metric.
///
/// Takes any scheduler by value — a concrete policy or an already-boxed
/// `Box<dyn Scheduler>` (boxes of schedulers are schedulers).
///
/// # Examples
///
/// ```
/// use tokenflow_core::{run_simulation, EngineConfig};
/// use tokenflow_model::{HardwareProfile, ModelProfile};
/// use tokenflow_sched::FcfsScheduler;
/// use tokenflow_sim::{RequestId, SimTime};
/// use tokenflow_workload::{RequestSpec, Workload};
///
/// let workload = Workload::new(vec![RequestSpec {
///     id: RequestId(0),
///     arrival: SimTime::ZERO,
///     prompt_tokens: 128,
///     output_tokens: 64,
///     rate: 20.0,
/// }]);
/// let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200());
/// let outcome = run_simulation(config, FcfsScheduler::new(), &workload);
/// assert_eq!(outcome.report.completed, 1);
/// ```
pub fn run_simulation(
    config: EngineConfig,
    scheduler: impl Scheduler + 'static,
    workload: &Workload,
) -> SimOutcome {
    run_simulation_boxed(config, Box::new(scheduler), workload)
}

/// [`run_simulation`] for callers that already hold a boxed scheduler
/// (factories, registries): skips the re-box and its extra dispatch hop.
pub fn run_simulation_boxed(
    config: EngineConfig,
    scheduler: Box<dyn Scheduler>,
    workload: &Workload,
) -> SimOutcome {
    let mut engine = Engine::from_boxed(config, scheduler);
    for spec in workload.iter() {
        engine.submit(*spec);
    }
    engine.run_to_completion();
    engine.into_outcome()
}
