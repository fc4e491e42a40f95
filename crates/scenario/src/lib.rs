//! Declarative scenarios: the whole serving surface as one JSON spec.
//!
//! Every axis the workspace exposes — scheduler, router, scale policy,
//! execution strategy, workload, model, hardware, engine knobs, topology
//! — has a spec type here, composed into one [`ScenarioSpec`] with a
//! single entry point:
//!
//! ```
//! use tokenflow_scenario::parse_scenario;
//!
//! let spec = parse_scenario(r#"{
//!     "name": "demo",
//!     "scheduler": {"type": "tokenflow"},
//!     "workload": {"type": "synthetic",
//!                  "arrivals": {"type": "burst", "size": 4, "at_secs": 0},
//!                  "prompt": {"type": "fixed", "tokens": 64},
//!                  "output": {"type": "fixed", "tokens": 32},
//!                  "rate": {"type": "fixed", "rate": 15.0},
//!                  "seed": 7}
//! }"#).unwrap();
//! let outcome = spec.build().unwrap().run();
//! assert!(outcome.complete);
//! assert_eq!(outcome.report.completed, 4);
//! ```
//!
//! This is the **canonical construction path**: [`ScenarioSpec::build`]
//! assembles exactly the stack a hand-written `main` would (same
//! constructors, same defaults, same order), so a spec-built run's
//! report digest is byte-identical to the hand-built equivalent — the
//! `equivalence` test suite pins that for every shipped scheduler ×
//! router × scale-policy combination, and the committed `scenarios/`
//! files are each covered by CI. The `tokenflow` CLI (`tokenflow run`,
//! `tokenflow sweep`, `tokenflow list-policies`) makes the whole system
//! drivable from a JSON file without writing Rust.
//!
//! * [`spec`] — the spec types and their defaults.
//! * [`codec`] — JSON ⇄ spec with typed errors ([`SpecError`]), derived
//!   from one field walk per spec type: unknown names list the valid
//!   ones, unknown fields are typo-guarded, and any spec that parses
//!   builds and runs without panicking.
//! * [`build`] — spec → [`Harness`] → [`RunOutcome`] (report + digest).
//! * [`sweep`] — cartesian grids over spec fields ([`SweepSpec`]):
//!   `{scheduler: [...], workload: [...]}` is the paper's evaluation
//!   grid as data.
//! * [`json`] — the self-contained JSON model: a strict parser and a
//!   canonical emitter whose bytes the committed digests pin.

// audit: tier(deterministic)
#![forbid(unsafe_code)]

pub mod build;
pub mod codec;
pub mod json;
pub mod spec;
pub mod sweep;
pub mod tracefmt;

pub use build::{Harness, RunOutcome};
pub use codec::{from_json, parse_scenario, to_json, SpecError};
pub use json::Json;
pub use spec::{
    ControlSpec, EngineSpec, ExecutionSpec, InlineRequest, LengthDistSpec, RouterSpec,
    ScalePolicySpec, ScenarioSpec, SchedulerSpec, TopologySpec, Variants, WorkloadSpec,
    ARRIVAL_NAMES, EXECUTION_NAMES, HARDWARE_NAMES, LENGTH_DIST_NAMES, MODEL_NAMES, PRESET_NAMES,
    RATE_DIST_NAMES, ROUTER_NAMES, SCALE_POLICY_NAMES, SCHEDULER_NAMES, TOPOLOGY_NAMES,
    WORKLOAD_TYPE_NAMES,
};
pub use tracefmt::{
    canonical_trace_jsonl, explain, perfetto_json, request_timeline, request_timelines,
    trace_digest, trace_jsonl, validate_trace_jsonl, Phase, RequestTimeline,
};

pub use sweep::{
    is_sweep, parse_sweep, run_sweep, run_sweep_jobs, sweep_from_json, sweep_table, sweep_to_json,
    Axis, SweepCell, SweepSpec,
};
