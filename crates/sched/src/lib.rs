//! Scheduling policies for LLM text streaming (paper §4).
//!
//! Four schedulers share one engine-facing interface ([`Scheduler`]):
//!
//! * [`FcfsScheduler`] — SGLang's conservative first-come-first-served,
//!   prefill-prioritised policy with reactive recompute-on-OOM
//!   preemption. The paper's primary baseline.
//! * [`ChunkedPrefillScheduler`] — SGLang with chunked prefill mixed into
//!   decode iterations.
//! * [`AndesScheduler`] — a QoE-aware preemptive scheduler in the style
//!   of Andes: urgency-ranked slot allocation with recompute-based
//!   preemption and no memory-manager co-design.
//! * [`TokenFlowScheduler`] — the paper's buffer-aware two-step
//!   scheduler: working-set determination (Eq. 4–5),
//!   admission guarded by victim buffer headroom, buffer balancing through
//!   the utility function (Eq. 3) with greedy selection plus adjacent-swap
//!   local search, recompute-vs-reload balancing (§4.2.3), and the
//!   `Σ rᵢ ≤ Γ` schedulability fallback to FCFS (§4.3).
//!
//! The interface is *plan-based*: each engine iteration the scheduler
//! receives a read-only [`SchedContext`] snapshot (request phases, buffer
//! occupancy, memory and I/O state, profiled rates) and returns a
//! [`SchedPlan`] of admissions, resumes, and preemptions, which the engine
//! applies through the KV manager.
//!
//! [`Scheduler`] requires `Send` (policies are plain owned data), so an
//! engine and its boxed policy can move to a worker thread — the cluster
//! crate's parallel epoch executor advances whole replicas on
//! `std::thread::scope` workers between arrival barriers.

// audit: tier(deterministic)
#![forbid(unsafe_code)]

pub mod andes;
pub mod api;
pub mod chunked;
pub mod fcfs;
pub mod tokenflow;
pub mod util;

pub use andes::AndesScheduler;
pub use api::{
    Action, PlanHorizon, PlanNote, PreemptMode, PrefillPolicy, ReqPhase, ReqView, SchedContext,
    SchedContextBuilder, SchedPlan, Scheduler,
};
pub use chunked::ChunkedPrefillScheduler;
pub use fcfs::FcfsScheduler;
pub use tokenflow::{TokenFlowParams, TokenFlowScheduler};
