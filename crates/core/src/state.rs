//! Shared request state threaded through the pipeline stages.
//!
//! Every stage of the serving pipeline (`admission`, `kv_orchestrator`,
//! `batch`, `delivery`) operates on `&mut` views of the state defined
//! here rather than owning the world — that is what makes the stages
//! separately testable and reusable (the cluster crate drives many
//! engines whose stages all share this shape).

use std::collections::VecDeque;

use tokenflow_client::TokenBuffer;
use tokenflow_metrics::{RequestMetrics, TokenTimeline};
use tokenflow_sched::ReqPhase;
use tokenflow_sim::{RequestId, SimTime};
use tokenflow_workload::{ClientKind, RequestSpec};

/// Engine-internal request lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Arrived; no KV anywhere; awaiting admission.
    WaitingNew,
    /// Admitted; prompt (or recompute context) being prefilled.
    Prefilling,
    /// In the decode batch.
    Running,
    /// Preempted; KV flushing to host.
    Evicting,
    /// Fully offloaded to host memory.
    OnCpu,
    /// KV loading back to the GPU.
    Loading,
    /// All output tokens generated.
    Finished,
}

impl Phase {
    /// The scheduler-facing phase, or `None` for finished requests.
    pub(crate) fn sched_phase(self) -> Option<ReqPhase> {
        match self {
            Phase::WaitingNew => Some(ReqPhase::WaitingNew),
            Phase::Prefilling | Phase::Evicting | Phase::Loading => Some(ReqPhase::Transitioning),
            Phase::Running => Some(ReqPhase::Running),
            Phase::OnCpu => Some(ReqPhase::WaitingCpu),
            Phase::Finished => None,
        }
    }

    /// Whether a [`ReqPhase::Transitioning`] request is headed into the
    /// decode batch (prefilling or loading) — a view's `inbound` flag.
    pub(crate) fn inbound(self) -> bool {
        matches!(self, Phase::Prefilling | Phase::Loading)
    }
}

/// Everything the pipeline tracks for one request, each fact once: the
/// spec holds id, arrival, rate and lengths; the buffer holds the
/// delivered-token count, the first-token time, rebuffering and stalls;
/// `finished_at`, the two weight sums and the two counts are the
/// same-named [`RequestMetrics`] fields, which nothing else records.
#[derive(Debug)]
pub(crate) struct ReqState {
    pub spec: RequestSpec,
    pub kind: ClientKind,
    pub buffer: TokenBuffer,
    pub phase: Phase,
    pub prefill_done: u64,
    pub prefill_target: u64,
    pub finished_at: Option<SimTime>,
    pub effective_tokens: f64,
    pub qos_weight_sum: f64,
    pub preemptions: u32,
    pub recomputes: u32,
    pub timeline: Option<TokenTimeline>,
}

impl ReqState {
    /// Output tokens generated so far: the ones delivered to the buffer.
    pub(crate) fn generated(&self) -> u64 {
        self.buffer.delivered()
    }

    /// Current context length (prompt + generated so far).
    pub(crate) fn context_tokens(&self) -> u64 {
        self.spec.prompt_tokens + self.generated()
    }

    /// Output tokens still to generate.
    pub(crate) fn remaining_tokens(&self) -> u64 {
        self.spec.output_tokens - self.generated()
    }

    /// The request's record, derived once, at the end of a run that
    /// stopped at `run_end`. A finished request's reader is measured to
    /// when it consumes the last token (it does not stall on tokens that
    /// will never come); an unfinished one to `run_end`, open stall and all.
    pub(crate) fn record(&mut self, run_end: SimTime) -> RequestMetrics {
        let horizon = match (self.finished_at, self.buffer.drain_end()) {
            (Some(_), Some(drain)) => drain,
            _ => run_end,
        };
        let snap = self.buffer.snapshot(horizon);
        RequestMetrics {
            id: self.spec.id,
            arrival: self.spec.arrival,
            rate: self.spec.rate,
            output_len: self.spec.output_tokens,
            first_token_at: self.buffer.first_token_at(),
            finished_at: self.finished_at,
            generated: snap.delivered,
            effective_tokens: self.effective_tokens,
            qos_weight_sum: self.qos_weight_sum,
            rebuffer: snap.rebuffer,
            stall_events: snap.stall_events,
            preemptions: self.preemptions,
            recomputes: self.recomputes,
        }
    }
}

/// The mutable request table plus the queues the stages rotate requests
/// through.
#[derive(Debug, Default)]
pub(crate) struct EngineState {
    /// All requests, indexed by dense `RequestId`.
    pub requests: Vec<ReqState>,
    /// Submitted requests not ingested yet, as `(arrival, id)` in
    /// arrival order with ties in submission order. Arrival ingest pops
    /// the due front; everything ingested has left, so the length is the
    /// un-ingested population and a binary search answers "how many due
    /// arrivals are still un-ingested at time t" — telemetry samples
    /// instants *inside* an iteration, after ingestion ran at the
    /// iteration's start, and those requests are queued at the sample
    /// instant even though they are not in the live index yet.
    pub arrivals: VecDeque<(SimTime, RequestId)>,
    /// Members of the decode batch, kept sorted by id.
    pub running: Vec<RequestId>,
    /// Admitted requests whose prefill is in progress, FIFO.
    pub prefill_queue: VecDeque<RequestId>,
    /// Requests that have generated all their tokens.
    pub finished_count: usize,
    /// Arrived requests currently in [`Phase::WaitingNew`], maintained
    /// incrementally by the admission and delivery stages so
    /// load snapshots stay O(1).
    pub waiting_count: usize,
    /// Sum of required streaming rates over unfinished requests
    /// (tokens/second), maintained incrementally: added at submission,
    /// removed at completion.
    pub active_rate_sum: f64,
    /// Prompt tokens queued for prefill but not yet prefilled, over
    /// arrived requests: the full recompute context of every
    /// [`Phase::WaitingNew`] request plus the unprocessed remainder of
    /// every [`Phase::Prefilling`] one. Maintained incrementally by the
    /// admission and delivery stages so load snapshots stay O(1).
    pub prefill_backlog_tokens: u64,
    /// Monotone counter of *decision* events: anything that changes a
    /// scheduler-visible request phase by an actual scheduling or
    /// delivery decision (arrival ingest, admission, preemption,
    /// resume, prefill completion, request finish) bumps it. A plan
    /// horizon certified by the scheduler is valid only while this
    /// counter matches its issue-time snapshot — the engine's fast path
    /// compares it per step and falls back to the full pipeline on any
    /// mismatch.
    ///
    /// KV transfer completions are deliberately *not* epoch events:
    /// they are the mechanical tail of a decision already counted (the
    /// preempt or resume that started the transfer), and horizon
    /// certificates are required to survive them (see
    /// `Scheduler::plan_horizon`). Like every decision event they are
    /// recorded in [`EngineState::view_journal`], which is how the fast
    /// path mirrors their phase flips into its retained context.
    pub decision_epoch: u64,
    /// Requests whose scheduler view changed since the engine's context
    /// last applied the journal: arrival ingest, admission, every
    /// preemption outcome (in-flight evict, instant offload, discard),
    /// resume, prefill completion, finish, evict done and load done each
    /// push the request once through [`EngineState::journal_view`]. The
    /// context build drains it into the one retained context (inserting,
    /// re-phasing and dropping views); inside a plan horizon, where only
    /// transfer completions can land, the fast path drains it instead.
    /// Retained across steps, so steady-state pushes never allocate.
    pub view_journal: Vec<RequestId>,
    /// Scratch for the context build: journaled requests that finished,
    /// whose views the build's refresh pass drops. Empty between builds;
    /// retained so the steady state never allocates.
    pub finished_views: Vec<RequestId>,
}

impl EngineState {
    pub(crate) fn new() -> Self {
        EngineState::default()
    }

    pub(crate) fn state(&self, id: RequestId) -> &ReqState {
        &self.requests[id.0 as usize]
    }

    pub(crate) fn state_mut(&mut self, id: RequestId) -> &mut ReqState {
        &mut self.requests[id.0 as usize]
    }

    /// Queues a submission for ingest after every pending entry arriving
    /// at or before it (submissions almost always come arrival-sorted, so
    /// the common case is a push; a fault retry keeps its original, past
    /// arrival and is inserted).
    pub(crate) fn push_arrival(&mut self, at: SimTime, id: RequestId) {
        match self.arrivals.back() {
            Some(&(last, _)) if last > at => {
                let pos = self.arrivals.partition_point(|&(a, _)| a <= at);
                self.arrivals.insert(pos, (at, id));
            }
            _ => self.arrivals.push_back((at, id)),
        }
    }

    /// Due-but-uningested arrivals at `t`: submitted requests whose
    /// arrival has passed `t` but which the admission stage has not
    /// ingested yet (ingestion runs at iteration starts; `t` may lie
    /// inside an iteration).
    pub(crate) fn pending_due_arrivals(&self, t: SimTime) -> usize {
        self.arrivals.partition_point(|&(a, _)| a <= t)
    }

    /// Submitted requests the admission stage has ingested.
    pub(crate) fn ingested(&self) -> usize {
        self.requests.len() - self.arrivals.len()
    }

    /// Journals a change to `id`'s scheduler view (see
    /// [`EngineState::view_journal`]). Arrival ingest enters a request
    /// into the context through this, so anything that puts a request
    /// in the live set, tests included, calls it.
    pub(crate) fn journal_view(&mut self, id: RequestId) {
        self.view_journal.push(id);
    }

    /// Adds a request to the decode batch, preserving the sorted order the
    /// batch-composition stage relies on for determinism.
    pub(crate) fn push_running(&mut self, id: RequestId) {
        let at = self.running.partition_point(|&r| r < id);
        self.running.insert(at, id);
    }

    /// Removes a request from the decode batch (no-op when absent).
    pub(crate) fn remove_running(&mut self, id: RequestId) {
        self.running.retain(|&r| r != id);
    }

    /// True when every submitted request has finished.
    pub(crate) fn all_finished(&self) -> bool {
        self.finished_count == self.requests.len()
    }
}

/// A point-in-time load summary of one engine, for cluster routers.
///
/// Routers see only this snapshot — never engine internals — so routing
/// policies stay decoupled from the pipeline and deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineLoad {
    /// The replica's current simulation time.
    pub now: SimTime,
    /// Requests submitted so far.
    pub submitted: usize,
    /// Requests that have not finished yet (including not-yet-arrived).
    pub live: usize,
    /// Requests the engine has ingested: submitted minus those still
    /// pending arrival. `arrived − (submitted − live)` is the *arrived
    /// live* population — the set one engine step
    /// actually iterates, and the denominator any O(live)-per-step claim
    /// is measured against.
    pub arrived: usize,
    /// Arrived requests waiting for admission with no KV anywhere.
    pub waiting: usize,
    /// Requests in the decode batch.
    pub running: usize,
    /// Requests mid-KV-transfer (evicting to host or loading back), from
    /// the KV manager's queue-depth accessors.
    pub transitioning: usize,
    /// Sum of required streaming rates over unfinished requests,
    /// tokens/second — the demand side of the `Σ rᵢ ≤ Γ` schedulability
    /// test.
    pub rate_sum: f64,
    /// Free GPU KV capacity in tokens.
    pub gpu_free_tokens: u64,
    /// Total GPU KV capacity in tokens.
    pub gpu_total_tokens: u64,
    /// Device-to-host transfer queue depth.
    pub d2h_queue_len: usize,
    /// Host-to-device transfer queue depth.
    pub h2d_queue_len: usize,
    /// Pending prefill backlog: queued prompt tokens not yet prefilled
    /// (waiting requests' full recompute contexts plus in-flight prefills'
    /// unprocessed remainders). Routers use it to see *admission
    /// pressure* — work a new request must queue behind before its own
    /// prefill — which resident-load counters miss entirely at an arrival
    /// barrier.
    pub pending_prefill_tokens: u64,
}
