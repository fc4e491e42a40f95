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

/// Engine-internal lifecycle phase of a live request (a finished one
/// keeps no state, so it has no phase).
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
}

impl Phase {
    /// The scheduler-facing phase.
    pub(crate) fn sched_phase(self) -> ReqPhase {
        match self {
            Phase::WaitingNew => ReqPhase::WaitingNew,
            Phase::Prefilling | Phase::Evicting | Phase::Loading => ReqPhase::Transitioning,
            Phase::Running => ReqPhase::Running,
            Phase::OnCpu => ReqPhase::WaitingCpu,
        }
    }

    /// Whether a [`ReqPhase::Transitioning`] request is headed into the
    /// decode batch (prefilling or loading) — a view's `inbound` flag.
    pub(crate) fn inbound(self) -> bool {
        matches!(self, Phase::Prefilling | Phase::Loading)
    }
}

/// A submitted request waiting for its arrival: all the engine keeps of
/// it until ingest builds its [`ReqState`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    pub spec: RequestSpec,
    pub kind: ClientKind,
}

/// Everything the pipeline tracks for one live request, each fact once:
/// the spec holds id, arrival, rate and lengths; the buffer holds the
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
    /// The state of a request that has just arrived: waiting, nothing
    /// generated. `timeline` asks for a per-token delivery timeline.
    pub(crate) fn new(Pending { spec, kind }: Pending, timeline: bool) -> Self {
        ReqState {
            buffer: TokenBuffer::new(spec.rate),
            kind,
            phase: Phase::WaitingNew,
            prefill_done: 0,
            prefill_target: 0,
            finished_at: None,
            effective_tokens: 0.0,
            qos_weight_sum: 0.0,
            preemptions: 0,
            recomputes: 0,
            // One timeline point per output token: the exact final length
            // is known here, so reserve it once.
            timeline: timeline.then(|| TokenTimeline::with_capacity(spec.id, spec.output_tokens)),
            spec,
        }
    }

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

    /// The request's record, derived once: when it finishes, or at the
    /// end of a run that stopped at `run_end`. A finished request's
    /// reader is measured to when it consumes the last token (it does not
    /// stall on tokens that will never come), which depends on nothing
    /// after the finish, so deriving it at the finish gives the run-end
    /// record; an unfinished one is measured to `run_end`, open stall and
    /// all.
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

/// Slot-index value of a request without a live state: pending or
/// finished.
const NO_SLOT: u32 = u32::MAX;

/// The request table plus the queues the stages rotate requests through.
///
/// A request's state lives only while the request does. Submitted, it
/// waits in `arrivals` as its spec; ingest builds its [`ReqState`] in a
/// slot of `live`; its finish derives its record and frees the slot for
/// the next arrival. Ids index only `slot_of`, 4 bytes per submitted
/// request. Slots decide no order: everything that orders requests
/// (`running`, the prefill queue, the context, the outcome) goes by id
/// or FIFO.
#[derive(Debug, Default)]
pub(crate) struct EngineState {
    /// `slot_of[id]` is the `live` slot of an ingested, unfinished
    /// request, or `NO_SLOT`. Its length is the submitted count.
    slot_of: Vec<u32>,
    /// Live requests' states (`None` = a free slot): as long as the most
    /// requests ever live at once.
    live: Vec<Option<ReqState>>,
    /// Free slots of `live`, the last freed reused first.
    free: Vec<u32>,
    /// Records of finished requests, in finish order.
    records: Vec<RequestMetrics>,
    /// Delivery timelines of finished requests, in finish order.
    timelines: Vec<TokenTimeline>,
    /// Submitted requests not ingested yet, in arrival order with ties in
    /// submission order. Arrival ingest pops the due front; everything
    /// ingested has left, so the length is the un-ingested population
    /// and a binary search answers "how many due arrivals are still
    /// un-ingested at time t" — telemetry samples instants *inside* an
    /// iteration, after ingestion ran at the iteration's start, and those
    /// requests are queued at the sample instant even though they are
    /// not in the live index yet.
    pub arrivals: VecDeque<Pending>,
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

    /// The `live` slot of `id`, if it is live (ingested, unfinished).
    /// Hot loops resolve a request's slot once and then use
    /// [`EngineState::at_mut`].
    pub(crate) fn slot(&self, id: RequestId) -> Option<usize> {
        let slot = *self.slot_of.get(id.0 as usize)?;
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// The state in a live slot, mutably.
    pub(crate) fn at_mut(&mut self, slot: usize) -> Option<&mut ReqState> {
        self.live.get_mut(slot).and_then(Option::as_mut)
    }

    /// `id`'s state, if it is live.
    pub(crate) fn get(&self, id: RequestId) -> Option<&ReqState> {
        self.live.get(self.slot(id)?)?.as_ref()
    }

    /// `id`'s state, mutably, if it is live.
    pub(crate) fn get_mut(&mut self, id: RequestId) -> Option<&mut ReqState> {
        let slot = self.slot(id)?;
        self.at_mut(slot)
    }

    /// `id`'s phase: `None` when it is pending or finished.
    pub(crate) fn phase(&self, id: RequestId) -> Option<Phase> {
        self.get(id).map(|s| s.phase)
    }

    /// Calls `f` with each decode-batch member's index in `running` and
    /// its state, resolving each member's slot once, in id order.
    pub(crate) fn for_each_running(&mut self, mut f: impl FnMut(usize, &mut ReqState)) {
        for (i, &id) in self.running.iter().enumerate() {
            let Some(slot) = self.slot(id) else {
                continue;
            };
            if let Some(s) = self.live.get_mut(slot).and_then(Option::as_mut) {
                f(i, s);
            }
        }
    }

    /// Every live request's state, in slot order (no order that reaches a
    /// result may come from it).
    pub(crate) fn live_states(&self) -> impl Iterator<Item = &ReqState> {
        self.live.iter().flatten()
    }

    /// Live requests: states held now.
    pub(crate) fn live_count(&self) -> usize {
        self.live.len() - self.free.len()
    }

    /// Requests submitted so far.
    pub(crate) fn submitted(&self) -> usize {
        self.slot_of.len()
    }

    /// Submits a request: assigns it the next dense id, adds its rate to
    /// [`EngineState::active_rate_sum`], and queues it for ingest after
    /// every pending entry arriving at or before it (submissions almost
    /// always come arrival-sorted, so the common case is a push; a fault
    /// retry keeps its original, past arrival and is inserted).
    pub(crate) fn submit(&mut self, mut spec: RequestSpec, kind: ClientKind) -> RequestId {
        let id = RequestId(self.slot_of.len() as u64);
        spec.id = id;
        self.slot_of.push(NO_SLOT);
        self.active_rate_sum += spec.rate;
        let at = spec.arrival;
        let pending = Pending { spec, kind };
        match self.arrivals.back() {
            Some(last) if last.spec.arrival > at => {
                let pos = self.arrivals.partition_point(|p| p.spec.arrival <= at);
                self.arrivals.insert(pos, pending);
            }
            _ => self.arrivals.push_back(pending),
        }
        id
    }

    /// Gives an ingested request's state a live slot, reusing a freed one
    /// when there is one.
    pub(crate) fn insert(&mut self, state: ReqState) {
        let idx = state.spec.id.0 as usize;
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                self.live.push(None);
                self.live.len() - 1
            }
        };
        if let Some(entry) = self.live.get_mut(slot) {
            *entry = Some(state);
        }
        if let Some(entry) = self.slot_of.get_mut(idx) {
            *entry = slot as u32;
        }
    }

    /// Retires the request in `slot`, which finished at `at`: keeps its
    /// record, derived now, and its timeline, and frees the slot.
    pub(crate) fn retire(&mut self, slot: usize, at: SimTime) {
        let Some(mut state) = self.live.get_mut(slot).and_then(Option::take) else {
            return;
        };
        if let Some(entry) = self.slot_of.get_mut(state.spec.id.0 as usize) {
            *entry = NO_SLOT;
        }
        self.free.push(slot as u32);
        self.records.push(state.record(at));
        self.timelines.extend(state.timeline.take());
    }

    /// Every request's record and delivery timeline, in id order: a
    /// finished request's as derived at its finish, a live or pending
    /// one's derived now, at `run_end` (a pending request below
    /// `timeline_requests` gets an empty timeline).
    pub(crate) fn into_records(
        self,
        run_end: SimTime,
        timeline_requests: usize,
    ) -> (Vec<RequestMetrics>, Vec<TokenTimeline>) {
        let unfinished = self.live_count() + self.arrivals.len();
        let EngineState {
            live,
            arrivals,
            mut records,
            mut timelines,
            ..
        } = self;
        records.reserve_exact(unfinished);
        for mut s in live.into_iter().flatten() {
            timelines.extend(s.timeline.take());
            records.push(s.record(run_end));
        }
        for pending in arrivals {
            let id = pending.spec.id;
            if id.0 < timeline_requests as u64 {
                timelines.push(TokenTimeline::new(id));
            }
            records.push(ReqState::new(pending, false).record(run_end));
        }
        records.sort_unstable_by_key(|r| r.id);
        timelines.sort_unstable_by_key(|t| t.id);
        (records, timelines)
    }

    /// Due-but-uningested arrivals at `t`: submitted requests whose
    /// arrival has passed `t` but which the admission stage has not
    /// ingested yet (ingestion runs at iteration starts; `t` may lie
    /// inside an iteration).
    pub(crate) fn pending_due_arrivals(&self, t: SimTime) -> usize {
        self.arrivals.partition_point(|p| p.spec.arrival <= t)
    }

    /// Submitted requests the admission stage has ingested.
    pub(crate) fn ingested(&self) -> usize {
        self.submitted() - self.arrivals.len()
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
        self.finished_count == self.submitted()
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
