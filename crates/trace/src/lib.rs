//! Typed, sim-time-stamped decision-event journal for the serving stack.
//!
//! Every layer that makes a *decision* — the engine's admission,
//! preemption and batching stages, the KV orchestrator, the schedulers,
//! the cluster router, and the control plane — records it through a
//! [`TraceSink`] handle. The sink is a no-op by default: a disabled sink
//! is a single `Option` check, stores nothing, and never allocates, so
//! the zero-alloc steady-state contract of the engine hot path is
//! preserved byte-for-byte (see `DESIGN.md`, "Observability").
//!
//! With tracing on, the journal is *deterministic*: events are stamped
//! with simulation time (never wall clock), each emitting component owns
//! a [`TraceSource`] with a private monotone sequence number, and
//! [`TraceJournal::merge`] orders the union by `(time, source, seq)` — a
//! total order independent of executor interleaving. The same scenario
//! therefore produces the same journal under the sequential and pooled
//! cluster executors.
//!
//! Two determinism domains exist. *Meta* events (plan-horizon arm/end)
//! describe the engine's internal fast-path machinery: they are
//! executor-invariant but, by construction, differ between fast-path-on
//! and fast-path-off runs. [`TraceJournal::canonical`] filters them out,
//! leaving the decision record that is additionally invariant under the
//! fast path — that filtered view is what trace digests pin.

// audit: tier(deterministic)
#![forbid(unsafe_code)]

use tokenflow_sim::{RequestId, SimTime};

/// Who emitted an event. The variant order is the merge tie-break order
/// at equal timestamps: control-plane decisions precede the dispatches
/// they enable, which precede replica-internal events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceSource {
    /// The cluster control plane (scale decisions).
    Control,
    /// The cluster coordinator (routing dispatches).
    Coordinator,
    /// One engine replica, by stable replica index.
    Replica(u32),
}

impl TraceSource {
    /// Short stable label, used by the JSONL rendering.
    pub fn label(self) -> String {
        match self {
            TraceSource::Control => "control".to_string(),
            TraceSource::Coordinator => "coordinator".to_string(),
            TraceSource::Replica(i) => format!("replica-{i}"),
        }
    }
}

/// Why a request was preempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptCause {
    /// A scheduler plan action chose to evict it.
    Planned,
    /// The admission stage reclaimed its memory under pool pressure.
    Reclaim,
}

impl PreemptCause {
    /// Stable lowercase label.
    pub const fn label(self) -> &'static str {
        match self {
            PreemptCause::Planned => "planned",
            PreemptCause::Reclaim => "reclaim",
        }
    }
}

/// Why an armed plan horizon stopped applying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HorizonEndReason {
    /// A decision event bumped the epoch before the horizon elapsed.
    Invalidated,
    /// The certified quiet window ran out.
    Expired,
}

impl HorizonEndReason {
    /// Stable lowercase label.
    pub const fn label(self) -> &'static str {
        match self {
            HorizonEndReason::Invalidated => "invalidated",
            HorizonEndReason::Expired => "expired",
        }
    }
}

/// One decision, with its payload.
///
/// Payloads carry the *inputs* of the decision where the outcome alone
/// would not explain it: admission records the prefill backlog the
/// request queued behind, repricing records before/after priorities,
/// dispatch records the considered per-replica scores, scaling records
/// the policy's term values.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// An arrival was ingested by the admission stage.
    Arrived {
        id: RequestId,
        /// The workload-specified arrival instant (the event itself is
        /// stamped at the ingesting iteration's start, which may be
        /// later).
        arrival: SimTime,
    },
    /// The coordinator routed a request to a replica.
    Dispatch {
        id: RequestId,
        replica: u32,
        /// Per-replica scores the router considered (lower wins); empty
        /// for load-oblivious routers, whose choice is positional.
        scores: Vec<f64>,
    },
    /// Admission started a prefill (first admission or a recompute
    /// resume).
    Admitted {
        id: RequestId,
        /// True when this admission re-prefills a preempted-and-discarded
        /// context rather than a fresh prompt.
        recompute: bool,
        /// Prompt tokens of *other* requests already queued for prefill
        /// at admission time — the head-of-line work this request waits
        /// behind.
        queued_behind_tokens: u64,
    },
    /// The batch stage processed a slice of a request's prefill.
    PrefillChunk {
        id: RequestId,
        tokens: u64,
        /// True when the slice completes the prefill.
        completes: bool,
    },
    /// A request streamed its first output token.
    FirstToken { id: RequestId },
    /// A request generated all its output tokens.
    Finished { id: RequestId },
    /// A request was preempted out of the decode batch.
    Preempted {
        id: RequestId,
        /// True when its KV was discarded (recompute later); false when
        /// offloaded to host memory.
        discard: bool,
        cause: PreemptCause,
    },
    /// The batch stage shed a request because the decode batch no longer
    /// fits in memory even after write-through reclaim.
    Shed { id: RequestId },
    /// A preempted request re-entered service from host memory.
    Resumed { id: RequestId },
    /// A scheduler's decode gate paused (`paused = true`) or released a
    /// running request. Only *transitions* are recorded.
    DecodeGate { id: RequestId, paused: bool },
    /// The KV orchestrator started evicting a request's KV to host.
    EvictStart { id: RequestId, tokens: u64 },
    /// A device-to-host eviction finished; the request is fully on CPU.
    EvictDone { id: RequestId },
    /// The KV orchestrator started loading a request's KV back to GPU.
    LoadStart { id: RequestId, tokens: u64 },
    /// A host-to-device load finished; the request rejoined the batch.
    LoadDone { id: RequestId },
    /// A scheduler's full pass changed a request's priority.
    Reprice {
        id: RequestId,
        before: f64,
        after: f64,
    },
    /// A scheduler's local search swapped one request for another.
    Swap {
        evicted: RequestId,
        admitted: RequestId,
        evicted_priority: f64,
        admitted_priority: f64,
    },
    /// The control plane decided to scale (Hold decisions are not
    /// recorded).
    Scale {
        /// Signed replica delta: `+n` scale-up, `-n` scale-down.
        delta: i64,
        /// False when a cooldown gate suppressed the decision.
        applied: bool,
        /// Active replicas before the decision was applied.
        active: u64,
        /// The policy's named term values behind the decision.
        terms: Vec<(&'static str, f64)>,
    },
    /// Meta: the engine armed a plan horizon (fast-path certificate).
    HorizonArmed {
        /// `SimTime::MAX` encodes an unbounded certificate.
        valid_until: SimTime,
        gates_static: bool,
    },
    /// Meta: an armed horizon stopped applying.
    HorizonEnded { reason: HorizonEndReason },
    /// A replica fail-stopped; its resident KV and in-flight streams are
    /// gone.
    ReplicaCrashed {
        replica: u32,
        /// Unfinished requests resident at the instant of the crash.
        lost: u64,
    },
    /// A replica's compute throughput changed (straggler window edge).
    /// `factor` is the throughput multiplier now in effect (`1.0`
    /// restores full speed).
    ReplicaDegraded { replica: u32, factor: f64 },
    /// A provisioning replica failed to boot and will never serve.
    BootFailed { replica: u32 },
    /// A replica's KV transfer link changed speed (link-fault window
    /// edge). `factor` is the bandwidth multiplier now in effect.
    LinkDegraded { replica: u32, factor: f64 },
    /// A request's in-flight state was lost to a replica crash.
    RequestLost { id: RequestId, replica: u32 },
    /// The recovery path scheduled a lost request for re-dispatch.
    RetryScheduled {
        id: RequestId,
        /// 1-based recovery attempt this schedules.
        attempt: u32,
    },
    /// A lost request exhausted its retry budget and was given up on.
    RequestAbandoned { id: RequestId, attempts: u32 },
    /// Pressure-triggered admission shed a first-attempt arrival at the
    /// dispatch barrier.
    AdmissionShed { id: RequestId },
}

impl TraceEventKind {
    /// Stable kind name, shared by the JSONL rendering and its
    /// validator.
    pub const fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Arrived { .. } => "arrived",
            TraceEventKind::Dispatch { .. } => "dispatch",
            TraceEventKind::Admitted { .. } => "admitted",
            TraceEventKind::PrefillChunk { .. } => "prefill_chunk",
            TraceEventKind::FirstToken { .. } => "first_token",
            TraceEventKind::Finished { .. } => "finished",
            TraceEventKind::Preempted { .. } => "preempted",
            TraceEventKind::Shed { .. } => "shed",
            TraceEventKind::Resumed { .. } => "resumed",
            TraceEventKind::DecodeGate { .. } => "decode_gate",
            TraceEventKind::EvictStart { .. } => "evict_start",
            TraceEventKind::EvictDone { .. } => "evict_done",
            TraceEventKind::LoadStart { .. } => "load_start",
            TraceEventKind::LoadDone { .. } => "load_done",
            TraceEventKind::Reprice { .. } => "reprice",
            TraceEventKind::Swap { .. } => "swap",
            TraceEventKind::Scale { .. } => "scale",
            TraceEventKind::HorizonArmed { .. } => "horizon_armed",
            TraceEventKind::HorizonEnded { .. } => "horizon_ended",
            TraceEventKind::ReplicaCrashed { .. } => "replica_crashed",
            TraceEventKind::ReplicaDegraded { .. } => "replica_degraded",
            TraceEventKind::BootFailed { .. } => "boot_failed",
            TraceEventKind::LinkDegraded { .. } => "link_degraded",
            TraceEventKind::RequestLost { .. } => "request_lost",
            TraceEventKind::RetryScheduled { .. } => "retry_scheduled",
            TraceEventKind::RequestAbandoned { .. } => "request_abandoned",
            TraceEventKind::AdmissionShed { .. } => "admission_shed",
        }
    }

    /// True for events describing fast-path machinery rather than
    /// serving decisions. Meta events are executor-invariant but not
    /// fast-path-invariant, so [`TraceJournal::canonical`] excludes
    /// them.
    pub const fn is_meta(&self) -> bool {
        matches!(
            self,
            TraceEventKind::HorizonArmed { .. } | TraceEventKind::HorizonEnded { .. }
        )
    }

    /// The request this event is primarily about, if any. For swaps that
    /// is the evicted side; use [`TraceEventKind::mentions`] to match
    /// either side.
    pub const fn request(&self) -> Option<RequestId> {
        match *self {
            TraceEventKind::Arrived { id, .. }
            | TraceEventKind::Dispatch { id, .. }
            | TraceEventKind::Admitted { id, .. }
            | TraceEventKind::PrefillChunk { id, .. }
            | TraceEventKind::FirstToken { id }
            | TraceEventKind::Finished { id }
            | TraceEventKind::Preempted { id, .. }
            | TraceEventKind::Shed { id }
            | TraceEventKind::Resumed { id }
            | TraceEventKind::DecodeGate { id, .. }
            | TraceEventKind::EvictStart { id, .. }
            | TraceEventKind::EvictDone { id }
            | TraceEventKind::LoadStart { id, .. }
            | TraceEventKind::LoadDone { id }
            | TraceEventKind::Reprice { id, .. }
            | TraceEventKind::RequestLost { id, .. }
            | TraceEventKind::RetryScheduled { id, .. }
            | TraceEventKind::RequestAbandoned { id, .. }
            | TraceEventKind::AdmissionShed { id } => Some(id),
            TraceEventKind::Swap { evicted, .. } => Some(evicted),
            TraceEventKind::Scale { .. }
            | TraceEventKind::HorizonArmed { .. }
            | TraceEventKind::HorizonEnded { .. }
            | TraceEventKind::ReplicaCrashed { .. }
            | TraceEventKind::ReplicaDegraded { .. }
            | TraceEventKind::BootFailed { .. }
            | TraceEventKind::LinkDegraded { .. } => None,
        }
    }

    /// True when the event involves `id` in any role.
    pub fn mentions(&self, id: RequestId) -> bool {
        match *self {
            TraceEventKind::Swap {
                evicted, admitted, ..
            } => evicted == id || admitted == id,
            ref other => other.request() == Some(id),
        }
    }

    /// Rewrites every request id through `f` (used by the cluster to map
    /// replica-local dense ids back to global workload ids).
    pub fn map_ids(&mut self, mut f: impl FnMut(RequestId) -> RequestId) {
        match self {
            TraceEventKind::Arrived { id, .. }
            | TraceEventKind::Dispatch { id, .. }
            | TraceEventKind::Admitted { id, .. }
            | TraceEventKind::PrefillChunk { id, .. }
            | TraceEventKind::FirstToken { id }
            | TraceEventKind::Finished { id }
            | TraceEventKind::Preempted { id, .. }
            | TraceEventKind::Shed { id }
            | TraceEventKind::Resumed { id }
            | TraceEventKind::DecodeGate { id, .. }
            | TraceEventKind::EvictStart { id, .. }
            | TraceEventKind::EvictDone { id }
            | TraceEventKind::LoadStart { id, .. }
            | TraceEventKind::LoadDone { id }
            | TraceEventKind::Reprice { id, .. }
            | TraceEventKind::RequestLost { id, .. }
            | TraceEventKind::RetryScheduled { id, .. }
            | TraceEventKind::RequestAbandoned { id, .. }
            | TraceEventKind::AdmissionShed { id } => *id = f(*id),
            TraceEventKind::Swap {
                evicted, admitted, ..
            } => {
                *evicted = f(*evicted);
                *admitted = f(*admitted);
            }
            TraceEventKind::Scale { .. }
            | TraceEventKind::HorizonArmed { .. }
            | TraceEventKind::HorizonEnded { .. }
            | TraceEventKind::ReplicaCrashed { .. }
            | TraceEventKind::ReplicaDegraded { .. }
            | TraceEventKind::BootFailed { .. }
            | TraceEventKind::LinkDegraded { .. } => {}
        }
    }
}

/// One journal entry: a decision stamped with when, who, and what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the decision.
    pub time: SimTime,
    /// The emitting component.
    pub source: TraceSource,
    /// Per-source monotone sequence number. `(source, seq)` is unique,
    /// so the `(time, source, seq)` merge order is total.
    pub seq: u64,
    pub kind: TraceEventKind,
}

/// The recording handle threaded through the pipeline stages.
///
/// Disabled (the default), every call is an inlined `Option` check on a
/// null pointer-sized field — no storage, no allocation, no branches
/// beyond the check. Enabled, it buffers events in emission order for
/// one source.
#[derive(Debug, Default)]
pub struct TraceSink {
    inner: Option<Box<SinkInner>>,
}

#[derive(Debug)]
struct SinkInner {
    source: TraceSource,
    seq: u64,
    events: Vec<TraceEvent>,
    /// Per-request decode-gate state, so gate evaluations (which run
    /// every composed step) journal only *transitions*.
    gated: Vec<bool>,
}

impl TraceSink {
    /// The no-op sink.
    pub const fn disabled() -> TraceSink {
        TraceSink { inner: None }
    }

    /// A recording sink for `source`.
    pub fn enabled(source: TraceSource) -> TraceSink {
        TraceSink {
            inner: Some(Box::new(SinkInner {
                source,
                seq: 0,
                events: Vec::new(),
                gated: Vec::new(),
            })),
        }
    }

    /// True when events are being recorded. Use to guard payload
    /// construction that would itself allocate (score vectors, term
    /// lists).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Re-labels the sink's source (no-op when disabled). The cluster
    /// uses this to assign stable replica indices, including to engines
    /// provisioned mid-run.
    pub fn set_source(&mut self, source: TraceSource) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.source = source;
        }
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn emit(&mut self, time: SimTime, kind: TraceEventKind) {
        if let Some(inner) = self.inner.as_deref_mut() {
            let seq = inner.seq;
            inner.seq += 1;
            inner.events.push(TraceEvent {
                time,
                source: inner.source,
                seq,
                kind,
            });
        }
    }

    /// Records a decode-gate evaluation, journaling only transitions
    /// (no-op when disabled). Requests start un-gated.
    #[inline]
    pub fn gate(&mut self, time: SimTime, id: RequestId, paused: bool) {
        if let Some(inner) = self.inner.as_deref_mut() {
            let idx = id.0 as usize;
            if inner.gated.len() <= idx {
                inner.gated.resize(idx + 1, false);
            }
            if inner.gated[idx] != paused {
                inner.gated[idx] = paused;
                let seq = inner.seq;
                inner.seq += 1;
                inner.events.push(TraceEvent {
                    time,
                    source: inner.source,
                    seq,
                    kind: TraceEventKind::DecodeGate { id, paused },
                });
            }
        }
    }

    /// Takes the buffered events, leaving the sink enabled and its
    /// sequence counter running.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        match self.inner.as_deref_mut() {
            Some(inner) => std::mem::take(&mut inner.events),
            None => Vec::new(),
        }
    }

    /// Consumes the sink into a single-source journal, or `None` when
    /// disabled.
    pub fn into_journal(mut self) -> Option<TraceJournal> {
        self.inner
            .take()
            .map(|inner| TraceJournal::merge(vec![inner.events]))
    }
}

/// A completed, merge-ordered event journal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceJournal {
    /// Events in `(time, source, seq)` order.
    pub events: Vec<TraceEvent>,
}

impl TraceJournal {
    /// Merges per-source event streams into the total `(time, source,
    /// seq)` order. The key is unique per event, so the result does not
    /// depend on the order of `parts` — which is what makes the merged
    /// journal executor-invariant.
    pub fn merge(parts: Vec<Vec<TraceEvent>>) -> TraceJournal {
        let mut events: Vec<TraceEvent> = parts.into_iter().flatten().collect();
        events.sort_unstable_by_key(|e| (e.time, e.source, e.seq));
        TraceJournal { events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The canonical (non-meta) view: the decision record that is
    /// invariant under both executor choice and the plan-horizon fast
    /// path. Trace digests are taken over this view.
    pub fn canonical(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| !e.kind.is_meta())
    }

    /// Events mentioning `id` in any role, in journal order.
    pub fn for_request(&self, id: RequestId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind.mentions(id))
    }

    /// Rewrites request ids through `f`, which receives the emitting
    /// source so per-replica id spaces can be mapped independently.
    pub fn map_ids(&mut self, mut f: impl FnMut(TraceSource, RequestId) -> RequestId) {
        for e in &mut self.events {
            let source = e.source;
            e.kind.map_ids(|id| f(source, id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(us: u64, source: TraceSource, seq: u64, id: u64) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_micros(us),
            source,
            seq,
            kind: TraceEventKind::FirstToken { id: RequestId(id) },
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.emit(SimTime::ZERO, TraceEventKind::Finished { id: RequestId(0) });
        sink.gate(SimTime::ZERO, RequestId(0), true);
        assert!(sink.drain().is_empty());
        assert!(sink.into_journal().is_none());
    }

    #[test]
    fn enabled_sink_stamps_source_and_sequence() {
        let mut sink = TraceSink::enabled(TraceSource::Replica(2));
        sink.emit(
            SimTime::from_micros(5),
            TraceEventKind::FirstToken { id: RequestId(1) },
        );
        sink.emit(
            SimTime::from_micros(5),
            TraceEventKind::Finished { id: RequestId(1) },
        );
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].source, TraceSource::Replica(2));
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        // Draining keeps the counter running: later events still sort
        // after earlier ones at equal timestamps.
        sink.emit(
            SimTime::from_micros(5),
            TraceEventKind::FirstToken { id: RequestId(2) },
        );
        assert_eq!(sink.drain()[0].seq, 2);
    }

    #[test]
    fn gate_records_transitions_only() {
        let mut sink = TraceSink::enabled(TraceSource::Replica(0));
        let t = SimTime::from_micros(1);
        sink.gate(t, RequestId(3), false); // initial state: no event
        sink.gate(t, RequestId(3), true); // transition
        sink.gate(t, RequestId(3), true); // steady: no event
        sink.gate(t, RequestId(3), false); // transition back
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].kind,
            TraceEventKind::DecodeGate {
                id: RequestId(3),
                paused: true
            }
        );
        assert_eq!(
            events[1].kind,
            TraceEventKind::DecodeGate {
                id: RequestId(3),
                paused: false
            }
        );
    }

    #[test]
    fn merge_order_is_independent_of_part_order() {
        let a = vec![ev(10, TraceSource::Replica(0), 0, 1)];
        let b = vec![
            ev(5, TraceSource::Replica(1), 0, 2),
            ev(10, TraceSource::Replica(1), 1, 3),
        ];
        let c = vec![ev(10, TraceSource::Coordinator, 0, 4)];
        let fwd = TraceJournal::merge(vec![a.clone(), b.clone(), c.clone()]);
        let rev = TraceJournal::merge(vec![c, b, a]);
        assert_eq!(fwd, rev);
        // At t=10: coordinator before replicas, replica 0 before 1.
        let order: Vec<u64> = fwd
            .events
            .iter()
            .map(|e| e.kind.request().unwrap().0)
            .collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn canonical_filters_meta_events() {
        let mut sink = TraceSink::enabled(TraceSource::Replica(0));
        sink.emit(
            SimTime::ZERO,
            TraceEventKind::HorizonArmed {
                valid_until: SimTime::MAX,
                gates_static: true,
            },
        );
        sink.emit(
            SimTime::from_micros(1),
            TraceEventKind::FirstToken { id: RequestId(0) },
        );
        sink.emit(
            SimTime::from_micros(2),
            TraceEventKind::HorizonEnded {
                reason: HorizonEndReason::Expired,
            },
        );
        let journal = sink.into_journal().unwrap();
        assert_eq!(journal.len(), 3);
        assert_eq!(journal.canonical().count(), 1);
    }

    #[test]
    fn map_ids_rewrites_every_role() {
        let mut journal = TraceJournal::merge(vec![vec![
            TraceEvent {
                time: SimTime::ZERO,
                source: TraceSource::Replica(1),
                seq: 0,
                kind: TraceEventKind::Swap {
                    evicted: RequestId(0),
                    admitted: RequestId(1),
                    evicted_priority: 1.0,
                    admitted_priority: 2.0,
                },
            },
            ev(1, TraceSource::Replica(1), 1, 0),
        ]]);
        journal.map_ids(|source, id| {
            assert_eq!(source, TraceSource::Replica(1));
            RequestId(id.0 + 10)
        });
        assert!(journal.events[0].kind.mentions(RequestId(10)));
        assert!(journal.events[0].kind.mentions(RequestId(11)));
        assert_eq!(journal.events[1].kind.request(), Some(RequestId(10)));
    }
}
