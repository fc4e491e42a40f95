//! Pipeline stage 2 — KV orchestration: applying finished transfers and
//! running each compute window's write-through sync against the
//! [`KvManager`].
//!
//! The memory hierarchy runs "in the background" of compute: evictions and
//! loads progress while iterations execute, and their completions flip
//! request phases at the next stage boundary. This module is the only
//! place those completions are translated into pipeline phase changes.

use tokenflow_kv::{KvEvent, KvManager};
use tokenflow_sim::{RequestId, SimDuration, SimTime};
use tokenflow_trace::{TraceEventKind, TraceSink};

use crate::state::{EngineState, Phase};

/// Advances the transfer engine to `to` and applies every completion to
/// the request table (see [`apply_events`]). `events` is a
/// caller-retained scratch buffer (cleared and refilled here) so the
/// per-step path reuses one allocation across calls.
pub(crate) fn apply_transfers(
    st: &mut EngineState,
    kv: &mut KvManager,
    to: SimTime,
    events: &mut Vec<KvEvent>,
    trace: &mut TraceSink,
) {
    kv.advance_into(to, events);
    apply_events(st, events, trace);
}

/// One compute window of background I/O (§5.1–5.2): syncs a window's
/// worth of write-through, advances the transfers to `now + window` and
/// applies their completions (see [`apply_events`]), in one
/// [`KvManager::run_window`] call.
///
/// When the window cannot sync everything queued, or flush order could
/// change what it syncs, flush priorities track each decode member's
/// buffer occupancy (fuller buffers flush first — their owners are the
/// likeliest preemption victims): one pass over the pending write queue
/// looks each queued request up in the id-sorted batch, O(queue·log
/// batch), and the pump orders the queue once, O(queue·log queue).
/// Otherwise the queue settles in one O(queue) pass and nothing is
/// re-priced. Skipping the buffer advance for members that are not
/// re-priced is invisible: a reader's time-advance is Markov in `t`
/// (stalls anchor to the scheduled read instant, not the call instant),
/// so the next advance produces the same state either way. The
/// per-token pushes that refill the queue during delivery are O(1) each
/// (see [`tokenflow_kv::write_queue`]).
pub(crate) fn run_window(
    st: &mut EngineState,
    kv: &mut KvManager,
    decode: &[RequestId],
    now: SimTime,
    window: SimDuration,
    events: &mut Vec<KvEvent>,
    trace: &mut TraceSink,
) {
    debug_assert!(decode.is_sorted());
    let reprice = |req| {
        decode
            .binary_search(&req)
            .ok()
            .map(|_| st.state_mut(req).buffer.buffered(now) as f64)
    };
    kv.run_window(now, window, reprice, events);
    apply_events(st, events, trace);
}

/// Applies transfer completions to the request table: finished
/// evictions park requests on the CPU, finished loads rejoin the decode
/// batch. Each phase flip goes into the view journal
/// ([`EngineState::journal_view`]) but does not move the decision epoch:
/// completions are the mechanical tail of an already-counted decision,
/// so inside a plan horizon the fast path applies the journal to its
/// retained context instead of tearing the horizon down.
fn apply_events(st: &mut EngineState, events: &[KvEvent], trace: &mut TraceSink) {
    for &event in events {
        match event {
            KvEvent::EvictDone { req, at } => {
                let s = st.state_mut(req);
                if s.phase == Phase::Evicting {
                    s.phase = Phase::OnCpu;
                    st.journal_view(req);
                    trace.emit(at, TraceEventKind::EvictDone { id: req });
                }
            }
            KvEvent::LoadDone { req, at } => {
                let s = st.state_mut(req);
                if s.phase == Phase::Loading {
                    s.phase = Phase::Running;
                    st.push_running(req);
                    st.journal_view(req);
                    trace.emit(at, TraceEventKind::LoadDone { id: req });
                }
            }
        }
    }
}

/// The next instant background I/O completes, if any — the KV wake-up
/// input to the engine's idle fast-forward.
pub(crate) fn next_transfer_completion(kv: &KvManager) -> Option<SimTime> {
    kv.next_io_completion()
}
