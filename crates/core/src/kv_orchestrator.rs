//! Pipeline stage 2 — KV orchestration: applying finished transfers and
//! pumping write-through sync against the [`KvManager`].
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
/// the request table: finished evictions park requests on the CPU,
/// finished loads rejoin the decode batch. Each phase flip is journaled
/// in [`EngineState::transfer_flips`] — completions are the mechanical
/// tail of an already-counted decision, not decision-epoch events, and
/// the plan-horizon fast path mirrors the flips into its retained
/// context instead of tearing the horizon down.
/// `events` is a caller-retained scratch buffer (cleared and refilled
/// here) so the per-step path reuses one allocation across calls.
pub(crate) fn apply_transfers(
    st: &mut EngineState,
    kv: &mut KvManager,
    to: SimTime,
    events: &mut Vec<KvEvent>,
    trace: &mut TraceSink,
) {
    kv.advance_into(to, events);
    for &event in events.iter() {
        match event {
            KvEvent::EvictDone { req, at } => {
                let s = st.state_mut(req);
                if s.phase == Phase::Evicting {
                    s.phase = Phase::OnCpu;
                    st.transfer_flips.push(req);
                    trace.emit(at, TraceEventKind::EvictDone { id: req });
                }
            }
            KvEvent::LoadDone { req, at } => {
                let s = st.state_mut(req);
                if s.phase == Phase::Loading {
                    s.phase = Phase::Running;
                    st.push_running(req);
                    st.transfer_flips.push(req);
                    trace.emit(at, TraceEventKind::LoadDone { id: req });
                }
            }
        }
    }
}

/// Synchronous chunked writing (§5.2): pumps a compute-window's worth of
/// background sync, with flush priorities tracking each decode member's
/// buffer occupancy (fuller buffers flush first — their owners are the
/// likeliest preemption victims).
///
/// Priorities are re-priced with one pass over the pending write queue,
/// looking each queued request up in the id-sorted batch: O(queue·log
/// batch). Skipping the buffer advance for members with nothing queued
/// is invisible: a reader's time-advance is Markov in `t` (stalls anchor
/// to the scheduled read instant, not the call instant), so the next
/// advance produces the same state either way. The pump itself orders
/// the queue once, O(queue·log queue), and drains it in that order; the
/// per-token pushes that refill it during delivery are O(1) each (see
/// [`tokenflow_kv::write_queue`]).
pub(crate) fn pump_write_through(
    st: &mut EngineState,
    kv: &mut KvManager,
    decode: &[RequestId],
    now: SimTime,
    window: SimDuration,
) {
    debug_assert!(decode.is_sorted());
    kv.retune_write_priorities(|req| {
        decode
            .binary_search(&req)
            .ok()
            .map(|_| st.state_mut(req).buffer.buffered(now) as f64)
    });
    kv.pump_writes(now, window);
}

/// The next instant background I/O completes, if any — the KV wake-up
/// input to the engine's idle fast-forward.
pub(crate) fn next_transfer_completion(kv: &KvManager) -> Option<SimTime> {
    kv.next_io_completion()
}
