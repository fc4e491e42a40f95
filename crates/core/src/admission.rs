//! Pipeline stage 1 — admission: arrival ingest, scheduler context
//! construction, and plan application.
//!
//! The stage turns the outside world (pending arrivals) and the scheduler's
//! decisions ([`Action`]s) into request-phase transitions, routing KV
//! work through the [`KvManager`]. It owns no state: everything operates
//! on `&mut` views of [`EngineState`].

use tokenflow_kv::{Direction, EvictStart, KvManager};
use tokenflow_model::CostModel;
use tokenflow_sched::{Action, PreemptMode, ReqView, SchedContext, Scheduler};
use tokenflow_sim::{RequestId, SimTime};
use tokenflow_trace::{PreemptCause, TraceEventKind, TraceSink};

use crate::config::EngineConfig;
use crate::profiler::EngineProfilers;
use crate::state::{EngineState, Phase, ReqState};

/// Pops every arrival due by `now` off the front of the pending queue,
/// marking the requests live.
pub(crate) fn ingest_arrivals(st: &mut EngineState, now: SimTime, trace: &mut TraceSink) {
    while let Some(&(arrival, id)) = st.arrivals.front() {
        if arrival > now {
            break;
        }
        st.arrivals.pop_front();
        st.decision_epoch += 1;
        // Requests cannot leave WaitingNew before they arrive (the
        // scheduler only ever sees arrived requests), so each arrival
        // joins the waiting pool and its whole prompt joins the prefill
        // backlog.
        debug_assert_eq!(st.state(id).phase, Phase::WaitingNew);
        st.waiting_count += 1;
        st.prefill_backlog_tokens += st.state(id).context_tokens();
        st.insert_live(id);
        trace.emit(now, TraceEventKind::Arrived { id, arrival });
    }
}

/// Rebuilds the read-only scheduling context the policy plans against
/// into the engine's one retained buffer, so the steady-state step
/// allocates no `Vec<ReqView>` at all.
///
/// The request walk covers exactly the live-id index (arrived,
/// unfinished requests in ascending id order) and compacts lazily-dead
/// entries out of the index in passing, which keeps one step O(live)
/// instead of O(every request ever submitted).
///
/// Γ — the decode capacity estimate — is the capacity the hardware could
/// sustain at the live requests' context sizes (the largest memory-feasible
/// batch priced by the cost model), floored against the measured trailing
/// throughput. Using measured throughput alone would read pacing or
/// prefill phases as capacity collapses.
pub(crate) fn build_ctx_into(
    ctx: &mut SchedContext,
    st: &mut EngineState,
    kv: &KvManager,
    cost: &CostModel,
    config: &EngineConfig,
    profs: &EngineProfilers,
    now: SimTime,
) {
    ctx.requests.clear();
    let mut write = 0usize;
    for read in 0..st.live_ids.len() {
        let id = st.live_ids[read];
        let idx = id.0 as usize;
        let phase = st.requests[idx].phase;
        let Some(sched_phase) = phase.sched_phase() else {
            // Finished since the last build: compact the entry away.
            continue;
        };
        st.live_ids[write] = id;
        write += 1;
        debug_assert!(st.requests[idx].spec.arrival <= now, "live implies arrived");
        let evict_secs = kv.estimated_evict_time(id, now).as_secs_f64();
        let load_secs = kv.estimated_load_time(id, now).as_secs_f64();
        let reserved = if phase == Phase::Prefilling {
            st.requests[idx].prefill_target
        } else {
            0
        };
        let s = &mut st.requests[idx];
        let mut view = ReqView {
            id,
            phase: sched_phase,
            arrival: s.spec.arrival,
            rate: s.spec.rate,
            prompt_tokens: s.spec.prompt_tokens,
            context_tokens: 0,
            remaining_tokens: 0,
            buffered_tokens: 0,
            buffered_secs: 0.0,
            stalled: false,
            started: false,
            evict_secs,
            load_secs,
            reserved_tokens: reserved,
            elastic: s.kind == tokenflow_workload::ClientKind::Agent,
            inbound: matches!(phase, Phase::Prefilling | Phase::Loading),
        };
        write_progress(&mut view, s, now);
        ctx.requests.push(view);
    }
    st.live_ids.truncate(write);

    let live_n = ctx.requests.len().max(1) as u64;
    let avg_ctx = (ctx.requests.iter().map(|v| v.context_tokens).sum::<u64>() / live_n).max(128);
    let n_fit = (kv.gpu_total_tokens() / avg_ctx).clamp(1, config.max_batch as u64) as u32;
    let theoretical = cost.batch_throughput(n_fit, avg_ctx);
    // Prefill work steals compute from decode: discount capacity by the
    // fraction of wall time the recent prefill stream consumes.
    let prefill_share =
        (profs.prefill_rate.throughput(now) * profs.prefill.secs_per_token()).min(0.8);
    let gamma = profs
        .decode
        .throughput(now)
        .max(theoretical * (1.0 - prefill_share));
    ctx.now = now;
    ctx.gpu_free_tokens = kv.gpu_free_tokens();
    ctx.gpu_total_tokens = kv.gpu_total_tokens();
    ctx.d2h_queue_len = kv.io_queue_len(Direction::D2H);
    ctx.h2d_queue_len = kv.io_queue_len(Direction::H2D);
    ctx.d2h_eta = kv.io_eta(Direction::D2H, now);
    ctx.h2d_eta = kv.io_eta(Direction::H2D, now);
    ctx.prefill_secs_per_token = profs.prefill.secs_per_token();
    ctx.decode_throughput = gamma;
    ctx.pcie_bandwidth = config.hardware.pcie_bw;
    ctx.kv_bytes_per_token = config.model.kv_bytes_per_token();
    ctx.max_batch = config.max_batch;
    ctx.recount_phases();
    ctx.debug_assert_id_ordered();
}

/// Writes a view's progress fields (buffered tokens and seconds, stalled,
/// started, context, remaining) from its request at `now`; the context
/// build and the plan-horizon fast path's re-gate share it.
pub(crate) fn write_progress(view: &mut ReqView, s: &mut ReqState, now: SimTime) {
    let snap = s.buffer.snapshot(now);
    view.buffered_tokens = snap.buffered;
    view.buffered_secs = snap.buffered_secs;
    view.stalled = snap.stalled_now;
    view.started = s.generated > 0;
    view.context_tokens = s.context_tokens();
    view.remaining_tokens = s.remaining_tokens();
}

/// Starts (or restarts, after a discard) a request's prefill.
fn admit_prefill(
    st: &mut EngineState,
    kv: &mut KvManager,
    id: RequestId,
    now: SimTime,
    trace: &mut TraceSink,
) {
    let phase = st.state(id).phase;
    let recompute = match phase {
        // A waiting request's context is already counted in the prefill
        // backlog; admission keeps it there (target − done is unchanged).
        Phase::WaitingNew => {
            st.waiting_count -= 1;
            false
        }
        Phase::OnCpu => {
            // Recompute path: drop the host copy and re-prefill. The
            // context re-enters the prefill backlog.
            kv.drop_kv(id);
            st.state_mut(id).metrics.recomputes += 1;
            st.prefill_backlog_tokens += st.state(id).context_tokens();
            true
        }
        _ => return, // stale action; ignore
    };
    st.decision_epoch += 1;
    let s = st.state_mut(id);
    s.prefill_target = s.context_tokens();
    s.prefill_done = 0;
    s.phase = Phase::Prefilling;
    st.prefill_queue.push_back(id);
    trace.emit(
        now,
        TraceEventKind::Admitted {
            id,
            recompute,
            queued_behind_tokens: st
                .prefill_backlog_tokens
                .saturating_sub(st.state(id).prefill_target),
        },
    );
}

/// Removes a running request from the batch, offloading or discarding its
/// KV per `mode`.
pub(crate) fn apply_preempt(
    st: &mut EngineState,
    kv: &mut KvManager,
    id: RequestId,
    mode: PreemptMode,
    now: SimTime,
    cause: PreemptCause,
    trace: &mut TraceSink,
) {
    if st.state(id).phase != Phase::Running {
        return; // stale action
    }
    st.decision_epoch += 1;
    st.remove_running(id);
    st.state_mut(id).metrics.preemptions += 1;
    let tokens = kv.context_tokens(id);
    let discard = |st: &mut EngineState, kv: &mut KvManager, id: RequestId| {
        kv.drop_kv(id);
        st.state_mut(id).phase = Phase::WaitingNew;
        // A discarded victim was running, hence arrived: it rejoins the
        // waiting pool (and the prefill backlog, with its full recompute
        // context) until the scheduler re-admits its recompute.
        st.waiting_count += 1;
        st.prefill_backlog_tokens += st.state(id).context_tokens();
    };
    let discarded = match mode {
        PreemptMode::Discard => {
            discard(st, kv, id);
            true
        }
        PreemptMode::Offload => match kv.begin_evict(id, now) {
            Ok(EvictStart::Instant) => {
                st.state_mut(id).phase = Phase::OnCpu;
                false
            }
            Ok(EvictStart::InFlight) => {
                st.state_mut(id).phase = Phase::Evicting;
                trace.emit(now, TraceEventKind::EvictStart { id, tokens });
                false
            }
            Err(_) => {
                discard(st, kv, id);
                true
            }
        },
    };
    trace.emit(
        now,
        TraceEventKind::Preempted {
            id,
            discard: discarded,
            cause,
        },
    );
}

/// Applies the scheduler's plan, action by action, in order.
pub(crate) fn apply_plan(
    st: &mut EngineState,
    kv: &mut KvManager,
    actions: Vec<Action>,
    now: SimTime,
    trace: &mut TraceSink,
) {
    for action in actions {
        match action {
            Action::AdmitPrefill(id) => admit_prefill(st, kv, id, now, trace),
            Action::Resume(id) => {
                if st.state(id).phase == Phase::OnCpu && kv.begin_load(id, now).is_ok() {
                    st.decision_epoch += 1;
                    st.state_mut(id).phase = Phase::Loading;
                    trace.emit(now, TraceEventKind::Resumed { id });
                    trace.emit(
                        now,
                        TraceEventKind::LoadStart {
                            id,
                            tokens: kv.context_tokens(id),
                        },
                    );
                }
            }
            Action::Preempt { id, mode } => {
                apply_preempt(st, kv, id, mode, now, PreemptCause::Planned, trace)
            }
        }
    }
}

/// Emergency memory reclamation: ask the scheduler for victims until
/// `needed_blocks` fit or no victims remain. Returns whether it fits.
/// `scratch` is a retained context buffer rebuilt per victim round (the
/// engine lends its one context, which composition is done with).
#[allow(clippy::too_many_arguments)]
pub(crate) fn emergency_reclaim(
    st: &mut EngineState,
    kv: &mut KvManager,
    scheduler: &dyn Scheduler,
    cost: &CostModel,
    config: &EngineConfig,
    profs: &EngineProfilers,
    scratch: &mut SchedContext,
    needed_blocks: u64,
    now: SimTime,
    trace: &mut TraceSink,
) -> bool {
    let bt = config.block_tokens as u64;
    let mode = scheduler.emergency_preempt_mode();
    loop {
        if kv.gpu_free_tokens() / bt >= needed_blocks {
            return true;
        }
        build_ctx_into(scratch, st, kv, cost, config, profs, now);
        let Some(victim) = scheduler.emergency_victim(scratch) else {
            return false;
        };
        if st.state(victim).phase != Phase::Running {
            return false;
        }
        // Offload may free only partially (in-flight flush); discard
        // frees immediately. Either way the victim leaves the batch.
        apply_preempt(st, kv, victim, mode, now, PreemptCause::Reclaim, trace);
        if mode == PreemptMode::Offload
            && kv.gpu_free_tokens() / bt < needed_blocks
            && st.state(victim).phase == Phase::Evicting
        {
            // The flush is in flight; memory frees over the next chunks.
            // The next iteration picks a new victim if the loop cannot
            // make progress otherwise.
            continue;
        }
    }
}
