//! Pipeline stage 1 — admission: arrival ingest, the maintained
//! scheduler context, and plan application.
//!
//! The stage turns the outside world (pending arrivals) and the scheduler's
//! decisions ([`Action`]s) into request-phase transitions, routing KV
//! work through the [`KvManager`]. It owns no state: everything operates
//! on `&mut` views of [`EngineState`].

use tokenflow_client::BufferSnapshot;
use tokenflow_kv::{Direction, EvictStart, KvManager};
use tokenflow_model::CostModel;
use tokenflow_sched::{Action, PreemptMode, ReqPhase, ReqView, SchedContext, Scheduler};
use tokenflow_sim::{RequestId, SimDuration, SimTime};
use tokenflow_trace::{PreemptCause, TraceEventKind, TraceSink};
use tokenflow_workload::ClientKind;

use crate::config::{EngineConfig, BLOCK_TOKENS};
use crate::profiler::EngineProfilers;
use crate::state::{EngineState, Phase, ReqState};

/// Pops every arrival due by `now` off the front of the pending queue,
/// builds its state in a live slot (with a delivery timeline when its id
/// is below `timeline_requests`), and journals it so the next context
/// build gives it a view.
pub(crate) fn ingest_arrivals(
    st: &mut EngineState,
    now: SimTime,
    timeline_requests: usize,
    trace: &mut TraceSink,
) {
    while let Some(&pending) = st.arrivals.front() {
        let (id, arrival) = (pending.spec.id, pending.spec.arrival);
        if arrival > now {
            break;
        }
        st.arrivals.pop_front();
        st.decision_epoch += 1;
        // Each arrival joins the waiting pool and its whole prompt joins
        // the prefill backlog.
        let state = ReqState::new(pending, id.0 < timeline_requests as u64);
        st.waiting_count += 1;
        st.prefill_backlog_tokens += state.context_tokens();
        st.insert(state);
        st.journal_view(id);
        trace.emit(now, TraceEventKind::Arrived { id, arrival });
    }
}

/// Brings the engine's one retained scheduling context current at `now`.
/// It is the engine's only index of live requests (arrived, unfinished,
/// in ascending id order), and the steady-state step allocates no
/// `Vec<ReqView>` at all.
///
/// The context is maintained, not rebuilt. The build first applies the
/// view journal ([`apply_journal`]): arrivals get a view at their id
/// position, re-phased requests their new phase, and finished requests
/// are queued for dropping. One pass over the views then drops those and
/// refreshes every field that moves with time. A request that waits
/// without ever having started ([`ReqPhase::WaitingNew`], `started`
/// unset) costs two stores: it holds no KV, so its KV estimates are the
/// per-build constants of an empty request (the stream ETAs, plus one
/// empty transfer on the load side), and nothing else in its view
/// changes until an event journals it. Every other view is refreshed
/// from its request, its buffer and the KV slab, as a fresh build would
/// ([`fresh_view`]); debug builds check that after every build.
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
    apply_journal(ctx, st, kv, now);
    ctx.d2h_eta = kv.io_eta(Direction::D2H, now);
    ctx.h2d_eta = kv.io_eta(Direction::H2D, now);
    // `KvManager`'s estimates for a request with no KV: nothing dirty to
    // flush, and a zero-byte load.
    let evict_empty = (ctx.d2h_eta + SimDuration::ZERO).as_secs_f64();
    let load_empty = (ctx.h2d_eta + kv.pcie().transfer_time(0)).as_secs_f64();
    let mut finished_views = std::mem::take(&mut st.finished_views);
    finished_views.sort_unstable();
    finished_views.dedup();
    let mut finished = finished_views.iter().copied().peekable();
    let mut context_sum = 0u64;
    ctx.retain_views(|v| {
        if finished.next_if_eq(&v.id).is_some() {
            return false;
        }
        if v.phase == ReqPhase::WaitingNew && !v.started {
            v.evict_secs = evict_empty;
            v.load_secs = load_empty;
        } else if let Some(s) = st.get_mut(v.id) {
            let snap = s.buffer.snapshot(now);
            refresh_view(v, s, &snap, kv, now);
        }
        context_sum += v.context_tokens;
        true
    });
    debug_assert!(finished.next().is_none(), "a finished view was missed");
    finished_views.clear();
    st.finished_views = finished_views;

    let live_n = ctx.requests.len().max(1) as u64;
    let avg_ctx = (context_sum / live_n).max(128);
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
    ctx.prefill_secs_per_token = profs.prefill.secs_per_token();
    ctx.decode_throughput = gamma;
    ctx.pcie_bandwidth = config.hardware.pcie_bw;
    ctx.kv_bytes_per_token = config.model.kv_bytes_per_token();
    ctx.max_batch = config.max_batch;
    #[cfg(any(test, debug_assertions))]
    check_maintained(ctx, st, kv, now);
}

/// Applies the view journal to `ctx` and empties it; returns whether it
/// held anything. A journaled request without a view gets a fresh one at
/// its id position (an arrival, almost always at the end). A finished
/// one is queued in [`EngineState::finished_views`] for the build's pass
/// to drop. Every other one takes its request's current phase (keeping
/// the cached phase counts), `inbound` flag and `started` flag.
///
/// Inside a plan horizon only transfer completions are journaled (every
/// other event moves the decision epoch, which ends the horizon first),
/// so the fast path drains the journal through this too, and the
/// context's membership stays as the last build left it.
pub(crate) fn apply_journal(
    ctx: &mut SchedContext,
    st: &mut EngineState,
    kv: &KvManager,
    now: SimTime,
) -> bool {
    if st.view_journal.is_empty() {
        return false;
    }
    let mut journal = std::mem::take(&mut st.view_journal);
    for id in journal.drain(..) {
        let at = ctx.requests.binary_search_by(|v| v.id.cmp(&id));
        // A journaled request without a live state has finished.
        let live = st.get_mut(id).map(|s| (s.phase.sched_phase(), s));
        match (at, live) {
            (Ok(i), Some((phase, s))) => {
                ctx.update_phase(id, phase);
                if let Some(v) = ctx.requests.get_mut(i) {
                    v.inbound = s.phase.inbound();
                    v.started = s.generated() > 0;
                }
            }
            (Ok(_), None) => st.finished_views.push(id),
            (Err(i), Some((phase, s))) => {
                let snap = s.buffer.snapshot(now);
                ctx.requests
                    .insert(i, fresh_view(id, phase, s, &snap, kv, now));
            }
            (Err(_), None) => {}
        }
    }
    st.view_journal = journal;
    true
}

/// Request `id`'s view at `now`, computed from scratch from its request,
/// its buffer snapshot at `now` and the KV slab: the definition the
/// maintained context keeps.
fn fresh_view(
    id: RequestId,
    phase: ReqPhase,
    s: &ReqState,
    snap: &BufferSnapshot,
    kv: &KvManager,
    now: SimTime,
) -> ReqView {
    let mut view = ReqView {
        id,
        phase,
        arrival: s.spec.arrival,
        rate: s.spec.rate,
        prompt_tokens: s.spec.prompt_tokens,
        context_tokens: 0,
        remaining_tokens: 0,
        buffered_tokens: 0,
        buffered_secs: 0.0,
        stalled: false,
        started: false,
        evict_secs: 0.0,
        load_secs: 0.0,
        reserved_tokens: 0,
        elastic: s.kind == ClientKind::Agent,
        inbound: s.phase.inbound(),
    };
    refresh_view(&mut view, s, snap, kv, now);
    view
}

/// Writes every view field that moves with time: the KV estimates, the
/// prefill reservation and the progress fields.
fn refresh_view(
    view: &mut ReqView,
    s: &ReqState,
    snap: &BufferSnapshot,
    kv: &KvManager,
    now: SimTime,
) {
    view.evict_secs = kv.estimated_evict_time(view.id, now).as_secs_f64();
    view.load_secs = kv.estimated_load_time(view.id, now).as_secs_f64();
    view.reserved_tokens = if s.phase == Phase::Prefilling {
        s.prefill_target
    } else {
        0
    };
    set_progress(view, s, snap);
}

/// Writes a view's progress fields (buffered tokens and seconds, stalled,
/// started, context, remaining) from its request at `now`; the context
/// build and the plan-horizon fast path's re-gate share it.
pub(crate) fn write_progress(view: &mut ReqView, s: &mut ReqState, now: SimTime) {
    let snap = s.buffer.snapshot(now);
    set_progress(view, s, &snap);
}

fn set_progress(view: &mut ReqView, s: &ReqState, snap: &BufferSnapshot) {
    view.buffered_tokens = snap.buffered;
    view.buffered_secs = snap.buffered_secs;
    view.stalled = snap.stalled_now;
    view.started = s.generated() > 0;
    view.context_tokens = s.context_tokens();
    view.remaining_tokens = s.remaining_tokens();
}

/// The maintained context's oracle, compiled into debug builds and tests
/// only. It recomputes every view with [`fresh_view`] (on a copy of the
/// buffer, so it changes no state) and requires it field for field, with
/// floats compared bitwise; checks membership by count (one view per
/// ingested, unfinished request, in strictly ascending id order, and one
/// live state per view); and checks the running counters against their
/// definitions.
#[cfg(any(test, debug_assertions))]
fn check_maintained(ctx: &SchedContext, st: &EngineState, kv: &KvManager, now: SimTime) {
    assert_eq!(
        ctx.requests.len(),
        st.ingested() - st.finished_count,
        "the context must hold one view per ingested, unfinished request"
    );
    assert_eq!(
        st.live_count(),
        ctx.requests.len(),
        "only live requests may hold a state"
    );
    ctx.debug_assert_id_ordered();
    let mut waiting = 0usize;
    let mut backlog = 0u64;
    for v in &ctx.requests {
        let Some(s) = st.get(v.id) else {
            panic!("{:?} has a view but no live state", v.id);
        };
        assert!(
            s.spec.arrival <= now,
            "{:?} has a view but has not arrived",
            v.id
        );
        let phase = s.phase.sched_phase();
        let snap = s.buffer.clone().snapshot(now);
        let want = fresh_view(v.id, phase, s, &snap, kv, now);
        assert!(
            bitwise_eq(v, &want),
            "maintained view drifted at {now:?}:\n  kept  {v:?}\n  fresh {want:?}"
        );
        if s.phase == Phase::WaitingNew {
            waiting += 1;
            backlog += s.context_tokens();
        } else if s.phase == Phase::Prefilling {
            backlog += s.prefill_target - s.prefill_done;
        }
    }
    for phase in [
        ReqPhase::WaitingNew,
        ReqPhase::WaitingCpu,
        ReqPhase::Transitioning,
        ReqPhase::Running,
    ] {
        assert_eq!(ctx.count_phase(phase), ctx.in_phase(phase).count());
    }
    assert_eq!(st.waiting_count, waiting, "waiting_count drifted");
    assert_eq!(
        st.prefill_backlog_tokens, backlog,
        "prefill_backlog_tokens drifted"
    );
    // The rate sum is kept by adding at submit and subtracting at finish,
    // so it carries rounding the recomputed sum does not; once every
    // request has finished that rounding is all it holds, hence the
    // tolerance's floor of 1 token/s.
    let rates: f64 = st.arrivals.iter().map(|p| p.spec.rate).sum::<f64>()
        + st.live_states().map(|s| s.spec.rate).sum::<f64>();
    let scale = st.active_rate_sum.abs().max(rates.abs()).max(1.0);
    assert!(
        (st.active_rate_sum - rates).abs() <= 1e-9 * scale,
        "active_rate_sum drifted: kept {} vs {rates} over pending and live requests",
        st.active_rate_sum
    );
}

/// Field-for-field view equality: the derived `PartialEq`, with the
/// floats also compared bitwise so that a changed sign of zero shows.
#[cfg(any(test, debug_assertions))]
fn bitwise_eq(a: &ReqView, b: &ReqView) -> bool {
    let floats =
        |v: &ReqView| [v.rate, v.buffered_secs, v.evict_secs, v.load_secs].map(f64::to_bits);
    a == b && floats(a) == floats(b)
}

/// Starts (or restarts, after a discard) a request's prefill.
fn admit_prefill(
    st: &mut EngineState,
    kv: &mut KvManager,
    id: RequestId,
    now: SimTime,
    trace: &mut TraceSink,
) {
    let Some(s) = st.get_mut(id) else {
        return; // stale action; ignore
    };
    let recompute = match s.phase {
        // A waiting request's context is already counted in the prefill
        // backlog; admission keeps it there (target − done is unchanged).
        Phase::WaitingNew => false,
        // Recompute path: drop the host copy and re-prefill. The context
        // re-enters the prefill backlog.
        Phase::OnCpu => {
            s.recomputes += 1;
            true
        }
        _ => return, // stale action; ignore
    };
    s.prefill_target = s.context_tokens();
    s.prefill_done = 0;
    s.phase = Phase::Prefilling;
    let target = s.prefill_target;
    if recompute {
        kv.drop_kv(id);
        st.prefill_backlog_tokens += target;
    } else {
        st.waiting_count -= 1;
    }
    st.decision_epoch += 1;
    st.prefill_queue.push_back(id);
    st.journal_view(id);
    trace.emit(
        now,
        TraceEventKind::Admitted {
            id,
            recompute,
            queued_behind_tokens: st.prefill_backlog_tokens.saturating_sub(target),
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
    let Some(slot) = st.slot(id) else {
        return; // stale action
    };
    let Some(s) = st.at_mut(slot).filter(|s| s.phase == Phase::Running) else {
        return; // stale action
    };
    s.preemptions += 1;
    let context = s.context_tokens();
    st.decision_epoch += 1;
    st.remove_running(id);
    let tokens = kv.context_tokens(id);
    let evict = match mode {
        PreemptMode::Discard => None,
        PreemptMode::Offload => kv.begin_evict(id, now).ok(),
    };
    let phase = match evict {
        Some(EvictStart::Instant) => Phase::OnCpu,
        Some(EvictStart::InFlight) => {
            trace.emit(now, TraceEventKind::EvictStart { id, tokens });
            Phase::Evicting
        }
        None => {
            kv.drop_kv(id);
            // A discarded victim was running, hence arrived: it rejoins
            // the waiting pool (and the prefill backlog, with its full
            // recompute context) until the scheduler re-admits its
            // recompute.
            st.waiting_count += 1;
            st.prefill_backlog_tokens += context;
            Phase::WaitingNew
        }
    };
    if let Some(s) = st.at_mut(slot) {
        s.phase = phase;
    }
    let discarded = phase == Phase::WaitingNew;
    st.journal_view(id);
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
                let Some(s) = st.get_mut(id).filter(|s| s.phase == Phase::OnCpu) else {
                    continue; // stale action
                };
                if kv.begin_load(id, now).is_ok() {
                    s.phase = Phase::Loading;
                    st.decision_epoch += 1;
                    st.journal_view(id);
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
/// `ctx` is the engine's maintained context (composition is done with
/// it), brought current by the same build before every victim round.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emergency_reclaim(
    st: &mut EngineState,
    kv: &mut KvManager,
    scheduler: &dyn Scheduler,
    cost: &CostModel,
    config: &EngineConfig,
    profs: &EngineProfilers,
    ctx: &mut SchedContext,
    needed_blocks: u64,
    now: SimTime,
    trace: &mut TraceSink,
) -> bool {
    let mode = scheduler.emergency_preempt_mode();
    loop {
        if kv.gpu_free_tokens() / BLOCK_TOKENS >= needed_blocks {
            return true;
        }
        build_ctx_into(ctx, st, kv, cost, config, profs, now);
        let Some(victim) = scheduler.emergency_victim(ctx) else {
            return false;
        };
        if st.phase(victim) != Some(Phase::Running) {
            return false;
        }
        // Offload may free only partially (in-flight flush); discard
        // frees immediately. Either way the victim leaves the batch.
        apply_preempt(st, kv, victim, mode, now, PreemptCause::Reclaim, trace);
        if mode == PreemptMode::Offload
            && kv.gpu_free_tokens() / BLOCK_TOKENS < needed_blocks
            && st.phase(victim) == Some(Phase::Evicting)
        {
            // The flush is in flight; memory frees over the next chunks.
            // The next iteration picks a new victim if the loop cannot
            // make progress otherwise.
            continue;
        }
    }
}
