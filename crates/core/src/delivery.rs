//! Pipeline stage 4 — delivery: token hand-off into client buffers plus
//! per-request and time-series metrics.
//!
//! This is the only stage that touches client buffers and metric records:
//! prefill completions emit their first token here, decode members emit
//! one token each, and finished requests release their KV and leave every
//! queue.

use tokenflow_kv::KvManager;
use tokenflow_metrics::{effective_weight, qos_token_weight, QosParams, TimeSeries};
use tokenflow_sched::ReqView;
use tokenflow_sim::{RequestId, SimDuration, SimTime};
use tokenflow_trace::{TraceEventKind, TraceSink};

use crate::batch::IterationBatch;
use crate::engine::StepOutcome;
use crate::state::{EngineState, Phase};

/// Applies an iteration's prefill progress: slices advance their
/// requests, and completing slices allocate KV, join the decode batch,
/// and deliver the prefill pass's first token.
pub(crate) fn apply_prefill_progress(
    st: &mut EngineState,
    kv: &mut KvManager,
    batch: &IterationBatch,
    end: SimTime,
    qos: &QosParams,
    outcome: &mut StepOutcome,
    trace: &mut TraceSink,
) {
    for slice in &batch.prefill {
        st.prefill_backlog_tokens = st.prefill_backlog_tokens.saturating_sub(slice.tokens);
        let s = st.state_mut(slice.id);
        s.prefill_done += slice.tokens;
        if slice.completes {
            debug_assert_eq!(s.prefill_done, s.prefill_target);
            let target = s.prefill_target;
            match kv.on_prefill(slice.id, target, end) {
                Ok(()) => {
                    st.prefill_queue.retain(|&r| r != slice.id);
                    st.state_mut(slice.id).phase = Phase::Running;
                    st.decision_epoch += 1;
                    st.push_running(slice.id);
                    st.journal_view(slice.id);
                    trace.emit(
                        end,
                        TraceEventKind::PrefillChunk {
                            id: slice.id,
                            tokens: slice.tokens,
                            completes: true,
                        },
                    );
                    // The prefill forward pass emits the next token.
                    deliver_token(st, kv, slice.id, end, qos, outcome, trace);
                }
                Err(_) => {
                    // Lost the memory race: retry the final allocation
                    // next iteration (progress is kept, so one token goes
                    // back to the prefill backlog).
                    let s = st.state_mut(slice.id);
                    s.prefill_done = s.prefill_target.saturating_sub(1);
                    st.prefill_backlog_tokens += 1;
                    trace.emit(
                        end,
                        TraceEventKind::PrefillChunk {
                            id: slice.id,
                            tokens: slice.tokens.saturating_sub(1),
                            completes: false,
                        },
                    );
                }
            }
        } else {
            trace.emit(
                end,
                TraceEventKind::PrefillChunk {
                    id: slice.id,
                    tokens: slice.tokens,
                    completes: false,
                },
            );
        }
    }
}

/// Delivers one decode token per batch member. `now` is the iteration's
/// start (flush priorities track occupancy at composition time); `end` is
/// when the tokens materialise. Returns the number delivered.
#[allow(clippy::too_many_arguments)]
pub(crate) fn deliver_decode(
    st: &mut EngineState,
    kv: &mut KvManager,
    batch: &IterationBatch,
    now: SimTime,
    end: SimTime,
    qos: &QosParams,
    outcome: &mut StepOutcome,
    trace: &mut TraceSink,
) -> u64 {
    let mut delivered = 0u64;
    for &id in &batch.decode {
        if st.state(id).phase != Phase::Running {
            continue; // finished via prefill edge case; defensive
        }
        let buffered = st.state_mut(id).buffer.buffered(now) as f64;
        if kv.append_token(id, buffered).is_err() {
            // Could not extend KV despite the pre-check (extreme
            // contention): skip this request's token this round.
            continue;
        }
        deliver_token(st, kv, id, end, qos, outcome, trace);
        delivered += 1;
    }
    delivered
}

/// Hands one token to a request's client buffer, updating metrics and —
/// on the final token — finishing the request.
pub(crate) fn deliver_token(
    st: &mut EngineState,
    kv: &mut KvManager,
    id: RequestId,
    at: SimTime,
    qos: &QosParams,
    outcome: &mut StepOutcome,
    trace: &mut TraceSink,
) {
    let s = st.state_mut(id);
    debug_assert!(s.generated < s.spec.output_tokens);
    let buffered_before = s.buffer.buffered(at);
    s.generated += 1;
    s.buffer.on_token(at);
    if s.metrics.first_token_at.is_none() {
        s.metrics.first_token_at = Some(at);
        trace.emit(at, TraceEventKind::FirstToken { id });
    }
    s.metrics.generated = s.generated;
    s.metrics.effective_tokens += effective_weight(buffered_before, s.spec.output_tokens);
    s.metrics.qos_weight_sum += qos_token_weight(buffered_before, s.spec.output_tokens, qos);
    if let Some(tl) = s.timeline.as_mut() {
        tl.record(at, s.generated);
    }
    outcome.delivered.push((id, s.generated));
    if s.generated == s.spec.output_tokens {
        s.phase = Phase::Finished;
        s.metrics.finished_at = Some(at);
        let rate = s.spec.rate;
        st.decision_epoch += 1;
        st.finished_count += 1;
        st.active_rate_sum = (st.active_rate_sum - rate).max(0.0);
        st.remove_running(id);
        st.prefill_queue.retain(|&r| r != id);
        st.journal_view(id);
        kv.drop_kv(id);
        outcome.finished.push(id);
        trace.emit(at, TraceEventKind::Finished { id });
    }
}

/// Sampled time series (queued/running counts, GPU utilisation) plus the
/// sampling cursor — the delivery stage's run-level telemetry.
#[derive(Debug)]
pub(crate) struct Telemetry {
    pub queued_series: TimeSeries,
    pub running_series: TimeSeries,
    pub gpu_util_series: TimeSeries,
    next_sample: SimTime,
    interval: SimDuration,
}

impl Telemetry {
    /// Creates the telemetry set, sizing each series from the run-length
    /// hint (`deadline ÷ interval` samples, capped so a generous safety
    /// deadline does not pre-commit megabytes per replica).
    pub(crate) fn new(interval: SimDuration, deadline: SimDuration) -> Self {
        let hint = (deadline.as_micros() / interval.as_micros().max(1)).min(4_096) as usize;
        Telemetry {
            queued_series: TimeSeries::with_capacity("queued", hint),
            running_series: TimeSeries::with_capacity("running", hint),
            gpu_util_series: TimeSeries::with_capacity("gpu_util", hint),
            next_sample: SimTime::ZERO + interval,
            interval,
        }
    }

    /// Emits every sample due by `now`.
    ///
    /// Queued = waiting with no KV anywhere (new arrivals and
    /// discard-preempted requests awaiting recompute). In-service =
    /// everything else alive: the running batch, transitions, and rotation
    /// members whose KV is parked on the host.
    ///
    /// Counting walks only the engine context's views, whose ids are
    /// every ingested request that was unfinished at the step's last
    /// context build (any ingest makes the step a full one, which builds
    /// before it executes), plus an O(log n) lookup for arrivals due at
    /// `t` but not ingested yet (ingestion runs at the iteration's
    /// *start* while sample instants lie inside the iteration; such
    /// requests are untouched `WaitingNew` submissions, so they belong in
    /// the queued count exactly as the old full-table scan counted them).
    /// Everything else is finished (excluded from both counts) or arrives
    /// after `t`. Phases are read from the request table, since a view's
    /// may be older than the step's deliveries.
    pub(crate) fn sample(
        &mut self,
        st: &EngineState,
        views: &[ReqView],
        kv: &KvManager,
        now: SimTime,
    ) {
        while self.next_sample <= now {
            let t = self.next_sample;
            let mut queued = st.pending_due_arrivals(t);
            let mut running = 0usize;
            for v in views {
                let s = st.state(v.id);
                // Arrivals between a stale sample instant and `now` are
                // live already but not visible at `t` yet.
                if s.spec.arrival > t {
                    continue;
                }
                match s.phase {
                    Phase::Finished => {}
                    Phase::WaitingNew => queued += 1,
                    _ => running += 1,
                }
            }
            self.queued_series.push(t, queued as f64);
            self.running_series.push(t, running as f64);
            self.gpu_util_series.push(t, kv.gpu_pool().utilization());
            self.next_sample = t + self.interval;
        }
    }
}
