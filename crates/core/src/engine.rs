//! The serving engine: an orchestrating shell over the staged pipeline.
//!
//! [`Engine::step`] runs one continuous-batching iteration by driving the
//! four pipeline stages in order:
//!
//! 1. [`admission`](crate::admission) — ingest due arrivals, build the
//!    scheduler's context, apply its plan;
//! 2. [`kv_orchestrator`](crate::kv_orchestrator) — apply finished KV
//!    transfers and pump write-through sync;
//! 3. [`batch`](crate::batch) — compose the prefill+decode batch, fit it
//!    into memory, price it with the cost model;
//! 4. [`delivery`](crate::delivery) — advance prefills, deliver decode
//!    tokens into client buffers, finish requests, sample telemetry.
//!
//! The engine itself only owns the components and the clock; all stage
//! logic lives in the stage modules, which is what lets the cluster crate
//! drive many replicas of this loop on one simulated timeline.

use tokenflow_client::TokenBuffer;
use tokenflow_kv::{Direction, KvConfig, KvManager};
use tokenflow_metrics::{RequestMetrics, RunReport, TokenTimeline};
use tokenflow_model::CostModel;
use tokenflow_sched::{PlanNote, SchedContext, SchedContextBuilder, Scheduler};
use tokenflow_sim::{Clock, EventQueue, RequestId, SimDuration, SimTime};
use tokenflow_trace::{HorizonEndReason, TraceEventKind, TraceSink, TraceSource};
use tokenflow_workload::{ClientKind, RequestSpec};

use crate::batch::IterationBatch;
use crate::config::EngineConfig;
use crate::delivery::Telemetry;
use crate::outcome::SimOutcome;
use crate::profiler::EngineProfilers;
use crate::state::{EngineLoad, EngineState, Phase, ReqState};
use crate::{admission, batch, delivery, kv_orchestrator};

// Evaluated at compile time: `Engine` must stay `Send` so the cluster's
// parallel epoch executor can advance replicas on worker threads.
const _: () = Engine::assert_send();

/// Why [`Engine::run_to_completion`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Every submitted request finished.
    Finished,
    /// The safety deadline tripped with requests still unfinished.
    Deadline,
    /// The iteration-count cap ([`EngineConfig::max_iterations`]) tripped
    /// first — the configuration was not making progress toward
    /// completion within its budget.
    IterationCap,
}

impl Completion {
    /// True only when every submitted request finished.
    pub fn is_finished(self) -> bool {
        self == Completion::Finished
    }
}

/// Counters of the plan-horizon fast path, in the style of the cluster
/// executor's stats: cheap enough to maintain always, rich enough for
/// the bench harness to report a skip rate per run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Steps served by horizon replay or gate-refresh recompose — the
    /// full admission/plan/compose pipeline was skipped.
    pub fast_steps: u64,
    /// Horizons armed at full-step boundaries.
    pub horizons_issued: u64,
    /// Horizons cut short by a decision-epoch event before their
    /// certified expiry (arrival, finish, transfer completion, …).
    pub horizons_invalidated: u64,
    /// Horizons that ran to their certified expiry time.
    pub horizons_expired: u64,
}

/// An armed plan-horizon certificate: the scheduler's horizon plus the
/// decision-epoch snapshot it was issued under. Valid while the clock
/// stays before `valid_until` *and* the engine's decision epoch still
/// equals `epoch`.
#[derive(Debug, Clone, Copy)]
struct ArmedHorizon {
    valid_until: SimTime,
    gates_static: bool,
    epoch: u64,
}

/// What one engine step did.
#[derive(Debug, Clone, Default)]
pub struct StepOutcome {
    /// Time at the end of the step.
    pub now: SimTime,
    /// Tokens delivered this step: `(request, cumulative count)`.
    pub delivered: Vec<(RequestId, u64)>,
    /// Requests that finished this step.
    pub finished: Vec<RequestId>,
    /// True when the step found no compute work and fast-forwarded.
    pub idle: bool,
    /// True when every submitted request has finished.
    pub done: bool,
}

/// The serving engine.
///
/// See the crate docs for the iteration structure; construct with a
/// [`Scheduler`] implementation, [`Engine::submit`] requests, then either
/// [`Engine::step`] interactively or [`Engine::run_to_completion`].
pub struct Engine {
    config: EngineConfig,
    cost: CostModel,
    clock: Clock,
    scheduler: Box<dyn Scheduler>,
    kv: KvManager,
    st: EngineState,
    arrivals: EventQueue<RequestId>,
    profs: EngineProfilers,
    telemetry: Telemetry,
    iterations: u64,
    /// Minimum idle fast-forward so time-sliced schedulers get woken.
    idle_tick: SimDuration,
    /// Retained scheduler-context buffers, double-buffered: `ctx_plan`
    /// carries the pre-plan context (and is later lent to the memory-fit
    /// stage as reclaim scratch, once the plan no longer needs it);
    /// `ctx_batch` carries the post-plan context batch composition reads.
    /// Reusing them eliminates the two-to-three full `Vec<ReqView>`
    /// allocations every step used to pay.
    ctx_plan: SchedContext,
    ctx_batch: SchedContext,
    /// Retained iteration-batch buffer, cleared and refilled per step.
    iter_batch: IterationBatch,
    /// The active plan-horizon certificate, when armed: across certified
    /// steps the engine replays `iter_batch` (or re-gates it in place)
    /// instead of re-running admission, planning, and composition.
    horizon: Option<ArmedHorizon>,
    /// Per-horizon cache mapping `st.running[i]` to its index in
    /// `ctx_batch.requests` (`u32::MAX` = no view). Both lists are
    /// id-sorted and the context's membership is frozen inside a horizon
    /// (flips edit views in place, never insert or remove), so the gate
    /// refresh can use direct indexing instead of a binary search per
    /// member per step. Cleared at every full step; rebuilt by one merge
    /// pass when its length no longer matches the running set.
    running_ctx_idx: Vec<u32>,
    /// Retained completion-event buffer for transfer application — the
    /// engine applies transfers up to three times per step, so the
    /// steady state reuses one allocation.
    kv_events: Vec<tokenflow_kv::KvEvent>,
    /// Fast-path counters.
    fast_stats: FastPathStats,
    /// Compute slowdown multiplier on iteration times (`1.0` = healthy).
    /// Fault injection sets it over a straggler window; while it is not
    /// `1.0` the plan-horizon fast path stays disarmed, so degraded
    /// replicas run the full pipeline and healthy replicas keep the
    /// zero-alloc fast path untouched.
    slowdown: f64,
    /// Decision-event journal sink; a no-op unless
    /// [`EngineConfig::trace`] is set.
    trace: TraceSink,
}

impl Engine {
    /// Creates an engine from a configuration and a scheduling policy.
    /// Callers already holding a `Box<dyn Scheduler>` should prefer
    /// [`Engine::from_boxed`], which skips the re-box and its extra
    /// dispatch hop in the iteration loop.
    ///
    /// # Panics
    ///
    /// Panics if the configuration leaves no KV capacity (weights larger
    /// than the memory budget).
    pub fn new(config: EngineConfig, scheduler: impl Scheduler + 'static) -> Self {
        Self::from_boxed(config, Box::new(scheduler))
    }

    /// [`Engine::new`] for an already-boxed policy (factories and
    /// registries hand out `Box<dyn Scheduler>`); same panics.
    pub fn from_boxed(config: EngineConfig, scheduler: Box<dyn Scheduler>) -> Self {
        let cost = config.cost_model();
        let gpu_tokens = cost.kv_token_capacity(config.mem_frac);
        assert!(
            gpu_tokens >= config.block_tokens as u64,
            "configuration leaves no KV capacity: model does not fit"
        );
        let gpu_blocks = gpu_tokens / config.block_tokens as u64;
        let kv = KvManager::new(KvConfig {
            block_tokens: config.block_tokens,
            gpu_blocks,
            cpu_blocks: (gpu_blocks as f64 * config.cpu_pool_factor) as u64,
            kv_bytes_per_token: config.model.kv_bytes_per_token(),
            chunk_tokens: config.chunk_tokens,
            write_through: config.write_through,
            priority_writes: config.priority_writes,
            offload_enabled: config.offload_enabled,
            load_evict_overlap: config.load_evict_overlap,
            pcie_bandwidth: config.hardware.pcie_bw,
            pcie_latency_us: config.hardware.pcie_latency_us,
        });
        let prefill_init = cost.prefill_time(512, 0).as_secs_f64() / 512.0;
        let thpt_init = cost.batch_throughput(config.max_batch.min(64), 1_024);
        Engine {
            cost,
            clock: Clock::new(),
            scheduler,
            kv,
            st: EngineState::new(),
            arrivals: EventQueue::new(),
            profs: EngineProfilers::new(prefill_init, thpt_init),
            telemetry: Telemetry::new(config.sample_interval, config.deadline),
            iterations: 0,
            idle_tick: SimDuration::from_millis(10),
            ctx_plan: SchedContextBuilder::new(SimTime::ZERO).build(),
            ctx_batch: SchedContextBuilder::new(SimTime::ZERO).build(),
            iter_batch: IterationBatch::default(),
            horizon: None,
            running_ctx_idx: Vec::new(),
            kv_events: Vec::new(),
            fast_stats: FastPathStats::default(),
            slowdown: 1.0,
            trace: if config.trace {
                TraceSink::enabled(TraceSource::Replica(0))
            } else {
                TraceSink::disabled()
            },
            config,
        }
    }

    /// Re-labels the engine's trace stream (a no-op when tracing is
    /// off). The cluster assigns each replica its stable index through
    /// this, including to replicas provisioned mid-run.
    pub fn set_trace_source(&mut self, source: TraceSource) {
        self.trace.set_source(source);
    }

    /// Takes the trace events buffered so far, leaving the sink (and its
    /// sequence counter) running. Empty when tracing is off.
    pub fn take_trace_events(&mut self) -> Vec<tokenflow_trace::TraceEvent> {
        self.trace.drain()
    }

    /// Submits an interactive request; its id is assigned densely in
    /// submission order (the spec's own id field is ignored).
    ///
    /// # Panics
    ///
    /// Panics if the spec has a zero output length or a non-positive rate.
    pub fn submit(&mut self, spec: RequestSpec) -> RequestId {
        self.submit_as(spec, ClientKind::Interactive)
    }

    /// Submits a request on behalf of an agent client: its rate is treated
    /// as an elastic reference priority (§8) — the scheduler lets it run at
    /// full speed when capacity is idle and throttles it first under load.
    pub fn submit_agent(&mut self, spec: RequestSpec) -> RequestId {
        self.submit_as(spec, ClientKind::Agent)
    }

    /// Submits a request with an explicit client kind.
    ///
    /// # Panics
    ///
    /// Panics if the spec has a zero output length or a non-positive rate.
    pub fn submit_as(&mut self, mut spec: RequestSpec, kind: ClientKind) -> RequestId {
        assert!(spec.output_tokens > 0, "output length must be positive");
        assert!(
            spec.rate.is_finite() && spec.rate > 0.0,
            "rate must be positive"
        );
        let id = RequestId(self.st.requests.len() as u64);
        spec.id = id;
        let metrics = RequestMetrics::new(id, spec.arrival, spec.rate, spec.output_tokens);
        // One timeline point per output token: the exact final length is
        // known here, so reserve it once.
        let timeline = (id.0 < self.config.timeline_requests as u64)
            .then(|| TokenTimeline::with_capacity(id, spec.output_tokens));
        self.st.requests.push(ReqState {
            buffer: TokenBuffer::new(spec.rate),
            kind,
            metrics,
            phase: Phase::WaitingNew,
            generated: 0,
            prefill_done: 0,
            prefill_target: 0,
            timeline,
            spec,
        });
        self.st.active_rate_sum += spec.rate;
        self.st.insert_arrival_time(spec.arrival);
        self.arrivals.push(spec.arrival, id);
        id
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The scheduling policy's name.
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// A point-in-time load summary for routers and monitors.
    ///
    /// O(1): every field reads an incrementally-maintained counter, so
    /// cluster routers can snapshot all replicas per dispatched request
    /// without rescanning request tables.
    pub fn load_snapshot(&self) -> EngineLoad {
        EngineLoad {
            now: self.clock.now(),
            submitted: self.st.requests.len(),
            live: self.st.requests.len() - self.st.finished_count,
            arrived: self.st.live_count,
            waiting: self.st.waiting_count,
            running: self.st.running.len(),
            transitioning: self.kv.evicting_requests() + self.kv.loading_requests(),
            rate_sum: self.st.active_rate_sum,
            gpu_free_tokens: self.kv.gpu_free_tokens(),
            gpu_total_tokens: self.kv.gpu_total_tokens(),
            d2h_queue_len: self.kv.io_queue_len(Direction::D2H),
            h2d_queue_len: self.kv.io_queue_len(Direction::H2D),
            pending_prefill_tokens: self.st.prefill_backlog_tokens,
        }
    }

    /// Runs one engine iteration through the staged pipeline. Returns what
    /// happened.
    ///
    /// Allocates a fresh [`StepOutcome`] per call; hot loops that discard
    /// or copy the outcome should reuse one via [`Engine::step_into`].
    pub fn step(&mut self) -> StepOutcome {
        let mut outcome = StepOutcome::default();
        self.step_into(&mut outcome);
        outcome
    }

    /// [`Engine::step`] into a caller-retained outcome buffer: `outcome`
    /// is cleared and refilled, so a loop reusing one buffer keeps the
    /// whole steady-state step allocation-free (the engine's contexts and
    /// batch are retained too).
    pub fn step_into(&mut self, outcome: &mut StepOutcome) {
        let now = self.clock.now();
        outcome.now = now;
        outcome.delivered.clear();
        outcome.finished.clear();
        outcome.idle = false;
        outcome.done = false;

        // Stage 1+2 (pre-compute): ingest arrivals and apply finished KV
        // transfers. Both bump the decision epoch when they act, so they
        // run *before* the horizon check — an arrival or a transfer
        // completion lands in a full pipeline step.
        admission::ingest_arrivals(&mut self.arrivals, &mut self.st, now, &mut self.trace);
        let mut kv_events = std::mem::take(&mut self.kv_events);
        kv_orchestrator::apply_transfers(
            &mut self.st,
            &mut self.kv,
            now,
            &mut kv_events,
            &mut self.trace,
        );
        self.kv_events = kv_events;

        // Plan-horizon fast path: inside an armed, unexpired certificate
        // the scheduler's decisions are provably unchanged, so the step
        // replays the retained batch and pays only pricing + delivery +
        // telemetry — O(batch) instead of O(live).
        if self.fast_step_applies(now) {
            return self.fast_step(now, outcome);
        }

        self.full_step(now, outcome)
    }

    /// The full pipeline step: context build, plan, compose, fit, price,
    /// deliver — and, on a clean quiescent iteration, arming the next
    /// plan horizon.
    fn full_step(&mut self, now: SimTime, outcome: &mut StepOutcome) {
        // Any decision event between here and the end of the step
        // (admission, preemption, prefill completion, finish) moves the
        // epoch past this snapshot and vetoes arming: the retained batch
        // and context would be stale.
        let epoch_at_plan = self.st.decision_epoch;

        // The flip journal only matters to an armed horizon's retained
        // context; this step rebuilds its contexts from true phases, so
        // everything journaled up to now is already reflected. Flips
        // landing later in this step (the in-compute transfer advance)
        // stay journaled for the fast path to reconcile.
        self.st.transfer_flips.clear();

        // Let the scheduler plan against fresh state.
        admission::build_ctx_into(
            &mut self.ctx_plan,
            &mut self.st,
            &self.kv,
            &self.cost,
            &self.config,
            &self.profs,
            now,
        );
        self.ctx_plan.trace_notes = self.trace.is_enabled();
        let plan = self.scheduler.plan(&self.ctx_plan);
        for note in &plan.notes {
            match *note {
                PlanNote::Reprice { id, before, after } => {
                    self.trace
                        .emit(now, TraceEventKind::Reprice { id, before, after });
                }
                PlanNote::Swap {
                    evicted,
                    admitted,
                    evicted_priority,
                    admitted_priority,
                } => {
                    self.trace.emit(
                        now,
                        TraceEventKind::Swap {
                            evicted,
                            admitted,
                            evicted_priority,
                            admitted_priority,
                        },
                    );
                }
            }
        }
        admission::apply_plan(
            &mut self.st,
            &mut self.kv,
            plan.actions,
            now,
            &mut self.trace,
        );

        // Stage 3: compose the iteration batch against post-plan state and
        // fit it into GPU memory. When the plan did not act (the epoch
        // still matches its snapshot — stale actions are ignored without
        // bumping it), post-plan state IS pre-plan state and the context
        // just built for planning is byte-for-byte what a rebuild would
        // produce; swap it into the batch slot instead of paying the
        // O(live) walk twice.
        if self.st.decision_epoch == epoch_at_plan {
            std::mem::swap(&mut self.ctx_plan, &mut self.ctx_batch);
        } else {
            admission::build_ctx_into(
                &mut self.ctx_batch,
                &mut self.st,
                &self.kv,
                &self.cost,
                &self.config,
                &self.profs,
                now,
            );
        }
        batch::compose_into(
            &mut self.iter_batch,
            &self.st,
            self.scheduler.as_ref(),
            &self.ctx_batch,
            &self.config,
            &mut self.trace,
        );
        let fits_clean = batch::fit_memory(
            &mut self.iter_batch,
            &mut self.st,
            &mut self.kv,
            self.scheduler.as_ref(),
            &self.cost,
            &self.config,
            &self.profs,
            // The plan-phase context is dead here; lend it to the
            // emergency-reclaim loop as scratch.
            &mut self.ctx_plan,
            now,
            &mut self.trace,
        );

        // Idle fast-forward when there is no compute work.
        if self.iter_batch.is_idle() {
            return self.idle_step(outcome);
        }

        // Price the iteration; a straggler window stretches it.
        let (spec, mut iter_time) = batch::price(&self.iter_batch, &self.st, &self.cost);
        if self.slowdown != 1.0 {
            iter_time = iter_time.mul_f64(self.slowdown);
        }

        // Stage 2 (in-compute): pump a compute-window's worth of
        // write-through sync, then advance time — transfers progress
        // during compute.
        kv_orchestrator::pump_write_through(
            &mut self.st,
            &mut self.kv,
            &self.iter_batch.decode,
            now,
            iter_time,
        );
        let end = self.clock.advance(iter_time);
        let mut kv_events = std::mem::take(&mut self.kv_events);
        kv_orchestrator::apply_transfers(
            &mut self.st,
            &mut self.kv,
            end,
            &mut kv_events,
            &mut self.trace,
        );
        self.kv_events = kv_events;

        // Stage 4: deliveries and telemetry.
        let qos = self.config.qos;
        delivery::apply_prefill_progress(
            &mut self.st,
            &mut self.kv,
            &self.iter_batch,
            end,
            &qos,
            outcome,
            &mut self.trace,
        );
        let decode_delivered = delivery::deliver_decode(
            &mut self.st,
            &mut self.kv,
            &self.iter_batch,
            now,
            end,
            &qos,
            outcome,
            &mut self.trace,
        );
        if spec.prefill_tokens > 0 {
            self.profs.prefill.record(spec.prefill_tokens, iter_time);
        }
        self.profs.prefill_rate.record(end, spec.prefill_tokens);
        self.profs.decode.record(end, decode_delivered);
        self.telemetry.sample(&self.st, &self.kv, end);
        self.iterations += 1;
        outcome.now = end;
        outcome.done = self.st.all_finished() && self.arrivals.is_empty();

        // The ctx-index cache derives from this step's rebuilt context
        // and running set; any new horizon starts from a fresh merge.
        self.running_ctx_idx.clear();

        // Arm the next plan horizon over clean, decode-only iterations:
        // the batch fit as composed, nothing prefill-shaped is pending,
        // and no decision event happened during the step (the epoch
        // still matches, so `ctx_batch` and `iter_batch` describe the
        // state the next step starts from, modulo journaled transfer
        // flips the fast path reconciles on entry). The scheduler then
        // certifies how long its plan stays a no-op.
        self.horizon = None;
        if self.config.plan_horizon
            && self.slowdown == 1.0
            && fits_clean
            && self.st.decision_epoch == epoch_at_plan
            && self.st.prefill_queue.is_empty()
            && self.iter_batch.prefill.is_empty()
            && !self.iter_batch.decode.is_empty()
        {
            if let Some(h) = self.scheduler.plan_horizon(&self.ctx_batch) {
                if h.valid_until > end {
                    self.horizon = Some(ArmedHorizon {
                        valid_until: h.valid_until,
                        gates_static: h.gates_static,
                        epoch: epoch_at_plan,
                    });
                    self.fast_stats.horizons_issued += 1;
                    self.trace.emit(
                        end,
                        TraceEventKind::HorizonArmed {
                            valid_until: h.valid_until,
                            gates_static: h.gates_static,
                        },
                    );
                }
            }
        }
    }

    /// Checks whether the current step may run on the fast path, keeping
    /// the armed horizon's bookkeeping honest: a failed check disarms it
    /// (the full pipeline re-arms at its next clean quiescent step).
    fn fast_step_applies(&mut self, now: SimTime) -> bool {
        let Some(h) = self.horizon else {
            return false;
        };
        if self.st.decision_epoch != h.epoch {
            self.horizon = None;
            self.fast_stats.horizons_invalidated += 1;
            self.trace.emit(
                now,
                TraceEventKind::HorizonEnded {
                    reason: HorizonEndReason::Invalidated,
                },
            );
            return false;
        }
        if now >= h.valid_until {
            self.horizon = None;
            self.fast_stats.horizons_expired += 1;
            self.trace.emit(
                now,
                TraceEventKind::HorizonEnded {
                    reason: HorizonEndReason::Expired,
                },
            );
            return false;
        }
        // Mirror the KV transfer completions that landed since the last
        // reconcile into the retained context: an in-flight transfer
        // finishing flips one request's phase (`Evicting → OnCpu` or
        // `Loading → Running`) without any scheduler decision, and the
        // horizon's certificate is required to survive it. Phases and
        // counts first, so gates read the truth below.
        let flipped = !self.st.transfer_flips.is_empty();
        if flipped {
            for i in 0..self.st.transfer_flips.len() {
                let id = self.st.transfer_flips[i];
                // Finished requests have no scheduler phase, but a finish
                // inside the horizon bumps the epoch and never reaches
                // here — this is belt-and-braces for stale journal rows.
                if let Some(phase) = self.st.requests[id.0 as usize].phase.sched_phase() {
                    self.ctx_batch.update_phase(id, phase);
                }
            }
            self.st.transfer_flips.clear();
        }
        // Pacing gates may flip with buffer levels inside the horizon,
        // and a completed load adds a decode member a frozen replay
        // would miss: refresh the gate-read view fields and recompose
        // the decode batch in place. An empty recompose is an idle
        // iteration, which the full pipeline owns.
        if (flipped || !h.gates_static) && !self.refresh_and_regate(now) {
            self.horizon = None;
            self.fast_stats.horizons_invalidated += 1;
            self.trace.emit(
                now,
                TraceEventKind::HorizonEnded {
                    reason: HorizonEndReason::Invalidated,
                },
            );
            return false;
        }
        // Per-step memory pre-check, exactly the full path's (there is
        // no prefill inside a horizon): if this step's decode appends
        // need reclamation or shedding, the full pipeline handles them.
        let bt = self.config.block_tokens as u64;
        if batch::decode_blocks_needed(&self.kv, &self.iter_batch.decode, bt)
            > self.kv.gpu_free_tokens() / bt
        {
            self.horizon = None;
            self.fast_stats.horizons_invalidated += 1;
            self.trace.emit(
                now,
                TraceEventKind::HorizonEnded {
                    reason: HorizonEndReason::Invalidated,
                },
            );
            return false;
        }
        true
    }

    /// Refreshes the gate-read fields (buffer occupancy, context and
    /// remaining counts, started flag) of every running member's view in
    /// the retained post-plan context, then recomposes the decode batch
    /// exactly as [`batch::compose_into`] would against a fresh context.
    /// The running set is current at this point: decision events tore
    /// the horizon down via the epoch, and transfer flips were already
    /// mirrored into the context (including members a completed load
    /// just added), so only per-request progress needs refreshing.
    /// Returns `false` when the recomposed batch is empty.
    fn refresh_and_regate(&mut self, now: SimTime) -> bool {
        self.ctx_batch.set_now(now);
        if self.running_ctx_idx.len() != self.st.running.len() {
            self.rebuild_running_ctx_idx();
        }
        for i in 0..self.st.running.len() {
            let id = self.st.running[i];
            let s = &mut self.st.requests[id.0 as usize];
            debug_assert_eq!(s.phase, Phase::Running);
            let snap = s.buffer.snapshot(now);
            let started = s.generated > 0;
            let context = s.context_tokens();
            let remaining = s.remaining_tokens();
            let ci = self.running_ctx_idx[i] as usize;
            if let Some(v) = self.ctx_batch.requests.get_mut(ci) {
                debug_assert_eq!(v.id, id);
                v.buffered_tokens = snap.buffered;
                v.buffered_secs = snap.buffered_secs;
                v.stalled = snap.stalled_now;
                v.started = started;
                v.context_tokens = context;
                v.remaining_tokens = remaining;
            }
        }
        let st = &self.st;
        let ctx = &self.ctx_batch;
        let idx = &self.running_ctx_idx;
        let scheduler = self.scheduler.as_ref();
        let sink = &mut self.trace;
        self.iter_batch.decode.clear();
        self.iter_batch.prefill.clear();
        self.iter_batch.decode.extend(
            st.running
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, id)| st.state(id).phase == Phase::Running)
                .filter(|&(i, id)| {
                    let open = ctx
                        .requests
                        .get(idx[i] as usize)
                        .is_none_or(|v| scheduler.decode_gate(v, ctx));
                    sink.gate(now, id, !open);
                    open
                })
                .map(|(_, id)| id),
        );
        !self.iter_batch.decode.is_empty()
    }

    /// Rebuilds [`Engine::running_ctx_idx`] with one merge pass over the
    /// two id-sorted lists. Runs when the cache is stale — at a horizon's
    /// first re-gated step and after a transfer flip grows the running
    /// set — not per step.
    fn rebuild_running_ctx_idx(&mut self) {
        let reqs = &self.ctx_batch.requests;
        self.running_ctx_idx.clear();
        let mut j = 0usize;
        for &id in &self.st.running {
            while j < reqs.len() && reqs[j].id < id {
                j += 1;
            }
            if j < reqs.len() && reqs[j].id == id {
                self.running_ctx_idx.push(j as u32);
            } else {
                self.running_ctx_idx.push(u32::MAX);
            }
        }
    }

    /// The certified step: replay the (possibly re-gated) retained batch
    /// and run only the per-step stages — pricing, write-through pump,
    /// transfer advance, decode delivery, profiler and telemetry feeds.
    /// Byte-identical to the full pipeline under the horizon's
    /// certificate, just without re-deriving the identical decisions.
    fn fast_step(&mut self, now: SimTime, outcome: &mut StepOutcome) {
        let (spec, mut iter_time) = batch::price(&self.iter_batch, &self.st, &self.cost);
        if self.slowdown != 1.0 {
            iter_time = iter_time.mul_f64(self.slowdown);
        }
        debug_assert_eq!(spec.prefill_tokens, 0);
        kv_orchestrator::pump_write_through(
            &mut self.st,
            &mut self.kv,
            &self.iter_batch.decode,
            now,
            iter_time,
        );
        let end = self.clock.advance(iter_time);
        let mut kv_events = std::mem::take(&mut self.kv_events);
        kv_orchestrator::apply_transfers(
            &mut self.st,
            &mut self.kv,
            end,
            &mut kv_events,
            &mut self.trace,
        );
        self.kv_events = kv_events;
        let qos = self.config.qos;
        let decode_delivered = delivery::deliver_decode(
            &mut self.st,
            &mut self.kv,
            &self.iter_batch,
            now,
            end,
            &qos,
            outcome,
            &mut self.trace,
        );
        // Feed the profilers the same samples the full path would (the
        // prefill EMA skips zero-token records there too), so Γ reads
        // identically at the next full step.
        self.profs.prefill_rate.record(end, 0);
        self.profs.decode.record(end, decode_delivered);
        self.telemetry.sample(&self.st, &self.kv, end);
        self.iterations += 1;
        self.fast_stats.fast_steps += 1;
        outcome.now = end;
        outcome.done = self.st.all_finished() && self.arrivals.is_empty();
    }

    /// Fast-forwards an idle iteration to the next wake-up: an arrival, a
    /// transfer completion, or one idle tick while requests are alive.
    fn idle_step(&mut self, outcome: &mut StepOutcome) {
        let now = outcome.now;
        outcome.idle = true;
        let mut wake = SimTime::MAX;
        if let Some(t) = self.arrivals.peek_time() {
            wake = wake.min(t);
        }
        if let Some(t) = kv_orchestrator::next_transfer_completion(&self.kv) {
            wake = wake.min(t);
        }
        let any_live = self.st.live_count > self.st.finished_count;
        if any_live {
            wake = wake.min(now + self.idle_tick);
        }
        if wake == SimTime::MAX {
            outcome.done = self.st.all_finished();
            return;
        }
        let wake = wake.max(now + SimDuration::from_micros(1));
        self.clock.advance_to(wake);
        outcome.now = wake;
    }

    /// Advances the engine until its clock reaches `deadline`, every
    /// submitted request finishes, or the engine goes fully idle (nothing
    /// submitted, nothing in flight). Returns whether every submitted
    /// request has finished.
    ///
    /// This is the epoch-advance entry point the cluster executor drives:
    /// between two arrival barriers a replica is advanced to the next
    /// barrier time with exactly the same step semantics as
    /// [`Engine::step`] in a hand-written loop, so sequential and parallel
    /// cluster execution stay step-for-step identical. An engine whose
    /// clock is already at or past `deadline` is left untouched.
    pub fn step_until(&mut self, deadline: SimTime) -> bool {
        let mut out = StepOutcome::default();
        loop {
            if self.st.all_finished() && self.arrivals.is_empty() {
                return true;
            }
            if self.clock.now() >= deadline {
                return false;
            }
            // Every non-done step advances the clock (idle steps
            // fast-forward at least one tick while work remains), so the
            // loop terminates at the deadline.
            self.step_into(&mut out);
            if out.done {
                return true;
            }
        }
    }

    /// Runs until every submitted request completes, the safety deadline
    /// passes, or the iteration cap ([`EngineConfig::max_iterations`])
    /// trips — and says which.
    pub fn run_to_completion(&mut self) -> Completion {
        let deadline = SimTime::ZERO + self.config.deadline;
        let mut out = StepOutcome::default();
        loop {
            self.step_into(&mut out);
            if out.done {
                return Completion::Finished;
            }
            if out.now >= deadline {
                return Completion::Deadline;
            }
            if self.iterations >= self.config.max_iterations {
                return Completion::IterationCap;
            }
        }
    }

    /// Sets the compute slowdown multiplier (`1.0` restores full speed).
    /// Iteration times are stretched by the factor from the next step on.
    /// Any armed plan horizon is dropped and re-arming is suppressed
    /// while degraded, so straggler windows run the full pipeline and the
    /// fast path stays exclusive to healthy replicas.
    ///
    /// # Panics
    ///
    /// Panics unless `slowdown` is finite and at least `1.0`.
    pub fn set_compute_slowdown(&mut self, slowdown: f64) {
        assert!(
            slowdown.is_finite() && slowdown >= 1.0,
            "compute slowdown must be finite and >= 1.0"
        );
        if slowdown != 1.0 {
            self.horizon = None;
        }
        self.slowdown = slowdown;
    }

    /// Sets the host-link slowdown multiplier (`1.0` restores nominal
    /// bandwidth). Only KV transfers enqueued after the call are
    /// affected; in-flight chunks keep their enqueue-time completion, so
    /// applying it at an arrival barrier is deterministic.
    pub fn set_link_slowdown(&mut self, slowdown: f64) {
        self.kv.set_link_slowdown(slowdown);
    }

    /// Specs of every submitted-but-unfinished request, in id order —
    /// exactly what a fail-stop at this instant loses (resident KV and
    /// in-flight streams included). The specs carry this replica's dense
    /// local ids; callers owning an id mapping translate them back.
    pub fn unfinished_requests(&self) -> Vec<RequestSpec> {
        self.st
            .requests
            .iter()
            .filter(|s| s.phase != Phase::Finished)
            .map(|s| s.spec)
            .collect()
    }

    /// Plan-horizon fast-path counters accumulated so far.
    pub fn fast_path_stats(&self) -> FastPathStats {
        self.fast_stats
    }

    /// Iterations executed so far (fast and full steps both count).
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Compile-time proof that whole replicas (engine + boxed scheduler)
    /// can move across threads: the cluster's parallel epoch executor
    /// hands `&mut Engine` to pool workers, which requires `Engine:
    /// Send`. Breaking it (e.g. an `Rc` in a scheduler) fails this fn.
    #[doc(hidden)]
    pub const fn assert_send()
    where
        Self: Send,
    {
    }

    /// Finalises metrics and returns the outcome, consuming the engine.
    pub fn into_outcome(mut self) -> SimOutcome {
        let run_end = self.clock.now();
        // Let every reader drain its buffer so rebuffering is fully
        // accounted; unfinished requests are measured to run end.
        let complete = self.st.all_finished();
        for s in &mut self.st.requests {
            // Finished requests are measured to the instant their reader
            // consumes the last token — the stream is over, the reader does
            // not stall on tokens that will never come. Unfinished requests
            // are measured to the cutoff.
            let horizon = match (s.metrics.finished_at, s.buffer.drain_end()) {
                (Some(_), Some(drain)) => drain,
                _ => run_end,
            };
            let snap = s.buffer.snapshot(horizon);
            s.metrics.rebuffer = snap.rebuffer;
            s.metrics.stall_events = snap.stall_events;
        }
        let records: Vec<RequestMetrics> =
            self.st.requests.iter().map(|s| s.metrics.clone()).collect();
        let mut report = RunReport::from_records(
            &records,
            run_end.saturating_since(SimTime::ZERO),
            &self.config.qos,
        );
        report.runtime.fast_steps = self.fast_stats.fast_steps;
        report.runtime.horizons_issued = self.fast_stats.horizons_issued;
        report.runtime.horizons_invalidated = self.fast_stats.horizons_invalidated;
        report.runtime.horizons_expired = self.fast_stats.horizons_expired;
        let timelines = self
            .st
            .requests
            .iter_mut()
            .filter_map(|s| s.timeline.take())
            .collect();
        let completion = if complete {
            Completion::Finished
        } else if run_end >= SimTime::ZERO + self.config.deadline {
            Completion::Deadline
        } else if self.iterations >= self.config.max_iterations {
            Completion::IterationCap
        } else {
            // Cut off externally (e.g. a cluster driver's barrier
            // deadline) before any engine-side limit tripped.
            Completion::Deadline
        };
        SimOutcome {
            report,
            records,
            queued_series: self.telemetry.queued_series,
            running_series: self.telemetry.running_series,
            gpu_util_series: self.telemetry.gpu_util_series,
            timelines,
            scheduler: self.scheduler.name().to_string(),
            sim_time: run_end.saturating_since(SimTime::ZERO),
            complete,
            completion,
            iterations: self.iterations,
            trace: self.trace.into_journal(),
        }
    }
}
