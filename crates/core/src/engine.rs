//! The serving engine: an orchestrating shell over the staged pipeline.
//!
//! [`Engine::step`] runs one continuous-batching iteration by driving the
//! four pipeline stages in order:
//!
//! 1. `admission` — ingest due arrivals, bring the scheduler's context
//!    current, apply its plan;
//! 2. `kv_orchestrator` — apply finished KV transfers and pump
//!    write-through sync;
//! 3. `batch` — compose the prefill+decode batch, fit it into memory,
//!    price it with the cost model;
//! 4. `delivery` — advance prefills, deliver decode tokens into client
//!    buffers, finish requests, sample telemetry.
//!
//! The engine itself only owns the components and the time; all stage
//! logic lives in the stage modules, which is what lets the cluster crate
//! drive many replicas of this loop on one simulated timeline.

use tokenflow_kv::{Direction, KvConfig, KvManager};
use tokenflow_metrics::{RunReport, RuntimeCounters};
use tokenflow_model::CostModel;
use tokenflow_sched::{PlanNote, SchedContext, SchedContextBuilder, Scheduler};
use tokenflow_sim::{RequestId, SimDuration, SimTime};
use tokenflow_trace::{HorizonEndReason, TraceEventKind, TraceSink, TraceSource};
use tokenflow_workload::{ClientKind, RequestSpec};

use crate::batch::IterationBatch;
use crate::config::{EngineConfig, BLOCK_TOKENS};
use crate::delivery::Telemetry;
use crate::outcome::SimOutcome;
use crate::profiler::EngineProfilers;
use crate::state::{EngineLoad, EngineState};
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
    /// Current simulation time: advanced by each iteration's priced
    /// duration, or fast-forwarded to the idle wake-up.
    now: SimTime,
    scheduler: Box<dyn Scheduler>,
    kv: KvManager,
    st: EngineState,
    profs: EngineProfilers,
    telemetry: Telemetry,
    iterations: u64,
    /// Minimum idle fast-forward so time-sliced schedulers get woken.
    idle_tick: SimDuration,
    /// The one scheduler context, and the engine's only index of live
    /// requests. It is maintained, not rebuilt: every build applies the
    /// view journal (`EngineState::view_journal`) and refreshes the
    /// views whose fields move with time. A full step builds it for the
    /// plan, again for batch composition only when the plan acted, and
    /// once per victim round of the memory fit's emergency reclaim. An
    /// armed horizon keeps it current by applying the journal's transfer
    /// flips and refreshing the running members' progress; telemetry
    /// walks its ids.
    ctx: SchedContext,
    /// Retained iteration-batch buffer, cleared and refilled per step.
    iter_batch: IterationBatch,
    /// The active plan-horizon certificate, when armed: across certified
    /// steps the engine replays `iter_batch` (or re-gates it in place)
    /// instead of re-running admission, planning, and composition.
    horizon: Option<ArmedHorizon>,
    /// Per-horizon cache mapping `st.running[i]` to its index in
    /// `ctx.requests` (`u32::MAX` = no view). Both lists are id-sorted
    /// and the context's membership is frozen inside a horizon (its
    /// journal holds only transfer flips, which edit views in place and
    /// never insert or remove), so the gate refresh can use direct
    /// indexing instead of a binary search per member per step. Cleared
    /// at every full step; rebuilt by one merge pass when its length no
    /// longer matches the running set.
    running_ctx_idx: Vec<u32>,
    /// Retained completion-event buffer for [`Engine::apply_transfers`]
    /// and the compute window's transfer advance, so the steady state
    /// reuses one allocation.
    kv_events: Vec<tokenflow_kv::KvEvent>,
    /// Fast-path counters; the coordinator and executor ones stay zero.
    runtime: RuntimeCounters,
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
            gpu_tokens >= BLOCK_TOKENS,
            "configuration leaves no KV capacity: model does not fit"
        );
        let gpu_blocks = gpu_tokens / BLOCK_TOKENS;
        let kv = KvManager::new(KvConfig {
            block_tokens: BLOCK_TOKENS as u32,
            gpu_blocks,
            // The host pool holds eight GPU pools; transfers move
            // 256-token chunks; write-through flushes fuller buffers
            // first (§5.2).
            cpu_blocks: gpu_blocks * 8,
            kv_bytes_per_token: config.model.kv_bytes_per_token(),
            chunk_tokens: 256,
            write_through: config.write_through,
            priority_writes: true,
            offload_enabled: config.offload_enabled,
            load_evict_overlap: config.load_evict_overlap,
            pcie_bandwidth: config.hardware.pcie_bw,
            pcie_latency_us: config.hardware.pcie_latency_us,
        });
        let prefill_init = cost.prefill_time(512, 0).as_secs_f64() / 512.0;
        let thpt_init = cost.batch_throughput(config.max_batch.min(64), 1_024);
        Engine {
            cost,
            now: SimTime::ZERO,
            scheduler,
            kv,
            st: EngineState::new(),
            profs: EngineProfilers::new(prefill_init, thpt_init),
            telemetry: Telemetry::new(config.sample_interval, config.deadline),
            iterations: 0,
            idle_tick: SimDuration::from_millis(10),
            ctx: {
                // Only `plan` reads the flag, and no rebuild writes it.
                let mut ctx = SchedContextBuilder::new(SimTime::ZERO).build();
                ctx.trace_notes = config.trace;
                ctx
            },
            iter_batch: IterationBatch::default(),
            horizon: None,
            running_ctx_idx: Vec::new(),
            kv_events: Vec::new(),
            runtime: RuntimeCounters::default(),
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

    /// Submits a request with an explicit client kind. The request waits
    /// as its spec until it arrives; ingest builds its state.
    ///
    /// # Panics
    ///
    /// Panics if the spec has a zero output length or a non-positive rate.
    pub fn submit_as(&mut self, spec: RequestSpec, kind: ClientKind) -> RequestId {
        assert!(spec.output_tokens > 0, "output length must be positive");
        assert!(
            spec.rate.is_finite() && spec.rate > 0.0,
            "rate must be positive"
        );
        self.st.submit(spec, kind)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
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
            now: self.now,
            submitted: self.st.submitted(),
            live: self.st.submitted() - self.st.finished_count,
            arrived: self.st.ingested(),
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
        let now = self.now;
        outcome.now = now;
        outcome.delivered.clear();
        outcome.finished.clear();
        outcome.idle = false;
        outcome.done = false;

        // Stage 1+2 (pre-compute): ingest arrivals and apply finished KV
        // transfers. Both bump the decision epoch when they act, so they
        // run *before* the horizon check — an arrival or a transfer
        // completion lands in a full pipeline step.
        admission::ingest_arrivals(
            &mut self.st,
            now,
            self.config.timeline_requests,
            &mut self.trace,
        );
        self.apply_transfers(now);

        // Plan-horizon fast path: inside an armed, unexpired certificate
        // the scheduler's decisions are provably unchanged, so the step
        // executes the retained (possibly re-gated) batch through the
        // full step's own tail — O(batch) instead of O(live).
        if self.fast_step_applies(now) {
            self.execute(now, outcome);
            self.runtime.fast_steps += 1;
        } else {
            self.full_step(now, outcome);
        }
    }

    /// The full pipeline step: context build, plan, compose, fit, then
    /// [`Engine::execute`] — and, on a clean quiescent iteration, arming
    /// the next plan horizon.
    fn full_step(&mut self, now: SimTime, outcome: &mut StepOutcome) {
        // Any decision event between here and the end of the step
        // (admission, preemption, prefill completion, finish) moves the
        // epoch past this snapshot and vetoes arming: the retained batch
        // and context would be stale.
        let epoch_at_plan = self.st.decision_epoch;

        // Let the scheduler plan against current state.
        admission::build_ctx_into(
            &mut self.ctx,
            &mut self.st,
            &self.kv,
            &self.cost,
            &self.config,
            &self.profs,
            now,
        );
        let plan = self.scheduler.plan(&self.ctx);
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
        // just built for planning is byte-for-byte what a second build
        // would produce, so only an acting plan pays the pass twice.
        if self.st.decision_epoch != epoch_at_plan {
            admission::build_ctx_into(
                &mut self.ctx,
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
            &self.ctx,
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
            // Composition is done with the context; an emergency reclaim
            // builds it again per victim round and leaves the step unarmed.
            &mut self.ctx,
            now,
            &mut self.trace,
        );

        // Idle fast-forward when there is no compute work.
        if self.iter_batch.is_idle() {
            return self.idle_step(outcome);
        }
        self.execute(now, outcome);
        let end = outcome.now;

        // The ctx-index cache derives from this step's context and
        // running set; any new horizon starts from a fresh merge.
        self.running_ctx_idx.clear();

        // Arm the next plan horizon over clean, decode-only iterations:
        // the batch fit as composed, nothing prefill-shaped is pending,
        // and no decision event happened during the step (the epoch
        // still matches, so `ctx` and `iter_batch` describe the
        // state the next step starts from, modulo journaled transfer
        // flips the fast path applies on entry). The scheduler then
        // certifies how long its plan stays a no-op. (No horizon is
        // armed here: a full step runs only once the last one ended.)
        if self.config.plan_horizon
            && self.slowdown == 1.0
            && fits_clean
            && self.st.decision_epoch == epoch_at_plan
            && self.st.prefill_queue.is_empty()
            && self.iter_batch.prefill.is_empty()
            && !self.iter_batch.decode.is_empty()
        {
            if let Some(h) = self.scheduler.plan_horizon(&self.ctx) {
                if h.valid_until > end {
                    self.horizon = Some(ArmedHorizon {
                        valid_until: h.valid_until,
                        gates_static: h.gates_static,
                        epoch: epoch_at_plan,
                    });
                    self.runtime.horizons_issued += 1;
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
    /// the armed horizon's bookkeeping honest: a failed check ends it
    /// (the full pipeline re-arms at its next clean quiescent step).
    fn fast_step_applies(&mut self, now: SimTime) -> bool {
        let Some(h) = self.horizon else {
            return false;
        };
        let reason = if self.st.decision_epoch != h.epoch {
            HorizonEndReason::Invalidated
        } else if now >= h.valid_until {
            HorizonEndReason::Expired
        } else {
            // Apply the journal to the retained context. With the epoch
            // unchanged it holds only KV transfer completions since the
            // last build or fast step: an in-flight transfer finishing
            // flips one request's phase (`Evicting → OnCpu` or `Loading →
            // Running`) without any scheduler decision, and the horizon's
            // certificate is required to survive it. Phases and counts
            // first, so gates read the truth below. (Arrivals and
            // finishes move the epoch, so membership stays frozen.)
            let members = self.ctx.requests.len();
            let flipped = admission::apply_journal(&mut self.ctx, &mut self.st, &self.kv, now);
            debug_assert!(
                self.ctx.requests.len() == members && self.st.finished_views.is_empty(),
                "a horizon's journal holds only transfer flips"
            );
            // Pacing gates may flip with buffer levels inside the
            // horizon, and a completed load adds a decode member a frozen
            // replay would miss: re-gate the decode batch. An empty one
            // is an idle iteration, which the full pipeline owns. Then
            // the full step's own clean-fit test: decode appends that
            // need reclamation or shedding go to the full pipeline.
            let regate = flipped || !h.gates_static;
            if (!regate || self.refresh_and_regate(now))
                && batch::fits_clean(&self.iter_batch, &self.st, &self.kv)
            {
                return true;
            }
            HorizonEndReason::Invalidated
        };
        self.end_horizon(now, reason);
        false
    }

    /// Ends the armed horizon: clears it, counts why, and journals it.
    fn end_horizon(&mut self, now: SimTime, reason: HorizonEndReason) {
        self.horizon = None;
        match reason {
            HorizonEndReason::Invalidated => self.runtime.horizons_invalidated += 1,
            HorizonEndReason::Expired => self.runtime.horizons_expired += 1,
        }
        self.trace
            .emit(now, TraceEventKind::HorizonEnded { reason });
    }

    /// Refreshes the progress fields of every running member's view in
    /// the retained post-plan context, then re-gates the decode batch
    /// through [`batch::gate_decode`], reaching each view through the
    /// horizon's cached index. The running set is current at this point:
    /// decision events tore the horizon down via the epoch, and transfer
    /// flips were already applied to the context (including members a
    /// completed load just added), so only per-request progress needs
    /// refreshing. Returns `false` when the re-gated batch is empty.
    fn refresh_and_regate(&mut self, now: SimTime) -> bool {
        self.ctx.set_now(now);
        if self.running_ctx_idx.len() != self.st.running.len() {
            self.rebuild_running_ctx_idx();
        }
        let idx = &self.running_ctx_idx;
        let views = &mut self.ctx.requests;
        self.st.for_each_running(|i, s| {
            if let Some(v) = idx.get(i).and_then(|&j| views.get_mut(j as usize)) {
                debug_assert_eq!(v.id, s.spec.id);
                admission::write_progress(v, s, now);
            }
        });
        let views = &self.ctx.requests;
        batch::gate_decode(
            &mut self.iter_batch,
            &self.st,
            self.scheduler.as_ref(),
            &self.ctx,
            &mut self.trace,
            |i, _| views.get(idx[i] as usize),
        );
        !self.iter_batch.decode.is_empty()
    }

    /// Rebuilds [`Engine::running_ctx_idx`] with one merge pass over the
    /// two id-sorted lists. Runs when the cache is stale — at a horizon's
    /// first re-gated step and after a transfer flip grows the running
    /// set — not per step.
    fn rebuild_running_ctx_idx(&mut self) {
        let reqs = &self.ctx.requests;
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

    /// Runs the composed batch: prices it (a straggler window stretches
    /// it), advances the clock, runs the compute window's write-through
    /// sync and transfers in flight, delivers prefill progress
    /// and decode tokens, and feeds the profilers and telemetry. The full
    /// step and the certified fast step both end here, so the fast step
    /// is the full step minus planning.
    fn execute(&mut self, now: SimTime, outcome: &mut StepOutcome) {
        let (spec, mut iter_time) = batch::price(&self.iter_batch, &self.st, &self.cost);
        if self.slowdown != 1.0 {
            iter_time = iter_time.mul_f64(self.slowdown);
        }

        // Stage 2 (in-compute): write-through syncs and transfers
        // progress during compute.
        self.now += iter_time;
        let end = self.now;
        kv_orchestrator::run_window(
            &mut self.st,
            &mut self.kv,
            &self.iter_batch.decode,
            now,
            iter_time,
            &mut self.kv_events,
            &mut self.trace,
        );

        // Stage 4: deliveries and telemetry.
        let qos = &self.config.qos;
        delivery::apply_prefill_progress(
            &mut self.st,
            &mut self.kv,
            &self.iter_batch,
            end,
            qos,
            outcome,
            &mut self.trace,
        );
        let decode_delivered = delivery::deliver_decode(
            &mut self.st,
            &mut self.kv,
            &self.iter_batch,
            now,
            end,
            qos,
            outcome,
            &mut self.trace,
        );
        if spec.prefill_tokens > 0 {
            self.profs.prefill.record(spec.prefill_tokens, iter_time);
        }
        self.profs.prefill_rate.record(end, spec.prefill_tokens);
        self.profs.decode.record(end, decode_delivered);
        self.telemetry
            .sample(&self.st, &self.ctx.requests, &self.kv, end);
        self.iterations += 1;
        outcome.now = end;
        outcome.done = self.st.all_finished() && self.st.arrivals.is_empty();
    }

    /// Advances the transfer engine to `to` and applies its completions
    /// (see [`kv_orchestrator::apply_transfers`]) through the retained
    /// event buffer.
    fn apply_transfers(&mut self, to: SimTime) {
        kv_orchestrator::apply_transfers(
            &mut self.st,
            &mut self.kv,
            to,
            &mut self.kv_events,
            &mut self.trace,
        );
    }

    /// Fast-forwards an idle iteration to the next wake-up: an arrival, a
    /// transfer completion, or one idle tick while requests are alive.
    fn idle_step(&mut self, outcome: &mut StepOutcome) {
        let now = outcome.now;
        outcome.idle = true;
        let mut wake = SimTime::MAX;
        if let Some(p) = self.st.arrivals.front() {
            wake = wake.min(p.spec.arrival);
        }
        if let Some(t) = kv_orchestrator::next_transfer_completion(&self.kv) {
            wake = wake.min(t);
        }
        let any_live = self.st.ingested() > self.st.finished_count;
        if any_live {
            wake = wake.min(now + self.idle_tick);
        }
        if wake == SimTime::MAX {
            outcome.done = self.st.all_finished();
            return;
        }
        let wake = wake.max(now + SimDuration::from_micros(1));
        self.now = wake;
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
            if self.st.all_finished() && self.st.arrivals.is_empty() {
                return true;
            }
            if self.now >= deadline {
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
    /// Any armed plan horizon ends as invalidated (counted and journaled
    /// like every other teardown) and re-arming is suppressed while
    /// degraded, so straggler windows run the full pipeline and the fast
    /// path stays exclusive to healthy replicas.
    ///
    /// # Panics
    ///
    /// Panics unless `slowdown` is finite and at least `1.0`.
    pub fn set_compute_slowdown(&mut self, slowdown: f64) {
        assert!(
            slowdown.is_finite() && slowdown >= 1.0,
            "compute slowdown must be finite and >= 1.0"
        );
        if slowdown != 1.0 && self.horizon.is_some() {
            self.end_horizon(self.now, HorizonEndReason::Invalidated);
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
    /// in-flight streams included): the live requests and the pending
    /// ones. The specs carry this replica's dense local ids; callers
    /// owning an id mapping translate them back.
    pub fn unfinished_requests(&self) -> Vec<RequestSpec> {
        let mut specs: Vec<RequestSpec> = self
            .st
            .live_states()
            .map(|s| s.spec)
            .chain(self.st.arrivals.iter().map(|p| p.spec))
            .collect();
        specs.sort_unstable_by_key(|s| s.id);
        specs
    }

    /// Per-request state held now: live engine states (one per ingested,
    /// unfinished request) and the KV manager's per-request entries. A
    /// pending or finished request holds neither. Read by the resident-
    /// memory probes; not a stable interface.
    #[doc(hidden)]
    pub fn resident_requests(&self) -> (usize, usize) {
        (self.st.live_count(), self.kv.tracked_requests())
    }

    /// Plan-horizon fast-path counters accumulated so far.
    pub fn fast_path_stats(&self) -> RuntimeCounters {
        self.runtime
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

    /// Derives the record (see `ReqState::record`) of every request still
    /// live or pending — a finished one derived its own when it finished
    /// — and the run report from all of them, and returns the outcome,
    /// consuming the engine. Records and timelines are returned in id
    /// order, the order the report's sums run in.
    pub fn into_outcome(self) -> SimOutcome {
        let run_end = self.now;
        let complete = self.st.all_finished();
        let (records, timelines) = self.st.into_records(run_end, self.config.timeline_requests);
        let mut report = RunReport::from_records(
            &records,
            run_end.saturating_since(SimTime::ZERO),
            &self.config.qos,
        );
        report.runtime = self.runtime;
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
