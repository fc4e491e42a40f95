//! The cluster engine: a dynamic replica set on one simulated timeline,
//! executed as a sequence of arrival-barrier epochs.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use tokenflow_control::{
    ControlConfig, ControlPlane, ReplicaPhase, ScaleEvent, ScaleEventKind, ScalePolicy,
};
use tokenflow_core::{Engine, EngineConfig, EngineLoad, SimOutcome};
use tokenflow_fault::{FaultAction, FaultDriver, FaultPlan, PendingRetry, RetryVerdict};
use tokenflow_metrics::{
    FaultStats, FleetStats, RequestMetrics, RunReport, RuntimeCounters, Summary,
};
use tokenflow_sched::Scheduler;
use tokenflow_sim::{RequestId, SimDuration, SimTime};
use tokenflow_trace::{TraceEvent, TraceEventKind, TraceJournal, TraceSink, TraceSource};
use tokenflow_workload::{RequestSpec, Workload};

use crate::executor::{self, Execution};
use crate::pool::WorkerPool;
use crate::router::Router;

/// Where one cluster request ended up. An [`Assignment`]'s position in
/// [`ClusterOutcome::assignments`] is the request's index in cluster
/// submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Replica the router chose.
    pub replica: usize,
    /// Dense id the replica's engine assigned.
    pub local_id: RequestId,
}

/// Everything measured during one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Per-replica outcomes, in replica order (including replicas the
    /// control plane provisioned mid-run or retired early).
    pub replicas: Vec<SimOutcome>,
    /// Exact merged report, recomputed from every replica's per-request
    /// records over the cluster timeline (see
    /// [`RunReport::from_records`]). Its `replica_seconds` is the true
    /// fleet cost: `replicas × duration` for a static cluster, the
    /// control plane's billing integral for an elastic one.
    pub merged: RunReport,
    /// Router decisions, in submission order.
    pub assignments: Vec<Assignment>,
    /// The routing policy's name.
    pub router: String,
    /// The scale policy's name, when the cluster ran elastically.
    pub policy: Option<String>,
    /// Fleet-size timeline and cost accounting, when the cluster ran
    /// elastically.
    pub fleet: Option<FleetStats>,
    /// The control plane's decision log (empty for static clusters).
    pub scale_events: Vec<ScaleEvent>,
    /// Whether every replica ran its share to completion.
    pub complete: bool,
    /// The merged cluster-wide decision journal, when the run was traced
    /// ([`EngineConfig::trace`]): every replica's journal with request
    /// ids rewritten to cluster submission order, interleaved with the
    /// coordinator's dispatch decisions and the control plane's scale
    /// decisions on the shared timeline. Per-replica journals (local
    /// ids) stay available on [`ClusterOutcome::replicas`].
    pub trace: Option<TraceJournal>,
}

/// The boxed scheduler factory a cluster keeps so the control plane can
/// provision replicas mid-run.
type SchedulerFactory = Box<dyn FnMut() -> Box<dyn Scheduler> + Send>;

/// Coordinator-side fault state: the plan's [`FaultDriver`] plus the
/// bookkeeping that ties cluster-global request ids to their replica-
/// local incarnations across retries. Present only when a non-empty
/// [`FaultPlan`] was installed — the fault-free path never consults it.
struct FaultRuntime {
    driver: FaultDriver,
    /// Replicas that fail-stopped. Their `done` flag is pinned true and
    /// they are excluded from dispatch forever. Ordered structures
    /// throughout this block: the merge path iterates none of them
    /// today, but the determinism contract (see `crates/audit`) bans
    /// hash-ordered state in the deterministic tier outright so a future
    /// iteration cannot silently become run-order-dependent.
    crashed: BTreeSet<usize>,
    /// Latest incarnation of each global request id, as
    /// `(replica, local_id)` — where the request's record will be found
    /// at merge time.
    latest: BTreeMap<u64, (usize, u64)>,
    /// Incarnations a retry superseded: their partial records are
    /// dropped from the merged report (the re-dispatched incarnation
    /// carries the request from here).
    superseded: BTreeSet<(usize, u64)>,
    /// The records of arrivals rejected by shed mode, final when shed:
    /// zero progress, kept so conservation holds.
    shed: Vec<RequestMetrics>,
    /// Per-replica capacity Γ for shed pressure on static clusters
    /// (elastic clusters read the control plane's configured Γ).
    gamma: f64,
}

/// Drives a dynamic set of engine replicas on one simulated clock behind
/// a pluggable [`Router`], optionally resized by a
/// [`tokenflow_control::ControlPlane`].
///
/// Execution is a sequence of **arrival-barrier epochs**. At each barrier
/// the coordinator first lets the control plane act (bill, promote
/// booted replicas, retire drained ones, consult its
/// [`ScalePolicy`] — elastic clusters only), then routes the requests
/// due at that instant over the **active** replicas (router decisions
/// see each active replica's live
/// [`load_snapshot`](Engine::load_snapshot)); between barriers — up to
/// the next arrival, or the final drain — replicas never observe each
/// other, so each advances independently through
/// [`Engine::step_until`]. [`ClusterEngine::with_execution`] chooses
/// whether that independent work runs sequentially or on a persistent
/// worker pool. The coordinator reads the choice only to advance
/// replicas, never to route, scale or inject a fault, so it cannot
/// affect any outcome byte (see [`Execution`]).
///
/// # Examples
///
/// ```
/// use tokenflow_cluster::{ClusterEngine, Execution, LeastLoadedRouter};
/// use tokenflow_core::EngineConfig;
/// use tokenflow_model::{HardwareProfile, ModelProfile};
/// use tokenflow_sched::FcfsScheduler;
/// use tokenflow_sim::{RequestId, SimTime};
/// use tokenflow_workload::{RequestSpec, Workload};
///
/// let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200());
/// let mut cluster = ClusterEngine::new(config, 2, LeastLoadedRouter::new(), || {
///     Box::new(FcfsScheduler::new())
/// })
/// .with_execution(Execution::parallel(2));
/// cluster.submit_workload(&Workload::new(vec![RequestSpec {
///     id: RequestId(0),
///     arrival: SimTime::ZERO,
///     prompt_tokens: 128,
///     output_tokens: 32,
///     rate: 20.0,
/// }]));
/// assert!(cluster.run_to_completion());
/// let outcome = cluster.into_outcome();
/// assert_eq!(outcome.merged.completed, 1);
/// ```
pub struct ClusterEngine {
    config: EngineConfig,
    replicas: Vec<Engine>,
    router: Box<dyn Router>,
    scheduler_factory: SchedulerFactory,
    plane: Option<ControlPlane>,
    execution: Execution,
    /// Undispatched requests, sorted by arrival (submission order).
    pending: VecDeque<RequestSpec>,
    /// Per-replica "all submitted work finished" flags from the last
    /// epoch (an idle replica counts as done until work is routed to it).
    done: Vec<bool>,
    assignments: Vec<Assignment>,
    /// Next synthetic control barrier, when the plane's
    /// [`control_tick`](tokenflow_control::ControlConfig::control_tick)
    /// is enabled: re-armed to `barrier + tick` at every barrier (real
    /// or synthetic), so the plane's reaction latency during arrival
    /// gaps is bounded by one tick.
    next_tick: Option<SimTime>,
    /// The persistent worker pool behind [`Execution::Parallel`],
    /// created on the first parallel epoch and reused for the rest of
    /// the run.
    pool: Option<WorkerPool>,
    /// Coordinator-owned runtime counters: epochs, plus the pool's
    /// counts once the run is finalised.
    runtime: RuntimeCounters,
    /// Coordinator-side decision journal: one [`TraceEventKind::Dispatch`]
    /// per routed request, stamped at the request's arrival instant. A
    /// no-op sink unless [`EngineConfig::trace`] is set.
    trace: TraceSink,
    /// Scratch buffer the router writes a traced dispatch's considered
    /// scores into; the buffer moves into the emitted event.
    score_buf: Vec<f64>,
    /// Fault-injection state, when a non-empty [`FaultPlan`] is
    /// installed (see [`with_fault_plan`](ClusterEngine::with_fault_plan)).
    fault: Option<FaultRuntime>,
    /// Next cluster-global request id. Every admitted *or shed* arrival
    /// consumes one; retries keep their original id. Equal to
    /// `assignments.len()` on fault-free runs.
    next_global: u64,
    /// Per-replica map from dense local request id to cluster-global id,
    /// maintained at every submission (including retries, which map
    /// their new local id back to the original global id).
    locals: Vec<Vec<RequestId>>,
}

impl ClusterEngine {
    /// Creates a cluster of `replicas` engines sharing one configuration,
    /// each with its own scheduler instance from `scheduler_factory`,
    /// using sequential epoch execution (see
    /// [`with_execution`](ClusterEngine::with_execution)).
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero or the configuration does not fit the
    /// model (see [`Engine::new`]).
    pub fn new(
        config: EngineConfig,
        replicas: usize,
        router: impl Router + 'static,
        mut scheduler_factory: impl FnMut() -> Box<dyn Scheduler> + Send + 'static,
    ) -> Self {
        assert!(replicas > 0, "a cluster needs at least one replica");
        let engines: Vec<Engine> = (0..replicas)
            .map(|i| {
                let mut engine = Engine::from_boxed(config.clone(), scheduler_factory());
                engine.set_trace_source(TraceSource::Replica(i as u32));
                engine
            })
            .collect();
        ClusterEngine {
            done: vec![true; engines.len()],
            locals: vec![Vec::new(); engines.len()],
            replicas: engines,
            router: Box::new(router),
            scheduler_factory: Box::new(scheduler_factory),
            plane: None,
            execution: Execution::Sequential,
            pending: VecDeque::new(),
            assignments: Vec::new(),
            next_tick: None,
            pool: None,
            runtime: RuntimeCounters::default(),
            trace: if config.trace {
                TraceSink::enabled(TraceSource::Coordinator)
            } else {
                TraceSink::disabled()
            },
            score_buf: Vec::new(),
            fault: None,
            next_global: 0,
            config,
        }
    }

    /// Sets the epoch execution strategy. Sequential and parallel
    /// execution produce byte-identical outcomes; parallel execution only
    /// changes how much wall-clock time a many-replica simulation costs.
    pub fn with_execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Makes the cluster elastic: a control plane bootstrapped with the
    /// current fleet (all active) observes every arrival barrier and
    /// resizes the replica set through `policy` — provisioning new
    /// engines after `control.boot_delay`, draining and retiring surplus
    /// ones. When `control` enables a
    /// [`control_tick`](tokenflow_control::ControlConfig::control_tick),
    /// synthetic barriers at that interval keep the plane observing (and
    /// retiring drained replicas) through arrival gaps. Call before
    /// running.
    ///
    /// # Panics
    ///
    /// Panics if the current fleet lies outside the configured bounds
    /// (see [`ControlPlane::new`]).
    pub fn with_autoscaler(
        mut self,
        policy: impl ScalePolicy + 'static,
        control: ControlConfig,
    ) -> Self {
        self.next_tick = control.control_tick.map(|d| SimTime::ZERO + d);
        let mut plane = ControlPlane::new(policy, control, self.replicas.len());
        if self.config.trace {
            plane.enable_trace();
        }
        if let Some(fault) = &self.fault {
            // `with_fault_plan` may run in either order with this call.
            plane.set_boot_failures(fault.driver.plan().boot_failures.iter().copied());
        }
        self.plane = Some(plane);
        self
    }

    /// Installs a deterministic fault plan: crashes, degradation windows,
    /// and boot failures become synthetic arrival barriers, and the
    /// plan's [`RetryPolicy`](tokenflow_fault::RetryPolicy) governs how
    /// requests lost to crashes are re-queued. On an elastic cluster the
    /// re-queued residents join the plane's arrival group at the next
    /// barrier, so crash-aware scale policies see lost capacity as demand
    /// pressure without any side channel. An **empty** plan is treated
    /// exactly like no plan at all, so a fault-free plan cannot perturb a
    /// single byte of any outcome. Call before running (in any order
    /// with [`with_autoscaler`](ClusterEngine::with_autoscaler)).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        if plan.is_empty() {
            return self;
        }
        if let Some(plane) = self.plane.as_mut() {
            plane.set_boot_failures(plan.boot_failures.iter().copied());
        }
        let gamma = ControlConfig::for_engine(&self.config).gamma;
        self.fault = Some(FaultRuntime {
            driver: FaultDriver::new(plan),
            crashed: BTreeSet::new(),
            latest: BTreeMap::new(),
            superseded: BTreeSet::new(),
            shed: Vec::new(),
            gamma,
        });
        self
    }

    /// The cluster timeline: the furthest-behind replica that still has
    /// work. A finished replica's clock freezes, so once everything is
    /// idle the timeline is the furthest-ahead clock instead.
    pub fn now(&self) -> SimTime {
        let busy = (0..self.replicas.len())
            .filter(|&i| !self.done[i])
            .map(|i| self.replicas[i].now())
            .min();
        busy.unwrap_or_else(|| {
            self.replicas
                .iter()
                .map(|e| e.now())
                .max()
                .expect("non-empty replica set")
        })
    }

    /// Queues one request for routed dispatch at its arrival time.
    ///
    /// Requests must be submitted in non-decreasing arrival order (as
    /// [`Workload`] construction guarantees).
    ///
    /// # Panics
    ///
    /// Panics if `spec` arrives before an already-queued request.
    pub fn submit(&mut self, spec: RequestSpec) {
        if let Some(last) = self.pending.back() {
            assert!(
                last.arrival <= spec.arrival,
                "cluster submissions must be in arrival order"
            );
        }
        self.pending.push_back(spec);
    }

    /// Queues a whole workload.
    pub fn submit_workload(&mut self, workload: &Workload) {
        for spec in workload.iter() {
            self.submit(*spec);
        }
    }

    /// Replicas currently eligible for dispatch: the control plane's
    /// active set, or every non-crashed replica on a static cluster
    /// (an elastic plane already excludes crashed replicas — they are
    /// [`ReplicaPhase::Failed`]).
    fn active_indices(&self) -> Vec<usize> {
        match &self.plane {
            Some(plane) => plane.active_indices(),
            None => match &self.fault {
                Some(f) => (0..self.replicas.len())
                    .filter(|i| !f.crashed.contains(i))
                    .collect(),
                None => (0..self.replicas.len()).collect(),
            },
        }
    }

    /// Runs the control plane's barrier step at `t`: billing, promotion,
    /// retirement, the scale decision over all replicas' snapshots plus
    /// the arrival group due at `t` (and any retries dispatching at this
    /// barrier — lost capacity re-queueing its residents reads as demand
    /// pressure, which is how crash recovery feeds the scale policy), and
    /// reconciliation (one fresh engine per newly provisioned replica).
    /// Coordinator thread only.
    fn control_barrier(&mut self, t: SimTime, retries: &[PendingRetry]) {
        let deadline = self.deadline();
        let Some(plane) = self.plane.as_mut() else {
            return;
        };
        let loads: Vec<EngineLoad> = self.replicas.iter().map(|e| e.load_snapshot()).collect();
        let mut group: Vec<RequestSpec> = self
            .pending
            .iter()
            .take_while(|s| s.arrival <= t)
            .copied()
            .collect();
        group.extend(retries.iter().map(|r| r.spec));
        // Post-deadline arrivals are still routed (conservation), but
        // the plane must not observe instants the engines can never
        // reach — billing replica-seconds across a frozen fleet would
        // report a bill larger than the run itself.
        let barrier_at = t.min(deadline);
        plane.barrier(barrier_at, &loads, &group);
        // Re-arm the synthetic tick relative to this barrier, so ticks
        // only fire when no real barrier happened for a whole interval.
        self.next_tick = plane.config().control_tick.map(|d| barrier_at + d);
        let target = plane.replica_count();
        while self.replicas.len() < target {
            let mut engine = Engine::from_boxed(self.config.clone(), (self.scheduler_factory)());
            engine.set_trace_source(TraceSource::Replica(self.replicas.len() as u32));
            self.replicas.push(engine);
            self.done.push(true);
            self.locals.push(Vec::new());
        }
    }

    /// Routes every pending request whose arrival is due by `t` over the
    /// active replica set. Runs on the coordinator thread only — this is
    /// the barrier where replicas become observable to each other
    /// (through their load snapshots).
    fn dispatch_due(&mut self, t: SimTime) {
        // The active set is pinned for the whole group: the plane only
        // mutates at control_barrier, never mid-dispatch. Load
        // snapshots are re-read per request (submissions change them) —
        // except for load-oblivious routers, which never read snapshot
        // contents, so one set per group is byte-identical and O(fleet)
        // cheaper on wide clusters.
        let active = self.active_indices();
        let oblivious = self.router.load_oblivious();
        let mut cached: Option<Vec<EngineLoad>> = None;
        // Pressure-triggered shed mode (fault runs only): evaluated once
        // per barrier over the active set's declared streaming demand.
        // When the fleet is saturated past the configured threshold — or
        // when faults left no active replica at all — first-attempt
        // arrivals are rejected instead of admitted; retries never pass
        // through here and always dispatch.
        let shed = self.fault.as_ref().is_some_and(|f| {
            if active.is_empty() {
                return true;
            }
            let Some(threshold) = f.driver.plan().shed_utilization else {
                return false;
            };
            let gamma = self.plane.as_ref().map_or(f.gamma, |p| p.config().gamma);
            let rate: f64 = active
                .iter()
                .map(|&i| self.replicas[i].load_snapshot().rate_sum)
                .sum();
            rate / (active.len() as f64 * gamma) > threshold
        });
        while self.pending.front().is_some_and(|s| s.arrival <= t) {
            let spec = self.pending.pop_front().expect("front checked");
            let global = self.next_global;
            self.next_global += 1;
            if shed {
                let fault = self.fault.as_mut().expect("shed implies fault runtime");
                fault.driver.on_shed();
                fault.shed.push(RequestMetrics::new(
                    RequestId(global),
                    spec.arrival,
                    spec.rate,
                    spec.output_tokens,
                ));
                self.trace.emit(
                    spec.arrival,
                    TraceEventKind::AdmissionShed {
                        id: RequestId(global),
                    },
                );
                continue;
            }
            assert!(
                !active.is_empty(),
                "no active replica to dispatch to (fleet floor must be >= 1)"
            );
            if !oblivious {
                cached = None;
            }
            let loads = cached.get_or_insert_with(|| {
                active
                    .iter()
                    .map(|&i| self.replicas[i].load_snapshot())
                    .collect()
            });
            let pick = self.route(&spec, loads);
            let replica = active[pick];
            debug_assert!(
                self.plane
                    .as_ref()
                    .is_none_or(|p| p.phases()[replica].accepts_dispatch()),
                "dispatch to a non-active replica"
            );
            let scores = std::mem::take(&mut self.score_buf);
            let local_id = self.place(replica, spec, global, spec.arrival, scores);
            self.assignments.push(Assignment { replica, local_id });
        }
    }

    /// One routing decision over `loads` (indexed like the active set),
    /// recording the router's scores into `score_buf` when the run is
    /// traced.
    fn route(&mut self, spec: &RequestSpec, loads: &[EngineLoad]) -> usize {
        let pick = if self.trace.is_enabled() {
            self.router.route_scored(spec, loads, &mut self.score_buf)
        } else {
            self.router.route(spec, loads)
        };
        assert!(pick < loads.len(), "router index out of range");
        pick
    }

    /// Submits `spec` to `replica` as cluster request `global`: journals
    /// the dispatch at `at` with the router's traced `scores`, maps the
    /// new replica-local id back to `global`, and records it as the
    /// request's latest incarnation (a retry supersedes the lost one).
    /// Both dispatch paths — arrival groups and retries — go through
    /// here, so their journals and bookkeeping cannot drift apart. The
    /// journal speaks cluster submission order and is stamped with the
    /// instant the barrier serves.
    fn place(
        &mut self,
        replica: usize,
        spec: RequestSpec,
        global: u64,
        at: SimTime,
        scores: Vec<f64>,
    ) -> RequestId {
        if self.trace.is_enabled() {
            self.trace.emit(
                at,
                TraceEventKind::Dispatch {
                    id: RequestId(global),
                    replica: replica as u32,
                    scores,
                },
            );
        }
        let local_id = self.replicas[replica].submit(spec);
        debug_assert_eq!(
            local_id.0 as usize,
            self.locals[replica].len(),
            "engines assign dense local ids in submission order"
        );
        self.locals[replica].push(RequestId(global));
        if let Some(fault) = self.fault.as_mut() {
            if let Some(prev) = fault.latest.insert(global, (replica, local_id.0)) {
                fault.superseded.insert(prev);
            }
        }
        self.done[replica] = false;
        local_id
    }

    /// Applies every fault action due at or before `t`, on the
    /// coordinator thread with all replica clocks at (not beyond) the
    /// barrier — the same contract arrival barriers have, which is what
    /// keeps fault injection byte-invariant across epoch executors.
    fn apply_due_faults(&mut self, t: SimTime) {
        let actions = match self.fault.as_mut() {
            Some(f) => f.driver.due_actions(t),
            None => return,
        };
        for (_, action) in actions {
            match action {
                FaultAction::Crash { replica } => self.crash_replica(t, replica),
                FaultAction::SetCompute { replica, slowdown } => {
                    if replica < self.replicas.len() && self.alive(replica) {
                        self.replicas[replica].set_compute_slowdown(slowdown);
                        self.trace.emit(
                            t,
                            TraceEventKind::ReplicaDegraded {
                                replica: replica as u32,
                                factor: 1.0 / slowdown,
                            },
                        );
                    }
                }
                FaultAction::SetLink { replica, slowdown } => {
                    if replica < self.replicas.len() && self.alive(replica) {
                        self.replicas[replica].set_link_slowdown(slowdown);
                        self.trace.emit(
                            t,
                            TraceEventKind::LinkDegraded {
                                replica: replica as u32,
                                factor: 1.0 / slowdown,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Whether a replica can still be the target of a fault action: it
    /// has not crashed, and an elastic plane has not already moved it
    /// permanently out of the fleet.
    fn alive(&self, replica: usize) -> bool {
        if self
            .fault
            .as_ref()
            .is_some_and(|f| f.crashed.contains(&replica))
        {
            return false;
        }
        self.plane.as_ref().is_none_or(|p| {
            !matches!(
                p.phases()[replica],
                ReplicaPhase::Retired | ReplicaPhase::Failed
            )
        })
    }

    /// Fail-stops one replica at barrier instant `t`: every resident
    /// request (any phase short of finished) is lost along with its KV,
    /// the replica leaves the fleet permanently, and each lost request is
    /// charged one attempt against the retry policy — re-queued at a
    /// deterministic backoff or abandoned.
    fn crash_replica(&mut self, t: SimTime, replica: usize) {
        // A crash scheduled for a replica index the fleet never reached,
        // or one already out of the fleet, is a deterministic no-op.
        if replica >= self.replicas.len() || !self.alive(replica) {
            return;
        }
        let lost = self.replicas[replica].unfinished_requests();
        self.trace.emit(
            t,
            TraceEventKind::ReplicaCrashed {
                replica: replica as u32,
                lost: lost.len() as u64,
            },
        );
        {
            let fault = self.fault.as_mut().expect("crash implies fault runtime");
            fault.crashed.insert(replica);
            fault.driver.tally.crashes += 1;
        }
        for local in lost {
            let global = self.locals[replica][local.id.0 as usize].0;
            self.trace.emit(
                t,
                TraceEventKind::RequestLost {
                    id: RequestId(global),
                    replica: replica as u32,
                },
            );
            let fault = self.fault.as_mut().expect("crash implies fault runtime");
            let verdict = fault.driver.on_lost(global, local, t);
            self.journal_verdict(t, global, verdict);
        }
        // The dead engine never steps again; its partial records are
        // resolved at merge time (superseded by a retry, or kept as the
        // abandoned request's final state).
        self.done[replica] = true;
        if let Some(plane) = self.plane.as_mut() {
            plane.mark_failed(t, replica);
        }
    }

    /// Journals what the retry policy decided at `t` for lost request
    /// `global`: another attempt after a backoff, or abandonment.
    fn journal_verdict(&mut self, t: SimTime, global: u64, verdict: RetryVerdict) {
        let id = RequestId(global);
        let kind = match verdict {
            RetryVerdict::Retry { attempt, .. } => TraceEventKind::RetryScheduled { id, attempt },
            RetryVerdict::Abandon { attempts } => TraceEventKind::RequestAbandoned { id, attempts },
        };
        self.trace.emit(t, kind);
    }

    /// Re-dispatches every drained retry at barrier instant `t` through
    /// the router, over the live active set. Retries keep their original
    /// arrival time (TTFT honestly includes the disruption) and their
    /// original cluster-global id — the new replica-local incarnation
    /// maps back to it, superseding the lost one. A retry that finds no
    /// dispatchable replica burns one more attempt and backs off again
    /// (or is abandoned): deterministic and stall-free.
    fn dispatch_retries(&mut self, t: SimTime, retries: Vec<PendingRetry>) {
        if retries.is_empty() {
            return;
        }
        let active = self.active_indices();
        for retry in retries {
            if active.is_empty() {
                let fault = self.fault.as_mut().expect("retries imply fault runtime");
                let verdict = fault.driver.on_undispatchable(retry, t);
                self.journal_verdict(t, retry.global, verdict);
                continue;
            }
            let loads: Vec<EngineLoad> = active
                .iter()
                .map(|&i| self.replicas[i].load_snapshot())
                .collect();
            let pick = self.route(&retry.spec, &loads);
            let scores = std::mem::take(&mut self.score_buf);
            self.place(active[pick], retry.spec, retry.global, t, scores);
        }
    }

    /// The safety deadline: no replica clock advances past it.
    fn deadline(&self) -> SimTime {
        SimTime::ZERO + self.config.deadline
    }

    /// Whether lost requests are still waiting out a retry backoff.
    fn retries_pending(&self) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|f| f.driver.has_pending_retries())
    }

    /// The earliest instant the coordinator must act at: the next
    /// arrival, control tick, scheduled fault action, or retry due time.
    /// [`epoch`](ClusterEngine::epoch) serves this barrier and then
    /// advances replicas to the *following* one, so the barrier choice
    /// and the advance bound come from this one definition and a new
    /// barrier source is one entry here.
    ///
    /// A control tick is a *synthetic* barrier: the plane observes fresh
    /// load snapshots and may act, but nothing is dispatched, which
    /// bounds its reaction latency in arrival gaps (without it a drain
    /// with no arrivals is invisible until run end). Ticks and fault
    /// actions at or past the safety deadline never fire: the engines
    /// cannot reach those instants, and a tick that kept preempting a
    /// post-deadline arrival would stall the epoch loop. Arrivals and
    /// retries are not deadline-filtered: a post-deadline request still
    /// dispatches, so it strands on a replica as an unfinished record
    /// instead of vanishing (conservation holds on incomplete runs too).
    fn next_barrier(&self) -> Option<SimTime> {
        let deadline = self.deadline();
        let arrival = self.pending.front().map(|s| s.arrival);
        let tick = self.next_tick.filter(|&t| t < deadline);
        let (fault_at, retry_at) = match &self.fault {
            Some(f) => (
                f.driver.next_action_time().filter(|&t| t < deadline),
                f.driver.next_retry_due(),
            ),
            None => (None, None),
        };
        [arrival, tick, fault_at, retry_at]
            .into_iter()
            .flatten()
            .min()
    }

    /// Runs one epoch: serve the next barrier (apply due faults, let the
    /// control plane act, re-dispatch due retries, route the due arrival
    /// group), then advance every busy replica — under the configured
    /// [`Execution`] strategy — until the following barrier, or the
    /// safety deadline on the final drain. Returns `false` once no
    /// further epoch can make progress: everything is dispatched and
    /// finished, or every busy replica has reached the deadline.
    pub fn epoch(&mut self) -> bool {
        if self.pending.is_empty() && self.done.iter().all(|&d| d) && !self.retries_pending() {
            return false;
        }
        let deadline = self.deadline();
        if let Some(t) = self.next_barrier() {
            self.apply_due_faults(t);
            let retries = match self.fault.as_mut() {
                Some(f) => f.driver.due_retries(t),
                None => Vec::new(),
            };
            self.control_barrier(t, &retries);
            self.dispatch_retries(t, retries);
            if self.pending.front().is_some_and(|s| s.arrival == t) {
                self.dispatch_due(t);
            }
        }
        // Replicas never advance past the next barrier of any kind, so
        // every barrier is served with all replica clocks at (not
        // beyond) it — the contract that keeps routing, scaling and
        // fault injection byte-invariant across executors.
        let until = self.next_barrier().map_or(deadline, |t| t.min(deadline));
        executor::advance_until(
            &mut self.replicas,
            &mut self.done,
            until,
            self.execution,
            &mut self.pool,
        );
        self.runtime.epochs += 1;
        // Another epoch can make progress while arrivals remain, a retry
        // is waiting for its backoff, or some busy replica still sits
        // short of the deadline.
        !self.pending.is_empty()
            || self.retries_pending()
            || self
                .replicas
                .iter()
                .zip(&self.done)
                .any(|(e, &d)| !d && e.now() < deadline)
    }

    /// Runs epochs until every submitted request completes on its replica
    /// (or a replica hits the configured deadline). Returns whether the
    /// cluster completed.
    pub fn run_to_completion(&mut self) -> bool {
        while self.epoch() {}
        self.pending.is_empty() && self.done.iter().all(|&d| d)
    }

    /// Runs a whole workload through this cluster and returns its
    /// outcome: the one-call entry point mirroring
    /// [`tokenflow_core::run_simulation`] for every shape the builder
    /// assembles — static or elastic, with or without a fault plan,
    /// under any [`Execution`] (which never changes a result, scale
    /// decisions and fault recovery included).
    pub fn run(mut self, workload: &Workload) -> ClusterOutcome {
        self.submit_workload(workload);
        self.run_to_completion();
        self.into_outcome()
    }

    /// Finalises every replica and returns per-replica plus merged
    /// results, consuming the cluster.
    pub fn into_outcome(mut self) -> ClusterOutcome {
        // Terminal lifecycle barrier: replicas drained after the last
        // arrival retire here (no scale decision — just bookkeeping).
        if let Some(plane) = self.plane.as_mut() {
            let end = self
                .replicas
                .iter()
                .map(Engine::now)
                .max()
                .expect("non-empty replica set");
            let loads: Vec<EngineLoad> = self.replicas.iter().map(|e| e.load_snapshot()).collect();
            plane.close(end, &loads);
        }
        let traced = self.trace.is_enabled();
        let mut trace_parts: Vec<Vec<TraceEvent>> = Vec::new();
        if traced {
            trace_parts.push(self.trace.drain());
            if let Some(plane) = self.plane.as_mut() {
                trace_parts.push(plane.take_trace_events());
            }
        }
        let router = self.router.name().to_string();
        let policy = self.plane.as_ref().map(|p| p.policy_name().to_string());
        let complete = self.pending.is_empty() && !self.retries_pending();
        let replica_total = self.replicas.len();
        let replicas: Vec<SimOutcome> = self
            .replicas
            .into_iter()
            .map(|e| e.into_outcome())
            .collect();
        // A crashed replica is never complete (its residents were lost),
        // but the run still is: every lost request reached a terminal
        // state elsewhere — recovered on a live replica or abandoned.
        let complete = complete
            && replicas.iter().enumerate().all(|(i, o)| {
                o.complete || self.fault.as_ref().is_some_and(|f| f.crashed.contains(&i))
            });
        // Exact merge: recompute the run report from every replica's
        // per-request records, by reference, over the cluster's full
        // timeline. Under a fault plan each request contributes exactly
        // one record: its latest incarnation (superseded ones are
        // dropped), or its shed record. The filter runs once, not once
        // per aggregation pass.
        let superseded = self.fault.as_ref().map(|f| &f.superseded);
        let records: Vec<&RequestMetrics> = replicas
            .iter()
            .enumerate()
            .flat_map(|(r, o)| {
                o.records
                    .iter()
                    .filter(move |rec| superseded.is_none_or(|s| !s.contains(&(r, rec.id.0))))
            })
            .chain(self.fault.iter().flat_map(|f| &f.shed))
            .collect();
        let duration = replicas
            .iter()
            .map(|o| o.sim_time)
            .max()
            .unwrap_or(SimDuration::ZERO);
        let mut merged =
            RunReport::from_records(records.iter().copied(), duration, &self.config.qos);
        // Fleet-wide runtime counters: the replicas' fast-path counters
        // merged with the coordinator's executor counters.
        if let Some(pool) = &self.pool {
            self.runtime.pool_workers = pool.spawned_workers() as u64;
            self.runtime.pool_submissions = pool.submissions();
        }
        let parts = replicas.iter().map(|o| &o.report.runtime);
        merged.runtime = RuntimeCounters::merged(parts.chain([&self.runtime]));
        // Merge the decision journals onto one timeline, copying each
        // replica event once with its dense local request ids rewritten
        // to cluster-global ids (the ids the coordinator's dispatch
        // events already speak); the replica journals keep their local
        // ids. The `locals` tables are maintained at submission time, so
        // a retried request's every incarnation maps back to its
        // original id.
        let trace = if traced {
            for (outcome, table) in replicas.iter().zip(&self.locals) {
                if let Some(journal) = &outcome.trace {
                    let global = journal.events.iter().map(|e| {
                        let mut e = e.clone();
                        e.kind.map_ids(|id| table[id.0 as usize]);
                        e
                    });
                    trace_parts.push(global.collect());
                }
            }
            Some(TraceJournal::merge(trace_parts))
        } else {
            None
        };
        let (fleet, scale_events) = match self.plane {
            Some(plane) => {
                // Close the billing integral at the cluster's end instant
                // — the furthest any replica's clock reached.
                let (stats, events) = plane.finalize(SimTime::ZERO + duration);
                merged.replica_seconds = stats.replica_seconds;
                (Some(stats), events)
            }
            None => {
                // A static fleet bills every replica for the whole run.
                merged.replica_seconds = replica_total as f64 * duration.as_secs_f64();
                (None, Vec::new())
            }
        };
        if let Some(fault) = &self.fault {
            let tally = fault.driver.tally;
            let mut stats = FaultStats {
                crashes: tally.crashes,
                boot_failures: scale_events
                    .iter()
                    .filter(|e| matches!(e.kind, ScaleEventKind::BootFailed))
                    .count() as u64,
                lost_events: tally.lost_events,
                recovered: 0,
                abandoned: tally.abandoned,
                shed: tally.shed,
                retry_attempts: Vec::new(),
                recovery_latency: Summary::default(),
            };
            let mut latencies = Vec::new();
            for (global, attempts, first_lost) in fault.driver.lost_requests() {
                let slot = attempts as usize - 1;
                if stats.retry_attempts.len() <= slot {
                    stats.retry_attempts.resize(slot + 1, 0);
                }
                stats.retry_attempts[slot] += 1;
                // Recovered = lost at least once, finished anyway: the
                // latest incarnation's record has a completion time.
                let (r, local) = fault.latest[&global];
                if let Some(done_at) = replicas[r]
                    .records
                    .get(local as usize)
                    .and_then(|rec| rec.finished_at)
                {
                    stats.recovered += 1;
                    latencies.push(done_at.saturating_since(first_lost).as_secs_f64());
                }
            }
            stats.recovery_latency = Summary::of(&latencies);
            merged.faults = Some(stats);
        }
        ClusterOutcome {
            replicas,
            merged,
            assignments: self.assignments,
            router,
            policy,
            fleet,
            scale_events,
            complete,
            trace,
        }
    }
}

// Evaluated at compile time: a whole cluster (replicas + boxed router +
// scheduler factory + control plane) must stay movable across threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ClusterEngine>()
};
