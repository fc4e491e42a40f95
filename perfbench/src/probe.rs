//! Probes: spans timed from outside the simulator, and forwarding
//! wrappers that time and count calls into the scheduling, routing and
//! scale-policy layers.
//!
//! Every wrapper forwards every trait method to the wrapped policy, so a
//! probed run makes exactly the decisions an unwrapped one makes (the
//! run checks this by comparing report digests). Counters live in the
//! wrapper itself — a scheduler runs on whichever pool thread advances
//! its replica, but only ever on one at a time — and are flushed into a
//! shared, lock-protected total when the wrapper is dropped, i.e. when
//! the engine or cluster that owns it is finalised.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tokenflow_cluster::Router;
use tokenflow_control::{FleetObservation, ScaleDecision, ScalePolicy};
use tokenflow_core::EngineLoad;
use tokenflow_sched::{
    Action, PlanHorizon, PreemptMode, PrefillPolicy, ReqView, SchedContext, SchedPlan, Scheduler,
};
use tokenflow_sim::RequestId;
use tokenflow_workload::RequestSpec;

/// Nanoseconds elapsed since `start`, saturating.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Durations of one kind of span, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    total: u64,
}

impl Samples {
    /// Records one span.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.total = self.total.saturating_add(ns);
    }

    /// Appends another set of spans.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.total = self.total.saturating_add(other.total);
    }

    /// Spans recorded.
    pub fn count(&self) -> u64 {
        self.ns.len() as u64
    }

    /// Summed duration, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total
    }

    /// Mean span, nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.ns.is_empty() {
            0.0
        } else {
            self.total as f64 / self.ns.len() as f64
        }
    }

    /// The 99th-percentile span, nanoseconds (0 when empty).
    pub fn p99_ns(&self) -> f64 {
        quantile_u64(&self.ns, 0.99)
    }
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
fn quantile_u64(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    let (_, nth, _) = sorted.select_nth_unstable(rank);
    *nth as f64
}

/// Statistics a wrapper accumulates privately and flushes on drop.
pub trait Absorb: Default + Send {
    /// Adds `other`'s counts into `self`.
    fn absorb(&mut self, other: &Self);
}

/// A wrapper's private statistics plus the shared total they flush into.
#[derive(Debug)]
struct Flush<S: Absorb> {
    stats: S,
    sink: Arc<Mutex<S>>,
}

impl<S: Absorb> Flush<S> {
    fn new(sink: &Arc<Mutex<S>>) -> Self {
        Flush {
            stats: S::default(),
            sink: Arc::clone(sink),
        }
    }
}

impl<S: Absorb> Drop for Flush<S> {
    fn drop(&mut self) {
        // A poisoned lock means another wrapper panicked mid-flush; the
        // run is failing anyway, so these counts are simply dropped.
        if let Ok(mut total) = self.sink.lock() {
            total.absorb(&self.stats);
        }
    }
}

/// Reads a shared total once every wrapper feeding it has been dropped.
pub fn take<S: Absorb>(sink: &Arc<Mutex<S>>) -> S {
    match sink.lock() {
        Ok(mut total) => std::mem::take(&mut *total),
        Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
    }
}

/// Scheduler-layer counters.
#[derive(Debug, Clone, Default)]
pub struct SchedStats {
    /// `plan` spans.
    pub plan: Samples,
    /// Plans with at least one action.
    pub useful_plans: u64,
    pub admits: u64,
    pub resumes: u64,
    pub preempts: u64,
    /// `plan_horizon` calls, and how many granted a horizon.
    pub horizon_calls: u64,
    pub horizon_grants: u64,
    /// `decode_gate` calls (counted, not timed: they run per member per
    /// step, where two clock reads would dwarf the call).
    pub gate_calls: u64,
    /// `emergency_victim` / `emergency_preempt_mode` calls.
    pub emergency_calls: u64,
}

impl Absorb for SchedStats {
    fn absorb(&mut self, o: &Self) {
        self.plan.extend(&o.plan);
        self.useful_plans += o.useful_plans;
        self.admits += o.admits;
        self.resumes += o.resumes;
        self.preempts += o.preempts;
        self.horizon_calls += o.horizon_calls;
        self.horizon_grants += o.horizon_grants;
        self.gate_calls += o.gate_calls;
        self.emergency_calls += o.emergency_calls;
    }
}

/// A timed, counting [`Scheduler`] that forwards every method.
pub struct ProbedScheduler {
    inner: Box<dyn Scheduler>,
    flush: Flush<SchedStats>,
    // `&self` methods count through cells; a scheduler is owned by one
    // engine and never shared, so `Cell` (which is `Send`) suffices.
    horizon_calls: Cell<u64>,
    horizon_grants: Cell<u64>,
    gate_calls: Cell<u64>,
    emergency_calls: Cell<u64>,
}

impl ProbedScheduler {
    /// Wraps `inner`, flushing into `sink` on drop.
    pub fn new(inner: Box<dyn Scheduler>, sink: &Arc<Mutex<SchedStats>>) -> Self {
        ProbedScheduler {
            inner,
            flush: Flush::new(sink),
            horizon_calls: Cell::new(0),
            horizon_grants: Cell::new(0),
            gate_calls: Cell::new(0),
            emergency_calls: Cell::new(0),
        }
    }
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

impl Drop for ProbedScheduler {
    fn drop(&mut self) {
        let s = &mut self.flush.stats;
        s.horizon_calls += self.horizon_calls.get();
        s.horizon_grants += self.horizon_grants.get();
        s.gate_calls += self.gate_calls.get();
        s.emergency_calls += self.emergency_calls.get();
        // `flush` drops after this body and publishes the totals.
    }
}

impl Scheduler for ProbedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, ctx: &SchedContext) -> SchedPlan {
        let start = Instant::now();
        let plan = self.inner.plan(ctx);
        let s = &mut self.flush.stats;
        s.plan.push(ns_since(start));
        if !plan.actions.is_empty() {
            s.useful_plans += 1;
        }
        for action in &plan.actions {
            match action {
                Action::AdmitPrefill(_) => s.admits += 1,
                Action::Resume(_) => s.resumes += 1,
                Action::Preempt { .. } => s.preempts += 1,
            }
        }
        plan
    }

    fn plan_horizon(&self, ctx: &SchedContext) -> Option<PlanHorizon> {
        bump(&self.horizon_calls);
        let horizon = self.inner.plan_horizon(ctx);
        if horizon.is_some() {
            bump(&self.horizon_grants);
        }
        horizon
    }

    fn prefill_policy(&self) -> PrefillPolicy {
        self.inner.prefill_policy()
    }

    fn decode_gate(&self, view: &ReqView, ctx: &SchedContext) -> bool {
        bump(&self.gate_calls);
        self.inner.decode_gate(view, ctx)
    }

    fn emergency_preempt_mode(&self) -> PreemptMode {
        bump(&self.emergency_calls);
        self.inner.emergency_preempt_mode()
    }

    fn emergency_victim(&self, ctx: &SchedContext) -> Option<RequestId> {
        bump(&self.emergency_calls);
        self.inner.emergency_victim(ctx)
    }
}

/// Routing-layer counters, plus KV occupancy sampled from the load
/// snapshots every routing decision sees.
#[derive(Debug, Clone, Default)]
pub struct RouteStats {
    pub route: Samples,
    pub kv: KvSamples,
}

impl Absorb for RouteStats {
    fn absorb(&mut self, o: &Self) {
        self.route.extend(&o.route);
        self.kv.absorb(&o.kv);
    }
}

/// KV occupancy sampled from [`EngineLoad`] snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvSamples {
    pub samples: u64,
    pub gpu_util_sum: f64,
    pub transitioning_sum: f64,
}

impl KvSamples {
    /// Samples one replica's snapshot.
    pub fn sample(&mut self, load: &EngineLoad) {
        if load.gpu_total_tokens > 0 {
            let used = load.gpu_total_tokens.saturating_sub(load.gpu_free_tokens);
            self.gpu_util_sum += used as f64 / load.gpu_total_tokens as f64;
        }
        self.transitioning_sum += load.transitioning as f64;
        self.samples += 1;
    }

    fn absorb(&mut self, o: &KvSamples) {
        self.samples += o.samples;
        self.gpu_util_sum += o.gpu_util_sum;
        self.transitioning_sum += o.transitioning_sum;
    }

    /// Mean GPU KV utilisation over the samples.
    pub fn gpu_util_mean(&self) -> f64 {
        self.gpu_util_sum / self.samples.max(1) as f64
    }

    /// Mean requests mid-transfer (evicting or loading) per sample.
    pub fn transitioning_mean(&self) -> f64 {
        self.transitioning_sum / self.samples.max(1) as f64
    }
}

/// A timed [`Router`] that forwards every method.
pub struct ProbedRouter {
    inner: Box<dyn Router>,
    flush: Flush<RouteStats>,
}

impl ProbedRouter {
    /// Wraps `inner`, flushing into `sink` on drop.
    pub fn new(inner: Box<dyn Router>, sink: &Arc<Mutex<RouteStats>>) -> Self {
        ProbedRouter {
            inner,
            flush: Flush::new(sink),
        }
    }

    fn after_route(&mut self, start: Instant, loads: &[EngineLoad]) {
        let s = &mut self.flush.stats;
        s.route.push(ns_since(start));
        for load in loads {
            s.kv.sample(load);
        }
    }
}

impl Router for ProbedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, spec: &RequestSpec, loads: &[EngineLoad]) -> usize {
        let start = Instant::now();
        let pick = self.inner.route(spec, loads);
        self.after_route(start, loads);
        pick
    }

    fn load_oblivious(&self) -> bool {
        self.inner.load_oblivious()
    }

    fn route_scored(
        &mut self,
        spec: &RequestSpec,
        loads: &[EngineLoad],
        scores: &mut Vec<f64>,
    ) -> usize {
        let start = Instant::now();
        let pick = self.inner.route_scored(spec, loads, scores);
        self.after_route(start, loads);
        pick
    }
}

/// Scale-policy counters.
#[derive(Debug, Clone, Default)]
pub struct PolicyStats {
    pub decide: Samples,
}

impl Absorb for PolicyStats {
    fn absorb(&mut self, o: &Self) {
        self.decide.extend(&o.decide);
    }
}

/// A timed [`ScalePolicy`] that forwards every method.
pub struct ProbedPolicy {
    inner: Box<dyn ScalePolicy>,
    flush: Flush<PolicyStats>,
}

impl ProbedPolicy {
    /// Wraps `inner`, flushing into `sink` on drop.
    pub fn new(inner: Box<dyn ScalePolicy>, sink: &Arc<Mutex<PolicyStats>>) -> Self {
        ProbedPolicy {
            inner,
            flush: Flush::new(sink),
        }
    }
}

impl ScalePolicy for ProbedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, obs: &FleetObservation<'_>) -> ScaleDecision {
        let start = Instant::now();
        let decision = self.inner.decide(obs);
        self.flush.stats.decide.push(ns_since(start));
        decision
    }

    fn decide_traced(
        &mut self,
        obs: &FleetObservation<'_>,
        terms: &mut Vec<(&'static str, f64)>,
    ) -> ScaleDecision {
        let start = Instant::now();
        let decision = self.inner.decide_traced(obs, terms);
        self.flush.stats.decide.push(ns_since(start));
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_u64(&v, 0.99), 99.0);
        assert_eq!(quantile_u64(&v, 0.5), 50.0);
        assert_eq!(quantile_u64(&[], 0.99), 0.0);
        assert_eq!(quantile_u64(&[7], 0.99), 7.0);
    }

    #[test]
    fn dropped_wrappers_flush_into_the_shared_total() {
        let sink = Arc::new(Mutex::new(PolicyStats::default()));
        for _ in 0..3 {
            let mut f = Flush::new(&sink);
            f.stats.decide.push(10);
        }
        let total = take(&sink);
        assert_eq!(total.decide.count(), 3);
        assert_eq!(total.decide.total_ns(), 30);
    }
}
