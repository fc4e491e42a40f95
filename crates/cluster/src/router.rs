//! Request routing across engine replicas.
//!
//! A [`Router`] sees only [`EngineLoad`] snapshots — never engine
//! internals — so routing policies stay decoupled from the serving
//! pipeline and deterministic. Four built-in policies cover the classic
//! spectrum:
//!
//! * [`RoundRobinRouter`] — load-oblivious rotation, the baseline.
//! * [`LeastLoadedRouter`] — joins the replica with the fewest live
//!   requests (join-shortest-queue).
//! * [`BacklogAwareRouter`] — joins the replica with the smallest
//!   pending prefill backlog (join-shortest-prefill-queue): TTFT-aware
//!   dispatch that spreads a burst's prompt tokens instead of herding
//!   onto cold replicas — essential once an elastic fleet activates
//!   empty replicas mid-burst.
//! * [`RateAwareRouter`] — QoS routing: balances *declared streaming
//!   demand* (`Σ rᵢ`, the left side of the paper's schedulability test)
//!   rather than request counts, scaled by each replica's KV headroom, so
//!   a replica stuffed with high-rate streams is not treated as equal to
//!   one serving slow readers.

use tokenflow_core::EngineLoad;
use tokenflow_workload::RequestSpec;

/// A cluster routing policy.
///
/// Implementations must be deterministic: identical snapshots and specs
/// must produce identical choices, so cluster runs reproduce bit-for-bit.
///
/// `Send` is a supertrait so a [`ClusterEngine`](crate::ClusterEngine)
/// holding a boxed router stays movable across threads alongside its
/// replicas. The router itself always runs on the coordinator thread (at
/// arrival barriers) — the bound never implies concurrent routing.
pub trait Router: Send {
    /// Short policy name for reports (e.g. `"least-loaded"`).
    fn name(&self) -> &'static str;

    /// Chooses the replica (an index into `loads`) for one request.
    ///
    /// `loads` holds one snapshot per replica, in replica order, and is
    /// never empty.
    fn route(&mut self, spec: &RequestSpec, loads: &[EngineLoad]) -> usize;

    /// Whether this policy's decisions are independent of snapshot
    /// *contents* (it may still read `loads.len()`). A router returning
    /// `true` must produce the same pick sequence for any snapshot
    /// values of a given length, and leave [`route_scored`]'s `scores`
    /// empty; the cluster exploits that to reuse one snapshot set per
    /// dispatch group. Defaults to `false` — the conservative answer is
    /// always sound.
    ///
    /// [`route_scored`]: Router::route_scored
    fn load_oblivious(&self) -> bool {
        false
    }

    /// [`route`](Router::route), but also reporting the per-replica
    /// scores the decision considered into `scores` (one entry per
    /// `loads` entry, lower is better) for trace journals. Policies
    /// without a numeric score — rotation, lexicographic tie-break
    /// chains — leave `scores` empty. The pick MUST be identical to what
    /// [`route`](Router::route) would have returned, and internal state
    /// must advance identically: tracing a run may never change where
    /// requests land. The default clears `scores` and delegates.
    fn route_scored(
        &mut self,
        spec: &RequestSpec,
        loads: &[EngineLoad],
        scores: &mut Vec<f64>,
    ) -> usize {
        scores.clear();
        self.route(spec, loads)
    }
}

/// Boxed routers are routers.
impl<R: Router + ?Sized> Router for Box<R> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn route(&mut self, spec: &RequestSpec, loads: &[EngineLoad]) -> usize {
        (**self).route(spec, loads)
    }

    fn load_oblivious(&self) -> bool {
        (**self).load_oblivious()
    }

    fn route_scored(
        &mut self,
        spec: &RequestSpec,
        loads: &[EngineLoad],
        scores: &mut Vec<f64>,
    ) -> usize {
        (**self).route_scored(spec, loads, scores)
    }
}

/// Load-oblivious rotation over replicas.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinRouter {
    next: usize,
}

impl RoundRobinRouter {
    /// Creates a router starting at replica 0.
    pub fn new() -> Self {
        RoundRobinRouter::default()
    }
}

impl Router for RoundRobinRouter {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _spec: &RequestSpec, loads: &[EngineLoad]) -> usize {
        let choice = self.next % loads.len();
        self.next = (self.next + 1) % loads.len();
        choice
    }

    fn load_oblivious(&self) -> bool {
        // Rotation reads only `loads.len()`, which is fixed between
        // control barriers — the contract `load_oblivious` promises.
        true
    }
}

/// Join-shortest-queue: the replica with the fewest live requests wins;
/// ties break toward the smaller pending prefill backlog (admission
/// pressure a new request would queue behind), then more free KV, then
/// the lowest index.
#[derive(Debug, Clone, Default)]
pub struct LeastLoadedRouter;

impl LeastLoadedRouter {
    /// Creates the router.
    pub fn new() -> Self {
        LeastLoadedRouter
    }
}

impl Router for LeastLoadedRouter {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn route(&mut self, _spec: &RequestSpec, loads: &[EngineLoad]) -> usize {
        loads
            .iter()
            .enumerate()
            .min_by_key(|(i, l)| {
                (
                    l.live,
                    l.pending_prefill_tokens,
                    u64::MAX - l.gpu_free_tokens,
                    *i,
                )
            })
            .map(|(i, _)| i)
            .expect("non-empty replica set")
    }
}

/// Join-shortest-prefill-queue: the replica with the smallest pending
/// prefill backlog wins; ties break toward fewer live requests, then
/// more free KV, then the lowest index.
///
/// This is TTFT-aware dispatch — the router-level analogue of
/// admission-pressure autoscaling. A new request's first token waits
/// behind every prompt token queued ahead of it, and under a burst the
/// live-count key of [`LeastLoadedRouter`] herds arrivals onto the
/// emptiest (often freshly provisioned, stone-cold) replica until its
/// count catches up, serialising the whole burst's prefill there.
/// Keying on the backlog spreads the burst's prompt tokens evenly
/// instead: each dispatch lands on the replica where the request would
/// start prefilling soonest. In backlog-free steady state the tie-break
/// chain makes it behave like [`LeastLoadedRouter`].
#[derive(Debug, Clone, Default)]
pub struct BacklogAwareRouter;

impl BacklogAwareRouter {
    /// Creates the router.
    pub fn new() -> Self {
        BacklogAwareRouter
    }
}

impl Router for BacklogAwareRouter {
    fn name(&self) -> &'static str {
        "backlog-aware"
    }

    fn route(&mut self, _spec: &RequestSpec, loads: &[EngineLoad]) -> usize {
        loads
            .iter()
            .enumerate()
            .min_by_key(|(i, l)| {
                (
                    l.pending_prefill_tokens,
                    l.live,
                    u64::MAX - l.gpu_free_tokens,
                    *i,
                )
            })
            .map(|(i, _)| i)
            .expect("non-empty replica set")
    }
}

/// Rate-aware QoS routing: joins the replica where the request's declared
/// streaming rate fits the most demand headroom.
///
/// Each replica is scored by its post-admission demand `Σ rᵢ + r_new`,
/// inflated by KV memory pressure (a replica whose pool is nearly full
/// will have to preempt to admit anything, so its effective capacity is
/// discounted). Lowest score wins; ties break toward the lowest index.
#[derive(Debug, Clone, Default)]
pub struct RateAwareRouter;

impl RateAwareRouter {
    /// Creates the router.
    pub fn new() -> Self {
        RateAwareRouter
    }

    fn score(spec: &RequestSpec, load: &EngineLoad) -> f64 {
        let demand = load.rate_sum + spec.rate;
        let pressure = if load.gpu_total_tokens == 0 {
            1.0
        } else {
            1.0 - load.gpu_free_tokens as f64 / load.gpu_total_tokens as f64
        };
        // Queued transfers signal a replica already rotating its working
        // set; weight them like extra pressure.
        let churn = (load.d2h_queue_len + load.h2d_queue_len) as f64 * 0.01;
        // The pending prefill backlog is admission pressure the resident
        // counters miss: at an epoch barrier a burst's prompts are queued,
        // not yet running, and every backlog token delays the new
        // request's own prefill. 0.01 tok/s of score per queued token
        // keeps the term comparable to demand (a 1k-token queued prompt
        // weighs like a 10 tok/s stream).
        let backlog = load.pending_prefill_tokens as f64 * 0.01;
        demand * (1.0 + pressure + churn) + backlog
    }
}

impl Router for RateAwareRouter {
    fn name(&self) -> &'static str {
        "rate-aware"
    }

    fn route(&mut self, spec: &RequestSpec, loads: &[EngineLoad]) -> usize {
        loads
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| Self::score(spec, a).total_cmp(&Self::score(spec, b)))
            .map(|(i, _)| i)
            .expect("non-empty replica set")
    }

    fn route_scored(
        &mut self,
        spec: &RequestSpec,
        loads: &[EngineLoad],
        scores: &mut Vec<f64>,
    ) -> usize {
        scores.clear();
        scores.extend(loads.iter().map(|l| Self::score(spec, l)));
        // Delegate for the pick itself so the traced decision is the
        // routed decision by construction (tie-break order included).
        self.route(spec, loads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokenflow_sim::{RequestId, SimRng, SimTime};

    fn load(live: usize, rate_sum: f64, free: u64) -> EngineLoad {
        EngineLoad {
            now: SimTime::ZERO,
            submitted: live,
            live,
            arrived: live,
            waiting: 0,
            running: live,
            transitioning: 0,
            rate_sum,
            gpu_free_tokens: free,
            gpu_total_tokens: 100_000,
            d2h_queue_len: 0,
            h2d_queue_len: 0,
            pending_prefill_tokens: 0,
        }
    }

    fn spec(rate: f64) -> RequestSpec {
        RequestSpec {
            id: RequestId(0),
            arrival: SimTime::ZERO,
            prompt_tokens: 128,
            output_tokens: 128,
            rate,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = RoundRobinRouter::new();
        let loads = vec![load(0, 0.0, 1), load(9, 180.0, 1), load(3, 60.0, 1)];
        let picks: Vec<usize> = (0..6).map(|_| r.route(&spec(10.0), &loads)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_loaded_picks_fewest_live() {
        let mut r = LeastLoadedRouter::new();
        let loads = vec![load(5, 0.0, 1), load(2, 500.0, 1), load(7, 0.0, 1)];
        assert_eq!(r.route(&spec(10.0), &loads), 1);
    }

    #[test]
    fn least_loaded_breaks_ties_by_free_memory_then_index() {
        let mut r = LeastLoadedRouter::new();
        let loads = vec![load(2, 0.0, 100), load(2, 0.0, 900), load(2, 0.0, 900)];
        assert_eq!(r.route(&spec(10.0), &loads), 1);
    }

    #[test]
    fn least_loaded_breaks_ties_by_prefill_backlog() {
        let mut r = LeastLoadedRouter::new();
        // Equal live counts; replica 0 has a deep admission queue.
        let mut a = load(3, 0.0, 900);
        a.pending_prefill_tokens = 4_096;
        let b = load(3, 0.0, 100);
        assert_eq!(r.route(&spec(10.0), &[a, b]), 1);
    }

    #[test]
    fn backlog_aware_spreads_a_burst_by_prefill_queue() {
        let mut r = BacklogAwareRouter::new();
        // Replica 1 is stone-cold (0 live) but already took a slug of
        // the burst; replica 0 is warm with an empty prefill queue.
        // Live-count routing would keep herding onto replica 1 — the
        // backlog key sends the next request to replica 0.
        let mut cold = load(0, 0.0, 90_000);
        cold.pending_prefill_tokens = 2_048;
        let warm = load(12, 200.0, 40_000);
        assert_eq!(r.route(&spec(10.0), &[warm, cold]), 0);
    }

    #[test]
    fn backlog_aware_falls_back_to_live_then_memory() {
        let mut r = BacklogAwareRouter::new();
        // No backlog anywhere: fewest live wins.
        let loads = vec![load(5, 0.0, 500), load(2, 0.0, 500), load(7, 0.0, 500)];
        assert_eq!(r.route(&spec(10.0), &loads), 1);
        // Backlog and live tied: more free KV wins.
        let loads = vec![load(3, 0.0, 100), load(3, 0.0, 900)];
        assert_eq!(r.route(&spec(10.0), &loads), 1);
    }

    #[test]
    fn rate_aware_avoids_deep_prefill_backlog() {
        let mut r = RateAwareRouter::new();
        // Equal demand and memory; replica 0's admission queue is deep.
        let mut a = load(4, 100.0, 50_000);
        a.pending_prefill_tokens = 8_192;
        let b = load(4, 100.0, 50_000);
        assert_eq!(r.route(&spec(15.0), &[a, b]), 1);
    }

    #[test]
    fn rate_aware_prefers_low_demand_over_low_count() {
        let mut r = RateAwareRouter::new();
        // Replica 0 has fewer requests but far more declared demand.
        let loads = vec![load(2, 400.0, 50_000), load(6, 90.0, 50_000)];
        assert_eq!(r.route(&spec(15.0), &loads), 1);
    }

    #[test]
    fn rate_aware_discounts_memory_pressure() {
        let mut r = RateAwareRouter::new();
        // Equal demand; replica 0's pool is nearly exhausted.
        let loads = vec![load(4, 100.0, 1_000), load(4, 100.0, 90_000)];
        assert_eq!(r.route(&spec(15.0), &loads), 1);
    }

    /// A fresh instance of every shipped router.
    fn shipped() -> Vec<Box<dyn Router>> {
        vec![
            Box::new(RoundRobinRouter::new()),
            Box::new(LeastLoadedRouter::new()),
            Box::new(BacklogAwareRouter::new()),
            Box::new(RateAwareRouter::new()),
        ]
    }

    /// One routing input per entry of `widths`, with random snapshot
    /// contents: input `i` has `widths[i]` snapshots, so two draws with
    /// different seeds and the same `widths` differ in specs and
    /// snapshot contents, never in snapshot counts.
    fn inputs(seed: u64, widths: &[usize]) -> Vec<(RequestSpec, Vec<EngineLoad>)> {
        let mut rng = SimRng::seed_from(seed);
        widths
            .iter()
            .map(|&width| {
                let loads = (0..width)
                    .map(|_| {
                        let mut l = load(
                            rng.uniform_u64(0, 12) as usize,
                            rng.uniform_range(0.0, 300.0),
                            rng.uniform_u64(0, 100_000),
                        );
                        l.pending_prefill_tokens = rng.uniform_u64(0, 4) * 512;
                        l.d2h_queue_len = rng.uniform_u64(0, 2) as usize;
                        l.h2d_queue_len = rng.uniform_u64(0, 2) as usize;
                        l
                    })
                    .collect();
                (spec(rng.uniform_range(5.0, 30.0)), loads)
            })
            .collect()
    }

    /// Snapshot-set widths 1–5, in an order that revisits each width.
    fn widths(steps: usize) -> Vec<usize> {
        (0..steps).map(|i| 1 + (i * 7) % 5).collect()
    }

    #[test]
    fn route_scored_picks_what_route_picks_for_every_router() {
        let steps = inputs(7, &widths(200));
        for (mut plain, mut scored) in shipped().into_iter().zip(shipped()) {
            let mut scores = vec![f64::NAN; 9];
            for (i, (spec, loads)) in steps.iter().enumerate() {
                let pick = plain.route(spec, loads);
                assert_eq!(
                    scored.route_scored(spec, loads, &mut scores),
                    pick,
                    "{}: traced pick diverged at step {i}",
                    plain.name()
                );
                assert!(
                    scores.is_empty() || scores.len() == loads.len(),
                    "{}: {} scores for {} snapshots",
                    plain.name(),
                    scores.len(),
                    loads.len()
                );
            }
        }
    }

    #[test]
    fn load_oblivious_routers_ignore_snapshot_contents() {
        let widths = widths(200);
        let (a, b) = (inputs(11, &widths), inputs(12, &widths));
        let mut oblivious = 0;
        for (mut first, mut second) in shipped().into_iter().zip(shipped()) {
            if !first.load_oblivious() {
                continue;
            }
            oblivious += 1;
            let mut scores = vec![f64::NAN];
            for (i, ((spec, loads_a), (_, loads_b))) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    first.route(spec, loads_a),
                    second.route_scored(spec, loads_b, &mut scores),
                    "{}: pick depends on snapshot contents at step {i}",
                    first.name()
                );
                assert!(scores.is_empty(), "{}: scored", first.name());
            }
        }
        assert!(oblivious > 0, "no shipped router is load-oblivious");
    }
}
