//! Multi-replica cluster serving for TokenFlow.
//!
//! The staged pipeline refactor made the engine's serving loop a reusable
//! component; this crate scales it *out*: a [`ClusterEngine`] drives N
//! independent [`Engine`](tokenflow_core::Engine) replicas on one
//! simulated timeline behind a pluggable [`Router`].
//!
//! * [`router`] — the [`Router`] trait plus three built-in policies:
//!   [`RoundRobinRouter`], [`LeastLoadedRouter`], and the QoS-oriented
//!   [`RateAwareRouter`] (balances declared streaming demand `Σ rᵢ`
//!   against each replica's capacity, the cluster-level analogue of the
//!   paper's schedulability test).
//! * [`cluster`] — the [`ClusterEngine`]: barrier-epoch execution over a
//!   **dynamic** replica set. At each barrier the coordinator first lets
//!   the control plane act (elastic clusters only), then routes the
//!   requests due at that instant over the active replicas; between
//!   barriers replicas never observe each other, so each advances
//!   independently to the next barrier. The builder assembles every
//!   cluster shape and [`ClusterEngine::run`] drives a workload through
//!   it. The [`ClusterOutcome`] carries per-replica
//!   [`SimOutcome`](tokenflow_core::SimOutcome)s plus an exact merged
//!   [`RunReport`](tokenflow_metrics::RunReport), and — for elastic
//!   runs — the fleet timeline, replica-seconds bill, and scale-event
//!   log.
//! * Elasticity plugs in through `tokenflow-control`: a
//!   [`ScalePolicy`](tokenflow_control::ScalePolicy) consulted at every
//!   barrier drives the `Provisioning → Active → Draining → Retired`
//!   replica lifecycle ([`ClusterEngine::with_autoscaler`]). Routers only
//!   ever see the active mask; draining replicas finish their residents
//!   and drop out of epoch stepping once empty.
//! * [`executor`] / [`pool`] — how epochs run: [`Execution::Sequential`]
//!   walks the replicas on the coordinator thread;
//!   [`Execution::Parallel`] feeds busy replicas to a persistent,
//!   condvar-parked [`WorkerPool`] spawned once per run. The choice
//!   reaches only the replica advance between barriers; routing,
//!   scaling and fault handling run identically under both, so it
//!   cannot change a byte of any outcome (the equivalence property
//!   tests in `tests/equivalence.rs` and `tests/pool.rs` hold every
//!   shipped router and strategy to that).
//!
//! Routing decisions consume [`EngineLoad`](tokenflow_core::EngineLoad)
//! snapshots only, so routers cannot reach into replica internals and the
//! whole cluster stays deterministic — cluster runs reproduce
//! bit-for-bit, like single-engine runs, regardless of executor.
//!
//! See the `cluster_burst` example and the bench suite's `cluster` and
//! `fleet` experiments for replica-scaling comparisons under the paper's
//! burst workload.

// audit: tier(deterministic)

pub mod cluster;
pub mod executor;
pub mod pool;
pub mod router;

pub use cluster::{Assignment, ClusterEngine, ClusterOutcome};
pub use executor::Execution;
pub use pool::WorkerPool;
pub use router::{
    BacklogAwareRouter, LeastLoadedRouter, RateAwareRouter, RoundRobinRouter, Router,
};

#[cfg(test)]
mod tests {
    use super::*;
    use tokenflow_core::EngineConfig;
    use tokenflow_model::{HardwareProfile, ModelProfile};
    use tokenflow_sched::{FcfsScheduler, TokenFlowScheduler};
    use tokenflow_sim::{RequestId, SimTime};
    use tokenflow_workload::{RequestSpec, Workload};

    fn burst(n: u32, output: u64) -> Workload {
        Workload::new(
            (0..n)
                .map(|i| RequestSpec {
                    id: RequestId(0),
                    arrival: SimTime::from_millis(u64::from(i % 8) * 25),
                    prompt_tokens: 256,
                    output_tokens: output,
                    rate: 15.0,
                })
                .collect(),
        )
    }

    fn config() -> EngineConfig {
        EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(8)
    }

    #[test]
    fn cluster_completes_and_conserves_requests() {
        let w = burst(24, 120);
        let out = ClusterEngine::new(config(), 3, LeastLoadedRouter::new(), || {
            Box::new(TokenFlowScheduler::new())
        })
        .run(&w);
        assert!(out.complete);
        assert_eq!(out.assignments.len(), 24);
        assert_eq!(out.merged.submitted, 24);
        assert_eq!(out.merged.completed, 24);
        let per_replica: usize = out.replicas.iter().map(|o| o.report.submitted).sum();
        assert_eq!(per_replica, 24);
        // Least-loaded spreads a uniform burst: nobody serves everything.
        assert!(out.replicas.iter().all(|o| o.report.submitted < 24));
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let w = burst(16, 100);
        let run = || {
            ClusterEngine::new(config(), 2, RateAwareRouter::new(), || {
                Box::new(TokenFlowScheduler::new())
            })
            .run(&w)
        };
        let a = run();
        let b = run();
        assert_eq!(a.merged, b.merged);
        assert_eq!(a.assignments, b.assignments);
        for (x, y) in a.replicas.iter().zip(&b.replicas) {
            assert_eq!(x.report, y.report);
            assert_eq!(x.iterations, y.iterations);
        }
    }

    #[test]
    fn more_replicas_cut_tail_ttft_under_burst() {
        // The TokenScale-style motivation: a flash crowd that saturates
        // one replica spreads across four.
        let w = burst(32, 150);
        let solo = ClusterEngine::new(config(), 1, LeastLoadedRouter::new(), || {
            Box::new(FcfsScheduler::new())
        })
        .run(&w);
        let quad = ClusterEngine::new(config(), 4, LeastLoadedRouter::new(), || {
            Box::new(FcfsScheduler::new())
        })
        .run(&w);
        assert!(solo.complete && quad.complete);
        assert_eq!(solo.merged.completed, 32);
        assert_eq!(quad.merged.completed, 32);
        assert!(
            quad.merged.ttft.p99 < solo.merged.ttft.p99,
            "4 replicas {} vs 1 replica {}",
            quad.merged.ttft.p99,
            solo.merged.ttft.p99
        );
    }

    #[test]
    fn deferred_arrivals_dispatch_after_idle_gap() {
        // Two waves separated by a long idle gap: the cluster timeline
        // must jump the gap and still route the second wave.
        let mut specs: Vec<RequestSpec> = (0..4)
            .map(|_| RequestSpec {
                id: RequestId(0),
                arrival: SimTime::ZERO,
                prompt_tokens: 64,
                output_tokens: 40,
                rate: 20.0,
            })
            .collect();
        specs.extend((0..4).map(|_| RequestSpec {
            id: RequestId(0),
            arrival: SimTime::from_secs(120),
            prompt_tokens: 64,
            output_tokens: 40,
            rate: 20.0,
        }));
        let out = ClusterEngine::new(config(), 2, RoundRobinRouter::new(), || {
            Box::new(FcfsScheduler::new())
        })
        .run(&Workload::new(specs));
        assert!(out.complete);
        assert_eq!(out.merged.completed, 8);
        // Second-wave TTFTs are measured from their own arrivals, so the
        // gap does not show up as queueing.
        assert!(out.merged.ttft.max < 10.0, "{:?}", out.merged.ttft);
    }

    #[test]
    fn arrivals_beyond_the_deadline_still_land_on_replicas() {
        // Conservation holds on incomplete runs: a request arriving past
        // the safety deadline is still routed (one assignment, one
        // record) and reported unfinished, like a single engine strands
        // work at the cut-off.
        let mut cfg = config();
        cfg.deadline = tokenflow_sim::SimDuration::from_secs(10);
        let mut specs: Vec<RequestSpec> = (0..3)
            .map(|_| RequestSpec {
                id: RequestId(0),
                arrival: SimTime::ZERO,
                prompt_tokens: 64,
                output_tokens: 20,
                rate: 20.0,
            })
            .collect();
        specs.push(RequestSpec {
            id: RequestId(0),
            arrival: SimTime::from_secs(60),
            prompt_tokens: 64,
            output_tokens: 20,
            rate: 20.0,
        });
        let w = Workload::new(specs);
        let mut c = ClusterEngine::new(cfg, 2, RoundRobinRouter::new(), || {
            Box::new(FcfsScheduler::new())
        });
        c.submit_workload(&w);
        assert!(!c.run_to_completion());
        let out = c.into_outcome();
        assert!(!out.complete);
        assert_eq!(out.assignments.len(), 4);
        assert_eq!(out.merged.submitted, 4);
        assert_eq!(out.merged.completed, 3);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = ClusterEngine::new(config(), 0, RoundRobinRouter::new(), || {
            Box::new(FcfsScheduler::new())
        });
    }

    #[test]
    #[should_panic(expected = "arrival order")]
    fn out_of_order_submission_rejected() {
        let mut c = ClusterEngine::new(config(), 1, RoundRobinRouter::new(), || {
            Box::new(FcfsScheduler::new())
        });
        let spec = |ms: u64| RequestSpec {
            id: RequestId(0),
            arrival: SimTime::from_millis(ms),
            prompt_tokens: 64,
            output_tokens: 10,
            rate: 10.0,
        };
        c.submit(spec(500));
        c.submit(spec(100));
    }
}
