//! Property tests: routing conservation across random workloads, replica
//! counts, routing policies, and *executors*.
//!
//! The conservation contract: every submitted request lands on exactly
//! one replica, and the merged report's counts equal the sum of the
//! per-replica counts — no request is dropped, duplicated, or
//! double-counted by the cluster layer. Every case runs under both the
//! sequential and the parallel epoch executor, and the two runs must be
//! byte-identical — the executor choice is not allowed to touch a single
//! routing decision, record, or merged statistic.

use proptest::prelude::*;

use tokenflow_cluster::{
    BacklogAwareRouter, ClusterEngine, Execution, LeastLoadedRouter, RateAwareRouter,
    RoundRobinRouter, Router,
};
use tokenflow_control::{
    ControlConfig, PredictivePolicy, ReactivePolicy, ScalePolicy, ScriptedPolicy,
};
use tokenflow_core::EngineConfig;
use tokenflow_metrics::RunReport;
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::{FcfsScheduler, Scheduler, TokenFlowScheduler};
use tokenflow_sim::{RequestId, SimTime};
use tokenflow_workload::{RequestSpec, Workload};

fn arb_workload() -> impl Strategy<Value = Workload> {
    prop::collection::vec((0u64..2_000, 16u64..256, 8u64..160, 5.0f64..40.0), 1..24).prop_map(
        |specs| {
            Workload::new(
                specs
                    .into_iter()
                    .map(|(arrival_ms, prompt, output, rate)| RequestSpec {
                        id: RequestId(0),
                        arrival: SimTime::from_millis(arrival_ms),
                        prompt_tokens: prompt,
                        output_tokens: output,
                        rate,
                    })
                    .collect(),
            )
        },
    )
}

fn router(which: u8) -> Box<dyn Router> {
    match which % 4 {
        0 => Box::new(RoundRobinRouter::new()),
        1 => Box::new(LeastLoadedRouter::new()),
        2 => Box::new(BacklogAwareRouter::new()),
        _ => Box::new(RateAwareRouter::new()),
    }
}

fn scheduler(which: u8) -> Box<dyn Scheduler> {
    if which.is_multiple_of(2) {
        Box::new(FcfsScheduler::new())
    } else {
        Box::new(TokenFlowScheduler::new())
    }
}

fn scale_policy(which: u8) -> Box<dyn ScalePolicy> {
    match which % 3 {
        0 => Box::new(ReactivePolicy::new()),
        1 => Box::new(PredictivePolicy::with_tau(15.0)),
        _ => Box::new(ScriptedPolicy::new(vec![
            (SimTime::ZERO, 2),
            (SimTime::from_millis(600), 4),
            (SimTime::from_millis(1_400), 1),
        ])),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_request_lands_on_exactly_one_replica(
        w in arb_workload(),
        replicas in 1usize..5,
        which_router in 0u8..4,
        which_sched in 0u8..2,
    ) {
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090())
            .with_max_batch(8);
        let out = ClusterEngine::new(config.clone(), replicas, router(which_router), move || {
            scheduler(which_sched)
        })
        .run(&w);
        prop_assert!(out.complete);

        // Executor invariance: the same run on parallel workers must be
        // byte-identical — same assignments, same per-replica records,
        // same merged report.
        let par = ClusterEngine::new(config, replicas, router(which_router), move || {
            scheduler(which_sched)
        })
        .with_execution(Execution::parallel(2))
        .run(&w);
        prop_assert_eq!(&out.assignments, &par.assignments);
        // Executor-mechanics runtime counters (epochs, barrier batching,
        // pool stats) are the one intentionally executor-visible
        // surface; everything else must match byte-for-byte.
        let mut seq_m = out.merged.clone();
        seq_m.runtime = seq_m.runtime.invariant();
        let mut par_m = par.merged.clone();
        par_m.runtime = par_m.runtime.invariant();
        prop_assert_eq!(
            format!("{seq_m:?}"),
            format!("{par_m:?}")
        );
        prop_assert_eq!(seq_m, par_m);
        for (x, y) in out.replicas.iter().zip(&par.replicas) {
            prop_assert_eq!(&x.records, &y.records);
            prop_assert_eq!(x.iterations, y.iterations);
        }

        // One assignment per submitted request, each to a valid replica.
        prop_assert_eq!(out.assignments.len(), w.len());
        for a in &out.assignments {
            prop_assert!(a.replica < replicas);
        }

        // Per-replica assignment counts match what each engine recorded,
        // and local ids are dense per replica (each request materialised
        // exactly once on its replica).
        let mut per_replica = vec![0usize; replicas];
        for a in &out.assignments {
            prop_assert_eq!(a.local_id, RequestId(per_replica[a.replica] as u64));
            per_replica[a.replica] += 1;
        }
        for (idx, o) in out.replicas.iter().enumerate() {
            prop_assert_eq!(o.report.submitted, per_replica[idx]);
        }

        // The exact record-level merge the cluster reports: counts and
        // totals equal the per-replica sums, and the duration is the
        // longest replica's.
        let sums = |f: fn(&RunReport) -> usize| -> usize {
            out.replicas.iter().map(|o| f(&o.report)).sum()
        };
        prop_assert_eq!(out.merged.submitted, sums(|r| r.submitted));
        prop_assert_eq!(out.merged.completed, sums(|r| r.completed));
        prop_assert_eq!(out.merged.completed, w.len());
        prop_assert_eq!(out.merged.stall_events as usize, sums(|r| r.stall_events as usize));
        prop_assert_eq!(out.merged.preemptions as usize, sums(|r| r.preemptions as usize));
        let longest = out.replicas.iter().map(|o| o.report.duration).max();
        prop_assert_eq!(Some(out.merged.duration), longest);
        let tokens: u64 = out
            .replicas
            .iter()
            .flat_map(|o| o.records.iter().map(|r| r.generated))
            .sum();
        let expected: u64 = w.iter().map(|s| s.output_tokens).sum();
        prop_assert_eq!(tokens, expected);
    }
}

// The control-plane analogue of executor invariance: for every shipped
// scale policy, the decision log, fleet accounting, and final reports
// are byte-identical under sequential and parallel epoch execution —
// and conservation (one replica per request, dispatched only while that
// replica was active) still holds on an elastic fleet.
proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn every_scale_policy_is_executor_invariant(
        w in arb_workload(),
        bootstrap in 1usize..4,
        which_policy in 0u8..3,
        which_router in 0u8..4,
    ) {
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090())
            .with_max_batch(8);
        let control = ControlConfig::for_engine(&config)
            .with_gamma(150.0)
            .with_min_replicas(1)
            .with_max_replicas(6)
            .with_boot_delay(tokenflow_sim::SimDuration::from_millis(500))
            .with_cooldown(tokenflow_sim::SimDuration::ZERO);
        let run = |execution: Execution| {
            ClusterEngine::new(config.clone(), bootstrap, router(which_router), || {
                Box::new(TokenFlowScheduler::new())
            })
            .with_autoscaler(scale_policy(which_policy), control.clone())
            .with_execution(execution)
            .run(&w)
        };
        let seq = run(Execution::Sequential);
        let par = run(Execution::parallel(3));
        prop_assert!(seq.complete);

        // Byte-identical elastic outcomes: routing, scaling, accounting.
        prop_assert_eq!(&seq.assignments, &par.assignments);
        prop_assert_eq!(&seq.scale_events, &par.scale_events);
        prop_assert_eq!(&seq.fleet, &par.fleet);
        // As above: only the executor-mechanics runtime counters may
        // differ between execution strategies.
        let mut seq_m = seq.merged.clone();
        seq_m.runtime = seq_m.runtime.invariant();
        let mut par_m = par.merged.clone();
        par_m.runtime = par_m.runtime.invariant();
        prop_assert_eq!(
            format!("{:?}{:?}", seq_m, seq.scale_events),
            format!("{:?}{:?}", par_m, par.scale_events)
        );
        prop_assert_eq!(seq_m, par_m);
        prop_assert_eq!(seq.replicas.len(), par.replicas.len());
        for (x, y) in seq.replicas.iter().zip(&par.replicas) {
            prop_assert_eq!(&x.records, &y.records);
            prop_assert_eq!(x.iterations, y.iterations);
        }

        // Conservation still holds with a dynamic fleet.
        prop_assert_eq!(seq.assignments.len(), w.len());
        prop_assert_eq!(seq.merged.submitted, w.len());
        prop_assert_eq!(seq.merged.completed, w.len());
        let mut per_replica = vec![0usize; seq.replicas.len()];
        for a in &seq.assignments {
            prop_assert!(a.replica < seq.replicas.len());
            prop_assert_eq!(a.local_id, RequestId(per_replica[a.replica] as u64));
            per_replica[a.replica] += 1;
        }
        // The bill is consistent: at least min-fleet × duration (one
        // active replica always bills), at most ceiling × duration
        // (billable replicas never exceed max_replicas).
        let fleet = seq.fleet.as_ref().expect("elastic run has fleet stats");
        prop_assert_eq!(seq.merged.replica_seconds, fleet.replica_seconds);
        let dur = seq.merged.duration.as_secs_f64();
        prop_assert!(seq.merged.replica_seconds >= dur - 1e-9);
        prop_assert!(seq.merged.replica_seconds <= 6.0 * dur + 1e-9);
    }
}
