//! Spec/hand-built equivalence: the scenario layer is a *construction
//! path*, not a reimplementation.
//!
//! For every shipped scheduler × router × scale-policy combination, the
//! spec-built stack's `RunReport` digest must be byte-identical to the
//! hand-built one assembled exactly as `tests/golden.rs` (and every
//! pre-spec example) does it: same constructors, same defaults, same
//! seeded trace. A digest mismatch means `ScenarioSpec::build` drifted
//! from the hand-written construction path — the one bug class a
//! declarative layer must never have.

use tokenflow_cluster::{
    BacklogAwareRouter, ClusterEngine, LeastLoadedRouter, RateAwareRouter, RoundRobinRouter, Router,
};
use tokenflow_control::{
    ControlConfig, PredictivePolicy, ReactivePolicy, ScalePolicy, ScriptedPolicy,
};
use tokenflow_core::{run_simulation_boxed, EngineConfig};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_scenario::{
    ControlSpec, ExecutionSpec, RouterSpec, ScalePolicySpec, ScenarioSpec, SchedulerSpec,
    TopologySpec, WorkloadSpec,
};
use tokenflow_sched::{
    AndesScheduler, ChunkedPrefillScheduler, FcfsScheduler, Scheduler, TokenFlowParams,
    TokenFlowScheduler,
};
use tokenflow_sim::{SimDuration, SimTime};
use tokenflow_workload::{diurnal_flash_crowd, RateDist, Workload};

/// The shared small seeded trace: bursty enough to exercise preemption
/// and scaling, small enough that the 48-combination grid stays cheap.
fn trace() -> Workload {
    diurnal_flash_crowd(
        1.0,
        SimDuration::from_secs(40),
        10,
        SimTime::from_secs(10),
        RateDist::Uniform { lo: 8.0, hi: 24.0 },
        7,
    )
}

/// The equivalent workload spec.
fn workload_spec() -> WorkloadSpec {
    WorkloadSpec::DiurnalFlashCrowd {
        peak_rate: 1.0,
        duration_secs: 40.0,
        crowd_size: 10,
        crowd_at_secs: 10.0,
        rate: RateDist::Uniform { lo: 8.0, hi: 24.0 },
        seed: 7,
    }
}

fn config() -> EngineConfig {
    EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(8)
}

fn base_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::default();
    spec.engine.max_batch = 8;
    spec.workload = workload_spec();
    spec
}

const SCHEDULERS: [&str; 4] = ["fcfs", "chunked", "andes", "tokenflow"];
const ROUTERS: [&str; 4] = ["round-robin", "least-loaded", "backlog-aware", "rate-aware"];
const POLICIES: [&str; 3] = ["reactive", "predictive-ewma", "scripted"];

fn hand_scheduler(which: &str) -> Box<dyn Scheduler> {
    match which {
        "fcfs" => Box::new(FcfsScheduler::new()),
        "chunked" => Box::new(ChunkedPrefillScheduler::new()),
        "andes" => Box::new(AndesScheduler::new()),
        "tokenflow" => Box::new(TokenFlowScheduler::new()),
        other => panic!("unknown scheduler {other}"),
    }
}

fn spec_scheduler(which: &str) -> SchedulerSpec {
    match which {
        "fcfs" => SchedulerSpec::Fcfs { headroom: None },
        "chunked" => SchedulerSpec::Chunked { chunk: 512 },
        "andes" => SchedulerSpec::Andes { interval_ms: 500 },
        "tokenflow" => SchedulerSpec::TokenFlow(TokenFlowParams::default()),
        other => panic!("unknown scheduler {other}"),
    }
}

fn hand_router(which: &str) -> Box<dyn Router> {
    match which {
        "round-robin" => Box::new(RoundRobinRouter::new()),
        "least-loaded" => Box::new(LeastLoadedRouter::new()),
        "backlog-aware" => Box::new(BacklogAwareRouter::new()),
        "rate-aware" => Box::new(RateAwareRouter::new()),
        other => panic!("unknown router {other}"),
    }
}

fn spec_router(which: &str) -> RouterSpec {
    match which {
        "round-robin" => RouterSpec::RoundRobin,
        "least-loaded" => RouterSpec::LeastLoaded,
        "backlog-aware" => RouterSpec::BacklogAware,
        "rate-aware" => RouterSpec::RateAware,
        other => panic!("unknown router {other}"),
    }
}

fn hand_policy(which: &str) -> Box<dyn ScalePolicy> {
    match which {
        "reactive" => Box::new(ReactivePolicy::new()),
        "predictive-ewma" => Box::new(PredictivePolicy::with_tau(20.0)),
        "scripted" => Box::new(ScriptedPolicy::new(vec![
            (SimTime::ZERO, 1),
            (SimTime::from_secs(10), 3),
            (SimTime::from_secs(30), 1),
        ])),
        other => panic!("unknown policy {other}"),
    }
}

fn spec_policy(which: &str) -> ScalePolicySpec {
    match which {
        "reactive" => ScalePolicySpec::default(),
        "predictive-ewma" => ScalePolicySpec::PredictiveEwma {
            tau_secs: 20.0,
            target_utilization: 0.60,
            backlog_per_replica: 1_024,
            kv_watermark: 0.50,
        },
        "scripted" => ScalePolicySpec::Scripted {
            steps: vec![(0.0, 1), (10.0, 3), (30.0, 1)],
        },
        other => panic!("unknown policy {other}"),
    }
}

fn hand_control() -> ControlConfig {
    ControlConfig::for_engine(&config())
        .with_gamma(300.0)
        .with_min_replicas(1)
        .with_max_replicas(4)
        .with_boot_delay(SimDuration::from_secs(2))
        .with_cooldown(SimDuration::ZERO)
}

fn spec_control() -> ControlSpec {
    ControlSpec {
        min_replicas: 1,
        max_replicas: 4,
        boot_delay_secs: 2.0,
        cooldown_secs: 0.0,
        gamma: Some(300.0),
        control_tick_secs: None,
    }
}

#[test]
fn single_engine_spec_equals_hand_built_per_scheduler() {
    let w = trace();
    for which in SCHEDULERS {
        let hand = run_simulation_boxed(config(), hand_scheduler(which), &w);
        let spec = ScenarioSpec {
            scheduler: spec_scheduler(which),
            ..base_spec()
        };
        let built = spec.build().expect("buildable").run();
        assert_eq!(
            built.digest(),
            hand.report.digest(),
            "{which}: spec-built single engine diverged from hand-built\n\
             spec: {}\nhand: {}",
            built.report.canonical_json(),
            hand.report.canonical_json()
        );
        assert!(built.complete && hand.complete, "{which}: incomplete");
    }
}

#[test]
fn cluster_spec_equals_hand_built_per_scheduler_and_router() {
    let w = trace();
    for sched in SCHEDULERS {
        for router in ROUTERS {
            let hand = ClusterEngine::new(config(), 3, hand_router(router), move || {
                hand_scheduler(sched)
            })
            .run(&w);
            let spec = ScenarioSpec {
                scheduler: spec_scheduler(sched),
                topology: TopologySpec::Cluster {
                    replicas: 3,
                    router: spec_router(router),
                    execution: ExecutionSpec::Sequential,
                },
                ..base_spec()
            };
            let built = spec.build().expect("buildable").run();
            assert_eq!(
                built.digest(),
                hand.merged.digest(),
                "{sched} × {router}: spec-built cluster diverged from hand-built"
            );
        }
    }
}

/// The full grid: every shipped scheduler × router × scale-policy
/// combination, spec-built vs hand-built, digest-identical.
#[test]
fn autoscaled_spec_equals_hand_built_per_scheduler_router_policy() {
    let w = trace();
    for sched in SCHEDULERS {
        for router in ROUTERS {
            for policy in POLICIES {
                let hand = ClusterEngine::new(config(), 2, hand_router(router), move || {
                    hand_scheduler(sched)
                })
                .with_autoscaler(hand_policy(policy), hand_control())
                .run(&w);
                let spec = ScenarioSpec {
                    scheduler: spec_scheduler(sched),
                    topology: TopologySpec::Autoscaled {
                        bootstrap: 2,
                        router: spec_router(router),
                        policy: spec_policy(policy),
                        control: spec_control(),
                        execution: ExecutionSpec::Sequential,
                    },
                    ..base_spec()
                };
                let built = spec.build().expect("buildable").run();
                assert_eq!(
                    built.digest(),
                    hand.merged.digest(),
                    "{sched} × {router} × {policy}: spec-built fleet diverged from hand-built"
                );
            }
        }
    }
}

/// Execution strategy is spec-exposed but behavior-invariant: the
/// parallel spec must match the sequential hand-built stack too.
#[test]
fn parallel_execution_spec_matches_sequential_hand_built() {
    let w = trace();
    let hand = ClusterEngine::new(config(), 3, hand_router("least-loaded"), || {
        hand_scheduler("tokenflow")
    })
    .run(&w);
    let spec = ScenarioSpec {
        topology: TopologySpec::Cluster {
            replicas: 3,
            router: RouterSpec::LeastLoaded,
            execution: ExecutionSpec::Parallel(4),
        },
        ..base_spec()
    };
    let built = spec.build().expect("buildable").run();
    // Executor-mechanics runtime counters (pool stats) are the one
    // intentionally executor-visible report surface; the
    // digests must match once those are normalized away.
    let mut built_report = built.report.clone();
    built_report.runtime = built_report.runtime.invariant();
    let mut hand_report = hand.merged.clone();
    hand_report.runtime = hand_report.runtime.invariant();
    assert_eq!(built_report.digest(), hand_report.digest());
}
