//! Chaos properties: deterministic fault injection under every executor.
//!
//! Faults are applied only at arrival barriers, so the executor-
//! invariance contract must survive any fault plan: crashes, stragglers,
//! KV-link faults, boot failures, shed mode, and the retry/backoff
//! recovery they trigger all happen on the coordinator thread with every
//! replica clock pinned at the barrier. These tests hold randomized
//! plans (from a seeded LCG — no ambient randomness) to:
//!
//! 1. **Conservation** — every submitted request reaches exactly one
//!    terminal state: `completed + shed + abandoned == submitted` on
//!    complete runs, and the merged report carries exactly one record
//!    per request regardless of how many incarnations retries created.
//! 2. **Executor byte-invariance** — sequential and pooled-parallel
//!    execution produce identical outcomes, fault accounting included.
//! 3. **Digest neutrality** — an *empty* fault plan is indistinguishable
//!    from no plan at all, byte for byte.

use tokenflow_cluster::{
    ClusterEngine, ClusterOutcome, Execution, LeastLoadedRouter, RoundRobinRouter,
};
use tokenflow_control::{ControlConfig, ReactivePolicy};
use tokenflow_core::EngineConfig;
use tokenflow_fault::{CrashFault, FaultPlan, RetryPolicy, WindowFault};
use tokenflow_metrics::RunReport;
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::TokenFlowScheduler;
use tokenflow_sim::{RequestId, SimDuration, SimTime};
use tokenflow_workload::{RequestSpec, Workload};

/// Deterministic pseudo-randomness: a bare LCG (numerical recipes
/// constants), so the "random" plans are identical on every run and
/// every platform.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() % 10_000) as f64 / 10_000.0 * (hi - lo)
    }
}

fn config() -> EngineConfig {
    EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(16)
}

/// A staggered workload from the seed: arrivals over ~15 s so crashes
/// and degradation windows land mid-traffic.
fn workload(rng: &mut Lcg, n: u64) -> Workload {
    let mut specs: Vec<RequestSpec> = (0..n)
        .map(|_| RequestSpec {
            id: RequestId(0),
            arrival: SimTime::from_millis(rng.range(0, 15_000)),
            prompt_tokens: rng.range(64, 256),
            output_tokens: rng.range(32, 128),
            rate: rng.f64(8.0, 25.0),
        })
        .collect();
    specs.sort_by_key(|s| s.arrival);
    Workload::new(specs)
}

/// A randomized fault plan over a `replicas`-wide fleet: up to
/// `max_crashes` crashes plus straggler and KV-link windows, all inside
/// the workload's active span so recovery has room to finish.
fn plan(rng: &mut Lcg, replicas: usize, max_crashes: usize) -> FaultPlan {
    let mut plan = FaultPlan {
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::from_millis(rng.range(200, 800)),
            multiplier: 2.0,
            max_backoff: SimDuration::from_secs(8),
        },
        ..FaultPlan::default()
    };
    for _ in 0..rng.range(1, max_crashes as u64 + 1) {
        plan.crashes.push(CrashFault {
            replica: rng.range(0, replicas as u64) as usize,
            at: SimTime::from_millis(rng.range(1_000, 12_000)),
        });
    }
    for _ in 0..rng.range(0, 3) {
        let from = rng.range(500, 10_000);
        plan.stragglers.push(WindowFault {
            replica: rng.range(0, replicas as u64) as usize,
            from: SimTime::from_millis(from),
            until: SimTime::from_millis(from + rng.range(1_000, 6_000)),
            factor: rng.f64(0.25, 0.9),
        });
    }
    for _ in 0..rng.range(0, 2) {
        let from = rng.range(500, 10_000);
        plan.kv_link.push(WindowFault {
            replica: rng.range(0, replicas as u64) as usize,
            from: SimTime::from_millis(from),
            until: SimTime::from_millis(from + rng.range(1_000, 5_000)),
            factor: rng.f64(0.2, 0.8),
        });
    }
    plan
}

/// The merged report through the executor-invariance lens (see the
/// equivalence suite) — fault accounting is *not* exempted.
fn invariant_merged(o: &ClusterOutcome) -> RunReport {
    let mut merged = o.merged.clone();
    merged.runtime = merged.runtime.invariant();
    merged
}

fn assert_byte_identical(a: &ClusterOutcome, b: &ClusterOutcome, label: &str) {
    assert_eq!(a.assignments, b.assignments, "{label}: assignments differ");
    assert_eq!(a.scale_events, b.scale_events, "{label}: scale logs differ");
    let (am, bm) = (invariant_merged(a), invariant_merged(b));
    assert_eq!(am, bm, "{label}: merged reports differ");
    assert_eq!(
        format!("{:?}{:?}", am, a.merged.faults),
        format!("{:?}{:?}", bm, b.merged.faults),
        "{label}: serialization differs"
    );
    assert_eq!(a.complete, b.complete, "{label}: completion differs");
    for (i, (x, y)) in a.replicas.iter().zip(&b.replicas).enumerate() {
        assert_eq!(x.records, y.records, "{label}: replica {i} records differ");
        assert_eq!(
            x.iterations, y.iterations,
            "{label}: replica {i} iteration counts differ"
        );
    }
}

/// Terminal-state conservation over one faulty outcome.
fn assert_conservation(out: &ClusterOutcome, submitted: usize, label: &str) {
    assert_eq!(out.merged.submitted, submitted, "{label}: record count");
    let faults = out.merged.faults.as_ref().expect("fault plan ran");
    let terminal = out.merged.completed as u64 + faults.shed + faults.abandoned;
    if out.complete {
        assert_eq!(
            terminal, submitted as u64,
            "{label}: complete run must resolve every request \
             (completed {} + shed {} + abandoned {})",
            out.merged.completed, faults.shed, faults.abandoned
        );
    } else {
        assert!(
            terminal <= submitted as u64,
            "{label}: terminal states exceed submissions"
        );
    }
    // The retry histogram partitions every ever-lost request by its loss
    // count, and weights back into the loss-event total.
    let hist_total: u64 = faults.retry_attempts.iter().sum();
    let hist_losses: u64 = faults
        .retry_attempts
        .iter()
        .enumerate()
        .map(|(k, &n)| (k as u64 + 1) * n)
        .sum();
    assert_eq!(hist_losses, faults.lost_events, "{label}: histogram weight");
    assert!(
        faults.recovered + faults.abandoned <= hist_total,
        "{label}: more resolutions than lost requests"
    );
    if out.complete {
        assert_eq!(
            faults.recovered + faults.abandoned,
            hist_total,
            "{label}: complete run leaves no lost request unresolved"
        );
    }
    assert_eq!(
        faults.recovered, faults.recovery_latency.count as u64,
        "{label}: every recovery contributes one latency sample"
    );
}

#[test]
fn randomized_fault_plans_conserve_and_stay_executor_invariant_static() {
    for seed in 0..4u64 {
        let mut rng = Lcg(0x5eed_0000 + seed);
        let w = workload(&mut rng, 60);
        let replicas = 3;
        // Crash at most replicas-1 so the run can usually recover.
        let p = plan(&mut rng, replicas, replicas - 1);
        let run = |execution| {
            ClusterEngine::new(config(), replicas, LeastLoadedRouter::new(), || {
                Box::new(TokenFlowScheduler::new())
            })
            .with_fault_plan(p.clone())
            .with_execution(execution)
            .run(&w)
        };
        let sequential = run(Execution::Sequential);
        assert_conservation(&sequential, w.len(), &format!("static seed {seed}"));
        assert_byte_identical(
            &sequential,
            &run(Execution::parallel(2)),
            &format!("static seed {seed}: sequential vs parallel"),
        );
    }
}

#[test]
fn randomized_fault_plans_conserve_and_stay_executor_invariant_elastic() {
    for seed in 0..3u64 {
        let mut rng = Lcg(0xe1a5_0000 + seed);
        let w = workload(&mut rng, 50);
        let mut p = plan(&mut rng, 4, 2);
        // Exercise boot failure on a replica the reactive policy will
        // try to provision beyond the 2-replica bootstrap.
        if seed % 2 == 0 {
            p.boot_failures.push(2);
        }
        let control = ControlConfig::for_engine(&config())
            .with_gamma(250.0)
            .with_min_replicas(1)
            .with_max_replicas(4)
            .with_boot_delay(SimDuration::from_secs(2))
            .with_cooldown(SimDuration::ZERO);
        let run = |execution| {
            ClusterEngine::new(config(), 2, LeastLoadedRouter::new(), || {
                Box::new(TokenFlowScheduler::new())
            })
            .with_autoscaler(ReactivePolicy::new(), control.clone())
            .with_fault_plan(p.clone())
            .with_execution(execution)
            .run(&w)
        };
        let sequential = run(Execution::Sequential);
        assert_conservation(&sequential, w.len(), &format!("elastic seed {seed}"));
        assert_byte_identical(
            &sequential,
            &run(Execution::parallel(2)),
            &format!("elastic seed {seed}: sequential vs parallel"),
        );
    }
}

#[test]
fn crash_lost_requests_recover_elsewhere() {
    // Deterministic scenario: 2 replicas, round-robin, one crash at 2 s.
    // Every request lost to the crash must be re-dispatched, finish on
    // the survivor, and be counted recovered.
    let specs: Vec<RequestSpec> = (0..12)
        .map(|i| RequestSpec {
            id: RequestId(0),
            arrival: SimTime::from_millis(i * 100),
            prompt_tokens: 128,
            output_tokens: 96,
            rate: 12.0,
        })
        .collect();
    let w = Workload::new(specs);
    let p = FaultPlan {
        crashes: vec![CrashFault {
            replica: 0,
            at: SimTime::from_secs(2),
        }],
        ..FaultPlan::default()
    };
    let out = ClusterEngine::new(config(), 2, RoundRobinRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_fault_plan(p)
    .run(&w);
    assert!(out.complete, "recovery must finish the run");
    let faults = out.merged.faults.as_ref().expect("fault stats present");
    assert_eq!(faults.crashes, 1);
    assert!(faults.lost_events > 0, "the crash must lose residents");
    assert_eq!(faults.abandoned, 0);
    assert_eq!(faults.recovered, faults.lost_events);
    assert_eq!(out.merged.completed, w.len());
    assert_eq!(out.merged.submitted, w.len());
    // Recovery latency is at least the retry backoff.
    assert!(faults.recovery_latency.count as u64 == faults.recovered);
    assert!(faults.recovery_latency.max >= 0.5, "backoff floor");
    // The dead replica froze at the crash barrier (plus at most the
    // iteration that straddled it) — long before the run's end.
    assert!(out.replicas[0].sim_time < SimDuration::from_secs(3));
    assert!(out.replicas[0].sim_time < out.merged.duration);
}

#[test]
fn crashing_every_replica_abandons_residents_and_sheds_arrivals() {
    // Both replicas crash early; retries find no capacity and burn out,
    // later arrivals shed. Nothing may hang: the run terminates with
    // every request in a terminal state.
    let specs: Vec<RequestSpec> = (0..10)
        .map(|i| RequestSpec {
            id: RequestId(0),
            arrival: SimTime::from_millis(i * 400),
            prompt_tokens: 128,
            output_tokens: 200,
            rate: 12.0,
        })
        .collect();
    let w = Workload::new(specs);
    let p = FaultPlan {
        crashes: vec![
            CrashFault {
                replica: 0,
                at: SimTime::from_millis(1_500),
            },
            CrashFault {
                replica: 1,
                at: SimTime::from_millis(1_500),
            },
        ],
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: SimDuration::from_millis(250),
            multiplier: 2.0,
            max_backoff: SimDuration::from_secs(2),
        },
        ..FaultPlan::default()
    };
    let out = ClusterEngine::new(config(), 2, RoundRobinRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_fault_plan(p)
    .run(&w);
    let faults = out.merged.faults.as_ref().expect("fault stats present");
    assert_eq!(faults.crashes, 2);
    assert_eq!(faults.recovered, 0, "no capacity left to recover on");
    assert!(faults.abandoned > 0, "retries must burn out, not hang");
    assert!(faults.shed > 0, "arrivals into a dead fleet must shed");
    assert_eq!(out.merged.submitted, w.len());
    assert_eq!(
        out.merged.completed as u64 + faults.shed + faults.abandoned,
        w.len() as u64,
        "every request must reach a terminal state"
    );
}

#[test]
fn stragglers_stretch_the_tail_but_change_no_accounting() {
    let mut rng = Lcg(77);
    let w = workload(&mut rng, 40);
    let healthy = ClusterEngine::new(config(), 2, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .run(&w);
    let p = FaultPlan {
        stragglers: vec![WindowFault {
            replica: 0,
            from: SimTime::ZERO,
            until: SimTime::from_secs(60),
            factor: 0.25,
        }],
        ..FaultPlan::default()
    };
    let degraded = ClusterEngine::new(config(), 2, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_fault_plan(p)
    .run(&w);
    assert!(healthy.complete && degraded.complete);
    assert_eq!(degraded.merged.completed, w.len());
    let faults = degraded.merged.faults.as_ref().expect("fault stats");
    assert_eq!(faults.crashes, 0);
    assert_eq!(faults.lost_events, 0);
    // A quarter-speed replica must slow the run down.
    assert!(
        degraded.merged.duration > healthy.merged.duration,
        "straggler did not stretch the run: {:?} vs {:?}",
        degraded.merged.duration,
        healthy.merged.duration
    );
}

#[test]
fn empty_fault_plan_is_byte_identical_to_no_plan() {
    let mut rng = Lcg(123);
    let w = workload(&mut rng, 48);
    let plain = ClusterEngine::new(config(), 3, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_execution(Execution::parallel(2))
    .run(&w);
    let faulty = ClusterEngine::new(config(), 3, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_fault_plan(FaultPlan::default())
    .with_execution(Execution::parallel(2))
    .run(&w);
    assert_byte_identical(&plain, &faulty, "empty plan vs none");
    assert!(
        faulty.merged.faults.is_none(),
        "empty plan reports no faults"
    );
    assert_eq!(
        format!("{:?}", plain.merged),
        format!("{:?}", faulty.merged),
        "full merged serialization must match"
    );

    // Same neutrality on an elastic fleet.
    let control = ControlConfig::for_engine(&config())
        .with_gamma(250.0)
        .with_min_replicas(1)
        .with_max_replicas(4)
        .with_cooldown(SimDuration::ZERO);
    let plain = ClusterEngine::new(config(), 2, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_autoscaler(ReactivePolicy::new(), control.clone())
    .run(&w);
    let faulty = ClusterEngine::new(config(), 2, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_autoscaler(ReactivePolicy::new(), control)
    .with_fault_plan(FaultPlan::default())
    .run(&w);
    assert_byte_identical(&plain, &faulty, "empty plan vs none (elastic)");
    assert_eq!(plain.fleet, faulty.fleet);
}

#[test]
fn shed_mode_rejects_pressure_and_recovers_admission() {
    // A saturating burst against a low shed threshold: some arrivals are
    // rejected with zero-progress records, and shed + completed still
    // conserves.
    let specs: Vec<RequestSpec> = (0u64..40)
        .map(|i| RequestSpec {
            id: RequestId(0),
            arrival: SimTime::from_millis(i * 50),
            prompt_tokens: 256,
            output_tokens: 128,
            rate: 20.0,
        })
        .collect();
    let w = Workload::new(specs);
    let p = FaultPlan {
        shed_utilization: Some(0.5),
        ..FaultPlan::default()
    };
    let out = ClusterEngine::new(config(), 2, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_fault_plan(p)
    .run(&w);
    assert!(out.complete);
    let faults = out.merged.faults.as_ref().expect("fault stats");
    assert!(faults.shed > 0, "threshold 0.5 must shed under this burst");
    assert!(
        (out.merged.completed as u64) < w.len() as u64,
        "shed arrivals must not complete"
    );
    assert_eq!(
        out.merged.completed as u64 + faults.shed,
        w.len() as u64,
        "admitted + shed must cover every arrival"
    );
}
