//! The persistent pool's contract, enforced: byte-identity under extreme
//! replica skew, observable worker reuse, barrier batching invariance,
//! and panic-payload survival through the pool.

use std::panic::{self, AssertUnwindSafe};

use tokenflow_cluster::{ClusterEngine, ClusterOutcome, Execution, RoundRobinRouter};
use tokenflow_core::EngineConfig;
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::{FcfsScheduler, SchedContext, SchedPlan, Scheduler, TokenFlowScheduler};
use tokenflow_sim::{RequestId, SimTime};
use tokenflow_workload::{RequestSpec, Workload};

fn config() -> EngineConfig {
    EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(16)
}

/// The merged report through the executor-invariance lens: the
/// executor-mechanics runtime counters (epochs, barrier batching, pool
/// stats) are the one intentionally executor-visible surface — every
/// other byte must match.
fn invariant_merged(o: &ClusterOutcome) -> tokenflow_metrics::RunReport {
    let mut merged = o.merged.clone();
    merged.runtime = merged.runtime.invariant();
    merged
}

fn assert_byte_identical(a: &ClusterOutcome, b: &ClusterOutcome, label: &str) {
    assert_eq!(a.assignments, b.assignments, "{label}: assignments differ");
    let (am, bm) = (invariant_merged(a), invariant_merged(b));
    assert_eq!(am, bm, "{label}: merged reports differ");
    assert_eq!(
        format!("{am:?}"),
        format!("{bm:?}"),
        "{label}: merged report serialization differs"
    );
    assert_eq!(a.complete, b.complete, "{label}: completion differs");
    for (i, (x, y)) in a.replicas.iter().zip(&b.replicas).enumerate() {
        assert_eq!(x.records, y.records, "{label}: replica {i} records differ");
        assert_eq!(
            format!("{:?}", x.records),
            format!("{:?}", y.records),
            "{label}: replica {i} record serialization differs"
        );
        assert_eq!(
            x.iterations, y.iterations,
            "{label}: replica {i} iteration counts differ"
        );
    }
}

/// Round-robin over `replicas` replicas with every request that lands on
/// replica 0 carrying a ~100x heavier decode than the rest: the worst
/// case for any static split of the busy list, where the share holding
/// replica 0 serializes behind it while other workers idle.
fn skewed_workload(replicas: usize, rounds: usize) -> Workload {
    let mut specs = Vec::new();
    for i in 0..replicas * rounds {
        let heavy = i % replicas == 0;
        specs.push(RequestSpec {
            id: RequestId(i as u64),
            // Distinct arrival instants: every request is its own
            // barrier, so the run crosses many epochs.
            arrival: SimTime::from_millis(40 * i as u64),
            prompt_tokens: 64,
            output_tokens: if heavy { 300 } else { 3 },
            rate: 25.0,
        });
    }
    Workload::new(specs)
}

/// One request per second over a wide fleet: every arrival finds the
/// whole fleet drained, the regime where barrier batching engages.
fn trickle_workload(requests: usize) -> Workload {
    let specs = (0..requests)
        .map(|i| RequestSpec {
            id: RequestId(i as u64),
            arrival: SimTime::from_secs(i as u64),
            prompt_tokens: 48,
            output_tokens: 8,
            rate: 30.0,
        })
        .collect();
    Workload::new(specs)
}

#[test]
fn skewed_replicas_are_byte_identical_across_strategies() {
    let workload = skewed_workload(4, 20);
    let run = |execution| {
        ClusterEngine::new(config(), 4, RoundRobinRouter::new(), || {
            Box::new(TokenFlowScheduler::new())
        })
        .with_execution(execution)
        .run(&workload)
    };
    let sequential = run(Execution::Sequential);
    let pooled = run(Execution::parallel(3));
    assert_byte_identical(&sequential, &pooled, "skew: sequential vs pooled");
    assert!(sequential.complete, "skewed run must complete");
}

#[test]
fn pool_is_reused_across_epochs_not_respawned() {
    let workload = skewed_workload(4, 20);
    let outcome = ClusterEngine::new(config(), 4, RoundRobinRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_execution(Execution::parallel(3))
    .run(&workload);
    assert!(outcome.complete);
    let stats = outcome.merged.runtime;
    // Parallel(3) = coordinator + 2 spawned threads, created exactly
    // once; every epoch with busy replicas fed the same pool.
    assert_eq!(stats.pool_workers, 2, "pool spawn count");
    assert!(
        stats.pool_submissions > 10,
        "many epochs should reuse the pool (got {} submissions)",
        stats.pool_submissions
    );
    assert!(
        stats.pool_submissions <= stats.epochs,
        "at most one batch per epoch"
    );
}

#[test]
fn trickle_batches_barriers_and_stays_byte_identical() {
    let workload = trickle_workload(24);
    let sequential = ClusterEngine::new(config(), 8, RoundRobinRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .run(&workload);
    let pooled = ClusterEngine::new(config(), 8, RoundRobinRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_execution(Execution::parallel(2))
    .run(&workload);
    assert!(pooled.complete);
    let stats = pooled.merged.runtime;
    assert_byte_identical(&sequential, &pooled, "trickle: sequential vs pooled");
    // Each arrival finds the fleet drained and rotation picks a fresh
    // quiescent replica, so almost every barrier after the first should
    // coalesce into a running epoch.
    assert!(
        stats.batched_barriers >= workload.len() as u64 / 2,
        "drained-fleet trickle should batch most barriers (got {} of {})",
        stats.batched_barriers,
        workload.len()
    );
    assert!(
        stats.epochs < workload.len() as u64,
        "batching must save whole epochs ({} epochs for {} arrivals)",
        stats.epochs,
        workload.len()
    );
}

/// A scheduler that works normally for a fixed number of planning calls,
/// then fails the way a real invariant assertion would.
struct PanicAfter {
    inner: FcfsScheduler,
    remaining: u32,
}

impl Scheduler for PanicAfter {
    fn name(&self) -> &'static str {
        "panic-after"
    }

    fn plan(&mut self, ctx: &SchedContext) -> SchedPlan {
        assert!(
            self.remaining > 0,
            "replica scheduler invariant violated: kv accounting drifted"
        );
        self.remaining -= 1;
        self.inner.plan(ctx)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())
        .unwrap_or("<non-string payload>")
}

fn run_panicking(execution: Execution) -> String {
    let workload = skewed_workload(4, 6);
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        ClusterEngine::new(config(), 4, RoundRobinRouter::new(), || {
            Box::new(PanicAfter {
                inner: FcfsScheduler::new(),
                remaining: 5,
            })
        })
        .with_execution(execution)
        .run(&workload)
    }));
    let payload = result.expect_err("a panicking scheduler must fail the run");
    panic_message(payload.as_ref()).to_string()
}

#[test]
fn scheduler_panic_message_survives_the_pool() {
    let message = run_panicking(Execution::parallel(3));
    assert!(
        message.contains("kv accounting drifted"),
        "pooled execution must re-raise the original payload, got: {message}"
    );
}
