//! Golden-digest determinism suite.
//!
//! Seeded runs of every shipped scheduler, router, executor, and scale
//! policy are reduced to a 64-bit FNV-1a digest over their *full*
//! observable output — the canonical-JSON `RunReport`, every per-request
//! record, router assignments, scale-event logs, and iteration counts —
//! and the digests are pinned here. Hot-path perf work (dense indices,
//! context reuse, scratch buffers) must keep every digest bit-identical:
//! a digest move means the "optimisation" changed behavior, not just
//! speed.
//!
//! Since the scenario-layer redesign, every stack here is **constructed
//! through the spec layer** (`SchedulerSpec`, `RouterSpec`,
//! `ScalePolicySpec`, `ControlSpec`, `WorkloadSpec`, `EngineSpec`) — the
//! canonical construction path — while the digests still cover the full
//! outcome (records, telemetry series, assignments, scale logs) that
//! `RunOutcome` deliberately summarises away. The pinned values are
//! unchanged from the pre-spec hand-built suite: the redesign moved
//! construction, not behavior.
//!
//! When an *intentional* behavior change moves a digest, re-pin it: run
//! `cargo test --test golden -- --nocapture` and copy the table each
//! failing test prints.

use tokenflow_cluster::{ClusterEngine, ClusterOutcome, Execution, Router};
use tokenflow_control::{ControlConfig, ScalePolicy};
use tokenflow_core::{run_simulation_boxed, EngineConfig, SimOutcome};
use tokenflow_metrics::{fnv1a64, RunReport, RuntimeCounters};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_scenario::{
    from_json, json::Json, ControlSpec, EngineSpec, RouterSpec, ScalePolicySpec, SchedulerSpec,
    WorkloadSpec,
};
use tokenflow_sched::Scheduler;
use tokenflow_sim::SimDuration;
use tokenflow_workload::{RateDist, Workload};

fn config() -> EngineConfig {
    EngineSpec {
        max_batch: 16,
        ..EngineSpec::default()
    }
    .build_config(ModelProfile::llama3_8b(), HardwareProfile::rtx4090())
}

/// The seeded trace every golden run shares: a diurnal base with a flash
/// crowd landing mid-run — bursty enough to exercise preemption, KV
/// offload, recompute, and (for clusters) routing and scaling.
fn trace() -> Workload {
    WorkloadSpec::DiurnalFlashCrowd {
        peak_rate: 1.5,
        duration_secs: 120.0,
        crowd_size: 30,
        crowd_at_secs: 30.0,
        rate: RateDist::Uniform { lo: 8.0, hi: 24.0 },
        seed: 42,
    }
    .build_workload()
    .expect("synthetic workloads always build")
}

/// Spec-built scheduler by its spec name (the CLI's shorthand form).
fn scheduler(which: &str) -> Box<dyn Scheduler> {
    from_json::<SchedulerSpec>(&Json::Str(which.to_string()), "scheduler")
        .unwrap_or_else(|e| panic!("unknown scheduler {which}: {e}"))
        .build_scheduler()
}

fn scheduler_spec(which: &str) -> SchedulerSpec {
    from_json::<SchedulerSpec>(&Json::Str(which.to_string()), "scheduler")
        .unwrap_or_else(|e| panic!("unknown scheduler {which}: {e}"))
}

/// Digest of a single-engine outcome: the canonical report, every
/// per-request record, the sampled telemetry series (queued/running/GPU
/// utilisation — aggregate reports do not cover these, and hot-path
/// rewrites of the sampling walk have regressed them before), and the
/// iteration count.
/// The canonical report JSON with the `runtime` telemetry object zeroed.
/// Runtime counters describe how a run was executed — fast-path hits,
/// worker-pool reuse: exactly the numbers the fastpath-off and
/// Sequential-vs-Parallel differential runs below are *supposed* to
/// change while every serving metric stays put. Digests
/// therefore pin everything but them; the counters themselves are
/// gated behaviorally (`tests/alloc.rs`, `crates/cluster/tests/pool.rs`).
fn semantic_json(report: &RunReport) -> String {
    let mut report = report.clone();
    report.runtime = RuntimeCounters::default();
    report.canonical_json()
}

fn engine_digest(o: &SimOutcome) -> u64 {
    let blob = format!(
        "{}|{:?}|{:?}|{:?}|{:?}|{}|{}",
        semantic_json(&o.report),
        o.records,
        o.queued_series,
        o.running_series,
        o.gpu_util_series,
        o.iterations,
        o.complete
    );
    fnv1a64(blob.as_bytes())
}

/// Digest of a cluster outcome: the exact merged report, every replica's
/// records, telemetry series, and iteration counts, router assignments,
/// and the scale log.
fn cluster_digest(o: &ClusterOutcome) -> u64 {
    let mut blob = semantic_json(&o.merged);
    for r in &o.replicas {
        blob.push_str(&format!(
            "|{:?}|{:?}|{:?}|{:?}|{}",
            r.records, r.queued_series, r.running_series, r.gpu_util_series, r.iterations
        ));
    }
    blob.push_str(&format!(
        "|{:?}|{:?}|{:?}|{}",
        o.assignments, o.scale_events, o.fleet, o.complete
    ));
    fnv1a64(blob.as_bytes())
}

/// Compares measured digests against the pinned table, printing the full
/// measured table on any mismatch so re-pinning is one copy-paste.
fn assert_digests(label: &str, measured: &[(String, u64)], pinned: &[(&str, u64)]) {
    let table: Vec<String> = measured
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),"))
        .collect();
    assert_eq!(
        measured.len(),
        pinned.len(),
        "{label}: case count changed; measured table:\n{}",
        table.join("\n")
    );
    for ((name, digest), (pin_name, pin)) in measured.iter().zip(pinned) {
        assert_eq!(
            name,
            pin_name,
            "{label}: case order changed; measured table:\n{}",
            table.join("\n")
        );
        assert_eq!(
            *digest,
            *pin,
            "{label}: digest moved for {name} \
             (expected 0x{pin:016x}, got 0x{digest:016x}); measured table:\n{}",
            table.join("\n")
        );
    }
}

// Re-pinned once when `canonical_json` grew the `runtime` counters key
// (the digest itself normalizes runtime to zeros — see `semantic_json` —
// but the appended key shifts every blob). Before that re-pin, these
// digests were also measured against the pre-refactor (O(lifetime) hot
// path) engine and against spec-built construction: both refactors are
// behavior-identical down to every telemetry sample.
const ENGINE_GOLDEN: [(&str, u64); 4] = [
    ("fcfs", 0x2716d70694c190ac),
    ("chunked", 0x6dfb30de51935048),
    ("andes", 0xb7aca820235215e3),
    ("tokenflow", 0xffccbd11bf06dde3),
];

#[test]
fn golden_single_engine_per_scheduler() {
    let w = trace();
    let measured: Vec<(String, u64)> = ENGINE_GOLDEN
        .iter()
        .map(|(which, _)| {
            let out = run_simulation_boxed(config(), scheduler(which), &w);
            assert!(out.complete, "{which}: run incomplete");
            (which.to_string(), engine_digest(&out))
        })
        .collect();
    assert_digests("single-engine", &measured, &ENGINE_GOLDEN);
}

const ROUTERS: [&str; 4] = ["round-robin", "least-loaded", "backlog-aware", "rate-aware"];

/// Spec-built router by its spec name.
fn router(which: &str) -> Box<dyn Router> {
    from_json::<RouterSpec>(&Json::Str(which.to_string()), "router")
        .unwrap_or_else(|e| panic!("unknown router {which}: {e}"))
        .build_router()
}

// Least-loaded and backlog-aware happen to route this trace
// identically (the tie-break backlog term never flips a pick), so their
// digests legitimately coincide — both are still pinned independently.
const CLUSTER_GOLDEN: [(&str, u64); 4] = [
    ("round-robin", 0x98f9a8e79c347e22),
    ("least-loaded", 0xd78f7da0eba812d1),
    ("backlog-aware", 0xd78f7da0eba812d1),
    ("rate-aware", 0x0ad0b17ea60dc402),
];

#[test]
fn golden_cluster_per_router_and_executor() {
    let w = trace();
    let measured: Vec<(String, u64)> = ROUTERS
        .iter()
        .map(|which| {
            let run = |execution| {
                let sched = scheduler_spec("tokenflow");
                ClusterEngine::new(config(), 3, router(which), move || sched.build_scheduler())
                    .with_execution(execution)
                    .run(&w)
            };
            let seq = run(Execution::Sequential);
            let par = run(Execution::parallel(4));
            assert!(seq.complete, "{which}: sequential run incomplete");
            let (ds, dp) = (cluster_digest(&seq), cluster_digest(&par));
            assert_eq!(
                ds, dp,
                "{which}: Parallel(4) diverged from Sequential (0x{ds:016x} vs 0x{dp:016x})"
            );
            (which.to_string(), ds)
        })
        .collect();
    assert_digests("cluster", &measured, &CLUSTER_GOLDEN);
}

/// Differential proof for the plan-horizon fast path (default-on): with
/// the horizon force-disabled the engine runs every iteration through
/// the full pipeline, and every digest must still match the pinned
/// table byte-for-byte — for each scheduler alone and for each router
/// under both executors. The pinned values were produced with the fast
/// path on, so passing here proves fastpath-on ≡ fastpath-off across
/// the whole shipped surface.
#[test]
fn golden_differential_fast_path_off() {
    let w = trace();
    let off = config().with_plan_horizon(false);

    let engines: Vec<(String, u64)> = ENGINE_GOLDEN
        .iter()
        .map(|(which, _)| {
            let out = run_simulation_boxed(off.clone(), scheduler(which), &w);
            assert!(out.complete, "{which}: fastpath-off run incomplete");
            (which.to_string(), engine_digest(&out))
        })
        .collect();
    assert_digests("single-engine fastpath-off", &engines, &ENGINE_GOLDEN);

    let clusters: Vec<(String, u64)> = ROUTERS
        .iter()
        .map(|which| {
            let run = |execution| {
                let sched = scheduler_spec("tokenflow");
                ClusterEngine::new(off.clone(), 3, router(which), move || {
                    sched.build_scheduler()
                })
                .with_execution(execution)
                .run(&w)
            };
            let seq = run(Execution::Sequential);
            let par = run(Execution::parallel(4));
            assert!(seq.complete, "{which}: fastpath-off sequential incomplete");
            let (ds, dp) = (cluster_digest(&seq), cluster_digest(&par));
            assert_eq!(
                ds, dp,
                "{which}: fastpath-off Parallel(4) diverged from Sequential"
            );
            (which.to_string(), ds)
        })
        .collect();
    assert_digests("cluster fastpath-off", &clusters, &CLUSTER_GOLDEN);
}

const POLICIES: [&str; 3] = ["reactive", "predictive-ewma", "scripted"];

/// Spec-built scale policy, parsed from the spec grammar's JSON forms.
fn policy(which: &str) -> Box<dyn ScalePolicy> {
    let doc = match which {
        "reactive" => r#""reactive""#.to_string(),
        "predictive-ewma" => r#"{"type": "predictive-ewma", "tau_secs": 20.0}"#.to_string(),
        "scripted" => r#"{"type": "scripted", "steps": [[0, 2], [30, 5], [80, 1]]}"#.to_string(),
        other => panic!("unknown policy {other}"),
    };
    from_json::<ScalePolicySpec>(
        &tokenflow_scenario::json::parse(&doc).expect("valid JSON"),
        "policy",
    )
    .unwrap_or_else(|e| panic!("unknown policy {which}: {e}"))
    .build_policy()
}

fn control() -> ControlConfig {
    ControlSpec {
        min_replicas: 1,
        max_replicas: 6,
        boot_delay_secs: 2.0,
        cooldown_secs: 0.0,
        gamma: Some(300.0),
        control_tick_secs: None,
    }
    .build_control(&config())
}

const AUTOSCALE_GOLDEN: [(&str, u64); 4] = [
    ("reactive", 0xdc381c31da08dab0),
    ("predictive-ewma", 0xf076a7f92b578fdd),
    ("scripted", 0x3ffc829c15b8c861),
    ("reactive+tick", 0x7cd60ddb6c011339),
];

#[test]
fn golden_autoscaled_per_policy_and_executor() {
    let w = trace();
    let mut cases: Vec<(String, ControlConfig, &str)> = POLICIES
        .iter()
        .map(|&p| (p.to_string(), control(), p))
        .collect();
    // The periodic control tick is part of the pinned surface too: a
    // synthetic barrier must be as deterministic as a real one.
    cases.push((
        "reactive+tick".to_string(),
        control().with_control_tick(SimDuration::from_secs(5)),
        "reactive",
    ));
    let measured: Vec<(String, u64)> = cases
        .into_iter()
        .map(|(name, control, which)| {
            let run = |execution| {
                let sched = scheduler_spec("tokenflow");
                ClusterEngine::new(config(), 2, router("least-loaded"), move || {
                    sched.build_scheduler()
                })
                .with_autoscaler(policy(which), control.clone())
                .with_execution(execution)
                .run(&w)
            };
            let seq = run(Execution::Sequential);
            let par = run(Execution::parallel(4));
            assert!(seq.complete, "{name}: sequential run incomplete");
            let (ds, dp) = (cluster_digest(&seq), cluster_digest(&par));
            assert_eq!(
                ds, dp,
                "{name}: Parallel(4) diverged from Sequential (0x{ds:016x} vs 0x{dp:016x})"
            );
            (name, ds)
        })
        .collect();
    assert_digests("autoscale", &measured, &AUTOSCALE_GOLDEN);
}
