//! Decision-journal determinism suite.
//!
//! The trace subsystem's contract, enforced end-to-end:
//!
//! 1. **Executor invariance** — the *full* rendered journal (meta events
//!    and sequence numbers included) is byte-identical under Sequential
//!    and pooled execution, for every shipped router.
//! 2. **Fast-path invariance** — the *canonical* journal (meta-filtered,
//!    seq-stripped) is byte-identical with the plan-horizon fast path on
//!    and off, single-engine and clustered.
//! 3. **Zero observer effect** — a traced run's report digest equals the
//!    untraced run's: recording decisions never changes one.
//! 4. **Pinned trace digests** — the committed quickstart and fleet
//!    scenarios' canonical journals are golden-pinned like report
//!    digests; the failing assertion prints the replacement value.
//! 5. **Explain arithmetic** — per-phase wait attributions sum *exactly*
//!    to each request's recorded TTFT and latency, for every request of
//!    two scenarios (single-engine and clustered).

use tokenflow_cluster::{ClusterEngine, LeastLoadedRouter};
use tokenflow_core::run_simulation_boxed;
use tokenflow_metrics::RequestMetrics;
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_scenario::{
    canonical_trace_jsonl, parse_scenario, request_timeline, router_from_json, trace_digest,
    trace_jsonl, validate_trace_jsonl, EngineSpec, ExecutionSpec, Json, RateDistSpec, RunOutcome,
    ScenarioSpec, TopologySpec, WorkloadSpec,
};
use tokenflow_sched::TokenFlowScheduler;
use tokenflow_sim::RequestId;
use tokenflow_trace::TraceJournal;
use tokenflow_workload::Workload;

/// The committed scenarios this suite drives (read from disk so the CI
/// trace job and this suite pin the same artifacts).
const QUICKSTART: &str = "scenarios/quickstart_single.json";
const FLEET: &str = "scenarios/cluster_fleet_burst.json";

fn load_spec(path: &str) -> ScenarioSpec {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_scenario(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// Runs a spec with tracing on, returning the outcome and its journal.
fn run_traced(spec: ScenarioSpec) -> (RunOutcome, TraceJournal) {
    let mut harness = spec.build().expect("committed scenario builds");
    harness.config.trace = true;
    let outcome = harness.run();
    assert!(outcome.complete, "traced run incomplete");
    let journal = outcome.trace.clone().expect("traced run yields a journal");
    (outcome, journal)
}

fn with_execution(mut spec: ScenarioSpec, execution: ExecutionSpec) -> ScenarioSpec {
    match &mut spec.topology {
        TopologySpec::Cluster { execution: e, .. } => *e = execution,
        TopologySpec::Autoscaled { execution: e, .. } => *e = execution,
        TopologySpec::Single => panic!("single topology has no executor axis"),
    }
    spec
}

#[test]
fn full_journal_is_byte_identical_across_executors_for_every_router() {
    for router in ["round-robin", "least-loaded", "backlog-aware", "rate-aware"] {
        let mut spec = load_spec(FLEET);
        match &mut spec.topology {
            TopologySpec::Cluster { router: r, .. } => {
                *r = router_from_json(&Json::Str(router.to_string()), "router")
                    .expect("shipped router name");
            }
            _ => panic!("fleet scenario must be a cluster"),
        }
        let (_, seq_journal) = run_traced(with_execution(spec.clone(), ExecutionSpec::Sequential));
        let (_, pool_journal) = run_traced(with_execution(spec, ExecutionSpec::Parallel(3)));
        let seq_text = trace_jsonl(&seq_journal);
        assert_eq!(
            seq_text,
            trace_jsonl(&pool_journal),
            "{router}: pooled journal diverged from sequential"
        );
        assert!(
            validate_trace_jsonl(&seq_text).expect("journal validates") > 0,
            "{router}: journal must not be empty"
        );
    }
}

#[test]
fn canonical_journal_is_invariant_under_the_fast_path_single_engine() {
    let spec = load_spec(QUICKSTART);
    let (_, on) = run_traced(spec.clone());
    let mut off_spec = spec;
    off_spec.engine.plan_horizon = false;
    let (_, off) = run_traced(off_spec);
    assert_eq!(
        canonical_trace_jsonl(&on),
        canonical_trace_jsonl(&off),
        "fast path changed the single-engine decision record"
    );
    // The *full* journals legitimately differ: horizon arm/end events
    // exist only with the fast path on.
    assert_ne!(trace_jsonl(&on), trace_jsonl(&off));
}

#[test]
fn canonical_journal_is_invariant_under_the_fast_path_cluster() {
    let spec = load_spec(FLEET);
    let (_, on) = run_traced(spec.clone());
    let mut off_spec = spec;
    off_spec.engine.plan_horizon = false;
    let (_, off) = run_traced(off_spec);
    assert_eq!(
        canonical_trace_jsonl(&on),
        canonical_trace_jsonl(&off),
        "fast path changed the cluster decision record"
    );
}

#[test]
fn tracing_never_changes_the_report() {
    for path in [QUICKSTART, FLEET] {
        let spec = load_spec(path);
        let untraced = spec.clone().build().expect("builds").run();
        let (traced, _) = run_traced(spec);
        assert!(
            untraced.trace.is_none(),
            "{path}: untraced run grew a journal"
        );
        assert_eq!(
            untraced.report.digest(),
            traced.report.digest(),
            "{path}: tracing changed the report digest (observer effect)"
        );
    }
}

// Re-pin (only after an intentional decision-surface change) by running
// `cargo test --test trace` and copying the value from the failure
// message.
const QUICKSTART_TRACE_DIGEST: u64 = 0xfa7a1fecd6abd1a5;
const FLEET_TRACE_DIGEST: u64 = 0xfa73e120f2f74848;

#[test]
fn committed_scenario_trace_digests_are_pinned() {
    for (path, pinned) in [
        (QUICKSTART, QUICKSTART_TRACE_DIGEST),
        (FLEET, FLEET_TRACE_DIGEST),
    ] {
        let (_, journal) = run_traced(load_spec(path));
        let measured = trace_digest(&journal);
        assert_eq!(
            measured, pinned,
            "{path}: trace digest moved; re-pin with 0x{measured:016x}"
        );
    }
}

/// The seeded bursty workload the golden suite uses: enough pressure to
/// exercise preemption, KV offload, recompute, and decode gating — the
/// phases whose attribution arithmetic this test pins.
fn bursty_workload() -> Workload {
    WorkloadSpec::DiurnalFlashCrowd {
        peak_rate: 1.5,
        duration_secs: 120.0,
        crowd_size: 30,
        crowd_at_secs: 30.0,
        rate: RateDistSpec::Uniform { lo: 8.0, hi: 24.0 },
        seed: 42,
    }
    .build_workload()
    .expect("synthetic workloads always build")
}

fn traced_config() -> tokenflow_core::EngineConfig {
    let mut config = EngineSpec {
        max_batch: 16,
        ..EngineSpec::default()
    }
    .build_config(ModelProfile::llama3_8b(), HardwareProfile::rtx4090());
    config.trace = true;
    config
}

/// One request's attribution arithmetic against its recorded metrics:
/// phase waits must sum *exactly* (integer micros) to TTFT and latency.
fn assert_sums(journal: &TraceJournal, id: RequestId, record: &RequestMetrics, label: &str) {
    let timeline = request_timeline(journal, id)
        .unwrap_or_else(|| panic!("{label}: {id} missing from journal"));
    let first = record
        .first_token_at
        .unwrap_or_else(|| panic!("{label}: {id} never streamed"));
    let ttft = first.as_micros() - record.arrival.as_micros();
    let attributed: u64 = timeline
        .ttft_attribution()
        .unwrap_or_else(|| panic!("{label}: {id} has no first token in journal"))
        .iter()
        .map(|(_, us)| us)
        .sum();
    assert_eq!(
        attributed, ttft,
        "{label}: {id} wait attributions must sum exactly to TTFT"
    );
    let finished = record
        .finished_at
        .unwrap_or_else(|| panic!("{label}: {id} never finished"));
    let latency = finished.as_micros() - record.arrival.as_micros();
    let total: u64 = timeline
        .attribution(finished)
        .iter()
        .map(|(_, us)| us)
        .sum();
    assert_eq!(
        total, latency,
        "{label}: {id} phase totals must sum exactly to latency"
    );
}

#[test]
fn explain_attributions_sum_to_ttft_and_latency_single_engine() {
    let out = run_simulation_boxed(
        traced_config(),
        Box::new(TokenFlowScheduler::new()),
        &bursty_workload(),
    );
    assert!(out.complete, "single-engine run incomplete");
    let journal = out.trace.expect("traced run yields a journal");
    assert!(!out.records.is_empty());
    for record in &out.records {
        assert_sums(&journal, record.id, record, "single");
    }
}

#[test]
fn explain_attributions_sum_to_ttft_and_latency_cluster() {
    let w = bursty_workload();
    let out = ClusterEngine::new(traced_config(), 3, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .run(&w);
    assert!(out.complete, "cluster run incomplete");
    let journal = out.trace.expect("traced run yields a journal");
    assert_eq!(out.assignments.len(), w.len());
    // Journal ids are cluster submission order; records live per replica
    // under local ids — the assignment table is the bridge.
    for (global, a) in out.assignments.iter().enumerate() {
        let record = &out.replicas[a.replica].records[a.local_id.0 as usize];
        assert_sums(&journal, RequestId(global as u64), record, "cluster");
    }
}
