//! Decision-journal determinism suite.
//!
//! The trace subsystem's contract, enforced end-to-end:
//!
//! 1. **Executor invariance** — the *full* rendered journal (meta events
//!    and sequence numbers included) is byte-identical under Sequential
//!    and pooled execution, for every shipped router.
//! 2. **Fast-path invariance** — the *canonical* journal (meta-filtered,
//!    seq-stripped) is byte-identical with the plan-horizon fast path on
//!    and off, single-engine and clustered, with and without faults (a
//!    crash, a straggler, and KV-link windows that horizons run through).
//! 3. **Zero observer effect** — a traced run's report digest equals the
//!    untraced run's: recording decisions never changes one.
//! 4. **Pinned trace digests** — the committed quickstart, fleet, fault
//!    and autoscale scenarios' canonical journals, and the full bytes of
//!    their JSONL and Perfetto renderings, are golden-pinned like report
//!    digests; the failing assertion prints the replacement value.
//! 5. **Explain arithmetic** — per-phase wait attributions sum *exactly*
//!    to each request's recorded TTFT and latency, for every request of
//!    three scenarios (single-engine, clustered, and clustered with a
//!    crash, where a lost request's retry wait is its own `lost` phase).
//! 6. **One timeline definition** — the one-pass index behind the
//!    Perfetto export rebuilds exactly the timelines the per-request
//!    scan behind `explain` does.
//! 7. **Every journaled request is explainable** — including a request
//!    shed at admission, which also gets its Perfetto lane.
//! 8. **Two id spaces** — a cluster's per-replica journals keep their
//!    local ids, and each event maps through the assignment table onto
//!    the merged journal's event with the same `(source, seq)`.

use std::collections::BTreeMap;

use tokenflow_cluster::{ClusterEngine, ClusterOutcome, LeastLoadedRouter};
use tokenflow_core::run_simulation_boxed;
use tokenflow_fault::WindowFault;
use tokenflow_metrics::{fnv1a64, RequestMetrics, RuntimeCounters};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_scenario::{
    canonical_trace_jsonl, explain, from_json, json, parse_scenario, perfetto_json,
    request_timeline, request_timelines, trace_digest, trace_jsonl, validate_trace_jsonl,
    EngineSpec, ExecutionSpec, Json, RouterSpec, RunOutcome, ScenarioSpec, TopologySpec,
    WorkloadSpec,
};
use tokenflow_sched::TokenFlowScheduler;
use tokenflow_sim::{RequestId, SimTime};
use tokenflow_trace::{TraceEventKind, TraceJournal, TraceSource};
use tokenflow_workload::{RateDist, Workload};

/// The committed scenarios this suite drives (read from disk so the CI
/// trace job and this suite pin the same artifacts).
const QUICKSTART: &str = "scenarios/quickstart_single.json";
const FLEET: &str = "scenarios/cluster_fleet_burst.json";
/// A crash on replica 2 at 35 s, a straggler, and retries.
const FAULTY: &str = "scenarios/faulty_flash_crowd.json";
/// An elastic fleet: scale decisions, provisioning, preemption and KV
/// offload.
const AUTOSCALE: &str = "scenarios/flash_crowd_autoscale.json";

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
                *r = from_json::<RouterSpec>(&Json::Str(router.to_string()), "router")
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

/// Runs `spec` traced with the fast path on and off, asserts equal
/// canonical journals and equal reports (runtime counters aside, since
/// they count fast-path mechanics), and returns the fast-path-on journal.
fn assert_fast_path_invariant(label: &str, spec: ScenarioSpec) -> TraceJournal {
    let (on_out, on) = run_traced(spec.clone());
    let mut off_spec = spec;
    off_spec.engine.plan_horizon = false;
    let (off_out, off) = run_traced(off_spec);
    assert_eq!(
        canonical_trace_jsonl(&on),
        canonical_trace_jsonl(&off),
        "{label}: fast path changed the cluster decision record"
    );
    let (mut on_report, mut off_report) = (on_out.report, off_out.report);
    on_report.runtime = RuntimeCounters::default();
    off_report.runtime = RuntimeCounters::default();
    assert_eq!(
        on_report, off_report,
        "{label}: fast path changed the report"
    );
    on
}

#[test]
fn canonical_journal_is_invariant_under_the_fast_path_cluster() {
    assert_fast_path_invariant("fleet", load_spec(FLEET));
    assert_fast_path_invariant("faulty", load_spec(FAULTY));

    // A KV-link window leaves horizons armed (only a compute slowdown
    // ends them), so horizons certified on a degraded link must still
    // replay exactly.
    let window = SimTime::from_secs(25)..SimTime::from_secs(60);
    let mut spec = load_spec(FAULTY);
    let fault = spec
        .fault
        .as_mut()
        .expect("fault scenario has a fault block");
    for replica in [0, 1] {
        fault.kv_link.push(WindowFault {
            replica,
            from: window.start,
            until: window.end,
            factor: 0.2,
        });
    }
    let on = assert_fast_path_invariant("faulty+kv_link", spec);
    let armed_on_degraded_links = on
        .events
        .iter()
        .filter(|e| {
            matches!(e.kind, TraceEventKind::HorizonArmed { .. })
                && matches!(e.source, TraceSource::Replica(0 | 1))
                && window.contains(&e.time)
        })
        .count();
    assert!(
        armed_on_degraded_links > 0,
        "no horizon armed on a degraded link: the link case is vacuous"
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
const FAULTY_TRACE_DIGEST: u64 = 0x5009c6c4e08ae8cf;
const AUTOSCALE_TRACE_DIGEST: u64 = 0x4d5aac0add87d864;

#[test]
fn committed_scenario_trace_digests_are_pinned() {
    for (path, pinned) in [
        (QUICKSTART, QUICKSTART_TRACE_DIGEST),
        (FLEET, FLEET_TRACE_DIGEST),
        (FAULTY, FAULTY_TRACE_DIGEST),
        (AUTOSCALE, AUTOSCALE_TRACE_DIGEST),
    ] {
        let (_, journal) = run_traced(load_spec(path));
        let measured = trace_digest(&journal);
        assert_eq!(
            measured, pinned,
            "{path}: trace digest moved; re-pin with 0x{measured:016x}"
        );
    }
}

// FNV-1a of the full `trace_jsonl` and `perfetto_json` bytes. Re-pin
// the same way, and only after an intentional rendering change.
const QUICKSTART_JSONL_FNV: u64 = 0xfc3987aab7c95df3;
const QUICKSTART_PERFETTO_FNV: u64 = 0xbb48f0d344b58fb4;
const FLEET_JSONL_FNV: u64 = 0x7df35d65ded12830;
const FLEET_PERFETTO_FNV: u64 = 0xcf7922b61970ded9;
const FAULTY_JSONL_FNV: u64 = 0x2dcdcad9b86de855;
const FAULTY_PERFETTO_FNV: u64 = 0x56a3c0b1982ceb3a;
const AUTOSCALE_JSONL_FNV: u64 = 0x4e5211510b20fc39;
const AUTOSCALE_PERFETTO_FNV: u64 = 0x5b71be1b9f528536;

#[test]
fn committed_scenario_renderings_are_pinned_byte_for_byte() {
    for (path, jsonl_pin, perfetto_pin) in [
        (QUICKSTART, QUICKSTART_JSONL_FNV, QUICKSTART_PERFETTO_FNV),
        (FLEET, FLEET_JSONL_FNV, FLEET_PERFETTO_FNV),
        (FAULTY, FAULTY_JSONL_FNV, FAULTY_PERFETTO_FNV),
        (AUTOSCALE, AUTOSCALE_JSONL_FNV, AUTOSCALE_PERFETTO_FNV),
    ] {
        let (_, journal) = run_traced(load_spec(path));
        let jsonl = fnv1a64(trace_jsonl(&journal).as_bytes());
        assert_eq!(
            jsonl, jsonl_pin,
            "{path}: JSONL bytes moved; re-pin with 0x{jsonl:016x}"
        );
        let perfetto = fnv1a64(perfetto_json(&journal).as_bytes());
        assert_eq!(
            perfetto, perfetto_pin,
            "{path}: Perfetto bytes moved; re-pin with 0x{perfetto:016x}"
        );
    }
}

#[test]
fn indexed_timelines_match_the_per_request_scan() {
    for path in [FLEET, FAULTY] {
        let (_, journal) = run_traced(load_spec(path));
        let indexed = request_timelines(&journal);
        assert!(!indexed.is_empty(), "{path}: no request timelines");
        let last = journal
            .events
            .iter()
            .filter_map(|e| e.kind.request())
            .max()
            .expect("journal names requests");
        // Every id up to one past the last, so ids the scan rejects
        // must be missing from the index too.
        let scanned: Vec<_> = (0..=last.0 + 1)
            .filter_map(|id| request_timeline(&journal, RequestId(id)))
            .collect();
        assert_eq!(indexed.len(), scanned.len(), "{path}: timeline count");
        for (a, b) in indexed.iter().zip(&scanned) {
            assert_eq!(a, b, "{path}: {} indexed timeline diverged", b.id);
        }
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
        rate: RateDist::Uniform { lo: 8.0, hi: 24.0 },
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

#[test]
fn replica_journals_keep_local_ids_that_map_to_the_merged_journal() {
    let w = bursty_workload();
    let out = ClusterEngine::new(traced_config(), 3, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .run(&w);
    assert!(out.complete, "cluster run incomplete");
    let merged = out.trace.as_ref().expect("traced run yields a journal");
    // The assignment table, inverted: (replica, local id) -> global id.
    let mut globals: Vec<Vec<RequestId>> = vec![Vec::new(); out.replicas.len()];
    for (global, a) in out.assignments.iter().enumerate() {
        assert_eq!(a.local_id.0 as usize, globals[a.replica].len());
        globals[a.replica].push(RequestId(global as u64));
    }
    let by_key: BTreeMap<_, _> = merged
        .events
        .iter()
        .map(|e| ((e.source, e.seq), e))
        .collect();
    assert_eq!(by_key.len(), merged.len(), "(source, seq) is unique");
    let (mut replica_events, mut renamed) = (0, 0);
    for (r, replica) in out.replicas.iter().enumerate() {
        let local = replica
            .trace
            .as_ref()
            .expect("traced replicas keep a journal");
        for e in &local.events {
            assert_eq!(e.source, TraceSource::Replica(r as u32));
            let mut expected = e.kind.clone();
            expected.map_ids(|id| globals[r][id.0 as usize]);
            let m = by_key[&(e.source, e.seq)];
            assert_eq!(
                (m.time, &m.kind),
                (e.time, &expected),
                "replica {r} seq {}",
                e.seq
            );
            renamed += usize::from(m.kind != e.kind);
        }
        replica_events += local.len();
    }
    let merged_replica_events = merged
        .events
        .iter()
        .filter(|e| matches!(e.source, TraceSource::Replica(_)))
        .count();
    assert_eq!(merged_replica_events, replica_events);
    assert!(
        renamed > 0,
        "the replica journals must keep their local ids"
    );
}

/// Runs the committed fault scenario traced, through the cluster engine
/// itself (the way `Harness::run` builds it) so every replica's records,
/// the superseded incarnations' included, stay reachable.
fn run_faulted_cluster() -> ClusterOutcome {
    let harness = load_spec(FAULTY)
        .build()
        .expect("committed scenario builds");
    let TopologySpec::Cluster {
        replicas,
        router,
        execution,
    } = harness.topology
    else {
        panic!("fault scenario must be a static cluster");
    };
    let mut config = harness.config;
    config.trace = true;
    let scheduler = harness.scheduler;
    let out = ClusterEngine::new(
        config,
        replicas as usize,
        router.build_router(),
        move || scheduler.build_scheduler(),
    )
    .with_fault_plan(harness.fault.expect("fault scenario carries a plan"))
    .with_execution(execution.build_execution())
    .run(&harness.workload);
    assert!(out.complete, "faulted run incomplete");
    out
}

/// Each request's surviving incarnation as `(replica, local id)`.
/// Engines number submissions densely and the coordinator journals each
/// one as a `dispatch` whose sequence number orders it, so the last
/// dispatch of an id names the incarnation a retry left standing.
fn surviving_incarnations(journal: &TraceJournal) -> BTreeMap<RequestId, (usize, usize)> {
    let mut dispatches: Vec<(u64, RequestId, usize)> = journal
        .events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::Dispatch { id, replica, .. } => Some((e.seq, id, replica as usize)),
            _ => None,
        })
        .collect();
    dispatches.sort_unstable();
    let mut submitted: Vec<usize> = Vec::new();
    let mut latest = BTreeMap::new();
    for (_, id, replica) in dispatches {
        if submitted.len() <= replica {
            submitted.resize(replica + 1, 0);
        }
        latest.insert(id, (replica, submitted[replica]));
        submitted[replica] += 1;
    }
    latest
}

#[test]
fn explain_attributions_sum_to_ttft_and_latency_under_a_crash() {
    let out = run_faulted_cluster();
    let journal = out.trace.as_ref().expect("traced run yields a journal");
    let survivors = surviving_incarnations(journal);
    assert_eq!(survivors.len(), out.assignments.len());
    for (&id, &(replica, local)) in &survivors {
        let record = &out.replicas[replica].records[local];
        assert_eq!(
            record.id.0 as usize, local,
            "records are indexed by local id"
        );
        assert_sums(journal, id, record, "faulted");
    }
    // req#6 was decoding on replica 2 when it crashed at 35 s; its retry
    // was dispatched to replica 1 after the 500 ms backoff and admitted
    // there 31,188 us later. That wait is recovery, not decoding.
    let timeline = request_timeline(journal, RequestId(6)).expect("req#6 is journaled");
    let lost = timeline
        .phases
        .iter()
        .position(|p| p.label == "lost")
        .expect("req#6 was lost to the crash");
    let (lost, queued) = (timeline.phases[lost], timeline.phases[lost + 1]);
    assert_eq!(lost.from, SimTime::from_secs(35));
    assert_eq!(lost.micros(), 500_000);
    assert_eq!((queued.label, queued.micros()), ("queued", 31_188));
    assert_eq!(timeline.replica, Some(1), "the retry's replica serves it");
}

#[test]
fn a_request_shed_at_admission_is_explained_and_gets_a_lane() {
    let mut spec = load_spec(FAULTY);
    spec.fault
        .as_mut()
        .expect("fault scenario carries a fault block")
        .shed_utilization = Some(0.3);
    let (_, journal) = run_traced(spec);
    let shed = RequestId(38);
    assert!(
        journal
            .for_request(shed)
            .any(|e| matches!(e.kind, TraceEventKind::AdmissionShed { .. })),
        "req#38 must be shed at admission"
    );
    let text = explain(&journal, shed).expect("a shed request is explainable");
    assert!(text.contains("shed at the dispatch barrier"), "{text}");
    assert!(
        text.ends_with("request was shed and never completed\n"),
        "{text}"
    );
    let doc = json::parse(&perfetto_json(&journal)).expect("Perfetto JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let lane = events.iter().any(|e| {
        e.get("name").and_then(Json::as_str) == Some("thread_name")
            && e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                == Some("req#38")
    });
    assert!(lane, "req#38 has no Perfetto lane");
}
