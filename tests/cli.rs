//! CLI contract tests, driven against the real `tokenflow` binary.
//!
//! Pins the typed-error exit behavior: usage mistakes exit 2, spec and
//! I/O failures exit 1 — in particular a failed `--out`/`--trace` write
//! must fail the invocation (it used to be possible for a run to look
//! successful while the artifact a script depended on was never
//! written). Also covers the trace surfaces end to end, on a single
//! engine and on a cluster: `run --trace` emits schema-valid JSONL,
//! `trace --format perfetto` emits well-formed Chrome trace JSON (track
//! metadata, timed slices, instants, and flow arrows whose every start
//! has exactly one finish), and `explain` reports a causal timeline
//! whose wait attributions are printed with the TTFT they sum to. The
//! committed fault scenario's journal and report are checked against its
//! fault plan: one crash with full recovery, one straggler window.
//! Finally the spec surface: `list-policies` names every valid value,
//! `validate` accepts every committed spec and rejects, naming the field,
//! one that would otherwise panic at run time, and every committed
//! scenario runs to a complete, schema-valid report.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

use tokenflow_scenario::{
    json, validate_trace_jsonl, Json, ARRIVAL_NAMES, EXECUTION_NAMES, HARDWARE_NAMES,
    LENGTH_DIST_NAMES, MODEL_NAMES, PRESET_NAMES, RATE_DIST_NAMES, ROUTER_NAMES,
    SCALE_POLICY_NAMES, SCHEDULER_NAMES, TOPOLOGY_NAMES, WORKLOAD_TYPE_NAMES,
};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tokenflow"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tokenflow-cli-test-{}-{name}", std::process::id()));
    p
}

const QUICKSTART: &str = "scenarios/quickstart_single.json";
const FLEET: &str = "scenarios/cluster_fleet_burst.json";
const FAULTY: &str = "scenarios/faulty_flash_crowd.json";

#[test]
fn no_command_exits_2_with_usage() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("USAGE"));
}

#[test]
fn unknown_command_exits_2() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown command"));
}

#[test]
fn missing_spec_file_exits_1() {
    let out = run(&["run", "/nonexistent/spec.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("cannot read"));
}

#[test]
fn unwritable_out_path_exits_nonzero() {
    // The run itself succeeds; the report write fails. The invocation
    // must fail loudly — this is the regression the typed CLI error
    // fixed.
    let out = run(&["run", QUICKSTART, "--out", "/nonexistent-dir/report.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("cannot write /nonexistent-dir/report.json"),
        "stderr must name the unwritable path: {}",
        stderr_of(&out)
    );
}

#[test]
fn unwritable_trace_path_exits_nonzero() {
    let out = run(&["run", QUICKSTART, "--trace", "/nonexistent-dir/trace.jsonl"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("cannot write /nonexistent-dir/trace.jsonl"));
}

#[test]
fn bad_format_value_exits_2() {
    let out = run(&["trace", QUICKSTART, "--format", "csv"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("jsonl"));
}

#[test]
fn run_trace_writes_schema_valid_jsonl() {
    // (scenario, event count a healthy journal must exceed)
    for (spec, floor) in [(QUICKSTART, 0), (FLEET, 100)] {
        let path = temp_path("run-trace.jsonl");
        let out = run(&["run", spec, "--trace", path.to_str().unwrap()]);
        assert!(out.status.success(), "{spec}: {}", stderr_of(&out));
        let text = std::fs::read_to_string(&path).expect("trace file written");
        let _ = std::fs::remove_file(&path);
        let events = validate_trace_jsonl(&text)
            .unwrap_or_else(|e| panic!("{spec}: trace JSONL invalid: {e}"));
        assert!(
            events > floor,
            "{spec}: suspiciously small journal ({events} events)"
        );
        assert!(stderr_of(&out).contains("digest"));
    }
}

#[test]
fn trace_perfetto_emits_parseable_chrome_json() {
    // (scenario, fewest flow arrows: a single engine dispatches nothing)
    for (spec, min_flows) in [(QUICKSTART, 0), (FLEET, 1)] {
        // Without `--out` the document goes to stdout, and nothing else
        // may: the banner and digest belong on stderr.
        let out = run(&["trace", spec, "--format", "perfetto"]);
        assert!(out.status.success(), "{spec}: {}", stderr_of(&out));
        let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        let doc = json::parse(&stdout)
            .unwrap_or_else(|e| panic!("{spec}: stdout is not one JSON document: {e}"));
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        let flows = check_perfetto_events(spec, events);
        assert!(flows >= min_flows, "{spec}: {flows} flow arrows");

        // `--out` writes the same document.
        let path = temp_path("trace.perfetto.json");
        let out = run(&[
            "trace",
            spec,
            "--format",
            "perfetto",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{spec}: {}", stderr_of(&out));
        let text = std::fs::read_to_string(&path).expect("Perfetto file written");
        let _ = std::fs::remove_file(&path);
        assert!(
            stdout.strip_suffix('\n') == Some(text.as_str()),
            "{spec}: the --out file differs from the stdout document"
        );
    }
}

#[test]
fn fault_run_matches_its_plan_in_trace_and_report() {
    let trace_path = temp_path("fault.trace.jsonl");
    let report_path = temp_path("fault.report.json");
    let out = run(&[
        "run",
        FAULTY,
        "--trace",
        trace_path.to_str().unwrap(),
        "--out",
        report_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    let report = std::fs::read_to_string(&report_path).expect("report file written");
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&report_path);

    // Every fault and recovery event carries its typed payload, and the
    // counts line up with the plan: one crash whose every stranded
    // request is retried, and one straggler window (a degrade event and
    // its restore).
    validate_trace_jsonl(&trace).unwrap_or_else(|e| panic!("fault trace JSONL invalid: {e}"));
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for line in trace.lines().filter(|l| !l.is_empty()) {
        let event = json::parse(line).expect("validated line parses");
        let kind = event.get("kind").and_then(Json::as_str).expect("kind");
        *counts.entry(kind.to_string()).or_default() += 1;
    }
    let count = |kind: &str| counts.get(kind).copied().unwrap_or(0);
    assert_eq!(count("replica_crashed"), 1, "{counts:?}");
    assert!(
        count("request_lost") > 0,
        "the crash must strand work: {counts:?}"
    );
    assert_eq!(
        count("retry_scheduled"),
        count("request_lost"),
        "every loss must schedule a retry: {counts:?}"
    );
    assert_eq!(count("replica_degraded"), 2, "{counts:?}");
    assert_eq!(count("request_abandoned"), 0, "{counts:?}");
    assert_eq!(count("admission_shed"), 0, "{counts:?}");

    // The report's failure-accounting block and the pinned digest.
    let doc = json::parse(&report).expect("report is JSON");
    assert_eq!(doc.get("complete").and_then(Json::as_bool), Some(true));
    assert_eq!(
        doc.get("digest").and_then(Json::as_str),
        Some("34c6b3811d462bee")
    );
    let body = doc.get("report").expect("report block");
    let faults = body.get("faults").expect("faults block");
    for key in [
        "crashes",
        "boot_failures",
        "lost_events",
        "recovered",
        "abandoned",
        "shed",
        "retry_attempts",
        "recovery_latency",
    ] {
        assert!(faults.get(key).is_some(), "missing faults.{key}");
    }
    let field = |key: &str| faults.get(key).and_then(Json::as_u64);
    assert_eq!(field("crashes"), Some(1));
    let lost = field("lost_events").expect("faults.lost_events");
    assert!(lost > 0, "the crash must strand work");
    assert_eq!(field("recovered"), Some(lost), "full recovery expected");
    assert_eq!(field("abandoned"), Some(0));
    assert_eq!(field("shed"), Some(0));
    let completed = body.get("completed").and_then(Json::as_u64);
    assert!(completed.is_some());
    assert_eq!(completed, body.get("submitted").and_then(Json::as_u64));
}

/// The structure the Perfetto UI relies on: track metadata (`M`), timed
/// phase slices (`X`, each with `ts` and `dur`), and instants (`i`); and
/// every flow arrow's start (`s`) matched by exactly one finish (`f`).
/// Returns the number of flow arrows.
fn check_perfetto_events(spec: &str, events: &[Json]) -> usize {
    fn ph(e: &Json) -> &str {
        e.get("ph").and_then(Json::as_str).unwrap_or_default()
    }
    for phase in ["M", "X", "i"] {
        assert!(
            events.iter().any(|e| ph(e) == phase),
            "{spec}: no \"{phase}\" events"
        );
    }
    for slice in events.iter().filter(|e| ph(e) == "X") {
        assert!(
            slice.get("ts").and_then(Json::as_u64).is_some()
                && slice.get("dur").and_then(Json::as_u64).is_some(),
            "{spec}: slice without ts/dur: {}",
            slice.emit()
        );
    }
    // flow id -> (starts, finishes)
    let mut flows: BTreeMap<u64, (u32, u32)> = BTreeMap::new();
    for e in events {
        let phase = ph(e);
        if phase == "s" || phase == "f" {
            let id = e
                .get("id")
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{spec}: flow event without id: {}", e.emit()));
            let ends = flows.entry(id).or_default();
            if phase == "s" {
                ends.0 += 1;
            } else {
                ends.1 += 1;
            }
        }
    }
    for (id, ends) in &flows {
        assert_eq!(
            *ends,
            (1, 1),
            "{spec}: flow {id} has (starts, finishes) {ends:?}"
        );
    }
    flows.len()
}

#[test]
fn explain_prints_a_timeline_with_attributions() {
    for (spec, id, shown) in [
        (QUICKSTART, "req#0", "req#0"),
        (QUICKSTART, "0", "req#0"),
        (FLEET, "req#3", "req#3"),
    ] {
        let out = run(&["explain", spec, id]);
        assert!(out.status.success(), "{}", stderr_of(&out));
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            text.contains(&format!("{shown} — decision timeline")),
            "{text}"
        );
        assert!(text.contains("first token"), "{text}");
        assert!(text.contains("time to first token"), "{text}");
        assert!(text.contains("total latency"), "{text}");
    }
}

#[test]
fn explain_unknown_request_exits_1() {
    let out = run(&["explain", QUICKSTART, "req#100000"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("never appears"));
}

#[test]
fn explain_bad_id_exits_2() {
    let out = run(&["explain", QUICKSTART, "request-three"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn list_policies_prints_every_name_of_every_table() {
    let out = run(&["list-policies"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let tables: [&[&str]; 12] = [
        SCHEDULER_NAMES,
        ROUTER_NAMES,
        SCALE_POLICY_NAMES,
        EXECUTION_NAMES,
        TOPOLOGY_NAMES,
        WORKLOAD_TYPE_NAMES,
        PRESET_NAMES,
        ARRIVAL_NAMES,
        LENGTH_DIST_NAMES,
        RATE_DIST_NAMES,
        MODEL_NAMES,
        HARDWARE_NAMES,
    ];
    for name in tables.into_iter().flatten() {
        assert!(
            stdout.lines().any(|line| line.trim() == *name),
            "list-policies does not print `{name}`:\n{stdout}"
        );
    }
}

/// Every committed spec file, in name order.
fn committed_specs() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir("scenarios")
        .expect("scenarios/ directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    files.sort();
    files
}

#[test]
fn validate_accepts_every_committed_spec() {
    let files = committed_specs();
    let mut args = vec!["validate"];
    args.extend(files.iter().map(String::as_str));
    let out = run(&args);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for file in &files {
        assert!(
            stdout
                .lines()
                .any(|line| line.starts_with(&format!("{file}: ")) && line.ends_with("OK")),
            "{file} not validated:\n{stdout}"
        );
    }
}

#[test]
fn validate_rejects_a_spec_that_would_panic_at_run_time_and_names_the_field() {
    let cases = [
        // A bootstrap fleet above the fleet ceiling: the control plane
        // would refuse it with a panic at the first run step.
        (
            "bootstrap-outside-bounds.json",
            r#"{"topology": {"type": "autoscaled", "bootstrap": 8, "control": {"max_replicas": 2}}}"#,
            "scenario.topology.bootstrap",
        ),
        // A model whose weights leave no KV block on the default RTX4090:
        // the engine would refuse it with a panic at construction.
        (
            "model-does-not-fit.json",
            r#"{"model": "Qwen2.5-32B"}"#,
            "scenario.engine.mem_frac",
        ),
    ];
    for (file, spec, field) in cases {
        let path = temp_path(file);
        std::fs::write(&path, spec).expect("temp spec written");
        let validate = run(&["validate", path.to_str().unwrap()]);
        let run_out = run(&["run", path.to_str().unwrap()]);
        let _ = std::fs::remove_file(&path);
        for out in [&validate, &run_out] {
            assert_eq!(out.status.code(), Some(1), "{spec}");
            assert!(
                stderr_of(out).contains(field),
                "stderr must name the field: {}",
                stderr_of(out)
            );
        }
    }
}

/// The report contract of one run outcome (a `run --out` document or one
/// sweep cell): run metadata, a 16-character digest, the report keys, a
/// complete run, and no stranded request.
fn check_outcome(doc: &Json, at: &str) {
    for key in [
        "scenario",
        "topology",
        "scheduler",
        "replicas",
        "scale_events",
        "complete",
        "digest",
        "report",
    ] {
        assert!(doc.get(key).is_some(), "{at}: missing {key}");
    }
    assert_eq!(
        doc.get("complete").and_then(Json::as_bool),
        Some(true),
        "{at}"
    );
    let digest = doc.get("digest").and_then(Json::as_str).unwrap_or_default();
    assert_eq!(digest.len(), 16, "{at}: malformed digest {digest:?}");
    let report = doc.get("report").expect("report block");
    for key in [
        "submitted",
        "completed",
        "duration_us",
        "ttft",
        "throughput",
        "effective_throughput",
        "qos",
        "total_rebuffer_secs",
        "stall_events",
        "preemptions",
        "recomputes",
        "mean_generation_rate",
        "replica_seconds",
    ] {
        assert!(report.get(key).is_some(), "{at}: missing report.{key}");
    }
    let count = |key: &str| report.get(key).and_then(Json::as_u64);
    assert!(count("submitted").is_some(), "{at}");
    assert_eq!(
        count("completed"),
        count("submitted"),
        "{at}: stranded requests"
    );
}

#[test]
fn every_committed_scenario_runs_to_a_complete_report() {
    let mut reports = 0;
    for file in committed_specs() {
        let path = temp_path("committed-report.json");
        let command = if file.ends_with("sweep_policy_workload.json") {
            "sweep"
        } else {
            "run"
        };
        let out = run(&[command, &file, "--out", path.to_str().unwrap()]);
        assert!(out.status.success(), "{file}: {}", stderr_of(&out));
        let text = std::fs::read_to_string(&path).expect("report written");
        let _ = std::fs::remove_file(&path);
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        match doc.get("cells").and_then(Json::as_arr) {
            Some(cells) => {
                assert!(cells.len() >= 6, "{file}: sweep below 6 cells");
                for cell in cells {
                    let label = cell.get("label").and_then(Json::as_str);
                    check_outcome(cell, &format!("{file}[{}]", label.unwrap_or("?")));
                }
            }
            None => check_outcome(&doc, &file),
        }
        reports += 1;
    }
    assert!(reports >= 7, "expected at least 7 reports, found {reports}");
}
