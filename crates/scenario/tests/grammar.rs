//! The spec grammar, pinned row by row: every default and every
//! single-mistake error.
//!
//! The round-trip properties only feed fully explicit canonical
//! documents, so they never exercise a default. Here every `type` name of
//! every name table is parsed from the smallest document that names it,
//! with only its required fields, and its canonical emission is compared
//! to a pinned string; derived defaults (`std`, `max`, `period_secs`) are
//! pinned over a non-default base. Every rule the grammar enforces has a
//! document that breaks exactly that rule, pinned to its `SpecError`
//! variant and field path — among them the specs the parser once accepted
//! and the run then panicked on. `build` applies the same rules to a spec
//! built in code.

use tokenflow_fault::FaultPlan;
use tokenflow_scenario::{
    codec, json::Json, parse_scenario, ControlSpec, EngineSpec, ExecutionSpec, LengthDistSpec,
    RouterSpec, ScalePolicySpec, ScenarioSpec, SpecError, TopologySpec, WorkloadSpec,
    ARRIVAL_NAMES, EXECUTION_NAMES, LENGTH_DIST_NAMES, RATE_DIST_NAMES, ROUTER_NAMES,
    SCALE_POLICY_NAMES, SCHEDULER_NAMES, TOPOLOGY_NAMES, WORKLOAD_TYPE_NAMES,
};
use tokenflow_sim::SimTime;
use tokenflow_workload::{ArrivalSpec, RateDist};

/// The canonical JSON of a whole scenario.
fn emit(spec: &ScenarioSpec) -> Json {
    codec::to_json(spec)
}

/// Parses `doc` and emits the canonical form of the member at `path`.
fn emitted(doc: &str, path: &[&str]) -> Result<String, SpecError> {
    let mut json = emit(&parse_scenario(doc)?);
    for key in path {
        json = json.get(key).cloned().unwrap_or(Json::Null);
    }
    Ok(json.emit())
}

/// Wraps a length distribution as the prompt of a synthetic workload.
fn prompt(dist: &str) -> String {
    format!(
        r#"{{"workload": {{"type": "synthetic", "arrivals": {{"type": "burst"}}, "prompt": {dist}}}}}"#
    )
}

/// Wraps an arrival process into a synthetic workload.
fn arrivals(process: &str) -> String {
    format!(r#"{{"workload": {{"type": "synthetic", "arrivals": {process}}}}}"#)
}

/// Wraps a rate distribution into a synthetic workload.
fn rate(dist: &str) -> String {
    format!(
        r#"{{"workload": {{"type": "synthetic", "arrivals": {{"type": "burst"}}, "rate": {dist}}}}}"#
    )
}

/// Wraps a topology into a scenario.
fn topology(body: &str) -> String {
    format!(r#"{{"topology": {body}}}"#)
}

/// Wraps a fault schedule into a two-replica cluster scenario.
fn fault(body: &str) -> String {
    format!(r#"{{"topology": {{"type": "cluster", "replicas": 2}}, "fault": {body}}}"#)
}

const TOKENFLOW: &str = r#"{"type":"tokenflow","schedule_interval_ms":500,"buffer_conservativeness":2,"ws_adjust_rate":0.5,"gamma":1,"critical_buffer_secs":1,"headroom_tokens":64,"util_target":0.92,"max_transitions":256,"io_backpressure":1,"capacity_safety":0.8,"prefill_chunk":2048,"swap_candidates":0}"#;
const REACTIVE: &str =
    r#"{"type":"reactive","target_utilization":0.6,"backlog_per_replica":1024,"kv_watermark":0.5}"#;
const CONTROL: &str = r#"{"min_replicas":1,"max_replicas":64,"boot_delay_secs":10,"cooldown_secs":5,"gamma":null,"control_tick_secs":null}"#;
const ENGINE: &str = r#"{"max_batch":256,"mem_frac":0.9,"offload_enabled":true,"write_through":true,"load_evict_overlap":true,"max_prefill_tokens":8192,"deadline_secs":14400,"plan_horizon":true}"#;
const RETRY: &str =
    r#"{"max_attempts":3,"base_backoff_ms":500,"multiplier":2,"max_backoff_ms":8000}"#;

/// One default row: which name table it covers, the document, the path
/// of the member to emit, and the pinned canonical emission.
type DefaultRow = (&'static str, String, &'static [&'static str], String);

fn default_rows() -> Vec<DefaultRow> {
    let s = |x: &str| x.to_string();
    let mut rows: Vec<DefaultRow> = vec![
        // Schedulers.
        (
            "scheduler",
            s(r#"{"scheduler": "fcfs"}"#),
            &["scheduler"],
            s(r#"{"type":"fcfs","headroom":null}"#),
        ),
        (
            "scheduler",
            s(r#"{"scheduler": "chunked"}"#),
            &["scheduler"],
            s(r#"{"type":"chunked","chunk":512}"#),
        ),
        (
            "scheduler",
            s(r#"{"scheduler": "andes"}"#),
            &["scheduler"],
            s(r#"{"type":"andes","interval_ms":500}"#),
        ),
        (
            "scheduler",
            s(r#"{"scheduler": "tokenflow"}"#),
            &["scheduler"],
            s(TOKENFLOW),
        ),
        // Scale policies.
        (
            "policy",
            topology(r#"{"type": "autoscaled", "policy": "reactive"}"#),
            &["topology", "policy"],
            s(REACTIVE),
        ),
        (
            "policy",
            topology(r#"{"type": "autoscaled", "policy": "predictive-ewma"}"#),
            &["topology", "policy"],
            s(
                r#"{"type":"predictive-ewma","tau_secs":30,"target_utilization":0.6,"backlog_per_replica":1024,"kv_watermark":0.5}"#,
            ),
        ),
        (
            "policy",
            topology(r#"{"type": "autoscaled", "policy": {"type": "scripted", "steps": []}}"#),
            &["topology", "policy"],
            s(r#"{"type":"scripted","steps":[]}"#),
        ),
        // Execution strategies.
        (
            "execution",
            topology(r#"{"type": "cluster", "execution": "sequential"}"#),
            &["topology", "execution"],
            s(r#""sequential""#),
        ),
        (
            "execution",
            topology(r#"{"type": "cluster", "execution": "parallel"}"#),
            &["topology", "execution"],
            s(r#"{"type":"parallel","threads":4}"#),
        ),
        (
            "execution",
            topology(r#"{"type": "cluster", "execution": "auto"}"#),
            &["topology", "execution"],
            s(r#""auto""#),
        ),
        // Topologies.
        (
            "topology",
            topology(r#""single""#),
            &["topology"],
            s(r#""single""#),
        ),
        (
            "topology",
            topology(r#"{"type": "cluster"}"#),
            &["topology"],
            s(
                r#"{"type":"cluster","replicas":2,"router":"least-loaded","execution":"sequential"}"#,
            ),
        ),
        (
            "topology",
            topology(r#"{"type": "autoscaled"}"#),
            &["topology"],
            format!(
                r#"{{"type":"autoscaled","bootstrap":1,"router":"least-loaded","policy":{REACTIVE},"control":{CONTROL},"execution":"sequential"}}"#
            ),
        ),
        // Workload types.
        (
            "workload",
            s(r#"{"workload": {"type": "preset", "name": "rtx4090-a"}}"#),
            &["workload"],
            s(r#"{"type":"preset","name":"rtx4090-a","seed":42}"#),
        ),
        (
            "workload",
            s(r#"{"workload": {"type": "diurnal-flash-crowd"}}"#),
            &["workload"],
            s(
                r#"{"type":"diurnal-flash-crowd","peak_rate":1.5,"duration_secs":120,"crowd_size":30,"crowd_at_secs":30,"rate":{"type":"uniform","lo":8,"hi":24},"seed":42}"#,
            ),
        ),
        (
            "workload",
            s(r#"{"workload": {"type": "synthetic", "arrivals": {"type": "burst"}}}"#),
            &["workload"],
            s(
                r#"{"type":"synthetic","arrivals":{"type":"burst","size":60,"at_secs":0},"prompt":"sharegpt-prompt","output":"sharegpt-output","rate":{"type":"fixed","rate":12},"seed":42}"#,
            ),
        ),
        (
            "workload",
            s(r#"{"workload": {"type": "trace-csv", "path": "t.csv"}}"#),
            &["workload"],
            s(r#"{"type":"trace-csv","path":"t.csv"}"#),
        ),
        (
            "workload",
            s(r#"{"workload": {"type": "inline", "requests": []}}"#),
            &["workload"],
            s(r#"{"type":"inline","requests":[]}"#),
        ),
        // Arrival processes.
        (
            "arrivals",
            arrivals(r#"{"type": "burst"}"#),
            &["workload", "arrivals"],
            s(r#"{"type":"burst","size":60,"at_secs":0}"#),
        ),
        (
            "arrivals",
            arrivals(r#"{"type": "poisson"}"#),
            &["workload", "arrivals"],
            s(r#"{"type":"poisson","rate":2,"duration_secs":60}"#),
        ),
        (
            "arrivals",
            arrivals(r#"{"type": "mmpp"}"#),
            &["workload", "arrivals"],
            s(
                r#"{"type":"mmpp","base_rate":1,"burst_rate":20,"mean_calm_secs":25,"mean_burst_secs":6,"duration_secs":300}"#,
            ),
        ),
        (
            "arrivals",
            arrivals(r#"{"type": "diurnal"}"#),
            &["workload", "arrivals"],
            s(
                r#"{"type":"diurnal","trough_rate":0.5,"peak_rate":5,"period_secs":600,"duration_secs":600}"#,
            ),
        ),
        // Length distributions.
        (
            "length",
            prompt(r#"{"type": "fixed"}"#),
            &["workload", "prompt"],
            s(r#"{"type":"fixed","tokens":256}"#),
        ),
        (
            "length",
            prompt(r#"{"type": "normal"}"#),
            &["workload", "prompt"],
            s(r#"{"type":"normal","mean":512,"std":128,"min":16,"max":2048}"#),
        ),
        (
            "length",
            prompt(r#"{"type": "lognormal"}"#),
            &["workload", "prompt"],
            s(r#"{"type":"lognormal","mean":350,"std":350,"min":8,"max":8192}"#),
        ),
        (
            "length",
            prompt(r#"{"type": "uniform"}"#),
            &["workload", "prompt"],
            s(r#"{"type":"uniform","lo":16,"hi":1024}"#),
        ),
        (
            "length",
            prompt(r#""sharegpt-prompt""#),
            &["workload", "prompt"],
            s(r#""sharegpt-prompt""#),
        ),
        (
            "length",
            prompt(r#""sharegpt-output""#),
            &["workload", "prompt"],
            s(r#""sharegpt-output""#),
        ),
        // Rate distributions.
        (
            "rate",
            rate(r#"{"type": "fixed"}"#),
            &["workload", "rate"],
            s(r#"{"type":"fixed","rate":12}"#),
        ),
        (
            "rate",
            rate(r#"{"type": "uniform"}"#),
            &["workload", "rate"],
            s(r#"{"type":"uniform","lo":8,"hi":24}"#),
        ),
        (
            "rate",
            rate(r#"{"type": "mix", "entries": [[1, 10]]}"#),
            &["workload", "rate"],
            s(r#"{"type":"mix","entries":[[1,10]]}"#),
        ),
        // Routers (knob-free: canonical form is the bare string).
        (
            "router",
            topology(r#"{"type": "cluster", "router": {"type": "rate-aware"}}"#),
            &["topology", "router"],
            s(r#""rate-aware""#),
        ),
        // Structs.
        ("", s("{}"), &["engine"], s(ENGINE)),
        (
            "",
            topology(r#"{"type": "autoscaled", "control": {}}"#),
            &["topology", "control"],
            s(CONTROL),
        ),
        ("", fault(r#"{"retry": {}}"#), &["fault", "retry"], s(RETRY)),
        (
            "",
            fault("{}"),
            &["fault"],
            format!(
                r#"{{"crashes":[],"stragglers":[],"kv_link":[],"boot_failures":[],"retry":{RETRY},"shed_utilization":null}}"#
            ),
        ),
        (
            "",
            fault(
                r#"{"crashes": [{"replica": 1, "at_secs": 3}],
                    "stragglers": [{"replica": 0, "from_secs": 1, "until_secs": 2, "factor": 0.5}],
                    "kv_link": [{"replica": 1, "from_secs": 0, "until_secs": 9, "factor": 1}],
                    "boot_failures": [1]}"#,
            ),
            &["fault"],
            format!(
                r#"{{"crashes":[{{"replica":1,"at_secs":3}}],"stragglers":[{{"replica":0,"from_secs":1,"until_secs":2,"factor":0.5}}],"kv_link":[{{"replica":1,"from_secs":0,"until_secs":9,"factor":1}}],"boot_failures":[1],"retry":{RETRY},"shed_utilization":null}}"#
            ),
        ),
        (
            "",
            s(r#"{"workload": {"type": "inline", "requests": [{}]}}"#),
            &["workload", "requests"],
            s(r#"[{"arrival_secs":0,"prompt_tokens":256,"output_tokens":128,"rate":12}]"#),
        ),
        (
            "",
            s("{}"),
            &[],
            format!(
                r#"{{"name":"unnamed","model":"Llama3-8B","hardware":"RTX4090","engine":{ENGINE},"scheduler":{TOKENFLOW},"workload":{{"type":"diurnal-flash-crowd","peak_rate":1.5,"duration_secs":120,"crowd_size":30,"crowd_at_secs":30,"rate":{{"type":"uniform","lo":8,"hi":24}},"seed":42}},"topology":"single","fault":null}}"#
            ),
        ),
        // Derived defaults, each over a non-default base.
        (
            "",
            prompt(r#"{"type": "normal", "mean": 100}"#),
            &["workload", "prompt"],
            s(r#"{"type":"normal","mean":100,"std":25,"min":16,"max":400}"#),
        ),
        (
            "",
            prompt(r#"{"type": "lognormal", "mean": 200}"#),
            &["workload", "prompt"],
            s(r#"{"type":"lognormal","mean":200,"std":200,"min":8,"max":8192}"#),
        ),
        (
            "",
            arrivals(r#"{"type": "diurnal", "duration_secs": 90}"#),
            &["workload", "arrivals"],
            s(
                r#"{"type":"diurnal","trough_rate":0.5,"peak_rate":5,"period_secs":90,"duration_secs":90}"#,
            ),
        ),
        // Any variant may be written as its bare type string.
        (
            "",
            s(r#"{"workload": "diurnal-flash-crowd"}"#),
            &["workload"],
            s(
                r#"{"type":"diurnal-flash-crowd","peak_rate":1.5,"duration_secs":120,"crowd_size":30,"crowd_at_secs":30,"rate":{"type":"uniform","lo":8,"hi":24},"seed":42}"#,
            ),
        ),
        (
            "",
            topology(r#""cluster""#),
            &["topology"],
            s(
                r#"{"type":"cluster","replicas":2,"router":"least-loaded","execution":"sequential"}"#,
            ),
        ),
        (
            "",
            arrivals(r#""poisson""#),
            &["workload", "arrivals"],
            s(r#"{"type":"poisson","rate":2,"duration_secs":60}"#),
        ),
        (
            "",
            prompt(r#""normal""#),
            &["workload", "prompt"],
            s(r#"{"type":"normal","mean":512,"std":128,"min":16,"max":2048}"#),
        ),
        (
            "",
            rate(r#""uniform""#),
            &["workload", "rate"],
            s(r#"{"type":"uniform","lo":8,"hi":24}"#),
        ),
        // Accepted spellings that normalise: case-insensitive names, the
        // nested execution shorthand, and explicit nulls.
        (
            "",
            s(r#"{"model": "llama3-8b", "hardware": "h200"}"#),
            &["hardware"],
            s(r#""H200""#),
        ),
        (
            "",
            s(r#"{"workload": {"type": "preset", "name": "H200-B"}}"#),
            &["workload"],
            s(r#"{"type":"preset","name":"h200-b","seed":42}"#),
        ),
        (
            "",
            topology(r#"{"type": "cluster", "execution": {"parallel": {}}}"#),
            &["topology", "execution"],
            s(r#"{"type":"parallel","threads":4}"#),
        ),
        (
            "",
            s(r#"{"scheduler": {"type": "fcfs", "headroom": null}, "fault": null}"#),
            &["scheduler"],
            s(r#"{"type":"fcfs","headroom":null}"#),
        ),
    ];
    for router in ROUTER_NAMES {
        rows.push((
            "router",
            topology(&format!(r#"{{"type": "cluster", "router": "{router}"}}"#)),
            &["topology", "router"],
            format!(r#""{router}""#),
        ));
    }
    rows
}

/// The name tables and the row tag that covers each.
const TABLES: [(&str, &[&str]); 9] = [
    ("scheduler", SCHEDULER_NAMES),
    ("router", ROUTER_NAMES),
    ("policy", SCALE_POLICY_NAMES),
    ("execution", EXECUTION_NAMES),
    ("topology", TOPOLOGY_NAMES),
    ("workload", WORKLOAD_TYPE_NAMES),
    ("arrivals", ARRIVAL_NAMES),
    ("length", LENGTH_DIST_NAMES),
    ("rate", RATE_DIST_NAMES),
];

#[test]
fn every_default_is_pinned() {
    let mut failures = Vec::new();
    for (_, doc, path, pinned) in default_rows() {
        match emitted(&doc, path) {
            Ok(got) if got == pinned => {}
            other => failures.push(format!("{doc}\n  want {pinned}\n  got  {other:?}")),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_name_of_every_table_has_a_default_row() {
    let rows = default_rows();
    for (tag, names) in TABLES {
        for name in names {
            let bare = format!(r#""{name}""#);
            let tagged = format!(r#"{{"type":"{name}""#);
            assert!(
                rows.iter().any(|(t, _, _, pinned)| *t == tag
                    && (*pinned == bare || pinned.starts_with(&tagged))),
                "no default row for {tag} `{name}`"
            );
        }
    }
}

/// The error a document produces, reduced to its variant and field path.
fn error_of(doc: &str) -> String {
    match parse_scenario(doc) {
        Ok(_) => "accepted".to_string(),
        Err(SpecError::Json(e)) => format!("Json {}:{}", e.line, e.col),
        Err(SpecError::UnknownName { field, .. }) => format!("UnknownName {field}"),
        Err(SpecError::UnknownField { field, .. }) => format!("UnknownField {field}"),
        Err(SpecError::Invalid { field, .. }) => format!("Invalid {field}"),
        Err(SpecError::Build { .. }) => "Build".to_string(),
    }
}

/// One single-mistake document per rule, with its variant and path.
fn error_rows() -> Vec<(String, &'static str)> {
    let s = |x: &str| x.to_string();
    vec![
        // Non-finite: JSON has no infinity, so the JSON layer rejects it.
        (s(r#"{"engine": {"mem_frac": 1e999}}"#), "Json 1:30"),
        // Negative.
        (
            s(r#"{"engine": {"deadline_secs": -1}}"#),
            "Invalid scenario.engine.deadline_secs",
        ),
        (
            arrivals(r#"{"type": "burst", "at_secs": -2}"#),
            "Invalid scenario.workload.arrivals.at_secs",
        ),
        (
            s(r#"{"engine": {"max_batch": -1}}"#),
            "Invalid scenario.engine.max_batch",
        ),
        (
            topology(r#"{"type": "autoscaled", "control": {"boot_delay_secs": -1}}"#),
            "Invalid scenario.topology.control.boot_delay_secs",
        ),
        (
            topology(
                r#"{"type": "autoscaled", "policy": {"type": "scripted", "steps": [[-1, 2]]}}"#,
            ),
            "Invalid scenario.topology.policy.steps[0][0]",
        ),
        // Zero.
        (
            s(r#"{"scheduler": {"type": "chunked", "chunk": 0}}"#),
            "Invalid scenario.scheduler.chunk",
        ),
        (
            s(r#"{"engine": {"max_batch": 0}}"#),
            "Invalid scenario.engine.max_batch",
        ),
        (
            topology(r#"{"type": "cluster", "replicas": 0}"#),
            "Invalid scenario.topology.replicas",
        ),
        (
            topology(r#"{"type": "autoscaled", "bootstrap": 0}"#),
            "Invalid scenario.topology.bootstrap",
        ),
        (
            topology(r#"{"type": "cluster", "execution": {"type": "parallel", "threads": 0}}"#),
            "Invalid scenario.topology.execution.threads",
        ),
        (
            topology(r#"{"type": "cluster", "execution": {"parallel": {"threads": 0}}}"#),
            "Invalid scenario.topology.execution.parallel.threads",
        ),
        (
            topology(r#"{"type": "autoscaled", "control": {"min_replicas": 0}}"#),
            "Invalid scenario.topology.control.min_replicas",
        ),
        (
            arrivals(r#"{"type": "poisson", "rate": 0}"#),
            "Invalid scenario.workload.arrivals.rate",
        ),
        (
            arrivals(r#"{"type": "diurnal", "duration_secs": 0}"#),
            "Invalid scenario.workload.arrivals.period_secs",
        ),
        (
            s(r#"{"workload": {"type": "inline", "requests": [{"output_tokens": 0}]}}"#),
            "Invalid scenario.workload.requests[0].output_tokens",
        ),
        (
            rate(r#"{"type": "mix", "entries": [[0, 10]]}"#),
            "Invalid scenario.workload.rate.entries[0][0]",
        ),
        (
            rate(r#"{"type": "mix", "entries": [[1, 0]]}"#),
            "Invalid scenario.workload.rate.entries[0][1]",
        ),
        (
            fault(r#"{"shed_utilization": 0}"#),
            "Invalid scenario.fault.shed_utilization",
        ),
        (
            topology(r#"{"type": "autoscaled", "control": {"gamma": 0}}"#),
            "Invalid scenario.topology.control.gamma",
        ),
        (
            topology(r#"{"type": "autoscaled", "control": {"control_tick_secs": 0}}"#),
            "Invalid scenario.topology.control.control_tick_secs",
        ),
        // Over u32.
        (
            s(r#"{"engine": {"max_batch": 4294967296}}"#),
            "Invalid scenario.engine.max_batch",
        ),
        (
            arrivals(r#"{"type": "burst", "size": 4294967296}"#),
            "Invalid scenario.workload.arrivals.size",
        ),
        (
            fault(r#"{"retry": {"max_attempts": 4294967296}}"#),
            "Invalid scenario.fault.retry.max_attempts",
        ),
        // Over u32 milliseconds.
        (
            s(r#"{"scheduler": {"type": "andes", "interval_ms": 4294967296}}"#),
            "Invalid scenario.scheduler.interval_ms",
        ),
        (
            s(r#"{"scheduler": {"type": "tokenflow", "schedule_interval_ms": 4294967296}}"#),
            "Invalid scenario.scheduler.schedule_interval_ms",
        ),
        (
            fault(r#"{"retry": {"max_backoff_ms": 4294967296}}"#),
            "Invalid scenario.fault.retry.max_backoff_ms",
        ),
        // Wrong JSON type.
        (s(r#"{"name": 5}"#), "Invalid scenario.name"),
        (s(r#"{"model": 5}"#), "Invalid scenario.model"),
        (
            s(r#"{"engine": {"offload_enabled": 1}}"#),
            "Invalid scenario.engine.offload_enabled",
        ),
        (s(r#"{"engine": []}"#), "Invalid scenario.engine"),
        (s(r#"{"scheduler": 5}"#), "Invalid scenario.scheduler"),
        (
            s(r#"{"scheduler": {"type": 5}}"#),
            "Invalid scenario.scheduler.type",
        ),
        (
            s(r#"{"scheduler": {"type": "fcfs", "headroom": "big"}}"#),
            "Invalid scenario.scheduler.headroom",
        ),
        (
            s(r#"{"scheduler": {"type": "chunked", "chunk": 1.5}}"#),
            "Invalid scenario.scheduler.chunk",
        ),
        (
            s(r#"{"scheduler": {"type": "tokenflow", "gamma": "x"}}"#),
            "Invalid scenario.scheduler.gamma",
        ),
        (
            topology(r#"{"type": "autoscaled", "control": {"gamma": "x"}}"#),
            "Invalid scenario.topology.control.gamma",
        ),
        (
            s(r#"{"workload": {"type": "inline", "requests": {}}}"#),
            "Invalid scenario.workload.requests",
        ),
        (
            s(r#"{"workload": {"type": "inline", "requests": [5]}}"#),
            "Invalid scenario.workload.requests[0]",
        ),
        (
            rate(r#"{"type": "mix", "entries": [[1, 2, 3]]}"#),
            "Invalid scenario.workload.rate.entries[0]",
        ),
        (
            fault(r#"{"boot_failures": [-1]}"#),
            "Invalid scenario.fault.boot_failures[0]",
        ),
        (
            fault(r#"{"crashes": {}}"#),
            "Invalid scenario.fault.crashes",
        ),
        (
            topology(r#"{"type": "cluster", "execution": {"parallel": {}, "auto": {}}}"#),
            "Invalid scenario.topology.execution",
        ),
        // Unknown field.
        (
            s(r#"{"engine": {"max_bach": 1}}"#),
            "UnknownField scenario.engine.max_bach",
        ),
        (s(r#"{"nmae": "x"}"#), "UnknownField scenario.nmae"),
        (
            s(r#"{"scheduler": {"type": "fcfs", "headrom": 5}}"#),
            "UnknownField scenario.scheduler.headrom",
        ),
        (
            prompt(r#"{"type": "fixed", "token": 5}"#),
            "UnknownField scenario.workload.prompt.token",
        ),
        (
            fault(r#"{"crashes": [{"replica": 0, "at_secs": 1, "at": 2}]}"#),
            "UnknownField scenario.fault.crashes[0].at",
        ),
        (
            topology(r#"{"type": "cluster", "execution": {"parallel": {"treads": 2}}}"#),
            "UnknownField scenario.topology.execution.parallel.treads",
        ),
        // Unknown name.
        (
            s(r#"{"scheduler": "lottery"}"#),
            "UnknownName scenario.scheduler.type",
        ),
        (
            s(r#"{"scheduler": {"type": "lottery"}}"#),
            "UnknownName scenario.scheduler.type",
        ),
        (s(r#"{"model": "gpt-5"}"#), "UnknownName scenario.model"),
        (
            s(r#"{"hardware": "tpu-v9"}"#),
            "UnknownName scenario.hardware",
        ),
        (
            s(r#"{"workload": {"type": "preset", "name": "tpu-pod"}}"#),
            "UnknownName scenario.workload.name",
        ),
        (
            topology(r#"{"type": "cluster", "router": "random"}"#),
            "UnknownName scenario.topology.router.type",
        ),
        (
            topology(r#"{"type": "cluster", "execution": {"threaded": {}}}"#),
            "UnknownName scenario.topology.execution",
        ),
        (
            prompt(r#""zipf""#),
            "UnknownName scenario.workload.prompt.type",
        ),
        // Missing required field.
        (
            s(r#"{"workload": {"type": "synthetic"}}"#),
            "Invalid scenario.workload.arrivals",
        ),
        (
            s(r#"{"workload": {"type": "preset"}}"#),
            "Invalid scenario.workload.name",
        ),
        (
            s(r#"{"workload": {"type": "trace-csv"}}"#),
            "Invalid scenario.workload.path",
        ),
        (
            s(r#"{"workload": {"type": "inline"}}"#),
            "Invalid scenario.workload.requests",
        ),
        (
            topology(r#"{"type": "autoscaled", "policy": {"type": "scripted"}}"#),
            "Invalid scenario.topology.policy.steps",
        ),
        (
            rate(r#"{"type": "mix"}"#),
            "Invalid scenario.workload.rate.entries",
        ),
        (
            fault(r#"{"crashes": [{"replica": 0}]}"#),
            "Invalid scenario.fault.crashes[0].at_secs",
        ),
        (
            fault(r#"{"crashes": [{"at_secs": 1}]}"#),
            "Invalid scenario.fault.crashes[0].replica",
        ),
        (
            fault(r#"{"stragglers": [{"replica": 0, "from_secs": 1, "until_secs": 2}]}"#),
            "Invalid scenario.fault.stragglers[0].factor",
        ),
        (
            fault(r#"{"kv_link": [{"replica": 0, "until_secs": 2, "factor": 0.5}]}"#),
            "Invalid scenario.fault.kv_link[0].from_secs",
        ),
        // Range and cross-field rules.
        (
            s(r#"{"engine": {"mem_frac": 1.5}}"#),
            "Invalid scenario.engine.mem_frac",
        ),
        (
            s(r#"{"engine": {"mem_frac": 0}}"#),
            "Invalid scenario.engine.mem_frac",
        ),
        (
            topology(
                r#"{"type": "autoscaled", "control": {"min_replicas": 4, "max_replicas": 2}}"#,
            ),
            "Invalid scenario.topology.control.max_replicas",
        ),
        (
            rate(r#"{"type": "uniform", "lo": 10, "hi": 5}"#),
            "Invalid scenario.workload.rate.hi",
        ),
        (
            rate(r#"{"type": "mix", "entries": []}"#),
            "Invalid scenario.workload.rate.entries",
        ),
        (
            fault(
                r#"{"stragglers": [{"replica": 0, "from_secs": 5, "until_secs": 5, "factor": 0.5}]}"#,
            ),
            "Invalid scenario.fault.stragglers[0].until_secs",
        ),
        (
            fault(
                r#"{"kv_link": [{"replica": 0, "from_secs": 1, "until_secs": 2, "factor": 1.5}]}"#,
            ),
            "Invalid scenario.fault.kv_link[0].factor",
        ),
        (
            fault(r#"{"retry": {"multiplier": 0.5}}"#),
            "Invalid scenario.fault.retry.multiplier",
        ),
        (s(r#"{"fault": {}}"#), "Invalid scenario.fault"),
        (
            fault(r#"{"crashes": [{"replica": 2, "at_secs": 1}]}"#),
            "Invalid scenario.fault.crashes[0].replica",
        ),
        (
            fault(r#"{"boot_failures": [0, 5]}"#),
            "Invalid scenario.fault.boot_failures[1]",
        ),
        (
            s(
                r#"{"topology": {"type": "autoscaled", "control": {"max_replicas": 3}},
                  "fault": {"kv_link": [{"replica": 3, "from_secs": 0, "until_secs": 1,
                                         "factor": 1}]}}"#,
            ),
            "Invalid scenario.fault.kv_link[0].replica",
        ),
        // A bare type string defaults every field, but a required one
        // is still reported.
        (
            topology(r#"{"type": "autoscaled", "policy": "scripted"}"#),
            "Invalid scenario.topology.policy.steps",
        ),
        // Knob-free variants written as objects are typo-guarded too.
        (
            topology(r#"{"type": "cluster", "router": {"type": "rate-aware", "weight": 1}}"#),
            "UnknownField scenario.topology.router.weight",
        ),
        (
            topology(r#"{"type": "cluster", "execution": {"type": "sequential", "threads": 2}}"#),
            "UnknownField scenario.topology.execution.threads",
        ),
        (
            topology(r#"{"type": "single", "replicas": 4}"#),
            "UnknownField scenario.topology.replicas",
        ),
        (
            prompt(r#"{"type": "sharegpt-prompt", "mean": 5}"#),
            "UnknownField scenario.workload.prompt.mean",
        ),
    ]
    .into_iter()
    .chain(run_time_panics())
    .collect()
}

/// Specs that parse-time checks once let through and the run then
/// panicked on; each is now a typed error at the field that breaks it.
fn run_time_panics() -> Vec<(String, &'static str)> {
    vec![
        // `SimRng::uniform_u64`: empty range.
        (
            prompt(r#"{"type": "uniform", "lo": 100, "hi": 10}"#),
            "Invalid scenario.workload.prompt.hi",
        ),
        // `f64::clamp` with min > max, also through the defaults alone:
        // mean 2 gives a default max of 8 under the default min of 16.
        (
            prompt(r#"{"type": "normal", "mean": 100, "min": 50, "max": 40}"#),
            "Invalid scenario.workload.prompt.max",
        ),
        (
            prompt(r#"{"type": "normal", "mean": 2}"#),
            "Invalid scenario.workload.prompt.max",
        ),
        // `SimRng::lognormal_mean_std` asserts, then `Ord::clamp`.
        (
            prompt(r#"{"type": "lognormal", "mean": 0}"#),
            "Invalid scenario.workload.prompt.mean",
        ),
        (
            prompt(r#"{"type": "lognormal", "std": -1}"#),
            "Invalid scenario.workload.prompt.std",
        ),
        (
            prompt(r#"{"type": "lognormal", "min": 100, "max": 50}"#),
            "Invalid scenario.workload.prompt.max",
        ),
        // `ArrivalSpec::Diurnal`: need trough <= peak.
        (
            arrivals(r#"{"type": "diurnal", "trough_rate": 6, "peak_rate": 5}"#),
            "Invalid scenario.workload.arrivals.peak_rate",
        ),
        // `ControlPlane::new`: bootstrap fleet outside the bounds.
        (
            topology(r#"{"type": "autoscaled", "bootstrap": 8, "control": {"max_replicas": 2}}"#),
            "Invalid scenario.topology.bootstrap",
        ),
        (
            topology(r#"{"type": "autoscaled", "bootstrap": 1, "control": {"min_replicas": 2}}"#),
            "Invalid scenario.topology.bootstrap",
        ),
        // `Engine::from_boxed`: the model's weights leave no KV block,
        // under the default `mem_frac` and under a small one.
        (
            r#"{"model": "Qwen2.5-32B"}"#.to_string(),
            "Invalid scenario.engine.mem_frac",
        ),
        (
            r#"{"hardware": "H200", "engine": {"mem_frac": 0.05}}"#.to_string(),
            "Invalid scenario.engine.mem_frac",
        ),
    ]
}

#[test]
fn every_single_mistake_is_pinned_to_its_variant_and_field() {
    let mut failures = Vec::new();
    for (doc, pinned) in error_rows() {
        let got = error_of(&doc);
        if got != pinned {
            failures.push(format!("{doc}\n  want {pinned}\n  got  {got}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// `build` runs the parser's checks: a spec built in code that breaks a
/// rule fails with the very error the parser gives its JSON spelling.
#[test]
fn build_rejects_in_code_what_the_parser_rejects_in_json() {
    let synthetic = |prompt| ScenarioSpec {
        workload: WorkloadSpec::Synthetic {
            arrivals: ArrivalSpec::Burst {
                size: 2,
                at: SimTime::ZERO,
            },
            prompt,
            output: LengthDistSpec::Fixed(8),
            rate: RateDist::Fixed(10.0),
            seed: 1,
        },
        ..ScenarioSpec::default()
    };
    let autoscaled = |bootstrap, control| ScenarioSpec {
        topology: TopologySpec::Autoscaled {
            bootstrap,
            router: RouterSpec::default(),
            policy: ScalePolicySpec::default(),
            control,
            execution: ExecutionSpec::Sequential,
        },
        ..ScenarioSpec::default()
    };
    let cases = [
        (
            synthetic(LengthDistSpec::Uniform { lo: 100, hi: 10 }),
            prompt(r#"{"type": "uniform", "lo": 100, "hi": 10}"#),
        ),
        (
            synthetic(LengthDistSpec::LogNormal {
                mean: 0.0,
                std: 1.0,
                min: 1,
                max: 10,
            }),
            prompt(r#"{"type": "lognormal", "mean": 0}"#),
        ),
        (
            autoscaled(
                8,
                ControlSpec {
                    max_replicas: 2,
                    ..ControlSpec::default()
                },
            ),
            topology(r#"{"type": "autoscaled", "bootstrap": 8, "control": {"max_replicas": 2}}"#),
        ),
        (
            ScenarioSpec {
                engine: EngineSpec {
                    mem_frac: 1.5,
                    ..EngineSpec::default()
                },
                ..ScenarioSpec::default()
            },
            r#"{"engine": {"mem_frac": 1.5}}"#.to_string(),
        ),
        (
            ScenarioSpec {
                fault: Some(FaultPlan::default()),
                ..ScenarioSpec::default()
            },
            r#"{"fault": {}}"#.to_string(),
        ),
        (
            ScenarioSpec {
                model: "Qwen2.5-32B".to_string(),
                ..ScenarioSpec::default()
            },
            r#"{"model": "Qwen2.5-32B"}"#.to_string(),
        ),
    ];
    for (spec, doc) in cases {
        let parsed = parse_scenario(&doc).expect_err(&doc);
        assert_eq!(spec.build().err(), Some(parsed), "{doc}");
    }
    // A value no JSON document can carry is caught too.
    let spec = ScenarioSpec {
        engine: EngineSpec {
            deadline_secs: f64::NAN,
            ..EngineSpec::default()
        },
        ..ScenarioSpec::default()
    };
    assert!(
        matches!(spec.build(), Err(SpecError::Invalid { ref field, .. })
        if field == "scenario.engine.deadline_secs")
    );
}
