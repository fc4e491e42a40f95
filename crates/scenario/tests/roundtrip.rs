//! JSON round-trip properties for every spec variant.
//!
//! The canonical contract: for any spec value, `parse(emit(spec)) ==
//! spec`, and emission is a fixed point (`emit(parse(text)) == text` for
//! emitted `text`) — so specs survive arbitrarily many JSON hops without
//! drift. Unknown names must come back as typed errors listing the valid
//! alternatives, never as panics.

use proptest::prelude::*;
use tokenflow_core::BLOCK_TOKENS;
use tokenflow_fault::{CrashFault, FaultPlan, RetryPolicy, WindowFault};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_scenario::{
    codec, json, ControlSpec, EngineSpec, ExecutionSpec, InlineRequest, LengthDistSpec, RouterSpec,
    ScalePolicySpec, ScenarioSpec, SchedulerSpec, SpecError, TopologySpec, WorkloadSpec,
    HARDWARE_NAMES, MODEL_NAMES, PRESET_NAMES, ROUTER_NAMES, SCALE_POLICY_NAMES, SCHEDULER_NAMES,
};
use tokenflow_sched::TokenFlowParams;
use tokenflow_sim::{SimDuration, SimTime};
use tokenflow_workload::{ArrivalSpec, RateDist};

/// An instant drawn in whole microseconds below `secs` seconds.
fn arb_time(secs: u64) -> impl Strategy<Value = SimTime> {
    (0..secs * 1_000_000).prop_map(SimTime::from_micros)
}

/// A duration drawn in whole microseconds over `[lo, hi)` seconds.
fn arb_duration(lo: u64, hi: u64) -> impl Strategy<Value = SimDuration> {
    (lo * 1_000_000..hi * 1_000_000).prop_map(SimDuration::from_micros)
}

/// Strings exercising the emitter's escaping: spaces, quotes, newlines,
/// non-ASCII, path separators.
fn arb_name() -> impl Strategy<Value = String> {
    const CANDIDATES: [&str; 8] = [
        "plain",
        "with space",
        "quo\"ted",
        "back\\slash",
        "line\nbreak",
        "tabbed\there",
        "ünïcode-π",
        "rel/path_01.csv",
    ];
    (0usize..CANDIDATES.len()).prop_map(|i| CANDIDATES[i].to_string())
}

fn arb_scheduler() -> impl Strategy<Value = SchedulerSpec> {
    prop_oneof![
        (0u64..2, 1u64..4096).prop_map(|(tag, h)| SchedulerSpec::Fcfs {
            headroom: (tag == 1).then_some(h),
        }),
        (1u64..4096).prop_map(|chunk| SchedulerSpec::Chunked { chunk }),
        (1u64..5_000).prop_map(|interval_ms| SchedulerSpec::Andes { interval_ms }),
        (
            (1u64..5_000, 1.0f64..20.0, 0.0f64..1.0, 0.0f64..4.0),
            (0.0f64..10.0, 0u64..512, 0.5f64..1.0),
            (0u64..1024, 0.0f64..4.0, 0.1f64..1.0, 1u64..8192, 0u64..64),
        )
            .prop_map(
                |(
                    (schedule_interval_ms, buffer_conservativeness, ws_adjust_rate, gamma),
                    (critical_buffer_secs, headroom_tokens, util_target),
                    (
                        max_transitions,
                        io_backpressure,
                        capacity_safety,
                        prefill_chunk,
                        swap_candidates,
                    ),
                )| SchedulerSpec::TokenFlow(TokenFlowParams {
                    schedule_interval: SimDuration::from_millis(schedule_interval_ms),
                    buffer_conservativeness,
                    ws_adjust_rate,
                    gamma,
                    critical_buffer_secs,
                    headroom_tokens,
                    util_target,
                    max_transitions: max_transitions as usize,
                    io_backpressure,
                    capacity_safety,
                    prefill_chunk,
                    swap_candidates: swap_candidates as usize,
                })
            ),
    ]
}

fn arb_router() -> impl Strategy<Value = RouterSpec> {
    prop_oneof![
        Just(RouterSpec::RoundRobin),
        Just(RouterSpec::LeastLoaded),
        Just(RouterSpec::BacklogAware),
        Just(RouterSpec::RateAware),
    ]
}

fn arb_policy() -> impl Strategy<Value = ScalePolicySpec> {
    prop_oneof![
        (0.1f64..1.0, 1u64..65_536, 0.1f64..1.0).prop_map(
            |(target_utilization, backlog_per_replica, kv_watermark)| {
                ScalePolicySpec::Reactive {
                    target_utilization,
                    backlog_per_replica,
                    kv_watermark,
                }
            }
        ),
        (1.0f64..300.0, 0.1f64..1.0, 1u64..65_536, 0.1f64..1.0).prop_map(
            |(tau_secs, target_utilization, backlog_per_replica, kv_watermark)| {
                ScalePolicySpec::PredictiveEwma {
                    tau_secs,
                    target_utilization,
                    backlog_per_replica,
                    kv_watermark,
                }
            }
        ),
        collection::vec((0.0f64..600.0, 1u64..16), 0usize..6)
            .prop_map(|steps| ScalePolicySpec::Scripted { steps }),
    ]
}

fn arb_control() -> impl Strategy<Value = ControlSpec> {
    (
        (1u64..4, 4u64..64, 0.0f64..30.0, 0.0f64..30.0),
        (0u64..2, 1.0f64..2_000.0),
        (0u64..2, 0.001f64..60.0),
    )
        .prop_map(
            |((min, max, boot, cooldown), (has_gamma, gamma), (has_tick, tick))| ControlSpec {
                min_replicas: min,
                max_replicas: max,
                boot_delay_secs: boot,
                cooldown_secs: cooldown,
                gamma: (has_gamma == 1).then_some(gamma),
                control_tick_secs: (has_tick == 1).then_some(tick),
            },
        )
}

fn arb_execution() -> impl Strategy<Value = ExecutionSpec> {
    prop_oneof![
        Just(ExecutionSpec::Sequential),
        Just(ExecutionSpec::Auto),
        (1u64..64).prop_map(ExecutionSpec::Parallel),
    ]
}

fn arb_arrivals() -> impl Strategy<Value = ArrivalSpec> {
    prop_oneof![
        (1u32..500, arb_time(600)).prop_map(|(size, at)| ArrivalSpec::Burst { size, at }),
        (0.1f64..50.0, arb_duration(1, 600))
            .prop_map(|(rate, duration)| ArrivalSpec::Poisson { rate, duration }),
        (
            0.1f64..10.0,
            1.0f64..100.0,
            arb_duration(1, 60),
            arb_duration(1, 30),
            arb_duration(1, 600)
        )
            .prop_map(|(base_rate, burst_rate, mean_calm, mean_burst, duration)| {
                ArrivalSpec::Mmpp {
                    base_rate,
                    burst_rate,
                    mean_calm,
                    mean_burst,
                    duration,
                }
            }),
        (
            0.01f64..5.0,
            1.0f64..50.0,
            arb_duration(10, 600),
            arb_duration(10, 600)
        )
            .prop_map(
                |(trough_rate, peak_rate, period, duration)| ArrivalSpec::Diurnal {
                    trough_rate: trough_rate.min(peak_rate),
                    peak_rate,
                    period,
                    duration,
                }
            ),
    ]
}

fn arb_length_dist() -> impl Strategy<Value = LengthDistSpec> {
    prop_oneof![
        (1u64..8192).prop_map(LengthDistSpec::Fixed),
        (16.0f64..4096.0, 1.0f64..1024.0, 1u64..64, 4096u64..16_384).prop_map(
            |(mean, std, min, max)| LengthDistSpec::Normal {
                mean,
                std,
                min,
                max
            }
        ),
        (16.0f64..4096.0, 1.0f64..1024.0, 1u64..64, 4096u64..16_384).prop_map(
            |(mean, std, min, max)| LengthDistSpec::LogNormal {
                mean,
                std,
                min,
                max
            }
        ),
        (1u64..512, 512u64..4096).prop_map(|(lo, hi)| LengthDistSpec::Uniform { lo, hi }),
        Just(LengthDistSpec::SharegptPrompt),
        Just(LengthDistSpec::SharegptOutput),
    ]
}

fn arb_rate_dist() -> impl Strategy<Value = RateDist> {
    prop_oneof![
        (1.0f64..50.0).prop_map(RateDist::Fixed),
        (1.0f64..10.0, 10.0f64..50.0).prop_map(|(lo, hi)| RateDist::Uniform { lo, hi }),
        collection::vec((0.01f64..1.0, 1.0f64..50.0), 1usize..5).prop_map(RateDist::Mix),
    ]
}

fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        (0usize..PRESET_NAMES.len(), 0u64..1_000).prop_map(|(i, seed)| WorkloadSpec::Preset {
            name: PRESET_NAMES[i].to_string(),
            seed,
        }),
        (
            (0.1f64..10.0, 10.0f64..600.0, 1u64..200, 0.0f64..300.0),
            arb_rate_dist(),
            0u64..1_000
        )
            .prop_map(
                |((peak_rate, duration_secs, crowd_size, crowd_at_secs), rate, seed)| {
                    WorkloadSpec::DiurnalFlashCrowd {
                        peak_rate,
                        duration_secs,
                        crowd_size,
                        crowd_at_secs,
                        rate,
                        seed,
                    }
                }
            ),
        (
            arb_arrivals(),
            arb_length_dist(),
            arb_length_dist(),
            arb_rate_dist(),
            0u64..1_000
        )
            .prop_map(
                |(arrivals, prompt, output, rate, seed)| WorkloadSpec::Synthetic {
                    arrivals,
                    prompt,
                    output,
                    rate,
                    seed,
                }
            ),
        arb_name().prop_map(|path| WorkloadSpec::TraceCsv { path }),
        collection::vec(
            (0.0f64..100.0, 1u64..4096, 1u64..4096, 1.0f64..50.0).prop_map(
                |(arrival_secs, prompt_tokens, output_tokens, rate)| InlineRequest {
                    arrival_secs,
                    prompt_tokens,
                    output_tokens,
                    rate,
                }
            ),
            0usize..5
        )
        .prop_map(|requests| WorkloadSpec::Inline { requests }),
    ]
}

fn arb_engine() -> impl Strategy<Value = EngineSpec> {
    (
        1u64..512,
        (0u64..2, 0u64..2, 0u64..2),
        1_024u64..16_384,
        60.0f64..20_000.0,
    )
        .prop_map(
            |(max_batch, (offload, wt, overlap), max_prefill_tokens, deadline_secs)| EngineSpec {
                max_batch,
                mem_frac: 0.3 + (max_batch % 7) as f64 * 0.1,
                offload_enabled: offload == 1,
                write_through: wt == 1,
                load_evict_overlap: overlap == 1,
                max_prefill_tokens,
                deadline_secs,
                plan_horizon: (max_batch + offload) % 2 == 0,
            },
        )
}

fn arb_topology() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        Just(TopologySpec::Single),
        (1u64..16, arb_router(), arb_execution()).prop_map(|(replicas, router, execution)| {
            TopologySpec::Cluster {
                replicas,
                router,
                execution,
            }
        }),
        (
            1u64..8,
            arb_router(),
            arb_policy(),
            arb_control(),
            arb_execution()
        )
            .prop_map(|(bootstrap, router, policy, control, execution)| {
                // The control plane boots inside the fleet bounds.
                TopologySpec::Autoscaled {
                    bootstrap: bootstrap.clamp(control.min_replicas, control.max_replicas),
                    router,
                    policy,
                    control,
                    execution,
                }
            }),
    ]
}

fn arb_window_fault(bound: usize) -> impl Strategy<Value = WindowFault> {
    (0..bound, arb_time(300), arb_duration(0, 200), 0.05f64..1.0).prop_map(
        |(replica, from, width, factor)| WindowFault {
            replica,
            from,
            // A window holds at least one microsecond.
            until: from + width.max(SimDuration::from_micros(1)),
            factor,
        },
    )
}

/// A fault schedule whose replica indices all lie inside `bound` — the
/// cross-field topology check would reject anything larger, so the
/// round-trip property generates only specs that parse back.
fn arb_fault(bound: u64) -> impl Strategy<Value = Option<FaultPlan>> {
    let bound = bound as usize;
    let full = (
        collection::vec(
            (0..bound, arb_time(600)).prop_map(|(replica, at)| CrashFault { replica, at }),
            0usize..3,
        ),
        collection::vec(arb_window_fault(bound), 0usize..3),
        collection::vec(arb_window_fault(bound), 0usize..3),
        collection::vec(0..bound, 0usize..3),
        (1u32..8, 1u64..5_000, 1.0f64..4.0, 1u64..60_000),
        (0u64..2, 0.5f64..8.0),
    )
        .prop_map(
            |(crashes, stragglers, kv_link, boot_failures, retry, (has_shed, shed))| {
                Some(FaultPlan {
                    crashes,
                    stragglers,
                    kv_link,
                    boot_failures,
                    retry: RetryPolicy {
                        max_attempts: retry.0,
                        base_backoff: SimDuration::from_millis(retry.1),
                        multiplier: retry.2,
                        max_backoff: SimDuration::from_millis(retry.3),
                    },
                    shed_utilization: (has_shed == 1).then_some(shed),
                })
            },
        );
    prop_oneof![Just(None), full]
}

fn arb_scenario() -> impl Strategy<Value = ScenarioSpec> {
    (
        (arb_name(), 0usize..4, 0usize..4),
        arb_engine(),
        arb_scheduler(),
        arb_workload(),
        arb_topology(),
    )
        .prop_flat_map(|(names, engine, scheduler, workload, topology)| {
            // Fault replica indices must respect the topology's bound —
            // single topologies take no fault at all.
            let fault = match &topology {
                TopologySpec::Single => Just(None).boxed(),
                TopologySpec::Cluster { replicas, .. } => arb_fault(*replicas).boxed(),
                TopologySpec::Autoscaled { control, .. } => arb_fault(control.max_replicas).boxed(),
            };
            (
                Just(names),
                Just(engine),
                Just(scheduler),
                Just(workload),
                Just(topology),
                fault,
            )
        })
        .prop_map(
            |((name, model_i, hw_i), engine, scheduler, workload, topology, fault)| ScenarioSpec {
                name,
                model: MODEL_NAMES[model_i].to_string(),
                hardware: HARDWARE_NAMES[hw_i].to_string(),
                engine,
                scheduler,
                workload,
                topology,
                fault,
            },
        )
}

/// Whether the spec's memory budget holds one KV block once the model's
/// weights are loaded (what the engine asserts at construction).
fn fits(spec: &ScenarioSpec) -> bool {
    let config = spec.engine.build_config(
        ModelProfile::by_name(&spec.model).expect("drawn from MODEL_NAMES"),
        HardwareProfile::by_name(&spec.hardware).expect("drawn from HARDWARE_NAMES"),
    );
    config.gpu_kv_tokens() >= BLOCK_TOKENS
}

proptest! {
    #[test]
    fn scenario_json_roundtrip_is_identity(spec in arb_scenario()) {
        let text = codec::to_json(&spec).emit();
        // Every model × hardware × mem_frac is drawn; one that leaves no
        // KV block is the typed `mem_frac` error, not a spec.
        if !fits(&spec) {
            match codec::parse_scenario(&text) {
                Err(SpecError::Invalid { field, .. }) => {
                    prop_assert_eq!(field, "scenario.engine.mem_frac");
                }
                other => prop_assert!(false, "expected the mem_frac error, got {:?}", other),
            }
            return Ok(());
        }
        let parsed = codec::parse_scenario(&text)
            .map_err(|e| format!("emitted spec failed to parse: {e}\n{text}"))?;
        prop_assert_eq!(&parsed, &spec);
        // Emission is a fixed point: JSON → spec → JSON is identity on
        // canonical documents.
        prop_assert_eq!(codec::to_json(&parsed).emit(), text);
        // The pretty form parses back to the same spec too.
        let pretty = codec::to_json(&spec).emit_pretty();
        let reparsed = codec::parse_scenario(&pretty)
            .map_err(|e| format!("pretty form failed to parse: {e}"))?;
        prop_assert_eq!(reparsed, spec);
    }

    #[test]
    fn scheduler_json_roundtrip_is_identity(spec in arb_scheduler()) {
        let j = codec::to_json(&spec);
        let parsed = codec::from_json::<SchedulerSpec>(&j, "s")
            .map_err(|e| format!("{e}"))?;
        prop_assert_eq!(parsed, spec);
    }

    #[test]
    fn router_json_roundtrip_is_identity(spec in arb_router()) {
        let j = codec::to_json(&spec);
        let parsed = codec::from_json::<RouterSpec>(&j, "r").map_err(|e| format!("{e}"))?;
        prop_assert_eq!(parsed, spec);
    }

    #[test]
    fn policy_json_roundtrip_is_identity(spec in arb_policy()) {
        let j = codec::to_json(&spec);
        let parsed = codec::from_json::<ScalePolicySpec>(&j, "p").map_err(|e| format!("{e}"))?;
        prop_assert_eq!(parsed, spec);
    }

    #[test]
    fn parsing_never_panics_on_mutated_documents(spec in arb_scenario(), cut in 0usize..400) {
        // Truncating an emitted document at any byte boundary must yield
        // a typed error (or still parse, for trailing-whitespace cuts) —
        // never a panic.
        let text = codec::to_json(&spec).emit();
        let cut = cut.min(text.len());
        let truncated: String = text.chars().take(cut).collect();
        let _ = codec::parse_scenario(&truncated);
    }
}

#[test]
fn unknown_names_are_typed_errors_listing_valid_ones() {
    let cases: [(&str, &[&str]); 4] = [
        (r#"{"scheduler": "mlfq"}"#, SCHEDULER_NAMES),
        (
            r#"{"topology": {"type": "cluster", "router": "random"}}"#,
            ROUTER_NAMES,
        ),
        (
            r#"{"topology": {"type": "autoscaled", "policy": "oracle"}}"#,
            SCALE_POLICY_NAMES,
        ),
        (
            r#"{"workload": {"type": "preset", "name": "tpu-pod"}}"#,
            PRESET_NAMES,
        ),
    ];
    for (doc, expected_valid) in cases {
        match codec::parse_scenario(doc) {
            Err(SpecError::UnknownName { valid, .. }) => {
                assert_eq!(valid, expected_valid.to_vec(), "for {doc}");
            }
            other => panic!("{doc}: expected UnknownName, got {other:?}"),
        }
    }
}

#[test]
fn execution_grammar_accepts_every_documented_form() {
    let parse = |doc: &str| {
        codec::from_json::<ExecutionSpec>(&json::parse(doc).unwrap(), "topology.execution").unwrap()
    };
    // Bare strings.
    assert_eq!(parse(r#""sequential""#), ExecutionSpec::Sequential);
    assert_eq!(parse(r#""auto""#), ExecutionSpec::Auto);
    // The canonical tagged object.
    assert_eq!(
        parse(r#"{"type": "parallel", "threads": 8}"#),
        ExecutionSpec::Parallel(8)
    );
    // The nested single-key shorthand, with and without threads.
    assert_eq!(
        parse(r#"{"parallel": {"threads": 8}}"#),
        ExecutionSpec::Parallel(8)
    );
    assert_eq!(parse(r#"{"parallel": {}}"#), ExecutionSpec::Parallel(4));
    // Every accepted form survives the canonical round trip.
    for spec in [
        ExecutionSpec::Sequential,
        ExecutionSpec::Auto,
        ExecutionSpec::Parallel(8),
    ] {
        let emitted = codec::to_json(&ScenarioSpec {
            topology: TopologySpec::Cluster {
                replicas: 2,
                router: RouterSpec::RoundRobin,
                execution: spec,
            },
            ..ScenarioSpec::default()
        })
        .emit();
        let reparsed = codec::parse_scenario(&emitted).unwrap();
        match reparsed.topology {
            TopologySpec::Cluster { execution, .. } => assert_eq!(execution, spec),
            other => panic!("expected cluster topology, got {other:?}"),
        }
    }
}

#[test]
fn execution_grammar_rejects_bad_forms_with_typed_errors() {
    let parse = |doc: &str| codec::from_json::<ExecutionSpec>(&json::parse(doc).unwrap(), "e");
    // Unknown strategy names list the valid alternatives, in both the
    // tagged and the nested form.
    for doc in [r#""threaded""#, r#"{"threaded": {"threads": 2}}"#] {
        match parse(doc) {
            Err(SpecError::UnknownName { got, valid, .. }) => {
                assert_eq!(got, "threaded", "for {doc}");
                assert_eq!(valid, vec!["sequential", "parallel", "auto"], "for {doc}");
            }
            other => panic!("{doc}: expected UnknownName, got {other:?}"),
        }
    }
    // Zero threads is a parse-time error in both object forms.
    for doc in [
        r#"{"type": "parallel", "threads": 0}"#,
        r#"{"parallel": {"threads": 0}}"#,
    ] {
        assert!(
            matches!(parse(doc), Err(SpecError::Invalid { .. })),
            "{doc} must be rejected"
        );
    }
    // Stray fields inside the nested body are typo-checked.
    assert!(matches!(
        parse(r#"{"parallel": {"treads": 2}}"#),
        Err(SpecError::UnknownField { .. })
    ));
    // A multi-key untagged object is not a strategy.
    assert!(matches!(
        parse(r#"{"parallel": {}, "sequential": {}}"#),
        Err(SpecError::Invalid { .. })
    ));
}

#[test]
fn json_error_reports_position_not_panic() {
    let err = codec::parse_scenario("{\"name\": \"x\",\n  broken\n}").unwrap_err();
    match err {
        SpecError::Json(e) => assert_eq!(e.line, 2, "{e}"),
        other => panic!("expected Json error, got {other:?}"),
    }
}

#[test]
fn committed_grammar_examples_parse() {
    // The exact shorthand forms the docs promise: bare-string scheduler,
    // router, execution, topology, and length-dist names.
    let spec = codec::parse_scenario(
        r#"{
            "scheduler": "fcfs",
            "workload": {"type": "synthetic",
                         "arrivals": {"type": "poisson", "rate": 1.0, "duration_secs": 10},
                         "prompt": "sharegpt-prompt",
                         "output": "sharegpt-output"},
            "topology": {"type": "cluster", "replicas": 2, "router": "rate-aware",
                          "execution": "sequential"}
        }"#,
    )
    .unwrap();
    assert_eq!(spec.scheduler, SchedulerSpec::Fcfs { headroom: None });
    assert!(matches!(
        spec.topology,
        TopologySpec::Cluster { replicas: 2, .. }
    ));
    // Shorthand and canonical forms parse to the same spec.
    let canonical = codec::to_json(&spec).emit();
    assert_eq!(codec::parse_scenario(&canonical).unwrap(), spec);
}

#[test]
fn emitted_pretty_files_are_stable_fixed_points() {
    // What `scenarios/` files rely on: pretty emission parses back and
    // re-emits identically.
    let spec = ScenarioSpec::default();
    let pretty = codec::to_json(&spec).emit_pretty();
    let reparsed = codec::parse_scenario(&pretty).unwrap();
    assert_eq!(codec::to_json(&reparsed).emit_pretty(), pretty);
}

// Silence an unused-import lint when the json helpers aren't referenced
// directly: the module is exercised through codec.
#[allow(unused_imports)]
use json as _json;

/// A JSON number drawn from `x`, rounded when the field is an integer —
/// negative integers included, so the parser sees them.
fn num(x: f64, int: bool) -> String {
    if int {
        format!("{}", x.round())
    } else {
        format!("{x}")
    }
}

/// An object body from `(key, value)` pairs, keeping only the pairs whose
/// bit is set in `keep` (so omitted fields take their — possibly derived —
/// defaults).
fn members(pairs: &[(&str, String)], keep: u32) -> String {
    pairs
        .iter()
        .enumerate()
        .filter(|(i, _)| keep & (1 << i) != 0)
        .map(|(_, (k, v))| format!(r#""{k}": {v}"#))
        .collect::<Vec<_>>()
        .join(", ")
}

/// A length distribution with moments and bounds drawn independently,
/// over ranges that include zero, negatives and swapped bounds.
fn arb_small_length() -> impl Strategy<Value = String> {
    let moments = (
        -10.0f64..250.0,
        -40.0f64..120.0,
        -10.0f64..260.0,
        -10.0f64..260.0,
        0u32..16,
    );
    prop_oneof![
        (-20.0f64..260.0, -20.0f64..260.0).prop_map(|(lo, hi)| format!(
            r#"{{"type": "uniform", "lo": {}, "hi": {}}}"#,
            num(lo, true),
            num(hi, true)
        )),
        (0u32..2, moments.clone()).prop_map(|(kind, (mean, std, min, max, keep))| {
            let kind = ["normal", "lognormal"][kind as usize];
            let body = members(
                &[
                    ("mean", num(mean, false)),
                    ("std", num(std, false)),
                    ("min", num(min, true)),
                    ("max", num(max, true)),
                ],
                keep,
            );
            format!(r#"{{"type": "{kind}", {body}}}"#).replace(", }", "}")
        }),
        (-5.0f64..200.0)
            .prop_map(|tokens| format!(r#"{{"type": "fixed", "tokens": {}}}"#, num(tokens, true))),
    ]
}

/// A small arrival process: a burst of at most 8 requests, or at most
/// 10 s of arrivals, with every rate drawn over a range through zero.
fn arb_small_arrivals() -> impl Strategy<Value = String> {
    prop_oneof![
        (1.0f64..9.0, -2.0f64..5.0).prop_map(|(size, at)| format!(
            r#"{{"type": "burst", "size": {}, "at_secs": {}}}"#,
            num(size.floor(), true),
            num(at, false)
        )),
        (-2.0f64..4.0, 0.0f64..10.0).prop_map(|(rate, duration)| format!(
            r#"{{"type": "poisson", "rate": {rate}, "duration_secs": {duration}}}"#
        )),
        (-1.0f64..3.0, -1.0f64..5.0, 0.0f64..10.0).prop_map(|(base, burst, duration)| format!(
            r#"{{"type": "mmpp", "base_rate": {base}, "burst_rate": {burst},
                "mean_calm_secs": 3, "mean_burst_secs": 1, "duration_secs": {duration}}}"#
        )),
        (
            -2.0f64..4.0,
            -2.0f64..4.0,
            -2.0f64..10.0,
            0.0f64..10.0,
            0u32..16
        )
            .prop_map(|(trough, peak, period, duration, keep)| {
                let body = members(
                    &[
                        ("trough_rate", num(trough, false)),
                        ("peak_rate", num(peak, false)),
                        ("period_secs", num(period, false)),
                        ("duration_secs", num(duration, false)),
                    ],
                    keep | 8,
                );
                format!(r#"{{"type": "diurnal", {body}}}"#)
            }),
    ]
}

/// A fault schedule over a fleet of at most 6 replicas: crash replicas
/// and times, straggler and KV-link windows (swapped and equal bounds
/// included), a retry budget with its backoffs, and a shed threshold.
/// Each value is mostly valid and otherwise drawn over a range through
/// zero and out of bounds, so that whole schedules still parse often.
fn arb_small_fault() -> impl Strategy<Value = String> {
    let replica = || prop_oneof![0.0f64..2.4, -1.0f64..8.0].prop_map(|r| num(r, true));
    // Half-second steps, so equal window bounds come up often.
    let step = |lo: u32, hi: u32| (lo..hi).prop_map(|k| f64::from(k) * 0.5);
    let window = || {
        (
            replica(),
            step(0, 8),
            prop_oneof![step(1, 8).prop_map(Some), Just(None)],
            step(0, 8),
            prop_oneof![0.05f64..1.0, -0.2f64..1.4],
        )
            .prop_map(|(replica, from, width, until, factor)| {
                // `until` is `from` plus a positive width, or drawn on its
                // own (so swapped or equal to `from`).
                let until = width.map_or(until, |w| from + w);
                format!(
                    r#"{{"replica": {replica}, "from_secs": {from}, "until_secs": {until}, "factor": {factor}}}"#
                )
            })
    };
    let crash = (replica(), prop_oneof![0.0f64..10.0, -1.0f64..10.0])
        .prop_map(|(replica, at)| format!(r#"{{"replica": {replica}, "at_secs": {at}}}"#));
    let retry = (
        prop_oneof![0.0f64..5.0, -1.0f64..5.0],
        prop_oneof![0.0f64..2_000.0, -10.0f64..2_000.0],
        prop_oneof![1.0f64..4.0, 0.0f64..4.0],
        0.0f64..5_000.0,
    )
        .prop_map(|(attempts, base, multiplier, max)| {
            format!(
                r#"{{"max_attempts": {}, "base_backoff_ms": {}, "multiplier": {multiplier},
                    "max_backoff_ms": {}}}"#,
                num(attempts, true),
                num(base, true),
                num(max, true)
            )
        });
    let list = |item: BoxedStrategy<String>| {
        collection::vec(item, 0usize..3).prop_map(|items| format!("[{}]", items.join(", ")))
    };
    (
        list(crash.boxed()),
        list(window().boxed()),
        list(window().boxed()),
        list(replica().boxed()),
        retry,
        prop_oneof![0.1f64..3.0, -0.5f64..3.0],
        0u32..64,
    )
        .prop_map(
            |(crashes, stragglers, kv_link, boot_failures, retry, shed, keep)| {
                let body = members(
                    &[
                        ("crashes", crashes),
                        ("stragglers", stragglers),
                        ("kv_link", kv_link),
                        ("boot_failures", boot_failures),
                        ("retry", retry),
                        ("shed_utilization", format!("{shed}")),
                    ],
                    keep,
                );
                format!("{{{body}}}")
            },
        )
}

/// A single engine, or an autoscaled fleet whose bootstrap size and
/// replica bounds are drawn independently (including zero and negatives)
/// under an optional fault schedule.
fn arb_small_topology() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(r#""topology": "single""#.to_string()),
        (
            -1.0f64..5.0,
            -1.0f64..4.0,
            -1.0f64..6.0,
            0u32..8,
            0u32..4,
            arb_small_fault()
        )
            .prop_map(|(bootstrap, min, max, keep, faulty, fault)| {
                let control = members(
                    &[
                        ("min_replicas", num(min, true)),
                        ("max_replicas", num(max, true)),
                        ("boot_delay_secs", "1".to_string()),
                    ],
                    keep | 4,
                );
                let bootstrap = members(&[("bootstrap", num(bootstrap, true))], keep >> 2);
                let fault = if faulty > 0 {
                    format!(r#", "fault": {fault}"#)
                } else {
                    String::new()
                };
                format!(
                    r#""topology": {{"type": "autoscaled", {bootstrap}{sep}"control": {{{control}}}}}{fault}"#,
                    sep = if bootstrap.is_empty() { "" } else { ", " }
                )
            }),
    ]
}

/// Every model, hardware and scheduler by name, a memory fraction over
/// a range past both ends of `(0, 1]` (so that many draws leave no KV
/// block, or less than one prompt), and a short deadline that ends a run
/// whose prompts never fit.
fn arb_small_stack() -> impl Strategy<Value = String> {
    (
        0usize..MODEL_NAMES.len(),
        0usize..HARDWARE_NAMES.len(),
        0usize..SCHEDULER_NAMES.len(),
        // Mostly near the default, where most pairs fit; a third of the
        // draws span both ends of `(0, 1]`.
        prop_oneof![0.65f64..1.0, 0.8f64..1.0, -0.1f64..1.1],
        0.5f64..20.0,
    )
        .prop_map(|(model, hardware, scheduler, mem_frac, deadline)| {
            format!(
                r#""model": "{}", "hardware": "{}", "scheduler": "{}",
                   "engine": {{"max_batch": 16, "mem_frac": {mem_frac}, "deadline_secs": {deadline}}}"#,
                MODEL_NAMES[model], HARDWARE_NAMES[hardware], SCHEDULER_NAMES[scheduler]
            )
        })
}

fn arb_small_doc() -> impl Strategy<Value = String> {
    (
        arb_small_stack(),
        arb_small_arrivals(),
        arb_small_length(),
        arb_small_length(),
        arb_small_topology(),
    )
        .prop_map(|(stack, arrivals, prompt, output, topology)| {
            format!(
                r#"{{{stack},
                    "workload": {{"type": "synthetic", "arrivals": {arrivals},
                                  "prompt": {prompt}, "output": {output},
                                  "rate": {{"type": "fixed", "rate": 15}}, "seed": 7}},
                    {topology}}}"#
            )
        })
}

/// ROADMAP item 4: every spec the parser accepts builds and runs to the
/// end without panicking, and every one it rejects is a typed error.
/// The knobs the runtime asserts on — the model, hardware and memory
/// fraction, length bounds and moments, arrival rates, the fleet's
/// bootstrap size and bounds, and a fault schedule's replicas, windows,
/// retries and shed threshold — are drawn independently over ranges that
/// include zero, negatives and swapped bounds, on workloads small enough
/// to run in milliseconds.
#[test]
fn every_accepted_spec_builds_and_runs_without_panicking() {
    let strategy = arb_small_doc();
    let mut rng = proptest::TestRng::new(proptest::seed_from_name("accepted-specs-run"));
    let (mut accepted, mut faulted, mut rejected) = (0, 0, 0);
    for case in 0..2_000 {
        let doc = strategy.generate(&mut rng);
        let outcome = std::panic::catch_unwind(|| {
            codec::parse_scenario(&doc).map(|spec| spec.build().map(|h| h.run().complete))
        });
        match outcome {
            Err(_) => panic!("case {case} panicked:\n{doc}"),
            Ok(Ok(Ok(_))) => {
                accepted += 1;
                faulted += usize::from(doc.contains(r#""fault""#));
            }
            Ok(Ok(Err(e))) => panic!("case {case} parsed but failed to build: {e}\n{doc}"),
            Ok(Err(SpecError::Json(e))) => {
                panic!("case {case}: generator wrote bad JSON: {e}\n{doc}")
            }
            Ok(Err(_)) => rejected += 1,
        }
    }
    // Both sides of the grammar are exercised, not just one, and fault
    // schedules run too.
    assert!(
        accepted >= 20 && faulted >= 20 && rejected >= 20,
        "{accepted} accepted ({faulted} with a fault block), {rejected} rejected"
    );
}
