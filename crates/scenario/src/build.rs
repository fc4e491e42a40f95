//! Building and running a spec: the canonical construction path.
//!
//! [`ScenarioSpec::build`] assembles the exact stack a hand-written
//! `main` would: the same constructors, the same defaults, in the same
//! order — so a spec-built run's `RunReport` digest is byte-identical to
//! the hand-built equivalent (pinned per shipped scheduler × router ×
//! scale-policy combination by the `equivalence` test suite). The
//! [`Harness`] owns everything needed to run; [`Harness::run`] drives it
//! to a [`RunOutcome`] with the report, its digest, and run metadata.

use tokenflow_cluster::{
    BacklogAwareRouter, ClusterEngine, Execution, LeastLoadedRouter, RateAwareRouter,
    RoundRobinRouter, Router,
};
use tokenflow_control::{
    ControlConfig, PredictivePolicy, ReactivePolicy, ScalePolicy, ScriptedPolicy,
};
use tokenflow_core::{run_simulation_boxed, Completion, EngineConfig};
use tokenflow_fault::FaultPlan;
use tokenflow_metrics::RunReport;
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::{
    AndesScheduler, ChunkedPrefillScheduler, FcfsScheduler, Scheduler, TokenFlowScheduler,
};
use tokenflow_sim::{RequestId, SimDuration, SimTime};
use tokenflow_trace::TraceJournal;
use tokenflow_workload::{
    diurnal_flash_crowd, trace, ControlledSetup, LengthDist, RequestSpec, Workload, WorkloadGen,
};

use crate::codec::SpecError;
use crate::json::{self, ni, obj, s, Json};
use crate::spec::*;

fn build_err(msg: impl Into<String>) -> SpecError {
    SpecError::Build { msg: msg.into() }
}

impl SchedulerSpec {
    /// Constructs the scheduler this spec describes. Callable repeatedly —
    /// cluster topologies need one instance per replica.
    pub fn build_scheduler(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::Fcfs { headroom: None } => Box::new(FcfsScheduler::new()),
            SchedulerSpec::Fcfs {
                headroom: Some(tokens),
            } => Box::new(FcfsScheduler::with_headroom(*tokens)),
            SchedulerSpec::Chunked { chunk } => {
                Box::new(ChunkedPrefillScheduler::with_chunk(*chunk))
            }
            SchedulerSpec::Andes { interval_ms } => Box::new(
                AndesScheduler::new().with_interval(SimDuration::from_millis(*interval_ms)),
            ),
            SchedulerSpec::TokenFlow(params) => {
                Box::new(TokenFlowScheduler::with_params(params.clone()))
            }
        }
    }
}

impl RouterSpec {
    /// Constructs the router this spec describes.
    pub fn build_router(&self) -> Box<dyn Router> {
        match self {
            RouterSpec::RoundRobin => Box::new(RoundRobinRouter::new()),
            RouterSpec::LeastLoaded => Box::new(LeastLoadedRouter::new()),
            RouterSpec::BacklogAware => Box::new(BacklogAwareRouter::new()),
            RouterSpec::RateAware => Box::new(RateAwareRouter::new()),
        }
    }
}

impl ScalePolicySpec {
    /// Constructs the scale policy this spec describes.
    pub fn build_policy(&self) -> Box<dyn ScalePolicy> {
        match self {
            ScalePolicySpec::Reactive {
                target_utilization,
                backlog_per_replica,
                kv_watermark,
            } => Box::new(ReactivePolicy {
                target_utilization: *target_utilization,
                backlog_per_replica: *backlog_per_replica,
                kv_watermark: *kv_watermark,
            }),
            ScalePolicySpec::PredictiveEwma {
                tau_secs,
                target_utilization,
                backlog_per_replica,
                kv_watermark,
            } => {
                let mut p = PredictivePolicy::with_tau(*tau_secs);
                p.target_utilization = *target_utilization;
                p.backlog_per_replica = *backlog_per_replica;
                p.kv_watermark = *kv_watermark;
                Box::new(p)
            }
            ScalePolicySpec::Scripted { steps } => Box::new(ScriptedPolicy::new(
                steps
                    .iter()
                    .map(|&(at, fleet)| (SimTime::from_secs_f64(at), fleet as usize))
                    .collect(),
            )),
        }
    }
}

impl ControlSpec {
    /// Constructs the control configuration: Γ derived from the engine
    /// unless overridden, every other knob applied on top.
    pub fn build_control(&self, engine: &EngineConfig) -> ControlConfig {
        let mut control = ControlConfig::for_engine(engine)
            .with_min_replicas(self.min_replicas as usize)
            .with_max_replicas(self.max_replicas as usize)
            .with_boot_delay(SimDuration::from_secs_f64(self.boot_delay_secs))
            .with_cooldown(SimDuration::from_secs_f64(self.cooldown_secs));
        if let Some(gamma) = self.gamma {
            control = control.with_gamma(gamma);
        }
        if let Some(tick) = self.control_tick_secs {
            control = control.with_control_tick(SimDuration::from_secs_f64(tick));
        }
        control
    }
}

impl ExecutionSpec {
    /// The cluster execution strategy this spec describes.
    pub fn build_execution(&self) -> Execution {
        match self {
            ExecutionSpec::Sequential => Execution::Sequential,
            ExecutionSpec::Parallel(threads) => Execution::parallel(*threads as usize),
            ExecutionSpec::Auto => Execution::parallel_auto(),
        }
    }
}

impl LengthDistSpec {
    fn build_dist(&self) -> LengthDist {
        match *self {
            LengthDistSpec::Fixed(tokens) => LengthDist::Fixed(tokens),
            LengthDistSpec::Normal {
                mean,
                std,
                min,
                max,
            } => LengthDist::Normal {
                mean,
                std,
                min,
                max,
            },
            LengthDistSpec::LogNormal {
                mean,
                std,
                min,
                max,
            } => LengthDist::LogNormal {
                mean,
                std,
                min,
                max,
            },
            LengthDistSpec::Uniform { lo, hi } => LengthDist::Uniform { lo, hi },
            LengthDistSpec::SharegptPrompt => LengthDist::sharegpt_prompt(),
            LengthDistSpec::SharegptOutput => LengthDist::sharegpt_output(),
        }
    }
}

impl WorkloadSpec {
    /// Generates (or loads) the workload this spec describes.
    pub fn build_workload(&self) -> Result<Workload, SpecError> {
        match self {
            WorkloadSpec::Preset { name, seed } => ControlledSetup::by_name(name)
                .map(|setup| setup.workload(*seed))
                .ok_or_else(|| build_err(format!("unknown preset {name}"))),
            WorkloadSpec::DiurnalFlashCrowd {
                peak_rate,
                duration_secs,
                crowd_size,
                crowd_at_secs,
                rate,
                seed,
            } => Ok(diurnal_flash_crowd(
                *peak_rate,
                SimDuration::from_secs_f64(*duration_secs),
                u32::try_from(*crowd_size).unwrap_or(u32::MAX),
                SimTime::from_secs_f64(*crowd_at_secs),
                rate.clone(),
                *seed,
            )),
            WorkloadSpec::Synthetic {
                arrivals,
                prompt,
                output,
                rate,
                seed,
            } => Ok(WorkloadGen {
                arrivals: arrivals.clone(),
                prompt: prompt.build_dist(),
                output: output.build_dist(),
                rate: rate.clone(),
            }
            .generate(*seed)),
            WorkloadSpec::TraceCsv { path } => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| build_err(format!("cannot read trace {path}: {e}")))?;
                trace::from_csv(&text)
                    .map_err(|e| build_err(format!("cannot parse trace {path}: {e}")))
            }
            WorkloadSpec::Inline { requests } => Ok(Workload::new(
                requests
                    .iter()
                    .map(|r| RequestSpec {
                        id: RequestId(0), // renumbered by Workload::new
                        arrival: SimTime::from_secs_f64(r.arrival_secs),
                        prompt_tokens: r.prompt_tokens,
                        output_tokens: r.output_tokens,
                        rate: r.rate,
                    })
                    .collect(),
            )),
        }
    }
}

impl EngineSpec {
    /// Constructs the engine configuration for the named profiles.
    pub fn build_config(&self, model: ModelProfile, hardware: HardwareProfile) -> EngineConfig {
        let mut config = EngineConfig::new(model, hardware)
            .with_mem_frac(self.mem_frac)
            .with_max_batch(u32::try_from(self.max_batch).unwrap_or(u32::MAX))
            .with_kv_features(
                self.offload_enabled,
                self.write_through,
                self.load_evict_overlap,
            );
        config.max_prefill_tokens = self.max_prefill_tokens;
        config.deadline = SimDuration::from_secs_f64(self.deadline_secs);
        config.plan_horizon = self.plan_horizon;
        config
    }
}

impl ScenarioSpec {
    /// Assembles the runnable stack this spec describes.
    ///
    /// Resolves profiles, generates the workload, and wires the topology
    /// — the same construction path the hand-written examples used to
    /// spell out. First it re-applies every rule the parser applies, so a
    /// spec built in code fails with the same typed error as its JSON
    /// spelling instead of panicking at run time.
    pub fn build(&self) -> Result<Harness, SpecError> {
        crate::codec::check(self, "scenario")?;
        let model = ModelProfile::by_name(&self.model)
            .ok_or_else(|| build_err(format!("unknown model {}", self.model)))?;
        let hardware = HardwareProfile::by_name(&self.hardware)
            .ok_or_else(|| build_err(format!("unknown hardware {}", self.hardware)))?;
        let config = self.engine.build_config(model, hardware);
        let workload = self.workload.build_workload()?;
        Ok(Harness {
            name: self.name.clone(),
            scheduler: self.scheduler.clone(),
            topology: self.topology.clone(),
            config,
            workload,
            fault: self.fault.clone(),
        })
    }
}

/// A fully assembled, ready-to-run serving stack.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Scenario name (lands in the report).
    pub name: String,
    /// The scheduler spec (one instance is built per replica).
    pub scheduler: SchedulerSpec,
    /// The topology to drive.
    pub topology: TopologySpec,
    /// The engine configuration every replica shares.
    pub config: EngineConfig,
    /// The workload to serve.
    pub workload: Workload,
    /// Deterministic fault plan (`None` = fault-free). Only meaningful
    /// for cluster/autoscaled topologies — `ScenarioSpec::build` rejects
    /// a faulted single topology before a `Harness` exists.
    pub fault: Option<FaultPlan>,
}

impl Harness {
    /// Runs the scenario to completion and reports.
    pub fn run(self) -> RunOutcome {
        self.run_with_execution(None)
    }

    /// Runs with the topology's execution strategy overridden, so a
    /// caller can check a spec's own executor against the `Sequential`
    /// reference on one harness (`perfbench`'s seed test does). `None`
    /// runs the spec's own strategy; the single topology has no executor
    /// axis and ignores the override.
    pub fn run_with_execution(self, execution_override: Option<Execution>) -> RunOutcome {
        let scheduler_spec = self.scheduler;
        let scheduler_name = scheduler_spec.build_scheduler().name().to_string();
        let (topology, replicas, router, autoscale, execution) = match self.topology {
            TopologySpec::Single => {
                let out = run_simulation_boxed(
                    self.config,
                    scheduler_spec.build_scheduler(),
                    &self.workload,
                );
                return RunOutcome {
                    scenario: self.name,
                    topology: "single".to_string(),
                    scheduler: scheduler_name,
                    router: None,
                    scale_policy: None,
                    replicas: 1,
                    scale_events: 0,
                    complete: out.complete,
                    completion: out.completion,
                    report: out.report,
                    trace: out.trace,
                };
            }
            TopologySpec::Cluster {
                replicas,
                router,
                execution,
            } => (
                format!("cluster({replicas})"),
                replicas,
                router,
                None,
                execution,
            ),
            TopologySpec::Autoscaled {
                bootstrap,
                router,
                policy,
                control,
                execution,
            } => {
                let autoscale = (policy.build_policy(), control.build_control(&self.config));
                let topology = format!("autoscaled({bootstrap})");
                (topology, bootstrap, router, Some(autoscale), execution)
            }
        };
        let mut cluster = ClusterEngine::new(
            self.config,
            replicas as usize,
            router.build_router(),
            move || scheduler_spec.build_scheduler(),
        );
        if let Some((policy, control)) = autoscale {
            cluster = cluster.with_autoscaler(policy, control);
        }
        // An empty plan is no plan at all (`with_fault_plan` ignores it).
        if let Some(plan) = self.fault {
            cluster = cluster.with_fault_plan(plan);
        }
        let execution = execution_override.unwrap_or_else(|| execution.build_execution());
        let out = cluster.with_execution(execution).run(&self.workload);
        RunOutcome {
            scenario: self.name,
            topology,
            scheduler: scheduler_name,
            router: Some(out.router.clone()),
            scale_policy: out.policy.clone(),
            replicas: out.replicas.len(),
            scale_events: out.scale_events.len(),
            complete: out.complete,
            completion: completion_of(out.complete),
            report: out.merged,
            trace: out.trace,
        }
    }
}

/// The typed completion for a cluster/autoscaled run: those drivers
/// advance replicas with `step_until` against the shared deadline, so
/// an incomplete run means the deadline cut it off (only the single
/// engine's `run_to_completion` has an iteration cap).
fn completion_of(complete: bool) -> Completion {
    if complete {
        Completion::Finished
    } else {
        Completion::Deadline
    }
}

/// What one scenario run produced: the merged report plus metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Scenario name from the spec.
    pub scenario: String,
    /// Topology description, e.g. `"cluster(3)"`.
    pub topology: String,
    /// Scheduler report name, e.g. `"TokenFlow"`.
    pub scheduler: String,
    /// Router name, for cluster/autoscaled runs.
    pub router: Option<String>,
    /// Scale-policy name, for autoscaled runs.
    pub scale_policy: Option<String>,
    /// Replicas managed over the run (provisioned ones included).
    pub replicas: usize,
    /// Scale events logged (0 for static topologies).
    pub scale_events: usize,
    /// Whether every request ran to completion.
    pub complete: bool,
    /// Why the run stopped: finished, deadline, or iteration cap.
    pub completion: Completion,
    /// The (merged) run report.
    pub report: RunReport,
    /// The decision journal, when the run was traced
    /// ([`EngineConfig::trace`]); `None` on untraced runs. Cluster
    /// journals are merged with request ids in cluster submission order.
    pub trace: Option<TraceJournal>,
}

impl RunOutcome {
    /// The report's FNV-1a digest — the same digest the golden suite pins,
    /// so spec-built and hand-built stacks are comparable byte-for-byte.
    pub fn digest(&self) -> u64 {
        self.report.digest()
    }

    /// Renders the outcome as a JSON report (the `tokenflow` CLI's output
    /// format; schema-validated in CI).
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("scenario", s(&self.scenario)),
            ("topology", s(&self.topology)),
            ("scheduler", s(&self.scheduler)),
            ("router", self.router.as_deref().map_or(Json::Null, s)),
            (
                "scale_policy",
                self.scale_policy.as_deref().map_or(Json::Null, s),
            ),
            ("replicas", ni(self.replicas as u64)),
            ("scale_events", ni(self.scale_events as u64)),
            ("complete", Json::Bool(self.complete)),
            (
                "completion",
                s(match self.completion {
                    Completion::Finished => "finished",
                    Completion::Deadline => "deadline",
                    Completion::IterationCap => "iteration-cap",
                }),
            ),
            ("digest", s(&format!("{:016x}", self.digest()))),
            (
                "report",
                json::parse(&self.report.canonical_json()).expect("canonical_json is valid JSON"),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::parse_scenario;
    use tokenflow_fault::CrashFault;
    use tokenflow_workload::{ArrivalSpec, RateDist};

    #[test]
    fn default_spec_builds_and_runs() {
        let outcome = ScenarioSpec::default().build().unwrap().run();
        assert!(outcome.complete);
        assert_eq!(outcome.topology, "single");
        assert_eq!(outcome.scheduler, "TokenFlow");
        assert!(outcome.report.completed > 0);
        assert!(outcome.router.is_none());
    }

    #[test]
    fn inline_workload_round_trips_through_build() {
        let spec = ScenarioSpec {
            workload: WorkloadSpec::Inline {
                requests: vec![
                    InlineRequest {
                        arrival_secs: 0.0,
                        prompt_tokens: 128,
                        output_tokens: 64,
                        rate: 20.0,
                    },
                    InlineRequest {
                        arrival_secs: 0.5,
                        prompt_tokens: 256,
                        output_tokens: 32,
                        rate: 10.0,
                    },
                ],
            },
            ..ScenarioSpec::default()
        };
        let harness = spec.build().unwrap();
        assert_eq!(harness.workload.len(), 2);
        let outcome = harness.run();
        assert!(outcome.complete);
        assert_eq!(outcome.report.submitted, 2);
        assert_eq!(outcome.report.completed, 2);
    }

    #[test]
    fn cluster_topology_runs_with_every_router() {
        for router in [
            RouterSpec::RoundRobin,
            RouterSpec::LeastLoaded,
            RouterSpec::BacklogAware,
            RouterSpec::RateAware,
        ] {
            let spec = ScenarioSpec {
                workload: WorkloadSpec::Synthetic {
                    arrivals: ArrivalSpec::Burst {
                        size: 8,
                        at: SimTime::ZERO,
                    },
                    prompt: LengthDistSpec::Fixed(128),
                    output: LengthDistSpec::Fixed(64),
                    rate: RateDist::Fixed(15.0),
                    seed: 7,
                },
                topology: TopologySpec::Cluster {
                    replicas: 2,
                    router,
                    execution: ExecutionSpec::Sequential,
                },
                ..ScenarioSpec::default()
            };
            let outcome = spec.build().unwrap().run();
            assert!(outcome.complete, "{router:?}");
            assert_eq!(outcome.report.completed, 8, "{router:?}");
            assert_eq!(outcome.replicas, 2);
        }
    }

    #[test]
    fn faulty_cluster_recovers_and_reports_fault_stats() {
        let spec = ScenarioSpec {
            workload: WorkloadSpec::Synthetic {
                arrivals: ArrivalSpec::Burst {
                    size: 12,
                    at: SimTime::ZERO,
                },
                prompt: LengthDistSpec::Fixed(128),
                output: LengthDistSpec::Fixed(200),
                rate: RateDist::Fixed(10.0),
                seed: 7,
            },
            topology: TopologySpec::Cluster {
                replicas: 3,
                router: RouterSpec::LeastLoaded,
                execution: ExecutionSpec::Sequential,
            },
            fault: Some(FaultPlan {
                crashes: vec![CrashFault {
                    replica: 0,
                    at: SimTime::from_secs(2),
                }],
                ..FaultPlan::default()
            }),
            ..ScenarioSpec::default()
        };
        let outcome = spec.build().unwrap().run();
        assert!(outcome.complete);
        let faults = outcome.report.faults.as_ref().expect("fault stats");
        assert_eq!(faults.crashes, 1);
        assert_eq!(faults.abandoned, 0);
        assert_eq!(faults.recovered, faults.lost_events);
        assert_eq!(outcome.report.completed, outcome.report.submitted);
    }

    #[test]
    fn out_of_range_fault_is_a_build_error() {
        let spec = ScenarioSpec {
            topology: TopologySpec::Cluster {
                replicas: 2,
                router: RouterSpec::default(),
                execution: ExecutionSpec::Sequential,
            },
            fault: Some(FaultPlan {
                crashes: vec![CrashFault {
                    replica: 7,
                    at: SimTime::from_secs(1),
                }],
                ..FaultPlan::default()
            }),
            ..ScenarioSpec::default()
        };
        let err = spec.build().unwrap_err();
        assert!(
            matches!(err, SpecError::Invalid { ref msg, .. }
            if msg.contains("0..2")),
            "{err:?}"
        );
    }

    #[test]
    fn empty_fault_plan_reproduces_the_fault_free_run() {
        let topology = TopologySpec::Cluster {
            replicas: 2,
            router: RouterSpec::LeastLoaded,
            execution: ExecutionSpec::Sequential,
        };
        let clean = ScenarioSpec {
            topology: topology.clone(),
            ..ScenarioSpec::default()
        };
        let empty = ScenarioSpec {
            topology,
            fault: Some(FaultPlan::default()),
            ..ScenarioSpec::default()
        };
        let a = clean.build().unwrap().run();
        let b = empty.build().unwrap().run();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn missing_trace_is_a_build_error_not_a_panic() {
        let spec = ScenarioSpec {
            workload: WorkloadSpec::TraceCsv {
                path: "/nonexistent/trace.csv".to_string(),
            },
            ..ScenarioSpec::default()
        };
        assert!(matches!(spec.build(), Err(SpecError::Build { .. })));
    }

    #[test]
    fn outcome_json_has_report_and_digest() {
        let outcome = parse_scenario(r#"{"name": "t"}"#)
            .unwrap()
            .build()
            .unwrap()
            .run();
        let j = outcome.to_json();
        assert_eq!(j.get("scenario").unwrap().as_str(), Some("t"));
        assert_eq!(
            j.get("digest").unwrap().as_str().unwrap(),
            format!("{:016x}", outcome.digest())
        );
        assert!(j.get("report").unwrap().get("completed").is_some());
    }
}
