//! Driving one benchmark run: set up each cell, run it plain (the
//! timed, end-to-end path) and, in traced mode, probed (every layer
//! timed from outside), check every outcome, and reduce the cells to
//! the reported metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tokenflow_cluster::ClusterEngine;
use tokenflow_core::{Engine, StepOutcome};
use tokenflow_metrics::RunReport;
use tokenflow_scenario::{
    parse_scenario, tracefmt, ExecutionSpec, Harness, RouterSpec, ScalePolicySpec, ScenarioSpec,
    TopologySpec,
};
use tokenflow_sched::Scheduler;
use tokenflow_sim::{RequestId, SimTime};
use tokenflow_trace::{TraceEventKind, TraceJournal, TraceSource};

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::host;
use crate::probe::{
    ns_since, take, KvSamples, PolicyStats, ProbedPolicy, ProbedRouter, ProbedScheduler,
    RouteStats, Samples, SchedStats,
};
use crate::reference::{Reference, NOMINAL_S};
use crate::workloads::{cell_seed, CellFacts, Size, Workload};

/// Why a run could not produce a result at all (as opposed to producing
/// one that fails its checks).
#[derive(Debug)]
pub enum BenchError {
    /// A cell's spec did not parse or build.
    Spec { cell: usize, msg: String },
    /// A host reading (`/proc`) was unavailable.
    Host(&'static str),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Spec { cell, msg } => write!(f, "cell {cell}: {msg}"),
            BenchError::Host(what) => write!(f, "cannot read {what} from /proc"),
        }
    }
}

impl std::error::Error for BenchError {}

/// Per-layer values of one probed cell, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A set-up cell, ready to run.
pub struct Cell {
    pub index: usize,
    pub spec: ScenarioSpec,
    pub harness: Harness,
    pub parse_ns: u64,
    pub build_ns: u64,
}

/// Parses and builds cell `index` of a run seeded with `seed`. The two
/// spans are the benchmark's set-up time.
pub fn setup(workload: Workload, index: usize, seed: u64, size: Size) -> Result<Cell, BenchError> {
    let spec_err = |msg: String| BenchError::Spec { cell: index, msg };
    let text = workload.spec_json(cell_seed(seed, index), size);
    let start = Instant::now();
    let spec = parse_scenario(&text).map_err(|e| spec_err(e.to_string()))?;
    let parse_ns = ns_since(start);
    let start = Instant::now();
    let mut harness = spec.build().map_err(|e| spec_err(e.to_string()))?;
    let build_ns = ns_since(start);
    harness.config.trace = workload.journal();
    Ok(Cell {
        index,
        spec,
        harness,
        parse_ns,
        build_ns,
    })
}

/// What the checks need from one run of a cell, plain or probed.
#[derive(Debug, Clone)]
pub struct RunFacts {
    pub report: RunReport,
    pub digest: u64,
    pub complete: bool,
    pub scale_events: usize,
    /// Journal digest, on journaled workloads.
    pub trace_digest: Option<u64>,
    /// Distinct replicas that wrote journal events.
    pub traced_replicas: usize,
    /// Whether `explain` found the p99-TTFT request (true when there is
    /// no journal to explain).
    pub explained: bool,
    pub wall_ns: u64,
}

/// A plain run: exactly what a user of the scenario layer runs.
pub struct Plain {
    pub facts: RunFacts,
    pub cpu_s: f64,
}

/// Runs a cell the way the `tokenflow` CLI does, timing from the first
/// submit through the report digest and, on journaled workloads, the
/// JSONL and Perfetto renders and the `explain` of the p99-TTFT request.
pub fn run_plain(harness: Harness) -> Result<Plain, BenchError> {
    let cpu_start = host::cpu_seconds().ok_or(BenchError::Host("CPU time"))?;
    let start = Instant::now();
    let outcome = harness.run();
    let digest = outcome.report.digest();
    let rendered = outcome.trace.as_ref().map(|journal| {
        black_box(tracefmt::trace_jsonl(journal).len());
        black_box(tracefmt::perfetto_json(journal).len());
        let trace_digest = tracefmt::trace_digest(journal);
        let explained = p99_ttft_request(journal)
            .and_then(|id| tracefmt::explain(journal, id))
            .map(|text| black_box(text.len()))
            .is_some();
        (trace_digest, explained)
    });
    let wall_ns = ns_since(start);
    let cpu_s = host::cpu_seconds().ok_or(BenchError::Host("CPU time"))? - cpu_start;
    Ok(Plain {
        facts: RunFacts {
            traced_replicas: outcome.trace.as_ref().map_or(0, traced_replicas),
            digest,
            complete: outcome.complete,
            scale_events: outcome.scale_events,
            trace_digest: rendered.map(|(d, _)| d),
            explained: rendered.is_none_or(|(_, e)| e),
            report: outcome.report,
            wall_ns,
        },
        cpu_s,
    })
}

/// Distinct replicas that wrote events into a journal.
fn traced_replicas(journal: &TraceJournal) -> usize {
    journal
        .events
        .iter()
        .filter_map(|e| match e.source {
            TraceSource::Replica(i) => Some(i),
            _ => None,
        })
        .collect::<BTreeSet<u32>>()
        .len()
}

/// The request at the nearest-rank 99th percentile of time to first
/// token, read from the journal: first `FirstToken` minus the scheduled
/// (earliest) arrival, ties broken by id.
fn p99_ttft_request(journal: &TraceJournal) -> Option<RequestId> {
    let mut arrival: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut first: BTreeMap<u64, SimTime> = BTreeMap::new();
    for e in &journal.events {
        match e.kind {
            TraceEventKind::Arrived { id, arrival: at } => {
                let slot = arrival.entry(id.0).or_insert(at);
                *slot = (*slot).min(at);
            }
            TraceEventKind::FirstToken { id } => {
                first.entry(id.0).or_insert(e.time);
            }
            _ => {}
        }
    }
    let mut ttfts: Vec<(u64, u64)> = first
        .iter()
        .filter_map(|(id, t)| {
            let at = arrival.get(id)?;
            Some((t.saturating_since(*at).as_micros(), *id))
        })
        .collect();
    if ttfts.is_empty() {
        return None;
    }
    ttfts.sort_unstable();
    let rank = ((0.99 * ttfts.len() as f64).ceil() as usize).clamp(1, ttfts.len()) - 1;
    Some(RequestId(ttfts[rank].1))
}

/// A probed run: the same stack assembled from the same specs, with
/// every layer wrapped or timed from outside.
pub struct Probed {
    pub facts: RunFacts,
    pub layers: Layers,
}

/// Times set-up by stage: spec parse, harness build (which includes
/// workload generation), and workload generation alone.
fn setup_layers(cell: &Cell, layers: &mut Layers) -> Result<(), BenchError> {
    let start = Instant::now();
    let workload = cell
        .spec
        .workload
        .build_workload()
        .map_err(|e| BenchError::Spec {
            cell: cell.index,
            msg: e.to_string(),
        })?;
    layers.insert("workload.generate_ms", ms(ns_since(start)));
    layers.insert("workload.requests", workload.len() as f64);
    layers.insert("scenario.parse_ms", ms(cell.parse_ns));
    layers.insert("scenario.build_ms", ms(cell.build_ns));
    Ok(())
}

/// Runs a cell probed. The result must reproduce the plain run's report
/// and journal digests exactly; the caller checks that.
pub fn run_probed(cell: &Cell) -> Result<Probed, BenchError> {
    let mut layers = Layers::new();
    setup_layers(cell, &mut layers)?;
    let harness = cell.harness.clone();
    let start = Instant::now();
    // Time covered by top-level spans, to show they account for the run.
    let mut covered = 0u64;
    let sched = Arc::new(Mutex::new(SchedStats::default()));
    let run = match harness.topology.clone() {
        TopologySpec::Single => probed_single(harness, &sched, &mut layers, &mut covered),
        TopologySpec::Cluster {
            replicas,
            router,
            execution,
        } => {
            let fleet = Fleet {
                replicas,
                router,
                execution,
                autoscale: None,
            };
            probed_cluster(harness, fleet, &sched, &mut layers, &mut covered)
        }
        TopologySpec::Autoscaled {
            bootstrap,
            router,
            policy,
            control,
            execution,
        } => {
            let control = control.build_control(&harness.config);
            let fleet = Fleet {
                replicas: bootstrap,
                router,
                execution,
                autoscale: Some((policy, control)),
            };
            probed_cluster(harness, fleet, &sched, &mut layers, &mut covered)
        }
    };
    sched_layers(&take(&sched), &mut layers);

    let report = run.report;
    let t = Instant::now();
    let digest = report.digest();
    let digest_ns = ns_since(t);
    let t = Instant::now();
    black_box(report.canonical_json().len());
    let json_ns = ns_since(t);
    covered += digest_ns + json_ns;
    layers.insert("metrics.digest_ms", ms(digest_ns));
    layers.insert("metrics.report_json_ms", ms(json_ns));

    let (trace_digest, explained, traced) = match &run.journal {
        Some(journal) => {
            let (d, e) = probed_render(journal, &mut layers, &mut covered);
            (Some(d), e, traced_replicas(journal))
        }
        None => (None, true, 0),
    };
    let wall_ns = ns_since(start);
    layers.insert("bench.span_coverage", ratio(covered as f64, wall_ns as f64));
    report_layers(&report, &mut layers);
    Ok(Probed {
        facts: RunFacts {
            report,
            digest,
            complete: run.complete,
            scale_events: run.scale_events,
            trace_digest,
            traced_replicas: traced,
            explained,
            wall_ns,
        },
        layers,
    })
}

/// What a probed topology run hands back for the shared tail.
struct TopologyRun {
    report: RunReport,
    complete: bool,
    scale_events: usize,
    journal: Option<TraceJournal>,
}

/// Drives one engine with a timed `step_into` loop that stops exactly
/// where `Engine::run_to_completion` stops.
fn probed_single(
    harness: Harness,
    sched: &Arc<Mutex<SchedStats>>,
    layers: &mut Layers,
    covered: &mut u64,
) -> TopologyRun {
    let deadline = SimTime::ZERO + harness.config.deadline;
    let max_iterations = harness.config.max_iterations;
    let scheduler = ProbedScheduler::new(harness.scheduler.build_scheduler(), sched);
    let mut engine = Engine::from_boxed(harness.config, Box::new(scheduler));

    let t = Instant::now();
    for spec in harness.workload.iter() {
        engine.submit(*spec);
    }
    let submit_ns = ns_since(t);

    let mut out = StepOutcome::default();
    let (mut fast, mut full) = (Samples::default(), Samples::default());
    let mut kv = KvSamples::default();
    let mut fast_before = engine.fast_path_stats().fast_steps;
    loop {
        let t = Instant::now();
        engine.step_into(&mut out);
        let ns = ns_since(t);
        let fast_after = engine.fast_path_stats().fast_steps;
        if fast_after == fast_before {
            full.push(ns);
        } else {
            fast.push(ns);
        }
        fast_before = fast_after;
        kv.sample(&engine.load_snapshot());
        if out.done || out.now >= deadline || engine.iterations() >= max_iterations {
            break;
        }
    }

    let t = Instant::now();
    let outcome = engine.into_outcome();
    let outcome_ns = ns_since(t);

    let step_ns = fast.total_ns() + full.total_ns();
    let steps = fast.count() + full.count();
    *covered += submit_ns + step_ns + outcome_ns;
    layers.insert("core.steps", steps as f64);
    layers.insert(
        "core.steps_per_s",
        ratio(steps as f64, step_ns as f64 / 1e9),
    );
    layers.insert(
        "core.fast_step_ratio",
        ratio(fast.count() as f64, steps as f64),
    );
    layers.insert("core.fast_step_ns", fast.mean_ns());
    layers.insert("core.full_step_ns", full.mean_ns());
    layers.insert("core.full_step_ns_p99", full.p99_ns());
    layers.insert("core.submit_ms", ms(submit_ns));
    layers.insert("core.outcome_ms", ms(outcome_ns));
    layers.insert("kv.gpu_util_mean", kv.gpu_util_mean());
    layers.insert("kv.transitioning_mean", kv.transitioning_mean());
    layers.insert("control.replicas_peak", 1.0);
    TopologyRun {
        report: outcome.report,
        complete: outcome.complete,
        scale_events: 0,
        journal: outcome.trace,
    }
}

/// The cluster shape a probed cluster run assembles.
struct Fleet {
    replicas: u64,
    router: RouterSpec,
    execution: ExecutionSpec,
    autoscale: Option<(ScalePolicySpec, tokenflow_control::ControlConfig)>,
}

/// Assembles a cluster exactly as the scenario layer's run functions do
/// (same builder calls, same order), with wrapped schedulers, router and
/// scale policy, and times every epoch.
fn probed_cluster(
    harness: Harness,
    fleet: Fleet,
    sched: &Arc<Mutex<SchedStats>>,
    layers: &mut Layers,
    covered: &mut u64,
) -> TopologyRun {
    let routes = Arc::new(Mutex::new(RouteStats::default()));
    let policies = Arc::new(Mutex::new(PolicyStats::default()));
    let scheduler_spec = harness.scheduler.clone();
    let sched_sink = Arc::clone(sched);
    let factory = move || -> Box<dyn Scheduler> {
        Box::new(ProbedScheduler::new(
            scheduler_spec.build_scheduler(),
            &sched_sink,
        ))
    };
    let router = ProbedRouter::new(fleet.router.build_router(), &routes);
    let mut cluster = ClusterEngine::new(
        harness.config.clone(),
        fleet.replicas as usize,
        router,
        factory,
    );
    if let Some((policy, control)) = fleet.autoscale {
        let policy = ProbedPolicy::new(policy.build_policy(), &policies);
        cluster = cluster.with_autoscaler(policy, control);
    }
    if let Some(plan) = harness.fault.filter(|p| !p.is_empty()) {
        cluster = cluster.with_fault_plan(plan);
    }
    let mut cluster = cluster.with_execution(fleet.execution.build_execution());

    let t = Instant::now();
    cluster.submit_workload(&harness.workload);
    let submit_ns = ns_since(t);

    let mut epochs = Samples::default();
    loop {
        let t = Instant::now();
        let more = cluster.epoch();
        epochs.push(ns_since(t));
        if !more {
            break;
        }
    }

    let t = Instant::now();
    let outcome = cluster.into_outcome();
    let outcome_ns = ns_since(t);
    *covered += submit_ns + epochs.total_ns() + outcome_ns;

    // Every wrapper has been dropped with the cluster: totals are final.
    let routes = take(&routes);
    let policies = take(&policies);
    let steps: u64 = outcome.replicas.iter().map(|r| r.iterations).sum();
    let runtime = &outcome.merged.runtime;
    layers.insert("core.steps", steps as f64);
    layers.insert(
        "core.steps_per_s",
        ratio(steps as f64, epochs.total_ns() as f64 / 1e9),
    );
    layers.insert(
        "core.fast_step_ratio",
        ratio(runtime.fast_steps as f64, steps as f64),
    );
    layers.insert("core.submit_ms", ms(submit_ns));
    layers.insert("cluster.epochs", runtime.epochs as f64);
    layers.insert("cluster.epoch_ms", ms(epochs.total_ns()));
    layers.insert("cluster.epoch_ns_p99", epochs.p99_ns());
    layers.insert("cluster.route_calls", routes.route.count() as f64);
    layers.insert("cluster.route_ns_mean", routes.route.mean_ns());
    layers.insert("cluster.outcome_ms", ms(outcome_ns));
    layers.insert("kv.gpu_util_mean", routes.kv.gpu_util_mean());
    layers.insert("kv.transitioning_mean", routes.kv.transitioning_mean());
    layers.insert("control.decide_calls", policies.decide.count() as f64);
    layers.insert("control.decide_ns_mean", policies.decide.mean_ns());
    layers.insert("control.scale_events", outcome.scale_events.len() as f64);
    layers.insert(
        "control.replicas_peak",
        outcome
            .fleet
            .as_ref()
            .map_or(outcome.replicas.len(), |f| f.peak_active) as f64,
    );
    TopologyRun {
        complete: outcome.complete,
        scale_events: outcome.scale_events.len(),
        journal: outcome.trace,
        report: outcome.merged,
    }
}

fn sched_layers(s: &SchedStats, layers: &mut Layers) {
    layers.insert("sched.plan_calls", s.plan.count() as f64);
    layers.insert("sched.plan_ms", ms(s.plan.total_ns()));
    layers.insert("sched.plan_ns_p99", s.plan.p99_ns());
    layers.insert(
        "sched.plan_useful_ratio",
        ratio(s.useful_plans as f64, s.plan.count() as f64),
    );
    layers.insert("sched.admits", s.admits as f64);
    layers.insert("sched.resumes", s.resumes as f64);
    layers.insert("sched.preempts", s.preempts as f64);
    layers.insert(
        "sched.horizon_grant_ratio",
        ratio(s.horizon_grants as f64, s.horizon_calls as f64),
    );
    layers.insert("sched.gate_calls", s.gate_calls as f64);
}

/// Layer counts the report itself carries.
fn report_layers(report: &RunReport, layers: &mut Layers) {
    let rt = &report.runtime;
    layers.insert(
        "core.horizon_invalidated_ratio",
        ratio(rt.horizons_invalidated as f64, rt.horizons_issued as f64),
    );
    layers.insert("cluster.batched_barriers", rt.batched_barriers as f64);
    layers.insert("cluster.pool_submissions", rt.pool_submissions as f64);
    layers.insert("kv.preemptions", report.preemptions as f64);
    layers.insert("kv.recomputes", report.recomputes as f64);
    layers.insert(
        "kv.recompute_ratio",
        ratio(report.recomputes as f64, report.preemptions as f64),
    );
    layers.insert("client.stall_events", report.stall_events as f64);
    layers.insert("client.rebuffer_s", report.total_rebuffer_secs);
    if let Some(f) = &report.faults {
        // `retry_attempts[k]` counts lost requests that took k + 1
        // attempts; the sum weighs each by its attempt count.
        let retries: u64 = f
            .retry_attempts
            .iter()
            .enumerate()
            .map(|(k, n)| (k as u64 + 1) * n)
            .sum();
        layers.insert("fault.crashes", f.crashes as f64);
        layers.insert("fault.lost", f.lost_events as f64);
        layers.insert("fault.recovered", f.recovered as f64);
        layers.insert("fault.abandoned", f.abandoned as f64);
        layers.insert("fault.retries", retries as f64);
        layers.insert("fault.recovery_p99_s", f.recovery_latency.p99);
    }
}

/// Renders and explains a journal, one span per `tracefmt` call.
fn probed_render(journal: &TraceJournal, layers: &mut Layers, covered: &mut u64) -> (u64, bool) {
    let t = Instant::now();
    let jsonl = tracefmt::trace_jsonl(journal);
    let jsonl_ns = ns_since(t);
    let t = Instant::now();
    let perfetto = tracefmt::perfetto_json(journal);
    let perfetto_ns = ns_since(t);
    let t = Instant::now();
    let digest = tracefmt::trace_digest(journal);
    let digest_ns = ns_since(t);
    let t = Instant::now();
    let explained = p99_ttft_request(journal)
        .and_then(|id| tracefmt::explain(journal, id))
        .map(|text| black_box(text.len()))
        .is_some();
    let explain_ns = ns_since(t);
    *covered += jsonl_ns + perfetto_ns + digest_ns + explain_ns;
    layers.insert("trace.events", journal.events.len() as f64);
    layers.insert("trace.jsonl_ms", ms(jsonl_ns));
    layers.insert("trace.jsonl_mb", mb(black_box(jsonl).len()));
    layers.insert("trace.perfetto_ms", ms(perfetto_ns));
    layers.insert("trace.perfetto_mb", mb(black_box(perfetto).len()));
    layers.insert("trace.digest_ms", ms(digest_ns));
    layers.insert("trace.explain_ms", ms(explain_ns));
    (digest, explained)
}

/// Checks one run of a cell: completion, conservation, explainability
/// and the workload's guards. Returns the first violation.
fn check_run(workload: Workload, size: Size, run: &RunFacts) -> Result<(), String> {
    let r = &run.report;
    if !run.complete {
        return Err("the run did not complete".to_string());
    }
    let (shed, abandoned, crashes, lost) = r.faults.as_ref().map_or((0, 0, 0, 0), |f| {
        (f.shed, f.abandoned, f.crashes, f.lost_events)
    });
    if r.completed as u64 + shed + abandoned != r.submitted as u64 {
        return Err(format!(
            "conservation: {} completed + {shed} shed + {abandoned} abandoned != {} submitted",
            r.completed, r.submitted
        ));
    }
    if !run.explained {
        return Err("explain found no p99-TTFT request in the journal".to_string());
    }
    let facts = CellFacts {
        requests: r.submitted,
        preemptions: r.preemptions,
        crashes,
        lost,
        scale_events: run.scale_events,
        traced_replicas: run.traced_replicas,
    };
    workload.guard(&facts, size)
}

/// Share of a probed run's wall time its top-level spans must cover.
const MIN_SPAN_COVERAGE: f64 = 0.9;

/// Checks a probed run: its spans account for the run, and it reproduced
/// the plain run of the same cell.
pub fn check_probed(plain: &RunFacts, probed: &Probed) -> Result<(), String> {
    let coverage = probed
        .layers
        .get("bench.span_coverage")
        .copied()
        .unwrap_or(0.0);
    if coverage < MIN_SPAN_COVERAGE {
        return Err(format!(
            "layer spans cover {coverage:.3} of the probed run, below {MIN_SPAN_COVERAGE}"
        ));
    }
    check_same(plain, &probed.facts)
}

/// Checks that a probed run reproduced the plain run of the same cell.
fn check_same(plain: &RunFacts, probed: &RunFacts) -> Result<(), String> {
    if plain.digest != probed.digest {
        return Err(format!(
            "probed report digest {:016x} != plain {:016x}",
            probed.digest, plain.digest
        ));
    }
    if plain.report.runtime != probed.report.runtime {
        return Err(format!(
            "probed runtime counters {:?} != plain {:?}",
            probed.report.runtime, plain.report.runtime
        ));
    }
    if plain.trace_digest != probed.trace_digest {
        return Err("probed journal digest differs from the plain run's".to_string());
    }
    Ok(())
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// Traced mode: probe every cell and report per-layer metrics.
    pub probed: bool,
    pub size: Size,
}

/// A run's verdict and metrics, in catalog order.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// Whether every check of every cell run passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.failed += 1;
            self.errors.push(format!("{what}: {msg}"));
        }
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Set-ups timed per cell on the first pass; `setup_s` is the median over
/// cells of each cell's fastest.
const SETUP_REPEATS: usize = 5;

/// One cell's results across passes.
struct CellRuns {
    /// The first pass's plain run: the reference digest and the
    /// simulated-time metrics.
    first: RunFacts,
    /// Wall and CPU seconds of each pass, at the nominal host speed.
    walls: Vec<f64>,
    cpus: Vec<f64>,
    /// Wall seconds of each pass as measured.
    raw_walls: Vec<f64>,
}

/// Runs one workload in passes over its cells. The first pass checks
/// everything (and, traced, probes every cell); later passes re-time the
/// plain runs and check that every digest repeats. Untraced runs make at
/// least two passes, traced runs at least one, and another pass starts
/// only while it is expected to end within `seconds`.
///
/// Each cell's set-up and plain run are bracketed by runs of the host-speed
/// reference, and their times are reported at the nominal host speed.
pub fn run(opts: &Options) -> Result<Outcome, BenchError> {
    let w = opts.workload;
    let k = w.cells();
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut cells: Vec<CellRuns> = Vec::with_capacity(k);
    let mut overhead = Vec::new();
    let mut cells_layers: Vec<Layers> = Vec::new();
    let mut reference = Reference::default();
    let min_passes = if opts.probed { 1 } else { 2 };

    let start = Instant::now();
    let mut pass = 0usize;
    loop {
        let pass_start = Instant::now();
        // The reference run that ended a cell's bracket also opens the
        // next cell's, unless another run came in between.
        let mut last_reference = None;
        for index in 0..k {
            let before = last_reference.take().unwrap_or_else(|| reference.time());
            let mut cell = setup(w, index, opts.seed, opts.size)?;
            let mut fastest_setup = cell.parse_ns + cell.build_ns;
            if pass == 0 {
                for _ in 1..SETUP_REPEATS {
                    cell = setup(w, index, opts.seed, opts.size)?;
                    fastest_setup = fastest_setup.min(cell.parse_ns + cell.build_ns);
                }
            }
            // Traced runs alternate which of a cell's two runs goes first,
            // so warm-up cost does not bias the probe overhead.
            let probed_first = (opts.probed && pass == 0 && index % 2 == 1)
                .then(|| run_probed(&cell))
                .transpose()?;
            let plain = run_plain(cell.harness.clone())?;
            let after = reference.time();
            last_reference = Some(after);
            let scale = Reference::scale(before, after);
            let raw_wall = plain.facts.wall_ns as f64 / 1e9;
            let (wall, cpu) = (raw_wall * scale, plain.cpu_s * scale);
            eprintln!(
                "  pass {pass} cell {index}: {raw_wall:.4} s wall, {:.2} s cpu, \
                 reference {:.1}/{:.1} ms: {wall:.4} s nominal",
                plain.cpu_s,
                before * 1e3,
                after * 1e3,
            );
            let label = format!("cell {index}");
            out.record(&label, check_run(w, opts.size, &plain.facts));
            if pass > 0 {
                let same = if cells[index].first.digest == plain.facts.digest {
                    Ok(())
                } else {
                    Err("report digest changed between passes".to_string())
                };
                out.record(&label, same);
                cells[index].walls.push(wall);
                cells[index].cpus.push(cpu);
                cells[index].raw_walls.push(raw_wall);
                continue;
            }
            setup_s.push(fastest_setup as f64 / 1e9 * scale);
            if w.journal() || opts.probed {
                last_reference = None;
            }
            if w.journal() {
                let mut quiet = cell.harness.clone();
                quiet.config.trace = false;
                let quiet = run_plain(quiet)?;
                let same = if quiet.facts.digest == plain.facts.digest {
                    Ok(())
                } else {
                    Err("journal-on report digest differs from journal-off".to_string())
                };
                out.record(&label, same);
            }
            if opts.probed {
                let probed = match probed_first {
                    Some(probed) => probed,
                    None => run_probed(&cell)?,
                };
                let checked = check_run(w, opts.size, &probed.facts)
                    .and_then(|()| check_probed(&plain.facts, &probed));
                out.record(&format!("{label} probed"), checked);
                overhead.push(ratio(
                    probed.facts.wall_ns as f64,
                    plain.facts.wall_ns as f64,
                ));
                cells_layers.push(probed.layers);
            }
            cells.push(CellRuns {
                first: plain.facts,
                walls: vec![wall],
                cpus: vec![cpu],
                raw_walls: vec![raw_wall],
            });
        }
        pass += 1;
        // Another pass is expected to take as long as this one did.
        let next_pass_end = start.elapsed() + pass_start.elapsed();
        if pass >= min_passes && next_pass_end.as_secs_f64() > opts.seconds as f64 {
            break;
        }
    }
    let peak_rss = host::peak_rss_mb().ok_or(BenchError::Host("VmHWM"))?;
    out.record("reference", reference.consistent());
    // Each cell's median over passes, then the median (wall) or mean (CPU,
    // whose 10 ms ticks a median would round away) over cells.
    let per_cell_median = |f: fn(&CellRuns) -> &Vec<f64>| -> Vec<f64> {
        cells.iter().map(|c| median(f(c))).collect()
    };
    let raw_run_s = median(&per_cell_median(|c| &c.raw_walls));
    eprintln!(
        "  as measured: run {raw_run_s:.4} s; reference median {:.2} ms, nominal {:.0} ms",
        median(reference.secs()) * 1e3,
        NOMINAL_S * 1e3
    );

    if opts.probed {
        for &(name, unit) in PER_LAYER {
            let value = match name {
                "bench.probe_overhead" => median(&overhead),
                "bench.run_wall_s" => raw_run_s,
                "bench.reference_ms" => median(reference.secs()) * 1e3,
                _ => median(
                    &cells_layers
                        .iter()
                        .map(|l| l.get(name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
            };
            out.metrics.push((name, unit, value));
        }
        return Ok(out);
    }

    let walls = per_cell_median(|c| &c.walls);
    let cpus = per_cell_median(|c| &c.cpus);
    let per_cell = |f: fn(&RunReport) -> f64| -> f64 {
        median(&cells.iter().map(|c| f(&c.first.report)).collect::<Vec<_>>())
    };
    let submitted: f64 = cells.iter().map(|c| c.first.report.submitted as f64).sum();
    let completed: f64 = cells.iter().map(|c| c.first.report.completed as f64).sum();
    for &(name, unit) in END_TO_END {
        let value = match name {
            "run_s" => median(&walls),
            "cpu_s" => cpus.iter().sum::<f64>() / cpus.len().max(1) as f64,
            "setup_s" => median(&setup_s),
            "peak_rss_mb" => peak_rss,
            "sim_ttft_p50_s" => per_cell(|r| r.ttft.p50),
            "sim_ttft_p99_s" => per_cell(|r| r.ttft.p99),
            "sim_effective_tput" => per_cell(|r| r.effective_throughput),
            "sim_tput" => per_cell(|r| r.throughput),
            "sim_qos" => per_cell(|r| r.qos),
            "sim_replica_s" => per_cell(|r| r.replica_seconds),
            "completed_ratio" => ratio(completed, submitted),
            _ => 0.0,
        };
        out.metrics.push((name, unit, value));
    }
    Ok(out)
}
