//! Cartesian sweeps: one spec file, a grid of scenarios.
//!
//! A sweep document is a base [`ScenarioSpec`] plus `axes` — lists of
//! alternatives for any subset of {model, hardware, scheduler, workload,
//! router, policy}. Expansion takes the cartesian product in that fixed
//! axis order, overriding the base one axis at a time, so a
//! `{scheduler: [4], workload: [2]}` document is the paper's 4-system ×
//! 2-trace comparison grid as data:
//!
//! ```json
//! {
//!   "name": "policy-x-workload",
//!   "base": { "engine": {"max_batch": 16} },
//!   "axes": {
//!     "scheduler": ["fcfs", "tokenflow"],
//!     "workload": [{"type": "preset", "name": "rtx4090-a"}]
//!   }
//! }
//! ```
//!
//! Router and policy axes require a topology that has the corresponding
//! slot (cluster/autoscaled); expansion reports a typed error otherwise
//! instead of silently ignoring the axis.

use crate::build::RunOutcome;
use crate::codec::{check, from_json, unknown_name, Fields, Rule, Spec, SpecError, Value, Walk};
use crate::json::{self, obj, s, Json};
use crate::spec::{
    RouterSpec, ScalePolicySpec, ScenarioSpec, SchedulerSpec, TopologySpec, Variants, WorkloadSpec,
    HARDWARE_NAMES, MODEL_NAMES,
};

/// Valid axis names, in expansion order.
pub const AXIS_NAMES: &[&str] = &[
    "model",
    "hardware",
    "scheduler",
    "workload",
    "router",
    "policy",
];

/// One swept axis: which field varies and over what values.
#[derive(Debug, Clone, PartialEq)]
pub enum Axis {
    /// Model profile names.
    Model(Vec<String>),
    /// Hardware profile names.
    Hardware(Vec<String>),
    /// Scheduler specs.
    Scheduler(Vec<SchedulerSpec>),
    /// Workload specs.
    Workload(Vec<WorkloadSpec>),
    /// Router specs (cluster/autoscaled topologies only).
    Router(Vec<RouterSpec>),
    /// Scale-policy specs (autoscaled topologies only).
    Policy(Vec<ScalePolicySpec>),
}

impl Axis {
    fn len(&self) -> usize {
        match self {
            Axis::Model(v) => v.len(),
            Axis::Hardware(v) => v.len(),
            Axis::Scheduler(v) => v.len(),
            Axis::Workload(v) => v.len(),
            Axis::Router(v) => v.len(),
            Axis::Policy(v) => v.len(),
        }
    }

    /// Human label of one value on this axis.
    fn label(&self, i: usize) -> String {
        match self {
            Axis::Model(v) => v[i].clone(),
            Axis::Hardware(v) => v[i].clone(),
            Axis::Scheduler(v) => v[i].type_name().to_string(),
            Axis::Workload(v) => match &v[i] {
                WorkloadSpec::Preset { name, .. } => name.clone(),
                other => other.type_name().to_string(),
            },
            Axis::Router(v) => v[i].type_name().to_string(),
            Axis::Policy(v) => v[i].type_name().to_string(),
        }
    }

    /// Applies value `i` of this axis onto `spec`.
    fn apply(&self, i: usize, spec: &mut ScenarioSpec) -> Result<(), SpecError> {
        match self {
            Axis::Model(v) => spec.model = v[i].clone(),
            Axis::Hardware(v) => spec.hardware = v[i].clone(),
            Axis::Scheduler(v) => spec.scheduler = v[i].clone(),
            Axis::Workload(v) => spec.workload = v[i].clone(),
            Axis::Router(v) => match &mut spec.topology {
                TopologySpec::Cluster { router, .. } | TopologySpec::Autoscaled { router, .. } => {
                    *router = v[i]
                }
                TopologySpec::Single => {
                    return Err(SpecError::Invalid {
                        field: "axes.router".to_string(),
                        msg: "a router axis needs a cluster or autoscaled base topology"
                            .to_string(),
                    })
                }
            },
            Axis::Policy(v) => match &mut spec.topology {
                TopologySpec::Autoscaled { policy, .. } => *policy = v[i].clone(),
                _ => {
                    return Err(SpecError::Invalid {
                        field: "axes.policy".to_string(),
                        msg: "a policy axis needs an autoscaled base topology".to_string(),
                    })
                }
            },
        }
        Ok(())
    }
}

/// A sweep document: a base scenario plus the axes to vary.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (lands in the emitted grid report).
    pub name: String,
    /// The scenario every cell starts from.
    pub base: ScenarioSpec,
    /// Swept axes, in expansion order.
    pub axes: Vec<Axis>,
}

impl SweepSpec {
    /// Total cell count of the grid: the product of the axis lengths —
    /// 1 with no axes (the base itself), 0 when any axis is empty
    /// (matching what [`SweepSpec::expand`] returns).
    pub fn cells(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// Expands the cartesian product into `(label, scenario)` cells, each
    /// checked as the scenario it is: an axis value can break a rule
    /// across fields, such as a model too large for the base's hardware.
    pub fn expand(&self) -> Result<Vec<(String, ScenarioSpec)>, SpecError> {
        let mut cells = vec![(Vec::<String>::new(), self.base.clone())];
        for axis in &self.axes {
            let mut next = Vec::with_capacity(cells.len() * axis.len());
            for (labels, spec) in &cells {
                for i in 0..axis.len() {
                    let mut spec = spec.clone();
                    axis.apply(i, &mut spec)?;
                    let mut labels = labels.clone();
                    labels.push(axis.label(i));
                    next.push((labels, spec));
                }
            }
            cells = next;
        }
        cells
            .into_iter()
            .map(|(labels, mut spec)| {
                let label = if labels.is_empty() {
                    spec.name.clone()
                } else {
                    labels.join(" × ")
                };
                spec.name = format!("{}/{label}", self.name);
                check(&spec, &format!("sweep cell {label:?}"))?;
                Ok((label, spec))
            })
            .collect()
    }

    /// Rebases relative file paths in the base scenario (see
    /// `ScenarioSpec::rebase_paths`) and in every workload-axis value.
    pub fn rebase_paths(&mut self, base_dir: &std::path::Path) {
        self.base.rebase_paths(base_dir);
        for axis in &mut self.axes {
            if let Axis::Workload(values) = axis {
                for w in values {
                    w.rebase_paths(base_dir);
                }
            }
        }
    }
}

/// Whether a parsed JSON document is a sweep (has `axes`) rather than a
/// single scenario.
pub fn is_sweep(doc: &Json) -> bool {
    doc.get("axes").is_some()
}

/// Parses a [`SweepSpec`] from JSON text.
pub fn parse_sweep(text: &str) -> Result<SweepSpec, SpecError> {
    let doc = json::parse(text)?;
    sweep_from_json(&doc)
}

/// A sweep document's top level, walked like any spec.
#[derive(Clone)]
struct SweepDoc {
    name: String,
    base: ScenarioSpec,
    axes: Json,
}

impl Default for SweepDoc {
    fn default() -> Self {
        SweepDoc {
            name: "sweep".to_string(),
            base: ScenarioSpec::default(),
            axes: Json::Null,
        }
    }
}

impl Variants for SweepDoc {}

impl Spec for SweepDoc {
    fn fields<F: Fields>(&mut self, f: &mut F) -> Walk {
        f.field("name", &mut self.name, Rule::Any)?;
        f.field("base", &mut self.base, Rule::Any)?;
        f.required("axes", &mut self.axes, Rule::Any)
    }
}

/// Parses a [`SweepSpec`] from an already-parsed document.
pub fn sweep_from_json(doc: &Json) -> Result<SweepSpec, SpecError> {
    let SweepDoc { name, base, axes } = from_json(doc, "sweep")?;
    let members = axes.as_obj().ok_or_else(|| SpecError::Invalid {
        field: "sweep.axes".to_string(),
        msg: "expected an object".to_string(),
    })?;
    if let Some((k, _)) = members
        .iter()
        .find(|(k, _)| !AXIS_NAMES.contains(&k.as_str()))
    {
        return Err(unknown_name("sweep.axes".to_string(), k, AXIS_NAMES));
    }
    // Fixed expansion order regardless of authored order, so a sweep's
    // cell order is deterministic and documented.
    let mut parsed = Vec::new();
    for &axis_name in AXIS_NAMES {
        let Some(values) = axes.get(axis_name) else {
            continue;
        };
        let at = || format!("sweep.axes.{axis_name}");
        let axis = match axis_name {
            "model" => Axis::Model(Value::parse(values, Rule::Name(MODEL_NAMES), &at)?),
            "hardware" => Axis::Hardware(Value::parse(values, Rule::Name(HARDWARE_NAMES), &at)?),
            "scheduler" => Axis::Scheduler(Value::parse(values, Rule::Any, &at)?),
            "workload" => Axis::Workload(Value::parse(values, Rule::Any, &at)?),
            "router" => Axis::Router(Value::parse(values, Rule::Any, &at)?),
            // "policy", the last name in `AXIS_NAMES`.
            _ => Axis::Policy(Value::parse(values, Rule::Any, &at)?),
        };
        if axis.len() == 0 {
            return Err(SpecError::Invalid {
                field: at(),
                msg: "axis must be non-empty".to_string(),
            });
        }
        parsed.push(axis);
    }
    Ok(SweepSpec {
        name,
        base,
        axes: parsed,
    })
}

/// One executed sweep cell.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Cell label, e.g. `"tokenflow × rtx4090-a"`.
    pub label: String,
    /// The cell's outcome.
    pub outcome: RunOutcome,
}

/// Expands and runs a whole sweep on the calling thread, in cell order.
/// Equivalent to [`run_sweep_jobs`] with one job.
pub fn run_sweep(sweep: &SweepSpec) -> Result<Vec<SweepCell>, SpecError> {
    run_sweep_jobs(sweep, std::num::NonZeroUsize::MIN)
}

/// Expands and runs a whole sweep with up to `jobs` cells in flight at
/// once. Cells are independent deterministic simulations, so the result
/// — content *and* order — is byte-identical to the serial runner: each
/// worker claims the next unstarted cell from a shared cursor and writes
/// its outcome into that cell's own slot, so completion order never
/// leaks into the output. The calling thread participates as one of the
/// jobs.
///
/// When any cell fails to build, the error reported is the first in
/// **cell order** (the serial runner stops at that cell; the parallel
/// runner may also have run later cells, whose results are discarded).
pub fn run_sweep_jobs(
    sweep: &SweepSpec,
    jobs: std::num::NonZeroUsize,
) -> Result<Vec<SweepCell>, SpecError> {
    let cells = sweep.expand()?;
    if jobs.get() == 1 || cells.len() <= 1 {
        return cells
            .into_iter()
            .map(|(label, spec)| {
                Ok(SweepCell {
                    label,
                    outcome: spec.build()?.run(),
                })
            })
            .collect();
    }
    let slots: Vec<std::sync::Mutex<Option<Result<RunOutcome, SpecError>>>> = (0..cells.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let worker = || loop {
        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let Some((_, spec)) = cells.get(i) else {
            return;
        };
        let result = spec.build().map(|harness| harness.run());
        *slots[i].lock().expect("sweep slot poisoned") = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 0..jobs.get().min(cells.len()) - 1 {
            scope.spawn(worker);
        }
        worker();
    });
    cells
        .into_iter()
        .zip(slots)
        .map(|((label, _), slot)| {
            let outcome = slot
                .into_inner()
                .expect("sweep slot poisoned")
                .expect("every claimed cell writes its slot")?;
            Ok(SweepCell { label, outcome })
        })
        .collect()
}

/// Renders sweep results as a JSON grid report.
pub fn sweep_to_json(sweep: &SweepSpec, cells: &[SweepCell]) -> Json {
    obj(vec![
        ("sweep", s(&sweep.name)),
        ("cells", {
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        let mut members = vec![("label".to_string(), s(&c.label))];
                        if let Json::Obj(outcome) = c.outcome.to_json() {
                            members.extend(outcome);
                        }
                        Json::Obj(members)
                    })
                    .collect(),
            )
        }),
    ])
}

/// Renders sweep results as an aligned text table.
pub fn sweep_table(cells: &[SweepCell]) -> String {
    let headers = [
        "cell",
        "topology",
        "completed",
        "eff thpt",
        "mean TTFT",
        "p99 TTFT",
        "rebuffer",
        "replica-s",
        "complete",
    ];
    let mut rows: Vec<Vec<String>> = vec![headers.iter().map(|h| h.to_string()).collect()];
    for c in cells {
        let r = &c.outcome.report;
        rows.push(vec![
            c.label.clone(),
            c.outcome.topology.clone(),
            format!("{}/{}", r.completed, r.submitted),
            format!("{:.1}", r.effective_throughput),
            format!("{:.2}", r.ttft.mean),
            format!("{:.2}", r.ttft.p99),
            format!("{:.1}", r.total_rebuffer_secs),
            format!("{:.0}", r.replica_seconds),
            c.outcome.complete.to_string(),
        ]);
    }
    let widths: Vec<usize> = (0..headers.len())
        .map(|i| rows.iter().map(|r| r[i].len()).max().unwrap_or(0))
        .collect();
    rows.iter()
        .map(|r| {
            r.iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "name": "grid",
        "base": {
            "engine": {"max_batch": 8},
            "workload": {"type": "synthetic",
                         "arrivals": {"type": "burst", "size": 6, "at_secs": 0},
                         "prompt": {"type": "fixed", "tokens": 64},
                         "output": {"type": "fixed", "tokens": 32},
                         "rate": {"type": "fixed", "rate": 15.0},
                         "seed": 1}
        },
        "axes": {
            "scheduler": ["fcfs", "tokenflow", "andes"],
            "workload": [
                {"type": "synthetic",
                 "arrivals": {"type": "burst", "size": 4, "at_secs": 0},
                 "prompt": {"type": "fixed", "tokens": 64},
                 "output": {"type": "fixed", "tokens": 16},
                 "rate": {"type": "fixed", "rate": 15.0}, "seed": 2},
                {"type": "synthetic",
                 "arrivals": {"type": "burst", "size": 2, "at_secs": 0},
                 "prompt": {"type": "fixed", "tokens": 32},
                 "output": {"type": "fixed", "tokens": 16},
                 "rate": {"type": "fixed", "rate": 15.0}, "seed": 3}
            ]
        }
    }"#;

    #[test]
    fn expands_the_cartesian_product_in_axis_order() {
        let sweep = parse_sweep(DOC).unwrap();
        assert_eq!(sweep.cells(), 6);
        let cells = sweep.expand().unwrap();
        assert_eq!(cells.len(), 6);
        // Scheduler is the outer axis, workload the inner.
        assert_eq!(cells[0].0, "fcfs × synthetic");
        assert_eq!(cells[1].0, "fcfs × synthetic");
        assert_eq!(cells[2].0, "tokenflow × synthetic");
        assert!(cells.iter().all(|(_, s)| s.name.starts_with("grid/")));
    }

    #[test]
    fn runs_every_cell() {
        let sweep = parse_sweep(DOC).unwrap();
        let cells = run_sweep(&sweep).unwrap();
        assert_eq!(cells.len(), 6);
        assert!(cells.iter().all(|c| c.outcome.complete));
        let table = sweep_table(&cells);
        assert_eq!(table.lines().count(), 7, "{table}");
        let grid = sweep_to_json(&sweep, &cells);
        assert_eq!(grid.get("cells").unwrap().as_arr().unwrap().len(), 6);
    }

    #[test]
    fn parallel_jobs_pin_output_to_spec_order() {
        let sweep = parse_sweep(DOC).unwrap();
        let serial = run_sweep(&sweep).unwrap();
        let jobs = std::num::NonZeroUsize::new(4).expect("non-zero");
        let parallel = run_sweep_jobs(&sweep, jobs).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label, "cell order must follow spec order");
            assert_eq!(a.outcome.digest(), b.outcome.digest(), "cell {}", a.label);
        }
        // The rendered artifacts are pinned too, byte for byte.
        assert_eq!(sweep_table(&serial), sweep_table(&parallel));
        assert_eq!(
            sweep_to_json(&sweep, &serial).emit_pretty(),
            sweep_to_json(&sweep, &parallel).emit_pretty()
        );
    }

    #[test]
    fn router_axis_requires_cluster_topology() {
        let doc = r#"{"axes": {"router": ["round-robin", "rate-aware"]}}"#;
        let err = parse_sweep(doc).unwrap().expand().unwrap_err();
        assert!(matches!(err, SpecError::Invalid { ref field, .. }
            if field == "axes.router"));
    }

    #[test]
    fn every_cell_is_checked_as_a_scenario() {
        // The base fits; the model axis's second value does not.
        let doc = r#"{"axes": {"model": ["Llama3-8B", "Qwen2.5-32B"]}}"#;
        let err = parse_sweep(doc).unwrap().expand().unwrap_err();
        assert!(
            matches!(err, SpecError::Invalid { ref field, .. }
            if field == "sweep cell \"Qwen2.5-32B\".engine.mem_frac"),
            "{err:?}"
        );
    }

    #[test]
    fn unknown_axis_lists_valid_ones() {
        let err = parse_sweep(r#"{"axes": {"flux": [1]}}"#).unwrap_err();
        match err {
            SpecError::UnknownName { got, valid, .. } => {
                assert_eq!(got, "flux");
                assert_eq!(valid, AXIS_NAMES.to_vec());
            }
            other => panic!("expected UnknownName, got {other:?}"),
        }
    }

    #[test]
    fn is_sweep_distinguishes_documents() {
        assert!(is_sweep(&json::parse(DOC).unwrap()));
        assert!(!is_sweep(&json::parse(r#"{"name": "x"}"#).unwrap()));
    }
}
