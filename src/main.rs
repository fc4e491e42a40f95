//! The `tokenflow` CLI: drive the whole serving surface from JSON specs.
//!
//! ```text
//! tokenflow run <scenario.json> [--out report.json] [--trace out.jsonl]
//! tokenflow sweep <sweep.json> [--out grid.json]      run a cartesian grid
//! tokenflow trace <scenario.json> [--format jsonl|perfetto] [--out path]
//! tokenflow explain <scenario.json> <request-id>      one request's story
//! tokenflow validate <spec.json> ...                  parse/typo-check only
//! tokenflow list-policies                             show every valid name
//! ```
//!
//! `run` prints the scenario's JSON report (merged `RunReport`, digest,
//! topology metadata) to stdout; `sweep` prints an aligned results table
//! and, with `--out`, writes the full JSON grid. `trace` and `explain`
//! re-run the scenario with the decision journal enabled — tracing never
//! changes a single scheduling decision, so the traced run's report is
//! byte-identical to the untraced one. Relative `trace-csv` paths
//! resolve against the spec file's own directory, so committed scenarios
//! can name traces next to themselves.
//!
//! Every failure path returns a typed [`CliError`] and a nonzero exit
//! code: bad invocations exit 2, spec/I-O/run failures exit 1. In
//! particular a failed `--out`/`--trace` write is an error, not a
//! warning — scripts depending on the artifact must see the failure.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::Path;
use std::process::ExitCode;

use std::num::NonZeroUsize;

use tokenflow_scenario::{
    from_json, is_sweep, json, run_sweep_jobs, sweep_from_json, sweep_table, sweep_to_json,
    tracefmt, Harness, RunOutcome, ScenarioSpec, SpecError, Variants, ARRIVAL_NAMES,
    EXECUTION_NAMES, HARDWARE_NAMES, LENGTH_DIST_NAMES, MODEL_NAMES, PRESET_NAMES, RATE_DIST_NAMES,
    ROUTER_NAMES, SCALE_POLICY_NAMES, SCHEDULER_NAMES, TOPOLOGY_NAMES, WORKLOAD_TYPE_NAMES,
};
use tokenflow_sim::RequestId;
use tokenflow_trace::TraceJournal;

const USAGE: &str = "\
tokenflow — declarative scenario runner for the TokenFlow serving stack

USAGE:
    tokenflow run <scenario.json> [--out <report.json>] [--trace <out.jsonl>]
    tokenflow sweep <sweep.json> [--out <grid.json>] [--jobs <N|auto>]
    tokenflow trace <scenario.json> [--format <jsonl|perfetto>] [--out <path>]
    tokenflow explain <scenario.json> <request-id>
    tokenflow validate <spec.json> [<spec.json> ...]
    tokenflow list-policies

Sweep cells run on up to --jobs threads (default: auto, one per
available core); results are printed in spec order either way, byte
for byte.

`run --trace` writes the decision journal as JSONL next to the normal
report; `trace` renders it as JSONL (default) or Chrome trace-event JSON
for ui.perfetto.dev; `explain` reconstructs one request's causal
timeline (request ids as `req#3` or bare `3`). Tracing never changes a
decision: the traced run's report digest matches the untraced run.

Scenario files describe one serving stack (model, hardware, engine knobs,
scheduler, workload, topology); sweep files add an `axes` object listing
alternatives per field and run the cartesian grid. See `scenarios/` for
committed examples and DESIGN.md (\"observability\" and \"scenario
layer\") for the trace schema and spec grammar.";

/// Why a `tokenflow` invocation failed. Every variant exits nonzero:
/// usage errors exit 2, everything else exits 1.
#[derive(Debug)]
enum CliError {
    /// The invocation itself was malformed (unknown command, missing
    /// argument, bad flag value).
    Usage(String),
    /// A spec file could not be read, parsed, or built.
    Spec { path: String, msg: String },
    /// An output artifact (report, grid, trace) could not be written.
    Io {
        path: String,
        source: std::io::Error,
    },
    /// The run itself failed (deadline, missing request id).
    Run(String),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Usage(_) => ExitCode::from(2),
            _ => ExitCode::FAILURE,
        }
    }

    fn io(path: &str) -> impl FnOnce(std::io::Error) -> CliError + '_ {
        move |source| CliError::Io {
            path: path.to_string(),
            source,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Spec { path, msg } => write!(f, "{path}: {msg}"),
            CliError::Io { path, source } => write!(f, "cannot write {path}: {source}"),
            CliError::Run(msg) => write!(f, "{msg}"),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command {
        "run" => cmd_run(&args[1..]),
        "sweep" => cmd_sweep(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "explain" => cmd_explain(&args[1..]),
        "validate" => cmd_validate(&args[1..]),
        "list-policies" => {
            cmd_list_policies();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

/// Per-command flag values recognised by [`file_and_flags`].
#[derive(Default)]
struct Flags {
    out: Option<String>,
    jobs: Option<NonZeroUsize>,
    trace: Option<String>,
    format: Option<String>,
    /// Positional arguments after the spec file (e.g. a request id).
    extra: Vec<String>,
}

/// Which optional flags/positionals a command accepts.
#[derive(Clone, Copy, Default)]
struct Accepts {
    jobs: bool,
    trace: bool,
    format: bool,
    extra: usize,
}

/// Splits `[file, --out, path, ...]`-style argument lists against the
/// command's accepted flag set.
fn file_and_flags(
    args: &[String],
    command: &str,
    accepts: Accepts,
) -> Result<(String, Flags), CliError> {
    let usage = |msg: String| CliError::Usage(msg);
    let mut file = None;
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                flags.out = Some(
                    it.next()
                        .ok_or_else(|| usage("--out needs a path".to_string()))?
                        .clone(),
                );
            }
            "--jobs" if accepts.jobs => {
                let value = it
                    .next()
                    .ok_or_else(|| usage("--jobs needs a count or `auto`".to_string()))?;
                flags.jobs = Some(parse_jobs(value)?);
            }
            "--trace" if accepts.trace => {
                flags.trace = Some(
                    it.next()
                        .ok_or_else(|| usage("--trace needs a path".to_string()))?
                        .clone(),
                );
            }
            "--format" if accepts.format => {
                let value = it
                    .next()
                    .ok_or_else(|| usage("--format needs `jsonl` or `perfetto`".to_string()))?;
                if value != "jsonl" && value != "perfetto" {
                    return Err(usage(format!(
                        "--format expects `jsonl` or `perfetto`, got `{value}`"
                    )));
                }
                flags.format = Some(value.clone());
            }
            other if file.is_none() => file = Some(other.to_string()),
            other if flags.extra.len() < accepts.extra => flags.extra.push(other.to_string()),
            other => return Err(usage(format!("unexpected argument `{other}`"))),
        }
    }
    Ok((
        file.ok_or_else(|| usage(format!("usage: tokenflow {command} <file.json> [...]")))?,
        flags,
    ))
}

fn parse_jobs(value: &str) -> Result<NonZeroUsize, CliError> {
    if value == "auto" {
        return Ok(auto_jobs());
    }
    value.parse::<NonZeroUsize>().map_err(|_| {
        CliError::Usage(format!(
            "--jobs expects a positive integer or `auto`, got `{value}`"
        ))
    })
}

fn auto_jobs() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

fn load_json(path: &str) -> Result<json::Json, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Spec {
        path: path.to_string(),
        msg: format!("cannot read: {e}"),
    })?;
    json::parse(&text).map_err(|e| CliError::Spec {
        path: path.to_string(),
        msg: e.to_string(),
    })
}

fn spec_err(path: &str, e: SpecError) -> CliError {
    CliError::Spec {
        path: path.to_string(),
        msg: e.to_string(),
    }
}

fn base_dir(path: &str) -> std::path::PathBuf {
    Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| std::path::PathBuf::from("."))
}

/// Loads and builds a scenario spec (rejecting sweep files), optionally
/// with the decision journal enabled.
fn load_harness(path: &str, traced: bool) -> Result<Harness, CliError> {
    let doc = load_json(path)?;
    if is_sweep(&doc) {
        return Err(CliError::Spec {
            path: path.to_string(),
            msg: format!("is a sweep spec (has `axes`); use `tokenflow sweep {path}`"),
        });
    }
    let mut spec = from_json::<ScenarioSpec>(&doc, "scenario").map_err(|e| spec_err(path, e))?;
    spec.rebase_paths(&base_dir(path));
    let mut harness = spec.build().map_err(|e| spec_err(path, e))?;
    harness.config.trace = traced;
    Ok(harness)
}

/// Runs a traced harness and moves the journal out of its outcome.
fn run_traced(harness: Harness) -> Result<(RunOutcome, TraceJournal), CliError> {
    let mut outcome = harness.run();
    let journal = outcome
        .trace
        .take()
        .expect("traced run must yield a journal");
    Ok((outcome, journal))
}

fn incomplete_err(outcome: &RunOutcome) -> CliError {
    CliError::Run(format!(
        "scenario `{}` did not complete within the engine deadline",
        outcome.scenario
    ))
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let (path, flags) = file_and_flags(
        args,
        "run",
        Accepts {
            trace: true,
            ..Accepts::default()
        },
    )?;
    let harness = load_harness(&path, flags.trace.is_some())?;
    eprintln!(
        "running scenario `{}`: {} requests, topology {}",
        harness.name,
        harness.workload.len(),
        harness.topology.type_name()
    );
    let outcome = harness.run();
    let report = outcome.to_json().emit_pretty();
    println!("{report}");
    if let Some(out_path) = &flags.out {
        std::fs::write(out_path, &report).map_err(CliError::io(out_path))?;
        eprintln!("report written to {out_path}");
    }
    if let Some(trace_path) = &flags.trace {
        let journal = outcome
            .trace
            .as_ref()
            .expect("traced run must yield a journal");
        let jsonl = tracefmt::trace_jsonl(journal);
        std::fs::write(trace_path, &jsonl).map_err(CliError::io(trace_path))?;
        eprintln!(
            "trace written to {trace_path} ({} events, digest {:016x})",
            journal.events.len(),
            tracefmt::trace_digest(journal)
        );
    }
    if !outcome.complete {
        return Err(incomplete_err(&outcome));
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let (path, flags) = file_and_flags(
        args,
        "sweep",
        Accepts {
            jobs: true,
            ..Accepts::default()
        },
    )?;
    let jobs = flags.jobs.unwrap_or_else(auto_jobs);
    let doc = load_json(&path)?;
    if !is_sweep(&doc) {
        return Err(CliError::Spec {
            path: path.clone(),
            msg: format!("has no `axes`; use `tokenflow run {path}` for a single scenario"),
        });
    }
    let mut sweep = sweep_from_json(&doc).map_err(|e| spec_err(&path, e))?;
    sweep.rebase_paths(&base_dir(&path));
    eprintln!(
        "sweep `{}`: {} axes, {} cells, {} job(s)",
        sweep.name,
        sweep.axes.len(),
        sweep.cells(),
        jobs
    );
    let cells = run_sweep_jobs(&sweep, jobs).map_err(|e| spec_err(&path, e))?;
    println!("{}", sweep_table(&cells));
    if let Some(out_path) = &flags.out {
        let grid = sweep_to_json(&sweep, &cells).emit_pretty();
        std::fs::write(out_path, &grid).map_err(CliError::io(out_path))?;
        eprintln!("grid written to {out_path}");
    }
    if let Some(incomplete) = cells.iter().find(|c| !c.outcome.complete) {
        return Err(CliError::Run(format!(
            "cell `{}` did not complete",
            incomplete.label
        )));
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    let (path, flags) = file_and_flags(
        args,
        "trace",
        Accepts {
            format: true,
            ..Accepts::default()
        },
    )?;
    let harness = load_harness(&path, true)?;
    eprintln!(
        "tracing scenario `{}`: {} requests, topology {}",
        harness.name,
        harness.workload.len(),
        harness.topology.type_name()
    );
    let (outcome, journal) = run_traced(harness)?;
    let rendered = match flags.format.as_deref() {
        Some("perfetto") => tracefmt::perfetto_json(&journal),
        _ => tracefmt::trace_jsonl(&journal),
    };
    match &flags.out {
        Some(out_path) => {
            std::fs::write(out_path, &rendered).map_err(CliError::io(out_path))?;
            eprintln!(
                "trace written to {out_path} ({} events, digest {:016x})",
                journal.events.len(),
                tracefmt::trace_digest(&journal)
            );
        }
        None => println!("{rendered}"),
    }
    if !outcome.complete {
        return Err(incomplete_err(&outcome));
    }
    Ok(())
}

/// Accepts `req#3` (the display form) or bare `3`.
fn parse_request_id(value: &str) -> Result<RequestId, CliError> {
    let digits = value.strip_prefix("req#").unwrap_or(value);
    digits.parse::<u64>().map(RequestId).map_err(|_| {
        CliError::Usage(format!(
            "request id must be `req#N` or a bare integer, got `{value}`"
        ))
    })
}

fn cmd_explain(args: &[String]) -> Result<(), CliError> {
    let (path, flags) = file_and_flags(
        args,
        "explain",
        Accepts {
            extra: 1,
            ..Accepts::default()
        },
    )?;
    let id_arg = flags.extra.first().ok_or_else(|| {
        CliError::Usage("usage: tokenflow explain <scenario.json> <request-id>".to_string())
    })?;
    let id = parse_request_id(id_arg)?;
    let harness = load_harness(&path, true)?;
    let (_outcome, journal) = run_traced(harness)?;
    match tokenflow_scenario::explain(&journal, id) {
        Some(text) => {
            print!("{text}");
            Ok(())
        }
        None => Err(CliError::Run(format!(
            "{id} never appears in the journal (the run submitted ids up to req#{})",
            journal
                .events
                .iter()
                .filter_map(|e| e.kind.request())
                .map(|r| r.0)
                .max()
                .map_or_else(|| "—".to_string(), |m| m.to_string())
        ))),
    }
}

fn cmd_validate(args: &[String]) -> Result<(), CliError> {
    if args.is_empty() {
        return Err(CliError::Usage(
            "usage: tokenflow validate <spec.json> [...]".to_string(),
        ));
    }
    for path in args {
        let doc = load_json(path)?;
        if is_sweep(&doc) {
            let sweep = sweep_from_json(&doc).map_err(|e| spec_err(path, e))?;
            // Expansion catches axis/topology mismatches too.
            let cells = sweep.expand().map_err(|e| spec_err(path, e))?;
            println!("{path}: sweep `{}`, {} cells — OK", sweep.name, cells.len());
        } else {
            let spec =
                from_json::<ScenarioSpec>(&doc, "scenario").map_err(|e| spec_err(path, e))?;
            println!(
                "{path}: scenario `{}` ({} / {} / {}) — OK",
                spec.name,
                spec.scheduler.type_name(),
                spec.workload.type_name(),
                spec.topology.type_name()
            );
        }
    }
    Ok(())
}

fn cmd_list_policies() {
    let section = |title: &str, names: &[&str]| {
        println!("{title}:");
        for n in names {
            println!("  {n}");
        }
        println!();
    };
    section("schedulers (scheduler.type)", SCHEDULER_NAMES);
    section("routers (topology.router)", ROUTER_NAMES);
    section("scale policies (topology.policy.type)", SCALE_POLICY_NAMES);
    section("topologies (topology.type)", TOPOLOGY_NAMES);
    section("execution strategies (topology.execution)", EXECUTION_NAMES);
    section("workload types (workload.type)", WORKLOAD_TYPE_NAMES);
    section("workload presets (workload.name)", PRESET_NAMES);
    section("arrival processes (arrivals.type)", ARRIVAL_NAMES);
    section("length distributions", LENGTH_DIST_NAMES);
    section("rate distributions", RATE_DIST_NAMES);
    section("models", MODEL_NAMES);
    section("hardware", HARDWARE_NAMES);
}
