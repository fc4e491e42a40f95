//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a metadata line, then as its last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, with
//! the end-to-end metrics when `--trace 0` and the per-layer metrics
//! when `--trace 1`. A human-readable table goes to standard error.
//! Exits 0 when every check passed, 1 when a check failed (the result is
//! still printed), 2 on a bad invocation or a run that could not start.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use perfbench::host;
use perfbench::run::{run, Options, Outcome};
use perfbench::workloads::{Size, Workload};

const USAGE: &str =
    "usage: perfbench --workload <diurnal-h200|burst-4090|fleet-elastic-faults|traced-cluster> \
[--seed N] [--seconds S] [--trace 0|1]";

/// The default workload seed.
const DEFAULT_SEED: u64 = 1;

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::DiurnalH200,
        seed: DEFAULT_SEED,
        seconds: 15,
        probed: false,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?,
            "--trace" => {
                opts.probed = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                }
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            // JSON has no NaN or infinity; a non-finite reading is a bug
            // the checks below already count.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let meta = host::metadata_json(opts.workload.name(), opts.seed, opts.seconds, opts.probed);
    eprintln!("perfbench {meta}");
    let mut out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for (name, _, value) in &out.metrics {
        if !value.is_finite() {
            out.failed += 1;
            out.errors.push(format!("{name} is not finite"));
        }
    }
    for (name, unit, value) in &out.metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    for e in &out.errors {
        eprintln!("FAILED {e}");
    }
    println!("{{\"meta\": {meta}}}");
    println!("{}", result_json(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
