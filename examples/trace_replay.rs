//! Trace replay: generate a BurstGPT-style production trace, save it as
//! CSV, then replay it through two schedulers **from a scenario spec**
//! that names the trace file — the workflow for evaluating real
//! operational traces without writing a new `main` per run.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use tokenflow::scenario::{
    run_sweep, sweep_table, Axis, ScenarioSpec, SchedulerSpec, SweepSpec, WorkloadSpec,
};
use tokenflow::sched::TokenFlowParams;
use tokenflow::sim::SimDuration;
use tokenflow::workload::{presets, trace, RateDist};

fn main() {
    // 1. Generate a three-minute bursty trace with ShareGPT-like lengths.
    let generator = presets::burstgpt_trace(
        3.0,
        40.0,
        SimDuration::from_secs(180),
        RateDist::Uniform { lo: 10.0, hi: 18.0 },
    );
    let workload = generator.generate(2024);
    let stats = workload.stats();
    println!(
        "generated {} requests over {:.0}s (peak {} arrivals/s, p99 prompt {} tokens)",
        stats.count,
        stats.span.as_secs_f64(),
        stats.peak_arrivals_per_sec,
        stats.p99_prompt
    );

    // 2. Save it as CSV — the format `workload.type = "trace-csv"` replays.
    let csv = trace::to_csv(&workload);
    let path = std::env::temp_dir().join("tokenflow_trace.csv");
    std::fs::write(&path, &csv).expect("write trace");
    println!("trace saved to {}\n", path.display());

    // 3. Replay under SGLang and TokenFlow on an H200 under memory
    //    pressure: a two-cell scheduler sweep over one trace-backed spec.
    let mut base = ScenarioSpec {
        name: "trace-replay".to_string(),
        hardware: "H200".to_string(),
        workload: WorkloadSpec::TraceCsv {
            path: path.to_string_lossy().into_owned(),
        },
        ..ScenarioSpec::default()
    };
    base.engine.mem_frac = 0.3;
    let sweep = SweepSpec {
        name: "trace-replay".to_string(),
        base,
        axes: vec![Axis::Scheduler(vec![
            SchedulerSpec::Fcfs { headroom: None },
            SchedulerSpec::TokenFlow(TokenFlowParams::default()),
        ])],
    };
    let cells = run_sweep(&sweep).expect("trace replays");
    println!("{}", sweep_table(&cells));
    for cell in &cells {
        let report = &cell.outcome.report;
        assert!(cell.outcome.complete, "{}: incomplete", cell.label);
        assert_eq!(report.completed, report.submitted, "{}", cell.label);
        assert_eq!(report.submitted, stats.count, "{}", cell.label);
    }
}
