//! Shared experiment-running utilities.

use tokenflow_cluster::ClusterOutcome;
use tokenflow_core::{run_simulation_boxed, EngineConfig, SimOutcome};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_scenario::{from_json, json::Json, SchedulerSpec};
use tokenflow_sched::Scheduler;
use tokenflow_workload::Workload;

use crate::table::{f, Table};

/// The four evaluated systems, in the paper's legend order.
pub const SYSTEMS: [&str; 4] = ["chunked", "fcfs", "andes", "tokenflow"];

/// Builds one of the four evaluated schedulers by key, through the
/// scenario layer's canonical construction path (the keys are exactly
/// the spec grammar's `scheduler.type` names).
///
/// # Panics
///
/// Panics on an unknown key.
pub fn make_scheduler(which: &str) -> Box<dyn Scheduler> {
    from_json::<SchedulerSpec>(&Json::Str(which.to_string()), "scheduler")
        .unwrap_or_else(|e| panic!("{e}"))
        .build_scheduler()
}

/// Runs one (config, scheduler, workload) cell.
pub fn run_cell(config: EngineConfig, which: &str, workload: &Workload) -> SimOutcome {
    run_simulation_boxed(config, make_scheduler(which), workload)
}

/// Runs all four systems on a workload and renders the standard
/// four-metric comparison (effective throughput, raw throughput, mean
/// TTFT, P99 TTFT) the paper's Figures 12/13/16/17/21 report.
pub fn compare_systems(config: &EngineConfig, workload: &Workload) -> (Table, Vec<SimOutcome>) {
    let mut table = Table::new(vec![
        "system",
        "eff thpt (tok/s)",
        "thpt (tok/s)",
        "mean TTFT (s)",
        "p99 TTFT (s)",
        "rebuffer (s)",
        "preempts",
        "complete",
    ]);
    let mut outcomes = Vec::new();
    for which in SYSTEMS {
        let out = run_cell(config.clone(), which, workload);
        table.row(vec![
            out.scheduler.clone(),
            f(out.report.effective_throughput, 1),
            f(out.report.throughput, 1),
            f(out.report.ttft.mean, 2),
            f(out.report.ttft.p99, 2),
            f(out.report.total_rebuffer_secs, 1),
            out.report.preemptions.to_string(),
            out.complete.to_string(),
        ]);
        outcomes.push(out);
    }
    (table, outcomes)
}

/// The replica engine of the fleet experiments (`autoscale`, `fault`):
/// Llama3-8B on an RTX 4090 with a 64-request batch.
pub(crate) fn fleet_config() -> EngineConfig {
    EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(64)
}

/// Asserts that a sequential and a pooled run of the same fleet agree on
/// everything the simulation decides.
pub(crate) fn assert_executor_invariant(seq: &ClusterOutcome, par: &ClusterOutcome, label: &str) {
    assert_eq!(
        seq.assignments, par.assignments,
        "{label}: assignment divergence across executors"
    );
    assert_eq!(
        seq.scale_events, par.scale_events,
        "{label}: scale-decision divergence across executors"
    );
    // Executor-mechanics counters (pool size, submissions) are the one
    // intentionally executor-visible report surface; compare the
    // invariant projection. `faults` rides inside the report, so fault
    // and recovery accounting is covered by this equality.
    let mut seq_merged = seq.merged.clone();
    seq_merged.runtime = seq_merged.runtime.invariant();
    let mut par_merged = par.merged.clone();
    par_merged.runtime = par_merged.runtime.invariant();
    assert_eq!(
        seq_merged, par_merged,
        "{label}: merged-report divergence across executors"
    );
    assert_eq!(
        seq.fleet, par.fleet,
        "{label}: fleet-accounting divergence across executors"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokenflow_sim::{RequestId, SimTime};
    use tokenflow_workload::RequestSpec;

    #[test]
    fn make_scheduler_covers_all_systems() {
        for which in SYSTEMS {
            let s = make_scheduler(which);
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown scheduler")]
    fn unknown_scheduler_panics() {
        let _ = make_scheduler("vllm");
    }

    #[test]
    fn compare_systems_produces_four_rows() {
        let w = Workload::new(
            (0..4)
                .map(|i| RequestSpec {
                    id: RequestId(0),
                    arrival: SimTime::from_millis(i * 100),
                    prompt_tokens: 64,
                    output_tokens: 32,
                    rate: 20.0,
                })
                .collect(),
        );
        let cfg = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200());
        let (table, outcomes) = compare_systems(&cfg, &w);
        assert_eq!(outcomes.len(), 4);
        let rendered = table.render();
        assert!(rendered.contains("TokenFlow"));
        assert!(rendered.contains("SGLang"));
        assert!(outcomes.iter().all(|o| o.report.completed == 4));
    }
}
