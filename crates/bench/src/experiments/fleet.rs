//! Fleet experiment: replica scaling to 32 replicas under a
//! barrier-dense flash crowd, pooled executor against sequential.
//!
//! Not a paper figure — this is the repo's fleet-scale extension. The
//! barrier-epoch design makes every replica independent between router
//! dispatch points; *how* that independence is exploited is the
//! executor's job, and this experiment measures the two strategies head
//! to head on the regime the paper cares about (TokenFlow §6: flash
//! crowds, where arrivals — and therefore barriers — are densest and
//! per-epoch overhead hurts most):
//!
//! * `sequential` — the reference loop on the coordinator thread.
//! * `pooled` — the persistent condvar-parked worker pool. Both
//!   executors cross the same barriers, one epoch per arrival group, so
//!   the pool can win only by advancing replicas in parallel.
//!
//! The sweep is *weak scaling* (a fixed per-replica share of the crowd,
//! so the fleet serves a crowd that grows with it — the TokenScale
//! tens-of-instances regime), and every pooled run is asserted
//! byte-identical to its sequential twin before any number is reported.
//!
//! Results are also emitted as machine-readable JSON
//! (`BENCH_fleet_run.json` in the working directory, beside the
//! committed `BENCH_fleet.json` it never overwrites) so CI can gate the
//! speedup floor and the perf trajectory can be tracked across commits
//! without parsing tables.

use std::num::NonZeroUsize;
use std::time::Instant;

use tokenflow_cluster::{ClusterEngine, ClusterOutcome, Execution, RoundRobinRouter};
use tokenflow_core::EngineConfig;
use tokenflow_metrics::RuntimeCounters;
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::TokenFlowScheduler;
use tokenflow_sim::SimDuration;
use tokenflow_workload::{ArrivalSpec, LengthDist, RateDist, Workload, WorkloadGen};

use crate::table::{f, Table};

/// Requests each replica is sized for.
const PER_REPLICA_REQUESTS: u32 = 120;

/// The crowd's arrival window: every arrival is its own barrier, so the
/// run crosses thousands of epochs at fleet scale.
const CROWD_WINDOW_SECS: u64 = 60;

/// One row of the fleet sweep.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Fleet size.
    pub replicas: usize,
    /// Flash-crowd size served (scales with the fleet).
    pub requests: usize,
    /// Merged effective throughput, tokens/second.
    pub effective_throughput: f64,
    /// Merged P99 time-to-first-token, seconds.
    pub p99_ttft: f64,
    /// Merged QoS score.
    pub qos: f64,
    /// Whether every replica completed its share.
    pub complete: bool,
    /// Wall-clock of the sequential reference executor, seconds.
    pub sequential_secs: f64,
    /// Wall-clock of the persistent-pool executor, seconds.
    pub pooled_secs: f64,
    /// `sequential_secs / pooled_secs`.
    pub speedup_vs_sequential: f64,
    /// Runtime counters of the pooled run.
    pub stats: RuntimeCounters,
}

/// The flash crowd sized for `replicas` engines: a Poisson storm of
/// short interactive (chat-sized) requests over a fixed window, with
/// heterogeneous streaming rates. Short outputs keep per-epoch
/// simulation work small, which is the barrier-dense regime where
/// executor overhead — not simulation work — dominates.
fn crowd(replicas: usize) -> Workload {
    WorkloadGen {
        arrivals: ArrivalSpec::Poisson {
            rate: f64::from(PER_REPLICA_REQUESTS * replicas as u32) / CROWD_WINDOW_SECS as f64,
            duration: SimDuration::from_secs(CROWD_WINDOW_SECS),
        },
        prompt: LengthDist::Normal {
            mean: 128.0,
            std: 32.0,
            min: 16,
            max: 256,
        },
        output: LengthDist::Normal {
            mean: 32.0,
            std: 8.0,
            min: 8,
            max: 64,
        },
        rate: RateDist::Uniform { lo: 6.0, hi: 30.0 },
    }
    .generate(42)
}

/// Lane count for the pool: every available core, but at least 4 so
/// single-core hosts still measure what a user asking for `parallel(4)`
/// gets (the pool degrades to ~sequential there).
fn lanes() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .max(4)
}

/// Timing repetitions per executor; the reported wall-clock is the
/// median, because individual runs are sub-second and scheduler noise
/// on a busy host would otherwise dominate the speedup ratios.
const TIMING_REPS: usize = 3;

fn run_fleet(
    config: &EngineConfig,
    replicas: usize,
    workload: &Workload,
    execution: Execution,
) -> (ClusterOutcome, f64) {
    let mut secs = Vec::with_capacity(TIMING_REPS);
    let mut kept = None;
    for _ in 0..TIMING_REPS {
        let mut cluster =
            ClusterEngine::new(config.clone(), replicas, RoundRobinRouter::new(), || {
                Box::new(TokenFlowScheduler::new())
            })
            .with_execution(execution);
        cluster.submit_workload(workload);
        let start = Instant::now();
        cluster.run_to_completion();
        secs.push(start.elapsed().as_secs_f64());
        kept = Some(cluster.into_outcome());
    }
    secs.sort_by(f64::total_cmp);
    (kept.expect("TIMING_REPS > 0"), secs[secs.len() / 2])
}

/// Runs the sweep over `fleet_sizes`, timing both executors per size
/// and asserting their outcomes byte-identical before reporting.
///
/// # Panics
///
/// Panics if a pooled run diverges from its sequential twin — a fleet
/// number from a broken determinism contract is worse than no number.
pub fn fleet_sweep(fleet_sizes: &[usize], lanes: usize) -> Vec<FleetRow> {
    let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090());
    fleet_sizes
        .iter()
        .map(|&replicas| {
            let workload = crowd(replicas);
            let (seq, sequential_secs) =
                run_fleet(&config, replicas, &workload, Execution::Sequential);
            let (pooled, pooled_secs) =
                run_fleet(&config, replicas, &workload, Execution::parallel(lanes));
            // Executor-mechanics counters (pool size, submissions) are
            // the one intentionally executor-visible report surface;
            // compare the invariant projection.
            let mut seq_merged = seq.merged.clone();
            seq_merged.runtime = seq_merged.runtime.invariant();
            let mut pooled_merged = pooled.merged.clone();
            pooled_merged.runtime = pooled_merged.runtime.invariant();
            assert_eq!(
                seq_merged, pooled_merged,
                "pooled executor divergence at {replicas} replicas"
            );
            assert_eq!(
                seq.assignments, pooled.assignments,
                "pooled assignment divergence at {replicas} replicas"
            );
            FleetRow {
                replicas,
                requests: workload.len(),
                effective_throughput: seq.merged.effective_throughput,
                p99_ttft: seq.merged.ttft.p99,
                qos: seq.merged.qos,
                complete: seq.complete,
                sequential_secs,
                pooled_secs,
                speedup_vs_sequential: sequential_secs / pooled_secs.max(1e-9),
                stats: pooled.merged.runtime,
            }
        })
        .collect()
}

/// Renders the rows as machine-readable JSON (hand-rolled: the vendored
/// serde stand-in has no serializer; the shape is one `rows` array of
/// flat objects, stable across commits for trend tooling and the CI
/// `fleet-speedup` gate).
pub fn fleet_json(rows: &[FleetRow], lanes: usize, host_parallelism: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"fleet\",\n");
    s.push_str("  \"router\": \"round-robin\",\n");
    s.push_str("  \"scheduler\": \"TokenFlow\",\n");
    s.push_str(&format!("  \"lanes\": {lanes},\n"));
    s.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    s.push_str(&format!(
        "  \"per_replica_requests\": {PER_REPLICA_REQUESTS},\n"
    ));
    s.push_str(&format!("  \"crowd_window_secs\": {CROWD_WINDOW_SECS},\n"));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"replicas\": {}, \"requests\": {}, \"effective_throughput\": {:.3}, \
             \"p99_ttft\": {:.4}, \"qos\": {:.3}, \"complete\": {}, \
             \"sequential_secs\": {:.4}, \"pooled_secs\": {:.4}, \
             \"speedup_vs_sequential\": {:.3}, \
             \"pool_workers\": {}, \"pool_submissions\": {}, \"epochs\": {}}}{}\n",
            r.replicas,
            r.requests,
            r.effective_throughput,
            r.p99_ttft,
            r.qos,
            r.complete,
            r.sequential_secs,
            r.pooled_secs,
            r.speedup_vs_sequential,
            r.stats.pool_workers,
            r.stats.pool_submissions,
            r.stats.epochs,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The fleet experiment: 1–32 replicas, weak-scaled barrier-dense flash
/// crowd, both executors, JSON trajectory in `BENCH_fleet_run.json`.
pub fn fleet() -> String {
    let host = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let lanes = lanes();
    let rows = fleet_sweep(&[1, 2, 4, 8, 16, 32], lanes);

    let json = fleet_json(&rows, lanes, host);
    let json_note = match std::fs::write("BENCH_fleet_run.json", &json) {
        Ok(()) => "JSON trajectory written to BENCH_fleet_run.json (BENCH_fleet.json is \
                   the committed trajectory; copy over it to re-baseline)"
            .to_string(),
        Err(e) => format!("(could not write BENCH_fleet_run.json: {e})"),
    };

    let mut s = format!(
        "Weak-scaling flash crowd: {PER_REPLICA_REQUESTS} short requests per replica arriving\n\
         as a Poisson storm over {CROWD_WINDOW_SECS}s (every arrival its own barrier),\n\
         round-robin routing, TokenFlow scheduling. Both executors are\n\
         asserted byte-identical per size. `×seq` is the persistent pool\n\
         ({lanes} lanes) against the sequential reference and tracks the\n\
         host's real parallelism ({host} core(s) here).\n\n"
    );
    let mut table = Table::new(vec![
        "replicas",
        "requests",
        "eff thpt (tok/s)",
        "complete",
        "seq (s)",
        "pooled (s)",
        "×seq",
    ]);
    for r in &rows {
        table.row(vec![
            r.replicas.to_string(),
            r.requests.to_string(),
            f(r.effective_throughput, 1),
            r.complete.to_string(),
            f(r.sequential_secs, 3),
            f(r.pooled_secs, 3),
            f(r.speedup_vs_sequential, 2),
        ]);
    }
    s.push_str(&table.render());
    s.push('\n');
    s.push_str(&json_note);
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_sweep_small_sizes_complete_and_match() {
        // The full 1–32 sweep runs in the bench harness; tests pin the
        // contract on a small fleet to stay fast.
        let rows = fleet_sweep(&[1, 2], 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.complete, "{} replicas incomplete", r.replicas);
            assert!(r.effective_throughput > 0.0);
            assert!(r.sequential_secs > 0.0 && r.pooled_secs > 0.0);
            assert_eq!(r.stats.pool_workers, 1, "parallel(2) spawns one worker");
            assert!(r.stats.pool_submissions > 0, "the pool must be exercised");
        }
        // Weak scaling: the doubled fleet serves the doubled crowd with
        // more aggregate throughput.
        assert!(rows[1].effective_throughput > rows[0].effective_throughput);
    }

    #[test]
    fn fleet_json_is_wellformed_enough() {
        let rows = fleet_sweep(&[1], 1);
        let json = fleet_json(&rows, 1, 1);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"experiment\": \"fleet\""));
        assert!(json.contains("\"replicas\": 1"));
        assert!(json.contains("\"speedup_vs_sequential\""));
        assert!(!json.contains("scoped"));
        assert!(json.contains("\"host_parallelism\""));
        // One row, no trailing comma.
        assert!(!json.contains("},\n  ]"));
    }
}
