//! Fault experiment: the streaming cost of a mid-crowd replica crash.
//!
//! Not a paper figure — this is the repo's robustness extension. The
//! same flash-crowd trace runs three times through a static fleet:
//! healthy, with one replica fail-stopping five seconds into the crowd
//! (lost requests recovered via exponential-backoff retries), and with
//! the same crash but a zero-retry budget (every lost request
//! abandoned). The comparison is p99 TTFT and the abandoned-request
//! rate: recovery keeps every request but pays for the disruption in
//! tail latency — a retried request keeps its original arrival time, so
//! its TTFT honestly includes the backoff and the re-prefill.
//!
//! Every configuration is executed under both the sequential and the
//! parallel epoch executor and asserted byte-identical — fault and
//! recovery accounting included — before any number is reported.
//! Results are also emitted as machine-readable JSON (`BENCH_fault.json`
//! in the working directory) for cross-commit trend tooling.

use std::num::NonZeroUsize;

use tokenflow_cluster::{BacklogAwareRouter, ClusterEngine, ClusterOutcome, Execution};
use tokenflow_core::EngineConfig;
use tokenflow_fault::{CrashFault, FaultPlan, RetryPolicy};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::TokenFlowScheduler;
use tokenflow_sim::{SimDuration, SimTime};
use tokenflow_workload::{diurnal_flash_crowd, RateDist, Workload};

use crate::table::{f, Table};

/// One configuration's results on the crash trace.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Configuration label (`"healthy"`, `"crash"`, `"crash-no-retry"`).
    pub config: String,
    /// Merged P99 time-to-first-token, seconds (disruption included).
    pub p99_ttft: f64,
    /// Merged total rebuffering, seconds.
    pub rebuffer_secs: f64,
    /// Request-loss events charged by the crash.
    pub lost_events: u64,
    /// Lost requests that were re-dispatched and finished.
    pub recovered: u64,
    /// Lost requests that exhausted their retry budget.
    pub abandoned: u64,
    /// `abandoned / submitted` — the headline robustness metric.
    pub abandoned_rate: f64,
    /// Requests that completed.
    pub completed: usize,
    /// Requests submitted.
    pub submitted: usize,
    /// Replica-seconds billed (a crashed replica stops billing).
    pub replica_seconds: f64,
    /// Whether the run drained (abandons still count as drained).
    pub complete: bool,
}

/// Scenario knobs, so tests can run a scaled-down sweep.
#[derive(Debug, Clone)]
pub struct FaultSetup {
    /// Trace length (one diurnal period).
    pub duration: SimDuration,
    /// Diurnal peak arrival rate, requests/second.
    pub base_peak_rate: f64,
    /// Flash-crowd size (split into `crowd_waves` one-second waves).
    pub crowd: u32,
    /// Number of one-second crowd waves (the burst's ramp).
    pub crowd_waves: u32,
    /// When the first wave lands.
    pub crowd_at: SimTime,
    /// Static fleet size.
    pub fleet: usize,
    /// Which replica fail-stops.
    pub crash_replica: usize,
    /// When it fail-stops (mid-crowd: `crowd_at + 5 s` in the presets).
    pub crash_at: SimTime,
    /// Workload seed.
    pub seed: u64,
}

impl FaultSetup {
    /// The headline scenario: a 120 s diurnal day with a 240-request
    /// crowd ramping over 6 s, an 8-replica fleet, and replica 0
    /// fail-stopping five seconds into the crowd — while it is loaded
    /// with crowd work, so the crash strands live streams.
    pub fn headline() -> Self {
        FaultSetup {
            duration: SimDuration::from_secs(120),
            base_peak_rate: 1.5,
            crowd: 240,
            crowd_waves: 6,
            crowd_at: SimTime::from_secs(40),
            fleet: 8,
            crash_replica: 0,
            crash_at: SimTime::from_secs(45),
            seed: 42,
        }
    }

    /// A scaled-down sweep for unit tests and smoke jobs.
    pub fn smoke() -> Self {
        FaultSetup {
            duration: SimDuration::from_secs(90),
            base_peak_rate: 1.0,
            crowd: 60,
            crowd_waves: 3,
            crowd_at: SimTime::from_secs(40),
            fleet: 4,
            crash_replica: 0,
            crash_at: SimTime::from_secs(45),
            seed: 42,
        }
    }

    /// The stress trace: diurnal base + crowd waves, composed exactly
    /// like the autoscale experiment's (same helpers, same ramp shape).
    pub fn workload(&self) -> Workload {
        let rate = RateDist::Uniform { lo: 8.0, hi: 24.0 };
        let wave_size = self.crowd / self.crowd_waves.max(1);
        let mut parts = vec![diurnal_flash_crowd(
            self.base_peak_rate,
            self.duration,
            wave_size,
            self.crowd_at,
            rate.clone(),
            self.seed,
        )];
        for wave in 1..self.crowd_waves {
            let burst = diurnal_flash_crowd(
                self.base_peak_rate,
                SimDuration::ZERO, // no base: duration-zero diurnal is empty
                wave_size,
                SimTime::ZERO,
                rate.clone(),
                self.seed ^ u64::from(wave),
            );
            parts.push(burst.offset(
                self.crowd_at.saturating_since(SimTime::ZERO) + SimDuration::from_secs(wave.into()),
            ));
        }
        Workload::merge(parts)
    }

    /// The crash plan: one fail-stop, recovery per `retry`.
    pub fn plan(&self, retry: RetryPolicy) -> FaultPlan {
        FaultPlan {
            crashes: vec![CrashFault {
                replica: self.crash_replica,
                at: self.crash_at,
            }],
            retry,
            ..FaultPlan::default()
        }
    }
}

fn config() -> EngineConfig {
    EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(64)
}

fn row_from(config: &str, out: &ClusterOutcome) -> FaultRow {
    let faults = out.merged.faults.clone().unwrap_or_default();
    FaultRow {
        config: config.to_string(),
        p99_ttft: out.merged.ttft.p99,
        rebuffer_secs: out.merged.total_rebuffer_secs,
        lost_events: faults.lost_events,
        recovered: faults.recovered,
        abandoned: faults.abandoned,
        abandoned_rate: if out.merged.submitted == 0 {
            0.0
        } else {
            faults.abandoned as f64 / out.merged.submitted as f64
        },
        completed: out.merged.completed,
        submitted: out.merged.submitted,
        replica_seconds: out.merged.replica_seconds,
        complete: out.complete,
    }
}

fn assert_executor_invariant(seq: &ClusterOutcome, par: &ClusterOutcome, label: &str) {
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

/// Runs the three-way comparison — healthy, crash-with-recovery,
/// crash-without-retries — each under both executors (asserted
/// byte-identical, fault accounting included).
///
/// # Panics
///
/// Panics if any configuration diverges across executors.
pub fn fault_sweep(setup: &FaultSetup, workers: NonZeroUsize) -> Vec<FaultRow> {
    let workload = setup.workload();
    let mut rows = Vec::new();

    let healthy = |execution: Execution| {
        ClusterEngine::new(config(), setup.fleet, BacklogAwareRouter::new(), || {
            Box::new(TokenFlowScheduler::new())
        })
        .with_execution(execution)
        .run(&workload)
    };
    let seq = healthy(Execution::Sequential);
    let par = healthy(Execution::Parallel(workers));
    assert_executor_invariant(&seq, &par, "healthy");
    rows.push(row_from("healthy", &seq));

    let plans = [
        ("crash", RetryPolicy::default()),
        (
            "crash-no-retry",
            RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
        ),
    ];
    for (name, retry) in plans {
        let faulted = |execution: Execution| {
            ClusterEngine::new(config(), setup.fleet, BacklogAwareRouter::new(), || {
                Box::new(TokenFlowScheduler::new())
            })
            .with_fault_plan(setup.plan(retry))
            .with_execution(execution)
            .run(&workload)
        };
        let seq = faulted(Execution::Sequential);
        let par = faulted(Execution::Parallel(workers));
        assert_executor_invariant(&seq, &par, name);
        rows.push(row_from(name, &seq));
    }
    rows
}

/// Renders the rows as machine-readable JSON (hand-rolled: the vendored
/// serde stand-in has no serializer; one flat `rows` array, stable
/// across commits for trend tooling).
pub fn fault_json(setup: &FaultSetup, rows: &[FaultRow]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"fault\",\n");
    s.push_str("  \"router\": \"backlog-aware\",\n");
    s.push_str("  \"scheduler\": \"TokenFlow\",\n");
    s.push_str(&format!(
        "  \"workload\": {{\"duration_secs\": {}, \"crowd\": {}, \"crowd_waves\": {}, \
         \"base_peak_rate\": {:.2}, \"seed\": {}}},\n",
        setup.duration.as_secs_f64(),
        setup.crowd,
        setup.crowd_waves,
        setup.base_peak_rate,
        setup.seed,
    ));
    s.push_str(&format!(
        "  \"fault\": {{\"fleet\": {}, \"crash_replica\": {}, \"crash_at_secs\": {:.1}}},\n",
        setup.fleet,
        setup.crash_replica,
        setup.crash_at.saturating_since(SimTime::ZERO).as_secs_f64(),
    ));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"config\": \"{}\", \"p99_ttft\": {:.4}, \"rebuffer_secs\": {:.3}, \
             \"lost_events\": {}, \"recovered\": {}, \"abandoned\": {}, \
             \"abandoned_rate\": {:.4}, \"completed\": {}, \"submitted\": {}, \
             \"replica_seconds\": {:.1}, \"complete\": {}}}{}\n",
            r.config,
            r.p99_ttft,
            r.rebuffer_secs,
            r.lost_events,
            r.recovered,
            r.abandoned,
            r.abandoned_rate,
            r.completed,
            r.submitted,
            r.replica_seconds,
            r.complete,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The fault experiment: healthy vs mid-crowd crash (with and without
/// retries) on the flash-crowd trace, JSON in `BENCH_fault.json`.
pub fn fault() -> String {
    let setup = FaultSetup::headline();
    let workers = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
    let rows = fault_sweep(&setup, workers);

    let json = fault_json(&setup, &rows);
    let json_note = match std::fs::write("BENCH_fault.json", &json) {
        Ok(()) => "JSON written to BENCH_fault.json".to_string(),
        Err(e) => format!("(could not write BENCH_fault.json: {e})"),
    };

    let mut s = format!(
        "Diurnal day ({} s, peak {} req/s) with a {}-request flash crowd ramping\n\
         over {} s; {} replicas, backlog-aware routing, TokenFlow scheduling.\n\
         Replica {} fail-stops at {:.0} s — five seconds into the crowd — and\n\
         lost requests are retried with exponential backoff (or abandoned\n\
         outright in the no-retry row). Sequential and parallel executors\n\
         asserted byte-identical per configuration, fault accounting included.\n\
         Retried requests keep their original arrival, so p99 TTFT honestly\n\
         prices the disruption.\n\n",
        setup.duration.as_secs_f64(),
        setup.base_peak_rate,
        setup.crowd,
        setup.crowd_waves,
        setup.fleet,
        setup.crash_replica,
        setup.crash_at.saturating_since(SimTime::ZERO).as_secs_f64(),
    );
    let mut table = Table::new(vec![
        "config",
        "p99 TTFT (s)",
        "rebuffer (s)",
        "lost",
        "recovered",
        "abandoned",
        "abandon rate",
        "done/submitted",
        "replica-secs",
        "complete",
    ]);
    for r in &rows {
        table.row(vec![
            r.config.clone(),
            f(r.p99_ttft, 2),
            f(r.rebuffer_secs, 2),
            r.lost_events.to_string(),
            r.recovered.to_string(),
            r.abandoned.to_string(),
            format!("{:.1}%", 100.0 * r.abandoned_rate),
            format!("{}/{}", r.completed, r.submitted),
            f(r.replica_seconds, 0),
            r.complete.to_string(),
        ]);
    }
    s.push_str(&table.render());
    s.push('\n');
    let healthy = &rows[0];
    let crash = &rows[1];
    s.push_str(&format!(
        "crash vs healthy: p99 TTFT {:.2}s -> {:.2}s, {} lost / {} recovered / \
         {} abandoned ({:.1}% abandon rate with retries, {:.1}% without)\n",
        healthy.p99_ttft,
        crash.p99_ttft,
        crash.lost_events,
        crash.recovered,
        crash.abandoned,
        100.0 * crash.abandoned_rate,
        100.0 * rows[2].abandoned_rate,
    ));
    s.push_str(&json_note);
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_shows_recovery_and_abandonment() {
        let rows = fault_sweep(&FaultSetup::smoke(), NonZeroUsize::new(2).unwrap());
        assert_eq!(rows.len(), 3);

        let healthy = &rows[0];
        assert!(healthy.complete);
        assert_eq!(healthy.lost_events, 0);
        assert_eq!(healthy.abandoned, 0);
        assert_eq!(healthy.completed, healthy.submitted);

        let crash = &rows[1];
        assert!(crash.complete);
        assert!(crash.lost_events > 0, "the crash must strand live work");
        assert_eq!(crash.recovered, crash.lost_events, "full recovery");
        assert_eq!(crash.abandoned, 0);
        assert_eq!(crash.completed, crash.submitted);
        assert!(
            crash.p99_ttft >= healthy.p99_ttft,
            "recovery cannot beat the healthy tail: {} vs {}",
            crash.p99_ttft,
            healthy.p99_ttft
        );

        let no_retry = &rows[2];
        assert!(no_retry.complete, "abandons still drain the run");
        assert!(no_retry.abandoned > 0);
        assert_eq!(no_retry.recovered, 0);
        assert_eq!(no_retry.abandoned, no_retry.lost_events);
        assert_eq!(
            no_retry.completed + no_retry.abandoned as usize,
            no_retry.submitted,
            "conservation: every request completes or is abandoned"
        );
        assert!(no_retry.abandoned_rate > 0.0);
    }

    #[test]
    fn fault_json_is_wellformed_enough() {
        let rows = vec![
            FaultRow {
                config: "healthy".into(),
                p99_ttft: 1.0,
                rebuffer_secs: 0.0,
                lost_events: 0,
                recovered: 0,
                abandoned: 0,
                abandoned_rate: 0.0,
                completed: 100,
                submitted: 100,
                replica_seconds: 400.0,
                complete: true,
            },
            FaultRow {
                config: "crash".into(),
                p99_ttft: 2.5,
                rebuffer_secs: 1.2,
                lost_events: 9,
                recovered: 9,
                abandoned: 0,
                abandoned_rate: 0.0,
                completed: 100,
                submitted: 100,
                replica_seconds: 360.0,
                complete: true,
            },
        ];
        let json = fault_json(&FaultSetup::smoke(), &rows);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"experiment\": \"fault\""));
        assert!(json.contains("\"crash_replica\": 0"));
        assert!(json.contains("\"config\": \"crash\""));
        assert!(json.contains("\"abandoned_rate\""));
        assert!(json.contains("\"rows\": ["));
        // Two rows, no trailing comma.
        assert!(!json.contains("},\n  ]"));
    }
}
