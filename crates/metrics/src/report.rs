//! Run-level aggregation and percentile summaries.

use serde::{Deserialize, Serialize};
use tokenflow_sim::SimDuration;

use crate::record::RequestMetrics;
use crate::weights::QosParams;

/// Percentile summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarises a sample set. Returns the zero summary for empty input.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        Summary {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: percentile(&sorted, 0.50),
            p90: percentile(&sorted, 0.90),
            p99: percentile(&sorted, 0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// Linear-interpolated percentile of a **sorted** sample set.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty set");
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Execution-machinery counters surfaced alongside the serving metrics:
/// the engine's plan-horizon fast-path statistics and the cluster
/// executor's barrier/pool statistics. Zero for layers that don't apply
/// (a single-engine run has no epochs; a replica report inside a cluster
/// merge has no pool). Each counter is declared once, in `COUNTERS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RuntimeCounters {
    /// Engine steps served by the plan-horizon fast path.
    pub fast_steps: u64,
    /// Plan horizons armed.
    pub horizons_issued: u64,
    /// Horizons torn down early by a decision-epoch bump.
    pub horizons_invalidated: u64,
    /// Horizons that ran their full certified window.
    pub horizons_expired: u64,
    /// Cluster arrival-barrier epochs executed.
    pub epochs: u64,
    /// Always 0: no cluster executor coalesces arrival barriers. Kept so
    /// the `runtime` JSON keeps its key, which perfbench reports as
    /// `cluster.batched_barriers`.
    pub batched_barriers: u64,
    /// Worker threads of the persistent executor pool (0 when
    /// sequential).
    pub pool_workers: u64,
    /// Replica-advance batches submitted to the pool.
    pub pool_submissions: u64,
}

/// Which contract a runtime counter falls under. Simulation semantics
/// must not move between execution strategies; executor mechanics
/// describe *how* a cluster run was executed — the worker pool is
/// exactly what `Sequential` vs `Parallel` changes.
#[derive(PartialEq)]
enum Class {
    Semantic,
    Mechanics,
}

/// The field of [`RuntimeCounters`] a counter lives in.
type Field = fn(&mut RuntimeCounters) -> &mut u64;

/// One runtime counter: its JSON key, field, merge rule and class.
struct Counter(&'static str, Field, fn(u64, u64) -> u64, Class);

impl Class {
    /// A counter of this class that merges by sum.
    const fn sum(self, key: &'static str, field: Field) -> Counter {
        Counter(key, field, |total, part| total + part, self)
    }

    /// A counter of this class that merges by maximum: a setting, not a total.
    const fn max(self, key: &'static str, field: Field) -> Counter {
        Counter(key, field, u64::max, self)
    }
}

/// Every runtime counter, in canonical JSON order.
const COUNTERS: [Counter; 8] = [
    Class::Semantic.sum("fast_steps", |c| &mut c.fast_steps),
    Class::Semantic.sum("horizons_issued", |c| &mut c.horizons_issued),
    Class::Semantic.sum("horizons_invalidated", |c| &mut c.horizons_invalidated),
    Class::Semantic.sum("horizons_expired", |c| &mut c.horizons_expired),
    Class::Mechanics.sum("epochs", |c| &mut c.epochs),
    Class::Mechanics.sum("batched_barriers", |c| &mut c.batched_barriers),
    Class::Mechanics.max("pool_workers", |c| &mut c.pool_workers),
    Class::Mechanics.sum("pool_submissions", |c| &mut c.pool_submissions),
];

impl RuntimeCounters {
    /// Combines the counters of one run's parts (a cluster's replicas
    /// and its coordinator), each by its declared merge rule.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a RuntimeCounters>) -> RuntimeCounters {
        let mut total = RuntimeCounters::default();
        for mut part in parts.into_iter().copied() {
            for Counter(_, field, merge, _) in COUNTERS {
                let acc = field(&mut total);
                *acc = merge(*acc, *field(&mut part));
            }
        }
        total
    }

    /// Copy with the executor-mechanics counters zeroed: the view of
    /// the counters the executor-invariance contract pins, through which
    /// equivalence suites compare reports.
    pub fn invariant(&self) -> RuntimeCounters {
        let mut kept = *self;
        for Counter(_, field, _, class) in COUNTERS {
            if class == Class::Mechanics {
                *field(&mut kept) = 0;
            }
        }
        kept
    }

    /// Every counter as `(JSON key, value)`, in canonical order.
    pub(crate) fn entries(mut self) -> [(&'static str, u64); 8] {
        COUNTERS.map(|Counter(key, field, ..)| (key, *field(&mut self)))
    }
}

/// Failure/recovery accounting of one run under a fault plan. Absent
/// (`None` on [`RunReport::faults`]) for runs without an active fault
/// plan, which keeps fault-free canonical JSON — and therefore every
/// pinned golden digest — byte-identical.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Replica crashes applied.
    pub crashes: u64,
    /// Provisioned replicas that failed to boot.
    pub boot_failures: u64,
    /// Request-loss events (a request lost twice counts twice).
    pub lost_events: u64,
    /// Lost requests that were re-dispatched and finished.
    pub recovered: u64,
    /// Lost requests that exhausted their retry budget.
    pub abandoned: u64,
    /// Arrivals rejected by pressure-triggered shed mode.
    pub shed: u64,
    /// Retry histogram: `retry_attempts[k]` is the number of requests
    /// that were lost exactly `k + 1` times.
    pub retry_attempts: Vec<u64>,
    /// Seconds from a recovered request's first loss to its completion.
    pub recovery_latency: Summary,
}

/// Aggregated results of one serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Number of submitted requests.
    pub submitted: usize,
    /// Number of completed requests.
    pub completed: usize,
    /// Wall-clock duration of the run (simulation time).
    pub duration: SimDuration,
    /// TTFT summary in seconds over requests that produced a first token.
    pub ttft: Summary,
    /// Raw throughput: generated tokens / duration, tokens/second.
    pub throughput: f64,
    /// Effective throughput (§7.1.3): Σ effective weights / duration.
    pub effective_throughput: f64,
    /// The QoS scalar of Eq. 2.
    pub qos: f64,
    /// Total rebuffering time across requests, seconds.
    pub total_rebuffer_secs: f64,
    /// Total stall episodes across requests.
    pub stall_events: u64,
    /// Total preemption count across requests.
    pub preemptions: u64,
    /// Total recompute count across requests.
    pub recomputes: u64,
    /// Mean per-request generation rate over completed requests,
    /// tokens/second.
    pub mean_generation_rate: f64,
    /// Serving cost: billable replicas × seconds. A single-engine run
    /// bills one replica for the whole duration; a static cluster bills
    /// every replica for the whole run, and an elastic one overwrites
    /// this with the control plane's exact integral (see `FleetStats`).
    pub replica_seconds: f64,
    /// Execution-machinery counters (fast-path and executor statistics).
    /// `from_records` leaves them zero; the engine and cluster layers
    /// fill them in when building their outcomes.
    pub runtime: RuntimeCounters,
    /// Failure/recovery accounting, present only for runs executed under
    /// a non-empty fault plan (the cluster layer fills it in).
    pub faults: Option<FaultStats>,
}

impl RunReport {
    /// Aggregates per-request records.
    pub fn from_records(
        records: &[RequestMetrics],
        duration: SimDuration,
        qos: &QosParams,
    ) -> RunReport {
        let dur_secs = duration.as_secs_f64().max(1e-9);
        let ttfts: Vec<f64> = records
            .iter()
            .filter_map(|r| r.ttft().map(|d| d.as_secs_f64()))
            .collect();
        let total_tokens: u64 = records.iter().map(|r| r.generated).sum();
        let effective: f64 = records.iter().map(|r| r.effective_tokens).sum();
        let qos_total: f64 = records
            .iter()
            .map(|r| r.qos_contribution(qos.lambda, qos.mu))
            .sum();
        let gen_rates: Vec<f64> = records
            .iter()
            .filter_map(|r| r.mean_generation_rate())
            .collect();
        RunReport {
            submitted: records.len(),
            completed: records.iter().filter(|r| r.completed()).count(),
            duration,
            ttft: Summary::of(&ttfts),
            throughput: total_tokens as f64 / dur_secs,
            effective_throughput: effective / dur_secs,
            qos: qos_total / dur_secs,
            total_rebuffer_secs: records.iter().map(|r| r.rebuffer.as_secs_f64()).sum(),
            stall_events: records.iter().map(|r| r.stall_events as u64).sum(),
            preemptions: records.iter().map(|r| r.preemptions as u64).sum(),
            recomputes: records.iter().map(|r| r.recomputes as u64).sum(),
            mean_generation_rate: if gen_rates.is_empty() {
                0.0
            } else {
                gen_rates.iter().sum::<f64>() / gen_rates.len() as f64
            },
            replica_seconds: duration.as_secs_f64(),
            runtime: RuntimeCounters::default(),
            faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokenflow_sim::{RequestId, SimTime};

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert_eq!(percentile(&v, 0.125), 1.5);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    fn summary_of_empty_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.p50, 2.5);
        assert_eq!(s.max, 4.0);
        assert!(s.p99 > s.p50);
    }

    fn record(id: u64, ttft_ms: u64, generated: u64, effective: f64) -> RequestMetrics {
        let mut m = RequestMetrics::new(RequestId(id), SimTime::ZERO, 20.0, generated);
        m.first_token_at = Some(SimTime::from_millis(ttft_ms));
        m.finished_at = Some(SimTime::from_secs(30));
        m.generated = generated;
        m.effective_tokens = effective;
        m.qos_weight_sum = effective;
        m
    }

    #[test]
    fn report_aggregates_throughputs() {
        let records = vec![record(0, 500, 600, 500.0), record(1, 1_500, 400, 300.0)];
        let r =
            RunReport::from_records(&records, SimDuration::from_secs(10), &QosParams::default());
        assert_eq!(r.submitted, 2);
        assert_eq!(r.completed, 2);
        assert_eq!(r.throughput, 100.0);
        assert_eq!(r.effective_throughput, 80.0);
        assert!((r.ttft.mean - 1.0).abs() < 1e-9);
        // One replica billed for the whole run.
        assert_eq!(r.replica_seconds, 10.0);
        // Effective throughput can never exceed raw throughput.
        assert!(r.effective_throughput <= r.throughput);
    }

    #[test]
    fn report_qos_penalises_latency() {
        let fast = vec![record(0, 100, 500, 500.0)];
        let slow = vec![record(0, 20_000, 500, 500.0)];
        let p = QosParams::default();
        let d = SimDuration::from_secs(10);
        let r_fast = RunReport::from_records(&fast, d, &p);
        let r_slow = RunReport::from_records(&slow, d, &p);
        assert!(r_fast.qos > r_slow.qos);
    }

    #[test]
    fn runtime_counters_render_merge_and_project_by_declaration() {
        let a = RuntimeCounters {
            fast_steps: 1,
            horizons_issued: 2,
            horizons_invalidated: 3,
            horizons_expired: 4,
            epochs: 5,
            batched_barriers: 6,
            pool_workers: 7,
            pool_submissions: 8,
        };
        let b = RuntimeCounters {
            fast_steps: 10,
            horizons_issued: 20,
            horizons_invalidated: 30,
            horizons_expired: 40,
            epochs: 50,
            batched_barriers: 60,
            pool_workers: 3,
            pool_submissions: 80,
        };
        let mut report = RunReport::from_records(&[], SimDuration::ZERO, &QosParams::default());
        report.runtime = a;
        assert!(report.canonical_json().ends_with(
            "\"runtime\":{\"fast_steps\":1,\"horizons_issued\":2,\"horizons_invalidated\":3,\
             \"horizons_expired\":4,\"epochs\":5,\"batched_barriers\":6,\"pool_workers\":7,\
             \"pool_submissions\":8}}"
        ));
        // `pool_workers` is a configuration value and merges by max; the
        // other seven are totals.
        let sum = RuntimeCounters {
            fast_steps: 11,
            horizons_issued: 22,
            horizons_invalidated: 33,
            horizons_expired: 44,
            epochs: 55,
            batched_barriers: 66,
            pool_workers: 7,
            pool_submissions: 88,
        };
        assert_eq!(RuntimeCounters::merged([&a, &b]), sum);
        assert_eq!(RuntimeCounters::merged([&b, &a]), sum);
        assert_eq!(RuntimeCounters::merged([]), RuntimeCounters::default());
        // The invariant view zeroes exactly the four executor-mechanics
        // counters.
        let semantic = RuntimeCounters {
            fast_steps: 1,
            horizons_issued: 2,
            horizons_invalidated: 3,
            horizons_expired: 4,
            ..RuntimeCounters::default()
        };
        assert_eq!(a.invariant(), semantic);
        assert_eq!(semantic.invariant(), semantic);
    }

    #[test]
    fn report_handles_unstarted_requests() {
        let mut never = RequestMetrics::new(RequestId(0), SimTime::ZERO, 20.0, 100);
        never.generated = 0;
        let r = RunReport::from_records(&[never], SimDuration::from_secs(1), &QosParams::default());
        assert_eq!(r.completed, 0);
        assert_eq!(r.ttft.count, 0);
        assert_eq!(r.throughput, 0.0);
    }
}
