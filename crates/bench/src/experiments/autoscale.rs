//! Autoscale experiment: replica-seconds at matched streaming QoS.
//!
//! Not a paper figure — this is the repo's elastic-fleet extension. A
//! static fleet must be provisioned for its worst minute; an elastic
//! fleet pays for the capacity it uses. This experiment runs the
//! diurnal + flash-crowd stress trace through a static 32-replica fleet
//! and through autoscaled fleets under each shipped scale policy, then
//! compares **replica-seconds** (the bill) at matched p99 TTFT and
//! rebuffering (the streaming QoS envelope). The flash crowd ramps over
//! a few seconds — the BurstGPT burst signature — which is what gives a
//! backlog-reactive control plane its fighting chance: the first wave's
//! admission pressure triggers provisioning that lands before the later
//! waves.
//!
//! Every configuration is executed under both the sequential and the
//! parallel epoch executor and asserted byte-identical — scale
//! decisions included — before any number is reported. Results are also
//! emitted as machine-readable JSON (`BENCH_autoscale.json` in the
//! working directory) for cross-commit trend tooling.

use std::num::NonZeroUsize;

use tokenflow_cluster::{BacklogAwareRouter, ClusterEngine, ClusterOutcome, Execution};
use tokenflow_control::{ControlConfig, PredictivePolicy, ReactivePolicy, ScalePolicy};
use tokenflow_sched::TokenFlowScheduler;
use tokenflow_sim::{SimDuration, SimTime};
use tokenflow_workload::{diurnal_flash_crowd, RateDist, Workload};

use crate::runner::{assert_executor_invariant, fleet_config};
use crate::table::{f, Table};

/// One fleet configuration's results on the stress trace.
#[derive(Debug, Clone)]
pub struct AutoscaleRow {
    /// Fleet label (`"static-32"`, `"reactive"`, ...).
    pub fleet: String,
    /// Replica-seconds billed over the run.
    pub replica_seconds: f64,
    /// Peak simultaneous active replicas.
    pub peak_active: usize,
    /// Time-weighted mean active fleet size.
    pub mean_active: f64,
    /// Merged P99 time-to-first-token, seconds.
    pub p99_ttft: f64,
    /// Merged total rebuffering, seconds.
    pub rebuffer_secs: f64,
    /// Merged QoS score.
    pub qos: f64,
    /// Scale events logged by the control plane.
    pub scale_events: usize,
    /// Whether every request completed.
    pub complete: bool,
}

/// Scenario knobs, so tests can run a scaled-down sweep.
#[derive(Debug, Clone)]
pub struct AutoscaleSetup {
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
    /// Static baseline fleet size.
    pub static_fleet: usize,
    /// Elastic bootstrap fleet.
    pub bootstrap: usize,
    /// Elastic fleet floor.
    pub min_fleet: usize,
    /// Elastic fleet ceiling.
    pub max_fleet: usize,
    /// Boot delay of a provisioned replica.
    pub boot_delay: SimDuration,
    /// Workload seed.
    pub seed: u64,
}

impl AutoscaleSetup {
    /// The headline scenario: a 240 s diurnal day with a 960-request
    /// crowd ramping over 12 s at the shoulder of the peak, compared
    /// against a static 32-replica fleet. The elastic floor of 10 is the
    /// SLO floor: enough prefill bandwidth that one crowd wave's queue
    /// drains within the TTFT budget while provisioned capacity boots.
    pub fn headline() -> Self {
        AutoscaleSetup {
            duration: SimDuration::from_secs(240),
            base_peak_rate: 1.5,
            crowd: 960,
            crowd_waves: 12,
            crowd_at: SimTime::from_secs(100),
            static_fleet: 32,
            bootstrap: 10,
            min_fleet: 10,
            max_fleet: 32,
            boot_delay: SimDuration::from_secs(1),
            seed: 42,
        }
    }

    /// A scaled-down sweep for unit tests and smoke jobs.
    pub fn smoke() -> Self {
        AutoscaleSetup {
            duration: SimDuration::from_secs(90),
            base_peak_rate: 1.0,
            crowd: 60,
            crowd_waves: 3,
            crowd_at: SimTime::from_secs(40),
            static_fleet: 8,
            bootstrap: 4,
            min_fleet: 4,
            max_fleet: 8,
            boot_delay: SimDuration::from_secs(1),
            seed: 42,
        }
    }

    /// The stress trace: diurnal base + crowd waves, composed with the
    /// `Workload::offset`/`merge` helpers.
    pub fn workload(&self) -> Workload {
        let rate = RateDist::Uniform { lo: 8.0, hi: 24.0 };
        let wave_size = self.crowd / self.crowd_waves.max(1);
        // Base trace plus the first wave from the preset itself...
        let mut parts = vec![diurnal_flash_crowd(
            self.base_peak_rate,
            self.duration,
            wave_size,
            self.crowd_at,
            rate.clone(),
            self.seed,
        )];
        // ...then the remaining waves, one second apart (the ramp).
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
}

fn control(setup: &AutoscaleSetup) -> ControlConfig {
    ControlConfig::for_engine(&fleet_config())
        .with_min_replicas(setup.min_fleet)
        .with_max_replicas(setup.max_fleet)
        .with_boot_delay(setup.boot_delay)
        .with_cooldown(SimDuration::ZERO)
}

fn row_from(fleet: &str, out: &ClusterOutcome, static_size: Option<usize>) -> AutoscaleRow {
    let (peak, mean, events) = match &out.fleet {
        Some(f) => (
            f.peak_active,
            f.mean_active().unwrap_or(0.0),
            out.scale_events.len(),
        ),
        None => {
            let n = static_size.unwrap_or(out.replicas.len());
            (n, n as f64, 0)
        }
    };
    AutoscaleRow {
        fleet: fleet.to_string(),
        replica_seconds: out.merged.replica_seconds,
        peak_active: peak,
        mean_active: mean,
        p99_ttft: out.merged.ttft.p99,
        rebuffer_secs: out.merged.total_rebuffer_secs,
        qos: out.merged.qos,
        scale_events: events,
        complete: out.complete,
    }
}

/// Runs the sweep: the static baseline plus one autoscaled fleet per
/// shipped policy, each under both executors (asserted byte-identical —
/// an autoscale number from a broken determinism contract is worse than
/// no number).
///
/// # Panics
///
/// Panics if any configuration diverges across executors.
pub fn autoscale_sweep(setup: &AutoscaleSetup, workers: NonZeroUsize) -> Vec<AutoscaleRow> {
    let workload = setup.workload();
    let mut rows = Vec::new();

    let static_run = |execution: Execution| {
        ClusterEngine::new(
            fleet_config(),
            setup.static_fleet,
            BacklogAwareRouter::new(),
            || Box::new(TokenFlowScheduler::new()),
        )
        .with_execution(execution)
        .run(&workload)
    };
    let seq = static_run(Execution::Sequential);
    let par = static_run(Execution::Parallel(workers));
    assert_executor_invariant(&seq, &par, "static");
    rows.push(row_from(
        &format!("static-{}", setup.static_fleet),
        &seq,
        Some(setup.static_fleet),
    ));

    // SLO-tight policies: a 512-token prefill budget per replica is a
    // ~0.2 s TTFT allowance at this hardware's prefill rate, which is
    // what lets the ramping crowd trigger provisioning fast enough to
    // stay inside the static fleet's envelope.
    type PolicyFactory = fn() -> Box<dyn ScalePolicy>;
    let policies: Vec<(&str, PolicyFactory)> = vec![
        ("reactive", || {
            Box::new(ReactivePolicy::new().with_backlog_budget(512))
        }),
        ("predictive-ewma", || {
            Box::new(PredictivePolicy::with_tau(30.0).with_backlog_budget(512))
        }),
    ];
    for (name, make) in policies {
        let elastic_run = |execution: Execution| {
            ClusterEngine::new(
                fleet_config(),
                setup.bootstrap,
                BacklogAwareRouter::new(),
                || Box::new(TokenFlowScheduler::new()),
            )
            .with_autoscaler(make(), control(setup))
            .with_execution(execution)
            .run(&workload)
        };
        let seq = elastic_run(Execution::Sequential);
        let par = elastic_run(Execution::Parallel(workers));
        assert_executor_invariant(&seq, &par, name);
        rows.push(row_from(name, &seq, None));
    }
    rows
}

/// The acceptance envelope: an autoscaled fleet must spend measurably
/// fewer replica-seconds than the static baseline while keeping p99
/// TTFT and rebuffering within the baseline's envelope (25 % relative
/// slack plus a small absolute floor for near-zero baselines).
pub fn within_envelope(baseline: &AutoscaleRow, elastic: &AutoscaleRow) -> Result<(), String> {
    if !elastic.complete {
        return Err(format!("{}: run incomplete", elastic.fleet));
    }
    if elastic.replica_seconds >= 0.75 * baseline.replica_seconds {
        return Err(format!(
            "{}: bill {:.0} replica-seconds is not measurably below the \
             static baseline's {:.0}",
            elastic.fleet, elastic.replica_seconds, baseline.replica_seconds
        ));
    }
    if elastic.p99_ttft > baseline.p99_ttft * 1.25 + 0.25 {
        return Err(format!(
            "{}: p99 TTFT {:.2}s outside the baseline envelope ({:.2}s)",
            elastic.fleet, elastic.p99_ttft, baseline.p99_ttft
        ));
    }
    if elastic.rebuffer_secs > baseline.rebuffer_secs * 1.25 + 1.0 {
        return Err(format!(
            "{}: rebuffer {:.2}s outside the baseline envelope ({:.2}s)",
            elastic.fleet, elastic.rebuffer_secs, baseline.rebuffer_secs
        ));
    }
    Ok(())
}

/// The claims CI holds the headline run to: the static row plus at
/// least two elastic rows, every row complete, and every elastic bill
/// below the static one.
fn headline_claims(rows: &[AutoscaleRow]) -> Result<(), String> {
    let [baseline, elastic @ ..] = rows else {
        return Err("no rows".to_string());
    };
    if elastic.len() < 2 {
        return Err(format!(
            "expected the static row and at least 2 elastic rows, got {}",
            rows.len()
        ));
    }
    if let Some(r) = rows.iter().find(|r| !r.complete) {
        return Err(format!("{}: run incomplete", r.fleet));
    }
    match elastic
        .iter()
        .find(|r| r.replica_seconds >= baseline.replica_seconds)
    {
        Some(r) => Err(format!(
            "{}: bill {:.0} replica-seconds is not below {}'s {:.0}",
            r.fleet, r.replica_seconds, baseline.fleet, baseline.replica_seconds
        )),
        None => Ok(()),
    }
}

/// Renders the rows as machine-readable JSON, written field by field so
/// the shape stays byte-stable across commits for trend tooling: one
/// `rows` array of flat objects.
pub fn autoscale_json(setup: &AutoscaleSetup, rows: &[AutoscaleRow]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"autoscale\",\n");
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
        "  \"fleet\": {{\"static\": {}, \"bootstrap\": {}, \"min\": {}, \"max\": {}, \
         \"boot_delay_secs\": {:.1}}},\n",
        setup.static_fleet,
        setup.bootstrap,
        setup.min_fleet,
        setup.max_fleet,
        setup.boot_delay.as_secs_f64(),
    ));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"fleet\": \"{}\", \"replica_seconds\": {:.1}, \"peak_active\": {}, \
             \"mean_active\": {:.2}, \"p99_ttft\": {:.4}, \"rebuffer_secs\": {:.3}, \
             \"qos\": {:.3}, \"scale_events\": {}, \"complete\": {}}}{}\n",
            r.fleet,
            r.replica_seconds,
            r.peak_active,
            r.mean_active,
            r.p99_ttft,
            r.rebuffer_secs,
            r.qos,
            r.scale_events,
            r.complete,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The autoscale experiment: static-32 vs reactive vs predictive on the
/// diurnal + flash-crowd trace, JSON trajectory in
/// `BENCH_autoscale.json`.
///
/// # Panics
///
/// Panics (failing the CI step) when the run breaks one of its
/// `headline_claims`; the JSON is written first, so the failing
/// trajectory can still be inspected.
pub fn autoscale() -> String {
    let setup = AutoscaleSetup::headline();
    let workers = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
    let rows = autoscale_sweep(&setup, workers);

    let json = autoscale_json(&setup, &rows);
    let json_note = match std::fs::write("BENCH_autoscale.json", &json) {
        Ok(()) => "JSON trajectory written to BENCH_autoscale.json".to_string(),
        Err(e) => format!("(could not write BENCH_autoscale.json: {e})"),
    };
    assert_eq!(headline_claims(&rows), Ok(()), "autoscale headline claim");

    let baseline = rows[0].clone();
    let mut s = format!(
        "Diurnal day ({} s, peak {} req/s) with a {}-request flash crowd ramping\n\
         over {} s; backlog-aware routing, TokenFlow scheduling, elastic fleets\n\
         bounded to [{}, {}] replicas with a {:.0} s boot delay. Sequential and\n\
         parallel executors asserted byte-identical (scale decisions included)\n\
         per configuration. The bill is replica-seconds; the envelope is the\n\
         static fleet's p99 TTFT and rebuffer.\n\n",
        setup.duration.as_secs_f64(),
        setup.base_peak_rate,
        setup.crowd,
        setup.crowd_waves,
        setup.min_fleet,
        setup.max_fleet,
        setup.boot_delay.as_secs_f64(),
    );
    let mut table = Table::new(vec![
        "fleet",
        "replica-secs",
        "vs static",
        "peak",
        "mean",
        "p99 TTFT (s)",
        "rebuffer (s)",
        "QoS",
        "events",
        "complete",
    ]);
    for r in &rows {
        table.row(vec![
            r.fleet.clone(),
            f(r.replica_seconds, 0),
            format!(
                "{:.0}%",
                100.0 * r.replica_seconds / baseline.replica_seconds
            ),
            r.peak_active.to_string(),
            f(r.mean_active, 1),
            f(r.p99_ttft, 2),
            f(r.rebuffer_secs, 2),
            f(r.qos, 1),
            r.scale_events.to_string(),
            r.complete.to_string(),
        ]);
    }
    s.push_str(&table.render());
    s.push('\n');
    for r in rows.iter().skip(1) {
        match within_envelope(&baseline, r) {
            Ok(()) => s.push_str(&format!(
                "{}: {:.0}% of the static bill, inside the QoS envelope\n",
                r.fleet,
                100.0 * r.replica_seconds / baseline.replica_seconds
            )),
            Err(why) => s.push_str(&format!("ENVELOPE MISS — {why}\n")),
        }
    }
    s.push_str(&json_note);
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokenflow_scenario::{json, Json};

    #[test]
    fn smoke_sweep_meets_the_envelope() {
        // The scaled-down sweep must already show the headline claim:
        // fewer replica-seconds at matched QoS, byte-invariant across
        // executors (asserted inside the sweep).
        let setup = AutoscaleSetup::smoke();
        let rows = autoscale_sweep(&setup, NonZeroUsize::new(2).unwrap());
        assert_eq!(rows.len(), 3);
        let baseline = &rows[0];
        assert!(baseline.complete);
        for elastic in &rows[1..] {
            within_envelope(baseline, elastic).unwrap();
            assert!(
                elastic.scale_events > 0,
                "{}: fleet never moved",
                elastic.fleet
            );
        }
    }

    #[test]
    fn stress_workload_composes_base_and_ramped_crowd() {
        let setup = AutoscaleSetup::smoke();
        let w = setup.workload();
        let wave = (setup.crowd / setup.crowd_waves) as usize;
        // Each wave lands intact, one second apart.
        for i in 0..setup.crowd_waves {
            let at = setup.crowd_at + SimDuration::from_secs(i.into());
            let n = w.iter().filter(|s| s.arrival == at).count();
            assert_eq!(n, wave, "wave {i} incomplete");
        }
        // The diurnal base surrounds the crowd.
        assert!(w.iter().any(|s| s.arrival < setup.crowd_at));
        assert!(w
            .iter()
            .any(|s| s.arrival > setup.crowd_at + SimDuration::from_secs(10)));
    }

    #[test]
    fn autoscale_json_is_wellformed_enough() {
        let rows = vec![
            AutoscaleRow {
                fleet: "static-8".into(),
                replica_seconds: 800.0,
                peak_active: 8,
                mean_active: 8.0,
                p99_ttft: 1.5,
                rebuffer_secs: 0.0,
                qos: 100.0,
                scale_events: 0,
                complete: true,
            },
            AutoscaleRow {
                fleet: "reactive".into(),
                replica_seconds: 300.0,
                peak_active: 8,
                mean_active: 3.1,
                p99_ttft: 1.6,
                rebuffer_secs: 0.1,
                qos: 99.0,
                scale_events: 12,
                complete: true,
            },
        ];
        let doc = json::parse(&autoscale_json(&AutoscaleSetup::smoke(), &rows))
            .expect("the writer emits valid JSON");
        assert_eq!(
            doc.get("experiment").and_then(Json::as_str),
            Some("autoscale")
        );
        for key in ["router", "scheduler", "workload", "fleet", "rows"] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        let workload = doc.get("workload").expect("workload block");
        for key in [
            "duration_secs",
            "crowd",
            "crowd_waves",
            "base_peak_rate",
            "seed",
        ] {
            assert!(workload.get(key).is_some(), "missing workload.{key}");
        }
        let fleet = doc.get("fleet").expect("fleet block");
        for key in ["static", "bootstrap", "min", "max", "boot_delay_secs"] {
            assert!(fleet.get(key).is_some(), "missing fleet.{key}");
        }
        let parsed = doc.get("rows").and_then(Json::as_arr).expect("rows array");
        assert_eq!(parsed.len(), rows.len());
        for (row, written) in rows.iter().zip(parsed) {
            for key in [
                "fleet",
                "replica_seconds",
                "peak_active",
                "mean_active",
                "p99_ttft",
                "rebuffer_secs",
                "qos",
                "scale_events",
                "complete",
            ] {
                assert!(written.get(key).is_some(), "missing rows[].{key}");
            }
            assert_eq!(
                written.get("fleet").and_then(Json::as_str),
                Some(row.fleet.as_str())
            );
            assert_eq!(
                written.get("replica_seconds").and_then(Json::as_f64),
                Some(row.replica_seconds)
            );
            assert_eq!(
                written.get("complete").and_then(Json::as_bool),
                Some(row.complete)
            );
        }
    }

    #[test]
    fn headline_claims_reject_each_broken_row() {
        let row = |fleet: &str, replica_seconds| AutoscaleRow {
            fleet: fleet.into(),
            replica_seconds,
            peak_active: 8,
            mean_active: 4.0,
            p99_ttft: 1.0,
            rebuffer_secs: 0.0,
            qos: 100.0,
            scale_events: 3,
            complete: true,
        };
        let rows = vec![
            row("static-8", 800.0),
            row("reactive", 300.0),
            row("predictive-ewma", 310.0),
        ];
        assert_eq!(headline_claims(&rows), Ok(()));
        assert!(headline_claims(&rows[..2]).is_err(), "one elastic row");
        let mut incomplete = rows.clone();
        incomplete[0].complete = false;
        assert!(headline_claims(&incomplete).is_err(), "incomplete static");
        let mut expensive = rows;
        expensive[2].replica_seconds = 800.0;
        assert!(headline_claims(&expensive).is_err(), "bill at static");
    }

    #[test]
    fn envelope_rejects_regressions() {
        let base = AutoscaleRow {
            fleet: "static-8".into(),
            replica_seconds: 800.0,
            peak_active: 8,
            mean_active: 8.0,
            p99_ttft: 1.0,
            rebuffer_secs: 1.0,
            qos: 100.0,
            scale_events: 0,
            complete: true,
        };
        let mut good = base.clone();
        good.fleet = "reactive".into();
        good.replica_seconds = 300.0;
        assert!(within_envelope(&base, &good).is_ok());

        let mut expensive = good.clone();
        expensive.replica_seconds = 700.0;
        assert!(within_envelope(&base, &expensive).is_err());

        let mut slow = good.clone();
        slow.p99_ttft = 2.0;
        assert!(within_envelope(&base, &slow).is_err());

        let mut stally = good;
        stally.rebuffer_secs = 10.0;
        assert!(within_envelope(&base, &stally).is_err());
    }
}
