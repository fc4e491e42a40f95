//! Hotpath experiment: engine steps/second as the request population
//! grows.
//!
//! Not a paper figure — this is the repo's simulator-performance gate.
//! TokenFlow-style studies sweep long traces with huge request
//! populations, so one engine step must cost O(live requests), not
//! O(requests ever submitted). This experiment pins that: a single
//! engine is loaded with a diurnal + flash-crowd trace of 10k/100k/500k
//! requests and stepped through a fixed prefix, measuring wall-clock per
//! 500-step window. The *early* window (right after warm-up) and the
//! *late* window (end of the prefix, long after the crowd, with a large
//! finished population) are reported side by side: an O(lifetime) hot
//! path shows per-step time growing with trace size and run age; an
//! O(live) hot path shows both flat.
//!
//! The trace prefix is deterministic — the same seed, workload, and step
//! count produce byte-identical simulation states — so before/after
//! wall-clock comparisons are apples-to-apples per step. Fresh results
//! are emitted as machine-readable JSON (`BENCH_hotpath_run.json`); the
//! *committed* `BENCH_hotpath.json` is a curated artifact carrying the
//! pre/post-refactor comparison and the CI smoke baseline, and is never
//! overwritten by a run.
//!
//! `HOTPATH_SIZES` (comma-separated labels from `smoke,10k,100k,500k`)
//! restricts the sweep — CI runs `HOTPATH_SIZES=smoke` as its
//! regression gate. `HOTPATH_FAST=off` disables the plan-horizon fast
//! path, so a runner can measure the on/off pair on its own hardware
//! and gate the *ratio* — immune to the speed gap between the machine
//! that committed the baseline and shared CI runners.

use std::time::Instant;

use tokenflow_core::{Engine, EngineConfig, StepOutcome};
use tokenflow_metrics::RuntimeCounters;
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::TokenFlowScheduler;
use tokenflow_sim::{SimDuration, SimTime};
use tokenflow_workload::{diurnal_flash_crowd, RateDist, Workload};

use crate::table::{f, Table};

/// Steps per measurement window.
pub const WINDOW_STEPS: u64 = 500;

/// One size of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct HotpathCase {
    /// Row label (`"smoke"`, `"10k"`, …).
    pub label: &'static str,
    /// Diurnal trace duration, seconds (peak rate is fixed at 12 req/s,
    /// so the request count scales with this).
    pub trace_secs: u64,
    /// Flash-crowd size landing at t = 30 s.
    pub crowd: u32,
    /// Engine-step prefix to measure.
    pub step_cap: u64,
}

/// The published sweep. `smoke` is the CI regression gate; the three
/// sized rows are the O(live)-vs-O(lifetime) evidence.
pub const CASES: [HotpathCase; 4] = [
    HotpathCase {
        label: "smoke",
        trace_secs: 300,
        crowd: 200,
        step_cap: 12_000,
    },
    HotpathCase {
        label: "10k",
        trace_secs: 1_500,
        crowd: 1_000,
        step_cap: 6_000,
    },
    HotpathCase {
        label: "100k",
        trace_secs: 15_000,
        crowd: 2_000,
        step_cap: 8_000,
    },
    HotpathCase {
        label: "500k",
        trace_secs: 75_000,
        crowd: 2_000,
        step_cap: 3_000,
    },
];

/// One measured window of engine steps.
#[derive(Debug, Clone, Copy)]
pub struct HotpathWindow {
    /// Steps executed in the window.
    pub steps: u64,
    /// Wall-clock seconds the window took.
    pub wall_secs: f64,
    /// Tokens delivered to client buffers during the window.
    pub tokens: u64,
    /// Arrived, unfinished requests at the window's end — the population
    /// one step should be linear in.
    pub live: usize,
    /// Requests finished by the window's end.
    pub finished: usize,
    /// Simulation time at the window's end.
    pub sim_time: SimTime,
    /// Steps in the window served by the plan-horizon fast path.
    pub fast_steps: u64,
    /// Horizons armed during the window.
    pub horizons_issued: u64,
    /// Horizons dropped by an invalidating event (epoch bump, gate
    /// refresh emptying the batch, or a failed fit check).
    pub horizons_invalidated: u64,
    /// Horizons that ran out their validity time.
    pub horizons_expired: u64,
}

impl HotpathWindow {
    /// Steps per wall-clock second.
    pub fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.wall_secs.max(1e-9)
    }

    /// Microseconds of wall clock per step.
    pub fn us_per_step(&self) -> f64 {
        self.wall_secs * 1e6 / self.steps.max(1) as f64
    }

    /// Simulated tokens delivered per wall-clock second.
    pub fn tokens_per_wall_sec(&self) -> f64 {
        self.tokens as f64 / self.wall_secs.max(1e-9)
    }

    /// Fraction of the window's steps served by the fast path.
    pub fn fast_step_ratio(&self) -> f64 {
        self.fast_steps as f64 / self.steps.max(1) as f64
    }
}

/// One row of the sweep.
#[derive(Debug, Clone)]
pub struct HotpathRow {
    /// Case label.
    pub label: &'static str,
    /// Requests in the trace.
    pub requests: usize,
    /// Steps actually executed (the cap, or fewer when the run finished).
    pub steps: u64,
    /// Total wall-clock seconds of the measured prefix.
    pub wall_secs: f64,
    /// Whether the prefix completed every request.
    pub done: bool,
    /// The first post-warm-up window.
    pub early: HotpathWindow,
    /// The final window — late in the run, large finished population.
    pub late: HotpathWindow,
    /// Whole-run fast-path counters at the end of the prefix.
    pub fast_path: RuntimeCounters,
}

/// The deterministic trace of one case: a diurnal base at 12 req/s peak
/// with a flash crowd at t = 30 s, heterogeneous reader rates.
pub fn trace(case: &HotpathCase) -> Workload {
    diurnal_flash_crowd(
        12.0,
        SimDuration::from_secs(case.trace_secs),
        case.crowd,
        SimTime::from_secs(30),
        RateDist::Uniform { lo: 8.0, hi: 24.0 },
        42,
    )
}

/// Steps one engine through the case's prefix, measuring per-window
/// wall-clock. The workload is fully submitted up front (the trace is
/// known), which is exactly the regime where an O(lifetime) step scans
/// every submitted request from iteration zero.
pub fn measure(case: &HotpathCase) -> HotpathRow {
    let workload = trace(case);
    let fast = !matches!(std::env::var("HOTPATH_FAST").as_deref(), Ok("off"));
    let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200())
        .with_plan_horizon(fast);
    let mut engine = Engine::new(config, TokenFlowScheduler::new());
    for spec in workload.iter() {
        engine.submit(*spec);
    }

    let mut windows: Vec<HotpathWindow> = Vec::new();
    let mut total_steps = 0u64;
    let mut total_wall = 0.0f64;
    let mut done = false;
    // The production loops (`step_until`, `run_to_completion`) reuse one
    // outcome buffer through `step_into`; the measurement drives the same
    // zero-alloc path.
    let mut out = StepOutcome::default();
    while !done && total_steps < case.step_cap {
        let budget = WINDOW_STEPS.min(case.step_cap - total_steps);
        let mut steps = 0u64;
        let mut tokens = 0u64;
        let fp_before = engine.fast_path_stats();
        let start = Instant::now();
        while steps < budget {
            engine.step_into(&mut out);
            steps += 1;
            tokens += out.delivered.len() as u64;
            if out.done {
                done = true;
                break;
            }
        }
        let wall_secs = start.elapsed().as_secs_f64();
        let fp = engine.fast_path_stats();
        let load = engine.load_snapshot();
        let finished = load.submitted - load.live;
        windows.push(HotpathWindow {
            steps,
            wall_secs,
            tokens,
            live: load.arrived - finished,
            finished,
            sim_time: load.now,
            fast_steps: fp.fast_steps - fp_before.fast_steps,
            horizons_issued: fp.horizons_issued - fp_before.horizons_issued,
            horizons_invalidated: fp.horizons_invalidated - fp_before.horizons_invalidated,
            horizons_expired: fp.horizons_expired - fp_before.horizons_expired,
        });
        total_steps += steps;
        total_wall += wall_secs;
    }

    // Skip the first window (cold caches, first-touch allocation) when a
    // later one exists.
    let early = windows[1.min(windows.len() - 1)];
    let late = *windows.last().expect("at least one window");
    HotpathRow {
        label: case.label,
        requests: workload.len(),
        steps: total_steps,
        wall_secs: total_wall,
        done,
        early,
        late,
        fast_path: engine.fast_path_stats(),
    }
}

fn window_json(w: &HotpathWindow) -> String {
    format!(
        "{{\"steps\": {}, \"steps_per_sec\": {:.1}, \"us_per_step\": {:.2}, \
         \"sim_tokens_per_wall_sec\": {:.0}, \"live\": {}, \"finished\": {}, \
         \"sim_secs\": {:.2}, \"fast_steps\": {}, \"fast_step_ratio\": {:.3}, \
         \"horizons_issued\": {}, \"horizons_invalidated\": {}, \
         \"horizons_expired\": {}}}",
        w.steps,
        w.steps_per_sec(),
        w.us_per_step(),
        w.tokens_per_wall_sec(),
        w.live,
        w.finished,
        w.sim_time.saturating_since(SimTime::ZERO).as_secs_f64(),
        w.fast_steps,
        w.fast_step_ratio(),
        w.horizons_issued,
        w.horizons_invalidated,
        w.horizons_expired,
    )
}

/// Renders the rows as machine-readable JSON, written field by field so
/// the shape stays byte-stable against the committed `BENCH_hotpath.json`,
/// which extends it with a `before` block and a `comparison` block
/// recording the pre-refactor numbers.
pub fn hotpath_json(rows: &[HotpathRow]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"hotpath\",\n");
    s.push_str("  \"scheduler\": \"TokenFlow\",\n");
    s.push_str("  \"model\": \"llama3-8b\",\n");
    s.push_str("  \"hardware\": \"h200\",\n");
    s.push_str(&format!("  \"window_steps\": {WINDOW_STEPS},\n"));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"label\": \"{}\", \"requests\": {}, \"steps\": {}, \
             \"wall_secs\": {:.3}, \"overall_steps_per_sec\": {:.1}, \"done\": {},\n     \
             \"fast_path\": {{\"fast_steps\": {}, \"horizons_issued\": {}, \
             \"horizons_invalidated\": {}, \"horizons_expired\": {}}},\n     \
             \"early\": {},\n     \"late\": {}}}{}\n",
            r.label,
            r.requests,
            r.steps,
            r.wall_secs,
            r.steps as f64 / r.wall_secs.max(1e-9),
            r.done,
            r.fast_path.fast_steps,
            r.fast_path.horizons_issued,
            r.fast_path.horizons_invalidated,
            r.fast_path.horizons_expired,
            window_json(&r.early),
            window_json(&r.late),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The cases selected by `HOTPATH_SIZES` (all when unset or empty).
pub fn selected_cases() -> Vec<HotpathCase> {
    let Ok(raw) = std::env::var("HOTPATH_SIZES") else {
        return CASES.to_vec();
    };
    let labels: Vec<&str> = raw
        .split(',')
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    if labels.is_empty() {
        return CASES.to_vec();
    }
    CASES
        .iter()
        .filter(|c| labels.contains(&c.label))
        .copied()
        .collect()
}

/// The hotpath experiment: run the selected cases, render the table, and
/// write the JSON trajectory.
pub fn hotpath() -> String {
    let rows: Vec<HotpathRow> = selected_cases().iter().map(measure).collect();

    // Fresh measurements go to a *run* file: the committed
    // `BENCH_hotpath.json` is a curated artifact (it carries the
    // pre-refactor `before` rows and the speedup `comparison` CI
    // validates), and a casual local run must not clobber it.
    let json = hotpath_json(&rows);
    let json_note = match std::fs::write("BENCH_hotpath_run.json", &json) {
        Ok(()) => "JSON written to BENCH_hotpath_run.json (BENCH_hotpath.json is the \
                   curated committed baseline)"
            .to_string(),
        Err(e) => format!("(could not write BENCH_hotpath_run.json: {e})"),
    };

    let mut s = String::from(
        "Single-engine step rate on diurnal + flash-crowd traces, measured over\n\
         500-step windows of a deterministic prefix. \"early\" is the first\n\
         post-warm-up window, \"late\" the final one (large finished population).\n\
         An O(lifetime) hot path degrades with trace size and run age; an\n\
         O(live) one stays flat.\n\n",
    );
    let mut table = Table::new(vec![
        "trace",
        "requests",
        "steps",
        "early steps/s",
        "late steps/s",
        "late us/step",
        "late live",
        "late finished",
        "late tok/wall-s",
        "late fast %",
        "fast/inval/exp",
    ]);
    for r in &rows {
        table.row(vec![
            r.label.to_string(),
            r.requests.to_string(),
            r.steps.to_string(),
            f(r.early.steps_per_sec(), 0),
            f(r.late.steps_per_sec(), 0),
            f(r.late.us_per_step(), 1),
            r.late.live.to_string(),
            r.late.finished.to_string(),
            f(r.late.tokens_per_wall_sec(), 0),
            f(r.late.fast_step_ratio() * 100.0, 1),
            format!(
                "{}/{}/{}",
                r.fast_path.fast_steps,
                r.fast_path.horizons_invalidated,
                r.fast_path.horizons_expired
            ),
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

    /// A tiny case so the contract tests stay fast.
    const TINY: HotpathCase = HotpathCase {
        label: "tiny",
        trace_secs: 60,
        crowd: 40,
        step_cap: 1_200,
    };

    #[test]
    fn measure_produces_monotone_sane_windows() {
        let row = measure(&TINY);
        assert!(row.requests > 100, "trace too small: {}", row.requests);
        assert!(row.steps > 0 && row.steps <= TINY.step_cap);
        assert!(row.early.steps_per_sec() > 0.0);
        assert!(row.late.steps_per_sec() > 0.0);
        assert!(row.late.finished >= row.early.finished);
        assert!(row.late.sim_time >= row.early.sim_time);
    }

    #[test]
    fn trace_is_deterministic() {
        assert_eq!(trace(&TINY), trace(&TINY));
    }

    #[test]
    fn json_is_wellformed_enough() {
        let row = measure(&TINY);
        let json = hotpath_json(&[row]);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"experiment\": \"hotpath\""));
        assert!(json.contains("\"label\": \"tiny\""));
        assert!(json.contains("\"early\": {"));
        assert!(json.contains("\"late\": {"));
        assert!(json.contains("\"fast_path\": {"));
        assert!(json.contains("\"horizons_issued\""));
        // One row, no trailing comma before the array close.
        assert!(!json.contains("},\n  ]"));
    }
}
