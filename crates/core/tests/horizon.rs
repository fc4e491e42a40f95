//! Adversarial differential tests for the plan-horizon fast path.
//!
//! The golden suite proves fastpath-on ≡ fastpath-off on end-to-end
//! digests; these tests sharpen the oracle to *per-step lockstep*: two
//! engines fed identical submissions — one with the horizon enabled,
//! one with it force-disabled — must produce identical `StepOutcome`s
//! at every single iteration, through the nastiest invalidation timings:
//!
//! * an arrival landing **exactly** at a step boundary inside an armed
//!   horizon (the epoch bump must tear it down before replay),
//! * a memory shed forced mid-horizon (the per-step fit pre-check must
//!   punt to the full pipeline's emergency reclaim),
//! * an idle fast-forward gap between two bursts (horizons must not
//!   leak across idleness into the second wave).
//!
//! Each case also asserts the fast path actually engaged — a vacuous
//! pass (zero fast steps) would prove nothing. A last test checks that
//! the horizon counters agree with the journal's horizon events, also
//! when a straggler slowdown ends a horizon.

use tokenflow_core::{Engine, EngineConfig, StepOutcome};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::{
    AndesScheduler, ChunkedPrefillScheduler, FcfsScheduler, Scheduler, TokenFlowScheduler,
};
use tokenflow_sim::{RequestId, SimTime};
use tokenflow_trace::{HorizonEndReason, TraceEventKind};
use tokenflow_workload::RequestSpec;

fn config() -> EngineConfig {
    EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200())
}

fn spec(arrival_us: u64, prompt: u64, output: u64, rate: f64) -> RequestSpec {
    RequestSpec {
        id: RequestId(0),
        arrival: SimTime::from_micros(arrival_us),
        prompt_tokens: prompt,
        output_tokens: output,
        rate,
    }
}

const SCHEDULERS: [&str; 4] = ["fcfs", "chunked", "andes", "tokenflow"];

fn make(name: &str) -> Box<dyn Scheduler> {
    match name {
        "fcfs" => Box::new(FcfsScheduler::new()),
        "chunked" => Box::new(ChunkedPrefillScheduler::new()),
        "andes" => Box::new(AndesScheduler::new()),
        "tokenflow" => Box::new(TokenFlowScheduler::new()),
        other => panic!("unknown scheduler {other}"),
    }
}

/// Steps the fastpath-on and fastpath-off engines in lockstep until both
/// report done (or the cap trips), asserting identical outcomes at every
/// iteration. Returns the number of steps taken.
fn run_lockstep(label: &str, on: &mut Engine, off: &mut Engine, cap: u64) -> u64 {
    let mut a = StepOutcome::default();
    let mut b = StepOutcome::default();
    for step in 0..cap {
        on.step_into(&mut a);
        off.step_into(&mut b);
        assert_eq!(a.now, b.now, "{label}: sim clocks diverged at step {step}");
        assert_eq!(
            a.delivered, b.delivered,
            "{label}: deliveries diverged at step {step} (t = {:?})",
            a.now
        );
        assert_eq!(
            a.finished, b.finished,
            "{label}: finishes diverged at step {step} (t = {:?})",
            a.now
        );
        assert_eq!(a.idle, b.idle, "{label}: idleness diverged at step {step}");
        assert_eq!(a.done, b.done, "{label}: doneness diverged at step {step}");
        if a.done {
            return step + 1;
        }
    }
    panic!("{label}: {cap}-step cap hit before completion");
}

/// An arrival timed to the exact microsecond a fast step would begin,
/// deep inside an armed horizon. A probe run (determinism makes it
/// exact) finds a step-boundary instant in the quiescent stretch; the
/// differential pair then gets an extra request at precisely that time.
/// The fastpath engine must ingest it, bump the decision epoch, and run
/// the full pipeline that step — replaying the pre-arrival batch would
/// skip the admission the disabled engine performs.
#[test]
fn arrival_exactly_at_horizon_step_boundary() {
    for name in SCHEDULERS {
        let base = || {
            let mut specs = Vec::new();
            for i in 0..6 {
                specs.push(spec(i * 500, 256, 400, 25.0));
            }
            specs
        };

        // Probe: find the boundary of a step well inside the decode-only
        // stretch (and, with the horizon on, verify it is a *fast* step).
        let mut probe = Engine::from_boxed(config(), make(name));
        for s in base() {
            probe.submit(s);
        }
        let mut out = StepOutcome::default();
        for _ in 0..60 {
            probe.step_into(&mut out);
        }
        let boundary = out.now;
        assert!(
            probe.fast_path_stats().fast_steps > 0,
            "{name}: probe never took a fast step; the case is vacuous"
        );

        let mut e_on = Engine::from_boxed(config(), make(name));
        let mut e_off = Engine::from_boxed(config().with_plan_horizon(false), make(name));
        for s in base() {
            e_on.submit(s);
            e_off.submit(s);
        }
        let barrier = RequestSpec {
            arrival: boundary,
            ..spec(0, 192, 300, 25.0)
        };
        e_on.submit(barrier);
        e_off.submit(barrier);
        run_lockstep(name, &mut e_on, &mut e_off, 200_000);

        let stats = e_on.fast_path_stats();
        assert!(
            stats.fast_steps > 0,
            "{name}: fast path never engaged ({stats:?})"
        );
        assert!(
            stats.horizons_issued > 0,
            "{name}: no horizons issued ({stats:?})"
        );
    }
}

/// The memory-pressure workload: a ~8.9k-token GPU pool. Headroom-costing
/// schedulers admit all three requests up front, after which they grow
/// toward 3 × (384 + 4000) ≈ 13.2k tokens — overflowing mid-decode, long
/// after a quiescent horizon armed. (Conservative costing instead
/// serialises them into waves that each fit.)
fn pressure_case() -> (EngineConfig, Vec<RequestSpec>) {
    let cfg = config().with_mem_frac(0.128).with_max_batch(8);
    (
        cfg,
        (0..3).map(|i| spec(i * 300, 384, 4_000, 30.0)).collect(),
    )
}

/// The two-burst workload: four requests, then four more after about a
/// minute of dead air once the first wave has drained.
fn idle_gap_case() -> (EngineConfig, Vec<RequestSpec>) {
    let first = (0..4).map(|i| spec(i * 400, 256, 250, 25.0));
    let second = (0..4).map(|i| spec(90_000_000 + i * 400, 256, 250, 25.0));
    (config(), first.chain(second).collect())
}

/// A fastpath-on and a fastpath-off engine, both fed `specs`.
fn pair(cfg: EngineConfig, specs: &[RequestSpec], name: &str) -> (Engine, Engine) {
    let mut on = Engine::from_boxed(cfg.clone(), make(name));
    let mut off = Engine::from_boxed(cfg.with_plan_horizon(false), make(name));
    for &s in specs {
        on.submit(s);
        off.submit(s);
    }
    (on, off)
}

/// Memory pressure forced mid-horizon: a tiny GPU pool and long outputs
/// make the decode batch outgrow free blocks while a horizon is armed.
/// The fast step's fit pre-check must detect the pressure and fall back
/// to the full pipeline (emergency reclaim / shed), never replaying a
/// batch that no longer fits.
#[test]
fn shed_mid_horizon_under_memory_pressure() {
    for name in SCHEDULERS {
        let (cfg, specs) = pressure_case();
        let (mut e_on, mut e_off) = pair(cfg, &specs, name);
        run_lockstep(name, &mut e_on, &mut e_off, 400_000);

        let stats = e_on.fast_path_stats();
        assert!(
            stats.fast_steps > 0,
            "{name}: fast path never engaged under pressure ({stats:?})"
        );
        // Only the headroom-costing schedulers (Andes, TokenFlow) can
        // be overflowed by decode growth: SGLang-style conservative
        // admission (FCFS, chunked) reserves each request's full
        // remaining output up front, so a batch it admits can never
        // outgrow the pool and no mid-horizon shed exists to detect.
        // For the headroom schedulers the overflow MUST be caught from
        // inside an armed horizon — that is the fit pre-check firing.
        if matches!(name, "andes" | "tokenflow") {
            assert!(
                stats.horizons_invalidated > 0,
                "{name}: no horizon was torn down by the mid-flight shed ({stats:?})"
            );
        }
    }
}

/// Two bursts separated by a dead gap the engine crosses with idle
/// fast-forward steps. A horizon armed during the first burst must not
/// survive into the second (the first burst's finishes bump the epoch,
/// and idle steps run the full pipeline), and the second burst must
/// re-arm fresh horizons.
#[test]
fn idle_fast_forward_between_horizons() {
    for name in SCHEDULERS {
        let (cfg, specs) = idle_gap_case();
        let (mut e_on, mut e_off) = pair(cfg, &specs, name);
        run_lockstep(name, &mut e_on, &mut e_off, 400_000);

        let stats = e_on.fast_path_stats();
        assert!(
            stats.fast_steps > 0,
            "{name}: fast path never engaged across the bursts ({stats:?})"
        );
        // Both waves must have armed horizons: at least one certificate
        // ended by expiry or invalidation before the gap, and the total
        // issued exceeds what a single wave produces alone.
        assert!(
            stats.horizons_issued >= 2,
            "{name}: expected horizons in both bursts ({stats:?})"
        );
    }
}

/// Horizons armed and not yet ended.
fn armed_horizons(engine: &Engine) -> u64 {
    let s = engine.fast_path_stats();
    s.horizons_issued - s.horizons_invalidated - s.horizons_expired
}

/// Steps `engine` until a plan horizon is armed, then runs fifty steps
/// at a 3× compute slowdown (a straggler window) and restores full
/// speed. Setting the slowdown must end the armed horizon right away,
/// counted as invalidated.
fn straggle_mid_horizon(engine: &mut Engine, label: &str) {
    let mut out = StepOutcome::default();
    while armed_horizons(engine) == 0 {
        engine.step_into(&mut out);
        assert!(!out.done, "{label}: finished before a horizon armed");
    }
    let invalidated = engine.fast_path_stats().horizons_invalidated;
    engine.set_compute_slowdown(3.0);
    assert_eq!(
        (
            armed_horizons(engine),
            engine.fast_path_stats().horizons_invalidated
        ),
        (0, invalidated + 1),
        "{label}: the slowdown must end the armed horizon as invalidated"
    );
    for _ in 0..50 {
        engine.step_into(&mut out);
    }
    engine.set_compute_slowdown(1.0);
}

/// The horizon counters and the journal tell one story: every armed
/// horizon is one `horizon_armed` event, and every horizon the engine
/// ends is one `horizon_ended` event carrying the counter's reason. Runs
/// every scheduler, traced, over the pressure and two-burst workloads,
/// and over the pressure workload with a straggler window set between
/// two steps of an armed horizon.
#[test]
fn horizon_counters_match_the_journal() {
    let mut totals = [0u64; 3];
    for (case, build, straggle) in [
        ("pressure", pressure_case as fn() -> _, false),
        ("idle gap", idle_gap_case, false),
        ("straggler", pressure_case, true),
    ] {
        for name in SCHEDULERS {
            let (mut cfg, specs) = build();
            cfg.trace = true;
            let mut engine = Engine::from_boxed(cfg, make(name));
            for s in specs {
                engine.submit(s);
            }
            if straggle {
                straggle_mid_horizon(&mut engine, &format!("{case}/{name}"));
            }
            assert!(engine.run_to_completion().is_finished(), "{case}/{name}");
            let mut journal = [0u64; 3];
            for event in engine.take_trace_events() {
                match event.kind {
                    TraceEventKind::HorizonArmed { .. } => journal[0] += 1,
                    TraceEventKind::HorizonEnded {
                        reason: HorizonEndReason::Invalidated,
                    } => journal[1] += 1,
                    TraceEventKind::HorizonEnded {
                        reason: HorizonEndReason::Expired,
                    } => journal[2] += 1,
                    _ => {}
                }
            }
            let stats = engine.fast_path_stats();
            let counters = [
                stats.horizons_issued,
                stats.horizons_invalidated,
                stats.horizons_expired,
            ];
            assert_eq!(
                journal, counters,
                "{case}/{name}: journal [armed, invalidated, expired] vs counters"
            );
            for (total, n) in totals.iter_mut().zip(counters) {
                *total += n;
            }
        }
    }
    assert!(
        totals.iter().all(|&n| n > 0),
        "issued/invalidated/expired totals {totals:?}: every kind must occur"
    );
}
