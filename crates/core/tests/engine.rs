//! Engine behavior tests, exercised through the public API.
//!
//! These ran inside `engine.rs` when the engine was a monolith; the staged
//! pipeline refactor moved them here unchanged (modulo the now-generic
//! scheduler parameter), so they double as the refactor's behavioral
//! oracle: the staged pipeline must keep every one of them green.

use tokenflow_core::{Engine, EngineConfig};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::{
    AndesScheduler, ChunkedPrefillScheduler, FcfsScheduler, Scheduler, TokenFlowScheduler,
};
use tokenflow_sim::{RequestId, SimDuration, SimTime};
use tokenflow_trace::TraceEventKind;
use tokenflow_workload::RequestSpec;

fn config() -> EngineConfig {
    EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200())
}

fn spec(arrival_ms: u64, prompt: u64, output: u64, rate: f64) -> RequestSpec {
    RequestSpec {
        id: RequestId(0),
        arrival: SimTime::from_millis(arrival_ms),
        prompt_tokens: prompt,
        output_tokens: output,
        rate,
    }
}

#[test]
fn single_request_completes() {
    let mut e = Engine::new(config(), FcfsScheduler::new());
    e.submit(spec(0, 128, 50, 20.0));
    assert!(e.run_to_completion().is_finished());
    let out = e.into_outcome();
    assert_eq!(out.report.completed, 1);
    assert_eq!(out.records[0].generated, 50);
    assert!(out.records[0].ttft().unwrap() > SimDuration::ZERO);
}

#[test]
fn ttft_includes_queueing_and_prefill() {
    let mut e = Engine::new(config(), FcfsScheduler::new());
    e.submit(spec(1_000, 512, 10, 20.0));
    e.run_to_completion();
    let out = e.into_outcome();
    let first = out.records[0].first_token_at.unwrap();
    // Arrival at 1 s plus a prefill pass.
    assert!(first > SimTime::from_secs(1));
    assert!(first < SimTime::from_secs(2));
}

#[test]
fn tokens_delivered_in_order_with_step_api() {
    let mut e = Engine::new(config(), FcfsScheduler::new());
    let id = e.submit(spec(0, 64, 20, 50.0));
    let mut seen = Vec::new();
    for _ in 0..10_000 {
        let out = e.step();
        for &(rid, n) in &out.delivered {
            assert_eq!(rid, id);
            seen.push(n);
        }
        if out.done {
            break;
        }
    }
    assert_eq!(seen, (1..=20).collect::<Vec<u64>>());
}

#[test]
fn burst_creates_queueing_under_fcfs() {
    let mut cfg = config().with_mem_frac(0.3).with_max_batch(16);
    cfg.sample_interval = SimDuration::from_millis(200);
    let mut e = Engine::new(cfg, FcfsScheduler::new());
    for _ in 0..128 {
        e.submit(spec(0, 512, 256, 20.0));
    }
    assert!(e.run_to_completion().is_finished());
    let out = e.into_outcome();
    assert_eq!(out.report.completed, 128);
    // Later requests queue: P99 TTFT spreads well past P50 and far
    // beyond the 1.3 s engagement tolerance (Figure 2's pathology).
    assert!(
        out.report.ttft.p99 > 1.8 * out.report.ttft.p50,
        "p99 {} vs p50 {}",
        out.report.ttft.p99,
        out.report.ttft.p50
    );
    assert!(out.report.ttft.p99 > 1.3, "p99 {}", out.report.ttft.p99);
    assert!(out.queued_series.max().unwrap_or(0.0) > 0.0);
}

#[test]
fn all_schedulers_complete_same_workload() {
    let mk: Vec<Box<dyn Scheduler>> = vec![
        Box::new(FcfsScheduler::new()),
        Box::new(ChunkedPrefillScheduler::new()),
        Box::new(AndesScheduler::new()),
        Box::new(TokenFlowScheduler::new()),
    ];
    for sched in mk {
        let name = sched.name();
        let mut e = Engine::new(config().with_max_batch(8), sched);
        for i in 0..12 {
            e.submit(spec(i * 50, 128, 64, 25.0));
        }
        assert!(e.run_to_completion().is_finished(), "{name} did not finish");
        let out = e.into_outcome();
        assert_eq!(out.report.completed, 12, "{name} completed");
        for r in &out.records {
            assert_eq!(r.generated, 64, "{name} token count");
        }
    }
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut e = Engine::new(config().with_max_batch(8), TokenFlowScheduler::new());
        for i in 0..10 {
            e.submit(spec(i * 100, 256, 128, 20.0));
        }
        e.run_to_completion();
        e.into_outcome()
    };
    let a = run();
    let b = run();
    assert_eq!(a.report, b.report);
    assert_eq!(a.records, b.records);
    assert_eq!(a.iterations, b.iterations);
}

#[test]
fn timeline_recording_works() {
    let mut e = Engine::new(config().with_timelines(2), FcfsScheduler::new());
    e.submit(spec(0, 64, 30, 20.0));
    e.submit(spec(0, 64, 30, 20.0));
    e.submit(spec(0, 64, 30, 20.0));
    e.run_to_completion();
    let out = e.into_outcome();
    assert_eq!(out.timelines.len(), 2);
    assert_eq!(out.timelines[0].points().len(), 30);
}

#[test]
fn effective_tokens_bounded_by_generated() {
    let mut e = Engine::new(config(), FcfsScheduler::new());
    e.submit(spec(0, 128, 200, 10.0));
    e.run_to_completion();
    let out = e.into_outcome();
    let r = &out.records[0];
    assert!(r.effective_tokens <= r.generated as f64 + 1e-9);
    assert!(r.effective_tokens > 0.0);
}

#[test]
fn fast_generation_overfills_buffer_and_loses_effectiveness() {
    // A slow reader against unpaced FCFS generation: most tokens land
    // beyond the 20% buffer cutoff and count zero.
    let mut e = Engine::new(config(), FcfsScheduler::new());
    e.submit(spec(0, 128, 500, 5.0));
    e.run_to_completion();
    let out = e.into_outcome();
    let r = &out.records[0];
    assert!(
        r.effective_tokens < 0.5 * r.generated as f64,
        "effective {} of {}",
        r.effective_tokens,
        r.generated
    );
}

#[test]
fn memory_pressure_causes_queueing_under_fcfs() {
    // Capacity ≈6.6k tokens; 8 requests × 1024 conservative tokens do
    // not all fit: SGLang-style admission serialises the excess into a
    // second wave (visible as a TTFT spread), never preempting.
    let mut cfg = config();
    cfg.mem_frac = 0.126; // ≈ 19 GiB: 16 weights + 2 reserve + ~0.9 KV (≈6.6k tokens)
    let mut e = Engine::new(cfg, FcfsScheduler::new());
    for _ in 0..8 {
        e.submit(spec(0, 512, 512, 20.0));
    }
    assert!(e.run_to_completion().is_finished());
    let out = e.into_outcome();
    assert_eq!(out.report.completed, 8);
    assert_eq!(
        out.report.preemptions, 0,
        "conservative FCFS never preempts"
    );
    assert!(
        out.report.ttft.max > 5.0 * out.report.ttft.p50,
        "second admission wave must wait: {:?}",
        out.report.ttft
    );
}

#[test]
fn tokenflow_survives_memory_pressure_via_offload() {
    let mut cfg = config();
    cfg.mem_frac = 0.126;
    // A host link 20x slower makes reloading a victim's KV cost more than
    // re-prefilling it, so the same burst also resumes through §4.2.3's
    // recompute path.
    for link_slowdown in [1.0, 20.0] {
        let mut e = Engine::new(cfg.clone(), TokenFlowScheduler::new());
        e.set_link_slowdown(link_slowdown);
        for _ in 0..8 {
            e.submit(spec(0, 512, 512, 20.0));
        }
        assert!(e.run_to_completion().is_finished());
        let out = e.into_outcome();
        assert_eq!(out.report.completed, 8);
        if link_slowdown > 1.0 {
            assert!(out.report.recomputes > 0, "no victim was recomputed");
        }
    }
}

#[test]
#[should_panic(expected = "output length must be positive")]
fn zero_output_rejected() {
    let mut e = Engine::new(config(), FcfsScheduler::new());
    e.submit(spec(0, 10, 0, 10.0));
}

#[test]
#[should_panic(expected = "does not fit")]
fn oversized_model_rejected() {
    let cfg = EngineConfig::new(ModelProfile::qwen2_5_32b(), HardwareProfile::rtx4090());
    let _ = Engine::new(cfg, FcfsScheduler::new());
}

#[test]
fn run_report_duration_spans_run() {
    let mut e = Engine::new(config(), FcfsScheduler::new());
    e.submit(spec(0, 64, 100, 20.0));
    e.run_to_completion();
    let out = e.into_outcome();
    assert!(out.sim_time > SimDuration::ZERO);
    assert_eq!(out.sim_time, out.report.duration);
    assert!(out.complete);
}

#[test]
fn load_snapshot_tracks_lifecycle() {
    let mut e = Engine::new(config().with_max_batch(4), FcfsScheduler::new());
    let fresh = e.load_snapshot();
    assert_eq!((fresh.submitted, fresh.live, fresh.running), (0, 0, 0));
    for _ in 0..6 {
        e.submit(spec(0, 128, 40, 20.0));
    }
    let queued = e.load_snapshot();
    assert_eq!(queued.submitted, 6);
    assert_eq!(queued.live, 6);
    assert!(queued.rate_sum > 119.0 && queued.rate_sum < 121.0);
    assert!(e.run_to_completion().is_finished());
    let drained = e.load_snapshot();
    assert_eq!(drained.live, 0);
    assert_eq!(drained.running, 0);
    assert_eq!(drained.waiting, 0);
    assert_eq!(drained.rate_sum, 0.0);
    assert_eq!(drained.pending_prefill_tokens, 0);
}

#[test]
fn load_snapshot_tracks_prefill_backlog() {
    let mut e = Engine::new(config().with_max_batch(4), FcfsScheduler::new());
    // Submitted but not yet arrived: no admission pressure.
    for _ in 0..4 {
        e.submit(spec(500, 6_000, 20, 20.0));
    }
    assert_eq!(e.load_snapshot().pending_prefill_tokens, 0);
    // Step past the arrivals: the four 6k prompts exceed one prefill
    // iteration's budget, so the backlog is visible between steps and
    // drains only as prefill tokens are actually processed.
    let mut peak = 0;
    loop {
        let out = e.step();
        peak = peak.max(e.load_snapshot().pending_prefill_tokens);
        if out.done {
            break;
        }
    }
    assert!(peak >= 6_000, "peak backlog {peak}");
    assert!(peak <= 4 * 6_000, "peak backlog {peak}");
    assert_eq!(e.load_snapshot().pending_prefill_tokens, 0);
}

#[test]
fn step_until_advances_to_deadline_and_completion() {
    let mut e = Engine::new(config(), FcfsScheduler::new());
    e.submit(spec(0, 128, 100, 10.0));
    // A deadline mid-run leaves the request unfinished at (or just past)
    // the boundary...
    assert!(!e.step_until(SimTime::from_millis(200)));
    assert!(e.now() >= SimTime::from_millis(200));
    // ...re-entry makes no progress when already at the deadline...
    let frozen = e.now();
    assert!(!e.step_until(SimTime::from_millis(100)));
    assert_eq!(e.now(), frozen);
    // ...and a far deadline finishes the request with the clock frozen at
    // completion, not the deadline.
    assert!(e.step_until(SimTime::from_secs(3_600)));
    assert!(e.now() < SimTime::from_secs(3_600));
    let out = e.into_outcome();
    assert_eq!(out.report.completed, 1);
}

#[test]
fn step_until_equals_manual_stepping() {
    let drive = |until: Vec<u64>| {
        let mut e = Engine::new(config().with_max_batch(8), TokenFlowScheduler::new());
        for i in 0..10 {
            e.submit(spec(i * 40, 128, 64, 25.0));
        }
        for ms in until {
            e.step_until(SimTime::from_millis(ms));
        }
        e.step_until(SimTime::from_secs(3_600));
        e.into_outcome()
    };
    // Epoch slicing at arbitrary boundaries must not change a single
    // record: step_until is a pure re-chunking of the same step stream.
    let whole = drive(vec![]);
    let sliced = drive(vec![50, 120, 121, 300, 2_000]);
    assert_eq!(whole.report, sliced.report);
    assert_eq!(whole.records, sliced.records);
    assert_eq!(whole.iterations, sliced.iterations);
}

/// A request arriving *inside* an iteration is queued at every sample
/// instant between its arrival and its admission, even though arrival
/// ingestion only runs at iteration starts. (Regression: the O(live)
/// telemetry rewrite must match the old full-table scan, which counted
/// due-but-uningested submissions as queued.)
#[test]
fn queued_series_counts_mid_iteration_arrivals() {
    let mut cfg = config();
    cfg.sample_interval = SimDuration::from_micros(100);
    let mut e = Engine::new(cfg, FcfsScheduler::new());
    // A long-running resident keeps iterations going...
    e.submit(spec(0, 512, 2_000, 20.0));
    // ...and a second request lands at an odd instant, mid-iteration.
    e.submit(spec(13, 128, 10, 20.0));
    for _ in 0..200 {
        if e.step().done {
            break;
        }
    }
    let out = e.into_outcome();
    // The short request ran to completion inside the window (the long
    // one keeps iterating past it; full completion is not needed here).
    assert!(out.records[1].completed());
    let queued_max = out
        .queued_series
        .samples()
        .iter()
        .map(|&(_, v)| v)
        .fold(0.0f64, f64::max);
    assert!(
        queued_max >= 1.0,
        "the mid-iteration arrival was never counted as queued"
    );
    // And it is only counted from its arrival onward.
    assert!(out
        .queued_series
        .samples()
        .iter()
        .all(|&(t, v)| v == 0.0 || t >= SimTime::from_millis(13)));
}

/// Arrival ingest follows arrival time, then submission order, however
/// the submissions interleave with stepping: a request submitted with an
/// arrival already past (a fault retry keeps its original arrival) is
/// ingested before later pending arrivals, and a tie with a pending
/// arrival ingests after it. The last request keeps a later arrival
/// pending, so the tie is placed by the sorted insert, not a push.
#[test]
fn late_and_tied_submissions_ingest_in_arrival_then_submission_order() {
    let mut cfg = config();
    cfg.trace = true;
    let mut e = Engine::new(cfg, FcfsScheduler::new());
    let a = e.submit(spec(10, 64, 5, 20.0));
    let b = e.submit(spec(20, 64, 5, 20.0));
    let last = e.submit(spec(30, 64, 5, 20.0));
    assert!(!e.step_until(SimTime::from_millis(12)));
    let c = e.submit(spec(5, 64, 5, 20.0));
    let d = e.submit(spec(20, 64, 5, 20.0));
    let late = e.submit(spec(15, 64, 5, 20.0));
    assert_eq!(e.load_snapshot().arrived, 1);
    assert!(e.run_to_completion().is_finished());
    assert_eq!(e.load_snapshot().arrived, 6);
    let ingested: Vec<RequestId> = e
        .take_trace_events()
        .into_iter()
        .filter_map(|event| match event.kind {
            TraceEventKind::Arrived { id, .. } => Some(id),
            _ => None,
        })
        .collect();
    assert_eq!(ingested, vec![a, c, late, b, d, last]);
}
