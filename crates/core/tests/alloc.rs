//! Scratch-reuse proof: the steady-state engine step allocates nothing.
//!
//! The hot-path contract is that one [`Engine::step_into`] on the
//! steady decode path — live requests decoding, no arrivals, no phase
//! transitions — performs **zero heap allocations**: the scheduler
//! contexts, the iteration batch, the scheduler's own pass scratch, and
//! the caller's outcome buffer are all retained and refilled in place.
//! This test pins that with a counting global allocator.
//!
//! Scope notes: the window is measured twice, first with write-through
//! off (the engine loop alone) and then with the paper-default KV
//! features, where every step also syncs its compute window's
//! write-through. Each measured window covers the whole queue, so it
//! settles in one pass; the ordered path (re-pricing and pulling the
//! queue, enqueuing chunks on the host link, applying their completions)
//! runs in the warm-up, at the prefill step, and in the memory-pressure
//! tests. Both go through retained buffers, so the background sync is
//! pinned allocation-free too. The file holds exactly one `#[test]` so
//! no concurrent test pollutes the counter.
//!
//! The disabled [`TraceSink`] is threaded through every stage of the
//! measured window (admission, planning, batch, KV, gates), so the
//! zero-allocation assertion is also the tracing-off zero-cost proof:
//! with `EngineConfig::trace` unset (the default used here), the
//! decision-journal plumbing adds no allocations — and, asserted below,
//! records nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tokenflow_core::{Engine, EngineConfig, StepOutcome};
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_sched::FcfsScheduler;
use tokenflow_sim::{RequestId, SimTime};
use tokenflow_workload::RequestSpec;

/// Counts every allocation and reallocation; frees are uncounted (a
/// free cannot grow a retained buffer).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to the `System` allocator verbatim; the
// only added behavior is a relaxed counter bump, which cannot violate
// `GlobalAlloc`'s layout/aliasing contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: delegates to `System.realloc` with the caller's arguments.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: delegates to `System.dealloc` with the caller's arguments.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_step_allocates_nothing() {
    // Write-through off first, then on (offload and load-evict overlap
    // stay on throughout, but nothing preempts here).
    for write_through in [false, true] {
        measure_steady_state(write_through);
    }
}

fn measure_steady_state(write_through: bool) {
    let label = if write_through {
        "write-through on"
    } else {
        "write-through off"
    };
    let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200())
        .with_kv_features(true, write_through, true);
    assert_eq!(config.write_through, write_through, "{label}");
    let mut engine = Engine::new(config, FcfsScheduler::new());
    // Eight requests, all at t = 0, with outputs far longer than the
    // measured window: the steady state is a fixed decode batch with no
    // admissions, finishes, or transitions.
    for _ in 0..8 {
        engine.submit(RequestSpec {
            id: RequestId(0),
            arrival: SimTime::ZERO,
            prompt_tokens: 256,
            output_tokens: 50_000,
            rate: 12.0,
        });
    }

    // Warm-up: admit + prefill everyone, let every retained buffer (the
    // double-buffered contexts, batch vectors, profiler windows,
    // telemetry reserve, write-through queue and transfer scratch) reach
    // its high-water mark.
    let mut out = StepOutcome::default();
    for _ in 0..2_000 {
        engine.step_into(&mut out);
        assert!(
            !out.done,
            "{label}: window must end before any request finishes"
        );
    }

    // Measured window: five hundred steady decode steps, zero allocations.
    let before = ALLOCS.load(Ordering::Relaxed);
    let fast_before = engine.fast_path_stats().fast_steps;
    for _ in 0..500 {
        engine.step_into(&mut out);
        assert!(
            !out.idle && !out.done,
            "{label}: window must stay on the decode path"
        );
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "{label}: steady-state steps must not allocate (got {allocs} allocations over 500 steps)"
    );
    // The zero-alloc claim must cover the plan-horizon fast path, not
    // just full passes: the quiescent window ought to run almost
    // entirely on fast steps (which skip context rebuild, plan, and
    // compose outright). A window that never took one would prove the
    // wrong thing.
    let fast_steps = engine.fast_path_stats().fast_steps - fast_before;
    assert!(
        fast_steps >= 450,
        "{label}: measured window should be dominated by fast-path steps (got {fast_steps}/500)"
    );
    // The window really did deliver work (one token per member per step).
    assert_eq!(out.delivered.len(), 8, "{label}");
    // Tracing-off means *off*: the sink threaded through the measured
    // window buffered nothing (the zero-alloc assertion above already
    // proves it allocated nothing).
    assert!(
        engine.take_trace_events().is_empty(),
        "{label}: untraced engine must record no events"
    );
}
