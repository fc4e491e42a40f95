//! Property tests: the KV manager's block accounting survives arbitrary
//! operation sequences without leaking or double-freeing, the
//! write-through queue flushes in exactly the order its rules define, and
//! a compute window that settles the queue in one pass leaves the manager
//! exactly as the ordered pump and advance do.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::{seed_from_name, TestRng};
use tokenflow_kv::write_queue::WriteChunk;
use tokenflow_kv::{Direction, KvConfig, KvManager, Residency, WindowSync, WriteQueue};
use tokenflow_sim::{RequestId, SimDuration, SimTime};

#[derive(Debug, Clone)]
enum Op {
    Prefill { req: u8, tokens: u16 },
    Append { req: u8 },
    Evict { req: u8 },
    Load { req: u8 },
    Drop { req: u8 },
    Pump,
    Advance { ms: u16 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, 1u16..512).prop_map(|(req, tokens)| Op::Prefill { req, tokens }),
        (0u8..6).prop_map(|req| Op::Append { req }),
        (0u8..6).prop_map(|req| Op::Evict { req }),
        (0u8..6).prop_map(|req| Op::Load { req }),
        (0u8..6).prop_map(|req| Op::Drop { req }),
        Just(Op::Pump),
        (1u16..100).prop_map(|ms| Op::Advance { ms }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    // Block accounting balances after every operation, and the manager
    // keeps per-request entries only for requests that hold KV or have
    // stale chunks on the link: at most one state per holder, plus at
    // most one stale entry per id dropped since the link last went idle
    // (only a drop leaves stale chunks, and an idle link has none).
    #[test]
    fn block_accounting_is_conserved(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut cfg = KvConfig::test_config();
        cfg.gpu_blocks = 256; // 4096 tokens
        cfg.cpu_blocks = 2_048;
        let mut kv = KvManager::new(cfg);
        let mut now = SimTime::ZERO;
        let mut dropped = BTreeSet::new();
        for op in ops {
            if let Op::Drop { req } = op {
                dropped.insert(req);
            }
            match op {
                Op::Prefill { req, tokens } => {
                    let _ = kv.on_prefill(RequestId(req as u64), tokens as u64, now);
                }
                Op::Append { req } => {
                    let _ = kv.append_token(RequestId(req as u64), 1.0);
                }
                Op::Evict { req } => {
                    let _ = kv.begin_evict(RequestId(req as u64), now);
                }
                Op::Load { req } => {
                    let _ = kv.begin_load(RequestId(req as u64), now);
                }
                Op::Drop { req } => {
                    kv.drop_kv(RequestId(req as u64));
                }
                Op::Pump => {
                    kv.pump_writes(now, SimDuration::from_millis(5));
                }
                Op::Advance { ms } => {
                    now += SimDuration::from_millis(ms as u64);
                    kv.advance_to(now);
                }
            }
            prop_assert!(kv.check_conservation(), "pool usage must equal per-request holds");
            if kv.pcie().is_idle() {
                dropped.clear();
            }
            let holding = (0..6u64)
                .filter(|&req| kv.residency(RequestId(req)) != Residency::None)
                .count();
            prop_assert!(
                kv.tracked_requests() <= holding + dropped.len(),
                "{} entries for {} holders and {} recent drops",
                kv.tracked_requests(),
                holding,
                dropped.len()
            );
        }
        // Draining all transfers and dropping everything frees both pools
        // and every per-request entry.
        now += SimDuration::from_secs(100);
        kv.advance_to(now);
        for req in 0..6u64 {
            kv.drop_kv(RequestId(req));
        }
        now += SimDuration::from_secs(100);
        kv.advance_to(now);
        prop_assert_eq!(kv.gpu_pool().used_blocks(), 0);
        prop_assert_eq!(kv.cpu_pool().used_blocks(), 0);
        prop_assert_eq!(kv.tracked_requests(), 0);
    }

    #[test]
    fn evict_load_roundtrip_preserves_context(tokens in 1u64..2_000) {
        let mut cfg = KvConfig::test_config();
        cfg.gpu_blocks = 256;
        cfg.cpu_blocks = 4_096;
        let mut kv = KvManager::new(cfg);
        let r = RequestId(0);
        kv.on_prefill(r, tokens, SimTime::ZERO).unwrap();
        kv.begin_evict(r, SimTime::ZERO).unwrap();
        let mut now = SimTime::ZERO;
        while kv.residency(r) != Residency::Cpu {
            now += SimDuration::from_millis(1);
            kv.advance_to(now);
            prop_assert!(now < SimTime::from_secs(60), "eviction must finish");
        }
        kv.begin_load(r, now).unwrap();
        while kv.residency(r) != Residency::Gpu {
            now += SimDuration::from_millis(1);
            kv.advance_to(now);
            prop_assert!(now < SimTime::from_secs(120), "load must finish");
        }
        prop_assert_eq!(kv.context_tokens(r), tokens);
        prop_assert_eq!(kv.dirty_tokens(r), 0, "roundtrip leaves everything synced");
    }
}

/// Flush priorities the queue ops draw from: a small set, so ties are
/// common, with both signed zeros (which must tie with each other).
const PRIORITIES: [f64; 5] = [0.0, -0.0, 1.0, 2.5, 9.0];

/// Request ids the queue ops draw from.
const QUEUE_REQS: u64 = 6;

/// The write slot the queue ops hold request `req` in: the ids reversed,
/// so an order that followed slots instead of arrival would show.
fn queue_slot(req: u64) -> u32 {
    (QUEUE_REQS - 1 - req) as u32
}

#[derive(Debug, Clone)]
enum QueueOp {
    Push {
        req: u64,
        tokens: u64,
        priority: usize,
    },
    SetPriority {
        req: u64,
        priority: usize,
    },
    /// One entry per request id: an index into `PRIORITIES`, or
    /// `PRIORITIES.len()` to leave that request's priority unchanged.
    Retune {
        priorities: Vec<usize>,
    },
    Cancel {
        req: u64,
    },
    Pull {
        budget: u64,
        max_chunk: u64,
    },
}

fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
    let n = PRIORITIES.len();
    // Pushes are listed twice so they are drawn twice as often as any
    // other op: the queue needs entries for the orderings to matter.
    prop_oneof![
        (0..QUEUE_REQS, 0u64..200, 0..n).prop_map(|(req, tokens, priority)| QueueOp::Push {
            req,
            tokens,
            priority
        }),
        (0..QUEUE_REQS, 0u64..200, 0..n).prop_map(|(req, tokens, priority)| QueueOp::Push {
            req,
            tokens,
            priority
        }),
        (0..QUEUE_REQS, 0..n).prop_map(|(req, priority)| QueueOp::SetPriority { req, priority }),
        prop::collection::vec(0..n + 1, QUEUE_REQS as usize..QUEUE_REQS as usize + 1)
            .prop_map(|priorities| QueueOp::Retune { priorities }),
        (0..QUEUE_REQS).prop_map(|req| QueueOp::Cancel { req }),
        (0u64..400, 1u64..80).prop_map(|(budget, max_chunk)| QueueOp::Pull { budget, max_chunk }),
    ]
}

/// One pending entry of the reference queue.
#[derive(Debug, Clone)]
struct ModelItem {
    req: RequestId,
    tokens: u64,
    priority: f64,
    seq: u64,
}

/// The write queue's flush rules restated as the simplest implementation:
/// entries in arrival order, and each pulled chunk taken from the front
/// (FIFO mode) or from the winner of a linear max-scan (priority mode:
/// highest priority, ties to the lowest arrival sequence number).
#[derive(Debug)]
struct ModelQueue {
    items: Vec<ModelItem>,
    priority_mode: bool,
    next_seq: u64,
}

impl ModelQueue {
    fn new(priority_mode: bool) -> Self {
        ModelQueue {
            items: Vec::new(),
            priority_mode,
            next_seq: 0,
        }
    }

    fn push(&mut self, req: RequestId, tokens: u64, priority: f64) {
        if tokens == 0 {
            return;
        }
        if let Some(item) = self.items.iter_mut().find(|i| i.req == req) {
            item.tokens += tokens;
            item.priority = priority;
            return;
        }
        self.items.push(ModelItem {
            req,
            tokens,
            priority,
            seq: self.next_seq,
        });
        self.next_seq += 1;
    }

    fn set_priority(&mut self, req: RequestId, priority: f64) {
        if let Some(item) = self.items.iter_mut().find(|i| i.req == req) {
            item.priority = priority;
        }
    }

    fn cancel(&mut self, req: RequestId) -> u64 {
        let removed = self.pending_for(req);
        self.items.retain(|i| i.req != req);
        removed
    }

    fn next_index(&self) -> usize {
        if !self.priority_mode {
            return 0;
        }
        let mut best = 0;
        for (i, item) in self.items.iter().enumerate() {
            let b = &self.items[best];
            if item.priority > b.priority || (item.priority == b.priority && item.seq < b.seq) {
                best = i;
            }
        }
        best
    }

    fn pull(&mut self, budget: u64, max_chunk: u64) -> Vec<WriteChunk> {
        let mut out = Vec::new();
        let mut remaining = budget;
        while remaining > 0 && !self.items.is_empty() {
            let idx = self.next_index();
            let item = &mut self.items[idx];
            let take = item.tokens.min(max_chunk).min(remaining);
            item.tokens -= take;
            remaining -= take;
            out.push(WriteChunk {
                req: item.req,
                tokens: take,
            });
            if item.tokens == 0 {
                self.items.remove(idx);
            }
        }
        out
    }

    fn pending_for(&self, req: RequestId) -> u64 {
        self.items
            .iter()
            .filter(|i| i.req == req)
            .map(|i| i.tokens)
            .sum()
    }

    fn pending_tokens(&self) -> u64 {
        self.items.iter().map(|i| i.tokens).sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn write_queue_matches_the_reference_flush_order(
        ops in prop::collection::vec(arb_queue_op(), 1..80),
    ) {
        for priority_mode in [true, false] {
            let mut queue = WriteQueue::new(priority_mode);
            let mut model = ModelQueue::new(priority_mode);
            let mut chunks = Vec::new();
            for (step, op) in ops.iter().enumerate() {
                match op {
                    QueueOp::Push { req, tokens, priority } => {
                        let p = PRIORITIES[*priority];
                        queue.push(RequestId(*req), queue_slot(*req), *tokens, p);
                        model.push(RequestId(*req), *tokens, p);
                    }
                    QueueOp::SetPriority { req, priority } => {
                        let p = PRIORITIES[*priority];
                        queue.set_priority(queue_slot(*req), p);
                        model.set_priority(RequestId(*req), p);
                    }
                    QueueOp::Retune { priorities } => {
                        let price = |req: RequestId| PRIORITIES.get(priorities[req.0 as usize]).copied();
                        queue.retune(price);
                        for item in &mut model.items {
                            if let Some(p) = price(item.req) {
                                item.priority = p;
                            }
                        }
                    }
                    QueueOp::Cancel { req } => {
                        prop_assert_eq!(
                            queue.cancel(queue_slot(*req)),
                            model.cancel(RequestId(*req)),
                            "cancel at step {} ({:?}), priority mode {}", step, op, priority_mode
                        );
                    }
                    QueueOp::Pull { budget, max_chunk } => {
                        queue.pull_into(*budget, *max_chunk, &mut chunks);
                        prop_assert_eq!(
                            &chunks,
                            &model.pull(*budget, *max_chunk),
                            "pull at step {} ({:?}), priority mode {}", step, op, priority_mode
                        );
                    }
                }
                for req in 0..QUEUE_REQS {
                    prop_assert_eq!(
                        queue.pending_for(queue_slot(req)),
                        model.pending_for(RequestId(req)),
                        "pending_for(req#{}) after step {} ({:?}), priority mode {}",
                        req, step, op, priority_mode
                    );
                }
                prop_assert_eq!(queue.pending_tokens(), model.pending_tokens());
                prop_assert_eq!(queue.is_empty(), model.items.is_empty());
            }
        }
    }
}

/// The requests the window ops draw from.
const WINDOW_REQS: u64 = 6;

#[derive(Debug, Clone)]
enum WindowOp {
    Prefill {
        req: u64,
        tokens: u64,
    },
    Append {
        req: u64,
        tokens: u64,
        priority: usize,
    },
    Evict {
        req: u64,
    },
    Load {
        req: u64,
    },
    Drop {
        req: u64,
    },
    LinkSlowdown {
        factor: f64,
    },
    Advance {
        us: u64,
    },
    /// One compute window; `prices` holds one `PRIORITIES` index per
    /// request id, `PRIORITIES.len()` meaning "keep its priority".
    Window {
        us: u64,
        prices: Vec<usize>,
    },
}

/// A duration from `lo` to `hi` microseconds, log-uniform, so short and
/// long windows are drawn alike.
fn log_micros(lo: f64, hi: f64) -> impl Strategy<Value = u64> {
    (0.0f64..1.0).prop_map(move |u| (lo * (hi / lo).powf(u)) as u64)
}

fn arb_window_op() -> impl Strategy<Value = WindowOp> {
    let n = PRIORITIES.len();
    // Appends and windows are listed twice: the queue needs entries of
    // several requests for flush order to matter, and windows are what
    // the property is about.
    prop_oneof![
        (0..WINDOW_REQS, 1u64..512).prop_map(|(req, tokens)| WindowOp::Prefill { req, tokens }),
        (0..WINDOW_REQS, 1u64..40, 0..n).prop_map(|(req, tokens, priority)| WindowOp::Append {
            req,
            tokens,
            priority
        }),
        (0..WINDOW_REQS, 1u64..4, 0..n).prop_map(|(req, tokens, priority)| WindowOp::Append {
            req,
            tokens,
            priority
        }),
        (0..WINDOW_REQS).prop_map(|req| WindowOp::Evict { req }),
        (0..WINDOW_REQS).prop_map(|req| WindowOp::Load { req }),
        (0..WINDOW_REQS).prop_map(|req| WindowOp::Drop { req }),
        prop_oneof![Just(1.0), 1.0f64..50.0].prop_map(|factor| WindowOp::LinkSlowdown { factor }),
        log_micros(1.0, 20_000.0).prop_map(|us| WindowOp::Advance { us }),
        (
            log_micros(10.0, 50_000.0),
            prop::collection::vec(0..n + 1, WINDOW_REQS as usize..WINDOW_REQS as usize + 1)
        )
            .prop_map(|(us, prices)| WindowOp::Window { us, prices }),
        (
            log_micros(10.0, 50_000.0),
            prop::collection::vec(0..n + 1, WINDOW_REQS as usize..WINDOW_REQS as usize + 1)
        )
            .prop_map(|(us, prices)| WindowOp::Window { us, prices }),
    ]
}

/// A small hierarchy: a host pool of 4–160 blocks (often too small for
/// every queued token), both load-evict overlap settings (off is the
/// half-duplex link), both write orders, one-token to 64-token chunks,
/// and a zero or 15 µs setup latency with 4 KiB or 128 KiB tokens — the
/// zero-latency 4 KiB chunks round to zero-length transfers, so a run
/// can fit a window whose byte budget it overdraws.
fn arb_window_config() -> impl Strategy<Value = KvConfig> {
    (
        4u64..160,
        0u8..2,
        0u8..2,
        prop_oneof![Just(1u64), Just(16), Just(64)],
        prop_oneof![Just(0u64), Just(15)],
        prop_oneof![Just(4_096u64), Just(1 << 17)],
    )
        .prop_map(
            |(cpu_blocks, overlap, priority, chunk_tokens, latency_us, bytes)| KvConfig {
                gpu_blocks: 256,
                cpu_blocks,
                load_evict_overlap: overlap == 1,
                priority_writes: priority == 1,
                chunk_tokens,
                pcie_latency_us: latency_us,
                kv_bytes_per_token: bytes,
                ..KvConfig::test_config()
            },
        )
}

/// Everything a caller can read off a manager at `now`.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per request: residency, context, dirty tokens, evict and load
    /// estimates.
    requests: Vec<(Residency, u64, u64, SimDuration, SimDuration)>,
    gpu_used: u64,
    cpu_used: u64,
    /// Per direction: queue length, queued bytes, ETA, completed bytes.
    links: Vec<(usize, u64, SimDuration, u64)>,
    next_completion: Option<SimTime>,
    backlog: u64,
    conserved: bool,
}

fn observe(kv: &KvManager, now: SimTime) -> Observed {
    Observed {
        requests: (0..WINDOW_REQS)
            .map(RequestId)
            .map(|r| {
                (
                    kv.residency(r),
                    kv.context_tokens(r),
                    kv.dirty_tokens(r),
                    kv.estimated_evict_time(r, now),
                    kv.estimated_load_time(r, now),
                )
            })
            .collect(),
        gpu_used: kv.gpu_pool().used_blocks(),
        cpu_used: kv.cpu_pool().used_blocks(),
        links: [Direction::H2D, Direction::D2H]
            .into_iter()
            .map(|dir| {
                (
                    kv.io_queue_len(dir),
                    kv.pcie().queue_bytes(dir),
                    kv.io_eta(dir, now),
                    kv.pcie().completed_bytes(dir),
                )
            })
            .collect(),
        next_completion: kv.next_io_completion(),
        backlog: kv.write_backlog_tokens(),
        conserved: kv.check_conservation(),
    }
}

/// Feeds one op sequence to two managers: `fused` runs each window as
/// one [`KvManager::run_window`] call, `ordered` as re-pricing, the
/// ordered pump and the advance. Requires equal results, events and
/// observables after every op, and counts `fused`'s window paths into
/// `paths` (idle, settled, ordered).
fn window_case(config: KvConfig, ops: &[WindowOp], paths: &mut [u64; 3]) -> Result<(), String> {
    let mut fused = KvManager::new(config.clone());
    let mut ordered = KvManager::new(config);
    let (mut fused_events, mut ordered_events) = (Vec::new(), Vec::new());
    let mut now = SimTime::ZERO;
    for (step, op) in ops.iter().enumerate() {
        fused_events.clear();
        ordered_events.clear();
        match op {
            WindowOp::Prefill { req, tokens } => {
                let r = RequestId(*req);
                prop_assert_eq!(
                    fused.on_prefill(r, *tokens, now),
                    ordered.on_prefill(r, *tokens, now)
                );
            }
            WindowOp::Append {
                req,
                tokens,
                priority,
            } => {
                for _ in 0..*tokens {
                    let r = RequestId(*req);
                    let p = PRIORITIES[*priority];
                    prop_assert_eq!(fused.append_token(r, p), ordered.append_token(r, p));
                }
            }
            WindowOp::Evict { req } => {
                let r = RequestId(*req);
                prop_assert_eq!(fused.begin_evict(r, now), ordered.begin_evict(r, now));
            }
            WindowOp::Load { req } => {
                let r = RequestId(*req);
                prop_assert_eq!(fused.begin_load(r, now), ordered.begin_load(r, now));
            }
            WindowOp::Drop { req } => {
                fused.drop_kv(RequestId(*req));
                ordered.drop_kv(RequestId(*req));
            }
            WindowOp::LinkSlowdown { factor } => {
                fused.set_link_slowdown(*factor);
                ordered.set_link_slowdown(*factor);
            }
            WindowOp::Advance { us } => {
                now += SimDuration::from_micros(*us);
                fused.advance_into(now, &mut fused_events);
                ordered.advance_into(now, &mut ordered_events);
            }
            WindowOp::Window { us, prices } => {
                let window = SimDuration::from_micros(*us);
                let price = |req: RequestId| PRIORITIES.get(prices[req.0 as usize]).copied();
                let path = fused.run_window(now, window, price, &mut fused_events);
                ordered.retune_write_priorities(price);
                ordered.pump_writes(now, window);
                now += window;
                ordered.advance_into(now, &mut ordered_events);
                paths[match path {
                    WindowSync::Idle => 0,
                    WindowSync::Settled => 1,
                    WindowSync::Ordered => 2,
                }] += 1;
            }
        }
        prop_assert_eq!(
            &fused_events,
            &ordered_events,
            "events after step {} ({:?})",
            step,
            op
        );
        prop_assert_eq!(
            observe(&fused, now),
            observe(&ordered, now),
            "state after step {} ({:?})",
            step,
            op
        );
        prop_assert!(fused.check_conservation(), "after step {} ({:?})", step, op);
    }
    Ok(())
}

/// The fused window call is exact: whether it settles the write queue in
/// one pass or falls back to the ordered pump, every caller-visible
/// figure matches re-pricing, pumping and advancing separately. Both
/// paths must occur across the cases, or the property proves nothing
/// about one of them.
#[test]
fn window_settle_matches_the_ordered_pump() {
    let cases = (
        arb_window_config(),
        prop::collection::vec(arb_window_op(), 1..160),
    );
    let mut rng = TestRng::new(seed_from_name("window_settle_matches_the_ordered_pump"));
    let mut paths = [0u64; 3];
    for case in 0..256 {
        let (config, ops) = cases.generate(&mut rng);
        if let Err(msg) = window_case(config, &ops, &mut paths) {
            panic!("case {case} failed: {msg}");
        }
    }
    let [_, settled, ordered] = paths;
    assert!(
        settled > 0 && ordered > 0,
        "windows by path [idle, settled, ordered]: {paths:?}"
    );
}
