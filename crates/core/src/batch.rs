//! Pipeline stage 3 — batch composition and cost-model pricing.
//!
//! Composes each iteration's prefill + decode batch under the scheduler's
//! [`PrefillPolicy`] and decode gating, fits it into GPU memory (shedding
//! work or triggering emergency reclamation when the pre-check fails), and
//! prices the resulting iteration with the analytical cost model.

use tokenflow_kv::KvManager;
use tokenflow_model::{CostModel, IterationSpec};
use tokenflow_sched::{PrefillPolicy, ReqView, SchedContext, Scheduler};
use tokenflow_sim::{RequestId, SimDuration, SimTime};
use tokenflow_trace::{TraceEventKind, TraceSink};

use crate::admission;
use crate::config::EngineConfig;
use crate::profiler::EngineProfilers;
use crate::state::{EngineState, Phase};

/// One request's share of an iteration's prefill work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PrefillSlice {
    /// The prefilling request.
    pub id: RequestId,
    /// Prompt tokens processed this iteration.
    pub tokens: u64,
    /// Whether this slice finishes the request's prefill.
    pub completes: bool,
}

/// The compute batch of one engine iteration.
#[derive(Debug, Clone, Default)]
pub(crate) struct IterationBatch {
    /// Decode members generating one token each.
    pub decode: Vec<RequestId>,
    /// Prefill slices, in queue order.
    pub prefill: Vec<PrefillSlice>,
}

impl IterationBatch {
    /// True when the iteration has no compute work at all.
    pub(crate) fn is_idle(&self) -> bool {
        self.decode.is_empty() && self.prefill.is_empty()
    }

    /// Total prefill tokens this iteration.
    pub(crate) fn prefill_tokens(&self) -> u64 {
        self.prefill.iter().map(|p| p.tokens).sum()
    }
}

/// Clears `batch` and fills its decode half with the running members
/// whose decode gate is open, journaling each verdict (pacing policies
/// gate over-buffered requests out; their KV stays put). `view_of(i, id)`
/// finds the view of `st.running[i]`; a member without one is never gated.
pub(crate) fn gate_decode<'c>(
    batch: &mut IterationBatch,
    st: &EngineState,
    scheduler: &dyn Scheduler,
    ctx: &'c SchedContext,
    trace: &mut TraceSink,
    view_of: impl Fn(usize, RequestId) -> Option<&'c ReqView>,
) {
    batch.decode.clear();
    batch.prefill.clear();
    batch.decode.extend(
        st.running
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, id)| st.state(id).phase == Phase::Running)
            .filter(|&(i, id)| {
                let open = view_of(i, id).is_none_or(|v| scheduler.decode_gate(v, ctx));
                trace.gate(ctx.now, id, !open);
                open
            })
            .map(|(_, id)| id),
    );
}

/// Composes the iteration batch into a retained buffer (so the steady
/// state allocates nothing): gated decode members, then prefill slices.
pub(crate) fn compose_into(
    batch: &mut IterationBatch,
    st: &EngineState,
    scheduler: &dyn Scheduler,
    ctx: &SchedContext,
    config: &EngineConfig,
    trace: &mut TraceSink,
) {
    gate_decode(batch, st, scheduler, ctx, trace, |_, id| ctx.view_of(id));
    let (decode, prefill) = (&mut batch.decode, &mut batch.prefill);
    match scheduler.prefill_policy() {
        PrefillPolicy::Full => {
            if !st.prefill_queue.is_empty() {
                // Dedicated prefill iteration: prefill has priority.
                decode.clear();
                let mut budget = config.max_prefill_tokens;
                for qi in 0..st.prefill_queue.len() {
                    let id = st.prefill_queue[qi];
                    let s = st.state(id);
                    let remaining = s.prefill_target - s.prefill_done;
                    if !prefill.is_empty() && remaining > budget {
                        break;
                    }
                    // The head of the queue always gets at least one token
                    // even when it alone exceeds the iteration budget (an
                    // oversized prompt must still make progress); followers
                    // fit fully or broke out above.
                    let take = if prefill.is_empty() {
                        remaining.min(config.max_prefill_tokens.max(1)).max(1)
                    } else {
                        remaining
                    };
                    prefill.push(PrefillSlice {
                        id,
                        tokens: take,
                        completes: take == remaining,
                    });
                    budget = budget.saturating_sub(take);
                    if budget == 0 {
                        break;
                    }
                }
            }
        }
        PrefillPolicy::Chunked(chunk) => {
            let mut budget = chunk;
            for qi in 0..st.prefill_queue.len() {
                if budget == 0 {
                    break;
                }
                let id = st.prefill_queue[qi];
                let s = st.state(id);
                let remaining = s.prefill_target - s.prefill_done;
                let take = remaining.min(budget);
                prefill.push(PrefillSlice {
                    id,
                    tokens: take,
                    completes: take == remaining,
                });
                budget -= take;
            }
        }
    }
}

/// Blocks newly required by appending one token to each decode member.
fn decode_blocks_needed(kv: &KvManager, decode: &[RequestId], bt: u64) -> u64 {
    decode
        .iter()
        .filter(|&&id| kv.context_tokens(id).is_multiple_of(bt))
        .count() as u64
}

/// Blocks `batch` newly requires: its decode appends plus the whole
/// allocation of every completing prefill.
fn blocks_needed(batch: &IterationBatch, st: &EngineState, kv: &KvManager, bt: u64) -> u64 {
    let completing: u64 = batch
        .prefill
        .iter()
        .filter(|p| p.completes)
        .map(|p| st.state(p.id).prefill_target.div_ceil(bt))
        .sum();
    decode_blocks_needed(kv, &batch.decode, bt) + completing
}

/// The clean-fit test: `batch` fits free GPU memory as composed, with no
/// reclaim, deferral or shedding. The fast path's pre-check applies it too.
pub(crate) fn fits_clean(
    batch: &IterationBatch,
    st: &EngineState,
    kv: &KvManager,
    config: &EngineConfig,
) -> bool {
    let bt = config.block_tokens as u64;
    kv.gpu_free_tokens() / bt >= blocks_needed(batch, st, kv, bt)
}

/// Memory pre-check: makes room for decode appends plus completing
/// prefills, first through the scheduler's emergency-reclaim path, then by
/// deferring completing prefills, then by shedding decode members until
/// the remainder fits. Returns `true` when the batch fit as composed —
/// no reclamation, deferral, or shedding was needed (the plan-horizon
/// fast path only arms over such clean iterations).
///
/// Only *block-boundary* members (context a multiple of the block size,
/// so this iteration's token needs a fresh block) are shed candidates:
/// a mid-block member's append lands in an already-allocated block, so
/// dropping it frees nothing — its tokens keep flowing. Among candidates,
/// the largest client buffer goes first (its reader is furthest from
/// stalling), ties breaking toward the latest id.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fit_memory(
    batch: &mut IterationBatch,
    st: &mut EngineState,
    kv: &mut KvManager,
    scheduler: &dyn Scheduler,
    cost: &CostModel,
    config: &EngineConfig,
    profs: &EngineProfilers,
    ctx: &mut SchedContext,
    now: SimTime,
    trace: &mut TraceSink,
) -> bool {
    if fits_clean(batch, st, kv, config) {
        return true;
    }
    let bt = config.block_tokens as u64;
    let needed = blocks_needed(batch, st, kv, bt);
    if !admission::emergency_reclaim(
        st, kv, scheduler, cost, config, profs, ctx, needed, now, trace,
    ) {
        // A failed reclaim may still have preempted members (phases left
        // Running, KV gone — their context reads 0, a block-size
        // multiple) and freed memory before running out of victims:
        // re-anchor the batch and the block need on the survivors so
        // preempted members cannot become phantom shed candidates.
        batch
            .decode
            .retain(|&id| st.state(id).phase == Phase::Running);
        let decode_needed = decode_blocks_needed(kv, &batch.decode, bt);
        let mut needed = blocks_needed(batch, st, kv, bt);
        // Defer completing prefills next (when they still do not fit).
        if needed > decode_needed && kv.gpu_free_tokens() / bt < needed {
            batch.prefill.clear();
            needed = decode_needed;
        }
        // Then shed block-boundary decode members (largest buffer first)
        // until the remainder fits; mid-block members need no new memory
        // and keep decoding. Occupancies are stable across shed rounds, so
        // snapshot them once. (Decode members have started, so the
        // context build's refresh pass already advanced their buffers to
        // `now`, and this mutating read changes no state.) Every shed
        // candidate accounts for exactly one needed block, so `needed`
        // decrements with each shed and the loop ends with either a fit
        // or zero boundary members left.
        let mut candidates: Vec<(RequestId, u64)> = batch
            .decode
            .iter()
            .filter(|&&id| kv.context_tokens(id).is_multiple_of(bt))
            .map(|&id| (id, st.state_mut(id).buffer.buffered(now)))
            .collect();
        while kv.gpu_free_tokens() / bt < needed && !candidates.is_empty() {
            let (pos, _) = candidates
                .iter()
                .enumerate()
                .max_by_key(|(_, &(id, occ))| (occ, id))
                .expect("non-empty candidate set");
            let (victim, _) = candidates.remove(pos);
            batch.decode.retain(|&id| id != victim);
            needed -= 1;
            trace.emit(now, TraceEventKind::Shed { id: victim });
        }
    }

    // Refresh decode after possible emergency preemptions.
    batch
        .decode
        .retain(|&id| st.state(id).phase == Phase::Running);
    false
}

/// Prices the iteration with the analytical cost model.
pub(crate) fn price(
    batch: &IterationBatch,
    st: &EngineState,
    cost: &CostModel,
) -> (IterationSpec, SimDuration) {
    let prefill_tokens = batch.prefill_tokens();
    let prefill_past: u64 = batch
        .prefill
        .iter()
        .map(|p| st.state(p.id).prefill_done)
        .sum();
    let decode_context: u64 = batch
        .decode
        .iter()
        .map(|&id| st.state(id).context_tokens())
        .sum();
    let spec = IterationSpec {
        prefill_tokens,
        prefill_past_tokens: prefill_past,
        prefill_seqs: batch.prefill.len() as u32,
        decode_batch: batch.decode.len() as u32,
        decode_context,
    };
    let time = cost.iteration_time(&spec);
    (spec, time)
}

#[cfg(test)]
mod tests {
    use tokenflow_client::TokenBuffer;
    use tokenflow_kv::{KvConfig, KvManager};
    use tokenflow_metrics::RequestMetrics;
    use tokenflow_model::{HardwareProfile, ModelProfile};
    use tokenflow_sched::{SchedContext, SchedContextBuilder, SchedPlan};
    use tokenflow_workload::{ClientKind, RequestSpec};

    use super::*;
    use crate::config::EngineConfig;
    use crate::state::ReqState;

    /// A scheduler whose emergency path never finds a victim, forcing
    /// `fit_memory` onto the shed path under test.
    struct NoVictim;
    impl Scheduler for NoVictim {
        fn name(&self) -> &'static str {
            "no-victim"
        }
        fn plan(&mut self, _ctx: &SchedContext) -> SchedPlan {
            SchedPlan::none()
        }
        fn emergency_victim(&self, _ctx: &SchedContext) -> Option<RequestId> {
            None
        }
    }

    /// One running request with `context` tokens of GPU-resident KV and
    /// `buffered` tokens sitting in its client buffer at t = 0.
    fn running(st: &mut EngineState, kv: &mut KvManager, context: u64, buffered: u64) -> RequestId {
        let id = RequestId(st.requests.len() as u64);
        let mut buffer = TokenBuffer::new(20.0);
        for _ in 0..buffered {
            buffer.on_token(SimTime::ZERO);
        }
        st.requests.push(ReqState {
            spec: RequestSpec {
                id,
                arrival: SimTime::ZERO,
                prompt_tokens: context,
                output_tokens: 64,
                rate: 20.0,
            },
            kind: ClientKind::Interactive,
            buffer,
            metrics: RequestMetrics::new(id, SimTime::ZERO, 20.0, 64),
            phase: Phase::Running,
            generated: 0,
            prefill_done: context,
            prefill_target: context,
            timeline: None,
        });
        st.journal_view(id);
        st.push_running(id);
        kv.on_prefill(id, context, SimTime::ZERO).expect("fits");
        id
    }

    /// A fresh context for `fit_memory`'s reclaim path; its first build
    /// applies the journal that `running` fills.
    fn scratch() -> SchedContext {
        SchedContextBuilder::new(SimTime::ZERO).build()
    }

    /// The shed path must skip mid-block members entirely: evicting them
    /// frees no memory, so even the largest-buffer member keeps decoding
    /// when its next token lands in an already-allocated block.
    #[test]
    fn shed_skips_mid_block_members() {
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200());
        let bt = config.block_tokens as u64;
        let mut kv = KvManager::new(KvConfig {
            block_tokens: config.block_tokens,
            gpu_blocks: 5,
            cpu_blocks: 0,
            kv_bytes_per_token: config.model.kv_bytes_per_token(),
            chunk_tokens: 256,
            write_through: false,
            priority_writes: false,
            offload_enabled: false,
            load_evict_overlap: false,
            pcie_bandwidth: 25e9,
            pcie_latency_us: 10,
        });
        let mut st = EngineState::new();
        // a: boundary (2 blocks), small buffer. b: mid-block (2 blocks),
        // LARGEST buffer — the old rule's first victim. c: boundary
        // (1 block), middling buffer.
        let a = running(&mut st, &mut kv, 2 * bt, 2);
        let b = running(&mut st, &mut kv, bt + 1, 9);
        let c = running(&mut st, &mut kv, bt, 4);
        assert_eq!(kv.gpu_free_tokens(), 0);

        let mut batch = IterationBatch {
            decode: vec![a, b, c],
            prefill: Vec::new(),
        };
        let cost = config.cost_model();
        let profs = EngineProfilers::new(1e-4, 1_000.0);
        fit_memory(
            &mut batch,
            &mut st,
            &mut kv,
            &NoVictim,
            &cost,
            &config,
            &profs,
            &mut scratch(),
            SimTime::ZERO,
            &mut TraceSink::disabled(),
        );
        // Both boundary members need a fresh block and none is free, so
        // both are shed — largest buffer (c) first is irrelevant here,
        // but b must survive despite holding the largest buffer of all.
        assert_eq!(batch.decode, vec![b]);
    }

    /// A scheduler that always names the same emergency victim: the first
    /// reclaim call preempts it, the second finds it no longer Running and
    /// gives up — a *partial* reclaim (some memory freed, then failure),
    /// which is the path where stale `needed`/phantom candidates lurked.
    struct StuckVictim(RequestId);
    impl Scheduler for StuckVictim {
        fn name(&self) -> &'static str {
            "stuck-victim"
        }
        fn plan(&mut self, _ctx: &SchedContext) -> SchedPlan {
            SchedPlan::none()
        }
        fn emergency_victim(&self, _ctx: &SchedContext) -> Option<RequestId> {
            Some(self.0)
        }
    }

    /// After a partially-successful emergency reclaim, preempted members
    /// (whose KV context now reads 0 — a block-size multiple) must not
    /// act as shed candidates: shedding one would decrement `needed`
    /// without freeing anything, letting a genuine boundary member
    /// through with no block to land its token in.
    #[test]
    fn shed_ignores_members_preempted_by_reclaim() {
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200());
        let bt = config.block_tokens as u64;
        let mut kv = KvManager::new(KvConfig {
            block_tokens: config.block_tokens,
            gpu_blocks: 5,
            cpu_blocks: 0,
            kv_bytes_per_token: config.model.kv_bytes_per_token(),
            chunk_tokens: 256,
            write_through: false,
            priority_writes: false,
            offload_enabled: false,
            load_evict_overlap: false,
            pcie_bandwidth: 25e9,
            pcie_latency_us: 10,
        });
        let mut st = EngineState::new();
        // a, c: boundary members (2 blocks each). b: one block, largest
        // buffer — the reclaim victim. Preempting b frees 1 block of the
        // 2 needed, then reclaim fails (its victim is gone).
        let a = running(&mut st, &mut kv, 2 * bt, 2);
        let b = running(&mut st, &mut kv, 1, 9);
        let c = running(&mut st, &mut kv, 2 * bt, 4);
        assert_eq!(kv.gpu_free_tokens(), 0);

        let mut batch = IterationBatch {
            decode: vec![a, b, c],
            prefill: Vec::new(),
        };
        let cost = config.cost_model();
        let profs = EngineProfilers::new(1e-4, 1_000.0);
        fit_memory(
            &mut batch,
            &mut st,
            &mut kv,
            &StuckVictim(b),
            &cost,
            &config,
            &profs,
            &mut scratch(),
            SimTime::ZERO,
            &mut TraceSink::disabled(),
        );
        // b is gone (preempted), and of the two boundary members the
        // larger buffer (c) was shed; a keeps the one freed block. Were b
        // treated as a candidate, its occupancy 9 would make it the first
        // "shed" and both a and c would sail through needing 2 blocks
        // with only 1 free.
        assert_eq!(batch.decode, vec![a]);
        assert_eq!(kv.gpu_free_tokens() / bt, 1);
    }

    /// When one block frees up, only the smaller-buffered boundary member
    /// keeps its slot: candidates shed largest-buffer-first.
    #[test]
    fn shed_orders_boundary_candidates_by_buffer() {
        let config = EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::h200());
        let bt = config.block_tokens as u64;
        let mut kv = KvManager::new(KvConfig {
            block_tokens: config.block_tokens,
            gpu_blocks: 4,
            cpu_blocks: 0,
            kv_bytes_per_token: config.model.kv_bytes_per_token(),
            chunk_tokens: 256,
            write_through: false,
            priority_writes: false,
            offload_enabled: false,
            load_evict_overlap: false,
            pcie_bandwidth: 25e9,
            pcie_latency_us: 10,
        });
        let mut st = EngineState::new();
        // Three boundary members, one free block: the two largest buffers
        // are shed, the smallest keeps decoding.
        let big = running(&mut st, &mut kv, bt, 9);
        let mid = running(&mut st, &mut kv, bt, 5);
        let small = running(&mut st, &mut kv, bt, 1);
        assert_eq!(kv.gpu_free_tokens(), bt);

        let mut batch = IterationBatch {
            decode: vec![big, mid, small],
            prefill: Vec::new(),
        };
        let cost = config.cost_model();
        let profs = EngineProfilers::new(1e-4, 1_000.0);
        fit_memory(
            &mut batch,
            &mut st,
            &mut kv,
            &NoVictim,
            &cost,
            &config,
            &profs,
            &mut scratch(),
            SimTime::ZERO,
            &mut TraceSink::disabled(),
        );
        assert_eq!(batch.decode, vec![small]);
    }
}
