//! The hierarchical KV-cache manager (paper §5).
//!
//! GPU memory is treated as a high-speed cache over larger CPU memory. The
//! manager implements the paper's proactive design:
//!
//! * **Write-through** (§5.1): newly generated KV entries are queued for
//!   background D2H sync immediately, so eviction usually finds most of a
//!   request's cache already host-resident and completes near-instantly.
//!   Host copies are retained after resume, so only *incrementally* new
//!   tokens ever need flushing again.
//! * **Synchronous chunked writing** (§5.2): each engine iteration the
//!   manager pulls a byte budget matching the iteration's estimated compute
//!   time from the write queue, so sync I/O completes inside compute
//!   windows and never stalls the scheduler. When the whole queue fits
//!   the window, [`KvManager::run_window`] settles it in one pass.
//! * **Load-evict overlap** (§5.3): resume loads (H2D) run concurrently
//!   with eviction flushes (D2H) on the independent duplex streams, and
//!   chunk-granular block recycling lets a load begin before its victim has
//!   fully drained. Disabling the flag serialises loads behind evictions
//!   (the ablation baseline).
//!
//! All block accounting is token-precise with eager over-free detection;
//! property tests assert global conservation across random operation
//! sequences.

use std::collections::VecDeque;

use tokenflow_sim::{RequestId, SimDuration, SimTime};

use crate::pcie::{Direction, PcieEngine, TransferCompletion, TransferTag};
use crate::pool::{tokens_to_blocks, BlockPool};
use crate::write_queue::{WriteChunk, WriteQueue};

/// Where a request's KV cache currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Residency {
    /// No KV exists (never prefilled, or discarded for recompute).
    #[default]
    None,
    /// Fully resident on the GPU (a host copy may also exist).
    Gpu,
    /// Preemption in progress: dirty tokens flushing to host.
    Evicting,
    /// Fully offloaded to host memory.
    Cpu,
    /// Resume in progress: tokens loading back to the GPU.
    Loading,
}

/// Completion events surfaced by [`KvManager::advance_to`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvEvent {
    /// A preemption finished: the request is now fully host-resident.
    EvictDone {
        /// The request whose eviction completed.
        req: RequestId,
        /// Completion time.
        at: SimTime,
    },
    /// A resume finished: the request is fully GPU-resident again.
    LoadDone {
        /// The request whose load completed.
        req: RequestId,
        /// Completion time.
        at: SimTime,
    },
}

/// How [`KvManager::run_window`] synced the write queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSync {
    /// Nothing was queued.
    Idle,
    /// The whole queue settled in one pass, with no chunk on the stream.
    Settled,
    /// Re-priced, then pulled and enqueued chunk by chunk.
    Ordered,
}

/// Errors from KV operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// The GPU pool cannot hold the requested tokens.
    OutOfGpuMemory,
    /// The CPU pool cannot hold the requested tokens.
    OutOfCpuMemory,
    /// The operation is invalid in the request's current residency state.
    BadState(&'static str),
    /// Offloading is disabled (the w/o-offload ablation); callers must fall
    /// back to discard + recompute.
    OffloadDisabled,
}

/// How an eviction started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictStart {
    /// Everything was already synced: the request is host-resident now.
    Instant,
    /// Dirty tokens are flushing; an [`KvEvent::EvictDone`] will follow.
    InFlight,
}

/// Configuration of the KV hierarchy.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Tokens per block (paged-attention page size).
    pub block_tokens: u32,
    /// GPU pool capacity in blocks.
    pub gpu_blocks: u64,
    /// CPU (host) pool capacity in blocks.
    pub cpu_blocks: u64,
    /// KV bytes per token (model-dependent).
    pub kv_bytes_per_token: u64,
    /// Transfer chunk granularity in tokens.
    pub chunk_tokens: u64,
    /// Enable write-through background sync (§5.1).
    pub write_through: bool,
    /// Order write-through flushes by buffer priority rather than FIFO
    /// (§5.2 "rearranged" strategy).
    pub priority_writes: bool,
    /// Allow offload at all; `false` reproduces the w/o-offload ablation
    /// (preemption must discard and recompute).
    pub offload_enabled: bool,
    /// Allow resume loads to overlap in-flight evictions (§5.3).
    pub load_evict_overlap: bool,
    /// Host link bandwidth per direction, bytes/second.
    pub pcie_bandwidth: f64,
    /// Host link per-transfer setup latency, microseconds.
    pub pcie_latency_us: u64,
}

impl KvConfig {
    /// A small configuration convenient for unit tests.
    pub fn test_config() -> Self {
        KvConfig {
            block_tokens: 16,
            gpu_blocks: 64,
            cpu_blocks: 1024,
            kv_bytes_per_token: 1 << 17,
            chunk_tokens: 64,
            write_through: true,
            priority_writes: true,
            offload_enabled: true,
            load_evict_overlap: true,
            pcie_bandwidth: 25.0e9,
            pcie_latency_us: 15,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct ReqState {
    /// Context length: tokens whose KV logically exists.
    total: u64,
    /// Tokens whose GPU copy is held (resident or awaiting flush).
    gpu_hold: u64,
    /// Tokens with a host copy.
    synced: u64,
    /// Tokens reserved in the CPU pool (synced + in-flight D2H).
    cpu_hold: u64,
    gpu_blocks: u64,
    cpu_blocks: u64,
    residency: Residency,
    /// Write-through tokens in flight on the D2H stream.
    wt_inflight: u64,
    /// Tokens still to complete before an eviction finishes.
    evict_pending: u64,
    /// Explicit evict chunks in flight (excludes `wt_inflight`).
    evict_inflight: u64,
    /// Tokens enqueued on the H2D stream for the current load.
    load_enqueued: u64,
    /// Tokens that completed loading.
    load_done: u64,
}

impl ReqState {
    /// Blocks the host hold grows by when it takes `tokens` more: the
    /// tokens that overflow its last block's free slots, rounded up to
    /// whole blocks.
    fn extra_cpu_blocks(&self, tokens: u64, block_tokens: u64) -> u64 {
        let slack = self.cpu_blocks * block_tokens - self.cpu_hold;
        if tokens <= slack {
            0
        } else {
            (tokens - slack).div_ceil(block_tokens)
        }
    }
}

/// Stale in-flight transfer tokens awaiting silent absorption after a
/// discard/release. FIFO stream order guarantees stale chunks arrive before
/// any chunk of a reused request id.
#[derive(Debug, Default, Clone)]
struct Stale {
    wt: u64,
    evict: u64,
    load: u64,
}

impl Stale {
    fn is_empty(&self) -> bool {
        self.wt == 0 && self.evict == 0 && self.load == 0
    }
}

/// Slot-index value of an id without KV state.
const NO_SLOT: u32 = u32::MAX;

/// The hierarchical KV-cache manager.
///
/// # Examples
///
/// ```
/// use tokenflow_kv::{KvConfig, KvManager, Residency};
/// use tokenflow_sim::{RequestId, SimTime};
///
/// let mut kv = KvManager::new(KvConfig::test_config());
/// let r = RequestId(0);
/// kv.on_prefill(r, 128, SimTime::ZERO).unwrap();
/// assert_eq!(kv.residency(r), Residency::Gpu);
/// ```
#[derive(Debug, Clone)]
pub struct KvManager {
    config: KvConfig,
    gpu: BlockPool,
    cpu: BlockPool,
    pcie: PcieEngine,
    write_queue: WriteQueue,
    /// `slot_of[id]` is the `states` slot of a request holding KV, or
    /// [`NO_SLOT`]: 4 bytes per id, the only table that grows with ids.
    /// A dense vector instead of a hash map: the hot path touches several
    /// entries per live request per step, and the engine's ids are dense,
    /// so a lookup is two loads with no hashing.
    slot_of: Vec<u32>,
    /// Per-request KV state of the requests holding KV (`None` = a free
    /// slot). A request takes a slot at prefill and frees it when its KV
    /// is dropped; freed slots are reused, so the table is as long as the
    /// most requests that ever held KV at once. Slots decide no order:
    /// the write queue and the link streams keep their FIFO orders.
    states: Vec<Option<ReqState>>,
    /// Free slots of `states`, the last freed reused first.
    free: Vec<u32>,
    /// Stale in-flight token counters of dropped requests, keyed by id.
    /// An entry lives only while its chunks are on the link, so a slot
    /// freed by a drop can be reused (and the id re-prefilled) while the
    /// dropped chunks drain. Small: a linear scan finds an entry.
    stale: Vec<(RequestId, Stale)>,
    loading_order: VecDeque<RequestId>,
    /// Count of requests currently in `Evicting` (for overlap gating).
    evicting_count: usize,
    /// Retained completion buffer for [`KvManager::advance_to`] — the
    /// engine calls it at least twice per step, so the steady state
    /// reuses one allocation instead of paying two per call.
    completion_scratch: Vec<TransferCompletion>,
    /// Retained chunk buffer for [`KvManager::pump_writes`], same idea.
    chunk_scratch: Vec<WriteChunk>,
    /// Number of requests in `Loading` residency. Maintained separately
    /// from `loading_order` because the queue holds only loads with
    /// chunks still to enqueue, while this counts every in-flight load
    /// (the router-facing [`KvManager::loading_requests`] figure).
    loading_count: usize,
}

impl KvManager {
    /// Creates a manager from a configuration.
    pub fn new(config: KvConfig) -> Self {
        // Without load-evict overlap the host link degrades to one shared
        // serialized channel (§5.3 baseline).
        let pcie = if config.load_evict_overlap {
            PcieEngine::new(config.pcie_bandwidth, config.pcie_latency_us)
        } else {
            PcieEngine::new_half_duplex(config.pcie_bandwidth, config.pcie_latency_us)
        };
        let write_queue = WriteQueue::new(config.priority_writes);
        KvManager {
            gpu: BlockPool::new(config.gpu_blocks),
            cpu: BlockPool::new(config.cpu_blocks),
            pcie,
            write_queue,
            slot_of: Vec::new(),
            states: Vec::new(),
            free: Vec::new(),
            stale: Vec::new(),
            loading_order: VecDeque::new(),
            evicting_count: 0,
            completion_scratch: Vec::new(),
            chunk_scratch: Vec::new(),
            loading_count: 0,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &KvConfig {
        &self.config
    }

    /// The `states` slot of `req`, if it holds KV.
    #[inline]
    fn slot(&self, req: RequestId) -> Option<usize> {
        let slot = *self.slot_of.get(req.0 as usize)?;
        (slot != NO_SLOT).then_some(slot as usize)
    }

    #[inline]
    fn req_state(&self, req: RequestId) -> Option<&ReqState> {
        self.states.get(self.slot(req)?).and_then(Option::as_ref)
    }

    /// `req`'s slot and state, if it holds KV.
    fn entry_mut(&mut self, req: RequestId) -> Option<(usize, &mut ReqState)> {
        let slot = self.slot(req)?;
        Some((slot, self.at_mut(slot)?))
    }

    fn at_mut(&mut self, slot: usize) -> Option<&mut ReqState> {
        self.states.get_mut(slot).and_then(Option::as_mut)
    }

    /// Gives `req` (which holds no KV) a slot with an empty state,
    /// reusing a freed one when there is one.
    fn insert(&mut self, req: RequestId) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.states.push(None);
                (self.states.len() - 1) as u32
            }
        };
        if let Some(entry) = self.states.get_mut(slot as usize) {
            *entry = Some(ReqState::default());
        }
        let idx = req.0 as usize;
        if self.slot_of.len() <= idx {
            self.slot_of.resize(idx + 1, NO_SLOT);
        }
        if let Some(entry) = self.slot_of.get_mut(idx) {
            *entry = slot;
        }
        slot as usize
    }

    /// Frees `req`'s slot and returns it with the state, if it held KV.
    fn remove(&mut self, req: RequestId) -> Option<(usize, ReqState)> {
        let slot = self.slot(req)?;
        let state = self.states.get_mut(slot).and_then(Option::take)?;
        if let Some(entry) = self.slot_of.get_mut(req.0 as usize) {
            *entry = NO_SLOT;
        }
        self.free.push(slot as u32);
        Some((slot, state))
    }

    /// Per-request entries held now: KV states plus stale counters. At
    /// most one of each per id, and none for an id without KV or stale
    /// chunks on the link; the engine's far-future probe and the KV
    /// property suite read it.
    #[doc(hidden)]
    pub fn tracked_requests(&self) -> usize {
        self.states.len() - self.free.len() + self.stale.len()
    }

    /// The GPU block pool (read-only).
    pub fn gpu_pool(&self) -> &BlockPool {
        &self.gpu
    }

    /// The CPU block pool (read-only).
    pub fn cpu_pool(&self) -> &BlockPool {
        &self.cpu
    }

    /// The transfer engine (read-only).
    pub fn pcie(&self) -> &PcieEngine {
        &self.pcie
    }

    /// Sets the host-link slowdown multiplier (`1.0` restores nominal
    /// speed); see [`PcieEngine::set_slowdown`] for semantics.
    pub fn set_link_slowdown(&mut self, slowdown: f64) {
        self.pcie.set_slowdown(slowdown);
    }

    /// Where `req`'s KV currently lives.
    pub fn residency(&self, req: RequestId) -> Residency {
        self.req_state(req).map_or(Residency::None, |s| s.residency)
    }

    /// Context length tracked for `req`.
    #[inline]
    pub fn context_tokens(&self, req: RequestId) -> u64 {
        self.req_state(req).map_or(0, |s| s.total)
    }

    /// Free GPU capacity in tokens.
    pub fn gpu_free_tokens(&self) -> u64 {
        self.gpu.free_blocks() * self.config.block_tokens as u64
    }

    /// Total GPU capacity in tokens.
    pub fn gpu_total_tokens(&self) -> u64 {
        self.gpu.total_blocks() * self.config.block_tokens as u64
    }

    /// Tokens awaiting background write-through sync.
    pub fn write_backlog_tokens(&self) -> u64 {
        self.write_queue.pending_tokens()
    }

    /// Dirty (host-unsynced) tokens of a request, counting in-flight sync
    /// as clean-to-be.
    #[inline]
    pub fn dirty_tokens(&self, req: RequestId) -> u64 {
        self.req_state(req)
            .map_or(0, |s| s.total - s.synced - s.wt_inflight - s.evict_inflight)
    }

    /// Estimated time to evict `req` now: D2H queue drain plus the dirty
    /// flush itself (the `t_evict_queueing + t_evict` terms of §4.2.3).
    #[inline]
    pub fn estimated_evict_time(&self, req: RequestId, now: SimTime) -> SimDuration {
        let dirty = self.dirty_tokens(req);
        let bytes = dirty * self.config.kv_bytes_per_token;
        let transfer = if dirty == 0 {
            SimDuration::ZERO
        } else {
            self.pcie.transfer_time(bytes)
        };
        self.pcie.eta(Direction::D2H, now) + transfer
    }

    /// Estimated time to load `req` back: H2D queue drain plus the full
    /// context transfer (the `t_load_queueing + t_load` terms of §4.2.3).
    #[inline]
    pub fn estimated_load_time(&self, req: RequestId, now: SimTime) -> SimDuration {
        let tokens = self.context_tokens(req);
        let bytes = tokens * self.config.kv_bytes_per_token;
        self.pcie.eta(Direction::H2D, now) + self.pcie.transfer_time(bytes)
    }

    /// Host-link queue depth in a direction (transfers).
    pub fn io_queue_len(&self, dir: Direction) -> usize {
        self.pcie.queue_len(dir)
    }

    /// Host-link drain ETA in a direction.
    pub fn io_eta(&self, dir: Direction, now: SimTime) -> SimDuration {
        self.pcie.eta(dir, now)
    }

    /// Earliest pending transfer completion, if any.
    pub fn next_io_completion(&self) -> Option<SimTime> {
        self.pcie.next_completion()
    }

    /// Requests currently mid-eviction (KV flushing to host).
    pub fn evicting_requests(&self) -> usize {
        self.evicting_count
    }

    /// Requests currently mid-load (KV returning to the GPU), including
    /// loads waiting for GPU space to enqueue their first chunk.
    pub fn loading_requests(&self) -> usize {
        self.loading_count
    }

    /// Updates the background-flush priority for `req` (call with the
    /// request's current buffer occupancy; larger buffers flush first).
    pub fn set_write_priority(&mut self, req: RequestId, priority: f64) {
        if let Some(slot) = self.slot(req) {
            self.write_queue.set_priority(slot as u32, priority);
        }
    }

    /// Bulk write-priority update: one pass over the pending write queue,
    /// asking `f` for each queued request's new priority (`None` = keep).
    /// Equivalent to calling [`KvManager::set_write_priority`] for every
    /// queued request `f` prices.
    pub fn retune_write_priorities<F: FnMut(RequestId) -> Option<f64>>(&mut self, f: F) {
        self.write_queue.retune(f);
    }

    fn set_gpu_hold(&mut self, slot: usize, new_tokens: u64) -> Result<(), KvError> {
        let Some(s) = self.states.get_mut(slot).and_then(Option::as_mut) else {
            return Err(KvError::BadState("unknown request"));
        };
        let new_blocks = tokens_to_blocks(new_tokens, self.config.block_tokens);
        if new_blocks > s.gpu_blocks {
            if !self.gpu.try_alloc(new_blocks - s.gpu_blocks) {
                return Err(KvError::OutOfGpuMemory);
            }
        } else {
            self.gpu.free(s.gpu_blocks - new_blocks);
        }
        s.gpu_blocks = new_blocks;
        s.gpu_hold = new_tokens;
        Ok(())
    }

    fn set_cpu_hold(&mut self, slot: usize, new_tokens: u64) -> Result<(), KvError> {
        let Some(s) = self.states.get_mut(slot).and_then(Option::as_mut) else {
            return Err(KvError::BadState("unknown request"));
        };
        let new_blocks = tokens_to_blocks(new_tokens, self.config.block_tokens);
        if new_blocks > s.cpu_blocks {
            if !self.cpu.try_alloc(new_blocks - s.cpu_blocks) {
                return Err(KvError::OutOfCpuMemory);
            }
        } else {
            self.cpu.free(s.cpu_blocks - new_blocks);
        }
        s.cpu_blocks = new_blocks;
        s.cpu_hold = new_tokens;
        Ok(())
    }

    /// Registers freshly prefilled KV for `req` (`tokens` context tokens all
    /// GPU-resident). Also the recompute path after a discard.
    pub fn on_prefill(
        &mut self,
        req: RequestId,
        tokens: u64,
        _now: SimTime,
    ) -> Result<(), KvError> {
        // A request holds a state exactly while it holds KV.
        if self.slot(req).is_some() {
            return Err(KvError::BadState("prefill requires no existing KV"));
        }
        let slot = self.insert(req);
        if let Err(e) = self.set_gpu_hold(slot, tokens) {
            self.remove(req);
            return Err(e);
        }
        if let Some(s) = self.at_mut(slot) {
            s.total = tokens;
            s.residency = Residency::Gpu;
        }
        if self.config.write_through {
            self.write_queue.push(req, slot as u32, tokens, 0.0);
        }
        Ok(())
    }

    /// Appends one decoded token's KV for a GPU-resident request.
    pub fn append_token(&mut self, req: RequestId, priority: f64) -> Result<(), KvError> {
        let (slot, s) = self
            .entry_mut(req)
            .ok_or(KvError::BadState("unknown request"))?;
        if s.residency != Residency::Gpu {
            return Err(KvError::BadState("append requires GPU residency"));
        }
        let new_total = s.total + 1;
        self.set_gpu_hold(slot, new_total)?;
        if let Some(s) = self.at_mut(slot) {
            s.total = new_total;
        }
        if self.config.write_through {
            self.write_queue.push(req, slot as u32, 1, priority);
        }
        Ok(())
    }

    /// Begins preempting `req`: host-synced tokens free their GPU blocks
    /// immediately; the dirty remainder flushes in chunks.
    pub fn begin_evict(&mut self, req: RequestId, now: SimTime) -> Result<EvictStart, KvError> {
        if !self.config.offload_enabled {
            return Err(KvError::OffloadDisabled);
        }
        let (slot, s) = self
            .entry_mut(req)
            .ok_or(KvError::BadState("unknown request"))?;
        if s.residency != Residency::Gpu {
            return Err(KvError::BadState("evict requires GPU residency"));
        }
        let (total, synced, wt_inflight, cpu_hold) = (s.total, s.synced, s.wt_inflight, s.cpu_hold);
        let dirty = total - synced - wt_inflight;

        // Reserve host space for the dirty flush up front; fail cleanly if
        // the host pool cannot take it.
        let target_cpu = total;
        let extra_blocks = tokens_to_blocks(target_cpu, self.config.block_tokens)
            .saturating_sub(tokens_to_blocks(cpu_hold, self.config.block_tokens));
        if !self.cpu.can_alloc(extra_blocks) {
            return Err(KvError::OutOfCpuMemory);
        }
        self.set_cpu_hold(slot, target_cpu)?;

        // Anything pending in the background write queue now flushes via the
        // eviction path instead.
        self.write_queue.cancel(slot as u32);

        // GPU blocks for already-synced tokens are reclaimable right now.
        let keep = total - synced;
        self.set_gpu_hold(slot, keep)?;

        let pending = dirty + wt_inflight;
        if pending == 0 {
            self.set_gpu_hold(slot, 0)?;
            if let Some(s) = self.at_mut(slot) {
                s.residency = Residency::Cpu;
            }
            return Ok(EvictStart::Instant);
        }

        // Flush the dirty remainder in chunks.
        let mut remaining = dirty;
        while remaining > 0 {
            let chunk = remaining.min(self.config.chunk_tokens);
            remaining -= chunk;
            self.pcie.enqueue(
                Direction::D2H,
                chunk * self.config.kv_bytes_per_token,
                TransferTag::Evict {
                    req,
                    tokens: chunk,
                    last: remaining == 0,
                },
                now,
            );
        }
        if let Some(s) = self.at_mut(slot) {
            s.evict_pending = pending;
            s.evict_inflight = dirty;
            s.residency = Residency::Evicting;
        }
        self.evicting_count += 1;
        Ok(EvictStart::InFlight)
    }

    /// Begins loading a host-resident request back to the GPU. Chunks are
    /// enqueued as GPU blocks become available (see
    /// [`KvManager::advance_to`]).
    pub fn begin_load(&mut self, req: RequestId, now: SimTime) -> Result<(), KvError> {
        let (_, s) = self
            .entry_mut(req)
            .ok_or(KvError::BadState("unknown request"))?;
        if s.residency != Residency::Cpu {
            return Err(KvError::BadState("load requires CPU residency"));
        }
        s.residency = Residency::Loading;
        s.load_enqueued = 0;
        s.load_done = 0;
        self.loading_order.push_back(req);
        self.loading_count += 1;
        self.pump_loads(now);
        Ok(())
    }

    /// Drops all KV for `req` (recompute path or request completion).
    ///
    /// In-flight transfers complete in the background and are silently
    /// absorbed; their bandwidth was already spent, which is exactly the
    /// waste reactive eviction incurs.
    pub fn drop_kv(&mut self, req: RequestId) {
        let Some((slot, s)) = self.remove(req) else {
            return; // no KV, hence nothing queued either
        };
        self.write_queue.cancel(slot as u32);
        if s.residency == Residency::Evicting {
            self.evicting_count -= 1;
        }
        if s.residency == Residency::Loading {
            self.loading_count -= 1;
        }
        let dropped = Stale {
            wt: s.wt_inflight,
            evict: s.evict_inflight,
            load: s.load_enqueued - s.load_done,
        };
        if !dropped.is_empty() {
            match self.stale.iter_mut().find(|(id, _)| *id == req) {
                Some((_, stale)) => {
                    stale.wt += dropped.wt;
                    stale.evict += dropped.evict;
                    stale.load += dropped.load;
                }
                None => self.stale.push((req, dropped)),
            }
        }
        self.gpu.free(s.gpu_blocks);
        self.cpu.free(s.cpu_blocks);
        self.loading_order.retain(|&r| r != req);
    }

    /// Write-through tokens a compute window of `window` may sync: its
    /// length at the link's nominal bandwidth (§5.2).
    fn write_budget_tokens(&self, window: SimDuration) -> u64 {
        let budget_bytes = window.as_secs_f64() * self.pcie.bandwidth();
        (budget_bytes / self.config.kv_bytes_per_token as f64) as u64
    }

    /// Pumps the background write-through sync with a byte budget matching
    /// the next compute window (synchronous chunked writing, §5.2).
    pub fn pump_writes(&mut self, now: SimTime, window: SimDuration) {
        if !self.config.write_through {
            return;
        }
        let budget_tokens = self.write_budget_tokens(window);
        if budget_tokens == 0 {
            return;
        }
        let mut chunks = std::mem::take(&mut self.chunk_scratch);
        chunks.clear();
        self.write_queue
            .pull_into(budget_tokens, self.config.chunk_tokens, &mut chunks);
        let mut host_full = false;
        for chunk in chunks.drain(..) {
            let Some((slot, s)) = self.entry_mut(chunk.req) else {
                continue;
            };
            let new_cpu_hold = s.cpu_hold + chunk.tokens;
            host_full = host_full || self.set_cpu_hold(slot, new_cpu_hold).is_err();
            if host_full {
                // Host pool full: this chunk and every later one stay
                // dirty, queued for a later pump.
                self.write_queue
                    .push(chunk.req, slot as u32, chunk.tokens, 0.0);
                continue;
            }
            self.pcie.enqueue(
                Direction::D2H,
                chunk.tokens * self.config.kv_bytes_per_token,
                TransferTag::WriteThrough {
                    req: chunk.req,
                    tokens: chunk.tokens,
                },
                now,
            );
            if let Some(s) = self.at_mut(slot) {
                s.wt_inflight += chunk.tokens;
            }
        }
        self.chunk_scratch = chunks;
    }

    /// Runs one compute window of background I/O: syncs the write queue
    /// for a window of `window` from `now`, then advances the transfers
    /// to `now + window` into `events` (cleared first). This is
    /// [`KvManager::retune_write_priorities`] with `reprice`,
    /// [`KvManager::pump_writes`] and [`KvManager::advance_into`] in one
    /// call, so nothing can observe the manager inside the window.
    ///
    /// The queue settles in one pass, without re-pricing and without
    /// putting a chunk on the stream, when flush order cannot change the
    /// window's outcome — that is, when:
    ///
    /// * (a) the window's budget covers every queued token, so the pull
    ///   would drain the queue, cutting each entry into the same chunks
    ///   in any order;
    /// * (b) the host pool can hold all of them, so no chunk is requeued;
    /// * (c) the D2H stream, after its queued work (on a half-duplex
    ///   link, both streams'), would finish the back-to-back run of
    ///   those chunks by `now + window`, so the advance completes every
    ///   one. The run's length is a sum over the chunks, whatever their
    ///   order.
    ///
    /// Each completion would then only add to its request's `synced`:
    /// queued requests are GPU-resident (evicting and dropping cancel
    /// their entries), so none fires an event or frees a GPU block, and a
    /// re-prefilled id's stale chunks sit ahead of the run and are
    /// absorbed as before. Settling books exactly that: per request the
    /// host hold and `synced` grow, and the stream is busy until the
    /// run's end. Otherwise the queue is re-priced and pumped chunk by
    /// chunk, as those calls do.
    pub fn run_window<F: FnMut(RequestId) -> Option<f64>>(
        &mut self,
        now: SimTime,
        window: SimDuration,
        reprice: F,
        events: &mut Vec<KvEvent>,
    ) -> WindowSync {
        let sync = if self.write_queue.is_empty() {
            WindowSync::Idle
        } else if self.settle_writes(now, window) {
            WindowSync::Settled
        } else {
            self.write_queue.retune(reprice);
            self.pump_writes(now, window);
            WindowSync::Ordered
        };
        self.advance_into(now + window, events);
        sync
    }

    /// The settle path of [`KvManager::run_window`]: returns `false`,
    /// changing nothing, unless conditions (a)–(c) hold.
    fn settle_writes(&mut self, now: SimTime, window: SimDuration) -> bool {
        if self.write_budget_tokens(window) < self.write_queue.pending_tokens() {
            return false;
        }
        let block_tokens = self.config.block_tokens as u64;
        let chunk_tokens = self.config.chunk_tokens;
        let bytes_per_token = self.config.kv_bytes_per_token;
        // Most entries hold one decoded token.
        let one_token = self.pcie.transfer_time(bytes_per_token);
        let full_chunk = self.pcie.transfer_time(chunk_tokens * bytes_per_token);
        let mut blocks = 0;
        let mut run = SimDuration::ZERO;
        for (slot, tokens) in self.write_queue.entries() {
            let Some(s) = self.states.get(slot as usize).and_then(Option::as_ref) else {
                continue;
            };
            blocks += s.extra_cpu_blocks(tokens, block_tokens);
            if tokens == 1 {
                run += one_token;
                continue;
            }
            run += full_chunk * (tokens / chunk_tokens);
            let rest = tokens % chunk_tokens;
            if rest > 0 {
                run += self.pcie.transfer_time(rest * bytes_per_token);
            }
        }
        let done = self.pcie.start_at(Direction::D2H, now) + run;
        if done > now + window || !self.cpu.try_alloc(blocks) {
            return false;
        }
        let states = &mut self.states;
        let mut bytes = 0;
        self.write_queue.drain(|slot, tokens| {
            let Some(s) = states.get_mut(slot as usize).and_then(Option::as_mut) else {
                return;
            };
            s.cpu_blocks += s.extra_cpu_blocks(tokens, block_tokens);
            s.cpu_hold += tokens;
            s.synced += tokens;
            bytes += tokens * bytes_per_token;
        });
        self.pcie.settle(Direction::D2H, done, bytes);
        true
    }

    fn pump_loads(&mut self, now: SimTime) {
        // Without load-evict overlap, loads serialise behind all device-to-
        // host activity — in-flight evictions and queued write-back traffic
        // alike (the §5.3 baseline trades memory buffering for operation
        // serialisation).
        if !self.config.load_evict_overlap
            && (self.evicting_count > 0 || self.pcie.queue_len(Direction::D2H) > 0)
        {
            return;
        }
        // The queue holds only loads with chunks still to enqueue, so the
        // walk is O(work done): a fully-wired load pops immediately (its
        // completion needs no further pumping), a stale entry (dropped
        // mid-load) pops on sight, and a blocked head parks the queue
        // until GPU space frees. In the steady state — every pending load
        // on the wire, waiting for completions — this is an O(1) empty
        // check, which matters because the engine pumps at least twice
        // per step.
        while let Some(&req) = self.loading_order.front() {
            let Some((slot, s)) = self.entry_mut(req) else {
                self.loading_order.pop_front();
                continue;
            };
            if s.residency != Residency::Loading {
                self.loading_order.pop_front();
                continue;
            }
            let mut enqueued = s.load_enqueued;
            let total = s.total;
            let mut blocked = false;
            while enqueued < total {
                let chunk = (total - enqueued).min(self.config.chunk_tokens);
                let new_hold = enqueued + chunk;
                if self.set_gpu_hold(slot, new_hold).is_err() {
                    blocked = true;
                    break;
                }
                self.pcie.enqueue(
                    Direction::H2D,
                    chunk * self.config.kv_bytes_per_token,
                    TransferTag::Load {
                        req,
                        tokens: chunk,
                        last: new_hold == total,
                    },
                    now,
                );
                enqueued = new_hold;
            }
            if let Some(s) = self.at_mut(slot) {
                s.load_enqueued = enqueued;
            }
            if blocked {
                // FIFO head-of-line: later loads wait behind this one.
                break;
            }
            self.loading_order.pop_front();
        }
    }

    /// Advances the transfer engine to `now`, applying completions and
    /// pumping pending loads into freed space. Returns lifecycle events in
    /// completion order.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<KvEvent> {
        let mut events = Vec::new();
        self.advance_into(now, &mut events);
        events
    }

    /// [`KvManager::advance_to`] into a caller-retained event buffer
    /// (cleared first): the per-step path calls this at least twice per
    /// iteration and stays allocation-free in the steady state.
    pub fn advance_into(&mut self, now: SimTime, events: &mut Vec<KvEvent>) {
        events.clear();
        let mut completions = std::mem::take(&mut self.completion_scratch);
        self.pcie.advance_into(now, &mut completions);
        for c in completions.drain(..) {
            match c.tag {
                TransferTag::WriteThrough { req, tokens } => {
                    if self.absorb_stale(req, tokens, StaleKind::Wt) {
                        continue;
                    }
                    self.on_sync_complete(req, tokens, false, c.completed_at, events);
                }
                TransferTag::Evict { req, tokens, .. } => {
                    if self.absorb_stale(req, tokens, StaleKind::Evict) {
                        continue;
                    }
                    self.on_sync_complete(req, tokens, true, c.completed_at, events);
                }
                TransferTag::Load { req, tokens, .. } => {
                    if self.absorb_stale(req, tokens, StaleKind::Load) {
                        continue;
                    }
                    self.on_load_complete(req, tokens, c.completed_at, events);
                }
            }
        }
        self.completion_scratch = completions;
        self.pump_loads(now);
    }

    /// Absorbs a completed chunk of `req` against its stale counters,
    /// dropping the entry once nothing stale is left on the link.
    fn absorb_stale(&mut self, req: RequestId, tokens: u64, kind: StaleKind) -> bool {
        let Some(at) = self.stale.iter().position(|(id, _)| *id == req) else {
            return false;
        };
        let Some((_, stale)) = self.stale.get_mut(at) else {
            return false;
        };
        let counter = match kind {
            StaleKind::Wt => &mut stale.wt,
            StaleKind::Evict => &mut stale.evict,
            StaleKind::Load => &mut stale.load,
        };
        if *counter < tokens {
            return false;
        }
        *counter -= tokens;
        if stale.is_empty() {
            self.stale.swap_remove(at);
        }
        true
    }

    fn on_sync_complete(
        &mut self,
        req: RequestId,
        tokens: u64,
        explicit_evict: bool,
        at: SimTime,
        events: &mut Vec<KvEvent>,
    ) {
        let Some((slot, s)) = self.entry_mut(req) else {
            return;
        };
        s.synced += tokens;
        if explicit_evict {
            s.evict_inflight -= tokens;
        } else {
            s.wt_inflight -= tokens;
        }
        if s.residency == Residency::Evicting {
            s.evict_pending -= tokens;
            let done = s.evict_pending == 0;
            let new_hold = s.gpu_hold - tokens.min(s.gpu_hold);
            self.set_gpu_hold(slot, new_hold)
                .expect("shrinking GPU hold cannot fail");
            if done {
                if let Some(s) = self.at_mut(slot) {
                    debug_assert_eq!(s.synced, s.total, "eviction must sync everything");
                    s.residency = Residency::Cpu;
                }
                self.evicting_count -= 1;
                events.push(KvEvent::EvictDone { req, at });
            }
        }
    }

    fn on_load_complete(
        &mut self,
        req: RequestId,
        tokens: u64,
        at: SimTime,
        events: &mut Vec<KvEvent>,
    ) {
        let Some((_, s)) = self.entry_mut(req) else {
            return;
        };
        s.load_done += tokens;
        if s.load_done == s.total {
            s.residency = Residency::Gpu;
            self.loading_count -= 1;
            events.push(KvEvent::LoadDone { req, at });
        }
    }

    /// Internal consistency check: pool usage equals the sum of per-request
    /// holds. Used by tests.
    pub fn check_conservation(&self) -> bool {
        // Free slots hold `None`, so only requests holding KV count.
        let gpu: u64 = self.states.iter().flatten().map(|s| s.gpu_blocks).sum();
        let cpu: u64 = self.states.iter().flatten().map(|s| s.cpu_blocks).sum();
        gpu == self.gpu.used_blocks() && cpu == self.cpu.used_blocks()
    }
}

#[derive(Clone, Copy)]
enum StaleKind {
    Wt,
    Evict,
    Load,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> KvManager {
        KvManager::new(KvConfig::test_config())
    }

    fn r(i: u64) -> RequestId {
        RequestId(i)
    }

    const FAR: SimTime = SimTime::from_secs(1_000);

    #[test]
    fn prefill_allocates_gpu_blocks() {
        let mut kv = mgr();
        kv.on_prefill(r(0), 100, SimTime::ZERO).unwrap();
        assert_eq!(kv.residency(r(0)), Residency::Gpu);
        // 100 tokens at 16/block = 7 blocks.
        assert_eq!(kv.gpu_pool().used_blocks(), 7);
        assert!(kv.check_conservation());
    }

    #[test]
    fn prefill_fails_when_pool_full() {
        let mut kv = mgr();
        let cap = kv.gpu_total_tokens();
        kv.on_prefill(r(0), cap, SimTime::ZERO).unwrap();
        assert_eq!(
            kv.on_prefill(r(1), 16, SimTime::ZERO),
            Err(KvError::OutOfGpuMemory)
        );
        assert!(kv.check_conservation());
    }

    #[test]
    fn append_grows_context_and_blocks() {
        let mut kv = mgr();
        kv.on_prefill(r(0), 16, SimTime::ZERO).unwrap();
        assert_eq!(kv.gpu_pool().used_blocks(), 1);
        kv.append_token(r(0), 0.0).unwrap();
        assert_eq!(kv.context_tokens(r(0)), 17);
        assert_eq!(kv.gpu_pool().used_blocks(), 2);
    }

    #[test]
    fn write_through_syncs_in_background() {
        let mut kv = mgr();
        kv.on_prefill(r(0), 128, SimTime::ZERO).unwrap();
        assert_eq!(kv.write_backlog_tokens(), 128);
        assert_eq!(kv.dirty_tokens(r(0)), 128);
        // Pump with a generous window: everything enqueues.
        kv.pump_writes(SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(kv.write_backlog_tokens(), 0);
        let events = kv.advance_to(FAR);
        assert!(events.is_empty(), "background sync emits no events");
        assert_eq!(kv.dirty_tokens(r(0)), 0);
        // GPU copy is retained under write-through.
        assert_eq!(kv.residency(r(0)), Residency::Gpu);
        assert!(kv.gpu_pool().used_blocks() > 0);
        assert!(kv.check_conservation());
    }

    #[test]
    fn evict_after_full_sync_is_instant() {
        let mut kv = mgr();
        kv.on_prefill(r(0), 128, SimTime::ZERO).unwrap();
        kv.pump_writes(SimTime::ZERO, SimDuration::from_secs(1));
        kv.advance_to(FAR);
        let start = kv.begin_evict(r(0), FAR).unwrap();
        assert_eq!(start, EvictStart::Instant);
        assert_eq!(kv.residency(r(0)), Residency::Cpu);
        assert_eq!(kv.gpu_pool().used_blocks(), 0);
        assert!(kv.check_conservation());
    }

    #[test]
    fn evict_without_sync_flushes_dirty() {
        let mut kv = mgr();
        kv.on_prefill(r(0), 128, SimTime::ZERO).unwrap();
        let start = kv.begin_evict(r(0), SimTime::ZERO).unwrap();
        assert_eq!(start, EvictStart::InFlight);
        assert_eq!(kv.residency(r(0)), Residency::Evicting);
        let events = kv.advance_to(FAR);
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], KvEvent::EvictDone { req, .. } if req == r(0)));
        assert_eq!(kv.residency(r(0)), Residency::Cpu);
        assert_eq!(kv.gpu_pool().used_blocks(), 0);
        assert!(kv.check_conservation());
    }

    #[test]
    fn write_through_makes_eviction_cheaper() {
        // The §5.1 claim: with write-through the flush at preemption time is
        // strictly smaller.
        let mut with_wt = mgr();
        with_wt.on_prefill(r(0), 512, SimTime::ZERO).unwrap();
        with_wt.pump_writes(SimTime::ZERO, SimDuration::from_millis(2));
        with_wt.advance_to(SimTime::from_millis(10));
        let t_wt = with_wt.estimated_evict_time(r(0), SimTime::from_millis(10));

        let mut cfg = KvConfig::test_config();
        cfg.write_through = false;
        let mut without = KvManager::new(cfg);
        without.on_prefill(r(0), 512, SimTime::ZERO).unwrap();
        without.advance_to(SimTime::from_millis(10));
        let t_wb = without.estimated_evict_time(r(0), SimTime::from_millis(10));
        assert!(t_wt < t_wb, "write-through {t_wt} vs write-back {t_wb}");
    }

    #[test]
    fn load_roundtrip_restores_gpu_residency() {
        let mut kv = mgr();
        kv.on_prefill(r(0), 200, SimTime::ZERO).unwrap();
        kv.begin_evict(r(0), SimTime::ZERO).unwrap();
        kv.advance_to(FAR);
        assert_eq!(kv.residency(r(0)), Residency::Cpu);
        kv.begin_load(r(0), FAR).unwrap();
        assert_eq!(kv.residency(r(0)), Residency::Loading);
        let events = kv.advance_to(SimTime::from_secs(2_000));
        assert!(matches!(events[0], KvEvent::LoadDone { req, .. } if req == r(0)));
        assert_eq!(kv.residency(r(0)), Residency::Gpu);
        // Host copy is retained: a second eviction is instant.
        let start = kv.begin_evict(r(0), SimTime::from_secs(2_000)).unwrap();
        assert_eq!(start, EvictStart::Instant);
    }

    #[test]
    fn incremental_sync_after_resume() {
        let mut kv = mgr();
        kv.on_prefill(r(0), 64, SimTime::ZERO).unwrap();
        kv.begin_evict(r(0), SimTime::ZERO).unwrap();
        kv.advance_to(FAR);
        kv.begin_load(r(0), FAR).unwrap();
        kv.advance_to(SimTime::from_secs(2_000));
        // New decode tokens are dirty; old ones stay synced.
        for _ in 0..10 {
            kv.append_token(r(0), 1.0).unwrap();
        }
        assert_eq!(kv.dirty_tokens(r(0)), 10);
        assert_eq!(kv.write_backlog_tokens(), 10);
    }

    #[test]
    fn offload_disabled_fails_evict() {
        let mut cfg = KvConfig::test_config();
        cfg.offload_enabled = false;
        cfg.write_through = false;
        let mut kv = KvManager::new(cfg);
        kv.on_prefill(r(0), 64, SimTime::ZERO).unwrap();
        assert_eq!(
            kv.begin_evict(r(0), SimTime::ZERO),
            Err(KvError::OffloadDisabled)
        );
    }

    #[test]
    fn drop_kv_releases_everything() {
        let mut kv = mgr();
        kv.on_prefill(r(0), 100, SimTime::ZERO).unwrap();
        kv.pump_writes(SimTime::ZERO, SimDuration::from_secs(1));
        kv.drop_kv(r(0));
        assert_eq!(kv.residency(r(0)), Residency::None);
        assert_eq!(kv.gpu_pool().used_blocks(), 0);
        assert_eq!(kv.cpu_pool().used_blocks(), 0);
        // Stale write-through completions are silently absorbed.
        let events = kv.advance_to(FAR);
        assert!(events.is_empty());
        assert!(kv.check_conservation());
    }

    #[test]
    fn host_pool_full_requeues_every_pulled_chunk() {
        let mut cfg = KvConfig::test_config();
        cfg.cpu_blocks = 4; // room for one 48-token host copy, not two
        let mut kv = KvManager::new(cfg);
        for i in 0..3 {
            kv.on_prefill(r(i), 48, SimTime::ZERO).unwrap();
        }
        kv.pump_writes(SimTime::ZERO, SimDuration::from_secs(1));
        // r0 fits the host pool; r1 fails, and r2 (pulled after it) must
        // stay queued too rather than drop out of the queue while dirty.
        let dirty: u64 = (0..3).map(|i| kv.dirty_tokens(r(i))).sum();
        assert_eq!(dirty, 96);
        assert_eq!(kv.write_backlog_tokens(), dirty);

        // Freeing host room lets the backlog drain, one request at a time.
        kv.drop_kv(r(0));
        kv.pump_writes(SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(kv.write_backlog_tokens(), 48);
        kv.drop_kv(r(1));
        kv.pump_writes(SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(kv.write_backlog_tokens(), 0);
        kv.advance_to(FAR);
        assert_eq!(kv.dirty_tokens(r(2)), 0);
        assert!(kv.check_conservation());
    }

    #[test]
    fn discard_then_recompute_same_id_is_safe() {
        let mut kv = mgr();
        kv.on_prefill(r(0), 100, SimTime::ZERO).unwrap();
        kv.pump_writes(SimTime::ZERO, SimDuration::from_secs(1));
        kv.drop_kv(r(0));
        // Recompute path: prefill again under the same id while the old
        // sync transfers are still in flight.
        kv.on_prefill(r(0), 100, SimTime::from_micros(1)).unwrap();
        kv.pump_writes(SimTime::from_micros(1), SimDuration::from_secs(1));
        kv.advance_to(FAR);
        // Stale chunks absorbed; fresh sync counted exactly once.
        assert_eq!(kv.dirty_tokens(r(0)), 0);
        assert_eq!(kv.residency(r(0)), Residency::Gpu);
        assert!(kv.check_conservation());
    }

    #[test]
    fn load_waits_for_space_then_proceeds() {
        let mut cfg = KvConfig::test_config();
        cfg.gpu_blocks = 8; // 128 tokens
        let mut kv = KvManager::new(cfg);
        kv.on_prefill(r(0), 128, SimTime::ZERO).unwrap();
        kv.begin_evict(r(0), SimTime::ZERO).unwrap();
        kv.advance_to(FAR);
        // GPU now hosts request 1.
        kv.on_prefill(r(1), 128, FAR).unwrap();
        kv.begin_load(r(0), FAR).unwrap();
        // No space yet: nothing enqueued.
        assert_eq!(kv.residency(r(0)), Residency::Loading);
        let events = kv.advance_to(SimTime::from_secs(1_100));
        assert!(events.is_empty());
        // Victim leaves; load resumes automatically on advance.
        kv.begin_evict(r(1), SimTime::from_secs(1_100)).unwrap();
        let mut all = Vec::new();
        let mut t = SimTime::from_secs(1_100);
        for _ in 0..200 {
            t += SimDuration::from_millis(1);
            all.extend(kv.advance_to(t));
        }
        assert!(all
            .iter()
            .any(|e| matches!(e, KvEvent::LoadDone { req, .. } if *req == r(0))));
        assert!(kv.check_conservation());
    }

    #[test]
    fn overlap_allows_load_during_evict() {
        let mut cfg = KvConfig::test_config();
        cfg.gpu_blocks = 12; // 192 tokens: room for a chunk while evicting
        let mut kv = KvManager::new(cfg);
        kv.on_prefill(r(0), 128, SimTime::ZERO).unwrap();
        kv.begin_evict(r(0), SimTime::ZERO).unwrap();
        kv.advance_to(FAR);
        kv.begin_load(r(0), FAR).unwrap();
        kv.advance_to(SimTime::from_secs(1_100));
        assert_eq!(kv.residency(r(0)), Residency::Gpu);

        // Now preempt r0 (dirty this time) while loading r1 concurrently.
        let t0 = SimTime::from_secs(1_200);
        for _ in 0..32 {
            kv.append_token(r(0), 0.0).unwrap();
        }
        kv.on_prefill(r(1), 16, t0).unwrap();
        kv.begin_evict(r(1), t0).unwrap();
        kv.advance_to(SimTime::from_secs(1_300));
        kv.begin_evict(r(0), SimTime::from_secs(1_300)).unwrap();
        kv.begin_load(r(1), SimTime::from_secs(1_300)).unwrap();
        // With overlap the load proceeds despite the in-flight eviction.
        let events = kv.advance_to(SimTime::from_secs(1_400));
        assert!(events
            .iter()
            .any(|e| matches!(e, KvEvent::LoadDone { req, .. } if *req == r(1))));
    }

    #[test]
    fn no_overlap_serialises_load_behind_evict() {
        let mut cfg = KvConfig::test_config();
        cfg.load_evict_overlap = false;
        cfg.write_through = false;
        let mut kv = KvManager::new(cfg);
        let t0 = SimTime::ZERO;
        kv.on_prefill(r(0), 128, t0).unwrap();
        kv.begin_evict(r(0), t0).unwrap();
        kv.advance_to(FAR);
        kv.on_prefill(r(1), 128, FAR).unwrap();
        kv.begin_evict(r(1), FAR).unwrap();
        // r1 eviction in flight; r0 load must wait even though space exists.
        kv.begin_load(r(0), FAR).unwrap();
        assert_eq!(kv.pcie().queue_len(Direction::H2D), 0);
        let events = kv.advance_to(SimTime::from_secs(2_000));
        // After the eviction drains, the load proceeds (chunks enqueue at
        // the advance instant and complete shortly after).
        assert!(events
            .iter()
            .any(|e| matches!(e, KvEvent::EvictDone { req, .. } if *req == r(1))));
        let events = kv.advance_to(SimTime::from_secs(2_100));
        assert!(events
            .iter()
            .any(|e| matches!(e, KvEvent::LoadDone { req, .. } if *req == r(0))));
    }

    #[test]
    fn estimated_times_reflect_queue_state() {
        let mut kv = mgr();
        kv.on_prefill(r(0), 512, SimTime::ZERO).unwrap();
        let t_clean = kv.estimated_evict_time(r(0), SimTime::ZERO);
        assert!(t_clean > SimDuration::ZERO);
        // Syncing everything makes the estimate (near) zero.
        kv.pump_writes(SimTime::ZERO, SimDuration::from_secs(1));
        kv.advance_to(FAR);
        assert_eq!(kv.estimated_evict_time(r(0), FAR), SimDuration::ZERO);
        assert!(kv.estimated_load_time(r(0), FAR) > SimDuration::ZERO);
    }

    #[test]
    fn bad_state_transitions_rejected() {
        let mut kv = mgr();
        assert!(matches!(
            kv.append_token(r(9), 0.0),
            Err(KvError::BadState(_))
        ));
        kv.on_prefill(r(0), 32, SimTime::ZERO).unwrap();
        assert!(matches!(
            kv.on_prefill(r(0), 32, SimTime::ZERO),
            Err(KvError::BadState(_))
        ));
        assert!(matches!(
            kv.begin_load(r(0), SimTime::ZERO),
            Err(KvError::BadState(_))
        ));
        kv.begin_evict(r(0), SimTime::ZERO).unwrap();
        assert!(matches!(
            kv.append_token(r(0), 0.0),
            Err(KvError::BadState(_))
        ));
    }
}
