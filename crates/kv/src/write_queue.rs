//! The write-through buffer (paper §5.1–5.2).
//!
//! Newly generated KV entries are *dirty*: they exist only in GPU memory.
//! Under the write-through policy every dirty token range is queued here and
//! synced to host memory in the background, so that when the scheduler later
//! preempts the request most of its cache has already been written back.
//!
//! The queue supports the paper's *priority-based write ordering*: requests
//! with larger output buffers are more likely to be preempted soon, so their
//! dirty tokens are flushed first (§5.2). A FIFO mode is kept for the
//! Figure 8 comparison.
//!
//! Every decode member appends one token per step, so the queue holds
//! about one entry per batch member and is pushed to once per member per
//! step. Entries are stored in arrival order, one per request, behind a
//! dense index from the caller's per-request slot to the entry's
//! position: push, merge, re-pricing, cancel and per-request lookups are
//! O(1), and an entry's position doubles as its FIFO rank. The
//! [`KvManager`](crate::KvManager) passes the slot its own state table
//! keeps the request in, so the index is bounded by the requests holding
//! KV, not by every id ever seen. [`WriteQueue::pull_into`] orders
//! the queue once per pump — one O(Q log Q) sort of `(priority key,
//! position)` pairs in priority mode, none in FIFO mode — drains entries
//! in that order, and compacts the drained ones away in one O(Q) pass.
//!
//! Order matters only when a compute window cannot sync everything
//! queued. When it can, [`KvManager::run_window`] does not pull: it
//! reads the entries once and drains the whole queue in arrival order,
//! O(Q) with no sort and no re-pricing.
//!
//! [`KvManager::run_window`]: crate::KvManager::run_window

use tokenflow_sim::RequestId;

/// Slot-index value of a slot with nothing queued.
const VACANT: usize = usize::MAX;

/// One request's pending dirty tokens. An entry with no tokens is a
/// cancelled one awaiting the next pull's compaction.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WriteItem {
    req: RequestId,
    /// The caller's slot for `req`, which keys the index.
    slot: u32,
    tokens: u64,
    /// Larger = flushed earlier in priority mode (the owner's buffer size).
    priority: f64,
}

/// The sort key that flushes higher priorities first: the priority's
/// IEEE bits mapped to an integer whose ascending order is the float's
/// descending order. `-0.0` is folded into `0.0` first, so the two zeros
/// tie exactly as `==` ties them.
fn descending(priority: f64) -> u64 {
    debug_assert!(!priority.is_nan(), "write priority must not be NaN");
    let bits = (priority + 0.0).to_bits();
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    !ascending
}

/// A chunk pulled from the queue, ready to enqueue on the D2H stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteChunk {
    /// Owning request.
    pub req: RequestId,
    /// Tokens in the chunk.
    pub tokens: u64,
}

/// The pending write-through buffer.
///
/// Each request is named by its id and by a dense `slot` the caller
/// assigns: no two requests with pending tokens may share a slot, and a
/// slot is free for reuse once its request's tokens are pulled or
/// cancelled. The index grows to the largest slot ever pushed.
/// Priorities must not be NaN.
///
/// # Examples
///
/// ```
/// use tokenflow_kv::WriteQueue;
/// use tokenflow_sim::RequestId;
///
/// let mut q = WriteQueue::new(true);
/// q.push(RequestId(7), 0, 100, 5.0);
/// q.push(RequestId(9), 1, 100, 50.0); // bigger buffer: flushed first
/// let chunks = q.pull(64, 64);
/// assert_eq!(chunks[0].req, RequestId(9));
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteQueue {
    /// Entries in arrival order: a request's entry is created by its
    /// first push after the queue last held none of its tokens, and keeps
    /// its place through merges, so position order is FIFO order.
    items: Vec<WriteItem>,
    /// `slots[slot]` is the position of the live entry pushed under
    /// `slot` in `items`, or [`VACANT`].
    slots: Vec<usize>,
    /// Retained pull scratch: `(flush key, position)` per live entry.
    order: Vec<(u64, usize)>,
    /// Sum of `tokens` over `items`.
    pending: u64,
    priority_mode: bool,
}

impl WriteQueue {
    /// Creates a queue; `priority_mode` selects buffer-priority ordering
    /// (the paper's default) over FIFO.
    pub fn new(priority_mode: bool) -> Self {
        WriteQueue {
            priority_mode,
            ..WriteQueue::default()
        }
    }

    /// The position of the live entry pushed under `slot`, if any.
    fn position(&self, slot: u32) -> Option<usize> {
        self.slots
            .get(slot as usize)
            .copied()
            .filter(|&pos| pos != VACANT)
    }

    fn entry_mut(&mut self, slot: u32) -> Option<&mut WriteItem> {
        let pos = self.position(slot)?;
        self.items.get_mut(pos)
    }

    /// Points `slot` at `pos`, growing the index on first touch.
    fn set_slot(&mut self, slot: u32, pos: usize) {
        let idx = slot as usize;
        if self.slots.len() <= idx {
            self.slots.resize(idx + 1, VACANT);
        }
        if let Some(entry) = self.slots.get_mut(idx) {
            *entry = pos;
        }
    }

    /// Adds `tokens` dirty tokens for `req`, held in `slot`, at the given
    /// priority, merging with the slot's existing entry if present.
    pub fn push(&mut self, req: RequestId, slot: u32, tokens: u64, priority: f64) {
        if tokens == 0 {
            return;
        }
        self.pending += tokens;
        if let Some(item) = self.entry_mut(slot) {
            debug_assert_eq!(item.req, req, "two requests share write slot {slot}");
            item.tokens += tokens;
            item.priority = priority;
            return;
        }
        self.set_slot(slot, self.items.len());
        self.items.push(WriteItem {
            req,
            slot,
            tokens,
            priority,
        });
    }

    /// Updates the flush priority of the pending tokens in `slot`.
    pub fn set_priority(&mut self, slot: u32, priority: f64) {
        if let Some(item) = self.entry_mut(slot) {
            item.priority = priority;
        }
    }

    /// Re-prices every queued entry in one pass: `f` returns the new
    /// priority for a request, or `None` to leave it unchanged. Each
    /// queued request is asked once.
    ///
    /// This is the bulk form of [`WriteQueue::set_priority`] for callers
    /// updating many requests per step.
    pub fn retune<F: FnMut(RequestId) -> Option<f64>>(&mut self, mut f: F) {
        for item in self.items.iter_mut().filter(|i| i.tokens > 0) {
            if let Some(p) = f(item.req) {
                item.priority = p;
            }
        }
    }

    /// Removes and returns all pending tokens in `slot` (used when its
    /// request is preempted — the remainder flushes via the eviction path —
    /// or released), which frees the slot. The emptied entry keeps its
    /// place until the next pull compacts it away.
    pub fn cancel(&mut self, slot: u32) -> u64 {
        let Some(pos) = self.position(slot) else {
            return 0;
        };
        self.set_slot(slot, VACANT);
        let tokens = self
            .items
            .get_mut(pos)
            .map_or(0, |item| std::mem::take(&mut item.tokens));
        self.pending -= tokens;
        tokens
    }

    /// Pulls up to `budget` tokens of chunks, each at most `max_chunk`
    /// tokens, in flush order.
    ///
    /// In priority mode the highest-priority request flushes first; ties
    /// break FIFO. Partial pulls leave the remainder queued.
    pub fn pull(&mut self, budget: u64, max_chunk: u64) -> Vec<WriteChunk> {
        let mut out = Vec::new();
        self.pull_into(budget, max_chunk, &mut out);
        out
    }

    /// [`WriteQueue::pull`] into a caller-retained buffer (cleared first),
    /// for per-step callers that must not allocate in the steady state.
    ///
    /// Orders the live entries once (by `(priority key, position)` in
    /// priority mode, by position alone in FIFO mode), drains them in
    /// that order (the last one possibly in part), then compacts every
    /// emptied entry away and re-points the survivors' slots. All scratch
    /// is retained, so nothing allocates once the queue has reached its
    /// high-water mark.
    pub fn pull_into(&mut self, budget: u64, max_chunk: u64, out: &mut Vec<WriteChunk>) {
        assert!(max_chunk > 0, "max_chunk must be positive");
        out.clear();
        if budget == 0 || self.pending == 0 {
            return;
        }
        let priority_mode = self.priority_mode;
        self.order.clear();
        self.order.extend(
            self.items
                .iter()
                .enumerate()
                .filter(|(_, item)| item.tokens > 0)
                .map(|(pos, item)| {
                    let key = if priority_mode {
                        descending(item.priority)
                    } else {
                        0
                    };
                    (key, pos)
                }),
        );
        if priority_mode {
            self.order.sort_unstable();
        }
        let mut remaining = budget;
        for &(_, pos) in &self.order {
            let Some(item) = self.items.get_mut(pos) else {
                continue;
            };
            while item.tokens > 0 && remaining > 0 {
                let take = item.tokens.min(max_chunk).min(remaining);
                item.tokens -= take;
                remaining -= take;
                out.push(WriteChunk {
                    req: item.req,
                    tokens: take,
                });
            }
            if item.tokens > 0 {
                break; // budget spent mid-entry
            }
            if let Some(entry) = self.slots.get_mut(item.slot as usize) {
                *entry = VACANT;
            }
        }
        self.pending -= budget - remaining;
        self.items.retain(|item| item.tokens > 0);
        for (pos, item) in self.items.iter().enumerate() {
            if let Some(entry) = self.slots.get_mut(item.slot as usize) {
                *entry = pos;
            }
        }
    }

    /// The slot of every request with pending tokens and its count, in
    /// arrival order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.items
            .iter()
            .filter(|item| item.tokens > 0)
            .map(|item| (item.slot, item.tokens))
    }

    /// Empties the queue, handing the slot of each request with pending
    /// tokens and its count to `f` in arrival order: for a caller that
    /// syncs every pending token at once. O(Q), and the storage is
    /// retained.
    pub(crate) fn drain<F: FnMut(u32, u64)>(&mut self, mut f: F) {
        for item in self.items.drain(..) {
            if let Some(entry) = self.slots.get_mut(item.slot as usize) {
                *entry = VACANT;
            }
            if item.tokens > 0 {
                f(item.slot, item.tokens);
            }
        }
        self.pending = 0;
    }

    /// Total pending tokens.
    pub fn pending_tokens(&self) -> u64 {
        self.pending
    }

    /// Pending tokens in `slot`.
    pub fn pending_for(&self, slot: u32) -> u64 {
        self.position(slot)
            .and_then(|pos| self.items.get(pos))
            .map_or(0, |item| item.tokens)
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u64) -> RequestId {
        RequestId(i)
    }

    #[test]
    fn push_merges_same_request() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 0, 10, 1.0);
        q.push(r(0), 0, 5, 2.0);
        assert_eq!(q.pending_for(0), 15);
        assert_eq!(q.pending_tokens(), 15);
    }

    #[test]
    fn priority_mode_flushes_largest_buffer_first() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 0, 100, 1.0);
        q.push(r(1), 1, 100, 9.0);
        q.push(r(2), 2, 100, 5.0);
        let order: Vec<u64> = q.pull(300, 100).iter().map(|c| c.req.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn fifo_mode_preserves_arrival_order() {
        let mut q = WriteQueue::new(false);
        q.push(r(0), 0, 100, 1.0);
        q.push(r(1), 1, 100, 9.0);
        let order: Vec<u64> = q.pull(200, 100).iter().map(|c| c.req.0).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn pull_respects_budget_and_chunk_size() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 0, 1000, 1.0);
        let chunks = q.pull(300, 128);
        let total: u64 = chunks.iter().map(|c| c.tokens).sum();
        assert_eq!(total, 300);
        assert!(chunks.iter().all(|c| c.tokens <= 128));
        assert_eq!(q.pending_for(0), 700);
    }

    #[test]
    fn pull_stops_when_empty() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 0, 50, 1.0);
        let chunks = q.pull(1000, 64);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].tokens, 50);
        assert!(q.is_empty());
        assert!(q.pull(100, 64).is_empty());
    }

    #[test]
    fn cancel_removes_pending() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 0, 40, 1.0);
        q.push(r(1), 1, 60, 2.0);
        assert_eq!(q.cancel(0), 40);
        assert_eq!(q.pending_tokens(), 60);
        assert_eq!(q.cancel(0), 0);
    }

    #[test]
    fn set_priority_reorders() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 0, 10, 1.0);
        q.push(r(1), 1, 10, 2.0);
        q.set_priority(0, 10.0);
        let order: Vec<u64> = q.pull(20, 10).iter().map(|c| c.req.0).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn priority_ties_break_fifo() {
        let mut q = WriteQueue::new(true);
        q.push(r(5), 5, 10, 3.0);
        q.push(r(6), 6, 10, 3.0);
        let order: Vec<u64> = q.pull(20, 10).iter().map(|c| c.req.0).collect();
        assert_eq!(order, vec![5, 6]);
    }

    #[test]
    fn zero_push_is_noop() {
        let mut q = WriteQueue::new(true);
        q.push(r(0), 0, 0, 1.0);
        assert!(q.is_empty());
    }
}
