//! The dual-stream host-link (PCIe) transfer engine.
//!
//! Real serving stacks drive GPU↔CPU copies through dedicated CUDA copy
//! engines — one per direction — so host-to-device loads and
//! device-to-host evictions proceed concurrently at full duplex bandwidth.
//! This module models exactly that: two independent FIFO streams, each
//! draining at the profile's bandwidth with a fixed per-transfer setup
//! latency.
//!
//! Completion times are assigned at enqueue time (the streams are strictly
//! FIFO and transfers are never cancelled; reordering happens upstream in
//! the [write queue](crate::write_queue) before chunks reach the stream),
//! which keeps the engine exact and O(1) per operation.

use std::collections::VecDeque;

use tokenflow_sim::{RequestId, SimDuration, SimTime};

/// Transfer direction over the host link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Host (CPU) to device (GPU): resume loads.
    H2D,
    /// Device (GPU) to host (CPU): write-through sync and evictions.
    D2H,
}

/// What a transfer chunk is for; returned with its completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferTag {
    /// Background write-through sync of `tokens` newly generated tokens.
    WriteThrough {
        /// Owning request.
        req: RequestId,
        /// Tokens in the chunk.
        tokens: u64,
    },
    /// Eviction flush of dirty tokens during preemption.
    Evict {
        /// Owning request.
        req: RequestId,
        /// Tokens in the chunk.
        tokens: u64,
        /// Whether this is the final chunk of the eviction.
        last: bool,
    },
    /// Resume load of tokens back to the GPU.
    Load {
        /// Owning request.
        req: RequestId,
        /// Tokens in the chunk.
        tokens: u64,
        /// Whether this is the final chunk of the load.
        last: bool,
    },
}

impl TransferTag {
    /// The request the chunk belongs to.
    pub fn request(&self) -> RequestId {
        match *self {
            TransferTag::WriteThrough { req, .. }
            | TransferTag::Evict { req, .. }
            | TransferTag::Load { req, .. } => req,
        }
    }
}

/// A finished transfer, reported by [`PcieEngine::advance_to`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferCompletion {
    /// Direction the chunk travelled.
    pub direction: Direction,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Time the chunk finished.
    pub completed_at: SimTime,
    /// What the chunk was for.
    pub tag: TransferTag,
}

#[derive(Debug, Clone)]
struct Stream {
    /// Pending transfers with precomputed completion times, FIFO.
    queue: VecDeque<(SimTime, u64, TransferTag)>,
    /// Instant the stream becomes idle given everything enqueued so far.
    free_at: SimTime,
    /// Total bytes ever enqueued (for conservation checks).
    enqueued_bytes: u64,
    /// Total bytes ever completed.
    completed_bytes: u64,
}

impl Stream {
    fn new() -> Self {
        Stream {
            queue: VecDeque::new(),
            free_at: SimTime::ZERO,
            enqueued_bytes: 0,
            completed_bytes: 0,
        }
    }

    fn pending_bytes(&self) -> u64 {
        self.enqueued_bytes - self.completed_bytes
    }
}

/// The dual-stream transfer engine.
///
/// # Examples
///
/// ```
/// use tokenflow_kv::{Direction, PcieEngine, TransferTag};
/// use tokenflow_sim::{RequestId, SimTime};
///
/// let mut pcie = PcieEngine::new(25.0e9, 15); // PCIe 4.0-ish
/// let tag = TransferTag::WriteThrough { req: RequestId(0), tokens: 256 };
/// pcie.enqueue(Direction::D2H, 1 << 20, tag, SimTime::ZERO);
/// // A 1 MiB chunk at 25 GB/s plus 15 us setup finishes within ~57 us.
/// let done = pcie.advance_to(SimTime::from_micros(100));
/// assert_eq!(done.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PcieEngine {
    /// Per-direction bandwidth in bytes/second.
    bandwidth: f64,
    /// Fixed setup latency per transfer.
    latency: SimDuration,
    /// Multiplier on transfer durations (`1.0` = nominal). Fault
    /// injection raises it over a link-fault window; completions already
    /// assigned keep their enqueue-time duration, so changing it at an
    /// arrival barrier is deterministic.
    slowdown: f64,
    h2d: Stream,
    d2h: Stream,
    /// When set, the two directions share one serialized channel — the
    /// §5.3 baseline that trades staging memory for operation
    /// serialization. Full duplex is the default.
    half_duplex: bool,
}

impl PcieEngine {
    /// Creates a full-duplex engine with the given per-direction bandwidth
    /// (bytes/s) and per-transfer setup latency (microseconds).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not strictly positive.
    pub fn new(bandwidth: f64, latency_us: u64) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        PcieEngine {
            bandwidth,
            latency: SimDuration::from_micros(latency_us),
            slowdown: 1.0,
            h2d: Stream::new(),
            d2h: Stream::new(),
            half_duplex: false,
        }
    }

    /// Creates a half-duplex engine: loads and evictions serialize on one
    /// shared channel (the no-overlap ablation baseline).
    pub fn new_half_duplex(bandwidth: f64, latency_us: u64) -> Self {
        let mut engine = Self::new(bandwidth, latency_us);
        engine.half_duplex = true;
        engine
    }

    fn stream(&self, dir: Direction) -> &Stream {
        match dir {
            Direction::H2D => &self.h2d,
            Direction::D2H => &self.d2h,
        }
    }

    fn stream_mut(&mut self, dir: Direction) -> &mut Stream {
        match dir {
            Direction::H2D => &mut self.h2d,
            Direction::D2H => &mut self.d2h,
        }
    }

    /// Pure transfer duration for `bytes` (setup latency included).
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes as f64 * self.slowdown / self.bandwidth)
    }

    /// Sets the link slowdown multiplier (`1.0` restores nominal speed).
    /// Only transfers enqueued *after* the call are affected — in-flight
    /// chunks keep the completion time assigned at enqueue.
    ///
    /// # Panics
    ///
    /// Panics unless `slowdown` is finite and at least `1.0`.
    pub fn set_slowdown(&mut self, slowdown: f64) {
        assert!(
            slowdown.is_finite() && slowdown >= 1.0,
            "link slowdown must be finite and >= 1.0"
        );
        self.slowdown = slowdown;
    }

    /// Link bandwidth in bytes/second (per direction).
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// When a transfer enqueued in `dir` at `now` starts: once the
    /// stream (on a half-duplex link, both streams) has drained its
    /// queued work, and not before `now`.
    pub(crate) fn start_at(&self, dir: Direction, now: SimTime) -> SimTime {
        let floor = if self.half_duplex {
            // One shared channel: a transfer starts only after *both*
            // directions drain.
            self.h2d.free_at.max(self.d2h.free_at)
        } else {
            self.stream(dir).free_at
        };
        floor.max(now)
    }

    /// Enqueues a transfer; returns its completion time.
    pub fn enqueue(
        &mut self,
        dir: Direction,
        bytes: u64,
        tag: TransferTag,
        now: SimTime,
    ) -> SimTime {
        let done = self.start_at(dir, now) + self.transfer_time(bytes);
        let stream = self.stream_mut(dir);
        stream.free_at = done;
        stream.enqueued_bytes += bytes;
        stream.queue.push_back((done, bytes, tag));
        done
    }

    /// Books a back-to-back run of transfers in `dir`, `bytes` in all,
    /// that ends at `done` and has completed by the caller's next
    /// advance: the stream is busy until `done` and both byte counters
    /// grow, but nothing is queued and no completion is reported. The
    /// caller owns what the completions would have done.
    pub(crate) fn settle(&mut self, dir: Direction, done: SimTime, bytes: u64) {
        let stream = self.stream_mut(dir);
        stream.free_at = done;
        stream.enqueued_bytes += bytes;
        stream.completed_bytes += bytes;
    }

    /// Advances both streams to `t`, returning completions in time order.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<TransferCompletion> {
        let mut out = Vec::new();
        self.advance_into(t, &mut out);
        out
    }

    /// [`PcieEngine::advance_to`] into a caller-retained buffer (cleared
    /// first); the per-step path reuses one allocation across calls.
    pub fn advance_into(&mut self, t: SimTime, out: &mut Vec<TransferCompletion>) {
        out.clear();
        for dir in [Direction::H2D, Direction::D2H] {
            let stream = self.stream_mut(dir);
            while let Some(&(done, bytes, tag)) = stream.queue.front() {
                if done > t {
                    break;
                }
                stream.queue.pop_front();
                stream.completed_bytes += bytes;
                out.push(TransferCompletion {
                    direction: dir,
                    bytes,
                    completed_at: done,
                    tag,
                });
            }
        }
        out.sort_by_key(|c| c.completed_at);
    }

    /// Number of transfers queued (including in flight) in a direction.
    pub fn queue_len(&self, dir: Direction) -> usize {
        self.stream(dir).queue.len()
    }

    /// Bytes queued but not yet completed in a direction.
    pub fn queue_bytes(&self, dir: Direction) -> u64 {
        self.stream(dir).pending_bytes()
    }

    /// Time until the direction's queue fully drains, measured from `now`.
    pub fn eta(&self, dir: Direction, now: SimTime) -> SimDuration {
        self.stream(dir).free_at.saturating_since(now)
    }

    /// Earliest pending completion across both streams, if any.
    pub fn next_completion(&self) -> Option<SimTime> {
        let h = self.h2d.queue.front().map(|&(t, ..)| t);
        let d = self.d2h.queue.front().map(|&(t, ..)| t);
        match (h, d) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// True when neither stream has pending work.
    pub fn is_idle(&self) -> bool {
        self.h2d.queue.is_empty() && self.d2h.queue.is_empty()
    }

    /// Total bytes completed in a direction since construction.
    pub fn completed_bytes(&self, dir: Direction) -> u64 {
        self.stream(dir).completed_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(req: u64) -> TransferTag {
        TransferTag::WriteThrough {
            req: RequestId(req),
            tokens: 1,
        }
    }

    #[test]
    fn transfer_time_is_latency_plus_bytes_over_bw() {
        // 1 GB/s with 10 us setup: 1 MB transfers in 1 ms, plus 10 us.
        let p = PcieEngine::new(1e9, 10);
        assert_eq!(p.transfer_time(1_000_000), SimDuration::from_micros(1_010));
    }

    #[test]
    fn fifo_serialization_within_stream() {
        let mut p = PcieEngine::new(1e9, 0);
        let d1 = p.enqueue(Direction::D2H, 1_000_000, tag(0), SimTime::ZERO);
        let d2 = p.enqueue(Direction::D2H, 1_000_000, tag(1), SimTime::ZERO);
        assert_eq!(d1, SimTime::from_millis(1));
        assert_eq!(d2, SimTime::from_millis(2));
    }

    #[test]
    fn directions_are_independent() {
        let mut p = PcieEngine::new(1e9, 0);
        let d = p.enqueue(Direction::D2H, 1_000_000, tag(0), SimTime::ZERO);
        let h = p.enqueue(Direction::H2D, 1_000_000, tag(1), SimTime::ZERO);
        // Full duplex: both finish at 1 ms, not serialized.
        assert_eq!(d, SimTime::from_millis(1));
        assert_eq!(h, SimTime::from_millis(1));
    }

    #[test]
    fn enqueue_after_idle_starts_at_now() {
        let mut p = PcieEngine::new(1e9, 0);
        p.enqueue(Direction::D2H, 1_000_000, tag(0), SimTime::ZERO);
        p.advance_to(SimTime::from_secs(10));
        let done = p.enqueue(Direction::D2H, 1_000_000, tag(1), SimTime::from_secs(10));
        assert_eq!(done, SimTime::from_secs(10) + SimDuration::from_millis(1));
    }

    #[test]
    fn advance_returns_only_due_completions() {
        let mut p = PcieEngine::new(1e9, 0);
        p.enqueue(Direction::D2H, 1_000_000, tag(0), SimTime::ZERO);
        p.enqueue(Direction::D2H, 3_000_000, tag(1), SimTime::ZERO);
        let done = p.advance_to(SimTime::from_millis(2));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].bytes, 1_000_000);
        let done = p.advance_to(SimTime::from_millis(4));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].bytes, 3_000_000);
        assert!(p.is_idle());
    }

    #[test]
    fn byte_conservation() {
        let mut p = PcieEngine::new(2e9, 5);
        let mut total = 0u64;
        for i in 0..50 {
            let b = 10_000 * (i + 1);
            total += b;
            p.enqueue(Direction::H2D, b, tag(i), SimTime::ZERO);
        }
        assert_eq!(p.queue_bytes(Direction::H2D), total);
        let done = p.advance_to(SimTime::from_secs(100));
        let done_bytes: u64 = done.iter().map(|c| c.bytes).sum();
        assert_eq!(done_bytes, total);
        assert_eq!(p.completed_bytes(Direction::H2D), total);
        assert_eq!(p.queue_bytes(Direction::H2D), 0);
    }

    #[test]
    fn eta_reflects_queue_depth() {
        let mut p = PcieEngine::new(1e9, 0);
        assert_eq!(p.eta(Direction::D2H, SimTime::ZERO), SimDuration::ZERO);
        p.enqueue(Direction::D2H, 5_000_000, tag(0), SimTime::ZERO);
        assert_eq!(
            p.eta(Direction::D2H, SimTime::ZERO),
            SimDuration::from_millis(5)
        );
        assert_eq!(
            p.eta(Direction::D2H, SimTime::from_millis(2)),
            SimDuration::from_millis(3)
        );
    }

    #[test]
    fn next_completion_spans_both_streams() {
        let mut p = PcieEngine::new(1e9, 0);
        assert_eq!(p.next_completion(), None);
        p.enqueue(Direction::D2H, 5_000_000, tag(0), SimTime::ZERO);
        p.enqueue(Direction::H2D, 1_000_000, tag(1), SimTime::ZERO);
        assert_eq!(p.next_completion(), Some(SimTime::from_millis(1)));
    }

    #[test]
    fn half_duplex_serialises_directions() {
        let mut p = PcieEngine::new_half_duplex(1e9, 0);
        let d = p.enqueue(Direction::D2H, 1_000_000, tag(0), SimTime::ZERO);
        let h = p.enqueue(Direction::H2D, 1_000_000, tag(1), SimTime::ZERO);
        assert_eq!(d, SimTime::from_millis(1));
        assert_eq!(h, SimTime::from_millis(2), "H2D must wait for D2H");
    }

    #[test]
    fn completions_sorted_across_streams() {
        let mut p = PcieEngine::new(1e9, 0);
        p.enqueue(Direction::D2H, 2_000_000, tag(0), SimTime::ZERO);
        p.enqueue(Direction::H2D, 1_000_000, tag(1), SimTime::ZERO);
        let done = p.advance_to(SimTime::from_secs(1));
        assert_eq!(done.len(), 2);
        assert!(done[0].completed_at <= done[1].completed_at);
        assert_eq!(done[0].direction, Direction::H2D);
    }
}
