//! The per-request output token buffer.
//!
//! Semantics (paper §3.2): the user starts reading when the first token
//! arrives (TTFT), then attempts to consume one token every `1/r` seconds.
//! If the buffer is empty at a scheduled read the user *stalls*; when the
//! next token arrives it is consumed immediately, the accumulated waiting
//! time is charged as rebuffering, and the read cadence restarts from the
//! arrival instant.

use tokenflow_sim::{SimDuration, SimTime};

/// Reader state of a [`TokenBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReaderState {
    /// No token has arrived yet; the reader has not started.
    NotStarted,
    /// Reading steadily; the next consumption fires at the stored instant.
    Reading { next_read: SimTime },
    /// The buffer ran empty at the stored instant; waiting for a token.
    Stalled { since: SimTime },
}

/// A point-in-time summary of a buffer, for schedulers and metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferSnapshot {
    /// Tokens delivered so far.
    pub delivered: u64,
    /// Tokens the user has consumed so far.
    pub consumed: u64,
    /// Tokens sitting unread in the buffer.
    pub buffered: u64,
    /// Seconds of content in the buffer at the user's rate.
    pub buffered_secs: f64,
    /// Total rebuffering time experienced so far, including a stall that
    /// is still in progress.
    pub rebuffer: SimDuration,
    /// Number of distinct stall episodes (excluding initial wait).
    pub stall_events: u32,
    /// Whether the reader is currently stalled.
    pub stalled_now: bool,
}

/// The client-side token buffer state machine.
///
/// All updates are O(1) amortised: [`TokenBuffer::advance_to`] performs the
/// arithmetic for every read event in the elapsed window at once.
///
/// # Examples
///
/// ```
/// use tokenflow_client::TokenBuffer;
/// use tokenflow_sim::SimTime;
///
/// // A reader consuming 10 tokens/second.
/// let mut buf = TokenBuffer::new(10.0);
/// buf.on_tokens(SimTime::from_secs(1), 5); // 5 tokens arrive at t=1s
/// let snap = buf.snapshot(SimTime::from_secs(1));
/// assert_eq!(snap.buffered, 4); // the first token is consumed at TTFT
/// // 300ms later three more reads have fired.
/// let snap = buf.snapshot(SimTime::from_millis(1_300));
/// assert_eq!(snap.consumed, 4);
/// ```
#[derive(Debug, Clone)]
pub struct TokenBuffer {
    /// Consumption rate in tokens/second.
    rate: f64,
    /// Read cadence in microseconds (`1e6 / rate`, at least 1).
    interval_us: u64,
    delivered: u64,
    consumed: u64,
    state: ReaderState,
    first_token_at: Option<SimTime>,
    rebuffer: SimDuration,
    stall_events: u32,
    /// Latest instant the state machine has been advanced to.
    horizon: SimTime,
}

impl TokenBuffer {
    /// Creates a buffer for a reader consuming `rate` tokens/second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "consumption rate must be positive, got {rate}"
        );
        let interval_us = ((1e6 / rate).round() as u64).max(1);
        TokenBuffer {
            rate,
            interval_us,
            delivered: 0,
            consumed: 0,
            state: ReaderState::NotStarted,
            first_token_at: None,
            rebuffer: SimDuration::ZERO,
            stall_events: 0,
            horizon: SimTime::ZERO,
        }
    }

    /// Time the first token arrived, if any.
    pub fn first_token_at(&self) -> Option<SimTime> {
        self.first_token_at
    }

    /// Tokens delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Advances the reader to `t`, firing every read event in the window.
    ///
    /// Calling this with a time earlier than a previous call is a no-op for
    /// the earlier portion (the machine never rewinds).
    pub fn advance_to(&mut self, t: SimTime) {
        if t <= self.horizon {
            return;
        }
        if let ReaderState::Reading { next_read } = self.state {
            let mut next = next_read;
            while next <= t {
                if self.consumed < self.delivered {
                    self.consumed += 1;
                    next += SimDuration::from_micros(self.interval_us);
                } else {
                    // Buffer empty at a scheduled read: stall until a token
                    // arrives (handled in `on_tokens`).
                    self.state = ReaderState::Stalled { since: next };
                    self.stall_events += 1;
                    self.horizon = t;
                    return;
                }
            }
            self.state = ReaderState::Reading { next_read: next };
        }
        self.horizon = t;
    }

    /// Delivers `n` tokens at time `t`.
    ///
    /// The first delivery ever starts the reader (TTFT): the first token is
    /// consumed immediately, matching the paper's "the user starts reading
    /// at `t_ttft`".
    pub fn on_tokens(&mut self, t: SimTime, n: u64) {
        self.advance_to(t);
        if n == 0 {
            return;
        }
        self.delivered += n;
        match self.state {
            ReaderState::NotStarted => {
                self.first_token_at = Some(t);
                self.consumed += 1;
                self.state = ReaderState::Reading {
                    next_read: t + SimDuration::from_micros(self.interval_us),
                };
            }
            ReaderState::Stalled { since } => {
                // The reader was waiting: consume immediately, charge the
                // waiting time as rebuffering, restart the cadence from now.
                self.rebuffer += t.saturating_since(since);
                self.consumed += 1;
                self.state = ReaderState::Reading {
                    next_read: t + SimDuration::from_micros(self.interval_us),
                };
            }
            ReaderState::Reading { .. } => {}
        }
        self.horizon = t;
    }

    /// Delivers a single token at time `t`.
    pub fn on_token(&mut self, t: SimTime) {
        self.on_tokens(t, 1);
    }

    /// Tokens currently buffered (delivered but unread) at time `t`.
    pub fn buffered(&mut self, t: SimTime) -> u64 {
        self.advance_to(t);
        self.delivered - self.consumed
    }

    /// Instant at which the buffer fully drains assuming no further
    /// deliveries, or `None` if the reader never started.
    pub fn drain_end(&self) -> Option<SimTime> {
        match self.state {
            ReaderState::NotStarted => None,
            ReaderState::Stalled { since } => Some(since),
            ReaderState::Reading { next_read } => {
                let remaining = self.delivered - self.consumed;
                if remaining == 0 {
                    Some(self.horizon)
                } else {
                    Some(next_read + SimDuration::from_micros((remaining - 1) * self.interval_us))
                }
            }
        }
    }

    /// Point-in-time summary at `t`.
    pub fn snapshot(&mut self, t: SimTime) -> BufferSnapshot {
        self.advance_to(t);
        let buffered = self.delivered - self.consumed;
        let stalled_now = matches!(self.state, ReaderState::Stalled { .. });
        BufferSnapshot {
            delivered: self.delivered,
            consumed: self.consumed,
            buffered,
            buffered_secs: buffered as f64 / self.rate,
            rebuffer: match self.state {
                ReaderState::Stalled { since } => self.rebuffer + t.saturating_since(since),
                _ => self.rebuffer,
            },
            stall_events: self.stall_events,
            stalled_now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn first_token_starts_reader_and_is_consumed() {
        let mut b = TokenBuffer::new(10.0);
        b.on_tokens(t(500), 1);
        assert_eq!(b.first_token_at(), Some(t(500)));
        let s = b.snapshot(t(500));
        assert_eq!(s.consumed, 1);
        assert_eq!(s.buffered, 0);
    }

    #[test]
    fn steady_consumption_matches_rate() {
        let mut b = TokenBuffer::new(10.0); // one read every 100 ms
        b.on_tokens(t(0), 100);
        // At t=0 one token is consumed; reads at 100,200,...,950 add 9 more.
        assert_eq!(b.snapshot(t(950)).consumed, 10);
        assert_eq!(b.snapshot(t(999)).consumed, 10);
        assert_eq!(b.snapshot(t(1000)).consumed, 11);
    }

    #[test]
    fn stall_charges_rebuffer_until_arrival() {
        let mut b = TokenBuffer::new(10.0);
        b.on_tokens(t(0), 2); // consumed at 0 and 100; empty at 200
        assert_eq!(b.snapshot(t(50)).buffered, 1);
        assert!(b.snapshot(t(200)).stalled_now);
        // Token arrives 250 ms after the stalled read.
        b.on_tokens(t(450), 1);
        let s = b.snapshot(t(450));
        assert!(!s.stalled_now);
        assert_eq!(s.rebuffer, SimDuration::from_millis(250));
        assert_eq!(s.consumed, 3);
        assert_eq!(s.stall_events, 1);
    }

    #[test]
    fn cadence_restarts_after_stall() {
        let mut b = TokenBuffer::new(10.0);
        b.on_tokens(t(0), 1); // consumed immediately; stall at 100
        b.on_tokens(t(300), 2); // one consumed at 300, next read at 400
        assert_eq!(b.snapshot(t(399)).consumed, 2);
        assert_eq!(b.snapshot(t(400)).consumed, 3);
    }

    #[test]
    fn ongoing_stall_counts_partial_rebuffer() {
        let mut b = TokenBuffer::new(10.0);
        b.on_tokens(t(0), 1);
        // Stall begins at 100; by 700 the partial stall is 600 ms.
        assert_eq!(b.snapshot(t(700)).rebuffer, SimDuration::from_millis(600));
        // No double counting once the token arrives.
        b.on_tokens(t(800), 1);
        assert_eq!(b.snapshot(t(900)).rebuffer, SimDuration::from_millis(700));
    }

    #[test]
    fn consumed_never_exceeds_delivered() {
        let mut b = TokenBuffer::new(50.0);
        b.on_tokens(t(0), 3);
        b.advance_to(t(10_000));
        let s = b.snapshot(t(10_000));
        assert_eq!(s.consumed, 3);
        assert_eq!(s.buffered, 0);
    }

    #[test]
    fn burst_delivery_buffers_excess() {
        let mut b = TokenBuffer::new(10.0);
        b.on_tokens(t(0), 50);
        let s = b.snapshot(t(2_000));
        // 1 at t=0 plus 20 reads in (0, 2000].
        assert_eq!(s.consumed, 21);
        assert_eq!(s.buffered, 29);
        assert!((s.buffered_secs - 2.9).abs() < 1e-9);
    }

    #[test]
    fn multiple_stalls_counted_separately() {
        let mut b = TokenBuffer::new(10.0);
        b.on_tokens(t(0), 1); // stall at 100
        b.on_tokens(t(200), 1); // consumed at 200; stall at 300
        b.on_tokens(t(500), 1); // consumed at 500
        let s = b.snapshot(t(500));
        assert_eq!(s.stall_events, 2);
        assert_eq!(s.rebuffer, SimDuration::from_millis(300));
    }

    #[test]
    fn drain_end_accounts_for_remaining_tokens() {
        let mut b = TokenBuffer::new(10.0);
        b.on_tokens(t(0), 5);
        b.advance_to(t(50));
        // Consumed: 1 at t=0. Remaining 4 read at 100, 200, 300, 400.
        assert_eq!(b.drain_end(), Some(t(400)));
    }

    #[test]
    fn drain_end_none_before_start() {
        let b = TokenBuffer::new(10.0);
        assert_eq!(b.drain_end(), None);
    }

    #[test]
    fn advance_is_idempotent_and_monotonic() {
        let mut b = TokenBuffer::new(25.0);
        b.on_tokens(t(0), 100);
        b.advance_to(t(1_000));
        let s1 = b.snapshot(t(1_000));
        b.advance_to(t(400)); // going backwards must not change anything
        let s2 = b.snapshot(t(1_000));
        assert_eq!(s1, s2);
    }

    #[test]
    fn very_fast_reader_tracks_deliveries() {
        let mut b = TokenBuffer::new(1_000_000.0); // 1 token per microsecond
        b.on_tokens(t(0), 10);
        assert_eq!(b.snapshot(SimTime::from_micros(9)).consumed, 10);
    }

    #[test]
    #[should_panic(expected = "consumption rate must be positive")]
    fn zero_rate_rejected() {
        let _ = TokenBuffer::new(0.0);
    }

    #[test]
    fn zero_token_delivery_is_noop() {
        let mut b = TokenBuffer::new(10.0);
        b.on_tokens(t(100), 0);
        assert_eq!(b.first_token_at(), None);
        assert_eq!(b.snapshot(t(100)).delivered, 0);
    }
}
