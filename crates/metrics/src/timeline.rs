//! Per-request token generation timelines (Figures 18/19).
//!
//! A timeline records the cumulative token count of one request at each
//! generation instant. Plateaus in the curve are preemption intervals; the
//! slope between plateaus is the instantaneous generation rate.

use tokenflow_sim::{RequestId, SimTime};

/// Cumulative token-generation timeline of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenTimeline {
    /// The request.
    pub id: RequestId,
    /// `(time, cumulative tokens)` samples, one per generated token.
    points: Vec<(SimTime, u64)>,
}

impl TokenTimeline {
    /// Creates an empty timeline.
    pub fn new(id: RequestId) -> Self {
        TokenTimeline {
            id,
            points: Vec::new(),
        }
    }

    /// Creates an empty timeline sized for `tokens` samples up front.
    ///
    /// A timeline records one point per generated token, so the final
    /// length is known at admission (the request's output budget);
    /// reserving it once avoids the log₂(n) reallocation-and-copy ladder
    /// of growing through `push`.
    pub fn with_capacity(id: RequestId, tokens: u64) -> Self {
        TokenTimeline {
            id,
            points: Vec::with_capacity(tokens as usize),
        }
    }

    /// Records that the request's cumulative count reached `tokens` at `t`.
    pub fn record(&mut self, t: SimTime, tokens: u64) {
        debug_assert!(
            self.points
                .last()
                .is_none_or(|&(pt, pc)| t >= pt && tokens >= pc),
            "timeline must be monotone"
        );
        self.points.push((t, tokens));
    }

    /// All samples.
    pub fn points(&self) -> &[(SimTime, u64)] {
        &self.points
    }

    /// Cumulative tokens at time `t` (step interpolation).
    pub fn tokens_at(&self, t: SimTime) -> u64 {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(mut i) => {
                // Several tokens can share a timestamp; take the last.
                while i + 1 < self.points.len() && self.points[i + 1].0 == t {
                    i += 1;
                }
                self.points[i].1
            }
            Err(0) => 0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Longest interval with no token progress (the deepest plateau), in
    /// seconds — preemption gaps show up here.
    pub fn longest_plateau_secs(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| (w[1].0 - w[0].0).as_secs_f64())
            .fold(0.0, f64::max)
    }

    /// Mean generation rate between the first and last sample,
    /// tokens/second.
    pub fn mean_rate(&self) -> Option<f64> {
        let first = self.points.first()?;
        let last = self.points.last()?;
        let span = (last.0 - first.0).as_secs_f64();
        if span <= 0.0 {
            return None;
        }
        Some((last.1 - first.1) as f64 / span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(points: &[(u64, u64)]) -> TokenTimeline {
        let mut tl = TokenTimeline::new(RequestId(0));
        for &(ms, n) in points {
            tl.record(SimTime::from_millis(ms), n);
        }
        tl
    }

    #[test]
    fn tokens_at_steps_between_points() {
        let tl = timeline(&[(100, 1), (200, 2), (300, 3)]);
        assert_eq!(tl.tokens_at(SimTime::from_millis(50)), 0);
        assert_eq!(tl.tokens_at(SimTime::from_millis(100)), 1);
        assert_eq!(tl.tokens_at(SimTime::from_millis(250)), 2);
        assert_eq!(tl.tokens_at(SimTime::from_millis(300)), 3);
        assert_eq!(tl.tokens_at(SimTime::from_millis(999)), 3);
    }

    #[test]
    fn tokens_at_with_shared_timestamps() {
        let tl = timeline(&[(100, 1), (100, 2), (100, 3)]);
        assert_eq!(tl.tokens_at(SimTime::from_millis(100)), 3);
    }

    #[test]
    fn plateau_detection() {
        // Steady until 300 ms, then a 2-second gap (preemption), then more.
        let tl = timeline(&[(100, 1), (200, 2), (300, 3), (2_300, 4), (2_400, 5)]);
        assert!((tl.longest_plateau_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mean_rate_over_span() {
        let tl = timeline(&[(0, 1), (1_000, 21)]);
        assert_eq!(tl.mean_rate(), Some(20.0));
        assert_eq!(TokenTimeline::new(RequestId(0)).mean_rate(), None);
    }
}
