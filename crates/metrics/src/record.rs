//! Per-request measurement, derived by the serving engine at run end.

use tokenflow_sim::{RequestId, SimDuration, SimTime};

/// Everything measured about one request over its lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMetrics {
    /// The request.
    pub id: RequestId,
    /// Submission time.
    pub arrival: SimTime,
    /// Required streaming rate, tokens/second.
    pub rate: f64,
    /// Target output length in tokens.
    pub output_len: u64,
    /// First-token time, if the request started generating.
    pub first_token_at: Option<SimTime>,
    /// Completion time, if the request finished.
    pub finished_at: Option<SimTime>,
    /// Tokens generated so far.
    pub generated: u64,
    /// Sum of effective-throughput weights over generated tokens (§7.1.3).
    pub effective_tokens: f64,
    /// Sum of QoS token weights over generated tokens (Eq. 1).
    pub qos_weight_sum: f64,
    /// Total rebuffering (stall) time experienced by the reader.
    pub rebuffer: SimDuration,
    /// Number of distinct stall episodes.
    pub stall_events: u32,
    /// Times this request was preempted (evicted or discarded).
    pub preemptions: u32,
    /// Times this request's KV was recomputed rather than reloaded.
    pub recomputes: u32,
}

impl RequestMetrics {
    /// Creates an empty record for a request.
    pub fn new(id: RequestId, arrival: SimTime, rate: f64, output_len: u64) -> Self {
        RequestMetrics {
            id,
            arrival,
            rate,
            output_len,
            first_token_at: None,
            finished_at: None,
            generated: 0,
            effective_tokens: 0.0,
            qos_weight_sum: 0.0,
            rebuffer: SimDuration::ZERO,
            stall_events: 0,
            preemptions: 0,
            recomputes: 0,
        }
    }

    /// Time-to-first-token, if the first token was produced.
    pub fn ttft(&self) -> Option<SimDuration> {
        self.first_token_at
            .map(|t| t.saturating_since(self.arrival))
    }

    /// Whether the request ran to completion.
    pub fn completed(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Average generation speed over the request's active lifetime,
    /// tokens/second, if measurable.
    pub fn mean_generation_rate(&self) -> Option<f64> {
        let first = self.first_token_at?;
        let last = self.finished_at?;
        let span = last.saturating_since(first).as_secs_f64();
        if span <= 0.0 || self.generated < 2 {
            return None;
        }
        Some((self.generated - 1) as f64 / span)
    }

    /// The per-request QoS contribution of Eq. 2 (before dividing by the
    /// run duration `T`): `Σ_j w_ij − λ·ttft − μ·rebuffer`.
    pub fn qos_contribution(&self, lambda: f64, mu: f64) -> f64 {
        let ttft = self.ttft().map_or(0.0, |d| d.as_secs_f64());
        self.qos_weight_sum - lambda * ttft - mu * self.rebuffer.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RequestMetrics {
        let mut m = RequestMetrics::new(RequestId(1), SimTime::from_secs(10), 20.0, 100);
        m.first_token_at = Some(SimTime::from_secs(12));
        m.finished_at = Some(SimTime::from_secs(22));
        m.generated = 101;
        m.qos_weight_sum = 90.0;
        m.rebuffer = SimDuration::from_secs(1);
        m
    }

    #[test]
    fn ttft_measured_from_arrival() {
        assert_eq!(sample().ttft(), Some(SimDuration::from_secs(2)));
        let empty = RequestMetrics::new(RequestId(0), SimTime::ZERO, 10.0, 10);
        assert_eq!(empty.ttft(), None);
    }

    #[test]
    fn generation_rate_uses_active_span() {
        // 100 inter-token intervals over 10 s = 10 tokens/s.
        assert_eq!(sample().mean_generation_rate(), Some(10.0));
    }

    #[test]
    fn generation_rate_none_when_unmeasurable() {
        let mut m = RequestMetrics::new(RequestId(0), SimTime::ZERO, 10.0, 10);
        assert_eq!(m.mean_generation_rate(), None);
        m.first_token_at = Some(SimTime::from_secs(1));
        m.finished_at = Some(SimTime::from_secs(1));
        m.generated = 1;
        assert_eq!(m.mean_generation_rate(), None);
    }

    #[test]
    fn qos_contribution_applies_penalties() {
        let m = sample();
        // 90 − 1·2 (ttft) − 2·1 (rebuffer) = 86.
        assert_eq!(m.qos_contribution(1.0, 2.0), 86.0);
        // Penalty-free equals the weight sum.
        assert_eq!(m.qos_contribution(0.0, 0.0), 90.0);
    }
}
