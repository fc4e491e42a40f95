//! Per-token utility weights.

/// Parameters of the QoS metric (Eq. 1–2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosParams {
    /// Buffer threshold `τ` as a fraction of the request's total output
    /// length; beyond it token usability starts to decay (Eq. 1).
    pub tau_frac: f64,
    /// Width of the decay window as a fraction of output length: utility
    /// reaches zero at `tau_frac + decay_frac`. This parameterises `α` of
    /// Eq. 1 as `α = 1 / (decay_frac · L)`.
    pub decay_frac: f64,
    /// TTFT penalty weight `λ` (utility lost per second of first-token
    /// delay, Eq. 2).
    pub lambda: f64,
    /// Rebuffering penalty weight `μ` (utility lost per second of stall,
    /// Eq. 2).
    pub mu: f64,
}

impl Default for QosParams {
    fn default() -> Self {
        QosParams {
            tau_frac: 0.10,
            decay_frac: 0.10,
            lambda: 1.0,
            mu: 2.0,
        }
    }
}

/// The QoS token weight `w_{i,j}` of Eq. 1.
///
/// `buffered` is the output-buffer occupancy at the moment the token is
/// generated; `output_len` is the request's total output length (the paper
/// ties `τ` to it).
///
/// # Examples
///
/// ```
/// use tokenflow_metrics::{qos_token_weight, QosParams};
///
/// let p = QosParams::default();
/// assert_eq!(qos_token_weight(0, 1000, &p), 1.0);    // buffer low: full value
/// assert_eq!(qos_token_weight(150, 1000, &p), 0.5);  // mid-decay
/// assert_eq!(qos_token_weight(400, 1000, &p), 0.0);  // far past the threshold
/// ```
pub fn qos_token_weight(buffered: u64, output_len: u64, params: &QosParams) -> f64 {
    let len = output_len.max(1) as f64;
    let tau = params.tau_frac * len;
    let b = buffered as f64;
    if b <= tau {
        return 1.0;
    }
    let alpha = 1.0 / (params.decay_frac * len);
    (1.0 - alpha * (b - tau)).max(0.0)
}

/// The effective-throughput weight of §7.1.3.
///
/// Tokens count fully while the buffer holds less than 10 % of the total
/// output length, decay linearly between 10 % and 20 %, and count zero
/// beyond — they exceed what is useful for a timely experience.
pub fn effective_weight(buffered: u64, output_len: u64) -> f64 {
    qos_token_weight(
        buffered,
        output_len,
        &QosParams {
            tau_frac: 0.10,
            decay_frac: 0.10,
            lambda: 0.0,
            mu: 0.0,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_weight_below_tau() {
        let p = QosParams::default();
        for b in [0, 50, 100] {
            assert_eq!(qos_token_weight(b, 1000, &p), 1.0);
        }
    }

    #[test]
    fn linear_decay_between_tau_and_cutoff() {
        let p = QosParams::default();
        let w150 = qos_token_weight(150, 1000, &p);
        let w175 = qos_token_weight(175, 1000, &p);
        assert!((w150 - 0.5).abs() < 1e-9);
        assert!((w175 - 0.25).abs() < 1e-9);
    }

    #[test]
    fn zero_beyond_cutoff() {
        let p = QosParams::default();
        assert_eq!(qos_token_weight(200, 1000, &p), 0.0);
        assert_eq!(qos_token_weight(999, 1000, &p), 0.0);
    }

    #[test]
    fn weight_always_in_unit_interval() {
        let p = QosParams::default();
        for b in (0..3000).step_by(7) {
            let w = qos_token_weight(b, 1000, &p);
            assert!((0.0..=1.0).contains(&w), "w({b}) = {w}");
        }
    }

    #[test]
    fn weight_monotone_in_buffer() {
        let p = QosParams::default();
        let mut prev = f64::MAX;
        for b in 0..500 {
            let w = qos_token_weight(b, 1000, &p);
            assert!(w <= prev);
            prev = w;
        }
    }

    #[test]
    fn effective_matches_paper_breakpoints() {
        // τ1 = 10 %, τ2 = 20 % of a 2000-token output.
        assert_eq!(effective_weight(199, 2000), 1.0);
        assert_eq!(effective_weight(200, 2000), 1.0);
        assert!((effective_weight(300, 2000) - 0.5).abs() < 1e-9);
        assert_eq!(effective_weight(400, 2000), 0.0);
    }

    #[test]
    fn tiny_outputs_do_not_divide_by_zero() {
        assert_eq!(effective_weight(0, 0), 1.0);
        let w = effective_weight(5, 1);
        assert!((0.0..=1.0).contains(&w));
    }
}
