//! Arrival processes and the workload generator.

use tokenflow_sim::{SimDuration, SimRng, SimTime};

use crate::dist::{LengthDist, RateDist};
use crate::request::{RequestSpec, Workload};

/// How requests arrive over time.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// `size` requests submitted simultaneously at `at` — the flash-crowd
    /// scenario of §7.3.
    Burst {
        /// Number of simultaneous requests.
        size: u32,
        /// Burst instant.
        at: SimTime,
    },
    /// Homogeneous Poisson arrivals at `rate` requests/second for
    /// `duration`.
    Poisson {
        /// Arrival rate (λ) in requests/second.
        rate: f64,
        /// Generation horizon.
        duration: SimDuration,
    },
    /// A two-state Markov-modulated Poisson process: calm traffic at
    /// `base_rate` punctuated by bursts at `burst_rate`. This reproduces the
    /// burstiness signature of the BurstGPT dataset (§7.1.2): long quiet
    /// stretches, then sharp multi-second spikes.
    Mmpp {
        /// Calm-state arrival rate, requests/second.
        base_rate: f64,
        /// Burst-state arrival rate, requests/second.
        burst_rate: f64,
        /// Mean dwell time in the calm state.
        mean_calm: SimDuration,
        /// Mean dwell time in the burst state.
        mean_burst: SimDuration,
        /// Generation horizon.
        duration: SimDuration,
    },
    /// A diurnal non-homogeneous Poisson process: intensity follows a
    /// raised-cosine day curve with `peak_rate` at the busiest moment and
    /// `trough_rate` at the quietest. Reproduces the industrial trace shape
    /// of Figure 11.
    Diurnal {
        /// Minimum arrival rate.
        trough_rate: f64,
        /// Maximum arrival rate.
        peak_rate: f64,
        /// Length of one synthetic "day" (the modulation period).
        period: SimDuration,
        /// Generation horizon.
        duration: SimDuration,
    },
}

/// A 60-request burst at time zero.
impl Default for ArrivalSpec {
    fn default() -> Self {
        ArrivalSpec::Burst {
            size: 60,
            at: SimTime::ZERO,
        }
    }
}

impl ArrivalSpec {
    /// Samples arrival instants for this process.
    pub fn sample(&self, rng: &mut SimRng) -> Vec<SimTime> {
        match *self {
            ArrivalSpec::Burst { size, at } => vec![at; size as usize],
            ArrivalSpec::Poisson { rate, duration } => {
                assert!(rate > 0.0, "Poisson rate must be positive");
                let mut out = Vec::new();
                let mut t = 0.0;
                let horizon = duration.as_secs_f64();
                loop {
                    t += rng.exponential(rate);
                    if t >= horizon {
                        break;
                    }
                    out.push(SimTime::from_secs_f64(t));
                }
                out
            }
            ArrivalSpec::Mmpp {
                base_rate,
                burst_rate,
                mean_calm,
                mean_burst,
                duration,
            } => {
                assert!(
                    base_rate > 0.0 && burst_rate > 0.0,
                    "rates must be positive"
                );
                let mut out = Vec::new();
                let horizon = duration.as_secs_f64();
                let mut t = 0.0;
                let mut bursting = false;
                while t < horizon {
                    let dwell_mean = if bursting {
                        mean_burst.as_secs_f64()
                    } else {
                        mean_calm.as_secs_f64()
                    };
                    let dwell = rng.exponential(1.0 / dwell_mean).min(horizon - t);
                    let rate = if bursting { burst_rate } else { base_rate };
                    let mut s = 0.0;
                    loop {
                        s += rng.exponential(rate);
                        if s >= dwell {
                            break;
                        }
                        out.push(SimTime::from_secs_f64(t + s));
                    }
                    t += dwell;
                    bursting = !bursting;
                }
                out
            }
            ArrivalSpec::Diurnal {
                trough_rate,
                peak_rate,
                period,
                duration,
            } => {
                assert!(
                    trough_rate >= 0.0 && peak_rate >= trough_rate,
                    "need trough <= peak"
                );
                assert!(peak_rate > 0.0, "peak rate must be positive");
                // Thinning (Lewis–Shedler): generate at the peak rate, keep
                // each point with probability intensity(t)/peak.
                let mut out = Vec::new();
                let horizon = duration.as_secs_f64();
                let p = period.as_secs_f64();
                let mut t = 0.0;
                loop {
                    t += rng.exponential(peak_rate);
                    if t >= horizon {
                        break;
                    }
                    let phase = (t / p) * std::f64::consts::TAU;
                    // Raised cosine: trough at phase 0, peak mid-period.
                    let intensity =
                        trough_rate + (peak_rate - trough_rate) * (1.0 - phase.cos()) / 2.0;
                    if rng.chance(intensity / peak_rate) {
                        out.push(SimTime::from_secs_f64(t));
                    }
                }
                out
            }
        }
    }
}

/// A complete workload generator: arrivals × lengths × rates.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadGen {
    /// Arrival process.
    pub arrivals: ArrivalSpec,
    /// Prompt length distribution.
    pub prompt: LengthDist,
    /// Output length distribution.
    pub output: LengthDist,
    /// Required streaming-rate distribution.
    pub rate: RateDist,
}

impl WorkloadGen {
    /// Generates a workload deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Workload {
        let mut rng = SimRng::seed_from(seed);
        let mut arrival_rng = rng.fork(1);
        let mut len_rng = rng.fork(2);
        let mut rate_rng = rng.fork(3);
        let arrivals = self.arrivals.sample(&mut arrival_rng);
        let specs = arrivals
            .into_iter()
            .map(|arrival| RequestSpec {
                id: tokenflow_sim::RequestId(0), // renumbered by Workload::new
                arrival,
                prompt_tokens: self.prompt.sample(&mut len_rng),
                output_tokens: self.output.sample(&mut len_rng),
                rate: self.rate.sample(&mut rate_rng),
            })
            .collect();
        Workload::new(specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_with(arrivals: ArrivalSpec) -> WorkloadGen {
        WorkloadGen {
            arrivals,
            prompt: LengthDist::Fixed(128),
            output: LengthDist::Fixed(256),
            rate: RateDist::Fixed(20.0),
        }
    }

    #[test]
    fn burst_arrivals_are_simultaneous() {
        let w = gen_with(ArrivalSpec::Burst {
            size: 40,
            at: SimTime::from_secs(1),
        })
        .generate(1);
        assert_eq!(w.len(), 40);
        assert!(w.iter().all(|s| s.arrival == SimTime::from_secs(1)));
    }

    #[test]
    fn poisson_count_close_to_rate_times_duration() {
        let w = gen_with(ArrivalSpec::Poisson {
            rate: 5.0,
            duration: SimDuration::from_secs(200),
        })
        .generate(7);
        // Expect ~1000 arrivals; allow 4 sigma (~±126).
        let n = w.len() as f64;
        assert!((n - 1000.0).abs() < 130.0, "count {n}");
    }

    #[test]
    fn poisson_interarrivals_memoryless() {
        let w = gen_with(ArrivalSpec::Poisson {
            rate: 10.0,
            duration: SimDuration::from_secs(500),
        })
        .generate(8);
        let times: Vec<f64> = w.iter().map(|s| s.arrival.as_secs_f64()).collect();
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.1).abs() < 0.01, "mean gap {mean}");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Compare the index of dispersion of per-second counts.
        let seconds = 600u64;
        let dispersion = |w: &Workload| {
            let mut counts = vec![0f64; seconds as usize];
            for s in w.iter() {
                let sec = s.arrival.as_secs_f64() as usize;
                if sec < counts.len() {
                    counts[sec] += 1.0;
                }
            }
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64;
            var / mean.max(1e-9)
        };
        let poisson = gen_with(ArrivalSpec::Poisson {
            rate: 3.0,
            duration: SimDuration::from_secs(seconds),
        })
        .generate(9);
        let mmpp = gen_with(ArrivalSpec::Mmpp {
            base_rate: 1.0,
            burst_rate: 20.0,
            mean_calm: SimDuration::from_secs(30),
            mean_burst: SimDuration::from_secs(5),
            duration: SimDuration::from_secs(seconds),
        })
        .generate(9);
        assert!(
            dispersion(&mmpp) > 3.0 * dispersion(&poisson),
            "mmpp {} vs poisson {}",
            dispersion(&mmpp),
            dispersion(&poisson)
        );
    }

    #[test]
    fn diurnal_peaks_mid_period() {
        let w = gen_with(ArrivalSpec::Diurnal {
            trough_rate: 0.5,
            peak_rate: 20.0,
            period: SimDuration::from_secs(1_000),
            duration: SimDuration::from_secs(1_000),
        })
        .generate(10);
        // Count arrivals in the middle vs the edges of the period.
        let mid = w
            .iter()
            .filter(|s| {
                let t = s.arrival.as_secs_f64();
                (400.0..600.0).contains(&t)
            })
            .count();
        let edge = w
            .iter()
            .filter(|s| {
                let t = s.arrival.as_secs_f64();
                !(100.0..900.0).contains(&t)
            })
            .count();
        assert!(mid > 3 * edge, "mid {mid} vs edge {edge}");
    }

    #[test]
    fn generation_is_deterministic() {
        let g = gen_with(ArrivalSpec::Poisson {
            rate: 4.0,
            duration: SimDuration::from_secs(100),
        });
        assert_eq!(g.generate(42), g.generate(42));
        assert_ne!(g.generate(42), g.generate(43));
    }

    #[test]
    fn all_requests_within_horizon() {
        let d = SimDuration::from_secs(50);
        let w = gen_with(ArrivalSpec::Mmpp {
            base_rate: 2.0,
            burst_rate: 30.0,
            mean_calm: SimDuration::from_secs(10),
            mean_burst: SimDuration::from_secs(3),
            duration: d,
        })
        .generate(11);
        assert!(!w.is_empty());
        assert!(w.iter().all(|s| s.arrival < SimTime::ZERO + d));
    }
}
