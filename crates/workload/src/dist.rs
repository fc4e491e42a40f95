//! Length and rate distributions for workload generation.

use tokenflow_sim::SimRng;

/// Distribution of prompt or output lengths in tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum LengthDist {
    /// Every request gets exactly this many tokens.
    Fixed(u64),
    /// Normal distribution clamped to `[min, max]` (the paper's controlled
    /// tests use normally distributed lengths, §7.3).
    Normal {
        /// Mean length.
        mean: f64,
        /// Standard deviation.
        std: f64,
        /// Lower clamp.
        min: u64,
        /// Upper clamp.
        max: u64,
    },
    /// Lognormal distribution (ShareGPT-like heavy tail) clamped to
    /// `[min, max]`, parameterised by the target mean and std of the
    /// lognormal itself.
    LogNormal {
        /// Target mean length.
        mean: f64,
        /// Target standard deviation.
        std: f64,
        /// Lower clamp.
        min: u64,
        /// Upper clamp.
        max: u64,
    },
    /// Uniform over `[lo, hi]` inclusive.
    Uniform {
        /// Lower bound.
        lo: u64,
        /// Upper bound.
        hi: u64,
    },
}

impl LengthDist {
    /// ShareGPT-like prompt lengths: heavy-tailed around a ~220-token mean.
    pub fn sharegpt_prompt() -> Self {
        LengthDist::LogNormal {
            mean: 220.0,
            std: 250.0,
            min: 4,
            max: 4096,
        }
    }

    /// ShareGPT-like output lengths: heavy-tailed around a ~320-token mean.
    pub fn sharegpt_output() -> Self {
        LengthDist::LogNormal {
            mean: 320.0,
            std: 280.0,
            min: 8,
            max: 4096,
        }
    }

    /// Draws one length.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match *self {
            LengthDist::Fixed(n) => n.max(1),
            LengthDist::Normal {
                mean,
                std,
                min,
                max,
            } => {
                let x = rng.clamped_normal(mean, std, min.max(1) as f64, max as f64);
                x.round() as u64
            }
            LengthDist::LogNormal {
                mean,
                std,
                min,
                max,
            } => {
                let x = rng.lognormal_mean_std(mean, std);
                (x.round() as u64).clamp(min.max(1), max)
            }
            LengthDist::Uniform { lo, hi } => rng.uniform_u64(lo.max(1), hi.max(1)),
        }
    }

    /// The distribution's nominal mean.
    pub fn mean(&self) -> f64 {
        match *self {
            LengthDist::Fixed(n) => n as f64,
            LengthDist::Normal { mean, .. } | LengthDist::LogNormal { mean, .. } => mean,
            LengthDist::Uniform { lo, hi } => (lo + hi) as f64 / 2.0,
        }
    }
}

/// Distribution of required streaming rates in tokens/second.
#[derive(Debug, Clone, PartialEq)]
pub enum RateDist {
    /// Every client consumes at the same rate.
    Fixed(f64),
    /// A discrete mix: `(weight, rate)` pairs — e.g. the Figure 19 workload
    /// is `[(0.4, 15.0), (0.6, 20.0)]`.
    Mix(Vec<(f64, f64)>),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

/// Every client at [`DEFAULT_RATE`](crate::presets::DEFAULT_RATE).
impl Default for RateDist {
    fn default() -> Self {
        RateDist::Fixed(crate::presets::DEFAULT_RATE)
    }
}

impl RateDist {
    /// Draws one rate.
    ///
    /// # Panics
    ///
    /// Panics if a mix is empty or weights are non-positive.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            RateDist::Fixed(r) => *r,
            RateDist::Mix(entries) => {
                let weights: Vec<f64> = entries.iter().map(|(w, _)| *w).collect();
                entries[rng.weighted_index(&weights)].1
            }
            RateDist::Uniform { lo, hi } => rng.uniform_range(*lo, *hi),
        }
    }

    /// The distribution's nominal mean.
    pub fn mean(&self) -> f64 {
        match self {
            RateDist::Fixed(r) => *r,
            RateDist::Mix(entries) => {
                let total: f64 = entries.iter().map(|(w, _)| w).sum();
                entries.iter().map(|(w, r)| w * r).sum::<f64>() / total
            }
            RateDist::Uniform { lo, hi } => (lo + hi) / 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_exact_and_nonzero() {
        let mut rng = SimRng::seed_from(1);
        assert_eq!(LengthDist::Fixed(7).sample(&mut rng), 7);
        assert_eq!(LengthDist::Fixed(0).sample(&mut rng), 1);
    }

    #[test]
    fn normal_respects_clamps() {
        let mut rng = SimRng::seed_from(2);
        let d = LengthDist::Normal {
            mean: 512.0,
            std: 2000.0,
            min: 100,
            max: 600,
        };
        for _ in 0..500 {
            let x = d.sample(&mut rng);
            assert!((100..=600).contains(&x));
        }
    }

    #[test]
    fn normal_mean_close_to_target() {
        let mut rng = SimRng::seed_from(3);
        let d = LengthDist::Normal {
            mean: 1024.0,
            std: 256.0,
            min: 1,
            max: 10_000,
        };
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 1024.0).abs() < 20.0, "mean {mean}");
    }

    #[test]
    fn lognormal_is_heavy_tailed() {
        let mut rng = SimRng::seed_from(4);
        let d = LengthDist::sharegpt_prompt();
        let samples: Vec<u64> = (0..10_000).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        assert!(mean > median, "heavy tail: mean {mean} > median {median}");
    }

    #[test]
    fn uniform_in_bounds() {
        let mut rng = SimRng::seed_from(5);
        let d = LengthDist::Uniform { lo: 10, hi: 20 };
        for _ in 0..200 {
            let x = d.sample(&mut rng);
            assert!((10..=20).contains(&x));
        }
    }

    #[test]
    fn rate_mix_hits_both_components() {
        let mut rng = SimRng::seed_from(6);
        let d = RateDist::Mix(vec![(0.4, 15.0), (0.6, 20.0)]);
        let mut c15 = 0;
        let mut c20 = 0;
        for _ in 0..5_000 {
            let r = d.sample(&mut rng);
            if r == 15.0 {
                c15 += 1;
            } else if r == 20.0 {
                c20 += 1;
            } else {
                panic!("unexpected rate {r}");
            }
        }
        let frac = c15 as f64 / (c15 + c20) as f64;
        assert!((frac - 0.4).abs() < 0.03, "frac {frac}");
    }

    #[test]
    fn means_are_consistent() {
        assert_eq!(LengthDist::Fixed(10).mean(), 10.0);
        assert_eq!(LengthDist::Uniform { lo: 10, hi: 20 }.mean(), 15.0);
        let mix = RateDist::Mix(vec![(0.4, 15.0), (0.6, 20.0)]);
        assert!((mix.mean() - 18.0).abs() < 1e-9);
    }
}
