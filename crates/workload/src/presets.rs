//! Paper workload presets.
//!
//! Encodes Table 1 (controlled request distributions) and the end-to-end
//! trace configurations of §7.2. Interpretation notes:
//!
//! * "SL"/"LL" in Table 1 we read as *short/long sequence lengths*: the
//!   short configuration uses 512-token prompts and 1024-token outputs on
//!   the RTX 4090 (the §7.3 averages), the long configuration 1024/2048;
//!   H200 outputs are scaled 2× per the text.
//! * Lengths are normally distributed around those means (σ = mean/4),
//!   matching "input/output lengths follow normal distributions".
//! * Required streaming rates default to 12 tokens/s — twice the average
//!   adult reading speed, the reference line drawn in Figure 2. The
//!   micro-experiments override this where the paper names explicit rates.

use tokenflow_sim::{SimDuration, SimTime};

use crate::arrivals::{ArrivalSpec, WorkloadGen};
use crate::dist::{LengthDist, RateDist};
use crate::request::Workload;

/// Default required streaming rate for controlled tests, tokens/second:
/// twice the average adult reading speed, the reference line of Figure 2.
pub const DEFAULT_RATE: f64 = 12.0;

/// Sequence-length class of a controlled setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LengthClass {
    /// Short: 512-token prompts, 1024-token outputs (4090 scale).
    Short,
    /// Long: 1024-token prompts, 2048-token outputs (4090 scale).
    Long,
}

/// One row of Table 1: a controlled request-distribution configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlledSetup {
    /// Label as printed in the paper, e.g. `"H200 (a)"`.
    pub label: String,
    /// Arrival process.
    pub arrivals: ArrivalSpec,
    /// Length class.
    pub lengths: LengthClass,
    /// Output length multiplier (2 for H200 per §7.3).
    pub output_scale: u64,
}

fn normal(mean: u64) -> LengthDist {
    LengthDist::Normal {
        mean: mean as f64,
        std: mean as f64 / 4.0,
        min: 16,
        max: mean * 4,
    }
}

impl ControlledSetup {
    /// Builds the generator for this setup with the given streaming rate
    /// distribution.
    pub fn generator(&self, rate: RateDist) -> WorkloadGen {
        let (prompt_mean, output_mean) = match self.lengths {
            LengthClass::Short => (512, 1024),
            LengthClass::Long => (1024, 2048),
        };
        WorkloadGen {
            arrivals: self.arrivals.clone(),
            prompt: normal(prompt_mean),
            output: normal(output_mean * self.output_scale),
            rate,
        }
    }

    /// Generates the workload with the default rate.
    pub fn workload(&self, seed: u64) -> Workload {
        self.generator(RateDist::Fixed(DEFAULT_RATE)).generate(seed)
    }

    /// Table 1, RTX 4090 (a): burst `b = 60`, short lengths.
    pub fn rtx4090_a() -> Self {
        ControlledSetup {
            label: "4090 (a)".to_string(),
            arrivals: ArrivalSpec::Burst {
                size: 60,
                at: SimTime::ZERO,
            },
            lengths: LengthClass::Short,
            output_scale: 1,
        }
    }

    /// Table 1, RTX 4090 (b): burst `b = 80`, long lengths.
    pub fn rtx4090_b() -> Self {
        ControlledSetup {
            label: "4090 (b)".to_string(),
            arrivals: ArrivalSpec::Burst {
                size: 80,
                at: SimTime::ZERO,
            },
            lengths: LengthClass::Long,
            output_scale: 1,
        }
    }

    /// Table 1, RTX 4090 (c): Poisson `λ = 2`, short lengths.
    pub fn rtx4090_c() -> Self {
        ControlledSetup {
            label: "4090 (c)".to_string(),
            arrivals: ArrivalSpec::Poisson {
                rate: 2.0,
                duration: SimDuration::from_secs(60),
            },
            lengths: LengthClass::Short,
            output_scale: 1,
        }
    }

    /// Table 1, RTX 4090 (d): Poisson `λ = 4`, short lengths.
    pub fn rtx4090_d() -> Self {
        ControlledSetup {
            label: "4090 (d)".to_string(),
            arrivals: ArrivalSpec::Poisson {
                rate: 4.0,
                duration: SimDuration::from_secs(60),
            },
            lengths: LengthClass::Short,
            output_scale: 1,
        }
    }

    /// Table 1, H200 (a): burst `b = 400`, short lengths (outputs 2×).
    pub fn h200_a() -> Self {
        ControlledSetup {
            label: "H200 (a)".to_string(),
            arrivals: ArrivalSpec::Burst {
                size: 400,
                at: SimTime::ZERO,
            },
            lengths: LengthClass::Short,
            output_scale: 2,
        }
    }

    /// Table 1, H200 (b): burst `b = 200`, long lengths (outputs 2×).
    pub fn h200_b() -> Self {
        ControlledSetup {
            label: "H200 (b)".to_string(),
            arrivals: ArrivalSpec::Burst {
                size: 200,
                at: SimTime::ZERO,
            },
            lengths: LengthClass::Long,
            output_scale: 2,
        }
    }

    /// Table 1, H200 (c): Poisson `λ = 5`, short lengths (outputs 2×).
    pub fn h200_c() -> Self {
        ControlledSetup {
            label: "H200 (c)".to_string(),
            arrivals: ArrivalSpec::Poisson {
                rate: 5.0,
                duration: SimDuration::from_secs(60),
            },
            lengths: LengthClass::Short,
            output_scale: 2,
        }
    }

    /// Table 1, H200 (d): Poisson `λ = 10`, short lengths (outputs 2×).
    pub fn h200_d() -> Self {
        ControlledSetup {
            label: "H200 (d)".to_string(),
            arrivals: ArrivalSpec::Poisson {
                rate: 10.0,
                duration: SimDuration::from_secs(60),
            },
            lengths: LengthClass::Short,
            output_scale: 2,
        }
    }

    /// Looks a Table 1 setup up by its scenario-spec name (the
    /// kebab-case form the `tokenflow` CLI and `scenarios/` files use):
    /// `"rtx4090-a"` … `"rtx4090-d"`, `"h200-a"` … `"h200-d"`.
    /// Case-insensitive, like the model/hardware profile lookups.
    pub fn by_name(name: &str) -> Option<ControlledSetup> {
        Some(match name.to_ascii_lowercase().as_str() {
            "rtx4090-a" => Self::rtx4090_a(),
            "rtx4090-b" => Self::rtx4090_b(),
            "rtx4090-c" => Self::rtx4090_c(),
            "rtx4090-d" => Self::rtx4090_d(),
            "h200-a" => Self::h200_a(),
            "h200-b" => Self::h200_b(),
            "h200-c" => Self::h200_c(),
            "h200-d" => Self::h200_d(),
            _ => return None,
        })
    }

    /// All burst rows of Table 1 in figure order (Figure 16).
    pub fn burst_rows() -> Vec<ControlledSetup> {
        vec![
            Self::h200_a(),
            Self::h200_b(),
            Self::rtx4090_a(),
            Self::rtx4090_b(),
        ]
    }

    /// All Poisson rows of Table 1 in figure order (Figure 17).
    pub fn poisson_rows() -> Vec<ControlledSetup> {
        vec![
            Self::h200_c(),
            Self::h200_d(),
            Self::rtx4090_c(),
            Self::rtx4090_d(),
        ]
    }
}

/// A BurstGPT-style trace (§7.2): calm traffic with multi-second burst
/// phases, ShareGPT-like lengths.
pub fn burstgpt_trace(
    base_rate: f64,
    burst_rate: f64,
    duration: SimDuration,
    rate: RateDist,
) -> WorkloadGen {
    burstgpt_trace_scaled(base_rate, burst_rate, duration, rate, 1)
}

/// [`burstgpt_trace`] with outputs scaled `output_scale`× — used to stress
/// larger models whose capacity dwarfs ShareGPT's short answers.
pub fn burstgpt_trace_scaled(
    base_rate: f64,
    burst_rate: f64,
    duration: SimDuration,
    rate: RateDist,
    output_scale: u64,
) -> WorkloadGen {
    let output = match LengthDist::sharegpt_output() {
        LengthDist::LogNormal {
            mean,
            std,
            min,
            max,
        } => LengthDist::LogNormal {
            mean: mean * output_scale as f64,
            std: std * output_scale as f64,
            min,
            max: max * output_scale,
        },
        other => other,
    };
    WorkloadGen {
        arrivals: ArrivalSpec::Mmpp {
            base_rate,
            burst_rate,
            mean_calm: SimDuration::from_secs(25),
            mean_burst: SimDuration::from_secs(6),
            duration,
        },
        prompt: LengthDist::sharegpt_prompt(),
        output,
        rate,
    }
}

/// An industrial-style diurnal trace (Figure 11): raised-cosine intensity
/// and a bimodal length mix of short chat turns and long document tasks.
pub fn industrial_trace(peak_rate: f64, duration: SimDuration, rate: RateDist) -> WorkloadGen {
    WorkloadGen {
        arrivals: ArrivalSpec::Diurnal {
            trough_rate: peak_rate * 0.1,
            peak_rate,
            period: duration,
            duration,
        },
        // Bimodal mix approximated by a heavy-tailed lognormal: most
        // requests are short chat turns; the tail carries document tasks.
        prompt: LengthDist::LogNormal {
            mean: 350.0,
            std: 500.0,
            min: 8,
            max: 8192,
        },
        output: LengthDist::LogNormal {
            mean: 400.0,
            std: 420.0,
            min: 16,
            max: 4096,
        },
        rate,
    }
}

/// The autoscaling stress preset: a sinusoidal (diurnal) base rate with
/// a flash crowd superimposed at `crowd_at`.
///
/// This is the workload an elastic fleet must get right twice over: the
/// slow diurnal swell rewards draining replicas through the trough,
/// while the flash crowd punishes any fleet that cannot grow faster
/// than its prefill backlog. Built compositionally —
/// [`industrial_trace`]-style diurnal arrivals, plus a burst generated
/// at time zero and [`Workload::offset`] into place, merged on one
/// timeline — with short chat-turn lengths so fleet sweeps stay cheap.
pub fn diurnal_flash_crowd(
    peak_rate: f64,
    duration: SimDuration,
    crowd_size: u32,
    crowd_at: SimTime,
    rate: RateDist,
    seed: u64,
) -> Workload {
    let lengths = |mean: u64| LengthDist::Normal {
        mean: mean as f64,
        std: mean as f64 / 4.0,
        min: 16,
        max: mean * 4,
    };
    let base = WorkloadGen {
        arrivals: ArrivalSpec::Diurnal {
            trough_rate: peak_rate * 0.1,
            peak_rate,
            period: duration,
            duration,
        },
        prompt: lengths(256),
        output: lengths(512),
        rate: rate.clone(),
    }
    .generate(seed);
    let crowd = WorkloadGen {
        arrivals: ArrivalSpec::Burst {
            size: crowd_size,
            at: SimTime::ZERO,
        },
        prompt: lengths(256),
        output: lengths(512),
        rate,
    }
    // Decorrelate the crowd's samples from the base trace's.
    .generate(seed ^ 0x9e37_79b9_7f4a_7c15);
    Workload::merge(vec![
        base,
        crowd.offset(crowd_at.saturating_since(SimTime::ZERO)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_burst_sizes_match_paper() {
        assert!(matches!(
            ControlledSetup::rtx4090_a().arrivals,
            ArrivalSpec::Burst { size: 60, .. }
        ));
        assert!(matches!(
            ControlledSetup::rtx4090_b().arrivals,
            ArrivalSpec::Burst { size: 80, .. }
        ));
        assert!(matches!(
            ControlledSetup::h200_a().arrivals,
            ArrivalSpec::Burst { size: 400, .. }
        ));
        assert!(matches!(
            ControlledSetup::h200_b().arrivals,
            ArrivalSpec::Burst { size: 200, .. }
        ));
    }

    #[test]
    fn by_name_covers_every_table1_row_and_rejects_others() {
        for name in [
            "rtx4090-a",
            "rtx4090-b",
            "rtx4090-c",
            "rtx4090-d",
            "h200-a",
            "h200-b",
            "h200-c",
            "h200-d",
        ] {
            assert!(ControlledSetup::by_name(name).is_some(), "{name}");
        }
        assert!(ControlledSetup::by_name("tpu-a").is_none());
        assert_eq!(
            ControlledSetup::by_name("h200-b").unwrap(),
            ControlledSetup::h200_b()
        );
    }

    #[test]
    fn table1_poisson_rates_match_paper() {
        for (setup, expect) in [
            (ControlledSetup::rtx4090_c(), 2.0),
            (ControlledSetup::rtx4090_d(), 4.0),
            (ControlledSetup::h200_c(), 5.0),
            (ControlledSetup::h200_d(), 10.0),
        ] {
            match setup.arrivals {
                ArrivalSpec::Poisson { rate, .. } => assert_eq!(rate, expect),
                other => panic!("expected Poisson, got {other:?}"),
            }
        }
    }

    #[test]
    fn h200_outputs_scaled_2x() {
        let w4090 = ControlledSetup::rtx4090_a().workload(1);
        let wh200 = ControlledSetup::h200_a().workload(1);
        let m4090 = w4090.stats().mean_output;
        let mh200 = wh200.stats().mean_output;
        assert!(
            (mh200 / m4090 - 2.0).abs() < 0.2,
            "H200 {mh200} vs 4090 {m4090}"
        );
    }

    #[test]
    fn short_vs_long_lengths() {
        let short = ControlledSetup::rtx4090_a().workload(2).stats();
        let long = ControlledSetup::rtx4090_b().workload(2).stats();
        assert!((short.mean_prompt - 512.0).abs() < 60.0);
        assert!((long.mean_prompt - 1024.0).abs() < 80.0);
        assert!((short.mean_output - 1024.0).abs() < 80.0);
        assert!((long.mean_output - 2048.0).abs() < 120.0);
    }

    #[test]
    fn burst_workload_is_flash_crowd() {
        let w = ControlledSetup::h200_a().workload(3);
        assert_eq!(w.len(), 400);
        assert_eq!(w.stats().peak_arrivals_per_sec, 400);
    }

    #[test]
    fn burstgpt_trace_generates_bursts() {
        let g = burstgpt_trace(
            1.0,
            20.0,
            SimDuration::from_secs(300),
            RateDist::Fixed(20.0),
        );
        let w = g.generate(4);
        let s = w.stats();
        assert!(s.count > 50);
        assert!(
            s.peak_arrivals_per_sec >= 5,
            "peak {}",
            s.peak_arrivals_per_sec
        );
    }

    #[test]
    fn diurnal_flash_crowd_superimposes_burst_on_diurnal_base() {
        let duration = SimDuration::from_secs(600);
        let crowd_at = SimTime::from_secs(150);
        let w = diurnal_flash_crowd(2.0, duration, 80, crowd_at, RateDist::Fixed(15.0), 7);
        // The crowd dominates any one-second window.
        assert!(w.stats().peak_arrivals_per_sec >= 80);
        // Exactly the crowd arrives at the crowd instant.
        let at_crowd = w.iter().filter(|s| s.arrival == crowd_at).count();
        assert_eq!(at_crowd, 80);
        // The diurnal base is present on both sides of the crowd.
        assert!(w.iter().any(|s| s.arrival < crowd_at));
        assert!(w.iter().any(|s| s.arrival > crowd_at));
        // Composition preserves the workload id contract.
        for (i, s) in w.iter().enumerate() {
            assert_eq!(s.id, tokenflow_sim::RequestId(i as u64));
        }
    }

    #[test]
    fn diurnal_flash_crowd_is_deterministic() {
        let gen = |seed| {
            diurnal_flash_crowd(
                3.0,
                SimDuration::from_secs(300),
                40,
                SimTime::from_secs(60),
                RateDist::Uniform { lo: 8.0, hi: 24.0 },
                seed,
            )
        };
        assert_eq!(gen(11), gen(11));
        assert_ne!(gen(11), gen(12));
    }

    #[test]
    fn industrial_trace_has_heavy_tail() {
        let g = industrial_trace(5.0, SimDuration::from_secs(600), RateDist::Fixed(20.0));
        let s = g.generate(5).stats();
        assert!(s.p99_prompt > 3 * s.p50_prompt, "tail {s:?}");
    }
}
