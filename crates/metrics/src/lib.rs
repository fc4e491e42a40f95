//! Streaming QoS metrics (paper §3.2 and §7.1.3).
//!
//! Conventional serving metrics (raw throughput, TTFT) each capture one
//! narrow aspect of text streaming. This crate implements the paper's
//! richer instruments:
//!
//! * [`weights`] — the per-token utility functions: the QoS token weight of
//!   Eq. 1 and the effective-throughput weight of §7.1.3 (full value below
//!   10 % buffer occupancy, linear decay to zero at 20 %).
//! * [`record`] — per-request measurement accumulated live by the engine
//!   (TTFT, generated/effective tokens, rebuffering, preemption counts).
//! * [`report`] — run-level aggregation: percentile summaries, raw and
//!   effective throughput, and the QoS scalar of Eq. 2.
//! * [`timeseries`] — sampled time series (queued/running requests, GPU
//!   utilisation) for the Figure 14/15 temporal plots.
//! * [`timeline`] — per-request cumulative token timelines for the
//!   Figure 18/19 visualisations.
//! * [`fleet`] — fleet-size timelines and replica-seconds cost
//!   accounting for elastic (autoscaled) cluster runs.
//! * [`digest`] — canonical JSON rendering and FNV-1a digests of
//!   [`RunReport`]s, pinning behavior invariance across perf refactors.

// audit: tier(deterministic)
#![forbid(unsafe_code)]

pub mod digest;
pub mod fleet;
pub mod record;
pub mod report;
pub mod timeline;
pub mod timeseries;
pub mod weights;

pub use digest::{fnv1a64, Fnv1a64};
pub use fleet::FleetStats;
pub use record::RequestMetrics;
pub use report::{percentile, FaultStats, RunReport, RuntimeCounters, Summary};
pub use timeline::TokenTimeline;
pub use timeseries::TimeSeries;
pub use weights::{effective_weight, qos_token_weight, QosParams};
