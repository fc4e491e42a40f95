//! Run-to-completion benchmark of the TokenFlow simulator.
//!
//! One command runs a named workload to completion over inputs generated
//! from a seed, checks every outcome, and prints the end-to-end metrics
//! (untraced) or the per-layer metrics (traced) by name and unit. Layer
//! spans are taken from outside the simulator: around calls into each
//! crate's public API and inside forwarding wrappers of the scheduling,
//! routing and scale-policy traits. No simulator source is changed.
//!
//! See `LAYERS.md` next to this package for which layer metric should
//! move which end-to-end metric on which workload.

// Host tier: this package reads the wall clock and /proc by design.
// audit: tier(host)
#![forbid(unsafe_code)]

pub mod catalog;
pub mod host;
mod probe;
pub mod reference;
pub mod run;
pub mod workloads;
