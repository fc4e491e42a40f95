//! Deterministic discrete-time simulation substrate for TokenFlow.
//!
//! Every other crate in the workspace builds on the primitives defined here:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond time, so simulation
//!   runs are bit-reproducible across platforms and optimisation levels.
//! * [`RequestId`] — the dense request identifier every layer shares.
//! * [`SimRng`] — a seeded, deterministic random number generator.
//!
//! The simulation is *discrete-time* rather than wall-clock driven: the
//! serving engine advances its time by exactly the duration the analytical
//! cost model assigns to each iteration, which mirrors how a real
//! continuous-batching engine experiences time (scheduling decisions happen
//! at iteration boundaries). The engine needs no general event queue:
//! request arrivals are its only external timed input, and it keeps them
//! in one arrival-ordered queue of pending submissions.

// audit: tier(deterministic)
#![forbid(unsafe_code)]

pub mod ids;
pub mod rng;
pub mod time;

pub use ids::RequestId;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
