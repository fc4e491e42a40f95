//! Benchmark harness regenerating every table and figure of the TokenFlow
//! paper's evaluation (§7).
//!
//! * [`experiments`] — one runner per table/figure, each returning the
//!   rows/series the paper reports.
//! * [`runner`] — the standard four-system comparison machinery.
//! * [`table`] — plain-text table rendering.
//!
//! Run experiments through the `experiments` binary, all of them or
//! selectively by id:
//!
//! ```text
//! cargo run --release -p tokenflow-bench --bin experiments -- all
//! cargo run --release -p tokenflow-bench --bin experiments -- fig16
//! ```

// audit: tier(host)
#![forbid(unsafe_code)]

pub mod experiments;
pub mod runner;
pub mod table;
