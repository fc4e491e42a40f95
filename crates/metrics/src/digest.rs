//! Canonical serialization and digests for behavior-invariance pinning.
//!
//! Perf work on the engine's hot path must not change a single reported
//! byte. The golden-digest test suites pin that contract: a seeded run's
//! full [`RunReport`] is rendered to a *canonical* JSON form (fixed field
//! order, shortest-round-trip float formatting, durations in integer
//! microseconds) and hashed with FNV-1a; the 64-bit digest is committed.
//! Any refactor that alters scheduling, accounting, or aggregation —
//! however slightly — moves the digest.
//!
//! The canonical form is written field by field here because its bytes
//! are the pinned contract, not a serializer's choice: do not reorder
//! fields or change float formatting without updating every golden
//! digest.

use std::fmt::Write;

use crate::report::{FaultStats, RunReport, RuntimeCounters, Summary};

/// 64-bit FNV-1a over a byte stream — stable, dependency-free, and fast
/// enough for test-time digesting.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.write(bytes);
    hash.finish()
}

/// Streaming [`fnv1a64`]: writing a byte stream in pieces yields the
/// digest of their concatenation, so a caller can digest text it never
/// holds whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The digest state of the empty stream.
    pub const fn new() -> Fnv1a64 {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The digest of everything written so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Fnv1a64 {
        Fnv1a64::new()
    }
}

/// Canonical float rendering: Rust's shortest round-trip `Debug` form.
/// Exact (`f64::from_str` recovers the bits) and deterministic across
/// platforms, which is what a digest needs; `-0.0` and `NaN` render
/// distinctly so accidental sign/NaN changes are caught too.
fn float(v: f64) -> String {
    format!("{v:?}")
}

fn runtime_json(c: &RuntimeCounters) -> String {
    let mut json = String::from("{");
    for (i, (key, value)) in c.entries().into_iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(json, "{sep}\"{key}\":{value}");
    }
    json + "}"
}

fn fault_json(f: &FaultStats) -> String {
    let histogram: Vec<String> = f.retry_attempts.iter().map(u64::to_string).collect();
    format!(
        "{{\"crashes\":{},\"boot_failures\":{},\"lost_events\":{},\"recovered\":{},\
         \"abandoned\":{},\"shed\":{},\"retry_attempts\":[{}],\"recovery_latency\":{}}}",
        f.crashes,
        f.boot_failures,
        f.lost_events,
        f.recovered,
        f.abandoned,
        f.shed,
        histogram.join(","),
        summary_json(&f.recovery_latency),
    )
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
        s.count,
        float(s.mean),
        float(s.p50),
        float(s.p90),
        float(s.p99),
        float(s.max)
    )
}

impl RunReport {
    /// The report's canonical JSON form (fixed field order, exact float
    /// rendering, duration in integer microseconds). See the module docs
    /// for the stability contract. A `faults` member is appended only
    /// when the report carries fault statistics, so fault-free reports —
    /// and every digest pinned before fault injection existed — render
    /// byte-identically to the historical form.
    pub fn canonical_json(&self) -> String {
        let mut json = format!(
            "{{\"submitted\":{},\"completed\":{},\"duration_us\":{},\"ttft\":{},\
             \"throughput\":{},\"effective_throughput\":{},\"qos\":{},\
             \"total_rebuffer_secs\":{},\"stall_events\":{},\"preemptions\":{},\
             \"recomputes\":{},\"mean_generation_rate\":{},\"replica_seconds\":{},\
             \"runtime\":{}}}",
            self.submitted,
            self.completed,
            self.duration.as_micros(),
            summary_json(&self.ttft),
            float(self.throughput),
            float(self.effective_throughput),
            float(self.qos),
            float(self.total_rebuffer_secs),
            self.stall_events,
            self.preemptions,
            self.recomputes,
            float(self.mean_generation_rate),
            float(self.replica_seconds),
            runtime_json(&self.runtime),
        );
        if let Some(f) = &self.faults {
            json.pop();
            json.push_str(&format!(",\"faults\":{}}}", fault_json(f)));
        }
        json
    }

    /// FNV-1a digest of [`RunReport::canonical_json`].
    pub fn digest(&self) -> u64 {
        fnv1a64(self.canonical_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RequestMetrics;
    use crate::weights::QosParams;
    use tokenflow_sim::{RequestId, SimDuration, SimTime};

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_digest_matches_one_shot() {
        let mut hash = Fnv1a64::new();
        hash.write(b"foo");
        hash.write(b"");
        hash.write(b"bar");
        assert_eq!(hash.finish(), fnv1a64(b"foobar"));
        assert_eq!(Fnv1a64::default().finish(), fnv1a64(b""));
    }

    #[test]
    fn float_rendering_is_exact_and_distinct() {
        assert_eq!(float(0.1), "0.1");
        assert_eq!(float(1.0), "1.0");
        assert_ne!(float(0.0), float(-0.0));
        let v = 1.0 / 3.0;
        assert_eq!(float(v).parse::<f64>().unwrap().to_bits(), v.to_bits());
    }

    fn report() -> RunReport {
        let mut m = RequestMetrics::new(RequestId(0), SimTime::ZERO, 20.0, 64);
        m.first_token_at = Some(SimTime::from_millis(500));
        m.finished_at = Some(SimTime::from_secs(10));
        m.generated = 64;
        m.effective_tokens = 60.0;
        m.qos_weight_sum = 60.0;
        RunReport::from_records(&[m], SimDuration::from_secs(10), &QosParams::default())
    }

    #[test]
    fn canonical_json_is_stable_and_digestable() {
        let r = report();
        let j1 = r.canonical_json();
        let j2 = r.clone().canonical_json();
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\"submitted\":1,\"completed\":1,"));
        assert!(j1.contains("\"duration_us\":10000000"));
        assert_eq!(r.digest(), fnv1a64(j1.as_bytes()));
    }

    #[test]
    fn faults_section_renders_only_when_present() {
        let clean = report();
        assert!(!clean.canonical_json().contains("\"faults\""));
        assert!(clean.canonical_json().ends_with("}}"));

        let mut faulted = clean.clone();
        faulted.faults = Some(crate::report::FaultStats {
            crashes: 1,
            boot_failures: 0,
            lost_events: 2,
            recovered: 2,
            abandoned: 0,
            shed: 3,
            retry_attempts: vec![1, 1],
            recovery_latency: Summary::of(&[0.5, 1.5]),
        });
        let json = faulted.canonical_json();
        assert!(json.contains(
            "\"faults\":{\"crashes\":1,\"boot_failures\":0,\"lost_events\":2,\
             \"recovered\":2,\"abandoned\":0,\"shed\":3,\"retry_attempts\":[1,1],\
             \"recovery_latency\":"
        ));
        // The fault-free prefix is untouched: byte-identical up to the
        // spliced member, so pre-fault pinned digests cannot move.
        let clean_json = clean.canonical_json();
        assert_eq!(
            &json[..clean_json.len() - 1],
            &clean_json[..clean_json.len() - 1]
        );
        assert_ne!(clean.digest(), faulted.digest());
    }

    #[test]
    fn digest_moves_with_any_field() {
        let base = report();
        let mut changed = base.clone();
        changed.preemptions += 1;
        assert_ne!(base.digest(), changed.digest());
        let mut changed = base.clone();
        changed.throughput += 1e-12;
        assert_ne!(base.digest(), changed.digest());
    }
}
