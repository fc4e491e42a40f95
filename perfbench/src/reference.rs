//! The host-speed reference: a fixed piece of work, timed next to every
//! timed cell, that turns the cell's wall time into seconds at a nominal
//! host speed.
//!
//! The benchmark runs on shared hosts whose per-core speed drifts by tens
//! of percent within minutes, and that drift shows equally in wall and CPU
//! time (it is not time spent descheduled). A cell's duration divided by
//! the reference's duration measured just before and just after it cancels
//! the drift; multiplying by [`NOMINAL_S`] states the result in seconds
//! again. The reference is ordered-map churn with small vector allocations
//! (the simulator's own mix of allocation, pointer chasing and branches),
//! lives in this package, and so stays the same across simulator changes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference's duration that defines the nominal host speed: a cell
/// that takes as long as `k` runs of the reference is reported as
/// `k * NOMINAL_S` seconds. About the reference's duration on a quiet
/// 2-core host with a release build.
pub const NOMINAL_S: f64 = 0.04;

/// Operations per run of the reference.
const OPS: u64 = 300_000;

/// Distinct keys the operations touch.
const KEYS: u64 = 1 << 12;

/// Runs the reference once. Returns its checksum, which every run must
/// repeat.
fn work() -> u64 {
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut z: u64 = 0x2545_f491_4f6c_dd1d;
    for i in 0..OPS {
        z = z
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (z >> 33) % KEYS;
        if z & 3 == 0 {
            map.remove(&key);
        } else {
            map.entry(key).or_default().push(i);
        }
    }
    map.iter().fold(0u64, |acc, (k, v)| {
        acc.wrapping_mul(31)
            .wrapping_add(k ^ v.iter().fold(0, |a, x| a ^ x))
    })
}

/// Times runs of the reference and checks that they agree.
#[derive(Debug, Default)]
pub struct Reference {
    checksum: Option<u64>,
    mismatches: u64,
    secs: Vec<f64>,
}

impl Reference {
    /// Runs the reference once and returns its wall seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let sum = black_box(work());
        let secs = start.elapsed().as_secs_f64();
        match self.checksum {
            None => self.checksum = Some(sum),
            Some(first) if first != sum => self.mismatches += 1,
            Some(_) => {}
        }
        self.secs.push(secs);
        secs
    }

    /// The factor that states a span bracketed by reference runs of
    /// `before` and `after` seconds in nominal seconds.
    pub fn scale(before: f64, after: f64) -> f64 {
        NOMINAL_S / ((before + after) / 2.0)
    }

    /// Every duration taken so far, in seconds.
    pub fn secs(&self) -> &[f64] {
        &self.secs
    }

    /// Whether every run returned the first run's checksum.
    pub fn consistent(&self) -> Result<(), String> {
        if self.mismatches == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} reference runs returned another checksum",
                self.mismatches
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_agree_and_scale_is_relative_to_nominal() {
        let mut reference = Reference::default();
        let (a, b) = (reference.time(), reference.time());
        assert!(a > 0.0 && b > 0.0);
        assert_eq!(reference.secs().len(), 2);
        assert!(reference.consistent().is_ok());
        assert_eq!(Reference::scale(NOMINAL_S, NOMINAL_S), 1.0);
        // A host at half speed doubles the reference's time and halves
        // the factor.
        assert_eq!(Reference::scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
    }
}
