//! Fleet-size accounting for elastic clusters.
//!
//! A fixed fleet's cost is trivial (`replicas × duration`); an autoscaled
//! fleet's is not — replicas boot, serve, drain, and retire at different
//! instants, and the bill is the integral of the billable count over
//! time. [`FleetStats`] carries that integral plus the active-fleet-size
//! timeline the control plane samples at every decision point, so
//! experiments can report *replica-seconds at matched QoS* instead of
//! static fleet sizes.

use tokenflow_sim::SimTime;

use crate::timeseries::TimeSeries;

/// Fleet-size timeline and cost accounting of one elastic cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Active replica count over time, sampled at every control-plane
    /// barrier (plus the bootstrap instant and the run end).
    pub timeline: TimeSeries,
    /// Cost integral: billable replicas × seconds. A replica bills from
    /// the instant provisioning starts (booting machines cost money)
    /// until it retires; retired replicas are free.
    pub replica_seconds: f64,
    /// Largest simultaneous active count.
    pub peak_active: usize,
    /// Replicas ever provisioned (including the bootstrap fleet).
    pub provisioned: usize,
    /// Replicas fully retired by the end of the run.
    pub retired: usize,
}

impl FleetStats {
    /// Empty stats starting a timeline named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        FleetStats {
            timeline: TimeSeries::new(name),
            replica_seconds: 0.0,
            peak_active: 0,
            provisioned: 0,
            retired: 0,
        }
    }

    /// Records a fleet-size sample at `t` and folds it into the peak.
    pub fn sample(&mut self, t: SimTime, active: usize) {
        self.timeline.push(t, active as f64);
        self.peak_active = self.peak_active.max(active);
    }

    /// Adds `billable × dt` to the cost integral.
    pub fn bill(&mut self, billable: usize, dt_secs: f64) {
        debug_assert!(dt_secs >= 0.0, "billing interval must be non-negative");
        self.replica_seconds += billable as f64 * dt_secs;
    }

    /// Time-weighted mean active fleet size, if any samples exist.
    pub fn mean_active(&self) -> Option<f64> {
        self.timeline.time_weighted_mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_tracks_peak_and_timeline() {
        let mut f = FleetStats::new("fleet");
        f.sample(SimTime::ZERO, 2);
        f.sample(SimTime::from_secs(5), 6);
        f.sample(SimTime::from_secs(9), 3);
        assert_eq!(f.peak_active, 6);
        assert_eq!(f.timeline.len(), 3);
    }

    #[test]
    fn billing_integrates_replica_seconds() {
        let mut f = FleetStats::new("fleet");
        f.bill(4, 10.0);
        f.bill(2, 5.0);
        assert_eq!(f.replica_seconds, 50.0);
    }

    #[test]
    fn mean_active_is_time_weighted() {
        let mut f = FleetStats::new("fleet");
        f.sample(SimTime::ZERO, 4);
        f.sample(SimTime::from_secs(10), 2);
        // 4 held for the whole measured span.
        assert_eq!(f.mean_active(), Some(4.0));
    }
}
