//! Sampled time series for temporal plots (Figures 14/15).

use tokenflow_sim::SimTime;

/// A time-ordered sequence of `(time, value)` samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    name: String,
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty named series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// Creates an empty named series with room for `samples` entries.
    ///
    /// Callers that know the run length (deadline ÷ sampling interval)
    /// reserve once instead of reallocating through `push`; capacity is
    /// a hint, not a cap — the series still grows past it.
    pub fn with_capacity(name: impl Into<String>, samples: usize) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::with_capacity(samples),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample; time must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous sample.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(t >= last, "samples must be time-ordered");
        }
        self.samples.push((t, value));
    }

    /// All samples in order.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples exist.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Maximum value, if any samples exist.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Time-weighted mean of the series (each sample holds until the next).
    pub fn time_weighted_mean(&self) -> Option<f64> {
        if self.samples.len() < 2 {
            return self.samples.first().map(|&(_, v)| v);
        }
        let mut acc = 0.0;
        let mut span = 0.0;
        for w in self.samples.windows(2) {
            let dt = (w[1].0 - w[0].0).as_secs_f64();
            acc += w[0].1 * dt;
            span += dt;
        }
        if span == 0.0 {
            return Some(self.samples[0].1);
        }
        Some(acc / span)
    }

    /// Downsamples to at most `n` evenly spaced samples (keeping endpoints),
    /// for compact terminal plots.
    pub fn downsample(&self, n: usize) -> TimeSeries {
        if n == 0 || self.samples.len() <= n {
            return self.clone();
        }
        let mut out = TimeSeries::new(self.name.clone());
        let step = (self.samples.len() - 1) as f64 / (n - 1).max(1) as f64;
        for i in 0..n {
            let idx = (i as f64 * step).round() as usize;
            let (t, v) = self.samples[idx.min(self.samples.len() - 1)];
            out.push(t, v);
        }
        out
    }

    /// Renders a compact ASCII sparkline of the series.
    pub fn sparkline(&self, width: usize) -> String {
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.samples.is_empty() || width == 0 {
            return String::new();
        }
        let ds = self.downsample(width);
        let max = ds.max().unwrap_or(0.0).max(1e-12);
        ds.samples
            .iter()
            .map(|&(_, v)| {
                let idx = ((v / max) * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[idx.min(LEVELS.len() - 1)]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new("test");
        for (i, &v) in values.iter().enumerate() {
            s.push(SimTime::from_secs(i as u64), v);
        }
        s
    }

    #[test]
    fn push_and_query() {
        let s = series(&[1.0, 5.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.max(), Some(5.0));
        assert_eq!(s.name(), "test");
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_panics() {
        let mut s = TimeSeries::new("t");
        s.push(SimTime::from_secs(2), 1.0);
        s.push(SimTime::from_secs(1), 1.0);
    }

    #[test]
    fn time_weighted_mean_weights_by_duration() {
        // Value 0 for 9 s, then 10 at the last instant: mean weighted by
        // holding time is 0.
        let mut s = TimeSeries::new("t");
        s.push(SimTime::from_secs(0), 0.0);
        s.push(SimTime::from_secs(9), 10.0);
        assert_eq!(s.time_weighted_mean(), Some(0.0));

        // Equal 1-second holds average the left endpoints.
        let s = series(&[2.0, 4.0, 6.0]);
        assert_eq!(s.time_weighted_mean(), Some(3.0));
    }

    #[test]
    fn empty_series_behaviour() {
        let s = TimeSeries::new("e");
        assert!(s.is_empty());
        assert_eq!(s.max(), None);
        assert_eq!(s.time_weighted_mean(), None);
        assert_eq!(s.sparkline(10), "");
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let s = series(&(0..100).map(|i| i as f64).collect::<Vec<_>>());
        let d = s.downsample(10);
        assert_eq!(d.len(), 10);
        assert_eq!(d.samples()[0].1, 0.0);
        assert_eq!(d.samples()[9].1, 99.0);
    }

    #[test]
    fn downsample_noop_when_small() {
        let s = series(&[1.0, 2.0]);
        assert_eq!(s.downsample(10), s);
    }

    #[test]
    fn sparkline_scales_to_max() {
        let s = series(&[0.0, 1.0, 2.0, 4.0]);
        let line = s.sparkline(4);
        assert_eq!(line.chars().count(), 4);
        assert!(line.ends_with('█'));
    }
}
