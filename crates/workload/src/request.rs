//! Request specifications and workloads.

use tokenflow_sim::{RequestId, SimDuration, SimTime};

/// Who consumes the stream (paper §8, "Handles Different Client Types").
///
/// Interactive clients are humans with a hard consumption rate the server
/// must match; agent clients (tool pipelines, LLM-to-LLM calls) declare a
/// *reference* rate that acts as a scheduling priority — they accelerate
/// when resources permit and are throttled first under load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClientKind {
    /// A human reader/listener with a firm consumption rate.
    #[default]
    Interactive,
    /// A machine consumer with an elastic reference rate.
    Agent,
}

/// Everything the serving engine needs to know about one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpec {
    /// Dense identifier, assigned in arrival order.
    pub id: RequestId,
    /// Arrival (submission) time.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub prompt_tokens: u64,
    /// Number of tokens the request will generate.
    pub output_tokens: u64,
    /// Required streaming rate in tokens/second — the client's declared
    /// consumption speed (paper §8 "clients explicitly specify their desired
    /// output rate").
    pub rate: f64,
}

/// Summary statistics of a workload, used to validate generators and to
/// print the Figure 11 distribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadStats {
    /// Number of requests.
    pub count: usize,
    /// Time of the last arrival.
    pub span: SimTime,
    /// Mean prompt length.
    pub mean_prompt: f64,
    /// Mean output length.
    pub mean_output: f64,
    /// Median prompt length.
    pub p50_prompt: u64,
    /// 99th-percentile prompt length.
    pub p99_prompt: u64,
    /// Median output length.
    pub p50_output: u64,
    /// 99th-percentile output length.
    pub p99_output: u64,
    /// Mean required rate in tokens/second.
    pub mean_rate: f64,
    /// Largest number of arrivals inside any one-second window.
    pub peak_arrivals_per_sec: usize,
}

/// An ordered collection of requests.
///
/// Construction sorts by arrival and renumbers ids densely, so `specs[i].id
/// == RequestId(i)` always holds.
///
/// # Examples
///
/// ```
/// use tokenflow_sim::{RequestId, SimTime};
/// use tokenflow_workload::{RequestSpec, Workload};
///
/// let w = Workload::new(vec![
///     RequestSpec { id: RequestId(0), arrival: SimTime::from_secs(5),
///                   prompt_tokens: 10, output_tokens: 20, rate: 10.0 },
///     RequestSpec { id: RequestId(0), arrival: SimTime::from_secs(1),
///                   prompt_tokens: 10, output_tokens: 20, rate: 10.0 },
/// ]);
/// assert_eq!(w.get(RequestId(0)).arrival, SimTime::from_secs(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    specs: Vec<RequestSpec>,
}

impl Workload {
    /// Builds a workload, sorting by arrival time and renumbering ids.
    ///
    /// **Id contract:** incoming ids are ignored. Construction stably
    /// sorts by arrival (ties keep their input order) and reassigns ids
    /// densely, so `specs[i].id == RequestId(i)` holds afterwards — a
    /// workload saved to a trace and replayed therefore reproduces its
    /// ids exactly. Every composition helper ([`Workload::merge`],
    /// [`Workload::offset`]) goes through this constructor and inherits
    /// the contract.
    pub fn new(mut specs: Vec<RequestSpec>) -> Self {
        specs.sort_by_key(|s| s.arrival);
        for (i, s) in specs.iter_mut().enumerate() {
            s.id = RequestId(i as u64);
        }
        Workload { specs }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the workload has no requests.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Iterates over specs in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &RequestSpec> {
        self.specs.iter()
    }

    /// The spec for a given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn get(&self, id: RequestId) -> &RequestSpec {
        &self.specs[id.0 as usize]
    }

    /// All specs as a slice, in arrival order.
    pub fn specs(&self) -> &[RequestSpec] {
        &self.specs
    }

    /// Merges several workloads into one timeline (re-sorted and
    /// re-numbered per the [`Workload::new`] id contract).
    pub fn merge(parts: Vec<Workload>) -> Workload {
        let specs = parts.into_iter().flat_map(|w| w.specs).collect();
        Workload::new(specs)
    }

    /// Returns a copy with every arrival shifted `delta` later. Relative
    /// order (and therefore every id) is unchanged. Composition building
    /// block: generate phases at time zero, offset each into place, then
    /// [`merge`](Workload::merge) — the diurnal flash-crowd preset is
    /// built exactly this way.
    pub fn offset(&self, delta: SimDuration) -> Workload {
        Workload::new(
            self.specs
                .iter()
                .map(|s| RequestSpec {
                    arrival: s.arrival.saturating_add(delta),
                    ..*s
                })
                .collect(),
        )
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> WorkloadStats {
        let count = self.specs.len();
        if count == 0 {
            return WorkloadStats {
                count: 0,
                span: SimTime::ZERO,
                mean_prompt: 0.0,
                mean_output: 0.0,
                p50_prompt: 0,
                p99_prompt: 0,
                p50_output: 0,
                p99_output: 0,
                mean_rate: 0.0,
                peak_arrivals_per_sec: 0,
            };
        }
        let mut prompts: Vec<u64> = self.specs.iter().map(|s| s.prompt_tokens).collect();
        let mut outputs: Vec<u64> = self.specs.iter().map(|s| s.output_tokens).collect();
        prompts.sort_unstable();
        outputs.sort_unstable();
        let pct = |v: &[u64], p: f64| -> u64 {
            let idx = ((v.len() as f64 - 1.0) * p).round() as usize;
            v[idx]
        };

        // Peak arrivals in any sliding one-second window (two-pointer scan).
        let mut peak = 0usize;
        let times: Vec<u64> = self.specs.iter().map(|s| s.arrival.as_micros()).collect();
        let mut lo = 0usize;
        for hi in 0..times.len() {
            while times[hi] - times[lo] >= 1_000_000 {
                lo += 1;
            }
            peak = peak.max(hi - lo + 1);
        }

        WorkloadStats {
            count,
            span: self
                .specs
                .last()
                .map(|s| s.arrival)
                .unwrap_or(SimTime::ZERO),
            mean_prompt: prompts.iter().sum::<u64>() as f64 / count as f64,
            mean_output: outputs.iter().sum::<u64>() as f64 / count as f64,
            p50_prompt: pct(&prompts, 0.50),
            p99_prompt: pct(&prompts, 0.99),
            p50_output: pct(&outputs, 0.50),
            p99_output: pct(&outputs, 0.99),
            mean_rate: self.specs.iter().map(|s| s.rate).sum::<f64>() / count as f64,
            peak_arrivals_per_sec: peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(arrival_ms: u64, prompt: u64, output: u64, rate: f64) -> RequestSpec {
        RequestSpec {
            id: RequestId(999),
            arrival: SimTime::from_millis(arrival_ms),
            prompt_tokens: prompt,
            output_tokens: output,
            rate,
        }
    }

    #[test]
    fn construction_sorts_and_renumbers() {
        let w = Workload::new(vec![spec(300, 1, 1, 1.0), spec(100, 2, 2, 1.0)]);
        assert_eq!(w.get(RequestId(0)).prompt_tokens, 2);
        assert_eq!(w.get(RequestId(1)).prompt_tokens, 1);
        for (i, s) in w.iter().enumerate() {
            assert_eq!(s.id, RequestId(i as u64));
        }
    }

    #[test]
    fn merge_interleaves_timelines() {
        let a = Workload::new(vec![spec(100, 1, 1, 1.0), spec(300, 1, 1, 1.0)]);
        let b = Workload::new(vec![spec(200, 2, 2, 1.0)]);
        let m = Workload::merge(vec![a, b]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(RequestId(1)).prompt_tokens, 2);
    }

    #[test]
    fn merge_keeps_arrivals_sorted_and_ids_dense() {
        let a = Workload::new(vec![spec(500, 1, 1, 1.0), spec(100, 1, 1, 1.0)]);
        let b = Workload::new(vec![spec(300, 2, 2, 1.0), spec(50, 2, 2, 1.0)]);
        let m = Workload::merge(vec![a, b]);
        let arrivals: Vec<SimTime> = m.iter().map(|s| s.arrival).collect();
        let mut sorted = arrivals.clone();
        sorted.sort();
        assert_eq!(arrivals, sorted);
        for (i, s) in m.iter().enumerate() {
            assert_eq!(s.id, RequestId(i as u64));
        }
    }

    #[test]
    fn offset_shifts_arrivals_preserving_order_and_ids() {
        let w = Workload::new(vec![
            spec(0, 1, 1, 1.0),
            spec(250, 2, 2, 2.0),
            spec(900, 3, 3, 3.0),
        ]);
        let shifted = w.offset(SimDuration::from_millis(1_000));
        assert_eq!(shifted.len(), w.len());
        for (orig, moved) in w.iter().zip(shifted.iter()) {
            assert_eq!(moved.id, orig.id);
            assert_eq!(
                moved.arrival.saturating_since(orig.arrival),
                SimDuration::from_millis(1_000)
            );
            assert_eq!(moved.prompt_tokens, orig.prompt_tokens);
            assert_eq!(moved.rate, orig.rate);
        }
    }

    #[test]
    fn offset_then_merge_composes_phases() {
        // The composition pattern the diurnal flash-crowd preset uses: a
        // burst generated at time zero lands mid-trace after an offset.
        let base = Workload::new(vec![spec(0, 1, 1, 1.0), spec(2_000, 1, 1, 1.0)]);
        let burst = Workload::new(vec![spec(0, 9, 9, 9.0), spec(0, 9, 9, 9.0)]);
        let m = Workload::merge(vec![base.clone(), burst.offset(SimDuration::from_secs(1))]);
        assert_eq!(m.len(), 4);
        // The burst sits between the base arrivals, ids renumbered.
        assert_eq!(m.get(RequestId(1)).prompt_tokens, 9);
        assert_eq!(m.get(RequestId(2)).prompt_tokens, 9);
        assert_eq!(m.get(RequestId(3)).arrival, SimTime::from_secs(2));
    }

    #[test]
    fn stats_basics() {
        let w = Workload::new(vec![
            spec(0, 100, 200, 10.0),
            spec(500, 300, 400, 20.0),
            spec(5_000, 500, 600, 30.0),
        ]);
        let s = w.stats();
        assert_eq!(s.count, 3);
        assert_eq!(s.span, SimTime::from_secs(5));
        assert_eq!(s.mean_prompt, 300.0);
        assert_eq!(s.p50_output, 400);
        assert_eq!(s.mean_rate, 20.0);
        // Two arrivals land within the first second.
        assert_eq!(s.peak_arrivals_per_sec, 2);
    }

    #[test]
    fn empty_stats_do_not_panic() {
        let s = Workload::new(vec![]).stats();
        assert_eq!(s.count, 0);
        assert_eq!(s.peak_arrivals_per_sec, 0);
    }

    #[test]
    fn burst_peak_counts_simultaneous_arrivals() {
        let w = Workload::new((0..50).map(|_| spec(1_000, 1, 1, 1.0)).collect());
        assert_eq!(w.stats().peak_arrivals_per_sec, 50);
    }
}
