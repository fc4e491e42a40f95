//! The four benchmark workloads, as scenario specs.
//!
//! A run of one workload is a fixed number of independent *cells*: the
//! same serving stack driven to completion over a fresh input generated
//! from a cell seed, which derives from the run's `--seed`. Every arrival
//! schedule is open-loop in simulated time, so time to first token counts
//! from the scheduled arrival. Several cells per run exist because a
//! single burst run's tail latency swings by tens of percent from one
//! input to the next; the median over cells (and the pooled ratios) is
//! what stays put across seeds.

use std::fmt;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single H200 engine, one-hour diurnal trace plus a flash crowd.
    DiurnalH200,
    /// Single RTX 4090 engine under periodic bursts of ShareGPT-length
    /// requests that overrun KV memory.
    Burst4090,
    /// Autoscaled fleet with a replica crash, a straggler and retries.
    FleetElasticFaults,
    /// Static four-replica cluster with the decision journal on, whose
    /// journal is rendered and explained after every run.
    TracedCluster,
}

/// Input size of a cell: `Full` is the benchmark, `Small` a scaled-down
/// copy for the package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::DiurnalH200,
        Workload::Burst4090,
        Workload::FleetElasticFaults,
        Workload::TracedCluster,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DiurnalH200 => "diurnal-h200",
            Workload::Burst4090 => "burst-4090",
            Workload::FleetElasticFaults => "fleet-elastic-faults",
            Workload::TracedCluster => "traced-cluster",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cells per run. Sized so one untraced pass over the cells takes
    /// 6–10 seconds on a 2-core host with a release build; the burst
    /// workload gets many short cells because its TTFT quantiles swing
    /// most from one input to the next.
    pub fn cells(self) -> usize {
        match self {
            Workload::DiurnalH200 => 4,
            Workload::Burst4090 => 32,
            Workload::FleetElasticFaults => 4,
            Workload::TracedCluster => 4,
        }
    }

    /// Whether runs record the decision journal and render it.
    pub fn journal(self) -> bool {
        self == Workload::TracedCluster
    }

    /// The scenario spec of one cell, as the JSON text the benchmark
    /// parses (parsing is part of the measured set-up).
    pub fn spec_json(self, cell_seed: u64, size: Size) -> String {
        // `Small` shrinks the simulated duration and the crowd, keeping
        // the topology, so tests exercise the same stack quickly.
        let (scale, crowd): (f64, f64) = match size {
            Size::Full => (1.0, 1.0),
            Size::Small => (0.05, 0.1),
        };
        match self {
            Workload::DiurnalH200 => format!(
                r#"{{"name": "diurnal-h200", "model": "Llama3-8B", "hardware": "H200",
  "scheduler": "tokenflow",
  "workload": {{"type": "diurnal-flash-crowd", "peak_rate": 12, "duration_secs": {dur},
    "crowd_size": {crowd_size}, "crowd_at_secs": 30,
    "rate": {{"type": "uniform", "lo": 8, "hi": 24}}, "seed": {cell_seed}}},
  "topology": "single"}}"#,
                dur = 3600.0 * scale,
                crowd_size = (2000.0 * crowd) as u64,
            ),
            Workload::Burst4090 => format!(
                r#"{{"name": "burst-4090", "model": "Llama3-8B", "hardware": "RTX4090",
  "engine": {{"max_batch": 64}}, "scheduler": "tokenflow",
  "workload": {{"type": "synthetic",
    "arrivals": {{"type": "diurnal", "trough_rate": 0.5, "peak_rate": 6, "period_secs": 60,
      "duration_secs": {dur}}},
    "prompt": "sharegpt-prompt", "output": "sharegpt-output",
    "rate": {{"type": "uniform", "lo": 10, "hi": 18}}, "seed": {cell_seed}}},
  "topology": "single"}}"#,
                dur = 1200.0 * scale,
            ),
            Workload::FleetElasticFaults => format!(
                r#"{{"name": "fleet-elastic-faults", "model": "Llama3-8B", "hardware": "RTX4090",
  "engine": {{"max_batch": 16}}, "scheduler": "tokenflow",
  "workload": {{"type": "diurnal-flash-crowd", "peak_rate": 12, "duration_secs": {dur},
    "crowd_size": {crowd_size}, "crowd_at_secs": 30,
    "rate": {{"type": "uniform", "lo": 8, "hi": 24}}, "seed": {cell_seed}}},
  "topology": {{"type": "autoscaled", "bootstrap": 4, "router": "backlog-aware",
    "policy": "reactive",
    "control": {{"min_replicas": 4, "max_replicas": 32, "boot_delay_secs": 10,
      "cooldown_secs": 30}},
    "execution": "auto"}},
  "fault": {{"crashes": [{{"replica": 0, "at_secs": 32}}],
    "stragglers": [{{"replica": 1, "from_secs": 30, "until_secs": 60, "factor": 0.5}}],
    "retry": {{"max_attempts": 4, "base_backoff_ms": 500, "multiplier": 2,
      "max_backoff_ms": 8000}}}}}}"#,
                dur = 3600.0 * scale,
                crowd_size = (2000.0 * crowd) as u64,
            ),
            Workload::TracedCluster => format!(
                r#"{{"name": "traced-cluster", "model": "Llama3-8B", "hardware": "RTX4090",
  "engine": {{"max_batch": 64}}, "scheduler": "tokenflow",
  "workload": {{"type": "diurnal-flash-crowd", "peak_rate": 6, "duration_secs": {dur},
    "crowd_size": {crowd_size}, "crowd_at_secs": 30,
    "rate": {{"type": "uniform", "lo": 8, "hi": 24}}, "seed": {cell_seed}}},
  "topology": {{"type": "cluster", "replicas": 4, "router": "backlog-aware",
    "execution": "sequential"}}}}"#,
                dur = 240.0 * scale.max(0.5),
                crowd_size = (350.0 * crowd) as u64,
            ),
        }
    }

    /// Checks the seed-fixed semantic counts that keep a cell from
    /// silently degenerating into a no-op. Returns the first violation.
    pub(crate) fn guard(self, cell: &CellFacts, size: Size) -> Result<(), String> {
        let min_requests = match size {
            Size::Full => 1_000,
            Size::Small => 1,
        };
        if cell.requests < min_requests {
            return Err(format!(
                "{} requests, the workload needs at least {min_requests}",
                cell.requests
            ));
        }
        match self {
            Workload::DiurnalH200 => Ok(()),
            Workload::Burst4090 if cell.preemptions == 0 => {
                Err("no preemptions: the burst no longer overruns KV memory".to_string())
            }
            Workload::Burst4090 => Ok(()),
            Workload::FleetElasticFaults if cell.crashes == 0 || cell.lost == 0 => Err(format!(
                "the crash missed: {} crashes, {} requests lost",
                cell.crashes, cell.lost
            )),
            Workload::FleetElasticFaults if cell.scale_events == 0 => {
                Err("the fleet never scaled".to_string())
            }
            Workload::FleetElasticFaults => Ok(()),
            Workload::TracedCluster if cell.traced_replicas < 2 => Err(format!(
                "journal holds events from {} replica(s), expected at least 2",
                cell.traced_replicas
            )),
            Workload::TracedCluster => Ok(()),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The semantic counts of one cell that [`Workload::guard`] checks.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CellFacts {
    pub requests: usize,
    pub preemptions: u64,
    pub crashes: u64,
    pub lost: u64,
    pub scale_events: usize,
    pub traced_replicas: usize,
}

/// The input seed of cell `cell` of a run seeded with `seed`
/// (SplitMix64, truncated to 53 bits so the spec's JSON number holds it
/// exactly).
pub(crate) fn cell_seed(seed: u64, cell: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(cell as u64)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 11
}
