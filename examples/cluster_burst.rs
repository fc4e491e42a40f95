//! Cluster burst: serve a flash crowd with 1, 2, and 4 engine replicas
//! behind each routing policy, and watch the tail TTFT collapse as the
//! crowd spreads. Every stack is assembled through the scenario spec —
//! the replicas × router grid is a loop over spec values, not hand-wired
//! `main`s.
//!
//! ```text
//! cargo run --release --example cluster_burst
//! ```

use tokenflow::scenario::{
    ExecutionSpec, RouterSpec, ScenarioSpec, TopologySpec, Variants, WorkloadSpec,
};

fn main() {
    // The Table 1 RTX 4090 (a) flash crowd: 60 requests at t = 0.
    let base = ScenarioSpec {
        name: "cluster-burst".to_string(),
        hardware: "RTX4090".to_string(),
        workload: WorkloadSpec::Preset {
            name: "rtx4090-a".to_string(),
            seed: 42,
        },
        ..ScenarioSpec::default()
    };
    let workload = base.workload.build_workload().expect("preset generates");
    println!(
        "flash crowd: {} requests at t=0, mean prompt {:.0}, mean output {:.0}\n",
        workload.len(),
        workload.stats().mean_prompt,
        workload.stats().mean_output
    );

    for replicas in [1u64, 2, 4] {
        for router in [
            RouterSpec::RoundRobin,
            RouterSpec::LeastLoaded,
            RouterSpec::RateAware,
        ] {
            if replicas == 1 && router != RouterSpec::RoundRobin {
                continue; // all policies coincide on a single replica
            }
            let spec = ScenarioSpec {
                topology: TopologySpec::Cluster {
                    replicas,
                    router,
                    // Replicas advance in parallel between arrival
                    // barriers; the executor choice cannot change a byte
                    // of the results.
                    execution: ExecutionSpec::Parallel(4),
                },
                ..base.clone()
            };
            let outcome = spec.build().expect("buildable").run();
            let r = &outcome.report;
            println!(
                "{replicas} replica(s) · {:<12} → eff thpt {:>7.1} tok/s · mean TTFT {:>6.2}s \
                 · p99 TTFT {:>6.2}s{}",
                router.type_name(),
                r.effective_throughput,
                r.ttft.mean,
                r.ttft.p99,
                if outcome.complete {
                    ""
                } else {
                    " (INCOMPLETE)"
                },
            );
        }
        println!();
    }
    println!("the same grid as data: scenarios/cluster_fleet_burst.json (tokenflow run)");
}
