//! One runner per table/figure of the paper's evaluation.
//!
//! Each experiment regenerates the rows/series its figure reports and
//! returns them as formatted text; the paper-vs-measured comparison is
//! still to be written up (ROADMAP item 6). Shapes — who wins, by
//! roughly what factor, where crossovers fall — are the reproduction
//! target, not absolute numbers (the substrate is an analytical
//! simulator, not the authors' testbed).

pub mod autoscale;
pub mod cluster;
pub mod e2e;
pub mod fault;
pub mod fleet;
pub mod hotpath;
pub mod kvmem;
pub mod micro;
pub mod sched_behavior;
pub mod sweep;

/// A runnable experiment tied to a paper table or figure.
pub struct Experiment {
    /// Identifier, e.g. `"fig16"`.
    pub id: &'static str,
    /// What the paper figure shows.
    pub title: &'static str,
    /// Runs the experiment and renders its results.
    pub run: fn() -> String,
}

/// Every experiment in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig01",
            title: "Token consumption speeds by age group and language",
            run: micro::fig01,
        },
        Experiment {
            id: "fig02",
            title: "SGLang burst micro-benchmark: TTFT and speed vs load (H200)",
            run: micro::fig02,
        },
        Experiment {
            id: "fig06",
            title: "Toy example of buffer-aware request scheduling",
            run: micro::fig06,
        },
        Experiment {
            id: "fig08",
            title: "Write strategies: write-back vs write-through vs rearranged",
            run: kvmem::fig08,
        },
        Experiment {
            id: "fig10",
            title: "Load-evict overlap vs serialized transfers",
            run: kvmem::fig10,
        },
        Experiment {
            id: "fig11",
            title: "Distribution of the synthetic industrial trace",
            run: micro::fig11,
        },
        Experiment {
            id: "fig12",
            title: "End-to-end on H200 with Llama3-8B (BurstGPT + industrial traces)",
            run: e2e::fig12,
        },
        Experiment {
            id: "fig13",
            title: "End-to-end on A6000 with Qwen2.5-7B (BurstGPT + industrial traces)",
            run: e2e::fig13,
        },
        Experiment {
            id: "fig14_15",
            title: "Queued/running requests over a long trace (Qwen2.5-32B, H200)",
            run: e2e::fig14_15,
        },
        Experiment {
            id: "fig16",
            title: "Controlled burst workloads (Table 1 burst rows)",
            run: e2e::fig16,
        },
        Experiment {
            id: "fig17",
            title: "Controlled Poisson workloads (Table 1 Poisson rows)",
            run: e2e::fig17,
        },
        Experiment {
            id: "fig18",
            title: "Token generation timelines: SGLang vs TokenFlow",
            run: sched_behavior::fig18,
        },
        Experiment {
            id: "fig19",
            title: "Multi-rate request scheduling (40% @15, 60% @20 tok/s)",
            run: sched_behavior::fig19,
        },
        Experiment {
            id: "fig20",
            title: "Effective throughput across generation speeds (20/25/30 tok/s)",
            run: sched_behavior::fig20,
        },
        Experiment {
            id: "fig21",
            title: "Burst performance on Huawei Ascend 910B",
            run: e2e::fig21,
        },
        Experiment {
            id: "fig22",
            title: "Rescheduling interval sensitivity (0.5-1.5 s)",
            run: sched_behavior::fig22,
        },
        Experiment {
            id: "fig23",
            title: "Buffer conservativeness sensitivity (1 vs 20)",
            run: sched_behavior::fig23,
        },
        Experiment {
            id: "table2",
            title: "Ablation of the hierarchical memory manager",
            run: kvmem::table2,
        },
        Experiment {
            id: "cluster",
            title: "Cluster scaling: 1/2/4 replicas × routing policy under burst",
            run: cluster::cluster_burst,
        },
        Experiment {
            id: "fleet",
            title: "Fleet scaling: 1-32 replicas, sequential vs pooled executor",
            run: fleet::fleet,
        },
        Experiment {
            id: "autoscale",
            title: "Elastic fleet: replica-seconds vs static-32 at matched QoS",
            run: autoscale::autoscale,
        },
        Experiment {
            id: "fault",
            title: "Failure recovery: mid-crowd replica crash, retries vs abandons",
            run: fault::fault,
        },
        Experiment {
            id: "hotpath",
            title: "Engine hot path: steps/sec vs request population (O(live) gate)",
            run: hotpath::hotpath,
        },
        Experiment {
            id: "sweep",
            title: "Declarative grid: scenarios/sweep_policy_workload.json via the spec layer",
            run: sweep::sweep,
        },
    ]
}
