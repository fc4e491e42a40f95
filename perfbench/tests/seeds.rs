//! The benchmark's own checks, at a small input size: seeds fix inputs,
//! probes change nothing, the fleet's executor changes nothing, and
//! `BENCHMARK.json` lists exactly the metrics the binary prints.

use perfbench::catalog::{END_TO_END, PER_LAYER};
use perfbench::run::{check_probed, run_plain, run_probed, setup};
use perfbench::workloads::{Size, Workload};
use tokenflow_cluster::Execution;
use tokenflow_scenario::json::{self, Json};

fn digest(workload: Workload, seed: u64) -> u64 {
    let cell = setup(workload, 0, seed, Size::Small).expect("small spec builds");
    let outcome = cell.harness.run();
    assert!(outcome.complete, "{workload} seed {seed} did not complete");
    outcome.digest()
}

#[test]
fn one_seed_repeats_and_two_seeds_differ() {
    for workload in Workload::ALL {
        let a = digest(workload, 7);
        assert_eq!(a, digest(workload, 7), "{workload}: same seed, new digest");
        assert_ne!(a, digest(workload, 8), "{workload}: two seeds, one digest");
    }
}

#[test]
fn cells_of_one_run_get_distinct_inputs() {
    let w = Workload::Burst4090;
    let a = setup(w, 0, 3, Size::Small).expect("cell 0 builds");
    let b = setup(w, 1, 3, Size::Small).expect("cell 1 builds");
    assert_ne!(a.harness.workload, b.harness.workload);
}

#[test]
fn fleet_digest_is_the_same_under_auto_and_sequential() {
    let cell = setup(Workload::FleetElasticFaults, 0, 5, Size::Small).expect("fleet builds");
    let auto = cell.harness.clone().run();
    let sequential = cell.harness.run_with_execution(Some(Execution::Sequential));
    assert!(auto.complete && sequential.complete);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores > 1 {
        assert!(
            auto.report.runtime.pool_submissions > 0,
            "auto never used the pool"
        );
    }
    // The executor's own counters (pool workers and submissions) are the
    // one part of a report an execution strategy may change.
    let invariant_digest = |outcome: &tokenflow_scenario::RunOutcome| {
        let mut report = outcome.report.clone();
        report.runtime = report.runtime.invariant();
        report.digest()
    };
    assert_eq!(invariant_digest(&auto), invariant_digest(&sequential));
}

#[test]
fn probed_runs_reproduce_plain_runs() {
    for workload in Workload::ALL {
        let cell = setup(workload, 0, 11, Size::Small).expect("small spec builds");
        let plain = run_plain(cell.harness.clone()).expect("plain run");
        let probed = run_probed(&cell).expect("probed run");
        if let Err(msg) = check_probed(&plain.facts, &probed) {
            panic!("{workload}: {msg}");
        }
    }
}

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    let list = doc.get(key).and_then(Json::as_arr).expect(key);
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_and_units(&doc, "end_to_end"), expect(END_TO_END));
    assert_eq!(names_and_units(&doc, "per_layer"), expect(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}
