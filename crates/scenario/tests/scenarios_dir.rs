//! The committed `scenarios/` directory is part of the tested surface:
//! every file must parse, build, and (for the flagship
//! `flash_crowd_autoscale.json`) reproduce the hand-built stack
//! byte-for-byte.

use std::path::{Path, PathBuf};

use tokenflow_cluster::{ClusterEngine, LeastLoadedRouter};
use tokenflow_control::{ControlConfig, ReactivePolicy};
use tokenflow_core::EngineConfig;
use tokenflow_model::{HardwareProfile, ModelProfile};
use tokenflow_scenario::{is_sweep, json, scenario_from_json, sweep_from_json};
use tokenflow_sched::TokenFlowScheduler;
use tokenflow_sim::{SimDuration, SimTime};
use tokenflow_workload::{diurnal_flash_crowd, RateDist};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn committed_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_committed_scenario_parses_and_builds() {
    let files = committed_files();
    assert!(
        files.len() >= 6,
        "scenarios/ should stay a diverse gallery, found {}",
        files.len()
    );
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if is_sweep(&doc) {
            let sweep = sweep_from_json(&doc).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let cells = sweep
                .expand()
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(!cells.is_empty(), "{}: empty sweep", path.display());
            for (label, mut spec) in cells {
                spec.rebase_paths(&scenarios_dir());
                spec.build()
                    .unwrap_or_else(|e| panic!("{}[{label}]: {e}", path.display()));
            }
        } else {
            let mut spec = scenario_from_json(&doc, "scenario")
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            spec.rebase_paths(&scenarios_dir());
            spec.build()
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
    }
}

/// The committed sweep file must stay a ≥ 6-cell policy × workload grid
/// (the acceptance bar for `tokenflow sweep`).
#[test]
fn committed_sweep_is_a_policy_by_workload_grid() {
    let text = std::fs::read_to_string(scenarios_dir().join("sweep_policy_workload.json"))
        .expect("sweep file committed");
    let sweep = sweep_from_json(&json::parse(&text).unwrap()).unwrap();
    assert!(
        sweep.cells() >= 6,
        "sweep must stay a ≥6-cell grid, found {}",
        sweep.cells()
    );
    assert_eq!(sweep.axes.len(), 2, "scheduler × workload axes");
}

/// Acceptance: the committed fault-injection scenario — a crash plus a
/// straggler window in the middle of the flash crowd — recovers every
/// lost request (no abandons, no sheds) and reproduces its pinned report
/// digest byte-for-byte. A drift here means fault injection, recovery,
/// or the scenario codec changed observable behavior.
#[test]
fn faulty_flash_crowd_recovers_fully_and_digest_is_pinned() {
    let text = std::fs::read_to_string(scenarios_dir().join("faulty_flash_crowd.json"))
        .expect("fault scenario committed");
    let spec = scenario_from_json(&json::parse(&text).unwrap(), "scenario").unwrap();
    let out = spec.build().expect("buildable").run();
    assert!(out.complete);
    let faults = out
        .report
        .faults
        .as_ref()
        .expect("faulted run reports stats");
    assert_eq!(faults.crashes, 1);
    assert!(faults.lost_events > 0, "the crash must strand live work");
    assert_eq!(faults.recovered, faults.lost_events, "full recovery");
    assert_eq!(faults.abandoned, 0);
    assert_eq!(faults.shed, 0);
    assert_eq!(out.report.completed, out.report.submitted);
    const PINNED: u64 = 0x29b8_47a6_773a_9837;
    assert_eq!(
        out.digest(),
        PINNED,
        "fault scenario digest drifted: {:016x}\n{}",
        out.digest(),
        out.report.canonical_json()
    );
}

/// Acceptance: `tokenflow run scenarios/flash_crowd_autoscale.json`
/// produces a `RunReport` whose digest matches the equivalent hand-built
/// stack — the exact construction `tests/golden.rs` pins.
#[test]
fn flash_crowd_autoscale_file_matches_hand_built_stack() {
    let text = std::fs::read_to_string(scenarios_dir().join("flash_crowd_autoscale.json"))
        .expect("flagship scenario committed");
    let spec = scenario_from_json(&json::parse(&text).unwrap(), "scenario").unwrap();
    let from_file = spec.build().expect("buildable").run();

    // The hand-built equivalent, spelled out the pre-spec way.
    let config =
        EngineConfig::new(ModelProfile::llama3_8b(), HardwareProfile::rtx4090()).with_max_batch(16);
    let workload = diurnal_flash_crowd(
        1.5,
        SimDuration::from_secs(120),
        30,
        SimTime::from_secs(30),
        RateDist::Uniform { lo: 8.0, hi: 24.0 },
        42,
    );
    let control = ControlConfig::for_engine(&config)
        .with_gamma(300.0)
        .with_min_replicas(1)
        .with_max_replicas(6)
        .with_boot_delay(SimDuration::from_secs(2))
        .with_cooldown(SimDuration::ZERO);
    let hand = ClusterEngine::new(config, 2, LeastLoadedRouter::new(), || {
        Box::new(TokenFlowScheduler::new())
    })
    .with_autoscaler(ReactivePolicy::new(), control)
    .run(&workload);

    assert!(from_file.complete && hand.complete);
    assert_eq!(
        from_file.digest(),
        hand.merged.digest(),
        "spec file diverged from the hand-built stack\nfile: {}\nhand: {}",
        from_file.report.canonical_json(),
        hand.merged.canonical_json()
    );
}
