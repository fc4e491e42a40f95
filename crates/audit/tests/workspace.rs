//! The live workspace must audit clean: zero findings, every crate at
//! or under its committed panic-surface baseline, and a well-formed
//! report. This is the same code path `cargo run -p audit` and the CI
//! job execute.

use std::fs;
use std::path::{Path, PathBuf};

use audit::tiers::{self, Tier};
use audit::{ratchet_findings, report, run_audit};

fn workspace_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    tiers::find_root(here).expect("workspace root above crates/audit")
}

fn render_all(findings: &[audit::diag::Diagnostic]) -> String {
    findings
        .iter()
        .map(|d| d.render())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn workspace_audits_clean() {
    let root = workspace_root();
    let outcome = run_audit(&root).unwrap();
    assert!(
        !outcome.crates.is_empty() && outcome.files_scanned > 0,
        "audit found no files — tier map or walker is broken"
    );
    assert!(
        outcome.findings.is_empty(),
        "workspace has unbaselined findings:\n{}",
        render_all(&outcome.findings)
    );
    // The tier map's two anchors: the simulation core is deterministic,
    // the experiment harness is host code.
    let tier = |name: &str| {
        outcome
            .crates
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.tier)
    };
    assert_eq!(tier("sim"), Some(Tier::Deterministic));
    assert_eq!(tier("bench"), Some(Tier::Host));
}

#[test]
fn panic_surface_is_within_the_committed_baseline() {
    let root = workspace_root();
    let outcome = run_audit(&root).unwrap();
    let text = fs::read_to_string(root.join("audit_baseline.json")).unwrap();
    let baseline = report::parse_baseline(&text).unwrap();
    let regressions = ratchet_findings(&outcome, &baseline);
    assert!(
        regressions.is_empty(),
        "panic-surface ratchet regressed:\n{}",
        render_all(&regressions)
    );
    // Every baselined crate still exists — a deleted crate should be
    // dropped from the baseline, not left to rot.
    let names: Vec<&str> = outcome.crates.iter().map(|c| c.name).collect();
    for name in baseline.keys() {
        assert!(
            names.contains(&name.as_str()),
            "baseline entry `{name}` names a crate not in the tier map"
        );
    }
}

#[test]
fn report_json_is_well_formed_and_clean() {
    let root = workspace_root();
    let outcome = run_audit(&root).unwrap();
    let text = fs::read_to_string(root.join("audit_baseline.json")).unwrap();
    let baseline = report::parse_baseline(&text).unwrap();
    let json = report::report_json(&outcome, &baseline);
    assert!(json.contains("\"schema\": \"tokenflow-audit/v1\""));
    assert!(json.contains("\"clean\": true"));
    // Every allow in the report carries a non-empty reason.
    for (_, allow) in &outcome.allows {
        assert!(!allow.reason.trim().is_empty());
    }
}
