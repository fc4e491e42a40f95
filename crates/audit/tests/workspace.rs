//! The live workspace must audit clean: zero findings, every crate at
//! or under its committed panic-surface baseline, a baseline that only
//! shrinks from one commit to the next, and a well-formed report. This
//! is the same code path `cargo run -p audit` and the CI job execute.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

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

/// The ratchet's direction: against the parent commit's baseline, no
/// crate's panic budget may grow. New crates may appear and counts may
/// shrink; growth needs the finding fixed, not the baseline raised.
/// Skips with a note where git or the parent commit is unavailable (a
/// depth-1 checkout, an exported tree).
#[test]
fn panic_baseline_only_shrinks_against_the_parent_commit() {
    let root = workspace_root();
    let show = Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["show", "HEAD~1:audit_baseline.json"])
        .output();
    let parent = match show {
        Ok(out) if out.status.success() => String::from_utf8(out.stdout).unwrap(),
        _ => {
            eprintln!("no baseline in the parent commit; skipping the direction check");
            return;
        }
    };
    let prev = report::parse_baseline(&parent).unwrap();
    let text = fs::read_to_string(root.join("audit_baseline.json")).unwrap();
    let grew: Vec<String> = report::parse_baseline(&text)
        .unwrap()
        .into_iter()
        .filter_map(|(name, now)| {
            let before = *prev.get(&name)?;
            (now > before).then(|| format!("{name} {before} -> {now}"))
        })
        .collect();
    assert!(grew.is_empty(), "panic baseline grew: {}", grew.join(", "));
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
