//! Bakes build metadata into the binary: the compiler version, the build
//! profile, and the source commit when the checkout is a git work tree.
//! Every benchmark result records them next to the host description.

use std::fs;
use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    let git = Path::new("../.git");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", git_commit(git));
    // A missing path would make cargo rerun this script on every build,
    // so watch the git files only where they exist.
    if git.join("HEAD").is_file() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/refs");
    }
    println!("cargo:rerun-if-changed=build.rs");
}

/// Resolves `HEAD` by reading the git directory directly (no `git`
/// process, so nothing outside the checkout is consulted). Checkouts
/// exported without `.git` report `unknown`.
fn git_commit(git: &Path) -> String {
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    // Packed refs: `<hash> <ref>` lines.
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
