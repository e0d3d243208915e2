//! The tier-1 command (`cargo build --release && cargo test -q`) runs
//! only the workspace's `default-members`. Every member crate that
//! carries tests must be among them, or its tests — the equivalence
//! digests, the lint self-check — silently drop out of tier-1.

use std::fs;
use std::path::{Path, PathBuf};

/// The quoted entries of a `key = [ ... ]` array in the `[workspace]`
/// table. A missing key yields `None`.
fn workspace_array(manifest: &str, key: &str) -> Option<Vec<String>> {
    let table = &manifest[manifest.find("[workspace]")?..];
    let start = table
        .lines()
        .position(|l| l.trim_start().starts_with(&format!("{key} =")))?;
    let rest: String = table.lines().skip(start).collect::<Vec<_>>().join("\n");
    let open = rest.find('[')?;
    let close = rest.find(']')?;
    Some(
        rest[open + 1..close]
            .split('"')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect(),
    )
}

/// Expands a member pattern (`"."`, `"crates/x"` or `"crates/*"`) to
/// the package directories it names, relative to the workspace root.
fn expand(root: &Path, pattern: &str) -> Vec<String> {
    let Some(parent) = pattern.strip_suffix("/*") else {
        return vec![pattern.to_string()];
    };
    let mut dirs: Vec<String> = fs::read_dir(root.join(parent))
        .expect("member glob directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .map(|p| format!("{parent}/{}", p.file_name().unwrap().to_string_lossy()))
        .collect();
    dirs.sort();
    dirs
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `cargo test` would run anything for the package in `dir`:
/// an integration-test directory or a `#[test]` in its sources.
fn has_tests(dir: &Path) -> bool {
    if dir.join("tests").is_dir() {
        return true;
    }
    let mut files = Vec::new();
    rs_files(&dir.join("src"), &mut files);
    files
        .iter()
        .any(|f| fs::read_to_string(f).is_ok_and(|s| s.contains("#[test]")))
}

#[test]
fn every_member_with_tests_is_a_default_member() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = workspace_array(&manifest, "members").expect("workspace members");
    // Without `default-members`, cargo runs only the root package.
    let defaults: Vec<String> = workspace_array(&manifest, "default-members")
        .unwrap_or_else(|| vec![".".to_string()])
        .iter()
        .flat_map(|p| expand(root, p))
        .collect();
    let mut checked = 0;
    for member in members.iter().flat_map(|p| expand(root, p)) {
        if has_tests(&root.join(&member)) {
            checked += 1;
            assert!(
                defaults.contains(&member),
                "{member} has tests but is not in the root Cargo.toml's \
                 default-members, so tier-1 `cargo test` skips them"
            );
        }
    }
    assert!(checked > 0, "no member crates with tests found");
}
