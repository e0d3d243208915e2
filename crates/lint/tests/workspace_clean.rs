//! The tier-1 gate: the whole workspace must be lint-clean with no
//! baseline — and no *rotted* annotations either. Every new diagnostic
//! is either a fix or a reviewed, reasoned `// lint: …-ok (…)`
//! annotation; every annotation must still be earning its keep.

use std::path::Path;

use borg_lint::{lint_workspace, Allowlist};

/// The files the old hand-maintained `BIT_IDENTITY_FILES` list named
/// that still exist (it also named the since-deleted sharded placement
/// layer). The computed contract-reachable set must stay a *strict*
/// superset: everything the list policed, plus everything it silently
/// missed.
const OLD_BIT_IDENTITY_FILES: &[&str] = &[
    "crates/query/src/parallel.rs",
    "crates/query/src/groupby.rs",
    "crates/sim/src/index.rs",
    "crates/sim/src/pool.rs",
];

#[test]
fn workspace_has_zero_unsuppressed_diagnostics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root, &Allowlist::empty()).expect("workspace scan");
    assert!(
        report.diags.is_empty(),
        "borg-lint found {} diagnostic(s):\n{}\nfix them or annotate with \
         `// lint: <rule>-ok (reason)` — see DESIGN.md §10/§15",
        report.diags.len(),
        report
            .diags
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_has_zero_unused_suppressions() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root, &Allowlist::empty()).expect("workspace scan");
    assert!(
        report.unused.is_empty(),
        "rotted lint suppressions in-tree (sites no longer fire — delete them):\n{}",
        report
            .unused
            .iter()
            .map(|u| u.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn contract_reach_strictly_covers_the_old_file_list() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root, &Allowlist::empty()).expect("workspace scan");
    let files = report.contract_files();
    for old in OLD_BIT_IDENTITY_FILES {
        assert!(
            files.contains(old),
            "{old} fell out of the computed contract scope; the graph lost coverage \
             the old BIT_IDENTITY_FILES list had"
        );
    }
    assert!(
        files.len() > OLD_BIT_IDENTITY_FILES.len(),
        "the computed contract scope ({} files) must be a STRICT superset of the old \
         file list — the whole point of the call graph is covering what the list missed",
        files.len()
    );
    // Every contract root resolved (missing roots would have surfaced
    // as G1 diagnostics above; this pins the invariant directly too).
    assert!(
        report.graph.missing_roots.is_empty(),
        "unresolved contract roots: {:?}",
        report.graph.missing_roots
    );
    // The WorkerPool dispatch boundary was discovered, so C2 has scope.
    assert!(
        !report.graph.pool_roots.is_empty(),
        "no WorkerPool worker functions found — pool-root discovery broke"
    );
}
