//! End-to-end checks for the call-graph reachability side of the audit,
//! driving the **binary** so the exit code and the text report are covered:
//!
//! * **A7 hot-alloc**: a `.collect()` below `AncEngine::activate_batch`
//!   fails the audit on that site, and a justified allow clears it;
//! * a root-table entry that names no function — what a rename of
//!   `AncEngine::activate` would leave behind — fails the run and names
//!   the root, instead of leaving the rule green while it checks nothing;
//! * the real workspace scans clean.
//!
//! The seeded cases build a synthetic workspace in a temp directory, so the
//! real sources are never touched.

mod common;

use std::path::Path;

use common::{root_stubs, run_audit, seed_tree, tmp_dir};

/// An allocation one call below a per-activation root; `allowed` suppresses
/// it with a justified comment.
fn gather_src(allowed: bool) -> String {
    let allow = if allowed {
        "// audit:allow(hot-alloc) -- fixture: cold error path\n        "
    } else {
        ""
    };
    format!(
        "pub struct AncEngine;\n\
         impl AncEngine {{\n\
         \x20   pub fn activate_batch(&mut self, edges: &[u32], _t: f64) -> usize {{\n\
         \x20       self.gather(edges).len()\n\
         \x20   }}\n\
         \x20   fn gather(&self, edges: &[u32]) -> Vec<u32> {{\n\
         \x20       {allow}edges.iter().copied().collect()\n\
         \x20   }}\n\
         }}\n"
    )
}

#[test]
fn seeded_alloc_reachable_from_batch_root_exits_nonzero() {
    let tmp = tmp_dir("a7");
    seed_tree(&tmp, "core", "engine.rs", &gather_src(false));
    let (code, stdout) = run_audit(&tmp);
    std::fs::remove_dir_all(&tmp).unwrap();

    assert_eq!(code, 1, "a hot-path allocation must fail the audit; stdout: {stdout}");
    assert!(
        stdout.contains("crates/core/src/engine.rs:7: [hot-alloc] .collect()"),
        "must attribute to A7 at the site: {stdout}"
    );
    assert!(
        stdout.contains("AncEngine::activate_batch → AncEngine::gather"),
        "the finding must carry the fn and its root: {stdout}"
    );
}

#[test]
fn seeded_alloc_allow_clears_it() {
    let tmp = tmp_dir("a7-allow");
    seed_tree(&tmp, "core", "engine.rs", &gather_src(true));
    let (code, stdout) = run_audit(&tmp);
    std::fs::remove_dir_all(&tmp).unwrap();
    assert_eq!(code, 0, "a justified allow must clear A7; stdout: {stdout}");
    assert!(stdout.contains("[anc-audit] OK"), "{stdout}");
}

#[test]
fn renamed_root_fails_the_run_and_is_named() {
    let tmp = tmp_dir("stale-root");
    seed_tree(&tmp, "core", "engine.rs", "pub struct AncEngine;\n");
    // `AncEngine::activate` is in ALLOC_ROOTS, `AncEngine::cluster_all` in
    // QUERY_ROOTS; rename both definitions and leave the tables alone.
    let stubs = root_stubs(&["AncEngine::activate", "AncEngine::cluster_all"]);
    std::fs::write(tmp.join("crates/core/src/root_stubs.rs"), stubs).unwrap();
    let (code, stdout) = run_audit(&tmp);
    std::fs::remove_dir_all(&tmp).unwrap();

    assert_eq!(code, 1, "a root that names no function must fail the run; stdout: {stdout}");
    assert!(
        stdout.contains("[hot-alloc] root `AncEngine::activate` in ALLOC_ROOTS"),
        "the stale A7 root must be named: {stdout}"
    );
    assert!(
        stdout.contains("[blocking-in-reader] root `AncEngine::cluster_all` in QUERY_ROOTS"),
        "the stale A11 root must be named: {stdout}"
    );
    assert!(stdout.contains("2 finding(s)"), "every other root still resolves: {stdout}");
}

#[test]
fn real_workspace_is_clean() {
    // crates/audit → crates → repo root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap();
    let findings = anc_audit::scan_tree(root).expect("scan the real tree");
    assert!(
        findings.is_empty(),
        "workspace must be audit-clean, found:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
