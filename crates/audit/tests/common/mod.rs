//! Shared fixture plumbing for the seeded suites: lay a synthetic workspace
//! down in a temp directory, run the **binary** on it, read the text report.

use std::path::{Path, PathBuf};
use std::process::Command;

use anc_audit::callgraph::{ALLOC_ROOTS, QUERY_ROOTS};

/// Lays down a minimal workspace at `tmp` whose crate `krate` holds
/// `src/<file>` with the given body, plus an empty stub for every entry of
/// the audit's root tables — a root that names no function is a finding, and
/// the stubs are generated from the tables so no fixture lists them by hand.
pub fn seed_tree(tmp: &Path, krate: &str, file: &str, body: &str) {
    let src = tmp.join("crates").join(krate).join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join(file), body).unwrap();
    std::fs::write(src.join("root_stubs.rs"), root_stubs(&[])).unwrap();
}

/// One `impl Type { pub fn name(&self) {} }` per root, except those named in
/// `renamed` (which get a `_v2` suffix, as a careless rename would).
pub fn root_stubs(renamed: &[&str]) -> String {
    let mut out = String::new();
    for root in ALLOC_ROOTS.iter().chain(QUERY_ROOTS) {
        let (ty, name) = root.split_once("::").expect("roots are Type::name");
        let suffix = if renamed.contains(root) { "_v2" } else { "" };
        out.push_str(&format!("impl {ty} {{\n    pub fn {name}{suffix}(&self) {{}}\n}}\n"));
    }
    out
}

/// Runs the audit binary on `root`, returning `(exit code, stdout)`.
pub fn run_audit(root: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_anc-audit"))
        .args(["--root", root.to_str().unwrap()])
        .output()
        .expect("run anc-audit");
    (out.status.code().expect("exit code"), String::from_utf8(out.stdout).expect("utf8 stdout"))
}

pub fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("anc-audit-{tag}-{}", std::process::id()))
}
