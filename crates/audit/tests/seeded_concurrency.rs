//! Seeded-violation tests for the concurrency rules A9/A10/A11, driving the
//! **binary** end to end (exit code + the text report's
//! `file:line: [rule] …` lines), mirroring `seeded_reachability.rs`:
//!
//! * **A9 `lock-order`**: two functions acquiring the same two mutexes in
//!   opposite orders must fail the audit with the full acquisition chain;
//! * **A10 `atomic-ordering`**: a `Relaxed` store publishing a flag that is
//!   consumed with `Acquire` must fail attributed to the Relaxed site;
//! * **A11 `blocking-in-reader`**: a lock acquisition reachable from
//!   `AncEngine::cluster_all_cached` must fail with the reader chain.
//!
//! Each rule also has a justified-`audit:allow` variant proving the
//! suppression path (exit 0), and the `--explain` surface is covered for
//! both lookup forms plus the unknown-rule error.

mod common;

use std::path::Path;
use std::process::Command;

use common::{run_audit, tmp_dir};

/// Lays down a minimal workspace at `tmp` with the given
/// `crates/core/src/engine.rs` body.
fn seed_tree(tmp: &Path, engine_src: &str) {
    common::seed_tree(tmp, "core", "engine.rs", engine_src);
}

/// Two mutexes acquired in opposite orders; `allow_rev` suppresses the
/// cycle-closing acquisition with a justified `audit:allow(lock-order)`.
fn deadlock_src(allow_rev: bool) -> String {
    let allow = if allow_rev {
        "// audit:allow(lock-order) -- fixture: reverse order is proven unreachable here\n  "
    } else {
        ""
    };
    format!(
        "pub struct Pair {{\n\
           a: std::sync::Mutex<u32>,\n\
           b: std::sync::Mutex<u32>,\n\
         }}\n\
         impl Pair {{\n\
           pub fn forward(&self) {{\n\
             let ga = self.a.lock().unwrap();\n\
             let gb = self.b.lock().unwrap();\n\
             drop(gb);\n\
             drop(ga);\n\
           }}\n\
           pub fn reverse(&self) {{\n\
             let gb = self.b.lock().unwrap();\n\
             {allow}let ga = self.a.lock().unwrap();\n\
             drop(ga);\n\
             drop(gb);\n\
           }}\n\
         }}\n"
    )
}

#[test]
fn seeded_lock_order_cycle_exits_nonzero_with_the_chain() {
    let tmp = tmp_dir("a9");
    seed_tree(&tmp, &deadlock_src(false));
    let (code, stdout) = run_audit(&tmp);
    std::fs::remove_dir_all(&tmp).unwrap();

    assert_eq!(code, 1, "an acquisition cycle must fail the audit; stdout: {stdout}");
    assert!(stdout.contains(": [lock-order] potential deadlock"), "must attribute to A9: {stdout}");
    assert!(
        stdout.contains("Pair::forward") && stdout.contains("Pair::reverse"),
        "the chain must name both witnesses: {stdout}"
    );
    // Both lock-graph edges are named in the chain.
    assert!(
        stdout.contains("`a` then `b` at") && stdout.contains("`b` then `a` at"),
        "the chain must carry both acquisitions: {stdout}"
    );
}

#[test]
fn seeded_lock_order_allow_clears_the_cycle() {
    let tmp = tmp_dir("a9-allow");
    seed_tree(&tmp, &deadlock_src(true));
    let (code, stdout) = run_audit(&tmp);
    std::fs::remove_dir_all(&tmp).unwrap();
    assert_eq!(code, 0, "a justified allow must clear A9; stdout: {stdout}");
    assert!(stdout.contains("[anc-audit] OK"), "{stdout}");
}

#[test]
fn seeded_relaxed_publish_exits_nonzero_at_the_relaxed_site() {
    let tmp = tmp_dir("a10");
    seed_tree(
        &tmp,
        "use std::sync::atomic::{AtomicBool, Ordering};\n\
         pub struct Flag {\n\
           ready: AtomicBool,\n\
         }\n\
         impl Flag {\n\
           pub fn publish(&self) {\n\
             self.ready.store(true, Ordering::Relaxed);\n\
           }\n\
           pub fn consume(&self) -> bool {\n\
             self.ready.load(Ordering::Acquire)\n\
           }\n\
         }\n",
    );
    let (code, stdout) = run_audit(&tmp);
    std::fs::remove_dir_all(&tmp).unwrap();

    assert_eq!(code, 1, "a Relaxed publish must fail the audit; stdout: {stdout}");
    // Attributed to the store line (7), not the Acquire side.
    assert!(
        stdout.contains("engine.rs:7: [atomic-ordering]"),
        "must attribute to A10 at the Relaxed site: {stdout}"
    );
    assert!(stdout.contains("Flag::publish") && stdout.contains("Acquire"), "{stdout}");
}

#[test]
fn seeded_relaxed_publish_allow_clears_it() {
    let tmp = tmp_dir("a10-allow");
    seed_tree(
        &tmp,
        "use std::sync::atomic::{AtomicBool, Ordering};\n\
         pub struct Flag {\n\
           ready: AtomicBool,\n\
         }\n\
         impl Flag {\n\
           pub fn publish(&self) {\n\
             // audit:allow(atomic-ordering) -- fixture: no data is guarded by this flag\n\
             self.ready.store(true, Ordering::Relaxed);\n\
           }\n\
           pub fn consume(&self) -> bool {\n\
             self.ready.load(Ordering::Acquire)\n\
           }\n\
         }\n",
    );
    let (code, stdout) = run_audit(&tmp);
    std::fs::remove_dir_all(&tmp).unwrap();
    assert_eq!(code, 0, "a justified allow must clear A10; stdout: {stdout}");
    assert!(stdout.contains("[anc-audit] OK"), "{stdout}");
}

/// A lock two calls below the wait-free root; `allowed` suppresses it (the
/// allow must sit on the line directly above the lock, so all suppressed
/// rules share one comment).
fn reader_src(allowed: bool) -> String {
    let allow = if allowed {
        "// audit:allow(blocking-in-reader) -- fixture: cold path, pre-publication\n    "
    } else {
        ""
    };
    format!(
        "pub struct AncEngine {{\n\
           state: std::sync::Mutex<u32>,\n\
         }}\n\
         impl AncEngine {{\n\
           pub fn cluster_all_cached(&self) -> u32 {{\n\
             self.read_state()\n\
           }}\n\
           fn read_state(&self) -> u32 {{\n\
             {allow}*self.state.lock().unwrap()\n\
           }}\n\
         }}\n"
    )
}

#[test]
fn seeded_lock_under_query_root_exits_nonzero_with_the_chain() {
    let tmp = tmp_dir("a11");
    seed_tree(&tmp, &reader_src(false));
    let (code, stdout) = run_audit(&tmp);
    std::fs::remove_dir_all(&tmp).unwrap();

    assert_eq!(code, 1, "a blocking reader must fail the audit; stdout: {stdout}");
    assert!(stdout.contains(": [blocking-in-reader]"), "must attribute to A11: {stdout}");
    assert!(
        stdout.contains("AncEngine::cluster_all_cached → AncEngine::read_state"),
        "the finding must carry the reader chain: {stdout}"
    );
}

#[test]
fn seeded_lock_under_query_root_allow_clears_it() {
    let tmp = tmp_dir("a11-allow");
    seed_tree(&tmp, &reader_src(true));
    let (code, stdout) = run_audit(&tmp);
    std::fs::remove_dir_all(&tmp).unwrap();
    assert_eq!(code, 0, "a justified allow must clear A11; stdout: {stdout}");
    assert!(stdout.contains("[anc-audit] OK"), "{stdout}");
}

#[test]
fn explain_prints_rules_by_name_and_id() {
    let by_name = Command::new(env!("CARGO_BIN_EXE_anc-audit"))
        .args(["--explain", "lock-order"])
        .output()
        .expect("run anc-audit");
    assert!(by_name.status.success());
    let text = String::from_utf8(by_name.stdout).unwrap();
    assert!(text.contains("A9") && text.contains("deadlock"), "{text}");
    assert!(text.contains("suppression"), "{text}");

    let by_id = Command::new(env!("CARGO_BIN_EXE_anc-audit"))
        .args(["--explain", "a10"])
        .output()
        .expect("run anc-audit");
    assert!(by_id.status.success());
    let text = String::from_utf8(by_id.stdout).unwrap();
    assert!(text.contains("atomic-ordering"), "{text}");

    let all = Command::new(env!("CARGO_BIN_EXE_anc-audit"))
        .args(["--explain", "all"])
        .output()
        .expect("run anc-audit");
    assert!(all.status.success());
    let text = String::from_utf8(all.stdout).unwrap();
    let listed: Vec<&str> =
        text.lines().filter(|l| l.starts_with('A')).filter_map(|l| l.split('`').nth(1)).collect();
    assert_eq!(listed, ["hot-alloc", "lock-order", "atomic-ordering", "blocking-in-reader"]);

    let unknown = Command::new(env!("CARGO_BIN_EXE_anc-audit"))
        .args(["--explain", "no-such-rule"])
        .output()
        .expect("run anc-audit");
    assert_eq!(unknown.status.code(), Some(2), "unknown rule is a usage error");
}

/// Lays down a minimal workspace whose code lives in the **server** crate,
/// covering the serving reader roots added in ISSUE 10.
fn seed_server_tree(tmp: &Path, server_src: &str) {
    common::seed_tree(tmp, "server", "snapshot.rs", server_src);
}

/// A lock one call below the wait-free serving root
/// `ServeSnapshot::same_cluster_at` (no unwrap: only A11 may fire).
fn serve_reader_src(allowed: bool) -> String {
    let allow = if allowed {
        "// audit:allow(blocking-in-reader) -- fixture: provably uncontended here\n      "
    } else {
        ""
    };
    format!(
        "pub struct ServeSnapshot {{\n\
           labels: std::sync::Mutex<Vec<u32>>,\n\
         }}\n\
         impl ServeSnapshot {{\n\
           pub fn same_cluster_at(&self, u: u32, v: u32) -> Option<bool> {{\n\
             self.lookup(u, v)\n\
           }}\n\
           fn lookup(&self, u: u32, v: u32) -> Option<bool> {{\n\
             {allow}if let Ok(l) = self.labels.lock() {{\n\
               return Some(l.get(u as usize) == l.get(v as usize));\n\
             }}\n\
             None\n\
           }}\n\
         }}\n"
    )
}

#[test]
fn seeded_lock_under_serving_reader_root_exits_nonzero() {
    let tmp = tmp_dir("a11-serve");
    seed_server_tree(&tmp, &serve_reader_src(false));
    let (code, stdout) = run_audit(&tmp);
    std::fs::remove_dir_all(&tmp).unwrap();

    assert_eq!(code, 1, "a blocking serving reader must fail the audit; stdout: {stdout}");
    assert!(stdout.contains(": [blocking-in-reader]"), "must attribute to A11: {stdout}");
    assert!(
        stdout.contains("ServeSnapshot::same_cluster_at → ServeSnapshot::lookup"),
        "the finding must carry the serving reader chain: {stdout}"
    );
}

#[test]
fn seeded_lock_under_serving_reader_root_allow_clears_it() {
    let tmp = tmp_dir("a11-serve-allow");
    seed_server_tree(&tmp, &serve_reader_src(true));
    let (code, stdout) = run_audit(&tmp);
    std::fs::remove_dir_all(&tmp).unwrap();
    assert_eq!(code, 0, "a justified allow must clear the serving A11; stdout: {stdout}");
    assert!(stdout.contains("[anc-audit] OK"), "{stdout}");
}
