//! # anc-audit
//!
//! The four workspace rules that need a call graph (DESIGN.md §8).
//!
//! Everything a compiler lint or clippy can see from one expression and its
//! types — hash-collection iteration, `partial_cmp`, wall clocks, `unsafe`,
//! `unwrap`/`panic!`, narrowing casts and discarded `Result`s on the
//! persistence path — is enforced there (`crates/clippy.toml` and the
//! `deny(..)` attributes on the crate and module roots). What is left here
//! are properties of *paths through the program*, checked on a hand-rolled
//! Rust lexer ([`lexer`]) and a workspace call graph ([`callgraph`]) — the
//! workspace is offline; no external parser crates:
//!
//! * `hot-alloc` (A7) — `Vec::new`/`vec![`/`.collect()`/`.to_vec()`/
//!   `Box::new`/`format!` in any function reachable from a per-activation
//!   entry point ([`callgraph::ALLOC_ROOTS`]); the fix is usually reuse of a
//!   pooled scratch buffer.
//! * `lock-order` (A9) — cycles in the interprocedural lock-acquisition
//!   graph are potential deadlocks, as are Condvar waits taken while
//!   holding a lock other than the wait's own guard.
//! * `atomic-ordering` (A10) — `Relaxed` atomics participating in a
//!   publish/consume handshake (mixed with stronger orderings on the same
//!   atomic, or an all-Relaxed store+load flag).
//! * `blocking-in-reader` (A11) — blocking sites (lock acquisition,
//!   Condvar wait, channel recv, `park`, pool dispatch) reachable from a
//!   wait-free query root ([`callgraph::QUERY_ROOTS`]).
//!
//! Every finding fails the run. A finding on a line is suppressed by
//! `// audit:allow(<rule>) -- <reason>` on the same line or the line
//! directly above. The lexer drops comments and keeps literals opaque, so
//! rule patterns spelled in strings are never findings, and the
//! `#[cfg(test)]` exemption covers exactly the attributed item's
//! brace-tracked span. A root-table entry that names no function is itself
//! a finding: a renamed entry point must not switch its rule off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod concurrency;
pub mod lexer;

use callgraph::{extract_fns, CallGraph, FnItem, ALLOC_ROOTS, CALL_GRAPH_CRATES};
use lexer::lex;

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (`hot-alloc`, `lock-order`, `atomic-ordering`,
    /// `blocking-in-reader`).
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number (0 when the finding is about a root-table entry).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Documentation for one audit rule, printed by `anc-audit --explain`.
#[derive(Clone, Copy, Debug)]
pub struct RuleDoc {
    /// Short id (`A7`, `A9`, `A10`, `A11` — the gaps are the rules that
    /// moved to the compiler and clippy).
    pub id: &'static str,
    /// The rule name used in findings and `audit:allow(...)`.
    pub rule: &'static str,
    /// Why the rule exists (one paragraph).
    pub rationale: &'static str,
    /// A representative finding message.
    pub example: &'static str,
}

/// How to suppress a justified site — the same for every rule.
pub const SUPPRESSION: &str = "// audit:allow(<rule>) -- <reason> on the flagged line or the \
                               line above (the reason is mandatory)";

/// Every audit rule, in id order (`--explain <rule>` looks up here).
pub const RULES: &[RuleDoc] = &[
    RuleDoc {
        id: "A7",
        rule: "hot-alloc",
        rationale: "Vec::new/vec![/.collect()/.to_vec()/Box::new/format! in functions reachable \
                    from a per-activation root allocates on every activation, defeating the \
                    paper's bounded-maintenance claim. The fix is a pooled scratch buffer.",
        example: "crates/core/src/engine.rs:77: [hot-alloc] Vec::new in `AncEngine::activate` \
                  allocates per activation (…); reuse a pooled scratch buffer",
    },
    RuleDoc {
        id: "A9",
        rule: "lock-order",
        rationale: "Two threads acquiring the same locks in opposite orders deadlock. The audit \
                    extracts every lock/Condvar acquisition, propagates held-lock sets over the \
                    call graph, and denies any cycle in the lock-acquisition graph, reporting \
                    the full acquisition chain. Condvar waits while holding another lock are \
                    denied directly (the wait releases only its own guard's mutex). Locks are \
                    identified by receiver name; rename ambiguous receivers with \
                    `// audit:lock(<name>)`.",
        example: "vendor/rayon/src/pool.rs:190: [lock-order] potential deadlock: \
                  lock-acquisition cycle deques → sleep → deques; `deques` then `sleep` at \
                  vendor/rayon/src/pool.rs:190 (in run_tasks); …",
    },
    RuleDoc {
        id: "A10",
        rule: "atomic-ordering",
        rationale: "The Relaxed side of a publish/consume handshake synchronizes nothing: a \
                    Relaxed store before an Acquire load (or an all-Relaxed store+load flag) \
                    publishes no data and reorders freely. Sites on the same atomic (same file \
                    and receiver) must agree on an ordering discipline; all-Relaxed RMW-only \
                    counters are fine.",
        example: "vendor/rayon/src/pool.rs:131: [atomic-ordering] `poisoned.store` uses \
                  Ordering::Relaxed while `poisoned`'s other sites here use Acquire",
    },
    RuleDoc {
        id: "A11",
        rule: "blocking-in-reader",
        rationale: "The wait-free query roots (cluster_all_cached, same_cluster, cache Arc \
                    snapshot reads) must answer from snapshot state without blocking: a lock, \
                    Condvar wait, channel recv, park, or pool dispatch reachable from a reader \
                    stalls every concurrent query behind the writer. The epoch'd-Arc read \
                    discipline the serving layer depends on is machine-checked here.",
        example: "crates/core/src/cache.rs:103: [blocking-in-reader] pool dispatch `par_iter` \
                  in `ClusterCache::fill_level` is reachable from a wait-free query root \
                  (AncEngine::cluster_all_cached → …)",
    },
];

/// Looks up a rule doc by rule name (`lock-order`) or short id (`A9`,
/// case-insensitive).
pub fn explain(rule: &str) -> Option<&'static RuleDoc> {
    RULES.iter().find(|r| r.rule == rule || r.id.eq_ignore_ascii_case(rule))
}

/// Scans `crates/{core,decay,graph,server}/src/**/*.rs` under `root` plus
/// `vendor/rayon/src` (the thread pool is first-party code in all but
/// directory, and owns nearly every lock and atomic in the workspace) and
/// returns the findings of all four rules in (path, line, rule) order.
pub fn scan_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut graph_fns: Vec<FnItem> = Vec::new();
    for name in CALL_GRAPH_CRATES {
        graph_fns.extend(crate_fns(root, &root.join("crates").join(name))?);
    }
    let rayon_fns = crate_fns(root, &root.join("vendor").join("rayon"))?;

    // A7 over the hot-path call graph.
    let graph = CallGraph::build(graph_fns);
    let alloc_reach = graph.reachable_from(ALLOC_ROOTS);
    let mut findings = alloc_reach.stale_root_findings("hot-alloc", "ALLOC_ROOTS");
    for (i, f) in graph.fns.iter().enumerate() {
        if !alloc_reach.is_reached(i) {
            continue;
        }
        for site in &f.alloc_sites {
            findings.push(Finding {
                rule: "hot-alloc",
                file: f.file.clone(),
                line: site.line,
                message: format!(
                    "{} in `{}` allocates per activation ({}); reuse a pooled scratch buffer or \
                     add `// audit:allow(hot-alloc) -- <reason>`",
                    site.what,
                    f.qual,
                    alloc_reach.chain(&graph, i)
                ),
            });
        }
    }
    // A9/A10 run on the concurrency graph — the hot-path crates plus the
    // pool — while A11 runs on the pool-free hot-path graph so that common
    // combinator names (`map`, `collect`, …) cannot resolve into the pool's
    // internals and blur every reader chain.
    let mut conc_fns = graph.fns.clone();
    conc_fns.extend(rayon_fns);
    findings.extend(concurrency::analyze(&CallGraph::build(conc_fns), &graph));

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// Every non-test `fn` under `crate_dir/src` (none when the tree lacks the
/// crate), files in sorted order so the report is stable across filesystems.
fn crate_fns(root: &Path, crate_dir: &Path) -> std::io::Result<Vec<FnItem>> {
    let src = crate_dir.join("src");
    let mut fns = Vec::new();
    if !src.is_dir() {
        return Ok(fns);
    }
    let mut files = Vec::new();
    collect_rs_files(&src, &mut files)?;
    files.sort();
    for file in files {
        let source = std::fs::read_to_string(&file)?;
        let rel = file.strip_prefix(root).unwrap_or(&file).display().to_string();
        let raw_lines: Vec<&str> = source.lines().collect();
        fns.extend(extract_fns(&rel, &lex(&source), &raw_lines));
    }
    Ok(fns)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_resolves_rule_names_and_ids() {
        assert_eq!(explain("lock-order").map(|r| r.id), Some("A9"));
        assert_eq!(explain("a10").map(|r| r.rule), Some("atomic-ordering"));
        assert_eq!(explain("A11").map(|r| r.rule), Some("blocking-in-reader"));
        assert!(explain("no-such-rule").is_none());
        assert!(explain("panic-path").is_none(), "A6 moved to clippy::panic and friends");
        let names: Vec<&str> = RULES.iter().map(|r| r.rule).collect();
        assert_eq!(names, ["hot-alloc", "lock-order", "atomic-ordering", "blocking-in-reader"]);
    }
}
