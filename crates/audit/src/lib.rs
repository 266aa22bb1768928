//! # anc-audit
//!
//! Repo-specific determinism and hot-path lint pass (see DESIGN.md §8).
//!
//! The engine's central guarantee — snapshots byte-identical across thread
//! counts and replay schedules — rests on properties the compiler cannot
//! check: no iteration over randomly-seeded hash collections in
//! state-mutating code, total float orderings, no wall-clock or OS-RNG
//! inputs, no `unsafe`. On top of that, the paper's bounded-maintenance
//! claim only pays off if the per-activation path is panic-free and
//! allocation-free. This crate enforces both with a two-stage analysis
//! built on a hand-rolled Rust lexer ([`lexer`]) and a workspace call graph
//! ([`callgraph`]) — the workspace is offline; no external parser crates.
//!
//! Line rules (stage 1, on the lexed code lines):
//!
//! * `hash-iter` (A1) — no `HashMap`/`HashSet` iteration (`for`/`.iter()`/
//!   `.keys()`/`.values()`/`.drain()`) in the determinism-sensitive crates
//!   `core`, `decay`, `graph`; use `BTreeMap`/`BTreeSet` or an explicit sort.
//! * `float-cmp` (A2) — no `.partial_cmp(..)` call sites anywhere; float
//!   orderings must use `total_cmp`.
//! * `wall-clock` (A3) — no `thread_rng`/`SystemTime::now`/`Instant::now`
//!   outside the `bench` and `cli` crates (seeded `ChaCha` + the logical
//!   decay clock only).
//! * `forbid-unsafe` (A4) — every crate root (`src/lib.rs`, `src/main.rs`)
//!   carries `#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]` for the
//!   one crate — the vendored rayon shim — that holds audited exemptions).
//! * `unsafe-block` (A8) — every `unsafe` token (blocks, `unsafe impl`,
//!   `unsafe fn`) anywhere in the scanned tree is deny-tier unless it
//!   carries `// audit:allow(unsafe-block) -- <reason>`; today the only
//!   allowed sites are the thread pool's lifetime erasure in
//!   `vendor/rayon/src/pool.rs`.
//! * `unwrap-budget` (A5) — `.unwrap()`/`.expect(` in non-test code of the
//!   hot-path crates (`core`, `decay`, `graph`) is a warn-tier budget
//!   ratcheted against a checked-in baseline
//!   (`crates/audit/baseline_a5.txt`): per-file counts may only decrease.
//!
//! Reachability rules (stage 2, on the call graph):
//!
//! * `panic-path` (A6) — `panic!`/`unreachable!`/`todo!`/`unimplemented!`/
//!   `.unwrap()`/`.expect(` in any function reachable from a hot entry
//!   point ([`callgraph::PANIC_ROOTS`]). Deny-tier; suppress with
//!   `audit:allow(panic-path)` plus a reason.
//! * `hot-alloc` (A7) — `Vec::new`/`vec![`/`.collect()`/`.to_vec()`/
//!   `Box::new`/`format!` in any function reachable from a per-activation
//!   entry point ([`callgraph::ALLOC_ROOTS`]). Warn-tier, per-file ratchet
//!   against `crates/audit/baseline_a7.txt`; the fix is usually reuse of
//!   a pooled scratch buffer.
//!
//! Concurrency rules (stage 3, [`concurrency`]; DESIGN.md §12):
//!
//! * `lock-order` (A9) — cycles in the interprocedural lock-acquisition
//!   graph are potential deadlocks and deny-tier, as are Condvar waits
//!   taken while holding a lock other than the wait's own guard.
//! * `atomic-ordering` (A10) — `Relaxed` atomics participating in a
//!   publish/consume handshake (mixed with stronger orderings on the same
//!   atomic, or an all-Relaxed store+load flag) are deny-tier.
//! * `blocking-in-reader` (A11) — blocking sites (lock acquisition,
//!   Condvar wait, channel recv, `park`, pool dispatch) reachable from a
//!   wait-free query root ([`callgraph::QUERY_ROOTS`]) are deny-tier.
//!
//! Dataflow rules (stage 4, [`dataflow`]; DESIGN.md §13):
//!
//! * `nondet-taint` (A12) — a nondeterminism source (hash iteration order,
//!   `RandomState`, thread ids/counts, wall clocks, unseeded RNG
//!   constructors) flowing — through let-bindings, assignments, call
//!   arguments and return values, interprocedurally to a fixpoint — into a
//!   snapshot/WAL writer, a codec/CRC primitive, or a cluster query's
//!   return value is deny-tier; findings carry the source→…→sink chain.
//! * `lossy-persist` (A13) — potentially-narrowing numeric `as`-casts in
//!   functions reachable from the serialization roots are deny-tier
//!   (checked conversions or a width-justifying allow instead).
//! * `swallowed-error` (A14) — `let _ = …` / statement-terminal `.ok()`
//!   discarding fallible results in functions reachable from the
//!   WAL/DurableEngine IO and recovery surface are deny-tier.
//!
//! A finding on a line is suppressed by `// audit:allow(<rule>) -- <reason>`
//! on the same line or the line directly above. The lexer blanks string
//! literals and strips comments, so rule-pattern strings (in this crate,
//! say) are never false positives, and `#[cfg(test)]` exemption covers
//! exactly the attributed item's brace-tracked span — code *after* a test
//! module is scanned again (the PR 2 scanner exempted everything to EOF).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod concurrency;
pub mod dataflow;
pub mod lexer;

use callgraph::{extract_fns, CallGraph, FnItem, ALLOC_ROOTS, CALL_GRAPH_CRATES, PANIC_ROOTS};
use lexer::{lex, suppressed_rules};

/// Crates whose state mutation must be deterministic: `hash-iter` applies.
pub const ORDER_SENSITIVE_CRATES: &[&str] = &["core", "decay", "graph"];

/// Crates allowed to read wall clocks and OS RNGs. `server` qualifies
/// because its clock reads are pure observability — enqueue-to-apply
/// latency accounting and read timeouts — never inputs to clustering
/// state, which stays driven by activation timestamps.
pub const WALL_CLOCK_EXEMPT_CRATES: &[&str] = &["bench", "cli", "server"];

/// Crates whose non-test `unwrap()`/`expect()` count is budgeted (A5) —
/// the same hot-path crates the call graph covers.
pub const UNWRAP_BUDGET_CRATES: &[&str] = &["core", "decay", "graph"];

/// Repo-relative path of the A5 (unwrap-budget) baseline file.
pub const BASELINE_PATH: &str = "crates/audit/baseline_a5.txt";

/// Repo-relative path of the A7 (hot-alloc) baseline file.
pub const BASELINE_A7_PATH: &str = "crates/audit/baseline_a7.txt";

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`hash-iter`, `float-cmp`, `wall-clock`, `forbid-unsafe`,
    /// `unwrap-budget`, `panic-path`, `hot-alloc`, `unsafe-block`,
    /// `lock-order`, `atomic-ordering`, `blocking-in-reader`,
    /// `nondet-taint`, `lossy-persist`, `swallowed-error`).
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number.
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
    /// Short id (`A1`…`A11`).
    pub id: &'static str,
    /// The rule name used in findings and `audit:allow(...)`.
    pub rule: &'static str,
    /// Why the rule exists (one paragraph).
    pub rationale: &'static str,
    /// A representative finding message.
    pub example: &'static str,
    /// How to suppress a justified site.
    pub suppression: &'static str,
}

const ALLOW_LINE: &str =
    "// audit:allow(<rule>) -- <reason> on the flagged line or the line above \
                          (the reason is mandatory)";

/// Every audit rule, in id order (`--explain <rule>` looks up here).
pub const RULES: &[RuleDoc] = &[
    RuleDoc {
        id: "A1",
        rule: "hash-iter",
        rationale: "HashMap/HashSet iteration order is randomly seeded per process; iterating one \
                    in the determinism-sensitive crates (core, decay, graph) makes state mutation \
                    depend on the seed and breaks byte-identical snapshots. Use BTreeMap/BTreeSet \
                    or sort before iterating.",
        example: "crates/core/src/x.rs:4: [hash-iter] .iter() over hash collection `m` — \
                  iteration order is randomly seeded per process",
        suppression: ALLOW_LINE,
    },
    RuleDoc {
        id: "A2",
        rule: "float-cmp",
        rationale: ".partial_cmp() on floats is partial: NaN yields None, which panics under \
                    unwrap or silently destabilizes sort orders. f64::total_cmp is total and \
                    deterministic.",
        example: "crates/bench/src/x.rs:2: [float-cmp] .partial_cmp() on floats is partial \
                  (NaN ⇒ None/panic/unstable order); use total_cmp",
        suppression: ALLOW_LINE,
    },
    RuleDoc {
        id: "A3",
        rule: "wall-clock",
        rationale: "Instant::now/SystemTime::now/thread_rng are nondeterministic inputs; replay \
                    and cross-thread-count identity require the logical decay clock and seeded \
                    ChaCha streams. Only bench and cli may read real clocks.",
        example: "crates/core/src/x.rs:2: [wall-clock] Instant::now is a nondeterministic input \
                  — use the logical decay clock / seeded ChaCha (or move this to bench/cli)",
        suppression: ALLOW_LINE,
    },
    RuleDoc {
        id: "A4",
        rule: "forbid-unsafe",
        rationale: "Every crate root must carry #![forbid(unsafe_code)] so new unsafe cannot land \
                    silently; the vendored pool crate alone downgrades to #![deny(unsafe_code)] \
                    because it holds the workspace's audited unsafe exemptions (A8).",
        example: "crates/core/src/lib.rs:1: [forbid-unsafe] crate root lacks \
                  #![forbid(unsafe_code)] (or #![deny(unsafe_code)])",
        suppression: "add the attribute; there is no inline allow for this rule",
    },
    RuleDoc {
        id: "A5",
        rule: "unwrap-budget",
        rationale: "unwrap()/expect() in non-test hot-path code (core, decay, graph) turns \
                    recoverable conditions into panics. The per-file count ratchets against \
                    crates/audit/baseline_a5.txt: it may only decrease (re-bless with --bless \
                    after removing sites).",
        example: "crates/core/src/engine.rs:0: [unwrap-budget] 3 unwrap()/expect() calls exceed \
                  the baseline of 2",
        suppression: ALLOW_LINE,
    },
    RuleDoc {
        id: "A6",
        rule: "panic-path",
        rationale: "panic!/unreachable!/todo!/unwrap/expect in any function reachable from a hot \
                    entry point (activation ingest, decay maintenance) can abort the engine \
                    mid-update; hot paths return Results or prove unreachability.",
        example: "crates/core/src/engine.rs:42: [panic-path] .unwrap() in `AncEngine::activate` \
                  can panic on the hot path (AncEngine::activate → …)",
        suppression: ALLOW_LINE,
    },
    RuleDoc {
        id: "A7",
        rule: "hot-alloc",
        rationale: "Vec::new/vec![/.collect()/.to_vec()/Box::new/format! in functions reachable \
                    from a per-activation root allocates on every activation, defeating the \
                    paper's bounded-maintenance claim. Counts ratchet against \
                    crates/audit/baseline_a7.txt; the fix is a pooled scratch buffer.",
        example: "crates/core/src/engine.rs:77: [hot-alloc] Vec::new in `AncEngine::activate` \
                  allocates per activation (…); reuse a pooled scratch buffer",
        suppression: ALLOW_LINE,
    },
    RuleDoc {
        id: "A8",
        rule: "unsafe-block",
        rationale: "Every `unsafe` token (block, fn, impl) anywhere in the tree is deny-tier \
                    until individually audited with a written safety argument; today the only \
                    audited sites are the pool's scoped-lifetime erasure in vendor/rayon.",
        example: "vendor/rayon/src/pool.rs:88: [unsafe-block] `unsafe` requires an individual \
                  audit",
        suppression: "// audit:allow(unsafe-block) -- <safety argument>",
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
        suppression: ALLOW_LINE,
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
        suppression: ALLOW_LINE,
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
        suppression: ALLOW_LINE,
    },
    RuleDoc {
        id: "A12",
        rule: "nondet-taint",
        rationale: "Byte-identical snapshots and thread-count-invariant queries only hold if no \
                    nondeterminism source ever *flows* into persisted state or query results — \
                    a property token rules (A1, A3) cannot see across assignments and calls. \
                    The dataflow engine tracks def-use chains per function and propagates taint \
                    from sources (hash iteration order, RandomState, thread ids/counts, wall \
                    clocks, unseeded RNG constructors) across the call graph to a fixpoint, \
                    denying any flow into a snapshot/WAL writer, a codec/CRC primitive, or a \
                    cluster query's return value. Findings carry the source→…→sink chain.",
        example: "crates/core/src/engine.rs:401: [nondet-taint] nondeterministic value — \
                  env-dependent thread count `available_parallelism()` \
                  (crates/core/src/engine.rs:388) — reaches persistence sink `append_payload` \
                  via AncEngine::probe → AncEngine::ingest",
        suppression: ALLOW_LINE,
    },
    RuleDoc {
        id: "A13",
        rule: "lossy-persist",
        rationale: "A numeric `as`-cast silently truncates or rounds; on a serialization path \
                    that turns a live value into a wrong-but-CRC-valid byte stream that replay \
                    then trusts. Casts to sub-64-bit numeric targets (u8/u16/u32/i8/i16/i32/f32) \
                    in any function reachable from a snapshot/WAL encode root are denied — the \
                    lexer cannot see source types, so provably-widening or masked casts carry an \
                    allow naming the width argument; real narrowing uses try_from/u8::from or \
                    the tagged `Compact` profile's escape-hatch machinery.",
        example: "crates/core/src/persist/wal.rs:252: [lossy-persist] `as u32` cast in \
                  `frame_payload` can silently narrow a value on the serialization path \
                  (DurableEngine::append_payload → frame_payload)",
        suppression: ALLOW_LINE,
    },
    RuleDoc {
        id: "A14",
        rule: "swallowed-error",
        rationale: "`let _ = fallible()` and statement-terminal `.ok()` silently discard IO \
                    errors; on the WAL append/recovery paths that converts a detectable \
                    torn-write or permission failure into silent data loss. Both forms are \
                    denied in any function reachable from the DurableEngine write/recovery \
                    surface or the WAL reader (`#[must_use]` discards are covered by \
                    `clippy -D warnings` in CI).",
        example: "crates/core/src/persist/wal.rs:443: [swallowed-error] `let _ = …` discards a \
                  fallible result in `DurableEngine::open` on a fallible IO/recovery path \
                  (DurableEngine::open)",
        suppression: ALLOW_LINE,
    },
];

/// Looks up a rule doc by rule name (`lock-order`) or short id (`A9`,
/// case-insensitive).
pub fn explain(rule: &str) -> Option<&'static RuleDoc> {
    RULES.iter().find(|r| r.rule == rule || r.id.eq_ignore_ascii_case(rule))
}

/// Result of scanning one source file (line rules only; reachability rules
/// need the whole tree).
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// Error-tier findings (any one fails the audit).
    pub findings: Vec<Finding>,
    /// Warn-tier `unwrap()`/`expect()` count (A5; only populated for the
    /// budgeted crate).
    pub unwrap_count: usize,
}

/// Scans one file's source text under the line rules that apply to
/// `crate_name`.
///
/// `rel_path` is the repo-relative path used in findings (and to decide
/// whether the file is a crate root for A4).
pub fn scan_source(crate_name: &str, rel_path: &str, source: &str) -> FileReport {
    let lexed = lex(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    scan_lexed(crate_name, rel_path, &lexed, &raw_lines)
}

fn scan_lexed(
    crate_name: &str,
    rel_path: &str,
    lexed: &lexer::LexedFile,
    raw_lines: &[&str],
) -> FileReport {
    let mut report = FileReport::default();
    let code_lines = &lexed.code_lines;

    // A4 first: crate roots must forbid unsafe (deny is accepted for the
    // one crate that holds audited A8 exemptions). Checked against the
    // lexed text so a commented-out attribute does not count.
    let is_crate_root = rel_path.ends_with("src/lib.rs") || rel_path.ends_with("src/main.rs");
    if is_crate_root
        && !code_lines
            .iter()
            .any(|l| l.contains("#![forbid(unsafe_code)]") || l.contains("#![deny(unsafe_code)]"))
    {
        report.findings.push(Finding {
            rule: "forbid-unsafe",
            file: rel_path.to_string(),
            line: 1,
            message: "crate root lacks #![forbid(unsafe_code)] (or #![deny(unsafe_code)])".into(),
        });
    }

    let hash_iter_applies = ORDER_SENSITIVE_CRATES.contains(&crate_name);
    let wall_clock_applies = !WALL_CLOCK_EXEMPT_CRATES.contains(&crate_name);
    let unwrap_applies = UNWRAP_BUDGET_CRATES.contains(&crate_name);

    // Idents bound to hash collections so far in this file (declarations are
    // file-ordered, so a single forward pass sees every binding before its
    // uses — including same-line uses, since declarations are processed
    // before use checks on each line).
    let mut hash_idents: Vec<String> = Vec::new();

    let allowed = |rule: &str, idx: usize| -> bool {
        // A suppression comment covers its own line and the next.
        let on = |i: usize| {
            raw_lines.get(i).is_some_and(|l| suppressed_rules(l).iter().any(|r| r == rule))
        };
        on(idx) || (idx > 0 && on(idx - 1))
    };

    for (idx, code) in code_lines.iter().enumerate() {
        // Per-line exemption from the lexer's brace-tracked #[cfg(test)]
        // spans: only the attributed item's body is skipped, not the file
        // tail.
        if lexed.is_test_line(idx) {
            continue;
        }
        let lineno = idx + 1;

        if hash_iter_applies {
            for ident in hash_bindings(code) {
                if !hash_idents.contains(&ident) {
                    hash_idents.push(ident);
                }
            }
            for ident in &hash_idents {
                if let Some(kind) = hash_iteration_use(code, ident) {
                    if !allowed("hash-iter", idx) {
                        report.findings.push(Finding {
                            rule: "hash-iter",
                            file: rel_path.to_string(),
                            line: lineno,
                            message: format!(
                                "{kind} over hash collection `{ident}` — iteration order is \
                                 randomly seeded per process; use BTreeMap/BTreeSet or sort first"
                            ),
                        });
                    }
                }
            }
        }

        if code.contains(".partial_cmp(") && !allowed("float-cmp", idx) {
            report.findings.push(Finding {
                rule: "float-cmp",
                file: rel_path.to_string(),
                line: lineno,
                message: ".partial_cmp() on floats is partial (NaN ⇒ None/panic/unstable \
                          order); use total_cmp"
                    .into(),
            });
        }

        if wall_clock_applies {
            for token in ["Instant::now", "SystemTime::now", "thread_rng"] {
                if contains_token(code, token) && !allowed("wall-clock", idx) {
                    report.findings.push(Finding {
                        rule: "wall-clock",
                        file: rel_path.to_string(),
                        line: lineno,
                        message: format!(
                            "{token} is a nondeterministic input — use the logical decay \
                             clock / seeded ChaCha (or move this to bench/cli)"
                        ),
                    });
                }
            }
        }

        // A8: every `unsafe` token is deny-tier unless individually audited.
        // Word-boundary matching keeps `unsafe_code` (the A4 lint attribute)
        // from tripping it.
        if contains_token(code, "unsafe") && !allowed("unsafe-block", idx) {
            report.findings.push(Finding {
                rule: "unsafe-block",
                file: rel_path.to_string(),
                line: lineno,
                message: "`unsafe` requires an individual audit: add \
                          `// audit:allow(unsafe-block) -- <safety argument>` or remove it"
                    .into(),
            });
        }

        if unwrap_applies
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !allowed("unwrap-budget", idx)
        {
            report.unwrap_count +=
                code.matches(".unwrap()").count() + code.matches(".expect(").count();
        }
    }
    report
}

/// Idents newly bound to a `HashMap`/`HashSet` on this (lexed) line:
/// `let [mut] NAME = ...Hash{Map,Set}...` bindings plus `NAME: ...Hash…`
/// typed declarations (struct fields, fn params, typed lets).
pub(crate) fn hash_bindings(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    if !code.contains("HashMap") && !code.contains("HashSet") {
        return out;
    }
    let trimmed = code.trim_start();
    if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
        return out;
    }
    // `let [mut] NAME = … HashMap/HashSet …`
    if let Some(pos) = code.find("let ") {
        let rest = code[pos + 4..].trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        if let Some(name) = leading_ident(rest) {
            out.push(name);
        }
    }
    // `NAME: [&][mut] [path::]Hash{Map,Set}<…>` — fields, params, typed lets.
    for marker in ["HashMap", "HashSet"] {
        let mut from = 0;
        while let Some(off) = code[from..].find(marker) {
            let at = from + off;
            from = at + marker.len();
            if let Some(name) = ident_before_type(code, at) {
                if !out.contains(&name) {
                    out.push(name);
                }
            }
        }
    }
    out
}

/// The ident at the start of `s`, if any.
fn leading_ident(s: &str) -> Option<String> {
    let end = s.find(|c: char| !c.is_alphanumeric() && c != '_').unwrap_or(s.len());
    if end == 0 || s.as_bytes()[0].is_ascii_digit() {
        None
    } else {
        Some(s[..end].to_string())
    }
}

/// For a type occurrence at byte `at`, walks left over the path
/// (`std::collections::`), an optional `&`/`mut`, and a `:` type separator
/// (not `::`), returning the declared ident before the colon.
fn ident_before_type(code: &str, at: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = at;
    // Skip the path prefix: idents and `::` pairs (a lone `:` is the
    // declaration separator and stops the walk).
    while i > 0 {
        let c = bytes[i - 1];
        if c.is_ascii_alphanumeric() || c == b'_' {
            i -= 1;
        } else if c == b':' && i >= 2 && bytes[i - 2] == b':' {
            i -= 2;
        } else {
            break;
        }
    }
    // Optional `&`, `&mut `, whitespace.
    loop {
        let rest = &code[..i];
        let t = rest.trim_end();
        if let Some(p) = t.strip_suffix("mut") {
            i = p.len();
        } else if let Some(p) = t.strip_suffix('&') {
            i = p.len();
        } else if t.len() != rest.len() {
            i = t.len();
        } else {
            break;
        }
    }
    // Require a single `:` separator.
    let t = code[..i].trim_end();
    let t = t.strip_suffix(':')?;
    if t.ends_with(':') {
        return None; // `::` — path segment, not a declaration
    }
    let t = t.trim_end();
    let start = t.rfind(|c: char| !c.is_alphanumeric() && c != '_').map_or(0, |p| p + 1);
    let name = &t[start..];
    if name.is_empty() || name.as_bytes()[0].is_ascii_digit() {
        None
    } else {
        Some(name.to_string())
    }
}

/// Whether this line iterates the tracked hash binding `ident`; returns a
/// short description of the construct if so.
fn hash_iteration_use(code: &str, ident: &str) -> Option<&'static str> {
    for (suffix, kind) in [
        (".iter()", ".iter()"),
        (".into_iter()", ".into_iter()"),
        (".keys()", ".keys()"),
        (".values()", ".values()"),
        (".values_mut()", ".values_mut()"),
        (".drain(", ".drain()"),
    ] {
        let pat = format!("{ident}{suffix}");
        if find_with_boundary(code, &pat, ident.len()).is_some() {
            return Some(kind);
        }
    }
    // `for x in [&[mut ]][self.]ident [{]` — direct loop over the collection.
    if code.contains("for ") {
        let mut from = 0;
        while let Some(off) = code[from..].find(ident) {
            let at = from + off;
            from = at + 1;
            let end = at + ident.len();
            if (at > 0 && is_word_byte(code.as_bytes()[at - 1]) && !code[..at].ends_with("self."))
                || (end < code.len() && is_word_byte(code.as_bytes()[end]))
            {
                continue; // part of a longer ident (other than a self. field)
            }
            // Walk left over an optional `self.` receiver and `&`/`&mut`
            // borrow, then require the `in` keyword.
            let mut pre = code[..at].strip_suffix("self.").unwrap_or(&code[..at]);
            pre = pre.trim_end_matches("&mut ").trim_end_matches('&');
            let from_in = pre.trim_end();
            let is_in = from_in.ends_with(" in") || from_in == "in";
            // And the collection must be the whole loop source, not the
            // receiver of some adapter call (`.iter()` cases handled above).
            let after = code[end..].trim_start();
            if is_in && (after.is_empty() || after.starts_with('{')) {
                return Some("for-loop");
            }
        }
    }
    None
}

/// Finds `pat` in `code` such that the char before the match and the char
/// after the first `ident_len` bytes are word boundaries for the ident part.
fn find_with_boundary(code: &str, pat: &str, ident_len: usize) -> Option<usize> {
    let mut from = 0;
    while let Some(off) = code[from..].find(pat) {
        let at = from + off;
        from = at + 1;
        let before_ok = at == 0 || !is_word_byte(code.as_bytes()[at - 1]);
        let end = at + ident_len;
        let after_ok = end >= code.len() || !is_word_byte(code.as_bytes()[end]) || {
            // pat longer than ident (e.g. `ident.iter()`): boundary is built in.
            pat.len() > ident_len
        };
        if before_ok && after_ok {
            return Some(at);
        }
    }
    None
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `code` contains `token` on word boundaries.
fn contains_token(code: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(off) = code[from..].find(token) {
        let at = from + off;
        from = at + 1;
        // `:` before is fine — `std::time::Instant::now` is still the token.
        let before_ok = at == 0 || !is_word_byte(code.as_bytes()[at - 1]);
        let end = at + token.len();
        let after_ok = end >= code.len() || !is_word_byte(code.as_bytes()[end]);
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

// --- tree walking ---------------------------------------------------------

/// Aggregate result of auditing a source tree.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// All deny-tier findings (A1–A4, A6), in deterministic (path, line,
    /// rule) order.
    pub findings: Vec<Finding>,
    /// Per-file `unwrap()`/`expect()` counts for the budgeted crate
    /// (repo-relative path → count; files with count 0 omitted; A5).
    pub unwrap_counts: BTreeMap<String, usize>,
    /// Per-file counts of allocation sites reachable from a per-activation
    /// root (A7; ratcheted, not deny-tier).
    pub alloc_counts: BTreeMap<String, usize>,
    /// The individual A7 allocation sites behind `alloc_counts`, with call
    /// chains (warn-tier detail for reports; not in `findings`).
    pub alloc_sites: Vec<Finding>,
    /// The lock-acquisition graph assembled by A9 (informational; cycles in
    /// it are deny-tier findings).
    pub lock_edges: Vec<concurrency::LockEdge>,
}

/// Scans every `crates/*/src/**/*.rs` under `root` — plus
/// `vendor/rayon/src` (the thread pool is first-party code in all but
/// directory; the other vendored crates are dev-only and e.g. criterion
/// reads wall clocks legitimately) — line rules per file, then the
/// workspace call graph for the reachability rules A6/A7.
///
/// Directory entries are sorted so the report order is stable across
/// filesystems.
pub fn scan_tree(root: &Path) -> std::io::Result<AuditReport> {
    let mut report = AuditReport::default();
    let mut graph_fns: Vec<FnItem> = Vec::new();
    let mut rayon_fns: Vec<FnItem> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let rayon_dir = root.join("vendor").join("rayon");
    if rayon_dir.is_dir() {
        crate_dirs.push(rayon_dir);
    }
    for crate_dir in crate_dirs {
        let crate_name =
            crate_dir.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for file in files {
            let source = std::fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file).display().to_string();
            let lexed = lex(&source);
            let raw_lines: Vec<&str> = source.lines().collect();
            let fr = scan_lexed(&crate_name, &rel, &lexed, &raw_lines);
            report.findings.extend(fr.findings);
            if fr.unwrap_count > 0 {
                report.unwrap_counts.insert(rel.clone(), fr.unwrap_count);
            }
            if CALL_GRAPH_CRATES.contains(&crate_name.as_str()) {
                graph_fns.extend(extract_fns(&crate_name, &rel, &lexed, &raw_lines));
            } else if crate_name == "rayon" {
                rayon_fns.extend(extract_fns(&crate_name, &rel, &lexed, &raw_lines));
            }
        }
    }

    // Stage 2: reachability rules over the workspace call graph.
    let graph = CallGraph::build(graph_fns);
    let panic_reach = graph.reachable_from(PANIC_ROOTS);
    let alloc_reach = graph.reachable_from(ALLOC_ROOTS);
    for (i, f) in graph.fns.iter().enumerate() {
        if panic_reach.is_reached(i) {
            for site in &f.panic_sites {
                report.findings.push(Finding {
                    rule: "panic-path",
                    file: f.file.clone(),
                    line: site.line,
                    message: format!(
                        "{} in `{}` can panic on the hot path ({}); return a Result, prove it \
                         unreachable, or add `// audit:allow(panic-path) -- <reason>`",
                        site.what,
                        f.qual,
                        panic_reach.chain(&graph, i)
                    ),
                });
            }
        }
        if alloc_reach.is_reached(i) {
            for site in &f.alloc_sites {
                report.alloc_sites.push(Finding {
                    rule: "hot-alloc",
                    file: f.file.clone(),
                    line: site.line,
                    message: format!(
                        "{} in `{}` allocates per activation ({}); reuse a pooled scratch buffer",
                        site.what,
                        f.qual,
                        alloc_reach.chain(&graph, i)
                    ),
                });
                *report.alloc_counts.entry(f.file.clone()).or_insert(0) += 1;
            }
        }
    }
    // Stage 3: concurrency rules. A9/A10 run on the concurrency graph —
    // the hot-path crates plus the pool, which owns nearly every lock and
    // atomic in the workspace — while A11 runs on the pool-free hot-path
    // graph so that common combinator names (`map`, `collect`, …) cannot
    // resolve into the pool's internals and blur every reader chain.
    let mut conc_fns = graph.fns.clone();
    conc_fns.extend(rayon_fns);
    let conc = CallGraph::build(conc_fns);
    let crep = concurrency::analyze(&conc, &graph);
    report.findings.extend(crep.findings);
    report.lock_edges = crep.lock_edges;

    // Stage 4: interprocedural dataflow rules (A12–A14) on the hot-path
    // graph (the pool has no persistence sinks and its own A8/A9 coverage).
    report.findings.extend(dataflow::analyze(&graph));

    report.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.alloc_sites.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
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

// --- baseline ratchets (A5, A7) -------------------------------------------

/// Parses a checked-in baseline file: `# comment` lines plus
/// `<repo-relative-path> <count>` entries.
pub fn parse_baseline(text: &str) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((path, count)) = line.rsplit_once(' ') {
            if let Ok(count) = count.trim().parse::<usize>() {
                out.insert(path.trim().to_string(), count);
            }
        }
    }
    out
}

fn render_baseline(header: &str, counts: &BTreeMap<String, usize>) -> String {
    let mut s = String::from(header);
    for (path, count) in counts {
        s.push_str(&format!("{path} {count}\n"));
    }
    s
}

/// Renders per-file A5 counts in the baseline file format.
pub fn format_baseline(counts: &BTreeMap<String, usize>) -> String {
    render_baseline(
        "# anc-audit unwrap/expect baseline (rule unwrap-budget / A5).\n\
         # Per-file counts of .unwrap()/.expect( in non-test code of the\n\
         # hot-path crates (core, decay, graph).\n\
         # The ratchet only goes down: regenerate with `cargo run -p anc-audit -- --bless`\n\
         # after REMOVING unwraps; adding one needs an inline audit:allow with a reason.\n",
        counts,
    )
}

/// Renders per-file A7 counts in the baseline file format.
pub fn format_baseline_a7(counts: &BTreeMap<String, usize>) -> String {
    render_baseline(
        "# anc-audit hot-path allocation baseline (rule hot-alloc / A7).\n\
         # Per-file counts of Vec::new/vec![/.collect()/.to_vec()/Box::new/format! sites\n\
         # reachable from a per-activation root (see DESIGN.md §8).\n\
         # The ratchet only goes down: regenerate with `cargo run -p anc-audit -- --bless`\n\
         # after REMOVING allocations (usually by reusing a pooled scratch buffer).\n",
        counts,
    )
}

/// Applies a per-file count ratchet for `rule`: any file over its baseline
/// count (or any new file with sites) is an error-tier finding; files now
/// under budget produce a note suggesting `--bless`.
pub fn ratchet_rule(
    rule: &'static str,
    what: &str,
    baseline: &BTreeMap<String, usize>,
    current: &BTreeMap<String, usize>,
) -> (Vec<Finding>, Vec<String>) {
    let mut errors = Vec::new();
    let mut notes = Vec::new();
    for (path, &count) in current {
        let allowed = baseline.get(path).copied().unwrap_or(0);
        if count > allowed {
            errors.push(Finding {
                rule,
                file: path.clone(),
                line: 0,
                message: format!(
                    "{count} {what} exceed the baseline of {allowed}; \
                     remove them or add `// audit:allow({rule}) -- <reason>`"
                ),
            });
        } else if count < allowed {
            notes.push(format!(
                "{path}: {count} {what}, baseline {allowed} — run with --bless to ratchet down"
            ));
        }
    }
    for (path, &allowed) in baseline {
        if allowed > 0 && !current.contains_key(path) {
            notes.push(format!(
                "{path}: now 0 {what}, baseline {allowed} — run with --bless to ratchet down"
            ));
        }
    }
    (errors, notes)
}

/// The A5 ratchet: see [`ratchet_rule`].
pub fn ratchet(
    baseline: &BTreeMap<String, usize>,
    current: &BTreeMap<String, usize>,
) -> (Vec<Finding>, Vec<String>) {
    ratchet_rule("unwrap-budget", "unwrap()/expect() calls", baseline, current)
}

/// The A7 ratchet: see [`ratchet_rule`].
pub fn ratchet_a7(
    baseline: &BTreeMap<String, usize>,
    current: &BTreeMap<String, usize>,
) -> (Vec<Finding>, Vec<String>) {
    ratchet_rule("hot-alloc", "hot-path allocation sites", baseline, current)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_iteration_is_flagged_in_sensitive_crates() {
        let src = "fn f() {\n    let mut m = std::collections::HashMap::new();\n    m.insert(1, 2);\n    for (k, v) in m.iter() {\n        drop((k, v));\n    }\n}\n";
        let r = scan_source("core", "crates/core/src/x.rs", src);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "hash-iter");
        assert_eq!(r.findings[0].line, 4);
        // Same source in an order-insensitive crate: clean.
        let r = scan_source("bench", "crates/bench/src/x.rs", src);
        assert!(r.findings.is_empty());
    }

    #[test]
    fn hash_field_and_for_loop_are_flagged() {
        let src = "struct S {\n    watched: std::collections::HashSet<u32>,\n}\nimpl S {\n    fn f(&self) {\n        for v in &self.watched {\n            drop(v);\n        }\n    }\n}\n";
        let r = scan_source("core", "crates/core/src/vote.rs", src);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "hash-iter");
        assert_eq!(r.findings[0].line, 6);
    }

    #[test]
    fn hash_membership_is_not_iteration() {
        let src = "fn f() {\n    let mut s = std::collections::HashSet::new();\n    s.insert(3);\n    assert!(s.contains(&3));\n    let n = s.len();\n    drop(n);\n}\n";
        let r = scan_source("graph", "crates/graph/src/x.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn similarly_named_idents_do_not_collide() {
        // `seed_set` is a hash set; `seeds` is not — `seeds.iter()` is fine.
        let src = "fn f(seeds: &[u32]) {\n    let seed_set: std::collections::HashSet<u32> = seeds.iter().copied().collect();\n    assert!(seed_set.contains(&0));\n}\n";
        let r = scan_source("core", "crates/core/src/x.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn partial_cmp_call_sites_are_flagged_but_not_impls() {
        let flagged =
            "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        let r = scan_source("bench", "crates/bench/src/x.rs", flagged);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "float-cmp");
        // A `PartialOrd` impl defines `fn partial_cmp` without a call site.
        let imp = "impl PartialOrd for X {\n    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n        Some(self.cmp(other))\n    }\n}\n";
        let r = scan_source("graph", "crates/graph/src/x.rs", imp);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn wall_clock_flagged_outside_bench_and_cli() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n    drop(t);\n}\n";
        assert_eq!(scan_source("core", "crates/core/src/x.rs", src).findings.len(), 1);
        assert!(scan_source("bench", "crates/bench/src/x.rs", src).findings.is_empty());
        assert!(scan_source("cli", "crates/cli/src/x.rs", src).findings.is_empty());
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let same = "fn f() {\n    let t = Instant::now(); // audit:allow(wall-clock) -- timing display only\n    drop(t);\n}\n";
        assert!(scan_source("core", "crates/core/src/x.rs", same).findings.is_empty());
        let above = "fn f() {\n    // audit:allow(wall-clock) -- timing display only\n    let t = Instant::now();\n    drop(t);\n}\n";
        assert!(scan_source("core", "crates/core/src/x.rs", above).findings.is_empty());
        // The wrong rule id does not suppress.
        let wrong = "fn f() {\n    // audit:allow(float-cmp) -- mismatched\n    let t = Instant::now();\n    drop(t);\n}\n";
        assert_eq!(scan_source("core", "crates/core/src/x.rs", wrong).findings.len(), 1);
    }

    #[test]
    fn patterns_inside_strings_and_comments_are_ignored() {
        let src = "fn f() -> &'static str {\n    // Instant::now() in a comment is fine\n    \"contains .partial_cmp( and Instant::now and thread_rng\"\n}\n";
        let r = scan_source("core", "crates/core/src/x.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() {\n        let t = std::time::Instant::now();\n        let x: f64 = 1.0;\n        let _ = x.partial_cmp(&x).unwrap();\n        drop(t);\n    }\n}\n";
        let r = scan_source("core", "crates/core/src/x.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.unwrap_count, 0);
    }

    #[test]
    fn live_code_after_a_test_module_is_scanned() {
        // Regression for the PR 2 unsoundness: the old scanner exempted
        // everything from the first #[cfg(test)] to EOF.
        let src = "fn f() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn g() {}\n\
                   }\n\
                   pub fn live() {\n\
                       let t = std::time::Instant::now();\n\
                       drop(t);\n\
                   }\n";
        let r = scan_source("core", "crates/core/src/x.rs", src);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "wall-clock");
        assert_eq!(r.findings[0].line, 7);
    }

    #[test]
    fn forbid_unsafe_checked_on_crate_roots_only() {
        let bare = "pub fn f() {}\n";
        let r = scan_source("core", "crates/core/src/lib.rs", bare);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "forbid-unsafe");
        assert!(scan_source("core", "crates/core/src/other.rs", bare).findings.is_empty());
        let good = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(scan_source("core", "crates/core/src/lib.rs", good).findings.is_empty());
    }

    #[test]
    fn deny_unsafe_code_satisfies_a4() {
        let deny = "#![deny(unsafe_code)]\npub fn f() {}\n";
        assert!(scan_source("rayon", "vendor/rayon/src/lib.rs", deny).findings.is_empty());
    }

    #[test]
    fn unsafe_tokens_need_an_individual_audit() {
        let bare = "fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n";
        let r = scan_source("rayon", "vendor/rayon/src/pool.rs", bare);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "unsafe-block");
        assert_eq!(r.findings[0].line, 2);
        // An impl header counts too.
        let imp = "unsafe impl Send for T {}\n";
        assert_eq!(
            scan_source("core", "crates/core/src/x.rs", imp).findings[0].rule,
            "unsafe-block"
        );
        // A suppression with a reason clears it.
        let audited = "fn f(p: *const u32) -> u32 {\n    // audit:allow(unsafe-block) -- p valid per caller contract\n    unsafe { *p }\n}\n";
        assert!(scan_source("rayon", "vendor/rayon/src/pool.rs", audited).findings.is_empty());
        // The `unsafe_code` lint attribute is not an `unsafe` token.
        let attr = "#![deny(unsafe_code)]\n#[allow(unsafe_code)]\nmod pool;\npub fn f() {}\n";
        assert!(scan_source("rayon", "vendor/rayon/src/lib.rs", attr).findings.is_empty());
    }

    #[test]
    fn unwrap_budget_covers_hot_path_crates_and_skips_unwrap_or() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    let a = x.unwrap();\n    let b = x.expect(\"reason\");\n    let c = x.unwrap_or(0);\n    let d = x.unwrap_or_else(|| 1);\n    a + b + c + d\n}\n";
        let r = scan_source("core", "crates/core/src/x.rs", src);
        assert_eq!(r.unwrap_count, 2, "unwrap_or/unwrap_or_else are not in budget");
        assert!(r.findings.is_empty());
        assert_eq!(scan_source("graph", "crates/graph/src/x.rs", src).unwrap_count, 2);
        assert_eq!(scan_source("decay", "crates/decay/src/x.rs", src).unwrap_count, 2);
        assert_eq!(scan_source("bench", "crates/bench/src/x.rs", src).unwrap_count, 0);
    }

    #[test]
    fn explain_resolves_rule_names_and_ids() {
        assert_eq!(explain("lock-order").map(|r| r.id), Some("A9"));
        assert_eq!(explain("a10").map(|r| r.rule), Some("atomic-ordering"));
        assert_eq!(explain("A11").map(|r| r.rule), Some("blocking-in-reader"));
        assert!(explain("no-such-rule").is_none());
        assert_eq!(RULES.len(), 14, "one doc per rule A1–A14");
    }

    #[test]
    fn ratchet_flags_increases_and_notes_decreases() {
        let baseline = BTreeMap::from([("a.rs".to_string(), 2), ("b.rs".to_string(), 1)]);
        let current = BTreeMap::from([("a.rs".to_string(), 3), ("c.rs".to_string(), 1)]);
        let (errors, notes) = ratchet(&baseline, &current);
        assert_eq!(errors.len(), 2, "{errors:?}"); // a.rs over budget, c.rs new
        assert_eq!(notes.len(), 1, "{notes:?}"); // b.rs dropped to zero
        let (errors, notes) = ratchet(&baseline, &baseline);
        assert!(errors.is_empty() && notes.is_empty());
    }

    #[test]
    fn a7_ratchet_reports_under_its_own_rule() {
        let current = BTreeMap::from([("a.rs".to_string(), 1)]);
        let (errors, _) = ratchet_a7(&BTreeMap::new(), &current);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].rule, "hot-alloc");
    }

    #[test]
    fn baseline_round_trips() {
        let counts = BTreeMap::from([
            ("crates/core/src/engine.rs".to_string(), 2),
            ("crates/core/src/other.rs".to_string(), 7),
        ]);
        assert_eq!(parse_baseline(&format_baseline(&counts)), counts);
        assert_eq!(parse_baseline(&format_baseline_a7(&counts)), counts);
        assert!(parse_baseline("# only comments\n\n").is_empty());
    }
}
