//! Workspace call graph over the lexed token streams.
//!
//! A lint that sees one expression can say "this line calls `.collect()`"
//! but not "this `collect` runs on every activation". This module extracts
//! every `fn` item in the hot-path crates ([`CALL_GRAPH_CRATES`]) together
//! with its call sites and allocation markers, resolves calls to workspace
//! functions with a deliberately *over-approximating* heuristic
//! (reachability may include functions that a precise analysis would
//! exclude — never the reverse, within the heuristic's known blind spots;
//! see DESIGN.md §8), and walks reachability from the hot entry points to
//! drive **A7 `hot-alloc`** — `Vec::new` / `vec![` / `.collect()` /
//! `.to_vec()` / `Box::new` / `format!` in any function reachable from a
//! per-activation [`ALLOC_ROOTS`] entry; the fix is usually a pooled scratch
//! buffer.
//!
//! Resolution heuristic, in order:
//!
//! 1. `Type::name(` with a known `impl Type` in the workspace → exactly that
//!    function. `Self::name(` substitutes the enclosing `impl` type and
//!    `<T as Trait>::name(` recovers `T` from the UFCS qualifier, so both
//!    take this exact path instead of the by-name fallback.
//! 2. `Type::name(` with an *unknown* capitalized type (e.g. `Vec::new`) →
//!    external; no edge. This is what keeps `Vec::new` from wiring the graph
//!    to every workspace `new`. Paths rooted at `std`/`core`/`alloc`
//!    (`std::mem::take`) are external regardless of segment case.
//! 3. `seg::name(` with a lowercase first segment (module path, e.g.
//!    `query::local_cluster`) → every workspace fn named `name`.
//! 4. `.name(` method calls and bare `name(` calls → every workspace fn
//!    named `name` (receiver types are not inferred).
//!
//! Known over-approximations (accepted — they only make the lint stricter):
//! a method call `.get(` resolves to every workspace `get`. Known blind
//! spots: function pointers/closures passed as values, macro-generated
//! calls, and trait-object dispatch to impls outside [`CALL_GRAPH_CRATES`].
//!
//! Beyond calls and allocation markers, extraction also records the raw
//! material for the A9–A11 concurrency rules (analyzed in
//! [`crate::concurrency`]): lock acquisition sites with tracked guard
//! extents, events that happen *while* a lock is held, atomic-op sites with
//! their `Ordering`s, and potentially-blocking sites (lock / condvar wait /
//! channel recv / park / pool dispatch). The guard-extent model: a
//! `let`-bound guard (optionally chained through `.unwrap()`/`.expect(…)`)
//! is held to the end of its enclosing block or an explicit `drop(guard)`;
//! any other use of the guard expression is a statement temporary held to
//! the statement's `;`. Guards bound by `if let`/`while let`/`match` are
//! approximated as statement temporaries (the workspace does not bind lock
//! guards that way).

use std::collections::BTreeMap;

use crate::lexer::{lock_name_override, matching, suppressed_rules, LexedFile, Token, TokenKind};
use crate::Finding;

/// Crates included in the call graph (the per-activation hot path lives
/// here, and since ISSUE 10 the serving read/respond path too;
/// `bench`/`cli`/`data` are driver code and may allocate freely).
pub const CALL_GRAPH_CRATES: &[&str] = &["core", "decay", "graph", "server"];

/// Per-activation entry points for A7 `hot-alloc`: these run once per stream
/// event, so allocations here bound throughput. The pure query APIs
/// (`local_cluster` etc.) are *not* alloc roots — they return owned results
/// by design and run at query rate, not stream rate. The convenience
/// wrapper `on_weight_change` that collects into fresh `Vec`s is likewise
/// excluded: the engine's stream path only calls the pooled
/// `on_weight_change_serial_into`.
pub const ALLOC_ROOTS: &[&str] = &[
    "AncEngine::activate",
    "AncEngine::activate_traced",
    "AncEngine::activate_batch",
    "Pyramids::on_weight_change_batch",
    "Pyramids::on_weight_change_serial_into",
];

/// Wait-free query roots for A11 `blocking-in-reader`: the serving design
/// (ROADMAP item 2) answers point queries from cached/`Arc`-snapshot state,
/// so no lock acquisition, condvar wait, channel `recv`, `park`, or pool
/// dispatch may be reachable from these — except behind a justified
/// `audit:allow(blocking-in-reader)` (today: the cache's miss-path cold
/// fill, which by design runs on the writer thread).
pub const QUERY_ROOTS: &[&str] = &[
    "AncEngine::cluster_all",
    "AncEngine::cluster_all_cached",
    "AncEngine::same_cluster",
    "Pyramids::same_cluster",
    // The serving reader path (DESIGN.md §13): readers chase the epoch'd
    // snapshot chain and answer entirely off `Arc`s — wait-free by
    // construction, and this rule keeps it that way.
    "SnapshotReader::snapshot",
    "ServeSnapshot::clusters_at",
    "ServeSnapshot::same_cluster_at",
    "ServeSnapshot::members_at",
];

/// An allocation marker inside one function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Site {
    /// 1-based line of the marker.
    pub line: usize,
    /// What was matched, e.g. `"Vec::new"` or `".collect()"`.
    pub what: &'static str,
}

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Callee {
    /// `.name(` — method call, receiver type unknown.
    Method(String),
    /// `Seg::name(` — path call; `Seg` is the segment before the final `::`.
    Path(String, String),
    /// `name(` — bare call.
    Free(String),
}

/// One call site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Who is called.
    pub callee: Callee,
    /// 1-based line of the call.
    pub line: usize,
}

/// One lock acquisition site (A9/A11 raw material). The lock's identity is
/// the receiver ident at the acquisition (`shared.deques.lock()` → lock
/// `deques`) unless the line carries an `audit:lock(<name>)` override.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockSite {
    /// Lock identity.
    pub name: String,
    /// 1-based line of the acquisition.
    pub line: usize,
}

/// What happened inside a held lock span (A9 edge raw material).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Held {
    /// Another lock was acquired directly while this one was held.
    Lock(String),
    /// A call was made while this lock was held; every lock the callee can
    /// transitively acquire becomes an ordering edge.
    Call(Callee),
}

/// One "did X while holding lock `held`" record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeldEvent {
    /// The held lock's identity.
    pub held: String,
    /// What happened under it.
    pub inner: Held,
    /// 1-based line of the inner event.
    pub line: usize,
}

/// One atomic operation site (A10 raw material).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtomicSite {
    /// Receiver ident (the atomic's field/variable name).
    pub recv: String,
    /// Operation name (`load`, `store`, `fetch_add`, `compare_exchange`, …).
    pub op: String,
    /// `Ordering` idents in the argument list, in order; the first is the
    /// primary (success) ordering.
    pub orderings: Vec<String>,
    /// 1-based line.
    pub line: usize,
}

/// One potentially-blocking site (A11 raw material): lock acquisition,
/// condvar wait, channel recv, thread park, or pool dispatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockingSite {
    /// Short description of the blocking construct.
    pub what: String,
    /// 1-based line.
    pub line: usize,
}

/// One `fn` item extracted from a lexed file.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Repo-relative file path.
    pub file: String,
    /// `Type::name` for methods in an `impl` block, else just `name`.
    pub qual: String,
    /// Simple function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Call sites in the body (non-test lines only).
    pub calls: Vec<CallSite>,
    /// Unsuppressed allocation markers in the body.
    pub alloc_sites: Vec<Site>,
    /// Unsuppressed lock acquisitions (A9).
    pub locks: Vec<LockSite>,
    /// Events inside held lock spans (A9).
    pub held_events: Vec<HeldEvent>,
    /// Condvar waits taken while holding a lock other than the wait's own
    /// guard: `(held lock, line)` — direct A9 findings.
    pub wait_violations: Vec<(String, usize)>,
    /// Unsuppressed atomic-op sites (A10).
    pub atomics: Vec<AtomicSite>,
    /// Unsuppressed blocking sites (A11).
    pub blocking: Vec<BlockingSite>,
}

pub(crate) const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "in", "loop", "return", "break", "continue", "let",
    "move", "as", "ref", "box", "dyn", "where", "use", "pub", "mod", "struct", "enum", "trait",
    "type", "const", "static", "fn", "impl", "unsafe", "extern", "crate", "super", "self", "Self",
    "async", "await", "true", "false",
];

/// Extracts every non-test `fn` item (with call sites and markers) from one
/// lexed file. `raw_lines` is the unlexed source, used to honor
/// `audit:allow(hot-alloc)` on or above a marker's line.
pub fn extract_fns(file: &str, lexed: &LexedFile, raw_lines: &[&str]) -> Vec<FnItem> {
    let toks = &lexed.tokens;
    let close_of = brace_partners(toks);

    // impl ranges: (body_open, body_close, type name).
    let mut impls: Vec<(usize, usize, String)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("impl") {
            continue;
        }
        if let Some((open, ty)) = impl_header(toks, i) {
            if let Some(&close) = close_of.get(&open) {
                impls.push((open, close, ty));
            }
        }
    }

    // fn items: header parse, body range, impl-type qualification.
    let mut items: Vec<FnItem> = Vec::new();
    let mut ranges: Vec<(usize, usize)> = Vec::new(); // body (open, close)

    // Test fns never run in production; feature-gated fns (and gated call
    // statements) are compiled out of the default-feature build the audit
    // targets.
    let excluded = |line: usize| {
        lexed.is_test_line(line.saturating_sub(1)) || lexed.is_gated_line(line.saturating_sub(1))
    };

    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("fn") || excluded(t.line) {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else { continue };
        if name_tok.kind != TokenKind::Ident {
            continue; // `fn(` — function pointer type
        }
        let Some(open) = fn_body_open(toks, i + 2) else { continue }; // no body: trait sig
        let Some(&close) = close_of.get(&open) else { continue };
        // Innermost enclosing impl wins (nested impls do not occur, but
        // smallest-range is the right tie-break anyway).
        let ty = impls
            .iter()
            .filter(|(o, c, _)| *o < i && i < *c)
            .min_by_key(|(o, c, _)| c - o)
            .map(|(_, _, ty)| ty.clone());
        let name = name_tok.text.clone();
        let qual = match ty {
            Some(ty) => format!("{ty}::{name}"),
            None => name.clone(),
        };
        items.push(FnItem {
            file: file.to_string(),
            qual,
            name,
            line: t.line,
            calls: Vec::new(),
            alloc_sites: Vec::new(),
            locks: Vec::new(),
            held_events: Vec::new(),
            wait_violations: Vec::new(),
            atomics: Vec::new(),
            blocking: Vec::new(),
        });
        ranges.push((open, close));
    }

    // Innermost-fn ownership per token: outer ranges first, inner overwrite.
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(ranges[k].1 - ranges[k].0));
    let mut owner: Vec<Option<usize>> = vec![None; toks.len()];
    for &k in &order {
        let (open, close) = ranges[k];
        for slot in owner[open..=close].iter_mut() {
            *slot = Some(k);
        }
    }

    let allowed = |rule: &str, line: usize| -> bool {
        let idx = line.saturating_sub(1);
        let on = |i: usize| {
            raw_lines.get(i).is_some_and(|l| suppressed_rules(l).iter().any(|r| r == rule))
        };
        on(idx) || (idx > 0 && on(idx - 1))
    };

    for (i, t) in toks.iter().enumerate() {
        let Some(k) = owner[i] else { continue };
        if excluded(t.line) {
            continue;
        }
        let item = &mut items[k];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"));
        if next_bang {
            let what = match t.text.as_str() {
                "vec" => Some("vec!["),
                "format" => Some("format!"),
                _ => None,
            };
            if let Some(what) = what {
                if !allowed("hot-alloc", t.line) {
                    item.alloc_sites.push(Site { line: t.line, what });
                }
            }
            continue;
        }
        if !call_follows(toks, i + 1) {
            continue;
        }
        let prev = if i > 0 { Some(&toks[i - 1]) } else { None };
        if prev.is_some_and(|p| p.is_ident("fn")) {
            continue; // the definition itself
        }
        if prev.is_some_and(|p| p.is_punct(".")) {
            // Method call: marker check first, then an edge (harmless for
            // std methods — no workspace fn shares those names).
            let marker = match t.text.as_str() {
                "collect" => Some(".collect()"),
                "to_vec" => Some(".to_vec()"),
                _ => None,
            };
            if let Some(what) = marker {
                if !allowed("hot-alloc", t.line) {
                    item.alloc_sites.push(Site { line: t.line, what });
                }
            }
            item.calls.push(CallSite { callee: Callee::Method(t.text.clone()), line: t.line });
        } else if prev.is_some_and(|p| p.is_punct("::")) {
            let raw_seg = if i >= 2 && toks[i - 2].kind == TokenKind::Ident {
                toks[i - 2].text.as_str()
            } else {
                ""
            };
            if (raw_seg == "Vec" || raw_seg == "Box")
                && t.text == "new"
                && !allowed("hot-alloc", t.line)
            {
                let what = if raw_seg == "Vec" { "Vec::new" } else { "Box::new" };
                item.alloc_sites.push(Site { line: t.line, what });
            }
            let self_ty = item.qual.rsplit_once("::").map(|(ty, _)| ty);
            let seg = path_qualifier(toks, i, self_ty);
            item.calls.push(CallSite { callee: Callee::Path(seg, t.text.clone()), line: t.line });
        } else if !KEYWORDS.contains(&t.text.as_str()) {
            item.calls.push(CallSite { callee: Callee::Free(t.text.clone()), line: t.line });
        }
    }

    // Concurrency raw material (A9–A11): a second, per-fn walk that tracks
    // guard extents — hold state cannot be reconstructed from the flat call
    // list above.
    for (k, item) in items.iter_mut().enumerate() {
        let (open, close) = ranges[k];
        let self_ty = item.qual.rsplit_once("::").map(|(ty, _)| ty.to_string());
        scan_concurrency(toks, open, close, k, &owner, &close_of, lexed, raw_lines, self_ty, item);
    }

    items
}

/// The effective qualifier of a `…::name(` call whose name ident is at `i`:
/// the segment before the final `::`, with three repairs over the raw
/// token — `Self::` substitutes the enclosing `impl` type (`self_ty`),
/// `<T as Trait>::` recovers `T` from the UFCS qualifier, and a path rooted
/// at `std`/`core`/`alloc` returns that root (which resolution treats as
/// external, so `std::mem::take` stops matching every workspace `take`).
fn path_qualifier(toks: &[Token], i: usize, self_ty: Option<&str>) -> String {
    if i < 2 {
        return String::new();
    }
    let seg = &toks[i - 2];
    if seg.kind == TokenKind::Ident {
        // Walk to the path root: `a::b::name(` → `a`.
        let mut j = i - 2;
        while j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].kind == TokenKind::Ident {
            j -= 2;
        }
        if matches!(toks[j].text.as_str(), "std" | "core" | "alloc") {
            return toks[j].text.clone();
        }
        if seg.text == "Self" {
            return self_ty.map(str::to_string).unwrap_or_default();
        }
        return seg.text.clone();
    }
    if seg.is_punct(">") {
        // UFCS `<T as Trait>::name(`: the first type ident inside the
        // brackets is the receiver type.
        let mut depth = 1i32;
        let mut j = i - 2;
        while j > 0 && depth > 0 {
            j -= 1;
            if toks[j].is_punct(">") {
                depth += 1;
            } else if toks[j].is_punct("<") {
                depth -= 1;
            }
        }
        let mut k = j + 1;
        loop {
            match toks.get(k) {
                Some(t) if t.is_punct("&") || t.kind == TokenKind::Lifetime => k += 1,
                Some(t) if t.is_ident("dyn") || t.is_ident("mut") => k += 1,
                Some(t) if t.is_ident("Self") => {
                    return self_ty.map(str::to_string).unwrap_or_default();
                }
                Some(t) if t.kind == TokenKind::Ident => return t.text.clone(),
                _ => return String::new(),
            }
        }
    }
    String::new()
}

/// Classifies the call site whose name ident is at `i` the same way the
/// main extraction loop does (the concurrency walk needs callees for
/// held-span calls). The caller has verified an argument list follows.
pub(crate) fn callee_at(toks: &[Token], i: usize, self_ty: Option<&str>) -> Option<Callee> {
    let t = &toks[i];
    let prev = if i > 0 { Some(&toks[i - 1]) } else { None };
    if prev.is_some_and(|p| p.is_ident("fn")) {
        return None;
    }
    if prev.is_some_and(|p| p.is_punct(".")) {
        return Some(Callee::Method(t.text.clone()));
    }
    if prev.is_some_and(|p| p.is_punct("::")) {
        return Some(Callee::Path(path_qualifier(toks, i, self_ty), t.text.clone()));
    }
    if KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    Some(Callee::Free(t.text.clone()))
}

/// Atomic-op method names. A site only counts as atomic when an `Ordering`
/// ident appears in its argument list (`Vec::swap`, io `read`/`write`, and
/// other name collisions carry none).
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// Method names that dispatch work onto the thread pool (this workspace's
/// rayon shim combinators). A pool dispatch blocks the caller until the
/// call's chunks complete, so it is a blocking site for A11.
const POOL_DISPATCH: &[&str] = &[
    "into_par_iter",
    "par_iter",
    "par_iter_mut",
    "par_chunks",
    "par_chunks_mut",
    "collect_into_vec",
];

/// An active lock guard during the concurrency walk.
struct Hold {
    /// Lock identity.
    name: String,
    /// The `let`-bound guard ident, if scoped (releasable by `drop(ident)`).
    bound: Option<String>,
    /// Token index at which the hold expires.
    release_at: usize,
}

/// The per-fn concurrency walk: tracks lock-guard extents through the body
/// `(open, close)` of fn `k` and records lock acquisitions, held-span
/// events, condvar-wait violations, atomic ops, and blocking sites into
/// `item` (see the module docs for the guard-extent model).
#[allow(clippy::too_many_arguments)]
fn scan_concurrency(
    toks: &[Token],
    open: usize,
    close: usize,
    k: usize,
    owner: &[Option<usize>],
    close_of: &BTreeMap<usize, usize>,
    lexed: &LexedFile,
    raw_lines: &[&str],
    self_ty: Option<String>,
    item: &mut FnItem,
) {
    let allowed = |rule: &str, line: usize| -> bool {
        let idx = line.saturating_sub(1);
        let on = |i: usize| {
            raw_lines.get(i).is_some_and(|l| suppressed_rules(l).iter().any(|r| r == rule))
        };
        on(idx) || (idx > 0 && on(idx - 1))
    };
    let lock_name = |toks: &[Token], i: usize, line: usize| -> String {
        let idx = line.saturating_sub(1);
        let over = |i: usize| raw_lines.get(i).and_then(|l| lock_name_override(l));
        over(idx)
            .or_else(|| if idx > 0 { over(idx - 1) } else { None })
            .unwrap_or_else(|| receiver_name(toks, i))
    };
    let excluded = |line: usize| {
        lexed.is_test_line(line.saturating_sub(1)) || lexed.is_gated_line(line.saturating_sub(1))
    };

    let mut scopes: Vec<usize> = Vec::new(); // close indices of open braces
    let mut holds: Vec<Hold> = Vec::new();
    let mut stmt_let: Option<String> = None; // `let [mut] IDENT` of this stmt
    let mut pending_let = false;
    let mut i = open + 1;
    while i < close {
        holds.retain(|h| h.release_at > i);
        let t = &toks[i];
        if owner[i] != Some(k) || excluded(t.line) {
            i += 1;
            continue;
        }
        if t.is_punct("{") {
            if let Some(&c) = close_of.get(&i) {
                scopes.push(c);
            }
            (stmt_let, pending_let) = (None, false);
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            if scopes.last() == Some(&i) {
                scopes.pop();
            }
            (stmt_let, pending_let) = (None, false);
            i += 1;
            continue;
        }
        if t.is_punct(";") {
            (stmt_let, pending_let) = (None, false);
            i += 1;
            continue;
        }
        if t.is_ident("let") {
            pending_let = true;
            i += 1;
            continue;
        }
        if pending_let && t.kind == TokenKind::Ident {
            if t.text != "mut" {
                stmt_let = Some(t.text.clone());
                pending_let = false;
            }
            i += 1;
            continue;
        }
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let line = t.line;
        let next_is_call = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        let prev_dot = i > 0 && toks[i - 1].is_punct(".");

        // `drop(guard)` — explicit early release of a bound guard.
        if t.is_ident("drop") && next_is_call && !prev_dot {
            if let Some(g) = toks.get(i + 2).filter(|g| g.kind == TokenKind::Ident) {
                holds.retain(|h| h.bound.as_deref() != Some(g.text.as_str()));
            }
            i += 1;
            continue;
        }
        // Lock acquisition.
        if t.is_ident("lock") && prev_dot && next_is_call {
            let name = lock_name(toks, i - 2, line);
            if !allowed("blocking-in-reader", line) {
                item.blocking.push(BlockingSite { what: format!("lock `{name}`"), line });
            }
            let chain_end = guard_chain_end(toks, i + 1);
            if !allowed("lock-order", line) {
                for h in &holds {
                    item.held_events.push(HeldEvent {
                        held: h.name.clone(),
                        inner: Held::Lock(name.clone()),
                        line,
                    });
                }
                item.locks.push(LockSite { name: name.clone(), line });
                let (release_at, bound) =
                    hold_extent(toks, chain_end, close, &scopes, stmt_let.as_deref());
                holds.push(Hold { name, bound, release_at });
            }
            // Resume past the guard expression's own `.unwrap()`/`.expect(`
            // chain — those are part of the acquisition, not held-span work.
            i = chain_end.map_or(i + 1, |e| e + 1);
            continue;
        }
        // Condvar wait: blocking, and an A9 violation if any *other* lock
        // is held (the wait releases only its own guard's mutex).
        if prev_dot
            && next_is_call
            && matches!(t.text.as_str(), "wait" | "wait_timeout" | "wait_while")
        {
            let cv = receiver_name(toks, i - 2);
            if !allowed("blocking-in-reader", line) {
                item.blocking
                    .push(BlockingSite { what: format!("Condvar::{} on `{cv}`", t.text), line });
            }
            if !allowed("lock-order", line) {
                let guard =
                    toks.get(i + 2).filter(|g| g.kind == TokenKind::Ident).map(|g| g.text.clone());
                for h in &holds {
                    if h.bound.is_none() || h.bound != guard {
                        item.wait_violations.push((h.name.clone(), line));
                    }
                }
            }
            i += 1;
            continue;
        }
        // Channel recv / thread park.
        if prev_dot && next_is_call && matches!(t.text.as_str(), "recv" | "recv_timeout") {
            if !allowed("blocking-in-reader", line) {
                item.blocking.push(BlockingSite { what: format!("channel {}()", t.text), line });
            }
            i += 1;
            continue;
        }
        if !prev_dot && next_is_call && matches!(t.text.as_str(), "park" | "park_timeout") {
            if !allowed("blocking-in-reader", line) {
                item.blocking.push(BlockingSite { what: format!("thread::{}()", t.text), line });
            }
            i += 1;
            continue;
        }
        // Pool dispatch.
        let rayon_join = t.is_ident("join")
            && i >= 2
            && toks[i - 1].is_punct("::")
            && toks[i - 2].is_ident("rayon");
        if next_is_call && (POOL_DISPATCH.contains(&t.text.as_str()) || rayon_join) {
            if !allowed("blocking-in-reader", line) {
                let what = if rayon_join {
                    "pool dispatch `rayon::join`".to_string()
                } else {
                    format!("pool dispatch `{}`", t.text)
                };
                item.blocking.push(BlockingSite { what, line });
            }
            i += 1;
            continue;
        }
        // Atomic ops (require an Ordering ident in the args).
        if prev_dot && next_is_call && ATOMIC_OPS.contains(&t.text.as_str()) {
            if let Some(orderings) = atomic_orderings(toks, i + 1) {
                if !allowed("atomic-ordering", line) {
                    item.atomics.push(AtomicSite {
                        recv: receiver_name(toks, i - 2),
                        op: t.text.clone(),
                        orderings,
                        line,
                    });
                }
                i += 1;
                continue;
            }
        }
        // Any other call made while holding a lock: the callee's transitive
        // locks become ordering edges in the analysis.
        if !holds.is_empty() && call_follows(toks, i + 1) {
            if let Some(callee) = callee_at(toks, i, self_ty.as_deref()) {
                for h in &holds {
                    item.held_events.push(HeldEvent {
                        held: h.name.clone(),
                        inner: Held::Call(callee.clone()),
                        line,
                    });
                }
            }
        }
        i += 1;
    }
}

/// The receiver ident of a method call: `before_dot` is the token index
/// just before the `.`. Walks back over one `[…]` index group or `(…)` call
/// group (`deques[i % n].lock()` → `deques`; `self.inner().lock()` →
/// `inner`) and returns the ident found, or `?`.
fn receiver_name(toks: &[Token], before_dot: usize) -> String {
    let mut j = before_dot as isize;
    while j >= 0 {
        let t = &toks[j as usize];
        let (open, close) = if t.is_punct("]") {
            ("[", "]")
        } else if t.is_punct(")") {
            ("(", ")")
        } else if t.kind == TokenKind::Ident {
            return t.text.clone();
        } else {
            break;
        };
        let mut depth = 0i32;
        while j >= 0 {
            let t2 = &toks[j as usize];
            if t2.is_punct(close) {
                depth += 1;
            } else if t2.is_punct(open) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j -= 1;
        }
        j -= 1;
    }
    "?".to_string()
}

/// The last token of a lock-guard acquisition expression: the `)` closing
/// the `.lock(…)` argument list at `args`, extended through any
/// `.unwrap()`/`.expect(…)` chain. `None` on unbalanced parens.
fn guard_chain_end(toks: &[Token], args: usize) -> Option<usize> {
    let mut j = matching(toks, args, "(", ")")?;
    while toks.get(j + 1).is_some_and(|t| t.is_punct("."))
        && toks.get(j + 2).is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
        && toks.get(j + 3).is_some_and(|t| t.is_punct("("))
    {
        j = matching(toks, j + 3, "(", ")")?;
    }
    Some(j)
}

/// Computes a lock guard's extent. `chain_end` is the acquisition
/// expression's last token (see [`guard_chain_end`]). A `let`-bound guard
/// (`stmt_let`) terminated by `;` (or `?;`) lives to the innermost
/// enclosing brace's close; anything else — further chaining, assignment
/// through the guard, use as an argument — is a statement temporary living
/// to the statement's `;` at bracket depth 0. Returns `(release token
/// index, bound guard ident)`.
fn hold_extent(
    toks: &[Token],
    chain_end: Option<usize>,
    fn_close: usize,
    scopes: &[usize],
    stmt_let: Option<&str>,
) -> (usize, Option<String>) {
    let Some(j) = chain_end else {
        return (fn_close, None);
    };
    let ends_stmt = toks.get(j + 1).is_some_and(|t| t.is_punct(";"))
        || (toks.get(j + 1).is_some_and(|t| t.is_punct("?"))
            && toks.get(j + 2).is_some_and(|t| t.is_punct(";")));
    if ends_stmt {
        if stmt_let.is_some() {
            return (scopes.last().copied().unwrap_or(fn_close), stmt_let.map(str::to_string));
        }
        return (j + 1, None);
    }
    // Statement temporary: alive to the statement's `;`.
    let mut depth = 0i32;
    let mut p = j + 1;
    while p < fn_close {
        let t = &toks[p];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                return (p, None); // end of the enclosing expression
            }
        } else if t.is_punct(";") && depth == 0 {
            return (p, None);
        }
        p += 1;
    }
    (fn_close, None)
}

/// The `Ordering` idents inside the argument list opening at `args`, in
/// order; `None` when there are none (not an atomic op).
fn atomic_orderings(toks: &[Token], args: usize) -> Option<Vec<String>> {
    let close = matching(toks, args, "(", ")")?;
    let names: Vec<String> = toks[args + 1..close]
        .iter()
        .filter(|t| {
            t.kind == TokenKind::Ident
                && matches!(
                    t.text.as_str(),
                    "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
                )
        })
        .map(|t| t.text.clone())
        .collect();
    (!names.is_empty()).then_some(names)
}

/// Maps each `{` token index to its matching `}` index.
fn brace_partners(toks: &[Token]) -> BTreeMap<usize, usize> {
    let mut map = BTreeMap::new();
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct("{") {
            stack.push(i);
        } else if t.is_punct("}") {
            if let Some(open) = stack.pop() {
                map.insert(open, i);
            }
        }
    }
    map
}

/// Parses an `impl` header starting at token `at` (`impl`): returns the body
/// `{` index and the implemented type's simple name (the type after `for`
/// in trait impls).
fn impl_header(toks: &[Token], at: usize) -> Option<(usize, String)> {
    let mut i = at + 1;
    // Skip `<generics>`.
    if toks.get(i).is_some_and(|t| t.is_punct("<")) {
        let mut depth = 0i32;
        while let Some(t) = toks.get(i) {
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    let mut ty: Option<String> = None;
    let mut in_where = false;
    while let Some(t) = toks.get(i) {
        if t.is_punct("{") {
            return Some((i, ty?));
        }
        if t.is_ident("where") {
            // Bounds in the where clause must not overwrite the type.
            in_where = true;
        } else if t.is_ident("for") {
            // Trait impl: the implemented type follows; drop the trait name.
            ty = None;
        } else if !in_where && t.kind == TokenKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
            // Last path segment before generics/`{` wins (`fmt::Display` →
            // `Display`; then `for Finding` → `Finding`).
            ty = Some(t.text.clone());
        } else if t.is_punct("<") {
            // Skip the type's own generic args.
            let mut depth = 0i32;
            while let Some(t2) = toks.get(i) {
                if t2.is_punct("<") {
                    depth += 1;
                } else if t2.is_punct(">") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                i += 1;
            }
        }
        i += 1;
    }
    None
}

/// Finds the body `{` of a `fn` whose parameter list starts at or after
/// `from`, skipping the parameter parens and any return type / where clause.
/// Returns `None` for braceless signatures (`fn f();` in traits).
fn fn_body_open(toks: &[Token], from: usize) -> Option<usize> {
    let mut i = from;
    let mut paren = 0i32;
    let mut angle = 0i32;
    while let Some(t) = toks.get(i) {
        if t.is_punct("(") {
            paren += 1;
        } else if t.is_punct(")") {
            paren -= 1;
        } else if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle = (angle - 1).max(0); // `->` lexes as `-`, `>`
        } else if paren == 0 && t.is_punct(";") {
            return None;
        } else if paren == 0 && angle == 0 && t.is_punct("{") {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Whether the token at `i` begins an argument list: `(` directly, or a
/// turbofish `::<…>(`.
pub(crate) fn call_follows(toks: &[Token], i: usize) -> bool {
    match toks.get(i) {
        Some(t) if t.is_punct("(") => true,
        Some(t) if t.is_punct("::") && toks.get(i + 1).is_some_and(|n| n.is_punct("<")) => {
            let mut depth = 0i32;
            let mut j = i + 1;
            while let Some(t2) = toks.get(j) {
                if t2.is_punct("<") {
                    depth += 1;
                } else if t2.is_punct(">") {
                    depth -= 1;
                    if depth == 0 {
                        return toks.get(j + 1).is_some_and(|n| n.is_punct("("));
                    }
                }
                j += 1;
            }
            false
        }
        _ => false,
    }
}

/// The assembled workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All extracted functions, in deterministic (crate, file, position)
    /// order.
    pub fns: Vec<FnItem>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_qual: BTreeMap<String, Vec<usize>>,
}

/// Reachability result: for each fn, whether it is reachable and through
/// which caller (BFS parent), for call-chain reporting.
#[derive(Debug)]
pub struct Reachability {
    reached: Vec<bool>,
    parent: Vec<Option<usize>>,
    root_of: Vec<Option<usize>>,
    stale_roots: Vec<String>,
}

impl CallGraph {
    /// Builds the graph from extracted items (order is preserved and must be
    /// deterministic — the scanner feeds files in sorted order).
    pub fn build(fns: Vec<FnItem>) -> Self {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
            by_qual.entry(f.qual.clone()).or_default().push(i);
        }
        Self { fns, by_name, by_qual }
    }

    /// Resolves one call site to workspace fn indices (possibly empty).
    pub(crate) fn resolve(&self, callee: &Callee) -> &[usize] {
        static EMPTY: [usize; 0] = [];
        match callee {
            Callee::Method(n) | Callee::Free(n) => {
                self.by_name.get(n).map_or(&EMPTY[..], |v| &v[..])
            }
            Callee::Path(seg, n) => {
                if matches!(seg.as_str(), "std" | "core" | "alloc") {
                    // Rooted at a std-family crate: external by definition;
                    // never fall back to a name match.
                    return &EMPTY[..];
                }
                let qual = format!("{seg}::{n}");
                if let Some(v) = self.by_qual.get(&qual) {
                    return &v[..];
                }
                let unknown_type = seg.chars().next().is_some_and(|c| c.is_uppercase());
                if unknown_type {
                    // `Vec::new`, `ChaCha8Rng::seed_from_u64`, … — external.
                    &EMPTY[..]
                } else {
                    // Module path (`query::local_cluster`) or unknown
                    // qualifier — match by simple name.
                    self.by_name.get(n).map_or(&EMPTY[..], |v| &v[..])
                }
            }
        }
    }

    /// BFS from every fn whose `qual` is in `roots`, in root order. A root
    /// that names no fn is kept in [`Reachability::stale_roots`]: nothing is
    /// reachable from it, so the rule walking from it would check nothing.
    pub fn reachable_from(&self, roots: &[&str]) -> Reachability {
        let n = self.fns.len();
        let mut r = Reachability {
            reached: vec![false; n],
            parent: vec![None; n],
            root_of: vec![None; n],
            stale_roots: Vec::new(),
        };
        let mut queue = std::collections::VecDeque::new();
        for root in roots {
            let Some(starts) = self.by_qual.get(*root) else {
                r.stale_roots.push(root.to_string());
                continue;
            };
            for &s in starts {
                if !r.reached[s] {
                    r.reached[s] = true;
                    r.root_of[s] = Some(s);
                    queue.push_back(s);
                }
            }
        }
        while let Some(u) = queue.pop_front() {
            for call in &self.fns[u].calls {
                for &v in self.resolve(&call.callee) {
                    if !r.reached[v] {
                        r.reached[v] = true;
                        r.parent[v] = Some(u);
                        r.root_of[v] = r.root_of[u];
                        queue.push_back(v);
                    }
                }
            }
        }
        r
    }
}

impl Reachability {
    /// Whether fn `i` is reachable from any root.
    pub fn is_reached(&self, i: usize) -> bool {
        self.reached[i]
    }

    /// One finding under `rule` per root of `table` that names no fn in the
    /// scanned tree — a renamed entry point must fail the run, not silently
    /// switch the rule off.
    pub fn stale_root_findings(&self, rule: &'static str, table: &str) -> Vec<Finding> {
        self.stale_roots
            .iter()
            .map(|root| Finding {
                rule,
                file: "crates/audit/src/callgraph.rs".into(),
                line: 0,
                message: format!(
                    "root `{root}` in {table} names no function in the scanned tree, so                      `{rule}` checks nothing from it; rename or remove the entry"
                ),
            })
            .collect()
    }

    /// The call chain `root → … → fns[i]` as quals (length-capped).
    pub fn chain(&self, graph: &CallGraph, i: usize) -> String {
        let mut quals = vec![graph.fns[i].qual.clone()];
        let mut cur = i;
        while let Some(p) = self.parent[cur] {
            quals.push(graph.fns[p].qual.clone());
            cur = p;
            if quals.len() > 8 {
                quals.push("…".into());
                break;
            }
        }
        quals.reverse();
        quals.join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> Vec<FnItem> {
        let lexed = lex(src);
        let raw: Vec<&str> = src.lines().collect();
        extract_fns("crates/core/src/x.rs", &lexed, &raw)
    }

    #[test]
    fn extracts_impl_qualified_fns() {
        let src = "struct Engine;\n\
                   impl Engine {\n\
                       pub fn activate(&mut self) { self.step(); }\n\
                       fn step(&mut self) {}\n\
                   }\n\
                   fn free_helper() {}\n";
        let fns = items(src);
        let quals: Vec<&str> = fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["Engine::activate", "Engine::step", "free_helper"]);
        assert_eq!(fns[0].calls, vec![CallSite { callee: Callee::Method("step".into()), line: 3 }]);
    }

    #[test]
    fn trait_impls_qualify_by_the_implementing_type() {
        let src = "impl fmt::Display for Finding {\n\
                       fn fmt(&self) { helper(); }\n\
                   }\n\
                   impl<'a> Ctx<'a> {\n\
                       fn sigma(&self) {}\n\
                   }\n";
        let fns = items(src);
        let quals: Vec<&str> = fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["Finding::fmt", "Ctx::sigma"]);
    }

    #[test]
    fn markers_are_collected_and_suppressible() {
        let src = "fn hot() {\n\
                       let v: Vec<u32> = Vec::new();\n\
                       let w = v.to_vec();\n\
                       // audit:allow(hot-alloc) -- cold error path\n\
                       let _msg = format!(\"{}\", w.len());\n\
                   }\n";
        let fns = items(src);
        assert_eq!(
            fns[0].alloc_sites,
            vec![Site { line: 2, what: "Vec::new" }, Site { line: 3, what: ".to_vec()" }]
        );
    }

    #[test]
    fn reachability_stops_at_unknown_external_types() {
        let src = "struct Engine;\n\
                   impl Engine {\n\
                       pub fn activate(&mut self) { helper(); }\n\
                   }\n\
                   fn helper() { let _v: Vec<u32> = Vec::new(); }\n\
                   fn unrelated() { panic!(\"never on the hot path\"); }\n";
        let g = CallGraph::build(items(src));
        let r = g.reachable_from(&["Engine::activate"]);
        let reached: Vec<&str> = g
            .fns
            .iter()
            .enumerate()
            .filter(|(i, _)| r.is_reached(*i))
            .map(|(_, f)| f.qual.as_str())
            .collect();
        // `Vec::new` must not create an edge to `unrelated` (or anything).
        assert_eq!(reached, vec!["Engine::activate", "helper"]);
        let hi = g.fns.iter().position(|f| f.qual == "helper").unwrap();
        assert_eq!(r.chain(&g, hi), "Engine::activate → helper");
    }

    #[test]
    fn turbofish_and_module_path_calls_resolve() {
        let src = "fn a() { helper::<u32>(); }\n\
                   fn helper() {}\n\
                   fn b() { sub::helper(); }\n";
        let g = CallGraph::build(items(src));
        let ra = g.reachable_from(&["a"]);
        let rb = g.reachable_from(&["b"]);
        let hi = g.fns.iter().position(|f| f.qual == "helper").unwrap();
        assert!(ra.is_reached(hi), "turbofish call must resolve");
        assert!(rb.is_reached(hi), "lowercase module path must fall back to name match");
    }

    #[test]
    fn test_module_fns_are_excluded() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { live(); }\n\
                   }\n";
        let fns = items(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].qual, "live");
    }

    #[test]
    fn self_qualified_calls_resolve_to_the_impl_type() {
        let src = "struct Engine;\n\
                   impl Engine {\n\
                       pub fn activate(&self) { Self::helper(); }\n\
                       fn helper() {}\n\
                   }\n\
                   fn unrelated_helper() { panic!(\"boom\"); }\n";
        let fns = items(src);
        assert_eq!(
            fns[0].calls,
            vec![CallSite { callee: Callee::Path("Engine".into(), "helper".into()), line: 3 }]
        );
        let g = CallGraph::build(fns);
        let r = g.reachable_from(&["Engine::activate"]);
        let hi = g.fns.iter().position(|f| f.qual == "Engine::helper").unwrap();
        assert!(r.is_reached(hi), "Self:: must resolve to the impl type");
    }

    #[test]
    fn ufcs_calls_resolve_to_the_receiver_type() {
        let src = "struct Engine;\n\
                   impl Engine {\n\
                       fn helper(&self) {}\n\
                   }\n\
                   fn a(e: &Engine) { <Engine as Helper>::helper(e); }\n\
                   fn b(e: &Engine) { <&mut Engine as Helper>::helper(e); }\n";
        let fns = items(src);
        let a = fns.iter().find(|f| f.qual == "a").unwrap();
        assert_eq!(
            a.calls,
            vec![CallSite { callee: Callee::Path("Engine".into(), "helper".into()), line: 5 }]
        );
        let b = fns.iter().find(|f| f.qual == "b").unwrap();
        assert_eq!(b.calls[0].callee, Callee::Path("Engine".into(), "helper".into()));
    }

    #[test]
    fn std_rooted_paths_are_external() {
        let src = "fn a(x: &mut Vec<u32>) { let _ = std::mem::take(x); }\n\
                   fn take() { panic!(\"workspace take\"); }\n";
        let g = CallGraph::build(items(src));
        let r = g.reachable_from(&["a"]);
        let ti = g.fns.iter().position(|f| f.qual == "take").unwrap();
        assert!(!r.is_reached(ti), "std::mem::take must not resolve to the workspace take");
        // A plain module path still falls back to the name match.
        let src = "fn a() { query::take(); }\nfn take() {}\n";
        let g = CallGraph::build(items(src));
        let r = g.reachable_from(&["a"]);
        let ti = g.fns.iter().position(|f| f.qual == "take").unwrap();
        assert!(r.is_reached(ti));
    }

    #[test]
    fn lock_sites_and_held_edges_are_extracted() {
        let src = "struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }\n\
                   impl S {\n\
                       fn nested(&self) {\n\
                           let ga = self.a.lock().unwrap();\n\
                           let gb = self.b.lock().unwrap();\n\
                           drop(gb);\n\
                           drop(ga);\n\
                       }\n\
                       fn temporary(&self) {\n\
                           let v = *self.a.lock().unwrap() + 1;\n\
                           *self.b.lock().unwrap() = v;\n\
                       }\n\
                   }\n";
        let fns = items(src);
        let nested = fns.iter().find(|f| f.qual == "S::nested").unwrap();
        assert_eq!(
            nested.locks,
            vec![LockSite { name: "a".into(), line: 4 }, LockSite { name: "b".into(), line: 5 }]
        );
        assert!(nested
            .held_events
            .iter()
            .any(|e| e.held == "a" && e.inner == Held::Lock("b".into())));
        // `temporary`: the first guard dies at its `;`, so no a→b edge.
        let temp = fns.iter().find(|f| f.qual == "S::temporary").unwrap();
        assert!(
            !temp.held_events.iter().any(|e| matches!(e.inner, Held::Lock(_))),
            "{:?}",
            temp.held_events
        );
    }

    #[test]
    fn drop_releases_a_bound_guard() {
        let src = "struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }\n\
                   impl S {\n\
                       fn f(&self) {\n\
                           let ga = self.a.lock().unwrap();\n\
                           drop(ga);\n\
                           let gb = self.b.lock().unwrap();\n\
                           drop(gb);\n\
                       }\n\
                   }\n";
        let fns = items(src);
        assert!(fns[0].held_events.is_empty(), "{:?}", fns[0].held_events);
    }

    #[test]
    fn held_calls_are_recorded() {
        let src = "struct S { a: std::sync::Mutex<u32> }\n\
                   impl S {\n\
                       fn f(&self) {\n\
                           let ga = self.a.lock().unwrap();\n\
                           self.helper();\n\
                           drop(ga);\n\
                       }\n\
                       fn helper(&self) {}\n\
                   }\n";
        let fns = items(src);
        assert!(fns[0]
            .held_events
            .iter()
            .any(|e| e.held == "a" && e.inner == Held::Call(Callee::Method("helper".into()))));
    }

    #[test]
    fn lock_name_override_renames_the_lock() {
        let src = "fn f(deques: &[std::sync::Mutex<u32>]) {\n\
                       // audit:lock(deque) -- element lock, not the list lock\n\
                       let g = deques[0].lock().unwrap();\n\
                       drop(g);\n\
                   }\n";
        let fns = items(src);
        assert_eq!(fns[0].locks, vec![LockSite { name: "deque".into(), line: 3 }]);
    }

    #[test]
    fn condvar_wait_with_foreign_lock_held_is_a_violation() {
        let src = "struct S { m: std::sync::Mutex<u32>, o: std::sync::Mutex<u32>, cv: std::sync::Condvar }\n\
                   impl S {\n\
                       fn good(&self) {\n\
                           let mut g = self.m.lock().unwrap();\n\
                           g = self.cv.wait(g).unwrap();\n\
                           drop(g);\n\
                       }\n\
                       fn bad(&self) {\n\
                           let other = self.o.lock().unwrap();\n\
                           let g = self.m.lock().unwrap();\n\
                           let _g2 = self.cv.wait(g).unwrap();\n\
                           drop(other);\n\
                       }\n\
                   }\n";
        let fns = items(src);
        let good = fns.iter().find(|f| f.qual == "S::good").unwrap();
        assert!(good.wait_violations.is_empty(), "{:?}", good.wait_violations);
        let bad = fns.iter().find(|f| f.qual == "S::bad").unwrap();
        assert!(bad.wait_violations.iter().any(|(l, _)| l == "o"), "{:?}", bad.wait_violations);
    }

    #[test]
    fn atomic_sites_require_an_ordering_ident() {
        let src = "use std::sync::atomic::{AtomicUsize, Ordering};\n\
                   fn f(a: &AtomicUsize, v: &mut Vec<u32>) -> usize {\n\
                       a.store(1, Ordering::Release);\n\
                       v.swap(0, 1);\n\
                       a.compare_exchange(1, 2, Ordering::AcqRel, Ordering::Relaxed).ok();\n\
                       a.load(Ordering::Acquire)\n\
                   }\n";
        let fns = items(src);
        let ops: Vec<(&str, &str)> =
            fns[0].atomics.iter().map(|s| (s.op.as_str(), s.orderings[0].as_str())).collect();
        assert_eq!(
            ops,
            vec![("store", "Release"), ("compare_exchange", "AcqRel"), ("load", "Acquire")],
            "Vec::swap (no Ordering) must not count"
        );
    }

    #[test]
    fn blocking_sites_cover_locks_waits_and_dispatch() {
        let src =
            "fn f(m: &std::sync::Mutex<u32>, rx: &std::sync::mpsc::Receiver<u32>, v: &[u32]) {\n\
                       let g = m.lock().unwrap();\n\
                       drop(g);\n\
                       let _ = rx.recv();\n\
                       std::thread::park();\n\
                       v.par_iter().for_each(|_| {});\n\
                       rayon::join(|| {}, || {});\n\
                   }\n";
        let fns = items(src);
        let whats: Vec<&str> = fns[0].blocking.iter().map(|b| b.what.as_str()).collect();
        assert_eq!(
            whats,
            vec![
                "lock `m`",
                "channel recv()",
                "thread::park()",
                "pool dispatch `par_iter`",
                "pool dispatch `rayon::join`"
            ]
        );
        // A suppression clears the site.
        let src = "fn f(m: &std::sync::Mutex<u32>) {\n\
                       // audit:allow(blocking-in-reader) -- writer-thread only\n\
                       let g = m.lock().unwrap();\n\
                       drop(g);\n\
                   }\n";
        let fns = items(src);
        assert!(fns[0].blocking.is_empty());
    }
}
