//! Interprocedural taint/dataflow analysis over the workspace call graph
//! (rules A12–A14).
//!
//! The line rules (A1/A3) ban individual nondeterminism *tokens*; this
//! module tracks *flow*: per-function def-use chains over let-bindings,
//! assignments, call arguments and return values, with taint propagated
//! across the call graph to a fixpoint — the same worklist shape as the
//! lock-set analysis in [`crate::concurrency`].
//!
//! ## Model (flow-insensitive, statement-granular)
//!
//! Each function body is split into statements at `;`, `{` and `}` tokens.
//! A statement flushed at `}` (or at the end of the body) is treated as a
//! block-tail expression and may feed the function's return value. Within
//! a statement:
//!
//! * `let` targets and assignment left-hand sides become *definitions*;
//!   every lowercase identifier in the statement is an *input* to them
//!   (struct-literal field shorthand in return position is captured the
//!   same way).
//! * every call in the statement is recorded with the statement's idents
//!   as its argument set (nested calls share the statement, which is
//!   exactly the over-approximation wanted for `sink(f(tainted))`).
//!
//! Deliberate over-approximations (soundness notes in DESIGN.md §13):
//! match-arm tails count as return-position, all parameters of a callee
//! are tainted when any argument is, and field sensitivity is not modeled
//! (`self`-mediated flows are out of scope — `self` is excluded from both
//! definitions and arguments so a single tainted field does not taint
//! every method of the type). Capitalized identifiers (types, variants,
//! constants) never carry taint; nondeterministic *constructors* are
//! matched by name instead.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{call_follows, callee_at, CallGraph, Callee, FnItem, KEYWORDS};
use crate::lexer::{matching, suppressed_rules, LexedFile, Token, TokenKind};
use crate::Finding;

/// One call inside a statement, with the statement's identifiers as its
/// (over-approximated) argument set.
#[derive(Clone, Debug)]
pub struct FlowCall {
    /// Who is called.
    pub callee: Callee,
    /// Lowercase identifiers of the enclosing statement.
    pub args: BTreeSet<String>,
    /// 1-based line of the call.
    pub line: usize,
    /// `audit:allow(nondet-taint)` on or above the call line (suppresses
    /// sink findings at this site).
    pub allowed: bool,
}

/// One nondeterminism source site (A12 raw material).
#[derive(Clone, Debug)]
pub struct FlowSource {
    /// What was matched, e.g. ``"wall clock `Instant::now()`"``.
    pub what: String,
    /// 1-based line of the source.
    pub line: usize,
    /// Locals the source's statement binds or assigns.
    pub bound: BTreeSet<String>,
    /// Whether the statement is in (potential) return position.
    pub to_ret: bool,
    /// Indices into [`FnFlow::calls`] of calls in the same statement.
    pub calls: Vec<usize>,
}

/// Per-function dataflow facts extracted alongside the call graph.
#[derive(Clone, Debug, Default)]
pub struct FnFlow {
    /// Parameter identifiers (excluding `self`).
    pub params: BTreeSet<String>,
    /// Def-use chains: defined local → identifiers its definition reads.
    pub deps: BTreeMap<String, BTreeSet<String>>,
    /// Defined local → indices into `calls` whose results feed it.
    pub bind_calls: BTreeMap<String, Vec<usize>>,
    /// All calls in body order.
    pub calls: Vec<FlowCall>,
    /// Identifiers feeding (potential) return position.
    pub ret_idents: BTreeSet<String>,
    /// Call indices feeding (potential) return position.
    pub ret_calls: Vec<usize>,
    /// Nondeterminism sources (A12).
    pub sources: Vec<FlowSource>,
    /// Unsuppressed narrowing `as`-casts: `(line, description)` (A13).
    pub narrow_casts: Vec<(usize, String)>,
    /// Unsuppressed swallowed fallible results: `(line, description)` (A14).
    pub swallows: Vec<(usize, String)>,
    /// `audit:allow(nondet-taint)` on the fn's declaration line (suppresses
    /// tainted-return findings for query sinks).
    pub allow_ret: bool,
}

/// Cast targets A13 flags on serialization paths. The lexer does not know
/// source types, so any cast *to* a sub-64-bit numeric type counts as
/// potentially narrowing; provably-widening or masked casts carry an
/// `audit:allow(lossy-persist)` with the width argument.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Hash-collection iteration methods whose order is randomly seeded.
const HASH_ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain"];

/// Simple names of persistence/accumulation sinks for A12: the snapshot and
/// WAL writer surface in `persist::{binary,wal}` plus the codec primitives
/// everything serialized funnels through (CRC input order included).
const A12_SINK_FNS: &[&str] = &[
    "save_binary",
    "write_snapshot_atomic",
    "append_payload",
    "frame_payload",
    "encode",
    "encode_header",
    "encode_config",
    "encode_clock",
    "encode_pyramids",
    "encode_graph",
    "put_float_array",
    "crc32",
    "put_u8",
    "put_u16",
    "put_u32",
    "put_u64",
    "put_uvarint",
    "put_ivarint",
    "put_f32",
    "put_f64",
];

/// Quals whose *return value* is an A12 sink: the paper-facing query
/// results, which the serial≡batch and thread-invariance suites pin
/// byte-identical.
const A12_RET_SINKS: &[&str] = &[
    "AncEngine::cluster_all",
    "AncEngine::cluster_all_cached",
    "AncEngine::same_cluster",
    "Pyramids::same_cluster",
];

/// Roots of the serialization paths A13 audits (write side only; decode
/// paths reconstruct and are covered by round-trip tests instead).
const A13_ROOTS: &[&str] = &[
    "AncEngine::save_binary",
    "WalRecord::encode",
    "DurableEngine::create",
    "DurableEngine::compact",
    "DurableEngine::append_payload",
    "write_snapshot_atomic",
];

/// Roots of the fallible IO/recovery paths A14 audits: the whole
/// `DurableEngine` write/recovery surface and the WAL reader.
const A14_ROOTS: &[&str] = &[
    "DurableEngine::create",
    "DurableEngine::open",
    "DurableEngine::activate",
    "DurableEngine::activate_batch",
    "DurableEngine::reinforce_edges",
    "DurableEngine::force_rescale",
    "DurableEngine::compact",
    "WalRecord::apply",
    "WalReader::new",
    "WalReader::next",
    "write_snapshot_atomic",
    "reset_wal",
];

/// Whether `name` can carry dataflow: lowercase/underscore-initial idents
/// only (locals and fields); types, variants and constants are excluded so
/// shared names like `Some`/`Ok` cannot bridge unrelated statements.
fn flow_ident(t: &Token) -> Option<&str> {
    if t.kind != TokenKind::Ident {
        return None;
    }
    let first = t.text.chars().next()?;
    if !(first.is_lowercase() || first == '_') {
        return None;
    }
    if t.text == "_" || t.text == "self" || KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    Some(&t.text)
}

/// Classifies a call site as a nondeterminism source (A12), returning a
/// description. `p` is the token index of the callee name.
fn classify_call_source(
    callee: &Callee,
    toks: &[Token],
    p: usize,
    hash_idents: &BTreeSet<String>,
) -> Option<String> {
    let (seg, name) = match callee {
        Callee::Free(n) => (None, n.as_str()),
        Callee::Method(n) => (None, n.as_str()),
        Callee::Path(s, n) => (Some(s.as_str()), n.as_str()),
    };
    match name {
        "thread_rng" => return Some("unseeded RNG `thread_rng()`".into()),
        "from_entropy" => return Some("OS-entropy RNG `from_entropy()`".into()),
        "available_parallelism" => {
            return Some("env-dependent thread count `available_parallelism()`".into());
        }
        "now" if matches!(seg, Some("Instant" | "SystemTime" | "std")) => {
            return Some(format!("wall clock `{}::now()`", seg.unwrap_or("std")));
        }
        "current" if matches!(seg, Some("thread" | "std")) => {
            return Some("thread identity `thread::current()`".into());
        }
        "var" | "var_os" if matches!(seg, Some("env" | "std")) => {
            return Some(format!("environment read `env::{name}()`"));
        }
        _ => {}
    }
    if seg == Some("RandomState") {
        return Some("randomly seeded hasher `RandomState`".into());
    }
    if matches!(callee, Callee::Method(_)) && HASH_ITER_METHODS.contains(&name) && p >= 2 {
        let recv = &toks[p - 2];
        if recv.kind == TokenKind::Ident && hash_idents.contains(&recv.text) {
            return Some(format!("hash-order iteration `{}.{}()`", recv.text, name));
        }
    }
    None
}

/// The per-fn dataflow walk: parses the parameter list at the `fn` token
/// (`fn_tok`), splits the body `(open, close)` of fn `k` into statements,
/// and records def-use chains, calls, sources, narrowing casts and
/// swallowed results into `item.flow`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_flow(
    toks: &[Token],
    fn_tok: usize,
    open: usize,
    close: usize,
    k: usize,
    owner: &[Option<usize>],
    lexed: &LexedFile,
    raw_lines: &[&str],
    self_ty: Option<&str>,
    hash_idents: &BTreeSet<String>,
    item: &mut FnItem,
) {
    let allowed = |rule: &str, line: usize| -> bool {
        let idx = line.saturating_sub(1);
        let on = |i: usize| {
            raw_lines.get(i).is_some_and(|l| suppressed_rules(l).iter().any(|r| r == rule))
        };
        on(idx) || (idx > 0 && on(idx - 1))
    };
    let excluded = |line: usize| {
        lexed.is_test_line(line.saturating_sub(1)) || lexed.is_gated_line(line.saturating_sub(1))
    };

    let mut flow = FnFlow { allow_ret: allowed("nondet-taint", item.line), ..FnFlow::default() };

    // Parameters: idents at paren depth 1 followed by a single `:` (plus
    // nothing for `self`, which is excluded from flow). Pattern parameters
    // (`(a, b): (u32, u32)`) sit at depth 2 and are not tracked.
    let mut i = fn_tok + 2;
    let mut angle = 0i32;
    while i < open {
        let t = &toks[i];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle = (angle - 1).max(0);
        } else if t.is_punct("(") && angle == 0 {
            break;
        }
        i += 1;
    }
    if i < open {
        if let Some(close_p) = matching(toks, i, "(", ")") {
            let mut depth = 0i32;
            for j in i..=close_p {
                let t = &toks[j];
                if t.is_punct("(") {
                    depth += 1;
                } else if t.is_punct(")") {
                    depth -= 1;
                } else if depth == 1 && toks.get(j + 1).is_some_and(|n| n.is_punct(":")) {
                    if let Some(name) = flow_ident(t) {
                        flow.params.insert(name.to_string());
                    }
                }
            }
        }
    }

    // Statement walk.
    let mut stmt: Vec<usize> = Vec::new();
    let mut pos = open + 1;
    while pos < close {
        if owner[pos] != Some(k) {
            pos += 1;
            continue;
        }
        let t = &toks[pos];
        if excluded(t.line) {
            pos += 1;
            continue;
        }
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            let tail = t.is_punct("}");
            flush_stmt(&mut flow, toks, &stmt, tail, self_ty, hash_idents, &allowed);
            stmt.clear();
        } else {
            stmt.push(pos);
        }
        pos += 1;
    }
    flush_stmt(&mut flow, toks, &stmt, true, self_ty, hash_idents, &allowed);

    item.flow = flow;
}

/// Whether the punct token at raw index `p` is a plain or compound
/// assignment operator (not `==`, `<=`, `>=`, `!=`, `=>`, or a closure
/// `|…|` boundary).
fn is_assign_eq(toks: &[Token], p: usize) -> bool {
    if !toks[p].is_punct("=") {
        return false;
    }
    if toks.get(p + 1).is_some_and(|n| n.is_punct("=") || n.is_punct(">")) {
        return false;
    }
    if p > 0 {
        let prev = &toks[p - 1];
        for op in ["=", "<", ">", "!"] {
            if prev.is_punct(op) {
                return false;
            }
        }
    }
    true
}

/// Processes one statement's tokens (`stmt` holds raw token indices).
fn flush_stmt(
    flow: &mut FnFlow,
    toks: &[Token],
    stmt: &[usize],
    tail: bool,
    self_ty: Option<&str>,
    hash_idents: &BTreeSet<String>,
    allowed: &dyn Fn(&str, usize) -> bool,
) {
    if stmt.is_empty() {
        return;
    }
    let first = &toks[stmt[0]];
    let line = first.line;
    // Item-like statements carry no value flow (`as` in `use x as y`
    // must not look like a cast).
    for kw in ["use", "mod", "struct", "enum", "trait", "type", "impl", "where"] {
        if first.is_ident(kw) {
            return;
        }
    }
    let is_let = first.is_ident("let");

    // Locate the assignment operator at bracket depth 0 within the
    // statement, if any.
    let mut depth = 0i32;
    let mut eq_at: Option<usize> = None; // position in `stmt`
    for (si, &p) in stmt.iter().enumerate() {
        let t = &toks[p];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && is_assign_eq(toks, p) {
            eq_at = Some(si);
            break;
        }
    }

    // Definition targets: idents left of `=` (for `let`, stopping at a
    // depth-0 `:` type annotation).
    let mut targets: BTreeSet<String> = BTreeSet::new();
    if let Some(eq) = eq_at {
        let from = usize::from(is_let);
        let mut depth = 0i32;
        for &p in &stmt[from..eq] {
            let t = &toks[p];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if is_let && depth == 0 && t.is_punct(":") {
                break; // type annotation — not a binding
            } else if let Some(name) = flow_ident(t) {
                if name != "mut" {
                    targets.insert(name.to_string());
                }
            }
        }
    }

    // Inputs: every flow-relevant ident in the statement (targets
    // included — a self-edge is harmless, and compound assigns / indexed
    // writes genuinely read their left-hand side).
    let mut idents: BTreeSet<String> = BTreeSet::new();
    let mut has_return = false;
    for &p in stmt {
        let t = &toks[p];
        if t.is_ident("return") {
            has_return = true;
        }
        if let Some(name) = flow_ident(t) {
            idents.insert(name.to_string());
        }
    }
    let to_ret = has_return || (tail && targets.is_empty());

    // Calls (with statement-level argument sets) and call-based sources.
    let mut stmt_calls: Vec<usize> = Vec::new();
    let mut has_call = false;
    let mut sources: Vec<(String, usize)> = Vec::new();
    for &p in stmt {
        let t = &toks[p];
        if t.kind != TokenKind::Ident || !call_follows(toks, p + 1) {
            continue;
        }
        let Some(callee) = callee_at(toks, p, self_ty) else { continue };
        has_call = true;
        if let Some(what) = classify_call_source(&callee, toks, p, hash_idents) {
            if !allowed("nondet-taint", t.line) {
                sources.push((what, t.line));
            }
        }
        stmt_calls.push(flow.calls.len());
        flow.calls.push(FlowCall {
            callee,
            args: idents.clone(),
            line: t.line,
            allowed: allowed("nondet-taint", t.line),
        });
    }
    // Token-based sources: OS-RNG / hasher types in any position.
    for &p in stmt {
        let t = &toks[p];
        let what = if t.is_ident("OsRng") {
            Some("OS RNG `OsRng`")
        } else if t.is_ident("RandomState") && !call_follows(toks, p + 2) {
            // (`RandomState::new()` is already a call-based source.)
            Some("randomly seeded hasher `RandomState`")
        } else {
            None
        };
        if let Some(what) = what {
            if !allowed("nondet-taint", t.line) {
                sources.push((what.into(), t.line));
            }
        }
    }
    for (what, src_line) in sources {
        flow.sources.push(FlowSource {
            what,
            line: src_line,
            bound: targets.clone(),
            to_ret,
            calls: stmt_calls.clone(),
        });
    }

    // Def-use wiring.
    for tgt in &targets {
        flow.deps.entry(tgt.clone()).or_default().extend(idents.iter().cloned());
        if !stmt_calls.is_empty() {
            flow.bind_calls.entry(tgt.clone()).or_default().extend(stmt_calls.iter().copied());
        }
    }
    if to_ret {
        flow.ret_idents.extend(idents.iter().cloned());
        flow.ret_calls.extend(stmt_calls.iter().copied());
    }

    // A13: narrowing `as`-casts.
    for (si, &p) in stmt.iter().enumerate() {
        let t = &toks[p];
        if !t.is_ident("as") || si + 1 >= stmt.len() {
            continue;
        }
        let ty = &toks[stmt[si + 1]];
        if ty.kind == TokenKind::Ident
            && NARROW_TARGETS.contains(&ty.text.as_str())
            && !allowed("lossy-persist", t.line)
        {
            flow.narrow_casts.push((t.line, format!("`as {}` cast", ty.text)));
        }
    }

    // A14: swallowed fallible results.
    if is_let
        && stmt.len() >= 2
        && toks[stmt[1]].is_ident("_")
        && has_call
        && !allowed("swallowed-error", line)
    {
        flow.swallows.push((line, "`let _ = …` discards a fallible result".into()));
    }
    if !tail && !to_ret && targets.is_empty() && stmt.len() >= 4 {
        let tail4 = &stmt[stmt.len() - 4..];
        if toks[tail4[0]].is_punct(".")
            && toks[tail4[1]].is_ident("ok")
            && toks[tail4[2]].is_punct("(")
            && toks[tail4[3]].is_punct(")")
            && !allowed("swallowed-error", line)
        {
            flow.swallows
                .push((toks[tail4[1]].line, "statement-terminal `.ok()` drops the error".into()));
        }
    }
}

// --- interprocedural taint (A12) -------------------------------------------

/// A taint value: what nondeterminism source it came from and the function
/// chain it traveled.
#[derive(Clone, Debug)]
struct Taint {
    what: String,
    file: String,
    line: usize,
    chain: Vec<String>,
}

impl Taint {
    fn extend(&self, qual: &str) -> Taint {
        let mut t = self.clone();
        if t.chain.last().map(String::as_str) != Some(qual) {
            if t.chain.len() >= 8 {
                if t.chain.last().map(String::as_str) != Some("…") {
                    t.chain.push("…".into());
                }
            } else {
                t.chain.push(qual.to_string());
            }
        }
        t
    }

    fn chain_str(&self) -> String {
        self.chain.join(" → ")
    }
}

fn source_taint(f: &FnItem, s: &FlowSource) -> Taint {
    Taint { what: s.what.clone(), file: f.file.clone(), line: s.line, chain: vec![f.qual.clone()] }
}

/// Local taint closure for fn `i`: tainted locals given the current global
/// return/parameter taint state.
fn local_taints(
    graph: &CallGraph,
    i: usize,
    ret_taint: &[Option<Taint>],
    param_taint: &[Option<Taint>],
) -> BTreeMap<String, Taint> {
    let f = &graph.fns[i];
    let mut t: BTreeMap<String, Taint> = BTreeMap::new();
    if let Some(pt) = &param_taint[i] {
        for p in &f.flow.params {
            t.entry(p.clone()).or_insert_with(|| pt.clone());
        }
    }
    for s in &f.flow.sources {
        for b in &s.bound {
            t.entry(b.clone()).or_insert_with(|| source_taint(f, s));
        }
    }
    for (target, calls) in &f.flow.bind_calls {
        if t.contains_key(target) {
            continue;
        }
        'calls: for &ci in calls {
            for &j in graph.resolve(&f.flow.calls[ci].callee) {
                if let Some(rt) = &ret_taint[j] {
                    t.insert(target.clone(), rt.extend(&f.qual));
                    break 'calls;
                }
            }
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for (target, inputs) in &f.flow.deps {
            if t.contains_key(target) {
                continue;
            }
            if let Some(src) = inputs.iter().find_map(|inp| t.get(inp)).cloned() {
                t.insert(target.clone(), src);
                changed = true;
            }
        }
    }
    t
}

/// The taint a call's arguments carry, if any: a tainted local in the
/// argument set, or a source in the same statement.
fn call_arg_taint(
    f: &FnItem,
    ci: usize,
    call: &FlowCall,
    locals: &BTreeMap<String, Taint>,
) -> Option<Taint> {
    if let Some(t) = call.args.iter().find_map(|a| locals.get(a)) {
        return Some(t.clone());
    }
    f.flow.sources.iter().find(|s| s.calls.contains(&ci)).map(|s| source_taint(f, s))
}

/// Runs A12 nondet-taint to a fixpoint and reports sink reaches.
fn nondet_taint(graph: &CallGraph) -> Vec<Finding> {
    let n = graph.fns.len();
    let mut ret_taint: Vec<Option<Taint>> = vec![None; n];
    let mut param_taint: Vec<Option<Taint>> = vec![None; n];
    // Monotone fixpoint: each slot moves None → Some at most once, first
    // writer wins, functions visited in deterministic index order.
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            let locals = local_taints(graph, i, &ret_taint, &param_taint);
            let f = &graph.fns[i];
            if ret_taint[i].is_none() {
                let mut new_ret =
                    f.flow.sources.iter().find(|s| s.to_ret).map(|s| source_taint(f, s)).or_else(
                        || f.flow.ret_idents.iter().find_map(|id| locals.get(id)).cloned(),
                    );
                if new_ret.is_none() {
                    'ret: for &ci in &f.flow.ret_calls {
                        for &j in graph.resolve(&f.flow.calls[ci].callee) {
                            if let Some(rt) = &ret_taint[j] {
                                new_ret = Some(rt.extend(&f.qual));
                                break 'ret;
                            }
                        }
                    }
                }
                if new_ret.is_some() {
                    ret_taint[i] = new_ret;
                    changed = true;
                }
            }
            for (ci, call) in f.flow.calls.iter().enumerate() {
                let Some(tv) = call_arg_taint(f, ci, call, &locals) else { continue };
                for &j in graph.resolve(&call.callee) {
                    if param_taint[j].is_none() {
                        param_taint[j] = Some(tv.extend(&graph.fns[j].qual));
                        changed = true;
                    }
                }
            }
        }
    }

    let mut findings = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        let locals = local_taints(graph, i, &ret_taint, &param_taint);
        for (ci, call) in f.flow.calls.iter().enumerate() {
            let sink = match &call.callee {
                Callee::Method(n) | Callee::Free(n) | Callee::Path(_, n) => n.as_str(),
            };
            if !A12_SINK_FNS.contains(&sink) || call.allowed {
                continue;
            }
            if let Some(t) = call_arg_taint(f, ci, call, &locals) {
                let t = t.extend(&f.qual);
                findings.push(Finding {
                    rule: "nondet-taint",
                    file: f.file.clone(),
                    line: call.line,
                    message: format!(
                        "nondeterministic value — {} ({}:{}) — reaches persistence sink \
                         `{}` via {}; derive it from logical state or add \
                         `// audit:allow(nondet-taint) -- <reason>`",
                        t.what,
                        t.file,
                        t.line,
                        sink,
                        t.chain_str()
                    ),
                });
            }
        }
        if A12_RET_SINKS.contains(&f.qual.as_str()) && !f.flow.allow_ret {
            if let Some(rt) = &ret_taint[i] {
                findings.push(Finding {
                    rule: "nondet-taint",
                    file: f.file.clone(),
                    line: f.line,
                    message: format!(
                        "query result of `{}` is tainted by {} ({}:{}; flow {}); query \
                         results must be a pure function of the logical update stream",
                        f.qual,
                        rt.what,
                        rt.file,
                        rt.line,
                        rt.chain_str()
                    ),
                });
            }
        }
    }
    findings
}

// --- reachability rules (A13, A14) -----------------------------------------

fn lossy_persist(graph: &CallGraph) -> Vec<Finding> {
    let reach = graph.reachable_from(A13_ROOTS);
    let mut findings = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if !reach.is_reached(i) {
            continue;
        }
        for (line, what) in &f.flow.narrow_casts {
            findings.push(Finding {
                rule: "lossy-persist",
                file: f.file.clone(),
                line: *line,
                message: format!(
                    "{what} in `{}` can silently narrow a value on the serialization path \
                     ({}); use a checked conversion (try_from / u8::from) or justify the \
                     width with `// audit:allow(lossy-persist) -- <reason>`",
                    f.qual,
                    reach.chain(graph, i)
                ),
            });
        }
    }
    findings
}

fn swallowed_error(graph: &CallGraph) -> Vec<Finding> {
    let reach = graph.reachable_from(A14_ROOTS);
    let mut findings = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if !reach.is_reached(i) {
            continue;
        }
        for (line, what) in &f.flow.swallows {
            findings.push(Finding {
                rule: "swallowed-error",
                file: f.file.clone(),
                line: *line,
                message: format!(
                    "{what} in `{}` on a fallible IO/recovery path ({}); handle or \
                     propagate the error, or add \
                     `// audit:allow(swallowed-error) -- <reason>`",
                    f.qual,
                    reach.chain(graph, i)
                ),
            });
        }
    }
    findings
}

/// Runs the dataflow rules (A12 nondet-taint, A13 lossy-persist, A14
/// swallowed-error) over the hot-path call graph.
pub fn analyze(graph: &CallGraph) -> Vec<Finding> {
    let mut findings = nondet_taint(graph);
    findings.extend(lossy_persist(graph));
    findings.extend(swallowed_error(graph));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::extract_fns;
    use crate::lexer::lex;

    fn graph_of(src: &str) -> CallGraph {
        let lexed = lex(src);
        let raw: Vec<&str> = src.lines().collect();
        CallGraph::build(extract_fns("core", "crates/core/src/x.rs", &lexed, &raw))
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn local_source_to_sink_is_found() {
        let g = graph_of(
            "struct AncEngine;\n\
             impl AncEngine {\n\
                 pub fn save_binary(&self, n: usize) {}\n\
                 pub fn ingest(&mut self) {\n\
                     let n = std::thread::available_parallelism();\n\
                     self.save_binary(n);\n\
                 }\n\
             }\n",
        );
        let f = analyze(&g);
        assert_eq!(rules(&f), vec!["nondet-taint"], "{f:?}");
        assert!(f[0].message.contains("available_parallelism"), "{}", f[0].message);
        assert!(f[0].message.contains("save_binary"), "{}", f[0].message);
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn taint_crosses_function_returns_with_chain() {
        let g = graph_of(
            "struct AncEngine;\n\
             impl AncEngine {\n\
                 fn probe(&self) -> usize {\n\
                     let n = std::thread::available_parallelism();\n\
                     n\n\
                 }\n\
                 pub fn ingest(&mut self) {\n\
                     let threads = self.probe();\n\
                     crc32(threads);\n\
                 }\n\
             }\n\
             fn crc32(x: usize) {}\n",
        );
        let f = analyze(&g);
        assert_eq!(rules(&f), vec!["nondet-taint"], "{f:?}");
        assert!(f[0].message.contains("AncEngine::probe → AncEngine::ingest"), "{}", f[0].message);
    }

    #[test]
    fn taint_crosses_call_arguments() {
        let g = graph_of(
            "fn write_snapshot_atomic(buf: usize) {}\n\
             fn stage(x: usize) {\n\
                 let y = x;\n\
                 write_snapshot_atomic(y);\n\
             }\n\
             struct AncEngine;\n\
             impl AncEngine {\n\
                 pub fn run(&self) {\n\
                     let t = thread_rng();\n\
                     stage(t);\n\
                 }\n\
             }\n",
        );
        let f = analyze(&g);
        assert_eq!(rules(&f), vec!["nondet-taint"], "{f:?}");
        assert!(f[0].message.contains("thread_rng"), "{}", f[0].message);
        assert!(f[0].message.contains("stage"), "{}", f[0].message);
    }

    #[test]
    fn tainted_query_return_is_found_and_allow_suppresses() {
        let src_of = |allow: &str| {
            format!(
                "struct AncEngine;\n\
                 impl AncEngine {{\n\
                     {allow}pub fn same_cluster(&self) -> bool {{\n\
                         let h = std::time::Instant::now();\n\
                         h\n\
                     }}\n\
                 }}\n"
            )
        };
        let f = analyze(&graph_of(&src_of("")));
        assert_eq!(rules(&f), vec!["nondet-taint"], "{f:?}");
        assert!(f[0].message.contains("same_cluster"), "{}", f[0].message);
        let f = analyze(&graph_of(&src_of("// audit:allow(nondet-taint) -- test decoy\n")));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn hash_iteration_is_a_source() {
        let g = graph_of(
            "use std::collections::HashMap;\n\
             struct AncEngine;\n\
             impl AncEngine {\n\
                 pub fn dump(&self, m: &HashMap<u32, u32>) {\n\
                     let order = m.keys();\n\
                     crc32(order);\n\
                 }\n\
             }\n\
             fn crc32(x: usize) {}\n",
        );
        let f = analyze(&g);
        assert_eq!(rules(&f), vec!["nondet-taint"], "{f:?}");
        assert!(f[0].message.contains("hash-order iteration `m.keys()`"), "{}", f[0].message);
    }

    #[test]
    fn untainted_sink_calls_are_clean() {
        let g = graph_of(
            "struct AncEngine;\n\
             impl AncEngine {\n\
                 pub fn save_binary(&self, n: usize) {}\n\
                 pub fn ingest(&mut self, edges: usize) {\n\
                     let n = edges + 1;\n\
                     self.save_binary(n);\n\
                 }\n\
             }\n",
        );
        assert!(analyze(&g).is_empty());
    }

    #[test]
    fn narrow_cast_on_serialization_path_is_found() {
        let g = graph_of(
            "struct AncEngine;\n\
             impl AncEngine {\n\
                 pub fn save_binary(&self, out: &mut Vec<u8>) {\n\
                     self.encode_len(out, 70000);\n\
                 }\n\
                 fn encode_len(&self, out: &mut Vec<u8>, n: usize) {\n\
                     out.push(n as u8);\n\
                 }\n\
             }\n",
        );
        let f = analyze(&g);
        assert_eq!(rules(&f), vec!["lossy-persist"], "{f:?}");
        assert!(f[0].message.contains("`as u8` cast"), "{}", f[0].message);
        assert!(f[0].message.contains("AncEngine::save_binary → AncEngine::encode_len"));
        assert_eq!(f[0].line, 7);
    }

    #[test]
    fn narrow_cast_off_serialization_path_is_clean() {
        let g = graph_of(
            "struct Other;\n\
             impl Other {\n\
                 fn stats(&self, n: usize) -> u8 {\n\
                     n as u8\n\
                 }\n\
             }\n",
        );
        assert!(analyze(&g).is_empty());
    }

    #[test]
    fn allowed_narrow_cast_is_clean() {
        let g = graph_of(
            "struct AncEngine;\n\
             impl AncEngine {\n\
                 pub fn save_binary(&self, out: &mut Vec<u8>, n: usize) {\n\
                     // audit:allow(lossy-persist) -- masked to 7 bits\n\
                     out.push((n & 0x7F) as u8);\n\
                 }\n\
             }\n",
        );
        assert!(analyze(&g).is_empty());
    }

    #[test]
    fn swallowed_results_on_recovery_paths_are_found() {
        let g = graph_of(
            "struct DurableEngine;\n\
             impl DurableEngine {\n\
                 pub fn open(&mut self) {\n\
                     self.replay();\n\
                 }\n\
                 fn replay(&mut self) {\n\
                     let _ = self.step();\n\
                     self.step().ok();\n\
                 }\n\
                 fn step(&mut self) -> Result<u32, u32> {\n\
                     Err(7)\n\
                 }\n\
             }\n",
        );
        let f = analyze(&g);
        assert_eq!(rules(&f), vec!["swallowed-error", "swallowed-error"], "{f:?}");
        assert!(f[0].message.contains("let _ ="), "{}", f[0].message);
        assert!(f[1].message.contains(".ok()"), "{}", f[1].message);
        assert!(f[0].message.contains("DurableEngine::open → DurableEngine::replay"));
    }

    #[test]
    fn swallow_off_recovery_path_and_used_ok_are_clean() {
        let g = graph_of(
            "struct Other;\n\
             impl Other {\n\
                 pub fn run(&mut self) {\n\
                     let _ = self.step();\n\
                     let v = self.step().ok();\n\
                     drop(v);\n\
                 }\n\
                 fn step(&mut self) -> Result<u32, u32> {\n\
                     Err(7)\n\
                 }\n\
             }\n",
        );
        assert!(analyze(&g).is_empty());
    }

    #[test]
    fn allowed_swallow_is_clean() {
        let g = graph_of(
            "struct DurableEngine;\n\
             impl DurableEngine {\n\
                 pub fn open(&mut self) {\n\
                     // audit:allow(swallowed-error) -- stats are observability-only\n\
                     let _ = self.step();\n\
                 }\n\
                 fn step(&mut self) -> Result<u32, u32> {\n\
                     Err(7)\n\
                 }\n\
             }\n",
        );
        assert!(analyze(&g).is_empty());
    }

    #[test]
    fn params_and_deps_are_extracted() {
        let lexed = lex("fn f<T: Ord>(a: usize, mut b: u32, (c, d): (u32, u32)) -> usize {\n\
                 let x = a + b;\n\
                 x\n\
             }\n");
        let raw: Vec<&str> = "fn f…".lines().collect();
        let fns = extract_fns("core", "x.rs", &lexed, &raw);
        assert_eq!(fns.len(), 1);
        let flow = &fns[0].flow;
        assert!(flow.params.contains("a") && flow.params.contains("b"), "{:?}", flow.params);
        assert!(!flow.params.contains("T"));
        assert!(flow.deps["x"].contains("a"), "{:?}", flow.deps);
        assert!(flow.ret_idents.contains("x"), "{:?}", flow.ret_idents);
    }
}
