//! Concurrency-safety analysis (DESIGN.md §8).
//!
//! Runs the three concurrency rules over the raw sites extracted by
//! [`crate::callgraph`]:
//!
//! * **A9 `lock-order`** — propagates "which locks can this fn transitively
//!   acquire" sets over the call graph to a fixpoint, turns every held-span
//!   event into a lock-acquisition edge (`held → inner` for a direct nested
//!   acquisition; `held → each transitive lock of the callee` for a call
//!   made while holding), and denies cycles in the resulting lock graph —
//!   a cycle means two threads can acquire the same locks in opposite
//!   orders and deadlock. Condvar waits taken while holding a lock other
//!   than the wait's own guard are denied directly (the wait releases only
//!   its guard's mutex). Lock identity is by *name* (receiver ident or
//!   `audit:lock` override), so same-name edges are excluded: distinct
//!   elements of a lock array legitimately share a name, and flagging
//!   `deque → deque` on disjoint elements would be noise. The cost is that
//!   a true same-instance re-acquisition is invisible to A9 — it is,
//!   however, exactly the self-deadlock that the perturbation harness
//!   (`stress-schedules`) exists to shake out dynamically.
//! * **A10 `atomic-ordering`** — groups atomic-op sites by (file,
//!   receiver). Within a group, a `Relaxed` site mixed with
//!   `Acquire`/`Release`/`SeqCst` siblings is denied (the Relaxed side of a
//!   publish/consume handshake synchronizes nothing), and an all-`Relaxed`
//!   group with both a pure store side and a pure load side is denied as a
//!   Relaxed flag-guarding-data handshake. All-Relaxed RMW-only groups
//!   (statistics counters) pass.
//! * **A11 `blocking-in-reader`** — no blocking site (lock acquisition,
//!   condvar wait, channel recv, park, pool dispatch) may be reachable
//!   from a wait-free query root ([`QUERY_ROOTS`]). Runs on the pool-free
//!   hot-path graph: including the pool crate would let common method
//!   names (`map`, `collect`, …) resolve into its combinators and blur
//!   every reader chain.
//!
//! Every rule is suppressed site-wise by `// audit:allow(<rule>) --
//! <invariant>` (enforced at extraction, so an allowed site never enters
//! the analysis).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::{AtomicSite, CallGraph, Held, QUERY_ROOTS};
use crate::Finding;

/// Runs A9 and A10 over `conc` (the concurrency graph: hot-path crates
/// plus the pool) and A11 over `reader` (the pool-free hot-path graph),
/// returning their findings.
pub fn analyze(conc: &CallGraph, reader: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    lock_order(conc, &mut findings);
    atomic_ordering(conc, &mut findings);
    blocking_in_reader(reader, &mut findings);
    findings
}

/// The lock-acquisition graph: (held, acquired) → first witnessing (file,
/// line, fn or `caller → callee` pair).
type EdgeMap = BTreeMap<(String, String), (String, usize, String)>;

fn lock_order(g: &CallGraph, findings: &mut Vec<Finding>) {
    // Transitive lock sets per fn, to a fixpoint (the graph is cyclic —
    // worker loops — so a single bottom-up pass is not enough).
    let n = g.fns.len();
    let mut trans: Vec<BTreeSet<String>> =
        g.fns.iter().map(|f| f.locks.iter().map(|l| l.name.clone()).collect()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            let mut add: Vec<String> = Vec::new();
            for call in &g.fns[i].calls {
                for &j in g.resolve(&call.callee) {
                    for l in &trans[j] {
                        if !trans[i].contains(l) && !add.contains(l) {
                            add.push(l.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                trans[i].extend(add);
            }
        }
    }

    // Lock-acquisition edges from the held-span events.
    let mut edges: EdgeMap = BTreeMap::new();
    for f in &g.fns {
        for e in &f.held_events {
            match &e.inner {
                Held::Lock(to) => {
                    if *to != e.held {
                        edges.entry((e.held.clone(), to.clone())).or_insert((
                            f.file.clone(),
                            e.line,
                            f.qual.clone(),
                        ));
                    }
                }
                Held::Call(callee) => {
                    for &j in g.resolve(callee) {
                        for to in &trans[j] {
                            if *to != e.held {
                                edges.entry((e.held.clone(), to.clone())).or_insert((
                                    f.file.clone(),
                                    e.line,
                                    format!("{} → {}", f.qual, g.fns[j].qual),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    // Deny cycles: for each edge a→b, a path b→…→a closes one. Cycles are
    // deduplicated by node set so `a→b→a` is reported once, not per edge.
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((a, b), (file, line, _)) in &edges {
        let Some(path) = bfs_path(&edges, b, a) else { continue };
        let mut cycle = vec![a.clone()];
        cycle.extend(path);
        let mut key = cycle[..cycle.len() - 1].to_vec();
        key.sort();
        if !seen.insert(key) {
            continue;
        }
        let mut chain = String::new();
        for w in cycle.windows(2) {
            let (f2, l2, v2) = &edges[&(w[0].clone(), w[1].clone())];
            let _ = std::fmt::Write::write_fmt(
                &mut chain,
                format_args!("; `{}` then `{}` at {f2}:{l2} (in {v2})", w[0], w[1]),
            );
        }
        findings.push(Finding {
            rule: "lock-order",
            file: file.clone(),
            line: *line,
            message: format!(
                "potential deadlock: lock-acquisition cycle {}{chain}",
                cycle.join(" → ")
            ),
        });
    }

    // Condvar waits taken while holding another lock.
    for f in &g.fns {
        for (held, line) in &f.wait_violations {
            findings.push(Finding {
                rule: "lock-order",
                file: f.file.clone(),
                line: *line,
                message: format!(
                    "Condvar wait in `{}` while holding lock `{held}` — the wait releases only \
                     its own guard's mutex, so any waker needing `{held}` deadlocks",
                    f.qual
                ),
            });
        }
    }
}

/// Shortest path `from → … → to` over the edge map, if any.
fn bfs_path(edges: &EdgeMap, from: &str, to: &str) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut visited: BTreeSet<&str> = BTreeSet::from([from]);
    let mut queue: VecDeque<&str> = VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        if u == to {
            let mut path = vec![u.to_string()];
            let mut cur = u;
            while let Some(&p) = parent.get(cur) {
                path.push(p.to_string());
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &v in adj.get(u).into_iter().flatten() {
            if visited.insert(v) {
                parent.insert(v, u);
                queue.push_back(v);
            }
        }
    }
    None
}

fn atomic_ordering(g: &CallGraph, findings: &mut Vec<Finding>) {
    // One logical atomic per (file, receiver ident): fields of the same
    // struct and statics share a file, which is the "same impl" scope the
    // handshake heuristic needs.
    let mut groups: BTreeMap<(String, String), Vec<(&AtomicSite, String)>> = BTreeMap::new();
    for f in &g.fns {
        for s in &f.atomics {
            groups.entry((f.file.clone(), s.recv.clone())).or_default().push((s, f.qual.clone()));
        }
    }
    for ((file, recv), sites) in &groups {
        let relaxed: Vec<&(&AtomicSite, String)> =
            sites.iter().filter(|(s, _)| s.orderings[0] == "Relaxed").collect();
        let stronger = sites.len() - relaxed.len();
        if stronger > 0 && !relaxed.is_empty() {
            let others: BTreeSet<&str> = sites
                .iter()
                .filter(|(s, _)| s.orderings[0] != "Relaxed")
                .map(|(s, _)| s.orderings[0].as_str())
                .collect();
            let others = others.into_iter().collect::<Vec<_>>().join("/");
            for (s, qual) in &relaxed {
                findings.push(Finding {
                    rule: "atomic-ordering",
                    file: file.clone(),
                    line: s.line,
                    message: format!(
                        "`{recv}.{}` in `{qual}` uses Ordering::Relaxed while `{recv}`'s other \
                         sites here use {others} — the Relaxed side of a publish/consume \
                         handshake synchronizes nothing; match the orderings or add \
                         `// audit:allow(atomic-ordering) -- <invariant>`",
                        s.op
                    ),
                });
            }
        } else if stronger == 0 {
            // All-Relaxed: deny the flag-guarding-data shape (pure store
            // side + pure load side). RMW-only groups (counters) pass.
            let has_store = sites.iter().any(|(s, _)| s.op == "store" || s.op == "swap");
            let has_load = sites.iter().any(|(s, _)| s.op == "load");
            if has_store && has_load {
                for (s, qual) in sites {
                    findings.push(Finding {
                        rule: "atomic-ordering",
                        file: file.clone(),
                        line: s.line,
                        message: format!(
                            "`{recv}` is written and read entirely with Ordering::Relaxed \
                             (`{}` in `{qual}`) — a Relaxed flag handshake publishes no data; \
                             use Release on the store side and Acquire on the load side, or \
                             add `// audit:allow(atomic-ordering) -- <invariant>`",
                            s.op
                        ),
                    });
                }
            }
        }
    }
}

fn blocking_in_reader(g: &CallGraph, findings: &mut Vec<Finding>) {
    let reach = g.reachable_from(QUERY_ROOTS);
    findings.extend(reach.stale_root_findings("blocking-in-reader", "QUERY_ROOTS"));
    for (i, f) in g.fns.iter().enumerate() {
        if !reach.is_reached(i) {
            continue;
        }
        for b in &f.blocking {
            findings.push(Finding {
                rule: "blocking-in-reader",
                file: f.file.clone(),
                line: b.line,
                message: format!(
                    "{} in `{}` is reachable from a wait-free query root ({}); readers answer \
                     from snapshot state without blocking — move this to the writer path or \
                     add `// audit:allow(blocking-in-reader) -- <invariant>`",
                    b.what,
                    f.qual,
                    reach.chain(g, i)
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::extract_fns;
    use crate::lexer::lex;

    fn graph(src: &str) -> CallGraph {
        let lexed = lex(src);
        let raw: Vec<&str> = src.lines().collect();
        CallGraph::build(extract_fns("crates/core/src/x.rs", &lexed, &raw))
    }

    /// Findings on `src`, minus the stale-root ones (no fixture here defines
    /// every entry of `QUERY_ROOTS`; `seeded_reachability` covers those).
    fn run(src: &str) -> Vec<Finding> {
        let g = graph(src);
        let mut findings = analyze(&g, &g);
        findings.retain(|f| !f.message.contains("names no function"));
        findings
    }

    const TWO_LOCKS: &str = "struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }\n";

    #[test]
    fn opposite_order_acquisition_is_a_cycle() {
        let src = format!(
            "{TWO_LOCKS}impl S {{\n\
                 fn fwd(&self) {{\n\
                     let ga = self.a.lock().unwrap();\n\
                     let gb = self.b.lock().unwrap();\n\
                     drop(gb);\n\
                     drop(ga);\n\
                 }}\n\
                 fn rev(&self) {{\n\
                     let gb = self.b.lock().unwrap();\n\
                     let ga = self.a.lock().unwrap();\n\
                     drop(ga);\n\
                     drop(gb);\n\
                 }}\n\
             }}\n"
        );
        let rep = run(&src);
        let cycles: Vec<&Finding> = rep.iter().filter(|f| f.rule == "lock-order").collect();
        assert_eq!(cycles.len(), 1, "one deduped cycle expected: {:?}", rep);
        assert!(cycles[0].message.contains("a → b → a") || cycles[0].message.contains("b → a → b"));
        assert!(cycles[0].message.contains("S::fwd") && cycles[0].message.contains("S::rev"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = format!(
            "{TWO_LOCKS}impl S {{\n\
                 fn f(&self) {{\n\
                     let ga = self.a.lock().unwrap();\n\
                     let gb = self.b.lock().unwrap();\n\
                     drop(gb);\n\
                     drop(ga);\n\
                 }}\n\
                 fn g(&self) {{\n\
                     let ga = self.a.lock().unwrap();\n\
                     let gb = self.b.lock().unwrap();\n\
                     drop(gb);\n\
                     drop(ga);\n\
                 }}\n\
             }}\n"
        );
        let rep = run(&src);
        assert!(rep.is_empty(), "{:?}", rep);
    }

    #[test]
    fn transitive_acquisition_through_a_call_closes_the_cycle() {
        let src = format!(
            "{TWO_LOCKS}impl S {{\n\
                 fn fwd(&self) {{\n\
                     let ga = self.a.lock().unwrap();\n\
                     self.takes_b();\n\
                     drop(ga);\n\
                 }}\n\
                 fn takes_b(&self) {{\n\
                     let gb = self.b.lock().unwrap();\n\
                     drop(gb);\n\
                 }}\n\
                 fn rev(&self) {{\n\
                     let gb = self.b.lock().unwrap();\n\
                     let ga = self.a.lock().unwrap();\n\
                     drop(ga);\n\
                     drop(gb);\n\
                 }}\n\
             }}\n"
        );
        let rep = run(&src);
        assert!(
            rep.iter().any(|f| f.rule == "lock-order"
                && f.message.contains("potential deadlock")
                && f.message.contains("S::fwd → S::takes_b")),
            "{:?}",
            rep
        );
    }

    #[test]
    fn condvar_wait_violation_is_reported() {
        let src = "struct S { m: std::sync::Mutex<u32>, o: std::sync::Mutex<u32>, cv: std::sync::Condvar }\n\
                   impl S {\n\
                       fn bad(&self) {\n\
                           let other = self.o.lock().unwrap();\n\
                           let g = self.m.lock().unwrap();\n\
                           let _g2 = self.cv.wait(g).unwrap();\n\
                           drop(other);\n\
                       }\n\
                   }\n";
        let rep = run(src);
        assert!(
            rep.iter().any(|f| f.rule == "lock-order" && f.message.contains("Condvar wait")),
            "{:?}",
            rep
        );
    }

    #[test]
    fn relaxed_mixed_with_stronger_orderings_is_denied() {
        let src = "use std::sync::atomic::{AtomicBool, Ordering};\n\
                   struct S { ready: AtomicBool }\n\
                   impl S {\n\
                       fn publish(&self) { self.ready.store(true, Ordering::Relaxed); }\n\
                       fn consume(&self) -> bool { self.ready.load(Ordering::Acquire) }\n\
                   }\n";
        let rep = run(src);
        assert_eq!(rep.len(), 1, "{:?}", rep);
        assert_eq!(rep[0].rule, "atomic-ordering");
        assert_eq!(rep[0].line, 4);
        assert!(rep[0].message.contains("Acquire"));
    }

    #[test]
    fn all_relaxed_flag_handshake_is_denied_but_counters_pass() {
        let flag = "use std::sync::atomic::{AtomicBool, Ordering};\n\
                    struct S { ready: AtomicBool }\n\
                    impl S {\n\
                        fn publish(&self) { self.ready.store(true, Ordering::Relaxed); }\n\
                        fn consume(&self) -> bool { self.ready.load(Ordering::Relaxed) }\n\
                    }\n";
        let rep = run(flag);
        assert_eq!(rep.len(), 2, "both sides flagged: {:?}", rep);
        let counter = "use std::sync::atomic::{AtomicUsize, Ordering};\n\
                       static HITS: AtomicUsize = AtomicUsize::new(0);\n\
                       fn bump() { HITS.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(run(counter).is_empty());
        let seqcst = "use std::sync::atomic::{AtomicBool, Ordering};\n\
                      struct S { ready: AtomicBool }\n\
                      impl S {\n\
                          fn publish(&self) { self.ready.store(true, Ordering::SeqCst); }\n\
                          fn consume(&self) -> bool { self.ready.load(Ordering::SeqCst) }\n\
                      }\n";
        assert!(run(seqcst).is_empty());
    }

    #[test]
    fn blocking_under_a_query_root_is_denied_with_a_chain() {
        let src = "struct AncEngine { m: std::sync::Mutex<u32> }\n\
                   impl AncEngine {\n\
                       pub fn cluster_all_cached(&self) -> u32 { self.helper() }\n\
                       fn helper(&self) -> u32 {\n\
                           *self.m.lock().unwrap()\n\
                       }\n\
                   }\n\
                   fn unreached(m: &std::sync::Mutex<u32>) {\n\
                       let g = m.lock().unwrap();\n\
                       drop(g);\n\
                   }\n";
        let rep = run(src);
        let a11: Vec<&Finding> = rep.iter().filter(|f| f.rule == "blocking-in-reader").collect();
        assert_eq!(a11.len(), 1, "{:?}", rep);
        assert!(a11[0].message.contains("AncEngine::cluster_all_cached → AncEngine::helper"));
        assert_eq!(a11[0].line, 5);
    }
}
