//! A single Voronoi partition with its shortest-path forest, plus the
//! paper's bounded incremental update algorithms (Section V, Algorithms
//! 1–3).
//!
//! A partition is built from a seed set `S` by one multi-source Dijkstra
//! under the reciprocal-similarity weights: each node records its closest
//! seed (`seed_of`), its distance, and its parent in the shortest-path tree
//! rooted at that seed. Those arrays and the seed list are the whole state,
//! 16 B per node. The forest's children are not stored: a child of `x` is a
//! neighbour `y` with `parent[y] == x`, so Update-Increase finds a detached
//! subtree `T` by scanning adjacency, in the `Σ_{x ∈ T} deg x` it spends
//! re-attaching `T` anyway (Lemma 12).
//!
//! **The partition is a function of the weights and the seeds.** The build
//! settles nodes in `(dist, node)` order and relaxes only on a strict `<`,
//! so the parent of a reachable non-seed `v` is the neighbour `u` with the
//! smallest `(dist(u), u)` among those strictly closer than `v` with
//! `dist(u) + w(u, v) == dist(v)` exactly (in `f64`). The repairs keep that
//! rule at every exact tie, so a repaired partition equals a fresh build
//! in every `dist` bit, every `seed_of` and every `parent` — which is why a
//! snapshot stores no index and a restore rebuilds it
//! ([`crate::persist::binary`]).
//!
//! All distances are stored in the similarity store's weight units (`1/S`);
//! a rescale of that store multiplies them by a single constant
//! ([`VoronoiPartition::rescale`]), which never alters the tree structure —
//! the key reason a global scale factor composes with distance indexing
//! (Lemma 10).

use std::collections::BinaryHeap;

use anc_graph::dijkstra::{multi_source_dijkstra_into, HeapEntry, ShortestPaths};
use anc_graph::{EdgeId, Graph, NodeId, NO_NODE};

/// One Voronoi partition (one granularity level of one pyramid).
#[derive(Clone, Debug)]
pub struct VoronoiPartition {
    /// The seed set (distinct nodes).
    seeds: Vec<NodeId>,
    /// Closest seed per node ([`NO_NODE`] if unreachable).
    seed_of: Vec<NodeId>,
    /// Distance to the closest seed (∞ if unreachable), anchored units.
    dist: Vec<f64>,
    /// Parent in the shortest-path tree ([`NO_NODE`] for seeds/unreachable).
    parent: Vec<NodeId>,
    /// Pooled Dijkstra frontier reused by build and both update algorithms.
    /// Empty between calls — not logical state.
    scratch_heap: BinaryHeap<HeapEntry>,
}

impl VoronoiPartition {
    /// Builds the partition by multi-source Dijkstra from `seeds` under
    /// `weights` (indexed by edge id; must be positive and finite).
    pub fn build(g: &Graph, weights: &[f64], seeds: Vec<NodeId>) -> Self {
        let mut part = Self::empty();
        part.seeds = seeds;
        part.rebuild_from_own_seeds(g, weights);
        part
    }

    /// A partition with no seeds and no nodes, for [`Self::rebuild`] to fill
    /// (how [`crate::pyramid::Pyramids::build`] starts).
    pub(crate) fn empty() -> Self {
        Self {
            seeds: Vec::new(),
            seed_of: Vec::new(),
            dist: Vec::new(),
            parent: Vec::new(),
            scratch_heap: BinaryHeap::new(),
        }
    }

    /// Rebuilds this partition in place from a fresh seed set, reusing every
    /// buffer — the path [`crate::pyramid::Pyramids::rebuild`] takes.
    pub fn rebuild(&mut self, g: &Graph, weights: &[f64], seeds: impl IntoIterator<Item = NodeId>) {
        self.seeds.clear();
        self.seeds.extend(seeds);
        self.rebuild_from_own_seeds(g, weights);
    }

    /// Shared core of [`Self::build`] and [`Self::rebuild`]: multi-source
    /// Dijkstra into the partition's own (cleared) buffers.
    fn rebuild_from_own_seeds(&mut self, g: &Graph, weights: &[f64]) {
        debug_assert!(!self.seeds.is_empty(), "a partition needs at least one seed");
        let mut sp = ShortestPaths {
            dist: std::mem::take(&mut self.dist),
            parent: std::mem::take(&mut self.parent),
            seed: std::mem::take(&mut self.seed_of),
        };
        multi_source_dijkstra_into(
            g,
            &self.seeds,
            |e| weights[e as usize],
            &mut sp,
            &mut self.scratch_heap,
        );
        self.dist = sp.dist;
        self.parent = sp.parent;
        self.seed_of = sp.seed;
    }

    /// The seed set.
    pub fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    /// Closest seed of `v` ([`NO_NODE`] if unreachable).
    #[inline]
    pub fn seed_of(&self, v: NodeId) -> NodeId {
        self.seed_of[v as usize]
    }

    /// Distance of `v` to its seed (anchored units; ∞ if unreachable).
    #[inline]
    pub fn dist(&self, v: NodeId) -> f64 {
        self.dist[v as usize]
    }

    /// Parent of `v` in the shortest-path forest.
    #[inline]
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// Whether `u` and `v` are dominated by the same seed (both must be
    /// reachable).
    #[inline]
    pub fn same_seed(&self, u: NodeId, v: NodeId) -> bool {
        let su = self.seed_of[u as usize];
        su != NO_NODE && su == self.seed_of[v as usize]
    }

    /// Checks the partition's shape: `seeds` seeds and one `seed_of`,
    /// `dist` and `parent` entry per node of an `n`-node graph. The whole of
    /// what is checked of a stale level ([`crate::Pyramids::check_invariants`]).
    pub(crate) fn check_shape(&self, n: usize, seeds: usize) -> Result<(), String> {
        let lens = [self.seed_of.len(), self.dist.len(), self.parent.len()];
        if self.seeds.len() != seeds || lens != [n; 3] {
            return Err(format!(
                "{} seeds and {lens:?} seed_of/dist/parent entries, want {seeds} seeds and {n} \
                 entries each",
                self.seeds.len()
            ));
        }
        Ok(())
    }

    /// Heap bytes used by this partition.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.seeds.len() * size_of::<NodeId>()
            + self.seed_of.len() * size_of::<NodeId>()
            + self.dist.len() * size_of::<f64>()
            + self.parent.len() * size_of::<NodeId>()
    }

    /// Absorbs a rescale of the weights: all stored distances scale by
    /// `mult` (NegM, Lemma 10; ∞ stays ∞). Tree
    /// structure is invariant because the scaling is uniform, and with a
    /// power-of-two `mult` every distance stays the exact sum of the
    /// rescaled weights along its tree path.
    pub fn rescale(&mut self, mult: f64) {
        for d in &mut self.dist {
            *d *= mult;
        }
    }

    /// Algorithm 2 (**Probe**): can `a`'s distance improve through neighbor
    /// `b` along edge weight `w_ab`? If so, adopt `b`'s seed, update the
    /// distance and re-parent; return true. An exact tie re-parents too when
    /// `b` is strictly closer than `a` and settles before `a`'s current
    /// parent — the build's tie rule (see the module doc).
    ///
    /// Float-absorption guard: when distances span many orders of magnitude,
    /// a strict parent improvement `dist[b] + w` can round to exactly `a`'s
    /// stored distance, leaving `a` (and its subtree) with a stale seed even
    /// though its parent edge is unchanged. In that case the seed is
    /// re-inherited along the existing parent pointer and `true` is returned
    /// so the correction propagates down the tree.
    fn probe(&mut self, a: NodeId, b: NodeId, w_ab: f64) -> bool {
        let db = self.dist[b as usize];
        if !db.is_finite() {
            return false;
        }
        let cand = db + w_ab;
        let da = self.dist[a as usize];
        if cand < da || (cand == da && self.tie_reparents(a, b)) {
            self.dist[a as usize] = cand;
            self.seed_of[a as usize] = self.seed_of[b as usize];
            self.parent[a as usize] = b;
            true
        } else if self.parent[a as usize] == b
            && self.seed_of[a as usize] != self.seed_of[b as usize]
        {
            self.seed_of[a as usize] = self.seed_of[b as usize];
            true
        } else {
            false
        }
    }

    /// Whether `a`, whose candidate through `b` equals its distance
    /// exactly, is a tie the build would have resolved to `b`: `b` is
    /// strictly closer than `a` and settles before `a`'s current parent.
    /// Only a finite tie counts — an unreachable `a` (`∞ == ∞` through an
    /// edge at weight ∞) has no parent. Callers test the equality first, so
    /// the probe's common path pays one comparison for the rule.
    #[inline]
    fn tie_reparents(&self, a: NodeId, b: NodeId) -> bool {
        let (da, p) = (self.dist[a as usize], self.parent[a as usize]);
        da.is_finite() && self.dist[b as usize] < da && p != b && self.settles_before(b, p)
    }

    /// Whether `b` precedes `x` in Dijkstra's settle order `(dist, node)`.
    #[inline]
    fn settles_before(&self, b: NodeId, x: NodeId) -> bool {
        let (db, dx) = (self.dist[b as usize], self.dist[x as usize]);
        db < dx || (db == dx && b < x)
    }

    /// Whether the initial [`Self::probe`] of `a` through `b` would fire —
    /// the exact precondition, including the tie rule and the
    /// float-absorption guard.
    #[inline]
    fn probe_would_fire(&self, a: NodeId, b: NodeId, w_ab: f64) -> bool {
        let db = self.dist[b as usize];
        if !db.is_finite() {
            return false;
        }
        let (cand, da) = (db + w_ab, self.dist[a as usize]);
        cand < da
            || (cand == da && self.tie_reparents(a, b))
            || (self.parent[a as usize] == b
                && self.seed_of[a as usize] != self.seed_of[b as usize])
    }

    /// Whether [`Self::on_weight_change`] for `e` (whose weight moved from
    /// `old_w` to `weights[e]`) would provably leave this partition
    /// untouched, in `O(1)`:
    ///
    /// * an **increase** on a non-tree edge never matters (no shortest path
    ///   uses the edge — the Update-Increase precondition);
    /// * a **decrease** is inert when neither endpoint's initial probe can
    ///   fire (Dijkstra propagation starts from those probes, so an empty
    ///   start set means an empty affected region).
    ///
    /// Used by the grouped batch repair to short-circuit partitions a delta
    /// cannot affect; a `true` here guarantees `on_weight_change` would
    /// return an empty affected set *and* change no state, so skipping the
    /// call preserves bit-identical replay.
    pub fn noop_weight_change(&self, g: &Graph, weights: &[f64], e: EdgeId, old_w: f64) -> bool {
        let new_w = weights[e as usize];
        if new_w == old_w {
            return true;
        }
        let (u, v) = g.endpoints(e);
        if new_w > old_w {
            self.parent[v as usize] != u && self.parent[u as usize] != v
        } else {
            !self.probe_would_fire(u, v, new_w) && !self.probe_would_fire(v, u, new_w)
        }
    }

    /// Algorithm 1 (**Update-Decrease**): the weight of `e` decreased.
    /// Distances can only shrink; propagate improvements outward from the
    /// endpoints in Dijkstra order. Cost `O(Σ_{x ∈ U'} deg x · log)` where
    /// `U'` is the affected set (Lemma 12).
    fn update_decrease_into(
        &mut self,
        g: &Graph,
        weights: &[f64],
        e: EdgeId,
        out: &mut Vec<NodeId>,
    ) {
        let (u, v) = g.endpoints(e);
        let w = weights[e as usize];
        for (a, b) in [(u, v), (v, u)] {
            if self.probe(a, b, w) {
                self.scratch_heap.push(HeapEntry { dist: self.dist[a as usize], node: a });
                out.push(a);
            }
        }
        self.relax_frontier(g, weights, out);
    }

    /// The Dijkstra loop both updates end in, draining the pooled frontier:
    /// pop the closest node, [`Self::probe`] its neighbours through it, push
    /// whatever improved. Every node a probe writes is appended to `out`,
    /// whichever side of a detached subtree it is on.
    fn relax_frontier(&mut self, g: &Graph, weights: &[f64], out: &mut Vec<NodeId>) {
        while let Some(HeapEntry { dist: d, node: x }) = self.scratch_heap.pop() {
            if d > self.dist[x as usize] {
                continue; // stale
            }
            for (y, e_xy) in g.edges_of(x) {
                if self.probe(y, x, weights[e_xy as usize]) {
                    self.scratch_heap.push(HeapEntry { dist: self.dist[y as usize], node: y });
                    out.push(y);
                }
            }
        }
    }

    /// Algorithm 3 (**Update-Increase**): the weight of `e` increased.
    ///
    /// If `e` is not a tree edge nothing changes. Otherwise the subtree `T`
    /// hanging below `e` is detached and reset, every node of `T` adopts its
    /// best neighbour *outside* `T`, and a Dijkstra from those entries alone
    /// settles the paths that run through `T` — `O(Σ_{x ∈ T} deg x · log)`,
    /// the Lemma 12 bound. Nodes outside `T` are only read, unless rounding
    /// lets a probe move one — which is then reported like any other write.
    /// Unreachable remainders keep `dist = ∞`, `seed = NO_NODE`.
    fn update_increase_into(
        &mut self,
        g: &Graph,
        weights: &[f64],
        e: EdgeId,
        out: &mut Vec<NodeId>,
    ) {
        let (u, v) = g.endpoints(e);
        // Locate the tree edge: the child endpoint `o` roots the detached
        // subtree T.
        let o = if self.parent[v as usize] == u {
            v
        } else if self.parent[u as usize] == v {
            u
        } else {
            return; // non-tree edge: no shortest path used it
        };

        // Collect T breadth-first, with `out[start..]` as the queue. The
        // graph is simple, so each child shows up once in its parent's
        // adjacency.
        let start = out.len();
        out.push(o);
        let mut next = start;
        while let Some(&x) = out.get(next) {
            next += 1;
            out.extend(g.neighbors(x).iter().filter(|&&y| self.parent[y as usize] == x));
        }
        for &x in &out[start..] {
            self.dist[x as usize] = f64::INFINITY;
            self.seed_of[x as usize] = NO_NODE;
            self.parent[x as usize] = NO_NODE;
        }

        // With all of T at ∞, a finite distance means "outside T". Every
        // candidate is computed before any distance is written back, so it
        // keeps meaning that; the candidates wait in the (pooled) frontier.
        // A tie goes to the neighbour that settles first, as in the build.
        for &x in &out[start..] {
            let mut best = f64::INFINITY;
            for (y, e_xy) in g.edges_of(x) {
                let cand = self.dist[y as usize] + weights[e_xy as usize];
                if cand < best
                    || (cand == best
                        && best.is_finite()
                        && self.settles_before(y, self.parent[x as usize]))
                {
                    best = cand;
                    self.parent[x as usize] = y;
                }
            }
            if best.is_finite() {
                self.scratch_heap.push(HeapEntry { dist: best, node: x });
            }
        }
        for &HeapEntry { dist, node: x } in self.scratch_heap.iter() {
            self.dist[x as usize] = dist;
            self.seed_of[x as usize] = self.seed_of[self.parent[x as usize] as usize];
        }
        self.relax_frontier(g, weights, out);
    }

    /// Repairs the partition after the weight of `e` moved from `old_w` to
    /// `weights[e]` (Update-Decrease or Update-Increase, by direction) and
    /// returns the affected nodes, sorted: every node whose distance, seed
    /// or parent was written — the input of incremental vote maintenance
    /// (the paper's Remarks in Section V-C).
    pub fn on_weight_change(
        &mut self,
        g: &Graph,
        weights: &[f64],
        e: EdgeId,
        old_w: f64,
    ) -> Vec<NodeId> {
        let mut affected = Vec::new();
        self.on_weight_change_into(g, weights, e, old_w, &mut affected);
        affected.sort_unstable();
        affected.dedup();
        affected
    }

    /// [`Self::on_weight_change`] appending the affected nodes into a
    /// caller-owned buffer (unsorted, may contain duplicates) instead of
    /// allocating a fresh list — the traced batch repair reuses one buffer
    /// per partition across a whole batch.
    pub fn on_weight_change_into(
        &mut self,
        g: &Graph,
        weights: &[f64],
        e: EdgeId,
        old_w: f64,
        out: &mut Vec<NodeId>,
    ) {
        let new_w = weights[e as usize];
        if new_w < old_w {
            self.update_decrease_into(g, weights, e, out);
        } else if new_w > old_w {
            self.update_increase_into(g, weights, e, out);
        }
    }

    /// Exhaustively checks the partition's invariants against the graph and
    /// weights (used by tests and the property suite):
    ///
    /// 1. every seed has `dist 0`, itself as seed, no parent;
    /// 2. every reachable non-seed has a parent edge with
    ///    `dist(x) = dist(parent) + w(edge)` and inherits the parent's seed;
    /// 3. no edge admits a relaxation (certifying true shortest distances);
    /// 4. unreachable nodes have no seed and no parent;
    /// 5. parent chains are acyclic — every chain reaches a parentless node
    ///    (a seed or an unreachable node) in at most `n` steps;
    /// 6. every parent is canonical: no neighbour `u` strictly closer than
    ///    `v` with `dist(u) + w(u, v) == dist(v)` exactly settles before
    ///    `v`'s parent in `(dist, node)` order (the module doc's tie rule).
    ///
    /// Returns a description of the first violation, if any.
    pub fn check_invariants(&self, g: &Graph, weights: &[f64]) -> Result<(), String> {
        self.check_shape(g.n(), self.seeds.len())?;
        let tol = 1e-6;
        // 5 first (cheap, O(n) with memoization): a cyclic forest would make
        // the per-node checks below misleading.
        let n = g.n();
        let mut terminates = vec![false; n];
        let mut path = Vec::new();
        for v in 0..n {
            let mut x = v;
            while !terminates[x] && self.parent[x] != NO_NODE {
                path.push(x);
                x = self.parent[x] as usize;
                if path.len() > n {
                    return Err(format!("parent chain from {v} does not terminate (cycle)"));
                }
            }
            for y in path.drain(..) {
                terminates[y] = true;
            }
            terminates[x] = true;
        }
        for &s in &self.seeds {
            if self.dist[s as usize] != 0.0 {
                return Err(format!("seed {s} has nonzero dist"));
            }
            if self.seed_of[s as usize] != s {
                return Err(format!("seed {s} not its own seed"));
            }
            if self.parent[s as usize] != NO_NODE {
                return Err(format!("seed {s} has a parent"));
            }
        }
        let seed_set: std::collections::HashSet<NodeId> = self.seeds.iter().copied().collect();
        let is_seed = |v: NodeId| seed_set.contains(&v);
        for v in 0..g.n() as NodeId {
            let d = self.dist[v as usize];
            let p = self.parent[v as usize];
            if d.is_finite() {
                if !is_seed(v) {
                    if p == NO_NODE {
                        return Err(format!("reachable non-seed {v} has no parent"));
                    }
                    let e =
                        g.edge_id(p, v).ok_or_else(|| format!("parent edge ({p},{v}) missing"))?;
                    let expect = self.dist[p as usize] + weights[e as usize];
                    if (d - expect).abs() > tol * (1.0 + expect.abs()) {
                        return Err(format!("dist({v}) = {d} but parent path gives {expect}"));
                    }
                    if self.seed_of[v as usize] != self.seed_of[p as usize] {
                        return Err(format!("{v} does not inherit parent seed"));
                    }
                }
            } else {
                if self.seed_of[v as usize] != NO_NODE || p != NO_NODE {
                    return Err(format!("unreachable {v} has seed/parent"));
                }
            }
        }
        for (e, u, v) in g.iter_edges() {
            let w = weights[e as usize];
            let (du, dv) = (self.dist[u as usize], self.dist[v as usize]);
            if du.is_finite() && du + w < dv - tol * (1.0 + dv.abs()) {
                return Err(format!("edge ({u},{v}) relaxes {v}: {du} + {w} < {dv}"));
            }
            if dv.is_finite() && dv + w < du - tol * (1.0 + du.abs()) {
                return Err(format!("edge ({u},{v}) relaxes {u}"));
            }
            let tie = if du + w == dv && self.tie_reparents(v, u) {
                Some((v, u))
            } else if dv + w == du && self.tie_reparents(u, v) {
                Some((u, v))
            } else {
                None
            };
            if let Some((a, b)) = tie {
                let p = self.parent[a as usize];
                return Err(format!("{a} has parent {p}, but tie {b} settles first"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_graph::gen::paper_figure2;
    use anc_graph::Graph;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Paper Figure 2(e): the 13-node graph, Voronoi partition at level 2 of
    /// pyramid (b), seeds {v4, v7} (0-indexed: {3, 6}).
    fn figure2_partition() -> (Graph, Vec<f64>, VoronoiPartition) {
        let (g, w) = paper_figure2();
        let p = VoronoiPartition::build(&g, &w, vec![3, 6]);
        (g, w, p)
    }

    #[test]
    fn build_satisfies_invariants() {
        let (g, w, p) = figure2_partition();
        p.check_invariants(&g, &w).unwrap();
        // Both seeds present, everything reachable in this connected graph.
        for v in 0..g.n() as NodeId {
            assert!(p.dist(v).is_finite());
            assert_ne!(p.seed_of(v), NO_NODE);
        }
        assert_eq!(p.seed_of(3), 3);
        assert_eq!(p.seed_of(6), 6);
        assert_eq!(p.dist(3), 0.0);
    }

    /// Replays the five update examples of paper Figure 3 (Example 6) and
    /// checks each incremental update against a from-scratch rebuild.
    #[test]
    fn paper_example_6_updates_match_rebuild() {
        let (g, mut w, mut p) = figure2_partition();
        // (a) w(v5, v6) decreased by 1; (b) w(v1, v3) + 1; (c) w(v7, v8) + 1;
        // (d) w(v7, v8) + 5; (e) w(v7, v8) decreased back below its start.
        // (1-indexed nodes; the final delta is −7.5 rather than the figure's
        // −8 because our reconstruction of Figure 2(a)'s weights starts
        // (v7, v8) at 2, and weights must stay positive.)
        let steps: &[(u32, u32, f64)] =
            &[(5, 6, -1.0), (1, 3, 1.0), (7, 8, 1.0), (7, 8, 5.0), (7, 8, -7.5)];
        for &(a, b, delta) in steps {
            let e = g.edge_id(a - 1, b - 1).unwrap();
            let old = w[e as usize];
            w[e as usize] = old + delta;
            assert!(w[e as usize] > 0.0, "weights must stay positive");
            p.on_weight_change(&g, &w, e, old);
            p.check_invariants(&g, &w)
                .unwrap_or_else(|err| panic!("after ({a},{b},{delta:+}): {err}"));
            // Every array must equal a fresh rebuild's, bit for bit.
            let fresh = VoronoiPartition::build(&g, &w, vec![3, 6]);
            for v in 0..g.n() as NodeId {
                assert_eq!(
                    (p.dist(v).to_bits(), p.seed_of(v), p.parent(v)),
                    (fresh.dist(v).to_bits(), fresh.seed_of(v), fresh.parent(v)),
                    "after ({a},{b},{delta:+}): node {v}"
                );
            }
        }
    }

    /// Figure 3(d): increasing w(v7, v8) by 5 moves v7 into seed v4's cell;
    /// (e): decreasing by 8 moves it back to v8's side (seed v8 is not a
    /// seed here — the paper's narration uses different seeds — so we assert
    /// the distance-level effect: v7's seed flips with the weight).
    #[test]
    fn seed_flip_on_weight_change() {
        let (g, mut w, mut p) = figure2_partition();
        let e = g.edge_id(6, 4).unwrap(); // (v7, v5) — v7's path to seed v7 is itself
        assert_eq!(p.seed_of(6), 6);
        // v5 (index 4) currently: via v7 weight 2 vs via v4 weight 4 → seed v7.
        assert_eq!(p.seed_of(4), 6);
        // Make (v5, v7) expensive: v5 should flip to seed v4.
        let old = w[e as usize];
        w[e as usize] = 100.0;
        p.on_weight_change(&g, &w, e, old);
        p.check_invariants(&g, &w).unwrap();
        assert_eq!(p.seed_of(4), 3, "v5 must flip to seed v4");
        // And back.
        let old = w[e as usize];
        w[e as usize] = 0.5;
        p.on_weight_change(&g, &w, e, old);
        p.check_invariants(&g, &w).unwrap();
        assert_eq!(p.seed_of(4), 6, "v5 must flip back to seed v7");
    }

    #[test]
    fn non_tree_edge_increase_is_noop() {
        let (g, mut w, mut p) = figure2_partition();
        // Find a non-tree edge: one where neither endpoint is the other's parent.
        let mut non_tree = None;
        for (e, u, v) in g.iter_edges() {
            if p.parent(u) != v && p.parent(v) != u {
                non_tree = Some((e, u, v));
                break;
            }
        }
        let (e, _, _) = non_tree.expect("figure graph has non-tree edges");
        let before: Vec<f64> = (0..g.n() as NodeId).map(|v| p.dist(v)).collect();
        let old = w[e as usize];
        w[e as usize] = old + 3.0;
        assert!(p.on_weight_change(&g, &w, e, old).is_empty());
        let after: Vec<f64> = (0..g.n() as NodeId).map(|v| p.dist(v)).collect();
        assert_eq!(before, after, "non-tree increase must not move distances");
        p.check_invariants(&g, &w).unwrap();
    }

    #[test]
    fn disconnection_handled() {
        // Path 0-1-2 with seed {0}: raising w(1,2) has no disconnect (still
        // reachable); but a graph where the subtree loses all boundary —
        // star: seed 0, leaf 2 only connected via 1.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut w = vec![1.0, 1.0];
        let mut p = VoronoiPartition::build(&g, &w, vec![0]);
        assert_eq!(p.seed_of(2), 0);
        // Increase w(0,1): subtree {1, 2} detaches; only boundary is node 0;
        // both re-attach through the (now heavier) edge.
        let e = g.edge_id(0, 1).unwrap();
        let old = w[e as usize];
        w[e as usize] = 5.0;
        p.on_weight_change(&g, &w, e, old);
        p.check_invariants(&g, &w).unwrap();
        assert_eq!(p.dist(1), 5.0);
        assert_eq!(p.dist(2), 6.0);
        assert_eq!(p.seed_of(2), 0);
    }

    /// Invariant 6: on the four-cycle 0–1–3–2–0 with unit weights and seed
    /// 0, node 3 ties between 1 and 2, and the build picks 1. A parent that
    /// is a tie but settles later is refused.
    #[test]
    fn non_canonical_tie_parent_fails_the_check() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let w = vec![1.0; 4];
        let mut p = VoronoiPartition::build(&g, &w, vec![0]);
        assert_eq!((p.dist(3), p.parent(3)), (2.0, 1));
        p.check_invariants(&g, &w).unwrap();
        p.parent[3] = 2;
        let err = p.check_invariants(&g, &w).expect_err("a later tie is not canonical");
        assert!(err.contains("3 has parent 2, but tie 1 settles first"), "{err}");
    }

    /// Both repairs resolve an exact tie as the build does, to the
    /// neighbour that settles first, and the no-op precheck sees a decrease
    /// that only makes a tie. Seed 0; edges 0–1 (2), 0–2 (1), 1–3 (1),
    /// 2–3 (2) and 0–3 (1), so 3 hangs off 0 with ties through 1 and 2 at
    /// distance 3 behind it.
    #[test]
    fn repairs_resolve_ties_as_the_build_does() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]);
        let mut w = vec![0.0; 5];
        for (u, v, wt) in [(0, 1, 2.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 2.0), (0, 3, 1.0)] {
            w[g.edge_id(u, v).unwrap() as usize] = wt;
        }
        let mut p = VoronoiPartition::build(&g, &w, vec![0]);
        let mut step = |(u, v, wt): (NodeId, NodeId, f64), parent_of_3: NodeId| {
            let e = g.edge_id(u, v).unwrap();
            let old = std::mem::replace(&mut w[e as usize], wt);
            assert!(!p.noop_weight_change(&g, &w, e, old), "({u},{v}) → {wt} is not inert");
            p.on_weight_change(&g, &w, e, old);
            assert_eq!(p.parent(3), parent_of_3, "after ({u},{v}) → {wt}");
            let fresh = VoronoiPartition::build(&g, &w, vec![0]);
            assert_eq!(
                (&p.dist, &p.seed_of, &p.parent),
                (&fresh.dist, &fresh.seed_of, &fresh.parent)
            );
        };
        // Detached, 3 re-attaches at 3 through 1 (dist 2) or 2 (dist 1):
        // 2 settles first, though 1 comes first in 3's adjacency.
        step((0, 3, 10.0), 2);
        // Lowered to 3, 0–3 only ties with 2's path, but 0 settles first.
        step((0, 3, 3.0), 0);
    }

    /// An edge at weight ∞ (a similarity decayed to exactly 0) never
    /// relaxes: its far end stays unreachable through repairs, and the
    /// `∞ == ∞` candidate is not taken for a tie.
    #[test]
    fn infinite_weight_edge_is_no_tie() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut w = vec![1.0, f64::INFINITY];
        let mut p = VoronoiPartition::build(&g, &w, vec![0]);
        w[0] = 0.5;
        assert_eq!(p.on_weight_change(&g, &w, 0, 1.0), vec![1]);
        assert_eq!((p.dist(2), p.seed_of(2), p.parent(2)), (f64::INFINITY, NO_NODE, NO_NODE));
        p.check_invariants(&g, &w).unwrap();
    }

    #[test]
    fn unreachable_nodes_stay_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let w = vec![1.0, 1.0];
        let p = VoronoiPartition::build(&g, &w, vec![0]);
        assert!(p.dist(2).is_infinite());
        assert_eq!(p.seed_of(2), NO_NODE);
        p.check_invariants(&g, &w).unwrap();
        assert!(!p.same_seed(0, 2));
        assert!(p.same_seed(0, 1));
    }

    #[test]
    fn rescale_preserves_structure() {
        let (g, w, mut p) = figure2_partition();
        let seeds_before: Vec<NodeId> = (0..g.n() as NodeId).map(|v| p.seed_of(v)).collect();
        let parents_before: Vec<NodeId> = (0..g.n() as NodeId).map(|v| p.parent(v)).collect();
        let d5 = p.dist(5);
        p.rescale(4.0);
        let seeds_after: Vec<NodeId> = (0..g.n() as NodeId).map(|v| p.seed_of(v)).collect();
        let parents_after: Vec<NodeId> = (0..g.n() as NodeId).map(|v| p.parent(v)).collect();
        assert_eq!(seeds_before, seeds_after);
        assert_eq!(parents_before, parents_after);
        assert_eq!(p.dist(5), 4.0 * d5);
        // Bit for bit a build over the uniformly rescaled weights.
        let w2: Vec<f64> = w.iter().map(|x| x * 4.0).collect();
        p.check_invariants(&g, &w2).unwrap();
        let fresh = VoronoiPartition::build(&g, &w2, p.seeds().to_vec());
        for v in 0..g.n() as NodeId {
            assert_eq!(p.dist(v).to_bits(), fresh.dist(v).to_bits(), "node {v}");
        }
    }

    #[test]
    fn decrease_then_increase_roundtrip() {
        let (g, mut w, mut p) = figure2_partition();
        let snapshot: Vec<f64> = (0..g.n() as NodeId).map(|v| p.dist(v)).collect();
        let e = g.edge_id(5, 8).unwrap(); // (v6, v9)
        let old = w[e as usize];
        w[e as usize] = 0.5;
        p.on_weight_change(&g, &w, e, old);
        p.check_invariants(&g, &w).unwrap();
        let old2 = w[e as usize];
        w[e as usize] = old;
        p.on_weight_change(&g, &w, e, old2);
        p.check_invariants(&g, &w).unwrap();
        for v in 0..g.n() as NodeId {
            assert!((p.dist(v) - snapshot[v as usize]).abs() < 1e-9, "roundtrip changed dist({v})");
        }
    }

    /// The `O(1)` no-op precheck must never claim "no-op" for a change that
    /// actually moves the partition (soundness); spot-check that it also
    /// fires on the obvious inert cases (usefulness).
    #[test]
    fn noop_precheck_is_sound() {
        let (g, w0, _) = figure2_partition();
        for (e, _, _) in g.iter_edges() {
            for factor in [0.3, 0.9, 1.1, 4.0] {
                let (mut w, mut p) = (w0.clone(), figure2_partition().2);
                let old = w[e as usize];
                w[e as usize] = old * factor;
                let claimed_noop = p.noop_weight_change(&g, &w, e, old);
                let before: Vec<(f64, NodeId, NodeId)> =
                    (0..g.n() as NodeId).map(|v| (p.dist(v), p.seed_of(v), p.parent(v))).collect();
                let affected = p.on_weight_change(&g, &w, e, old);
                let after: Vec<(f64, NodeId, NodeId)> =
                    (0..g.n() as NodeId).map(|v| (p.dist(v), p.seed_of(v), p.parent(v))).collect();
                if claimed_noop {
                    assert!(
                        affected.is_empty(),
                        "edge {e} ×{factor}: claimed no-op but affected {affected:?}"
                    );
                    assert_eq!(before, after, "edge {e} ×{factor}: claimed no-op but state moved");
                }
            }
        }
    }

    #[test]
    fn noop_precheck_fires_on_inert_changes() {
        let (g, mut w, p) = figure2_partition();
        // Increase on a non-tree edge is a no-op.
        let (e, _, _) = g
            .iter_edges()
            .find(|&(_, u, v)| p.parent(u) != v && p.parent(v) != u)
            .expect("figure graph has non-tree edges");
        let old = w[e as usize];
        w[e as usize] = old + 2.0;
        assert!(p.noop_weight_change(&g, &w, e, old));
        // A tree-edge increase is not claimed inert.
        w[e as usize] = old;
        let (te, _, _) =
            g.iter_edges().find(|&(_, u, v)| p.parent(u) == v || p.parent(v) == u).unwrap();
        let old_t = w[te as usize];
        w[te as usize] = old_t + 2.0;
        assert!(!p.noop_weight_change(&g, &w, te, old_t));
    }

    /// 16 B per node plus the seed list, nothing else.
    #[test]
    fn memory_accounting() {
        let (_, _, p) = figure2_partition();
        assert_eq!(p.memory_bytes(), 13 * (4 + 8 + 4) + 2 * 4);
    }

    /// Update-Increase on tree edges against a fresh build under the same
    /// weights: a distance is the left-to-right sum along the node's
    /// shortest path, so with tie-free weights the repaired partition must
    /// match the rebuilt one to the bit, seeds included.
    #[test]
    fn tree_edge_increase_matches_fresh_build_bitwise() {
        let g = anc_graph::gen::erdos_renyi(60, 150, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut w: Vec<f64> = (0..g.m()).map(|_| rng.gen_range(0.5..2.0)).collect();
        let seeds = vec![2, 17, 41];
        let mut p = VoronoiPartition::build(&g, &w, seeds.clone());
        let mut detached = 0;
        for round in 0..40 {
            let (e, _, _) = g
                .iter_edges()
                .filter(|&(_, u, v)| p.parent(u) == v || p.parent(v) == u)
                .nth(round * 7 % 50)
                .expect("a spanning forest of 60 nodes has ≥ 50 tree edges");
            let old = w[e as usize];
            w[e as usize] = old * rng.gen_range(1.1..3.0);
            detached += p.on_weight_change(&g, &w, e, old).len();
            p.check_invariants(&g, &w).unwrap();
            let fresh = VoronoiPartition::build(&g, &w, seeds.clone());
            for v in 0..g.n() as NodeId {
                assert_eq!(p.dist(v).to_bits(), fresh.dist(v).to_bits(), "round {round} node {v}");
                assert_eq!(p.seed_of(v), fresh.seed_of(v), "round {round} node {v}");
            }
        }
        assert!(detached > 40, "most rounds must detach more than a leaf");
    }
}
