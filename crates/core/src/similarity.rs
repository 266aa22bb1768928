//! Active similarity σ, active neighbor sets and node classification
//! (paper Section IV-B).
//!
//! The **active similarity** of an edge `(u, v)` combines structural
//! correlation (common neighbors, à la Jaccard) with edge activeness:
//!
//! ```text
//!            Σ_{x ∈ N(u) ∩ N(v)} ( a_t(u,x) + a_t(v,x) )
//! σ(u, v) =  ───────────────────────────────────────────
//!            Σ_{x ∈ N(u)} a_t(u,x) + Σ_{x ∈ N(v)} a_t(v,x)
//! ```
//!
//! σ is a ratio of PosM quantities, hence **NeuM** (Lemma 3): it can be
//! computed directly from *anchored* activeness — the global decay factor
//! cancels — which is what every function here does.
//!
//! **Cost.** [`SimilarityCtx::sigma_all`] computes a row from its
//! definition, `O(Σ_{w ∈ N(u)} deg w)`. The engine keeps each edge's
//! numerator instead (`SigmaNumerators`), so a row is `O(deg u)` and a bump
//! of `(u, v)` recomputes only the `2·|N(u) ∩ N(v)|` numerators that read
//! `a*(u, v)`. One private loop computes every numerator, and σ is one float
//! per edge (the same terms, in the same order, from either endpoint), so
//! both ways give the same bits (DESIGN.md §4).

use anc_graph::{EdgeId, Graph, NodeId};

/// Node classification by active-neighbor count (Section IV-B).
///
/// The three types disjointly partition `V`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeType {
    /// `|N_ε(v)| ≥ µ`: leads a community, attracts neighbors.
    Core,
    /// Not a core but `deg(v) ≥ µ`: could become one.
    PCore,
    /// `deg(v) < µ`: can never be a core; follows rather than leads.
    Periphery,
}

/// Read-only view over the activeness state needed by σ: the graph, the
/// anchored per-edge activeness, and the cached per-node activeness sums
/// `A(v) = Σ_{x ∈ N(v)} a*(v, x)` (maintained incrementally by the engine).
#[derive(Clone, Copy)]
pub struct SimilarityCtx<'a> {
    /// The relation network.
    pub g: &'a Graph,
    /// Anchored activeness per edge id.
    pub act: &'a [f64],
    /// Anchored activeness sum per node.
    pub node_sum: &'a [f64],
}

/// Reusable scratch buffers for neighborhood computations; allocate once per
/// worker and reuse across calls (all methods reset their own state).
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    mark: Vec<u32>,
    val: Vec<f64>,
    stamp: u32,
    /// σ(u, w) per adjacency slot of the last `sigma_all` call.
    pub sigmas: Vec<f64>,
    /// Second σ row buffer: `apply_reinforcement` needs both trigger rows
    /// live at once, so it swaps this in for the second `sigma_all` call
    /// instead of allocating a fresh row per activation.
    pub sigmas_b: Vec<f64>,
    /// `(z, e_uz, e_vz)` per common neighbour `z` of the last edge
    /// [`SigmaNumerators::refresh`] saw.
    common: Vec<(NodeId, EdgeId, EdgeId)>,
}

impl Scratch {
    /// Creates scratch space for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        Self { mark: vec![0; n], val: vec![0.0; n], ..Self::default() }
    }

    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }

    /// Marks all neighbors of `u`, remembering `value(e)` per neighbor.
    /// Returns the stamp to test membership with [`Scratch::marked`].
    pub fn mark_neighbors<F: Fn(EdgeId) -> f64>(&mut self, g: &Graph, u: NodeId, value: F) -> u32 {
        let stamp = self.next_stamp();
        for (w, e) in g.edges_of(u) {
            self.mark[w as usize] = stamp;
            self.val[w as usize] = value(e);
        }
        stamp
    }

    /// Whether `x` was marked under `stamp`.
    #[inline]
    pub fn marked(&self, x: NodeId, stamp: u32) -> bool {
        self.mark[x as usize] == stamp
    }

    /// The value remembered for `x` (valid only if [`Scratch::marked`]).
    #[inline]
    pub fn value(&self, x: NodeId) -> f64 {
        self.val[x as usize]
    }
}

impl<'a> SimilarityCtx<'a> {
    /// σ(u, v) for a single edge, `O(deg u + deg v)` via sorted merge.
    pub fn sigma(&self, u: NodeId, v: NodeId) -> f64 {
        let den = self.node_sum[u as usize] + self.node_sum[v as usize];
        if den <= 0.0 {
            return 0.0;
        }
        let mut num = 0.0;
        self.g.for_common_neighbors(u, v, |_, e_ux, e_vx| {
            num += self.act[e_ux as usize] + self.act[e_vx as usize];
        });
        num / den
    }

    /// Computes σ(u, w) for **every** neighbor `w` of `u` in one pass,
    /// leaving the results in `scratch.sigmas` aligned with
    /// `g.edges_of(u)` order. Cost `O(Σ_{w ∈ N(u)} deg w)`.
    pub fn sigma_all(&self, u: NodeId, scratch: &mut Scratch) {
        let act = self.act;
        let stamp = scratch.mark_neighbors(self.g, u, |e| act[e as usize]);
        let su = self.node_sum[u as usize];
        scratch.sigmas.clear();
        for (w, _e_uw) in self.g.edges_of(u) {
            let den = su + self.node_sum[w as usize];
            let s = if den <= 0.0 { 0.0 } else { self.numerator(w, scratch, stamp) / den };
            scratch.sigmas.push(s);
        }
    }

    /// The σ numerator of `(u, w)` with `N(u)` marked under `stamp`:
    /// `Σ_{x ∈ N(u) ∩ N(w)} (a(w,x) + a(u,x))`, in increasing `x` (sorted
    /// CSR). Each term is one commutative addition and the order is the same
    /// whichever endpoint is marked, so it is one float per edge. `O(deg w)`.
    fn numerator(&self, w: NodeId, scratch: &Scratch, stamp: u32) -> f64 {
        let mut num = 0.0;
        for (x, e_wx) in self.g.edges_of(w) {
            if scratch.marked(x, stamp) {
                // x is a common neighbor of u and w:
                // a(w, x) (this edge) + a(u, x) (remembered at marking).
                num += self.act[e_wx as usize] + scratch.value(x);
            }
        }
        num
    }

    /// Size of the active neighbor set `N_ε(u)`.
    pub fn active_neighbor_count(&self, u: NodeId, epsilon: f64, scratch: &mut Scratch) -> usize {
        self.sigma_all(u, scratch);
        scratch.sigmas.iter().filter(|&&s| s >= epsilon).count()
    }

    /// Classifies `u` as core / p-core / periphery under `(ε, µ)`.
    pub fn node_type(&self, u: NodeId, epsilon: f64, mu: usize, scratch: &mut Scratch) -> NodeType {
        if self.g.degree(u) < mu {
            return NodeType::Periphery;
        }
        if self.active_neighbor_count(u, epsilon, scratch) >= mu {
            NodeType::Core
        } else {
            NodeType::PCore
        }
    }

    /// Classification when `scratch.sigmas` already holds `sigma_all(u)`
    /// output (avoids recomputation inside local reinforcement).
    pub fn node_type_from_sigmas(
        &self,
        u: NodeId,
        epsilon: f64,
        mu: usize,
        sigmas: &[f64],
    ) -> NodeType {
        if self.g.degree(u) < mu {
            return NodeType::Periphery;
        }
        if sigmas.iter().filter(|&&s| s >= epsilon).count() >= mu {
            NodeType::Core
        } else {
            NodeType::PCore
        }
    }
}

/// Every edge's σ numerator, indexed by edge id: the engine's derived copy
/// of `Σ_{x ∈ N(u) ∩ N(w)} (a*(u,x) + a*(w,x))` for each edge `(u, w)`,
/// bit for bit what [`SimilarityCtx::sigma_all`] sums. A σ row is then
/// `O(deg)`: numerator over the denominator `A(u) + A(w)`, read fresh.
#[derive(Debug)]
pub(crate) struct SigmaNumerators(Vec<f64>);

impl SigmaNumerators {
    /// Every numerator of `ctx`, each edge scanned once from its lower
    /// endpoint: `O(Σ_{(u,w)} deg w)`.
    pub(crate) fn build(ctx: &SimilarityCtx<'_>, scratch: &mut Scratch) -> Self {
        let mut num = Self(vec![0.0; ctx.g.m()]);
        num.rebuild(ctx, scratch);
        num
    }

    /// Recomputes every numerator in place (after a clock rescale moved
    /// every anchored value).
    pub(crate) fn rebuild(&mut self, ctx: &SimilarityCtx<'_>, scratch: &mut Scratch) {
        let (g, act) = (ctx.g, ctx.act);
        for u in 0..g.n() as NodeId {
            let stamp = scratch.mark_neighbors(g, u, |e| act[e as usize]);
            for (w, e) in g.edges_of(u).filter(|&(w, _)| w > u) {
                self.0[e as usize] = ctx.numerator(w, scratch, stamp);
            }
        }
    }

    /// Recomputes the numerators a bump of edge `(u, v)` moved. `a*(u,v)`
    /// is a term of `num(u,z)` and `num(v,z)` for each common neighbour `z`
    /// and of no other numerator (`num(u,v)` sums over `x ≠ u, v`), so
    /// those `2·|N(u) ∩ N(v)|` are recomputed from their definition:
    /// `O(deg u + deg v + Σ_{z ∈ N(u)∩N(v)} deg z)`.
    pub(crate) fn refresh(
        &mut self,
        ctx: &SimilarityCtx<'_>,
        u: NodeId,
        v: NodeId,
        scratch: &mut Scratch,
    ) {
        let (g, act) = (ctx.g, ctx.act);
        let mut common = std::mem::take(&mut scratch.common);
        common.clear();
        g.for_common_neighbors(u, v, |z, e_uz, e_vz| common.push((z, e_uz, e_vz)));
        if !common.is_empty() {
            let stamp = scratch.mark_neighbors(g, u, |e| act[e as usize]);
            for &(z, e_uz, _) in &common {
                self.0[e_uz as usize] = ctx.numerator(z, scratch, stamp);
            }
            let stamp = scratch.mark_neighbors(g, v, |e| act[e as usize]);
            for &(z, _, e_vz) in &common {
                self.0[e_vz as usize] = ctx.numerator(z, scratch, stamp);
            }
        }
        scratch.common = common;
    }

    /// σ(u, w) for every neighbour `w` of `u` into `row`, aligned with
    /// `g.edges_of(u)` — [`SimilarityCtx::sigma_all`]'s row, bit for bit,
    /// in `O(deg u)`.
    pub(crate) fn row(&self, ctx: &SimilarityCtx<'_>, u: NodeId, row: &mut Vec<f64>) {
        let su = ctx.node_sum[u as usize];
        row.clear();
        row.extend(ctx.g.edges_of(u).map(|(w, e)| {
            let den = su + ctx.node_sum[w as usize];
            if den <= 0.0 {
                0.0
            } else {
                self.0[e as usize] / den
            }
        }));
    }

    /// The numerators, by edge id.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Mutable numerators, for the negative invariant test.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_graph::Graph;

    /// Two triangles sharing an edge: 0-1-2 and 1-2-3, all activeness 1.
    fn fixture() -> (Graph, Vec<f64>, Vec<f64>) {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let act = vec![1.0; g.m()];
        let node_sum: Vec<f64> = (0..g.n()).map(|v| g.degree(v as u32) as f64).collect();
        (g, act, node_sum)
    }

    #[test]
    fn sigma_uniform_activeness_is_structural() {
        let (g, act, node_sum) = fixture();
        let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
        // σ(1,2): common neighbors {0, 3}; num = (1+1) + (1+1) = 4;
        // den = deg(1) + deg(2) = 3 + 3 = 6.
        assert!((ctx.sigma(1, 2) - 4.0 / 6.0).abs() < 1e-12);
        // σ(0,1): common {2}; num = 2; den = 2 + 3 = 5.
        assert!((ctx.sigma(0, 1) - 2.0 / 5.0).abs() < 1e-12);
        // symmetric
        assert_eq!(ctx.sigma(1, 2), ctx.sigma(2, 1));
    }

    #[test]
    fn sigma_no_common_neighbors_is_zero() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let act = vec![1.0; g.m()];
        let node_sum: Vec<f64> = (0..g.n()).map(|v| g.degree(v as u32) as f64).collect();
        let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
        assert_eq!(ctx.sigma(0, 1), 0.0);
    }

    #[test]
    fn active_common_neighbors_boost_sigma() {
        let (g, mut act, _) = fixture();
        // Boost activeness on edges (1,0) and (2,0): common neighbor 0 becomes
        // "more active" with 1 and 2 → σ(1,2) rises.
        let base_sum: Vec<f64> = (0..g.n()).map(|v| g.degree(v as u32) as f64).collect();
        let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &base_sum };
        let before = ctx.sigma(1, 2);

        act[g.edge_id(0, 1).unwrap() as usize] = 5.0;
        act[g.edge_id(0, 2).unwrap() as usize] = 5.0;
        let mut node_sum = vec![0.0; g.n()];
        for (e, u, v) in g.iter_edges() {
            node_sum[u as usize] += act[e as usize];
            node_sum[v as usize] += act[e as usize];
        }
        let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
        assert!(ctx.sigma(1, 2) > before);
    }

    #[test]
    fn exclusive_neighbors_reduce_sigma() {
        // Start from the shared-edge triangles, then attach exclusive
        // neighbors to node 1: denominator grows, numerator doesn't.
        let g1 = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let g2 = Graph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (1, 5)]);
        for (g, expect_smaller) in [(&g1, false), (&g2, true)] {
            let act = vec![1.0; g.m()];
            let node_sum: Vec<f64> = (0..g.n()).map(|v| g.degree(v as u32) as f64).collect();
            let ctx = SimilarityCtx { g, act: &act, node_sum: &node_sum };
            let s = ctx.sigma(1, 2);
            if expect_smaller {
                assert!(s < 4.0 / 6.0);
            } else {
                assert!((s - 4.0 / 6.0).abs() < 1e-12);
            }
        }
    }

    /// Two triangles sharing an edge, plus the triangle 3-4-5 whose nodes 4
    /// and 5 carry no activeness (so `A(4) + A(5) = 0` takes the `den ≤ 0`
    /// branch); every other edge's activeness is uneven, so the sums round.
    fn uneven_fixture() -> (Graph, Vec<f64>, Vec<f64>) {
        let g =
            Graph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]);
        let mut act: Vec<f64> = (0..g.m()).map(|e| 1.0 / (e as f64 + 3.0) + 0.1).collect();
        for (w, e) in g.edges_of(4).chain(g.edges_of(5)) {
            assert!(w >= 3);
            act[e as usize] = 0.0;
        }
        let mut node_sum = vec![0.0; g.n()];
        for (e, u, v) in g.iter_edges() {
            node_sum[u as usize] += act[e as usize];
            node_sum[v as usize] += act[e as usize];
        }
        (g, act, node_sum)
    }

    /// σ is one float per edge: u's row, w's row and `sigma` agree bit for
    /// bit, in both directions — what the kept numerators rest on.
    #[test]
    fn sigma_all_matches_pairwise() {
        let (g, act, node_sum) = uneven_fixture();
        assert_eq!(node_sum[4] + node_sum[5], 0.0, "the den ≤ 0 branch must run");
        let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
        let mut scratch = Scratch::new(g.n());
        let rows: Vec<Vec<f64>> = (0..g.n() as u32)
            .map(|u| {
                ctx.sigma_all(u, &mut scratch);
                scratch.sigmas.clone()
            })
            .collect();
        for u in 0..g.n() as u32 {
            for ((w, _), s) in g.edges_of(u).zip(&rows[u as usize]) {
                let slot = g.neighbors(w).iter().position(|&x| x == u).unwrap();
                let back = rows[w as usize][slot];
                assert_eq!(s.to_bits(), back.to_bits(), "σ({u},{w}) ≠ σ({w},{u}) by row");
                assert_eq!(s.to_bits(), ctx.sigma(u, w).to_bits(), "row of {u} vs sigma({u},{w})");
                assert_eq!(s.to_bits(), ctx.sigma(w, u).to_bits(), "row of {u} vs sigma({w},{u})");
            }
        }
        assert_eq!(ctx.sigma(4, 5), 0.0);
    }

    /// After a bump and a refresh, the kept numerators equal a fresh build
    /// and their rows equal `sigma_all`'s, bit for bit.
    #[test]
    fn refreshed_numerators_equal_a_build() {
        let (g, mut act, mut node_sum) = uneven_fixture();
        let mut scratch = Scratch::new(g.n());
        let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
        let mut num = SigmaNumerators::build(&ctx, &mut scratch);
        for (u, v, boost) in [(1, 2, 0.37), (3, 4, 1.0 / 3.0), (2, 3, 5.5), (1, 2, 0.01)] {
            let e = g.edge_id(u, v).unwrap();
            act[e as usize] += boost;
            node_sum[u as usize] += boost;
            node_sum[v as usize] += boost;
            let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
            num.refresh(&ctx, u, v, &mut scratch);
            let fresh = SigmaNumerators::build(&ctx, &mut scratch);
            let bits = |n: &SigmaNumerators| n.as_slice().iter().map(|x| x.to_bits()).collect();
            let (kept, built): (Vec<u64>, Vec<u64>) = (bits(&num), bits(&fresh));
            assert_eq!(kept, built, "after bumping ({u},{v})");
            let mut row = Vec::new();
            for x in 0..g.n() as u32 {
                num.row(&ctx, x, &mut row);
                ctx.sigma_all(x, &mut scratch);
                let bits = |r: &[f64]| r.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&row), bits(&scratch.sigmas), "row of {x}");
            }
        }
    }

    #[test]
    fn sigma_is_scale_invariant_neum() {
        // Lemma 3: σ computed from anchored activeness equals σ from true
        // activeness — i.e. uniform scaling cancels.
        let (g, act, node_sum) = fixture();
        let scaled_act: Vec<f64> = act.iter().map(|a| a * 42.0).collect();
        let scaled_sum: Vec<f64> = node_sum.iter().map(|a| a * 42.0).collect();
        let c1 = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
        let c2 = SimilarityCtx { g: &g, act: &scaled_act, node_sum: &scaled_sum };
        for (_, u, v) in g.iter_edges() {
            assert!((c1.sigma(u, v) - c2.sigma(u, v)).abs() < 1e-12);
        }
    }

    #[test]
    fn node_types_partition() {
        let (g, act, node_sum) = fixture();
        let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
        let mut scratch = Scratch::new(g.n());
        // µ = 3: deg(0) = deg(3) = 2 < 3 → periphery.
        assert_eq!(ctx.node_type(0, 0.3, 3, &mut scratch), NodeType::Periphery);
        assert_eq!(ctx.node_type(3, 0.3, 3, &mut scratch), NodeType::Periphery);
        // Node 1: deg 3; σ to 0 = 2/5, to 2 = 4/6, to 3 = 2/5; all ≥ 0.3 → core.
        assert_eq!(ctx.node_type(1, 0.3, 3, &mut scratch), NodeType::Core);
        // With ε = 0.5 only σ(1,2) qualifies → p-core.
        assert_eq!(ctx.node_type(1, 0.5, 3, &mut scratch), NodeType::PCore);
    }

    #[test]
    fn isolated_node_is_periphery() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let act = vec![1.0];
        let node_sum = vec![1.0, 1.0, 0.0];
        let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
        let mut scratch = Scratch::new(3);
        assert_eq!(ctx.node_type(2, 0.3, 1, &mut scratch), NodeType::Periphery);
    }
}
