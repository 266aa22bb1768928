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
            if den <= 0.0 {
                scratch.sigmas.push(0.0);
                continue;
            }
            let mut num = 0.0;
            for (x, e_wx) in self.g.edges_of(w) {
                if scratch.marked(x, stamp) {
                    // x is a common neighbor of u and w:
                    // a(w, x) (this edge) + a(u, x) (remembered at marking).
                    num += self.act[e_wx as usize] + scratch.value(x);
                }
            }
            scratch.sigmas.push(num / den);
        }
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

    #[test]
    fn sigma_all_matches_pairwise() {
        let (g, act, node_sum) = fixture();
        let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
        let mut scratch = Scratch::new(g.n());
        for u in 0..g.n() as u32 {
            ctx.sigma_all(u, &mut scratch);
            let sigmas = scratch.sigmas.clone();
            for ((w, _), s) in g.edges_of(u).zip(sigmas) {
                assert!(
                    (ctx.sigma(u, w) - s).abs() < 1e-12,
                    "sigma_all({u}) disagrees with sigma({u},{w})"
                );
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
