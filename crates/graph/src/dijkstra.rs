//! Shortest paths under arbitrary positive edge-weight functions.
//!
//! The paper's distance metric `M_t` (Section IV-C) is the pairwise shortest
//! distance under edge weight `1/S_t`. This module provides the generic
//! machinery: multi-source Dijkstra producing distances, parent pointers
//! (shortest-path trees) and the *seed* of every node — exactly the
//! Voronoi-partition building block of the pyramids index (Section V-A) —
//! and a single-pair distance that stops once its target is settled.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{EdgeId, Graph, NodeId, NO_NODE};

/// Distance value; `f64::INFINITY` marks unreachable nodes.
pub type Dist = f64;

/// A min-heap entry ordered by distance (then node id for determinism).
#[derive(Copy, Clone, Debug)]
pub struct HeapEntry {
    /// Tentative distance of `node`.
    pub dist: Dist,
    /// The node.
    pub node: NodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.node == other.node
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on distance. `total_cmp` gives a total
        // order even for NaN/-0.0 (neither is ever inserted, but the
        // ordering must not silently degrade if that changes).
        other.dist.total_cmp(&self.dist).then_with(|| other.node.cmp(&self.node))
    }
}

/// Result of a (multi-source) Dijkstra run.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// `dist[v]`: shortest distance from the closest source to `v`.
    pub dist: Vec<Dist>,
    /// `parent[v]`: predecessor of `v` on its shortest path ([`NO_NODE`] for
    /// sources and unreachable nodes).
    pub parent: Vec<NodeId>,
    /// `seed[v]`: the source that `v` was reached from ([`NO_NODE`] if
    /// unreachable). For a single source this is constant over reached nodes.
    pub seed: Vec<NodeId>,
}

/// Runs Dijkstra from `sources` (treated as one super-source) under the edge
/// weight function `weight(e)`, into the caller's `sp` vectors and `heap`
/// (both cleared and refilled instead of allocated). The index builds and
/// rebuilds every partition through here, reusing the partition's own
/// buffers.
///
/// Weights must be positive and finite; this is guaranteed by construction in
/// `anc-core` where weights are `1/S_t` with `S_t` clamped to a positive
/// floor.
///
/// Complexity `O((n + m) log n)`.
pub fn multi_source_dijkstra_into<W>(
    g: &Graph,
    sources: &[NodeId],
    weight: W,
    sp: &mut ShortestPaths,
    heap: &mut BinaryHeap<HeapEntry>,
) where
    W: Fn(EdgeId) -> Dist,
{
    let n = g.n();
    sp.dist.clear();
    sp.dist.resize(n, Dist::INFINITY);
    sp.parent.clear();
    sp.parent.resize(n, NO_NODE);
    sp.seed.clear();
    sp.seed.resize(n, NO_NODE);
    heap.clear();

    for &s in sources {
        sp.dist[s as usize] = 0.0;
        sp.seed[s as usize] = s;
        heap.push(HeapEntry { dist: 0.0, node: s });
    }

    while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
        if d > sp.dist[v as usize] {
            continue; // stale entry
        }
        for (w, e) in g.edges_of(v) {
            let nd = d + weight(e);
            if nd < sp.dist[w as usize] {
                sp.dist[w as usize] = nd;
                sp.parent[w as usize] = v;
                sp.seed[w as usize] = sp.seed[v as usize];
                heap.push(HeapEntry { dist: nd, node: w });
            }
        }
    }
}

/// Shortest distance between a single pair, with early termination once the
/// target is settled. Returns `f64::INFINITY` if unreachable.
pub fn pair_distance<W>(g: &Graph, source: NodeId, target: NodeId, weight: W) -> Dist
where
    W: Fn(EdgeId) -> Dist,
{
    if source == target {
        return 0.0;
    }
    let n = g.n();
    let mut dist = vec![Dist::INFINITY; n];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(HeapEntry { dist: 0.0, node: source });
    while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
        if v == target {
            return d;
        }
        if d > dist[v as usize] {
            continue;
        }
        for (w, e) in g.edges_of(v) {
            let nd = d + weight(e);
            if nd < dist[w as usize] {
                dist[w as usize] = nd;
                heap.push(HeapEntry { dist: nd, node: w });
            }
        }
    }
    Dist::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn dijkstra(g: &Graph, sources: &[NodeId], weight: impl Fn(EdgeId) -> Dist) -> ShortestPaths {
        let mut sp = ShortestPaths { dist: Vec::new(), parent: Vec::new(), seed: Vec::new() };
        multi_source_dijkstra_into(g, sources, weight, &mut sp, &mut BinaryHeap::new());
        sp
    }

    /// Weighted diamond: 0-1 (1), 0-2 (4), 1-2 (1), 2-3 (1), 1-3 (5).
    fn diamond() -> (Graph, Vec<f64>) {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)]);
        let mut w = vec![0.0; g.m()];
        w[g.edge_id(0, 1).unwrap() as usize] = 1.0;
        w[g.edge_id(0, 2).unwrap() as usize] = 4.0;
        w[g.edge_id(1, 2).unwrap() as usize] = 1.0;
        w[g.edge_id(2, 3).unwrap() as usize] = 1.0;
        w[g.edge_id(1, 3).unwrap() as usize] = 5.0;
        (g, w)
    }

    #[test]
    fn single_source() {
        let (g, w) = diamond();
        let sp = dijkstra(&g, &[0], |e| w[e as usize]);
        assert_eq!(sp.dist, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(sp.parent[1], 0);
        assert_eq!(sp.parent[2], 1);
        assert_eq!(sp.parent[3], 2);
        assert!(sp.seed.iter().all(|&s| s == 0));
    }

    #[test]
    fn multi_source_voronoi() {
        // Path 0-1-2-3-4, unit weights, sources {0, 4}.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let sp = dijkstra(&g, &[0, 4], |_| 1.0);
        assert_eq!(sp.dist, vec![0.0, 1.0, 2.0, 1.0, 0.0]);
        assert_eq!(sp.seed[0], 0);
        assert_eq!(sp.seed[1], 0);
        assert_eq!(sp.seed[3], 4);
        assert_eq!(sp.seed[4], 4);
        // Node 2 is equidistant; either seed is valid but must match parent chain.
        let s2 = sp.seed[2];
        assert!(s2 == 0 || s2 == 4);
        let p2 = sp.parent[2];
        assert_eq!(sp.seed[p2 as usize], s2);
    }

    #[test]
    fn unreachable_nodes() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let sp = dijkstra(&g, &[0], |_| 1.0);
        assert!(sp.dist[2].is_infinite());
        assert_eq!(sp.seed[2], NO_NODE);
        assert_eq!(sp.parent[2], NO_NODE);
    }

    #[test]
    fn pair_distance_matches_full() {
        let (g, w) = diamond();
        for t in 0..4u32 {
            let full = dijkstra(&g, &[0], |e| w[e as usize]);
            assert_eq!(pair_distance(&g, 0, t, |e| w[e as usize]), full.dist[t as usize]);
        }
        let g2 = Graph::from_edges(3, &[(0, 1)]);
        assert!(pair_distance(&g2, 0, 2, |_| 1.0).is_infinite());
    }

    #[test]
    fn parent_pointers_form_tree_consistent_with_dist() {
        let (g, w) = diamond();
        let sp = dijkstra(&g, &[0], |e| w[e as usize]);
        for v in 1..4u32 {
            let p = sp.parent[v as usize];
            let e = g.edge_id(p, v).unwrap();
            let diff: f64 = sp.dist[v as usize] - sp.dist[p as usize] - w[e as usize];
            assert!(diff.abs() < 1e-12);
        }
    }
}
