//! CSR-encoded undirected graph with stable edge identifiers.

use crate::{EdgeId, NodeId};

/// An immutable undirected, unweighted graph `G(V, E)` in compressed
/// sparse-row form.
///
/// * Vertices are `0..n` ([`NodeId`]).
/// * Each undirected edge has one stable [`EdgeId`] in `0..m`; the id appears
///   in the adjacency of both endpoints, so per-edge state can be kept in a
///   single dense `Vec` indexed by `EdgeId`.
/// * Neighbor lists are sorted by neighbor id, enabling `O(log deg)` edge
///   lookup and linear-time sorted-merge common-neighbor iteration (used by
///   the active similarity σ, paper Section IV-B).
///
/// The graph is intentionally immutable: the paper's relation network is
/// "relatively stable" and all dynamics happen on *edge state*, not topology.
#[derive(Clone, Debug)]
pub struct Graph {
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Flattened neighbor lists, length `2m`, sorted within each node.
    neighbors: Vec<NodeId>,
    /// Edge id parallel to `neighbors`, length `2m`.
    edge_ids: Vec<EdgeId>,
    /// Canonical endpoints `(min, max)` per edge id, length `m`.
    endpoints: Vec<(NodeId, NodeId)>,
}

impl Graph {
    /// Builds a graph from an edge list over `n` vertices.
    ///
    /// Self-loops and duplicate edges are removed (duplicates keep a single
    /// edge id). Endpoints must be `< n`.
    ///
    /// # Panics
    /// Panics if any endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn m(&self) -> usize {
        self.endpoints.len()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Sorted neighbor ids of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Edge ids parallel to [`Graph::neighbors`].
    #[inline]
    pub fn neighbor_edge_ids(&self, v: NodeId) -> &[EdgeId] {
        &self.edge_ids[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Iterates `(neighbor, edge_id)` pairs of `v` in neighbor-sorted order.
    #[inline]
    pub fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.neighbors(v).iter().copied().zip(self.neighbor_edge_ids(v).iter().copied())
    }

    /// Canonical endpoints `(min, max)` of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.endpoints[e as usize]
    }

    /// Looks up the edge id of `(u, v)`, if the edge exists.
    pub fn edge_id(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u >= self.n() as NodeId || v >= self.n() as NodeId {
            return None;
        }
        // Search from the lower-degree endpoint.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        let nbrs = self.neighbors(a);
        nbrs.binary_search(&b).ok().map(|i| self.edge_ids[self.offsets[a as usize] + i])
    }

    /// Whether edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_id(u, v).is_some()
    }

    /// Given one endpoint of `e`, returns the other.
    ///
    /// # Panics
    /// Panics if `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints[e as usize];
        if v == a {
            b
        } else {
            debug_assert_eq!(v, b, "node {v} is not an endpoint of edge {e}");
            a
        }
    }

    /// Iterates all edges as `(edge_id, u, v)` with `u < v`.
    pub fn iter_edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.endpoints.iter().enumerate().map(|(e, &(u, v))| (e as EdgeId, u, v))
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v as NodeId)).max().unwrap_or(0)
    }

    /// Total bytes of heap memory used by the CSR arrays.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<NodeId>()
            + self.edge_ids.len() * std::mem::size_of::<EdgeId>()
            + self.endpoints.len() * std::mem::size_of::<(NodeId, NodeId)>()
    }

    /// Number of common neighbors of `u` and `v` via sorted merge, `O(deg u + deg v)`.
    pub fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        let mut count = 0;
        let (mut i, mut j) = (0, 0);
        let (nu, nv) = (self.neighbors(u), self.neighbors(v));
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Calls `f(w, eid_uw, eid_vw)` for every common neighbor `w` of `u` and
    /// `v`, in increasing `w`, via sorted merge.
    pub fn for_common_neighbors<F: FnMut(NodeId, EdgeId, EdgeId)>(
        &self,
        u: NodeId,
        v: NodeId,
        mut f: F,
    ) {
        let (nu, eu) = (self.neighbors(u), self.neighbor_edge_ids(u));
        let (nv, ev) = (self.neighbors(v), self.neighbor_edge_ids(v));
        let (mut i, mut j) = (0, 0);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    f(nu[i], eu[i], ev[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

/// Incremental builder for [`Graph`].
///
/// Accepts edges in any order and any orientation; removes self-loops and
/// duplicates at [`GraphBuilder::build`] time.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self { n, edges: Vec::new() }
    }

    /// Creates a builder expecting roughly `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        Self { n, edges: Vec::with_capacity(m) }
    }

    /// Number of (not yet deduplicated) edges added.
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge. Self-loops are silently dropped.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for n = {}",
            self.n
        );
        if u == v {
            return;
        }
        self.edges.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Finalizes into a CSR [`Graph`]. Duplicate edges collapse to one id.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let m = self.edges.len();
        let n = self.n;

        let mut degrees = vec![0usize; n];
        for &(u, v) in &self.edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        offsets.push(0usize);
        for d in &degrees {
            total += d;
            offsets.push(total);
        }

        let mut neighbors = vec![0 as NodeId; 2 * m];
        let mut edge_ids = vec![0 as EdgeId; 2 * m];
        let mut cursor = offsets[..n].to_vec();
        // `self.edges` is sorted by (u, v); inserting in this order keeps each
        // node's neighbor slice sorted for the `u`-side. For the `v`-side the
        // incoming `u` values also arrive in increasing order per `v` because
        // the outer sort is by `u` first — but interleaved with the node's own
        // `u`-side entries, so a final per-node sort is still required.
        for (e, &(u, v)) in self.edges.iter().enumerate() {
            let cu = cursor[u as usize];
            neighbors[cu] = v;
            edge_ids[cu] = e as EdgeId;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize];
            neighbors[cv] = u;
            edge_ids[cv] = e as EdgeId;
            cursor[v as usize] += 1;
        }
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            // Sort the slice pair (neighbors, edge_ids) by neighbor id.
            let mut pairs: Vec<(NodeId, EdgeId)> =
                neighbors[lo..hi].iter().copied().zip(edge_ids[lo..hi].iter().copied()).collect();
            pairs.sort_unstable_by_key(|&(w, _)| w);
            for (i, (w, e)) in pairs.into_iter().enumerate() {
                neighbors[lo + i] = w;
                edge_ids[lo + i] = e;
            }
        }

        Graph { offsets, neighbors, edge_ids, endpoints: self.edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1, 1-2, 0-2, 2-3
        Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn neighbors_sorted_and_edge_ids_consistent() {
        let g = triangle_plus_tail();
        for v in 0..g.n() as NodeId {
            let nbrs = g.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "neighbors of {v} not sorted");
            for (w, e) in g.edges_of(v) {
                let (a, b) = g.endpoints(e);
                assert!((a, b) == (v.min(w), v.max(w)));
            }
        }
    }

    #[test]
    fn edge_lookup() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.edge_id(2, 3), g.edge_id(3, 2));
        let e = g.edge_id(1, 2).unwrap();
        assert_eq!(g.other_endpoint(e, 1), 2);
        assert_eq!(g.other_endpoint(e, 2), 1);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn common_neighbors() {
        let g = triangle_plus_tail();
        assert_eq!(g.common_neighbor_count(0, 1), 1); // node 2
        assert_eq!(g.common_neighbor_count(0, 3), 1); // node 2
        assert_eq!(g.common_neighbor_count(1, 3), 1); // node 2
        let mut seen = vec![];
        g.for_common_neighbors(0, 1, |w, e_uw, e_vw| {
            seen.push((w, e_uw, e_vw));
        });
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, 2);
        assert_eq!(seen[0].1, g.edge_id(0, 2).unwrap());
        assert_eq!(seen[0].2, g.edge_id(1, 2).unwrap());
    }

    #[test]
    fn empty_and_singleton() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        let g = Graph::from_edges(1, &[]);
        assert_eq!(g.n(), 1);
        assert_eq!(g.degree(0), 0);
        assert!(g.neighbors(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
    }

    #[test]
    fn iter_edges_canonical() {
        let g = triangle_plus_tail();
        for (e, u, v) in g.iter_edges() {
            assert!(u < v);
            assert_eq!(g.edge_id(u, v), Some(e));
        }
        assert_eq!(g.iter_edges().count(), g.m());
    }

    #[test]
    fn memory_accounting_positive() {
        let g = triangle_plus_tail();
        assert!(g.memory_bytes() > 0);
    }
}
