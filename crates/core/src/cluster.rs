//! Cluster extraction from the pyramids index (paper Section V-B):
//! **even clustering** (connected components of positively-voted edges) and
//! **power clustering** (degree-ordered directed search, robust to voting
//! errors).

use anc_graph::traverse::connected_components_filtered;
use anc_graph::{EdgeId, Graph, NodeId};
use anc_metrics::{Clustering, NOISE};

use crate::pyramid::Pyramids;

/// Which extraction algorithm to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterMode {
    /// Connected components of the voted subgraph. Simple, but any single
    /// mis-voted edge can merge two clusters (error amplification).
    Even,
    /// The paper's `DirectedCluster`: orient voted edges from high to low
    /// degree (degree measured in the voted subgraph, ties to smaller id)
    /// and grow clusters from the highest-ranked unclustered nodes. A
    /// mis-voted edge can only leak a bounded follower set, not merge whole
    /// clusters.
    Power,
}

/// Evaluates the voting function on every edge once and caches the result.
/// Panics if `level` is stale.
fn voted_edges(g: &Graph, pyr: &Pyramids, level: usize) -> Vec<bool> {
    pyr.assert_live(level);
    let mut kept = vec![false; g.m()];
    for (e, u, v) in g.iter_edges() {
        kept[e as usize] = pyr.vote(u, v, level);
    }
    kept
}

/// Clusters the whole graph at granularity `level` (Lemma 8:
/// `O(m log n)` including the voting pass). Panics if `level` is stale.
pub fn cluster_all(g: &Graph, pyr: &Pyramids, level: usize, mode: ClusterMode) -> Clustering {
    let kept = voted_edges(g, pyr, level);
    match mode {
        ClusterMode::Even => even_clustering_with(g, |e| kept[e as usize]),
        ClusterMode::Power => power_clustering_with(g, |e| kept[e as usize]),
    }
}

/// Even clustering over an arbitrary kept-edge predicate.
pub fn even_clustering_with<F: Fn(EdgeId) -> bool>(g: &Graph, keep: F) -> Clustering {
    let comps = connected_components_filtered(g, |_, _, e| keep(e));
    Clustering::from_labels(&comps.label)
}

/// Power clustering over an arbitrary kept-edge predicate.
///
/// 1. Compute each node's degree in the kept subgraph.
/// 2. Orient each kept edge from the higher-ranked endpoint to the lower
///    (rank: larger kept-degree first, then smaller node id — the
///    orientation under which the paper's Example 5 reproduces).
/// 3. Scan nodes by rank; each still-unclustered node seeds a cluster with
///    everything reachable from it through unclustered nodes along the
///    orientation.
pub fn power_clustering_with<F: Fn(EdgeId) -> bool>(g: &Graph, keep: F) -> Clustering {
    let n = g.n();
    let mut kept_deg = vec![0u32; n];
    for (e, u, v) in g.iter_edges() {
        if keep(e) {
            kept_deg[u as usize] += 1;
            kept_deg[v as usize] += 1;
        }
    }
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    let mut label = vec![NOISE; n];
    grow_power_clusters(g, keep, &kept_deg, &mut order, &mut Vec::new(), &mut label, 0);
    Clustering::from_labels(&label)
}

/// The rank scan of power clustering over the nodes in `order`, against a
/// *precomputed* kept-degree table (`kept_deg[v]` must equal `v`'s degree in
/// the kept subgraph) and with caller-owned scratch. Sorts `order` by rank
/// and gives every node in it a cluster id, counting up from `next`.
///
/// `order` must be closed under kept edges and `label` must read [`NOISE`]
/// exactly on it: all nodes for a cold extraction, or — the cluster cache's
/// repair — a union of kept-subgraph components, whose clusters depend on
/// nothing outside them, with every other node keeping the label it has.
pub(crate) fn grow_power_clusters<F: Fn(EdgeId) -> bool>(
    g: &Graph,
    keep: F,
    kept_deg: &[u32],
    order: &mut [NodeId],
    stack: &mut Vec<NodeId>,
    label: &mut [u32],
    mut next: u32,
) {
    order.sort_unstable_by(|&a, &b| {
        kept_deg[b as usize].cmp(&kept_deg[a as usize]).then_with(|| a.cmp(&b))
    });
    // points(a → b): a ranks strictly above b.
    let points = |a: NodeId, b: NodeId| {
        let (da, db) = (kept_deg[a as usize], kept_deg[b as usize]);
        da > db || (da == db && a < b)
    };

    stack.clear();
    for &v in order.iter() {
        if label[v as usize] != NOISE {
            continue;
        }
        label[v as usize] = next;
        stack.push(v);
        while let Some(x) = stack.pop() {
            for (y, e) in g.edges_of(x) {
                if label[y as usize] == NOISE && keep(e) && points(x, y) {
                    label[y as usize] = next;
                    stack.push(y);
                }
            }
        }
        next += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pyramid::Pyramids;
    use anc_graph::gen::{connected_caveman, paper_figure2};
    use anc_graph::Graph;

    /// Paper Example 5: at level 3 the edges (v1,v2), (v1,v3), (v4,v13),
    /// (v5,v6), (v6,v9), (v6,v10), (v8,v12), (v8,v11) are voted in. Power
    /// clustering must produce exactly the paper's 5 clusters.
    #[test]
    fn paper_example_5_power_clustering() {
        let (g, _) = paper_figure2();
        let voted: Vec<EdgeId> =
            [(1u32, 2u32), (1, 3), (4, 13), (5, 6), (6, 9), (6, 10), (8, 12), (8, 11)]
                .iter()
                .map(|&(a, b)| g.edge_id(a - 1, b - 1).unwrap())
                .collect();
        let kept = {
            let mut k = vec![false; g.m()];
            for &e in &voted {
                k[e as usize] = true;
            }
            k
        };
        let c = power_clustering_with(&g, |e| kept[e as usize]);
        // Expected (0-indexed): {v6,v5,v9,v10} = {5,4,8,9}; {v1,v2,v3} =
        // {0,1,2}; {v4,v13} = {3,12}; {v8,v11,v12} = {7,10,11}; {v7} = {6}.
        let mut groups: Vec<Vec<NodeId>> = c.groups();
        for gp in &mut groups {
            gp.sort_unstable();
        }
        groups.sort();
        let mut expected =
            vec![vec![4u32, 5, 8, 9], vec![0, 1, 2], vec![3, 12], vec![7, 10, 11], vec![6]];
        for e in &mut expected {
            e.sort_unstable();
        }
        expected.sort();
        assert_eq!(groups, expected);
        assert_eq!(c.num_clusters(), 5);
    }

    #[test]
    fn even_clustering_components() {
        let (g, _) = paper_figure2();
        // Keep only the two edges (v1,v2), (v1,v3): one 3-node component,
        // the rest singletons.
        let e12 = g.edge_id(0, 1).unwrap();
        let e13 = g.edge_id(0, 2).unwrap();
        let c = even_clustering_with(&g, |e| e == e12 || e == e13);
        assert_eq!(c.num_clusters(), 1 + 10); // {v1,v2,v3} + 10 singletons
        assert_eq!(c.label(0), c.label(1));
        assert_eq!(c.label(0), c.label(2));
    }

    #[test]
    fn even_amplifies_errors_power_contains_them() {
        // Two star communities (hub 0 + leaves 1..5, hub 6 + leaves 7..11)
        // with one spurious voted edge between leaves 1 and 7. Even
        // clustering merges everything into one cluster through that single
        // mis-vote; power clustering leaks at most the follower leaf and
        // keeps the hubs' clusters apart (the paper's stated motivation for
        // DirectedCluster).
        let mut edges = vec![];
        for leaf in 1..6u32 {
            edges.push((0, leaf));
        }
        for leaf in 7..12u32 {
            edges.push((6, leaf));
        }
        edges.push((1, 7)); // the mis-voted bridge
        let g = Graph::from_edges(12, &edges);
        let keep_all = |_e: EdgeId| true;
        let even = even_clustering_with(&g, keep_all);
        assert_eq!(even.num_clusters(), 1, "even merges through the bridge");
        let power = power_clustering_with(&g, keep_all);
        assert_eq!(power.num_clusters(), 2, "power contains the error");
        // The two hubs stay in different clusters.
        assert_ne!(power.label(0), power.label(6));
    }

    #[test]
    fn modes_agree_on_clean_components() {
        // With the bridge removed, both modes see identical clean clusters.
        let lg = connected_caveman(3, 5);
        let g = &lg.graph;
        let bridge_edges: Vec<bool> = g
            .iter_edges()
            .map(|(_, u, v)| lg.labels[u as usize] != lg.labels[v as usize])
            .collect();
        let keep = |e: EdgeId| !bridge_edges[e as usize];
        let even = even_clustering_with(g, keep);
        let power = power_clustering_with(g, keep);
        assert_eq!(even.num_clusters(), 3);
        assert_eq!(power.num_clusters(), 3);
        for v in 0..g.n() as u32 {
            for w in 0..g.n() as u32 {
                assert_eq!(
                    even.label(v) == even.label(w),
                    power.label(v) == power.label(w),
                    "modes disagree on pair ({v},{w})"
                );
            }
        }
    }

    #[test]
    fn cluster_all_runs_on_real_index() {
        let lg = connected_caveman(4, 5);
        let g = &lg.graph;
        // Weight edges by planted structure: intra light (similar), bridges heavy.
        let w: Vec<f64> = g
            .iter_edges()
            .map(
                |(_, u, v)| if lg.labels[u as usize] == lg.labels[v as usize] { 0.2 } else { 50.0 },
            )
            .collect();
        let pyr = Pyramids::build(g, &w, 4, 0.7, 11);
        let level = pyr.num_levels() - 1; // finest granularity: 2^(levels-1) ≥ n/2 seeds
        let _even = cluster_all(g, &pyr, level, ClusterMode::Even);
        let power = cluster_all(g, &pyr, level, ClusterMode::Power);
        assert!(power.num_clusters() >= 1);
        // Level 0 (single seed) puts the whole connected graph together.
        let coarse = cluster_all(g, &pyr, 0, ClusterMode::Even);
        assert_eq!(coarse.num_clusters(), 1);
    }

    #[test]
    fn no_votes_gives_singletons() {
        let (g, _) = paper_figure2();
        let power = power_clustering_with(&g, |_| false);
        assert_eq!(power.num_clusters(), g.n());
        let even = even_clustering_with(&g, |_| false);
        assert_eq!(even.num_clusters(), g.n());
    }

    #[test]
    fn power_is_a_partition() {
        // Every node gets exactly one label, regardless of the kept set.
        let lg = connected_caveman(3, 4);
        let g = &lg.graph;
        for pattern in 0..8u32 {
            let keep = move |e: EdgeId| !(e + pattern).is_multiple_of(3);
            let c = power_clustering_with(g, keep);
            assert_eq!(c.num_assigned(), g.n(), "pattern {pattern}");
        }
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, &[]);
        let c = power_clustering_with(&g, |_| true);
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.label(0), 0);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        let c = power_clustering_with(&g, |_| true);
        assert_eq!(c.num_clusters(), 0);
        let c = even_clustering_with(&g, |_| true);
        assert_eq!(c.num_clusters(), 0);
    }
}
