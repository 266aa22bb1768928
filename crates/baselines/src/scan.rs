//! SCAN — Structural Clustering Algorithm for Networks (Xu et al., KDD
//! 2007).
//!
//! Uses the structural similarity over closed neighborhoods
//! `σ(u,v) = |Γ(u) ∩ Γ(v)| / √(|Γ(u)|·|Γ(v)|)` with `Γ(v) = N(v) ∪ {v}`;
//! nodes with at least `µ` ε-similar neighbors are cores, cores grow
//! clusters over structure-reachable nodes, the rest become hubs/outliers
//! (noise here). A weighted variant substitutes edge weights for counts so
//! the baseline can track activation snapshots.

use anc_graph::{Graph, NodeId};
use anc_metrics::{Clustering, NOISE};

/// SCAN parameters.
#[derive(Clone, Copy, Debug)]
pub struct ScanParams {
    /// Similarity threshold ε ∈ (0, 1).
    pub epsilon: f64,
    /// Core threshold µ (number of ε-neighbors including the node itself).
    pub mu: usize,
}

impl Default for ScanParams {
    fn default() -> Self {
        Self { epsilon: 0.5, mu: 3 }
    }
}

/// Unweighted structural similarity over closed neighborhoods.
fn structural_similarity(g: &Graph, u: NodeId, v: NodeId) -> f64 {
    // |Γ(u) ∩ Γ(v)|: common open neighbors, plus u if u ∈ Γ(v) (adjacent),
    // plus v likewise. For an edge (u,v) both bonus terms apply.
    let mut common = g.common_neighbor_count(u, v);
    if g.has_edge(u, v) {
        common += 2; // u ∈ Γ(v) and v ∈ Γ(u)
    }
    let du = g.degree(u) + 1;
    let dv = g.degree(v) + 1;
    common as f64 / ((du as f64) * (dv as f64)).sqrt()
}

/// Weighted structural similarity: weighted common neighborhood over the
/// geometric mean of weighted degrees (self-weight 1 per node, mirroring the
/// closed neighborhood).
fn weighted_similarity(g: &Graph, weights: &[f64], wdeg: &[f64], u: NodeId, v: NodeId) -> f64 {
    let mut common = 0.0;
    g.for_common_neighbors(u, v, |_, e_ux, e_vx| {
        common += (weights[e_ux as usize] * weights[e_vx as usize]).sqrt();
    });
    if let Some(e) = g.edge_id(u, v) {
        common += 2.0 * weights[e as usize].sqrt();
    }
    let du = wdeg[u as usize] + 1.0;
    let dv = wdeg[v as usize] + 1.0;
    common / (du * dv).sqrt()
}

/// Runs SCAN on the unweighted structure.
pub fn cluster(g: &Graph, params: &ScanParams) -> Clustering {
    cluster_impl(g, params, |u, v| structural_similarity(g, u, v))
}

/// Runs weighted SCAN where edge weights are the current activeness.
pub fn cluster_weighted(g: &Graph, weights: &[f64], params: &ScanParams) -> Clustering {
    let mut wdeg = vec![0.0; g.n()];
    for (e, u, v) in g.iter_edges() {
        wdeg[u as usize] += weights[e as usize];
        wdeg[v as usize] += weights[e as usize];
    }
    cluster_impl(g, params, |u, v| weighted_similarity(g, weights, &wdeg, u, v))
}

fn cluster_impl<S: Fn(NodeId, NodeId) -> f64>(
    g: &Graph,
    params: &ScanParams,
    sim: S,
) -> Clustering {
    let n = g.n();
    // ε-neighborhood sizes (closed: the node counts as its own ε-neighbor).
    let mut eps_deg = vec![1usize; n];
    let mut eps_edge = vec![false; g.m()];
    for (e, u, v) in g.iter_edges() {
        if sim(u, v) >= params.epsilon {
            eps_edge[e as usize] = true;
            eps_deg[u as usize] += 1;
            eps_deg[v as usize] += 1;
        }
    }
    let is_core: Vec<bool> = (0..n).map(|v| eps_deg[v] >= params.mu).collect();

    // Grow clusters: BFS from each unvisited core over ε-edges; non-core
    // border members join but do not expand.
    let mut label = vec![NOISE; n];
    let mut next = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n as NodeId {
        if !is_core[s as usize] || label[s as usize] != NOISE {
            continue;
        }
        label[s as usize] = next;
        queue.push_back(s);
        while let Some(x) = queue.pop_front() {
            for (y, e) in g.edges_of(x) {
                if !eps_edge[e as usize] || label[y as usize] != NOISE {
                    continue;
                }
                label[y as usize] = next;
                if is_core[y as usize] {
                    queue.push_back(y);
                }
            }
        }
        next += 1;
    }
    // Hubs/outliers remain NOISE.
    Clustering::from_labels(&label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_graph::gen::connected_caveman;
    use anc_graph::Graph;

    #[test]
    fn similarity_range_and_symmetry() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        for u in 0..4u32 {
            for v in 0..4u32 {
                let s = structural_similarity(&g, u, v);
                assert!((0.0..=1.0 + 1e-12).contains(&s));
                assert!((s - structural_similarity(&g, v, u)).abs() < 1e-12);
            }
        }
        // Triangle edge is more similar than the pendant edge.
        assert!(structural_similarity(&g, 0, 1) > structural_similarity(&g, 2, 3));
    }

    #[test]
    fn recovers_caveman_cliques() {
        let lg = connected_caveman(4, 6);
        let c = cluster(&lg.graph, &ScanParams { epsilon: 0.6, mu: 3 });
        let truth = Clustering::from_labels(&lg.labels);
        let score = anc_metrics::nmi(&c, &truth);
        assert!(score > 0.9, "SCAN should nail cliques, NMI = {score}");
        assert_eq!(c.num_clusters(), 4);
    }

    #[test]
    fn extreme_epsilon_degenerates() {
        let lg = connected_caveman(3, 4);
        // ε > 1 keeps nothing (σ ≤ 1 even inside perfect cliques) → no cores.
        let strict = cluster(&lg.graph, &ScanParams { epsilon: 1.01, mu: 3 });
        assert_eq!(strict.num_clusters(), 0);
        // ε = 0 keeps everything → one cluster (connected graph, all cores).
        let loose = cluster(&lg.graph, &ScanParams { epsilon: 0.0, mu: 2 });
        assert_eq!(loose.num_clusters(), 1);
    }

    #[test]
    fn weighted_variant_tracks_activeness() {
        // Path community downweighted to near zero splits off.
        let lg = connected_caveman(2, 5);
        let g = &lg.graph;
        let hot: Vec<f64> =
            g.iter_edges()
                .map(|(_, u, v)| {
                    if lg.labels[u as usize] == 0 && lg.labels[v as usize] == 0 {
                        5.0
                    } else {
                        0.05
                    }
                })
                .collect();
        let c = cluster_weighted(g, &hot, &ScanParams { epsilon: 0.35, mu: 3 });
        // Clique 0 must survive as one cluster; clique 1's similarity shrinks.
        let c0: Vec<u32> = (0..5).map(|v| c.label(v)).collect();
        assert!(c0.iter().all(|&l| l == c0[0] && l != NOISE), "{c0:?}");
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        let c = cluster(&g, &ScanParams::default());
        assert_eq!(c.num_clusters(), 0);
    }
}
