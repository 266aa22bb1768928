//! Local clustering queries (paper Problem 1(2) and Lemma 9): report the
//! cluster containing a query node at a chosen granularity, in time
//! proportional to the neighbors of the reported nodes — never the whole
//! graph. Zoom-in and zoom-out are level adjustments.

use anc_graph::{Graph, NodeId};

use crate::pyramid::Pyramids;

/// The cluster containing `v` at granularity `level` under even-clustering
/// semantics: everything reachable from `v` through positively-voted edges.
///
/// Cost: `O(Σ_{x ∈ result} deg(x) · k)` — proportional to the result and its
/// frontier (Lemma 9), independent of `n`. Panics if `level` is stale.
pub fn local_cluster(g: &Graph, pyr: &Pyramids, v: NodeId, level: usize) -> Vec<NodeId> {
    pyr.assert_live(level);
    let mut visited = std::collections::HashSet::new();
    visited.insert(v);
    let mut queue = std::collections::VecDeque::from([v]);
    let mut out = vec![v];
    while let Some(x) = queue.pop_front() {
        for (y, _) in g.edges_of(x) {
            if !visited.contains(&y) && pyr.vote(x, y, level) {
                visited.insert(y);
                out.push(y);
                queue.push_back(y);
            }
        }
    }
    out.sort_unstable();
    out
}

/// The smallest reported cluster containing `v`: its cluster at the finest
/// granularity (Problem 1(2), "the smallest cluster that contains v, and
/// then allow repetitive zoom-out operations").
pub fn smallest_cluster(g: &Graph, pyr: &Pyramids, v: NodeId) -> Vec<NodeId> {
    local_cluster(g, pyr, v, pyr.num_levels() - 1)
}

/// Zoom out: one level coarser (toward fewer, larger clusters).
pub fn zoom_out(_pyr: &Pyramids, level: usize) -> usize {
    level.saturating_sub(1)
}

/// Zoom in: one level finer (toward more, smaller clusters).
pub fn zoom_in(pyr: &Pyramids, level: usize) -> usize {
    (level + 1).min(pyr.num_levels() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{cluster_all, ClusterMode};
    use crate::pyramid::Pyramids;
    use anc_graph::gen::connected_caveman;

    fn weighted_caveman() -> (anc_graph::Graph, Vec<f64>) {
        let lg = connected_caveman(4, 6);
        let w: Vec<f64> = lg
            .graph
            .iter_edges()
            .map(
                |(_, u, v)| {
                    if lg.labels[u as usize] == lg.labels[v as usize] {
                        0.2
                    } else {
                        100.0
                    }
                },
            )
            .collect();
        (lg.graph, w)
    }

    #[test]
    fn local_matches_global_even() {
        let (g, w) = weighted_caveman();
        let pyr = Pyramids::build(&g, &w, 4, 0.7, 21);
        for level in 0..pyr.num_levels() {
            let global = cluster_all(&g, &pyr, level, ClusterMode::Even);
            for v in [0u32, 7, 13, 20] {
                let local = local_cluster(&g, &pyr, v, level);
                let mut expected: Vec<u32> =
                    (0..g.n() as u32).filter(|&x| global.label(x) == global.label(v)).collect();
                expected.sort_unstable();
                assert_eq!(local, expected, "node {v} level {level}");
            }
        }
    }

    #[test]
    fn query_contains_query_node() {
        let (g, w) = weighted_caveman();
        let pyr = Pyramids::build(&g, &w, 2, 0.7, 3);
        for v in 0..g.n() as u32 {
            let c = local_cluster(&g, &pyr, v, pyr.default_level());
            assert!(c.contains(&v));
        }
    }

    #[test]
    fn zoom_monotonicity() {
        // Coarser levels produce clusters that are supersets of finer ones
        // for the even semantics on this clean fixture.
        let (g, w) = weighted_caveman();
        let pyr = Pyramids::build(&g, &w, 4, 0.7, 5);
        let fine = local_cluster(&g, &pyr, 0, pyr.num_levels() - 1);
        let coarse = local_cluster(&g, &pyr, 0, 0);
        assert!(fine.iter().all(|v| coarse.contains(v)));
        assert!(coarse.len() >= fine.len());
    }

    #[test]
    fn zoom_operators() {
        let (g, w) = weighted_caveman();
        let pyr = Pyramids::build(&g, &w, 2, 0.7, 1);
        let top = pyr.num_levels() - 1;
        assert_eq!(zoom_in(&pyr, top), top);
        assert_eq!(zoom_out(&pyr, 0), 0);
        assert_eq!(zoom_in(&pyr, 0), 1);
        assert_eq!(zoom_out(&pyr, top), top - 1);
    }

    #[test]
    fn smallest_cluster_is_finest() {
        let (g, w) = weighted_caveman();
        let pyr = Pyramids::build(&g, &w, 4, 0.7, 9);
        let s = smallest_cluster(&g, &pyr, 3);
        let finest = local_cluster(&g, &pyr, 3, pyr.num_levels() - 1);
        assert_eq!(s, finest);
    }

    #[test]
    fn isolated_node_is_its_own_cluster() {
        let g = anc_graph::Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let w = vec![1.0, 1.0];
        let pyr = Pyramids::build(&g, &w, 2, 0.7, 1);
        for level in 0..pyr.num_levels() {
            assert_eq!(local_cluster(&g, &pyr, 3, level), vec![3]);
        }
    }
}
