//! Machine-checkable structural invariants of the engine state.
//!
//! Every piece of mutable state the engine maintains incrementally has a
//! closed-form characterization that a from-scratch recomputation would
//! satisfy by construction:
//!
//! * the CSR graph is well-formed (sorted adjacency, symmetric edge ids,
//!   everything in bounds);
//! * anchored activeness is finite and non-negative, and the per-node sums
//!   `A(v)` equal the sum of incident anchored activeness (the Def. 2
//!   algebra: anchored values absorb the global decay factor, so the
//!   incremental `+= 1/g` bumps must agree with a full rescan);
//! * stored similarity is finite and strictly positive (the floor), its
//!   running sum matches it and its mean lies in the range rule's window,
//!   and the materialized reciprocal weights are exactly `1/S` (NegM,
//!   Lemma 4);
//! * the pyramids index has exactly `k · ⌈log₂ n⌉` partitions with the
//!   prescribed seed counts, and each Voronoi partition is a certified
//!   shortest-path forest (no relaxable edge, acyclic parents — see
//!   [`crate::voronoi::VoronoiPartition`]);
//! * extracted clusterings assign every node and use dense labels.
//!
//! The checks are pure functions over slices plus public accessors, so the
//! snapshot validator ([`crate::persist`]) and the engine share one
//! implementation. [`crate::AncEngine::check_invariants`] composes them all;
//! the `debug-invariants` cargo feature additionally runs them at batch
//! boundaries (zero code is emitted when the feature is off).

use anc_graph::{Graph, NodeId, NO_NODE};
use anc_metrics::{Clustering, NOISE};

/// A violated engine invariant, by subsystem.
///
/// The variant tells *which* maintained structure diverged from its
/// closed-form characterization; the payload pinpoints the first offending
/// element.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvariantViolation {
    /// The CSR graph is malformed (unsorted adjacency, asymmetric edge ids,
    /// out-of-bounds endpoint, degree/edge-count mismatch).
    Graph(String),
    /// The decay store or the per-node activeness sums are inconsistent
    /// (non-finite / negative anchored value, or `A(v)` drifting from the
    /// sum of incident anchored activeness).
    Activeness(String),
    /// A similarity value is non-finite or non-positive, the running sum or
    /// the mean is off, or the reciprocal weights are out of sync with `1/S`.
    Similarity(String),
    /// The pyramids index has the wrong shape (level count ≠ `⌈log₂ n⌉`,
    /// wrong seed-set size, vote threshold out of range).
    IndexShape(String),
    /// A Voronoi partition violates its shortest-path-forest invariants.
    Partition {
        /// Pyramid index `p < k`.
        pyramid: usize,
        /// Granularity level (0-based).
        level: usize,
        /// First violation found inside the partition.
        detail: String,
    },
    /// An extracted clustering is invalid (wrong arity, non-dense labels,
    /// empty cluster id).
    Clustering(String),
    /// The incremental cluster-query cache diverged from a cold
    /// recomputation (stale seed row that is not pending, vote bit that is
    /// not the vote of its rows, drifted voted-degree table, or a cached
    /// clustering that no longer matches extraction).
    Cache(String),
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::Graph(msg) => write!(f, "graph: {msg}"),
            InvariantViolation::Activeness(msg) => write!(f, "activeness: {msg}"),
            InvariantViolation::Similarity(msg) => write!(f, "similarity: {msg}"),
            InvariantViolation::IndexShape(msg) => write!(f, "index shape: {msg}"),
            InvariantViolation::Partition { pyramid, level, detail } => {
                write!(f, "pyramid {pyramid} level {level}: {detail}")
            }
            InvariantViolation::Clustering(msg) => write!(f, "clustering: {msg}"),
            InvariantViolation::Cache(msg) => write!(f, "cluster cache: {msg}"),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Relative tolerance for algebraic identities over incrementally maintained
/// floats (matches the partition checker's).
const TOL: f64 = 1e-6;

/// Checks that every stored similarity is finite and strictly positive —
/// the precondition for the reciprocal weights `1/S` to be a valid distance
/// metric (the floor keeps it) — that the running sum `sim_sum` equals
/// their sum, and that their mean lies in [`crate::reinforce::MEAN_RANGE`]
/// (the range rule keeps it; with no edges there is no mean).
///
/// Shared by [`crate::AncEngine::check_invariants`] and the snapshot
/// validator ([`crate::EngineSnapshot::validate`]).
pub fn check_similarities(sim: &[f64], sim_sum: f64) -> Result<(), InvariantViolation> {
    for (e, s) in sim.iter().enumerate() {
        if !s.is_finite() || *s <= 0.0 {
            return Err(InvariantViolation::Similarity(format!("edge {e} has similarity {s}")));
        }
    }
    let sum: f64 = sim.iter().sum();
    if !(sum.is_finite() && sim_sum.is_finite()) || (sim_sum - sum).abs() > TOL * sum {
        return Err(InvariantViolation::Similarity(format!(
            "running sum {sim_sum} but the similarities sum to {sum}"
        )));
    }
    let mean = sim_sum / sim.len().max(1) as f64;
    if !sim.is_empty() && !crate::reinforce::MEAN_RANGE.contains(&mean) {
        return Err(InvariantViolation::Similarity(format!(
            "mean similarity {mean:e} outside the range rule's window"
        )));
    }
    Ok(())
}

/// Checks that the materialized reciprocal weights equal `1/S` edge for
/// edge, bit for bit (NegM, Lemma 4): a power-of-two range step keeps
/// `fl(1/s)·2^j == fl(1/(s·2^-j))`, and a restore re-derives `recip` as
/// `1/S`. Assumes [`check_similarities`] already passed.
pub fn check_recip_sync(sim: &[f64], recip: &[f64]) -> Result<(), InvariantViolation> {
    if sim.len() != recip.len() {
        return Err(InvariantViolation::Similarity(format!(
            "recip has {} entries for {} similarities",
            recip.len(),
            sim.len()
        )));
    }
    for (e, (s, r)) in sim.iter().zip(recip).enumerate() {
        if r.to_bits() != (1.0 / s).to_bits() {
            return Err(InvariantViolation::Similarity(format!(
                "recip of edge {e} out of sync: {r} vs 1/{s}"
            )));
        }
    }
    Ok(())
}

/// Checks the decay store and the per-node sums: every anchored activeness
/// is finite and non-negative, and `A(v)` equals the sum of anchored
/// activeness over `v`'s incident edges (the Def. 2 algebra — both sides
/// absorb the same global factor, so the identity is scale-free).
pub fn check_activeness(
    g: &Graph,
    act: &[f64],
    node_sum: &[f64],
) -> Result<(), InvariantViolation> {
    if act.len() != g.m() {
        return Err(InvariantViolation::Activeness(format!(
            "store has {} entries for {} edges",
            act.len(),
            g.m()
        )));
    }
    if node_sum.len() != g.n() {
        return Err(InvariantViolation::Activeness(format!(
            "node_sum has {} entries for {} nodes",
            node_sum.len(),
            g.n()
        )));
    }
    for (e, a) in act.iter().enumerate() {
        if !a.is_finite() || *a < 0.0 {
            return Err(InvariantViolation::Activeness(format!("edge {e} has activeness {a}")));
        }
    }
    for v in 0..g.n() as NodeId {
        let expect: f64 = g.neighbor_edge_ids(v).iter().map(|&e| act[e as usize]).sum();
        let got = node_sum[v as usize];
        if !got.is_finite() || (got - expect).abs() > TOL * (1.0 + expect.abs()) {
            return Err(InvariantViolation::Activeness(format!(
                "A({v}) = {got} but incident activeness sums to {expect}"
            )));
        }
    }
    Ok(())
}

/// Checks CSR well-formedness: adjacency lists sorted and in bounds, no
/// self-loops, neighbor/edge-id lists aligned, edge ids symmetric (each edge
/// appears in both endpoints' lists and `endpoints` agrees), and the degree
/// sum equals `2m`.
pub fn check_graph(g: &Graph) -> Result<(), InvariantViolation> {
    let (n, m) = (g.n(), g.m());
    let mut deg_sum = 0usize;
    for v in 0..n as NodeId {
        let nbrs = g.neighbors(v);
        let eids = g.neighbor_edge_ids(v);
        if nbrs.len() != eids.len() {
            return Err(InvariantViolation::Graph(format!(
                "node {v}: {} neighbors but {} edge ids",
                nbrs.len(),
                eids.len()
            )));
        }
        deg_sum += nbrs.len();
        for (i, (&y, &e)) in nbrs.iter().zip(eids).enumerate() {
            if y as usize >= n {
                return Err(InvariantViolation::Graph(format!("node {v}: neighbor {y} ≥ n")));
            }
            if y == v {
                return Err(InvariantViolation::Graph(format!("self-loop at node {v}")));
            }
            if i > 0 && nbrs[i - 1] > y {
                return Err(InvariantViolation::Graph(format!(
                    "adjacency of node {v} unsorted at position {i}"
                )));
            }
            if e as usize >= m {
                return Err(InvariantViolation::Graph(format!("node {v}: edge id {e} ≥ m")));
            }
            let (a, b) = g.endpoints(e);
            if !((a == v && b == y) || (a == y && b == v)) {
                return Err(InvariantViolation::Graph(format!(
                    "edge {e} listed at ({v},{y}) but has endpoints ({a},{b})"
                )));
            }
        }
    }
    if deg_sum != 2 * m {
        return Err(InvariantViolation::Graph(format!("degree sum {deg_sum} ≠ 2m = {}", 2 * m)));
    }
    // Symmetry: every edge is reachable from both of its endpoints.
    for (e, u, v) in g.iter_edges() {
        if g.edge_id(u, v) != Some(e) || g.edge_id(v, u) != Some(e) {
            return Err(InvariantViolation::Graph(format!(
                "edge {e} = ({u},{v}) not found symmetrically via edge_id"
            )));
        }
    }
    Ok(())
}

/// Checks a clustering extracted from the index: one label per node, labels
/// dense in `0..num_clusters` (besides [`NOISE`]), and no empty cluster id.
pub fn check_clustering(g: &Graph, c: &Clustering) -> Result<(), InvariantViolation> {
    if c.n() != g.n() {
        return Err(InvariantViolation::Clustering(format!(
            "{} labels for {} nodes",
            c.n(),
            g.n()
        )));
    }
    let k = c.num_clusters();
    let mut seen = vec![false; k];
    for v in 0..g.n() as NodeId {
        let l = c.label(v);
        if l != NOISE {
            if l as usize >= k {
                return Err(InvariantViolation::Clustering(format!(
                    "node {v} has label {l} ≥ num_clusters {k}"
                )));
            }
            seen[l as usize] = true;
        }
    }
    if let Some(empty) = seen.iter().position(|&s| !s) {
        return Err(InvariantViolation::Clustering(format!("cluster id {empty} has no members")));
    }
    Ok(())
}

/// Checks the incremental cluster-query cache against the index, for every
/// materialized level:
///
/// * the level is live: a stale level's repairs name no nodes, so its rows
///   would have nothing to be compared against;
/// * a seed-row entry differs from the live partition only for a
///   `(node, pyramid)` pair that is **pending** — the soundness of feeding
///   the cache the repairs' affected sets (a seed a repair moved without
///   naming the node would stay stale for ever);
/// * every voted bit, at all times, equals the vote of its edge's two rows —
///   two unreachable endpoints ([`NO_NODE`] twice) agreeing on nothing;
/// * the maintained voted-degree table equals a recount from the bitset;
/// * with nothing pending — the rows then equal the index — every cached
///   clustering equals the cold extraction [`crate::cluster::cluster_all`]
///   would produce;
/// * the smallest node the even repair keeps for each label of a cached
///   even clustering is that label's smallest node (at all times: the two
///   change together).
pub fn check_cluster_cache(
    g: &Graph,
    pyr: &crate::pyramid::Pyramids,
    cache: &crate::cache::ClusterCache,
) -> Result<(), InvariantViolation> {
    use crate::cluster::{cluster_all, ClusterMode};
    let (n, k) = (g.n(), pyr.k());
    for level in 0..cache.num_levels() {
        let (Some(voted), Some(rows), Some(pending), Some(kept_deg)) = (
            cache.voted_bits(level),
            cache.seed_rows(level),
            cache.pending_nodes(level),
            cache.voted_degrees(level),
        ) else {
            continue;
        };
        if !pyr.is_live(level) {
            return Err(InvariantViolation::Cache(format!(
                "level {level} is materialized but stale: repairs no longer name its nodes"
            )));
        }
        if rows.len() != n * k || pending.len() != k || voted.len() != g.m() {
            return Err(InvariantViolation::Cache(format!(
                "level {level}: {} row entries, {} pending lists, {} vote bits for n = {n}, \
                 k = {k}, m = {}",
                rows.len(),
                pending.len(),
                voted.len(),
                g.m()
            )));
        }
        let mut is_pending = vec![false; n * k];
        for (p, list) in pending.iter().enumerate() {
            for &v in list {
                is_pending[v as usize * k + p] = true;
            }
        }
        for (i, (&cached, &pends)) in rows.iter().zip(&is_pending).enumerate() {
            let (v, p) = ((i / k) as NodeId, i % k);
            let live = pyr.partition(p, level).seed_of(v);
            if cached != live && !pends {
                return Err(InvariantViolation::Cache(format!(
                    "level {level}: row of node {v} holds seed {cached} in pyramid {p}, the \
                     index says {live}, and the pair is not pending"
                )));
            }
        }
        let mut recount = vec![0u32; n];
        for (e, u, v) in g.iter_edges() {
            let (ru, rv) = (&rows[u as usize * k..][..k], &rows[v as usize * k..][..k]);
            let agree = ru.iter().zip(rv).filter(|&(a, b)| a == b && *a != NO_NODE).count();
            let vote = agree >= pyr.needed_votes();
            if voted.get(e) != vote {
                return Err(InvariantViolation::Cache(format!(
                    "level {level}: edge {e} cached vote {} but its rows agree in {agree} of {k} \
                     pyramids",
                    voted.get(e)
                )));
            }
            if vote {
                recount[u as usize] += 1;
                recount[v as usize] += 1;
            }
        }
        if let Some(v) = (0..n).find(|&v| kept_deg.get(v) != Some(&recount[v])) {
            return Err(InvariantViolation::Cache(format!(
                "level {level}: voted degree of node {v} is {:?} but bitset recount gives {}",
                kept_deg.get(v),
                recount[v]
            )));
        }
        if pending.iter().all(Vec::is_empty) {
            for mode in [ClusterMode::Even, ClusterMode::Power] {
                if let Some(cached) = cache.cached(level, mode) {
                    let cold = cluster_all(g, pyr, level, mode);
                    if *cached != cold {
                        return Err(InvariantViolation::Cache(format!(
                            "level {level}: cached {mode:?} clustering diverged from cold \
                             extraction ({} vs {} clusters)",
                            cached.num_clusters(),
                            cold.num_clusters()
                        )));
                    }
                }
            }
        }
        if let (Some(even), Some(first)) =
            (cache.cached(level, ClusterMode::Even), cache.even_minima(level))
        {
            let mut smallest = vec![NO_NODE; even.num_clusters()];
            for (v, &l) in even.labels().iter().enumerate() {
                let slot = &mut smallest[l as usize];
                *slot = (*slot).min(v as NodeId);
            }
            if let Some(l) =
                (0..smallest.len().max(first.len())).find(|&l| first.get(l) != smallest.get(l))
            {
                return Err(InvariantViolation::Cache(format!(
                    "level {level}: even label {l} has smallest node {:?}, the cache keeps \
                     {:?}",
                    smallest.get(l),
                    first.get(l)
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_graph::gen::paper_figure2;

    #[test]
    fn similarities_accept_positive_finite() {
        check_similarities(&[1.0, 0.5, 1e70], 1e70).unwrap();
        check_similarities(&[], 0.0).unwrap();
        for bad in [&[1.0, 0.0][..], &[f64::NAN], &[-2.0], &[f64::INFINITY]] {
            let sum = bad.iter().sum();
            assert!(matches!(check_similarities(bad, sum), Err(InvariantViolation::Similarity(_))));
        }
        // A running sum that drifted from the values, and means past either
        // end of the window.
        for (sim, sum) in
            [(&[1.0, 2.0][..], 3.1), (&[1e300, 1.0][..], 1e300), (&[1e-80][..], 1e-80)]
        {
            assert!(check_similarities(sim, sum).is_err(), "{sim:?}");
        }
    }

    #[test]
    fn recip_sync_detects_drift() {
        check_recip_sync(&[2.0, 4.0], &[0.5, 0.25]).unwrap();
        assert!(check_recip_sync(&[2.0], &[0.5000001]).is_err());
        // One ulp off is out of sync too.
        let third = 1.0f64 / 3.0;
        assert!(check_recip_sync(&[3.0], &[f64::from_bits(third.to_bits() + 1)]).is_err());
        assert!(check_recip_sync(&[2.0, 4.0], &[0.5]).is_err());
    }

    #[test]
    fn activeness_consistency() {
        let (g, _) = paper_figure2();
        let act = vec![1.0; g.m()];
        let node_sum: Vec<f64> = (0..g.n() as NodeId).map(|v| g.degree(v) as f64).collect();
        check_activeness(&g, &act, &node_sum).unwrap();
        // A drifted node sum is caught.
        let mut bad = node_sum.clone();
        bad[3] += 0.5;
        assert!(matches!(check_activeness(&g, &act, &bad), Err(InvariantViolation::Activeness(_))));
        // A negative anchored activeness is caught.
        let mut bad_act = act.clone();
        bad_act[0] = -1.0;
        assert!(check_activeness(&g, &bad_act, &node_sum).is_err());
        // Arity mismatches are caught.
        assert!(check_activeness(&g, &act[1..], &node_sum).is_err());
        assert!(check_activeness(&g, &act, &node_sum[1..]).is_err());
    }

    #[test]
    fn built_graphs_are_well_formed() {
        let (g, _) = paper_figure2();
        check_graph(&g).unwrap();
        check_graph(&anc_graph::gen::erdos_renyi(40, 80, 3)).unwrap();
        check_graph(&anc_graph::gen::barabasi_albert(50, 3, 9)).unwrap();
    }

    #[test]
    fn clustering_validity() {
        let (g, _) = paper_figure2();
        let n = g.n();
        let dense = Clustering::from_labels(&vec![0; n]);
        check_clustering(&g, &dense).unwrap();
        check_clustering(&g, &Clustering::all_noise(n)).unwrap();
        check_clustering(&g, &Clustering::singletons(n)).unwrap();
        // Wrong arity.
        assert!(matches!(
            check_clustering(&g, &Clustering::all_noise(n + 1)),
            Err(InvariantViolation::Clustering(_))
        ));
        // `from_groups` can leave an empty cluster id only by construction
        // from raw member lists; densified labels cannot, so build the gap
        // explicitly: group 0 empty, group 1 holds node 0.
        let gappy = Clustering::from_groups(n, &[vec![], vec![0]]);
        assert!(matches!(check_clustering(&g, &gappy), Err(InvariantViolation::Clustering(_))));
    }
}
