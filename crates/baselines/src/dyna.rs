//! DYNA — a DynaMo-style incremental modularity maximizer (after Zhuang,
//! Chang, Li, TKDE 2021).
//!
//! DynaMo maintains a Louvain-quality partition across edge-weight updates:
//! each batch of changes frees the affected nodes, re-runs constrained
//! local modularity moves seeded from them, and keeps the rest of the
//! partition intact.
//!
//! Two properties the paper's evaluation depends on are reproduced
//! faithfully (DESIGN.md §3):
//!
//! 1. **Per-timestep cost `O(|ΔE|·m/n)`-ish plus a full-graph decay pass** —
//!    under the time-decay scheme *all* edge weights change every timestep,
//!    which is exactly why DYNA underperforms on activation networks
//!    ("the weight of all edges has to be updated at every timestep even
//!    with no activation", Exp 2).
//! 2. **Rule-based drift** — incremental local moves without global
//!    refreshes gradually trap the partition in suboptimal states, so
//!    quality decays over time (Figure 4).

use anc_graph::{EdgeId, Graph};
use anc_metrics::Clustering;

use crate::louvain::{self, LouvainParams};

/// The incremental engine.
pub struct DynaEngine {
    g: Graph,
    /// Current (decayed) edge weights — updated in full every timestep.
    weights: Vec<f64>,
    /// Current communities of all nodes.
    comm: Vec<u32>,
    /// Weighted degree per node.
    wdeg: Vec<f64>,
    /// Σ weighted degree per community.
    comm_deg: Vec<f64>,
    /// Total edge weight.
    total: f64,
    lambda: f64,
    now: f64,
}

impl DynaEngine {
    /// Initializes with a full Louvain run on the initial weights.
    pub fn new(g: Graph, initial_weights: Vec<f64>, lambda: f64) -> Self {
        assert_eq!(initial_weights.len(), g.m());
        let init = louvain::cluster(&g, &initial_weights, &LouvainParams::default());
        let comm: Vec<u32> = init.labels().to_vec();
        let mut engine = Self {
            g,
            weights: initial_weights,
            comm,
            wdeg: Vec::new(),
            comm_deg: Vec::new(),
            total: 0.0,
            lambda,
            now: 0.0,
        };
        engine.recompute_aggregates();
        engine
    }

    fn recompute_aggregates(&mut self) {
        let n = self.g.n();
        self.wdeg = vec![0.0; n];
        self.total = 0.0;
        for (e, u, v) in self.g.iter_edges() {
            let w = self.weights[e as usize];
            self.wdeg[u as usize] += w;
            self.wdeg[v as usize] += w;
            self.total += w;
        }
        let k = self.comm.iter().copied().max().map_or(0, |m| m as usize + 1);
        self.comm_deg = vec![0.0; k.max(1)];
        for v in 0..n {
            self.comm_deg[self.comm[v] as usize] += self.wdeg[v];
        }
    }

    /// Current weights (exposed for metric computations).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Current partition.
    pub fn clustering(&self) -> Clustering {
        Clustering::from_labels(&self.comm)
    }

    /// Advances to time `t`, decaying **every** edge weight (the full-graph
    /// pass that makes DYNA expensive under time decay), then applies the
    /// activations (each adds 1 to its edge weight) and re-optimizes
    /// locally around the touched nodes.
    pub fn step(&mut self, t: f64, activations: &[EdgeId]) {
        let dt = (t - self.now).max(0.0);
        self.now = t;
        if dt > 0.0 && self.lambda > 0.0 {
            let f = (-self.lambda * dt).exp();
            for w in &mut self.weights {
                *w *= f;
            }
        }
        for &e in activations {
            self.weights[e as usize] += 1.0;
        }
        self.recompute_aggregates();

        // Local re-optimization seeded from the endpoints of activated
        // edges and their neighbors (DynaMo's affected-node set).
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        let mut queued = vec![false; self.g.n()];
        for &e in activations {
            let (u, v) = self.g.endpoints(e);
            for x in [u, v] {
                if !queued[x as usize] {
                    queued[x as usize] = true;
                    queue.push_back(x);
                }
                for (y, _) in self.g.edges_of(x) {
                    if !queued[y as usize] {
                        queued[y as usize] = true;
                        queue.push_back(y);
                    }
                }
            }
        }
        let two_w = 2.0 * self.total;
        if two_w <= 0.0 {
            return;
        }
        let mut moves = 0usize;
        let move_cap = self.g.n() * 4; // bound incremental work
        while let Some(v) = queue.pop_front() {
            queued[v as usize] = false;
            if moves >= move_cap {
                break;
            }
            let cv = self.comm[v as usize] as usize;
            // Link weights to neighbor communities.
            let mut acc: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
            for (u, e) in self.g.edges_of(v) {
                *acc.entry(self.comm[u as usize]).or_insert(0.0) += self.weights[e as usize];
            }
            self.comm_deg[cv] -= self.wdeg[v as usize];
            let stay = acc.get(&(cv as u32)).copied().unwrap_or(0.0)
                - self.comm_deg[cv] * self.wdeg[v as usize] / two_w;
            let mut best = (cv as u32, stay);
            for (&c, &link) in &acc {
                if c as usize == cv {
                    continue;
                }
                let gain = link - self.comm_deg[c as usize] * self.wdeg[v as usize] / two_w;
                if gain > best.1 + 1e-12 {
                    best = (c, gain);
                }
            }
            self.comm_deg[best.0 as usize] += self.wdeg[v as usize];
            if best.0 as usize != cv {
                self.comm[v as usize] = best.0;
                moves += 1;
                // Moving v may improve its neighbors too.
                for (u, _) in self.g.edges_of(v) {
                    if !queued[u as usize] {
                        queued[u as usize] = true;
                        queue.push_back(u);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_graph::gen::connected_caveman;

    #[test]
    fn initial_partition_is_louvain() {
        let lg = connected_caveman(4, 6);
        let w = vec![1.0; lg.graph.m()];
        let engine = DynaEngine::new(lg.graph.clone(), w, 0.1);
        let truth = Clustering::from_labels(&lg.labels);
        assert!(anc_metrics::nmi(&engine.clustering(), &truth) > 0.9);
    }

    #[test]
    fn decay_pass_touches_all_edges() {
        let lg = connected_caveman(2, 4);
        let w = vec![1.0; lg.graph.m()];
        let mut engine = DynaEngine::new(lg.graph.clone(), w, 0.5);
        engine.step(2.0, &[]);
        let f = (-0.5f64 * 2.0).exp();
        for e in 0..lg.graph.m() {
            assert!((engine.weights()[e] - f).abs() < 1e-12);
        }
    }

    #[test]
    fn activations_bump_weights() {
        let lg = connected_caveman(2, 4);
        let w = vec![1.0; lg.graph.m()];
        let mut engine = DynaEngine::new(lg.graph.clone(), w, 0.0);
        engine.step(1.0, &[0, 0, 1]);
        assert!((engine.weights()[0] - 3.0).abs() < 1e-12);
        assert!((engine.weights()[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn incremental_moves_track_strong_shifts() {
        // Activate the bridge heavily and starve the cliques: the two
        // cliques should eventually merge across the hot bridge.
        let lg = connected_caveman(2, 4);
        let g = lg.graph.clone();
        let bridge = g
            .iter_edges()
            .find(|&(_, u, v)| lg.labels[u as usize] != lg.labels[v as usize])
            .map(|(e, _, _)| e)
            .unwrap();
        let w = vec![1.0; g.m()];
        let mut engine = DynaEngine::new(g, w, 0.3);
        let before = engine.clustering().num_clusters();
        for t in 1..=40 {
            engine.step(t as f64, &[bridge; 4]);
        }
        let after = engine.clustering().num_clusters();
        assert!(after <= before, "hot bridge should merge clusters: {before} → {after}");
    }
}
