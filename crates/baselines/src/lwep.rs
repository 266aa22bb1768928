//! LWEP — a weighted-graph-stream community maintainer in the style of
//! Wang, Lai & Yu (SDM 2013).
//!
//! Maintains a community assignment by weighted label propagation. Each
//! timestep decays every edge weight, applies the activations, and then
//! re-propagates labels: first synchronously over the d-hop neighborhood of
//! every changed edge, then with a global stabilization sweep. The global
//! sweep is intentionally retained — the reference method's per-update cost
//! is `O(d·|ΔE|·n²)` in the paper's accounting, and Exp 2 / Figure 10 rely
//! on LWEP being orders of magnitude slower than ANC's bounded updates
//! (DESIGN.md §3).

use anc_graph::{EdgeId, Graph};
use anc_metrics::Clustering;

/// Hop radius around changed edges for the focused propagation.
const HOPS: usize = 2;
/// Maximum global sweeps per step.
const STEP_SWEEPS: usize = 5;
/// Maximum global sweeps of the initial propagation.
const INIT_SWEEPS: usize = 10;

/// The stream engine.
pub struct LwepEngine {
    g: Graph,
    weights: Vec<f64>,
    labels: Vec<u32>,
    lambda: f64,
    now: f64,
}

impl LwepEngine {
    /// Initializes: each node seeds with the label of its locally dominant
    /// (highest weighted-degree, ties to smaller id) closed neighbor — a
    /// deterministic hub seeding that avoids the min-label cascade of
    /// singleton-seeded LPA — then propagation runs to convergence.
    pub fn new(g: Graph, initial_weights: Vec<f64>, lambda: f64) -> Self {
        assert_eq!(initial_weights.len(), g.m());
        let mut wdeg = vec![0.0f64; g.n()];
        for (e, u, v) in g.iter_edges() {
            wdeg[u as usize] += initial_weights[e as usize];
            wdeg[v as usize] += initial_weights[e as usize];
        }
        let labels = (0..g.n() as u32)
            .map(|v| {
                let mut best = (v, wdeg[v as usize]);
                for (u, _) in g.edges_of(v) {
                    let du = wdeg[u as usize];
                    if du > best.1 || (du == best.1 && u < best.0) {
                        best = (u, du);
                    }
                }
                best.0
            })
            .collect();
        let mut engine = Self { g, weights: initial_weights, labels, lambda, now: 0.0 };
        engine.propagate_all();
        engine
    }

    /// Current weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Current partition.
    pub fn clustering(&self) -> Clustering {
        Clustering::from_labels(&self.labels)
    }

    /// One weighted label-propagation visit of node `v`; returns true if the
    /// label changed. A move requires a *strictly* better total vote than the
    /// current label's (ties keep the current label; among strictly better
    /// candidates the smaller label wins), keeping the sweep deterministic
    /// and cascade-free.
    fn visit(&mut self, v: u32) -> bool {
        let mut acc: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for (u, e) in self.g.edges_of(v) {
            *acc.entry(self.labels[u as usize]).or_insert(0.0) += self.weights[e as usize];
        }
        let current = self.labels[v as usize];
        let current_votes = acc.get(&current).copied().unwrap_or(0.0);
        let mut best = (current, current_votes);
        for (&label, &votes) in &acc {
            if votes > best.1 + 1e-12
                || (votes > current_votes + 1e-12
                    && (votes - best.1).abs() <= 1e-12
                    && label < best.0)
            {
                best = (label, votes);
            }
        }
        if best.0 != current {
            self.labels[v as usize] = best.0;
            true
        } else {
            false
        }
    }

    fn propagate_all(&mut self) {
        for _ in 0..INIT_SWEEPS {
            let mut changed = false;
            for v in 0..self.g.n() as u32 {
                changed |= self.visit(v);
            }
            if !changed {
                break;
            }
        }
    }

    /// Advances to time `t`: decays all weights, applies activations, then
    /// re-propagates (focused d-hop pass + global stabilization sweeps).
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

        // Focused propagation over the d-hop neighborhoods of changed edges.
        let mut frontier: Vec<u32> = Vec::new();
        let mut seen = vec![false; self.g.n()];
        for &e in activations {
            let (u, v) = self.g.endpoints(e);
            for x in [u, v] {
                if !seen[x as usize] {
                    seen[x as usize] = true;
                    frontier.push(x);
                }
            }
        }
        for _ in 0..HOPS {
            let mut next = Vec::new();
            for &x in &frontier {
                self.visit(x);
                for (y, _) in self.g.edges_of(x) {
                    if !seen[y as usize] {
                        seen[y as usize] = true;
                        next.push(y);
                    }
                }
            }
            frontier = next;
        }
        // Global stabilization — the expensive part the paper observes.
        for _ in 0..STEP_SWEEPS {
            let mut changed = false;
            for v in 0..self.g.n() as u32 {
                changed |= self.visit(v);
            }
            if !changed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_graph::gen::connected_caveman;

    #[test]
    fn initial_propagation_finds_cliques() {
        let lg = connected_caveman(4, 8);
        let w = vec![1.0; lg.graph.m()];
        let engine = LwepEngine::new(lg.graph.clone(), w, 0.1);
        let truth = Clustering::from_labels(&lg.labels);
        let score = anc_metrics::nmi(&engine.clustering(), &truth);
        assert!(score > 0.8, "LPA should find cliques, NMI = {score}");
    }

    #[test]
    fn decay_and_activation_bookkeeping() {
        let lg = connected_caveman(2, 4);
        let w = vec![1.0; lg.graph.m()];
        let mut engine = LwepEngine::new(lg.graph.clone(), w, 1.0);
        engine.step(1.0, &[0]);
        let f = (-1.0f64).exp();
        assert!((engine.weights()[0] - (f + 1.0)).abs() < 1e-12);
        assert!((engine.weights()[1] - f).abs() < 1e-12);
    }

    #[test]
    fn hot_bridge_merges_labels() {
        let lg = connected_caveman(2, 4);
        let g = lg.graph.clone();
        let bridge = g
            .iter_edges()
            .find(|&(_, u, v)| lg.labels[u as usize] != lg.labels[v as usize])
            .map(|(e, _, _)| e)
            .unwrap();
        let w = vec![1.0; g.m()];
        let mut engine = LwepEngine::new(g, w, 0.5);
        for t in 1..=30 {
            engine.step(t as f64, &[bridge; 3]);
        }
        assert!(
            engine.clustering().num_clusters() <= 2,
            "heavy bridge should pull communities together"
        );
    }

    #[test]
    fn deterministic() {
        let lg = connected_caveman(3, 5);
        let w = vec![1.0; lg.graph.m()];
        let mut a = LwepEngine::new(lg.graph.clone(), w.clone(), 0.2);
        let mut b = LwepEngine::new(lg.graph.clone(), w, 0.2);
        for t in 1..=10 {
            a.step(t as f64, &[(t % lg.graph.m()) as u32]);
            b.step(t as f64, &[(t % lg.graph.m()) as u32]);
        }
        assert_eq!(a.clustering(), b.clustering());
    }
}
