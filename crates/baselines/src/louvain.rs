//! Louvain — fast unfolding of communities (Blondel et al., 2008).
//!
//! Greedy weighted-modularity maximization in two repeated phases:
//! local moves (each node greedily joins the neighboring community with the
//! best modularity gain until none improves) and aggregation (communities
//! collapse into super-nodes). Used by the paper both as the offline
//! baseline LOUV and as the base optimizer of DYNA.

use anc_graph::Graph;
use anc_metrics::Clustering;

/// Louvain parameters.
#[derive(Clone, Copy, Debug)]
pub struct LouvainParams {
    /// Maximum outer (level) iterations.
    pub max_levels: usize,
    /// Maximum local-move sweeps per level.
    pub max_sweeps: usize,
    /// Minimum total modularity gain per sweep to continue.
    pub min_gain: f64,
}

impl Default for LouvainParams {
    fn default() -> Self {
        Self { max_levels: 10, max_sweeps: 20, min_gain: 1e-7 }
    }
}

/// A flat weighted graph in adjacency-list form used for the aggregation
/// phase (meta graphs are dense in communities, not in original nodes).
struct MetaGraph {
    /// adj[v] = (neighbor, weight); parallel edges pre-merged.
    adj: Vec<Vec<(u32, f64)>>,
    /// Self-loop weight per node (internal weight of the collapsed group,
    /// counted once).
    selfw: Vec<f64>,
    /// Total edge weight `W` (each undirected edge once, self-loops once).
    total: f64,
}

impl MetaGraph {
    fn from_graph(g: &Graph, weights: &[f64]) -> Self {
        let mut adj = vec![Vec::new(); g.n()];
        let mut total = 0.0;
        for (e, u, v) in g.iter_edges() {
            let w = weights[e as usize];
            adj[u as usize].push((v, w));
            adj[v as usize].push((u, w));
            total += w;
        }
        Self { adj, selfw: vec![0.0; g.n()], total }
    }

    fn n(&self) -> usize {
        self.adj.len()
    }

    /// Weighted degree including twice the self-loop (standard convention).
    fn wdeg(&self, v: usize) -> f64 {
        self.adj[v].iter().map(|&(_, w)| w).sum::<f64>() + 2.0 * self.selfw[v]
    }
}

/// One level of local moves. Returns (community labels, improved?).
fn local_moves(mg: &MetaGraph, params: &LouvainParams) -> (Vec<u32>, bool) {
    let n = mg.n();
    let two_w = 2.0 * mg.total;
    if two_w <= 0.0 {
        return ((0..n as u32).collect(), false);
    }
    let mut comm: Vec<u32> = (0..n as u32).collect();
    // Σ of weighted degrees per community.
    let mut comm_deg: Vec<f64> = (0..n).map(|v| mg.wdeg(v)).collect();
    let node_deg: Vec<f64> = comm_deg.clone();
    let mut improved_any = false;

    let mut neigh_w: Vec<f64> = vec![0.0; n];
    let mut touched: Vec<u32> = Vec::new();

    for _ in 0..params.max_sweeps {
        let mut gain_total = 0.0;
        for v in 0..n {
            let cv = comm[v] as usize;
            // Weights from v to each neighboring community.
            for &t in &touched {
                neigh_w[t as usize] = 0.0;
            }
            touched.clear();
            for &(u, w) in &mg.adj[v] {
                let cu = comm[u as usize] as usize;
                if neigh_w[cu] == 0.0 {
                    touched.push(cu as u32);
                }
                neigh_w[cu] += w;
            }
            // Remove v from its community.
            comm_deg[cv] -= node_deg[v];
            let base_links = neigh_w[cv];
            // Gain of joining community c: k_{v,c}/W − deg_c·deg_v/(2W²)
            // (constant factors dropped; compared relative to staying).
            let mut best_c = cv;
            let mut best_gain = base_links - comm_deg[cv] * node_deg[v] / two_w;
            for &t in &touched {
                let c = t as usize;
                if c == cv {
                    continue;
                }
                let gain = neigh_w[c] - comm_deg[c] * node_deg[v] / two_w;
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best_c = c;
                }
            }
            comm_deg[best_c] += node_deg[v];
            if best_c != cv {
                comm[v] = best_c as u32;
                improved_any = true;
                gain_total += best_gain;
            }
        }
        if gain_total <= params.min_gain {
            break;
        }
    }
    (comm, improved_any)
}

/// Aggregates a meta graph by community labels (densified in the caller).
fn aggregate(mg: &MetaGraph, comm: &[u32], k: usize) -> MetaGraph {
    let mut edge_acc: std::collections::BTreeMap<(u32, u32), f64> =
        std::collections::BTreeMap::new();
    let mut selfw = vec![0.0f64; k];
    for (v, c) in comm.iter().enumerate() {
        selfw[*c as usize] += mg.selfw[v];
    }
    for v in 0..mg.n() {
        let cv = comm[v];
        for &(u, w) in &mg.adj[v] {
            if (u as usize) < v {
                continue; // each undirected edge once
            }
            let cu = comm[u as usize];
            if cu == cv {
                selfw[cv as usize] += w;
            } else {
                let key = (cv.min(cu), cv.max(cu));
                *edge_acc.entry(key).or_insert(0.0) += w;
            }
        }
    }
    let mut adj = vec![Vec::new(); k];
    let mut total: f64 = selfw.iter().sum();
    for ((a, b), w) in edge_acc {
        adj[a as usize].push((b, w));
        adj[b as usize].push((a, w));
        total += w;
    }
    MetaGraph { adj, selfw, total }
}

fn densify(comm: &mut [u32]) -> usize {
    let mut remap = std::collections::HashMap::new();
    let mut next = 0u32;
    for c in comm.iter_mut() {
        let e = remap.entry(*c).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        });
        *c = *e;
    }
    next as usize
}

/// Runs Louvain over edge weights `weights`. Returns the final partition of
/// the original nodes.
pub fn cluster(g: &Graph, weights: &[f64], params: &LouvainParams) -> Clustering {
    let n = g.n();
    if n == 0 {
        return Clustering::from_labels(&[]);
    }
    let mut mg = MetaGraph::from_graph(g, weights);
    // node → current community of the ORIGINAL node.
    let mut assign: Vec<u32> = (0..n as u32).collect();
    for _ in 0..params.max_levels {
        let (mut comm, improved) = local_moves(&mg, params);
        if !improved {
            break;
        }
        let k = densify(&mut comm);
        for a in assign.iter_mut() {
            *a = comm[*a as usize];
        }
        if k == mg.n() {
            break; // no compression achieved
        }
        mg = aggregate(&mg, &comm, k);
    }
    Clustering::from_labels(&assign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_graph::gen::{connected_caveman, planted_partition, PlantedConfig};
    use anc_graph::Graph;
    use anc_metrics::modularity;

    #[test]
    fn recovers_caveman_cliques() {
        let lg = connected_caveman(4, 8);
        let w = vec![1.0; lg.graph.m()];
        let c = cluster(&lg.graph, &w, &LouvainParams::default());
        let truth = Clustering::from_labels(&lg.labels);
        let score = anc_metrics::nmi(&c, &truth);
        assert!(score > 0.95, "Louvain should nail cliques, NMI = {score}");
    }

    #[test]
    fn achieves_high_modularity_on_planted() {
        let cfg = PlantedConfig {
            n: 300,
            communities: 6,
            avg_intra_degree: 10.0,
            mixing: 0.1,
            size_exponent: 0.0,
        };
        let lg = planted_partition(&cfg, 5);
        let w = vec![1.0; lg.graph.m()];
        let c = cluster(&lg.graph, &w, &LouvainParams::default());
        let q = modularity(&lg.graph, &c, |_| 1.0);
        let q_truth = modularity(&lg.graph, &Clustering::from_labels(&lg.labels), |_| 1.0);
        assert!(q > 0.6, "modularity {q}");
        assert!(q >= q_truth - 0.05, "Louvain ({q}) should match truth ({q_truth})");
    }

    #[test]
    fn weights_steer_partition() {
        // One clique with half its internal edges downweighted splits when
        // the cross weights dominate.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let mut w = vec![1.0; g.m()];
        let c1 = cluster(&g, &w, &LouvainParams::default());
        assert_eq!(c1.num_clusters(), 2);
        // Crank up the bridge: communities merge.
        w[g.edge_id(2, 3).unwrap() as usize] = 100.0;
        let c2 = cluster(&g, &w, &LouvainParams::default());
        assert!(c2.label(2) == c2.label(3));
    }

    #[test]
    fn handles_disconnected_and_empty() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let w = vec![1.0; g.m()];
        let c = cluster(&g, &w, &LouvainParams::default());
        assert_eq!(c.num_clusters(), 2);
        let g0 = Graph::from_edges(0, &[]);
        let c0 = cluster(&g0, &[], &LouvainParams::default());
        assert_eq!(c0.num_clusters(), 0);
    }

    #[test]
    fn tends_to_few_large_clusters() {
        // The paper criticizes LOUV for finding far fewer clusters than the
        // ground truth; verify the tendency on a many-small-communities graph.
        let cfg = PlantedConfig::default_for(800);
        let lg = planted_partition(&cfg, 9);
        let w = vec![1.0; lg.graph.m()];
        let c = cluster(&lg.graph, &w, &LouvainParams::default());
        let truth_k = lg.num_communities();
        assert!(c.num_clusters() < truth_k, "Louvain {} vs truth {truth_k}", c.num_clusters());
    }
}
