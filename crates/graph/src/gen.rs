//! Deterministic synthetic graph generators.
//!
//! The paper evaluates on 17 real graphs (SNAP / network-repository). Those
//! are not available offline, so every experiment in this workspace runs on
//! synthetic stand-ins produced here (DESIGN.md §3). The generators control
//! the properties that drive the algorithms under study: size, density,
//! degree skew and planted community structure.
//!
//! All generators are seeded and deterministic.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{Graph, GraphBuilder, NodeId};

/// A graph together with planted ground-truth community labels.
#[derive(Clone, Debug)]
pub struct LabeledGraph {
    /// The generated relation network.
    pub graph: Graph,
    /// `labels[v]` is the planted community of node `v`, dense in
    /// `0..num_communities`.
    pub labels: Vec<u32>,
}

impl LabeledGraph {
    /// Number of distinct planted communities.
    pub fn num_communities(&self) -> usize {
        self.labels.iter().copied().max().map_or(0, |m| m as usize + 1)
    }
}

fn rng_for(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct uniform random edges.
///
/// Sampling is by rejection, so `m` must leave the graph reasonably sparse
/// (`m <= n(n-1)/4` is enforced).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Graph {
    let max = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= max / 2 || max <= 2,
        "erdos_renyi: m = {m} too dense for rejection sampling (n = {n})"
    );
    let mut rng = rng_for(seed);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut b = GraphBuilder::with_capacity(n, m);
    if n < 2 {
        return b.build();
    }
    while seen.len() < m {
        let u = rng.gen_range(0..n as NodeId);
        let v = rng.gen_range(0..n as NodeId);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            b.add_edge(key.0, key.1);
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: each new node attaches to
/// `m_attach` existing nodes with probability proportional to degree.
///
/// Produces the heavy-tailed degree distributions typical of the paper's
/// social-network datasets.
pub fn barabasi_albert(n: usize, m_attach: usize, seed: u64) -> Graph {
    assert!(m_attach >= 1, "barabasi_albert: m_attach must be >= 1");
    assert!(n > m_attach, "barabasi_albert: n must exceed m_attach");
    let mut rng = rng_for(seed);
    let mut b = GraphBuilder::with_capacity(n, n * m_attach);
    // Repeated-node list: node v appears deg(v) times; sampling uniformly
    // from it realizes preferential attachment.
    let mut stubs: Vec<NodeId> = Vec::with_capacity(2 * n * m_attach);

    // Seed clique over the first m_attach + 1 nodes.
    let k = m_attach + 1;
    for u in 0..k as NodeId {
        for v in (u + 1)..k as NodeId {
            b.add_edge(u, v);
            stubs.push(u);
            stubs.push(v);
        }
    }
    for v in k as NodeId..n as NodeId {
        // BTreeSet: `targets` is iterated below, and hash-set order would
        // leak SipHash's per-process randomness into the edge insertion
        // order (and thus edge ids) across runs.
        let mut targets = std::collections::BTreeSet::new();
        while targets.len() < m_attach {
            let t = stubs[rng.gen_range(0..stubs.len())];
            targets.insert(t);
        }
        for &t in &targets {
            b.add_edge(v, t);
            stubs.push(v);
            stubs.push(t);
        }
    }
    b.build()
}

/// Configuration for [`planted_partition`].
#[derive(Clone, Debug)]
pub struct PlantedConfig {
    /// Total number of nodes.
    pub n: usize,
    /// Target number of communities.
    pub communities: usize,
    /// Expected *intra*-community degree per node.
    pub avg_intra_degree: f64,
    /// Mixing parameter μ ∈ [0, 1): fraction of a node's edges that leave its
    /// community. μ = 0 gives disjoint clusters; μ → 1 destroys structure.
    pub mixing: f64,
    /// Power-law exponent for community sizes (≈2 gives many small plus a few
    /// large communities, matching real networks per Leskovec et al.). Use 0.0
    /// for equal-sized communities.
    pub size_exponent: f64,
}

impl PlantedConfig {
    /// A reasonable default: `communities ≈ 2√n`, avg intra degree 8, μ=0.2,
    /// power-law community sizes. Matches the paper's ground-truth setup of
    /// `2√n` clusters on activation graphs (Section VI-A).
    pub fn default_for(n: usize) -> Self {
        Self {
            n,
            communities: (2.0 * (n as f64).sqrt()).round().max(1.0) as usize,
            avg_intra_degree: 8.0,
            mixing: 0.2,
            size_exponent: 2.0,
        }
    }
}

/// Planted-partition / LFR-lite community benchmark.
///
/// Nodes are split into `communities` groups (power-law sizes when
/// `size_exponent > 0`). Each node receives `avg_intra_degree` expected edges
/// inside its community and a `mixing / (1 - mixing)` proportion of
/// cross-community edges, wired by uniform endpoint sampling.
pub fn planted_partition(cfg: &PlantedConfig, seed: u64) -> LabeledGraph {
    assert!(cfg.n > 0 && cfg.communities > 0);
    assert!((0.0..1.0).contains(&cfg.mixing), "mixing must be in [0, 1)");
    let mut rng = rng_for(seed);
    let c = cfg.communities.min(cfg.n);

    // --- Community sizes -------------------------------------------------
    let mut sizes = vec![0usize; c];
    if cfg.size_exponent > 0.0 {
        // Sample raw power-law weights and scale to n, ensuring >= 2 each.
        let mut weights = vec![0.0f64; c];
        for w in &mut weights {
            let u: f64 = rng.gen_range(0.0001..1.0);
            *w = u.powf(-1.0 / cfg.size_exponent);
        }
        let total: f64 = weights.iter().sum();
        let mut assigned = 0usize;
        for i in 0..c {
            let s = ((weights[i] / total) * cfg.n as f64).floor().max(1.0) as usize;
            sizes[i] = s;
            assigned += s;
        }
        // Distribute the remainder (or trim overshoot) round-robin.
        let mut i = 0;
        while assigned < cfg.n {
            sizes[i % c] += 1;
            assigned += 1;
            i += 1;
        }
        while assigned > cfg.n {
            let j = i % c;
            if sizes[j] > 1 {
                sizes[j] -= 1;
                assigned -= 1;
            }
            i += 1;
        }
    } else {
        for (i, size) in sizes.iter_mut().enumerate() {
            *size = cfg.n / c + usize::from(i < cfg.n % c);
        }
    }

    // --- Node → community assignment (shuffled node ids so that node id
    //     carries no community information) -------------------------------
    let mut perm: Vec<NodeId> = (0..cfg.n as NodeId).collect();
    perm.shuffle(&mut rng);
    let mut labels = vec![0u32; cfg.n];
    let mut members: Vec<Vec<NodeId>> = Vec::with_capacity(c);
    let mut cursor = 0usize;
    for (ci, &sz) in sizes.iter().enumerate() {
        let group: Vec<NodeId> = perm[cursor..cursor + sz].to_vec();
        for &v in &group {
            labels[v as usize] = ci as u32;
        }
        members.push(group);
        cursor += sz;
    }

    // --- Intra-community edges -------------------------------------------
    let mut b = GraphBuilder::with_capacity(cfg.n, (cfg.n as f64 * cfg.avg_intra_degree) as usize);
    for group in &members {
        let s = group.len();
        if s < 2 {
            continue;
        }
        // Expected intra edges: s * avg_intra_degree / 2, capped at the clique size.
        let want = (((s as f64) * cfg.avg_intra_degree / 2.0) as usize).min(s * (s - 1) / 2);
        if want >= s * (s - 1) / 2 {
            for i in 0..s {
                for j in (i + 1)..s {
                    b.add_edge(group[i], group[j]);
                }
            }
        } else {
            // Spanning chain first so every community is internally connected,
            // then random fill.
            for w in group.windows(2) {
                b.add_edge(w[0], w[1]);
            }
            let extra = want.saturating_sub(s - 1);
            for _ in 0..extra {
                let i = rng.gen_range(0..s);
                let j = rng.gen_range(0..s);
                if i != j {
                    b.add_edge(group[i], group[j]);
                }
            }
        }
    }

    // --- Inter-community edges -------------------------------------------
    // Each node gets on average avg_intra_degree * mixing / (1 - mixing)
    // cross edges so that the realized mixing ratio is ≈ cfg.mixing.
    if c > 1 && cfg.mixing > 0.0 {
        let per_node = cfg.avg_intra_degree * cfg.mixing / (1.0 - cfg.mixing);
        let total_cross = (cfg.n as f64 * per_node / 2.0) as usize;
        let mut placed = 0usize;
        let mut attempts = 0usize;
        while placed < total_cross && attempts < total_cross * 20 {
            attempts += 1;
            let u = rng.gen_range(0..cfg.n as NodeId);
            let v = rng.gen_range(0..cfg.n as NodeId);
            if u != v && labels[u as usize] != labels[v as usize] {
                b.add_edge(u, v);
                placed += 1;
            }
        }
    }

    LabeledGraph { graph: b.build(), labels }
}

/// Connected caveman graph: `cliques` cliques of `size` nodes, neighbouring
/// cliques joined by a single bridge edge. The canonical "obvious clusters"
/// fixture.
pub fn connected_caveman(cliques: usize, size: usize) -> LabeledGraph {
    assert!(size >= 2);
    let n = cliques * size;
    let mut b = GraphBuilder::with_capacity(n, cliques * size * size / 2 + cliques);
    let mut labels = vec![0u32; n];
    for k in 0..cliques {
        let base = (k * size) as NodeId;
        for i in 0..size as NodeId {
            labels[(base + i) as usize] = k as u32;
            for j in (i + 1)..size as NodeId {
                b.add_edge(base + i, base + j);
            }
        }
        if k + 1 < cliques {
            // Bridge: last node of clique k to first node of clique k+1.
            b.add_edge(base + size as NodeId - 1, base + size as NodeId);
        }
    }
    LabeledGraph { graph: b.build(), labels }
}

/// The 13-node example graph from the paper's Figure 2(a), with the edge
/// weights of the worked indexing/update examples (Figures 2–3).
///
/// Returns the graph and the initial `S_t^{-1}` edge weights so that unit
/// tests can replay the paper's Examples 3–6 exactly. Node `v_i` in the paper
/// maps to node `i - 1` here.
pub fn paper_figure2() -> (Graph, Vec<f64>) {
    // Edges (1-indexed as in the figure) with weights read from Figure 3(a):
    // Known weighted edges: (1,2)=15, (1,3)=4, (2,9)=7, (3,4)=5, (3,9)=1,
    // (4,5)=4, (4,13)=2, (5,6)=3, (5,7)=2, (6,9)=4, (6,10)=9, (9,10)=4,
    // (7,8)=2, (8,11)=1, (8,12)=2, (10,12)=8, (11,12)=5.
    let list: &[(u32, u32, f64)] = &[
        (1, 2, 15.0),
        (1, 3, 4.0),
        (2, 9, 7.0),
        (3, 4, 5.0),
        (3, 9, 1.0),
        (4, 5, 4.0),
        (4, 13, 2.0),
        (5, 6, 3.0),
        (5, 7, 2.0),
        (6, 9, 4.0),
        (6, 10, 9.0),
        (9, 10, 4.0),
        (7, 8, 2.0),
        (8, 11, 1.0),
        (8, 12, 2.0),
        (10, 12, 8.0),
        (11, 12, 5.0),
    ];
    let mut b = GraphBuilder::with_capacity(13, list.len());
    for &(u, v, _) in list {
        b.add_edge(u - 1, v - 1);
    }
    let g = b.build();
    let mut w = vec![1.0; g.m()];
    for &(u, v, wt) in list {
        // Every pair was added to the builder above, so the id always
        // resolves; the prefilled weight 1.0 stands in the impossible miss.
        if let Some(e) = g.edge_id(u - 1, v - 1) {
            w[e as usize] = wt;
        }
    }
    (g, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traverse::connected_components;

    #[test]
    fn er_has_exact_edges_and_is_deterministic() {
        let g1 = erdos_renyi(100, 300, 7);
        let g2 = erdos_renyi(100, 300, 7);
        assert_eq!(g1.m(), 300);
        assert_eq!(g2.m(), 300);
        let e1: Vec<_> = g1.iter_edges().collect();
        let e2: Vec<_> = g2.iter_edges().collect();
        assert_eq!(e1, e2);
        let g3 = erdos_renyi(100, 300, 8);
        let e3: Vec<_> = g3.iter_edges().collect();
        assert_ne!(e1, e3);
    }

    #[test]
    fn ba_degree_skew() {
        let g = barabasi_albert(500, 3, 42);
        assert!(g.m() >= 3 * (500 - 4));
        // Preferential attachment should create a hub noticeably above the
        // median degree.
        let mut degs: Vec<usize> = (0..g.n()).map(|v| g.degree(v as u32)).collect();
        degs.sort_unstable();
        let median = degs[degs.len() / 2];
        let max = *degs.last().unwrap();
        assert!(max > 4 * median, "expected hub: max {max}, median {median}");
    }

    #[test]
    fn planted_partition_structure() {
        let cfg = PlantedConfig {
            n: 400,
            communities: 8,
            avg_intra_degree: 10.0,
            mixing: 0.1,
            size_exponent: 0.0,
        };
        let lg = planted_partition(&cfg, 1);
        assert_eq!(lg.graph.n(), 400);
        assert_eq!(lg.num_communities(), 8);
        // Count intra vs inter edges: intra should dominate under μ = 0.1.
        let mut intra = 0usize;
        let mut inter = 0usize;
        for (_, u, v) in lg.graph.iter_edges() {
            if lg.labels[u as usize] == lg.labels[v as usize] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > 5 * inter, "intra {intra} inter {inter}");
    }

    #[test]
    fn planted_partition_powerlaw_sizes_cover_all_nodes() {
        let cfg = PlantedConfig::default_for(1000);
        let lg = planted_partition(&cfg, 3);
        assert_eq!(lg.labels.len(), 1000);
        let sizes = {
            let mut s = vec![0usize; lg.num_communities()];
            for &l in &lg.labels {
                s[l as usize] += 1;
            }
            s
        };
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        assert!(sizes.iter().all(|&s| s >= 1));
    }

    #[test]
    fn caveman_clusters() {
        let lg = connected_caveman(4, 5);
        assert_eq!(lg.graph.n(), 20);
        assert_eq!(lg.num_communities(), 4);
        let c = connected_components(&lg.graph);
        assert_eq!(c.count, 1, "bridged caveman must be connected");
    }

    #[test]
    fn figure2_graph() {
        let (g, w) = paper_figure2();
        assert_eq!(g.n(), 13);
        assert_eq!(g.m(), 17);
        // Spot-check a few weights from Figure 3(a).
        assert_eq!(w[g.edge_id(0, 1).unwrap() as usize], 15.0); // (v1, v2)
        assert_eq!(w[g.edge_id(7, 10).unwrap() as usize], 1.0); // (v8, v11)
        assert_eq!(w[g.edge_id(5, 9).unwrap() as usize], 9.0); // (v6, v10)
    }
}
