//! **Ablation A1** — even vs power clustering under vote corruption.
//!
//! The paper motivates `DirectedCluster` (power clustering) by the error
//! amplification of even clustering: "a cluster can be over-expanded due to
//! any mis-clustering of two nodes of an edge". This ablation quantifies
//! that: starting from the true voted-edge set of a planted graph, flip a
//! growing fraction of edge votes at random and measure how NMI degrades
//! for each extraction mode.
//!
//! Expected shape: even clustering collapses quickly (a few false positive
//! votes merge whole communities); power clustering degrades gracefully.
//!
//! Usage: `cargo run --release -p anc-bench -- abl_power_vs_even`

use crate::args::Ctx;
use crate::report::{f3, Table};
use anc_core::cluster::{even_clustering_with, power_clustering_with};
use anc_metrics::{nmi, Clustering};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Runs the ablation.
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let ds = ctx.load("CA");
    let g = &ds.graph;
    let truth = Clustering::from_labels(&ds.labels).filter_small(3);
    eprintln!("[ablA1] CA stand-in: n = {}, m = {}", g.n(), g.m());

    // Oracle votes: keep intra-community edges.
    let oracle: Vec<bool> =
        g.iter_edges().map(|(_, u, v)| ds.labels[u as usize] == ds.labels[v as usize]).collect();

    let mut table = Table::new(vec!["flip %", "even NMI", "power NMI", "even k", "power k"]);
    let mut json = Vec::new();
    for &flip_pct in &[0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed ^ (flip_pct * 100.0) as u64);
        let mut votes = oracle.clone();
        let flips = ((g.m() as f64) * flip_pct / 100.0) as usize;
        for _ in 0..flips {
            let e = rng.gen_range(0..g.m());
            votes[e] = !votes[e];
        }
        let even = even_clustering_with(g, |e| votes[e as usize]).filter_small(3);
        let power = power_clustering_with(g, |e| votes[e as usize]).filter_small(3);
        let (ne, np) = (nmi(&even, &truth), nmi(&power, &truth));
        table.row(vec![
            format!("{flip_pct}"),
            f3(ne),
            f3(np),
            even.num_clusters().to_string(),
            power.num_clusters().to_string(),
        ]);
        json.push(serde_json::json!({
            "flip_pct": flip_pct, "even_nmi": ne, "power_nmi": np,
            "even_clusters": even.num_clusters(), "power_clusters": power.num_clusters(),
        }));
    }

    table.print("Ablation A1: vote corruption (CA stand-in)");
    serde_json::json!(json)
}
