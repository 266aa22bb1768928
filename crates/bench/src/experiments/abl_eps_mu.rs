//! **Ablation A3** — sensitivity to the core parameters ε and µ (the
//! paper's Table II ranges: ε ∈ {0.2..0.7}, µ ∈ {2..9}; per-dataset values
//! live in the technical report, so this sweep takes its place).
//!
//! Expected shape: a broad plateau of good quality for mid-range ε/µ;
//! extreme ε classifies everything as periphery (wedge stretch dominates),
//! extreme µ removes all cores.
//!
//! Usage: `cargo run --release -p anc-bench -- abl_eps_mu [--datasets CO]`

use crate::args::Ctx;
use crate::methods::{anc_cluster_near, score};
use crate::report::{f3, Table};
use anc_core::{AncConfig, AncEngine, ClusterMode};

/// Runs the ablation on the first dataset named (default CO).
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let name = ctx.names(&["CO"]).remove(0);
    let ds = ctx.load(&name);
    let g = ds.graph.clone();
    let w = vec![1.0f64; g.m()];
    let target_k = ds.labels.iter().copied().max().map_or(1, |m| m as usize + 1);
    eprintln!("[ablA3] {name}: n = {}, m = {}", g.n(), g.m());

    let epsilons = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
    let mus = [2usize, 3, 4, 5, 6, 7, 8, 9];

    let mut table = Table::new({
        let mut h = vec!["NMI: ε \\ µ".to_string()];
        h.extend(mus.iter().map(|m| m.to_string()));
        h
    });
    let mut json = Vec::new();
    for &eps in &epsilons {
        let mut row = vec![format!("{eps}")];
        for &mu in &mus {
            let cfg = AncConfig { epsilon: eps, mu, rep: 3, ..Default::default() };
            let engine = AncEngine::new(g.clone(), cfg, ctx.seed);
            let c = anc_cluster_near(&g, engine.pyramids(), target_k, ClusterMode::Power);
            let s = score(&g, &w, &c, &ds.labels);
            row.push(f3(s.nmi));
            json.push(serde_json::json!({
                "dataset": name, "epsilon": eps, "mu": mu,
                "nmi": s.nmi, "purity": s.purity, "f1": s.f1,
            }));
        }
        table.row(row);
    }

    table.print(&format!("Ablation A3: ε/µ sensitivity on {name} (NMI)"));
    serde_json::json!(json)
}
