//! **Ablation A2** — sensitivity to the reinforcement repetition count
//! `rep` (the paper's Table II sweep: rep ∈ {0, 1, 3, 5, 7, 9}).
//!
//! Expected shape (paper): quality improves (or holds) as rep grows, with
//! diminishing returns; initialization cost grows linearly with rep.
//!
//! Usage: `cargo run --release -p anc-bench -- abl_rep_sweep
//! [--datasets CO,CA,LA]`

use crate::args::Ctx;
use crate::methods::{anc_cluster_near, score};
use crate::report::{f3, Table};
use crate::time;
use anc_core::{AncConfig, AncEngine, ClusterMode};

/// Runs the ablation.
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let names = ctx.names(&["CO", "CA", "LA"]);
    let reps = [0usize, 1, 3, 5, 7, 9];

    let mut table =
        Table::new(vec!["dataset", "rep", "NMI", "Purity", "F1", "Modularity", "init s"]);
    let mut json = Vec::new();
    for name in &names {
        let ds = ctx.load(name);
        let g = ds.graph.clone();
        let w = vec![1.0f64; g.m()];
        let target_k = ds.labels.iter().copied().max().map_or(1, |m| m as usize + 1);
        for &rep in &reps {
            let cfg = AncConfig { rep, ..Default::default() };
            let (engine, init_secs) = time(|| AncEngine::new(g.clone(), cfg, ctx.seed));
            let c = anc_cluster_near(&g, engine.pyramids(), target_k, ClusterMode::Power);
            let s = score(&g, &w, &c, &ds.labels);
            table.row(vec![
                name.clone(),
                rep.to_string(),
                f3(s.nmi),
                f3(s.purity),
                f3(s.f1),
                f3(s.modularity),
                format!("{init_secs:.2}"),
            ]);
            json.push(serde_json::json!({
                "dataset": name, "rep": rep, "nmi": s.nmi, "purity": s.purity,
                "f1": s.f1, "modularity": s.modularity, "init_seconds": init_secs,
            }));
        }
    }

    table.print("Ablation A2: rep sweep");
    serde_json::json!(json)
}
