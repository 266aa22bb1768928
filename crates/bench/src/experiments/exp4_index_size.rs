//! **Exp 4 / Figure 6** — index memory vs number of pyramids.
//!
//! Deep-byte accounting of the pyramids index for k ∈ {2, 4, 8, 16}
//! (graph storage excluded, matching the paper's convention), plus the
//! dataset-size/index-size ratio the paper reports (average 0.53 on graphs
//! with > 1M edges).
//!
//! Also reports, at k = 4, the on-disk binary snapshot cost per node
//! (DESIGN.md §11).
//!
//! Expected shape (paper): memory linear in k and driven by the vertex
//! count (`O(n log² n)`, Lemma 7), largely independent of m.
//!
//! Usage: `cargo run --release -p anc-bench -- exp4_index_size
//! [--datasets ...] [--scale f]`

use crate::args::Ctx;
use crate::report::Table;
use anc_core::{AncConfig, AncEngine, Pyramids, SnapshotProfile};

/// Runs the experiment.
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let names = ctx.names(&["CA", "MI", "LA", "CM", "IE", "GI", "EA", "DB"]);
    let ks = [2usize, 4, 8, 16];

    let mut table = Table::new({
        let mut h = vec!["dataset".to_string(), "n".to_string(), "graph MB".to_string()];
        h.extend(ks.iter().map(|k| format!("k={k} MB")));
        h.push("data/index (k=4)".into());
        h.push("exact B/n".into());
        h
    });
    let mut json = Vec::new();

    for name in &names {
        let ds = ctx.load(name);
        let g = &ds.graph;
        let w = vec![1.0f64; g.m()];
        let graph_mb = g.memory_bytes() as f64 / (1024.0 * 1024.0);
        let mut row = vec![name.clone(), g.n().to_string(), format!("{graph_mb:.1}")];
        let mut ratio_k4 = f64::NAN;
        for &k in &ks {
            let pyr = Pyramids::build(g, &w, k, 0.7, ctx.seed);
            let mb = pyr.memory_bytes() as f64 / (1024.0 * 1024.0);
            if k == 4 {
                ratio_k4 = graph_mb / mb;
            }
            eprintln!("[exp4] {name} k={k}: {mb:.1} MB");
            row.push(format!("{mb:.1}"));
            json.push(serde_json::json!({
                "dataset": name, "n": g.n(), "m": g.m(), "k": k,
                "index_bytes": pyr.memory_bytes(), "graph_bytes": g.memory_bytes(),
            }));
        }
        row.push(format!("{ratio_k4:.2}"));

        // Snapshot cost per node at k = 4.
        let cfg = AncConfig { k: 4, rep: 1, ..Default::default() };
        let engine = AncEngine::new(g.clone(), cfg, ctx.seed);
        let mut exact_buf = Vec::new();
        engine.save_binary(&mut exact_buf, SnapshotProfile::Exact).unwrap();
        let bytes_per_node = exact_buf.len() as f64 / g.n() as f64;
        eprintln!("[exp4] {name} snapshot: {} B", exact_buf.len());
        row.push(format!("{bytes_per_node:.1}"));
        json.push(serde_json::json!({
            "dataset": name, "n": g.n(), "m": g.m(), "k": 4,
            "snapshot_binary_exact_bytes": exact_buf.len(),
            "snapshot_binary_exact_bytes_per_node": bytes_per_node,
        }));
        table.row(row);
    }

    table.print("Figure 6: Index Memory Cost");
    serde_json::json!(json)
}
