//! **Exp 5 / Figure 7** — cluster-extraction time at granularity levels
//! 4–8.
//!
//! Runs `DirectedCluster` (power clustering) at levels 4..=8 over the
//! larger stand-ins and reports wall-clock per extraction.
//!
//! Expected shape (paper): extraction time grows linearly with the edge
//! count (`O(m log n)`, Lemma 8) and is essentially flat across levels.
//!
//! Usage: `cargo run --release -p anc-bench -- exp5_query_time
//! [--datasets DB,YT,...] [--scale f]`

use crate::args::Ctx;
use crate::report::Table;
use crate::{percentile, time};
use anc_core::{cluster, ClusterMode, Pyramids};

/// Runs the experiment.
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let names = ctx.names(&["DB", "YT"]);
    let levels = 4usize..=8;

    let mut table = Table::new({
        let mut h = vec!["dataset".to_string(), "m".to_string()];
        h.extend(levels.clone().map(|l| format!("level {l}")));
        h
    });
    let mut json = Vec::new();

    for name in &names {
        let ds = ctx.load(name);
        let g = &ds.graph;
        let w = vec![1.0f64; g.m()];
        let pyr = Pyramids::build(g, &w, 4, 0.7, ctx.seed);
        let mut row = vec![name.clone(), g.m().to_string()];
        for level in levels.clone() {
            let level = level.min(pyr.num_levels() - 1);
            // Median of 3 runs for stability.
            let mut samples = Vec::new();
            for _ in 0..3 {
                let (c, secs) = time(|| cluster::cluster_all(g, &pyr, level, ClusterMode::Power));
                std::hint::black_box(c.num_clusters());
                samples.push(secs);
            }
            let secs = percentile(&samples, 50.0);
            eprintln!("[exp5] {name} level {level}: {secs:.4}s");
            row.push(format!("{secs:.4}"));
            json.push(serde_json::json!({
                "dataset": name, "m": g.m(), "level": level, "seconds": secs,
            }));
        }
        table.row(row);
    }

    table.print("Figure 7: Cluster Extraction Time (seconds)");
    serde_json::json!(json)
}
