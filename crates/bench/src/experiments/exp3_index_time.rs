//! **Exp 3 / Figure 5** — index construction time vs number of pyramids.
//!
//! Builds the pyramids index with k ∈ {2, 4, 8, 16} over the dataset ladder
//! and reports wall-clock seconds per build.
//!
//! Expected shape (paper): time grows linearly with k; denser graphs (MI,
//! OK stand-ins) cost more than equally-sized sparser ones, following the
//! `O(n log² n + m log n)` bound of Lemma 7.
//!
//! Usage: `cargo run --release -p anc-bench -- exp3_index_time
//! [--datasets CA,MI,...] [--scale f] [--seed s]`

use crate::args::Ctx;
use crate::report::Table;
use crate::time;
use anc_core::Pyramids;

/// Runs the experiment.
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let names = ctx.names(&["CA", "MI", "LA", "CM", "IE", "GI", "EA", "DB"]);
    let ks = [2usize, 4, 8, 16];

    let mut table = Table::new({
        let mut h = vec!["dataset".to_string(), "n".to_string(), "m".to_string()];
        h.extend(ks.iter().map(|k| format!("k={k}")));
        h
    });
    let mut json = Vec::new();

    for name in &names {
        let ds = ctx.load(name);
        let g = &ds.graph;
        let w = vec![1.0f64; g.m()];
        let mut row = vec![name.clone(), g.n().to_string(), g.m().to_string()];
        for &k in &ks {
            let (pyr, secs) = time(|| Pyramids::build(g, &w, k, 0.7, ctx.seed));
            drop(pyr);
            eprintln!("[exp3] {name} k={k}: {secs:.3}s");
            row.push(format!("{secs:.3}"));
            json.push(serde_json::json!({
                "dataset": name, "n": g.n(), "m": g.m(), "k": k, "seconds": secs,
            }));
        }
        table.row(row);
    }

    table.print("Figure 5: Index Time (seconds)");
    serde_json::json!(json)
}
