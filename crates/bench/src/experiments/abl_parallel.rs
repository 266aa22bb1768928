//! **Ablation A5 / Lemma 13** — the grouped repair fan-out vs pool size.
//!
//! The `k·⌈log₂ n⌉` Voronoi partitions are mutually independent, so the
//! weight changes of a batch repair them in parallel: `activate_batch`
//! hands the pool one task per partition, each replaying the batch's
//! deltas in order. This ablation runs the same batched stream at
//! `RAYON_NUM_THREADS` ∈ {1, 2, 4}. The resulting state is byte-identical at
//! every size (`batch_determinism`), so only the time moves. A single
//! `activate` never forks: its repair is cheaper than waking the pool
//! (DESIGN.md §4).
//!
//! Usage: `cargo run --release -p anc-bench -- abl_parallel [--scale f]`

use crate::args::Ctx;
use crate::report::{secs, Table};
use crate::time;
use anc_core::{AncConfig, AncEngine};
use anc_data::stream;

/// Runs the ablation.
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut table = Table::new(vec!["dataset", "k", "threads", "sec/activation"]);
    let mut json = Vec::new();
    for name in ["CA", "CM"] {
        let ds = ctx.load(name);
        let g = ds.graph.clone();
        let s = stream::uniform_per_step(&g, 10, 0.05, ctx.seed ^ 0x11);
        let acts = s.total_activations();
        for k in [4usize, 16] {
            for threads in [1usize, 2, 4] {
                // The pool re-reads its size on the next parallel call.
                std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
                let cfg = AncConfig { k, rep: 1, ..Default::default() };
                let mut engine = AncEngine::new(g.clone(), cfg, ctx.seed);
                let (_, total) = time(|| {
                    for batch in &s.batches {
                        let _ = engine.activate_batch(&batch.edges, batch.time);
                    }
                });
                let per_act = total / acts as f64;
                eprintln!("[ablA5] {name} k={k} threads={threads}: {per_act:.2e} s/act");
                table.row(vec![
                    name.to_string(),
                    k.to_string(),
                    threads.to_string(),
                    secs(per_act),
                ]);
                json.push(serde_json::json!({
                    "dataset": name, "k": k, "threads": threads, "cores": cores,
                    "sec_per_activation": per_act,
                }));
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");

    table.print(&format!(
        "Ablation A5: grouped repair fan-out vs pool size (Lemma 13), {cores} cores"
    ));
    serde_json::json!(json)
}
