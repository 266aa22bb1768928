//! **Exp 6 / Figure 8** — UPDATE vs RECONSTRUCT across batch sizes.
//!
//! For batch sizes 2^0 .. 2^10: apply the batch of random activations with
//! the bounded incremental UPDATE (Algorithms 1–3 per partition), and
//! compare against RECONSTRUCT (rebuilding the whole index from the same
//! weights).
//!
//! Expected shape (paper): UPDATE grows linearly with batch size while
//! RECONSTRUCT is flat; at batch 1 the gap peaks — up to six orders of
//! magnitude on the paper's largest graphs (the gap here is bounded by the
//! laptop-scaled stand-ins, but grows visibly with graph size).
//!
//! Usage: `cargo run --release -p anc-bench -- exp6_update_time
//! [--datasets DB,YT] [--scale f]`

use crate::args::Ctx;
use crate::report::{secs, Table};
use crate::time;
use anc_core::{AncConfig, AncEngine};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Runs the experiment.
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let names = ctx.names(&["DB", "YT"]);
    let batch_pows = 0u32..=10;

    let mut table = Table::new({
        let mut h = vec!["dataset".to_string(), "series".to_string()];
        h.extend(batch_pows.clone().map(|p| format!("2^{p}")));
        h
    });
    let mut json = Vec::new();

    for name in &names {
        let ds = ctx.load(name);
        let g = ds.graph.clone();
        let m = g.m();
        eprintln!("[exp6] {name}: n = {}, m = {m}", g.n());
        let cfg = AncConfig { rep: 1, ..Default::default() };
        let mut engine = AncEngine::new(g, cfg, ctx.seed);
        let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed ^ 0xfeed);

        let mut update_row = vec![name.clone(), "UPDATE".to_string()];
        let mut recon_row = vec![name.clone(), "RECONSTRUCT".to_string()];
        let mut t = engine.now();
        for p in batch_pows.clone() {
            let batch: Vec<u32> = (0..(1usize << p)).map(|_| rng.gen_range(0..m as u32)).collect();
            t += 1.0;
            let (_, secs_update) = time(|| engine.activate_batch(&batch, t));
            let (_, secs_recon) = time(|| engine.reconstruct_index());
            eprintln!(
                "[exp6] {name} batch 2^{p}: UPDATE {secs_update:.5}s RECONSTRUCT {secs_recon:.3}s ({:.0}x)",
                secs_recon / secs_update.max(1e-12)
            );
            update_row.push(secs(secs_update));
            recon_row.push(secs(secs_recon));
            json.push(serde_json::json!({
                "dataset": name, "batch": 1usize << p,
                "update_seconds": secs_update, "reconstruct_seconds": secs_recon,
            }));
        }
        table.row(update_row);
        table.row(recon_row);
    }

    table.print("Figure 8: Update Time (seconds per batch)");
    serde_json::json!(json)
}
