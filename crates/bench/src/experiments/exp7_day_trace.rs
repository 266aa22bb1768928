//! **Exp 7 / Figure 9** — UPDATE latency over a simulated day on the TW2
//! stand-in.
//!
//! Streams 1440 per-minute bursty batches (λ = 0.01, matching the paper's
//! day-trace setting) through the online engine on a single core and
//! reports the per-minute batch latency series with p50/p95/max.
//!
//! Expected shape (paper): the vast majority of minutes process within a
//! small bound (the paper: 95% within 6.5 s on full Twitter); bursts form
//! visible spikes; no latency accumulation over the day.
//!
//! Usage: `cargo run --release -p anc-bench -- exp7_day_trace [--scale f]`

use crate::args::Ctx;
use crate::{percentile, time};
use anc_core::{AncConfig, AncEngine};
use anc_data::stream;

/// Runs the experiment.
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let ds = ctx.load("TW2");
    let g = ds.graph.clone();
    eprintln!("[exp7] TW2 stand-in: n = {}, m = {}", g.n(), g.m());

    // Base rate scales with the graph so the day covers a similar fraction
    // of edges as the paper's trace.
    let base_rate = (g.m() / 2000).max(10);
    let day = stream::bursty_day(&g, base_rate, 0.05, 10.0, ctx.seed ^ 0xdab);
    eprintln!(
        "[exp7] {} activations over 1440 minutes (base rate {base_rate}/min)",
        day.total_activations()
    );

    let cfg = AncConfig { lambda: 0.01, rep: 1, ..Default::default() };
    let mut engine = AncEngine::new(g, cfg, ctx.seed);

    let mut latencies = Vec::with_capacity(1440);
    for batch in &day.batches {
        let (_, secs) = time(|| engine.activate_batch(&batch.edges, batch.time));
        latencies.push(secs);
    }

    let p50 = percentile(&latencies, 50.0);
    let p95 = percentile(&latencies, 95.0);
    let max = percentile(&latencies, 100.0);
    let total: f64 = latencies.iter().sum();
    println!("\n=== Figure 9: Update Time over a Simulated Day (TW2 stand-in) ===");
    println!("minutes processed : 1440");
    println!("activations       : {}", day.total_activations());
    println!("total update time : {total:.2}s");
    println!("p50 batch latency : {p50:.4}s");
    println!("p95 batch latency : {p95:.4}s  (95% of minutes complete within this)");
    println!("max batch latency : {max:.4}s");
    // Compact ASCII series: max latency per 2-hour bucket.
    println!("\nper-2h max latency (s):");
    for (i, chunk) in latencies.chunks(120).enumerate() {
        let mx = chunk.iter().cloned().fold(0.0f64, f64::max);
        let bars = ((mx / max.max(1e-12)) * 40.0) as usize;
        println!("  {:02}:00  {:>8.4}  {}", i * 2, mx, "#".repeat(bars.max(1)));
    }

    serde_json::json!({
        "n": engine.graph().n(), "m": engine.graph().m(),
        "activations": day.total_activations(),
        "p50": p50, "p95": p95, "max": max, "total": total,
        "latencies": latencies,
    })
}
