//! **Ablation A6** — time-decay vs sliding-window activeness.
//!
//! The paper's Section II contrasts the adopted time-decay scheme with the
//! sliding-window models of prior work. This ablation quantifies the two
//! properties that motivated the choice:
//!
//! 1. **Temporal smoothness** — under a steady stream, how much do edge
//!    weights and the induced clustering jump between consecutive
//!    timestamps? Window weights drop by whole units when activations
//!    expire (cliffs); decayed weights change continuously.
//! 2. **Memory** — the window model must retain every in-window activation;
//!    the anchored decay store is O(1) per edge regardless of rate.
//!
//! Usage: `cargo run --release -p anc-bench -- abl_window_vs_decay`

use crate::args::Ctx;
use crate::report::{f3, Table};
use anc_baselines::louvain;
use anc_data::stream;
use anc_decay::{ActivenessStore, DecayClock, SlidingWindow};
use anc_metrics::nmi;

/// Runs the ablation.
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let ds = ctx.load("CO");
    let g = ds.graph.clone();
    eprintln!("[ablA6] CO stand-in: n = {}, m = {}", g.n(), g.m());

    // Window length chosen so both models have the same effective horizon:
    // a window of W keeps what exp decay at λ weighs ≥ e^{-λW}; with λ = 0.1
    // and W = 20, expired activations would have decayed to 0.135.
    let lambda = 0.1;
    let window = 20.0;
    let steps = 80usize;
    let s = stream::community_biased(&g, &ds.labels, steps, 0.05, 6.0, ctx.seed ^ 0x99);

    let mut clock = DecayClock::new(lambda);
    let mut decay = ActivenessStore::new(g.m(), 1.0);
    let mut win = SlidingWindow::new(g.m(), window);

    let mut prev_decay_w: Option<Vec<f64>> = None;
    let mut prev_win_w: Option<Vec<f64>> = None;
    let mut prev_decay_c = None;
    let mut prev_win_c = None;

    let mut decay_jump = 0.0f64;
    let mut win_jump = 0.0f64;
    let mut decay_churn = Vec::new();
    let mut win_churn = Vec::new();
    let mut max_retained = 0usize;

    for batch in &s.batches {
        clock.advance_to(batch.time);
        win.advance_to(batch.time);
        for &e in &batch.edges {
            decay.activate(e, &clock);
            win.activate(e, batch.time);
        }
        if clock.needs_rescale() {
            let gf = clock.take_rescale();
            decay.rescale(gf);
        }
        max_retained = max_retained.max(win.retained());

        // Normalized weight vectors for comparability.
        let norm = |mut w: Vec<f64>| {
            let mean = w.iter().sum::<f64>() / w.len() as f64;
            if mean > 0.0 {
                for x in &mut w {
                    *x /= mean;
                }
            }
            w
        };
        let dw = norm((0..g.m() as u32).map(|e| decay.current(e, &clock)).collect());
        let ww = norm(win.weights());

        if let (Some(pd), Some(pw)) = (&prev_decay_w, &prev_win_w) {
            let l1 = |a: &[f64], b: &[f64]| {
                a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
            };
            decay_jump += l1(&dw, pd);
            win_jump += l1(&ww, pw);
        }

        // Cluster churn every 10 steps (Louvain on each weighting).
        if (batch.time as usize).is_multiple_of(10) {
            let dc = louvain::cluster(&g, &dw, &louvain::LouvainParams::default());
            let wc = louvain::cluster(&g, &ww, &louvain::LouvainParams::default());
            if let (Some(pdc), Some(pwc)) = (&prev_decay_c, &prev_win_c) {
                decay_churn.push(1.0 - nmi(&dc, pdc));
                win_churn.push(1.0 - nmi(&wc, pwc));
            }
            prev_decay_c = Some(dc);
            prev_win_c = Some(wc);
        }
        prev_decay_w = Some(dw);
        prev_win_w = Some(ww);
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut table = Table::new(vec!["metric", "time-decay", "sliding-window"]);
    table.row(vec![
        "mean per-step weight jump (L1, normalized)".to_string(),
        format!("{:.5}", decay_jump / (steps - 1) as f64),
        format!("{:.5}", win_jump / (steps - 1) as f64),
    ]);
    table.row(vec![
        "mean cluster churn (1 - NMI between snapshots)".to_string(),
        f3(mean(&decay_churn)),
        f3(mean(&win_churn)),
    ]);
    table.row(vec![
        "state kept per edge".to_string(),
        "1 anchored f64".to_string(),
        format!("all in-window activations (peak {} total)", max_retained),
    ]);

    table.print("Ablation A6: time-decay vs sliding-window activeness (CO stand-in)");
    let smoother = decay_jump < win_jump;
    println!(
        "time-decay weights are {} smoother per step; window weights cliff when activations expire",
        if smoother { "strictly" } else { "not" }
    );
    serde_json::json!({
        "decay_jump_per_step": decay_jump / (steps - 1) as f64,
        "window_jump_per_step": win_jump / (steps - 1) as f64,
        "decay_churn": decay_churn,
        "window_churn": win_churn,
        "window_peak_retained": max_retained,
    })
}
