//! **Exp 8 / Figure 10** — mixed query/update workloads on the TW2
//! stand-in.
//!
//! Replaces 1%–32% of a day-trace's activations with local-cluster queries
//! and measures the total time each online method needs to process the
//! whole workload. For DYNA and LWEP, a sample of the minutes is measured
//! and extrapolated (the paper likewise sampled 100 of 1440 timestamps
//! because neither baseline finishes the day).
//!
//! Expected shape (paper): ANCO is orders of magnitude faster than both
//! baselines at every mix, and its total time *decreases* as the query
//! share grows (queries are cheaper than updates).
//!
//! Usage: `cargo run --release -p anc-bench -- exp8_workload [--scale f]`

use crate::args::Ctx;
use crate::report::{secs, Table};
use crate::time;
use anc_baselines::{dyna::DynaEngine, lwep::LwepEngine};
use anc_core::{AncConfig, AncEngine};
use anc_data::{stream, WorkItem, Workload};

/// Runs the experiment.
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let ds = ctx.load("TW2");
    let g = ds.graph.clone();
    eprintln!("[exp8] TW2 stand-in: n = {}, m = {}", g.n(), g.m());

    let base_rate = (g.m() / 2000).max(10);
    let day = stream::bursty_day(&g, base_rate, 0.05, 10.0, ctx.seed ^ 0xdab);
    let fractions = [0.01, 0.02, 0.04, 0.08, 0.16, 0.32];
    // The paper samples 100 of 1440 timestamps for DYNA/LWEP.
    let sample_every = 14;

    let mut table = Table::new({
        let mut h = vec!["method".to_string()];
        h.extend(fractions.iter().map(|f| format!("{}%", (f * 100.0) as u32)));
        h
    });
    let mut rows: std::collections::HashMap<&str, Vec<f64>> = Default::default();
    let mut json = Vec::new();

    for &frac in &fractions {
        let wl = Workload::from_stream(&g, &day, frac, ctx.seed ^ 0x10ad);
        let (acts, queries) = wl.counts();
        eprintln!("[exp8] {}% queries: {acts} activations, {queries} queries", frac * 100.0);

        // --- ANCO: full run --------------------------------------------------
        let cfg = AncConfig { lambda: 0.01, rep: 1, ..Default::default() };
        let mut engine = AncEngine::new(g.clone(), cfg, ctx.seed);
        let level = engine.default_level();
        let (_, anco_total) = time(|| {
            for (t, items) in &wl.batches {
                for item in items {
                    match *item {
                        WorkItem::Activate(e) => engine.activate(e, *t),
                        WorkItem::Query(v) => {
                            std::hint::black_box(engine.local_cluster(v, level));
                        }
                    }
                }
            }
        });
        rows.entry("ANCO").or_default().push(anco_total);

        // --- DYNA / LWEP: sampled minutes, extrapolated ----------------------
        let mut dyna = DynaEngine::new(g.clone(), vec![1.0; g.m()], 0.01);
        let mut lwep = LwepEngine::new(g.clone(), vec![1.0; g.m()], 0.01);
        let mut dyna_sampled = 0.0;
        let mut lwep_sampled = 0.0;
        let mut sampled = 0usize;
        for (i, (t, items)) in wl.batches.iter().enumerate() {
            if i % sample_every != 0 {
                continue;
            }
            sampled += 1;
            let edges: Vec<u32> = items
                .iter()
                .filter_map(|it| match it {
                    WorkItem::Activate(e) => Some(*e),
                    WorkItem::Query(_) => None,
                })
                .collect();
            let queries: Vec<u32> = items
                .iter()
                .filter_map(|it| match it {
                    WorkItem::Query(v) => Some(*v),
                    WorkItem::Activate(_) => None,
                })
                .collect();
            let (_, dt) = time(|| {
                for &e in &edges {
                    dyna.step(*t, &[e]);
                }
                for &v in &queries {
                    let c = dyna.clustering();
                    std::hint::black_box(c.label(v));
                }
            });
            dyna_sampled += dt;
            let (_, dt) = time(|| {
                for &e in &edges {
                    lwep.step(*t, &[e]);
                }
                for &v in &queries {
                    std::hint::black_box(lwep.clustering().label(v));
                }
            });
            lwep_sampled += dt;
        }
        let scale_up = wl.batches.len() as f64 / sampled as f64;
        rows.entry("DYNA").or_default().push(dyna_sampled * scale_up);
        rows.entry("LWEP").or_default().push(lwep_sampled * scale_up);

        json.push(serde_json::json!({
            "query_frac": frac, "anco": anco_total,
            "dyna_extrapolated": dyna_sampled * scale_up,
            "lwep_extrapolated": lwep_sampled * scale_up,
        }));
        eprintln!(
            "[exp8] {}%: ANCO {anco_total:.1}s, DYNA ~{:.0}s, LWEP ~{:.0}s",
            frac * 100.0,
            dyna_sampled * scale_up,
            lwep_sampled * scale_up
        );
    }

    for method in ["ANCO", "DYNA", "LWEP"] {
        let mut row = vec![method.to_string()];
        row.extend(rows[method].iter().map(|v| secs(*v)));
        table.row(row);
    }
    table.print("Figure 10: Workload Time on TW2 stand-in (seconds, whole day)");
    println!("(DYNA/LWEP extrapolated from 1-in-{sample_every} sampled minutes, as in the paper)");
    serde_json::json!(json)
}
