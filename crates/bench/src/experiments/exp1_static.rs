//! **Exp 1 / Table III** — clustering quality on static networks.
//!
//! Reproduces the paper's Table III: Modularity, Conductance, NMI, Purity
//! and F1-Measure for {SCAN, ATTR, LOUV, ANCF1, ANCF5, ANCF9} on the
//! LA/DB/AM/YT stand-ins (static graphs, all activeness 1). LWEP is
//! approximated by its initial label propagation (its stream machinery is
//! exercised in Exp 2).
//!
//! Expected shape (paper): ANCF dominates all baselines on the ground-truth
//! measures (NMI/Purity), LOUV wins Modularity (it optimizes it directly)
//! with ANCF close behind and far above SCAN/ATTR; increasing `rep`
//! monotonically improves ANCF.
//!
//! Usage: `cargo run --release -p anc-bench -- exp1_static [--scale f]
//! [--datasets LA,DB,AM,YT] [--seed s]`

use crate::args::Ctx;
use crate::methods::{score, Offline, Scores};
use crate::report::{f3, Table};
use crate::time;
use anc_baselines::lwep::LwepEngine;
use anc_core::{AncConfig, AncEngine};

/// A Table III row: an offline method, or LWEP's initial label propagation.
#[derive(Clone, Copy)]
enum Method {
    Offline(Offline),
    Lwep,
}

impl Method {
    fn name(self) -> String {
        match self {
            Method::Offline(m) => m.name(),
            Method::Lwep => "LWEP".into(),
        }
    }
}

/// The table's rows, in print order.
const METHODS: [Method; 7] = [
    Method::Offline(Offline::Scan),
    Method::Offline(Offline::Attr),
    Method::Offline(Offline::Louv),
    Method::Lwep,
    Method::Offline(Offline::AncF(1)),
    Method::Offline(Offline::AncF(5)),
    Method::Offline(Offline::AncF(9)),
];

/// Runs the experiment. The default scale 0.12 keeps DB/AM/YT stand-ins
/// ≈10k nodes so the whole table builds in minutes; pass `--scale 1` for the
/// full-size run.
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let names = ctx.names(&["LA", "DB", "AM", "YT"]);

    let mut per_measure: std::collections::HashMap<String, Table> = Default::default();
    for measure in ["Modularity", "Conductance", "NMI", "Purity", "F1-Measure"] {
        let mut headers = vec!["method".to_string()];
        headers.extend(names.iter().cloned());
        per_measure.insert(measure.into(), Table::new(headers));
    }
    let mut json_rows = Vec::new();

    // method → dataset → Scores
    let mut all: Vec<Vec<Scores>> = vec![Vec::new(); METHODS.len()];

    for name in &names {
        // LA keeps full size (it is small); larger graphs scale.
        let factor = if Ctx::spec(name).n <= 10_000 { 1.0 } else { ctx.scale };
        let ds = ctx.load_scaled(name, factor);
        let g = &ds.graph;
        let w = vec![1.0f64; g.m()];
        let truth_k = ds.labels.iter().copied().max().map_or(1, |m| m as usize + 1);
        // The paper's protocol: on LA/AM/YT the ground-truth count is beyond
        // the range of cluster numbers the pyramids produce, so the target is
        // the number SCAN finds instead (Section VI-A).
        let scan_k = Offline::Scan.run(g, &w, None, truth_k).filter_small(3).num_clusters();
        let target_k = if matches!(name.as_str(), "LA" | "AM" | "YT") && scan_k > 0 {
            scan_k
        } else {
            truth_k
        };
        eprintln!(
            "[exp1] {name}: n = {}, m = {}, ground-truth clusters = {truth_k}, target = {target_k}",
            g.n(),
            g.m()
        );

        // One engine per dataset provides the activeness state for ANCF.
        let cfg = AncConfig { rep: 0, ..Default::default() };
        let (mut engine, build_secs) = time(|| AncEngine::new(g.clone(), cfg, ctx.seed));
        eprintln!("[exp1] {name}: index scaffold built in {build_secs:.2}s");

        for (mi, method) in METHODS.into_iter().enumerate() {
            let (clustering, secs) = match method {
                Method::Lwep => time(|| LwepEngine::new(g.clone(), w.clone(), 0.1).clustering()),
                Method::Offline(m) => time(|| m.run(g, &w, Some(&mut engine), target_k)),
            };
            let method = method.name();
            let s = score(g, &w, &clustering, &ds.labels);
            eprintln!(
                "[exp1] {name} {method}: NMI {:.3} purity {:.3} F1 {:.3} Q {:.3} φ {:.3} ({} clusters, {secs:.2}s)",
                s.nmi, s.purity, s.f1, s.modularity, s.conductance, s.clusters
            );
            all[mi].push(s);
            json_rows.push(serde_json::json!({
                "dataset": name, "method": method,
                "modularity": s.modularity, "conductance": s.conductance,
                "nmi": s.nmi, "purity": s.purity, "f1": s.f1,
                "clusters": s.clusters, "seconds": secs,
            }));
        }
    }

    for (measure, get) in [
        ("Modularity", (|s: &Scores| s.modularity) as fn(&Scores) -> f64),
        ("Conductance", |s| s.conductance),
        ("NMI", |s| s.nmi),
        ("Purity", |s| s.purity),
        ("F1-Measure", |s| s.f1),
    ] {
        let t = per_measure.get_mut(measure).unwrap();
        for (mi, method) in METHODS.into_iter().enumerate() {
            let mut row = vec![method.name()];
            row.extend(all[mi].iter().map(|s| f3(get(s))));
            t.row(row);
        }
        t.print(&format!("Table III: Performance on Static Networks, {measure}"));
    }

    serde_json::json!(json_rows)
}
