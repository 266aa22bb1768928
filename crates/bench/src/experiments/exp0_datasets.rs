//! **Exp 0 / Table I** — the dataset roster.
//!
//! Prints the registry of synthetic stand-ins next to the original datasets
//! they replace (vertex/edge counts, type), plus measured structural
//! statistics of the generated graphs — the reproduction's version of the
//! paper's Table I with full provenance for every substitution.
//!
//! Usage: `cargo run --release -p anc-bench -- exp0_datasets
//! [--datasets ...] [--scale f]` (defaults to the small/mid entries; the
//! web-scale stand-ins take a while to generate and analyze).

use crate::args::Ctx;
use crate::report::Table;
use anc_graph::{algo, traverse};

/// Runs the experiment.
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let names = ctx.names(&["CO", "FB", "CA", "MI", "LA", "CM", "IE", "GI"]);

    let mut table = Table::new(vec![
        "name",
        "stands for",
        "orig n",
        "orig m",
        "gen n",
        "gen m",
        "communities",
        "avg deg",
        "clustering",
        "components",
    ]);
    let mut json = Vec::new();
    for name in &names {
        let ds = ctx.load(name);
        let (spec, g) = (&ds.spec, &ds.graph);
        let cc = algo::average_clustering(g);
        let comps = traverse::connected_components(g).count;
        let communities = ds.labels.iter().copied().max().map_or(0, |m| m as usize + 1);
        table.row(vec![
            spec.name.to_string(),
            spec.stands_for.to_string(),
            spec.original_n.to_string(),
            spec.original_m.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            communities.to_string(),
            format!("{:.1}", 2.0 * g.m() as f64 / g.n() as f64),
            format!("{cc:.3}"),
            comps.to_string(),
        ]);
        json.push(serde_json::json!({
            "name": spec.name, "stands_for": spec.stands_for,
            "original_n": spec.original_n, "original_m": spec.original_m,
            "n": g.n(), "m": g.m(), "communities": communities,
            "avg_clustering": cc, "components": comps,
        }));
    }

    table.print("Table I: Data Set Description (synthetic stand-ins)");
    println!("(originals are SNAP / network-repository graphs; see DESIGN.md §3)");
    serde_json::json!(json)
}
