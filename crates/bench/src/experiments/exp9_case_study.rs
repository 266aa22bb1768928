//! **Exp 9 / Figure 11 + Section VI-C** — the collaboration-network case
//! study.
//!
//! Mirrors the paper's 29-node DB2 subgraph observed over 30 yearly time
//! steps: focal author v8 collaborates with v7's group in years 5–11, with
//! v11's group in 11–22, with v0's group in 11–30, with v5's group in 17–26
//! and with v26's group from year 23 on, while each community keeps
//! collaborating internally every year. As in real co-authorship data, v8
//! is linked to *two* members of each highlighted community, so the pairs
//! share common neighbors and the triadic machinery of the local
//! reinforcement has signal to work with.
//!
//! We track (1) the dis-similarity `1/S_t` between v8 and its five
//! highlighted neighbors and (2) the cluster containing v8 at granularity
//! levels l2 and l3, at years 10, 20 and 30.
//!
//! Expected shape (paper): at t10 v8 clusters with v7 only; by t20 it has
//! moved to {v0, v11}; by t30 v26 is in while v7/v11 have drifted away; the
//! coarser level l2 reacts more slowly than l3.
//!
//! Usage: `cargo run --release -p anc-bench -- exp9_case_study`

use crate::args::Ctx;
use anc_core::{AncConfig, AncEngine};
use anc_graph::GraphBuilder;

/// The five communities around v8's highlighted neighbors, plus filler.
const GROUPS: &[&[u32]] = &[
    &[0, 1, 2, 3],             // v0's community
    &[5, 4, 6, 9],             // v5's community
    &[7, 10, 12, 13],          // v7's community
    &[11, 14, 15, 16],         // v11's community
    &[26, 25, 24, 23],         // v26's community
    &[17, 18, 19, 20, 21, 22], // background community
    &[27, 28],                 // v8's long-term co-authors
];

/// v8 collaborates with (primary, secondary) members of each community over
/// the year range [from, to]; the primary is the paper's highlighted node.
const SCHEDULE: &[(u32, u32, u32, u32)] = &[
    (7, 10, 5, 11),   // v7's group, years 5–11
    (11, 14, 11, 22), // v11's group, years 11–22
    (0, 1, 11, 30),   // v0's group, years 11–30
    (5, 4, 17, 26),   // v5's group, years 17–26
    (26, 25, 23, 30), // v26's group, years 23–30
];

/// Runs the experiment.
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let n = 29usize;
    let mut b = GraphBuilder::new(n);
    for group in GROUPS {
        for i in 0..group.len() {
            for j in (i + 1)..group.len() {
                b.add_edge(group[i], group[j]);
            }
        }
    }
    // v8's co-author pair and its links into each highlighted community.
    for x in [27u32, 28] {
        b.add_edge(8, x);
    }
    for &(primary, secondary, _, _) in SCHEDULE {
        b.add_edge(8, primary);
        b.add_edge(8, secondary);
    }
    // Light background connectivity between communities.
    for (a, c) in [(3u32, 4u32), (9, 10), (13, 14), (16, 17), (22, 23), (28, 0)] {
        b.add_edge(a, c);
    }
    let g = b.build();
    eprintln!("[exp9] case-study graph: n = {}, m = {}", g.n(), g.m());

    let cfg = AncConfig { lambda: 0.1, rep: 3, mu: 2, epsilon: 0.2, ..Default::default() };
    let mut engine = AncEngine::new(g.clone(), cfg, ctx.seed);

    let mut activations = 0usize;
    let mut json_snapshots = Vec::new();
    for year in 1..=30u32 {
        // Background: every community collaborates internally each year.
        for group in GROUPS {
            for i in 0..group.len() {
                for j in (i + 1)..group.len() {
                    let e = g.edge_id(group[i], group[j]).unwrap();
                    engine.activate(e, year as f64);
                    activations += 1;
                }
            }
        }
        // v8's own pair stays active.
        for x in [27u32, 28] {
            engine.activate(g.edge_id(8, x).unwrap(), year as f64);
            activations += 1;
        }
        for &(primary, secondary, from, to) in SCHEDULE {
            if (from..=to).contains(&year) {
                for nbr in [primary, secondary] {
                    engine.activate(g.edge_id(8, nbr).unwrap(), year as f64);
                    activations += 1;
                }
            }
        }

        if year % 10 != 0 {
            continue;
        }
        println!("\n=== Year t{year} ===");
        println!("dis-similarity 1/S_t between v8 and its highlighted neighbors:");
        for &(nbr, _, _, _) in SCHEDULE {
            let e = g.edge_id(8, nbr).unwrap();
            let dis = 1.0 / engine.similarity(e);
            println!("  v8 -- v{nbr}: {dis:.3e}");
        }
        let mut snapshot = serde_json::json!({ "year": year });
        for level in [1usize, 2] {
            let cluster = engine.local_cluster(8, level);
            let highlighted: Vec<u32> =
                SCHEDULE.iter().map(|&(p, _, _, _)| p).filter(|v| cluster.contains(v)).collect();
            println!(
                "cluster of v8 at level l{}: {} nodes, highlighted members {:?}",
                level + 1,
                cluster.len(),
                highlighted
            );
            snapshot[format!("l{}", level + 1)] = serde_json::json!({
                "size": cluster.len(),
                "highlighted": highlighted,
                "members": cluster,
            });
        }
        json_snapshots.push(snapshot);
    }
    println!("\ntotal activations streamed: {activations}");
    engine.check_invariants().expect("index consistent after the case study");
    serde_json::json!(json_snapshots)
}
