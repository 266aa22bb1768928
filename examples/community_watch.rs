//! Real-time community watching — the paper's Section V-C Remarks in
//! action: maintain per-edge vote counts incrementally and get notified
//! when a watched node's cluster may have changed, at a cost equal to the
//! reporting.
//!
//! Run with: `cargo run --release --example community_watch`

use anc::core::{AncConfig, AncEngine, ClusterMonitor};
use anc::data::{registry, stream};

fn main() {
    let ds = registry::by_name("CA").unwrap().materialize_scaled(11, 0.25);
    let g = ds.graph.clone();
    println!("network: {} nodes, {} edges", g.n(), g.m());

    let mut engine = AncEngine::new(g.clone(), AncConfig { rep: 1, ..Default::default() }, 5);
    let level = engine.default_level();

    // Watch ten spread-out nodes at the default granularity.
    let watched: Vec<u32> = (0..10).map(|i| (i * g.n() as u32 / 10) % g.n() as u32).collect();
    let mut monitor = ClusterMonitor::new(&g, engine.pyramids(), &watched, level);
    println!("watching {} nodes at level {level}", watched.len());

    // Stream a community-biased day of activations; collect notifications.
    let s = stream::community_biased(&g, &ds.labels, 40, 0.03, 6.0, 3);
    let mut notifications = 0usize;
    let mut changed_nodes: std::collections::HashSet<u32> = Default::default();
    let started = std::time::Instant::now();
    for batch in &s.batches {
        for &e in &batch.edges {
            engine.activate(e, batch.time);
            let trace = engine.last_trace();
            if trace.is_empty() {
                continue;
            }
            let changed = monitor.apply_update(&g, engine.pyramids(), e, trace);
            if !changed.is_empty() {
                notifications += changed.len();
                changed_nodes.extend(changed.iter().copied());
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "streamed {} activations in {elapsed:.2}s ({:.1}k activations/s, monitoring included)",
        engine.activations(),
        engine.activations() as f64 / elapsed / 1e3,
    );
    println!(
        "{notifications} change notifications across {} distinct watched nodes",
        changed_nodes.len()
    );

    // The incrementally maintained votes must equal recomputation.
    monitor.cache().check_against(&g, engine.pyramids()).expect("incremental vote cache is exact");
    println!("vote cache verified exact against the index ✓");

    // Show one watched node's current community for color.
    let v = watched[0];
    let cluster = engine.local_cluster(v, level);
    println!("watched node {v} currently sits in a {}-node active community", cluster.len());
}
