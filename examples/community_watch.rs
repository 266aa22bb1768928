//! Real-time community watching — the paper's Section V-C Remarks in
//! action: get notified when a watched node's cluster may have changed, at a
//! cost equal to the reporting.
//!
//! Run with: `cargo run --release --example community_watch`

use anc::core::{AncConfig, AncEngine, ClusterMonitor};
use anc::data::{registry, stream};

/// `H_l` of every edge incident to each of `nodes`, recounted from the index.
fn incident_votes(engine: &AncEngine, nodes: &[u32], level: usize) -> Vec<Vec<bool>> {
    let g = engine.graph();
    nodes
        .iter()
        .map(|&v| g.edges_of(v).map(|(y, _)| engine.same_cluster(v, y, level)).collect())
        .collect()
}

fn main() {
    let ds = registry::by_name("CA").unwrap().materialize_scaled(11, 0.25);
    let g = ds.graph.clone();
    println!("network: {} nodes, {} edges", g.n(), g.m());

    let mut engine = AncEngine::new(g.clone(), AncConfig { rep: 1, ..Default::default() }, 5);
    let level = engine.default_level();

    // Watch ten spread-out nodes at the default granularity.
    let mut watched: Vec<u32> = (0..10).map(|i| (i * g.n() as u32 / 10) % g.n() as u32).collect();
    watched.sort_unstable();
    watched.dedup();
    let mut monitor = ClusterMonitor::new(&g, engine.pyramids(), &watched, level);
    println!("watching {} nodes at level {level}", watched.len());

    // Stream a community-biased day of activations a batch at a time and
    // poll after each; check every report against a recount of the votes.
    let s = stream::community_biased(&g, &ds.labels, 40, 0.03, 6.0, 3);
    let mut before = incident_votes(&engine, &watched, level);
    let mut notifications = 0usize;
    let mut changed_nodes: std::collections::BTreeSet<u32> = Default::default();
    let started = std::time::Instant::now();
    for batch in &s.batches {
        let _ = engine.activate_batch(&batch.edges, batch.time);
        let changed = monitor.poll(&g, engine.pyramids());
        let now = incident_votes(&engine, &watched, level);
        let recount: Vec<u32> = watched
            .iter()
            .zip(before.iter().zip(&now))
            .filter(|(_, (b, n))| b != n)
            .map(|(&v, _)| v)
            .collect();
        assert_eq!(changed, recount, "the monitor's report must match a recount of the votes");
        before = now;
        notifications += changed.len();
        changed_nodes.extend(changed);
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
    println!("every report verified against a recount of the watched votes ✓");

    // Show one watched node's current community for color.
    let v = watched[0];
    let cluster = engine.local_cluster(v, level);
    println!("watched node {v} currently sits in a {}-node active community", cluster.len());
}
