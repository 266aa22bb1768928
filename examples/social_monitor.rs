//! Social-network monitoring: the paper's motivating scenario. A user's
//! friendships are stable, but interactions concentrate in a shifting
//! "active community". We stream community-biased interactions, move the
//! user's activity from one friend group to another, and watch the local
//! active community follow — without ever re-clustering the graph.
//!
//! Run with: `cargo run --release --example social_monitor`

use anc::core::{AncConfig, AncEngine};
use anc::data::registry;
use anc::graph::NodeId;

fn main() {
    // The CO (CollegeMsg) stand-in: ~1.9k users, 87 communities.
    let ds = registry::by_name("CO").unwrap().materialize(1);
    let g = ds.graph.clone();
    println!("social network: {} users, {} friendships", g.n(), g.m());

    let mut engine = AncEngine::new(g.clone(), AncConfig { lambda: 0.2, ..Default::default() }, 9);
    let level = engine.default_level();

    // Pick a user with two *mutually adjacent* friends in a second
    // community — a cross-community triangle. The triadic consolidation TF
    // needs a common neighbor to act on; a user who joins a new circle in
    // real life likewise knows people who know each other.
    let mut pick: Option<(NodeId, u32, u32)> = None;
    'outer: for v in 0..g.n() as NodeId {
        if g.degree(v) < 6 {
            continue;
        }
        let home = ds.labels[v as usize];
        let nbrs = g.neighbors(v);
        for (i, &w1) in nbrs.iter().enumerate() {
            let c = ds.labels[w1 as usize];
            if c == home {
                continue;
            }
            for &w2 in &nbrs[i + 1..] {
                if ds.labels[w2 as usize] == c && g.has_edge(w1, w2) {
                    pick = Some((v, home, c));
                    break 'outer;
                }
            }
        }
    }
    let (user, home, other) = pick.expect("cross-community triangle exists");
    println!("monitoring user {user}: home community {home}, second circle {other}");

    let edges_in = |comm: u32| -> Vec<u32> {
        g.edges_of(user)
            .filter(|&(w, _)| ds.labels[w as usize] == comm)
            .map(|(_, e)| e)
            .chain(g.iter_edges().filter_map(|(e, a, b)| {
                (ds.labels[a as usize] == comm && ds.labels[b as usize] == comm).then_some(e)
            }))
            .collect()
    };
    let home_edges = edges_in(home);
    let other_edges = edges_in(other);

    // The strongest tie the user has into each circle: the crisp drift
    // signal (the local-cluster composition also shifts, but is blurred by
    // whatever else the Voronoi cell contains).
    let best_sim = |engine: &AncEngine, comm: u32| -> f64 {
        g.edges_of(user)
            .filter(|&(w, _)| ds.labels[w as usize] == comm)
            .map(|(_, e)| engine.similarity(e))
            .fold(0.0, f64::max)
    };

    // Phase 1 (t = 1..15): the user chats with the home community.
    for t in 1..=15 {
        let _ = engine.activate_batch(&home_edges, t as f64);
    }
    let (h1, o1) = (best_sim(&engine, home), best_sim(&engine, other));
    let c1 = engine.local_cluster(user, level);
    println!(
        "t = 15: strongest tie home {h1:.3e} vs second circle {o1:.3e}; \
         active community has {} members ({} from home, {} from the second circle)",
        c1.len(),
        count(&c1, &ds.labels, home),
        count(&c1, &ds.labels, other),
    );
    assert!(h1 > o1, "during phase 1 the home circle must dominate");

    // Phase 2 (t = 16..90): activity moves to the second circle; the home
    // friendships silently decay. Phase 1's reinforcement left the user's
    // ties into the second circle at the similarity floor, held there by
    // the wedge stretch of the active home circle: they overtake the home
    // ties once its activeness has decayed, after about 55 time units at
    // λ = 0.2, not at once.
    for t in 16..=90 {
        let _ = engine.activate_batch(&other_edges, t as f64);
    }
    let (h2, o2) = (best_sim(&engine, home), best_sim(&engine, other));
    let c2 = engine.local_cluster(user, level);
    println!(
        "t = 90: strongest tie home {h2:.3e} vs second circle {o2:.3e}; \
         active community has {} members ({} from home, {} from the second circle)",
        c2.len(),
        count(&c2, &ds.labels, home),
        count(&c2, &ds.labels, other),
    );

    println!(
        "{} activations processed, {} batched rescales, index still consistent: {}",
        engine.activations(),
        engine.rescales(),
        engine.check_invariants().is_ok()
    );
    assert!(
        o2 > h2,
        "after the shift the second circle must hold the strongest tie ({o2:.3e} vs {h2:.3e})"
    );
    assert!(
        o2 / h2.max(1e-300) > o1 / h1.max(1e-300),
        "the tie balance must drift toward the new circle"
    );
}

fn count(cluster: &[NodeId], labels: &[u32], comm: u32) -> usize {
    cluster.iter().filter(|&&v| labels[v as usize] == comm).count()
}
