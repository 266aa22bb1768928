//! Cross-crate integration for the extension features: cluster-change
//! monitoring (the paper's Section V-C Remarks) and index-answered
//! approximate distance queries (the underlying Das Sarma sketch).

use anc::core::{AncConfig, AncEngine, ClusterMonitor};
use anc::data::{registry, stream};

fn engine() -> AncEngine {
    let ds = registry::by_name("CA").unwrap().materialize_scaled(7, 0.15);
    AncEngine::new(ds.graph, AncConfig { rep: 1, k: 2, ..Default::default() }, 3)
}

/// `H_l` of every edge incident to each of `nodes`, recounted from the index.
fn incident_votes(engine: &AncEngine, nodes: &[u32], level: usize) -> Vec<Vec<bool>> {
    let g = engine.graph();
    nodes
        .iter()
        .map(|&v| g.edges_of(v).map(|(y, _)| engine.same_cluster(v, y, level)).collect())
        .collect()
}

#[test]
fn monitor_reports_exactly_the_watched_nodes_whose_votes_flipped() {
    // Every way of moving the index — single activations, grouped batches
    // while no cache level is materialized (no repair is traced), multi-edge
    // reinforcement replays and a full rebuild — must be reported exactly:
    // a watched node is named iff one of its incident votes differs from a
    // recount taken at the previous poll.
    let mut engine = engine();
    let level = engine.default_level();
    let watched: Vec<u32> = (0..engine.graph().n() as u32).step_by(7).collect();
    let mut monitor = ClusterMonitor::new(engine.graph(), engine.pyramids(), &watched, level);
    let mut before = incident_votes(&engine, &watched, level);
    let mut poll = |engine: &AncEngine, step: &str| -> bool {
        let now = incident_votes(engine, &watched, level);
        let want: Vec<u32> = watched
            .iter()
            .zip(before.iter().zip(&now))
            .filter(|(_, (b, n))| b != n)
            .map(|(&v, _)| v)
            .collect();
        let got = monitor.poll(engine.graph(), engine.pyramids());
        assert_eq!(got, want, "after {step}");
        before = now;
        !got.is_empty()
    };

    let s = stream::uniform_per_step(engine.graph(), 8, 0.02, 11);
    let mut batch_reports = 0;
    for (i, batch) in s.batches.iter().enumerate() {
        if i % 2 == 0 {
            for &e in &batch.edges {
                engine.activate(e, batch.time);
                poll(&engine, &format!("activate({e}) in step {i}"));
            }
        } else {
            assert!(!engine.cluster_cache().has_materialized_levels());
            let _ = engine.activate_batch(&batch.edges, batch.time);
            batch_reports += usize::from(poll(&engine, &format!("activate_batch in step {i}")));
        }
        if i == 3 {
            engine.reinforce_edges(&batch.edges);
            poll(&engine, "reinforce_edges");
        }
        if i == 5 {
            engine.reconstruct_index();
            poll(&engine, "reconstruct_index");
        }
    }
    assert!(batch_reports > 0, "an untraced activate_batch must be heard");
}

#[test]
fn approx_distance_never_underestimates_exact() {
    let mut engine = engine();
    let g = engine.graph().clone();
    let s = stream::uniform_per_step(&g, 5, 0.03, 17);
    for batch in &s.batches {
        let _ = engine.activate_batch(&batch.edges, batch.time);
    }
    let mut finite_pairs = 0usize;
    let mut stretch_sum = 0.0f64;
    for u in (0..g.n() as u32).step_by(37) {
        for v in (0..g.n() as u32).step_by(53) {
            let est = engine.approx_distance(u, v);
            let exact = engine.exact_distance(u, v);
            if u == v {
                assert_eq!(est, 0.0);
                continue;
            }
            if exact.is_finite() {
                assert!(est >= exact * (1.0 - 1e-9), "({u},{v}): est {est} < exact {exact}");
                if est.is_finite() {
                    finite_pairs += 1;
                    stretch_sum += est / exact.max(1e-300);
                }
            } else {
                assert!(est.is_infinite(), "disconnected pair got finite estimate");
            }
        }
    }
    assert!(finite_pairs > 0, "some pairs must be estimable");
    let avg_stretch = stretch_sum / finite_pairs as f64;
    assert!(
        avg_stretch < 50.0,
        "average stretch should be modest (O(log n)-ish), got {avg_stretch}"
    );
}
