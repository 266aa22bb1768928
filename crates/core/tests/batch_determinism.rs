//! The parallelism-never-changes-results invariant (DESIGN.md §7): the
//! engine's state is a pure function of (graph, config, seed, stream). The
//! rayon worker count is **not** an input — every pool task writes only its
//! own partition, so any thread count produces byte-identical snapshots *and*
//! cluster extractions, even when the extraction itself runs from inside a
//! nested `rayon::join` (pool tasks run nested parallel calls inline).
//!
//! This file holds a single `#[test]` on purpose: it mutates the global
//! `RAYON_NUM_THREADS` variable, which would race with sibling tests in the
//! same binary.

use anc_core::{AncConfig, AncEngine, ClusterCache, ClusterMode};
use anc_graph::gen::connected_caveman;

/// Exact snapshot bytes plus per-level cluster labels, extracted through a
/// nested `join` so the sweep exercises parallel-inside-parallel scheduling.
fn ingest_fingerprint(threads: &str) -> (Vec<u8>, Vec<Vec<u32>>) {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let lg = connected_caveman(4, 6);
    let cfg = AncConfig { rep: 1, mu: 3, epsilon: 0.25, k: 3, ..Default::default() };
    let mut engine = AncEngine::new(lg.graph, cfg, 42);
    let m = engine.graph().m() as u32;
    for step in 0..6u32 {
        let edges: Vec<u32> = (0..40).map(|i| (i * 7 + step * 3) % m).collect();
        engine.activate_batch(&edges, 1.0 + step as f64 * 0.4);
    }
    engine.check_invariants().unwrap();
    let snapshot = engine.state_bytes_for_test();

    // Mixed workload: both arms of the join extract clusters on their own
    // standalone cache (the engine's embedded cache is a RefCell and not
    // Sync), so each arm's parallel cold fill runs nested inside pool
    // tasks.
    let n = engine.graph().n() as u32;
    let (g, pyr, levels) = (engine.graph(), engine.pyramids(), engine.num_levels());
    let labels_at = |level: usize, mode: ClusterMode| -> Vec<u32> {
        let mut cache = ClusterCache::new(levels);
        let (c, _) = cache.query(g, pyr, level, mode);
        (0..n).map(|v| c.label(v)).collect()
    };
    let mut labels = Vec::new();
    for level in 0..levels {
        let (power, even) = rayon::join(
            || labels_at(level, ClusterMode::Power),
            || labels_at(level, ClusterMode::Even),
        );
        labels.push(power);
        labels.push(even);
    }
    (snapshot, labels)
}

#[test]
fn thread_count_never_changes_results() {
    let runs: Vec<_> = ["1", "2", "4", "8"].iter().map(|t| ingest_fingerprint(t)).collect();
    std::env::remove_var("RAYON_NUM_THREADS");
    for (i, run) in runs.iter().enumerate().skip(1) {
        let t = ["1", "2", "4", "8"][i];
        assert_eq!(runs[0].0, run.0, "snapshot diverged between 1 and {t} threads");
        assert_eq!(runs[0].1, run.1, "clusters diverged between 1 and {t} threads");
    }
}
