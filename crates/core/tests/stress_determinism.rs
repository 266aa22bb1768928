//! Schedule-perturbation determinism for the full engine
//! (`--features stress-schedules`).
//!
//! `batch_determinism.rs` proves the thread count is not an input to the
//! engine's state; this suite closes the remaining gap: with the pool's
//! seeded perturbation hooks active (`ANC_STRESS_SEED`, see
//! `vendor/rayon/src/stress.rs`), woken workers win races against the
//! caller, claims interleave unevenly, and workers join late and leave while
//! the caller waits — and the ingest snapshot plus every per-level cluster
//! extraction must still be byte-identical to the unperturbed single-thread
//! reference, at 2/4/8 threads across several fixed seeds.
//!
//! Without the feature the hooks are no-ops and this degrades to a plain
//! determinism sweep; CI runs it with the feature enabled.
//!
//! This file holds a single `#[test]` on purpose: it mutates the global
//! `RAYON_NUM_THREADS` and `ANC_STRESS_SEED` variables, which would race
//! with sibling tests in the same binary.

use anc_core::{AncConfig, AncEngine, ClusterCache, ClusterMode};
use anc_graph::gen::connected_caveman;

/// Exact snapshot bytes plus per-level cluster labels, extracted through a
/// nested `join` so the sweep exercises parallel-inside-parallel scheduling
/// (the same fingerprint as `batch_determinism.rs`).
fn ingest_fingerprint() -> (Vec<u8>, Vec<Vec<u32>>) {
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
fn perturbed_schedules_never_change_engine_state() {
    // Reference: single thread, no perturbation.
    std::env::remove_var("ANC_STRESS_SEED");
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let reference = ingest_fingerprint();

    for threads in ["2", "4", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        for seed in ["0", "42", "3405691582"] {
            std::env::set_var("ANC_STRESS_SEED", seed);
            let run = ingest_fingerprint();
            assert_eq!(
                reference.0, run.0,
                "snapshot diverged from the 1-thread reference \
                 at {threads} threads, stress seed {seed}"
            );
            assert_eq!(
                reference.1, run.1,
                "clusters diverged from the 1-thread reference \
                 at {threads} threads, stress seed {seed}"
            );
        }
    }
    std::env::remove_var("ANC_STRESS_SEED");
    std::env::remove_var("RAYON_NUM_THREADS");
}
