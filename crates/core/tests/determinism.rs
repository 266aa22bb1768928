//! The parallelism-never-changes-results invariant (DESIGN.md §7): the
//! engine's state is a pure function of (graph, config, seed, stream). The
//! rayon worker count is **not** an input — every pool task writes only its
//! own partition, and the cluster cache's cold voting pass only its own run
//! of bitset words — so any thread count produces byte-identical snapshots,
//! bitsets *and* cluster extractions, even when the extraction itself runs
//! from inside a nested `rayon::join` (pool tasks run nested parallel calls
//! inline).
//!
//! One fingerprint is taken on a batched stream and on a stream of single
//! activations, and compared with the unperturbed 1-thread run at 2, 4 and
//! 8 threads. Under `--features stress-schedules` it is also compared at
//! three `ANC_STRESS_SEED`s per thread count: the pool's seeded perturbation
//! hooks (`vendor/rayon/src/stress.rs`) make woken workers win races
//! against the caller, claims interleave unevenly, and workers join late
//! and leave while the caller waits.
//!
//! This file holds a single `#[test]` on purpose: it mutates the global
//! `RAYON_NUM_THREADS` and `ANC_STRESS_SEED` variables, which would race
//! with sibling tests in the same binary.

use anc_core::{AncConfig, AncEngine, ClusterCache, ClusterMode};
use anc_graph::gen::connected_caveman;

/// Everything a thread count could move.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    /// Exact snapshot bytes and every partition.
    snapshot: Vec<u8>,
    /// Per level: the cold-fill bitset words of a standalone cache.
    words: Vec<Vec<u64>>,
    /// Per level: (power labels, even labels), extracted via nested `join`
    /// on fresh caches — each arm is its own parallel cold fill.
    labels: Vec<(Vec<u32>, Vec<u32>)>,
}

/// Runs `batched` (six batches of 40) or 60 single activations through
/// the caveman(4, 6) engine under the current pool settings.
fn fingerprint(batched: bool) -> Fingerprint {
    let lg = connected_caveman(4, 6);
    let cfg = AncConfig { rep: 1, mu: 3, epsilon: 0.25, k: 3, ..Default::default() };
    let mut engine = AncEngine::new(lg.graph, cfg, 42);
    let m = engine.graph().m() as u32;
    if batched {
        for step in 0..6u32 {
            let edges: Vec<u32> = (0..40).map(|i| (i * 7 + step * 3) % m).collect();
            engine.activate_batch(&edges, 1.0 + step as f64 * 0.4);
        }
    } else {
        for i in 0..60u32 {
            engine.activate((i * 7 + 3) % m, 1.0 + i as f64 * 0.2);
        }
    }
    engine.check_invariants().unwrap();
    let snapshot = engine.state_bytes_for_test();

    // Standalone caches, so every query is a parallel cold fill; the engine
    // embeds a RefCell cache and is not Sync, so the join arms borrow the
    // graph and the pyramids directly.
    let n = engine.graph().n() as u32;
    let (g, pyr, levels) = (engine.graph(), engine.pyramids(), engine.num_levels());
    let mut cache = ClusterCache::new(levels);
    let words = (0..levels)
        .map(|level| {
            cache.query(g, pyr, level, ClusterMode::Power);
            cache.voted_bits(level).expect("just filled").words().to_vec()
        })
        .collect();
    let labels_at = |level: usize, mode: ClusterMode| -> Vec<u32> {
        let (c, _) = ClusterCache::new(levels).query(g, pyr, level, mode);
        (0..n).map(|v| c.label(v)).collect()
    };
    let labels = (0..levels)
        .map(|level| {
            rayon::join(
                || labels_at(level, ClusterMode::Power),
                || labels_at(level, ClusterMode::Even),
            )
        })
        .collect();
    Fingerprint { snapshot, words, labels }
}

#[test]
fn thread_count_and_schedule_never_change_results() {
    let seeds: &[Option<&str>] = if cfg!(feature = "stress-schedules") {
        &[None, Some("0"), Some("42"), Some("3405691582")]
    } else {
        &[None]
    };
    for batched in [true, false] {
        // Reference: one thread, no perturbation.
        std::env::remove_var("ANC_STRESS_SEED");
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let reference = fingerprint(batched);
        for threads in ["2", "4", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            for seed in seeds {
                match seed {
                    Some(seed) => std::env::set_var("ANC_STRESS_SEED", seed),
                    None => std::env::remove_var("ANC_STRESS_SEED"),
                }
                assert!(
                    fingerprint(batched) == reference,
                    "batched = {batched}: diverged from the 1-thread reference at \
                     {threads} threads, stress seed {seed:?}"
                );
            }
        }
    }
    std::env::remove_var("ANC_STRESS_SEED");
    std::env::remove_var("RAYON_NUM_THREADS");
}
