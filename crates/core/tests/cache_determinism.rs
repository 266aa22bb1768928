//! Thread-count determinism of the cluster cache's parallel cold voting
//! pass: each pool task writes its own run of bitset words, so the packed
//! bitset — and everything extracted from it — is byte-identical for any
//! `RAYON_NUM_THREADS`. The sweep also fingerprints the engine snapshot and
//! runs a mixed workload whose cold fills execute from inside a nested
//! `rayon::join` (pool tasks run nested parallel calls inline).
//!
//! This file holds a single `#[test]` on purpose: it mutates the global
//! `RAYON_NUM_THREADS` variable, which would race with sibling tests in the
//! same binary.

use anc_core::{AncConfig, AncEngine, ClusterCache, ClusterMode};
use anc_graph::gen::connected_caveman;

struct Fingerprint {
    /// Exact snapshot bytes.
    snapshot: Vec<u8>,
    /// Per level: cold-fill bitset words and power-mode labels.
    levels: Vec<(Vec<u64>, Vec<u32>)>,
    /// Per level: (power labels, even labels) extracted via nested `join`
    /// on fresh caches — each arm is its own parallel cold fill.
    joined: Vec<(Vec<u32>, Vec<u32>)>,
}

impl PartialEq for Fingerprint {
    fn eq(&self, other: &Self) -> bool {
        self.snapshot == other.snapshot
            && self.levels == other.levels
            && self.joined == other.joined
    }
}

fn cold_fill_fingerprint(threads: &str) -> Fingerprint {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let lg = connected_caveman(4, 6);
    let cfg = AncConfig { rep: 1, mu: 3, epsilon: 0.25, k: 3, ..Default::default() };
    let mut engine = AncEngine::new(lg.graph, cfg, 42);
    let m = engine.graph().m() as u32;
    for i in 0..60u32 {
        engine.activate((i * 7 + 3) % m, 1.0 + i as f64 * 0.2);
    }
    let snapshot = engine.state_bytes_for_test();
    let n = engine.graph().n() as u32;

    // A standalone cache so every query is a parallel cold fill under the
    // current thread count.
    let mut cache = ClusterCache::new(engine.num_levels());
    let mut levels = Vec::new();
    for level in 0..engine.num_levels() {
        let (c, _) = cache.query(engine.graph(), engine.pyramids(), level, ClusterMode::Power);
        let words = cache.voted_bits(level).expect("just filled").words().to_vec();
        let labels: Vec<u32> = (0..n).map(|v| c.label(v)).collect();
        levels.push((words, labels));
    }

    // Mixed workload: both join arms run their own cold fill on a fresh
    // cache, so the fill's fan-out executes nested inside pool tasks. The
    // arms borrow graph/pyramids directly — the engine itself embeds a
    // RefCell cache and is not Sync.
    let (g, pyr, num_levels) = (engine.graph(), engine.pyramids(), engine.num_levels());
    let extract = |mode: ClusterMode, level: usize| -> Vec<u32> {
        let mut cache = ClusterCache::new(num_levels);
        let (c, _) = cache.query(g, pyr, level, mode);
        (0..n).map(|v| c.label(v)).collect()
    };
    let mut joined = Vec::new();
    for level in 0..num_levels {
        joined.push(rayon::join(
            || extract(ClusterMode::Power, level),
            || extract(ClusterMode::Even, level),
        ));
    }

    Fingerprint { snapshot, levels, joined }
}

#[test]
fn cold_fill_is_thread_count_invariant() {
    let runs: Vec<_> = ["1", "2", "4", "8"].iter().map(|t| cold_fill_fingerprint(t)).collect();
    std::env::remove_var("RAYON_NUM_THREADS");
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert!(&runs[0] == run, "cold fill diverged between 1 and {} threads", [1, 2, 4, 8][i]);
    }
}
