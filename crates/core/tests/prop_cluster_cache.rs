//! Property tests for the incremental cluster-query cache: across arbitrary
//! mixed streams of single activations, batches, and batches followed by an
//! index reconstruction, a cached `cluster_all` must stay label-identical to
//! a cold recomputation at every level and in both extraction modes —
//! including across rescale boundaries, which the cache must treat as
//! no-ops.

use std::sync::Arc;

use anc_core::cluster::cluster_all;
use anc_core::{AncConfig, AncEngine, ClusterMode, QueryDecision};
use anc_graph::gen::{connected_caveman, erdos_renyi, planted_partition, PlantedConfig};
use anc_graph::{EdgeId, Graph};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn small_cfg() -> AncConfig {
    AncConfig {
        k: 2,
        rep: 1,
        mu: 2,
        epsilon: 0.2,
        // A tiny rescale interval so streams routinely cross rescale
        // boundaries — which must never dirty or regenerate the cache.
        rescale: anc_decay::RescaleConfig { every_activations: 9, exponent_guard: 200.0 },
        ..Default::default()
    }
}

fn graph_for(seed: u64) -> Graph {
    if seed.is_multiple_of(2) {
        erdos_renyi(24, 50, seed)
    } else {
        connected_caveman(3, 5).graph
    }
}

/// One step of the stream: which update path to take, the raw edges, and
/// the time increment.
#[derive(Clone, Debug)]
enum Step {
    Single(usize),
    Batch(Vec<usize>),
    Reconstruct(Vec<usize>),
}

fn stream() -> impl Strategy<Value = (u64, Vec<(Step, f64)>)> {
    // The vendored proptest has no `prop_oneof`; pick the variant with a
    // discriminant drawn alongside the payload.
    let step =
        (0usize..3, prop::collection::vec(0usize..10_000, 1..20)).prop_map(
            |(kind, raw)| match kind {
                0 => Step::Single(raw[0]),
                1 => Step::Batch(raw),
                _ => Step::Reconstruct(raw),
            },
        );
    (0u64..32, prop::collection::vec((step, 0.05f64..0.8), 1..8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance bar: cached ≡ cold at every level, both modes, after
    /// every step of a mixed update stream.
    #[test]
    fn cached_cluster_all_equals_cold_recompute((seed, steps) in stream()) {
        let g = graph_for(seed);
        let m = g.m();
        let mut engine = AncEngine::new(g, small_cfg(), seed);
        // Pre-warm a subset of levels so steps exercise both materialized
        // (dirty-repair) and unmaterialized (cold-fill) paths.
        for level in (0..engine.num_levels()).step_by(2) {
            engine.cluster_all_cached(level, ClusterMode::Power);
        }
        let mut t = 0.0;
        for (step, dt) in steps {
            t += dt;
            match step {
                Step::Single(raw) => {
                    engine.activate((raw % m) as u32, t);
                }
                Step::Batch(raw) => {
                    let batch: Vec<u32> = raw.into_iter().map(|i| (i % m) as u32).collect();
                    let _ = engine.activate_batch(&batch, t);
                }
                Step::Reconstruct(raw) => {
                    let batch: Vec<u32> = raw.into_iter().map(|i| (i % m) as u32).collect();
                    // A batch, then RECONSTRUCT: hits cache invalidation.
                    let _ = engine.activate_batch(&batch, t);
                    engine.reconstruct_index();
                }
            }
            for level in 0..engine.num_levels() {
                for mode in [ClusterMode::Even, ClusterMode::Power] {
                    let (cached, stats) = engine.cluster_all_cached(level, mode);
                    let cold = cluster_all(engine.graph(), engine.pyramids(), level, mode);
                    prop_assert_eq!(
                        &*cached, &cold,
                        "level {} {:?} diverged (decision {:?})", level, mode, stats.decision
                    );
                }
            }
        }
        engine.check_invariants().unwrap();
    }

    /// Generation snapshot consistency: two queries with no intervening
    /// update report the same generation and share the same allocation; an
    /// index-moving update forces a fresh generation.
    #[test]
    fn generations_are_snapshot_consistent((seed, steps) in stream()) {
        let g = graph_for(seed);
        let m = g.m();
        let mut engine = AncEngine::new(g, small_cfg(), seed);
        let level = engine.default_level();
        let mut t = 0.0;
        for (step, dt) in steps {
            t += dt;
            let edges: Vec<u32> = match step {
                Step::Single(raw) => vec![(raw % m) as u32],
                Step::Batch(raw) | Step::Reconstruct(raw) => {
                    raw.into_iter().map(|i| (i % m) as u32).collect()
                }
            };
            let _ = engine.activate_batch(&edges, t);
            let (a, sa) = engine.cluster_all_cached(level, ClusterMode::Power);
            let (b, sb) = engine.cluster_all_cached(level, ClusterMode::Power);
            prop_assert!(Arc::ptr_eq(&a, &b), "unchanged generation must share the Arc");
            prop_assert_eq!(sa.generation, sb.generation);
            prop_assert_eq!(sb.decision, QueryDecision::Hit);
            prop_assert_eq!(sb.dirty_edges, 0, "second read must see a clean level");
        }
    }

    /// Forcing the threshold to 0 (every repair becomes a wholesale rebuild)
    /// must never change any answer — the repair and rebuild paths are
    /// interchangeable implementations of the same function.
    #[test]
    fn rebuild_threshold_never_changes_answers((seed, steps) in stream()) {
        let g = graph_for(seed);
        let m = g.m();
        let mut repair = AncEngine::new(g.clone(), small_cfg(), seed);
        let mut rebuild = AncEngine::new(g, small_cfg(), seed);
        rebuild.cluster_cache_mut().set_dirty_rebuild_fraction(0.0);
        let level = repair.default_level();
        repair.cluster_all_cached(level, ClusterMode::Even);
        rebuild.cluster_all_cached(level, ClusterMode::Even);
        let mut t = 0.0;
        for (step, dt) in steps {
            t += dt;
            let edges: Vec<u32> = match step {
                Step::Single(raw) => vec![(raw % m) as u32],
                Step::Batch(raw) | Step::Reconstruct(raw) => {
                    raw.into_iter().map(|i| (i % m) as u32).collect()
                }
            };
            let _ = repair.activate_batch(&edges, t);
            let _ = rebuild.activate_batch(&edges, t);
            let (a, _) = repair.cluster_all_cached(level, ClusterMode::Even);
            let (b, _) = rebuild.cluster_all_cached(level, ClusterMode::Even);
            prop_assert_eq!(&*a, &*b, "threshold must be behavior-neutral");
        }
    }
}

/// ROADMAP item 1(a)'s reproducer, and the realistic-n guard for the class:
/// near-ties that only an ulp separates need thousands of nodes, which the
/// property suites above never have. One stream crosses the first batched
/// rescale (activation 4 096) on the default config; every 64 activations
/// the cached default-level clustering is refreshed and the whole engine —
/// cache against index included — is checked.
fn post_rescale_stream_keeps_cache_in_step(stream_seed: u64) {
    let lg = planted_partition(&PlantedConfig::default_for(20_000), 1);
    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed);
    let intra: Vec<EdgeId> = lg
        .graph
        .iter_edges()
        .filter(|&(_, u, v)| lg.labels[u as usize] == lg.labels[v as usize])
        .map(|(e, _, _)| e)
        .collect();
    let hot: Vec<EdgeId> = (0..512).map(|_| intra[rng.gen_range(0..intra.len())]).collect();
    let m = lg.graph.m() as EdgeId;
    let mut engine = AncEngine::new(lg.graph, AncConfig::default(), 1);
    let level = engine.default_level();
    let mut t = 0.0;
    for i in 1..=5_200 {
        let e =
            if rng.gen_bool(0.8) { hot[rng.gen_range(0..hot.len())] } else { rng.gen_range(0..m) };
        engine.activate(e, t);
        if i % 64 == 0 {
            t += 0.01;
            engine.cluster_all_cached(level, ClusterMode::Even);
            engine
                .check_invariants()
                .unwrap_or_else(|err| panic!("stream {stream_seed}, activation {i}: {err}"));
        }
    }
    assert_eq!(engine.rescales(), 1, "the stream must cross exactly the first rescale");
}

#[test]
#[ignore = "n = 20 000: seconds in release, minutes in debug; ci.sh runs it by name"]
fn post_rescale_cache_matches_index_at_realistic_n() {
    // Before repairs reported every node they wrote, stream 2 failed at
    // activation 4 352 (cached vote true, index false) and stream 6 at
    // 4 864 (cached false, index true); 3 of the first 16 seeds failed.
    for stream_seed in [2, 6] {
        post_rescale_stream_keeps_cache_in_step(stream_seed);
    }
}
