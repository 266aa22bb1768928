//! Property tests for the incremental cluster-query cache: across arbitrary
//! mixed streams of single activations, batches, and batches followed by an
//! index reconstruction, a cached `cluster_all` must stay label-identical to
//! a cold recomputation at every level and in both extraction modes —
//! including across rescale boundaries, which the cache must treat as
//! no-ops. Below them, the tests of the repair itself: queries that see a
//! split, a merge and both at once; a seed that moves and moves back; the
//! pending lists' bound; and, at the benchmark fixture's scale, work counted
//! against the nodes whose seed really moved.

use std::sync::Arc;

use anc_core::cluster::cluster_all;
use anc_core::{AncConfig, AncEngine, ClusterCache, ClusterMode, Pyramids, QueryDecision};
use anc_graph::gen::{connected_caveman, erdos_renyi, planted_partition, PlantedConfig};
use anc_graph::{EdgeId, Graph, NodeId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn small_cfg() -> AncConfig {
    AncConfig {
        // λ = 1 and a guard of 0, due at every call, so streams routinely
        // cross rescale boundaries — which must never dirty or regenerate
        // the cache. A rescale halves `g` only once λ(t − t*) ≥ ln 2; at the
        // default λ these short streams would never reach one.
        lambda: 1.0,
        k: 2,
        rep: 1,
        mu: 2,
        epsilon: 0.2,
        rescale: anc_decay::RescaleConfig { exponent_guard: 0.0 },
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

/// The acceptance bar: cached ≡ cold at every level, both modes, after
/// every step of `steps`. Returns how many rescales the stream crossed.
fn check_cached_equals_cold(seed: u64, steps: Vec<(Step, f64)>) -> Result<u64, TestCaseError> {
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
                    &*cached,
                    &cold,
                    "level {} {:?} diverged (decision {:?})",
                    level,
                    mode,
                    stats.decision
                );
            }
        }
    }
    engine.check_invariants().unwrap();
    Ok(engine.rescales())
}

/// The property's coverage, pinned: a fixed stream of single activations,
/// batches and reconstructions that crosses rescales which really halve `g`.
#[test]
fn cached_cluster_all_equals_cold_across_real_rescales() {
    let raw: Vec<usize> = (0..13).map(|i| i * 5).collect();
    let steps = vec![
        (Step::Batch(raw.clone()), 0.8),
        (Step::Single(3), 0.1),
        (Step::Reconstruct(raw.clone()), 0.8),
        (Step::Batch(raw.clone()), 0.8),
        (Step::Batch(raw), 0.8),
    ];
    for seed in [0, 1] {
        let rescales = check_cached_equals_cold(seed, steps.clone()).unwrap();
        assert!(rescales >= 3, "seed {seed}: only {rescales} rescales crossed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_cluster_all_equals_cold_recompute((seed, steps) in stream()) {
        check_cached_equals_cold(seed, steps)?;
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
}

/// The rebuild threshold is behavior-neutral: over streams whose queries
/// take both the repair and the rebuild path, every cached answer is the
/// cold extraction. Graphs this small cross the threshold on their own (a
/// quarter of the `2m` adjacency slots is a few dozen; `anc-perf`'s fixture
/// notes that at n ≤ 1 000 nearly every query rebuilds).
#[test]
fn rebuild_threshold_never_changes_answers() {
    let (mut repairs, mut rebuilds) = (0, 0);
    for seed in 0..8 {
        let g = graph_for(seed);
        let m = g.m() as u32;
        let mut engine = AncEngine::new(g, small_cfg(), seed);
        let level = engine.default_level();
        engine.cluster_all_cached(level, ClusterMode::Even);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for step in 1..=24 {
            let edges: Vec<u32> = (0..rng.gen_range(1..6)).map(|_| rng.gen_range(0..m)).collect();
            let _ = engine.activate_batch(&edges, 0.1 * step as f64);
            for mode in [ClusterMode::Even, ClusterMode::Power] {
                let (cached, stats) = engine.cluster_all_cached(level, mode);
                let cold = cluster_all(engine.graph(), engine.pyramids(), level, mode);
                assert_eq!(*cached, cold, "seed {seed} step {step} {mode:?} ({stats:?})");
                repairs += usize::from(stats.decision == QueryDecision::Repair);
                rebuilds += usize::from(stats.decision == QueryDecision::Rebuild);
            }
        }
    }
    assert!(repairs > 0 && rebuilds > 0, "{repairs} repairs, {rebuilds} rebuilds");
}

/// The planted-partition stream of `anc-perf`'s fixture: 80 % of the
/// activations from a hot set of 512 intra-community edges, the rest
/// uniform, on the default config with the rescale guard `exponent_guard`;
/// every 64 activations the clock ticks by `tick` and `at_query` runs.
fn planted_stream(
    n: usize,
    stream_seed: u64,
    activations: usize,
    tick: f64,
    exponent_guard: f64,
    mut at_query: impl FnMut(&mut AncEngine, usize),
) -> AncEngine {
    let lg = planted_partition(&PlantedConfig::default_for(n), 1);
    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed);
    let intra: Vec<EdgeId> = lg
        .graph
        .iter_edges()
        .filter(|&(_, u, v)| lg.labels[u as usize] == lg.labels[v as usize])
        .map(|(e, _, _)| e)
        .collect();
    let hot: Vec<EdgeId> = (0..512).map(|_| intra[rng.gen_range(0..intra.len())]).collect();
    let m = lg.graph.m() as EdgeId;
    let rescale = anc_decay::RescaleConfig { exponent_guard };
    let mut engine = AncEngine::new(lg.graph, AncConfig { rescale, ..Default::default() }, 1);
    let mut t = 0.0;
    for i in 1..=activations {
        let e =
            if rng.gen_bool(0.8) { hot[rng.gen_range(0..hot.len())] } else { rng.gen_range(0..m) };
        engine.activate(e, t);
        if i % 64 == 0 {
            t += tick;
            at_query(&mut engine, i);
        }
    }
    engine
}

/// ROADMAP item 1(a)'s reproducer, and the realistic-n guard for the class:
/// near-ties that only an ulp separates need thousands of nodes, which the
/// property suites above never have. One stream crosses one batched
/// rescale: the guard of 0.95 makes it due at t = 9.6 (λt = 0.96, one
/// halving of `g`), at activation 4 097, where the old cadence of 4 096
/// activations put it too; every 64 activations the cached default-level
/// clustering is refreshed and the whole engine — cache against index,
/// `recip` against `1/S*` bit for bit — is checked.
fn post_rescale_stream_keeps_cache_in_step(stream_seed: u64) {
    let engine = planted_stream(20_000, stream_seed, 5_200, 0.15, 0.95, |engine, i| {
        engine.cluster_all_cached(engine.default_level(), ClusterMode::Even);
        engine
            .check_invariants()
            .unwrap_or_else(|err| panic!("stream {stream_seed}, activation {i}: {err}"));
    });
    assert_eq!(engine.rescales(), 1, "the stream must cross exactly one rescale");
}

#[test]
#[ignore = "n = 20 000: seconds in release, minutes in debug; ci.sh runs it by name"]
fn post_rescale_cache_matches_index_at_realistic_n() {
    // Before repairs reported every node they wrote, and with the clock
    // ticking 0.01 and an inexact rescale factor, stream 2 failed at
    // activation 4 352 (cached vote true, index false) and stream 6 at
    // 4 864 (cached false, index true); 3 of the first 16 seeds failed.
    for stream_seed in [2, 6] {
        post_rescale_stream_keeps_cache_in_step(stream_seed);
    }
}

/// The cost contract, counted rather than timed, on `anc-perf`'s
/// `engine-stream` shape (n = 2 000, 3 840 activations, a query every 64):
/// a query re-votes no more than the adjacency of the nodes whose seed
/// moved since the last one — found here by diffing the index itself — and
/// re-extracts a region well short of the graph. Falling back to
/// whole-graph work (a rebuild, dirtying by named nodes, re-extracting on
/// every split) fails these counts.
#[test]
#[ignore = "n = 2 000 for 3 840 activations: a second in release; ci.sh runs it by name"]
fn query_work_is_bounded_by_what_changed_at_fixture_scale() {
    let n = 2_000;
    let mut seen: Vec<Vec<NodeId>> = Vec::new();
    let (mut queries, mut repairs, mut regions) = (0usize, 0usize, 0usize);
    planted_stream(n, 1, 3_840, 0.01, 200.0, |engine, i| {
        let level = engine.default_level();
        let live: Vec<Vec<NodeId>> = (0..engine.pyramids().k())
            .map(|p| {
                let part = engine.pyramids().partition(p, level);
                (0..n as NodeId).map(|v| part.seed_of(v)).collect()
            })
            .collect();
        let (cached, stats) = engine.cluster_all_cached(level, ClusterMode::Even);
        if !seen.is_empty() {
            let moved: Vec<NodeId> = (0..n as NodeId)
                .filter(|&v| seen.iter().zip(&live).any(|(a, b)| a[v as usize] != b[v as usize]))
                .collect();
            let adjacency: usize = moved.iter().map(|&v| engine.graph().degree(v)).sum();
            assert_eq!(stats.changed_nodes, moved.len(), "activation {i}");
            assert!(stats.revoted <= adjacency, "activation {i}: {stats:?} vs Σ deg {adjacency}");
            assert!(stats.region_nodes < n / 4, "activation {i}: {stats:?}");
            assert_ne!(stats.decision, QueryDecision::Rebuild, "activation {i}");
            queries += 1;
            repairs += usize::from(stats.decision == QueryDecision::Repair);
            regions += usize::from(stats.region_nodes > 0);
        }
        let cold = cluster_all(engine.graph(), engine.pyramids(), level, ClusterMode::Even);
        assert_eq!(*cached, cold, "activation {i}");
        seen = live;
    });
    assert_eq!(queries, 59);
    assert!(repairs > queries / 2 && regions > queries / 4, "{repairs} repairs, {regions} regions");
}

/// Which way the votes of `level` went over one query, read off the cached
/// bitset: (some edge voted in, some edge voted out).
fn flip_directions(before: &[u64], engine: &AncEngine, level: usize) -> (bool, bool) {
    let cache = engine.cluster_cache();
    let after = cache.voted_bits(level).expect("materialized").words();
    let on = before.iter().zip(after).any(|(b, a)| a & !b != 0);
    let off = before.iter().zip(after).any(|(b, a)| b & !a != 0);
    (on, off)
}

/// Cached ≡ cold through the region repair with both modes materialized and
/// with each alone, over a stream of single activations, grouped batches
/// and a forced rescale whose queries see a merge only, a split only and
/// both at once (asserted, so the stream cannot quietly stop covering them).
#[test]
fn region_repair_matches_cold_through_splits_and_merges() {
    for modes in [
        &[ClusterMode::Even, ClusterMode::Power][..],
        &[ClusterMode::Even][..],
        &[ClusterMode::Power][..],
    ] {
        let lg = planted_partition(&PlantedConfig::default_for(300), 3);
        let m = lg.graph.m() as u32;
        let mut engine = AncEngine::new(lg.graph, AncConfig { rep: 2, ..Default::default() }, 5);
        let level = engine.default_level() + 1;
        for &mode in modes {
            engine.cluster_all_cached(level, mode);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let (mut merges, mut splits, mut both) = (0, 0, 0);
        for step in 0..240 {
            let t = 0.05 * step as f64;
            match step % 4 {
                0 => engine.activate(rng.gen_range(0..m), t),
                1 => {
                    let batch: Vec<u32> = (0..6).map(|_| rng.gen_range(0..m)).collect();
                    let _ = engine.activate_batch(&batch, t);
                }
                2 => engine.reinforce_edges(&[rng.gen_range(0..m), rng.gen_range(0..m)]),
                _ => {
                    engine.activate(rng.gen_range(0..m), t);
                    if step == 159 {
                        // λt = 0.795 holds one halving of g.
                        engine.force_rescale();
                        assert_eq!(engine.rescales(), 1, "the rescale must not be a no-op");
                    }
                }
            }
            let before = engine.cluster_cache().voted_bits(level).expect("warm").words().to_vec();
            for &mode in modes {
                let (cached, stats) = engine.cluster_all_cached(level, mode);
                let cold = cluster_all(engine.graph(), engine.pyramids(), level, mode);
                assert_eq!(*cached, cold, "step {step} {mode:?} ({stats:?})");
            }
            match flip_directions(&before, &engine, level) {
                (true, false) => merges += 1,
                (false, true) => splits += 1,
                (true, true) => both += 1,
                (false, false) => {}
            }
        }
        assert!(
            merges > 0 && splits > 0 && both > 0,
            "{merges} merges, {splits} splits, {both} both"
        );
        engine.check_invariants().unwrap();
    }
}

/// A seed that goes A → B → A between two queries costs the second one
/// nothing: the node is pending, its row equals the index again, and the
/// answer is the very `Arc` the first query returned.
#[test]
fn seed_that_moves_back_returns_the_same_arc() {
    let lg = connected_caveman(4, 5);
    let g = lg.graph;
    let mut w: Vec<f64> = (0..g.m()).map(|e| 1.0 + 0.013 * (e * 7 % 11) as f64).collect();
    let mut pyr = Pyramids::build(&g, &w, 3, 0.7, 13);
    let level = pyr.num_levels() - 1;
    let seeds_of = |pyr: &Pyramids| -> Vec<NodeId> {
        (0..pyr.k())
            .flat_map(|p| (0..g.n() as NodeId).map(move |v| (p, v)))
            .map(|(p, v)| pyr.partition(p, level).seed_of(v))
            .collect()
    };
    let mut cache = ClusterCache::new(pyr.num_levels());
    let mut round_trips = 0;
    for e in 0..g.m() as EdgeId {
        let (first, _) = cache.query(&g, &pyr, level, ClusterMode::Even);
        let home = seeds_of(&pyr);
        let old = w[e as usize];
        w[e as usize] = old * 40.0;
        cache.note_affected(&g, &pyr.on_weight_change(&g, &w, e, old));
        let away = seeds_of(&pyr);
        w[e as usize] = old;
        cache.note_affected(&g, &pyr.on_weight_change(&g, &w, e, old * 40.0));
        let (second, stats) = cache.query(&g, &pyr, level, ClusterMode::Even);
        if away != home && seeds_of(&pyr) == home {
            round_trips += 1;
            assert!(Arc::ptr_eq(&first, &second), "edge {e}: {stats:?}");
            assert_eq!(stats.decision, QueryDecision::Hit);
            assert_eq!((stats.changed_nodes, stats.revoted), (0, 0));
        }
        assert_eq!(*second, cluster_all(&g, &pyr, level, ClusterMode::Even), "edge {e}");
    }
    assert!(round_trips > 0, "no edge moved a seed and moved it back");
}

/// A level queried once and never again must not grow without bound: its
/// pending lists compact past `2n` entries, so 10⁵ activations leave at most
/// `3n` per pyramid — and still name every node a later query has to look at.
#[test]
fn unqueried_level_keeps_pending_memory_bounded() {
    let lg = planted_partition(&PlantedConfig::default_for(120), 2);
    let (n, m) = (lg.graph.n(), lg.graph.m() as u32);
    let mut engine = AncEngine::new(lg.graph, AncConfig { rep: 1, ..Default::default() }, 3);
    let (k, level) = (engine.pyramids().k(), engine.default_level());
    engine.cluster_all_cached(level, ClusterMode::Even);
    engine.cluster_all_cached(level, ClusterMode::Power);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut high_water = 0;
    for i in 0..100_000 {
        engine.activate(rng.gen_range(0..m), i as f64 * 1e-3);
        let pending = engine.cluster_cache().pending_count(level).expect("materialized");
        assert!(pending <= 3 * n * k, "activation {i}: {pending} pending entries");
        high_water = high_water.max(pending);
    }
    assert!(high_water > 2 * n, "the stream never filled a list: the bound was not exercised");
    for mode in [ClusterMode::Even, ClusterMode::Power] {
        let (cached, _) = engine.cluster_all_cached(level, mode);
        assert_eq!(*cached, cluster_all(engine.graph(), engine.pyramids(), level, mode));
    }
    engine.check_invariants().unwrap();
}
