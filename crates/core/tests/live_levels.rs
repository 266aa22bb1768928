//! Live and stale levels (the `pyramid` module doc): ingest repairs only the
//! live levels, a query of a stale level panics naming it, and a level that
//! becomes live again is synced to exactly what eager repair of every level
//! would have left. The oracle for "exactly" is a restore: an engine
//! restored from a snapshot rebuilds every level from the similarity alone,
//! so it equals `reconstruct_index()` at every level.

use std::panic::{catch_unwind, AssertUnwindSafe};

use anc_core::cluster::cluster_all;
use anc_core::{AncConfig, AncEngine, ClusterMode};
use anc_decay::RescaleConfig;
use anc_graph::gen::{connected_caveman, erdos_renyi};
use anc_graph::{EdgeId, Graph, NodeId};
use proptest::prelude::*;

/// λ = 1 and a guard of 0, so a clock rescale is due at every call once a
/// whole halving of `g` has elapsed: streams cross them routinely.
fn small_cfg() -> AncConfig {
    AncConfig {
        lambda: 1.0,
        k: 2,
        rep: 1,
        mu: 2,
        epsilon: 0.2,
        rescale: RescaleConfig { exponent_guard: 0.0 },
        ..Default::default()
    }
}

fn graph_for(seed: u64) -> Graph {
    if seed.is_multiple_of(2) {
        erdos_renyi(40, 90, seed)
    } else {
        connected_caveman(4, 6).graph
    }
}

/// Every partition of `level`: `(dist bits, seed_of, parent)` per node,
/// pyramid by pyramid.
fn level_bits(engine: &AncEngine, level: usize) -> Vec<(u64, NodeId, NodeId)> {
    let pyr = engine.pyramids();
    (0..pyr.k())
        .flat_map(|p| {
            let part = pyr.partition(p, level);
            (0..engine.graph().n() as NodeId)
                .map(move |v| (part.dist(v).to_bits(), part.seed_of(v), part.parent(v)))
        })
        .collect()
}

/// The engine's index rebuilt from its similarity alone, every level live.
fn rebuilt(engine: &AncEngine) -> AncEngine {
    AncEngine::from_snapshot(engine.to_snapshot()).expect("a live engine's snapshot restores")
}

fn live_levels(engine: &AncEngine) -> Vec<usize> {
    (0..engine.num_levels()).filter(|&l| engine.pyramids().is_live(l)).collect()
}

/// Every live level equals the rebuild's, and the cached clustering of each
/// live level the `queried` set names equals a cold one.
fn check_live_levels(engine: &AncEngine, queried: &[usize]) -> Result<(), TestCaseError> {
    let reference = rebuilt(engine);
    for level in live_levels(engine) {
        prop_assert!(
            level_bits(engine, level) == level_bits(&reference, level),
            "live level {} differs from the rebuild",
            level
        );
    }
    for &level in queried.iter().filter(|&&l| engine.pyramids().is_live(l)) {
        for mode in [ClusterMode::Even, ClusterMode::Power] {
            let (cached, _) = engine.cluster_all_cached(level, mode);
            let cold = cluster_all(engine.graph(), engine.pyramids(), level, mode);
            prop_assert_eq!(&*cached, &cold, "level {} {:?}", level, mode);
        }
    }
    prop_assert!(engine.check_invariants().is_ok(), "{:?}", engine.check_invariants());
    Ok(())
}

/// One step `(raw edges, dt, kind, mask)`: an activation batch at `dt`
/// after the last, or (kind 0) a new live set, the bits of `mask` that name
/// a level.
type Step = (Vec<usize>, f64, u32, u64);

fn stream() -> impl Strategy<Value = (u64, Vec<Step>)> {
    (
        0u64..32,
        prop::collection::vec(
            (prop::collection::vec(0usize..10_000, 1..10), 0.05f64..0.9, 0u32..4, any::<u64>()),
            1..12,
        ),
    )
}

fn run_stream(seed: u64, steps: Vec<Step>) -> Result<(), TestCaseError> {
    let mut engine = AncEngine::new(graph_for(seed), small_cfg(), seed);
    let (m, levels) = (engine.graph().m(), engine.num_levels());
    let mut queried = Vec::new();
    let mut t = 0.0;
    // A last batch a whole λΔt after the others crosses a clock rescale.
    for (raw, dt, kind, mask) in steps.into_iter().chain([(vec![0, 1, 2], 1.0, 1, 0)]) {
        if kind == 0 {
            let live: Vec<usize> = (0..levels).filter(|&l| mask >> l & 1 == 1).collect();
            engine.set_live_levels(&live);
            // The new live set is queried, so its levels are cached from here.
            queried = live;
        } else {
            t += dt;
            let batch: Vec<EdgeId> = raw.into_iter().map(|i| (i % m) as EdgeId).collect();
            let _ = engine.activate_batch(&batch, t);
        }
        check_live_levels(&engine, &queried)?;
    }
    prop_assert!(engine.rescales() >= 1, "the stream crossed no clock rescale");
    // Syncing every level gives the whole index of eager repair, bit for bit.
    let all: Vec<usize> = (0..levels).collect();
    engine.set_live_levels(&all);
    let synced = engine.state_bytes_for_test();
    prop_assert!(synced == rebuilt(&engine).state_bytes_for_test(), "sync differs from a restore");
    engine.reconstruct_index();
    prop_assert!(synced == engine.state_bytes_for_test(), "sync differs from the rebuild");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Streams with random live-set changes: every live level stays the
    /// rebuild's, cached clusterings at live levels stay cold ones, and
    /// syncing every level at the end reproduces `reconstruct_index()`.
    #[test]
    fn synced_levels_equal_the_rebuild((seed, steps) in stream()) {
        run_stream(seed, steps)?;
    }
}

/// The property's coverage, pinned: a level goes stale, falls behind a few
/// batches, and is synced back while another level is cached.
#[test]
fn a_level_synced_after_batches_equals_the_rebuild() {
    let batch: Vec<usize> = (0..9).map(|i| i * 5).collect();
    let steps = vec![
        (vec![], 0.0, 0, 0b01000),
        (batch.clone(), 0.4, 1, 0),
        (batch.clone(), 0.4, 2, 0),
        (vec![], 0.0, 0, 0b11010),
        (batch, 0.4, 3, 0),
    ];
    for seed in [0, 1] {
        run_stream(seed, steps.clone()).unwrap();
    }
}

/// The panic message every stale query raises, by query.
fn stale_panic(query: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(query)).expect_err("a stale query must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("a message")
}

#[test]
#[should_panic(expected = "level 1 is stale")]
fn a_query_at_a_stale_level_panics() {
    let mut engine = AncEngine::new(connected_caveman(4, 6).graph, small_cfg(), 3);
    engine.set_live_levels(&[engine.default_level()]);
    let _ = engine.same_cluster(0, 1, 1);
}

/// Each query of the index checks the level, and its message names it.
#[test]
fn every_query_of_a_stale_level_names_it() {
    let mut engine = AncEngine::new(connected_caveman(4, 6).graph, small_cfg(), 3);
    let (finest, default) = (engine.num_levels() - 1, engine.default_level());
    assert_ne!(finest, default);
    engine.set_live_levels(&[default]);
    let engine = &engine;
    let named = |level: usize, msg: String| {
        assert!(msg.contains(&format!("level {level} is stale")), "{msg}");
    };
    named(
        0,
        stale_panic(|| {
            let _ = engine.same_cluster(0, 1, 0);
        }),
    );
    named(
        1,
        stale_panic(|| {
            let _ = engine.cluster_all(1, ClusterMode::Even);
        }),
    );
    named(
        2,
        stale_panic(|| {
            let _ = engine.cluster_all_cached(2, ClusterMode::Power);
        }),
    );
    named(
        0,
        stale_panic(|| {
            let _ = engine.local_cluster(3, 0);
        }),
    );
    named(
        finest,
        stale_panic(|| {
            let _ = engine.smallest_cluster(3);
        }),
    );
    // The live level answers.
    assert!(engine.local_cluster(3, default).contains(&3));
}

/// `approx_distance` reads the live levels ≥ 1 only, so it is never an
/// underestimate whatever the live set, and ∞ with no level ≥ 1 live.
#[test]
fn approx_distance_reads_live_levels_only() {
    let mut engine = AncEngine::new(connected_caveman(4, 6).graph, small_cfg(), 5);
    let m = engine.graph().m() as EdgeId;
    engine.set_live_levels(&[2]);
    for i in 0..40 {
        let _ = engine.activate_batch(&[(i * 7) % m, (i * 3 + 1) % m], 1.0 + f64::from(i) * 0.1);
    }
    let n = engine.graph().n() as NodeId;
    for u in 0..n {
        for v in 0..n {
            let (est, exact) = (engine.approx_distance(u, v), engine.exact_distance(u, v));
            assert!(est >= exact * (1.0 - 1e-9), "({u},{v}) est {est} < exact {exact}");
        }
    }
    engine.set_live_levels(&[0]);
    assert!(engine.approx_distance(0, 1).is_infinite());
    assert_eq!(engine.approx_distance(4, 4), 0.0);
}

/// The range step scales `recip` and the live levels' distances and lifts
/// the edges below the floor through the repair path; stale levels take
/// neither step. A burst on the cliques' edges carries the mean of `S` out
/// of the window with one level live and cached: that level must equal the
/// rebuild and its cache a cold fill, and syncing every level afterwards
/// must give the rebuild's whole index.
#[test]
fn the_range_step_with_stale_levels_still_syncs_exactly() {
    let lg = connected_caveman(3, 5);
    let cfg = AncConfig { k: 2, rep: 1, mu: 2, epsilon: 0.2, ..Default::default() };
    let mut engine = AncEngine::new(lg.graph, cfg, 11);
    let level = engine.default_level();
    engine.set_live_levels(&[level]);
    let intra: Vec<EdgeId> =
        engine.graph().iter_edges().filter(|&(_, u, v)| u / 5 == v / 5).map(|(e, ..)| e).collect();
    let mut t = 0.0;
    while engine.to_snapshot().sim_exp == 0 {
        assert!(engine.activations() < 100_000, "the burst never reached the range step");
        let _ = engine.cluster_all_cached(level, ClusterMode::Power);
        for &e in &intra {
            t += 1e-3;
            engine.activate(e, t);
        }
    }
    check_live_levels(&engine, &[level]).unwrap();
    let all: Vec<usize> = (0..engine.num_levels()).collect();
    engine.set_live_levels(&all);
    let synced = engine.state_bytes_for_test();
    engine.reconstruct_index();
    assert!(synced == engine.state_bytes_for_test(), "sync after the range step differs");
    engine.check_invariants().unwrap();
}

/// A snapshot of an engine with stale levels restores whole: every level
/// live and equal to the rebuild, and the restored engine evolves as the
/// original does once that one is synced.
#[test]
fn a_snapshot_with_stale_levels_restores_every_level() {
    let mut engine = AncEngine::new(connected_caveman(4, 6).graph, small_cfg(), 9);
    let m = engine.graph().m() as EdgeId;
    engine.set_live_levels(&[1]);
    for i in 0..30 {
        let _ = engine.activate_batch(&[(i * 5) % m], 0.5 + f64::from(i) * 0.2);
    }
    let mut restored = rebuilt(&engine);
    assert_eq!(live_levels(&restored), (0..engine.num_levels()).collect::<Vec<_>>());
    let all: Vec<usize> = (0..engine.num_levels()).collect();
    engine.set_live_levels(&all);
    assert!(engine.state_bytes_for_test() == restored.state_bytes_for_test());
    for e in [0, 3, 8] {
        let _ = engine.activate_batch(&[e], 9.0);
        let _ = restored.activate_batch(&[e], 9.0);
    }
    assert!(engine.state_bytes_for_test() == restored.state_bytes_for_test());
}

/// Ingest repairs the live levels only: a stale level's arrays do not move,
/// and every weight change visits `k` partitions per live level `≥ 1`.
#[test]
fn ingest_leaves_stale_levels_untouched() {
    let mut engine = AncEngine::new(connected_caveman(4, 6).graph, small_cfg(), 4);
    let (m, k) = (engine.graph().m() as EdgeId, engine.pyramids().k());
    let stale = engine.num_levels() - 1;
    engine.set_live_levels(&[1, 2]);
    let before = level_bits(&engine, stale);
    let (mut visited, mut batches) = (0, 0);
    for i in 0..30 {
        let batch = [(i * 7) % m, (i * 3 + 1) % m, (i * 11 + 2) % m];
        let stats = engine.activate_batch(&batch[..1 + i as usize % 3], 0.5 + f64::from(i) * 0.1);
        assert_eq!((stats.updates + stats.skips) % (2 * k), 0, "{stats:?}");
        visited += stats.updates + stats.skips;
        batches += 1;
    }
    assert!(visited >= batches * 2 * k, "{visited} partitions visited over {batches} batches");
    assert!(level_bits(&engine, stale) == before, "a repair moved stale level {stale}");
}

/// `reconstruct_index` rebuilds the live levels, which it finds equal to
/// what ingest left, and keeps the live set; a stale level waits for its
/// sync.
#[test]
fn reconstruct_index_rebuilds_the_live_levels_only() {
    let mut engine = AncEngine::new(connected_caveman(4, 6).graph, small_cfg(), 6);
    let m = engine.graph().m() as EdgeId;
    let stale = engine.num_levels() - 1;
    engine.set_live_levels(&[2, 3]);
    for i in 0..20 {
        let _ = engine.activate_batch(&[(i * 5) % m, (i * 9 + 4) % m], 0.5 + f64::from(i) * 0.2);
    }
    let before: Vec<_> = [2, 3, stale].map(|l| level_bits(&engine, l)).into();
    engine.reconstruct_index();
    assert_eq!(live_levels(&engine), [2, 3]);
    let after: Vec<_> = [2, 3, stale].map(|l| level_bits(&engine, l)).into();
    assert!(before == after, "a live level differs from its rebuild, or a stale one was rebuilt");
    engine.set_live_levels(&[2, 3, stale]);
    assert!(level_bits(&engine, stale) == level_bits(&rebuilt(&engine), stale));
}
