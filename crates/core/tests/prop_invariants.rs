//! Fuzz-style invariant testing (DESIGN.md §8): random activation streams —
//! mixed single/batch/batch-then-reconstruct, with a rescale guard small enough to
//! cross several rescale boundaries — with [`AncEngine::check_invariants`]
//! asserted after **every** step, plus negative tests that corrupted
//! snapshots are rejected with the right [`InvariantViolation`] variant.

use anc_core::{AncConfig, AncEngine, InvariantViolation, RestoreError, SnapshotProfile};
use anc_decay::RescaleConfig;
use anc_graph::gen::{connected_caveman, erdos_renyi};
use proptest::prelude::*;

/// One fuzzed stream event: a single activation or a batch.
#[derive(Clone, Debug)]
enum Event {
    Single(usize),
    Batch(Vec<usize>),
    Reconstruct(Vec<usize>),
}

fn event_strategy() -> impl Strategy<Value = Event> {
    (0u8..3, 0usize..10_000, prop::collection::vec(0usize..10_000, 1..24)).prop_map(
        |(kind, single, batch)| match kind {
            0 => Event::Single(single),
            1 => Event::Batch(batch),
            _ => Event::Reconstruct(batch),
        },
    )
}

fn stream_strategy() -> impl Strategy<Value = (u64, Vec<(Event, f64)>)> {
    (0u64..32, prop::collection::vec((event_strategy(), 0.0f64..1.5), 1..16))
}

/// A rescale guard of 0, due at every call, at λ = 1: every call a whole
/// halving of `g` past the anchor rescales, so a fuzz stream (which starts
/// at t = 1) crosses at least one PosM rescale boundary and typically
/// several.
fn fuzz_cfg() -> AncConfig {
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

fn apply(engine: &mut AncEngine, event: &Event, t: f64) {
    let m = engine.graph().m();
    match event {
        Event::Single(sel) => engine.activate((sel % m) as u32, t),
        Event::Batch(sels) => {
            let edges: Vec<u32> = sels.iter().map(|s| (s % m) as u32).collect();
            engine.activate_batch(&edges, t);
        }
        Event::Reconstruct(sels) => {
            let edges: Vec<u32> = sels.iter().map(|s| (s % m) as u32).collect();
            engine.activate_batch(&edges, t);
            engine.reconstruct_index();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every invariant holds after every step of a mixed stream.
    #[test]
    fn invariants_hold_after_every_step((seed, events) in stream_strategy()) {
        let g = erdos_renyi(20, 45, seed);
        if g.m() == 0 { return Ok(()); }
        let mut engine = AncEngine::new(g, fuzz_cfg(), seed);
        let mut t = 1.0;
        for (event, dt) in &events {
            t += dt;
            apply(&mut engine, event, t);
            if let Err(v) = engine.check_invariants() {
                return Err(TestCaseError::fail(format!("after {event:?} at t={t}: {v}")));
            }
        }
        prop_assert!(engine.rescales() >= 1, "the stream crossed no rescale");
    }

    /// Binary snapshots round-trip at every step of a mixed stream that
    /// crosses rescale boundaries (DESIGN.md §11): each restores
    /// invariant-clean and re-saves byte-identically (idempotent encoding),
    /// and a restore then *evolves* bit-identically to the live engine under
    /// the remaining stream suffix.
    #[test]
    fn binary_roundtrip_fuzz_mid_stream((seed, events) in stream_strategy()) {
        let g = erdos_renyi(20, 45, seed);
        if g.m() == 0 { return Ok(()); }
        let mut engine = AncEngine::new(g, fuzz_cfg(), seed);
        let mut t = 1.0;
        for (event, dt) in &events {
            t += dt;
            apply(&mut engine, event, t);

            let mut exact = Vec::new();
            engine.save_binary(&mut exact, SnapshotProfile::Exact).unwrap();
            let restored = AncEngine::load_binary(exact.as_slice()).unwrap();
            prop_assert!(restored.check_invariants().is_ok());
            let mut resave = Vec::new();
            restored.save_binary(&mut resave, SnapshotProfile::Exact).unwrap();
            prop_assert_eq!(&exact, &resave, "Exact re-save diverged at t={}", t);
        }

        // An Exact restore taken now must track the live engine through a
        // continuation stream bit for bit, index distances included: the
        // restore derives `1/S*` afresh, which a power-of-two rescale keeps
        // equal to the live engine's rescaled `recip`.
        let mut exact = Vec::new();
        engine.save_binary(&mut exact, SnapshotProfile::Exact).unwrap();
        let mut restored = AncEngine::load_binary(exact.as_slice()).unwrap();
        for (event, dt) in &events {
            t += dt;
            apply(&mut engine, event, t);
            apply(&mut restored, event, t);
            prop_assert!(restored.check_invariants().is_ok());
        }
        let (a, b) = (engine.to_snapshot(), restored.to_snapshot());
        prop_assert_eq!(a.activations, b.activations);
        prop_assert_eq!(a.rescales, b.rescales);
        prop_assert!(a.rescales >= 1, "the stream crossed no rescale");
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (x, y, what) in [
            (a.activeness.as_slice(), b.activeness.as_slice(), "activeness"),
            (&a.node_sum[..], &b.node_sum[..], "node_sum"),
            (&a.sim[..], &b.sim[..], "similarity"),
        ] {
            prop_assert_eq!(bits(x), bits(y), "{} diverged under continuation", what);
        }
        prop_assert_eq!(
            format!("{:?}", a.clock), format!("{:?}", b.clock),
            "clock diverged under continuation"
        );
        for p in 0..engine.pyramids().k() {
            for l in 0..engine.num_levels() {
                for v in 0..engine.graph().n() as u32 {
                    let (da, db) = (
                        engine.pyramids().partition(p, l).dist(v),
                        restored.pyramids().partition(p, l).dist(v),
                    );
                    prop_assert_eq!(da.to_bits(), db.to_bits(),
                        "pyramid {} level {} node {}: {} vs {}", p, l, v, da, db);
                }
            }
        }
    }
}

// --- negative tests: corruption is caught with the right variant ---------

fn snapshot_after_activity() -> anc_core::EngineSnapshot {
    let lg = connected_caveman(3, 4);
    let mut engine = AncEngine::new(lg.graph, fuzz_cfg(), 7);
    let m = engine.graph().m() as u32;
    for i in 0..20u32 {
        engine.activate(i % m, 0.3 * f64::from(i));
    }
    engine.to_snapshot()
}

#[test]
fn corrupted_similarity_is_rejected_as_similarity_violation() {
    let mut snap = snapshot_after_activity();
    snap.sim[0] = -1.0; // similarities must be strictly positive (Eq. 1)
    let err = AncEngine::from_snapshot(snap).err().expect("corrupt snapshot accepted");
    assert!(
        matches!(err, RestoreError::Invariant(InvariantViolation::Similarity(_))),
        "expected Similarity violation, got {err}"
    );
}

#[test]
fn non_finite_similarity_is_rejected() {
    let mut snap = snapshot_after_activity();
    snap.sim[1] = f64::NAN;
    let err = AncEngine::from_snapshot(snap).err().expect("corrupt snapshot accepted");
    assert!(
        matches!(err, RestoreError::Invariant(InvariantViolation::Similarity(_))),
        "expected Similarity violation, got {err}"
    );
}

#[test]
fn live_engine_detects_activeness_corruption() {
    let lg = connected_caveman(3, 4);
    let mut engine = AncEngine::new(lg.graph, fuzz_cfg(), 7);
    engine.activate(0, 1.0);
    assert!(engine.check_invariants().is_ok());
    // Desynchronize the cached per-node sums from the edge activeness
    // (test-only accessor): Def. 2's A(v) = Σ activeness must now fail.
    engine.corrupt_node_sum_for_test(0, 1e-3);
    let err = engine.check_invariants().unwrap_err();
    assert!(
        matches!(err, InvariantViolation::Activeness(_)),
        "expected Activeness violation, got {err}"
    );
}

/// The kept σ numerators are checked bit for bit against a fresh build: a
/// drift of 10⁻¹² on one edge, a few ulps, is caught.
#[test]
fn live_engine_detects_sigma_numerator_corruption() {
    let lg = connected_caveman(3, 4);
    let mut engine = AncEngine::new(lg.graph, fuzz_cfg(), 7);
    engine.activate(0, 1.0);
    assert!(engine.check_invariants().is_ok());
    engine.corrupt_sigma_numerator_for_test(3, 1e-12);
    let err = engine.check_invariants().unwrap_err();
    assert!(
        matches!(&err, InvariantViolation::Similarity(m) if m.contains("σ numerator of edge 3")),
        "expected a σ numerator violation, got {err}"
    );
}

/// Each way the cluster cache can drift from the index is caught on its
/// own: a row that went stale without being pending, a voted bit that is
/// not the vote of its rows, a voted degree off the bitset's count, an even
/// label's kept smallest node that is not its smallest.
#[test]
fn live_engine_detects_cluster_cache_corruption() {
    use anc_core::cache::CacheCorruption;
    for (what, needle) in [
        (CacheCorruption::StaleRow(2, 1), "not pending"),
        (CacheCorruption::FlippedVote(3), "cached vote"),
        (CacheCorruption::KeptDeg(5), "voted degree"),
        (CacheCorruption::EvenFirst(1), "smallest node"),
    ] {
        let lg = connected_caveman(3, 4);
        let mut engine = AncEngine::new(lg.graph, fuzz_cfg(), 7);
        let level = engine.default_level();
        engine.activate(0, 1.0);
        // Materialized after the activation: nothing is pending, so no row
        // is excused.
        engine.cluster_all_cached(level, anc_core::ClusterMode::Even);
        assert!(engine.check_invariants().is_ok());
        engine.cluster_cache_mut().corrupt_for_test(level, what);
        match engine.check_invariants().unwrap_err() {
            InvariantViolation::Cache(msg) => assert!(msg.contains(needle), "{what:?}: {msg}"),
            other => panic!("{what:?}: expected Cache violation, got {other}"),
        }
    }
}
