//! The paper's worked examples, replayed end-to-end through the facade:
//! Example 1–2 (time decay and the global decay factor), Example 3
//! (pyramid structure on the Figure 2 graph), Example 5 (power clustering)
//! and Example 6 (Voronoi updates), plus the temporal-drift story of the
//! Section VI-C case study in miniature.

use anc::core::voronoi::VoronoiPartition;
use anc::core::{AncConfig, AncEngine, Pyramids};
use anc::decay::{ActivenessStore, DecayClock};
use anc::graph::gen::paper_figure2;

/// Examples 1 & 2: λ = 0.1, activations on (v8, v11) at t = 0 and t = 2.
#[test]
fn paper_examples_1_and_2() {
    let mut clock = DecayClock::new(0.1);
    let mut store = ActivenessStore::new(1, 0.0);
    store.activate(0, &clock); // A1 = (e, 0)
    assert!((store.current(0, &clock) - 1.0).abs() < 1e-12);

    clock.advance_to(1.0);
    assert!((store.current(0, &clock) - 0.905).abs() < 5e-4); // a₁(e)

    clock.advance_to(2.0);
    store.activate(0, &clock); // A2 = (e, 2)
    assert!((store.anchored(0) - 2.221).abs() < 5e-4); // a*₂(e)
    assert!((store.current(0, &clock) - 1.8187).abs() < 5e-4); // a₂(e)

    // Batched rescale at t = 2. The paper resets t* ← 2 (anchored = true
    // value); ours moves t* by whole halvings of g, and λ(t − t*) = 0.2 <
    // ln 2 is none: the rescale is a no-op and a*₂(e) stays 2.2214.
    let g = clock.take_rescale();
    assert_eq!(g, 1.0);
    store.rescale(g);
    assert!((store.anchored(0) - 2.2214).abs() < 5e-4);
    assert!((store.current(0, &clock) - 1.8187).abs() < 5e-4);
}

/// Example 3: the 13-node graph gets ⌈log₂ 13⌉ = 4 levels per pyramid with
/// 2^{l-1} seeds at level l.
#[test]
fn paper_example_3_pyramid_shape() {
    let (g, w) = paper_figure2();
    let pyr = Pyramids::build(&g, &w, 2, 0.7, 123);
    assert_eq!(pyr.num_levels(), 4);
    for p in 0..2 {
        for l in 0..4 {
            assert_eq!(pyr.partition(p, l).seeds().len(), 1 << l);
        }
    }
    pyr.check_invariants(&g, &w).unwrap();
}

/// Example 6's update sequence against the Figure 2(e) partition (seeds
/// v4, v7), verified against a rebuild after every step — through the
/// public API.
#[test]
fn paper_example_6_update_sequence() {
    let (g, mut w) = paper_figure2();
    let mut p = VoronoiPartition::build(&g, &w, vec![3, 6]);
    for (a, b, delta) in
        [(4u32, 5u32, -1.0f64), (0, 2, 1.0), (6, 7, 1.0), (6, 7, 5.0), (6, 7, -7.5)]
    {
        let e = g.edge_id(a, b).unwrap();
        let old = w[e as usize];
        w[e as usize] += delta;
        p.on_weight_change(&g, &w, e, old);
        p.check_invariants(&g, &w).unwrap();
        let fresh = VoronoiPartition::build(&g, &w, vec![3, 6]);
        for v in 0..g.n() as u32 {
            assert!((p.dist(v) - fresh.dist(v)).abs() < 1e-9);
        }
    }
}

/// Miniature of the Section VI-C story: a node's similarity follows its
/// activation schedule — the partner it keeps talking to stays close, the
/// abandoned one drifts away.
#[test]
fn case_study_drift_in_miniature() {
    // Two triangles sharing hub 0: {0,1,2} and {0,3,4}.
    let g = anc::graph::Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]);
    let cfg = AncConfig { lambda: 0.3, rep: 1, mu: 2, epsilon: 0.1, ..Default::default() };
    let mut engine = AncEngine::new(g.clone(), cfg, 3);

    // Phase 1: triangle {0,1,2} is active.
    let left: Vec<u32> =
        [(0, 1), (1, 2), (0, 2)].iter().map(|&(a, b)| g.edge_id(a, b).unwrap()).collect();
    let right: Vec<u32> =
        [(0, 3), (3, 4), (0, 4)].iter().map(|&(a, b)| g.edge_id(a, b).unwrap()).collect();
    for t in 1..=10 {
        let _ = engine.activate_batch(&left, t as f64);
    }
    let sim_left_p1 = engine.similarity(left[0]);
    let sim_right_p1 = engine.similarity(right[0]);
    assert!(sim_left_p1 > sim_right_p1, "active side must be more similar");

    // Phase 2: activity moves to the right triangle.
    for t in 11..=40 {
        let _ = engine.activate_batch(&right, t as f64);
    }
    let sim_left_p2 = engine.similarity(left[0]);
    let sim_right_p2 = engine.similarity(right[0]);
    assert!(
        sim_right_p2 > sim_left_p2,
        "the newly active side must overtake: left {sim_left_p2:.3e} right {sim_right_p2:.3e}"
    );
    engine.check_invariants().unwrap();
}
