//! Property tests for the ingest loop: `activate_batch` and a multi-edge
//! `reinforce_edges` are exact refactorings of the serial per-edge loop —
//! same state (bit for bit, down to the serialized snapshot), same
//! clusterings, the same summed repair counts, across arbitrary streams,
//! batch shapes and rescale timing — and a call takes at most one rescale,
//! before its first edge.

use anc_core::{AncConfig, AncEngine, ClusterMode, RepairStats};
use anc_graph::gen::{connected_caveman, erdos_renyi};
use anc_graph::Graph;
use proptest::prelude::*;

fn small_cfg() -> AncConfig {
    AncConfig {
        // λ = 1 and a guard of 0, due at every call, so streams routinely
        // cross rescales between batches and replays. A rescale halves `g`
        // only once λ(t − t*) ≥ ln 2; at the default λ these short streams
        // would never reach one.
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

/// Steps of raw edge indices with per-step time increments; a step whose
/// last field is 0 (one in four) is an ANCOR `reinforce_edges` replay at the
/// current time instead of an activation batch.
fn batched_stream() -> impl Strategy<Value = (u64, Vec<(Vec<usize>, f64, u32)>)> {
    (
        0u64..32,
        prop::collection::vec(
            (prop::collection::vec(0usize..10_000, 1..14), 0.05f64..0.8, 0u32..4),
            1..8,
        ),
    )
}

/// Runs `stream` through the serial per-edge loop and through
/// `activate_batch` / multi-edge `reinforce_edges`, asserts that no batched
/// call takes more than one rescale, that the activations' repair counts
/// sum the same and that the two engines agree bit for bit, and returns how
/// many rescales they crossed.
fn check_batch_equals_serial(
    seed: u64,
    stream: Vec<(Vec<usize>, f64, u32)>,
) -> Result<u64, TestCaseError> {
    let g = graph_for(seed);
    let m = g.m();
    let mut serial = AncEngine::new(g.clone(), small_cfg(), seed);
    let mut batched = AncEngine::new(g, small_cfg(), seed);
    let mut t = 0.0;
    let (mut serial_stats, mut batched_stats) = (RepairStats::default(), RepairStats::default());
    for (raw, dt, kind) in stream {
        let batch: Vec<u32> = raw.into_iter().map(|i| (i % m) as u32).collect();
        if kind == 0 {
            for &e in &batch {
                serial.reinforce_edges(&[e]);
            }
            batched.reinforce_edges(&batch);
            continue;
        }
        t += dt;
        for &e in &batch {
            serial_stats += serial.activate_batch(&[e], t);
        }
        let before = batched.rescales();
        batched_stats += batched.activate_batch(&batch, t);
        prop_assert!(batched.rescales() <= before + 1, "two rescales in one call at t = {}", t);
    }
    // Identical anchored similarities, bit for bit…
    for (e, (a, b)) in serial.sim_anchored().iter().zip(batched.sim_anchored()).enumerate() {
        prop_assert_eq!(a.to_bits(), b.to_bits(), "sim of edge {} diverged", e);
    }
    prop_assert_eq!(serial.rescales(), batched.rescales());
    // …the same repair work, one count per delta and repaired partition…
    prop_assert_eq!(serial_stats, batched_stats);
    // …identical snapshots (state and every partition), byte for byte…
    prop_assert_eq!(serial.state_bytes_for_test(), batched.state_bytes_for_test());
    // …and identical clusterings at every level, both semantics.
    for level in 0..serial.num_levels() {
        for mode in [ClusterMode::Even, ClusterMode::Power] {
            prop_assert_eq!(
                serial.cluster_all(level, mode),
                batched.cluster_all(level, mode),
                "clustering diverged at level {}",
                level
            );
        }
    }
    batched.check_invariants().unwrap();
    Ok(serial.rescales())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exact_batch_equals_serial_activation_loop((seed, stream) in batched_stream()) {
        check_batch_equals_serial(seed, stream)?;
    }
}

/// The property's coverage, pinned: a fixed stream of 13-edge batches
/// λΔt = 0.8 apart, so rescales that really halve `g` land between batches
/// and between a batch and a replay.
#[test]
fn exact_batch_equals_serial_across_real_rescales() {
    let batch: Vec<usize> = (0..13).map(|i| i * 7).collect();
    let stream = vec![
        (batch.clone(), 0.8, 1),
        (batch.clone(), 0.8, 2),
        (batch.clone(), 0.0, 0),
        (batch.clone(), 0.8, 3),
        (batch, 0.8, 1),
    ];
    for seed in [0, 1] {
        let rescales = check_batch_equals_serial(seed, stream.clone()).unwrap();
        assert!(rescales >= 3, "seed {seed}: only {rescales} rescales crossed");
    }
}

/// The repair work a grouped stream reports, pinned: 40 batches of 16
/// seeded draws on a planted partition of 1 000 nodes, all levels live, the
/// default level's clustering cached from the 21st batch on. Each delta
/// counts once per partition of a live level ≥ 1, as an update when its
/// replay wrote a node and as a skip otherwise.
#[test]
fn grouped_stream_repair_counts_are_pinned() {
    use anc_graph::gen::{planted_partition, PlantedConfig};
    use rand::{Rng, SeedableRng};

    let lg = planted_partition(&PlantedConfig::default_for(1000), 5);
    let mut engine = AncEngine::new(lg.graph, AncConfig::default(), 5);
    let m = engine.graph().m() as u32;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29);
    let mut total = RepairStats::default();
    for step in 1..=40u32 {
        let batch: Vec<u32> = (0..16).map(|_| rng.gen_range(0..m)).collect();
        total += engine.activate_batch(&batch, f64::from(step) * 0.05);
        if step == 20 {
            let _ = engine.cluster_all_cached(engine.default_level(), ClusterMode::Even);
        }
    }
    assert_eq!((total.updates, total.skips), (7512, 15528));
}
