//! Property tests for the ingest loop: `activate_batch` and a multi-edge
//! `reinforce_edges` are exact refactorings of the serial per-edge loop —
//! same state (bit for bit, down to the serialized snapshot), same
//! clusterings, across arbitrary streams, batch shapes and rescale timing.

use anc_core::{AncConfig, AncEngine, ClusterMode};
use anc_graph::gen::{connected_caveman, erdos_renyi};
use anc_graph::Graph;
use proptest::prelude::*;

fn small_cfg() -> AncConfig {
    AncConfig {
        // λ = 1 and a tiny rescale interval so streams routinely cross
        // mid-batch rescales — the trickiest point of the deferred-repair
        // design. A rescale halves `g` only once λ(t − t*) ≥ ln 2; at the
        // default λ these short streams would never reach one.
        lambda: 1.0,
        k: 2,
        rep: 1,
        mu: 2,
        epsilon: 0.2,
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
/// `activate_batch` / multi-edge `reinforce_edges`, asserts the two engines
/// agree bit for bit, and returns how many rescales they crossed.
fn check_batch_equals_serial(
    seed: u64,
    stream: Vec<(Vec<usize>, f64, u32)>,
) -> Result<u64, TestCaseError> {
    let g = graph_for(seed);
    let m = g.m();
    let mut serial = AncEngine::new(g.clone(), small_cfg(), seed);
    let mut batched = AncEngine::new(g, small_cfg(), seed);
    let mut t = 0.0;
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
            serial.activate(e, t);
        }
        batched.activate_batch(&batch, t);
    }
    // Identical anchored similarities, bit for bit…
    for (e, (a, b)) in serial.sim_anchored().iter().zip(batched.sim_anchored()).enumerate() {
        prop_assert_eq!(a.to_bits(), b.to_bits(), "sim of edge {} diverged", e);
    }
    prop_assert_eq!(serial.rescales(), batched.rescales());
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

/// The property's coverage, pinned: a fixed stream whose 13-edge batches
/// each straddle the 9-activation trigger at λ(t − t*) ≥ ln 2, so rescales
/// that really halve `g` land mid-batch and between a batch and a replay.
#[test]
fn exact_batch_equals_serial_across_real_mid_batch_rescales() {
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
