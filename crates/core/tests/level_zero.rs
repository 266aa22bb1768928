//! Level 0 of the index is weight-free: with one seed per pyramid, every
//! node of the seed's component takes that seed under any finite positive
//! weights, so the engine builds it once under unit weights (a hop-count
//! forest) and never repairs or rescales it. On random graphs, disconnected
//! ones included, and streams that cross batched rescales through both
//! `activate` and `activate_batch`, after every call:
//!
//! * level 0 equals its own unit-weight build, bit for bit;
//! * level 0's `seed_of` equals a build under the live weights;
//! * levels ≥ 1 equal `reconstruct_index()`, bit for bit;
//! * the repair left level 0's trace buffers empty.
//!
//! `level_zero_stays_untouched_at_n_20000` runs the trace check on the
//! benchmark-scale stream and prints the largest number of affected nodes
//! one activation caused per level (ignored in debug; `ci.sh` runs it in
//! release).

use anc_core::voronoi::VoronoiPartition;
use anc_core::{AncConfig, AncEngine, ClusterMode};
use anc_decay::RescaleConfig;
use anc_graph::gen::{planted_partition, PlantedConfig};
use anc_graph::{EdgeId, Graph, NodeId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random graph over `linked` nodes plus `isolated` edgeless ones; with
/// few edges per node it often falls into several components. Edge (0, 1)
/// keeps `m ≥ 1`.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (4usize..28, 0usize..4).prop_flat_map(|(linked, isolated)| {
        prop::collection::vec((0..linked as NodeId, 0..linked as NodeId), 0..2 * linked).prop_map(
            move |mut edges| {
                edges.push((0, 1));
                Graph::from_edges(linked + isolated, &edges)
            },
        )
    })
}

/// Graph, index seed, and a stream of calls: raw edge indices (one means
/// `activate`, more mean `activate_batch`), the time step before the call,
/// and whether to materialize the cluster cache first (so the grouped
/// repair runs traced).
type Case = (Graph, u64, Vec<(Vec<usize>, f64, bool)>);

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        graph_strategy(),
        0u64..64,
        prop::collection::vec(
            (prop::collection::vec(0usize..10_000, 1..4), 0.0f64..1.5, any::<bool>()),
            1..24,
        ),
    )
}

fn entry(part: &VoronoiPartition, v: NodeId) -> (u64, NodeId, NodeId) {
    (part.dist(v).to_bits(), part.seed_of(v), part.parent(v))
}

/// The four checks of the module doc against `engine`'s current state.
fn check_level_zero(engine: &AncEngine) -> Result<(), TestCaseError> {
    let g = engine.graph();
    let pyr = engine.pyramids();
    let (n, levels) = (g.n() as NodeId, pyr.num_levels());
    let unit = vec![1.0; g.m()];
    let recip: Vec<f64> = engine.sim_anchored().iter().map(|s| 1.0 / s).collect();
    let mut rebuilt = AncEngine::from_snapshot(engine.to_snapshot()).unwrap();
    rebuilt.reconstruct_index();
    for p in 0..pyr.k() {
        let zero = pyr.partition(p, 0);
        let hops = VoronoiPartition::build(g, &unit, zero.seeds().to_vec());
        let weighted = VoronoiPartition::build(g, &recip, zero.seeds().to_vec());
        for v in 0..n {
            prop_assert_eq!(entry(zero, v), entry(&hops, v), "pyramid {} node {}", p, v);
            prop_assert_eq!(zero.seed_of(v), weighted.seed_of(v), "pyramid {} node {}", p, v);
        }
        for l in 1..levels {
            let (live, fresh) = (pyr.partition(p, l), rebuilt.pyramids().partition(p, l));
            for v in 0..n {
                prop_assert_eq!(
                    entry(live, v),
                    entry(fresh, v),
                    "pyramid {} level {} node {}",
                    p,
                    l,
                    v
                );
            }
        }
        prop_assert!(engine.repair_traces_for_test()[p * levels].is_empty(), "pyramid {}", p);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn level_zero_is_weight_free((g, seed, calls) in case_strategy()) {
        // λ = 1 and a rescale due every 3 activations: most streams cross
        // several batched rescales, some of them inside a batch.
        let rescale = RescaleConfig { every_activations: 3, ..Default::default() };
        let cfg = AncConfig { k: 3, lambda: 1.0, rep: 1, mu: 2, rescale, ..Default::default() };
        let mut engine = AncEngine::new(g, cfg, seed);
        let m = engine.graph().m();
        let mut t = 0.0;
        for (raw, dt, warm) in &calls {
            t += dt;
            if *warm {
                let _ = engine.cluster_all_cached(0, ClusterMode::Even);
            }
            let edges: Vec<EdgeId> = raw.iter().map(|&r| (r % m) as EdgeId).collect();
            match edges[..] {
                [e] => engine.activate(e, t),
                _ => {
                    engine.activate_batch(&edges, t);
                }
            }
            check_level_zero(&engine)?;
        }
        prop_assert!(engine.check_invariants().is_ok(), "{:?}", engine.check_invariants());
    }
}

/// `anc-perf`'s stream shape at n = 20 000: 2 000 uniformly drawn single
/// activations, Δt = 0.05, on `planted_partition(default_for(20 000), 1)`.
/// Every activation must leave level 0's trace buffers empty; prints the
/// largest affected-node count of one activation per level, summed over the
/// pyramids.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "n = 20 000 takes minutes unoptimised; ci.sh runs it in release"
)]
fn level_zero_stays_untouched_at_n_20000() {
    let lg = planted_partition(&PlantedConfig::default_for(20_000), 1);
    let mut engine = AncEngine::new(lg.graph, AncConfig::default(), 1);
    let (k, levels) = (engine.pyramids().k(), engine.num_levels());
    let m = engine.graph().m() as EdgeId;
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut max_affected = vec![0; levels];
    for i in 0..2_000 {
        engine.activate(rng.gen_range(0..m), 0.05 * (i + 1) as f64);
        let traces = engine.repair_traces_for_test();
        for (l, max) in max_affected.iter_mut().enumerate() {
            let affected: usize = (0..k).map(|p| traces[p * levels + l].len()).sum();
            assert!(l > 0 || affected == 0, "activation {i} touched level 0");
            *max = (*max).max(affected);
        }
    }
    println!("max affected nodes per activation, by level: {max_affected:?}");
}
