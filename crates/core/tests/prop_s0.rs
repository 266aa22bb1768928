//! `S₀` from one σ table (paper Section IV-C). `AncEngine::new`, ANCF
//! (`offline_snapshot`) and `reinforce::full_pass` compute each node's σ row
//! once per activeness state and sweep with it; that must equal the
//! definition — every edge through `apply_reinforcement` (both trigger rows
//! recomputed per edge), then renormalisation — bit for bit. A pinned digest
//! of one build catches any later move of `S₀` or build bits.

use anc_core::reinforce::{apply_reinforcement, full_pass, ReinforceParams};
use anc_core::similarity::{Scratch, SimilarityCtx};
use anc_core::{AncConfig, AncEngine, ClusterMode, Pyramids};
use anc_graph::gen::{planted_partition, PlantedConfig};
use anc_graph::{EdgeId, Graph, NodeId};
use proptest::prelude::*;

/// `rep` passes as the paper defines them: each edge in id order through
/// [`apply_reinforcement`], then rescale to mean 1 and floor.
fn reference_s0(ctx: &SimilarityCtx<'_>, params: &ReinforceParams, rep: usize) -> Vec<f64> {
    let mut sim = vec![1.0; ctx.g.m()];
    let mut scratch = Scratch::new(ctx.g.n());
    for _ in 0..rep {
        for e in 0..ctx.g.m() as EdgeId {
            apply_reinforcement(ctx, &mut sim, e, params, &mut scratch);
        }
        let mean = sim.iter().sum::<f64>() / sim.len().max(1) as f64;
        if mean.is_finite() && mean > 0.0 {
            for s in &mut sim {
                *s = (*s / mean).max(params.floor_anchored);
            }
        }
    }
    sim
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A random graph whose last `isolated` nodes have no edge; with few edges
/// per node many degrees fall below µ. Edge (0, 1) keeps `m ≥ 1`.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (4usize..32, 0usize..4).prop_flat_map(|(linked, isolated)| {
        prop::collection::vec((0..linked as NodeId, 0..linked as NodeId), 0..3 * linked).prop_map(
            move |mut edges| {
                edges.push((0, 1));
                Graph::from_edges(linked + isolated, &edges)
            },
        )
    })
}

/// Graph, µ, `rep` ∈ {0, 1, 3}, index seed, and an activation stream of
/// (raw edge index, time step).
type Case = (Graph, usize, usize, u64, Vec<(usize, f64)>);

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        graph_strategy(),
        1usize..5,
        (0usize..3).prop_map(|i| [0, 1, 3][i]),
        0u64..64,
        prop::collection::vec((0usize..10_000, 0.0f64..2.0), 0..30),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn row_table_sweep_equals_per_edge_reinforcement((g, mu, rep, seed, stream) in case_strategy()) {
        let cfg = AncConfig { k: 2, rep, mu, epsilon: 0.2, ..Default::default() };
        let params = ReinforceParams {
            epsilon: cfg.epsilon,
            mu: cfg.mu,
            floor_anchored: cfg.floor.max(cfg.floor_rel),
        };

        // Uniform activeness: the engine's own S₀, and `full_pass` per
        // repetition (the benchmark twin's path).
        let mut engine = AncEngine::new(g.clone(), cfg.clone(), seed);
        let fresh = engine.to_snapshot();
        let ctx = SimilarityCtx {
            g: &fresh.graph,
            act: fresh.activeness.as_slice(),
            node_sum: &fresh.node_sum,
        };
        let want = reference_s0(&ctx, &params, rep);
        prop_assert_eq!(bits(engine.sim_anchored()), bits(&want), "AncEngine::new S₀");
        let mut sim = vec![1.0; g.m()];
        let mut scratch = Scratch::new(g.n());
        for _ in 0..rep {
            full_pass(&ctx, &mut sim, &params, &mut scratch);
        }
        prop_assert_eq!(bits(&sim), bits(&want), "full_pass");

        // The activeness a stream left: ANCF's S₀ and the index it builds.
        let m = g.m();
        let mut t = 0.0;
        for &(raw, dt) in &stream {
            t += dt;
            engine.activate((raw % m) as EdgeId, t);
        }
        let state = engine.to_snapshot();
        let ctx = SimilarityCtx {
            g: &state.graph,
            act: state.activeness.as_slice(),
            node_sum: &state.node_sum,
        };
        let want = reference_s0(&ctx, &params, rep);
        let snap = engine.offline_snapshot(rep);
        prop_assert_eq!(bits(&snap.sim), bits(&want), "offline_snapshot S₀");
        let recip: Vec<f64> = want.iter().map(|s| 1.0 / s).collect();
        prop_assert_eq!(bits(&snap.recip), bits(&recip));
        let pyr = Pyramids::build(&g, &recip, cfg.k, cfg.theta, state.index_seed);
        for level in 0..pyr.num_levels() {
            for mode in [ClusterMode::Even, ClusterMode::Power] {
                prop_assert_eq!(
                    snap.cluster_all(&g, level, mode),
                    anc_core::cluster::cluster_all(&g, &pyr, level, mode),
                    "offline_snapshot index diverged at level {}", level
                );
            }
        }
    }
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// [`fnv1a`] of the Exact snapshot of `AncEngine::new` on a planted
/// partition of 600 nodes (graph seed 7, index seed 42, default config, so
/// `rep = 7`), followed by every partition's `(dist bits, seed_of, parent)`
/// per node — the snapshot stores no index, so the index is hashed beside
/// it. Recorded at snapshot format version 3.
const S0_BUILD_DIGEST: u64 = 0xb1c3_683b_eaa9_0a51;

#[test]
fn s0_build_digest_is_pinned() {
    let graph = planted_partition(&PlantedConfig::default_for(600), 7).graph;
    let engine = AncEngine::new(graph, AncConfig::default(), 42);
    let bytes = engine.state_bytes_for_test();
    let got = fnv1a(&bytes);
    assert_eq!(got, S0_BUILD_DIGEST, "S₀ or build bits moved: digest {got:#018x}");
}
