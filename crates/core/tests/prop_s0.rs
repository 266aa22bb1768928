//! `S₀` from one σ table (paper Section IV-C). `AncEngine::new`, ANCF
//! (`offline_snapshot`) and `reinforce::full_pass` compute each node's σ row
//! once per activeness state and sweep with it; that must equal the
//! definition — every edge through `apply_reinforcement` (both trigger rows
//! recomputed per edge), then renormalisation — bit for bit. Two pinned
//! digests of one build, one of its snapshot and one of its index at levels
//! ≥ 1, catch any later move of `S₀` or build bits, and neither can hide a
//! move in the other; level 0 is checked against its unit-weight build.

use anc_core::reinforce::{apply_reinforcement, full_pass, ReinforceParams};
use anc_core::similarity::{Scratch, SimilarityCtx};
use anc_core::voronoi::VoronoiPartition;
use anc_core::{AncConfig, AncEngine, ClusterMode, Pyramids, SnapshotProfile};
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

/// The pinned build: `AncEngine::new` on a planted partition of 600 nodes
/// (graph seed 7, index seed 42, default config, so `rep = 7`).
fn pinned_engine() -> AncEngine {
    let graph = planted_partition(&PlantedConfig::default_for(600), 7).graph;
    AncEngine::new(graph, AncConfig::default(), 42)
}

/// [`fnv1a`] of the pinned build's Exact snapshot (format version 3): `S₀`,
/// activeness, graph and clock, no index.
const S0_SNAPSHOT_DIGEST: u64 = 0xaf63_0683_a4a0_9cb6;

/// [`fnv1a`] of the pinned build's index at levels ≥ 1: every partition's
/// `(dist bits, seed_of, parent)` per node, little-endian, pyramid-major.
/// Level 0 is weight-free and checked structurally instead
/// ([`s0_level_zero_is_the_unit_weight_build`]).
const S0_INDEX_DIGEST: u64 = 0x382d_b6f0_ba0f_a057;

#[test]
fn s0_snapshot_digest_is_pinned() {
    let mut bytes = Vec::new();
    pinned_engine().save_binary(&mut bytes, SnapshotProfile::Exact).unwrap();
    let got = fnv1a(&bytes);
    assert_eq!(got, S0_SNAPSHOT_DIGEST, "S₀ or snapshot bits moved: digest {got:#018x}");
}

#[test]
fn s0_index_digest_is_pinned() {
    let engine = pinned_engine();
    let pyr = engine.pyramids();
    let mut bytes = Vec::new();
    for p in 0..pyr.k() {
        for l in 1..pyr.num_levels() {
            let part = pyr.partition(p, l);
            for v in 0..engine.graph().n() as NodeId {
                bytes.extend_from_slice(&part.dist(v).to_bits().to_le_bytes());
                bytes.extend_from_slice(&part.seed_of(v).to_le_bytes());
                bytes.extend_from_slice(&part.parent(v).to_le_bytes());
            }
        }
    }
    let got = fnv1a(&bytes);
    assert_eq!(got, S0_INDEX_DIGEST, "index bits at levels ≥ 1 moved: digest {got:#018x}");
}

#[test]
fn s0_level_zero_is_the_unit_weight_build() {
    let engine = pinned_engine();
    let (g, pyr) = (engine.graph(), engine.pyramids());
    let unit = vec![1.0; g.m()];
    for p in 0..pyr.k() {
        let zero = pyr.partition(p, 0);
        let hops = VoronoiPartition::build(g, &unit, zero.seeds().to_vec());
        for v in 0..g.n() as NodeId {
            assert_eq!(
                (zero.dist(v).to_bits(), zero.seed_of(v), zero.parent(v)),
                (hops.dist(v).to_bits(), hops.seed_of(v), hops.parent(v)),
                "pyramid {p} node {v}"
            );
        }
    }
}
