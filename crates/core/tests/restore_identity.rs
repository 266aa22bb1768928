//! The index is a function of the similarity: after any stream, with or
//! without batched rescales, the live pyramids equal `reconstruct_index()`
//! in every `dist` bit, every `seed_of` and every `parent`. A restore
//! therefore rebuilds the index from the decoded similarity (the binary
//! snapshot stores none) and re-derives the reciprocal weights as `1/S*`,
//! and the restored engine is the live engine, bit for bit, also after
//! batched rescales. Both restore forms are checked at `anc-perf`'s fixture
//! (planted partition, n = 2 000) with a rescale due every 7 activations:
//! an Exact snapshot round-trip, and a [`DurableEngine`] reopened from a
//! compacted snapshot.

use std::path::PathBuf;

use anc_core::voronoi::VoronoiPartition;
use anc_core::{AncConfig, AncEngine, DurabilityOptions, DurableEngine, SnapshotProfile};
use anc_decay::RescaleConfig;
use anc_graph::gen::{planted_partition, PlantedConfig};
use anc_graph::{EdgeId, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Activations before the snapshot, and after it.
const BEFORE: usize = 300;
const AFTER: usize = 2_000;
/// Time between consecutive activations.
const DT: f64 = 0.05;

/// An engine over `planted_partition(default_for(n), 1)` (index seed 1)
/// with a rescale due every `every_activations`, and `len` uniformly drawn
/// edges to activate.
fn engine_and_stream(n: usize, every_activations: usize, len: usize) -> (AncEngine, Vec<EdgeId>) {
    let lg = planted_partition(&PlantedConfig::default_for(n), 1);
    let rescale = RescaleConfig { every_activations, ..Default::default() };
    let engine = AncEngine::new(lg.graph, AncConfig { rescale, ..Default::default() }, 1);
    let m = engine.graph().m() as EdgeId;
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let stream = (0..len).map(|_| rng.gen_range(0..m)).collect();
    (engine, stream)
}

fn fixture() -> (AncEngine, Vec<EdgeId>) {
    engine_and_stream(2_000, 7, BEFORE + AFTER)
}

fn time_of(i: usize) -> f64 {
    DT * (i + 1) as f64
}

fn exact_bytes(engine: &AncEngine) -> Vec<u8> {
    let mut buf = Vec::new();
    engine.save_binary(&mut buf, SnapshotProfile::Exact).unwrap();
    buf
}

#[test]
fn restored_engine_stays_bit_identical_past_rescales() {
    let (mut live, stream) = fixture();
    for (i, &e) in stream[..BEFORE].iter().enumerate() {
        live.activate(e, time_of(i));
    }
    assert!(live.rescales() > 0, "the snapshot must be taken past a rescale");
    let mut restored = AncEngine::load_binary(exact_bytes(&live).as_slice()).unwrap();
    for (i, &e) in stream.iter().enumerate().skip(BEFORE) {
        live.activate(e, time_of(i));
        restored.activate(e, time_of(i));
    }
    assert!(exact_bytes(&live) == exact_bytes(&restored), "restored engine drifted from live");
    // The snapshot holds no index: compare the rebuilt-then-repaired one too.
    assert!(live.state_bytes_for_test() == restored.state_bytes_for_test(), "index drifted");
    restored.check_invariants().unwrap();
}

#[test]
fn reopened_durable_engine_stays_bit_identical_past_rescales() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("anc-restore-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurabilityOptions { compact_every: 64 };
    let (mut reference, stream) = fixture();
    let (engine, _) = fixture();
    let mut durable = DurableEngine::create(engine, &dir, opts).unwrap();
    for (i, &e) in stream[..BEFORE].iter().enumerate() {
        durable.activate_batch(&[e], time_of(i)).unwrap();
        reference.activate(e, time_of(i));
    }
    assert!(reference.rescales() > 0, "the compactions must land past a rescale");
    assert!(durable.wal_records() < BEFORE as u64, "the log must have been compacted");
    drop(durable);
    let mut durable = DurableEngine::open(&dir, opts).unwrap();
    for (i, &e) in stream.iter().enumerate().skip(BEFORE) {
        durable.activate_batch(&[e], time_of(i)).unwrap();
        reference.activate(e, time_of(i));
    }
    assert!(exact_bytes(durable.engine()) == exact_bytes(&reference), "reopened engine drifted");
    let index_drifted = durable.engine().state_bytes_for_test() != reference.state_bytes_for_test();
    assert!(!index_drifted, "reopened index drifted");
    drop(durable);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Streams `len` activations through the fixture at `n` nodes, then
/// compares the live index with `reconstruct_index()` in every node's
/// `(dist bits, seed_of, parent)` and returns the engine's rescale count.
fn live_index_equals_rebuild(n: usize, every_activations: usize, len: usize) -> u64 {
    let (mut engine, stream) = engine_and_stream(n, every_activations, len);
    for (i, &e) in stream.iter().enumerate() {
        engine.activate(e, time_of(i));
    }
    let live = engine.pyramids().clone();
    engine.reconstruct_index();
    let rebuilt = engine.pyramids();
    let mut differing = Vec::new();
    for p in 0..live.k() {
        for l in 0..live.num_levels() {
            let (a, b) = (live.partition(p, l), rebuilt.partition(p, l));
            for v in 0..n as NodeId {
                let entry = |x: &VoronoiPartition| (x.dist(v).to_bits(), x.seed_of(v), x.parent(v));
                if entry(a) != entry(b) {
                    differing.push((p, l, v, entry(a), entry(b)));
                }
            }
        }
    }
    assert!(
        differing.is_empty(),
        "{} entries differ; first (pyramid, level, node, live, rebuilt) = {:?}",
        differing.len(),
        differing[0]
    );
    engine.rescales()
}

#[test]
#[cfg_attr(feature = "debug-invariants", ignore = "minutes under the per-activation checker")]
fn live_index_equals_rebuild_without_rescales() {
    assert_eq!(live_index_equals_rebuild(2_000, 4_096, 3_840), 0);
}

#[test]
#[cfg_attr(feature = "debug-invariants", ignore = "minutes under the per-activation checker")]
fn live_index_equals_rebuild_past_rescales() {
    assert_eq!(live_index_equals_rebuild(2_000, 7, 3_840), 27);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "n = 20 000 takes minutes unoptimised; ci.sh runs it in release"
)]
fn live_index_equals_rebuild_at_n_20000() {
    assert_eq!(live_index_equals_rebuild(20_000, 4_096, 2_000), 0);
}
