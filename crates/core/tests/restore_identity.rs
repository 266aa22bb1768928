//! A restored engine is the live engine, bit for bit, also after batched
//! rescales: a restore re-derives the reciprocal weights as `1/S*` and
//! adopts the persisted distances, which is the state a power-of-two
//! rescale leaves behind. Both forms are checked at `anc-perf`'s fixture
//! (planted partition, n = 2 000) with a rescale due every 7 activations:
//! an Exact snapshot round-trip, and a [`DurableEngine`] reopened from a
//! compacted snapshot.

use std::path::PathBuf;

use anc_core::{AncConfig, AncEngine, DurabilityOptions, DurableEngine, SnapshotProfile};
use anc_decay::RescaleConfig;
use anc_graph::gen::{planted_partition, PlantedConfig};
use anc_graph::EdgeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Activations before the snapshot, and after it.
const BEFORE: usize = 300;
const AFTER: usize = 2_000;
/// Time between consecutive activations.
const DT: f64 = 0.05;

fn fixture() -> (AncEngine, Vec<EdgeId>) {
    let lg = planted_partition(&PlantedConfig::default_for(2_000), 1);
    let rescale = RescaleConfig { every_activations: 7, ..Default::default() };
    let engine = AncEngine::new(lg.graph, AncConfig { rescale, ..Default::default() }, 1);
    let m = engine.graph().m() as EdgeId;
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let stream = (0..BEFORE + AFTER).map(|_| rng.gen_range(0..m)).collect();
    (engine, stream)
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
    drop(durable);
    std::fs::remove_dir_all(&dir).unwrap();
}
