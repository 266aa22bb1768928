//! The served member index against its oracle, a scan of the labels.
//!
//! The writer builds one member index per published `(level, mode)`
//! clustering, and readers answer `member_slice_at` and `members_at` from it.
//! Every published snapshot of a multi-cycle stream is checked here at every
//! node, in both modes and at two levels. The engine's clusterings label
//! every node, so the noise path of the index is checked in `snapshot.rs`,
//! on labels that have some.

use std::sync::Arc;

use anc_core::{AncConfig, AncEngine, ClusterMode};
use anc_data::stream::{uniform_per_step, ActivationStream};
use anc_graph::gen::{planted_partition, PlantedConfig};
use anc_graph::NodeId;
use anc_metrics::Clustering;
use anc_server::{EngineBackend, ServeConfig, ServeSnapshot, ServerCore};

const MODES: [ClusterMode; 2] = [ClusterMode::Even, ClusterMode::Power];

fn scan(c: &Clustering, v: NodeId) -> Vec<NodeId> {
    if c.is_noise(v) {
        return Vec::new();
    }
    (0..c.n() as NodeId).filter(|&u| c.label(u) == c.label(v)).collect()
}

fn check(snap: &ServeSnapshot, levels: &[usize]) {
    for &level in levels {
        for mode in MODES {
            let c = snap.clusters_at(level, mode).expect("published");
            for v in 0..snap.n as NodeId {
                let want = scan(c, v);
                let got = snap.member_slice_at(v, level, mode).expect("in range");
                assert_eq!(got, want, "epoch {}, level {level}, {mode:?}, v {v}", snap.epoch);
                assert_eq!(snap.members_at(v, level, mode), Some(want));
            }
            let n = snap.n as NodeId;
            assert_eq!(snap.member_slice_at(n, level, mode), None, "out of range");
        }
    }
    let unpublished = levels.iter().max().map_or(0, |l| l + 1);
    assert_eq!(snap.member_slice_at(0, unpublished, ClusterMode::Even), None);
}

/// A served 300-node planted partition, published at its default level and
/// the one below in both modes, and a 12-step stream over it.
fn start() -> (ServerCore, ActivationStream, Vec<usize>) {
    let g = planted_partition(&PlantedConfig::default_for(300), 5).graph;
    let stream = uniform_per_step(&g, 12, 0.05, 3);
    let engine = AncEngine::new(g, AncConfig { k: 2, rep: 1, ..Default::default() }, 42);
    let levels = vec![engine.default_level() - 1, engine.default_level()];
    let serve = ServeConfig { levels: levels.clone(), modes: MODES.to_vec(), ..Default::default() };
    let core = ServerCore::start(EngineBackend::Volatile(engine), serve).expect("server start");
    (core, stream, levels)
}

#[test]
fn member_slices_match_a_label_scan_in_every_snapshot() {
    let (core, stream, levels) = start();
    let ingest = core.ingest_handle();
    let mut reader = core.reader();
    check(&reader.snapshot(), &levels);
    let mut epoch = 0;
    for batch in &stream.batches {
        ingest.submit(batch.time, batch.edges.clone()).expect("queue has room");
        let flushed = ingest.flush().expect("writer alive");
        let snap = reader.snapshot();
        assert_eq!(snap.epoch, flushed, "nothing else publishes");
        // The ingest was applied in this snapshot's cycle or the one before.
        // A cycle the flush had to itself applied nothing, so it publishes
        // the very clusterings of the cycle before: this checks both.
        assert!(flushed <= epoch + 2);
        epoch = flushed;
        check(&snap, &levels);
    }
    assert!(core.shutdown().wal_error.is_none());
}

#[test]
fn an_unchanged_clustering_keeps_its_index() {
    let (core, stream, levels) = start();
    let ingest = core.ingest_handle();
    let mut reader = core.reader();
    for batch in &stream.batches[..4] {
        ingest.submit(batch.time, batch.edges.clone()).expect("queue has room");
        ingest.flush().expect("writer alive");
        let before = reader.snapshot();
        // A cycle that applies nothing republishes every clustering as is.
        ingest.flush().expect("writer alive");
        let after = reader.snapshot();
        assert_eq!(after.epoch, before.epoch + 1);
        for &level in &levels {
            for mode in MODES {
                let (a, b) = (before.clusters_at(level, mode), after.clusters_at(level, mode));
                assert!(Arc::ptr_eq(a.expect("published"), b.expect("published")));
                let (a, b) =
                    (before.member_slice_at(0, level, mode), after.member_slice_at(0, level, mode));
                let (a, b) = (a.expect("in range"), b.expect("in range"));
                assert!(std::ptr::eq(a, b), "level {level}, {mode:?}: the index was rebuilt");
            }
        }
    }
    assert!(core.shutdown().wal_error.is_none());
}
