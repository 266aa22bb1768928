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

/// A writer cycle whose vote flips move no even label publishes the very
/// clustering `Arc` of the cycle before, and so keeps its member index.
/// Which cycles those are is read off a twin engine fed the same batches:
/// its cached query flipped votes and returned the `Arc` it already held.
#[test]
fn flips_that_move_no_label_keep_the_arc_and_its_index() {
    let g = planted_partition(&PlantedConfig::default_for(300), 5).graph;
    let stream = uniform_per_step(&g, 160, 0.002, 3);
    // At k = 2 both pyramids must agree, so a voted component holds every
    // edge between its nodes and a flip always moves a label; at k = 4 it
    // need not.
    let cfg = AncConfig { k: 4, rep: 1, ..Default::default() };
    let mut twin = AncEngine::new(g.clone(), cfg.clone(), 42);
    let level = twin.default_level();
    let even = ClusterMode::Even;
    let serve = ServeConfig { levels: vec![level], modes: vec![even], ..Default::default() };
    let core = ServerCore::start(EngineBackend::Volatile(AncEngine::new(g, cfg, 42)), serve)
        .expect("server start");
    let ingest = core.ingest_handle();
    let mut reader = core.reader();
    let (mut held, _) = twin.cluster_all_cached(level, even);
    let mut kept = 0;
    for batch in &stream.batches {
        let before = reader.snapshot();
        ingest.submit(batch.time, batch.edges.clone()).expect("queue has room");
        ingest.flush().expect("writer alive");
        let after = reader.snapshot();
        let _ = twin.activate_batch(&batch.edges, batch.time);
        let (c, stats) = twin.cluster_all_cached(level, even);
        let (was, now) = (before.clusters_at(level, even), after.clusters_at(level, even));
        let (was, now) = (was.expect("published"), now.expect("published"));
        assert_eq!(**now, *c, "epoch {}: the server and its twin diverged", after.epoch);
        let same = Arc::ptr_eq(&held, &c);
        assert_eq!(Arc::ptr_eq(was, now), same, "epoch {}: {stats:?}", after.epoch);
        if same && stats.flips > 0 {
            kept += 1;
            let (a, b) =
                (before.member_slice_at(0, level, even), after.member_slice_at(0, level, even));
            let (a, b) = (a.expect("in range"), b.expect("in range"));
            assert!(std::ptr::eq(a, b), "epoch {}: the index was rebuilt", after.epoch);
        }
        held = c;
    }
    assert!(kept > 0, "no cycle flipped votes without moving a label");
    assert!(core.shutdown().wal_error.is_none());
}
