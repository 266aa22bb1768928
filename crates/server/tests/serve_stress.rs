//! Serving-layer concurrency stress (ISSUE 10 satellite 2): N reader
//! threads hammer membership and cluster queries off published snapshots
//! while the writer applies a recorded activation stream, then the final
//! engine state is compared byte for byte against a serial replay of the
//! same stream — concurrency must be unobservable in the end state
//! (Exact batch mode is bit-identical for any batch grouping, and the
//! cluster cache is deliberately outside the snapshot encoding).
//!
//! Every snapshot a reader observes is checked for internal consistency:
//! monotone epochs and applied sequence numbers, label vectors of the
//! right length, agreement between `same_cluster_at` and the raw labels,
//! and noise nodes sharing no cluster. With `--features debug-invariants`
//! the writer additionally runs the full engine invariant checker after
//! every drained cycle.
//!
//! This file holds a single `#[test]` on purpose: it sweeps the global
//! `RAYON_NUM_THREADS` variable, which would race with sibling tests in
//! the same binary.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use anc_core::{AncConfig, AncEngine, ClusterMode};
use anc_data::stream::uniform_per_step;
use anc_graph::gen::{planted_partition, PlantedConfig};
use anc_server::{EngineBackend, ServeConfig, ServerCore};

const READERS: usize = 4;

fn engine_bytes(engine: &AncEngine) -> Vec<u8> {
    engine.state_bytes_for_test()
}

fn run_stress(threads: &str) {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let planted = planted_partition(&PlantedConfig::default_for(400), 11);
    let g = planted.graph;
    let cfg = AncConfig { k: 2, rep: 1, ..Default::default() };
    let stream = uniform_per_step(&g, 30, 0.05, 7);

    let engine = AncEngine::new(g.clone(), cfg.clone(), 42);
    let n = g.n();
    let level = engine.default_level();
    let core = ServerCore::start(
        EngineBackend::Volatile(engine),
        ServeConfig {
            queue_capacity: 256,
            levels: vec![level],
            modes: vec![ClusterMode::Even, ClusterMode::Power],
        },
    )
    .expect("server start");

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let mut reader = core.reader();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut last_seq = 0u64;
                let mut observed = 0u64;
                // One snapshot before the first `stop` check: a reader the
                // scheduler starts late must still observe one.
                loop {
                    let snap = reader.snapshot();
                    observed += 1;
                    assert!(
                        snap.epoch >= last_epoch,
                        "reader {r}: epoch regressed {last_epoch} -> {}",
                        snap.epoch
                    );
                    assert!(
                        snap.applied_seq >= last_seq,
                        "reader {r}: applied_seq regressed {last_seq} -> {}",
                        snap.applied_seq
                    );
                    last_epoch = snap.epoch;
                    last_seq = snap.applied_seq;
                    assert_eq!(snap.n, n);
                    for mode in [ClusterMode::Even, ClusterMode::Power] {
                        let c = snap
                            .clusters_at(level, mode)
                            .unwrap_or_else(|| panic!("level {level} {mode:?} not published"));
                        assert_eq!(c.n(), n, "label vector length");
                        assert!(c.num_assigned() <= n);
                        // Membership answers must agree with the raw
                        // labels of the same snapshot (one consistent
                        // Arc, never a torn mix of generations).
                        let (u, v) =
                            ((observed % n as u64) as u32, ((observed * 7) % n as u64) as u32);
                        let expect = !c.is_noise(u) && !c.is_noise(v) && c.label(u) == c.label(v);
                        assert_eq!(snap.same_cluster_at(u, v, level, mode), Some(expect));
                        assert_eq!(snap.same_cluster_at(u, u, level, mode), Some(!c.is_noise(u)));
                        let members = snap.members_at(u, level, mode).expect("in range");
                        if c.is_noise(u) {
                            assert!(members.is_empty(), "noise node with members");
                        } else {
                            assert!(members.contains(&u), "cluster missing its probe node");
                        }
                    }
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                observed
            })
        })
        .collect();

    let ingest = core.ingest_handle();
    let mut submitted_edges = 0u64;
    for batch in &stream.batches {
        submitted_edges += batch.edges.len() as u64;
        loop {
            match ingest.submit(batch.time, batch.edges.clone()) {
                Ok(_) => break,
                Err(anc_server::IngestError::Overloaded) => {
                    // Backpressure: wait for the writer to drain.
                    ingest.flush().expect("flush during backpressure");
                }
                Err(e) => panic!("submit failed: {e:?}"),
            }
        }
    }
    let flush_epoch = ingest.flush().expect("final flush");
    assert!(flush_epoch > 0);

    // Readers must observe the fully-applied state at least once.
    let mut reader = core.reader();
    let snap = reader.snapshot();
    assert_eq!(snap.stats.ingested_edges, submitted_edges, "all submissions applied");

    stop.store(true, Ordering::Release);
    for handle in readers {
        let observed = handle.join().expect("reader thread");
        assert!(observed > 0, "reader never observed a snapshot");
    }

    let report = core.shutdown();
    assert!(report.wal_error.is_none());
    assert_eq!(report.stats.ingested_jobs, stream.batches.len() as u64);
    assert_eq!(report.stats.ingested_edges, submitted_edges);
    assert_eq!(report.stats.shed, 0, "nothing shed: submit retried on Overloaded");
    assert!(report.stats.applied_batches > 0);
    assert!(report.final_epoch >= flush_epoch);
    let served = match report.backend {
        EngineBackend::Volatile(engine) => engine,
        EngineBackend::Durable(_) => unreachable!("volatile backend in, volatile out"),
    };

    // Serial replay: same graph, config, seed, stream — one batch per
    // timestep, no serving machinery. Exact batch semantics make the
    // final state independent of how the writer coalesced.
    let mut serial = AncEngine::new(g.clone(), cfg.clone(), 42);
    for batch in &stream.batches {
        let _ = serial.activate_batch(&batch.edges, batch.time);
    }
    assert_eq!(
        engine_bytes(&served),
        engine_bytes(&serial),
        "served state diverged from serial replay (threads = {threads})"
    );
}

#[test]
fn stress_readers_vs_writer_swept_threads() {
    for threads in ["1", "4"] {
        run_stress(threads);
    }
}
