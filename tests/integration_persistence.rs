//! Cross-crate integration: checkpoint/restore and trace record/replay as a
//! downstream deployment would use them — stream, checkpoint, crash,
//! restore, replay the tail from a trace, and land in the same state.

use anc::core::{AncConfig, AncEngine, ClusterMode, SnapshotProfile};
use anc::data::{read_trace, registry, stream, write_trace};

#[test]
fn crash_recovery_via_checkpoint_and_trace_replay() {
    let ds = registry::by_name("CA").unwrap().materialize_scaled(3, 0.1);
    let g = ds.graph.clone();
    let cfg = AncConfig { rep: 1, k: 2, ..Default::default() };

    // The full day's stream, recorded as a trace up-front.
    let full = stream::uniform_per_step(&g, 20, 0.05, 13);
    let mut trace_bytes = Vec::new();
    write_trace(&full, &mut trace_bytes).unwrap();

    // Reference: one engine processes everything.
    let mut reference = AncEngine::new(g.clone(), cfg.clone(), 5);
    for b in &full.batches {
        let _ = reference.activate_batch(&b.edges, b.time);
    }

    // Crash-recovery path: process half, checkpoint, "crash", restore, and
    // replay the rest from the recorded trace.
    let mut first_half = AncEngine::new(g.clone(), cfg, 5);
    for b in &full.batches[..10] {
        let _ = first_half.activate_batch(&b.edges, b.time);
    }
    let mut checkpoint = Vec::new();
    first_half.save_binary(&mut checkpoint, SnapshotProfile::Exact).unwrap();
    drop(first_half); // the crash

    let mut restored = AncEngine::load_binary(checkpoint.as_slice()).unwrap();
    let replay = read_trace(trace_bytes.as_slice(), Some(g.m())).unwrap();
    for b in &replay.batches[10..] {
        let _ = restored.activate_batch(&b.edges, b.time);
    }

    // Same observable state as the engine that never crashed.
    assert_eq!(restored.activations(), reference.activations());
    assert_eq!(restored.now(), reference.now());
    for e in 0..g.m() as u32 {
        let (a, b) = (restored.similarity(e), reference.similarity(e));
        assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "edge {e}: restored {a} vs reference {b}");
    }
    for level in [restored.default_level(), restored.num_levels() - 1] {
        assert_eq!(
            restored.cluster_all(level, ClusterMode::Power),
            reference.cluster_all(level, ClusterMode::Power),
            "clustering differs at level {level}"
        );
    }
    restored.check_invariants().unwrap();
}

#[test]
fn snapshot_size_is_reasonable() {
    let ds = registry::by_name("CO").unwrap().materialize_scaled(9, 0.2);
    let engine = AncEngine::new(ds.graph, AncConfig { rep: 0, k: 2, ..Default::default() }, 1);
    let mut buf = Vec::new();
    engine.save_binary(&mut buf, SnapshotProfile::Exact).unwrap();
    // The file holds the state in memory minus the index and the derived
    // `1/S*` array, so it must not outgrow the in-memory footprint.
    assert!(buf.len() < engine.memory_bytes());
    assert!(buf.len() > engine.graph().m() * 8, "snapshot must contain per-edge state");
}
