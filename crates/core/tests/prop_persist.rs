//! Property test: checkpoint/restore is transparent at any point in any
//! activation stream — the restored engine is observationally identical and
//! continues identically.

use anc_core::{AncConfig, AncEngine, SnapshotProfile};
use anc_graph::gen::erdos_renyi;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn snapshot_transparent_mid_stream(
        seed in 0u64..16,
        split in 1usize..30,
        events in prop::collection::vec((0usize..10_000, 0.0f64..1.0), 2..40),
    ) {
        let g = erdos_renyi(30, 60, seed);
        if g.m() == 0 { return Ok(()); }
        let cfg = AncConfig { rep: 1, k: 2, ..Default::default() };
        let mut reference = AncEngine::new(g.clone(), cfg.clone(), seed);
        let mut live = AncEngine::new(g.clone(), cfg, seed);
        let m = g.m();
        let split = split.min(events.len());
        let mut t = 0.0;

        // Phase 1 on both engines.
        for &(sel, dt) in &events[..split] {
            t += dt;
            reference.activate((sel % m) as u32, t);
            live.activate((sel % m) as u32, t);
        }
        // Checkpoint `live`, drop it, restore.
        let mut buf = Vec::new();
        live.save_binary(&mut buf, SnapshotProfile::Exact).unwrap();
        drop(live);
        let mut restored = AncEngine::load_binary(buf.as_slice())
            .map_err(|e| TestCaseError::fail(format!("restore failed: {e}")))?;

        // Phase 2 on reference and restored.
        for &(sel, dt) in &events[split..] {
            t += dt;
            reference.activate((sel % m) as u32, t);
            restored.activate((sel % m) as u32, t);
        }

        prop_assert_eq!(restored.activations(), reference.activations());
        for e in 0..m as u32 {
            let (a, b) = (restored.similarity(e), reference.similarity(e));
            prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                "edge {}: {} vs {}", e, a, b);
        }
        prop_assert!(restored.check_invariants().is_ok());
    }
}
