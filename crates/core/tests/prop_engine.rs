//! End-to-end property tests for the online engine: arbitrary activation
//! streams must (i) keep every engine invariant, (ii) leave the index
//! identical to a from-scratch reconstruction over the same weights, bit
//! for bit in every array, and
//! (iii) be unaffected by when batched rescales happen.

use anc_core::{AncConfig, AncEngine, ClusterMode};
use anc_decay::RescaleConfig;
use anc_graph::gen::{connected_caveman, erdos_renyi};
use proptest::prelude::*;

fn stream_strategy() -> impl Strategy<Value = (u64, Vec<(usize, f64)>)> {
    (0u64..32, prop::collection::vec((0usize..10_000, 0.0f64..1.5), 1..40))
}

fn small_cfg() -> AncConfig {
    AncConfig { k: 2, rep: 1, mu: 2, epsilon: 0.2, ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_invariants_under_streams((seed, events) in stream_strategy()) {
        let g = erdos_renyi(24, 50, seed);
        if g.m() == 0 { return Ok(()); }
        let mut engine = AncEngine::new(g, small_cfg(), seed);
        let m = engine.graph().m();
        let mut t = 0.0;
        for &(sel, dt) in &events {
            t += dt;
            engine.activate((sel % m) as u32, t);
        }
        prop_assert!(engine.check_invariants().is_ok(),
            "{:?}", engine.check_invariants());
    }

    #[test]
    fn online_equals_reconstruct((seed, events) in stream_strategy()) {
        let lg = connected_caveman(3, 5);
        let mut engine = AncEngine::new(lg.graph, small_cfg(), seed);
        let m = engine.graph().m();
        let mut t = 0.0;
        for &(sel, dt) in &events {
            t += dt;
            engine.activate((sel % m) as u32, t);
        }
        let live = engine.state_bytes_for_test();
        engine.reconstruct_index();
        prop_assert!(live == engine.state_bytes_for_test(), "live index differs from the rebuild");
    }

    /// Aggressive rescaling (every 2 activations) must give the same
    /// clustering as lazy rescaling (never), on the same stream.
    #[test]
    fn rescale_schedule_is_unobservable((seed, events) in stream_strategy()) {
        let lg = connected_caveman(3, 4);
        let eager_cfg = AncConfig {
            rescale: RescaleConfig { every_activations: 2, exponent_guard: 200.0 },
            ..small_cfg()
        };
        let lazy_cfg = AncConfig {
            rescale: RescaleConfig { every_activations: usize::MAX, exponent_guard: 400.0 },
            ..small_cfg()
        };
        let mut eager = AncEngine::new(lg.graph.clone(), eager_cfg, seed);
        let mut lazy = AncEngine::new(lg.graph.clone(), lazy_cfg, seed);
        let m = lg.graph.m();
        let mut t = 0.0;
        for &(sel, dt) in &events {
            t += dt;
            eager.activate((sel % m) as u32, t);
            lazy.activate((sel % m) as u32, t);
        }
        // True similarities agree…
        for e in 0..m as u32 {
            let (a, b) = (eager.similarity(e), lazy.similarity(e));
            prop_assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                "edge {}: eager {} lazy {}", e, a, b);
        }
        // …and so do the clusterings at every level.
        for level in 0..eager.num_levels() {
            let ca = eager.cluster_all(level, ClusterMode::Power);
            let cb = lazy.cluster_all(level, ClusterMode::Power);
            prop_assert_eq!(ca, cb, "clusterings diverge at level {}", level);
        }
    }
}
