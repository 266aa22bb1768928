//! End-to-end property tests for the online engine: arbitrary activation
//! streams must (i) keep every engine invariant, (ii) leave the index
//! identical to a from-scratch reconstruction over the same weights, bit
//! for bit in every array, (iii) be unaffected by when batched rescales
//! happen, and (iv) keep the index and the cluster cache exact across the
//! similarity store's range step. Gaps reach λΔt = 20, so a stream's
//! silences span many halvings of the decay factor.

use anc_core::cluster::cluster_all;
use anc_core::{AncConfig, AncEngine, ClusterMode};
use anc_decay::RescaleConfig;
use anc_graph::gen::{connected_caveman, erdos_renyi};
use proptest::prelude::*;

fn stream_strategy() -> impl Strategy<Value = (u64, Vec<(usize, f64)>)> {
    (0u64..32, prop::collection::vec((0usize..10_000, 0.0f64..200.0), 1..40))
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

    /// Aggressive rescaling (a guard of 0: at every call past a whole
    /// halving of `g`) must give the same clustering as lazy rescaling (a
    /// guard of 600, which few streams reach), on the same stream. The last
    /// activation comes λΔt = 1 after the others, so the eager engine
    /// crosses at least one rescale.
    #[test]
    fn rescale_schedule_is_unobservable((seed, events) in stream_strategy()) {
        let lg = connected_caveman(3, 4);
        let eager_cfg = AncConfig { rescale: RescaleConfig { exponent_guard: 0.0 }, ..small_cfg() };
        let lazy_cfg = AncConfig { rescale: RescaleConfig { exponent_guard: 600.0 }, ..small_cfg() };
        let mut eager = AncEngine::new(lg.graph.clone(), eager_cfg, seed);
        let mut lazy = AncEngine::new(lg.graph.clone(), lazy_cfg, seed);
        let m = lg.graph.m();
        let mut t = 0.0;
        for &(sel, dt) in events.iter().chain([&(0, 10.0)]) {
            t += dt;
            eager.activate((sel % m) as u32, t);
            lazy.activate((sel % m) as u32, t);
        }
        prop_assert!(eager.rescales() >= 1, "the eager engine crossed no rescale");
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

    /// After an arbitrary stream, a dense burst on the cliques' edges
    /// carries the mean of `S` out of the window, so the range step scales
    /// the store and the index and lifts the edges below the floor, while
    /// both modes of every level are cached: the index must still equal a
    /// rebuild bit for bit, and each cached clustering a cold fill.
    #[test]
    fn range_step_keeps_index_and_cache_exact((seed, events) in stream_strategy()) {
        let lg = connected_caveman(3, 5);
        let mut engine = AncEngine::new(lg.graph, small_cfg(), seed);
        let m = engine.graph().m();
        let mut t = 0.0;
        for &(sel, dt) in &events {
            t += dt;
            engine.activate((sel % m) as u32, t);
        }
        let levels = engine.num_levels();
        let modes = [ClusterMode::Even, ClusterMode::Power];
        let intra: Vec<u32> = engine
            .graph()
            .iter_edges()
            .filter(|&(_, u, v)| u / 5 == v / 5)
            .map(|(e, _, _)| e)
            .collect();
        let mut steps = 0;
        while engine.to_snapshot().sim_exp == 0 {
            prop_assert!(steps < 100_000, "the burst never reached the range step");
            let _ = engine.refresh_view(&(0..levels).collect::<Vec<_>>(), &modes);
            for &e in &intra {
                t += 1e-3;
                engine.activate(e, t);
            }
            steps += intra.len();
        }
        for level in 0..levels {
            for mode in modes {
                let (cached, _) = engine.cluster_all_cached(level, mode);
                let cold = cluster_all(engine.graph(), engine.pyramids(), level, mode);
                prop_assert_eq!(&*cached, &cold, "level {} {:?}", level, mode);
            }
        }
        prop_assert!(engine.check_invariants().is_ok(), "{:?}", engine.check_invariants());
        let live = engine.state_bytes_for_test();
        engine.reconstruct_index();
        prop_assert!(live == engine.state_bytes_for_test(), "live index differs from the rebuild");
    }
}
