//! Property tests: the anchored fast path (global decay factor + batched
//! rescale) is exactly equivalent to direct evaluation of Eq. 1, for
//! arbitrary activation streams and arbitrary rescale schedules.

use anc_decay::{ActivenessStore, DecayClock, RawActivations};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct StreamSpec {
    lambda: f64,
    /// (edge, time-delta, rescale-after?) triples; deltas accumulate.
    events: Vec<(u32, f64, bool)>,
    edges: u32,
}

fn stream_strategy() -> impl Strategy<Value = StreamSpec> {
    (1u32..8, 0.0f64..2.0, prop::collection::vec((0u32..8, 0.0f64..5.0, any::<bool>()), 0..64))
        .prop_map(|(edges, lambda, mut events)| {
            for ev in &mut events {
                ev.0 %= edges;
            }
            StreamSpec { lambda, events, edges }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Anchored activeness ≡ Eq. 1 under arbitrary streams and rescales.
    #[test]
    fn anchored_equals_raw(spec in stream_strategy()) {
        let mut clock = DecayClock::new(spec.lambda);
        let mut store = ActivenessStore::new(spec.edges as usize, 0.0);
        let mut raw = RawActivations::new(spec.edges as usize, spec.lambda);
        let mut t = 0.0f64;
        for &(e, dt, rescale) in &spec.events {
            t += dt;
            clock.advance_to(t);
            store.activate(e, &clock);
            raw.activate(e, t);
            if rescale || clock.needs_rescale() {
                let g = clock.take_rescale();
                store.rescale(g);
            }
            for edge in 0..spec.edges {
                let fast = store.current(edge, &clock);
                let slow = raw.activeness_at(edge, t);
                prop_assert!(
                    (fast - slow).abs() <= 1e-8 * (1.0 + slow.abs()),
                    "edge {} at t={}: fast {} raw {}", edge, t, fast, slow
                );
            }
        }
    }

    /// Activeness is always non-negative and monotone under activation.
    #[test]
    fn activation_increases_activeness(spec in stream_strategy()) {
        let mut clock = DecayClock::new(spec.lambda);
        let mut store = ActivenessStore::new(spec.edges as usize, 0.0);
        let mut t = 0.0f64;
        for &(e, dt, _) in &spec.events {
            t += dt;
            clock.advance_to(t);
            let before = store.current(e, &clock);
            store.activate(e, &clock);
            let after = store.current(e, &clock);
            prop_assert!(after >= before);
            prop_assert!((after - before - 1.0).abs() < 1e-6,
                "a unit activation must raise true activeness by exactly 1");
        }
    }

    /// Initial activeness decays exponentially and never goes negative.
    #[test]
    fn pure_decay_is_exponential(lambda in 0.0f64..2.0, t in 0.0f64..50.0) {
        let mut clock = DecayClock::new(lambda);
        let store = ActivenessStore::new(1, 1.0);
        clock.advance_to(t);
        let expect = (-lambda * t).exp();
        let got = store.current(0, &clock);
        prop_assert!((got - expect).abs() < 1e-10);
        prop_assert!(got >= 0.0);
    }
}
