//! Dense per-edge anchored-activeness storage.

use anc_graph::EdgeId;

use crate::DecayClock;

/// Per-edge anchored activeness `a*_t(e)` (PosM).
///
/// The true activeness is `a_t(e) = a*_t(e) × g(t, t*)` (Definition 1); this
/// store keeps only the anchored part, so an activation costs `O(1)` and the
/// passage of time costs nothing (Lemma 1).
#[derive(Clone, Debug)]
pub struct ActivenessStore {
    anchored: Vec<f64>,
}

impl ActivenessStore {
    /// Creates a store for `m` edges, each with initial activeness
    /// `initial` at `t = 0` (the paper's activation-network experiments use
    /// initial activeness 1; Section VI).
    pub fn new(m: usize, initial: f64) -> Self {
        Self { anchored: vec![initial; m] }
    }

    /// Number of edges tracked.
    pub fn len(&self) -> usize {
        self.anchored.len()
    }

    /// Whether the store tracks zero edges.
    pub fn is_empty(&self) -> bool {
        self.anchored.is_empty()
    }

    /// Applies one activation on `e` at the clock's current time: the true
    /// activeness increases by 1, so the anchored value increases by
    /// `1 / g(t, t*)` (Section IV-A).
    pub fn activate(&mut self, e: EdgeId, clock: &DecayClock) {
        self.anchored[e as usize] += clock.boost();
    }

    /// Anchored activeness `a*_t(e)`.
    #[inline]
    pub fn anchored(&self, e: EdgeId) -> f64 {
        self.anchored[e as usize]
    }

    /// True activeness `a_t(e) = a*_t(e) × g(t, t*)` at the clock's time.
    #[inline]
    pub fn current(&self, e: EdgeId, clock: &DecayClock) -> f64 {
        self.anchored[e as usize] * clock.global_factor()
    }

    /// Raw anchored slice (read-only); index by `EdgeId`.
    pub fn as_slice(&self) -> &[f64] {
        &self.anchored
    }

    /// Rebuilds a store from a persisted anchored array (inverse of
    /// [`ActivenessStore::as_slice`]; used by the binary snapshot codec).
    pub fn from_anchored(anchored: Vec<f64>) -> Self {
        Self { anchored }
    }

    /// Absorbs the factor `g` of a batched rescale
    /// ([`DecayClock::take_rescale`]): anchored activeness is PosM, so every
    /// value multiplies by `g`.
    pub fn rescale(&mut self, g: f64) {
        for a in &mut self.anchored {
            *a *= g;
        }
    }

    /// Heap bytes used.
    pub fn memory_bytes(&self) -> usize {
        self.anchored.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RawActivations;

    /// Paper Example 2: anchored bookkeeping for Example 1's stream.
    #[test]
    fn paper_example_2() {
        let mut clock = DecayClock::new(0.1);
        let mut store = ActivenessStore::new(1, 0.0);

        // A1 = (e, 0): a*_0 = 1 (boost = 1 at t = t* = 0).
        store.activate(0, &clock);
        assert!((store.anchored(0) - 1.0).abs() < 1e-12);

        // t = 1: g = e^{-0.1} ≈ 0.905; a_1 = 1 × 0.905.
        clock.advance_to(1.0);
        assert!((store.current(0, &clock) - 0.905).abs() < 5e-4);
        assert!((store.anchored(0) - 1.0).abs() < 1e-12); // unchanged by time

        // t = 2, A2 = (e, 2): a*_2 = 1 + 1/g(2, 0) = 1 + e^{0.2} ≈ 2.221.
        clock.advance_to(2.0);
        store.activate(0, &clock);
        assert!((store.anchored(0) - 2.2214).abs() < 5e-4);
        // a_2 = a*_2 × g(2, 0) ≈ 1.8187.
        assert!((store.current(0, &clock) - 1.8187).abs() < 5e-4);

        // Batched rescale at t = 2. The paper resets t* ← 2, so a*_2 = a_2.
        // Ours moves t* by whole halvings of g only; λ(t − t*) = 0.2 < ln 2
        // is none, so the rescale is a no-op and a*_2 stays 2.2214.
        let g = clock.take_rescale();
        assert_eq!(g, 1.0);
        store.rescale(g);
        assert!((store.anchored(0) - 2.2214).abs() < 5e-4);
        assert!((store.current(0, &clock) - 1.8187).abs() < 5e-4);

        // At t = 10, λ(t − t*) = 1 holds one halving: t* ← ln 2 / λ and
        // a* halves; the true activeness is unchanged.
        clock.advance_to(10.0);
        let a10 = store.current(0, &clock);
        let g = clock.take_rescale();
        assert_eq!(g, 0.5);
        store.rescale(g);
        assert!((store.anchored(0) - 1.1107).abs() < 5e-4);
        assert!((store.current(0, &clock) - a10).abs() < 1e-12);
    }

    #[test]
    fn matches_raw_reference_with_rescales() {
        // Deterministic mini-stream over 3 edges; rescale after each step and
        // verify the anchored fast path always agrees with direct Eq. 1.
        let lambda = 0.3;
        let stream: &[(EdgeId, f64)] =
            &[(0, 0.5), (1, 0.5), (0, 1.25), (2, 2.0), (1, 2.0), (0, 3.75), (2, 4.0)];
        let mut clock = DecayClock::new(lambda);
        let mut store = ActivenessStore::new(3, 0.0);
        let mut raw = RawActivations::new(3, lambda);

        for (i, &(e, t)) in stream.iter().enumerate() {
            clock.advance_to(t);
            store.activate(e, &clock);
            raw.activate(e, t);
            if i % 2 == 1 {
                let g = clock.take_rescale();
                store.rescale(g);
            }
            for edge in 0..3 {
                let fast = store.current(edge, &clock);
                let slow = raw.activeness_at(edge, t);
                assert!(
                    (fast - slow).abs() < 1e-9 * (1.0 + slow),
                    "edge {edge} at t={t}: fast {fast} vs raw {slow}"
                );
            }
        }
    }

    #[test]
    fn initial_activeness() {
        let clock = DecayClock::new(0.1);
        let store = ActivenessStore::new(4, 1.0);
        for e in 0..4 {
            assert_eq!(store.current(e, &clock), 1.0);
        }
        assert_eq!(store.len(), 4);
        assert!(!store.is_empty());
        assert_eq!(store.memory_bytes(), 4 * 8);
    }
}
