//! Configuration of the ANC pipeline.

use anc_decay::RescaleConfig;

/// All tunables of the ANC pipeline, with the paper's defaults (Table II and
/// Section VI).
#[derive(Clone, Debug)]
pub struct AncConfig {
    /// Time-decay factor λ of Eq. 1. Paper uses 0.1 for the synthetic
    /// activation experiments and 0.01 for the day-trace.
    pub lambda: f64,
    /// Active-neighbor threshold ε for `N_ε(v) = {u ∈ N(v) | σ(u,v) ≥ ε}`.
    /// Graph-dependent; 0.3 is a mid-range default from Table II.
    pub epsilon: f64,
    /// Core threshold µ: a node is a core if `|N_ε(v)| ≥ µ`, a p-core if
    /// `deg(v) ≥ µ` but not core, a periphery otherwise.
    pub mu: usize,
    /// Number of pyramids `k` in the index `P` (default 4, Table II).
    pub k: usize,
    /// Voting support threshold θ (paper: "normally set to 0.7").
    pub theta: f64,
    /// Repetitions of full-graph local reinforcement when initializing `S_0`
    /// (default 7; "7 repetitions are enough for a high quality clustering
    /// while 0 repetition is enough for beating the baselines").
    pub rep: usize,
    /// Absolute lower clamp on the true similarity `S_t(e)`.
    ///
    /// The paper leaves the behaviour of wedge stretch driving `S_t ≤ 0`
    /// unspecified; a positive floor keeps `1/S_t` a valid Dijkstra weight,
    /// mirroring Attractor's truncation of weights to `[0, 1]`.
    pub floor: f64,
    /// Relative lower clamp: `S_t(e)` is additionally floored at
    /// `floor_rel × mean(S_t)`.
    ///
    /// Reinforcement grows similarities multiplicatively, so an absolute
    /// floor turns into a black hole: a crushed edge's `AF ∝ F` vanishes and
    /// `TF ∝ √F` cannot outweigh wedge stretch from far-larger neighbor
    /// similarities, contradicting the paper's case study where abandoned
    /// ties *recover* once collaboration resumes. A mean-relative floor
    /// keeps crushed edges within reach of triadic consolidation: the
    /// default `1e-2` (a 100× dynamic range below the mean) is calibrated so
    /// that a freshly re-activated tie with one hot common neighbor can
    /// out-pull the wedge stretch of a decayed home neighborhood (see the
    /// `social_monitor` example and the Section VI-C case study).
    pub floor_rel: f64,
    /// Batched-rescale policy for the global decay factor.
    pub rescale: RescaleConfig,
}

impl Default for AncConfig {
    fn default() -> Self {
        Self {
            lambda: 0.1,
            epsilon: 0.3,
            mu: 3,
            k: 4,
            theta: 0.7,
            rep: 7,
            floor: 1e-9,
            floor_rel: 1e-2,
            rescale: RescaleConfig::default(),
        }
    }
}

impl AncConfig {
    /// Validates parameter ranges; called by the engine constructor.
    ///
    /// # Panics
    /// Panics with the first violated rule's message on an invalid
    /// combination.
    pub fn validate(&self) {
        let checked = self.check();
        assert!(checked.is_ok(), "{}", checked.err().unwrap_or_default());
    }

    /// The one parameter-range check: the first violated rule's message, or
    /// `Ok`. [`Self::validate`] panics on it; a snapshot restore maps it to a
    /// typed error, and a front end reports it before building an engine.
    pub fn check(&self) -> Result<(), &'static str> {
        let rules = [
            (self.lambda >= 0.0 && self.lambda.is_finite(), "lambda must be >= 0"),
            ((0.0..=1.0).contains(&self.epsilon), "epsilon must be in [0, 1]"),
            (self.mu >= 1, "mu must be >= 1"),
            // A restore sizes a `k · ⌈log₂ n⌉`-partition build from a
            // decoded `k`, so it is bounded before anything is allocated.
            ((1..=1_024).contains(&self.k), "k must be in 1..=1024"),
            ((0.0..=1.0).contains(&self.theta), "theta must be in [0, 1]"),
            (self.floor > 0.0, "floor must be positive (1/S must stay finite)"),
            (self.floor_rel > 0.0 && self.floor_rel < 1.0, "floor_rel must be in (0, 1)"),
            // `boost() = e^{λ(t - t*)}` stays below `e^guard`, which must
            // itself be a finite `f64`: the guard may not be NaN or exceed
            // `ln(f64::MAX)` ≈ 709.78.
            (
                self.rescale.exponent_guard <= f64::MAX.ln(),
                "rescale.exponent_guard must be at most ln(f64::MAX) ≈ 709.78",
            ),
        ];
        match rules.into_iter().find(|(ok, _)| !ok) {
            Some((_, msg)) => Err(msg),
            None => Ok(()),
        }
    }

    /// Minimum number of agreeing pyramids for a positive vote: `⌈θ·k⌉`,
    /// at least 1 and at most `k`.
    pub fn needed_votes(&self) -> usize {
        needed_votes(self.theta, self.k)
    }
}

/// Minimum number of agreeing pyramids among `k` for a positive vote at
/// support threshold `theta`: `⌈θ·k⌉`, at least 1 and at most `k`. The one
/// rule behind [`AncConfig::needed_votes`] and the threshold
/// [`crate::Pyramids::build`] stores.
pub(crate) fn needed_votes(theta: f64, k: usize) -> usize {
    ((theta * k as f64).ceil() as usize).min(k).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AncConfig::default();
        assert_eq!(c.k, 4);
        assert_eq!(c.rep, 7);
        assert!((c.theta - 0.7).abs() < 1e-12);
        c.validate();
    }

    #[test]
    fn needed_votes_examples() {
        // Paper Example 4: k = 2, θ = 0.7 → 2 ≥ ⌈1.4⌉ = 2 votes needed.
        let c = AncConfig { k: 2, ..Default::default() };
        assert_eq!(c.needed_votes(), 2);
        let c = AncConfig { k: 4, ..Default::default() };
        assert_eq!(c.needed_votes(), 3);
        let c = AncConfig { k: 16, ..Default::default() };
        assert_eq!(c.needed_votes(), 12);
    }

    #[test]
    #[should_panic(expected = "floor")]
    fn zero_floor_rejected() {
        AncConfig { floor: 0.0, ..Default::default() }.validate();
    }

    /// An unbounded guard never triggers a rescale, so `boost()` overflows
    /// to ∞ once `λ(t - t*)` passes `ln(f64::MAX)`.
    #[test]
    #[should_panic(expected = "exponent_guard")]
    fn infinite_exponent_guard_rejected() {
        let rescale = RescaleConfig { exponent_guard: f64::INFINITY, ..Default::default() };
        AncConfig { rescale, ..Default::default() }.validate();
    }

    #[test]
    fn k_bounded() {
        assert_eq!(AncConfig { k: 1_024, ..Default::default() }.check(), Ok(()));
        for k in [0, 1_025, 1 << 62] {
            assert!(AncConfig { k, ..Default::default() }.check().is_err(), "{k}");
        }
    }

    #[test]
    fn exponent_guard_bounded_by_f64_range() {
        for guard in [1e6, f64::NAN, 709.79] {
            let rescale = RescaleConfig { exponent_guard: guard, ..Default::default() };
            assert!(AncConfig { rescale, ..Default::default() }.check().is_err(), "{guard}");
        }
        let rescale = RescaleConfig { exponent_guard: 709.78, ..Default::default() };
        assert_eq!(AncConfig { rescale, ..Default::default() }.check(), Ok(()));
    }
}
