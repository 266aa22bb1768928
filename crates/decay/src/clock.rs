//! The decay clock: current time, anchor time, global decay factor and the
//! one rescale rule.

use crate::Time;

/// When a batched rescale is due. The paper (Section IV-A) re-anchors "when
/// a fixed number of activations accumulates"; here the one rule is the
/// exponent: a rescale is due when `λ(t − t*)` reaches the guard, since that
/// alone bounds what an anchored value can grow to (DESIGN.md §3).
#[derive(Clone, Copy, Debug)]
pub struct RescaleConfig {
    /// Rescale when `λ(t − t*)` reaches this guard. `f64` overflows at
    /// ≈ 709; the default of 200 leaves ample headroom for sums and
    /// products of anchored quantities.
    pub exponent_guard: f64,
}

impl Default for RescaleConfig {
    fn default() -> Self {
        Self { exponent_guard: 200.0 }
    }
}

/// Tracks the current time `t`, the anchor time `t*` and the decay factor
/// `λ`; decides when a batched rescale is due.
///
/// ```
/// use anc_decay::{ActivenessStore, DecayClock};
///
/// // Paper Example 1's λ = 0.1, activations at t = 0 and t = 10.
/// let mut clock = DecayClock::new(0.1);
/// let mut act = ActivenessStore::new(1, 0.0);
/// act.activate(0, &clock);
/// clock.advance_to(10.0);
/// act.activate(0, &clock);
/// assert!((act.current(0, &clock) - 1.3679).abs() < 5e-4);
/// // A batched rescale (here g = 2^-1) is unobservable:
/// let g = clock.take_rescale();
/// assert_eq!(g, 0.5);
/// act.rescale(g);
/// assert!((act.current(0, &clock) - 1.3679).abs() < 5e-4);
/// ```
///
/// The clock itself holds no per-edge state — the stores absorb the factor
/// returned by [`DecayClock::take_rescale`].
#[derive(Clone, Debug)]
pub struct DecayClock {
    lambda: f64,
    now: Time,
    anchor: Time,
    cfg: RescaleConfig,
}

impl DecayClock {
    /// Creates a clock at `t = t* = 0` with decay factor `lambda >= 0`.
    pub fn new(lambda: f64) -> Self {
        Self::with_config(lambda, RescaleConfig::default())
    }

    /// Creates a clock with an explicit rescale guard.
    pub fn with_config(lambda: f64, cfg: RescaleConfig) -> Self {
        assert!(lambda >= 0.0 && lambda.is_finite(), "lambda must be finite and >= 0");
        Self { lambda, now: 0.0, anchor: 0.0, cfg }
    }

    /// The decay parameter λ.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Current time `t`.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Anchor time `t*`.
    #[inline]
    pub fn anchor(&self) -> Time {
        self.anchor
    }

    /// The global decay factor `g(t, t*) = e^{-λ(t - t*)}` (Definition 1).
    #[inline]
    pub fn global_factor(&self) -> f64 {
        (-self.lambda * (self.now - self.anchor)).exp()
    }

    /// `1 / g(t, t*) = e^{λ(t - t*)}` — the amount by which a unit activation
    /// increases an *anchored* PosM value at the current time.
    #[inline]
    pub fn boost(&self) -> f64 {
        self.boost_at(self.now)
    }

    /// `e^{λ(t' - t*)}` — the anchored weight of a unit activation at time
    /// `t'`, which may lie before the current time (a late activation counts
    /// at its own time, as Eq. 1 sums it). Equals [`Self::boost`] at
    /// `t' = now`, bit for bit.
    #[inline]
    pub fn boost_at(&self, t: Time) -> f64 {
        (self.lambda * (t - self.anchor)).exp()
    }

    /// Advances the clock to `t`. Any finite `t` is accepted, and time never
    /// moves backwards: a `t` before the current time leaves the clock where
    /// it is. A late activation is still weighted at its own time
    /// ([`Self::boost_at`]); only the order in which activations reinforce
    /// is their arrival order.
    pub fn advance_to(&mut self, t: Time) {
        assert!(t.is_finite(), "time must be finite");
        if t > self.now {
            self.now = t;
        }
    }

    /// Does nothing: no rescale is decided by an activation count. Kept only
    /// for the benchmark's layer twin, which still calls it.
    pub fn note_activation(&mut self) {}

    /// Whether a batched rescale is due: `λ(t − t*)` has reached the guard.
    pub fn needs_rescale(&self) -> bool {
        self.lambda * (self.now - self.anchor) >= self.cfg.exponent_guard
    }

    /// Decomposes the clock into its raw persisted fields (for the compact
    /// binary snapshot codec; see `anc-core::persist::binary`).
    pub fn to_parts(&self) -> ClockParts {
        ClockParts { lambda: self.lambda, now: self.now, anchor: self.anchor, cfg: self.cfg }
    }

    /// Reassembles a clock from persisted fields. Inverse of
    /// [`DecayClock::to_parts`].
    ///
    /// # Panics
    /// Panics if `lambda` is negative or non-finite (same contract as
    /// [`DecayClock::with_config`]).
    pub fn from_parts(parts: ClockParts) -> Self {
        assert!(parts.lambda >= 0.0 && parts.lambda.is_finite(), "lambda must be finite and >= 0");
        Self { lambda: parts.lambda, now: parts.now, anchor: parts.anchor, cfg: parts.cfg }
    }

    /// Performs the clock side of a batched rescale: returns the factor `g`
    /// every anchored store must absorb (PosM values multiply by `g`, NegM
    /// values by `1/g`) and moves the anchor `t*` to match.
    ///
    /// The paper resets `t* ← t`; here `g = 2^-j` with
    /// `j = ⌊λ(t − t*)/ln 2⌋` and `t*` advances by `j·ln 2/λ`, leaving a
    /// residual `λ(t − t*) < ln 2`. Scaling a normal `f64` by `2^±j` is
    /// exact, so a rescaled store holds the same bits a from-scratch
    /// computation over the rescaled inputs would. When `j = 0` the factor
    /// is 1 and nothing moves.
    pub fn take_rescale(&mut self) -> f64 {
        let j = (self.lambda * (self.now - self.anchor) / std::f64::consts::LN_2).floor();
        if j < 1.0 {
            return 1.0;
        }
        // `j as i32` saturates; past 2^-1074 the factor is 0 either way.
        let g = 0.5f64.powi(j as i32);
        self.anchor = (self.anchor + j * std::f64::consts::LN_2 / self.lambda).min(self.now);
        g
    }
}

/// The raw persisted fields of a [`DecayClock`] (see
/// [`DecayClock::to_parts`] / [`DecayClock::from_parts`]).
#[derive(Clone, Copy, Debug)]
pub struct ClockParts {
    /// Decay parameter λ.
    pub lambda: f64,
    /// Current time `t`.
    pub now: Time,
    /// Anchor time `t*`.
    pub anchor: Time,
    /// The rescale guard.
    pub cfg: RescaleConfig,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_matches_definition() {
        let mut c = DecayClock::new(0.1);
        c.advance_to(1.0);
        assert!((c.global_factor() - (-0.1f64).exp()).abs() < 1e-15);
        assert!((c.boost() - (0.1f64).exp()).abs() < 1e-15);
        c.advance_to(2.0);
        assert!((c.global_factor() - (-0.2f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn rescale_moves_anchor_by_whole_halvings() {
        // λ(t − t*) = 1.5 = 2·ln 2 + 0.114: two halvings, residual 0.114.
        let mut c = DecayClock::new(0.5);
        c.advance_to(3.0);
        let before = c.global_factor();
        let g = c.take_rescale();
        assert_eq!(g, 0.25);
        assert!((c.anchor() - 4.0 * std::f64::consts::LN_2).abs() < 1e-15);
        // The true factor is unchanged: g × (new factor) = old factor.
        assert!((g * c.global_factor() - before).abs() < 1e-15);
        assert!(c.lambda() * (c.now() - c.anchor()) < std::f64::consts::LN_2);
        // Below one halving the rescale is a no-op.
        assert_eq!(c.take_rescale(), 1.0);
        assert!((c.anchor() - 4.0 * std::f64::consts::LN_2).abs() < 1e-15);
    }

    #[test]
    fn rescale_factor_is_an_exact_power_of_two() {
        let lambda = 0.37;
        for j in [1i32, 2, 7, 200, 288, 1000] {
            let mut c = DecayClock::new(lambda);
            c.advance_to((f64::from(j) + 0.5) * std::f64::consts::LN_2 / lambda);
            let g = c.take_rescale();
            assert_eq!(g, f64::from_bits(((1023 - j) as u64) << 52), "j = {j}");
        }
    }

    #[test]
    fn exponent_guard_trigger() {
        let mut c = DecayClock::with_config(1.0, RescaleConfig { exponent_guard: 50.0 });
        c.advance_to(49.0);
        assert!(!c.needs_rescale());
        c.advance_to(50.0);
        assert!(c.needs_rescale());
        // The residual left behind is below ln 2, so at the same time no
        // second rescale is due.
        c.take_rescale();
        assert!(!c.needs_rescale());
    }

    #[test]
    fn time_is_monotonic() {
        let mut c = DecayClock::new(0.1);
        c.advance_to(5.0);
        c.advance_to(3.0); // the clock stays at 5
        assert_eq!(c.now(), 5.0);
        // A late time is weighted at its own time: e^{λ(3 - 0)}.
        assert_eq!(c.boost_at(3.0), (0.1f64 * 3.0).exp());
        assert_eq!(c.boost_at(c.now()).to_bits(), c.boost().to_bits());
    }

    #[test]
    fn zero_lambda_never_decays() {
        let mut c = DecayClock::new(0.0);
        c.advance_to(1e9);
        assert_eq!(c.global_factor(), 1.0);
        assert!(!c.needs_rescale());
    }
}
