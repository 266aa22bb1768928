//! # anc-decay
//!
//! The time-decay scheme and the **global decay factor** of *Clustering
//! Activation Networks* (Section III–IV-A).
//!
//! ## The problem
//!
//! Under the time-decay scheme (Eq. 1), the activeness of edge `e` at time
//! `t` is `a_t(e) = Σ_i e^{-λ(t - t_i)}` over its activations — so *every*
//! edge's activeness changes continuously, even without activations. Naïve
//! maintenance costs `O(m)` per time step.
//!
//! ## The paper's fix (Observation 1 / Definition 1)
//!
//! Unactivated edges all decay at the same edge-independent pace
//! `e^{-λ(t'' - t')}`. Projecting all activeness onto an *anchor time* `t*`
//! yields the **anchored activeness** `a*_t(e) = a_t(e) / g(t, t*)` where
//! `g(t, t*) = e^{-λ(t - t*)}` is the **global decay factor**. The anchored
//! value changes *only* when the edge itself is activated (by
//! `1 / g(t, t*)`), so maintenance is `O(1)` per activation (Lemma 1).
//!
//! A **batched rescale** periodically folds `g` back into the stored values
//! and moves the anchor `t*` up to `t`; crucial in practice because
//! `1/g = e^{λ(t - t*)}` overflows `f64` once `λ(t - t*) > ~709`.
//! [`DecayClock`] triggers the rescale well before that, and quantises the
//! factor to a power of two so absorbing it is exact (see
//! [`DecayClock::take_rescale`]).
//!
//! ## Maintainability classes (Definition 2, Lemma 2)
//!
//! Derived functions of the activeness fall into three classes describing
//! how their anchored representation relates to the true value:
//! **PosM** (`F = f(a*) · g`, e.g. the activeness itself and the similarity
//! `S_t`, Lemma 4; a rescale multiplies them by `g`), **NegM**
//! (`F = f(a*) / g`, e.g. the reciprocal similarity `1/S_t` and the
//! distance metric, Lemmas 6 & 10; a rescale multiplies them by `1/g`) and
//! **NeuM** (`g` cancels, e.g. the active similarity σ, a ratio of PosM
//! quantities, Lemma 3; a rescale leaves them alone).

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::iter_over_hash_type,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

mod clock;
mod raw;
mod store;
pub mod window;

pub use clock::{ClockParts, DecayClock, RescaleConfig};
pub use raw::RawActivations;
pub use store::ActivenessStore;
pub use window::SlidingWindow;

/// Timestamp type. The paper's streams use non-negative, non-decreasing
/// arrival times; fractional times are allowed.
pub type Time = f64;
