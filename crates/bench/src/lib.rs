//! # anc-bench
//!
//! The experiment harness: one binary, `anc-bench <experiment>`, with one
//! subcommand per table/figure of the paper (see DESIGN.md §5 for the
//! experiment index; [`experiments`] holds them and the dispatcher) plus
//! shared measurement and reporting utilities.
//!
//! An experiment prints the same rows/series the paper reports and returns
//! the machine-readable JSON the dispatcher writes under `results/`. Every
//! experiment accepts `--scale <f>` to shrink the synthetic datasets
//! (wall-clock vs fidelity), `--seed <u64>` and `--datasets A,B` (those
//! with a fixed dataset ignore the list); nothing else parses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod methods;
pub mod report;

use std::time::Instant;

/// Runs `f`, returning its result and elapsed seconds.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Percentile of a sample (p ∈ [0, 100]); sorts a copy.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let idx = ((p / 100.0) * (s.len() - 1) as f64).round() as usize;
    s[idx.min(s.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basic() {
        let s = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn time_measures() {
        let (v, secs) = time(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
