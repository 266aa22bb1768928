//! Floor timing: the per-op minimum over identical passes, and the
//! percentiles and rates computed from it.
//!
//! On a small shared host a pass's wall time carries whatever the
//! scheduler and the neighbours did during it; the minimum each op reached
//! over many identical passes does not. Every end-to-end metric is a
//! function of the floor vector, never of a wall clock around a pass.

use crate::ops::Class;

/// Why a pass could not be folded into a floor.
#[derive(Debug, PartialEq, Eq)]
pub enum FoldError {
    /// The pass replayed a different op list.
    Fingerprint { floor: u64, pass: u64 },
    /// Same fingerprint, different op count (a harness bug).
    Length { floor: usize, pass: usize },
}

impl std::fmt::Display for FoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoldError::Fingerprint { floor, pass } => {
                write!(f, "pass replayed op list {pass:#x}, floor holds {floor:#x}")
            }
            FoldError::Length { floor, pass } => {
                write!(f, "pass timed {pass} ops, floor holds {floor}")
            }
        }
    }
}

/// Per-op minimum over the passes folded so far.
#[derive(Clone, Debug)]
pub struct Floor {
    fingerprint: u64,
    ns: Vec<u64>,
    /// Σ floor after each folded pass, for `bench.floor_converged_pass`.
    sums: Vec<u64>,
    /// Σ op times of each folded pass, for `bench.pass_spread_pct`.
    walls: Vec<u64>,
}

impl Floor {
    /// A floor seeded with its first pass.
    pub fn new(fingerprint: u64, first: &[u64]) -> Self {
        let sum = first.iter().sum();
        Self { fingerprint, ns: first.to_vec(), sums: vec![sum], walls: vec![sum] }
    }

    /// Folds one more pass in; refuses a pass over a different op list.
    pub fn fold(&mut self, fingerprint: u64, pass: &[u64]) -> Result<(), FoldError> {
        if fingerprint != self.fingerprint {
            return Err(FoldError::Fingerprint { floor: self.fingerprint, pass: fingerprint });
        }
        if pass.len() != self.ns.len() {
            return Err(FoldError::Length { floor: self.ns.len(), pass: pass.len() });
        }
        for (floor, &t) in self.ns.iter_mut().zip(pass) {
            *floor = (*floor).min(t);
        }
        self.sums.push(self.ns.iter().sum());
        self.walls.push(pass.iter().sum());
        Ok(())
    }

    #[cfg(test)]
    pub fn ns(&self) -> &[u64] {
        &self.ns
    }

    pub fn passes(&self) -> usize {
        self.sums.len()
    }

    /// Σ floor, in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// The 1-based pass after which Σ floor stayed within 1 % of its final
    /// value.
    pub fn converged_pass(&self) -> usize {
        let last = *self.sums.last().expect("a floor holds at least one pass") as f64;
        self.sums.iter().position(|&s| s as f64 <= last * 1.01).map_or(self.sums.len(), |i| i + 1)
    }

    /// How far the median pass's summed op times sit above Σ floor, in
    /// percent — what floor timing removed.
    pub fn pass_spread_pct(&self) -> f64 {
        let mut walls = self.walls.clone();
        walls.sort_unstable();
        let median = walls[walls.len() / 2] as f64;
        let floor = *self.sums.last().expect("a floor holds at least one pass") as f64;
        (median / floor - 1.0) * 100.0
    }

    /// Floor times of the ops of one class, in op order.
    pub fn of_class<'a>(
        &'a self,
        classes: &'a [Class],
        class: Class,
    ) -> impl Iterator<Item = u64> + 'a {
        self.ns.iter().zip(classes).filter(move |(_, &c)| c == class).map(|(&t, _)| t)
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` when fewer than
/// `min_beyond` samples lie strictly beyond the chosen rank — a tail
/// percentile that two or three samples decide is not a measurement (the
/// gated `wait_p95_us` asks for ten; ungated layer tails ask for none).
pub fn percentile(sorted: &[u64], q: f64, min_beyond: usize) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    if sorted.len() - rank < min_beyond {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Samples that must lie beyond a gated tail percentile.
pub const GATED_TAIL_SAMPLES: usize = 10;

/// The floor-derived end-to-end numbers of one run.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub ops_per_s: f64,
    pub wait_p50_us: f64,
    pub wait_p95_us: f64,
    pub bulk_p50_ms: f64,
}

impl EndToEnd {
    /// Pools the floors of a run's op lists, each given with its op classes
    /// and its items (activations applied plus queries answered) per pass:
    /// percentiles are taken over all lists' ops together, the rate is
    /// all items over all floor time.
    pub fn compute(lists: &[(&Floor, &[Class], usize)]) -> Self {
        let pooled = |class: Class| {
            let mut v: Vec<u64> =
                lists.iter().flat_map(|(f, classes, _)| f.of_class(classes, class)).collect();
            v.sort_unstable();
            v
        };
        let (wait, bulk) = (pooled(Class::Wait), pooled(Class::Bulk));
        let items: usize = lists.iter().map(|e| e.2).sum();
        let seconds: f64 = lists.iter().map(|e| e.0.total_seconds()).sum();
        let us = |ns: Option<u64>| ns.expect("enough samples") as f64 * 1e-3;
        Self {
            ops_per_s: items as f64 / seconds,
            wait_p50_us: us(percentile(&wait, 0.50, GATED_TAIL_SAMPLES)),
            wait_p95_us: us(percentile(&wait, 0.95, GATED_TAIL_SAMPLES)),
            bulk_p50_ms: us(percentile(&bulk, 0.50, 0)) * 1e-3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_takes_the_minimum_per_op() {
        let mut floor = Floor::new(7, &[10, 20, 30]);
        floor.fold(7, &[12, 5, 30]).unwrap();
        floor.fold(7, &[9, 50, 31]).unwrap();
        assert_eq!(floor.ns(), &[9, 5, 30]);
        assert_eq!(floor.passes(), 3);
        assert!((floor.total_seconds() - 44e-9).abs() < 1e-15);
    }

    #[test]
    fn fold_refuses_a_different_op_list() {
        let mut floor = Floor::new(7, &[10, 20, 30]);
        assert_eq!(floor.fold(8, &[1, 1, 1]), Err(FoldError::Fingerprint { floor: 7, pass: 8 }));
        assert_eq!(floor.fold(7, &[1, 1]), Err(FoldError::Length { floor: 3, pass: 2 }));
        // A refused pass leaves the floor untouched.
        assert_eq!(floor.ns(), &[10, 20, 30]);
        assert_eq!(floor.passes(), 1);
    }

    #[test]
    fn percentile_wants_samples_beyond_the_rank() {
        let sorted: Vec<u64> = (1..=200).collect();
        // p95 of 200 is rank 190: exactly ten samples beyond.
        assert_eq!(percentile(&sorted, 0.95, 10), Some(190));
        // p99 is rank 198: two beyond — refused when gated, fine ungated.
        assert_eq!(percentile(&sorted, 0.99, 10), None);
        assert_eq!(percentile(&sorted, 0.99, 0), Some(198));
        // One sample fewer and p95 no longer has its ten.
        assert_eq!(percentile(&sorted[..199], 0.95, 10), None);
        assert_eq!(percentile(&sorted, 0.50, 10), Some(100));
        assert_eq!(percentile(&[], 0.5, 0), None);
        assert_eq!(percentile(&[4], 0.5, 0), Some(4));
    }

    #[test]
    fn convergence_and_spread() {
        let mut floor = Floor::new(1, &[200, 200]);
        floor.fold(1, &[100, 100]).unwrap();
        floor.fold(1, &[100, 101]).unwrap();
        floor.fold(1, &[150, 150]).unwrap();
        // Σ floor: 400, 200, 200, 200 → converged at pass 2.
        assert_eq!(floor.converged_pass(), 2);
        // Pass walls 400, 200, 201, 300 → median (upper) 300 over floor 200.
        assert!((floor.pass_spread_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn end_to_end_uses_classes() {
        let bulk = |i: usize| i % 20 == 19;
        let classes: Vec<Class> =
            (0..400).map(|i| if bulk(i) { Class::Bulk } else { Class::Wait }).collect();
        let times: Vec<u64> = (0..400).map(|i| if bulk(i) { 2_000_000 } else { 1_000 }).collect();
        let floor = Floor::new(0, &times);
        let e = EndToEnd::compute(&[(&floor, &classes, 400)]);
        assert!((e.wait_p50_us - 1.0).abs() < 1e-12);
        assert!((e.wait_p95_us - 1.0).abs() < 1e-12);
        assert!((e.bulk_p50_ms - 2.0).abs() < 1e-12);
        let total = (380.0 * 1_000.0 + 20.0 * 2_000_000.0) * 1e-9;
        assert!((e.ops_per_s - 400.0 / total).abs() < 1e-6);

        // A second list three times as slow: the pooled median wait op
        // is the slowest of the fast half, the rate is items over all time.
        let slow: Vec<u64> = times.iter().map(|t| t * 3).collect();
        let slow = Floor::new(1, &slow);
        let pooled = EndToEnd::compute(&[(&floor, &classes, 400), (&slow, &classes, 400)]);
        assert!((pooled.wait_p50_us - 1.0).abs() < 1e-12);
        assert!((pooled.wait_p95_us - 3.0).abs() < 1e-12);
        assert!((pooled.ops_per_s - 800.0 / (4.0 * total)).abs() < 1e-6);
    }
}
