//! Hand-rolled log-bucketed latency histogram.
//!
//! The serving layer and the closed-loop load generator both need cheap
//! quantile estimates (p50/p99/p999) over millions of latency samples
//! without keeping the samples. [`LatencyHistogram`] buckets a `u64`
//! sample (nanoseconds by convention) logarithmically: values `0..8` get
//! exact buckets, and every power-of-two octave above that is split into
//! four sub-buckets, so the reported quantile is within ~12.5% of the true
//! value at any magnitude. Recording is a handful of integer ops plus one
//! array increment — no allocation, no locks.

/// Number of buckets: 8 exact values plus 4 sub-buckets for each of the
/// 61 octaves `[2^3, 2^4) .. [2^63, 2^64)`.
pub const BUCKETS: usize = 8 + 61 * 4;

/// A fixed-size log-bucketed histogram of `u64` samples.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self { counts: Box::new([0; BUCKETS]), total: 0, sum: 0, max: 0 }
    }
}

/// Bucket index of sample `v`: exact below 8, then
/// `8 + 4·(octave-3) + sub` where `sub` is the top two mantissa bits.
fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let k = 63 - v.leading_zeros() as usize; // 3..=63
        let sub = ((v >> (k - 2)) & 3) as usize;
        8 + (k - 3) * 4 + sub
    }
}

/// Smallest sample that lands in bucket `i` (the value a quantile reports).
fn bucket_lower(i: usize) -> u64 {
    if i < 8 {
        i as u64
    } else {
        let k = 3 + (i - 8) / 4;
        let sub = ((i - 8) % 4) as u64;
        (1u64 << k) + (sub << (k - 2))
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as the lower bound of the bucket
    /// holding the rank-`⌈q·total⌉` sample, clamped to the exact max.
    /// Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_lower(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_u64_and_bounds_are_tight() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Lower bound round-trips: every bucket's lower bound indexes back
        // to itself, and indices are monotone in the sample value.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i, "bucket {i}");
        }
        let mut prev = 0;
        for v in [1u64, 9, 100, 1_000, 65_536, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= prev, "index regressed at {v}");
            assert!(bucket_lower(i) <= v, "lower bound exceeds sample {v}");
            prev = i;
        }
    }

    #[test]
    fn quantiles_are_within_bucket_resolution() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max(), 10_000);
        let p50 = h.quantile(0.5);
        // Log-bucketing with 4 sub-buckets/octave: reported lower bound is
        // within 25% below the true quantile.
        assert!((3_750..=5_000).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((7_424..=9_900).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(1.0) <= 10_000);
        assert!(h.quantile(0.0) >= 1);
        let mean = h.mean();
        assert!((mean - 5_000.5).abs() < 1e-9, "mean = {mean}");
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
