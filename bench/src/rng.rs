//! The benchmark's own generator (SplitMix64), so that an op list depends
//! on `--seed` and on nothing else — not on the vendored `rand`, whose
//! stream the measured crates are free to change.

/// SplitMix64 (Steele, Lea, Flood 2014).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for a named purpose under the same run seed.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut s = Self(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the multiply-shift bias is below
    /// `n / 2^64` and irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// True with probability `percent / 100`.
    pub fn percent(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::stream(1, 7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::stream(1, 7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::stream(2, 7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = SplitMix64::stream(3, 0);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }
}
