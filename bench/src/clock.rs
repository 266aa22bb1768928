//! The core clock, read from a dependent arithmetic chain, and times
//! restated at a reference clock.
//!
//! The host this was built on moves its cores between 100 MHz turbo bins —
//! 3.3 to 3.7 GHz within one half-minute on a quiet afternoon, lower for
//! minutes when its other tenants are busy — and every cache-resident op of
//! the program moves with the clock, bin for bin. A chain of dependent
//! single-cycle instructions takes the same number of cycles whatever else
//! happens, so timing one reads the clock, and a time multiplied by the clock
//! it was taken at is a cycle count. Every op time and every set-up time the
//! benchmark reports is such a count, restated as time at [`REF_GHZ`].

use std::hint::black_box;
use std::time::Instant;

/// The clock reported times are restated at.
pub const REF_GHZ: f64 = 3.0;
/// Steps of one chain: about 14 µs, long enough that the timer's own
/// granularity is a tenth of a percent, short enough to be read every
/// millisecond.
const STEPS: u32 = 8192;
/// One xorshift step is three shift–xor pairs, each instruction waiting for
/// the one before it.
const CYCLES_PER_STEP: f64 = 6.0;
/// Timed ops are scaled in groups of about this long, a reading at each end.
/// The clock holds a bin for a tenth of a second or longer.
const GROUP_NS: u128 = 1_000_000;

#[inline(never)]
fn chain(steps: u32) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// One reading of the core clock in GHz: the faster of two chains, so that
/// an interrupt landing in one of them does not read as a slow clock.
pub fn read_ghz() -> f64 {
    let one = || {
        let start = Instant::now();
        black_box(chain(black_box(STEPS)));
        let ns = start.elapsed().as_nanos().max(1) as f64;
        f64::from(STEPS) * CYCLES_PER_STEP / ns
    };
    one().max(one())
}

/// A stopwatch between two readings: restates the wall time it measured at
/// [`REF_GHZ`] using their mean. For set-ups, which are summarised by a
/// median: a clock change inside one is split down the middle rather than
/// rounded either way.
pub struct RefStopwatch {
    ghz_at_start: f64,
    started: Instant,
}

impl RefStopwatch {
    pub fn start() -> Self {
        let ghz_at_start = read_ghz();
        Self { ghz_at_start, started: Instant::now() }
    }

    /// Seconds since [`RefStopwatch::start`], at the reference clock.
    pub fn stop(&self) -> f64 {
        let seconds = self.started.elapsed().as_secs_f64();
        seconds * (self.ghz_at_start + read_ghz()) / 2.0 / REF_GHZ
    }
}

/// Collects raw op times and restates them at [`REF_GHZ`] group by group.
///
/// A group is scaled by the *faster* of the readings at its two ends. If the
/// clock changed inside the group, the ops that ran at the slower clock are
/// then over-stated, never under-stated, and a floor (the per-op minimum over
/// passes) forgets an over-statement as soon as another pass saw the op
/// between two equal readings.
pub struct GroupedTimes {
    ns: Vec<u64>,
    /// First time not yet restated.
    settled: usize,
    ghz_at_open: f64,
    opened: Instant,
    readings: Vec<f64>,
}

impl GroupedTimes {
    pub fn with_capacity(ops: usize) -> Self {
        let ghz = read_ghz();
        Self {
            ns: Vec::with_capacity(ops),
            settled: 0,
            ghz_at_open: ghz,
            opened: Instant::now(),
            readings: vec![ghz],
        }
    }

    /// To be called before an op is timed: closes the open group if it has
    /// run its length, so that a long op sits between two fresh readings.
    pub fn before_op(&mut self) {
        if self.opened.elapsed().as_nanos() >= GROUP_NS {
            self.settle();
        }
    }

    /// Records one op's raw wall time.
    pub fn push(&mut self, raw_ns: u64) {
        self.ns.push(raw_ns);
    }

    fn settle(&mut self) {
        let ghz = read_ghz();
        let scale = self.ghz_at_open.max(ghz) / REF_GHZ;
        for t in &mut self.ns[self.settled..] {
            *t = restate(*t, scale);
        }
        self.settled = self.ns.len();
        self.ghz_at_open = ghz;
        self.readings.push(ghz);
        self.opened = Instant::now();
    }

    /// Closes the last group; returns the restated times in op order and the
    /// median clock reading of the pass.
    pub fn finish(&mut self) -> (Vec<u64>, f64) {
        self.settle();
        self.settled = 0;
        let mut readings = std::mem::take(&mut self.readings);
        readings.sort_by(f64::total_cmp);
        (std::mem::take(&mut self.ns), readings[readings.len() / 2])
    }
}

fn restate(raw_ns: u64, scale: f64) -> u64 {
    (raw_ns as f64 * scale).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_is_a_plausible_clock() {
        let ghz = read_ghz();
        assert!(ghz > 0.2 && ghz < 12.0, "{ghz} GHz");
    }

    #[test]
    fn times_are_restated_by_the_faster_reading() {
        assert_eq!(restate(1000, 3.6 / REF_GHZ), 1200);
        let mut g = GroupedTimes::with_capacity(2);
        g.ghz_at_open = 2.0 * REF_GHZ;
        g.push(500);
        g.push(7);
        let (times, _) = g.finish();
        // Whatever the closing reading was, the opening one was faster.
        assert!(times[0] >= 1000 && times[1] >= 14, "{times:?}");
        assert_eq!(times.len(), 2);
    }

    #[test]
    fn a_set_up_is_restated_by_the_mean_reading() {
        let watch = RefStopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let seconds = watch.stop();
        assert!(seconds > 0.0002 && seconds < 2.0, "{seconds}");
    }
}
