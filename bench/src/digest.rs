//! State digests: one 64-bit value over everything a snapshot would
//! persist, read through public accessors only. Two engines with equal
//! digests hold bit-identical activeness, similarity and index.

use anc_core::{AncEngine, Pyramids};
use anc_decay::{ActivenessStore, DecayClock};

/// A word-at-a-time mixing hash (multiply-rotate); not cryptographic, it
/// only has to make an accidental collision between two different engine
/// states implausible.
#[derive(Clone, Copy, Debug)]
pub struct Hasher64(u64);

impl Default for Hasher64 {
    fn default() -> Self {
        Self(0x243F_6A88_85A3_08D3)
    }
}

impl Hasher64 {
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(23) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    pub fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        z ^ (z >> 29)
    }
}

/// Hash of a label or member vector.
pub fn hash_u32s(values: &[u32]) -> u64 {
    let mut h = Hasher64::default();
    h.word(values.len() as u64);
    for &v in values {
        h.word(u64::from(v));
    }
    h.finish()
}

/// Digest of decomposed engine state (what the layer twin holds).
pub fn parts_digest(
    n: usize,
    activations: u64,
    clock: &DecayClock,
    act: &ActivenessStore,
    sim: &[f64],
    pyramids: &Pyramids,
) -> u64 {
    let mut h = Hasher64::default();
    h.word(activations);
    h.word(clock.now().to_bits());
    for e in 0..sim.len() as u32 {
        h.word(act.current(e, clock).to_bits());
    }
    finish_digest(h, n, sim, pyramids)
}

/// Digest of a live engine; equals [`parts_digest`] of the same state.
pub fn engine_digest(engine: &AncEngine) -> u64 {
    let mut h = Hasher64::default();
    h.word(engine.activations());
    h.word(engine.now().to_bits());
    let sim = engine.sim_anchored();
    for e in 0..sim.len() as u32 {
        h.word(engine.activeness(e).to_bits());
    }
    finish_digest(h, engine.graph().n(), sim, engine.pyramids())
}

fn finish_digest(mut h: Hasher64, n: usize, sim: &[f64], pyramids: &Pyramids) -> u64 {
    for s in sim {
        h.word(s.to_bits());
    }
    for p in 0..pyramids.k() {
        for l in 0..pyramids.num_levels() {
            let part = pyramids.partition(p, l);
            for v in 0..n as u32 {
                h.word(part.dist(v).to_bits());
                h.word(u64::from(part.seed_of(v)) << 32 | u64::from(part.parent(v)));
            }
        }
    }
    h.finish()
}
