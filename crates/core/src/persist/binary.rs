//! Compact versioned binary snapshot format (DESIGN.md §11).
//!
//! Layout (all integers little-endian; varints are LEB128, signed values
//! zigzag-mapped):
//!
//! ```text
//! "ANCS"  magic (4 bytes)
//! u32     format version (currently 1)
//! u8      profile: 0 = Exact, 1 = Compact
//! body    (see below)
//! u32     CRC-32 (IEEE) over every preceding byte
//! ```
//!
//! Body, in order: config, decay-clock parts, delta-encoded CSR topology
//! ([`anc_graph::codec::encode_graph`]), anchored activeness per edge,
//! per-node activeness sums (Exact only), anchored similarity per edge,
//! running similarity sum (Exact only), index RNG seed, lifetime counters,
//! then the pyramids — per partition its whole state
//! `(seeds, seed_of, dist, parent)`:
//!
//! * seeds as zigzag deltas in stored (sampling) order;
//! * `seed_of` as a varint index into the partition's seed list (`0` =
//!   unreachable, else index + 1) — 1–3 bytes instead of a raw node id;
//! * `parent` as the zigzag delta `parent − v` (`0` = no parent; a parent
//!   is never the node itself, so the delta is never 0);
//! * `dist` as a tagged float array (see below).
//!
//! That is everything a [`crate::voronoi::VoronoiPartition`] holds, so a
//! restored engine evolves bit-identically to the live one by construction.
//!
//! ## Profiles and the exactness escape hatch
//!
//! [`SnapshotProfile::Exact`] stores every float as raw `f64` bits — a
//! restored engine is bit-identical to the saved one. This is the profile
//! the write-ahead log builds on ([`crate::persist::wal`]).
//!
//! [`SnapshotProfile::Compact`] quantizes the big per-edge/per-node float
//! arrays (activeness, similarity, per-partition distances) to `f32` and
//! recomputes the derived `node_sum`/`sim_sum` aggregates on load. The
//! engine's invariant tolerances are relative `1e-6`; `f32` rounding is
//! relative `~1.2e-7`, so a Compact restore still passes every invariant
//! check while roughly halving the file. Each array carries a one-byte
//! tag, and quantization falls back to raw `f64` for any array holding a
//! value `f32` cannot represent faithfully (overflow to ∞, or a nonzero
//! collapsing to zero/subnormal) — the escape hatch that keeps the format
//! exactness-preserving even for extreme anchored magnitudes near the
//! rescale exponent guard. Both profiles are *re-save idempotent*:
//! `save(load(bytes))` reproduces `bytes` exactly.

use anc_decay::{ActivenessStore, ClockParts, DecayClock, RescaleConfig};
use anc_graph::codec::{
    crc32, decode_graph, encode_graph, put_f32, put_f64, put_ivarint, put_u32, put_u64, put_u8,
    put_uvarint, Reader,
};
use anc_graph::{Graph, NodeId, NO_NODE};

use crate::engine::AncEngine;
use crate::pyramid::Pyramids;
use crate::voronoi::VoronoiPartition;
use crate::AncConfig;

use super::{le_u32, EngineSnapshot, RestoreError};

/// Magic bytes opening every binary snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"ANCS";

/// Binary snapshot format version.
pub const BINARY_VERSION: u32 = 1;

/// Float fidelity of a binary snapshot (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotProfile {
    /// Raw `f64` bits everywhere; restore is bit-identical. The WAL's base
    /// snapshots always use this profile.
    Exact,
    /// `f32`-quantized float arrays with a per-array raw-`f64` fallback;
    /// derived aggregates recomputed on load. Roughly half the size.
    Compact,
}

impl SnapshotProfile {
    fn to_byte(self) -> u8 {
        match self {
            SnapshotProfile::Exact => 0,
            SnapshotProfile::Compact => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, RestoreError> {
        match b {
            0 => Ok(SnapshotProfile::Exact),
            1 => Ok(SnapshotProfile::Compact),
            other => Err(RestoreError::Codec(format!("unknown snapshot profile {other}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Tagged float arrays (the quantization escape hatch)
// ---------------------------------------------------------------------------

const TAG_F64: u8 = 0;
const TAG_F32: u8 = 1;

/// Whether every value survives an `f64 → f32 → f64` round trip with full
/// relative precision: finite values must stay finite and normal (or zero),
/// infinities must stay infinite. NaN never appears in engine state, so it
/// conservatively forces the raw fallback.
fn f32_faithful(vals: &[f64]) -> bool {
    vals.iter().all(|&x| {
        if x.is_nan() {
            return false;
        }
        if x.is_infinite() {
            return true; // ±∞ narrows to ±∞
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the narrowing is the probe: it decides whether f32 is faithful"
        )]
        let y = x as f32;
        x == 0.0 || (y.is_finite() && y.abs() >= f32::MIN_POSITIVE)
    })
}

fn put_float_array(out: &mut Vec<u8>, vals: &[f64], profile: SnapshotProfile) {
    let quantize = profile == SnapshotProfile::Compact && f32_faithful(vals);
    if quantize {
        put_u8(out, TAG_F32);
        for &v in vals {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the tagged Compact profile: taken only when f32_faithful(vals)"
            )]
            put_f32(out, v as f32);
        }
    } else {
        put_u8(out, TAG_F64);
        for &v in vals {
            put_f64(out, v);
        }
    }
}

fn read_float_array(r: &mut Reader<'_>, len: usize) -> Result<Vec<f64>, RestoreError> {
    let mut vals = Vec::with_capacity(len);
    match r.u8()? {
        TAG_F64 => {
            for _ in 0..len {
                vals.push(r.f64()?);
            }
        }
        TAG_F32 => {
            for _ in 0..len {
                vals.push(r.f32()? as f64);
            }
        }
        other => return Err(RestoreError::Codec(format!("unknown float-array tag {other}"))),
    }
    Ok(vals)
}

// ---------------------------------------------------------------------------
// Config and clock
// ---------------------------------------------------------------------------

fn encode_config(out: &mut Vec<u8>, c: &AncConfig) {
    put_f64(out, c.lambda);
    put_f64(out, c.epsilon);
    put_uvarint(out, c.mu as u64);
    put_uvarint(out, c.k as u64);
    put_f64(out, c.theta);
    put_uvarint(out, c.rep as u64);
    put_f64(out, c.floor);
    put_f64(out, c.floor_rel);
    put_uvarint(out, c.rescale.every_activations as u64);
    put_f64(out, c.rescale.exponent_guard);
    // Two retired knobs — `parallel_updates` (0/1) and the batch mode
    // (0 = Exact, 1 = Fused): still written, as 0, so the format version and
    // every older reader stay valid.
    put_u8(out, 0);
    put_u8(out, 0);
}

fn decode_config(r: &mut Reader<'_>) -> Result<AncConfig, RestoreError> {
    let cfg = AncConfig {
        lambda: r.f64()?,
        epsilon: r.f64()?,
        mu: r.uvarint_len()?,
        k: r.uvarint_len()?,
        theta: r.f64()?,
        rep: r.uvarint_len()?,
        floor: r.f64()?,
        floor_rel: r.f64()?,
        rescale: RescaleConfig { every_activations: r.uvarint_len()?, exponent_guard: r.f64()? },
    };
    // The retired knobs' bytes: either value an older build wrote loads (no
    // state depended on `parallel_updates`; a log written under Fused now
    // replays under the sequential semantics) and is discarded.
    for knob in ["parallel_updates", "batch mode"] {
        match r.u8()? {
            0 | 1 => {}
            other => return Err(RestoreError::Codec(format!("unknown {knob} {other}"))),
        }
    }
    // Mirror `AncConfig::validate` without its panics: the CRC has already
    // passed by the time state is adopted, but a version-skewed or
    // hand-edited file must surface a typed error, not an assert.
    let ok = cfg.lambda >= 0.0
        && cfg.lambda.is_finite()
        && (0.0..=1.0).contains(&cfg.epsilon)
        && cfg.mu >= 1
        && cfg.k >= 1
        && (0.0..=1.0).contains(&cfg.theta)
        && cfg.floor > 0.0
        && cfg.floor_rel > 0.0
        && cfg.floor_rel < 1.0;
    if !ok {
        return Err(RestoreError::Inconsistent(format!("config out of range: {cfg:?}")));
    }
    Ok(cfg)
}

fn encode_clock(out: &mut Vec<u8>, clock: &DecayClock) {
    let p = clock.to_parts();
    put_f64(out, p.lambda);
    put_f64(out, p.now);
    put_f64(out, p.anchor);
    put_uvarint(out, p.cfg.every_activations as u64);
    put_f64(out, p.cfg.exponent_guard);
    put_uvarint(out, p.activations_since_rescale as u64);
}

fn decode_clock(r: &mut Reader<'_>) -> Result<DecayClock, RestoreError> {
    let parts = ClockParts {
        lambda: r.f64()?,
        now: r.f64()?,
        anchor: r.f64()?,
        cfg: RescaleConfig { every_activations: r.uvarint_len()?, exponent_guard: r.f64()? },
        activations_since_rescale: r.uvarint_len()?,
    };
    if !(parts.lambda >= 0.0 && parts.lambda.is_finite()) {
        return Err(RestoreError::Inconsistent(format!("clock lambda {} invalid", parts.lambda)));
    }
    Ok(DecayClock::from_parts(parts))
}

// ---------------------------------------------------------------------------
// Pyramids
// ---------------------------------------------------------------------------

fn encode_pyramids(out: &mut Vec<u8>, pyr: &Pyramids, profile: SnapshotProfile) {
    let (partitions, k, levels, needed_votes, n) = pyr.persist_parts();
    put_uvarint(out, k as u64);
    put_uvarint(out, levels as u64);
    put_uvarint(out, needed_votes as u64);
    put_uvarint(out, n as u64);
    // Scratch map node id → index in the current partition's seed list;
    // only the touched entries are reset between partitions.
    let mut seed_index: Vec<u32> = Vec::with_capacity(n);
    seed_index.resize(n, u32::MAX);
    for part in partitions {
        let (seeds, seed_of, dist, parent) = part.persist_parts();
        put_uvarint(out, seeds.len() as u64);
        let mut prev: i64 = 0;
        for &s in seeds {
            put_ivarint(out, s as i64 - prev);
            prev = s as i64;
        }
        for (i, &s) in (0u32..).zip(seeds) {
            seed_index[s as usize] = i;
        }
        for &sv in seed_of {
            if sv == NO_NODE {
                put_uvarint(out, 0);
            } else {
                put_uvarint(out, seed_index[sv as usize] as u64 + 1);
            }
        }
        for &s in seeds {
            seed_index[s as usize] = u32::MAX;
        }
        for (v, &p) in parent.iter().enumerate() {
            if p == NO_NODE {
                put_uvarint(out, 0);
            } else {
                // parent ≠ v, so the zigzag varint is never the 0 sentinel.
                put_ivarint(out, p as i64 - v as i64);
            }
        }
        put_float_array(out, dist, profile);
    }
}

/// `base + delta` as a node id below `n`. Both operands can come from the
/// file, so the sum is checked and the id converted, never wrapped or cast.
fn node_at(base: i64, delta: i64, n: usize) -> Option<NodeId> {
    let v = NodeId::try_from(base.checked_add(delta)?).ok()?;
    ((v as usize) < n).then_some(v)
}

fn decode_pyramids(r: &mut Reader<'_>, g: &Graph) -> Result<Pyramids, RestoreError> {
    let k = r.uvarint_len()?;
    let levels = r.uvarint_len()?;
    let needed_votes = r.uvarint_len()?;
    let n = r.uvarint_len()?;
    if n != g.n() {
        return Err(RestoreError::Inconsistent(format!(
            "pyramids built for {n} nodes, graph has {}",
            g.n()
        )));
    }
    let total = k.checked_mul(levels).ok_or_else(|| {
        RestoreError::Inconsistent(format!("k = {k} × levels = {levels} overflows"))
    })?;
    let mut partitions = Vec::with_capacity(total);
    for _ in 0..total {
        let seed_count = r.uvarint_len()?;
        if seed_count > n {
            return Err(RestoreError::Inconsistent(format!(
                "partition has {seed_count} seeds for {n} nodes"
            )));
        }
        let mut seeds = Vec::with_capacity(seed_count);
        let mut prev: i64 = 0;
        for i in 0..seed_count {
            let s = node_at(prev, r.ivarint()?, n).ok_or_else(|| {
                RestoreError::Inconsistent(format!("seed {i} out of range for {n} nodes"))
            })?;
            seeds.push(s);
            prev = i64::from(s);
        }
        let mut seed_of = Vec::with_capacity(n);
        for v in 0..n {
            let z = r.uvarint()?;
            if z == 0 {
                seed_of.push(NO_NODE);
            } else {
                let idx = z - 1;
                let seed =
                    usize::try_from(idx).ok().and_then(|i| seeds.get(i)).ok_or_else(|| {
                        RestoreError::Inconsistent(format!(
                            "node {v}: seed index {idx} out of range for {seed_count} seeds"
                        ))
                    })?;
                seed_of.push(*seed);
            }
        }
        let mut parent = Vec::with_capacity(n);
        for v in 0..n {
            let d = r.ivarint()?;
            if d == 0 {
                parent.push(NO_NODE);
            } else {
                parent.push(node_at(v as i64, d, n).ok_or_else(|| {
                    RestoreError::Inconsistent(format!("node {v}: parent out of range"))
                })?);
            }
        }
        let dist = read_float_array(r, n)?;
        partitions.push(VoronoiPartition::from_persist_parts(seeds, seed_of, dist, parent));
    }
    Ok(Pyramids::from_persist_parts(partitions, k, levels, needed_votes, n))
}

// ---------------------------------------------------------------------------
// Whole-snapshot encode/decode
// ---------------------------------------------------------------------------

/// Encodes the complete engine state into the binary snapshot format — the
/// mirror of [`decode_snapshot`].
pub(crate) fn encode_snapshot(s: &EngineSnapshot, profile: SnapshotProfile) -> Vec<u8> {
    let (n, m) = (s.graph.n(), s.graph.m());
    // Rough pre-size: topology + two per-edge arrays + pyramids.
    let mut out = Vec::with_capacity(64 + 12 * m + 16 * n);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u32(&mut out, BINARY_VERSION);
    put_u8(&mut out, profile.to_byte());
    encode_config(&mut out, &s.config);
    encode_clock(&mut out, &s.clock);
    encode_graph(&s.graph, &mut out);
    put_float_array(&mut out, s.activeness.as_slice(), profile);
    if profile == SnapshotProfile::Exact {
        // Compact recomputes these aggregates on load instead.
        for &v in &s.node_sum {
            put_f64(&mut out, v);
        }
    }
    put_float_array(&mut out, &s.sim, profile);
    if profile == SnapshotProfile::Exact {
        put_f64(&mut out, s.sim_sum);
    }
    put_u64(&mut out, s.index_seed);
    put_uvarint(&mut out, s.activations);
    put_uvarint(&mut out, s.rescales);
    encode_pyramids(&mut out, &s.pyramids, profile);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// The unit tests' state digest: the whole persisted state as Exact bytes
/// (raw `f64` bits), so equal bytes mean bit-identical engines.
#[cfg(test)]
pub(crate) fn exact_bytes(engine: &AncEngine) -> Vec<u8> {
    encode_snapshot(engine.state(), SnapshotProfile::Exact)
}

/// Decodes a binary snapshot into an [`EngineSnapshot`], verifying the
/// magic, version and CRC-32 trailer first.
pub fn decode_snapshot(bytes: &[u8]) -> Result<EngineSnapshot, RestoreError> {
    if bytes.len() < SNAPSHOT_MAGIC.len() {
        return Err(RestoreError::Truncated { offset: bytes.len() });
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(RestoreError::BadMagic);
    }
    if bytes.len() < 13 {
        // magic + version + profile + trailing crc
        return Err(RestoreError::Truncated { offset: bytes.len() });
    }
    let body_end = bytes.len() - 4;
    let expected = le_u32(&bytes[body_end..]);
    let found = crc32(&bytes[..body_end]);
    if expected != found {
        return Err(RestoreError::ChecksumMismatch { expected, found });
    }
    let mut r = Reader::new(&bytes[4..body_end]);
    let version = r.u32()?;
    if version != BINARY_VERSION {
        return Err(RestoreError::UnsupportedVersion(version));
    }
    let profile = SnapshotProfile::from_byte(r.u8()?)?;
    let config = decode_config(&mut r)?;
    let clock = decode_clock(&mut r)?;
    let graph = decode_graph(&mut r).map_err(RestoreError::from)?;
    let (n, m) = (graph.n(), graph.m());
    #[expect(clippy::cast_possible_truncation, reason = "decode_graph refuses n > NodeId::MAX")]
    let node_end = n as NodeId;
    let activeness = read_float_array(&mut r, m)?;
    let node_sum = match profile {
        SnapshotProfile::Exact => {
            let mut sums = Vec::with_capacity(n);
            for _ in 0..n {
                sums.push(r.f64()?);
            }
            sums
        }
        // Recomputed in the exact order `invariant::check_activeness` sums
        // incident edges, so the restored aggregate matches the checker
        // bit for bit.
        SnapshotProfile::Compact => (0..node_end)
            .map(|v| graph.neighbor_edge_ids(v).iter().map(|&e| activeness[e as usize]).sum())
            .collect(),
    };
    let sim = read_float_array(&mut r, m)?;
    let sim_sum = match profile {
        SnapshotProfile::Exact => r.f64()?,
        SnapshotProfile::Compact => sim.iter().sum(),
    };
    let index_seed = r.u64()?;
    let activations = r.uvarint()?;
    let rescales = r.uvarint()?;
    let pyramids = decode_pyramids(&mut r, &graph)?;
    if !r.is_empty() {
        return Err(RestoreError::Codec(format!(
            "{} trailing bytes after snapshot",
            r.remaining()
        )));
    }
    Ok(EngineSnapshot {
        graph,
        config,
        clock,
        activeness: ActivenessStore::from_anchored(activeness),
        node_sum,
        sim,
        pyramids,
        index_seed,
        sim_sum,
        activations,
        rescales,
    })
}

impl AncEngine {
    /// Serializes the engine into the compact binary snapshot format
    /// (DESIGN.md §11). [`SnapshotProfile::Exact`] restores bit-identically;
    /// [`SnapshotProfile::Compact`] quantizes the float arrays to `f32`
    /// (with a per-array exactness fallback) for roughly half the bytes.
    pub fn save_binary<W: std::io::Write>(
        &self,
        mut writer: W,
        profile: SnapshotProfile,
    ) -> Result<(), RestoreError> {
        let bytes = encode_snapshot(self.state(), profile);
        writer.write_all(&bytes)?;
        Ok(())
    }

    /// Restores an engine from a binary snapshot produced by
    /// [`AncEngine::save_binary`] (either profile; the profile byte in the
    /// header is self-describing). Verifies the CRC-32 trailer, decodes with
    /// range checks, then runs [`EngineSnapshot::validate`].
    pub fn load_binary<R: std::io::Read>(mut reader: R) -> Result<Self, RestoreError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Self::from_snapshot(decode_snapshot(&bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterMode, InvariantViolation};
    use anc_graph::gen::connected_caveman;

    fn streamed_engine() -> AncEngine {
        let lg = connected_caveman(3, 5);
        let cfg = AncConfig { rep: 1, k: 2, ..Default::default() };
        let mut engine = AncEngine::new(lg.graph, cfg, 9);
        let m = engine.graph().m() as u32;
        for i in 0..60u32 {
            engine.activate((i * 7 + 2) % m, i as f64 * 0.4);
        }
        engine
    }

    fn save(engine: &AncEngine, profile: SnapshotProfile) -> Vec<u8> {
        let mut buf = Vec::new();
        engine.save_binary(&mut buf, profile).unwrap();
        buf
    }

    fn load_err(bytes: &[u8]) -> RestoreError {
        match AncEngine::load_binary(bytes) {
            Ok(_) => panic!("expected load_binary to fail"),
            Err(e) => e,
        }
    }

    /// Overwrites the CRC-32 trailer to match the (patched) body, so a test
    /// reaches the check behind the checksum.
    fn restamp_crc(bytes: &mut [u8]) {
        let end = bytes.len() - 4;
        let crc = crc32(&bytes[..end]);
        bytes[end..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn exact_roundtrip_is_bit_identical() {
        let engine = streamed_engine();
        let bytes = save(&engine, SnapshotProfile::Exact);
        let restored = AncEngine::load_binary(bytes.as_slice()).unwrap();
        // Bit-identical state: the re-save reproduces every byte…
        assert_eq!(bytes, save(&restored, SnapshotProfile::Exact), "Exact restore diverged");
        // …so everything observable agrees.
        assert_eq!(restored.now(), engine.now());
        assert_eq!(restored.activations(), engine.activations());
        for e in 0..engine.graph().m() as u32 {
            assert_eq!(restored.similarity(e), engine.similarity(e));
            assert_eq!(restored.activeness(e), engine.activeness(e));
        }
        for level in 0..engine.num_levels() {
            assert_eq!(
                restored.cluster_all(level, ClusterMode::Power),
                engine.cluster_all(level, ClusterMode::Power),
                "clustering differs at level {level}"
            );
        }
        restored.check_invariants().unwrap();

        // Snapshots written while the config still carried its two retired
        // knobs — `parallel_updates` set, or the second batch mode — load to
        // the same state; a byte no build ever wrote is still refused.
        let mut config = Vec::new();
        encode_config(&mut config, engine.config());
        let knobs_at = 4 + 4 + 1 + config.len() - 2;
        for (at, byte) in [(knobs_at, 1u8), (knobs_at + 1, 1), (knobs_at, 2), (knobs_at + 1, 2)] {
            let mut old = bytes.clone();
            old[at] = byte;
            restamp_crc(&mut old);
            match AncEngine::load_binary(old.as_slice()) {
                Ok(legacy) if byte == 1 => {
                    assert_eq!(bytes, save(&legacy, SnapshotProfile::Exact));
                }
                Err(RestoreError::Codec(msg)) if byte == 2 => {
                    assert!(msg.contains("unknown"), "{msg}");
                }
                other => panic!("byte {byte} at {at}: unexpected {:?}", other.err()),
            }
        }
    }

    /// A CRC-valid snapshot whose pyramid header disagrees with the graph or
    /// the config must not load: every rewrite below keeps `k · levels = 8`
    /// partitions on the wire, so only the shape check can refuse it.
    #[test]
    fn forged_index_shape_rejected() {
        let engine = streamed_engine();
        let bytes = save(&engine, SnapshotProfile::Exact);
        let mut pyramids = Vec::new();
        encode_pyramids(&mut pyramids, engine.pyramids(), SnapshotProfile::Exact);
        let header_at = bytes.len() - 4 - pyramids.len();
        assert_eq!(bytes[header_at..header_at + 4], [2, 4, 2, 15], "k, levels, votes, n");
        for (k, levels, votes) in [(4u8, 2u8, 2u8), (1, 8, 2), (8, 1, 2), (2, 4, 9)] {
            let mut forged = bytes.clone();
            forged[header_at..header_at + 3].copy_from_slice(&[k, levels, votes]);
            restamp_crc(&mut forged);
            let err = load_err(&forged);
            assert!(
                matches!(err, RestoreError::Invariant(InvariantViolation::IndexShape(_))),
                "k={k} levels={levels} votes={votes}: {err}"
            );
        }
        // In range, but not the ⌈θk⌉ the config implies.
        let mut forged = bytes.clone();
        forged[header_at + 2] = 1;
        restamp_crc(&mut forged);
        let err = load_err(&forged);
        assert!(matches!(err, RestoreError::Inconsistent(_)), "{err}");
    }

    /// Seed and parent ids are stored as deltas; a delta that overflows the
    /// running sum or lands outside the node range is refused with a typed
    /// error (the sums used to be unchecked `i64` adds: a debug-build panic).
    #[test]
    fn forged_pyramid_deltas_rejected() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        // k, levels, needed_votes, n, then one partition's seed count.
        let header = |out: &mut Vec<u8>, seeds: u64| {
            for v in [1, 1, 1, 3, seeds] {
                put_uvarint(out, v);
            }
        };
        let refused = |bytes: &[u8], what: &str| match decode_pyramids(&mut Reader::new(bytes), &g)
        {
            Err(RestoreError::Inconsistent(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("{what}: expected Inconsistent, got {:?}", other.err()),
        };

        // Second seed = 1 + i64::MAX.
        let mut bytes = Vec::new();
        header(&mut bytes, 2);
        put_ivarint(&mut bytes, 1);
        put_ivarint(&mut bytes, i64::MAX);
        refused(&bytes, "seed 1 out of range");

        // One seed (node 0) owning every node; node 1's parent = 1 + i64::MAX.
        let mut bytes = Vec::new();
        header(&mut bytes, 1);
        put_ivarint(&mut bytes, 0);
        for _ in 0..3 {
            put_uvarint(&mut bytes, 1);
        }
        put_uvarint(&mut bytes, 0);
        put_ivarint(&mut bytes, i64::MAX);
        refused(&bytes, "node 1: parent out of range");

        // A seed index past the seed list (and past `usize` on 32-bit hosts).
        let mut bytes = Vec::new();
        header(&mut bytes, 1);
        put_ivarint(&mut bytes, 0);
        put_uvarint(&mut bytes, u64::MAX);
        refused(&bytes, "node 0: seed index");
    }

    #[test]
    fn exact_restore_evolves_bit_identically() {
        let engine = streamed_engine();
        let bytes = save(&engine, SnapshotProfile::Exact);
        let mut live = engine;
        let mut restored = AncEngine::load_binary(bytes.as_slice()).unwrap();
        let m = live.graph().m() as u32;
        for i in 0..30u32 {
            let (e, t) = ((i * 3 + 1) % m, 30.0 + i as f64);
            live.activate(e, t);
            restored.activate(e, t);
        }
        for e in 0..m {
            assert_eq!(live.similarity(e).to_bits(), restored.similarity(e).to_bits());
        }
        let level = live.default_level();
        assert_eq!(
            live.cluster_all(level, ClusterMode::Power),
            restored.cluster_all(level, ClusterMode::Power)
        );
        restored.check_invariants().unwrap();
    }

    #[test]
    fn compact_roundtrip_passes_invariants_and_is_idempotent() {
        let engine = streamed_engine();
        let bytes = save(&engine, SnapshotProfile::Compact);
        let exact = save(&engine, SnapshotProfile::Exact);
        assert!(bytes.len() < exact.len(), "Compact must shrink the snapshot");
        let restored = AncEngine::load_binary(bytes.as_slice()).unwrap();
        restored.check_invariants().unwrap();
        // Quantization is idempotent: re-saving the restored engine
        // reproduces the file byte for byte.
        assert_eq!(bytes, save(&restored, SnapshotProfile::Compact));
        // Quantized similarities stay within f32 relative error.
        for e in 0..engine.graph().m() as u32 {
            let (a, b) = (engine.similarity(e), restored.similarity(e));
            assert!((a - b).abs() <= 1e-6 * a.abs(), "edge {e}: {a} vs {b}");
        }
        // Cluster structure survives quantization on this stream.
        let level = engine.default_level();
        assert_eq!(
            engine.cluster_all(level, ClusterMode::Power),
            restored.cluster_all(level, ClusterMode::Power)
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let err = load_err(b"NOPE-not-a-snapshot");
        assert!(matches!(err, RestoreError::BadMagic), "{err}");
        let err = load_err(b"AN");
        assert!(matches!(err, RestoreError::Truncated { .. }), "{err}");
    }

    #[test]
    fn corruption_detected_by_crc() {
        let engine = streamed_engine();
        let mut bytes = save(&engine, SnapshotProfile::Exact);
        // Flip one bit somewhere in the body.
        let at = bytes.len() / 2;
        bytes[at] ^= 0x40;
        let err = load_err(&bytes);
        assert!(matches!(err, RestoreError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn truncation_detected() {
        let engine = streamed_engine();
        let bytes = save(&engine, SnapshotProfile::Exact);
        // A truncated body either fails the CRC (trailer now misaligned) —
        // never panics, never yields a half-restored engine.
        for cut in [5, 13, bytes.len() / 3, bytes.len() - 1] {
            let err = load_err(&bytes[..cut]);
            assert!(
                matches!(
                    err,
                    RestoreError::Truncated { .. } | RestoreError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn unsupported_version_rejected() {
        let engine = streamed_engine();
        let mut bytes = save(&engine, SnapshotProfile::Exact);
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        restamp_crc(&mut bytes);
        let err = load_err(&bytes);
        assert!(matches!(err, RestoreError::UnsupportedVersion(99)), "{err}");
    }

    #[test]
    fn infinity_distances_survive_compact() {
        // A disconnected pair leaves unreachable nodes with dist = ∞ and
        // seed NO_NODE — the Compact narrowing must preserve them.
        let g = anc_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let engine = AncEngine::new(g, AncConfig { k: 2, rep: 1, ..Default::default() }, 3);
        let bytes = save(&engine, SnapshotProfile::Compact);
        let restored = AncEngine::load_binary(bytes.as_slice()).unwrap();
        restored.check_invariants().unwrap();
        assert!(restored.pyramids().approx_distance(0, 2).is_infinite());
    }
}
