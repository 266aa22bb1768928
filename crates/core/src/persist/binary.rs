//! Versioned binary snapshot format (DESIGN.md §11).
//!
//! Layout (all integers little-endian; varints are LEB128):
//!
//! ```text
//! "ANCS"  magic (4 bytes)
//! u32     format version (currently 5; 1 to 4 are refused)
//! body    (see below)
//! u32     CRC-32 (IEEE) over every preceding byte
//! ```
//!
//! Body, in order: config, decay-clock state (`now` and the anchor; its λ
//! and rescale guard are the config's),
//! delta-encoded CSR topology ([`anc_graph::codec::encode_graph`]), anchored
//! activeness per edge, per-node activeness sums, stored similarity per
//! edge, running similarity sum, the similarity scale's exponent (`i64`),
//! index RNG seed, lifetime counters.
//!
//! The pyramids are not stored. The index is a function of the weights
//! `1/S` and the seeds its RNG seed samples: the repairs keep the build's
//! tie rule ([`crate::voronoi`]), so the live index always equals a fresh
//! build. [`decode_snapshot`] checks the decoded state, then rebuilds the
//! clock and the index from it ([`Pyramids::build`]), and the restored
//! engine evolves bit-identically to the live one.
//!
//! Every float is stored as raw `f64` bits, and each float array is its
//! values back to back: a restored engine is bit-identical to the saved
//! one, `save(load(bytes))` reproduces `bytes` exactly, and the write-ahead
//! log builds on that ([`crate::persist::wal`]).

use anc_decay::{ActivenessStore, ClockParts, DecayClock, RescaleConfig};
use anc_graph::codec::{
    decode_graph, encode_graph, put_f64, put_u32, put_u64, put_uvarint, Reader,
};

use crate::engine::AncEngine;
use crate::pyramid::Pyramids;
use crate::AncConfig;

use super::{check_state, le_u64, seal, unseal, EngineSnapshot, RestoreError};

/// Magic bytes opening every binary snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"ANCS";

/// Binary snapshot format version.
pub const BINARY_VERSION: u32 = 5;

/// Float fidelity of a binary snapshot: raw `f64` bits everywhere, so a
/// restore is bit-identical. It is the only profile, and the file does not
/// record it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotProfile {
    /// Raw `f64` bits everywhere; restore is bit-identical.
    Exact,
}

/// `vals` as raw little-endian `f64` bits, back to back.
fn put_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    out.reserve(8 * vals.len());
    out.extend(vals.iter().flat_map(|v| v.to_bits().to_le_bytes()));
}

/// `len` raw `f64`s written by [`put_f64s`], read in one pass.
fn read_f64s(r: &mut Reader<'_>, len: usize) -> Result<Vec<f64>, RestoreError> {
    let bytes = r.bytes(len.saturating_mul(8))?;
    Ok(bytes.chunks_exact(8).map(|b| f64::from_bits(le_u64(b))).collect())
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
    put_f64(out, c.rescale.exponent_guard);
}

/// The config as stored; its ranges are checked with the rest of the state
/// ([`check_state`]).
fn decode_config(r: &mut Reader<'_>) -> Result<AncConfig, RestoreError> {
    Ok(AncConfig {
        lambda: r.f64()?,
        epsilon: r.f64()?,
        mu: r.uvarint_len()?,
        k: r.uvarint_len()?,
        theta: r.f64()?,
        rep: r.uvarint_len()?,
        floor: r.f64()?,
        floor_rel: r.f64()?,
        rescale: RescaleConfig { exponent_guard: r.f64()? },
    })
}

/// The clock's own state; its λ and rescale guard are the config's.
fn encode_clock(out: &mut Vec<u8>, clock: &DecayClock) {
    put_f64(out, clock.now());
    put_f64(out, clock.anchor());
}

/// The stored clock state, completed with the config's λ and rescale
/// guard. A [`DecayClock`] is built from it only once [`check_state`] has
/// checked that λ: [`DecayClock::from_parts`] asserts on a bad one.
fn decode_clock(r: &mut Reader<'_>, config: &AncConfig) -> Result<ClockParts, RestoreError> {
    Ok(ClockParts { lambda: config.lambda, now: r.f64()?, anchor: r.f64()?, cfg: config.rescale })
}

// ---------------------------------------------------------------------------
// Whole-snapshot encode/decode
// ---------------------------------------------------------------------------

/// Encodes the complete engine state into the binary snapshot format — the
/// mirror of [`decode_snapshot`].
pub(crate) fn encode_snapshot(s: &EngineSnapshot) -> Vec<u8> {
    let (n, m) = (s.graph.n(), s.graph.m());
    seal(SNAPSHOT_MAGIC, BINARY_VERSION, |out| {
        // Rough pre-size: topology + two per-edge float arrays + node sums.
        out.reserve(64 + 20 * m + 8 * n);
        encode_config(out, &s.config);
        encode_clock(out, &s.clock);
        encode_graph(&s.graph, out);
        put_f64s(out, s.activeness.as_slice());
        put_f64s(out, &s.node_sum);
        put_f64s(out, &s.sim);
        put_f64(out, s.sim_sum);
        put_u64(out, s.sim_exp.cast_unsigned());
        put_u64(out, s.index_seed);
        put_uvarint(out, s.activations);
        put_uvarint(out, s.rescales);
    })
}

/// Decodes a binary snapshot into an [`EngineSnapshot`], verifying the
/// magic, version and CRC-32 trailer first. The decoded state passes the
/// checks [`EngineSnapshot::validate`] applies to it before the clock and
/// the index are built from it, so a forged config or similarity is
/// refused, typed, before it can reach the clock or size or weight a build.
pub fn decode_snapshot(bytes: &[u8]) -> Result<EngineSnapshot, RestoreError> {
    let mut r = Reader::new(unseal(bytes, SNAPSHOT_MAGIC, BINARY_VERSION, 0)?);
    let config = decode_config(&mut r)?;
    let clock_parts = decode_clock(&mut r, &config)?;
    // The node sums follow the graph, 8 bytes a node.
    let max_nodes = r.remaining() / 8;
    let graph = decode_graph(&mut r, max_nodes)?;
    let (n, m) = (graph.n(), graph.m());
    let activeness = read_f64s(&mut r, m)?;
    let node_sum = read_f64s(&mut r, n)?;
    let sim = read_f64s(&mut r, m)?;
    let sim_sum = r.f64()?;
    let sim_exp = r.u64()?.cast_signed();
    let index_seed = r.u64()?;
    let activations = r.uvarint()?;
    let rescales = r.uvarint()?;
    if !r.is_empty() {
        return Err(RestoreError::Codec(format!(
            "{} trailing bytes after snapshot",
            r.remaining()
        )));
    }
    let activeness = ActivenessStore::from_anchored(activeness);
    check_state(&graph, &config, &activeness, &node_sum, &sim, sim_sum)?;
    let clock = DecayClock::from_parts(clock_parts);
    let recip: Vec<f64> = sim.iter().map(|s| 1.0 / s).collect();
    let pyramids = Pyramids::build(&graph, &recip, config.k, config.theta, index_seed);
    Ok(EngineSnapshot {
        graph,
        config,
        clock,
        activeness,
        node_sum,
        sim,
        pyramids,
        index_seed,
        sim_sum,
        sim_exp,
        activations,
        rescales,
    })
}

impl AncEngine {
    /// Serializes the engine into the binary snapshot format (DESIGN.md
    /// §11); [`Self::load_binary`] restores it bit-identically.
    /// [`SnapshotProfile::Exact`] is the only profile.
    ///
    /// The state passes [`EngineSnapshot::validate`] before a byte is
    /// written: a state that no load would accept (a similarity decayed to
    /// 0, say) returns that load's typed error instead of a file that
    /// cannot be reopened.
    pub fn save_binary<W: std::io::Write>(
        &self,
        mut writer: W,
        _profile: SnapshotProfile,
    ) -> Result<(), RestoreError> {
        self.state().validate()?;
        let bytes = encode_snapshot(self.state());
        writer.write_all(&bytes)?;
        Ok(())
    }

    /// The whole state as bytes, for tests that compare engines bit for
    /// bit: the Exact snapshot, then every partition's `(dist bits,
    /// seed_of, parent)` per node, since the snapshot stores no index.
    /// Not part of the public API.
    #[doc(hidden)]
    pub fn state_bytes_for_test(&self) -> Vec<u8> {
        let mut out = encode_snapshot(self.state());
        let pyr = self.pyramids();
        for p in 0..pyr.k() {
            for l in 0..pyr.num_levels() {
                let part = pyr.partition(p, l);
                for v in (0..).take(self.graph().n()) {
                    put_u64(&mut out, part.dist(v).to_bits());
                    put_u32(&mut out, part.seed_of(v));
                    put_u32(&mut out, part.parent(v));
                }
            }
        }
        out
    }

    /// Restores an engine from a binary snapshot produced by
    /// [`AncEngine::save_binary`]. Verifies the CRC-32 trailer, decodes with
    /// range checks, rebuilds the index ([`decode_snapshot`]), then runs
    /// [`EngineSnapshot::validate`].
    pub fn load_binary<R: std::io::Read>(mut reader: R) -> Result<Self, RestoreError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Self::from_snapshot(decode_snapshot(&bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterMode;
    use anc_graph::codec::crc32;
    use anc_graph::gen::connected_caveman;
    use anc_graph::NO_NODE;

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

    fn save(engine: &AncEngine) -> Vec<u8> {
        let mut buf = Vec::new();
        engine.save_binary(&mut buf, SnapshotProfile::Exact).unwrap();
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
        let bytes = save(&engine);
        let restored = AncEngine::load_binary(bytes.as_slice()).unwrap();
        // Bit-identical state: the re-save reproduces every byte…
        assert_eq!(bytes, save(&restored), "Exact restore diverged");
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
    }

    /// A state that no load would accept is refused, typed, before a byte
    /// is written: an engine tampered into a similarity of 0, which the
    /// floor keeps any stream from reaching, must not leave a snapshot that
    /// every load refuses.
    #[test]
    fn a_state_no_load_accepts_is_not_saved() {
        let mut s = streamed_engine().to_snapshot();
        s.sim[0] = 0.0;
        let engine = AncEngine::from_state(s);
        let mut buf = Vec::new();
        match engine.save_binary(&mut buf, SnapshotProfile::Exact) {
            Err(RestoreError::Invariant(v)) => {
                assert!(v.to_string().contains("edge 0 has similarity 0"), "{v}");
            }
            other => panic!("expected Invariant, got {:?}", other.err()),
        }
        assert!(buf.is_empty(), "{} bytes written", buf.len());
    }

    /// A node or edge count the file cannot hold is refused, typed, before
    /// anything is sized from it: `m = 2^61` used to panic with a capacity
    /// overflow, and `n = 3·10⁹` to abort the process on a 24 GB allocation.
    #[test]
    fn forged_graph_counts_fail_typed() {
        let engine = streamed_engine();
        for (n, m, want) in [(15, 1 << 61, "edge count"), (3_000_000_000, 0, "node count")] {
            let forged = seal(SNAPSHOT_MAGIC, BINARY_VERSION, |out| {
                encode_config(out, engine.config());
                encode_clock(out, &engine.state().clock);
                put_uvarint(out, n);
                put_uvarint(out, m);
            });
            assert!(forged.len() < 100, "{} bytes", forged.len());
            match load_err(&forged) {
                RestoreError::Codec(msg) => assert!(msg.contains(want), "{msg}"),
                other => panic!("n = {n}, m = {m}: expected Codec, got {other}"),
            }
        }
    }

    /// The index is rebuilt from the decoded config, so a `k` past the
    /// config's bound is refused, typed, before a `k · levels` build is
    /// sized from it.
    #[test]
    fn oversized_k_rejected_before_the_build() {
        let engine = streamed_engine();
        let bytes = save(&engine);
        let mut config = Vec::new();
        encode_config(&mut config, engine.config());
        let (head, tail) = (&bytes[..8], &bytes[8 + config.len()..]);
        for k in [1_025, 1 << 62] {
            let mut forged = head.to_vec();
            encode_config(&mut forged, &AncConfig { k, ..engine.config().clone() });
            forged.extend_from_slice(tail);
            restamp_crc(&mut forged);
            match load_err(&forged) {
                RestoreError::Inconsistent(msg) => assert!(msg.contains("k must be"), "{msg}"),
                other => panic!("k = {k}: expected Inconsistent, got {other}"),
            }
        }
    }

    /// A snapshot over no nodes, which no engine writes, is refused before
    /// a build would look for seeds among them.
    #[test]
    fn empty_graph_rejected_before_the_build() {
        let mut s = streamed_engine().to_snapshot();
        s.graph = anc_graph::Graph::from_edges(0, &[]);
        s.activeness = ActivenessStore::from_anchored(Vec::new());
        (s.node_sum, s.sim) = (Vec::new(), Vec::new());
        match decode_snapshot(&encode_snapshot(&s)) {
            Err(RestoreError::Inconsistent(msg)) => assert!(msg.contains("no nodes"), "{msg}"),
            other => panic!("expected Inconsistent, got {:?}", other.err()),
        }
    }

    #[test]
    fn exact_restore_evolves_bit_identically() {
        let engine = streamed_engine();
        let bytes = save(&engine);
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
    fn bad_magic_rejected() {
        let err = load_err(b"NOPE-not-a-snapshot");
        assert!(matches!(err, RestoreError::BadMagic), "{err}");
        let err = load_err(b"AN");
        assert!(matches!(err, RestoreError::Truncated { .. }), "{err}");
    }

    #[test]
    fn corruption_detected_by_crc() {
        let engine = streamed_engine();
        let mut bytes = save(&engine);
        // Flip one bit somewhere in the body.
        let at = bytes.len() / 2;
        bytes[at] ^= 0x40;
        let err = load_err(&bytes);
        assert!(matches!(err, RestoreError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn truncation_detected() {
        let engine = streamed_engine();
        let bytes = save(&engine);
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
        let mut bytes = save(&engine);
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        restamp_crc(&mut bytes);
        let err = load_err(&bytes);
        assert!(matches!(err, RestoreError::UnsupportedVersion(99)), "{err}");
        // Version 1 stored the pyramids; it is refused, not migrated.
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        restamp_crc(&mut bytes);
        let err = load_err(&bytes);
        assert!(matches!(err, RestoreError::UnsupportedVersion(1)), "{err}");
        // Version 2 stored λ and the rescale policy a second time in the
        // clock, and a profile, two tag and two knob bytes; it is refused,
        // not migrated.
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        restamp_crc(&mut bytes);
        let err = load_err(&bytes);
        assert!(matches!(err, RestoreError::UnsupportedVersion(2)), "{err}");
        // Version 3 stored the similarity on the decay clock's scale and had
        // no exponent for it; it is refused, not migrated.
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        restamp_crc(&mut bytes);
        let err = load_err(&bytes);
        assert!(matches!(err, RestoreError::UnsupportedVersion(3)), "{err}");
        // Version 4 stored a rescale cadence in activations and the count
        // since the last rescale; it is refused, not migrated.
        bytes[4..8].copy_from_slice(&4u32.to_le_bytes());
        restamp_crc(&mut bytes);
        let err = load_err(&bytes);
        assert!(matches!(err, RestoreError::UnsupportedVersion(4)), "{err}");
    }

    /// A rescale guard past the config's bound lets a node's sum of boosts
    /// overflow to ∞ (one at ∞ lets `boost()` itself overflow); it is
    /// refused on load.
    #[test]
    fn unbounded_exponent_guard_rejected() {
        let engine = streamed_engine();
        let bytes = save(&engine);
        let guard = engine.config().rescale.exponent_guard.to_le_bytes();
        let mut header = Vec::new();
        encode_config(&mut header, engine.config());
        encode_clock(&mut header, &engine.state().clock);
        let header_end = 4 + 4 + header.len();
        let sites: Vec<usize> = (0..header_end - 8).filter(|&i| bytes[i..i + 8] == guard).collect();
        assert_eq!(sites.len(), 1, "the config's guard, stored once");
        for (at, guard) in sites.into_iter().flat_map(|at| [(at, 700.0), (at, f64::INFINITY)]) {
            let mut forged = bytes.clone();
            forged[at..at + 8].copy_from_slice(&f64::to_le_bytes(guard));
            restamp_crc(&mut forged);
            match load_err(&forged) {
                RestoreError::Inconsistent(msg) => assert!(msg.contains("exponent_guard"), "{msg}"),
                other => panic!("guard {guard} at {at}: expected Inconsistent, got {other}"),
            }
        }
    }

    /// The clock is built from the config's λ, and [`DecayClock::from_parts`]
    /// asserts on a bad one: a forged λ must be refused, typed, first.
    #[test]
    fn invalid_lambda_rejected_before_the_clock_is_built() {
        let bytes = save(&streamed_engine());
        for lambda in [-1.0, f64::NAN, f64::INFINITY] {
            let mut forged = bytes.clone();
            forged[8..16].copy_from_slice(&lambda.to_le_bytes());
            restamp_crc(&mut forged);
            match load_err(&forged) {
                RestoreError::Inconsistent(msg) => assert!(msg.contains("lambda must be"), "{msg}"),
                other => panic!("lambda = {lambda}: expected Inconsistent, got {other}"),
            }
        }
    }

    /// No engine reaches a clock time outside `0 <= anchor <= now < ∞`, so
    /// a file holding one is refused instead of decaying into NaN.
    #[test]
    fn unreachable_clock_time_rejected() {
        let engine = streamed_engine();
        let bytes = save(&engine);
        let mut config = Vec::new();
        encode_config(&mut config, engine.config());
        let (now_at, now) = (8 + config.len(), engine.now());
        for (at, value) in [
            (now_at, f64::NAN),
            (now_at, f64::INFINITY),
            (now_at + 8, now + 1.0),
            (now_at + 8, -1.0),
        ] {
            let mut forged = bytes.clone();
            forged[at..at + 8].copy_from_slice(&value.to_le_bytes());
            restamp_crc(&mut forged);
            match load_err(&forged) {
                RestoreError::Inconsistent(msg) => assert!(msg.contains("anchor"), "{msg}"),
                other => panic!("{value} at {at}: expected Inconsistent, got {other}"),
            }
        }
    }

    #[test]
    fn infinity_distances_survive_roundtrip() {
        // A disconnected pair leaves unreachable nodes with dist = ∞ and
        // seed NO_NODE; the round trip must keep both, bit for bit.
        let g = anc_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let engine = AncEngine::new(g, AncConfig { k: 2, rep: 1, ..Default::default() }, 3);
        let bytes = save(&engine);
        let restored = AncEngine::load_binary(bytes.as_slice()).unwrap();
        restored.check_invariants().unwrap();
        assert_eq!(bytes, save(&restored));
        assert!(restored.pyramids().approx_distance(0, 2).is_infinite());
        // The restored index really holds both: some partition leaves a
        // node with no seed at distance ∞.
        let pyr = restored.pyramids();
        let unreachable = (0..pyr.k())
            .flat_map(|p| (0..pyr.num_levels()).map(move |l| pyr.partition(p, l)))
            .any(|part| (0..4).any(|v| part.seed_of(v) == NO_NODE && part.dist(v).is_infinite()));
        assert!(unreachable, "no unreachable node to round-trip");
    }
}
