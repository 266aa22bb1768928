//! Checkpoint and restore for the online engine.
//!
//! A production deployment of an activation-network index must survive
//! restarts without replaying the entire activation history.
//! [`EngineSnapshot`] captures the complete engine state — anchored
//! activeness, similarity, the pyramids with their shortest-path forests,
//! the decay clock — as the decoded form of a checkpoint. The binary file
//! leaves the pyramids out: they are a function of the similarity and the
//! index seed, so a restore rebuilds them (`O(n log² n + m log n)`, Exp 3's
//! build without the `S₀` reinforcement passes).
//!
//! Two encodings share the snapshot model (DESIGN.md §11), and both restore
//! through [`EngineSnapshot::validate`]:
//!
//! * **Binary** ([`binary`], [`crate::AncEngine::save_binary`] /
//!   [`crate::AncEngine::load_binary`]) — versioned compact format with
//!   delta-encoded topology, varint ids and raw `f64` float arrays,
//!   integrity-checked end to end by a CRC-32 trailer.
//! * **Delta log** ([`wal`], [`wal::DurableEngine`]) — an append-only
//!   activation log over a base binary snapshot with per-record checksums,
//!   periodic compaction and crash recovery by suffix replay.
//!
//! **Derived state is excluded.** The binary file stores no index (above),
//! and the incremental cluster-query cache ([`crate::ClusterCache`]) is
//! part of no snapshot: every cached bitset and clustering is a pure
//! function of the pyramids, so serializing it would only duplicate state
//! that can drift. A restored engine constructs an empty cache and refills
//! it lazily — the first `cluster_all` per level pays one parallel voting
//! pass and lands on labels identical to the pre-snapshot engine's.

#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

use anc_decay::{ActivenessStore, DecayClock};
use anc_graph::codec::{crc32, put_u32, CodecError, Reader};
use anc_graph::Graph;

use crate::invariant::InvariantViolation;
use crate::pyramid::Pyramids;
use crate::AncConfig;

pub mod binary;
pub mod wal;

pub use binary::SnapshotProfile;
pub use wal::{
    BadActivation, DurabilityOptions, DurableEngine, WalReader, WalRecord, SNAPSHOT_FILE, WAL_FILE,
};

/// The complete persisted state of an [`crate::AncEngine`]: the engine holds
/// one and derives everything else from it (DESIGN.md §11).
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    /// The relation network.
    pub graph: Graph,
    /// Engine configuration.
    pub config: AncConfig,
    /// Decay clock (current time, anchor, rescale policy).
    pub clock: DecayClock,
    /// Anchored activeness per edge.
    pub activeness: ActivenessStore,
    /// Anchored per-node activeness sums.
    pub node_sum: Vec<f64>,
    /// Anchored similarity per edge.
    pub sim: Vec<f64>,
    /// The pyramids index (partitions, seeds, shortest-path forests).
    /// [`crate::AncEngine::from_snapshot`] adopts it as given; the binary
    /// snapshot does not store it.
    pub pyramids: Pyramids,
    /// RNG seed the index was built with: a binary restore rebuilds the
    /// index from it, and offline rebuilds reuse it.
    pub index_seed: u64,
    /// Running anchored-similarity sum (relative floor).
    pub sim_sum: f64,
    /// Lifetime counters.
    pub activations: u64,
    /// Batched rescales performed.
    pub rescales: u64,
}

/// Errors from snapshot/log restore.
#[derive(Debug)]
pub enum RestoreError {
    /// The snapshot's version field is not supported.
    UnsupportedVersion(u32),
    /// The input does not start with the expected magic bytes — it is not
    /// an ANC snapshot/log at all (or the header itself is corrupted).
    BadMagic,
    /// A CRC-32 integrity check failed: the bytes were damaged after they
    /// were written.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u32,
        /// Checksum of the bytes actually read.
        found: u32,
    },
    /// The input ended mid-structure (e.g. a torn write at the tail of a
    /// log). `offset` is the byte position at which more input was needed.
    Truncated {
        /// Byte offset of the premature end.
        offset: usize,
    },
    /// Structural inconsistency between parts of the snapshot.
    Inconsistent(String),
    /// The snapshot state violates an engine invariant (see
    /// [`crate::invariant`]).
    Invariant(InvariantViolation),
    /// Codec failure.
    Codec(String),
    /// A write-ahead-log record whose CRC-32 verified but which this build
    /// cannot decode (a payload cut short, trailing bytes, an edge count or
    /// id out of range). A torn write cannot produce that — a newer or older
    /// writer can — so recovery refuses the log instead of truncating it.
    UndecodableRecord {
        /// Byte offset of the record's frame in the log.
        offset: usize,
        /// What failed to decode.
        detail: String,
    },
    /// An activation batch that fails [`WalRecord::check`], passed to a
    /// [`DurableEngine`] mutator or found in a logged record.
    BadActivation(BadActivation),
    /// Filesystem failure while reading or writing persistent state.
    Io(std::io::Error),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            RestoreError::BadMagic => write!(f, "bad magic: not an ANC snapshot/log"),
            RestoreError::ChecksumMismatch { expected, found } => {
                write!(f, "checksum mismatch: stored {expected:#010x}, computed {found:#010x}")
            }
            RestoreError::Truncated { offset } => write!(f, "input truncated at byte {offset}"),
            RestoreError::Inconsistent(msg) => write!(f, "inconsistent snapshot: {msg}"),
            RestoreError::Invariant(v) => write!(f, "snapshot violates invariant: {v}"),
            RestoreError::Codec(msg) => write!(f, "codec error: {msg}"),
            RestoreError::UndecodableRecord { offset, detail } => {
                write!(f, "log record at byte {offset} verifies but does not decode: {detail}")
            }
            RestoreError::BadActivation(bad) => write!(f, "{bad}"),
            RestoreError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<CodecError> for RestoreError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::UnexpectedEof { offset } => RestoreError::Truncated { offset },
            other => RestoreError::Codec(other.to_string()),
        }
    }
}

impl From<BadActivation> for RestoreError {
    fn from(e: BadActivation) -> Self {
        RestoreError::BadActivation(e)
    }
}

impl From<std::io::Error> for RestoreError {
    fn from(e: std::io::Error) -> Self {
        RestoreError::Io(e)
    }
}

/// A sealed block, `magic ∥ u32 version ∥ body ∥ u32 crc32(all before)`:
/// the whole binary snapshot, and the write-ahead log's header.
pub(crate) fn seal(magic: [u8; 4], version: u32, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = magic.to_vec();
    put_u32(&mut out, version);
    body(&mut out);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// The body of a block [`seal`] wrote, at least `min_body` bytes long. The
/// checks run in this order: magic, length, checksum, version.
pub(crate) fn unseal(
    bytes: &[u8],
    magic: [u8; 4],
    version: u32,
    min_body: usize,
) -> Result<&[u8], RestoreError> {
    if bytes.len() < magic.len() {
        return Err(RestoreError::Truncated { offset: bytes.len() });
    }
    if bytes[..4] != magic {
        return Err(RestoreError::BadMagic);
    }
    let Some((sealed, crc)) =
        bytes.split_last_chunk::<4>().filter(|(s, _)| s.len() >= 8 + min_body)
    else {
        return Err(RestoreError::Truncated { offset: bytes.len() });
    };
    let (expected, found) = (u32::from_le_bytes(*crc), crc32(sealed));
    if expected != found {
        return Err(RestoreError::ChecksumMismatch { expected, found });
    }
    let found = Reader::new(&sealed[4..]).u32()?;
    if found != version {
        return Err(RestoreError::UnsupportedVersion(found));
    }
    Ok(&sealed[8..])
}

/// Little-endian `u64` from the first 8 bytes of a (length-checked) slice.
pub(crate) fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

impl EngineSnapshot {
    /// Validates internal consistency: [`check_state`] on everything but the
    /// clock and the index, then the clock against the config, then the
    /// index against the graph and the config (`O(n + m)`; the
    /// `O(k · m log n)` forest check stays with
    /// [`crate::AncEngine::check_invariants`]).
    pub fn validate(&self) -> Result<(), RestoreError> {
        check_state(&self.graph, &self.config, &self.activeness, &self.node_sum, &self.sim)?;
        // The clock holds λ and the rescale policy beside the config; the
        // engine decays by the clock's, so they must agree bit for bit.
        let parts = self.clock.to_parts();
        let config = &self.config;
        if parts.lambda.to_bits() != config.lambda.to_bits()
            || parts.cfg.every_activations != config.rescale.every_activations
            || parts.cfg.exponent_guard.to_bits() != config.rescale.exponent_guard.to_bits()
        {
            return Err(RestoreError::Inconsistent(format!(
                "clock has lambda = {} and {:?}, config says lambda = {} and {:?}",
                parts.lambda, parts.cfg, config.lambda, config.rescale
            )));
        }
        // Every clock the engine builds starts at `t = t* = 0`, only raises
        // `t`, and never moves `t*` past it.
        let (now, anchor) = (parts.now, parts.anchor);
        if !(0.0 <= anchor && anchor <= now && now.is_finite()) {
            return Err(RestoreError::Inconsistent(format!(
                "clock has now = {now} and anchor = {anchor}; want 0 <= anchor <= now, both finite"
            )));
        }
        self.pyramids.check_shape(self.graph.n()).map_err(RestoreError::Invariant)?;
        let (k, votes) = (self.pyramids.k(), self.pyramids.needed_votes());
        if k != self.config.k || votes != self.config.needed_votes() {
            return Err(RestoreError::Inconsistent(format!(
                "index has k = {k} pyramids and needs {votes} votes, config says k = {} and {}",
                self.config.k,
                self.config.needed_votes()
            )));
        }
        Ok(())
    }
}

/// The checks on a snapshot's state apart from the clock and the index: the
/// config's ranges, at least one node, array sizes, positive similarities
/// and a well-formed CSR (`O(n + m)`). [`EngineSnapshot::validate`] runs
/// them, and a binary restore runs them before it builds the clock and the
/// index from that state.
pub(crate) fn check_state(
    graph: &Graph,
    config: &AncConfig,
    activeness: &ActivenessStore,
    node_sum: &[f64],
    sim: &[f64],
) -> Result<(), RestoreError> {
    // A version-skewed or hand-edited snapshot must surface a typed error,
    // not `AncConfig::validate`'s panic.
    config.check().map_err(|msg| {
        RestoreError::Inconsistent(format!("config out of range ({msg}): {config:?}"))
    })?;
    let (n, m) = (graph.n(), graph.m());
    if n == 0 {
        // Every partition needs a seed; no engine is built over no nodes.
        return Err(RestoreError::Inconsistent("graph has no nodes".into()));
    }
    if sim.len() != m {
        return Err(RestoreError::Inconsistent(format!(
            "sim has {} entries for {m} edges",
            sim.len()
        )));
    }
    if activeness.len() != m {
        return Err(RestoreError::Inconsistent(format!(
            "activeness has {} entries for {m} edges",
            activeness.len()
        )));
    }
    if node_sum.len() != n {
        return Err(RestoreError::Inconsistent(format!(
            "node_sum has {} entries for {n} nodes",
            node_sum.len()
        )));
    }
    // Shared with the engine's own checker — one validator, two callers.
    crate::invariant::check_similarities(sim).map_err(RestoreError::Invariant)?;
    crate::invariant::check_graph(graph).map_err(RestoreError::Invariant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AncEngine, ClusterMode};
    use anc_decay::ClockParts;
    use anc_graph::gen::connected_caveman;

    fn streamed_engine() -> AncEngine {
        let lg = connected_caveman(3, 5);
        let cfg = AncConfig { rep: 1, k: 2, ..Default::default() };
        let mut engine = AncEngine::new(lg.graph, cfg, 9);
        let m = engine.graph().m() as u32;
        for i in 0..40u32 {
            engine.activate((i * 7 + 2) % m, i as f64 * 0.4);
        }
        engine
    }

    /// The cluster-query cache is not serialized: a restored engine starts
    /// cold, rebuilds lazily on first query, and converges to the same
    /// labels and cache behavior as the live engine.
    #[test]
    fn restored_engine_rebuilds_cluster_cache_lazily() {
        let live = streamed_engine();
        let level = live.default_level();
        // Warm the live cache so the snapshot is taken from an engine with
        // materialized levels.
        let (live_arc, live_stats) = live.cluster_all_cached(level, ClusterMode::Power);
        assert!(live.cluster_cache().is_materialized(level));
        let mut buf = Vec::new();
        live.save_binary(&mut buf, SnapshotProfile::Exact).unwrap();

        let restored = AncEngine::load_binary(buf.as_slice()).unwrap();
        assert!(
            !restored.cluster_cache().has_materialized_levels(),
            "cache must not travel through the snapshot"
        );
        let (cold_arc, cold_stats) = restored.cluster_all_cached(level, ClusterMode::Power);
        assert_eq!(cold_stats.decision, crate::cache::QueryDecision::ColdFill);
        assert_eq!(*cold_arc, *live_arc, "lazy refill must reproduce the live labels");
        // Second query is a pointer hit, same as on the live engine.
        let (again, stats) = restored.cluster_all_cached(level, ClusterMode::Power);
        assert_eq!(stats.decision, crate::cache::QueryDecision::Hit);
        assert!(std::sync::Arc::ptr_eq(&cold_arc, &again));
        let _ = live_stats;
        restored.check_invariants().unwrap();
    }

    #[test]
    fn corrupted_snapshots_rejected() {
        let engine = streamed_engine();
        let mut snap = engine.to_snapshot();
        snap.sim.pop();
        let err = AncEngine::from_snapshot(snap).err().expect("must fail");
        assert!(matches!(err, RestoreError::Inconsistent(_)), "{err}");
        // A config that disagrees with the index it travels with: another k,
        // or a θ under which the stored vote threshold is not ⌈θk⌉.
        for edit in [|c: &mut AncConfig| c.k = 3, |c: &mut AncConfig| c.theta = 0.5] {
            let mut snap = engine.to_snapshot();
            edit(&mut snap.config);
            let err = AncEngine::from_snapshot(snap).err().expect("must fail");
            assert!(matches!(err, RestoreError::Inconsistent(_)), "{err}");
        }
        // A clock that disagrees with the config: another λ, or another
        // rescale cadence.
        for edit in
            [|p: &mut ClockParts| p.lambda = 0.5, |p: &mut ClockParts| p.cfg.every_activations += 1]
        {
            let mut snap = engine.to_snapshot();
            let mut parts = snap.clock.to_parts();
            edit(&mut parts);
            snap.clock = DecayClock::from_parts(parts);
            let err = AncEngine::from_snapshot(snap).err().expect("must fail");
            assert!(matches!(err, RestoreError::Inconsistent(_)), "{err}");
        }
        // A clock time no engine reaches: `now` NaN or ∞, the anchor past
        // `now` or before 0.
        for edit in [
            |p: &mut ClockParts| p.now = f64::NAN,
            |p: &mut ClockParts| p.now = f64::INFINITY,
            |p: &mut ClockParts| p.anchor = p.now + 1.0,
            |p: &mut ClockParts| p.anchor = -1.0,
        ] {
            let mut snap = engine.to_snapshot();
            let mut parts = snap.clock.to_parts();
            edit(&mut parts);
            snap.clock = DecayClock::from_parts(parts);
            match AncEngine::from_snapshot(snap).err().expect("must fail") {
                RestoreError::Inconsistent(msg) => assert!(msg.contains("anchor"), "{msg}"),
                other => panic!("expected Inconsistent, got {other}"),
            }
        }
    }
}
