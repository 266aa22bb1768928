//! Checkpoint and restore for the online engine.
//!
//! A production deployment of an activation-network index must survive
//! restarts without replaying the entire activation history or paying a
//! full re-index (`O(n log² n + m log n)`, Exp 3). [`EngineSnapshot`]
//! captures the complete engine state — anchored activeness, similarity,
//! the pyramids with their shortest-path forests, the decay clock — as the
//! decoded form of a checkpoint; restoring is `O(state)` with no
//! recomputation.
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
//! **Derived state is excluded.** The incremental cluster-query cache
//! ([`crate::ClusterCache`]) is deliberately not part of the snapshot: every
//! cached bitset and clustering is a pure function of the pyramids, so
//! serializing it would only duplicate state that can drift. A restored
//! engine constructs an empty cache and refills it lazily — the first
//! `cluster_all` per level pays one parallel voting pass and lands on
//! labels identical to the pre-snapshot engine's.

#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

use anc_decay::{ActivenessStore, DecayClock};
use anc_graph::codec::CodecError;
use anc_graph::Graph;

use crate::invariant::InvariantViolation;
use crate::pyramid::Pyramids;
use crate::AncConfig;

pub mod binary;
pub mod wal;

pub use binary::SnapshotProfile;
pub use wal::{DurabilityOptions, DurableEngine, WalReader, WalRecord, SNAPSHOT_FILE, WAL_FILE};

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
    pub pyramids: Pyramids,
    /// RNG seed the index was built with (reused by offline rebuilds).
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
    /// cannot decode (unknown or retired kind byte, trailing bytes, a field
    /// out of range). A torn write cannot produce that — a newer or older
    /// writer can — so recovery refuses the log instead of truncating it.
    UndecodableRecord {
        /// Byte offset of the record's frame in the log.
        offset: usize,
        /// What failed to decode.
        detail: String,
    },
    /// An edge id at or past the network's edge count, passed to a
    /// [`DurableEngine`] mutator or found in a logged record.
    EdgeOutOfRange {
        /// The offending edge id.
        edge: anc_graph::EdgeId,
        /// The network's edge count.
        num_edges: usize,
    },
    /// A non-finite activation timestamp, passed to a [`DurableEngine`]
    /// mutator or found in a logged record (the decay clock requires finite
    /// time).
    InvalidTime(f64),
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
            RestoreError::EdgeOutOfRange { edge, num_edges } => {
                write!(f, "edge id {edge} out of range (network has {num_edges} edges)")
            }
            RestoreError::InvalidTime(t) => write!(f, "activation time {t} is not finite"),
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

impl From<std::io::Error> for RestoreError {
    fn from(e: std::io::Error) -> Self {
        RestoreError::Io(e)
    }
}

/// Little-endian `u32` from the first 4 bytes of a (length-checked) slice.
pub(crate) fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Little-endian `u64` from the first 8 bytes of a (length-checked) slice.
pub(crate) fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

impl EngineSnapshot {
    /// Validates internal consistency: sizes line up, similarities are
    /// positive, the CSR is well formed, the clock decays at the config's λ
    /// under its rescale policy, and the index has the shape the graph and
    /// config imply (`O(n + m)`; the `O(k · m log n)` forest check
    /// stays with [`crate::AncEngine::check_invariants`]).
    pub fn validate(&self) -> Result<(), RestoreError> {
        let (n, m) = (self.graph.n(), self.graph.m());
        if self.sim.len() != m {
            return Err(RestoreError::Inconsistent(format!(
                "sim has {} entries for {m} edges",
                self.sim.len()
            )));
        }
        if self.activeness.len() != m {
            return Err(RestoreError::Inconsistent(format!(
                "activeness has {} entries for {m} edges",
                self.activeness.len()
            )));
        }
        if self.node_sum.len() != n {
            return Err(RestoreError::Inconsistent(format!(
                "node_sum has {} entries for {n} nodes",
                self.node_sum.len()
            )));
        }
        // Shared with the engine's own checker — one validator, two callers.
        crate::invariant::check_similarities(&self.sim).map_err(RestoreError::Invariant)?;
        crate::invariant::check_graph(&self.graph).map_err(RestoreError::Invariant)?;
        // λ and the rescale policy travel twice, in the config and in the
        // clock; the engine decays by the clock's, so they must agree bit for
        // bit.
        let (clock, cfg) = (self.clock.to_parts(), &self.config);
        if clock.lambda.to_bits() != cfg.lambda.to_bits()
            || clock.cfg.every_activations != cfg.rescale.every_activations
            || clock.cfg.exponent_guard.to_bits() != cfg.rescale.exponent_guard.to_bits()
        {
            return Err(RestoreError::Inconsistent(format!(
                "clock has lambda = {} and {:?}, config says lambda = {} and {:?}",
                clock.lambda, clock.cfg, cfg.lambda, cfg.rescale
            )));
        }
        self.pyramids.check_shape(n).map_err(RestoreError::Invariant)?;
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
    }
}
