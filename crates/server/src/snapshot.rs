//! The immutable serving snapshot and the wait-free reader handle.
//!
//! After every drained ingest cycle the writer thread assembles one
//! [`ServeSnapshot`] — the refreshed [`ClusterView`] plus cumulative
//! [`ServerStats`] — and hands it to [`anc_core::publish::Publisher`].
//! Reader threads hold a [`SnapshotReader`] each and answer every query
//! from [`SnapshotReader::snapshot`]: one wait-free chain advance, then
//! pure reads of immutable `Arc` data. No mutex, no rwlock, no channel:
//! the lock types are banned from this crate (`clippy.toml`), a channel end
//! would fail the `Send + Sync` assertion below, and the crate does not
//! depend on the thread pool — so nothing reachable from a snapshot can
//! block (DESIGN.md §8).

use std::sync::Arc;

use anc_core::publish::ReadHandle;
use anc_core::{ClusterMode, ClusterView};
use anc_graph::NodeId;
use anc_metrics::Clustering;

use crate::service::ServerStats;

/// One immutable published state of the serving engine.
///
/// Everything a reader needs is inside: membership queries never touch the
/// engine, so they cannot contend with the writer.
#[derive(Clone, Debug)]
pub struct ServeSnapshot {
    /// Publication epoch (0 = the pre-traffic initial snapshot; +1 per
    /// drained ingest cycle).
    pub epoch: u64,
    /// Highest ingest sequence number folded into this snapshot (0 before
    /// any ingest). Sequence numbers are issued by
    /// [`crate::service::IngestHandle::submit`].
    pub applied_seq: u64,
    /// Number of nodes in the served network.
    pub n: usize,
    /// Number of granularity levels the engine supports.
    pub num_levels: usize,
    /// The engine's `Θ(√n)`-clusters default level.
    pub default_level: usize,
    /// The clusterings published at this epoch (the levels/modes selected
    /// in [`crate::service::ServeConfig`]).
    pub view: ClusterView,
    /// Cumulative server counters as of this publication.
    pub stats: ServerStats,
}

// Readers on any thread share one snapshot: an `mpsc::Receiver`, a `Cell` or
// a `RefCell` anywhere below it stops this compiling.
const _: () = {
    const fn shared_by_readers<T: Send + Sync>() {}
    shared_by_readers::<ServeSnapshot>();
};

impl ServeSnapshot {
    /// The published clustering at `(level, mode)`, if this snapshot
    /// carries it. Wait-free.
    pub fn clusters_at(&self, level: usize, mode: ClusterMode) -> Option<&Arc<Clustering>> {
        self.view.clusters(level, mode)
    }

    /// Whether `u` and `v` share a cluster in the published clustering at
    /// `(level, mode)`. `None` when the pair is out of range or the level
    /// is not published; noise nodes share no cluster. Wait-free.
    pub fn same_cluster_at(
        &self,
        u: NodeId,
        v: NodeId,
        level: usize,
        mode: ClusterMode,
    ) -> Option<bool> {
        let c = self.clusters_at(level, mode)?;
        if (u as usize) >= c.n() || (v as usize) >= c.n() {
            return None;
        }
        Some(!c.is_noise(u) && !c.is_noise(v) && c.label(u) == c.label(v))
    }

    /// Members of the cluster containing `v` at `(level, mode)` (empty for
    /// a noise node). `None` when `v` is out of range or the level is not
    /// published. Wait-free: one pass over the immutable label array.
    pub fn members_at(&self, v: NodeId, level: usize, mode: ClusterMode) -> Option<Vec<NodeId>> {
        let c = self.clusters_at(level, mode)?;
        if (v as usize) >= c.n() {
            return None;
        }
        if c.is_noise(v) {
            return Some(Vec::new());
        }
        let want = c.label(v);
        Some(
            c.labels()
                .iter()
                .enumerate()
                .filter(|&(_, &l)| l == want)
                .map(|(i, _)| i as NodeId)
                .collect(),
        )
    }
}

/// A per-reader cursor over the published snapshot chain.
///
/// Clone one per reader thread; each clone advances independently and all
/// operations are wait-free.
pub struct SnapshotReader {
    inner: ReadHandle<ServeSnapshot>,
}

impl Clone for SnapshotReader {
    fn clone(&self) -> Self {
        Self { inner: self.inner.clone() }
    }
}

impl SnapshotReader {
    pub(crate) fn new(inner: ReadHandle<ServeSnapshot>) -> Self {
        Self { inner }
    }

    /// The newest published snapshot. Wait-free: advances the cursor with
    /// acquire loads only.
    pub fn snapshot(&mut self) -> Arc<ServeSnapshot> {
        self.inner.latest()
    }

    /// Epoch at the cursor (advanced by [`Self::snapshot`]).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}
