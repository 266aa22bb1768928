//! The immutable serving snapshot and the wait-free reader handle.
//!
//! After every drained ingest cycle the writer thread assembles one
//! [`ServeSnapshot`] — the refreshed [`ClusterView`], a member index per
//! published clustering, and cumulative [`ServerStats`] — and hands it to
//! [`anc_core::publish::Publisher`].
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
use anc_metrics::{Clustering, NOISE};

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
    /// The member index of every clustering in `view`, built by the writer
    /// with [`index_members`].
    pub(crate) members: Vec<Indexed>,
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

    /// Members of the cluster containing `v` at `(level, mode)`, ascending
    /// (empty for a noise node), borrowed from the snapshot's member index.
    /// `None` when `v` is out of range or the level is not published.
    /// Wait-free and O(1): one lookup, one slice.
    pub fn member_slice_at(&self, v: NodeId, level: usize, mode: ClusterMode) -> Option<&[NodeId]> {
        let at = self.members.iter().find(|m| m.level == level && m.mode == mode)?;
        let c = &at.clustering;
        if (v as usize) >= c.n() {
            return None;
        }
        if c.is_noise(v) {
            return Some(&[]);
        }
        Some(at.members.cluster(c.label(v)))
    }

    /// [`Self::member_slice_at`], copied out: O(|C|).
    pub fn members_at(&self, v: NodeId, level: usize, mode: ClusterMode) -> Option<Vec<NodeId>> {
        self.member_slice_at(v, level, mode).map(<[NodeId]>::to_vec)
    }
}

/// Every cluster's members of one clustering, grouped by label: a counting
/// sort of its labels, so a members query costs the cluster's size (Lemma 9)
/// rather than a scan of all n labels.
#[derive(Debug)]
struct MemberIndex {
    /// Cluster `c`'s members are `nodes[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    /// The non-noise node ids, ascending within each cluster.
    nodes: Vec<NodeId>,
}

impl MemberIndex {
    fn new(c: &Clustering) -> Self {
        let k = c.num_clusters();
        let mut start = vec![0u32; k + 1];
        for &l in c.labels() {
            if l != NOISE {
                start[l as usize + 1] += 1;
            }
        }
        let mut sum = 0;
        for s in &mut start {
            sum += *s;
            *s = sum;
        }
        // `start[l]` is cluster `l`'s write cursor; it ends where `l + 1`
        // begins, so one shift right restores the offsets.
        let mut nodes = vec![0; c.num_assigned()];
        for (v, &l) in c.labels().iter().enumerate() {
            if l != NOISE {
                let at = &mut start[l as usize];
                nodes[*at as usize] = v as NodeId;
                *at += 1;
            }
        }
        start.copy_within(..k, 1);
        start[0] = 0;
        Self { start, nodes }
    }

    /// The members of cluster `label`, ascending.
    fn cluster(&self, label: u32) -> &[NodeId] {
        let l = label as usize;
        &self.nodes[self.start[l] as usize..self.start[l + 1] as usize]
    }
}

/// One published clustering and its member index.
#[derive(Clone, Debug)]
pub(crate) struct Indexed {
    level: usize,
    mode: ClusterMode,
    clustering: Arc<Clustering>,
    members: Arc<MemberIndex>,
}

/// Indexes the members of every clustering in `view`. A clustering `prev`
/// already indexed — the same `Arc`, which a cycle that left it unchanged
/// publishes again — keeps its index.
pub(crate) fn index_members(view: &ClusterView, prev: &[Indexed]) -> Vec<Indexed> {
    let mut out = Vec::new();
    for lc in &view.levels {
        for (mode, c) in [(ClusterMode::Even, &lc.even), (ClusterMode::Power, &lc.power)] {
            let Some(c) = c else { continue };
            let members = match prev.iter().find(|p| Arc::ptr_eq(&p.clustering, c)) {
                Some(p) => Arc::clone(&p.members),
                None => Arc::new(MemberIndex::new(c)),
            };
            out.push(Indexed { level: lc.level, mode, clustering: Arc::clone(c), members });
        }
    }
    out
}

/// A per-reader cursor over the published snapshot chain.
///
/// Clone one per reader thread; each clone advances independently and all
/// operations are wait-free. A cursor keeps alive every snapshot published
/// since it last advanced, so a long-lived one must advance regularly.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_index_groups_every_label_in_node_order() {
        let labels = [2, NOISE, 0, 2, 1, NOISE, 0, 2];
        let c = Clustering::from_labels(&labels);
        let index = MemberIndex::new(&c);
        for label in 0..c.num_clusters() as u32 {
            let scan: Vec<NodeId> =
                (0..labels.len() as NodeId).filter(|&v| c.label(v) == label).collect();
            assert_eq!(index.cluster(label), scan, "cluster {label}");
        }
        assert_eq!(index.nodes.len(), c.num_assigned());
        let empty = MemberIndex::new(&Clustering::all_noise(3));
        assert!(empty.start == [0] && empty.nodes.is_empty());
    }
}
