//! Incremental vote maintenance and cluster-change monitoring — the
//! paper's Section V-C Remarks: *"Due to the 'local' feature of the update,
//! we can maintain a voting count (among Pyramids) for each level, each
//! edge in real time. This allows us to report changes on user specified
//! nodes at a cost equal to the reporting."*
//!
//! [`VoteCache`] materializes the vote count of every edge at every
//! granularity level and repairs exactly the edges incident to the nodes an
//! index update touched. [`ClusterMonitor`] layers a watch list on top and
//! reports which watched nodes saw a voting flip on an incident edge — the
//! signal that their cluster may have changed.

use anc_graph::{EdgeId, Graph, NodeId};
use rayon::Chunks;

use crate::pyramid::Pyramids;

/// Edges per pool task of [`VoteCache::build`] (`k · levels` votes each):
/// tasks of tens of microseconds keep the claim counter cold.
const BUILD_EDGES: usize = 256;

/// A packed edge bitset (one bit per [`EdgeId`], 64 edges per word) — the
/// storage behind the cluster cache's voted-edge set.
#[derive(Clone, Debug, Default)]
pub struct EdgeBits {
    words: Vec<u64>,
    len: usize,
}

impl EdgeBits {
    /// A bitset over `len` edges, all bits clear.
    pub fn with_len(len: usize) -> Self {
        Self { words: vec![0u64; len.div_ceil(64)], len }
    }

    /// Number of edges covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset covers zero edges.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit for edge `e`.
    #[inline]
    pub fn get(&self, e: EdgeId) -> bool {
        (self.words[e as usize / 64] >> (e % 64)) & 1 != 0
    }

    /// Sets the bit for edge `e` to `val`.
    #[inline]
    pub fn set(&mut self, e: EdgeId, val: bool) {
        let w = &mut self.words[e as usize / 64];
        let mask = 1u64 << (e % 64);
        if val {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Clears every bit.
    pub fn zero(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words (64 edges per word, edge `e` at word `e / 64`, bit
    /// `e % 64`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

/// A materialized `votes(e, l)` table maintained incrementally.
#[derive(Clone, Debug)]
pub struct VoteCache {
    /// `counts[e * levels + l]` = number of agreeing pyramids.
    counts: Vec<u16>,
    levels: usize,
    needed: u16,
}

/// One voting flip produced by an update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VoteFlip {
    /// The edge whose voting result changed.
    pub edge: EdgeId,
    /// The granularity level at which it changed.
    pub level: usize,
    /// The new value of `H_l` (true = co-clustered).
    pub now_voted: bool,
}

impl VoteCache {
    /// Builds the full table (`O(m · levels · k)`), one pool task per run of
    /// [`BUILD_EDGES`] edges' rows. Each task fills its own rows and every
    /// cell's value depends only on its own edge and level, so the build is
    /// bit-identical for any `RAYON_NUM_THREADS`.
    pub fn build(g: &Graph, pyr: &Pyramids) -> Self {
        let levels = pyr.num_levels();
        let mut counts = vec![0u16; g.m() * levels];
        rayon::for_each(Chunks::new(&mut counts, BUILD_EDGES * levels), |i, rows| {
            for (off, row) in rows.chunks_mut(levels).enumerate() {
                let (u, v) = g.endpoints((i * BUILD_EDGES + off) as EdgeId);
                for (l, cell) in row.iter_mut().enumerate() {
                    *cell = pyr.votes(u, v, l) as u16;
                }
            }
        });
        Self { counts, levels, needed: pyr.needed_votes() as u16 }
    }

    /// Current vote count of edge `e` at level `l`.
    #[inline]
    pub fn votes(&self, e: EdgeId, l: usize) -> usize {
        self.counts[e as usize * self.levels + l] as usize
    }

    /// The cached voting function `H_l(e)`.
    #[inline]
    pub fn is_voted(&self, e: EdgeId, l: usize) -> bool {
        self.counts[e as usize * self.levels + l] >= self.needed
    }

    /// Repairs the cache after an index update and returns every voting
    /// flip. `affected` is the per-partition affected-node list returned by
    /// [`Pyramids::on_weight_change`] (pyramid-major order); `trigger` is
    /// the updated edge (its seeds may change without any node's seed
    /// moving, so it is always re-evaluated at every level).
    ///
    /// Cost: `O(Σ_{x ∈ affected} deg(x) · k)` — proportional to the update's
    /// own footprint, as the paper claims.
    pub fn apply_update(
        &mut self,
        g: &Graph,
        pyr: &Pyramids,
        trigger: EdgeId,
        affected: &[Vec<NodeId>],
    ) -> Vec<VoteFlip> {
        let levels = self.levels;
        debug_assert_eq!(affected.len(), pyr.k() * levels);
        let mut flips = Vec::new();
        // Touched levels → set of edges to re-evaluate at that level: an
        // edge's vote can only change when an endpoint's seed changed in some
        // partition of the level, and every such endpoint is in that
        // partition's affected set.
        let mut edges_per_level: Vec<Vec<EdgeId>> = vec![Vec::new(); levels];
        for (slot, nodes) in affected.iter().enumerate() {
            let edges = &mut edges_per_level[slot % levels];
            edges.extend(nodes.iter().flat_map(|&x| g.edges_of(x)).map(|(_, e)| e));
        }
        for (l, level_edges) in edges_per_level.iter_mut().enumerate() {
            level_edges.push(trigger);
            level_edges.sort_unstable();
            level_edges.dedup();
            for &e in level_edges.iter() {
                let (u, v) = g.endpoints(e);
                let new = pyr.votes(u, v, l) as u16;
                let idx = e as usize * levels + l;
                let old = self.counts[idx];
                if new != old {
                    let was = old >= self.needed;
                    let now = new >= self.needed;
                    self.counts[idx] = new;
                    if was != now {
                        flips.push(VoteFlip { edge: e, level: l, now_voted: now });
                    }
                }
            }
        }
        flips
    }

    /// Heap bytes used.
    pub fn memory_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u16>()
    }

    /// Full re-check against the index (testing aid): returns the first
    /// stale entry, if any.
    pub fn check_against(&self, g: &Graph, pyr: &Pyramids) -> Result<(), String> {
        for (e, u, v) in g.iter_edges() {
            for l in 0..self.levels {
                let truth = pyr.votes(u, v, l) as u16;
                let cached = self.counts[e as usize * self.levels + l];
                if truth != cached {
                    return Err(format!("edge {e} level {l}: cached {cached} vs actual {truth}"));
                }
            }
        }
        Ok(())
    }
}

/// Watches a set of nodes at one granularity level and reports, after each
/// update, which of them may have a changed cluster (an incident edge's
/// voting result flipped).
#[derive(Clone, Debug)]
pub struct ClusterMonitor {
    cache: VoteCache,
    watched: std::collections::HashSet<NodeId>,
    level: usize,
}

impl ClusterMonitor {
    /// Creates a monitor over `nodes` at granularity `level`.
    pub fn new(g: &Graph, pyr: &Pyramids, nodes: &[NodeId], level: usize) -> Self {
        Self { cache: VoteCache::build(g, pyr), watched: nodes.iter().copied().collect(), level }
    }

    /// Adds a node to the watch list.
    pub fn watch(&mut self, v: NodeId) {
        self.watched.insert(v);
    }

    /// Removes a node from the watch list.
    pub fn unwatch(&mut self, v: NodeId) {
        self.watched.remove(&v);
    }

    /// The underlying vote cache.
    pub fn cache(&self) -> &VoteCache {
        &self.cache
    }

    /// Feeds one update's affected sets; returns the watched nodes whose
    /// cluster membership may have changed (sorted, deduplicated).
    pub fn apply_update(
        &mut self,
        g: &Graph,
        pyr: &Pyramids,
        trigger: EdgeId,
        affected: &[Vec<NodeId>],
    ) -> Vec<NodeId> {
        let flips = self.cache.apply_update(g, pyr, trigger, affected);
        let mut changed = Vec::new();
        for flip in flips {
            if flip.level != self.level {
                continue;
            }
            let (u, v) = g.endpoints(flip.edge);
            for x in [u, v] {
                if self.watched.contains(&x) {
                    changed.push(x);
                }
            }
        }
        changed.sort_unstable();
        changed.dedup();
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_graph::gen::paper_figure2;

    fn fixture() -> (anc_graph::Graph, Vec<f64>, Pyramids) {
        let (g, w) = paper_figure2();
        let pyr = Pyramids::build(&g, &w, 2, 0.7, 42);
        (g, w, pyr)
    }

    #[test]
    fn build_matches_direct_votes() {
        let (g, _, pyr) = fixture();
        let cache = VoteCache::build(&g, &pyr);
        cache.check_against(&g, &pyr).unwrap();
        for (e, u, v) in g.iter_edges() {
            for l in 0..pyr.num_levels() {
                assert_eq!(cache.votes(e, l), pyr.votes(u, v, l));
                assert_eq!(cache.is_voted(e, l), pyr.same_cluster(u, v, l));
            }
        }
    }

    #[test]
    fn incremental_updates_stay_exact() {
        let (g, mut w, mut pyr) = fixture();
        let mut cache = VoteCache::build(&g, &pyr);
        let changes: &[(u32, u32, f64)] =
            &[(5, 6, 0.5), (1, 3, 9.0), (7, 8, 0.1), (7, 8, 12.0), (9, 10, 1.0)];
        for &(a, b, new_w) in changes {
            let e = g.edge_id(a - 1, b - 1).unwrap();
            let old = w[e as usize];
            w[e as usize] = new_w;
            let affected = pyr.on_weight_change(&g, &w, e, old);
            cache.apply_update(&g, &pyr, e, &affected);
            cache
                .check_against(&g, &pyr)
                .unwrap_or_else(|err| panic!("after ({a},{b})→{new_w}: {err}"));
        }
    }

    #[test]
    fn monitor_reports_watched_changes_only() {
        let (g, mut w, mut pyr) = fixture();
        // Watch v5 (idx 4) at the finest level.
        let level = pyr.num_levels() - 1;
        let mut mon = ClusterMonitor::new(&g, &pyr, &[4], level);

        // A change far from v5 (edge v1–v2) should not report it.
        let e = g.edge_id(0, 1).unwrap();
        let old = w[e as usize];
        w[e as usize] = 0.01;
        let affected = pyr.on_weight_change(&g, &w, e, old);
        let changed = mon.apply_update(&g, &pyr, e, &affected);
        assert!(!changed.contains(&4), "v5 unaffected by a far-away change");

        // A drastic change on v5's own edge may flip its votes.
        let e = g.edge_id(4, 6).unwrap(); // (v5, v7)
        let old = w[e as usize];
        w[e as usize] = 0.0001;
        let affected = pyr.on_weight_change(&g, &w, e, old);
        let _ = mon.apply_update(&g, &pyr, e, &affected);
        mon.cache().check_against(&g, &pyr).unwrap();
    }

    #[test]
    fn watch_unwatch() {
        let (g, _, pyr) = fixture();
        let mut mon = ClusterMonitor::new(&g, &pyr, &[], 0);
        mon.watch(3);
        mon.unwatch(3);
        mon.watch(5);
        // No updates fed: nothing to report; structure is sane.
        assert!(mon.cache().memory_bytes() > 0);
    }
}
