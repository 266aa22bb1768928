//! The incremental cluster-query cache.
//!
//! [`crate::cluster::cluster_all`] answers every query cold: it re-evaluates
//! the voting function `H_l` on all `m` edges against all `k` partitions of
//! the level and re-runs component extraction from scratch. Yet the bounded
//! update algorithms (Section V, Algorithms 1–3) already report which nodes
//! each update wrote, and the paper's Section V-C Remarks promise votes
//! maintained "at a cost equal to the reporting". [`ClusterCache`] makes a
//! cached query cost what *changed* since the level was last asked:
//!
//! * per queried level it keeps the **seed rows** — the `k` seeds of every
//!   node as of the last vote (`n·k` ids, row-major) — a packed voted-edge
//!   bitset ([`crate::vote::EdgeBits`]) that always equals the vote of its
//!   edges' two rows, the voted-subgraph degree of every node, and the
//!   extracted [`Clustering`]s (shared as [`Arc`]s, so repeat queries are
//!   allocation-free);
//! * the **cold fill** copies the rows out of the index and runs the
//!   `O(m·k)` voting pass in parallel — each pool task writes its own run
//!   of bitset words in place, so the bitset is bit-identical for any
//!   thread count;
//! * on every index update, the affected node sets returned by
//!   [`crate::Pyramids::on_weight_change`]`{,_batch_traced}` are merely
//!   appended to the level's bounded per-pyramid **pending** lists. A repair
//!   names every node it writes, far more than the nodes whose *seed* it
//!   moves, and a seed that moved may have moved back — so nothing is
//!   decided on the ingest path;
//! * a query compares the pending nodes against the live partitions. Only a
//!   node whose seed really differs from its row is **changed**: its row is
//!   brought current and its incident edges are re-voted from two rows. An
//!   edge's vote can only change when an endpoint's seed moved in some
//!   partition, and every such endpoint was named, so this is complete;
//! * when votes flipped, the clusterings are repaired over the **region**:
//!   the voted-subgraph components that hold a flipped endpoint. Every
//!   other component has the edges and the voted degrees it had, so in both
//!   modes its clusters are unchanged; the region gets fresh components
//!   (even) and is re-grown in rank order (power), and labels are put back
//!   in first-appearance order. One path serves merges, splits and both at
//!   once, and it costs a cold extraction only when the region is the whole
//!   graph. When the changed nodes own more than a threshold share of the
//!   adjacency the level is refilled wholesale instead (the parallel cold
//!   pass is then cheaper than re-voting edge by edge).
//!
//! Reads are snapshot-consistent: [`QueryStats::generation`] advances with
//! every index-mutating update, so two queries returning the same
//! generation saw the same logical index state (and in fact share the same
//! `Arc`). The cache is deliberately *not* serialized with engine snapshots
//! — a restored engine starts cold and refills lazily (see
//! [`crate::persist`]).

use std::sync::Arc;

use anc_graph::{EdgeId, Graph, NodeId, NO_NODE};
use anc_metrics::{Clustering, NOISE};
use rayon::Chunks;

use crate::cluster::{even_clustering_with, grow_power_clusters, ClusterMode};
use crate::pyramid::Pyramids;
use crate::vote::EdgeBits;

/// Share of the graph's `2m` adjacency slots that the changed nodes may own
/// before a query refills the whole level instead of repairing it: compared
/// with the slots they own ([`QueryStats::dirty_edges`]).
pub const DIRTY_REBUILD_FRACTION: f64 = 0.25;

/// Bitset words per pool task of the cold voting pass (1 024 edges).
const FILL_WORDS: usize = 16;

/// What a [`ClusterCache::query`] had to do to answer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueryDecision {
    /// Served entirely from cache: no seed moved since the last vote,
    /// clustering already extracted.
    #[default]
    Hit,
    /// Bitset was current but the requested mode's clustering had not been
    /// extracted yet (e.g. first `Even` query after `Power` ones).
    Extract,
    /// Seeds moved: the changed nodes' edges were re-voted and, if a vote
    /// flipped, the clusterings repaired over the flipped region.
    Repair,
    /// The changed nodes exceeded the threshold: the level was refilled by
    /// the parallel cold pass and re-extracted.
    Rebuild,
    /// First query of this level since construction or invalidation.
    ColdFill,
}

/// Observability record of one [`ClusterCache::query`] (the lifetime
/// counters are [`ClusterCache::hits`] and [`ClusterCache::misses`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Cache generation at answer time. Advances with every index-mutating
    /// update fed to the cache, so two answers with equal generation are
    /// reads of the same logical index state.
    pub generation: u64,
    /// The answered level's fill epoch: bumped whenever the level's votes
    /// and clusterings are recomputed from the index (cold fill, threshold
    /// rebuild) rather than repaired. A repair — merge or split — keeps it.
    pub epoch: u64,
    /// Nodes whose seed differed from the cached row in some pyramid when
    /// the query arrived (each node once).
    pub changed_nodes: usize,
    /// Adjacency slots of the changed nodes (`Σ deg`): the edges that had to
    /// be re-voted, one between two changed nodes counted twice. Nodes a
    /// repair named but whose seed did not move contribute nothing.
    pub dirty_edges: usize,
    /// Edges actually re-voted by this query.
    pub revoted: usize,
    /// Re-voted edges whose voting result flipped.
    pub flips: usize,
    /// Nodes of the voted-subgraph components re-extracted because they
    /// hold a flipped endpoint (0 when no vote flipped).
    pub region_nodes: usize,
    /// The repair-vs-rebuild decision taken.
    pub decision: QueryDecision,
}

/// The vote of one edge from its endpoints' seed rows: at least `needed`
/// pyramids give both the same seed. Two unreachable endpoints
/// ([`NO_NODE`] twice) agree on nothing.
#[inline]
fn rows_vote(rows: &[NodeId], k: usize, needed: usize, u: NodeId, v: NodeId) -> bool {
    let (ru, rv) = (&rows[u as usize * k..][..k], &rows[v as usize * k..][..k]);
    ru.iter().zip(rv).filter(|&(a, b)| a == b && *a != NO_NODE).count() >= needed
}

/// Per-level cached state (materialized on first query of the level).
#[derive(Clone, Debug, Default)]
struct LevelCache {
    /// Packed voting results: `voted[e]` is the vote of `e`'s two rows.
    voted: EdgeBits,
    /// `rows[v·k + p]`: the seed of node `v` in pyramid `p` as of the last
    /// vote. Differs from the live partition only for a pending pair.
    rows: Vec<NodeId>,
    /// Per pyramid, the nodes repairs have named since the last query, with
    /// repeats; compacted past `2n` entries, so `O(n·k)` however long the
    /// level goes unqueried.
    pending: Vec<Vec<NodeId>>,
    /// Each node's degree in the voted subgraph, maintained at vote flips —
    /// power extraction ranks by this without recounting.
    kept_deg: Vec<u32>,
    even: Option<Arc<Clustering>>,
    power: Option<Arc<Clustering>>,
    epoch: u64,
}

/// A way to break one cached level, for the negative invariant tests. Not
/// part of the public API.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub enum CacheCorruption {
    /// Overwrite the row entry of `(node, pyramid)` with another seed
    /// without marking the pair pending.
    StaleRow(NodeId, usize),
    /// Flip the voted bit of an edge.
    FlippedVote(EdgeId),
    /// Add one to a node's voted degree.
    KeptDeg(NodeId),
}

/// The incremental cluster-query cache (one per [`crate::AncEngine`]).
///
/// Not serialized with snapshots: a restored engine constructs an empty
/// cache and refills it lazily on first query.
#[derive(Debug, Default)]
pub struct ClusterCache {
    levels: usize,
    per_level: Vec<Option<Box<LevelCache>>>,
    generation: u64,
    hits: u64,
    misses: u64,
    /// Query scratch, all clear between queries: the changed nodes, the
    /// flipped edges, the region (component by component, `bounds` holding
    /// each component's start) and a node mark shared by both phases.
    changed: Vec<NodeId>,
    flip_buf: Vec<EdgeId>,
    region: Vec<NodeId>,
    bounds: Vec<usize>,
    node_mark: Vec<bool>,
    /// Extraction scratch (rank order, DFS stack, labels).
    order_buf: Vec<NodeId>,
    stack_buf: Vec<NodeId>,
    label_buf: Vec<u32>,
}

impl ClusterCache {
    /// An empty cache for an index with `levels` granularity levels.
    pub fn new(levels: usize) -> Self {
        let mut per_level = Vec::with_capacity(levels);
        per_level.resize_with(levels, || None);
        Self { levels, per_level, ..Default::default() }
    }

    /// Number of levels covered.
    pub fn num_levels(&self) -> usize {
        self.levels
    }

    /// Current generation (see [`QueryStats::generation`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cumulative queries served from an already-cached `Arc`.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative queries that had to (re)extract a clustering.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether any level has been materialized — when false, updates need
    /// no affected-set collection at all.
    pub fn has_materialized_levels(&self) -> bool {
        self.per_level.iter().any(|l| l.is_some())
    }

    /// Whether `level` currently holds a materialized voted-edge bitset.
    pub fn is_materialized(&self, level: usize) -> bool {
        self.level(level).is_some()
    }

    fn level(&self, level: usize) -> Option<&LevelCache> {
        self.per_level.get(level).and_then(|l| l.as_deref())
    }

    /// The per-pyramid pending lists of `level` (`None` if not
    /// materialized): nodes named by repairs since the last query, with
    /// repeats. Only these `(node, pyramid)` pairs may hold a stale row.
    pub fn pending_nodes(&self, level: usize) -> Option<&[Vec<NodeId>]> {
        self.level(level).map(|lc| lc.pending.as_slice())
    }

    /// Entries pending at `level` over all pyramids (`None` if not
    /// materialized).
    pub fn pending_count(&self, level: usize) -> Option<usize> {
        self.level(level).map(|lc| lc.pending.iter().map(Vec::len).sum())
    }

    /// The materialized voted-edge bitset of `level`, if any: every bit is
    /// the vote of its edge's two [`Self::seed_rows`].
    pub fn voted_bits(&self, level: usize) -> Option<&EdgeBits> {
        self.level(level).map(|lc| &lc.voted)
    }

    /// The seed rows of `level`, if materialized: entry `v·k + p` is node
    /// `v`'s seed in pyramid `p` as of the last vote.
    pub fn seed_rows(&self, level: usize) -> Option<&[NodeId]> {
        self.level(level).map(|lc| lc.rows.as_slice())
    }

    /// The maintained voted-subgraph degree table of `level`, if
    /// materialized.
    pub fn voted_degrees(&self, level: usize) -> Option<&[u32]> {
        self.level(level).map(|lc| lc.kept_deg.as_slice())
    }

    /// The cached clustering of `(level, mode)` if it is currently
    /// extracted (shares the `Arc` queries return).
    pub fn cached(&self, level: usize, mode: ClusterMode) -> Option<Arc<Clustering>> {
        let lc = self.level(level)?;
        match mode {
            ClusterMode::Even => lc.even.clone(),
            ClusterMode::Power => lc.power.clone(),
        }
    }

    /// Records index updates applied without affected-set tracing (legal
    /// only while nothing is materialized — there is no cached state to
    /// bring current, but reads must still observe a new generation).
    pub fn note_untracked_updates(&mut self) {
        self.generation += 1;
    }

    /// Drops every materialized level (the index was rebuilt from scratch,
    /// so the seed rows have no baseline to be compared against) and
    /// advances the generation.
    pub fn invalidate_all(&mut self) {
        self.generation += 1;
        for slot in self.per_level.iter_mut() {
            *slot = None;
        }
    }

    /// Drops `level` if it is materialized, and then advances the
    /// generation: the level went stale, so repairs stop naming its nodes,
    /// or it was rebuilt by a sync, so its rows have no baseline.
    pub(crate) fn invalidate_level(&mut self, level: usize) {
        if self.per_level[level].take().is_some() {
            self.generation += 1;
        }
    }

    /// Breaks the cached state of a materialized `level` as `what` says.
    #[doc(hidden)]
    pub fn corrupt_for_test(&mut self, level: usize, what: CacheCorruption) {
        let Some(Some(lc)) = self.per_level.get_mut(level) else {
            return;
        };
        match what {
            CacheCorruption::StaleRow(v, p) => {
                let k = lc.pending.len();
                let row = &mut lc.rows[v as usize * k + p];
                *row = if *row == v { NO_NODE } else { v };
            }
            CacheCorruption::FlippedVote(e) => lc.voted.set(e, !lc.voted.get(e)),
            CacheCorruption::KeptDeg(v) => lc.kept_deg[v as usize] += 1,
        }
    }

    /// Feeds one update's affected-node sets (pyramid-major partition
    /// order, as returned by [`Pyramids::on_weight_change`] or filled by
    /// [`Pyramids::on_weight_change_batch_traced`]): the nodes named at a
    /// materialized level join that level's pending lists, to be compared
    /// with the index by the next query. Advances the generation iff any
    /// set is non-empty — a pure-noop batch leaves the cache untouched.
    ///
    /// Hot-path cost: one append per named node of a materialized level,
    /// allocation-free after warm-up.
    pub fn note_affected(&mut self, g: &Graph, affected: &[Vec<NodeId>]) {
        if affected.iter().all(|a| a.is_empty()) {
            return;
        }
        self.generation += 1;
        let levels = self.levels;
        let cap = 2 * g.n();
        for (slot, nodes) in affected.iter().enumerate() {
            if nodes.is_empty() {
                continue;
            }
            let Some(Some(lc)) = self.per_level.get_mut(slot % levels) else {
                continue;
            };
            let list = &mut lc.pending[slot / levels];
            list.extend_from_slice(nodes);
            if list.len() > cap {
                list.sort_unstable();
                list.dedup();
            }
        }
    }

    /// Answers `cluster_all(level, mode)` from the cache, repairing or
    /// (re)filling as needed. The returned `Arc` is shared with the cache —
    /// repeat queries at the same generation return the same allocation.
    /// Panics if `level` is stale in `pyr`.
    pub fn query(
        &mut self,
        g: &Graph,
        pyr: &Pyramids,
        level: usize,
        mode: ClusterMode,
    ) -> (Arc<Clustering>, QueryStats) {
        pyr.assert_live(level);
        let mut stats = QueryStats { generation: self.generation, ..Default::default() };
        let mut lc = match self.per_level[level].take() {
            Some(mut lc) => {
                self.sync_rows(g, pyr, level, &mut lc, &mut stats);
                lc
            }
            None => {
                stats.decision = QueryDecision::ColdFill;
                let mut lc = Box::default();
                self.fill_level(g, pyr, level, &mut lc);
                lc
            }
        };

        if !self.changed.is_empty() {
            let threshold = (DIRTY_REBUILD_FRACTION * (2 * g.m()) as f64).floor() as usize;
            if stats.dirty_edges > threshold {
                stats.decision = QueryDecision::Rebuild;
                stats.revoted = g.m();
                self.fill_level(g, pyr, level, &mut lc);
            } else {
                stats.decision = QueryDecision::Repair;
                self.revote_changed(g, pyr, &mut lc, &mut stats);
            }
            for v in self.changed.drain(..) {
                self.node_mark[v as usize] = false;
            }
            if !self.flip_buf.is_empty() {
                self.repair_region(g, &mut lc, &mut stats);
            }
        }

        let had_cached = match mode {
            ClusterMode::Even => lc.even.is_some(),
            ClusterMode::Power => lc.power.is_some(),
        };
        if had_cached {
            self.hits += 1;
        } else {
            self.misses += 1;
            if stats.decision == QueryDecision::Hit {
                stats.decision = QueryDecision::Extract;
            }
        }
        let clustering = self.extract(g, &mut lc, mode);

        stats.epoch = lc.epoch;
        self.per_level[level] = Some(lc);
        (clustering, stats)
    }

    /// Drains the pending lists against the live partitions: a row entry
    /// that differs from the index is brought current and its node collected
    /// (once, marked) in `self.changed`.
    fn sync_rows(
        &mut self,
        g: &Graph,
        pyr: &Pyramids,
        level: usize,
        lc: &mut LevelCache,
        stats: &mut QueryStats,
    ) {
        let k = pyr.k();
        self.node_mark.resize(g.n(), false);
        for (p, list) in lc.pending.iter_mut().enumerate() {
            let part = pyr.partition(p, level);
            for v in list.drain(..) {
                let (row, live) = (&mut lc.rows[v as usize * k + p], part.seed_of(v));
                if *row != live {
                    *row = live;
                    if !std::mem::replace(&mut self.node_mark[v as usize], true) {
                        self.changed.push(v);
                        stats.dirty_edges += g.degree(v);
                    }
                }
            }
        }
        stats.changed_nodes = self.changed.len();
    }

    /// Re-votes the edges of the changed nodes from their rows (an edge
    /// between two of them once, from the smaller id), maintaining the
    /// bitset and the voted degrees; flipped edges land in `self.flip_buf`.
    fn revote_changed(
        &mut self,
        g: &Graph,
        pyr: &Pyramids,
        lc: &mut LevelCache,
        stats: &mut QueryStats,
    ) {
        let (k, needed) = (pyr.k(), pyr.needed_votes());
        for &v in &self.changed {
            for (y, e) in g.edges_of(v) {
                if self.node_mark[y as usize] && y < v {
                    continue;
                }
                stats.revoted += 1;
                let now = rows_vote(&lc.rows, k, needed, v, y);
                if now != lc.voted.get(e) {
                    lc.voted.set(e, now);
                    for x in [v, y] {
                        let deg = &mut lc.kept_deg[x as usize];
                        *deg = if now { *deg + 1 } else { *deg - 1 };
                    }
                    self.flip_buf.push(e);
                }
            }
        }
        stats.flips = self.flip_buf.len();
    }

    /// Repairs the cached clusterings after vote flips. The region — every
    /// voted-subgraph component holding a flipped endpoint — is found by
    /// BFS from those endpoints; a component outside it has the edges and
    /// the voted degrees it had before the flips, hence the clusters it had,
    /// in either mode. Inside, even clustering takes the BFS components and
    /// power clustering re-grows in rank order; ids past `n` keep the new
    /// clusters apart from the old labels until `from_labels` puts all of
    /// them back in first-appearance order.
    fn repair_region(&mut self, g: &Graph, lc: &mut LevelCache, stats: &mut QueryStats) {
        let LevelCache { voted, kept_deg, even, power, .. } = lc;
        for e in self.flip_buf.drain(..) {
            let (a, b) = g.endpoints(e);
            for s in [a, b] {
                if std::mem::replace(&mut self.node_mark[s as usize], true) {
                    continue;
                }
                let mut at = self.region.len();
                self.bounds.push(at);
                self.region.push(s);
                while let Some(&x) = self.region.get(at) {
                    at += 1;
                    for (y, e) in g.edges_of(x) {
                        if voted.get(e) && !std::mem::replace(&mut self.node_mark[y as usize], true)
                        {
                            self.region.push(y);
                        }
                    }
                }
            }
        }
        self.bounds.push(self.region.len());
        stats.region_nodes = self.region.len();
        let fresh = g.n() as u32;

        if let Some(old) = even.take() {
            self.label_buf.clear();
            self.label_buf.extend_from_slice(old.labels());
            for (c, w) in self.bounds.windows(2).enumerate() {
                for &x in &self.region[w[0]..w[1]] {
                    self.label_buf[x as usize] = fresh + c as u32;
                }
            }
            *even = Some(Arc::new(Clustering::from_labels(&self.label_buf)));
        }
        for &x in &self.region {
            self.node_mark[x as usize] = false;
        }
        if let Some(old) = power.take() {
            self.label_buf.clear();
            self.label_buf.extend_from_slice(old.labels());
            for &x in &self.region {
                self.label_buf[x as usize] = NOISE;
            }
            grow_power_clusters(
                g,
                |e| voted.get(e),
                kept_deg,
                &mut self.region,
                &mut self.stack_buf,
                &mut self.label_buf,
                fresh,
            );
            *power = Some(Arc::new(Clustering::from_labels(&self.label_buf)));
        }
        self.region.clear();
        self.bounds.clear();
    }

    /// (Re)fills a level from the index and drops its clusterings: the rows
    /// are copied out of the partitions, then the voting pass writes the
    /// packed bitset in place, one pool task per run of [`FILL_WORDS`]
    /// words, and the voted degrees are recounted serially — bit-identical
    /// for any `RAYON_NUM_THREADS`.
    fn fill_level(&mut self, g: &Graph, pyr: &Pyramids, level: usize, lc: &mut LevelCache) {
        let (n, m, k, needed) = (g.n(), g.m(), pyr.k(), pyr.needed_votes());
        lc.rows.clear();
        lc.rows.extend(
            (0..n as NodeId).flat_map(|v| (0..k).map(move |p| pyr.partition(p, level).seed_of(v))),
        );
        lc.pending.resize_with(k, Vec::new);
        lc.pending.iter_mut().for_each(Vec::clear);
        lc.voted = EdgeBits::with_len(m);
        let rows = lc.rows.as_slice();
        rayon::for_each(Chunks::new(lc.voted.words_mut(), FILL_WORDS), |i, words| {
            for (j, word) in words.iter_mut().enumerate() {
                let base = (i * FILL_WORDS + j) * 64;
                let mut bits = 0u64;
                for bit in 0..(m - base).min(64) {
                    let (u, v) = g.endpoints((base + bit) as EdgeId);
                    if rows_vote(rows, k, needed, u, v) {
                        bits |= 1u64 << bit;
                    }
                }
                *word = bits;
            }
        });
        lc.kept_deg.clear();
        lc.kept_deg.resize(n, 0);
        for (e, u, v) in g.iter_edges() {
            if lc.voted.get(e) {
                lc.kept_deg[u as usize] += 1;
                lc.kept_deg[v as usize] += 1;
            }
        }
        lc.even = None;
        lc.power = None;
        lc.epoch += 1;
    }

    /// Returns the requested mode's clustering, extracting it from the
    /// bitset if not cached (even: filtered components; power: rank scan
    /// over the maintained `kept_deg`, no voting pass).
    fn extract(&mut self, g: &Graph, lc: &mut LevelCache, mode: ClusterMode) -> Arc<Clustering> {
        match mode {
            ClusterMode::Even => {
                if let Some(c) = &lc.even {
                    return c.clone();
                }
                let c = Arc::new(even_clustering_with(g, |e| lc.voted.get(e)));
                lc.even = Some(c.clone());
                c
            }
            ClusterMode::Power => {
                if let Some(c) = &lc.power {
                    return c.clone();
                }
                let voted = &lc.voted;
                self.order_buf.clear();
                self.order_buf.extend(0..g.n() as NodeId);
                self.label_buf.clear();
                self.label_buf.resize(g.n(), NOISE);
                grow_power_clusters(
                    g,
                    |e| voted.get(e),
                    &lc.kept_deg,
                    &mut self.order_buf,
                    &mut self.stack_buf,
                    &mut self.label_buf,
                    0,
                );
                let c = Arc::new(Clustering::from_labels(&self.label_buf));
                lc.power = Some(c.clone());
                c
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster_all;
    use anc_graph::gen::{connected_caveman, paper_figure2};

    fn fixture() -> (Graph, Vec<f64>, Pyramids) {
        let lg = connected_caveman(4, 5);
        let g = lg.graph;
        let w: Vec<f64> = g
            .iter_edges()
            .map(|(_, u, v)| if lg.labels[u as usize] == lg.labels[v as usize] { 0.3 } else { 9.0 })
            .collect();
        let pyr = Pyramids::build(&g, &w, 3, 0.7, 13);
        (g, w, pyr)
    }

    #[test]
    fn cold_fill_matches_cold_recompute_everywhere() {
        let (g, _, pyr) = fixture();
        let mut cache = ClusterCache::new(pyr.num_levels());
        for level in 0..pyr.num_levels() {
            for mode in [ClusterMode::Even, ClusterMode::Power] {
                let (c, stats) = cache.query(&g, &pyr, level, mode);
                assert_eq!(*c, cluster_all(&g, &pyr, level, mode), "level {level} {mode:?}");
                assert!(matches!(stats.decision, QueryDecision::ColdFill | QueryDecision::Extract));
            }
        }
    }

    #[test]
    fn repeat_query_is_a_pointer_hit() {
        let (g, _, pyr) = fixture();
        let mut cache = ClusterCache::new(pyr.num_levels());
        let l = pyr.default_level();
        let (a, s0) = cache.query(&g, &pyr, l, ClusterMode::Power);
        let hits = cache.hits();
        let (b, s1) = cache.query(&g, &pyr, l, ClusterMode::Power);
        assert!(Arc::ptr_eq(&a, &b), "repeat query must share the Arc");
        assert_eq!(s1.decision, QueryDecision::Hit);
        assert_eq!(s1.generation, s0.generation);
        assert_eq!(cache.hits(), hits + 1);
    }

    #[test]
    fn dirty_translation_repairs_to_cold_truth() {
        let (g, mut w, mut pyr) = fixture();
        let mut cache = ClusterCache::new(pyr.num_levels());
        // Warm every level.
        for level in 0..pyr.num_levels() {
            cache.query(&g, &pyr, level, ClusterMode::Power);
            cache.query(&g, &pyr, level, ClusterMode::Even);
        }
        let gen0 = cache.generation();
        // A drastic change: flip a heavy bridge to the lightest weight.
        for (step, e) in [0u32, 7, 13, 20].into_iter().enumerate() {
            let old = w[e as usize];
            w[e as usize] = if step % 2 == 0 { 0.05 } else { old * 20.0 };
            let affected = pyr.on_weight_change(&g, &w, e, old);
            cache.note_affected(&g, &affected);
            for level in 0..pyr.num_levels() {
                for mode in [ClusterMode::Even, ClusterMode::Power] {
                    let (c, _) = cache.query(&g, &pyr, level, mode);
                    assert_eq!(
                        *c,
                        cluster_all(&g, &pyr, level, mode),
                        "step {step} level {level} {mode:?}"
                    );
                }
            }
        }
        assert!(cache.generation() > gen0, "index-moving updates must advance the generation");
    }

    #[test]
    fn empty_affected_sets_leave_cache_untouched() {
        let (g, _, pyr) = fixture();
        let mut cache = ClusterCache::new(pyr.num_levels());
        let l = pyr.default_level();
        let (a, _) = cache.query(&g, &pyr, l, ClusterMode::Power);
        let gen = cache.generation();
        let empty = vec![Vec::new(); pyr.k() * pyr.num_levels()];
        cache.note_affected(&g, &empty);
        assert_eq!(cache.generation(), gen, "noop must not bump the generation");
        assert_eq!(cache.pending_count(l), Some(0));
        let (b, stats) = cache.query(&g, &pyr, l, ClusterMode::Power);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(stats.decision, QueryDecision::Hit);
    }

    /// Satellite regression: a batch in which every delta is short-circuited
    /// by the exact no-op precheck must leave the cache completely untouched
    /// — no generation bump, nothing pending, same `Arc` on re-query.
    #[test]
    fn pure_noop_batch_marks_nothing_dirty() {
        // Triangle with one overpriced edge: a–c can never be a shortest-path
        // tree edge in any partition (the 2-hop detour always wins), so a
        // weight *increase* on it is inert in every partition by the
        // `noop_weight_change` precheck — deterministically, for any seeds.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let e = g.edge_id(0, 2).expect("triangle edge");
        let mut w = vec![1.0; g.m()];
        w[e as usize] = 10.0;
        let mut pyr = Pyramids::build(&g, &w, 3, 0.7, 5);
        let mut cache = ClusterCache::new(pyr.num_levels());
        let l = pyr.default_level();
        let (before, _) = cache.query(&g, &pyr, l, ClusterMode::Power);
        let gen = cache.generation();
        let (old, new_w) = (10.0, 40.0);
        w[e as usize] = new_w;
        // Level 0 is weight-free and never repaired; the weighted levels
        // must all find the delta inert.
        for p in 0..pyr.k() {
            for lv in 1..pyr.num_levels() {
                assert!(
                    pyr.partition(p, lv).noop_weight_change(&g, &w, e, old),
                    "overpriced triangle edge must be inert in every weighted partition"
                );
            }
        }
        let mut traces = vec![Vec::new(); pyr.k() * pyr.num_levels()];
        let rs = pyr.on_weight_change_batch_traced(&g, &w, &[(e, old, new_w)], &mut traces);
        assert_eq!(rs.updates, 0, "every partition must skip the inert delta");
        assert!(traces.iter().all(|t| t.is_empty()), "noop trace must be empty");
        cache.note_affected(&g, &traces);
        assert_eq!(cache.generation(), gen, "pure-noop batch must not bump the generation");
        assert_eq!(cache.pending_count(l), Some(0));
        let (after, stats) = cache.query(&g, &pyr, l, ClusterMode::Power);
        assert!(Arc::ptr_eq(&before, &after), "clustering pointer must be unchanged");
        assert_eq!(stats.decision, QueryDecision::Hit);
    }

    #[test]
    fn traced_batch_repair_feeds_equivalent_dirty_sets() {
        // The grouped traced repair must leave the cache equivalent to cold
        // recomputation, exactly like the per-update path.
        let (g, mut w, mut pyr) = fixture();
        let mut cache = ClusterCache::new(pyr.num_levels());
        for level in 0..pyr.num_levels() {
            cache.query(&g, &pyr, level, ClusterMode::Even);
            cache.query(&g, &pyr, level, ClusterMode::Power);
        }
        let mut traces = vec![Vec::new(); pyr.k() * pyr.num_levels()];
        let mut deltas = Vec::new();
        for (step, e) in [2u32, 9, 17, 4].into_iter().enumerate() {
            let old = w[e as usize];
            let new_w = if step % 2 == 0 { old * 0.1 } else { old * 8.0 };
            w[e as usize] = new_w;
            deltas.push((e, old, new_w));
        }
        let _ = pyr.on_weight_change_batch_traced(&g, &w, &deltas, &mut traces);
        cache.note_affected(&g, &traces);
        for level in 0..pyr.num_levels() {
            for mode in [ClusterMode::Even, ClusterMode::Power] {
                let (c, _) = cache.query(&g, &pyr, level, mode);
                assert_eq!(*c, cluster_all(&g, &pyr, level, mode), "level {level} {mode:?}");
            }
        }
    }

    /// Updates whose moved nodes own more than [`DIRTY_REBUILD_FRACTION`] of
    /// the `2m` adjacency slots make the next query refill the level.
    #[test]
    fn wide_seed_moves_force_rebuild_and_stay_correct() {
        let (g, mut w, mut pyr) = fixture();
        let mut cache = ClusterCache::new(pyr.num_levels());
        let l = pyr.default_level();
        let (_, s0) = cache.query(&g, &pyr, l, ClusterMode::Power);
        // Scatter every weight over [0.05, 96], bridges and cliques alike.
        for e in 0..g.m() as EdgeId {
            let old = w[e as usize];
            w[e as usize] = 0.05 + (e * 7_919 % 97) as f64;
            let affected = pyr.on_weight_change(&g, &w, e, old);
            cache.note_affected(&g, &affected);
        }
        let (c, stats) = cache.query(&g, &pyr, l, ClusterMode::Power);
        let threshold = (DIRTY_REBUILD_FRACTION * (2 * g.m()) as f64) as usize;
        assert!(stats.dirty_edges > threshold, "{stats:?}");
        assert_eq!(stats.decision, QueryDecision::Rebuild);
        assert!(stats.epoch > s0.epoch, "rebuild must advance the epoch");
        assert_eq!(*c, cluster_all(&g, &pyr, l, ClusterMode::Power));
    }

    /// A repair names every node it writes; only a node whose *seed* moved
    /// may cost the query anything, and a split or a merge keeps the epoch.
    #[test]
    fn named_but_unmoved_nodes_cost_nothing() {
        let (g, mut w, mut pyr) = fixture();
        let mut cache = ClusterCache::new(pyr.num_levels());
        let l = pyr.num_levels() - 1;
        let (before, s0) = cache.query(&g, &pyr, l, ClusterMode::Even);
        // Nudging a weight moves distances (nodes are named) but no seed.
        let e = 3u32;
        let old = w[e as usize];
        w[e as usize] = old * 1.0001;
        let affected = pyr.on_weight_change(&g, &w, e, old);
        cache.note_affected(&g, &affected);
        let named = cache.pending_count(l).expect("materialized");
        let (after, s1) = cache.query(&g, &pyr, l, ClusterMode::Even);
        if named > 0 && s1.changed_nodes == 0 {
            assert!(Arc::ptr_eq(&before, &after));
            assert_eq!(s1.decision, QueryDecision::Hit);
            assert_eq!((s1.dirty_edges, s1.revoted, s1.region_nodes), (0, 0, 0));
        }
        assert_eq!(cache.pending_count(l), Some(0), "a query drains the pending lists");
        assert_eq!(s1.epoch, s0.epoch);
        assert_eq!(*after, cluster_all(&g, &pyr, l, ClusterMode::Even));
    }

    /// A component no seed reaches has `NO_NODE` in every row; two such rows
    /// must not vote their edge in, cold or after a repair.
    #[test]
    fn unreachable_endpoints_never_vote() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut w = vec![1.0; g.m()];
        let mut pyr = Pyramids::build(&g, &w, 3, 0.7, 3);
        let mut cache = ClusterCache::new(pyr.num_levels());
        // Level 0 has one seed per pyramid: one of the two paths is unreachable.
        let (c, _) = cache.query(&g, &pyr, 0, ClusterMode::Even);
        assert_eq!(*c, cluster_all(&g, &pyr, 0, ClusterMode::Even));
        assert!(c.num_clusters() > 2, "an unseeded path must fall apart into singletons");
        for e in 0..g.m() as EdgeId {
            let old = w[e as usize];
            w[e as usize] = 0.25;
            let affected = pyr.on_weight_change(&g, &w, e, old);
            cache.note_affected(&g, &affected);
            for level in 0..pyr.num_levels() {
                for mode in [ClusterMode::Even, ClusterMode::Power] {
                    let (c, _) = cache.query(&g, &pyr, level, mode);
                    assert_eq!(*c, cluster_all(&g, &pyr, level, mode), "edge {e} level {level}");
                }
            }
            crate::invariant::check_cluster_cache(&g, &pyr, &cache).unwrap();
        }
    }

    #[test]
    fn invalidate_drops_all_levels() {
        let (g, _, pyr) = fixture();
        let mut cache = ClusterCache::new(pyr.num_levels());
        cache.query(&g, &pyr, 0, ClusterMode::Even);
        assert!(cache.has_materialized_levels());
        let gen = cache.generation();
        cache.invalidate_all();
        assert!(!cache.has_materialized_levels());
        assert!(cache.generation() > gen);
        let (c, stats) = cache.query(&g, &pyr, 0, ClusterMode::Even);
        assert_eq!(stats.decision, QueryDecision::ColdFill);
        assert_eq!(*c, cluster_all(&g, &pyr, 0, ClusterMode::Even));
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        for (n, edges) in [(1usize, vec![]), (2, vec![(0u32, 1u32)]), (0, vec![])] {
            let g = Graph::from_edges(n, &edges);
            let w = vec![1.0; g.m()];
            if n == 0 {
                // Pyramids::build requires n ≥ 1 seeds per level; skip.
                continue;
            }
            let pyr = Pyramids::build(&g, &w, 2, 0.7, 1);
            let mut cache = ClusterCache::new(pyr.num_levels());
            for mode in [ClusterMode::Even, ClusterMode::Power] {
                let (c, _) = cache.query(&g, &pyr, 0, mode);
                assert_eq!(*c, cluster_all(&g, &pyr, 0, mode));
            }
        }
    }

    #[test]
    fn paper_figure_stream_stays_equivalent() {
        let (g, mut w) = paper_figure2();
        let mut pyr = Pyramids::build(&g, &w, 2, 0.7, 42);
        let mut cache = ClusterCache::new(pyr.num_levels());
        for level in 0..pyr.num_levels() {
            cache.query(&g, &pyr, level, ClusterMode::Even);
        }
        let changes: &[(u32, u32, f64)] =
            &[(5, 6, 0.5), (1, 3, 9.0), (7, 8, 0.1), (7, 8, 12.0), (9, 10, 1.0)];
        for &(a, b, new_w) in changes {
            let e = g.edge_id(a - 1, b - 1).expect("paper edge");
            let old = w[e as usize];
            w[e as usize] = new_w;
            let affected = pyr.on_weight_change(&g, &w, e, old);
            cache.note_affected(&g, &affected);
            for level in 0..pyr.num_levels() {
                for mode in [ClusterMode::Even, ClusterMode::Power] {
                    let (c, _) = cache.query(&g, &pyr, level, mode);
                    assert_eq!(*c, cluster_all(&g, &pyr, level, mode), "({a},{b}) → {new_w}");
                }
            }
        }
    }
}
