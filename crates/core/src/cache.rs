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
//! * when votes flipped, the cached **even** clustering is repaired from the
//!   flips alone: each removed edge starts two BFS fronts from its ends, one
//!   node in turn, and a front that runs out before they meet is a
//!   component split off; additions union component ids; and the labels are
//!   renumbered in first-appearance order from each component's smallest
//!   node (kept per label), by a merge over the clusters and one gather
//!   over `n` — skipped, with the cached `Arc` returned as it is, when no
//!   label moved. The cached **power** clustering is re-grown in rank order
//!   over the **region**: the voted-subgraph components that hold a flipped
//!   endpoint (every other component has the edges and the voted degrees it
//!   had, so its clusters are unchanged). When the changed nodes own more
//!   than a threshold share of the adjacency the level is refilled
//!   wholesale instead (the parallel cold pass is then cheaper than
//!   re-voting edge by edge).
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
    /// flipped, the cached clusterings repaired (even from the flips, power
    /// over the flipped region).
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
    /// Nodes the repair walked (0 when no vote flipped): for a cached even
    /// clustering, the nodes its split searches dequeued; for a cached power
    /// clustering, the region re-grown — the voted-subgraph components that
    /// hold a flipped endpoint. The sum when both are cached.
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
    /// `first[l]`: the smallest node labelled `l` in `even` (meaningful
    /// while `even` is cached). Even labels number components in order of
    /// their smallest node, so this is ascending.
    first: Vec<NodeId>,
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
    /// Point the smallest-node entry of an even label at the next node.
    EvenFirst(u32),
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
    /// flipped edges, the power region and a node mark shared by both
    /// phases.
    changed: Vec<NodeId>,
    flip_buf: Vec<EdgeId>,
    region: Vec<NodeId>,
    node_mark: Vec<bool>,
    even_repair: EvenRepair,
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

    /// The smallest node of every label of `level`'s cached even
    /// clustering, by label (`None` unless that clustering is cached).
    pub(crate) fn even_minima(&self, level: usize) -> Option<&[NodeId]> {
        self.level(level).filter(|lc| lc.even.is_some()).map(|lc| lc.first.as_slice())
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
            CacheCorruption::EvenFirst(l) => lc.first[l as usize] += 1,
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
                // Flips ≤ re-voted edges ≤ the threshold: sized once.
                self.flip_buf.reserve(threshold);
                self.revote_changed(g, pyr, &mut lc, &mut stats);
            }
            for v in self.changed.drain(..) {
                self.node_mark[v as usize] = false;
            }
            if !self.flip_buf.is_empty() {
                let LevelCache { voted, first, even, .. } = &mut *lc;
                if let Some(old) = even {
                    let (flips, walked) = (&self.flip_buf, &mut stats.region_nodes);
                    if let Some(new) = self.even_repair.run(g, voted, flips, old, first, walked) {
                        *old = new;
                    }
                }
                self.repair_power(g, &mut lc, &mut stats);
                self.flip_buf.clear();
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
        self.changed.reserve(g.n());
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

    /// Repairs the cached power clustering, if any, after vote flips. The
    /// region — every voted-subgraph component holding a flipped endpoint —
    /// is found by BFS from those endpoints; a component outside it has the
    /// edges and the voted degrees it had before the flips, hence the
    /// clusters it had. The region is re-grown in rank order with ids past
    /// `n`, apart from the old labels until `from_labels` puts all of them
    /// back in first-appearance order.
    fn repair_power(&mut self, g: &Graph, lc: &mut LevelCache, stats: &mut QueryStats) {
        let LevelCache { voted, kept_deg, power, .. } = lc;
        let Some(old) = power.take() else {
            return;
        };
        for &e in &self.flip_buf {
            let (a, b) = g.endpoints(e);
            for s in [a, b] {
                if std::mem::replace(&mut self.node_mark[s as usize], true) {
                    continue;
                }
                let mut at = self.region.len();
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
        stats.region_nodes += self.region.len();
        for &x in &self.region {
            self.node_mark[x as usize] = false;
        }
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
            g.n() as u32,
        );
        *power = Some(Arc::new(Clustering::from_labels(&self.label_buf)));
        self.region.clear();
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
                first_appearances(c.labels(), &mut lc.first);
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

/// Edge tags of the even repair: unflipped, voted in by this query, voted
/// out and not yet processed, voted out and processed.
const KEEP: u8 = 0;
const ADDED: u8 = 1;
const CUT: u8 = 2;
const GONE: u8 = 3;

/// No fresh component id: the node's id is still its old label.
const NO_ID: u32 = u32::MAX;

/// The component id of `v` during an even repair: the fresh id a split gave
/// it, or its old label.
#[inline]
fn comp_id(labels: &[u32], moved_to: &[u32], v: NodeId) -> u32 {
    match moved_to[v as usize] {
        NO_ID => labels[v as usize],
        id => id,
    }
}

/// Refills `first` with the node where each label of `labels` first
/// appears — for labels numbered in first-appearance order, with no
/// [`NOISE`] (an even clustering's), each label's smallest node.
fn first_appearances(labels: &[u32], first: &mut Vec<NodeId>) {
    first.clear();
    for (v, &l) in labels.iter().enumerate() {
        if l as usize == first.len() {
            first.push(v as NodeId);
        }
    }
}

/// Union–find root of `x`, halving the path on the way.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// Two BFS fronts over a node mark; clear between searches.
#[derive(Debug, Default)]
struct Fronts {
    /// Per node: 0, or `1 + s` once front `s` reached it.
    side: Vec<u8>,
    /// Each front's nodes in visit order (its queue).
    queue: [Vec<NodeId>; 2],
}

impl Fronts {
    /// Grows a front from `a` and one from `b` over the edges `present`
    /// admits, dequeuing one node of each in turn, until they meet (`None`)
    /// or one runs out (`Some(s)`: `queue[s]` is then a whole component).
    /// Returns the nodes dequeued beside it, and leaves both queues filled
    /// for the caller to read and [`Self::clear`].
    fn search(
        &mut self,
        g: &Graph,
        present: impl Fn(EdgeId) -> bool,
        a: NodeId,
        b: NodeId,
    ) -> (Option<usize>, usize) {
        for (s, x) in [a, b].into_iter().enumerate() {
            self.side[x as usize] = 1 + s as u8;
            self.queue[s].push(x);
        }
        let mut head = [0usize; 2];
        loop {
            for s in 0..2 {
                let Some(&x) = self.queue[s].get(head[s]) else {
                    return (Some(s), head[0] + head[1]);
                };
                head[s] += 1;
                let mine = 1 + s as u8;
                for (y, e) in g.edges_of(x) {
                    let mark = self.side[y as usize];
                    if mark == mine || !present(e) {
                        continue;
                    }
                    if mark != 0 {
                        return (None, head[0] + head[1]);
                    }
                    self.side[y as usize] = mine;
                    self.queue[s].push(y);
                }
            }
        }
    }

    fn clear(&mut self) {
        for queue in &mut self.queue {
            for v in queue.drain(..) {
                self.side[v as usize] = 0;
            }
        }
    }
}

/// The even repair and its pooled scratch (see [`EvenRepair::run`]). Every
/// buffer is empty, and every per-node and per-edge entry at rest, between
/// queries; each is sized to the graph once, so after warm-up a repair
/// allocates only the label vector of a clustering whose labels moved.
#[derive(Debug, Default)]
struct EvenRepair {
    /// Per edge: [`KEEP`], [`ADDED`], [`CUT`] or [`GONE`].
    tag: Vec<u8>,
    fronts: Fronts,
    /// Per node: the fresh component id a split gave it, or [`NO_ID`].
    moved_to: Vec<u32>,
    /// Fresh id `c + i`'s nodes as it was split off (a later split may take
    /// some of them away): `fresh[bounds[i]..bounds[i + 1]]`.
    fresh: Vec<NodeId>,
    bounds: Vec<usize>,
    /// Per component id — the old labels `0..c`, then the fresh ids: the
    /// union–find parent, the smallest node, the new label, and whether a
    /// split or a merge touched it.
    parent: Vec<u32>,
    min: Vec<NodeId>,
    map: Vec<u32>,
    touched: Vec<bool>,
    /// The touched ids (each once), and those of them that are roots.
    ids: Vec<u32>,
    roots: Vec<u32>,
    /// The next `first`, swapped in when a label moves.
    first: Vec<NodeId>,
}

impl EvenRepair {
    /// Repairs the cached even clustering `old`, whose smallest nodes are
    /// `first`, after the vote flips `flips` (`voted` holds their new bits).
    /// Returns the repaired clustering, or `None` when no node's label
    /// moved; adds the nodes its searches dequeued to `walked`.
    ///
    /// 1. **Removals**, one at a time, on the old voted edges less the
    ///    removals already processed (this query's additions are absent):
    ///    two fronts grow from the removed edge's ends, one node in turn. If
    ///    they meet, nothing split; if one runs out first, its nodes are a
    ///    whole component and take a fresh id. A deletion splits only its
    ///    own component, so the ids stay the components of the graph so far.
    /// 2. **Additions** union the ids of their ends.
    /// 3. **Renumbering**: a final component's smallest node is the least of
    ///    its ids' (kept in `first`, taken from a fresh side's nodes, or —
    ///    when a split carried an old label's minimum away — found by one
    ///    scan of the old labels), and the untouched labels are already in
    ///    that order: a merge of them with the few touched components gives
    ///    every id its first-appearance label, and the new labels are one
    ///    gather over `n` plus a patch of the fresh sides.
    fn run(
        &mut self,
        g: &Graph,
        voted: &EdgeBits,
        flips: &[EdgeId],
        old: &Clustering,
        first: &mut Vec<NodeId>,
        walked: &mut usize,
    ) -> Option<Arc<Clustering>> {
        let (n, labels, c) = (g.n(), old.labels(), first.len() as u32);
        if self.moved_to.len() != n {
            self.fronts.side = vec![0; n];
            self.moved_to = vec![NO_ID; n];
            // Component ids number at most n, and so do the fresh sides'
            // nodes but for a side split again.
            for buf in [
                &mut self.parent,
                &mut self.min,
                &mut self.map,
                &mut self.ids,
                &mut self.roots,
                &mut self.fresh,
            ] {
                buf.reserve(n);
            }
            self.bounds.reserve(n);
            self.touched.reserve(n);
        }
        self.tag.resize(g.m(), KEEP);
        let Self {
            tag,
            fronts,
            moved_to,
            fresh,
            bounds,
            parent,
            min,
            map,
            touched,
            ids,
            roots,
            ..
        } = self;
        for &e in flips {
            tag[e as usize] = if voted.get(e) { ADDED } else { CUT };
        }

        for &e in flips {
            if tag[e as usize] != CUT {
                continue;
            }
            tag[e as usize] = GONE;
            let (a, b) = g.endpoints(e);
            let present = |e: EdgeId| match tag[e as usize] {
                KEEP => voted.get(e),
                t => t == CUT,
            };
            let (cut_off, dequeued) = fronts.search(g, present, a, b);
            *walked += dequeued;
            if let Some(s) = cut_off {
                let id = c + bounds.len() as u32;
                ids.extend([comp_id(labels, moved_to, a), id]);
                bounds.push(fresh.len());
                for &v in &fronts.queue[s] {
                    moved_to[v as usize] = id;
                }
                fresh.extend_from_slice(&fronts.queue[s]);
            }
            fronts.clear();
        }
        bounds.push(fresh.len());
        let t = c as usize + bounds.len() - 1;

        parent.clear();
        parent.extend(0..t as u32);
        for &e in flips {
            if tag[e as usize] != ADDED {
                continue;
            }
            let (a, b) = g.endpoints(e);
            let ra = find(parent, comp_id(labels, moved_to, a));
            let rb = find(parent, comp_id(labels, moved_to, b));
            if ra != rb {
                parent[ra.max(rb) as usize] = ra.min(rb);
                ids.extend([ra, rb]);
            }
        }

        touched.clear();
        touched.resize(t, false);
        ids.retain(|&id| !std::mem::replace(&mut touched[id as usize], true));
        min.clear();
        min.extend_from_slice(first);
        for (i, w) in bounds.windows(2).enumerate() {
            let id = c + i as u32;
            // A later split leaves a fresh component some of its nodes.
            let nodes = fresh[w[0]..w[1]].iter().filter(|&&v| moved_to[v as usize] == id);
            min.push(nodes.copied().min().unwrap_or(NO_NODE));
        }
        let (mut lost, mut from) = (0, n);
        for &id in ids.iter().filter(|&&id| id < c) {
            let v = first[id as usize];
            if moved_to[v as usize] != NO_ID {
                min[id as usize] = NO_NODE;
                (lost, from) = (lost + 1, from.min(v as usize));
            }
        }
        for v in from..n {
            if lost == 0 {
                break;
            }
            let l = labels[v] as usize;
            if min[l] == NO_NODE && moved_to[v] == NO_ID {
                min[l] = v as NodeId;
                lost -= 1;
            }
        }
        for &id in ids.iter() {
            let r = find(parent, id) as usize;
            min[r] = min[r].min(min[id as usize]);
        }

        roots.clear();
        roots.extend(ids.iter().copied().filter(|&id| parent[id as usize] == id));
        roots.sort_unstable_by_key(|&r| min[r as usize]);
        map.clear();
        map.resize(t, 0);
        let next = &mut self.first;
        next.clear();
        next.reserve(n);
        let mut pending = roots.iter().copied().peekable();
        for l in (0..c as usize).filter(|&l| !touched[l]) {
            while let Some(r) = pending.next_if(|&r| min[r as usize] < first[l]) {
                map[r as usize] = next.len() as u32;
                next.push(min[r as usize]);
            }
            map[l] = next.len() as u32;
            next.push(first[l]);
        }
        for r in pending {
            map[r as usize] = next.len() as u32;
            next.push(min[r as usize]);
        }
        for &id in ids.iter() {
            map[id as usize] = map[find(parent, id) as usize];
        }

        let moved = next.len() != c as usize
            || map[..c as usize].iter().enumerate().any(|(l, &to)| to != l as u32)
            || fresh.iter().any(|&v| map[moved_to[v as usize] as usize] != labels[v as usize]);
        let repaired = moved.then(|| {
            let mut new: Vec<u32> = labels.iter().map(|&l| map[l as usize]).collect();
            for &v in fresh.iter() {
                new[v as usize] = map[moved_to[v as usize] as usize];
            }
            std::mem::swap(first, next);
            Arc::new(Clustering::from_canonical_labels(new, first.len(), n))
        });

        for &e in flips {
            tag[e as usize] = KEEP;
        }
        for v in fresh.drain(..) {
            moved_to[v as usize] = NO_ID;
        }
        bounds.clear();
        ids.clear();
        repaired
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

    /// One even repair of the clustering `g` has with the edges `before`
    /// voted to the one it has with `after`, the flips taken in edge order
    /// or reversed: the answer must equal the cold extraction over `after` —
    /// the one `cluster_all` makes from the votes — and the kept smallest
    /// nodes must be its labels' smallest. `repair`'s scratch is reused, as
    /// the cache reuses it. Returns whether a label moved, and the nodes the
    /// searches dequeued in edge order.
    fn repair_to(
        repair: &mut EvenRepair,
        g: &Graph,
        before: &[(u32, u32)],
        after: &[(u32, u32)],
    ) -> (bool, usize) {
        let edges = |pairs: &[(u32, u32)]| {
            let mut bits = EdgeBits::with_len(g.m());
            for &(a, b) in pairs {
                bits.set(g.edge_id(a, b).expect("graph edge"), true);
            }
            bits
        };
        let (old_bits, new_bits) = (edges(before), edges(after));
        let old = even_clustering_with(g, |e| old_bits.get(e));
        let cold = even_clustering_with(g, |e| new_bits.get(e));
        let mut flips: Vec<EdgeId> =
            (0..g.m() as EdgeId).filter(|&e| old_bits.get(e) != new_bits.get(e)).collect();
        let (mut moved, mut walked) = (Vec::new(), [0; 2]);
        for walked in &mut walked {
            let mut first = Vec::new();
            first_appearances(old.labels(), &mut first);
            let new = repair.run(g, &new_bits, &flips, &old, &mut first, walked);
            let got = new.as_deref().unwrap_or(&old);
            assert_eq!(*got, cold, "flips {flips:?}");
            let mut minima = Vec::new();
            first_appearances(got.labels(), &mut minima);
            assert_eq!(first, minima, "flips {flips:?}");
            moved.push(new.is_some());
            flips.reverse();
        }
        assert_eq!(moved[0], moved[1]);
        (moved[0], walked[0])
    }

    /// [`repair_to`] with fresh scratch: whether a label moved.
    fn moves(g: &Graph, before: &[(u32, u32)], after: &[(u32, u32)]) -> bool {
        repair_to(&mut EvenRepair::default(), g, before, after).0
    }

    /// A split costs about twice its smaller side, whichever end of the
    /// removed edge that side holds: a search that grew one front only
    /// would walk the long side of the path.
    #[test]
    fn even_repair_split_search_costs_the_smaller_side() {
        let path: Vec<(u32, u32)> = (0..100).map(|v| (v, v + 1)).collect();
        let g = Graph::from_edges(101, &path);
        for cut in [2, 97] {
            let kept: Vec<_> = path.iter().copied().filter(|&(a, _)| a != cut).collect();
            let (moved, walked) = repair_to(&mut EvenRepair::default(), &g, &path, &kept);
            assert!(moved && walked <= 2 * 3 + 1, "cut after {cut}: {walked} nodes walked");
        }
    }

    /// Node 0 is cut off alone, carrying its old label's minimum away: the
    /// remainder's new minimum (3) is found by the scan, and it now sorts
    /// after the untouched component {1, 2}.
    #[test]
    fn even_repair_split_carries_the_old_minimum_away() {
        let pairs = [(0, 3), (3, 4), (4, 5), (5, 6), (1, 2)];
        let g = Graph::from_edges(7, &pairs);
        assert!(moves(&g, &pairs, &pairs[1..]));
    }

    /// Two removals cut one path into three; the second one cuts the side
    /// the first split off, whichever comes first.
    #[test]
    fn even_repair_two_removals_cut_one_component_into_three() {
        let path: Vec<(u32, u32)> = (0..8).map(|v| (v, v + 1)).collect();
        let g = Graph::from_edges(9, &path);
        let kept: Vec<_> = path.iter().copied().filter(|&(a, _)| a != 2 && a != 6).collect();
        assert!(moves(&g, &path, &kept));
        let kept: Vec<_> = path.iter().copied().filter(|&(a, _)| a != 6 && a != 7).collect();
        assert!(moves(&g, &path, &kept));
    }

    /// A removal whose ends reconnect only through an edge this query adds:
    /// the component is whole again and no label moves.
    #[test]
    fn even_repair_removal_reconnected_by_an_addition() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]);
        assert!(!moves(&g, &[(0, 1), (1, 2), (2, 3), (3, 4)], &[(0, 1), (2, 3), (0, 3), (3, 4)]));
    }

    /// A merge and a split elsewhere in one query.
    #[test]
    fn even_repair_merge_beside_a_split() {
        let pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)];
        let g = Graph::from_edges(8, &pairs);
        let before = [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)];
        let after = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)];
        assert!(moves(&g, &before, &after));
    }

    /// Additions inside one cluster move no label: the cache keeps its `Arc`.
    #[test]
    fn even_repair_additions_inside_a_cluster_keep_the_arc() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        assert!(!moves(&g, &[(0, 1), (1, 2)], &[(0, 1), (1, 2), (0, 2)]));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Dense flip streams on small random graphs: each step re-draws the
        /// votes of up to every edge, and the repair must equal the cold
        /// extraction after every step, in either flip order.
        #[test]
        fn even_repair_follows_dense_flip_streams(
            seed in 0u64..1_000,
            n in 2usize..24,
            density in 0.05f64..0.6,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let g = anc_graph::gen::erdos_renyi(n, (n * (n - 1) / 4).max(1), seed);
            let pairs: Vec<(u32, u32)> = g.iter_edges().map(|(_, u, v)| (u, v)).collect();
            let (mut repair, mut voted) = (EvenRepair::default(), Vec::new());
            for _ in 0..12 {
                let next: Vec<(u32, u32)> =
                    pairs.iter().copied().filter(|_| rng.gen_bool(density)).collect();
                let _ = repair_to(&mut repair, &g, &voted, &next);
                voted = next;
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
