//! The **pyramids** index `P` (paper Section V-A): `k` pyramids, each a
//! suite of `⌈log₂ n⌉` Voronoi partitions at geometrically growing seed
//! counts, used as a voting system for multi-granularity clustering.
//!
//! Level `l ∈ [1, ⌈log₂ n⌉]` samples `2^{l-1}` seeds uniformly at random
//! without replacement (following the paper's worked Example 3, where level
//! 1 has a single seed whose shortest-path tree spans the graph). Index
//! size and construction time are `O(n log² n + m log n)` (Lemma 7).
//!
//! **Level 0 is weight-free.** With one seed, every node of the seed's
//! component takes that seed under any finite positive weights, so the
//! coarsest partition's `seed_of` never depends on them. It is built once
//! under unit weights — a hop-count shortest-path forest from its sampled
//! seed — and no weight change, repair or rescale touches it; its `dist`
//! and `parent` are hop counts and a BFS tree. Only levels `≥ 1` carry
//! weighted distances, so [`Pyramids::approx_distance`] reads those alone.
//!
//! **Live and stale levels.** A level is *live* when the index keeps it in
//! step with the weights, and *stale* when it does not: no repair or rescale
//! touches a stale level, and a query of one panics, naming the level, in
//! every build. Every level is live after [`Pyramids::build`].
//! [`Pyramids::set_live_levels`] changes the set, and it *syncs* each level
//! that enters it by rebuilding its `k` partitions from the current weights
//! with the build's own seed sampling. The rebuild equals what eager repair
//! would have left, bit for bit, because the repairs keep the build's tie
//! rule ([`crate::voronoi`]). Which levels to keep live is the reader's
//! choice: the paper's ANCF re-indexes per snapshot, its ANCO repairs every
//! level eagerly, and a server keeps live only the levels it publishes.
//!
//! The `log₂(n) × k` partitions are mutually independent in storage, update
//! and query processing, so updates parallelize embarrassingly (Lemma 13) —
//! [`Pyramids::on_weight_change_batch`], [`Pyramids::rebuild`] and
//! [`Pyramids::rescale`] run one pool task per partition.

use anc_graph::{EdgeId, Graph, NodeId};
use rand::seq::index::sample;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::needed_votes;
use crate::invariant::InvariantViolation;
use crate::voronoi::VoronoiPartition;

/// Counters from one grouped batch repair
/// ([`Pyramids::on_weight_change_batch`]), summed over all partitions; also
/// what [`crate::AncEngine::activate_batch`] reports for a whole batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Bounded updates actually executed (Algorithms 1–3 invocations).
    pub updates: usize,
    /// Deltas short-circuited by the `O(1)` no-op precheck
    /// ([`VoronoiPartition::noop_weight_change`]).
    pub skips: usize,
}

impl std::ops::AddAssign for RepairStats {
    fn add_assign(&mut self, rhs: Self) {
        self.updates += rhs.updates;
        self.skips += rhs.skips;
    }
}

/// One thread's slot of the grouped batch repair: a private weight array
/// for the rewound replay, a sink for affected nodes the untraced path
/// discards, and the thread's counters. Pooled on [`Pyramids`], one slot per
/// participating thread, so repeated batches stop allocating after the
/// first at a thread count.
#[derive(Clone, Debug, Default)]
struct RepairScratch {
    weights: Vec<f64>,
    /// Whether `weights` holds this batch's final weights yet: a thread's
    /// first task of a batch fills it, its later tasks only rewind.
    filled: bool,
    discard: Vec<NodeId>,
    stats: RepairStats,
}

/// The full index: `k × levels` Voronoi partitions plus the voting
/// threshold. Level 0 of each pyramid is the weight-free hop-count forest
/// (see the module doc); levels `≥ 1` follow the edge weights.
///
/// ```
/// use anc_core::Pyramids;
/// use anc_graph::gen::paper_figure2;
///
/// let (g, weights) = paper_figure2(); // the paper's 13-node example
/// let pyr = Pyramids::build(&g, &weights, 2, 0.7, 42);
/// assert_eq!(pyr.num_levels(), 4); // ⌈log₂ 13⌉, as in Example 3
/// // H_l: are two nodes co-clustered at the coarsest granularity?
/// let _ = pyr.same_cluster(0, 1, 0);
/// ```
#[derive(Clone, Debug)]
pub struct Pyramids {
    /// Flattened partitions: `partitions[p * levels + l]` is level `l`
    /// (0-based) of pyramid `p`.
    partitions: Vec<VoronoiPartition>,
    k: usize,
    levels: usize,
    needed_votes: usize,
    n: usize,
    /// The live levels, bit `l` for level `l` (the module doc). Node ids are
    /// `u32`, so `levels ≤ 32` and one word holds the set.
    live: u64,
    /// Per-thread batch-repair slots (transient).
    repair_scratch: Vec<RepairScratch>,
}

impl Pyramids {
    /// Builds the index over `g` with edge weights `weights` (reciprocal
    /// stored similarity).
    ///
    /// * `k` — number of pyramids (paper default 4).
    /// * `theta` — voting support threshold (paper default 0.7).
    /// * `seed` — RNG seed for the per-level uniform seed sampling.
    ///
    /// An empty index, then [`Self::rebuild`].
    pub fn build(g: &Graph, weights: &[f64], k: usize, theta: f64, seed: u64) -> Self {
        assert!(k >= 1);
        let n = g.n();
        let levels = Self::levels_for(n);
        let mut pyr = Self {
            partitions: (0..k * levels).map(|_| VoronoiPartition::empty()).collect(),
            k,
            levels,
            needed_votes: needed_votes(theta, k),
            n,
            live: all_levels(levels),
            repair_scratch: Vec::new(),
        };
        pyr.rebuild(g, weights, seed);
        pyr
    }

    /// Rebuilds every live partition in place from a fresh seed sampling
    /// ([`Self::rebuild_levels`]); a stale level is rebuilt when it is
    /// synced ([`Self::set_live_levels`]).
    pub fn rebuild(&mut self, g: &Graph, weights: &[f64], seed: u64) {
        self.rebuild_levels(g, weights, seed, self.live);
    }

    /// Makes `levels` the live set (the module doc). Each level that enters
    /// it is synced: its partitions are rebuilt from `weights` with the
    /// build's seed sampling, so they equal a fresh [`Self::build`] bit for
    /// bit. A level that leaves it goes stale and keeps its arrays unread.
    /// `seed` must be the one the index was built with.
    ///
    /// # Panics
    ///
    /// If a level is out of range.
    pub fn set_live_levels(&mut self, g: &Graph, weights: &[f64], seed: u64, levels: &[usize]) {
        let mut live = 0u64;
        for &l in levels {
            assert!(l < self.levels, "live level {l} out of range ({} levels)", self.levels);
            live |= 1 << l;
        }
        self.rebuild_levels(g, weights, seed, live & !self.live);
        self.live = live;
    }

    /// Whether level `l` is live: repaired with the weights and queryable.
    pub fn is_live(&self, l: usize) -> bool {
        l < self.levels && self.live >> l & 1 == 1
    }

    /// Partitions a lone weight change repairs: `k` per live level `≥ 1`.
    pub(crate) fn repaired_partitions(&self) -> usize {
        self.k * (self.live & !1).count_ones() as usize
    }

    /// The query-side check: panics, naming the level, unless `l` is live.
    /// A query runs it once before it reads the level, not per partition.
    pub(crate) fn assert_live(&self, l: usize) {
        assert!(
            self.is_live(l),
            "level {l} is stale: it is not kept in step with the weights, so it cannot be \
             queried until it is made live again"
        );
    }

    /// Rebuilds, one pool task per partition and reusing the partitions'
    /// own buffers, the partitions of the levels whose bit is set in `mask`.
    /// The one seed sampling of the index: level `l` of pyramid `p` samples
    /// its seeds with ChaCha8 seeded by `seed ^ (p << 32) ^ l`, so the
    /// result depends neither on which thread runs which partition nor on
    /// what the index held before. Level 0 is built under unit weights (the
    /// module doc), the rest under `weights`.
    fn rebuild_levels(&mut self, g: &Graph, weights: &[f64], seed: u64, mask: u64) {
        debug_assert_eq!(self.n, g.n(), "rebuild keeps the node count fixed");
        if mask == 0 {
            return;
        }
        let (n, levels) = (self.n, self.levels);
        let unit = if mask & 1 == 1 { vec![1.0; g.m()] } else { Vec::new() };
        rayon::for_each(&mut self.partitions[..], |i, part| {
            let (p, l) = (i / levels, i % levels);
            if mask >> l & 1 == 0 {
                return;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ((p as u64) << 32) ^ (l as u64));
            let want = (1usize << l).min(n);
            let w = if l == 0 { &unit } else { weights };
            part.rebuild(g, w, sample(&mut rng, n, want).into_iter().map(|i| i as NodeId));
        });
    }

    /// Number of granularity levels `⌈log₂ n⌉` (min 1).
    pub fn levels_for(n: usize) -> usize {
        if n <= 2 {
            1
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as usize
        }
    }

    /// Number of pyramids `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of granularity levels.
    pub fn num_levels(&self) -> usize {
        self.levels
    }

    /// Votes needed for two nodes to be co-clustered (`⌈θk⌉`).
    pub fn needed_votes(&self) -> usize {
        self.needed_votes
    }

    /// The level whose seed count is closest to `√n` from above — the
    /// paper's Problem 1 entry granularity with `Θ(√n)` clusters.
    pub fn default_level(&self) -> usize {
        let target = (self.n as f64).sqrt();
        (0..self.levels).find(|&l| (1usize << l) as f64 >= target).unwrap_or(self.levels - 1)
    }

    /// Access a partition (pyramid `p`, 0-based level `l`).
    pub fn partition(&self, p: usize, l: usize) -> &VoronoiPartition {
        debug_assert!(p < self.k && l < self.levels, "partition ({p}, {l}) out of range");
        &self.partitions[p * self.levels + l]
    }

    /// Number of pyramids whose level-`l` partition puts `u` and `v` under
    /// the same seed (the vote count behind `H_l(u, v)`). Panics if `l` is
    /// stale.
    #[inline]
    pub fn votes(&self, u: NodeId, v: NodeId, l: usize) -> usize {
        self.assert_live(l);
        (0..self.k).filter(|&p| self.partition(p, l).same_seed(u, v)).count()
    }

    /// The voting function `H_l(u, v)` (Section V-B): 1 iff at least `⌈θk⌉`
    /// pyramids agree at level `l`. Panics if `l` is stale.
    #[inline]
    pub fn same_cluster(&self, u: NodeId, v: NodeId, l: usize) -> bool {
        self.assert_live(l);
        self.vote(u, v, l)
    }

    /// [`Self::same_cluster`] for a caller that checked the level once
    /// ([`Self::assert_live`]) before voting on many pairs.
    #[inline]
    pub(crate) fn vote(&self, u: NodeId, v: NodeId, l: usize) -> bool {
        // Early exit once the threshold is reached or becomes unreachable.
        let mut have = 0;
        for p in 0..self.k {
            if self.partition(p, l).same_seed(u, v) {
                have += 1;
                if have >= self.needed_votes {
                    return true;
                }
            } else if have + (self.k - p - 1) < self.needed_votes {
                return false;
            }
        }
        false
    }

    /// Propagates one edge-weight change to every weighted partition
    /// (Algorithms 1–3 per partition at levels `≥ 1`), one partition after
    /// another. Returns, per partition (pyramid-major order,
    /// `p * levels + l`), the nodes whose seed assignment or distance
    /// changed; level 0's lists are always empty.
    pub fn on_weight_change(
        &mut self,
        g: &Graph,
        weights: &[f64],
        e: EdgeId,
        old_w: f64,
    ) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.partitions.len()];
        self.on_weight_change_serial_into(g, weights, e, old_w, &mut out);
        out
    }

    /// [`Self::on_weight_change`] filling caller-owned per-partition buffers
    /// (each cleared, then sorted and deduplicated) instead of allocating a
    /// fresh list per partition — the engine pools the buffers across
    /// activations so steady-state single-edge repairs stop allocating. A
    /// lone change is repaired serially: forking the pool for it costs more
    /// than the repair (DESIGN.md §4); Lemma 13's fan-out is
    /// [`Self::on_weight_change_batch`]. Repairs the
    /// [`Self::repaired_partitions`] of the live levels `≥ 1` and leaves the
    /// buffers of level 0 and of stale levels cleared.
    ///
    /// # Panics
    ///
    /// If `out` does not hold exactly one buffer per partition.
    pub fn on_weight_change_serial_into(
        &mut self,
        g: &Graph,
        weights: &[f64],
        e: EdgeId,
        old_w: f64,
        out: &mut [Vec<NodeId>],
    ) {
        assert_eq!(out.len(), self.partitions.len(), "one buffer per partition");
        for (i, (p, o)) in self.partitions.iter_mut().zip(out.iter_mut()).enumerate() {
            o.clear();
            if !repaired(i, self.levels, self.live) {
                continue;
            }
            p.on_weight_change_into(g, weights, e, old_w, o);
            o.sort_unstable();
            o.dedup();
        }
    }

    /// Applies a whole batch of ordered weight deltas with **one** parallel
    /// fan-out instead of one per edge (the engine's ingest loop; see
    /// DESIGN.md §7) to the partitions of the live levels `≥ 1`; the tasks
    /// of level 0 (weight-free) and of stale levels return at once.
    ///
    /// `deltas` is the ordered list of `(e, old_w, new_w)` changes exactly
    /// as they occurred; the same edge may appear several times. `weights`
    /// must hold the *final* post-batch values (so for each edge, the last
    /// delta's `new_w` equals `weights[e]`).
    ///
    /// Deferring repairs naively would be unsound — a repair for one edge
    /// may propagate distances through regions another pending repair has
    /// yet to invalidate — so each partition's task replays the delta list
    /// *in order*, against its thread's private weight array rewound to the
    /// pre-batch state, calling [`VoronoiPartition::on_weight_change`] at
    /// the exact per-step weights. Every partition therefore ends
    /// bit-identical to the serial per-edge path; since partitions are
    /// mutually independent (Lemma 13) and each task owns its partition, the
    /// result is also independent of the thread count. Deltas that provably
    /// cannot move a partition are short-circuited by the `O(1)`
    /// [`VoronoiPartition::noop_weight_change`] precheck.
    pub fn on_weight_change_batch(
        &mut self,
        g: &Graph,
        weights: &[f64],
        deltas: &[(EdgeId, f64, f64)],
    ) -> RepairStats {
        self.repair_batch(g, weights, deltas, None)
    }

    /// [`Self::on_weight_change_batch`] that additionally records, per
    /// partition (pyramid-major order), the union of all nodes whose seed
    /// assignment or distance changed at any point during the batch — the
    /// nodes the cluster cache re-checks against its seed rows at the next
    /// query.
    ///
    /// `out` must hold one buffer per partition (`k · levels`); each is
    /// cleared, filled, sorted and deduplicated (those of level 0 and of
    /// stale levels stay empty). The
    /// buffers are caller-owned so the engine can pool them across batches.
    /// The partitions themselves
    /// end bit-identical to the untraced variant (same per-delta replay).
    pub fn on_weight_change_batch_traced(
        &mut self,
        g: &Graph,
        weights: &[f64],
        deltas: &[(EdgeId, f64, f64)],
        out: &mut [Vec<NodeId>],
    ) -> RepairStats {
        self.repair_batch(g, weights, deltas, Some(out))
    }

    /// The grouped repair behind [`Self::on_weight_change_batch`] (`out` is
    /// `None`: affected nodes go to a pooled sink nobody reads) and
    /// [`Self::on_weight_change_batch_traced`] (`Some`: one buffer per
    /// partition). One pool task per partition; each thread's slot sums its
    /// own counters, and the slots are summed afterwards (addition commutes,
    /// so the total does not depend on the thread count).
    fn repair_batch(
        &mut self,
        g: &Graph,
        weights: &[f64],
        deltas: &[(EdgeId, f64, f64)],
        out: Option<&mut [Vec<NodeId>]>,
    ) -> RepairStats {
        if deltas.is_empty() {
            out.into_iter().flatten().for_each(Vec::clear);
            return RepairStats::default();
        }
        for s in &mut self.repair_scratch {
            s.filled = false;
            s.stats = RepairStats::default();
        }
        let (parts, scratch) = (&mut self.partitions[..], &mut self.repair_scratch);
        let (levels, live) = (self.levels, self.live);
        match out {
            Some(out) => rayon::for_each_with((parts, out), scratch, |i, (p, trace), s| {
                if repaired(i, levels, live) {
                    replay_partition(g, weights, deltas, p, Some(trace), s);
                } else {
                    trace.clear();
                }
            }),
            None => rayon::for_each_with(parts, scratch, |i, p, s| {
                if repaired(i, levels, live) {
                    replay_partition(g, weights, deltas, p, None, s);
                }
            }),
        }
        self.repair_scratch.iter().fold(RepairStats::default(), |mut sum, s| {
            sum += s.stats;
            sum
        })
    }

    /// Approximate distance query in the style of the underlying Das Sarma
    /// et al. sketch (the base structure of the pyramids, Section II/V-A):
    /// the estimate is the minimum of `dist(u, s) + dist(s, v)` over every
    /// partition of a live level `≥ 1` in which `u` and `v` share a seed
    /// `s`. Level 0 holds hop counts, not weighted distances, and a stale
    /// level's distances lag the weights, so neither is read.
    ///
    /// Every partition read is in step with the weights, so the estimate
    /// never underestimates the true distance (triangle inequality); with
    /// `⌈log₂ n⌉` geometric seed-set sizes per pyramid, all live, it carries
    /// the sketch's `O(log n)`-stretch guarantee with high probability.
    /// Fewer live levels only loosen it. Returns `f64::INFINITY` when no
    /// partition it reads joins the pair — always for different components,
    /// and sometimes for a connected pair that every such partition splits
    /// (always when no level `≥ 1` is live). Distances are in the index's
    /// anchored units; `O(k log n)` time.
    pub fn approx_distance(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        let live = (1..self.levels).filter(|&l| self.is_live(l));
        for p in live.flat_map(|l| (0..self.k).map(move |p| self.partition(p, l))) {
            if p.same_seed(u, v) {
                let est = p.dist(u) + p.dist(v);
                if est < best {
                    best = est;
                }
            }
        }
        best
    }

    /// Absorbs a rescale of the weights into the stored distances of every
    /// partition of a live level `≥ 1` (the similarity range step's `2^j`,
    /// NegM, Lemma 10); level 0's hop counts do not scale, and a stale level
    /// is rebuilt from the rescaled weights when it is synced. Partitions
    /// are independent, and the per-partition multiply is elementwise, so
    /// the fan-out is trivially deterministic.
    pub fn rescale(&mut self, mult: f64) {
        let (levels, live) = (self.levels, self.live);
        rayon::for_each(&mut self.partitions[..], |i, p| {
            if repaired(i, levels, live) {
                p.rescale(mult);
            }
        });
    }

    /// Total heap bytes used by the index.
    pub fn memory_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.memory_bytes()).sum()
    }

    /// Checks that the index was built for a graph of `n` nodes. The rest
    /// of its shape — `⌈log₂ n⌉` levels, `k · levels` partitions with the
    /// Example 3 seed counts and `n`-entry arrays, a vote threshold in
    /// `1..=k` — holds by construction, since an index only comes from
    /// [`Self::build`]. `O(1)`: the half of [`Self::check_invariants`] a
    /// restore runs ([`crate::persist::EngineSnapshot::validate`]).
    pub fn check_shape(&self, n: usize) -> Result<(), InvariantViolation> {
        if self.n == n {
            Ok(())
        } else {
            Err(InvariantViolation::IndexShape(format!(
                "index built for {} nodes, graph has {n}",
                self.n
            )))
        }
    }

    /// Checks the index shape ([`Self::check_shape`]) and each partition:
    /// a live one fully, as a shortest-path forest against unit weights at
    /// level 0 and against `weights` above; a stale one for its shape only
    /// (the level's seed count, `n`-entry arrays), since its distances lag
    /// the weights by design. Returns the first violation (testing aid).
    pub fn check_invariants(&self, g: &Graph, weights: &[f64]) -> Result<(), InvariantViolation> {
        self.check_shape(g.n())?;
        let unit = vec![1.0; g.m()];
        for p in 0..self.k {
            for l in 0..self.levels {
                let part = self.partition(p, l);
                let checked = if self.is_live(l) {
                    part.check_invariants(g, if l == 0 { &unit } else { weights })
                } else {
                    part.check_shape(self.n, (1usize << l).min(self.n))
                };
                checked.map_err(|detail| InvariantViolation::Partition {
                    pyramid: p,
                    level: l,
                    detail,
                })?;
            }
        }
        Ok(())
    }
}

/// Every level of an index with `levels ∈ 1..=32` levels, as a live set.
fn all_levels(levels: usize) -> u64 {
    u64::MAX >> (64 - levels)
}

/// Whether the partition at flat index `i` (`p * levels + l`) follows the
/// weights — is repaired and rescaled: its level is live and `≥ 1`. Level 0
/// is weight-free, and a stale level is rebuilt when it is synced (the
/// module doc).
fn repaired(i: usize, levels: usize, live: u64) -> bool {
    let l = i % levels;
    l != 0 && live >> l & 1 == 1
}

/// One task of a grouped repair: replays `deltas` in order on partition
/// `p`, against the running thread's private weight array — filled with the
/// final `weights` by the thread's first task of the batch, then rewound to
/// the pre-batch state. With `trace`, the partition's affected nodes
/// accumulate over the whole batch and are left sorted and deduplicated;
/// without, they go to the slot's discard sink.
fn replay_partition(
    g: &Graph,
    weights: &[f64],
    deltas: &[(EdgeId, f64, f64)],
    p: &mut VoronoiPartition,
    trace: Option<&mut Vec<NodeId>>,
    scratch: &mut RepairScratch,
) {
    let RepairScratch { weights: w, filled, discard, stats } = scratch;
    if !std::mem::replace(filled, true) {
        w.clear();
        w.extend_from_slice(weights);
    }
    for &(e, old_w, _) in deltas.iter().rev() {
        w[e as usize] = old_w;
    }
    let traced = trace.is_some();
    let sink = match trace {
        Some(trace) => {
            trace.clear();
            trace
        }
        None => discard,
    };
    for &(e, old_w, new_w) in deltas {
        w[e as usize] = new_w;
        if p.noop_weight_change(g, w, e, old_w) {
            stats.skips += 1;
        } else {
            if !traced {
                sink.clear();
            }
            p.on_weight_change_into(g, w, e, old_w, sink);
            stats.updates += 1;
        }
    }
    if traced {
        sink.sort_unstable();
        sink.dedup();
    }
    // Replayed forward, the private array is back at the final weights,
    // ready for the thread's next partition.
    debug_assert!(
        deltas.iter().all(|&(e, _, _)| w[e as usize] == weights[e as usize]),
        "last delta per edge must match the final weights"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_graph::gen::{connected_caveman, paper_figure2};

    #[test]
    fn levels_formula() {
        assert_eq!(Pyramids::levels_for(2), 1);
        assert_eq!(Pyramids::levels_for(3), 2);
        assert_eq!(Pyramids::levels_for(13), 4); // paper Example 3: ⌈log₂ 13⌉ = 4
        assert_eq!(Pyramids::levels_for(16), 4);
        assert_eq!(Pyramids::levels_for(17), 5);
    }

    #[test]
    fn build_structure_matches_example_3() {
        let (g, w) = paper_figure2();
        let pyr = Pyramids::build(&g, &w, 2, 0.7, 42);
        assert_eq!(pyr.k(), 2);
        assert_eq!(pyr.num_levels(), 4);
        // Level l (0-based) has 2^l seeds (paper level l+1 has 2^l).
        for p in 0..2 {
            for l in 0..4 {
                assert_eq!(pyr.partition(p, l).seeds().len(), (1 << l).min(13));
            }
        }
        pyr.check_invariants(&g, &w).unwrap();
    }

    #[test]
    fn deterministic_in_seed() {
        let (g, w) = paper_figure2();
        let a = Pyramids::build(&g, &w, 2, 0.7, 7);
        let b = Pyramids::build(&g, &w, 2, 0.7, 7);
        for p in 0..2 {
            for l in 0..4 {
                assert_eq!(a.partition(p, l).seeds(), b.partition(p, l).seeds());
            }
        }
        let c = Pyramids::build(&g, &w, 2, 0.7, 8);
        let same =
            (0..2).all(|p| (0..4).all(|l| a.partition(p, l).seeds() == c.partition(p, l).seeds()));
        assert!(!same, "different seeds must give different samples");
    }

    #[test]
    fn voting_thresholds() {
        // Example 4 arithmetic: k = 2, θ = 0.7 → ⌈1.4⌉ = 2 votes needed.
        let (g, w) = paper_figure2();
        let pyr = Pyramids::build(&g, &w, 2, 0.7, 1);
        assert_eq!(pyr.needed_votes(), 2);
        for l in 0..pyr.num_levels() {
            for (_, u, v) in g.iter_edges() {
                let votes = pyr.votes(u, v, l);
                assert_eq!(pyr.same_cluster(u, v, l), votes >= 2);
            }
        }
        // Level 0 has a single seed: if the graph is connected, every pair
        // shares it → all edges vote 1.
        assert!(g.iter_edges().all(|(_, u, v)| pyr.same_cluster(u, v, 0)));
    }

    #[test]
    fn update_matches_rebuild_across_all_partitions() {
        let lg = connected_caveman(4, 5);
        let g = &lg.graph;
        let mut w = vec![1.0; g.m()];
        let mut pyr = Pyramids::build(g, &w, 3, 0.7, 9);
        // Apply a few weight changes and verify invariants after each.
        let changes: &[(usize, f64)] = &[(0, 0.3), (5, 4.0), (0, 2.0), (9, 0.1)];
        for &(e, new_w) in changes {
            let old = w[e];
            w[e] = new_w;
            pyr.on_weight_change(g, &w, e as EdgeId, old);
            pyr.check_invariants(g, &w).unwrap();
        }
        // Every array equals a fresh build with the same seeds, bit for bit:
        // under unit weights at level 0, under `w` above.
        let unit = vec![1.0; g.m()];
        for p in 0..3 {
            for l in 0..pyr.num_levels() {
                let part = pyr.partition(p, l);
                let fresh = VoronoiPartition::build(
                    g,
                    if l == 0 { &unit } else { &w },
                    part.seeds().to_vec(),
                );
                for v in 0..g.n() as NodeId {
                    assert_eq!(
                        (part.dist(v).to_bits(), part.seed_of(v), part.parent(v)),
                        (fresh.dist(v).to_bits(), fresh.seed_of(v), fresh.parent(v)),
                        "pyramid {p} level {l} node {v}"
                    );
                }
            }
        }
    }

    /// The grouped batch repair must reproduce the per-delta serial path
    /// **bit for bit**, including an edge that changes twice in one batch
    /// (intermediate weights matter) and inert deltas (counted as skips).
    #[test]
    fn batch_repair_matches_serial_replay_bitwise() {
        let lg = connected_caveman(4, 5);
        let g = &lg.graph;
        let w0 = vec![1.0; g.m()];
        let mut serial = Pyramids::build(g, &w0, 3, 0.7, 9);
        let mut batched = Pyramids::build(g, &w0, 3, 0.7, 9);

        // Edge 0 changes twice; edge 5 and 9 once each.
        let steps: &[(EdgeId, f64)] = &[(0, 0.3), (5, 4.0), (0, 2.0), (9, 0.1)];
        let mut w = w0.clone();
        let mut deltas = Vec::new();
        for &(e, new_w) in steps {
            let old = w[e as usize];
            w[e as usize] = new_w;
            serial.on_weight_change(g, &w, e, old);
            deltas.push((e, old, new_w));
        }
        let stats = batched.on_weight_change_batch(g, &w, &deltas);
        assert_eq!(
            stats.updates + stats.skips,
            deltas.len() * 3 * (batched.num_levels() - 1),
            "every delta visits every partition at levels ≥ 1"
        );
        assert!(stats.skips > 0, "some delta × partition pairs must be inert");
        for p in 0..3 {
            for l in 0..serial.num_levels() {
                for v in 0..g.n() as NodeId {
                    assert_eq!(
                        serial.partition(p, l).dist(v).to_bits(),
                        batched.partition(p, l).dist(v).to_bits(),
                        "pyramid {p} level {l} node {v}"
                    );
                    assert_eq!(
                        serial.partition(p, l).seed_of(v),
                        batched.partition(p, l).seed_of(v)
                    );
                }
            }
        }
        batched.check_invariants(g, &w).unwrap();
    }

    /// Consecutive grouped repairs run through the same per-thread slots,
    /// with an (exact, power-of-two) rescale between them moving every
    /// weight the slots hold: each batch must refill its thread's weight
    /// array and reset its counters, so traced and untraced runs stay
    /// bit-identical to the serial replay batch after batch.
    #[test]
    fn consecutive_batches_reuse_slots_without_leaking_state() {
        let lg = connected_caveman(4, 5);
        let g = &lg.graph;
        let mut w = vec![1.0; g.m()];
        let mut serial = Pyramids::build(g, &w, 3, 0.7, 9);
        let (mut untraced, mut traced) = (serial.clone(), serial.clone());
        let mut traces = vec![Vec::new(); 3 * serial.num_levels()];
        for batch in [[(0, 0.3), (5, 4.0)], [(0, 2.0), (9, 0.1)], [(5, 0.2), (3, 7.0)]] {
            w.iter_mut().for_each(|x| *x *= 0.5);
            for pyr in [&mut serial, &mut untraced, &mut traced] {
                pyr.rescale(0.5);
            }
            let mut deltas = Vec::new();
            for (e, new_w) in batch {
                let old = w[e as usize];
                w[e as usize] = new_w;
                serial.on_weight_change(g, &w, e, old);
                deltas.push((e, old, new_w));
            }
            let stats = untraced.on_weight_change_batch(g, &w, &deltas);
            assert_eq!(stats, traced.on_weight_change_batch_traced(g, &w, &deltas, &mut traces));
            assert_eq!(stats.updates + stats.skips, 2 * 3 * (serial.num_levels() - 1));
            for pyr in [&untraced, &traced] {
                for (a, b) in serial.partitions.iter().zip(&pyr.partitions) {
                    let bits = |p: &VoronoiPartition| -> Vec<(u64, NodeId)> {
                        (0..g.n() as NodeId).map(|v| (p.dist(v).to_bits(), p.seed_of(v))).collect()
                    };
                    assert_eq!(bits(a), bits(b));
                }
            }
        }
    }

    /// In-place [`Pyramids::rebuild`] must be bit-identical to a fresh
    /// [`Pyramids::build`] with the same seed — seeds, distances and parent
    /// forests — even when the starting state was built under different
    /// weights and a different seed.
    #[test]
    fn rebuild_matches_fresh_build_bitwise() {
        let lg = connected_caveman(4, 5);
        let g = &lg.graph;
        let w0 = vec![1.0; g.m()];
        let w1: Vec<f64> = (0..g.m()).map(|e| if e % 3 == 0 { 0.4 } else { 2.5 }).collect();
        let mut rebuilt = Pyramids::build(g, &w0, 3, 0.7, 1);
        rebuilt.rebuild(g, &w1, 9);
        let fresh = Pyramids::build(g, &w1, 3, 0.7, 9);
        for p in 0..3 {
            for l in 0..fresh.num_levels() {
                assert_eq!(rebuilt.partition(p, l).seeds(), fresh.partition(p, l).seeds());
                for v in 0..g.n() as NodeId {
                    assert_eq!(
                        rebuilt.partition(p, l).dist(v).to_bits(),
                        fresh.partition(p, l).dist(v).to_bits(),
                        "pyramid {p} level {l} node {v}"
                    );
                    assert_eq!(
                        rebuilt.partition(p, l).seed_of(v),
                        fresh.partition(p, l).seed_of(v)
                    );
                }
            }
        }
        rebuilt.check_invariants(g, &w1).unwrap();
    }

    /// A trace buffer one slot short must fail loudly in every build, not
    /// let the zip skip the trailing partitions' repairs.
    #[test]
    #[should_panic(expected = "one buffer per partition")]
    fn short_trace_buffer_panics() {
        let (g, mut w) = paper_figure2();
        let mut pyr = Pyramids::build(&g, &w, 2, 0.7, 42);
        let old = w[0];
        w[0] = 2.0 * old;
        let mut out = vec![Vec::new(); 2 * pyr.num_levels() - 1];
        pyr.on_weight_change_serial_into(&g, &w, 0, old, &mut out);
    }

    #[test]
    fn batch_repair_empty_is_noop() {
        let (g, w) = paper_figure2();
        let mut pyr = Pyramids::build(&g, &w, 2, 0.7, 42);
        let stats = pyr.on_weight_change_batch(&g, &w, &[]);
        assert_eq!(stats, RepairStats::default());
        pyr.check_invariants(&g, &w).unwrap();
    }

    #[test]
    fn default_level_gives_sqrt_n_seeds() {
        let (g, w) = paper_figure2(); // n = 13, √13 ≈ 3.6 → level with 4 seeds = l 2
        let pyr = Pyramids::build(&g, &w, 2, 0.7, 5);
        assert_eq!(pyr.default_level(), 2);
    }

    #[test]
    fn approx_distance_upper_bounds_exact() {
        let lg = connected_caveman(4, 6);
        let g = &lg.graph;
        let w: Vec<f64> = g
            .iter_edges()
            .map(|(_, u, v)| if lg.labels[u as usize] == lg.labels[v as usize] { 0.5 } else { 3.0 })
            .collect();
        let pyr = Pyramids::build(g, &w, 4, 0.7, 17);
        let (mut joined, mut split) = (0, 0);
        for u in (0..g.n() as NodeId).step_by(3) {
            for v in (0..g.n() as NodeId).step_by(5) {
                let est = pyr.approx_distance(u, v);
                let exact = anc_graph::dijkstra::pair_distance(g, u, v, |e| w[e as usize]);
                if u == v {
                    assert_eq!(est, 0.0);
                    continue;
                }
                assert!(
                    est >= exact - 1e-9,
                    "sketch must not underestimate: ({u},{v}) est {est} exact {exact}"
                );
                // Only the weighted levels estimate: level 0 holds hop
                // counts, so a pair no partition at levels ≥ 1 joins gets ∞.
                let weighted_join = (0..pyr.k())
                    .any(|p| (1..pyr.num_levels()).any(|l| pyr.partition(p, l).same_seed(u, v)));
                assert_eq!(est.is_finite(), weighted_join, "({u},{v}) est {est}");
                if weighted_join {
                    joined += 1;
                } else {
                    split += 1;
                }
            }
        }
        assert!(joined > 0 && split > 0, "both cases must occur: {joined} joined, {split} split");
    }

    #[test]
    fn approx_distance_disconnected_is_infinite() {
        let g = anc_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let w = vec![1.0, 1.0];
        let pyr = Pyramids::build(&g, &w, 2, 0.7, 3);
        assert!(pyr.approx_distance(0, 2).is_infinite());
        assert!(pyr.approx_distance(0, 1).is_finite());
    }

    #[test]
    fn memory_grows_linearly_with_k() {
        let lg = connected_caveman(8, 6);
        let w = vec![1.0; lg.graph.m()];
        let m2 = Pyramids::build(&lg.graph, &w, 2, 0.7, 1).memory_bytes();
        let m4 = Pyramids::build(&lg.graph, &w, 4, 0.7, 1).memory_bytes();
        let ratio = m4 as f64 / m2 as f64;
        assert!((1.7..=2.3).contains(&ratio), "k scaling ratio {ratio}");
    }
}
