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
//! [`Pyramids::repair`] of 12 deltas or more on two or more threads,
//! [`Pyramids::rebuild`] and [`Pyramids::rescale`] run one pool task per
//! partition.

use anc_graph::{EdgeId, Graph, NodeId};
use rand::seq::index::sample;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::needed_votes;
use crate::invariant::InvariantViolation;
use crate::voronoi::VoronoiPartition;

/// Counters of [`Pyramids::repair`], summed over all partitions: each delta
/// counts once per partition of a live level `≥ 1`. Also what
/// [`crate::AncEngine::activate_batch`] reports for a whole batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Replays that wrote at least one node (Algorithms 1–3 moved the
    /// partition).
    pub updates: usize,
    /// Replays that wrote no node: an increase on a non-tree edge, or a
    /// decrease that improves neither endpoint.
    pub skips: usize,
}

impl std::ops::AddAssign for RepairStats {
    fn add_assign(&mut self, rhs: Self) {
        self.updates += rhs.updates;
        self.skips += rhs.skips;
    }
}

/// The fewest deltas a flush hands the pool, at two or more threads: below
/// it, waking the pool and filling a private `O(m)` weight array per thread
/// cost about what splitting the replays saves, so the flush repairs in
/// place (DESIGN.md §7 has the measurements).
const POOL_MIN_DELTAS: usize = 12;

/// One thread's slot of a grouped repair: a private weight array for the
/// rewound replay and the thread's counters. Pooled on [`Pyramids`], one
/// slot per participating thread, so repeated batches stop allocating after
/// the first at a thread count.
#[derive(Clone, Debug, Default)]
struct RepairScratch {
    weights: Vec<f64>,
    /// Whether `weights` holds this batch's final weights yet: a thread's
    /// first task of a batch fills it, its later tasks only rewind.
    filled: bool,
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

    /// Repairs the index for one edge-weight change and returns, per
    /// partition (pyramid-major order, `p * levels + l`), the nodes whose
    /// seed, distance or parent it wrote, in write order with repeats:
    /// [`Self::repair`] of one delta into fresh buffers, at `weights`, which
    /// hold the change's new weight.
    pub fn on_weight_change(
        &mut self,
        g: &Graph,
        weights: &[f64],
        e: EdgeId,
        old_w: f64,
    ) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.partitions.len()];
        self.repair_unwritten(g, weights, &[(e, old_w, weights[e as usize])], &mut out);
        out
    }

    /// The one repair kernel: applies the ordered weight deltas `(e, old_w,
    /// new_w)` to every partition of a live level `≥ 1` (Algorithms 1–3)
    /// and traces what each wrote. `weights` holds the final values, so the
    /// last delta of an edge has its `new_w`; an edge may change several
    /// times. Each partition replays the deltas in order with
    /// [`VoronoiPartition::on_weight_change_into`] at the exact per-step
    /// weights, so it ends bit-identical to a repair after every change.
    /// Deferring repairs naively would be unsound: one repair may propagate
    /// through a region another has yet to invalidate.
    ///
    /// `traces` holds one buffer per partition; each is cleared, then left
    /// with the nodes its partition wrote over the whole list, in write
    /// order and with repeats (those of level 0 and of stale levels stay
    /// empty): ordering them is the reader's cost, paid only where one reads
    /// ([`crate::ClusterCache::note_affected`]). The buffers are the
    /// caller's, so the engine pools them. A replay that wrote no node
    /// counts as a skip, any other as an update.
    ///
    /// The arm follows the participants (DESIGN.md §7). A lone delta
    /// replays at `weights`, its only step (`repair_lone`). When one thread
    /// runs a grouped flush — fewer than [`POOL_MIN_DELTAS`] deltas, or a
    /// pool of one thread — each partition rewinds and replays on `weights`
    /// itself (`repair_in_place`), which the last partition leaves back at
    /// the final values, bit for bit. Only two or more threads take the pool
    /// (`repair_pooled`), where each fills a private `O(m)` weight array and
    /// replays on it. `RAYON_NUM_THREADS` is read once, and only for
    /// [`POOL_MIN_DELTAS`] deltas or more. Either arm runs the same
    /// per-partition loop ([`rewind_replay`]), so neither the state, the
    /// traces nor the counts depend on the arm.
    ///
    /// # Panics
    ///
    /// If `traces` does not hold exactly one buffer per partition.
    pub fn repair(
        &mut self,
        g: &Graph,
        weights: &mut [f64],
        deltas: &[(EdgeId, f64, f64)],
        traces: &mut [Vec<NodeId>],
    ) -> RepairStats {
        if deltas.len() < 2 {
            return self.repair_lone(g, weights, deltas, traces);
        }
        let threads = if deltas.len() < POOL_MIN_DELTAS { 1 } else { rayon::current_num_threads() };
        if threads < 2 {
            self.repair_in_place(g, weights, deltas, traces)
        } else {
            self.repair_pooled(g, weights, deltas, traces, threads)
        }
    }

    /// [`Self::repair`]'s one-thread arm: partition by partition,
    /// [`rewind_replay`] on `weights` itself, so no copy is made.
    ///
    /// # Panics
    ///
    /// If `traces` does not hold exactly one buffer per partition.
    fn repair_in_place(
        &mut self,
        g: &Graph,
        weights: &mut [f64],
        deltas: &[(EdgeId, f64, f64)],
        traces: &mut [Vec<NodeId>],
    ) -> RepairStats {
        let mut stats = RepairStats::default();
        self.each_repaired(traces, |p, trace| {
            rewind_replay(g, weights, deltas, p, trace, &mut stats);
        });
        stats
    }

    /// Clears every trace, then runs `f` on each partition of a live level
    /// `≥ 1` with its trace, one after another.
    ///
    /// # Panics
    ///
    /// If `traces` does not hold exactly one buffer per partition.
    fn each_repaired(
        &mut self,
        traces: &mut [Vec<NodeId>],
        mut f: impl FnMut(&mut VoronoiPartition, &mut Vec<NodeId>),
    ) {
        assert_eq!(traces.len(), self.partitions.len(), "one buffer per partition");
        let (levels, live) = (self.levels, self.live);
        for (i, (p, trace)) in self.partitions.iter_mut().zip(traces).enumerate() {
            trace.clear();
            if repaired(i, levels, live) {
                f(p, trace);
            }
        }
    }

    /// [`Self::repair`]'s pool arm on `threads ≥ 2` threads: one task per
    /// partition (Lemma 13), each running [`rewind_replay`] on its thread's
    /// private weight array, filled with the final `weights` by the thread's
    /// first task of the batch. Each task owns its partition and counters
    /// sum per thread slot, so neither the state nor the counts depend on
    /// the thread count.
    ///
    /// # Panics
    ///
    /// If `traces` does not hold exactly one buffer per partition, or
    /// `threads` is 0.
    fn repair_pooled(
        &mut self,
        g: &Graph,
        weights: &[f64],
        deltas: &[(EdgeId, f64, f64)],
        traces: &mut [Vec<NodeId>],
        threads: usize,
    ) -> RepairStats {
        assert_eq!(traces.len(), self.partitions.len(), "one buffer per partition");
        let (levels, live) = (self.levels, self.live);
        for s in &mut self.repair_scratch {
            s.filled = false;
            s.stats = RepairStats::default();
        }
        let (parts, scratch) = (&mut self.partitions[..], &mut self.repair_scratch);
        rayon::for_each_with((parts, traces), threads, scratch, |i, (p, trace), s| {
            trace.clear();
            if repaired(i, levels, live) {
                let RepairScratch { weights: w, filled, stats } = s;
                if !std::mem::replace(filled, true) {
                    w.clear();
                    w.extend_from_slice(weights);
                }
                rewind_replay(g, w, deltas, p, trace, stats);
            }
        });
        let mut stats = RepairStats::default();
        self.repair_scratch.iter().for_each(|s| stats += s.stats);
        stats
    }

    /// One change at the final `weights`, under the name `bench/src/twin.rs`
    /// (the benchmark's layer-by-layer twin of the engine) still calls
    /// (`repair_unwritten`).
    #[doc(hidden)]
    pub fn on_weight_change_serial_into(
        &mut self,
        g: &Graph,
        weights: &[f64],
        e: EdgeId,
        old_w: f64,
        out: &mut [Vec<NodeId>],
    ) {
        self.repair_unwritten(g, weights, &[(e, old_w, weights[e as usize])], out);
    }

    /// [`Self::repair`] into fresh buffers, at the final `weights`, under the
    /// name `bench/src/twin.rs` still calls (`repair_unwritten`).
    #[doc(hidden)]
    pub fn on_weight_change_batch(
        &mut self,
        g: &Graph,
        weights: &[f64],
        deltas: &[(EdgeId, f64, f64)],
    ) -> RepairStats {
        let mut out = vec![Vec::new(); self.partitions.len()];
        self.repair_unwritten(g, weights, deltas, &mut out)
    }

    /// [`Self::repair`] at the final `weights`, under the name
    /// `bench/src/twin.rs` still calls (`repair_unwritten`).
    #[doc(hidden)]
    pub fn on_weight_change_batch_traced(
        &mut self,
        g: &Graph,
        weights: &[f64],
        deltas: &[(EdgeId, f64, f64)],
        out: &mut [Vec<NodeId>],
    ) -> RepairStats {
        self.repair_unwritten(g, weights, deltas, out)
    }

    /// [`Self::repair`] on weights the caller lends but does not let it
    /// write (the one-change entry and the names `bench/src/twin.rs`
    /// calls): a lone delta as in [`Self::repair`], two or more on the pool
    /// arm at the current thread count, with its private copy of the
    /// weights even at one thread.
    fn repair_unwritten(
        &mut self,
        g: &Graph,
        weights: &[f64],
        deltas: &[(EdgeId, f64, f64)],
        traces: &mut [Vec<NodeId>],
    ) -> RepairStats {
        if deltas.len() < 2 {
            return self.repair_lone(g, weights, deltas, traces);
        }
        self.repair_pooled(g, weights, deltas, traces, rayon::current_num_threads())
    }

    /// [`Self::repair`] of zero or one delta: a lone change's only step is
    /// the final `weights`, so it replays there with nothing to rewind.
    ///
    /// # Panics
    ///
    /// If `traces` does not hold exactly one buffer per partition.
    fn repair_lone(
        &mut self,
        g: &Graph,
        weights: &[f64],
        deltas: &[(EdgeId, f64, f64)],
        traces: &mut [Vec<NodeId>],
    ) -> RepairStats {
        debug_assert!(
            deltas.iter().all(|&(e, _, new_w)| weights[e as usize] == new_w),
            "a lone delta's new_w must be the final weight"
        );
        let mut stats = RepairStats::default();
        self.each_repaired(traces, |p, trace| {
            for &(e, old_w, _) in deltas {
                replay(g, weights, e, old_w, p, trace, &mut stats);
            }
        });
        stats
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

/// Replays one change of `e` on partition `p` at `weights`, appending the
/// nodes it writes to `trace` and counting it in `stats`: a skip when it
/// wrote none, an update otherwise.
fn replay(
    g: &Graph,
    weights: &[f64],
    e: EdgeId,
    old_w: f64,
    p: &mut VoronoiPartition,
    trace: &mut Vec<NodeId>,
    stats: &mut RepairStats,
) {
    let before = trace.len();
    p.on_weight_change_into(g, weights, e, old_w, trace);
    if trace.len() == before {
        stats.skips += 1;
    } else {
        stats.updates += 1;
    }
}

/// One partition's share of a repair: rewinds every delta's edge in `w`,
/// which holds the final weights, to its pre-batch weight, then per delta
/// in order writes its `new_w` and replays it on partition `p`, appending
/// what it writes to `trace`, so `w` ends back at the final weights. The
/// appends and counts go through locals and land once at the end: the
/// pool's trace headers and thread slots sit side by side, so writing
/// through them per replay would bounce their cache lines between the
/// threads.
fn rewind_replay(
    g: &Graph,
    w: &mut [f64],
    deltas: &[(EdgeId, f64, f64)],
    p: &mut VoronoiPartition,
    trace: &mut Vec<NodeId>,
    stats: &mut RepairStats,
) {
    for &(e, old_w, new_w) in deltas.iter().rev() {
        // Walked backwards, each delta's `new_w` is its edge's weight after
        // it: the final weight for the edge's last delta, the next delta's
        // `old_w` for the others.
        debug_assert!(w[e as usize] == new_w, "deltas must chain to the final weights");
        w[e as usize] = old_w;
    }
    let (mut local, mut counts) = (std::mem::take(trace), RepairStats::default());
    for &(e, old_w, new_w) in deltas {
        w[e as usize] = new_w;
        replay(g, w, e, old_w, p, &mut local, &mut counts);
    }
    *trace = local;
    *stats += counts;
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

    /// The grouped repair must reproduce the per-delta serial path **bit
    /// for bit** and count the same work, including an edge that changes
    /// twice in one batch (intermediate weights matter) and inert deltas
    /// (counted as skips).
    #[test]
    fn batch_repair_matches_serial_replay_bitwise() {
        let lg = connected_caveman(4, 5);
        let g = &lg.graph;
        let w0 = vec![1.0; g.m()];
        let mut serial = Pyramids::build(g, &w0, 3, 0.7, 9);
        let mut batched = Pyramids::build(g, &w0, 3, 0.7, 9);
        let mut traces = vec![Vec::new(); 3 * serial.num_levels()];

        // Edge 0 changes twice; edge 5 and 9 once each.
        let steps: &[(EdgeId, f64)] = &[(0, 0.3), (5, 4.0), (0, 2.0), (9, 0.1)];
        let mut w = w0.clone();
        let mut deltas = Vec::new();
        let mut serial_stats = RepairStats::default();
        for &(e, new_w) in steps {
            let old = w[e as usize];
            w[e as usize] = new_w;
            serial_stats += serial.repair(g, &mut w, &[(e, old, new_w)], &mut traces);
            deltas.push((e, old, new_w));
        }
        let stats = batched.repair(g, &mut w, &deltas, &mut traces);
        assert_eq!(stats, serial_stats, "one count per delta and partition, either way");
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

    /// Consecutive grouped repairs of the pool arm run through the same
    /// per-thread slots, with an (exact, power-of-two) rescale between them
    /// moving every weight the slots hold: each batch must refill its
    /// thread's weight array, reset its counters and clear its traces, so
    /// the state stays bit-identical to the serial replay, and the traces
    /// equal the union of its, batch after batch — on one thread's slot and
    /// on three.
    #[test]
    fn consecutive_batches_reuse_slots_without_leaking_state() {
        let lg = connected_caveman(4, 5);
        let g = &lg.graph;
        for threads in [1, 3] {
            let mut w = vec![1.0; g.m()];
            let mut serial = Pyramids::build(g, &w, 3, 0.7, 9);
            let mut batched = serial.clone();
            let parts = 3 * serial.num_levels();
            let (mut traces, mut one) = (vec![Vec::new(); parts], vec![Vec::new(); parts]);
            for batch in [[(0, 0.3), (5, 4.0)], [(0, 2.0), (9, 0.1)], [(5, 0.2), (3, 7.0)]] {
                w.iter_mut().for_each(|x| *x *= 0.5);
                serial.rescale(0.5);
                batched.rescale(0.5);
                let mut deltas = Vec::new();
                let mut writes = vec![Vec::new(); parts];
                for (e, new_w) in batch {
                    let old = w[e as usize];
                    w[e as usize] = new_w;
                    serial.repair(g, &mut w, &[(e, old, new_w)], &mut one);
                    writes.iter_mut().zip(&one).for_each(|(u, o)| u.extend_from_slice(o));
                    deltas.push((e, old, new_w));
                }
                let stats = batched.repair_pooled(g, &w, &deltas, &mut traces, threads);
                assert_eq!(stats.updates + stats.skips, 2 * 3 * (serial.num_levels() - 1));
                assert_eq!(traces, writes, "a grouped trace is the serial ones in order");
                for (a, b) in serial.partitions.iter().zip(&batched.partitions) {
                    let bits = |p: &VoronoiPartition| -> Vec<(u64, NodeId)> {
                        (0..g.n() as NodeId).map(|v| (p.dist(v).to_bits(), p.seed_of(v))).collect()
                    };
                    assert_eq!(bits(a), bits(b), "{threads} threads");
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
        let new_w = w[0];
        pyr.repair(&g, &mut w, &[(0, old, new_w)], &mut out);
    }

    /// The in-place arm writes the weights it is lent: weights the deltas
    /// do not chain to must fail loudly in a debug build, not be silently
    /// overwritten with the deltas' own.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "deltas must chain to the final weights")]
    fn in_place_repair_rejects_weights_the_deltas_do_not_end_at() {
        let (g, mut w) = paper_figure2();
        let mut pyr = Pyramids::build(&g, &w, 2, 0.7, 42);
        let mut traces = vec![Vec::new(); 2 * pyr.num_levels()];
        // Two changes whose new weights never reached `w`.
        let deltas = [(0, w[0], 2.0 * w[0]), (1, w[1], 2.0 * w[1])];
        pyr.repair(&g, &mut w, &deltas, &mut traces);
    }

    #[test]
    fn batch_repair_empty_is_noop() {
        let (g, mut w) = paper_figure2();
        let mut pyr = Pyramids::build(&g, &w, 2, 0.7, 42);
        let mut traces = vec![vec![0]; 2 * pyr.num_levels()];
        let stats = pyr.repair(&g, &mut w, &[], &mut traces);
        assert_eq!(stats, RepairStats::default());
        assert!(traces.iter().all(Vec::is_empty), "every trace is cleared");
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

    /// The two arms of [`Pyramids::repair`] are one repair: the in-place arm
    /// and the pool arm, each called directly (the pool at 2 and 4 threads)
    /// whatever `RAYON_NUM_THREADS` says, leave the same index bit for bit,
    /// the same traces in write order, the same counts and the same cache
    /// generation, and the in-place arm hands the weights back at their
    /// final values. On the engine's own weights, with batches that
    /// change edges several times and a range step (every weight and live
    /// distance times `2^40`) before a batch of lifts.
    #[test]
    fn repair_arms_leave_the_same_index_traces_counts_and_generation() {
        use crate::{AncConfig, AncEngine, ClusterCache, ClusterMode};
        use anc_graph::gen::{planted_partition, PlantedConfig};
        use rand::{Rng, SeedableRng};

        struct Arm {
            threads: usize,
            pyr: Pyramids,
            weights: Vec<f64>,
            cache: ClusterCache,
            traces: Vec<Vec<NodeId>>,
        }
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let index_bits = |g: &Graph, pyr: &Pyramids| -> Vec<(u64, NodeId, NodeId)> {
            let parts = pyr.partitions.iter();
            parts
                .flat_map(|p| {
                    (0..g.n() as NodeId).map(|v| (p.dist(v).to_bits(), p.seed_of(v), p.parent(v)))
                })
                .collect()
        };

        let lg = planted_partition(&PlantedConfig::default_for(600), 3);
        let engine = AncEngine::new(lg.graph, AncConfig::default(), 3);
        let g = engine.graph();
        let m = g.m() as EdgeId;
        let mut weights: Vec<f64> = engine.sim_anchored().iter().map(|s| 1.0 / s).collect();
        let mut arms = [1, 2, 4].map(|threads| {
            let pyr = engine.pyramids().clone();
            let mut cache = ClusterCache::new(pyr.num_levels());
            let _ = cache.query(g, &pyr, pyr.default_level(), ClusterMode::Even);
            let traces = vec![Vec::new(); pyr.partitions.len()];
            Arm { threads, pyr, weights: weights.clone(), cache, traces }
        });
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for i in 0..25 {
            let steps: Vec<(EdgeId, f64)> = if i == 13 {
                // The range step, then lifts of edges below the floor.
                let up = 2f64.powi(40);
                weights.iter_mut().for_each(|w| *w *= up);
                for arm in &mut arms {
                    arm.weights.iter_mut().for_each(|w| *w *= up);
                    arm.pyr.rescale(up);
                }
                (0..32).map(|_| (rng.gen_range(0..m), 0.125)).collect()
            } else {
                let len = [2, 8, 16, 64][i % 4];
                let mut steps: Vec<_> =
                    (0..len).map(|_| (rng.gen_range(0..m), rng.gen_range(0.25..4.0))).collect();
                // One edge changes three times, another twice.
                let (a, b) = (steps[0].0, steps[len / 2].0);
                steps.extend([(a, 0.5), (b, 3.0), (a, 1.5)]);
                steps
            };
            let mut deltas = Vec::new();
            for (e, factor) in steps {
                let old = weights[e as usize];
                weights[e as usize] = old * factor;
                deltas.push((e, old, old * factor));
            }
            let mut first = None;
            for arm in &mut arms {
                arm.weights.copy_from_slice(&weights);
                let stats = if arm.threads == 1 {
                    arm.pyr.repair_in_place(g, &mut arm.weights, &deltas, &mut arm.traces)
                } else {
                    arm.pyr.repair_pooled(g, &arm.weights, &deltas, &mut arm.traces, arm.threads)
                };
                assert!(bits(&arm.weights) == bits(&weights), "batch {i}: weights moved");
                arm.cache.note_affected(g, &arm.traces);
                let got =
                    (stats, arm.cache.generation(), arm.traces.clone(), index_bits(g, &arm.pyr));
                let want = first.get_or_insert_with(|| got.clone());
                assert!(got == *want, "batch {i}: the arm at {} threads differs", arm.threads);
            }
            let (stats, ..) = first.expect("three arms");
            assert!(stats.updates > 0 && stats.skips > 0, "batch {i} moves some partitions");
        }
        for arm in &mut arms {
            arm.pyr.check_invariants(g, &weights).unwrap();
            let level = arm.pyr.default_level();
            let (cached, _) = arm.cache.query(g, &arm.pyr, level, ClusterMode::Even);
            assert_eq!(*cached, crate::cluster::cluster_all(g, &arm.pyr, level, ClusterMode::Even));
        }
    }
}
