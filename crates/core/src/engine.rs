//! The end-to-end engines (paper Section VI, "Our Methods"):
//!
//! * **ANCO** — the online method: [`AncEngine::activate`] updates the
//!   activeness, applies local reinforcement with the activated trigger
//!   edge, and repairs the index with the bounded update algorithms. Cost
//!   per activation is `O(Σ_{x ∈ U'} deg x)` per partition (Lemma 12).
//! * **ANCOR** — ANCO plus periodic extra reinforcement:
//!   [`AncEngine::reinforce_edges`] replays local reinforcement over a set
//!   of recently activated edges at intervals (5 timestamps by default in
//!   the paper), refreshing the structural signal that dissipates between
//!   full rebuilds. (The paper specifies the interval but not the replay
//!   set; we use the edges activated during the elapsed interval — see
//!   DESIGN.md §3.)
//! * **ANCF** — the offline method: [`AncEngine::offline_snapshot`]
//!   recomputes `S_t` from scratch with `rep` full reinforcement passes
//!   against the *current* activeness and rebuilds the index, exactly like
//!   indexing a fresh snapshot.
//!
//! One batched rescale (`anc-decay`) is shared by every store: anchored
//! activeness and similarity absorb `g` (PosM), reciprocal weights and all
//! pyramid distances absorb `1/g` (NegM, Lemma 10). At rescale time no
//! comparison outcome changes, so the index structure is untouched; but
//! `dist·(1/g)` and `recip·(1/g)` round separately, so afterwards
//! `dist[child] == dist[parent] + w` holds only to an ulp and a later exact
//! compare at a near-tie may resolve differently than it would have without
//! the rescale (ROADMAP item 1). Repairs report every node they write, so
//! the cluster cache follows the index either way.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anc_decay::{ActivenessStore, DecayClock, MaintainClass, Rescalable, Time};
use anc_graph::{EdgeId, Graph, NodeId};
use anc_metrics::Clustering;
use rayon::prelude::*;

use crate::cache::{ClusterCache, QueryStats};
use crate::cluster::{cluster_all, ClusterMode};
use crate::config::{AncConfig, BatchMode};
use crate::invariant::{self, InvariantViolation};
use crate::pyramid::Pyramids;
use crate::query;
use crate::reinforce::{
    apply_reinforcement, apply_reinforcement_cached, CachedTrigger, ReinforceParams,
};
use crate::similarity::{NodeType, Scratch, ScratchPool, SimilarityCtx};

/// Counters and timing from one [`AncEngine::activate_batch`] (or
/// [`AncEngine::activate_batch_adaptive`]) call — the observability surface
/// of the batch-ingestion pipeline (see DESIGN.md §7).
#[derive(Clone, Copy, Debug, Default)]
#[must_use = "BatchStats carries the batch's dirty-set and repair counters"]
pub struct BatchStats {
    /// Activations fed into the batch.
    pub edges_in: usize,
    /// Distinct edges whose weight actually changed (the dirty set).
    pub dirty_edges: usize,
    /// `sigma_all` evaluations performed: two per activation on the exact
    /// path, one per distinct trigger node on the fused path.
    pub sigma_recomputes: usize,
    /// Bounded Voronoi updates executed across all partitions.
    pub repair_updates: usize,
    /// Delta × partition pairs short-circuited by the no-op precheck.
    pub repair_skips: usize,
    /// Whether the adaptive path chose a full index rebuild instead of
    /// grouped repairs.
    pub rebuilt: bool,
    /// Wall time of the whole batch call.
    pub wall: Duration,
}

/// Merges two batch records: every counter sums, `rebuilt` is sticky, and
/// the wall times add — so a thread (or the serving writer loop) can fold
/// per-batch records into one cumulative tally with `total += stats`.
impl std::ops::AddAssign<BatchStats> for BatchStats {
    fn add_assign(&mut self, rhs: BatchStats) {
        self.edges_in += rhs.edges_in;
        self.dirty_edges += rhs.dirty_edges;
        self.sigma_recomputes += rhs.sigma_recomputes;
        self.repair_updates += rhs.repair_updates;
        self.repair_skips += rhs.repair_skips;
        self.rebuilt |= rhs.rebuilt;
        self.wall += rhs.wall;
    }
}

/// The online activation-network clustering engine (ANCO core).
///
/// ```
/// use anc_core::{AncConfig, AncEngine, ClusterMode};
/// use anc_graph::gen::connected_caveman;
///
/// let lg = connected_caveman(3, 5); // three 5-cliques with bridges
/// let mut engine = AncEngine::new(lg.graph.clone(), AncConfig::default(), 7);
///
/// // Stream a few activations and query.
/// engine.activate(0, 1.0);
/// engine.activate(1, 2.5);
/// let clusters = engine.cluster_all(engine.default_level(), ClusterMode::Power);
/// assert!(clusters.num_clusters() >= 3);
/// let mine = engine.local_cluster(0, engine.default_level());
/// assert!(mine.contains(&0));
/// # engine.check_invariants().unwrap();
/// ```
pub struct AncEngine {
    g: Graph,
    cfg: AncConfig,
    clock: DecayClock,
    /// Anchored activeness per edge (PosM).
    act: ActivenessStore,
    /// Anchored per-node activeness sums `A(v)` (PosM; σ denominators).
    node_sum: Vec<f64>,
    /// Anchored similarity `S*` per edge (PosM, Lemma 4).
    sim: Vec<f64>,
    /// Anchored reciprocal similarity `1/S*` per edge (NegM) — the index's
    /// edge weights, kept materialized so partitions can read a plain slice.
    recip: Vec<f64>,
    /// The pyramids index.
    pyramids: Pyramids,
    /// Index RNG seed (reused by offline rebuilds for comparability).
    index_seed: u64,
    scratch: Scratch,
    /// Per-worker scratch buffers for the fused batch path's parallel σ
    /// phase (allocated lazily, reused across batches).
    sigma_pool: ScratchPool,
    /// Fused-batch worker outputs in flight between the parallel σ phase
    /// and reassembly; persists so `collect_into_vec` reuses one buffer.
    batch_chunks: Vec<Scratch>,
    /// Reassembled flat σ rows of the current fused batch (reused).
    batch_sigma_flat: Vec<f64>,
    /// Per-trigger (offset, len, node type) into `batch_sigma_flat`.
    batch_ranges: Vec<(usize, usize, NodeType)>,
    /// Running sum of the anchored similarities (for the relative floor).
    sim_sum: f64,
    /// Total activations processed.
    activations: u64,
    /// Total batched rescales performed.
    rescales: u64,
    /// The incremental cluster-query cache (interior mutability so
    /// `&self` queries can repair lazily; never borrowed across a call
    /// boundary, so the `RefCell` cannot be observed locked).
    cache: RefCell<ClusterCache>,
    /// Pooled per-partition affected-set buffers for the traced grouped
    /// repair (filled only while the cache has materialized levels).
    trace_bufs: Vec<Vec<NodeId>>,
}

/// An offline (ANCF) snapshot: a freshly initialized similarity and index
/// for the activeness state at the moment of the call.
pub struct OfflineSnapshot {
    /// Anchored similarity after `rep` full passes.
    pub sim: Vec<f64>,
    /// Reciprocal weights.
    pub recip: Vec<f64>,
    /// The rebuilt index.
    pub pyramids: Pyramids,
}

impl AncEngine {
    /// Builds the engine: initializes `S_0` (all ones, then `cfg.rep` full
    /// reinforcement passes — the paper's Section IV-C initialization) and
    /// constructs the pyramids.
    ///
    /// Initial edge activeness is 1 (the paper's activation-network
    /// experiments, Section VI).
    pub fn new(g: Graph, cfg: AncConfig, seed: u64) -> Self {
        cfg.validate();
        let m = g.m();
        let clock = DecayClock::with_config(cfg.lambda, cfg.rescale);
        let act = ActivenessStore::new(m, 1.0);
        let mut node_sum = vec![0.0; g.n()];
        for (e, u, v) in g.iter_edges() {
            node_sum[u as usize] += act.anchored(e);
            node_sum[v as usize] += act.anchored(e);
        }
        let mut sim = vec![1.0; m];
        let mut scratch = Scratch::new(g.n());
        let params = ReinforceParams {
            epsilon: cfg.epsilon,
            mu: cfg.mu,
            floor_anchored: cfg.floor.max(cfg.floor_rel),
        };
        {
            let ctx = SimilarityCtx { g: &g, act: act.as_slice(), node_sum: &node_sum };
            for _ in 0..cfg.rep {
                crate::reinforce::full_pass(&ctx, &mut sim, &params, &mut scratch);
            }
        }
        let recip: Vec<f64> = sim.iter().map(|s| 1.0 / s).collect();
        let pyramids = Pyramids::build(&g, &recip, cfg.k, cfg.theta, seed);
        let sim_sum = sim.iter().sum();
        let sigma_pool = ScratchPool::new(g.n());
        let cache = RefCell::new(ClusterCache::new(pyramids.num_levels()));
        Self {
            g,
            cfg,
            clock,
            act,
            node_sum,
            sim,
            recip,
            pyramids,
            index_seed: seed,
            scratch,
            sigma_pool,
            batch_chunks: Vec::new(),
            batch_sigma_flat: Vec::new(),
            batch_ranges: Vec::new(),
            sim_sum,
            activations: 0,
            rescales: 0,
            cache,
            trace_bufs: Vec::new(),
        }
    }

    /// The relation network.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// The configuration.
    pub fn config(&self) -> &AncConfig {
        &self.cfg
    }

    /// The index.
    pub fn pyramids(&self) -> &Pyramids {
        &self.pyramids
    }

    /// Current time.
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// Activations processed so far.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Batched rescales performed so far.
    pub fn rescales(&self) -> u64 {
        self.rescales
    }

    /// True (de-anchored) activeness of `e` at the current time.
    #[must_use = "pure query; the activeness value is the only effect"]
    pub fn activeness(&self, e: EdgeId) -> f64 {
        self.act.current(e, &self.clock)
    }

    /// True similarity `S_t(e)` at the current time.
    #[must_use = "pure query; the similarity value is the only effect"]
    pub fn similarity(&self, e: EdgeId) -> f64 {
        self.sim[e as usize] * self.clock.global_factor()
    }

    /// Anchored similarity slice (for metric computations; anchored values
    /// preserve all comparisons).
    pub fn sim_anchored(&self) -> &[f64] {
        &self.sim
    }

    /// Active similarity σ(u, v) of an edge's endpoints (NeuM — identical
    /// for anchored and true activeness, Lemma 3).
    #[must_use = "pure query; the σ value is the only effect"]
    pub fn sigma(&self, u: NodeId, v: NodeId) -> f64 {
        self.ctx().sigma(u, v)
    }

    /// Node classification under the configured `(ε, µ)`.
    #[must_use = "pure query (scratch reuse aside); the classification is the only effect"]
    pub fn node_type(&mut self, v: NodeId) -> NodeType {
        let ctx = SimilarityCtx { g: &self.g, act: self.act.as_slice(), node_sum: &self.node_sum };
        ctx.node_type(v, self.cfg.epsilon, self.cfg.mu, &mut self.scratch)
    }

    fn ctx(&self) -> SimilarityCtx<'_> {
        SimilarityCtx { g: &self.g, act: self.act.as_slice(), node_sum: &self.node_sum }
    }

    fn reinforce_params(&self) -> ReinforceParams {
        // The anchored floor is the larger of the absolute floor on the
        // *true* similarity (`floor × 1/g`) and the mean-relative floor on
        // the anchored values.
        let mean = self.sim_sum / self.g.m().max(1) as f64;
        ReinforceParams {
            epsilon: self.cfg.epsilon,
            mu: self.cfg.mu,
            floor_anchored: (self.cfg.floor * self.clock.boost()).max(self.cfg.floor_rel * mean),
        }
    }

    /// Processes one activation `(e, t)` — the ANCO per-activation path:
    ///
    /// 1. advance the clock and bump the anchored activeness (`O(1)`,
    ///    Lemma 1);
    /// 2. apply local reinforcement with trigger edge `e` (`O(deg u +
    ///    deg v)` neighborhood work, Lemma 5);
    /// 3. repair every Voronoi partition for the changed weight
    ///    (Algorithms 1–3, bounded by the affected region, Lemma 12);
    /// 4. absorb a batched rescale if one is due.
    pub fn activate(&mut self, e: EdgeId, t: Time) {
        self.apply_activation(e, t);
    }

    /// Like [`Self::activate`] but returns the update's footprint: the
    /// per-partition affected-node lists (pyramid-major order), ready to be
    /// fed to a [`crate::VoteCache`] / [`crate::ClusterMonitor`] for
    /// real-time change reporting (the paper's Section V-C Remarks).
    ///
    /// An empty trace means the activation left the similarity (and hence
    /// the index) unchanged.
    pub fn activate_traced(&mut self, e: EdgeId, t: Time) -> Vec<Vec<NodeId>> {
        if self.apply_activation(e, t) {
            self.trace_bufs.clone()
        } else {
            // audit:allow(hot-alloc) -- an empty Vec::new never allocates
            Vec::new()
        }
    }

    /// The body of [`Self::activate`]; returns whether the similarity (and
    /// hence the index) changed, in which case `self.trace_bufs` holds the
    /// per-partition affected nodes.
    fn apply_activation(&mut self, e: EdgeId, t: Time) -> bool {
        self.clock.advance_to(t);
        self.act.activate(e, &self.clock);
        let (u, v) = self.g.endpoints(e);
        let boost = self.clock.boost();
        self.node_sum[u as usize] += boost;
        self.node_sum[v as usize] += boost;
        self.clock.note_activation();
        self.activations += 1;

        let changed = self.reinforce_and_repair(e);
        self.maybe_rescale();
        changed
    }

    /// Grows the pooled per-partition trace buffers to one per partition
    /// (`k · levels` slots, fixed for the engine's lifetime).
    fn ensure_trace_bufs(&mut self) {
        let slots = self.pyramids.k() * self.pyramids.num_levels();
        if self.trace_bufs.len() < slots {
            self.trace_bufs.resize_with(slots, || Vec::with_capacity(0));
        }
    }

    /// Applies local reinforcement on `e` and propagates the weight change
    /// into the index (shared by the ANCO path and ANCOR replays). On
    /// return, `self.trace_bufs` holds the per-partition affected nodes;
    /// returns whether the similarity (and hence the index) changed at all.
    /// The buffers are pooled so the steady-state single-activation path
    /// performs no heap allocation.
    fn reinforce_and_repair(&mut self, e: EdgeId) -> bool {
        let params = self.reinforce_params();
        let ctx = SimilarityCtx { g: &self.g, act: self.act.as_slice(), node_sum: &self.node_sum };
        let out = apply_reinforcement(&ctx, &mut self.sim, e, &params, &mut self.scratch);
        self.sim_sum += out.new_sim - out.old_sim;
        if out.new_sim == out.old_sim {
            return false;
        }
        let old_w = self.recip[e as usize];
        self.recip[e as usize] = 1.0 / out.new_sim;
        self.ensure_trace_bufs();
        if self.cfg.parallel_updates {
            self.pyramids.on_weight_change_into(
                &self.g,
                &self.recip,
                e,
                old_w,
                &mut self.trace_bufs,
            );
        } else {
            self.pyramids.on_weight_change_serial_into(
                &self.g,
                &self.recip,
                e,
                old_w,
                &mut self.trace_bufs,
            );
        }
        self.cache.get_mut().note_affected(&self.g, &self.trace_bufs);
        true
    }

    /// Processes a batch of activations arriving at the same time `t`
    /// through the batch-ingestion pipeline (DESIGN.md §7).
    ///
    /// Instead of repairing all `k·⌈log₂ n⌉` partitions after every single
    /// activation, weight deltas are accumulated and fed to the index as one
    /// grouped [`Pyramids::on_weight_change_batch`] fan-out — one parallel
    /// pass over the partitions per batch, with inert deltas short-circuited
    /// by an exact no-op precheck. [`crate::BatchMode`] selects the
    /// semantics: `Exact` (default) is **bit-identical** to a serial loop of
    /// [`Self::activate`] calls; `Fused` additionally deduplicates σ
    /// recomputation across the batch and parallelizes it. Both are
    /// deterministic regardless of the rayon thread count.
    pub fn activate_batch(&mut self, edges: &[EdgeId], t: Time) -> BatchStats {
        // BatchStats.wall is observability-only; it never feeds the
        // algorithms and is not serialized into snapshots.
        // audit:allow(wall-clock, nondet-taint) -- wall time is reported, never consumed
        let start = Instant::now();
        let mut stats = BatchStats { edges_in: edges.len(), ..Default::default() };
        if !edges.is_empty() {
            match self.cfg.batch {
                BatchMode::Exact => self.batch_exact(edges, t, &mut stats),
                BatchMode::Fused => self.batch_fused(edges, t, &mut stats),
            }
        }
        stats.wall = start.elapsed();
        #[cfg(feature = "debug-invariants")]
        self.debug_assert_invariants("activate_batch");
        stats
    }

    /// The `Exact` batch path: state evolves edge by edge exactly as in the
    /// serial loop; only index repairs are deferred into the grouped replay.
    fn batch_exact(&mut self, edges: &[EdgeId], t: Time, stats: &mut BatchStats) {
        let mut deltas: Vec<(EdgeId, f64, f64)> = Vec::with_capacity(edges.len());
        let mut dirty: Vec<EdgeId> = Vec::with_capacity(edges.len());
        for &e in edges {
            self.clock.advance_to(t);
            self.act.activate(e, &self.clock);
            let (u, v) = self.g.endpoints(e);
            let boost = self.clock.boost();
            self.node_sum[u as usize] += boost;
            self.node_sum[v as usize] += boost;
            self.clock.note_activation();
            self.activations += 1;

            let params = self.reinforce_params();
            let ctx =
                SimilarityCtx { g: &self.g, act: self.act.as_slice(), node_sum: &self.node_sum };
            let out = apply_reinforcement(&ctx, &mut self.sim, e, &params, &mut self.scratch);
            stats.sigma_recomputes += 2;
            self.sim_sum += out.new_sim - out.old_sim;
            if out.new_sim != out.old_sim {
                let old_w = self.recip[e as usize];
                let new_w = 1.0 / out.new_sim;
                self.recip[e as usize] = new_w;
                deltas.push((e, old_w, new_w));
                dirty.push(e);
            }
            // The serial path checks for a due rescale after every
            // activation's repair; pending repairs must land at the
            // pre-rescale weights first.
            if self.clock.needs_rescale() {
                self.flush_repairs(&mut deltas, stats);
                self.force_rescale();
            }
        }
        self.flush_repairs(&mut deltas, stats);
        dirty.sort_unstable();
        dirty.dedup();
        stats.dirty_edges = dirty.len();
    }

    /// The `Fused` batch path: simultaneous-batch semantics. All activeness
    /// bumps land first (`node_sum` maintained incrementally, never
    /// rescanned), then σ is computed **once per distinct trigger node** —
    /// in parallel, with pooled per-worker scratch (σ is NeuM: it reads only
    /// activeness, never `sim`, so the whole batch shares one σ snapshot) —
    /// then reinforcement replays sequentially against the cache, and one
    /// grouped repair plus at most one rescale close the batch.
    fn batch_fused(&mut self, edges: &[EdgeId], t: Time, stats: &mut BatchStats) {
        // Phase 1: activeness.
        self.clock.advance_to(t);
        for &e in edges {
            self.act.activate(e, &self.clock);
            let (u, v) = self.g.endpoints(e);
            let boost = self.clock.boost();
            self.node_sum[u as usize] += boost;
            self.node_sum[v as usize] += boost;
            self.clock.note_activation();
            self.activations += 1;
        }

        // Phase 2: deduplicated trigger set, σ in parallel.
        let mut triggers: Vec<NodeId> = Vec::with_capacity(edges.len() * 2);
        for &e in edges {
            let (u, v) = self.g.endpoints(e);
            triggers.push(u);
            triggers.push(v);
        }
        triggers.sort_unstable();
        triggers.dedup();
        stats.sigma_recomputes += triggers.len();

        // Oversubscribe chunks (~4× threads) so the pool's stealing can
        // balance triggers with uneven neighborhood sizes.
        let n_target = rayon::recommended_chunks(triggers.len());
        let chunk_len = triggers.len().div_ceil(n_target);
        let n_chunks = triggers.len().div_ceil(chunk_len);
        let scratches = self.sigma_pool.take(n_chunks);
        let (epsilon, mu) = (self.cfg.epsilon, self.cfg.mu);
        let ctx = SimilarityCtx { g: &self.g, act: self.act.as_slice(), node_sum: &self.node_sum };
        // Each worker writes its flat σ rows and per-trigger (row length,
        // node type) pairs into its pooled scratch, so the parallel phase
        // allocates nothing once the pool reaches its high-water mark.
        // `par_chunks` and `into_par_iter` are both indexed iterators, which
        // lets `collect_into_vec` reuse the engine's persistent chunk buffer.
        let chunk_out = &mut self.batch_chunks;
        triggers
            .par_chunks(chunk_len)
            .zip(scratches.into_par_iter())
            .map(|(chunk, mut scratch)| {
                scratch.flat.clear();
                scratch.rows.clear();
                for &u in chunk {
                    ctx.sigma_all(u, &mut scratch);
                    let ty = ctx.node_type_from_sigmas(u, epsilon, mu, &scratch.sigmas);
                    scratch.rows.push((scratch.sigmas.len() as u32, ty));
                    scratch.flat.extend_from_slice(&scratch.sigmas);
                }
                scratch
            })
            .collect_into_vec(chunk_out);

        // Reassemble per-trigger σ rows into one flat array; `ranges` is
        // aligned with the sorted `triggers`, looked up by binary search.
        // Both reassembly buffers persist on the engine across batches.
        let mut sigma_flat = std::mem::take(&mut self.batch_sigma_flat);
        let mut ranges = std::mem::take(&mut self.batch_ranges);
        sigma_flat.clear();
        ranges.clear();
        for chunk in &self.batch_chunks {
            let mut off = sigma_flat.len();
            for &(len, ty) in &chunk.rows {
                ranges.push((off, len as usize, ty));
                off += len as usize;
            }
            sigma_flat.extend_from_slice(&chunk.flat);
        }
        self.sigma_pool.put_back(self.batch_chunks.drain(..));

        // Phase 3: sequential reinforcement replay against the σ cache.
        let mut deltas: Vec<(EdgeId, f64, f64)> = Vec::with_capacity(edges.len());
        let mut dirty: Vec<EdgeId> = Vec::with_capacity(edges.len());
        for &e in edges {
            let (u, v) = self.g.endpoints(e);
            let (Ok(iu), Ok(iv)) = (triggers.binary_search(&u), triggers.binary_search(&v)) else {
                // Unreachable by construction (`triggers` holds every batch
                // endpoint), but a cache miss must not panic on the hot
                // path: fall back to the uncached reinforcement, which
                // recomputes σ from the same activeness snapshot and is
                // therefore numerically identical.
                let params = self.reinforce_params();
                let ctx = SimilarityCtx {
                    g: &self.g,
                    act: self.act.as_slice(),
                    node_sum: &self.node_sum,
                };
                let out = apply_reinforcement(&ctx, &mut self.sim, e, &params, &mut self.scratch);
                stats.sigma_recomputes += 2;
                self.sim_sum += out.new_sim - out.old_sim;
                if out.new_sim != out.old_sim {
                    let old_w = self.recip[e as usize];
                    let new_w = 1.0 / out.new_sim;
                    self.recip[e as usize] = new_w;
                    deltas.push((e, old_w, new_w));
                    dirty.push(e);
                }
                continue;
            };
            let (su, lu, tu) = ranges[iu];
            let (sv, lv, tv) = ranges[iv];
            let floor = self.reinforce_params().floor_anchored;
            let ctx =
                SimilarityCtx { g: &self.g, act: self.act.as_slice(), node_sum: &self.node_sum };
            let out = apply_reinforcement_cached(
                &ctx,
                &mut self.sim,
                e,
                floor,
                CachedTrigger { sigmas: &sigma_flat[su..su + lu], node_type: tu },
                CachedTrigger { sigmas: &sigma_flat[sv..sv + lv], node_type: tv },
                &mut self.scratch,
            );
            self.sim_sum += out.new_sim - out.old_sim;
            if out.new_sim != out.old_sim {
                let old_w = self.recip[e as usize];
                let new_w = 1.0 / out.new_sim;
                self.recip[e as usize] = new_w;
                deltas.push((e, old_w, new_w));
                dirty.push(e);
            }
        }
        self.batch_sigma_flat = sigma_flat;
        self.batch_ranges = ranges;

        // Phase 4: one grouped repair fan-out, then at most one rescale
        // (safe to defer: `t` is fixed within the batch, so the anchored
        // magnitudes cannot drift past the exponent guard mid-batch).
        self.flush_repairs(&mut deltas, stats);
        self.maybe_rescale();
        dirty.sort_unstable();
        dirty.dedup();
        stats.dirty_edges = dirty.len();
    }

    /// Feeds the accumulated weight deltas to the index as one grouped
    /// parallel fan-out and clears the accumulator. While the cluster cache
    /// has materialized levels the traced variant runs instead, collecting
    /// per-partition affected sets into pooled buffers so the cache can
    /// mark its dirty edges.
    fn flush_repairs(&mut self, deltas: &mut Vec<(EdgeId, f64, f64)>, stats: &mut BatchStats) {
        if deltas.is_empty() {
            return;
        }
        let rs = if self.cache.get_mut().has_materialized_levels() {
            self.ensure_trace_bufs();
            let rs = self.pyramids.on_weight_change_batch_traced(
                &self.g,
                &self.recip,
                deltas,
                &mut self.trace_bufs,
            );
            self.cache.get_mut().note_affected(&self.g, &self.trace_bufs);
            rs
        } else {
            self.cache.get_mut().note_untracked_updates();
            self.pyramids.on_weight_change_batch(&self.g, &self.recip, deltas)
        };
        stats.repair_updates += rs.updates;
        stats.repair_skips += rs.skips;
        deltas.clear();
    }

    /// Batch processing with an adaptive repair strategy.
    ///
    /// The bounded UPDATE wins for small batches but its cost grows linearly
    /// with the batch while RECONSTRUCT is flat (Figure 8), so past a
    /// crossover it is cheaper to apply all state updates first and rebuild
    /// the index once. `rebuild_threshold` is that crossover in activations;
    /// `None` uses `m / 16`, a conservative fit of the Exp 6 curves.
    ///
    /// State evolution (activeness, similarity) is identical to
    /// [`Self::activate_batch`] in `Exact` mode — only the index-repair
    /// strategy differs, and a rebuild reproduces the same distances the
    /// incremental repairs would.
    pub fn activate_batch_adaptive(
        &mut self,
        edges: &[EdgeId],
        t: Time,
        rebuild_threshold: Option<usize>,
    ) -> BatchStats {
        let threshold = rebuild_threshold.unwrap_or_else(|| (self.g.m() / 16).max(64));
        if edges.len() < threshold {
            return self.activate_batch(edges, t);
        }
        // BatchStats.wall is observability-only; it never feeds the
        // algorithms and is not serialized into snapshots.
        // audit:allow(wall-clock, nondet-taint) -- wall time is reported, never consumed
        let start = Instant::now();
        let mut stats = BatchStats { edges_in: edges.len(), rebuilt: true, ..Default::default() };
        // State updates without per-activation index repair…
        self.clock.advance_to(t);
        let mut dirty: Vec<EdgeId> = Vec::with_capacity(edges.len());
        for &e in edges {
            self.act.activate(e, &self.clock);
            let (u, v) = self.g.endpoints(e);
            let boost = self.clock.boost();
            self.node_sum[u as usize] += boost;
            self.node_sum[v as usize] += boost;
            self.clock.note_activation();
            self.activations += 1;
            let params = self.reinforce_params();
            let ctx =
                SimilarityCtx { g: &self.g, act: self.act.as_slice(), node_sum: &self.node_sum };
            let out = apply_reinforcement(&ctx, &mut self.sim, e, &params, &mut self.scratch);
            stats.sigma_recomputes += 2;
            self.sim_sum += out.new_sim - out.old_sim;
            if out.new_sim != out.old_sim {
                self.recip[e as usize] = 1.0 / out.new_sim;
                dirty.push(e);
            }
        }
        // …then one reconstruction over the final weights.
        self.reconstruct_index();
        self.maybe_rescale();
        dirty.sort_unstable();
        dirty.dedup();
        stats.dirty_edges = dirty.len();
        stats.wall = start.elapsed();
        #[cfg(feature = "debug-invariants")]
        self.debug_assert_invariants("activate_batch_adaptive");
        stats
    }

    /// ANCOR's periodic replay: applies one extra local reinforcement (and
    /// index repair) per edge in `edges` at the current time.
    pub fn reinforce_edges(&mut self, edges: &[EdgeId]) {
        for &e in edges {
            self.reinforce_and_repair(e);
        }
        self.maybe_rescale();
    }

    fn maybe_rescale(&mut self) {
        if self.clock.needs_rescale() {
            self.force_rescale();
        }
    }

    /// Forces a batched rescale now (exposed for tests and ablations).
    pub fn force_rescale(&mut self) {
        let g = self.clock.take_rescale();
        self.act.rescale(g);
        anc_decay::absorb(MaintainClass::Pos, &mut self.node_sum, g);
        anc_decay::absorb(MaintainClass::Pos, &mut self.sim, g);
        anc_decay::absorb(MaintainClass::Neg, &mut self.recip, g);
        self.pyramids.rescale(1.0 / g);
        self.sim_sum *= g;
        self.rescales += 1;
    }

    // --- queries ----------------------------------------------------------

    /// Number of granularity levels (`⌈log₂ n⌉`).
    pub fn num_levels(&self) -> usize {
        self.pyramids.num_levels()
    }

    /// The `Θ(√n)`-clusters entry level of Problem 1.
    pub fn default_level(&self) -> usize {
        self.pyramids.default_level()
    }

    /// All clusters at `level` (Problem 1(1)).
    ///
    /// Served transparently from the incremental cluster-query cache: the
    /// first query of a level pays one parallel voting pass, subsequent
    /// queries only re-vote the edges dirtied by intervening activations
    /// (see [`crate::ClusterCache`]). Returns an owned clone; use
    /// [`Self::cluster_all_cached`] to share the cached allocation and read
    /// the [`QueryStats`].
    pub fn cluster_all(&self, level: usize, mode: ClusterMode) -> Clustering {
        (*self.cluster_all_cached(level, mode).0).clone()
    }

    /// [`Self::cluster_all`] without the copy: the returned [`Arc`] is
    /// shared with the cache (repeat queries at an unchanged generation
    /// return the same allocation), and the [`QueryStats`] report the
    /// cache generation, pending dirty edges, and the repair-vs-rebuild
    /// decision this query took.
    ///
    /// A wait-free query root (audit rule A11, `blocking-in-reader`): on
    /// the warm path this hands out the cached `Arc` snapshot without
    /// locking or pool dispatch. The one audited exception is the
    /// first-touch cold fill, which runs inline on the querying thread
    /// (the writer path) before the snapshot is published.
    pub fn cluster_all_cached(
        &self,
        level: usize,
        mode: ClusterMode,
    ) -> (Arc<Clustering>, QueryStats) {
        self.cache.borrow_mut().query(&self.g, &self.pyramids, level, mode)
    }

    /// Read access to the cluster-query cache (observability: generation,
    /// hit/miss counters, per-level dirty counts and epochs).
    pub fn cluster_cache(&self) -> std::cell::Ref<'_, ClusterCache> {
        self.cache.borrow()
    }

    /// Mutable access to the cluster-query cache (tuning knobs such as
    /// [`ClusterCache::set_dirty_rebuild_fraction`]).
    pub fn cluster_cache_mut(&mut self) -> &mut ClusterCache {
        self.cache.get_mut()
    }

    /// Selects the execution mode of subsequent [`Self::activate_batch`]
    /// calls. The serving layer's adaptive coalescing policy flips this per
    /// drained batch (Exact for short batches, Fused past a threshold);
    /// [`crate::DurableEngine`] deliberately does not expose it, because a
    /// mode flip between logged batches would change what WAL replay
    /// reconstructs.
    pub fn set_batch_mode(&mut self, mode: BatchMode) {
        self.cfg.batch = mode;
    }

    /// Snapshot-publish hook for the serving layer (DESIGN.md §14): brings
    /// the cache current at every requested `(level, mode)` pair — paying
    /// any pending repairs *now*, on the calling (writer) thread — and
    /// returns the refreshed `Arc` clusterings as one immutable
    /// [`ClusterView`] ready to hand to [`crate::publish::Publisher`].
    ///
    /// Readers holding the view answer membership queries from its `Arc`s
    /// without ever touching the engine, so the per-query path stays
    /// wait-free (audit rule A11).
    pub fn refresh_view(&self, levels: &[usize], modes: &[ClusterMode]) -> ClusterView {
        let mut view = ClusterView::default();
        for &level in levels {
            let mut lc = LevelClusters { level, epoch: 0, even: None, power: None };
            for &mode in modes {
                let (c, qs) = self.cluster_all_cached(level, mode);
                view.generation = view.generation.max(qs.generation);
                lc.epoch = lc.epoch.max(qs.epoch);
                view.query += qs;
                match mode {
                    ClusterMode::Even => lc.even = Some(c),
                    ClusterMode::Power => lc.power = Some(c),
                }
            }
            view.levels.push(lc);
        }
        view
    }

    /// The cluster containing `v` at `level` (Problem 1(2)); even-clustering
    /// semantics, cost proportional to the result (Lemma 9).
    pub fn local_cluster(&self, v: NodeId, level: usize) -> Vec<NodeId> {
        query::local_cluster(&self.g, &self.pyramids, v, level)
    }

    /// The cluster containing `v` under power-clustering semantics.
    pub fn local_cluster_power(&self, v: NodeId, level: usize) -> Vec<NodeId> {
        query::local_cluster_power(&self.g, &self.pyramids, v, level)
    }

    /// The smallest cluster containing `v` (finest granularity).
    pub fn smallest_cluster(&self, v: NodeId) -> Vec<NodeId> {
        query::smallest_cluster(&self.g, &self.pyramids, v)
    }

    /// Whether `u` and `v` share a cluster at `level` (Problem 1(3)).
    ///
    /// A wait-free query root (audit rule A11, `blocking-in-reader`):
    /// answered from the immutable pyramid partitions with no locking,
    /// blocking, or pool dispatch, so concurrent readers never stall
    /// behind a writer.
    #[inline]
    #[must_use = "pure query; the membership answer is the only effect"]
    pub fn same_cluster(&self, u: NodeId, v: NodeId, level: usize) -> bool {
        self.pyramids.same_cluster(u, v, level)
    }

    /// Approximate *true* (de-anchored) distance `M_t(u, v)` answered from
    /// the index in `O(k log n)` via the underlying Das Sarma sketch: never
    /// an underestimate, `O(log n)` expected stretch. `f64::INFINITY` when
    /// no partition joins the pair.
    #[must_use = "pure query; the distance estimate is the only effect"]
    pub fn approx_distance(&self, u: NodeId, v: NodeId) -> f64 {
        // Stored distances are anchored (weights 1/S*); the true NegM value
        // divides by the global factor g... true w = w*/g, so true dist =
        // anchored / g.
        self.pyramids.approx_distance(u, v) / self.clock.global_factor()
    }

    /// Exact *true* distance `M_t(u, v)` by on-line Dijkstra (`O(m log n)`),
    /// the reference for [`Self::approx_distance`].
    #[must_use = "pure query; the distance is the only effect"]
    pub fn exact_distance(&self, u: NodeId, v: NodeId) -> f64 {
        crate::metric::distance(&self.g, &self.sim, u, v) / self.clock.global_factor()
    }

    // --- offline (ANCF) & maintenance -------------------------------------

    /// Builds an ANCF snapshot: resets `S` to 1, runs `rep` full
    /// reinforcement passes against the current activeness, and rebuilds the
    /// index from scratch. The engine itself is unchanged.
    pub fn offline_snapshot(&mut self, rep: usize) -> OfflineSnapshot {
        let mut sim = vec![1.0; self.g.m()];
        // Fresh S₀ starts at mean 1, so the relative floor applies directly.
        let params = ReinforceParams {
            epsilon: self.cfg.epsilon,
            mu: self.cfg.mu,
            floor_anchored: self.cfg.floor.max(self.cfg.floor_rel),
        };
        {
            let ctx =
                SimilarityCtx { g: &self.g, act: self.act.as_slice(), node_sum: &self.node_sum };
            for _ in 0..rep {
                crate::reinforce::full_pass(&ctx, &mut sim, &params, &mut self.scratch);
            }
        }
        let recip: Vec<f64> = sim.iter().map(|s| 1.0 / s).collect();
        let pyramids =
            Pyramids::build(&self.g, &recip, self.cfg.k, self.cfg.theta, self.index_seed);
        OfflineSnapshot { sim, recip, pyramids }
    }

    /// Rebuilds the engine's own index from its current weights — the
    /// RECONSTRUCT baseline of Figure 8. Fresh seed draws give per-edge
    /// dirty tracking no baseline to repair from, so the cluster cache is
    /// invalidated wholesale and refills lazily. The rebuild reuses the
    /// index's own buffers (bit-identical to a fresh build).
    pub fn reconstruct_index(&mut self) {
        self.pyramids.rebuild(&self.g, &self.recip, self.index_seed);
        self.cache.get_mut().invalidate_all();
    }

    /// Captures the complete engine state for checkpointing
    /// (see [`crate::persist`]).
    pub fn to_snapshot(&self) -> crate::persist::EngineSnapshot {
        crate::persist::EngineSnapshot {
            version: crate::persist::SNAPSHOT_VERSION,
            graph: self.g.clone(),
            config: self.cfg.clone(),
            clock: self.clock.clone(),
            activeness: self.act.clone(),
            node_sum: self.node_sum.clone(),
            sim: self.sim.clone(),
            pyramids: self.pyramids.clone(),
            index_seed: self.index_seed,
            sim_sum: self.sim_sum,
            activations: self.activations,
            rescales: self.rescales,
        }
    }

    /// Borrows every persisted field at once (no cloning) for the binary
    /// snapshot encoder (see [`crate::persist::binary`]).
    pub(crate) fn persist_view(&self) -> crate::persist::PersistView<'_> {
        crate::persist::PersistView {
            graph: &self.g,
            config: &self.cfg,
            clock: &self.clock,
            activeness: self.act.as_slice(),
            node_sum: &self.node_sum,
            sim: &self.sim,
            pyramids: &self.pyramids,
            index_seed: self.index_seed,
            sim_sum: self.sim_sum,
            activations: self.activations,
            rescales: self.rescales,
        }
    }

    /// Restores an engine from a snapshot. Validates consistency; scratch
    /// buffers and the derived reciprocal weights are rebuilt (`O(n + m)`),
    /// everything else is adopted as-is.
    pub fn from_snapshot(
        snapshot: crate::persist::EngineSnapshot,
    ) -> Result<Self, crate::persist::RestoreError> {
        snapshot.validate()?;
        let recip: Vec<f64> = snapshot.sim.iter().map(|s| 1.0 / s).collect();
        let scratch = Scratch::new(snapshot.graph.n());
        let sigma_pool = ScratchPool::new(snapshot.graph.n());
        // The cluster cache is never serialized (see `crate::persist`): a
        // restored engine starts cold and refills lazily on first query.
        let cache = RefCell::new(ClusterCache::new(snapshot.pyramids.num_levels()));
        Ok(Self {
            g: snapshot.graph,
            cfg: snapshot.config,
            clock: snapshot.clock,
            act: snapshot.activeness,
            node_sum: snapshot.node_sum,
            sim: snapshot.sim,
            recip,
            pyramids: snapshot.pyramids,
            index_seed: snapshot.index_seed,
            scratch,
            sigma_pool,
            batch_chunks: Vec::new(),
            batch_sigma_flat: Vec::new(),
            batch_ranges: Vec::new(),
            sim_sum: snapshot.sim_sum,
            activations: snapshot.activations,
            rescales: snapshot.rescales,
            cache,
            trace_bufs: Vec::new(),
        })
    }

    /// Total heap bytes: index plus per-edge state (graph excluded, matching
    /// the paper's "space for storing the graph is excluded" in Exp 4).
    pub fn memory_bytes(&self) -> usize {
        self.pyramids.memory_bytes()
            + self.act.memory_bytes()
            + (self.node_sum.len() + self.sim.len() + self.recip.len()) * std::mem::size_of::<f64>()
    }

    /// Verifies every engine invariant against the current state (testing
    /// aid; `O(k · m log n)`): CSR well-formedness, activeness finiteness
    /// and Def. 2 consistency, similarity positivity and `1/S*` sync,
    /// pyramid shape, per-partition shortest-path-forest soundness, and
    /// validity of the default-level clustering. See [`crate::invariant`]
    /// for the catalogue.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        invariant::check_graph(&self.g)?;
        invariant::check_activeness(&self.g, self.act.as_slice(), &self.node_sum)?;
        invariant::check_similarities(&self.sim)?;
        invariant::check_recip_sync(&self.sim, &self.recip)?;
        self.pyramids.check_invariants(&self.g, &self.recip)?;
        let c = cluster_all(&self.g, &self.pyramids, self.default_level(), ClusterMode::Power);
        invariant::check_clustering(&self.g, &c)?;
        invariant::check_cluster_cache(&self.g, &self.pyramids, &self.cache.borrow())
    }

    /// Batch-boundary hook of the `debug-invariants` feature: panics on the
    /// first violated invariant. Compiled out entirely when the feature is
    /// disabled.
    #[cfg(feature = "debug-invariants")]
    fn debug_assert_invariants(&self, site: &str) {
        if let Err(v) = self.check_invariants() {
            panic!("debug-invariants after {site}: {v}");
        }
    }

    /// Desynchronizes one cached `A(v)` from the edge activeness so the
    /// negative invariant tests can prove the checker catches it. Not part
    /// of the public API.
    #[doc(hidden)]
    pub fn corrupt_node_sum_for_test(&mut self, v: NodeId, delta: f64) {
        self.node_sum[v as usize] += delta;
    }
}

impl OfflineSnapshot {
    /// All clusters at `level` from the snapshot index.
    pub fn cluster_all(&self, g: &Graph, level: usize, mode: ClusterMode) -> Clustering {
        cluster_all(g, &self.pyramids, level, mode)
    }
}

/// The cached clusterings of one level inside a [`ClusterView`].
#[derive(Clone, Debug)]
pub struct LevelClusters {
    /// The granularity level these clusterings answer.
    pub level: usize,
    /// The level's rebuild epoch at refresh time (see
    /// [`QueryStats::epoch`]).
    pub epoch: u64,
    /// Even-mode clustering, if requested from [`AncEngine::refresh_view`].
    pub even: Option<Arc<Clustering>>,
    /// Power-mode clustering, if requested.
    pub power: Option<Arc<Clustering>>,
}

/// An immutable, shareable view of the cached clusterings at a set of
/// levels — the unit the serving layer publishes to its readers after each
/// drained ingest batch ([`AncEngine::refresh_view`], DESIGN.md §14).
#[derive(Clone, Debug, Default)]
pub struct ClusterView {
    /// Cache generation every clustering in this view was refreshed at; two
    /// views with equal generation saw the same logical index state.
    pub generation: u64,
    /// One entry per requested level, in request order.
    pub levels: Vec<LevelClusters>,
    /// The refresh queries' merged [`QueryStats`].
    pub query: QueryStats,
}

impl ClusterView {
    /// The view's entry for `level`, if it was requested.
    pub fn at_level(&self, level: usize) -> Option<&LevelClusters> {
        self.levels.iter().find(|l| l.level == level)
    }

    /// The clustering at `(level, mode)`, if the view carries it.
    pub fn clusters(&self, level: usize, mode: ClusterMode) -> Option<&Arc<Clustering>> {
        let lc = self.at_level(level)?;
        match mode {
            ClusterMode::Even => lc.even.as_ref(),
            ClusterMode::Power => lc.power.as_ref(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_graph::gen::connected_caveman;

    fn engine_fixture(rep: usize) -> AncEngine {
        let lg = connected_caveman(4, 6);
        let cfg = AncConfig { rep, mu: 3, epsilon: 0.25, k: 4, ..Default::default() };
        AncEngine::new(lg.graph, cfg, 42)
    }

    #[test]
    fn construction_is_consistent() {
        let engine = engine_fixture(2);
        engine.check_invariants().unwrap();
        assert_eq!(engine.activations(), 0);
        assert!(engine.num_levels() >= 4); // n = 24 → ⌈log₂ 24⌉ = 5
    }

    #[test]
    fn initialization_recovers_cliques() {
        let lg = connected_caveman(4, 6);
        let labels = lg.labels.clone();
        let cfg = AncConfig { rep: 3, mu: 3, epsilon: 0.25, k: 4, ..Default::default() };
        let engine = AncEngine::new(lg.graph, cfg, 7);
        let c = engine.cluster_all(engine.default_level(), ClusterMode::Power);
        let truth = Clustering::from_labels(&labels);
        let score = anc_metrics::nmi(&c, &truth);
        assert!(score > 0.8, "caveman NMI should be high, got {score}");
    }

    #[test]
    fn activations_keep_invariants() {
        let mut engine = engine_fixture(1);
        let m = engine.graph().m() as u32;
        for i in 0..50u32 {
            engine.activate((i * 7) % m, 1.0 + i as f64 * 0.25);
        }
        engine.check_invariants().unwrap();
        assert_eq!(engine.activations(), 50);
    }

    #[test]
    fn online_update_matches_full_rebuild() {
        // The decisive end-to-end property: after a stream of activations,
        // the incrementally maintained index must equal an index rebuilt
        // from scratch over the same weights (same seeds → same partitions).
        let mut engine = engine_fixture(1);
        let m = engine.graph().m() as u32;
        for i in 0..40u32 {
            engine.activate((i * 11 + 3) % m, (i / 4) as f64);
        }
        let live_dists: Vec<Vec<f64>> = (0..engine.pyramids().k())
            .flat_map(|p| (0..engine.num_levels()).map(move |l| (p, l)))
            .map(|(p, l)| {
                (0..engine.graph().n() as u32)
                    .map(|v| engine.pyramids().partition(p, l).dist(v))
                    .collect()
            })
            .collect();
        engine.reconstruct_index();
        let mut idx = 0;
        for p in 0..engine.pyramids().k() {
            for l in 0..engine.num_levels() {
                for v in 0..engine.graph().n() as u32 {
                    let fresh = engine.pyramids().partition(p, l).dist(v);
                    let live = live_dists[idx][v as usize];
                    assert!(
                        (fresh - live).abs() <= 1e-6 * (1.0 + fresh.abs()),
                        "pyramid {p} level {l} node {v}: live {live} vs rebuild {fresh}"
                    );
                }
                idx += 1;
            }
        }
    }

    #[test]
    fn rescale_changes_nothing_observable() {
        let mut engine = engine_fixture(1);
        let m = engine.graph().m() as u32;
        for i in 0..20u32 {
            engine.activate(i % m, i as f64);
        }
        let level = engine.default_level();
        let before = engine.cluster_all(level, ClusterMode::Power);
        let sim_before = engine.similarity(0);
        let act_before = engine.activeness(0);
        engine.force_rescale();
        engine.check_invariants().unwrap();
        let after = engine.cluster_all(level, ClusterMode::Power);
        assert_eq!(before, after, "rescale must not change clustering");
        assert!((engine.similarity(0) - sim_before).abs() < 1e-9 * (1.0 + sim_before));
        assert!((engine.activeness(0) - act_before).abs() < 1e-9 * (1.0 + act_before));
        assert!(engine.rescales() >= 1);
    }

    #[test]
    fn decay_weakens_unactivated_community_bonds() {
        // Activate only clique 0's edges; by a late time, similarities of
        // clique 0 edges (true values) should dominate the others.
        let lg = connected_caveman(2, 5);
        let labels = lg.labels.clone();
        let cfg = AncConfig { rep: 1, lambda: 0.2, mu: 3, epsilon: 0.25, ..Default::default() };
        let mut engine = AncEngine::new(lg.graph, cfg, 3);
        let clique0: Vec<u32> = engine
            .graph()
            .iter_edges()
            .filter(|&(_, u, v)| labels[u as usize] == 0 && labels[v as usize] == 0)
            .map(|(e, _, _)| e)
            .collect();
        for t in 1..=30 {
            let edges = clique0.clone();
            let stats = engine.activate_batch(&edges, t as f64);
            assert_eq!(stats.edges_in, edges.len());
        }
        let hot = engine.similarity(clique0[0]);
        let cold_edge = engine
            .graph()
            .iter_edges()
            .find(|&(_, u, v)| labels[u as usize] == 1 && labels[v as usize] == 1)
            .map(|(e, _, _)| e)
            .unwrap();
        let cold = engine.similarity(cold_edge);
        assert!(hot > cold, "activated clique must stay stronger: {hot} vs {cold}");
    }

    #[test]
    fn offline_snapshot_is_independent() {
        let mut engine = engine_fixture(0);
        let m = engine.graph().m() as u32;
        for i in 0..10u32 {
            engine.activate(i % m, i as f64 / 2.0);
        }
        let before: Vec<f64> = engine.sim_anchored().to_vec();
        let snap = engine.offline_snapshot(3);
        assert_eq!(engine.sim_anchored(), &before[..], "engine must be unchanged");
        assert_eq!(snap.sim.len(), engine.graph().m());
        let g = engine.graph().clone();
        let c = snap.cluster_all(&g, snap.pyramids.default_level(), ClusterMode::Power);
        assert!(c.num_clusters() >= 1);
    }

    #[test]
    fn ancor_reinforce_edges_keeps_invariants() {
        let mut engine = engine_fixture(1);
        let m = engine.graph().m() as u32;
        let mut recent = vec![];
        for i in 0..30u32 {
            let e = (i * 5 + 1) % m;
            engine.activate(e, i as f64 * 0.2);
            recent.push(e);
            if i % 5 == 4 {
                let batch: Vec<u32> = std::mem::take(&mut recent);
                engine.reinforce_edges(&batch);
            }
        }
        engine.check_invariants().unwrap();
    }

    #[test]
    fn traced_activation_reports_footprint() {
        let mut engine = engine_fixture(1);
        let m = engine.graph().m() as u32;
        let mut any_nonempty = false;
        for i in 0..20u32 {
            let trace = engine.activate_traced(i % m, 1.0 + i as f64 * 0.5);
            if trace.is_empty() {
                continue;
            }
            any_nonempty = true;
            // One entry per partition.
            assert_eq!(trace.len(), engine.pyramids().k() * engine.num_levels(), "trace arity");
            for nodes in &trace {
                for &x in nodes {
                    assert!((x as usize) < engine.graph().n());
                }
            }
        }
        assert!(any_nonempty, "some activation must move the index");
    }

    #[test]
    fn approx_distance_consistent_with_exact() {
        let mut engine = engine_fixture(1);
        let m = engine.graph().m() as u32;
        for i in 0..30u32 {
            engine.activate((i * 3 + 1) % m, i as f64 * 0.3);
        }
        for u in (0..engine.graph().n() as u32).step_by(5) {
            for v in (0..engine.graph().n() as u32).step_by(7) {
                let est = engine.approx_distance(u, v);
                let exact = engine.exact_distance(u, v);
                if u == v {
                    assert_eq!(est, 0.0);
                } else if exact.is_finite() {
                    assert!(est >= exact * (1.0 - 1e-9), "({u},{v}) est {est} < exact {exact}");
                } else {
                    assert!(est.is_infinite());
                }
            }
        }
    }

    #[test]
    fn adaptive_batch_matches_per_activation_path() {
        let lg = connected_caveman(3, 5);
        let cfg = AncConfig { rep: 1, k: 2, ..Default::default() };
        let mut a = AncEngine::new(lg.graph.clone(), cfg.clone(), 11);
        let mut b = AncEngine::new(lg.graph.clone(), cfg, 11);
        let m = lg.graph.m() as u32;
        let batch: Vec<u32> = (0..40).map(|i| (i * 3 + 1) % m).collect();
        let sa = a.activate_batch(&batch, 2.0);
        let sb = b.activate_batch_adaptive(&batch, 2.0, Some(1)); // force rebuild path
        assert!(!sa.rebuilt);
        assert!(sb.rebuilt);
        // Identical state…
        for e in 0..m {
            assert_eq!(a.similarity(e), b.similarity(e));
            assert_eq!(a.activeness(e), b.activeness(e));
        }
        // …and identical index distances.
        for p in 0..a.pyramids().k() {
            for l in 0..a.num_levels() {
                for v in 0..lg.graph.n() as u32 {
                    let (da, db) = (
                        a.pyramids().partition(p, l).dist(v),
                        b.pyramids().partition(p, l).dist(v),
                    );
                    assert!((da - db).abs() < 1e-9 * (1.0 + db.abs()));
                }
            }
        }
        b.check_invariants().unwrap();
        // Below the threshold it takes the incremental path.
        let mut c =
            AncEngine::new(lg.graph.clone(), AncConfig { rep: 1, k: 2, ..Default::default() }, 11);
        let sc = c.activate_batch_adaptive(&batch[..2], 1.0, Some(1000));
        assert!(!sc.rebuilt, "below threshold must take the incremental path");
        c.check_invariants().unwrap();
    }

    #[test]
    fn memory_accounting_positive() {
        let engine = engine_fixture(0);
        assert!(engine.memory_bytes() > 0);
    }

    /// The tentpole correctness bar: the exact batch path must be
    /// bit-identical to a serial loop of `activate` calls — including across
    /// a mid-batch rescale — down to the serialized snapshot bytes.
    #[test]
    fn exact_batch_is_bitwise_identical_to_serial_loop() {
        let lg = connected_caveman(4, 6);
        // A tiny rescale interval forces several mid-batch rescales.
        let rescale = anc_decay::RescaleConfig { every_activations: 7, exponent_guard: 200.0 };
        let cfg = AncConfig { rep: 1, mu: 3, epsilon: 0.25, k: 3, rescale, ..Default::default() };
        let mut serial = AncEngine::new(lg.graph.clone(), cfg.clone(), 42);
        let mut batched = AncEngine::new(lg.graph, cfg, 42);
        let m = serial.graph().m() as u32;
        let mut stats_total = BatchStats::default();
        for step in 0..6u32 {
            let t = 1.0 + step as f64 * 0.5;
            let batch: Vec<u32> = (0..25).map(|i| (i * 7 + step * 3) % m).collect();
            for &e in &batch {
                serial.activate(e, t);
            }
            let s = batched.activate_batch(&batch, t);
            assert_eq!(s.edges_in, batch.len());
            assert_eq!(s.sigma_recomputes, 2 * batch.len());
            stats_total.repair_updates += s.repair_updates;
            stats_total.repair_skips += s.repair_skips;
        }
        assert!(serial.rescales() >= 2, "test must cross rescales");
        assert_eq!(serial.rescales(), batched.rescales());
        assert!(stats_total.repair_updates > 0);
        for e in 0..m as usize {
            assert_eq!(serial.sim[e].to_bits(), batched.sim[e].to_bits(), "sim {e}");
            assert_eq!(serial.recip[e].to_bits(), batched.recip[e].to_bits(), "recip {e}");
        }
        // The serialized snapshots (state + every partition) must be
        // byte-identical.
        let a = serde_json::to_string(&serial.to_snapshot()).unwrap();
        let b = serde_json::to_string(&batched.to_snapshot()).unwrap();
        assert_eq!(a, b, "snapshots diverge");
        batched.check_invariants().unwrap();
    }

    #[test]
    fn fused_batch_keeps_invariants_and_dedupes_sigma() {
        let lg = connected_caveman(4, 6);
        let cfg = AncConfig {
            rep: 1,
            mu: 3,
            epsilon: 0.25,
            k: 3,
            batch: crate::BatchMode::Fused,
            ..Default::default()
        };
        let mut engine = AncEngine::new(lg.graph, cfg, 42);
        let m = engine.graph().m() as u32;
        // A batch that revisits the same few edges: the deduplicated trigger
        // set is much smaller than 2 × batch size.
        let batch: Vec<u32> = (0..60).map(|i| i % 5).collect();
        let stats = engine.activate_batch(&batch, 1.5);
        assert_eq!(stats.edges_in, 60);
        assert!(
            stats.sigma_recomputes < batch.len(),
            "fused σ must dedup: {} recomputes",
            stats.sigma_recomputes
        );
        assert!(stats.dirty_edges <= 5);
        assert!(!stats.rebuilt);
        engine.check_invariants().unwrap();
        // A second, spread-out batch also stays consistent.
        let batch2: Vec<u32> = (0..m).step_by(3).collect();
        let stats2 = engine.activate_batch(&batch2, 2.5);
        assert_eq!(stats2.edges_in, batch2.len());
        engine.check_invariants().unwrap();
    }

    /// Satellite regression: updates that cannot move any vote — an empty
    /// batch and a batched rescale (uniform distance scaling preserves every
    /// seed assignment) — must not bump the cache generation, mark edges
    /// dirty, or replace the cached clustering allocation.
    #[test]
    fn rescale_and_empty_batch_preserve_cache_generation() {
        let mut engine = engine_fixture(1);
        let m = engine.graph().m() as u32;
        for i in 0..30u32 {
            engine.activate(i % m, 1.0 + i as f64 * 0.1);
        }
        let level = engine.default_level();
        let (before, s0) = engine.cluster_all_cached(level, ClusterMode::Power);
        let gen = engine.cluster_cache().generation();
        let _ = engine.activate_batch(&[], 10.0);
        engine.force_rescale();
        assert_eq!(engine.cluster_cache().generation(), gen);
        assert_eq!(engine.cluster_cache().dirty_count(level), Some(0));
        let (after, s1) = engine.cluster_all_cached(level, ClusterMode::Power);
        assert!(Arc::ptr_eq(&before, &after), "cached Arc must survive the no-ops");
        assert_eq!(s1.generation, s0.generation);
        assert_eq!(s1.decision, crate::cache::QueryDecision::Hit);
        engine.check_invariants().unwrap();
    }

    /// Queries served from the cache must track a stream of single, batch,
    /// and adaptive updates exactly (the engine-level cached ≡ cold bar).
    #[test]
    fn cached_queries_track_mixed_update_stream() {
        let mut engine = engine_fixture(1);
        let m = engine.graph().m() as u32;
        let level = engine.default_level();
        engine.cluster_all_cached(level, ClusterMode::Even);
        engine.cluster_all_cached(level, ClusterMode::Power);
        for step in 0..8u32 {
            let t = 1.0 + step as f64 * 0.4;
            match step % 3 {
                0 => {
                    engine.activate((step * 13 + 1) % m, t);
                }
                1 => {
                    let batch: Vec<u32> = (0..12).map(|i| (i * 5 + step) % m).collect();
                    let _ = engine.activate_batch(&batch, t);
                }
                _ => {
                    let batch: Vec<u32> = (0..20).map(|i| (i * 3 + step) % m).collect();
                    let _ = engine.activate_batch_adaptive(&batch, t, Some(10));
                }
            }
            for mode in [ClusterMode::Even, ClusterMode::Power] {
                let (cached, _) = engine.cluster_all_cached(level, mode);
                let cold = cluster_all(engine.graph(), engine.pyramids(), level, mode);
                assert_eq!(*cached, cold, "step {step} {mode:?}");
            }
        }
        engine.check_invariants().unwrap();
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut engine = engine_fixture(1);
        let before = serde_json::to_string(&engine.to_snapshot()).unwrap();
        let stats = engine.activate_batch(&[], 5.0);
        assert_eq!(stats.edges_in, 0);
        assert_eq!(stats.dirty_edges, 0);
        let after = serde_json::to_string(&engine.to_snapshot()).unwrap();
        assert_eq!(before, after);
    }
}
