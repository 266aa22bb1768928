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
//! Two rescales keep the stores in `f64` range (DESIGN.md §4, §7). The
//! decay clock's ([`AncEngine::force_rescale`]) moves the activeness stores
//! only: anchored activeness and node sums absorb `g` (PosM). The similarity
//! store is 1-homogeneous and every consumer of it is scale-invariant, so it
//! keeps a scale of its own: when its mean leaves
//! [`reinforce::MEAN_RANGE`], the range step scales `S` by an exact power of
//! two and `recip` and every pyramid distance by its inverse (NegM, Lemma
//! 10). Every product is exact: `recip` stays exactly `1/S`, every `dist`
//! stays the exact sum along its shortest-path tree, and the index structure
//! is untouched — the state a restore re-derives from the snapshot, bit for
//! bit.

use std::cell::RefCell;
use std::sync::Arc;

use anc_decay::{ActivenessStore, DecayClock, Time};
use anc_graph::{EdgeId, Graph, NodeId};
use anc_metrics::Clustering;

use crate::cache::{ClusterCache, QueryStats};
use crate::cluster::{cluster_all, ClusterMode};
use crate::config::AncConfig;
use crate::invariant::{self, InvariantViolation};
use crate::persist::{EngineSnapshot, RestoreError};
use crate::pyramid::{Pyramids, RepairStats};
use crate::query;
use crate::reinforce::{self, ReinforceParams, SigmaRows};
use crate::similarity::{NodeType, Scratch, SigmaNumerators, SimilarityCtx};

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
    /// The engine's whole state (DESIGN.md §11): the graph, config, clock,
    /// anchored activeness, node sums and similarity (PosM), the pyramids
    /// (which the binary file rebuilds rather than stores) and the
    /// counters. Every other field is derived from it or transient.
    state: EngineSnapshot,
    /// Reciprocal stored similarity `1/S` per edge (NegM) — the index's edge
    /// weights, kept materialized so partitions can read a plain slice.
    recip: Vec<f64>,
    /// σ numerator per edge (DESIGN.md §4): kept in step with the
    /// activeness, so a σ row costs `O(deg)`.
    num: SigmaNumerators,
    scratch: Scratch,
    /// The incremental cluster-query cache (interior mutability so
    /// `&self` queries can repair lazily; never borrowed across a call
    /// boundary, so the `RefCell` cannot be observed locked).
    cache: RefCell<ClusterCache>,
    /// Pooled affected-set buffers of the last flush, one per partition:
    /// what [`Pyramids::repair`] wrote, the cluster cache's feed.
    trace_bufs: Vec<Vec<NodeId>>,
    /// Pooled accumulator of the ingest loop: the `(e, old_w, new_w)` weight
    /// changes not yet repaired into the index.
    deltas: Vec<(EdgeId, f64, f64)>,
}

/// An offline (ANCF) snapshot: a freshly initialized similarity and index
/// for the activeness state at the moment of the call.
pub struct OfflineSnapshot {
    /// Stored similarity after `rep` full passes (mean 1).
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
        let clock = DecayClock::with_config(cfg.lambda, cfg.rescale);
        let act = ActivenessStore::new(g.m(), 1.0);
        let mut node_sum = vec![0.0; g.n()];
        for (e, u, v) in g.iter_edges() {
            node_sum[u as usize] += act.anchored(e);
            node_sum[v as usize] += act.anchored(e);
        }
        let ctx = SimilarityCtx { g: &g, act: act.as_slice(), node_sum: &node_sum };
        let mut scratch = Scratch::new(g.n());
        let num = SigmaNumerators::build(&ctx, &mut scratch);
        let sim = initial_similarity(&ctx, &num, &cfg, cfg.rep, &mut scratch);
        let recip: Vec<f64> = sim.iter().map(|s| 1.0 / s).collect();
        let pyramids = Pyramids::build(&g, &recip, cfg.k, cfg.theta, seed);
        let sim_sum = sim.iter().sum();
        let state = EngineSnapshot {
            graph: g,
            config: cfg,
            clock,
            activeness: act,
            node_sum,
            sim,
            pyramids,
            index_seed: seed,
            sim_sum,
            sim_exp: 0,
            activations: 0,
            rescales: 0,
        };
        Self::from_parts(state, num, scratch)
    }

    /// The one constructor: adopts `state` and derives the rest — the
    /// reciprocal weights (`O(m)`, the same bits the index was built or
    /// repaired against), the σ numerators (`O(Σ_{(u,w)} deg w)`), scratch,
    /// an empty cluster cache (never persisted, it refills lazily on first
    /// query) and empty pooled buffers. Every level of the index is made
    /// live, and a stale one is synced from the state's own similarity, so
    /// an engine starts whole whatever the snapshot it came from
    /// ([`Self::to_snapshot`]).
    pub(crate) fn from_state(state: EngineSnapshot) -> Self {
        let mut scratch = Scratch::new(state.graph.n());
        let num = SigmaNumerators::build(&ctx(&state), &mut scratch);
        Self::from_parts(state, num, scratch)
    }

    /// [`Self::from_state`] with the σ numerators of `state`'s activeness
    /// already built ([`Self::new`] builds them for `S₀`).
    fn from_parts(mut state: EngineSnapshot, num: SigmaNumerators, scratch: Scratch) -> Self {
        let recip: Vec<f64> = state.sim.iter().map(|s| 1.0 / s).collect();
        let (k, levels) = (state.pyramids.k(), state.pyramids.num_levels());
        let all: Vec<usize> = (0..levels).collect();
        state.pyramids.set_live_levels(&state.graph, &recip, state.index_seed, &all);
        Self {
            recip,
            num,
            scratch,
            cache: RefCell::new(ClusterCache::new(levels)),
            trace_bufs: vec![Vec::new(); k * levels],
            deltas: Vec::new(),
            state,
        }
    }

    /// The persisted state, borrowed (the binary encoder's input).
    pub(crate) fn state(&self) -> &EngineSnapshot {
        &self.state
    }

    /// The relation network.
    pub fn graph(&self) -> &Graph {
        &self.state.graph
    }

    /// The configuration.
    pub fn config(&self) -> &AncConfig {
        &self.state.config
    }

    /// The index.
    pub fn pyramids(&self) -> &Pyramids {
        &self.state.pyramids
    }

    /// Current time.
    pub fn now(&self) -> Time {
        self.state.clock.now()
    }

    /// Activations processed so far.
    pub fn activations(&self) -> u64 {
        self.state.activations
    }

    /// Batched rescales performed so far.
    pub fn rescales(&self) -> u64 {
        self.state.rescales
    }

    /// True (de-anchored) activeness of `e` at the current time.
    #[must_use = "pure query; the activeness value is the only effect"]
    pub fn activeness(&self, e: EdgeId) -> f64 {
        self.state.activeness.current(e, &self.state.clock)
    }

    /// True similarity `S_t(e)` at the current time.
    #[must_use = "pure query; the similarity value is the only effect"]
    pub fn similarity(&self, e: EdgeId) -> f64 {
        self.state.sim[e as usize] * self.true_scale()
    }

    /// The factor from a stored similarity to the true `S_t`,
    /// `2^sim_exp · e^{−λ·now}`: the store never moves with the clock, so the
    /// decay of `S` is read here and nowhere else.
    fn true_scale(&self) -> f64 {
        let s = &self.state;
        (s.sim_exp as f64 * std::f64::consts::LN_2 - s.clock.lambda() * s.clock.now()).exp()
    }

    /// The stored similarity slice (for metric computations; one scale for
    /// every edge preserves all comparisons).
    pub fn sim_anchored(&self) -> &[f64] {
        &self.state.sim
    }

    /// Active similarity σ(u, v) of an edge's endpoints (NeuM — identical
    /// for anchored and true activeness, Lemma 3).
    #[must_use = "pure query; the σ value is the only effect"]
    pub fn sigma(&self, u: NodeId, v: NodeId) -> f64 {
        ctx(&self.state).sigma(u, v)
    }

    /// Node classification under the configured `(ε, µ)`.
    #[must_use = "pure query (scratch reuse aside); the classification is the only effect"]
    pub fn node_type(&mut self, v: NodeId) -> NodeType {
        let cfg = &self.state.config;
        ctx(&self.state).node_type(v, cfg.epsilon, cfg.mu, &mut self.scratch)
    }

    fn reinforce_params(&self) -> ReinforceParams {
        let s = &self.state;
        ReinforceParams {
            epsilon: s.config.epsilon,
            mu: s.config.mu,
            floor_anchored: reinforce::similarity_floor(s.config.floor_rel, sim_mean(s)),
        }
    }

    /// Processes one activation `(e, t)` — the ANCO per-activation path, a
    /// batch of one through the ingest loop (DESIGN.md §7):
    ///
    /// 1. advance the clock, absorb a batched rescale if one is due, and
    ///    bump the anchored activeness at `t` (`O(1)`, Lemma 1);
    /// 2. apply local reinforcement with trigger edge `e` (`O(deg u +
    ///    deg v)` neighborhood work, Lemma 5: both σ rows come from the kept
    ///    numerators, and the bump recomputes the `2·|N(u) ∩ N(v)|` it moved
    ///    at `O(Σ_{z ∈ N(u)∩N(v)} deg z)` on top);
    /// 3. repair every Voronoi partition of a live level `≥ 1` for the
    ///    changed weight (Algorithms 1–3, bounded by the affected region,
    ///    Lemma 12); level 0 is weight-free ([`Self::set_live_levels`]).
    ///
    /// Panics unless `(&[e], t)` passes [`crate::WalRecord::check`].
    pub fn activate(&mut self, e: EdgeId, t: Time) {
        self.ingest(&[e], Some(t));
    }

    /// Processes a batch of activations arriving at the same time `t`
    /// through the ingest loop (DESIGN.md §7).
    ///
    /// Activeness, σ and reinforcement evolve edge by edge in batch order,
    /// exactly as in a serial loop of [`Self::activate`] calls; only the
    /// index repairs are deferred and fed to [`Pyramids::repair`] at once —
    /// one flush over the partitions of the live levels `≥ 1` per batch
    /// instead of one per activation, a parallel pass on two or more pool
    /// threads when the batch is large enough to pay for it (level 0 is
    /// weight-free and never repaired). The repair
    /// replays every delta at its exact per-step weights, so the result is
    /// **bit-identical** to the serial loop and independent of the rayon
    /// thread count.
    ///
    /// Returns the repair work its flushes summed (DESIGN.md §7): per delta
    /// and repaired partition, an update when the replay wrote a node and a
    /// skip when it wrote none — the same sum a serial loop of one-edge
    /// batches reports.
    ///
    /// Panics unless `(edges, t)` passes [`crate::WalRecord::check`].
    pub fn activate_batch(&mut self, edges: &[EdgeId], t: Time) -> RepairStats {
        let stats = self.ingest(edges, Some(t));
        #[cfg(feature = "debug-invariants")]
        self.debug_assert_invariants("activate_batch");
        stats
    }

    /// ANCOR's periodic replay: applies one extra local reinforcement (and
    /// index repair) per edge in `edges` at the current time — the ingest
    /// loop without the activeness bump.
    pub fn reinforce_edges(&mut self, edges: &[EdgeId]) {
        self.ingest(edges, None);
    }

    /// The one ingest loop behind [`Self::activate`],
    /// [`Self::activate_batch`] and [`Self::reinforce_edges`]. Once per call
    /// that carries a timestamp and at least one edge: advance the clock →
    /// if a rescale is due, [`Self::force_rescale`]. Then per edge:
    /// [`Self::bump`] (when a timestamp is given) → [`Self::reinforce`] →
    /// queue the weight change → if the mean of `S` left
    /// [`reinforce::MEAN_RANGE`], flush the pending repairs and
    /// [`Self::rescale_similarity`]. The `reinforce_edges` path (no
    /// timestamp) never moves the clock. Pending repairs are flushed once
    /// more at the end. Returns the repair work of every flush.
    fn ingest(&mut self, edges: &[EdgeId], t: Option<Time>) -> RepairStats {
        let mut stats = RepairStats::default();
        if let (Some(t), [_, ..]) = (t, edges) {
            self.state.clock.advance_to(t);
            // The clock's rescale site, before any boost is read: the edges
            // share `t` and a rescale leaves `λ(t − t*) < ln 2`, so once per
            // call is exact. It moves no weight, so no repair need land first.
            if self.state.clock.needs_rescale() {
                self.force_rescale();
            }
        }
        for &e in edges {
            if let Some(t) = t {
                self.bump(e, t);
            }
            if let Some(delta) = self.reinforce(e) {
                self.deltas.push(delta);
            }
            // The store's rescale site: right after the one write that can
            // carry the mean out, and after the pending repairs have landed
            // at the pre-step weights.
            if !reinforce::MEAN_RANGE.contains(&sim_mean(&self.state)) {
                stats += self.flush();
                stats += self.rescale_similarity();
            }
        }
        stats += self.flush();
        stats
    }

    /// Ingest stage 1: bumps the anchored activeness of `e` and both
    /// endpoint sums by one activation at its own time `t`, which may lie
    /// before the clock's (`O(1)`, Lemma 1; DESIGN.md §4), and recomputes
    /// the σ numerators that read `a*(e)` ([`SigmaNumerators::refresh`]).
    fn bump(&mut self, e: EdgeId, t: Time) {
        let s = &mut self.state;
        s.activeness.activate_at(e, t, &s.clock);
        let (u, v) = s.graph.endpoints(e);
        let boost = s.clock.boost_at(t);
        s.node_sum[u as usize] += boost;
        s.node_sum[v as usize] += boost;
        s.activations += 1;
        self.num.refresh(&ctx(s), u, v, &mut self.scratch);
    }

    /// Ingest stage 2: one local reinforcement with trigger edge `e`
    /// (Lemma 5). Returns the index weight change `(e, old_w, new_w)` when
    /// `S(e)` moved.
    fn reinforce(&mut self, e: EdgeId) -> Option<(EdgeId, f64, f64)> {
        let params = self.reinforce_params();
        let s = &mut self.state;
        let ctx =
            SimilarityCtx { g: &s.graph, act: s.activeness.as_slice(), node_sum: &s.node_sum };
        let out = reinforce::apply_reinforcement_from(
            &ctx,
            &self.num,
            &mut s.sim,
            e,
            &params,
            &mut self.scratch,
        );
        s.sim_sum += out.new_sim - out.old_sim;
        if out.new_sim == out.old_sim {
            return None;
        }
        let old_w = self.recip[e as usize];
        let new_w = 1.0 / out.new_sim;
        self.recip[e as usize] = new_w;
        Some((e, old_w, new_w))
    }

    /// Ingest stage 3: repairs the index for the pending weight changes
    /// ([`Pyramids::repair`]), hands the nodes each partition wrote to the
    /// cluster cache, clears the accumulator and returns the repair work.
    fn flush(&mut self) -> RepairStats {
        let (g, pyramids) = (&self.state.graph, &mut self.state.pyramids);
        let stats = pyramids.repair(g, &mut self.recip, &self.deltas, &mut self.trace_bufs);
        self.cache.get_mut().note_affected(g, &self.trace_bufs);
        self.deltas.clear();
        stats
    }

    /// Performs a batched rescale now; the ingest loop calls it when one is
    /// due, tests and ablations may call it any time. Absorbs the exact
    /// power-of-two factor `g` of [`DecayClock::take_rescale`] into the
    /// activeness stores: anchored activeness and node sums multiply by `g`,
    /// and the σ numerators are rebuilt from them in place (a product by `g`
    /// would be inexact once a term is subnormal; the rebuild is `O(Σ_{(u,w)}
    /// deg w)`, amortised over the `guard − ln 2` of `λ·t` between two
    /// rescales, DESIGN.md §3). The similarity store, `recip` and the index
    /// keep their own scale ([`Self::rescale_similarity`]), so no weight
    /// moves. When `g = 1` (less than one halving has elapsed) no store moves
    /// and [`Self::rescales`] does not count it.
    pub fn force_rescale(&mut self) {
        let s = &mut self.state;
        let g = s.clock.take_rescale();
        if g == 1.0 {
            return;
        }
        s.activeness.rescale(g);
        for x in &mut s.node_sum {
            *x *= g;
        }
        s.rescales += 1;
        self.num.rebuild(&ctx(s), &mut self.scratch);
    }

    /// The range step (DESIGN.md §7), which the ingest loop takes when the
    /// mean of `S` leaves [`reinforce::MEAN_RANGE`]: scales `S` by the power
    /// of two `2^-j` that brings its mean back to ≈ 1, and `recip` and every
    /// pyramid distance by `2^j`. The products are exact, so the index is
    /// still the build over the new weights; the persisted exponent takes
    /// `j`, so no true value moves. Then every edge below the floor is lifted
    /// to it through the ordinary repair path, as a reinforcement write
    /// would be: no rebuild, and the cluster cache hears the affected nodes.
    /// Stale levels take neither step; a sync rebuilds them from `recip`.
    /// Expects no pending repairs; returns the lifts' repair work.
    ///
    /// Out of line: it runs once in ≈ 2^256 of mean growth, and inlined
    /// into the ingest loop it slowed every activation.
    #[cold]
    #[inline(never)]
    fn rescale_similarity(&mut self) -> RepairStats {
        let s = &mut self.state;
        let j = sim_mean(s).log2().round() as i32;
        let (down, up) = (2f64.powi(-j), 2f64.powi(j));
        for x in &mut s.sim {
            *x *= down;
        }
        s.sim_sum *= down;
        for w in &mut self.recip {
            *w *= up;
        }
        s.pyramids.rescale(up);
        s.sim_exp = s.sim_exp.saturating_add(j.into());
        let floor = reinforce::similarity_floor(s.config.floor_rel, sim_mean(s));
        for (e, x) in (0..).zip(&mut s.sim) {
            let lifted = reinforce::clamp_to_floor(*x, floor);
            if lifted != *x {
                *x = lifted;
                let w = &mut self.recip[e as usize];
                self.deltas.push((e, *w, 1.0 / lifted));
                *w = 1.0 / lifted;
            }
        }
        s.sim_sum = s.sim.iter().sum();
        self.flush()
    }

    // --- queries ----------------------------------------------------------

    /// Number of granularity levels (`⌈log₂ n⌉`).
    pub fn num_levels(&self) -> usize {
        self.state.pyramids.num_levels()
    }

    /// The `Θ(√n)`-clusters entry level of Problem 1.
    pub fn default_level(&self) -> usize {
        self.state.pyramids.default_level()
    }

    /// Makes `levels` the index's live set: the levels ingest keeps in step
    /// with the weights and queries may read (the [`crate::pyramid`] module
    /// doc). A level that leaves the set goes stale: no repair or rescale
    /// touches it, and a query of it panics. A level that enters it is
    /// synced: its `k` partitions are rebuilt from the current weights with
    /// the build's seed sampling, so it equals [`Self::reconstruct_index`]'s
    /// bit for bit (≈ 2.3 ms a level at n = 2 000). Every level is live
    /// after [`Self::new`] and after a restore. The cluster cache drops
    /// each level that changes state.
    ///
    /// # Panics
    ///
    /// If a level is out of range.
    pub fn set_live_levels(&mut self, levels: &[usize]) {
        let s = &mut self.state;
        let cache = self.cache.get_mut();
        for l in 0..s.pyramids.num_levels() {
            if s.pyramids.is_live(l) != levels.contains(&l) {
                cache.invalidate_level(l);
            }
        }
        s.pyramids.set_live_levels(&s.graph, &self.recip, s.index_seed, levels);
    }

    /// All clusters at `level` (Problem 1(1)).
    ///
    /// Served transparently from the incremental cluster-query cache: the
    /// first query of a level pays one parallel voting pass, subsequent
    /// queries only re-vote the edges of nodes whose seed intervening
    /// activations moved (see [`crate::ClusterCache`]). Returns an owned clone; use
    /// [`Self::cluster_all_cached`] to share the cached allocation and read
    /// the [`QueryStats`].
    pub fn cluster_all(&self, level: usize, mode: ClusterMode) -> Clustering {
        (*self.cluster_all_cached(level, mode).0).clone()
    }

    /// [`Self::cluster_all`] without the copy: the returned [`Arc`] is
    /// shared with the cache (repeat queries at an unchanged generation
    /// return the same allocation), and the [`QueryStats`] report the
    /// cache generation, the nodes whose seed had moved, and the
    /// repair-vs-rebuild decision this query took.
    ///
    /// On the warm path this hands out the cached `Arc` without locking or
    /// pool dispatch. The first-touch cold fill fans out over the pool: it
    /// runs inline on the querying thread — the writer, since the engine is
    /// not `Sync` — before anything is published to readers.
    pub fn cluster_all_cached(
        &self,
        level: usize,
        mode: ClusterMode,
    ) -> (Arc<Clustering>, QueryStats) {
        self.cache.borrow_mut().query(&self.state.graph, &self.state.pyramids, level, mode)
    }

    /// Read access to the cluster-query cache (observability: generation,
    /// hit/miss counters, per-level pending counts).
    pub fn cluster_cache(&self) -> std::cell::Ref<'_, ClusterCache> {
        self.cache.borrow()
    }

    /// Mutable access to the cluster-query cache (negative invariant tests
    /// break it through [`ClusterCache::corrupt_for_test`]).
    pub fn cluster_cache_mut(&mut self) -> &mut ClusterCache {
        self.cache.get_mut()
    }

    /// Snapshot-publish hook for the serving layer (DESIGN.md §12): brings
    /// the cache current at every requested `(level, mode)` pair — paying
    /// any pending repairs *now*, on the calling (writer) thread — and
    /// returns the refreshed `Arc` clusterings as one immutable
    /// [`ClusterView`] ready to hand to [`crate::publish::Publisher`].
    ///
    /// Readers holding the view answer membership queries from its `Arc`s
    /// without ever touching the engine, so the per-query path stays
    /// wait-free.
    pub fn refresh_view(&self, levels: &[usize], modes: &[ClusterMode]) -> ClusterView {
        let mut view = ClusterView::default();
        for &level in levels {
            for &mode in modes {
                let (c, qs) = self.cluster_all_cached(level, mode);
                view.generation = view.generation.max(qs.generation);
                view.clusterings.push((level, mode, c));
            }
        }
        view
    }

    /// The cluster containing `v` at `level` (Problem 1(2)); even-clustering
    /// semantics, cost proportional to the result (Lemma 9).
    pub fn local_cluster(&self, v: NodeId, level: usize) -> Vec<NodeId> {
        query::local_cluster(&self.state.graph, &self.state.pyramids, v, level)
    }

    /// The smallest cluster containing `v` (finest granularity).
    pub fn smallest_cluster(&self, v: NodeId) -> Vec<NodeId> {
        query::smallest_cluster(&self.state.graph, &self.state.pyramids, v)
    }

    /// Whether `u` and `v` share a cluster at `level` (Problem 1(3)).
    ///
    /// Answered from the pyramid partitions with no locking, blocking, or
    /// pool dispatch.
    #[inline]
    #[must_use = "pure query; the membership answer is the only effect"]
    pub fn same_cluster(&self, u: NodeId, v: NodeId, level: usize) -> bool {
        self.state.pyramids.same_cluster(u, v, level)
    }

    /// Approximate *true* (de-anchored) distance `M_t(u, v)` answered from
    /// the index in `O(k log n)` via the underlying Das Sarma sketch over
    /// the partitions of the live levels `≥ 1` (level 0 holds hop counts, a
    /// stale level lags the weights): never an underestimate, since every
    /// partition read is in step, with `O(log n)` expected stretch when
    /// every level is live. `f64::INFINITY` when no partition read joins
    /// the pair — for a connected pair too, when every such partition
    /// splits it.
    #[must_use = "pure query; the distance estimate is the only effect"]
    pub fn approx_distance(&self, u: NodeId, v: NodeId) -> f64 {
        // Stored distances sum stored weights `1/S`; the true NegM value
        // divides by the factor the true `S_t` multiplies by.
        self.state.pyramids.approx_distance(u, v) / self.true_scale()
    }

    /// Exact *true* distance `M_t(u, v)` by on-line Dijkstra (`O(m log n)`),
    /// the reference for [`Self::approx_distance`].
    #[must_use = "pure query; the distance is the only effect"]
    pub fn exact_distance(&self, u: NodeId, v: NodeId) -> f64 {
        let s = &self.state;
        crate::metric::distance(&s.graph, &s.sim, u, v) / self.true_scale()
    }

    // --- offline (ANCF) & maintenance -------------------------------------

    /// Builds an ANCF snapshot: resets `S` to 1, runs `rep` full
    /// reinforcement passes against the current activeness, and rebuilds the
    /// index from scratch. The engine itself is unchanged.
    pub fn offline_snapshot(&mut self, rep: usize) -> OfflineSnapshot {
        let s = &self.state;
        let sim = initial_similarity(&ctx(s), &self.num, &s.config, rep, &mut self.scratch);
        let recip: Vec<f64> = sim.iter().map(|s| 1.0 / s).collect();
        let pyramids = Pyramids::build(&s.graph, &recip, s.config.k, s.config.theta, s.index_seed);
        OfflineSnapshot { sim, recip, pyramids }
    }

    /// Rebuilds the engine's own index from its current weights — the
    /// RECONSTRUCT baseline of Figure 8. Fresh seed draws give the cache's
    /// seed rows no baseline to be compared against, so the cluster cache is
    /// invalidated wholesale and refills lazily. The rebuild reuses the
    /// index's own buffers (bit-identical to a fresh build). It rebuilds the
    /// live levels and keeps the live set; a stale level is rebuilt when it
    /// is synced ([`Self::set_live_levels`]).
    pub fn reconstruct_index(&mut self) {
        let s = &mut self.state;
        s.pyramids.rebuild(&s.graph, &self.recip, s.index_seed);
        self.cache.get_mut().invalidate_all();
    }

    /// Captures the complete engine state for checkpointing
    /// (see [`crate::persist`]). The index is copied as it stands, stale
    /// levels included: no encoder stores it, and a restore syncs them.
    pub fn to_snapshot(&self) -> EngineSnapshot {
        self.state.clone()
    }

    /// Restores an engine from a snapshot: validates it, then derives what
    /// the snapshot leaves out (the reciprocal weights, the σ numerators,
    /// scratch, an empty cluster cache), exactly as [`Self::new`] does.
    /// Every level of the restored index is live, a stale one synced from
    /// the snapshot's similarity, so it equals [`Self::reconstruct_index`]'s
    /// at every level.
    pub fn from_snapshot(snapshot: EngineSnapshot) -> Result<Self, RestoreError> {
        snapshot.validate()?;
        Ok(Self::from_state(snapshot))
    }

    /// Total heap bytes: index plus per-edge state (graph excluded, matching
    /// the paper's "space for storing the graph is excluded" in Exp 4).
    pub fn memory_bytes(&self) -> usize {
        let s = &self.state;
        s.pyramids.memory_bytes()
            + s.activeness.memory_bytes()
            + (s.node_sum.len() + s.sim.len() + self.recip.len() + self.num.as_slice().len())
                * std::mem::size_of::<f64>()
    }

    /// Verifies every engine invariant against the current state (testing
    /// aid; `O(k · m log n + Σ_v deg(v)²)`): CSR well-formedness,
    /// activeness finiteness and Def. 2 consistency, similarity positivity,
    /// range and `1/S` sync, the σ numerators against a fresh build, pyramid
    /// shape, per-partition shortest-path-forest soundness at the live
    /// levels (shape only at stale ones), and validity of the clustering at
    /// the default level, or at the first live level when the default is
    /// stale. See [`crate::invariant`] for the catalogue.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let s = &self.state;
        let (g, pyramids) = (&s.graph, &s.pyramids);
        invariant::check_graph(g)?;
        invariant::check_activeness(g, s.activeness.as_slice(), &s.node_sum)?;
        invariant::check_similarities(&s.sim, s.sim_sum)?;
        invariant::check_recip_sync(&s.sim, &self.recip)?;
        invariant::check_sigma_numerators(&ctx(s), self.num.as_slice())?;
        pyramids.check_invariants(g, &self.recip)?;
        let mut levels = std::iter::once(self.default_level()).chain(0..self.num_levels());
        if let Some(level) = levels.find(|&l| pyramids.is_live(l)) {
            invariant::check_clustering(g, &cluster_all(g, pyramids, level, ClusterMode::Power))?;
        }
        self.cache.borrow().check(g, pyramids)
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
        self.state.node_sum[v as usize] += delta;
    }

    /// Moves one kept σ numerator off its definition so the negative
    /// invariant tests can prove the checker catches it. Not part of the
    /// public API.
    #[doc(hidden)]
    pub fn corrupt_sigma_numerator_for_test(&mut self, e: EdgeId, delta: f64) {
        self.num.as_mut_slice()[e as usize] += delta;
    }

    /// The pooled per-partition affected-node lists (pyramid-major,
    /// `p * levels + l`) as the last flush left them, so tests can check
    /// that level 0's stay empty. Not part of the public API.
    #[doc(hidden)]
    pub fn repair_traces_for_test(&self) -> &[Vec<NodeId>] {
        &self.trace_bufs
    }
}

/// `S₀` for the activeness in `ctx` (paper Section IV-C), shared by
/// [`AncEngine::new`] and ANCF: all ones, then `rep` full reinforcement
/// passes over one σ table, taken from `num`, the σ numerators of that
/// activeness (no pass changes activeness, so none changes σ). A fresh `S`
/// starts at mean 1, and every pass renormalizes to it, so the floor is the
/// one rule's at mean 1.
fn initial_similarity(
    ctx: &SimilarityCtx<'_>,
    num: &SigmaNumerators,
    cfg: &AncConfig,
    rep: usize,
    scratch: &mut Scratch,
) -> Vec<f64> {
    let mut sim = vec![1.0; ctx.g.m()];
    if rep > 0 {
        let rows = SigmaRows::build(ctx, num, cfg.epsilon, cfg.mu, scratch);
        let floor = reinforce::similarity_floor(cfg.floor_rel, 1.0);
        for _ in 0..rep {
            reinforce::sweep(ctx, &mut sim, &rows, floor, scratch);
        }
    }
    sim
}

/// The mean of a state's stored similarity (the floor's and the range
/// rule's input).
fn sim_mean(s: &EngineSnapshot) -> f64 {
    s.sim_sum / s.graph.m().max(1) as f64
}

/// The σ context over a state's graph, activeness and node sums.
fn ctx(s: &EngineSnapshot) -> SimilarityCtx<'_> {
    SimilarityCtx { g: &s.graph, act: s.activeness.as_slice(), node_sum: &s.node_sum }
}

impl OfflineSnapshot {
    /// All clusters at `level` from the snapshot index.
    pub fn cluster_all(&self, g: &Graph, level: usize, mode: ClusterMode) -> Clustering {
        cluster_all(g, &self.pyramids, level, mode)
    }
}

/// An immutable, shareable view of the cached clusterings at a set of
/// `(level, mode)` pairs — the unit the serving layer publishes to its
/// readers after each drained ingest batch ([`AncEngine::refresh_view`],
/// DESIGN.md §12).
#[derive(Clone, Debug, Default)]
pub struct ClusterView {
    /// Cache generation every clustering in this view was refreshed at; two
    /// views with equal generation saw the same logical index state.
    pub generation: u64,
    /// One `(level, mode, clustering)` entry per requested pair, in request
    /// order (levels outer, modes inner).
    pub clusterings: Vec<(usize, ClusterMode, Arc<Clustering>)>,
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
        // from scratch over the same weights (same seeds → same partitions),
        // bit for bit in every array.
        let mut engine = engine_fixture(1);
        let m = engine.graph().m() as u32;
        for i in 0..40u32 {
            engine.activate((i * 11 + 3) % m, (i / 4) as f64);
        }
        let live = engine.state_bytes_for_test();
        engine.reconstruct_index();
        assert!(live == engine.state_bytes_for_test(), "live index differs from the rebuild");
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
        // λt = 1.9 holds two halvings of g.
        assert_eq!(engine.rescales(), 0);
        engine.force_rescale();
        assert_eq!(engine.rescales(), 1, "the rescale must not be a no-op");
        engine.check_invariants().unwrap();
        let after = engine.cluster_all(level, ClusterMode::Power);
        assert_eq!(before, after, "rescale must not change clustering");
        assert!((engine.similarity(0) - sim_before).abs() < 1e-9 * (1.0 + sim_before));
        assert!((engine.activeness(0) - act_before).abs() < 1e-9 * (1.0 + act_before));
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
            engine.activate_batch(&clique0, t as f64);
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
    fn memory_accounting_positive() {
        let engine = engine_fixture(0);
        assert!(engine.memory_bytes() > 0);
    }

    /// A batch must be bit-identical to a serial loop of `activate` calls,
    /// down to the serialized snapshot bytes, across rescales: with a guard
    /// of 0 one is due at every call, and it re-anchors whenever a whole
    /// halving of `g` has elapsed. It happens once per call, before the
    /// first edge, so `rescales()` rises by at most one per call — also
    /// across the last gap, which holds seven halvings.
    #[test]
    fn exact_batch_is_bitwise_identical_to_serial_loop() {
        let lg = connected_caveman(4, 6);
        let rescale = anc_decay::RescaleConfig { exponent_guard: 0.0 };
        let cfg = AncConfig {
            lambda: 1.0,
            rep: 1,
            mu: 3,
            epsilon: 0.25,
            k: 3,
            rescale,
            ..Default::default()
        };
        let mut serial = AncEngine::new(lg.graph.clone(), cfg.clone(), 42);
        let mut batched = AncEngine::new(lg.graph, cfg, 42);
        let m = serial.graph().m() as u32;
        let mut stats_total = RepairStats::default();
        for (step, t) in (0u32..).zip([1.0, 1.5, 2.0, 2.5, 3.0, 8.0]) {
            let batch: Vec<u32> = (0..25).map(|i| (i * 7 + step * 3) % m).collect();
            for &e in &batch {
                let before = serial.rescales();
                serial.activate(e, t);
                assert!(serial.rescales() <= before + 1);
            }
            let before = batched.rescales();
            stats_total += batched.activate_batch(&batch, t);
            assert!(batched.rescales() <= before + 1, "step {step}: two rescales in one call");
        }
        assert!(serial.rescales() >= 4, "test must cross rescales");
        assert_eq!(serial.rescales(), batched.rescales());
        assert!(stats_total.updates > 0);
        for e in 0..m as usize {
            assert_eq!(serial.state.sim[e].to_bits(), batched.state.sim[e].to_bits(), "sim {e}");
            assert_eq!(serial.recip[e].to_bits(), batched.recip[e].to_bits(), "recip {e}");
        }
        // The serialized snapshots (state + every partition) must be
        // byte-identical.
        assert_eq!(
            serial.state_bytes_for_test(),
            batched.state_bytes_for_test(),
            "snapshots diverge"
        );
        batched.check_invariants().unwrap();
    }

    /// Satellite regression: updates that cannot move any vote — an empty
    /// batch and a batched rescale (it moves activeness only, no weight) —
    /// must not bump the cache generation, leave nodes pending, or replace
    /// the cached clustering allocation.
    #[test]
    fn rescale_and_empty_batch_preserve_cache_generation() {
        let mut engine = engine_fixture(1);
        let m = engine.graph().m() as u32;
        // λt = 0.97 at the last activation: one halving of g.
        for i in 0..30u32 {
            engine.activate(i % m, 1.0 + i as f64 * 0.3);
        }
        let level = engine.default_level();
        let (before, s0) = engine.cluster_all_cached(level, ClusterMode::Power);
        let gen = engine.cluster_cache().generation();
        let _ = engine.activate_batch(&[], 10.0);
        engine.force_rescale();
        assert_eq!(engine.rescales(), 1, "the rescale must not be a no-op");
        assert_eq!(engine.cluster_cache().generation(), gen);
        assert_eq!(engine.cluster_cache().pending_count(level), Some(0));
        let (after, s1) = engine.cluster_all_cached(level, ClusterMode::Power);
        assert!(Arc::ptr_eq(&before, &after), "cached Arc must survive the no-ops");
        assert_eq!(s1.generation, s0.generation);
        assert_eq!(s1.decision, crate::cache::QueryDecision::Hit);
        engine.check_invariants().unwrap();
    }

    /// A lone delta is replayed once on every partition of a live level
    /// ≥ 1 and on none at the weight-free level 0: `k · (L − 1)` updates and
    /// skips together with every level live, `k` with one.
    #[test]
    fn lone_delta_counts_the_weighted_partitions() {
        let mut engine = engine_fixture(1);
        let stats = engine.activate_batch(&[0], 1.0);
        assert_eq!(stats.updates + stats.skips, 4 * (engine.num_levels() - 1));
        engine.set_live_levels(&[engine.default_level()]);
        let stats = engine.activate_batch(&[0], 2.0);
        assert_eq!(stats.updates + stats.skips, 4);
    }

    /// Queries served from the cache must track a stream of single, batch,
    /// and batch-then-reconstruct updates exactly (the engine-level
    /// cached ≡ cold bar).
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
                    let _ = engine.activate_batch(&batch, t);
                    engine.reconstruct_index();
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

    /// At the largest guard the config accepts, one call adds boosts just
    /// short of `e^guard` to node 0's sum, and every sum stays finite (at a
    /// guard of 709.78, past the bound, `A(0)` summed to ∞).
    #[test]
    fn boosts_at_the_largest_guard_sum_finitely() {
        let rescale = anc_decay::RescaleConfig { exponent_guard: 664.72 };
        let cfg = AncConfig { lambda: 1.0, rep: 1, rescale, ..Default::default() };
        let mut engine = AncEngine::new(connected_caveman(3, 5).graph, cfg, 7);
        let edges: Vec<EdgeId> = engine.graph().edges_of(0).map(|(_, e)| e).collect();
        let _ = engine.activate_batch(&edges, 664.7);
        assert_eq!(engine.rescales(), 0);
        engine.check_invariants().unwrap();
    }

    /// An empty batch moves nothing, the clock included: not even at a time
    /// by which a rescale would be due.
    #[test]
    fn empty_batch_is_a_noop() {
        let mut engine = engine_fixture(1);
        let before = engine.state_bytes_for_test();
        assert_eq!(engine.activate_batch(&[], 5.0), RepairStats::default());
        assert_eq!(engine.activate_batch(&[], 1e4), RepairStats::default());
        assert_eq!(before, engine.state_bytes_for_test());
        assert_eq!((engine.now(), engine.rescales()), (0.0, 0));
    }
}
