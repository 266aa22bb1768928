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
//! One batched rescale (`anc-decay`) is shared by every store, decided and
//! applied in [`AncEngine::force_rescale`]: anchored activeness, node sums
//! and similarity absorb `g` (PosM), reciprocal weights and all pyramid
//! distances absorb `1/g` (NegM, Lemma 10). The factor is a power of two, so
//! every product is exact: `recip` stays exactly `1/S*`, every `dist` stays
//! the exact sum along its shortest-path tree, and the index structure is
//! untouched — the state a restore re-derives from the snapshot, bit for
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
use crate::reinforce::{self, apply_reinforcement, ReinforceParams, SigmaRows};
use crate::similarity::{NodeType, Scratch, SimilarityCtx};

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
    /// Anchored reciprocal similarity `1/S*` per edge (NegM) — the index's
    /// edge weights, kept materialized so partitions can read a plain slice.
    recip: Vec<f64>,
    scratch: Scratch,
    /// The incremental cluster-query cache (interior mutability so
    /// `&self` queries can repair lazily; never borrowed across a call
    /// boundary, so the `RefCell` cannot be observed locked).
    cache: RefCell<ClusterCache>,
    /// Pooled affected-set buffers of the last traced repair, one per
    /// partition: the cluster cache's feed (the grouped repair fills them
    /// only while the cache has materialized levels).
    trace_bufs: Vec<Vec<NodeId>>,
    /// Pooled accumulator of the ingest loop: the `(e, old_w, new_w)` weight
    /// changes not yet repaired into the index.
    deltas: Vec<(EdgeId, f64, f64)>,
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
        let clock = DecayClock::with_config(cfg.lambda, cfg.rescale);
        let act = ActivenessStore::new(g.m(), 1.0);
        let mut node_sum = vec![0.0; g.n()];
        for (e, u, v) in g.iter_edges() {
            node_sum[u as usize] += act.anchored(e);
            node_sum[v as usize] += act.anchored(e);
        }
        let ctx = SimilarityCtx { g: &g, act: act.as_slice(), node_sum: &node_sum };
        let sim = initial_similarity(&ctx, &cfg, cfg.rep, &mut Scratch::new(g.n()));
        let recip: Vec<f64> = sim.iter().map(|s| 1.0 / s).collect();
        let pyramids = Pyramids::build(&g, &recip, cfg.k, cfg.theta, seed);
        let sim_sum = sim.iter().sum();
        Self::from_state(EngineSnapshot {
            graph: g,
            config: cfg,
            clock,
            activeness: act,
            node_sum,
            sim,
            pyramids,
            index_seed: seed,
            sim_sum,
            activations: 0,
            rescales: 0,
        })
    }

    /// The one constructor: adopts `state` and derives the rest — the
    /// reciprocal weights (`O(m)`, the same bits the index was built or
    /// repaired against), scratch, an empty cluster cache (never persisted,
    /// it refills lazily on first query) and empty pooled buffers.
    pub(crate) fn from_state(state: EngineSnapshot) -> Self {
        let recip = state.sim.iter().map(|s| 1.0 / s).collect();
        let (k, levels) = (state.pyramids.k(), state.pyramids.num_levels());
        Self {
            recip,
            scratch: Scratch::new(state.graph.n()),
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
        self.state.sim[e as usize] * self.state.clock.global_factor()
    }

    /// Anchored similarity slice (for metric computations; anchored values
    /// preserve all comparisons).
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
        // The anchored floor is the larger of the absolute floor on the
        // *true* similarity (`floor × 1/g`) and the mean-relative floor on
        // the anchored values.
        let s = &self.state;
        let mean = s.sim_sum / s.graph.m().max(1) as f64;
        ReinforceParams {
            epsilon: s.config.epsilon,
            mu: s.config.mu,
            floor_anchored: (s.config.floor * s.clock.boost()).max(s.config.floor_rel * mean),
        }
    }

    /// Processes one activation `(e, t)` — the ANCO per-activation path, a
    /// batch of one through the ingest loop (DESIGN.md §7):
    ///
    /// 1. advance the clock, absorb a batched rescale if one is due, and
    ///    bump the anchored activeness (`O(1)`, Lemma 1);
    /// 2. apply local reinforcement with trigger edge `e` (`O(deg u +
    ///    deg v)` neighborhood work, Lemma 5);
    /// 3. repair every Voronoi partition at levels `≥ 1` for the changed
    ///    weight (Algorithms 1–3, bounded by the affected region, Lemma 12);
    ///    level 0 is weight-free.
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
    /// index repairs are deferred and fed to the index as one grouped
    /// [`Pyramids::on_weight_change_batch`] fan-out — one parallel pass over
    /// the `k·(⌈log₂ n⌉ − 1)` weighted partitions per batch instead of one
    /// per activation (level 0 is weight-free and never repaired), with
    /// inert deltas short-circuited by an exact no-op precheck. The
    /// grouped repair replays every delta at its exact per-step weights, so
    /// the result is **bit-identical** to the serial loop and independent of
    /// the rayon thread count.
    ///
    /// Returns the index repair work its flushes summed (DESIGN.md §7).
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
    /// [`Self::activate_batch`] and [`Self::reinforce_edges`]. Per edge,
    /// when a timestamp is given: advance the clock → if a rescale is due,
    /// flush the pending repairs and [`Self::force_rescale`] →
    /// [`Self::bump`]; then, with or without one, [`Self::reinforce`] →
    /// queue the weight change. The `reinforce_edges` path (no timestamp)
    /// never rescales. Pending repairs are flushed once more at the end.
    /// Returns the repair work of every flush.
    fn ingest(&mut self, edges: &[EdgeId], t: Option<Time>) -> RepairStats {
        let mut stats = RepairStats::default();
        for &e in edges {
            if let Some(t) = t {
                self.state.clock.advance_to(t);
                // The one rescale site: before `bump` reads `boost()`, so
                // `boost() ≤ e^guard` always holds, and after the pending
                // repairs have landed at the pre-rescale weights.
                if self.state.clock.needs_rescale() {
                    stats += self.flush();
                    self.force_rescale();
                }
                self.bump(e);
            }
            if let Some(delta) = self.reinforce(e) {
                self.deltas.push(delta);
            }
        }
        stats += self.flush();
        stats
    }

    /// Ingest stage 1: bumps the anchored activeness of `e` and both
    /// endpoint sums at the clock's time (`O(1)`, Lemma 1).
    fn bump(&mut self, e: EdgeId) {
        let s = &mut self.state;
        s.activeness.activate(e, &s.clock);
        let (u, v) = s.graph.endpoints(e);
        let boost = s.clock.boost();
        s.node_sum[u as usize] += boost;
        s.node_sum[v as usize] += boost;
        s.clock.note_activation();
        s.activations += 1;
    }

    /// Ingest stage 2: one local reinforcement with trigger edge `e`
    /// (Lemma 5). Returns the index weight change `(e, old_w, new_w)` when
    /// `S(e)` moved.
    fn reinforce(&mut self, e: EdgeId) -> Option<(EdgeId, f64, f64)> {
        let params = self.reinforce_params();
        let s = &mut self.state;
        let ctx =
            SimilarityCtx { g: &s.graph, act: s.activeness.as_slice(), node_sum: &s.node_sum };
        let out = apply_reinforcement(&ctx, &mut s.sim, e, &params, &mut self.scratch);
        s.sim_sum += out.new_sim - out.old_sim;
        if out.new_sim == out.old_sim {
            return None;
        }
        let old_w = self.recip[e as usize];
        let new_w = 1.0 / out.new_sim;
        self.recip[e as usize] = new_w;
        Some((e, old_w, new_w))
    }

    /// Ingest stage 3: repairs the index for the pending weight changes,
    /// clears the accumulator and returns the repair work. The kernel
    /// follows from the input, and both replay
    /// [`crate::voronoi::VoronoiPartition::on_weight_change_into`] at the
    /// exact per-step weights, so the choice cannot change a bit of state:
    ///
    /// * one delta — the single-edge repair straight into the pooled trace
    ///   buffers (the grouped kernel refills an `O(m)` private weight array
    ///   per worker, which a lone change must not pay for);
    /// * two or more — one grouped parallel fan-out, traced while the
    ///   cluster cache has materialized levels (so it hears which nodes to
    ///   re-check) and untraced otherwise.
    fn flush(&mut self) -> RepairStats {
        let (g, pyramids) = (&self.state.graph, &mut self.state.pyramids);
        let cache = self.cache.get_mut();
        let stats = match self.deltas[..] {
            [] => return RepairStats::default(),
            [(e, old_w, _)] => {
                pyramids.on_weight_change_serial_into(
                    g,
                    &self.recip,
                    e,
                    old_w,
                    &mut self.trace_bufs,
                );
                cache.note_affected(g, &self.trace_bufs);
                // No precheck here: every partition at levels ≥ 1 runs its
                // bounded update; level 0 is weight-free.
                RepairStats { updates: pyramids.k() * (pyramids.num_levels() - 1), skips: 0 }
            }
            _ => {
                if cache.has_materialized_levels() {
                    let rs = pyramids.on_weight_change_batch_traced(
                        g,
                        &self.recip,
                        &self.deltas,
                        &mut self.trace_bufs,
                    );
                    cache.note_affected(g, &self.trace_bufs);
                    rs
                } else {
                    cache.note_untracked_updates();
                    pyramids.on_weight_change_batch(g, &self.recip, &self.deltas)
                }
            }
        };
        self.deltas.clear();
        stats
    }

    /// Performs a batched rescale now; the ingest loop calls it when one is
    /// due, tests and ablations may call it any time. Absorbs the exact
    /// power-of-two factor `g` of [`DecayClock::take_rescale`]: PosM stores
    /// multiply by `g`, NegM stores by `1/g`. When `g = 1` (less than one
    /// halving has elapsed) no store moves and [`Self::rescales`] does not
    /// count it.
    pub fn force_rescale(&mut self) {
        let s = &mut self.state;
        let g = s.clock.take_rescale();
        if g == 1.0 {
            return;
        }
        s.activeness.rescale(g);
        for x in s.node_sum.iter_mut().chain(&mut s.sim) {
            *x *= g;
        }
        s.sim_sum *= g;
        let inv = 1.0 / g;
        for w in &mut self.recip {
            *w *= inv;
        }
        s.pyramids.rescale(inv);
        s.rescales += 1;
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
    /// the partitions at levels `≥ 1` (level 0 holds hop counts): never an
    /// underestimate, `O(log n)` expected stretch. `f64::INFINITY` when no
    /// partition at levels `≥ 1` joins the pair — for a connected pair too,
    /// when every such partition splits it.
    #[must_use = "pure query; the distance estimate is the only effect"]
    pub fn approx_distance(&self, u: NodeId, v: NodeId) -> f64 {
        // Stored distances are anchored (weights 1/S*); the true NegM value
        // divides by the global factor g... true w = w*/g, so true dist =
        // anchored / g.
        self.state.pyramids.approx_distance(u, v) / self.state.clock.global_factor()
    }

    /// Exact *true* distance `M_t(u, v)` by on-line Dijkstra (`O(m log n)`),
    /// the reference for [`Self::approx_distance`].
    #[must_use = "pure query; the distance is the only effect"]
    pub fn exact_distance(&self, u: NodeId, v: NodeId) -> f64 {
        let s = &self.state;
        crate::metric::distance(&s.graph, &s.sim, u, v) / s.clock.global_factor()
    }

    // --- offline (ANCF) & maintenance -------------------------------------

    /// Builds an ANCF snapshot: resets `S` to 1, runs `rep` full
    /// reinforcement passes against the current activeness, and rebuilds the
    /// index from scratch. The engine itself is unchanged.
    pub fn offline_snapshot(&mut self, rep: usize) -> OfflineSnapshot {
        let s = &self.state;
        let sim = initial_similarity(&ctx(s), &s.config, rep, &mut self.scratch);
        let recip: Vec<f64> = sim.iter().map(|s| 1.0 / s).collect();
        let pyramids = Pyramids::build(&s.graph, &recip, s.config.k, s.config.theta, s.index_seed);
        OfflineSnapshot { sim, recip, pyramids }
    }

    /// Rebuilds the engine's own index from its current weights — the
    /// RECONSTRUCT baseline of Figure 8. Fresh seed draws give the cache's
    /// seed rows no baseline to be compared against, so the cluster cache is
    /// invalidated wholesale and refills lazily. The rebuild reuses the
    /// index's own buffers (bit-identical to a fresh build).
    pub fn reconstruct_index(&mut self) {
        let s = &mut self.state;
        s.pyramids.rebuild(&s.graph, &self.recip, s.index_seed);
        self.cache.get_mut().invalidate_all();
    }

    /// Captures the complete engine state for checkpointing
    /// (see [`crate::persist`]).
    pub fn to_snapshot(&self) -> EngineSnapshot {
        self.state.clone()
    }

    /// Restores an engine from a snapshot: validates it, then derives what
    /// the snapshot leaves out (`O(n + m)`: the reciprocal weights, scratch,
    /// an empty cluster cache), exactly as [`Self::new`] does.
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
            + (s.node_sum.len() + s.sim.len() + self.recip.len()) * std::mem::size_of::<f64>()
    }

    /// Verifies every engine invariant against the current state (testing
    /// aid; `O(k · m log n)`): CSR well-formedness, activeness finiteness
    /// and Def. 2 consistency, similarity positivity and `1/S*` sync,
    /// pyramid shape, per-partition shortest-path-forest soundness, and
    /// validity of the default-level clustering. See [`crate::invariant`]
    /// for the catalogue.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let s = &self.state;
        let (g, pyramids) = (&s.graph, &s.pyramids);
        invariant::check_graph(g)?;
        invariant::check_activeness(g, s.activeness.as_slice(), &s.node_sum)?;
        invariant::check_similarities(&s.sim)?;
        invariant::check_recip_sync(&s.sim, &self.recip)?;
        pyramids.check_invariants(g, &self.recip)?;
        let c = cluster_all(g, pyramids, self.default_level(), ClusterMode::Power);
        invariant::check_clustering(g, &c)?;
        invariant::check_cluster_cache(g, pyramids, &self.cache.borrow())
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

    /// The pooled per-partition affected-node lists (pyramid-major,
    /// `p * levels + l`) as the last traced repair left them, so tests can
    /// check that level 0's stay empty. Not part of the public API.
    #[doc(hidden)]
    pub fn repair_traces_for_test(&self) -> &[Vec<NodeId>] {
        &self.trace_bufs
    }
}

/// `S₀` for the activeness in `ctx` (paper Section IV-C), shared by
/// [`AncEngine::new`] and ANCF: all ones, then `rep` full reinforcement
/// passes over one σ table (no pass changes activeness, so none changes σ).
/// A fresh `S` starts at mean 1, so the relative floor applies directly.
fn initial_similarity(
    ctx: &SimilarityCtx<'_>,
    cfg: &AncConfig,
    rep: usize,
    scratch: &mut Scratch,
) -> Vec<f64> {
    let mut sim = vec![1.0; ctx.g.m()];
    if rep > 0 {
        let rows = SigmaRows::build(ctx, cfg.epsilon, cfg.mu, scratch);
        let floor_anchored = cfg.floor.max(cfg.floor_rel);
        for _ in 0..rep {
            reinforce::sweep(ctx, &mut sim, &rows, floor_anchored, scratch);
        }
    }
    sim
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

    /// The tentpole correctness bar: a batch must be bit-identical to a
    /// serial loop of `activate` calls — including across a mid-batch
    /// rescale — down to the serialized snapshot bytes.
    #[test]
    fn exact_batch_is_bitwise_identical_to_serial_loop() {
        let lg = connected_caveman(4, 6);
        // A tiny rescale interval forces several mid-batch rescales; λ = 1
        // makes the steps of 0.5 add up to whole halvings of g.
        let rescale = anc_decay::RescaleConfig { every_activations: 7, exponent_guard: 200.0 };
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
        for step in 0..6u32 {
            let t = 1.0 + step as f64 * 0.5;
            let batch: Vec<u32> = (0..25).map(|i| (i * 7 + step * 3) % m).collect();
            for &e in &batch {
                serial.activate(e, t);
            }
            stats_total += batched.activate_batch(&batch, t);
        }
        assert!(serial.rescales() >= 2, "test must cross rescales");
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
    /// batch and a batched rescale (uniform distance scaling preserves every
    /// seed assignment) — must not bump the cache generation, leave nodes
    /// pending, or replace the cached clustering allocation.
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

    /// A lone delta takes the serial repair, which runs every partition at
    /// levels ≥ 1 and none at the weight-free level 0: `k · (L − 1)`
    /// updates, no precheck skips.
    #[test]
    fn lone_delta_counts_the_weighted_partitions() {
        let mut engine = engine_fixture(1);
        let stats = engine.activate_batch(&[0], 1.0);
        assert_eq!(stats, RepairStats { updates: 4 * (engine.num_levels() - 1), skips: 0 });
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

    #[test]
    fn empty_batch_is_a_noop() {
        let mut engine = engine_fixture(1);
        let before = engine.state_bytes_for_test();
        assert_eq!(engine.activate_batch(&[], 5.0), RepairStats::default());
        assert_eq!(before, engine.state_bytes_for_test());
    }
}
