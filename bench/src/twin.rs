//! The layer twin: an engine taken apart into its layers' public
//! functions, stepped beside the real one.
//!
//! No span lives inside `crates/`; the only way to see what a layer costs
//! from outside is to call the layers one at a time in the order the engine
//! does. Whether that order is the real one is checked, not assumed: after
//! every traced pass the twin's state digest must equal the engine's.

use anc_core::reinforce::{apply_reinforcement_cached, full_pass, CachedTrigger, ReinforceParams};
use anc_core::similarity::{Scratch, SimilarityCtx};
use anc_core::{AncConfig, ClusterCache, ClusterMode, EngineSnapshot, Pyramids, QueryStats};
use anc_decay::{ActivenessStore, DecayClock};
use anc_graph::{EdgeId, Graph, NodeId};
use anc_metrics::Clustering;
use std::sync::Arc;

use crate::digest::parts_digest;
use crate::trace::Recorder;

/// What a twin step observed besides time.
#[derive(Clone, Copy, Debug, Default)]
pub struct TwinCounts {
    /// Activations replayed.
    pub activations: u64,
    /// Activations whose reinforcement changed `S`.
    pub changed: u64,
    /// Single-edge repairs run (= `changed` on the serial path).
    pub repairs: u64,
    /// Single-edge repairs that touched no node in any partition.
    pub noop_repairs: u64,
    /// Σ affected nodes over single-edge repairs, all partitions.
    pub touched: u64,
}

/// The engine's state, held as the separate stores its layers own.
pub struct LayerTwin {
    g: Graph,
    cfg: AncConfig,
    clock: DecayClock,
    act: ActivenessStore,
    node_sum: Vec<f64>,
    sim: Vec<f64>,
    recip: Vec<f64>,
    pyramids: Pyramids,
    cache: ClusterCache,
    sim_sum: f64,
    activations: u64,
    scratch: Scratch,
    row_u: Vec<f64>,
    row_v: Vec<f64>,
    bufs: Vec<Vec<NodeId>>,
    deltas: Vec<(EdgeId, f64, f64)>,
    pub counts: TwinCounts,
}

impl LayerTwin {
    /// Puts the stores together the way `AncEngine::from_snapshot` does:
    /// reciprocal weights re-derived, scratch and cache fresh.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        g: Graph,
        cfg: AncConfig,
        clock: DecayClock,
        act: ActivenessStore,
        node_sum: Vec<f64>,
        sim: Vec<f64>,
        pyramids: Pyramids,
        sim_sum: f64,
        activations: u64,
    ) -> Self {
        Self {
            recip: sim.iter().map(|s| 1.0 / s).collect(),
            cache: ClusterCache::new(pyramids.num_levels()),
            scratch: Scratch::new(g.n()),
            bufs: vec![Vec::new(); pyramids.k() * pyramids.num_levels()],
            g,
            cfg,
            clock,
            act,
            node_sum,
            sim,
            pyramids,
            sim_sum,
            activations,
            row_u: Vec::new(),
            row_v: Vec::new(),
            deltas: Vec::new(),
            counts: TwinCounts::default(),
        }
    }

    /// Takes a snapshot apart.
    pub fn from_snapshot(s: &EngineSnapshot) -> Self {
        Self::assemble(
            s.graph.clone(),
            s.config.clone(),
            s.clock.clone(),
            s.activeness.clone(),
            s.node_sum.clone(),
            s.sim.clone(),
            s.pyramids.clone(),
            s.sim_sum,
            s.activations,
        )
    }

    /// `AncEngine::new` from its layers: unit activeness, `rep` full
    /// reinforcement passes, reciprocal weights, pyramids. Spans:
    /// `reinforce.full_pass` (one per repetition) and `pyramid.build`.
    pub fn build(g: Graph, cfg: AncConfig, index_seed: u64, rec: &mut Recorder) -> Self {
        let clock = DecayClock::with_config(cfg.lambda, cfg.rescale);
        let act = ActivenessStore::new(g.m(), 1.0);
        let mut node_sum = vec![0.0; g.n()];
        for (e, u, v) in g.iter_edges() {
            node_sum[u as usize] += act.anchored(e);
            node_sum[v as usize] += act.anchored(e);
        }
        let mut sim = vec![1.0; g.m()];
        let mut scratch = Scratch::new(g.n());
        let params = ReinforceParams {
            epsilon: cfg.epsilon,
            mu: cfg.mu,
            floor_anchored: cfg.floor.max(cfg.floor_rel),
        };
        let ctx = SimilarityCtx { g: &g, act: act.as_slice(), node_sum: &node_sum };
        for _ in 0..cfg.rep {
            rec.leaf("reinforce.full_pass", 0, || full_pass(&ctx, &mut sim, &params, &mut scratch));
        }
        let recip: Vec<f64> = sim.iter().map(|s| 1.0 / s).collect();
        let pyramids = rec
            .leaf("pyramid.build", 0, || Pyramids::build(&g, &recip, cfg.k, cfg.theta, index_seed));
        let sim_sum = sim.iter().sum();
        Self::assemble(g, cfg, clock, act, node_sum, sim, pyramids, sim_sum, 0)
    }

    pub fn digest(&self) -> u64 {
        parts_digest(
            self.g.n(),
            self.activations,
            &self.clock,
            &self.act,
            &self.sim,
            &self.pyramids,
        )
    }

    /// Decay bump, σ rows and reinforcement of one activation; returns the
    /// weight delta when `S(e)` changed. Spans: `decay.bump`,
    /// `similarity.sigma_all` (twice), `reinforce.apply`.
    fn bump_and_reinforce(
        &mut self,
        e: EdgeId,
        t: f64,
        op: usize,
        rec: &mut Recorder,
    ) -> Option<(EdgeId, f64, f64)> {
        let (u, v) = self.g.endpoints(e);
        rec.leaf("decay.bump", op, || {
            self.clock.advance_to(t);
            self.act.activate(e, &self.clock);
            let boost = self.clock.boost();
            self.node_sum[u as usize] += boost;
            self.node_sum[v as usize] += boost;
            self.clock.note_activation();
        });
        self.activations += 1;
        self.counts.activations += 1;

        let mean = self.sim_sum / self.g.m().max(1) as f64;
        let floor = (self.cfg.floor * self.clock.boost()).max(self.cfg.floor_rel * mean);
        let ctx = SimilarityCtx { g: &self.g, act: self.act.as_slice(), node_sum: &self.node_sum };
        let (scratch, row_u, row_v) = (&mut self.scratch, &mut self.row_u, &mut self.row_v);
        rec.leaf("similarity.sigma_all", op, || {
            ctx.sigma_all(u, scratch);
            std::mem::swap(&mut scratch.sigmas, row_u);
        });
        rec.leaf("similarity.sigma_all", op, || {
            ctx.sigma_all(v, scratch);
            std::mem::swap(&mut scratch.sigmas, row_v);
        });
        let sim = &mut self.sim;
        let (epsilon, mu) = (self.cfg.epsilon, self.cfg.mu);
        let out = rec.leaf("reinforce.apply", op, || {
            let trig_u = CachedTrigger {
                sigmas: row_u,
                node_type: ctx.node_type_from_sigmas(u, epsilon, mu, row_u),
            };
            let trig_v = CachedTrigger {
                sigmas: row_v,
                node_type: ctx.node_type_from_sigmas(v, epsilon, mu, row_v),
            };
            apply_reinforcement_cached(&ctx, sim, e, floor, trig_u, trig_v, scratch)
        });
        self.sim_sum += out.new_sim - out.old_sim;
        if out.new_sim == out.old_sim {
            return None;
        }
        self.counts.changed += 1;
        let old_w = self.recip[e as usize];
        let new_w = 1.0 / out.new_sim;
        self.recip[e as usize] = new_w;
        Some((e, old_w, new_w))
    }

    /// One `AncEngine::activate`, layer by layer, under a `twin.activate`
    /// span; adds `pyramid.repair` and `cache.note_affected`.
    pub fn activate(&mut self, e: EdgeId, t: f64, op: usize, rec: &mut Recorder) {
        let whole = rec.begin("twin.activate", op);
        if let Some((e, old_w, _)) = self.bump_and_reinforce(e, t, op, rec) {
            rec.leaf("pyramid.repair", op, || {
                self.pyramids.on_weight_change_serial_into(
                    &self.g,
                    &self.recip,
                    e,
                    old_w,
                    &mut self.bufs,
                )
            });
            let touched: usize = self.bufs.iter().map(Vec::len).sum();
            self.counts.repairs += 1;
            self.counts.touched += touched as u64;
            self.counts.noop_repairs += u64::from(touched == 0);
            rec.leaf("cache.note_affected", op, || self.cache.note_affected(&self.g, &self.bufs));
        }
        rec.end(whole);
        assert!(!self.clock.needs_rescale(), "no pass may cross a rescale (ROADMAP item 1)");
    }

    /// One `AncEngine::activate_batch` in `Exact` mode, layer by layer,
    /// under a `twin.batch` span: per edge as above, then one grouped
    /// `pyramid.batch_repair` and `cache.note_affected`.
    pub fn activate_batch(&mut self, edges: &[EdgeId], t: f64, op: usize, rec: &mut Recorder) {
        let whole = rec.begin("twin.batch", op);
        self.deltas.clear();
        for &e in edges {
            if let Some(delta) = self.bump_and_reinforce(e, t, op, rec) {
                self.deltas.push(delta);
            }
            assert!(!self.clock.needs_rescale(), "no pass may cross a rescale (ROADMAP item 1)");
        }
        if !self.deltas.is_empty() {
            if self.cache.has_materialized_levels() {
                let _ = rec.leaf("pyramid.batch_repair", op, || {
                    self.pyramids.on_weight_change_batch_traced(
                        &self.g,
                        &self.recip,
                        &self.deltas,
                        &mut self.bufs,
                    )
                });
                rec.leaf("cache.note_affected", op, || {
                    self.cache.note_affected(&self.g, &self.bufs)
                });
            } else {
                self.cache.note_untracked_updates();
                let _ = rec.leaf("pyramid.batch_repair", op, || {
                    self.pyramids.on_weight_change_batch(&self.g, &self.recip, &self.deltas)
                });
            }
        }
        rec.end(whole);
    }

    /// `ClusterCache::query` at `level`, `Even` mode, under a `cache.query`
    /// span.
    pub fn query(
        &mut self,
        level: usize,
        op: usize,
        rec: &mut Recorder,
    ) -> (Arc<Clustering>, QueryStats) {
        rec.leaf("cache.query", op, || {
            self.cache.query(&self.g, &self.pyramids, level, ClusterMode::Even)
        })
    }

    /// A cold `cluster_all` of the twin's index, under a `cluster.cold`
    /// span: what `cache.query` has to beat.
    pub fn cold_cluster(&self, level: usize, op: usize, rec: &mut Recorder) -> Clustering {
        rec.leaf("cluster.cold", op, || {
            anc_core::cluster::cluster_all(&self.g, &self.pyramids, level, ClusterMode::Even)
        })
    }
}
