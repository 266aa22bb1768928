//! Local reinforcement (paper Section IV-B/C): folding an activation's
//! structural context into the similarity function `S_t`.
//!
//! Upon an activation on trigger edge `e(u, v)`, three processes are
//! evaluated per trigger node (shown for `u`; `v` is symmetric):
//!
//! * **Direct consolidation** `AF(e) = F(e) · σ(u,v) / deg(u)` — the
//!   activation consolidates `u`–`v` proportionally to their active
//!   similarity, damped by `u`'s degree.
//! * **Triadic consolidation**
//!   `TF(e) = Σ_{w ∈ N(u)∩N(v)} √(F(u,w)·F(v,w)) · σ(w,u) / deg(u)` —
//!   active common friends reinforce the pair.
//! * **Wedge stretch**
//!   `WSF(e) = Σ_{w ∈ N(u)\N(v)} F(w,u) · σ(w,u) / deg(u)` — exclusive
//!   friends pull `u` away.
//!
//! The trigger node's type decides the combination (Eqs. 2–4): a **core**
//! adds `AF + TF`; a **periphery** subtracts `WSF`; a **p-core** applies
//! `AF + TF − WSF`.
//!
//! Everything here operates on *scaled* values: `S_t` is PosM (Lemma 4), σ
//! is NeuM (Lemma 3), and the update is 1-homogeneous in `S`, so the update
//! of a stored `c·S_t` equals the true update times `c` — whatever the
//! scale `c`, and bit for bit when `c` is a power of two. The store keeps
//! `S` on a scale of its own, never the decay clock's (DESIGN.md §4).
//!
//! **The floor.** One rule keeps `S` positive: no write leaves an edge below
//! [`similarity_floor`], `floor_rel × mean(S)`. It is relative, so it moves
//! with the scale and never with the clock. [`clamp_to_floor`] applies it at
//! every write: per-activation reinforcement, the `S₀`/ANCF sweep, and the
//! engine's range step.

use std::ops::RangeInclusive;

use anc_graph::{EdgeId, NodeId};

use crate::similarity::{Scratch, SimilarityCtx};
use crate::NodeType;

/// Parameters consumed by the reinforcement step.
#[derive(Clone, Copy, Debug)]
pub struct ReinforceParams {
    /// Active-neighbor threshold ε.
    pub epsilon: f64,
    /// Core threshold µ.
    pub mu: usize,
    /// Lower clamp for the stored similarity after the update, on the
    /// store's scale: the engine passes [`similarity_floor`] of its mean.
    pub floor_anchored: f64,
}

/// The similarity floor for a store whose mean is `mean`:
/// `floor_rel × mean`. The one floor rule (see the module doc).
#[inline]
pub fn similarity_floor(floor_rel: f64, mean: f64) -> f64 {
    floor_rel * mean
}

/// The range rule: the engine keeps `mean(S)` of its store within
/// `[2^-256, 2^256]`, and when an update carries the mean out, it scales `S`
/// back to mean ≈ 1 by an exact power of two (DESIGN.md §7). The bounds
/// come from what `S` feeds: every `S ≤ m · mean`, so the triadic product
/// `f_uw · f_vw` stays below `(m · 2^256)²`, finite for `m < 2^255`; and
/// every `S` written since a step lies above `floor_rel · 2^-256`, so `1/S`
/// and the index's path sums over it stay finite too.
pub const MEAN_RANGE: RangeInclusive<f64> =
    f64::from_bits((1023 - 256) << 52)..=f64::from_bits((1023 + 256) << 52);

/// `s` lifted to `floor` if it lies below it (or is NaN): the one clamp
/// every write of `S` goes through.
#[inline]
pub fn clamp_to_floor(s: f64, floor: f64) -> f64 {
    s.max(floor)
}

/// The three process values for one trigger node, exposed for tests and the
/// ablation harness.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Processes {
    /// Direct consolidation.
    pub af: f64,
    /// Triadic consolidation.
    pub tf: f64,
    /// Wedge stretch.
    pub wsf: f64,
}

impl Processes {
    /// The signed contribution to `ΔF(e)` under the trigger node's type
    /// (Eqs. 2–4).
    pub fn delta(&self, node_type: NodeType) -> f64 {
        match node_type {
            NodeType::Core => self.af + self.tf,
            NodeType::Periphery => -self.wsf,
            NodeType::PCore => self.af + self.tf - self.wsf,
        }
    }
}

/// Computes the three processes for trigger node `u` of edge `e(u, v)`.
///
/// Requires `scratch.sigmas` to hold `sigma_all(u)` output (σ(u, w) aligned
/// with `g.edges_of(u)`), and marks `N(v)` itself.
fn processes_for(
    ctx: &SimilarityCtx<'_>,
    sim: &[f64],
    e: EdgeId,
    u: NodeId,
    v: NodeId,
    sigmas_u: &[f64],
    scratch: &mut Scratch,
) -> Processes {
    let g = ctx.g;
    let deg_u = g.degree(u) as f64;
    debug_assert!(deg_u >= 1.0, "trigger node must have the trigger edge");

    // Mark N(v), remembering F(v, x) for triadic lookups.
    let stamp_v = scratch.mark_neighbors(g, v, |e_vx| sim[e_vx as usize]);

    let mut p = Processes::default();
    for (slot, (w, e_uw)) in g.edges_of(u).enumerate() {
        let sigma_uw = sigmas_u[slot];
        if w == v {
            // Direct consolidation uses σ(u, v) = σ of the trigger edge.
            p.af = sim[e as usize] * sigma_uw / deg_u;
            continue;
        }
        if scratch.marked(w, stamp_v) {
            // w ∈ N(u) ∩ N(v): triadic consolidation.
            let f_uw = sim[e_uw as usize];
            let f_vw = scratch.value(w);
            p.tf += (f_uw * f_vw).sqrt() * sigma_uw / deg_u;
        } else {
            // w ∈ N(u) \ N(v): wedge stretch.
            p.wsf += sim[e_uw as usize] * sigma_uw / deg_u;
        }
    }
    p
}

/// Outcome of one local-reinforcement application.
#[derive(Clone, Copy, Debug)]
pub struct ReinforceOutcome {
    /// Stored similarity before.
    pub old_sim: f64,
    /// Stored similarity after (clamped to the floor).
    pub new_sim: f64,
    /// Classification of trigger node `u`.
    pub type_u: NodeType,
    /// Classification of trigger node `v`.
    pub type_v: NodeType,
    /// Processes evaluated at `u`.
    pub proc_u: Processes,
    /// Processes evaluated at `v`.
    pub proc_v: Processes,
}

/// Precomputed σ context for one trigger node: its `sigma_all` row and the
/// classification that row implies.
#[derive(Clone, Copy, Debug)]
pub struct CachedTrigger<'a> {
    /// `sigma_all` output for the node, aligned with `g.edges_of(node)`.
    pub sigmas: &'a [f64],
    /// The node's classification under those σ values.
    pub node_type: NodeType,
}

/// Applies one local reinforcement with trigger edge `e` to the anchored
/// similarity array `sim`, reading activeness through `ctx`.
///
/// Both trigger-node deltas are evaluated against the pre-update state and
/// applied together, making the update symmetric in `u`/`v` and independent
/// of endpoint order. Cost: `O(Σ_{w ∈ N(u)} deg w + Σ_{w ∈ N(v)} deg w)`.
pub fn apply_reinforcement(
    ctx: &SimilarityCtx<'_>,
    sim: &mut [f64],
    e: EdgeId,
    params: &ReinforceParams,
    scratch: &mut Scratch,
) -> ReinforceOutcome {
    let (u, v) = ctx.g.endpoints(e);

    // σ(u, ·) over all of u's neighbors; also yields u's classification.
    ctx.sigma_all(u, scratch);
    let sigmas_u = std::mem::take(&mut scratch.sigmas);
    let type_u = ctx.node_type_from_sigmas(u, params.epsilon, params.mu, &sigmas_u);

    // The second row goes through the pooled `sigmas_b` buffer so both rows
    // can be live at once without allocating per activation.
    scratch.sigmas = std::mem::take(&mut scratch.sigmas_b);
    ctx.sigma_all(v, scratch);
    let sigmas_v = std::mem::take(&mut scratch.sigmas);
    let type_v = ctx.node_type_from_sigmas(v, params.epsilon, params.mu, &sigmas_v);

    let out = apply_reinforcement_cached(
        ctx,
        sim,
        e,
        params.floor_anchored,
        CachedTrigger { sigmas: &sigmas_u, node_type: type_u },
        CachedTrigger { sigmas: &sigmas_v, node_type: type_v },
        scratch,
    );

    // Return both sigma buffers for reuse.
    scratch.sigmas = sigmas_u;
    scratch.sigmas_b = sigmas_v;
    out
}

/// The body of [`apply_reinforcement`], consuming σ rows and node types the
/// caller has already computed (σ is NeuM and depends only on activeness,
/// never on `sim`) — which lets a caller time or observe the σ and
/// reinforcement stages separately.
pub fn apply_reinforcement_cached(
    ctx: &SimilarityCtx<'_>,
    sim: &mut [f64],
    e: EdgeId,
    floor_anchored: f64,
    trig_u: CachedTrigger<'_>,
    trig_v: CachedTrigger<'_>,
    scratch: &mut Scratch,
) -> ReinforceOutcome {
    let (u, v) = ctx.g.endpoints(e);
    let proc_u = processes_for(ctx, sim, e, u, v, trig_u.sigmas, scratch);
    let proc_v = processes_for(ctx, sim, e, v, u, trig_v.sigmas, scratch);

    let old_sim = sim[e as usize];
    let delta = proc_u.delta(trig_u.node_type) + proc_v.delta(trig_v.node_type);
    let new_sim = clamp_to_floor(old_sim + delta, floor_anchored);
    sim[e as usize] = new_sim;

    ReinforceOutcome {
        old_sim,
        new_sim,
        type_u: trig_u.node_type,
        type_v: trig_v.node_type,
        proc_u,
        proc_v,
    }
}

/// Every node's `sigma_all` row and classification for one activeness
/// state. σ is NeuM and reads activeness only, never `sim`, so a table built
/// once serves every full pass over that state: `n` rows instead of two per
/// trigger edge per pass.
#[derive(Debug)]
pub(crate) struct SigmaRows {
    /// Node `u`'s row is `sigmas[start[u]..start[u + 1]]`.
    start: Vec<usize>,
    /// σ per adjacency slot, each row aligned with `g.edges_of(u)`.
    sigmas: Vec<f64>,
    /// Classification per node under `(ε, µ)`.
    types: Vec<NodeType>,
}

impl SigmaRows {
    /// Computes the row and classification of every node of `ctx.g`.
    pub(crate) fn build(
        ctx: &SimilarityCtx<'_>,
        epsilon: f64,
        mu: usize,
        scratch: &mut Scratch,
    ) -> Self {
        let g = ctx.g;
        let mut start = Vec::with_capacity(g.n() + 1);
        let mut sigmas = Vec::with_capacity(2 * g.m());
        let mut types = Vec::with_capacity(g.n());
        start.push(0);
        for u in 0..g.n() as NodeId {
            ctx.sigma_all(u, scratch);
            types.push(ctx.node_type_from_sigmas(u, epsilon, mu, &scratch.sigmas));
            sigmas.extend_from_slice(&scratch.sigmas);
            start.push(sigmas.len());
        }
        Self { start, sigmas, types }
    }

    /// Node `u`'s row and classification.
    fn trigger(&self, u: NodeId) -> CachedTrigger<'_> {
        let u = u as usize;
        CachedTrigger {
            sigmas: &self.sigmas[self.start[u]..self.start[u + 1]],
            node_type: self.types[u],
        }
    }
}

/// Runs one full-graph reinforcement pass: every edge is treated as a
/// trigger once, in edge-id order (the paper's `S_0` initialization appends
/// "activations over all edges in E (in arbitrary order)" per repetition).
/// Builds every node's σ row, runs one sweep with them and renormalizes
/// `sim` to mean 1; the engine's S₀ builds the rows once for all of its
/// `rep` passes instead.
pub fn full_pass(
    ctx: &SimilarityCtx<'_>,
    sim: &mut [f64],
    params: &ReinforceParams,
    scratch: &mut Scratch,
) {
    let rows = SigmaRows::build(ctx, params.epsilon, params.mu, scratch);
    sweep(ctx, sim, &rows, params.floor_anchored, scratch);
}

/// One full pass over a prebuilt σ table: each edge in edge-id order goes
/// through [`apply_reinforcement_cached`], reading `sim` as the earlier edges
/// left it — the same updates, bit for bit, as [`apply_reinforcement`] per
/// edge.
///
/// After the pass the similarity vector is renormalized to mean 1. The
/// reinforcement update is 1-homogeneous in `F` (AF, TF and WSF are all
/// linear in the similarity vector), so repeated passes grow `F`
/// exponentially; since every consumer of `S_t` (the distance metric, the
/// Voronoi partitions, the voting) is invariant under uniform scaling, the
/// renormalization is unobservable except that the floor the caller passed
/// for mean 1 stays the relative floor after many repetitions.
pub(crate) fn sweep(
    ctx: &SimilarityCtx<'_>,
    sim: &mut [f64],
    rows: &SigmaRows,
    floor_anchored: f64,
    scratch: &mut Scratch,
) {
    for e in 0..ctx.g.m() as EdgeId {
        let (u, v) = ctx.g.endpoints(e);
        apply_reinforcement_cached(
            ctx,
            sim,
            e,
            floor_anchored,
            rows.trigger(u),
            rows.trigger(v),
            scratch,
        );
    }
    let mean = sim.iter().sum::<f64>() / sim.len().max(1) as f64;
    if mean.is_finite() && mean > 0.0 {
        for s in sim.iter_mut() {
            *s = clamp_to_floor(*s / mean, floor_anchored);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_graph::Graph;

    fn ctx_fixture() -> (Graph, Vec<f64>, Vec<f64>) {
        // Two triangles sharing edge (1,2), plus a pendant 4 on node 1:
        // 0-1, 0-2, 1-2, 1-3, 2-3, 1-4.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4)]);
        let act = vec![1.0; g.m()];
        let mut node_sum = vec![0.0; g.n()];
        for (e, u, v) in g.iter_edges() {
            node_sum[u as usize] += act[e as usize];
            node_sum[v as usize] += act[e as usize];
        }
        (g, act, node_sum)
    }

    const PARAMS: ReinforceParams = ReinforceParams { epsilon: 0.2, mu: 2, floor_anchored: 1e-9 };

    #[test]
    fn hand_computed_processes() {
        let (g, act, node_sum) = ctx_fixture();
        let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
        let sim = vec![1.0; g.m()];
        let mut scratch = Scratch::new(g.n());
        let e = g.edge_id(1, 2).unwrap();

        // For trigger node 1 (deg 4): σ(1,2) = num/den with common {0,3},
        // num = (a(1,0)+a(2,0)) + (a(1,3)+a(2,3)) = 4, den = A(1)+A(2) = 4+3 = 7.
        // AF = F(e)·σ(1,2)/4 = (4/7)/4 = 1/7.
        // Common neighbors of 1 and 2: {0, 3}:
        //   σ(1,0): common {2}; num = a(1,2)+a(0,2) = 2; den = 4+2 = 6 → 1/3.
        //   σ(1,3): common {2}; num = 2; den = 4+2 = 6 → 1/3.
        //   TF = √(1·1)·(1/3)/4 + √(1·1)·(1/3)/4 = 1/6.
        // Exclusive neighbor of 1 wrt 2: {4}: σ(1,4) = 0 (no common) →
        //   WSF = 1·0/4 = 0.
        ctx.sigma_all(1, &mut scratch);
        let sigmas_u = scratch.sigmas.clone();
        let p = processes_for(&ctx, &sim, e, 1, 2, &sigmas_u, &mut scratch);
        assert!((p.af - 1.0 / 7.0).abs() < 1e-12, "af = {}", p.af);
        assert!((p.tf - 1.0 / 6.0).abs() < 1e-12, "tf = {}", p.tf);
        assert!(p.wsf.abs() < 1e-12, "wsf = {}", p.wsf);
    }

    #[test]
    fn delta_by_node_type() {
        let p = Processes { af: 0.3, tf: 0.2, wsf: 0.1 };
        assert!((p.delta(NodeType::Core) - 0.5).abs() < 1e-12);
        assert!((p.delta(NodeType::Periphery) + 0.1).abs() < 1e-12);
        assert!((p.delta(NodeType::PCore) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn reinforcement_strengthens_triangle_edge() {
        let (g, act, node_sum) = ctx_fixture();
        let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
        let mut sim = vec![1.0; g.m()];
        let mut scratch = Scratch::new(g.n());
        let e = g.edge_id(1, 2).unwrap();
        let out = apply_reinforcement(&ctx, &mut sim, e, &PARAMS, &mut scratch);
        assert!(out.new_sim > out.old_sim, "shared triangle edge must strengthen");
        assert_eq!(sim[e as usize], out.new_sim);
        // Only the trigger edge changes.
        for (i, &value) in sim.iter().enumerate() {
            if i != e as usize {
                assert_eq!(value, 1.0);
            }
        }
    }

    #[test]
    fn pendant_edge_weakens() {
        let (g, act, node_sum) = ctx_fixture();
        let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
        let mut sim = vec![1.0; g.m()];
        let mut scratch = Scratch::new(g.n());
        // Edge (1,4): σ(1,4) = 0 → AF = TF = 0 for both. With µ = 5 both
        // endpoints are peripheries (deg 4 and 1 < 5); node 1 has exclusive
        // neighbors with positive σ → wedge stretch reduces F (Eq. 3).
        let params = ReinforceParams { mu: 5, ..PARAMS };
        let e = g.edge_id(1, 4).unwrap();
        let out = apply_reinforcement(&ctx, &mut sim, e, &params, &mut scratch);
        assert_eq!(out.type_u, NodeType::Periphery);
        assert_eq!(out.type_v, NodeType::Periphery);
        assert!(out.proc_u.wsf > 0.0);
        assert!(out.new_sim < out.old_sim, "pendant edge must weaken");
    }

    #[test]
    fn floor_clamps() {
        let (g, act, node_sum) = ctx_fixture();
        let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
        // Tiny starting similarity on the pendant edge with a big floor margin:
        // repeated weakening must never cross the floor.
        let params = ReinforceParams { mu: 5, ..PARAMS }; // both ends periphery
        let mut sim = vec![1.0; g.m()];
        let e = g.edge_id(1, 4).unwrap();
        sim[e as usize] = 2e-9;
        let mut scratch = Scratch::new(g.n());
        for _ in 0..50 {
            apply_reinforcement(&ctx, &mut sim, e, &params, &mut scratch);
        }
        assert!(sim[e as usize] >= params.floor_anchored);
        assert_eq!(sim[e as usize], params.floor_anchored, "weakening must clamp at floor");
    }

    #[test]
    fn symmetric_in_endpoint_order() {
        // The outcome must not depend on which endpoint is canonical-first:
        // process deltas are computed from pre-state for both nodes.
        let (g, act, node_sum) = ctx_fixture();
        let ctx = SimilarityCtx { g: &g, act: &act, node_sum: &node_sum };
        let mut scratch = Scratch::new(g.n());
        let e = g.edge_id(1, 2).unwrap();
        let sim0 = vec![1.0; g.m()];

        let mut s1 = sim0.clone();
        let out = apply_reinforcement(&ctx, &mut s1, e, &PARAMS, &mut scratch);
        // Recompute by hand swapping roles: delta = proc_u.delta + proc_v.delta
        // must equal out regardless of who is "u".
        let du = out.proc_u.delta(out.type_u);
        let dv = out.proc_v.delta(out.type_v);
        assert!((out.new_sim - (out.old_sim + du + dv)).abs() < 1e-12);
    }

    #[test]
    fn full_pass_polarizes_bridge_vs_intra() {
        // Two 4-cliques joined by one bridge; after a few passes the bridge
        // similarity must be well below intra-clique similarities.
        let lg = anc_graph::gen::connected_caveman(2, 4);
        let g = &lg.graph;
        let act = vec![1.0; g.m()];
        let mut node_sum = vec![0.0; g.n()];
        for (e, u, v) in g.iter_edges() {
            node_sum[u as usize] += act[e as usize];
            node_sum[v as usize] += act[e as usize];
        }
        let ctx = SimilarityCtx { g, act: &act, node_sum: &node_sum };
        let mut sim = vec![1.0; g.m()];
        let mut scratch = Scratch::new(g.n());
        for _ in 0..3 {
            full_pass(&ctx, &mut sim, &PARAMS, &mut scratch);
        }
        let bridge = g.edge_id(3, 4).unwrap();
        let intra = g.edge_id(0, 1).unwrap();
        assert!(
            sim[intra as usize] > 3.0 * sim[bridge as usize],
            "intra {} vs bridge {}",
            sim[intra as usize],
            sim[bridge as usize]
        );
    }
}
