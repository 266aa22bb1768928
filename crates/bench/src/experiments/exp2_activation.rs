//! **Exp 2 / Table IV + Figure 4** — time and quality on activation
//! networks.
//!
//! Reproduces the paper's activation-network protocol: 100 timestamps, each
//! activating a uniform 5% of the edges (λ = 0.1). Eight methods run over
//! the stream:
//!
//! * offline, recomputed per evaluated snapshot: SCAN, ATTR, LOUV, ANCF;
//! * online, incrementally updated: DYNA, LWEP, ANCOR, ANCO.
//!
//! Outputs (a) the Table IV amortized per-activation time costs and (b) the
//! Figure 4 quality-over-time series (NMI / Purity / F1 against spectral
//! ground truth with `2√n` clusters, evaluated every 10 timestamps).
//!
//! Expected shape (paper): ANCO fastest, ANCOR second, both orders of
//! magnitude below DYNA/LWEP; quality of online methods decays over time
//! with ANCOR above ANCO; ANCF stays the best offline method.
//!
//! Usage: `cargo run --release -p anc-bench -- exp2_activation
//! [--datasets CO,FB,CA,LA] [--scale f] [--seed s]`
//! (MI is included via `--datasets CO,FB,CA,MI,LA`; it is the densest and
//! slowest stand-in.)

use crate::args::Ctx;
use crate::methods::{anc_cluster_near, score, Offline, Scores};
use crate::report::{f3, secs, Table};
use crate::time;
use anc_baselines::{dyna::DynaEngine, lwep::LwepEngine, spectral};
use anc_core::{AncConfig, AncEngine, ClusterMode};
use anc_data::stream;

const STEPS: usize = 100;
const FRAC: f64 = 0.05;
const LAMBDA: f64 = 0.1;
const EVAL_EVERY: usize = 10;
const ANCOR_INTERVAL: usize = 5;

/// Runs the experiment; the value holds `exp2_quality` (the Figure 4 series)
/// and `exp2_time` (Table IV).
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let names = ctx.names(&["CO", "FB", "CA", "LA"]);

    let mut time_table = Table::new({
        let mut h = vec!["class".to_string(), "method".to_string()];
        h.extend(names.iter().cloned());
        h
    });
    // method → dataset → amortized seconds per activation.
    let mut amortized: std::collections::HashMap<&'static str, Vec<f64>> = Default::default();
    let mut quality_json = Vec::new();

    for name in &names {
        let ds = ctx.load(name);
        let g = ds.graph.clone();
        let s = stream::uniform_per_step(&g, STEPS, FRAC, ctx.seed ^ 0x5eed);
        let total_acts = s.total_activations();
        let target_k = (2.0 * (g.n() as f64).sqrt()).round() as usize;
        eprintln!(
            "[exp2] {name}: n = {}, m = {}, {total_acts} activations over {STEPS} steps, target k = {target_k}",
            g.n(), g.m()
        );

        let cfg = AncConfig { lambda: LAMBDA, ..Default::default() };

        // --- engines -------------------------------------------------------
        let mut anco = AncEngine::new(g.clone(), cfg.clone(), ctx.seed);
        let mut ancor = AncEngine::new(g.clone(), cfg.clone(), ctx.seed);
        let init_w = vec![1.0f64; g.m()];
        let mut dyna = DynaEngine::new(g.clone(), init_w.clone(), LAMBDA);
        let mut lwep = LwepEngine::new(g.clone(), init_w.clone(), LAMBDA);

        // Plain decayed weights for the offline baselines and ground truth.
        let mut weights = init_w;

        let mut t_anco = 0.0f64;
        let mut t_ancor = 0.0f64;
        let mut t_dyna = 0.0f64;
        let mut t_lwep = 0.0f64;
        let mut t_offline: std::collections::HashMap<&'static str, f64> = Default::default();
        let mut ancor_window: Vec<u32> = Vec::new();
        let mut evals = 0usize;
        let mut baseline_sampled_acts = 0usize;

        // t = 0 evaluation, then the stream.
        for (step_idx, batch) in std::iter::once(None).chain(s.batches.iter().map(Some)).enumerate()
        {
            if let Some(batch) = batch {
                // Decay + activate the shared weight view.
                let f = (-LAMBDA).exp(); // Δt = 1 between steps
                for w in weights.iter_mut() {
                    *w *= f;
                }
                for &e in &batch.edges {
                    weights[e as usize] += 1.0;
                }

                let (_, dt) = time(|| anco.activate_batch(&batch.edges, batch.time));
                t_anco += dt;
                let (_, dt) = time(|| {
                    let _ = ancor.activate_batch(&batch.edges, batch.time);
                    ancor_window.extend_from_slice(&batch.edges);
                    if step_idx % ANCOR_INTERVAL == 0 {
                        ancor_window.sort_unstable();
                        ancor_window.dedup();
                        let w = std::mem::take(&mut ancor_window);
                        ancor.reinforce_edges(&w);
                    }
                });
                t_ancor += dt;
                // Online baselines handle each arriving activation
                // individually (the paper's online protocol). Per-activation
                // handling is *timed* on a sample of the steps and the rest
                // are batch-stepped, mirroring the paper's sampling of
                // timestamps when a baseline cannot finish the stream.
                if step_idx % EVAL_EVERY == 1 {
                    let (_, dt) = time(|| {
                        for &e in &batch.edges {
                            dyna.step(batch.time, &[e]);
                        }
                    });
                    t_dyna += dt;
                    let (_, dt) = time(|| {
                        for &e in &batch.edges {
                            lwep.step(batch.time, &[e]);
                        }
                    });
                    t_lwep += dt;
                    baseline_sampled_acts += batch.edges.len();
                } else {
                    dyna.step(batch.time, &batch.edges);
                    lwep.step(batch.time, &batch.edges);
                }
            }

            // --- quality snapshot every EVAL_EVERY steps --------------------
            if step_idx % EVAL_EVERY != 0 {
                continue;
            }
            evals += 1;
            let truth = spectral::cluster(
                &g,
                &weights,
                &spectral::SpectralParams { k: target_k, power_iters: 15, kmeans_iters: 15 },
                ctx.seed ^ 0x67,
            );
            let truth_labels = truth.labels().to_vec();

            let mut snapshot_scores: Vec<(String, Scores)> = Vec::new();
            // Online methods read their current state.
            let c = anc_cluster_near(&g, anco.pyramids(), target_k, ClusterMode::Power);
            snapshot_scores.push(("ANCO".into(), score(&g, &weights, &c, &truth_labels)));
            let c = anc_cluster_near(&g, ancor.pyramids(), target_k, ClusterMode::Power);
            snapshot_scores.push(("ANCOR".into(), score(&g, &weights, &c, &truth_labels)));
            snapshot_scores
                .push(("DYNA".into(), score(&g, &weights, &dyna.clustering(), &truth_labels)));
            snapshot_scores
                .push(("LWEP".into(), score(&g, &weights, &lwep.clustering(), &truth_labels)));
            // Offline methods recompute from the snapshot (timed).
            for method in [Offline::Scan, Offline::Attr, Offline::Louv, Offline::AncF(cfg.rep)] {
                let label: &'static str = match method {
                    Offline::Scan => "SCAN",
                    Offline::Attr => "ATTR",
                    Offline::Louv => "LOUV",
                    Offline::AncF(_) => "ANCF",
                };
                let (c, dt) = time(|| method.run(&g, &weights, Some(&mut anco), target_k));
                *t_offline.entry(label).or_insert(0.0) += dt;
                snapshot_scores.push((label.into(), score(&g, &weights, &c, &truth_labels)));
            }
            for (method, sc) in &snapshot_scores {
                eprintln!(
                    "[exp2] {name} t={step_idx:3} {method:6} NMI {:.3} purity {:.3} F1 {:.3} ({} clusters)",
                    sc.nmi, sc.purity, sc.f1, sc.clusters
                );
                quality_json.push(serde_json::json!({
                    "dataset": name, "t": step_idx, "method": method,
                    "nmi": sc.nmi, "purity": sc.purity, "f1": sc.f1,
                    "clusters": sc.clusters,
                }));
            }
        }

        // --- Table IV rows ---------------------------------------------------
        let per_act = |total: f64| total / total_acts as f64;
        let per_sampled = |total: f64| total / baseline_sampled_acts.max(1) as f64;
        amortized.entry("ANCO").or_default().push(per_act(t_anco));
        amortized.entry("ANCOR").or_default().push(per_act(t_ancor));
        amortized.entry("DYNA").or_default().push(per_sampled(t_dyna));
        amortized.entry("LWEP").or_default().push(per_sampled(t_lwep));
        // Offline: total snapshot recomputation divided by the activations
        // those snapshots absorb (the paper's amortized convention).
        let acts_per_eval = total_acts as f64 / evals.max(1) as f64;
        for key in ["SCAN", "ATTR", "LOUV", "ANCF"] {
            let avg_snapshot = t_offline.get(key).copied().unwrap_or(0.0) / evals.max(1) as f64;
            amortized
                .entry(Box::leak(key.to_string().into_boxed_str()))
                .or_default()
                .push(avg_snapshot / acts_per_eval);
        }
    }

    for (class, methods) in [
        ("offline", vec!["SCAN", "ATTR", "LOUV", "ANCF"]),
        ("online", vec!["DYNA", "LWEP", "ANCOR", "ANCO"]),
    ] {
        for m in methods {
            let mut row = vec![class.to_string(), m.to_string()];
            if let Some(vals) = amortized.get(m) {
                row.extend(vals.iter().map(|v| secs(*v)));
            } else {
                row.extend(names.iter().map(|_| "-".to_string()));
            }
            time_table.row(row);
        }
    }
    time_table.print("Table IV: Time Costs on Activation Networks (sec/activation)");

    // Figure 4 summary: average score over time per method/dataset.
    let mut fin = Table::new(vec!["dataset", "method", "NMI", "Purity", "F1"]);
    for name in &names {
        for method in ["ANCF", "ANCOR", "ANCO", "DYNA", "LWEP", "SCAN", "ATTR", "LOUV"] {
            let last =
                quality_json.iter().rfind(|j| j["dataset"] == *name && j["method"] == method);
            if let Some(j) = last {
                fin.row(vec![
                    name.clone(),
                    method.to_string(),
                    f3(j["nmi"].as_f64().unwrap()),
                    f3(j["purity"].as_f64().unwrap()),
                    f3(j["f1"].as_f64().unwrap()),
                ]);
            }
        }
    }
    fin.print("Figure 4 (series in results/exp2_quality.json; final-t summary below)");

    let amort_json: serde_json::Value = serde_json::json!(amortized
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect::<std::collections::HashMap<String, Vec<f64>>>());
    serde_json::json!({
        "exp2_quality": quality_json,
        "exp2_time": serde_json::json!({"datasets": names, "per_activation": amort_json}),
    })
}
