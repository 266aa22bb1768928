//! **Exp 5 companion** — the incremental cluster-query cache on the
//! planted-partition workload.
//!
//! Measures, on one engine streaming activations:
//!
//! * `cold` — a from-scratch `cluster_all` (the seed's only query path);
//! * `cold_fill` — the cache's first query per level, i.e. the *parallel*
//!   voting pass, swept over `RAYON_NUM_THREADS` ∈ {1, 2, 4, 8};
//! * `cached_hit` — a repeat query with no intervening update;
//! * `post_single` — a query right after one activation (the named nodes
//!   are compared with the seed rows; moved seeds re-vote their edges);
//! * `post_batch` — a query right after a 16-edge batch (grouped traced
//!   repair feeding the same pending lists).
//!
//! Reports the `post_single` speedup over `cold` (the PR's acceptance
//! figure) and writes everything to `results/BENCH_query.json`.
//!
//! Usage: `cargo run --release -p anc-bench --bin exp5_query_cached
//! [--scale f] [--seed u64]`

use anc_bench::args::HarnessArgs;
use anc_bench::report::{secs, write_json, Table};
use anc_bench::time;
use anc_core::{cluster, AncConfig, AncEngine, ClusterCache, ClusterMode};
use anc_graph::gen::{planted_partition, PlantedConfig};

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let args = HarnessArgs::parse(1.0);
    let n = ((4000.0 * args.scale) as usize).max(64);
    let lg = planted_partition(&PlantedConfig::default_for(n), args.seed);
    let cfg = AncConfig { k: 4, rep: 1, ..Default::default() };
    let mut engine = AncEngine::new(lg.graph, cfg, args.seed);
    let m = engine.graph().m() as u32;
    // Stream a warm-up of activations biased toward intra-community edges
    // so the voting pass has structural signal, as in Exp 5.
    let intra: Vec<u32> = engine
        .graph()
        .iter_edges()
        .filter(|&(_, u, v)| lg.labels[u as usize] == lg.labels[v as usize])
        .map(|(e, _, _)| e)
        .collect();
    let mut t = 0.0;
    for i in 0..1_000u32 {
        t += 0.02;
        let e =
            if i % 5 == 0 { (i * 13 + 7) % m } else { intra[(i as usize * 17 + 3) % intra.len()] };
        engine.activate(e, t);
    }
    let level = engine.default_level();
    eprintln!("[exp5c] n={n} m={m} level={level} levels={}", engine.num_levels());

    // --- Cold baseline: the seed's only way to answer a cluster query. ---
    let mut cold_samples = Vec::new();
    for _ in 0..9 {
        let (c, s) = time(|| {
            cluster::cluster_all(engine.graph(), engine.pyramids(), level, ClusterMode::Power)
        });
        std::hint::black_box(c.num_clusters());
        cold_samples.push(s);
    }
    let cold = median(&mut cold_samples);

    // --- Parallel cold-fill sweep over the shim's thread count. ---
    let mut fill_by_threads = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let mut samples = Vec::new();
        for _ in 0..5 {
            let mut cache = ClusterCache::new(engine.num_levels());
            let ((c, stats), s) =
                time(|| cache.query(engine.graph(), engine.pyramids(), level, ClusterMode::Power));
            std::hint::black_box((c.num_clusters(), stats.decision));
            samples.push(s);
        }
        fill_by_threads.push((threads, median(&mut samples)));
    }
    std::env::remove_var("RAYON_NUM_THREADS");

    // --- Cached paths on the live engine. ---
    engine.cluster_all_cached(level, ClusterMode::Power);
    let mut hit_samples = Vec::new();
    for _ in 0..9 {
        let (r, s) = time(|| engine.cluster_all_cached(level, ClusterMode::Power));
        std::hint::black_box(r.1.generation);
        hit_samples.push(s);
    }
    let cached_hit = median(&mut hit_samples);

    let mut single_samples = Vec::new();
    for i in 0..50u32 {
        t += 0.02;
        engine.activate((i * 7 + 1) % m, t);
        let (r, s) = time(|| engine.cluster_all_cached(level, ClusterMode::Power));
        std::hint::black_box(r.1.dirty_edges);
        single_samples.push(s);
    }
    let post_single = median(&mut single_samples);

    let mut batch_samples = Vec::new();
    for i in 0..25u32 {
        t += 0.02;
        let batch: Vec<u32> = (0..16u32).map(|j| (i * 31 + j * 7) % m).collect();
        let _ = engine.activate_batch(&batch, t);
        let (r, s) = time(|| engine.cluster_all_cached(level, ClusterMode::Power));
        std::hint::black_box(r.1.dirty_edges);
        batch_samples.push(s);
    }
    let post_batch = median(&mut batch_samples);

    let speedup_single = cold / post_single.max(1e-12);
    let speedup_batch = cold / post_batch.max(1e-12);
    let qs = engine.cluster_all_cached(level, ClusterMode::Power).1;

    let mut table = Table::new(vec!["path", "median s", "speedup vs cold"]);
    table.row(vec!["cold cluster_all".to_string(), secs(cold), "1.0x".to_string()]);
    for (threads, s) in &fill_by_threads {
        table.row(vec![
            format!("cold fill ({threads} thr)"),
            secs(*s),
            format!("{:.1}x", cold / s.max(1e-12)),
        ]);
    }
    table.row(vec![
        "cached hit".to_string(),
        secs(cached_hit),
        format!("{:.1}x", cold / cached_hit.max(1e-12)),
    ]);
    table.row(vec![
        "post single update".to_string(),
        secs(post_single),
        format!("{speedup_single:.1}x"),
    ]);
    table.row(vec![
        "post 16-edge batch".to_string(),
        secs(post_batch),
        format!("{speedup_batch:.1}x"),
    ]);
    println!("\n=== Exp 5 companion: incremental cluster-query cache ===");
    table.print();

    let json = serde_json::json!({
        "n": n, "m": m, "level": level,
        "cold_secs": cold,
        "cold_fill_secs_by_threads": fill_by_threads
            .iter()
            .map(|(t, s)| serde_json::json!({"threads": t, "secs": s}))
            .collect::<Vec<_>>(),
        "cached_hit_secs": cached_hit,
        "post_single_update_secs": post_single,
        "post_batch_secs": post_batch,
        "speedup_single_vs_cold": speedup_single,
        "speedup_batch_vs_cold": speedup_batch,
        "final_generation": qs.generation,
        "hits": qs.hits,
        "misses": qs.misses,
    });
    let path = write_json("BENCH_query", &json).unwrap();
    println!("\n[exp5c] post-single speedup {speedup_single:.1}x (acceptance floor 5x)");
    println!("[exp5c] JSON written to {}", path.display());
}
