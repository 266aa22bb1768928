//! **Scale** — million-node scale sweep: build, ingest, invariants,
//! snapshot size, query (DESIGN.md §11).
//!
//! Pushes n up to 10⁶ on the two synthetic families (planted-partition and
//! Barabási–Albert) and records, per (generator, n):
//!
//! * index build time and resident index bytes/node;
//! * binary snapshot bytes/node plus save/load wall times, with the size
//!   over the resident `memory_bytes()` asserted on every row
//!   (`EXACT_OVER_MEMORY_MAX`);
//! * ingest throughput through `activate_batch`, and `check_invariants()`
//!   on the streamed engine;
//! * cold (`cluster_all` from scratch) and cached ([`ClusterCache`] hit)
//!   query latency.
//!
//! Everything lands in `results/BENCH_scale.json`.
//!
//! Usage: `cargo run --release -p anc-bench -- scale [--scale f] [--seed u64]`
//!
//! The sweep is n ∈ {10⁴, 10⁵, 10⁶} × `--scale`; `smoke` runs `sweep` at
//! n = 2000 for CI.

use crate::args::Ctx;
use crate::report::{secs, Table};
use crate::{percentile, time};
use anc_core::{cluster, AncConfig, AncEngine, ClusterCache, ClusterMode, SnapshotProfile};
use anc_data::stream;
use anc_graph::gen::{barabasi_albert, planted_partition, PlantedConfig};
use anc_graph::Graph;

/// Ceiling on Exact snapshot bytes over resident `memory_bytes()`. The file
/// adds the topology but drops the index and the derived `1/S*` array:
/// measured 0.20 (n = 10³), 0.19 (the smoke row), 0.17 (10⁴) and 0.15
/// (10⁵) on the planted family, 0.01–0.02 lower on BA.
const EXACT_OVER_MEMORY_MAX: f64 = 0.9;

fn make_graph(family: &str, n: usize, seed: u64) -> Graph {
    match family {
        "planted" => planted_partition(&PlantedConfig::default_for(n), seed).graph,
        "ba" => barabasi_albert(n, 4, seed),
        other => panic!("unknown graph family {other}"),
    }
}

struct SnapshotStats {
    bytes: usize,
    save_s: f64,
    load_s: f64,
}

fn binary_stats(engine: &AncEngine) -> SnapshotStats {
    let mut buf = Vec::new();
    let (r, save_s) = time(|| engine.save_binary(&mut buf, SnapshotProfile::Exact));
    r.unwrap();
    let (restored, load_s) = time(|| AncEngine::load_binary(buf.as_slice()).unwrap());
    std::hint::black_box(restored.activations());
    SnapshotStats { bytes: buf.len(), save_s, load_s }
}

/// Runs the sweep.
pub fn run(ctx: &Ctx) -> serde_json::Value {
    let sizes: Vec<usize> = [10_000usize, 100_000, 1_000_000]
        .iter()
        .map(|&n| ((n as f64 * ctx.scale) as usize).max(500))
        .collect();
    sweep(&sizes, 50_000, ctx.seed)
}

/// One row per (size, family), streaming about `target_acts` activations
/// into each; panics on a row over the snapshot-size ceiling or with a
/// broken invariant.
pub(crate) fn sweep(sizes: &[usize], target_acts: usize, seed: u64) -> serde_json::Value {
    let cfg = AncConfig { k: 2, rep: 1, ..Default::default() };

    let mut table = Table::new(vec![
        "family",
        "n",
        "build s",
        "index B/node",
        "exact B/node",
        "exact/index",
        "acts/s",
        "cold q s",
        "cached q s",
    ]);
    let mut rows = Vec::new();

    for &n in sizes {
        for family in ["planted", "ba"] {
            let g = make_graph(family, n, seed);
            let m = g.m();
            eprintln!("[scale] {family} n={n} m={m}: building index…");
            let (mut engine, build_s) = time(|| AncEngine::new(g, cfg.clone(), seed));
            let index_bytes = engine.memory_bytes();
            eprintln!(
                "[scale] {family} n={n}: built in {build_s:.2}s, {:.1} B/node",
                index_bytes as f64 / n as f64
            );

            // --- Ingest: batched activations through the pipeline. -------
            let steps = 10usize;
            let target = target_acts.min(10 * m);
            let frac = (target as f64 / steps as f64 / m as f64).min(1.0);
            let s = stream::uniform_per_step(engine.graph(), steps, frac, seed ^ 0x11);
            let acts: usize = s.total_activations();
            let (_, ingest_s) = time(|| {
                for batch in &s.batches {
                    let _ = engine.activate_batch(&batch.edges, batch.time);
                }
            });
            let acts_per_s = acts as f64 / ingest_s;
            eprintln!("[scale] {family} n={n}: {acts} acts in {ingest_s:.2}s ({acts_per_s:.0}/s)");
            engine.check_invariants().expect("all invariants hold after the stream");

            // --- Snapshot encoding. --------------------------------------
            let exact = binary_stats(&engine);
            let exact_over_memory = exact.bytes as f64 / index_bytes as f64;
            eprintln!(
                "[scale] {family} n={n}: exact {} B ({exact_over_memory:.2}x resident)",
                exact.bytes
            );
            assert!(
                exact_over_memory <= EXACT_OVER_MEMORY_MAX,
                "{family} n={n}: Exact snapshot is {exact_over_memory:.2}x the resident state, \
                 ceiling {EXACT_OVER_MEMORY_MAX}"
            );

            // --- Query latency: cold vs cached. --------------------------
            let level = engine.default_level();
            let mut cold_samples = Vec::new();
            for _ in 0..3 {
                let (c, s) = time(|| {
                    cluster::cluster_all(
                        engine.graph(),
                        engine.pyramids(),
                        level,
                        ClusterMode::Power,
                    )
                });
                std::hint::black_box(c.num_clusters());
                cold_samples.push(s);
            }
            let cold_q = percentile(&cold_samples, 50.0);
            let mut cache = ClusterCache::new(engine.num_levels());
            // First query fills the cache; the samples after it are hits.
            let (first, _) =
                cache.query(engine.graph(), engine.pyramids(), level, ClusterMode::Power);
            std::hint::black_box(first.num_clusters());
            let mut hit_samples = Vec::new();
            for _ in 0..5 {
                let ((c, stats), s) = time(|| {
                    cache.query(engine.graph(), engine.pyramids(), level, ClusterMode::Power)
                });
                std::hint::black_box((c.num_clusters(), stats.decision));
                hit_samples.push(s);
            }
            let cached_q = percentile(&hit_samples, 50.0);

            let bpn = |b: usize| b as f64 / n as f64;
            table.row(vec![
                family.to_string(),
                n.to_string(),
                secs(build_s),
                format!("{:.1}", bpn(index_bytes)),
                format!("{:.1}", bpn(exact.bytes)),
                format!("{exact_over_memory:.2}"),
                format!("{acts_per_s:.0}"),
                secs(cold_q),
                secs(cached_q),
            ]);
            rows.push(serde_json::json!({
                "family": family,
                "n": n,
                "m": m,
                "build_seconds": build_s,
                "index_bytes": index_bytes,
                "index_bytes_per_node": bpn(index_bytes),
                "binary_exact_bytes": exact.bytes,
                "binary_exact_save_seconds": exact.save_s,
                "binary_exact_load_seconds": exact.load_s,
                "exact_over_memory_ratio": exact_over_memory,
                "ingest_activations": acts,
                "ingest_seconds": ingest_s,
                "ingest_acts_per_second": acts_per_s,
                "query_cold_seconds": cold_q,
                "query_cached_seconds": cached_q,
            }));
        }
    }

    table.print("Scale Sweep");
    serde_json::json!({ "seed": seed, "rows": rows })
}
