//! Criterion micro-benchmarks for the incremental update path (Exp 6 /
//! Figure 8 companion): single-activation UPDATE vs full RECONSTRUCT, and
//! the raw Voronoi repair algorithms.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use anc_core::voronoi::VoronoiPartition;
use anc_core::{AncConfig, AncEngine};
use anc_graph::gen::{planted_partition, PlantedConfig};

fn bench_engine_update(c: &mut Criterion) {
    let lg = planted_partition(&PlantedConfig::default_for(2000), 5);
    let cfg = AncConfig { rep: 1, ..Default::default() };
    let mut group = c.benchmark_group("engine_update");
    group.sample_size(10);

    group.bench_function("activate_one", |b| {
        let mut engine = AncEngine::new(lg.graph.clone(), cfg.clone(), 1);
        let m = engine.graph().m() as u32;
        let mut e = 0u32;
        let mut t = 1.0;
        b.iter(|| {
            e = (e + 101) % m;
            t += 0.01;
            engine.activate(black_box(e), t);
        })
    });

    group.bench_function("reconstruct", |b| {
        let mut engine = AncEngine::new(lg.graph.clone(), cfg.clone(), 1);
        b.iter(|| engine.reconstruct_index())
    });
    group.finish();
}

/// The ingest loop (DESIGN.md §7): a 256-activation batch through a serial
/// loop of `activate` calls vs one `activate_batch`. The batch run also
/// prints one `BatchStats` line so the repair-skip counters are visible
/// alongside the timings.
fn bench_batch_ingest(c: &mut Criterion) {
    let lg = planted_partition(&PlantedConfig::default_for(2000), 5);
    let m = lg.graph.m() as u32;
    let batch: Vec<u32> = (0..256u32).map(|i| (i * 101) % m).collect();
    let mut group = c.benchmark_group("batch_ingest");
    group.sample_size(10);

    group.bench_function("serial_loop_256", |b| {
        let cfg = AncConfig { rep: 1, ..Default::default() };
        let mut engine = AncEngine::new(lg.graph.clone(), cfg, 1);
        let mut t = 1.0;
        b.iter(|| {
            t += 0.01;
            for &e in &batch {
                engine.activate(black_box(e), t);
            }
        })
    });

    group.bench_function("batch_256", |b| {
        let cfg = AncConfig { rep: 1, ..Default::default() };
        let mut engine = AncEngine::new(lg.graph.clone(), cfg, 1);
        let mut t = 1.0;
        let mut reported = false;
        b.iter(|| {
            t += 0.01;
            let stats = engine.activate_batch(black_box(&batch), t);
            if !reported {
                reported = true;
                eprintln!(
                    "[batch_256] stats: dirty={} repairs={} skips={}",
                    stats.dirty_edges, stats.repair_updates, stats.repair_skips
                );
            }
            black_box(stats.dirty_edges)
        })
    });
    group.finish();
}

fn bench_voronoi_repair(c: &mut Criterion) {
    let lg = planted_partition(&PlantedConfig::default_for(2000), 9);
    let g = &lg.graph;
    let mut w = vec![1.0f64; g.m()];
    let seeds: Vec<u32> = (0..32u32)
        .map(|i| i * 53 % g.n() as u32)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut group = c.benchmark_group("voronoi_repair");
    group.sample_size(20);

    group.bench_function("decrease_then_increase", |b| {
        let mut p = VoronoiPartition::build(g, &w, seeds.clone());
        let mut e = 0usize;
        b.iter(|| {
            e = (e + 211) % g.m();
            let old = w[e];
            w[e] = old * 0.5;
            p.on_weight_change(g, &w, e as u32, old);
            let old = w[e];
            w[e] = old * 2.0;
            p.on_weight_change(g, &w, e as u32, old);
        })
    });

    group.bench_function("full_build", |b| {
        b.iter(|| black_box(VoronoiPartition::build(g, &w, seeds.clone())))
    });
    group.finish();
}

criterion_group!(benches, bench_engine_update, bench_batch_ingest, bench_voronoi_repair);
criterion_main!(benches);
