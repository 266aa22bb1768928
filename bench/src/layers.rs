//! The traced run: per-layer metrics from spans, counts and the layer
//! twin.
//!
//! A traced run measures the selected workload in depth — untraced passes,
//! then as many traced passes with the twin stepped beside the system — and
//! pays every other workload one shortened traced pass, so that each layer
//! has a number in every traced run whichever workload was asked for.
//! Layer times are floors over the traced passes; counts are exact.

use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

use anc_core::AncConfig;

use crate::digest::engine_digest;
use crate::fixture::{build_engine, Scale, INDEX_SEED};
use crate::floor::percentile;
use crate::ops::{Class, Op, Workload};
use crate::passes::{with_threads, ServerSide, Tracer};
use crate::run::{fs_type, measure, Measured, Metric, Prepared, RunArgs, RunReport};
use crate::setup::set_up;
use crate::trace::{self_times, write_json, Recorder};
use crate::twin::LayerTwin;

/// Spans one workload's recorder keeps before it starts counting drops.
const SPAN_CAP: usize = 800_000;
/// Most traced (and as many untraced) passes of the selected workload.
const MAX_TRACED_PASSES: usize = 8;

/// One workload's part of a traced run.
struct Visit {
    workload: Workload,
    prepared: Prepared,
    tracer: Tracer,
    server: Option<ServerSide>,
}

impl Visit {
    fn floor(&self, name: &str) -> Vec<u64> {
        self.tracer.rec.floor(name)
    }

    /// Activations of the ops that are `Ingest` or `Batch`.
    fn activations(&self) -> f64 {
        self.prepared.list.activations() as f64
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Median of `v` in nanoseconds; NaN when the span never occurred, which
/// fails the run (a layer without a number is a harness bug, not a
/// measurement).
fn p50(v: Vec<u64>) -> f64 {
    percentile(&sorted(v), 0.50, 0).map_or(f64::NAN, |x| x as f64)
}

fn p99(v: Vec<u64>) -> f64 {
    percentile(&sorted(v), 0.99, 0).map_or(f64::NAN, |x| x as f64)
}

/// Σ `v` in nanoseconds; NaN when the span never occurred.
fn sum(v: &[u64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<u64>() as f64
    }
}

/// `num / den`; NaN (failing the run) when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64
    }
}

const MIB: f64 = 1024.0 * 1024.0;

pub fn traced_run(args: &RunArgs, out: &Path, scratch: &Path) -> RunReport {
    let scale = if args.smoke { Scale::Smoke } else { Scale::Full };
    let started = Instant::now();

    // Set-up, once, with spans; then `AncEngine::new` again from its layers
    // and again at two pool threads. All three must land on one state.
    let mut setup = Recorder::new(1024);
    let (_, fixture) = set_up(args.workload, scale, scratch, Some(&mut setup));
    let built = fixture.restore();
    let fixture_digest = engine_digest(&built);
    let graph = fixture.snapshot().graph.clone();
    let twin = LayerTwin::build(graph.clone(), AncConfig::default(), INDEX_SEED, &mut setup);
    let two = setup.leaf("engine.build_2t", 0, || with_threads("2", || build_engine(graph)));
    let mut mismatches = u64::from(twin.digest() != fixture_digest)
        + u64::from(engine_digest(&two) != fixture_digest);
    let pyramid_bytes = built.pyramids().memory_bytes();
    let engine_bytes = built.memory_bytes();
    drop((twin, two, built));

    // The selected workload's untraced passes first: the floor the traced
    // ones are compared with, and how many of them there will be.
    let mut totals = (0usize, 0usize, true, Vec::<f64>::new());
    let mut absorb = |m: &Measured| {
        totals.0 += m.attempted;
        totals.1 += m.failed;
        totals.2 &= m.digests_agree;
        totals.3.extend(&m.ghz);
    };
    let full = Prepared::new(args.workload, &fixture, args.seed, args.workload.full_segments());
    let begun = Instant::now();
    let untraced = measure(&full.input(&fixture, scratch), 0, None, |done| {
        let enough = begun.elapsed().as_secs_f64() >= args.seconds * 0.3;
        done >= if args.smoke { 1 } else { 2 } && (enough || done >= MAX_TRACED_PASSES)
    });
    absorb(&untraced);
    let depth = untraced.floor.passes();

    // Then every workload traced: the selected one as many passes again
    // (numbered on from the untraced ones, so pass 0's invariant check is
    // not repeated), the others one shortened pass each.
    let mut overhead = 0.0;
    let mut full = Some(full);
    let mut visits: Vec<Visit> = Vec::new();
    for workload in Workload::ALL {
        let (prepared, first, passes) = if workload == args.workload {
            (full.take().expect("visited once"), depth, depth)
        } else {
            (Prepared::new(workload, &fixture, args.seed, workload.tour_segments()), 0, 1)
        };
        let mut tracer = Tracer::new(SPAN_CAP);
        let traced =
            measure(&prepared.input(&fixture, scratch), first, Some(&mut tracer), |done| {
                done >= passes
            });
        absorb(&traced);
        mismatches += tracer.twin_mismatches;
        if workload == args.workload {
            overhead =
                (traced.floor.total_seconds() / untraced.floor.total_seconds() - 1.0) * 100.0;
        }
        visits.push(Visit { workload, prepared, tracer, server: traced.server });
    }
    let (attempted, failed, digests_agree, mut ghz) = totals;
    let visit = |w: Workload| visits.iter().find(|v| v.workload == w).expect("all four visited");
    let (es, si, sq, dr) = (
        visit(Workload::EngineStream),
        visit(Workload::ServeIngest),
        visit(Workload::ServeQuery),
        visit(Workload::DurableRestart),
    );

    // Ungated: one list's wait ops leave a handful of samples beyond p99.
    let classes = visit(args.workload).prepared.classes();
    let wait_p99 = p99(untraced.floor.of_class(&classes, Class::Wait).collect());

    // engine.twin_gap_pct: what `activate` costs beyond the layer calls the
    // twin makes for it. Per op: the twin's span minus its self time (its
    // children), floored over passes like the engine's own span.
    let own = self_times(es.tracer.rec.spans());
    let engine_activate = sum(&es.floor("engine.activate"));
    let twin_layers =
        sum(&es.tracer.rec.floor_of("twin.activate", |i, span| span.duration() - own[i]));
    let twin_gap_pct = (engine_activate - twin_layers) / engine_activate * 100.0;

    let decisions: u64 = es.tracer.decisions.iter().sum();
    let share = |slot: usize| ratio(es.tracer.decisions[slot], decisions);
    let c = es.tracer.counts;
    let si_server = si.server.unwrap_or_default();
    let sq_server = sq.server.unwrap_or_default();
    let ingest_ops =
        si.prepared.list.ops.iter().filter(|(_, op)| matches!(op, Op::Ingest { .. })).count();
    let batch_count = dr.floor("engine.batch").len().max(1) as f64;
    let dropped: u64 = visits.iter().map(|v| v.tracer.rec.dropped()).sum::<u64>() + setup.dropped();
    ghz.sort_by(f64::total_cmp);

    let ns = 1.0;
    let us = 1e-3;
    let ms = 1e-6;
    let mut metrics: Vec<Metric> = vec![
        ("graph.gen_ms", p50(setup.floor("graph.gen")) * ms),
        ("decay.bump_ns", p50(es.floor("decay.bump")) * ns),
        ("similarity.sigma_all_ns", p50(es.floor("similarity.sigma_all")) * ns),
        ("reinforce.apply_ns", p50(es.floor("reinforce.apply")) * ns),
        ("reinforce.changed_share", ratio(c.changed, c.activations)),
        ("reinforce.full_pass_ms", sum(&setup.floor("reinforce.full_pass")) * ms),
        ("pyramid.repair_p50_ns", p50(es.floor("pyramid.repair")) * ns),
        ("pyramid.repair_p99_ns", p99(es.floor("pyramid.repair")) * ns),
        ("pyramid.repair_touched", ratio(c.touched, c.repairs)),
        ("pyramid.repair_noop_share", ratio(c.noop_repairs, c.repairs)),
        (
            "pyramid.batch_repair_us_per_edge",
            sum(&si.floor("pyramid.batch_repair")) / si.activations() * us,
        ),
        ("pyramid.build_ms", p50(setup.floor("pyramid.build")) * ms),
        ("pyramid.memory_mb", pyramid_bytes as f64 / MIB),
        ("cache.note_affected_ns", p50(es.floor("cache.note_affected")) * ns),
        ("cache.query_us", p50(es.floor("cache.query")) * us),
        ("cache.hit_share", share(0)),
        ("cache.repair_share", share(2)),
        ("cache.rebuild_share", share(3)),
        ("cache.coldfill_share", share(4)),
        ("cache.coldfill_ms", p50(es.floor("cache.coldfill")) * ms),
        ("cluster.cold_ms", p50(es.floor("cluster.cold")) * ms),
        ("engine.build_ms", p50(setup.floor("engine.build")) * ms),
        ("engine.build_2t_ms", p50(setup.floor("engine.build_2t")) * ms),
        ("engine.activate_p50_ns", p50(es.floor("engine.activate")) * ns),
        ("engine.twin_gap_pct", twin_gap_pct),
        ("engine.batch_us_per_edge", sum(&dr.floor("engine.batch")) / dr.activations() * us),
        ("engine.batch_2t_us_per_edge", sum(&dr.floor("engine.batch_2t")) / dr.activations() * us),
        ("engine.refresh_view_us", p50(si.floor("engine.refresh_view")) * us),
        ("engine.restore_ms", p50(dr.floor("engine.restore")) * ms),
        ("engine.memory_mb", engine_bytes as f64 / MIB),
        ("binary.save_ms", p50(dr.floor("binary.save")) * ms),
        ("binary.load_ms", p50(dr.floor("binary.load")) * ms),
        ("binary.bytes_per_node", dr.tracer.snapshot_bytes as f64 / fixture.n() as f64),
        ("wal.create_ms", p50(dr.floor("wal.create")) * ms),
        ("wal.open_ms", p50(dr.floor("wal.open")) * ms),
        ("wal.replay_us_per_edge", sum(&dr.floor("wal.replay")) / dr.activations() * us),
        ("wal.compact_ms", p50(dr.floor("wal.compact")) * ms),
        (
            "wal.append_us",
            (sum(&dr.floor("durable.batch")) - sum(&dr.floor("engine.batch"))) / batch_count * us,
        ),
        ("wal.bytes_per_edge", ratio(dr.tracer.wal_bytes, dr.tracer.wal_edges)),
        ("publish.publish_ns", p50(si.floor("publish.publish")) * ns),
        ("publish.latest_ns", p50(si.floor("publish.latest")) * ns),
        ("service.submit_ns", p50(si.floor("service.submit")) * ns),
        ("service.flush_us", p50(si.floor("service.flush")) * us),
        ("service.jobs_per_batch", ratio(si_server.jobs, si_server.batches)),
        ("service.publishes_per_op", ratio(si_server.publishes, ingest_ops as u64)),
        ("service.apply_mean_us", si_server.apply_mean_ns * us),
        ("service.apply_max_us", si_server.apply_max_ns as f64 * us),
        ("service.shed", (si_server.shed + sq_server.shed) as f64),
        ("snapshot.latest_ns", p50(sq.floor("snapshot.latest")) * ns),
        ("snapshot.same_cluster_ns", p50(sq.floor("snapshot.same_cluster")) * ns),
        ("snapshot.members_us", p50(sq.floor("snapshot.members")) * us),
        ("wire.req_codec_ns", p50(sq.floor("wire.req_codec")) * ns),
        ("wire.resp_codec_ns", p50(sq.floor("wire.resp_codec")) * ns),
        ("wire.labels_codec_us", p50(sq.floor("wire.labels_codec")) * us),
        ("wire.bytes_per_query", ratio(sq.tracer.wire_bytes, sq.tracer.wire_queries)),
        ("tcp.burst_us_per_query", p50(sq.floor("client.burst")) / crate::ops::BURST as f64 * us),
        ("tcp.rtt_p50_us", p50(sq.floor("tcp.rtt")) * us),
        ("tcp.connect_us", p50(sq.floor("tcp.connect")) * us),
        ("client.wait_p99_us", wait_p99 * us),
        ("bench.trace_overhead_pct", overhead),
        ("bench.pass_spread_pct", untraced.floor.pass_spread_pct()),
        ("bench.floor_converged_pass", untraced.floor.converged_pass() as f64),
        ("host.clock_ghz", ghz[ghz.len() / 2]),
    ];

    let trace_path = out.join(format!("trace_{}.json", args.workload.name()));
    let mut recorders: Vec<(&str, &Recorder)> = vec![("set-up", &setup)];
    recorders.extend(visits.iter().map(|v| (v.workload.name(), &v.tracer.rec)));
    let written = std::fs::File::create(&trace_path)
        .and_then(|f| write_json(&mut BufWriter::new(f), &recorders))
        .is_ok();

    let all_measured = metrics.iter().all(|m| m.1.is_finite());
    metrics.iter_mut().filter(|m| !m.1.is_finite()).for_each(|m| m.1 = 0.0);
    let spans: usize = recorders.iter().map(|(_, r)| r.spans().len()).sum();
    RunReport {
        correct: failed == 0 && digests_agree && mismatches == 0 && all_measured && written,
        attempted,
        failed,
        metrics,
        info: vec![
            ("workload", format!("\"{}\"", args.workload.name())),
            ("seed", args.seed.to_string()),
            ("untraced_passes", untraced.floor.passes().to_string()),
            ("traced_passes", untraced.floor.passes().to_string()),
            ("twin_mismatches", mismatches.to_string()),
            ("trace_dropped", dropped.to_string()),
            ("spans", spans.to_string()),
            ("trace", format!("\"{}\"", trace_path.display())),
            ("durable_fs", format!("\"{}\"", fs_type(scratch))),
            ("wall_s", format!("{:.1}", started.elapsed().as_secs_f64())),
        ],
    }
}
