//! Set-up: everything between "nothing" and "the workload can take its
//! first op" — graph generation, `AncEngine::new`, and the workload's own
//! start. Timed as `setup_s`; the fixture every pass restores from is
//! captured after the clock stops. The dataset does not depend on `--seed`,
//! so every set-up of a workload is the same work.

use std::path::Path;

use anc_core::ClusterMode;

use crate::clock::RefStopwatch;
use crate::fixture::{build_engine, generate_graph, Fixture, Scale};
use crate::ops::Workload;
use crate::passes::{durable_create, spanned, Served};
use crate::trace::Recorder;

/// Performs the whole set-up of `workload` once and returns its time in
/// seconds at the reference clock (`clock.rs`) with the fixture it produced. With a recorder: `graph.gen`,
/// `engine.build`, and the spans of the workload's start.
pub fn set_up(
    workload: Workload,
    scale: Scale,
    scratch_dir: &Path,
    mut rec: Option<&mut Recorder>,
) -> (f64, Fixture) {
    let watch = RefStopwatch::start();
    let lg = spanned(&mut rec, "graph.gen", || generate_graph(scale));
    let engine = spanned(&mut rec, "engine.build", || build_engine(lg.graph));
    match workload {
        Workload::EngineStream => {
            let level = engine.default_level();
            let _ = spanned(&mut rec, "cache.coldfill", || {
                engine.cluster_all_cached(level, ClusterMode::Even)
            });
            let seconds = watch.stop();
            (seconds, Fixture::new(&engine, &lg.labels))
        }
        Workload::ServeIngest | Workload::ServeQuery => {
            let served = Served::start(engine, rec);
            let seconds = watch.stop();
            let report = served.stop();
            (seconds, Fixture::new(report.backend.engine(), &lg.labels))
        }
        Workload::DurableRestart => {
            let dir = scratch_dir.join(format!("durable-{}-setup", std::process::id()));
            let durable = spanned(&mut rec, "wal.create", || durable_create(engine, &dir));
            let seconds = watch.stop();
            let fixture = Fixture::new(durable.engine(), &lg.labels);
            drop(durable);
            let _ = std::fs::remove_dir_all(&dir);
            (seconds, fixture)
        }
    }
}
