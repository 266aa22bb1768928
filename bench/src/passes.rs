//! One pass of each workload: restore the fixture, replay the whole op
//! list with every op timed, check every output, digest the end state.
//!
//! A pass given a [`Tracer`] also records a span per call it makes and
//! steps the layer twin beside the system, outside the op timers.

use std::path::{Path, PathBuf};
use std::time::Instant;

use anc_core::cluster::cluster_all;
use anc_core::persist::binary::decode_snapshot;
use anc_core::persist::{SNAPSHOT_FILE, WAL_FILE};
use anc_core::publish::Publisher;
use anc_core::{
    AncEngine, ClusterMode, ClusterView, DurabilityOptions, DurableEngine, QueryDecision,
    SnapshotProfile, WalReader,
};
use anc_server::wire::write_frame;
use anc_server::{
    EngineBackend, Request, Response, ServeConfig, ServerCore, ServerStats, SnapshotReader,
    TcpServer, WireClient,
};

use crate::clock::GroupedTimes;
use crate::digest::{engine_digest, hash_u32s};
use crate::fixture::Fixture;
use crate::ops::{Op, OpList, Query, Workload};
use crate::reference::{Answer, Expect, Reference};
use crate::trace::Recorder;
use crate::twin::{LayerTwin, TwinCounts};

/// Everything a pass reads.
pub struct PassInput<'a> {
    pub fixture: &'a Fixture,
    pub list: &'a OpList,
    pub reference: &'a Reference,
    /// Pre-encoded request bytes per op (serve workloads).
    pub wire: &'a [Vec<u8>],
    /// Where a durable pass may create its directory.
    pub scratch_dir: &'a Path,
}

/// Writer-side counters of a serve pass, from the `ShutdownReport`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerSide {
    pub jobs: u64,
    pub batches: u64,
    pub publishes: u64,
    pub shed: u64,
    /// Enqueue-to-apply wait per ingest job: exact mean and maximum. (The
    /// histogram's quantiles are bucket lower bounds a quarter-octave apart
    /// and read the same run after run.)
    pub apply_mean_ns: f64,
    pub apply_max_ns: u64,
}

impl ServerSide {
    fn from_stats(stats: &ServerStats) -> Self {
        Self {
            jobs: stats.ingested_jobs,
            batches: stats.applied_batches,
            publishes: stats.publishes,
            shed: stats.shed,
            apply_mean_ns: stats.apply_latency.mean(),
            apply_max_ns: stats.apply_latency.max(),
        }
    }
}

/// What one pass produced.
pub struct PassOutcome {
    /// Per-op nanoseconds at the reference clock (`clock.rs`), aligned with
    /// the op list.
    pub times: Vec<u64>,
    /// End-state digest of the system.
    pub digest: u64,
    /// Items (activations + queries) whose outcome was wrong.
    pub failed: usize,
    /// Median reading of the core clock during the pass, in GHz.
    pub ghz: f64,
    pub server: Option<ServerSide>,
}

/// Tracing state of one workload across its traced passes.
pub struct Tracer {
    pub rec: Recorder,
    pub counts: TwinCounts,
    /// Cluster-cache decisions of the twin's queries, warm-up included:
    /// hit, extract, repair, rebuild, cold fill.
    pub decisions: [u64; 5],
    /// Request plus response bytes of the twin's point queries, and how many.
    pub wire_bytes: u64,
    pub wire_queries: u64,
    /// Size of the last `Exact` snapshot the twin encoded.
    pub snapshot_bytes: u64,
    /// Log bytes (header excluded) and the edges they carried.
    pub wal_bytes: u64,
    pub wal_edges: u64,
    /// Twin digests that differed from the system's.
    pub twin_mismatches: u64,
}

impl Tracer {
    pub fn new(span_cap: usize) -> Self {
        Self {
            rec: Recorder::new(span_cap),
            counts: TwinCounts::default(),
            decisions: [0; 5],
            wire_bytes: 0,
            wire_queries: 0,
            snapshot_bytes: 0,
            wal_bytes: 0,
            wal_edges: 0,
            twin_mismatches: 0,
        }
    }

    fn note_decision(&mut self, d: QueryDecision) {
        let slot = match d {
            QueryDecision::Hit => 0,
            QueryDecision::Extract => 1,
            QueryDecision::Repair => 2,
            QueryDecision::Rebuild => 3,
            QueryDecision::ColdFill => 4,
        };
        self.decisions[slot] += 1;
    }

    fn check_twin(&mut self, what: &str, twin: u64, system: u64) {
        if twin != system {
            self.twin_mismatches += 1;
            eprintln!(
                "anc-perf: twin digest mismatch ({what}): twin {twin:#x}, system {system:#x}"
            );
        }
    }
}

/// Times ops into a vector and, when tracing, into leaf spans from the same
/// pair of clock reads. The vector is restated at the reference clock group
/// by group (`clock.rs`); spans keep the wall clock.
struct OpClock<'a> {
    times: GroupedTimes,
    tracer: Option<&'a mut Tracer>,
}

impl<'a> OpClock<'a> {
    fn new(ops: usize, tracer: Option<&'a mut Tracer>) -> Self {
        Self { times: GroupedTimes::with_capacity(ops), tracer }
    }

    fn tracer(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_deref_mut()
    }

    fn time<R>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> R) -> R {
        self.times.before_op();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.times.push(end.duration_since(start).as_nanos() as u64);
        if let Some(t) = self.tracer.as_deref_mut() {
            t.rec.closed(name, op, start, end);
        }
        out
    }
}

/// Runs one pass of the input's workload.
pub fn run_pass(input: &PassInput<'_>, pass: usize, tracer: Option<&mut Tracer>) -> PassOutcome {
    match input.list.workload {
        Workload::EngineStream => engine_stream(input, pass, tracer),
        Workload::ServeIngest | Workload::ServeQuery => serve(input, pass, tracer),
        Workload::DurableRestart => durable_restart(input, pass, tracer),
    }
}

/// Check (2): at the end of a pass the cached clustering equals a cold one,
/// both modes. Returns false on a mismatch.
fn cache_agrees_with_index(engine: &AncEngine, level: usize) -> bool {
    [ClusterMode::Even, ClusterMode::Power].into_iter().all(|mode| {
        let (cached, _) = engine.cluster_all_cached(level, mode);
        *cached == cluster_all(engine.graph(), engine.pyramids(), level, mode)
    })
}

/// Folds the end-of-pass checks into the failure count: a wrong digest, a
/// cache that disagrees with the index or (checked on a run's first pass,
/// it costs about a pass) a violated engine invariant fails every item.
fn close_pass(
    input: &PassInput<'_>,
    pass: usize,
    engine: &AncEngine,
    mut failed: usize,
) -> (u64, usize) {
    assert_eq!(engine.rescales(), 0, "no pass may cross a rescale (ROADMAP item 1)");
    let digest = engine_digest(engine);
    let sound = digest == input.reference.digest
        && cache_agrees_with_index(engine, input.fixture.level)
        && (pass != 0 || engine.check_invariants().is_ok());
    if !sound {
        failed = input.list.items();
    }
    (digest, failed)
}

// --- engine-stream ----------------------------------------------------------

fn engine_stream(input: &PassInput<'_>, pass: usize, tracer: Option<&mut Tracer>) -> PassOutcome {
    let level = input.fixture.level;
    let mut engine = input.fixture.restore();
    let mut twin = tracer.as_ref().map(|_| LayerTwin::from_snapshot(input.fixture.snapshot()));
    let mut clock = OpClock::new(input.list.ops.len(), tracer);
    // The cold fill is set-up (`setup_s`), not stream work.
    let _ = spanned(&mut clock.tracer().map(|t| &mut t.rec), "cache.coldfill", || {
        engine.cluster_all_cached(level, ClusterMode::Even)
    });
    if let Some((twin, t)) = twin.as_mut().zip(clock.tracer()) {
        let (_, qs) = twin.query(level, 0, &mut t.rec);
        t.note_decision(qs.decision);
    }

    let mut failed = 0;
    let mut queries_seen = 0usize;
    for (i, (_, op)) in input.list.ops.iter().enumerate() {
        match op {
            Op::Activate { e, t } => {
                clock.time("engine.activate", i, || engine.activate(*e, *t));
                if let Some((twin, tr)) = twin.as_mut().zip(clock.tracer()) {
                    twin.activate(*e, *t, i, &mut tr.rec);
                }
            }
            Op::ClusterQuery => {
                let (clusters, _) = clock.time("engine.query", i, || {
                    engine.cluster_all_cached(level, ClusterMode::Even)
                });
                let Expect::Labels(want) = input.reference.expect[i] else {
                    unreachable!("reference and op list are aligned")
                };
                failed += usize::from(hash_u32s(clusters.labels()) != want);
                if let Some((twin, tr)) = twin.as_mut().zip(clock.tracer()) {
                    let (twin_clusters, qs) = twin.query(level, i, &mut tr.rec);
                    tr.note_decision(qs.decision);
                    failed += usize::from(hash_u32s(twin_clusters.labels()) != want);
                    // Every tenth query also pays for the cold answer the
                    // cache exists to beat.
                    if queries_seen.is_multiple_of(10) {
                        let cold = twin.cold_cluster(level, i, &mut tr.rec);
                        failed += usize::from(hash_u32s(cold.labels()) != want);
                    }
                    queries_seen += 1;
                }
            }
            other => unreachable!("engine-stream never holds {other:?}"),
        }
    }
    let (times, ghz) = clock.times.finish();
    let (digest, failed) = close_pass(input, pass, &engine, failed);
    if let Some((twin, tr)) = twin.as_mut().zip(clock.tracer()) {
        tr.check_twin("engine-stream layer twin", twin.digest(), digest);
        tr.counts = twin.counts;
    }
    PassOutcome { times, digest, failed, ghz, server: None }
}

// --- serve-ingest and serve-query -------------------------------------------

/// Appends one framed request to `out`.
pub fn push_frame(out: &mut Vec<u8>, req: &Request) {
    let mut payload = Vec::new();
    req.encode(&mut payload);
    write_frame(out, &payload).expect("writing to a Vec cannot fail");
}

/// The wire form of a point query.
pub fn query_request(q: Query, level: usize) -> Request {
    let mode = ClusterMode::Even;
    match q {
        Query::SameCluster { u, v } => Request::SameCluster { u, v, level, mode },
        Query::Summary => Request::ClusterSummary { level, mode },
        Query::Members { v } => Request::Members { v, level, mode },
    }
}

/// The bytes each op puts on the wire, encoded once per run: what is timed
/// is the server, not the harness's encoder.
pub fn encode_wire_ops(list: &OpList, level: usize) -> Vec<Vec<u8>> {
    list.ops
        .iter()
        .map(|(_, op)| {
            let mut out = Vec::new();
            match op {
                Op::Ingest { t, jobs } => {
                    for job in jobs {
                        push_frame(&mut out, &Request::Ingest { t: *t, edges: job.clone() });
                    }
                    push_frame(&mut out, &Request::Flush);
                }
                Op::QueryBurst(queries) => {
                    queries.iter().for_each(|&q| push_frame(&mut out, &query_request(q, level)));
                }
                Op::Labels => {
                    push_frame(&mut out, &Request::ClusterLabels { level, mode: ClusterMode::Even })
                }
                _ => {}
            }
            out
        })
        .collect()
}

/// Sends one op's bytes and reads its `replies` responses.
fn round_trip(client: &mut WireClient, bytes: &[u8], replies: usize) -> Option<Vec<Response>> {
    client.send_raw(bytes).ok()?;
    (0..replies).map(|_| client.read_response().ok()).collect()
}

/// Runs `f` under a leaf span when there is a recorder, bare otherwise.
pub fn spanned<R>(rec: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec.as_deref_mut() {
        Some(rec) => rec.leaf(name, 0, f),
        None => f(),
    }
}

/// A running TCP server with one connected client: the start every serve
/// pass and the serve workloads' set-up share.
pub struct Served {
    pub server: TcpServer,
    pub client: WireClient,
}

impl Served {
    /// `ServerCore::start` + `TcpServer::start` + connect + one `Ping`.
    /// With a recorder: `service.start`, `tcp.start`, `tcp.connect`, `tcp.rtt`.
    pub fn start(engine: AncEngine, mut rec: Option<&mut Recorder>) -> Served {
        let core = spanned(&mut rec, "service.start", || {
            ServerCore::start(EngineBackend::Volatile(engine), ServeConfig::default())
                .expect("default serve config is valid")
        });
        let server = spanned(&mut rec, "tcp.start", || {
            TcpServer::start(core, "127.0.0.1:0").expect("bind loopback")
        });
        let mut client = spanned(&mut rec, "tcp.connect", || {
            WireClient::connect(server.local_addr()).expect("connect loopback")
        });
        spanned(&mut rec, "tcp.rtt", || {
            assert_eq!(client.call(&Request::Ping).expect("ping"), Response::Pong);
        });
        Served { server, client }
    }

    /// Closes the connection first (so its thread ends at once instead of at
    /// its next read poll), then shuts the server down.
    pub fn stop(self) -> anc_server::ShutdownReport {
        drop(self.client);
        self.server.shutdown()
    }
}

/// The in-process replicas a traced serve pass steps beside the TCP server.
struct ServeTwin {
    /// The service layer alone: a second core driven through its handle and
    /// one reader cursor (as a connection holds one), no TCP and no wire.
    core: ServerCore,
    reader: SnapshotReader,
    /// The writer cycle alone: `activate_batch`, `refresh_view`, `publish`.
    shadow: AncEngine,
    publisher: Publisher<ClusterView>,
    /// The batch taken apart into layers.
    layers: LayerTwin,
}

impl ServeTwin {
    fn start(fixture: &Fixture, rec: &mut Recorder) -> Self {
        let core =
            ServerCore::start(EngineBackend::Volatile(fixture.restore()), ServeConfig::default())
                .expect("valid config");
        let shadow = fixture.restore();
        // Like the server's start: the first view pays the cold fill.
        let publisher = Publisher::new(shadow.refresh_view(&[fixture.level], &[ClusterMode::Even]));
        let mut layers = LayerTwin::from_snapshot(fixture.snapshot());
        let _ = layers.query(fixture.level, 0, rec);
        let reader = core.reader();
        Self { core, reader, shadow, publisher, layers }
    }

    /// One ingest op through each replica.
    fn ingest(
        &mut self,
        fixture: &Fixture,
        t: f64,
        jobs: &[Vec<u32>],
        op: usize,
        rec: &mut Recorder,
    ) {
        let handle = self.core.ingest_handle();
        for job in jobs {
            let edges = job.clone();
            rec.leaf("service.submit", op, || {
                handle.submit(t, edges).expect("twin queue never fills")
            });
        }
        rec.leaf("service.flush", op, || handle.flush().expect("twin writer alive"));

        let all: Vec<u32> = jobs.iter().flatten().copied().collect();
        let _ = rec.leaf("engine.batch", op, || self.shadow.activate_batch(&all, t));
        let view = rec.leaf("engine.refresh_view", op, || {
            self.shadow.refresh_view(&[fixture.level], &[ClusterMode::Even])
        });
        let mut reader = self.publisher.subscribe();
        rec.leaf("publish.publish", op, || self.publisher.publish(view));
        rec.leaf("publish.latest", op, || std::hint::black_box(reader.latest()));

        self.layers.activate_batch(&all, t, op, rec);
        // Bring the layer twin's cache current, as `refresh_view` did the
        // shadow's, so the next batch repairs against the same cache state.
        let _ = self.layers.query(fixture.level, op, rec);
    }

    /// One point query through snapshot and codec; returns the reply.
    fn query(&mut self, fixture: &Fixture, q: Query, op: usize, tracer: &mut Tracer) -> Response {
        let rec = &mut tracer.rec;
        let level = fixture.level;
        let mode = ClusterMode::Even;
        let request = query_request(q, level);
        let mut bytes = Vec::new();
        let decoded = rec.leaf("wire.req_codec", op, || {
            request.encode(&mut bytes);
            Request::decode(&bytes).expect("request round-trips")
        });
        assert_eq!(decoded, request);
        tracer.wire_bytes += bytes.len() as u64 + 8;
        let snap = rec.leaf("snapshot.latest", op, || self.reader.snapshot());
        let reply = match q {
            Query::SameCluster { u, v } => rec.leaf("snapshot.same_cluster", op, || {
                let value = snap.same_cluster_at(u, v, level, mode).expect("published level");
                Response::SameCluster { epoch: snap.epoch, value }
            }),
            Query::Summary => rec.leaf("snapshot.summary", op, || {
                let c = snap.clusters_at(level, mode).expect("published level");
                Response::Summary {
                    epoch: snap.epoch,
                    generation: snap.view.generation,
                    num_clusters: c.num_clusters() as u64,
                    num_assigned: c.num_assigned() as u64,
                }
            }),
            Query::Members { v } => rec.leaf("snapshot.members", op, || {
                let members = snap.members_at(v, level, mode).expect("published level");
                Response::Members { epoch: snap.epoch, members }
            }),
        };
        bytes.clear();
        let decoded = rec.leaf("wire.resp_codec", op, || {
            reply.encode(&mut bytes);
            Response::decode(&bytes).expect("response round-trips")
        });
        tracer.wire_bytes += bytes.len() as u64 + 8;
        tracer.wire_queries += 1;
        decoded
    }

    /// The full label vector through snapshot and codec.
    fn labels(&mut self, fixture: &Fixture, op: usize, rec: &mut Recorder) -> Response {
        let snap = rec.leaf("snapshot.latest", op, || self.reader.snapshot());
        let reply = rec.leaf("snapshot.labels", op, || {
            let c = snap.clusters_at(fixture.level, ClusterMode::Even).expect("published level");
            Response::Labels {
                epoch: snap.epoch,
                generation: snap.view.generation,
                labels: c.labels().to_vec(),
            }
        });
        let mut bytes = Vec::new();
        rec.leaf("wire.labels_codec", op, || {
            reply.encode(&mut bytes);
            Response::decode(&bytes).expect("response round-trips")
        })
    }
}

/// Whether the replies to an ingest op are `Ingested` with consecutive
/// sequence numbers followed by a `Flushed` at a later epoch than the last.
fn ingest_replies_ok(replies: &[Response], next_seq: &mut u64, last_epoch: &mut u64) -> bool {
    let Some((flushed, ingested)) = replies.split_last() else {
        return false;
    };
    for r in ingested {
        *next_seq += 1;
        if *r != (Response::Ingested { seq: *next_seq }) {
            return false;
        }
    }
    match flushed {
        Response::Flushed { epoch } if *epoch > *last_epoch => {
            *last_epoch = *epoch;
            true
        }
        _ => false,
    }
}

fn labels_match(reply: &Response, want: u64) -> bool {
    matches!(reply, Response::Labels { labels, .. } if hash_u32s(labels) == want)
}

fn burst_failures(replies: &[Response], want: &[Answer]) -> usize {
    want.iter().zip(replies).filter(|(a, r)| !a.matches(r)).count()
        + want.len().saturating_sub(replies.len())
}

fn serve(input: &PassInput<'_>, pass: usize, tracer: Option<&mut Tracer>) -> PassOutcome {
    let fixture = input.fixture;
    let mut clock = OpClock::new(input.list.ops.len(), tracer);
    let Served { server, mut client } =
        Served::start(fixture.restore(), clock.tracer().map(|t| &mut t.rec));
    let mut twin = clock.tracer().map(|t| ServeTwin::start(fixture, &mut t.rec));
    if let Some(t) = clock.tracer() {
        // Single round trips are scheduler-bound on a small host; recorded
        // for `tcp.rtt_p50_us`, never gated.
        for _ in 0..15 {
            t.rec.leaf("tcp.rtt", 0, || client.call(&Request::Ping).expect("ping"));
        }
    }

    let mut failed = 0;
    let (mut next_seq, mut last_epoch) = (0u64, 0u64);
    for (i, (_, op)) in input.list.ops.iter().enumerate() {
        let bytes = &input.wire[i];
        match op {
            Op::Ingest { t, jobs } => {
                let replies = clock
                    .time("client.ingest", i, || round_trip(&mut client, bytes, jobs.len() + 1));
                let ok =
                    replies.is_some_and(|r| ingest_replies_ok(&r, &mut next_seq, &mut last_epoch));
                failed += if ok { 0 } else { op.items() };
                if let Some((twin, tr)) = twin.as_mut().zip(clock.tracer()) {
                    twin.ingest(fixture, *t, jobs, i, &mut tr.rec);
                }
            }
            Op::QueryBurst(queries) => {
                let replies =
                    clock.time("client.burst", i, || round_trip(&mut client, bytes, queries.len()));
                let Expect::Burst(want) = &input.reference.expect[i] else {
                    unreachable!("reference and op list are aligned")
                };
                failed += burst_failures(&replies.unwrap_or_default(), want);
                if let Some((twin, tr)) = twin.as_mut().zip(clock.tracer()) {
                    let twin_replies: Vec<Response> =
                        queries.iter().map(|&q| twin.query(fixture, q, i, tr)).collect();
                    failed += burst_failures(&twin_replies, want);
                }
            }
            Op::Labels => {
                let replies = clock.time("client.labels", i, || round_trip(&mut client, bytes, 1));
                let Expect::Labels(want) = input.reference.expect[i] else {
                    unreachable!("reference and op list are aligned")
                };
                failed += usize::from(!replies.is_some_and(|r| labels_match(&r[0], want)));
                if let Some((twin, tr)) = twin.as_mut().zip(clock.tracer()) {
                    failed +=
                        usize::from(!labels_match(&twin.labels(fixture, i, &mut tr.rec), want));
                }
            }
            other => unreachable!("serve workloads never hold {other:?}"),
        }
    }

    let (times, ghz) = clock.times.finish();
    let report = Served { server, client }.stop();
    let side = ServerSide::from_stats(&report.stats);
    let (digest, mut failed) = close_pass(input, pass, report.backend.engine(), failed);
    if side.shed != 0 {
        failed = input.list.items();
    }
    if let (Some(twin), Some(tr)) = (twin, clock.tracer()) {
        let core_report = twin.core.shutdown();
        tr.check_twin("service twin", engine_digest(core_report.backend.engine()), digest);
        tr.check_twin("writer-cycle twin", engine_digest(&twin.shadow), digest);
        tr.check_twin("batch layer twin", twin.layers.digest(), digest);
    }
    PassOutcome { times, digest, failed, ghz, server: Some(side) }
}

// --- durable-restart --------------------------------------------------------

/// Sets the pool width, and lifts the run's CPU pin, for the duration of
/// one call. Only ever used while no other thread of this process is running
/// engine code.
pub fn with_threads<R>(threads: &str, f: impl FnOnce() -> R) -> R {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let out = crate::affinity::unpinned(f);
    std::env::set_var("RAYON_NUM_THREADS", "1");
    out
}

/// The directory of one durable pass, removed when the pass ends.
struct PassDir(PathBuf);

impl Drop for PassDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Creates a durable engine in a fresh directory under `scratch_dir`.
pub fn durable_create(engine: AncEngine, dir: &Path) -> DurableEngine {
    let _ = std::fs::remove_dir_all(dir);
    DurableEngine::create(engine, dir, DurabilityOptions::default()).expect("create durable engine")
}

fn durable_restart(input: &PassInput<'_>, pass: usize, tracer: Option<&mut Tracer>) -> PassOutcome {
    let fixture = input.fixture;
    let dir = PassDir(input.scratch_dir.join(format!("durable-{}-{pass}", std::process::id())));
    let opts = DurabilityOptions::default();
    let mut clock = OpClock::new(input.list.ops.len(), tracer);
    // The engine-level twins: the same batches without the log, at one and
    // at two pool threads.
    let mut shadows = clock.tracer.as_ref().map(|_| (fixture.restore(), fixture.restore()));

    let mut failed = 0;
    let mut fresh = Some(fixture.restore());
    let mut durable: Option<DurableEngine> = None;
    let mut edges_in_log = 0u64;
    for (i, (_, op)) in input.list.ops.iter().enumerate() {
        match op {
            Op::Create => {
                let engine = fresh.take().expect("one create per pass");
                durable = Some(clock.time("wal.create", i, || durable_create(engine, &dir.0)));
            }
            Op::Batch { t, edges } => {
                let d = durable.as_mut().expect("created");
                let ok = clock.time("durable.batch", i, || d.activate_batch(edges, *t).is_ok());
                failed += if ok { 0 } else { op.items() };
                edges_in_log += edges.len() as u64;
                if let (Some((one, two)), Some(tr)) = (shadows.as_mut(), clock.tracer()) {
                    let _ = tr.rec.leaf("engine.batch", i, || one.activate_batch(edges, *t));
                    let _ = tr.rec.leaf("engine.batch_2t", i, || {
                        with_threads("2", || two.activate_batch(edges, *t))
                    });
                }
            }
            Op::Reopen => {
                let before = engine_digest(durable.as_ref().expect("created").engine());
                drop(durable.take());
                let files = clock.tracer.as_ref().map(|_| {
                    let read = |name| std::fs::read(dir.0.join(name)).expect("durable file");
                    (read(SNAPSHOT_FILE), read(WAL_FILE))
                });
                let opened = clock.time("wal.open", i, || DurableEngine::open(&dir.0, opts));
                // Check (4): recovery lands on the state before the drop.
                match opened {
                    Ok(d) if engine_digest(d.engine()) == before => durable = Some(d),
                    _ => return abandoned(input, clock.times.finish()),
                }
                if let (Some((snapshot, wal)), Some((one, _)), Some(tr)) =
                    (files, shadows.as_ref(), clock.tracer())
                {
                    // `open` taken apart: decode, restore, replay.
                    let decoded = tr.rec.leaf("binary.load", i, || decode_snapshot(&snapshot));
                    let mut replayed = tr.rec.leaf("engine.restore", i, || {
                        AncEngine::from_snapshot(decoded.expect("snapshot decodes"))
                            .expect("restores")
                    });
                    let header_len = tr.rec.leaf("wal.replay", i, || {
                        let mut reader = WalReader::new(&wal).expect("log header");
                        let header_len = reader.position();
                        while let Some(record) = reader.next().expect("log record") {
                            record.apply(&mut replayed);
                        }
                        header_len
                    });
                    tr.check_twin("open twin", engine_digest(&replayed), before);
                    let mut encoded = Vec::new();
                    tr.rec.leaf("binary.save", i, || {
                        one.save_binary(&mut encoded, SnapshotProfile::Exact).expect("encode")
                    });
                    tr.snapshot_bytes = encoded.len() as u64;
                    tr.wal_bytes += (wal.len() - header_len) as u64;
                    tr.wal_edges += edges_in_log;
                }
                edges_in_log = 0;
            }
            Op::Compact => {
                let d = durable.as_mut().expect("created");
                let ok = clock.time("wal.compact", i, || d.compact().is_ok());
                failed += usize::from(!ok);
            }
            other => unreachable!("durable-restart never holds {other:?}"),
        }
    }
    let (times, ghz) = clock.times.finish();
    let durable = durable.expect("created");
    let (digest, failed) = close_pass(input, pass, durable.engine(), failed);
    if let (Some((one, two)), Some(tr)) = (shadows.as_ref(), clock.tracer()) {
        tr.check_twin("batch twin", engine_digest(one), digest);
        tr.check_twin("two-thread batch twin", engine_digest(two), digest);
    }
    PassOutcome { times, digest, failed, ghz, server: None }
}

/// A durable pass whose recovery failed: every item fails, the op times
/// are padded so the pass still folds (it is reported `correct: false`).
fn abandoned(input: &PassInput<'_>, (mut times, ghz): (Vec<u64>, f64)) -> PassOutcome {
    times.resize(input.list.ops.len(), u64::MAX / 2);
    PassOutcome { times, digest: 0, failed: input.list.items(), ghz, server: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_reply_is_counted_in_failed() {
        let want = [
            Answer::Same(true),
            Answer::Summary { clusters: 7, assigned: 90 },
            Answer::Members { len: 2, hash: hash_u32s(&[4, 9]) },
        ];
        let right = vec![
            Response::SameCluster { epoch: 3, value: true },
            Response::Summary { epoch: 3, generation: 8, num_clusters: 7, num_assigned: 90 },
            Response::Members { epoch: 3, members: vec![4, 9] },
        ];
        assert_eq!(burst_failures(&right, &want), 0);

        let mut wrong = right.clone();
        wrong[0] = Response::SameCluster { epoch: 3, value: false };
        assert_eq!(burst_failures(&wrong, &want), 1);
        wrong[2] = Response::Members { epoch: 3, members: vec![4, 10] };
        assert_eq!(burst_failures(&wrong, &want), 2);
        // An error frame, a reply of the wrong kind and a missing reply all fail.
        wrong[1] = Response::Error { code: anc_server::ErrorCode::Overloaded, msg: String::new() };
        assert_eq!(burst_failures(&wrong, &want), 3);
        assert_eq!(burst_failures(&right[..2], &want), 1);
        assert_eq!(burst_failures(&[right[1].clone(), right[0].clone()], &want[..2]), 2);
    }

    #[test]
    fn ingest_replies_must_be_in_sequence_and_flush_must_advance() {
        let (mut seq, mut epoch) = (4, 10);
        let good = [
            Response::Ingested { seq: 5 },
            Response::Ingested { seq: 6 },
            Response::Flushed { epoch: 12 },
        ];
        assert!(ingest_replies_ok(&good, &mut seq, &mut epoch));
        assert_eq!((seq, epoch), (6, 12));
        // Same epoch again: nothing was published for this flush.
        let stale = [Response::Ingested { seq: 7 }, Response::Flushed { epoch: 12 }];
        assert!(!ingest_replies_ok(&stale, &mut seq, &mut epoch));
        let shed = [
            Response::Error { code: anc_server::ErrorCode::Overloaded, msg: String::new() },
            Response::Flushed { epoch: 13 },
        ];
        assert!(!ingest_replies_ok(&shed, &mut seq, &mut epoch));
        assert!(!ingest_replies_ok(&[], &mut seq, &mut epoch));
    }
}
