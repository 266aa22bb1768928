//! The protocol-agnostic serving core: single-writer ingest with
//! coalescing, wait-free epoch'd snapshot publication, backpressure.
//!
//! Architecture (DESIGN.md §12): one writer thread owns the engine
//! ([`EngineBackend`] — plain [`AncEngine`] or WAL-backed
//! [`DurableEngine`]) and drains a bounded MPSC ingest queue. Per drain
//! cycle it takes everything queued (up to [`ServeConfig::coalesce_max`]
//! jobs, so the applied batch grows with queue depth), merges consecutive
//! same-timestamp jobs into single [`AncEngine::activate_batch`] calls,
//! refreshes the cluster cache once, and publishes one immutable
//! [`ServeSnapshot`]. Readers never see
//! the engine — they answer from snapshots via [`SnapshotReader`], so the
//! query path is wait-free (DESIGN.md §8).
//!
//! Backpressure is reject/shed: [`IngestHandle::submit`] is `try_send` on
//! the bounded queue and returns [`IngestError::Overloaded`] when full —
//! nothing in the serving layer ever blocks a client thread on the
//! writer. Enqueue-to-apply latency is recorded per job into a
//! log-bucketed [`LatencyHistogram`] published with every snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use anc_core::publish::Publisher;
use anc_core::{
    AncEngine, BadActivation, ClusterMode, DurableEngine, RepairStats, RestoreError, WalRecord,
};
use anc_graph::EdgeId;

use crate::hist::LatencyHistogram;
use crate::snapshot::{index_members, ServeSnapshot, SnapshotReader};

/// The engine the writer thread owns: volatile, or WAL-backed durable.
pub enum EngineBackend {
    /// In-memory only; lost on shutdown unless the caller persists the
    /// engine returned by [`ShutdownReport::backend`].
    Volatile(AncEngine),
    /// Every applied batch is write-ahead logged; shutdown compacts the
    /// log into a fresh base snapshot.
    Durable(DurableEngine),
}

impl EngineBackend {
    /// Read access to the wrapped engine.
    pub fn engine(&self) -> &AncEngine {
        match self {
            EngineBackend::Volatile(e) => e,
            EngineBackend::Durable(d) => d.engine(),
        }
    }

    /// [`AncEngine::activate_batch`] on the wrapped engine — write-ahead
    /// logged first when durable, which is the only way it can fail.
    pub fn activate_batch(
        &mut self,
        edges: &[EdgeId],
        t: f64,
    ) -> Result<RepairStats, RestoreError> {
        match self {
            EngineBackend::Volatile(e) => Ok(e.activate_batch(edges, t)),
            EngineBackend::Durable(d) => d.activate_batch(edges, t),
        }
    }

    /// [`AncEngine::set_live_levels`] on the wrapped engine (not logged).
    fn set_live_levels(&mut self, levels: &[usize]) {
        match self {
            EngineBackend::Volatile(e) => e.set_live_levels(levels),
            EngineBackend::Durable(d) => d.set_live_levels(levels),
        }
    }
}

/// Writer-loop and queue configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bound of the ingest queue; a full queue sheds submissions with
    /// [`IngestError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum ingest jobs drained (coalesced) per cycle. The actual batch
    /// adapts to load: an idle server applies single-job batches, a backed
    /// up queue drains up to this many jobs into one apply+publish cycle.
    pub coalesce_max: usize,
    /// Granularity levels refreshed and published with every snapshot;
    /// empty selects the engine's default level.
    pub levels: Vec<usize>,
    /// Cluster modes published per level; empty selects
    /// [`ClusterMode::Even`].
    pub modes: Vec<ClusterMode>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { queue_capacity: 1024, coalesce_max: 256, levels: Vec::new(), modes: Vec::new() }
    }
}

/// Rejected construction of a [`ServerCore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A configured publish level is out of range for the engine.
    LevelOutOfRange {
        /// The offending level.
        level: usize,
        /// The engine's level count.
        num_levels: usize,
    },
    /// Zero queue capacity or zero coalesce_max.
    EmptyConfig,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::LevelOutOfRange { level, num_levels } => {
                write!(f, "publish level {level} out of range (engine has {num_levels})")
            }
            ServeError::EmptyConfig => {
                write!(f, "queue_capacity and coalesce_max must be nonzero")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestError {
    /// Queue full — the request was shed (backpressure). The burnt
    /// sequence number leaves a gap; gaps carry no meaning.
    Overloaded,
    /// The writer has exited (shutdown or WAL failure).
    Closed,
    /// The batch fails [`WalRecord::check`].
    BadActivation(BadActivation),
}

/// One queued unit of work for the writer thread.
enum Job {
    Ingest { seq: u64, t: f64, edges: Vec<EdgeId>, enqueued: Instant },
    Flush { done: SyncSender<u64> },
    Subscribe { done: SyncSender<SnapshotReader> },
    Stop,
}

/// Cloneable client-side handle for submitting activations.
pub struct IngestHandle {
    tx: SyncSender<Job>,
    // Plain counters that publish nothing, bumped `AcqRel` and read
    // `Acquire` all the same: the relaxed ordering is denied tree-wide
    // (`ci.sh`), so no handshake can ever be written with a weak side.
    seq: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
    num_edges: usize,
}

impl Clone for IngestHandle {
    fn clone(&self) -> Self {
        Self {
            tx: self.tx.clone(),
            seq: Arc::clone(&self.seq),
            shed: Arc::clone(&self.shed),
            num_edges: self.num_edges,
        }
    }
}

impl IngestHandle {
    /// Submits an activation batch (edges activated at time `t`) and
    /// returns its sequence number. Never blocks: a full queue sheds the
    /// request with [`IngestError::Overloaded`] (the drawn sequence number
    /// is burnt — sequence gaps are meaningless). [`WalRecord::check`] runs
    /// here, before the queue, so the writer thread never panics on a bad
    /// request.
    pub fn submit(&self, t: f64, edges: Vec<EdgeId>) -> Result<u64, IngestError> {
        WalRecord::check(self.num_edges, &edges, t).map_err(IngestError::BadActivation)?;
        let seq = self.seq.fetch_add(1, Ordering::AcqRel) + 1;
        match self.tx.try_send(Job::Ingest { seq, t, edges, enqueued: Instant::now() }) {
            Ok(()) => Ok(seq),
            Err(TrySendError::Full(_)) => {
                self.shed.fetch_add(1, Ordering::AcqRel);
                Err(IngestError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Err(IngestError::Closed),
        }
    }

    /// Queue-barrier: waits until every job enqueued before this call is
    /// applied and published, and returns the epoch of that publication.
    /// Blocking (rides the FIFO queue) — not part of the wait-free read
    /// path; readers that only need fresh data use
    /// [`SnapshotReader::snapshot`] instead.
    pub fn flush(&self) -> Result<u64, IngestError> {
        let (done, rx) = mpsc::sync_channel(1);
        match self.tx.try_send(Job::Flush { done }) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => return Err(IngestError::Overloaded),
            Err(TrySendError::Disconnected(_)) => return Err(IngestError::Closed),
        }
        rx.recv().map_err(|_| IngestError::Closed)
    }

    /// Submissions shed so far because the queue was full.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Acquire)
    }
}

/// Cumulative writer-side counters, published inside every snapshot.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Ingest jobs applied to the engine.
    pub ingested_jobs: u64,
    /// Total edges across applied jobs.
    pub ingested_edges: u64,
    /// `activate_batch` calls issued (post-coalescing).
    pub applied_batches: u64,
    /// Jobs that were merged into a batch with at least one other job
    /// (`ingested_jobs - applied_batches` when every run coalesces).
    pub coalesced_jobs: u64,
    /// Largest single applied batch, in edges.
    pub max_batch_edges: u64,
    /// Submissions shed by backpressure (sampled at publish).
    pub shed: u64,
    /// Publications (equals the snapshot's epoch).
    pub publishes: u64,
    /// Cluster-cache queries answered with an already-cached `Arc`, over the
    /// cache's lifetime (read at publish).
    pub cache_hits: u64,
    /// Cluster-cache queries that had to (re)extract a clustering, over the
    /// cache's lifetime (read at publish).
    pub cache_misses: u64,
    /// Enqueue-to-apply latency per ingest job, nanoseconds.
    pub apply_latency: LatencyHistogram,
    /// Index repair work of every applied batch, summed: partitions
    /// repaired (`updates`) and skipped by the no-op precheck (`skips`).
    /// Only the published levels are live while the writer runs, so this
    /// counts `k` partitions per published level `≥ 1` per weight change.
    /// In-process only: the wire's stats reply does not carry it.
    pub repairs: RepairStats,
}

/// Everything handed back by [`ServerCore::shutdown`].
pub struct ShutdownReport {
    /// The engine, final state included — reusable (e.g. persist it, or
    /// diff it against a serial replay in tests). Every level of its index
    /// is live and synced, as if every activation had repaired them all.
    pub backend: EngineBackend,
    /// Final cumulative counters.
    pub stats: ServerStats,
    /// Epoch of the last published snapshot.
    pub final_epoch: u64,
    /// A WAL write/compact failure that stopped the writer early, if any.
    pub wal_error: Option<RestoreError>,
}

/// The running serving core: writer thread + ingest queue + publication
/// chain. Protocol-agnostic — the TCP front end ([`crate::tcp`]) and
/// in-process tests both drive it through [`IngestHandle`] and
/// [`SnapshotReader`].
pub struct ServerCore {
    ingest: IngestHandle,
    /// A cursor at the last snapshot, left by the writer as it exits.
    last: Arc<OnceLock<SnapshotReader>>,
    writer: Option<std::thread::JoinHandle<ShutdownReport>>,
}

impl ServerCore {
    /// Validates `cfg`, publishes the initial snapshot (epoch 0), and
    /// starts the writer thread.
    pub fn start(backend: EngineBackend, cfg: ServeConfig) -> Result<Self, ServeError> {
        if cfg.queue_capacity == 0 || cfg.coalesce_max == 0 {
            return Err(ServeError::EmptyConfig);
        }
        let engine = backend.engine();
        let num_levels = engine.num_levels();
        let levels =
            if cfg.levels.is_empty() { vec![engine.default_level()] } else { cfg.levels.clone() };
        if let Some(&level) = levels.iter().find(|&&l| l >= num_levels) {
            return Err(ServeError::LevelOutOfRange { level, num_levels });
        }
        let modes = if cfg.modes.is_empty() { vec![ClusterMode::Even] } else { cfg.modes.clone() };

        let view = engine.refresh_view(&levels, &modes);
        let mut stats = ServerStats::default();
        note_cache(&mut stats, engine);
        let initial = ServeSnapshot {
            epoch: 0,
            applied_seq: 0,
            n: engine.graph().n(),
            num_levels,
            default_level: engine.default_level(),
            members: index_members(&view, None),
            view,
            stats: stats.clone(),
        };
        let num_edges = engine.graph().m();

        let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity);
        let last = Arc::new(OnceLock::new());
        let ends =
            WriterEnds { jobs: rx, publisher: Publisher::new(initial), last: Arc::clone(&last) };
        let shed = Arc::new(AtomicU64::new(0));
        let ingest = IngestHandle {
            tx,
            seq: Arc::new(AtomicU64::new(0)),
            shed: Arc::clone(&shed),
            num_edges,
        };
        #[expect(
            clippy::expect_used,
            reason = "start-up, before any request is accepted: a host that cannot spawn one \
                      thread cannot serve"
        )]
        let writer = std::thread::Builder::new()
            .name("anc-serve-writer".into())
            .spawn(move || writer_loop(backend, ends, cfg, levels, modes, shed, stats))
            .expect("spawn writer thread");
        Ok(Self { ingest, last, writer: Some(writer) })
    }

    /// A cloneable submission handle.
    pub fn ingest_handle(&self) -> IngestHandle {
        self.ingest.clone()
    }

    /// A fresh wait-free reader cursor, at the newest snapshot. The writer
    /// subscribes it between two cycles (publishing nothing for it), so this
    /// waits for the cycle in progress; once the writer has exited it is a
    /// cursor at the last snapshot.
    pub fn reader(&self) -> SnapshotReader {
        let (done, rx) = mpsc::sync_channel(1);
        if self.ingest.tx.send(Job::Subscribe { done }).is_ok() {
            if let Ok(reader) = rx.recv() {
                return reader;
            }
        }
        // The writer has exited, and its `WriterEnds` set `last` before the
        // job queue (and the reply sender in it) closed.
        self.last.wait().clone()
    }

    /// Graceful shutdown: queues a stop marker behind all pending ingest
    /// (FIFO — everything already queued is applied and published first),
    /// compacts the WAL for a durable backend, joins the writer, and
    /// returns the final state.
    #[expect(
        clippy::expect_used,
        reason = "`shutdown` consumes `self`, so the handle is taken once; a writer panic is \
                  re-raised here rather than reported as a clean shutdown"
    )]
    pub fn shutdown(mut self) -> ShutdownReport {
        // A full queue or an already-dead writer both resolve at join.
        let _ = self.ingest.tx.send(Job::Stop);
        self.writer.take().expect("shutdown called once").join().expect("writer thread panicked")
    }
}

/// Applies one coalesced same-timestamp run and accounts for it.
fn apply_run(
    backend: &mut EngineBackend,
    stats: &mut ServerStats,
    t: f64,
    edges: &[EdgeId],
    job_meta: &[(u64, Instant)],
    applied_seq: &mut u64,
    wal_error: &mut Option<RestoreError>,
) {
    if edges.is_empty() || wal_error.is_some() {
        return;
    }
    match backend.activate_batch(edges, t) {
        Ok(repairs) => stats.repairs += repairs,
        Err(e) => {
            *wal_error = Some(e);
            return;
        }
    }
    stats.applied_batches += 1;
    stats.ingested_jobs += job_meta.len() as u64;
    stats.ingested_edges += edges.len() as u64;
    if job_meta.len() > 1 {
        stats.coalesced_jobs += job_meta.len() as u64;
    }
    stats.max_batch_edges = stats.max_batch_edges.max(edges.len() as u64);
    // Latency observability only: never feeds clustering state or the WAL payload.
    let now = Instant::now();
    for &(seq, enqueued) in job_meta {
        let nanos = now.duration_since(enqueued).as_nanos().min(u128::from(u64::MAX)) as u64;
        stats.apply_latency.record(nanos);
        *applied_seq = (*applied_seq).max(seq);
    }
}

/// Copies the engine's lifetime cluster-cache counters into `stats`.
fn note_cache(stats: &mut ServerStats, engine: &AncEngine) {
    let cache = engine.cluster_cache();
    (stats.cache_hits, stats.cache_misses) = (cache.hits(), cache.misses());
}

/// What the writer thread owns of the handoff: the job queue's receiving
/// end and the chain's publishing end.
struct WriterEnds {
    jobs: Receiver<Job>,
    publisher: Publisher<ServeSnapshot>,
    last: Arc<OnceLock<SnapshotReader>>,
}

impl Drop for WriterEnds {
    /// On the writer's exit, by any path: leaves a cursor at the last
    /// snapshot for [`ServerCore::reader`]. This runs before the fields drop,
    /// so before the queue closes on whatever `Subscribe` is still in it.
    fn drop(&mut self) {
        let _ = self.last.set(SnapshotReader::new(self.publisher.subscribe()));
    }
}

/// The single-writer loop: drain → coalesce → apply → refresh → publish.
///
/// Readers see only the published `levels`, so those are the index's live
/// set while the loop runs: a weight change repairs `k` partitions per
/// published level `≥ 1` instead of `k` per level `≥ 1` (DESIGN.md §12). Before it hands
/// the engine back, the loop makes every level live again, which syncs the
/// stale ones from the current weights.
fn writer_loop(
    mut backend: EngineBackend,
    mut ends: WriterEnds,
    cfg: ServeConfig,
    levels: Vec<usize>,
    modes: Vec<ClusterMode>,
    shed: Arc<AtomicU64>,
    mut stats: ServerStats,
) -> ShutdownReport {
    let n = backend.engine().graph().n();
    let num_levels = backend.engine().num_levels();
    let default_level = backend.engine().default_level();
    let mut applied_seq = 0u64;
    let mut wal_error: Option<RestoreError> = None;
    let mut stop = false;
    // Reused across cycles: each is empty again by the end of one.
    let mut jobs: Vec<Job> = Vec::new();
    let mut flushes: Vec<SyncSender<u64>> = Vec::new();
    let mut subscribers: Vec<SyncSender<SnapshotReader>> = Vec::new();
    let mut run_edges: Vec<EdgeId> = Vec::new();
    let mut run_meta: Vec<(u64, Instant)> = Vec::new();
    backend.set_live_levels(&levels);

    'serve: while !stop {
        // Block for the first job, then opportunistically drain what is
        // already queued — the coalesced cycle grows with queue depth.
        let first = match ends.jobs.recv() {
            Ok(job) => job,
            Err(_) => break 'serve, // every handle dropped without Stop
        };
        jobs.push(first);
        while jobs.len() < cfg.coalesce_max {
            match ends.jobs.try_recv() {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        // A new cursor needs no new snapshot: a cycle of nothing else
        // publishes none.
        let publish = jobs.iter().any(|job| !matches!(job, Job::Subscribe { .. }));

        let mut run_t = 0.0f64;
        for job in jobs.drain(..) {
            match job {
                Job::Ingest { seq, t, edges, enqueued } => {
                    // Runs merge consecutive same-timestamp jobs; a new
                    // timestamp closes the run (activations at distinct
                    // times cannot share one activate_batch call).
                    if !run_meta.is_empty() && t != run_t {
                        apply_run(
                            &mut backend,
                            &mut stats,
                            run_t,
                            &run_edges,
                            &run_meta,
                            &mut applied_seq,
                            &mut wal_error,
                        );
                        run_edges.clear();
                        run_meta.clear();
                    }
                    run_t = t;
                    run_edges.extend_from_slice(&edges);
                    run_meta.push((seq, enqueued));
                }
                Job::Flush { done } => flushes.push(done),
                Job::Subscribe { done } => subscribers.push(done),
                Job::Stop => {
                    stop = true;
                    break;
                }
            }
        }
        apply_run(
            &mut backend,
            &mut stats,
            run_t,
            &run_edges,
            &run_meta,
            &mut applied_seq,
            &mut wal_error,
        );
        run_edges.clear();
        run_meta.clear();

        if publish {
            #[cfg(feature = "debug-invariants")]
            if let Err(violation) = backend.engine().check_invariants() {
                panic!("serving invariant violation after apply: {violation:?}");
            }

            let view = backend.engine().refresh_view(&levels, &modes);
            note_cache(&mut stats, backend.engine());
            stats.shed = shed.load(Ordering::Acquire);
            stats.publishes += 1;
            let epoch = ends.publisher.epoch() + 1;
            let snapshot = ServeSnapshot {
                epoch,
                applied_seq,
                n,
                num_levels,
                default_level,
                members: index_members(&view, Some(&ends.publisher.current())),
                view,
                stats: stats.clone(),
            };
            ends.publisher.publish(snapshot);
            for done in flushes.drain(..) {
                // A departed flusher is not an error.
                let _ = done.send(epoch);
            }
        }
        for done in subscribers.drain(..) {
            // Nor is a departed subscriber.
            let _ = done.send(SnapshotReader::new(ends.publisher.subscribe()));
        }
        if wal_error.is_some() {
            // Durability broken: stop serving rather than silently
            // diverging from the log.
            break 'serve;
        }
    }

    if let EngineBackend::Durable(durable) = &mut backend {
        if wal_error.is_none() {
            // Fold the log into a fresh base snapshot so restart recovery
            // is snapshot-only.
            wal_error = durable.compact().err();
        }
    }
    let all: Vec<usize> = (0..num_levels).collect();
    backend.set_live_levels(&all);
    stats.shed = shed.load(Ordering::Acquire);
    ShutdownReport { backend, stats, final_epoch: ends.publisher.epoch(), wal_error }
}

#[cfg(test)]
mod tests {
    use anc_core::AncConfig;
    use anc_graph::gen::connected_caveman;

    use super::*;

    /// With no writer left to subscribe one, a new cursor is the one the
    /// writer left at its last snapshot, whichever way the exit raced it.
    #[test]
    fn a_reader_taken_after_the_writer_exits_is_at_the_last_snapshot() {
        let cfg = AncConfig { k: 2, rep: 1, ..Default::default() };
        let engine = AncEngine::new(connected_caveman(4, 6).graph, cfg, 42);
        let core = ServerCore::start(EngineBackend::Volatile(engine), ServeConfig::default())
            .expect("server core");
        let ingest = core.ingest_handle();
        ingest.submit(1.0, vec![0, 1]).expect("queue has room");
        ingest.tx.send(Job::Stop).expect("writer alive");
        assert_eq!(ingest.flush(), Err(IngestError::Closed));
        let mut reader = core.reader();
        let report = core.shutdown();
        assert!(report.final_epoch > 0);
        assert_eq!(reader.snapshot().epoch, report.final_epoch);
    }

    /// While the writer runs only the published level is live, so each
    /// weight change repairs `k` partitions, not `k · (L − 1)`; the engine
    /// handed back, volatile or durable, is synced at every level and
    /// equals a restore of its own state, which rebuilds the whole index.
    #[test]
    fn the_engine_handed_back_is_synced_at_every_level() {
        let dir = std::env::temp_dir().join(format!("anc_hand_back_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = || {
            let cfg = AncConfig { k: 2, rep: 1, ..Default::default() };
            AncEngine::new(connected_caveman(4, 6).graph, cfg, 42)
        };
        let durable = DurableEngine::create(fresh(), &dir, Default::default()).expect("create");
        for backend in [EngineBackend::Volatile(fresh()), EngineBackend::Durable(durable)] {
            let core = ServerCore::start(backend, ServeConfig::default()).expect("server core");
            let ingest = core.ingest_handle();
            for i in 0..40u32 {
                let edges = vec![i % 30, (i * 7) % 30];
                ingest.submit(1.0 + f64::from(i) * 0.1, edges).expect("room");
                if i % 8 == 7 {
                    ingest.flush().expect("writer alive");
                }
            }
            let report = core.shutdown();
            assert!(report.wal_error.is_none());
            let (repairs, edges) = (report.stats.repairs, report.stats.ingested_edges as usize);
            assert!(repairs.updates > 0);
            assert!(
                repairs.updates + repairs.skips <= 2 * edges,
                "{repairs:?} for {edges} edges: more than k partitions a change"
            );
            let engine = report.backend.engine();
            assert!((0..engine.num_levels()).all(|l| engine.pyramids().is_live(l)));
            engine.check_invariants().expect("invariants");
            let rebuilt = AncEngine::from_snapshot(engine.to_snapshot()).expect("restore");
            assert!(
                engine.state_bytes_for_test() == rebuilt.state_bytes_for_test(),
                "the hand-back differs from a rebuild"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
