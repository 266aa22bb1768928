//! The protocol-agnostic serving core: single-writer ingest with
//! coalescing, wait-free epoch'd snapshot publication, backpressure.
//!
//! Architecture (DESIGN.md §12): one writer thread owns the engine
//! ([`EngineBackend`] — plain [`AncEngine`] or WAL-backed
//! [`DurableEngine`]) and drains a bounded MPSC ingest queue: it blocks for
//! a job, takes what is already queued (256 jobs at most, so the applied
//! batch grows with queue depth) and runs one cycle over them. A cycle
//! merges consecutive same-timestamp jobs into single
//! [`AncEngine::activate_batch`] calls, refreshes the cluster cache once and
//! publishes one immutable [`ServeSnapshot`] — or, if the write-ahead log
//! failed, publishes nothing, answers no flush and stops. Readers never see
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
    /// Granularity levels refreshed and published with every snapshot;
    /// empty selects the engine's default level.
    pub levels: Vec<usize>,
    /// Cluster modes published per level; empty selects
    /// [`ClusterMode::Even`].
    pub modes: Vec<ClusterMode>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { queue_capacity: 1024, levels: Vec::new(), modes: Vec::new() }
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
    /// Zero queue capacity.
    EmptyConfig,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::LevelOutOfRange { level, num_levels } => {
                write!(f, "publish level {level} out of range (engine has {num_levels})")
            }
            ServeError::EmptyConfig => {
                write!(f, "queue_capacity must be nonzero")
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
#[derive(Clone)]
pub struct IngestHandle {
    tx: SyncSender<Job>,
    // Plain counters that publish nothing, bumped `AcqRel` and read
    // `Acquire` all the same: the relaxed ordering is denied tree-wide
    // (`ci.sh`), so no handshake can ever be written with a weak side.
    seq: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
    num_edges: usize,
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
    /// applied and published, and returns the epoch of that publication;
    /// [`IngestError::Closed`] when the writer exits first, or when the
    /// write-ahead log fails in the cycle that holds the barrier.
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
    /// Index repair work of every applied batch, summed: per weight change
    /// and repaired partition, an update when the repair wrote a node and a
    /// skip when it wrote none. Only the published levels are live while
    /// the writer runs, so this counts `k` partitions per published level
    /// `≥ 1` per weight change.
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
        let (writer, ingest) = Writer::new(backend, &cfg)?;
        let last = Arc::clone(&writer.ends.last);
        #[expect(
            clippy::expect_used,
            reason = "start-up, before any request is accepted: a host that cannot spawn one \
                      thread cannot serve"
        )]
        let writer = std::thread::Builder::new()
            .name("anc-serve-writer".into())
            .spawn(move || writer.serve())
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

/// Jobs one cycle drains at most: an idle server applies each job in a
/// cycle of its own, a backed-up queue up to this many in one apply and one
/// publish.
const DRAIN_MAX: usize = 256;

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

/// The served engine and what every snapshot of it carries: the published
/// levels and modes, the counters, the highest sequence number applied.
struct Served {
    backend: EngineBackend,
    levels: Vec<usize>,
    modes: Vec<ClusterMode>,
    shed: Arc<AtomicU64>,
    stats: ServerStats,
    applied_seq: u64,
}

impl Served {
    /// The snapshot that follows `prev`, or epoch 0 when there is none:
    /// refreshes the published clusterings, copies the engine's lifetime
    /// cache counters and the shed count into the stats, and keeps `prev`'s
    /// member index of every clustering the refresh left as it was.
    fn snapshot(&mut self, prev: Option<&ServeSnapshot>) -> ServeSnapshot {
        let engine = self.backend.engine();
        let view = engine.refresh_view(&self.levels, &self.modes);
        let epoch = prev.map_or(0, |p| p.epoch + 1);
        let stats = &mut self.stats;
        let cache = engine.cluster_cache();
        (stats.cache_hits, stats.cache_misses) = (cache.hits(), cache.misses());
        stats.shed = self.shed.load(Ordering::Acquire);
        stats.publishes = epoch;
        ServeSnapshot {
            epoch,
            applied_seq: self.applied_seq,
            n: engine.graph().n(),
            num_levels: engine.num_levels(),
            default_level: engine.default_level(),
            members: index_members(&view, prev),
            view,
            stats: stats.clone(),
        }
    }
}

/// Everything the writer thread owns: [`Self::cycle`] is one drain →
/// coalesce → apply → refresh → publish, and [`Self::finish`] hands the
/// engine back.
struct Writer {
    served: Served,
    ends: WriterEnds,
    /// The open run — consecutive same-timestamp ingests, applied as one
    /// batch once a later timestamp or the cycle's end closes it — and the
    /// cycle's barriers and cursor requests, answered at its end.
    run_t: f64,
    run_edges: Vec<EdgeId>,
    run_jobs: Vec<(u64, Instant)>,
    flushes: Vec<SyncSender<u64>>,
    subscribers: Vec<SyncSender<SnapshotReader>>,
    /// The write-ahead log's failure; the cycle that meets it is the last.
    wal_error: Option<RestoreError>,
}

impl Writer {
    /// Validates `cfg`, builds the epoch-0 snapshot, and opens the queue
    /// whose sending end the returned handle holds. Readers see only the
    /// published levels, so from then on those are the index's live set: a
    /// weight change repairs `k` partitions per published level `≥ 1`
    /// instead of `k` per level `≥ 1` (DESIGN.md §12).
    fn new(backend: EngineBackend, cfg: &ServeConfig) -> Result<(Self, IngestHandle), ServeError> {
        if cfg.queue_capacity == 0 {
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
        let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity);
        let num_edges = engine.graph().m();
        let ingest = IngestHandle { tx, seq: Arc::default(), shed: Arc::default(), num_edges };
        let mut served = Served {
            backend,
            levels,
            modes,
            shed: Arc::clone(&ingest.shed),
            stats: ServerStats::default(),
            applied_seq: 0,
        };
        let initial = served.snapshot(None);
        served.backend.set_live_levels(&served.levels);
        let ends =
            WriterEnds { jobs: rx, publisher: Publisher::new(initial), last: Arc::default() };
        let writer = Self {
            served,
            ends,
            run_t: 0.0,
            run_edges: Vec::new(),
            run_jobs: Vec::new(),
            flushes: Vec::new(),
            subscribers: Vec::new(),
            wal_error: None,
        };
        Ok((writer, ingest))
    }

    /// The writer thread: block for one job, take what is already queued
    /// (the cycle grows with queue depth), run one cycle; until a cycle says
    /// stop or every handle is dropped.
    fn serve(mut self) -> ShutdownReport {
        let mut drained = Vec::new();
        while let Ok(first) = self.ends.jobs.recv() {
            drained.push(first);
            drained.extend(self.ends.jobs.try_iter().take(DRAIN_MAX - 1));
            if self.cycle(drained.drain(..)) {
                break;
            }
        }
        self.finish()
    }

    /// One cycle over jobs drained together: applies their same-timestamp
    /// runs in queue order, publishes once unless it held nothing but cursor
    /// requests, then answers its barriers and cursor requests. Returns
    /// whether the writer stops: at a `Stop`, whose followers are dropped,
    /// or at a write-ahead-log failure, which publishes nothing and drops
    /// every barrier, since the run one follows may have been skipped.
    fn cycle(&mut self, jobs: impl IntoIterator<Item = Job>) -> bool {
        // A new cursor needs no new snapshot: a cycle of nothing else
        // publishes none.
        let (mut publish, mut stop) = (false, false);
        for job in jobs {
            publish |= !matches!(job, Job::Subscribe { .. });
            match job {
                Job::Ingest { seq, t, edges, enqueued } => {
                    // A new timestamp closes the run: activations at
                    // distinct times cannot share one activate_batch call.
                    if !self.run_jobs.is_empty() && t != self.run_t {
                        self.close_run();
                    }
                    self.run_t = t;
                    self.run_edges.extend_from_slice(&edges);
                    self.run_jobs.push((seq, enqueued));
                }
                Job::Flush { done } => self.flushes.push(done),
                Job::Subscribe { done } => self.subscribers.push(done),
                Job::Stop => {
                    stop = true;
                    break;
                }
            }
        }
        self.close_run();

        if self.wal_error.is_some() {
            // Durability broken: stop serving rather than silently diverge
            // from the log, and acknowledge nothing.
            self.flushes.clear();
            stop = true;
        } else if publish {
            #[cfg(feature = "debug-invariants")]
            if let Err(violation) = self.served.backend.engine().check_invariants() {
                panic!("serving invariant violation after apply: {violation:?}");
            }
            let snapshot = self.served.snapshot(Some(&self.ends.publisher.current()));
            let epoch = self.ends.publisher.publish(snapshot);
            for done in self.flushes.drain(..) {
                // A departed flusher is not an error.
                let _ = done.send(epoch);
            }
        }
        for done in self.subscribers.drain(..) {
            // Nor is a departed subscriber.
            let _ = done.send(SnapshotReader::new(self.ends.publisher.subscribe()));
        }
        stop
    }

    /// Closes the open run: applies it as one batch, unless the log has
    /// failed already, and accounts for it.
    fn close_run(&mut self) {
        if !self.run_edges.is_empty() && self.wal_error.is_none() {
            let served = &mut self.served;
            match served.backend.activate_batch(&self.run_edges, self.run_t) {
                Ok(repairs) => {
                    let (jobs, edges) = (self.run_jobs.len() as u64, self.run_edges.len() as u64);
                    let stats = &mut served.stats;
                    stats.repairs += repairs;
                    stats.applied_batches += 1;
                    stats.ingested_jobs += jobs;
                    stats.ingested_edges += edges;
                    if jobs > 1 {
                        stats.coalesced_jobs += jobs;
                    }
                    stats.max_batch_edges = stats.max_batch_edges.max(edges);
                    // Latency observability only: never feeds clustering
                    // state or the WAL payload.
                    let now = Instant::now();
                    for &(seq, enqueued) in &self.run_jobs {
                        let nanos = now.duration_since(enqueued).as_nanos();
                        stats.apply_latency.record(nanos.min(u128::from(u64::MAX)) as u64);
                        served.applied_seq = served.applied_seq.max(seq);
                    }
                }
                Err(e) => self.wal_error = Some(e),
            }
        }
        self.run_edges.clear();
        self.run_jobs.clear();
    }

    /// After the last cycle: folds a durable log whose writes all succeeded
    /// into a fresh base snapshot, so restart recovery is snapshot-only,
    /// makes every level live again, which syncs the stale ones from the
    /// current weights, and hands the engine back.
    fn finish(self) -> ShutdownReport {
        let Served { mut backend, shed, mut stats, .. } = self.served;
        let mut wal_error = self.wal_error;
        if let EngineBackend::Durable(durable) = &mut backend {
            if wal_error.is_none() {
                wal_error = durable.compact().err();
            }
        }
        let all: Vec<usize> = (0..backend.engine().num_levels()).collect();
        backend.set_live_levels(&all);
        stats.shed = shed.load(Ordering::Acquire);
        ShutdownReport { backend, stats, final_epoch: self.ends.publisher.epoch(), wal_error }
    }
}

#[cfg(test)]
mod tests {
    use anc_core::{AncConfig, DurabilityOptions};
    use anc_graph::gen::connected_caveman;

    use super::*;

    fn fresh_engine() -> AncEngine {
        let cfg = AncConfig { k: 2, rep: 1, ..Default::default() };
        AncEngine::new(connected_caveman(4, 6).graph, cfg, 42)
    }

    fn ingest(seq: u64, t: f64, edges: &[EdgeId]) -> Job {
        Job::Ingest { seq, t, edges: edges.to_vec(), enqueued: Instant::now() }
    }

    /// The writer's cycle, driven by hand with no thread: a same-time pair
    /// coalesces into one run, a later timestamp closes it, a `Flush` is
    /// answered with the cycle's one epoch, a cycle of nothing but a cursor
    /// request publishes nothing, and the engine handed back equals a serial
    /// replay of the batches.
    #[test]
    fn one_cycle_applies_coalesces_publishes_and_answers() {
        let backend = EngineBackend::Volatile(fresh_engine());
        let (mut writer, _ingest) = Writer::new(backend, &ServeConfig::default()).expect("writer");
        let (flushed, flush_rx) = mpsc::sync_channel(1);
        let stop = writer.cycle([
            ingest(1, 1.0, &[0, 1]),
            ingest(2, 1.0, &[2]),
            ingest(3, 2.0, &[5]),
            Job::Flush { done: flushed },
        ]);
        assert!(!stop);
        assert_eq!(writer.ends.publisher.epoch(), 1, "one publishing cycle, one epoch");
        assert_eq!(flush_rx.try_recv(), Ok(1), "the flush is answered with the cycle's epoch");
        let snap = writer.ends.publisher.current();
        assert_eq!(snap.applied_seq, 3);
        let stats = &snap.stats;
        assert_eq!((stats.ingested_jobs, stats.applied_batches, stats.coalesced_jobs), (3, 2, 2));
        assert_eq!((stats.ingested_edges, stats.max_batch_edges, stats.publishes), (4, 3, 1));

        let (subscribed, subscribe_rx) = mpsc::sync_channel(1);
        assert!(!writer.cycle([Job::Subscribe { done: subscribed }]));
        assert_eq!(writer.ends.publisher.epoch(), 1, "a cursor request publishes nothing");
        assert_eq!(subscribe_rx.try_recv().expect("a cursor").epoch(), 1);

        assert!(!writer.cycle([ingest(4, 3.0, &[7, 7])]));
        assert_eq!(writer.ends.publisher.epoch(), 2);
        assert_eq!(writer.ends.publisher.current().applied_seq, 4);
        assert!(writer.cycle([Job::Stop, ingest(5, 4.0, &[8])]), "a Stop ends the writer");
        let report = writer.finish();
        assert!(report.wal_error.is_none());
        assert_eq!(report.stats.ingested_jobs, 4, "the job behind the Stop is dropped");

        let mut serial = fresh_engine();
        for (edges, t) in [(&[0, 1, 2][..], 1.0), (&[5], 2.0), (&[7, 7], 3.0)] {
            let _ = serial.activate_batch(edges, t);
        }
        assert!(
            report.backend.engine().state_bytes_for_test() == serial.state_bytes_for_test(),
            "the hand-back differs from a serial replay"
        );
    }

    /// A cycle whose write-ahead log fails acknowledges nothing: the first
    /// run is logged and applied but its compaction fails, the second is
    /// skipped, and the barrier behind both is dropped rather than answered
    /// with an epoch that holds neither. The cycle publishes nothing and
    /// stops the writer, and the report carries the error.
    #[test]
    fn a_failed_log_write_publishes_nothing_and_answers_no_flush() {
        let dir = std::env::temp_dir().join(format!("anc_wal_fail_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurabilityOptions { compact_every: 1 };
        let durable = DurableEngine::create(fresh_engine(), &dir, opts).expect("create");
        std::fs::remove_dir_all(&dir).expect("remove the log's directory");
        let backend = EngineBackend::Durable(durable);
        let (mut writer, _ingest) = Writer::new(backend, &ServeConfig::default()).expect("writer");
        let (flushed, flush_rx) = mpsc::sync_channel(1);
        let stop = writer.cycle([
            ingest(1, 1.0, &[0, 1]),
            ingest(2, 2.0, &[2]),
            Job::Flush { done: flushed },
        ]);
        assert!(stop, "a failed log stops the writer");
        assert_eq!(flush_rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
        assert_eq!(writer.ends.publisher.epoch(), 0, "nothing is published");
        let report = writer.finish();
        assert!(report.wal_error.is_some());
        assert_eq!(report.final_epoch, 0);
    }

    /// With no writer left to subscribe one, a new cursor is the one the
    /// writer left at its last snapshot, whichever way the exit raced it.
    #[test]
    fn a_reader_taken_after_the_writer_exits_is_at_the_last_snapshot() {
        let backend = EngineBackend::Volatile(fresh_engine());
        let core = ServerCore::start(backend, ServeConfig::default()).expect("server core");
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
        let durable =
            DurableEngine::create(fresh_engine(), &dir, Default::default()).expect("create");
        for backend in [EngineBackend::Volatile(fresh_engine()), EngineBackend::Durable(durable)] {
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
