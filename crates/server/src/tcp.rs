//! The hand-rolled TCP front end and a matching blocking client.
//!
//! One accept thread (non-blocking listener polled against the stop
//! flag), one thread per connection, at most [`MAX_CONNECTIONS`] of them.
//! Each connection owns a cloned [`IngestHandle`] and a private
//! [`SnapshotReader`], so request handling
//! (`ConnState::respond`) touches no shared mutable state: queries are
//! wait-free snapshot reads, ingest is a non-blocking `try_send`, and
//! every failure becomes a typed [`Response::Error`] frame — the handler
//! never panics (the crate denies `clippy::{unwrap_used, expect_used, panic}`
//! and friends outside tests). Both ends move bytes in bursts: a connection
//! thread answers every frame one `read` brought in and sends the replies
//! with one `write` (`serve_conn`), and [`WireClient`] reads through the same
//! buffered parser.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use anc_core::BadActivation;
use anc_graph::codec::{push_frame, CodecError};

use crate::service::{IngestError, IngestHandle, ServerCore, ShutdownReport};
use crate::snapshot::SnapshotReader;
use crate::wire::{
    encode_labels, encode_members, ErrorCode, FrameError, FrameReader, Request, Response,
    StatsReply, IO_BUF,
};

/// Per-connection read timeout; bounds how long a quiet connection waits
/// before re-checking the stop flag.
const READ_POLL: Duration = Duration::from_millis(100);
/// Per-connection write timeout: how long one `write` of buffered replies
/// may wait on a peer that has stopped reading before the connection is
/// dropped (and the longest a parked connection can hold up a shutdown).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Accept-loop poll interval while the listener has no pending connection.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Live connections (threads) the accept loop serves at once. One past it
/// is sent an `Overloaded` error frame and closed.
pub const MAX_CONNECTIONS: usize = 256;

/// Per-connection request handler state.
pub(crate) struct ConnState {
    ingest: IngestHandle,
    reader: SnapshotReader,
    stop: Arc<AtomicBool>,
}

impl ConnState {
    /// Answers one decoded request: appends the encoded reply payload to
    /// `out`. Total and non-panicking: every failure maps to a typed
    /// [`Response::Error`] (the crate-wide panic lints cover this handler;
    /// the snapshot reads under it are wait-free).
    pub fn respond(&mut self, req: Request, out: &mut Vec<u8>) {
        let response = match req {
            Request::Ping => Response::Pong,
            Request::Ingest { t, edges } => match self.ingest.submit(t, edges) {
                Ok(seq) => Response::Ingested { seq },
                Err(e) => ingest_error(e),
            },
            Request::Flush => match self.ingest.flush() {
                Ok(epoch) => Response::Flushed { epoch },
                Err(e) => ingest_error(e),
            },
            Request::SameCluster { u, v, level, mode } => {
                let snap = self.reader.snapshot();
                match snap.same_cluster_at(u, v, level, mode) {
                    Some(value) => Response::SameCluster { epoch: snap.epoch, value },
                    None => not_answerable(&snap, level, mode, Some(u.max(v))),
                }
            }
            Request::ClusterSummary { level, mode } => {
                let snap = self.reader.snapshot();
                match snap.clusters_at(level, mode) {
                    Some(c) => Response::Summary {
                        epoch: snap.epoch,
                        generation: snap.view.generation,
                        num_clusters: c.num_clusters() as u64,
                        num_assigned: c.num_assigned() as u64,
                    },
                    None => not_answerable(&snap, level, mode, None),
                }
            }
            Request::ClusterLabels { level, mode } => {
                let snap = self.reader.snapshot();
                match snap.clusters_at(level, mode) {
                    // Straight from the published labels, not through an
                    // owned `Response::Labels`.
                    Some(c) => {
                        return encode_labels(out, snap.epoch, snap.view.generation, c.labels())
                    }
                    None => not_answerable(&snap, level, mode, None),
                }
            }
            Request::Members { v, level, mode } => {
                let snap = self.reader.snapshot();
                match snap.member_slice_at(v, level, mode) {
                    // Straight from the snapshot's member index, like a
                    // label dump.
                    Some(members) => return encode_members(out, snap.epoch, members),
                    None => not_answerable(&snap, level, mode, Some(v)),
                }
            }
            Request::Stats => {
                let snap = self.reader.snapshot();
                let s = &snap.stats;
                Response::Stats(StatsReply {
                    epoch: snap.epoch,
                    applied_seq: snap.applied_seq,
                    generation: snap.view.generation,
                    ingested_jobs: s.ingested_jobs,
                    ingested_edges: s.ingested_edges,
                    applied_batches: s.applied_batches,
                    coalesced_jobs: s.coalesced_jobs,
                    max_batch_edges: s.max_batch_edges,
                    shed: self.ingest.shed(),
                    cache_hits: s.cache_hits,
                    cache_misses: s.cache_misses,
                    apply_count: s.apply_latency.count(),
                    apply_p50_ns: s.apply_latency.quantile(0.50),
                    apply_p99_ns: s.apply_latency.quantile(0.99),
                    apply_p999_ns: s.apply_latency.quantile(0.999),
                    apply_max_ns: s.apply_latency.max(),
                })
            }
            Request::Shutdown => {
                self.stop.store(true, Ordering::Release);
                Response::ShuttingDown
            }
        };
        response.encode(out);
    }
}

fn ingest_error(e: IngestError) -> Response {
    match e {
        IngestError::Overloaded => {
            Response::Error { code: ErrorCode::Overloaded, msg: "ingest queue full".into() }
        }
        IngestError::Closed => {
            Response::Error { code: ErrorCode::Closed, msg: "writer has exited".into() }
        }
        IngestError::BadActivation(bad) => {
            let code = match bad {
                BadActivation::NonFiniteTime(_) => ErrorCode::Malformed,
                BadActivation::EdgeOutOfRange { .. } => ErrorCode::OutOfRange,
            };
            Response::Error { code, msg: bad.to_string() }
        }
    }
}

/// Distinguishes "that level/mode is not in the published set" from "the
/// node id is out of range" for a query the snapshot declined to answer.
fn not_answerable(
    snap: &crate::snapshot::ServeSnapshot,
    level: usize,
    mode: anc_core::ClusterMode,
    node: Option<anc_graph::NodeId>,
) -> Response {
    if snap.clusters_at(level, mode).is_none() {
        Response::Error {
            code: ErrorCode::NotPublished,
            msg: format!("level {level} ({mode:?}) is not in the published set"),
        }
    } else {
        let node = node.map(u64::from).unwrap_or_default();
        Response::Error {
            code: ErrorCode::OutOfRange,
            msg: format!("node {node} out of range (n = {})", snap.n),
        }
    }
}

/// One `write` of every buffered reply. `false` drops the connection: the
/// peer is gone, or it stopped reading and the write timed out — a short
/// count is that timeout expiring part-way, so it is not retried.
fn send<W: Write>(w: &mut W, out: &mut Vec<u8>) -> bool {
    if out.is_empty() {
        return true;
    }
    let sent = loop {
        match w.write(out) {
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            sent => break sent,
        }
    };
    let whole = matches!(sent, Ok(k) if k == out.len());
    out.clear();
    out.shrink_to(IO_BUF); // a label dump's worth of room is not kept
    whole
}

fn push_error(out: &mut Vec<u8>, msg: String) {
    push_frame(out, |out| Response::Error { code: ErrorCode::Malformed, msg }.encode(out));
}

/// The connection loop. Each pass answers every complete frame the read
/// buffer holds, framing the replies into one out buffer, and writes that
/// buffer once whenever the thread is about to block: before the `read` for
/// more requests, before a `Flush` waits on the writer, and when the unsent
/// replies pass [`IO_BUF`]. A pipelined burst that fits the buffers therefore
/// costs one `read` and one `write`, however many frames it holds.
fn serve_conn<S: Read + Write>(state: &mut ConnState, stream: &mut S) {
    let mut frames = FrameReader::new();
    let mut out = Vec::with_capacity(IO_BUF);
    loop {
        let closing = loop {
            let request = match frames.next_frame() {
                Ok(Some(payload)) => Request::decode(payload),
                Ok(None) => break false,
                // A bad length or a bad checksum: reject and close, the
                // stream cannot be resynced past either. Replies to the
                // frames before it are already in `out`.
                Err(e) => {
                    push_error(&mut out, e.to_string());
                    break true;
                }
            };
            match request {
                Ok(request) => {
                    if matches!(request, Request::Flush) && !send(stream, &mut out) {
                        return;
                    }
                    let last = matches!(request, Request::Shutdown);
                    push_frame(&mut out, |out| state.respond(request, out));
                    if last {
                        break true;
                    }
                }
                Err(e) => push_error(&mut out, e.to_string()),
            }
            if out.len() >= IO_BUF && !send(stream, &mut out) {
                return;
            }
        };
        if !send(stream, &mut out) || closing || state.stop.load(Ordering::Acquire) {
            return;
        }
        // Once per pass, so an idle connection's cursor does not keep alive
        // every snapshot published since its last query.
        state.reader.snapshot();
        match frames.fill(stream) {
            Ok(true) | Err(FrameError::Idle) => {}
            Ok(false) | Err(_) => return, // clean close, or a dead or stalled peer
        }
    }
}

/// Turns away a connection over [`MAX_CONNECTIONS`]: one error frame, then
/// close. The frame fits a fresh socket's send buffer, so the accept loop
/// does not wait on the peer.
fn refuse(mut stream: TcpStream) {
    let mut out = Vec::new();
    push_frame(&mut out, |out| {
        Response::Error {
            code: ErrorCode::Overloaded,
            msg: format!("connection limit {MAX_CONNECTIONS} reached"),
        }
        .encode(out);
    });
    let _ = stream.write_all(&out);
}

fn handle_conn(mut state: ConnState, mut stream: TcpStream) {
    // The listener is non-blocking; the accepted stream must not be.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(READ_POLL)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    serve_conn(&mut state, &mut stream);
}

/// The TCP server: owns the [`ServerCore`] plus the accept thread.
pub struct TcpServer {
    core: ServerCore,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// accepting connections against `core`.
    pub fn start<A: ToSocketAddrs>(core: ServerCore, addr: A) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let ingest = core.ingest_handle();
        let mut reader = core.reader();
        let accept_stop = Arc::clone(&stop);
        let accept =
            std::thread::Builder::new().name("anc-serve-accept".into()).spawn(move || {
                let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
                while !accept_stop.load(Ordering::Acquire) {
                    // Every poll, so the cursor each connection clones from
                    // pins nothing older than a few milliseconds, and an
                    // exited connection's thread (its stack mapping) is freed.
                    reader.snapshot();
                    for done in conns.extract_if(.., |handle| handle.is_finished()) {
                        let _ = done.join();
                    }
                    match listener.accept() {
                        Ok((stream, _)) if conns.len() >= MAX_CONNECTIONS => refuse(stream),
                        Ok((stream, _)) => {
                            let state = ConnState {
                                ingest: ingest.clone(),
                                reader: reader.clone(),
                                stop: Arc::clone(&accept_stop),
                            };
                            if let Ok(handle) = std::thread::Builder::new()
                                .name("anc-serve-conn".into())
                                .spawn(move || handle_conn(state, stream))
                            {
                                conns.push(handle);
                            }
                        }
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => std::thread::sleep(ACCEPT_POLL),
                    }
                }
                // Connection threads observe the stop flag within one read
                // poll; join them all before the listener drops.
                for handle in conns {
                    let _ = handle.join();
                }
            })?;
        Ok(TcpServer { core, local_addr, stop, accept: Some(accept) })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether a shutdown has been requested (e.g. by a wire
    /// [`Request::Shutdown`]).
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Direct in-process access to the serving core's submission handle.
    pub fn ingest_handle(&self) -> IngestHandle {
        self.core.ingest_handle()
    }

    /// Direct in-process access to a wait-free reader.
    pub fn reader(&self) -> SnapshotReader {
        self.core.reader()
    }

    /// Stops accepting, drains the connections, and shuts the core down
    /// gracefully (pending ingest applied, WAL compacted).
    pub fn shutdown(mut self) -> ShutdownReport {
        self.stop.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.core.shutdown()
    }
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport problem.
    Frame(FrameError),
    /// The server closed the connection where a response was expected.
    Disconnected,
    /// Undecodable response payload.
    Codec(CodecError),
    /// Connection-level I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Codec(e) => write!(f, "bad response payload: {e}"),
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking request/response client for the wire protocol.
pub struct WireClient {
    stream: TcpStream,
    out: Vec<u8>,
    frames: FrameReader,
}

impl WireClient {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient { stream, out: Vec::new(), frames: FrameReader::new() })
    }

    /// Sends one request (one `write`) and waits for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.out.clear();
        push_frame(&mut self.out, |out| req.encode(out));
        self.stream.write_all(&self.out)?;
        self.read_response()
    }

    /// Sends raw bytes verbatim — for pipelined bursts and for protocol
    /// tests (malformed frames, truncated writes, hostile length prefixes).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one response frame: from the read buffer when a previous
    /// `read` already brought it in, otherwise after one more.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        loop {
            if let Some(payload) = self.frames.next_frame()? {
                return Response::decode(payload).map_err(ClientError::Codec);
            }
            if !self.frames.fill(&mut self.stream)? {
                return Err(ClientError::Disconnected);
            }
        }
    }

    /// Half-closes the write side (simulates a mid-frame disconnect when
    /// called after a partial [`Self::send_raw`]).
    pub fn shutdown_write(&mut self) -> std::io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::io::Cursor;
    use std::time::Instant;

    use anc_core::{AncConfig, AncEngine, ClusterMode};
    use anc_graph::gen::connected_caveman;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use super::*;
    use crate::service::{EngineBackend, ServeConfig};
    use crate::wire::{read_frame, write_frame, MAX_FRAME};

    const EVEN: ClusterMode = ClusterMode::Even;

    fn core(cliques: usize, size: usize) -> (ServerCore, usize) {
        let cfg = AncConfig { k: 2, rep: 1, ..Default::default() };
        let engine = AncEngine::new(connected_caveman(cliques, size).graph, cfg, 42);
        let level = engine.default_level();
        let serve = ServeConfig { levels: vec![level], modes: vec![EVEN], ..Default::default() };
        (ServerCore::start(EngineBackend::Volatile(engine), serve).expect("server core"), level)
    }

    /// A served 24-node network and one connection's state over it.
    fn conn() -> (ServerCore, ConnState, usize) {
        let (core, level) = core(4, 6);
        let state = ConnState {
            ingest: core.ingest_handle(),
            reader: core.reader(),
            stop: Arc::new(AtomicBool::new(false)),
        };
        (core, state, level)
    }

    enum Step {
        Data(Vec<u8>),
        Timeout,
    }

    /// An in-memory stream. Reads follow the script, one step per `read`, and
    /// report a clean close after it; every `write` call is recorded on its
    /// own, with the published epoch at that moment when there is a `probe`.
    #[derive(Default)]
    struct Scripted {
        steps: VecDeque<Step>,
        reads: usize,
        writes: Vec<Vec<u8>>,
        /// Most bytes one `write` takes (a peer whose window has closed).
        accepts: Option<usize>,
        probe: Option<SnapshotReader>,
        epochs: Vec<u64>,
        /// Raises this stop flag during the read with this number.
        raise: Option<(usize, Arc<AtomicBool>)>,
    }

    impl Scripted {
        fn reading(steps: impl IntoIterator<Item = Step>) -> Self {
            Self { steps: steps.into_iter().collect(), ..Default::default() }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            if let Some((_, stop)) = self.raise.as_ref().filter(|(at, _)| *at == self.reads) {
                stop.store(true, Ordering::Release);
            }
            match self.steps.pop_front() {
                Some(Step::Data(mut bytes)) => {
                    let k = bytes.len().min(buf.len());
                    buf[..k].copy_from_slice(&bytes[..k]);
                    if k < bytes.len() {
                        self.steps.push_front(Step::Data(bytes.split_off(k)));
                    }
                    Ok(k)
                }
                Some(Step::Timeout) => Err(ErrorKind::WouldBlock.into()),
                None => Ok(0),
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let k = self.accepts.map_or(buf.len(), |most| most.min(buf.len()));
            self.writes.push(buf[..k].to_vec());
            if let Some(probe) = &mut self.probe {
                self.epochs.push(probe.snapshot().epoch);
            }
            Ok(k)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn framed(req: &Request) -> Vec<u8> {
        let mut out = Vec::new();
        push_frame(&mut out, |out| req.encode(out));
        out
    }

    fn pipeline(reqs: &[Request]) -> Vec<u8> {
        reqs.iter().flat_map(framed).collect()
    }

    /// Every frame in `bytes`, decoded; panics unless they are all well formed
    /// and nothing is left over.
    fn replies(bytes: &[u8]) -> Vec<Response> {
        let mut cursor = Cursor::new(bytes);
        let mut all = Vec::new();
        while let Some(payload) = read_frame(&mut cursor).expect("well-formed frame") {
            all.push(Response::decode(&payload).expect("well-formed reply"));
        }
        all
    }

    /// Runs the connection loop over `script` against a fresh server.
    fn serve(script: impl IntoIterator<Item = Step>) -> Scripted {
        let (core, mut state, _) = conn();
        let mut stream = Scripted::reading(script);
        serve_conn(&mut state, &mut stream);
        core.shutdown();
        stream
    }

    fn malformed(resp: &Response) -> bool {
        matches!(resp, Response::Error { code: ErrorCode::Malformed, .. })
    }

    #[test]
    fn a_pipelined_burst_costs_one_read_and_one_write() {
        let (core, mut state, level) = conn();
        let burst: Vec<Request> = (0..32u32)
            .map(|i| match i % 3 {
                0 => Request::SameCluster { u: i % 24, v: (7 * i) % 24, level, mode: EVEN },
                1 => Request::ClusterSummary { level, mode: EVEN },
                _ => Request::Members { v: i % 24, level, mode: EVEN },
            })
            .collect();
        let mut stream = Scripted::reading([Step::Data(pipeline(&burst))]);
        serve_conn(&mut state, &mut stream);
        assert_eq!(stream.reads, 2, "the burst, then the close");
        assert_eq!(stream.writes.len(), 1, "one write for 32 replies");
        let one_by_one: Vec<Response> = burst
            .iter()
            .map(|req| {
                let mut payload = Vec::new();
                state.respond(req.clone(), &mut payload);
                Response::decode(&payload).expect("reply decodes")
            })
            .collect();
        assert_eq!(replies(&stream.writes[0]), one_by_one, "request order");
        core.shutdown();
    }

    /// However the request bytes are cut into reads — inside a length prefix,
    /// inside a checksum, with timeouts between the pieces — the reply bytes
    /// are those of a single delivery.
    #[test]
    fn reply_bytes_do_not_depend_on_where_reads_cut_the_stream() {
        for seed in 0..32 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut bytes = Vec::new();
            for _ in 0..rng.gen_range(1..40usize) {
                let (u, v) = (rng.gen_range(0..30u32), rng.gen_range(0..30u32));
                let level = rng.gen_range(0..6usize);
                let req = match rng.gen_range(0..9u32) {
                    0 => Request::Ping,
                    1 => Request::Flush,
                    2 => Request::SameCluster { u, v, level, mode: EVEN },
                    3 => Request::ClusterSummary { level, mode: EVEN },
                    4 => Request::ClusterLabels { level, mode: EVEN },
                    5 => Request::Members { v, level, mode: ClusterMode::Power },
                    6 => Request::Stats,
                    // Refused before the queue: nothing the writer does
                    // asynchronously may reach a reply.
                    7 => Request::Ingest { t: f64::NAN, edges: vec![u, v] },
                    _ => {
                        write_frame(&mut bytes, &[0xEE, u as u8]).expect("vec write");
                        continue;
                    }
                };
                bytes.extend(framed(&req));
            }
            if rng.gen_bool(0.5) {
                let bad = bytes.len();
                bytes.extend(framed(&Request::Ping));
                bytes[bad + 4] ^= 0x55;
                bytes.extend(framed(&Request::Ping));
            }

            let whole = serve([Step::Data(bytes.clone())]);
            let mut pieces = Vec::new();
            let mut rest = bytes.as_slice();
            while !rest.is_empty() {
                let (piece, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(13)));
                pieces.push(Step::Data(piece.to_vec()));
                if rng.gen_bool(0.2) {
                    pieces.push(Step::Timeout);
                }
                rest = tail;
            }
            let cut = serve(pieces);
            assert_eq!(cut.writes.concat(), whole.writes.concat(), "seed {seed}");
            assert!(!whole.writes.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn idle_close_truncation_and_stall_budget() {
        let ping = framed(&Request::Ping);
        let (head, tail) = ping.split_at(5);
        let data = |bytes: &[u8]| Step::Data(bytes.to_vec());
        let stalls = |k: usize| (0..k).map(|_| Step::Timeout);

        // Timeouts at a frame boundary are idle polls, not stalls; the close
        // that follows the reply is clean.
        let idle = serve(stalls(60).chain([data(&ping)]).chain(stalls(60)));
        assert_eq!(replies(&idle.writes.concat()), [Response::Pong]);
        assert_eq!(idle.reads, 122);

        // A close inside a frame drops the connection without a reply.
        let truncated = serve([data(&ping), data(head)]);
        assert_eq!(replies(&truncated.writes.concat()), [Response::Pong]);

        // Fifty stalls inside one frame are tolerated, the fifty-first is not
        // (and the rest of the frame is never read).
        let slow = serve([data(head)].into_iter().chain(stalls(50)).chain([data(tail)]));
        assert_eq!(replies(&slow.writes.concat()), [Response::Pong]);
        let stalled = serve([data(head)].into_iter().chain(stalls(51)).chain([data(tail)]));
        assert!(stalled.writes.is_empty());
        assert_eq!((stalled.reads, stalled.steps.len()), (52, 1));
    }

    /// ROADMAP 4(d): a peer stalled inside a frame held a shutdown for the
    /// whole stall budget (50 read polls, 5 s on a socket). The stop flag is
    /// now seen after the read that timed out.
    #[test]
    fn a_stop_is_seen_one_read_into_a_stalled_half_frame() {
        let ping = framed(&Request::Ping);
        let (core, mut state, _) = conn();
        let half = Step::Data(ping[..5].to_vec());
        let mut stream =
            Scripted::reading([half].into_iter().chain((0..60).map(|_| Step::Timeout)));
        stream.raise = Some((2, Arc::clone(&state.stop)));
        serve_conn(&mut state, &mut stream);
        core.shutdown();
        assert!(stream.writes.is_empty());
        assert_eq!(stream.reads, 2, "the half frame, then the stall the stop was raised in");
    }

    /// A `Members` reply is encoded from the snapshot's member index, and its
    /// bytes are those of the owned reply holding a scan of the labels.
    #[test]
    fn a_members_reply_from_the_index_is_byte_identical() {
        let cfg = AncConfig { k: 2, rep: 1, ..Default::default() };
        let engine = AncEngine::new(connected_caveman(6, 5).graph, cfg, 42);
        let (n, level) = (engine.graph().n() as u32, engine.default_level());
        let modes = vec![EVEN, ClusterMode::Power];
        let serve = ServeConfig { levels: vec![level], modes: modes.clone(), ..Default::default() };
        let core = ServerCore::start(EngineBackend::Volatile(engine), serve).expect("server core");
        let mut state = ConnState {
            ingest: core.ingest_handle(),
            reader: core.reader(),
            stop: Arc::new(AtomicBool::new(false)),
        };
        for t in 0..4u32 {
            if t > 0 {
                state.ingest.submit(f64::from(t), (0..12 * t).collect()).expect("queue has room");
                state.ingest.flush().expect("writer alive");
            }
            let snap = state.reader.snapshot();
            for &mode in &modes {
                let c = snap.clusters_at(level, mode).expect("published");
                for v in 0..n {
                    let members =
                        (0..n).filter(|&u| !c.is_noise(v) && c.label(u) == c.label(v)).collect();
                    let mut want = Vec::new();
                    Response::Members { epoch: snap.epoch, members }.encode(&mut want);
                    let mut got = Vec::new();
                    state.respond(Request::Members { v, level, mode }, &mut got);
                    assert_eq!(got, want, "v = {v}, {mode:?}, epoch {}", snap.epoch);
                }
            }
        }
        core.shutdown();
    }

    /// Four bytes claiming a `MAX_FRAME` payload buy no memory: room is made
    /// for bytes that arrive, and the stalled frame is dropped on the budget.
    #[test]
    fn a_length_prefix_alone_reserves_nothing() {
        let prefix = Step::Data(MAX_FRAME.to_le_bytes().to_vec());
        let stalls = || (0..60).map(|_| Step::Timeout);

        let mut frames = FrameReader::new();
        let mut stream = Scripted::reading([prefix].into_iter().chain(stalls()));
        assert!(matches!(frames.next_frame(), Ok(None)));
        assert!(matches!(frames.fill(&mut stream), Ok(true)));
        // One read a call: each stall inside the budget hands control back.
        for _ in 0..50 {
            assert!(matches!(frames.next_frame(), Ok(None)));
            assert!(matches!(frames.fill(&mut stream), Ok(true)));
        }
        assert!(matches!(frames.fill(&mut stream), Err(FrameError::Truncated)));
        assert_eq!(frames.capacity(), IO_BUF);
        assert_eq!(stream.reads, 52);

        let prefix = Step::Data(MAX_FRAME.to_le_bytes().to_vec());
        let dropped = serve([prefix].into_iter().chain(stalls()));
        assert!(dropped.writes.is_empty());
        assert_eq!(dropped.reads, 52);

        // A long frame that does arrive grows the buffer no further than
        // twice what has been received, and the room is given back after it.
        let mut long = Vec::new();
        write_frame(&mut long, &vec![7u8; 5 * IO_BUF]).expect("vec write");
        let mut stream = Scripted::reading(long.chunks(IO_BUF / 2).map(|c| Step::Data(c.to_vec())));
        let mut frames = FrameReader::new();
        while matches!(frames.next_frame(), Ok(None)) {
            let received = (stream.reads * IO_BUF / 2).max(IO_BUF);
            assert!(frames.capacity() <= 2 * received, "after {} reads", stream.reads);
            assert!(matches!(frames.fill(&mut stream), Ok(true)));
        }
        assert!(stream.steps.is_empty());
        assert!(matches!(frames.fill(&mut stream), Ok(false)));
        assert_eq!(frames.capacity(), IO_BUF);
    }

    /// A frame that fails its checksum or its length check in mid-pipeline
    /// does not cost the good frames before it their replies.
    #[test]
    fn a_bad_frame_in_mid_pipeline_closes_after_the_replies_before_it() {
        let ping = framed(&Request::Ping);
        let mut corrupt = ping.clone();
        corrupt[4] ^= 0x01;
        let oversized = (MAX_FRAME + 1).to_le_bytes().to_vec();
        for bad in [corrupt, oversized] {
            let bytes = [ping.clone(), ping.clone(), bad, ping.clone()].concat();
            let stream = serve([Step::Data(bytes), Step::Data(ping.clone())]);
            let got = replies(&stream.writes.concat());
            assert_eq!(got[..2], [Response::Pong, Response::Pong]);
            assert!(got.len() == 3 && malformed(&got[2]), "{got:?}");
            assert_eq!(stream.writes.len(), 1);
            assert_eq!(stream.steps.len(), 1, "closed without another read");
        }
    }

    /// The reply owed for a query is on the wire before the connection
    /// waits on the writer for the `Flush` queued behind it.
    #[test]
    fn a_flush_does_not_hold_back_the_reply_before_it() {
        let (core, mut state, level) = conn();
        let query = Request::SameCluster { u: 0, v: 1, level, mode: EVEN };
        let mut stream = Scripted::reading([Step::Data(pipeline(&[query, Request::Flush]))]);
        stream.probe = Some(core.reader());
        serve_conn(&mut state, &mut stream);
        assert_eq!(stream.writes.len(), 2);
        assert!(matches!(replies(&stream.writes[0])[..], [Response::SameCluster { epoch: 0, .. }]));
        assert_eq!(replies(&stream.writes[1]), [Response::Flushed { epoch: 1 }]);
        // Nothing else was queued, so the barrier itself published epoch 1:
        // the first write went out before it, the second after.
        assert_eq!(stream.epochs, [0, 1]);
        core.shutdown();
    }

    #[test]
    fn a_short_write_drops_the_connection() {
        let ping = framed(&Request::Ping);
        let mut stream = Scripted::reading([Step::Data(ping.repeat(3)), Step::Data(ping.clone())]);
        stream.accepts = Some(20);
        let (core, mut state, _) = conn();
        serve_conn(&mut state, &mut stream);
        core.shutdown();
        assert_eq!(stream.writes.len(), 1, "not retried");
        assert_eq!(stream.steps.len(), 1, "closed without another read");
    }

    /// ROADMAP 4(d): a client that pipelines label dumps and never reads
    /// them used to park its connection thread in `write` for ever, and
    /// `shutdown` with it.
    #[test]
    fn a_peer_that_never_reads_is_dropped_on_the_write_timeout() {
        let (core, level) = core(20, 20);
        let server = TcpServer::start(core, "127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(server.local_addr()).expect("connect");
        // 400 labels a reply, 1.6 KB: the replies owed soon exceed what the
        // two socket buffers hold, the server's write blocks, and the
        // requests keep coming until the server hangs up.
        let requests = framed(&Request::ClusterLabels { level, mode: EVEN }).repeat(1_000);
        let bound = WRITE_TIMEOUT + Duration::from_secs(5);
        // A parked server would otherwise hang this test instead of failing it.
        peer.set_write_timeout(Some(bound)).expect("set timeout");
        let began = Instant::now();
        while began.elapsed() < bound && peer.write_all(&requests).is_ok() {}
        let dropped = began.elapsed();
        assert!(dropped >= WRITE_TIMEOUT, "dropped before a write could time out: {dropped:?}");
        assert!(dropped < bound, "still connected after {dropped:?}");
        let report = server.shutdown();
        assert!(report.wal_error.is_none());
        assert!(began.elapsed() < bound, "{:?}", began.elapsed());
        drop(peer);
    }
}
