//! The hand-rolled TCP front end and a matching blocking client.
//!
//! One accept thread (non-blocking listener polled against the stop
//! flag), one thread per connection. Each connection owns a cloned
//! [`IngestHandle`] and a private [`SnapshotReader`], so request handling
//! ([`ConnState::respond`]) touches no shared mutable state: queries are
//! wait-free snapshot reads, ingest is a non-blocking `try_send`, and
//! every failure becomes a typed [`Response::Error`] frame — the handler
//! never panics (the crate denies `clippy::{unwrap_used, expect_used, panic}`
//! and friends outside tests).

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use anc_graph::codec::CodecError;

use crate::service::{IngestError, IngestHandle, ServerCore, ShutdownReport};
use crate::snapshot::SnapshotReader;
use crate::wire::{read_frame, write_frame, ErrorCode, FrameError, Request, Response, StatsReply};

/// Per-connection read timeout; bounds how long a quiet connection waits
/// before re-checking the stop flag.
const READ_POLL: Duration = Duration::from_millis(100);
/// Accept-loop poll interval while the listener has no pending connection.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Per-connection request handler state.
pub struct ConnState {
    ingest: IngestHandle,
    reader: SnapshotReader,
    stop: Arc<AtomicBool>,
}

impl ConnState {
    /// Answers one decoded request. Total and non-panicking: every failure
    /// maps to a typed [`Response::Error`] (the crate-wide panic lints cover
    /// this handler; the snapshot reads under it are wait-free).
    pub fn respond(&mut self, req: &Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Ingest { t, edges } => match self.ingest.submit(*t, edges.clone()) {
                Ok(seq) => Response::Ingested { seq },
                Err(e) => ingest_error(e),
            },
            Request::Flush => match self.ingest.flush() {
                Ok(epoch) => Response::Flushed { epoch },
                Err(e) => ingest_error(e),
            },
            Request::SameCluster { u, v, level, mode } => {
                let snap = self.reader.snapshot();
                match snap.same_cluster_at(*u, *v, *level, *mode) {
                    Some(value) => Response::SameCluster { epoch: snap.epoch, value },
                    None => not_answerable(&snap, *level, *mode, Some((*u).max(*v))),
                }
            }
            Request::ClusterSummary { level, mode } => {
                let snap = self.reader.snapshot();
                match snap.clusters_at(*level, *mode) {
                    Some(c) => Response::Summary {
                        epoch: snap.epoch,
                        generation: snap.view.generation,
                        num_clusters: c.num_clusters() as u64,
                        num_assigned: c.num_assigned() as u64,
                    },
                    None => not_answerable(&snap, *level, *mode, None),
                }
            }
            Request::ClusterLabels { level, mode } => {
                let snap = self.reader.snapshot();
                match snap.clusters_at(*level, *mode) {
                    Some(c) => Response::Labels {
                        epoch: snap.epoch,
                        generation: snap.view.generation,
                        labels: c.labels().to_vec(),
                    },
                    None => not_answerable(&snap, *level, *mode, None),
                }
            }
            Request::Members { v, level, mode } => {
                let snap = self.reader.snapshot();
                match snap.members_at(*v, *level, *mode) {
                    Some(members) => Response::Members { epoch: snap.epoch, members },
                    None => not_answerable(&snap, *level, *mode, Some(*v)),
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
                    cache_hits: s.query.hits,
                    cache_misses: s.query.misses,
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
        }
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
        IngestError::InvalidTime => {
            Response::Error { code: ErrorCode::Malformed, msg: "non-finite activation time".into() }
        }
        IngestError::EdgeOutOfRange => {
            Response::Error { code: ErrorCode::OutOfRange, msg: "edge id out of range".into() }
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

fn handle_conn(mut state: ConnState, mut stream: TcpStream) {
    // The listener is non-blocking; the accepted stream must not be.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(READ_POLL)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut out = Vec::new();
    loop {
        if state.stop.load(Ordering::Acquire) {
            return;
        }
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean close
            Err(FrameError::Idle) => continue,
            Err(FrameError::TooLarge(len)) => {
                // Reject and close: the stream cannot be resynced past an
                // unread oversized body.
                send_error(
                    &mut stream,
                    &mut out,
                    ErrorCode::Malformed,
                    &format!("frame length {len} exceeds limit"),
                );
                return;
            }
            Err(FrameError::BadCrc) => {
                send_error(&mut stream, &mut out, ErrorCode::Malformed, "frame checksum mismatch");
                return;
            }
            Err(FrameError::Truncated) | Err(FrameError::Io(_)) => return,
        };
        let response = match Request::decode(&payload) {
            Ok(request) => state.respond(&request),
            Err(e) => Response::Error { code: ErrorCode::Malformed, msg: e.to_string() },
        };
        out.clear();
        response.encode(&mut out);
        if write_frame(&mut stream, &out).is_err() {
            return;
        }
        if matches!(response, Response::ShuttingDown) {
            return;
        }
    }
}

fn send_error(stream: &mut TcpStream, out: &mut Vec<u8>, code: ErrorCode, msg: &str) {
    out.clear();
    Response::Error { code, msg: msg.into() }.encode(out);
    let _ = write_frame(stream, out);
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
        let reader = core.reader();
        let accept_stop = Arc::clone(&stop);
        let accept =
            std::thread::Builder::new().name("anc-serve-accept".into()).spawn(move || {
                let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
                while !accept_stop.load(Ordering::Acquire) {
                    match listener.accept() {
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
    buf: Vec<u8>,
}

impl WireClient {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient { stream, buf: Vec::new() })
    }

    /// Sends one request and waits for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.buf.clear();
        req.encode(&mut self.buf);
        write_frame(&mut self.stream, &self.buf)?;
        self.read_response()
    }

    /// Sends raw bytes verbatim — for protocol tests (malformed frames,
    /// truncated writes, hostile length prefixes).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one response frame.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.stream)? {
            Some(payload) => Response::decode(&payload).map_err(ClientError::Codec),
            None => Err(ClientError::Disconnected),
        }
    }

    /// Half-closes the write side (simulates a mid-frame disconnect when
    /// called after a partial [`Self::send_raw`]).
    pub fn shutdown_write(&mut self) -> std::io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }
}
