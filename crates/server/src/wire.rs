//! The length-prefixed binary wire protocol.
//!
//! Hand-rolled on the workspace codec (`anc_graph::codec`) — no external
//! serialization. Every message travels as one of the codec's frames, the
//! layout a write-ahead-log record shares:
//!
//! ```text
//! [payload_len: u32 LE] [payload: payload_len bytes] [crc32(payload): u32 LE]
//! ```
//!
//! The payload is a tag byte followed by codec-encoded fields. Decoding is
//! total: any byte sequence yields either a message or a typed error —
//! never a panic (the crate denies `clippy::{unwrap_used, expect_used,
//! panic}` and friends outside tests, [`Request::decode`] and
//! [`Response::encode`] included). A frame longer than
//! [`MAX_FRAME`] is rejected on its prefix, and room for a long one is made
//! only as its bytes arrive, so a hostile length prefix cannot balloon
//! memory.

use std::io::{ErrorKind, Read, Write};

use anc_core::{ClusterMode, WalRecord};
use anc_graph::codec::{
    parse_frame, push_frame, put_u8, put_uvarint, BadFrame, CodecError, Frame, Reader,
};
use anc_graph::{EdgeId, NodeId};

/// Largest accepted frame payload (8 MiB — a full label vector for a
/// multi-million-node network still fits).
pub const MAX_FRAME: u32 = 8 << 20;

/// Framing failure while reading from a stream.
#[derive(Debug)]
pub enum FrameError {
    /// Read timed out before the first byte of a frame (idle connection —
    /// poll the stop flag and retry).
    Idle,
    /// The stream ended mid-frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(u32),
    /// The payload checksum did not match.
    BadCrc,
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Idle => write!(f, "idle (no frame before read timeout)"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::TooLarge(len) => {
                write!(f, "frame length {len} exceeds MAX_FRAME {MAX_FRAME}")
            }
            FrameError::BadCrc => write!(f, "frame checksum mismatch"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Size of a connection's read buffer and the level of unsent replies that
/// forces a `write`, on both ends of the wire. A 32-query burst and its
/// replies are under 1 KiB each way and a label dump for 4 000 nodes fits;
/// a frame longer than this grows the read buffer only as its bytes arrive.
pub(crate) const IO_BUF: usize = 16 << 10;

/// Read timeouts tolerated while a frame is half received: a slow writer of
/// a legitimate frame is not dropped, a stalled half-frame eventually is.
const STALL_BUDGET: u32 = 50;

/// Writes one frame (`len ∥ payload ∥ crc`) to `w`.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 8);
    push_frame(&mut frame, |out| out.extend_from_slice(payload));
    w.write_all(&frame)?;
    w.flush()
}

/// The read side of a connection: one buffer, filled by whole `read`s and
/// parsed in place by the codec's [`parse_frame`] under [`MAX_FRAME`]; the
/// stall budget lives here for server and client alike.
pub(crate) struct FrameReader {
    /// `buf[start..end]` is received and not yet parsed; `buf.len()` is the
    /// room, [`IO_BUF`] unless a single longer frame is arriving.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Read timeouts since the frame at `start` began arriving.
    stalls: u32,
}

impl FrameReader {
    pub(crate) fn new() -> Self {
        Self { buf: vec![0; IO_BUF], start: 0, end: 0, stalls: 0 }
    }

    /// The frame at the head of the buffer, as far as it has arrived.
    fn head(&self) -> Result<Frame<'_>, FrameError> {
        parse_frame(&self.buf[self.start..self.end], MAX_FRAME).map_err(|e| match e {
            BadFrame::TooLarge(len) => FrameError::TooLarge(len),
            BadFrame::Checksum { .. } => FrameError::BadCrc,
        })
    }

    /// The payload of the next frame if the buffer holds all of it, checked
    /// against its checksum where it lies; `None` when more bytes are needed.
    pub(crate) fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let Frame::Whole(payload) = self.head()? else { return Ok(None) };
        let payload = self.start + 4..self.start + 4 + payload.len();
        self.start = payload.end + 4;
        self.stalls = 0;
        Ok(Some(&self.buf[payload]))
    }

    /// Bytes still to arrive before [`Self::next_frame`] can succeed: the
    /// rest of the prefix, or the rest of the frame once the prefix is in.
    fn missing(&self) -> Result<usize, FrameError> {
        Ok(match self.head()? {
            Frame::Partial(need) => need.saturating_sub(self.end - self.start),
            Frame::Whole(_) => 0,
        })
    }

    /// One `read` into the free part of the buffer, after
    /// [`Self::next_frame`] returned `None`. `Ok(true)` is bytes received,
    /// or a timeout inside a frame within its stall budget (the partial
    /// frame is kept: poll the stop flag and call again); `Ok(false)` a
    /// clean close at a frame boundary; [`FrameError::Idle`] a timeout at
    /// one (poll the stop flag and retry); [`FrameError::Truncated`] a close
    /// inside a frame or a frame stalled past its budget.
    pub(crate) fn fill<R: Read>(&mut self, r: &mut R) -> Result<bool, FrameError> {
        if self.start > 0 {
            // What the parser left is less than one frame: move it to the front.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == 0 && self.buf.len() > IO_BUF {
            self.buf.truncate(IO_BUF);
            self.buf.shrink_to_fit();
        }
        if self.end == self.buf.len() {
            // Only a frame longer than the buffer fills it without
            // completing. Double, never past that frame: room follows the
            // bytes received, not the length four of them claim.
            let Frame::Partial(need) = self.head()? else { return Ok(true) };
            self.buf.resize(need.min(2 * self.end), 0);
        }
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == 0 => return Ok(false),
                Ok(0) => return Err(FrameError::Truncated),
                Ok(k) => {
                    self.end += k;
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if self.end == 0 {
                        return Err(FrameError::Idle);
                    }
                    self.stalls += 1;
                    if self.stalls > STALL_BUDGET {
                        return Err(FrameError::Truncated);
                    }
                    return Ok(true);
                }
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// Reads one frame's payload and not a byte past it. `Ok(None)` is a clean
/// close at a frame boundary; [`FrameError::Idle`] means no byte arrived
/// before the read timeout (retry after polling the stop flag).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut frames = FrameReader::new();
    loop {
        if let Some(payload) = frames.next_frame()? {
            return Ok(Some(payload.to_vec()));
        }
        let missing = frames.missing()? as u64;
        if !frames.fill(&mut r.by_ref().take(missing))? {
            return Ok(None);
        }
    }
}

/// Typed failure carried in an error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Undecodable payload (bad tag, truncated fields, invalid values).
    Malformed,
    /// Ingest queue full — request shed by backpressure.
    Overloaded,
    /// A node, edge, or level id out of range for the served network.
    OutOfRange,
    /// The requested `(level, mode)` pair is not in the published set.
    NotPublished,
    /// The serving core has shut down.
    Closed,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::Overloaded => 2,
            ErrorCode::OutOfRange => 3,
            ErrorCode::NotPublished => 4,
            ErrorCode::Closed => 5,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CodecError> {
        Ok(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Overloaded,
            3 => ErrorCode::OutOfRange,
            4 => ErrorCode::NotPublished,
            5 => ErrorCode::Closed,
            _ => return Err(CodecError::Invalid { what: format!("error code {v}") }),
        })
    }
}

fn put_mode(out: &mut Vec<u8>, mode: ClusterMode) {
    put_u8(
        out,
        match mode {
            ClusterMode::Even => 0,
            ClusterMode::Power => 1,
        },
    );
}

fn read_mode(r: &mut Reader<'_>) -> Result<ClusterMode, CodecError> {
    match r.u8()? {
        0 => Ok(ClusterMode::Even),
        1 => Ok(ClusterMode::Power),
        v => Err(CodecError::Invalid { what: format!("cluster mode {v}") }),
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_str(r: &mut Reader<'_>) -> Result<String, CodecError> {
    let len = r.uvarint_len()?;
    let bytes = r.bytes(len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| CodecError::Invalid { what: "non-utf8 string".into() })
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Activate `edges` at time `t` (asynchronous: acknowledged with the
    /// assigned sequence number, applied by the writer loop), sent as a
    /// [`WalRecord`] payload.
    Ingest {
        /// Activation timestamp (must be finite).
        t: f64,
        /// Edge ids to activate.
        edges: Vec<EdgeId>,
    },
    /// Barrier: apply and publish everything enqueued so far.
    Flush,
    /// Membership query answered from the newest published snapshot.
    SameCluster {
        /// First node.
        u: NodeId,
        /// Second node.
        v: NodeId,
        /// Granularity level.
        level: usize,
        /// Clustering mode.
        mode: ClusterMode,
    },
    /// Cluster-count summary of the published clustering at a level.
    ClusterSummary {
        /// Granularity level.
        level: usize,
        /// Clustering mode.
        mode: ClusterMode,
    },
    /// Full label vector of the published clustering at a level.
    ClusterLabels {
        /// Granularity level.
        level: usize,
        /// Clustering mode.
        mode: ClusterMode,
    },
    /// Members of the cluster containing `v` (zoom queries pick a
    /// different `level`).
    Members {
        /// The probe node.
        v: NodeId,
        /// Granularity level.
        level: usize,
        /// Clustering mode.
        mode: ClusterMode,
    },
    /// Cumulative server counters.
    Stats,
    /// Ask the front end to shut the server down.
    Shutdown,
}

const REQ_PING: u8 = 1;
const REQ_INGEST: u8 = 2;
const REQ_FLUSH: u8 = 3;
const REQ_SAME_CLUSTER: u8 = 4;
const REQ_CLUSTER_SUMMARY: u8 = 5;
const REQ_CLUSTER_LABELS: u8 = 6;
const REQ_MEMBERS: u8 = 7;
const REQ_STATS: u8 = 8;
const REQ_SHUTDOWN: u8 = 9;

impl Request {
    /// Appends the encoded payload (no frame) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => put_u8(out, REQ_PING),
            Request::Ingest { t, edges } => {
                put_u8(out, REQ_INGEST);
                WalRecord::encode(out, *t, edges);
            }
            Request::Flush => put_u8(out, REQ_FLUSH),
            Request::SameCluster { u, v, level, mode } => {
                put_u8(out, REQ_SAME_CLUSTER);
                put_uvarint(out, u64::from(*u));
                put_uvarint(out, u64::from(*v));
                put_uvarint(out, *level as u64);
                put_mode(out, *mode);
            }
            Request::ClusterSummary { level, mode } => {
                put_u8(out, REQ_CLUSTER_SUMMARY);
                put_uvarint(out, *level as u64);
                put_mode(out, *mode);
            }
            Request::ClusterLabels { level, mode } => {
                put_u8(out, REQ_CLUSTER_LABELS);
                put_uvarint(out, *level as u64);
                put_mode(out, *mode);
            }
            Request::Members { v, level, mode } => {
                put_u8(out, REQ_MEMBERS);
                put_uvarint(out, u64::from(*v));
                put_uvarint(out, *level as u64);
                put_mode(out, *mode);
            }
            Request::Stats => put_u8(out, REQ_STATS),
            Request::Shutdown => put_u8(out, REQ_SHUTDOWN),
        }
    }

    /// Decodes a payload. Total: every byte sequence yields `Ok` or a
    /// typed [`CodecError`], never a panic.
    pub fn decode(payload: &[u8]) -> Result<Request, CodecError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            REQ_PING => Request::Ping,
            REQ_INGEST => {
                let WalRecord { t, edges } = WalRecord::decode(r.bytes(r.remaining())?)?;
                Request::Ingest { t, edges }
            }
            REQ_FLUSH => Request::Flush,
            REQ_SAME_CLUSTER => {
                let u = read_node(&mut r)?;
                let v = read_node(&mut r)?;
                let level = read_level(&mut r)?;
                let mode = read_mode(&mut r)?;
                Request::SameCluster { u, v, level, mode }
            }
            REQ_CLUSTER_SUMMARY => {
                let level = read_level(&mut r)?;
                let mode = read_mode(&mut r)?;
                Request::ClusterSummary { level, mode }
            }
            REQ_CLUSTER_LABELS => {
                let level = read_level(&mut r)?;
                let mode = read_mode(&mut r)?;
                Request::ClusterLabels { level, mode }
            }
            REQ_MEMBERS => {
                let v = read_node(&mut r)?;
                let level = read_level(&mut r)?;
                let mode = read_mode(&mut r)?;
                Request::Members { v, level, mode }
            }
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            tag => return Err(CodecError::Invalid { what: format!("request tag {tag}") }),
        };
        if !r.is_empty() {
            return Err(CodecError::Invalid {
                what: format!("{} trailing bytes after request", r.remaining()),
            });
        }
        Ok(req)
    }
}

fn read_node(r: &mut Reader<'_>) -> Result<NodeId, CodecError> {
    let v = r.uvarint()?;
    u32::try_from(v).map_err(|_| CodecError::Invalid { what: format!("node id {v}") })
}

fn read_level(r: &mut Reader<'_>) -> Result<usize, CodecError> {
    let v = r.uvarint()?;
    usize::try_from(v).map_err(|_| CodecError::Invalid { what: format!("level {v}") })
}

/// Cumulative counters carried by [`Response::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Publication epoch of the snapshot these counters came from.
    pub epoch: u64,
    /// Highest applied ingest sequence number.
    pub applied_seq: u64,
    /// Cache generation of the published view.
    pub generation: u64,
    /// Ingest jobs applied.
    pub ingested_jobs: u64,
    /// Total edges across applied jobs.
    pub ingested_edges: u64,
    /// `activate_batch` calls issued (post-coalescing).
    pub applied_batches: u64,
    /// Jobs that shared a batch with at least one other job.
    pub coalesced_jobs: u64,
    /// Largest single applied batch, in edges.
    pub max_batch_edges: u64,
    /// Submissions shed by backpressure.
    pub shed: u64,
    /// Cache-lifetime query cache hits.
    pub cache_hits: u64,
    /// Cache-lifetime query cache misses.
    pub cache_misses: u64,
    /// Enqueue-to-apply latency: samples recorded.
    pub apply_count: u64,
    /// Enqueue-to-apply latency: p50, nanoseconds.
    pub apply_p50_ns: u64,
    /// Enqueue-to-apply latency: p99, nanoseconds.
    pub apply_p99_ns: u64,
    /// Enqueue-to-apply latency: p99.9, nanoseconds.
    pub apply_p999_ns: u64,
    /// Enqueue-to-apply latency: exact max, nanoseconds.
    pub apply_max_ns: u64,
}

impl StatsReply {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.epoch,
            self.applied_seq,
            self.generation,
            self.ingested_jobs,
            self.ingested_edges,
            self.applied_batches,
            self.coalesced_jobs,
            self.max_batch_edges,
            self.shed,
            self.cache_hits,
            self.cache_misses,
            self.apply_count,
            self.apply_p50_ns,
            self.apply_p99_ns,
            self.apply_p999_ns,
            self.apply_max_ns,
        ] {
            put_uvarint(out, v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut fields = [0u64; 16];
        for f in &mut fields {
            *f = r.uvarint()?;
        }
        Ok(StatsReply {
            epoch: fields[0],
            applied_seq: fields[1],
            generation: fields[2],
            ingested_jobs: fields[3],
            ingested_edges: fields[4],
            applied_batches: fields[5],
            coalesced_jobs: fields[6],
            max_batch_edges: fields[7],
            shed: fields[8],
            cache_hits: fields[9],
            cache_misses: fields[10],
            apply_count: fields[11],
            apply_p50_ns: fields[12],
            apply_p99_ns: fields[13],
            apply_p999_ns: fields[14],
            apply_max_ns: fields[15],
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness ack.
    Pong,
    /// Ingest accepted with this sequence number.
    Ingested {
        /// Assigned sequence number.
        seq: u64,
    },
    /// Flush barrier reached at this publication epoch.
    Flushed {
        /// Epoch whose snapshot folds everything enqueued before the
        /// flush.
        epoch: u64,
    },
    /// Membership answer.
    SameCluster {
        /// Epoch of the answering snapshot.
        epoch: u64,
        /// Whether the two nodes share a cluster.
        value: bool,
    },
    /// Cluster-count summary.
    Summary {
        /// Epoch of the answering snapshot.
        epoch: u64,
        /// Cache generation of the published view.
        generation: u64,
        /// Clusters in the published clustering.
        num_clusters: u64,
        /// Nodes assigned to some cluster (non-noise).
        num_assigned: u64,
    },
    /// Full label vector (`u32::MAX` = noise, matching
    /// `anc_metrics::Clustering`).
    Labels {
        /// Epoch of the answering snapshot.
        epoch: u64,
        /// Cache generation of the published view.
        generation: u64,
        /// Per-node cluster labels.
        labels: Vec<u32>,
    },
    /// Cluster membership list.
    Members {
        /// Epoch of the answering snapshot.
        epoch: u64,
        /// Nodes sharing the probe node's cluster (empty for noise).
        members: Vec<NodeId>,
    },
    /// Cumulative server counters.
    Stats(StatsReply),
    /// The front end is shutting down.
    ShuttingDown,
    /// Typed failure.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        msg: String,
    },
}

/// The payload of a [`Response::Labels`], from borrowed labels: the server
/// encodes a label dump straight from the published snapshot.
pub(crate) fn encode_labels(out: &mut Vec<u8>, epoch: u64, generation: u64, labels: &[u32]) {
    put_u8(out, RESP_LABELS);
    put_uvarint(out, epoch);
    put_uvarint(out, generation);
    put_uvarint(out, labels.len() as u64);
    out.reserve(4 * labels.len());
    out.extend(labels.iter().flat_map(|l| l.to_le_bytes()));
}

/// The payload of a [`Response::Members`], from borrowed members: the
/// server encodes a members reply straight from the snapshot's member index.
pub(crate) fn encode_members(out: &mut Vec<u8>, epoch: u64, members: &[NodeId]) {
    put_u8(out, RESP_MEMBERS);
    put_uvarint(out, epoch);
    put_uvarint(out, members.len() as u64);
    for &v in members {
        put_uvarint(out, u64::from(v));
    }
}

const RESP_PONG: u8 = 1;
const RESP_INGESTED: u8 = 2;
const RESP_FLUSHED: u8 = 3;
const RESP_SAME_CLUSTER: u8 = 4;
const RESP_SUMMARY: u8 = 5;
const RESP_LABELS: u8 = 6;
const RESP_MEMBERS: u8 = 7;
const RESP_STATS: u8 = 8;
const RESP_SHUTTING_DOWN: u8 = 9;
const RESP_ERROR: u8 = 10;

impl Response {
    /// Appends the encoded payload (no frame) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => put_u8(out, RESP_PONG),
            Response::Ingested { seq } => {
                put_u8(out, RESP_INGESTED);
                put_uvarint(out, *seq);
            }
            Response::Flushed { epoch } => {
                put_u8(out, RESP_FLUSHED);
                put_uvarint(out, *epoch);
            }
            Response::SameCluster { epoch, value } => {
                put_u8(out, RESP_SAME_CLUSTER);
                put_uvarint(out, *epoch);
                put_u8(out, u8::from(*value));
            }
            Response::Summary { epoch, generation, num_clusters, num_assigned } => {
                put_u8(out, RESP_SUMMARY);
                put_uvarint(out, *epoch);
                put_uvarint(out, *generation);
                put_uvarint(out, *num_clusters);
                put_uvarint(out, *num_assigned);
            }
            Response::Labels { epoch, generation, labels } => {
                encode_labels(out, *epoch, *generation, labels);
            }
            Response::Members { epoch, members } => encode_members(out, *epoch, members),
            Response::Stats(stats) => {
                put_u8(out, RESP_STATS);
                stats.encode(out);
            }
            Response::ShuttingDown => put_u8(out, RESP_SHUTTING_DOWN),
            Response::Error { code, msg } => {
                put_u8(out, RESP_ERROR);
                put_u8(out, code.to_u8());
                put_str(out, msg);
            }
        }
    }

    /// Decodes a payload. Total, like [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Response, CodecError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            RESP_PONG => Response::Pong,
            RESP_INGESTED => Response::Ingested { seq: r.uvarint()? },
            RESP_FLUSHED => Response::Flushed { epoch: r.uvarint()? },
            RESP_SAME_CLUSTER => {
                let epoch = r.uvarint()?;
                let value = match r.u8()? {
                    0 => false,
                    1 => true,
                    v => {
                        return Err(CodecError::Invalid { what: format!("bool byte {v}") });
                    }
                };
                Response::SameCluster { epoch, value }
            }
            RESP_SUMMARY => Response::Summary {
                epoch: r.uvarint()?,
                generation: r.uvarint()?,
                num_clusters: r.uvarint()?,
                num_assigned: r.uvarint()?,
            },
            RESP_LABELS => {
                let epoch = r.uvarint()?;
                let generation = r.uvarint()?;
                let len = r.uvarint_len()?;
                if len > MAX_FRAME as usize / 4 {
                    return Err(CodecError::Invalid { what: format!("label vector of {len}") });
                }
                // One bounds check for the whole vector: a short payload
                // fails here, before anything is allocated.
                let labels = r
                    .bytes(4 * len)?
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect();
                Response::Labels { epoch, generation, labels }
            }
            RESP_MEMBERS => {
                let epoch = r.uvarint()?;
                let len = r.uvarint_len()?;
                if len > MAX_FRAME as usize / 2 {
                    return Err(CodecError::Invalid { what: format!("member list of {len}") });
                }
                let mut members = Vec::with_capacity(len.min(65_536));
                for _ in 0..len {
                    members.push(read_node(&mut r)?);
                }
                Response::Members { epoch, members }
            }
            RESP_STATS => Response::Stats(StatsReply::decode(&mut r)?),
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_ERROR => {
                let code = ErrorCode::from_u8(r.u8()?)?;
                let msg = read_str(&mut r)?;
                Response::Error { code, msg }
            }
            tag => return Err(CodecError::Invalid { what: format!("response tag {tag}") }),
        };
        if !r.is_empty() {
            return Err(CodecError::Invalid {
                what: format!("{} trailing bytes after response", r.remaining()),
            });
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_or_long_label_dump_is_a_typed_error() {
        let labels: Vec<u32> = (0..37).map(|v| if v % 5 == 0 { u32::MAX } else { v / 3 }).collect();
        let mut buf = Vec::new();
        encode_labels(&mut buf, 4, 2, &labels);
        assert_eq!(
            Response::decode(&buf).expect("whole dump"),
            Response::Labels { epoch: 4, generation: 2, labels }
        );
        for cut in 0..buf.len() {
            assert!(Response::decode(&buf[..cut]).is_err(), "dump cut to {cut} bytes decoded");
        }
        buf.push(0);
        assert!(
            matches!(Response::decode(&buf), Err(CodecError::Invalid { what }) if what.contains("trailing")),
            "trailing byte accepted"
        );
        let mut huge = Vec::new();
        put_u8(&mut huge, RESP_LABELS);
        put_uvarint(&mut huge, 0);
        put_uvarint(&mut huge, 0);
        put_uvarint(&mut huge, u64::from(MAX_FRAME / 4) + 1);
        assert!(matches!(Response::decode(&huge), Err(CodecError::Invalid { .. })));
    }
}
