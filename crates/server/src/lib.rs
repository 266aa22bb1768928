//! # anc-server
//!
//! The concurrent serving layer over the activation-network clustering
//! engine (DESIGN.md §12): the paper's premise is that
//! clustering queries are answered *while* the activation stream mutates
//! the network, and this crate turns that premise into a single-writer /
//! many-reader server.
//!
//! * [`service`] — the protocol-agnostic core: one writer thread owns the
//!   engine (volatile or WAL-backed), drains a bounded MPSC ingest queue
//!   with adaptive batch coalescing, and publishes an immutable
//!   [`ServeSnapshot`] after every drained cycle.
//! * [`snapshot`] — the published state and the wait-free
//!   [`SnapshotReader`] (epoch'd `Arc` handoff via
//!   `anc_core::publish`; the read path takes no locks — DESIGN.md §8).
//! * [`wire`] — a hand-rolled length-prefixed binary protocol
//!   (`len ∥ payload ∥ crc32`), total decode, typed error frames.
//! * [`tcp`] — the TCP front end (thread per connection) plus a blocking
//!   [`WireClient`].
//! * [`hist`] — the log-bucketed latency histogram behind
//!   [`ServerStats::apply_latency`].

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

pub mod hist;
pub mod service;
pub mod snapshot;
pub mod tcp;
pub mod wire;

pub use hist::LatencyHistogram;
pub use service::{
    EngineBackend, IngestError, IngestHandle, ServeConfig, ServeError, ServerCore, ServerStats,
    ShutdownReport,
};
pub use snapshot::{ServeSnapshot, SnapshotReader};
pub use tcp::{ClientError, TcpServer, WireClient, MAX_CONNECTIONS};
pub use wire::{ErrorCode, FrameError, Request, Response, StatsReply, MAX_FRAME};
