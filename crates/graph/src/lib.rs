//! # anc-graph
//!
//! Static graph substrate for *Activation Network Clustering* (Feng, Qiao,
//! Cheng — ICDE 2022).
//!
//! An activation network consists of a relatively stable *relation network*
//! `G(V, E)` plus a stream of timestamped activations on existing edges. This
//! crate provides the relation-network half:
//!
//! * [`Graph`] — an immutable, CSR-encoded undirected graph with stable
//!   [`EdgeId`]s, so that per-edge state (activeness, similarity, reciprocal
//!   similarity) can live in dense parallel arrays owned by other crates.
//! * [`GraphBuilder`] — deduplicating, self-loop-stripping construction from
//!   arbitrary edge lists.
//! * [`traverse`] — connected components, BFS, degree orderings.
//! * [`dijkstra`] — single/multi-source shortest paths under arbitrary
//!   positive edge-weight functions (the paper's `f`-based distance,
//!   Section III).
//! * [`algo`] — triangles, clustering coefficients, k-cores (dataset
//!   analysis for the harness).
//! * [`gen`] — deterministic synthetic generators standing in for the paper's
//!   real datasets (see DESIGN.md §3 for the substitution rationale).
//! * [`codec`] — hand-rolled binary codec primitives (varints, CRC-32,
//!   raw-bits floats, the checksummed frame of the wire and the WAL) plus
//!   the delta-encoded CSR topology codec used by the compact snapshot
//!   format (DESIGN.md §11).
//!
//! All randomized components take explicit `u64` seeds; everything in this
//! workspace is reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::iter_over_hash_type,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

pub mod algo;
pub mod codec;
pub mod dijkstra;
pub mod gen;
mod graph;
pub mod io;
pub mod traverse;

pub use graph::{Graph, GraphBuilder};

/// Identifier of a vertex; dense in `0..graph.n()`.
pub type NodeId = u32;

/// Identifier of an undirected edge; dense in `0..graph.m()`.
///
/// Edge ids are stable for the lifetime of a [`Graph`] and are the index into
/// every per-edge state array in the workspace (activeness, similarity, …).
pub type EdgeId = u32;

/// Sentinel for "no node" (used for absent parents/seeds in shortest-path
/// trees).
pub const NO_NODE: NodeId = NodeId::MAX;
