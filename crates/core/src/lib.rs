//! # anc-core
//!
//! The primary contribution of *Clustering Activation Networks* (Feng, Qiao,
//! Cheng — ICDE 2022): an incrementally maintainable structural+temporal
//! clustering index for activation networks.
//!
//! The pipeline (paper Figure 1):
//!
//! 1. **Edge activeness** under the time-decay scheme is maintained with the
//!    global decay factor (`anc-decay`).
//! 2. **Active similarity** σ (activeness-weighted Jaccard) classifies nodes
//!    into core / p-core / periphery ([`similarity`]).
//! 3. **Local reinforcement** folds structural cohesiveness and activeness
//!    into one similarity function `S_t` on edges, updated per activation in
//!    `O(deg u + deg v)` neighborhood work ([`reinforce`], Lemma 5).
//! 4. The **distance metric** `M_t` is the shortest distance under edge
//!    weight `1/S_t`; shortest paths propagate local similarity, replacing
//!    Attractor's ~50 global iterations ([`metric`]).
//! 5. The **pyramids index** `P` — `k` pyramids of `⌈log₂ n⌉` randomized
//!    Voronoi partitions each (after Das Sarma et al.) — supports clustering
//!    at `O(log n)` granularities ([`voronoi`], [`pyramid`]).
//! 6. **Voting + even/power clustering** extract clusters; zoom-in/zoom-out
//!    adjust the granularity level ([`cluster`], [`query`]).
//! 7. **Bounded incremental updates** (Algorithms 1–3) repair each Voronoi
//!    partition in time proportional to the affected region ([`voronoi`],
//!    Lemmas 11–12), embarrassingly parallel across partitions (Lemma 13).
//!
//! [`engine::AncEngine`] assembles all of the above into the paper's ANCO /
//! ANCOR online methods and the ANCF offline method.

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

pub mod cache;
pub mod cluster;
mod config;
pub mod engine;
pub mod invariant;
pub mod metric;
pub mod persist;
pub mod publish;
pub mod pyramid;
pub mod query;
pub mod reinforce;
pub mod similarity;
pub mod voronoi;
pub mod vote;

pub use cache::{ClusterCache, QueryDecision, QueryStats};
pub use cluster::ClusterMode;
pub use config::AncConfig;
pub use engine::{AncEngine, BatchStats, ClusterView, OfflineSnapshot};
pub use invariant::InvariantViolation;
pub use persist::{
    DurabilityOptions, DurableEngine, EngineSnapshot, RestoreError, SnapshotProfile, WalReader,
    WalRecord,
};
pub use publish::{Publisher, ReadHandle};
pub use pyramid::{Pyramids, RepairStats};
pub use similarity::NodeType;
pub use vote::{ClusterMonitor, EdgeBits};
