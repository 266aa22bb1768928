//! # anc — Activation Network Clustering
//!
//! A from-scratch Rust reproduction of *"Clustering Activation Networks"*
//! (Zijin Feng, Miao Qiao, Hong Cheng — ICDE 2022): a time-decay incremental
//! structural clustering index for graphs with frequently interacting nodes
//! on a relatively stable edge set.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`graph`] — the relation-network substrate (CSR graphs, generators).
//! * [`decay`] — the time-decay scheme and the global decay factor.
//! * [`core`] — the paper's contribution: active similarity, local
//!   reinforcement, the shortest-distance metric, the **pyramids** index,
//!   voting-based clustering with zoom-in/zoom-out and bounded incremental
//!   updates, and the ANCF/ANCO/ANCOR engines — plus the Remarks-section
//!   extensions: the polled cluster monitor (`core::vote`), index-answered
//!   approximate distances (`core::Pyramids::approx_distance`) and engine
//!   checkpointing (`core::persist`).
//! * [`baselines`] — SCAN, Attractor, Louvain, DynaMo-style and LWEP-style
//!   baselines plus spectral clustering used as a ground-truth oracle.
//! * [`metrics`] — NMI, Purity, F1, Modularity, Conductance.
//! * [`data`] — dataset registry, activation-stream/workload generators and
//!   trace record/replay.
//!
//! ## Quickstart
//!
//! ```
//! use anc::core::{AncConfig, AncEngine};
//! use anc::data::registry;
//!
//! // A small synthetic social network with planted communities.
//! let ds = registry::by_name("CO").unwrap().materialize(42);
//! let mut engine = AncEngine::new(ds.graph.clone(), AncConfig::default(), 42);
//!
//! // Feed some activations and query the local active community of node 0.
//! engine.activate(ds.graph.edge_id(0, ds.graph.neighbors(0)[0]).unwrap(), 1.0);
//! let level = engine.default_level();
//! let cluster = engine.local_cluster(0, level);
//! assert!(cluster.contains(&0));
//! ```

#![forbid(unsafe_code)]

pub use anc_baselines as baselines;
pub use anc_core as core;
pub use anc_data as data;
pub use anc_decay as decay;
pub use anc_graph as graph;
pub use anc_metrics as metrics;
