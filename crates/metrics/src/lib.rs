//! # anc-metrics
//!
//! Clustering-quality metrics used in the paper's evaluation (Section VI-A):
//!
//! * Ground-truth measures: **NMI** (Strehl & Ghosh normalization),
//!   **Purity** and best-match average **F1** (Yang & Leskovec).
//! * Structural measures: weighted **Modularity** (Newman) and average
//!   **Conductance** (Yang & Leskovec).
//!
//! Plus the paper's evaluation conventions: clusters with fewer than 3 nodes
//! are treated as noise and removed ([`Clustering::filter_small`]).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![warn(missing_docs)]

mod clustering;
mod ground_truth;
mod structural;

pub use clustering::{Clustering, NOISE};
pub use ground_truth::{avg_f1, nmi, purity};
pub use structural::{avg_conductance, modularity};
