//! # anc-baselines
//!
//! From-scratch implementations of every method the paper compares against
//! (Section VI, "Baseline Methods"), plus spectral clustering, which the
//! paper uses as its ground-truth oracle on activation snapshots:
//!
//! * [`scan`] — SCAN (Xu et al., KDD 2007): ε-µ structural clustering with
//!   cores, hubs and outliers. Offline.
//! * [`attractor`] — Attractor (Shao et al., KDD 2015): distance dynamics
//!   iterated until edge distances polarize. Offline; the method whose
//!   ~50-iteration propagation ANC replaces with shortest distances.
//! * [`louvain`] — Louvain (Blondel et al. 2008): greedy weighted
//!   modularity maximization. Offline; also the base of DYNA.
//! * [`dyna`] — a DynaMo-style (Zhuang et al. 2021) incremental modularity
//!   maximizer over edge-weight updates. Online. See DESIGN.md §3 for the
//!   substitution notes.
//! * [`lwep`] — an LWEP-style (Wang, Lai, Yu 2013) weighted label
//!   propagation stream clusterer. Online; deliberately retains the
//!   reference method's expensive per-timestep global work.
//! * [`spectral`] — normalized spectral clustering (Ng, Jordan, Weiss 2001)
//!   with orthogonal iteration and k-means++, the paper's ground-truth
//!   generator for activation snapshots.
//!
//! All offline baselines share the signature
//! `fn cluster(g: &Graph, weights: &[f64], …) -> Clustering` where `weights`
//! is the current (decayed) edge activeness.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]
#![warn(missing_docs)]

pub mod attractor;
pub mod dyna;
pub mod louvain;
pub mod lwep;
pub mod scan;
pub mod spectral;
