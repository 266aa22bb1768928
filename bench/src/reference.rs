//! The serial reference: the op list's activations replayed one by one
//! through `AncEngine::activate`, with every query answered from a cold
//! `cluster_all` of the index at that prefix. Passes are checked against
//! it, never against each other only.

use std::sync::Arc;

use anc_core::cluster::cluster_all;
use anc_core::ClusterMode;
use anc_metrics::Clustering;
use anc_server::Response;

use crate::digest::{engine_digest, hash_u32s};
use crate::fixture::Fixture;
use crate::ops::{Op, OpList, Query};

/// The expected value of one point query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    Same(bool),
    Summary { clusters: u64, assigned: u64 },
    Members { len: usize, hash: u64 },
}

impl Answer {
    /// The reference answer to `q` under `c`.
    pub fn expected(c: &Clustering, q: Query) -> Answer {
        match q {
            Query::SameCluster { u, v } => {
                Answer::Same(!c.is_noise(u) && !c.is_noise(v) && c.label(u) == c.label(v))
            }
            Query::Summary => Answer::Summary {
                clusters: c.num_clusters() as u64,
                assigned: c.num_assigned() as u64,
            },
            Query::Members { v } => {
                let members: Vec<u32> = if c.is_noise(v) {
                    Vec::new()
                } else {
                    let want = c.label(v);
                    (0..c.n() as u32).filter(|&x| c.label(x) == want).collect()
                };
                Answer::Members { len: members.len(), hash: hash_u32s(&members) }
            }
        }
    }

    /// Whether a wire reply carries this answer. Epochs and cache
    /// generations are not compared: they count writer cycles, which depend
    /// on how the queue happened to drain.
    pub fn matches(&self, reply: &Response) -> bool {
        match (self, reply) {
            (Answer::Same(want), Response::SameCluster { value, .. }) => want == value,
            (
                Answer::Summary { clusters, assigned },
                Response::Summary { num_clusters, num_assigned, .. },
            ) => clusters == num_clusters && assigned == num_assigned,
            (Answer::Members { len, hash }, Response::Members { members, .. }) => {
                *len == members.len() && *hash == hash_u32s(members)
            }
            _ => false,
        }
    }
}

/// What a checked op must produce.
#[derive(Clone, Debug)]
pub enum Expect {
    /// Nothing beyond succeeding.
    Nothing,
    /// A full clustering with these labels (`ClusterQuery`, `Labels`).
    Labels(u64),
    /// One answer per query of the burst.
    Burst(Vec<Answer>),
}

/// The reference outcome of one op list.
pub struct Reference {
    /// Per op, aligned with the op list.
    pub expect: Vec<Expect>,
    /// State digest after the last op.
    pub digest: u64,
}

impl Reference {
    pub fn compute(fixture: &Fixture, list: &OpList) -> Self {
        let mut engine = fixture.restore();
        let cold = |engine: &anc_core::AncEngine| {
            Arc::new(cluster_all(
                engine.graph(),
                engine.pyramids(),
                fixture.level,
                ClusterMode::Even,
            ))
        };
        // The clustering at the current prefix, computed when a query first
        // needs it and dropped by the next activation.
        let mut current: Option<Arc<Clustering>> = None;
        let mut expect = Vec::with_capacity(list.ops.len());
        for (_, op) in &list.ops {
            if op.activations() > 0 {
                current = None;
            }
            expect.push(match op {
                Op::Activate { e, t } => {
                    engine.activate(*e, *t);
                    Expect::Nothing
                }
                Op::Ingest { t, jobs } => {
                    jobs.iter().flatten().for_each(|&e| engine.activate(e, *t));
                    Expect::Nothing
                }
                Op::Batch { t, edges } => {
                    edges.iter().for_each(|&e| engine.activate(e, *t));
                    Expect::Nothing
                }
                Op::ClusterQuery | Op::Labels => {
                    let c = current.get_or_insert_with(|| cold(&engine));
                    Expect::Labels(hash_u32s(c.labels()))
                }
                Op::QueryBurst(queries) => {
                    let c = current.get_or_insert_with(|| cold(&engine));
                    Expect::Burst(queries.iter().map(|&q| Answer::expected(c, q)).collect())
                }
                Op::Create | Op::Reopen | Op::Compact => Expect::Nothing,
            });
        }
        assert_eq!(engine.rescales(), 0, "no pass may cross a rescale (ROADMAP item 1)");
        Self { expect, digest: engine_digest(&engine) }
    }
}
