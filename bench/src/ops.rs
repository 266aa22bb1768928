//! Workloads as fixed, seeded op lists.
//!
//! A workload is never "run for N seconds": it is a list of ops generated
//! from `--seed`, replayed whole in every pass, so that op `i` of one pass
//! is the same work as op `i` of any other and a per-op minimum over passes
//! (the *floor*, see `floor.rs`) means something.

use anc_graph::{EdgeId, Graph, NodeId};

use crate::digest::Hasher64;
use crate::fixture::{ActivationStream, Fixture};
use crate::rng::SplitMix64;

/// The four workloads. Why each exists is in `BENCHMARK.json` and
/// `README.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    EngineStream,
    ServeIngest,
    ServeQuery,
    DurableRestart,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EngineStream,
        Workload::ServeIngest,
        Workload::ServeQuery,
        Workload::DurableRestart,
    ];

    /// The workloads `BENCHMARK.json` lists: the ones the driver runs and
    /// gates. `durable-restart` stays a workload of this program, and every
    /// traced run still visits it for the `wal.*` and `binary.*` layers, but
    /// it is not gated: its ops end in `sync_all` on the checkout's block
    /// device (the benchmark may write nowhere else), whose latency is the
    /// host's and not the program's; ten seeds spread 11–25 % on its timed
    /// metrics where the other three spread 1–7 % (`README.md`).
    pub const GATED: [Workload; 3] =
        [Workload::EngineStream, Workload::ServeIngest, Workload::ServeQuery];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineStream => "engine-stream",
            Workload::ServeIngest => "serve-ingest",
            Workload::ServeQuery => "serve-query",
            Workload::DurableRestart => "durable-restart",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Segments of a full-length pass: 60 × 64 activations, 30 × (5 wait +
    /// 1 bulk), 8 × (1 ingest + 1 labels + 62 bursts), 1 restart round of 160
    /// batches.
    /// No pass carries more than 3 840 activations, below the 4 096 of the
    /// default rescale interval. The threaded workloads' passes are kept
    /// short on purpose: their ops are wake-up chains, which a busy host
    /// stretches by whole scheduler slices, and a floor only forgets such a
    /// slice if another pass saw the op without one — passes, not ops per
    /// pass, are what they need.
    pub fn full_segments(self) -> usize {
        match self {
            Workload::EngineStream => 60,
            Workload::ServeIngest => 30,
            Workload::ServeQuery => 8,
            Workload::DurableRestart => 1,
        }
    }

    /// Op lists of an untraced run, each drawn from its own sub-seed of
    /// `--seed` and all replayed from the one fixture; their ops are pooled.
    /// One list made a tail metric a property of that list
    /// (`engine-stream/wait_p95_us` 162–197 µs over eight lists with floors
    /// taken side by side), more lists leave each fewer passes for its floor:
    /// passes × distinct ops is what `--seconds` buys. `serve-query` spends it
    /// all on passes: a burst is a chain of wake-ups between two threads whose
    /// floor is still falling after a hundred passes (the median burst of a
    /// pass takes 1.8 × its floor), and its 496 bursts of random point queries
    /// differ little from seed to seed (1 % over eight seeds). `serve-ingest`
    /// is such a chain too, but its wait ops run from 60 to 800 µs with the
    /// 95th percentile on the steep end, and with two lists `wait_p95_us`
    /// spread 16 % over ten seeds, most of it in the quiet runs.
    pub fn lists(self) -> usize {
        match self {
            Workload::ServeQuery => 1,
            _ => 3,
        }
    }

    /// Segments of the one-pass visit a traced run pays to workloads other
    /// than the selected one, so that every layer has a number in every
    /// traced run.
    pub fn tour_segments(self) -> usize {
        match self {
            Workload::EngineStream => 30,
            Workload::ServeIngest => 10,
            Workload::ServeQuery => 4,
            Workload::DurableRestart => 1,
        }
    }
}

/// How an op's floor time is used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Small and frequent: `wait_p50_us`, `wait_p95_us`.
    Wait,
    /// Rare and large: `bulk_p50_ms`.
    Bulk,
    /// Timed and counted in `ops_per_s` only.
    Other,
}

/// One point query of a `serve-query` burst.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    SameCluster { u: NodeId, v: NodeId },
    Summary,
    Members { v: NodeId },
}

/// One timed unit of work.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `AncEngine::activate`.
    Activate { e: EdgeId, t: f64 },
    /// `AncEngine::cluster_all_cached(default_level, Even)`.
    ClusterQuery,
    /// One write carrying an `Ingest` frame per job followed by a `Flush`;
    /// the op ends when the last reply has arrived, i.e. when everything is
    /// applied *and published*.
    Ingest { t: f64, jobs: Vec<Vec<EdgeId>> },
    /// Pipelined point queries: one write, one reply per query.
    QueryBurst(Vec<Query>),
    /// One `ClusterLabels` round trip.
    Labels,
    /// `DurableEngine::create`.
    Create,
    /// `DurableEngine::activate_batch`.
    Batch { t: f64, edges: Vec<EdgeId> },
    /// Drop the engine, then `DurableEngine::open` (snapshot load plus log
    /// replay); only the `open` is timed.
    Reopen,
    /// `DurableEngine::compact`.
    Compact,
}

impl Op {
    /// Activations this op applies.
    pub fn activations(&self) -> usize {
        match self {
            Op::Activate { .. } => 1,
            Op::Ingest { jobs, .. } => jobs.iter().map(Vec::len).sum(),
            Op::Batch { edges, .. } => edges.len(),
            _ => 0,
        }
    }

    /// Queries this op answers.
    pub fn queries(&self) -> usize {
        match self {
            Op::ClusterQuery | Op::Labels => 1,
            Op::QueryBurst(queries) => queries.len(),
            _ => 0,
        }
    }

    /// Activations plus queries: the op's weight in `ops_per_s`,
    /// `attempted` and `failed`.
    pub fn items(&self) -> usize {
        self.activations() + self.queries()
    }

    fn hash_into(&self, h: &mut Hasher64) {
        let edges = |h: &mut Hasher64, t: f64, edges: &[EdgeId]| {
            h.word(t.to_bits());
            h.word(edges.len() as u64);
            edges.iter().for_each(|&e| h.word(u64::from(e)));
        };
        match self {
            Op::Activate { e, t } => {
                h.word(1);
                edges(h, *t, &[*e]);
            }
            Op::ClusterQuery => h.word(2),
            Op::Ingest { t, jobs } => {
                h.word(3);
                h.word(jobs.len() as u64);
                jobs.iter().for_each(|job| edges(h, *t, job));
            }
            Op::QueryBurst(queries) => {
                h.word(4);
                h.word(queries.len() as u64);
                for q in queries {
                    match *q {
                        Query::SameCluster { u, v } => h.word(u64::from(u) << 32 | u64::from(v)),
                        Query::Summary => h.word(u64::MAX),
                        Query::Members { v } => h.word(1 << 63 | u64::from(v)),
                    }
                }
            }
            Op::Labels => h.word(5),
            Op::Create => h.word(6),
            Op::Batch { t, edges: batch } => {
                h.word(7);
                edges(h, *t, batch);
            }
            Op::Reopen => h.word(8),
            Op::Compact => h.word(9),
        }
    }
}

/// A workload's op list for one seed.
pub struct OpList {
    pub workload: Workload,
    pub ops: Vec<(Class, Op)>,
    /// Hash of the whole list; passes may only be folded together when
    /// their fingerprints agree.
    pub fingerprint: u64,
}

/// Edges per `serve-ingest` wait op. A writer cycle either repairs the
/// published clustering in microseconds or, when any vote flipped off,
/// rebuilds it in ≈ 2.3 ms; with 16 edges per op the two outcomes are about
/// equally likely and the median op sits on the boundary between them
/// (1.8–2.5 ms from seed to seed). With 8 the rebuild share is about a
/// third: the median is a repair cycle, the 95th percentile a rebuild.
pub const INGEST_EDGES: usize = 8;
/// Edges per `durable-restart` batch, and batches per restart round.
pub const DURABLE_BATCH: usize = 16;
pub const DURABLE_BATCHES: usize = 160;
/// Point queries per `serve-query` burst.
pub const BURST: usize = 32;

impl OpList {
    /// Generates `segments` segments of `workload` from `seed`. The graph is
    /// only consulted for edge endpoints (so that half the `SameCluster`
    /// probes are adjacent pairs, which mostly do share a cluster — uniform
    /// pairs almost never would).
    pub fn generate(workload: Workload, fixture: &Fixture, seed: u64, segments: usize) -> Self {
        let g = &fixture.snapshot().graph;
        let mut stream = ActivationStream::new(fixture, seed);
        let mut qrng = SplitMix64::stream(seed, 3);
        let mut ops = Vec::new();
        match workload {
            Workload::EngineStream => {
                for _ in 0..segments {
                    for _ in 0..64 {
                        let t = stream.now();
                        ops.push((Class::Wait, Op::Activate { e: stream.next_edge(), t }));
                    }
                    ops.push((Class::Bulk, Op::ClusterQuery));
                }
            }
            Workload::ServeIngest => {
                for _ in 0..segments {
                    for _ in 0..5 {
                        let (t, edges) = stream.next_batch(INGEST_EDGES);
                        ops.push((Class::Wait, Op::Ingest { t, jobs: vec![edges] }));
                    }
                    let (t, edges) = stream.next_batch(64);
                    let jobs = edges.chunks(4).map(<[EdgeId]>::to_vec).collect();
                    ops.push((Class::Bulk, Op::Ingest { t, jobs }));
                }
            }
            Workload::ServeQuery => {
                for _ in 0..segments {
                    let (t, edges) = stream.next_batch(8);
                    ops.push((Class::Other, Op::Ingest { t, jobs: vec![edges] }));
                    ops.push((Class::Bulk, Op::Labels));
                    for _ in 0..62 {
                        let burst =
                            (0..BURST).map(|_| random_query(&mut qrng, fixture, g)).collect();
                        ops.push((Class::Wait, Op::QueryBurst(burst)));
                    }
                }
            }
            Workload::DurableRestart => {
                ops.push((Class::Other, Op::Create));
                for _ in 0..segments {
                    for _ in 0..DURABLE_BATCHES {
                        let (t, edges) = stream.next_batch(DURABLE_BATCH);
                        ops.push((Class::Wait, Op::Batch { t, edges }));
                    }
                    ops.push((Class::Bulk, Op::Reopen));
                    ops.push((Class::Other, Op::Compact));
                }
            }
        }
        let mut h = Hasher64::default();
        h.word(ops.len() as u64);
        for (class, op) in &ops {
            h.word(*class as u64);
            op.hash_into(&mut h);
        }
        Self { workload, ops, fingerprint: h.finish() }
    }

    /// Activations plus queries of one pass.
    pub fn items(&self) -> usize {
        self.ops.iter().map(|(_, op)| op.items()).sum()
    }

    pub fn activations(&self) -> usize {
        self.ops.iter().map(|(_, op)| op.activations()).sum()
    }
}

/// 60 % `SameCluster`, 30 % `ClusterSummary`, 10 % `Members`.
fn random_query(rng: &mut SplitMix64, fixture: &Fixture, g: &Graph) -> Query {
    match rng.below(10) {
        0..=5 => {
            if rng.percent(50) {
                let (u, v) = g.endpoints(rng.below(fixture.m()) as EdgeId);
                Query::SameCluster { u, v }
            } else {
                Query::SameCluster {
                    u: rng.below(fixture.n()) as NodeId,
                    v: rng.below(fixture.n()) as NodeId,
                }
            }
        }
        6..=8 => Query::Summary,
        _ => Query::Members { v: rng.below(fixture.n()) as NodeId },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::engine_digest;
    use crate::fixture::{build_engine, generate_graph, Scale};
    use crate::reference::Reference;

    fn smoke_fixture() -> Fixture {
        let lg = generate_graph(Scale::Smoke);
        Fixture::new(&build_engine(lg.graph), &lg.labels)
    }

    #[test]
    fn same_seed_same_list_and_digest_other_seed_other_list() {
        let fixture = smoke_fixture();
        assert_eq!(engine_digest(&fixture.restore()), engine_digest(&fixture.restore()));
        for workload in Workload::ALL {
            let segments = workload.tour_segments();
            let a = OpList::generate(workload, &fixture, 1, segments);
            let b = OpList::generate(workload, &fixture, 1, segments);
            let c = OpList::generate(workload, &fixture, 2, segments);
            assert_eq!(a.ops, b.ops, "{}", workload.name());
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_ne!(a.ops, c.ops, "{}", workload.name());
            assert_ne!(a.fingerprint, c.fingerprint);
            // The reference replay of one list lands on one digest.
            let (ra, rb) = (Reference::compute(&fixture, &a), Reference::compute(&fixture, &b));
            assert_eq!(ra.digest, rb.digest);
            assert_ne!(ra.digest, Reference::compute(&fixture, &c).digest);
        }
        // The dataset is the same whatever the seed.
        assert_eq!(engine_digest(&fixture.restore()), engine_digest(&smoke_fixture().restore()));
    }

    #[test]
    fn full_passes_stay_below_the_rescale_interval() {
        let fixture = smoke_fixture();
        for workload in Workload::ALL {
            let list = OpList::generate(workload, &fixture, 3, workload.full_segments());
            assert!(list.activations() <= 3840, "{}: {}", workload.name(), list.activations());
            // p95 over a run's pooled lists needs ten samples beyond its rank.
            let wait =
                workload.lists() * list.ops.iter().filter(|(c, _)| *c == Class::Wait).count();
            assert!(
                wait - (wait as f64 * 0.95).ceil() as usize >= 10,
                "{}: {wait}",
                workload.name()
            );
            assert!(list.ops.iter().any(|(c, _)| *c == Class::Bulk));
        }
    }
}
