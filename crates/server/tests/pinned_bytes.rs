//! The bytes on the wire and on disk, pinned.
//!
//! One frame of every request and response kind, a short write-ahead log and
//! a snapshot of a fixed engine are encoded, and each
//! byte string's length and FNV-1a hash are checked against constants. Every
//! frame, log record and snapshot ends in a CRC-32, so a checksum that drifts
//! from the IEEE polynomial (a wrong table entry, bytes folded out of order)
//! fails here even when the payload codec is right, and so does any payload
//! encoding that moves a byte. A change that means to move bytes changes the
//! format version and these constants together.

use anc_core::persist::{DurabilityOptions, DurableEngine, SnapshotProfile, WAL_FILE};
use anc_core::{AncConfig, AncEngine, ClusterMode};
use anc_graph::gen::{planted_partition, PlantedConfig};
use anc_graph::EdgeId;
use anc_server::{wire, ErrorCode, Request, Response, StatsReply};

/// FNV-1a, 64-bit: fixed by its definition, unlike `std`'s hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

fn framed(encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut payload = Vec::new();
    encode(&mut payload);
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, &payload).expect("a Vec takes every write");
    frame
}

fn requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Ingest { t: 1.5, edges: vec![0, 7, 300_000, 41, 41, 9_999] },
        Request::Flush,
        Request::SameCluster { u: 3, v: 9, level: 2, mode: ClusterMode::Even },
        Request::ClusterSummary { level: 4, mode: ClusterMode::Power },
        Request::ClusterLabels { level: 1, mode: ClusterMode::Even },
        Request::Members { v: 17, level: 3, mode: ClusterMode::Power },
        Request::Stats,
        Request::Shutdown,
    ]
}

fn responses() -> Vec<Response> {
    // 203 labels: a 16-byte-aligned bulk and a ragged tail, noise included.
    let labels =
        (0..203u32)
            .map(|v| if v % 17 == 5 { u32::MAX } else { v.wrapping_mul(2_654_435_761) % 29 });
    vec![
        Response::Pong,
        Response::Ingested { seq: 1 << 40 },
        Response::Flushed { epoch: 12 },
        Response::SameCluster { epoch: 3, value: true },
        Response::Summary { epoch: 9, generation: 4, num_clusters: 11, num_assigned: 96 },
        Response::Labels { epoch: 2, generation: 1, labels: labels.collect() },
        Response::Members { epoch: 7, members: vec![1, 2, 3, 150, 70_000] },
        Response::Stats(StatsReply {
            epoch: 5,
            applied_seq: 40,
            generation: 6,
            ingested_jobs: 40,
            ingested_edges: 900,
            applied_batches: 12,
            coalesced_jobs: 30,
            max_batch_edges: 200,
            shed: 1,
            cache_hits: 7,
            cache_misses: 9,
            apply_count: 40,
            apply_p50_ns: 1_000,
            apply_p99_ns: 90_000,
            apply_p999_ns: 220_000,
            apply_max_ns: 230_001,
        }),
        Response::ShuttingDown,
        Response::Error { code: ErrorCode::NotPublished, msg: "level 9 is not published".into() },
    ]
}

/// `planted_partition(default_for(200), 1)` after a fixed 64-activation
/// stream.
fn fixed_engine() -> AncEngine {
    let g = planted_partition(&PlantedConfig::default_for(200), 1).graph;
    let mut engine = AncEngine::new(g, AncConfig::default(), 7);
    let m = engine.graph().m() as u64;
    for i in 0..64u64 {
        let e = EdgeId::try_from((i * 7_919 + 13) % m).expect("m fits EdgeId");
        engine.activate(e, 0.25 * i as f64);
    }
    engine
}

/// `create` over the fixed engine, then four `activate_batch` records.
fn short_wal() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("anc-pinned-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut durable =
        DurableEngine::create(fixed_engine(), &dir, DurabilityOptions::default()).expect("create");
    for i in 0..4u32 {
        let edges: Vec<EdgeId> = (0..3 + 5 * i).map(|j| (31 * i + 17 * j) % 150).collect();
        let _batch = durable.activate_batch(&edges, 20.0 + f64::from(i)).expect("append");
    }
    drop(durable);
    let bytes = std::fs::read(dir.join(WAL_FILE)).expect("read wal");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// (name, length, FNV-1a) of every pinned byte string, recorded with the
/// bytewise CRC-32.
const PINNED: [(&str, usize, u64); 21] = [
    ("req Ping", 9, 0xe6e3972751f8f0b3),
    ("req Ingest", 27, 0x5e7dde3d2b949efe),
    ("req Flush", 9, 0xb474b4cfd9987126),
    ("req SameCluster", 13, 0xde9f865e336445d9),
    ("req ClusterSummary", 11, 0x542048f0f26d55a0),
    ("req ClusterLabels", 11, 0x8410d6a2b5f3d531),
    ("req Members", 12, 0xb15140b395aca483),
    ("req Stats", 9, 0x2ec530cf5fd94af7),
    ("req Shutdown", 9, 0x878e9e8910650000),
    ("resp Pong", 9, 0xe6e3972751f8f0b3),
    ("resp Ingested", 15, 0x58d18327c64e2c7f),
    ("resp Flushed", 10, 0xe68186f1842add37),
    ("resp SameCluster", 11, 0xc0a7da5192aaec25),
    ("resp Summary", 13, 0xf239346aa50e422b),
    ("resp Labels", 825, 0xbb9c8a5e79fec9af),
    ("resp Members", 19, 0xc605cf13e96e9c47),
    ("resp Stats", 34, 0x7cc5cbfa7342246f),
    ("resp ShuttingDown", 9, 0x878e9e8910650000),
    ("resp Error", 35, 0x85129c577ae7b23e),
    ("wal", 136, 0xb8d77bacae64c6e4),
    ("snapshot Exact", 15636, 0x7debcd9a232cb933),
];

#[test]
fn wire_wal_and_snapshot_bytes_are_pinned() {
    let mut got: Vec<Vec<u8>> = Vec::new();
    got.extend(requests().iter().map(|req| framed(|out| req.encode(out))));
    got.extend(responses().iter().map(|resp| framed(|out| resp.encode(out))));
    got.push(short_wal());
    let mut snapshot = Vec::new();
    fixed_engine().save_binary(&mut snapshot, SnapshotProfile::Exact).expect("save");
    got.push(snapshot);
    assert_eq!(got.len(), PINNED.len());
    let drifted: Vec<String> = PINNED
        .iter()
        .zip(&got)
        .filter(|((_, len, hash), bytes)| (bytes.len(), fnv1a(bytes)) != (*len, *hash))
        .map(|((name, ..), bytes)| {
            format!("(\"{name}\", {}, {:#018x}),", bytes.len(), fnv1a(bytes))
        })
        .collect();
    assert!(drifted.is_empty(), "bytes moved:\n{}", drifted.join("\n"));
}
