//! Wire-protocol coverage (ISSUE 10 satellite 4): golden round-trips of
//! every request/response variant, malformed frames, oversized length
//! prefixes, mid-frame disconnects — the server must answer with a typed
//! error frame or drop the connection, and never panic (`anc-server`
//! denies the clippy panic lints outside tests).

use std::io::Cursor;

use anc_core::persist::WAL_FILE;
use anc_core::{AncConfig, AncEngine, ClusterMode, DurabilityOptions, DurableEngine};
use anc_graph::gen::connected_caveman;
use anc_server::{
    wire, EngineBackend, ErrorCode, Request, Response, ServeConfig, ServerCore, StatsReply,
    TcpServer, WireClient, MAX_FRAME,
};

fn start_server() -> TcpServer {
    let lg = connected_caveman(4, 6);
    let cfg = AncConfig { k: 2, rep: 1, ..Default::default() };
    let engine = AncEngine::new(lg.graph, cfg, 42);
    let level = engine.default_level();
    let core = ServerCore::start(
        EngineBackend::Volatile(engine),
        ServeConfig { levels: vec![level], modes: vec![ClusterMode::Even], ..Default::default() },
    )
    .expect("server core");
    TcpServer::start(core, "127.0.0.1:0").expect("bind")
}

fn roundtrip_request(req: &Request) {
    let mut buf = Vec::new();
    req.encode(&mut buf);
    assert_eq!(&Request::decode(&buf).expect("decode"), req, "request round-trip");
}

fn roundtrip_response(resp: &Response) {
    let mut buf = Vec::new();
    resp.encode(&mut buf);
    assert_eq!(&Response::decode(&buf).expect("decode"), resp, "response round-trip");
}

#[test]
fn golden_roundtrip_every_variant() {
    for req in [
        Request::Ping,
        Request::Ingest { t: 1.5, edges: vec![0, 7, 300_000] },
        Request::Ingest { t: -3.25, edges: vec![] },
        Request::Flush,
        Request::SameCluster { u: 3, v: 9, level: 2, mode: ClusterMode::Even },
        Request::SameCluster { u: 0, v: 0, level: 0, mode: ClusterMode::Power },
        Request::ClusterSummary { level: 4, mode: ClusterMode::Power },
        Request::ClusterLabels { level: 1, mode: ClusterMode::Even },
        Request::Members { v: 17, level: 3, mode: ClusterMode::Even },
        Request::Stats,
        Request::Shutdown,
    ] {
        roundtrip_request(&req);
    }
    for resp in [
        Response::Pong,
        Response::Ingested { seq: u64::MAX },
        Response::Flushed { epoch: 12 },
        Response::SameCluster { epoch: 3, value: true },
        Response::SameCluster { epoch: 0, value: false },
        Response::Summary { epoch: 9, generation: 4, num_clusters: 11, num_assigned: 96 },
        Response::Labels { epoch: 2, generation: 1, labels: vec![0, u32::MAX, 5] },
        Response::Labels { epoch: 2, generation: 1, labels: vec![] },
        Response::Members { epoch: 7, members: vec![1, 2, 3] },
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
        Response::Error { code: ErrorCode::Overloaded, msg: "queue full".into() },
    ] {
        roundtrip_response(&resp);
    }
}

/// The write-ahead-log record the same `(t, edges)` appends is, byte for
/// byte, the wire frame of an `Ingest` request's payload after its tag byte:
/// the wire and the log share one activation batch and one frame.
#[test]
fn ingest_fields_are_a_log_record_payload() {
    let (t, edges) = (2.75, vec![0, 7, 7, 30]);
    let mut request = Vec::new();
    Request::Ingest { t, edges: edges.clone() }.encode(&mut request);
    let batch = &request[1..];

    let dir = std::env::temp_dir().join(format!("anc-wire-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = AncEngine::new(connected_caveman(4, 6).graph, AncConfig::default(), 42);
    let mut durable =
        DurableEngine::create(engine, &dir, DurabilityOptions::default()).expect("create");
    let before = std::fs::metadata(dir.join(WAL_FILE)).expect("log").len() as usize;
    durable.activate_batch(&edges, t).expect("append");
    drop(durable);
    let log = std::fs::read(dir.join(WAL_FILE)).expect("read log");
    let _ = std::fs::remove_dir_all(&dir);
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, batch).expect("a Vec takes every write");
    assert_eq!(&log[before..], frame);
}

#[test]
fn decode_rejects_malformed_payloads() {
    // Empty, unknown tags, trailing garbage, truncated fields.
    assert!(Request::decode(&[]).is_err());
    assert!(Request::decode(&[0]).is_err());
    assert!(Request::decode(&[99]).is_err());
    assert!(Response::decode(&[0]).is_err());
    assert!(Response::decode(&[99]).is_err());
    let mut buf = Vec::new();
    Request::Ping.encode(&mut buf);
    buf.push(0xAB);
    assert!(Request::decode(&buf).is_err(), "trailing byte accepted");
    // Ingest claiming more edges than the payload holds.
    let mut buf = Vec::new();
    Request::Ingest { t: 1.0, edges: vec![1, 2, 3] }.encode(&mut buf);
    buf.truncate(buf.len() - 2);
    assert!(Request::decode(&buf).is_err(), "truncated ingest accepted");
    // A bogus cluster mode byte.
    let mut buf = Vec::new();
    Request::ClusterSummary { level: 1, mode: ClusterMode::Even }.encode(&mut buf);
    *buf.last_mut().unwrap() = 9;
    assert!(Request::decode(&buf).is_err(), "bad mode byte accepted");
    // Every 3-byte prefix of a valid frame decodes to an error, never a
    // panic.
    let mut buf = Vec::new();
    Request::SameCluster { u: 1, v: 2, level: 3, mode: ClusterMode::Power }.encode(&mut buf);
    for cut in 0..buf.len() {
        let _ = Request::decode(&buf[..cut]);
    }
}

#[test]
fn frame_layer_detects_corruption() {
    let payload = b"hello-frame".to_vec();
    let mut framed = Vec::new();
    wire::write_frame(&mut framed, &payload).unwrap();
    let got = wire::read_frame(&mut Cursor::new(&framed)).unwrap().expect("one frame");
    assert_eq!(got, payload);

    // Flip one payload byte: crc must catch it.
    let mut corrupt = framed.clone();
    corrupt[5] ^= 0x40;
    assert!(matches!(wire::read_frame(&mut Cursor::new(&corrupt)), Err(wire::FrameError::BadCrc)));

    // Truncate mid-payload.
    let cut = framed.len() - 6;
    assert!(matches!(
        wire::read_frame(&mut Cursor::new(&framed[..cut])),
        Err(wire::FrameError::Truncated)
    ));

    // Oversized length prefix is rejected before allocation.
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    oversized.extend_from_slice(&[0; 16]);
    assert!(matches!(
        wire::read_frame(&mut Cursor::new(&oversized)),
        Err(wire::FrameError::TooLarge(_))
    ));

    // Clean EOF at a frame boundary is not an error.
    assert!(wire::read_frame(&mut Cursor::new(&[] as &[u8])).unwrap().is_none());
}

#[test]
fn end_to_end_requests_and_typed_errors() {
    let server = start_server();
    let addr = server.local_addr();
    let n = 24u32; // connected_caveman(4, 6)
    let mut client = WireClient::connect(addr).expect("connect");

    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);

    // Ingest, then barrier, then query the published snapshot.
    let seq = match client.call(&Request::Ingest { t: 1.0, edges: vec![0, 1, 2] }).unwrap() {
        Response::Ingested { seq } => seq,
        other => panic!("expected Ingested, got {other:?}"),
    };
    assert!(seq >= 1);
    let epoch = match client.call(&Request::Flush).unwrap() {
        Response::Flushed { epoch } => epoch,
        other => panic!("expected Flushed, got {other:?}"),
    };
    assert!(epoch >= 1);

    let reader = server.reader();
    let level = {
        let mut r = reader.clone();
        r.snapshot().default_level
    };
    match client.call(&Request::SameCluster { u: 0, v: 1, level, mode: ClusterMode::Even }) {
        Ok(Response::SameCluster { epoch: e, .. }) => assert!(e >= epoch),
        other => panic!("expected SameCluster, got {other:?}"),
    }
    match client.call(&Request::ClusterSummary { level, mode: ClusterMode::Even }).unwrap() {
        Response::Summary { num_clusters, num_assigned, .. } => {
            assert!(num_clusters >= 1);
            assert!(num_assigned <= u64::from(n));
        }
        other => panic!("expected Summary, got {other:?}"),
    }
    match client.call(&Request::ClusterLabels { level, mode: ClusterMode::Even }).unwrap() {
        Response::Labels { labels, .. } => assert_eq!(labels.len(), n as usize),
        other => panic!("expected Labels, got {other:?}"),
    }
    match client.call(&Request::Members { v: 0, level, mode: ClusterMode::Even }).unwrap() {
        Response::Members { .. } => {}
        other => panic!("expected Members, got {other:?}"),
    }
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(stats) => {
            assert!(stats.ingested_jobs >= 1);
            assert_eq!(stats.ingested_edges, 3);
            assert!(stats.apply_count >= 1);
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    // Typed errors, one per failure class.
    match client
        .call(&Request::SameCluster { u: n + 5, v: 0, level, mode: ClusterMode::Even })
        .unwrap()
    {
        Response::Error { code: ErrorCode::OutOfRange, .. } => {}
        other => panic!("expected OutOfRange, got {other:?}"),
    }
    match client.call(&Request::ClusterSummary { level, mode: ClusterMode::Power }).unwrap() {
        Response::Error { code: ErrorCode::NotPublished, .. } => {}
        other => panic!("expected NotPublished (Power not served), got {other:?}"),
    }
    match client.call(&Request::ClusterSummary { level: 999, mode: ClusterMode::Even }).unwrap() {
        Response::Error { code: ErrorCode::NotPublished, .. } => {}
        other => panic!("expected NotPublished (level 999), got {other:?}"),
    }
    match client.call(&Request::Ingest { t: f64::NAN, edges: vec![0] }).unwrap() {
        Response::Error { code: ErrorCode::Malformed, .. } => {}
        other => panic!("expected Malformed (NaN time), got {other:?}"),
    }
    match client.call(&Request::Ingest { t: 2.0, edges: vec![1 << 30] }).unwrap() {
        Response::Error { code: ErrorCode::OutOfRange, .. } => {}
        other => panic!("expected OutOfRange (edge id), got {other:?}"),
    }

    // Undecodable payload in a well-formed frame: typed Malformed reply,
    // connection stays usable.
    let garbage = [0xFFu8, 0x01, 0x02];
    let mut framed = Vec::new();
    wire::write_frame(&mut framed, &garbage).unwrap();
    client.send_raw(&framed).unwrap();
    match client.read_response().unwrap() {
        Response::Error { code: ErrorCode::Malformed, .. } => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);

    // Corrupt crc: typed Malformed reply, then the server closes.
    let mut corrupt = Vec::new();
    let mut payload = Vec::new();
    Request::Ping.encode(&mut payload);
    wire::write_frame(&mut corrupt, &payload).unwrap();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    client.send_raw(&corrupt).unwrap();
    match client.read_response().unwrap() {
        Response::Error { code: ErrorCode::Malformed, .. } => {}
        other => panic!("expected Malformed (bad crc), got {other:?}"),
    }
    assert!(client.read_response().is_err(), "connection closed after crc failure");

    // Oversized length prefix: typed error, then close.
    let mut client = WireClient::connect(addr).expect("reconnect");
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    client.send_raw(&hostile).unwrap();
    match client.read_response().unwrap() {
        Response::Error { code: ErrorCode::Malformed, .. } => {}
        other => panic!("expected Malformed (oversized), got {other:?}"),
    }
    assert!(client.read_response().is_err(), "connection closed after oversized frame");

    // Mid-frame disconnect: the server drops the connection and keeps
    // serving everyone else.
    let mut half = WireClient::connect(addr).expect("connect half");
    half.send_raw(&100u32.to_le_bytes()).unwrap();
    half.send_raw(&[1, 2, 3]).unwrap(); // 3 of the promised 100 bytes
    half.shutdown_write().unwrap();
    let mut survivor = WireClient::connect(addr).expect("connect survivor");
    assert_eq!(survivor.call(&Request::Ping).unwrap(), Response::Pong);

    // Wire-initiated shutdown.
    assert_eq!(survivor.call(&Request::Shutdown).unwrap(), Response::ShuttingDown);
    assert!(server.stop_requested());
    let report = server.shutdown();
    assert!(report.wal_error.is_none());
    assert_eq!(report.stats.ingested_edges, 3, "only the one valid ingest applied");
}
