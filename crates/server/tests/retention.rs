//! A published snapshot is freed once every cursor has moved past it.
//!
//! The publication chain keeps a snapshot alive while any reader cursor
//! sits at or before it. A server whose own cursors stand still — one taken
//! at start to clone readers from, the accept loop's, an idle connection's —
//! keeps every snapshot it has ever published. Each test takes a snapshot,
//! keeps only a `Weak` to it, drops its reader, and drives more
//! ingest+flush cycles: the snapshot must be gone.

use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use anc_core::{AncConfig, AncEngine, ClusterMode};
use anc_graph::gen::connected_caveman;
use anc_server::{
    EngineBackend, Request, Response, ServeConfig, ServeSnapshot, ServerCore, SnapshotReader,
    TcpServer, WireClient,
};

const CYCLES: u32 = 200;

fn core() -> ServerCore {
    let engine = AncEngine::new(
        connected_caveman(6, 5).graph,
        AncConfig { k: 2, rep: 1, ..Default::default() },
        42,
    );
    let serve =
        ServeConfig { modes: vec![ClusterMode::Even, ClusterMode::Power], ..Default::default() };
    ServerCore::start(EngineBackend::Volatile(engine), serve).expect("server start")
}

/// The snapshot the cursor reads now, held only weakly.
fn weak_latest(mut reader: SnapshotReader) -> Weak<ServeSnapshot> {
    Arc::downgrade(&reader.snapshot())
}

#[test]
fn an_unread_snapshot_is_freed_in_process() {
    let core = core();
    let ingest = core.ingest_handle();
    ingest.submit(1.0, vec![0, 1]).expect("queue has room");
    ingest.flush().expect("writer alive");
    let first = weak_latest(core.reader());
    for t in 2..CYCLES + 2 {
        ingest.submit(f64::from(t), vec![t % 30]).expect("queue has room");
        ingest.flush().expect("writer alive");
    }
    assert!(first.upgrade().is_none(), "a snapshot no reader holds is still alive");
    assert!(core.shutdown().wal_error.is_none());
}

#[test]
fn an_unread_snapshot_is_freed_behind_tcp() {
    let server = TcpServer::start(core(), "127.0.0.1:0").expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let mut call = |req: Request| client.call(&req).expect("reply");
    assert!(matches!(
        call(Request::Ingest { t: 1.0, edges: vec![0, 1] }),
        Response::Ingested { .. }
    ));
    assert!(matches!(call(Request::Flush), Response::Flushed { .. }));
    let first = weak_latest(server.reader());
    for t in 2..CYCLES + 2 {
        let edges = vec![t % 30];
        assert!(matches!(
            call(Request::Ingest { t: f64::from(t), edges }),
            Response::Ingested { .. }
        ));
        assert!(matches!(call(Request::Flush), Response::Flushed { .. }));
    }
    // The connection advanced its cursor before waiting for more requests;
    // the accept loop advances its own every few milliseconds.
    let deadline = Instant::now() + Duration::from_secs(2);
    while first.upgrade().is_some() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(first.upgrade().is_none(), "a snapshot no reader holds is still alive");
    drop(client);
    assert!(server.shutdown().wal_error.is_none());
}
