//! The accept loop serves at most `MAX_CONNECTIONS` connections at once.
//!
//! One past the cap reads an `Overloaded` error frame and is closed; once a
//! held connection closes, a new one is served again. A single test in its
//! own binary: it holds 2 × 256 sockets (both ends) plus a few, under a
//! 1 024 descriptor limit with room to spare.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use anc_core::{AncConfig, AncEngine};
use anc_graph::gen::connected_caveman;
use anc_server::{
    wire, EngineBackend, ErrorCode, Request, Response, ServeConfig, ServerCore, TcpServer,
    WireClient, MAX_CONNECTIONS,
};

/// The first frame the server sends on a fresh connection, waiting at most
/// two seconds (a served connection sends nothing unasked).
fn first_reply(addr: std::net::SocketAddr) -> Option<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(2))).expect("read timeout");
    match wire::read_frame(&mut stream) {
        Ok(Some(payload)) => Some(Response::decode(&payload).expect("a well-formed reply")),
        _ => None,
    }
}

#[test]
fn one_past_the_cap_is_refused_until_a_held_connection_closes() {
    let engine = AncEngine::new(
        connected_caveman(4, 6).graph,
        AncConfig { k: 2, rep: 1, ..Default::default() },
        42,
    );
    let core = ServerCore::start(EngineBackend::Volatile(engine), ServeConfig::default())
        .expect("server start");
    let server = TcpServer::start(core, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // A ping answered proves its connection has a thread the loop counts.
    let mut held: Vec<WireClient> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut client = WireClient::connect(addr).expect("connect");
            assert_eq!(client.call(&Request::Ping).expect("reply"), Response::Pong);
            client
        })
        .collect();

    match first_reply(addr) {
        Some(Response::Error { code: ErrorCode::Overloaded, .. }) => {}
        other => panic!("connection {} past the cap got {other:?}", MAX_CONNECTIONS + 1),
    }
    // The held connections are still served.
    assert_eq!(held[0].call(&Request::Ping).expect("reply"), Response::Pong);

    drop(held.pop());
    // The loop reaps the closed connection's thread on a later poll; until
    // then a newcomer may still be refused.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = WireClient::connect(addr).expect("connect");
        match client.call(&Request::Ping) {
            Ok(Response::Pong) => break,
            Ok(Response::Error { code: ErrorCode::Overloaded, .. }) | Err(_) => {
                assert!(Instant::now() < deadline, "no connection served after one closed");
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok(other) => panic!("expected Pong or Overloaded, got {other:?}"),
        }
    }
    drop(held);
    assert!(server.shutdown().wal_error.is_none());
}
