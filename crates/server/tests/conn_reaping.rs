//! The accept loop joins the threads of connections that have closed.
//!
//! Each connection runs on its own thread, and an exited thread keeps its
//! stack mapped (about 2 MiB of address space) until it is joined. An accept
//! loop that joins only at shutdown grows the process by that much per
//! connection ever served, until the kernel's map limit makes every later
//! spawn fail and new connections are dropped unanswered. A single test in
//! its own binary, so no other test's threads move the measurement.

#![cfg(target_os = "linux")]

use anc_core::{AncConfig, AncEngine};
use anc_graph::gen::connected_caveman;
use anc_server::{
    EngineBackend, Request, Response, ServeConfig, ServerCore, TcpServer, WireClient,
};

const CYCLES: usize = 200;

/// The process's virtual size in KiB (`VmSize` in `/proc/self/status`).
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmSize:")).expect("VmSize line");
    line.split_whitespace().nth(1).and_then(|kib| kib.parse().ok()).expect("VmSize in kB")
}

#[test]
fn closed_connections_do_not_keep_their_thread_stacks() {
    let engine = AncEngine::new(
        connected_caveman(4, 6).graph,
        AncConfig { k: 2, rep: 1, ..Default::default() },
        42,
    );
    let core = ServerCore::start(EngineBackend::Volatile(engine), ServeConfig::default())
        .expect("server start");
    let server = TcpServer::start(core, "127.0.0.1:0").expect("bind");
    let ping = |addr| {
        let mut client = WireClient::connect(addr).expect("connect");
        assert_eq!(client.call(&Request::Ping).expect("reply"), Response::Pong);
    };
    // Warm-up: the allocator's arenas and the first thread stacks.
    for _ in 0..8 {
        ping(server.local_addr());
    }
    let before = vm_size_kib();
    for _ in 0..CYCLES {
        ping(server.local_addr());
    }
    let grown = vm_size_kib().saturating_sub(before);
    assert!(grown < 64 * 1024, "{CYCLES} closed connections grew the address space by {grown} KiB");
    assert!(server.shutdown().wal_error.is_none());
}
