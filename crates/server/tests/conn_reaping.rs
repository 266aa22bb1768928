//! The accept loop joins the threads of connections that have closed.
//!
//! Each connection runs on its own thread, and an exited thread keeps its
//! stack mapped (about 2 MiB of address space) until it is joined. An accept
//! loop that joins only at shutdown grows the process by one stack mapping
//! per connection ever served, until the kernel's map limit makes every
//! later spawn fail and new connections are dropped unanswered. A single
//! test in its own binary, so no other test's threads move the measurement.
//!
//! It counts stack mappings, not the process's virtual size: a thread's
//! first allocation may open a malloc arena, which reserves 64 MiB of address
//! space at once, and that is not a leak. A joined stack may stay mapped too,
//! in the C library's cache of stacks for reuse, but that cache is bounded;
//! a stack nobody joins is never reused.

#![cfg(target_os = "linux")]

use anc_core::{AncConfig, AncEngine};
use anc_graph::gen::connected_caveman;
use anc_server::{
    EngineBackend, Request, Response, ServeConfig, ServerCore, TcpServer, WireClient,
};

const CYCLES: usize = 200;

/// The `/proc/self/maps` entries: `(start, end, perms, path)` per mapping.
fn mappings() -> Vec<(u64, u64, String, String)> {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
    maps.lines()
        .map(|line| {
            let mut fields = line.split_whitespace();
            let range = fields.next().expect("address range");
            let perms = fields.next().expect("permissions").to_owned();
            let path = fields.nth(3).unwrap_or("").to_owned();
            let (start, end) = range.split_once('-').expect("start-end");
            let hex = |x| u64::from_str_radix(x, 16).expect("hex address");
            (hex(start), hex(end), perms, path)
        })
        .collect()
}

/// Size and permissions of the mapping that holds a new thread's stack.
/// The connection threads are spawned with the default stack size, as this
/// one is, so their stacks are mappings of this shape.
fn thread_stack_shape() -> (u64, String) {
    std::thread::spawn(|| {
        let local = 0u8;
        let addr = std::hint::black_box(&local) as *const u8 as u64;
        let (start, end, perms, _) = mappings()
            .into_iter()
            .find(|&(start, end, ..)| start <= addr && addr < end)
            .expect("the stack is mapped");
        (end - start, perms)
    })
    .join()
    .expect("probe thread")
}

/// Anonymous mappings of a thread stack's size and permissions.
fn stack_mappings(shape: &(u64, String)) -> usize {
    mappings()
        .iter()
        .filter(|(start, end, perms, path)| {
            end - start == shape.0 && *perms == shape.1 && path.is_empty()
        })
        .count()
}

#[test]
fn closed_connections_do_not_keep_their_thread_stacks() {
    let shape = thread_stack_shape();
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
    let before = stack_mappings(&shape);
    // The writer and accept threads have stacks of that shape too: a shape
    // that matched nothing would make the count below vacuous.
    assert!(before >= 2, "{before} mappings of a thread stack's shape {shape:?}");
    for _ in 0..CYCLES {
        ping(server.local_addr());
    }
    // Joined stacks are reused, so the count stays near the few connections
    // alive at once plus the stack cache; unjoined ones add one per cycle.
    let grown = stack_mappings(&shape).saturating_sub(before);
    assert!(
        grown < CYCLES / 4,
        "{CYCLES} closed connections left {grown} more thread-stack mappings of {} KiB",
        shape.0 / 1024
    );
    assert!(server.shutdown().wal_error.is_none());
}
