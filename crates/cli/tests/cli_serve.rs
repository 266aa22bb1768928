//! End-to-end test of `anc serve`: index a small graph through the CLI,
//! host it over TCP, drive it with the wire client (ingest, flush,
//! queries, stats), shut it down over the wire, and check the saved
//! state. Exercises both the volatile path (`--out` checkpoint) and the
//! durable path (`--durable-dir` create, then recover without
//! `--engine`).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

use anc_cli::run;
use anc_core::ClusterMode;
use anc_server::{Request, Response, WireClient};

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anc-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The serve command writes `--addr-file` right after binding; poll for it.
fn wait_addr(path: &Path) -> SocketAddr {
    for _ in 0..1_000 {
        if let Ok(s) = std::fs::read_to_string(path) {
            if let Ok(addr) = s.trim().parse() {
                return addr;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("server never wrote {}", path.display());
}

fn stats(client: &mut WireClient) -> anc_server::StatsReply {
    match client.call(&Request::Stats).expect("stats") {
        Response::Stats(s) => s,
        other => panic!("expected Stats, got {other:?}"),
    }
}

#[test]
fn serve_volatile_then_durable_recovery() {
    let dir = tmpdir();
    let graph = dir.join("g.txt");
    let engine = dir.join("engine.anc");
    let gp = graph.to_str().unwrap().to_string();
    let ep = engine.to_str().unwrap().to_string();

    // Two 4-cliques bridged by one edge: small but clusterable.
    let mut edges = String::new();
    for base in [0u32, 4] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                edges.push_str(&format!("{} {}\n", base + i, base + j));
            }
        }
    }
    edges.push_str("3 4\n");
    std::fs::write(&graph, edges).unwrap();
    run(&argv(&["index", "--graph", &gp, "--out", &ep, "--rep", "1", "--k", "2", "--seed", "5"]))
        .unwrap();

    // --- Volatile round: serve, drive over the wire, save on shutdown.
    let addr_file = dir.join("addr-volatile.txt");
    let out_file = dir.join("final.anc");
    let serve_args = argv(&[
        "serve",
        "--engine",
        &ep,
        "--bind",
        "127.0.0.1:0",
        "--addr-file",
        addr_file.to_str().unwrap(),
        "--level",
        "0",
        "--mode",
        "even",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    let server = std::thread::spawn(move || run(&serve_args));
    let addr = wait_addr(&addr_file);

    let mut client = WireClient::connect(addr).expect("connect");
    assert!(matches!(client.call(&Request::Ping).unwrap(), Response::Pong));
    assert!(matches!(
        client.call(&Request::Ingest { t: 1.0, edges: vec![0, 1, 2] }).unwrap(),
        Response::Ingested { .. }
    ));
    assert!(matches!(client.call(&Request::Flush).unwrap(), Response::Flushed { .. }));
    assert!(matches!(
        client
            .call(&Request::SameCluster { u: 0, v: 1, level: 0, mode: ClusterMode::Even })
            .unwrap(),
        Response::SameCluster { .. }
    ));
    let s = stats(&mut client);
    assert_eq!(s.ingested_edges, 3);
    assert!(s.epoch >= 1);
    assert!(matches!(client.call(&Request::Shutdown).unwrap(), Response::ShuttingDown));
    drop(client);

    let summary = server.join().unwrap().expect("serve must exit cleanly");
    assert!(summary.contains("3 edges"), "{summary}");
    assert!(out_file.exists(), "--out checkpoint missing");

    // --- Durable round one: fresh directory seeded from the checkpoint.
    let wal_dir = dir.join("durable");
    let addr_file = dir.join("addr-durable1.txt");
    let serve_args = argv(&[
        "serve",
        "--engine",
        &ep,
        "--durable-dir",
        wal_dir.to_str().unwrap(),
        "--addr-file",
        addr_file.to_str().unwrap(),
        "--level",
        "0",
    ]);
    let server = std::thread::spawn(move || run(&serve_args));
    let addr = wait_addr(&addr_file);
    let mut client = WireClient::connect(addr).expect("connect durable");
    assert!(matches!(
        client.call(&Request::Ingest { t: 2.0, edges: vec![5, 6] }).unwrap(),
        Response::Ingested { .. }
    ));
    assert!(matches!(client.call(&Request::Flush).unwrap(), Response::Flushed { .. }));
    assert!(matches!(client.call(&Request::Shutdown).unwrap(), Response::ShuttingDown));
    drop(client);
    let summary = server.join().unwrap().expect("durable serve must exit cleanly");
    assert!(summary.contains("2 edges"), "{summary}");
    assert!(wal_dir.join("snapshot.anc").exists(), "durable snapshot missing");

    // --- Durable round two: recover from the directory alone (no --engine).
    let addr_file = dir.join("addr-durable2.txt");
    let serve_args = argv(&[
        "serve",
        "--durable-dir",
        wal_dir.to_str().unwrap(),
        "--addr-file",
        addr_file.to_str().unwrap(),
        "--level",
        "0",
    ]);
    let server = std::thread::spawn(move || run(&serve_args));
    let addr = wait_addr(&addr_file);
    let mut client = WireClient::connect(addr).expect("connect recovered");
    // Queries answer off the recovered state; counters are per-run.
    assert!(matches!(
        client.call(&Request::Members { v: 0, level: 0, mode: ClusterMode::Even }).unwrap(),
        Response::Members { .. }
    ));
    let s = stats(&mut client);
    assert_eq!(s.ingested_edges, 0, "counters must reset per serving run");
    assert!(matches!(client.call(&Request::Shutdown).unwrap(), Response::ShuttingDown));
    drop(client);
    server.join().unwrap().expect("recovered serve must exit cleanly");
}
