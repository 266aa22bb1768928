//! End-to-end CLI pipeline test: generate → stats → index → stream →
//! clusters → query → distance, all through the public `run` entry point
//! against real files in a temp directory.

use anc_cli::run;

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// One directory per test: they run on parallel threads of one process and
/// each removes its directory when done.
fn tmpdir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("anc-cli-test-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline() {
    let dir = tmpdir("full_pipeline");
    let graph = dir.join("g.txt");
    let labels = dir.join("labels.txt");
    let engine = dir.join("engine.anc");
    let engine2 = dir.join("engine2.anc");
    let gp = graph.to_str().unwrap();
    let lp = labels.to_str().unwrap();
    let ep = engine.to_str().unwrap();
    let ep2 = engine2.to_str().unwrap();

    // generate
    let out = run(&argv(&[
        "generate",
        "--dataset",
        "CO",
        "--scale",
        "0.2",
        "--seed",
        "5",
        "--out",
        gp,
        "--labels",
        lp,
    ]))
    .unwrap();
    assert!(out.contains("generated CO"), "{out}");
    assert!(graph.exists() && labels.exists());

    // stats
    let out = run(&argv(&["stats", "--graph", gp])).unwrap();
    assert!(out.contains("nodes"), "{out}");
    assert!(out.contains("triangles"), "{out}");

    // index
    let out =
        run(&argv(&["index", "--graph", gp, "--out", ep, "--rep", "1", "--k", "2", "--seed", "5"]))
            .unwrap();
    assert!(out.contains("indexed"), "{out}");
    assert!(engine.exists());

    // stream
    let out =
        run(&argv(&["stream", "--engine", ep, "--steps", "5", "--frac", "0.05", "--out", ep2]))
            .unwrap();
    assert!(out.contains("streamed"), "{out}");

    // clusters
    let out = run(&argv(&["clusters", "--engine", ep2])).unwrap();
    assert!(out.contains("clusters over"), "{out}");

    // query
    let out = run(&argv(&["query", "--engine", ep2, "--node", "0"])).unwrap();
    assert!(out.contains("active community"), "{out}");

    // distance
    let out = run(&argv(&["distance", "--engine", ep2, "--from", "0", "--to", "1"])).unwrap();
    assert!(out.contains("index estimate"), "{out}");

    // trace + replay: recording a trace and streaming it must be
    // deterministic — replaying the same trace from the same checkpoint
    // gives byte-identical engine state.
    let trace = dir.join("t.txt");
    let tp = trace.to_str().unwrap();
    let ea = dir.join("ea.anc");
    let eb = dir.join("eb.anc");
    let out =
        run(&argv(&["trace", "--graph", gp, "--steps", "4", "--out", tp, "--seed", "9"])).unwrap();
    assert!(out.contains("trace with"), "{out}");
    run(&argv(&["stream", "--engine", ep, "--trace", tp, "--out", ea.to_str().unwrap()])).unwrap();
    run(&argv(&["stream", "--engine", ep, "--trace", tp, "--out", eb.to_str().unwrap()])).unwrap();
    let a = std::fs::read(&ea).unwrap();
    let b = std::fs::read(&eb).unwrap();
    assert_eq!(a, b, "trace replay must be deterministic");

    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint that is cut short, bit-flipped or from the JSON era makes
/// every command that reads it exit 1 with the path and the typed restore
/// error on stderr — through the real binary, so a panic (exit 101) shows.
#[test]
fn damaged_checkpoints_fail_typed() {
    let dir = tmpdir("damaged_checkpoints_fail_typed");
    let graph = dir.join("g.txt");
    let engine = dir.join("engine.anc");
    let (gp, ep) = (graph.to_str().unwrap(), engine.to_str().unwrap());
    run(&argv(&["generate", "--dataset", "CO", "--scale", "0.1", "--out", gp])).unwrap();
    run(&argv(&["index", "--graph", gp, "--out", ep, "--rep", "0", "--k", "2"])).unwrap();
    let good = std::fs::read(&engine).unwrap();
    assert_eq!(&good[..4], b"ANCS", "checkpoints are binary snapshots");

    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 0x40;
    let cases: [(&str, &[u8], &str); 4] = [
        ("header.anc", &good[..10], "truncated"),
        ("half.anc", &good[..good.len() / 2], "checksum mismatch"),
        ("flipped.anc", &flipped, "checksum mismatch"),
        ("old.json", br#"{"version":1,"graph":{"n":2,"offsets":[0,1,2]}}"#, "bad magic"),
    ];
    for (name, bytes, want) in cases {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        let path = path.to_str().unwrap();
        for cmd in [&["clusters"][..], &["query", "--node", "0"], &["stream", "--steps", "1"]] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_anc"))
                .args(cmd)
                .args(["--engine", path, "--out", dir.join("never.anc").to_str().unwrap()])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {cmd:?}: {stderr}");
            assert!(stderr.contains(path) && stderr.contains(want), "{name} {cmd:?}: {stderr}");
        }
    }
    assert!(!dir.join("never.anc").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors() {
    assert!(run(&argv(&[])).is_err());
    let err = run(&argv(&["frobnicate"])).unwrap_err();
    assert!(err.contains("unknown command"), "{err}");
    let err = run(&argv(&["generate", "--dataset", "NOPE", "--out", "/tmp/x"])).unwrap_err();
    assert!(err.contains("unknown dataset"), "{err}");
    let err = run(&argv(&["stats"])).unwrap_err();
    assert!(err.contains("--graph"), "{err}");
    let err =
        run(&argv(&["index", "--graph", "/nonexistent/file", "--out", "/tmp/x"])).unwrap_err();
    assert!(err.contains("cannot open"), "{err}");
    let help = run(&argv(&["help"])).unwrap();
    assert!(help.contains("commands:"), "{help}");
}

#[test]
fn query_bounds_checked() {
    let dir = tmpdir("query_bounds_checked");
    let graph = dir.join("g2.txt");
    let engine = dir.join("e3.anc");
    let gp = graph.to_str().unwrap();
    let ep = engine.to_str().unwrap();
    run(&argv(&["generate", "--dataset", "CO", "--scale", "0.1", "--out", gp])).unwrap();
    run(&argv(&["index", "--graph", gp, "--out", ep, "--rep", "0", "--k", "2"])).unwrap();
    let err = run(&argv(&["query", "--engine", ep, "--node", "999999"])).unwrap_err();
    assert!(err.contains("--node must be"), "{err}");
    // One past the top level read another pyramid's partition; further past
    // it indexed out of bounds.
    let levels = anc_core::AncEngine::load_binary(std::fs::read(&engine).unwrap().as_slice())
        .unwrap()
        .num_levels();
    for level in [levels.to_string(), "99".to_string()] {
        let err =
            run(&argv(&["query", "--engine", ep, "--node", "0", "--level", &level])).unwrap_err();
        assert_eq!(err, format!("--level must be < {levels}"), "--level {level}");
    }
    let err =
        run(&argv(&["distance", "--engine", ep, "--from", "0", "--to", "999999"])).unwrap_err();
    assert!(err.contains("must be"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
