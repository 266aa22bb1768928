//! End-to-end CLI pipeline test: generate → stats → index → stream →
//! clusters → query → distance, all through the public `run` entry point
//! against real files in a temp directory.

use anc_cli::run;
use anc_graph::codec::{crc32, put_uvarint, Reader};

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
    // The graph header follows the magic, the version, the config (53 bytes
    // at `--k 2`) and a fresh clock (17): forge 3·10⁹ nodes there, which
    // used to abort the process on a 24 GB allocation, and restamp the CRC.
    let graph_at = 78;
    let n = anc_core::AncEngine::load_binary(good.as_slice()).unwrap().graph().n();
    assert_eq!(Reader::new(&good[graph_at..]).uvarint().unwrap(), n as u64);
    let mut forged = good[..graph_at].to_vec();
    put_uvarint(&mut forged, 3_000_000_000);
    put_uvarint(&mut forged, 0);
    forged.extend_from_slice(&crc32(&forged).to_le_bytes());
    let cases: [(&str, &[u8], &str); 5] = [
        ("header.anc", &good[..10], "truncated"),
        ("half.anc", &good[..good.len() / 2], "checksum mismatch"),
        ("flipped.anc", &flipped, "checksum mismatch"),
        ("old.json", br#"{"version":1,"graph":{"n":2,"offsets":[0,1,2]}}"#, "bad magic"),
        ("forged.anc", &forged, "node count 3000000000"),
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

/// A trace line whose time is `nan`, `inf` or `-inf` makes `anc stream`
/// exit 1 naming the line, through the real binary: it neither panics in
/// the decay clock (exit 101) nor streams the edges at another time.
#[test]
fn non_finite_trace_times_fail_typed() {
    let dir = tmpdir("non_finite_trace_times_fail_typed");
    let graph = dir.join("g.txt");
    let engine = dir.join("engine.anc");
    let (gp, ep) = (graph.to_str().unwrap(), engine.to_str().unwrap());
    run(&argv(&["generate", "--dataset", "CO", "--scale", "0.1", "--out", gp])).unwrap();
    run(&argv(&["index", "--graph", gp, "--out", ep, "--rep", "0", "--k", "2"])).unwrap();
    let out_path = dir.join("never.anc");
    for t in ["nan", "inf", "-inf"] {
        let trace = dir.join(format!("{t}.txt"));
        std::fs::write(&trace, format!("1 0\n{t} 1\n2 2\n")).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_anc"))
            .args(["stream", "--engine", ep, "--trace", trace.to_str().unwrap()])
            .args(["--out", out_path.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{t}: {stderr}");
        assert!(stderr.contains("malformed trace line 2"), "{t}: {stderr}");
    }
    assert!(!out_path.exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// An option outside its range makes the command exit 1 with the rule's
/// message and write nothing — through the real binary, so a panic in the
/// config check, the stream generator or the dataset scaler (exit 101)
/// shows.
#[test]
fn out_of_range_options_fail_typed() {
    let dir = tmpdir("out_of_range_options_fail_typed");
    let graph = dir.join("g.txt");
    let engine = dir.join("engine.anc");
    let (gp, ep) = (graph.to_str().unwrap(), engine.to_str().unwrap());
    run(&argv(&["generate", "--dataset", "CO", "--scale", "0.1", "--out", gp])).unwrap();
    run(&argv(&["index", "--graph", gp, "--out", ep, "--rep", "0", "--k", "2"])).unwrap();
    let out = dir.join("never.out");
    let op = out.to_str().unwrap();
    let index = ["index", "--graph", gp, "--out", op];
    let stream = ["stream", "--engine", ep, "--out", op, "--steps", "5"];
    let trace = ["trace", "--graph", gp, "--out", op, "--steps", "5"];
    let generate = ["generate", "--dataset", "CO", "--out", op];
    let cases: [(&[&str], [&str; 2], &str); 16] = [
        (&index, ["--k", "0"], "k must be in 1..=1024"),
        (&index, ["--k", "2000"], "k must be in 1..=1024"),
        (&index, ["--theta", "2"], "theta must be in [0, 1]"),
        (&index, ["--lambda", "-1"], "lambda must be >= 0"),
        (&index, ["--lambda", "nan"], "lambda must be >= 0"),
        (&index, ["--epsilon", "5"], "epsilon must be in [0, 1]"),
        (&index, ["--mu", "0"], "mu must be >= 1"),
        (&stream, ["--frac", "-0.5"], "--frac must be in [0, 1]"),
        (&stream, ["--frac", "2"], "--frac must be in [0, 1]"),
        (&stream, ["--frac", "nan"], "--frac must be in [0, 1]"),
        (&trace, ["--frac", "2"], "--frac must be in [0, 1]"),
        (&trace, ["--frac", "-1"], "--frac must be in [0, 1]"),
        (&generate, ["--scale", "0"], "--scale must be finite and > 0"),
        (&generate, ["--scale", "-1"], "--scale must be finite and > 0"),
        (&generate, ["--scale", "nan"], "--scale must be finite and > 0"),
        (&generate, ["--scale", "inf"], "--scale must be finite and > 0"),
    ];
    for (cmd, option, want) in cases {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_anc"))
            .args(cmd)
            .args(option)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{cmd:?} {option:?}: {stderr}");
        assert!(stderr.contains(want), "{cmd:?} {option:?}: {stderr}");
        assert!(!out.exists(), "{cmd:?} {option:?} wrote its output");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Whatever `anc stream` writes, `anc clusters` can read. A jump of
/// λΔt = 800 between two activations (ROADMAP 1(b)) decays similarities to
/// 0; the save refuses that state, so the stream exits 1 and writes nothing
/// rather than a checkpoint every later command refuses.
#[test]
fn a_stream_never_writes_a_checkpoint_that_cannot_be_read() {
    let dir = tmpdir("a_stream_never_writes_a_checkpoint_that_cannot_be_read");
    let graph = dir.join("g.txt");
    let engine = dir.join("engine.anc");
    let (gp, ep) = (graph.to_str().unwrap(), engine.to_str().unwrap());
    run(&argv(&["generate", "--dataset", "CO", "--scale", "0.1", "--out", gp])).unwrap();
    run(&argv(&["index", "--graph", gp, "--out", ep, "--rep", "0", "--k", "2"])).unwrap();
    let trace = dir.join("jump.txt");
    std::fs::write(&trace, "0 0\n8000 1\n").unwrap();
    let out = dir.join("jumped.anc");
    let op = out.to_str().unwrap();
    let streamed = std::process::Command::new(env!("CARGO_BIN_EXE_anc"))
        .args(["stream", "--engine", ep, "--trace", trace.to_str().unwrap(), "--out", op])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&streamed.stderr);
    match streamed.status.code() {
        Some(0) => {
            run(&argv(&["clusters", "--engine", op])).unwrap();
        }
        Some(1) => {
            assert!(stderr.contains("cannot write") && stderr.contains("similarity"), "{stderr}");
            assert!(!out.exists(), "a refused save left {op}");
        }
        other => panic!("exit {other:?}: {stderr}"),
    }
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

/// `anc distance` prints an estimate and its stretch when a partition at
/// levels ≥ 1 joins the pair, and says there is none otherwise (level 0
/// holds hop counts, so it gives no estimate) — never `stretch: inf`.
#[test]
fn distance_without_an_index_estimate_says_so() {
    let dir = tmpdir("distance_without_an_index_estimate_says_so");
    let graph = dir.join("g.txt");
    let engine = dir.join("engine.anc");
    let (gp, ep) = (graph.to_str().unwrap(), engine.to_str().unwrap());
    run(&argv(&["generate", "--dataset", "CO", "--scale", "0.1", "--out", gp])).unwrap();
    run(&argv(&["index", "--graph", gp, "--out", ep, "--rep", "0", "--k", "2"])).unwrap();
    let loaded =
        anc_core::AncEngine::load_binary(std::fs::read(&engine).unwrap().as_slice()).unwrap();
    let n = loaded.graph().n() as u32;
    let pair = |joined: bool| {
        (1..n)
            .find(|&v| {
                loaded.exact_distance(0, v).is_finite()
                    && loaded.approx_distance(0, v).is_finite() == joined
            })
            .expect("fixture has both kinds of pair")
    };
    for (to, joined) in [(pair(true), true), (pair(false), false)] {
        let to = to.to_string();
        let out = run(&argv(&["distance", "--engine", ep, "--from", "0", "--to", &to])).unwrap();
        let none = "index estimate: none (no partition at levels ≥ 1 joins the pair)";
        assert_eq!(out.contains(none), !joined, "{out}");
        assert_eq!(out.contains("stretch: "), joined, "{out}");
        assert!(!out.contains("inf"), "{out}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
