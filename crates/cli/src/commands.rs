//! Implementations of the CLI subcommands. Each command takes the shared
//! option bag, does file I/O at the edges, and returns the report it prints.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};

use anc_core::{AncConfig, AncEngine, ClusterMode, RepairStats, SnapshotProfile, WalRecord};
use anc_data::{registry, stream};
use anc_graph::{algo, io as gio, traverse, Graph};

use crate::opts::Options;

fn load_graph(path: &str) -> Result<Graph, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let (g, _) = gio::read_edge_list(BufReader::new(file))
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    Ok(g)
}

fn load_engine(opts: &Options) -> Result<AncEngine, String> {
    let path = opts.require("engine")?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    AncEngine::load_binary(file).map_err(|e| format!("cannot restore {path}: {e}"))
}

/// Checkpoints are Exact binary snapshots: a restored engine continues
/// bit-identically, and the same state always encodes to the same bytes. The
/// file is created only once the state has encoded, so a state that no load
/// would accept leaves no file behind.
fn save_engine(engine: &AncEngine, path: &str) -> Result<(), String> {
    let mut bytes = Vec::new();
    engine
        .save_binary(&mut bytes, SnapshotProfile::Exact)
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {path}: {e}"))
}

/// `--frac`, the share of edges a synthetic step activates (default 5%).
fn frac(opts: &Options) -> Result<f64, String> {
    let frac: f64 = opts.get_or("frac", 0.05)?;
    if !(0.0..=1.0).contains(&frac) {
        return Err(format!("--frac must be in [0, 1], got {frac}"));
    }
    Ok(frac)
}

/// `anc generate`: materialize a registry dataset as an edge list (plus
/// optional ground-truth labels, one per line).
pub fn generate(opts: &Options) -> Result<String, String> {
    let name = opts.require("dataset")?;
    let out = opts.require("out")?;
    let scale: f64 = opts.get_or("scale", 1.0)?;
    if !(scale > 0.0 && scale.is_finite()) {
        return Err(format!("--scale must be finite and > 0, got {scale}"));
    }
    let seed: u64 = opts.get_or("seed", 42)?;
    let spec = registry::by_name(name).ok_or_else(|| {
        format!(
            "unknown dataset {name:?}; available: {}",
            registry::ALL.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
        )
    })?;
    let ds = spec.materialize_scaled(seed, scale);
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    gio::write_edge_list(&ds.graph, BufWriter::new(file)).map_err(|e| e.to_string())?;
    let mut report = format!(
        "generated {name} stand-in: {} nodes, {} edges → {out}\n",
        ds.graph.n(),
        ds.graph.m()
    );
    if let Some(labels_path) = opts.get("labels") {
        let mut f = BufWriter::new(
            File::create(labels_path).map_err(|e| format!("cannot create {labels_path}: {e}"))?,
        );
        for l in &ds.labels {
            writeln!(f, "{l}").map_err(|e| e.to_string())?;
        }
        let _ = writeln!(
            report,
            "ground-truth labels ({} communities) → {labels_path}",
            ds.labels.iter().copied().max().map_or(0, |m| m + 1)
        );
    }
    Ok(report)
}

/// `anc stats`: structural summary of an edge-list graph.
pub fn stats(opts: &Options) -> Result<String, String> {
    let g = load_graph(opts.require("graph")?)?;
    let comps = traverse::connected_components(&g);
    let tri = algo::triangle_count(&g);
    let cc = algo::average_clustering(&g);
    let degen = algo::degeneracy(&g);
    let mut s = String::new();
    let _ = writeln!(s, "nodes               : {}", g.n());
    let _ = writeln!(s, "edges               : {}", g.m());
    let _ = writeln!(s, "avg degree          : {:.2}", 2.0 * g.m() as f64 / g.n().max(1) as f64);
    let _ = writeln!(s, "max degree          : {}", g.max_degree());
    let _ = writeln!(s, "connected components: {}", comps.count);
    let _ = writeln!(s, "triangles           : {tri}");
    let _ = writeln!(s, "avg clustering coeff: {cc:.4}");
    let _ = writeln!(s, "degeneracy (max core): {degen}");
    let _ = writeln!(s, "pyramid levels      : {}", anc_core::Pyramids::levels_for(g.n()));
    Ok(s)
}

fn config_from(opts: &Options) -> Result<AncConfig, String> {
    let mut cfg = AncConfig::default();
    cfg.lambda = opts.get_or("lambda", cfg.lambda)?;
    cfg.epsilon = opts.get_or("epsilon", cfg.epsilon)?;
    cfg.mu = opts.get_or("mu", cfg.mu)?;
    cfg.k = opts.get_or("k", cfg.k)?;
    cfg.theta = opts.get_or("theta", cfg.theta)?;
    cfg.rep = opts.get_or("rep", cfg.rep)?;
    cfg.check()?;
    Ok(cfg)
}

/// `anc index`: build the engine over a graph and checkpoint it.
pub fn index(opts: &Options) -> Result<String, String> {
    let g = load_graph(opts.require("graph")?)?;
    let out = opts.require("out")?;
    let seed: u64 = opts.get_or("seed", 42)?;
    let cfg = config_from(opts)?;
    let started = std::time::Instant::now();
    let engine = AncEngine::new(g, cfg.clone(), seed);
    let secs = started.elapsed().as_secs_f64();
    save_engine(&engine, out)?;
    Ok(format!(
        "indexed {} nodes / {} edges in {secs:.2}s (k = {}, rep = {}, {} levels, {:.1} MB) → {out}\n",
        engine.graph().n(),
        engine.graph().m(),
        cfg.k,
        cfg.rep,
        engine.num_levels(),
        engine.memory_bytes() as f64 / 1048576.0,
    ))
}

/// `anc trace`: generate an activation trace file for later replay.
pub fn trace(opts: &Options) -> Result<String, String> {
    let g = load_graph(opts.require("graph")?)?;
    let out = opts.require("out")?;
    let steps: usize = opts.require_parsed("steps")?;
    let frac = frac(opts)?;
    let seed: u64 = opts.get_or("seed", 42)?;
    let s = match opts.get("kind").unwrap_or("uniform") {
        "uniform" => stream::uniform_per_step(&g, steps, frac, seed),
        "day" => stream::bursty_day(&g, (g.m() / 2000).max(5), 0.05, 10.0, seed),
        other => return Err(format!("--kind must be uniform|day, got {other:?}")),
    };
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    anc_data::write_trace(&s, BufWriter::new(file)).map_err(|e| e.to_string())?;
    Ok(format!(
        "trace with {} activations over {} batches → {out}\n",
        s.total_activations(),
        s.batches.len()
    ))
}

/// `anc stream`: feed activations through a checkpointed engine — either a
/// synthetic uniform stream (`--steps`) or a recorded trace (`--trace`) —
/// and write the updated checkpoint.
pub fn stream(opts: &Options) -> Result<String, String> {
    let mut engine = load_engine(opts)?;
    let out = opts.require("out")?;
    let g = engine.graph().clone();
    let s = if let Some(trace_path) = opts.get("trace") {
        let file = File::open(trace_path).map_err(|e| format!("cannot open {trace_path}: {e}"))?;
        anc_data::read_trace(BufReader::new(file), Some(g.m()))
            .map_err(|e| format!("cannot parse {trace_path}: {e}"))?
    } else {
        let steps: usize = opts.require_parsed("steps")?;
        let seed: u64 = opts.get_or("seed", 42)?;
        stream::uniform_per_step(&g, steps, frac(opts)?, seed)
    };
    let t0 = engine.now();
    let started = std::time::Instant::now();
    let mut repairs = RepairStats::default();
    for batch in &s.batches {
        let t = t0 + batch.time;
        WalRecord::check(g.m(), &batch.edges, t)
            .map_err(|e| format!("cannot stream the batch at t = {t}: {e}"))?;
        repairs += engine.activate_batch(&batch.edges, t);
    }
    let secs = started.elapsed().as_secs_f64();
    save_engine(&engine, out)?;
    Ok(format!(
        "streamed {} activations over {} batches in {secs:.2}s ({:.1}k act/s); \
         {} index repairs ({} skipped); \
         engine now at t = {} with {} lifetime activations → {out}\n",
        s.total_activations(),
        s.batches.len(),
        s.total_activations() as f64 / secs / 1e3,
        repairs.updates,
        repairs.skips,
        engine.now(),
        engine.activations(),
    ))
}

fn parse_mode(opts: &Options) -> Result<ClusterMode, String> {
    match opts.get("mode").unwrap_or("power") {
        "power" => Ok(ClusterMode::Power),
        "even" => Ok(ClusterMode::Even),
        other => Err(format!("--mode must be power|even, got {other:?}")),
    }
}

/// `anc clusters`: report all clusters at a granularity level.
pub fn clusters(opts: &Options) -> Result<String, String> {
    let engine = load_engine(opts)?;
    let level: usize = opts.get_or("level", engine.default_level())?;
    if level >= engine.num_levels() {
        return Err(format!("--level must be < {}", engine.num_levels()));
    }
    let mode = parse_mode(opts)?;
    let c = engine.cluster_all(level, mode).filter_small(3);
    let mut sizes = c.sizes();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let mut s = String::new();
    let _ = writeln!(
        s,
        "level {level} ({:?}): {} clusters over {} assigned nodes (of {})",
        mode,
        c.num_clusters(),
        c.num_assigned(),
        engine.graph().n()
    );
    let _ = writeln!(s, "largest clusters: {:?}", &sizes[..sizes.len().min(10)]);
    Ok(s)
}

/// `anc query`: the local cluster of one node, with optional zoom-out.
pub fn query(opts: &Options) -> Result<String, String> {
    let engine = load_engine(opts)?;
    let node: u32 = opts.require_parsed("node")?;
    if node as usize >= engine.graph().n() {
        return Err(format!("--node must be < {}", engine.graph().n()));
    }
    let mut level: usize = opts.get_or("level", engine.default_level())?;
    let zoom_out: usize = opts.get_or("zoom-out", 0)?;
    level = level.saturating_sub(zoom_out);
    if level >= engine.num_levels() {
        return Err(format!("--level must be < {}", engine.num_levels()));
    }
    let cluster = engine.local_cluster(node, level);
    let mut s = String::new();
    let _ =
        writeln!(s, "node {node} at level {level}: active community of {} nodes", cluster.len());
    let preview: Vec<u32> = cluster.iter().copied().take(20).collect();
    let _ = writeln!(s, "members (first 20): {preview:?}");
    Ok(s)
}

/// `anc serve`: host an engine behind the length-prefixed TCP wire
/// protocol (DESIGN.md §12) until a client sends a `shutdown` request.
///
/// With `--durable-dir` the engine runs write-ahead logged: an existing
/// directory is recovered (`--engine` is then optional), a fresh one is
/// seeded from the `--engine` checkpoint. Without it the engine is
/// volatile and `--out` can save the final state after shutdown.
pub fn serve(opts: &Options) -> Result<String, String> {
    use anc_core::persist::SNAPSHOT_FILE;
    use anc_core::{DurabilityOptions, DurableEngine};
    use anc_server::{EngineBackend, ServeConfig, TcpServer};

    let bind = opts.get("bind").unwrap_or("127.0.0.1:0");
    let queue: usize = opts.get_or("queue", 1024)?;

    let backend = if let Some(dir) = opts.get("durable-dir") {
        let path = std::path::Path::new(dir);
        let durable = if path.join(SNAPSHOT_FILE).exists() {
            DurableEngine::open(path, DurabilityOptions::default())
                .map_err(|e| format!("cannot recover {dir}: {e}"))?
        } else {
            let engine = load_engine(opts)?;
            DurableEngine::create(engine, path, DurabilityOptions::default())
                .map_err(|e| format!("cannot initialise {dir}: {e}"))?
        };
        EngineBackend::Durable(durable)
    } else {
        EngineBackend::Volatile(load_engine(opts)?)
    };

    let engine = backend.engine();
    let level: usize = opts.get_or("level", engine.default_level())?;
    let modes = match opts.get("mode").unwrap_or("both") {
        "power" => vec![ClusterMode::Power],
        "even" => vec![ClusterMode::Even],
        "both" => vec![ClusterMode::Even, ClusterMode::Power],
        other => return Err(format!("--mode must be power|even|both, got {other:?}")),
    };

    let core = anc_server::ServerCore::start(
        backend,
        ServeConfig { queue_capacity: queue, levels: vec![level], modes },
    )
    .map_err(|e| e.to_string())?;
    let server = TcpServer::start(core, bind).map_err(|e| format!("cannot bind {bind}: {e}"))?;
    let addr = server.local_addr();
    eprintln!("serving on {addr} at level {level}; send a shutdown request to stop");
    if let Some(path) = opts.get("addr-file") {
        std::fs::write(path, addr.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    // Park until a wire shutdown flips the stop flag; all real work
    // happens on the server's accept/connection/writer threads.
    while !server.stop_requested() {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let report = server.shutdown();

    let mut s = String::new();
    let _ = writeln!(
        s,
        "served on {addr}: {} jobs ({} edges) over {} applied batches \
         (max batch {} edges), {} coalesced jobs, {} shed; \
         final epoch {}",
        report.stats.ingested_jobs,
        report.stats.ingested_edges,
        report.stats.applied_batches,
        report.stats.max_batch_edges,
        report.stats.coalesced_jobs,
        report.stats.shed,
        report.final_epoch,
    );
    if let Some(e) = &report.wal_error {
        let _ = writeln!(s, "WARNING: write-ahead log failed during serving: {e}");
    }
    if let Some(out) = opts.get("out") {
        match &report.backend {
            EngineBackend::Volatile(engine) => {
                save_engine(engine, out)?;
                let _ = writeln!(s, "final engine state → {out}");
            }
            EngineBackend::Durable(_) => {
                return Err("--out is for volatile serving; durable state lives in --durable-dir"
                    .to_string());
            }
        }
    }
    Ok(s)
}

/// `anc distance`: approximate (index) and exact distance between two nodes.
pub fn distance(opts: &Options) -> Result<String, String> {
    let engine = load_engine(opts)?;
    let from: u32 = opts.require_parsed("from")?;
    let to: u32 = opts.require_parsed("to")?;
    let n = engine.graph().n() as u32;
    if from >= n || to >= n {
        return Err(format!("--from/--to must be < {n}"));
    }
    let approx = engine.approx_distance(from, to);
    let exact = engine.exact_distance(from, to);
    let mut s = String::new();
    let _ = writeln!(s, "distance {from} → {to} under M_t = 1/S_t:");
    if approx.is_finite() {
        let _ = writeln!(s, "  index estimate (O(k log n)): {approx:.6}");
    } else {
        let _ = writeln!(s, "  index estimate: none (no partition at levels ≥ 1 joins the pair)");
    }
    let _ = writeln!(s, "  exact Dijkstra  (O(m log n)): {exact:.6}");
    if approx.is_finite() && exact.is_finite() && exact > 0.0 {
        let _ = writeln!(s, "  stretch: {:.3}", approx / exact);
    }
    Ok(s)
}
