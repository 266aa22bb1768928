//! `anc-perf run`: one workload, one seed, one JSON line.
//!
//! Untraced (`--trace 0`) a run reports the six end-to-end metrics, all
//! computed from the floor vector. Traced (`--trace 1`) it reports every
//! per-layer metric (see `layers.rs`).

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::fixture::{Fixture, Scale};
use crate::floor::{EndToEnd, Floor};
use crate::layers;
use crate::ops::{Class, OpList, Workload};
use crate::passes::{encode_wire_ops, run_pass, PassInput, PassOutcome, ServerSide, Tracer};
use crate::reference::Reference;
use crate::rng::SplitMix64;
use crate::setup::set_up;
use crate::spec;

/// Times an untraced run performs the whole set-up: once before the first
/// pass, then at even steps through `--seconds`, the last one at the end.
/// `setup_s` is their minimum, a floor like every op's: a set-up is 70 ms of
/// work with nothing inside it to take a floor over, and in an hour when the
/// host took the core away every few milliseconds five set-ups read 0.09,
/// 0.09, 0.10, 0.11 and 0.23 s against 0.068 s in a quiet one. The dataset
/// does not depend on `--seed`, so all of them are the same work.
pub const SETUPS: usize = 24;
/// Fewest rounds (one pass of every list) an untraced run folds, whatever
/// `--seconds` says.
pub const MIN_ROUNDS: usize = 2;

/// Parsed `run` arguments.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// One metric of the result line.
pub type Metric = (&'static str, f64);

/// What a run prints: the contract's last line, preceded by an info line
/// for humans and for `agree`'s ledger stamp.
pub struct RunReport {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub info: Vec<(&'static str, String)>,
}

impl RunReport {
    pub fn print(&self) {
        let info: Vec<String> = self.info.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        println!("{{\"info\": {{{}}}}}", info.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = spec::unit_of(name).expect("every printed metric is in the spec");
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A number as measured, with all its digits (Rust prints the shortest
/// decimal that round-trips); non-finite values cannot appear in JSON.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite");
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// `bench/out`, wherever the program was started from: the root of a
/// checkout (the driver, `BENCHMARK.json`'s command) or `bench/` itself.
pub fn out_dir() -> PathBuf {
    if Path::new("bench/Cargo.toml").is_file() {
        PathBuf::from("bench/out")
    } else if Path::new("Cargo.toml").is_file() && Path::new("src/passes.rs").is_file() {
        PathBuf::from("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// The file system type holding `dir`, from `/proc/mounts` (longest mount
/// point that prefixes the canonical path).
pub fn fs_type(dir: &Path) -> String {
    let canonical = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            canonical.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind.to_string())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The pieces every pass of one workload shares.
pub struct Prepared {
    pub list: OpList,
    pub wire: Vec<Vec<u8>>,
    pub reference: Reference,
}

impl Prepared {
    pub fn new(workload: Workload, fixture: &Fixture, seed: u64, segments: usize) -> Self {
        let list = OpList::generate(workload, fixture, seed, segments);
        let wire = encode_wire_ops(&list, fixture.level);
        let reference = Reference::compute(fixture, &list);
        Self { list, wire, reference }
    }

    pub fn input<'a>(&'a self, fixture: &'a Fixture, scratch_dir: &'a Path) -> PassInput<'a> {
        PassInput {
            fixture,
            list: &self.list,
            reference: &self.reference,
            wire: &self.wire,
            scratch_dir,
        }
    }

    pub fn classes(&self) -> Vec<Class> {
        self.list.ops.iter().map(|&(c, _)| c).collect()
    }
}

/// Passes folded into one floor, with the checks that go with them.
pub struct Measured {
    pub floor: Floor,
    pub failed: usize,
    pub attempted: usize,
    /// Every pass ended in the reference digest.
    pub digests_agree: bool,
    /// Median core clock of each pass, in GHz.
    pub ghz: Vec<f64>,
    /// Writer-side counters of the last pass (serve workloads).
    pub server: Option<ServerSide>,
}

/// Folds one pass's outcome into `slot`.
fn fold_pass(slot: &mut Option<Measured>, input: &PassInput<'_>, out: PassOutcome) {
    let agrees = out.digest == input.reference.digest;
    match slot {
        None => {
            *slot = Some(Measured {
                floor: Floor::new(input.list.fingerprint, &out.times),
                failed: out.failed,
                attempted: input.list.items(),
                digests_agree: agrees,
                ghz: vec![out.ghz],
                server: out.server,
            });
        }
        Some(m) => {
            m.floor.fold(input.list.fingerprint, &out.times).expect("passes replay one op list");
            m.failed += out.failed;
            m.attempted += input.list.items();
            m.digests_agree &= agrees;
            m.ghz.push(out.ghz);
            m.server = out.server;
        }
    }
}

/// Runs passes of one op list until `stop(passes_done)` says so, folding
/// each into the floor. `first_pass` numbers them (pass 0 also checks the
/// engine's invariants).
pub fn measure(
    input: &PassInput<'_>,
    first_pass: usize,
    mut tracer: Option<&mut Tracer>,
    mut stop: impl FnMut(usize) -> bool,
) -> Measured {
    let mut measured = None;
    let mut done = 0;
    while !stop(done) {
        if let Some(t) = tracer.as_deref_mut() {
            t.rec.set_pass(done as u32);
        }
        let out = run_pass(input, first_pass + done, tracer.as_deref_mut());
        fold_pass(&mut measured, input, out);
        done += 1;
    }
    measured.expect("at least one pass")
}

/// The sub-seed of list `k` of a run: the run's own seed for the first,
/// derived ones for the rest.
pub fn list_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        SplitMix64::stream(seed, 0xE9150DE + k as u64).next_u64()
    }
}

/// Median of a small non-empty sample (upper middle when even).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

pub fn run(args: &RunArgs) -> RunReport {
    // The pool would otherwise fight the client and server threads for a
    // small host's cores; two-thread scaling is read from the `*_2t_*`
    // layer metrics instead.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let pinned = crate::affinity::pin();
    let out = out_dir();
    let scratch = out.join("durable");
    std::fs::create_dir_all(&scratch).expect("create bench/out/durable");
    let mut report = if args.trace {
        layers::traced_run(args, &out, &scratch)
    } else {
        untraced_run(args, &scratch)
    };
    report.info.push(("pinned", pinned.to_string()));
    // Only this process's own directories are removed, so concurrent runs
    // in one checkout do not trip over each other.
    let _ = std::fs::remove_dir(&scratch);
    report
}

fn untraced_run(args: &RunArgs, scratch: &Path) -> RunReport {
    let scale = if args.smoke { Scale::Smoke } else { Scale::Full };
    let (first_setup, fixture) = set_up(args.workload, scale, scratch, None);
    let mut setups = vec![first_setup];
    let list_count = args.workload.lists();
    let lists: Vec<Prepared> = (0..list_count)
        .map(|k| {
            let seed = list_seed(args.seed, k);
            Prepared::new(args.workload, &fixture, seed, args.workload.full_segments())
        })
        .collect();
    let inputs: Vec<PassInput<'_>> = lists.iter().map(|l| l.input(&fixture, scratch)).collect();

    // Passes go round the lists, so that each sees the same stretch of the
    // host's weather. The other set-ups are spread evenly through the run,
    // the last one at its end, so that they do not all fall into the same
    // slow half-minute of the host. Their fixtures are dropped at once; the
    // passes keep the first.
    let begun = Instant::now();
    let due = |done: usize| args.seconds * done as f64 / (SETUPS - 1) as f64;
    let mut measured: Vec<Option<Measured>> = inputs.iter().map(|_| None).collect();
    let mut passes = 0;
    'rounds: for round in 0.. {
        for (slot, input) in measured.iter_mut().zip(&inputs) {
            let elapsed = begun.elapsed().as_secs_f64();
            if passes >= MIN_ROUNDS * list_count && (args.smoke || elapsed >= args.seconds) {
                break 'rounds;
            }
            if setups.len() < SETUPS - 1 && elapsed >= due(setups.len()) {
                setups.push(set_up(args.workload, scale, scratch, None).0);
            }
            let out = run_pass(input, round, None);
            fold_pass(slot, input, out);
            passes += 1;
        }
    }
    while setups.len() < SETUPS {
        setups.push(set_up(args.workload, scale, scratch, None).0);
    }
    let measured: Vec<Measured> = measured.into_iter().map(|m| m.expect("two rounds")).collect();

    let classes: Vec<Vec<Class>> = lists.iter().map(Prepared::classes).collect();
    let parts: Vec<(&Floor, &[Class], usize)> = measured
        .iter()
        .zip(&classes)
        .zip(&lists)
        .map(|((m, c), l)| (&m.floor, c.as_slice(), l.list.items()))
        .collect();
    let e2e = EndToEnd::compute(&parts);
    let failed: usize = measured.iter().map(|m| m.failed).sum();
    let ghz: Vec<f64> = measured.iter().flat_map(|m| m.ghz.iter().copied()).collect();
    let array = |items: Vec<String>| format!("[{}]", items.join(", "));
    let each = |f: &dyn Fn(usize) -> String| array((0..list_count).map(f).collect());
    RunReport {
        correct: failed == 0 && measured.iter().all(|m| m.digests_agree),
        attempted: measured.iter().map(|m| m.attempted).sum(),
        failed,
        metrics: vec![
            ("setup_s", setups.iter().copied().fold(f64::INFINITY, f64::min)),
            ("ops_per_s", e2e.ops_per_s),
            ("wait_p50_us", e2e.wait_p50_us),
            ("wait_p95_us", e2e.wait_p95_us),
            ("bulk_p50_ms", e2e.bulk_p50_ms),
            ("peak_rss_mb", peak_rss_mib()),
        ],
        info: vec![
            ("workload", format!("\"{}\"", args.workload.name())),
            ("seed", args.seed.to_string()),
            ("lists", list_count.to_string()),
            ("passes", passes.to_string()),
            ("digests", each(&|k| format!("\"{:016x}\"", lists[k].reference.digest))),
            ("durable_fs", format!("\"{}\"", fs_type(scratch))),
            ("n", fixture.n().to_string()),
            ("m", fixture.m().to_string()),
            ("setups_s", array(setups.iter().map(|&s| json_number(s)).collect())),
            ("floor_s", each(&|k| json_number(measured[k].floor.total_seconds()))),
            ("pass_spread_pct", each(&|k| json_number(measured[k].floor.pass_spread_pct()))),
            ("clock_ghz", json_number(median(ghz))),
        ],
    }
}
