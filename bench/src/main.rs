//! `anc-perf`: the in-tree benchmark. See `README.md`.

mod affinity;
mod agree;
mod clock;
mod digest;
mod fixture;
mod floor;
mod layers;
mod ops;
mod passes;
mod reference;
mod rng;
mod run;
mod setup;
mod spec;
mod trace;
mod twin;

use std::str::FromStr;

use agree::AgreeArgs;
use ops::Workload;
use run::RunArgs;

const USAGE: &str = "\
usage:
  anc-perf run [<workload>] [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--smoke]
  anc-perf agree [--runs <n>] [--seed <u64>] [--seconds <s>] [--ledger <file>] [--smoke]
  anc-perf spec
workloads: engine-stream serve-ingest serve-query durable-restart";

fn fail(msg: &str) -> ! {
    eprintln!("anc-perf: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`, parsed.
fn value<T: FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    let raw = it.next().unwrap_or_else(|| fail(&format!("{flag} needs a value")));
    raw.parse().unwrap_or_else(|_| fail(&format!("{flag}: cannot read {raw:?}")))
}

fn seconds(it: &mut std::slice::Iter<'_, String>) -> f64 {
    let s: f64 = value(it, "--seconds");
    if !(s > 0.0 && s <= 600.0) {
        fail("--seconds must be in (0, 600]");
    }
    s
}

fn parse_run(args: &[String]) -> RunArgs {
    let mut workload: Option<String> = None;
    let mut out = RunArgs {
        workload: Workload::EngineStream,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = Some(value(&mut it, "--workload")),
            "--seed" => out.seed = value(&mut it, "--seed"),
            "--seconds" => out.seconds = seconds(&mut it),
            "--trace" => {
                out.trace = match value::<u8>(&mut it, "--trace") {
                    0 => false,
                    1 => true,
                    _ => fail("--trace takes 0 or 1"),
                }
            }
            "--smoke" => out.smoke = true,
            name if !name.starts_with('-') && workload.is_none() => {
                workload = Some(name.to_string())
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    let name = workload.unwrap_or_else(|| fail("run needs a workload"));
    out.workload =
        Workload::from_name(&name).unwrap_or_else(|| fail(&format!("unknown workload {name:?}")));
    out
}

fn parse_agree(args: &[String]) -> AgreeArgs {
    let mut out = AgreeArgs {
        runs: 5,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        smoke: false,
        ledger: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--runs" => {
                out.runs = value(&mut it, "--runs");
                if out.runs == 0 {
                    fail("--runs must be at least 1");
                }
            }
            "--seed" => out.seed = value(&mut it, "--seed"),
            "--seconds" => out.seconds = seconds(&mut it),
            "--ledger" => out.ledger = Some(value(&mut it, "--ledger")),
            "--smoke" => out.smoke = true,
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run::run(&parse_run(&args[1..])).print(),
        Some("agree") => std::process::exit(agree::agree(&parse_agree(&args[1..]))),
        Some("spec") => print!("{}", spec::benchmark_json()),
        _ => fail("expected a subcommand"),
    }
}
