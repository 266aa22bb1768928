//! The experiments and the dispatcher behind `anc-bench <experiment>`.
//!
//! Each module is one table/figure of the paper (or an ablation): a
//! `fn run(&Ctx) -> Value` that prints what the paper reports and returns
//! the JSON [`dispatch`] writes to `results/`. `all` runs the 16 of the
//! paper in order, `smoke` is the CI check of the paper's shape claims.

use crate::args::Ctx;
use crate::report::write_json;
use serde_json::Value;

pub mod abl_eps_mu;
pub mod abl_parallel;
pub mod abl_power_vs_even;
pub mod abl_rep_sweep;
pub mod abl_rescale;
pub mod abl_window_vs_decay;
pub mod exp0_datasets;
pub mod exp1_static;
pub mod exp2_activation;
pub mod exp3_index_time;
pub mod exp4_index_size;
pub mod exp5_query_time;
pub mod exp6_update_time;
pub mod exp7_day_trace;
pub mod exp8_workload;
pub mod exp9_case_study;
pub mod scale;
pub mod smoke;

/// One subcommand that takes `--scale/--seed/--datasets`.
struct Experiment {
    name: &'static str,
    /// `--scale` when the command line gives none.
    default_scale: f64,
    /// `results/<file>.json` gets the returned value; with several files the
    /// value is an object holding one member per file.
    files: &'static [&'static str],
    run: fn(&Ctx) -> Value,
}

macro_rules! experiment {
    ($module:ident, $scale:literal) => {
        experiment!($module, $scale, [stringify!($module)])
    };
    ($module:ident, $scale:literal, $files:expr) => {
        Experiment {
            name: stringify!($module),
            default_scale: $scale,
            files: &$files,
            run: $module::run,
        }
    };
}

/// The paper's experiments and ablations, in the order `all` runs them.
static PAPER: [Experiment; 16] = [
    experiment!(exp0_datasets, 1.0),
    experiment!(exp1_static, 0.12),
    experiment!(exp2_activation, 1.0, ["exp2_quality", "exp2_time"]),
    experiment!(exp3_index_time, 1.0),
    experiment!(exp4_index_size, 1.0),
    experiment!(exp5_query_time, 1.0),
    experiment!(exp6_update_time, 1.0),
    experiment!(exp7_day_trace, 0.2),
    experiment!(exp8_workload, 0.15),
    experiment!(exp9_case_study, 1.0),
    experiment!(abl_power_vs_even, 1.0),
    experiment!(abl_rep_sweep, 1.0),
    experiment!(abl_eps_mu, 1.0),
    experiment!(abl_rescale, 1.0),
    experiment!(abl_parallel, 0.5),
    experiment!(abl_window_vs_decay, 0.5),
];

/// The million-node sweep; not part of `all`.
static SCALE: Experiment = experiment!(scale, 1.0, ["BENCH_scale"]);

fn experiments() -> impl Iterator<Item = &'static Experiment> {
    PAPER.iter().chain([&SCALE])
}

/// The usage text: the options and every subcommand.
pub fn usage() -> String {
    let names: Vec<&str> = experiments().map(|e| e.name).collect();
    format!(
        "usage: anc-bench <experiment> [--scale f] [--seed s] [--datasets A,B]\n\
         experiments: {}\n\
         also: all (every experiment but scale, in that order), smoke (CI shape check, no options)",
        names.join(" ")
    )
}

/// Runs subcommand `cmd` with the options `rest`. `Err` is a usage or I/O
/// message; a violated `smoke` expectation panics.
pub fn dispatch(cmd: &str, rest: &[String]) -> Result<(), String> {
    match cmd {
        "smoke" if rest.is_empty() => smoke::run(),
        "smoke" => return Err("smoke takes no options".into()),
        "all" => {
            for exp in &PAPER {
                run_and_write(exp, rest)?;
            }
            println!("ALL EXPERIMENTS DONE");
        }
        name => {
            let exp = experiments()
                .find(|e| e.name == name)
                .ok_or_else(|| format!("unknown experiment `{name}`"))?;
            run_and_write(exp, rest)?;
        }
    }
    Ok(())
}

fn run_and_write(exp: &Experiment, rest: &[String]) -> Result<(), String> {
    let ctx = Ctx::from_iter(rest.iter().cloned(), exp.default_scale)?;
    let value = (exp.run)(&ctx);
    for file in exp.files {
        let part = if exp.files.len() == 1 { &value } else { &value[*file] };
        let path = write_json(file, part).map_err(|e| format!("results/{file}.json: {e}"))?;
        println!("[{}] JSON written to {}", exp.name, path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_subcommands_and_options_are_usage_errors() {
        let opts = |s: &[&str]| s.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(dispatch("exp5_query_cached", &[]).unwrap_err().contains("unknown experiment"));
        assert!(dispatch("exp0_datasets", &opts(&["--steps", "5"])).is_err());
        assert!(dispatch("all", &opts(&["--long"])).is_err());
        assert!(dispatch("smoke", &opts(&["--scale", "1"])).is_err());
        for exp in experiments() {
            assert!(usage().contains(exp.name));
        }
    }
}
