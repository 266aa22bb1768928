//! `anc-bench <experiment> [--scale f] [--seed s] [--datasets A,B]`: runs one
//! experiment of the paper (or `all`, `scale`, `smoke`) and writes its JSON
//! under `results/` of the current directory.

#![forbid(unsafe_code)]

use anc_bench::experiments::{dispatch, usage};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => dispatch(cmd, rest),
        None => Err("no experiment named".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("anc-bench: {msg}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
