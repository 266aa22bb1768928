//! # anc-cli
//!
//! Command-line interface for the activation-network clustering index.
//!
//! ```text
//! anc generate --dataset CO --out graph.txt [--labels labels.txt] [--scale f] [--seed s]
//! anc stats    --graph graph.txt
//! anc index    --graph graph.txt --out engine.anc [--rep 7] [--k 4] [--lambda 0.1]
//! anc stream   --engine engine.anc --out engine.anc (--steps 50 [--frac 0.05] | --trace t.txt)
//! anc trace    --graph graph.txt --steps 50 --out trace.txt [--kind uniform|day]
//! anc clusters --engine engine.anc [--level L] [--mode power|even]
//! anc query    --engine engine.anc --node 17 [--level L] [--zoom-out n]
//! anc distance --engine engine.anc --from 3 --to 99
//! anc serve    --engine engine.anc [--bind 127.0.0.1:0] [--durable-dir DIR]
//! ```
//!
//! Graphs are plain `u v` edge lists (SNAP format, `#` comments); engine
//! state is the Exact binary snapshot of [`anc_core::persist`] — CRC-checked,
//! restored bit-identically, byte-identical for identical state. Every
//! command is a pure function from files to files/stdout, so pipelines are
//! scriptable and reproducible (all randomness is seeded).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod opts;

use std::fmt::Write as _;

/// Entry point shared by the binary and the tests: runs a full argv (without
/// the program name) and returns the textual report it would print.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    let opts = opts::Options::parse(rest)?;
    match cmd.as_str() {
        "generate" => commands::generate(&opts),
        "stats" => commands::stats(&opts),
        "index" => commands::index(&opts),
        "stream" => commands::stream(&opts),
        "trace" => commands::trace(&opts),
        "clusters" => commands::clusters(&opts),
        "query" => commands::query(&opts),
        "distance" => commands::distance(&opts),
        "serve" => commands::serve(&opts),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

/// The usage banner.
pub fn usage() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "anc — activation-network clustering (Feng, Qiao, Cheng; ICDE 2022)");
    let _ = writeln!(s);
    let _ = writeln!(s, "commands:");
    let _ =
        writeln!(s, "  generate  --dataset NAME --out FILE [--labels FILE] [--scale F] [--seed S]");
    let _ = writeln!(s, "  stats     --graph FILE");
    let _ = writeln!(
        s,
        "  index     --graph FILE --out FILE [--rep N] [--k N] [--lambda F] [--seed S]"
    );
    let _ = writeln!(
        s,
        "  stream    --engine FILE --out FILE (--steps N [--frac F] [--seed S] | --trace FILE)"
    );
    let _ = writeln!(
        s,
        "  trace     --graph FILE --steps N --out FILE [--frac F] [--seed S] [--kind uniform|day]"
    );
    let _ = writeln!(s, "  clusters  --engine FILE [--level L] [--mode power|even]");
    let _ = writeln!(s, "  query     --engine FILE --node V [--level L] [--zoom-out N]");
    let _ = writeln!(s, "  distance  --engine FILE --from U --to V");
    let _ = writeln!(
        s,
        "  serve     --engine FILE [--bind ADDR] [--addr-file FILE] [--durable-dir DIR]"
    );
    let _ =
        writeln!(s, "            [--queue N] [--level L] [--mode power|even|both] [--out FILE]");
    s
}
