//! `anc-audit` binary: run the four call-graph rules over the workspace.
//!
//! Usage:
//!
//! ```text
//! cargo run -p anc-audit --release [-- --root <dir>]
//! cargo run -p anc-audit -- --explain <rule>
//! ```
//!
//! Prints one `file:line: [rule] message` line per finding and exits 0 when
//! there is none, 1 on findings, 2 on usage/I-O errors. `--explain` prints
//! one rule's rationale, an example finding, and the suppression syntax,
//! accepting either the rule name (`lock-order`) or the short id (`A9`);
//! `--explain all` prints every rule.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use anc_audit::{explain, scan_tree, RuleDoc, RULES, SUPPRESSION};

fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn print_rule(doc: &RuleDoc) {
    println!("{} `{}`", doc.id, doc.rule);
    println!("  rationale:   {}", doc.rationale);
    println!("  example:     {}", doc.example);
    println!("  suppression: {SUPPRESSION}");
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--explain" => match args.next() {
                Some(rule) if rule == "all" => {
                    for doc in RULES {
                        print_rule(doc);
                    }
                    return ExitCode::SUCCESS;
                }
                Some(rule) => match explain(&rule) {
                    Some(doc) => {
                        print_rule(doc);
                        return ExitCode::SUCCESS;
                    }
                    None => {
                        eprintln!(
                            "unknown rule {rule:?}; known: {} (or their ids, or `all`)",
                            RULES.iter().map(|r| r.rule).collect::<Vec<_>>().join(", ")
                        );
                        return ExitCode::from(2);
                    }
                },
                None => {
                    eprintln!(
                        "--explain needs a rule name (e.g. lock-order), an id (A9), or `all`"
                    );
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: \
                     anc-audit [--root <dir>] [--explain <rule>]"
                );
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(|| std::env::current_dir().ok().as_deref().and_then(find_root)) {
        Some(r) => r,
        None => {
            eprintln!("cannot find workspace root (a dir with Cargo.toml + crates/); pass --root");
            return ExitCode::from(2);
        }
    };
    let findings = match scan_tree(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("audit failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("[anc-audit] OK: workspace clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "[anc-audit] FAIL: {} finding(s) — see DESIGN.md §8 for rules and suppression syntax",
            findings.len()
        );
        ExitCode::from(1)
    }
}
