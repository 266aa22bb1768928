//! `anc-perf agree`: does the benchmark agree with itself?
//!
//! Every gated workload is run in two alternating sets (A, B, A, B, …) of the
//! same code on the same seed, one process per run. For every workload ×
//! end-to-end metric the two sets' medians must lie within the metric's
//! bound of each other; a benchmark that cannot do that cannot resolve a
//! regression of that size either.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

use crate::ops::Workload;
use crate::spec;

/// Parsed `agree` arguments.
#[derive(Clone, Debug)]
pub struct AgreeArgs {
    /// Runs per set and workload.
    pub runs: usize,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Ledger file to append the stamped outcome to.
    pub ledger: Option<String>,
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One workload × metric comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub median_a: f64,
    pub median_b: f64,
    /// `|A − B| / min(A, B)`: symmetric, so it bounds "B worse than A" and
    /// "A worse than B" alike.
    pub disagreement: f64,
    pub bound: f64,
}

impl Row {
    pub fn new(
        workload: &'static str,
        (metric, unit, _, bound): (&'static str, &'static str, &'static str, f64),
        a: &[f64],
        b: &[f64],
    ) -> Self {
        let (median_a, median_b) = (median(a), median(b));
        let disagreement = (median_a - median_b).abs() / median_a.min(median_b);
        Self { workload, metric, unit, median_a, median_b, disagreement, bound }
    }

    pub fn ok(&self) -> bool {
        self.disagreement <= self.bound
    }
}

/// The result line and info line of one child run.
struct ChildRun {
    result: Value,
    info: Value,
}

fn run_child(workload: Workload, args: &AgreeArgs) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload.name(), "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", workload.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let parse = |line: Option<&str>| {
        serde_json::from_str::<Value>(line.unwrap_or("")).map_err(|e| format!("bad output: {e}"))
    };
    let result = parse(lines.next())?;
    let info = parse(lines.next())?;
    if result["correct"].as_bool() != Some(true) {
        return Err(format!("{} reported correct: false", workload.name()));
    }
    Ok(ChildRun { result, info })
}

fn git_rev() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(rev) => match git(&["status", "--porcelain"]) {
            Some(dirty) if !dirty.is_empty() => format!("{rev}+dirty"),
            _ => rev,
        },
        None => "unknown".to_string(),
    }
}

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Appends `entry` to the `entries` array of the ledger at `path`.
fn append_ledger(path: &Path, entry: Value) -> Result<(), String> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str::<Value>(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .get("entries")
            .and_then(Value::as_array)
            .cloned()
            .unwrap_or_default(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    entries.push(entry);
    let mut text = String::new();
    obj(vec![("entries", Value::Array(entries))]).write_pretty(&mut text, 0);
    text.push('\n');
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the two sets, prints the table, appends to the ledger; returns the
/// process exit code.
pub fn agree(args: &AgreeArgs) -> i32 {
    // values[workload][set][metric] → one entry per run.
    let mut values =
        vec![
            [vec![Vec::new(); spec::END_TO_END.len()], vec![Vec::new(); spec::END_TO_END.len()]];
            Workload::GATED.len()
        ];
    let mut raw_runs: Vec<Value> = Vec::new();
    let mut passes: Vec<Vec<Value>> = vec![Vec::new(); Workload::GATED.len()];
    let mut durable_fs = Value::Null;
    for run in 0..args.runs {
        for (w, workload) in Workload::GATED.into_iter().enumerate() {
            for (set, label) in ["A", "B"].into_iter().enumerate() {
                eprintln!("agree: run {}/{} set {label} {}", run + 1, args.runs, workload.name());
                let child = match run_child(workload, args) {
                    Ok(child) => child,
                    Err(e) => {
                        eprintln!("anc-perf agree: {e}");
                        return 1;
                    }
                };
                for (m, &(name, ..)) in spec::END_TO_END.iter().enumerate() {
                    let v = child.result["metrics"][name]["value"].as_f64().expect("metric value");
                    values[w][set][m].push(v);
                }
                passes[w].push(child.info["info"]["passes"].clone());
                durable_fs = child.info["info"]["durable_fs"].clone();
                raw_runs.push(obj(vec![
                    ("workload", Value::from(workload.name())),
                    ("set", Value::from(label)),
                    ("metrics", child.result["metrics"].clone()),
                ]));
            }
        }
    }

    let mut rows = Vec::new();
    for (w, workload) in Workload::GATED.into_iter().enumerate() {
        for (m, &metric) in spec::END_TO_END.iter().enumerate() {
            rows.push(Row::new(workload.name(), metric, &values[w][0][m], &values[w][1][m]));
        }
    }
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>6} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "unit", "disagree", "bound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<12} {:>14.4} {:>14.4} {:>6} {:>8.2}% {:>6.1}%{}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.unit,
            r.disagreement * 100.0,
            r.bound * 100.0,
            if r.ok() { "" } else { "  DISAGREE" }
        );
    }
    let all_ok = rows.iter().all(Row::ok);
    println!(
        "agree: seed {}, {} runs per set, {} s per run: {}",
        args.seed,
        args.runs,
        args.seconds,
        if all_ok { "all pairs within their bounds" } else { "DISAGREEMENT past a bound" }
    );

    if let Some(path) = &args.ledger {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let stamp = obj(vec![
            ("git_rev", Value::from(git_rev())),
            ("nproc", Value::from(nproc as u64)),
            ("rayon_threads", Value::from(1u64)),
            ("seed", Value::from(args.seed)),
            ("runs_per_set", Value::from(args.runs as u64)),
            ("run_seconds", Value::from(args.seconds)),
            ("smoke", Value::from(args.smoke)),
            ("durable_fs", durable_fs),
            (
                "passes",
                Value::Object(
                    Workload::GATED
                        .iter()
                        .zip(passes)
                        .map(|(w, p)| (w.name().to_string(), Value::Array(p)))
                        .collect(),
                ),
            ),
        ]);
        let table: Vec<Value> = rows
            .iter()
            .map(|r| {
                obj(vec![
                    ("workload", Value::from(r.workload)),
                    ("metric", Value::from(r.metric)),
                    ("unit", Value::from(r.unit)),
                    ("median_a", Value::from(r.median_a)),
                    ("median_b", Value::from(r.median_b)),
                    ("disagreement", Value::from(r.disagreement)),
                    ("bound", Value::from(r.bound)),
                    ("ok", Value::from(r.ok())),
                ])
            })
            .collect();
        let entry = obj(vec![
            ("stamp", stamp),
            ("agree", Value::from(all_ok)),
            ("table", Value::Array(table)),
            ("runs", Value::Array(raw_runs)),
        ]);
        if let Err(e) = append_ledger(Path::new(path), entry) {
            eprintln!("anc-perf agree: {e}");
            return 1;
        }
    }
    i32::from(!all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn disagreement_is_symmetric_and_gated_by_the_bound() {
        let metric = ("ops_per_s", "1/s", spec::HIGHER, 0.05);
        let close = Row::new("w", metric, &[100.0, 101.0, 99.0], &[104.0, 103.0, 105.0]);
        assert!((close.disagreement - 0.04).abs() < 1e-12);
        assert!(close.ok());
        let far = Row::new("w", metric, &[100.0], &[94.0]);
        let mirrored = Row::new("w", metric, &[94.0], &[100.0]);
        assert!((far.disagreement - mirrored.disagreement).abs() < 1e-15);
        assert!(!far.ok() && !mirrored.ok());
    }

    #[test]
    fn ledger_appends() {
        let dir = std::env::temp_dir().join(format!("anc-perf-ledger-{}", std::process::id()));
        let path = dir.join("ledger.json");
        let _ = std::fs::remove_dir_all(&dir);
        append_ledger(&path, obj(vec![("n", Value::from(1u64))])).unwrap();
        append_ledger(&path, obj(vec![("n", Value::from(2u64))])).unwrap();
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let entries = doc["entries"].as_array().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1]["n"].as_u64(), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
