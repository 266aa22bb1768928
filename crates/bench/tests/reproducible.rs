//! An experiment run twice in one process at the same arguments returns the
//! same JSON apart from wall-clock fields: no score may depend on the
//! per-`HashMap` hash seed (each map in a process draws its own).

use anc_bench::args::Ctx;
use anc_bench::experiments::{abl_power_vs_even, exp1_static};
use serde_json::Value;

fn without_seconds(v: &Value) -> Value {
    match v {
        Value::Array(items) => Value::Array(items.iter().map(without_seconds).collect()),
        Value::Object(members) => Value::Object(
            members
                .iter()
                .filter(|(k, _)| !k.ends_with("seconds"))
                .map(|(k, v)| (k.clone(), without_seconds(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

fn assert_repeats(run: fn(&Ctx) -> Value, ctx: Ctx) {
    assert_eq!(without_seconds(&run(&ctx)), without_seconds(&run(&ctx)));
}

#[test]
fn scores_do_not_move_between_identical_runs() {
    assert_repeats(exp1_static::run, Ctx { scale: 0.02, seed: 42, datasets: vec!["DB".into()] });
    assert_repeats(abl_power_vs_even::run, Ctx { scale: 0.2, seed: 42, datasets: Vec::new() });
}
