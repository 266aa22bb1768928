//! **Smoke** — the CI check: four experiments at fixed small arguments, with
//! the paper's Section VI shape claims asserted on the JSON they return.
//!
//! Only ratios with an order of magnitude of headroom on a loaded 2-core
//! host are asserted; the closer ones (ANCO vs ANCOR vs DYNA, within 1.7–2.4×
//! and flipping between seeds at this size) are printed. Writes nothing.
//!
//! Usage: `cargo run --release -p anc-bench -- smoke`

use super::{exp1_static, exp2_activation, exp6_update_time, scale};
use crate::args::Ctx;
use serde_json::Value;

const SEED: u64 = 42;

fn ctx(scale: f64, dataset: &str) -> Ctx {
    Ctx { scale, seed: SEED, datasets: vec![dataset.into()] }
}

fn num(v: &Value) -> f64 {
    v.as_f64().expect("a number")
}

fn rows(v: &Value) -> &[Value] {
    v.as_array().expect("an array of rows")
}

/// Runs the checks; panics on the first violated one.
pub fn run() {
    // The n = 2 000 row of the scale sweep, both families: `sweep` asserts
    // the two snapshot-size ceilings and `check_invariants()` per row.
    let sweep = scale::sweep(&[2_000], 5_000, SEED);
    assert_eq!(rows(&sweep["rows"]).len(), 2, "one scale row per graph family");

    // Figure 8: one activation is repaired far below a rebuild (≈ 720× here).
    let fig8 = exp6_update_time::run(&ctx(0.05, "DB"));
    let single = rows(&fig8).iter().find(|r| r["batch"].as_u64() == Some(1)).expect("batch 2^0");
    let (update, rebuild) = (num(&single["update_seconds"]), num(&single["reconstruct_seconds"]));
    assert!(
        rebuild >= 20.0 * update,
        "Figure 8: UPDATE of one activation took {update:.2e}s, RECONSTRUCT {rebuild:.2e}s: under 20x"
    );

    // Table IV: ANCO is far below LWEP per activation (≈ 14× here).
    let table4 = exp2_activation::run(&ctx(0.25, "CO"));
    let per_act = |method: &str| num(&rows(&table4["exp2_time"]["per_activation"][method])[0]);
    let anco = per_act("ANCO");
    assert!(
        per_act("LWEP") >= 5.0 * anco,
        "Table IV: LWEP {:.2e} s/activation is under 5x ANCO's {anco:.2e}",
        per_act("LWEP")
    );

    // Table III: Louvain optimizes modularity and wins it; ANCF wins the
    // ground-truth measure.
    let table3 = exp1_static::run(&ctx(0.1, "LA"));
    let of = |method: &str, measure: &str| {
        let row = rows(&table3).iter().find(|r| r["method"] == method).expect("a row per method");
        num(&row[measure])
    };
    for ancf in ["ANCF1", "ANCF5", "ANCF9"] {
        assert!(
            of("LOUV", "modularity") > of(ancf, "modularity"),
            "Table III: LOUV modularity {} is not above {ancf}'s {}",
            of("LOUV", "modularity"),
            of(ancf, "modularity")
        );
    }
    assert!(
        of("ANCF9", "purity") > of("LOUV", "purity"),
        "Table III: ANCF9 purity {} is not above LOUV's {}",
        of("ANCF9", "purity"),
        of("LOUV", "purity")
    );

    println!(
        "\nsmoke OK: RECONSTRUCT/UPDATE {:.0}x, LWEP/ANCO {:.1}x \
         (not asserted: ANCOR/ANCO {:.2}x, DYNA/ANCO {:.2}x)",
        rebuild / update,
        per_act("LWEP") / anco,
        per_act("ANCOR") / anco,
        per_act("DYNA") / anco
    );
}
