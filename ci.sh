#!/usr/bin/env bash
# Repo CI gate: formatting, lints (warnings are errors), release build, tests.
# Run from the repo root. Everything is offline (vendored dependencies only).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> anc-audit --diff HEAD (fast differential pre-gate)"
# Differential mode first: on an unchanged tree this must report nothing
# beyond the committed baseline, so a broken checkout (or a finding-key
# regression in the differ itself) fails fast before the full deny pass.
if git rev-parse --verify -q HEAD > /dev/null; then
    cargo run -p anc-audit --release -- --diff HEAD
fi

echo "==> cargo run -p anc-audit --release (determinism + concurrency + dataflow lint pass)"
# JSON report lands in results/audit.json — including the audit's own
# wall time (elapsed_seconds), the A9 lock-acquisition edges and every
# A9–A14 concurrency/dataflow finding; a nonzero exit (deny-tier finding
# or an A5/A7 ratchet regression) fails CI, echoing the report first.
mkdir -p results
cargo run -p anc-audit --release -- --format json > results/audit.json || {
    echo "audit failed; report follows:"
    cat results/audit.json
    exit 1
}
cargo run -p anc-audit --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test -p anc-core --features debug-invariants -q"
cargo test -p anc-core --features debug-invariants -q

echo "==> persistence: crash-recovery + binary round-trip property suites"
# The WAL recovery contract (arbitrary-offset log truncation == prefix
# replay, bit for bit) and the snapshot round-trip fuzz run again by name
# so a persistence regression is attributed to DESIGN.md §11 directly.
cargo test -p anc-core --test prop_wal -q
cargo test -p anc-core --test prop_invariants -q

echo "==> exp11_scale --smoke (scale sweep + snapshot-size gate)"
# Smoke-sized run of the million-node sweep: saves and loads both snapshot
# profiles end to end and asserts, on every row, that Exact stays under the
# resident state's bytes and Compact under its share of Exact.
cargo run --release -q -p anc-bench --bin exp11_scale -- --smoke > /dev/null

echo "==> no serde in the product crates"
# Engine state has one codec (persist::binary); serde_json is for reports.
if grep -rn serde crates/{graph,decay,core,data,metrics,baselines,server,cli}/src src; then
    echo "serde token in a product crate (see above)"
    exit 1
fi

echo "==> cluster-cache property suite under debug-invariants"
# The cache equivalence proptests (cached == cold at every level across
# mixed update streams) run again here by name so a failure is attributed
# to the cache layer rather than buried in the full suite's output.
cargo test -p anc-core --features debug-invariants --test prop_cluster_cache -q
cargo test -p anc-core --features debug-invariants --test cache_determinism -q

echo "==> repair completeness + realistic-n post-rescale cache check (release)"
# Every node a Voronoi repair writes must be in the affected set it returns
# (n = 2 000, as built and after a non-power-of-two rescale), and the
# n = 20 000 stream that crosses the first batched rescale must keep the
# cluster cache in step with the index (ROADMAP item 1(a)'s reproducer).
# Near-ties an ulp apart need realistic n, so these run by name in release.
cargo test --release -p anc-core --test prop_voronoi affected_set_names_every_written_node -q
cargo test --release -p anc-core --test prop_cluster_cache \
    post_rescale_cache_matches_index_at_realistic_n -q -- --ignored

echo "==> determinism suites under fixed pool sizes (1 and 4 threads)"
# The determinism tests sweep RAYON_NUM_THREADS internally, but their
# harness (and every other parallel path they pass through) also runs under
# whatever the variable says at process start. Two fixed-size passes pin
# both extremes: the pure sequential path and a real 4-worker pool.
for t in 1 4; do
    echo "    RAYON_NUM_THREADS=$t"
    RAYON_NUM_THREADS=$t cargo test -p rayon -q
    RAYON_NUM_THREADS=$t cargo test -p anc-core --test batch_determinism \
        --test cache_determinism --test prop_batch -q
done

echo "==> serving layer: wire protocol + reader/writer stress (1 and 4 threads)"
# The serving stress suite sweeps RAYON_NUM_THREADS internally and compares
# the served engine byte-for-byte against a serial replay; it runs under
# debug-invariants so the writer validates the full engine invariant set
# after every drained cycle. Two fixed pool sizes pin the harness extremes,
# matching the determinism suites above.
cargo test -p anc-server --test wire_proto -q
for t in 1 4; do
    echo "    RAYON_NUM_THREADS=$t"
    RAYON_NUM_THREADS=$t cargo test -p anc-server --features debug-invariants \
        --test serve_stress -q
done

echo "==> seeded audit-violation suites (reachability + concurrency fixtures)"
# The audit's deny rules run against trees seeded with known violations so
# a silently-pass regression in the analyses themselves fails CI: each rule
# must fire with the right attribution, and each justified allow must clear
# it (A1–A8 in seeded_violation/seeded_reachability, A9–A11 in
# seeded_concurrency, A12–A14 in seeded_dataflow, plus the --explain
# surface and the JSON/SARIF format contracts).
cargo test -p anc-audit --test seeded_violation --test seeded_reachability \
    --test seeded_concurrency --test seeded_dataflow --test format \
    --test prop_lexer -q

echo "==> stress-schedules: perturbed-schedule determinism at fixed seeds"
# The pool's seeded yield-injection hooks (vendor/rayon/src/stress.rs) force
# adversarial interleavings; the suites assert byte-identical snapshots and
# extractions against the unperturbed 1-thread reference at 2/4/8 threads.
# The outer RAYON_NUM_THREADS=4 pins the pool size the harness itself (and
# any path outside the internal sweep) starts under.
RAYON_NUM_THREADS=4 cargo test -p rayon --features stress-schedules \
    --test stress_schedules -q
RAYON_NUM_THREADS=4 cargo test -p anc-core --features stress-schedules \
    --test stress_determinism -q

echo "==> bench/smoke.sh (anc-perf: lints, unit tests, every workload at smoke scale)"
bench/smoke.sh

echo "CI OK"
