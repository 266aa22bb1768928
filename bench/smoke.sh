#!/usr/bin/env bash
# Lints the benchmark, runs its unit tests, then runs every workload once at
# smoke scale (n = 600, 2 passes, all checks on) and once traced. Wiring
# this into ../ci.sh is ROADMAP item 2(c).
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --quiet
cargo build --offline --release --quiet

bin="${CARGO_TARGET_DIR:-target}/release/anc-perf"
for workload in engine-stream serve-ingest serve-query durable-restart; do
    for trace in 0 1; do
        # Traced smoke runs tour all four workloads; one of them is enough.
        if [ "$trace" = 1 ] && [ "$workload" != engine-stream ]; then
            continue
        fi
        line=$("$bin" run --workload "$workload" --seed 1 --trace "$trace" --smoke | tail -n 1)
        case "$line" in
            '{"correct": true,'*'"failed": 0,'*) echo "smoke ok: $workload trace=$trace" ;;
            *) echo "smoke FAILED: $workload trace=$trace: $line" >&2; exit 1 ;;
        esac
    done
done
