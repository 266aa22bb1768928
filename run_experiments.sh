#!/bin/bash
# Regenerates every table and figure (see DESIGN.md §5 / EXPERIMENTS.md).
set -eo pipefail
cd "$(dirname "$0")"
# results/ is git-ignored, so a fresh clone has no log directory to tee into.
mkdir -p results/logs
cargo run --release -p anc-bench -- all "$@" 2>&1 | tee results/logs/all.log
