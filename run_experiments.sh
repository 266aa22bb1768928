#!/bin/bash
# Regenerates every table and figure (see DESIGN.md §5 / EXPERIMENTS.md).
set -e
cd "$(dirname "$0")"
RUN="cargo run --release -p anc-bench --bin"
# results/ is git-ignored, so a fresh clone has no log directory to tee into.
mkdir -p results/logs
$RUN exp0_datasets "$@" 2>&1 | tee results/logs/exp0.log
$RUN exp1_static "$@" 2>&1 | tee results/logs/exp1.log
$RUN exp2_activation "$@" 2>&1 | tee results/logs/exp2.log
$RUN exp3_index_time "$@" 2>&1 | tee results/logs/exp3.log
$RUN exp4_index_size "$@" 2>&1 | tee results/logs/exp4.log
$RUN exp5_query_time "$@" 2>&1 | tee results/logs/exp5.log
$RUN exp6_update_time "$@" 2>&1 | tee results/logs/exp6.log
$RUN exp7_day_trace "$@" 2>&1 | tee results/logs/exp7.log
$RUN exp8_workload "$@" 2>&1 | tee results/logs/exp8.log
$RUN exp9_case_study "$@" 2>&1 | tee results/logs/exp9.log
$RUN abl_power_vs_even "$@" 2>&1 | tee results/logs/ablA1.log
$RUN abl_rep_sweep "$@" 2>&1 | tee results/logs/ablA2.log
$RUN abl_eps_mu "$@" 2>&1 | tee results/logs/ablA3.log
$RUN abl_rescale "$@" 2>&1 | tee results/logs/ablA4.log
$RUN abl_parallel "$@" 2>&1 | tee results/logs/ablA5.log
$RUN abl_window_vs_decay "$@" 2>&1 | tee results/logs/ablA6.log
echo "ALL EXPERIMENTS DONE"
