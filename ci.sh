#!/usr/bin/env bash
# Repo CI gate. Everything is offline (vendored dependencies only). It runs:
#   - cargo fmt --check; cargo clippy --workspace --all-targets -D warnings
#     (the static rules are clippy lints, crates/clippy.toml); release build
#   - bench/smoke.sh: anc-perf's own fmt, clippy, unit tests and every
#     workload at smoke scale, early, so a change to an API anc-perf names
#     (a return type is enough) fails in minutes, not after the long suites
#   - grep gates: every crate root forbids unsafe code; no serde in the product
#     crates; no relaxed atomics; no thread pool under crates/server; nothing
#     outside bench/ calls the names only bench/src/twin.rs still uses
#   - cargo test --workspace (the WAL and snapshot property suites and the
#     wire protocol among them), then anc-core under debug-invariants (the
#     cluster-cache property suites among them)
#   - in release: the graph decoder's checks on forged gaps and counts, the
#     frame parser shared by the wire and the WAL, the sliced CRC-32
#     against the bytewise loop (crc32_equals_the_bytewise_loop), the
#     persist tests (WAL records and headers, forged snapshots), all of
#     anc-server (framing arithmetic on lengths a peer chose; the pinned
#     wire, WAL and snapshot bytes, pinned_bytes), and all of anc-cli (its
#     boundary tests against the release binary users run)
#   - anc-bench smoke (snapshot-size gate, the paper's shape claims), the
#     community_watch example (monitor reports checked against a recount) and
#     the social_monitor example (a user's strongest tie follows their
#     activity to a second circle)
#   - in release: alloc_steady_state at 1, 2 and 4 threads and with the
#     thread count unset, repair completeness, rescale/repair commutation,
#     restore identity past rescales, live index = rebuild up to n = 20 000,
#     level 0 weight-free and never repaired up to n = 20 000, the
#     n = 20 000 post-rescale cache check, the cached-query work bound
#     (the even repair's searches walk at most half the flipped components),
#     the even repair's exactness tests (even_repair_*: a split that carries
#     a label's minimum away, two removals cutting one component in three, a
#     removal reconnected by an addition, a merge beside a split, additions
#     inside a cluster keeping the Arc, a split's search costing its smaller
#     side, dense flip streams with and without power cached), also under
#     debug-invariants with the whole prop_cluster_cache suite, and the
#     similarity store's range: a 10⁶-step one-edge stream at λΔt = 10 and
#     a 400 000-activation dense stream
#   - the determinism suite and prop_batch (a batch equals the serial loop in
#     state and in summed repair counts) at 1 and 4 pool threads, with (in
#     release) repair_arms (the in-place and pool arms of the repair, each
#     called directly, leave the same index, traces, counts and cache
#     generation, across repeated edges and the range step), the S₀
#     equivalence proptest, the pinned snapshot and index
#     digests, and the live-levels suite (live_levels: a level synced after
#     any stream equals reconstruct_index(), a stale level is never
#     queried); serve_stress,
#     member_index, retention and the server's lib tests under
#     debug-invariants at 1 and 4 pool threads; among the lib tests, the
#     writer cycle driven by hand with no thread:
#     one_cycle_applies_coalesces_publishes_and_answers and
#     a_failed_log_write_publishes_nothing_and_answers_no_flush
#   - seeded violations: each lint and grep gate must fail on a probe
#   - stress-schedules: the determinism suite under perturbed schedules, pool
#     lock ranks
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> bench/smoke.sh (anc-perf: lints, unit tests, every workload at smoke scale)"
bench/smoke.sh

echo "==> every crate root forbids unsafe code"
# `forbid` cannot be overridden further down a crate, so the only way to land
# unsafe code is to drop the attribute: check it is there (vendor/rayon holds
# the only unsafe in what ships, so it denies and allows its one module; the
# one test crate root with any is alloc_steady_state's counting allocator).
forbid_unsafe_roots() {
    local f
    for f in "$1"/src/lib.rs "$1"/crates/*/src/lib.rs "$1"/crates/*/src/main.rs; do
        grep -q '^#!\[forbid(unsafe_code)\]' "$f" || { echo "$f lacks #![forbid(unsafe_code)]"; return 1; }
    done
    grep -q '^#!\[deny(unsafe_code' "$1/vendor/rayon/src/lib.rs" || { echo "vendor/rayon lacks #![deny(unsafe_code)]"; return 1; }
}
forbid_unsafe_roots .

echo "==> cargo test --workspace -q"
# Among them: the WAL recovery contract (arbitrary-offset log truncation ==
# prefix replay, bit for bit, prop_wal) and the snapshot round-trip fuzz
# (prop_invariants) of DESIGN.md §11, and the wire protocol (wire_proto).
cargo test --workspace -q

echo "==> cargo test -p anc-core --features debug-invariants -q"
# Among them: the cluster-cache equivalence suites (cached == cold at every
# level across mixed update streams; prop_cluster_cache, determinism).
cargo test -p anc-core --features debug-invariants -q

echo "==> persistence and framing in release"
# A forged edge list whose gaps wrap u64 used to panic in debug and decode to
# edge (0, 1) in release, and a forged node or edge count sized an
# allocation before any byte backed it; the workspace run above covered debug.
cargo test --release -p anc-graph --lib graph_decode_rejects -q
# Every wire message and WAL record goes through one frame parser, whose
# offsets come from a length a peer or a file chose: every cut, a flipped
# byte, a prefix past the bound, two frames back to back.
cargo test --release -p anc-graph --lib frame_parser -q
# Every frame, WAL record and snapshot ends in a CRC-32 computed 16 bytes at a
# time: it must equal the bytewise loop at every length and offset, and the
# bytes it seals must stay those the bytewise loop produced.
cargo test --release -p anc-graph --lib crc32_equals_the_bytewise_loop -q
# The snapshot, WAL and activation-batch decoder tests (forged configs,
# clocks, graph counts, versions and records, each behind a restamped CRC;
# batches cut short, lying about their count or carrying a wide id) ran in
# debug above; here integer overflow wraps instead of panicking.
cargo test --release -p anc-core --lib persist -q
# The frame parser's offsets come from a length the peer chose: its tests
# (scripted streams cut at every byte, hostile prefixes, the write timeout)
# ran in debug above, where such arithmetic panics; here it would wrap. The
# pinned wire, WAL and snapshot bytes (pinned_bytes) run here too.
cargo test --release -p anc-server -q
# The CLI's boundary tests (damaged checkpoints, out-of-range options and
# levels, streams whose state no load accepts) drive the binary users run:
# in release its debug assertions are compiled out, so a bound that only a
# `debug_assert` enforced reads wrong data here instead of failing.
cargo test --release -p anc-cli -q

echo "==> anc-bench smoke (snapshot-size gate + the paper's shape claims)"
# The n = 2 000 row of the scale sweep (saves and loads the binary snapshot
# end to end; it must stay under the resident state's bytes, and every
# invariant must hold after the stream), then Figure 8, Table IV and Table III at small scale with the
# shapes EXPERIMENTS.md reports asserted on the returned JSON.
cargo run --release -q -p anc-bench -- smoke > /dev/null
# The monitoring example checks every change report against a recount of the
# watched votes, so it is run, not only compiled.
cargo run --release -q --example community_watch > /dev/null
# Its asserts are the example's claim: the user's strongest tie moves from the
# home circle to the second one once activity does.
cargo run --release -q --example social_monitor > /dev/null

echo "==> no serde in the product crates"
# Engine state has one codec (persist::binary); serde_json is for reports.
if grep -rn serde crates/{graph,decay,core,data,metrics,baselines,server,cli}/src src; then
    echo "serde token in a product crate (see above)"
    exit 1
fi

echo "==> no relaxed atomics, no thread pool under the server (DESIGN.md §8)"
# With the relaxed ordering gone from the tree no publish/consume handshake
# can have a weak side, mixed or not; statistics counters pay AcqRel, the
# same instructions on x86-64. And a reader cannot block on pool dispatch if
# the crate it lives in cannot name the pool.
no_relaxed_atomics() {
    if grep -rnw Relaxed "$1"/crates/{core,server}/src "$1"/vendor/rayon/src; then
        echo "relaxed atomic ordering (see above): use AcqRel/Acquire/Release"; return 1
    fi
}
server_names_no_pool() {
    if grep -n rayon "$1"/crates/server/Cargo.toml; then
        echo "crates/server must not depend on the thread pool (see above)"; return 1
    fi
}
no_relaxed_atomics .
server_names_no_pool .

echo "==> the bench-only names have no caller outside bench/"
# One repair kernel (Pyramids::repair) serves every flush; the old entry
# names stay only as one-line shims for bench/src/twin.rs, which keeps them
# until the next benchmark change. Their definitions (`fn name(`) do not match.
bench_only_names_unused() {
    local hits
    hits=$(grep -rnE '(\.|::)(on_weight_change_serial_into|on_weight_change_batch(_traced)?|note_untracked_updates)\(' \
        "$1"/crates "$1"/src "$1"/tests "$1"/examples 2>/dev/null || true)
    if [ -n "$hits" ]; then
        echo "$hits"; echo "a bench-only shim is called outside bench/ (see above): call Pyramids::repair"
        return 1
    fi
}
bench_only_names_unused .

echo "==> steady-state allocation counts (release; 1, 2, 4 threads and unset)"
# The counting-allocator suite ran in debug with the workspace tests; here it
# runs optimised on the sequential path, on real 2- and 4-thread pools, and
# with the variable unset (the host probe must be cached): a grouped flush
# allocates at most once in every one of them, and a flush one thread runs
# (any batch at one thread, a small one at any count) repairs in place, so a
# fresh engine's first grouped flush copies no weight array.
for t in 1 2 4; do
    echo "    RAYON_NUM_THREADS=$t"
    RAYON_NUM_THREADS=$t cargo test --release -p anc-core --test alloc_steady_state -q
done
echo "    RAYON_NUM_THREADS unset"
env -u RAYON_NUM_THREADS cargo test --release -p anc-core --test alloc_steady_state -q

echo "==> repair completeness + realistic-n cache checks (release)"
# Every node a Voronoi repair writes must be in the affected set it returns
# (n = 2 000); a power-of-two rescale must commute with repair bit for
# bit, so the rescaled partition writes the same nodes; a restored or reopened engine must stay
# bit-identical to the live one across batched rescales, and the live index
# must equal reconstruct_index() in every array at n = 2 000 (with and
# without rescales) and at n = 20 000 (release only); level 0 must stay the
# unit-weight build whatever the stream, and at n = 20 000 no activation may
# leave a level-0 trace entry (the run prints the largest affected-node
# count per level); and the
# n = 20 000 stream that crosses the first batched rescale must keep the
# cluster cache in step with the index (ROADMAP item 1(a)'s reproducer).
# Near-ties an ulp apart need realistic n, so these run by name in release.
# At anc-perf's fixture scale (n = 2 000, a query every 64 of 3 840
# activations) a cached query's work is counted against the nodes whose
# seed moved: a fall back to whole-graph re-voting or re-extraction fails
# here without a timer (DESIGN.md §9.2).
cargo test --release -p anc-core --test prop_voronoi affected_set_names_every_written_node -q
cargo test --release -p anc-core --test prop_voronoi power_of_two_rescale_commutes_with_repair -q
cargo test --release -p anc-core --test restore_identity -q
cargo test --release -p anc-core --test level_zero -q -- --include-ignored --nocapture
# A single-edge repair handed one trace buffer too few must panic here too,
# where a debug assertion is compiled out and the zip would silently skip
# the trailing partitions.
cargo test --release -p anc-core --lib short_trace_buffer_panics -q
cargo test --release -p anc-core --test prop_cluster_cache \
    post_rescale_cache_matches_index_at_realistic_n -q -- --ignored
cargo test --release -p anc-core --test prop_cluster_cache \
    query_work_is_bounded_by_what_changed_at_fixture_scale -q -- --ignored
# The even repair against the cold extraction, optimised; then again with
# the cache invariant (each even label's kept smallest node among it)
# checked at every batch boundary, beside the whole cache suite, its
# realistic-n tests included (≈ 25 s).
cargo test --release -p anc-core --lib even_repair -q
cargo test --release -p anc-core --test prop_cluster_cache even_repair -q
cargo test --release -p anc-core --features debug-invariants --lib even_repair -q
cargo test --release -p anc-core --features debug-invariants --test prop_cluster_cache -q \
    -- --include-ignored

echo "==> the similarity store stays in range (release)"
# Silence must not decay a similarity to 0, and dense traffic must not carry
# the mean of S out of the range rule's window (DESIGN.md §4, §7): one edge
# activated alone every λΔt = 10 for 10⁶ steps, and 400 000 activations 80 %
# on 64 hot edges, which cross the range step with a cached level (the index
# must equal a rebuild and the cache a cold fill afterwards). Their 10⁴-step
# versions ran with the workspace tests.
cargo test --release -p anc-core --test similarity_range \
    one_edge_at_lambda_dt_10_stays_valid_for_a_million_steps -q -- --ignored --exact
cargo test --release -p anc-core --test similarity_range \
    dense_traffic_keeps_the_mean_in_range_for_400k_activations -q -- --ignored --exact

echo "==> determinism suite under fixed pool sizes (1 and 4 threads)"
# The determinism test sweeps RAYON_NUM_THREADS internally, but its
# harness (and every other parallel path it passes through) also runs under
# whatever the variable says at process start. Two fixed-size passes pin
# both extremes: the pure sequential path and a real 4-worker pool.
# Beside them, in release: the one-thread repair arm (in place on the
# engine's weights) and the pool arm (private weight arrays) leave the same
# index, traces, counts and cache generation, each called directly, so both
# run at either pool size; S₀ from one σ table equals the per-edge
# reinforcement loop bit for bit, and one n = 600 build matches its pinned
# snapshot and index digests and has the unit-weight level 0
# (`Pyramids::build` runs on the pool; the digests must not see it). And the
# live-levels suite: streams that change the live set, cross clock rescales
# and the range step must leave every synced level equal to
# reconstruct_index() bit for bit (a sync rebuilds on the pool too).
for t in 1 4; do
    echo "    RAYON_NUM_THREADS=$t"
    RAYON_NUM_THREADS=$t cargo test -p rayon -q
    RAYON_NUM_THREADS=$t cargo test -p anc-core --test determinism --test prop_batch -q
    RAYON_NUM_THREADS=$t cargo test --release -p anc-core --lib repair_arms -q
    RAYON_NUM_THREADS=$t cargo test --release -p anc-core --test live_levels -q
    RAYON_NUM_THREADS=$t cargo test --release -p anc-core --test prop_s0 \
        row_table_sweep_equals_per_edge_reinforcement -q
    RAYON_NUM_THREADS=$t cargo test --release -p anc-core --test prop_s0 s0_ -q
done

echo "==> serving layer: reader/writer stress (1 and 4 threads)"
# The serving stress suite sweeps RAYON_NUM_THREADS internally and compares
# the served engine byte-for-byte against a serial replay; it runs under
# debug-invariants so the writer validates the full engine invariant set
# after every drained cycle. Beside it, the member index every snapshot
# carries is checked against a scan of its labels, and a snapshot no reader
# holds must be freed while the server runs. The lib tests drive the
# writer's cycle by hand (coalescing, one epoch per publishing cycle, the
# hand-back equal to a serial replay, a failed log write acknowledging
# nothing), so the invariant check runs there too. Two fixed pool sizes pin
# the harness extremes, matching the determinism suite above. (The wire
# protocol suite ran in the workspace pass.)
for t in 1 4; do
    echo "    RAYON_NUM_THREADS=$t"
    RAYON_NUM_THREADS=$t cargo test -p anc-server --features debug-invariants \
        --lib --test serve_stress --test member_index --test retention -q
done

echo "==> seeded violations (the lints and the grep gates bite)"
# A throwaway copy of the workspace gets one probe per rule appended to the
# crate that rule guards; `cargo clippy -- -D warnings` must then fail naming
# the lint, and the two grep gates above must fail on their probes. Crates
# are probed leaf first and restored before the next, so each run sees clean
# dependencies. The one rule whose home is an `#[expect]` on a justified site
# (`expect_used` at the server's writer-thread spawn and join) is also pinned
# by the main clippy step: an expectation that stops firing fails it.
copy=$(mktemp -d)
trap 'rm -rf "$copy"' EXIT
cp -r Cargo.toml Cargo.lock crates vendor src "$copy"
seeded() { # seeded <package> <file> <expected>... ; the probe's source on stdin
    local pkg=$1 f=$2 out want
    shift 2
    cat >> "$copy/$f"
    if out=$(cd "$copy" && cargo clippy --offline -q -p "$pkg" --lib --message-format=json -- -D warnings 2>&1); then
        echo "$f: seeded violations passed clippy"; exit 1
    fi
    for want in "$@"; do
        grep -qF -- "$want" <<<"$out" || { echo "$f: seeded violation did not draw $want"; exit 1; }
    done
    cp "$f" "$copy/$f"
}
seeded anc-graph crates/graph/src/codec.rs \
    '"clippy::cast_possible_truncation"' '"clippy::iter_over_hash_type"' \
    'disallowed method `std::collections::HashSet::iter`' '"clippy::unwrap_used"' <<'PROBE'
/// Probe: a narrowing cast on decode, hash order as a loop and as an adapter chain, unwrap.
pub fn seeded_probe(x: u64, m: &std::collections::HashSet<u32>) -> u32 {
    let mut sum = m.iter().max().copied().unwrap();
    for v in m {
        sum += v;
    }
    sum + x as u32
}
PROBE
seeded anc-decay crates/decay/src/clock.rs \
    '"clippy::iter_over_hash_type"' '"clippy::expect_used"' 'disallowed method `std::time::SystemTime::now`' <<'PROBE'
/// Probe: hash order, expect, wall clock.
pub fn seeded_probe(m: &std::collections::HashMap<u32, u32>) -> u32 {
    let _t = std::time::SystemTime::now();
    let mut sum = 0;
    for (k, v) in m {
        sum += k + v;
    }
    m.get(&sum).copied().expect("present")
}
PROBE
seeded anc-core crates/core/src/persist/wal.rs \
    '"clippy::cast_possible_truncation"' '"clippy::unused_result_ok"' '"clippy::let_underscore_must_use"' \
    '"clippy::iter_over_hash_type"' 'disallowed method `core::cmp::PartialOrd::partial_cmp`' \
    'disallowed method `std::time::Instant::now`' '"clippy::panic"' '"clippy::unreachable"' \
    '"clippy::todo"' '"clippy::unimplemented"' <<'PROBE'
/// Probe: a narrowing cast on encode, a dropped Result both ways, hash order, partial_cmp, wall clock, the panic family.
pub fn seeded_probe(p: &std::path::Path, len: usize, m: &std::collections::HashMap<u32, f64>) -> u32 {
    std::fs::remove_file(p).ok();
    let _ = std::fs::remove_file(p);
    let _t = std::time::Instant::now();
    for (k, v) in m {
        match (v.partial_cmp(&0.0), k) {
            (None, _) => panic!("nan"),
            (_, 0) => unreachable!(),
            (_, 1) => todo!(),
            (_, 2) => unimplemented!(),
            _ => {}
        }
    }
    len as u32
}
PROBE
seeded anc-server crates/server/src/wire.rs \
    'disallowed method `core::cmp::PartialOrd::partial_cmp`' '"clippy::expect_used"' '"clippy::panic"' <<'PROBE'
/// Probe: partial_cmp under the wall-clock-exempt override, the panic family.
pub fn seeded_probe(a: f64, o: Option<u8>) -> u8 {
    if a.partial_cmp(&1.0).is_none() {
        panic!("nan");
    }
    o.expect("some")
}
PROBE
seeded anc-server crates/server/src/snapshot.rs \
    'disallowed type `std::sync::Mutex`' <<'PROBE'
/// Probe: a lock anywhere a reader could reach.
pub fn seeded_probe(m: &std::sync::Mutex<u8>) -> bool {
    m.is_poisoned()
}
PROBE
cat >> "$copy/crates/server/src/tcp.rs" <<'PROBE'
/// Probe: a relaxed load.
pub fn seeded_probe(stop: &AtomicBool) -> bool {
    stop.load(Ordering::Relaxed)
}
PROBE
if no_relaxed_atomics "$copy" > /dev/null; then
    echo "a seeded Ordering::Relaxed passed the grep gate"; exit 1
fi
cp crates/server/src/tcp.rs "$copy/crates/server/src/tcp.rs"
sed -i 's/^\[dependencies\]$/&\nrayon.workspace = true/' "$copy/crates/server/Cargo.toml"
if server_names_no_pool "$copy" > /dev/null; then
    echo "a seeded rayon dependency of crates/server passed the grep gate"; exit 1
fi
cp crates/server/Cargo.toml "$copy/crates/server/Cargo.toml"
cat >> "$copy/crates/core/src/engine.rs" <<'PROBE'
/// Probe: a bench-only shim called from the product crates.
pub fn seeded_probe(p: &mut Pyramids, g: &Graph, w: &[f64]) -> RepairStats {
    p.on_weight_change_batch(g, w, &[])
}
PROBE
if bench_only_names_unused "$copy" > /dev/null; then
    echo "a seeded call of a bench-only shim passed the grep gate"; exit 1
fi
cp crates/core/src/engine.rs "$copy/crates/core/src/engine.rs"
seeded rayon vendor/rayon/src/pool.rs '"clippy::undocumented_unsafe_blocks"' <<'PROBE'
/// Probe: an unsafe block with no SAFETY comment.
pub(crate) fn seeded_probe(p: *const u8) -> u8 {
    unsafe { *p }
}
PROBE
seeded rayon vendor/rayon/src/lib.rs '"unsafe_code"' <<'PROBE'
/// Probe: unsafe outside the one module that may hold it.
pub fn seeded_probe(p: *const u8) -> u8 {
    // SAFETY: none; this must not compile.
    unsafe { *p }
}
PROBE
sed -i '/^#!\[forbid(unsafe_code)\]/d' "$copy/crates/decay/src/lib.rs"
if forbid_unsafe_roots "$copy" > /dev/null; then
    echo "a crate root without #![forbid(unsafe_code)] passed the presence check"; exit 1
fi
rm -rf "$copy"
trap - EXIT

echo "==> stress-schedules: perturbed-schedule determinism at fixed seeds"
# The pool's seeded yield-injection hooks (vendor/rayon/src/stress.rs) force
# adversarial interleavings; the determinism suite asserts byte-identical
# snapshots, bitsets and extractions, on a batched and a single-activation
# stream, against the unperturbed 1-thread reference at 2/4/8 threads and
# three seeds,
# and these debug builds check the pool's lock ranks on every acquisition
# (the rank `should_panic` tests run here under the feature as well).
# The outer RAYON_NUM_THREADS=4 pins the pool size the harness itself (and
# any path outside the internal sweep) starts under.
RAYON_NUM_THREADS=4 cargo test -p rayon --features stress-schedules \
    --lib --test stress_schedules -q
RAYON_NUM_THREADS=4 cargo test -p anc-core --features stress-schedules \
    --test determinism -q

echo "CI OK"
