//! The per-activation cost claim as an allocation count (DESIGN.md §8): after
//! warm-up the ingest loop runs out of pooled buffers, so a single
//! activation allocates nothing (amortised — a pooled `Vec` may still double
//! now and then) and a grouped batch allocates at most once, reading
//! `RAYON_NUM_THREADS`, whatever the batch length and the thread count.
//!
//! A counting `#[global_allocator]` measures it: every `alloc`,
//! `alloc_zeroed` and `realloc` made *on the measuring thread* while its
//! thread-local flag is armed. Sibling tests and pool workers are never
//! armed, so tests in this binary may run in parallel; tasks a worker
//! claims are not counted, which can only lower a reading (`ci.sh` runs the
//! suite at `RAYON_NUM_THREADS` 1, 2 and 4 and unset; at 1 every task runs
//! here). This crate root is the only `unsafe` outside `vendor/rayon`.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use anc_core::{AncConfig, AncEngine, ClusterMode, DurabilityOptions, DurableEngine};
use anc_graph::gen::{planted_partition, PlantedConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

thread_local! {
    // Const-initialised and without destructors: touching them from inside
    // the allocator neither allocates nor runs after thread teardown.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting the armed thread's allocation calls.
struct Counting;

fn note() {
    if ARMED.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` touches two plain thread-local
// cells and never allocates, unwinds or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `alloc` contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `alloc_zeroed` contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller's `realloc` contract is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    ARMED.set(true);
    f();
    ARMED.set(false);
    ALLOCS.get() - before
}

/// `anc-perf`'s fixture shape: n = 2 000 planted partition, default config.
fn fixture() -> AncEngine {
    let lg = planted_partition(&PlantedConfig::default_for(2000), 17);
    AncEngine::new(lg.graph, AncConfig::default(), 17)
}

/// An endless seeded activation stream over `m` edges, time advancing 0.01
/// per draw.
fn activations(m: usize) -> impl Iterator<Item = (u32, f64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    (1u32..).map(move |i| (rng.gen_range(0..m as u32), f64::from(i) * 0.01))
}

/// The next `len` draws as one same-time batch.
fn batch(stream: &mut impl Iterator<Item = (u32, f64)>, len: usize) -> (Vec<u32>, f64) {
    let (edges, times): (Vec<u32>, Vec<f64>) = stream.by_ref().take(len).unzip();
    (edges, times[len - 1])
}

/// Singles per measured window, and the allocations a window may make: the
/// ingest loop is allocation-free *amortised* (a pooled buffer may still
/// double).
const SINGLES: usize = 4096;
const SINGLES_BOUND: u64 = 64;

#[test]
fn the_counter_counts() {
    let boxed = allocations(|| drop(black_box(Box::new(7u64))));
    assert_eq!(boxed, 1, "one Box is one allocation");
    let grown = allocations(|| {
        let mut v = Vec::new();
        for i in 0..1000u32 {
            v.push(i);
        }
        black_box(&v);
    });
    assert!(grown >= 2, "a Vec grown by push reallocates, counted {grown}");
    let unarmed = ALLOCS.get();
    drop(black_box(vec![0u8; 64]));
    assert_eq!(ALLOCS.get(), unarmed, "unarmed allocations are not counted");
}

#[test]
fn single_activations_are_amortised_allocation_free() {
    let mut engine = fixture();
    let mut stream = activations(engine.graph().m());
    // The serving configuration: a materialized level, so every repair's
    // footprint is handed to the cluster cache.
    let level = engine.default_level();
    let _ = engine.cluster_all_cached(level, ClusterMode::Power);
    for _ in 0..2 * SINGLES {
        let (e, t) = stream.next().unwrap();
        engine.activate(e, t);
    }

    let activate = allocations(|| {
        for _ in 0..SINGLES {
            let (e, t) = stream.next().unwrap();
            engine.activate(e, t);
        }
    });
    assert!(activate <= SINGLES_BOUND, "{activate} allocations in {SINGLES} activate calls");

    let reinforce = allocations(|| {
        for _ in 0..SINGLES {
            engine.reinforce_edges(&[stream.next().unwrap().0]);
        }
    });
    assert!(
        reinforce <= SINGLES_BOUND,
        "{reinforce} allocations in {SINGLES} reinforce_edges calls"
    );
}

/// A cached even query that repairs flipped votes runs out of the cache's
/// pooled scratch: after warm-up it allocates the new label vector and its
/// `Arc` when a label moved — two allocations — and nothing at all when the
/// flips moved none, in which case it returns the cached `Arc` itself. On
/// the `engine-stream` shape: a query every 64 activations (unmeasured).
#[test]
fn cached_even_repairs_allocate_only_the_new_labels() {
    let mut engine = fixture();
    let mut stream = activations(engine.graph().m());
    let level = engine.default_level();
    let query = |engine: &mut AncEngine, stream: &mut dyn Iterator<Item = (u32, f64)>| {
        for (e, t) in stream.take(64) {
            engine.activate(e, t);
        }
        let before = engine.cluster_cache().cached(level, ClusterMode::Even);
        let mut answer = None;
        let allocs =
            allocations(|| answer = Some(engine.cluster_all_cached(level, ClusterMode::Even)));
        let (c, stats) = answer.expect("answered");
        let same = before.is_some_and(|b| Arc::ptr_eq(&b, &c));
        (allocs, stats.flips, same)
    };
    for _ in 0..64 {
        query(&mut engine, &mut stream);
    }
    let (mut relabelled, mut kept) = (0, 0);
    for i in 0..256 {
        let (allocs, flips, same) = query(&mut engine, &mut stream);
        if same {
            assert_eq!(allocs, 0, "query {i}: {flips} flips, same Arc");
            kept += usize::from(flips > 0);
        } else {
            assert!(flips > 0, "query {i}: a new Arc without a flip");
            assert!(allocs <= 2, "query {i}: {allocs} allocations for {flips} flips");
            relabelled += 1;
        }
    }
    assert!(relabelled > 0 && kept > 0, "{relabelled} relabelled, {kept} flipped in place");
}

/// Write-ahead logging frames into pooled buffers too: a logged batch of one
/// edge is as allocation-free as `activate` (compaction, which encodes a
/// whole snapshot, is switched off).
#[test]
#[cfg_attr(
    feature = "debug-invariants",
    ignore = "the invariant checker allocates at every batch boundary"
)]
fn durable_single_edge_batches_are_amortised_allocation_free() {
    let engine = fixture();
    let mut stream = activations(engine.graph().m());
    let level = engine.default_level();
    let _ = engine.cluster_all_cached(level, ClusterMode::Power);
    let dir = std::env::temp_dir().join(format!("anc-alloc-steady-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurabilityOptions { compact_every: usize::MAX };
    let mut durable = DurableEngine::create(engine, &dir, opts).unwrap();
    for _ in 0..2 * SINGLES {
        let (e, t) = stream.next().unwrap();
        durable.activate_batch(&[e], t).unwrap();
    }
    let logged = allocations(|| {
        for _ in 0..SINGLES {
            let (e, t) = stream.next().unwrap();
            durable.activate_batch(&[e], t).unwrap();
        }
    });
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        logged <= SINGLES_BOUND,
        "{logged} allocations in {SINGLES} durable activate_batch calls of one edge"
    );
}

/// Allocations per `activate_batch` call over `CALLS` batches of `len`:
/// (median call, mean).
fn per_batch(
    engine: &mut AncEngine,
    stream: &mut impl Iterator<Item = (u32, f64)>,
    len: usize,
) -> (u64, f64) {
    const CALLS: usize = 64;
    let batches: Vec<_> = (0..CALLS).map(|_| batch(stream, len)).collect();
    // One delta repairs every partition once (k·L updates); d ≥ 2 deltas go
    // through the grouped kernel, which updates or skips d·k·L times.
    let partitions = engine.pyramids().k() * engine.num_levels();
    let mut counts: Vec<u64> = batches
        .iter()
        .map(|(edges, t)| {
            allocations(|| {
                let stats = engine.activate_batch(edges, *t);
                assert!(
                    stats.updates + stats.skips > partitions,
                    "a grouped flush needs two moved edges"
                );
            })
        })
        .collect();
    let mean = counts.iter().sum::<u64>() as f64 / CALLS as f64;
    counts.sort_unstable();
    (counts[CALLS / 2], mean)
}

/// A grouped flush is one pool call, which allocates only the `String` of
/// its `RAYON_NUM_THREADS` read, and nothing when the variable is unset
/// (the host probe is cached): so a flush allocates at most once, for
/// batches of 8 and of 64, at any thread count, whether or not the cluster
/// cache has a materialized level to trace the repair for. The mean allows
/// for what the median skips: the trace buffers doubling now and then.
#[test]
#[cfg_attr(
    feature = "debug-invariants",
    ignore = "the invariant checker allocates at every batch boundary"
)]
fn batch_allocations_do_not_grow_with_batch_length() {
    for traced in [false, true] {
        let mut engine = fixture();
        let mut stream = activations(engine.graph().m());
        if traced {
            let level = engine.default_level();
            let _ = engine.cluster_all_cached(level, ClusterMode::Power);
        }
        for len in [64, 8, 64, 8] {
            for _ in 0..64 {
                let (edges, t) = batch(&mut stream, len);
                let _ = engine.activate_batch(&edges, t);
            }
        }
        assert_eq!(engine.cluster_cache().has_materialized_levels(), traced);

        let want = u64::from(std::env::var_os("RAYON_NUM_THREADS").is_some());
        for len in [8, 64] {
            let (median, mean) = per_batch(&mut engine, &mut stream, len);
            assert!(
                median <= want && mean <= want as f64 + 0.25,
                "{median} (mean {mean}) allocations per activate_batch call of {len} edges \
                 at {} threads (traced: {traced}), want at most {want}",
                rayon::current_num_threads()
            );
        }
    }
}
