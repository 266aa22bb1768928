//! Crash-recovery property tests for the append-only activation log
//! (DESIGN.md §11): a log truncated at *any* byte offset — record boundary
//! or mid-record — recovers to exactly the state reached by replaying the
//! longest verifiable record prefix over the base snapshot, bit-identically
//! (compared via Exact binary snapshot bytes). Corrupted headers and
//! damaged record payloads surface as the right [`RestoreError`] variants.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use anc_core::persist::{SNAPSHOT_FILE, WAL_FILE};
use anc_core::{AncConfig, AncEngine, DurabilityOptions, DurableEngine, RestoreError, WalReader};
use anc_decay::RescaleConfig;
use anc_graph::gen::erdos_renyi;
use proptest::prelude::*;

/// Fresh scratch directory per case (proptest shrinks re-enter the test).
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("anc-prop-wal-{tag}-{}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One fuzzed durable operation: the edge selectors of a batch, a single
/// edge or several, half of each.
fn batch_strategy() -> impl Strategy<Value = Vec<usize>> {
    (0u8..2, prop::collection::vec(0usize..10_000, 2..12)).prop_map(|(kind, mut sels)| {
        if kind == 0 {
            sels.truncate(1);
        }
        sels
    })
}

/// Rescale every 7 activations, at λ = 1 so that most of them halve `g` at
/// least once: streams cross rescale boundaries and the log interleaves
/// with triggered (unlogged, deterministic) rescales.
fn fuzz_cfg() -> AncConfig {
    AncConfig {
        lambda: 1.0,
        k: 2,
        rep: 1,
        mu: 2,
        epsilon: 0.2,
        rescale: RescaleConfig { every_activations: 7, exponent_guard: 200.0 },
        ..Default::default()
    }
}

fn apply_durable(d: &mut DurableEngine, sels: &[usize], t: f64) {
    let m = d.engine().graph().m();
    let edges: Vec<u32> = sels.iter().map(|s| (s % m) as u32).collect();
    d.activate_batch(&edges, t).unwrap();
}

/// No compaction mid-stream: the whole history stays in one log file, so a
/// truncation point can land inside any record of the run.
fn no_compact() -> DurabilityOptions {
    DurabilityOptions { compact_every: usize::MAX }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chop the log at an arbitrary byte offset; recovery must equal an
    /// explicit prefix replay over the base snapshot, bit for bit, and the
    /// recovered engine must still satisfy every invariant.
    #[test]
    fn truncated_log_recovers_to_prefix_replay(
        seed in 0u64..16,
        ops in prop::collection::vec((batch_strategy(), 0.01f64..0.8), 1..14),
        cut_sel in 0usize..100_000,
    ) {
        let g = erdos_renyi(16, 32, seed);
        if g.m() == 0 { return Ok(()); }
        let dir = scratch("trunc");
        let engine = AncEngine::new(g, fuzz_cfg(), seed);
        let mut durable = DurableEngine::create(engine, &dir, no_compact()).unwrap();
        let mut t = 0.0;
        for (sels, dt) in &ops {
            t += dt;
            apply_durable(&mut durable, sels, t);
        }
        drop(durable);

        let snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        let log = std::fs::read(dir.join(WAL_FILE)).unwrap();
        // Any offset from "just the header" to "one byte short of complete".
        let cut = 20 + cut_sel % (log.len() - 20);
        let torn = &log[..cut];

        // Reference: base snapshot + longest verifiable record prefix.
        let mut reference = AncEngine::load_binary(snapshot.as_slice()).unwrap();
        let mut reader = WalReader::new(torn).unwrap();
        let mut prefix_records = 0u64;
        loop {
            match reader.next() {
                Ok(Some(record)) => { record.apply(&mut reference); prefix_records += 1; }
                Ok(None) => break,
                Err(RestoreError::Truncated { .. })
                | Err(RestoreError::ChecksumMismatch { .. })
                | Err(RestoreError::Codec(_)) => break,
                Err(other) => panic!("unexpected reader error: {other}"),
            }
        }

        // Crash-recover from the torn file.
        let crash_dir = scratch("trunc-crash");
        std::fs::write(crash_dir.join(SNAPSHOT_FILE), &snapshot).unwrap();
        std::fs::write(crash_dir.join(WAL_FILE), torn).unwrap();
        let recovered = DurableEngine::open(&crash_dir, no_compact()).unwrap();

        prop_assert!(recovered.engine().check_invariants().is_ok());
        prop_assert_eq!(recovered.wal_records(), prefix_records);
        prop_assert_eq!(
            recovered.engine().state_bytes_for_test(),
            reference.state_bytes_for_test(),
            "recovered state diverged from prefix replay (cut at {} of {})",
            cut, log.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
    }

    /// Flip a byte anywhere in the log: recovery still succeeds (damage is
    /// indistinguishable from a torn tail and truncated away), and a direct
    /// read of the damaged area yields the right typed error.
    #[test]
    fn corrupted_log_yields_typed_error_and_recovers(
        seed in 0u64..16,
        ops in prop::collection::vec((batch_strategy(), 0.01f64..0.8), 1..10),
        flip_sel in 0usize..100_000,
    ) {
        let g = erdos_renyi(16, 32, seed);
        if g.m() == 0 { return Ok(()); }
        let dir = scratch("flip");
        let engine = AncEngine::new(g, fuzz_cfg(), seed);
        let mut durable = DurableEngine::create(engine, &dir, no_compact()).unwrap();
        let mut t = 0.0;
        for (sels, dt) in &ops {
            t += dt;
            apply_durable(&mut durable, sels, t);
        }
        drop(durable);

        let mut log = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let at = flip_sel % log.len();
        log[at] ^= 0x20;

        if at < 20 {
            // Header damage: magic, version, base or header CRC.
            let err = match WalReader::new(&log) {
                Err(e) => e,
                Ok(_) => panic!("damaged header accepted"),
            };
            prop_assert!(
                matches!(
                    err,
                    RestoreError::BadMagic
                        | RestoreError::ChecksumMismatch { .. }
                        | RestoreError::UnsupportedVersion(_)
                ),
                "unexpected header error: {}", err
            );
        } else {
            // Body damage: the reader must stop with a typed error (or, if
            // the flip landed in a length field making a record run past
            // the end, a truncation) — never a panic, never a bad record.
            let mut reader = WalReader::new(&log).unwrap();
            let mut scratch_engine = AncEngine::load_binary(
                std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap().as_slice()).unwrap();
            loop {
                match reader.next() {
                    Ok(Some(record)) => record.apply(&mut scratch_engine),
                    Ok(None) => break,
                    Err(RestoreError::Truncated { .. })
                    | Err(RestoreError::ChecksumMismatch { .. })
                    | Err(RestoreError::Codec(_)) => break,
                    Err(other) => panic!("unexpected reader error: {other}"),
                }
            }
            // And full recovery over the damaged file still comes up green.
            std::fs::write(dir.join(WAL_FILE), &log).unwrap();
            let recovered = DurableEngine::open(&dir, no_compact()).unwrap();
            prop_assert!(recovered.engine().check_invariants().is_ok());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
