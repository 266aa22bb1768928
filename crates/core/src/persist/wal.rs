//! Append-only activation log + crash recovery (DESIGN.md §11).
//!
//! Full binary snapshots make restarts cheap, but writing one per
//! activation would be absurd — the delta between two engine states *is*
//! the activation stream, and the engine is deterministic, so logging the
//! inputs is enough. [`DurableEngine`] wraps an [`AncEngine`] with
//! write-ahead logging:
//!
//! * every activated batch — the edges activated at one time, the served
//!   system's one input — is encoded as a [`WalRecord`] and appended (with
//!   a per-record CRC-32) to `wal.anc` **before** it is applied;
//! * every `compact_every` records, the log is folded away: the engine is
//!   snapshotted to `snapshot.anc` (atomically, via a tmp file + rename)
//!   and the log restarts empty;
//! * [`DurableEngine::open`] recovers after a crash by loading the last
//!   snapshot and replaying the log suffix. A torn record at the tail
//!   (partial write) is detected by length/CRC and discarded; a log whose
//!   base predates the snapshot (crash between snapshot rename and log
//!   reset) is discarded whole — its records are already folded in. A
//!   record that passes its CRC but does not decode, or names an edge or a
//!   time the engine would reject, is version skew rather than a tear:
//!   `open` refuses with a typed error and leaves the log untouched.
//!
//! ```text
//! wal.anc = "ANCW" ∥ u32 version ∥ u64 base_activations ∥ u32 crc(header)
//!           ∥ record*        where record = u32 len ∥ u32 crc(payload) ∥ payload
//! ```
//!
//! The payload is the kind byte 2, the batch time as raw `f64` bits and the
//! edge ids as varints; they are validated *before* the record is appended,
//! so the log never holds a call the engine would panic on. Rescales are
//! *not* logged: they are a deterministic function of engine state and the
//! logged inputs, so replay reproduces them.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use anc_graph::codec::{crc32, put_f64, put_u32, put_u64, put_u8, put_uvarint, Reader};
use anc_graph::EdgeId;

use crate::engine::AncEngine;
use crate::pyramid::RepairStats;

use super::binary::SnapshotProfile;
use super::{le_u32, le_u64, RestoreError};

/// Magic bytes opening every write-ahead log.
pub const WAL_MAGIC: [u8; 4] = *b"ANCW";

/// Write-ahead log format version.
pub const WAL_VERSION: u32 = 1;

const HEADER_LEN: usize = 4 + 4 + 8 + 4; // magic + version + base + crc

/// Largest record payload accepted on read (a torn length field must not
/// trigger a huge allocation).
const MAX_RECORD_LEN: usize = 1 << 30;

/// One logged engine mutation: the inputs of
/// [`AncEngine::activate_batch`]`(&edges, t)`, the one call a
/// [`DurableEngine`] logs. Replaying the records in order against the base
/// snapshot reproduces the engine state exactly (the engine is
/// deterministic).
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// Arrival time of the whole batch.
    pub t: f64,
    /// Activated edges, in batch order.
    pub edges: Vec<EdgeId>,
}

/// The one record kind a log holds.
const KIND_BATCH: u8 = 2;
// Kinds 1, 3, 4 and 5 are retired and stay reserved — never reuse them: a
// log holding one is refused. Kind 1 was a single activation and kind 4
// ANCOR's reinforcement replay, logged only by tests; kind 3 was the
// adaptive batch, retired with the method it logged; kind 5 an explicit
// rescale, retired when rescales became a function of the logged inputs.

fn put_edges(out: &mut Vec<u8>, edges: &[EdgeId]) {
    put_uvarint(out, edges.len() as u64);
    for &e in edges {
        put_uvarint(out, e as u64);
    }
}

fn read_edges(r: &mut Reader<'_>) -> Result<Vec<EdgeId>, RestoreError> {
    let len = r.uvarint_len()?;
    if len > r.remaining() {
        // Each edge takes ≥ 1 byte; a bigger count is a lying header.
        return Err(RestoreError::Codec(format!("edge count {len} exceeds record size")));
    }
    let mut edges = Vec::with_capacity(len);
    for _ in 0..len {
        let e = r.uvarint()?;
        let e = u32::try_from(e)
            .map_err(|_| RestoreError::Codec(format!("edge id {e} exceeds EdgeId range")))?;
        edges.push(e);
    }
    Ok(edges)
}

/// Appends a record payload (kind byte, time, edges). It takes borrowed
/// arguments so the [`DurableEngine`] write path can log straight from the
/// caller's slice without building an owned record.
fn encode_payload(out: &mut Vec<u8>, t: f64, edges: &[EdgeId]) {
    put_u8(out, KIND_BATCH);
    put_f64(out, t);
    put_edges(out, edges);
}

/// Rejects the inputs the engine would panic on — an edge id at or past the
/// network's edge count, a non-finite timestamp — so they are refused
/// before a record is logged and before a logged one is replayed.
fn check_input(engine: &AncEngine, edges: &[EdgeId], t: f64) -> Result<(), RestoreError> {
    if !t.is_finite() {
        return Err(RestoreError::InvalidTime(t));
    }
    let num_edges = engine.graph().m();
    match edges.iter().find(|&&e| e as usize >= num_edges) {
        Some(&edge) => Err(RestoreError::EdgeOutOfRange { edge, num_edges }),
        None => Ok(()),
    }
}

impl WalRecord {
    /// Decodes one record payload (inverse of [`encode_payload`]).
    fn decode(payload: &[u8]) -> Result<Self, RestoreError> {
        let mut r = Reader::new(payload);
        let kind = r.u8()?;
        if kind != KIND_BATCH {
            return Err(RestoreError::Codec(format!("unknown or retired record kind {kind}")));
        }
        let t = r.f64()?;
        let edges = read_edges(&mut r)?;
        if !r.is_empty() {
            return Err(RestoreError::Codec(format!(
                "{} trailing bytes in WAL record",
                r.remaining()
            )));
        }
        Ok(WalRecord { t, edges })
    }

    /// Replays this record against an engine — the exact call that was
    /// logged. Public so recovery tests can compare a recovered engine to
    /// an explicit prefix replay. Panics, like the engine call it wraps, on
    /// an edge id or time the engine does not accept.
    pub fn apply(&self, engine: &mut AncEngine) {
        engine.activate_batch(&self.edges, self.t);
    }
}

// ---------------------------------------------------------------------------
// Log-level encode/decode
// ---------------------------------------------------------------------------

fn encode_header(base_activations: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&WAL_MAGIC);
    put_u32(&mut out, WAL_VERSION);
    put_u64(&mut out, base_activations);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Appends one framed payload (`len ∥ crc ∥ payload`) to `out`. A payload
/// over [`MAX_RECORD_LEN`] (or the u32 length field) is refused here on the
/// write side — the old `len as u32` would have silently truncated the
/// frame header and corrupted every record behind it.
fn frame_payload(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), RestoreError> {
    let len =
        u32::try_from(payload.len()).ok().filter(|&l| l as usize <= MAX_RECORD_LEN).ok_or_else(
            || RestoreError::Codec(format!("record length {} exceeds cap", payload.len())),
        )?;
    put_u32(out, len);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
    Ok(())
}

/// Appends one framed record to `out` (encode via `scratch`, then frame).
#[cfg(test)]
fn frame_record(out: &mut Vec<u8>, record: &WalRecord, scratch: &mut Vec<u8>) {
    scratch.clear();
    encode_payload(scratch, record.t, &record.edges);
    frame_payload(out, scratch).expect("test records are far below the length cap");
}

/// Streaming reader over the bytes of a write-ahead log.
///
/// [`WalReader::next`] yields records until the clean end of the log
/// (`Ok(None)`); a torn tail surfaces as [`RestoreError::Truncated`] and
/// damaged bytes as [`RestoreError::ChecksumMismatch`], with
/// [`WalReader::position`] pointing at the start of the offending record —
/// the offset a recovery pass truncates back to. A record whose checksum
/// verifies but whose payload does not decode is
/// [`RestoreError::UndecodableRecord`]: not damage, and not to be truncated.
pub struct WalReader<'a> {
    buf: &'a [u8],
    pos: usize,
    base_activations: u64,
}

impl<'a> WalReader<'a> {
    /// Parses and verifies the log header.
    pub fn new(bytes: &'a [u8]) -> Result<Self, RestoreError> {
        if bytes.len() < 4 {
            return Err(RestoreError::Truncated { offset: bytes.len() });
        }
        if bytes[..4] != WAL_MAGIC {
            return Err(RestoreError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(RestoreError::Truncated { offset: bytes.len() });
        }
        let expected = le_u32(&bytes[16..20]);
        let found = crc32(&bytes[..16]);
        if expected != found {
            return Err(RestoreError::ChecksumMismatch { expected, found });
        }
        let version = le_u32(&bytes[4..8]);
        if version != WAL_VERSION {
            return Err(RestoreError::UnsupportedVersion(version));
        }
        let base_activations = le_u64(&bytes[8..16]);
        Ok(Self { buf: bytes, pos: HEADER_LEN, base_activations })
    }

    /// Engine activation count at the time the log was started — must
    /// match the base snapshot's counter for a replay to be sound.
    pub fn base_activations(&self) -> u64 {
        self.base_activations
    }

    /// Byte offset of the next unread record (header included).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads the next record. `Ok(None)` at the clean end of the log.
    /// (Not an `Iterator`: the fallible signature is the point — callers
    /// must distinguish a clean end from a torn or damaged tail.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<WalRecord>, RestoreError> {
        if self.pos == self.buf.len() {
            return Ok(None);
        }
        let rest = &self.buf[self.pos..];
        if rest.len() < 8 {
            return Err(RestoreError::Truncated { offset: self.pos });
        }
        let len = le_u32(&rest[0..4]) as usize;
        if len > MAX_RECORD_LEN {
            return Err(RestoreError::Codec(format!("record length {len} exceeds cap")));
        }
        let expected = le_u32(&rest[4..8]);
        if rest.len() < 8 + len {
            return Err(RestoreError::Truncated { offset: self.pos });
        }
        let payload = &rest[8..8 + len];
        let found = crc32(payload);
        if expected != found {
            return Err(RestoreError::ChecksumMismatch { expected, found });
        }
        let record = WalRecord::decode(payload).map_err(|e| RestoreError::UndecodableRecord {
            offset: self.pos,
            detail: e.to_string(),
        })?;
        self.pos += 8 + len;
        Ok(Some(record))
    }
}

// ---------------------------------------------------------------------------
// DurableEngine
// ---------------------------------------------------------------------------

/// Durability policy for a [`DurableEngine`].
#[derive(Clone, Copy, Debug)]
pub struct DurabilityOptions {
    /// Compact (fold the log into a fresh snapshot) after this many
    /// records.
    pub compact_every: usize,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self { compact_every: 4096 }
    }
}

/// An [`AncEngine`] wrapped with write-ahead logging and crash recovery.
///
/// Its one mutator, [`DurableEngine::activate_batch`], is the only way to
/// change the engine (which is only exposed immutably), so the on-disk
/// `snapshot.anc` + `wal.anc` pair is always sufficient to reconstruct the
/// exact current state. It validates its input first: an out-of-range edge
/// or a non-finite time returns a typed error with neither the log nor the
/// engine touched. A single activation is a batch of one.
///
/// ```no_run
/// use anc_core::persist::{DurabilityOptions, DurableEngine};
/// use anc_core::{AncConfig, AncEngine};
///
/// let g = anc_graph::gen::barabasi_albert(1000, 4, 7);
/// let engine = AncEngine::new(g, AncConfig::default(), 42);
/// let mut durable =
///     DurableEngine::create(engine, "state_dir", DurabilityOptions::default()).unwrap();
/// durable.activate_batch(&[3], 0.5).unwrap();
/// drop(durable); // crash at any point…
/// let recovered = DurableEngine::open("state_dir", DurabilityOptions::default()).unwrap();
/// assert_eq!(recovered.engine().activations(), 1);
/// ```
pub struct DurableEngine {
    engine: AncEngine,
    dir: PathBuf,
    wal: File,
    wal_records: u64,
    opts: DurabilityOptions,
    /// Pooled framing buffers (record payload + framed bytes).
    payload_buf: Vec<u8>,
    frame_buf: Vec<u8>,
}

/// Base snapshot file name inside a durable directory.
pub const SNAPSHOT_FILE: &str = "snapshot.anc";
/// In-progress snapshot written during compaction, atomically renamed over
/// [`SNAPSHOT_FILE`]; a leftover one marks an interrupted compaction.
pub const SNAPSHOT_TMP: &str = "snapshot.anc.tmp";
/// Append-only activation log file name.
pub const WAL_FILE: &str = "wal.anc";

impl DurableEngine {
    /// Starts durable operation in `dir` (created if missing): writes a
    /// base snapshot of `engine` and an empty log.
    pub fn create(
        engine: AncEngine,
        dir: impl AsRef<Path>,
        opts: DurabilityOptions,
    ) -> Result<Self, RestoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        write_snapshot_atomic(&engine, &dir)?;
        let wal = reset_wal(&dir, engine.activations())?;
        Ok(Self {
            engine,
            dir,
            wal,
            wal_records: 0,
            opts,
            payload_buf: Vec::new(),
            frame_buf: Vec::new(),
        })
    }

    /// Recovers the engine from `dir`: loads the last snapshot and replays
    /// the log suffix. Tolerates every crash window of the write protocol —
    /// a stale `snapshot.anc.tmp`, a log whose base predates the snapshot
    /// (discarded: its records are already folded in), and a torn record
    /// at the log tail (truncated away). Damage *before* the tail — a
    /// failed checksum with further valid records behind it — is
    /// indistinguishable from a torn tail by construction, so recovery
    /// also stops there; the log is truncated to the last verifiable
    /// prefix. A record that verifies but cannot be decoded, or that the
    /// restored engine would reject, was not produced by a tear: `open`
    /// returns the typed error and leaves `wal.anc` as it found it.
    pub fn open(dir: impl AsRef<Path>, opts: DurabilityOptions) -> Result<Self, RestoreError> {
        let dir = dir.as_ref().to_path_buf();
        // A leftover tmp is an interrupted compaction that never renamed;
        // the durable snapshot is still the old complete one. Only a
        // missing tmp is ignorable — a permission or IO failure here would
        // resurface as a corrupt rename target on the next compaction.
        match std::fs::remove_file(dir.join(SNAPSHOT_TMP)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let snapshot_bytes = std::fs::read(dir.join(SNAPSHOT_FILE))?;
        let mut engine = AncEngine::load_binary(snapshot_bytes.as_slice())?;

        let wal_path = dir.join(WAL_FILE);
        let (wal, wal_records) = match std::fs::read(&wal_path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // No log at all (crash between snapshot and first log
                // write): start one.
                (reset_wal(&dir, engine.activations())?, 0)
            }
            Err(e) => return Err(e.into()),
            Ok(bytes) => {
                let mut reader = WalReader::new(bytes.as_slice())?;
                if reader.base_activations() < engine.activations() {
                    // Stale log from an interrupted compaction — every
                    // record is already folded into the snapshot.
                    (reset_wal(&dir, engine.activations())?, 0)
                } else if reader.base_activations() > engine.activations() {
                    return Err(RestoreError::Inconsistent(format!(
                        "log base {} is ahead of snapshot activations {}",
                        reader.base_activations(),
                        engine.activations()
                    )));
                } else {
                    let mut replayed = 0u64;
                    let valid_end = loop {
                        match reader.next() {
                            Ok(Some(record)) => {
                                check_input(&engine, &record.edges, record.t)?;
                                record.apply(&mut engine);
                                replayed += 1;
                            }
                            Ok(None) => break reader.position(),
                            // Torn tail (short frame, failed CRC, or a
                            // length field over the cap — the reader's only
                            // `Codec`): keep the verified prefix only.
                            Err(
                                RestoreError::Truncated { .. }
                                | RestoreError::ChecksumMismatch { .. }
                                | RestoreError::Codec(_),
                            ) => break reader.position(),
                            Err(other) => return Err(other),
                        }
                    };
                    let mut file = OpenOptions::new().read(true).write(true).open(&wal_path)?;
                    file.set_len(valid_end as u64)?;
                    file.seek(SeekFrom::End(0))?;
                    (file, replayed)
                }
            }
        };
        Ok(Self {
            engine,
            dir,
            wal,
            wal_records,
            opts,
            payload_buf: Vec::new(),
            frame_buf: Vec::new(),
        })
    }

    /// The wrapped engine (read-only: mutations must go through the log).
    pub fn engine(&self) -> &AncEngine {
        &self.engine
    }

    /// Records appended since the last compaction.
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// Logged [`AncEngine::activate_batch`].
    pub fn activate_batch(
        &mut self,
        edges: &[EdgeId],
        t: f64,
    ) -> Result<RepairStats, RestoreError> {
        check_input(&self.engine, edges, t)?;
        self.payload_buf.clear();
        encode_payload(&mut self.payload_buf, t, edges);
        self.append_payload()?;
        let stats = self.engine.activate_batch(edges, t);
        self.maybe_compact()?;
        Ok(stats)
    }

    /// Write-ahead: the framed payload in `payload_buf` hits the log before
    /// the engine mutates, so a crash mid-apply replays the record on
    /// recovery instead of losing it.
    fn append_payload(&mut self) -> Result<(), RestoreError> {
        self.frame_buf.clear();
        frame_payload(&mut self.frame_buf, &self.payload_buf)?;
        self.wal.write_all(&self.frame_buf)?;
        self.wal_records += 1;
        Ok(())
    }

    fn maybe_compact(&mut self) -> Result<(), RestoreError> {
        if self.wal_records >= self.opts.compact_every as u64 {
            self.compact()?;
        }
        Ok(())
    }

    /// Folds the log into a fresh base snapshot: snapshot first (tmp +
    /// atomic rename), then restart the log. A crash between the two
    /// leaves a log whose base predates the new snapshot — [`Self::open`]
    /// detects and discards it.
    pub fn compact(&mut self) -> Result<(), RestoreError> {
        write_snapshot_atomic(&self.engine, &self.dir)?;
        self.wal = reset_wal(&self.dir, self.engine.activations())?;
        self.wal_records = 0;
        Ok(())
    }
}

fn write_snapshot_atomic(engine: &AncEngine, dir: &Path) -> Result<(), RestoreError> {
    let tmp = dir.join(SNAPSHOT_TMP);
    let mut f = File::create(&tmp)?;
    engine.save_binary(&mut f, SnapshotProfile::Exact)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    Ok(())
}

fn reset_wal(dir: &Path, base_activations: u64) -> Result<File, RestoreError> {
    let mut f = File::create(dir.join(WAL_FILE))?;
    f.write_all(&encode_header(base_activations))?;
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::binary::exact_bytes;
    use crate::AncConfig;
    use anc_graph::gen::connected_caveman;

    fn fresh_engine() -> AncEngine {
        let lg = connected_caveman(3, 5);
        let cfg = AncConfig { rep: 1, k: 2, ..Default::default() };
        AncEngine::new(lg.graph, cfg, 9)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("anc_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_roundtrip() {
        let records = [
            WalRecord { t: 1.25, edges: vec![7] },
            WalRecord { t: 2.0, edges: vec![0, 3, 3, 9] },
            WalRecord { t: 2.0, edges: vec![] },
        ];
        let mut log = encode_header(0);
        let mut scratch = Vec::new();
        for r in &records {
            frame_record(&mut log, r, &mut scratch);
        }
        let mut reader = WalReader::new(&log).unwrap();
        for want in &records {
            assert_eq!(reader.next().unwrap().as_ref(), Some(want));
        }
        assert_eq!(reader.next().unwrap(), None);
    }

    #[test]
    fn recovery_replays_everything() {
        let dir = tmp_dir("replay");
        let mut durable =
            DurableEngine::create(fresh_engine(), &dir, DurabilityOptions::default()).unwrap();
        let m = durable.engine().graph().m() as u32;
        for i in 0..25u32 {
            durable.activate_batch(&[(i * 7 + 2) % m], i as f64 * 0.4).unwrap();
        }
        durable.activate_batch(&[1, 3, 1], 11.0).unwrap();
        let want = exact_bytes(durable.engine());
        drop(durable); // "crash": nothing beyond the appends is persisted

        let recovered = DurableEngine::open(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(exact_bytes(recovered.engine()), want, "recovery must be bit-identical");
        recovered.engine().check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_log_and_recovery_still_works() {
        let dir = tmp_dir("compact");
        let opts = DurabilityOptions { compact_every: 8 };
        let mut durable = DurableEngine::create(fresh_engine(), &dir, opts).unwrap();
        let m = durable.engine().graph().m() as u32;
        for i in 0..30u32 {
            durable.activate_batch(&[(i * 5 + 1) % m], i as f64 * 0.3).unwrap();
        }
        assert!(durable.wal_records() < 30, "compaction must have reset the log");
        let want = exact_bytes(durable.engine());
        drop(durable);

        let recovered = DurableEngine::open(&dir, opts).unwrap();
        assert_eq!(exact_bytes(recovered.engine()), want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = tmp_dir("torn");
        let mut durable =
            DurableEngine::create(fresh_engine(), &dir, DurabilityOptions::default()).unwrap();
        let m = durable.engine().graph().m() as u32;
        for i in 0..10u32 {
            durable.activate_batch(&[(i * 7 + 2) % m], i as f64 * 0.4).unwrap();
        }
        drop(durable);
        // Tear the last record: chop 3 bytes off the log.
        let wal_path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        // Reference: replay only the 9 intact records.
        let mut reference = fresh_engine();
        for i in 0..9u32 {
            reference.activate((i * 7 + 2) % m, i as f64 * 0.4);
        }
        let recovered = DurableEngine::open(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(exact_bytes(recovered.engine()), exact_bytes(&reference));
        // The torn bytes are gone from disk too.
        assert!(std::fs::metadata(&wal_path).unwrap().len() < len - 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A record that passes its CRC but cannot be decoded (retired kinds 1,
    /// 3, 4 and 5, unknown kind 9), or that decodes to a call the engine
    /// would panic on (`e = m`), is skew, not a tear: `open` must refuse with
    /// the typed error and leave every byte of the log — including the valid
    /// records behind the bad one — in place.
    #[test]
    fn verified_records_that_cannot_be_replayed_are_refused_not_truncated() {
        let m = fresh_engine().graph().m() as u32;
        // Each retired kind as older builds wrote it.
        let mut single = vec![1u8]; // kind 1: t = 2.0, edge 1
        put_f64(&mut single, 2.0);
        put_uvarint(&mut single, 1);
        let mut adaptive = vec![3u8]; // kind 3: t = 2.0, no threshold, edges [1]
        put_f64(&mut adaptive, 2.0);
        put_u8(&mut adaptive, 0);
        put_edges(&mut adaptive, &[1]);
        let mut reinforce = vec![4u8]; // kind 4: edges [0, 2]
        put_edges(&mut reinforce, &[0, 2]);
        let mut out_of_range = Vec::new();
        encode_payload(&mut out_of_range, 2.0, &[1, m]);
        // (tag, payload, the kind named by `UndecodableRecord` — `None` for
        // the record that decodes but is out of range).
        let cases = [
            ("single", single, Some("kind 1")),
            ("adaptive", adaptive, Some("kind 3")),
            ("reinforce", reinforce, Some("kind 4")),
            ("rescale", vec![5u8], Some("kind 5")),
            ("unknown", vec![9u8], Some("kind 9")),
            ("range", out_of_range, None),
        ];
        for (tag, payload, undecodable_kind) in cases {
            let dir = tmp_dir(tag);
            drop(
                DurableEngine::create(fresh_engine(), &dir, DurabilityOptions::default()).unwrap(),
            );
            let mut log = encode_header(0);
            let mut scratch = Vec::new();
            frame_record(&mut log, &WalRecord { t: 1.0, edges: vec![1] }, &mut scratch);
            let bad_at = log.len();
            frame_payload(&mut log, &payload).unwrap();
            frame_record(&mut log, &WalRecord { t: 3.0, edges: vec![2] }, &mut scratch);
            std::fs::write(dir.join(WAL_FILE), &log).unwrap();

            let err = DurableEngine::open(&dir, DurabilityOptions::default())
                .err()
                .unwrap_or_else(|| panic!("{tag}: open must refuse the log"));
            match (&err, undecodable_kind) {
                (RestoreError::UndecodableRecord { offset, detail }, Some(kind)) => {
                    assert_eq!(*offset, bad_at, "{tag}");
                    assert!(detail.contains(kind), "{tag}: {detail}");
                }
                (RestoreError::EdgeOutOfRange { edge, num_edges }, None) => {
                    assert_eq!((*edge, *num_edges), (m, m as usize), "{tag}");
                }
                _ => panic!("{tag}: unexpected error {err}"),
            }
            assert_eq!(std::fs::read(dir.join(WAL_FILE)).unwrap(), log, "{tag}: log was modified");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Input the engine would panic on is rejected *before* it is logged:
    /// the call returns the typed error, and neither the log nor the engine
    /// moves — so no later `open` replays a poisoned record.
    #[test]
    fn invalid_input_is_rejected_before_it_is_logged() {
        let dir = tmp_dir("validate");
        let mut durable =
            DurableEngine::create(fresh_engine(), &dir, DurabilityOptions::default()).unwrap();
        let m = durable.engine().graph().m() as u32;
        durable.activate_batch(&[1], 1.0).unwrap();
        let wal_len = || std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let (len, state) = (wal_len(), exact_bytes(durable.engine()));

        let err = durable.activate_batch(&[1, m + 5], 2.0).unwrap_err();
        assert!(matches!(err, RestoreError::EdgeOutOfRange { edge, .. } if edge == m + 5), "{err}");
        let err = durable.activate_batch(&[0], f64::NAN).unwrap_err();
        assert!(matches!(err, RestoreError::InvalidTime(t) if t.is_nan()), "{err}");
        let err = durable.activate_batch(&[m], 3.0).unwrap_err();
        assert!(matches!(err, RestoreError::EdgeOutOfRange { edge, .. } if edge == m), "{err}");

        assert_eq!(wal_len(), len, "a rejected call must not reach the log");
        assert_eq!(durable.wal_records(), 1);
        assert_eq!(exact_bytes(durable.engine()), state);
        drop(durable);
        let recovered = DurableEngine::open(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(exact_bytes(recovered.engine()), state);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_log_from_interrupted_compaction_is_discarded() {
        let dir = tmp_dir("stale");
        let mut durable =
            DurableEngine::create(fresh_engine(), &dir, DurabilityOptions::default()).unwrap();
        let m = durable.engine().graph().m() as u32;
        for i in 0..12u32 {
            durable.activate_batch(&[(i * 7 + 2) % m], i as f64 * 0.4).unwrap();
        }
        let want = exact_bytes(durable.engine());
        // Simulate a crash *between* compaction's snapshot rename and its
        // log reset: new snapshot on disk, old log untouched.
        write_snapshot_atomic(&durable.engine, &dir).unwrap();
        drop(durable);

        let recovered = DurableEngine::open(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(exact_bytes(recovered.engine()), want, "stale records must not double-apply");
        assert_eq!(recovered.wal_records(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_corruption_is_typed() {
        let log = encode_header(5);
        // Bad magic.
        let mut bad = log.clone();
        bad[0] = b'X';
        assert!(matches!(WalReader::new(&bad), Err(RestoreError::BadMagic)));
        // Bad header checksum.
        let mut bad = log.clone();
        bad[9] ^= 1;
        assert!(matches!(WalReader::new(&bad), Err(RestoreError::ChecksumMismatch { .. })));
        // Truncated header.
        assert!(matches!(WalReader::new(&log[..10]), Err(RestoreError::Truncated { .. })));
        // Unsupported version (re-stamp the crc so only the version trips).
        let mut bad = log;
        bad[4..8].copy_from_slice(&9u32.to_le_bytes());
        let crc = crc32(&bad[..16]);
        bad[16..20].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(WalReader::new(&bad), Err(RestoreError::UnsupportedVersion(9))));
    }

    #[test]
    fn record_corruption_is_typed() {
        let mut log = encode_header(0);
        let mut scratch = Vec::new();
        frame_record(&mut log, &WalRecord { t: 2.0, edges: vec![1] }, &mut scratch);
        let payload_at = HEADER_LEN + 8;
        let mut bad = log.clone();
        bad[payload_at] ^= 0xFF;
        let mut reader = WalReader::new(&bad).unwrap();
        assert!(matches!(reader.next(), Err(RestoreError::ChecksumMismatch { .. })));
        // Truncation mid-record.
        let mut reader = WalReader::new(&log[..log.len() - 2]).unwrap();
        assert!(matches!(reader.next(), Err(RestoreError::Truncated { .. })));
    }
}
