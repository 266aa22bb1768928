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
//!           ∥ record*        where record = u32 len ∥ payload ∥ u32 crc(payload)
//! ```
//!
//! A record is the codec's frame ([`push_frame`]/[`parse_frame`]), the one
//! an `Ingest` request travels in on the wire, and its payload is the batch
//! of [`WalRecord::encode`], `f64 t ∥ uvarint count ∥ uvarint edge*`. It
//! passes [`WalRecord::check`] *before* it is appended, so the log never
//! holds a call the engine would panic on. Rescales are *not* logged: replay
//! reproduces them from the state and the inputs.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use anc_graph::codec::{
    parse_frame, push_frame, put_f64, put_u64, put_uvarint, BadFrame, CodecError, Frame, Reader,
};
use anc_graph::EdgeId;

use crate::engine::AncEngine;
use crate::pyramid::RepairStats;

use super::binary::SnapshotProfile;
use super::{le_u64, seal, unseal, RestoreError};

/// Magic bytes opening every write-ahead log.
pub const WAL_MAGIC: [u8; 4] = *b"ANCW";

/// Write-ahead log format version.
pub const WAL_VERSION: u32 = 3;

const HEADER_LEN: usize = 4 + 4 + 8 + 4; // magic + version + base + crc

/// Largest record payload, refused on write before a byte reaches the log
/// and on read (a torn length field must not trigger a huge allocation).
const MAX_RECORD_LEN: u32 = 1 << 30;

/// One activation batch, the edges activated at one time: the inputs of
/// [`AncEngine::activate_batch`]`(&edges, t)`, a log record's payload and an
/// `Ingest` request's fields, with the tree's one check, encoder and decoder.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// Arrival time of the whole batch.
    pub t: f64,
    /// Activated edges, in batch order.
    pub edges: Vec<EdgeId>,
}

/// A batch the engine would panic on, refused by [`WalRecord::check`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BadActivation {
    /// An edge id at or past the network's edge count.
    EdgeOutOfRange {
        /// The offending edge id.
        edge: EdgeId,
        /// The network's edge count.
        num_edges: usize,
    },
    /// A non-finite time (the decay clock requires finite time).
    NonFiniteTime(f64),
}

impl std::fmt::Display for BadActivation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BadActivation::EdgeOutOfRange { edge, num_edges } => {
                write!(f, "edge id {edge} out of range (network has {num_edges} edges)")
            }
            BadActivation::NonFiniteTime(t) => write!(f, "activation time {t} is not finite"),
        }
    }
}

impl std::error::Error for BadActivation {}

impl WalRecord {
    /// [`AncEngine::activate_batch`]'s precondition on a network of
    /// `num_edges` edges: a finite time, then every edge id below
    /// `num_edges`. Any finite time is accepted: a time before the engine's
    /// counts at its own time and leaves the clock where it is, and however
    /// far a time jumps ahead, the similarity store does not decay with it
    /// (DESIGN.md §4).
    pub fn check(num_edges: usize, edges: &[EdgeId], t: f64) -> Result<(), BadActivation> {
        if !t.is_finite() {
            return Err(BadActivation::NonFiniteTime(t));
        }
        match edges.iter().find(|&&e| e as usize >= num_edges) {
            Some(&edge) => Err(BadActivation::EdgeOutOfRange { edge, num_edges }),
            None => Ok(()),
        }
    }

    /// Appends `f64 t ∥ uvarint count ∥ uvarint edge*`, from borrowed parts so
    /// [`DurableEngine`] logs straight from the caller's slice.
    pub fn encode(out: &mut Vec<u8>, t: f64, edges: &[EdgeId]) {
        put_f64(out, t);
        put_uvarint(out, edges.len() as u64);
        for &e in edges {
            put_uvarint(out, u64::from(e));
        }
    }

    /// Decodes exactly one [`Self::encode`]d batch, or a typed error (each
    /// edge takes a byte, so a count above the bytes left is refused).
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let t = r.f64()?;
        let len = r.uvarint_len()?;
        if len > r.remaining() {
            return Err(CodecError::Invalid {
                what: format!("edge count {len} exceeds the {} bytes left", r.remaining()),
            });
        }
        let mut edges = Vec::with_capacity(len);
        for _ in 0..len {
            let e = r.uvarint()?;
            let e = u32::try_from(e)
                .map_err(|_| CodecError::Invalid { what: format!("edge id {e} exceeds u32") })?;
            edges.push(e);
        }
        if !r.is_empty() {
            return Err(CodecError::Invalid {
                what: format!("{} trailing bytes after activation batch", r.remaining()),
            });
        }
        Ok(WalRecord { t, edges })
    }

    /// Replays this record against an engine — the exact call that was
    /// logged. Panics on a record that fails [`Self::check`].
    pub fn apply(&self, engine: &mut AncEngine) {
        engine.activate_batch(&self.edges, self.t);
    }
}

// ---------------------------------------------------------------------------
// Log-level encode/decode
// ---------------------------------------------------------------------------

fn encode_header(base_activations: u64) -> Vec<u8> {
    seal(WAL_MAGIC, WAL_VERSION, |out| put_u64(out, base_activations))
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
        let header = &bytes[..bytes.len().min(HEADER_LEN)];
        let base_activations = le_u64(unseal(header, WAL_MAGIC, WAL_VERSION, 8)?);
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
        let payload = match parse_frame(&self.buf[self.pos..], MAX_RECORD_LEN) {
            Ok(Frame::Whole(payload)) => payload,
            Ok(Frame::Partial(_)) => return Err(RestoreError::Truncated { offset: self.pos }),
            Err(BadFrame::TooLarge(len)) => {
                return Err(RestoreError::Codec(format!("record length {len} exceeds cap")))
            }
            Err(BadFrame::Checksum { expected, found }) => {
                return Err(RestoreError::ChecksumMismatch { expected, found })
            }
        };
        let record = WalRecord::decode(payload).map_err(|e| RestoreError::UndecodableRecord {
            offset: self.pos,
            detail: RestoreError::from(e).to_string(),
        })?;
        self.pos += payload.len() + 8;
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
/// exact current state. A batch that fails [`WalRecord::check`] returns a
/// typed error with neither the log nor the engine touched.
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
    /// Pooled buffer the next record is framed in.
    record_buf: Vec<u8>,
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
        Ok(Self { engine, dir, wal, wal_records: 0, opts, record_buf: Vec::new() })
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
                                WalRecord::check(engine.graph().m(), &record.edges, record.t)?;
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
        Ok(Self { engine, dir, wal, wal_records, opts, record_buf: Vec::new() })
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
        WalRecord::check(self.engine.graph().m(), edges, t)?;
        // Write-ahead: the record hits the log before the engine mutates, so
        // a crash mid-apply replays it on recovery instead of losing it. An
        // over-cap record is refused before a byte is written: recovery
        // would take it for a torn tail.
        self.record_buf.clear();
        let len = push_frame(&mut self.record_buf, |out| WalRecord::encode(out, t, edges));
        if len > MAX_RECORD_LEN as usize {
            return Err(RestoreError::Codec(format!("record length {len} exceeds cap")));
        }
        self.wal.write_all(&self.record_buf)?;
        self.wal_records += 1;
        let stats = self.engine.activate_batch(edges, t);
        self.maybe_compact()?;
        Ok(stats)
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
    use crate::AncConfig;
    use anc_graph::codec::crc32;
    use anc_graph::gen::connected_caveman;

    fn fresh_engine() -> AncEngine {
        let lg = connected_caveman(3, 5);
        let cfg = AncConfig { rep: 1, k: 2, ..Default::default() };
        AncEngine::new(lg.graph, cfg, 9)
    }

    /// Appends `record` to `log`, framed as [`DurableEngine`] appends it.
    fn frame_record(log: &mut Vec<u8>, record: &WalRecord) {
        push_frame(log, |out| WalRecord::encode(out, record.t, &record.edges));
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
        for r in &records {
            frame_record(&mut log, r);
        }
        let mut reader = WalReader::new(&log).unwrap();
        for want in &records {
            assert_eq!(reader.next().unwrap().as_ref(), Some(want));
        }
        assert_eq!(reader.next().unwrap(), None);
    }

    /// The activation batch's decoder refuses, typed, every payload that is
    /// not exactly one batch: the time cut short, a trailing byte, an edge
    /// count above the bytes left, and an edge id above `u32::MAX`.
    #[test]
    fn batch_decode_refuses_all_but_one_whole_batch() {
        let mut valid = Vec::new();
        WalRecord::encode(&mut valid, 2.0, &[1, 300_000]);
        assert_eq!(
            WalRecord::decode(&valid).unwrap(),
            WalRecord { t: 2.0, edges: vec![1, 300_000] }
        );
        let mut trailing = valid.clone();
        trailing.push(0);
        let mut lying_count = Vec::new(); // 5 edges announced, 1 present
        put_f64(&mut lying_count, 2.0);
        put_uvarint(&mut lying_count, 5);
        put_uvarint(&mut lying_count, 1);
        let mut wide_id = Vec::new();
        put_f64(&mut wide_id, 2.0);
        put_uvarint(&mut wide_id, 1);
        put_uvarint(&mut wide_id, u64::from(u32::MAX) + 1);
        let cases = [
            (&valid[..5], "unexpected end"),
            (&trailing[..], "1 trailing bytes"),
            (&lying_count[..], "edge count 5 exceeds the 1 bytes left"),
            (&wide_id[..], "edge id 4294967296 exceeds u32"),
        ];
        for (bytes, want) in cases {
            let err = WalRecord::decode(bytes).unwrap_err().to_string();
            assert!(err.contains(want), "{want}: {err}");
        }
        for cut in 0..valid.len() {
            assert!(WalRecord::decode(&valid[..cut]).is_err(), "batch cut to {cut} bytes decoded");
        }
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
        let want = durable.engine().state_bytes_for_test();
        drop(durable); // "crash": nothing beyond the appends is persisted

        let recovered = DurableEngine::open(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(
            recovered.engine().state_bytes_for_test(),
            want,
            "recovery must be bit-identical"
        );
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
        let want = durable.engine().state_bytes_for_test();
        drop(durable);

        let recovered = DurableEngine::open(&dir, opts).unwrap();
        assert_eq!(recovered.engine().state_bytes_for_test(), want);
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
        assert_eq!(recovered.engine().state_bytes_for_test(), reference.state_bytes_for_test());
        // The torn bytes are gone from disk too.
        assert!(std::fs::metadata(&wal_path).unwrap().len() < len - 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A record that passes its CRC but cannot be decoded (cut inside its
    /// time, a trailing byte, an edge count the payload cannot hold), or
    /// that decodes to a call the engine would panic on (`e = m`), is skew,
    /// not a tear: `open` must refuse with the typed error and leave every
    /// byte of the log — including the valid records behind the bad one —
    /// in place.
    #[test]
    fn verified_records_that_cannot_be_replayed_are_refused_not_truncated() {
        let m = fresh_engine().graph().m() as u32;
        let mut valid = Vec::new();
        WalRecord::encode(&mut valid, 2.0, &[1]);
        let cut_time = valid[..5].to_vec();
        let mut trailing = valid.clone();
        trailing.push(0);
        let mut lying_count = Vec::new(); // 5 edges announced, 1 present
        put_f64(&mut lying_count, 2.0);
        put_uvarint(&mut lying_count, 5);
        put_uvarint(&mut lying_count, 1);
        let mut out_of_range = Vec::new();
        WalRecord::encode(&mut out_of_range, 2.0, &[1, m]);
        // (tag, payload, what `UndecodableRecord` names — `None` for the
        // record that decodes but is out of range).
        let cases = [
            ("cut", cut_time, Some("truncated")),
            ("trailing", trailing, Some("trailing bytes")),
            ("count", lying_count, Some("edge count 5")),
            ("range", out_of_range, None),
        ];
        for (tag, payload, undecodable) in cases {
            let dir = tmp_dir(tag);
            drop(
                DurableEngine::create(fresh_engine(), &dir, DurabilityOptions::default()).unwrap(),
            );
            let mut log = encode_header(0);
            frame_record(&mut log, &WalRecord { t: 1.0, edges: vec![1] });
            let bad_at = log.len();
            push_frame(&mut log, |out| out.extend_from_slice(&payload));
            frame_record(&mut log, &WalRecord { t: 3.0, edges: vec![2] });
            std::fs::write(dir.join(WAL_FILE), &log).unwrap();

            let err = DurableEngine::open(&dir, DurabilityOptions::default())
                .err()
                .unwrap_or_else(|| panic!("{tag}: open must refuse the log"));
            match (&err, undecodable) {
                (RestoreError::UndecodableRecord { offset, detail }, Some(what)) => {
                    assert_eq!(*offset, bad_at, "{tag}");
                    assert!(detail.contains(what), "{tag}: {detail}");
                }
                (
                    RestoreError::BadActivation(BadActivation::EdgeOutOfRange { edge, num_edges }),
                    None,
                ) => {
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
        let (len, state) = (wal_len(), durable.engine().state_bytes_for_test());

        let bad = |err| match err {
            RestoreError::BadActivation(bad) => bad,
            other => panic!("expected BadActivation, got {other}"),
        };
        let err = bad(durable.activate_batch(&[1, m + 5], 2.0).unwrap_err());
        assert!(
            matches!(err, BadActivation::EdgeOutOfRange { edge, .. } if edge == m + 5),
            "{err}"
        );
        let err = bad(durable.activate_batch(&[0], f64::NAN).unwrap_err());
        assert!(matches!(err, BadActivation::NonFiniteTime(t) if t.is_nan()), "{err}");
        let err = bad(durable.activate_batch(&[m], 3.0).unwrap_err());
        assert!(matches!(err, BadActivation::EdgeOutOfRange { edge, .. } if edge == m), "{err}");

        assert_eq!(wal_len(), len, "a rejected call must not reach the log");
        assert_eq!(durable.wal_records(), 1);
        assert_eq!(durable.engine().state_bytes_for_test(), state);
        drop(durable);
        let recovered = DurableEngine::open(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(recovered.engine().state_bytes_for_test(), state);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A compaction whose state no load would accept (one similarity of 0,
    /// tampered in: the floor keeps every stream above it) fails typed
    /// before its rename, and the directory still opens to the logged state.
    #[test]
    fn a_failed_compaction_leaves_the_directory_openable() {
        let dir = tmp_dir("unsaveable");
        let mut durable =
            DurableEngine::create(fresh_engine(), &dir, DurabilityOptions::default()).unwrap();
        durable.activate_batch(&[1], 1.0).unwrap();
        let want = durable.engine().state_bytes_for_test();
        let mut tampered = durable.engine().to_snapshot();
        tampered.sim[0] = 0.0;
        durable.engine = AncEngine::from_state(tampered);
        let err = durable.compact().unwrap_err();
        assert!(matches!(err, RestoreError::Invariant(_)), "{err}");
        drop(durable);
        let reopened = DurableEngine::open(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(reopened.engine().state_bytes_for_test(), want);
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
        let want = durable.engine().state_bytes_for_test();
        // Simulate a crash *between* compaction's snapshot rename and its
        // log reset: new snapshot on disk, old log untouched.
        write_snapshot_atomic(&durable.engine, &dir).unwrap();
        drop(durable);

        let recovered = DurableEngine::open(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(
            recovered.engine().state_bytes_for_test(),
            want,
            "stale records must not double-apply"
        );
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
        // Version 1 framed the same records with a kind byte ahead of the
        // time, and version 2 put each record's checksum ahead of its
        // payload; both are refused, not migrated.
        for version in [1, 2] {
            bad[4..8].copy_from_slice(&u32::to_le_bytes(version));
            let crc = crc32(&bad[..16]);
            bad[16..20].copy_from_slice(&crc.to_le_bytes());
            assert!(matches!(
                WalReader::new(&bad),
                Err(RestoreError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn record_corruption_is_typed() {
        let mut log = encode_header(0);
        frame_record(&mut log, &WalRecord { t: 2.0, edges: vec![1] });
        let payload_at = HEADER_LEN + 4;
        let mut bad = log.clone();
        bad[payload_at] ^= 0xFF;
        let mut reader = WalReader::new(&bad).unwrap();
        assert!(matches!(reader.next(), Err(RestoreError::ChecksumMismatch { .. })));
        // Truncation mid-record.
        let mut reader = WalReader::new(&log[..log.len() - 2]).unwrap();
        assert!(matches!(reader.next(), Err(RestoreError::Truncated { .. })));
    }
}
