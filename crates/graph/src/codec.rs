//! Compact binary codec primitives shared by the persistence layer and the
//! wire protocol.
//!
//! Everything here is hand-rolled (the workspace is offline): LEB128
//! varints, raw little-endian IEEE-754 floats, a
//! table-driven CRC-32 sliced by 16 (IEEE/ISO-HDLC polynomial, the same one
//! zlib and PNG use), the checksummed frame `u32 len ∥ payload ∥ u32 crc`
//! ([`push_frame`]/[`parse_frame`]) that carries every wire message and
//! every write-ahead-log record, and a bounds-checked [`Reader`] over a byte
//! slice. The snapshot and WAL formats in `anc-core::persist` and the
//! messages of `anc-server::wire` are built entirely from these primitives,
//! plus [`encode_graph`]/[`decode_graph`] which delta-encode the CSR
//! topology from the canonical sorted edge list.
//!
//! Encoders append to a `Vec<u8>`; decoders read from a [`Reader`] and
//! return a typed [`CodecError`] on malformed input — no panics on any
//! byte sequence.

#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::{Graph, GraphBuilder, NodeId};

/// Typed decode failure. Carried upward into
/// `anc_core::persist::RestoreError::Codec`-style variants by callers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value being decoded was complete.
    UnexpectedEof {
        /// Byte offset at which more input was required.
        offset: usize,
    },
    /// A varint ran past 10 bytes or overflowed the target width.
    VarintOverflow {
        /// Byte offset at which decoding of the varint began.
        offset: usize,
    },
    /// A decoded value was structurally invalid for its context.
    Invalid {
        /// Human-readable description of the violated constraint.
        what: String,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of input at byte {offset}")
            }
            CodecError::VarintOverflow { offset } => {
                write!(f, "varint overflow at byte {offset}")
            }
            CodecError::Invalid { what } => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected), sliced by 16, tables generated
// at compile time
// ---------------------------------------------------------------------------

/// `T[0]` is the bytewise table; `T[k][i]` is the CRC contribution of byte
/// `i` followed by `k` zero bytes, so 16 bytes fold with 16 independent
/// lookups instead of 16 dependent ones.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0u32;
    while i < 256 {
        let mut c = i;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i as usize] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

const CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE) of `data`. Matches zlib's `crc32(0, data)`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        // The running CRC folds into the block's first four bytes; byte `j`
        // then stands `15 - j` bytes ahead of the block's end.
        let mut b = [0u8; 16];
        b.copy_from_slice(block);
        for (x, y) in b.iter_mut().zip(c.to_le_bytes()) {
            *x ^= y;
        }
        c = (0..16).fold(0, |acc, j| acc ^ t[15 - j][usize::from(b[j])]);
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Frames: `u32 len ∥ payload ∥ u32 crc32(payload)`
// ---------------------------------------------------------------------------

/// Appends one frame to `out`, its payload written in place by `encode`:
/// the length is back-patched and the checksum appended, so a payload goes
/// from its encoder to the output buffer without an intermediate copy.
/// Returns the payload's length. A payload past `u32` stores a saturated
/// length, which every [`parse_frame`] bound refuses instead of misreading
/// a wrapped one.
pub fn push_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(out);
    let body = at + 4;
    let len = out.len() - body;
    out[at..body].copy_from_slice(&u32::try_from(len).unwrap_or(u32::MAX).to_le_bytes());
    let crc = crc32(&out[body..]);
    put_u32(out, crc);
    len
}

/// What [`parse_frame`] found at the head of its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A whole frame whose checksum verified: its payload.
    Whole(&'a [u8]),
    /// The frame is not all in: it is this many bytes long, prefix and
    /// checksum included (4 while the prefix itself is incomplete).
    Partial(usize),
}

/// A frame [`parse_frame`] refuses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BadFrame {
    /// The length prefix exceeds the caller's bound.
    TooLarge(u32),
    /// The checksum after the payload is not the payload's.
    Checksum {
        /// Checksum stored in the frame.
        expected: u32,
        /// Checksum of the payload as read.
        found: u32,
    },
}

/// Parses the frame at the head of `bytes`, leaving any bytes past it
/// alone. The length prefix is checked against `max_len` as soon as its 4
/// bytes are in, so a hostile one is refused before anything is sized from
/// it; the checksum is checked once the whole frame is in.
#[inline]
pub fn parse_frame(bytes: &[u8], max_len: u32) -> Result<Frame<'_>, BadFrame> {
    let Some((prefix, rest)) = bytes.split_first_chunk::<4>() else {
        return Ok(Frame::Partial(4));
    };
    let len = u32::from_le_bytes(*prefix);
    if len > max_len {
        return Err(BadFrame::TooLarge(len));
    }
    let Some((payload, crc)) = rest.get(..len as usize + 4).and_then(<[u8]>::split_last_chunk)
    else {
        return Ok(Frame::Partial(len as usize + 8));
    };
    let (expected, found) = (u32::from_le_bytes(*crc), crc32(payload));
    if expected != found {
        return Err(BadFrame::Checksum { expected, found });
    }
    Ok(Frame::Whole(payload))
}

// ---------------------------------------------------------------------------
// Encoders (append to Vec<u8>)
// ---------------------------------------------------------------------------

/// Appends one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a fixed-width little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a fixed-width little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an LEB128 varint (1–10 bytes, small values small).
#[inline]
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    // Each group is masked to its low 7 bits before the cast, so the cast
    // never drops a set bit (after the loop `v < 0x80` and the mask is a no-op).
    while v >= 0x80 {
        out.push((v & 0x7F) as u8 | 0x80);
        v >>= 7;
    }
    out.push((v & 0x7F) as u8);
}

/// Appends an `f64` as its raw IEEE-754 bits, little-endian. Exact: the
/// round-trip is bit-identical, including NaN payloads and signed zeros.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over a byte slice; every read either advances or
/// returns a typed [`CodecError`].
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current byte offset.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor is at the end of the input.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { offset: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a fixed-width little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a fixed-width little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an LEB128 varint.
    pub fn uvarint(&mut self) -> Result<u64, CodecError> {
        let start = self.pos;
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8().map_err(|_| CodecError::UnexpectedEof { offset: start })?;
            if shift == 63 && b > 1 {
                return Err(CodecError::VarintOverflow { offset: start });
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::VarintOverflow { offset: start });
            }
        }
    }

    /// Reads a varint expected to fit in `usize`.
    pub fn uvarint_len(&mut self) -> Result<usize, CodecError> {
        let start = self.pos;
        let v = self.uvarint()?;
        usize::try_from(v).map_err(|_| CodecError::VarintOverflow { offset: start })
    }

    /// Reads a raw-bits little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

// ---------------------------------------------------------------------------
// Graph topology codec
// ---------------------------------------------------------------------------

/// Appends the graph topology, delta-encoded.
///
/// Layout: `uvarint n`, `uvarint m`, then per edge in canonical order
/// (edge id order, which is lexicographic `(u, v)` with `u < v`):
/// `uvarint Δu` (gap from the previous edge's `u`), then `uvarint v-u-1`
/// when `u` advanced else `uvarint Δv-1` (gap from the previous `v`; `v`
/// is strictly increasing within a `u` run). Neighbor gaps on scale-free
/// and community graphs are small, so most edges cost 2–3 bytes against
/// the 16 the raw endpoint pair would take.
pub fn encode_graph(g: &Graph, out: &mut Vec<u8>) {
    put_uvarint(out, g.n() as u64);
    put_uvarint(out, g.m() as u64);
    let mut prev_u: u64 = 0;
    let mut prev_v: u64 = 0;
    for (_, u, v) in g.iter_edges() {
        let (u, v) = (u as u64, v as u64);
        let du = u - prev_u;
        put_uvarint(out, du);
        if du > 0 {
            put_uvarint(out, v - u - 1);
        } else {
            put_uvarint(out, v - prev_v - 1);
        }
        prev_u = u;
        prev_v = v;
    }
}

/// Decodes a graph written by [`encode_graph`].
///
/// The edge list is reconstructed in canonical order and rebuilt through
/// [`GraphBuilder`], so the resulting CSR arrays are identical to the
/// original's (edge ids are positions in the sorted, deduplicated edge
/// list — an invariant of the builder).
///
/// Both counts are bounded before anything is sized from them: `n` by
/// `max_nodes`, the most the caller's format can hold in what follows, and
/// `m` by half the bytes left, since every edge takes at least two.
pub fn decode_graph(r: &mut Reader<'_>, max_nodes: usize) -> Result<Graph, CodecError> {
    let n = r.uvarint_len()?;
    let m = r.uvarint_len()?;
    if n > NodeId::MAX as usize {
        return Err(CodecError::Invalid { what: format!("node count {n} exceeds NodeId range") });
    }
    if m > r.remaining() / 2 {
        return Err(CodecError::Invalid {
            what: format!("edge count {m} exceeds the {} bytes left", r.remaining()),
        });
    }
    if n > max_nodes {
        return Err(CodecError::Invalid {
            what: format!("node count {n} exceeds the {max_nodes} the input can hold"),
        });
    }
    let mut b = GraphBuilder::with_capacity(n, m);
    let mut prev_u: u64 = 0;
    let mut prev_v: u64 = 0;
    for e in 0..m {
        let bad_edge =
            || CodecError::Invalid { what: format!("edge {e}: endpoint out of range for n = {n}") };
        // Gaps come from the file: a sum that leaves `u64`, or an endpoint
        // that leaves `NodeId`, is a forged edge, not a wrap or a truncation.
        let du = r.uvarint()?;
        let gap = r.uvarint()?;
        let u = prev_u.checked_add(du).ok_or_else(bad_edge)?;
        let base = if du > 0 { u } else { prev_v };
        let v = base.checked_add(1).and_then(|x| x.checked_add(gap)).ok_or_else(bad_edge)?;
        match (NodeId::try_from(u), NodeId::try_from(v)) {
            (Ok(u), Ok(v)) if (v as usize) < n => b.add_edge(u, v),
            _ => return Err(bad_edge()),
        }
        prev_u = u;
        prev_v = v;
    }
    let g = b.build();
    if g.m() != m {
        return Err(CodecError::Invalid {
            what: format!("decoded edge list collapsed to {} edges, header said {m}", g.m()),
        });
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise loop `crc32` replaced, with a table of its own, so a
    /// wrong entry in any of the sliced tables shows: one dependent lookup
    /// per byte.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in (0u32..).zip(&mut table) {
            *entry =
                (0..8).fold(i, |c, _| if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 });
        }
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// `len` bytes from a fixed xorshift stream.
    fn seeded_bytes(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[0]
            })
            .collect()
    }

    #[test]
    fn crc32_equals_the_bytewise_loop() {
        let buf = seeded_bytes(96);
        for start in 0..16 {
            for len in 0..=80 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {start}, length {len}");
            }
        }
        let big = seeded_bytes(1 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big), "1 MiB");
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        assert_eq!(push_frame(&mut out, |out| out.extend_from_slice(payload)), payload.len());
        out
    }

    /// Every cut of a valid frame asks for more, naming the prefix's 4 bytes
    /// until they are in and the whole frame after; two frames back to back
    /// split in order, the bytes past the first left alone.
    #[test]
    fn frame_parser_waits_for_whole_frames_and_splits_them_in_order() {
        let (a, b) = (frame(b"first payload"), frame(b""));
        for cut in 0..a.len() {
            let need = if cut < 4 { 4 } else { a.len() };
            assert_eq!(parse_frame(&a[..cut], 64), Ok(Frame::Partial(need)), "cut {cut}");
        }
        let both = [a.as_slice(), b.as_slice()].concat();
        assert_eq!(parse_frame(&both, 64), Ok(Frame::Whole(b"first payload".as_slice())));
        assert_eq!(parse_frame(&both[a.len()..], 64), Ok(Frame::Whole(b"".as_slice())));
    }

    /// A flipped payload byte fails the checksum, and a prefix past the
    /// bound is refused from its 4 bytes alone.
    #[test]
    fn frame_parser_refuses_bad_checksums_and_oversized_prefixes() {
        let mut bad = frame(b"payload");
        bad[6] ^= 0x40;
        let found = crc32(&bad[4..bad.len() - 4]);
        let expected = crc32(b"payload");
        assert_eq!(parse_frame(&bad, 64), Err(BadFrame::Checksum { expected, found }));
        let mut long = frame(&[7; 65]);
        assert_eq!(parse_frame(&long, 64), Err(BadFrame::TooLarge(65)));
        long.truncate(4);
        assert_eq!(parse_frame(&long, 64), Err(BadFrame::TooLarge(65)));
        assert_eq!(
            parse_frame(&u32::MAX.to_le_bytes(), u32::MAX - 1),
            Err(BadFrame::TooLarge(u32::MAX))
        );
    }

    #[test]
    fn varint_roundtrip_edges() {
        let cases = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        for &v in &cases {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.uvarint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes can never be a valid u64 varint.
        let buf = [0xFFu8; 11];
        let mut r = Reader::new(&buf);
        assert!(matches!(r.uvarint(), Err(CodecError::VarintOverflow { .. })));
    }

    #[test]
    fn truncated_reads_are_eof() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        let mut r = Reader::new(&buf[..5]);
        assert!(matches!(r.u64(), Err(CodecError::UnexpectedEof { offset: 0 })));
        let mut r = Reader::new(&[0x80u8]);
        assert!(matches!(r.uvarint(), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn float_bits_exact() {
        for &v in &[0.0f64, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn graph_roundtrip_identical_csr() {
        let g = crate::gen::barabasi_albert(500, 3, 7);
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);
        let mut r = Reader::new(&buf);
        let h = decode_graph(&mut r, usize::MAX).unwrap();
        assert!(r.is_empty());
        assert_eq!(g.n(), h.n());
        assert_eq!(g.m(), h.m());
        for v in 0..g.n() as NodeId {
            assert_eq!(g.neighbors(v), h.neighbors(v));
            assert_eq!(g.neighbor_edge_ids(v), h.neighbor_edge_ids(v));
        }
        for (e, u, v) in g.iter_edges() {
            assert_eq!(h.endpoints(e), (u, v));
        }
        // Far smaller than the 16-byte raw pair encoding.
        assert!(buf.len() < g.m() * 8, "{} bytes for m = {}", buf.len(), g.m());
    }

    #[test]
    fn graph_decode_rejects_bad_endpoint() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);
        // Corrupt the node count down so edge endpoints fall out of range.
        let mut r = Reader::new(&buf);
        let _n = r.uvarint().unwrap();
        let rest = buf[r.position()..].to_vec();
        let mut bad = Vec::new();
        put_uvarint(&mut bad, 2); // n = 2, but edge (1, 2) needs n >= 3
        bad.extend_from_slice(&rest);
        let mut r = Reader::new(&bad);
        assert!(matches!(decode_graph(&mut r, usize::MAX), Err(CodecError::Invalid { .. })));
    }

    /// Gaps that wrap `u64` or leave `NodeId` are a forged edge list: a
    /// typed refusal in debug and release alike (it used to be an overflow
    /// panic in one and, via a truncating cast, edge `(0, 1)` in the other).
    #[test]
    fn graph_decode_rejects_wrapping_and_oversized_gaps() {
        let far = (1u64 << 32) + 1;
        let forged = [
            [4, 1, far, u64::MAX - far], // v = u + 1 + gap wraps to 0
            [4, 1, u64::MAX, 0],         // u fits u64, v = u + 1 wraps
            [4, 1, far, 0],              // no wrap, but u = 2^32 + 1 is no NodeId
        ];
        for varints in forged {
            let mut buf = Vec::new();
            for v in varints {
                put_uvarint(&mut buf, v);
            }
            match decode_graph(&mut Reader::new(&buf), usize::MAX) {
                Err(CodecError::Invalid { what }) => assert!(what.contains("edge 0"), "{what}"),
                other => panic!("{varints:?}: expected Invalid, got {other:?}"),
            }
        }
        // A second edge whose `u` gap wraps past the first edge's `u`.
        let mut buf = Vec::new();
        for v in [4, 2, 1, 0, u64::MAX, 0] {
            put_uvarint(&mut buf, v);
        }
        match decode_graph(&mut Reader::new(&buf), usize::MAX) {
            Err(CodecError::Invalid { what }) => assert!(what.contains("edge 1"), "{what}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    /// A node or edge count the input cannot hold is refused before it
    /// sizes an allocation: `m = 2^61` on a few bytes used to panic with a
    /// capacity overflow, and `n` past the caller's bound to abort on a
    /// failed allocation.
    #[test]
    fn graph_decode_rejects_counts_the_input_cannot_hold() {
        for (n, m, max_nodes, want) in [
            (15, 1 << 61, usize::MAX, "edge count 2305843009213693952 exceeds the 4 bytes left"),
            (3, 3, usize::MAX, "edge count 3 exceeds the 4 bytes left"),
            (3_000_000_000, 0, 12, "node count 3000000000 exceeds the 12"),
        ] {
            let mut buf = Vec::new();
            for v in [n, m, 0, 0, 0, 0] {
                put_uvarint(&mut buf, v);
            }
            match decode_graph(&mut Reader::new(&buf), max_nodes) {
                Err(CodecError::Invalid { what }) => assert!(what.contains(want), "{what}"),
                other => panic!("n = {n}, m = {m}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = Graph::from_edges(0, &[]);
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);
        let mut r = Reader::new(&buf);
        let h = decode_graph(&mut r, usize::MAX).unwrap();
        assert_eq!(h.n(), 0);
        assert_eq!(h.m(), 0);
    }
}
