//! # Durable storage: snapshot files + an append WAL
//!
//! This module is the **on-disk format reference** (the role
//! `zv-server`'s `proto` module plays for the wire). Everything is
//! little-endian, CRC-checked, and written so that a crash at *any*
//! byte leaves the data directory recoverable to the exact last
//! durable table version — the versions that key the result cache are
//! process-monotonic ([`Table::version`]) and this module makes them
//! durable, so cache keys keep their meaning across restarts.
//!
//! ## Data directory layout
//!
//! ```text
//! <dir>/
//!   snapshot-<version, 20-digit zero-padded>.zvt   # full columnar dump
//!   snapshot-<version>.zvt.tmp                     # crash leftover (ignored, removed)
//!   wal.log                                        # append batches since the snapshot
//! ```
//!
//! ## Snapshot file (`.zvt`)
//!
//! One immutable columnar dump of a pinned table snapshot at an exact
//! version, written atomically: temp file → fsync → rename → dir sync.
//!
//! ```text
//! [0..4)    magic  b"ZVSN"
//! [4..8)    u32    format version (currently 2; v1 still loads)
//! [8..12)   u32    meta-block length M
//! [12..12+M)       meta block (see below)
//! [..+4)    u32    CRC32 of the meta block
//! [..]             column segments, concatenated in schema order
//!
//! meta block:
//!   u64  table version
//!   u64  row count
//!   u32  column count C
//!   C ×  { u8 dtype (0=Int 1=Float 2=Cat), u32 name length, name bytes,
//!          u64 segment length, u32 segment CRC32 }
//! ```
//!
//! Column segments (lengths and CRCs live in the directory above).
//! Format 2 writes `Int` and `Cat` code payloads in the in-memory
//! chunked-encoding layout (see [`crate::column`]) **verbatim** — no
//! re-encode on save, no re-encode on load:
//!
//! * `Float` — row count × `f64` bit patterns (exact round-trip),
//!   unchanged from v1: one flat run whatever the in-memory chunking,
//!   re-chunked under the current policy on load
//! * `Int`   — a *packed chunk store* (below) of `i64` values
//! * `Cat`   — `u64` dictionary length, then per entry `u32` length +
//!   UTF-8 bytes (first-seen order, so codes survive verbatim), then a
//!   packed chunk store of `u32` codes
//!
//! ```text
//! packed chunk store (T = i64 or u32):
//!   u32  chunk shift S (rows per sealed chunk = 1 << S, S ≤ 12)
//!   u32  sealed chunk count N
//!   N ×  { u8 encoding tag, T stat_min, T stat_max, payload }
//!     tag 0 Plain :  (1 << S) × T
//!     tag 1 Packed:  T frame-of-reference min, u32 bit width W (≤ 64),
//!                    u32 word count (= ceil((1 << S)·W / 64)), words × u64
//!     tag 2 Rle   :  u32 run count R, R × { T value, u16 exclusive end }
//!                    (ends strictly increasing, last = 1 << S)
//!   u32  tail length (< 1 << S)
//!   tail × T
//! ```
//!
//! Decoding validates structure exhaustively (length accounting, width
//! and word-count bounds, run monotonicity, dictionary-code bounds —
//! packed code chunks are bounds-scanned without materializing), so a
//! CRC-valid but malformed segment is rejected whole. Format 1
//! snapshots (plain `row count × value` segments) still load; their
//! columns are re-chunked under the current [`crate::column`] encoding
//! policy at load time.
//!
//! ## WAL (`wal.log`)
//!
//! A sequence of frames, one per committed `append_rows` batch,
//! fsynced before the batch becomes visible in memory
//! (durability-before-visibility — see `ScanDb::append_rows`):
//!
//! ```text
//! u32  frame length L (= 8 + payload length)
//! u64  post-append table version   ┐
//! payload                          ┴ the L bytes the CRC covers
//! u32  CRC32 of the L body bytes
//!
//! payload:
//!   u32  row count R
//!   R ×  one value per schema column, already coerced to the column
//!        dtype: Int → i64, Float → f64 bits, Cat → u32 length + UTF-8
//! ```
//!
//! A frame body never exceeds [`MAX_WAL_FRAME`]: the write path rejects
//! larger batches (the append fails, nothing is committed), which is
//! what lets recovery treat any larger length field as torn garbage.
//!
//! ## Recovery
//!
//! [`Persistence::open`] = load the **newest CRC-valid snapshot**
//! (corrupt ones are skipped in favour of older ones; `.tmp` leftovers
//! from a crash-before-rename are deleted), then replay WAL frames in
//! file order, **skipping** frames at or below the snapshot's version
//! (legitimate after a crash between snapshot rename and WAL reset)
//! and **restoring** each frame's recorded version, so recovery ends
//! at the exact pre-crash durable version. A torn or CRC-corrupt tail
//! is truncated at the last valid frame boundary and never served —
//! the store may forget an unfsynced suffix, never lie about one.
//!
//! ## Fault injection
//!
//! Four deterministic [`FaultPoint`]s cover the write path (all
//! indexed by per-[`Persistence`] operation sequence numbers, epoch 0,
//! so chaos suites replay the exact decision stream):
//! [`FaultPoint::DiskWriteFail`] (snapshot write cut short),
//! [`FaultPoint::FsyncFail`] (append rolled back / checkpoint
//! aborted), [`FaultPoint::CrashBeforeRename`] (complete `.tmp`, no
//! rename), and [`FaultPoint::WalTearTail`] (append torn at
//! [`wal_tear_offset`], log poisoned fail-stop until the next
//! successful checkpoint resets it).

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::column::{
    packed_delta, CatColumn, Chunked, Coded, Column, EncChunk, EncodePolicy, FloatColumn, IntColumn,
};
use crate::fault::{lock_recover, FaultPoint, FaultSpec};
use crate::table::{Field, Schema, StorageError, Table};
use crate::value::{DataType, Value};

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"ZVSN";
/// On-disk format version written into every snapshot header. Version
/// 2 stores Int/Cat segments in the chunked-encoding layout verbatim;
/// version 1 (plain value arrays) is still accepted on load.
pub const FORMAT_VERSION: u32 = 2;
/// Oldest snapshot format version [`decode_snapshot`] still accepts.
pub const MIN_FORMAT_VERSION: u32 = 1;
/// Upper bound on one WAL frame's body, enforced on **both** sides of
/// the log: replay rejects a larger length field as torn garbage
/// before allocating (same rationale as the wire's `MAX_FRAME`), and
/// [`Persistence::log_append`] refuses to write a batch that encodes
/// past it — otherwise the oversized frame would be fsynced and acked,
/// then silently truncated (with everything after it) on the next
/// open. Callers split bulk loads into sub-cap batches.
pub const MAX_WAL_FRAME: usize = 64 << 20;

const WAL_FILE: &str = "wal.log";
const SNAPSHOT_PREFIX: &str = "snapshot-";
const SNAPSHOT_SUFFIX: &str = ".zvt";

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) — std-only build, so
// the table is generated at compile time.
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC32 of `bytes` (the checksum every snapshot segment and WAL
/// frame carries).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The byte offset at which an injected [`FaultPoint::WalTearTail`]
/// cuts a WAL frame of `frame_len` bytes: a pure hash of the fault
/// seed and the append sequence number, always strictly inside the
/// frame (`0..frame_len`), so chaos tests can predict the exact torn
/// byte and recovery proptests can reproduce it.
pub fn wal_tear_offset(seed: u64, seq: u64, frame_len: usize) -> usize {
    // SplitMix64 finalizer over (seed, seq) — mirrors `FaultSpec::fires`.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seq.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(0x5ca7_da7a_0009);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % frame_len.max(1) as u64) as usize
}

fn io_err(ctx: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{ctx}: {e}"))
}

fn malformed(msg: impl Into<String>) -> StorageError {
    StorageError::Io(msg.into())
}

// ---------------------------------------------------------------------
// Little-endian buffer helpers
// ---------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| malformed("truncated record"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, StorageError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<&'a str, StorageError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| malformed("non-UTF-8 string"))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Cat => 2,
    }
}

fn tag_dtype(t: u8) -> Result<DataType, StorageError> {
    match t {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Cat),
        other => Err(malformed(format!("unknown column dtype tag {other}"))),
    }
}

// ---------------------------------------------------------------------
// Snapshot encode/decode
// ---------------------------------------------------------------------

/// Serialization hooks for one [`Chunked`] value type.
trait PersistCoded: Coded {
    fn put(buf: &mut Vec<u8>, v: Self);
    fn take(c: &mut Cursor<'_>) -> Result<Self, StorageError>;
}

impl PersistCoded for i64 {
    fn put(buf: &mut Vec<u8>, v: Self) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    fn take(c: &mut Cursor<'_>) -> Result<Self, StorageError> {
        c.i64()
    }
}

impl PersistCoded for u32 {
    fn put(buf: &mut Vec<u8>, v: Self) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    fn take(c: &mut Cursor<'_>) -> Result<Self, StorageError> {
        c.u32()
    }
}

/// Serialize a chunked store in its in-memory layout, verbatim — sealed
/// chunks (with their stats) keep their encodings; no re-encode.
fn put_chunked<T: PersistCoded>(seg: &mut Vec<u8>, col: &Chunked<T>) {
    let (shift, chunks, stats, tail) = col.parts();
    put_u32(seg, shift);
    put_u32(seg, chunks.len() as u32);
    for (chunk, &(lo, hi)) in chunks.iter().zip(stats) {
        match &**chunk {
            EncChunk::Plain(v) => {
                seg.push(0);
                T::put(seg, lo);
                T::put(seg, hi);
                for &x in v {
                    T::put(seg, x);
                }
            }
            EncChunk::Packed { min, width, words } => {
                seg.push(1);
                T::put(seg, lo);
                T::put(seg, hi);
                T::put(seg, *min);
                put_u32(seg, *width);
                put_u32(seg, words.len() as u32);
                for &w in words {
                    put_u64(seg, w);
                }
            }
            EncChunk::Rle(runs) => {
                seg.push(2);
                T::put(seg, lo);
                T::put(seg, hi);
                put_u32(seg, runs.len() as u32);
                for &(v, e) in runs {
                    T::put(seg, v);
                    seg.extend_from_slice(&e.to_le_bytes());
                }
            }
        }
    }
    put_u32(seg, tail.len() as u32);
    for &x in tail {
        T::put(seg, x);
    }
}

/// Decode a packed chunk store of exactly `rows` values, validating
/// structure exhaustively (see the module docs). `check` bounds every
/// stored value (dictionary codes); packed chunks are bounds-scanned
/// via delta extraction without materializing.
fn take_chunked<T: PersistCoded>(
    c: &mut Cursor<'_>,
    rows: usize,
    check: impl Fn(T) -> bool,
) -> Result<Chunked<T>, StorageError> {
    let shift = c.u32()?;
    if shift > 12 {
        return Err(malformed(format!("chunk shift {shift} out of range")));
    }
    let chunk_rows = 1usize << shift;
    let n_chunks = c.u32()? as usize;
    let checked = |v: T| {
        if check(v) {
            Ok(v)
        } else {
            Err(malformed(format!("column value {v:?} out of range")))
        }
    };
    let mut chunks = Vec::with_capacity(n_chunks);
    let mut stats = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks {
        let tag = c.u8()?;
        let lo = T::take(c)?;
        let hi = T::take(c)?;
        let chunk = match tag {
            0 => {
                let mut v = Vec::with_capacity(chunk_rows);
                for _ in 0..chunk_rows {
                    v.push(checked(T::take(c)?)?);
                }
                EncChunk::Plain(v)
            }
            1 => {
                let min = T::take(c)?;
                let width = c.u32()?;
                let n_words = c.u32()? as usize;
                if width > 64 || n_words != (chunk_rows * width as usize).div_ceil(64) {
                    return Err(malformed(format!(
                        "packed chunk geometry invalid (width {width}, {n_words} words)"
                    )));
                }
                let mut words = Vec::with_capacity(n_words);
                for _ in 0..n_words {
                    words.push(c.u64()?);
                }
                if width == 0 {
                    checked(min)?;
                } else {
                    for i in 0..chunk_rows {
                        checked(T::from_delta(min, packed_delta(&words, width, i)))?;
                    }
                }
                EncChunk::Packed { min, width, words }
            }
            2 => {
                let n_runs = c.u32()? as usize;
                if n_runs == 0 || n_runs > chunk_rows {
                    return Err(malformed(format!("RLE run count {n_runs} invalid")));
                }
                let mut runs: Vec<(T, u16)> = Vec::with_capacity(n_runs);
                let mut prev_end = 0usize;
                for _ in 0..n_runs {
                    let v = checked(T::take(c)?)?;
                    let end = u16::from_le_bytes(c.take(2)?.try_into().unwrap());
                    if (end as usize) <= prev_end || (end as usize) > chunk_rows {
                        return Err(malformed("RLE run ends not strictly increasing"));
                    }
                    prev_end = end as usize;
                    runs.push((v, end));
                }
                if prev_end != chunk_rows {
                    return Err(malformed("RLE runs do not cover the chunk"));
                }
                EncChunk::Rle(runs)
            }
            other => return Err(malformed(format!("unknown chunk encoding tag {other}"))),
        };
        chunks.push(chunk);
        stats.push((lo, hi));
    }
    let tail_len = c.u32()? as usize;
    if tail_len >= chunk_rows || (n_chunks << shift) + tail_len != rows {
        return Err(malformed(format!(
            "chunk store rows ({} sealed + {tail_len} tail) disagree with row count {rows}",
            n_chunks << shift
        )));
    }
    let mut tail = Vec::with_capacity(tail_len);
    for _ in 0..tail_len {
        tail.push(checked(T::take(c)?)?);
    }
    Ok(Chunked::from_parts(
        shift,
        EncodePolicy::from_env().mode,
        chunks,
        stats,
        tail,
    ))
}

fn encode_segment(col: &Column) -> Vec<u8> {
    let mut seg = Vec::new();
    match col {
        Column::Int(v) => put_chunked(&mut seg, v),
        Column::Float(v) => {
            // One flat run of bit patterns, whatever the chunking.
            seg.reserve(v.len() * 8);
            v.for_each_slice(0, v.len(), |_, vals| {
                for &x in vals {
                    seg.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            });
        }
        Column::Cat(c) => {
            put_u64(&mut seg, c.dict().len() as u64);
            for s in c.dict() {
                put_str(&mut seg, s);
            }
            put_chunked(&mut seg, c.codes());
        }
    }
    seg
}

/// Decode the dictionary block of a Cat segment (shared by v1 and v2).
fn take_dict(c: &mut Cursor<'_>) -> Result<(Vec<String>, CatColumn), StorageError> {
    let dict_len = c.u64()? as usize;
    let mut cat = CatColumn::new();
    let mut dict = Vec::with_capacity(dict_len);
    for i in 0..dict_len {
        let s = c.str()?;
        if cat.intern(s) as usize != i {
            return Err(malformed(format!("duplicate dictionary entry {s:?}")));
        }
        dict.push(s.to_string());
    }
    Ok((dict, cat))
}

fn decode_segment(
    bytes: &[u8],
    dtype: DataType,
    rows: usize,
    fmt: u32,
) -> Result<Column, StorageError> {
    let mut c = Cursor::new(bytes);
    let col = match dtype {
        DataType::Int if fmt == 1 => {
            // v1: plain value array, re-chunked under the current policy.
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(c.i64()?);
            }
            Column::Int(IntColumn::from_vec(v, EncodePolicy::from_env()))
        }
        DataType::Int => Column::Int(take_chunked(&mut c, rows, |_| true)?),
        DataType::Float => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(c.f64()?);
            }
            // Re-chunked under the current policy.
            Column::Float(FloatColumn::from_vec(v, EncodePolicy::from_env()))
        }
        DataType::Cat if fmt == 1 => {
            let (_, mut cat) = take_dict(&mut c)?;
            let dict_len = cat.cardinality();
            for _ in 0..rows {
                let code = c.u32()?;
                if code as usize >= dict_len {
                    return Err(malformed(format!(
                        "code {code} out of dictionary range {dict_len}"
                    )));
                }
                cat.push_code(code);
            }
            Column::Cat(cat)
        }
        DataType::Cat => {
            let (dict, _) = take_dict(&mut c)?;
            let dict_len = dict.len();
            let codes = take_chunked(&mut c, rows, |code: u32| (code as usize) < dict_len)?;
            Column::Cat(CatColumn::from_parts(dict, codes))
        }
    };
    if !c.done() {
        return Err(malformed("trailing bytes after column segment"));
    }
    Ok(col)
}

/// Serialize a pinned table snapshot to the `.zvt` byte layout (see
/// the module docs). Pure — writing, fsyncing, and renaming are
/// [`Persistence::checkpoint`]'s job.
pub fn encode_snapshot(table: &Table) -> Vec<u8> {
    let fields = table.schema().fields();
    let segs: Vec<Vec<u8>> = (0..fields.len())
        .map(|i| encode_segment(table.column_at(i)))
        .collect();
    let mut meta = Vec::new();
    put_u64(&mut meta, table.version());
    put_u64(&mut meta, table.num_rows() as u64);
    put_u32(&mut meta, fields.len() as u32);
    for (f, seg) in fields.iter().zip(&segs) {
        meta.push(dtype_tag(f.dtype));
        put_str(&mut meta, &f.name);
        put_u64(&mut meta, seg.len() as u64);
        put_u32(&mut meta, crc32(seg));
    }
    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, meta.len() as u32);
    out.extend_from_slice(&meta);
    put_u32(&mut out, crc32(&meta));
    for seg in &segs {
        out.extend_from_slice(seg);
    }
    out
}

/// Deserialize and fully verify a `.zvt` snapshot: magic, format
/// version, meta CRC, per-segment CRCs, dictionary-code bounds, and
/// exact length accounting all must hold — a snapshot either decodes
/// bit-for-bit or is rejected whole, never partially served. The
/// returned table carries its durable version.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Table, StorageError> {
    if bytes.len() < 12 || bytes[..4] != SNAPSHOT_MAGIC {
        return Err(malformed("not a zv snapshot (bad magic)"));
    }
    let mut head = Cursor::new(&bytes[4..12]);
    let fmt = head.u32()?;
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&fmt) {
        return Err(malformed(format!(
            "snapshot format {fmt} unsupported (want {MIN_FORMAT_VERSION}..={FORMAT_VERSION})"
        )));
    }
    let meta_len = head.u32()? as usize;
    let meta_end = 12usize
        .checked_add(meta_len)
        .filter(|&e| e + 4 <= bytes.len())
        .ok_or_else(|| malformed("snapshot meta block truncated"))?;
    let meta = &bytes[12..meta_end];
    let stored_crc = u32::from_le_bytes(bytes[meta_end..meta_end + 4].try_into().unwrap());
    if crc32(meta) != stored_crc {
        return Err(malformed("snapshot meta CRC mismatch"));
    }
    let mut m = Cursor::new(meta);
    let version = m.u64()?;
    let rows = m.u64()? as usize;
    let n_cols = m.u32()? as usize;
    let mut fields = Vec::with_capacity(n_cols);
    let mut dirs = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let dtype = tag_dtype(m.u8()?)?;
        let name = m.str()?.to_string();
        let seg_len = m.u64()? as usize;
        let seg_crc = m.u32()?;
        fields.push(Field::new(name, dtype));
        dirs.push((seg_len, seg_crc));
    }
    if !m.done() {
        return Err(malformed("trailing bytes in snapshot meta block"));
    }
    let mut offset = meta_end + 4;
    let mut columns = Vec::with_capacity(n_cols);
    for (f, &(seg_len, seg_crc)) in fields.iter().zip(&dirs) {
        let end = offset
            .checked_add(seg_len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| malformed("snapshot segment truncated"))?;
        let seg = &bytes[offset..end];
        if crc32(seg) != seg_crc {
            return Err(malformed(format!(
                "segment CRC mismatch in column {}",
                f.name
            )));
        }
        columns.push(decode_segment(seg, f.dtype, rows, fmt)?);
        offset = end;
    }
    if offset != bytes.len() {
        return Err(malformed("trailing bytes after last snapshot segment"));
    }
    let mut table = Table::from_columns(Schema::new(fields), columns)
        .map_err(|e| malformed(format!("snapshot columns inconsistent: {e}")))?;
    if table.num_rows() != rows {
        return Err(malformed("snapshot row count disagrees with segments"));
    }
    table.restore_version(version);
    Ok(table)
}

// ---------------------------------------------------------------------
// WAL encode/decode
// ---------------------------------------------------------------------

/// The error an append batch gets when its encoded body would exceed
/// [`MAX_WAL_FRAME`]. Enforced on the **write** path: replay treats any
/// length above the cap as torn garbage and truncates there, so a
/// larger frame, once written and acked, would be silently dropped on
/// the next open together with everything after it — the batch must
/// fail *now* instead.
fn oversized_batch(encoded: usize) -> StorageError {
    StorageError::Malformed(format!(
        "append batch encodes to over {encoded} bytes, above the {MAX_WAL_FRAME}-byte \
         WAL frame cap — split it into smaller appends"
    ))
}

/// Wrap an encoded body into a full frame (`[len | body | CRC]`),
/// rejecting bodies over [`MAX_WAL_FRAME`] so no unrecoverable frame
/// can ever reach the log.
fn seal_wal_frame(body: Vec<u8>) -> Result<Vec<u8>, StorageError> {
    if body.len() > MAX_WAL_FRAME {
        return Err(oversized_batch(body.len()));
    }
    let mut frame = Vec::with_capacity(body.len() + 8);
    put_u32(&mut frame, body.len() as u32);
    frame.extend_from_slice(&body);
    put_u32(&mut frame, crc32(&body));
    Ok(frame)
}

/// Encode one committed append batch as a full WAL frame
/// (`[len | version | payload | CRC]`). Values are coerced to the
/// schema dtype exactly as [`Table::append_rows`] stores them, so
/// replay reconstructs the identical column bytes. Batches whose body
/// would exceed [`MAX_WAL_FRAME`] are rejected (checked per row, so an
/// absurd batch fails fast instead of encoding gigabytes first).
pub fn encode_wal_frame(
    version: u64,
    schema: &Schema,
    rows: &[Vec<Value>],
) -> Result<Vec<u8>, StorageError> {
    let mut body = Vec::new();
    put_u64(&mut body, version);
    put_u32(&mut body, rows.len() as u32);
    for row in rows {
        if row.len() != schema.len() {
            return Err(StorageError::Malformed(format!(
                "WAL row width {} != schema width {}",
                row.len(),
                schema.len()
            )));
        }
        for (f, v) in schema.fields().iter().zip(row) {
            match (f.dtype, v) {
                (DataType::Int, Value::Int(i)) => body.extend_from_slice(&i.to_le_bytes()),
                (DataType::Int, Value::Float(x)) => {
                    body.extend_from_slice(&(*x as i64).to_le_bytes())
                }
                (DataType::Float, Value::Float(x)) => {
                    body.extend_from_slice(&x.to_bits().to_le_bytes())
                }
                (DataType::Float, Value::Int(i)) => {
                    body.extend_from_slice(&(*i as f64).to_bits().to_le_bytes())
                }
                (DataType::Cat, Value::Str(s)) => put_str(&mut body, s),
                (dtype, v) => {
                    return Err(StorageError::TypeMismatch(format!(
                        "cannot log {v:?} into {dtype} WAL column"
                    )))
                }
            }
        }
        if body.len() > MAX_WAL_FRAME {
            return Err(oversized_batch(body.len()));
        }
    }
    seal_wal_frame(body)
}

/// Encode an `append_table` batch as a WAL frame straight from the
/// source table's columns — byte-identical to [`encode_wal_frame`]
/// over `src`'s rows, without materializing a `Value` per cell (an
/// engine-level bulk append would otherwise hold a row-major copy of
/// the whole table while blocking every other append).
pub fn encode_wal_frame_from_table(version: u64, src: &Table) -> Result<Vec<u8>, StorageError> {
    let cols = (0..src.schema().len())
        .map(|i| src.column_at(i))
        .collect::<Vec<_>>();
    let mut body = Vec::new();
    put_u64(&mut body, version);
    put_u32(&mut body, src.num_rows() as u32);
    for row in 0..src.num_rows() {
        for col in &cols {
            match col {
                Column::Int(v) => body.extend_from_slice(&v.get(row).to_le_bytes()),
                Column::Float(v) => body.extend_from_slice(&v.get(row).to_bits().to_le_bytes()),
                Column::Cat(c) => put_str(&mut body, &c.dict()[c.code_at(row) as usize]),
            }
        }
        if body.len() > MAX_WAL_FRAME {
            return Err(oversized_batch(body.len()));
        }
    }
    seal_wal_frame(body)
}

/// Decode a CRC-verified frame body (`version` + payload, i.e. the
/// `L` bytes after the length word) against `schema`.
fn decode_wal_body(body: &[u8], schema: &Schema) -> Result<(u64, Vec<Vec<Value>>), StorageError> {
    let mut c = Cursor::new(body);
    let version = c.u64()?;
    let n_rows = c.u32()? as usize;
    let mut rows = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let mut row = Vec::with_capacity(schema.len());
        for f in schema.fields() {
            row.push(match f.dtype {
                DataType::Int => Value::Int(c.i64()?),
                DataType::Float => Value::Float(c.f64()?),
                DataType::Cat => Value::Str(c.str()?.to_string()),
            });
        }
        rows.push(row);
    }
    if !c.done() {
        return Err(malformed("trailing bytes in WAL frame payload"));
    }
    Ok((version, rows))
}

// ---------------------------------------------------------------------
// Persistence: the handle an engine holds on its data directory
// ---------------------------------------------------------------------

/// Configuration for [`Persistence::open`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PersistOptions {
    /// Disk-path fault injection ([`FaultPoint::DiskWriteFail`] /
    /// [`FaultPoint::FsyncFail`] / [`FaultPoint::CrashBeforeRename`] /
    /// [`FaultPoint::WalTearTail`]); disabled outside chaos runs.
    pub fault: FaultSpec,
}

/// What [`Persistence::open`] found and did — one immutable report per
/// open, so chaos ledgers can assert recovery byte-for-byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Version of the snapshot file recovery loaded (`None` = fresh
    /// directory, nothing durable yet).
    pub snapshot_version: Option<u64>,
    /// The exact table version recovery ended at (snapshot version
    /// advanced by replayed WAL frames).
    pub recovered_version: Option<u64>,
    /// CRC-valid WAL frames applied on top of the snapshot.
    pub frames_replayed: u64,
    /// Rows those frames appended.
    pub rows_replayed: u64,
    /// CRC-valid frames skipped because their version was already
    /// covered by the snapshot (crash between rename and WAL reset).
    pub stale_frames_skipped: u64,
    /// Torn/corrupt tail bytes truncated off the WAL (never served).
    pub torn_bytes_truncated: u64,
    /// Snapshot files rejected by CRC/format verification — or
    /// unreadable outright — and skipped in favour of an older one.
    pub corrupt_snapshots_skipped: u64,
    /// `.tmp` leftovers of interrupted checkpoints deleted.
    pub tmp_files_removed: u64,
}

/// Monotone write-path counters (see [`Persistence::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    pub snapshots_written: u64,
    /// Superseded snapshot files deleted after a checkpoint.
    pub snapshots_pruned: u64,
    pub wal_appends: u64,
    pub wal_bytes_appended: u64,
    /// Appends that failed (injected or real I/O); each left the
    /// in-memory table unchanged.
    pub wal_append_failures: u64,
    pub checkpoint_failures: u64,
}

struct WalHandle {
    file: File,
    /// Length of the durable, CRC-valid prefix — everything at or past
    /// this offset is torn garbage awaiting truncation.
    len: u64,
}

/// A handle on one data directory: the open WAL plus the bookkeeping
/// to checkpoint and recover it. Engines own one behind an `Arc` (see
/// `ScanDb::open_durable` / `BitmapDb::open_durable`); every committed
/// `append_rows` batch is logged (and fsynced) *before* the new
/// snapshot becomes visible in memory, so the in-memory version is
/// always a durable version.
pub struct Persistence {
    dir: PathBuf,
    fault: FaultSpec,
    wal: Mutex<WalHandle>,
    /// Set when a fault left torn bytes on the WAL tail: further
    /// appends fail fast (the tail would corrupt mid-log) until a
    /// successful [`Persistence::checkpoint`] resets the log.
    wal_dead: AtomicBool,
    recovery: RecoveryReport,
    write_seq: AtomicU64,
    fsync_seq: AtomicU64,
    checkpoint_seq: AtomicU64,
    append_seq: AtomicU64,
    snapshots_written: AtomicU64,
    snapshots_pruned: AtomicU64,
    wal_appends: AtomicU64,
    wal_bytes_appended: AtomicU64,
    wal_append_failures: AtomicU64,
    checkpoint_failures: AtomicU64,
}

impl Persistence {
    /// Open (creating if needed) a data directory and recover its
    /// durable state: newest valid snapshot + WAL replay, torn tail
    /// truncated. Returns the handle and the recovered table (`None`
    /// for a fresh directory — the caller seeds an initial table and
    /// checkpoints it).
    pub fn open(
        dir: impl AsRef<Path>,
        opts: PersistOptions,
    ) -> Result<(Persistence, Option<Table>), StorageError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create data dir", e))?;
        let mut report = RecoveryReport::default();

        // Sweep the directory: collect snapshot candidates, remove
        // `.tmp` leftovers of interrupted checkpoints.
        let mut snapshots: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir).map_err(|e| io_err("read data dir", e))? {
            let entry = entry.map_err(|e| io_err("read data dir", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                fs::remove_file(entry.path()).map_err(|e| io_err("remove tmp file", e))?;
                report.tmp_files_removed += 1;
            } else if let Some(v) = name
                .strip_prefix(SNAPSHOT_PREFIX)
                .and_then(|s| s.strip_suffix(SNAPSHOT_SUFFIX))
                .and_then(|s| s.parse::<u64>().ok())
            {
                snapshots.push((v, entry.path()));
            }
        }
        // Newest first; fall back to older snapshots on corruption.
        snapshots.sort_by_key(|s| std::cmp::Reverse(s.0));
        let mut table: Option<Table> = None;
        for (_, path) in &snapshots {
            // An unreadable candidate (I/O error, permissions) is the
            // same damaged-newest-snapshot situation as a CRC failure:
            // count it and fall back to the next-older snapshot rather
            // than aborting recovery outright.
            let decoded = fs::read(path)
                .map_err(|e| io_err("read snapshot", e))
                .and_then(|bytes| decode_snapshot(&bytes));
            match decoded {
                Ok(t) => {
                    report.snapshot_version = Some(t.version());
                    table = Some(t);
                    break;
                }
                Err(_) => report.corrupt_snapshots_skipped += 1,
            }
        }

        // Open the WAL and replay it on top of the snapshot.
        let wal_path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)
            .map_err(|e| io_err("open wal", e))?;
        let mut wal_bytes = Vec::new();
        file.read_to_end(&mut wal_bytes)
            .map_err(|e| io_err("read wal", e))?;
        let durable_len = match &mut table {
            Some(t) => Self::replay_wal(&wal_bytes, t, &mut report)?,
            None if wal_bytes.is_empty() => 0,
            None => {
                // A WAL with no base snapshot cannot be replayed; the
                // directory is unusable, not quietly resettable.
                return Err(malformed(format!(
                    "{} has a WAL but no readable snapshot — refusing to discard data",
                    dir.display()
                )));
            }
        };
        if durable_len < wal_bytes.len() as u64 {
            report.torn_bytes_truncated = wal_bytes.len() as u64 - durable_len;
            file.set_len(durable_len)
                .map_err(|e| io_err("truncate torn wal tail", e))?;
            file.sync_data().map_err(|e| io_err("fsync wal", e))?;
        }
        file.seek(SeekFrom::Start(durable_len))
            .map_err(|e| io_err("seek wal", e))?;
        report.recovered_version = table.as_ref().map(Table::version);

        let persistence = Persistence {
            dir,
            fault: opts.fault,
            wal: Mutex::new(WalHandle {
                file,
                len: durable_len,
            }),
            wal_dead: AtomicBool::new(false),
            recovery: report,
            write_seq: AtomicU64::new(0),
            fsync_seq: AtomicU64::new(0),
            checkpoint_seq: AtomicU64::new(0),
            append_seq: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            snapshots_pruned: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_bytes_appended: AtomicU64::new(0),
            wal_append_failures: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
        };
        Ok((persistence, table))
    }

    /// Replay `wal_bytes` onto `table`, returning the length of the
    /// durable prefix (everything past it is torn/corrupt and must be
    /// truncated). Frames at or below the current table version are
    /// skipped as stale; applied frames restore their exact recorded
    /// version.
    fn replay_wal(
        wal_bytes: &[u8],
        table: &mut Table,
        report: &mut RecoveryReport,
    ) -> Result<u64, StorageError> {
        let mut pos = 0usize;
        loop {
            let rest = &wal_bytes[pos..];
            if rest.is_empty() {
                return Ok(pos as u64);
            }
            if rest.len() < 4 {
                return Ok(pos as u64); // torn inside the length word
            }
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            // A frame body is at least version (8) + row count (4); an
            // insane length is indistinguishable from torn garbage.
            if !(12..=MAX_WAL_FRAME).contains(&len) || rest.len() < 4 + len + 4 {
                return Ok(pos as u64);
            }
            let body = &rest[4..4 + len];
            let stored_crc = u32::from_le_bytes(rest[4 + len..4 + len + 4].try_into().unwrap());
            if crc32(body) != stored_crc {
                return Ok(pos as u64); // corrupt tail starts here
            }
            let (version, rows) = decode_wal_body(body, table.schema())?;
            if version <= table.version() {
                report.stale_frames_skipped += 1;
            } else {
                let n = table.append_rows(&rows)?;
                table.restore_version(version);
                report.frames_replayed += 1;
                report.rows_replayed += n as u64;
            }
            pos += 4 + len + 4;
        }
    }

    /// The directory this handle owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the append log inside [`Persistence::dir`].
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// What recovery found and did when this handle was opened.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery
    }

    /// Point-in-time copy of the write-path counters.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            snapshots_written: self.snapshots_written.load(Ordering::Relaxed),
            snapshots_pruned: self.snapshots_pruned.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_bytes_appended: self.wal_bytes_appended.load(Ordering::Relaxed),
            wal_append_failures: self.wal_append_failures.load(Ordering::Relaxed),
            checkpoint_failures: self.checkpoint_failures.load(Ordering::Relaxed),
        }
    }

    /// True when a fault poisoned the WAL tail: appends fail fast
    /// until a successful [`Persistence::checkpoint`] resets the log.
    pub fn wal_poisoned(&self) -> bool {
        self.wal_dead.load(Ordering::SeqCst)
    }

    fn faulted_fsync(&self, file: &File, what: &str) -> Result<(), StorageError> {
        let seq = self.fsync_seq.fetch_add(1, Ordering::Relaxed);
        if self.fault.fires(FaultPoint::FsyncFail, seq, 0) {
            return Err(StorageError::Io(format!(
                "injected fsync failure on {what} (fsync #{seq})"
            )));
        }
        file.sync_data()
            .map_err(|e| io_err(&format!("fsync {what}"), e))
    }

    /// Log one committed append batch: frame, write, fsync — all
    /// before the caller makes the new table visible. On *any*
    /// failure the frame is rolled back (or the log poisoned when
    /// torn bytes are already on disk) and the caller must abort the
    /// in-memory mutation, so disk and memory always agree on the
    /// durable history. A batch that encodes past [`MAX_WAL_FRAME`]
    /// fails here, before any byte is written — replay would truncate
    /// a larger frame as torn garbage, silently dropping acknowledged
    /// data.
    pub fn log_append(
        &self,
        version: u64,
        schema: &Schema,
        rows: &[Vec<Value>],
    ) -> Result<(), StorageError> {
        if rows.is_empty() {
            return Ok(());
        }
        self.ensure_wal_alive()?;
        let frame = self.encode_counted(|| encode_wal_frame(version, schema, rows))?;
        self.log_frame(frame)
    }

    /// [`Persistence::log_append`] for an `append_table` batch: the
    /// frame is encoded straight from `src`'s columns (see
    /// [`encode_wal_frame_from_table`]), so bulk appends don't triple
    /// their peak memory materializing per-row `Value`s under the
    /// engine's append lock.
    pub fn log_append_table(&self, version: u64, src: &Table) -> Result<(), StorageError> {
        if src.num_rows() == 0 {
            return Ok(());
        }
        self.ensure_wal_alive()?;
        let frame = self.encode_counted(|| encode_wal_frame_from_table(version, src))?;
        self.log_frame(frame)
    }

    fn ensure_wal_alive(&self) -> Result<(), StorageError> {
        if self.wal_dead.load(Ordering::SeqCst) {
            self.wal_append_failures.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Io(
                "WAL tail is poisoned by an earlier disk fault; checkpoint to reset it".into(),
            ));
        }
        Ok(())
    }

    /// Run a frame encoder, booking a rejected batch (oversized, type
    /// mismatch) as an append failure — the in-memory table stays
    /// unchanged, exactly like an I/O failure.
    fn encode_counted(
        &self,
        encode: impl FnOnce() -> Result<Vec<u8>, StorageError>,
    ) -> Result<Vec<u8>, StorageError> {
        encode().inspect_err(|_| {
            self.wal_append_failures.fetch_add(1, Ordering::Relaxed);
        })
    }

    fn log_frame(&self, frame: Vec<u8>) -> Result<(), StorageError> {
        let mut wal = lock_recover(&self.wal);
        let seq = self.append_seq.fetch_add(1, Ordering::Relaxed);
        if self.fault.fires(FaultPoint::WalTearTail, seq, 0) {
            // Crash mid-append: a prefix of the frame really lands on
            // disk. The log is now poisoned fail-stop — recovery (or a
            // checkpoint) is the only way forward.
            let torn = wal_tear_offset(self.fault.seed, seq, frame.len());
            let _ = wal.file.write_all(&frame[..torn]);
            let _ = wal.file.sync_data();
            self.wal_dead.store(true, Ordering::SeqCst);
            self.wal_append_failures.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Io(format!(
                "injected torn WAL append #{seq}: {torn} of {} bytes reached disk",
                frame.len()
            )));
        }
        let write_then_sync = (|| -> Result<(), StorageError> {
            wal.file
                .write_all(&frame)
                .map_err(|e| io_err("append wal frame", e))?;
            self.faulted_fsync(&wal.file, "wal")
        })();
        if let Err(e) = write_then_sync {
            // Roll the partial/unsynced frame back so the durable
            // prefix matches what the caller will report as committed.
            self.wal_append_failures.fetch_add(1, Ordering::Relaxed);
            let durable = wal.len;
            let rolled_back = wal.file.set_len(durable).is_ok()
                && wal.file.seek(SeekFrom::Start(durable)).is_ok()
                && wal.file.sync_data().is_ok();
            if !rolled_back {
                self.wal_dead.store(true, Ordering::SeqCst);
            }
            return Err(e);
        }
        wal.len += frame.len() as u64;
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes_appended
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Write a full snapshot of `table` atomically (temp file → fsync
    /// → rename → dir sync), then reset the WAL (its frames are now
    /// covered) and prune superseded snapshot files. Callers must
    /// serialize against appends (the engines hold their `append_lock`
    /// across the pin + checkpoint) so no committed frame newer than
    /// `table` can be discarded.
    pub fn checkpoint(&self, table: &Table) -> Result<PathBuf, StorageError> {
        let result = self.checkpoint_inner(table);
        if result.is_err() {
            self.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn checkpoint_inner(&self, table: &Table) -> Result<PathBuf, StorageError> {
        let bytes = encode_snapshot(table);
        let final_name = format!("{SNAPSHOT_PREFIX}{:020}{SNAPSHOT_SUFFIX}", table.version());
        let final_path = self.dir.join(&final_name);
        let tmp_path = self.dir.join(format!("{final_name}.tmp"));
        let mut tmp = File::create(&tmp_path).map_err(|e| io_err("create snapshot tmp", e))?;
        let wseq = self.write_seq.fetch_add(1, Ordering::Relaxed);
        if self.fault.fires(FaultPoint::DiskWriteFail, wseq, 0) {
            // Short write: half the bytes land, then the disk errors.
            // The damaged tmp is left for the next open to sweep.
            let _ = tmp.write_all(&bytes[..bytes.len() / 2]);
            return Err(StorageError::Io(format!(
                "injected short snapshot write #{wseq}: {} of {} bytes reached disk",
                bytes.len() / 2,
                bytes.len()
            )));
        }
        tmp.write_all(&bytes)
            .map_err(|e| io_err("write snapshot", e))?;
        self.faulted_fsync(&tmp, "snapshot tmp")?;
        let cseq = self.checkpoint_seq.fetch_add(1, Ordering::Relaxed);
        if self.fault.fires(FaultPoint::CrashBeforeRename, cseq, 0) {
            // The complete, fsynced tmp exists but was never renamed —
            // exactly the state a crash between the two leaves behind.
            return Err(StorageError::Io(format!(
                "injected crash before snapshot rename (checkpoint #{cseq})"
            )));
        }
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err("rename snapshot", e))?;
        // Make the rename itself durable before touching the WAL.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        // Every WAL frame is ≤ the snapshot version now (checkpoint is
        // serialized against appends): reset the log and lift any
        // fail-stop poisoning.
        {
            let mut wal = lock_recover(&self.wal);
            wal.file
                .set_len(0)
                .map_err(|e| io_err("reset wal after checkpoint", e))?;
            wal.file
                .seek(SeekFrom::Start(0))
                .map_err(|e| io_err("seek wal", e))?;
            wal.file.sync_data().map_err(|e| io_err("fsync wal", e))?;
            wal.len = 0;
            self.wal_dead.store(false, Ordering::SeqCst);
        }
        // Prune superseded snapshots (best-effort; recovery would pick
        // the newest valid one regardless).
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let stale = name
                    .strip_prefix(SNAPSHOT_PREFIX)
                    .and_then(|s| s.strip_suffix(SNAPSHOT_SUFFIX))
                    .and_then(|s| s.parse::<u64>().ok())
                    .is_some_and(|v| v < table.version());
                if stale && fs::remove_file(entry.path()).is_ok() {
                    self.snapshots_pruned.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
        Ok(final_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "zv-persist-unit-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("year", DataType::Int),
            Field::new("product", DataType::Cat),
            Field::new("sales", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for (y, p, s) in [
            (2014, "chair", 10.25),
            (2015, "desk", -7.5),
            (2014, "desk", 0.125),
            (2016, "chair", 3.0),
        ] {
            b.push_row(vec![Value::Int(y), Value::str(p), Value::Float(s)])
                .unwrap();
        }
        b.finish()
    }

    fn assert_tables_identical(a: &Table, b: &Table) {
        assert_eq!(a.version(), b.version(), "versions must match");
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.num_rows(), b.num_rows());
        for i in 0..a.schema().len() {
            match (a.column_at(i), b.column_at(i)) {
                (Column::Int(x), Column::Int(y)) => assert_eq!(x, y),
                (Column::Float(x), Column::Float(y)) => {
                    let xb: Vec<u64> = x.to_vec().iter().map(|v| v.to_bits()).collect();
                    let yb: Vec<u64> = y.to_vec().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(xb, yb, "float column {i} must round-trip bit-for-bit");
                }
                (Column::Cat(x), Column::Cat(y)) => {
                    assert_eq!(x.dict(), y.dict(), "dictionary order must survive");
                    assert_eq!(x.codes(), y.codes());
                }
                _ => panic!("column {i} changed type"),
            }
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn snapshot_roundtrips_bit_for_bit() {
        let t = sample_table();
        let restored = decode_snapshot(&encode_snapshot(&t)).unwrap();
        assert_tables_identical(&t, &restored);
    }

    #[test]
    fn snapshot_rejects_any_flipped_byte() {
        let t = sample_table();
        let bytes = encode_snapshot(&t);
        // Every single-byte corruption must be detected (magic, format,
        // meta CRC, or a segment CRC catches it).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_snapshot(&bad).is_err(),
                "flipping byte {i} went undetected"
            );
        }
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn fresh_dir_then_appends_recover_exactly() {
        let dir = temp_dir("fresh");
        let t = sample_table();
        let (p, recovered) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        assert!(recovered.is_none(), "fresh dir has nothing to recover");
        p.checkpoint(&t).unwrap();

        let mut live = t.clone();
        let batch = vec![vec![
            Value::Int(2017),
            Value::str("lamp"),
            Value::Float(1.5),
        ]];
        live.append_rows(&batch).unwrap();
        p.log_append(live.version(), live.schema(), &batch).unwrap();
        let batch2 = vec![
            vec![Value::Int(2018), Value::str("desk"), Value::Float(2.5)],
            vec![Value::Int(2018), Value::str("sofa"), Value::Float(9.0)],
        ];
        live.append_rows(&batch2).unwrap();
        p.log_append(live.version(), live.schema(), &batch2)
            .unwrap();
        drop(p);

        let (p2, recovered) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        let recovered = recovered.expect("snapshot + wal must recover");
        assert_tables_identical(&live, &recovered);
        let report = p2.recovery_report();
        assert_eq!(report.snapshot_version, Some(t.version()));
        assert_eq!(report.recovered_version, Some(live.version()));
        assert_eq!(report.frames_replayed, 2);
        assert_eq!(report.rows_replayed, 3);
        assert_eq!(report.torn_bytes_truncated, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_is_truncated_not_served() {
        let dir = temp_dir("torn");
        let t = sample_table();
        let (p, _) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        p.checkpoint(&t).unwrap();
        let mut live = t.clone();
        let batch = vec![vec![Value::Int(2019), Value::str("rug"), Value::Float(4.5)]];
        live.append_rows(&batch).unwrap();
        p.log_append(live.version(), live.schema(), &batch).unwrap();
        let wal_path = p.wal_path();
        drop(p);

        // Tear 3 bytes off the committed frame: the whole frame must go.
        let full = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &full[..full.len() - 3]).unwrap();
        let (p2, recovered) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        let recovered = recovered.unwrap();
        assert_tables_identical(&t, &recovered);
        assert_eq!(p2.recovery_report().frames_replayed, 0);
        assert_eq!(
            p2.recovery_report().torn_bytes_truncated,
            full.len() as u64 - 3
        );
        assert_eq!(
            fs::metadata(&wal_path).unwrap().len(),
            0,
            "torn tail must be truncated on disk"
        );
        drop(p2);

        // Corrupt (not torn) tail: flip a payload byte so the CRC fails.
        fs::write(&wal_path, &full).unwrap();
        let mut corrupt = full.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        fs::write(&wal_path, &corrupt).unwrap();
        let (p3, recovered) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        assert_tables_identical(&t, &recovered.unwrap());
        assert_eq!(p3.recovery_report().frames_replayed, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_resets_wal_and_prunes_old_snapshots() {
        let dir = temp_dir("ckpt");
        let t = sample_table();
        let (p, _) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        p.checkpoint(&t).unwrap();
        let mut live = t.clone();
        let batch = vec![vec![
            Value::Int(2020),
            Value::str("desk"),
            Value::Float(8.0),
        ]];
        live.append_rows(&batch).unwrap();
        p.log_append(live.version(), live.schema(), &batch).unwrap();
        assert!(fs::metadata(p.wal_path()).unwrap().len() > 0);
        p.checkpoint(&live).unwrap();
        assert_eq!(fs::metadata(p.wal_path()).unwrap().len(), 0);
        let snaps: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(SNAPSHOT_SUFFIX))
            .collect();
        assert_eq!(snaps.len(), 1, "old snapshot must be pruned: {snaps:?}");
        assert!(snaps[0].contains(&format!("{:020}", live.version())));
        assert_eq!(p.stats().snapshots_pruned, 1);
        drop(p);
        let (_, recovered) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        assert_tables_identical(&live, &recovered.unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_without_snapshot_refuses_to_open() {
        let dir = temp_dir("orphan-wal");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(WAL_FILE), b"\x10\x00\x00\x00garbage").unwrap();
        let Err(err) = Persistence::open(&dir, PersistOptions::default()) else {
            panic!("orphan WAL must refuse to open");
        };
        assert!(matches!(err, StorageError::Io(_)), "got {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older() {
        let dir = temp_dir("fallback");
        let t = sample_table();
        let (p, _) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        p.checkpoint(&t).unwrap();
        // Write a newer, corrupt snapshot by hand.
        let mut newer = t.clone();
        newer
            .append_rows(&[vec![Value::Int(1), Value::str("x"), Value::Float(0.0)]])
            .unwrap();
        let mut bytes = encode_snapshot(&newer);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(
            dir.join(format!(
                "{SNAPSHOT_PREFIX}{:020}{SNAPSHOT_SUFFIX}",
                newer.version()
            )),
            &bytes,
        )
        .unwrap();
        drop(p);
        let (p2, recovered) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        assert_tables_identical(&t, &recovered.unwrap());
        assert_eq!(p2.recovery_report().corrupt_snapshots_skipped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_batch_fails_the_append_instead_of_poisoning_recovery() {
        let dir = temp_dir("oversized");
        let t = sample_table();
        let (p, _) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        p.checkpoint(&t).unwrap();
        let mut live = t.clone();

        // One row whose Cat value alone blows past MAX_WAL_FRAME. If
        // this frame reached the log, it would be fsynced and acked,
        // then truncated as torn garbage on the next open — silent loss
        // of acknowledged data. It must fail the append instead.
        let giant = vec![vec![
            Value::Int(2021),
            Value::Str("x".repeat(MAX_WAL_FRAME + 1)),
            Value::Float(1.0),
        ]];
        let err = p
            .log_append(live.version() + 1, live.schema(), &giant)
            .expect_err("oversized batch must be rejected");
        assert!(matches!(err, StorageError::Malformed(_)), "got {err:?}");
        assert_eq!(p.stats().wal_append_failures, 1);
        assert_eq!(
            fs::metadata(p.wal_path()).unwrap().len(),
            0,
            "no byte of the rejected batch may reach the log"
        );
        assert!(!p.wal_poisoned(), "a rejected encode never touched disk");

        // The log keeps working: a normal append after the rejection is
        // durable and recovery lands on it exactly.
        let batch = vec![vec![
            Value::Int(2022),
            Value::str("desk"),
            Value::Float(0.5),
        ]];
        live.append_rows(&batch).unwrap();
        p.log_append(live.version(), live.schema(), &batch).unwrap();
        drop(p);
        let (p2, recovered) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        assert_tables_identical(&live, &recovered.unwrap());
        assert_eq!(p2.recovery_report().torn_bytes_truncated, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_frame_encoders_agree_and_both_enforce_the_cap() {
        let t = sample_table();
        let rows: Vec<Vec<Value>> = (0..t.num_rows()).map(|i| t.row(i)).collect();
        // The columnar encoder must be byte-identical to the row one —
        // replay can't tell which path logged a frame.
        assert_eq!(
            encode_wal_frame_from_table(7, &t).unwrap(),
            encode_wal_frame(7, t.schema(), &rows).unwrap()
        );
        let mut giant = TableBuilder::new(t.schema().clone());
        giant
            .push_row(vec![
                Value::Int(1),
                Value::Str("y".repeat(MAX_WAL_FRAME + 1)),
                Value::Float(0.0),
            ])
            .unwrap();
        let giant = giant.finish();
        assert!(encode_wal_frame_from_table(7, &giant).is_err());
        let giant_rows = vec![giant.row(0)];
        assert!(encode_wal_frame(7, t.schema(), &giant_rows).is_err());
    }

    #[test]
    fn unreadable_newest_snapshot_falls_back_to_older() {
        let dir = temp_dir("unreadable");
        let t = sample_table();
        let (p, _) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        p.checkpoint(&t).unwrap();
        drop(p);
        // A "newer" snapshot whose fs::read fails outright (it's a
        // directory) — the same damaged-newest situation as a CRC
        // failure, and it must fall back the same way.
        fs::create_dir(dir.join(format!(
            "{SNAPSHOT_PREFIX}{:020}{SNAPSHOT_SUFFIX}",
            u64::MAX
        )))
        .unwrap();
        let (p2, recovered) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        assert_tables_identical(&t, &recovered.unwrap());
        assert_eq!(p2.recovery_report().corrupt_snapshots_skipped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tear_offset_is_deterministic_and_in_range() {
        for seq in 0..64u64 {
            for len in [1usize, 2, 13, 4096] {
                let a = wal_tear_offset(0xC0FFEE, seq, len);
                assert_eq!(a, wal_tear_offset(0xC0FFEE, seq, len));
                assert!(a < len, "torn offset must be strictly inside the frame");
            }
        }
        // Different seeds and sequences actually move the offset.
        let spread: std::collections::HashSet<usize> =
            (0..32).map(|seq| wal_tear_offset(1, seq, 10_000)).collect();
        assert!(spread.len() > 16, "offsets should spread: {spread:?}");
    }
}
