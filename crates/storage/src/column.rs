//! Typed columnar storage. Categorical columns are dictionary-encoded, as
//! in the zenvisage storage model (thesis §6.2): "we follow a column
//! oriented storage model".
//!
//! # Chunked lightweight encodings
//!
//! Integer columns and the dictionary codes of categorical columns are
//! stored as a sequence of *sealed chunks* (4096 rows each by default)
//! plus a plain mutable tail. When a chunk fills, one pass gathers its
//! stats (min, max, run count) and seals it under the cheapest encoding
//! ([`ChunkEncoding`]):
//!
//! | Encoding | Payload | Picked when |
//! |----------|---------|-------------|
//! | `Rle`    | `runs × (value + u16 end)`          | sorted/clustered data: fewest bytes of the three |
//! | `Packed` | `rows × width(max−min) bits`        | low-cardinality / narrow-range data: beats RLE and plain |
//! | `Plain`  | `rows × sizeof(T)`                  | neither encoding strictly shrinks the chunk (fallback — nothing ever regresses) |
//!
//! `Packed` is frame-of-reference bit-packing: each value is stored as
//! `value − chunk_min` in exactly `ceil(log2(max − min + 1))` bits, so
//! dictionary codes pack to the observed code width and dense integer
//! keys (years, ids) pack to their range. Selection is by strict byte
//! cost: in `Auto` mode an encoding is used only when its payload is
//! smaller than plain, so pathological data degrades to the plain layout
//! rather than growing. Per-chunk `(min, max)` stats are kept for every
//! sealed chunk; scans use them to short-circuit whole chunks and
//! `minmax` folds them instead of re-reading the data.
//!
//! The `ZV_ENCODING` environment knob overrides the policy process-wide
//! (read at column construction): `auto` (default) selects by cost,
//! `off`/`plain` disables sealing entirely, and `force` always seals to
//! the cheaper of RLE/packed *and* shrinks chunks to 64 rows so even
//! tiny proptest tables exercise the encoded paths. Invalid values panic
//! loudly rather than silently testing the default, mirroring
//! `ZV_SCHED_*`. Float columns ([`FloatColumn`]) use the same chunk
//! size but always stay plain: measures are consumed bit-for-bit by the
//! aggregation kernels and gain little from integer encodings. Their
//! sealed chunks still record `(min, max)`.
//!
//! # Shared sealed segments
//!
//! A sealed chunk is immutable, so every store holds its sealed chunks
//! as `Arc`'d segments, and a categorical column holds its dictionary
//! behind one `Arc`. Cloning a column (and so a
//! [`Table`](crate::table::Table)) copies one pointer per sealed chunk
//! plus the unsealed tail, which is under one chunk of rows; the clone
//! shares every sealed chunk with its parent. An append then writes only
//! into the clone's tail, seals new chunks of its own, and copies the
//! dictionary only when it interns a new value. Older versions, such as
//! a pinned snapshot, keep reading the same segments untouched.

use crate::value::{DataType, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Rows per sealed chunk under the default (`Auto`/`Off`) policy. A
/// power of two so row→chunk mapping is a shift; equal to the scan
/// chunk size in `exec` so full-chunk kernels usually see whole
/// segments, though nothing requires the two to stay aligned.
pub const ENC_CHUNK_ROWS: usize = 4096;

/// Rows per sealed chunk under [`EncodingMode::Force`] — small enough
/// that the 1..200-row proptest tables still seal encoded chunks.
pub const FORCE_CHUNK_ROWS: usize = 64;

/// How a column picks encodings at chunk-seal time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncodingMode {
    /// Per-chunk byte-cost comparison; plain wherever nothing shrinks.
    Auto,
    /// Never encode — every chunk stays plain (the PR-9-and-earlier
    /// layout, byte for byte).
    Off,
    /// Always seal to the cheaper of RLE/packed, even when plain would
    /// be smaller — for tests that must exercise encoded paths on
    /// arbitrary data.
    Force,
}

/// Per-column encoding policy: the mode plus the sealed-chunk size
/// (always a power of two).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EncodePolicy {
    pub mode: EncodingMode,
    /// log2 of rows per sealed chunk.
    pub shift: u32,
}

impl EncodePolicy {
    pub fn auto() -> Self {
        EncodePolicy {
            mode: EncodingMode::Auto,
            shift: ENC_CHUNK_ROWS.trailing_zeros(),
        }
    }

    pub fn off() -> Self {
        EncodePolicy {
            mode: EncodingMode::Off,
            shift: ENC_CHUNK_ROWS.trailing_zeros(),
        }
    }

    pub fn force() -> Self {
        EncodePolicy {
            mode: EncodingMode::Force,
            shift: FORCE_CHUNK_ROWS.trailing_zeros(),
        }
    }

    /// Resolve the process-wide policy from `ZV_ENCODING`. Unset /
    /// empty / `auto` → [`EncodePolicy::auto`]; `off` or `plain` →
    /// [`EncodePolicy::off`]; `force` → [`EncodePolicy::force`].
    /// Anything else panics loudly — a typo'd CI leg must fail, not
    /// silently test the default (same contract as `ZV_SCHED_*`).
    pub fn from_env() -> Self {
        match std::env::var("ZV_ENCODING") {
            Ok(raw) => Self::from_spec(&raw),
            Err(_) => Self::auto(),
        }
    }

    fn from_spec(raw: &str) -> Self {
        match raw.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Self::auto(),
            "off" | "plain" => Self::off(),
            "force" => Self::force(),
            other => panic!(
                "ZV_ENCODING={other:?} is not a valid encoding mode \
                 (expected auto, off, plain, or force)"
            ),
        }
    }
}

/// Values storable in a [`Chunked`] store: fixed-width integers with a
/// frame-of-reference delta representation.
pub trait Coded: Copy + Ord + std::fmt::Debug + Send + Sync + 'static {
    /// Bytes per value in the plain layout.
    const WIDTH_BYTES: usize;
    /// `self − min` as an unsigned delta (callers guarantee `min ≤ self`).
    fn delta(self, min: Self) -> u64;
    /// Inverse of [`Coded::delta`].
    fn from_delta(min: Self, d: u64) -> Self;
}

impl Coded for i64 {
    const WIDTH_BYTES: usize = 8;
    #[inline(always)]
    fn delta(self, min: Self) -> u64 {
        self.wrapping_sub(min) as u64
    }
    #[inline(always)]
    fn from_delta(min: Self, d: u64) -> Self {
        min.wrapping_add(d as i64)
    }
}

impl Coded for u32 {
    const WIDTH_BYTES: usize = 4;
    #[inline(always)]
    fn delta(self, min: Self) -> u64 {
        (self - min) as u64
    }
    #[inline(always)]
    fn from_delta(min: Self, d: u64) -> Self {
        min + d as u32
    }
}

/// One sealed chunk under a chosen [`ChunkEncoding`].
#[derive(Clone, Debug, PartialEq)]
pub enum EncChunk<T> {
    /// Uncompressed values (the fallback layout).
    Plain(Vec<T>),
    /// Frame-of-reference bit-packing: value `i` is
    /// `min + bits[i·width .. (i+1)·width]`. `width == 0` encodes a
    /// constant chunk with no payload words at all.
    Packed { min: T, width: u32, words: Vec<u64> },
    /// Run-length encoding: `(value, exclusive end offset)` with ends
    /// strictly increasing and the last end equal to the chunk length.
    Rle(Vec<(T, u16)>),
}

/// Discriminant-only view of a chunk's encoding, for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkEncoding {
    Plain,
    Packed,
    Rle,
}

/// Per-encoding chunk census of one column (compression reporting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodingCounts {
    pub plain: usize,
    pub packed: usize,
    pub rle: usize,
    /// Rows still in the mutable plain tail (not yet sealed).
    pub tail_rows: usize,
}

impl EncodingCounts {
    pub fn merge(&mut self, other: &EncodingCounts) {
        self.plain += other.plain;
        self.packed += other.packed;
        self.rle += other.rle;
        self.tail_rows += other.tail_rows;
    }
}

/// Borrowed view of one storage segment (a sealed chunk or the tail).
#[derive(Clone, Copy, Debug)]
pub enum SegRef<'a, T> {
    Plain(&'a [T]),
    Packed {
        min: T,
        width: u32,
        words: &'a [u64],
    },
    Rle(&'a [(T, u16)]),
}

/// One storage segment located by row id: its base row, row count,
/// sealed-time stats (`None` for the mutable tail), and data view.
#[derive(Clone, Copy, Debug)]
pub struct Segment<'a, T> {
    pub base: usize,
    pub len: usize,
    /// `(min, max)` gathered when the chunk was sealed; `None` for the
    /// tail (scan kernels skip stat short-circuits there).
    pub stat: Option<(T, T)>,
    pub data: SegRef<'a, T>,
}

/// Extract packed value `i` (the delta, before adding `min`) from a
/// frame-of-reference bit-packed word array. Values span at most two
/// words because `width ≤ 64`.
#[inline(always)]
pub fn packed_delta(words: &[u64], width: u32, i: usize) -> u64 {
    debug_assert!(width > 0);
    let bit = i * width as usize;
    let w = bit >> 6;
    let off = (bit & 63) as u32;
    let mut d = words[w] >> off;
    if off + width > 64 {
        d |= words[w + 1] << (64 - off);
    }
    if width < 64 {
        d &= (1u64 << width) - 1;
    }
    d
}

/// A chunked, per-chunk-encoded store of fixed-width values: sealed
/// chunks (encoded at seal time by byte cost) plus a plain mutable
/// tail. Append-only — the `Table` mutation model never truncates.
///
/// A sealed chunk never changes again, so each one is an `Arc`'d
/// segment: cloning the store copies one pointer per sealed chunk plus
/// the tail (under one chunk of rows), and the clone shares every
/// sealed chunk with the original. That is what makes a table version
/// cost O(delta) to derive from its parent.
#[derive(Clone, Debug)]
pub struct Chunked<T: Coded> {
    /// log2 of rows per sealed chunk.
    shift: u32,
    mode: EncodingMode,
    chunks: Vec<Arc<EncChunk<T>>>,
    /// `(min, max)` per sealed chunk, parallel to `chunks`.
    stats: Vec<(T, T)>,
    tail: Vec<T>,
}

pub type IntColumn = Chunked<i64>;
pub type CodeColumn = Chunked<u32>;

/// Borrowed view of a [`Chunked`] store's serialized parts: `(shift,
/// sealed chunks, per-chunk stats, plain tail)` — see [`Chunked::parts`].
pub type ChunkedParts<'a, T> = (u32, &'a [Arc<EncChunk<T>>], &'a [(T, T)], &'a [T]);

impl<T: Coded> Chunked<T> {
    pub fn new(policy: EncodePolicy) -> Self {
        Chunked {
            shift: policy.shift,
            mode: policy.mode,
            chunks: Vec::new(),
            stats: Vec::new(),
            tail: Vec::new(),
        }
    }

    pub fn with_env_policy() -> Self {
        Self::new(EncodePolicy::from_env())
    }

    pub fn from_vec(vals: Vec<T>, policy: EncodePolicy) -> Self {
        let mut c = Self::new(policy);
        c.extend(vals);
        c
    }

    /// Reassemble a store from its serialized parts (snapshot load).
    /// The caller has already structurally validated the chunks; chunk
    /// sizes must match `1 << shift` except that no chunk may be empty.
    pub fn from_parts(
        shift: u32,
        mode: EncodingMode,
        chunks: Vec<EncChunk<T>>,
        stats: Vec<(T, T)>,
        tail: Vec<T>,
    ) -> Self {
        debug_assert_eq!(chunks.len(), stats.len());
        Chunked {
            shift,
            mode,
            chunks: chunks.into_iter().map(Arc::new).collect(),
            stats,
            tail,
        }
    }

    /// The serialized parts: `(shift, sealed chunks, per-chunk stats,
    /// plain tail)` — what `persist` writes verbatim. Two stores that
    /// share a sealed chunk hold the same `Arc`.
    pub fn parts(&self) -> ChunkedParts<'_, T> {
        (self.shift, &self.chunks, &self.stats, &self.tail)
    }

    #[inline]
    pub fn len(&self) -> usize {
        (self.chunks.len() << self.shift) + self.tail.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty() && self.tail.is_empty()
    }

    #[inline]
    fn chunk_rows(&self) -> usize {
        1usize << self.shift
    }

    #[inline]
    fn sealed_rows(&self) -> usize {
        self.chunks.len() << self.shift
    }

    pub fn push(&mut self, v: T) {
        self.tail.push(v);
        if self.tail.len() == self.chunk_rows() {
            self.seal_tail();
        }
    }

    pub fn extend(&mut self, vals: impl IntoIterator<Item = T>) {
        for v in vals {
            self.push(v);
        }
    }

    /// Append every value of `other`. When both stores share a shift
    /// and this tail is empty, `other`'s sealed chunks are shared, not
    /// re-encoded — the common bulk-append case.
    pub fn append_from(&mut self, other: &Chunked<T>) {
        if self.tail.is_empty() && self.shift == other.shift {
            self.chunks.extend(other.chunks.iter().cloned());
            self.stats.extend(other.stats.iter().copied());
            self.tail.extend_from_slice(&other.tail);
            if self.tail.len() == self.chunk_rows() {
                self.seal_tail();
            }
            return;
        }
        other.for_each_range(0, other.len(), |_, v| self.push(v));
    }

    fn seal_tail(&mut self) {
        debug_assert_eq!(self.tail.len(), self.chunk_rows());
        let vals = &self.tail;
        let mut min = vals[0];
        let mut max = vals[0];
        let mut runs = 1usize;
        for w in vals.windows(2) {
            if w[1] < min {
                min = w[1];
            }
            if w[1] > max {
                max = w[1];
            }
            if w[1] != w[0] {
                runs += 1;
            }
        }
        let chunk = encode_chunk(vals, min, max, runs, self.mode);
        self.chunks.push(Arc::new(chunk));
        self.stats.push((min, max));
        self.tail.clear();
    }

    /// Random access. Sealed packed chunks pay a two-word bit extract,
    /// RLE chunks a binary search on run ends.
    #[inline]
    pub fn get(&self, row: usize) -> T {
        let chunk = row >> self.shift;
        if chunk >= self.chunks.len() {
            return self.tail[row - self.sealed_rows()];
        }
        let off = row & (self.chunk_rows() - 1);
        match &*self.chunks[chunk] {
            EncChunk::Plain(v) => v[off],
            EncChunk::Packed { min, width, words } => {
                if *width == 0 {
                    *min
                } else {
                    T::from_delta(*min, packed_delta(words, *width, off))
                }
            }
            EncChunk::Rle(runs) => {
                let i = runs.partition_point(|&(_, end)| (end as usize) <= off);
                runs[i].0
            }
        }
    }

    /// The storage segment containing `row` (sealed chunk or tail).
    #[inline]
    pub fn segment(&self, row: usize) -> Segment<'_, T> {
        let chunk = row >> self.shift;
        if chunk >= self.chunks.len() {
            return Segment {
                base: self.sealed_rows(),
                len: self.tail.len(),
                stat: None,
                data: SegRef::Plain(&self.tail),
            };
        }
        let data = match &*self.chunks[chunk] {
            EncChunk::Plain(v) => SegRef::Plain(v),
            EncChunk::Packed { min, width, words } => SegRef::Packed {
                min: *min,
                width: *width,
                words,
            },
            EncChunk::Rle(runs) => SegRef::Rle(runs),
        };
        Segment {
            base: chunk << self.shift,
            len: self.chunk_rows(),
            stat: Some(self.stats[chunk]),
            data,
        }
    }

    /// Sequential decode of rows `start..end`, run- and word-aware.
    pub fn for_each_range(&self, start: usize, end: usize, mut f: impl FnMut(usize, T)) {
        debug_assert!(start <= end && end <= self.len());
        let mut row = start;
        while row < end {
            let seg = self.segment(row);
            let stop = end.min(seg.base + seg.len);
            match seg.data {
                SegRef::Plain(v) => {
                    for r in row..stop {
                        f(r, v[r - seg.base]);
                    }
                }
                SegRef::Packed { min, width, words } => {
                    if width == 0 {
                        for r in row..stop {
                            f(r, min);
                        }
                    } else {
                        for r in row..stop {
                            f(
                                r,
                                T::from_delta(min, packed_delta(words, width, r - seg.base)),
                            );
                        }
                    }
                }
                SegRef::Rle(runs) => {
                    let mut off = row - seg.base;
                    let mut i = runs.partition_point(|&(_, end)| (end as usize) <= off);
                    while off < stop - seg.base {
                        let (v, run_end) = runs[i];
                        let run_stop = (run_end as usize).min(stop - seg.base);
                        for o in off..run_stop {
                            f(seg.base + o, v);
                        }
                        off = run_stop;
                        i += 1;
                    }
                }
            }
            row = stop;
        }
    }

    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_range(0, self.len(), |_, v| out.push(v));
        out
    }

    /// `(min, max)` over rows `start..end`, folding sealed-chunk stats
    /// for fully covered chunks and scanning only the partial edges —
    /// O(chunks + edge rows), not O(rows).
    pub fn minmax(&self, start: usize, end: usize) -> Option<(T, T)> {
        if start >= end {
            return None;
        }
        let mut acc: Option<(T, T)> = None;
        let mut fold = |lo: T, hi: T| {
            acc = Some(match acc {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
        };
        let mut row = start;
        while row < end {
            let seg = self.segment(row);
            let stop = end.min(seg.base + seg.len);
            match seg.stat {
                Some((lo, hi)) if row == seg.base && stop == seg.base + seg.len => fold(lo, hi),
                _ => {
                    let mut lo: Option<(T, T)> = None;
                    self.for_each_range(row, stop, |_, v| {
                        lo = Some(match lo {
                            None => (v, v),
                            Some((a, b)) => (a.min(v), b.max(v)),
                        });
                    });
                    if let Some((a, b)) = lo {
                        fold(a, b);
                    }
                }
            }
            row = stop;
        }
        acc
    }

    /// Rows [`Chunked::minmax`] would actually *decode* for
    /// `[start, end)` — partial edge chunks plus the tail; fully covered
    /// sealed chunks answer from their stored stats and cost zero. This
    /// is the accounting behind the O(delta) append guarantee: a
    /// full-column stat recompute after a batch append decodes at most
    /// one chunk of tail rows no matter how large the table has grown.
    #[cfg(test)]
    pub(crate) fn stat_scan_rows(&self, start: usize, end: usize) -> usize {
        let mut rows = 0;
        let mut row = start.min(self.len());
        let end = end.min(self.len());
        while row < end {
            let seg = self.segment(row);
            let stop = end.min(seg.base + seg.len);
            match seg.stat {
                Some(_) if row == seg.base && stop == seg.base + seg.len => {}
                _ => rows += stop - row,
            }
            row = stop;
        }
        rows
    }

    /// Heap bytes held by the encoded payloads (compression reporting).
    pub fn heap_bytes(&self) -> usize {
        let chunk_bytes: usize = self
            .chunks
            .iter()
            .map(|c| match &**c {
                EncChunk::Plain(v) => v.len() * T::WIDTH_BYTES,
                EncChunk::Packed { words, .. } => words.len() * 8,
                EncChunk::Rle(runs) => runs.len() * (T::WIDTH_BYTES + 2),
            })
            .sum();
        chunk_bytes + self.tail.len() * T::WIDTH_BYTES + self.stats.len() * 2 * T::WIDTH_BYTES
    }

    pub fn encoding_counts(&self) -> EncodingCounts {
        let mut counts = EncodingCounts {
            tail_rows: self.tail.len(),
            ..Default::default()
        };
        for c in &self.chunks {
            match **c {
                EncChunk::Plain(_) => counts.plain += 1,
                EncChunk::Packed { .. } => counts.packed += 1,
                EncChunk::Rle(_) => counts.rle += 1,
            }
        }
        counts
    }
}

/// Value equality — two stores are equal when they hold the same rows,
/// regardless of how each one chunked or encoded them.
impl<T: Coded> PartialEq for Chunked<T> {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut eq = true;
        self.for_each_range(0, self.len(), |row, v| {
            if eq && other.get(row) != v {
                eq = false;
            }
        });
        eq
    }
}

impl<T: Coded> FromIterator<T> for Chunked<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut c = Self::with_env_policy();
        c.extend(iter);
        c
    }
}

impl<T: Coded> From<Vec<T>> for Chunked<T> {
    fn from(vals: Vec<T>) -> Self {
        Self::from_vec(vals, EncodePolicy::from_env())
    }
}

/// Seal one full chunk under the policy's selection rule (see the
/// module docs for the cost table).
fn encode_chunk<T: Coded>(
    vals: &[T],
    min: T,
    max: T,
    runs: usize,
    mode: EncodingMode,
) -> EncChunk<T> {
    if mode == EncodingMode::Off {
        return EncChunk::Plain(vals.to_vec());
    }
    let range = max.delta(min);
    let width = 64 - range.leading_zeros();
    let cost_packed = (vals.len() * width as usize).div_ceil(64) * 8;
    let cost_rle = runs * (T::WIDTH_BYTES + 2);
    let cost_plain = vals.len() * T::WIDTH_BYTES;
    let best_encoded = cost_rle.min(cost_packed);
    if mode == EncodingMode::Auto && best_encoded >= cost_plain {
        return EncChunk::Plain(vals.to_vec());
    }
    if cost_rle < cost_packed {
        let mut runs_out: Vec<(T, u16)> = Vec::with_capacity(runs);
        for (i, &v) in vals.iter().enumerate() {
            match runs_out.last_mut() {
                Some(last) if last.0 == v => last.1 = (i + 1) as u16,
                _ => runs_out.push((v, (i + 1) as u16)),
            }
        }
        EncChunk::Rle(runs_out)
    } else if width == 0 {
        EncChunk::Packed {
            min,
            width: 0,
            words: Vec::new(),
        }
    } else {
        let mut words = vec![0u64; (vals.len() * width as usize).div_ceil(64)];
        let mut bit = 0usize;
        for &v in vals {
            let d = v.delta(min);
            let w = bit >> 6;
            let off = (bit & 63) as u32;
            words[w] |= d << off;
            if off + width > 64 {
                words[w + 1] = d >> (64 - off);
            }
            bit += width as usize;
        }
        EncChunk::Packed { min, width, words }
    }
}

/// A float column, chunked like [`Chunked`] (the policy's chunk size)
/// but never encoded: measures are consumed bit for bit by the
/// aggregation kernels. Each sealed chunk is an `Arc`'d slice shared
/// with every clone, with its `(min, max)` recorded at seal (NaN is
/// skipped, as `f64::min`/`f64::max` skip it); the tail holds under one
/// chunk of rows. Scan kernels read whole slices
/// ([`FloatColumn::for_each_slice`]) rather than looking up a chunk per
/// row.
#[derive(Clone, Debug)]
pub struct FloatColumn {
    /// log2 of rows per sealed chunk.
    shift: u32,
    chunks: Vec<Arc<[f64]>>,
    /// `(min, max)` per sealed chunk, parallel to `chunks`.
    stats: Vec<(f64, f64)>,
    tail: Vec<f64>,
}

/// Borrowed view of a [`FloatColumn`]'s parts: `(shift, sealed chunks,
/// per-chunk stats, tail)` — see [`FloatColumn::parts`].
pub type FloatParts<'a> = (u32, &'a [Arc<[f64]>], &'a [(f64, f64)], &'a [f64]);

/// `(min, max)` of `vals`, skipping NaN; `(∞, −∞)` when nothing is left.
fn minmax_f64(vals: &[f64]) -> (f64, f64) {
    vals.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

impl FloatColumn {
    pub fn new(policy: EncodePolicy) -> Self {
        FloatColumn {
            shift: policy.shift,
            chunks: Vec::new(),
            stats: Vec::new(),
            tail: Vec::new(),
        }
    }

    pub fn with_env_policy() -> Self {
        Self::new(EncodePolicy::from_env())
    }

    pub fn from_vec(vals: Vec<f64>, policy: EncodePolicy) -> Self {
        let mut c = Self::new(policy);
        let full = vals.len() >> c.shift << c.shift;
        for chunk in vals[..full].chunks_exact(c.chunk_rows()) {
            c.stats.push(minmax_f64(chunk));
            c.chunks.push(Arc::from(chunk));
        }
        c.tail.extend_from_slice(&vals[full..]);
        c
    }

    #[inline]
    pub fn len(&self) -> usize {
        (self.chunks.len() << self.shift) + self.tail.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty() && self.tail.is_empty()
    }

    #[inline]
    fn chunk_rows(&self) -> usize {
        1usize << self.shift
    }

    pub fn push(&mut self, v: f64) {
        self.tail.push(v);
        if self.tail.len() == self.chunk_rows() {
            self.stats.push(minmax_f64(&self.tail));
            self.chunks.push(Arc::from(&self.tail[..]));
            self.tail.clear();
        }
    }

    /// Append every value of `other`. When both columns share a chunk
    /// size and this tail is empty, `other`'s sealed chunks are shared.
    pub fn append_from(&mut self, other: &FloatColumn) {
        if self.tail.is_empty() && self.shift == other.shift {
            self.chunks.extend(other.chunks.iter().cloned());
            self.stats.extend_from_slice(&other.stats);
            for &v in &other.tail {
                self.push(v);
            }
            return;
        }
        other.for_each_slice(0, other.len(), |_, vals| {
            for &v in vals {
                self.push(v);
            }
        });
    }

    /// The segment (sealed chunk or tail) holding `row`: its first row
    /// and its values.
    #[inline]
    pub fn segment(&self, row: usize) -> (usize, &[f64]) {
        let chunk = row >> self.shift;
        match self.chunks.get(chunk) {
            Some(c) => (chunk << self.shift, c),
            None => (self.chunks.len() << self.shift, &self.tail),
        }
    }

    #[inline]
    pub fn get(&self, row: usize) -> f64 {
        let (base, vals) = self.segment(row);
        vals[row - base]
    }

    /// Call `f(first_row, values)` for each piece of rows `start..end`
    /// that lies in one segment, in row order — one call per segment
    /// touched, so a window no longer than a chunk makes at most two.
    #[inline]
    pub fn for_each_slice(&self, start: usize, end: usize, mut f: impl FnMut(usize, &[f64])) {
        debug_assert!(start <= end && end <= self.len());
        let mut row = start;
        while row < end {
            let (base, vals) = self.segment(row);
            let stop = end.min(base + vals.len());
            f(row, &vals[row - base..stop - base]);
            row = stop;
        }
    }

    /// `(min, max)` over rows `start..end`, skipping NaN (`(∞, −∞)` when
    /// every row is NaN): sealed-chunk stats answer fully covered
    /// chunks, so only the partial edges are read. `None` for an empty
    /// range.
    pub fn minmax(&self, start: usize, end: usize) -> Option<(f64, f64)> {
        if start >= end {
            return None;
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        self.for_each_slice(start, end, |row, vals| {
            let chunk = row >> self.shift;
            let (a, b) = if row & (self.chunk_rows() - 1) == 0
                && vals.len() == self.chunk_rows()
                && chunk < self.chunks.len()
            {
                self.stats[chunk]
            } else {
                minmax_f64(vals)
            };
            lo = lo.min(a);
            hi = hi.max(b);
        });
        Some((lo, hi))
    }

    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_slice(0, self.len(), |_, vals| out.extend_from_slice(vals));
        out
    }

    /// `(shift, sealed chunks, per-chunk stats, tail)`. Two columns
    /// that share a sealed chunk hold the same `Arc`.
    pub fn parts(&self) -> FloatParts<'_> {
        (self.shift, &self.chunks, &self.stats, &self.tail)
    }

    /// Heap bytes held by the values and the chunk stats.
    pub fn heap_bytes(&self) -> usize {
        self.len() * 8 + self.stats.len() * 16
    }
}

impl From<Vec<f64>> for FloatColumn {
    fn from(vals: Vec<f64>) -> Self {
        Self::from_vec(vals, EncodePolicy::from_env())
    }
}

/// The dictionary of a [`CatColumn`]: distinct values in first-seen
/// order (code `i` means `values[i]`) and the reverse lookup.
#[derive(Clone, Debug, Default)]
struct Dict {
    values: Vec<String>,
    lookup: HashMap<String, u32>,
}

/// A dictionary-encoded string column. Codes live in a chunked,
/// per-chunk-encoded store ([`CodeColumn`]), bit-packed to the observed
/// dictionary width (or run-length encoded when values cluster). The
/// dictionary sits behind one `Arc`, shared by every clone and copied
/// only when an append interns a value it does not hold yet.
#[derive(Clone, Debug)]
pub struct CatColumn {
    dict: Arc<Dict>,
    codes: CodeColumn,
}

impl Default for CatColumn {
    fn default() -> Self {
        Self::new()
    }
}

impl CatColumn {
    pub fn new() -> Self {
        Self::with_policy(EncodePolicy::from_env())
    }

    pub fn with_policy(policy: EncodePolicy) -> Self {
        CatColumn {
            dict: Arc::default(),
            codes: CodeColumn::new(policy),
        }
    }

    pub fn push(&mut self, v: &str) {
        let code = self.intern(v);
        self.codes.push(code);
    }

    /// Get-or-insert a dictionary code without appending a row.
    pub fn intern(&mut self, v: &str) -> u32 {
        if let Some(&c) = self.dict.lookup.get(v) {
            return c;
        }
        let dict = Arc::make_mut(&mut self.dict);
        let c = dict.values.len() as u32;
        dict.values.push(v.to_string());
        dict.lookup.insert(v.to_string(), c);
        c
    }

    /// Append a row by pre-interned dictionary code (the fast generator
    /// path — avoids per-row string hashing).
    pub fn push_code(&mut self, code: u32) {
        debug_assert!(
            (code as usize) < self.dict.values.len(),
            "code {code} not interned"
        );
        self.codes.push(code);
    }

    pub fn code_of(&self, v: &str) -> Option<u32> {
        self.dict.lookup.get(v).copied()
    }

    pub fn decode(&self, code: u32) -> &str {
        &self.dict.values[code as usize]
    }

    /// The chunked code store.
    pub fn codes(&self) -> &CodeColumn {
        &self.codes
    }

    /// The dictionary code at `row`.
    #[inline]
    pub fn code_at(&self, row: usize) -> u32 {
        self.codes.get(row)
    }

    /// Rebuild from serialized parts (snapshot load).
    pub fn from_parts(dict: Vec<String>, codes: CodeColumn) -> Self {
        let lookup = dict
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect();
        CatColumn {
            dict: Arc::new(Dict {
                values: dict,
                lookup,
            }),
            codes,
        }
    }

    pub fn dict(&self) -> &[String] {
        &self.dict.values
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> usize {
        self.dict.values.len()
    }

    pub fn len(&self) -> usize {
        self.codes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }
}

/// One column of a [`crate::table::Table`].
#[derive(Clone, Debug)]
pub enum Column {
    Int(IntColumn),
    Float(FloatColumn),
    Cat(CatColumn),
}

impl Column {
    pub fn new(dtype: DataType) -> Self {
        Self::with_policy(dtype, EncodePolicy::from_env())
    }

    /// Construct with an explicit encoding policy (tests compare
    /// per-policy stores without racing on the environment).
    pub fn with_policy(dtype: DataType, policy: EncodePolicy) -> Self {
        match dtype {
            DataType::Int => Column::Int(IntColumn::new(policy)),
            DataType::Float => Column::Float(FloatColumn::new(policy)),
            DataType::Cat => Column::Cat(CatColumn::with_policy(policy)),
        }
    }

    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Cat(_) => DataType::Cat,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Cat(c) => c.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`Column::push`] would accept `v` (same coercion rules),
    /// without mutating anything — used to pre-validate batch appends.
    pub fn accepts(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (Column::Int(_), Value::Int(_) | Value::Float(_))
                | (Column::Float(_), Value::Int(_) | Value::Float(_))
                | (Column::Cat(_), Value::Str(_))
        )
    }

    /// Append every row of `other` onto this column. Numeric columns
    /// extend value-at-a-time (sealed chunks are shared when the layouts
    /// line up); categorical columns remap the other dictionary's codes
    /// through a translation table built once per call (an identity
    /// remap also shares chunks).
    pub fn append(&mut self, other: &Column) -> Result<(), String> {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a.append_from(b),
            (Column::Float(a), Column::Float(b)) => a.append_from(b),
            (Column::Cat(a), Column::Cat(b)) => {
                let remap: Vec<u32> = b.dict().iter().map(|s| a.intern(s)).collect();
                if remap.iter().enumerate().all(|(i, &c)| i as u32 == c) {
                    a.codes.append_from(&b.codes);
                } else {
                    b.codes.for_each_range(0, b.len(), |_, code| {
                        a.codes.push(remap[code as usize]);
                    });
                }
            }
            (a, b) => {
                return Err(format!(
                    "cannot append {} column onto {} column",
                    b.dtype(),
                    a.dtype()
                ))
            }
        }
        Ok(())
    }

    pub fn push(&mut self, v: &Value) -> Result<(), String> {
        match (self, v) {
            (Column::Int(col), Value::Int(i)) => col.push(*i),
            (Column::Int(col), Value::Float(f)) => col.push(*f as i64),
            (Column::Float(col), Value::Float(f)) => col.push(*f),
            (Column::Float(col), Value::Int(i)) => col.push(*i as f64),
            (Column::Cat(col), Value::Str(s)) => col.push(s),
            (col, v) => {
                return Err(format!(
                    "type mismatch: cannot store {v:?} in {} column",
                    col.dtype()
                ))
            }
        }
        Ok(())
    }

    pub fn get(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v.get(row)),
            Column::Float(v) => Value::Float(v.get(row)),
            Column::Cat(c) => Value::Str(c.decode(c.code_at(row)).to_string()),
        }
    }

    /// Numeric view of a row (cat columns have no numeric view).
    #[inline]
    pub fn get_f64(&self, row: usize) -> Option<f64> {
        match self {
            Column::Int(v) => Some(v.get(row) as f64),
            Column::Float(v) => Some(v.get(row)),
            Column::Cat(_) => None,
        }
    }

    pub fn as_cat(&self) -> Option<&CatColumn> {
        match self {
            Column::Cat(c) => Some(c),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<&IntColumn> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<&FloatColumn> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Distinct values in a canonical order: dictionary order for cat
    /// columns (first-seen), ascending for numeric columns.
    pub fn distinct_values(&self) -> Vec<Value> {
        match self {
            Column::Cat(c) => c.dict().iter().map(|s| Value::str(s.clone())).collect(),
            Column::Int(v) => {
                let mut d: Vec<i64> = v.to_vec();
                d.sort_unstable();
                d.dedup();
                d.into_iter().map(Value::Int).collect()
            }
            Column::Float(v) => {
                let mut d: Vec<f64> = v.to_vec();
                d.sort_by(|a, b| a.total_cmp(b));
                d.dedup_by(|a, b| a.to_bits() == b.to_bits());
                d.into_iter().map(Value::Float).collect()
            }
        }
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> usize {
        match self {
            Column::Cat(c) => c.cardinality(),
            _ => self.distinct_values().len(),
        }
    }

    /// Heap bytes held by this column's data payloads.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Column::Int(v) => v.heap_bytes(),
            Column::Float(v) => v.heap_bytes(),
            Column::Cat(c) => {
                c.codes().heap_bytes() + c.dict().iter().map(|s| s.len() + 24).sum::<usize>()
            }
        }
    }

    /// Per-encoding chunk census for Int/Cat columns (`None` for
    /// floats, which are never encoded).
    pub fn encoding_counts(&self) -> Option<EncodingCounts> {
        match self {
            Column::Int(v) => Some(v.encoding_counts()),
            Column::Cat(c) => Some(c.codes().encoding_counts()),
            Column::Float(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cat_column_interning() {
        let mut c = CatColumn::new();
        c.push("US");
        c.push("UK");
        c.push("US");
        assert_eq!(c.len(), 3);
        assert_eq!(c.cardinality(), 2);
        assert_eq!(c.codes().to_vec(), vec![0, 1, 0]);
        assert_eq!(c.decode(1), "UK");
        assert_eq!(c.code_of("US"), Some(0));
        assert_eq!(c.code_of("FR"), None);
    }

    #[test]
    fn column_push_and_get() {
        let mut c = Column::new(DataType::Int);
        c.push(&Value::Int(7)).unwrap();
        c.push(&Value::Float(2.9)).unwrap(); // coerced
        assert_eq!(c.get(0), Value::Int(7));
        assert_eq!(c.get(1), Value::Int(2));
        assert!(c.push(&Value::str("oops")).is_err());
    }

    #[test]
    fn append_remaps_codes_and_rejects_type_mismatch() {
        let mut a = Column::new(DataType::Cat);
        for v in ["US", "UK"] {
            a.push(&Value::str(v)).unwrap();
        }
        let mut b = Column::new(DataType::Cat);
        for v in ["FR", "UK"] {
            b.push(&Value::str(v)).unwrap();
        }
        a.append(&b).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(2), Value::str("FR"));
        assert_eq!(a.get(3), Value::str("UK"));
        assert_eq!(a.cardinality(), 3);

        let mut ints = Column::new(DataType::Int);
        ints.append(&Column::Int(vec![1, 2].into())).unwrap();
        assert_eq!(ints.len(), 2);
        assert!(ints.append(&b).is_err());
        assert!(ints.accepts(&Value::Int(1)));
        assert!(ints.accepts(&Value::Float(1.5)));
        assert!(!ints.accepts(&Value::str("x")));
    }

    #[test]
    fn distinct_values_ordering() {
        let mut c = Column::new(DataType::Int);
        for v in [3i64, 1, 3, 2] {
            c.push(&Value::Int(v)).unwrap();
        }
        assert_eq!(
            c.distinct_values(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );

        let mut c = Column::new(DataType::Cat);
        for v in ["b", "a", "b"] {
            c.push(&Value::str(v)).unwrap();
        }
        // first-seen dictionary order, not alphabetical
        assert_eq!(c.distinct_values(), vec![Value::str("b"), Value::str("a")]);
        assert_eq!(c.cardinality(), 2);
    }

    /// Reference data generator: a mix of constant stretches (RLE bait),
    /// a narrow modular range (packing bait), and spikes (plain bait).
    fn mixed_vals(n: usize) -> Vec<i64> {
        (0..n)
            .map(|i| match i / 700 % 3 {
                0 => 42,
                1 => (i % 37) as i64,
                _ => (i as i64).wrapping_mul(0x9e37_79b9_7f4a_7c15u64 as i64),
            })
            .collect()
    }

    #[test]
    fn chunked_roundtrips_under_every_policy() {
        let vals = mixed_vals(10_000);
        for policy in [
            EncodePolicy::auto(),
            EncodePolicy::off(),
            EncodePolicy::force(),
        ] {
            let c = IntColumn::from_vec(vals.clone(), policy);
            assert_eq!(c.len(), vals.len());
            assert_eq!(c.to_vec(), vals, "sequential decode ({policy:?})");
            for &row in &[0usize, 1, 63, 64, 699, 700, 4095, 4096, 9000, 9999] {
                assert_eq!(
                    c.get(row),
                    vals[row],
                    "random access row {row} ({policy:?})"
                );
            }
        }
    }

    #[test]
    fn auto_policy_picks_each_encoding_where_it_wins() {
        let n = ENC_CHUNK_ROWS;
        let constant = IntColumn::from_vec(vec![7i64; n], EncodePolicy::auto());
        assert_eq!(
            constant.encoding_counts().packed,
            1,
            "constant chunk → width-0 packing (zero payload beats RLE)"
        );
        let sorted = IntColumn::from_vec(
            (0..n).map(|i| (i / 512) as i64).collect(),
            EncodePolicy::auto(),
        );
        assert_eq!(sorted.encoding_counts().rle, 1, "long runs → RLE");
        let narrow = IntColumn::from_vec(
            (0..n).map(|i| (i % 37) as i64).collect(),
            EncodePolicy::auto(),
        );
        assert_eq!(narrow.encoding_counts().packed, 1, "narrow range → packed");
        let wild = IntColumn::from_vec(
            (0..n)
                .map(|i| (i as i64).wrapping_mul(0x9e37_79b9_7f4a_7c15u64 as i64))
                .collect(),
            EncodePolicy::auto(),
        );
        assert_eq!(
            wild.encoding_counts().plain,
            1,
            "wide random → plain fallback"
        );
    }

    #[test]
    fn off_policy_never_encodes_and_force_always_does() {
        let n = 3 * ENC_CHUNK_ROWS;
        let vals: Vec<i64> = (0..n).map(|i| (i % 5) as i64).collect();
        let off = IntColumn::from_vec(vals.clone(), EncodePolicy::off());
        let counts = off.encoding_counts();
        assert_eq!((counts.plain, counts.packed, counts.rle), (3, 0, 0));
        let force = IntColumn::from_vec(vals.clone(), EncodePolicy::force());
        let counts = force.encoding_counts();
        assert_eq!(counts.plain, 0, "force never leaves a sealed chunk plain");
        assert_eq!(off.to_vec(), force.to_vec());
        assert_eq!(off, force, "value equality ignores encoding");
    }

    #[test]
    fn minmax_folds_chunk_stats_and_edge_scans() {
        let vals = mixed_vals(10_000);
        let c = IntColumn::from_vec(vals.clone(), EncodePolicy::auto());
        for (s, e) in [
            (0, 10_000),
            (100, 200),
            (4000, 5000),
            (0, 1),
            (9998, 10_000),
        ] {
            let expect = vals[s..e]
                .iter()
                .fold(None, |acc: Option<(i64, i64)>, &v| match acc {
                    None => Some((v, v)),
                    Some((a, b)) => Some((a.min(v), b.max(v))),
                });
            assert_eq!(c.minmax(s, e), expect, "range {s}..{e}");
        }
        assert_eq!(c.minmax(5, 5), None);
    }

    #[test]
    fn append_from_copies_sealed_chunks_verbatim() {
        let a_vals = mixed_vals(2 * ENC_CHUNK_ROWS);
        let b_vals = mixed_vals(ENC_CHUNK_ROWS + 17);
        let mut a = IntColumn::from_vec(a_vals.clone(), EncodePolicy::auto());
        let b = IntColumn::from_vec(b_vals.clone(), EncodePolicy::auto());
        a.append_from(&b);
        let mut expect = a_vals;
        expect.extend_from_slice(&b_vals);
        assert_eq!(a.to_vec(), expect);
        // Mismatched shifts fall back to the per-value path, same rows.
        let mut c = IntColumn::from_vec(expect[..100].to_vec(), EncodePolicy::force());
        c.append_from(&b);
        assert_eq!(c.len(), 100 + b_vals.len());
        assert_eq!(c.get(100), b_vals[0]);
    }

    /// The compression floor on a low-cardinality, clustered fixture:
    /// `key = (i >> 10) % 100` seals as RLE (1024-row runs in every
    /// chunk) and `val = i % 16` bit-packs into 4-bit lanes. The encoded
    /// layout must take at most a quarter of the plain bytes, use both
    /// encodings, and give the plain layout's Dense group-by exactly.
    #[test]
    fn low_cardinality_columns_compress_fourfold_and_group_identically() {
        use crate::exec::{aggregate, GroupStrategy, RowSource};
        use crate::query::{Agg, SelectQuery, XSpec, YSpec};
        use crate::table::{Field, Schema, Table};

        let rows = 16 * ENC_CHUNK_ROWS + 100;
        let lowcard = |policy: EncodePolicy| {
            let key = IntColumn::from_vec(
                (0..rows).map(|i| ((i >> 10) % 100) as i64).collect(),
                policy,
            );
            let val = IntColumn::from_vec((0..rows).map(|i| (i % 16) as i64).collect(), policy);
            let schema = Schema::new(vec![
                Field::new("key", DataType::Int),
                Field::new("val", DataType::Int),
            ]);
            Table::from_columns(schema, vec![Column::Int(key), Column::Int(val)]).unwrap()
        };
        let plain = lowcard(EncodePolicy::off());
        let encoded = lowcard(EncodePolicy::auto());
        let heap_bytes = |t: &Table| -> usize { (0..2).map(|i| t.column_at(i).heap_bytes()).sum() };
        assert!(
            heap_bytes(&encoded) * 4 <= heap_bytes(&plain),
            "encoded {} bytes against plain {}",
            heap_bytes(&encoded),
            heap_bytes(&plain)
        );
        let mut counts = EncodingCounts::default();
        for i in 0..2 {
            counts.merge(&encoded.column_at(i).encoding_counts().unwrap());
        }
        assert!(counts.packed > 0 && counts.rle > 0, "{counts:?}");

        let q = SelectQuery::new(
            XSpec::raw("key"),
            vec![YSpec::sum("val"), YSpec::new("*", Agg::Count)],
        );
        let group = |t: &Table| {
            aggregate(t, &q, &RowSource::All(rows), GroupStrategy::Dense)
                .unwrap()
                .0
        };
        assert_eq!(group(&encoded), group(&plain));
    }

    /// O(delta) appends: after each small batch appended to a
    /// multi-chunk int column, a full-column min/max decodes only rows
    /// that no sealed chunk's stats cover, which is less than one chunk,
    /// however large the column has grown.
    #[test]
    fn stat_recompute_after_appends_decodes_less_than_a_chunk() {
        use crate::table::{Field, Schema, Table};

        let start = 8 * ENC_CHUNK_ROWS + 123;
        let vals = mixed_vals(start);
        let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
        let column = IntColumn::from_vec(vals.clone(), EncodePolicy::auto());
        let mut table = Table::from_columns(schema, vec![Column::Int(column)]).unwrap();
        let mut expect = vals;
        for batch in 0..100 {
            let rows: Vec<Vec<Value>> = (0..100)
                .map(|r| {
                    let v = (batch * 100 + r) as i64 % 977 - 400;
                    expect.push(v);
                    vec![Value::Int(v)]
                })
                .collect();
            table.append_rows(&rows).unwrap();
            let Column::Int(col) = table.column_at(0) else {
                unreachable!("v is an int column")
            };
            let decoded = col.stat_scan_rows(0, col.len());
            assert!(
                decoded < ENC_CHUNK_ROWS,
                "batch {batch}: the stat recompute decoded {decoded} of {} rows",
                col.len()
            );
        }
        let Column::Int(col) = table.column_at(0) else {
            unreachable!("v is an int column")
        };
        assert_eq!(col.len(), start + 10_000);
        let lo = expect.iter().min().copied();
        let hi = expect.iter().max().copied();
        assert_eq!(col.minmax(0, col.len()), lo.zip(hi));
    }

    /// Float columns chunk like the other stores: values, slices and
    /// min/max (NaN skipped, sealed stats folded for covered chunks)
    /// match a flat vector under every policy's chunk size, and a clone
    /// shares every sealed chunk while its appends stay its own.
    #[test]
    fn float_column_slices_folds_stats_and_shares_chunks() {
        let mut vals: Vec<f64> = (0..10_000)
            .map(|i| ((i * 7919) % 1000) as f64 * 0.5 - 250.0)
            .collect();
        vals[5000] = f64::NAN;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for policy in [
            EncodePolicy::auto(),
            EncodePolicy::off(),
            EncodePolicy::force(),
        ] {
            let c = FloatColumn::from_vec(vals.clone(), policy);
            let chunk = 1usize << policy.shift;
            assert_eq!(bits(&c.to_vec()), bits(&vals), "{policy:?}");
            for row in [0, 63, 64, 4095, 4096, 5000, 9999] {
                assert_eq!(c.get(row).to_bits(), vals[row].to_bits(), "row {row}");
            }
            for (s, e) in [
                (0, 10_000),
                (100, 200),
                (4000, 5000),
                (4095, 4097),
                (4999, 5001),
            ] {
                let (mut seen, mut pieces) = (Vec::new(), 0);
                c.for_each_slice(s, e, |row, v| {
                    assert_eq!(row, s + seen.len(), "slices come in row order");
                    seen.extend_from_slice(v);
                    pieces += 1;
                });
                assert_eq!(bits(&seen), bits(&vals[s..e]), "{policy:?} {s}..{e}");
                assert!(pieces <= (e - s).div_ceil(chunk) + 1, "one slice per chunk");
                let naive = vals[s..e]
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                        (lo.min(x), hi.max(x))
                    });
                assert_eq!(c.minmax(s, e), Some(naive), "{policy:?} {s}..{e}");
            }
            assert_eq!(c.minmax(5, 5), None);

            let mut grown = c.clone();
            for i in 0..chunk {
                grown.push(i as f64);
            }
            let (old, new) = (c.parts().1, grown.parts().1);
            assert_eq!(new.len(), old.len() + 1);
            assert!(old.iter().zip(new).all(|(a, b)| Arc::ptr_eq(a, b)));
            assert_eq!(c.len(), vals.len(), "the original kept its rows");
        }
    }

    /// A clone shares its parent's dictionary until it interns a value
    /// the dictionary lacks; the parent never sees that value.
    #[test]
    fn cat_dictionary_is_copied_only_to_intern_a_new_value() {
        let mut a = CatColumn::new();
        a.push("x");
        a.push("y");
        let mut b = a.clone();
        b.push("x");
        assert!(Arc::ptr_eq(&a.dict, &b.dict));
        b.push("z");
        assert!(!Arc::ptr_eq(&a.dict, &b.dict));
        assert_eq!(a.dict(), ["x", "y"]);
        assert_eq!(b.dict(), ["x", "y", "z"]);
        assert_eq!(a.code_of("z"), None);
    }

    #[test]
    fn env_spec_parses_and_rejects() {
        assert_eq!(EncodePolicy::from_spec("auto"), EncodePolicy::auto());
        assert_eq!(EncodePolicy::from_spec(" "), EncodePolicy::auto());
        assert_eq!(EncodePolicy::from_spec("OFF"), EncodePolicy::off());
        assert_eq!(EncodePolicy::from_spec("plain"), EncodePolicy::off());
        assert_eq!(EncodePolicy::from_spec("force"), EncodePolicy::force());
        assert!(std::panic::catch_unwind(|| EncodePolicy::from_spec("fast")).is_err());
    }

    #[test]
    fn packed_extraction_handles_word_straddles() {
        // width 13 over 4096 rows: values straddle word boundaries.
        let n = ENC_CHUNK_ROWS;
        let vals: Vec<i64> = (0..n)
            .map(|i| 1000 + ((i * 2654435761) % 8000) as i64)
            .collect();
        let c = IntColumn::from_vec(vals.clone(), EncodePolicy::auto());
        let counts = c.encoding_counts();
        assert_eq!(counts.packed, 1);
        for (row, &v) in vals.iter().enumerate() {
            assert_eq!(c.get(row), v, "row {row}");
        }
    }
}
