//! A from-scratch implementation of Roaring bitmaps (Chambi et al., 2015),
//! the principal data-storage format of the zenvisage in-memory database
//! (thesis §6.2, "Roaring Bitmap Database").
//!
//! A roaring bitmap partitions the `u32` universe into 2^16 chunks keyed by
//! the high 16 bits of each value. Each non-empty chunk stores the low 16
//! bits in one of three container kinds:
//!
//! * **Array** — a sorted `Vec<u16>`, used while cardinality ≤ 4096;
//! * **Bitmap** — a fixed 1024×`u64` bitset, used above 4096;
//! * **Run** — sorted `(start, length-1)` run pairs, produced by
//!   [`RoaringBitmap::run_optimize`] when runs compress better.
//!
//! Bitmap and Run containers carry their member count, kept exact by
//! every mutation and set operation, so [`RoaringBitmap::len`] costs one
//! add per container rather than 1024 popcounts per bitset.
//!
//! Binary set operations are specialized for Array/Bitmap pairs; Run
//! containers are expanded to their Array/Bitmap equivalent first (a
//! simplification relative to the C implementation that preserves
//! semantics — run containers here are a storage optimization only).

const ARRAY_MAX: usize = 4096;
const BITMAP_WORDS: usize = 1024;

type Words = Box<[u64; BITMAP_WORDS]>;

/// One 2^16-value chunk of the bitmap.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Container {
    /// Sorted, deduplicated low-16-bit values.
    Array(Vec<u16>),
    /// 65536-bit bitset and its member count.
    Bitmap(Words, u32),
    /// Sorted, non-overlapping, non-adjacent runs `(start, len_minus_one)`
    /// and their member count.
    Run(Vec<(u16, u16)>, u32),
}

impl Container {
    fn new() -> Self {
        Container::Array(Vec::new())
    }

    fn cardinality(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitmap(_, card) | Container::Run(_, card) => *card as usize,
        }
    }

    /// A Bitmap container over `words`, or the Array holding the same
    /// members when `card` (their count) is at most [`ARRAY_MAX`].
    fn from_words(words: Words, card: u32) -> Container {
        if card as usize <= ARRAY_MAX {
            Container::Array(words_to_array(&words, card as usize))
        } else {
            Container::Bitmap(words, card)
        }
    }

    fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&low).is_ok(),
            Container::Bitmap(b, _) => b[(low >> 6) as usize] & (1u64 << (low & 63)) != 0,
            Container::Run(runs, _) => match runs.binary_search_by_key(&low, |&(s, _)| s) {
                Ok(_) => true,
                Err(0) => false,
                Err(i) => {
                    let (s, l) = runs[i - 1];
                    low - s <= l
                }
            },
        }
    }

    /// Insert; returns true if newly added. May upgrade Array → Bitmap.
    fn insert(&mut self, low: u16) -> bool {
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(_) => false,
                Err(pos) => {
                    if v.len() >= ARRAY_MAX {
                        let mut bm = Self::array_to_bitmap(v);
                        Self::bitmap_set(&mut bm, low);
                        *self = Container::Bitmap(bm, v.len() as u32 + 1);
                    } else {
                        v.insert(pos, low);
                    }
                    true
                }
            },
            Container::Bitmap(b, card) => {
                let w = &mut b[(low >> 6) as usize];
                let mask = 1u64 << (low & 63);
                let added = *w & mask == 0;
                *w |= mask;
                *card += added as u32;
                added
            }
            Container::Run(..) => {
                self.devolve();
                self.insert(low)
            }
        }
    }

    /// Remove; returns true if present. May downgrade Bitmap → Array.
    fn remove(&mut self, low: u16) -> bool {
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Container::Bitmap(b, card) => {
                let w = &mut b[(low >> 6) as usize];
                let mask = 1u64 << (low & 63);
                let present = *w & mask != 0;
                *w &= !mask;
                if present {
                    *card -= 1;
                    if *card as usize <= ARRAY_MAX {
                        *self = Container::Array(words_to_array(b, *card as usize));
                    }
                }
                present
            }
            Container::Run(..) => {
                self.devolve();
                self.remove(low)
            }
        }
    }

    fn array_to_bitmap(v: &[u16]) -> Words {
        let mut b: Words = Box::new([0u64; BITMAP_WORDS]);
        for &low in v {
            Self::bitmap_set(&mut b, low);
        }
        b
    }

    #[inline]
    fn bitmap_set(b: &mut [u64; BITMAP_WORDS], low: u16) {
        b[(low >> 6) as usize] |= 1u64 << (low & 63);
    }

    fn to_array_vec(&self) -> Vec<u16> {
        match self {
            Container::Array(v) => v.clone(),
            Container::Bitmap(b, card) => words_to_array(b, *card as usize),
            Container::Run(runs, card) => {
                let mut out = Vec::with_capacity(*card as usize);
                for &(s, l) in runs {
                    for v in s..=s.saturating_add(l) {
                        out.push(v);
                    }
                }
                out
            }
        }
    }

    /// Smallest value, read straight from the representation.
    fn first(&self) -> Option<u16> {
        match self {
            Container::Array(v) => v.first().copied(),
            Container::Bitmap(b, _) => b
                .iter()
                .position(|&w| w != 0)
                .map(|wi| (wi as u32 * 64 + b[wi].trailing_zeros()) as u16),
            Container::Run(runs, _) => runs.first().map(|&(s, _)| s),
        }
    }

    /// Largest value, read straight from the representation.
    fn last(&self) -> Option<u16> {
        match self {
            Container::Array(v) => v.last().copied(),
            Container::Bitmap(b, _) => b
                .iter()
                .rposition(|&w| w != 0)
                .map(|wi| (wi as u32 * 64 + 63 - b[wi].leading_zeros()) as u16),
            Container::Run(runs, _) => runs.last().map(|&(s, l)| s + l),
        }
    }

    /// OR the members in `lo..hi` into `out`, member `v` landing on bit
    /// `dst + (v - lo)`.
    fn or_window(&self, lo: u32, hi: u32, out: &mut [u64], dst: usize) {
        match self {
            Container::Array(v) => {
                let from = v.partition_point(|&x| (x as u32) < lo);
                for &x in v[from..].iter().take_while(|&&x| (x as u32) < hi) {
                    let b = dst + (x as u32 - lo) as usize;
                    out[b >> 6] |= 1u64 << (b & 63);
                }
            }
            Container::Bitmap(b, _) => or_bits(out, dst, &b[..], lo as usize, (hi - lo) as usize),
            Container::Run(runs, _) => {
                let from = runs.partition_point(|&(s, l)| (s as u32 + l as u32) < lo);
                for &(s, l) in &runs[from..] {
                    let (rs, re) = (s as u32, s as u32 + l as u32 + 1);
                    if rs >= hi {
                        break;
                    }
                    let (a, e) = (rs.max(lo), re.min(hi));
                    set_bits(out, dst + (a - lo) as usize, (e - a) as usize);
                }
            }
        }
    }

    /// Push `base | v` for the members `v` of rank `rank`, `rank + step`,
    /// … (0-based, ascending) that this container holds; returns the
    /// first wanted rank past its end, relative to the next container.
    fn select_ranks(&self, mut rank: usize, step: usize, base: u32, out: &mut Vec<u32>) -> usize {
        let mut seen = 0usize;
        match self {
            Container::Array(v) => {
                while rank < v.len() {
                    out.push(base | v[rank] as u32);
                    rank += step;
                }
                seen = v.len();
            }
            Container::Bitmap(b, _) => {
                for (wi, &w) in b.iter().enumerate() {
                    let ones = w.count_ones() as usize;
                    while rank < seen + ones {
                        let mut bits = w;
                        for _ in 0..rank - seen {
                            bits &= bits - 1;
                        }
                        out.push(base | (wi as u32) << 6 | bits.trailing_zeros());
                        rank += step;
                    }
                    seen += ones;
                }
            }
            Container::Run(runs, _) => {
                for &(s, l) in runs {
                    let len = l as usize + 1;
                    while rank < seen + len {
                        out.push(base | (s as u32 + (rank - seen) as u32));
                        rank += step;
                    }
                    seen += len;
                }
            }
        }
        rank - seen
    }

    /// Replace a Run container by its Array/Bitmap equivalent.
    fn devolve(&mut self) {
        let Container::Run(runs, card) = self else {
            return;
        };
        let card = *card;
        if card as usize <= ARRAY_MAX {
            *self = Container::Array(self.to_array_vec());
            return;
        }
        let mut b: Words = Box::new([0u64; BITMAP_WORDS]);
        for &(s, l) in runs.iter() {
            set_bits(&mut b[..], s as usize, l as usize + 1);
        }
        *self = Container::Bitmap(b, card);
    }

    /// Normalized (non-Run) copy for binary ops.
    fn norm(&self) -> Container {
        let mut c = self.clone();
        c.devolve();
        c
    }

    fn and(&self, other: &Container) -> Container {
        use Container::*;
        match (self.norm(), other.norm()) {
            (Array(a), Array(b)) => Array(intersect_sorted(&a, &b)),
            (Array(a), Bitmap(b, _)) | (Bitmap(b, _), Array(a)) => Array(
                a.iter()
                    .copied()
                    .filter(|&v| b[(v >> 6) as usize] & (1 << (v & 63)) != 0)
                    .collect(),
            ),
            (Bitmap(a, _), Bitmap(b, _)) => {
                let mut out: Words = Box::new([0u64; BITMAP_WORDS]);
                let mut card = 0u32;
                for i in 0..BITMAP_WORDS {
                    out[i] = a[i] & b[i];
                    card += out[i].count_ones();
                }
                Self::from_words(out, card)
            }
            _ => unreachable!("norm() removes Run containers"),
        }
    }

    fn or(&self, other: &Container) -> Container {
        use Container::*;
        match (self.norm(), other.norm()) {
            (Array(a), Array(b)) => {
                let merged = union_sorted(&a, &b);
                if merged.len() > ARRAY_MAX {
                    Bitmap(Self::array_to_bitmap(&merged), merged.len() as u32)
                } else {
                    Array(merged)
                }
            }
            (Array(a), Bitmap(mut out, mut card)) | (Bitmap(mut out, mut card), Array(a)) => {
                for &v in &a {
                    let w = &mut out[(v >> 6) as usize];
                    let bit = 1u64 << (v & 63);
                    card += (*w & bit == 0) as u32;
                    *w |= bit;
                }
                Bitmap(out, card)
            }
            (Bitmap(a, _), Bitmap(b, _)) => {
                let mut out: Words = Box::new([0u64; BITMAP_WORDS]);
                let mut card = 0u32;
                for i in 0..BITMAP_WORDS {
                    out[i] = a[i] | b[i];
                    card += out[i].count_ones();
                }
                Bitmap(out, card)
            }
            _ => unreachable!(),
        }
    }

    fn and_not(&self, other: &Container) -> Container {
        use Container::*;
        match (self.norm(), other.norm()) {
            (Array(a), Array(b)) => Array(difference_sorted(&a, &b)),
            (Array(a), Bitmap(b, _)) => Array(
                a.iter()
                    .copied()
                    .filter(|&v| b[(v >> 6) as usize] & (1 << (v & 63)) == 0)
                    .collect(),
            ),
            (Bitmap(mut out, mut card), Array(b)) => {
                for &v in &b {
                    let w = &mut out[(v >> 6) as usize];
                    let bit = 1u64 << (v & 63);
                    card -= (*w & bit != 0) as u32;
                    *w &= !bit;
                }
                Self::from_words(out, card)
            }
            (Bitmap(a, _), Bitmap(b, _)) => {
                let mut out: Words = Box::new([0u64; BITMAP_WORDS]);
                let mut card = 0u32;
                for i in 0..BITMAP_WORDS {
                    out[i] = a[i] & !b[i];
                    card += out[i].count_ones();
                }
                Self::from_words(out, card)
            }
            _ => unreachable!(),
        }
    }

    /// Convert to a Run container if that representation is smaller.
    fn run_optimize(&mut self) {
        let vals = self.to_array_vec();
        if vals.is_empty() {
            return;
        }
        let mut runs: Vec<(u16, u16)> = Vec::new();
        let mut start = vals[0];
        let mut prev = vals[0];
        for &v in &vals[1..] {
            if v == prev + 1 {
                prev = v;
            } else {
                runs.push((start, prev - start));
                start = v;
                prev = v;
            }
        }
        runs.push((start, prev - start));
        // Size heuristics mirror the paper: run = 4 bytes/run, array =
        // 2 bytes/value, bitmap = 8192 bytes.
        let run_bytes = runs.len() * 4;
        let current_bytes = match self {
            Container::Array(v) => v.len() * 2,
            Container::Bitmap(..) => 8192,
            Container::Run(r, _) => r.len() * 4,
        };
        if run_bytes < current_bytes {
            *self = Container::Run(runs, vals.len() as u32);
        }
    }
}

/// The `card` members of a bitset, ascending.
fn words_to_array(b: &[u64; BITMAP_WORDS], card: usize) -> Vec<u16> {
    let mut out = Vec::with_capacity(card);
    for (wi, &w) in b.iter().enumerate() {
        let mut bits = w;
        while bits != 0 {
            let t = bits.trailing_zeros();
            out.push(((wi as u32) << 6 | t) as u16);
            bits &= bits - 1;
        }
    }
    out
}

fn intersect_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    // Galloping pays off when sizes are very skewed; otherwise linear merge.
    if large.len() / (small.len().max(1)) >= 32 {
        let mut out = Vec::with_capacity(small.len());
        let mut lo = 0usize;
        for &v in small {
            match large[lo..].binary_search(&v) {
                Ok(p) => {
                    out.push(v);
                    lo += p + 1;
                }
                Err(p) => lo += p,
            }
            if lo >= large.len() {
                break;
            }
        }
        out
    } else {
        let mut out = Vec::with_capacity(small.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }
}

fn union_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn difference_sorted(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out
}

/// OR `n` bits of `src` starting at bit `s` into `dst` starting at bit
/// `d`. Each step moves up to one word, so aligned copies go a word at a
/// time and misaligned ones take two steps per word.
fn or_bits(dst: &mut [u64], mut d: usize, src: &[u64], mut s: usize, mut n: usize) {
    while n > 0 {
        let take = n.min(64 - (s & 63)).min(64 - (d & 63));
        let low = if take == 64 { !0 } else { (1u64 << take) - 1 };
        dst[d >> 6] |= ((src[s >> 6] >> (s & 63)) & low) << (d & 63);
        s += take;
        d += take;
        n -= take;
    }
}

/// Set `len` bits of `words` starting at bit `from`.
fn set_bits(words: &mut [u64], from: usize, len: usize) {
    if len == 0 {
        return;
    }
    let end = from + len;
    let (fw, lw) = (from >> 6, (end - 1) >> 6);
    let head = !0u64 << (from & 63);
    let tail = !0u64 >> (63 - ((end - 1) & 63));
    if fw == lw {
        words[fw] |= head & tail;
    } else {
        words[fw] |= head;
        words[fw + 1..lw].fill(!0);
        words[lw] |= tail;
    }
}

/// A compressed bitmap over `u32` row ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoaringBitmap {
    /// `(high 16 bits, container)` pairs sorted by key.
    containers: Vec<(u16, Container)>,
}

impl RoaringBitmap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an ascending iterator of unique values (fast append path).
    pub fn from_sorted_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut bm = Self::new();
        let mut last: Option<u32> = None;
        for v in iter {
            if let Some(prev) = last {
                assert!(
                    v > prev,
                    "from_sorted_iter requires strictly ascending input"
                );
            }
            bm.push_unchecked(v);
            last = Some(v);
        }
        bm
    }

    /// Append a value known to be ≥ everything present (O(1) amortized,
    /// the fast path for building row-id indexes in ascending row order).
    ///
    /// Debug builds assert monotonicity; release builds trust the caller.
    pub fn push_ascending(&mut self, value: u32) {
        debug_assert!(
            self.containers.is_empty() || self.max().unwrap() < value,
            "push_ascending requires strictly ascending input"
        );
        self.push_unchecked(value);
    }

    fn push_unchecked(&mut self, value: u32) {
        let hi = (value >> 16) as u16;
        let lo = value as u16;
        match self.containers.last_mut() {
            Some((key, c)) if *key == hi => {
                c.insert(lo);
            }
            _ => {
                let mut c = Container::new();
                c.insert(lo);
                self.containers.push((hi, c));
            }
        }
    }

    pub fn insert(&mut self, value: u32) -> bool {
        let hi = (value >> 16) as u16;
        let lo = value as u16;
        match self.containers.binary_search_by_key(&hi, |&(k, _)| k) {
            Ok(i) => self.containers[i].1.insert(lo),
            Err(i) => {
                let mut c = Container::new();
                c.insert(lo);
                self.containers.insert(i, (hi, c));
                true
            }
        }
    }

    pub fn remove(&mut self, value: u32) -> bool {
        let hi = (value >> 16) as u16;
        let lo = value as u16;
        match self.containers.binary_search_by_key(&hi, |&(k, _)| k) {
            Ok(i) => {
                let removed = self.containers[i].1.remove(lo);
                if removed && self.containers[i].1.cardinality() == 0 {
                    self.containers.remove(i);
                }
                removed
            }
            Err(_) => false,
        }
    }

    pub fn contains(&self, value: u32) -> bool {
        let hi = (value >> 16) as u16;
        match self.containers.binary_search_by_key(&hi, |&(k, _)| k) {
            Ok(i) => self.containers[i].1.contains(value as u16),
            Err(_) => false,
        }
    }

    /// Member count: one add per container, each container keeps its own.
    pub fn len(&self) -> u64 {
        self.containers
            .iter()
            .map(|(_, c)| c.cardinality() as u64)
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }

    pub fn min(&self) -> Option<u32> {
        let (k, c) = self.containers.first()?;
        Some((*k as u32) << 16 | c.first()? as u32)
    }

    pub fn max(&self) -> Option<u32> {
        let (k, c) = self.containers.last()?;
        Some((*k as u32) << 16 | c.last()? as u32)
    }

    /// Fill `out` with the membership of values `start..start + len`: bit
    /// `i` of `out` (word `i / 64`, bit `i % 64`) is set iff `start + i`
    /// is a member. Writes exactly `len.div_ceil(64)` words, bits past
    /// `len` left clear; `start` need not be word-aligned and the window
    /// may straddle container boundaries. Costs one binary search plus
    /// the members (Array), words (Bitmap) or runs (Run) in the window.
    pub fn fill_words(&self, start: u32, len: usize, out: &mut [u64]) {
        let out = &mut out[..len.div_ceil(64)];
        out.fill(0);
        let (start, end) = (start as u64, start as u64 + len as u64);
        let mut i = self
            .containers
            .partition_point(|&(k, _)| k < (start >> 16) as u16);
        while let Some((key, c)) = self.containers.get(i) {
            let base = (*key as u64) << 16;
            if base >= end {
                break;
            }
            let lo = start.saturating_sub(base);
            let hi = (end - base).min(1 << 16);
            c.or_window(lo as u32, hi as u32, out, (base + lo - start) as usize);
            i += 1;
        }
    }

    /// The members of rank `step`, `2·step`, … (0-based, ascending) —
    /// one pass, for cutting the bitmap into pieces of `step` members.
    pub fn select_every(&self, step: usize) -> Vec<u32> {
        assert!(step >= 1, "select_every needs a positive step");
        let mut out = Vec::new();
        let mut rank = step;
        for (key, c) in &self.containers {
            rank = c.select_ranks(rank, step, (*key as u32) << 16, &mut out);
        }
        out
    }

    /// Bitwise AND (set intersection).
    pub fn and(&self, other: &RoaringBitmap) -> RoaringBitmap {
        let mut out = RoaringBitmap::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.containers.len() && j < other.containers.len() {
            let (ka, ca) = &self.containers[i];
            let (kb, cb) = &other.containers[j];
            match ka.cmp(kb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let c = ca.and(cb);
                    if c.cardinality() > 0 {
                        out.containers.push((*ka, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Bitwise OR (set union).
    pub fn or(&self, other: &RoaringBitmap) -> RoaringBitmap {
        let mut out = RoaringBitmap::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.containers.len() && j < other.containers.len() {
            let (ka, ca) = &self.containers[i];
            let (kb, cb) = &other.containers[j];
            match ka.cmp(kb) {
                std::cmp::Ordering::Less => {
                    out.containers.push((*ka, ca.norm()));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.containers.push((*kb, cb.norm()));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.containers.push((*ka, ca.or(cb)));
                    i += 1;
                    j += 1;
                }
            }
        }
        for (k, c) in &self.containers[i..] {
            out.containers.push((*k, c.norm()));
        }
        for (k, c) in &other.containers[j..] {
            out.containers.push((*k, c.norm()));
        }
        out
    }

    /// Set difference `self \ other`.
    pub fn and_not(&self, other: &RoaringBitmap) -> RoaringBitmap {
        let mut out = RoaringBitmap::new();
        let mut j = 0usize;
        for (ka, ca) in &self.containers {
            while j < other.containers.len() && other.containers[j].0 < *ka {
                j += 1;
            }
            if j < other.containers.len() && other.containers[j].0 == *ka {
                let c = ca.and_not(&other.containers[j].1);
                if c.cardinality() > 0 {
                    out.containers.push((*ka, c));
                }
            } else {
                out.containers.push((*ka, ca.norm()));
            }
        }
        out
    }

    /// Convert eligible containers to run-length encoding.
    pub fn run_optimize(&mut self) {
        for (_, c) in &mut self.containers {
            c.run_optimize();
        }
    }

    /// Approximate heap footprint in bytes (for compression reporting).
    pub fn size_bytes(&self) -> usize {
        self.containers
            .iter()
            .map(|(_, c)| {
                2 + match c {
                    Container::Array(v) => v.len() * 2,
                    Container::Bitmap(..) => 8192,
                    Container::Run(r, _) => r.len() * 4,
                }
            })
            .sum()
    }

    /// Iterate set values in ascending order.
    pub fn iter(&self) -> RoaringIter<'_> {
        RoaringIter {
            bitmap: self,
            container: 0,
            buffer: Vec::new(),
            pos: 0,
        }
    }

    /// Collect into a `Vec<u32>` (ascending).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }
}

impl FromIterator<u32> for RoaringBitmap {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut bm = RoaringBitmap::new();
        for v in iter {
            bm.insert(v);
        }
        bm
    }
}

pub struct RoaringIter<'a> {
    bitmap: &'a RoaringBitmap,
    container: usize,
    buffer: Vec<u16>,
    pos: usize,
}

impl Iterator for RoaringIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.pos < self.buffer.len() {
                let (key, _) = self.bitmap.containers[self.container - 1];
                let v = (key as u32) << 16 | self.buffer[self.pos] as u32;
                self.pos += 1;
                return Some(v);
            }
            if self.container >= self.bitmap.containers.len() {
                return None;
            }
            self.buffer = self.bitmap.containers[self.container].1.to_array_vec();
            self.container += 1;
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut bm = RoaringBitmap::new();
        assert!(bm.insert(5));
        assert!(!bm.insert(5));
        assert!(bm.contains(5));
        assert!(!bm.contains(6));
        assert!(bm.remove(5));
        assert!(!bm.remove(5));
        assert!(bm.is_empty());
    }

    #[test]
    fn crosses_container_boundaries() {
        let mut bm = RoaringBitmap::new();
        for v in [0u32, 65535, 65536, 131071, 131072, u32::MAX] {
            bm.insert(v);
        }
        assert_eq!(bm.len(), 6);
        assert_eq!(bm.to_vec(), vec![0, 65535, 65536, 131071, 131072, u32::MAX]);
        assert_eq!(bm.min(), Some(0));
        assert_eq!(bm.max(), Some(u32::MAX));
    }

    #[test]
    fn array_upgrades_to_bitmap_at_threshold() {
        let mut bm = RoaringBitmap::new();
        for v in 0..5000u32 {
            bm.insert(v * 2); // non-contiguous so run-optimize can't kick in
        }
        assert_eq!(bm.len(), 5000);
        assert!(matches!(bm.containers[0].1, Container::Bitmap(..)));
        for v in 0..5000u32 {
            assert!(bm.contains(v * 2));
            assert!(!bm.contains(v * 2 + 1));
        }
    }

    #[test]
    fn bitmap_downgrades_on_removal() {
        let mut bm = RoaringBitmap::new();
        for v in 0..5000u32 {
            bm.insert(v);
        }
        assert!(matches!(bm.containers[0].1, Container::Bitmap(..)));
        for v in 1000..5000u32 {
            bm.remove(v);
        }
        assert!(matches!(bm.containers[0].1, Container::Array(_)));
        assert_eq!(bm.len(), 1000);
    }

    #[test]
    fn and_or_andnot_small() {
        let a: RoaringBitmap = [1u32, 2, 3, 100000].into_iter().collect();
        let b: RoaringBitmap = [2u32, 3, 4, 200000].into_iter().collect();
        assert_eq!(a.and(&b).to_vec(), vec![2, 3]);
        assert_eq!(a.or(&b).to_vec(), vec![1, 2, 3, 4, 100000, 200000]);
        assert_eq!(a.and_not(&b).to_vec(), vec![1, 100000]);
        assert_eq!(b.and_not(&a).to_vec(), vec![4, 200000]);
    }

    #[test]
    fn ops_across_mixed_container_kinds() {
        // a: dense (bitmap container), b: sparse (array container)
        let a: RoaringBitmap = (0..10000u32).collect();
        let b: RoaringBitmap = (0..10000u32).step_by(100).collect();
        assert_eq!(a.and(&b).len(), 100);
        assert_eq!(a.or(&b).len(), 10000);
        assert_eq!(a.and_not(&b).len(), 9900);
        assert_eq!(b.and_not(&a).len(), 0);
    }

    #[test]
    fn run_optimize_preserves_semantics_and_shrinks() {
        let mut bm: RoaringBitmap = (1000..3000u32).collect();
        let before = bm.size_bytes();
        bm.run_optimize();
        let after = bm.size_bytes();
        assert!(
            after < before,
            "run encoding should shrink contiguous data: {after} !< {before}"
        );
        assert!(matches!(bm.containers[0].1, Container::Run(..)));
        assert_eq!(bm.len(), 2000);
        assert!(bm.contains(1000));
        assert!(bm.contains(2999));
        assert!(!bm.contains(3000));
        // Ops on run containers still work (via devolve).
        let other: RoaringBitmap = (2500..3500u32).collect();
        assert_eq!(bm.and(&other).len(), 500);
        assert_eq!(bm.or(&other).len(), 2500);
        // Mutation devolves the run container.
        bm.insert(5000);
        assert!(bm.contains(5000));
        assert_eq!(bm.len(), 2001);
    }

    #[test]
    fn run_container_spanning_word_boundaries_devolves_to_bitmap() {
        let mut bm: RoaringBitmap = (0..6000u32).collect();
        bm.run_optimize();
        assert!(matches!(bm.containers[0].1, Container::Run(..)));
        // Force devolution through a set op; 6000 > ARRAY_MAX → bitmap path.
        let all: RoaringBitmap = (0..6000u32).collect();
        assert_eq!(bm.and(&all).to_vec(), (0..6000u32).collect::<Vec<_>>());
    }

    #[test]
    fn from_sorted_iter_matches_inserts() {
        let vals: Vec<u32> = (0..100000u32).step_by(7).collect();
        let a = RoaringBitmap::from_sorted_iter(vals.iter().copied());
        let b: RoaringBitmap = vals.iter().copied().collect();
        assert_eq!(a, b);
        assert_eq!(a.to_vec(), vals);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_iter_rejects_unsorted() {
        RoaringBitmap::from_sorted_iter([3u32, 2]);
    }

    /// One bitmap holding every container kind: an Array container
    /// (key 0), a Bitmap container (key 1), a Run container (key 2,
    /// after `run_optimize`) and a lone Array member near the end of
    /// key 3.
    fn mixed_kinds() -> RoaringBitmap {
        let mut bm: RoaringBitmap = (0..65_536u32)
            .step_by(37)
            .chain((65_536..131_072).filter(|v| v % 3 != 0))
            .chain(131_072 + 100..131_072 + 20_000)
            .chain([262_140])
            .collect();
        bm.run_optimize();
        let kinds: Vec<&str> = bm
            .containers
            .iter()
            .map(|(_, c)| match c {
                Container::Array(_) => "array",
                Container::Bitmap(..) => "bitmap",
                Container::Run(..) => "run",
            })
            .collect();
        assert_eq!(kinds, ["array", "bitmap", "run", "array"]);
        bm
    }

    #[test]
    fn fill_words_matches_contains_at_unaligned_starts() {
        let bm = mixed_kinds();
        let mut out = vec![!0u64; 4096 / 64 + 1];
        // Starts on and off word boundaries, windows inside one container
        // and straddling each 65 536 boundary, ragged and whole lengths.
        for start in [
            0u32, 1, 63, 64, 65, 4095, 61_440, 65_535, 65_500, 131_000, 131_171, 260_000,
        ] {
            for len in [0usize, 1, 63, 64, 65, 1000, 4096] {
                out.fill(!0);
                bm.fill_words(start, len, &mut out);
                let words = len.div_ceil(64);
                for i in 0..words * 64 {
                    let bit = out[i >> 6] >> (i & 63) & 1 == 1;
                    let want = i < len && bm.contains(start + i as u32);
                    assert_eq!(bit, want, "start {start}, len {len}, bit {i}");
                }
                assert_eq!(out[words], !0, "wrote past len.div_ceil(64) words");
            }
        }
        // Past the last container, and at the top of the universe.
        bm.fill_words(300_000, 4096, &mut out);
        assert!(out[..64].iter().all(|&w| w == 0));
        let top: RoaringBitmap = [u32::MAX - 1, u32::MAX].into_iter().collect();
        top.fill_words(u32::MAX - 63, 64, &mut out);
        assert_eq!(out[0], 0b11 << 62);
    }

    #[test]
    fn min_max_read_each_container_kind() {
        let array: RoaringBitmap = [70_000u32, 70_005, 99_999].into_iter().collect();
        assert_eq!((array.min(), array.max()), (Some(70_000), Some(99_999)));
        let bitmap: RoaringBitmap = (65_600..131_000u32).step_by(2).collect();
        assert!(matches!(bitmap.containers[0].1, Container::Bitmap(..)));
        assert_eq!((bitmap.min(), bitmap.max()), (Some(65_600), Some(130_998)));
        let mut run: RoaringBitmap = (200_001..210_000u32).collect();
        run.run_optimize();
        assert!(matches!(run.containers[0].1, Container::Run(..)));
        assert_eq!((run.min(), run.max()), (Some(200_001), Some(209_999)));
        let mixed = mixed_kinds();
        assert_eq!((mixed.min(), mixed.max()), (Some(0), Some(262_140)));
        assert_eq!(
            (RoaringBitmap::new().min(), RoaringBitmap::new().max()),
            (None, None)
        );
    }

    #[test]
    fn select_every_matches_sorted_ranks() {
        let bm = mixed_kinds();
        let all = bm.to_vec();
        for step in [1usize, 2, 63, 64, 1000, 4096, all.len(), all.len() + 1] {
            let want: Vec<u32> = all.iter().copied().skip(step).step_by(step).collect();
            assert_eq!(bm.select_every(step), want, "step {step}");
        }
    }

    impl Container {
        /// The member count read off the representation: the oracle for
        /// the count a container keeps.
        fn recount(&self) -> usize {
            match self {
                Container::Array(v) => v.len(),
                Container::Bitmap(b, _) => b.iter().map(|w| w.count_ones() as usize).sum(),
                Container::Run(runs, _) => runs.iter().map(|&(_, l)| l as usize + 1).sum(),
            }
        }
    }

    /// Seeded random op sequences — range inserts and removes that cross
    /// the Array/Bitmap threshold both ways, ascending pushes, run
    /// optimization and the three set operations against dense, sparse
    /// and run-encoded operands: after every step each container's kept
    /// count equals a recount, and `len` equals a model set's size.
    #[test]
    fn kept_cardinality_matches_a_recount_after_random_ops() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        const SPAN: u64 = 3 * 65_536;
        for seq in 0..12 {
            let mut bm = RoaringBitmap::new();
            let mut model = BTreeSet::new();
            for step in 0..150 {
                let (lo, len, stride) = (next(SPAN), 1 + next(9000), 1 + next(3));
                let range = (lo..(lo + len).min(SPAN)).step_by(stride as usize);
                let op = next(7);
                match op {
                    0 => {
                        for v in range {
                            assert_eq!(bm.insert(v as u32), model.insert(v as u32));
                        }
                    }
                    1 => {
                        for v in range {
                            assert_eq!(bm.remove(v as u32), model.remove(&(v as u32)));
                        }
                    }
                    2 => {
                        let from = bm.max().map_or(0, |m| m as u64 + 1);
                        for v in (from..(from + len).min(SPAN + 65_536)).step_by(stride as usize) {
                            bm.push_ascending(v as u32);
                            model.insert(v as u32);
                        }
                    }
                    3 => bm.run_optimize(),
                    _ => {
                        let mut other = RoaringBitmap::from_sorted_iter(range.map(|v| v as u32));
                        if next(2) == 0 {
                            other.run_optimize();
                        }
                        let o: BTreeSet<u32> = other.iter().collect();
                        (bm, model) = match op {
                            4 => (bm.and(&other), model.intersection(&o).copied().collect()),
                            5 => (bm.or(&other), model.union(&o).copied().collect()),
                            _ => (bm.and_not(&other), model.difference(&o).copied().collect()),
                        };
                    }
                }
                for (key, c) in &bm.containers {
                    assert_eq!(
                        c.cardinality(),
                        c.recount(),
                        "sequence {seq}, step {step} (op {op}): container {key}"
                    );
                }
                assert_eq!(bm.len(), model.len() as u64, "sequence {seq}, step {step}");
            }
        }
    }

    fn model_check(values: &[u32], other: &[u32]) {
        let a: RoaringBitmap = values.iter().copied().collect();
        let b: RoaringBitmap = other.iter().copied().collect();
        let sa: BTreeSet<u32> = values.iter().copied().collect();
        let sb: BTreeSet<u32> = other.iter().copied().collect();
        assert_eq!(a.to_vec(), sa.iter().copied().collect::<Vec<_>>());
        assert_eq!(
            a.and(&b).to_vec(),
            sa.intersection(&sb).copied().collect::<Vec<_>>()
        );
        assert_eq!(
            a.or(&b).to_vec(),
            sa.union(&sb).copied().collect::<Vec<_>>()
        );
        assert_eq!(
            a.and_not(&b).to_vec(),
            sa.difference(&sb).copied().collect::<Vec<_>>()
        );
        assert_eq!(a.len(), sa.len() as u64);
    }

    proptest::proptest! {
        #[test]
        fn prop_matches_btreeset_model(
            values in proptest::collection::vec(0u32..200_000, 0..500),
            other in proptest::collection::vec(0u32..200_000, 0..500),
        ) {
            model_check(&values, &other);
        }

        #[test]
        fn prop_insert_remove_model(ops in proptest::collection::vec((0u32..100_000, proptest::bool::ANY), 0..300)) {
            let mut bm = RoaringBitmap::new();
            let mut model = BTreeSet::new();
            for (v, is_insert) in ops {
                if is_insert {
                    proptest::prop_assert_eq!(bm.insert(v), model.insert(v));
                } else {
                    proptest::prop_assert_eq!(bm.remove(v), model.remove(&v));
                }
            }
            proptest::prop_assert_eq!(bm.to_vec(), model.into_iter().collect::<Vec<_>>());
        }

        #[test]
        fn prop_run_optimize_is_semantically_invisible(
            values in proptest::collection::vec(0u32..50_000, 0..1000),
        ) {
            let mut bm: RoaringBitmap = values.iter().copied().collect();
            let before = bm.to_vec();
            bm.run_optimize();
            proptest::prop_assert_eq!(bm.to_vec(), before);
        }
    }
}
