//! Shared execution machinery for both database backends: predicate
//! compilation, group-key encoding, and the grouped-aggregation kernel.
//!
//! Both backends reduce a [`SelectQuery`] to:
//!
//! 1. a [`RowSource`] (all rows / a roaring bitmap / a filtered scan /
//!    a bitmap plus a residual filter / a row interval),
//! 2. a composite group key `(z₁, …, z_k, x)` encoded as a dense integer,
//! 3. an accumulation pass (dense array or hash map, see
//!    [`GroupStrategy`]), and
//! 4. a finalize pass that decodes keys and sorts by `(key, x)` — the
//!    `ORDER BY Z, X` of the canonical query.
//!
//! # Architecture: the window → morsel → ordered-merge pipeline
//!
//! Every row source is scanned by **one window loop**, and the
//! accumulation pass is window-at-a-time and schedulable rather than
//! row-at-a-time:
//!
//! ```text
//!   RowSource ──▶ windows of CHUNK_ROWS rows, one u64 mask bit per row:
//!       │           source mask: all ones (All / Filtered / Range) or the
//!       │                        roaring container's words (Bitmap /
//!       │                        BitmapFiltered); a zero mask skips the
//!       │                        window without touching a column
//!       │           residual:    predicate atoms ANDed in word by word
//!       │                        (`and_mask`), clear words skipped
//!       │           set bits  ──▶ ascending row ids (reused buffer)
//!       │
//!       ├─ chunk codes:   for each dimension, a columnar pass adds
//!       │                 `encode(row) · stride` into a reusable u64
//!       │                 code buffer (one `match` per window per dim,
//!       │                 not one per row)
//!       │
//!       ├─ measures:      each measure column is gathered into a reusable
//!       │                 per-window buffer the same way — a float column
//!       │                 one slice per chunk the window touches (at most
//!       │                 two for full-size chunks), never a chunk lookup
//!       │                 per row
//!       │
//!       ├─ chunk update:  Dense  → acc[code] += y        (array index)
//!       │                 Hash   → entry-API slot lookup (one probe),
//!       │                          per-window capacity reservation
//!       │
//!       ├─ morsels:       a parallel scan ([`aggregate_morsel`]) cuts
//!       │                 the source's row span into morsels — every
//!       │                 [`MORSEL_ROWS`] rows for range-shaped sources,
//!       │                 at word boundaries after about [`MORSEL_ROWS`]
//!       │                 members for bitmap sources — and workers
//!       │                 *claim* them one at a time off a shared
//!       │                 atomic cursor, so a worker that drew a cheap
//!       │                 region simply claims more — skewed predicates
//!       │                 cannot strand the scan behind one overloaded
//!       │                 worker. Each claimed morsel is scanned by the
//!       │                 same window loop, accumulated into a reusable
//!       │                 per-worker accumulator and compacted into a
//!       │                 partial *tagged by its morsel index*.
//!       │
//!       └─ ordered merge: partials are sorted by morsel index and merged
//!                         in that order — Dense by slot, Hash by
//!                         composite code — then finalized exactly like
//!                         the serial path. The float reduction tree is a
//!                         pure function of the data layout, never of
//!                         claim timing or thread count: a morsel run is
//!                         bit-for-bit reproducible across runs *and*
//!                         across parallel (≥ 2 worker) thread counts
//!                         (one worker degrades to the serial row-order
//!                         reduction), and identical to the serial scan
//!                         whenever measure sums are exactly
//!                         representable (what the equivalence proptests
//!                         assert on dyadic data).
//! ```
//!
//! "Rows visited" — what `rows_scanned` counts and what a row budget
//! spends — is the set bits of the source mask before the residual: the
//! bitmap's members for bitmap sources, the span's rows otherwise. That
//! is Figure 7.5's mechanism: a sparse bitmap skips windows and visits
//! few rows, a dense one costs what a scan costs.
//!
//! Morsel claiming is the only parallel scan path. The serial scan
//! ([`aggregate`]) is the reference every parallel result is checked
//! against, and the fallback for small inputs (below
//! [`ParallelConfig::min_parallel_rows`], or a single morsel) and for
//! the retry-degrade path described below.
//!
//! # The ctx → claim → cancel pipeline
//!
//! Every scan carries a [`QueryCtx`] — the
//! query's lifecycle handle (cancellation token, optional deadline,
//! priority, per-query progress counters) threaded down from
//! `ZqlEngine::execute_ctx` through `Database::run_request_ctx` and
//! `Pinned::execute` into `run`. Interactive callers
//! (sliders, sketch re-issues, `zv-server`'s session supersession)
//! cancel the ctx; the scan observes it at its natural boundaries:
//!
//! * **morsel scheduling** — the claim loop checks the ctx *between
//!   claims*: a worker that sees the flag stops claiming, the remaining
//!   morsels are never scanned, and the count of abandoned morsels flows
//!   into `ExecStats::morsels_cancelled`.
//! * **windows** — the window loop checks the ctx before every window
//!   (at most [`CHUNK_ROWS`] visited rows), inside a claimed morsel and
//!   in a serial scan alike, so even a one-thread scan abandons work
//!   promptly.
//!
//! A cancelled scan returns
//! [`StorageError::Cancelled`](crate::table::StorageError)
//! and its partial accumulator state is dropped on the worker — partial
//! results **never** reach the merge, the caller, or the result cache
//! (`run_request_ctx` only inserts results of scans that ran to
//! completion). Deadlines are checked lazily at the same boundaries, so
//! a deadline-expired query surfaces within one window or claim. Rows
//! visited (including by abandoned partial scans) are recorded on the
//! ctx as the scan progresses, which is also what arms the
//! deterministic row-budget cancellation hook.
//!
//! # The failure & recovery pipeline
//!
//! Cancellation is the *cooperative* way a scan ends early; panics are
//! the uncooperative one, and an always-on interactive engine must
//! survive both. Every morsel scan runs inside `catch_unwind`:
//!
//! 1. **Contain** — a panicking worker (organic bug or injected by the
//!    [`crate::fault`] harness) is caught at the worker boundary. It
//!    trips a shared abort flag, so siblings stop claiming at their next
//!    claim point exactly as they would for cancellation. The thread
//!    pool never sees the unwind and stays healthy.
//! 2. **Fail cleanly** — the panicked worker's partial accumulator is
//!    dropped on the worker; nothing partial reaches the merge, the
//!    caller, or the result cache (`run_request_ctx` inserts only
//!    completed results — same guarantee cancellation relies on). The
//!    scan surfaces
//!    [`StorageError::WorkerPanicked`](crate::table::StorageError) with
//!    the lowest panicked morsel attributed, and the engine's
//!    [`ExecStats`](crate::stats::ExecStats) records one
//!    `worker_panics`.
//! 3. **Retry / degrade** — `WorkerPanicked` (and `ResourceExhausted`)
//!    are *transient* ([`StorageError::is_transient`](crate::table::StorageError::is_transient));
//!    `zv-server`'s `SessionManager` retries them with bounded attempts
//!    and deterministic backoff, advancing the ctx's *fault epoch* so an
//!    injected fault pattern re-rolls per attempt. When parallel
//!    attempts keep failing the query is re-run serial
//!    (`QueryCtx::force_serial` caps it at one worker — the serial path
//!    has no fan-out and no injection points), and a breaker routes the
//!    next queries serial pre-emptively. Telemetry flows as
//!    `worker_panics` / `queries_retried` / `queries_degraded` through
//!    `ExecStats` → `StatsSnapshot` → `ExecReport` → `SessionStats`.
//!
//! Lock poisoning is the other half of panic fallout: shared locks in
//! this crate are acquired through the recover-or-rebuild helpers in
//! [`crate::fault`] (engines' table locks recover — every critical
//! section leaves an intact `Arc`; the result cache *rebuilds* its LRU,
//! whose intrusive links can be torn mid-insert) rather than unwrapped,
//! so a contained panic can never wedge the engine afterwards.
//!
//! # OptLevel × scheduling matrix
//!
//! The §5.2 batching ladder composes with this engine's parallelism along
//! two orthogonal axes — *where queries batch* and *where threads work*:
//!
//! | OptLevel    | requests          | intra-query threads | inter-query threads |
//! |-------------|-------------------|---------------------|---------------------|
//! | `NoOpt`     | 1 per viz         | morsel scan         | — (1 query/request) |
//! | `IntraLine` | 1 per row         | morsel scan         | across the batch    |
//! | `IntraTask` | 1 per task prefix | morsel scan         | across the batch    |
//! | `InterTask` | fewest (lookahead)| morsel scan         | across the batch    |
//!
//! Inter-query fan-out happens in `Database::run_request`; intra-query
//! fan-out here. The pool's nesting guard ([`crate::parallel`]) ensures
//! whichever layer fans out first gets the hardware: multi-query requests
//! parallelize across queries (each query scanning serially), single-query
//! requests parallelize across row morsels.
//!
//! The scan's knobs live on [`ParallelConfig`] and can be forced
//! process-wide through the environment ([`ParallelConfig::from_env`]:
//! `ZV_SCHED_THREADS` / `ZV_SCHED_MIN_ROWS` / `ZV_SCHED_MORSEL_ROWS`) —
//! CI's scheduling matrix runs the equivalence suites with one thread
//! and with forced tiny morsels, so a scheduling bug cannot hide behind
//! the default configuration.

use crate::column::{
    packed_delta, Chunked, CodeColumn, Coded, Column, FloatColumn, IntColumn, SegRef,
};
use crate::lifecycle::QueryCtx;
use crate::parallel;
use crate::predicate::{Atom, CmpOp, Predicate};
use crate::query::{Agg, GroupSeries, ResultTable, SelectQuery, XSpec};
use crate::roaring::RoaringBitmap;
use crate::table::{StorageError, Table};
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

// ---------------------------------------------------------------------
// Compiled predicates
// ---------------------------------------------------------------------

/// A predicate atom specialized against concrete column storage, so the
/// check is branch-light (no string comparisons, no hash lookups). Atoms
/// over encoded columns hold the chunked store itself: `CAtom::and_mask`
/// evaluates a window's sealed chunks in place (RLE runs decided once
/// per run, bit-packed lanes unpacked inside 64-lane word kernels) with
/// per-chunk min/max short-circuits. Float atoms read each window's
/// values as one slice per chunk it touches.
pub enum CAtom<'a> {
    ConstBool(bool),
    CatEqCode {
        codes: &'a CodeColumn,
        code: u32,
    },
    CatNeqCode {
        codes: &'a CodeColumn,
        code: u32,
    },
    /// `IN` / `LIKE 'p%'` compile to a per-dictionary-code truth table.
    CatCodeSet {
        codes: &'a CodeColumn,
        member: Vec<bool>,
    },
    NumCmpI {
        vals: &'a IntColumn,
        op: CmpOp,
        value: f64,
    },
    NumCmpF {
        vals: &'a FloatColumn,
        op: CmpOp,
        value: f64,
    },
    BetweenI {
        vals: &'a IntColumn,
        lo: f64,
        hi: f64,
    },
    BetweenF {
        vals: &'a FloatColumn,
        lo: f64,
        hi: f64,
    },
}

impl CAtom<'_> {
    /// AND this atom's truth over rows `start..end` into `mask` (bit `i`
    /// of `mask` ↔ row `start + i`). Sealed chunks are evaluated in
    /// place: chunk `(min, max)` stats decide whole chunks without
    /// touching data where possible, RLE runs are decided once per run,
    /// and plain/bit-packed payloads go through [`and_lanes`]'s 64-lane
    /// word kernel.
    fn and_mask(&self, start: usize, end: usize, mask: &mut [u64]) {
        match self {
            CAtom::ConstBool(true) => {}
            CAtom::ConstBool(false) => clear_bits(mask, 0, end - start),
            CAtom::CatEqCode { codes, code } => {
                let code = *code;
                and_mask_col(
                    codes,
                    start,
                    end,
                    mask,
                    |lo, hi| {
                        if code < lo || code > hi {
                            Some(false)
                        } else if lo == hi {
                            Some(true)
                        } else {
                            None
                        }
                    },
                    |v| v == code,
                );
            }
            CAtom::CatNeqCode { codes, code } => {
                let code = *code;
                and_mask_col(
                    codes,
                    start,
                    end,
                    mask,
                    |lo, hi| {
                        if code < lo || code > hi {
                            Some(true)
                        } else if lo == hi {
                            Some(false)
                        } else {
                            None
                        }
                    },
                    |v| v != code,
                );
            }
            CAtom::CatCodeSet { codes, member } => {
                and_mask_col(
                    codes,
                    start,
                    end,
                    mask,
                    |lo, hi| {
                        if lo == hi {
                            Some(member[lo as usize])
                        } else {
                            None
                        }
                    },
                    |v| member[v as usize],
                );
            }
            CAtom::NumCmpI { vals, op, value } => {
                let (op, value) = (*op, *value);
                and_mask_col(
                    vals,
                    start,
                    end,
                    mask,
                    // `as f64` is monotone over i64, so a chunk's cast
                    // values stay inside [lo as f64, hi as f64] and the
                    // endpoint verdicts bound the whole chunk.
                    |lo, hi| {
                        let (tl, th) =
                            (op.eval_f64(lo as f64, value), op.eval_f64(hi as f64, value));
                        if lo == hi {
                            return Some(tl);
                        }
                        match op {
                            CmpOp::Lt | CmpOp::Le => match (tl, th) {
                                (_, true) => Some(true),
                                (false, _) => Some(false),
                                _ => None,
                            },
                            CmpOp::Gt | CmpOp::Ge => match (tl, th) {
                                (true, _) => Some(true),
                                (_, false) => Some(false),
                                _ => None,
                            },
                            CmpOp::Eq => {
                                if value < lo as f64 || value > hi as f64 {
                                    Some(false)
                                } else {
                                    None
                                }
                            }
                            CmpOp::Neq => {
                                if value < lo as f64 || value > hi as f64 {
                                    Some(true)
                                } else {
                                    None
                                }
                            }
                        }
                    },
                    |v| op.eval_f64(v as f64, value),
                );
            }
            // One arm per operator, so each lane loop is a bare
            // comparison rather than a per-lane `match` on the operator;
            // one slice per chunk the window touches.
            CAtom::NumCmpF { vals, op, value } => {
                let t = *value;
                vals.for_each_slice(start, end, |row, v| {
                    let (p0, n) = (row - start, v.len());
                    match op {
                        CmpOp::Eq => and_lanes(mask, p0, n, |i| v[i] == t),
                        CmpOp::Neq => and_lanes(mask, p0, n, |i| v[i] != t),
                        CmpOp::Lt => and_lanes(mask, p0, n, |i| v[i] < t),
                        CmpOp::Le => and_lanes(mask, p0, n, |i| v[i] <= t),
                        CmpOp::Gt => and_lanes(mask, p0, n, |i| v[i] > t),
                        CmpOp::Ge => and_lanes(mask, p0, n, |i| v[i] >= t),
                    }
                });
            }
            CAtom::BetweenI { vals, lo, hi } => {
                let (plo, phi) = (*lo, *hi);
                and_mask_col(
                    vals,
                    start,
                    end,
                    mask,
                    |lo, hi| {
                        if (lo as f64) >= plo && (hi as f64) <= phi {
                            Some(true)
                        } else if (hi as f64) < plo || (lo as f64) > phi {
                            Some(false)
                        } else {
                            None
                        }
                    },
                    |v| {
                        let v = v as f64;
                        v >= plo && v <= phi
                    },
                );
            }
            CAtom::BetweenF { vals, lo, hi } => {
                let (plo, phi) = (*lo, *hi);
                vals.for_each_slice(start, end, |row, v| {
                    and_lanes(mask, row - start, v.len(), |i| v[i] >= plo && v[i] <= phi);
                });
            }
        }
    }
}

/// Clear `len` bits of `mask` starting at bit `from`.
#[inline]
fn clear_bits(mask: &mut [u64], from: usize, len: usize) {
    if len == 0 {
        return;
    }
    let end = from + len;
    let (fw, lw) = (from >> 6, (end - 1) >> 6);
    let head = !0u64 << (from & 63);
    let tail = !0u64 >> (63 - ((end - 1) & 63));
    if fw == lw {
        mask[fw] &= !(head & tail);
    } else {
        mask[fw] &= !head;
        for w in &mut mask[fw + 1..lw] {
            *w = 0;
        }
        mask[lw] &= !tail;
    }
}

/// AND a per-lane test over bits `p0..p0 + len` of `mask`. The aligned
/// body builds each 64-bit verdict word in a branchless lane loop (the
/// u64-wide kernel the scan path vectorizes on) and ANDs it in with one
/// store; ragged edges go bit by bit. Words (and edge bits) already
/// clear are skipped without running the test, so a sparse source mask
/// pays only for the words it covers. The test receives the lane index
/// relative to `p0`.
#[inline]
fn and_lanes(mask: &mut [u64], p0: usize, len: usize, mut test: impl FnMut(usize) -> bool) {
    let end = p0 + len;
    let mut p = p0;
    while p < end && (p & 63) != 0 {
        and_bit(mask, p, |p| test(p - p0));
        p += 1;
    }
    while p + 64 <= end {
        if mask[p >> 6] != 0 {
            let base = p - p0;
            let mut w = 0u64;
            for b in 0..64 {
                w |= (test(base + b) as u64) << b;
            }
            mask[p >> 6] &= w;
        }
        p += 64;
    }
    while p < end {
        and_bit(mask, p, |p| test(p - p0));
        p += 1;
    }
}

/// Clear bit `p` of `mask` if it is set and fails `test`.
#[inline]
fn and_bit(mask: &mut [u64], p: usize, mut test: impl FnMut(usize) -> bool) {
    let bit = 1u64 << (p & 63);
    if mask[p >> 6] & bit != 0 && !test(p) {
        mask[p >> 6] &= !bit;
    }
}

/// Walk the storage segments covering rows `start..end` of a chunked
/// column and AND a value test into `mask`. `stat` gives the whole-chunk
/// verdict from sealed `(min, max)` stats: `Some(true)` leaves the
/// chunk's bits untouched, `Some(false)` clears them, `None` evaluates
/// values — plain and packed payloads lane-wise, RLE payloads once per
/// run.
fn and_mask_col<T: Coded>(
    col: &Chunked<T>,
    start: usize,
    end: usize,
    mask: &mut [u64],
    stat: impl Fn(T, T) -> Option<bool>,
    test: impl Fn(T) -> bool,
) {
    let mut row = start;
    while row < end {
        let seg = col.segment(row);
        let stop = end.min(seg.base + seg.len);
        let (p0, n) = (row - start, stop - row);
        let base_off = row - seg.base;
        if let Some((lo, hi)) = seg.stat {
            match stat(lo, hi) {
                Some(true) => {
                    row = stop;
                    continue;
                }
                Some(false) => {
                    clear_bits(mask, p0, n);
                    row = stop;
                    continue;
                }
                None => {}
            }
        }
        match seg.data {
            SegRef::Plain(v) => and_lanes(mask, p0, n, |i| test(v[base_off + i])),
            SegRef::Packed { min, width, words } => {
                if width == 0 {
                    if !test(min) {
                        clear_bits(mask, p0, n);
                    }
                } else {
                    and_lanes(mask, p0, n, |i| {
                        test(T::from_delta(min, packed_delta(words, width, base_off + i)))
                    });
                }
            }
            SegRef::Rle(runs) => {
                let mut off = base_off;
                let mut i = runs.partition_point(|&(_, e)| (e as usize) <= off);
                while off < base_off + n {
                    let (v, run_end) = runs[i];
                    let run_stop = (run_end as usize).min(base_off + n);
                    if !test(v) {
                        clear_bits(mask, p0 + (off - base_off), run_stop - off);
                    }
                    off = run_stop;
                    i += 1;
                }
            }
        }
        row = stop;
    }
}

/// Words in one [`CHUNK_ROWS`]-row window mask.
const WINDOW_WORDS: usize = CHUNK_ROWS / 64;

/// Reusable window masks for the scan loop: the source mask rows are
/// extracted from, and (for OR predicates) the per-conjunction and
/// union masks.
struct MaskScratch {
    mask: [u64; WINDOW_WORDS],
    conj: [u64; WINDOW_WORDS],
    any: [u64; WINDOW_WORDS],
}

/// A whole predicate compiled for scanning.
pub enum CompiledPred<'a> {
    True,
    And(Vec<CAtom<'a>>),
    Or(Vec<Vec<CAtom<'a>>>),
}

impl CompiledPred<'_> {
    pub fn is_true(&self) -> bool {
        matches!(self, CompiledPred::True)
    }

    /// AND the predicate's truth over rows `start..end` (one window)
    /// into `s.mask[..words]`, bit `i` ↔ row `start + i`. A conjunction
    /// ANDs its atoms in place; a disjunction ANDs each conjunction into
    /// a copy of the mask and ORs the copies. Sealed chunks are consumed
    /// in place (`CAtom::and_mask`) and clear words are skipped.
    fn and_window(&self, start: usize, end: usize, words: usize, s: &mut MaskScratch) {
        let mask = &mut s.mask[..words];
        match self {
            CompiledPred::True => {}
            CompiledPred::And(atoms) => {
                for a in atoms {
                    a.and_mask(start, end, mask);
                }
            }
            CompiledPred::Or(disj) => {
                let (conj, any) = (&mut s.conj[..words], &mut s.any[..words]);
                any.fill(0);
                for c in disj {
                    conj.copy_from_slice(mask);
                    for a in c {
                        a.and_mask(start, end, conj);
                    }
                    for (u, t) in any.iter_mut().zip(conj.iter()) {
                        *u |= *t;
                    }
                }
                mask.copy_from_slice(any);
            }
        }
    }
}

pub fn compile_atom<'a>(table: &'a Table, atom: &Atom) -> Result<CAtom<'a>, StorageError> {
    atom.validate(table)?;
    let col = table.column(atom.column())?;
    Ok(match atom {
        Atom::CatEq { value, .. } => {
            let c = col.as_cat().unwrap();
            match c.code_of(value) {
                Some(code) => CAtom::CatEqCode {
                    codes: c.codes(),
                    code,
                },
                None => CAtom::ConstBool(false),
            }
        }
        Atom::CatNeq { value, .. } => {
            let c = col.as_cat().unwrap();
            match c.code_of(value) {
                Some(code) => CAtom::CatNeqCode {
                    codes: c.codes(),
                    code,
                },
                None => CAtom::ConstBool(true),
            }
        }
        Atom::CatIn { values, .. } => {
            let c = col.as_cat().unwrap();
            let mut member = vec![false; c.cardinality()];
            for v in values {
                if let Some(code) = c.code_of(v) {
                    member[code as usize] = true;
                }
            }
            CAtom::CatCodeSet {
                codes: c.codes(),
                member,
            }
        }
        Atom::StrPrefix { prefix, .. } => {
            let c = col.as_cat().unwrap();
            let member = c
                .dict()
                .iter()
                .map(|s| s.starts_with(prefix.as_str()))
                .collect();
            CAtom::CatCodeSet {
                codes: c.codes(),
                member,
            }
        }
        Atom::NumCmp { op, value, .. } => match col {
            Column::Int(v) => CAtom::NumCmpI {
                vals: v,
                op: *op,
                value: *value,
            },
            Column::Float(v) => CAtom::NumCmpF {
                vals: v,
                op: *op,
                value: *value,
            },
            Column::Cat(_) => unreachable!("validated"),
        },
        Atom::NumBetween { lo, hi, .. } => match col {
            Column::Int(v) => CAtom::BetweenI {
                vals: v,
                lo: *lo,
                hi: *hi,
            },
            Column::Float(v) => CAtom::BetweenF {
                vals: v,
                lo: *lo,
                hi: *hi,
            },
            Column::Cat(_) => unreachable!("validated"),
        },
    })
}

pub fn compile_pred<'a>(
    table: &'a Table,
    pred: &Predicate,
) -> Result<CompiledPred<'a>, StorageError> {
    Ok(match pred {
        Predicate::True => CompiledPred::True,
        Predicate::And(atoms) if atoms.is_empty() => CompiledPred::True,
        Predicate::And(atoms) => CompiledPred::And(
            atoms
                .iter()
                .map(|a| compile_atom(table, a))
                .collect::<Result<_, _>>()?,
        ),
        Predicate::Or(disj) => CompiledPred::Or(
            disj.iter()
                .map(|c| {
                    c.iter()
                        .map(|a| compile_atom(table, a))
                        .collect::<Result<_, _>>()
                })
                .collect::<Result<_, _>>()?,
        ),
    })
}

// ---------------------------------------------------------------------
// Row sources
// ---------------------------------------------------------------------

/// Rows per scan window. Every source is scanned as consecutive windows
/// of up to this many rows, each reduced to a `u64` mask (one bit per
/// row) before its qualifying row ids are handed to the aggregation
/// kernel: 4096 rows = 64 mask words, 16 KiB of row ids plus 32 KiB of
/// codes — cache-resident alongside the dimension columns being
/// gathered. It is also the cancellation grain: the scan checks its ctx
/// once per window.
pub const CHUNK_ROWS: usize = 4096;

/// Where qualifying rows come from. Every shape is scanned by the same
/// window loop and differs only in its *source mask* — the rows the
/// window visits before any residual predicate — and in its row span.
pub enum RowSource<'a> {
    /// Every row `0..n` (100% selectivity, no predicate work). Source
    /// mask: all ones.
    All(usize),
    /// Rows pre-selected by bitmap index algebra over the whole table.
    /// Source mask: the bitmap's words for the window; windows without
    /// a member are skipped without touching a column.
    Bitmap(RoaringBitmap),
    /// Full scan with a compiled filter. Source mask: all ones, the
    /// filter ANDed in per window.
    Filtered {
        n_rows: usize,
        pred: CompiledPred<'a>,
    },
    /// Bitmap candidates with a residual filter (numeric atoms the
    /// bitmap index cannot answer). Source mask: the bitmap's words,
    /// the residual ANDed in only where they are non-zero.
    BitmapFiltered {
        rows: RoaringBitmap,
        pred: CompiledPred<'a>,
    },
    /// A contiguous row interval `[start, end)` with the query predicate
    /// applied as a residual — the incremental-view-maintenance delta
    /// scan over rows appended between two table versions.
    Range {
        start: usize,
        end: usize,
        pred: Option<CompiledPred<'a>>,
    },
}

impl<'a> RowSource<'a> {
    /// Rows this source will *visit* — the work estimate the parallel
    /// routing threshold compares against.
    pub fn estimated_rows(&self) -> usize {
        match self {
            RowSource::All(n) => *n,
            RowSource::Bitmap(bm) => bm.len() as usize,
            RowSource::Filtered { n_rows, .. } => *n_rows,
            RowSource::BitmapFiltered { rows, .. } => rows.len() as usize,
            RowSource::Range { start, end, .. } => *end - *start,
        }
    }

    /// The row interval dimension statistics may be restricted to
    /// (see [`build_dim`]'s range-aware variant): a bounded range scan
    /// never encodes a row outside `[start, end)`, so its group-axis
    /// min/max/distinct passes can cover just the range instead of the
    /// whole column. `None` means "whole column" for every other source
    /// (a predicate-filtered scan may still touch any row).
    pub fn stat_rows(&self) -> Option<(usize, usize)> {
        match self {
            RowSource::Range { start, end, .. } => Some((*start, *end)),
            _ => None,
        }
    }

    /// The source bitmap (if any) and the residual predicate (if any
    /// that is not trivially true).
    fn parts(&self) -> (Option<&RoaringBitmap>, Option<&CompiledPred<'a>>) {
        let (bitmap, pred) = match self {
            RowSource::All(_) => (None, None),
            RowSource::Bitmap(bm) => (Some(bm), None),
            RowSource::Filtered { pred, .. } => (None, Some(pred)),
            RowSource::BitmapFiltered { rows, pred } => (Some(rows), Some(pred)),
            RowSource::Range { pred, .. } => (None, pred.as_ref()),
        };
        (bitmap, pred.filter(|p| !p.is_true()))
    }

    /// The rows `[start, end)` the scan's windows cover. Bitmap sources
    /// span the whole table, `n_rows` rows; the others carry their span.
    fn span(&self, n_rows: usize) -> (usize, usize) {
        match self {
            RowSource::All(n) | RowSource::Filtered { n_rows: n, .. } => (0, *n),
            RowSource::Range { start, end, .. } => (*start, *end),
            RowSource::Bitmap(bm) | RowSource::BitmapFiltered { rows: bm, .. } => {
                debug_assert!(bm.max().is_none_or(|m| (m as usize) < n_rows));
                (0, n_rows)
            }
        }
    }

    /// Morsel `m` scans rows `bounds[m]..bounds[m + 1]`. Range-shaped
    /// sources are cut every `morsel_rows` rows. Bitmap sources are cut
    /// at 64-row word boundaries so that each morsel holds about
    /// `morsel_rows` members (to within one word): a sparse bitmap gets
    /// as many morsels as it has rows to visit, not as many as its row
    /// space would. The cuts depend only on the bitmap, so the ordered
    /// merge stays deterministic.
    fn morsel_bounds(&self, n_rows: usize, morsel_rows: usize) -> Vec<usize> {
        let (start, end) = self.span(n_rows);
        let mut bounds = vec![start];
        match self.parts().0 {
            None => bounds.extend((start.saturating_add(morsel_rows)..end).step_by(morsel_rows)),
            Some(bm) => {
                for member in bm.select_every(morsel_rows) {
                    let cut = member as usize & !63;
                    if cut > bounds[bounds.len() - 1] {
                        bounds.push(cut);
                    }
                }
            }
        }
        if end > start {
            bounds.push(end);
        }
        bounds
    }

    /// The scan loop every source shares. Walks rows `start..end` in
    /// windows of up to [`CHUNK_ROWS`] rows; per window it
    ///
    /// 1. checks `ctx` for cancellation,
    /// 2. fills the source mask (all ones, or the bitmap's words) and
    ///    skips the window if it is zero,
    /// 3. ANDs the residual predicate in,
    /// 4. hands the set bits, as ascending row ids, to `f`, and
    /// 5. records the window's *visited* rows — set bits of the source
    ///    mask, counted before the residual — on `ctx`.
    ///
    /// Returns rows visited and whether the scan completed (`false`:
    /// the ctx was cancelled and the scan stopped between windows).
    fn scan_ctx<F: FnMut(&[u32])>(
        &self,
        start: usize,
        end: usize,
        ctx: &QueryCtx,
        mut f: F,
    ) -> (u64, bool) {
        let (bitmap, residual) = self.parts();
        let mut s = MaskScratch {
            mask: [0; WINDOW_WORDS],
            conj: [0; WINDOW_WORDS],
            any: [0; WINDOW_WORDS],
        };
        let mut rows: Vec<u32> = Vec::with_capacity(CHUNK_ROWS);
        let mut visited = 0u64;
        let mut w = start;
        while w < end {
            if ctx.is_cancelled() {
                return (visited, false);
            }
            let n = (end - w).min(CHUNK_ROWS);
            let words = n.div_ceil(64);
            let mask = &mut s.mask[..words];
            let seen = match bitmap {
                Some(bm) => {
                    bm.fill_words(w as u32, n, mask);
                    mask.iter().map(|m| m.count_ones() as u64).sum()
                }
                None => {
                    mask.fill(!0);
                    if n & 63 != 0 {
                        mask[words - 1] = !0 >> (64 - (n & 63));
                    }
                    n as u64
                }
            };
            if seen > 0 {
                if let Some(p) = residual {
                    p.and_window(w, w + n, words, &mut s);
                }
                rows.clear();
                for (wi, &word) in s.mask[..words].iter().enumerate() {
                    let base = (w + (wi << 6)) as u32;
                    if word == !0 {
                        rows.extend(base..base + 64);
                        continue;
                    }
                    let mut bits = word;
                    while bits != 0 {
                        rows.push(base + bits.trailing_zeros());
                        bits &= bits - 1;
                    }
                }
                if !rows.is_empty() {
                    f(&rows);
                }
                ctx.record_scanned(seen);
                visited += seen;
            }
            w += n;
        }
        (visited, true)
    }
}

// ---------------------------------------------------------------------
// Group-dimension encoders
// ---------------------------------------------------------------------

/// Per-row group-key extraction for one dimension, plus decoding back to
/// values for the finalize phase.
pub enum DimEncoder<'a> {
    /// Dictionary-encoded categorical column: the dict code *is* the key.
    Cat {
        codes: &'a CodeColumn,
        dict: &'a [String],
    },
    /// Integer column with a narrow value range: `code = v - min`.
    IntOffset {
        vals: &'a IntColumn,
        min: i64,
        card: usize,
    },
    /// Integer column with a wide range: code = rank in sorted distincts.
    IntRank {
        vals: &'a IntColumn,
        distinct: Vec<i64>,
    },
    /// Binned numeric axis: `code = floor(v/width) - min_bin`.
    BinnedI {
        vals: &'a IntColumn,
        width: f64,
        min_bin: i64,
        card: usize,
    },
    BinnedF {
        vals: &'a FloatColumn,
        width: f64,
        min_bin: i64,
        card: usize,
    },
}

/// Walk the storage segments spanned by an ascending row-id chunk:
/// calls `f(i, j, seg)` for each maximal id subrange `rows[i..j]` that
/// falls inside one segment. The scan loop hands out ascending ids,
/// which is what makes this a forward walk — one segment lookup plus one partition point per
/// segment touched, not per row.
#[inline]
fn for_spans<'a, T: Coded>(
    col: &'a Chunked<T>,
    rows: &[u32],
    mut f: impl FnMut(usize, usize, crate::column::Segment<'a, T>),
) {
    let mut i = 0;
    while i < rows.len() {
        let seg = col.segment(rows[i] as usize);
        let seg_end = seg.base + seg.len;
        let j = i + rows[i..].partition_point(|&r| (r as usize) < seg_end);
        f(i, j, seg);
        i = j;
    }
}

/// The float analogue of [`for_spans`]: calls `f(i, j, base, vals)` for
/// each maximal id subrange `rows[i..j]` inside one segment, whose first
/// row is `base` — one slice per chunk a window touches, no chunk lookup
/// per row.
#[inline]
fn for_float_spans<'a>(
    col: &'a FloatColumn,
    rows: &[u32],
    mut f: impl FnMut(usize, usize, usize, &'a [f64]),
) {
    let mut i = 0;
    while i < rows.len() {
        let (base, vals) = col.segment(rows[i] as usize);
        let seg_end = base + vals.len();
        let j = i + rows[i..].partition_point(|&r| (r as usize) < seg_end);
        f(i, j, base, vals);
        i = j;
    }
}

/// Gather `code_of(value) * stride` into `out` for each id in `rows`,
/// straight from the encoded segments: plain slices index directly,
/// bit-packed chunks unpack lanes from the packed words (constant
/// chunks hoist one code for the whole span), and RLE runs compute
/// `code_of` once per run — the run cursor only ever moves forward
/// because ids are ascending.
#[inline]
fn gather_acc<T: Coded>(
    col: &Chunked<T>,
    rows: &[u32],
    stride: u64,
    out: &mut [u64],
    mut code_of: impl FnMut(T) -> u64,
) {
    for_spans(col, rows, |i, j, seg| match seg.data {
        SegRef::Plain(v) => {
            for k in i..j {
                out[k] += code_of(v[rows[k] as usize - seg.base]) * stride;
            }
        }
        SegRef::Packed { min, width, words } => {
            if width == 0 {
                let add = code_of(min) * stride;
                for o in &mut out[i..j] {
                    *o += add;
                }
            } else {
                for k in i..j {
                    let d = packed_delta(words, width, rows[k] as usize - seg.base);
                    out[k] += code_of(T::from_delta(min, d)) * stride;
                }
            }
        }
        SegRef::Rle(runs) => {
            let mut ri =
                runs.partition_point(|&(_, e)| (e as usize) <= rows[i] as usize - seg.base);
            let mut cached = code_of(runs[ri].0) * stride;
            for k in i..j {
                let off = rows[k] as usize - seg.base;
                if (runs[ri].1 as usize) <= off {
                    while (runs[ri].1 as usize) <= off {
                        ri += 1;
                    }
                    cached = code_of(runs[ri].0) * stride;
                }
                out[k] += cached;
            }
        }
    });
}

impl DimEncoder<'_> {
    #[inline]
    pub fn encode(&self, row: usize) -> u64 {
        match self {
            DimEncoder::Cat { codes, .. } => codes.get(row) as u64,
            DimEncoder::IntOffset { vals, min, .. } => (vals.get(row) - min) as u64,
            DimEncoder::IntRank { vals, distinct } => distinct
                .binary_search(&vals.get(row))
                .expect("value seen during build")
                as u64,
            DimEncoder::BinnedI {
                vals,
                width,
                min_bin,
                ..
            } => ((vals.get(row) as f64 / width).floor() as i64 - min_bin) as u64,
            DimEncoder::BinnedF {
                vals,
                width,
                min_bin,
                ..
            } => ((vals.get(row) / width).floor() as i64 - min_bin) as u64,
        }
    }

    /// Columnar batch encode: add `encode(row) * stride` into `out` for
    /// every row of the chunk. One variant dispatch per chunk per
    /// dimension instead of one per row — the inner loops are tight
    /// gather-multiply-accumulate passes that read encoded chunks in
    /// place (`gather_acc`): packed words are unpacked lane by lane
    /// without materializing the chunk, and per-value transforms (the
    /// rank binary search, the binned floor-divide) collapse to once per
    /// RLE run.
    #[inline]
    pub fn encode_acc(&self, rows: &[u32], stride: u64, out: &mut [u64]) {
        debug_assert_eq!(rows.len(), out.len());
        match self {
            DimEncoder::Cat { codes, .. } => {
                gather_acc(codes, rows, stride, out, |v| v as u64);
            }
            DimEncoder::IntOffset { vals, min, .. } => {
                let min = *min;
                gather_acc(vals, rows, stride, out, |v| (v - min) as u64);
            }
            DimEncoder::IntRank { vals, distinct } => {
                gather_acc(vals, rows, stride, out, |v| {
                    distinct.binary_search(&v).expect("value seen during build") as u64
                });
            }
            DimEncoder::BinnedI {
                vals,
                width,
                min_bin,
                ..
            } => {
                let (width, min_bin) = (*width, *min_bin);
                gather_acc(vals, rows, stride, out, |v| {
                    ((v as f64 / width).floor() as i64 - min_bin) as u64
                });
            }
            DimEncoder::BinnedF {
                vals,
                width,
                min_bin,
                ..
            } => {
                let (width, min_bin) = (*width, *min_bin);
                for_float_spans(vals, rows, |i, j, base, v| {
                    for k in i..j {
                        let x = v[rows[k] as usize - base];
                        out[k] += ((x / width).floor() as i64 - min_bin) as u64 * stride;
                    }
                });
            }
        }
    }

    pub fn cardinality(&self) -> usize {
        match self {
            DimEncoder::Cat { dict, .. } => dict.len(),
            DimEncoder::IntOffset { card, .. } => *card,
            DimEncoder::IntRank { distinct, .. } => distinct.len(),
            DimEncoder::BinnedI { card, .. } | DimEncoder::BinnedF { card, .. } => *card,
        }
    }

    pub fn decode(&self, code: u64) -> Value {
        match self {
            DimEncoder::Cat { dict, .. } => Value::Str(dict[code as usize].clone()),
            DimEncoder::IntOffset { min, .. } => Value::Int(min + code as i64),
            DimEncoder::IntRank { distinct, .. } => Value::Int(distinct[code as usize]),
            DimEncoder::BinnedI { width, min_bin, .. } => {
                Value::Float((min_bin + code as i64) as f64 * width)
            }
            DimEncoder::BinnedF { width, min_bin, .. } => {
                Value::Float((min_bin + code as i64) as f64 * width)
            }
        }
    }
}

/// Widest value range an integer column may span before we switch from
/// offset encoding (O(1), dense) to rank encoding (binary search).
const INT_OFFSET_MAX_RANGE: i64 = 1 << 22;

pub fn build_dim<'a>(table: &'a Table, spec: &XSpec) -> Result<DimEncoder<'a>, StorageError> {
    build_dim_over(table, spec, None)
}

/// [`build_dim`] with the dimension *statistics* (min/max, distinct
/// values) computed over only the row range `rows` instead of the whole
/// column. Row *indexing* still uses the full column slice, so codes
/// are valid for any row inside the range. This is what makes the IVM
/// delta scan O(delta): a [`RowSource::Range`] visits only `[start,
/// end)`, and an encoder whose stats cover exactly those rows encodes
/// them correctly — the full-column min/max pass (~the whole table for
/// a 1k-row delta) is skipped. Results are decoded to values before any
/// cross-version merge, so a range-local encoding is sound.
fn build_dim_over<'a>(
    table: &'a Table,
    spec: &XSpec,
    rows: Option<(usize, usize)>,
) -> Result<DimEncoder<'a>, StorageError> {
    let col = table.column(&spec.col)?;
    let stat = |len: usize| -> (usize, usize) {
        match rows {
            Some((s, e)) => (s.min(len), e.min(len)),
            None => (0, len),
        }
    };
    if let Some(width) = spec.bin {
        if width <= 0.0 {
            return Err(StorageError::Malformed(format!(
                "bin width must be positive: {width}"
            )));
        }
        return match col {
            Column::Int(v) => {
                let (s, e) = stat(v.len());
                if s >= e {
                    return Ok(DimEncoder::BinnedI {
                        vals: v,
                        width,
                        min_bin: 0,
                        card: 0,
                    });
                }
                // Chunk-stat fold (O(chunks + edge rows)) — the delta
                // scan's O(delta) append guarantee depends on this.
                let (lo, hi) = v.minmax(s, e).expect("nonempty range");
                let min_bin = (lo as f64 / width).floor() as i64;
                let max_bin = (hi as f64 / width).floor() as i64;
                Ok(DimEncoder::BinnedI {
                    vals: v,
                    width,
                    min_bin,
                    card: (max_bin - min_bin + 1).max(1) as usize,
                })
            }
            Column::Float(v) => {
                let (s, e) = stat(v.len());
                if s >= e {
                    return Ok(DimEncoder::BinnedF {
                        vals: v,
                        width,
                        min_bin: 0,
                        card: 0,
                    });
                }
                // Sealed-chunk stats answer covered chunks.
                let (lo, hi) = v.minmax(s, e).expect("nonempty range");
                let min_bin = (lo / width).floor() as i64;
                let max_bin = (hi / width).floor() as i64;
                Ok(DimEncoder::BinnedF {
                    vals: v,
                    width,
                    min_bin,
                    card: (max_bin - min_bin + 1).max(1) as usize,
                })
            }
            Column::Cat(_) => Err(StorageError::TypeMismatch(format!(
                "cannot bin categorical column {}",
                spec.col
            ))),
        };
    }
    match col {
        // Dictionary cardinality is a stored property, not a column
        // pass — the full dict stays correct (and cheap) for any range.
        Column::Cat(c) => Ok(DimEncoder::Cat {
            codes: c.codes(),
            dict: c.dict(),
        }),
        Column::Int(v) => {
            let (s, e) = stat(v.len());
            if s >= e {
                return Ok(DimEncoder::IntOffset {
                    vals: v,
                    min: 0,
                    card: 0,
                });
            }
            let (lo, hi) = v.minmax(s, e).expect("nonempty range");
            if hi - lo < INT_OFFSET_MAX_RANGE {
                Ok(DimEncoder::IntOffset {
                    vals: v,
                    min: lo,
                    card: (hi - lo + 1) as usize,
                })
            } else {
                let mut distinct = Vec::with_capacity(e - s);
                v.for_each_range(s, e, |_, x| distinct.push(x));
                distinct.sort_unstable();
                distinct.dedup();
                Ok(DimEncoder::IntRank { vals: v, distinct })
            }
        }
        Column::Float(_) => Err(StorageError::TypeMismatch(format!(
            "float column {} must be binned to be used as a group axis",
            spec.col
        ))),
    }
}

// ---------------------------------------------------------------------
// Aggregation kernel
// ---------------------------------------------------------------------

/// Numeric measure access.
#[derive(Clone, Copy)]
pub enum YCol<'a> {
    I(&'a IntColumn),
    F(&'a FloatColumn),
    /// COUNT(*) needs no column.
    Unit,
}

/// Gather the measures of one window: `out[i * ys.len() + j]` becomes
/// measure `j` at row `rows[i]` (rows ascending). One dispatch per
/// measure per window; a float measure is read one slice per chunk the
/// window touches.
fn gather_ys(ys: &[YCol<'_>], rows: &[u32], out: &mut Vec<f64>) {
    let n = ys.len();
    // Every slot is written below, so only a longer window needs fill.
    out.resize(rows.len() * n, 0.0);
    for (j, y) in ys.iter().enumerate() {
        match y {
            YCol::I(v) => {
                for (i, &r) in rows.iter().enumerate() {
                    out[i * n + j] = v.get(r as usize) as f64;
                }
            }
            YCol::F(v) => for_float_spans(v, rows, |a, b, base, vals| {
                for k in a..b {
                    out[k * n + j] = vals[rows[k] as usize - base];
                }
            }),
            YCol::Unit => {
                for i in 0..rows.len() {
                    out[i * n + j] = 1.0;
                }
            }
        }
    }
}

/// How group slots are located during accumulation. The choice is the
/// mechanism behind the Figure 7.5 crossover: dense arrays win at high
/// selectivity with many groups; hash lookup is cardinality-oblivious.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupStrategy {
    Dense,
    Hash,
}

impl GroupStrategy {
    /// The `dense_limit` under which [`build_plan`] always picks `self`.
    fn forced_limit(self) -> u128 {
        match self {
            GroupStrategy::Dense => u128::MAX,
            GroupStrategy::Hash => 0,
        }
    }
}

/// Tuning for the parallel (morsel-claiming) scan. Shared by both
/// engines' configs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads for a single aggregation; `0` = all hardware
    /// threads, `1` = always serial.
    pub threads: usize,
    /// Sources expected to visit fewer rows than this stay serial: worker
    /// setup + merge costs a few tens of microseconds, which only pays
    /// for itself on bulk scans.
    pub min_parallel_rows: usize,
    /// Rows per morsel. The default ([`MORSEL_ROWS`]) is the production
    /// sweet spot; tests and the CI scheduling matrix shrink it so small
    /// tables still split into many claimable units.
    pub morsel_rows: usize,
    /// Deterministic fault injection for the parallel scan and the
    /// result cache ([`crate::fault`]). Disabled by default (a single
    /// branch per injection point); armed by chaos tests and the CI
    /// chaos leg via `ZV_FAULT_SEED` / `ZV_FAULT_RATE` /
    /// `ZV_FAULT_DELAY_US` (read by [`ParallelConfig::from_env`]).
    pub fault: crate::fault::FaultSpec,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: 0,
            min_parallel_rows: 1 << 16,
            morsel_rows: MORSEL_ROWS,
            fault: crate::fault::FaultSpec::disabled(),
        }
    }
}

impl ParallelConfig {
    /// Threads an aggregation over `rows` visited rows should use.
    pub fn threads_for(&self, rows: usize) -> usize {
        if rows < self.min_parallel_rows {
            1
        } else {
            parallel::effective_threads(self.threads)
        }
    }

    /// The default config with the process environment applied — what
    /// both engines' default configs use, so CI (and operators) can force
    /// a scheduling configuration without touching code:
    ///
    /// * `ZV_SCHED_THREADS=N` — explicit worker count (overrides auto);
    ///   `1` pins every scan to the serial path.
    /// * `ZV_SCHED_MIN_ROWS=N` — the `min_parallel_rows` serial gate.
    ///   CI's scheduling matrix sets `0` so even tiny test tables
    ///   exercise the forced machinery.
    /// * `ZV_SCHED_MORSEL_ROWS=N` (N ≥ 1) — morsel size. The matrix
    ///   shrinks it so the same tiny tables split into *many* morsels
    ///   and genuinely exercise claiming and the ordered merge.
    ///
    /// Invalid values **panic** with the offending value, and so does
    /// any other `ZV_SCHED_*` name (a typo, or a retired knob): a typo'd
    /// CI matrix leg must fail loudly, not silently run the default
    /// configuration and pass vacuously. Empty / whitespace-only values
    /// of the three names count as unset (matrices pass `""` for
    /// non-overridden rows). The fault-injection knobs (`ZV_FAULT_SEED` /
    /// `ZV_FAULT_RATE` / `ZV_FAULT_DELAY_US`) are read here too, via
    /// [`crate::fault::FaultSpec::from_env`], so the CI chaos leg arms
    /// injection the same way the scheduling matrix forces schedulers.
    pub fn from_env() -> Self {
        let vars: Vec<(String, String)> = std::env::vars_os()
            .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?)))
            .collect();
        let mut cfg = Self::from_env_spec(vars.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        cfg.fault = crate::fault::FaultSpec::from_env();
        cfg
    }

    /// Testable core of [`ParallelConfig::from_env`]: applies the
    /// `ZV_SCHED_*` entries of `(name, value)` pairs to the default
    /// config and ignores every other name.
    fn from_env_spec<'v>(vars: impl IntoIterator<Item = (&'v str, &'v str)>) -> Self {
        let mut cfg = ParallelConfig::default();
        for (name, value) in vars {
            let Some(knob) = name.strip_prefix("ZV_SCHED_") else {
                continue;
            };
            let v = value.trim();
            let count = |ok: fn(usize) -> bool, what: &str| match v.parse::<usize>() {
                Ok(n) if ok(n) => n,
                _ => panic!("{name}={v:?} is not {what}"),
            };
            match knob {
                "THREADS" | "MIN_ROWS" | "MORSEL_ROWS" if v.is_empty() => {}
                "THREADS" => cfg.threads = count(|_| true, "a thread count"),
                "MIN_ROWS" => cfg.min_parallel_rows = count(|_| true, "a row count"),
                "MORSEL_ROWS" => cfg.morsel_rows = count(|n| n >= 1, "a positive row count"),
                _ => panic!(
                    "{name} is not a scheduling variable (known: ZV_SCHED_THREADS, \
                     ZV_SCHED_MIN_ROWS, ZV_SCHED_MORSEL_ROWS); morsel claiming is the only \
                     parallel scheduler — for a serial scan set ZV_SCHED_THREADS=1 in place \
                     of ZV_SCHED_MODE=serial"
                ),
            }
        }
        cfg
    }
}

/// Cap on `total_slots × workers` for parallel dense accumulation: each
/// worker owns a private dense array, so very wide key spaces shed
/// workers rather than exhaust memory (2²² slots ≈ 100 MiB of partials
/// in the worst all-aggregates case).
const DENSE_PARALLEL_SLOT_BUDGET: u64 = 1 << 22;

struct Accumulators {
    n_ys: usize,
    sums: Vec<f64>,
    mins: Vec<f64>,
    maxs: Vec<f64>,
    counts: Vec<u64>,
    need_minmax: bool,
}

impl Accumulators {
    fn new(slots: usize, n_ys: usize, need_minmax: bool) -> Self {
        Accumulators {
            n_ys,
            sums: vec![0.0; slots * n_ys],
            mins: if need_minmax {
                vec![f64::INFINITY; slots * n_ys]
            } else {
                Vec::new()
            },
            maxs: if need_minmax {
                vec![f64::NEG_INFINITY; slots * n_ys]
            } else {
                Vec::new()
            },
            counts: vec![0; slots],
            need_minmax,
        }
    }

    /// Drop every slot but keep the allocations (growable accumulators
    /// reused morsel-to-morsel).
    #[inline]
    fn clear(&mut self) {
        self.sums.clear();
        self.mins.clear();
        self.maxs.clear();
        self.counts.clear();
    }

    /// Pre-size for up to `extra` additional slots (one reservation per
    /// chunk instead of one reallocation check per new group).
    #[inline]
    fn reserve(&mut self, extra: usize) {
        self.sums.reserve(extra * self.n_ys);
        if self.need_minmax {
            self.mins.reserve(extra * self.n_ys);
            self.maxs.reserve(extra * self.n_ys);
        }
        self.counts.reserve(extra);
    }

    #[inline]
    fn grow_one(&mut self) -> usize {
        let slot = self.counts.len();
        for _ in 0..self.n_ys {
            self.sums.push(0.0);
            if self.need_minmax {
                self.mins.push(f64::INFINITY);
                self.maxs.push(f64::NEG_INFINITY);
            }
        }
        self.counts.push(0);
        slot
    }

    /// Count one row into `slot`, with its measure values `ys` (one
    /// per measure, as [`gather_ys`] lays them out).
    #[inline]
    fn update(&mut self, slot: usize, ys: &[f64]) {
        self.counts[slot] += 1;
        let base = slot * self.n_ys;
        for (j, &v) in ys.iter().enumerate() {
            self.sums[base + j] += v;
            if self.need_minmax {
                if v < self.mins[base + j] {
                    self.mins[base + j] = v;
                }
                if v > self.maxs[base + j] {
                    self.maxs[base + j] = v;
                }
            }
        }
    }

    /// Fold another partial's slot into one of ours (morsel compaction
    /// and the ordered merge). Exact for counts and min/max; float sums
    /// depend on the order partials are folded in.
    #[inline]
    fn merge_slot(&mut self, slot: usize, other: &Accumulators, other_slot: usize) {
        debug_assert_eq!(self.n_ys, other.n_ys);
        self.counts[slot] += other.counts[other_slot];
        let base = slot * self.n_ys;
        let obase = other_slot * self.n_ys;
        for j in 0..self.n_ys {
            self.sums[base + j] += other.sums[obase + j];
            if self.need_minmax {
                if other.mins[obase + j] < self.mins[base + j] {
                    self.mins[base + j] = other.mins[obase + j];
                }
                if other.maxs[obase + j] > self.maxs[base + j] {
                    self.maxs[base + j] = other.maxs[obase + j];
                }
            }
        }
    }

    fn finalize(&self, slot: usize, aggs: &[Agg]) -> Vec<f64> {
        let base = slot * self.n_ys;
        let n = self.counts[slot] as f64;
        aggs.iter()
            .enumerate()
            .map(|(j, agg)| match agg {
                Agg::Sum => self.sums[base + j],
                Agg::Avg => self.sums[base + j] / n,
                Agg::Count => n,
                Agg::Min => self.mins[base + j],
                Agg::Max => self.maxs[base + j],
            })
            .collect()
    }
}

/// Widest key space a Dense plan may allocate slots for. It equals
/// `ScanDb`'s default `dense_group_limit`, so no plan an engine picks by
/// default is refused; an explicit Dense over a wider space returns
/// [`StorageError::ResourceExhausted`] instead of aborting on the
/// allocation.
const DENSE_SLOT_CAP: u64 = 1 << 24;

/// Everything derived from `(table, query)` that the scan needs:
/// dimension encoders (z₁..z_k then x), composite-key strides, measure
/// columns, aggregate specs, and the slot strategy.
struct GroupPlan<'a> {
    dims: Vec<DimEncoder<'a>>,
    strides: Vec<u64>,
    total: u64,
    strategy: GroupStrategy,
    ys: Vec<YCol<'a>>,
    aggs: Vec<Agg>,
    need_minmax: bool,
}

/// Build the plan for `query` over `source`: Dense when the composite
/// key space is at most `dense_limit` (the accumulator arrays stay
/// cache-resident relative to the rows scanned), Hash above. Dimension
/// statistics cover only the source's [`RowSource::stat_rows`]. This is
/// the one place plan and strategy meet.
fn build_plan<'a>(
    table: &'a Table,
    query: &SelectQuery,
    source: &RowSource<'_>,
    dense_limit: u128,
) -> Result<GroupPlan<'a>, StorageError> {
    let rows = source.stat_rows();
    // Dimension order: z₁..z_k, then x innermost (stride 1).
    let mut dims: Vec<DimEncoder<'a>> = Vec::with_capacity(query.zs.len() + 1);
    for z in &query.zs {
        dims.push(build_dim_over(table, &XSpec::raw(z.clone()), rows)?);
    }
    dims.push(build_dim_over(table, &query.x, rows)?);

    let mut ys: Vec<YCol<'a>> = Vec::with_capacity(query.ys.len());
    let mut aggs: Vec<Agg> = Vec::with_capacity(query.ys.len());
    for y in &query.ys {
        let ycol = if y.agg == Agg::Count && y.col == "*" {
            YCol::Unit
        } else {
            match table.column(&y.col)? {
                Column::Int(v) => YCol::I(v),
                Column::Float(v) => YCol::F(v),
                Column::Cat(_) => {
                    if y.agg == Agg::Count {
                        YCol::Unit
                    } else {
                        return Err(StorageError::TypeMismatch(format!(
                            "cannot {} categorical column {}",
                            y.agg, y.col
                        )));
                    }
                }
            }
        };
        ys.push(ycol);
        aggs.push(y.agg);
    }
    let need_minmax = aggs.iter().any(|a| matches!(a, Agg::Min | Agg::Max));

    // Strides for the composite code (x last → stride 1).
    let mut strides = vec![1u64; dims.len()];
    let mut total: u128 = 1;
    for i in (0..dims.len()).rev() {
        strides[i] = total as u64;
        total *= dims[i].cardinality().max(1) as u128;
    }
    if total > u64::MAX as u128 {
        return Err(StorageError::Malformed(
            "group key space exceeds u64".into(),
        ));
    }
    let strategy = if total <= dense_limit {
        GroupStrategy::Dense
    } else {
        GroupStrategy::Hash
    };
    if strategy == GroupStrategy::Dense && total > DENSE_SLOT_CAP as u128 {
        return Err(StorageError::ResourceExhausted(format!(
            "dense aggregation over {total} group slots exceeds the cap of {DENSE_SLOT_CAP}"
        )));
    }

    Ok(GroupPlan {
        dims,
        strides,
        total: total as u64,
        strategy,
        ys,
        aggs,
        need_minmax,
    })
}

/// The serial scan's accumulation state: a reusable window buffer plus
/// strategy-specific slot storage.
struct ChunkAccumulator<'p, 'a> {
    plan: &'p GroupPlan<'a>,
    strategy: GroupStrategy,
    acc: Accumulators,
    /// Hash strategy only: composite code → slot.
    slot_of: HashMap<u64, u32>,
    buf: WindowBuf,
}

/// One window's per-row inputs in reusable buffers (shared by the
/// chunk-at-a-time and morsel accumulators): composite group codes, and
/// measure values in [`gather_ys`]'s layout.
struct WindowBuf {
    codes: Vec<u64>,
    ys: Vec<f64>,
}

impl WindowBuf {
    fn new() -> Self {
        WindowBuf {
            codes: Vec::with_capacity(CHUNK_ROWS),
            ys: Vec::new(),
        }
    }

    /// Encode the window's composite codes and gather its measures.
    #[inline]
    fn fill(&mut self, plan: &GroupPlan<'_>, rows: &[u32]) {
        self.codes.clear();
        self.codes.resize(rows.len(), 0);
        for (d, s) in plan.dims.iter().zip(&plan.strides) {
            d.encode_acc(rows, *s, &mut self.codes);
        }
        gather_ys(&plan.ys, rows, &mut self.ys);
    }

    /// The measure values of the window's row `i`, `n` measures a row.
    #[inline]
    fn ys(&self, i: usize, n: usize) -> &[f64] {
        &self.ys[i * n..i * n + n]
    }
}

/// Hash-strategy accumulation of one encoded chunk (shared by the
/// chunk-at-a-time and morsel accumulators): reserve for the worst case
/// (all-new groups) once per chunk; the entry API makes the common case
/// one probe.
#[inline]
fn hash_consume(
    acc: &mut Accumulators,
    slot_of: &mut HashMap<u64, u32>,
    buf: &WindowBuf,
    n_ys: usize,
) {
    let rows = buf.codes.len();
    slot_of.reserve(rows);
    acc.reserve(rows);
    for (i, &code) in buf.codes.iter().enumerate() {
        let slot = match slot_of.entry(code) {
            Entry::Occupied(e) => *e.get() as usize,
            Entry::Vacant(e) => {
                let s = acc.grow_one();
                e.insert(s as u32);
                s
            }
        };
        acc.update(slot, buf.ys(i, n_ys));
    }
}

impl<'p, 'a> ChunkAccumulator<'p, 'a> {
    fn new(plan: &'p GroupPlan<'a>) -> Self {
        let n_ys = plan.ys.len().max(1);
        let strategy = plan.strategy;
        let acc = match strategy {
            GroupStrategy::Dense => Accumulators::new(plan.total as usize, n_ys, plan.need_minmax),
            GroupStrategy::Hash => Accumulators::new(0, n_ys, plan.need_minmax),
        };
        ChunkAccumulator {
            plan,
            strategy,
            acc,
            slot_of: HashMap::new(),
            buf: WindowBuf::new(),
        }
    }

    /// Accumulate one chunk of qualifying row ids.
    fn consume(&mut self, rows: &[u32]) {
        self.buf.fill(self.plan, rows);
        let n_ys = self.plan.ys.len();
        match self.strategy {
            GroupStrategy::Dense => {
                for (i, &code) in self.buf.codes.iter().enumerate() {
                    self.acc.update(code as usize, self.buf.ys(i, n_ys));
                }
            }
            GroupStrategy::Hash => hash_consume(&mut self.acc, &mut self.slot_of, &self.buf, n_ys),
        }
    }

    /// Close out into the shared finalize representation: accumulators
    /// plus ascending occupied composite codes (and, for Hash, the slot
    /// of each occupied code).
    fn into_parts(self) -> (DenseOrHash, Vec<u64>) {
        match self.strategy {
            GroupStrategy::Dense => {
                let occupied = (0..self.plan.total)
                    .filter(|&code| self.acc.counts[code as usize] > 0)
                    .collect();
                (DenseOrHash::Dense(self.acc), occupied)
            }
            GroupStrategy::Hash => {
                let mut pairs: Vec<(u64, u32)> = self.slot_of.into_iter().collect();
                pairs.sort_unstable();
                let slots: Vec<u32> = pairs.iter().map(|&(_, s)| s).collect();
                let occupied = pairs.into_iter().map(|(c, _)| c).collect();
                (DenseOrHash::Hash(self.acc, slots), occupied)
            }
        }
    }
}

enum DenseOrHash {
    Dense(Accumulators),
    /// Accumulators plus the slot of each occupied code (aligned with the
    /// ascending `occupied` list).
    Hash(Accumulators, Vec<u32>),
}

/// Run the grouped aggregation for `query` over `source`, using the given
/// strategy. Returns the ordered result and the number of rows visited,
/// or [`StorageError::ResourceExhausted`] for a Dense key space wider
/// than 2²⁴ slots.
pub fn aggregate(
    table: &Table,
    query: &SelectQuery,
    source: &RowSource<'_>,
    strategy: GroupStrategy,
) -> Result<(ResultTable, u64), StorageError> {
    aggregate_ctx(table, query, source, strategy, &QueryCtx::new())
}

/// Cancellable [`aggregate`]: the serial scan checks `ctx` between
/// chunks and returns [`StorageError::Cancelled`] (discarding partial
/// accumulator state) once the ctx is cancelled — explicitly, by
/// deadline, or by row budget.
pub fn aggregate_ctx(
    table: &Table,
    query: &SelectQuery,
    source: &RowSource<'_>,
    strategy: GroupStrategy,
    ctx: &QueryCtx,
) -> Result<(ResultTable, u64), StorageError> {
    let plan = build_plan(table, query, source, strategy.forced_limit())?;
    ctx.check()?;
    serial_run(query, &plan, source, table.num_rows(), ctx)
}

/// The serial accumulate-and-finalize body shared by [`aggregate_ctx`]
/// and the morsel path's one-worker fallback — the degrade refuge: no
/// fan-out, no injection points. One scan over the source's whole span.
fn serial_run(
    query: &SelectQuery,
    plan: &GroupPlan<'_>,
    source: &RowSource<'_>,
    n_rows: usize,
    ctx: &QueryCtx,
) -> Result<(ResultTable, u64), StorageError> {
    let mut acc = ChunkAccumulator::new(plan);
    let (start, end) = source.span(n_rows);
    let (scanned, completed) = source.scan_ctx(start, end, ctx, |rows| acc.consume(rows));
    if !completed || ctx.is_cancelled() {
        return Err(StorageError::Cancelled);
    }
    let (acc, occupied) = acc.into_parts();
    Ok((finalize_result(query, plan, &acc, &occupied), scanned))
}

// ---------------------------------------------------------------------
// Morsel-driven scheduling
// ---------------------------------------------------------------------

/// Rows to visit per morsel: a multiple of [`CHUNK_ROWS`], small enough
/// that a 1M-row scan yields ~60 claimable units for the skew balancing
/// to work with, large enough that the atomic claim and per-morsel
/// compaction are noise against the row work. Range-shaped sources
/// (`All`, `Filtered`, `Range`) cut a morsel every `MORSEL_ROWS` rows,
/// so morsel boundaries are window boundaries. Bitmap sources cut at
/// word boundaries after about `MORSEL_ROWS` *members*, so a morsel of
/// a sparse bitmap spans more row space but the same visiting work.
pub const MORSEL_ROWS: usize = 4 * CHUNK_ROWS;

/// Telemetry from one morsel-scheduled aggregation ([`aggregate_morsel`]):
/// how evenly the claiming spread work across the pool.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MorselMetrics {
    /// Workers that participated in the scan.
    pub workers: usize,
    /// Morsels the source was carved into.
    pub morsels: u64,
    /// Morsels claimed *beyond* an even `ceil(morsels / workers)` share,
    /// summed over workers — work the dynamic claiming moved off
    /// overloaded workers.
    pub steals: u64,
    /// Workers that claimed no morsel at all (the scan finished before
    /// they reached the cursor).
    pub idle_workers: u64,
    /// Morsels claimed by each worker.
    pub per_worker: Vec<u64>,
}

/// One morsel's accumulated groups in compact, code-tagged form: slot
/// `j` of `acc` holds the aggregates of composite code `codes[j]`
/// (ascending). The representation is strategy-independent, so the
/// ordered merge is too.
struct MorselPartial {
    codes: Vec<u64>,
    acc: Accumulators,
}

/// A worker's reusable accumulation state for morsel claiming: like
/// [`ChunkAccumulator`], plus Dense-mode touch tracking so each morsel
/// can be compacted and the accumulator reset in O(groups touched)
/// rather than O(total key space).
struct MorselAccumulator<'p, 'a> {
    plan: &'p GroupPlan<'a>,
    strategy: GroupStrategy,
    acc: Accumulators,
    /// Hash strategy only: composite code → slot.
    slot_of: HashMap<u64, u32>,
    /// Dense strategy only: codes whose count went 0 → 1 in the current
    /// morsel.
    touched: Vec<u64>,
    buf: WindowBuf,
}

impl<'p, 'a> MorselAccumulator<'p, 'a> {
    fn new(plan: &'p GroupPlan<'a>) -> Self {
        let n_ys = plan.ys.len().max(1);
        let strategy = plan.strategy;
        let acc = match strategy {
            GroupStrategy::Dense => Accumulators::new(plan.total as usize, n_ys, plan.need_minmax),
            GroupStrategy::Hash => Accumulators::new(0, n_ys, plan.need_minmax),
        };
        MorselAccumulator {
            plan,
            strategy,
            acc,
            slot_of: HashMap::new(),
            touched: Vec::new(),
            buf: WindowBuf::new(),
        }
    }

    /// Accumulate one chunk of qualifying row ids of the current morsel.
    fn consume(&mut self, rows: &[u32]) {
        self.buf.fill(self.plan, rows);
        let n_ys = self.plan.ys.len();
        match self.strategy {
            GroupStrategy::Dense => {
                // Like the chunk accumulator's Dense arm, plus 0 → 1
                // touch tracking so the morsel compacts in O(groups).
                for (i, &code) in self.buf.codes.iter().enumerate() {
                    let code = code as usize;
                    if self.acc.counts[code] == 0 {
                        self.touched.push(code as u64);
                    }
                    self.acc.update(code, self.buf.ys(i, n_ys));
                }
            }
            GroupStrategy::Hash => hash_consume(&mut self.acc, &mut self.slot_of, &self.buf, n_ys),
        }
    }

    /// Compact the finished morsel into a code-tagged partial and reset
    /// the accumulator for the next claim. Only slots the morsel actually
    /// touched are copied and cleared.
    fn take_partial(&mut self) -> MorselPartial {
        let n_ys = self.plan.ys.len().max(1);
        match self.strategy {
            GroupStrategy::Dense => {
                self.touched.sort_unstable();
                let mut compact = Accumulators::new(0, n_ys, self.plan.need_minmax);
                compact.reserve(self.touched.len());
                for &code in &self.touched {
                    let slot = compact.grow_one();
                    compact.merge_slot(slot, &self.acc, code as usize);
                    let base = code as usize * n_ys;
                    self.acc.counts[code as usize] = 0;
                    for j in 0..n_ys {
                        self.acc.sums[base + j] = 0.0;
                        if self.acc.need_minmax {
                            self.acc.mins[base + j] = f64::INFINITY;
                            self.acc.maxs[base + j] = f64::NEG_INFINITY;
                        }
                    }
                }
                MorselPartial {
                    codes: std::mem::take(&mut self.touched),
                    acc: compact,
                }
            }
            GroupStrategy::Hash => {
                let mut pairs: Vec<(u64, u32)> = self.slot_of.drain().collect();
                pairs.sort_unstable();
                let mut compact = Accumulators::new(0, n_ys, self.plan.need_minmax);
                compact.reserve(pairs.len());
                let mut codes = Vec::with_capacity(pairs.len());
                for (code, slot) in pairs {
                    let s = compact.grow_one();
                    compact.merge_slot(s, &self.acc, slot as usize);
                    codes.push(code);
                }
                // Keep the worker accumulator's capacity for the next
                // claim; only the compacted copy leaves this function.
                self.acc.clear();
                MorselPartial {
                    codes,
                    acc: compact,
                }
            }
        }
    }
}

/// Merge code-tagged morsel partials **in the order given** (callers
/// sort by morsel index first): Dense scatters into the full key space
/// by slot, Hash grows a global slot table by composite code. Because
/// every partial tags its values with composite codes, each code's float
/// reduction order is exactly the morsel-index order — independent of
/// which worker produced which partial.
fn merge_morsel_partials(
    plan: &GroupPlan<'_>,
    partials: impl Iterator<Item = MorselPartial>,
) -> (DenseOrHash, Vec<u64>) {
    let n_ys = plan.ys.len().max(1);
    match plan.strategy {
        GroupStrategy::Dense => {
            let mut g = Accumulators::new(plan.total as usize, n_ys, plan.need_minmax);
            for part in partials {
                for (j, &code) in part.codes.iter().enumerate() {
                    g.merge_slot(code as usize, &part.acc, j);
                }
            }
            let occupied = (0..plan.total)
                .filter(|&code| g.counts[code as usize] > 0)
                .collect();
            (DenseOrHash::Dense(g), occupied)
        }
        GroupStrategy::Hash => {
            let mut g = Accumulators::new(0, n_ys, plan.need_minmax);
            let mut slot_of: HashMap<u64, u32> = HashMap::new();
            for part in partials {
                slot_of.reserve(part.codes.len());
                g.reserve(part.codes.len());
                for (j, &code) in part.codes.iter().enumerate() {
                    let slot = match slot_of.entry(code) {
                        Entry::Occupied(e) => *e.get() as usize,
                        Entry::Vacant(e) => {
                            let s = g.grow_one();
                            e.insert(s as u32);
                            s
                        }
                    };
                    g.merge_slot(slot, &part.acc, j);
                }
            }
            let mut pairs: Vec<(u64, u32)> = slot_of.into_iter().collect();
            pairs.sort_unstable();
            let slots: Vec<u32> = pairs.iter().map(|&(_, s)| s).collect();
            let occupied = pairs.into_iter().map(|(c, _)| c).collect();
            (DenseOrHash::Hash(g, slots), occupied)
        }
    }
}

/// Morsel-scheduled variant of [`aggregate`] — the parallel scan path.
/// Workers claim morsels of about `morsel_rows` rows to visit (see
/// [`MORSEL_ROWS`] for how each source shape is cut) one at a time off a
/// shared atomic cursor, so a skew-heavy region of
/// the table is absorbed by whichever workers are free; per-morsel
/// partials are compacted, tagged by morsel index, and merged in index
/// order, so the result (including float rounding) is reproducible
/// across runs and across parallel (≥ 2 worker) thread counts — one
/// worker degrades to the serial row-order reduction — and identical to
/// the serial path whenever measure sums are exactly representable.
/// `threads == 0` means auto; [`MORSEL_ROWS`] is the production morsel
/// size (tests pass tiny sizes to get many morsels out of small inputs).
/// Returns the ordered result, rows visited, and claim telemetry (`None`
/// when the scan degenerated to serial).
pub fn aggregate_morsel(
    table: &Table,
    query: &SelectQuery,
    source: &RowSource<'_>,
    strategy: GroupStrategy,
    threads: usize,
    morsel_rows: usize,
) -> Result<(ResultTable, u64, Option<MorselMetrics>), StorageError> {
    aggregate_morsel_ctx(
        table,
        query,
        source,
        strategy,
        threads,
        morsel_rows,
        &QueryCtx::new(),
    )
}

/// Cancellable [`aggregate_morsel`]. Workers check `ctx` **between
/// claims** (the scheduler's cancellation point) and between windows
/// inside a claimed morsel. A cancelled scan returns
/// [`StorageError::Cancelled`], recording the abandoned morsel count on
/// the ctx.
pub fn aggregate_morsel_ctx(
    table: &Table,
    query: &SelectQuery,
    source: &RowSource<'_>,
    strategy: GroupStrategy,
    threads: usize,
    morsel_rows: usize,
    ctx: &QueryCtx,
) -> Result<(ResultTable, u64, Option<MorselMetrics>), StorageError> {
    let plan = build_plan(table, query, source, strategy.forced_limit())?;
    ctx.check()?;
    morsel_run(
        query,
        &plan,
        source,
        table.num_rows(),
        threads,
        morsel_rows,
        crate::fault::FaultSpec::disabled(),
        None,
        ctx,
    )
}

/// Shared implementation behind the morsel entry points; `stats` (when
/// engine-routed via `run`) receives the cancelled-morsel
/// and worker-panic telemetry, which must be recorded even though such
/// runs return `Err` and therefore cannot hand back a [`MorselMetrics`].
///
/// Each morsel scan runs inside `catch_unwind`: a panicking worker
/// (organic or injected via `fault`) trips a shared abort flag so
/// siblings stop claiming, its partial accumulator is dropped on the
/// worker, and the scan surfaces [`StorageError::WorkerPanicked`] with
/// the lowest panicked morsel attributed — the pool stays healthy and
/// nothing reaches the merge or the result cache.
#[allow(clippy::too_many_arguments)]
fn morsel_run(
    query: &SelectQuery,
    plan: &GroupPlan<'_>,
    source: &RowSource<'_>,
    n_rows: usize,
    threads: usize,
    morsel_rows: usize,
    fault: crate::fault::FaultSpec,
    stats: Option<&crate::stats::ExecStats>,
    ctx: &QueryCtx,
) -> Result<(ResultTable, u64, Option<MorselMetrics>), StorageError> {
    assert!(morsel_rows >= 1, "morsel size must be positive");
    let mut workers = parallel::effective_threads(threads);
    if plan.strategy == GroupStrategy::Dense {
        // Each dense worker owns `total` slots; shed workers before
        // exhausting memory on very wide key spaces.
        let cap = (DENSE_PARALLEL_SLOT_BUDGET / plan.total.max(1)).max(1) as usize;
        workers = workers.min(cap);
    }
    let bounds = source.morsel_bounds(n_rows, morsel_rows);
    let n_morsels = bounds.len() - 1;
    workers = workers.min(n_morsels.max(1));
    if workers <= 1 {
        return serial_run(query, plan, source, n_rows, ctx).map(|(rt, n)| (rt, n, None));
    }
    let epoch = ctx.fault_epoch();
    if fault.fires(
        crate::fault::FaultPoint::WorkerSpawn,
        n_morsels as u64,
        epoch,
    ) {
        return Err(StorageError::ResourceExhausted(format!(
            "injected worker-spawn failure ({n_morsels} morsels)"
        )));
    }

    let cursor = AtomicUsize::new(0);
    // Set by the first worker whose morsel scan panics: siblings stop
    // claiming at their next claim point, same as cancellation.
    let abort = AtomicBool::new(false);
    type WorkerOut = (Vec<(usize, MorselPartial)>, u64, Option<(u64, String)>);
    let outputs: Vec<WorkerOut> = parallel::run_workers(workers, |_| {
        let mut acc = MorselAccumulator::new(plan);
        let mut out = Vec::new();
        let mut visited = 0u64;
        let mut panicked: Option<(u64, String)> = None;
        loop {
            // The claim point doubles as the cancellation/abort point: a
            // worker that sees either flag stops claiming, leaving the
            // remaining morsels unscanned.
            if abort.load(Ordering::Relaxed) || ctx.is_cancelled() {
                break;
            }
            let m = cursor.fetch_add(1, Ordering::Relaxed);
            if m >= n_morsels {
                break;
            }
            let (start, end) = (bounds[m], bounds[m + 1]);
            // `scan_ctx` checks the ctx between windows *inside* the
            // claimed morsel (and records visited rows as it goes), so
            // injected per-morsel delays or oversized morsels cannot
            // stretch cancel latency past one window.
            let scan = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if fault.fires(crate::fault::FaultPoint::MorselDelay, m as u64, epoch) {
                    fault.delay();
                }
                if fault.fires(crate::fault::FaultPoint::ChunkScanPanic, m as u64, epoch) {
                    crate::fault::injected_panic(m as u64);
                }
                source.scan_ctx(start, end, ctx, |rows| acc.consume(rows))
            }));
            match scan {
                Ok((v, completed)) => {
                    visited += v;
                    if !completed {
                        // Cancelled mid-morsel: the partial is dropped
                        // and the morsel stays unaccounted (it joins the
                        // abandoned count below).
                        break;
                    }
                    ctx.record_morsel_claimed();
                    out.push((m, acc.take_partial()));
                }
                Err(payload) => {
                    // Contained worker panic: the accumulator state is
                    // suspect, so this worker contributes nothing
                    // further; siblings see `abort` at their next claim
                    // point.
                    abort.store(true, Ordering::Relaxed);
                    panicked = Some((
                        m as u64,
                        crate::fault::panic_payload_string(payload.as_ref()),
                    ));
                    break;
                }
            }
        }
        (out, visited, panicked)
    });

    let per_worker: Vec<u64> = outputs.iter().map(|(o, _, _)| o.len() as u64).collect();
    let scanned: u64 = outputs.iter().map(|(_, v, _)| *v).sum();
    if ctx.is_cancelled() {
        // Partial accumulations are dropped here — they never reach the
        // merge, the caller, or the result cache.
        let abandoned = (n_morsels as u64).saturating_sub(per_worker.iter().sum::<u64>());
        ctx.record_morsels_cancelled(abandoned);
        if let Some(s) = stats {
            s.record_morsels_cancelled(abandoned);
        }
        return Err(StorageError::Cancelled);
    }
    if let Some((morsel, payload)) = outputs
        .iter()
        .filter_map(|(_, _, p)| p.as_ref())
        .min_by_key(|(m, _)| *m)
    {
        // One failed scan attempt regardless of how many workers
        // panicked before the abort flag propagated; attribution goes to
        // the lowest panicked morsel for determinism.
        if let Some(s) = stats {
            s.record_worker_panic();
        }
        return Err(StorageError::WorkerPanicked {
            payload: payload.clone(),
            morsel: *morsel,
        });
    }
    let fair = (n_morsels as u64).div_ceil(workers as u64);
    let metrics = MorselMetrics {
        workers,
        morsels: n_morsels as u64,
        steals: per_worker.iter().map(|&c| c.saturating_sub(fair)).sum(),
        idle_workers: per_worker.iter().filter(|&&c| c == 0).count() as u64,
        per_worker,
    };

    let mut tagged: Vec<(usize, MorselPartial)> =
        outputs.into_iter().flat_map(|(o, _, _)| o).collect();
    tagged.sort_unstable_by_key(|&(m, _)| m);
    let (acc, occupied) = merge_morsel_partials(plan, tagged.into_iter().map(|(_, p)| p));
    Ok((
        finalize_result(query, plan, &acc, &occupied),
        scanned,
        Some(metrics),
    ))
}

/// Run one engine query: build the group plan once (Dense when its key
/// space is at most `dense_limit`, Hash above), then scan serially when
/// the ctx is degraded ([`QueryCtx::serial_only`], set by the retry
/// ladder or the breaker) or the source is below the parallel gate, and
/// morsel-claimed otherwise. Morsel claim telemetry goes to `stats`;
/// `ctx` is observed between windows and between claims. Both engines
/// route every scan through here.
pub(crate) fn run(
    table: &Table,
    query: &SelectQuery,
    source: &RowSource<'_>,
    dense_limit: u128,
    cfg: &ParallelConfig,
    stats: &crate::stats::ExecStats,
    ctx: &QueryCtx,
) -> Result<(ResultTable, u64), StorageError> {
    let plan = build_plan(table, query, source, dense_limit)?;
    ctx.check()?;
    let threads = if ctx.serial_only() {
        1
    } else {
        cfg.threads_for(source.estimated_rows())
    };
    if threads <= 1 {
        return serial_run(query, &plan, source, table.num_rows(), ctx);
    }
    let (rt, scanned, metrics) = morsel_run(
        query,
        &plan,
        source,
        table.num_rows(),
        threads,
        cfg.morsel_rows,
        cfg.fault,
        Some(stats),
        ctx,
    )?;
    if let Some(m) = &metrics {
        stats.record_morsel(m);
    }
    Ok((rt, scanned))
}

/// Decode composite codes, group consecutive rows sharing the same
/// z-prefix, and sort by decoded values — shared by the serial and
/// morsel paths.
fn finalize_result(
    query: &SelectQuery,
    plan: &GroupPlan<'_>,
    acc: &DenseOrHash,
    occupied: &[u64],
) -> ResultTable {
    let mut result = ResultTable {
        z_cols: query.zs.clone(),
        groups: Vec::new(),
    };
    let n_z = query.zs.len();
    let mut current_key: Option<Vec<Value>> = None;
    let mut cur_z_codes: Vec<u64> = Vec::new();
    let mut xs: Vec<Value> = Vec::new();
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); query.ys.len()];

    let flush = |result: &mut ResultTable,
                 key: Option<Vec<Value>>,
                 xs: &mut Vec<Value>,
                 series: &mut Vec<Vec<f64>>| {
        if let Some(k) = key {
            result.groups.push(GroupSeries {
                key: k,
                xs: std::mem::take(xs),
                ys: series.iter_mut().map(std::mem::take).collect(),
            });
        }
    };

    for (i, &code) in occupied.iter().enumerate() {
        let mut rem = code;
        let mut parts = Vec::with_capacity(plan.dims.len());
        for s in &plan.strides {
            parts.push(rem / s);
            rem %= s;
        }
        let z_codes = &parts[..n_z];
        if current_key.is_none() || cur_z_codes != z_codes {
            flush(&mut result, current_key.take(), &mut xs, &mut series);
            cur_z_codes = z_codes.to_vec();
            current_key = Some(
                z_codes
                    .iter()
                    .zip(&plan.dims[..n_z])
                    .map(|(&c, d)| d.decode(c))
                    .collect(),
            );
            series = vec![Vec::new(); query.ys.len()];
        }
        xs.push(plan.dims[n_z].decode(parts[n_z]));
        let vals = match acc {
            DenseOrHash::Dense(a) => a.finalize(code as usize, &plan.aggs),
            DenseOrHash::Hash(a, slots) => a.finalize(slots[i] as usize, &plan.aggs),
        };
        for (j, v) in vals.into_iter().enumerate() {
            series[j].push(v);
        }
    }
    flush(&mut result, current_key.take(), &mut xs, &mut series);

    // Composite-code order already sorts by encoded codes; re-sort groups
    // by decoded key so ordering matches ORDER BY over *values* (dict
    // codes are first-seen order, not lexicographic).
    result.groups.sort_by(|a, b| a.key.cmp(&b.key));
    for g in &mut result.groups {
        // xs within a group come out in code order; IntOffset/Binned codes
        // are value-ordered already, Cat and IntRank may not be.
        let mut idx: Vec<usize> = (0..g.xs.len()).collect();
        idx.sort_by(|&i, &j| g.xs[i].cmp(&g.xs[j]));
        if idx.iter().enumerate().any(|(i, &j)| i != j) {
            g.xs = idx.iter().map(|&i| g.xs[i].clone()).collect();
            g.ys =
                g.ys.iter()
                    .map(|s| idx.iter().map(|&i| s[i]).collect())
                    .collect();
        }
    }

    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::YSpec;
    use crate::table::{Field, Schema, TableBuilder};
    use crate::value::DataType;

    fn sales_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("year", DataType::Int),
            Field::new("product", DataType::Cat),
            Field::new("location", DataType::Cat),
            Field::new("sales", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        let rows = [
            (2014, "chair", "US", 10.0),
            (2014, "chair", "US", 5.0),
            (2015, "chair", "US", 20.0),
            (2014, "desk", "US", 7.0),
            (2015, "desk", "UK", 9.0),
            (2015, "chair", "UK", 11.0),
        ];
        for (y, p, l, s) in rows {
            b.push_row(vec![
                Value::Int(y),
                Value::str(p),
                Value::str(l),
                Value::Float(s),
            ])
            .unwrap();
        }
        b.finish()
    }

    fn run(q: &SelectQuery, strategy: GroupStrategy) -> ResultTable {
        let t = sales_table();
        let src = RowSource::All(t.num_rows());
        let (mut rt, scanned) = aggregate(&t, q, &src, strategy).unwrap();
        assert_eq!(scanned, 6);
        // the morsel path must agree even on tiny inputs: 2-row morsels
        // fan out across real claims…
        let (par, par_scanned, metrics) = aggregate_morsel(&t, q, &src, strategy, 3, 2).unwrap();
        assert_eq!(par, rt);
        assert_eq!(par_scanned, scanned);
        assert_eq!(metrics.expect("3 morsels fan out").morsels, 3);
        // …and production-size morsels degenerate to the serial scan
        // (one morsel covers the whole table)
        let (mor, mor_scanned, metrics) =
            aggregate_morsel(&t, q, &src, strategy, 3, MORSEL_ROWS).unwrap();
        assert_eq!(mor, rt);
        assert_eq!(mor_scanned, scanned);
        assert!(metrics.is_none(), "sub-morsel input must not fan out");
        // normalize nothing — kernel must already deliver sorted output
        rt.z_cols = q.zs.clone();
        rt
    }

    #[test]
    fn grouped_sum_dense_and_hash_agree() {
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product");
        let dense = run(&q, GroupStrategy::Dense);
        let hash = run(&q, GroupStrategy::Hash);
        assert_eq!(dense, hash);
        // chair: 2014 → 15, 2015 → 31 (20 US + 11 UK)
        let chair = dense.group(&[Value::str("chair")]).unwrap();
        assert_eq!(chair.xs, vec![Value::Int(2014), Value::Int(2015)]);
        assert_eq!(chair.ys[0], vec![15.0, 31.0]);
        let desk = dense.group(&[Value::str("desk")]).unwrap();
        assert_eq!(desk.xs, vec![Value::Int(2014), Value::Int(2015)]);
        assert_eq!(desk.ys[0], vec![7.0, 9.0]);
    }

    #[test]
    fn groups_sorted_by_key_then_x() {
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_z("location")
            .with_z("product");
        let rt = run(&q, GroupStrategy::Dense);
        let keys: Vec<Vec<Value>> = rt.groups.iter().map(|g| g.key.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(rt.groups.len(), 4); // (UK,chair) (UK,desk) (US,chair) (US,desk)
    }

    #[test]
    fn multiple_aggregates_in_one_pass() {
        let q = SelectQuery::new(
            XSpec::raw("year"),
            vec![
                YSpec::sum("sales"),
                YSpec::avg("sales"),
                YSpec::new("sales", Agg::Min),
                YSpec::new("sales", Agg::Max),
                YSpec::new("*", Agg::Count),
            ],
        );
        let rt = run(&q, GroupStrategy::Hash);
        assert_eq!(rt.groups.len(), 1);
        let g = &rt.groups[0];
        assert_eq!(g.xs, vec![Value::Int(2014), Value::Int(2015)]);
        assert_eq!(g.ys[0], vec![22.0, 40.0]); // sums
        assert_eq!(g.ys[1], vec![22.0 / 3.0, 40.0 / 3.0]); // avgs
        assert_eq!(g.ys[2], vec![5.0, 9.0]); // mins
        assert_eq!(g.ys[3], vec![10.0, 20.0]); // maxs
        assert_eq!(g.ys[4], vec![3.0, 3.0]); // counts
    }

    #[test]
    fn filtered_source_applies_predicate() {
        let t = sales_table();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
        let pred = compile_pred(&t, &Predicate::cat_eq("location", "UK")).unwrap();
        let src = RowSource::Filtered {
            n_rows: t.num_rows(),
            pred,
        };
        let (rt, scanned) = aggregate(&t, &q, &src, GroupStrategy::Dense).unwrap();
        assert_eq!(scanned, 6);
        assert_eq!(rt.groups[0].xs, vec![Value::Int(2015)]);
        assert_eq!(rt.groups[0].ys[0], vec![20.0]);
    }

    #[test]
    fn bitmap_source_visits_only_selected() {
        let t = sales_table();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
        let bm: RoaringBitmap = [4u32, 5].into_iter().collect(); // the UK rows
        let src = RowSource::Bitmap(bm);
        let (rt, scanned) = aggregate(&t, &q, &src, GroupStrategy::Hash).unwrap();
        assert_eq!(scanned, 2);
        assert_eq!(rt.groups[0].ys[0], vec![20.0]);
    }

    #[test]
    fn range_source_scans_only_the_interval() {
        let t = sales_table();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
        // The IVM delta shape: rows [3, 6) are "appended" after a
        // cached result covered rows [0, 3).
        let src = RowSource::Range {
            start: 3,
            end: 6,
            pred: None,
        };
        let (rt, scanned) = aggregate(&t, &q, &src, GroupStrategy::Dense).unwrap();
        assert_eq!(scanned, 3);
        let g = &rt.groups[0];
        assert_eq!(g.xs, vec![Value::Int(2014), Value::Int(2015)]);
        assert_eq!(g.ys[0], vec![7.0, 20.0]); // desk@2014 + (desk+chair)@2015

        // The morsel path must agree on the offset interval, split into
        // one-row morsels or kept whole.
        for threads in [2, 3] {
            for morsel_rows in [1, MORSEL_ROWS] {
                let (mor, n, _) =
                    aggregate_morsel(&t, &q, &src, GroupStrategy::Dense, threads, morsel_rows)
                        .unwrap();
                assert_eq!((mor, n), (rt.clone(), scanned));
            }
        }
    }

    #[test]
    fn range_source_applies_residual_predicate() {
        let t = sales_table();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
        let pred = compile_pred(&t, &Predicate::cat_eq("location", "UK")).unwrap();
        let src = RowSource::Range {
            start: 2,
            end: 6,
            pred: Some(pred),
        };
        // Visits all four interval rows but only the two UK rows qualify.
        let (rt, scanned) = aggregate(&t, &q, &src, GroupStrategy::Hash).unwrap();
        assert_eq!(scanned, 4);
        assert_eq!(rt.groups[0].xs, vec![Value::Int(2015)]);
        assert_eq!(rt.groups[0].ys[0], vec![20.0]);
    }

    #[test]
    fn binned_x_axis() {
        let schema = Schema::new(vec![
            Field::new("weight", DataType::Float),
            Field::new("sales", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for (w, s) in [
            (5.0, 1.0),
            (15.0, 2.0),
            (25.0, 3.0),
            (26.0, 4.0),
            (45.0, 5.0),
        ] {
            b.push_row(vec![Value::Float(w), Value::Float(s)]).unwrap();
        }
        let t = b.finish();
        // Table 3.10: bar.(x=bin(20), y=agg('sum'))
        let q = SelectQuery::new(XSpec::binned("weight", 20.0), vec![YSpec::sum("sales")]);
        let src = RowSource::All(t.num_rows());
        let (rt, _) = aggregate(&t, &q, &src, GroupStrategy::Dense).unwrap();
        let g = &rt.groups[0];
        assert_eq!(
            g.xs,
            vec![Value::Float(0.0), Value::Float(20.0), Value::Float(40.0)]
        );
        assert_eq!(g.ys[0], vec![3.0, 7.0, 5.0]);
    }

    #[test]
    fn compiled_pred_matches_reference_eval() {
        let t = sales_table();
        let preds = [
            Predicate::cat_eq("product", "chair"),
            Predicate::cat_eq("product", "ghost"),
            Predicate::And(vec![
                Atom::CatNeq {
                    col: "product".into(),
                    value: "chair".into(),
                },
                Atom::NumCmp {
                    col: "year".into(),
                    op: CmpOp::Ge,
                    value: 2015.0,
                },
            ]),
            Predicate::Or(vec![
                vec![Atom::CatEq {
                    col: "location".into(),
                    value: "UK".into(),
                }],
                vec![Atom::NumBetween {
                    col: "sales".into(),
                    lo: 0.0,
                    hi: 6.0,
                }],
            ]),
            Predicate::atom(Atom::CatIn {
                col: "product".into(),
                values: vec!["desk".into(), "ghost".into()],
            }),
            Predicate::atom(Atom::StrPrefix {
                col: "location".into(),
                prefix: "U".into(),
            }),
        ];
        for p in &preds {
            let src = RowSource::Filtered {
                n_rows: t.num_rows(),
                pred: compile_pred(&t, p).unwrap(),
            };
            let mut got: Vec<u32> = Vec::new();
            src.scan_ctx(0, t.num_rows(), &QueryCtx::new(), |c| got.extend(c));
            let want: Vec<u32> = (0..t.num_rows())
                .filter(|&r| p.eval_row(&t, r).unwrap())
                .map(|r| r as u32)
                .collect();
            assert_eq!(got, want, "mismatch for {p}");
        }
    }

    #[test]
    fn plan_picks_strategy_from_its_key_space() {
        let t = sales_table();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product");
        let src = RowSource::All(t.num_rows());
        // 2 products × 2 years
        let plan = build_plan(&t, &q, &src, 1024).unwrap();
        assert_eq!((plan.total, plan.strategy), (4, GroupStrategy::Dense));
        let plan = build_plan(&t, &q, &src, 3).unwrap();
        assert_eq!(plan.strategy, GroupStrategy::Hash);
    }

    #[test]
    fn dense_over_a_huge_key_space_is_refused_not_allocated() {
        let schema = Schema::new(vec![
            Field::new("year", DataType::Int),
            Field::new("sales", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for y in [-(1i64 << 40), 1 << 40] {
            b.push_row(vec![Value::Int(y), Value::Float(1.0)]).unwrap();
        }
        let t = b.finish();
        // Unit bins over ±2⁴⁰: 2⁴¹ + 1 slots, far past the cap.
        let q = SelectQuery::new(XSpec::binned("year", 1.0), vec![YSpec::sum("sales")]);
        let src = RowSource::All(t.num_rows());
        let refused =
            |r: Result<(), StorageError>| matches!(r, Err(StorageError::ResourceExhausted(_)));
        assert!(refused(
            aggregate(&t, &q, &src, GroupStrategy::Dense).map(|_| ())
        ));
        assert!(refused(
            aggregate_morsel(&t, &q, &src, GroupStrategy::Dense, 2, 1).map(|_| ())
        ));
        let (rt, _) = aggregate(&t, &q, &src, GroupStrategy::Hash).unwrap();
        assert_eq!(rt.groups[0].ys[0], vec![1.0, 1.0]);
    }

    #[test]
    fn empty_selection_yields_empty_result() {
        let t = sales_table();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
        let src = RowSource::Bitmap(RoaringBitmap::new());
        let (rt, scanned) = aggregate(&t, &q, &src, GroupStrategy::Dense).unwrap();
        assert!(rt.is_empty());
        assert_eq!(scanned, 0);
        let (rt, scanned, _) =
            aggregate_morsel(&t, &q, &src, GroupStrategy::Hash, 4, MORSEL_ROWS).unwrap();
        assert!(rt.is_empty());
        assert_eq!(scanned, 0);
    }

    #[test]
    fn parallel_config_gates_small_scans() {
        let cfg = ParallelConfig::default();
        assert_eq!(cfg.threads_for(10), 1, "tiny scans stay serial");
        let explicit = ParallelConfig {
            threads: 4,
            min_parallel_rows: 0,
            ..Default::default()
        };
        assert_eq!(explicit.threads_for(10), 4);
    }

    #[test]
    fn parallel_config_env_overrides() {
        let spec = |vars: &[(&'static str, &'static str)]| {
            ParallelConfig::from_env_spec(vars.iter().copied())
        };
        // One thread is the serial scan.
        let serial = spec(&[("ZV_SCHED_THREADS", "1")]);
        assert_eq!(serial.threads_for(usize::MAX - 1), 1);

        // The gate and the morsel size are their own knobs (the CI
        // matrix sets 0 and a small morsel so tiny tables fan out over
        // many real claims); other names pass through untouched.
        let forced = spec(&[
            ("ZV_SCHED_THREADS", "3"),
            ("ZV_SCHED_MIN_ROWS", " 0 "),
            ("ZV_SCHED_MORSEL_ROWS", "256"),
            ("ZV_FAULT_SEED", "not a scheduling knob"),
            ("PATH", "/usr/bin"),
        ]);
        assert_eq!(forced.threads, 3);
        assert_eq!(forced.threads_for(1), 3);
        assert_eq!(forced.morsel_rows, 256);

        // An empty environment, and empty strings (a CI matrix's "not
        // overridden" row), give the default config.
        assert_eq!(spec(&[]), ParallelConfig::default());
        assert_eq!(
            spec(&[
                ("ZV_SCHED_THREADS", ""),
                ("ZV_SCHED_MIN_ROWS", " "),
                ("ZV_SCHED_MORSEL_ROWS", ""),
            ]),
            ParallelConfig::default()
        );

        // Typos, bad values and retired knobs must fail loudly, not
        // silently run the default config.
        for bad in [
            ("ZV_SCHED_MODE", "static"),
            ("ZV_SCHED_CLAIM_BATCH", "2"),
            ("ZV_SCHED_THREAD", "2"),
            ("ZV_SCHED_THREADS", "lots"),
            ("ZV_SCHED_MIN_ROWS", "-3"),
            ("ZV_SCHED_MORSEL_ROWS", "0"),
        ] {
            let caught = std::panic::catch_unwind(|| spec(&[bad]));
            let msg = caught.expect_err("invalid ZV_SCHED_* must panic");
            let msg = msg
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(msg.contains(bad.0), "{msg}");
        }
        let retired = std::panic::catch_unwind(|| spec(&[("ZV_SCHED_MODE", "serial")]));
        let msg = retired.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("ZV_SCHED_THREADS=1"), "{msg}");
    }

    /// A table big enough for several morsels, with values exactly
    /// representable so bit-for-bit equality against the serial scan is
    /// the right assertion.
    fn wide_table(rows: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("key", DataType::Int),
            Field::new("hot", DataType::Int),
            Field::new("val", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_row(vec![
                Value::Int((i % 37) as i64),
                Value::Int(i64::from(i < rows / 8)),
                Value::Float((i % 1013) as f64 * 0.25),
            ])
            .unwrap();
        }
        b.finish()
    }

    /// The window loop against an independent reference, for every
    /// source shape: the rows handed to the kernel are exactly the
    /// source's candidates that the uncompiled predicate
    /// (`Predicate::eval_row`) accepts, ascending, and "visited" counts
    /// the candidates before the residual. The same holds piecewise over
    /// every morsel cut, and bitmap morsels are word-aligned and hold
    /// about `morsel_rows` candidates each.
    #[test]
    fn window_scan_matches_reference_rows() {
        let rows = 70_123; // two roaring containers, a ragged last window
        let t = wide_table(rows);
        let num = |col: &str, op, value| Atom::NumCmp {
            col: col.into(),
            op,
            value,
        };
        let preds = [
            Predicate::And(vec![
                num("val", CmpOp::Gt, 100.0),
                num("key", CmpOp::Lt, 20.0),
            ]),
            Predicate::Or(vec![
                vec![num("key", CmpOp::Lt, 5.0)],
                vec![num("val", CmpOp::Gt, 200.0), num("hot", CmpOp::Eq, 1.0)],
            ]),
        ];
        let bm: RoaringBitmap = (0..rows as u32)
            .filter(|r| r % 7 == 0 || (5_000..9_000).contains(r))
            .collect();
        let members: Vec<usize> = bm.iter().map(|r| r as usize).collect();
        let (lo, hi) = (3_001, 68_000);
        for pred in &preds {
            let compiled = || compile_pred(&t, pred).unwrap();
            let cases: Vec<(RowSource<'_>, Vec<usize>, bool)> = vec![
                (RowSource::All(rows), (0..rows).collect(), false),
                (
                    RowSource::Filtered {
                        n_rows: rows,
                        pred: compiled(),
                    },
                    (0..rows).collect(),
                    true,
                ),
                (RowSource::Bitmap(bm.clone()), members.clone(), false),
                (
                    RowSource::BitmapFiltered {
                        rows: bm.clone(),
                        pred: compiled(),
                    },
                    members.clone(),
                    true,
                ),
                (
                    RowSource::Range {
                        start: lo,
                        end: hi,
                        pred: None,
                    },
                    (lo..hi).collect(),
                    false,
                ),
                (
                    RowSource::Range {
                        start: lo,
                        end: hi,
                        pred: Some(compiled()),
                    },
                    (lo..hi).collect(),
                    true,
                ),
            ];
            for (i, (src, candidates, filtered)) in cases.iter().enumerate() {
                let want: Vec<u32> = candidates
                    .iter()
                    .filter(|&&r| !filtered || pred.eval_row(&t, r).unwrap())
                    .map(|&r| r as u32)
                    .collect();
                for morsel_rows in [64, 257, MORSEL_ROWS, usize::MAX / 2] {
                    let bounds = src.morsel_bounds(rows, morsel_rows);
                    let mut got: Vec<u32> = Vec::new();
                    let mut visited = 0;
                    for m in bounds.windows(2) {
                        let (v, done) =
                            src.scan_ctx(m[0], m[1], &QueryCtx::new(), |c| got.extend(c));
                        assert!(done);
                        if src.parts().0.is_some() {
                            assert!(v as usize <= morsel_rows + 63, "case {i}: {v} rows");
                            assert_eq!(m[0] % 64, 0, "case {i}: cut at {}", m[0]);
                        }
                        visited += v;
                    }
                    assert_eq!(got, want, "case {i}, pred {pred}, morsels of {morsel_rows}");
                    assert_eq!(visited, candidates.len() as u64, "case {i}");
                }
            }
        }
    }

    #[test]
    fn morsel_metrics_account_for_every_morsel() {
        let rows = 3 * MORSEL_ROWS + 17;
        let t = wide_table(rows);
        let q = SelectQuery::new(XSpec::raw("key"), vec![YSpec::sum("val")]);
        let src = RowSource::All(t.num_rows());
        for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
            let (serial, scanned) = aggregate(&t, &q, &src, strategy).unwrap();
            let (mor, mor_scanned, metrics) =
                aggregate_morsel(&t, &q, &src, strategy, 2, MORSEL_ROWS).unwrap();
            assert_eq!(mor, serial);
            assert_eq!(mor_scanned, scanned);
            let m = metrics.expect("multi-morsel scan must report telemetry");
            assert_eq!(m.workers, 2);
            assert_eq!(m.morsels, 4);
            assert_eq!(m.per_worker.len(), 2);
            assert_eq!(m.per_worker.iter().sum::<u64>(), m.morsels);
            assert_eq!(
                m.idle_workers,
                m.per_worker.iter().filter(|&&c| c == 0).count() as u64
            );
        }
    }

    #[test]
    fn morsel_skewed_filter_matches_serial() {
        // All matching rows cluster in the first eighth of the table —
        // the shape that starves a contiguous per-worker split.
        let rows = 4 * MORSEL_ROWS;
        let t = wide_table(rows);
        let q = SelectQuery::new(XSpec::raw("key"), vec![YSpec::sum("val")]);
        let pred = Predicate::num_eq("hot", 1.0);
        let make_src = || RowSource::Filtered {
            n_rows: t.num_rows(),
            pred: compile_pred(&t, &pred).unwrap(),
        };
        for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
            let (serial, scanned) = aggregate(&t, &q, &make_src(), strategy).unwrap();
            for threads in [2usize, 3, 5] {
                let (mor, mor_scanned, _) =
                    aggregate_morsel(&t, &q, &make_src(), strategy, threads, MORSEL_ROWS).unwrap();
                assert_eq!(mor, serial, "{strategy:?} morsel × {threads}");
                assert_eq!(mor_scanned, scanned);
            }
        }
    }

    #[test]
    fn cancelled_ctx_stops_every_scheduler() {
        let rows = 4 * MORSEL_ROWS;
        let t = wide_table(rows);
        let q = SelectQuery::new(XSpec::raw("key"), vec![YSpec::sum("val")]);
        let src = RowSource::All(t.num_rows());

        // Pre-cancelled: no scheduler may scan a single row.
        type Run = fn(&Table, &SelectQuery, &RowSource<'_>, &QueryCtx) -> Result<(), StorageError>;
        let runs: [Run; 2] = [
            |t, q, src, ctx| aggregate_ctx(t, q, src, GroupStrategy::Dense, ctx).map(|_| ()),
            |t, q, src, ctx| {
                aggregate_morsel_ctx(t, q, src, GroupStrategy::Dense, 3, MORSEL_ROWS, ctx)
                    .map(|_| ())
            },
        ];
        for run in runs {
            let ctx = QueryCtx::new();
            ctx.cancel();
            assert!(matches!(
                run(&t, &q, &src, &ctx),
                Err(StorageError::Cancelled)
            ));
            assert_eq!(ctx.stats().rows_scanned, 0, "pre-cancelled must not scan");
        }

        // A mid-scan row budget stops the morsel path strictly early and
        // accounts for the abandoned morsels.
        let ctx = QueryCtx::new().with_row_budget(MORSEL_ROWS as u64);
        let err = aggregate_morsel_ctx(&t, &q, &src, GroupStrategy::Dense, 2, MORSEL_ROWS, &ctx)
            .unwrap_err();
        assert_eq!(err, StorageError::Cancelled);
        let stats = ctx.stats();
        assert!(stats.cancelled);
        assert_eq!(
            stats.reason,
            Some(crate::lifecycle::CancelReason::RowBudget)
        );
        assert!(
            stats.rows_scanned < rows as u64,
            "cancel must stop the scan early ({} of {rows})",
            stats.rows_scanned
        );
        assert!(stats.morsels_cancelled > 0, "abandoned morsels recorded");
        assert_eq!(
            stats.morsels_claimed + stats.morsels_cancelled,
            4,
            "every morsel is either claimed or cancelled"
        );
    }

    #[test]
    fn morsel_float_sums_are_thread_count_independent() {
        // 0.1 is not exactly representable: partial-sum boundaries would
        // show up as last-bit drift if the merge order ever depended on
        // claim timing or worker count. The morsel merge is ordered by
        // morsel index, so every thread count must agree bit-for-bit
        // with every other (serial may legitimately differ in the last
        // ulp — it reduces row-by-row, not morsel-by-morsel).
        let schema = Schema::new(vec![
            Field::new("key", DataType::Int),
            Field::new("val", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..(3 * MORSEL_ROWS + 911) {
            b.push_row(vec![
                Value::Int((i % 11) as i64),
                Value::Float(0.1 + (i % 97) as f64 * 0.3),
            ])
            .unwrap();
        }
        let t = b.finish();
        let q = SelectQuery::new(
            XSpec::raw("key"),
            vec![YSpec::sum("val"), YSpec::avg("val")],
        );
        let src = RowSource::All(t.num_rows());
        for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
            let (reference, _, _) =
                aggregate_morsel(&t, &q, &src, strategy, 2, MORSEL_ROWS).unwrap();
            for threads in [2usize, 3, 5, 8] {
                for _rep in 0..2 {
                    let (rt, _, _) =
                        aggregate_morsel(&t, &q, &src, strategy, threads, MORSEL_ROWS).unwrap();
                    assert_eq!(rt.groups.len(), reference.groups.len());
                    for (g, gref) in rt.groups.iter().zip(&reference.groups) {
                        assert_eq!(g.xs, gref.xs);
                        assert_eq!(g.ys.len(), gref.ys.len());
                        for (ys, ys_ref) in g.ys.iter().zip(&gref.ys) {
                            assert_eq!(ys.len(), ys_ref.len());
                            for (a, b) in ys.iter().zip(ys_ref) {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "float drift under {strategy:?} × {threads}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
