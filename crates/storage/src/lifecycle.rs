//! Query lifecycle: cancellation tokens, deadlines, priorities, and
//! per-query progress counters.
//!
//! zenvisage is an *interactive* system: users drag sliders and re-issue
//! sketches faster than a bulk scan completes, so most in-flight queries
//! are superseded before their results are ever looked at. A
//! [`QueryCtx`] is the handle that makes abandoning such work cheap: it
//! travels with a query (or a whole request batch) down through
//! `ZqlEngine::execute_ctx` → `Database::run_request_ctx` →
//! `Pinned::execute` → `exec::run`, and every scan
//! loop checks it at a natural boundary —
//!
//! * the **morsel claim loop** checks between claims (the scheduler's
//!   built-in cancellation point: a worker that sees the flag simply
//!   stops claiming),
//! * the **serial** scan, and the scan inside a claimed morsel, check
//!   between scan windows ([`crate::exec::CHUNK_ROWS`] rows).
//!
//! A cancelled query returns [`StorageError::Cancelled`] and its partial
//! result is discarded *before* the result cache ever sees it — the
//! cache stays bit-for-bit identical to the query never having run
//! (asserted by `tests/cancellation.rs`).
//!
//! # Cancellation sources
//!
//! The flag can be tripped four ways, recorded as a [`CancelReason`]:
//!
//! * [`QueryCtx::cancel`] — an explicit user/driver abort,
//! * a **deadline** ([`QueryCtx::with_deadline`]) — checked lazily at
//!   every cancellation point, so an expired deadline surfaces within
//!   one chunk/claim,
//! * **supersession** — `zv-server`'s `SessionManager` cancels a
//!   session's in-flight query when a newer interaction arrives
//!   (newest-interaction-wins),
//! * a **row budget** ([`QueryCtx::with_row_budget`]) — the ctx cancels
//!   itself once the scan has visited that many rows. This doubles as a
//!   deterministic mid-scan cancellation hook for tests and as a "best
//!   effort under N rows" knob.
//!
//! # Sharing and configuration
//!
//! `QueryCtx` is a cheap `Arc` clone; one ctx typically covers one user
//! interaction (which may be a whole multi-query request batch).
//! Configuration (`with_*`) happens **before** the ctx is shared —
//! builder methods panic if clones already exist. Cancellation and the
//! progress counters are lock-free atomics safe from any thread.

use crate::table::StorageError;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`QueryCtx`] was cancelled (first cause wins).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// [`QueryCtx::cancel`] was called.
    Explicit,
    /// The deadline passed ([`QueryCtx::with_deadline`]).
    Deadline,
    /// A newer query on the same session replaced this one
    /// (`SessionManager`'s newest-interaction-wins policy).
    Superseded,
    /// The scan exhausted its row budget ([`QueryCtx::with_row_budget`]).
    RowBudget,
    /// The client connection that submitted this query dropped before
    /// its result could be delivered (`zv-server`'s network layer
    /// cancels a session's remaining work when its socket dies — there
    /// is nobody left to deliver to).
    ConnectionLost,
}

impl CancelReason {
    fn from_code(code: u8) -> Option<CancelReason> {
        match code {
            1 => Some(CancelReason::Explicit),
            2 => Some(CancelReason::Deadline),
            3 => Some(CancelReason::Superseded),
            4 => Some(CancelReason::RowBudget),
            5 => Some(CancelReason::ConnectionLost),
            _ => None,
        }
    }

    fn code(self) -> u8 {
        match self {
            CancelReason::Explicit => 1,
            CancelReason::Deadline => 2,
            CancelReason::Superseded => 3,
            CancelReason::RowBudget => 4,
            CancelReason::ConnectionLost => 5,
        }
    }
}

#[derive(Debug)]
struct CtxInner {
    cancelled: AtomicBool,
    /// `CancelReason::code()` of the first cancellation cause; 0 = none.
    reason: AtomicU8,
    deadline: Option<Instant>,
    /// Rows the scan may visit before the ctx cancels itself;
    /// `u64::MAX` = unbounded.
    row_budget: u64,
    priority: i32,
    rows_scanned: AtomicU64,
    morsels_claimed: AtomicU64,
    morsels_cancelled: AtomicU64,
    /// Retry attempt counter fed to `FaultSpec::fires` — advancing it
    /// re-rolls every injected-fault decision for the next attempt.
    fault_epoch: AtomicU64,
    /// When set, the engines cap this query at one worker (the retry
    /// ladder's serial-degrade refuge; see `zv-server`).
    serial_only: AtomicBool,
}

/// Per-query lifecycle handle: cancellation token + optional deadline +
/// priority + progress counters. See the [module docs](self) for how it
/// is threaded through the execution stack.
#[derive(Clone, Debug)]
pub struct QueryCtx {
    inner: Arc<CtxInner>,
}

impl Default for QueryCtx {
    fn default() -> Self {
        QueryCtx::new()
    }
}

impl QueryCtx {
    /// An unconstrained ctx: never cancels unless [`QueryCtx::cancel`]
    /// is called.
    pub fn new() -> QueryCtx {
        QueryCtx {
            inner: Arc::new(CtxInner {
                cancelled: AtomicBool::new(false),
                reason: AtomicU8::new(0),
                deadline: None,
                row_budget: u64::MAX,
                priority: 0,
                rows_scanned: AtomicU64::new(0),
                morsels_claimed: AtomicU64::new(0),
                morsels_cancelled: AtomicU64::new(0),
                fault_epoch: AtomicU64::new(0),
                serial_only: AtomicBool::new(false),
            }),
        }
    }

    fn configure(&mut self) -> &mut CtxInner {
        Arc::get_mut(&mut self.inner).expect("configure a QueryCtx before sharing/cloning it")
    }

    /// Cancel automatically once `after` has elapsed from now. Checked
    /// lazily at every cancellation point (no timer thread), so an
    /// expired deadline surfaces within one chunk / one morsel claim.
    pub fn with_deadline(mut self, after: Duration) -> Self {
        self.configure().deadline = Some(Instant::now() + after);
        self
    }

    /// Cancel automatically at the absolute instant `at`.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.configure().deadline = Some(at);
        self
    }

    /// Scheduling priority (higher runs first in `SessionManager`'s
    /// overflow queue). Purely advisory inside the storage engines.
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.configure().priority = priority;
        self
    }

    /// Cancel automatically once the scan has visited `rows` rows — a
    /// deterministic mid-scan cancellation trigger (used by the
    /// cancellation test-suite) and a "bounded effort" knob.
    pub fn with_row_budget(mut self, rows: u64) -> Self {
        self.configure().row_budget = rows;
        self
    }

    /// Explicitly cancel (idempotent; the first cause wins).
    pub fn cancel(&self) {
        self.cancel_with(CancelReason::Explicit);
    }

    /// Cancel, recording `reason` if this is the first cancellation.
    pub fn cancel_with(&self, reason: CancelReason) {
        if !self.inner.cancelled.swap(true, Ordering::Relaxed) {
            self.inner.reason.store(reason.code(), Ordering::Relaxed);
        }
    }

    /// True once cancelled (by any source). Also the lazy deadline
    /// check: an expired deadline trips the flag here. Cheap enough to
    /// call once per chunk / per claim (one relaxed load on the fast
    /// path).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(d) = self.inner.deadline {
            if Instant::now() >= d {
                self.cancel_with(CancelReason::Deadline);
                return true;
            }
        }
        false
    }

    /// [`QueryCtx::is_cancelled`] as a `Result` — the form the execution
    /// stack propagates.
    #[inline]
    pub fn check(&self) -> Result<(), StorageError> {
        if self.is_cancelled() {
            Err(StorageError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Why the ctx was cancelled, once it is.
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        CancelReason::from_code(self.inner.reason.load(Ordering::Relaxed))
    }

    pub fn priority(&self) -> i32 {
        self.inner.priority
    }

    /// Record `rows` visited by the scan; trips the row budget when the
    /// running total reaches it. Called by the scan loops at chunk /
    /// morsel granularity.
    #[inline]
    pub fn record_scanned(&self, rows: u64) {
        let total = self.inner.rows_scanned.fetch_add(rows, Ordering::Relaxed) + rows;
        if total >= self.inner.row_budget {
            self.cancel_with(CancelReason::RowBudget);
        }
    }

    /// Record one morsel claimed on behalf of this query.
    #[inline]
    pub fn record_morsel_claimed(&self) {
        self.inner.morsels_claimed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record morsels left unclaimed because the query was cancelled.
    pub fn record_morsels_cancelled(&self, n: u64) {
        self.inner.morsels_cancelled.fetch_add(n, Ordering::Relaxed);
    }

    /// Current retry epoch (0 on a fresh ctx). Every injected-fault
    /// decision hashes this in, so each retry attempt sees an
    /// independent — but still deterministic — fault pattern.
    #[inline]
    pub fn fault_epoch(&self) -> u64 {
        self.inner.fault_epoch.load(Ordering::Relaxed)
    }

    /// Advance the retry epoch (called by `zv-server` between attempts;
    /// safe after sharing, unlike the `with_*` builders). Returns the
    /// new epoch.
    pub fn advance_fault_epoch(&self) -> u64 {
        self.inner.fault_epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Restrict this query to serial execution (one worker) from now
    /// on. Idempotent; safe after sharing. The retry ladder's last
    /// resort: the serial path has no injection points and no fan-out,
    /// so it cannot hit the transient parallel failure again.
    pub fn force_serial(&self) {
        self.inner.serial_only.store(true, Ordering::Relaxed);
    }

    /// True once [`QueryCtx::force_serial`] was called.
    #[inline]
    pub fn serial_only(&self) -> bool {
        self.inner.serial_only.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the progress counters.
    pub fn stats(&self) -> QueryCtxStats {
        QueryCtxStats {
            rows_scanned: self.inner.rows_scanned.load(Ordering::Relaxed),
            morsels_claimed: self.inner.morsels_claimed.load(Ordering::Relaxed),
            morsels_cancelled: self.inner.morsels_cancelled.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled.load(Ordering::Relaxed),
            reason: self.cancel_reason(),
        }
    }
}

/// Snapshot of one query's progress ([`QueryCtx::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCtxStats {
    /// Rows the scan visited so far (partial scans included).
    pub rows_scanned: u64,
    /// Morsels claimed so far under morsel scheduling.
    pub morsels_claimed: u64,
    /// Morsels abandoned unclaimed because of cancellation.
    pub morsels_cancelled: u64,
    pub cancelled: bool,
    pub reason: Option<CancelReason>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ctx_never_cancels() {
        let ctx = QueryCtx::new();
        assert!(!ctx.is_cancelled());
        assert!(ctx.check().is_ok());
        assert_eq!(ctx.cancel_reason(), None);
        ctx.record_scanned(1 << 40);
        assert!(!ctx.is_cancelled(), "no budget means no budget trips");
    }

    #[test]
    fn explicit_cancel_wins_and_is_idempotent() {
        let ctx = QueryCtx::new();
        ctx.cancel();
        ctx.cancel_with(CancelReason::Superseded);
        assert!(ctx.is_cancelled());
        assert_eq!(ctx.cancel_reason(), Some(CancelReason::Explicit));
        assert!(matches!(ctx.check(), Err(StorageError::Cancelled)));
    }

    #[test]
    fn expired_deadline_trips_on_check() {
        let ctx = QueryCtx::new().with_deadline(Duration::ZERO);
        assert!(ctx.is_cancelled());
        assert_eq!(ctx.cancel_reason(), Some(CancelReason::Deadline));
        let ok = QueryCtx::new().with_deadline(Duration::from_secs(3600));
        assert!(!ok.is_cancelled());
    }

    #[test]
    fn row_budget_trips_once_reached() {
        let ctx = QueryCtx::new().with_row_budget(100);
        ctx.record_scanned(60);
        assert!(!ctx.is_cancelled());
        ctx.record_scanned(40);
        assert!(ctx.is_cancelled());
        assert_eq!(ctx.cancel_reason(), Some(CancelReason::RowBudget));
        assert_eq!(ctx.stats().rows_scanned, 100);
    }

    #[test]
    fn cancellation_is_visible_across_clones() {
        let ctx = QueryCtx::new().with_priority(7);
        let shared = ctx.clone();
        shared.cancel_with(CancelReason::Superseded);
        assert!(ctx.is_cancelled());
        assert_eq!(ctx.cancel_reason(), Some(CancelReason::Superseded));
        assert_eq!(ctx.priority(), 7);
    }

    #[test]
    fn fault_epoch_and_serial_only_work_after_sharing() {
        let ctx = QueryCtx::new();
        let shared = ctx.clone();
        assert_eq!(ctx.fault_epoch(), 0);
        assert!(!ctx.serial_only());
        assert_eq!(shared.advance_fault_epoch(), 1);
        assert_eq!(shared.advance_fault_epoch(), 2);
        assert_eq!(ctx.fault_epoch(), 2, "epoch is shared across clones");
        shared.force_serial();
        assert!(ctx.serial_only());
    }

    #[test]
    #[should_panic(expected = "before sharing")]
    fn configuring_a_shared_ctx_panics() {
        let ctx = QueryCtx::new();
        let _clone = ctx.clone();
        let _ = ctx.with_row_budget(1);
    }
}
