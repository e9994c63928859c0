//! The one engine core under [`ScanDb`](crate::ScanDb) and
//! [`BitmapDb`](crate::BitmapDb). The two engines differ only in their
//! row index — how a query's predicate picks the rows to visit — and in
//! their config defaults:
//!
//! * **none** (`ScanDb`): every query visits every row, `All` for a
//!   true predicate, `Filtered` through the compiled predicate otherwise;
//! * **bitmap** (`BitmapDb`): roaring bitmaps per value of each indexed
//!   column resolve what they can, the rest stays a residual filter (see
//!   [`crate::bitmap_db`]).
//!
//! Everything else is this module, once: the `RwLock<Arc<…>>` state and
//! the append lock, durable open / checkpoint, appends that derive each
//! new version from the last, snapshot pinning and the [`Database`]
//! impl. Scans go through `exec::run`.
//!
//! # State and appends
//!
//! The table and the index built over exactly that table live together
//! in one immutable state behind `RwLock<Arc<…>>`: a query pins the
//! current `Arc` (a pointer bump) and scans lock-free, so a long scan
//! never blocks an append and vice versa. Appends serialize on the
//! append lock and build the next version *outside* the reader-visible
//! lock: a private clone of the current table, which shares every
//! sealed column chunk and dictionary with it (see [`crate::column`]),
//! takes the rows (bumping its version, which retires every cached
//! result — see [`crate::cache`]); a durable engine WAL-logs them; the
//! index is refreshed, sharing every bitmap the rows did not touch; and
//! the new state is swapped in with a momentary write lock. So an
//! append costs O(delta) plus one pointer per sealed chunk and bitmap,
//! not O(rows), and every older version — a pinned snapshot, say —
//! keeps reading its own unchanged segments. A failed append drops the
//! private clone and leaves the current version as it was. Durability
//! comes before visibility: nothing becomes visible that is not on
//! disk.

use crate::bitmap_db::BitmapIndex;
use crate::cache::{CacheConfig, ResultCache};
use crate::db::Database;
use crate::exec::{self, compile_pred, ParallelConfig, RowSource};
use crate::lifecycle::QueryCtx;
use crate::persist::{PersistOptions, Persistence};
use crate::predicate::Predicate;
use crate::query::{ResultTable, SelectQuery};
use crate::roaring::RoaringBitmap;
use crate::stats::ExecStats;
use crate::table::{StorageError, Table};
use crate::value::Value;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// What an engine's config tells the core: the engine's name, whether
/// it keeps a bitmap index, and its settings. Implemented by
/// [`ScanDbConfig`](crate::ScanDbConfig) and
/// [`BitmapDbConfig`](crate::BitmapDbConfig).
pub trait EngineConfig: Clone + Default + Send + Sync + 'static {
    /// [`Database::name`]: the engine half of every result-cache key.
    const NAME: &'static str;
    /// Whether the engine keeps roaring-bitmap indexes.
    const INDEXED: bool;
    /// `(dense_group_limit, request_overhead, parallel, cache)`.
    fn parts(&self) -> (u128, Duration, ParallelConfig, &CacheConfig);
}

/// How an engine picks the rows a query visits.
#[derive(Clone)]
enum RowIndex {
    /// No index: `All` or `Filtered`.
    None,
    /// Roaring bitmaps per value of each indexed column.
    Bitmap(BitmapIndex),
}

impl RowIndex {
    fn build(indexed: bool, table: &Table) -> RowIndex {
        if indexed {
            RowIndex::Bitmap(BitmapIndex::build(table))
        } else {
            RowIndex::None
        }
    }

    /// The index over `table`, whose rows `old_rows..` were appended to
    /// the table `self` indexes.
    fn refreshed(&self, table: &Table, old_rows: usize) -> RowIndex {
        match self {
            RowIndex::None => RowIndex::None,
            RowIndex::Bitmap(ix) => {
                let mut next = ix.clone();
                next.refresh(table, old_rows);
                RowIndex::Bitmap(next)
            }
        }
    }

    fn row_source<'t>(
        &self,
        table: &'t Table,
        pred: &Predicate,
    ) -> Result<RowSource<'t>, StorageError> {
        match self {
            RowIndex::None if pred.is_true() => Ok(RowSource::All(table.num_rows())),
            RowIndex::None => Ok(RowSource::Filtered {
                n_rows: table.num_rows(),
                pred: compile_pred(table, pred)?,
            }),
            RowIndex::Bitmap(ix) => ix.row_source(table, pred),
        }
    }
}

/// One version of an engine's data: a table and the index over exactly
/// that table.
struct State {
    table: Arc<Table>,
    index: RowIndex,
}

/// The execution settings a pinned snapshot carries.
#[derive(Clone, Copy)]
struct Tuning {
    dense_group_limit: u128,
    parallel: ParallelConfig,
}

/// A pinned engine version ([`Database::pin`]): one immutable table,
/// the index built over it, and the execution settings at pin time.
/// Queries against one pin are mutually consistent by construction —
/// appends only ever produce *new* versions.
pub struct Pinned {
    state: Arc<State>,
    tuning: Tuning,
    /// The engine's counters, so scan telemetry lands on the engine.
    stats: Arc<ExecStats>,
}

impl Pinned {
    /// The pinned table.
    pub fn table(&self) -> &Arc<Table> {
        &self.state.table
    }

    /// The bitmap index of column `col` on the pinned version, one
    /// bitmap per value code (dictionary code, or `value - min` for an
    /// int column); `None` when the engine keeps no index on `col`.
    /// Versions derived by appends share every bitmap the appended rows
    /// left untouched.
    pub fn index_bitmaps(&self, col: &str) -> Option<&[Arc<RoaringBitmap>]> {
        match &self.state.index {
            RowIndex::None => None,
            RowIndex::Bitmap(ix) => ix.bitmaps(col),
        }
    }

    /// Execute one canonical grouped-aggregate query against the pinned
    /// version, returning the result and the number of rows visited
    /// (its recompute cost, which drives cache admission). `ctx` is
    /// observed between morsel claims and between scan windows; a
    /// cancelled query returns [`StorageError::Cancelled`] and discards
    /// its partial state.
    pub fn execute(
        &self,
        query: &SelectQuery,
        ctx: &QueryCtx,
    ) -> Result<(ResultTable, u64), StorageError> {
        let source = self
            .state
            .index
            .row_source(&self.state.table, &query.predicate)?;
        self.run(query, &source, ctx)
    }

    /// Execute `query` over only the rows `[start, end)` of the pinned
    /// table — the IVM delta scan over rows appended between two
    /// versions (see [`crate::cache`]'s IVM section). The predicate is a
    /// residual filter inside the range: a bitmap index covers the
    /// whole table, not the tail, so it does not help here. The returned
    /// visited count is `end - start`.
    pub fn execute_range(
        &self,
        query: &SelectQuery,
        ctx: &QueryCtx,
        start: usize,
        end: usize,
    ) -> Result<(ResultTable, u64), StorageError> {
        let table = &self.state.table;
        debug_assert!(start <= end && end <= table.num_rows());
        let pred = if query.predicate.is_true() {
            None
        } else {
            Some(compile_pred(table, &query.predicate)?)
        };
        self.run(query, &RowSource::Range { start, end, pred }, ctx)
    }

    fn run(
        &self,
        query: &SelectQuery,
        source: &RowSource<'_>,
        ctx: &QueryCtx,
    ) -> Result<(ResultTable, u64), StorageError> {
        exec::run(
            &self.state.table,
            query,
            source,
            self.tuning.dense_group_limit,
            &self.tuning.parallel,
            &self.stats,
            ctx,
        )
    }
}

/// An in-memory engine over one relation, optionally durable. Used as
/// [`ScanDb`](crate::ScanDb) (`Engine<ScanDbConfig>`) and
/// [`BitmapDb`](crate::BitmapDb) (`Engine<BitmapDbConfig>`).
pub struct Engine<C> {
    state: RwLock<Arc<State>>,
    /// Serializes mutations so two appends cannot base their versions on
    /// the same predecessor (readers never touch this).
    append_lock: Mutex<()>,
    tuning: Tuning,
    request_overhead: Duration,
    /// Shared with pinned snapshots, so scan telemetry recorded during
    /// snapshot execution lands on the engine's counters.
    stats: Arc<ExecStats>,
    cache: Option<Arc<ResultCache>>,
    /// Durable-storage handle ([`Engine::open_durable`]); `None` for
    /// memory-only engines.
    persist: Option<Arc<Persistence>>,
    config: PhantomData<C>,
}

impl<C: EngineConfig> Engine<C> {
    pub fn new(table: Arc<Table>) -> Self {
        Self::with_config(table, C::default())
    }

    pub fn with_config(table: Arc<Table>, config: C) -> Self {
        let (_, _, parallel, cache) = config.parts();
        let cache = cache
            .is_enabled()
            .then(|| Arc::new(ResultCache::with_fault(cache, parallel.fault)));
        Self::build(table, &config, cache)
    }

    /// Construct with an explicitly shared cache (versioned keys keep
    /// entries from different engines / snapshots apart).
    pub fn with_shared_cache(table: Arc<Table>, config: C, cache: Arc<ResultCache>) -> Self {
        Self::build(table, &config, Some(cache))
    }

    fn build(table: Arc<Table>, config: &C, cache: Option<Arc<ResultCache>>) -> Self {
        let (dense_group_limit, request_overhead, parallel, _) = config.parts();
        let index = RowIndex::build(C::INDEXED, &table);
        Engine {
            state: RwLock::new(Arc::new(State { table, index })),
            append_lock: Mutex::new(()),
            tuning: Tuning {
                dense_group_limit,
                parallel,
            },
            request_overhead,
            stats: Arc::new(ExecStats::new()),
            cache,
            persist: None,
            config: PhantomData,
        }
    }

    /// Open a durable engine on `dir`: recover the newest valid
    /// snapshot plus the WAL tail (crash-exact — see [`crate::persist`]),
    /// or seed a fresh directory with `init()` and checkpoint it. Every
    /// committed append is WAL-logged and fsynced *before* it becomes
    /// visible to queries, so the in-memory table version is always a
    /// durable version. A bitmap index is rebuilt from the recovered
    /// table — it is derived state and never hits the disk.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        config: C,
        init: impl FnOnce() -> Arc<Table>,
    ) -> Result<Self, StorageError> {
        let fault = config.parts().2.fault;
        let (persistence, recovered) = Persistence::open(dir, PersistOptions { fault })?;
        let table = match recovered {
            Some(t) => Arc::new(t),
            None => {
                let t = init();
                persistence.checkpoint(&t)?;
                t
            }
        };
        let mut db = Self::with_config(table, config);
        db.persist = Some(Arc::new(persistence));
        Ok(db)
    }

    /// The durable-storage handle, when this engine was opened with
    /// [`Engine::open_durable`].
    pub fn persistence(&self) -> Option<&Persistence> {
        self.persist.as_deref()
    }

    /// Write a full snapshot of the current table and reset the WAL.
    /// Serialized against appends, so no committed batch can be lost
    /// between the snapshot and the WAL reset.
    pub fn checkpoint(&self) -> Result<PathBuf, StorageError> {
        let persist = self
            .persist
            .as_ref()
            .ok_or_else(|| StorageError::Io("engine has no data directory".into()))?;
        let _appending = crate::fault::lock_recover(&self.append_lock);
        persist.checkpoint(&self.state().table)
    }

    /// Whether `col` has a bitmap index (never, on an engine without
    /// one).
    pub fn is_indexed(&self, col: &str) -> bool {
        match &self.state().index {
            RowIndex::None => false,
            RowIndex::Bitmap(ix) => ix.is_indexed(col),
        }
    }

    fn state(&self) -> Arc<State> {
        // Recover-or-proceed: the lock only ever guards an `Arc` swap,
        // so a poisoned lock still holds an intact state (either the old
        // or the new one) — unwrapping would wedge the engine after any
        // contained panic.
        crate::fault::read_recover(&self.state).clone()
    }

    /// Poison the state lock by panicking while holding its write
    /// guard — the chaos suite's hook for proving the engine recovers
    /// (the guarded value is a plain `Arc`, so recovery is safe).
    #[doc(hidden)]
    pub fn poison_table_lock_for_chaos(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.state.write().unwrap_or_else(|p| p.into_inner());
            panic!(
                "{} deliberate state-lock poisoning",
                crate::fault::PANIC_MARKER
            );
        }));
    }

    /// Swap in a table built by `mutate`, and the index refreshed over
    /// it; returns the row delta. `mutate` works on a private clone of
    /// the current table that shares its sealed chunks and dictionaries
    /// (so the clone costs the unsealed tails plus one pointer per
    /// sealed chunk); it and the index refresh run outside the
    /// reader-visible lock — concurrent queries keep their old version
    /// throughout. On a durable engine `log` WAL-logs and fsyncs the
    /// batch first (straight from the caller's borrowed rows/columns —
    /// no extra copy); a failed `mutate` or disk write drops the clone,
    /// so nothing ever becomes visible that isn't durable.
    fn mutate_table(
        &self,
        mutate: impl FnOnce(&mut Table) -> Result<usize, StorageError>,
        log: impl FnOnce(&Persistence, &Table) -> Result<(), StorageError>,
    ) -> Result<usize, StorageError> {
        let _appending = crate::fault::lock_recover(&self.append_lock);
        let current = self.state();
        let mut table = (*current.table).clone();
        let old_version = table.version();
        let old_rows = table.num_rows();
        let n = mutate(&mut table)?;
        if n == 0 && table.version() == old_version {
            return Ok(0);
        }
        if let Some(persist) = &self.persist {
            log(persist, &table)?;
        }
        let index = current.index.refreshed(&table, old_rows);
        let next = State {
            table: Arc::new(table),
            index,
        };
        *crate::fault::write_recover(&self.state) = Arc::new(next);
        // The old version's cache entries are deliberately *kept*: they
        // are unreachable for exact lookups (versioned keys) but serve
        // as IVM merge ancestors for post-append queries; the LRU
        // reclaims them once the workload moves on.
        Ok(n)
    }
}

impl<C: EngineConfig> Database for Engine<C> {
    fn name(&self) -> &'static str {
        C::NAME
    }

    fn pin(&self) -> Pinned {
        Pinned {
            state: self.state(),
            tuning: self.tuning,
            stats: Arc::clone(&self.stats),
        }
    }

    fn table(&self) -> Arc<Table> {
        self.state().table.clone()
    }

    fn stats(&self) -> &ExecStats {
        &self.stats
    }

    fn result_cache(&self) -> Option<&ResultCache> {
        self.cache.as_deref()
    }

    fn append_rows(&self, rows: &[Vec<Value>]) -> Result<usize, StorageError> {
        self.mutate_table(
            |t| t.append_rows(rows),
            |p, t| p.log_append(t.version(), t.schema(), rows),
        )
    }

    fn append_table(&self, other: &Table) -> Result<usize, StorageError> {
        self.mutate_table(
            |t| t.append_table(other),
            |p, t| p.log_append_table(t.version(), other),
        )
    }

    fn request_overhead(&self) -> Duration {
        self.request_overhead
    }
}
