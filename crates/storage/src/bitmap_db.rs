//! The Roaring Bitmap Database (thesis §6.2): a column store that keeps
//! one roaring bitmap per distinct value of every indexed column, answers
//! selection predicates with bitmap algebra, and aggregates by iterating
//! only qualifying rows.
//!
//! Per the paper's default policy, every categorical column is indexed
//! and measure columns are left unindexed; we additionally index
//! low-cardinality integer columns (year, month, ...) because they appear
//! as equality predicates in the canonical query.
//!
//! Table and indexes live together in one immutable `BitmapState`
//! snapshot (shared via `Arc`), so they always describe the same data and
//! queries scan lock-free. Appends copy-on-write the next snapshot
//! (bumping the table version, which retires every cached result — see
//! [`crate::cache`]) and refresh the indexes *incrementally*: appended
//! row ids are strictly ascending, so each new row is an O(1)
//! `push_ascending` into its value bitmap; only an integer column whose
//! value range grew out of its existing code space pays a full
//! per-column rebuild.

use crate::cache::{CacheConfig, ResultCache};
use crate::column::Column;
use crate::db::{Database, EngineSnapshot};
use crate::exec::{self, compile_pred, RowSource};
use crate::lifecycle::QueryCtx;
use crate::persist::{PersistOptions, Persistence};
use crate::predicate::{Atom, CmpOp, Predicate};
use crate::query::{ResultTable, SelectQuery};
use crate::roaring::RoaringBitmap;
use crate::stats::ExecStats;
use crate::table::{StorageError, Table};
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Tuning knobs for [`BitmapDb`].
#[derive(Clone, Debug)]
pub struct BitmapDbConfig {
    /// Integer columns with at most this many distinct values also get
    /// bitmap indexes.
    pub int_index_max_card: usize,
    /// Group-key spaces up to this size use dense accumulation; beyond it
    /// the engine pays a hash lookup per row — the behaviour the paper
    /// observed "as the number of groups increases" (Figure 7.5a).
    pub dense_group_limit: u128,
    /// Simulated client↔server round-trip latency added per request
    /// (a stand-in for the paper's networked PostgreSQL).
    pub request_overhead: Duration,
    /// Run-optimize indexes after build (RLE compression).
    pub run_optimize: bool,
    /// Parallel-scan tuning (thread count, serial threshold, morsel
    /// size). The default consults the `ZV_SCHED_*` environment
    /// overrides ([`exec::ParallelConfig::from_env`]) so CI can force a
    /// scheduling configuration across whole test suites.
    pub parallel: exec::ParallelConfig,
    /// Engine-level result cache bounds ([`CacheConfig::disabled`] turns
    /// the cache off, e.g. for raw-engine benchmarks).
    pub cache: CacheConfig,
}

impl Default for BitmapDbConfig {
    fn default() -> Self {
        BitmapDbConfig {
            int_index_max_card: 4096,
            dense_group_limit: 1 << 10,
            request_overhead: Duration::ZERO,
            run_optimize: true,
            parallel: exec::ParallelConfig::from_env(),
            cache: CacheConfig::default(),
        }
    }
}

impl BitmapDbConfig {
    /// Default config with the result cache off — for benchmarks and
    /// tests that measure (or compare against) raw engine behaviour.
    pub fn uncached() -> Self {
        BitmapDbConfig {
            cache: CacheConfig::disabled(),
            ..Default::default()
        }
    }
}

/// One indexed column: a bitmap of row ids per distinct-value code.
#[derive(Clone)]
struct ColumnIndex {
    /// `bitmaps[code]` = rows where the column equals the value with that
    /// code. For int columns the code is `value - min`.
    bitmaps: Vec<RoaringBitmap>,
    /// For integer indexes: the value of code 0.
    int_min: i64,
    is_int: bool,
}

impl ColumnIndex {
    fn lookup_cat(&self, code: u32) -> Option<&RoaringBitmap> {
        self.bitmaps.get(code as usize)
    }

    fn lookup_int(&self, value: i64) -> Option<&RoaringBitmap> {
        if !self.is_int {
            return None;
        }
        let off = value.checked_sub(self.int_min)?;
        if off < 0 {
            return None;
        }
        self.bitmaps.get(off as usize)
    }
}

/// One consistent snapshot: the table plus the indexes built over it.
#[derive(Clone)]
struct BitmapState {
    table: Arc<Table>,
    indexes: HashMap<String, ColumnIndex>,
    /// Int columns whose value range already exceeded the cardinality
    /// budget. A column's range only ever grows, so once a build fails it
    /// can never succeed again — remembering that spares every later
    /// append the O(n) min/max rescan of the column.
    unindexable: HashSet<String>,
}

fn build_cat_index(c: &crate::column::CatColumn, run_optimize: bool) -> ColumnIndex {
    let mut bitmaps: Vec<RoaringBitmap> =
        (0..c.cardinality()).map(|_| RoaringBitmap::new()).collect();
    c.codes().for_each_range(0, c.len(), |row, code| {
        bitmaps[code as usize].push_ascending(row as u32);
    });
    if run_optimize {
        for bm in &mut bitmaps {
            bm.run_optimize();
        }
    }
    ColumnIndex {
        bitmaps,
        int_min: 0,
        is_int: false,
    }
}

fn build_int_index(v: &crate::column::IntColumn, config: &BitmapDbConfig) -> Option<ColumnIndex> {
    // Chunk-stat fold: O(chunks + tail), not a full O(n) value scan.
    let (lo, hi) = v.minmax(0, v.len())?;
    // i128 arithmetic: the value range can exceed i64 (e.g. a sentinel
    // near i64::MAX next to negative values).
    let card = (hi as i128 - lo as i128 + 1) as u128;
    if card > config.int_index_max_card as u128 {
        return None;
    }
    let mut bitmaps: Vec<RoaringBitmap> =
        (0..card as usize).map(|_| RoaringBitmap::new()).collect();
    v.for_each_range(0, v.len(), |row, val| {
        bitmaps[(val - lo) as usize].push_ascending(row as u32);
    });
    if config.run_optimize {
        for bm in &mut bitmaps {
            bm.run_optimize();
        }
    }
    Some(ColumnIndex {
        bitmaps,
        int_min: lo,
        is_int: true,
    })
}

fn build_state(table: Arc<Table>, config: &BitmapDbConfig) -> BitmapState {
    let mut indexes = HashMap::new();
    let mut unindexable = HashSet::new();
    for field in table.schema().fields() {
        match table.column(&field.name).unwrap() {
            Column::Cat(c) => {
                indexes.insert(field.name.clone(), build_cat_index(c, config.run_optimize));
            }
            Column::Int(v) => match build_int_index(v, config) {
                Some(ix) => {
                    indexes.insert(field.name.clone(), ix);
                }
                // Empty columns may become indexable after an append;
                // budget-exceeding ones never can (the range only grows).
                None if !v.is_empty() => {
                    unindexable.insert(field.name.clone());
                }
                None => {}
            },
            Column::Float(_) => {}
        }
    }
    BitmapState {
        table,
        indexes,
        unindexable,
    }
}

/// Sorted, deduplicated code list of one append batch (so each touched
/// bitmap is re-compressed exactly once).
fn dedup_codes(codes: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut out: Vec<usize> = codes.collect();
    out.sort_unstable();
    out.dedup();
    out
}

impl BitmapState {
    /// Bring the indexes up to date after rows `old_rows..` were appended
    /// to `self.table`. Appended row ids are ascending and larger than
    /// anything indexed, so the common case is an O(1) tail append per
    /// row; an integer index whose value range grew falls back to a full
    /// per-column rebuild (or is dropped if it outgrew the cardinality
    /// budget — residual predicate scans stay correct without it).
    fn refresh_indexes(&mut self, old_rows: usize, config: &BitmapDbConfig) {
        let table = &self.table;
        let indexes = &mut self.indexes;
        let unindexable = &mut self.unindexable;
        for field in table.schema().fields() {
            match table.column(&field.name).unwrap() {
                Column::Cat(c) => {
                    let ix = indexes
                        .get_mut(&field.name)
                        .expect("categorical columns are always indexed");
                    // New dictionary codes get fresh (empty) bitmaps.
                    while ix.bitmaps.len() < c.cardinality() {
                        ix.bitmaps.push(RoaringBitmap::new());
                    }
                    let mut batch: Vec<usize> = Vec::new();
                    c.codes().for_each_range(old_rows, c.len(), |row, code| {
                        ix.bitmaps[code as usize].push_ascending(row as u32);
                        batch.push(code as usize);
                    });
                    if config.run_optimize {
                        // Appends devolve run containers; re-compress
                        // each bitmap this batch touched, once.
                        for code in dedup_codes(batch.into_iter()) {
                            ix.bitmaps[code].run_optimize();
                        }
                    }
                }
                Column::Int(v) => {
                    if unindexable.contains(&field.name) {
                        // A previously failed build can never succeed —
                        // the range only grows. Skip the O(n) rescan.
                        continue;
                    }
                    if let Some(ix) = indexes.get_mut(&field.name) {
                        let len = ix.bitmaps.len() as i64;
                        let int_min = ix.int_min;
                        // checked_sub: the offset can overflow i64 for
                        // extreme appended values; overflow means
                        // out-of-range, never a panic.
                        let mut in_range = true;
                        v.for_each_range(old_rows, v.len(), |_, x| {
                            in_range &= matches!(
                                x.checked_sub(int_min), Some(o) if (0..len).contains(&o)
                            );
                        });
                        if in_range {
                            let mut batch: Vec<usize> = Vec::new();
                            v.for_each_range(old_rows, v.len(), |row, val| {
                                ix.bitmaps[(val - int_min) as usize].push_ascending(row as u32);
                                batch.push((val - int_min) as usize);
                            });
                            if config.run_optimize {
                                // Appends devolve run containers;
                                // re-compress each touched bitmap, once.
                                for code in dedup_codes(batch.into_iter()) {
                                    ix.bitmaps[code].run_optimize();
                                }
                            }
                            continue;
                        }
                        indexes.remove(&field.name);
                    }
                    // Out-of-range append, or the column only now became
                    // indexable (e.g. it was empty at build time).
                    match build_int_index(v, config) {
                        Some(ix) => {
                            indexes.insert(field.name.clone(), ix);
                        }
                        None if !v.is_empty() => {
                            unindexable.insert(field.name.clone());
                        }
                        None => {}
                    }
                }
                Column::Float(_) => {}
            }
        }
    }

    /// Resolve one atom via the indexes, if possible.
    fn atom_bitmap(&self, atom: &Atom) -> Option<RoaringBitmap> {
        let ix = self.indexes.get(atom.column())?;
        match atom {
            Atom::CatEq { col, value } => {
                let c = self.table.column(col).ok()?.as_cat()?;
                match c.code_of(value) {
                    Some(code) => ix.lookup_cat(code).cloned(),
                    None => Some(RoaringBitmap::new()),
                }
            }
            Atom::CatNeq { col, value } => {
                let c = self.table.column(col).ok()?.as_cat()?;
                let all = self.all_rows();
                match c.code_of(value) {
                    Some(code) => Some(all.and_not(ix.lookup_cat(code)?)),
                    None => Some(all),
                }
            }
            Atom::CatIn { col, values } => {
                let c = self.table.column(col).ok()?.as_cat()?;
                let mut acc = RoaringBitmap::new();
                for v in values {
                    if let Some(code) = c.code_of(v) {
                        acc = acc.or(ix.lookup_cat(code)?);
                    }
                }
                Some(acc)
            }
            Atom::NumCmp {
                op: CmpOp::Eq,
                value,
                ..
            } if ix.is_int => {
                if value.fract() != 0.0 {
                    return Some(RoaringBitmap::new());
                }
                Some(ix.lookup_int(*value as i64).cloned().unwrap_or_default())
            }
            Atom::NumBetween { lo, hi, .. } if ix.is_int => {
                let lo_i = lo.ceil() as i64;
                let hi_i = hi.floor() as i64;
                let mut acc = RoaringBitmap::new();
                for v in lo_i..=hi_i {
                    if let Some(bm) = ix.lookup_int(v) {
                        acc = acc.or(bm);
                    }
                }
                Some(acc)
            }
            Atom::StrPrefix { col, prefix } => {
                let c = self.table.column(col).ok()?.as_cat()?;
                let mut acc = RoaringBitmap::new();
                for (code, s) in c.dict().iter().enumerate() {
                    if s.starts_with(prefix.as_str()) {
                        acc = acc.or(ix.lookup_cat(code as u32)?);
                    }
                }
                Some(acc)
            }
            _ => None,
        }
    }

    fn all_rows(&self) -> RoaringBitmap {
        RoaringBitmap::from_sorted_iter(0..self.table.num_rows() as u32)
    }

    /// Build the row source: bitmap-resolved atoms ANDed, residual atoms
    /// left as a per-row filter.
    fn row_source(&self, pred: &Predicate) -> Result<RowSource<'_>, StorageError> {
        let n = self.table.num_rows();
        match pred {
            Predicate::True => Ok(RowSource::All(n)),
            Predicate::And(atoms) => {
                let mut bitmaps: Vec<RoaringBitmap> = Vec::new();
                let mut residual: Vec<Atom> = Vec::new();
                for a in atoms {
                    match self.atom_bitmap(a) {
                        Some(bm) => bitmaps.push(bm),
                        None => residual.push(a.clone()),
                    }
                }
                if bitmaps.is_empty() {
                    let pred = compile_pred(&self.table, &Predicate::And(residual.clone()))?;
                    return Ok(RowSource::Filtered { n_rows: n, pred });
                }
                // AND cheapest-first.
                bitmaps.sort_by_key(|b| b.len());
                let mut acc = bitmaps[0].clone();
                for bm in &bitmaps[1..] {
                    acc = acc.and(bm);
                    if acc.is_empty() {
                        break;
                    }
                }
                if residual.is_empty() {
                    Ok(RowSource::Bitmap(acc))
                } else {
                    let pred = compile_pred(&self.table, &Predicate::And(residual))?;
                    Ok(RowSource::BitmapFiltered { rows: acc, pred })
                }
            }
            Predicate::Or(disj) => {
                // Fully-indexable disjunctions resolve via bitmap algebra;
                // otherwise fall back to a filtered scan.
                let mut acc = RoaringBitmap::new();
                for conj in disj {
                    let mut conj_bm: Option<RoaringBitmap> = None;
                    for a in conj {
                        match self.atom_bitmap(a) {
                            Some(bm) => {
                                conj_bm = Some(match conj_bm {
                                    Some(prev) => prev.and(&bm),
                                    None => bm,
                                })
                            }
                            None => {
                                let pred = compile_pred(&self.table, pred)?;
                                return Ok(RowSource::Filtered { n_rows: n, pred });
                            }
                        }
                    }
                    acc = acc.or(&conj_bm.unwrap_or_else(|| self.all_rows()));
                }
                Ok(RowSource::Bitmap(acc))
            }
        }
    }
}

/// In-memory database with roaring-bitmap secondary indexes.
///
/// The snapshot lives behind `RwLock<Arc<BitmapState>>`: queries clone
/// the `Arc` (a pointer bump) and scan lock-free, so a long scan never
/// blocks an append and vice versa. Appends serialize on `append_lock`,
/// build the next snapshot *outside* the reader-visible lock, and swap
/// it in with a momentary write lock.
pub struct BitmapDb {
    state: RwLock<Arc<BitmapState>>,
    /// Serializes mutations so two appends cannot base their snapshots
    /// on the same predecessor (readers never touch this).
    append_lock: Mutex<()>,
    config: BitmapDbConfig,
    /// Shared with pinned snapshots, so scan telemetry recorded during
    /// snapshot execution lands on the engine's counters.
    stats: Arc<ExecStats>,
    cache: Option<Arc<ResultCache>>,
    /// Durable-storage handle ([`BitmapDb::open_durable`]); `None` for
    /// memory-only engines.
    persist: Option<Arc<Persistence>>,
}

impl BitmapDb {
    pub fn new(table: Arc<Table>) -> Self {
        Self::with_config(table, BitmapDbConfig::default())
    }

    pub fn with_config(table: Arc<Table>, config: BitmapDbConfig) -> Self {
        let cache = config.cache.is_enabled().then(|| {
            Arc::new(ResultCache::with_fault(
                &config.cache,
                config.parallel.fault,
            ))
        });
        Self::build(table, config, cache)
    }

    /// Construct with an explicitly shared cache (versioned keys keep
    /// entries from different engines / snapshots apart).
    pub fn with_shared_cache(
        table: Arc<Table>,
        config: BitmapDbConfig,
        cache: Arc<ResultCache>,
    ) -> Self {
        Self::build(table, config, Some(cache))
    }

    fn build(table: Arc<Table>, config: BitmapDbConfig, cache: Option<Arc<ResultCache>>) -> Self {
        BitmapDb {
            state: RwLock::new(Arc::new(build_state(table, &config))),
            append_lock: Mutex::new(()),
            config,
            stats: Arc::new(ExecStats::new()),
            cache,
            persist: None,
        }
    }

    /// Open a durable engine on `dir`: recover the newest valid
    /// snapshot plus the WAL tail (crash-exact — see [`crate::persist`]),
    /// or seed a fresh directory with `init()` and checkpoint it. Every
    /// committed append is WAL-logged and fsynced *before* it becomes
    /// visible to queries, so the in-memory table version is always a
    /// durable version. Bitmap indexes are rebuilt from the recovered
    /// table — they are derived state and never hit the disk.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        config: BitmapDbConfig,
        init: impl FnOnce() -> Arc<Table>,
    ) -> Result<Self, StorageError> {
        let (persistence, recovered) = Persistence::open(
            dir,
            PersistOptions {
                fault: config.parallel.fault,
            },
        )?;
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
    /// [`BitmapDb::open_durable`].
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
        let table = self.state().table.clone();
        persist.checkpoint(&table)
    }

    pub fn config(&self) -> &BitmapDbConfig {
        &self.config
    }

    fn state(&self) -> Arc<BitmapState> {
        // Recover-or-proceed: the lock only ever guards an `Arc` swap,
        // so a poisoned lock still holds an intact snapshot (either the
        // old or the new state) — unwrapping would wedge the engine
        // after any contained panic.
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

    /// Total bytes held by bitmap indexes (compression reporting).
    pub fn index_bytes(&self) -> usize {
        self.state()
            .indexes
            .values()
            .flat_map(|ix| ix.bitmaps.iter())
            .map(RoaringBitmap::size_bytes)
            .sum()
    }

    pub fn is_indexed(&self, col: &str) -> bool {
        self.state().indexes.contains_key(col)
    }

    /// Swap in a mutated table built by `mutate` and refresh the indexes
    /// incrementally; returns the appended row count. The table clone and
    /// index refresh run outside the reader-visible lock — queries keep
    /// scanning the old snapshot throughout.
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
        // Durability before visibility: the batch must reach the WAL
        // (fsynced, encoded straight from the caller's borrowed batch)
        // before any reader can observe the new snapshot.
        if let Some(persist) = &self.persist {
            log(persist, &table)?;
        }
        let mut next = BitmapState {
            table: Arc::new(table),
            indexes: current.indexes.clone(),
            unindexable: current.unindexable.clone(),
        };
        next.refresh_indexes(old_rows, &self.config);
        *crate::fault::write_recover(&self.state) = Arc::new(next);
        // The old version's cache entries are deliberately *kept*: they
        // are unreachable for exact lookups (versioned keys) but serve
        // as IVM merge ancestors for post-append queries; the LRU
        // reclaims them once the workload moves on.
        Ok(n)
    }
}

/// A pinned [`BitmapDb`] view: one immutable [`BitmapState`] (table +
/// the indexes built over exactly that table) plus the execution tuning
/// frozen at pin time.
struct BitmapSnapshot {
    state: Arc<BitmapState>,
    dense_group_limit: u128,
    parallel: exec::ParallelConfig,
    stats: Arc<ExecStats>,
}

impl EngineSnapshot for BitmapSnapshot {
    fn table(&self) -> &Arc<Table> {
        &self.state.table
    }

    fn execute(
        &self,
        query: &SelectQuery,
        ctx: &QueryCtx,
    ) -> Result<(ResultTable, u64), StorageError> {
        let state = &self.state;
        let source = state.row_source(&query.predicate)?;
        let groups = exec::group_space(&state.table, query)?;
        let strategy = exec::choose_strategy(groups, self.dense_group_limit);
        // A degraded query (`QueryCtx::force_serial`, set by the retry
        // ladder or the breaker) is pinned to the injection-free serial
        // path no matter what the config would choose.
        let threads = if ctx.serial_only() {
            1
        } else {
            self.parallel.threads_for(source.estimated_rows())
        };
        exec::run_scheduled(
            &state.table,
            query,
            &source,
            strategy,
            threads,
            &self.parallel,
            &self.stats,
            ctx,
        )
    }

    fn execute_range(
        &self,
        query: &SelectQuery,
        ctx: &QueryCtx,
        start: usize,
        end: usize,
    ) -> Result<(ResultTable, u64), StorageError> {
        // A bounded delta range doesn't profit from bitmap algebra (the
        // index covers the whole table, not the tail); compile the
        // predicate as a residual filter like the scan engine does.
        let table = &self.state.table;
        debug_assert!(start <= end && end <= table.num_rows());
        let pred = if query.predicate.is_true() {
            None
        } else {
            Some(compile_pred(table, &query.predicate)?)
        };
        let source = RowSource::Range { start, end, pred };
        let groups = exec::group_space_over(table, query, Some((start, end)))?;
        let strategy = exec::choose_strategy(groups, self.dense_group_limit);
        let threads = if ctx.serial_only() {
            1
        } else {
            self.parallel.threads_for(source.estimated_rows())
        };
        exec::run_scheduled(
            table,
            query,
            &source,
            strategy,
            threads,
            &self.parallel,
            &self.stats,
            ctx,
        )
    }
}

impl Database for BitmapDb {
    fn name(&self) -> &'static str {
        "roaring-bitmap-db"
    }

    fn pin(&self) -> Arc<dyn EngineSnapshot> {
        Arc::new(BitmapSnapshot {
            state: self.state(),
            dense_group_limit: self.config.dense_group_limit,
            parallel: self.config.parallel,
            stats: Arc::clone(&self.stats),
        })
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
        self.config.request_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{XSpec, YSpec};
    use crate::table::{Field, Schema, TableBuilder};
    use crate::value::{DataType, Value};

    fn db() -> BitmapDb {
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
        // The fixture is 6 rows: disable cost-based admission so the
        // cache-behaviour tests below still exercise warm hits.
        BitmapDb::with_config(
            b.finish_shared(),
            BitmapDbConfig {
                cache: CacheConfig::admit_all(),
                ..Default::default()
            },
        )
    }

    #[test]
    fn builds_indexes_for_cat_and_small_int() {
        let db = db();
        assert!(db.is_indexed("product"));
        assert!(db.is_indexed("location"));
        assert!(db.is_indexed("year")); // card 2 ≤ 4096
        assert!(!db.is_indexed("sales")); // measure column unindexed
        assert!(db.index_bytes() > 0);
    }

    #[test]
    fn bitmap_selection_scans_only_matching_rows() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("location", "UK"));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(
            delta.rows_scanned, 2,
            "only the two UK rows should be visited"
        );
        assert_eq!(rt.groups[0].ys[0], vec![20.0]);
    }

    #[test]
    fn conjunction_of_indexed_atoms() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_predicate(
            Predicate::cat_eq("product", "chair").and(Predicate::cat_eq("location", "US")),
        );
        let rt = db.execute(&q).unwrap();
        let g = &rt.groups[0];
        assert_eq!(g.xs, vec![Value::Int(2014), Value::Int(2015)]);
        assert_eq!(g.ys[0], vec![15.0, 20.0]);
    }

    #[test]
    fn int_equality_uses_index() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::num_eq("year", 2015.0));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 3);
        assert_eq!(rt.groups[0].ys[0], vec![40.0]);
    }

    #[test]
    fn residual_predicate_on_measure_column() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_predicate(
            Predicate::cat_eq("product", "chair").and(Predicate::atom(Atom::NumCmp {
                col: "sales".into(),
                op: CmpOp::Gt,
                value: 9.0,
            })),
        );
        let rt = db.execute(&q).unwrap();
        let g = &rt.groups[0];
        // chair rows with sales > 9: (2014,10), (2015,20), (2015,11)
        assert_eq!(g.xs, vec![Value::Int(2014), Value::Int(2015)]);
        assert_eq!(g.ys[0], vec![10.0, 31.0]);
    }

    #[test]
    fn indexed_disjunction() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_predicate(
            Predicate::Or(vec![
                vec![Atom::CatEq {
                    col: "product".into(),
                    value: "desk".into(),
                }],
                vec![Atom::CatEq {
                    col: "location".into(),
                    value: "UK".into(),
                }],
            ]),
        );
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 3); // rows 3,4,5
        let g = &rt.groups[0];
        assert_eq!(g.ys[0], vec![7.0, 20.0]);
    }

    #[test]
    fn missing_dictionary_value_yields_empty() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("product", "sofa"));
        assert!(db.execute(&q).unwrap().is_empty());
    }

    #[test]
    fn request_counting() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
        db.run_request(&[q.clone(), q.clone(), q]).unwrap();
        let snap = db.stats().snapshot();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.queries, 3);
    }

    #[test]
    fn append_extends_indexes_incrementally() {
        let db = db();
        // New product ("sofa") and a new location code appear only in the
        // appended rows; the year range stays inside the existing index.
        db.append_rows(&[
            vec![
                Value::Int(2015),
                Value::str("sofa"),
                Value::str("FR"),
                Value::Float(4.0),
            ],
            vec![
                Value::Int(2014),
                Value::str("chair"),
                Value::str("UK"),
                Value::Float(6.0),
            ],
        ])
        .unwrap();
        assert!(db.is_indexed("product"));
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("product", "sofa"));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 1, "new code must be index-resolved");
        assert_eq!(rt.groups[0].ys[0], vec![4.0]);
        // Existing codes see the appended rows too.
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("location", "UK"));
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups[0].ys[0], vec![6.0, 20.0]);
    }

    #[test]
    fn append_outside_int_range_rebuilds_that_index() {
        let db = db();
        assert!(db.is_indexed("year"));
        db.append_rows(&[vec![
            Value::Int(2020),
            Value::str("chair"),
            Value::str("US"),
            Value::Float(1.0),
        ]])
        .unwrap();
        assert!(db.is_indexed("year"), "widened range still fits the budget");
        let q = SelectQuery::new(XSpec::raw("product"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::num_eq("year", 2020.0));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 1);
        assert_eq!(rt.groups[0].ys[0], vec![1.0]);

        // Blow past the cardinality budget: the index must be dropped and
        // the query answered by a residual scan, still correctly.
        db.append_rows(&[vec![
            Value::Int(2014 + 1_000_000),
            Value::str("desk"),
            Value::str("US"),
            Value::Float(2.0),
        ]])
        .unwrap();
        assert!(!db.is_indexed("year"));
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups[0].ys[0], vec![1.0]);
    }

    #[test]
    fn extreme_int_append_does_not_overflow_the_range_check() {
        // Regression: `value - int_min` used to overflow i64 when an
        // appended sentinel sat near i64::MAX with a negative int_min,
        // panicking inside the mutation path. It must instead be treated
        // as out-of-range (index dropped, residual scan stays correct).
        let db = db();
        // Widen the year index to a *negative* int_min first…
        db.append_rows(&[vec![
            Value::Int(-10),
            Value::str("chair"),
            Value::str("US"),
            Value::Float(0.25),
        ]])
        .unwrap();
        assert!(db.is_indexed("year"), "negative-min range still fits");
        // …then append the overflow-triggering sentinel.
        db.append_rows(&[vec![
            Value::Int(i64::MAX),
            Value::str("chair"),
            Value::str("US"),
            Value::Float(1.5),
        ]])
        .unwrap();
        assert!(!db.is_indexed("year"));
        let q = SelectQuery::new(XSpec::raw("product"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::num_eq("year", 2015.0));
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups[0].ys[0], vec![31.0, 9.0]);
        // A follow-up append still works (engine not poisoned).
        db.append_rows(&[vec![
            Value::Int(2015),
            Value::str("desk"),
            Value::str("US"),
            Value::Float(2.0),
        ]])
        .unwrap();
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups[0].ys[0], vec![31.0, 11.0]);
    }

    #[test]
    fn empty_append_is_a_version_preserving_noop() {
        let db = db();
        let v0 = db.table().version();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
        let _ = db.run_request(std::slice::from_ref(&q)).unwrap();
        assert_eq!(db.append_rows(&[]).unwrap(), 0);
        assert_eq!(db.table().version(), v0);
        let before = db.stats().snapshot();
        let _ = db.run_request(std::slice::from_ref(&q)).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.cache_hits, 1, "cache must survive a no-op append");
    }
}
