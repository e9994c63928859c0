//! The conventional comparator engine: full scans with compiled per-row
//! predicates and dense-array aggregation. This stands in for the paper's
//! PostgreSQL backend: it has no bitmap indexes, so it must visit every
//! row, but its aggregation path is cardinality-aware (dense group
//! arrays up to a large limit), which is what lets it overtake the
//! bitmap engine at 100% selectivity with many groups (Figure 7.5a).
//!
//! The table lives behind an `RwLock<Arc<Table>>`: queries clone the
//! current snapshot (cheap Arc bump) and scan it lock-free, while
//! appends copy-on-write a new snapshot with a fresh version — readers
//! mid-scan keep their old snapshot, and the version bump retires every
//! cached result of the old one (see [`crate::cache`]).

use crate::cache::{CacheConfig, ResultCache};
use crate::db::{Database, EngineSnapshot};
use crate::exec::{self, compile_pred, RowSource};
use crate::lifecycle::QueryCtx;
use crate::persist::{PersistOptions, Persistence};
use crate::query::{ResultTable, SelectQuery};
use crate::stats::ExecStats;
use crate::table::{StorageError, Table};
use crate::value::Value;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Tuning knobs for [`ScanDb`].
#[derive(Clone, Debug)]
pub struct ScanDbConfig {
    /// Group-key spaces up to this size use dense accumulation.
    pub dense_group_limit: u128,
    /// Simulated round-trip latency per request.
    pub request_overhead: Duration,
    /// Parallel-scan tuning (thread count, serial threshold, morsel
    /// size). The default consults the `ZV_SCHED_*` environment
    /// overrides ([`exec::ParallelConfig::from_env`]) so CI can force a
    /// scheduling configuration across whole test suites.
    pub parallel: exec::ParallelConfig,
    /// Engine-level result cache bounds ([`CacheConfig::disabled`] turns
    /// the cache off, e.g. for raw-engine benchmarks).
    pub cache: CacheConfig,
}

impl Default for ScanDbConfig {
    fn default() -> Self {
        ScanDbConfig {
            dense_group_limit: 1 << 24,
            request_overhead: Duration::ZERO,
            parallel: exec::ParallelConfig::from_env(),
            cache: CacheConfig::default(),
        }
    }
}

impl ScanDbConfig {
    /// Default config with the result cache off — for benchmarks and
    /// tests that measure (or compare against) raw engine behaviour.
    pub fn uncached() -> Self {
        ScanDbConfig {
            cache: CacheConfig::disabled(),
            ..Default::default()
        }
    }
}

/// Scan-based reference engine.
pub struct ScanDb {
    table: RwLock<Arc<Table>>,
    /// Serializes mutations so two appends cannot base their snapshots
    /// on the same predecessor (readers never touch this).
    append_lock: Mutex<()>,
    config: ScanDbConfig,
    /// Shared with pinned snapshots, so scan telemetry recorded during
    /// snapshot execution lands on the engine's counters.
    stats: Arc<ExecStats>,
    cache: Option<Arc<ResultCache>>,
    /// Durable-storage handle ([`ScanDb::open_durable`]); `None` for
    /// memory-only engines.
    persist: Option<Arc<Persistence>>,
}

impl ScanDb {
    pub fn new(table: Arc<Table>) -> Self {
        Self::with_config(table, ScanDbConfig::default())
    }

    pub fn with_config(table: Arc<Table>, config: ScanDbConfig) -> Self {
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
        config: ScanDbConfig,
        cache: Arc<ResultCache>,
    ) -> Self {
        Self::build(table, config, Some(cache))
    }

    fn build(table: Arc<Table>, config: ScanDbConfig, cache: Option<Arc<ResultCache>>) -> Self {
        ScanDb {
            table: RwLock::new(table),
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
    /// durable version.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        config: ScanDbConfig,
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
    /// [`ScanDb::open_durable`].
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
        let table = self.snapshot();
        persist.checkpoint(&table)
    }

    pub fn config(&self) -> &ScanDbConfig {
        &self.config
    }

    fn snapshot(&self) -> Arc<Table> {
        // Recover-or-proceed: the lock only ever guards an `Arc` swap,
        // so a poisoned lock still holds an intact snapshot (either the
        // old or the new table) — unwrapping would wedge the engine
        // after any contained panic.
        crate::fault::read_recover(&self.table).clone()
    }

    fn pin_snapshot(&self) -> ScanSnapshot {
        ScanSnapshot {
            table: self.snapshot(),
            dense_group_limit: self.config.dense_group_limit,
            parallel: self.config.parallel,
            stats: Arc::clone(&self.stats),
        }
    }

    /// Poison the table lock by panicking while holding its write
    /// guard — the chaos suite's hook for proving the engine recovers
    /// (the guarded value is a plain `Arc`, so recovery is safe).
    #[doc(hidden)]
    pub fn poison_table_lock_for_chaos(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.table.write().unwrap_or_else(|p| p.into_inner());
            panic!(
                "{} deliberate table-lock poisoning",
                crate::fault::PANIC_MARKER
            );
        }));
    }

    /// Swap in a mutated table built by `mutate`; returns its row delta.
    /// The O(n) copy-on-write runs outside the reader-visible lock —
    /// concurrent queries keep their old snapshot throughout — and
    /// appends serialize on `append_lock`. On a durable engine `log`
    /// WAL-logs and fsyncs the batch first (straight from the caller's
    /// borrowed rows/columns — no extra copy); a disk failure aborts
    /// the whole mutation, so nothing ever becomes visible that isn't
    /// durable.
    fn mutate_table(
        &self,
        mutate: impl FnOnce(&mut Table) -> Result<usize, StorageError>,
        log: impl FnOnce(&Persistence, &Table) -> Result<(), StorageError>,
    ) -> Result<usize, StorageError> {
        let _appending = crate::fault::lock_recover(&self.append_lock);
        let mut next = (*self.snapshot()).clone();
        let old_version = next.version();
        let n = mutate(&mut next)?;
        if n == 0 && next.version() == old_version {
            return Ok(0);
        }
        if let Some(persist) = &self.persist {
            log(persist, &next)?;
        }
        *crate::fault::write_recover(&self.table) = Arc::new(next);
        // The old version's cache entries are deliberately *kept*: they
        // are unreachable for exact lookups (versioned keys) but serve
        // as IVM merge ancestors for post-append queries; the LRU
        // reclaims them once the workload moves on.
        Ok(n)
    }
}

/// A pinned [`ScanDb`] view: the table snapshot plus the execution
/// tuning frozen at pin time.
struct ScanSnapshot {
    table: Arc<Table>,
    dense_group_limit: u128,
    parallel: exec::ParallelConfig,
    stats: Arc<ExecStats>,
}

impl EngineSnapshot for ScanSnapshot {
    fn table(&self) -> &Arc<Table> {
        &self.table
    }

    fn execute(
        &self,
        query: &SelectQuery,
        ctx: &QueryCtx,
    ) -> Result<(ResultTable, u64), StorageError> {
        let table = &self.table;
        let source = if query.predicate.is_true() {
            RowSource::All(table.num_rows())
        } else {
            let pred = compile_pred(table, &query.predicate)?;
            RowSource::Filtered {
                n_rows: table.num_rows(),
                pred,
            }
        };
        let groups = exec::group_space(table, query)?;
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

    fn execute_range(
        &self,
        query: &SelectQuery,
        ctx: &QueryCtx,
        start: usize,
        end: usize,
    ) -> Result<(ResultTable, u64), StorageError> {
        let table = &self.table;
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

impl Database for ScanDb {
    fn name(&self) -> &'static str {
        "scan-db"
    }

    fn pin(&self) -> Arc<dyn EngineSnapshot> {
        Arc::new(self.pin_snapshot())
    }

    fn table(&self) -> Arc<Table> {
        self.snapshot()
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
    use crate::predicate::Predicate;
    use crate::query::{XSpec, YSpec};
    use crate::table::{Field, Schema, TableBuilder};
    use crate::value::{DataType, Value};

    fn db() -> ScanDb {
        let schema = Schema::new(vec![
            Field::new("year", DataType::Int),
            Field::new("product", DataType::Cat),
            Field::new("sales", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for (y, p, s) in [
            (2014, "chair", 10.0),
            (2015, "chair", 20.0),
            (2014, "desk", 7.0),
            (2015, "desk", 9.0),
        ] {
            b.push_row(vec![Value::Int(y), Value::str(p), Value::Float(s)])
                .unwrap();
        }
        // The fixture is 4 rows: disable cost-based admission so the
        // cache-behaviour tests below still exercise warm hits.
        ScanDb::with_config(
            b.finish_shared(),
            ScanDbConfig {
                cache: CacheConfig::admit_all(),
                ..Default::default()
            },
        )
    }

    #[test]
    fn always_scans_all_rows() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("product", "desk"));
        let before = db.stats().snapshot();
        let rt = db.execute(&q).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(delta.rows_scanned, 4, "scan engine visits every row");
        assert_eq!(rt.groups[0].ys[0], vec![7.0, 9.0]);
    }

    #[test]
    fn grouped_output_matches_expectation() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product");
        let rt = db.execute(&q).unwrap();
        assert_eq!(rt.groups.len(), 2);
        let chair = rt.group(&[Value::str("chair")]).unwrap();
        assert_eq!(chair.ys[0], vec![10.0, 20.0]);
    }

    #[test]
    fn warm_request_skips_the_scan() {
        let db = db();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product");
        let cold = db.run_request(std::slice::from_ref(&q)).unwrap();
        let before = db.stats().snapshot();
        let warm = db.run_request(std::slice::from_ref(&q)).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(cold, warm);
        assert_eq!(delta.rows_scanned, 0, "warm repeat must not scan");
        assert_eq!(delta.queries, 0);
        assert_eq!(delta.cache_hits, 1);
    }

    #[test]
    fn append_refreshes_results_and_version() {
        let db = db();
        let v0 = db.table().version();
        let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
        let before = db.run_request(std::slice::from_ref(&q)).unwrap();
        assert_eq!(before[0].groups[0].ys[0], vec![17.0, 29.0]);
        db.append_rows(&[vec![
            Value::Int(2014),
            Value::str("lamp"),
            Value::Float(3.0),
        ]])
        .unwrap();
        assert!(db.table().version() > v0);
        assert_eq!(db.table().num_rows(), 5);
        let after = db.run_request(std::slice::from_ref(&q)).unwrap();
        assert_eq!(
            after[0].groups[0].ys[0],
            vec![20.0, 29.0],
            "post-append request must see the new row, not the cached result"
        );
    }
}
