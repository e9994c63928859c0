//! Cancellation semantics, end to end: a cancelled query must stop
//! scanning promptly (strictly before visiting the whole table), return
//! `StorageError::Cancelled`, and leave the result cache **bit-for-bit
//! identical** to the query never having run — contents, byte
//! accounting, insert/evict counters, and table version.
//!
//! The deterministic mid-scan trigger is the ctx's row budget
//! (`QueryCtx::with_row_budget`): the scan records progress as it
//! visits rows, the ctx trips itself at the budget, and the next
//! cancellation point (morsel claim / chunk boundary) observes it — no
//! timing, no flakes. One test also drives a genuinely asynchronous
//! cross-thread cancel against a live 1M-row scan.

use proptest::prelude::*;
use std::sync::Arc;
use zv_storage::cache::CacheStats;
use zv_storage::exec::{
    aggregate_ctx, aggregate_morsel_ctx, compile_pred, ParallelConfig, RowSource, CHUNK_ROWS,
    MORSEL_ROWS,
};
use zv_storage::{
    Atom, BitmapDb, BitmapDbConfig, CacheConfig, CancelReason, CmpOp, Column, DataType, Database,
    Field, GroupStrategy, QueryCtx, RoaringBitmap, ScanDb, ScanDbConfig, Schema, StorageError,
    Table, TableBuilder, Value, XSpec, YSpec,
};
use zv_storage::{Predicate, SelectQuery};

const MILLION: usize = 1_000_000;

/// A 1M-row table built columnarly (cheap even in debug builds): a
/// 37-ary group key and an exactly-representable measure.
fn million_row_table() -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("key", DataType::Int),
        Field::new("val", DataType::Float),
    ]);
    let keys: Vec<i64> = (0..MILLION).map(|i| (i % 37) as i64).collect();
    let vals: Vec<f64> = (0..MILLION).map(|i| (i % 1013) as f64 * 0.25).collect();
    Arc::new(
        Table::from_columns(
            schema,
            vec![Column::Int(keys.into()), Column::Float(vals.into())],
        )
        .unwrap(),
    )
}

fn groupby() -> SelectQuery {
    SelectQuery::new(XSpec::raw("key"), vec![YSpec::sum("val")])
}

/// Cache fields that must be unaffected by a cancelled query. (Lookup
/// counters like hits/misses may move — a cancelled *request* aborts
/// before probing, but a budget-cancelled scan was admitted as a miss
/// first; what matters is that no *state* changed.)
fn cache_state(stats: &CacheStats) -> (usize, usize, u64, u64, u64) {
    (
        stats.entries,
        stats.bytes,
        stats.insertions,
        stats.evictions,
        stats.invalidations,
    )
}

/// The acceptance scenario: a 1M-row morsel scan cancelled mid-flight
/// stops within a bounded number of claims, returns
/// `StorageError::Cancelled`, and leaves the cache byte-identical.
#[test]
fn morsel_scan_cancelled_mid_flight_stops_early() {
    let db = ScanDb::with_config(
        million_row_table(),
        ScanDbConfig {
            parallel: ParallelConfig {
                threads: 2,
                min_parallel_rows: 0,
                ..Default::default()
            },
            cache: CacheConfig::admit_all(),
            ..Default::default()
        },
    );
    let q = groupby();

    // Warm an unrelated entry so "cache unchanged" is not vacuous.
    let warm = SelectQuery::new(XSpec::raw("key"), vec![YSpec::avg("val")]);
    db.run_request(std::slice::from_ref(&warm)).unwrap();
    let cache_before = cache_state(&db.cache_stats().unwrap());
    let version_before = db.table().version();
    let stats_before = db.stats().snapshot();

    const BUDGET: u64 = 100_000;
    let ctx = QueryCtx::new().with_row_budget(BUDGET);
    let err = db
        .run_request_ctx(std::slice::from_ref(&q), &ctx)
        .expect_err("budget-cancelled scan must fail");
    assert_eq!(err, StorageError::Cancelled);

    let progress = ctx.stats();
    assert!(progress.cancelled);
    assert_eq!(progress.reason, Some(CancelReason::RowBudget));
    assert!(
        progress.rows_scanned >= BUDGET,
        "the budget itself was reached"
    );
    assert!(
        progress.rows_scanned < MILLION as u64,
        "the scan stopped strictly early ({} of {MILLION} rows)",
        progress.rows_scanned
    );
    assert!(
        progress.morsels_cancelled > 0,
        "the claim loop abandoned the remaining morsels"
    );

    let delta = db.stats().snapshot().since(&stats_before);
    assert_eq!(delta.queries_cancelled, 1);
    assert_eq!(delta.morsels_cancelled, progress.morsels_cancelled);
    assert_eq!(
        cache_state(&db.cache_stats().unwrap()),
        cache_before,
        "a cancelled query must not perturb the cache"
    );
    assert_eq!(db.table().version(), version_before);

    // The real run afterwards is a full fresh scan (nothing partial was
    // cached) and produces the correct result.
    let reference = ScanDb::with_config(db.table(), ScanDbConfig::uncached())
        .execute(&q)
        .unwrap();
    let before_real = db.stats().snapshot();
    let real = db.run_request(std::slice::from_ref(&q)).unwrap();
    let real_delta = db.stats().snapshot().since(&before_real);
    assert_eq!(*real[0], reference);
    assert_eq!(
        real_delta.cache_misses, 1,
        "the cancelled attempt must not have left a servable entry"
    );
    assert_eq!(real_delta.rows_scanned, MILLION as u64);
}

/// The serial scan observes the ctx between chunks.
#[test]
fn serial_scan_cancels_between_chunks() {
    let db = ScanDb::with_config(
        million_row_table(),
        ScanDbConfig {
            parallel: ParallelConfig {
                threads: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let ctx = QueryCtx::new().with_row_budget(50_000);
    let err = db.execute_ctx(&groupby(), &ctx).unwrap_err();
    assert_eq!(err, StorageError::Cancelled);
    let progress = ctx.stats();
    assert!(
        progress.rows_scanned < MILLION as u64,
        "serial scan stopped early ({} rows)",
        progress.rows_scanned
    );
    assert_eq!(db.stats().snapshot().queries_cancelled, 1);
}

/// Whatever scheduling the environment forces (CI's matrix runs this
/// suite under serial and morsel×2), the default-config engine cancels.
#[test]
fn default_config_scan_cancels_under_any_scheduling() {
    let db = BitmapDb::new(million_row_table());
    let ctx = QueryCtx::new().with_row_budget(80_000);
    let err = db.execute_ctx(&groupby(), &ctx).unwrap_err();
    assert_eq!(err, StorageError::Cancelled);
    assert!(ctx.stats().rows_scanned < MILLION as u64);
}

/// A cancelled `BitmapFiltered` scan stops between windows. The bitmap
/// holds every 37th row of the million-row table (at most 111 members
/// per 4096-row window) and the residual filters on `val`. Once the row
/// budget trips, each scanning worker finishes at most the window it is
/// in — serially, and with two workers claiming bitmap morsels.
#[test]
fn bitmap_filtered_scan_cancels_between_windows() {
    let table = million_row_table();
    let bm: RoaringBitmap = (0..MILLION as u32).step_by(37).collect();
    let residual = Predicate::atom(Atom::NumCmp {
        col: "val".into(),
        op: CmpOp::Ge,
        value: 10.0,
    });
    let per_window = CHUNK_ROWS.div_ceil(37) as u64;
    const BUDGET: u64 = 5_000;
    for workers in [1u64, 2] {
        let source = RowSource::BitmapFiltered {
            rows: bm.clone(),
            pred: compile_pred(&table, &residual).unwrap(),
        };
        let ctx = QueryCtx::new().with_row_budget(BUDGET);
        let err = if workers == 1 {
            aggregate_ctx(&table, &groupby(), &source, GroupStrategy::Dense, &ctx).map(|_| ())
        } else {
            aggregate_morsel_ctx(
                &table,
                &groupby(),
                &source,
                GroupStrategy::Dense,
                2,
                MORSEL_ROWS,
                &ctx,
            )
            .map(|_| ())
        }
        .unwrap_err();
        assert_eq!(err, StorageError::Cancelled);
        let visited = ctx.stats().rows_scanned;
        assert_eq!(ctx.stats().reason, Some(CancelReason::RowBudget));
        assert!(
            (BUDGET..BUDGET + workers * per_window).contains(&visited),
            "{workers} worker(s) visited {visited} rows for a budget of {BUDGET}"
        );
    }
}

/// An already-expired deadline cancels before a single row is visited.
#[test]
fn expired_deadline_cancels_without_scanning() {
    let db = ScanDb::new(million_row_table());
    let ctx = QueryCtx::new().with_deadline(std::time::Duration::ZERO);
    let err = db
        .run_request_ctx(std::slice::from_ref(&groupby()), &ctx)
        .unwrap_err();
    assert_eq!(err, StorageError::Cancelled);
    assert_eq!(ctx.stats().rows_scanned, 0);
    assert_eq!(ctx.cancel_reason(), Some(CancelReason::Deadline));
    assert_eq!(db.stats().snapshot().queries_cancelled, 1);
}

/// A genuinely asynchronous cancel: another thread flips the token
/// while the 1M-row scan is in flight.
#[test]
fn cross_thread_cancel_lands_mid_scan() {
    let db = ScanDb::with_config(
        million_row_table(),
        ScanDbConfig {
            parallel: ParallelConfig {
                threads: 2,
                min_parallel_rows: 0,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let ctx = QueryCtx::new();
    let result = std::thread::scope(|s| {
        let handle = s.spawn(|| db.execute_ctx(&groupby(), &ctx));
        // Wait until the scan is demonstrably running, then cancel.
        while ctx.stats().rows_scanned == 0 && !handle.is_finished() {
            std::hint::spin_loop();
        }
        ctx.cancel();
        handle.join().expect("scan thread")
    });
    // (On an absurdly fast machine the scan could finish before the
    // cancel lands; everywhere realistic the budgetless 1M debug scan
    // is orders of magnitude slower than the spin loop.)
    match result {
        Err(StorageError::Cancelled) => {
            assert!(ctx.stats().rows_scanned < MILLION as u64, "stopped early");
        }
        Ok(_) => {
            assert_eq!(ctx.stats().rows_scanned, MILLION as u64);
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// Exact bookkeeping under concurrency: many threads share one engine,
/// some cancelling, some completing; `queries_cancelled` must equal the
/// number of `Cancelled` results observed.
#[test]
fn concurrent_cancellation_bookkeeping_is_exact() {
    let db: Arc<BitmapDb> = Arc::new(BitmapDb::with_config(
        million_row_table(),
        BitmapDbConfig {
            parallel: ParallelConfig {
                threads: 2,
                min_parallel_rows: 0,
                ..Default::default()
            },
            ..Default::default()
        },
    ));
    let base = db.stats().snapshot();
    let outcomes: Vec<bool> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    // Distinct predicate per worker: no cross-thread
                    // cache interference.
                    let q = SelectQuery::new(XSpec::raw("key"), vec![YSpec::sum("val")])
                        .with_predicate(Predicate::num_eq("key", (i % 5) as f64));
                    let ctx = if i % 2 == 0 {
                        let ctx = QueryCtx::new();
                        ctx.cancel();
                        ctx
                    } else {
                        QueryCtx::new()
                    };
                    matches!(
                        db.run_request_ctx(std::slice::from_ref(&q), &ctx),
                        Err(StorageError::Cancelled)
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let observed_cancels = outcomes.iter().filter(|&&c| c).count() as u64;
    assert_eq!(observed_cancels, 4, "the pre-cancelled half");
    let delta = db.stats().snapshot().since(&base);
    assert_eq!(delta.queries_cancelled, observed_cancels);
}

// ---------------------------------------------------------------------
// Property: cancellation is invisible to the cache
// ---------------------------------------------------------------------

fn build_table(rows: &[(i64, u8, i16)]) -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("year", DataType::Int),
        Field::new("product", DataType::Cat),
        Field::new("sales", DataType::Float),
    ]);
    let mut b = TableBuilder::new(schema);
    for &(y, p, s) in rows {
        b.push_row(vec![
            Value::Int(y),
            Value::str(format!("p{p}")),
            // Exact dyadic measures: bit-for-bit equality is valid.
            Value::Float(s as f64 * 0.25),
        ])
        .unwrap();
    }
    b.finish_shared()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random tables and warm-up workloads, a cancelled query —
    /// whether aborted before the cache probe (pre-cancelled request)
    /// or mid-scan (row budget) — leaves cache contents, byte
    /// accounting, state counters, and the table version bit-for-bit
    /// identical to the query never having run; the query re-run for
    /// real afterwards returns exactly the reference result.
    #[test]
    fn cancelled_query_is_invisible_to_the_cache(
        rows in prop::collection::vec((2010i64..2016, 0u8..5, -200i16..200), 1..160),
        warm_z in any::<bool>(),
    ) {
        let table = build_table(&rows);
        let db = BitmapDb::with_config(
            table.clone(),
            BitmapDbConfig { cache: CacheConfig::admit_all(), ..Default::default() },
        );
        // Warm the cache with a related-but-different query.
        let mut warm = SelectQuery::new(XSpec::raw("year"), vec![YSpec::avg("sales")]);
        if warm_z {
            warm = warm.with_z("product");
        }
        db.run_request(std::slice::from_ref(&warm)).unwrap();

        let target = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_z("product");
        let before = cache_state(&db.cache_stats().unwrap());
        let version = db.table().version();

        // 1. Cancelled before anything happens.
        let pre = QueryCtx::new();
        pre.cancel();
        prop_assert_eq!(
            db.run_request_ctx(std::slice::from_ref(&target), &pre).unwrap_err(),
            StorageError::Cancelled
        );
        prop_assert_eq!(cache_state(&db.cache_stats().unwrap()), before);

        // 2. Cancelled mid-scan (the budget trips on the first rows
        //    recorded — the table is non-empty and the predicate true).
        let mid = QueryCtx::new().with_row_budget(1);
        prop_assert_eq!(
            db.run_request_ctx(std::slice::from_ref(&target), &mid).unwrap_err(),
            StorageError::Cancelled
        );
        prop_assert!(mid.stats().cancelled);
        prop_assert_eq!(cache_state(&db.cache_stats().unwrap()), before);
        prop_assert_eq!(db.table().version(), version);

        // 3. Run for real: exact reference result, served by a fresh
        //    full scan (nothing partial was retained).
        let reference = BitmapDb::with_config(
            table.clone(), BitmapDbConfig::uncached(),
        ).execute(&target).unwrap();
        let real = db.run_request(std::slice::from_ref(&target)).unwrap();
        prop_assert_eq!(&*real[0], &reference);
        let after = cache_state(&db.cache_stats().unwrap());
        prop_assert_eq!(after.2, before.2 + 1, "exactly one fresh insertion");
    }
}

/// A batch whose first query is answerable by derivation and whose
/// second is cancelled mid-scan: the derivation probe must not have
/// committed anything — the cache stays bit-identical (regression for
/// the derived-insert-before-batch-commit hole).
#[test]
fn cancelled_batch_defers_derived_inserts() {
    let db = ScanDb::with_config(
        million_row_table(),
        ScanDbConfig {
            parallel: ParallelConfig {
                threads: 2,
                min_parallel_rows: 0,
                ..Default::default()
            },
            cache: CacheConfig::admit_all(),
            ..Default::default()
        },
    );
    // Warm a superset entry: (key, sum val) group-by over everything.
    let superset = SelectQuery::new(XSpec::raw("key"), vec![YSpec::sum("val")]).with_z("key");
    db.run_request(std::slice::from_ref(&superset)).unwrap();
    let before = cache_state(&db.cache_stats().unwrap());

    // Batch: a slice derivable from the superset + a scan that the row
    // budget cancels mid-flight.
    let derivable = SelectQuery::new(XSpec::raw("key"), vec![YSpec::sum("val")])
        .with_predicate(Predicate::num_eq("key", 3.0));
    let heavy = SelectQuery::new(XSpec::raw("key"), vec![YSpec::avg("val")]);
    let ctx = QueryCtx::new().with_row_budget(50_000);
    let err = db
        .run_request_ctx(&[derivable.clone(), heavy], &ctx)
        .expect_err("the heavy half cancels the batch");
    assert_eq!(err, StorageError::Cancelled);
    assert_eq!(
        cache_state(&db.cache_stats().unwrap()),
        before,
        "a cancelled batch must not commit its derived probe"
    );

    // Committed requests still make derived answers exact entries.
    let stats_before = db.stats().snapshot();
    db.run_request(std::slice::from_ref(&derivable)).unwrap();
    let delta = db.stats().snapshot().since(&stats_before);
    assert_eq!(delta.cache_derived_hits, 1, "derivation still answers");
    let after = cache_state(&db.cache_stats().unwrap());
    assert_eq!(after.2, before.2 + 1, "committed derived insert landed");
    let stats_before = db.stats().snapshot();
    db.run_request(std::slice::from_ref(&derivable)).unwrap();
    let delta = db.stats().snapshot().since(&stats_before);
    assert_eq!(delta.cache_hits, 1, "repeat is now an exact hit");
}
