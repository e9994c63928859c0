//! Chaos suite: deterministic fault injection against real scans.
//!
//! Every test here leans on the purity of [`FaultSpec::fires`]: a fault
//! decision depends only on `(seed, point, index, epoch)`, so the test
//! *replays* the decisions the engine is about to make and asserts the
//! exact outcome — which morsel panics, whether the fan-out fails to
//! spawn, whether a cache insert is dropped. No sleeps, no retries-until
//! -it-happens, no flakes.
//!
//! The invariants under test (ROADMAP: fault isolation):
//!
//! * a panicking worker fails its own query cleanly
//!   (`StorageError::WorkerPanicked`) and nothing else — siblings stop,
//!   partials are dropped, the pool survives;
//! * a failed query leaves the result cache bit-for-bit as if it never
//!   ran;
//! * a retried query (advanced fault epoch) that lands on a clean epoch
//!   returns bit-for-bit the fault-free reference result;
//! * the serial path has no injection points, so degrading to serial
//!   always serves;
//! * poisoned locks (table, cache) recover instead of cascading.
//!
//! CI's chaos leg re-runs this suite with `ZV_FAULT_SEED` /
//! `ZV_FAULT_RATE` set; [`env_or_default_spec`] picks those up so the
//! same assertions hold under whatever seed the matrix forces.

use proptest::prelude::*;
use std::sync::Arc;
use zv_storage::cache::CacheStats;
use zv_storage::exec::ParallelConfig;
use zv_storage::fault::{self, FaultPoint, FaultSpec, PANIC_MARKER};
use zv_storage::{
    BitmapDb, BitmapDbConfig, CacheConfig, Column, DataType, Database, Field, QueryCtx, ScanDb,
    ScanDbConfig, Schema, SelectQuery, StorageError, Table, XSpec, YSpec,
};

const MILLION: usize = 1_000_000;

/// The 1M-row acceptance table (columnar build: cheap in debug): a
/// 37-ary group key and exactly-representable dyadic measures, so every
/// result comparison below is valid bit-for-bit.
fn million_row_table() -> Arc<Table> {
    static TABLE: std::sync::OnceLock<Arc<Table>> = std::sync::OnceLock::new();
    TABLE
        .get_or_init(|| {
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
        })
        .clone()
}

/// A smaller table for the per-case proptest work.
fn small_table() -> Arc<Table> {
    static TABLE: std::sync::OnceLock<Arc<Table>> = std::sync::OnceLock::new();
    TABLE
        .get_or_init(|| {
            let n = 65_536;
            let schema = Schema::new(vec![
                Field::new("key", DataType::Int),
                Field::new("val", DataType::Float),
            ]);
            let keys: Vec<i64> = (0..n).map(|i| (i % 23) as i64).collect();
            let vals: Vec<f64> = (0..n).map(|i| (i % 577) as f64 * 0.5).collect();
            Arc::new(
                Table::from_columns(
                    schema,
                    vec![Column::Int(keys.into()), Column::Float(vals.into())],
                )
                .unwrap(),
            )
        })
        .clone()
}

fn groupby() -> SelectQuery {
    SelectQuery::new(XSpec::raw("key"), vec![YSpec::sum("val")])
}

/// The spec CI's chaos leg forces via the environment, or a fixed
/// ~15%-rate default so the suite is chaotic even in a plain `cargo
/// test`.
fn env_or_default_spec() -> FaultSpec {
    let env = FaultSpec::from_env();
    if env.is_enabled() {
        env
    } else {
        FaultSpec::with_rate(0xC0FFEE, 0.15)
    }
}

/// Fault-free reference engine over `table`: env-forced scheduling
/// still applies, but injection is explicitly disabled — the reference
/// must be the never-faulted answer even when CI's chaos leg arms
/// `ZV_FAULT_*` process-wide (which both engines' *default* configs
/// would otherwise pick up).
fn reference_db(table: Arc<Table>) -> ScanDb {
    let mut cfg = ScanDbConfig::uncached();
    cfg.parallel.fault = FaultSpec::disabled();
    ScanDb::with_config(table, cfg)
}

fn chaos_parallel(spec: FaultSpec, threads: usize, morsel_rows: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        min_parallel_rows: 0,
        morsel_rows,
        fault: spec,
    }
}

/// Replay of the engine's decision: the morsel the scan will panic on
/// (the cursor hands morsels out in index order, so the lowest firing
/// index always gets scanned and wins attribution).
fn lowest_firing(spec: &FaultSpec, n_morsels: usize, epoch: u64) -> Option<u64> {
    (0..n_morsels as u64).find(|&m| spec.fires(FaultPoint::ChunkScanPanic, m, epoch))
}

fn spawn_fires(spec: &FaultSpec, n_morsels: usize, epoch: u64) -> bool {
    spec.fires(FaultPoint::WorkerSpawn, n_morsels as u64, epoch)
}

/// Will a parallel attempt at `epoch` fail?
fn attempt_fails(spec: &FaultSpec, n_morsels: usize, epoch: u64) -> bool {
    spawn_fires(spec, n_morsels, epoch) || lowest_firing(spec, n_morsels, epoch).is_some()
}

/// Cache fields that must be unaffected by a failed query.
fn cache_state(stats: &CacheStats) -> (usize, usize, u64, u64, u64) {
    (
        stats.entries,
        stats.bytes,
        stats.insertions,
        stats.evictions,
        stats.invalidations,
    )
}

/// The acceptance scenario: a 1M-row morsel scan under 4 workers with
/// double-digit-percent injected faults. The failure is predicted
/// exactly (spawn failure vs. lowest panicking morsel), bookkeeping is
/// exact, the cache is bit-identical to the query never having run, and
/// the engine keeps serving (the serial path has no injection points).
#[test]
fn injected_worker_panics_fail_cleanly_and_engine_keeps_serving() {
    fault::silence_injected_panics();
    let spec = env_or_default_spec();
    let morsel_rows = 4096;
    let n_morsels = MILLION.div_ceil(morsel_rows);
    let db = ScanDb::with_config(
        million_row_table(),
        ScanDbConfig {
            parallel: chaos_parallel(spec, 4, morsel_rows),
            cache: CacheConfig::admit_all(),
            ..Default::default()
        },
    );
    let reference = reference_db(db.table()).execute(&groupby()).unwrap();

    // Warm an unrelated entry through the fault-free serial path so
    // "cache unchanged" is not vacuous (its insert may itself be
    // dropped by an injected cache fault — either way we snapshot the
    // resulting state).
    let warm = SelectQuery::new(XSpec::raw("key"), vec![YSpec::avg("val")]);
    let warm_ctx = QueryCtx::new();
    warm_ctx.force_serial();
    db.run_request_ctx(std::slice::from_ref(&warm), &warm_ctx)
        .unwrap();
    let cache_before = cache_state(&db.cache_stats().unwrap());
    let before = db.stats().snapshot();

    let ctx = QueryCtx::new();
    let result = db.run_request_ctx(std::slice::from_ref(&groupby()), &ctx);
    let delta = db.stats().snapshot().since(&before);

    if spawn_fires(&spec, n_morsels, 0) {
        let err = result.expect_err("predicted spawn failure");
        assert!(
            matches!(&err, StorageError::ResourceExhausted(_)),
            "got {err:?}"
        );
        assert!(err.is_transient());
        assert_eq!(delta.worker_panics, 0, "a spawn failure is not a panic");
    } else if let Some(expected_morsel) = lowest_firing(&spec, n_morsels, 0) {
        match result.expect_err("predicted worker panic") {
            StorageError::WorkerPanicked { payload, morsel } => {
                assert_eq!(morsel, expected_morsel, "lowest firing morsel wins");
                assert!(payload.contains(PANIC_MARKER), "payload: {payload}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(
            delta.worker_panics, 1,
            "one failed attempt, however many workers panicked"
        );
    } else {
        // An env-forced spec may fire nothing on this epoch: then the
        // scan must simply succeed with the exact reference result.
        assert_eq!(*result.expect("predicted clean run")[0], reference);
    }
    assert_eq!(
        cache_state(&db.cache_stats().unwrap()),
        cache_before,
        "a failed query must leave the cache bit-for-bit untouched"
    );

    // Degrade refuge: the serial path carries no injection points, so
    // the engine always still serves — exactly the reference result.
    let serial = QueryCtx::new();
    serial.force_serial();
    let served = db
        .run_request_ctx(std::slice::from_ref(&groupby()), &serial)
        .unwrap();
    assert_eq!(*served[0], reference);
}

/// A retried query (fault epoch advanced, as `zv-server` does between
/// attempts) that reaches a clean epoch returns bit-for-bit the
/// fault-free reference — and every intermediate attempt's outcome is
/// predicted exactly.
#[test]
fn retried_query_matches_fault_free_reference() {
    fault::silence_injected_panics();
    let spec = env_or_default_spec();
    // Few, large morsels: the chance that *some* epoch is clean stays
    // high even at double-digit fault rates.
    let morsel_rows = 1 << 17;
    let n_morsels = MILLION.div_ceil(morsel_rows);
    let db = ScanDb::with_config(
        million_row_table(),
        ScanDbConfig {
            parallel: chaos_parallel(spec, 4, morsel_rows),
            cache: CacheConfig::admit_all(),
            ..Default::default()
        },
    );
    let reference = reference_db(db.table()).execute(&groupby()).unwrap();

    let ctx = QueryCtx::new();
    let mut attempts = 0u32;
    let result = loop {
        let epoch = ctx.fault_epoch();
        let predicted_fail = attempt_fails(&spec, n_morsels, epoch);
        let r = db.run_request_ctx(std::slice::from_ref(&groupby()), &ctx);
        assert_eq!(
            r.is_err(),
            predicted_fail,
            "replayed decision must match attempt at epoch {epoch}"
        );
        if let Err(e) = &r {
            assert!(e.is_transient(), "injected failures are transient: {e:?}");
        } else {
            break r;
        }
        attempts += 1;
        if attempts > 300 {
            // An env-forced rate near 1.0 never yields a clean epoch;
            // the degrade path must still serve.
            ctx.force_serial();
            break db.run_request_ctx(std::slice::from_ref(&groupby()), &ctx);
        }
        ctx.advance_fault_epoch();
    };
    assert_eq!(
        *result.expect("clean epoch or serial fallback")[0],
        reference,
        "a retried query is bit-for-bit the never-faulted result"
    );
}

/// An injected worker-spawn failure surfaces as transient
/// `ResourceExhausted` before any worker runs — no panic is recorded
/// and the cache is untouched.
#[test]
fn injected_spawn_failure_is_transient_resource_exhaustion() {
    fault::silence_injected_panics();
    let morsel_rows = 1 << 17;
    let n_morsels = MILLION.div_ceil(morsel_rows);
    // Search (deterministically) for a seed where the fan-out fails but
    // no morsel would panic — isolating the spawn point.
    let seed = (1u64..)
        .find(|&sd| {
            let s = FaultSpec::with_rate(sd, 0.1);
            spawn_fires(&s, n_morsels, 0) && lowest_firing(&s, n_morsels, 0).is_none()
        })
        .unwrap();
    let spec = FaultSpec::with_rate(seed, 0.1);
    let db = ScanDb::with_config(
        million_row_table(),
        ScanDbConfig {
            parallel: chaos_parallel(spec, 4, morsel_rows),
            cache: CacheConfig::admit_all(),
            ..Default::default()
        },
    );
    let cache_before = cache_state(&db.cache_stats().unwrap());
    let before = db.stats().snapshot();
    let err = db
        .run_request_ctx(std::slice::from_ref(&groupby()), &QueryCtx::new())
        .expect_err("spawn must fail");
    match &err {
        StorageError::ResourceExhausted(msg) => {
            assert!(msg.contains("spawn"), "message: {msg}")
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    assert!(err.is_transient());
    let delta = db.stats().snapshot().since(&before);
    assert_eq!(delta.worker_panics, 0);
    assert_eq!(delta.rows_scanned, 0, "failed before any worker scanned");
    assert_eq!(cache_state(&db.cache_stats().unwrap()), cache_before);
}

/// Injected cache-insert failures drop the insert, never the query: the
/// result is still exact, the cache just stays cold.
#[test]
fn injected_cache_faults_fail_inserts_not_queries() {
    let spec = FaultSpec::with_rate(77, 1.0);
    let db = ScanDb::with_config(
        small_table(),
        ScanDbConfig {
            // Serial scans only (no scan injection points): the spec
            // reaches the cache alone.
            parallel: ParallelConfig {
                threads: 1,
                min_parallel_rows: usize::MAX,
                fault: spec,
                ..Default::default()
            },
            cache: CacheConfig::admit_all(),
            ..Default::default()
        },
    );
    let reference = reference_db(db.table()).execute(&groupby()).unwrap();
    let before = db.stats().snapshot();
    for _ in 0..2 {
        let out = db.run_request(std::slice::from_ref(&groupby())).unwrap();
        assert_eq!(*out[0], reference, "queries succeed despite cache faults");
    }
    let delta = db.stats().snapshot().since(&before);
    assert_eq!(delta.cache_hits, 0, "nothing was ever admitted to hit on");
    assert_eq!(delta.cache_misses, 2);
    let cache = db.cache_stats().unwrap();
    assert_eq!(cache.entries, 0);
    assert_eq!(cache.insertions, 0);
    assert_eq!(cache.insert_faults, 2, "both inserts dropped by injection");
}

/// Satellite: injected mid-derive failures (the carried-over ROADMAP
/// chaos item). A probe that *would* have answered an exact miss by
/// deriving from a cached superset abandons the plan instead: the
/// direct probe leaves the cache bit-untouched, and the full request
/// path falls back to a real scan and still returns the exact
/// reference answer.
#[test]
fn injected_derive_faults_fall_back_to_a_real_scan() {
    // Replayable decision stream: both derivation attempts below (the
    // direct probe at index 0, the request-path probe at index 1) must
    // fault, while the superset's CacheInsert at index 0 must land —
    // the per-point salts make such seeds dense.
    let spec = (0..10_000u64)
        .map(|sd| FaultSpec::with_rate(sd, 0.5))
        .find(|s| {
            s.fires(FaultPoint::CacheDerive, 0, 0)
                && s.fires(FaultPoint::CacheDerive, 1, 0)
                && !s.fires(FaultPoint::CacheInsert, 0, 0)
        })
        .expect("a derive-fails/insert-lands seed exists");
    let db = ScanDb::with_config(
        small_table(),
        ScanDbConfig {
            // Serial scans only (no scan injection points): the spec
            // reaches the cache alone.
            parallel: ParallelConfig {
                threads: 1,
                min_parallel_rows: usize::MAX,
                fault: spec,
                ..Default::default()
            },
            cache: CacheConfig::admit_all(),
            ..Default::default()
        },
    );
    let slice = groupby().with_predicate(zv_storage::Predicate::num_eq("key", 3.0));
    let reference = reference_db(db.table()).execute(&slice).unwrap();
    let rows = db.table().num_rows() as u64;

    // Warm the superset entry the slice would derive from.
    db.run_request(std::slice::from_ref(&groupby())).unwrap();
    let cache = db.result_cache().expect("cache enabled");
    assert_eq!(cache.stats().entries, 1, "superset insert must land");

    // Direct probe: the derivation is abandoned mid-plan — a plain
    // miss, and the cache is bit-identical apart from the fault count.
    let key = zv_storage::CacheKey::new(db.name(), db.table().version(), &slice);
    let before = cache.stats();
    assert!(cache.lookup_derived(&key).is_none());
    let after = cache.stats();
    assert_eq!(after.derive_faults, 1);
    assert_eq!(
        CacheStats {
            derive_faults: before.derive_faults,
            ..after
        },
        before,
        "an abandoned derivation must leave the cache bit-untouched"
    );

    // Full request path: same abandoned derivation, so the query pays
    // a real scan — and still returns the exact reference answer.
    let scanned_before = db.stats().snapshot();
    let out = db.run_request(std::slice::from_ref(&slice)).unwrap();
    assert_eq!(*out[0], reference);
    let delta = db.stats().snapshot().since(&scanned_before);
    assert_eq!(delta.rows_scanned, rows, "fallback is a full real scan");
    assert_eq!(delta.cache_hits, 0);
    assert_eq!(cache.stats().derive_faults, 2);

    // Same shape, injection disarmed: the slice is answered by
    // derivation without scanning a row.
    let clean = ScanDb::with_config(
        small_table(),
        ScanDbConfig {
            parallel: ParallelConfig {
                threads: 1,
                min_parallel_rows: usize::MAX,
                fault: FaultSpec::disabled(),
                ..Default::default()
            },
            cache: CacheConfig::admit_all(),
            ..Default::default()
        },
    );
    clean.run_request(std::slice::from_ref(&groupby())).unwrap();
    let scanned_before = clean.stats().snapshot();
    let out = clean.run_request(std::slice::from_ref(&slice)).unwrap();
    assert_eq!(*out[0], reference);
    let delta = clean.stats().snapshot().since(&scanned_before);
    assert_eq!(delta.rows_scanned, 0, "disarmed probe derives scan-free");
    assert_eq!(clean.cache_stats().unwrap().derived_hits, 1);
}

/// Injected per-morsel delays stretch the scan but never change its
/// result.
#[test]
fn injected_delays_do_not_change_results() {
    let morsel_rows = 4096;
    let n_morsels = small_table().num_rows().div_ceil(morsel_rows);
    // A seed where delays fire but no panic / spawn failure does.
    let seed = (1u64..)
        .find(|&sd| {
            let s = FaultSpec::with_rate(sd, 0.2);
            !attempt_fails(&s, n_morsels, 0)
                && (0..n_morsels as u64).any(|m| s.fires(FaultPoint::MorselDelay, m, 0))
        })
        .unwrap();
    let spec = FaultSpec {
        delay_us: 200,
        ..FaultSpec::with_rate(seed, 0.2)
    };
    let db = ScanDb::with_config(
        small_table(),
        ScanDbConfig {
            parallel: chaos_parallel(spec, 2, morsel_rows),
            ..Default::default()
        },
    );
    let reference = reference_db(db.table()).execute(&groupby()).unwrap();
    assert_eq!(db.execute(&groupby()).unwrap(), reference);
}

/// Satellite: in-morsel cooperative cancellation. With only two huge
/// morsels, a budget trip must be observed *inside* a claimed morsel —
/// if workers only checked at claim boundaries, both 500k-row morsels
/// would scan to completion.
#[test]
fn cancellation_is_observed_inside_a_claimed_morsel() {
    let db = ScanDb::with_config(
        million_row_table(),
        ScanDbConfig {
            parallel: ParallelConfig {
                threads: 2,
                min_parallel_rows: 0,
                morsel_rows: 500_000,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    const BUDGET: u64 = 100_000;
    let ctx = QueryCtx::new().with_row_budget(BUDGET);
    let err = db
        .run_request_ctx(std::slice::from_ref(&groupby()), &ctx)
        .expect_err("budget must cancel");
    assert_eq!(err, StorageError::Cancelled);
    let progress = ctx.stats();
    assert!(progress.rows_scanned >= BUDGET);
    assert!(
        progress.rows_scanned < 400_000,
        "the trip was observed mid-morsel, not at the next claim \
         ({} rows of {MILLION})",
        progress.rows_scanned
    );
    assert_eq!(
        progress.morsels_cancelled, 2,
        "both claimed-but-incomplete morsels count as abandoned"
    );
}

/// Satellite: deliberately poisoned locks. A panicking writer poisons
/// the table lock (both engines) and the cache lock; every subsequent
/// operation must recover — Arc-swap locks recover in place, the cache
/// rebuilds empty (it may forget, never lie).
#[test]
fn poisoned_table_and_cache_locks_recover() {
    fault::silence_injected_panics();
    let q2 = SelectQuery::new(XSpec::raw("key"), vec![YSpec::avg("val")]);

    // Poison recovery is the subject here, not injection: disable the
    // env-armed faults CI's chaos leg would otherwise feed the default
    // configs, so the post-poison queries deterministically succeed.
    let mut scfg = ScanDbConfig {
        cache: CacheConfig::admit_all(),
        ..Default::default()
    };
    scfg.parallel.fault = FaultSpec::disabled();
    let sdb = ScanDb::with_config(small_table(), scfg);
    let reference = reference_db(sdb.table()).execute(&q2).unwrap();
    sdb.run_request(std::slice::from_ref(&groupby())).unwrap();
    sdb.poison_table_lock_for_chaos();
    sdb.result_cache().unwrap().poison_for_chaos();
    let out = sdb.run_request(std::slice::from_ref(&q2)).unwrap();
    assert_eq!(*out[0], reference, "scan engine recovered from poison");
    let stats = sdb.cache_stats().unwrap();
    assert_eq!(stats.poison_rebuilds, 1, "cache rebuilt exactly once");

    let mut bcfg = BitmapDbConfig {
        cache: CacheConfig::admit_all(),
        ..Default::default()
    };
    bcfg.parallel.fault = FaultSpec::disabled();
    let bdb = BitmapDb::with_config(small_table(), bcfg);
    bdb.run_request(std::slice::from_ref(&groupby())).unwrap();
    bdb.poison_table_lock_for_chaos();
    bdb.result_cache().unwrap().poison_for_chaos();
    let out = bdb.run_request(std::slice::from_ref(&q2)).unwrap();
    assert_eq!(*out[0], reference, "bitmap engine recovered from poison");
    assert_eq!(bdb.cache_stats().unwrap().poison_rebuilds, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary seeds and rates, one fact never bends: the replay
    /// predicts the attempt's outcome exactly, a failed attempt leaves
    /// the cache untouched and books exactly one panic (when the
    /// failure *was* a panic), and the engine still serves the exact
    /// reference afterwards.
    #[test]
    fn any_seed_fails_predictably_and_engine_recovers(
        seed in 1u64..u64::MAX,
        rate in 0.05f64..0.5,
    ) {
        fault::silence_injected_panics();
        let spec = FaultSpec::with_rate(seed, rate);
        let morsel_rows = 4096;
        let n_morsels = small_table().num_rows().div_ceil(morsel_rows);
        let db = ScanDb::with_config(
            small_table(),
            ScanDbConfig {
                parallel: chaos_parallel(spec, 2, morsel_rows),
                cache: CacheConfig::admit_all(),
                ..Default::default()
            },
        );
        let reference = reference_db(db.table())
            .execute(&groupby())
            .unwrap();
        let cache_before = cache_state(&db.cache_stats().unwrap());
        let before = db.stats().snapshot();
        let result = db.run_request_ctx(std::slice::from_ref(&groupby()), &QueryCtx::new());
        let delta = db.stats().snapshot().since(&before);

        prop_assert_eq!(result.is_err(), attempt_fails(&spec, n_morsels, 0));
        match result {
            Ok(out) => prop_assert_eq!(&*out[0], &reference),
            Err(e) => {
                prop_assert!(e.is_transient());
                let expect_panic =
                    u64::from(!spawn_fires(&spec, n_morsels, 0));
                prop_assert_eq!(delta.worker_panics, expect_panic);
                prop_assert_eq!(
                    cache_state(&db.cache_stats().unwrap()),
                    cache_before
                );
            }
        }
        // Whatever happened, the engine keeps serving.
        let serial = QueryCtx::new();
        serial.force_serial();
        let served = db
            .run_request_ctx(std::slice::from_ref(&groupby()), &serial)
            .unwrap();
        prop_assert_eq!(&*served[0], &reference);
    }
}
