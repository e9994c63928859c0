//! Disk-fault chaos against the durable-storage subsystem
//! ([`zv_storage::persist`]), in the style of `tests/chaos.rs`: every
//! fault decision is a pure function of `(seed, point, index)`, so each
//! scenario's outcome is predicted or replayed exactly — two runs of
//! the same seed must produce byte-identical ledgers, and recovery
//! after any injected fault must serve exactly the committed state.
//!
//! CI's `persist-chaos` leg re-runs this suite with `ZV_FAULT_SEED` /
//! `ZV_FAULT_RATE` forced; [`env_or_default_spec`] picks those up. The
//! cold-start smoke (1M rows: dump, kill, reload, re-key) runs with the
//! rest of the suite.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use zv_storage::{
    CacheConfig, Column, DataType, Database, FaultPoint, FaultSpec, Field, PersistOptions,
    Persistence, QueryCtx, ScanDb, ScanDbConfig, Schema, SelectQuery, Table, Value, XSpec, YSpec,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "zv-persist-chaos-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// The spec CI's persist-chaos leg forces via the environment, or a
/// fixed double-digit-rate default so the suite is chaotic even in a
/// plain `cargo test`.
fn env_or_default_spec() -> FaultSpec {
    let env = FaultSpec::from_env();
    if env.is_enabled() {
        env
    } else {
        FaultSpec::with_rate(0xD15C_FA07, 0.15)
    }
}

fn base_table() -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("key", DataType::Int),
        Field::new("label", DataType::Cat),
        Field::new("val", DataType::Float),
    ]);
    let keys: Vec<i64> = (0..128).map(|i| (i % 11) as i64).collect();
    let vals: Vec<f64> = (0..128).map(|i| (i % 29) as f64 * 0.25).collect();
    let mut labels = zv_storage::CatColumn::new();
    for i in 0..128 {
        let code = labels.intern(["red", "green", "blue"][i % 3]);
        labels.push_code(code);
    }
    Arc::new(
        Table::from_columns(
            schema,
            vec![
                Column::Int(keys.into()),
                Column::Cat(labels),
                Column::Float(vals.into()),
            ],
        )
        .unwrap(),
    )
}

fn batch(k: usize) -> Vec<Vec<Value>> {
    (0..(k % 4) + 1)
        .map(|r| {
            vec![
                Value::Int((k * 31 + r) as i64 - 40),
                Value::str(["red", "amber", "blue"][(k + r) % 3]),
                Value::Float((k * 3 + r) as f64 * 0.5),
            ]
        })
        .collect()
}

/// Contents fingerprint (schema + every row, float bits via Debug) —
/// deterministic across runs, independent of process-unique versions.
fn data_fingerprint(t: &Table) -> String {
    let rows: Vec<String> = (0..t.num_rows())
        .map(|i| format!("{:?}", t.row(i)))
        .collect();
    // Fields, not the whole Schema: its name→index map is a HashMap
    // whose Debug order is not deterministic.
    format!("{:?}|{}", t.schema().fields(), rows.join(";"))
}

fn assert_tables_identical(got: &Table, want: &Table, what: &str) {
    assert_eq!(got.version(), want.version(), "{what}: version");
    assert_eq!(
        data_fingerprint(got),
        data_fingerprint(want),
        "{what}: data"
    );
}

/// The acceptance scenario: a long append run with double-digit-percent
/// injected disk faults (torn WAL tails, failed fsyncs, short snapshot
/// writes, rename-window crashes). Every failed append leaves the
/// committed state untouched, poisoning is fail-stop until a checkpoint
/// heals it, recovery after the run serves EXACTLY the committed
/// table — and the whole ledger replays byte-identically under the
/// same seed.
#[test]
fn injected_disk_faults_never_corrupt_the_durable_prefix_and_replay_exactly() {
    let spec = env_or_default_spec();

    let run = |tag: &str| -> Vec<String> {
        let mut ledger = Vec::new();
        let dir = temp_dir(tag);
        // Seed the directory fault-free so the scenario always starts
        // from a valid snapshot, whatever the armed seed does later.
        {
            let (persist, recovered) = Persistence::open(&dir, PersistOptions::default()).unwrap();
            assert!(recovered.is_none(), "fresh dir");
            persist.checkpoint(&base_table()).unwrap();
        }

        let (persist, recovered) = Persistence::open(&dir, PersistOptions { fault: spec }).unwrap();
        // `committed` mirrors what an engine would have made visible:
        // it only advances when the WAL fsync succeeded first.
        let mut committed = recovered.unwrap();
        for i in 0..40usize {
            let rows = batch(i);
            // Durability before visibility, exactly as the engines do:
            // stage the mutation, log it, commit only on success.
            let mut next = committed.clone();
            next.append_rows(&rows).unwrap();
            match persist.log_append(next.version(), next.schema(), &rows) {
                Ok(()) => {
                    committed = next;
                    ledger.push(format!("append {i}: ok ({} rows)", rows.len()));
                }
                Err(e) => ledger.push(format!("append {i}: {e}")),
            }
            if persist.wal_poisoned() {
                // Fail-stop: the next append must refuse until healed.
                let refused = persist
                    .log_append(committed.version() + 1, committed.schema(), &batch(i))
                    .unwrap_err();
                ledger.push(format!("append {i} while poisoned: {refused}"));
                match persist.checkpoint(&committed) {
                    Ok(_) => {
                        assert!(!persist.wal_poisoned(), "checkpoint lifts poisoning");
                        ledger.push(format!("heal {i}: checkpoint ok"));
                    }
                    Err(e) => {
                        assert!(persist.wal_poisoned(), "failed checkpoint must not heal");
                        ledger.push(format!("heal {i}: {e}"));
                    }
                }
            }
        }
        let stats = persist.stats();
        ledger.push(format!("stats: {stats:?}"));
        assert_eq!(
            stats.wal_appends + stats.wal_append_failures,
            40 + ledger
                .iter()
                .filter(|l| l.contains("while poisoned"))
                .count() as u64,
            "every append attempt is accounted for"
        );
        drop(persist);

        // Crash here. Recovery must serve exactly the committed state:
        // no torn row ever visible, no committed batch lost.
        let (persist, recovered) = Persistence::open(&dir, PersistOptions::default()).unwrap();
        let recovered = recovered.unwrap();
        assert_tables_identical(&recovered, &committed, "post-chaos recovery");
        let report = persist.recovery_report();
        ledger.push(format!(
            "recovery: frames={} rows={} stale={} torn={} corrupt_snaps={} tmp={}",
            report.frames_replayed,
            report.rows_replayed,
            report.stale_frames_skipped,
            report.torn_bytes_truncated,
            report.corrupt_snapshots_skipped,
            report.tmp_files_removed,
        ));
        ledger.push(format!("final: {}", data_fingerprint(&recovered)));
        drop(persist);
        std::fs::remove_dir_all(&dir).unwrap();
        ledger
    };

    let first = run("a");
    let second = run("b");
    assert_eq!(first, second, "chaos ledger replays exactly");
    // The scenario must actually have been chaotic under the default
    // rate; an env-forced rate of 0 legitimately yields none.
    if env_or_default_spec().rate_ppm > 0 {
        assert!(
            first.iter().any(|l| l.contains("injected")),
            "no fault ever fired — the suite tested nothing: {first:?}"
        );
    }
}

/// Engine-level fail-stop: a torn WAL append aborts the mutation (the
/// visible table is bit-untouched), later appends refuse fast, a
/// checkpoint heals, and recovery serves exactly the post-heal history.
#[test]
fn torn_append_aborts_the_mutation_and_checkpoint_heals() {
    // Replay the injector's decisions: first engine append tears, the
    // surrounding checkpoint/fsync/write faults all stay quiet, and the
    // post-heal append is clean.
    let spec = (0..200_000u64)
        .map(|s| FaultSpec::with_rate(s, 0.5))
        .find(|spec| {
            spec.fires(FaultPoint::WalTearTail, 0, 0)
                && !spec.fires(FaultPoint::WalTearTail, 1, 0)
                && !spec.fires(FaultPoint::DiskWriteFail, 0, 0)
                && !spec.fires(FaultPoint::DiskWriteFail, 1, 0)
                && !spec.fires(FaultPoint::CrashBeforeRename, 0, 0)
                && !spec.fires(FaultPoint::CrashBeforeRename, 1, 0)
                && (0..3).all(|f| !spec.fires(FaultPoint::FsyncFail, f, 0))
        })
        .expect("a tear-then-heal seed exists");

    let dir = temp_dir("tear-heal");
    let mut cfg = ScanDbConfig::uncached();
    cfg.parallel.fault = spec;
    let db = ScanDb::open_durable(&dir, cfg, base_table).unwrap();
    let before = Database::table(&db);

    // Torn append: the error surfaces, the visible table is untouched.
    let err = db.append_rows(&batch(0)).unwrap_err();
    assert!(
        err.to_string().contains("torn WAL append"),
        "expected the injected tear, got: {err}"
    );
    let after = Database::table(&db);
    assert_tables_identical(&after, &before, "aborted mutation");
    assert!(db.persistence().unwrap().wal_poisoned());

    // Fail-stop: refuses fast until healed.
    let err = db.append_rows(&batch(1)).unwrap_err();
    assert!(err.to_string().contains("poisoned"), "got: {err}");
    db.checkpoint().unwrap();
    assert!(!db.persistence().unwrap().wal_poisoned());

    // Healed: the next append commits and is durable.
    db.append_rows(&batch(2)).unwrap();
    let committed = Database::table(&db);
    drop(db);
    let (_persist, recovered) = Persistence::open(&dir, PersistOptions::default()).unwrap();
    assert_tables_identical(&recovered.unwrap(), &committed, "post-heal recovery");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Cold-start smoke: dump 1M rows, kill without a drain checkpoint (a
/// WAL tail is live), reload, and verify the restored version is exact
/// — so a cached-key query re-keys under it and the first post-restart
/// mutation mints a strictly newer version (no stale cache entry can
/// ever read as current).
#[test]
fn cold_start_reloads_a_million_rows_and_rekeys_the_cache() {
    let n = 1_000_000usize;
    let schema = Schema::new(vec![
        Field::new("key", DataType::Int),
        Field::new("val", DataType::Float),
    ]);
    let keys: Vec<i64> = (0..n).map(|i| (i % 37) as i64).collect();
    let vals: Vec<f64> = (0..n).map(|i| (i % 1013) as f64 * 0.25).collect();
    let big = Arc::new(
        Table::from_columns(
            schema,
            vec![Column::Int(keys.into()), Column::Float(vals.into())],
        )
        .unwrap(),
    );

    let dir = temp_dir("cold-start");
    let mk_config = || {
        let mut cfg = ScanDbConfig {
            cache: CacheConfig::admit_all(),
            ..Default::default()
        };
        cfg.parallel.fault = FaultSpec::disabled();
        cfg
    };
    let groupby = SelectQuery::new(XSpec::raw("key"), vec![YSpec::sum("val")]);

    // Dump: snapshot the 1M rows, append one WAL batch, cache a result,
    // then "kill -9" (drop with no checkpoint — the WAL tail survives).
    let db = ScanDb::open_durable(&dir, mk_config(), || big.clone()).unwrap();
    db.append_rows(&[vec![Value::Int(7), Value::Float(0.5)]])
        .unwrap();
    let pre_kill_version = Database::table(&db).version();
    let ctx = QueryCtx::new();
    let reference = db
        .run_request_ctx(std::slice::from_ref(&groupby), &ctx)
        .unwrap();
    assert_eq!(
        db.cache_stats().unwrap().entries,
        1,
        "reference result was cached"
    );
    drop(db);

    // Cold start: recovery must land on the exact pre-kill version.
    let start = std::time::Instant::now();
    let db = ScanDb::open_durable(&dir, mk_config(), || {
        unreachable!("cold start must recover, not re-seed")
    })
    .unwrap();
    let cold_load = start.elapsed();
    let report = db.persistence().unwrap().recovery_report();
    assert_eq!(report.frames_replayed, 1);
    assert_eq!(Database::table(&db).num_rows(), n + 1);
    assert_eq!(Database::table(&db).version(), pre_kill_version);

    // The restored version keys the cache: the same query misses cold
    // (fresh cache), recomputes the identical answer, and re-caches
    // under the restored version.
    let ctx = QueryCtx::new();
    let reloaded = db
        .run_request_ctx(std::slice::from_ref(&groupby), &ctx)
        .unwrap();
    assert_eq!(format!("{reference:?}"), format!("{reloaded:?}"));
    assert_eq!(db.cache_stats().unwrap().entries, 1);

    // And the first post-restart mutation mints a strictly newer
    // version — restored versions can never collide forward.
    db.append_rows(&[vec![Value::Int(7), Value::Float(0.5)]])
        .unwrap();
    assert!(Database::table(&db).version() > pre_kill_version);
    eprintln!(
        "cold start: {} rows + 1 WAL frame reloaded in {cold_load:?}",
        n + 1
    );
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
