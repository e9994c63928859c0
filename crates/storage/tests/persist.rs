//! Crash-exactness suite for the durable-storage subsystem
//! ([`zv_storage::persist`]).
//!
//! The contract under test: a crash at **any** byte of the on-disk
//! history — every WAL byte boundary, and the window between writing a
//! snapshot and renaming it into place — recovers to a state
//! bit-for-bit equal to some durable prefix of the committed history,
//! at the exact version the last fsync made durable. Never a torn row,
//! never a resurrected rollback, never a silently-dropped committed
//! batch. And recovery is not a dead end: re-running the lost appends
//! reconverges byte-identically — both the table and the WAL file
//! itself.
//!
//! The exhaustive test literally truncates the WAL at *every* byte
//! offset (a few hundred fresh recoveries); the proptest re-proves the
//! same property over randomized batch shapes, values, and crash
//! points.

use proptest::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use zv_storage::{
    Agg, BitmapDb, BitmapDbConfig, Column, DataType, Database, FaultPoint, FaultSpec, Field,
    PersistOptions, Persistence, Predicate, ScanDb, ScanDbConfig, Schema, SelectQuery, Table,
    Value, XSpec, YSpec,
};

/// Fresh unique directory under the system temp dir.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "zv-persist-it-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

fn base_schema() -> Schema {
    Schema::new(vec![
        Field::new("year", DataType::Int),
        Field::new("product", DataType::Cat),
        Field::new("sales", DataType::Float),
    ])
}

/// The seed table the snapshot is cut from. Dyadic floats so every
/// comparison below is exact without tolerance.
fn base_table() -> Arc<Table> {
    let years: Vec<i64> = (0..64).map(|i| 2010 + (i % 7)).collect();
    let sales: Vec<f64> = (0..64).map(|i| (i % 13) as f64 * 0.25).collect();
    let mut products = zv_storage::CatColumn::new();
    for i in 0..64 {
        let code = products.intern(["chair", "table", "stool"][i % 3]);
        products.push_code(code);
    }
    Arc::new(
        Table::from_columns(
            base_schema(),
            vec![
                Column::Int(years.into()),
                Column::Cat(products),
                Column::Float(sales.into()),
            ],
        )
        .unwrap(),
    )
}

/// Deterministic append batch `k`: varying row counts, a new dictionary
/// entry now and then, negative ints, exact floats.
fn batch(k: usize) -> Vec<Vec<Value>> {
    (0..(k % 3) + 1)
        .map(|r| {
            vec![
                Value::Int(2017 + k as i64 - 2 * r as i64),
                Value::str(["chair", "bench", "table", "lamp"][(k + r) % 4]),
                Value::Float((k * 7 + r) as f64 * 0.5 - 3.0),
            ]
        })
        .collect()
}

/// Bit-for-bit table equality: version, schema, and every column's
/// exact representation (float *bits*, dictionary order included).
fn assert_tables_identical(got: &Table, want: &Table, what: &str) {
    assert_eq!(got.version(), want.version(), "{what}: version");
    assert_data_identical(got, want, what);
}

/// Contents-only equality. Versions are process-unique (a reconverged
/// table legitimately mints fresh ones), so reconvergence asserts the
/// data; recovery asserts [`assert_tables_identical`].
fn assert_data_identical(got: &Table, want: &Table, what: &str) {
    assert_eq!(got.schema(), want.schema(), "{what}: schema");
    assert_eq!(got.num_rows(), want.num_rows(), "{what}: rows");
    for (idx, field) in want.schema().fields().iter().enumerate() {
        match (got.column_at(idx), want.column_at(idx)) {
            (Column::Int(a), Column::Int(b)) => assert_eq!(a, b, "{what}: col {}", field.name),
            (Column::Float(a), Column::Float(b)) => {
                let a: Vec<u64> = a.to_vec().iter().map(|v| v.to_bits()).collect();
                let b: Vec<u64> = b.to_vec().iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "{what}: col {} (bits)", field.name);
            }
            (Column::Cat(a), Column::Cat(b)) => {
                assert_eq!(a.dict(), b.dict(), "{what}: col {} dict", field.name);
                assert_eq!(a.codes(), b.codes(), "{what}: col {} codes", field.name);
            }
            _ => panic!("{what}: col {} changed type", field.name),
        }
    }
}

/// Clone a data directory into `dst`, truncating the WAL to
/// `wal_prefix` bytes — the simulated crash image.
fn crash_image(src: &Path, dst: &Path, wal_prefix: usize) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        let bytes = std::fs::read(entry.path()).unwrap();
        if name.to_str() == Some("wal.log") {
            std::fs::write(dst.join(name), &bytes[..wal_prefix]).unwrap();
        } else {
            std::fs::write(dst.join(name), bytes).unwrap();
        }
    }
}

fn plain_config() -> ScanDbConfig {
    let mut cfg = ScanDbConfig::uncached();
    cfg.parallel.fault = FaultSpec::disabled();
    cfg
}

/// The tentpole acceptance test: crash at EVERY WAL byte boundary.
///
/// Builds snapshot + K WAL frames, then for each prefix length
/// `0..=wal_len` recovers a crash image truncated there and asserts the
/// result is exactly the reference state at the last complete frame —
/// with the torn remainder counted and truncated — and that re-running
/// the lost batches reconverges bit-for-bit, WAL file included.
#[test]
fn every_wal_byte_boundary_recovers_the_exact_durable_prefix() {
    const K: usize = 5;
    let src = temp_dir("boundary-src");
    let db = ScanDb::open_durable(&src, plain_config(), base_table).unwrap();
    let wal_path = db.persistence().unwrap().wal_path();

    // references[i] = the committed state after i batches; boundaries[i]
    // = the WAL length that makes exactly those i batches durable.
    let mut references: Vec<Arc<Table>> = vec![Database::table(&db)];
    let mut boundaries: Vec<usize> = vec![0];
    for k in 0..K {
        db.append_rows(&batch(k)).unwrap();
        references.push(Database::table(&db));
        boundaries.push(std::fs::metadata(&wal_path).unwrap().len() as usize);
    }
    let wal_bytes = std::fs::read(&wal_path).unwrap();
    assert_eq!(wal_bytes.len(), *boundaries.last().unwrap());
    drop(db);

    for prefix in 0..=wal_bytes.len() {
        // The durable state a crash at `prefix` must recover: the last
        // frame boundary at or below the crash point.
        let durable = boundaries.partition_point(|&b| b <= prefix) - 1;
        let dst = temp_dir("boundary-img");
        crash_image(&src, &dst, prefix);

        let (persist, recovered) = Persistence::open(&dst, PersistOptions::default()).unwrap();
        let recovered = recovered.expect("a snapshot exists in every crash image");
        let what = format!("prefix {prefix} (durable boundary {durable})");
        assert_tables_identical(&recovered, &references[durable], &what);

        let report = persist.recovery_report();
        assert_eq!(report.frames_replayed, durable as u64, "{what}: frames");
        assert_eq!(
            report.torn_bytes_truncated,
            (prefix - boundaries[durable]) as u64,
            "{what}: torn bytes"
        );
        assert_eq!(
            std::fs::metadata(persist.wal_path()).unwrap().len() as usize,
            boundaries[durable],
            "{what}: WAL truncated to the durable prefix"
        );
        drop(persist);

        // Reconvergence: re-run the lost batches through a real engine
        // over the recovered state. The data is bit-for-bit the full
        // history (versions are process-unique, so fresh ones are
        // minted), and the reconverged directory is itself crash-exact:
        // reopening it recovers exactly what the engine last committed.
        let db = ScanDb::open_durable(&dst, plain_config(), || {
            unreachable!("recovery must not re-seed")
        })
        .unwrap();
        for k in durable..K {
            db.append_rows(&batch(k)).unwrap();
        }
        let reconverged = Database::table(&db);
        assert_data_identical(
            &reconverged,
            &references[K],
            &format!("{what}: reconverged table"),
        );
        drop(db);
        let (_persist, reopened) = Persistence::open(&dst, PersistOptions::default()).unwrap();
        assert_tables_identical(
            &reopened.unwrap(),
            &reconverged,
            &format!("{what}: reconverged dir recovers itself"),
        );
        std::fs::remove_dir_all(&dst).unwrap();
    }
    std::fs::remove_dir_all(&src).unwrap();
}

/// `append_table` WAL-logs its batch straight from the source table's
/// columns (no per-row `Value` materialization under the append lock —
/// see `Persistence::log_append_table`). The columnar frame must be
/// indistinguishable from the row path on replay: a directory holding
/// interleaved bulk and row appends recovers bit-for-bit.
#[test]
fn bulk_append_table_is_durable_and_recovers_exactly() {
    let dir = temp_dir("bulk-append");
    let db = ScanDb::open_durable(&dir, plain_config(), base_table).unwrap();

    // The bulk batch brings a dictionary entry the base table has never
    // seen, negative ints, and exact dyadic floats.
    let mut products = zv_storage::CatColumn::new();
    for name in ["ottoman", "chair", "ottoman"] {
        let code = products.intern(name);
        products.push_code(code);
    }
    let bulk = Table::from_columns(
        base_schema(),
        vec![
            Column::Int(vec![-3, 2030, 2031].into()),
            Column::Cat(products),
            Column::Float(vec![0.75, -12.5, 1024.0].into()),
        ],
    )
    .unwrap();

    assert_eq!(db.append_table(&bulk).unwrap(), 3);
    db.append_rows(&batch(0)).unwrap();
    assert_eq!(db.append_table(&bulk).unwrap(), 3);
    let committed = Database::table(&db);
    drop(db);

    let db = ScanDb::open_durable(&dir, plain_config(), || {
        unreachable!("recovery must not re-seed")
    })
    .unwrap();
    assert_tables_identical(
        &Database::table(&db),
        &committed,
        "bulk + row appends recover",
    );
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash in the snapshot rename window: the checkpoint wrote and
/// fsynced the temp file but never renamed it. Recovery must ignore
/// (and remove) the orphan, serve the previous snapshot plus the full
/// WAL, and a later clean checkpoint must succeed and prune.
#[test]
fn crash_between_snapshot_write_and_rename_serves_the_previous_state() {
    // Replay the injector's decisions: a seed where the first
    // checkpoint dies exactly in the rename window, with the write and
    // fsync faults quiet so the temp file lands complete.
    let spec = (0..10_000u64)
        .map(|s| FaultSpec::with_rate(s, 0.5))
        .find(|spec| {
            spec.fires(FaultPoint::CrashBeforeRename, 0, 0)
                && !spec.fires(FaultPoint::DiskWriteFail, 0, 0)
                && !spec.fires(FaultPoint::FsyncFail, 0, 0)
                && !spec.fires(FaultPoint::FsyncFail, 1, 0)
        })
        .expect("a rename-crash seed exists");

    let dir = temp_dir("rename-crash");
    let db = ScanDb::open_durable(&dir, plain_config(), base_table).unwrap();
    db.append_rows(&batch(0)).unwrap();
    db.append_rows(&batch(1)).unwrap();
    let pre_crash = Database::table(&db);
    let wal_before = std::fs::read(db.persistence().unwrap().wal_path()).unwrap();
    drop(db);

    // The faulted checkpoint: temp file written + fsynced, rename
    // "crashed". The WAL must NOT have been reset.
    let (persist, recovered) = Persistence::open(&dir, PersistOptions { fault: spec }).unwrap();
    let recovered = recovered.unwrap();
    assert_tables_identical(&recovered, &pre_crash, "pre-crash recovery");
    let err = persist.checkpoint(&recovered).unwrap_err();
    assert!(
        err.to_string().contains("crash"),
        "checkpoint must report the injected crash, got: {err}"
    );
    let tmp_left = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".tmp")
        })
        .count();
    assert_eq!(
        tmp_left, 1,
        "the interrupted checkpoint leaves its temp file"
    );
    assert_eq!(
        std::fs::read(persist.wal_path()).unwrap(),
        wal_before,
        "a crashed checkpoint must not touch the WAL"
    );
    drop(persist);

    // Clean reopen: orphan swept, exact pre-crash state served.
    let (persist, recovered) = Persistence::open(&dir, PersistOptions::default()).unwrap();
    let recovered = recovered.unwrap();
    let report = persist.recovery_report();
    assert_eq!(report.tmp_files_removed, 1);
    assert_eq!(report.frames_replayed, 2);
    assert_tables_identical(&recovered, &pre_crash, "post-sweep recovery");

    // And the next checkpoint completes: snapshot at the live version,
    // WAL reset, old snapshot pruned.
    persist.checkpoint(&recovered).unwrap();
    assert_eq!(std::fs::metadata(persist.wal_path()).unwrap().len(), 0);
    let snapshots = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("snapshot-")
        })
        .count();
    assert_eq!(snapshots, 1, "clean checkpoint prunes the stale snapshot");
    drop(persist);

    let db = ScanDb::open_durable(&dir, plain_config(), || {
        unreachable!("recovery must not re-seed")
    })
    .unwrap();
    assert_tables_identical(&Database::table(&db), &pre_crash, "final recovery");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every `product` and `year` equality the data can hold (and a few it
/// cannot) answers on the bitmap engine — resolved by its index — as a
/// serial `ScanDb` over the same rows answers it.
fn assert_index_answers_match_scan(db: &BitmapDb, what: &str) {
    let mut cfg = plain_config();
    cfg.parallel.threads = 1;
    let serial = ScanDb::with_config(Database::table(db), cfg);
    let products = ["chair", "table", "stool", "bench", "lamp", "sofa", "none"];
    let preds = products
        .iter()
        .map(|p| Predicate::cat_eq("product", *p))
        .chain((2008..2024).map(|y| Predicate::num_eq("year", y as f64)));
    for pred in preds {
        let q = SelectQuery::new(
            XSpec::raw("product"),
            vec![YSpec::sum("sales"), YSpec::new("*", Agg::Count)],
        )
        .with_predicate(pred.clone());
        assert_eq!(
            db.execute(&q).unwrap(),
            serial.execute(&q).unwrap(),
            "{what}: {pred}"
        );
    }
}

/// The durable `BitmapDb`: opened on a directory recovered after a torn
/// WAL tail, it rebuilds its index over exactly the durable rows; an
/// append with a new dictionary value is index-resolved; a checkpoint
/// and a reopen serve the same data and the same answers.
#[test]
fn durable_bitmap_db_recovers_a_torn_tail_appends_and_checkpoints() {
    let src = temp_dir("bitmap-src");
    let db = ScanDb::open_durable(&src, plain_config(), base_table).unwrap();
    for k in 0..3 {
        db.append_rows(&batch(k)).unwrap();
    }
    let durable = Database::table(&db).num_rows() - batch(2).len();
    let wal_len = std::fs::metadata(db.persistence().unwrap().wal_path())
        .unwrap()
        .len() as usize;
    drop(db);
    // A crash three bytes before the last frame is complete.
    let dir = temp_dir("bitmap-img");
    crash_image(&src, &dir, wal_len - 3);

    let cfg = || BitmapDbConfig {
        parallel: plain_config().parallel,
        ..BitmapDbConfig::uncached()
    };
    let reseed = || -> Arc<Table> { unreachable!("recovery must not re-seed") };
    let db = BitmapDb::open_durable(&dir, cfg(), reseed).unwrap();
    let report = db.persistence().unwrap().recovery_report();
    assert_eq!(report.frames_replayed, 2);
    assert!(report.torn_bytes_truncated > 0);
    assert_eq!(Database::table(&db).num_rows(), durable);
    assert!(db.is_indexed("product") && db.is_indexed("year"));
    assert_index_answers_match_scan(&db, "recovered");

    db.append_rows(&[
        vec![Value::Int(2012), Value::str("sofa"), Value::Float(1.5)],
        vec![Value::Int(2016), Value::str("chair"), Value::Float(-0.25)],
    ])
    .unwrap();
    let sofa = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
        .with_predicate(Predicate::cat_eq("product", "sofa"));
    let before = db.stats().snapshot();
    db.execute(&sofa).unwrap();
    assert_eq!(
        db.stats().snapshot().since(&before).rows_scanned,
        1,
        "the new dictionary value is index-resolved"
    );
    assert_index_answers_match_scan(&db, "appended");

    db.checkpoint().unwrap();
    let want = Database::table(&db);
    drop(db);
    let db = BitmapDb::open_durable(&dir, cfg(), reseed).unwrap();
    assert_eq!(
        db.persistence().unwrap().recovery_report().frames_replayed,
        0
    );
    assert_tables_identical(&Database::table(&db), &want, "reopened");
    assert_index_answers_match_scan(&db, "reopened");
    drop(db);
    std::fs::remove_dir_all(&src).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One random row matching the base schema.
fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    (
        -5000i64..5000,
        prop_oneof![
            Just("chair".to_string()),
            Just("bench".to_string()),
            Just("ottoman".to_string()),
            Just(String::new()),
            Just("ötvös".to_string()),
        ],
        -100i64..100,
    )
        .prop_map(|(year, product, halves)| {
            vec![
                Value::Int(year),
                Value::Str(product),
                // Dyadic, so recovery comparisons stay exact.
                Value::Float(halves as f64 * 0.5),
            ]
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form of the boundary test: random batches, a random
    /// crash byte — recovery always lands exactly on a durable frame
    /// boundary, and re-running the lost batches reconverges.
    #[test]
    fn any_crash_point_recovers_a_durable_prefix(
        batches in prop::collection::vec(prop::collection::vec(arb_row(), 1..5), 1..5),
        crash_pick in 0u64..1_000_000,
    ) {
        let src = temp_dir("prop-src");
        let db = ScanDb::open_durable(&src, plain_config(), base_table).unwrap();
        let wal_path = db.persistence().unwrap().wal_path();
        let mut references: Vec<Arc<Table>> = vec![Database::table(&db)];
        let mut boundaries: Vec<usize> = vec![0];
        for rows in &batches {
            db.append_rows(rows).unwrap();
            references.push(Database::table(&db));
            boundaries.push(std::fs::metadata(&wal_path).unwrap().len() as usize);
        }
        let wal_len = *boundaries.last().unwrap();
        drop(db);

        let prefix = (crash_pick % (wal_len as u64 + 1)) as usize;
        let durable = boundaries.partition_point(|&b| b <= prefix) - 1;
        let dst = temp_dir("prop-img");
        crash_image(&src, &dst, prefix);

        let (persist, recovered) =
            Persistence::open(&dst, PersistOptions::default()).unwrap();
        let recovered = recovered.expect("snapshot present");
        prop_assert_eq!(recovered.version(), references[durable].version());
        assert_tables_identical(&recovered, &references[durable], "prop recovery");
        let report = persist.recovery_report();
        prop_assert_eq!(report.torn_bytes_truncated, (prefix - boundaries[durable]) as u64);
        drop(persist);

        let db = ScanDb::open_durable(&dst, plain_config(), || {
            unreachable!("recovery must not re-seed")
        }).unwrap();
        for rows in &batches[durable..] {
            db.append_rows(rows).unwrap();
        }
        assert_data_identical(&Database::table(&db), references.last().unwrap(), "prop reconverge");
        drop(db);
        std::fs::remove_dir_all(&dst).unwrap();
        std::fs::remove_dir_all(&src).unwrap();
    }
}
