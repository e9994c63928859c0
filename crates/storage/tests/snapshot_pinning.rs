//! Snapshot pinning: `Database::run_request` pins one
//! [`zv_storage::Pinned`] version per batch, so every query of a batch is
//! answered against the same table version even while appends race the
//! request. A pinned version also outlives many appends, a checkpoint
//! and a reopen of its engine unchanged, while the versions derived from
//! it share its sealed column chunks and untouched index bitmaps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use zv_storage::engine::{Engine, EngineConfig};
use zv_storage::{
    Agg, BitmapDb, BitmapDbConfig, Column, DataType, Database, DynDatabase, Field, ParallelConfig,
    Pinned, Predicate, QueryCtx, ResultTable, ScanDb, ScanDbConfig, Schema, SelectQuery, Table,
    TableBuilder, Value, XSpec, YSpec,
};

fn build_table(n: usize) -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("year", DataType::Int),
        Field::new("product", DataType::Cat),
        Field::new("sales", DataType::Float),
    ]);
    let mut b = TableBuilder::new(schema);
    for i in 0..n {
        b.push_row(row(2010 + (i % 5) as i64, (i % 4) as u8))
            .unwrap();
    }
    b.finish_shared()
}

fn row(year: i64, product: u8) -> Vec<Value> {
    vec![
        Value::Int(year),
        Value::str(format!("p{product}")),
        Value::Float(0.25),
    ]
}

/// A pinned snapshot is immutable: appends landing after the pin are
/// invisible to it, and its table version never moves.
#[test]
fn pinned_snapshot_is_immutable_under_appends() {
    let table = build_table(1_000);
    let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::new("*", Agg::Count)]);
    for db in [
        Arc::new(BitmapDb::new(table.clone())) as DynDatabase,
        Arc::new(ScanDb::new(table.clone())) as DynDatabase,
    ] {
        let snap = db.pin();
        let v0 = snap.table().version();
        let (before, _) = snap.execute(&q, &QueryCtx::new()).unwrap();
        db.append_rows(&[row(2010, 0), row(2011, 1)]).unwrap();
        assert!(
            db.table().version() > v0,
            "{}: the engine must move on",
            db.name()
        );
        assert_eq!(
            snap.table().version(),
            v0,
            "{}: the pin must not",
            db.name()
        );
        let (after, _) = snap.execute(&q, &QueryCtx::new()).unwrap();
        assert_eq!(
            before,
            after,
            "{}: a pinned snapshot must keep answering over the pinned data",
            db.name()
        );
        // A fresh request sees the append.
        let fresh = db.run_request(std::slice::from_ref(&q)).unwrap();
        assert_ne!(*fresh[0], before, "{}", db.name());
    }
}

/// The regression the caveat described: a batch racing a concurrent
/// append must never mix adjacent snapshots across its queries. The two
/// batch queries count the same rows two ways (ungrouped vs grouped by
/// product); pinned execution makes their totals agree *always* —
/// without pinning, an append landing between the two executes tears
/// the batch. Runs on an uncached engine so both queries truly execute.
#[test]
fn concurrent_append_never_tears_a_batch() {
    let table = build_table(2_000);
    let db = Arc::new(BitmapDb::with_config(table, BitmapDbConfig::uncached()));
    let count_by_year = SelectQuery::new(XSpec::raw("year"), vec![YSpec::new("*", Agg::Count)]);
    let count_by_year_product = count_by_year.clone().with_z("product");
    let batch = [count_by_year, count_by_year_product];

    std::thread::scope(|s| {
        for _ in 0..4 {
            let db = Arc::clone(&db);
            let batch = &batch;
            s.spawn(move || {
                for _ in 0..40 {
                    let results = db.run_request(batch).unwrap();
                    let flat = &results[0].groups[0];
                    // Sum the grouped counts per year and compare.
                    for (xi, x) in flat.xs.iter().enumerate() {
                        let grouped: f64 = results[1]
                            .groups
                            .iter()
                            .map(|g| {
                                g.xs.iter()
                                    .position(|gx| gx == x)
                                    .map(|i| g.ys[0][i])
                                    .unwrap_or(0.0)
                            })
                            .sum();
                        assert_eq!(
                            grouped, flat.ys[0][xi],
                            "batch mixed two table versions at year {x}"
                        );
                    }
                }
            });
        }
        let db = Arc::clone(&db);
        s.spawn(move || {
            for i in 0..200 {
                db.append_rows(&[row(2010 + (i % 5), (i % 4) as u8)])
                    .unwrap();
            }
        });
    });
    assert_eq!(db.table().num_rows(), 2_200);
}

/// Fresh unique directory under the system temp dir.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "zv-pinning-it-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// Row `i`: five years, the given product, and an exactly representable
/// float measure (a multiple of 0.25), so float sums are associative
/// and a serial scan is a bit-for-bit oracle for any scheduling.
fn sales_row(i: usize, product: &str) -> Vec<Value> {
    vec![
        Value::Int(2010 + (i % 5) as i64),
        Value::str(product),
        Value::Float(((i * 37) % 801) as f64 * 0.25 - 100.0),
    ]
}

fn pin_queries() -> Vec<SelectQuery> {
    let by_year = |ys| SelectQuery::new(XSpec::raw("year"), ys);
    vec![
        by_year(vec![YSpec::sum("sales"), YSpec::avg("sales")]),
        by_year(vec![YSpec::avg("sales"), YSpec::new("*", Agg::Count)]).with_z("product"),
        by_year(vec![YSpec::sum("sales")]).with_predicate(Predicate::cat_eq("product", "p1")),
        SelectQuery::new(
            XSpec::binned("sales", 25.0),
            vec![YSpec::new("*", Agg::Count)],
        ),
    ]
}

fn answers(pin: &Pinned) -> Vec<ResultTable> {
    pin_queries()
        .iter()
        .map(|q| pin.execute(q, &QueryCtx::new()).unwrap().0)
        .collect()
}

/// Every sealed chunk of every column of `parent` is the very segment
/// (`Arc::ptr_eq`) at the same position in `child`.
fn assert_shares_sealed_chunks(parent: &Table, child: &Table, what: &str) {
    let mut shared = 0;
    for (i, field) in parent.schema().fields().iter().enumerate() {
        let ptrs = |col: &Column| -> Vec<*const ()> {
            match col {
                Column::Int(v) => v.parts().1.iter().map(|c| Arc::as_ptr(c).cast()).collect(),
                Column::Float(v) => v.parts().1.iter().map(|c| Arc::as_ptr(c).cast()).collect(),
                Column::Cat(c) => {
                    let chunks = c.codes().parts().1;
                    chunks.iter().map(|c| Arc::as_ptr(c).cast()).collect()
                }
            }
        };
        let (p, c) = (ptrs(parent.column_at(i)), ptrs(child.column_at(i)));
        assert!(
            !p.is_empty(),
            "{what}: column {} has no sealed chunk",
            field.name
        );
        assert_eq!(
            p[..],
            c[..p.len()],
            "{what}: column {} copied a sealed chunk",
            field.name
        );
        shared += p.len();
    }
    assert!(
        shared >= 9,
        "{what}: only {shared} sealed chunks to compare"
    );
}

/// A reader pins a version of a durable engine; appends then seal more
/// chunks and intern a new dictionary value, a failed batch comes and
/// goes, and the engine checkpoints, is dropped and reopens. Throughout,
/// the pin answers exactly as it did, and after the reopen its answers
/// equal a serial `ScanDb` scan of exactly the pinned rows, as read back
/// from disk. The versions derived from the pin share its sealed chunks,
/// and the first append copies only the index bitmaps its rows touch.
fn pin_survives_appends_checkpoint_and_reopen<C: EngineConfig>(config: C, tag: &str) {
    let dir = temp_dir(tag);
    // Three full default-size chunks and a tail (many more chunks when
    // `ZV_ENCODING=force` shrinks them to 64 rows).
    let seed_rows = 3 * 4096 + 100;
    let schema = Schema::new(vec![
        Field::new("year", DataType::Int),
        Field::new("product", DataType::Cat),
        Field::new("sales", DataType::Float),
    ]);
    let seed = {
        let schema = schema.clone();
        move || {
            let mut b = TableBuilder::new(schema);
            for i in 0..seed_rows {
                b.push_row(sales_row(i, &format!("p{}", i % 4))).unwrap();
            }
            b.finish_shared()
        }
    };
    let db = Engine::<C>::open_durable(&dir, config.clone(), seed).unwrap();
    let pin = db.pin();
    let pinned = Arc::clone(pin.table());
    let want = answers(&pin);
    let pinned_dict = pinned
        .column("product")
        .unwrap()
        .as_cat()
        .unwrap()
        .dict()
        .to_vec();

    // First append: years 2010/2011 and products p0/p1 only, so the
    // other values' bitmaps are untouched.
    let first: Vec<Vec<Value>> = (0..500)
        .map(|i| {
            let mut r = sales_row(seed_rows + i, &format!("p{}", i % 2));
            r[0] = Value::Int(2010 + (i % 2) as i64);
            r
        })
        .collect();
    db.append_rows(&first).unwrap();
    let child = db.pin();
    assert_shares_sealed_chunks(&pinned, child.table(), "first append");
    if C::INDEXED {
        for (col, touched) in [("product", 2), ("year", 2)] {
            let (p, c) = (
                pin.index_bitmaps(col).unwrap(),
                child.index_bitmaps(col).unwrap(),
            );
            assert_eq!(p.len(), c.len(), "{col}: no new value in this batch");
            for (code, (pb, cb)) in p.iter().zip(c).enumerate() {
                assert_eq!(
                    Arc::ptr_eq(pb, cb),
                    code >= touched,
                    "{col} code {code}: only the touched bitmaps are copied"
                );
            }
        }
    } else {
        assert!(pin.index_bitmaps("product").is_none());
    }

    // Enough rows to seal several more chunks, one of them carrying a
    // value the dictionary has not seen.
    let mut next = seed_rows + first.len();
    for batch in 0..6 {
        let rows: Vec<Vec<Value>> = (0..2_000)
            .map(|i| {
                let product = if batch == 3 && i % 10 == 0 {
                    "p-new".to_string()
                } else {
                    format!("p{}", (next + i) % 4)
                };
                sales_row(next + i, &product)
            })
            .collect();
        db.append_rows(&rows).unwrap();
        next += rows.len();
    }
    let current = db.table();
    assert_shares_sealed_chunks(&pinned, &current, "after many appends");
    assert_eq!(answers(&pin), want, "appends moved the pin");

    // A batch with a new value in its first row and an ill-typed last
    // row changes nothing, in either version.
    let mut bad: Vec<Vec<Value>> = (0..50).map(|i| sales_row(next + i, "p-fail")).collect();
    bad[49][0] = Value::str("not a year");
    assert!(db.append_rows(&bad).is_err());
    let after = db.table();
    assert_eq!(
        after.version(),
        current.version(),
        "failed batch bumped the version"
    );
    assert_eq!(after.num_rows(), next);
    let dict = |t: &Table| {
        t.column("product")
            .unwrap()
            .as_cat()
            .unwrap()
            .dict()
            .to_vec()
    };
    assert_eq!(
        dict(&after),
        dict(&current),
        "failed batch interned a value"
    );
    assert!(dict(&after).contains(&"p-new".to_string()));
    assert_eq!(dict(&pinned), pinned_dict, "the pin's dictionary moved");
    assert_eq!(answers(&pin), want, "the failed batch moved the pin");

    db.checkpoint().unwrap();
    drop(db);
    let reopened = Engine::<C>::open_durable(&dir, config, || unreachable!("data exists")).unwrap();
    let disk = reopened.table();
    assert_eq!(
        disk.num_rows(),
        next,
        "every committed row survives the reopen"
    );
    assert!(!dict(&disk).contains(&"p-fail".to_string()));

    // The oracle: a serial scan over exactly the pinned rows, read back
    // from disk.
    let mut b = TableBuilder::new(schema);
    for r in 0..pinned.num_rows() {
        b.push_row(disk.row(r)).unwrap();
    }
    let serial = ScanDb::with_config(
        b.finish_shared(),
        ScanDbConfig {
            parallel: ParallelConfig {
                threads: 1,
                ..Default::default()
            },
            ..ScanDbConfig::uncached()
        },
    );
    assert_eq!(
        answers(&pin),
        answers(&serial.pin()),
        "{tag}: pin vs oracle"
    );
    assert_eq!(answers(&pin), want);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pinned_scan_db_version_survives_appends_checkpoint_and_reopen() {
    pin_survives_appends_checkpoint_and_reopen(ScanDbConfig::default(), "scan");
}

#[test]
fn pinned_bitmap_db_version_survives_appends_checkpoint_and_reopen() {
    pin_survives_appends_checkpoint_and_reopen(BitmapDbConfig::default(), "bitmap");
}
