//! Batch snapshot pinning: `Database::run_request` pins one
//! [`zv_storage::Pinned`] version per batch, so every query of a batch is answered
//! against the same table version even while appends race the request —
//! closing the mixed-adjacent-snapshots caveat the cache PR documented.

use std::sync::Arc;
use zv_storage::{
    Agg, BitmapDb, BitmapDbConfig, DataType, Database, DynDatabase, Field, QueryCtx, ScanDb,
    Schema, SelectQuery, Table, TableBuilder, Value, XSpec, YSpec,
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
