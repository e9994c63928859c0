//! Derivation correctness: results the cache *derives* from a cached
//! superset entry (predicate subsumption, per-Z-slice extraction) must
//! be bit-for-bit identical to direct cache-bypassed execution — across
//! both engines, serial and parallel scan routing — and must scan zero
//! base rows.
//!
//! Measures are exact dyadic rationals (multiples of 0.25 well below
//! 2⁵³), so float aggregation is associative on this data and bit-for-bit
//! equality is the correct assertion.

use proptest::prelude::*;
use std::sync::Arc;
use zv_storage::exec::ParallelConfig;
use zv_storage::{
    BitmapDb, BitmapDbConfig, CacheConfig, CmpOp, DataType, Database, DynDatabase, Field,
    Predicate, ScanDb, ScanDbConfig, Schema, SelectQuery, Table, TableBuilder, Value, XSpec, YSpec,
};

fn build_table(rows: &[(i64, u8, u8, i16)]) -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("year", DataType::Int),
        Field::new("product", DataType::Cat),
        Field::new("location", DataType::Cat),
        Field::new("sales", DataType::Float),
    ]);
    let mut b = TableBuilder::new(schema);
    for &(y, p, l, s) in rows {
        b.push_row(vec![
            Value::Int(y),
            Value::str(format!("p{p}")),
            Value::str(format!("loc{l}")),
            Value::Float(s as f64 * 0.25),
        ])
        .unwrap();
    }
    b.finish_shared()
}

fn serial() -> ParallelConfig {
    ParallelConfig {
        threads: 1,
        min_parallel_rows: usize::MAX,
        ..Default::default()
    }
}

fn morsel() -> ParallelConfig {
    ParallelConfig {
        threads: 4,
        min_parallel_rows: 0,
        // Tiny morsels: the proptest tables are < MORSEL_ROWS rows, and
        // the default morsel size would silently degrade this fixture's
        // scans to the serial fallback.
        morsel_rows: 64,
        ..Default::default()
    }
}

/// `(label, cached engine, bypass engine)` across both engines and both
/// scan routings; cost-based admission is off (tiny proptest tables).
fn engine_pairs(table: &Arc<Table>) -> Vec<(String, DynDatabase, DynDatabase)> {
    let mut out: Vec<(String, DynDatabase, DynDatabase)> = Vec::new();
    for (routing, parallel) in [("serial", serial()), ("parallel", morsel())] {
        out.push((
            format!("bitmap/{routing}"),
            Arc::new(BitmapDb::with_config(
                table.clone(),
                BitmapDbConfig {
                    parallel,
                    cache: CacheConfig::admit_all(),
                    ..Default::default()
                },
            )),
            Arc::new(BitmapDb::with_config(
                table.clone(),
                BitmapDbConfig {
                    parallel,
                    ..BitmapDbConfig::uncached()
                },
            )),
        ));
        out.push((
            format!("scan/{routing}"),
            Arc::new(ScanDb::with_config(
                table.clone(),
                ScanDbConfig {
                    parallel,
                    cache: CacheConfig::admit_all(),
                    ..Default::default()
                },
            )),
            Arc::new(ScanDb::with_config(
                table.clone(),
                ScanDbConfig {
                    parallel,
                    ..ScanDbConfig::uncached()
                },
            )),
        ));
    }
    out
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, u8, u8, i16)>> {
    prop::collection::vec((2010i64..2020, 0u8..6, 0u8..3, -400i16..400), 1..250)
}

/// The superset query that gets cached: full `(year, [sum, avg], product
/// [, location])` group-by, optionally under a base conjunction that the
/// derived query will extend.
fn arb_superset() -> impl Strategy<Value = SelectQuery> {
    (any::<bool>(), 0u8..3).prop_map(|(two_z, base)| {
        let mut q = SelectQuery::new(
            XSpec::raw("year"),
            vec![YSpec::sum("sales"), YSpec::avg("sales")],
        )
        .with_z("product");
        if two_z {
            q = q.with_z("location");
        }
        match base {
            1 => q.with_predicate(Predicate::num_cmp("year", CmpOp::Ge, 2011.0)),
            2 => q.with_predicate(Predicate::cat_neq("product", "p0")),
            _ => q,
        }
    })
}

/// One residual tightening step applied to a cached superset query:
/// `(query, is_z_slice)`.
#[derive(Clone, Debug)]
enum Residual {
    /// Keep Z, filter its groups (equality / IN / prefix / inequality).
    KeyFilter(u8, u8),
    /// Pin the first Z column to one value and drop it (per-Z-slice).
    SliceFirstZ(u8),
    /// Cut on the raw X column.
    XCut(i64, u8),
}

fn arb_residual() -> impl Strategy<Value = Residual> {
    prop_oneof![
        (0u8..4, 0u8..6).prop_map(|(kind, v)| Residual::KeyFilter(kind, v)),
        (0u8..6).prop_map(Residual::SliceFirstZ),
        ((2009i64..2021), 0u8..3).prop_map(|(y, op)| Residual::XCut(y, op)),
    ]
}

/// Apply a residual to the cached query, producing the derived query.
fn derived_query(cached: &SelectQuery, residual: &Residual) -> SelectQuery {
    match residual {
        Residual::KeyFilter(kind, v) => {
            let pred = match kind {
                0 => Predicate::cat_eq("product", format!("p{v}")),
                1 => Predicate::cat_in(
                    "product",
                    vec![format!("p{v}"), format!("p{}", (v + 1) % 6)],
                ),
                2 => Predicate::str_prefix("product", "p"),
                _ => Predicate::cat_neq("product", format!("p{v}")),
            };
            cached
                .clone()
                .with_predicate(cached.predicate.clone().and(pred))
        }
        Residual::SliceFirstZ(v) => {
            // Drop the first Z column (product), pinned by equality.
            let mut q = SelectQuery::new(cached.x.clone(), cached.ys.clone()).with_predicate(
                cached
                    .predicate
                    .clone()
                    .and(Predicate::cat_eq("product", format!("p{v}"))),
            );
            for z in cached.zs.iter().skip(1) {
                q = q.with_z(z.clone());
            }
            q
        }
        Residual::XCut(y, op) => {
            let pred = match op {
                0 => Predicate::num_eq("year", *y as f64),
                1 => Predicate::num_cmp("year", CmpOp::Le, *y as f64),
                _ => Predicate::num_between("year", *y as f64, (*y + 3) as f64),
            };
            cached
                .clone()
                .with_predicate(cached.predicate.clone().and(pred))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Subsumption- and slice-derived results are bit-for-bit equal to
    /// direct cache-bypassed execution, and the derivation scans zero
    /// base rows — across both engines and both scan routings.
    #[test]
    fn derived_equals_direct(
        rows in arb_rows(),
        superset in arb_superset(),
        residual in arb_residual(),
    ) {
        let table = build_table(&rows);
        let want = derived_query(&superset, &residual);
        for (label, cached, bypass) in engine_pairs(&table) {
            let expected = bypass.execute(&want).expect("bypass");
            // Warm the cache with the superset, then issue the subsumed
            // query: it must be answered without touching a base row.
            let _ = cached.run_request(std::slice::from_ref(&superset)).expect("superset");
            let before = cached.stats().snapshot();
            let got = cached
                .run_request(std::slice::from_ref(&want))
                .expect("derived request")
                .pop()
                .unwrap();
            let delta = cached.stats().snapshot().since(&before);
            prop_assert_eq!(&*got, &expected, "derived ≠ direct on {}", &label);
            prop_assert_eq!(delta.rows_scanned, 0, "derivation scanned rows on {}", &label);
            prop_assert_eq!(delta.queries, 0, "derivation executed a query on {}", &label);
            prop_assert_eq!(
                delta.cache_hits + delta.cache_derived_hits,
                1,
                "query must be answered from cache on {}",
                &label
            );
            // A repeat of the derived query is now an *exact* hit on the
            // entry the derivation inserted — and shares its allocation.
            let again = cached
                .run_request(std::slice::from_ref(&want))
                .expect("repeat")
                .pop()
                .unwrap();
            prop_assert!(Arc::ptr_eq(&got, &again), "derived repeat must be a pointer bump on {}", &label);
        }
    }
}

/// The acceptance-criterion shape, deterministically: per-Z-slice and
/// subset-predicate queries against a cached group-by scan **zero** base
/// rows, on both engines.
#[test]
fn slices_of_a_cached_groupby_scan_nothing() {
    let rows: Vec<(i64, u8, u8, i16)> = (0..20_000)
        .map(|i| {
            (
                2010 + (i % 8) as i64,
                (i % 6) as u8,
                (i % 3) as u8,
                ((i * 37 % 801) as i16) - 400,
            )
        })
        .collect();
    let table = build_table(&rows);
    let full = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product");
    for db in [
        Arc::new(BitmapDb::new(table.clone())) as DynDatabase,
        Arc::new(ScanDb::new(table.clone())) as DynDatabase,
    ] {
        let bypass = ScanDb::with_config(table.clone(), ScanDbConfig::uncached());
        let _ = db.run_request(std::slice::from_ref(&full)).unwrap();
        let before = db.stats().snapshot();
        // Six per-product Z-slices plus a subset filter and an X cut:
        // not one base row may be scanned for any of them.
        let mut derived_queries: Vec<SelectQuery> = (0..6)
            .map(|p| {
                SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
                    .with_predicate(Predicate::cat_eq("product", format!("p{p}")))
            })
            .collect();
        derived_queries.push(
            full.clone()
                .with_predicate(Predicate::cat_in("product", vec!["p1".into(), "p4".into()])),
        );
        derived_queries.push(full.clone().with_predicate(Predicate::num_cmp(
            "year",
            CmpOp::Ge,
            2014.0,
        )));
        for q in &derived_queries {
            let got = db
                .run_request(std::slice::from_ref(q))
                .unwrap()
                .pop()
                .unwrap();
            assert_eq!(*got, bypass.execute(q).unwrap(), "{}: {q:?}", db.name());
        }
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(
            delta.rows_scanned,
            0,
            "{}: slice queries must scan zero base rows",
            db.name()
        );
        assert_eq!(delta.queries, 0, "{}: nothing may execute", db.name());
        assert_eq!(
            delta.cache_derived_hits,
            derived_queries.len() as u64,
            "{}: every slice must be a derived hit",
            db.name()
        );
    }
}

/// Derivation never crosses table versions: after an append, old superset
/// entries are unreachable and the slice query re-executes.
#[test]
fn derivation_respects_table_versions() {
    let rows: Vec<(i64, u8, u8, i16)> = (0..5_000)
        .map(|i| (2010 + (i % 5) as i64, (i % 4) as u8, (i % 2) as u8, 100))
        .collect();
    let table = build_table(&rows);
    let db = BitmapDb::new(table);
    let full = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product");
    let slice = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
        .with_predicate(Predicate::cat_eq("product", "p1"));
    let _ = db.run_request(std::slice::from_ref(&full)).unwrap();
    db.append_rows(&[vec![
        Value::Int(2010),
        Value::str("p1"),
        Value::str("loc0"),
        Value::Float(400.0),
    ]])
    .unwrap();
    let before = db.stats().snapshot();
    let got = db
        .run_request(std::slice::from_ref(&slice))
        .unwrap()
        .pop()
        .unwrap();
    let delta = db.stats().snapshot().since(&before);
    assert_eq!(
        delta.cache_derived_hits, 0,
        "stale superset must not answer a post-append slice"
    );
    assert_eq!(delta.queries, 1, "the slice must execute for real");
    let bypass = ScanDb::with_config(db.table(), ScanDbConfig::uncached());
    assert_eq!(*got, bypass.execute(&slice).unwrap());
}
