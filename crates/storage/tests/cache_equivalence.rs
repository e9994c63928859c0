//! Cached ≡ bypassed equivalence: results served through the engine-level
//! result cache (`Database::run_request`) must be *bit-for-bit* identical
//! to cache-bypassed execution (`Database::execute` on a cache-disabled
//! engine), across both engines, serial and parallel scan routing, cold
//! and warm passes.
//!
//! Measures are exact dyadic rationals (multiples of 0.25 well below
//! 2⁵³), so float aggregation is associative on this data and bit-for-bit
//! equality is the correct assertion.

use proptest::prelude::*;
use std::sync::Arc;
use zv_storage::exec::ParallelConfig;
use zv_storage::{
    Agg, Atom, BitmapDb, BitmapDbConfig, CacheConfig, CmpOp, DataType, Database, DynDatabase,
    Field, Predicate, ResultTable, ScanDb, ScanDbConfig, Schema, SelectQuery, Table, TableBuilder,
    Value, XSpec, YSpec,
};

/// Deref a `run_request` answer (shared `Arc`s) for comparison against
/// by-value reference results.
fn deref_all(results: &[Arc<ResultTable>]) -> Vec<&ResultTable> {
    results.iter().map(|r| &**r).collect()
}

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

/// `(label, cached engine, bypass engine)` for every engine × routing
/// combination. The bypass engine has the cache disabled outright, so its
/// `execute` path can never be influenced by caching. The cached engines
/// disable cost-based admission: the proptest tables are tiny, and these
/// tests assert warm-hit bookkeeping, not admission policy.
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

fn arb_pred() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        Just(Predicate::True),
        (0u8..8).prop_map(|p| Predicate::cat_eq("product", format!("p{p}"))),
        (2008i64..2022).prop_map(|y| Predicate::num_eq("year", y as f64)),
        ((0u8..8), (0u8..4)).prop_map(|(p, l)| {
            Predicate::cat_eq("product", format!("p{p}"))
                .and(Predicate::cat_eq("location", format!("loc{l}")))
        }),
        (-50i32..50).prop_map(|t| {
            Predicate::atom(Atom::NumCmp {
                col: "sales".into(),
                op: CmpOp::Gt,
                value: t as f64 * 0.25,
            })
        }),
    ]
}

fn arb_query() -> impl Strategy<Value = SelectQuery> {
    (arb_pred(), 0u8..4, any::<bool>()).prop_map(|(pred, zs, binned)| {
        let x = if binned {
            XSpec::binned("year", 3.0)
        } else {
            XSpec::raw("year")
        };
        let mut q = SelectQuery::new(
            x,
            vec![
                YSpec::sum("sales"),
                YSpec::avg("sales"),
                YSpec::new("*", Agg::Count),
            ],
        )
        .with_predicate(pred);
        if zs & 1 != 0 {
            q = q.with_z("product");
        }
        if zs & 2 != 0 {
            q = q.with_z("location");
        }
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cold pass, warm pass, and bypass all agree — for both engines and
    /// both scan routings.
    #[test]
    fn cached_equals_bypassed(rows in arb_rows(), queries in prop::collection::vec(arb_query(), 1..4)) {
        let table = build_table(&rows);
        for (label, cached, bypass) in engine_pairs(&table) {
            let expected: Vec<_> = queries
                .iter()
                .map(|q| bypass.execute(q).expect("bypass"))
                .collect();
            let expected_refs: Vec<&ResultTable> = expected.iter().collect();
            let cold = cached.run_request(&queries).expect("cold request");
            prop_assert_eq!(deref_all(&cold), expected_refs.clone(), "cold ≠ bypass on {}", &label);
            let before = cached.stats().snapshot();
            let warm = cached.run_request(&queries).expect("warm request");
            let delta = cached.stats().snapshot().since(&before);
            prop_assert_eq!(deref_all(&warm), expected_refs, "warm ≠ bypass on {}", &label);
            prop_assert_eq!(delta.rows_scanned, 0, "warm pass scanned rows on {}", &label);
            prop_assert_eq!(delta.queries, 0, "warm pass executed queries on {}", &label);
            prop_assert_eq!(delta.cache_hits, queries.len() as u64, "hit count on {}", &label);
        }
    }

    /// A query whose conjunction lists the same atoms in a different
    /// order must hit the entry its permutation created.
    #[test]
    fn permuted_predicates_hit_the_same_entry(rows in arb_rows(), p in 0u8..6, l in 0u8..3) {
        let table = build_table(&rows);
        let a = Predicate::cat_eq("product", format!("p{p}"))
            .and(Predicate::cat_eq("location", format!("loc{l}")));
        let b = Predicate::cat_eq("location", format!("loc{l}"))
            .and(Predicate::cat_eq("product", format!("p{p}")));
        let qa = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_predicate(a);
        let qb = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_predicate(b);
        let db = BitmapDb::with_config(
            table.clone(),
            BitmapDbConfig {
                cache: CacheConfig::admit_all(),
                ..Default::default()
            },
        );
        let ra = db.run_request(std::slice::from_ref(&qa)).expect("first");
        let before = db.stats().snapshot();
        let rb = db.run_request(std::slice::from_ref(&qb)).expect("second");
        let delta = db.stats().snapshot().since(&before);
        prop_assert_eq!(delta.cache_hits, 1, "permutation must not miss");
        prop_assert_eq!(delta.rows_scanned, 0);
        prop_assert_eq!(&ra, &rb);
        let bypass = ScanDb::with_config(
            table,
            ScanDbConfig::uncached(),
        );
        prop_assert_eq!(&*rb[0], &bypass.execute(&qb).expect("bypass"));
    }
}

/// Zero-copy acceptance: warm hits return the cached allocation itself.
/// `Arc::ptr_eq` proves no deep copy happens anywhere between the cache
/// slot and the `run_request` caller — and that the cold pass cached the
/// very allocation it handed out.
#[test]
fn warm_hits_share_the_cached_allocation() {
    let rows: Vec<(i64, u8, u8, i16)> = (0..2_000)
        .map(|i| (2010 + (i % 6) as i64, (i % 4) as u8, (i % 3) as u8, 100))
        .collect();
    let table = build_table(&rows);
    let queries = vec![
        SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product"),
        SelectQuery::new(XSpec::raw("year"), vec![YSpec::avg("sales")]),
    ];
    for db in [
        Arc::new(BitmapDb::new(table.clone())) as DynDatabase,
        Arc::new(ScanDb::new(table.clone())) as DynDatabase,
    ] {
        let cold = db.run_request(&queries).unwrap();
        let warm1 = db.run_request(&queries).unwrap();
        let warm2 = db.run_request(&queries).unwrap();
        for i in 0..queries.len() {
            assert!(
                Arc::ptr_eq(&cold[i], &warm1[i]),
                "{}: the cold pass must cache the allocation it returned",
                db.name()
            );
            assert!(
                Arc::ptr_eq(&warm1[i], &warm2[i]),
                "{}: warm hits must be pointer bumps, not copies",
                db.name()
            );
        }
    }
}

/// The acceptance-criterion shape, deterministically: a warm repeat of an
/// identical multi-query request performs *zero* table scans.
#[test]
fn warm_repeat_of_identical_request_scans_nothing() {
    let rows: Vec<(i64, u8, u8, i16)> = (0..5_000)
        .map(|i| {
            (
                2010 + (i % 7) as i64,
                (i % 5) as u8,
                (i % 3) as u8,
                ((i * 37 % 801) as i16) - 400,
            )
        })
        .collect();
    let table = build_table(&rows);
    let queries = vec![
        SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product"),
        SelectQuery::new(XSpec::raw("year"), vec![YSpec::avg("sales")])
            .with_predicate(Predicate::cat_eq("location", "loc1")),
        SelectQuery::new(
            XSpec::binned("year", 2.0),
            vec![YSpec::new("*", Agg::Count)],
        ),
    ];
    for db in [
        Arc::new(BitmapDb::new(table.clone())) as DynDatabase,
        Arc::new(ScanDb::new(table.clone())) as DynDatabase,
    ] {
        let cold = db.run_request(&queries).unwrap();
        let before = db.stats().snapshot();
        let warm = db.run_request(&queries).unwrap();
        let delta = db.stats().snapshot().since(&before);
        assert_eq!(cold, warm, "{}", db.name());
        assert_eq!(
            delta.rows_scanned,
            0,
            "{}: warm repeat must not scan",
            db.name()
        );
        assert_eq!(
            delta.queries,
            0,
            "{}: warm repeat must not execute",
            db.name()
        );
        assert_eq!(delta.cache_hits, queries.len() as u64, "{}", db.name());
        assert_eq!(delta.cache_misses, 0, "{}", db.name());
        assert_eq!(
            delta.requests,
            1,
            "{}: the round trip itself still counts",
            db.name()
        );
    }
}
