//! Incremental view maintenance ≡ full recompute: after an append, a
//! cached query answered by delta-merging the appended row range into its
//! pre-append cached result must be *bit-for-bit* identical to executing
//! the query from scratch on the post-append table — across both engines,
//! serial and morsel-parallel routing, every delta-able aggregate
//! (SUM/COUNT/MIN/MAX and AVG via its SUM+COUNT companion state), and
//! chained ticks where one tick's merged entry is the next tick's
//! ancestor.
//!
//! Measures are exact dyadic rationals (multiples of 0.25 well below
//! 2⁵³), so float aggregation is associative on this data and bit-for-bit
//! equality is the correct assertion.
//!
//! The ledger is asserted exactly: an IVM-answered query increments
//! `ivm_hits` (not `cache_hits`, not `cache_misses`, not `queries`) and
//! charges `ivm_rows_scanned` with precisely the appended row count —
//! never the full table.

use proptest::prelude::*;
use std::sync::Arc;
use zv_storage::exec::ParallelConfig;
use zv_storage::{
    Agg, Atom, BitmapDb, BitmapDbConfig, CacheConfig, CmpOp, DataType, DynDatabase, Field,
    Predicate, ResultTable, ScanDb, ScanDbConfig, Schema, SelectQuery, Table, TableBuilder, Value,
    XSpec, YSpec,
};

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
        b.push_row(row(y, p, l, s)).unwrap();
    }
    b.finish_shared()
}

fn row(y: i64, p: u8, l: u8, s: i16) -> Vec<Value> {
    vec![
        Value::Int(y),
        Value::str(format!("p{p}")),
        Value::str(format!("loc{l}")),
        Value::Float(s as f64 * 0.25),
    ]
}

// Both configs pin `fault` disabled: this suite asserts bit-for-bit
// equivalence and exact ledgers, which an env-armed injected panic is
// *supposed* to break — fault behavior on the IVM path has its own
// suite (`ivm_chaos.rs`, which does read `ZV_FAULT_*`).
fn serial() -> ParallelConfig {
    ParallelConfig {
        threads: 1,
        min_parallel_rows: usize::MAX,
        fault: zv_storage::FaultSpec::disabled(),
        ..Default::default()
    }
}

fn morsel() -> ParallelConfig {
    ParallelConfig {
        threads: 4,
        min_parallel_rows: 0,
        // Tiny morsels so the small proptest tables still fan out across
        // threads instead of degrading to the serial fallback.
        morsel_rows: 64,
        fault: zv_storage::FaultSpec::disabled(),
    }
}

/// Engine × routing matrix. `cached: true` builds the engine under test
/// (admission disabled — these tests assert IVM bookkeeping, not
/// admission policy); `cached: false` builds the same engine with the
/// cache removed outright, used as the full-recompute reference.
fn make(engine: &str, table: Arc<Table>, parallel: ParallelConfig, cached: bool) -> DynDatabase {
    match (engine, cached) {
        ("bitmap", true) => Arc::new(BitmapDb::with_config(
            table,
            BitmapDbConfig {
                parallel,
                cache: CacheConfig::admit_all(),
                ..Default::default()
            },
        )),
        ("bitmap", false) => Arc::new(BitmapDb::with_config(
            table,
            BitmapDbConfig {
                parallel,
                ..BitmapDbConfig::uncached()
            },
        )),
        (_, true) => Arc::new(ScanDb::with_config(
            table,
            ScanDbConfig {
                parallel,
                cache: CacheConfig::admit_all(),
                ..Default::default()
            },
        )),
        _ => Arc::new(ScanDb::with_config(
            table,
            ScanDbConfig {
                parallel,
                ..ScanDbConfig::uncached()
            },
        )),
    }
}

fn matrix() -> Vec<(String, &'static str, ParallelConfig)> {
    let mut out = Vec::new();
    for engine in ["bitmap", "scan"] {
        for (routing, parallel) in [("serial", serial()), ("morsel", morsel())] {
            out.push((format!("{engine}/{routing}"), engine, parallel));
        }
    }
    out
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, u8, u8, i16)>> {
    prop::collection::vec((2010i64..2020, 0u8..6, 0u8..3, -400i16..400), 1..200)
}

/// Appended rows draw from a *wider* domain than the initial table so
/// appends routinely introduce brand-new group keys, x values, and
/// dictionary codes the cached result has never seen.
fn arb_appended() -> impl Strategy<Value = Vec<(i64, u8, u8, i16)>> {
    prop::collection::vec((2008i64..2023, 0u8..8, 0u8..5, -400i16..400), 1..60)
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

/// Queries cover every delta-able aggregate: SUM, AVG (companion-state
/// path), COUNT(*), MIN, MAX.
fn arb_query() -> impl Strategy<Value = SelectQuery> {
    (arb_pred(), 0u8..4, any::<bool>(), any::<bool>()).prop_map(|(pred, zs, binned, minmax)| {
        let x = if binned {
            XSpec::binned("year", 3.0)
        } else {
            XSpec::raw("year")
        };
        let ys = if minmax {
            vec![
                YSpec::new("sales", Agg::Min),
                YSpec::new("sales", Agg::Max),
                YSpec::avg("sales"),
            ]
        } else {
            vec![
                YSpec::sum("sales"),
                YSpec::avg("sales"),
                YSpec::new("*", Agg::Count),
            ]
        };
        let mut q = SelectQuery::new(x, ys).with_predicate(pred);
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

    /// The tentpole correctness bar: warm the cache, append random rows,
    /// re-run — the delta-merged answer equals full recompute bit-for-bit
    /// on both engines × serial/morsel, and the ledger shows the tick was
    /// answered by IVM alone, scanning exactly the appended rows.
    #[test]
    fn ivm_tick_equals_full_recompute(
        initial in arb_rows(),
        appended in arb_appended(),
        queries in prop::collection::vec(arb_query(), 1..4),
    ) {
        let rows: Vec<Vec<Value>> = appended.iter().map(|&(y, p, l, s)| row(y, p, l, s)).collect();
        for (label, engine, parallel) in matrix() {
            let db = make(engine, build_table(&initial), parallel, true);
            db.run_request(&queries).expect("cold pass");
            db.append_rows(&rows).unwrap();

            let before = db.stats().snapshot();
            let warm = db.run_request(&queries).expect("warm tick");
            let delta = db.stats().snapshot().since(&before);

            let bypass = make(engine, db.table(), parallel, false);
            let expected: Vec<_> = queries.iter().map(|q| bypass.execute(q).expect("bypass")).collect();
            let expected_refs: Vec<&ResultTable> = expected.iter().collect();
            prop_assert_eq!(deref_all(&warm), expected_refs, "delta-merged ≠ recompute on {}", &label);

            let n = queries.len() as u64;
            prop_assert_eq!(delta.ivm_hits, n, "every query IVM-answered on {}", &label);
            prop_assert_eq!(
                delta.ivm_rows_scanned,
                n * appended.len() as u64,
                "each IVM answer scans exactly the appended range on {}",
                &label
            );
            prop_assert_eq!(delta.rows_scanned, 0, "no full scans on {}", &label);
            prop_assert_eq!(delta.queries, 0, "no kernel executions on {}", &label);
            prop_assert_eq!(
                delta.cache_hits + delta.cache_derived_hits + delta.cache_misses,
                0,
                "IVM answers are their own ledger class on {}",
                &label
            );
        }
    }

    /// Chained ticks: each tick's merged entry becomes the next tick's
    /// ancestor, so every tick after the first is IVM-answered and scans
    /// only its own appended batch.
    #[test]
    fn merged_entries_chain_as_ancestors(
        initial in arb_rows(),
        ticks in prop::collection::vec(prop::collection::vec((2008i64..2023, 0u8..8, 0u8..5, -400i16..400), 1..20), 2..5),
        query in arb_query(),
    ) {
        for (label, engine, parallel) in matrix() {
            let db = make(engine, build_table(&initial), parallel, true);
            db.run_request(std::slice::from_ref(&query)).expect("cold pass");
            for (t, batch) in ticks.iter().enumerate() {
                let rows: Vec<Vec<Value>> = batch.iter().map(|&(y, p, l, s)| row(y, p, l, s)).collect();
                db.append_rows(&rows).unwrap();
                let before = db.stats().snapshot();
                let got = db.run_request(std::slice::from_ref(&query)).expect("tick").pop().unwrap();
                let delta = db.stats().snapshot().since(&before);
                let bypass = make(engine, db.table(), parallel, false);
                prop_assert_eq!(&*got, &bypass.execute(&query).expect("bypass"), "tick {} on {}", t, &label);
                prop_assert_eq!(delta.ivm_hits, 1, "tick {} IVM-answered on {}", t, &label);
                prop_assert_eq!(
                    delta.ivm_rows_scanned,
                    batch.len() as u64,
                    "tick {} scans only its own batch on {}",
                    t,
                    &label
                );
                prop_assert_eq!(delta.rows_scanned, 0, "tick {} on {}", t, &label);
            }
        }
    }
}

/// MIN/MAX fold direction, deterministically: appends that lower the min,
/// raise the max, do neither, and introduce a brand-new group.
#[test]
fn min_max_delta_merge_folds_correctly() {
    let initial: Vec<(i64, u8, u8, i16)> = vec![
        (2014, 0, 0, 40),  // year 2014: sales 10.0
        (2014, 1, 0, 80),  // year 2014: sales 20.0
        (2015, 0, 1, -20), // year 2015: sales -5.0
    ];
    let q = SelectQuery::new(
        XSpec::raw("year"),
        vec![YSpec::new("sales", Agg::Min), YSpec::new("sales", Agg::Max)],
    );
    for (label, engine, parallel) in matrix() {
        let db = make(engine, build_table(&initial), parallel, true);
        db.run_request(std::slice::from_ref(&q)).unwrap();
        // New min for 2014, no-op for 2015, brand-new year 2016.
        db.append_rows(&[
            row(2014, 2, 0, -400), // 2014 min drops to -100.0
            row(2015, 0, 0, 0),    // 2015 min/max unchanged by 0.0? no: max rises to 0.0
            row(2016, 3, 2, 120),  // new group
        ])
        .unwrap();
        let before = db.stats().snapshot();
        let got = db
            .run_request(std::slice::from_ref(&q))
            .unwrap()
            .pop()
            .unwrap();
        let delta = db.stats().snapshot().since(&before);
        let bypass = make(engine, db.table(), parallel, false);
        assert_eq!(&*got, &bypass.execute(&q).unwrap(), "{label}");
        assert_eq!(delta.ivm_hits, 1, "{label}");
        assert_eq!(delta.ivm_rows_scanned, 3, "{label}");
        let ys = &got.groups[0].ys;
        assert_eq!(ys[0], vec![-100.0, -5.0, 30.0], "{label}: min per year");
        assert_eq!(ys[1], vec![20.0, 0.0, 30.0], "{label}: max per year");
    }
}

/// Decline path: once the append chain outgrows the lineage window, the
/// ancestor's row count is no longer provable and the engine silently
/// falls back to a full recompute — still correct, zero IVM hits.
#[test]
fn lineage_overflow_declines_to_full_recompute() {
    let initial: Vec<(i64, u8, u8, i16)> = (0..50)
        .map(|i| (2010 + i % 5, (i % 4) as u8, (i % 3) as u8, 8))
        .collect();
    let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
    let db = make("scan", build_table(&initial), serial(), true);
    db.run_request(std::slice::from_ref(&q)).unwrap();
    // Push the cached version off the lineage chain (capacity 64).
    for i in 0..70 {
        db.append_rows(&[row(2011, 1, 1, 4 * (i % 3))]).unwrap();
    }
    let before = db.stats().snapshot();
    let got = db
        .run_request(std::slice::from_ref(&q))
        .unwrap()
        .pop()
        .unwrap();
    let delta = db.stats().snapshot().since(&before);
    let bypass = make("scan", db.table(), serial(), false);
    assert_eq!(&*got, &bypass.execute(&q).unwrap());
    assert_eq!(delta.ivm_hits, 0, "ancestor off the lineage chain");
    assert_eq!(delta.cache_misses, 1, "declined tick is an ordinary miss");
    assert_eq!(delta.queries, 1, "declined tick executes in full");
}

/// An IVM-answered tick publishes its merged result under the new
/// version: the immediate repeat is a plain warm hit that scans nothing.
#[test]
fn ivm_result_is_cached_for_the_next_repeat() {
    let initial: Vec<(i64, u8, u8, i16)> = (0..200)
        .map(|i| {
            (
                2010 + i % 6,
                (i % 5) as u8,
                (i % 3) as u8,
                ((i * 7 % 101) as i16) - 50,
            )
        })
        .collect();
    let queries = vec![
        SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product"),
        SelectQuery::new(XSpec::binned("year", 2.0), vec![YSpec::avg("sales")]),
    ];
    for (label, engine, parallel) in matrix() {
        let db = make(engine, build_table(&initial), parallel, true);
        db.run_request(&queries).unwrap();
        db.append_rows(&[row(2012, 6, 1, 96), row(2010, 0, 0, -28)])
            .unwrap();
        let tick = db.run_request(&queries).unwrap();
        let before = db.stats().snapshot();
        let repeat = db.run_request(&queries).unwrap();
        let delta = db.stats().snapshot().since(&before);
        for (a, b) in tick.iter().zip(&repeat) {
            assert!(
                Arc::ptr_eq(a, b),
                "{label}: repeat must share the merged allocation"
            );
        }
        assert_eq!(delta.cache_hits, queries.len() as u64, "{label}");
        assert_eq!(delta.ivm_hits, 0, "{label}");
        assert_eq!(delta.rows_scanned, 0, "{label}");
        assert_eq!(delta.ivm_rows_scanned, 0, "{label}");
    }
}
