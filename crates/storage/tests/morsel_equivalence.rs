//! Morsel ≡ serial equivalence: the morsel-claiming parallel scan
//! (`aggregate_morsel`) must produce the *identical* `ResultTable` (same
//! groups, same ordering, same values) and the same scanned count as the
//! serial `aggregate`, across Dense/Hash strategies, every row-source
//! shape, every `Agg` variant (including Min/Max), zero to two Z
//! columns, assorted thread counts and morsel sizes — and under *skewed*
//! predicates, the workload morsel claiming exists for: a selective
//! filter whose matching rows cluster in one region of the table, so a
//! contiguous per-worker split would strand all the accumulation work on
//! one worker.
//!
//! Measure values are exact dyadic rationals (multiples of 0.25 well
//! below 2⁵³), so float sums are associative on this data and bit-for-bit
//! equality against the serial scan is the correct assertion. A separate
//! proptest asserts thread-count-independent determinism on *inexact*
//! data (the reduction order is fixed by morsel index, not by claim
//! timing).

use proptest::prelude::*;
use zv_storage::exec::{aggregate, aggregate_morsel, compile_pred, GroupStrategy, RowSource};
use zv_storage::{
    Agg, Atom, BitmapDb, BitmapDbConfig, CmpOp, DataType, Database, FaultSpec, Field,
    ParallelConfig, Predicate, RoaringBitmap, ScanDb, ScanDbConfig, Schema, SelectQuery, Table,
    TableBuilder, Value, XSpec, YSpec,
};

fn schema(region: bool) -> Schema {
    let mut fields = vec![
        Field::new("year", DataType::Int),
        Field::new("product", DataType::Cat),
        Field::new("location", DataType::Cat),
        Field::new("sales", DataType::Float),
        Field::new("units", DataType::Int),
    ];
    if region {
        fields.push(Field::new("region", DataType::Int));
    }
    Schema::new(fields)
}

fn row(year: i64, p: u8, l: u8, s: i64) -> Vec<Value> {
    vec![
        Value::Int(year),
        Value::str(format!("p{p}")),
        Value::str(format!("loc{l}")),
        Value::Float(s as f64 * 0.25), // exactly representable
        Value::Int(s),
    ]
}

fn build_table(rows: &[(i64, u8, u8, i16)]) -> Table {
    let mut b = TableBuilder::new(schema(false));
    for &(y, p, l, s) in rows {
        b.push_row(row(y, p, l, s as i64)).unwrap();
    }
    b.finish()
}

/// `rows` rows whose `region` column marks position in the table (8
/// equal stripes), so `region == k` predicates cluster their matches —
/// the skew shape. Measures are exactly representable.
fn clustered_table(rows: usize, products: u8) -> Table {
    let stripe = rows.div_ceil(8).max(1);
    let mut b = TableBuilder::new(schema(true));
    for i in 0..rows {
        let s = ((i * 37) % 801) as i64 - 400;
        let p = (i % products.max(1) as usize) as u8;
        let mut r = row(2010 + (i % 7) as i64, p, (i % 3) as u8, s);
        r.push(Value::Int((i / stripe) as i64));
        b.push_row(r).unwrap();
    }
    b.finish()
}

fn all_agg_query() -> SelectQuery {
    SelectQuery::new(
        XSpec::raw("year"),
        vec![
            YSpec::sum("sales"),
            YSpec::avg("sales"),
            YSpec::new("sales", Agg::Min),
            YSpec::new("sales", Agg::Max),
            YSpec::new("units", Agg::Sum),
            YSpec::new("*", Agg::Count),
        ],
    )
}

/// Serial and morsel×threads (tiny morsels, so even proptest-sized
/// tables fan out across many claims) must agree bit-for-bit, and Dense
/// and Hash must agree with each other. The source is rebuilt per run
/// because `RowSource` borrows the table.
fn assert_equivalent<'t>(
    table: &'t Table,
    query: &SelectQuery,
    make_source: impl Fn() -> RowSource<'t>,
) {
    let (dense, _) = aggregate(table, query, &make_source(), GroupStrategy::Dense).expect("dense");
    for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
        let (serial, serial_scanned) =
            aggregate(table, query, &make_source(), strategy).expect("serial");
        assert_eq!(serial, dense, "strategies disagree");
        for threads in [2usize, 3, 8] {
            for morsel_rows in [64usize, 257] {
                let (mor, mor_scanned, _) =
                    aggregate_morsel(table, query, &make_source(), strategy, threads, morsel_rows)
                        .expect("morsel");
                assert_eq!(
                    mor, serial,
                    "morsel({threads}, {morsel_rows}) differs under {strategy:?}"
                );
                assert_eq!(mor_scanned, serial_scanned);
            }
        }
    }
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, u8, u8, i16)>> {
    prop::collection::vec((2010i64..2020, 0u8..6, 0u8..3, -400i16..400), 1..600)
}

fn arb_query() -> impl Strategy<Value = SelectQuery> {
    (0u8..4, any::<bool>()).prop_map(|(zs, binned)| {
        let x = if binned {
            XSpec::binned("year", 3.0)
        } else {
            XSpec::raw("year")
        };
        let mut q = SelectQuery {
            x,
            ..all_agg_query()
        };
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn full_scan_sources(rows in arb_rows(), query in arb_query()) {
        let table = build_table(&rows);
        assert_equivalent(&table, &query, || RowSource::All(table.num_rows()));
    }

    #[test]
    fn filtered_sources(rows in arb_rows(), query in arb_query(), p in 0u8..8, t in -50i32..50) {
        let table = build_table(&rows);
        let pred = Predicate::cat_eq("product", format!("p{p}")).and(Predicate::atom(
            Atom::NumCmp { col: "sales".into(), op: CmpOp::Gt, value: t as f64 },
        ));
        let make = || RowSource::Filtered {
            n_rows: table.num_rows(),
            pred: compile_pred(&table, &pred).unwrap(),
        };
        assert_equivalent(&table, &query, make);
    }

    #[test]
    fn bitmap_sources(rows in arb_rows(), query in arb_query(), stride in 1u32..5) {
        let table = build_table(&rows);
        // Every stride-th row, so morsel boundaries rarely align with
        // bitmap container boundaries.
        let bm: RoaringBitmap =
            (0..table.num_rows() as u32).filter(|r| r % stride == 0).collect();
        assert_equivalent(&table, &query, || RowSource::Bitmap(bm.clone()));
    }

    #[test]
    fn bitmap_filtered_sources(rows in arb_rows(), query in arb_query(), t in -50i32..50) {
        let table = build_table(&rows);
        let bm: RoaringBitmap = (0..table.num_rows() as u32).filter(|r| r % 2 == 0).collect();
        let residual = Predicate::atom(Atom::NumCmp {
            col: "sales".into(),
            op: CmpOp::Ge,
            value: t as f64 * 0.25,
        });
        let make = || RowSource::BitmapFiltered {
            rows: bm.clone(),
            pred: compile_pred(&table, &residual).unwrap(),
        };
        assert_equivalent(&table, &query, make);
    }

    /// Skewed filtered scans: all matches cluster in one of 8 stripes.
    #[test]
    fn skewed_filtered_sources(
        rows in 1usize..1200,
        products in 1u8..6,
        stripe in 0i64..8,
        query in arb_query(),
    ) {
        let table = clustered_table(rows, products);
        let pred = Predicate::num_eq("region", stripe as f64);
        let make = || RowSource::Filtered {
            n_rows: table.num_rows(),
            pred: compile_pred(&table, &pred).unwrap(),
        };
        assert_equivalent(&table, &query, make);
    }

    /// Skew composed with a residual numeric filter.
    #[test]
    fn skewed_residual_sources(
        rows in 1usize..1200,
        stripe in 0i64..8,
        t in -50i32..50,
        query in arb_query(),
    ) {
        let table = clustered_table(rows, 4);
        let pred = Predicate::num_eq("region", stripe as f64).and(Predicate::atom(Atom::NumCmp {
            col: "sales".into(),
            op: CmpOp::Gt,
            value: t as f64 * 0.25,
        }));
        let make = || RowSource::Filtered {
            n_rows: table.num_rows(),
            pred: compile_pred(&table, &pred).unwrap(),
        };
        assert_equivalent(&table, &query, make);
    }

    /// End-to-end: an engine configured to always fan out over tiny
    /// morsels must match an engine that never does, query for query.
    #[test]
    fn engine_level_equivalence(rows in arb_rows(), query in arb_query(), p in 0u8..8) {
        let table = std::sync::Arc::new(build_table(&rows));
        let serial = BitmapDb::with_config(
            table.clone(),
            BitmapDbConfig {
                parallel: ParallelConfig { threads: 1, ..Default::default() },
                ..Default::default()
            },
        );
        let parallel = BitmapDb::with_config(
            table.clone(),
            BitmapDbConfig {
                // Tiny morsels: proptest tables are far below the default
                // morsel size, which would silently serialize this engine.
                parallel: ParallelConfig {
                    threads: 4,
                    min_parallel_rows: 0,
                    morsel_rows: 64,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let q = query.with_predicate(Predicate::cat_eq("product", format!("p{p}")));
        prop_assert_eq!(serial.execute(&q).unwrap(), parallel.execute(&q).unwrap());
        let open = all_agg_query();
        prop_assert_eq!(serial.execute(&open).unwrap(), parallel.execute(&open).unwrap());
    }

    /// Morsel float sums must be bit-for-bit identical across thread
    /// counts and repeated runs even on *inexact* measures (0.1 steps):
    /// the reduction order is a function of morsel indices only.
    #[test]
    fn morsel_runs_are_reproducible_on_inexact_floats(
        rows in 64usize..900,
        threads_a in 2usize..8,
        threads_b in 2usize..8,
    ) {
        let schema = Schema::new(vec![
            Field::new("key", DataType::Int),
            Field::new("val", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..rows {
            b.push_row(vec![
                Value::Int((i % 13) as i64),
                Value::Float(0.1 + (i % 89) as f64 * 0.3),
            ])
            .unwrap();
        }
        let table = b.finish();
        let q = SelectQuery::new(XSpec::raw("key"), vec![YSpec::sum("val"), YSpec::avg("val")]);
        let src = RowSource::All(table.num_rows());
        for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
            let (a, _, _) = aggregate_morsel(&table, &q, &src, strategy, threads_a, 64).unwrap();
            let (b, _, _) = aggregate_morsel(&table, &q, &src, strategy, threads_b, 64).unwrap();
            prop_assert_eq!(a.groups.len(), b.groups.len());
            for (ga, gb) in a.groups.iter().zip(&b.groups) {
                prop_assert_eq!(&ga.key, &gb.key);
                prop_assert_eq!(&ga.xs, &gb.xs);
                prop_assert_eq!(ga.ys.len(), gb.ys.len());
                for (ya, yb) in ga.ys.iter().zip(&gb.ys) {
                    prop_assert_eq!(ya.len(), yb.len());
                    for (va, vb) in ya.iter().zip(yb) {
                        prop_assert_eq!(
                            va.to_bits(),
                            vb.to_bits(),
                            "drift between {} and {} threads under {:?}",
                            threads_a,
                            threads_b,
                            strategy
                        );
                    }
                }
            }
        }
    }
}

/// Morsel boundaries at 10k rows with two Z columns: multi-chunk morsels
/// (chunk size is 4096) and more morsels than workers, with every thread
/// count from 1 to 9.
#[test]
fn many_rows_many_threads() {
    let rows: Vec<(i64, u8, u8, i16)> = (0..10_000)
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
    let query = all_agg_query().with_z("product").with_z("location");
    let src = RowSource::All(table.num_rows());
    for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
        let (serial, scanned) = aggregate(&table, &query, &src, strategy).unwrap();
        assert_eq!(scanned, 10_000);
        for threads in 1..=9 {
            for morsel_rows in [1_000, 5_000] {
                let (par, par_scanned, _) =
                    aggregate_morsel(&table, &query, &src, strategy, threads, morsel_rows).unwrap();
                assert_eq!(par, serial, "{strategy:?} × {threads} × {morsel_rows}");
                assert_eq!(par_scanned, 10_000);
            }
        }
    }
}

/// Engine-level: both engines, serial and morsel-parallel, must agree
/// query-for-query on a table large enough for real production-size
/// morsels, with the matches clustered in one stripe. One more morsel
/// engine runs with fault injection armed at rate zero: its hooks are
/// consulted on every morsel but never fire, so its answers must equal
/// the disabled engines' too.
#[test]
fn engines_agree_serial_and_morsel_under_skew() {
    let table = std::sync::Arc::new(clustered_table(40_000, 5));
    let serial = ParallelConfig {
        threads: 1,
        ..Default::default()
    };
    let morsel = ParallelConfig {
        threads: 4,
        min_parallel_rows: 0,
        ..Default::default()
    };
    let armed_at_zero = ParallelConfig {
        fault: FaultSpec {
            seed: 1,
            rate_ppm: 0,
            delay_us: 0,
        },
        ..morsel
    };

    let queries: Vec<SelectQuery> = (0..8)
        .map(|stripe| {
            all_agg_query()
                .with_z("product")
                .with_predicate(Predicate::num_eq("region", stripe as f64))
        })
        .chain([all_agg_query(), all_agg_query().with_z("product")])
        .collect();

    let bitmap = |parallel| {
        BitmapDb::with_config(
            table.clone(),
            BitmapDbConfig {
                parallel,
                ..BitmapDbConfig::uncached()
            },
        )
    };
    let scan = |parallel| {
        ScanDb::with_config(
            table.clone(),
            ScanDbConfig {
                parallel,
                ..ScanDbConfig::uncached()
            },
        )
    };

    let reference = bitmap(serial);
    let engines: Vec<(&str, Box<dyn Database>)> = vec![
        ("bitmap/morsel", Box::new(bitmap(morsel))),
        ("scan/serial", Box::new(scan(serial))),
        ("scan/morsel", Box::new(scan(morsel))),
        ("scan/armed-at-zero morsel", Box::new(scan(armed_at_zero))),
    ];
    for q in &queries {
        let expect = reference.execute(q).unwrap();
        for (label, db) in &engines {
            assert_eq!(db.execute(q).unwrap(), expect, "{label} diverged");
        }
    }

    // The morsel engines must actually have gone through the claiming
    // path, and every dispatched morsel must be accounted for.
    for (label, db) in &engines {
        let snap = db.stats().snapshot();
        if label.ends_with("morsel") {
            assert!(snap.morsel_scans > 0, "{label} never claimed morsels");
            assert!(snap.morsels_dispatched >= snap.morsel_scans);
        } else {
            assert_eq!(snap.morsel_scans, 0, "{label} must not report morsels");
        }
    }
}

/// Full-size morsels on a multi-morsel table: the production path end
/// to end.
#[test]
fn production_morsel_size_multi_morsel_scan() {
    let table = clustered_table(40_000, 5);
    let q = all_agg_query().with_z("product");
    let src = RowSource::All(table.num_rows());
    for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
        let (serial, scanned) = aggregate(&table, &q, &src, strategy).unwrap();
        let (mor, mor_scanned, metrics) =
            aggregate_morsel(&table, &q, &src, strategy, 3, zv_storage::exec::MORSEL_ROWS).unwrap();
        assert_eq!(mor, serial);
        assert_eq!(mor_scanned, scanned);
        let m = metrics.expect("40k rows spans 3 production morsels");
        assert_eq!(m.morsels, 3);
        assert_eq!(m.per_worker.iter().sum::<u64>(), 3);
    }
}

/// Bitmap sources over more than two roaring containers, one of each
/// kind: an Array container (every 37th row of rows 0..65 536), a
/// Bitmap container (two rows in three of 65 536..131 072) and a Run
/// container (one contiguous run from 131 072 on, after
/// `run_optimize`). Bitmap morsels are cut at word boundaries after
/// about `morsel_rows` members, so small morsels start mid-container
/// and their 4096-row windows straddle the 65 536-row container
/// boundaries; production-size morsels span whole containers. Serial
/// and morsel scans must agree bit for bit, with and without a
/// residual filter.
#[test]
fn bitmap_sources_across_container_kinds() {
    let rows = 150_000u32;
    let table = clustered_table(rows as usize, 5);
    let array = (0..65_536u32).step_by(37);
    let dense = (65_536..131_072u32).filter(|r| r % 3 != 0);
    let mut bm: RoaringBitmap = array
        .clone()
        .chain(dense.clone())
        .chain(131_072..rows)
        .collect();
    bm.run_optimize();
    // Container footprints (2-byte key + payload) prove the three
    // kinds: Array 2 B per member, Bitmap 8 KiB, Run 4 B per run.
    assert_eq!(
        bm.size_bytes(),
        (2 + 2 * array.clone().count()) + (2 + 8192) + (2 + 4)
    );
    assert_eq!(
        bm.len() as usize,
        array.count() + dense.count() + (rows as usize - 131_072)
    );

    let query = all_agg_query().with_z("product").with_z("location");
    let residual = Predicate::atom(Atom::NumCmp {
        col: "sales".into(),
        op: CmpOp::Ge,
        value: -20.0,
    });
    let make = |filtered: bool| {
        if filtered {
            RowSource::BitmapFiltered {
                rows: bm.clone(),
                pred: compile_pred(&table, &residual).unwrap(),
            }
        } else {
            RowSource::Bitmap(bm.clone())
        }
    };
    for (label, filtered) in [("bitmap", false), ("bitmap+residual", true)] {
        for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
            let (serial, scanned) = aggregate(&table, &query, &make(filtered), strategy).unwrap();
            assert_eq!(
                scanned,
                bm.len(),
                "{label}: rows visited are the bitmap's members"
            );
            for morsel_rows in [64usize, 257, zv_storage::exec::MORSEL_ROWS] {
                for threads in [2usize, 3] {
                    let (mor, mor_scanned, metrics) = aggregate_morsel(
                        &table,
                        &query,
                        &make(filtered),
                        strategy,
                        threads,
                        morsel_rows,
                    )
                    .unwrap();
                    assert_eq!(
                        mor, serial,
                        "{label} {strategy:?} × {threads} × {morsel_rows}"
                    );
                    assert_eq!(mor_scanned, scanned);
                    // Morsels are sized by members, not by row space.
                    let morsels = metrics.expect("fans out").morsels as usize;
                    let want = bm.len().div_ceil(morsel_rows as u64) as usize;
                    assert!(
                        morsels <= want && morsels * 2 >= want,
                        "{label}: {morsels} morsels of {morsel_rows} for {} members",
                        bm.len()
                    );
                }
            }
        }
    }
}

/// Float reads across chunk boundaries: a table with several sealed
/// float chunks and a tail, scanned by morsels whose sizes do not divide
/// the 4096-row chunk (1000 and 4097 rows), so windows start mid-chunk
/// and straddle chunk boundaries. Float `>` and `BETWEEN` predicates,
/// a binned float x axis and SUM/AVG/MIN/MAX of a float measure must
/// come out bit for bit as in the serial scan, from `All`, `Filtered`,
/// `Bitmap` and `BitmapFiltered` sources and through both engines with
/// an explicit [`ParallelConfig`].
#[test]
fn float_reads_across_chunk_boundaries_match_serial() {
    let rows = 3 * 4096 + 1234;
    let schema = Schema::new(vec![
        Field::new("year", DataType::Int),
        Field::new("product", DataType::Cat),
        Field::new("sales", DataType::Float),
        Field::new("price", DataType::Float),
    ]);
    let mut b = TableBuilder::new(schema);
    for i in 0..rows {
        b.push_row(vec![
            Value::Int(2010 + (i % 7) as i64),
            Value::str(format!("p{}", i % 5)),
            // Multiples of 0.25: every sum is exact.
            Value::Float(((i * 37) % 801) as f64 * 0.25 - 100.0),
            Value::Float(((i * 13) % 1000) as f64 * 0.5),
        ])
        .unwrap();
    }
    let table = std::sync::Arc::new(b.finish());
    for col in ["sales", "price"] {
        let (_, sealed, _, tail) = table.column(col).unwrap().as_float().unwrap().parts();
        assert!(
            sealed.len() >= 3 && !tail.is_empty(),
            "{col}: chunks and a tail"
        );
    }

    let measures = vec![
        YSpec::sum("sales"),
        YSpec::avg("sales"),
        YSpec::new("sales", Agg::Min),
        YSpec::new("sales", Agg::Max),
        YSpec::new("*", Agg::Count),
    ];
    let queries = [
        SelectQuery::new(XSpec::raw("year"), measures.clone()).with_z("product"),
        SelectQuery::new(XSpec::binned("price", 37.5), measures.clone()),
        SelectQuery::new(XSpec::binned("sales", 12.5), measures).with_z("product"),
    ];
    let gt = Predicate::atom(Atom::NumCmp {
        col: "sales".into(),
        op: CmpOp::Gt,
        value: -20.0,
    });
    let between = Predicate::atom(Atom::NumBetween {
        col: "price".into(),
        lo: 100.0,
        hi: 350.0,
    });
    // Bitmap members: every third row, then one long run across the
    // last chunk boundary.
    let members: RoaringBitmap = (0..rows as u32)
        .filter(|r| r % 3 == 0 || (9_000..13_000).contains(r))
        .collect();

    for q in &queries {
        for label in [
            "all",
            "sales > -20",
            "price between",
            "bitmap",
            "bitmap + sales > -20",
        ] {
            let make = || match label {
                "all" => RowSource::All(rows),
                "sales > -20" => RowSource::Filtered {
                    n_rows: rows,
                    pred: compile_pred(&table, &gt).unwrap(),
                },
                "price between" => RowSource::Filtered {
                    n_rows: rows,
                    pred: compile_pred(&table, &between).unwrap(),
                },
                "bitmap" => RowSource::Bitmap(members.clone()),
                _ => RowSource::BitmapFiltered {
                    rows: members.clone(),
                    pred: compile_pred(&table, &gt).unwrap(),
                },
            };
            for strategy in [GroupStrategy::Dense, GroupStrategy::Hash] {
                let (serial, scanned) = aggregate(&table, q, &make(), strategy).unwrap();
                assert!(!serial.is_empty(), "{label}: nothing selected");
                for morsel_rows in [1000usize, 4097] {
                    for threads in [2usize, 3] {
                        let (mor, mor_scanned, metrics) =
                            aggregate_morsel(&table, q, &make(), strategy, threads, morsel_rows)
                                .unwrap();
                        assert_eq!(
                            mor, serial,
                            "{label} {strategy:?} × {threads} × {morsel_rows}"
                        );
                        assert_eq!(mor_scanned, scanned);
                        assert!(metrics.expect("fans out").morsels > 1);
                    }
                }
            }
        }
    }

    // Engine level, scheduling set here rather than from the
    // environment.
    let config = |threads, morsel_rows| ParallelConfig {
        threads,
        min_parallel_rows: 0,
        morsel_rows,
        ..Default::default()
    };
    let reference = ScanDb::with_config(
        table.clone(),
        ScanDbConfig {
            parallel: config(1, zv_storage::exec::MORSEL_ROWS),
            ..ScanDbConfig::uncached()
        },
    );
    for morsel_rows in [1000usize, 4097] {
        let engines: Vec<Box<dyn Database>> = vec![
            Box::new(ScanDb::with_config(
                table.clone(),
                ScanDbConfig {
                    parallel: config(2, morsel_rows),
                    ..ScanDbConfig::uncached()
                },
            )),
            Box::new(BitmapDb::with_config(
                table.clone(),
                BitmapDbConfig {
                    parallel: config(2, morsel_rows),
                    ..BitmapDbConfig::uncached()
                },
            )),
        ];
        for q in &queries {
            for pred in [
                Predicate::True,
                gt.clone(),
                between.clone(),
                Predicate::cat_eq("product", "p2").and(gt.clone()),
            ] {
                let q = q.clone().with_predicate(pred);
                let expect = reference.execute(&q).unwrap();
                for db in &engines {
                    assert_eq!(
                        db.execute(&q).unwrap(),
                        expect,
                        "{} × {morsel_rows}",
                        db.name()
                    );
                }
            }
        }
        for db in &engines {
            assert!(db.stats().snapshot().morsel_scans > 0, "{}", db.name());
        }
    }
}
