//! Encoded ≡ plain, bit-for-bit: a query's result must not depend on
//! how the columns happen to be chunk-encoded. Tables are built three
//! ways from identical rows — `EncodePolicy::off` (plain vectors),
//! `EncodePolicy::auto` (cost-based per-chunk selection), and
//! `EncodePolicy::force` (64-row chunks, always sealed to the cheaper
//! of RLE/bit-packed, so even tiny proptest tables exercise packed
//! paths) — and every query must agree across ScanDb/BitmapDb ×
//! serial/morsel routing.
//!
//! Measures are exact dyadic rationals (multiples of 0.25 well below
//! 2⁵³), the PR 4/9 idiom: float aggregation is associative on this
//! data, so bit-for-bit equality is the correct assertion even under
//! forced multi-worker scheduling.
//!
//! Also covered here:
//!
//! * `execute_range` delta scans whose `[start, end)` straddles sealed
//!   encoded-chunk boundaries (the IVM tick path) — the range decoder
//!   must enter and leave RLE runs and bit-packed words mid-chunk;
//! * `BitmapFiltered` row sources (bitmap candidates plus a residual
//!   filter) scanned straight through `exec`, serial and morsel, where
//!   the residual's window masks are evaluated over packed and RLE
//!   chunks under a sparse source mask;
//! * a `FaultPoint::ChunkScanPanic` chaos case over packed chunks:
//!   injected worker panics on a force-encoded table fail cleanly and
//!   the retried query still returns the plain table's exact result.

use proptest::prelude::*;
use std::sync::Arc;
use zv_storage::column::EncodePolicy;
use zv_storage::exec::{
    aggregate, aggregate_morsel, build_dim, compile_pred, ParallelConfig, RowSource,
};
use zv_storage::fault::{self, FaultPoint, FaultSpec, PANIC_MARKER};
use zv_storage::{
    Agg, Atom, BitmapDb, BitmapDbConfig, CmpOp, DataType, Database, DynDatabase, Field,
    GroupStrategy, Predicate, QueryCtx, RoaringBitmap, ScanDb, ScanDbConfig, Schema, SelectQuery,
    StorageError, Table, TableBuilder, Value, XSpec, YSpec,
};

/// One run of identical rows. Runs are what make the generated data
/// hit *every* encoding: long runs seal as RLE, short runs of narrow
/// values bit-pack, and wild 64-bit values stay plain under `auto`
/// (and stress full-width word-straddling extraction under `force`).
type Run = (i64, u8, i16, u8);

fn flatten(runs: &[Run]) -> Vec<(i64, u8, i16)> {
    let mut out = Vec::new();
    for &(year, product, sales, len) in runs {
        for _ in 0..len.max(1) {
            out.push((year, product, sales));
        }
    }
    out
}

fn build(rows: &[(i64, u8, i16)], policy: EncodePolicy) -> Arc<Table> {
    let schema = Schema::new(vec![
        Field::new("year", DataType::Int),
        Field::new("product", DataType::Cat),
        Field::new("sales", DataType::Float),
    ]);
    let mut b = TableBuilder::with_encoding(schema, policy);
    for &(y, p, s) in rows {
        b.push_row(vec![
            Value::Int(y),
            Value::str(format!("p{p}")),
            Value::Float(s as f64 * 0.25),
        ])
        .unwrap();
    }
    b.finish_shared()
}

/// Fault pinned off: this suite asserts bit-for-bit equivalence, which
/// an env-armed injected panic (CI's chaos legs) is *supposed* to
/// break; the chaos case below arms its own spec deliberately.
fn serial() -> ParallelConfig {
    ParallelConfig {
        threads: 1,
        min_parallel_rows: usize::MAX,
        fault: FaultSpec::disabled(),
        ..Default::default()
    }
}

fn morsel() -> ParallelConfig {
    ParallelConfig {
        threads: 4,
        min_parallel_rows: 0,
        // Tiny morsels so small proptest tables still fan out; 64 also
        // aligns morsel boundaries with force-mode chunk seams.
        morsel_rows: 64,
        fault: FaultSpec::disabled(),
    }
}

fn make(engine: &str, table: Arc<Table>, parallel: ParallelConfig) -> DynDatabase {
    match engine {
        "bitmap" => Arc::new(BitmapDb::with_config(
            table,
            BitmapDbConfig {
                parallel,
                ..BitmapDbConfig::uncached()
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

/// Year values drawn from three regimes: a constant (whole chunks of
/// it seal at bit width 0), a narrow band (frame-of-reference packs to
/// a few bits), and wild ±2⁴⁰ values (plain under auto; >40-bit
/// word-straddling lanes under force, while `SUM(year)` over ≤ a few
/// hundred rows still sums exactly in f64, keeping bit-for-bit valid).
fn arb_runs() -> impl Strategy<Value = Vec<Run>> {
    let year = prop_oneof![Just(2042i64), 2000i64..2064, -(1i64 << 40)..(1i64 << 40),];
    prop::collection::vec((year, 0u8..5, -400i16..400, 1u8..80), 1..16)
}

fn arb_pred() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        Just(Predicate::True),
        (0u8..6).prop_map(|p| Predicate::cat_eq("product", format!("p{p}"))),
        (1990i64..2070).prop_map(|y| Predicate::num_eq("year", y as f64)),
        (1990i64..2070).prop_map(|y| {
            Predicate::atom(Atom::NumCmp {
                col: "year".into(),
                op: CmpOp::Ge,
                value: y as f64,
            })
        }),
        ((0u8..6), (1990i64..2070)).prop_map(|(p, y)| {
            Predicate::cat_eq("product", format!("p{p}")).and(Predicate::atom(Atom::NumCmp {
                col: "year".into(),
                op: CmpOp::Lt,
                value: y as f64,
            }))
        }),
        ((0u8..6), (0u8..6)).prop_map(|(a, b)| {
            Predicate::Or(vec![
                vec![Atom::CatEq {
                    col: "product".into(),
                    value: format!("p{a}"),
                }],
                vec![Atom::CatEq {
                    col: "product".into(),
                    value: format!("p{b}"),
                }],
            ])
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
    (arb_pred(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(pred, binned, with_z, minmax)| {
            // Binned X exercises the floor-divide gather kernel over
            // packed lanes; raw X the offset/rank gathers.
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
                    YSpec::new("*", Agg::Count),
                    YSpec::sum("year"),
                ]
            };
            let mut q = SelectQuery::new(x, ys).with_predicate(pred);
            if with_z {
                q = q.with_z("product");
            }
            q
        },
    )
}

/// The force-built table must actually carry sealed encoded chunks
/// once it outgrows one 64-row chunk — otherwise the suite would be
/// vacuously comparing plain to plain.
fn assert_sealed_encoded(t: &Table) {
    let counts = t
        .column("year")
        .unwrap()
        .encoding_counts()
        .expect("int columns report encoding counts");
    assert_eq!(counts.plain, 0, "force mode never seals a plain chunk");
    assert!(
        counts.packed + counts.rle > 0,
        "expected sealed encoded chunks, got only {} tail rows",
        counts.tail_rows
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline invariant: off/auto/force builds of the same rows
    /// answer every query identically, across both engines and both
    /// schedulers, bit for bit.
    #[test]
    fn encoded_equals_plain_across_engines_and_schedulers(
        runs in arb_runs(),
        query in arb_query(),
    ) {
        let rows = flatten(&runs);
        let plain = build(&rows, EncodePolicy::off());
        let auto = build(&rows, EncodePolicy::auto());
        let force = build(&rows, EncodePolicy::force());
        if rows.len() >= 128 {
            assert_sealed_encoded(&force);
        }
        for (label, engine, parallel) in matrix() {
            let reference = make(engine, plain.clone(), parallel)
                .execute(&query)
                .expect("plain execute");
            for (policy, table) in [("auto", &auto), ("force", &force)] {
                let got = make(engine, table.clone(), parallel)
                    .execute(&query)
                    .expect("encoded execute");
                prop_assert_eq!(
                    &got, &reference,
                    "{} diverged from plain on {}", policy, &label
                );
            }
        }
    }

    /// Delta scans: `execute_range` windows that straddle sealed-chunk
    /// seams (force mode seals every 64 rows, so almost any window
    /// crosses one) must agree with the plain build — entering an RLE
    /// run or a packed word mid-chunk and leaving it mid-chunk.
    #[test]
    fn execute_range_agrees_across_encoded_chunk_boundaries(
        runs in arb_runs(),
        query in arb_query(),
        bounds in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let rows = flatten(&runs);
        let n = rows.len();
        let (a, b) = (
            (bounds.0 * n as f64) as usize,
            (bounds.1 * n as f64) as usize,
        );
        let (start, end) = (a.min(b), a.max(b).min(n));
        let plain = build(&rows, EncodePolicy::off());
        let force = build(&rows, EncodePolicy::force());
        let ctx = QueryCtx::new();
        for (label, engine, parallel) in matrix() {
            let reference = make(engine, plain.clone(), parallel)
                .pin()
                .execute_range(&query, &ctx, start, end)
                .expect("plain execute_range")
                .0;
            let got = make(engine, force.clone(), parallel)
                .pin()
                .execute_range(&query, &ctx, start, end)
                .expect("encoded execute_range")
                .0;
            prop_assert_eq!(
                &got, &reference,
                "range [{}, {}) diverged on {}", start, end, &label
            );
        }
    }
}

/// The composite group-key space of `query` over `t`: the product of
/// its axes' cardinalities.
fn key_space(t: &Table, query: &SelectQuery) -> u128 {
    let axes = query.zs.iter().map(|z| XSpec::raw(z.clone()));
    axes.chain([query.x.clone()])
        .map(|axis| build_dim(t, &axis).unwrap().cardinality().max(1) as u128)
        .product()
}

fn bitmap_filtered<'t>(t: &'t Table, bm: &RoaringBitmap, residual: &Predicate) -> RowSource<'t> {
    RowSource::BitmapFiltered {
        rows: bm.clone(),
        pred: compile_pred(t, residual).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `BitmapFiltered` sources over force-encoded chunks: the query's
    /// predicate runs as the residual of a bitmap of candidate rows, so
    /// packed/RLE chunk kernels see sparse, ragged source masks. Serial
    /// and morsel scans of the force build must equal the plain build's
    /// serial scan bit for bit, and visit exactly the bitmap's rows.
    #[test]
    fn bitmap_filtered_sources_over_encoded_chunks(
        runs in arb_runs(),
        query in arb_query(),
        stride in 1u32..5,
        phase in 0u32..7,
    ) {
        let rows = flatten(&runs);
        let plain = build(&rows, EncodePolicy::off());
        let force = build(&rows, EncodePolicy::force());
        if rows.len() >= 128 {
            assert_sealed_encoded(&force);
        }
        let bm: RoaringBitmap = (0..rows.len() as u32)
            .filter(|r| (r / 7 + r + phase) % stride == 0)
            .collect();
        let source = |t| bitmap_filtered(t, &bm, &query.predicate);
        // Dense only where the engines would pick it: wild years make
        // key spaces far too wide for a dense array.
        let dense = key_space(&plain, &query) <= 1 << 16;
        let strategies = [GroupStrategy::Hash, GroupStrategy::Dense];
        for strategy in strategies.into_iter().take(1 + dense as usize) {
            let (reference, visited) =
                aggregate(&plain, &query, &source(&plain), strategy).unwrap();
            prop_assert_eq!(visited, bm.len());
            let (serial, serial_visited) =
                aggregate(&force, &query, &source(&force), strategy).unwrap();
            prop_assert_eq!(&serial, &reference, "serial over force diverged");
            prop_assert_eq!(serial_visited, visited);
            for morsel_rows in [64usize, 257] {
                let (mor, mor_visited, _) =
                    aggregate_morsel(&force, &query, &source(&force), strategy, 3, morsel_rows)
                        .unwrap();
                prop_assert_eq!(&mor, &reference, "morsel({}) over force diverged", morsel_rows);
                prop_assert_eq!(mor_visited, visited);
            }
        }
    }
}

/// Chaos over packed chunks: morsel workers panic mid-scan of a
/// force-encoded table under an armed `FaultPoint::ChunkScanPanic`
/// spec. Every failed attempt is the predicted transient
/// `WorkerPanicked`; the first clean epoch (or the injection-free
/// serial refuge) returns bit-for-bit the *plain* table's fault-free
/// result — a fault recovery must not land on a differently-decoded
/// answer.
#[test]
fn chunk_scan_panics_over_packed_chunks_recover_to_plain_result() {
    fault::silence_injected_panics();
    let n = 100_000usize;
    // Clustered key (runs of 500 → RLE chunks), narrow value (packs to
    // a handful of bits), dyadic measure.
    let rows: Vec<(i64, u8, i16)> = (0..n)
        .map(|i| {
            (
                ((i / 500) % 40) as i64,
                (i % 5) as u8,
                ((i % 1013) as i16) - 400,
            )
        })
        .collect();
    let plain = build(&rows, EncodePolicy::off());
    let force = build(&rows, EncodePolicy::force());
    assert_sealed_encoded(&force);

    // The spec CI's chaos leg forces via the environment, or a fixed
    // default so the test injects even in a plain `cargo test`.
    let env = FaultSpec::from_env();
    let spec = if env.is_enabled() {
        env
    } else {
        FaultSpec::with_rate(0xEC0DED, 0.2)
    };
    let morsel_rows = 4096;
    let n_morsels = n.div_ceil(morsel_rows);
    let db = ScanDb::with_config(
        force.clone(),
        ScanDbConfig {
            parallel: ParallelConfig {
                threads: 4,
                min_parallel_rows: 0,
                morsel_rows,
                fault: spec,
            },
            ..ScanDbConfig::uncached()
        },
    );
    let query = SelectQuery::new(
        XSpec::raw("year"),
        vec![YSpec::sum("sales"), YSpec::new("*", Agg::Count)],
    )
    .with_z("product");
    let reference = make("scan", plain, serial()).execute(&query).unwrap();

    let ctx = QueryCtx::new();
    let mut attempts = 0u32;
    let result = loop {
        let epoch = ctx.fault_epoch();
        let predicted =
            (0..n_morsels as u64).find(|&m| spec.fires(FaultPoint::ChunkScanPanic, m, epoch));
        let spawn_fails = spec.fires(FaultPoint::WorkerSpawn, n_morsels as u64, epoch);
        let r = db.execute_ctx(&query, &ctx);
        match &r {
            Err(StorageError::WorkerPanicked { payload, morsel }) => {
                assert!(!spawn_fails, "spawn failure preempts every worker");
                assert_eq!(
                    Some(*morsel),
                    predicted,
                    "lowest firing morsel wins attribution"
                );
                assert!(payload.contains(PANIC_MARKER), "payload: {payload}");
            }
            Err(StorageError::ResourceExhausted(_)) => {
                assert!(spawn_fails, "unpredicted spawn failure");
            }
            Err(other) => panic!("unexpected failure: {other:?}"),
            Ok(_) => {
                assert!(
                    !spawn_fails && predicted.is_none(),
                    "replay predicted a failure but the scan succeeded"
                );
                break r;
            }
        }
        attempts += 1;
        if attempts > 300 {
            // An env-forced rate near 1.0 never yields a clean epoch;
            // the injection-free serial refuge must still serve.
            ctx.force_serial();
            break db.execute_ctx(&query, &ctx);
        }
        ctx.advance_fault_epoch();
    };
    assert_eq!(
        result.expect("clean epoch or serial fallback"),
        reference,
        "recovered scan over packed chunks must equal the plain result"
    );
}
