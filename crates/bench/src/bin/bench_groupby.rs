//! Perf-trajectory tracker for the aggregation hot path: measures serial
//! vs morsel-parallel grouped aggregation on a generated sales table —
//! plus the engine-level result cache (cold vs warm request latency and
//! hit rate, and subsumption-derived per-Z-slice hits vs cold slice
//! execution) — and dumps a machine-readable summary.
//!
//! ```text
//! bench_groupby [--rows N] [--threads 1,2,4,8] [--reps K] [--json PATH]
//!               [--mega-rows N]
//! ```
//!
//! Writes `BENCH_groupby.json` (override with `--json`) so successive
//! PRs can diff the numbers. Speedups are relative to the serial chunked
//! scan on the same machine; on a single-core host expect ≈1.0 for the
//! parallel rows, while the cache speedup is scan-avoidance and shows up
//! regardless of core count.

use std::time::Instant;
use zv_datagen::sales::{self, product_name, SalesConfig};
use zv_datagen::skew;
use zv_storage::exec::{
    aggregate, aggregate_morsel, compile_pred, GroupStrategy, RowSource, MORSEL_ROWS,
};
use zv_storage::{BitmapDb, BitmapDbConfig, Database, Predicate, SelectQuery, XSpec, YSpec};

struct Args {
    rows: usize,
    /// Rows for the encoded-only compression stress table (dict/RLE
    /// chunks keep it resident: ~0.5 bytes/row instead of 16).
    mega_rows: usize,
    threads: Vec<usize>,
    reps: usize,
    json: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        rows: 1_000_000,
        mega_rows: 100_000_000,
        threads: vec![1, 2, 4, 8],
        reps: 5,
        json: "BENCH_groupby.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rows" => args.rows = it.next().expect("--rows N").parse().expect("row count"),
            "--mega-rows" => {
                args.mega_rows = it
                    .next()
                    .expect("--mega-rows N")
                    .parse()
                    .expect("mega row count")
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .expect("--threads list")
                    .split(',')
                    .map(|t| t.parse().expect("thread count"))
                    .collect()
            }
            "--reps" => args.reps = it.next().expect("--reps K").parse().expect("rep count"),
            "--json" => args.json = it.next().expect("--json PATH"),
            "--quick" => {
                args.rows = args.rows.min(200_000);
                args.mega_rows = args.mega_rows.min(2_000_000);
                args.reps = 2;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Structural equality with float tolerance: same groups, keys, and
/// x-values; y-values within relative 1e-9. The derived slice and the
/// direct scan reduce floats in different orders, so with forced
/// multi-worker scheduling (`ZV_SCHED_THREADS`) inexact measures can
/// differ in the last ulp — bit-for-bit derived ≡ direct is proptested
/// on exact dyadic data in `cache_derivation.rs`, which is where that
/// assertion belongs.
fn assert_close(a: &zv_storage::ResultTable, b: &zv_storage::ResultTable, what: &str) {
    assert_eq!(a.groups.len(), b.groups.len(), "{what}: group count");
    for (ga, gb) in a.groups.iter().zip(&b.groups) {
        assert_eq!(ga.key, gb.key, "{what}: group key");
        assert_eq!(ga.xs, gb.xs, "{what}: x-values");
        assert_eq!(ga.ys.len(), gb.ys.len(), "{what}: series count");
        for (ya, yb) in ga.ys.iter().zip(&gb.ys) {
            assert_eq!(ya.len(), yb.len(), "{what}: series length");
            for (va, vb) in ya.iter().zip(yb) {
                let tol = 1e-9 * va.abs().max(vb.abs()).max(1.0);
                assert!(
                    (va - vb).abs() <= tol,
                    "{what}: y diverged beyond float merge-order tolerance ({va} vs {vb})"
                );
            }
        }
    }
}

/// Best-of-`reps` wall-clock in milliseconds.
fn best_ms(reps: usize, mut f: impl FnMut() -> usize) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut out = 0;
    for _ in 0..reps {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

fn main() {
    let args = parse_args();
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "generating {} sales rows ({} hardware threads available)…",
        args.rows, hardware
    );
    let table = sales::generate(&SalesConfig {
        rows: args.rows,
        products: 500,
        ..Default::default()
    });
    let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product");

    let mut entries: Vec<String> = Vec::new();
    let mut summary: Vec<String> = Vec::new();
    for (name, strategy) in [
        ("dense", GroupStrategy::Dense),
        ("hash", GroupStrategy::Hash),
    ] {
        let (serial_ms, groups) = best_ms(args.reps, || {
            let src = RowSource::All(table.num_rows());
            aggregate(&table, &q, &src, strategy)
                .unwrap()
                .0
                .groups
                .len()
        });
        println!("{name:>6} serial      {serial_ms:9.2} ms   ({groups} groups)");
        entries.push(format!(
            "    {{\"strategy\": \"{name}\", \"mode\": \"serial\", \"threads\": 1, \
             \"best_ms\": {serial_ms:.3}}}"
        ));
        for &t in &args.threads {
            let (par_ms, pgroups) = best_ms(args.reps, || {
                let src = RowSource::All(table.num_rows());
                aggregate_morsel(&table, &q, &src, strategy, t, MORSEL_ROWS)
                    .unwrap()
                    .0
                    .groups
                    .len()
            });
            assert_eq!(pgroups, groups, "parallel result diverged");
            let speedup = serial_ms / par_ms;
            println!("{name:>6} parallel×{t:<2} {par_ms:9.2} ms   speedup {speedup:5.2}×");
            entries.push(format!(
                "    {{\"strategy\": \"{name}\", \"mode\": \"parallel\", \"threads\": {t}, \
                 \"best_ms\": {par_ms:.3}, \"speedup\": {speedup:.3}}}"
            ));
            if Some(&t) == args.threads.iter().max() {
                summary.push(format!("\"{name}_max_speedup\": {speedup:.3}"));
            }
        }
    }

    // Morsel scheduling under a *skewed* selective predicate: every
    // matching row sits in the first eighth of the table, so a contiguous
    // per-worker split would strand all the accumulation work on its
    // first worker while the others only evaluate the (cheap) filter;
    // morsel claiming lets free workers absorb the hot region. On a
    // single-core host the morsel scan collapses to the serial scan
    // (expect ≈1.0×); the gap appears with real hardware threads.
    {
        let skew_table = skew::generate(args.rows);
        let skew_q = SelectQuery::new(
            XSpec::raw("key"),
            vec![
                YSpec::sum("val"),
                YSpec::new("val", zv_storage::Agg::Min),
                YSpec::new("val", zv_storage::Agg::Max),
            ],
        );
        let pred = skew::hot_predicate();
        let make_src = || RowSource::Filtered {
            n_rows: skew_table.num_rows(),
            pred: compile_pred(&skew_table, &pred).unwrap(),
        };
        // Bit-for-bit reference (the measures are exactly representable,
        // so the morsel scan must reproduce the serial result exactly).
        let reference = aggregate(&skew_table, &skew_q, &make_src(), GroupStrategy::Dense)
            .unwrap()
            .0;
        let (serial_ms, groups) = best_ms(args.reps, || {
            aggregate(&skew_table, &skew_q, &make_src(), GroupStrategy::Dense)
                .unwrap()
                .0
                .groups
                .len()
        });
        println!("  skew serial      {serial_ms:9.2} ms   ({groups} groups)");
        entries.push(format!(
            "    {{\"strategy\": \"skew_serial\", \"mode\": \"serial\", \"threads\": 1, \
             \"best_ms\": {serial_ms:.3}}}"
        ));
        let mut morsel_best = f64::INFINITY;
        for &t in &args.threads {
            let (morsel_ms, _) = best_ms(args.reps.max(3), || {
                let mor = aggregate_morsel(
                    &skew_table,
                    &skew_q,
                    &make_src(),
                    GroupStrategy::Dense,
                    t,
                    MORSEL_ROWS,
                )
                .unwrap()
                .0;
                // Full-result comparison: group counts alone would be
                // vacuously 1 here (no Z).
                assert_eq!(mor, reference, "morsel skew result diverged");
                mor.groups.len()
            });
            // Only real fan-outs feed the summary: at one thread the
            // morsel scan is the serial scan.
            if t >= 2 {
                morsel_best = morsel_best.min(morsel_ms);
            }
            let speedup = serial_ms / morsel_ms;
            println!("  skew morsel×{t:<2}   {morsel_ms:9.2} ms   speedup {speedup:5.2}×");
            entries.push(format!(
                "    {{\"strategy\": \"skew_morsel\", \"mode\": \"parallel\", \"threads\": {t}, \
                 \"best_ms\": {morsel_ms:.3}, \"speedup\": {speedup:.3}}}"
            ));
        }
        if !morsel_best.is_finite() {
            // No multi-thread entries in the sweep: report the serial
            // latency rather than NaN.
            morsel_best = serial_ms;
        }
        summary.push(format!("\"morsel_skew_serial_ms\": {serial_ms:.3}"));
        summary.push(format!("\"morsel_skew_ms\": {morsel_best:.3}"));
    }

    // Engine-level result cache: one cold request (scan + insert), then
    // best-of-reps warm requests on the same engine (pure cache hits).
    // Admission policy is not what this harness measures: admit
    // everything so tiny `--rows` runs still exercise the warm and
    // derived paths instead of tripping the zero-scan asserts.
    let db = BitmapDb::with_config(
        table.clone(),
        BitmapDbConfig {
            cache: zv_storage::CacheConfig::admit_all(),
            ..Default::default()
        },
    );
    let queries = std::slice::from_ref(&q);
    let start = Instant::now();
    let cold_groups = db.run_request(queries).expect("cold request")[0]
        .groups
        .len();
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    let (warm_ms, warm_groups) = best_ms(args.reps.max(3), || {
        db.run_request(queries).expect("warm request")[0]
            .groups
            .len()
    });
    assert_eq!(cold_groups, warm_groups, "cached result diverged");
    let cache = db.cache_stats().expect("default engine carries a cache");
    let hit_rate = cache.hit_rate();
    let cache_speedup = cold_ms / warm_ms.max(1e-6);
    println!(" cache cold        {cold_ms:9.2} ms   ({cold_groups} groups)");
    println!(
        " cache warm        {warm_ms:9.2} ms   speedup {cache_speedup:5.2}×  hit rate {:.2}",
        hit_rate
    );
    entries.push(format!(
        "    {{\"strategy\": \"cache\", \"mode\": \"cold\", \"threads\": 1, \
         \"best_ms\": {cold_ms:.3}}}"
    ));
    entries.push(format!(
        "    {{\"strategy\": \"cache\", \"mode\": \"warm\", \"threads\": 1, \
         \"best_ms\": {warm_ms:.3}, \"speedup\": {cache_speedup:.3}}}"
    ));
    summary.push(format!("\"cache_cold_ms\": {cold_ms:.3}"));
    summary.push(format!("\"cache_warm_ms\": {warm_ms:.3}"));
    summary.push(format!("\"cache_hit_rate\": {hit_rate:.3}"));
    summary.push(format!("\"cache_speedup\": {cache_speedup:.3}"));

    // Partial-result reuse: the cached (year, sum sales, z=product)
    // group-by answers per-product Z-slices by subsumption — a filter
    // over ~500 cached groups instead of a scan over all rows. Each rep
    // slices a *different* product so every request exercises the
    // derivation path itself (repeats would be exact hits).
    let bypass = BitmapDb::with_config(table.clone(), BitmapDbConfig::uncached());
    let slice_q = |i: usize| {
        SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
            .with_predicate(Predicate::cat_eq("product", product_name(i)))
    };
    let reps = args.reps.max(3);
    let mut cold_slice_ms = f64::INFINITY;
    let mut derived_ms = f64::INFINITY;
    let mut derived_groups = 0usize;
    let scan_before = db.stats().snapshot();
    for i in 0..reps {
        let q = slice_q(i);
        let start = Instant::now();
        let cold = bypass.execute(&q).expect("cold slice");
        cold_slice_ms = cold_slice_ms.min(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let derived = db
            .run_request(std::slice::from_ref(&q))
            .expect("derived slice");
        derived_ms = derived_ms.min(start.elapsed().as_secs_f64() * 1e3);
        assert_close(&derived[0], &cold, "derived slice");
        derived_groups = derived[0].groups.len();
    }
    let scan_delta = db.stats().snapshot().since(&scan_before);
    assert_eq!(
        scan_delta.rows_scanned, 0,
        "derived slices must scan zero base rows"
    );
    let derived_hit_rate = scan_delta.cache_derived_hits as f64 / reps as f64;
    let derived_speedup = cold_slice_ms / derived_ms.max(1e-6);
    println!(" slice cold        {cold_slice_ms:9.2} ms   ({derived_groups} groups)");
    println!(
        " slice derived     {derived_ms:9.2} ms   speedup {derived_speedup:5.2}×  hit rate {derived_hit_rate:.2}"
    );
    entries.push(format!(
        "    {{\"strategy\": \"derived\", \"mode\": \"cold\", \"threads\": 1, \
         \"best_ms\": {cold_slice_ms:.3}}}"
    ));
    entries.push(format!(
        "    {{\"strategy\": \"derived\", \"mode\": \"hit\", \"threads\": 1, \
         \"best_ms\": {derived_ms:.3}, \"speedup\": {derived_speedup:.3}}}"
    ));
    summary.push(format!("\"derived_cold_ms\": {cold_slice_ms:.3}"));
    summary.push(format!("\"derived_hit_ms\": {derived_ms:.3}"));
    summary.push(format!("\"derived_hit_rate\": {derived_hit_rate:.3}"));
    summary.push(format!("\"derived_speedup\": {derived_speedup:.3}"));

    // Fault-injection hook overhead: every morsel scan (and cache
    // insert) consults the engine's `FaultSpec`, so an *armed* spec
    // that never fires (non-zero seed, rate 0) measures the cost of
    // the hooks themselves against the disabled spec's single-branch
    // short-circuit. The reps are interleaved like the skew A/B above
    // so machine drift cancels instead of biasing one side. Expected
    // ≈1.0; bench_check gates the ratio absolutely.
    {
        use zv_storage::fault::FaultSpec;
        use zv_storage::{ScanDb, ScanDbConfig};
        let scan_q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
        let mk = |fault: FaultSpec| {
            let mut cfg = ScanDbConfig::uncached();
            cfg.parallel.fault = fault;
            cfg.parallel.min_parallel_rows = 0;
            ScanDb::with_config(table.clone(), cfg)
        };
        let plain = mk(FaultSpec::disabled());
        let armed = mk(FaultSpec {
            seed: 1,
            rate_ppm: 0,
            delay_us: 0,
        });
        let reference = plain.execute(&scan_q).expect("fault-free scan");
        let mut plain_ms = f64::INFINITY;
        let mut armed_ms = f64::INFINITY;
        for _ in 0..args.reps.max(3) {
            let start = Instant::now();
            let p = plain.execute(&scan_q).expect("fault-free scan");
            plain_ms = plain_ms.min(start.elapsed().as_secs_f64() * 1e3);
            let start = Instant::now();
            let a = armed.execute(&scan_q).expect("armed-at-zero scan");
            armed_ms = armed_ms.min(start.elapsed().as_secs_f64() * 1e3);
            // Outside the timed windows: armed-but-silent hooks must
            // not perturb the result either.
            assert_close(&p, &reference, "fault-free scan");
            assert_close(&a, &reference, "armed-at-zero scan");
        }
        let fault_overhead_ratio = armed_ms / plain_ms.max(1e-6);
        println!(
            " fault hooks off   {plain_ms:9.2} ms | armed@0  {armed_ms:9.2} ms   \
             overhead {fault_overhead_ratio:5.2}×"
        );
        entries.push(format!(
            "    {{\"strategy\": \"fault_hooks\", \"mode\": \"disabled\", \"threads\": 0, \
             \"best_ms\": {plain_ms:.3}}}"
        ));
        entries.push(format!(
            "    {{\"strategy\": \"fault_hooks\", \"mode\": \"armed_zero\", \"threads\": 0, \
             \"best_ms\": {armed_ms:.3}, \"speedup\": {:.3}}}",
            1.0 / fault_overhead_ratio.max(1e-6)
        ));
        summary.push(format!("\"fault_disabled_ms\": {plain_ms:.3}"));
        summary.push(format!("\"fault_armed_ms\": {armed_ms:.3}"));
        summary.push(format!(
            "\"fault_overhead_ratio\": {fault_overhead_ratio:.3}"
        ));
    }

    // Compressed-column section. Two fixtures, both low-cardinality and
    // clustered the way the encodings want: `key = (i >> 10) % 100` seals
    // as RLE (1024-row runs inside every 4096-row chunk) and
    // `val = i % 16` bit-packs to 4-bit lanes.
    //
    // 1. An A/B pair at `--rows` scale built with explicit off/auto
    //    policies (immune to `ZV_ENCODING`): same data, plain vs encoded
    //    chunks, scanned by the identical serial kernel. Feeds the
    //    `compression_ratio` (bytes_per_row must drop ≥4x on this
    //    fixture) and `encoded_scan_ratio` (packed scans must stay
    //    within 1.15x of plain) gates, plus per-encoding chunk counts.
    // 2. An encoded-only stress table at `--mega-rows` (default 100M):
    //    at ~0.5 bytes/row it stays resident where the plain layout
    //    (16 B/row) would not, and its group-by feeds `scan_gb_s` —
    //    logical (uncompressed) bytes per second of wall clock.
    {
        use std::sync::Arc;
        use zv_storage::{Column, DataType, EncodePolicy, Field, IntColumn, Schema, Table};

        let lowcard = |rows: usize, policy: EncodePolicy| -> Arc<Table> {
            let schema = Schema::new(vec![
                Field::new("key", DataType::Int),
                Field::new("val", DataType::Int),
            ]);
            let mut key = IntColumn::new(policy);
            let mut val = IntColumn::new(policy);
            for i in 0..rows {
                key.push(((i >> 10) % 100) as i64);
                val.push((i % 16) as i64);
            }
            Arc::new(
                Table::from_columns(schema, vec![Column::Int(key), Column::Int(val)])
                    .expect("lowcard fixture schema is consistent"),
            )
        };
        let heap_bytes = |t: &Table| -> usize {
            (0..t.schema().len())
                .map(|i| t.column_at(i).heap_bytes())
                .sum()
        };
        let comp_q = SelectQuery::new(
            XSpec::raw("key"),
            vec![YSpec::sum("val"), YSpec::new("*", zv_storage::Agg::Count)],
        );
        let scan_ms = |t: &Arc<Table>, reps: usize| -> f64 {
            best_ms(reps, || {
                let src = RowSource::All(t.num_rows());
                aggregate(t, &comp_q, &src, GroupStrategy::Dense)
                    .unwrap()
                    .0
                    .groups
                    .len()
            })
            .0
        };

        // The A/B stays at 1M rows even under --quick: the 1.15x scan
        // ratio gate needs a scan long enough (tens of ms) that per-call
        // overhead and timer noise don't dominate — a 200k-row scan
        // finishes in ~2 ms and flaps past the gate on an idle box.
        let comp_rows = args.rows.max(1_000_000);
        let plain_t = lowcard(comp_rows, EncodePolicy::off());
        let enc_t = lowcard(comp_rows, EncodePolicy::auto());
        // Bit-for-bit equivalence outside the timed windows: integer
        // sums are exact in f64 at this scale, and both sides run the
        // same serial dense kernel, so assert_eq — not assert_close.
        {
            let src = RowSource::All(comp_rows);
            let a = aggregate(&plain_t, &comp_q, &src, GroupStrategy::Dense)
                .unwrap()
                .0;
            let b = aggregate(&enc_t, &comp_q, &src, GroupStrategy::Dense)
                .unwrap()
                .0;
            assert_eq!(a, b, "encoded scan diverged from plain");
        }
        let plain_scan_ms = scan_ms(&plain_t, args.reps.max(3));
        let encoded_scan_ms = scan_ms(&enc_t, args.reps.max(3));
        let encoded_scan_ratio = encoded_scan_ms / plain_scan_ms.max(1e-6);
        let bytes_per_row_plain = heap_bytes(&plain_t) as f64 / comp_rows.max(1) as f64;
        let bytes_per_row_encoded = heap_bytes(&enc_t) as f64 / comp_rows.max(1) as f64;
        let compression_ratio = bytes_per_row_plain / bytes_per_row_encoded.max(1e-9);
        let mut counts = zv_storage::EncodingCounts::default();
        for i in 0..enc_t.schema().len() {
            if let Some(c) = enc_t.column_at(i).encoding_counts() {
                counts.merge(&c);
            }
        }
        println!(
            " compression       {bytes_per_row_plain:6.2} -> {bytes_per_row_encoded:5.2} B/row \
             ({compression_ratio:5.1}x; {} packed / {} rle / {} plain chunks, {} tail rows)",
            counts.packed, counts.rle, counts.plain, counts.tail_rows
        );
        println!(
            " scan plain        {plain_scan_ms:9.2} ms | encoded  {encoded_scan_ms:9.2} ms   \
             ratio {encoded_scan_ratio:5.2}x"
        );
        entries.push(format!(
            "    {{\"strategy\": \"compression\", \"mode\": \"plain\", \"threads\": 1, \
             \"best_ms\": {plain_scan_ms:.3}}}"
        ));
        entries.push(format!(
            "    {{\"strategy\": \"compression\", \"mode\": \"encoded\", \"threads\": 1, \
             \"best_ms\": {encoded_scan_ms:.3}, \"speedup\": {:.3}}}",
            1.0 / encoded_scan_ratio.max(1e-6)
        ));
        summary.push(format!("\"bytes_per_row_plain\": {bytes_per_row_plain:.3}"));
        summary.push(format!(
            "\"bytes_per_row_encoded\": {bytes_per_row_encoded:.3}"
        ));
        summary.push(format!("\"compression_ratio\": {compression_ratio:.3}"));
        summary.push(format!("\"plain_scan_ms\": {plain_scan_ms:.3}"));
        summary.push(format!("\"encoded_scan_ms\": {encoded_scan_ms:.3}"));
        summary.push(format!("\"encoded_scan_ratio\": {encoded_scan_ratio:.3}"));
        summary.push(format!("\"enc_chunks_plain\": {}", counts.plain));
        summary.push(format!("\"enc_chunks_packed\": {}", counts.packed));
        summary.push(format!("\"enc_chunks_rle\": {}", counts.rle));
        summary.push(format!("\"enc_tail_rows\": {}", counts.tail_rows));

        // Encoded-only stress table: logical width is 16 B/row (two
        // i64 columns), so scan_gb_s credits the scan with the bytes it
        // *would* have read from the plain layout.
        eprintln!("building {}-row encoded stress table…", args.mega_rows);
        let mega_t = lowcard(args.mega_rows, EncodePolicy::auto());
        let mega_bytes_per_row = heap_bytes(&mega_t) as f64 / args.mega_rows.max(1) as f64;
        let mega_scan_ms = scan_ms(&mega_t, args.reps.clamp(2, 3));
        let scan_gb_s = (args.mega_rows as f64 * 16.0) / (mega_scan_ms.max(1e-6) / 1e3) / 1e9;
        println!(
            " mega scan         {mega_scan_ms:9.2} ms   ({} rows at {mega_bytes_per_row:.2} \
             B/row, {scan_gb_s:5.2} logical GB/s)",
            args.mega_rows
        );
        summary.push(format!("\"mega_rows\": {}", args.mega_rows));
        summary.push(format!("\"mega_bytes_per_row\": {mega_bytes_per_row:.3}"));
        summary.push(format!("\"mega_scan_ms\": {mega_scan_ms:.3}"));
        summary.push(format!("\"scan_gb_s\": {scan_gb_s:.3}"));
    }

    // Query-lifecycle section: how fast a cancel stops a full-table
    // scan (wall-clock from `cancel()` to the scan returning
    // `Cancelled`), plus a SessionManager slider burst recording the
    // supersede/cancel counters. Cancel latency is bounded by one
    // claim's worth of scan work per worker, so it should sit far below
    // a full scan.
    {
        use zv_storage::{QueryCtx, ScanDb, ScanDbConfig, StorageError};
        let cdb = ScanDb::with_config(table.clone(), ScanDbConfig::uncached());
        let scan_q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]);
        let mut cancel_latency_ms = f64::INFINITY;
        let mut cancelled_runs = 0u32;
        for _ in 0..args.reps.max(3) {
            let ctx = QueryCtx::new();
            let (landed, latency) = std::thread::scope(|s| {
                let handle = s.spawn(|| cdb.execute_ctx(&scan_q, &ctx));
                while ctx.stats().rows_scanned == 0 && !handle.is_finished() {
                    std::hint::spin_loop();
                }
                let t0 = Instant::now();
                ctx.cancel();
                let r = handle.join().expect("scan thread");
                (
                    matches!(r, Err(StorageError::Cancelled)),
                    t0.elapsed().as_secs_f64() * 1e3,
                )
            });
            if landed {
                cancelled_runs += 1;
                cancel_latency_ms = cancel_latency_ms.min(latency);
            }
        }
        if !cancel_latency_ms.is_finite() {
            // Every rep outran the cancel (plausible only on very small
            // --rows): report zero rather than poisoning the gate.
            cancel_latency_ms = 0.0;
        }
        println!(
            " cancel latency    {cancel_latency_ms:9.2} ms   ({cancelled_runs} mid-scan cancels)"
        );
        summary.push(format!("\"cancel_latency_ms\": {cancel_latency_ms:.3}"));
        summary.push(format!("\"cancel_runs\": {cancelled_runs}"));

        // Slider burst through the multi-session front-end: every
        // submit supersedes the previous query on the session.
        use zql::{QueryBuilder, ZqlEngine};
        use zv_server::{SessionConfig, SessionManager};
        use zv_storage::{Atom, CmpOp};
        let engine = std::sync::Arc::new(ZqlEngine::new(std::sync::Arc::new(ScanDb::with_config(
            table.clone(),
            ScanDbConfig::uncached(),
        ))));
        let mgr = SessionManager::new(engine, SessionConfig::default());
        const BURST: usize = 16;
        let start = Instant::now();
        let handles: Vec<_> = (0..BURST)
            .map(|step| {
                let q = QueryBuilder::new()
                    .output_row("f1", |r| {
                        r.x("year")
                            .y("sales")
                            .constraint(zv_storage::Predicate::atom(Atom::NumCmp {
                                col: "sales".into(),
                                op: CmpOp::Gt,
                                value: step as f64,
                            }))
                    })
                    .build();
                mgr.submit(1, q).expect("admitted")
            })
            .collect();
        for h in handles {
            let _ = h.wait();
        }
        let burst_ms = start.elapsed().as_secs_f64() * 1e3;
        let s = mgr.stats();
        assert_eq!(s.completed + s.cancelled + s.failed, BURST as u64);
        println!(
            " supersede burst   {burst_ms:9.2} ms   ({} superseded, {} cancelled, {} completed)",
            s.superseded, s.cancelled, s.completed
        );
        summary.push(format!("\"supersede_burst_ms\": {burst_ms:.3}"));
        summary.push(format!("\"supersede_superseded\": {}", s.superseded));
        summary.push(format!("\"supersede_cancelled\": {}", s.cancelled));
        summary.push(format!("\"supersede_completed\": {}", s.completed));
    }

    let json = format!(
        "{{\n  \"rows\": {},\n  \"hardware_threads\": {},\n  \"results\": [\n{}\n  ],\n  {}\n}}\n",
        args.rows,
        hardware,
        entries.join(",\n"),
        summary.join(",\n  "),
    );
    std::fs::write(&args.json, &json).expect("write json summary");
    eprintln!("wrote {}", args.json);
}
