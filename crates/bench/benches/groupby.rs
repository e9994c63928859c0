//! Ablation: dense-array vs hash-map group lookup — the
//! mechanism behind the Figure 7.5 crossover at 100% selectivity — plus
//! the serial-vs-morsel comparison and thread-scaling sweep for the
//! parallel aggregation engine at 1M rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use zv_datagen::sales::{self, product_name, SalesConfig};
use zv_datagen::skew;
use zv_storage::exec::{
    aggregate, aggregate_morsel, compile_pred, GroupStrategy, RowSource, MORSEL_ROWS,
};
use zv_storage::{BitmapDb, BitmapDbConfig, Database, Predicate, SelectQuery, XSpec, YSpec};

fn bench_group_strategies(c: &mut Criterion) {
    let table = sales::generate(&SalesConfig {
        rows: 200_000,
        products: 2_000,
        ..Default::default()
    });
    // Same engine, forced into each strategy.
    let dense = BitmapDb::with_config(
        table.clone(),
        BitmapDbConfig {
            dense_group_limit: u128::MAX,
            ..Default::default()
        },
    );
    let hash = BitmapDb::with_config(
        Arc::clone(&table),
        BitmapDbConfig {
            dense_group_limit: 0,
            ..Default::default()
        },
    );
    let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product");
    let groups = 2_000 * 7;

    let mut group = c.benchmark_group("group_lookup");
    group.sample_size(20);
    group.bench_with_input(
        BenchmarkId::new("dense_array", groups),
        &groups,
        |bencher, _| bencher.iter(|| black_box(dense.execute(&q).unwrap()).groups.len()),
    );
    group.bench_with_input(
        BenchmarkId::new("hash_map", groups),
        &groups,
        |bencher, _| bencher.iter(|| black_box(hash.execute(&q).unwrap()).groups.len()),
    );
    group.finish();
}

fn bench_selection_paths(c: &mut Criterion) {
    // Bitmap-index selection vs compiled-predicate scan on the same data.
    let table = sales::generate(&SalesConfig {
        rows: 200_000,
        products: 100,
        ..Default::default()
    });
    let bitmap = BitmapDb::new(table.clone());
    let scan = zv_storage::ScanDb::new(table);
    let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
        .with_predicate(zv_storage::Predicate::cat_eq("product", "stapler"));

    let mut group = c.benchmark_group("selection_1pct");
    group.sample_size(20);
    group.bench_function("bitmap_index", |bencher| {
        bencher.iter(|| black_box(bitmap.execute(&q).unwrap()))
    });
    group.bench_function("predicate_scan", |bencher| {
        bencher.iter(|| black_box(scan.execute(&q).unwrap()))
    });
    group.finish();
}

/// Serial vs morsel-parallel aggregation on a 1M-row sales table, both
/// group strategies. Thread count 0 = all hardware threads; on a
/// single-core host the two bars should be within noise of each other
/// (the morsel path degrades to the serial scan).
fn bench_serial_vs_parallel(c: &mut Criterion) {
    let table = sales::generate(&SalesConfig {
        rows: 1_000_000,
        products: 500,
        ..Default::default()
    });
    let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product");

    let mut group = c.benchmark_group("groupby_1m");
    group.sample_size(10);
    for (name, strategy) in [
        ("dense", GroupStrategy::Dense),
        ("hash", GroupStrategy::Hash),
    ] {
        group.bench_function(format!("serial_{name}"), |bencher| {
            bencher.iter(|| {
                let src = RowSource::All(table.num_rows());
                black_box(aggregate(&table, &q, &src, strategy).unwrap())
                    .0
                    .groups
                    .len()
            })
        });
        group.bench_function(format!("parallel_{name}"), |bencher| {
            bencher.iter(|| {
                let src = RowSource::All(table.num_rows());
                black_box(aggregate_morsel(&table, &q, &src, strategy, 0, MORSEL_ROWS).unwrap())
                    .0
                    .groups
                    .len()
            })
        });
    }
    group.finish();
}

/// Thread-scaling sweep for the morsel scan at 1M rows.
fn bench_thread_scaling(c: &mut Criterion) {
    let table = sales::generate(&SalesConfig {
        rows: 1_000_000,
        products: 500,
        ..Default::default()
    });
    let q = SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product");

    let mut group = c.benchmark_group("thread_scaling_1m");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |bencher, &t| {
                bencher.iter(|| {
                    let src = RowSource::All(table.num_rows());
                    black_box(
                        aggregate_morsel(&table, &q, &src, GroupStrategy::Dense, t, MORSEL_ROWS)
                            .unwrap(),
                    )
                    .0
                    .groups
                    .len()
                })
            },
        );
    }
    group.finish();
}

/// Morsel scheduling under a skewed selective predicate at 1M rows:
/// every matching row sits in the first eighth of the table, and morsel
/// claiming spreads the accumulation work over the workers.
fn bench_skewed_scheduling(c: &mut Criterion) {
    let table = skew::generate(1_000_000);
    let q = SelectQuery::new(XSpec::raw("key"), vec![YSpec::sum("val")]);
    let pred = skew::hot_predicate();
    let make_src = || RowSource::Filtered {
        n_rows: table.num_rows(),
        pred: compile_pred(&table, &pred).unwrap(),
    };

    let mut group = c.benchmark_group("skewed_scheduling_1m");
    group.sample_size(10);
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("morsel", threads),
            &threads,
            |bencher, &t| {
                bencher.iter(|| {
                    black_box(
                        aggregate_morsel(
                            &table,
                            &q,
                            &make_src(),
                            GroupStrategy::Dense,
                            t,
                            MORSEL_ROWS,
                        )
                        .unwrap(),
                    )
                    .0
                    .groups
                    .len()
                })
            },
        );
    }
    group.finish();
}

/// Engine-level result cache at 1M rows: a cold request (cache disabled,
/// full scan every time) vs a warm request (identical query answered from
/// the LRU without touching the table). The gap is the round-trip cost an
/// interactive session saves on every replayed slice.
fn bench_cache_cold_vs_warm(c: &mut Criterion) {
    let table = sales::generate(&SalesConfig {
        rows: 1_000_000,
        products: 500,
        ..Default::default()
    });
    let queries =
        [SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")]).with_z("product")];
    let cold_db = BitmapDb::with_config(table.clone(), BitmapDbConfig::uncached());
    let warm_db = BitmapDb::new(Arc::clone(&table));
    warm_db.run_request(&queries).unwrap(); // prime the cache

    let mut group = c.benchmark_group("cache_1m");
    group.sample_size(10);
    group.bench_function("cold_request", |bencher| {
        bencher.iter(|| black_box(cold_db.run_request(&queries).unwrap()).len())
    });
    group.bench_function("warm_request", |bencher| {
        bencher.iter(|| black_box(warm_db.run_request(&queries).unwrap()).len())
    });
    // An interactive per-product slice sweep against the cached full
    // group-by: answered by subsumption (first visit of a product) or
    // exactly (revisits) — either way zero base rows are scanned.
    let next = Cell::new(0usize);
    group.bench_function("derived_slice_sweep", |bencher| {
        bencher.iter(|| {
            let i = next.get();
            next.set((i + 1) % 500);
            let q = [
                SelectQuery::new(XSpec::raw("year"), vec![YSpec::sum("sales")])
                    .with_predicate(Predicate::cat_eq("product", product_name(i))),
            ];
            black_box(warm_db.run_request(&q).unwrap()).len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_group_strategies,
    bench_selection_paths,
    bench_serial_vs_parallel,
    bench_thread_scaling,
    bench_skewed_scheduling,
    bench_cache_cold_vs_warm
);
criterion_main!(benches);
