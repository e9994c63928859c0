//! End-to-end ZQL execution at each of the four §5.2 optimization levels
//! (the criterion companion to the fig7_1 harness).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use zql::{OptLevel, ZqlEngine};
use zv_datagen::{sales, SalesConfig};
use zv_storage::{BitmapDb, BitmapDbConfig, DynDatabase, Value};

// Criterion re-runs each engine many times over, so the engine-level
// result cache is disabled here (`BitmapDbConfig::uncached`): these
// benches measure the §5.2 batching ladder and the task processors, not
// warm cache hits (the cache has its own group in `benches/groupby.rs`).

const QUERY: &str = "name | x | y | z | constraints | viz | process\n\
    f1 | 'year' | 'sales' | v1 <- 'product'.P | location='US' | bar.(y=agg('sum')) | v2 <- argany(v1)[t > 0] T(f1)\n\
    f2 | 'year' | 'sales' | v1 | location='UK' | bar.(y=agg('sum')) | v3 <- argany(v1)[t < 0] T(f2)\n\
    *f3 | 'year' | 'profit' | v4 <- (v2.range | v3.range) | | bar.(y=agg('sum')) |";

fn bench_opt_levels(c: &mut Criterion) {
    let db: DynDatabase = Arc::new(BitmapDb::with_config(
        sales::generate(&SalesConfig {
            rows: 200_000,
            products: 100,
            ..Default::default()
        }),
        BitmapDbConfig::uncached(),
    ));
    let products: Vec<Value> = (0..20)
        .map(|p| Value::str(sales::product_name(p)))
        .collect();

    let mut group = c.benchmark_group("table_5_1_query");
    group.sample_size(10);
    for opt in [
        OptLevel::NoOpt,
        OptLevel::IntraLine,
        OptLevel::IntraTask,
        OptLevel::InterTask,
    ] {
        let mut engine = ZqlEngine::with_opt_level(db.clone(), opt);
        engine
            .registry_mut()
            .register_value_set("P", products.clone());
        group.bench_with_input(
            BenchmarkId::new("opt", format!("{opt:?}")),
            &opt,
            |bencher, _| {
                bencher.iter(|| {
                    black_box(engine.execute_text(QUERY).unwrap())
                        .visualizations
                        .len()
                })
            },
        );
    }
    group.finish();
}

fn bench_tasks(c: &mut Criterion) {
    use zql::{representative_search, similarity_search, TaskSpec};
    use zv_analytics::Series;
    let db: DynDatabase = Arc::new(BitmapDb::with_config(
        sales::generate(&SalesConfig {
            rows: 200_000,
            products: 200,
            ..Default::default()
        }),
        BitmapDbConfig::uncached(),
    ));
    let engine = ZqlEngine::new(db);
    let spec = TaskSpec::new("year", "sales", "product");
    let sketch = Series::from_ys(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);

    let mut group = c.benchmark_group("task_processors");
    group.sample_size(10);
    group.bench_function("similarity_200", |bencher| {
        bencher.iter(|| {
            similarity_search(&engine, &spec, &sketch, 5)
                .unwrap()
                .visualizations
        })
    });
    group.bench_function("representative_200", |bencher| {
        bencher.iter(|| {
            representative_search(&engine, &spec, 10)
                .unwrap()
                .visualizations
        })
    });
    group.finish();
}

/// End-to-end ZQL with the storage pool disabled vs enabled: the same
/// Table 5.1 query and similarity task, routed serially vs through the
/// morsel-parallel scan (1M-row sales table, InterTask batching in both
/// cases).
fn bench_parallel_routing(c: &mut Criterion) {
    use zql::{similarity_search, TaskSpec};
    use zv_analytics::Series;
    use zv_storage::ParallelConfig;

    let table = sales::generate(&SalesConfig {
        rows: 1_000_000,
        products: 100,
        ..Default::default()
    });
    let serial: DynDatabase = Arc::new(BitmapDb::with_config(
        table.clone(),
        BitmapDbConfig {
            parallel: ParallelConfig {
                threads: 1,
                min_parallel_rows: usize::MAX,
                ..Default::default()
            },
            ..BitmapDbConfig::uncached()
        },
    ));
    let parallel: DynDatabase = Arc::new(BitmapDb::with_config(
        table,
        BitmapDbConfig {
            parallel: ParallelConfig {
                threads: 0,
                min_parallel_rows: 1 << 16,
                ..Default::default()
            },
            ..BitmapDbConfig::uncached()
        },
    ));
    let products: Vec<Value> = (0..20)
        .map(|p| Value::str(sales::product_name(p)))
        .collect();
    let spec = TaskSpec::new("year", "sales", "product");
    let sketch = Series::from_ys(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);

    let mut group = c.benchmark_group("zql_parallel_1m");
    group.sample_size(10);
    for (name, db) in [("serial", &serial), ("parallel", &parallel)] {
        let mut engine = ZqlEngine::new(db.clone());
        engine
            .registry_mut()
            .register_value_set("P", products.clone());
        group.bench_function(format!("table_5_1_{name}"), |bencher| {
            bencher.iter(|| {
                black_box(engine.execute_text(QUERY).unwrap())
                    .visualizations
                    .len()
            })
        });
        group.bench_function(format!("similarity_{name}"), |bencher| {
            bencher.iter(|| {
                similarity_search(&engine, &spec, &sketch, 5)
                    .unwrap()
                    .visualizations
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_opt_levels,
    bench_tasks,
    bench_parallel_routing
);
criterion_main!(benches);
