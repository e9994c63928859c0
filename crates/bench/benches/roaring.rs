//! Ablation: the roaring-bitmap storage model (thesis §6.2).
//!
//! Compares roaring AND/OR/membership against a sorted-`Vec<u32>`
//! baseline — the justification for using compressed bitmaps as the
//! index representation — and measures the array↔bitmap container
//! transition.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use zv_storage::RoaringBitmap;

fn sparse(n: u32, step: u32, offset: u32) -> Vec<u32> {
    (0..n).map(|i| i * step + offset).collect()
}

fn bench_set_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_intersection");
    group.sample_size(20);
    for &(n, step) in &[(10_000u32, 7u32), (100_000, 11)] {
        let a_vals = sparse(n, step, 0);
        let b_vals = sparse(n, step, step / 2);
        let a: RoaringBitmap = a_vals.iter().copied().collect();
        let b: RoaringBitmap = b_vals.iter().copied().collect();
        group.bench_with_input(BenchmarkId::new("roaring_and", n), &n, |bencher, _| {
            bencher.iter(|| black_box(a.and(&b)).len())
        });
        group.bench_with_input(BenchmarkId::new("sorted_vec_and", n), &n, |bencher, _| {
            bencher.iter(|| {
                // merge-intersection baseline
                let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
                while i < a_vals.len() && j < b_vals.len() {
                    match a_vals[i].cmp(&b_vals[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            count += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                black_box(count)
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("union_dense");
    group.sample_size(20);
    let a: RoaringBitmap = (0..500_000u32).collect();
    let b: RoaringBitmap = (250_000..750_000u32).collect();
    group.bench_function("roaring_or", |bencher| {
        bencher.iter(|| black_box(a.or(&b)).len())
    });
    group.finish();
}

fn bench_container_transitions(c: &mut Criterion) {
    let mut group = c.benchmark_group("container_build");
    group.sample_size(20);
    // Below the 4096 threshold: stays an array container.
    group.bench_function("array_container_4k", |bencher| {
        bencher.iter(|| {
            let mut bm = RoaringBitmap::new();
            for v in 0..4_000u32 {
                bm.insert(black_box(v * 3));
            }
            bm.len()
        })
    });
    // Above it: upgrades to a bitmap container mid-build.
    group.bench_function("bitmap_container_40k", |bencher| {
        bencher.iter(|| {
            let mut bm = RoaringBitmap::new();
            for v in 0..40_000u32 {
                bm.insert(black_box(v));
            }
            bm.len()
        })
    });
    // The ascending fast path used by the index builder.
    group.bench_function("push_ascending_40k", |bencher| {
        bencher.iter(|| {
            let mut bm = RoaringBitmap::new();
            for v in 0..40_000u32 {
                bm.push_ascending(v);
            }
            bm.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_set_ops, bench_container_transitions);
criterion_main!(benches);
