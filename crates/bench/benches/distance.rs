//! Ablation: the distance metric behind `D`. The ℓ2
//! default is orders faster than DTW at equal usefulness for aligned
//! series — the reason it's the prototype default (§7.2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use zv_analytics::{series_distance, DistanceKind, Normalize, Series};

fn wave(n: usize, phase: f64) -> Series {
    Series::from_ys(
        &(0..n)
            .map(|i| ((i as f64 / 5.0) + phase).sin() * 10.0 + i as f64 * 0.1)
            .collect::<Vec<_>>(),
    )
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("series_distance");
    group.sample_size(30);
    for &n in &[32usize, 256] {
        let a = wave(n, 0.0);
        let b = wave(n, 0.7);
        for (name, kind) in [
            ("euclidean", DistanceKind::Euclidean),
            ("dtw", DistanceKind::Dtw { window: None }),
            ("dtw_banded", DistanceKind::Dtw { window: Some(8) }),
            ("kl", DistanceKind::KlDivergence),
            ("emd", DistanceKind::EarthMovers),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |bencher, _| {
                bencher
                    .iter(|| black_box(series_distance(kind, Normalize::ZScore, black_box(&a), &b)))
            });
        }
    }
    group.finish();
}

fn bench_alignment(c: &mut Criterion) {
    // The alignment + interpolation overhead when x grids disagree.
    let mut group = c.benchmark_group("alignment");
    group.sample_size(30);
    let a = Series::new((0..200).map(|i| (i as f64, (i as f64).sin())).collect());
    let b = Series::new(
        (0..200)
            .map(|i| (i as f64 + 0.5, (i as f64).cos()))
            .collect(),
    );
    group.bench_function("misaligned_grids", |bencher| {
        bencher.iter(|| {
            black_box(series_distance(
                DistanceKind::Euclidean,
                Normalize::ZScore,
                &a,
                &b,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_metrics, bench_alignment);
criterion_main!(benches);
