//! Percentiles that refuse to over-claim, and the slice-median
//! estimator that keeps a 2-core sandbox's noise out of the reported
//! latency metrics.

/// A percentile is only reported when at least this many samples lie
/// beyond it — fewer, and the number is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample; `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The highest percentile not above `q` that [`percentile`] will report,
/// with the `q` actually used (smoke-sized runs degrade p95 to what
/// their sample count supports instead of inventing a tail).
pub fn highest_percentile(sorted: &[f64], q: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let q_max = (n - MIN_BEYOND) as f64 / n as f64;
    let used = q.min(q_max);
    // Rounding in `ceil(q·n)` may land one rank too high; step down.
    percentile(sorted, used)
        .or_else(|| percentile(sorted, used - 1.0 / n as f64))
        .map(|v| (v, used))
}

/// Plain median (mean of the middle pair); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One timed op: when it started (or was due) in the window, and how
/// long it took.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub at_s: f64,
    pub ms: f64,
}

/// The durations of a sample set, in ms.
pub fn ms_of(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.ms).collect()
}

/// Latency summary of one window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    /// The percentile `p95` really is (0.95 unless the sample is small).
    pub p95_q: f64,
    /// Time slices the medians were taken over.
    pub slices: usize,
    /// Whole-window p99 and max, for information only.
    pub p99: Option<f64>,
    pub max: f64,
}

const MAX_SLICES: usize = 5;

/// Summarize a window as the median over equal time slices of each
/// slice's p50 / p95. A burst of interference on a shared box inflates
/// the tail of the slice it lands in and nothing else, so the median
/// over slices repeats where a whole-window p95 does not. The slice
/// count is the largest (≤ 5) at which every slice still has ten
/// samples beyond its p95; short samples fall back to the whole window.
pub fn summarize(samples: &[Sample], window_s: f64) -> Option<Latency> {
    let mut all = ms_of(samples);
    all.sort_by(f64::total_cmp);
    let (_, p95_q) = highest_percentile(&all, 0.95)?;
    let slices = (1..=MAX_SLICES)
        .rev()
        .find(|&k| {
            slice_values(samples, window_s, k)
                .iter()
                .all(|s| percentile(s, p95_q).is_some() && percentile(s, 0.5).is_some())
        })
        .unwrap_or(1);
    let per = slice_values(samples, window_s, slices);
    let of = |q: f64| -> Option<f64> {
        let v: Option<Vec<f64>> = per.iter().map(|s| percentile(s, q)).collect();
        v.map(|v| median(&v))
    };
    Some(Latency {
        n: all.len(),
        p50: of(0.5)?,
        p95: of(p95_q)?,
        p95_q,
        slices,
        p99: percentile(&all, 0.99),
        max: *all.last()?,
    })
}

fn slice_values(samples: &[Sample], window_s: f64, k: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); k];
    for s in samples {
        let i = ((s.at_s / window_s * k as f64) as usize).min(k - 1);
        out[i].push(s.ms);
    }
    for s in &mut out {
        s.sort_by(f64::total_cmp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        assert_eq!(percentile(&v, 0.5), Some(100.0));
        // 199 samples: rank 190 leaves nine beyond — refused.
        assert_eq!(percentile(&v[..199], 0.95), None);
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        // p99 of 200 samples would rest on two samples.
        assert_eq!(percentile(&v, 0.99), None);
    }

    #[test]
    fn small_samples_degrade_to_the_percentile_they_support() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let (val, q) = highest_percentile(&v, 0.95).unwrap();
        assert_eq!((val, q), (40.0, 0.8));
        assert!(highest_percentile(&v[..10], 0.95).is_none());
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_percentile(&big, 0.95), Some((950.0, 0.95)));
    }

    #[test]
    fn slice_median_ignores_a_burst_in_one_slice() {
        // 5 s of 1 ms ops at 400/s; one second runs 10x slow.
        let samples: Vec<Sample> = (0..2000)
            .map(|i| {
                let at_s = i as f64 / 400.0;
                let burst = (2.0..3.0).contains(&at_s);
                Sample {
                    at_s,
                    ms: 1.0 + (i % 20) as f64 * 0.01 + if burst { 9.0 } else { 0.0 },
                }
            })
            .collect();
        let l = summarize(&samples, 5.0).unwrap();
        assert_eq!(l.slices, 5);
        assert!(l.p95 < 1.5, "slice-median p95 {} ignores the burst", l.p95);
        assert_eq!(l.max, 10.19);
        assert!(l.p99.unwrap() > 9.0, "whole-window p99 still shows it");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
