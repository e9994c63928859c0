//! `zvbench compare A.json B.json`: the A/A tool, and the tool a later
//! change uses for parent-vs-change. One row per (workload, end-to-end
//! metric): both medians, how much worse B is than A, the bound from
//! `BENCHMARK.json`, and a verdict —
//!
//! * `worse`: B's median is worse than A's by more than the bound;
//! * `unresolved`: either side's own run-to-run spread (interquartile
//!   range over median, needs ≥ 4 runs a side) is wider than the bound,
//!   so the comparison cannot tell unchanged from changed;
//! * `ok` otherwise.

use std::process::ExitCode;

use zv_storage::Json;

use crate::spec::{self, Bound};
use crate::stats::median;

/// Python's `statistics.quantiles(data, n=4)` (exclusive method): the
/// driver judges spread with it, so this does too.
pub fn quartiles(data: &[f64]) -> Option<(f64, f64, f64)> {
    let mut d = data.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median.
pub fn spread(data: &[f64]) -> Option<f64> {
    if data.len() < 4 {
        return None;
    }
    let (q1, _, q3) = quartiles(data)?;
    Some((q3 - q1) / median(data).abs().max(1e-300))
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// How much worse `b` is than `a` as a share of `a` (negative = better),
/// and the verdict under `bound`.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if bound.higher_is_better {
        (ma - mb) / ma.abs().max(1e-300)
    } else {
        (mb - ma) / ma.abs().max(1e-300)
    };
    let noisy = [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > bound.bound));
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
}

fn values(set: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = set
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    Some(
        m.get("values")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    )
}

pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("zvbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "worse by", "bound"
    );
    let (mut worse, mut unresolved, mut missing) = (0, 0, 0);
    for workload in spec::WORKLOADS {
        for bound in spec::bounds() {
            let (Some(va), Some(vb)) = (
                values(&a, workload, &bound.name).filter(|v| !v.is_empty()),
                values(&b, workload, &bound.name).filter(|v| !v.is_empty()),
            ) else {
                println!(
                    "{workload:<14} {:<18} missing from a result set",
                    bound.name
                );
                missing += 1;
                continue;
            };
            let (worse_by, verdict) = judge(&va, &vb, &bound);
            match verdict {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{workload:<14} {:<18} {:>14.5} {:>14.5} {:>+8.2}% {:>6.0}%  {}",
                bound.name,
                median(&va),
                median(&vb),
                worse_by * 100.0,
                bound.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for (set, name) in [(&a, "A"), (&b, "B")] {
            let w = set.get("workloads").and_then(|w| w.get(workload));
            if w.and_then(|w| w.get("correct")).and_then(Json::as_bool) != Some(true) {
                println!("{workload:<14} result set {name} is NOT CORRECT (failed ops or an invalid run)");
                worse += 1;
            }
        }
    }
    println!("\n{worse} worse, {unresolved} unresolved, {missing} missing");
    if worse > 0 || missing > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool, b: f64) -> Bound {
        Bound {
            name: "m".to_string(),
            higher_is_better: higher,
            bound: b,
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let d: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&d), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 3.0, 4.5)));
        assert_eq!(spread(&d), Some(5.5 / 5.5));
        assert_eq!(spread(&[1.0, 2.0]), None);
    }

    #[test]
    fn verdicts() {
        let lower = bound(false, 0.10);
        assert_eq!(judge(&[10.0], &[10.9], &lower).1, Verdict::Ok);
        assert_eq!(judge(&[10.0], &[11.2], &lower).1, Verdict::Worse);
        assert_eq!(judge(&[10.0], &[5.0], &lower).1, Verdict::Ok);
        let higher = bound(true, 0.10);
        assert_eq!(judge(&[100.0], &[85.0], &higher).1, Verdict::Worse);
        assert_eq!(judge(&[100.0], &[130.0], &higher).1, Verdict::Ok);
        // A side that does not repeat within the bound resolves nothing.
        let noisy = [8.0, 9.0, 10.0, 11.0, 12.0, 13.0];
        let steady = [10.0, 10.1, 10.0, 9.9, 10.0, 10.05];
        assert_eq!(judge(&noisy, &steady, &lower).1, Verdict::Unresolved);
        assert_eq!(judge(&steady, &steady, &lower).1, Verdict::Ok);
    }
}
