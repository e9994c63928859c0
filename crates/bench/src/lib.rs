//! # zv-bench
//!
//! Experiment harnesses that regenerate **every result-bearing table and
//! figure** of the thesis's evaluation (Ch. 7–8). Each `figures::fig*`
//! function returns the report text its binary writes to
//! `bench_results/`; the `all_experiments` binary runs the lot.
//!
//! Scaled-down datasets are the default so the suite finishes in minutes;
//! pass `--full-scale` to any binary for the paper's row counts
//! (10M sales / 15M airline / 300K census / 245K housing).

use std::time::{Duration, Instant};

pub mod figures;

/// Dataset scale selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    pub full: bool,
}

impl Scale {
    pub fn from_args() -> Scale {
        Scale {
            full: std::env::args().any(|a| a == "--full-scale"),
        }
    }

    pub fn pick(&self, scaled: usize, full: usize) -> usize {
        if self.full {
            full
        } else {
            scaled
        }
    }
}

/// Simulated client↔server round-trip per request, standing in for the
/// paper's networked PostgreSQL.
pub const REQUEST_OVERHEAD: Duration = Duration::from_millis(20);

/// Wall-clock a closure.
pub fn time_it<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Write a report to `bench_results/<name>.txt`.
pub fn write_result(name: &str, content: &str) -> std::io::Result<()> {
    std::fs::create_dir_all("bench_results")?;
    std::fs::write(format!("bench_results/{name}.txt"), content)
}

/// Format a duration the way the paper's plots label it.
pub fn fmt_dur(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1000.0;
    if ms >= 1000.0 {
        format!("{:.2}s", ms / 1000.0)
    } else {
        format!("{ms:.1}ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale { full: false }.pick(10, 100), 10);
        assert_eq!(Scale { full: true }.pick(10, 100), 100);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(Duration::from_millis(12)), "12.0ms");
        assert_eq!(fmt_dur(Duration::from_millis(2500)), "2.50s");
    }
}
