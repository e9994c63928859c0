//! `zvbench` — the repo's one benchmark: six seeded workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run,
//! every answer checked by an oracle. See `README.md` beside this crate
//! and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! zvbench --workload W --seed N --seconds S --trace 0|1 [--smoke]   one run, JSON on the last line
//! zvbench run   [--seed N] [--seconds S] [--repeat K] [--out DIR] [--smoke]
//! zvbench trace [--seed N] [--seconds S] [--repeat K] [--out DIR] [--smoke]
//! zvbench compare A.json B.json
//! ```
//!
//! The harness drives the program only through public functions of the
//! `zql`, `zv-storage`, `zv-server`, `zv-analytics` and `zv-datagen`
//! crates and reads only their public counters.

mod common;
mod compare;
mod ops;
mod oracle;
mod rng;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use zv_storage::Json;

use common::{Outcome, RunCfg};

/// Knobs that change what the program under test does. The benchmark
/// measures the shipped defaults, so it refuses to run under any of
/// them.
const FORBIDDEN_ENV: [&str; 4] = [
    "ZV_SCHED_",
    "ZV_FAULT_",
    "ZV_ENCODING",
    "ZV_REQUEST_OVERHEAD_MS",
];

pub fn forbidden_env() -> Option<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .find(|k| FORBIDDEN_ENV.iter().any(|p| k.starts_with(p)))
}

/// Command-line options shared by every mode.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: usize,
    pub out: PathBuf,
    pub positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        out: PathBuf::from("bench_results/zvbench"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: {v:?} is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = num(flag, value()?)?,
            "--seconds" => {
                let s: f64 = num(flag, value()?)?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => a.trace = num::<u8>(flag, value()?)? != 0,
            "--repeat" => a.repeat = num::<usize>(flag, value()?)?.max(1),
            "--out" => a.out = PathBuf::from(value()?),
            "--smoke" => a.smoke = true,
            f if f.starts_with("--") => return Err(format!("unknown flag {f}")),
            _ => a.positional.push(flag.clone()),
        }
    }
    Ok(a)
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every declared metric of the mode present.
pub fn result_json(out: &Outcome, trace: bool) -> Json {
    let declared: &[(&str, &str)] = if trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let metrics = declared
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(*name).copied().unwrap_or(0.0);
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::str(*unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(out.correct())),
        ("attempted".to_string(), Json::u64(out.attempted.max(1))),
        ("failed".to_string(), Json::u64(out.failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
}

/// Seconds a window runs when the caller names none.
pub fn default_seconds(smoke: bool) -> f64 {
    if smoke {
        1.0
    } else {
        Json::parse(spec::BENCHMARK_JSON)
            .ok()
            .and_then(|j| j.get("run_seconds").and_then(Json::as_f64))
            .unwrap_or(10.0)
    }
}

fn run_one(a: &Args, workload: &str) -> ExitCode {
    let cfg = RunCfg {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds.unwrap_or_else(|| default_seconds(a.smoke)),
        trace: a.trace,
        smoke: a.smoke,
        out_dir: a.out.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("zvbench: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::from(2);
    }
    let Some(out) = workloads::run(&cfg) else {
        eprintln!(
            "zvbench: unknown workload {workload:?} (one of {})",
            spec::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    eprintln!(
        "zvbench {workload} seed={} seconds={} trace={} nproc={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for line in &out.notes {
        eprintln!("  {line}");
    }
    for line in &out.invalid {
        eprintln!("  INVALID: {line}");
    }
    println!("{}", result_json(&out, cfg.trace).to_string());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zvbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mode = args.positional.first().map(String::as_str);
    if mode != Some("compare") {
        if let Some(var) = forbidden_env() {
            eprintln!("zvbench: refusing to run with {var} set — the benchmark measures the shipped defaults");
            return ExitCode::from(2);
        }
    }
    match (mode, &args.workload) {
        (None, Some(w)) => run_one(&args, w),
        (Some("run"), None) => suite::run(&args, false),
        (Some("trace"), None) => suite::run(&args, true),
        (Some("compare"), None) if args.positional.len() == 3 => {
            compare::run(&args.positional[1], &args.positional[2])
        }
        _ => {
            eprintln!(
                "usage: zvbench --workload W --seed N --seconds S --trace 0|1 [--smoke]\n       \
                 zvbench run|trace [--seed N] [--seconds S] [--repeat K] [--out DIR] [--smoke]\n       \
                 zvbench compare A.json B.json"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke`: every workload, traced and untraced, with 1 s windows
    /// and tenth-size tables, checked against the declared schema: every
    /// declared metric present, none undeclared, answers correct. Keeps
    /// the benchmark compiling and honest under `cargo test`.
    #[test]
    fn smoke_every_workload_matches_the_declared_schema() {
        let dir = std::env::temp_dir().join(format!("zvbench-smoke-{}", std::process::id()));
        for workload in spec::WORKLOADS {
            for trace in [false, true] {
                let cfg = RunCfg {
                    workload: workload.to_string(),
                    seed: 20260925,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                    out_dir: dir.clone(),
                };
                std::fs::create_dir_all(&dir).unwrap();
                let out = workloads::run(&cfg).expect("declared workload runs");
                assert!(
                    out.correct(),
                    "{workload} trace={trace}: invalid={:?} notes={:?}",
                    out.invalid,
                    out.notes
                );
                assert!(out.attempted >= 1 && out.failed == 0);
                let declared: Vec<&str> = if trace {
                    spec::PER_LAYER.iter().map(|m| m.0).collect()
                } else {
                    spec::END_TO_END.iter().map(|m| m.0).collect()
                };
                for name in out.metrics.keys() {
                    assert!(
                        declared.contains(&name.as_str()),
                        "{workload} trace={trace}: undeclared metric {name}"
                    );
                }
                if !trace {
                    for name in &declared {
                        let v = out.metrics.get(*name).copied();
                        assert!(
                            v.is_some_and(|v| v.is_finite() && v > 0.0),
                            "{workload}: end-to-end metric {name} = {v:?}"
                        );
                    }
                }
                let line = result_json(&out, trace).to_string();
                let back = Json::parse(&line).unwrap();
                let Json::Obj(keys) = &back else {
                    panic!("not an object")
                };
                let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let Some(Json::Obj(metrics)) = back.get("metrics") else {
                    panic!("no metrics")
                };
                assert_eq!(metrics.len(), declared.len());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let v = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload live_tick --seed 9 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("live_tick"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, Some(2.5), true));
        assert!(parse_args(&v("--seconds 0")).is_err());
        assert!(parse_args(&v("--seed")).is_err());
        assert!(parse_args(&v("--bogus 1")).is_err());
        assert_eq!(parse_args(&v("compare a b")).unwrap().positional.len(), 3);
    }
}
