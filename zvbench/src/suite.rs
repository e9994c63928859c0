//! `zvbench run` / `zvbench trace`: every workload, each in a fresh
//! child process of this same binary (so `peak_rss_mb`, caches and the
//! allocator's state never leak from one workload into the next),
//! collected into one result set that `zvbench compare` reads.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use zv_storage::Json;

use crate::{default_seconds, spec, Args};

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One child run; returns its parsed result line.
fn child(exe: &Path, a: &Args, workload: &str, seconds: f64, trace: bool) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    Json::parse(line).map_err(|_| format!("no result line (exit {})", output.status))
}

pub fn run(a: &Args, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("zvbench: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = a.seconds.unwrap_or_else(|| default_seconds(a.smoke));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = tool_line("rustc", &["--version"]);
    let commit = tool_line("git", &["rev-parse", "HEAD"]);
    println!(
        "zvbench {} seed={} seconds={seconds} repeat={} nproc={nproc} rustc=\"{rustc}\" commit={commit}",
        if trace { "trace" } else { "run" },
        a.seed,
        a.repeat
    );

    let declared: &[(&str, &str)] = if trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in spec::WORKLOADS {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); declared.len()];
        let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
        for _ in 0..a.repeat {
            match child(&exe, a, workload, seconds, trace) {
                Ok(j) => {
                    attempted += j.get("attempted").and_then(Json::as_u64).unwrap_or(0);
                    failed += j.get("failed").and_then(Json::as_u64).unwrap_or(0);
                    correct &= j.get("correct").and_then(Json::as_bool) == Some(true);
                    for (slot, (name, _)) in values.iter_mut().zip(declared) {
                        let v = j
                            .get("metrics")
                            .and_then(|m| m.get(name))
                            .and_then(|m| m.get("value"))
                            .and_then(Json::as_f64);
                        match v {
                            Some(v) => slot.push(v),
                            None => correct = false,
                        }
                    }
                }
                Err(e) => {
                    eprintln!("zvbench: {workload}: {e}");
                    correct = false;
                }
            }
        }
        all_correct &= correct;
        println!(
            "\n{workload}: attempted={attempted} failed={failed} failed_ratio={} {}",
            failed as f64 / attempted.max(1) as f64,
            if correct { "correct" } else { "NOT CORRECT" }
        );
        for ((name, unit), vals) in declared.iter().zip(&values) {
            // A traced run prints only the layers the workload entered.
            if trace && vals.iter().all(|v| *v == 0.0) {
                continue;
            }
            println!(
                "  {name:<34} {:>16.6} {unit}   (n={})",
                crate::stats::median(vals),
                vals.len()
            );
        }
        let metrics = declared
            .iter()
            .zip(values)
            .map(|((name, unit), vals)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        (
                            "values".to_string(),
                            Json::Arr(vals.into_iter().map(Json::Num).collect()),
                        ),
                        ("unit".to_string(), Json::str(*unit)),
                    ]),
                )
            })
            .collect();
        workloads.push((
            workload.to_string(),
            Json::Obj(vec![
                ("correct".to_string(), Json::Bool(correct)),
                ("attempted".to_string(), Json::u64(attempted)),
                ("failed".to_string(), Json::u64(failed)),
                ("metrics".to_string(), Json::Obj(metrics)),
            ]),
        ));
    }

    let set = Json::Obj(vec![
        (
            "meta".to_string(),
            Json::Obj(vec![
                ("seed".to_string(), Json::str(a.seed.to_string())),
                ("seconds".to_string(), Json::Num(seconds)),
                ("repeat".to_string(), Json::u64(a.repeat as u64)),
                ("trace".to_string(), Json::Bool(trace)),
                ("smoke".to_string(), Json::Bool(a.smoke)),
                ("nproc".to_string(), Json::u64(nproc as u64)),
                ("rustc".to_string(), Json::str(rustc)),
                ("commit".to_string(), Json::str(commit)),
            ]),
        ),
        ("workloads".to_string(), Json::Obj(workloads)),
    ]);
    let path = a.out.join(format!(
        "{}-{}.json",
        if trace { "trace" } else { "run" },
        a.seed
    ));
    match std::fs::create_dir_all(&a.out)
        .and_then(|()| std::fs::write(&path, set.to_string() + "\n"))
    {
        Ok(()) => println!("\nresult set written to {}", path.display()),
        Err(e) => {
            eprintln!("zvbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
