//! Bench regression gate: compare a freshly generated `BENCH_groupby.json`
//! against the committed baseline and fail loudly (exit 1) when a gated
//! latency regressed past a generous noise threshold.
//!
//! ```text
//! bench_check --baseline BENCH_groupby.json --fresh fresh.json [--factor 2.5]
//! bench_check --net-baseline BENCH_net.json --net-fresh BENCH_net.fresh.json
//! bench_check --persist-baseline BENCH_persist.json --persist-fresh fresh.json
//! bench_check --ivm-baseline BENCH_ivm.json --ivm-fresh BENCH_ivm.fresh.json
//! ```
//!
//! The second form gates the wire-latency summary written by
//! `bench_net` (`net_p50_ms`, `net_p99_ms`) instead; when only the
//! `--net-*` pair is given the groupby gates are skipped, so the CI
//! net-smoke leg can run independently of the criterion leg. Net
//! latencies are gated directly (baseline and fresh runs use the same
//! client/query shape) under generous absolute floors — on a 1-core
//! host 64 clients queueing on a 4-worker pool put p99 in the tens of
//! milliseconds from queueing alone, so anything at or below the floor
//! passes without consulting the ratio.
//!
//! The third form gates the durable-storage summary written by
//! `bench_persist`: `snapshot_write_ms` and `cold_load_ms` are
//! normalized to ms-per-million-rows (both scale with the table);
//! `wal_append_p50_ms` / `wal_append_p99_ms` are compared directly
//! under generous absolute floors, because a WAL append is dominated
//! by one fsync and fsync latency is a property of the host's disk,
//! not of this code.
//!
//! Gated metrics:
//!
//! * `cache_warm_ms`, `derived_hit_ms` — warm/derived hits never touch
//!   base rows, so they are row-count independent and compared directly.
//! * `cache_cold_ms`, `derived_cold_ms`, `morsel_skew_ms` — scans
//!   scale ~linearly with the table, so they are normalized to
//!   ms-per-million-rows before comparison (CI runs `--quick` at 200k
//!   rows against a 1M-row committed baseline).
//! * `cancel_latency_ms` — wall-clock from `QueryCtx::cancel()` to the
//!   scan returning `Cancelled`; bounded by one claim's worth of work,
//!   not by table size, so compared directly under a generous absolute
//!   floor (scheduler wakeup jitter dominates sub-5 ms readings).
//! * `fault_overhead_ratio` — armed-but-silent fault hooks vs the
//!   disabled single-branch short-circuit; already a within-run ratio,
//!   so it is gated absolutely (≤1.5) rather than against the baseline.
//! * `encoded_scan_ratio`, `compression_ratio`, `scan_gb_s` — the
//!   compressed-column section's within-run invariants: encoded scans
//!   within 1.15x of plain, the low-cardinality fixture shrinking ≥4x,
//!   and ≥0.5 logical GB/s on the encoded stress table. All absolute,
//!   sized for a 1-core CI host.
//!
//! The default 2.5× threshold is deliberately generous: the baseline and
//! the CI runner are different machines and criterion-grade rigor is not
//! the point — catching an accidental 10× cliff on the hot path is. A
//! metric missing from the *baseline* is skipped with a note (older
//! baselines predate newer fields); a metric missing from the *fresh*
//! run fails, because that means the bench stopped measuring it.

use std::process::ExitCode;

struct Args {
    baseline: String,
    fresh: String,
    factor: f64,
    /// Explicit `--baseline`/`--fresh` (groupby gates requested even
    /// when `--net-*` flags are also present).
    groupby_explicit: bool,
    net_baseline: Option<String>,
    net_fresh: Option<String>,
    persist_baseline: Option<String>,
    persist_fresh: Option<String>,
    ivm_baseline: Option<String>,
    ivm_fresh: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        baseline: "BENCH_groupby.json".to_string(),
        fresh: "BENCH_groupby.fresh.json".to_string(),
        factor: 2.5,
        groupby_explicit: false,
        net_baseline: None,
        net_fresh: None,
        persist_baseline: None,
        persist_fresh: None,
        ivm_baseline: None,
        ivm_fresh: None,
    };
    fn value_of(it: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("bench_check: {flag} needs {what}");
            std::process::exit(2);
        })
    }
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => {
                args.baseline = value_of(&mut it, "--baseline", "a PATH");
                args.groupby_explicit = true;
            }
            "--fresh" => {
                args.fresh = value_of(&mut it, "--fresh", "a PATH");
                args.groupby_explicit = true;
            }
            "--net-baseline" => {
                args.net_baseline = Some(value_of(&mut it, "--net-baseline", "a PATH"));
            }
            "--net-fresh" => {
                args.net_fresh = Some(value_of(&mut it, "--net-fresh", "a PATH"));
            }
            "--persist-baseline" => {
                args.persist_baseline = Some(value_of(&mut it, "--persist-baseline", "a PATH"));
            }
            "--persist-fresh" => {
                args.persist_fresh = Some(value_of(&mut it, "--persist-fresh", "a PATH"));
            }
            "--ivm-baseline" => {
                args.ivm_baseline = Some(value_of(&mut it, "--ivm-baseline", "a PATH"));
            }
            "--ivm-fresh" => {
                args.ivm_fresh = Some(value_of(&mut it, "--ivm-fresh", "a PATH"));
            }
            "--factor" => {
                let v = value_of(&mut it, "--factor", "a threshold factor");
                args.factor = v.parse().unwrap_or_else(|_| {
                    eprintln!("bench_check: --factor {v:?} is not a number");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "bench_check: unknown flag {other} \
                     (expected --baseline PATH, --fresh PATH, --factor F, \
                     --net-baseline PATH, --net-fresh PATH, \
                     --persist-baseline PATH, --persist-fresh PATH, \
                     --ivm-baseline PATH, --ivm-fresh PATH)"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Lookup outcome for one scalar in a bench summary. Missing and
/// malformed are deliberately distinct: a *missing* baseline field is
/// routine (older baselines predate newer metrics) while a *malformed*
/// one means the file is damaged and silently skipping it would fake a
/// passing gate.
enum Field {
    Val(f64),
    Missing,
    Malformed(String),
}

impl Field {
    fn val(&self) -> Option<f64> {
        match self {
            Field::Val(v) => Some(*v),
            _ => None,
        }
    }
}

/// Extract the first `"name": <number>` scalar from the (hand-rolled,
/// flat-keyed) bench JSON. Good enough for the summary fields this gate
/// reads; not a general JSON parser.
fn field(json: &str, name: &str) -> Field {
    let needle = format!("\"{name}\":");
    let Some(at) = json.find(&needle) else {
        return Field::Missing;
    };
    let rest = json[at + needle.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    match rest[..end].parse() {
        Ok(v) => Field::Val(v),
        Err(_) => Field::Malformed(rest[..end.min(24)].to_owned()),
    }
}

fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_check: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

/// Like [`read_or_die`], but for committed *baseline* files: a missing
/// baseline is the one failure a contributor hits on a fresh branch
/// (new gate, no committed JSON yet), so the error names the exact
/// command that regenerates it instead of a bare ENOENT.
fn read_baseline_or_die(path: &str, regen: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!(
                "bench_check: baseline {path} does not exist — generate it with \
                 `{regen}` and commit the result"
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("bench_check: cannot read baseline {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Groupby / cache / morsel / fault gates over `bench_groupby`
/// summaries. `Err` carries an invocation-level exit code (damaged or
/// missing files); metric regressions accumulate in `failures`.
fn groupby_gates(
    args: &Args,
    compared: &mut usize,
    failures: &mut Vec<String>,
) -> Result<(), ExitCode> {
    let baseline = read_baseline_or_die(
        &args.baseline,
        "cargo run --release -p zv-bench --bin bench_groupby",
    );
    let fresh = read_or_die(&args.fresh);

    // Sanity before any comparison: both files must carry the numeric
    // row count the normalized gates depend on — anything else means
    // the path points at something that is not a bench_groupby summary
    // (or at one that got truncated mid-write).
    for (path, json) in [(&args.baseline, &baseline), (&args.fresh, &fresh)] {
        match field(json, "rows") {
            Field::Val(r) if r >= 1.0 => {}
            Field::Val(r) => {
                eprintln!("bench_check: {path} reports a nonsensical row count ({r})");
                return Err(ExitCode::from(2));
            }
            Field::Missing => {
                eprintln!(
                    "bench_check: {path} has no \"rows\" field — is it really a \
                     bench_groupby summary? Regenerate it with \
                     `cargo run --release -p zv-bench --bin bench_groupby`."
                );
                return Err(ExitCode::from(2));
            }
            Field::Malformed(tok) => {
                eprintln!(
                    "bench_check: {path}: \"rows\" is not a number (got {tok:?}) — \
                     the file is damaged; regenerate it with \
                     `cargo run --release -p zv-bench --bin bench_groupby`."
                );
                return Err(ExitCode::from(2));
            }
        }
    }

    // (metric, normalize per million rows?, absolute floor in ms —
    // fresh values at or below the floor always pass, because down
    // there timer jitter and cross-machine CPU differences dwarf any
    // real ratio: pointer-bump warm hits live under 0.1 ms, and cancel
    // latency is scheduler-wakeup-dominated under ~5 ms).
    const GATES: [(&str, bool, f64); 6] = [
        ("cache_warm_ms", false, 0.1),
        ("derived_hit_ms", false, 0.1),
        ("cache_cold_ms", true, 0.1),
        ("derived_cold_ms", true, 0.1),
        ("morsel_skew_ms", true, 0.1),
        ("cancel_latency_ms", false, 5.0),
    ];

    let per_million = |json: &str, raw: f64| -> f64 {
        let rows = field(json, "rows").val().unwrap_or(1_000_000.0).max(1.0);
        raw * 1_000_000.0 / rows
    };

    for (name, normalize, floor_ms) in GATES {
        let fresh_raw = match field(&fresh, name) {
            Field::Val(v) => v,
            Field::Missing => {
                failures.push(format!(
                    "{name}: missing from the fresh run ({}) — the bench stopped measuring it",
                    args.fresh
                ));
                continue;
            }
            Field::Malformed(tok) => {
                failures.push(format!(
                    "{name}: malformed value {tok:?} in the fresh run ({}) — the file is \
                     damaged; rerun bench_groupby",
                    args.fresh
                ));
                continue;
            }
        };
        let base_raw = match field(&baseline, name) {
            Field::Val(v) => v,
            Field::Missing => {
                println!("  {name:<24} skipped (not in baseline {})", args.baseline);
                continue;
            }
            Field::Malformed(tok) => {
                failures.push(format!(
                    "{name}: malformed value {tok:?} in baseline {} — regenerate the \
                     baseline with bench_groupby and commit it",
                    args.baseline
                ));
                continue;
            }
        };
        let (fresh_v, base_v, unit) = if normalize {
            (
                per_million(&fresh, fresh_raw),
                per_million(&baseline, base_raw),
                "ms/1M rows",
            )
        } else {
            (fresh_raw, base_raw, "ms")
        };
        *compared += 1;
        let limit = (base_v * args.factor).max(floor_ms);
        let ratio = fresh_v / base_v.max(1e-9);
        let verdict = if fresh_v <= limit { "ok" } else { "REGRESSED" };
        println!(
            "  {name:<24} fresh {fresh_v:9.3} vs baseline {base_v:9.3} {unit}  \
             ({ratio:4.2}x, limit {:.1}x)  {verdict}",
            args.factor
        );
        if fresh_v > limit {
            // Normalized gates report the raw readings too: deciding
            // whether to re-baseline needs the actual wall-clock numbers,
            // not just ms-per-million, and re-running the bench by hand
            // to recover them wastes a CI round trip.
            let raw = if normalize {
                format!(" [raw: fresh {fresh_raw:.3} ms, baseline {base_raw:.3} ms]")
            } else {
                String::new()
            };
            failures.push(format!(
                "{name}: fresh {fresh_v:.3} {unit} is {ratio:.2}x the baseline \
                 {base_v:.3} {unit} (allowed: {:.1}x){raw}. If this slowdown is \
                 intentional, regenerate the committed baseline with `cargo run --release \
                 -p zv-bench --bin bench_groupby` and commit the new {}.",
                args.factor, args.baseline
            ));
        }
    }

    // Fault-hook overhead gate: `fault_overhead_ratio` compares an
    // armed-but-silent FaultSpec (non-zero seed, rate 0) against the
    // disabled spec's single-branch short-circuit *within one run on
    // one machine*, so it is gated absolutely instead of against the
    // baseline's value — the hooks are supposed to cost one branch per
    // morsel, and anything past the limit means an injection point
    // grew real work on the scan hot path. Skipped (with a note) when
    // the committed baseline predates the metric.
    const FAULT_RATIO_LIMIT: f64 = 1.5;
    match (
        field(&baseline, "fault_overhead_ratio"),
        field(&fresh, "fault_overhead_ratio"),
    ) {
        (Field::Missing, _) => println!(
            "  {:<24} skipped (not in baseline {})",
            "fault_overhead_ratio", args.baseline
        ),
        (_, Field::Val(ratio)) => {
            *compared += 1;
            let verdict = if ratio <= FAULT_RATIO_LIMIT {
                "ok"
            } else {
                "REGRESSED"
            };
            println!(
                "  {:<24} fresh {ratio:9.3} vs absolute limit {FAULT_RATIO_LIMIT:9.3} x  \
                 {verdict}",
                "fault_overhead_ratio"
            );
            if ratio > FAULT_RATIO_LIMIT {
                failures.push(format!(
                    "fault_overhead_ratio: armed-but-silent fault hooks cost {ratio:.2}x a \
                     disabled-spec scan (allowed: {FAULT_RATIO_LIMIT}x) — an injection point \
                     is doing real work on the hot path"
                ));
            }
        }
        (_, Field::Missing) => failures.push(format!(
            "fault_overhead_ratio: missing from the fresh run ({}) — the bench stopped \
             measuring it",
            args.fresh
        )),
        (_, Field::Malformed(tok)) => failures.push(format!(
            "fault_overhead_ratio: malformed value {tok:?} in the fresh run ({}) — the file \
             is damaged; rerun bench_groupby",
            args.fresh
        )),
    }

    // Compression gates: all three are within-run invariants of the
    // encoded-vs-plain A/B fixture (same machine, same kernel, same
    // data), so like `fault_overhead_ratio` they are gated absolutely
    // rather than against the baseline's value, and skipped with a note
    // when the committed baseline predates the compression section.
    //
    // * `encoded_scan_ratio` ≤ 1.15 — scanning packed chunks in place
    //   must not slow the group-by past noise; anything above means a
    //   decode crept onto the hot path (a materializing gather, a
    //   per-row branch in the packed kernel).
    // * `compression_ratio` ≥ 4.0 — the low-cardinality fixture must
    //   shrink at least 4x or chunk selection stopped picking the
    //   encodings it was built for.
    // * `scan_gb_s` ≥ 0.25 — logical bytes per wall-clock second on the
    //   encoded-only stress table; the floor is sized for a busy 1-core
    //   CI host (the dev box clears it ~2x; real hardware far more).
    const COMPRESSION_GATES: [(&str, bool, f64, &str); 3] = [
        (
            "encoded_scan_ratio",
            false,
            1.15,
            "encoded scans are slower than plain past the in-place-scan budget — a \
             decode crept onto the hot path",
        ),
        (
            "compression_ratio",
            true,
            4.0,
            "the low-cardinality fixture stopped compressing — chunk selection is no \
             longer picking dictionary/bit-packed/RLE where they win",
        ),
        (
            "scan_gb_s",
            true,
            0.25,
            "encoded scan throughput collapsed on the stress table",
        ),
    ];
    for (name, at_least, limit, why) in COMPRESSION_GATES {
        match (field(&baseline, name), field(&fresh, name)) {
            (Field::Missing, _) => {
                println!("  {name:<24} skipped (not in baseline {})", args.baseline);
            }
            (_, Field::Val(v)) => {
                *compared += 1;
                let ok = if at_least { v >= limit } else { v <= limit };
                let bound = if at_least { "floor" } else { "limit" };
                let verdict = if ok { "ok" } else { "REGRESSED" };
                println!("  {name:<24} fresh {v:9.3} vs absolute {bound} {limit:9.3}    {verdict}");
                if !ok {
                    failures.push(format!(
                        "{name}: {v:.3} violates the absolute {bound} of {limit} — {why}"
                    ));
                }
            }
            (_, Field::Missing) => failures.push(format!(
                "{name}: missing from the fresh run ({}) — the bench stopped measuring it",
                args.fresh
            )),
            (_, Field::Malformed(tok)) => failures.push(format!(
                "{name}: malformed value {tok:?} in the fresh run ({}) — the file is \
                 damaged; rerun bench_groupby",
                args.fresh
            )),
        }
    }

    // Observability gate: cancel_latency_ms of 0.0 with zero recorded
    // mid-scan cancels means the cancel never took effect — at full
    // table size that is a cancellation regression, not a fast cancel.
    // (--quick runs at 200k rows legitimately finish scans before the
    // cancelling thread is scheduled on small hosts, so only full-size
    // runs are held to it.)
    if let (Some(rows), Some(runs)) = (
        field(&fresh, "rows").val(),
        field(&fresh, "cancel_runs").val(),
    ) {
        if rows >= 500_000.0 && runs < 1.0 {
            failures.push(format!(
                "cancel_runs: a full-size run ({rows:.0} rows) recorded no mid-scan                  cancellation — the cancel path stopped taking effect"
            ));
        }
    }
    Ok(())
}

/// Wire-latency gates over `bench_net` summaries (`net_p50_ms`,
/// `net_p99_ms`). Baseline and fresh runs must use the same client
/// count — latencies under concurrent load are queueing-dominated, so
/// comparing a 64-client baseline to an 8-client smoke run would be
/// meaningless. Floors are generous: on a 1-core host a 64-client run
/// sits in the tens of milliseconds from queueing alone.
fn net_gates(
    args: &Args,
    compared: &mut usize,
    failures: &mut Vec<String>,
) -> Result<(), ExitCode> {
    let base_path = args
        .net_baseline
        .clone()
        .unwrap_or_else(|| "BENCH_net.json".to_string());
    let fresh_path = args
        .net_fresh
        .clone()
        .unwrap_or_else(|| "BENCH_net.fresh.json".to_string());
    let baseline = read_baseline_or_die(
        &base_path,
        &format!("cargo run --release -p zv-bench --bin bench_net -- --json {base_path}"),
    );
    let fresh = read_or_die(&fresh_path);

    for (path, json) in [(&base_path, &baseline), (&fresh_path, &fresh)] {
        match field(json, "clients").val() {
            Some(c) if c >= 1.0 => {}
            _ => {
                eprintln!(
                    "bench_check: {path} has no sane \"clients\" field — is it really a \
                     bench_net summary? Regenerate it with \
                     `cargo run --release -p zv-bench --bin bench_net -- --json {path}`."
                );
                return Err(ExitCode::from(2));
            }
        }
    }
    let base_clients = field(&baseline, "clients").val().unwrap_or(0.0);
    let fresh_clients = field(&fresh, "clients").val().unwrap_or(0.0);
    if base_clients != fresh_clients {
        eprintln!(
            "bench_check: client-count mismatch ({base_clients:.0} in {base_path} vs \
             {fresh_clients:.0} in {fresh_path}) — net latencies are queueing-dominated, \
             rerun bench_net with --clients {base_clients:.0}"
        );
        return Err(ExitCode::from(2));
    }

    // (metric, absolute floor in ms). The p99 floor is sized for
    // 1-core hosts where the whole client fleet shares the scan pool.
    const NET_GATES: [(&str, f64); 2] = [("net_p50_ms", 25.0), ("net_p99_ms", 50.0)];
    for (name, floor_ms) in NET_GATES {
        let fresh_v = match field(&fresh, name) {
            Field::Val(v) => v,
            _ => {
                failures.push(format!(
                    "{name}: missing or malformed in the fresh run ({fresh_path}) — the \
                     load generator stopped measuring it"
                ));
                continue;
            }
        };
        let base_v = match field(&baseline, name) {
            Field::Val(v) => v,
            Field::Missing => {
                println!("  {name:<24} skipped (not in baseline {base_path})");
                continue;
            }
            Field::Malformed(tok) => {
                failures.push(format!(
                    "{name}: malformed value {tok:?} in baseline {base_path} — regenerate \
                     it with bench_net and commit it"
                ));
                continue;
            }
        };
        *compared += 1;
        let limit = (base_v * args.factor).max(floor_ms);
        let ratio = fresh_v / base_v.max(1e-9);
        let verdict = if fresh_v <= limit { "ok" } else { "REGRESSED" };
        println!(
            "  {name:<24} fresh {fresh_v:9.3} vs baseline {base_v:9.3} ms  \
             ({ratio:4.2}x, limit {:.1}x, floor {floor_ms:.0} ms)  {verdict}",
            args.factor
        );
        if fresh_v > limit {
            failures.push(format!(
                "{name}: fresh {fresh_v:.3} ms is {ratio:.2}x the baseline {base_v:.3} ms \
                 (allowed: {:.1}x, floor {floor_ms:.0} ms). If this slowdown is \
                 intentional, regenerate the committed baseline with `cargo run --release \
                 -p zv-bench --bin bench_net -- --json {base_path}` and commit it.",
                args.factor
            ));
        }
    }
    Ok(())
}

/// Durable-storage gates over `bench_persist` summaries. Snapshot
/// write and cold load scale with the table, so they are normalized to
/// ms-per-million-rows (the CI leg runs fewer rows than the committed
/// 1M-row baseline). WAL append percentiles are one-fsync-dominated
/// and compared directly under floors sized for a CI host's disk: an
/// fsync on shared cloud storage can legitimately take milliseconds,
/// so the gate exists to catch the append path growing real work (an
/// extra sync, a full-table re-encode), not to benchmark the drive.
fn persist_gates(
    args: &Args,
    compared: &mut usize,
    failures: &mut Vec<String>,
) -> Result<(), ExitCode> {
    let base_path = args
        .persist_baseline
        .clone()
        .unwrap_or_else(|| "BENCH_persist.json".to_string());
    let fresh_path = args
        .persist_fresh
        .clone()
        .unwrap_or_else(|| "BENCH_persist.fresh.json".to_string());
    let baseline = read_baseline_or_die(
        &base_path,
        &format!("cargo run --release -p zv-bench --bin bench_persist -- --json {base_path}"),
    );
    let fresh = read_or_die(&fresh_path);

    for (path, json) in [(&base_path, &baseline), (&fresh_path, &fresh)] {
        match field(json, "rows").val() {
            Some(r) if r >= 1.0 => {}
            _ => {
                eprintln!(
                    "bench_check: {path} has no sane \"rows\" field — is it really a \
                     bench_persist summary? Regenerate it with \
                     `cargo run --release -p zv-bench --bin bench_persist -- --json {path}`."
                );
                return Err(ExitCode::from(2));
            }
        }
    }

    // (metric, normalize per million rows?, absolute floor in ms).
    const PERSIST_GATES: [(&str, bool, f64); 4] = [
        ("snapshot_write_ms", true, 50.0),
        ("cold_load_ms", true, 50.0),
        ("wal_append_p50_ms", false, 5.0),
        ("wal_append_p99_ms", false, 20.0),
    ];
    let per_million = |json: &str, raw: f64| -> f64 {
        let rows = field(json, "rows").val().unwrap_or(1_000_000.0).max(1.0);
        raw * 1_000_000.0 / rows
    };

    for (name, normalize, floor_ms) in PERSIST_GATES {
        let fresh_raw = match field(&fresh, name) {
            Field::Val(v) => v,
            _ => {
                failures.push(format!(
                    "{name}: missing or malformed in the fresh run ({fresh_path}) — the \
                     bench stopped measuring it"
                ));
                continue;
            }
        };
        let base_raw = match field(&baseline, name) {
            Field::Val(v) => v,
            Field::Missing => {
                println!("  {name:<24} skipped (not in baseline {base_path})");
                continue;
            }
            Field::Malformed(tok) => {
                failures.push(format!(
                    "{name}: malformed value {tok:?} in baseline {base_path} — regenerate \
                     it with bench_persist and commit it"
                ));
                continue;
            }
        };
        let (fresh_v, base_v, unit) = if normalize {
            (
                per_million(&fresh, fresh_raw),
                per_million(&baseline, base_raw),
                "ms/1M rows",
            )
        } else {
            (fresh_raw, base_raw, "ms")
        };
        *compared += 1;
        let limit = (base_v * args.factor).max(floor_ms);
        let ratio = fresh_v / base_v.max(1e-9);
        let verdict = if fresh_v <= limit { "ok" } else { "REGRESSED" };
        println!(
            "  {name:<24} fresh {fresh_v:9.3} vs baseline {base_v:9.3} {unit}  \
             ({ratio:4.2}x, limit {:.1}x, floor {floor_ms:.0} ms)  {verdict}",
            args.factor
        );
        if fresh_v > limit {
            let raw = if normalize {
                format!(" [raw: fresh {fresh_raw:.3} ms, baseline {base_raw:.3} ms]")
            } else {
                String::new()
            };
            failures.push(format!(
                "{name}: fresh {fresh_v:.3} {unit} is {ratio:.2}x the baseline \
                 {base_v:.3} {unit} (allowed: {:.1}x, floor {floor_ms:.0} ms){raw}. If \
                 this slowdown is intentional, regenerate the committed baseline with \
                 `cargo run --release -p zv-bench --bin bench_persist -- --json \
                 {base_path}` and commit it.",
                args.factor
            ));
        }
    }
    Ok(())
}

/// Incremental-view-maintenance gates over `bench_ivm` summaries. The
/// warm tick answers from a cached result plus a delta scan bounded by
/// the appended batch, so it is table-size independent and compared
/// directly under a generous floor; the cold tick is a full recompute
/// and normalized to ms-per-million-rows. Two gates are absolute,
/// within-run invariants rather than baseline comparisons:
/// `ivm_speedup` must stay at or above `IVM_SPEEDUP_FLOOR` (the whole
/// point of the delta path is a ~order-of-magnitude win over recompute
/// at dashboard tick sizes), and `ivm_rows_per_tick` must not exceed
/// the configured `tick_rows` (scanning past the appended batch means
/// the delta path silently degraded to something table-sized).
fn ivm_gates(
    args: &Args,
    compared: &mut usize,
    failures: &mut Vec<String>,
) -> Result<(), ExitCode> {
    let base_path = args
        .ivm_baseline
        .clone()
        .unwrap_or_else(|| "BENCH_ivm.json".to_string());
    let fresh_path = args
        .ivm_fresh
        .clone()
        .unwrap_or_else(|| "BENCH_ivm.fresh.json".to_string());
    let baseline = read_baseline_or_die(
        &base_path,
        &format!("cargo run --release -p zv-bench --bin bench_ivm -- --json {base_path}"),
    );
    let fresh = read_or_die(&fresh_path);

    for (path, json) in [(&base_path, &baseline), (&fresh_path, &fresh)] {
        match field(json, "rows").val() {
            Some(r) if r >= 1.0 => {}
            _ => {
                eprintln!(
                    "bench_check: {path} has no sane \"rows\" field — is it really a \
                     bench_ivm summary? Regenerate it with \
                     `cargo run --release -p zv-bench --bin bench_ivm -- --json {path}`."
                );
                return Err(ExitCode::from(2));
            }
        }
    }

    // (metric, normalize per million rows?, absolute floor in ms). The
    // warm floor is generous: a delta merge is a ~1k-row scan plus a
    // group-wise fold, which lands in the tens of microseconds on any
    // host — 5 ms of headroom is pure scheduler noise allowance.
    const IVM_GATES: [(&str, bool, f64); 2] = [
        ("warm_tick_p50_ms", false, 5.0),
        ("cold_tick_p50_ms", true, 50.0),
    ];
    let per_million = |json: &str, raw: f64| -> f64 {
        let rows = field(json, "rows").val().unwrap_or(1_000_000.0).max(1.0);
        raw * 1_000_000.0 / rows
    };

    for (name, normalize, floor_ms) in IVM_GATES {
        let fresh_raw = match field(&fresh, name) {
            Field::Val(v) => v,
            _ => {
                failures.push(format!(
                    "{name}: missing or malformed in the fresh run ({fresh_path}) — the \
                     bench stopped measuring it"
                ));
                continue;
            }
        };
        let base_raw = match field(&baseline, name) {
            Field::Val(v) => v,
            Field::Missing => {
                println!("  {name:<24} skipped (not in baseline {base_path})");
                continue;
            }
            Field::Malformed(tok) => {
                failures.push(format!(
                    "{name}: malformed value {tok:?} in baseline {base_path} — regenerate \
                     it with bench_ivm and commit it"
                ));
                continue;
            }
        };
        let (fresh_v, base_v, unit) = if normalize {
            (
                per_million(&fresh, fresh_raw),
                per_million(&baseline, base_raw),
                "ms/1M rows",
            )
        } else {
            (fresh_raw, base_raw, "ms")
        };
        *compared += 1;
        let limit = (base_v * args.factor).max(floor_ms);
        let ratio = fresh_v / base_v.max(1e-9);
        let verdict = if fresh_v <= limit { "ok" } else { "REGRESSED" };
        println!(
            "  {name:<24} fresh {fresh_v:9.3} vs baseline {base_v:9.3} {unit}  \
             ({ratio:4.2}x, limit {:.1}x, floor {floor_ms:.0} ms)  {verdict}",
            args.factor
        );
        if fresh_v > limit {
            let raw = if normalize {
                format!(" [raw: fresh {fresh_raw:.3} ms, baseline {base_raw:.3} ms]")
            } else {
                String::new()
            };
            failures.push(format!(
                "{name}: fresh {fresh_v:.3} {unit} is {ratio:.2}x the baseline \
                 {base_v:.3} {unit} (allowed: {:.1}x, floor {floor_ms:.0} ms){raw}. If \
                 this slowdown is intentional, regenerate the committed baseline with \
                 `cargo run --release -p zv-bench --bin bench_ivm -- --json {base_path}` \
                 and commit it.",
                args.factor
            ));
        }
    }

    // Speedup gate: absolute, not baseline-relative — both percentiles
    // come from the same run on the same host, so the ratio is immune
    // to machine differences. Falling under the floor means warm ticks
    // grew table-sized work (a full-column pass on the delta path, a
    // declined merge, a cache regression).
    const IVM_SPEEDUP_FLOOR: f64 = 10.0;
    match field(&fresh, "ivm_speedup") {
        Field::Val(speedup) => {
            *compared += 1;
            let verdict = if speedup >= IVM_SPEEDUP_FLOOR {
                "ok"
            } else {
                "REGRESSED"
            };
            println!(
                "  {:<24} fresh {speedup:9.3} vs absolute floor {IVM_SPEEDUP_FLOOR:9.3} x  \
                 {verdict}",
                "ivm_speedup"
            );
            if speedup < IVM_SPEEDUP_FLOOR {
                failures.push(format!(
                    "ivm_speedup: delta-merged ticks are only {speedup:.2}x faster than \
                     full recompute (required: {IVM_SPEEDUP_FLOOR}x) — the IVM path is \
                     doing table-sized work per tick"
                ));
            }
        }
        _ => failures.push(format!(
            "ivm_speedup: missing or malformed in the fresh run ({fresh_path}) — the \
             bench stopped measuring it"
        )),
    }

    // Delta-boundedness gate: the warm tick must scan only the appended
    // batch. `bench_ivm` exits nonzero if any single tick over-scanned,
    // but gate the summary too so a tampered or stale JSON cannot pass.
    if let (Some(scanned), Some(tick_rows)) = (
        field(&fresh, "ivm_rows_per_tick").val(),
        field(&fresh, "tick_rows").val(),
    ) {
        *compared += 1;
        if scanned > tick_rows {
            failures.push(format!(
                "ivm_rows_per_tick: warm ticks scanned up to {scanned:.0} rows for \
                 {tick_rows:.0}-row appends — the delta path is reading past the batch"
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    let run_net = args.net_baseline.is_some() || args.net_fresh.is_some();
    let run_persist = args.persist_baseline.is_some() || args.persist_fresh.is_some();
    let run_ivm = args.ivm_baseline.is_some() || args.ivm_fresh.is_some();
    let run_groupby = args.groupby_explicit || (!run_net && !run_persist && !run_ivm);
    let mut compared = 0usize;
    let mut failures: Vec<String> = Vec::new();
    if run_groupby {
        if let Err(code) = groupby_gates(&args, &mut compared, &mut failures) {
            return code;
        }
    }
    if run_net {
        if let Err(code) = net_gates(&args, &mut compared, &mut failures) {
            return code;
        }
    }
    if run_persist {
        if let Err(code) = persist_gates(&args, &mut compared, &mut failures) {
            return code;
        }
    }
    if run_ivm {
        if let Err(code) = ivm_gates(&args, &mut compared, &mut failures) {
            return code;
        }
    }

    // Report collected failures before complaining about an empty
    // comparison: a fresh run missing every field is a fresh-run bug,
    // not a baseline problem.
    if failures.is_empty() && compared == 0 {
        eprintln!(
            "bench_check: nothing compared — baseline {} has none of the gated fields",
            args.baseline
        );
        return ExitCode::from(2);
    }
    if failures.is_empty() {
        println!(
            "bench_check: {compared} metrics within {}x of baseline",
            args.factor
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench_check FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}
