//! `bench_net` — wire-protocol load generator and latency summary.
//!
//! Drives N concurrent [`NetClient`] connections (default 64 — the
//! connection count `zv-serve` must sustain) against either an
//! in-process [`NetServer`] or an external server (`--addr`, used by
//! the CI net-smoke leg against a spawned `zv-serve`). Each client
//! issues M full-scan queries with distinct thresholds (so the result
//! cache can't answer them all) and measures the round-trip from
//! `send_query` to its matching response frame.
//!
//! ```text
//! bench_net [--clients N] [--queries M] [--rows R] [--workers W]
//!           [--addr HOST:PORT] [--json PATH]
//! ```
//!
//! Writes a flat JSON summary (`net_p50_ms` / `net_p95_ms` /
//! `net_p99_ms` / `net_throughput_qps` …) that `bench_check
//! --net-baseline/--net-fresh` gates against the committed
//! `BENCH_net.json`.
//!
//! Bookkeeping is checked exactly, not sampled: every query must be
//! answered by exactly one frame, and the per-client outcome counts
//! must sum to `clients * queries`. In in-process mode the server-side
//! ledger is also reconciled (no failed queries, no lost sessions).
//! Any mismatch exits nonzero — this doubles as the smoke harness's
//! correctness gate.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zql::ZqlEngine;
use zv_datagen::sales::{self, SalesConfig};
use zv_server::{NetClient, NetServer, NetServerConfig, Response, SessionConfig, SubmitOptions};
use zv_storage::exec::ParallelConfig;
use zv_storage::{BitmapDb, BitmapDbConfig, CacheConfig};

struct Args {
    clients: usize,
    queries: usize,
    rows: usize,
    threads: usize,
    workers: usize,
    addr: Option<String>,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        clients: 64,
        queries: 8,
        rows: 60_000,
        threads: 2,
        workers: 4,
        addr: None,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("bench_net: {name} needs a value");
                std::process::exit(2);
            })
        };
        let parse = |name: &str, v: String| -> usize {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bench_net: {name} {v:?} is not a number");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--clients" => args.clients = parse("--clients", value("--clients")),
            "--queries" => args.queries = parse("--queries", value("--queries")),
            "--rows" => args.rows = parse("--rows", value("--rows")),
            "--threads" => args.threads = parse("--threads", value("--threads")),
            "--workers" => args.workers = parse("--workers", value("--workers")),
            "--addr" => args.addr = Some(value("--addr")),
            "--json" => args.json = Some(value("--json")),
            other => {
                eprintln!("bench_net: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One slider step per (client, query) pair: distinct thresholds make
/// distinct predicates, so most queries are cache-cold full scans.
fn slider_text(client: usize, q: usize, queries: usize) -> String {
    let threshold = (client * queries + q) as f64 * 0.37 + 0.5;
    format!("name | x | y | constraints\n*f1 | 'year' | 'sales' | sales > {threshold}")
}

/// Per-client outcome tally plus every observed round-trip latency.
#[derive(Default)]
struct ClientLedger {
    latencies_us: Vec<u64>,
    completed: u64,
    busy: u64,
    errors: u64,
}

fn drive_client(addr: &str, client: usize, queries: usize) -> Result<ClientLedger, String> {
    let mut conn = NetClient::connect(addr, "")
        .map_err(|e| format!("client {client}: connect failed: {e}"))?;
    let mut ledger = ClientLedger::default();
    for q in 0..queries {
        let text = slider_text(client, q, queries);
        let start = Instant::now();
        let resp = conn
            .query(&text, SubmitOptions::default())
            .map_err(|e| format!("client {client} query {q}: {e}"))?;
        ledger.latencies_us.push(start.elapsed().as_micros() as u64);
        match resp {
            Response::Result { .. } => ledger.completed += 1,
            Response::Busy { .. } => ledger.busy += 1,
            Response::Cancelled { .. } | Response::Error { .. } => ledger.errors += 1,
            Response::Welcome { .. } => {
                return Err(format!("client {client}: stray welcome frame"))
            }
        }
    }
    conn.bye()
        .map_err(|e| format!("client {client}: bye failed: {e}"))?;
    Ok(ledger)
}

/// Nearest-rank percentile over a sorted sample.
fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1] as f64 / 1e3
}

fn main() -> ExitCode {
    let args = parse_args();

    // In-process server unless --addr points at an external zv-serve.
    let local = if args.addr.is_none() {
        let table = sales::generate(&SalesConfig {
            rows: args.rows,
            products: 50,
            ..Default::default()
        });
        let engine = Arc::new(ZqlEngine::new(Arc::new(BitmapDb::with_config(
            table,
            BitmapDbConfig {
                parallel: ParallelConfig {
                    threads: args.threads,
                    ..Default::default()
                },
                cache: CacheConfig::admit_all(),
                ..Default::default()
            },
        ))));
        let server = NetServer::start(
            engine,
            "127.0.0.1:0",
            NetServerConfig {
                max_connections: args.clients.max(1),
                session: SessionConfig {
                    max_concurrent: args.workers,
                    // Every client can have a query waiting at once.
                    max_queued: args.clients.max(16),
                    ..SessionConfig::default()
                },
                drain_timeout: Duration::from_secs(30),
                ..NetServerConfig::default()
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("bench_net: bind failed: {e}");
            std::process::exit(2);
        });
        Some(server)
    } else {
        None
    };
    let addr = match (&args.addr, &local) {
        (Some(a), _) => a.clone(),
        (None, Some(server)) => server.local_addr().to_string(),
        (None, None) => unreachable!(),
    };
    eprintln!(
        "bench_net: {} clients x {} queries against {addr} ({})",
        args.clients,
        args.queries,
        if local.is_some() {
            "in-process"
        } else {
            "external"
        }
    );

    let start = Instant::now();
    let ledgers: Vec<Result<ClientLedger, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|client| {
                let addr = addr.as_str();
                scope.spawn(move || drive_client(addr, client, args.queries))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();

    let mut latencies_us: Vec<u64> = Vec::new();
    let (mut completed, mut busy, mut errors) = (0u64, 0u64, 0u64);
    let mut failures: Vec<String> = Vec::new();
    for ledger in ledgers {
        match ledger {
            Ok(l) => {
                // Exactly one response per query, per client.
                if l.latencies_us.len() != args.queries {
                    failures.push(format!(
                        "a client saw {} responses for {} queries",
                        l.latencies_us.len(),
                        args.queries
                    ));
                }
                latencies_us.extend(l.latencies_us);
                completed += l.completed;
                busy += l.busy;
                errors += l.errors;
            }
            Err(e) => failures.push(e),
        }
    }
    let total = (args.clients * args.queries) as u64;
    if completed + busy + errors != total && failures.is_empty() {
        failures.push(format!(
            "outcomes don't sum: {completed} completed + {busy} busy + {errors} errors != {total}"
        ));
    }

    // In-process: reconcile the server's own ledger with the clients'.
    if let Some(server) = &local {
        let sess = server.session_stats();
        let net = server.stats();
        if sess.failed != 0 {
            failures.push(format!("server recorded {} failed queries", sess.failed));
        }
        if net.sessions_lost != 0 {
            failures.push(format!(
                "server lost {} sessions under a clean load",
                net.sessions_lost
            ));
        }
        if sess.completed != completed {
            failures.push(format!(
                "server completed {} but clients received {completed} results",
                sess.completed
            ));
        }
    }

    latencies_us.sort_unstable();
    let p50 = percentile_ms(&latencies_us, 50.0);
    let p95 = percentile_ms(&latencies_us, 95.0);
    let p99 = percentile_ms(&latencies_us, 99.0);
    let mean = if latencies_us.is_empty() {
        0.0
    } else {
        latencies_us.iter().sum::<u64>() as f64 / latencies_us.len() as f64 / 1e3
    };
    let qps = total as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        " wire latency   p50 {p50:8.2} ms   p95 {p95:8.2} ms   p99 {p99:8.2} ms   mean {mean:8.2} ms"
    );
    println!(
        " throughput     {qps:8.1} q/s   ({total} queries in {:.2} s: {completed} completed, {busy} busy, {errors} errors)",
        wall.as_secs_f64()
    );

    if let Some(path) = &args.json {
        let json = format!(
            "{{\n  \"clients\": {},\n  \"queries_per_client\": {},\n  \"rows\": {},\n  \
             \"net_p50_ms\": {p50:.3},\n  \"net_p95_ms\": {p95:.3},\n  \"net_p99_ms\": {p99:.3},\n  \
             \"net_mean_ms\": {mean:.3},\n  \"net_throughput_qps\": {qps:.1},\n  \
             \"completed\": {completed},\n  \"busy\": {busy},\n  \"errors\": {errors}\n}}\n",
            args.clients, args.queries, args.rows,
        );
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("bench_net: cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {path}");
    }

    if let Some(server) = local {
        server.shutdown();
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench_net FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}
