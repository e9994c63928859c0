//! `zv-serve` — stand-alone zenvisage query server.
//!
//! Binds a TCP listener, loads the deterministic synthetic sales
//! dataset, and serves the [wire protocol](zv_server::proto) until
//! stdin reaches EOF (the supervisor closes the pipe), then drains
//! gracefully. Designed for `tests/net.rs`'s end-to-end test and
//! manual poking:
//!
//! ```text
//! zv-serve --addr 127.0.0.1:0 --rows 60000 --max-conns 64 &
//! ```
//!
//! Prints exactly one `listening on <addr>` line to stdout once ready
//! — a spawner parses that for the ephemeral port.
//!
//! Flags (all optional):
//!
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:0`)
//! * `--rows N` — synthetic dataset size (default 60000)
//! * `--threads N` — scan worker threads (default 2)
//! * `--max-conns N` — connection limit (default 64)
//! * `--workers N` — session worker pool (default 4)
//! * `--token T` — require this auth token (repeatable; default open)
//! * `--drop-seed S --drop-rate R` — arm ConnDrop injection
//! * `--data-dir PATH` — durable storage: recover the table from PATH
//!   on boot (or seed it with the synthetic dataset on first run), WAL
//!   every append, checkpoint on drain

use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use zql::ZqlEngine;
use zv_datagen::sales::{self, SalesConfig};
use zv_server::{NetServer, NetServerConfig, SessionConfig};
use zv_storage::exec::ParallelConfig;
use zv_storage::{BitmapDb, BitmapDbConfig, Database, FaultSpec};

struct Args {
    addr: String,
    rows: usize,
    threads: usize,
    max_conns: usize,
    workers: usize,
    tokens: Vec<String>,
    drop_seed: u64,
    drop_rate: f64,
    data_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        rows: 60_000,
        threads: 2,
        max_conns: 64,
        workers: 4,
        tokens: Vec::new(),
        drop_seed: 0,
        drop_rate: 0.0,
        data_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--rows" => {
                args.rows = value("--rows")?
                    .parse()
                    .map_err(|e| format!("--rows: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--max-conns" => {
                args.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--token" => args.tokens.push(value("--token")?),
            "--drop-seed" => {
                args.drop_seed = value("--drop-seed")?
                    .parse()
                    .map_err(|e| format!("--drop-seed: {e}"))?
            }
            "--drop-rate" => {
                args.drop_rate = value("--drop-rate")?
                    .parse()
                    .map_err(|e| format!("--drop-rate: {e}"))?
            }
            "--data-dir" => args.data_dir = Some(value("--data-dir")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("zv-serve: {msg}");
            return ExitCode::from(2);
        }
    };
    let db_config = BitmapDbConfig {
        parallel: ParallelConfig {
            threads: args.threads,
            ..Default::default()
        },
        ..Default::default()
    };
    let gen_table = || {
        sales::generate(&SalesConfig {
            rows: args.rows,
            products: 50,
            ..Default::default()
        })
    };
    // Keep a concrete handle for the checkpoint on drain; the engine
    // only exposes the erased `DynDatabase`.
    let db: Arc<BitmapDb> = match &args.data_dir {
        Some(dir) => match BitmapDb::open_durable(dir, db_config, gen_table) {
            Ok(db) => {
                let report = db
                    .persistence()
                    .expect("open_durable always attaches persistence")
                    .recovery_report();
                match report.recovered_version {
                    Some(v) => eprintln!(
                        "zv-serve: recovered {} rows at version {v} from {dir} ({} WAL frames replayed, {} torn bytes truncated)",
                        db.table().num_rows(),
                        report.frames_replayed,
                        report.torn_bytes_truncated,
                    ),
                    None => eprintln!(
                        "zv-serve: initialized {dir} with {} synthetic rows",
                        db.table().num_rows()
                    ),
                }
                Arc::new(db)
            }
            Err(e) => {
                eprintln!("zv-serve: open {dir} failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Arc::new(BitmapDb::with_config(gen_table(), db_config)),
    };
    let engine = Arc::new(ZqlEngine::new(db.clone()));
    let config = NetServerConfig {
        max_connections: args.max_conns,
        session: SessionConfig {
            max_concurrent: args.workers,
            ..Default::default()
        },
        auth_tokens: args.tokens,
        drain_timeout: Duration::from_secs(5),
        fault: if args.drop_seed != 0 {
            FaultSpec::with_rate(args.drop_seed, args.drop_rate)
        } else {
            FaultSpec::disabled()
        },
        ..Default::default()
    };
    let server = match NetServer::start(engine, &args.addr, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("zv-serve: bind {} failed: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());
    // println! to a pipe is line-buffered at best; the spawner needs
    // this line *now*.
    use std::io::Write;
    let _ = std::io::stdout().flush();

    // Serve until the supervisor closes stdin, then drain gracefully.
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}

    let net = server.stats();
    let sess = server.session_stats();
    server.shutdown();
    if args.data_dir.is_some() {
        match db.checkpoint() {
            Ok(path) => eprintln!(
                "zv-serve: checkpointed version {} to {}",
                db.table().version(),
                path.display()
            ),
            Err(e) => eprintln!("zv-serve: checkpoint on drain failed: {e}"),
        }
    }
    eprintln!(
        "zv-serve: drained. accepted={} rejected={} queries={} results={} cancelled={} busy={} errors={} drops={} | submitted={} completed={} cancelled={} failed={} rejected={}",
        net.accepted,
        net.rejected,
        net.queries_received,
        net.results_sent,
        net.cancelled_sent,
        net.busy_sent,
        net.errors_sent,
        net.conn_drops_injected,
        sess.submitted,
        sess.completed,
        sess.cancelled,
        sess.failed,
        sess.rejected,
    );
    ExitCode::SUCCESS
}
