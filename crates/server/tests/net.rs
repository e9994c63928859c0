//! Integration suite for the networked front door: handshake and auth,
//! query round-trips (bit-for-bit against in-process execution),
//! supersession over the wire, typed busy frames for both admission
//! layers, explicit cancel, graceful drain, exact bookkeeping under 64
//! concurrent clients, and the real `zv-serve` binary end to end.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use zql::ZqlEngine;
use zv_datagen::sales::{self, SalesConfig};
use zv_server::{NetClient, NetServer, NetServerConfig, Response, SessionConfig, SubmitOptions};
use zv_storage::exec::ParallelConfig;
use zv_storage::{
    BitmapDb, BitmapDbConfig, CacheConfig, CancelReason, ScanDb, ScanDbConfig, Value,
};

const ROWS: usize = 30_000;

fn dataset() -> Arc<zv_storage::Table> {
    static TABLE: std::sync::OnceLock<Arc<zv_storage::Table>> = std::sync::OnceLock::new();
    TABLE
        .get_or_init(|| {
            sales::generate(&SalesConfig {
                rows: ROWS,
                products: 20,
                ..Default::default()
            })
        })
        .clone()
}

fn engine() -> Arc<ZqlEngine> {
    Arc::new(ZqlEngine::new(Arc::new(BitmapDb::with_config(
        dataset(),
        BitmapDbConfig {
            parallel: ParallelConfig {
                threads: 2,
                min_parallel_rows: 0,
                morsel_rows: 4096,
                ..Default::default()
            },
            cache: CacheConfig::admit_all(),
            ..Default::default()
        },
    ))))
}

fn server(config: NetServerConfig) -> NetServer {
    NetServer::start(engine(), "127.0.0.1:0", config).expect("bind ephemeral port")
}

/// A server whose queries reliably outlive a localhost TCP round trip:
/// the admission-pressure test needs query `a` to still be occupying
/// the worker while `b` and `c` arrive over the wire, and a 30k-row
/// scan can finish before a freshly written frame is even read. The
/// engine's simulated per-request latency pins every execution to a
/// floor that dwarfs sub-millisecond loopback delivery, independent of
/// build profile or machine speed.
fn slow_server(config: NetServerConfig) -> NetServer {
    let engine = Arc::new(ZqlEngine::new(Arc::new(ScanDb::with_config(
        dataset(),
        ScanDbConfig {
            request_overhead: Duration::from_millis(150),
            cache: CacheConfig::admit_all(),
            ..ScanDbConfig::default()
        },
    ))));
    NetServer::start(engine, "127.0.0.1:0", config).expect("bind ephemeral port")
}

/// A full-scan "slider step": distinct thresholds make distinct
/// predicates, so no query is answered from a warm cache.
fn slider_text(threshold: f64) -> String {
    format!("name | x | y | constraints\n*f1 | 'year' | 'sales' | sales > {threshold}")
}

fn connect(server: &NetServer) -> NetClient {
    NetClient::connect(server.local_addr(), "").expect("connect")
}

#[test]
fn query_roundtrips_bit_for_bit_with_local_execution() {
    let srv = server(NetServerConfig::default());
    let mut client = connect(&srv);
    let resp = client
        .query(&slider_text(5.0), SubmitOptions::default())
        .expect("response");
    let Response::Result { tables, report, .. } = resp else {
        panic!("expected a result, got {resp:?}");
    };
    assert_eq!(tables.len(), 1);
    assert_eq!(tables[0].component, "f1");
    assert_eq!(tables[0].x, "year");
    assert_eq!(report.sql_queries, 1);
    assert!(report.rows_scanned > 0);

    // The same engine config executed in-process must agree exactly.
    let local = engine()
        .execute_text(&slider_text(5.0))
        .expect("local execution");
    let series = local.visualizations[0].series.points();
    let wire = &tables[0].table.groups[0];
    assert_eq!(wire.xs.len(), series.len());
    for (i, &(x, y)) in series.iter().enumerate() {
        assert_eq!(wire.xs[i], Value::Float(x));
        assert_eq!(
            wire.ys[0][i].to_bits(),
            y.to_bits(),
            "measure {i} survives the wire bit-for-bit"
        );
    }
    client.bye().expect("clean close");
}

#[test]
fn auth_tokens_are_enforced_per_session() {
    let srv = server(NetServerConfig {
        auth_tokens: vec!["s3cret".to_string(), "other".to_string()],
        ..NetServerConfig::default()
    });
    let err = NetClient::connect(srv.local_addr(), "wrong").expect_err("rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);

    let mut ok = NetClient::connect(srv.local_addr(), "s3cret").expect("accepted");
    assert!(ok.session() > 0);
    let resp = ok
        .query(&slider_text(1.0), SubmitOptions::default())
        .expect("authed session serves queries");
    assert!(matches!(resp, Response::Result { .. }));
    let stats = srv.stats();
    assert_eq!(stats.auth_failures, 1);
    assert_eq!(stats.accepted, 2, "both sockets were accepted");
}

#[test]
fn pipelined_queries_supersede_over_the_wire() {
    let srv = server(NetServerConfig::default());
    let mut client = connect(&srv);
    // Two queries back-to-back without reading: the second supersedes
    // the first (newest-interaction-wins runs remotely too).
    let old_id = client
        .send_query(&slider_text(2.0), SubmitOptions::default())
        .expect("send");
    let new_id = client
        .send_query(&slider_text(3.0), SubmitOptions::default())
        .expect("send");
    match client.recv().expect("old query's frame") {
        Response::Cancelled { id, reason } => {
            assert_eq!(id, old_id);
            assert_eq!(reason, Some(CancelReason::Superseded));
        }
        other => panic!("expected cancelled-superseded, got {other:?}"),
    }
    match client.recv().expect("new query's frame") {
        Response::Result { id, .. } => assert_eq!(id, new_id),
        other => panic!("expected the newest query's result, got {other:?}"),
    }
    let sess = srv.session_stats();
    assert_eq!(sess.superseded, 1);
    assert_eq!(sess.completed, 1);
    assert_eq!(sess.cancelled, 1);
}

#[test]
fn full_queue_and_full_server_send_typed_busy_frames() {
    // Session-layer pressure: one worker, queue of one.
    let srv = slow_server(NetServerConfig {
        session: SessionConfig {
            max_concurrent: 1,
            max_queued: 1,
            ..SessionConfig::default()
        },
        ..NetServerConfig::default()
    });
    let mut a = connect(&srv);
    let mut b = connect(&srv);
    let mut c = connect(&srv);
    // a's query occupies the worker; b's fills the queue; c's must be
    // rejected with a typed frame, not a hang.
    let _ = a
        .send_query(&slider_text(4.0), SubmitOptions::default())
        .unwrap();
    // Wait for the worker to pop a's query so b's lands in the queue.
    // (Single-core CI runs the whole suite concurrently — deadlines
    // are generous and per-step.)
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let s = srv.session_stats();
        if s.submitted == 1 && s.queued == 0 && s.completed == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "a's query never started: {s:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = b
        .send_query(&slider_text(5.5), SubmitOptions::default())
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while srv.session_stats().queued < 1 {
        assert!(
            srv.session_stats().completed == 0,
            "a's scan outran b's submission — the queue was never full"
        );
        assert!(Instant::now() < deadline, "b's query never queued");
        std::thread::sleep(Duration::from_millis(1));
    }
    let rejected_id = c
        .send_query(&slider_text(6.5), SubmitOptions::default())
        .unwrap();
    match c.recv().expect("typed busy frame") {
        Response::Busy { id, queued, .. } => {
            assert_eq!(id, Some(rejected_id));
            assert_eq!(queued, 1, "reports the queue capacity");
        }
        other => panic!("expected busy, got {other:?}"),
    }
    assert!(matches!(a.recv().unwrap(), Response::Result { .. }));
    assert!(matches!(b.recv().unwrap(), Response::Result { .. }));
    assert_eq!(srv.session_stats().rejected, 1);

    // Connection-layer pressure: a server full of connections refuses
    // the next socket with busy at the front door.
    let tiny = server(NetServerConfig {
        max_connections: 1,
        ..NetServerConfig::default()
    });
    let _held = connect(&tiny);
    let err = NetClient::connect(tiny.local_addr(), "").expect_err("refused");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    let stats = tiny.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.busy_sent, 1);
}

#[test]
fn cancel_frame_cancels_the_live_query() {
    let srv = server(NetServerConfig::default());
    let mut client = connect(&srv);
    let id = client
        .send_query(&slider_text(7.0), SubmitOptions::default())
        .expect("send");
    client.cancel().expect("cancel frame");
    match client.recv().expect("response") {
        Response::Cancelled { id: got, reason } => {
            assert_eq!(got, id);
            assert_eq!(reason, Some(CancelReason::Explicit));
        }
        // The query can win the race and finish before the cancel
        // frame is processed — that's a legal outcome, not a flake.
        Response::Result { id: got, .. } => assert_eq!(got, id),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn parse_errors_are_per_query_and_leave_the_connection_usable() {
    let srv = server(NetServerConfig::default());
    let mut client = connect(&srv);
    let resp = client
        .query("this is not zql", SubmitOptions::default())
        .expect("error frame");
    assert!(
        matches!(
            &resp,
            Response::Error {
                code: zv_server::proto::ErrorCode::Parse,
                ..
            }
        ),
        "got {resp:?}"
    );
    let resp = client
        .query(&slider_text(8.0), SubmitOptions::default())
        .expect("connection still serves");
    assert!(matches!(resp, Response::Result { .. }));
}

#[test]
fn graceful_drain_flushes_in_flight_responses_then_closes() {
    let srv = server(NetServerConfig {
        drain_timeout: Duration::from_secs(30),
        ..NetServerConfig::default()
    });
    let mut client = connect(&srv);
    let id = client
        .send_query(&slider_text(9.0), SubmitOptions::default())
        .expect("send");
    // Make sure the server admitted the query before draining.
    let deadline = Instant::now() + Duration::from_secs(20);
    while srv.session_stats().submitted < 1 {
        assert!(Instant::now() < deadline, "query never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    srv.shutdown();
    // The in-flight response was flushed before the socket closed…
    match client.recv().expect("drain flushed the response") {
        Response::Result { id: got, .. } => assert_eq!(got, id),
        other => panic!("expected the in-flight result, got {other:?}"),
    }
    // …and the connection is now closed.
    let err = client.recv().expect_err("server is gone");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

/// One client's outcome tally.
#[derive(Debug, Default)]
struct Ledger {
    completed: u64,
    busy: u64,
    errors: u64,
}

/// Sends `queries` distinct-threshold slider steps one at a time and
/// checks that each is answered by exactly one frame carrying its id.
fn drive_client(addr: &str, client: usize, queries: usize) -> Result<Ledger, String> {
    let mut conn = NetClient::connect(addr, "").map_err(|e| format!("client {client}: {e}"))?;
    let mut ledger = Ledger::default();
    for q in 0..queries {
        let threshold = (client * queries + q) as f64 * 0.37 + 0.5;
        let id = conn
            .send_query(&slider_text(threshold), SubmitOptions::default())
            .map_err(|e| format!("client {client} query {q}: send: {e}"))?;
        let resp = conn
            .recv()
            .map_err(|e| format!("client {client} query {q}: recv: {e}"))?;
        let got = match resp {
            Response::Result { id, .. } => {
                ledger.completed += 1;
                Some(id)
            }
            Response::Busy { id, .. } => {
                ledger.busy += 1;
                id
            }
            Response::Cancelled { id, .. } => {
                ledger.errors += 1;
                Some(id)
            }
            Response::Error { id, .. } => {
                ledger.errors += 1;
                id
            }
            Response::Welcome { .. } => None,
        };
        if got != Some(id) {
            return Err(format!(
                "client {client} query {q}: frame for {got:?}, expected {id}"
            ));
        }
    }
    conn.bye()
        .map_err(|e| format!("client {client}: bye: {e}"))?;
    Ok(ledger)
}

/// Runs `clients` concurrent [`drive_client`]s and sums their ledgers.
/// A response that never arrives fails the test at a deadline instead
/// of hanging it.
fn drive_clients(addr: &str, clients: usize, queries: usize) -> Ledger {
    let (tx, rx) = mpsc::channel();
    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let (tx, addr) = (tx.clone(), addr.to_string());
            std::thread::spawn(move || tx.send(drive_client(&addr, client, queries)))
        })
        .collect();
    drop(tx);
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut total = Ledger::default();
    for _ in 0..clients {
        let wait = deadline.saturating_duration_since(Instant::now());
        let ledger = rx
            .recv_timeout(wait)
            .expect("every client finishes before the deadline")
            .unwrap_or_else(|e| panic!("{e}"));
        total.completed += ledger.completed;
        total.busy += ledger.busy;
        total.errors += ledger.errors;
    }
    for handle in handles {
        let _ = handle.join().expect("client thread");
    }
    total
}

#[test]
fn sixty_four_clients_reconcile_with_the_server_ledger() {
    let (clients, queries) = (64, 8);
    let srv = server(NetServerConfig {
        max_connections: clients,
        session: SessionConfig {
            max_concurrent: 4,
            // Every client can have a query waiting at once.
            max_queued: clients,
            ..SessionConfig::default()
        },
        drain_timeout: Duration::from_secs(30),
        ..NetServerConfig::default()
    });
    let ledger = drive_clients(&srv.local_addr().to_string(), clients, queries);
    let total = (clients * queries) as u64;
    assert_eq!(
        ledger.completed + ledger.busy + ledger.errors,
        total,
        "{ledger:?}"
    );
    let sess = srv.session_stats();
    let net = srv.stats();
    assert_eq!(sess.failed, 0, "{sess:?}");
    assert_eq!(net.sessions_lost, 0, "{net:?}");
    assert_eq!(sess.completed, ledger.completed, "{sess:?}");
    assert_eq!(
        net.results_sent + net.busy_sent + net.cancelled_sent + net.errors_sent,
        total,
        "the server sent one frame per query: {net:?}"
    );
    srv.shutdown();
}

#[test]
fn zv_serve_binary_serves_clients_and_exits_cleanly_when_stdin_closes() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_zv-serve"))
        .args(["--addr", "127.0.0.1:0", "--rows", "20000"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn zv-serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .expect("read zv-serve's stdout");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("expected a `listening on` line, got {line:?}"))
        .to_string();

    let ledger = drive_clients(&addr, 8, 4);
    assert_eq!(
        ledger.completed + ledger.busy + ledger.errors,
        32,
        "{ledger:?}"
    );

    // EOF on stdin is the drain signal.
    drop(child.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll zv-serve") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("zv-serve did not exit after stdin closed");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .expect("read zv-serve's stderr");
    assert!(status.success(), "zv-serve exited with {status}: {stderr}");
    assert!(stderr.contains("failed=0 "), "{stderr}");
}
