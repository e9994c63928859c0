//! Chaos suite for the wire: deterministic [`FaultPoint::ConnDrop`]
//! injection severs a connection mid-response and the whole stack must
//! account for it exactly — the in-flight query is cancelled with
//! [`CancelReason::ConnectionLost`] attribution, the worker slot is
//! reclaimed for other connections, and the result cache is bit-for-bit
//! untouched by the severed session's cancelled work.
//!
//! Replay-exact style: the scenario is a pure function of its seeds, so
//! it is run twice and every counter delta must match.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zql::ZqlEngine;
use zv_datagen::sales::{self, SalesConfig};
use zv_server::{NetClient, NetServer, NetServerConfig, Response, SessionConfig, SubmitOptions};
use zv_storage::exec::ParallelConfig;
use zv_storage::{BitmapDb, BitmapDbConfig, CacheConfig, FaultPoint, FaultSpec, Value};

const ROWS: usize = 30_000;

/// ConnDrop decisions mix in the session id (the `epoch` argument), so
/// a seed can sever one connection and spare another. Seed-search for
/// the scenario's shape: the victim (session 1) loses its very first
/// response, the survivor (session 2) keeps its only one. Pure
/// function of the seed — identical on every run.
fn drop_seed() -> u64 {
    (0xD20B..)
        .find(|&s| {
            let spec = FaultSpec::with_rate(s, 0.5);
            spec.fires(FaultPoint::ConnDrop, 0, 1) && !spec.fires(FaultPoint::ConnDrop, 0, 2)
        })
        .expect("a severing seed exists")
}

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

/// Engine with a fault-free scan path — the only injection in this
/// suite is the *server's* ConnDrop spec, proving the two specs are
/// independent. `request_overhead` is slept once per request.
fn clean_engine(request_overhead: Duration) -> Arc<ZqlEngine> {
    Arc::new(ZqlEngine::new(Arc::new(BitmapDb::with_config(
        dataset(),
        BitmapDbConfig {
            parallel: ParallelConfig {
                threads: 2,
                min_parallel_rows: 0,
                morsel_rows: 4096,
                ..Default::default()
            },
            request_overhead,
            cache: CacheConfig::admit_all(),
            ..Default::default()
        },
    ))))
}

/// Per-request overhead of the served engine. Every request takes at
/// least this long, so the victim's second query is still in flight —
/// queued behind the first, or inside its own overhead — when ConnDrop
/// fires on response 0, however fast the scan itself is. Without it the
/// query could complete before the drop, leaving `sessions_lost` at 0.
const SERVED_OVERHEAD: Duration = Duration::from_millis(150);

fn slider_text(threshold: f64) -> String {
    format!("name | x | y | constraints\n*f1 | 'year' | 'sales' | sales > {threshold}")
}

/// Outcome ledger of one scenario run (everything that must replay
/// exactly).
#[derive(Debug, PartialEq, Eq)]
struct Ledger {
    conn_drops: u64,
    sessions_lost: u64,
    completed: u64,
    cancelled: u64,
    failed: u64,
    cache_entries: u64,
    cache_insertions: u64,
    survivor_bits: Vec<(u64, Vec<u64>)>,
}

/// The scenario: one client pipelines two queries; the responder's
/// first write (the old query's superseded-cancellation) fires ConnDrop
/// at response index 0 — a truncated frame and a severed socket while
/// the *new* query is still in flight. A second client then proves the
/// pool and cache survived.
fn run_scenario() -> Ledger {
    let engine = clean_engine(SERVED_OVERHEAD);
    let srv = NetServer::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        NetServerConfig {
            session: SessionConfig {
                max_concurrent: 1,
                ..SessionConfig::default()
            },
            fault: FaultSpec::with_rate(drop_seed(), 0.5),
            ..NetServerConfig::default()
        },
    )
    .expect("bind");

    let mut victim = NetClient::connect(srv.local_addr(), "").expect("connect");
    let _old = victim
        .send_query(&slider_text(2.0), SubmitOptions::default())
        .expect("send");
    let _new = victim
        .send_query(&slider_text(3.0), SubmitOptions::default())
        .expect("send");
    // The old query's cancelled-superseded frame is response 0 → the
    // connection dies mid-frame under the client.
    let err = victim
        .recv()
        .expect_err("the connection was severed mid-response");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
        ),
        "got {err:?}"
    );

    // Server-side: the in-flight query must settle as cancelled with
    // ConnectionLost attribution (`sessions_lost`), never failed.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let s = srv.session_stats();
        if s.completed + s.cancelled + s.failed == 2 && srv.stats().sessions_lost >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "outcomes never settled: {s:?}");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Slot reclaimed: a fresh connection's query completes on the same
    // single-worker pool, and its result is the fault-free answer —
    // the severed session's cancelled scan never polluted the cache.
    let mut survivor = NetClient::connect(srv.local_addr(), "").expect("reconnect");
    let resp = survivor
        .query(&slider_text(3.0), SubmitOptions::default())
        .expect("the pool survived the drop");
    let Response::Result { tables, .. } = resp else {
        panic!("expected a result, got {resp:?}");
    };
    let reference = clean_engine(Duration::ZERO)
        .execute_text(&slider_text(3.0))
        .expect("reference");
    let ref_points = reference.visualizations[0].series.points();
    let wire = &tables[0].table.groups[0];
    assert_eq!(wire.xs.len(), ref_points.len());
    let survivor_bits: Vec<(u64, Vec<u64>)> = wire
        .xs
        .iter()
        .zip(&wire.ys[0])
        .map(|(x, y)| {
            let xf = match x {
                Value::Float(f) => *f,
                other => panic!("non-float x: {other:?}"),
            };
            (xf.to_bits(), vec![y.to_bits()])
        })
        .collect();
    for (i, &(x, y)) in ref_points.iter().enumerate() {
        assert_eq!(wire.xs[i], Value::Float(x));
        assert_eq!(
            wire.ys[0][i].to_bits(),
            y.to_bits(),
            "survivor result is bit-for-bit the fault-free answer"
        );
    }
    survivor.bye().expect("clean close");

    let cache = engine.database().cache_stats().expect("engine has a cache");
    let net = srv.stats();
    let sess = srv.session_stats();
    srv.shutdown();
    Ledger {
        conn_drops: net.conn_drops_injected,
        sessions_lost: net.sessions_lost,
        completed: sess.completed,
        cancelled: sess.cancelled,
        failed: sess.failed,
        cache_entries: cache.entries as u64,
        cache_insertions: cache.insertions,
        survivor_bits,
    }
}

#[test]
fn conn_drop_severs_cleanly_and_replays_exactly() {
    let first = run_scenario();
    // Exactly one injected drop; the in-flight query was attributed to
    // the lost connection; both of the victim's queries cancelled
    // (superseded + connection-lost), the survivor's completed.
    assert_eq!(first.conn_drops, 1);
    assert_eq!(first.sessions_lost, 1);
    assert_eq!(first.completed, 1, "only the survivor's query completed");
    assert_eq!(first.cancelled, 2);
    assert_eq!(first.failed, 0);
    // Cache bit-for-bit untouched by the severed session: the only
    // insertion is the survivor's completed scan.
    assert_eq!(first.cache_entries, 1);
    assert_eq!(first.cache_insertions, 1);

    // Replay-exact: the scenario is a pure function of its seeds.
    let second = run_scenario();
    assert_eq!(
        first, second,
        "counter ledger and result bits replay exactly"
    );
}

// ---------------------------------------------------------------------
// Slow-read defense (satellite): a client that trickles half a frame
// and stalls must hit the read deadline and free its connection slot.
// ---------------------------------------------------------------------

/// Which of the chaos driver's connections trickle-and-stall. The
/// server never consults [`FaultPoint::ReadStall`] — the *load driver*
/// does, FaultPoint-style, so the stall pattern is a deterministic pure
/// function of the seed (replayed by the assertions below).
fn stall_spec() -> FaultSpec {
    // Seed-search for a mixed population: some stallers, some healthy.
    (0x51A1..)
        .map(|s| FaultSpec::with_rate(s, 0.5))
        .find(|spec| {
            let fires: Vec<bool> = (0..6)
                .map(|i| spec.fires(FaultPoint::ReadStall, i, 0))
                .collect();
            fires.iter().filter(|&&f| f).count() >= 2 && fires.iter().filter(|&&f| !f).count() >= 2
        })
        .expect("a mixed stall seed exists")
}

/// Complete the handshake by hand on a raw socket, then trickle half a
/// query frame and go silent. Returns the stream with the server now
/// owing us a read-deadline reaping.
fn handshake_then_stall(addr: std::net::SocketAddr) -> std::net::TcpStream {
    use std::io::{BufReader, Write};
    use zv_server::wire::{read_frame, write_frame};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    write_frame(
        &mut stream,
        &zv_server::Request::Hello {
            version: zv_server::PROTO_VERSION,
            token: String::new(),
        }
        .to_json(),
    )
    .expect("hello");
    let welcome = read_frame(&mut reader).expect("welcome").expect("frame");
    assert!(
        matches!(
            zv_server::Response::from_json(&welcome),
            Some(zv_server::Response::Welcome { .. })
        ),
        "staller authenticated before stalling"
    );
    // Trickle: a valid length prefix and *half* the body, then silence.
    // The reader is now mid-frame — the idle defense must not apply.
    let body = br#"{"t":"query","id":1,"zql":"x"}"#;
    stream
        .write_all(format!("{}\n", body.len()).as_bytes())
        .expect("len prefix");
    stream
        .write_all(&body[..body.len() / 2])
        .expect("half body");
    stream.flush().expect("flush");
    stream
}

/// Deterministic slow-read chaos: the seeded stall pattern drives raw
/// clients; every staller is reaped within the deadline (counted in
/// `read_stalls`, slot freed), every healthy client completes, and the
/// ledger replays exactly across two runs of the same seed.
#[test]
fn stalled_readers_hit_the_deadline_and_free_their_slots() {
    const DEADLINE: Duration = Duration::from_millis(150);
    const CONNS: u64 = 6;
    let spec = stall_spec();

    let run = || {
        let srv = NetServer::start(
            clean_engine(Duration::ZERO),
            "127.0.0.1:0",
            NetServerConfig {
                read_deadline: Some(DEADLINE),
                ..NetServerConfig::default()
            },
        )
        .expect("bind");
        let mut stallers = Vec::new();
        let mut healthy_results = Vec::new();
        for i in 0..CONNS {
            if spec.fires(FaultPoint::ReadStall, i, 0) {
                stallers.push(handshake_then_stall(srv.local_addr()));
            } else {
                let mut client = NetClient::connect(srv.local_addr(), "").expect("connect");
                let resp = client
                    .query(&slider_text(3.0), SubmitOptions::default())
                    .expect("healthy query");
                // Ledger the answer payload only — ExecReport carries
                // wall-clock timings that legitimately vary run to run.
                let Response::Result { id, tables, .. } = &resp else {
                    panic!("healthy query must answer with a result, got {resp:?}");
                };
                healthy_results.push(format!("id={id} tables={tables:?}"));
                client.bye().expect("bye");
            }
        }
        let n_stalled = stallers.len() as u64;

        // Every staller must observe the server dropping it: EOF on its
        // socket, bounded by the deadline plus a generous CI margin.
        let reap_started = Instant::now();
        for stream in &stallers {
            use std::io::Read;
            stream
                .set_read_timeout(Some(DEADLINE * 40))
                .expect("client timeout");
            let mut sink = [0u8; 64];
            let mut conn = stream.try_clone().expect("clone");
            loop {
                match conn.read(&mut sink) {
                    Ok(0) => break, // the reaping we were owed
                    Ok(_) => continue,
                    Err(e) => panic!("expected EOF from reaped connection, got {e}"),
                }
            }
        }
        let reap_elapsed = reap_started.elapsed();
        assert!(
            reap_elapsed < DEADLINE * 40,
            "reaping took {reap_elapsed:?} — the deadline never fired"
        );

        // Exact bookkeeping: one read_stall per staller, no slot leaked.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = srv.stats();
            if stats.active_connections == 0 && stats.read_stalls == n_stalled {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "slots never freed / stalls miscounted: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = srv.stats();
        assert_eq!(stats.accepted, CONNS);
        assert_eq!(stats.rejected, 0, "stallers must not block admission");
        srv.shutdown();
        (n_stalled, stats.read_stalls, healthy_results)
    };

    let first = run();
    assert!(first.0 >= 2, "seed search guaranteed ≥2 stallers");
    let second = run();
    assert_eq!(first, second, "stall ledger replays exactly");
}

/// The freed slot is genuinely reusable: with `max_connections: 1`, a
/// staller pins the only slot until the deadline reaps it, after which
/// a fresh client connects and completes.
#[test]
fn reaped_stall_slot_admits_the_next_client() {
    const DEADLINE: Duration = Duration::from_millis(150);
    let srv = NetServer::start(
        clean_engine(Duration::ZERO),
        "127.0.0.1:0",
        NetServerConfig {
            max_connections: 1,
            read_deadline: Some(DEADLINE),
            ..NetServerConfig::default()
        },
    )
    .expect("bind");
    let staller = handshake_then_stall(srv.local_addr());

    // While the staller holds the only slot, the front door is full.
    let refused = NetClient::connect(srv.local_addr(), "").expect_err("refused while stalled");
    assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused);

    // After the deadline reaps the staller, the slot admits a fresh
    // client that runs a real query end to end.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut client = loop {
        match NetClient::connect(srv.local_addr(), "") {
            Ok(c) => break c,
            Err(_) => {
                assert!(Instant::now() < deadline, "slot never freed");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    let resp = client
        .query(&slider_text(3.0), SubmitOptions::default())
        .expect("query on reclaimed slot");
    assert!(matches!(resp, Response::Result { .. }));
    client.bye().expect("bye");
    drop(staller);
    let stats = srv.stats();
    assert_eq!(stats.read_stalls, 1);
    // The retry loop above polls while the staller pins the slot, so
    // each poll is one refusal — at least the first probe was refused.
    assert!(stats.rejected >= 1, "the pinned slot never refused anyone");
    srv.shutdown();
}

/// Pre-handshake sockets get no idle grace: a client that connects and
/// never sends a byte must be reaped after one deadline window
/// (`handshake_timeouts`) and give its slot back — otherwise N silent
/// connects exhaust `max_connections` without ever authenticating.
/// Established sessions keep unlimited between-frame idling (the
/// healthy client below outlives several deadline windows).
#[test]
fn silent_pre_handshake_connection_is_reaped_and_frees_its_slot() {
    const DEADLINE: Duration = Duration::from_millis(150);
    let srv = NetServer::start(
        clean_engine(Duration::ZERO),
        "127.0.0.1:0",
        NetServerConfig {
            max_connections: 1,
            read_deadline: Some(DEADLINE),
            ..NetServerConfig::default()
        },
    )
    .expect("bind");

    // Connect, send nothing. The only slot is now pinned by an
    // unauthenticated socket.
    let silent = std::net::TcpStream::connect(srv.local_addr()).expect("connect");

    // The server must hang up on it within the deadline (plus CI
    // margin): EOF on our side, not silence.
    {
        use std::io::Read;
        silent
            .set_read_timeout(Some(DEADLINE * 40))
            .expect("client timeout");
        let mut conn = silent.try_clone().expect("clone");
        let mut sink = [0u8; 64];
        loop {
            match conn.read(&mut sink) {
                Ok(0) => break, // reaped
                Ok(_) => continue,
                Err(e) => panic!("expected EOF from reaped silent connection, got {e}"),
            }
        }
    }

    // The freed slot admits a real client end to end, and an
    // authenticated session idling across several deadline windows is
    // NOT reaped — only the pre-handshake phase lost its grace.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut client = loop {
        match NetClient::connect(srv.local_addr(), "") {
            Ok(c) => break c,
            Err(_) => {
                assert!(Instant::now() < deadline, "slot never freed");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    std::thread::sleep(DEADLINE * 3);
    let resp = client
        .query(&slider_text(3.0), SubmitOptions::default())
        .expect("query after idling past the deadline");
    assert!(matches!(resp, Response::Result { .. }));
    client.bye().expect("bye");
    drop(silent);

    let stats = srv.stats();
    assert_eq!(stats.handshake_timeouts, 1);
    assert_eq!(stats.read_stalls, 0, "no frame was ever in flight");
    assert_eq!(
        stats.auth_failures, 0,
        "the silent socket never reached auth"
    );
    srv.shutdown();
}
