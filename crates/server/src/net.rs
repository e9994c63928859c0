//! # The networked front door
//!
//! [`NetServer`] puts a TCP listener in front of a [`SessionManager`]:
//! blocking I/O on scoped threads (no async runtime — the workload is
//! a bounded number of interactive connections, each cheap to give a
//! thread), speaking the [length-prefixed line-JSON
//! protocol](crate::proto).
//!
//! ## Thread & ownership model
//!
//! One driver thread runs the accept loop inside a `std::thread::scope`
//! and spawns a **reader** per connection in that scope (the scope
//! guarantees every connection thread is joined before the listener
//! drops). Each reader spawns and joins one **responder** thread, the
//! sole writer of that socket after the handshake:
//!
//! * the reader parses frames, submits queries to the shared
//!   [`SessionManager`], and forwards `(id, QueryHandle)` pairs — plus
//!   immediate `busy`/`error` frames — over an in-process channel;
//! * the responder consumes that channel FIFO, blocks on each handle,
//!   serializes the outcome, and writes it. FIFO is safe under
//!   supersession: an old query is cancelled the moment a newer one is
//!   submitted, so waiting on it cannot stall the newer one's response.
//!
//! ## Connection-aware admission
//!
//! `max_connections` is enforced at accept: an over-limit socket gets a
//! typed `busy` frame and an immediate close — a full front door is an
//! explicit signal, never a silent hang. Queue-full rejections from the
//! session layer surface the same way, per-query.
//!
//! ## Fault injection
//!
//! The server owns its **own** [`FaultSpec`] (separate from the
//! engine's scan-level spec): [`FaultPoint::ConnDrop`] is consulted
//! with the connection's response sequence number as the index and the
//! session id as the epoch — each connection gets an independent,
//! deterministic decision stream. A hit makes the responder write a
//! truncated frame, sever the socket, and attribute the session's
//! in-flight work to [`CancelReason::ConnectionLost`] — the chaos
//! suite's handle on "the client vanished mid-response".
//!
//! ## Slow-read defense
//!
//! Every reader socket carries a `read_deadline` (SO_RCVTIMEO). After
//! the handshake, the deadline distinguishes two kinds of quiet peer
//! via [`FrameRead`]: an **idle** client (deadline
//! expired with zero bytes of the next frame consumed) is healthy and
//! keeps its connection indefinitely, while a **stalled** client
//! (deadline expired mid-frame — it trickled half a length prefix or
//! body and went silent, the classic slowloris shape) is counted in
//! `read_stalls`, its in-flight work cancelled as a lost connection,
//! and its slot freed. The stream position is unrecoverable after a
//! mid-frame timeout, which is exactly why stalled connections are
//! dropped rather than retried. **Before** the handshake there is no
//! idle grace at all: a client that connects and sends nothing for one
//! whole deadline window is reaped (`handshake_timeouts`) — it has not
//! authenticated, so it does not get to pin one of `max_connections`
//! slots by staying silent.
//!
//! ## Graceful drain
//!
//! [`NetServer::shutdown`] stops accepting, waits (bounded by
//! `drain_timeout`) for queued responses to flush, then cancels
//! remaining sessions and severs the sockets. Readers blocked on idle
//! clients unblock via the socket shutdown — idle timeouts merely
//! re-arm the read, they never tear a connection down.

use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zql::{ZqlEngine, ZqlError, ZqlOutput};
use zv_storage::fault::lock_recover;
use zv_storage::{
    CancelReason, FaultPoint, FaultSpec, GroupSeries, ResultTable, StorageError, Value,
};

use crate::proto::{ErrorCode, Request, Response, VizTable, PROTO_VERSION};
use crate::wire::{read_frame, read_frame_deadline, write_frame, FrameRead};
use crate::{QueryHandle, SessionConfig, SessionManager, SessionStats, SubmitError};

/// Tuning for a [`NetServer`].
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Connections served at once; the next one gets a `busy` frame.
    pub max_connections: usize,
    /// Session-layer admission config (worker pool, queue bound,
    /// breaker).
    pub session: SessionConfig,
    /// Accepted auth tokens. Empty = any token authenticates (open
    /// server, the test/bench default).
    pub auth_tokens: Vec<String>,
    /// How long [`NetServer::shutdown`] waits for queued responses to
    /// flush before severing connections.
    pub drain_timeout: Duration,
    /// The server's own fault spec ([`FaultPoint::ConnDrop`]) —
    /// independent of the engine's scan-level injection.
    pub fault: FaultSpec,
    /// Per-read deadline on client sockets. A client that stalls
    /// *mid-frame* for this long is dropped and its connection slot
    /// freed, and a client that lets this long pass *before completing
    /// its hello* is reaped unauthenticated (see the module docs on
    /// slow-read defense); established clients idle *between* frames
    /// are never reaped. `None` disables the defense (readers block
    /// until EOF/shutdown).
    pub read_deadline: Option<Duration>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_connections: 64,
            session: SessionConfig::default(),
            auth_tokens: Vec::new(),
            drain_timeout: Duration::from_secs(5),
            fault: FaultSpec::disabled(),
            read_deadline: Some(Duration::from_secs(30)),
        }
    }
}

/// Wire-layer counters (monotone, exact — `tests/net.rs` reconciles
/// bookkeeping against them).
#[derive(Default)]
pub struct NetStats {
    pub accepted: AtomicU64,
    /// Connections refused at the limit (got a `busy` frame).
    pub rejected: AtomicU64,
    pub auth_failures: AtomicU64,
    pub queries_received: AtomicU64,
    pub results_sent: AtomicU64,
    pub cancelled_sent: AtomicU64,
    pub busy_sent: AtomicU64,
    pub errors_sent: AtomicU64,
    /// Responses severed by an injected [`FaultPoint::ConnDrop`].
    pub conn_drops_injected: AtomicU64,
    /// Sessions whose in-flight query was cancelled with
    /// [`CancelReason::ConnectionLost`] (client vanished or ConnDrop).
    pub sessions_lost: AtomicU64,
    /// Connections dropped because the client stalled mid-frame past
    /// the read deadline (slow-read defense).
    pub read_stalls: AtomicU64,
    /// Connections reaped because the client sat out a whole read
    /// deadline without completing its hello — pre-auth sockets get no
    /// idle grace, so silent connects can't pin connection slots.
    pub handshake_timeouts: AtomicU64,
    pub active_connections: AtomicUsize,
}

/// Point-in-time copy of [`NetStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    pub accepted: u64,
    pub rejected: u64,
    pub auth_failures: u64,
    pub queries_received: u64,
    pub results_sent: u64,
    pub cancelled_sent: u64,
    pub busy_sent: u64,
    pub errors_sent: u64,
    pub conn_drops_injected: u64,
    pub sessions_lost: u64,
    pub read_stalls: u64,
    pub handshake_timeouts: u64,
    pub active_connections: usize,
}

impl NetStats {
    fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            auth_failures: self.auth_failures.load(Ordering::Relaxed),
            queries_received: self.queries_received.load(Ordering::Relaxed),
            results_sent: self.results_sent.load(Ordering::Relaxed),
            cancelled_sent: self.cancelled_sent.load(Ordering::Relaxed),
            busy_sent: self.busy_sent.load(Ordering::Relaxed),
            errors_sent: self.errors_sent.load(Ordering::Relaxed),
            conn_drops_injected: self.conn_drops_injected.load(Ordering::Relaxed),
            sessions_lost: self.sessions_lost.load(Ordering::Relaxed),
            read_stalls: self.read_stalls.load(Ordering::Relaxed),
            handshake_timeouts: self.handshake_timeouts.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
        }
    }
}

struct Shared {
    manager: SessionManager,
    max_connections: usize,
    auth_tokens: Vec<String>,
    fault: FaultSpec,
    read_deadline: Option<Duration>,
    stats: NetStats,
    draining: AtomicBool,
    /// Pending query responses not yet written (drain waits on this).
    unflushed: AtomicUsize,
    next_session: AtomicU64,
    /// `try_clone`s of live sockets, for severing on drain. Keyed by
    /// session id.
    conns: Mutex<Vec<(u64, TcpStream)>>,
}

impl Shared {
    /// Attribute a vanished connection: cancel the session's in-flight
    /// query as [`CancelReason::ConnectionLost`]. `lost_once` dedupes
    /// the counter — the reader (EOF) and the responder (write failure
    /// or injected drop) can both observe the same death.
    fn lost_session(&self, session: u64, lost_once: &AtomicBool) {
        let cancelled = self
            .manager
            .cancel_session_with(session, CancelReason::ConnectionLost);
        if cancelled && !lost_once.swap(true, Ordering::SeqCst) {
            self.stats.sessions_lost.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn unregister(&self, session: u64) {
        lock_recover(&self.conns).retain(|(s, _)| *s != session);
    }
}

/// A running server. Dropping it (or calling [`NetServer::shutdown`])
/// drains gracefully.
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    drain_timeout: Duration,
    driver: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `engine` under `config`.
    pub fn start(
        engine: Arc<ZqlEngine>,
        addr: &str,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            manager: SessionManager::new(engine, config.session),
            max_connections: config.max_connections.max(1),
            auth_tokens: config.auth_tokens,
            fault: config.fault,
            read_deadline: config.read_deadline,
            stats: NetStats::default(),
            draining: AtomicBool::new(false),
            unflushed: AtomicUsize::new(0),
            next_session: AtomicU64::new(1),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let driver = std::thread::Builder::new()
            .name("zv-net-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(NetServer {
            addr,
            shared,
            drain_timeout: config.drain_timeout,
            driver: Some(driver),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> NetStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The session layer's counters (shared with in-process callers).
    pub fn session_stats(&self) -> SessionStats {
        self.shared.manager.stats()
    }

    /// Graceful drain: stop accepting, flush queued responses (bounded
    /// by `drain_timeout`), cancel what remains, sever the sockets,
    /// join every connection thread.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        let Some(driver) = self.driver.take() else {
            return;
        };
        self.shared.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + self.drain_timeout;
        while self.shared.unflushed.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Wake the accept loop (it checks `draining` per accept).
        let _ = TcpStream::connect(self.addr);
        // Sever every remaining connection; blocked readers unblock
        // with EOF, responders flush-fail silently and exit.
        let severed: Vec<(u64, TcpStream)> = std::mem::take(&mut *lock_recover(&self.shared.conns));
        for (session, stream) in severed {
            self.shared
                .manager
                .cancel_session_with(session, CancelReason::Explicit);
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = driver.join();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.drain();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let shared = &shared;
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            if shared.draining.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let active = shared.stats.active_connections.load(Ordering::SeqCst);
            if active >= shared.max_connections {
                // Typed refusal, never a hang: the client's handshake
                // read gets a busy frame instead of silence.
                shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                shared.stats.busy_sent.fetch_add(1, Ordering::Relaxed);
                let refuse_shared = Arc::clone(shared);
                scope.spawn(move || refuse_conn(stream, &refuse_shared));
                continue;
            }
            shared
                .stats
                .active_connections
                .fetch_add(1, Ordering::SeqCst);
            shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
            let conn_shared = Arc::clone(shared);
            scope.spawn(move || {
                handle_conn(stream, &conn_shared);
                conn_shared
                    .stats
                    .active_connections
                    .fetch_sub(1, Ordering::SeqCst);
            });
        }
    });
}

/// Refuse one over-limit connection with a typed `busy` frame. The
/// client's hello is consumed first — closing with unread bytes in the
/// receive buffer makes TCP send an RST that can destroy the busy
/// frame before the client reads it. The read is bounded (the socket
/// is closed regardless), so a silent client can't pin this thread.
fn refuse_conn(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    if let Ok(clone) = stream.try_clone() {
        let mut reader = BufReader::new(clone);
        let _ = read_frame(&mut reader);
    }
    let _ = write_frame(
        &mut stream,
        &Response::Busy {
            id: None,
            queued: shared.max_connections as u64,
            msg: "connection limit reached".to_string(),
        }
        .to_json(),
    );
    let _ = stream.shutdown(Shutdown::Write);
}

/// What the reader forwards to the responder. One channel per
/// connection keeps a single writer per socket — immediate frames and
/// query responses interleave in arrival order.
enum Outgoing {
    Immediate(Response),
    Pending { id: u64, handle: QueryHandle },
}

fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    // Arm the slow-read defense before the handshake; the handshake
    // read below treats any timeout — trickled hello or dead silence —
    // as grounds to reap the unauthenticated connection.
    let _ = reader_stream.set_read_timeout(shared.read_deadline);
    let mut reader = BufReader::new(reader_stream);
    let mut writer = stream;

    // ---- Handshake (this thread is the only writer until it ends).
    // No idle grace before authentication: a client that connects and
    // lets a whole deadline window pass without completing its hello is
    // reaped — otherwise N silent sockets exhaust `max_connections`
    // without ever authenticating. (Established sessions may idle
    // between frames indefinitely; see `reader_loop`.)
    let hello = match read_frame_deadline(&mut reader) {
        Ok(FrameRead::Frame(frame)) => Request::from_json(&frame),
        Ok(FrameRead::Idle | FrameRead::Stalled) => {
            shared
                .stats
                .handshake_timeouts
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        Ok(FrameRead::Eof) | Err(_) => return,
    };
    let token = match hello {
        Some(Request::Hello { version, token }) if version == PROTO_VERSION => token,
        Some(Request::Hello { version, .. }) => {
            shared.stats.errors_sent.fetch_add(1, Ordering::Relaxed);
            let _ = write_frame(
                &mut writer,
                &Response::Error {
                    id: None,
                    code: ErrorCode::Proto,
                    msg: format!("protocol version {version} unsupported (want {PROTO_VERSION})"),
                }
                .to_json(),
            );
            return;
        }
        _ => {
            shared.stats.errors_sent.fetch_add(1, Ordering::Relaxed);
            let _ = write_frame(
                &mut writer,
                &Response::Error {
                    id: None,
                    code: ErrorCode::Proto,
                    msg: "expected hello frame".to_string(),
                }
                .to_json(),
            );
            return;
        }
    };
    if !shared.auth_tokens.is_empty() && !shared.auth_tokens.contains(&token) {
        shared.stats.auth_failures.fetch_add(1, Ordering::Relaxed);
        shared.stats.errors_sent.fetch_add(1, Ordering::Relaxed);
        let _ = write_frame(
            &mut writer,
            &Response::Error {
                id: None,
                code: ErrorCode::Auth,
                msg: "auth token rejected".to_string(),
            }
            .to_json(),
        );
        return;
    }
    let session = shared.next_session.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = writer.try_clone() {
        lock_recover(&shared.conns).push((session, clone));
    }
    if write_frame(
        &mut writer,
        &Response::Welcome {
            version: PROTO_VERSION,
            session,
        }
        .to_json(),
    )
    .is_err()
    {
        shared.unregister(session);
        return;
    }

    // ---- Serve: reader (this thread) + one responder (sole writer).
    let (tx, rx) = channel::<Outgoing>();
    let lost_once = Arc::new(AtomicBool::new(false));
    let responder = std::thread::Builder::new()
        .name(format!("zv-net-responder-{session}"))
        .spawn({
            let shared = Arc::clone(shared);
            let lost_once = Arc::clone(&lost_once);
            move || responder_loop(writer, rx, session, &shared, &lost_once)
        });
    let responder = match responder {
        Ok(h) => h,
        Err(_) => {
            shared.unregister(session);
            return;
        }
    };

    let clean_bye = reader_loop(&mut reader, session, shared, &tx);
    drop(tx);
    if clean_bye {
        // Any in-flight query dies with the connection, attributed
        // explicitly (the client asked to close).
        shared
            .manager
            .cancel_session_with(session, CancelReason::Explicit);
    } else {
        shared.lost_session(session, &lost_once);
    }
    let _ = responder.join();
    shared.unregister(session);
}

/// Returns `true` on a clean `bye`, `false` when the client vanished.
fn reader_loop(
    reader: &mut BufReader<TcpStream>,
    session: u64,
    shared: &Shared,
    tx: &Sender<Outgoing>,
) -> bool {
    loop {
        let frame = match read_frame_deadline(reader) {
            Ok(FrameRead::Frame(frame)) => frame,
            // Idle between frames: healthy — re-arm the read. (Drain
            // unblocks idle readers by severing the socket, which
            // surfaces as EOF, not a timeout.)
            Ok(FrameRead::Idle) => continue,
            // Stalled mid-frame: the slow-read defense. The stream
            // position is unrecoverable; count it and drop the client,
            // freeing its connection slot.
            Ok(FrameRead::Stalled) => {
                shared.stats.read_stalls.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            Ok(FrameRead::Eof) | Err(_) => return false,
        };
        match Request::from_json(&frame) {
            Some(Request::Query { id, zql, opts }) => {
                shared
                    .stats
                    .queries_received
                    .fetch_add(1, Ordering::Relaxed);
                // Count the response as unflushed *before* submitting:
                // once the submit is visible in SessionStats, drain is
                // guaranteed to wait for its response.
                shared.unflushed.fetch_add(1, Ordering::SeqCst);
                let out = match shared.manager.submit_text(session, &zql, opts) {
                    Ok(handle) => Outgoing::Pending { id, handle },
                    Err(e) => {
                        shared.unflushed.fetch_sub(1, Ordering::SeqCst);
                        Outgoing::Immediate(match e {
                            SubmitError::QueueFull { capacity } => Response::Busy {
                                id: Some(id),
                                queued: capacity as u64,
                                msg: "session queue full".to_string(),
                            },
                            SubmitError::ShuttingDown => Response::Busy {
                                id: Some(id),
                                queued: 0,
                                msg: "server draining".to_string(),
                            },
                            SubmitError::Parse(e) => Response::Error {
                                id: Some(id),
                                code: ErrorCode::Parse,
                                msg: e.to_string(),
                            },
                        })
                    }
                };
                if let Err(unsent) = tx.send(out) {
                    // Responder died (ConnDrop): the socket is gone.
                    // The response will never be written — don't let
                    // drain wait for it.
                    if matches!(unsent.0, Outgoing::Pending { .. }) {
                        shared.unflushed.fetch_sub(1, Ordering::SeqCst);
                    }
                    return false;
                }
            }
            Some(Request::Cancel) => {
                shared.manager.cancel_session(session);
            }
            Some(Request::Bye) => return true,
            Some(Request::Hello { .. }) | None => {
                let _ = tx.send(Outgoing::Immediate(Response::Error {
                    id: None,
                    code: ErrorCode::Proto,
                    msg: "unintelligible frame".to_string(),
                }));
                return false;
            }
        }
    }
}

fn responder_loop(
    mut writer: TcpStream,
    rx: Receiver<Outgoing>,
    session: u64,
    shared: &Shared,
    lost_once: &AtomicBool,
) {
    // Once the socket is severed (injected drop or write failure) keep
    // draining the channel so every pending handle is still waited —
    // outcome bookkeeping stays exact even when nobody hears it.
    let mut dead = false;
    // `response_seq` (this connection's response sequence number) is
    // the ConnDrop fault index.
    for (response_seq, out) in (0_u64..).zip(rx) {
        let (resp, was_pending) = match out {
            Outgoing::Immediate(resp) => (resp, false),
            Outgoing::Pending { id, handle } => {
                let ctx = handle.ctx().clone();
                let resp = match handle.wait() {
                    Ok(output) => response_for_output(id, output),
                    Err(ZqlError::Storage(StorageError::Cancelled)) => Response::Cancelled {
                        id,
                        reason: ctx.cancel_reason(),
                    },
                    Err(ZqlError::Parse(e)) => Response::Error {
                        id: Some(id),
                        code: ErrorCode::Parse,
                        msg: e.to_string(),
                    },
                    Err(ZqlError::Semantic(m)) => Response::Error {
                        id: Some(id),
                        code: ErrorCode::Semantic,
                        msg: m,
                    },
                    Err(ZqlError::Storage(e)) => Response::Error {
                        id: Some(id),
                        code: ErrorCode::Storage,
                        msg: e.to_string(),
                    },
                };
                (resp, true)
            }
        };
        if !dead {
            if shared
                .fault
                .fires(FaultPoint::ConnDrop, response_seq, session)
            {
                // Simulate the network dying mid-response: half a frame,
                // then a severed socket. The session's in-flight work is
                // attributed to the lost connection.
                shared
                    .stats
                    .conn_drops_injected
                    .fetch_add(1, Ordering::Relaxed);
                let body = resp.to_json().to_string();
                // Half the frame, sliced in bytes (a char boundary is
                // exactly what a real network drop doesn't respect).
                let _ = writer.write_all(body.len().to_string().as_bytes());
                let _ = writer.write_all(b"\n");
                let _ = writer.write_all(&body.as_bytes()[..body.len() / 2]);
                let _ = writer.flush();
                let _ = writer.shutdown(Shutdown::Both);
                shared.lost_session(session, lost_once);
                dead = true;
            } else {
                let counter = match &resp {
                    Response::Result { .. } => &shared.stats.results_sent,
                    Response::Cancelled { .. } => &shared.stats.cancelled_sent,
                    Response::Busy { .. } => &shared.stats.busy_sent,
                    _ => &shared.stats.errors_sent,
                };
                if write_frame(&mut writer, &resp.to_json()).is_ok() {
                    counter.fetch_add(1, Ordering::Relaxed);
                } else {
                    shared.lost_session(session, lost_once);
                    dead = true;
                }
            }
        }
        if was_pending {
            shared.unflushed.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn response_for_output(id: u64, output: ZqlOutput) -> Response {
    let tables = output
        .visualizations
        .into_iter()
        .map(|viz| {
            let (xs, ys): (Vec<Value>, Vec<f64>) = viz
                .series
                .points()
                .iter()
                .map(|&(x, y)| (Value::Float(x), y))
                .unzip();
            VizTable {
                component: viz.component,
                x: viz.x,
                y: viz.y,
                label: viz.label,
                table: ResultTable {
                    z_cols: vec![],
                    groups: vec![GroupSeries {
                        key: vec![],
                        xs,
                        ys: vec![ys],
                    }],
                },
            }
        })
        .collect();
    Response::Result {
        id,
        tables,
        report: output.report,
    }
}
