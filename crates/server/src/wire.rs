//! Frame I/O for the [protocol](crate::proto) plus [`NetClient`], the
//! blocking client used by tests, the load generator, and
//! `examples/remote_session.rs`.
//!
//! Framing is `<len>\n<json>\n` (see the [`proto`](crate::proto)
//! module docs for the full layout). Reads and writes are plain
//! blocking I/O — the protocol needs no async runtime: each side has
//! at most one reader and one writer per connection, and unblocking on
//! shutdown is done by shutting the socket down, not by polling.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use zv_storage::Json;

use crate::proto::{Request, Response, PROTO_VERSION};
use crate::SubmitOptions;

/// Upper bound on one frame's JSON body. A full-table result at the
/// scales this repo benches is a few MB; 64 MB rejects a corrupt or
/// hostile length prefix before allocating.
pub const MAX_FRAME: usize = 64 << 20;

fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Write one frame: decimal length, newline, single-line JSON, newline.
pub fn write_frame(w: &mut impl Write, j: &Json) -> io::Result<()> {
    let body = j.to_string();
    debug_assert!(!body.contains('\n'), "the JSON writer emits one line");
    w.write_all(body.len().to_string().as_bytes())?;
    w.write_all(b"\n")?;
    w.write_all(body.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// One [`read_frame_deadline`] outcome. The two timeout variants are
/// the load-bearing distinction for the server's slow-read defense: an
/// *idle* peer (no frame in flight) is healthy and may keep its
/// connection as long as it likes, while a *stalled* peer (deadline
/// expired with a frame half-delivered) is either broken or trickling
/// on purpose and must not pin a connection slot.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete, parsed frame.
    Frame(Json),
    /// Clean EOF between frames.
    Eof,
    /// The read timeout expired with **zero** bytes of the next frame
    /// consumed — the peer is merely quiet. Only possible when the
    /// stream has a read timeout set.
    Idle,
    /// The read timeout expired **mid-frame**: the peer sent part of a
    /// length prefix or body and then went silent. The stream position
    /// is now unusable (partial bytes were consumed), so the caller
    /// must drop the connection.
    Stalled,
}

fn is_timeout(e: &io::Error) -> bool {
    // Unix reports an expired SO_RCVTIMEO as WouldBlock, Windows as
    // TimedOut.
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read one frame, classifying read-timeout expiry as [`FrameRead::Idle`]
/// (nothing consumed — safe to retry) or [`FrameRead::Stalled`]
/// (mid-frame — the connection is beyond saving). EOF or damage inside
/// a frame is an error, exactly as in [`read_frame`].
pub fn read_frame_deadline(r: &mut impl BufRead) -> io::Result<FrameRead> {
    // Length line. `read_until` appends whatever it consumed before an
    // error, so on timeout the buffer tells idle (empty — no byte of
    // this frame was ever consumed) apart from stalled (partial line).
    let mut line = Vec::new();
    match r.read_until(b'\n', &mut line) {
        Ok(0) => return Ok(FrameRead::Eof),
        Ok(_) if line.last() != Some(&b'\n') => {
            return Err(invalid("connection dropped mid-frame"));
        }
        Ok(_) => {}
        Err(e) if is_timeout(&e) => {
            return Ok(if line.is_empty() {
                FrameRead::Idle
            } else {
                FrameRead::Stalled
            });
        }
        Err(e) => return Err(e),
    }
    line.pop();
    let len: usize = std::str::from_utf8(&line)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("frame length prefix is not a decimal number"))?;
    if len > MAX_FRAME {
        return Err(invalid("frame exceeds MAX_FRAME"));
    }
    // Body + trailing newline, hand-looped: `read_exact` leaves the
    // buffer contents unspecified on error, which would conflate a
    // timeout with corruption.
    let mut body = vec![0u8; len + 1];
    let mut filled = 0;
    while filled < body.len() {
        match r.read(&mut body[filled..]) {
            Ok(0) => return Err(invalid("connection dropped mid-frame")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Ok(FrameRead::Stalled),
            Err(e) => return Err(e),
        }
    }
    if body[len] != b'\n' {
        return Err(invalid("frame body is not newline-terminated"));
    }
    let text = std::str::from_utf8(&body[..len]).map_err(|_| invalid("frame is not UTF-8"))?;
    Json::parse(text)
        .map(FrameRead::Frame)
        .map_err(|_| invalid("frame is not valid JSON"))
}

/// Read one frame. `Ok(None)` is a clean EOF *between* frames; EOF or
/// damage inside a frame is an error (the peer vanished mid-message —
/// exactly what [`FaultPoint::ConnDrop`](zv_storage::FaultPoint)
/// simulates). On a stream with a read timeout, idle waits are
/// retried transparently and a mid-frame stall surfaces as
/// `TimedOut` — callers that need to treat the two differently use
/// [`read_frame_deadline`] directly.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Json>> {
    loop {
        match read_frame_deadline(r)? {
            FrameRead::Frame(j) => return Ok(Some(j)),
            FrameRead::Eof => return Ok(None),
            FrameRead::Idle => continue,
            FrameRead::Stalled => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "peer stalled mid-frame",
                ))
            }
        }
    }
}

/// How long [`NetClient`] waits for a server frame before it gives up.
/// Far longer than any answer is meant to take, so it fires only when
/// the server dropped a frame or hung.
pub const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The next frame from the server, or `TimedOut` when none arrives
/// within the stream's read timeout.
fn next_frame(reader: &mut BufReader<TcpStream>, eof: &'static str) -> io::Result<Json> {
    match read_frame_deadline(reader)? {
        FrameRead::Frame(j) => Ok(j),
        FrameRead::Eof => Err(io::Error::new(io::ErrorKind::UnexpectedEof, eof)),
        FrameRead::Idle | FrameRead::Stalled => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "no server frame within the client read timeout",
        )),
    }
}

/// Client connection errors surfaced with a precise cause.
fn refused(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionRefused, msg)
}

/// Blocking client for one zv-server connection: performs the auth
/// handshake on [`NetClient::connect`], then sends [`Request`]s and
/// receives [`Response`]s. Supports pipelining — send several queries
/// before reading; responses come back in submission order, with
/// superseded queries answered by `cancelled` frames. Every read gives
/// up after [`CLIENT_READ_TIMEOUT`].
#[derive(Debug)]
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    session: u64,
    next_id: u64,
}

impl NetClient {
    /// Connect and authenticate. Fails with `ConnectionRefused` when
    /// the server is at its connection limit (typed `busy` frame) and
    /// `PermissionDenied` when the token is rejected.
    pub fn connect(addr: impl ToSocketAddrs, token: &str) -> io::Result<NetClient> {
        Self::connect_with_read_timeout(addr, token, CLIENT_READ_TIMEOUT)
    }

    fn connect_with_read_timeout(
        addr: impl ToSocketAddrs,
        token: &str,
        read_timeout: Duration,
    ) -> io::Result<NetClient> {
        let mut writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(read_timeout))?;
        let mut reader = BufReader::new(writer.try_clone()?);
        write_frame(
            &mut writer,
            &Request::Hello {
                version: PROTO_VERSION,
                token: token.to_string(),
            }
            .to_json(),
        )?;
        let frame = next_frame(&mut reader, "server closed during handshake")?;
        match Response::from_json(&frame) {
            Some(Response::Welcome { session, .. }) => Ok(NetClient {
                reader,
                writer,
                session,
                next_id: 1,
            }),
            Some(Response::Busy { msg, .. }) => Err(refused(format!("server busy: {msg}"))),
            Some(Response::Error { code, msg, .. }) => Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!("handshake rejected ({}): {msg}", code.as_str()),
            )),
            _ => Err(invalid("unexpected handshake frame")),
        }
    }

    /// The session id the server bound this connection to.
    pub fn session(&self) -> u64 {
        self.session
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.writer.local_addr()
    }

    /// Send one query without waiting; returns its correlation id.
    /// Sending a second query before the first answers supersedes it
    /// server-side (newest-interaction-wins).
    pub fn send_query(&mut self, zql: &str, opts: SubmitOptions) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(
            &mut self.writer,
            &Request::Query {
                id,
                zql: zql.to_string(),
                opts,
            }
            .to_json(),
        )?;
        Ok(id)
    }

    /// Cancel the session's live query (fire-and-forget).
    pub fn cancel(&mut self) -> io::Result<()> {
        write_frame(&mut self.writer, &Request::Cancel.to_json())
    }

    /// Read the next server frame. Fails with `TimedOut` when none
    /// arrives within [`CLIENT_READ_TIMEOUT`]: the server dropped a
    /// frame or hung. The client no longer knows where it is in the
    /// response stream then, so it must be dropped, not reused.
    pub fn recv(&mut self) -> io::Result<Response> {
        let frame = next_frame(&mut self.reader, "server closed the connection")?;
        Response::from_json(&frame).ok_or_else(|| invalid("unintelligible server frame"))
    }

    /// Convenience: send one query and block for *its* response,
    /// discarding responses to earlier (pipelined, now superseded)
    /// queries. Times out like [`NetClient::recv`].
    pub fn query(&mut self, zql: &str, opts: SubmitOptions) -> io::Result<Response> {
        let id = self.send_query(zql, opts)?;
        loop {
            let resp = self.recv()?;
            let matches = match &resp {
                Response::Result { id: got, .. } | Response::Cancelled { id: got, .. } => {
                    *got == id
                }
                Response::Busy { id: got, .. } | Response::Error { id: got, .. } => {
                    *got == Some(id)
                }
                Response::Welcome { .. } => false,
            };
            if matches {
                return Ok(resp);
            }
        }
    }

    /// Graceful close: sends `bye` and shuts the socket down.
    pub fn bye(mut self) -> io::Result<()> {
        write_frame(&mut self.writer, &Request::Bye.to_json())?;
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
        // Drain until the server closes so its responder never sees a
        // reset while flushing.
        let mut sink = Vec::new();
        let _ = self.reader.read_to_end(&mut sink);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let j = Json::parse(r#"{"t":"query","id":1,"zql":"NAME=f1 X='x' Y='y'"}"#).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &j).unwrap();
        write_frame(&mut buf, &Json::Null).unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap().to_string(),
            j.to_string()
        );
        assert!(read_frame(&mut r).unwrap().unwrap().is_null());
        assert!(
            read_frame(&mut r).unwrap().is_none(),
            "clean EOF between frames"
        );
    }

    /// Yields its bytes, then fails like an expired `SO_RCVTIMEO`.
    struct Trickle(io::Cursor<Vec<u8>>);

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.read(buf) {
                Ok(0) => Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout")),
                other => other,
            }
        }
    }

    fn trickle(bytes: &[u8]) -> BufReader<Trickle> {
        BufReader::new(Trickle(io::Cursor::new(bytes.to_vec())))
    }

    #[test]
    fn deadline_expiry_is_idle_between_frames_and_stalled_inside_them() {
        // Nothing consumed: the peer is merely quiet.
        assert!(matches!(
            read_frame_deadline(&mut trickle(b"")).unwrap(),
            FrameRead::Idle
        ));
        // Partial length prefix: mid-frame, the stream is unusable.
        assert!(matches!(
            read_frame_deadline(&mut trickle(b"12")).unwrap(),
            FrameRead::Stalled
        ));
        // Complete prefix, half a body: also stalled.
        assert!(matches!(
            read_frame_deadline(&mut trickle(b"2\n{")).unwrap(),
            FrameRead::Stalled
        ));
        // A whole frame followed by silence still parses first.
        let mut r = trickle(b"2\n{}\n");
        assert!(matches!(
            read_frame_deadline(&mut r).unwrap(),
            FrameRead::Frame(_)
        ));
        assert!(matches!(
            read_frame_deadline(&mut r).unwrap(),
            FrameRead::Idle
        ));
        // The retrying wrapper turns a mid-frame stall into TimedOut.
        let err = read_frame(&mut trickle(b"12")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    /// A server that answers the handshake and the first query, then
    /// swallows the response to the second: the client's `query` fails
    /// with `TimedOut` after the read timeout instead of hanging.
    #[test]
    fn client_times_out_when_the_server_swallows_a_frame() {
        use std::net::TcpListener;
        use std::time::Instant;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut writer, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(writer.try_clone().unwrap());
            read_frame(&mut reader).unwrap().expect("hello");
            let welcome = Response::Welcome {
                version: PROTO_VERSION,
                session: 7,
            };
            write_frame(&mut writer, &welcome.to_json()).unwrap();
            let first = read_frame(&mut reader).unwrap().expect("first query");
            let Some(Request::Query { id, .. }) = Request::from_json(&first) else {
                panic!("expected a query frame");
            };
            let answer = Response::Cancelled { id, reason: None };
            write_frame(&mut writer, &answer.to_json()).unwrap();
            // Swallow the second query's response; hold the connection
            // open until the client goes away.
            read_frame(&mut reader).unwrap().expect("second query");
            let _ = reader.read_to_end(&mut Vec::new());
        });

        let timeout = Duration::from_millis(300);
        let mut client = NetClient::connect_with_read_timeout(addr, "", timeout).unwrap();
        assert_eq!(client.session(), 7);
        let first = client.query("q1", SubmitOptions::default()).unwrap();
        assert!(matches!(first, Response::Cancelled { id: 1, .. }));
        let start = Instant::now();
        let err = client.query("q2", SubmitOptions::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(start.elapsed() >= timeout);
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn truncated_and_damaged_frames_error() {
        // Truncated mid-body: the ConnDrop shape.
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::str("hello")).unwrap();
        buf.truncate(buf.len() - 4);
        let mut r = io::Cursor::new(buf);
        assert!(
            read_frame(&mut r).is_err(),
            "mid-frame EOF must error, not Ok(None)"
        );
        // Garbage length prefix.
        let mut r = io::Cursor::new(b"xyz\n{}\n".to_vec());
        assert!(read_frame(&mut r).is_err());
        // Length prefix larger than MAX_FRAME must not allocate/hang.
        let mut r = io::Cursor::new(format!("{}\n", usize::MAX).into_bytes());
        assert!(read_frame(&mut r).is_err());
        // Body shorter than advertised.
        let mut r = io::Cursor::new(b"10\n{}\n".to_vec());
        assert!(read_frame(&mut r).is_err());
    }
}
