//! The live introspection server: five read-only HTTP endpoints over an
//! [`Obs`] bundle, built on `std::net::TcpListener` alone (the workspace
//! builds fully offline, so no HTTP framework).
//!
//! Endpoints:
//!
//! - `/healthz` — liveness probe, `ok`;
//! - `/metrics` — the Prometheus text exposition, byte-identical to
//!   [`prometheus_text`] over the same registry;
//! - `/traces` — the JSONL journal, byte-identical to
//!   [`TraceJournal::to_jsonl`](crate::TraceJournal::to_jsonl);
//! - `/sessions` — the live session board as JSON;
//! - `/explain?run=N&plan=i,j,k` — the dominance-provenance query,
//!   [`RunProfile::explain`](crate::RunProfile::explain) over the same
//!   reconstruction as `/profile` (`run` defaults to the journal's latest
//!   run);
//! - `/profile` and `/profile?run=N[&format=text]` — the span-tree
//!   profile of [`crate::profile`], reconstructed from the journal,
//!   byte-identical to the offline renderers; `N` is the same number on
//!   both endpoints, the zero-based index of the `run_started` marker;
//! - `/divergence` — the source-drift recomputation of
//!   [`crate::divergence`] over the journal (default config), the same
//!   bytes [`DivergenceMonitor::to_json`] renders offline;
//! - `/backends` — the published backend directory (label, kind, live
//!   epoch), byte-identical to [`backends_text`] over the same board.
//!
//! Malformed query strings on `/explain` and `/profile` return 400, and
//! request heads are bounded (oversized or unterminated heads return 400
//! without being routed).
//!
//! [`DivergenceMonitor::to_json`]: crate::divergence::DivergenceMonitor::to_json
//!
//! It runs on [`ConnectionServer`], the one accept loop of the workspace
//! (`qpo-runtime`'s source server runs on it too), at most
//! `MAX_CONNECTIONS` connections at once. A request head must arrive
//! within `HEAD_DEADLINE` of the accept, however it trickles in
//! ([`read_by`]). Every response is a pure function of the observed state
//! at request time.

use std::io::{self, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::backends::backends_text;
use crate::divergence::DivergenceMonitor;
use crate::explain::{parse_plan, Explanation};
use crate::export::prometheus_text;
use crate::profile::ProfileIndex;
use crate::Obs;

/// Upper bound on the request head; anything larger is rejected with a
/// 400 before routing.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Bound on the connections served at once, one thread each.
const MAX_CONNECTIONS: usize = 16;

/// How long a client has, from the accept, to send its whole request head.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// A running loopback server, one thread accepting and one per live
/// connection. Dropping it (or [`ConnectionServer::stop`]) stops them all.
#[derive(Debug)]
pub struct ConnectionServer {
    addr: SocketAddr,
    /// The stop flag and the accepting thread, until stopped.
    running: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

/// The introspection server: a [`ConnectionServer`] running [`serve`]'s handler.
pub type IntrospectionServer = ConnectionServer;

impl ConnectionServer {
    /// Binds `127.0.0.1:port` (0: an ephemeral port) and runs `handler` on
    /// each connection, at most `cap` at once (one past it is dropped
    /// unserved), on threads named `name` (accepting) and `name-conn`.
    pub fn bind<H>(port: u16, cap: usize, name: &str, handler: H) -> io::Result<Self>
    where
        H: Fn(&mut TcpStream) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let (conn_name, handler) = (format!("{name}-conn"), Arc::new(handler));
        let accepting = spawn(name.into(), move || {
            let mut live: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
            let stopping = || flag.load(Ordering::SeqCst);
            for conn in listener.incoming().take_while(|_| !stopping()) {
                live.retain(|(_, thread)| !thread.is_finished());
                let Ok(mut stream) = conn else { continue };
                if live.len() >= cap {
                    continue; // dropped unserved
                }
                let Ok(peer) = stream.try_clone() else {
                    continue;
                };
                let handler = Arc::clone(&handler);
                // `peer`, kept to stop it with, holds the socket open: only
                // a shutdown sends the client its FIN.
                let spawned = spawn(conn_name.clone(), move || {
                    handler(&mut stream);
                    let _ = stream.shutdown(Shutdown::Both);
                });
                live.extend(spawned.ok().map(|thread| (peer, thread)));
            }
            drop(listener);
            for (peer, thread) in live {
                let _ = peer.shutdown(Shutdown::Both); // a blocked read returns
                let _ = thread.join();
            }
        })?;
        let running = Some((shutdown, accepting));
        Ok(ConnectionServer { addr, running })
    }

    /// The bound address (the OS-assigned port when started on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, shuts down every live connection, and joins all
    /// server threads. Idempotent.
    pub fn stop(&mut self) {
        if let Some((shutdown, accepting)) = self.running.take() {
            shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept call with one throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = accepting.join();
        }
    }
}

impl Drop for ConnectionServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(f)
}

/// One read that returns by `deadline`: past it, a timeout error.
pub fn read_by(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> io::Result<usize> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(io::ErrorKind::TimedOut.into());
    }
    stream.set_read_timeout(Some(left))?;
    stream.read(buf)
}

/// Starts the introspection server on `127.0.0.1:port` (0 asks the OS
/// for an ephemeral port) serving the given observability bundle.
pub fn serve(obs: &Obs, port: u16) -> io::Result<IntrospectionServer> {
    let obs = obs.clone();
    ConnectionServer::bind(port, MAX_CONNECTIONS, "qpo-introspection", move |stream| {
        handle_connection(stream, &obs)
    })
}

fn handle_connection(stream: &mut TcpStream, obs: &Obs) {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let _ = stream.set_write_timeout(Some(HEAD_DEADLINE));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the end of the request head, bounded in bytes and by one
    // deadline for the whole head, not a timeout per read: introspection
    // requests carry no body, and a head that exceeds the cap without
    // terminating is rejected rather than routed.
    let mut terminated = false;
    while !terminated && buf.len() <= MAX_HEAD_BYTES {
        match read_by(stream, &mut chunk, deadline) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return,
        }
        terminated = buf.windows(4).any(|w| w == b"\r\n\r\n");
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let too_large = !terminated && buf.len() > MAX_HEAD_BYTES;
    let (status, reason, content_type, body) = if too_large {
        fail(400, "Bad Request", "request head too large")
    } else if method != "GET" {
        fail(405, "Method Not Allowed", "only GET is supported")
    } else if !target.starts_with('/') {
        fail(400, "Bad Request", "malformed request target")
    } else {
        respond(target, obs)
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
    if too_large {
        // Lingering close: drain what the client keeps sending (bounded
        // by a second deadline and a byte cap) so closing the socket with
        // unread data doesn't reset the connection and discard the 400
        // we just wrote.
        let (deadline, mut drained) = (Instant::now() + HEAD_DEADLINE, 0);
        while let Ok(n @ 1..) = read_by(stream, &mut chunk, deadline) {
            drained += n;
            if drained > 64 * MAX_HEAD_BYTES {
                break;
            }
        }
    }
}

/// `(status, reason, content-type, body)`.
type Response = (u16, &'static str, &'static str, String);

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json; charset=utf-8";

fn ok(content_type: &'static str, body: String) -> Response {
    (200, "OK", content_type, body)
}

fn fail(status: u16, reason: &'static str, message: &str) -> Response {
    (status, reason, TEXT, format!("{message}\n"))
}

/// Routes one request target to its response. Split out (and
/// crate-public) so tests can exercise routing without a socket.
pub(crate) fn respond(target: &str, obs: &Obs) -> Response {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    match path {
        "/healthz" => ok(TEXT, "ok\n".to_string()),
        "/metrics" => ok(
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus_text(&obs.registry),
        ),
        "/traces" => ok("application/jsonl; charset=utf-8", obs.journal.to_jsonl()),
        "/sessions" => ok(JSON, obs.sessions.to_json()),
        "/explain" => explain_response(query, obs),
        "/profile" => profile_response(query, obs),
        "/backends" => ok(TEXT, backends_text(&obs.backends)),
        "/divergence" => ok(
            JSON,
            DivergenceMonitor::from_profile(&ProfileIndex::from_journal(&obs.journal)).to_json(),
        ),
        _ => fail(
            404,
            "Not Found",
            "unknown path; try /healthz /metrics /traces /sessions /explain /profile /divergence /backends",
        ),
    }
}

fn explain_response(query: &str, obs: &Obs) -> Response {
    const USAGE: &str =
        "usage: /explain?run=N&plan=i,j,k (runs count from 0 as in /profile; default: the latest)";
    let mut run: Option<u64> = None;
    let mut plan: Option<Vec<usize>> = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        // Strict parsing: an unknown key or unparsable value is a 400,
        // never silently ignored.
        match pair.split_once('=') {
            Some(("run", v)) => match v.parse() {
                Ok(n) => run = Some(n),
                Err(_) => return fail(400, "Bad Request", USAGE),
            },
            Some(("plan", v)) => match parse_plan(v) {
                Some(p) => plan = Some(p),
                None => return fail(400, "Bad Request", USAGE),
            },
            _ => return fail(400, "Bad Request", USAGE),
        }
    }
    let Some(plan) = plan else {
        return fail(400, "Bad Request", USAGE);
    };
    let index = ProfileIndex::from_journal(&obs.journal);
    let run = run.unwrap_or((index.runs().len() as u64).saturating_sub(1));
    let explanation = index
        .run(run)
        .map_or(Explanation::Unknown, |r| r.explain(&plan));
    ok(JSON, explanation.to_json(run, &plan))
}

fn profile_response(query: &str, obs: &Obs) -> Response {
    const USAGE: &str =
        "usage: /profile[?run=N][&format=text] (runs count from 0; default: the latest)";
    let mut run: Option<u64> = None;
    let mut text = false;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(("run", v)) => match v.parse() {
                Ok(n) => run = Some(n),
                Err(_) => return fail(400, "Bad Request", USAGE),
            },
            Some(("format", "text")) => text = true,
            Some(("format", "json")) => text = false,
            _ => return fail(400, "Bad Request", USAGE),
        }
    }
    let index = ProfileIndex::from_journal(&obs.journal);
    if run.is_none() && !text {
        return ok(JSON, index.to_json());
    }
    let profile = match run {
        Some(n) => index.run(n),
        None => index.latest(),
    };
    match profile {
        None => fail(404, "Not Found", "no such run in the journal"),
        Some(profile) if text => ok(TEXT, profile.render_text()),
        Some(profile) => ok(JSON, profile.to_json()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn sample_obs() -> Obs {
        let obs = Obs::with_trace();
        obs.registry.counter("qpo_demo_total", &[]).add(3);
        obs.journal.record("run_started", vec![]);
        obs.journal.record(
            "plan_emitted",
            vec![
                ("plan_seq", Value::U64(0)),
                ("plan", Value::Str("0,1".into())),
                ("utility", Value::F64(0.5)),
            ],
        );
        obs.sessions.open("pi", 9);
        obs
    }

    #[test]
    fn routes_are_pure_views_of_the_bundle() {
        let obs = sample_obs();
        let (status, _, _, body) = respond("/healthz", &obs);
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (_, _, _, metrics) = respond("/metrics", &obs);
        assert_eq!(metrics, prometheus_text(&obs.registry));
        let (_, _, _, traces) = respond("/traces", &obs);
        assert_eq!(traces, obs.journal.to_jsonl());
        let (_, _, _, sessions) = respond("/sessions", &obs);
        assert_eq!(sessions, obs.sessions.to_json());
        obs.backends
            .publish("pi", "sim", std::sync::Arc::new(|| 7), None);
        let (_, _, ct, backends) = respond("/backends", &obs);
        assert_eq!(ct, "text/plain; charset=utf-8");
        assert_eq!(backends, backends_text(&obs.backends));
        assert_eq!(backends, "pi kind=sim epoch=7\n");
        let (status, _, _, body) = respond("/explain?plan=0,1", &obs);
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"emitted\""), "{body}");
        let (status, _, _, _) = respond("/explain?plan=", &obs);
        assert_eq!(status, 400);
        let (status, _, _, _) = respond("/nope", &obs);
        assert_eq!(status, 404);
    }

    #[test]
    fn a_slow_client_neither_stalls_others_nor_outlives_the_deadline() {
        let obs = sample_obs();
        let server = serve(&obs, 0).expect("bind ephemeral");
        let addr = server.addr();
        // A byte every 100 ms of a head that never ends; it says when the
        // server is reading its head. Returns how long the server took to
        // cut it off.
        let (reading, being_read) = std::sync::mpsc::channel();
        let slow = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(100)))
                .unwrap();
            let start = Instant::now();
            let head = b"GET /healthz HTTP/1.1\r\nX-Slow: ".iter();
            for (i, byte) in head.chain([b'a'; 64].iter()).enumerate() {
                if i == 2 {
                    let _ = reading.send(());
                }
                let cut = match stream
                    .write_all(&[*byte])
                    .and_then(|()| stream.read(&mut [0u8; 1]))
                {
                    Ok(0) => true,
                    Ok(_) => false,
                    Err(e) => !matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ),
                };
                if cut {
                    return Some(start.elapsed());
                }
            }
            None
        });
        being_read.recv().expect("the slow client started");
        let start = Instant::now();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.ends_with("\r\n\r\nok\n"), "{response}");
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "{:?}",
            start.elapsed()
        );
        let cut = slow.join().unwrap().expect("the slow client is cut off");
        assert!(cut >= HEAD_DEADLINE - Duration::from_millis(200), "{cut:?}");
        assert!(cut < HEAD_DEADLINE + Duration::from_secs(1), "{cut:?}");
    }

    #[test]
    fn stop_does_not_wait_out_a_silent_client() {
        let mut server = serve(&sample_obs(), 0).expect("bind ephemeral");
        let silent = TcpStream::connect(server.addr()).unwrap();
        // Let the server take the connection and block reading its head.
        std::thread::sleep(Duration::from_millis(100));
        let start = Instant::now();
        server.stop();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
        drop(silent);
    }

    #[test]
    fn connections_past_the_cap_are_dropped_unserved() {
        let server = serve(&sample_obs(), 0).expect("bind ephemeral");
        let addr = server.addr();
        // Silent clients hold their threads for `HEAD_DEADLINE` (2 s);
        // everything below runs well inside it.
        let mut silent: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        let mut extra = TcpStream::connect(addr).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let read = extra.read(&mut [0u8; 1]);
        assert_eq!(read.ok(), Some(0), "past the cap: EOF, not a head wait");
        // One silent client leaves; once its thread ends a new one is
        // served.
        drop(silent.pop());
        let served = (0..50).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            let Ok(mut stream) = TcpStream::connect(addr) else {
                return false;
            };
            let mut response = String::new();
            stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").is_ok()
                && stream.read_to_string(&mut response).is_ok()
                && response.ends_with("\r\n\r\nok\n")
        });
        assert!(served, "a freed slot serves a new client");
        drop(silent);
    }

    #[test]
    fn server_binds_stops_and_rebinds() {
        let obs = sample_obs();
        let mut server = serve(&obs, 0).expect("bind ephemeral");
        let addr = server.addr();
        assert_ne!(addr.port(), 0);
        server.stop();
        server.stop(); // idempotent
                       // The port is released: a second server can start.
        let _again = serve(&obs, 0).expect("rebind");
    }
}
