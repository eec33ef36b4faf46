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
//! - `/explain?run=N&plan=i,j,k` — the dominance-provenance query of
//!   [`crate::explain`] (`run` defaults to the journal's latest run);
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
//! The server runs one accept-loop thread and handles connections
//! serially — introspection traffic is a human with a browser or a
//! scraper on a schedule, not the query path — and every response is a
//! pure function of the observed state at request time.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::backends::backends_text;
use crate::divergence::DivergenceMonitor;
use crate::explain::{parse_plan, ExplainIndex};
use crate::export::prometheus_text;
use crate::profile::ProfileIndex;
use crate::Obs;

/// Upper bound on the request head; anything larger is rejected with a
/// 400 before routing.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A running introspection server. Dropping (or calling
/// [`IntrospectionServer::stop`]) shuts the accept loop down.
#[derive(Debug)]
pub struct IntrospectionServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl IntrospectionServer {
    /// The bound address (the OS-assigned port when started on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept call with one throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for IntrospectionServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts the introspection server on `127.0.0.1:port` (0 asks the OS
/// for an ephemeral port) serving the given observability bundle.
pub fn serve(obs: &Obs, port: u16) -> io::Result<IntrospectionServer> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let obs = obs.clone();
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::Builder::new()
        .name("qpo-introspection".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    handle_connection(stream, &obs);
                }
            }
        })?;
    Ok(IntrospectionServer {
        addr,
        shutdown,
        handle: Some(handle),
    })
}

fn handle_connection(mut stream: TcpStream, obs: &Obs) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the end of the request head, bounded: introspection
    // requests carry no body, and a head that exceeds the cap without
    // terminating is rejected rather than routed.
    let mut terminated = false;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    terminated = true;
                    break;
                }
                if buf.len() > MAX_HEAD_BYTES {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let too_large = !terminated && buf.len() > MAX_HEAD_BYTES;
    let (status, reason, content_type, body) = if too_large {
        (
            400,
            "Bad Request",
            "text/plain; charset=utf-8",
            "request head too large\n".to_string(),
        )
    } else if method != "GET" {
        (
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else if !target.starts_with('/') {
        (
            400,
            "Bad Request",
            "text/plain; charset=utf-8",
            "malformed request target\n".to_string(),
        )
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
        // by the read timeout and a byte cap) so closing the socket with
        // unread data doesn't reset the connection and discard the 400
        // we just wrote.
        let mut sink = [0u8; 1024];
        let mut drained = 0usize;
        while let Ok(n) = stream.read(&mut sink) {
            if n == 0 {
                break;
            }
            drained += n;
            if drained > 64 * MAX_HEAD_BYTES {
                break;
            }
        }
    }
}

/// Routes one request target to `(status, reason, content-type, body)`.
/// Split out (and crate-public) so tests can exercise routing without a
/// socket.
pub(crate) fn respond(target: &str, obs: &Obs) -> (u16, &'static str, &'static str, String) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/healthz" => (200, "OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        "/metrics" => (
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus_text(&obs.registry),
        ),
        "/traces" => (
            200,
            "OK",
            "application/jsonl; charset=utf-8",
            obs.journal.to_jsonl(),
        ),
        "/sessions" => (
            200,
            "OK",
            "application/json; charset=utf-8",
            obs.sessions.to_json(),
        ),
        "/explain" => explain_response(query, obs),
        "/profile" => profile_response(query, obs),
        "/backends" => (
            200,
            "OK",
            "text/plain; charset=utf-8",
            backends_text(&obs.backends),
        ),
        "/divergence" => (
            200,
            "OK",
            "application/json; charset=utf-8",
            DivergenceMonitor::from_events(&obs.journal.events()).to_json(),
        ),
        _ => (
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            "unknown path; try /healthz /metrics /traces /sessions /explain /profile /divergence /backends\n"
                .to_string(),
        ),
    }
}

fn bad_request(usage: &str) -> (u16, &'static str, &'static str, String) {
    (
        400,
        "Bad Request",
        "text/plain; charset=utf-8",
        format!("{usage}\n"),
    )
}

fn explain_response(query: &str, obs: &Obs) -> (u16, &'static str, &'static str, String) {
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
                Err(_) => return bad_request(USAGE),
            },
            Some(("plan", v)) => match parse_plan(v) {
                Some(p) => plan = Some(p),
                None => return bad_request(USAGE),
            },
            _ => return bad_request(USAGE),
        }
    }
    let Some(plan) = plan else {
        return bad_request(USAGE);
    };
    let index = ExplainIndex::from_journal(&obs.journal);
    let run = run.unwrap_or_else(|| index.runs().saturating_sub(1));
    let body = index.explain(run, &plan).to_json(run, &plan);
    (200, "OK", "application/json; charset=utf-8", body)
}

fn profile_response(query: &str, obs: &Obs) -> (u16, &'static str, &'static str, String) {
    const USAGE: &str =
        "usage: /profile[?run=N][&format=text] (runs count from 0; default: the latest)";
    let mut run: Option<u64> = None;
    let mut text = false;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(("run", v)) => match v.parse() {
                Ok(n) => run = Some(n),
                Err(_) => return bad_request(USAGE),
            },
            Some(("format", "text")) => text = true,
            Some(("format", "json")) => text = false,
            _ => return bad_request(USAGE),
        }
    }
    let index = ProfileIndex::from_journal(&obs.journal);
    if run.is_none() && !text {
        return (
            200,
            "OK",
            "application/json; charset=utf-8",
            index.to_json(),
        );
    }
    let profile = match run {
        Some(n) => index.run(n),
        None => index.latest(),
    };
    let Some(profile) = profile else {
        return (
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            "no such run in the journal\n".to_string(),
        );
    };
    if text {
        (
            200,
            "OK",
            "text/plain; charset=utf-8",
            profile.render_text(),
        )
    } else {
        (
            200,
            "OK",
            "application/json; charset=utf-8",
            profile.to_json(),
        )
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
