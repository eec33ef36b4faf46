//! Out-of-process sources over TCP: [`TcpBackend`] (the client the
//! executor dispatches through) and [`SourceServer`] (the loopback server
//! the `qpo-source-server` binary and the tests run).
//!
//! Both ends speak the length-prefixed wire protocol of [`crate::wire`].
//! The client measures real wall time per access and maps it onto the
//! virtual-time axis via `latency_unit`; connection failures, timeouts,
//! resets, and malformed responses surface as typed
//! [`BackendError`]s — transient, so the executor's retry/backoff
//! machinery handles a flapping server with the same discipline it
//! applies to simulated transient faults. Only an explicit
//! `UNKNOWN_SOURCE` response is permanent: the server is healthy and
//! simply does not host the relation.
//!
//! ## Connections
//!
//! Connections are persistent on both ends. [`TcpBackend`] keeps idle
//! sockets in a take-or-connect pool shared across its clones: an access
//! takes the most recently used idle socket (or dials), and hands it back
//! only after a well-formed `Rows`/`UnknownSource` response — the proof
//! that the stream is still frame-aligned and the server still willing.
//! The server closes a connection it has not heard from for
//! `SERVER_IO_TIMEOUT`, so a pooled socket going stale is normal
//! operation, not a failure: an I/O error on a *reused* socket is retried
//! once on a fresh one inside the same attempt (reads are idempotent);
//! only an error on a fresh socket is the transient [`BackendError`]. The
//! pool never holds more than one idle socket per access that was in
//! flight at once. Both ends set `TCP_NODELAY` and write each frame in
//! one piece ([`wire::write_frame`]).
//!
//! [`SourceServer`] runs on `qpo-obs`'s one accept loop
//! ([`ConnectionServer`]), at most `MAX_CONNECTIONS` connections at once.
//! Its own policy: a connection idle for `SERVER_IO_TIMEOUT` is closed,
//! and a frame must arrive whole within as long of its length prefix
//! ([`read_by`]), so a client that trickles a frame holds its thread only
//! that long.
//!
//! ## Pushdown
//!
//! A request's binding pattern ([`crate::pattern`]) names the constants
//! the plan's subgoal carries; [`respond`] filters the provider's shared
//! relation by it and encodes the matching rows in place. The contract
//! is superset-safe (every matching row, possibly more), so a source
//! that ignores the pattern stays correct.
//!
//! ## Distributed tracing
//!
//! Every request carries its trace context (run / plan / attempt) and
//! every reply the server's span, as fixed fields ([`crate::wire`]). The
//! server times each request's receive→parse, provider lookup, and
//! row-encode phases
//! (the receive clock starts when the frame's length prefix has arrived —
//! on a kept-alive connection the time before that is the client's idle
//! time, not the server's work, and counting it would inflate the span
//! past the latency the client measured), journals them as one
//! `server_span` event in a capped [`TraceJournal`] of
//! [`SERVER_JOURNAL_CAP`] events (dumped as JSONL over the wire by
//! [`wire::OP_TRACE`] or `qpo-source-server --metrics`, and read back by
//! [`qpo_obs::read_jsonl`] like every other trace), and stamps the span
//! into the reply. [`TcpBackend`] maps it onto the virtual-time axis as
//! the [`RemoteSpan`] of the [`AccessReply`], clamped so `phase sum ≤
//! total ≤ client latency` holds bit-exactly. There is one dialect: a
//! request the server cannot decode gets an `ERROR` reply and a dropped
//! connection, and a peer that rejects a request — whatever its reason —
//! is a transient [`BackendError`] under the executor's retry discipline,
//! like any other malformed peer.

use crate::backend::{AccessContext, AccessReply, BackendError, RemoteSpan, SourceBackend};
use crate::pattern::{BindingPattern, SCAN_PATTERN};
use crate::source::{Access, AccessOutcome, SourceService};
use crate::store::StoreBackend;
use crate::wire::{self, Reply, Request, Response};
use qpo_datalog::Tuple;
use qpo_obs::serve::{read_by, ConnectionServer};
use qpo_obs::{Counter, TraceJournal, Value};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Something that can answer "the current tuples of relation `name`" —
/// the server side's storage abstraction. [`StoreBackend`] implements it
/// (persistent server), as does [`MemProvider`] (fixture server).
pub trait RelationProvider: Send + Sync {
    /// The relation's tuples, or `None` if not hosted.
    fn relation(&self, name: &str) -> Option<Arc<Vec<Tuple>>>;

    /// Monotone data-version counter, stamped on every wire response so
    /// clients can invalidate memoized outcomes when the served data
    /// changes. Providers whose data never changes may keep the default.
    fn epoch(&self) -> u64 {
        0
    }
}

impl RelationProvider for StoreBackend {
    fn relation(&self, name: &str) -> Option<Arc<Vec<Tuple>>> {
        StoreBackend::relation(self, name)
    }

    fn epoch(&self) -> u64 {
        self.records()
    }
}

/// An in-memory relation provider for fixtures and tests.
#[derive(Debug, Default)]
pub struct MemProvider {
    relations: Mutex<BTreeMap<String, Arc<Vec<Tuple>>>>,
    version: AtomicU64,
}

impl MemProvider {
    /// An empty provider.
    pub fn new() -> Self {
        MemProvider::default()
    }

    /// Inserts (or replaces) a relation, bumping the data version.
    pub fn insert(&self, name: impl Into<String>, rows: Vec<Tuple>) {
        self.relations
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.into(), Arc::new(rows));
        self.version.fetch_add(1, Ordering::SeqCst);
    }
}

impl RelationProvider for MemProvider {
    fn relation(&self, name: &str) -> Option<Arc<Vec<Tuple>>> {
        self.relations
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    fn epoch(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }
}

/// Per-connection I/O bound on the server side: how long a kept-alive
/// connection may idle, and how long a frame may take after its prefix.
const SERVER_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Bound on the server's span journal: it keeps the newest this many
/// served scans.
pub const SERVER_JOURNAL_CAP: usize = 512;

/// Bound on the connections a [`SourceServer`] serves at once, one thread
/// each. A connection accepted beyond it is dropped unserved: its client
/// sees a reset, a transient error under the ordinary retries.
const MAX_CONNECTIONS: usize = 64;

/// A running loopback source server. Dropping it stops the accept loop
/// and every live connection.
pub struct SourceServer {
    server: ConnectionServer,
    serving: Arc<Serving>,
}

/// What every connection thread of one server shares.
struct Serving {
    provider: Arc<dyn RelationProvider>,
    requests: AtomicU64,
    journal: TraceJournal,
}

impl SourceServer {
    /// Binds `127.0.0.1:port` (`port` 0 picks a free one) and serves
    /// `provider` on background threads: one accepting, one per live
    /// connection.
    pub fn serve(provider: Arc<dyn RelationProvider>, port: u16) -> std::io::Result<SourceServer> {
        let serving = Arc::new(Serving {
            provider,
            requests: AtomicU64::new(0),
            journal: TraceJournal::enabled_with_capacity(SERVER_JOURNAL_CAP),
        });
        let shared = Arc::clone(&serving);
        let server = ConnectionServer::bind(port, MAX_CONNECTIONS, "qpo-source", move |stream| {
            let _ = handle_connection(stream, &shared);
        })?;
        Ok(SourceServer { server, serving })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Requests answered so far.
    pub fn requests_served(&self) -> u64 {
        self.serving.requests.load(Ordering::SeqCst)
    }

    /// The server's span journal: one `server_span` event per served
    /// scan, the newest [`SERVER_JOURNAL_CAP`] of them; `len() + dropped()`
    /// is the lifetime count.
    pub fn journal(&self) -> &TraceJournal {
        &self.serving.journal
    }

    /// Stops accepting, shuts down every live connection, and joins all
    /// server threads. Idempotent.
    pub fn stop(&mut self) {
        self.server.stop();
    }
}

/// A reader whose every read returns by its deadline ([`read_by`]).
struct ReadBy<'a>(&'a mut TcpStream, Instant);

impl std::io::Read for ReadBy<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        read_by(self.0, buf, self.1)
    }
}

/// Serves one connection: any number of request frames until the peer
/// closes, a frame is malformed, or a `SERVER_IO_TIMEOUT` deadline
/// passes (idle, or on a frame's payload). A malformed frame gets a
/// transient-error response (best effort) and the connection is dropped —
/// after garbage, frame alignment cannot be trusted.
///
/// Each access is phase-timed — receive→parse (from the arrival of the
/// frame's length prefix), provider lookup, row filter + encode —,
/// journalled with the request's trace context, and stamped into its
/// reply. A one-byte [`wire::OP_TRACE`] payload dumps the journal as a raw
/// JSONL frame.
fn handle_connection(stream: &mut TcpStream, serving: &Serving) -> std::io::Result<()> {
    let Serving {
        provider,
        requests,
        journal,
    } = serving;
    stream.set_write_timeout(Some(SERVER_IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let invalid = |e: wire::WireError| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    loop {
        // Waiting for the next frame's length prefix is the *client's*
        // idle time on a kept-alive connection; the receive phase starts
        // once it has arrived.
        let idle_until = Instant::now() + SERVER_IO_TIMEOUT;
        let Ok(len) = wire::read_frame_len(&mut ReadBy(stream, idle_until)) else {
            return Ok(()); // peer closed or idled out
        };
        let start = Instant::now();
        let whole_by = start + SERVER_IO_TIMEOUT;
        let Ok(payload) = wire::read_frame_payload(&mut ReadBy(stream, whole_by), len) else {
            return Ok(()); // hostile length, truncated frame, or deadline
        };
        if payload == [wire::OP_TRACE] {
            // Journal dump: one raw JSONL frame, not a Response. Not
            // counted as a served access and not journalled itself.
            wire::write_frame(stream, journal.to_jsonl().as_bytes())?;
            continue;
        }
        let req = match wire::decode_request(&payload) {
            Ok(req) => req,
            Err(e) => {
                let resp = Response::Error(format!("malformed request: {e}"));
                if let Ok(bytes) = wire::encode_response(&resp, provider.epoch()) {
                    let _ = wire::write_frame(stream, &bytes);
                }
                return Ok(());
            }
        };
        let recv_parse = start.elapsed().as_secs_f64();
        let relation = provider.relation(req.source);
        let lookup = start.elapsed().as_secs_f64() - recv_parse;
        let request_seq = requests.fetch_add(1, Ordering::SeqCst) + 1;
        let mut bytes = respond(
            &req,
            relation.as_deref().map(Vec::as_slice),
            provider.epoch(),
        )
        .map_err(invalid)?;
        let encode = start.elapsed().as_secs_f64() - recv_parse - lookup;
        // Clamp by construction: measured total can never undercut the
        // phase sum, so decoded spans always attribute soundly.
        let total = start
            .elapsed()
            .as_secs_f64()
            .max(recv_parse + lookup + encode);
        let span = RemoteSpan {
            recv_parse,
            lookup,
            encode,
            total,
            server_seq: request_seq,
        };
        wire::stamp_span(&mut bytes, &span).map_err(invalid)?;
        journal.record(
            "server_span",
            vec![
                ("request_seq", Value::U64(request_seq)),
                ("source", Value::Str(req.source.to_owned().into())),
                ("pattern", Value::Str(req.pattern.to_owned().into())),
                ("recv", Value::F64(recv_parse)),
                ("lookup", Value::F64(lookup)),
                ("encode", Value::F64(encode)),
                ("total", Value::F64(total)),
                ("run", Value::U64(req.run)),
                ("plan_seq", Value::U64(req.plan_seq)),
                ("attempt", Value::U64(req.attempt.into())),
            ],
        );
        wire::write_frame(stream, &bytes)?;
    }
}

/// Dials `addr` and requests the server's span journal with a one-byte
/// [`wire::OP_TRACE`] frame, returning the JSONL dump — the client side
/// of `qpo-source-server --metrics`.
pub fn fetch_server_trace(addr: &str, timeout: Duration) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    wire::write_frame(&mut stream, &[wire::OP_TRACE])?;
    let payload = wire::read_frame(&mut stream)?;
    String::from_utf8(payload).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "trace dump is not UTF-8")
    })
}

/// Pure (request, looked-up relation) → response-payload mapping, split
/// out so protocol tests can run without sockets (the `qpo-obs::serve`
/// pattern). A hosted relation is filtered by the request's binding
/// pattern and the matching rows are encoded straight from the
/// provider's shared slice — no row is cloned; `None` (not hosted) is the
/// permanent `UNKNOWN_SOURCE` response. The span is left for the caller
/// to stamp.
pub fn respond(
    req: &Request<'_>,
    relation: Option<&[Tuple]>,
    epoch: u64,
) -> Result<Vec<u8>, wire::WireError> {
    match relation {
        Some(rows) => {
            let pattern = BindingPattern::parse(req.pattern);
            wire::encode_rows(rows.iter().filter(|row| pattern.matches(row)), epoch)
        }
        None => {
            let msg = format!("source `{}` not hosted here", req.source);
            wire::encode_response(&Response::UnknownSource(msg), epoch)
        }
    }
}

/// Idle connections of one [`TcpBackend`] (and its clones), plus the
/// opened-vs-reused tally.
#[derive(Debug, Default)]
struct ConnectionPool {
    idle: Mutex<Vec<TcpStream>>,
    opened: Counter,
    reused: Counter,
}

impl ConnectionPool {
    fn idle(&self) -> std::sync::MutexGuard<'_, Vec<TcpStream>> {
        // Poison recovery: the critical sections are a push and a pop.
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A remote source reached over TCP; see the module docs.
///
/// Every server response carries the provider's data epoch in its
/// header; the backend tracks the highest epoch observed (shared across
/// clones) and reports it through [`SourceBackend::epoch`], so the
/// source memo invalidates automatically when the remote data changes.
#[derive(Debug, Clone)]
pub struct TcpBackend {
    addr: String,
    io_timeout: Duration,
    latency_unit: f64,
    seen_epoch: Arc<AtomicU64>,
    /// Kept-alive connections, shared across clones.
    pool: Arc<ConnectionPool>,
}

impl TcpBackend {
    /// A backend dialing `addr` (e.g. `"127.0.0.1:7171"`) with a 2 s I/O
    /// timeout and one virtual unit per millisecond.
    pub fn new(addr: impl Into<String>) -> Self {
        TcpBackend {
            addr: addr.into(),
            io_timeout: Duration::from_secs(2),
            latency_unit: 1000.0,
            seen_epoch: Arc::new(AtomicU64::new(0)),
            pool: Arc::new(ConnectionPool::default()),
        }
    }

    /// Sets the connect/read/write timeout.
    pub fn with_io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Sets the virtual-time units charged per wall second (default
    /// `1000.0`).
    pub fn with_latency_unit(mut self, units_per_second: f64) -> Self {
        self.latency_unit = units_per_second.max(0.0);
        self
    }

    /// The server address this backend dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Dials the server and configures the socket.
    fn connect(&self) -> Result<TcpStream, BackendError> {
        let addr = self
            .addr
            .to_socket_addrs()
            .map_err(|e| BackendError::from_io(&e, "resolve"))?
            .next()
            .ok_or_else(|| {
                BackendError::permanent(format!("`{}` resolves to nothing", self.addr))
            })?;
        let stream = TcpStream::connect_timeout(&addr, self.io_timeout)
            .map_err(|e| BackendError::from_io(&e, "connect"))?;
        stream
            .set_read_timeout(Some(self.io_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.io_timeout)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| BackendError::from_io(&e, "configure socket"))?;
        self.pool.opened.inc();
        Ok(stream)
    }

    /// Sends one request frame and reads one response frame, on a pooled
    /// connection when one is idle. The stream comes back with the
    /// payload; the caller pools it once the payload proves well-formed.
    fn round_trip(&self, request: &[u8]) -> Result<(Vec<u8>, TcpStream), BackendError> {
        fn send_recv(stream: &mut TcpStream, request: &[u8]) -> Result<Vec<u8>, BackendError> {
            wire::write_frame(stream, request)
                .map_err(|e| BackendError::from_io(&e, "send request"))?;
            wire::read_frame(stream).map_err(|e| BackendError::from_io(&e, "read response"))
        }
        let pooled = self.pool.idle().pop();
        if let Some(mut stream) = pooled {
            // A stale pooled socket (the server idled it out, or went
            // away) is not a failed attempt: fall through and redo the
            // exchange once on a fresh connection — reads are idempotent.
            if let Ok(payload) = send_recv(&mut stream, request) {
                self.pool.reused.inc();
                return Ok((payload, stream));
            }
        }
        let mut stream = self.connect()?;
        let payload = send_recv(&mut stream, request)?;
        Ok((payload, stream))
    }

    /// One full request/response exchange. Folds the response header's
    /// epoch into the high-water mark before returning, so even error
    /// responses advance the observed version. The connection returns to
    /// the pool only after a well-formed `Rows`/`UnknownSource` response;
    /// the server drops a connection it answered with `Error`.
    fn exchange(&self, req: &Request<'_>) -> Result<Reply, BackendError> {
        let request = wire::encode_request(req)
            .map_err(|e| BackendError::permanent(format!("encode request: {e}")))?;
        let (payload, stream) = self.round_trip(&request)?;
        let reply = wire::decode_response(&payload)
            .map_err(|e| BackendError::transient(format!("malformed response: {e}")))?;
        self.seen_epoch.fetch_max(reply.epoch, Ordering::SeqCst);
        if matches!(
            reply.response,
            Response::Rows(_) | Response::UnknownSource(_)
        ) {
            self.pool.idle().push(stream);
        }
        Ok(reply)
    }

    /// Maps a reply's span (wall seconds) onto the virtual-time axis,
    /// re-clamping after scaling so `phase sum ≤ total` survives f64
    /// rounding, and hostile values (negatives, NaN) degrade to zeros.
    fn remote_from_wire(&self, span: &RemoteSpan) -> RemoteSpan {
        let unit = self.latency_unit;
        let recv_parse = (span.recv_parse * unit).max(0.0);
        let lookup = (span.lookup * unit).max(0.0);
        let encode = (span.encode * unit).max(0.0);
        let total = (span.total * unit).max(recv_parse + lookup + encode);
        RemoteSpan {
            recv_parse,
            lookup,
            encode,
            total,
            server_seq: span.server_seq,
        }
    }
}

impl SourceBackend for TcpBackend {
    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn epoch(&self) -> u64 {
        self.seen_epoch.load(Ordering::SeqCst)
    }

    fn connection_counters(&self) -> Option<[Counter; 2]> {
        Some([self.pool.opened.clone(), self.pool.reused.clone()])
    }

    fn access(
        &self,
        svc: &SourceService,
        ctx: &AccessContext<'_>,
    ) -> Result<AccessReply, BackendError> {
        // A wire string holds at most `u16::MAX` bytes; a pattern past
        // that (one huge constant) goes out as a scan — superset-safe.
        let pattern = if ctx.pattern.len() > usize::from(u16::MAX) {
            SCAN_PATTERN
        } else {
            ctx.pattern
        };
        let request = Request {
            source: &svc.name,
            pattern,
            run: ctx.run,
            plan_seq: ctx.plan_seq,
            attempt: ctx.attempt,
        };
        let start = Instant::now();
        let result = self.exchange(&request);
        let latency = start.elapsed().as_secs_f64() * self.latency_unit;
        match result {
            Ok(Reply {
                response: Response::Rows(rows),
                span,
                ..
            }) => {
                let remote = self.remote_from_wire(&span);
                // Final clamp of the chain `phase sum ≤ server total ≤
                // client latency`: the attempt's network residual
                // (`latency − total`) is non-negative by construction.
                Ok(AccessReply {
                    access: Access {
                        outcome: AccessOutcome::Success,
                        latency: latency.max(remote.total),
                    },
                    tuples: Some(Arc::new(rows)),
                    remote: Some(remote),
                })
            }
            Ok(Reply {
                response: Response::UnknownSource(msg),
                ..
            }) => Err(BackendError::permanent(msg).with_latency(latency)),
            Ok(Reply {
                response: Response::Error(msg),
                ..
            }) => Err(BackendError::transient(msg).with_latency(latency)),
            Err(e) => {
                let latency = latency.max(e.latency);
                Err(e.with_latency(latency))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendErrorClass;
    use crate::memo::SCAN_PATTERN;
    use crate::policy::FaultConfig;
    use crate::source::SourceGrid;
    use qpo_catalog::{Extent, ProblemInstance, SourceStats};
    use qpo_core::Pi;
    use qpo_datalog::Constant;
    use qpo_obs::{read_jsonl, validate_records, Record};
    use qpo_utility::Coverage;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    fn rows(items: &[i64]) -> Vec<Tuple> {
        items.iter().map(|&i| vec![Constant::Int(i)]).collect()
    }

    fn provider() -> Arc<MemProvider> {
        let p = MemProvider::new();
        p.insert("v1", rows(&[1, 2, 3]));
        p.insert(
            "w1",
            vec![vec![Constant::Str("ford".into()), Constant::Int(7)]],
        );
        Arc::new(p)
    }

    fn inst() -> ProblemInstance {
        let src = |name: &str| {
            SourceStats::new()
                .with_name(name)
                .with_extent(Extent::new(0, 3))
        };
        ProblemInstance::new(
            0.0,
            vec![10],
            vec![vec![src("v1"), src("w1"), src("missing")]],
        )
        .unwrap()
    }

    fn grid() -> SourceGrid {
        SourceGrid::from_instance(&inst())
    }

    /// The server's span journal, decoded as any trace is.
    fn spans(server: &SourceServer) -> Vec<Record<'static>> {
        read_jsonl(&server.journal().to_jsonl()).expect("the journal reads back")
    }

    /// `(opened, reused)` of the backend's pool.
    fn connections(backend: &TcpBackend) -> (u64, u64) {
        let [opened, reused] = backend.connection_counters().expect("tcp has connections");
        (opened.get(), reused.get())
    }

    /// A request for `source` under `pattern`, as plan 2's attempt 5 of
    /// run 1.
    fn request<'a>(source: &'a str, pattern: &'a str) -> Request<'a> {
        Request {
            source,
            pattern,
            run: 1,
            plan_seq: 2,
            attempt: 5,
        }
    }

    fn ctx(faults: &FaultConfig) -> AccessContext<'_> {
        AccessContext {
            pattern: SCAN_PATTERN,
            run: 0,
            plan_seq: 0,
            attempt: 0,
            faults,
        }
    }

    #[test]
    fn respond_filters_by_pattern_and_maps_unknown_sources() {
        let hosted = rows(&[1, 2, 3]);
        let answer = |pattern: &str, relation: Option<&[Tuple]>| {
            let bytes = respond(&request("v1", pattern), relation, 7).unwrap();
            let reply = wire::decode_response(&bytes).unwrap();
            let unstamped = RemoteSpan::default();
            assert_eq!(reply.span, unstamped, "the connection loop stamps it");
            (reply.response, reply.epoch)
        };
        assert_eq!(
            answer("scan", Some(&hosted)),
            (Response::Rows(rows(&[1, 2, 3])), 7)
        );
        assert_eq!(
            answer("bind;0=i2", Some(&hosted)),
            (Response::Rows(rows(&[2])), 7)
        );
        assert_eq!(
            answer("bind;0=i9", Some(&hosted)),
            (Response::Rows(Vec::new()), 7)
        );
        // Unparseable text is a scan: a superset, never an error.
        assert_eq!(
            answer("bind;0=", Some(&hosted)),
            (Response::Rows(rows(&[1, 2, 3])), 7)
        );
        assert!(matches!(
            answer("scan", None),
            (Response::UnknownSource(msg), 7) if msg.contains("v1")
        ));
    }

    #[test]
    fn tcp_backend_round_trips_through_a_live_server() {
        let mut server = SourceServer::serve(provider(), 0).unwrap();
        let backend = TcpBackend::new(server.addr().to_string());
        let grid = grid();
        let faults = FaultConfig::disabled();
        let reply = backend.access(grid.service(0, 0), &ctx(&faults)).unwrap();
        assert_eq!(reply.access.outcome, AccessOutcome::Success);
        assert!(reply.access.latency >= 0.0);
        assert_eq!(reply.tuples.unwrap().as_ref(), &rows(&[1, 2, 3]));
        // Unknown source → permanent, with the server's message.
        let err = backend
            .access(grid.service(0, 2), &ctx(&faults))
            .unwrap_err();
        assert_eq!(err.class, BackendErrorClass::Permanent);
        assert!(err.message.contains("missing"));
        assert!(server.requests_served() >= 2);
        server.stop();
    }

    #[test]
    fn dead_server_is_a_transient_failure() {
        // Bind-then-drop guarantees a port nobody is listening on.
        let port = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap().port()
        };
        let backend = TcpBackend::new(format!("127.0.0.1:{port}"))
            .with_io_timeout(Duration::from_millis(200));
        let grid = grid();
        let faults = FaultConfig::disabled();
        let err = backend
            .access(grid.service(0, 0), &ctx(&faults))
            .unwrap_err();
        assert_eq!(err.class, BackendErrorClass::Transient, "{}", err.message);
        assert!(err.latency >= 0.0);
    }

    #[test]
    fn garbage_and_truncated_frames_do_not_kill_the_server() {
        let mut server = SourceServer::serve(provider(), 0).unwrap();
        let addr = server.addr();
        // Raw garbage: a framed payload that is not a valid request.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            wire::write_frame(&mut s, &[0xde, 0xad, 0xbe, 0xef]).unwrap();
            let reply = wire::read_frame(&mut s).unwrap();
            match wire::decode_response(&reply).unwrap().response {
                Response::Error(msg) => assert!(msg.contains("malformed")),
                other => panic!("expected transient error, got {other:?}"),
            }
        }
        // A truncated frame (length prefix, missing payload) then hangup.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&100u32.to_be_bytes()).unwrap();
            s.write_all(&[1, 2, 3]).unwrap();
        }
        // A hostile length prefix.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&u32::MAX.to_be_bytes()).unwrap();
        }
        // The server is still alive and serving correct requests.
        let backend = TcpBackend::new(addr.to_string());
        let grid = grid();
        let faults = FaultConfig::disabled();
        let reply = backend.access(grid.service(0, 1), &ctx(&faults)).unwrap();
        assert_eq!(reply.tuples.unwrap().len(), 1);
        server.stop();
    }

    #[test]
    fn multiple_requests_reuse_one_connection() {
        let mut server = SourceServer::serve(provider(), 0).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let scan = wire::encode_request(&request("v1", "scan")).unwrap();
        for seq in 1..=3 {
            wire::write_frame(&mut s, &scan).unwrap();
            let reply = wire::decode_response(&wire::read_frame(&mut s).unwrap()).unwrap();
            assert_eq!(reply.response, Response::Rows(rows(&[1, 2, 3])));
            assert_eq!(reply.epoch, 2, "two fixture inserts");
            assert_eq!(reply.span.server_seq, seq, "every reply is stamped");
        }
        drop(s);
        server.stop();
        assert_eq!(server.requests_served(), 3);
    }

    #[test]
    fn connections_past_the_cap_are_dropped_unserved() {
        let mut server = SourceServer::serve(provider(), 0).unwrap();
        let addr = server.addr();
        // Idle sockets hold their threads for `SERVER_IO_TIMEOUT` (2 s);
        // everything below runs well inside it.
        let mut idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        let mut extra = TcpStream::connect(addr).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let read = extra.read(&mut [0u8; 1]);
        assert_eq!(read.ok(), Some(0), "past the cap: EOF, not an idle wait");
        assert_eq!(server.requests_served(), 0);
        // One idle client leaves; once its thread ends a new one is served.
        drop(idle.pop());
        let scan = wire::encode_request(&request("v1", "scan")).unwrap();
        let served = (0..50).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            let Ok(mut s) = TcpStream::connect(addr) else {
                return false;
            };
            s.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
            wire::write_frame(&mut s, &scan).is_ok() && wire::read_frame(&mut s).is_ok()
        });
        assert!(served, "a freed slot serves a new client");
        assert_eq!(server.requests_served(), 1);
        drop(idle);
        server.stop();
    }

    #[test]
    fn a_trickled_frame_is_cut_off_at_the_deadline() {
        let mut server = SourceServer::serve(provider(), 0).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        // Half a second between bytes stays under the idle timeout, so
        // only a deadline on the whole frame cuts this client off.
        s.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let start = Instant::now();
        s.write_all(&64u32.to_be_bytes()).unwrap();
        let cut = (0..64).any(|_| {
            let sent = s.write_all(&[1]);
            sent.is_err()
                || match s.read(&mut [0u8; 1]) {
                    Ok(_) => true,
                    Err(e) => !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                }
                || start.elapsed() > SERVER_IO_TIMEOUT + Duration::from_secs(1)
        });
        assert!(cut, "the trickle ran its whole frame");
        assert!(
            start.elapsed() < SERVER_IO_TIMEOUT + Duration::from_secs(1),
            "cut off after {:?}",
            start.elapsed()
        );
        assert_eq!(server.requests_served(), 0);
        server.stop();
    }

    #[test]
    fn epoch_rides_the_wire_and_advances_the_backend() {
        let p = provider(); // two fixture inserts → server epoch 2
        let mut server = SourceServer::serve(p.clone(), 0).unwrap();
        let backend = TcpBackend::new(server.addr().to_string());
        let grid = grid();
        let faults = FaultConfig::disabled();
        assert_eq!(backend.epoch(), 0, "no response observed yet");
        backend.access(grid.service(0, 0), &ctx(&faults)).unwrap();
        assert_eq!(backend.epoch(), 2);
        // A remote data change is visible after the next exchange — even
        // through a clone (the high-water mark is shared) and even when
        // the exchange itself fails (UNKNOWN_SOURCE carries the epoch).
        p.insert("v1", rows(&[9]));
        let clone = backend.clone();
        let _ = clone.access(grid.service(0, 2), &ctx(&faults));
        assert_eq!(backend.epoch(), 3);
        server.stop();
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let mut server = SourceServer::serve(provider(), 0).unwrap();
        server.stop();
        server.stop();
        drop(server); // Drop after stop must not hang.
    }

    #[test]
    fn traced_access_carries_a_sound_remote_span() {
        let mut server = SourceServer::serve(provider(), 0).unwrap();
        let backend = TcpBackend::new(server.addr().to_string());
        let grid = grid();
        let faults = FaultConfig::disabled();
        let reply = backend.access(grid.service(0, 0), &ctx(&faults)).unwrap();
        let remote = reply.remote.expect("traced tcp access reports a span");
        let phases = remote.recv_parse + remote.lookup + remote.encode;
        assert!(phases <= remote.total, "{remote:?}");
        assert!(remote.total <= reply.access.latency, "{remote:?}");
        assert!(remote.server_seq >= 1);
        // The server journalled the span with its trace context.
        let spans = spans(&server);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].str("source"), Some("v1"));
        assert_eq!(spans[0].u64("attempt"), Some(0));
        // A second access rides the kept-alive connection after a pause.
        // The pause is the client's idle time: the server's receive clock
        // starts at the next frame's length prefix, so the span neither
        // contains it nor outgrows the latency the client charges.
        let pause = Duration::from_millis(50);
        std::thread::sleep(pause);
        let reply = backend.access(grid.service(0, 0), &ctx(&faults)).unwrap();
        assert_eq!(connections(&backend), (1, 1), "second access reused");
        let remote = reply.remote.expect("span on the reused connection");
        assert!(remote.total <= reply.access.latency, "{remote:?}");
        let pause_units = pause.as_secs_f64() * 1000.0;
        assert!(remote.recv_parse < pause_units / 2.0, "{remote:?}");
        server.stop();
    }

    #[test]
    fn sequential_accesses_share_one_connection_across_clones() {
        let mut server = SourceServer::serve(provider(), 0).unwrap();
        let backend = TcpBackend::new(server.addr().to_string());
        let grid = grid();
        let faults = FaultConfig::disabled();
        for i in 0..6 {
            let b = backend.clone();
            b.access(grid.service(0, i % 2), &ctx(&faults)).unwrap();
            // UNKNOWN_SOURCE is a well-formed answer: the socket is kept.
            b.access(grid.service(0, 2), &ctx(&faults)).unwrap_err();
        }
        assert_eq!(connections(&backend), (1, 11));
        server.stop();
    }

    #[test]
    fn the_real_server_idling_a_pooled_socket_out_costs_no_stall() {
        let mut server = SourceServer::serve(provider(), 0).unwrap();
        let backend = TcpBackend::new(server.addr().to_string());
        let grid = grid();
        let faults = FaultConfig::disabled();
        backend.access(grid.service(0, 0), &ctx(&faults)).unwrap();
        // The connection thread idles out and must send a FIN on its way:
        // the pooled socket then fails fast instead of swallowing the
        // request and blocking the read for the client's whole timeout.
        std::thread::sleep(SERVER_IO_TIMEOUT + Duration::from_millis(300));
        let start = Instant::now();
        let reply = backend
            .access(grid.service(0, 0), &ctx(&faults))
            .expect("an idled-out socket is not a failed attempt");
        assert!(
            start.elapsed() < backend.io_timeout / 4,
            "redialed at once, not after a read timeout: {:?}",
            start.elapsed()
        );
        assert_eq!(reply.tuples.unwrap().as_ref(), &rows(&[1, 2, 3]));
        assert_eq!(
            connections(&backend),
            (2, 0),
            "redialed once; the stale reuse served nothing"
        );
        server.stop();
    }

    #[test]
    fn a_silent_client_does_not_delay_another() {
        let mut server = SourceServer::serve(provider(), 0).unwrap();
        // Slow loris: connects, sends nothing, holds the connection.
        let silent = TcpStream::connect(server.addr()).unwrap();
        let backend = TcpBackend::new(server.addr().to_string());
        let grid = grid();
        let faults = FaultConfig::disabled();
        let start = Instant::now();
        backend.access(grid.service(0, 0), &ctx(&faults)).unwrap();
        assert!(
            start.elapsed() < SERVER_IO_TIMEOUT / 2,
            "served while the silent client still holds its connection"
        );
        drop(silent);
        server.stop();
    }

    #[test]
    fn stop_kills_kept_alive_connections_promptly() {
        let mut server = SourceServer::serve(provider(), 0).unwrap();
        let backend =
            TcpBackend::new(server.addr().to_string()).with_io_timeout(Duration::from_millis(500));
        let grid = grid();
        let faults = FaultConfig::disabled();
        backend.access(grid.service(0, 0), &ctx(&faults)).unwrap();
        // One idle connection is pooled client-side and open server-side;
        // stop() must not wait out its idle timeout.
        let start = Instant::now();
        server.stop();
        assert!(start.elapsed() < SERVER_IO_TIMEOUT / 2, "stop() is prompt");
        let err = backend
            .access(grid.service(0, 0), &ctx(&faults))
            .unwrap_err();
        assert_eq!(err.class, BackendErrorClass::Transient, "{}", err.message);
    }

    /// What the one decoder does with each malformed request, seen from
    /// outside a live server — which keeps serving the next connection
    /// whatever the last one sent.
    #[test]
    fn hostile_requests_get_their_documented_outcome_and_the_server_keeps_serving() {
        let mut server = SourceServer::serve(provider(), 0).unwrap();
        let traced = wire::encode_request(&request("v1", "scan")).unwrap();
        // The same access without a trace context: `[op][source][pattern]`.
        let untraced = [&[wire::OP_SCAN, 0, 2][..], b"v1", &[0, 4], b"scan"].concat();
        let cases = [
            ("well-formed: rows and a stamped span", traced.clone(), true),
            ("no trace context: rejected", untraced, false),
            (
                "cut inside the context: rejected",
                traced[..12].to_vec(),
                false,
            ),
            (
                "a trailing tagged block: rejected",
                [&traced[..], &[0x10, 0, 2, 9, 9]].concat(),
                false,
            ),
        ];
        for (label, payload, served) in cases {
            let journalled = server.journal().len();
            let mut s = TcpStream::connect(server.addr()).unwrap();
            wire::write_frame(&mut s, &payload).unwrap();
            let reply = wire::decode_response(&wire::read_frame(&mut s).unwrap()).unwrap();
            if served {
                assert_eq!(reply.response, Response::Rows(rows(&[1, 2, 3])), "{label}");
                let span = spans(&server).pop().expect("journalled");
                assert_eq!(span.u64("attempt"), Some(5), "{label}");
                assert_eq!(span.u64("request_seq"), Some(reply.span.server_seq));
            } else {
                assert!(
                    matches!(&reply.response, Response::Error(msg) if msg.contains("malformed")),
                    "{label}: {reply:?}"
                );
                assert_eq!(reply.span, RemoteSpan::default(), "{label}: nothing timed");
                assert!(wire::read_frame(&mut s).is_err(), "{label}: still open");
                assert_eq!(server.journal().len(), journalled, "{label}");
            }
        }
        server.stop();
    }

    /// A peer that refuses every request — here in the words a decoder
    /// of another layout would use — is a malformed peer like any other:
    /// each attempt is one frame and one transient failure, and the plan
    /// fails typed once the retries are spent.
    #[test]
    fn a_peer_that_rejects_every_request_costs_max_attempts_and_a_typed_failure() {
        use crate::executor::{Executor, FailureReason, PlanEvaluator, PlanStatus, RunBudget};
        use crate::policy::{RetryPolicy, RuntimePolicy};

        struct NoRows;
        impl PlanEvaluator for NoRows {
            type Ticket = ();
            fn is_sound(&self, _: &[usize], _: &mut ()) -> bool {
                true
            }
            fn evaluate(
                &self,
                _: &[usize],
                _: &[Option<Arc<Vec<Tuple>>>],
                _: &mut (),
            ) -> Option<qpo_datalog::PrefixRows> {
                Some(Default::default())
            }
        }

        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        // Answers each connection's first frame and hangs up; a connection
        // that sends no frame ends the thread. Returns the frames it saw.
        let rejecting = std::thread::spawn(move || {
            let text = "malformed request: 23 trailing bytes after message";
            let rejection = wire::encode_response(&Response::Error(text.into()), 0).unwrap();
            let mut frames = 0u32;
            for conn in listener.incoming() {
                let mut stream = conn.unwrap();
                if wire::read_frame(&mut stream).is_err() {
                    break;
                }
                frames += 1;
                wire::write_frame(&mut stream, &rejection).unwrap();
            }
            frames
        });
        let inst = inst();
        let grid = SourceGrid::from_instance(&inst);
        let retry = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::standard()
        };
        let run = Executor::new(&grid, &NoRows, RuntimePolicy::serial().with_retry(retry))
            .with_backend(Arc::new(TcpBackend::new(addr.to_string())))
            .run(&mut Pi::new(&inst, &Coverage), RunBudget::plans(1));
        assert_eq!((run.stats.attempts, run.stats.transient_failures), (3, 3));
        assert!(matches!(
            run.reports[0].status,
            PlanStatus::Failed(FailureReason::RetriesExhausted { .. })
        ));
        drop(TcpStream::connect(addr).unwrap());
        assert_eq!(
            rejecting.join().unwrap(),
            3,
            "one frame per attempt: no resend"
        );
    }

    #[test]
    fn op_trace_dumps_the_server_journal_as_a_valid_trace() {
        let mut server = SourceServer::serve(provider(), 0).unwrap();
        let backend = TcpBackend::new(server.addr().to_string());
        let grid = grid();
        let faults = FaultConfig::disabled();
        // Two accesses through the backend around one request sent by
        // hand.
        backend.access(grid.service(0, 0), &ctx(&faults)).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let bound = request("w1", "bind;0=s4:ford");
        wire::write_frame(&mut s, &wire::encode_request(&bound).unwrap()).unwrap();
        wire::read_frame(&mut s).unwrap();
        backend.access(grid.service(0, 1), &ctx(&faults)).unwrap();
        wire::write_frame(&mut s, &[wire::OP_TRACE]).unwrap();
        let dump = String::from_utf8(wire::read_frame(&mut s).unwrap()).expect("UTF-8");
        assert_eq!(dump, server.journal().to_jsonl());
        let records = read_jsonl(&dump).expect("the dump is JSONL");
        let report = validate_records(&records).expect("the dump is a valid trace");
        assert_eq!((report.events, report.count("server_span")), (3, 3));
        let seqs: Vec<_> = records.iter().map(|r| r.u64("request_seq")).collect();
        assert_eq!(seqs, [Some(1), Some(2), Some(3)]);
        // Each request's trace context is journalled as it was sent.
        let context = |r: &Record| ["run", "plan_seq", "attempt"].map(|f| r.u64(f));
        let contexts: Vec<_> = records.iter().map(context).collect();
        assert_eq!(
            contexts,
            [[Some(0); 3], [Some(1), Some(2), Some(5)], [Some(0); 3]]
        );
        assert_eq!(records[1].str("pattern"), Some("bind;0=s4:ford"));
        // The dump is not a scan: the served counter is untouched, and it
        // is the journal's lifetime count.
        let journal = server.journal();
        assert_eq!(server.requests_served(), 3);
        assert_eq!(journal.len() as u64 + journal.dropped(), 3);
        server.stop();
    }
}
