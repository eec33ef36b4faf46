//! End-to-end contract of the introspection server: every endpoint is a
//! *pure view* of the mediator's observability bundle, served over real
//! TCP with nothing but the standard library on either side.
//!
//! `/metrics` and `/traces` must be byte-identical to the offline
//! exporters (`prometheus_text`, `TraceJournal::to_jsonl`) — the server
//! adds transport, never interpretation.

use qpo_catalog::domains::{
    camera_domain, camera_query, movie_domain, movie_query, CAMERA_UNIVERSE, MOVIE_UNIVERSE,
};
use qpo_exec::{Mediator, QuerySession, Strategy};
use qpo_obs::{parse_json, prometheus_text, Json, Obs};
use qpo_utility::Coverage;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Issues one `GET` over a plain std `TcpStream` and returns
/// `(status_line, body)`. No HTTP client crate — the server must be
/// usable from `curl`-equivalent raw sockets.
fn http_get(addr: &std::net::SocketAddr, target: &str) -> (String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("server is listening");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("server closes after responding");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body separator");
    let head = String::from_utf8(raw[..split].to_vec()).unwrap();
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, raw[split + 4..].to_vec())
}

/// The keys of one `/sessions` entry, in the order the board renders
/// them (DESIGN.md § "Ordering quality, provenance, and the live server").
const SESSION_KEYS: [&str; 14] = [
    "id",
    "strategy",
    "plan_space",
    "plans_emitted",
    "answers",
    "spent",
    "time_to_first_plan_ms",
    "tuples_emitted",
    "plans_before_first_tuple",
    "memo_hits",
    "subplans_reused",
    "critical_path",
    "bounding_plan",
    "closed",
];

/// Parses a `/sessions` body and asserts every entry carries exactly
/// [`SESSION_KEYS`].
fn assert_session_keys(body: &str) {
    let doc = parse_json(body).expect("/sessions is JSON");
    let Some(Json::Array(entries)) = doc.get("sessions") else {
        panic!("no sessions array in {body}");
    };
    assert!(!entries.is_empty());
    for entry in entries {
        let Json::Object(pairs) = entry else {
            panic!("entry is not an object: {entry:?}");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, SESSION_KEYS);
    }
}

/// A traced mediator that has actually served a session, so every
/// endpoint has real content behind it.
fn served_mediator() -> (Obs, Mediator) {
    let obs = Obs::with_trace();
    let mediator = Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"]).with_obs(&obs);
    let prepared = mediator.prepare(&movie_query()).unwrap();
    let mut session = QuerySession::new(&mediator, &prepared, &Coverage, Strategy::IDrips).unwrap();
    while session.next_report().is_some() {}
    drop(session);
    (obs, mediator)
}

#[test]
fn endpoints_are_byte_identical_to_the_offline_exporters() {
    let (obs, mediator) = served_mediator();
    let server = mediator
        .spawn_introspection(0)
        .expect("bind on a free port");
    let addr = server.addr();

    let (status, body) = http_get(&addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, b"ok\n");

    let (status, body) = http_get(&addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    let offline = prometheus_text(&obs.registry);
    assert_eq!(
        body,
        offline.as_bytes(),
        "/metrics drifted from the exporter"
    );
    let text = String::from_utf8(body).unwrap();
    for family in [
        "qpo_sessions_total",
        "qpo_kernel_rounds_total",
        "qpo_reformulation_cache_misses_total",
    ] {
        assert!(text.contains(family), "missing family {family}");
    }

    let (status, body) = http_get(&addr, "/traces");
    assert!(status.contains("200"), "{status}");
    assert_eq!(
        body,
        obs.journal.to_jsonl().as_bytes(),
        "/traces drifted from the journal"
    );

    let (status, body) = http_get(&addr, "/sessions");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, obs.sessions.to_json().as_bytes());
    let sessions = String::from_utf8(body).unwrap();
    assert!(sessions.contains("\"strategy\":\"idrips\""));
    assert!(sessions.contains("\"closed\":true"));
    assert_session_keys(&sessions);

    let (status, _) = http_get(&addr, "/no-such-endpoint");
    assert!(status.contains("404"), "{status}");
}

#[test]
fn sessions_endpoint_carries_the_tuple_stream_telemetry() {
    // A session served through the any-k tuple stream: /sessions must
    // expose the tuple counters, byte-identical to the
    // offline board exporter.
    let obs = Obs::with_trace();
    let mediator = Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"]).with_obs(&obs);
    let prepared = mediator.prepare(&movie_query()).unwrap();
    let mut session = QuerySession::new(&mediator, &prepared, &Coverage, Strategy::IDrips)
        .unwrap()
        .with_tuple_scorer(qpo_exec::CatalogScorer::new(MOVIE_UNIVERSE).with_jitter(0.25));
    let delivered = session.stream_tuples().count();
    assert!(delivered > 0);
    drop(session);

    let server = mediator.spawn_introspection(0).unwrap();
    let addr = server.addr();
    let (status, body) = http_get(&addr, "/sessions");
    assert!(status.contains("200"), "{status}");
    assert_eq!(
        body,
        obs.sessions.to_json().as_bytes(),
        "/sessions drifted from the board exporter"
    );
    let sessions = String::from_utf8(body).unwrap();
    assert!(sessions.contains(&format!("\"tuples_emitted\":{delivered}")));
    assert_session_keys(&sessions);

    // The served trace carries the tuple lifecycle and still validates.
    let (status, body) = http_get(&addr, "/traces");
    assert!(status.contains("200"), "{status}");
    let jsonl = String::from_utf8(body).unwrap();
    assert_eq!(jsonl, obs.journal.to_jsonl());
    let report = qpo_obs::validate_trace(&jsonl).expect("served tuple trace validates");
    assert_eq!(report.counts["tuple_emitted"] as usize, delivered);
    assert!(report.counts["stream_attached"] > 0);
}

#[test]
fn sessions_endpoint_carries_the_memo_telemetry() {
    // Two sessions over one shared ExecutionMemo: the first populates the
    // subplan memo, the second seeds every sound plan from it. /sessions
    // must surface the per-session reuse counters.
    let obs = Obs::with_trace();
    let mediator = Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"]).with_obs(&obs);
    let prepared = mediator.prepare(&movie_query()).unwrap();
    let memo = qpo_exec::ExecutionMemo::new();
    let mut first = QuerySession::new(&mediator, &prepared, &Coverage, Strategy::IDrips)
        .unwrap()
        .with_memo(&memo);
    while first.next_report().is_some() {}
    let warmed_hits = first.memo_hits();
    drop(first);
    let mut second = QuerySession::new(&mediator, &prepared, &Coverage, Strategy::IDrips)
        .unwrap()
        .with_memo(&memo);
    while second.next_report().is_some() {}
    let (hits, reused) = (second.memo_hits(), second.subplans_reused());
    assert!(
        hits > warmed_hits,
        "the warm session reuses what the first stored ({hits} vs {warmed_hits})"
    );
    assert!(reused > 0, "sound plans seed from memoized prefixes");
    drop(second);

    let server = mediator.spawn_introspection(0).unwrap();
    let (status, body) = http_get(&server.addr(), "/sessions");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, obs.sessions.to_json().as_bytes());
    let sessions = String::from_utf8(body).unwrap();
    assert!(
        sessions.contains(&format!("\"memo_hits\":{hits}")),
        "memo_hits missing: {sessions}"
    );
    assert!(
        sessions.contains(&format!("\"subplans_reused\":{reused}")),
        "subplans_reused missing: {sessions}"
    );

    // The memoized session trace journals subplan reuse and validates.
    let report = qpo_obs::validate_trace(&obs.journal.to_jsonl()).expect("memoized trace");
    assert!(report.count("subplan_reused") > 0);
}

#[test]
fn explain_answers_for_emitted_and_unknown_plans() {
    let (obs, mediator) = served_mediator();
    // The first emitted plan, straight from the journal.
    let jsonl = obs.journal.to_jsonl();
    let emitted_line = jsonl
        .lines()
        .find(|l| l.contains("\"kind\":\"plan_emitted\""))
        .expect("the session journalled emissions");
    let plan = emitted_line
        .split("\"plan\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("plan_emitted carries the encoded plan");

    let server = mediator.spawn_introspection(0).unwrap();
    let addr = server.addr();

    let (status, body) = http_get(&addr, &format!("/explain?plan={plan}"));
    assert!(status.contains("200"), "{status}");
    let body = String::from_utf8(body).unwrap();
    assert!(body.contains("\"status\":\"emitted\""), "{body}");
    assert!(body.contains(&format!("\"plan\":\"{plan}\"")), "{body}");

    // A syntactically valid plan outside the journal's emissions.
    let (status, body) = http_get(&addr, "/explain?plan=7,7,7");
    assert!(status.contains("200"), "{status}");
    assert!(String::from_utf8(body).unwrap().contains("\"status\":"));

    // Malformed plan → 400, not a panic.
    let (status, _) = http_get(&addr, "/explain?plan=not-a-plan");
    assert!(status.contains("400"), "{status}");
    let (status, _) = http_get(&addr, "/explain");
    assert!(status.contains("400"), "{status}");
}

#[test]
fn explain_bodies_are_pinned() {
    // Two traced Coverage + iDrips sessions of the camera query on one
    // journal, pulling six plans and then four. The kernel journals
    // eliminations in both runs; plan 15,7 goes out sixth in run 0 and is
    // pruned in run 1, the default run.
    let obs = Obs::with_trace();
    let mediator = Mediator::new(camera_domain(), CAMERA_UNIVERSE, &["canon"]).with_obs(&obs);
    let prepared = mediator.prepare(&camera_query()).unwrap();
    for pulls in [6, 4] {
        let mut session =
            QuerySession::new(&mediator, &prepared, &Coverage, Strategy::IDrips).unwrap();
        for _ in 0..pulls {
            session
                .next_report()
                .expect("the camera space has 128 plans");
        }
    }
    let server = mediator.spawn_introspection(0).unwrap();
    let pinned = [
        (
            "plan=2,4",
            r#"{"run":1,"plan":"2,4","status":"emitted","rank":2,"utility":0.0804,"clock":0}"#,
        ),
        (
            "plan=15,7",
            concat!(
                r#"{"run":1,"plan":"15,7","status":"eliminated","matches":4,"certificate":"#,
                r#"{"victim_id":47,"champion_id":70,"victim":"14,15|6,7","champion":"6,7|5","#,
                r#""victim_interval":[0.01475,0.04295],"#,
                r#""champion_interval":[0.0488,0.06635],"epoch":3}}"#,
            ),
        ),
        (
            "plan=99,99",
            r#"{"run":1,"plan":"99,99","status":"unknown"}"#,
        ),
        (
            "run=0&plan=15,7",
            r#"{"run":0,"plan":"15,7","status":"emitted","rank":5,"utility":0.04055,"clock":0}"#,
        ),
        (
            "run=2&plan=2,4",
            r#"{"run":2,"plan":"2,4","status":"unknown"}"#,
        ),
    ];
    for (query, expected) in pinned {
        let (status, body) = http_get(&server.addr(), &format!("/explain?{query}"));
        assert!(status.contains("200"), "{query}: {status}");
        assert_eq!(String::from_utf8(body).unwrap(), expected, "{query}");
    }
}

#[test]
fn profile_endpoint_is_byte_identical_to_the_offline_renderers() {
    let (obs, mediator) = served_mediator();
    let index = qpo_obs::ProfileIndex::from_journal(&obs.journal);
    let profile = index.latest().expect("the session traced a run");
    profile.check().expect("well-formed span tree");

    let server = mediator.spawn_introspection(0).unwrap();
    let addr = server.addr();

    // The run index, one run, and the text rendering all serve exactly
    // the offline bytes.
    let (status, body) = http_get(&addr, "/profile");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, index.to_json().as_bytes(), "/profile index drifted");

    let (status, body) = http_get(&addr, &format!("/profile?run={}", profile.run));
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, profile.to_json().as_bytes());

    let (status, body) = http_get(&addr, "/profile?format=text");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, profile.render_text().as_bytes());
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("critical-path"), "{text}");
    assert!(text.contains("bounded by"), "{text}");

    // Unknown runs are 404, malformed queries 400 — never a fallthrough.
    let (status, _) = http_get(&addr, "/profile?run=999");
    assert!(status.contains("404"), "{status}");
    for bad in ["/profile?run=x", "/profile?nope=1", "/profile?format=xml"] {
        let (status, _) = http_get(&addr, bad);
        assert!(status.contains("400"), "{bad}: {status}");
    }
}

#[test]
fn backends_endpoint_is_byte_identical_to_the_offline_renderer() {
    let (obs, mediator) = served_mediator();
    let server = mediator.spawn_introspection(0).unwrap();
    let (status, body) = http_get(&server.addr(), "/backends");
    assert!(status.contains("200"), "{status}");
    // The endpoint serves exactly the offline renderer's bytes over the
    // live board the mediator published into.
    assert_eq!(
        body,
        qpo_obs::backends_text(&obs.backends).as_bytes(),
        "/backends drifted from the renderer"
    );
    let text = String::from_utf8(body).unwrap();
    // The default mediator wires every catalog source to the simulator;
    // each published row carries label, kind, and a live epoch sample.
    assert!(!text.is_empty(), "mediator publishes its registry");
    for line in text.lines() {
        assert!(line.contains(" kind="), "{line}");
        assert!(line.contains(" epoch="), "{line}");
    }
    assert!(text.contains("kind=sim"), "{text}");
}

#[test]
fn divergence_endpoint_matches_the_offline_recomputation() {
    let (obs, mediator) = served_mediator();
    let index = qpo_obs::ProfileIndex::from_journal(&obs.journal);
    let offline = qpo_obs::DivergenceMonitor::from_profile(&index);
    let file = qpo_obs::ProfileIndex::from_jsonl(&obs.journal.to_jsonl()).unwrap();
    let from_file = qpo_obs::DivergenceMonitor::from_profile(&file);
    let server = mediator.spawn_introspection(0).unwrap();
    let (status, body) = http_get(&server.addr(), "/divergence");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, offline.to_json().as_bytes());
    assert_eq!(body, from_file.to_json().as_bytes());
    assert_eq!(body, mediator.divergence().to_json().as_bytes());
}

#[test]
fn garbage_requests_get_clean_errors_not_hangs() {
    let (_obs, mediator) = served_mediator();
    let server = mediator.spawn_introspection(0).unwrap();
    let addr = server.addr();

    // Raw garbage with a terminated head: 405 (not GET).
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"\x00\xffnot http at all\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 405"), "{response}");

    // A GET with a non-path target: 400.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET garbage HTTP/1.1\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    // An unterminated head larger than the read bound: 400, and the
    // connection still gets a response rather than hanging.
    let mut stream = TcpStream::connect(addr).unwrap();
    let huge = vec![b'A'; 20 * 1024];
    stream.write_all(b"GET /healthz").unwrap();
    stream.write_all(&huge).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("request head too large"), "{response}");

    // The server survives all of the above and keeps serving.
    let (status, _) = http_get(&addr, "/healthz");
    assert!(status.contains("200"), "{status}");
}

#[test]
fn server_stops_cleanly_and_frees_the_port() {
    let (_obs, mediator) = served_mediator();
    let mut server = mediator.spawn_introspection(0).unwrap();
    let addr = server.addr();
    let (status, _) = http_get(&addr, "/healthz");
    assert!(status.contains("200"));
    server.stop();
    assert!(
        TcpStream::connect(addr).is_err(),
        "stopped server must not accept connections"
    );
    // The port is reusable immediately.
    let port = addr.port();
    let again = mediator
        .spawn_introspection(port)
        .expect("rebind same port");
    let (status, _) = http_get(&again.addr(), "/healthz");
    assert!(status.contains("200"));
}
