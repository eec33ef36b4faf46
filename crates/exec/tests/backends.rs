//! Cross-backend equivalence and robustness: the same query, executed
//! through the simulator, an in-process persistent store, and a loopback
//! TCP source server, must return bit-identical answer sets — and a
//! server dying mid-serving must degrade the run gracefully through the
//! existing retry/backoff/divergence stack, never abort it.
//!
//! The TCP tests honor `QPO_SOURCE_SERVER_ADDR` (set by `scripts/ci.sh`,
//! pointing at an out-of-process `qpo-source-server`); without it they
//! fall back to an in-process [`SourceServer`] seeded from the same
//! extensions.

use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_POOL, MOVIE_UNIVERSE};
use qpo_catalog::{Catalog, Extent, MediatedSchema, SchemaRelation, SourceStats};
use qpo_datalog::{parse_query, SourceDescription};
use qpo_exec::{
    snapshot_relations, BackendRegistry, ExecutionMemo, Mediator, QuerySession, RunOptions,
    StopCondition, Strategy,
};
use qpo_obs::{read_jsonl, validate_records, validate_trace, DivergenceMonitor, Obs, ProfileIndex};
use qpo_runtime::{
    AccessContext, AccessReply, BackendError, BindingPattern, FaultConfig, MemProvider, RemoteSpan,
    RetryPolicy, RuntimePolicy, SimBackend, SourceBackend, SourceGrid, SourceServer, SourceService,
    StoreBackend, TcpBackend, SCAN_PATTERN,
};
use qpo_utility::{Coverage, LinearCost};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Seeded like the CI-spawned `qpo-source-server`, so the simulator and
/// that server hold the same world.
fn mediator() -> Mediator {
    Mediator::new(movie_domain(), MOVIE_UNIVERSE, &MOVIE_POOL)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qpo-backends-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A live wire address: the CI-provided server when
/// `QPO_SOURCE_SERVER_ADDR` is set, else an in-process one seeded with
/// the same movie-domain extensions (the guard keeps it alive).
fn server_addr(m: &Mediator) -> (String, Option<SourceServer>) {
    if let Ok(addr) = std::env::var("QPO_SOURCE_SERVER_ADDR") {
        if !addr.trim().is_empty() {
            return (addr.trim().to_string(), None);
        }
    }
    let provider = MemProvider::new();
    for (name, rows) in snapshot_relations(m.database()) {
        provider.insert(name, rows);
    }
    let server = SourceServer::serve(Arc::new(provider), 0).expect("loopback bind");
    (server.addr().to_string(), Some(server))
}

#[test]
fn answers_are_bit_identical_across_sim_store_and_tcp() {
    let m = mediator();
    let dir = scratch_dir("tri");
    let store = StoreBackend::open(&dir).unwrap();
    for (name, rows) in snapshot_relations(m.database()) {
        store.put_relation(&name, &rows).unwrap();
    }
    store.flush().unwrap();
    let (addr, _guard) = server_addr(&m);
    let m = m.with_backends(
        BackendRegistry::new()
            .with("store", Arc::new(store))
            .with("tcp", Arc::new(TcpBackend::new(addr))),
    );
    let run = |label: &str| {
        m.run(
            &movie_query(),
            &LinearCost,
            Strategy::Greedy,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(2),
            &RunOptions {
                backend: Some(label),
                ..RunOptions::default()
            },
        )
        .unwrap()
    };
    let sim = run("sim");
    let store = run("store");
    let tcp = run("tcp");
    assert_eq!(sim.runtime.reports.len(), 9, "the full Figure 1 plan space");
    assert_eq!(sim.runtime.answers, store.runtime.answers, "sim vs store");
    assert_eq!(sim.runtime.answers, tcp.runtime.answers, "sim vs tcp");
    assert_eq!(sim.emitted_plans(), store.emitted_plans());
    assert_eq!(sim.emitted_plans(), tcp.emitted_plans());
    assert_eq!(store.failed(), 0, "store accesses all succeed");
    assert_eq!(tcp.failed(), 0, "tcp accesses all succeed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_survives_close_and_reopen() {
    let m = mediator();
    let dir = scratch_dir("reopen");
    let baseline = {
        let store = StoreBackend::open(&dir).unwrap();
        for (name, rows) in snapshot_relations(m.database()) {
            store.put_relation(&name, &rows).unwrap();
        }
        store.flush().unwrap();
        let m2 = m
            .clone()
            .with_backends(BackendRegistry::new().with("store", Arc::new(store)));
        m2.run(
            &movie_query(),
            &Coverage,
            Strategy::Streamer,
            StopCondition::unbounded(),
            RuntimePolicy::serial(),
            &RunOptions {
                backend: Some("store"),
                ..RunOptions::default()
            },
        )
        .unwrap()
        .runtime
        .answers
        // store dropped here: files closed
    };
    assert!(!baseline.is_empty());
    let reopened = StoreBackend::open(&dir).unwrap();
    assert!(reopened.records() > 0, "reopen replays the log");
    let m = m.with_backends(BackendRegistry::new().with("store", Arc::new(reopened)));
    let after = m
        .run(
            &movie_query(),
            &Coverage,
            Strategy::Streamer,
            StopCondition::unbounded(),
            RuntimePolicy::serial(),
            &RunOptions {
                backend: Some("store"),
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert_eq!(after.runtime.answers, baseline, "reopen preserves answers");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_death_mid_serving_degrades_gracefully() {
    // An in-process server (never the CI one — this test kills it).
    let m = mediator();
    let provider = MemProvider::new();
    for (name, rows) in snapshot_relations(m.database()) {
        provider.insert(name, rows);
    }
    let mut server = SourceServer::serve(Arc::new(provider), 0).expect("loopback bind");
    let addr = server.addr().to_string();
    let m = m.with_backends(BackendRegistry::new().with("tcp", Arc::new(TcpBackend::new(addr))));
    let retry = RetryPolicy::standard();
    assert!(retry.max_attempts > 1, "retries are what we are testing");
    let run = |m: &Mediator| {
        m.run(
            &movie_query(),
            &LinearCost,
            Strategy::Greedy,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(2).with_retry(retry),
            &RunOptions {
                backend: Some("tcp"),
                ..RunOptions::default()
            },
        )
        .unwrap()
    };

    // Alive: everything answers.
    let alive = run(&m);
    assert_eq!(alive.failed(), 0);
    assert!(!alive.runtime.answers.is_empty());

    // Kill the server; the same backend now meets connection refusals.
    server.stop();
    let dead = run(&m);
    assert_eq!(dead.runtime.reports.len(), 9, "the run completes");
    assert_eq!(dead.executed(), 0, "no plan can answer");
    assert_eq!(dead.failed(), 9, "every plan fails, none aborts the run");
    assert!(dead.runtime.answers.is_empty());
    // The retry/backoff stack engaged: every access chain burned its full
    // transient-retry budget...
    assert_eq!(
        dead.runtime.stats.transient_failures, dead.runtime.stats.attempts,
        "every attempt failed transiently"
    );
    for report in &dead.runtime.reports {
        for access in &report.accesses {
            assert_eq!(access.attempts, retry.max_attempts);
            assert!(
                access.latency > 0.0,
                "backoff and connect latency are charged"
            );
        }
    }
    // ...and the divergence gauges react: observed transient rate towers
    // over the declared one for every accessed source.
    let mut drifted = 0;
    for (_, drift) in dead.runtime.divergence.iter() {
        if drift.attempts == 0 {
            continue;
        }
        let transient = drift
            .transient_divergence()
            .expect("attempts imply an observation");
        assert!(transient > 0.5, "divergence {transient} should spike");
        drifted += 1;
    }
    assert!(drifted > 0, "at least one source drifted");
}

/// The simulator wearing a tracing tcp backend's interface: every reply
/// carries a synthetic server span derived deterministically from the
/// simulated latency. This is what lets the stitched-profile
/// worker-count determinism test run without sockets or wall clocks.
struct TracedSimBackend;

impl SourceBackend for TracedSimBackend {
    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn access(
        &self,
        svc: &SourceService,
        ctx: &AccessContext<'_>,
    ) -> Result<AccessReply, BackendError> {
        let mut reply = SimBackend.access(svc, ctx)?;
        let total = reply.access.latency * 0.5;
        reply.remote = Some(RemoteSpan {
            recv_parse: total * 0.25,
            lookup: total * 0.5,
            encode: total * 0.125,
            total,
            server_seq: ctx.plan_seq * 100 + u64::from(ctx.attempt),
        });
        Ok(reply)
    }
}

/// One traced run against the deterministic tracing mock, returning the
/// journal bytes and the stitched profile bytes. Lookahead is pinned so
/// only the worker count varies — emission order is part of the trace.
fn traced_sim_run(workers: usize) -> (String, String) {
    let m =
        mediator().with_backends(BackendRegistry::new().with("traced", Arc::new(TracedSimBackend)));
    let obs = Obs::with_trace();
    m.run(
        &movie_query(),
        &LinearCost,
        Strategy::Greedy,
        StopCondition::unbounded(),
        RuntimePolicy::parallel(workers).with_lookahead(4),
        &RunOptions {
            backend: Some("traced"),
            obs: Some(&obs),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let jsonl = obs.journal.to_jsonl();
    let profile = ProfileIndex::from_jsonl(&jsonl).unwrap().to_json();
    (jsonl, profile)
}

#[test]
fn stitched_profiles_are_byte_identical_across_worker_counts() {
    let (trace1, profile1) = traced_sim_run(1);
    // The remote rules of validate_trace hold on the mock's spans.
    validate_trace(&trace1).expect("trace is sound");
    let index = ProfileIndex::from_jsonl(&trace1).unwrap();
    let run = index.latest().expect("one run");
    run.check().expect("profile invariants");
    let stitched: usize = run
        .plans
        .iter()
        .flat_map(|p| &p.sources)
        .filter(|s| s.remote.is_some())
        .count();
    assert!(stitched > 0, "traced replies stitch remote spans");
    for s in run.plans.iter().flat_map(|p| &p.sources) {
        let Some(r) = &s.remote else { continue };
        // The network residual is exactly the executor's subtraction.
        assert_eq!(r.network.to_bits(), (r.charge - r.total).to_bits());
    }
    for workers in [4usize, 8] {
        let (trace, profile) = traced_sim_run(workers);
        assert_eq!(trace1, trace, "journal differs at {workers} workers");
        assert_eq!(profile1, profile, "profile differs at {workers} workers");
    }
}

#[test]
fn tcp_runs_stitch_remote_spans_with_exact_attribution() {
    let m = mediator();
    let (addr, _guard) = server_addr(&m);
    let m = m.with_backends(BackendRegistry::new().with("tcp", Arc::new(TcpBackend::new(addr))));
    let obs = Obs::with_trace();
    let live = m
        .run(
            &movie_query(),
            &LinearCost,
            Strategy::Greedy,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(2),
            &RunOptions {
                backend: Some("tcp"),
                obs: Some(&obs),
                ..RunOptions::default()
            },
        )
        .unwrap();
    let jsonl = obs.journal.to_jsonl();
    // What the `trace-validate` gate asks of a trace file, in process —
    // under CI on the journal of a run against the spawned server.
    let records = read_jsonl(&jsonl).unwrap();
    let report = validate_records(&records)
        .expect("remote span rules hold on a live run, every kind is in the vocabulary");
    assert_eq!(report.spans_opened, report.spans_closed);
    let index = ProfileIndex::from_records(&records);
    let run = index.latest().expect("one run");
    run.check().expect("stitched attribution is exact");
    assert_eq!(
        run.makespan.map(f64::to_bits),
        Some(run.critical_path.to_bits())
    );
    // The drift replay is a fold over these very spans: the JSONL replay,
    // the fold of the profile and the live monitor agree to the bit,
    // network/server split included.
    let replayed = DivergenceMonitor::from_profile(&ProfileIndex::from_jsonl(&jsonl).unwrap());
    let folded = DivergenceMonitor::from_profile(&index);
    assert!(replayed.iter().any(|(_, d)| d.ewma_network.is_some()));
    for other in [&folded, &live.runtime.divergence] {
        assert_eq!(replayed.iter().count(), other.iter().count());
        for ((name, d), (other_name, o)) in replayed.iter().zip(other.iter()) {
            assert_eq!((name, d), (other_name, o));
            let estimators = |d: &qpo_obs::SourceDrift| {
                [d.ewma_latency, d.ewma_tuples, d.ewma_network, d.ewma_server]
                    .map(|e| e.map(f64::to_bits))
            };
            assert_eq!(estimators(d), estimators(o), "{name}");
        }
    }
    let mut stitched = 0;
    for s in run.plans.iter().flat_map(|p| &p.sources) {
        // Every reply carries the server's span, so every chain that
        // ended in a reply's rows is stitched.
        assert_eq!(s.remote.is_some(), s.outcome == "ok", "{s:?}");
        if let Some(r) = &s.remote {
            assert!(r.total <= r.charge, "server span nests in the charge");
            assert!(r.recv_parse + r.lookup + r.encode <= r.total);
            assert_eq!(r.network.to_bits(), (r.charge - r.total).to_bits());
            stitched += 1;
        }
    }
    assert!(stitched > 0, "the server's replies carry spans");
    // The text renderer surfaces the decomposition.
    assert!(
        run.render_text().contains(" server="),
        "{}",
        run.render_text()
    );
}

#[test]
fn killed_server_leaves_no_remote_spans_but_still_charges_latency() {
    // An in-process server (never the CI one — this test kills it).
    let m = mediator();
    let provider = MemProvider::new();
    for (name, rows) in snapshot_relations(m.database()) {
        provider.insert(name, rows);
    }
    let mut server = SourceServer::serve(Arc::new(provider), 0).expect("loopback bind");
    let addr = server.addr().to_string();
    let m = m.with_backends(BackendRegistry::new().with("tcp", Arc::new(TcpBackend::new(addr))));
    server.stop();
    let obs = Obs::with_trace();
    let retry = RetryPolicy::standard();
    let dead = m
        .run(
            &movie_query(),
            &LinearCost,
            Strategy::Greedy,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(2).with_retry(retry),
            &RunOptions {
                backend: Some("tcp"),
                obs: Some(&obs),
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert_eq!(dead.executed(), 0, "no plan can answer");
    // Failed attempts never carry a server span, so the access records
    // and the journal both degrade to single-span attribution — while
    // the client-side latency (connect attempts + backoff) stays
    // charged.
    for report in &dead.runtime.reports {
        for access in &report.accesses {
            assert_eq!(access.remote_server, None);
            assert_eq!(access.remote_network, None);
            assert!(access.latency > 0.0, "client latency is still charged");
        }
    }
    let jsonl = obs.journal.to_jsonl();
    validate_trace(&jsonl).expect("trace stays sound without spans");
    assert!(
        !jsonl.contains("remote_total"),
        "no remote fields journalled"
    );
    let index = ProfileIndex::from_jsonl(&jsonl).unwrap();
    let run = index.latest().expect("one run");
    run.check().expect("single-span profile");
    assert!(run
        .plans
        .iter()
        .flat_map(|p| &p.sources)
        .all(|s| s.remote.is_none()));
}

/// A source that ignores the pattern: every access goes out as a scan.
/// The contract is superset-safe, so nothing downstream may notice.
struct IgnoresPattern(TcpBackend);

impl SourceBackend for IgnoresPattern {
    fn kind(&self) -> &'static str {
        self.0.kind()
    }

    fn access(
        &self,
        svc: &SourceService,
        ctx: &AccessContext<'_>,
    ) -> Result<AccessReply, BackendError> {
        let pattern = SCAN_PATTERN;
        self.0.access(svc, &AccessContext { pattern, ..*ctx })
    }
}

/// A source server's span journal, decoded as any trace is.
fn server_spans(server: &SourceServer) -> Vec<qpo_obs::Record<'static>> {
    qpo_obs::read_jsonl(&server.journal().to_jsonl()).expect("the journal reads back")
}

/// One seeded world behind four access paths: the simulator, a store, a
/// source server, and a second one behind a client that ignores every
/// pattern — all in-process, never the CI server: the test reads the
/// first server's journal.
struct Worlds {
    m: Mediator,
    tcp: Arc<TcpBackend>,
    scans: Arc<IgnoresPattern>,
    server: SourceServer,
    _scanned_server: SourceServer,
    scan_rows: BTreeMap<String, usize>,
    dir: PathBuf,
}

fn worlds(m: Mediator, tag: &str) -> Worlds {
    let relations = snapshot_relations(m.database());
    let dir = scratch_dir(tag);
    let store = StoreBackend::open(&dir).unwrap();
    let serve = || {
        let provider = MemProvider::new();
        for (name, rows) in &relations {
            provider.insert(name.clone(), rows.clone());
        }
        SourceServer::serve(Arc::new(provider), 0).expect("loopback bind")
    };
    for (name, rows) in &relations {
        store.put_relation(name, rows).unwrap();
    }
    let (server, scanned_server) = (serve(), serve());
    let tcp = Arc::new(TcpBackend::new(server.addr().to_string()));
    let scanned = TcpBackend::new(scanned_server.addr().to_string());
    let scans = Arc::new(IgnoresPattern(scanned));
    let m = m.with_backends(
        BackendRegistry::new()
            .with("store", Arc::new(store))
            .with("tcp", tcp.clone())
            .with("scans", scans.clone()),
    );
    Worlds {
        m,
        tcp,
        scans,
        server,
        _scanned_server: scanned_server,
        scan_rows: relations
            .into_iter()
            .map(|(name, rows)| (name, rows.len()))
            .collect(),
        dir,
    }
}

impl Worlds {
    /// Runs `text` on every access path and checks the pushdown contract
    /// end to end. Returns how many accesses went out bound.
    fn check(&self, text: &str) -> usize {
        let query = parse_query(text).unwrap();
        let run = |label: &str| {
            self.m
                .run(
                    &query,
                    &LinearCost,
                    Strategy::Greedy,
                    StopCondition::unbounded(),
                    RuntimePolicy::parallel(2),
                    &RunOptions {
                        backend: Some(label),
                        ..RunOptions::default()
                    },
                )
                .unwrap_or_else(|e| panic!("{text} on {label}: {e}"))
        };
        let served_before = self.server.requests_served();
        let sim = run("sim");
        for label in ["store", "tcp", "scans"] {
            let real = run(label);
            assert_eq!(
                sim.runtime.answers, real.runtime.answers,
                "{text} on {label}"
            );
            assert_eq!(
                sim.emitted_plans(),
                real.emitted_plans(),
                "{text} on {label}"
            );
            assert_eq!(real.failed(), 0, "{text} on {label}");
        }
        // What each source may be asked: the pattern of every bucket
        // entry it appears in — constants of the subgoal, `scan` if none.
        let prepared = self.m.prepare(&query).unwrap();
        let grid = SourceGrid::from_instance(&prepared.instance);
        let mut expected: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let faults = FaultConfig::disabled();
        for (bucket, entries) in prepared.reformulation.buckets.iter().enumerate() {
            let goal = BindingPattern::of_atom(&prepared.query.body[bucket]);
            let goal_is_bound = goal.to_string() != SCAN_PATTERN;
            for (index, entry) in entries.iter().enumerate() {
                let pattern = BindingPattern::of_atom(&entry.atom);
                let text_form = pattern.to_string();
                assert_eq!(
                    text_form == SCAN_PATTERN,
                    !goal_is_bound,
                    "{text}: {}",
                    entry.atom
                );
                let ctx = AccessContext {
                    pattern: &text_form,
                    run: 0,
                    plan_seq: 0,
                    attempt: 0,
                    faults: &faults,
                };
                let svc = grid.service(bucket, index);
                let scan = self.scan_rows[entry.source.as_ref()];
                // The server ships exactly the matching rows — never more
                // than a scan; a source that ignores the pattern ships
                // the superset.
                let shipped = self.tcp.access(svc, &ctx).unwrap().tuples.unwrap();
                assert!(shipped.iter().all(|row| pattern.matches(row)), "{text}");
                assert!(shipped.len() <= scan, "{text}");
                let superset = self.scans.access(svc, &ctx).unwrap().tuples.unwrap();
                assert_eq!(superset.len(), scan, "{text}");
                expected
                    .entry(entry.source.to_string())
                    .or_default()
                    .push(text_form);
            }
        }
        let mut bound = 0;
        for e in server_spans(&self.server) {
            if e.u64("request_seq").unwrap() <= served_before {
                continue;
            }
            let (source, pattern) = (e.str("source").unwrap(), e.str("pattern").unwrap());
            assert!(
                expected[source].iter().any(|p| p == pattern),
                "{text}: {source} asked under {pattern:?}, expected one of {:?}",
                expected[source]
            );
            bound += usize::from(pattern != SCAN_PATTERN);
        }
        bound
    }
}

impl Drop for Worlds {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn bound_constants_ride_the_pattern_on_the_movie_catalog() {
    let w = worlds(mediator(), "push-movie");
    let mut bound = 0;
    for actor in ["A", "ford", "hanks", "nobody"] {
        for reviewer in ["R", "blanchett", "ford", "7"] {
            let head = [actor, reviewer, "M"]
                .into_iter()
                .filter(|t| t.starts_with(char::is_uppercase))
                .collect::<Vec<_>>()
                .join(", ");
            let text = format!("q({head}) :- play_in({actor}, M), review_of({reviewer}, M)");
            let n = w.check(&text);
            assert_eq!(n == 0, actor == "A" && reviewer == "R", "{text}: {n} bound");
            bound += n;
        }
    }
    assert!(bound > 0);
    // The server-side dump names both kinds of access.
    let dump = w.server.journal().to_jsonl();
    assert!(dump.contains(r#""pattern":"bind;0=s4:ford""#), "{dump}");
    assert!(dump.contains(r#""pattern":"scan""#), "{dump}");
}

#[test]
fn bound_constants_ride_the_pattern_on_a_relation_catalog() {
    // Two binary relations, two staggered fragment sources each; rows are
    // `(pool value, item)`, so either column can be bound.
    let schema =
        MediatedSchema::with_relations((0..2).map(|j| SchemaRelation::new(format!("r{j}"), 2)));
    let mut catalog = Catalog::new(schema);
    for j in 0..2u64 {
        for (i, suffix) in ["a", "b"].into_iter().enumerate() {
            let view = format!("s{j}_{suffix}(A, X) :- r{j}(A, X)");
            let stats = SourceStats::new()
                .with_extent(Extent::new(10 * i as u64 + 3 * j, 40))
                .with_access_cost(1.0 + (i as f64) + 2.0 * (j as f64));
            catalog
                .add_source(SourceDescription::new(parse_query(&view).unwrap()), stats)
                .unwrap();
        }
    }
    let w = worlds(Mediator::new(catalog, 100, &["k", "j", "m"]), "push-rel");
    for first in ["A", "k", "m", "zz"] {
        for second in ["B", "j", "k"] {
            let head = [first, second, "X"]
                .into_iter()
                .filter(|t| t.starts_with(char::is_uppercase))
                .collect::<Vec<_>>()
                .join(", ");
            let n = w.check(&format!("q({head}) :- r0({first}, X), r1({second}, X)"));
            assert_eq!(n == 0, first == "A" && second == "B");
        }
    }
    // Integer constants, one relation under two different constants, and
    // a subgoal bound in both columns.
    assert!(w.check("q(A, B) :- r0(A, 17), r1(B, 17)") > 0);
    assert!(w.check("q(X, Y) :- r0(k, X), r0(j, Y)") > 0);
    assert!(w.check("q() :- r0(k, 15), r1(B, 15)") > 0);
}

#[test]
fn sequential_runs_share_pooled_connections() {
    let m = mediator();
    let (addr, _guard) = server_addr(&m);
    let tcp = Arc::new(TcpBackend::new(addr));
    let m = m.with_backends(BackendRegistry::new().with("tcp", tcp.clone()));
    let workers = 2;
    let mut attempts = 0;
    for _ in 0..5 {
        let run = m
            .run(
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(workers),
                &RunOptions {
                    backend: Some("tcp"),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(run.failed(), 0);
        assert_eq!(run.runtime.stats.transient_failures, 0);
        attempts += run.runtime.stats.attempts;
    }
    // One socket per access in flight at once, however many runs.
    let [opened, reused] = tcp.connection_counters().expect("tcp holds connections");
    let (opened, reused) = (opened.get(), reused.get());
    assert!(opened >= 1 && opened <= workers as u64, "opened {opened}");
    assert_eq!(opened + reused, attempts, "every exchange dialed or reused");
    // The same numbers answer "what is the pool doing" on the board and
    // in the metric registry.
    let board = qpo_obs::backends_text(&m.obs().backends);
    assert!(
        board.contains(&format!(
            "tcp kind=tcp epoch={} connections_opened={opened} connections_reused={reused}",
            tcp.epoch()
        )),
        "{board}"
    );
    let labels = [("backend", "tcp")];
    let counter = |name| m.obs().registry.counter_value(name, &labels);
    assert_eq!(counter("qpo_backend_connections_opened_total"), opened);
    assert_eq!(counter("qpo_backend_connections_reused_total"), reused);
}

#[test]
fn memo_and_tcp_compose_in_one_run() {
    let m = mediator();
    let (addr, _guard) = server_addr(&m);
    let tcp = Arc::new(TcpBackend::new(addr));
    let m = m.with_backends(BackendRegistry::new().with("tcp", tcp.clone()));
    let run = |opts: &RunOptions<'_>| {
        m.run(
            &movie_query(),
            &Coverage,
            Strategy::IDrips,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(2),
            opts,
        )
        .unwrap()
    };
    let sim = run(&RunOptions::default());
    assert!(!sim.runtime.answers.is_empty());
    let memo = ExecutionMemo::new();
    let composed = RunOptions {
        backend: Some("tcp"),
        memo: Some(&memo),
        obs: None,
    };
    let exchanges = || {
        let [opened, reused] = tcp.connection_counters().expect("tcp holds connections");
        opened.get() + reused.get()
    };
    let cold = run(&composed);
    assert_eq!(cold.failed(), 0);
    assert_eq!(cold.runtime.answers, sim.runtime.answers);
    assert_eq!(cold.emitted_plans(), sim.emitted_plans());
    assert!(cold.runtime.stats.attempts > 0 && cold.runtime.stats.memo_hits > 0);
    assert_eq!(
        exchanges(),
        cold.runtime.stats.attempts,
        "one exchange per live access"
    );
    // Warm: every coordinate replays from the source memo and every join
    // from its memoized prefix — the server is not asked again, and what
    // the first response taught about its epoch wiped nothing.
    let live = exchanges();
    let warm = run(&composed);
    assert_eq!(warm.runtime.stats.attempts, 0, "warm run is all replay");
    assert_eq!(exchanges(), live, "no live access for memoized coordinates");
    assert_eq!(warm.runtime.answers, sim.runtime.answers);
}

#[test]
fn a_tcp_backed_session_ships_bound_patterns_once_per_source_and_pattern() {
    // An in-process server (never the CI one — the test reads its journal).
    let m = mediator();
    let provider = MemProvider::new();
    let relations = snapshot_relations(m.database());
    for (name, rows) in &relations {
        provider.insert(name.clone(), rows.clone());
    }
    let server = SourceServer::serve(Arc::new(provider), 0).expect("loopback bind");
    let tcp = Arc::new(TcpBackend::new(server.addr().to_string()));
    let m = m.with_backends(BackendRegistry::new().with("tcp", tcp.clone()));
    let prepared = m.prepare(&movie_query()).unwrap();
    let plain = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy)
        .unwrap()
        .drain(StopCondition::unbounded());
    let backed = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy)
        .unwrap()
        .with_backend("tcp")
        .unwrap()
        .drain(StopCondition::unbounded());
    assert_eq!(backed.answers, plain.answers);
    assert_eq!(backed.reports.len(), 9, "the full Figure 1 plan space");
    // One request per (source, pattern) for the whole session, each under
    // the pattern of the bucket entry it serves: `ford` rides along.
    let mut expected: Vec<(String, String)> = Vec::new();
    for entries in &prepared.reformulation.buckets {
        for entry in entries {
            let pattern = BindingPattern::of_atom(&entry.atom).to_string();
            expected.push((entry.source.to_string(), pattern));
        }
    }
    expected.sort();
    expected.dedup();
    let mut asked: Vec<(String, String)> = server_spans(&server)
        .iter()
        .map(|e| {
            (
                e.str("source").unwrap().into(),
                e.str("pattern").unwrap().into(),
            )
        })
        .collect();
    asked.sort();
    assert_eq!(asked, expected, "no (source, pattern) asked twice");
    let dump = server.journal().to_jsonl();
    assert!(dump.contains(r#""pattern":"bind;0=s4:ford""#), "{dump}");
    // A bound access ships the matching rows only — a third of a source
    // under MOVIE_POOL — never more than a scan.
    let grid = SourceGrid::from_instance(&prepared.instance);
    let faults = FaultConfig::disabled();
    let scan_rows: BTreeMap<&str, usize> = relations
        .iter()
        .map(|(name, rows)| (name.as_str(), rows.len()))
        .collect();
    let mut bound = 0;
    for (bucket, entries) in prepared.reformulation.buckets.iter().enumerate() {
        for (index, entry) in entries.iter().enumerate() {
            let pattern = BindingPattern::of_atom(&entry.atom);
            let text = pattern.to_string();
            let ctx = AccessContext {
                pattern: &text,
                run: 0,
                plan_seq: 0,
                attempt: 0,
                faults: &faults,
            };
            let shipped = tcp.access(grid.service(bucket, index), &ctx).unwrap();
            let shipped = shipped.tuples.unwrap().len();
            let scan = scan_rows[entry.source.as_ref()];
            assert!(shipped <= scan, "{}: {shipped} > {scan}", entry.source);
            if text != SCAN_PATTERN {
                assert!(
                    shipped < scan,
                    "{} under {text} shipped a scan",
                    entry.source
                );
                bound += 1;
            }
        }
    }
    assert!(bound > 0, "the movie query binds `ford`");
}
