//! Contracts of the qpo-obs trace journal on the concurrent runtime:
//!
//! 1. **Determinism** — the journal runs on the executor's *serial*
//!    virtual clock (plan latencies summed in emission order), so with a
//!    fixed fault seed and a pinned lookahead the JSONL trace is
//!    byte-for-byte identical under any worker count. (Lookahead must be
//!    pinned because it changes *which* plans are emitted — run
//!    semantics, not scheduling.)
//! 2. **Reconciliation** — per-kind event counts in the validated trace
//!    equal the metrics registry's counters for the same run: attempts,
//!    executed/failed/unsound plans, retractions.
//! 3. **Balance** — every plan span opened by `plan_emitted` is closed by
//!    exactly one of `plan_completed|plan_failed|plan_unsound`.
//! 4. **Determinism over a data backend** — a memoized run over a store,
//!    cold then warm, traces the same bytes at any worker count: every
//!    memo lookup, store and epoch move happens on the coordinating
//!    thread, and a warm run replays rows as well as outcomes, so it
//!    reaches the backend not once.
//! 5. **No dead vocabulary** — between them, this suite's kinds of traced
//!    run and a source server's own journal emit every event kind
//!    `qpo_obs::vocab` lists and no other, and every event conforms to its
//!    row (in `--release` too, where the journal's emit-side assertion is
//!    compiled out).

use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
use qpo_exec::{
    snapshot_relations, BackendRegistry, ExecutionMemo, Mediator, RunOptions, StopCondition,
    Strategy,
};
use qpo_obs::{validate_trace, Obs};
use qpo_runtime::{
    AccessContext, AccessReply, BackendError, FaultConfig, MemProvider, RuntimePolicy,
    SourceBackend, SourceServer, SourceService, StoreBackend, TcpBackend,
};
use qpo_utility::Coverage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn mediator() -> Mediator {
    Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"])
}

/// A flaky run (transient failures + retries + one permanent failure) on
/// `workers` threads, traced on a fresh bundle.
fn traced_run(workers: usize) -> Obs {
    let obs = Obs::with_trace();
    let policy = RuntimePolicy::parallel(workers)
        .with_lookahead(3)
        .with_faults(
            FaultConfig::with_seed(2002)
                .with_extra_transient_rate(0.35)
                .with_source_down("v1"),
        )
        .with_max_attempts(2);
    mediator()
        .run(
            &movie_query(),
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            policy,
            &RunOptions {
                obs: Some(&obs),
                ..RunOptions::default()
            },
        )
        .unwrap();
    obs
}

#[test]
fn jsonl_trace_is_byte_identical_across_worker_counts() {
    let traces: Vec<String> = [1usize, 4, 8]
        .iter()
        .map(|&w| traced_run(w).journal.to_jsonl())
        .collect();
    assert!(!traces[0].is_empty(), "the journal actually recorded");
    assert!(
        traces[0].contains("plan_failed"),
        "the scenario exercises failures"
    );
    assert_eq!(traces[0], traces[1], "1 worker vs 4");
    assert_eq!(traces[1], traces[2], "4 workers vs 8");
}

#[test]
fn trace_validates_and_spans_balance() {
    let obs = traced_run(4);
    let jsonl = obs.journal.to_jsonl();
    let report = validate_trace(&jsonl).expect("structurally sound trace");
    assert_eq!(report.events as usize, jsonl.lines().count());
    assert_eq!(
        report.spans_opened, report.spans_closed,
        "every emitted plan reaches a terminal event"
    );
    assert_eq!(
        report.spans_opened,
        report.count("plan_emitted"),
        "one span per emission"
    );
    assert_eq!(
        report.spans_closed,
        report.count("plan_completed") + report.count("plan_failed") + report.count("plan_unsound")
    );
}

#[test]
fn trace_counts_reconcile_with_registry_counters() {
    let obs = traced_run(4);
    let report = validate_trace(&obs.journal.to_jsonl()).unwrap();
    let reg = &obs.registry;
    assert_eq!(
        report.count("source_attempt"),
        reg.counter_value("qpo_runtime_attempts_total", &[]),
        "every attempt is journalled exactly once"
    );
    assert_eq!(
        report.count("plan_completed"),
        reg.counter_value("qpo_runtime_plans_total", &[("status", "executed")])
    );
    assert_eq!(
        report.count("plan_failed"),
        reg.counter_value("qpo_runtime_plans_total", &[("status", "failed")])
    );
    assert_eq!(
        report.count("plan_unsound"),
        reg.counter_value("qpo_runtime_plans_total", &[("status", "unsound")])
    );
    assert_eq!(
        report.count("plan_emitted"),
        reg.counter_total("qpo_runtime_plans_total"),
        "emissions equal terminal outcomes, summed over statuses"
    );
    // Transient failures are attempts whose outcome was not ok/permanent.
    assert!(reg.counter_value("qpo_runtime_transient_failures_total", &[]) > 0);
}

#[test]
fn disabled_journal_changes_nothing_and_records_nothing() {
    let obs = Obs::new();
    let traced = traced_run(4);
    mediator()
        .run(
            &movie_query(),
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(4)
                .with_lookahead(3)
                .with_faults(
                    FaultConfig::with_seed(2002)
                        .with_extra_transient_rate(0.35)
                        .with_source_down("v1"),
                )
                .with_max_attempts(2),
            &RunOptions {
                obs: Some(&obs),
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert!(obs.journal.is_empty(), "journal off records nothing");
    // Metrics still land, and agree with the traced run's.
    assert_eq!(
        obs.registry
            .counter_value("qpo_runtime_attempts_total", &[]),
        traced
            .registry
            .counter_value("qpo_runtime_attempts_total", &[]),
        "tracing does not perturb the run"
    );
}

/// A store that counts the accesses reaching it.
struct CountedStore {
    store: StoreBackend,
    accesses: AtomicU64,
}

impl SourceBackend for CountedStore {
    fn kind(&self) -> &'static str {
        "store"
    }

    fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    fn access(
        &self,
        svc: &SourceService,
        ctx: &AccessContext<'_>,
    ) -> Result<AccessReply, BackendError> {
        self.accesses.fetch_add(1, Ordering::Relaxed);
        self.store.access(svc, ctx)
    }
}

#[test]
fn a_store_backed_memoized_trace_is_byte_identical_across_worker_counts() {
    let dir = std::env::temp_dir().join(format!("qpo-trace-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let m = mediator();
    // Measured latencies scaled to zero: the clock stays deterministic.
    let store = StoreBackend::open(&dir).unwrap().with_latency_unit(0.0);
    for (name, rows) in snapshot_relations(m.database()) {
        store.put_relation(&name, &rows).unwrap();
    }
    let store = Arc::new(CountedStore {
        store,
        accesses: AtomicU64::new(0),
    });
    let m = m.with_backends(BackendRegistry::new().with("store", store.clone()));
    let run = |workers: usize, opts: &RunOptions<'_>| {
        let (stop, policy) = (StopCondition::unbounded(), RuntimePolicy::parallel(workers));
        let policy = policy.with_lookahead(3);
        m.run(&movie_query(), &Coverage, Strategy::Pi, stop, policy, opts)
            .unwrap()
    };
    let plain = run(1, &RunOptions::default());
    // Per worker count: one memo, a cold and a warm run, both traces. The
    // subplan memo refuses every prefix, so nothing seeds a warm join: it
    // reads every slot, from the rows stored beside the memoized outcome.
    let traces = [1usize, 3].map(|workers| {
        let memo = ExecutionMemo::new();
        memo.subplans.set_byte_budget(0);
        [false, true].map(|warm| {
            let obs = Obs::with_trace();
            let opts = RunOptions {
                backend: Some("store"),
                memo: Some(&memo),
                obs: Some(&obs),
            };
            let before = store.accesses.load(Ordering::Relaxed);
            let memoized = run(workers, &opts);
            let reached = store.accesses.load(Ordering::Relaxed) - before;
            assert_eq!(memoized.runtime.answers, plain.runtime.answers);
            assert_eq!(reached == 0, warm, "workers={workers} warm={warm}");
            obs.journal.to_jsonl()
        })
    });
    assert_eq!(traces[0], traces[1], "1 worker vs 3");
    let [cold, warm] = traces[0].each_ref().map(|t| validate_trace(t).unwrap());
    assert!(cold.count("source_attempt") > 0 && cold.count("memo_store") > 0);
    assert_eq!(
        warm.count("source_attempt"),
        0,
        "a warm run accesses nothing"
    );
    assert_eq!(warm.count("memo_store"), 0);
    assert!(warm.count("memo_hit") > cold.count("memo_hit"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_vocabulary_kind_is_emitted_and_every_event_conforms() {
    use qpo_catalog::{Catalog, Extent, MediatedSchema, SchemaRelation, SourceStats};
    use qpo_datalog::{parse_query, SourceDescription};
    use qpo_exec::{CatalogScorer, QuerySession};
    fn traced(
        m: &Mediator,
        q: &qpo_datalog::ConjunctiveQuery,
        strategy: Strategy,
        policy: RuntimePolicy,
        opts: RunOptions<'_>,
    ) -> String {
        let obs = Obs::with_trace();
        let opts = RunOptions {
            obs: Some(&obs),
            ..opts
        };
        let stop = StopCondition::unbounded();
        m.run(q, &Coverage, strategy, stop, policy, &opts).unwrap();
        obs.journal.to_jsonl()
    }
    // The flaky simulator: retries, a failed and retracted plan, drift.
    let mut traces = vec![traced_run(4).journal.to_jsonl()];
    // A memoized pair, cold then warm: stores, hits, seeded prefixes.
    let (m, memo) = (mediator(), ExecutionMemo::new());
    for _ in 0..2 {
        let opts = RunOptions {
            memo: Some(&memo),
            ..RunOptions::default()
        };
        let policy = RuntimePolicy::parallel(2).with_lookahead(3);
        traces.push(traced(&m, &movie_query(), Strategy::Pi, policy, opts));
    }
    // An any-k session that evicts: `u1` answers `play_in` but over
    // russian movies, so its plan is unsound and its stream attaches and
    // goes.
    let desc = |text: &str| SourceDescription::new(parse_query(text).unwrap());
    let schema = [("play_in", 2), ("american", 1), ("russian", 1)];
    let schema = schema.map(|(name, arity)| SchemaRelation::new(name, arity));
    let mut catalog = Catalog::new(MediatedSchema::with_relations(schema));
    for view in [
        "u1(A) :- play_in(A, M), russian(M)",
        "u2(A, M) :- play_in(A, M), american(M)",
        "u3(M) :- american(M)",
    ] {
        let stats = SourceStats::new().with_extent(Extent::new(10, 40));
        catalog.add_source(desc(view), stats).unwrap();
    }
    let trap = Mediator::new(catalog, 1000, &["ford", "hanks"]);
    let q = parse_query("q(A) :- play_in(A, M), american(M)").unwrap();
    let streamed = |m: &Mediator, q: &qpo_datalog::ConjunctiveQuery, strategy, universe| {
        let obs = Obs::with_trace();
        let m = m.clone().with_obs(&obs);
        let prepared = m.prepare(q).unwrap();
        let session = QuerySession::new(&m, &prepared, &Coverage, strategy).unwrap();
        let scorer = CatalogScorer::new(universe).with_jitter(0.25);
        let mut session = session.with_tuple_scorer(scorer);
        assert!(session.stream_tuples().count() > 0);
        drop(session);
        obs.journal.to_jsonl()
    };
    traces.push(streamed(&trap, &q, Strategy::Pi, 1000));
    // A session streaming tuples: the tuple lifecycle. It schedules its
    // plans by score bound, so the kernel does not run…
    let m = mediator();
    traces.push(streamed(
        &m,
        &movie_query(),
        Strategy::IDrips,
        MOVIE_UNIVERSE,
    ));
    // …but it does in a pulled iDrips plan session: the kernel's events.
    let obs = Obs::with_trace();
    let observed = m.clone().with_obs(&obs);
    let prepared = observed.prepare(&movie_query()).unwrap();
    let mut session = QuerySession::new(&observed, &prepared, &Coverage, Strategy::IDrips).unwrap();
    while session.next_report().is_some() {}
    drop(session);
    traces.push(obs.journal.to_jsonl());
    // A tcp run: remote spans on the client, and the server's own journal.
    let provider = MemProvider::new();
    for (name, rows) in snapshot_relations(m.database()) {
        provider.insert(name, rows);
    }
    let server = SourceServer::serve(Arc::new(provider), 0).unwrap();
    let tcp = Arc::new(TcpBackend::new(server.addr().to_string()));
    let m = mediator().with_backends(BackendRegistry::new().with("tcp", tcp));
    let opts = RunOptions {
        backend: Some("tcp"),
        ..RunOptions::default()
    };
    let policy = RuntimePolicy::serial();
    traces.push(traced(&m, &movie_query(), Strategy::Pi, policy, opts));
    traces.push(server.journal().to_jsonl());

    let mut seen = std::collections::BTreeSet::new();
    for trace in &traces {
        // Validation includes conformance of every event to its row.
        let report = validate_trace(trace).expect("a sound, conforming trace");
        seen.extend(report.counts.into_keys());
    }
    let listed: Vec<&str> = qpo_obs::vocab::KINDS
        .iter()
        .map(|(kind, _)| *kind)
        .collect();
    let emitted: Vec<&str> = seen.iter().map(String::as_str).collect();
    let dead: Vec<_> = listed.iter().filter(|k| !emitted.contains(k)).collect();
    assert!(dead.is_empty(), "listed but never emitted: {dead:?}");
    let unlisted: Vec<_> = emitted.iter().filter(|k| !listed.contains(k)).collect();
    assert!(unlisted.is_empty(), "emitted but not listed: {unlisted:?}");
}
