//! One loop, two schedulers: every capability composes with every other
//! and both agree. Over the option cube backend ∈ {sim, store, flaky, tcp}
//! × memo ∈ {off, cold, warm, warm rows}, a drained [`QuerySession`],
//! [`Mediator::run`] at 1 and 3 workers, and the plain run (no option at
//! all) return the same answers and emit the same plans in the same order;
//! the scorer dimension is the session's — a second session pulled tuple
//! by tuple delivers, in every cell, the ranked sequence a session on the
//! simulator does, scores compared to the f64 bit. `flaky` is the store behind
//! seeded transient outages that the retry discipline — one discipline,
//! under either scheduler — always rides out; a memo-resolved slot joins
//! the rows stored beside its outcome, so a warm run meets no outage at
//! all — also when (`warm rows`) no memoized prefix seeds its joins and
//! every slot of every plan is read. `tcp` is an in-process source server behind a client that learns
//! the server's data version from its first reply: every memoized run
//! starts on a fresh client, and a warm one makes no wire exchange.

use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_POOL, MOVIE_UNIVERSE};
use qpo_datalog::Tuple;
use qpo_exec::{
    snapshot_relations, BackendRegistry, CatalogScorer, ExecutionMemo, Mediator, QuerySession,
    RankedTuple, RunOptions, StopCondition, Strategy,
};
use qpo_runtime::{
    AccessContext, AccessReply, BackendError, MemProvider, RuntimePolicy, SourceBackend,
    SourceServer, SourceService, StoreBackend, TcpBackend,
};
use qpo_utility::Coverage;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Memo {
    Off,
    Cold,
    Warm,
    /// Warm, with a subplan memo that refuses every prefix: nothing seeds
    /// a join, so each one reads the rows the source memo kept.
    WarmRows,
}

/// The store behind seeded outages: the first two attempts of an access
/// fail transiently on a roll of `(seed, source, plan, attempt)`; the
/// standard four attempts always get through.
struct Flaky {
    store: Arc<StoreBackend>,
    seed: u64,
    outages: AtomicU64,
}

impl SourceBackend for Flaky {
    fn kind(&self) -> &'static str {
        "flaky-store"
    }

    fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    fn access(
        &self,
        svc: &SourceService,
        ctx: &AccessContext<'_>,
    ) -> Result<AccessReply, BackendError> {
        let roll = svc.name.bytes().fold(
            self.seed ^ (ctx.plan_seq << 8) ^ u64::from(ctx.attempt),
            |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3),
        );
        if ctx.attempt < 2 && (roll >> 20) % 3 == 0 {
            self.outages.fetch_add(1, Ordering::Relaxed);
            return Err(BackendError::transient("seeded outage"));
        }
        self.store.access(svc, ctx)
    }
}

fn outages(flaky: &Flaky) -> u64 {
    flaky.outages.load(Ordering::Relaxed)
}

/// What a driver hands back: emitted plans, answers, ranked stream.
type Outcome = (Vec<Vec<usize>>, BTreeSet<Tuple>, Vec<(u64, Tuple)>);

fn stream_key(tuples: &[RankedTuple]) -> Vec<(u64, Tuple)> {
    tuples
        .iter()
        .map(|rt| (rt.score.to_bits(), rt.tuple.clone()))
        .collect()
}

fn scorer() -> CatalogScorer {
    CatalogScorer::new(MOVIE_UNIVERSE).with_jitter(0.25)
}

/// The wave driver on one cell of the cube; it streams no tuples.
fn wave(m: &Mediator, backend: &str, memo: Option<&ExecutionMemo>, workers: usize) -> Outcome {
    let opts = RunOptions {
        backend: Some(backend),
        memo,
        obs: None,
    };
    let run = m
        .run(
            &movie_query(),
            &Coverage,
            Strategy::IDrips,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(workers),
            &opts,
        )
        .unwrap();
    assert_eq!(run.failed(), 0);
    (run.emitted_plans(), run.runtime.answers, Vec::new())
}

/// The pull driver on one cell: one session drained plan by plan and a
/// second one, with a scorer, drained tuple by tuple.
fn session(m: &Mediator, backend: &str, memo: Option<&ExecutionMemo>) -> Outcome {
    let prepared = m.prepare(&movie_query()).unwrap();
    let open = || {
        let s = QuerySession::new(m, &prepared, &Coverage, Strategy::IDrips)
            .unwrap()
            .with_backend(backend)
            .unwrap();
        match memo {
            Some(memo) => s.with_memo(memo),
            None => s,
        }
    };
    let mut by_plan = open();
    let drained = by_plan.drain(StopCondition::unbounded());
    let plans: Vec<Vec<usize>> = drained
        .reports
        .iter()
        .map(|r| r.ordered.plan.clone())
        .collect();
    let mut by_tuple = open().with_tuple_scorer(scorer());
    let stream = stream_key(&by_tuple.stream_tuples().collect::<Vec<_>>());
    assert_eq!(by_tuple.plans_emitted(), plans.len());
    assert_eq!(by_tuple.answers(), &drained.answers);
    (plans, drained.answers, stream)
}

#[test]
fn every_cell_of_the_option_cube_agrees_on_both_drivers() {
    let m = Mediator::new(movie_domain(), MOVIE_UNIVERSE, &MOVIE_POOL);
    let dir = std::env::temp_dir().join(format!("qpo-compose-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(StoreBackend::open(&dir).unwrap());
    for (name, rows) in snapshot_relations(m.database()) {
        store.put_relation(&name, &rows).unwrap();
    }
    let flaky = Arc::new(Flaky {
        store: store.clone(),
        seed: 2002,
        outages: AtomicU64::new(0),
    });
    let provider = MemProvider::new();
    for (name, rows) in snapshot_relations(m.database()) {
        provider.insert(name, rows);
    }
    let mut server = SourceServer::serve(Arc::new(provider), 0).unwrap();
    let backends = BackendRegistry::new().with("store", store);
    let backends = backends.with("flaky", flaky.clone());
    // A client that has seen no reply yet reports epoch 0.
    let dial = || {
        let tcp = Arc::new(TcpBackend::new(server.addr().to_string()));
        m.clone().with_backends(backends.clone().with("tcp", tcp))
    };
    let m = dial();
    let plain = m
        .run(
            &movie_query(),
            &Coverage,
            Strategy::IDrips,
            StopCondition::unbounded(),
            RuntimePolicy::serial(),
            &RunOptions::default(),
        )
        .unwrap();
    assert!(!plain.runtime.answers.is_empty());
    let ranked = session(&m, "sim", None).2;
    assert!(!ranked.is_empty());
    for backend in ["sim", "store", "flaky", "tcp"] {
        for memo in [Memo::Off, Memo::Cold, Memo::Warm, Memo::WarmRows] {
            let cell = format!("backend={backend} memo={memo:?}");
            // One memo — and one tcp client, which learns the server's
            // epoch while the memo fills — per driver and worker count, so
            // no run leans on what another one left behind; `Warm` runs
            // each twice and keeps the second, which reaches no source:
            // not the flaky one, not the wire.
            let run = |drive: &dyn Fn(&Mediator, Option<&ExecutionMemo>) -> Outcome| {
                let (m, shared) = (dial(), ExecutionMemo::new());
                let memo_ref = (memo != Memo::Off).then_some(&shared);
                let warm = matches!(memo, Memo::Warm | Memo::WarmRows);
                if memo == Memo::WarmRows {
                    shared.subplans.set_byte_budget(0);
                }
                if warm {
                    drive(&m, memo_ref);
                    let seeds = !shared.subplans.is_empty();
                    assert_eq!(seeds, memo == Memo::Warm, "{cell}: prefixes memoized");
                    assert!(!shared.sources.is_empty(), "{cell}: nothing memoized");
                }
                let before = (server.requests_served(), outages(&flaky));
                let outcome = drive(&m, memo_ref);
                if warm {
                    let after = (server.requests_served(), outages(&flaky));
                    assert_eq!(after, before, "{cell}: a warm run reached a source");
                }
                outcome
            };
            let outcomes = [
                run(&|m, memo| session(m, backend, memo)),
                run(&|m, memo| wave(m, backend, memo, 1)),
                run(&|m, memo| wave(m, backend, memo, 3)),
            ];
            for (driver, (plans, answers, stream)) in
                ["session", "run@1", "run@3"].iter().zip(outcomes)
            {
                assert_eq!(plans, plain.emitted_plans(), "{cell} {driver}: plan order");
                assert_eq!(answers, plain.runtime.answers, "{cell} {driver}: answers");
                let want = if *driver == "session" {
                    &ranked[..]
                } else {
                    &[]
                };
                assert_eq!(stream, want, "{cell} {driver}: ranked stream");
            }
        }
    }
    assert!(outages(&flaky) > 0, "outages fired");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
