//! Differential tests for the session-based serving layer.
//!
//! 1. **Equivalence** — [`Mediator::answer`] / [`Mediator::answer_until`]
//!    are now thin wrappers over a cached prepare + [`QuerySession`]
//!    drain; they must match the preserved pre-session reference loop
//!    ([`Mediator::reference_answer_until`], which bypasses the cache and
//!    the session machinery) **bit for bit**: same plans, same utility
//!    bits, same soundness verdicts, same tuple accounting.
//! 2. **Cache transparency** — a warm-cache run emits the same sequence
//!    as a cold one, and the generation counter proves plan generation
//!    was actually skipped.
//! 3. **Budget accounting** — `StopCondition::max_cost` charges only
//!    sound (executed) plans; a catalog whose cheapest plans are unsound
//!    (the Russian-movies trap of §2 of the paper) pins the regression —
//!    and pins that [`Mediator::run`], at any speculation depth, stops at
//!    the same plan.
//! 4. **A session is a run** — a session on the simulator and a serial
//!    [`Mediator::run`] are one loop: same plans, statuses and answers,
//!    and the same trace, event for event, to the clock bit.

use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
use qpo_catalog::{Catalog, Extent, MediatedSchema, SchemaRelation, SourceStats};
use qpo_datalog::{parse_query, SourceDescription};
use qpo_exec::{
    ExecutionMemo, Mediator, MediatorRun, PlanReport, QuerySession, RunOptions, StopCondition,
    Strategy,
};
use qpo_obs::{Obs, ProfileIndex};
use qpo_runtime::{PlanStatus, RuntimePolicy};
use qpo_utility::{Coverage, FailureCost, LinearCost, UtilityMeasure};

fn mediator() -> Mediator {
    Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"])
}

/// Bit-for-bit comparison of two runs: emission order, utility *bits*,
/// soundness verdicts, per-plan tuple accounting, and the answer union.
fn assert_runs_identical(label: &str, a: &MediatorRun, b: &MediatorRun) {
    assert_eq!(a.reports.len(), b.reports.len(), "{label}: report count");
    for (i, (x, y)) in a.reports.iter().zip(&b.reports).enumerate() {
        assert_eq!(x.ordered.plan, y.ordered.plan, "{label}: plan {i}");
        assert_eq!(
            x.ordered.utility.to_bits(),
            y.ordered.utility.to_bits(),
            "{label}: utility bits of plan {i}"
        );
        assert_eq!(x.sound, y.sound, "{label}: soundness of plan {i}");
        assert_eq!(x.sources, y.sources, "{label}: sources of plan {i}");
        assert_eq!(
            x.new_tuples, y.new_tuples,
            "{label}: new tuples of plan {i}"
        );
        assert_eq!(
            x.cumulative, y.cumulative,
            "{label}: cumulative of plan {i}"
        );
        assert_eq!(
            x.soundness_error, y.soundness_error,
            "{label}: soundness error of plan {i}"
        );
    }
    assert_eq!(a.answers, b.answers, "{label}: answer union");
}

fn check_strategy<M: UtilityMeasure>(m: &Mediator, measure: &M, strategy: Strategy) {
    let q = movie_query();
    let stops = [
        StopCondition::unbounded(),
        StopCondition::answers(2),
        StopCondition {
            max_plans: Some(4),
            ..StopCondition::default()
        },
        StopCondition::budget(40.0),
    ];
    for stop in stops {
        let session = m.answer_until(&q, measure, strategy, stop).unwrap();
        let reference = m
            .reference_answer_until(&q, measure, strategy, stop)
            .unwrap();
        assert_runs_identical(&format!("{strategy} {stop:?}"), &session, &reference);
    }
}

#[test]
fn sessions_match_the_reference_loop_bit_for_bit() {
    let m = mediator();
    check_strategy(&m, &LinearCost, Strategy::Greedy);
    check_strategy(&m, &Coverage, Strategy::Pi);
    check_strategy(&m, &Coverage, Strategy::Streamer);
    check_strategy(&m, &FailureCost::with_caching(), Strategy::IDrips);
}

#[test]
fn warm_cache_runs_match_cold_runs_and_skip_generation() {
    let m = mediator();
    let cold = m
        .answer_until(
            &movie_query(),
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
        )
        .unwrap();
    assert_eq!(m.cache_stats().generations, 1, "cold run prepared once");

    // Same query again, and a variable-renamed variant: both must hit.
    let renamed =
        parse_query("q(Movie, Rev) :- play_in(ford, Movie), review_of(Rev, Movie)").unwrap();
    let warm = m
        .answer_until(
            &movie_query(),
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
        )
        .unwrap();
    let via_rename = m
        .answer_until(
            &renamed,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
        )
        .unwrap();
    assert_eq!(
        m.cache_stats().generations,
        1,
        "warm runs skipped plan generation entirely"
    );
    assert_eq!(m.cache_stats().hits, 2);
    assert_runs_identical("warm repeat", &cold, &warm);
    // The renamed query serves the shared prepared entry: identical plan
    // sequence, utilities, and (name-independent) answer tuples.
    assert_runs_identical("renamed hit", &cold, &via_rename);
}

#[test]
fn shared_mediator_serves_concurrent_sessions() {
    let m = mediator();
    // Warm the cache once, then serve from clones on worker threads — the
    // serving-layer shape: one mediator, many concurrent sessions.
    m.prepare(&movie_query()).unwrap();
    let baseline = m
        .reference_answer_until(
            &movie_query(),
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
        )
        .unwrap();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let handle = m.clone();
            let baseline = &baseline;
            scope.spawn(move || {
                let run = handle
                    .answer_until(
                        &movie_query(),
                        &Coverage,
                        Strategy::Pi,
                        StopCondition::unbounded(),
                    )
                    .unwrap();
                assert_runs_identical("threaded session", &run, baseline);
            });
        }
    });
    let stats = m.cache_stats();
    assert_eq!(stats.generations, 1, "every thread reused the shared entry");
    assert_eq!(stats.hits, 4);
}

/// The §2 trap catalog: `u1` stores Russian movies and does not export the
/// join variable, so every plan through `u1` is unsound — and, by
/// construction, *cheap*, so those plans are emitted first.
fn trap_catalog() -> Catalog {
    let schema = MediatedSchema::with_relations([
        SchemaRelation::new("play_in", 2),
        SchemaRelation::new("american", 1),
        SchemaRelation::new("russian", 1),
    ]);
    let mut catalog = Catalog::new(schema);
    let desc = |text: &str| SourceDescription::new(parse_query(text).expect("view parses"));
    catalog
        .add_source(
            desc("u1(A) :- play_in(A, M), russian(M)"),
            SourceStats::new()
                .with_extent(Extent::new(0, 40))
                .with_transmission_cost(0.5)
                .with_access_cost(1.0),
        )
        .unwrap();
    catalog
        .add_source(
            desc("u2(A, M) :- play_in(A, M), american(M)"),
            SourceStats::new()
                .with_extent(Extent::new(100, 400))
                .with_transmission_cost(4.0)
                .with_access_cost(8.0),
        )
        .unwrap();
    catalog
        .add_source(
            desc("u3(M) :- american(M)"),
            SourceStats::new()
                .with_extent(Extent::new(100, 400))
                .with_transmission_cost(2.0)
                .with_access_cost(4.0),
        )
        .unwrap();
    catalog
}

#[test]
fn max_cost_charges_only_executed_plans() {
    let m = Mediator::new(trap_catalog(), 1000, &["ford", "hanks"]);
    let q = parse_query("q(A) :- play_in(A, M), american(M)").unwrap();
    let unbounded = m
        .answer_until(
            &q,
            &LinearCost,
            Strategy::Greedy,
            StopCondition::unbounded(),
        )
        .unwrap();
    // Precondition for the regression: an unsound (discarded) prefix
    // precedes the first sound plan, and it is not free.
    let first_sound = unbounded
        .reports
        .iter()
        .position(|r| r.sound)
        .expect("some plan is sound");
    assert!(first_sound > 0, "cheap unsound plans are emitted first");
    let unsound_prefix_cost: f64 = unbounded.reports[..first_sound]
        .iter()
        .map(|r| -r.ordered.utility)
        .sum();
    assert!(unsound_prefix_cost > 0.0);

    // A budget smaller than the unsound prefix's nominal cost: discarded
    // plans spend nothing, so the first sound plan must still execute.
    // (Before the fix, the prefix exhausted the budget and the run ended
    // with zero executed plans and zero answers.)
    let bounded = m
        .answer_until(
            &q,
            &LinearCost,
            Strategy::Greedy,
            StopCondition::budget(unsound_prefix_cost / 2.0),
        )
        .unwrap();
    assert!(bounded.executed() >= 1, "sound plan still ran under budget");
    assert!(!bounded.answers.is_empty());
    // Spent cost (sound plans only) exceeds the budget by at most the
    // final executed plan.
    let spent: f64 = bounded
        .reports
        .iter()
        .filter(|r| r.sound)
        .map(|r| -r.ordered.utility)
        .sum();
    assert!(spent > unsound_prefix_cost / 2.0);

    // The reference loop applies the same accounting.
    let reference = m
        .reference_answer_until(
            &q,
            &LinearCost,
            Strategy::Greedy,
            StopCondition::budget(unsound_prefix_cost / 2.0),
        )
        .unwrap();
    assert_runs_identical("trap budget", &bounded, &reference);
}

#[test]
fn a_cost_budget_stops_both_drivers_at_the_same_plan() {
    let m = Mediator::new(trap_catalog(), 1000, &["ford", "hanks"]);
    let q = parse_query("q(A) :- play_in(A, M), american(M)").unwrap();
    let stop = StopCondition::unbounded();
    let all = m.answer_until(&q, &LinearCost, Strategy::Greedy, stop);
    let all = all.unwrap().reports;
    let cost = |r: &PlanReport| -r.ordered.utility;
    // What the first `n` plans cost nominally, and what they spend.
    let nominal = |n: usize| all[..n].iter().map(cost).sum::<f64>();
    let spent = |n: usize| all[..n].iter().filter(|r| r.sound).map(cost).sum::<f64>();
    let first_sound = all.iter().position(|r| r.sound).unwrap();
    assert!(first_sound > 0 && first_sound + 1 < all.len());
    // Inside the unsound prefix's nominal cost, then either side of the
    // first sound plan's cost.
    let executed = cost(&all[first_sound]);
    let budgets = [nominal(first_sound) / 2.0, executed * 0.9, executed * 1.1];
    for budget in budgets {
        // The serial rule: a plan pops while the *sound* plans before it
        // have not overspent. Unsound ones never shorten the run.
        let expected: Vec<Vec<usize>> = (0..all.len())
            .take_while(|&n| spent(n) <= budget)
            .map(|n| all[n].ordered.plan.clone())
            .collect();
        assert!(
            nominal(expected.len() - 1) > budget,
            "unsound plans would have overspent"
        );
        let stop = StopCondition::budget(budget);
        let session = m.answer_until(&q, &LinearCost, Strategy::Greedy, stop);
        let session: Vec<_> = session
            .unwrap()
            .reports
            .into_iter()
            .map(|r| r.ordered.plan)
            .collect();
        assert_eq!(session, expected, "session, budget {budget}");
        for (workers, lookahead) in [(1, 1), (3, 3)] {
            let policy = RuntimePolicy::parallel(workers).with_lookahead(lookahead);
            let run = m
                .run(
                    &q,
                    &LinearCost,
                    Strategy::Greedy,
                    stop,
                    policy,
                    &RunOptions::default(),
                )
                .unwrap();
            assert_eq!(
                run.emitted_plans(),
                expected,
                "run, budget {budget}, workers={workers} lookahead={lookahead}"
            );
        }
    }
}

/// The whole trace, event by event: kind, clock bits and fields.
fn trace_key(obs: &Obs) -> Vec<(&'static str, u64, String)> {
    let events = obs.journal.events().into_iter();
    events
        .map(|e| (e.kind, e.clock.to_bits(), format!("{:?}", e.fields)))
        .collect()
}

#[test]
fn a_session_on_the_simulator_is_a_serial_run() {
    let stop = StopCondition {
        max_plans: Some(7),
        ..StopCondition::default()
    };
    for memoized in [false, true] {
        let (session_obs, run_obs) = (Obs::with_trace(), Obs::with_trace());
        let (session_memo, run_memo) = (ExecutionMemo::new(), ExecutionMemo::new());
        let m = mediator().with_obs(&session_obs);
        let prepared = m.prepare(&movie_query()).unwrap();
        let mut session = QuerySession::new(&m, &prepared, &Coverage, Strategy::IDrips)
            .unwrap()
            .with_backend("sim")
            .unwrap();
        if memoized {
            session = session.with_memo(&session_memo);
        }
        let pulled = session.drain(stop);
        drop(session);
        let run = mediator()
            .run(
                &movie_query(),
                &Coverage,
                Strategy::IDrips,
                stop,
                RuntimePolicy::serial(),
                &RunOptions {
                    memo: memoized.then_some(&run_memo),
                    obs: Some(&run_obs),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(pulled.reports.len(), 7);
        assert_eq!(pulled.answers, run.runtime.answers);
        for (p, r) in pulled.reports.iter().zip(&run.runtime.reports) {
            assert_eq!(p.ordered.plan, r.ordered.plan);
            assert_eq!(p.ordered.utility.to_bits(), r.ordered.utility.to_bits());
            let status = match &r.status {
                PlanStatus::Executed {
                    new_tuples,
                    cumulative,
                    ..
                } => (true, None, *new_tuples, *cumulative),
                PlanStatus::Failed(reason) => (true, Some(reason.clone()), 0, p.cumulative),
                PlanStatus::Unsound => (false, None, 0, p.cumulative),
            };
            assert_eq!(
                (p.sound, p.failure.clone(), p.new_tuples, p.cumulative),
                status
            );
        }
        // One loop, one trace: every event — lifecycle, attempts, memo,
        // kernel, drift, the run's own markers — at the same clock bits.
        let trace = trace_key(&session_obs);
        assert_eq!(trace, trace_key(&run_obs), "memoized={memoized}");
        let count = |kind: &str| trace.iter().filter(|(k, ..)| *k == kind).count();
        assert!(count("source_attempt") > 0 && count("plan_completed") > 0);
        assert_eq!(count("memo_hit") > 0 && count("memo_store") > 0, memoized);
        // So `/profile` works for a pulled session: per-source attribution
        // on a moving clock.
        let index = ProfileIndex::from_journal(&session_obs.journal);
        let profile = index.latest().unwrap();
        profile.check().expect("the session's span tree is exact");
        assert!(profile.critical_path > 0.0 && profile.dominant_source().is_some());
        assert!(profile.plans.iter().any(|p| !p.sources.is_empty()));
        assert_eq!(
            profile.to_json(),
            ProfileIndex::from_journal(&run_obs.journal)
                .latest()
                .unwrap()
                .to_json()
        );
    }
}

#[test]
fn session_pull_interface_matches_drain() {
    let m = mediator();
    let prepared = m.prepare(&movie_query()).unwrap();
    let mut pull = QuerySession::new(&m, &prepared, &Coverage, Strategy::Pi).unwrap();
    let mut pulled = Vec::new();
    while let Some(r) = pull.next_report() {
        pulled.push(r);
    }
    let drained = m
        .answer_until(
            &movie_query(),
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
        )
        .unwrap();
    assert_eq!(pulled.len(), drained.reports.len());
    for (x, y) in pulled.iter().zip(&drained.reports) {
        assert_eq!(x.ordered.plan, y.ordered.plan);
        assert_eq!(x.ordered.utility.to_bits(), y.ordered.utility.to_bits());
        assert_eq!(x.new_tuples, y.new_tuples);
    }
}
