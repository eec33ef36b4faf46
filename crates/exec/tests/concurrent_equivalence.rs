//! The two contracts of the concurrent runtime (see DESIGN.md):
//!
//! 1. **Equivalence** — with faults disabled, `run_concurrent` produces
//!    exactly the serial mediator's plan-emission order and answer set,
//!    for every strategy and under any worker count and speculation depth.
//! 2. **Determinism** — with faults enabled, a fixed seed reproduces the
//!    whole run (failures, retries, latencies) bit for bit, independent of
//!    worker count.

use qpo_catalog::domains::{
    camera_domain, camera_query, movie_domain, movie_query, CAMERA_UNIVERSE, MOVIE_UNIVERSE,
};
use qpo_exec::{Mediator, RunOptions, StopCondition, Strategy};
use qpo_runtime::{FaultConfig, PlanStatus, RetryPolicy, RuntimePolicy};
use qpo_utility::{Coverage, FailureCost, LinearCost, UtilityMeasure};

fn movie_mediator() -> Mediator {
    Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"])
}

fn assert_matches_serial<M: UtilityMeasure>(
    m: &Mediator,
    query: &qpo_datalog::ConjunctiveQuery,
    measure: &M,
    strategy: Strategy,
    stop: StopCondition,
) {
    let serial = m.answer_until(query, measure, strategy, stop).unwrap();
    let serial_plans: Vec<Vec<usize>> = serial
        .reports
        .iter()
        .map(|r| r.ordered.plan.clone())
        .collect();
    for (workers, lookahead) in [(1, 1), (2, 2), (4, 4), (3, 7), (8, 1)] {
        let policy = RuntimePolicy::parallel(workers).with_lookahead(lookahead);
        assert!(!policy.faults.enabled, "equivalence requires faults off");
        let run = m
            .run(
                query,
                measure,
                strategy,
                stop,
                policy,
                &RunOptions::default(),
            )
            .unwrap();
        assert_eq!(
            run.emitted_plans(),
            serial_plans,
            "{strategy} emission order, workers={workers} lookahead={lookahead}"
        );
        assert_eq!(
            run.runtime.answers, serial.answers,
            "{strategy} answer set, workers={workers} lookahead={lookahead}"
        );
        // Per-plan utilities and novelty counts line up, too.
        for (cr, sr) in run.runtime.reports.iter().zip(&serial.reports) {
            assert!((cr.ordered.utility - sr.ordered.utility).abs() < 1e-12);
            match &cr.status {
                PlanStatus::Executed {
                    new_tuples,
                    cumulative,
                    ..
                } => {
                    assert!(sr.sound);
                    assert_eq!(*new_tuples, sr.new_tuples);
                    assert_eq!(*cumulative, sr.cumulative);
                }
                PlanStatus::Unsound => assert!(!sr.sound),
                PlanStatus::Failed(r) => panic!("no faults, yet plan failed: {r:?}"),
            }
        }
    }
}

#[test]
fn every_strategy_matches_serial_on_the_movie_domain() {
    let m = movie_mediator();
    let q = movie_query();
    assert_matches_serial(
        &m,
        &q,
        &LinearCost,
        Strategy::Greedy,
        StopCondition::unbounded(),
    );
    assert_matches_serial(&m, &q, &Coverage, Strategy::Pi, StopCondition::unbounded());
    assert_matches_serial(
        &m,
        &q,
        &Coverage,
        Strategy::Streamer,
        StopCondition::unbounded(),
    );
    assert_matches_serial(
        &m,
        &q,
        &FailureCost::with_caching(),
        Strategy::IDrips,
        StopCondition::unbounded(),
    );
}

#[test]
fn equivalence_holds_under_plan_and_cost_budgets() {
    let m = movie_mediator();
    let q = movie_query();
    let stop = StopCondition {
        max_plans: Some(4),
        ..StopCondition::default()
    };
    assert_matches_serial(&m, &q, &Coverage, Strategy::Pi, stop);
    assert_matches_serial(
        &m,
        &q,
        &LinearCost,
        Strategy::Greedy,
        StopCondition::budget(30.0),
    );
}

#[test]
fn equivalence_holds_on_the_camera_domain() {
    let m = Mediator::new(camera_domain(), CAMERA_UNIVERSE, &["canon"]);
    let q = camera_query();
    assert_matches_serial(&m, &q, &Coverage, Strategy::Pi, StopCondition::unbounded());
    assert_matches_serial(
        &m,
        &q,
        &FailureCost::with_caching(),
        Strategy::IDrips,
        StopCondition::unbounded(),
    );
}

#[test]
fn answer_budget_is_serial_exact_without_speculation() {
    let m = movie_mediator();
    let q = movie_query();
    let stop = StopCondition::answers(1);
    let serial = m.answer_until(&q, &Coverage, Strategy::Pi, stop).unwrap();
    // lookahead = 1: the answer budget is re-checked before every pop,
    // exactly as in the serial loop. (Deeper speculation may legitimately
    // overrun an answer budget by up to lookahead − 1 plans.)
    let run = m
        .run(
            &q,
            &Coverage,
            Strategy::Pi,
            stop,
            RuntimePolicy::parallel(4).with_lookahead(1),
            &RunOptions::default(),
        )
        .unwrap();
    assert_eq!(run.runtime.reports.len(), serial.reports.len());
    assert_eq!(run.runtime.answers, serial.answers);
}

#[test]
fn fixed_seed_replays_a_faulty_run_bit_for_bit() {
    let m = movie_mediator();
    let q = movie_query();
    let faults = FaultConfig::with_seed(2002).with_extra_transient_rate(0.35);
    let policy = |workers: usize| {
        RuntimePolicy::parallel(workers)
            .with_lookahead(3)
            .with_faults(faults.clone())
            .with_retry(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::standard()
            })
    };
    let runs: Vec<_> = [1, 4, 4]
        .iter()
        .map(|&w| {
            m.run(
                &q,
                &Coverage,
                Strategy::Pi,
                StopCondition::unbounded(),
                policy(w),
                &RunOptions::default(),
            )
            .unwrap()
        })
        .collect();
    assert!(
        runs[0].runtime.stats.transient_failures > 0,
        "the seed actually injects failures"
    );
    // Same seed → identical per-plan records (attempts, latencies,
    // failures, answers), whether run with 1 worker or 4, twice.
    assert_eq!(runs[0].runtime.reports, runs[1].runtime.reports);
    assert_eq!(runs[1].runtime.reports, runs[2].runtime.reports);
    assert_eq!(runs[0].runtime.answers, runs[1].runtime.answers);
    // A different seed produces a different failure trace.
    let other = m
        .run(
            &q,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            policy(4).with_faults(FaultConfig::with_seed(7).with_extra_transient_rate(0.35)),
            &RunOptions::default(),
        )
        .unwrap();
    assert_ne!(
        runs[0].runtime.reports, other.runtime.reports,
        "different seed, different trace"
    );
}

#[test]
fn flaky_sources_still_yield_the_full_answer_set() {
    // The acceptance scenario: ≥ 20% injected transient failure rate on
    // every source, yet retries recover every plan and the answer set is
    // exactly the fault-free one.
    let m = movie_mediator();
    let q = movie_query();
    let reference = m
        .answer_until(&q, &Coverage, Strategy::Pi, StopCondition::unbounded())
        .unwrap();
    let policy = RuntimePolicy::parallel(4)
        .with_faults(FaultConfig::with_seed(42).with_extra_transient_rate(0.25))
        .with_retry(RetryPolicy {
            max_attempts: 10,
            ..RetryPolicy::standard()
        });
    let run = m
        .run(
            &q,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            policy,
            &RunOptions::default(),
        )
        .unwrap();
    assert!(
        run.runtime.stats.transient_failures > 0,
        "faults actually fired"
    );
    assert_eq!(run.failed(), 0, "retries absorbed every transient failure");
    assert_eq!(run.runtime.answers, reference.answers, "full answer set");
}
