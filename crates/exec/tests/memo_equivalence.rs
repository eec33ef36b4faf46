//! Differential contract of the shared-execution memo (DESIGN.md §
//! "Shared execution memo"): a memoized run is *bit-identical* to an
//! unmemoized one in everything the caller observes — plan emission
//! order, utility bits, soundness verdicts, statuses and answers — under
//! any worker count, cold or warm (the memoized ranked tuple stream is a
//! session's, pinned in `compose.rs`). Only the
//! work shrinks: warm source accesses replay with zero attempts, and
//! seeded joins skip the shared prefix. Fault injection is never masked:
//! only terminal outcomes (success, permanent failure) are memoized, so
//! a plan the baseline failed on exhausted transient retries is at worst
//! *recovered* by the memo, never the other way around.

use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
use qpo_exec::{ExecutionMemo, Mediator, RunOptions, StopCondition, Strategy};
use qpo_obs::Obs;
use qpo_runtime::{FaultConfig, PlanStatus, RuntimePolicy};
use qpo_utility::{Coverage, LinearCost};

fn mediator() -> Mediator {
    Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"])
}

/// Everything the caller observes about a run, *except* the per-source
/// access records — memo hits legitimately replay with zero attempts and
/// zero latency, so raw access vectors differ between memoized and
/// unmemoized runs by design.
fn observable(run: &qpo_exec::ConcurrentRun) -> Vec<(Vec<usize>, u64, PlanStatus)> {
    run.runtime
        .reports
        .iter()
        .map(|r| {
            (
                r.ordered.plan.clone(),
                r.ordered.utility.to_bits(),
                r.status.clone(),
            )
        })
        .collect()
}

#[test]
fn cold_memoized_run_matches_unmemoized_across_worker_counts() {
    let m = mediator();
    let q = movie_query();
    let baseline = m
        .run(
            &q,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            RuntimePolicy::serial(),
            &RunOptions::default(),
        )
        .unwrap();
    let mut memoized_reports = Vec::new();
    for workers in [1, 4, 8] {
        let memo = ExecutionMemo::new(); // fresh: every run starts cold
        let obs = Obs::new();
        let run = m
            .run(
                &q,
                &Coverage,
                Strategy::Pi,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(workers).with_lookahead(3),
                &RunOptions {
                    memo: Some(&memo),
                    obs: Some(&obs),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(
            observable(&run),
            observable(&baseline),
            "workers={workers}: memoized run diverges from baseline"
        );
        assert_eq!(run.runtime.answers, baseline.runtime.answers);
        assert!(
            run.runtime.stats.memo_hits > 0,
            "plans share sources, so even a cold run hits"
        );
        assert!(
            run.runtime.stats.attempts < baseline.runtime.stats.attempts,
            "memo saves live accesses: {} vs {}",
            run.runtime.stats.attempts,
            baseline.runtime.stats.attempts
        );
        let subplan_hits = obs
            .registry
            .counter_value("qpo_memo_hits_total", &[("layer", "subplan")]);
        assert!(subplan_hits > 0, "plans share join prefixes");
        memoized_reports.push(run.runtime.reports);
    }
    // The memoized runs themselves are bit-equal across worker counts —
    // including the access records, since all memo decisions happen on
    // the coordinator thread.
    assert_eq!(memoized_reports[0], memoized_reports[1]);
    assert_eq!(memoized_reports[1], memoized_reports[2]);
}

#[test]
fn warm_memo_serves_a_second_run_without_live_accesses() {
    let m = mediator();
    let q = movie_query();
    let memo = ExecutionMemo::new();
    let run = |workers: usize| {
        m.run(
            &q,
            &LinearCost,
            Strategy::Greedy,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(workers),
            &RunOptions {
                memo: Some(&memo),
                obs: Some(&Obs::new()),
                ..RunOptions::default()
            },
        )
        .unwrap()
    };
    let cold = run(2);
    assert!(cold.runtime.stats.attempts > 0, "cold run touches sources");
    let warm = run(4);
    assert_eq!(warm.runtime.stats.attempts, 0, "warm run is all replay");
    assert_eq!(warm.runtime.answers, cold.runtime.answers);
    assert_eq!(observable(&warm), observable(&cold));
    // Every sound plan of the warm run seeds from its own full-length
    // memoized prefix (stored by the cold run).
    assert!(!memo.subplans.is_empty());
    assert!(memo.approx_bytes() > 0);
}

#[test]
fn permanent_failures_replay_without_masking() {
    let m = mediator();
    let q = movie_query();
    let faults = FaultConfig::with_seed(1).with_source_down("v1");
    let policy = |workers: usize| RuntimePolicy::parallel(workers).with_faults(faults.clone());
    let baseline = m
        .run(
            &q,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            policy(3),
            &RunOptions::default(),
        )
        .unwrap();
    assert!(baseline.failed() > 0, "v1 plans fail in the baseline");
    let memo = ExecutionMemo::new();
    let cold = m
        .run(
            &q,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            policy(3),
            &RunOptions {
                memo: Some(&memo),
                obs: Some(&Obs::new()),
                ..RunOptions::default()
            },
        )
        .unwrap();
    // Same failures, same survivors, same answers — the memo replays the
    // permanent failure instead of hiding it.
    assert_eq!(observable(&cold), observable(&baseline));
    assert_eq!(cold.runtime.answers, baseline.runtime.answers);
    // Warm: the downed source's failure is served from cache, still
    // failing every plan through it. (Same policy: lookahead changes
    // feedback timing for context-sensitive measures, which is run
    // semantics — orthogonal to the memo.)
    let warm = m
        .run(
            &q,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            policy(3),
            &RunOptions {
                memo: Some(&memo),
                obs: Some(&Obs::new()),
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert_eq!(observable(&warm), observable(&baseline));
    assert_eq!(warm.runtime.stats.attempts, 0, "warm failures replay too");
}

#[test]
fn exhausted_transient_retries_are_never_cached() {
    // Aggressive transient faults with a single attempt: some baseline
    // plans fail on bad rolls. The memo only caches terminal outcomes, so
    // a memoized run can *recover* plans (a cached success replays where
    // the baseline re-rolled and lost) but never fail a plan the baseline
    // executed.
    let m = mediator();
    let q = movie_query();
    let policy = RuntimePolicy::parallel(2)
        .with_faults(FaultConfig::with_seed(99).with_extra_transient_rate(0.3))
        .with_max_attempts(1);
    let baseline = m
        .run(
            &q,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            policy.clone(),
            &RunOptions::default(),
        )
        .unwrap();
    assert!(baseline.failed() > 0, "the seed actually fails plans");
    let memo = ExecutionMemo::new();
    let run = m
        .run(
            &q,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            policy,
            &RunOptions {
                memo: Some(&memo),
                obs: Some(&Obs::new()),
                ..RunOptions::default()
            },
        )
        .unwrap();
    let executed = |r: &qpo_exec::ConcurrentRun| -> Vec<Vec<usize>> {
        r.runtime
            .reports
            .iter()
            .filter(|p| matches!(p.status, PlanStatus::Executed { .. }))
            .map(|p| p.ordered.plan.clone())
            .collect()
    };
    let base_ok = executed(&baseline);
    let memo_ok = executed(&run);
    for plan in &base_ok {
        assert!(
            memo_ok.contains(plan),
            "plan {plan:?} executed in the baseline but failed memoized"
        );
    }
    assert!(run.runtime.answers.len() >= baseline.runtime.answers.len());
}

#[test]
fn memoized_trace_validates_with_memo_events() {
    let m = mediator();
    let q = movie_query();
    let memo = ExecutionMemo::new();
    let obs = Obs::with_trace();
    for workers in [2, 4] {
        m.run(
            &q,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(workers),
            &RunOptions {
                memo: Some(&memo),
                obs: Some(&obs),
                ..RunOptions::default()
            },
        )
        .unwrap();
    }
    let report = qpo_obs::validate_trace(&obs.journal.to_jsonl()).expect("memoized trace is sound");
    assert!(report.count("memo_store") > 0, "cold run stores outcomes");
    assert!(report.count("memo_hit") > 0, "repeated coordinates hit");
    assert!(report.count("subplan_reused") > 0, "prefixes seed plans");
    assert_eq!(report.spans_opened, report.spans_closed);
}

#[test]
fn subplan_byte_budget_bounds_retention_without_changing_results() {
    // A budget too small for any prefix: every store is refused, every
    // lookup misses — and the runs are still bit-identical to the
    // baseline, because seeding is a pure optimization.
    let m = mediator();
    let q = movie_query();
    let baseline = m
        .run(
            &q,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            RuntimePolicy::serial(),
            &RunOptions::default(),
        )
        .unwrap();
    let memo = ExecutionMemo::new();
    memo.subplans.set_byte_budget(1);
    for _ in 0..2 {
        let run = m
            .run(
                &q,
                &Coverage,
                Strategy::Pi,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(4),
                &RunOptions {
                    memo: Some(&memo),
                    obs: Some(&Obs::new()),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(observable(&run), observable(&baseline));
        assert_eq!(run.runtime.answers, baseline.runtime.answers);
    }
    assert!(memo.subplans.is_empty(), "nothing fits under a 1-byte cap");
    assert!(memo.subplans.approx_bytes() <= 1);
    // The source memo is unaffected by the subplan budget: the second
    // run still replays accesses.
    assert!(memo.sources.approx_bytes() > 0);
}

#[test]
fn a_memoized_speculative_run_preserves_the_run_semantics() {
    // A memo under a four-plan speculation window changes what is
    // accessed, never what is emitted: the plan sequence and the answers
    // are the serial, memo-less run's, and utilities never increase.
    let m = mediator();
    let q = movie_query();
    let baseline = m
        .run(
            &q,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            RuntimePolicy::serial(),
            &RunOptions::default(),
        )
        .unwrap();
    let memo = ExecutionMemo::new();
    let run = m
        .run(
            &q,
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(4).with_lookahead(4),
            &RunOptions {
                memo: Some(&memo),
                obs: Some(&Obs::new()),
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert_eq!(run.emitted_plans(), baseline.emitted_plans());
    assert_eq!(run.runtime.answers, baseline.runtime.answers);
    let utilities: Vec<f64> = run
        .runtime
        .reports
        .iter()
        .map(|r| r.ordered.utility)
        .collect();
    for w in utilities.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-9,
            "strict dominance crossed: {} before {}",
            w[0],
            w[1]
        );
    }
}
