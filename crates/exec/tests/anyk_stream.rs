//! Differential and determinism tests for the any-k tuple stream: the
//! sorted stream bit-equals the plan-at-a-time answer multiset, the live
//! stream is globally non-increasing, the emitted order is byte-identical
//! across worker counts, and retraction journals exactly the evicted
//! stream's contributions.

use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
use qpo_core::utility_cmp;
use qpo_exec::{
    offline_ranked_answers, CatalogScorer, Mediator, QuerySession, RankedTuple, RunOptions,
    StopCondition, Strategy,
};
use qpo_obs::Obs;
use qpo_runtime::{FaultConfig, PlanStatus, RuntimePolicy};
use qpo_utility::{Coverage, LinearCost};
use std::cmp::Ordering;

fn mediator() -> Mediator {
    Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"])
}

fn scorer() -> CatalogScorer {
    // Jitter makes ranks fact-sensitive so the stream order is a real
    // claim, not a wall of ties.
    CatalogScorer::new(MOVIE_UNIVERSE).with_jitter(0.25)
}

/// Sorts (score, tuple) pairs the way the offline oracle does.
fn rank_sorted(mut items: Vec<RankedTuple>) -> Vec<RankedTuple> {
    items.sort_by(|a, b| utility_cmp(b.score, a.score).then_with(|| a.tuple.cmp(&b.tuple)));
    items
}

#[test]
fn serial_stream_bit_equals_the_plan_level_answer_multiset() {
    let m = mediator();
    let prepared = m.prepare(&movie_query()).unwrap();
    let mut s = QuerySession::new(&m, &prepared, &Coverage, Strategy::IDrips)
        .unwrap()
        .with_tuple_scorer(scorer());
    let stream: Vec<RankedTuple> = s.stream_tuples().collect();
    assert!(!stream.is_empty());
    // Live stream is globally non-increasing, bit for bit.
    for w in stream.windows(2) {
        assert_ne!(
            utility_cmp(w[1].score, w[0].score),
            Ordering::Greater,
            "{} then {}",
            w[0].score,
            w[1].score
        );
    }
    // The distinct delivered tuples are exactly the plan-at-a-time union.
    let reference = m
        .answer_until(
            &movie_query(),
            &Coverage,
            Strategy::IDrips,
            StopCondition::unbounded(),
        )
        .unwrap();
    let delivered: std::collections::BTreeSet<_> =
        stream.iter().map(|rt| rt.tuple.clone()).collect();
    assert_eq!(delivered, reference.answers);
    assert_eq!(delivered.len(), stream.len(), "each answer delivered once");
    // Sorted, the stream bit-equals the offline exact ranked list:
    // every tuple at its maximum score across sound plans.
    let sc = scorer();
    let oracle = offline_ranked_answers(
        m.database(),
        &prepared.reformulation,
        &m.catalog().view_map(),
        &prepared.instance,
        &sc,
    );
    let sorted = rank_sorted(stream);
    assert_eq!(sorted.len(), oracle.len());
    for (got, (score, tuple)) in sorted.iter().zip(&oracle) {
        assert_eq!(got.score.to_bits(), score.to_bits());
        assert_eq!(&got.tuple, tuple);
    }
}

#[test]
fn session_stream_is_deterministic_across_orderers_modulo_sorting() {
    // Different plan orders deliver the same ranked answer list once
    // sorted — ordering changes latency, not content.
    let m = mediator();
    let prepared = m.prepare(&movie_query()).unwrap();
    let mut a = QuerySession::new(&m, &prepared, &Coverage, Strategy::IDrips)
        .unwrap()
        .with_tuple_scorer(scorer());
    let mut b = QuerySession::new(&m, &prepared, &Coverage, Strategy::Pi)
        .unwrap()
        .with_tuple_scorer(scorer());
    let sa = rank_sorted(a.stream_tuples().collect());
    let sb = rank_sorted(b.stream_tuples().collect());
    let key = |v: &[RankedTuple]| -> Vec<(u64, Vec<qpo_datalog::Constant>)> {
        v.iter()
            .map(|rt| (rt.score.to_bits(), rt.tuple.clone()))
            .collect()
    };
    assert_eq!(key(&sa), key(&sb));
}

#[test]
fn session_traces_with_tuples_validate_and_reach_the_board() {
    let obs = Obs::with_trace();
    let m = mediator().with_obs(&obs);
    let prepared = m.prepare(&movie_query()).unwrap();
    let mut s = QuerySession::new(&m, &prepared, &Coverage, Strategy::IDrips)
        .unwrap()
        .with_tuple_scorer(scorer())
        .with_tuple_quality(true);
    let stream: Vec<RankedTuple> = s.stream_tuples().collect();
    let delivered = stream.len() as u64;
    // Tuple-level quality: mass is the left-to-right score sum, and an
    // exact stream trails the offline exact list by nothing.
    let snap = s.tuple_quality().expect("tuple quality enabled");
    assert_eq!(snap.points.len(), stream.len());
    let mass: f64 = stream.iter().fold(0.0, |a, rt| a + rt.score);
    assert_eq!(snap.mass.to_bits(), mass.to_bits());
    assert!(snap.regret.abs() < 1e-9, "regret {}", snap.regret);
    let g = obs
        .registry
        .gauge("qpo_session_tuple_mass", &[("strategy", "idrips")]);
    assert_eq!(g.get().to_bits(), snap.mass.to_bits());
    // The board carries the tuple counters and curve.
    let entries = obs.sessions.entries();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].tuples_emitted, delivered);
    assert_eq!(entries[0].tuple_curve.len(), stream.len());
    assert_eq!(entries[0].tuple_mass, Some(snap.mass));
    drop(s);
    // The journal carries the tuple lifecycle and still validates.
    let jsonl = obs.journal.to_jsonl();
    let report = qpo_obs::validate_trace(&jsonl).expect("tuple trace is well-formed");
    assert_eq!(report.counts["stream_attached"], 9);
    assert_eq!(report.counts["tuple_emitted"] as u64, delivered);
    assert_eq!(report.counts["tuple_quality_sample"] as u64, delivered);
}

#[test]
fn concurrent_stream_matches_the_serial_session_stream() {
    let m = mediator();
    let obs = Obs::new();
    let sc = scorer();
    let run = m
        .run(
            &movie_query(),
            &Coverage,
            Strategy::IDrips,
            StopCondition::unbounded(),
            RuntimePolicy::serial(),
            &RunOptions {
                scorer: Some(&sc),
                obs: Some(&obs),
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert!(run.retracted.is_empty(), "no faults, nothing retracts");
    let prepared = m.prepare(&movie_query()).unwrap();
    let mut s = QuerySession::new(&m, &prepared, &Coverage, Strategy::IDrips)
        .unwrap()
        .with_tuple_scorer(scorer());
    let serial: Vec<RankedTuple> = s.stream_tuples().collect();
    let key = |v: &[RankedTuple]| -> Vec<(u64, Vec<qpo_datalog::Constant>)> {
        v.iter()
            .map(|rt| (rt.score.to_bits(), rt.tuple.clone()))
            .collect()
    };
    assert_eq!(key(&run.tuples), key(&serial));
}

#[test]
fn concurrent_stream_is_byte_identical_across_worker_counts() {
    let runs: Vec<(Vec<RankedTuple>, String)> = [1usize, 4, 8]
        .into_iter()
        .map(|workers| {
            let m = mediator();
            let obs = Obs::with_trace();
            let sc = scorer();
            let run = m
                .run(
                    &movie_query(),
                    &Coverage,
                    Strategy::IDrips,
                    StopCondition::unbounded(),
                    RuntimePolicy::parallel(workers).with_lookahead(4),
                    &RunOptions {
                        scorer: Some(&sc),
                        obs: Some(&obs),
                        ..RunOptions::default()
                    },
                )
                .unwrap();
            qpo_obs::validate_trace(&obs.journal.to_jsonl()).expect("trace validates");
            (run.tuples, obs.journal.to_jsonl())
        })
        .collect();
    let key = |v: &[RankedTuple]| -> Vec<(u64, u64, Vec<usize>)> {
        v.iter()
            .map(|rt| (rt.score.to_bits(), rt.plan_seq, rt.plan.clone()))
            .collect()
    };
    assert!(!runs[0].0.is_empty());
    assert!(runs[0].1.contains("tuple_emitted"));
    assert!(runs[0].1.contains("stream_attached"));
    for (tuples, jsonl) in &runs[1..] {
        assert_eq!(key(tuples), key(&runs[0].0), "emission order differs");
        assert_eq!(jsonl, &runs[0].1, "trace bytes differ across workers");
    }
}

#[test]
fn failed_plan_streams_are_evicted_and_their_tuples_retracted() {
    let m = mediator();
    let obs = Obs::with_trace();
    let sc = scorer();
    let faults = FaultConfig::with_seed(1).with_source_down("v1");
    let run = m
        .run(
            &movie_query(),
            &Coverage,
            Strategy::Pi,
            StopCondition::unbounded(),
            RuntimePolicy::parallel(3)
                .with_lookahead(3)
                .with_faults(faults),
            &RunOptions {
                scorer: Some(&sc),
                obs: Some(&obs),
                ..RunOptions::default()
            },
        )
        .unwrap();
    let failed: Vec<u64> = run
        .runtime
        .reports
        .iter()
        .filter(|r| !matches!(r.status, PlanStatus::Executed { .. }))
        .map(|r| r.seq)
        .collect();
    assert!(!failed.is_empty(), "v1 plans fail");
    let jsonl = obs.journal.to_jsonl();
    qpo_obs::validate_trace(&jsonl).expect("faulted trace validates");
    assert_eq!(
        jsonl.matches("\"kind\":\"stream_evicted\"").count(),
        failed.len(),
        "one eviction per failed plan"
    );
    // Retractions are attributed to failed plans only, and every tuple
    // still live in the final stream comes from a surviving plan.
    assert!(run.retracted.iter().all(|rt| failed.contains(&rt.plan_seq)));
    assert!(run
        .tuples
        .iter()
        .filter(|rt| !run.retracted.contains(rt))
        .all(|rt| !failed.contains(&rt.plan_seq)));
    // The deterministic answers all arrive despite the faults: union of
    // surviving plans equals the runtime's answer set.
    let live: std::collections::BTreeSet<_> = run
        .tuples
        .iter()
        .filter(|rt| !run.retracted.contains(rt))
        .map(|rt| rt.tuple.clone())
        .collect();
    assert!(live.iter().all(|t| run.runtime.answers.contains(t)));
}

#[test]
fn mixing_plan_pulls_with_tuple_pulls_stays_sound() {
    // Pull one plan the classic way first, then stream: the pre-stream
    // plan is not in the merge, but the stream still terminates and
    // everything it delivers is a real answer.
    let m = mediator();
    let prepared = m.prepare(&movie_query()).unwrap();
    let mut s = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy)
        .unwrap()
        .with_tuple_scorer(scorer());
    let first = s.next_report().expect("plan space non-empty");
    assert!(first.sound);
    let stream: Vec<RankedTuple> = s.stream_tuples().collect();
    for w in stream.windows(2) {
        assert_ne!(utility_cmp(w[1].score, w[0].score), Ordering::Greater);
    }
    let answers = s.answers().clone();
    assert!(stream.iter().all(|rt| answers.contains(&rt.tuple)));
}
