//! Differential tests for the any-k tuple stream, which a session's
//! `next_tuple` is the one source of: the sorted stream bit-equals the
//! plan-at-a-time answer multiset, the live stream is globally
//! non-increasing, and a plan that fails or is unsound is evicted before
//! its stream delivers anything — a delivered tuple is final.

use qpo_anyk::{plan_bound, AnyKMerge, ReleaseGate, ScoreBoundOrder, TupleScorer};
use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
use qpo_catalog::{Catalog, GeneratorConfig, MediatedSchema, SchemaRelation};
use qpo_core::{utility_cmp, PlanOrderer};
use qpo_datalog::{is_sound_plan, parse_query, SourceDescription, Tuple};
use qpo_exec::{
    offline_ranked_answers, ranked_join_for_plan, snapshot_relations, BackendRegistry,
    CatalogScorer, ExecutionMemo, Mediator, PreparedQuery, QuerySession, RankedTuple,
    StopCondition, Strategy,
};
use qpo_obs::Obs;
use qpo_runtime::{
    Access, AccessContext, AccessOutcome, AccessReply, BackendError, SourceBackend, SourceService,
};
use qpo_utility::{Coverage, LinearCost};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// The plans a traced session pulled, in order, as `plan_emitted` encodes
/// them.
fn pulled(obs: &Obs) -> Vec<String> {
    let jsonl = obs.journal.to_jsonl();
    let records = qpo_obs::read_jsonl(&jsonl).unwrap();
    let emitted = records.iter().filter(|r| r.kind == "plan_emitted");
    emitted
        .map(|r| r.str("plan").unwrap().to_string())
        .collect()
}

/// `offline_ranked_answers` over every plan but `skip`: each other sound
/// plan drained, each tuple kept at its best score, as `(bits, tuple)`.
fn oracle_without(m: &Mediator, prepared: &PreparedQuery, skip: &[Vec<usize>]) -> Ranked {
    let (reform, inst) = (&prepared.reformulation, &prepared.instance);
    let view_map = m.catalog().view_map();
    let mut best: BTreeMap<Tuple, f64> = BTreeMap::new();
    for plan in inst.all_plans() {
        let sound = is_sound_plan(&reform.plan_query(&plan), &view_map, &reform.query);
        if skip.contains(&plan) || !sound.unwrap_or(false) {
            continue;
        }
        let mut ranked = ranked_join_for_plan(m.database(), reform, inst, &scorer(), &plan);
        for (score, tuple) in ranked.drain() {
            let kept = best.entry(tuple).or_insert(score);
            if utility_cmp(score, *kept) == Ordering::Greater {
                *kept = score;
            }
        }
    }
    let mut ranked: Vec<(f64, Tuple)> = best.into_iter().map(|(t, s)| (s, t)).collect();
    ranked.sort_by(|a, b| utility_cmp(b.0, a.0).then_with(|| a.1.cmp(&b.1)));
    ranked.into_iter().map(|(s, t)| (s.to_bits(), t)).collect()
}

type Ranked = Vec<(u64, Tuple)>;

#[test]
fn session_stream_is_deterministic_across_orderers_modulo_sorting() {
    // Whatever the schedule, a sorted stream is the offline ranked list
    // over the plans it attached — ordering changes latency, not content.
    // A stream schedules by bound whatever the strategy, so the two
    // schedules differ in what was pulled before streaming began (and
    // never attaches).
    let m = mediator();
    let prepared = m.prepare(&movie_query()).unwrap();
    let session = |strategy, before: usize| {
        let obs = Obs::with_trace();
        let m = m.clone().with_obs(&obs);
        let mut s = QuerySession::new(&m, &prepared, &Coverage, strategy)
            .unwrap()
            .with_tuple_scorer(scorer());
        let early: Vec<Vec<usize>> = (0..before)
            .map(|_| s.next_report().unwrap().ordered.plan)
            .collect();
        let sorted = rank_sorted(s.stream_tuples().collect()).into_iter();
        let stream: Ranked = sorted.map(|rt| (rt.score.to_bits(), rt.tuple)).collect();
        drop(s);
        assert_eq!(stream, oracle_without(&m, &prepared, &early));
        pulled(&obs)
    };
    assert_ne!(session(Strategy::IDrips, 0), session(Strategy::Pi, 2));
}

#[test]
fn session_traces_with_tuples_validate_and_reach_the_board() {
    let obs = Obs::with_trace();
    let m = mediator().with_obs(&obs);
    let prepared = m.prepare(&movie_query()).unwrap();
    let mut s = QuerySession::new(&m, &prepared, &Coverage, Strategy::IDrips)
        .unwrap()
        .with_tuple_scorer(scorer());
    let stream: Vec<RankedTuple> = s.stream_tuples().collect();
    let delivered = stream.len() as u64;
    // The board carries the tuple counter.
    let entries = obs.sessions.entries();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].tuples_emitted, delivered);
    drop(s);
    // The journal carries the tuple lifecycle and still validates.
    let jsonl = obs.journal.to_jsonl();
    let report = qpo_obs::validate_trace(&jsonl).expect("tuple trace is well-formed");
    assert_eq!(report.counts["stream_attached"], 9);
    assert_eq!(report.counts["tuple_emitted"] as u64, delivered);
}

/// Serves the extensions' rows, except `v1`'s: that source is gone for
/// good.
struct V1Down(BTreeMap<String, Arc<Vec<Tuple>>>);

impl SourceBackend for V1Down {
    fn kind(&self) -> &'static str {
        "v1-down"
    }

    fn access(
        &self,
        svc: &SourceService,
        _: &AccessContext<'_>,
    ) -> Result<AccessReply, BackendError> {
        if &*svc.name == "v1" {
            return Err(BackendError::permanent("v1 is gone"));
        }
        Ok(AccessReply {
            access: Access {
                outcome: AccessOutcome::Success,
                latency: 1.0,
            },
            tuples: Some(self.0.get(&*svc.name).cloned().unwrap_or_default()),
            remote: None,
        })
    }
}

#[test]
fn failed_plan_streams_are_evicted_before_they_deliver() {
    let obs = Obs::with_trace();
    let m = mediator().with_obs(&obs);
    let rows = snapshot_relations(m.database()).into_iter();
    let rows = rows.map(|(name, rows)| (name, Arc::new(rows))).collect();
    let m = m.with_backends(BackendRegistry::new().with("v1-down", Arc::new(V1Down(rows))));
    let prepared = m.prepare(&movie_query()).unwrap();
    let mut s = QuerySession::new(&m, &prepared, &Coverage, Strategy::Pi)
        .unwrap()
        .with_backend("v1-down")
        .unwrap()
        .with_tuple_scorer(scorer());
    let stream: Vec<RankedTuple> = s.stream_tuples().collect();
    let answers = s.answers().clone();
    drop(s);
    let jsonl = obs.journal.to_jsonl();
    qpo_obs::validate_trace(&jsonl).expect("the faulted session's trace validates");
    let records = qpo_obs::read_jsonl(&jsonl).unwrap();
    // `(plan_seq, seq)` of every event of `kind`.
    let events = |kind: &str| -> Vec<(u64, u64)> {
        let of_kind = records.iter().filter(|r| &*r.kind == kind);
        of_kind
            .map(|r| (r.u64("plan_seq").unwrap(), r.seq))
            .collect()
    };
    let (failed, evicted) = (events("plan_failed"), events("stream_evicted"));
    assert!(!failed.is_empty(), "plans through v1 fail");
    for &(plan, at) in &failed {
        let evictions: Vec<u64> = evicted
            .iter()
            .filter(|e| e.0 == plan)
            .map(|e| e.1)
            .collect();
        assert_eq!(evictions.len(), 1, "one eviction for failed plan {plan}");
        assert!(
            evictions[0] > at,
            "plan {plan} evicted after its plan_failed"
        );
    }
    assert_eq!(evicted.len(), failed.len() + events("plan_unsound").len());
    // What was delivered stays delivered: no failed plan's tuple is in the
    // stream, and every tuple in it is an answer of the run.
    assert!(!stream.is_empty());
    assert!(stream
        .iter()
        .all(|rt| failed.iter().all(|f| f.0 != rt.plan_seq)));
    assert!(stream.iter().all(|rt| answers.contains(&rt.tuple)));
}

#[test]
fn mixing_plan_pulls_with_tuple_pulls_stays_sound() {
    // Pull one plan the classic way first, then stream: the pre-stream
    // plan is not in the merge and the bound schedule never pulls it
    // again, but the stream still terminates and everything it delivers
    // is a real answer.
    let obs = Obs::with_trace();
    let m = mediator().with_obs(&obs);
    let prepared = m.prepare(&movie_query()).unwrap();
    let mut s = QuerySession::new(&m, &prepared, &LinearCost, Strategy::Greedy)
        .unwrap()
        .with_tuple_scorer(scorer());
    let first = s.next_report().expect("plan space non-empty");
    assert!(first.sound);
    // That plan left the gate when streaming began: the first tuple does
    // not wait for the orderer to run dry.
    let head = s.next_tuple().expect("the later plans answer");
    assert!(s.plans_emitted() < 9, "{} of 9 pulled", s.plans_emitted());
    let stream: Vec<RankedTuple> = std::iter::once(head).chain(s.stream_tuples()).collect();
    for w in stream.windows(2) {
        assert_ne!(utility_cmp(w[1].score, w[0].score), Ordering::Greater);
    }
    let answers = s.answers().clone();
    assert!(stream.iter().all(|rt| answers.contains(&rt.tuple)));
    assert_eq!(s.plans_emitted(), 9, "every plan pulled, none twice");
    drop(s);
    let pulled = pulled(&obs);
    let first = qpo_obs::encode_plan(&first.ordered.plan);
    assert_eq!(pulled[0], first);
    assert!(!pulled[1..].contains(&first), "{pulled:?}");
}

const STAR_UNIVERSE: u64 = 40;

/// The shape `bench_e2e`'s `anyk-stream` serves: a 3-subgoal star,
/// 4 fragment views per subgoal, generated statistics.
fn star_mediator(seed: u64) -> Mediator {
    let inst = GeneratorConfig::new(3, 4)
        .with_overlap_rate(0.3)
        .with_seed(seed)
        .with_universe(STAR_UNIVERSE)
        .build();
    let relations = (0..3).map(|b| SchemaRelation::new(format!("r{b}"), 2));
    let mut catalog = Catalog::new(MediatedSchema::with_relations(relations));
    for (b, bucket) in inst.buckets.iter().enumerate() {
        for (i, stats) in bucket.iter().enumerate() {
            let mut stats = stats.clone();
            stats.name = None;
            let view = parse_query(&format!("v{b}_{i}(A, B) :- r{b}(A, B)")).unwrap();
            catalog
                .add_source(SourceDescription::new(view), stats)
                .unwrap();
        }
    }
    Mediator::new(catalog, STAR_UNIVERSE, &["k"])
}

#[test]
fn the_data_aware_gate_keeps_the_star_stream_exact_and_releases_sooner() {
    let m = star_mediator(2002);
    let query = parse_query("q(X0, X1, X2) :- r0(K, X0), r1(K, X1), r2(K, X2)").unwrap();
    let prepared = m.prepare(&query).unwrap();
    let (reform, inst) = (&prepared.reformulation, &prepared.instance);
    assert_eq!(inst.plan_count(), 64);
    let sc = CatalogScorer::new(STAR_UNIVERSE).with_jitter(0.25);
    let view_map = m.catalog().view_map();
    let oracle: Vec<(u64, qpo_datalog::Tuple)> =
        offline_ranked_answers(m.database(), reform, &view_map, inst, &sc)
            .into_iter()
            .map(|(score, tuple)| (score.to_bits(), tuple))
            .collect();
    assert!(oracle.len() > 100);
    let exact = |stream: Vec<RankedTuple>, what: &str| {
        for w in stream.windows(2) {
            assert_ne!(utility_cmp(w[1].score, w[0].score), Ordering::Greater);
        }
        let sorted: Vec<_> = rank_sorted(stream)
            .into_iter()
            .map(|rt| (rt.score.to_bits(), rt.tuple))
            .collect();
        assert!(sorted == oracle, "{what} differs from the offline oracle");
    };

    // The emission order the catalog-only gate below replays: a streaming
    // session schedules best-first by catalog bound, whatever strategy it
    // was opened with.
    let table = inst.buckets.iter().enumerate().map(|(b, bucket)| {
        let bounds = bucket.iter().map(|stats| sc.atom_bound(b, stats));
        bounds.collect()
    });
    let emitted: Vec<Vec<usize>> = ScoreBoundOrder::new(ReleaseGate::new(table.collect()))
        .order_k(inst.plan_count())
        .into_iter()
        .map(|o| o.plan)
        .collect();

    // The session, without and with a memo (cold, then warm).
    let memo = ExecutionMemo::new();
    let (mut first_tuple_at, mut hundred_at) = (Vec::new(), Vec::new());
    for memo in [None, Some(&memo), Some(&memo)] {
        let obs = Obs::new();
        let m = m.clone().with_obs(&obs);
        let prepared = m.prepare(&query).unwrap();
        let mut s = QuerySession::new(&m, &prepared, &Coverage, Strategy::IDrips)
            .unwrap()
            .with_tuple_scorer(sc);
        if let Some(memo) = memo {
            s = s.with_memo(memo);
        }
        let head = s.next_tuple().expect("the star answers");
        first_tuple_at.push(s.plans_emitted());
        let board = obs.sessions.entries();
        assert_eq!(
            board[0].plans_before_first_tuple,
            Some(first_tuple_at[0] as u64)
        );
        let mut stream = vec![head];
        stream.extend(s.stream_tuples().take(99));
        hundred_at.push(s.plans_emitted());
        stream.extend(s.stream_tuples());
        match memo {
            None => assert_eq!(s.memo_hits(), 0, "private levels are not memo hits"),
            Some(_) => assert!(s.memo_hits() > 0),
        }
        let registry = &obs.registry;
        let recorded = registry.histogram("qpo_anyk_plans_before_first_tuple", &[]);
        assert_eq!(
            (recorded.count(), recorded.sum()),
            (1, first_tuple_at[0] as f64)
        );
        exact(stream, "session stream");
    }

    // What the catalog-only gate needed on the same emission order:
    // every plan not attached yet holds the gate at its `plan_bound`.
    let bounded = |plan: Vec<usize>| {
        let bound = plan_bound(&sc, inst, &plan);
        (plan, bound)
    };
    let mut remaining: std::collections::BTreeMap<Vec<usize>, f64> =
        inst.all_plans().into_iter().map(bounded).collect();
    let mut merge = AnyKMerge::new();
    let mut catalog_only = 0;
    for (seq, plan) in emitted.iter().enumerate() {
        let gate = remaining
            .values()
            .copied()
            .max_by(|a, b| utility_cmp(*a, *b));
        if merge.next_within(gate).is_some() {
            break;
        }
        remaining.remove(plan);
        let ranked = ranked_join_for_plan(m.database(), reform, inst, &sc, plan);
        merge.attach(seq as u64, plan.clone(), Box::new(ranked));
        catalog_only += 1;
    }
    assert_eq!(first_tuple_at, [FIRST_TUPLE_AT; 3]);
    assert_eq!(hundred_at, [HUNDRED_TUPLES_AT; 3]);
    assert!(
        FIRST_TUPLE_AT < catalog_only,
        "catalog-only gate released after {catalog_only} plans"
    );
}

/// Plans the star session at seed 2002 pulls before its first tuple
/// (45 when it pulled them in Coverage + iDrips order).
const FIRST_TUPLE_AT: usize = 2;

/// Plans the star session at seed 2002 pulls for its first 100 tuples,
/// what `bench_e2e`'s `anyk-stream` asks of a query.
const HUNDRED_TUPLES_AT: usize = 10;

/// The 100-tuple star query `bench_e2e`'s `anyk-stream` serves: its
/// plans are joined once, by their ranked streams. No `plan_completed`
/// carries tuple counts and `run_finished` no answer count, until
/// `answers()` joins them all — once: a session that read it once seals
/// its run with the answer count, so a second read had nothing to join.
#[test]
fn a_streamed_plan_is_joined_only_when_the_answers_are_read() {
    let obs = Obs::with_trace();
    let m = star_mediator(2002).with_obs(&obs);
    let query = parse_query("q(X0, X1, X2) :- r0(K, X0), r1(K, X1), r2(K, X2)").unwrap();
    let prepared = m.prepare(&query).unwrap();
    let open = || {
        let sc = CatalogScorer::new(STAR_UNIVERSE).with_jitter(0.25);
        QuerySession::new(&m, &prepared, &Coverage, Strategy::IDrips)
            .unwrap()
            .with_tuple_scorer(sc)
    };
    let mut streamed = open();
    assert_eq!(streamed.stream_tuples().take(100).count(), 100);
    drop(streamed);
    let mut read = open();
    let stream: Vec<RankedTuple> = read.stream_tuples().take(100).collect();
    let answers = read.answers().clone();
    assert_eq!(read.answers(), &answers, "a second read joins nothing new");
    assert!(stream.iter().all(|rt| answers.contains(&rt.tuple)));
    drop(read);
    let jsonl = obs.journal.to_jsonl();
    qpo_obs::validate_trace(&jsonl).expect("the streamed trace validates");
    let records = qpo_obs::read_jsonl(&jsonl).unwrap();
    let completed = records.iter().filter(|r| &*r.kind == "plan_completed");
    let mut plans = 0;
    for record in completed {
        plans += 1;
        for field in ["tuples", "new_tuples", "cumulative"] {
            assert!(
                record.get(field).is_none(),
                "plan_completed carries {field}"
            );
        }
    }
    assert_eq!(plans, 2 * HUNDRED_TUPLES_AT, "every pulled plan executed");
    let sealed: Vec<Option<u64>> = (records.iter())
        .filter(|r| &*r.kind == "run_finished")
        .map(|r| r.u64("answers"))
        .collect();
    assert_eq!(sealed, [None, Some(answers.len() as u64)]);
}
