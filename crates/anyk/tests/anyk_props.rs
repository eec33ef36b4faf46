//! Property tests for the cross-plan any-k merge: global order, attach
//! permutation invariance, and eviction's surgical precision under
//! arbitrary per-stream score sequences — for the release gate: the lazy
//! walk of the plan product against the brute-force maximum, and the same
//! walk as a best-bound-first schedule — and for the positional ranked
//! join against its named-row twin (`support`).

mod support;

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use qpo_anyk::{
    plan_bound, AnyKMerge, CatalogScorer, LevelCache, RankedJoin, RankedTuple, ReleaseGate,
    TupleScorer, TupleStream, VecStream,
};
use qpo_catalog::GeneratorConfig;
use qpo_core::utility_cmp;
use qpo_datalog::{Atom, ConjunctiveQuery, Constant, Database, Term, Tuple};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use support::ReferenceJoin;

/// Builds one plan's stream from raw scores; the tuple payload encodes
/// (plan id, item index) so every stream contributes distinct answers.
fn stream(plan_id: usize, scores: &[f64]) -> Box<dyn TupleStream> {
    let items: Vec<(f64, Tuple)> = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            (
                s,
                vec![Constant::int(plan_id as i64), Constant::int(i as i64)],
            )
        })
        .collect();
    Box::new(VecStream::ranked(items))
}

/// Attaches `streams[i]` under plan_seq `i` / plan `[i]` in the order
/// `order` prescribes, then drains without a bound.
fn drain_in_order(streams: &[Vec<f64>], order: &[usize]) -> Vec<RankedTuple> {
    let mut merge = AnyKMerge::new();
    for &i in order {
        merge.attach(i as u64, vec![i], stream(i, &streams[i]));
    }
    std::iter::from_fn(|| merge.next_within(None)).collect()
}

fn scores() -> impl Strategy<Value = Vec<f64>> {
    pvec(-100.0f64..100.0, 0..8)
}

/// Value code → value: three ints and three strings.
fn value(code: u8) -> Constant {
    match code {
        0..=2 => Constant::int(i64::from(code)),
        _ => Constant::str(["a", "b", "c"][usize::from(code - 3) % 3]),
    }
}

/// Variable names, drawn so a fresh variable's name often sorts against
/// its first occurrence (`r(Y, X)`).
const VARS: [&str; 5] = ["Y", "X", "W", "B", "Z"];

/// Term code → term: a variable below 5, else one of three constants.
fn term(code: u8) -> Term {
    match code {
        0..=4 => Term::var(VARS[usize::from(code)]),
        _ => Term::Const(value((code - 5) * 2)),
    }
}

/// Relations `r0..r2`: an arity (1–3) each, facts at that arity, and a few
/// at the wrong one.
type Relations = Vec<(usize, Vec<Vec<u8>>, Vec<Vec<u8>>)>;

fn relations() -> impl Strategy<Value = Relations> {
    let facts = pvec(pvec(0u8..6, 3), 0..10);
    pvec((1usize..4, facts, pvec(pvec(0u8..6, 4), 0..3)), 3)
}

fn database(relations: &Relations) -> Database {
    let mut db = Database::new();
    for (r, (arity, facts, odd)) in relations.iter().enumerate() {
        let wrong = arity % 3 + 1;
        let sized = facts.iter().map(|f| &f[..*arity]);
        for fact in sized.chain(odd.iter().map(|f| &f[..wrong])) {
            db.insert(format!("r{r}"), fact.iter().copied().map(value).collect());
        }
    }
    db
}

/// A safe query over `relations`: body atoms of the relations' arities
/// (constants, repeated variables), and a head of body variables and
/// constants (projected, repeated, or empty).
fn query(relations: &Relations, body: &[(usize, Vec<u8>)], head: &[u8]) -> ConjunctiveQuery {
    let body: Vec<Atom> = (body.iter())
        .map(|(r, codes)| {
            let terms = codes[..relations[*r].0].iter().copied().map(term);
            Atom::new(format!("r{r}"), terms.collect())
        })
        .collect();
    let vars: Vec<Term> = (body.iter().flat_map(Atom::variables))
        .map(Term::Var)
        .collect();
    let head = (head.iter()).map(|&c| match vars.get(usize::from(c) % vars.len().max(1)) {
        Some(v) if c < 5 => v.clone(),
        _ => Term::Const(value(c % 6)),
    });
    ConjunctiveQuery::new(Atom::new("q", head.collect()), body)
}

/// Few-valued scores per `(atom, fact)`: ties are the rule, not the exception.
fn tied_score(levels: &[f64]) -> impl Fn(usize, &Tuple) -> f64 + '_ {
    move |ai, fact| {
        let weight = |c: &Constant| match c {
            Constant::Int(i) => *i as usize,
            Constant::Str(s) => s.len() + usize::from(s.as_bytes()[0]),
        };
        levels[(ai + fact.iter().map(weight).sum::<usize>()) % levels.len()]
    }
}

fn bits(stream: Vec<(f64, Tuple)>) -> Vec<(u64, Tuple)> {
    stream.into_iter().map(|(s, t)| (s.to_bits(), t)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The merged output is globally non-increasing for arbitrary
    /// per-stream score multisets.
    #[test]
    fn merge_output_is_non_increasing(streams in pvec(scores(), 1..5)) {
        let order: Vec<usize> = (0..streams.len()).collect();
        let out = drain_in_order(&streams, &order);
        let total: usize = streams.iter().map(Vec::len).sum();
        prop_assert_eq!(out.len(), total, "distinct payloads all surface");
        for w in out.windows(2) {
            prop_assert_ne!(
                utility_cmp(w[1].score, w[0].score),
                Ordering::Greater,
                "scores must not increase: {} then {}", w[0].score, w[1].score
            );
        }
    }

    /// Permuting attach order never changes the emitted sequence — ties
    /// break on encodings, not on arrival.
    #[test]
    fn attach_order_never_changes_the_stream(
        streams in pvec(scores(), 2..5),
        seed in 0u64..1000,
    ) {
        let n = streams.len();
        let forward: Vec<usize> = (0..n).collect();
        // A deterministic permutation derived from the seed.
        let mut permuted = forward.clone();
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            permuted.swap(i, (state as usize) % (i + 1));
        }
        let a = drain_in_order(&streams, &forward);
        let b = drain_in_order(&streams, &permuted);
        prop_assert_eq!(a, b);
    }

    /// Evicting one stream removes exactly its pending tuples: the other
    /// streams' deliveries are untouched.
    #[test]
    fn eviction_removes_exactly_the_victims_pending(
        streams in pvec(scores(), 2..5),
        victim_pick in 0usize..64,
        pulls in 0usize..12,
    ) {
        let victim = victim_pick % streams.len();
        let mut merge = AnyKMerge::new();
        for (i, s) in streams.iter().enumerate() {
            merge.attach(i as u64, vec![i], stream(i, s));
        }
        let mut before: Vec<RankedTuple> = Vec::new();
        for _ in 0..pulls {
            match merge.next_within(None) {
                Some(rt) => before.push(rt),
                None => break,
            }
        }
        merge.evict(victim as u64);
        // The rest of the stream carries no victim tuples and matches the
        // victim-free run's tail exactly.
        let after: Vec<RankedTuple> = std::iter::from_fn(|| merge.next_within(None)).collect();
        prop_assert!(after.iter().all(|rt| rt.plan_seq != victim as u64));
        let mut reference = AnyKMerge::new();
        for (i, s) in streams.iter().enumerate() {
            if i != victim {
                reference.attach(i as u64, vec![i], stream(i, s));
            }
        }
        let reference_all: Vec<RankedTuple> =
            std::iter::from_fn(|| reference.next_within(None)).collect();
        let expected_tail: Vec<RankedTuple> = reference_all
            .into_iter()
            .filter(|rt| !before.contains(rt))
            .collect();
        prop_assert_eq!(after, expected_tail);
    }

    /// Under any interleaving of tightenings and departures the gate is,
    /// to the bit, the best key among the plans still in: it never rises,
    /// never drops below a score such a plan can really produce, and is
    /// gone exactly when the last plan is.
    #[test]
    fn gate_is_the_brute_force_maximum_over_the_plans_still_in(
        table in pvec(pvec(-4.0f64..4.0, 1..4), 1..4),
        slack in pvec(0.0f64..3.0, 9),
        ops in pvec((0usize..1000, 0usize..1000, 0.0f64..1.0), 0..40),
    ) {
        // Real scores sit `slack` below the starting table, entry by entry.
        let mut scores = table.clone();
        for (b, bucket) in scores.iter_mut().enumerate() {
            for (s, score) in bucket.iter_mut().enumerate() {
                *score -= slack[3 * b + s];
            }
        }
        let sum = |t: &[Vec<f64>], plan: &[usize]| {
            plan.iter().enumerate().fold(0.0, |a, (b, &s)| a + t[b][s]) + 0.0
        };
        let best = |t: &[Vec<f64>], plans: &BTreeSet<Vec<usize>>| {
            plans.iter().map(|p| sum(t, p)).max_by(|a, b| utility_cmp(*a, *b))
        };
        let mut plans: Vec<Vec<usize>> = vec![Vec::new()];
        for bucket in &table {
            plans = plans
                .iter()
                .flat_map(|p| (0..bucket.len()).map(move |s| [&p[..], &[s]].concat()))
                .collect();
        }
        let mut within: BTreeSet<Vec<usize>> = plans.iter().cloned().collect();
        let mut model = table.clone();
        let mut gate = ReleaseGate::new(table);
        let mut last = f64::INFINITY;
        let mut check = |gate: &mut ReleaseGate,
                         model: &[Vec<f64>],
                         scores: &[Vec<f64>],
                         within: &BTreeSet<Vec<usize>>| {
            let got = gate.bound();
            assert_eq!(got.map(f64::to_bits), best(model, within).map(f64::to_bits));
            assert_eq!(got.is_none(), within.is_empty());
            assert_eq!(gate.left() + within.len(), plans.len());
            if let (Some(got), Some(real)) = (got, best(scores, within)) {
                assert_ne!(utility_cmp(got, last), Ordering::Greater, "{last} rose to {got}");
                assert_ne!(utility_cmp(got, real), Ordering::Less, "{got} under {real}");
                last = got;
            }
        };
        check(&mut gate, &model, &scores, &within);
        for (pick, arg, frac) in ops {
            let plan = &plans[arg % plans.len()];
            let (b, s) = (pick % plan.len(), plan[pick % plan.len()]);
            match pick % 5 {
                // The plan attaches.
                0 | 1 => {
                    gate.leave(plan);
                    within.remove(plan);
                }
                // One of its levels turns out to hold less than promised…
                2 | 3 if model[b][s].is_finite() => {
                    let to = scores[b][s] + frac * (model[b][s] - scores[b][s]);
                    gate.tighten(b, s, to);
                    model[b][s] = to.min(model[b][s]);
                }
                // …or nothing at all; a looser bound is not believed.
                _ => {
                    gate.tighten(b, s, model[b][s] + 1.0);
                    gate.tighten(b, s, f64::NEG_INFINITY);
                    (model[b][s], scores[b][s]) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
                }
            }
            check(&mut gate, &model, &scores, &within);
        }
        for plan in &plans {
            gate.leave(plan);
            within.remove(plan);
            check(&mut gate, &model, &scores, &within);
        }
    }

    /// The gate's walk is a schedule: on a generated instance's catalog
    /// bounds, `pop` hands out every plan still in exactly once, keys
    /// non-increasing and each bit-equal to the plan's `plan_bound`, and
    /// never a plan that left before.
    #[test]
    fn pop_drains_every_plan_still_in_once_best_bound_first(
        seed in 0u64..1000,
        shape in (1usize..4, 1usize..5),
        jitter in 0.0f64..0.5,
        gone in pvec(0usize..1000, 0..6),
    ) {
        let inst = GeneratorConfig::new(shape.0, shape.1).with_seed(seed).build();
        let scorer = CatalogScorer::new(100).with_jitter(jitter);
        let table = inst.buckets.iter().enumerate().map(|(b, bucket)| {
            bucket.iter().map(|stats| scorer.atom_bound(b, stats)).collect()
        });
        let plans = inst.all_plans();
        let gone: BTreeSet<Vec<usize>> =
            gone.iter().map(|&i| plans[i % plans.len()].clone()).collect();
        let mut gate = ReleaseGate::new(table.collect());
        gone.iter().for_each(|plan| gate.leave(plan));
        let popped: Vec<(Vec<usize>, f64)> = std::iter::from_fn(|| gate.pop()).collect();
        let distinct: BTreeSet<Vec<usize>> = popped.iter().map(|(p, _)| p.clone()).collect();
        prop_assert_eq!(distinct.len(), popped.len(), "a plan popped twice");
        let still_in: BTreeSet<Vec<usize>> =
            plans.iter().filter(|p| !gone.contains(*p)).cloned().collect();
        prop_assert_eq!(distinct, still_in);
        prop_assert_eq!(gate.left(), plans.len());
        for (plan, key) in &popped {
            prop_assert_eq!(key.to_bits(), plan_bound(&scorer, &inst, plan).to_bits());
        }
        for w in popped.windows(2) {
            prop_assert_ne!(utility_cmp(w[1].1, w[0].1), Ordering::Greater);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The positional join is its named-row twin, bit for bit: the same
    /// `(score, tuple)` stream and the same level bounds, uncached and
    /// twice through one cache (the second build reads every level from
    /// it). Ties inside a group break on the fresh values in variable-name
    /// order, which first-occurrence order would reorder.
    #[test]
    fn positional_levels_match_the_named_row_twin(
        rels in relations(),
        body in pvec((0usize..3, pvec(0u8..8, 3)), 0..4),
        head in pvec(0u8..8, 0..4),
        levels in pvec(prop_oneof![Just(0.0), Just(0.5), Just(1.0), Just(-1.0)], 1..3),
    ) {
        let (db, q) = (database(&rels), query(&rels, &body, &head));
        let score = tied_score(&levels);
        let mut twin = ReferenceJoin::new(&db, &q, &score);
        let bounds: Vec<u64> = twin.level_bounds().into_iter().map(f64::to_bits).collect();
        let want = bits(twin.by_ref().collect());
        let key = |ai: usize| ai.to_string();
        let cache = LevelCache::new();
        for (cache, run) in [(&LevelCache::new(), "uncached"), (&cache, "cold"), (&cache, "warm")] {
            let mut join = RankedJoin::new(&db, &q, &score, cache, key);
            let got: Vec<u64> = join.level_bounds().map(f64::to_bits).collect();
            prop_assert_eq!(&got, &bounds, "{} {}", run, q);
            prop_assert_eq!(bits(join.drain()), want.clone(), "{} {} over {:?}", run, q, db);
        }
        let levels = q.body.len() as u64;
        prop_assert_eq!((cache.misses(), cache.hits()), (levels, levels), "{}", q);
    }
}
