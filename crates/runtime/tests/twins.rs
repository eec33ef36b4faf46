//! The run's answer union beside its reference twin: `RunState`'s flat
//! table driven by scripts of `insert_answers`, `answer_count` and
//! `answers()` next to `ReferenceUnion` (`support/union.rs`, the hash map
//! of tuples it replaced), call for call, with the sorted set compared
//! after every step; and — release only, wide — the same over larger
//! tables, so the index regrows many times.

#[path = "support/union.rs"]
mod reference_union;

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use qpo_core::{OrderedPlan, PlanOrderer};
use qpo_datalog::{Constant, PrefixRows, Tuple};
use qpo_runtime::{Executor, PlanEvaluator, RuntimePolicy};
use reference_union::ReferenceUnion;
use std::sync::Arc;

/// Evaluates nothing: the scripts insert rows by hand.
struct Idle;

impl PlanEvaluator for Idle {
    type Ticket = ();

    fn is_sound(&self, _: &[usize], _: &mut ()) -> bool {
        true
    }

    fn evaluate(
        &self,
        _: &[usize],
        _: &[Option<Arc<Vec<Tuple>>>],
        _: &mut (),
    ) -> Option<PrefixRows> {
        None
    }
}

impl PlanOrderer for Idle {
    fn algorithm_name(&self) -> &'static str {
        "idle"
    }

    fn next_plan(&mut self) -> Option<OrderedPlan> {
        None
    }
}

/// A value from a pool small enough that cut rows repeat, crossing `Int`
/// with `Str`; the `Int`s reach below zero and, at `-3` and `3`, to
/// `i64::MIN` and `i64::MAX`, so a packed column can need all 64 bits.
fn arb_constant() -> impl Strategy<Value = Constant> {
    let edge = |v| match v {
        -3 => i64::MIN,
        3 => i64::MAX,
        v => v,
    };
    prop_oneof![
        (-3i64..4).prop_map(move |v| Constant::Int(edge(v))),
        (0usize..3).prop_map(|i| Constant::str(["a", "b", "ab"][i])),
    ]
}

/// One script step: `(kind, seq, width, picks)`. Kinds 0–4 insert the
/// pool rows at `picks` as plan `seq`'s rows, 5–6 read `answer_count`,
/// 7 reads nothing more: `answers()` is compared after every step. Seqs
/// repeat and run backwards, as a late join's does.
type Step = (u8, u64, usize, Vec<usize>);

/// `(width, mix, ints, pool, steps)`: the head's width (0–4), whether
/// each insert draws its own width (`mix == 0`, one case in four),
/// whether every string becomes its length (`ints == 0`, one case in
/// three, so the sorted view packs its keys), the four-wide rows the
/// plans cut theirs from, and the script.
type Case = (usize, u8, u8, Vec<Tuple>, Vec<Step>);

fn arb_case(pool: usize, steps: usize, picks: usize) -> impl Strategy<Value = Case> {
    let pool = pvec(pvec(arb_constant(), 4), 1..pool);
    let step = (0u8..8, 0u64..6, 0usize..5, pvec(0usize..1 << 20, 0..picks));
    (0usize..5, 0u8..4, 0u8..3, pool, pvec(step, 0..steps))
}

/// Plays `case` on a fresh run's union and on its twin; panics where a
/// call's result or the sorted set after a step differs.
fn union_beside_twin((width, mix, ints, pool, steps): Case) {
    let executor = Executor::local(&Idle, RuntimePolicy::serial());
    let mut state = executor.begin(&Idle);
    let mut twin = ReferenceUnion::default();
    let value = |c: &Constant| match c {
        Constant::Str(s) if ints == 0 => Constant::Int(s.len() as i64),
        c => c.clone(),
    };
    for (at, (kind, seq, own, picks)) in steps.into_iter().enumerate() {
        match kind {
            0..=4 => {
                let width = if mix == 0 { own } else { width };
                let cut = |p: usize| pool[p % pool.len()][..width].iter().map(value).collect();
                let rows: Vec<Tuple> = picks.into_iter().map(cut).collect();
                let flat = PrefixRows::new(width, rows.len(), rows.concat());
                let got = state.insert_answers(seq, &flat);
                assert_eq!(got, twin.insert_answers(seq, &rows), "insert at step {at}");
            }
            5 | 6 => assert_eq!(state.answer_count(), twin.answer_count(), "step {at}"),
            _ => {}
        }
        assert_eq!(state.answers(), twin.answers(), "answers after step {at}");
    }
}

proptest! {
    #[test]
    fn union_matches_its_reference_twin(case in arb_case(24, 12, 16)) {
        union_beside_twin(case);
    }
}

/// The twin over tables of up to a few hundred rows.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: cargo test --release -p qpo-runtime --test twins wide"
)]
fn union_matches_its_reference_twin_wide() {
    let mut rng = proptest::test_rng("union_matches_its_reference_twin_wide");
    let draw = arb_case(600, 40, 200);
    for _ in 0..4000 {
        union_beside_twin(draw.generate(&mut rng));
    }
}
