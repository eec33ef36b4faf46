//! The answer union's contract, against the loop it replaced. The merge
//! hashes a plan's rows — flat, unsorted, duplicates allowed — into a map
//! stamped with the plan that derived each last; the parent sorted and
//! deduplicated every plan's list and inserted it into a `BTreeSet`. That
//! loop is the reference here: per plan `tuples` (the plan's *distinct*
//! count), `new_tuples` and `cumulative`, the final set, the sorted view
//! a paused run hands out, and where an answer budget stops.

use proptest::prelude::*;
use qpo_core::{OrderedPlan, PlanOrderer};
use qpo_datalog::{Constant, PrefixRows, Tuple};
use qpo_runtime::{Executor, PlanEvaluator, PlanStatus, RunBudget, RuntimePolicy};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Plan `[i]` evaluates to `rows[i]`, as they are.
struct Scripted {
    width: usize,
    rows: Vec<Vec<Tuple>>,
}

impl PlanEvaluator for Scripted {
    type Ticket = ();

    fn is_sound(&self, _: &[usize], _: &mut ()) -> bool {
        true
    }

    fn evaluate(
        &self,
        plan: &[usize],
        _: &[Option<Arc<Vec<Tuple>>>],
        _: &mut (),
    ) -> Option<PrefixRows> {
        let rows = &self.rows[plan[0]];
        Some(PrefixRows::new(self.width, rows.len(), rows.concat()))
    }
}

/// Emits plans `[0]`, `[1]`, … in order.
struct InOrder(std::ops::Range<usize>);

impl PlanOrderer for InOrder {
    fn algorithm_name(&self) -> &'static str {
        "in-order"
    }

    fn next_plan(&mut self) -> Option<OrderedPlan> {
        let utility = -1.0;
        self.0.next().map(|i| OrderedPlan {
            plan: vec![i],
            utility,
        })
    }
}

/// Sees nothing.
struct Silent;

impl qpo_runtime::WaveObserver<()> for Silent {}

/// A value from a pool small enough that rows repeat — inside a plan
/// and across plans — and mixed enough to cross `Int` with `Str`. The
/// `Int`s reach below zero and, at `-3` and `3`, to `i64::MIN` and
/// `i64::MAX`, so a column of the sorted view's packed key can need all
/// 64 bits, and two columns more.
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

/// `(head width, rows per plan)`. Width 0 is the boolean query: every row
/// is the empty tuple, so a plan has one answer or none. One case in
/// three has each string replaced by its length, so every answer is an
/// `Int` and the sorts at the run's boundary and in the sorted view pack
/// their keys unless the columns span more than 64 bits together.
fn arb_plans() -> impl Strategy<Value = (usize, Vec<Vec<Tuple>>)> {
    let row = proptest::collection::vec(arb_constant(), 2);
    let plans = proptest::collection::vec(proptest::collection::vec(row, 0..8), 0..7);
    (0usize..3, 0usize..3, plans).prop_map(|(width, mix, plans)| {
        let value = |c: &Constant| match c {
            Constant::Str(s) if mix == 0 => Constant::Int(s.len() as i64),
            c => c.clone(),
        };
        let cut = |plan: Vec<Tuple>| {
            plan.iter()
                .map(|t| t[..width].iter().map(value).collect())
                .collect()
        };
        (width, plans.into_iter().map(cut).collect())
    })
}

/// The parent's loop: per plan `(tuples, new_tuples, cumulative)`, and the
/// final set.
fn reference(rows: &[Vec<Tuple>]) -> (Vec<PlanStatus>, BTreeSet<Tuple>) {
    let mut answers = BTreeSet::new();
    let statuses = rows.iter().map(|plan| {
        let mut distinct = plan.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let tuples = distinct.len();
        let new_tuples = distinct
            .into_iter()
            .filter(|t| answers.insert(t.clone()))
            .count();
        PlanStatus::Executed {
            tuples,
            new_tuples,
            cumulative: answers.len(),
        }
    });
    (statuses.collect(), answers)
}

proptest! {
    #[test]
    fn the_hash_union_counts_what_the_sorted_loop_counted(
        plans in arb_plans(),
        lookahead in 1usize..4,
        enough in 0usize..8,
    ) {
        let (width, rows) = plans;
        let (want, want_answers) = reference(&rows);
        let eval = Scripted { width, rows: rows.clone() };
        let policy = RuntimePolicy::serial().with_lookahead(lookahead);
        let executor = Executor::local(&eval, policy);
        let run = executor.run(&mut InOrder(0..rows.len()), RunBudget::unbounded(), &mut ());
        let statuses: Vec<_> = run.reports.iter().map(|r| r.status.clone()).collect();
        prop_assert_eq!(&statuses, &want);
        prop_assert_eq!(&run.answers, &want_answers);

        // Stepped by hand, the count and the sorted view track every
        // merged wave.
        let mut orderer = InOrder(0..rows.len());
        let mut state = executor.begin(&orderer);
        let mut step = |state: &mut _| {
            executor.step(state, &mut orderer, RunBudget::unbounded(), &mut Silent)
        };
        let mut reported = 0usize;
        while step(&mut state).is_some() {
            reported += 1;
            // A wave of `lookahead` plans merges before its first report.
            let merged = reported.div_ceil(lookahead) * lookahead;
            let (_, upto) = reference(&rows[..merged.min(rows.len())]);
            prop_assert_eq!(state.answer_count(), upto.len());
            prop_assert_eq!(state.answers(), upto);
        }
        prop_assert_eq!(reported, rows.len());

        // An answer budget stops at the first boundary with enough.
        let budgeted = Executor::local(&eval, RuntimePolicy::serial())
            .run(&mut InOrder(0..rows.len()), RunBudget::answers(enough), &mut ());
        let cumulative = |status: &PlanStatus| match status {
            PlanStatus::Executed { cumulative, .. } => *cumulative,
            other => panic!("{other:?}"),
        };
        let stop = (0..rows.len()).find(|&k| k > 0 && cumulative(&want[k - 1]) >= enough);
        let stop = if enough == 0 { 0 } else { stop.unwrap_or(rows.len()) };
        prop_assert_eq!(budgeted.reports.len(), stop);
    }
}
