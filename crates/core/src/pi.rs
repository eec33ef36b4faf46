//! PI — the paper's reference baseline (§6): brute force over the full
//! plan space, made as strong as possible by exploiting plan independence.
//!
//! PI pops a max-heap of plan rows keyed `(utility as last valued, smaller
//! plan first)`: the top is emitted if every plan executed since it was
//! valued is `independent` of it, else re-valued and pushed back. Every
//! key stays at or above its row's utility, so the first row emitted is
//! the argmax: under [`diminishing_returns`](UtilityMeasure::diminishing_returns)
//! a stale value is such a bound, and only rows reaching the top are
//! re-valued (Minoux's accelerated greedy); the rows a retraction, or an
//! emission under another measure, can move get key +∞, all re-valued
//! first, as an eager PI would. The first call values every plan — the
//! cost the abstraction algorithms avoid. [`Pi::from_plans`] takes over
//! the context and plans of an [`IDrips`](crate::IDrips) that stopped
//! paying for abstraction: `Pi` is the crate's one brute force.
//!
//! A row is valued by [`UtilityMeasure::resume_interval`] on its singleton
//! candidates, from the measure's [`IntervalCarry`], so a stale row folds
//! in only the plans executed since it was last valued (a retraction drops
//! every carry). A resumed value has a fresh one's bits — the measure's
//! contract — so `Pi` emits what [`Naive`] does, bit for bit.

use crate::kernel::heap_key;
use crate::orderer::{OrderedPlan, PlanOrderer, PlanOutcome};
use qpo_catalog::ProblemInstance;
use qpo_utility::{ExecutionContext, IntervalCarry, UtilityMeasure};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// The independence-aware brute-force orderer.
pub struct Pi<'a, M: UtilityMeasure + ?Sized> {
    inst: &'a ProblemInstance,
    measure: &'a M,
    ctx: ExecutionContext,
    /// `(plan, utility, stamp)` in plan order, so a row's index breaks
    /// ties: the utility as valued at context length `stamp` (`None`: key
    /// +∞, to be valued). A row's carry sits at its index in `carries`.
    rows: Vec<(Vec<usize>, f64, Option<usize>)>,
    carries: Vec<IntervalCarry>,
    /// The rows not emitted, by [`heap_key`] of a bound on their utility.
    heap: BinaryHeap<(i64, Reverse<usize>)>,
    /// A plan's singleton candidates, rewritten per valuation.
    singletons: Vec<Vec<usize>>,
    /// Rows valued so far, one measure evaluation each.
    pub(crate) evaluations: u64,
}

impl<'a, M: UtilityMeasure + ?Sized> Pi<'a, M> {
    /// Creates the orderer; the plan space is materialized eagerly (that is
    /// the point of the baseline).
    pub fn new(inst: &'a ProblemInstance, measure: &'a M) -> Self {
        Pi::from_plans(inst, measure, ExecutionContext::new(), inst.all_plans())
    }

    /// Orders the distinct concrete `plans` from `ctx` on, as an orderer
    /// that has emitted `ctx`'s plans and has `plans` left would.
    pub fn from_plans(
        inst: &'a ProblemInstance,
        measure: &'a M,
        ctx: ExecutionContext,
        mut plans: Vec<Vec<usize>>,
    ) -> Self {
        plans.sort_unstable();
        let unvalued = (0..plans.len()).map(|r| heap_key(f64::INFINITY, r));
        Pi {
            inst,
            measure,
            ctx,
            carries: vec![IntervalCarry::default(); plans.len()],
            heap: unvalued.collect(),
            rows: plans.into_iter().map(|p| (p, 0.0, None)).collect(),
            singletons: vec![vec![0]; inst.query_len()],
            evaluations: 0,
        }
    }

    /// Plans still available.
    pub fn remaining(&self) -> usize {
        self.heap.len()
    }

    /// Keys +∞ every row `plan`'s execution or retraction (from history
    /// position `retracted`, which shifts the later stamps) can move.
    fn unsettle(&mut self, plan: &[usize], retracted: Option<usize>) {
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        for key in &mut keys {
            let (row, _, stamp) = &mut self.rows[key.1 .0];
            *stamp = stamp.map(|s| s - usize::from(retracted.is_some_and(|at| s > at)));
            if !self.measure.independent(self.inst, row, plan) {
                (*key, *stamp) = (heap_key(f64::INFINITY, key.1 .0), None);
            }
        }
        self.heap = keys.into();
    }
}

impl<M: UtilityMeasure + ?Sized> PlanOrderer for Pi<'_, M> {
    fn algorithm_name(&self) -> &'static str {
        "pi"
    }

    fn next_plan(&mut self) -> Option<OrderedPlan> {
        let (inst, measure) = (self.inst, self.measure);
        let best = loop {
            let mut top = self.heap.peek_mut()?;
            let Reverse(r) = top.1;
            let (plan, utility, stamp) = &mut self.rows[r];
            let since = stamp.and_then(|s| self.ctx.executed().get(s..));
            if since.is_some_and(|s| s.iter().all(|e| measure.independent(inst, plan, e))) {
                PeekMut::pop(top);
                break r;
            }
            let singletons = self.singletons.iter_mut().zip(plan.iter());
            singletons.for_each(|(cands, &source)| cands[0] = source);
            let (cands, carry) = (&self.singletons, &mut self.carries[r]);
            let point = measure.resume_interval(inst, cands, &self.ctx, carry);
            (*utility, *stamp) = (point.lo(), Some(self.ctx.len()));
            *top = heap_key(*utility, r);
            self.evaluations += 1;
        };
        let (plan, utility) = (std::mem::take(&mut self.rows[best].0), self.rows[best].1);
        self.ctx.record(&plan);
        if !measure.diminishing_returns() {
            self.unsettle(&plan, None);
        }
        Some(OrderedPlan { plan, utility })
    }

    fn observe(&mut self, outcome: &PlanOutcome) {
        let failed = outcome.is_failure().then_some(&outcome.plan);
        let at = failed.and_then(|f| self.ctx.executed().iter().rposition(|p| p == f));
        if let Some(at) = at {
            self.ctx.retract(&outcome.plan);
            self.carries.fill(IntervalCarry::default());
            self.unsettle(&outcome.plan, Some(at));
        }
    }
}

/// Naive brute force: recomputes *every* remaining utility each round.
/// Strictly dominated by [`Pi`]; kept as a sanity baseline and for the
/// ablation that isolates the value of independence information.
pub struct Naive<'a, M: UtilityMeasure + ?Sized> {
    inst: &'a ProblemInstance,
    measure: &'a M,
    ctx: ExecutionContext,
    plans: Vec<Vec<usize>>,
}

impl<'a, M: UtilityMeasure + ?Sized> Naive<'a, M> {
    /// Creates the orderer.
    pub fn new(inst: &'a ProblemInstance, measure: &'a M) -> Self {
        Naive {
            inst,
            measure,
            ctx: ExecutionContext::new(),
            plans: inst.all_plans(),
        }
    }
}

impl<M: UtilityMeasure + ?Sized> PlanOrderer for Naive<'_, M> {
    fn algorithm_name(&self) -> &'static str {
        "naive"
    }

    fn next_plan(&mut self) -> Option<OrderedPlan> {
        let (best, utility) = self
            .plans
            .iter()
            .enumerate()
            .map(|(i, p)| (i, self.measure.utility(self.inst, p, &self.ctx)))
            .max_by(|(ia, ua), (ib, ub)| {
                crate::utility_cmp(*ua, *ub).then_with(|| self.plans[*ib].cmp(&self.plans[*ia]))
            })?;
        let plan = self.plans.swap_remove(best);
        self.ctx.record(&plan);
        Some(OrderedPlan { plan, utility })
    }

    fn observe(&mut self, outcome: &PlanOutcome) {
        if outcome.is_failure() {
            self.ctx.retract(&outcome.plan);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orderer::verify_ordering;
    use qpo_catalog::{Extent, SourceStats};
    use qpo_utility::{CountingMeasure, Coverage, FailureCost, LinearCost};

    fn coverage_inst() -> ProblemInstance {
        let src = |s, l| SourceStats::new().with_extent(Extent::new(s, l));
        ProblemInstance::new(
            1.0,
            vec![20, 20],
            vec![
                vec![src(0, 8), src(5, 8), src(14, 6)],
                vec![src(0, 10), src(9, 10), src(3, 4)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn pi_orders_coverage_exactly() {
        let inst = coverage_inst();
        let mut pi = Pi::new(&inst, &Coverage);
        assert_eq!(pi.remaining(), 9);
        let ordering = pi.order_k(9);
        assert_eq!(ordering.len(), 9);
        verify_ordering(&inst, &Coverage, &ordering, 1e-12).unwrap();
        assert_eq!(pi.next_plan(), None);
        // Utilities are non-increasing? Not guaranteed in general for
        // context-dependent measures, but holds under diminishing returns.
        for w in ordering.windows(2) {
            assert!(w[0].utility >= w[1].utility - 1e-12);
        }
    }

    #[test]
    fn naive_matches_pi_utility_sequence() {
        let inst = coverage_inst();
        let pi: Vec<f64> = Pi::new(&inst, &Coverage)
            .order_k(9)
            .into_iter()
            .map(|o| o.utility)
            .collect();
        let naive: Vec<f64> = Naive::new(&inst, &Coverage)
            .order_k(9)
            .into_iter()
            .map(|o| o.utility)
            .collect();
        assert_eq!(pi, naive);
    }

    #[test]
    fn pi_recomputes_fewer_utilities_than_naive() {
        let inst = coverage_inst();
        let m_pi = CountingMeasure::new(Coverage);
        Pi::new(&inst, &m_pi).order_k(9);
        let m_naive = CountingMeasure::new(Coverage);
        Naive::new(&inst, &m_naive).order_k(9);
        assert!(
            m_pi.total_evals() < m_naive.total_evals(),
            "PI {} vs Naive {}",
            m_pi.total_evals(),
            m_naive.total_evals()
        );
    }

    #[test]
    fn pi_on_context_free_measure_evaluates_each_plan_once() {
        let inst = coverage_inst();
        let m = CountingMeasure::new(LinearCost);
        Pi::new(&inst, &m).order_k(9);
        assert_eq!(m.total_evals(), 9, "full independence → no recomputation");
    }

    #[test]
    fn pi_handles_caching_cost_dependence() {
        let inst = coverage_inst();
        let m = FailureCost::with_caching();
        let ordering = Pi::new(&inst, &m).order_k(9);
        verify_ordering(&inst, &m, &ordering, 1e-9).unwrap();
    }

    #[test]
    fn naive_verifies_on_caching_cost() {
        let inst = coverage_inst();
        let m = FailureCost::with_caching();
        let ordering = Naive::new(&inst, &m).order_k(9);
        verify_ordering(&inst, &m, &ordering, 1e-9).unwrap();
    }

    #[test]
    fn observing_a_failure_reconditions_later_pops() {
        // Under the caching measure a failed plan must stop contributing
        // cached operations: after the retract, the next pop's utility is
        // the argmax over the remaining plans in an *empty* context.
        let inst = coverage_inst();
        let m = FailureCost::with_caching();
        let mut pi = Pi::new(&inst, &m);
        let first = pi.next_plan().unwrap();
        pi.observe(&crate::orderer::PlanOutcome::failed(&first.plan));
        let second = pi.next_plan().unwrap();
        let empty = ExecutionContext::new();
        let best_in_empty = inst
            .all_plans()
            .into_iter()
            .filter(|p| *p != first.plan)
            .map(|p| m.utility(&inst, &p, &empty))
            .fold(f64::MIN, f64::max);
        assert!(
            (second.utility - best_in_empty).abs() < 1e-12,
            "post-retract pop {} vs empty-context argmax {}",
            second.utility,
            best_in_empty
        );
    }

    #[test]
    fn pi_and_naive_agree_under_injected_failures() {
        let inst = coverage_inst();
        let m = FailureCost::with_caching();
        let mut pi = Pi::new(&inst, &m);
        let mut naive = Naive::new(&inst, &m);
        for step in 0..9 {
            let a = pi.next_plan().unwrap();
            let b = naive.next_plan().unwrap();
            assert_eq!(a.plan, b.plan, "step {step}");
            assert!((a.utility - b.utility).abs() < 1e-12, "step {step}");
            // Fail every other plan and tell both orderers.
            if step % 2 == 0 {
                let outcome = crate::orderer::PlanOutcome::failed(&a.plan);
                pi.observe(&outcome);
                naive.observe(&outcome);
            } else {
                let outcome = crate::orderer::PlanOutcome::succeeded(&a.plan, 3);
                pi.observe(&outcome);
                naive.observe(&outcome);
            }
        }
    }

    #[test]
    fn observing_success_changes_nothing() {
        let inst = coverage_inst();
        let m = FailureCost::with_caching();
        let mut with_feedback = Pi::new(&inst, &m);
        let mut without = Pi::new(&inst, &m);
        for _ in 0..9 {
            let a = with_feedback.next_plan().unwrap();
            with_feedback.observe(&crate::orderer::PlanOutcome::succeeded(&a.plan, 1));
            let b = without.next_plan().unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn names() {
        let inst = coverage_inst();
        assert_eq!(Pi::new(&inst, &Coverage).algorithm_name(), "pi");
        assert_eq!(Naive::new(&inst, &Coverage).algorithm_name(), "naive");
    }
}
