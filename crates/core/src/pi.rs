//! PI — the paper's reference baseline (§6): brute force over the full
//! plan space, made as strong as possible by exploiting plan independence.
//!
//! PI materializes every concrete plan once. Each round it recomputes only
//! the utilities invalidated by the previously emitted plan (those of plans
//! *not independent* of it), then emits the maximum. Its first round
//! therefore evaluates the whole plan space — exactly the cost the
//! abstraction algorithms avoid. It is also the crate's one brute force:
//! [`Pi::from_plans`] takes over the context and remaining plans of an
//! [`IDrips`](crate::IDrips) that stopped paying for abstraction.
//!
//! A row is valued by [`UtilityMeasure::resume_interval`] on its singleton
//! candidates, from the measure's [`IntervalCarry`], so a stale row folds
//! in only the plans executed since it was last valued (a retraction drops
//! every carry). A resumed value has a fresh one's bits — the measure's
//! contract — so `Pi` emits what [`Naive`] does, bit for bit.

use crate::orderer::{OrderedPlan, PlanOrderer, PlanOutcome};
use qpo_catalog::ProblemInstance;
use qpo_utility::{ExecutionContext, IntervalCarry, UtilityMeasure};

/// The independence-aware brute-force orderer.
pub struct Pi<'a, M: UtilityMeasure + ?Sized> {
    inst: &'a ProblemInstance,
    measure: &'a M,
    ctx: ExecutionContext,
    /// `(plan, utility, stale)`; a stale utility needs re-valuing. A
    /// row's carry sits at its index in `carries`, out of the scans' way.
    rows: Vec<(Vec<usize>, f64, bool)>,
    carries: Vec<IntervalCarry>,
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
        plans: Vec<Vec<usize>>,
    ) -> Self {
        let row = |p| (p, 0.0, true);
        Pi {
            inst,
            measure,
            ctx,
            carries: vec![IntervalCarry::default(); plans.len()],
            rows: plans.into_iter().map(row).collect(),
            singletons: vec![vec![0]; inst.query_len()],
            evaluations: 0,
        }
    }

    /// Plans still available.
    pub fn remaining(&self) -> usize {
        self.rows.len()
    }

    /// Marks stale every row `plan`'s execution or retraction can move.
    fn invalidate(&mut self, plan: &[usize]) {
        for (p, _, stale) in &mut self.rows {
            if !self.measure.independent(self.inst, p, plan) {
                *stale = true;
            }
        }
    }
}

impl<M: UtilityMeasure + ?Sized> PlanOrderer for Pi<'_, M> {
    fn algorithm_name(&self) -> &'static str {
        "pi"
    }

    fn next_plan(&mut self) -> Option<OrderedPlan> {
        for ((plan, utility, stale), carry) in self.rows.iter_mut().zip(&mut self.carries) {
            if *stale {
                let singletons = self.singletons.iter_mut().zip(plan.iter());
                singletons.for_each(|(cands, &source)| cands[0] = source);
                let (inst, cands) = (self.inst, &self.singletons);
                let point = self.measure.resume_interval(inst, cands, &self.ctx, carry);
                *utility = point.lo();
                *stale = false;
                self.evaluations += 1;
            }
        }
        let best = self
            .rows
            .iter()
            .enumerate()
            .max_by(|(_, (pa, ua, ..)), (_, (pb, ub, ..))| {
                crate::utility_cmp(*ua, *ub).then_with(|| pb.cmp(pa)) // ties → smaller plan wins
            })
            .map(|(i, _)| i)?;
        let (plan, utility, _) = self.rows.swap_remove(best);
        self.carries.swap_remove(best);
        self.invalidate(&plan);
        self.ctx.record(&plan);
        Some(OrderedPlan { plan, utility })
    }

    fn observe(&mut self, outcome: &PlanOutcome) {
        if outcome.is_failure() && self.ctx.retract(&outcome.plan) {
            self.carries.fill(IntervalCarry::default());
            self.invalidate(&outcome.plan);
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
