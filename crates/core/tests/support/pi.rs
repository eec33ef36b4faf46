//! PI as §6 describes it, and as `qpo_core::Pi` was before it became
//! lazy: every round re-values every row the previous emission (or a
//! retraction) invalidated, then scans all rows for the maximum. The
//! shipped `Pi` must emit the same plans and utility bits with no more
//! evaluations — the same number under a measure without diminishing
//! returns — and this twin keeps the paper's eager baseline counts
//! reproducible.

use qpo_catalog::ProblemInstance;
use qpo_core::{utility_cmp, OrderedPlan, PlanOrderer, PlanOutcome};
use qpo_utility::{ExecutionContext, IntervalCarry, UtilityMeasure};

/// The eager independence-aware brute-force orderer.
pub struct ReferencePi<'a, M: UtilityMeasure + ?Sized> {
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
    pub evaluations: u64,
}

impl<'a, M: UtilityMeasure + ?Sized> ReferencePi<'a, M> {
    /// The orderer over the instance's whole plan space.
    pub fn new(inst: &'a ProblemInstance, measure: &'a M) -> Self {
        ReferencePi::from_plans(inst, measure, ExecutionContext::new(), inst.all_plans())
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
        ReferencePi {
            inst,
            measure,
            ctx,
            carries: vec![IntervalCarry::default(); plans.len()],
            rows: plans.into_iter().map(row).collect(),
            singletons: vec![vec![0]; inst.query_len()],
            evaluations: 0,
        }
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

impl<M: UtilityMeasure + ?Sized> PlanOrderer for ReferencePi<'_, M> {
    fn algorithm_name(&self) -> &'static str {
        "pi-reference"
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
                utility_cmp(*ua, *ub).then_with(|| pb.cmp(pa)) // ties → smaller plan wins
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
