//! Weighted combinations of utility measures.
//!
//! Example 1.2 of the paper: "preferences over coverage and cost can be
//! modeled with the utility measure `u(p) = α·coverage(p) + β·cost(p)`,
//! where α and β are constants specifying the tradeoffs". [`Combined`]
//! implements the general form `w_a·u_a + w_b·u_b` over any two measures
//! (remember that cost-like measures here already return *negated* costs,
//! so both weights are non-negative).

use crate::context::ExecutionContext;
use crate::measure::{as_concrete, CarryState, IntervalCarry, UtilityMeasure};
use qpo_catalog::ProblemInstance;
use qpo_interval::Interval;

/// The weighted sum `w_a·u_a(p|·) + w_b·u_b(p|·)`.
///
/// Structural properties compose conservatively:
/// - diminishing returns holds iff it holds for both components (with
///   non-negative weights, a sum of non-increasing utilities is
///   non-increasing);
/// - two plans are independent iff both components say so;
/// - monotonicity is not claimed (even two fully monotonic components may
///   rank a bucket's sources differently), so Greedy does not apply;
/// - abstract independence witnesses are only certified for concrete
///   plans, or when both components are context-free (the trait's
///   default) — a shared witness for both components cannot be derived
///   from the components' separate witnesses, so Streamer recycles fewer
///   links under combined measures (correctness is unaffected).
pub struct Combined<A, B> {
    a: A,
    b: B,
    weight_a: f64,
    weight_b: f64,
}

impl<A: UtilityMeasure, B: UtilityMeasure> Combined<A, B> {
    /// Creates the combination `weight_a·a + weight_b·b`.
    ///
    /// # Panics
    /// Panics if a weight is negative or non-finite (negative weights
    /// would silently break the diminishing-returns composition).
    pub fn new(a: A, weight_a: f64, b: B, weight_b: f64) -> Self {
        assert!(
            weight_a >= 0.0 && weight_a.is_finite(),
            "invalid weight {weight_a}"
        );
        assert!(
            weight_b >= 0.0 && weight_b.is_finite(),
            "invalid weight {weight_b}"
        );
        Combined {
            a,
            b,
            weight_a,
            weight_b,
        }
    }

    /// The component measures.
    pub fn components(&self) -> (&A, &B) {
        (&self.a, &self.b)
    }

    /// The weights.
    pub fn weights(&self) -> (f64, f64) {
        (self.weight_a, self.weight_b)
    }
}

impl<A: UtilityMeasure, B: UtilityMeasure> UtilityMeasure for Combined<A, B> {
    fn name(&self) -> &'static str {
        "combined"
    }

    fn utility(&self, inst: &ProblemInstance, plan: &[usize], ctx: &ExecutionContext) -> f64 {
        self.weight_a * self.a.utility(inst, plan, ctx)
            + self.weight_b * self.b.utility(inst, plan, ctx)
    }

    fn utility_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
    ) -> Interval {
        self.resume_interval(inst, candidates, ctx, &mut IntervalCarry::default())
    }

    /// Abstract candidates resume component by component. A concrete plan
    /// starts over and leaves the carry fresh: its point is the weighted
    /// sum of the components' `utility`, which need not share bits with
    /// their point intervals.
    fn resume_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
        carry: &mut IntervalCarry,
    ) -> Interval {
        if let Some(plan) = as_concrete(candidates) {
            return Interval::point(self.utility(inst, &plan, ctx));
        }
        // The pair's own `seen` is unused: each component tracks its own.
        let (state, _) = carry.resume(ctx, || CarryState::Pair(Box::default()));
        let CarryState::Pair(pair) = state else {
            unreachable!("carry belongs to another measure");
        };
        let (a, b) = &mut **pair;
        self.a
            .resume_interval(inst, candidates, ctx, a)
            .scale(self.weight_a)
            + self
                .b
                .resume_interval(inst, candidates, ctx, b)
                .scale(self.weight_b)
    }

    fn diminishing_returns(&self) -> bool {
        self.a.diminishing_returns() && self.b.diminishing_returns()
    }

    fn context_free(&self) -> bool {
        self.a.context_free() && self.b.context_free()
    }

    fn independent(&self, inst: &ProblemInstance, p: &[usize], q: &[usize]) -> bool {
        self.a.independent(inst, p, q) && self.b.independent(inst, p, q)
    }

    fn all_independent(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        d: &[usize],
    ) -> bool {
        self.a.all_independent(inst, candidates, d) && self.b.all_independent(inst, candidates, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::FailureCost;
    use crate::coverage::Coverage;
    use qpo_catalog::{Extent, ProblemInstance, SourceStats};

    fn inst() -> ProblemInstance {
        let src = |s, l, alpha: f64| {
            SourceStats::new()
                .with_extent(Extent::new(s, l))
                .with_transmission_cost(alpha)
        };
        ProblemInstance::new(
            1.0,
            vec![20, 20],
            vec![
                vec![src(0, 8, 0.5), src(5, 8, 1.0), src(14, 6, 0.1)],
                vec![src(0, 10, 0.3), src(9, 10, 0.8)],
            ],
        )
        .unwrap()
    }

    fn combined() -> Combined<Coverage, FailureCost> {
        // Coverage ∈ [0,1]; scale it up so both terms matter.
        Combined::new(Coverage, 100.0, FailureCost::without_caching(), 1.0)
    }

    #[test]
    fn utility_is_the_weighted_sum() {
        let inst = inst();
        let ctx = ExecutionContext::new();
        let m = combined();
        let plan = [0usize, 1];
        let expected = 100.0 * Coverage.utility(&inst, &plan, &ctx)
            + FailureCost::without_caching().utility(&inst, &plan, &ctx);
        assert_eq!(m.utility(&inst, &plan, &ctx), expected);
        assert_eq!(m.weights(), (100.0, 1.0));
        assert_eq!(m.components().0.name(), "coverage");
    }

    #[test]
    fn interval_contains_members_and_is_point_for_concrete() {
        let inst = inst();
        let mut ctx = ExecutionContext::new();
        ctx.record(&[1, 0]);
        let m = combined();
        let cands = vec![vec![0, 1, 2], vec![0, 1]];
        let iv = m.utility_interval(&inst, &cands, &ctx);
        for p in inst.all_plans() {
            let u = m.utility(&inst, &p, &ctx);
            assert!(
                iv.lo() - 1e-9 <= u && u <= iv.hi() + 1e-9,
                "{u} outside {iv} for {p:?}"
            );
        }
        assert!(m
            .utility_interval(&inst, &[vec![2], vec![1]], &ctx)
            .is_point());
    }

    #[test]
    fn structural_properties_compose() {
        let inst = inst();
        let m = combined();
        assert!(m.diminishing_returns(), "both components diminish");
        assert!(!m.is_fully_monotonic(&inst));
        // Independence = conjunction: failure-cost is always independent,
        // so the combined verdict equals coverage's.
        assert_eq!(
            m.independent(&inst, &[0, 0], &[2, 0]),
            Coverage.independent(&inst, &[0, 0], &[2, 0])
        );
        assert!(!m.independent(&inst, &[0, 0], &[1, 0]));
        // With a caching component, diminishing returns is lost.
        let with_cache = Combined::new(Coverage, 1.0, FailureCost::with_caching(), 1.0);
        assert!(!with_cache.diminishing_returns());
    }

    #[test]
    fn zero_weight_erases_a_component() {
        let inst = inst();
        let ctx = ExecutionContext::new();
        let only_cost = Combined::new(Coverage, 0.0, FailureCost::without_caching(), 1.0);
        for p in inst.all_plans() {
            assert_eq!(
                only_cost.utility(&inst, &p, &ctx),
                FailureCost::without_caching().utility(&inst, &p, &ctx)
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn rejects_negative_weights() {
        let _ = Combined::new(Coverage, -1.0, Coverage, 1.0);
    }
}
