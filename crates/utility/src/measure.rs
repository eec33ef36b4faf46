//! The utility-measure abstraction.
//!
//! A measure assigns each concrete plan a real utility — **higher is
//! better**; cost-like measures return negated costs — that may depend on
//! the execution context (§2's `u(p | p1..pl, Q)`). For the abstraction
//! algorithms it must also evaluate *abstract* plans (one candidate set per
//! bucket) to a sound interval, and answer the structural questions the
//! algorithms key on: plan independence, utility-diminishing returns, and
//! (full) monotonicity.

use crate::context::ExecutionContext;
use crate::geometry::Residual;
use qpo_catalog::{ProblemInstance, SourceRef};
use qpo_interval::Interval;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a measure keeps between two evaluations of one candidate list so
/// the second need not start over: how many executed plans are already
/// folded in, and the fold's running state. Valid only while the history
/// it was advanced over stays a prefix of the context's — `record` only
/// appends; once [`ExecutionContext::retractions`] moves, drop every
/// carry. The default is the fresh carry: nothing folded in.
#[derive(Debug, Clone, Default)]
pub struct IntervalCarry {
    /// Length of the `executed()` prefix folded into `state`.
    seen: usize,
    state: CarryState,
}

/// The running state, one variant per resuming measure.
#[derive(Debug, Clone, Default)]
pub(crate) enum CarryState {
    #[default]
    Fresh,
    /// Abstract coverage, in integer volumes: the box-volume hull and the
    /// Bonferroni accumulators `Σ_e hi(p∩e)` and `max_e lo(p∩e)`.
    Overlap(u128, u128, u128, u128),
    /// Concrete coverage: what is left of the plan's box.
    Residual(Residual),
    /// Caching costs: the interval as of `seen`, which stands until an
    /// appended plan uses one of the candidates.
    Standing(Interval),
    /// [`Combined`](crate::Combined): one carry per component.
    Pair(Box<(IntervalCarry, IntervalCarry)>),
}

impl IntervalCarry {
    /// True iff nothing was ever folded in; a measure that does not
    /// resume leaves every carry fresh.
    pub fn is_fresh(&self) -> bool {
        matches!(self.state, CarryState::Fresh)
    }

    /// The running state (built by `init` on a fresh carry) and the
    /// executed plans not yet folded into it, now marked seen.
    pub(crate) fn resume<'c>(
        &mut self,
        ctx: &'c ExecutionContext,
        init: impl FnOnce() -> CarryState,
    ) -> (&mut CarryState, &'c [Vec<usize>]) {
        if self.is_fresh() {
            self.state = init();
        }
        let unseen = &ctx.executed()[self.seen..];
        self.seen = ctx.len();
        (&mut self.state, unseen)
    }
}

/// A utility measure `u(p | executed, Q)` over a [`ProblemInstance`].
///
/// An orderer drives its measure from one thread (pops are serial), so
/// the trait asks for no thread-safety; a measure shared by orderers on
/// several threads must be `Sync` on its own account (plain data or
/// atomics — see [`CountingMeasure`]).
///
/// # Soundness contracts
///
/// Implementations must uphold:
///
/// - [`utility_interval`](UtilityMeasure::utility_interval) contains
///   [`utility`](UtilityMeasure::utility) of **every** concrete plan in the
///   candidate product, for the same context; for an all-singleton candidate
///   list it must be the exact point. [`Coverage`](crate::Coverage) meets
///   it at tolerance 0; the cost measures' `f64` chains to within rounding.
/// - [`independent`](UtilityMeasure::independent) may only return `true` if
///   neither plan's utility changes when the other is executed (it may
///   return `false` even for independent plans — sound, not complete).
/// - [`all_independent`](UtilityMeasure::all_independent) may only return
///   `true` if **every** concrete plan in the candidate product is
///   independent of `d`.
/// - [`exists_independent`](UtilityMeasure::exists_independent) may only
///   return `true` if **some** concrete plan in the candidate product is
///   independent of every plan in `executed`.
/// - [`diminishing_returns`](UtilityMeasure::diminishing_returns) may only
///   return `true` if no plan's utility can increase as more plans execute.
/// - If [`monotone_subgoals`](UtilityMeasure::monotone_subgoals) is all
///   `true`, then replacing a source by one with a higher
///   [`source_preference`](UtilityMeasure::source_preference) in any plan,
///   under any context, must not lower the plan's utility.
///
/// # Defaults
///
/// A context-free utility never changes as plans execute, so it cannot
/// increase and no plan's execution moves another's. Hence
/// [`diminishing_returns`](UtilityMeasure::diminishing_returns) and the
/// three independence tests default to
/// [`context_free`](UtilityMeasure::context_free), sound either way (the
/// set tests still decide concrete candidates exactly); a measure
/// overrides one only to say more. No subgoal is monotonic by default, and
/// [`utility`](UtilityMeasure::utility) is the point of the plan's
/// singleton interval, which the first contract makes exact.
pub trait UtilityMeasure {
    /// Short identifier used in logs and experiment tables.
    fn name(&self) -> &'static str;

    /// Exact utility of a concrete plan (one source index per bucket).
    /// Default: the point [`utility_interval`](UtilityMeasure::utility_interval)
    /// gives the plan's singleton candidates, so the two agree bit for bit.
    fn utility(&self, inst: &ProblemInstance, plan: &[usize], ctx: &ExecutionContext) -> f64 {
        let singletons: Vec<Vec<usize>> = plan.iter().map(|&i| vec![i]).collect();
        self.utility_interval(inst, &singletons, ctx).lo()
    }

    /// Sound utility interval for an abstract plan (one non-empty candidate
    /// index set per bucket).
    fn utility_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
    ) -> Interval;

    /// [`utility_interval`](UtilityMeasure::utility_interval), picking up
    /// from the state an earlier call for the same `candidates` left in
    /// `carry` (see [`IntervalCarry`]) and leaving its own. Must return
    /// that method's bits; implementations get there by running one fold
    /// step per executed plan from both entry points. The default starts
    /// over and leaves the carry fresh.
    fn resume_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
        _carry: &mut IntervalCarry,
    ) -> Interval {
        self.utility_interval(inst, candidates, ctx)
    }

    /// True iff utilities can never increase as more plans execute.
    /// Default: [`context_free`](UtilityMeasure::context_free).
    fn diminishing_returns(&self) -> bool {
        self.context_free()
    }

    /// True iff utilities do not depend on the execution context at all
    /// (`u(p | E, Q) = u(p | ∅, Q)` for every `E`). Context-free measures
    /// are fully plan-independent and trivially diminishing-returns; they
    /// also permit merging orderings across disjoint plan spaces (§7).
    /// Defaults to `false` (always sound).
    fn context_free(&self) -> bool {
        false
    }

    /// Per-subgoal monotonicity flags (see §3 of the paper). The measure is
    /// *fully monotonic* iff all entries are `true`. Default: all `false`.
    fn monotone_subgoals(&self, inst: &ProblemInstance) -> Vec<bool> {
        vec![false; inst.query_len()]
    }

    /// True iff the measure is monotonic with respect to every subgoal.
    fn is_fully_monotonic(&self, inst: &ProblemInstance) -> bool {
        let flags = self.monotone_subgoals(inst);
        !flags.is_empty() && flags.iter().all(|&b| b)
    }

    /// Ranking key for sources within their bucket: replacing a source by
    /// one with a higher key never lowers plan utility. Only meaningful for
    /// fully monotonic measures; the default panics.
    fn source_preference(&self, _inst: &ProblemInstance, _source: SourceRef) -> f64 {
        unimplemented!("{} is not fully monotonic", self.name())
    }

    /// Sound pairwise independence of two concrete plans. Default:
    /// [`context_free`](UtilityMeasure::context_free).
    fn independent(&self, _inst: &ProblemInstance, _p: &[usize], _q: &[usize]) -> bool {
        self.context_free()
    }

    /// Sound test that *every* concrete plan in `candidates` is independent
    /// of the concrete plan `d`. Default: `true` for a context-free
    /// measure; else exact for concrete candidates, and conservatively
    /// `false` for abstract ones.
    fn all_independent(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        d: &[usize],
    ) -> bool {
        self.context_free()
            || as_concrete(candidates).is_some_and(|p| self.independent(inst, &p, d))
    }

    /// Sound test that *some* concrete plan in `candidates` is independent
    /// of every plan in `executed`. Default: `true` for a context-free
    /// measure; else exact for concrete candidates, and conservatively
    /// `false` for abstract ones.
    fn exists_independent(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        executed: &[Vec<usize>],
    ) -> bool {
        self.context_free()
            || as_concrete(candidates)
                .is_some_and(|p| executed.iter().all(|e| self.independent(inst, &p, e)))
    }
}

/// Every pointer to a measure is that measure: `&M`, `Box<M>`,
/// `Box<dyn UtilityMeasure>`, `Arc<M>`, `&&M` forward every method here.
impl<P> UtilityMeasure for P
where
    P: Deref,
    P::Target: UtilityMeasure,
{
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn utility(&self, inst: &ProblemInstance, plan: &[usize], ctx: &ExecutionContext) -> f64 {
        (**self).utility(inst, plan, ctx)
    }
    fn utility_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
    ) -> Interval {
        (**self).utility_interval(inst, candidates, ctx)
    }
    fn resume_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
        carry: &mut IntervalCarry,
    ) -> Interval {
        (**self).resume_interval(inst, candidates, ctx, carry)
    }
    fn diminishing_returns(&self) -> bool {
        (**self).diminishing_returns()
    }
    fn context_free(&self) -> bool {
        (**self).context_free()
    }
    fn monotone_subgoals(&self, inst: &ProblemInstance) -> Vec<bool> {
        (**self).monotone_subgoals(inst)
    }
    fn is_fully_monotonic(&self, inst: &ProblemInstance) -> bool {
        (**self).is_fully_monotonic(inst)
    }
    fn source_preference(&self, inst: &ProblemInstance, source: SourceRef) -> f64 {
        (**self).source_preference(inst, source)
    }
    fn independent(&self, inst: &ProblemInstance, p: &[usize], q: &[usize]) -> bool {
        (**self).independent(inst, p, q)
    }
    fn all_independent(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        d: &[usize],
    ) -> bool {
        (**self).all_independent(inst, candidates, d)
    }
    fn exists_independent(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        executed: &[Vec<usize>],
    ) -> bool {
        (**self).exists_independent(inst, candidates, executed)
    }
}

/// If every candidate set is a singleton, returns the concrete plan.
pub fn as_concrete(candidates: &[Vec<usize>]) -> Option<Vec<usize>> {
    candidates
        .iter()
        .map(|c| if c.len() == 1 { Some(c[0]) } else { None })
        .collect()
}

/// Decorator counting evaluations — the "number of plans evaluated" metric
/// the paper's discussion of Figure 6 relies on.
///
/// Counters are atomic so the decorator is [`Sync`] when its inner measure
/// is, and counts stay exact when orderers on several threads share one.
pub struct CountingMeasure<M> {
    inner: M,
    concrete_evals: AtomicU64,
    interval_evals: AtomicU64,
}

impl<M: UtilityMeasure> CountingMeasure<M> {
    /// Wraps a measure with zeroed counters.
    pub fn new(inner: M) -> Self {
        CountingMeasure {
            inner,
            concrete_evals: AtomicU64::new(0),
            interval_evals: AtomicU64::new(0),
        }
    }

    /// Concrete-plan evaluations so far.
    pub fn concrete_evals(&self) -> u64 {
        self.concrete_evals.load(Ordering::Relaxed)
    }

    /// Abstract-plan (interval) evaluations so far, resumed or not.
    pub fn interval_evals(&self) -> u64 {
        self.interval_evals.load(Ordering::Relaxed)
    }

    /// Total evaluations (the paper counts both: "evaluating an abstract
    /// plan is just slightly more expensive than evaluating a concrete
    /// plan", §5.1).
    pub fn total_evals(&self) -> u64 {
        self.concrete_evals() + self.interval_evals()
    }

    /// Resets both counters.
    pub fn reset(&self) {
        self.concrete_evals.store(0, Ordering::Relaxed);
        self.interval_evals.store(0, Ordering::Relaxed);
    }

    /// The wrapped measure.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: UtilityMeasure> UtilityMeasure for CountingMeasure<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn utility(&self, inst: &ProblemInstance, plan: &[usize], ctx: &ExecutionContext) -> f64 {
        self.concrete_evals.fetch_add(1, Ordering::Relaxed);
        self.inner.utility(inst, plan, ctx)
    }

    fn utility_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
    ) -> Interval {
        self.interval_evals.fetch_add(1, Ordering::Relaxed);
        self.inner.utility_interval(inst, candidates, ctx)
    }

    fn resume_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
        carry: &mut IntervalCarry,
    ) -> Interval {
        self.interval_evals.fetch_add(1, Ordering::Relaxed);
        self.inner.resume_interval(inst, candidates, ctx, carry)
    }

    fn diminishing_returns(&self) -> bool {
        self.inner.diminishing_returns()
    }

    fn context_free(&self) -> bool {
        self.inner.context_free()
    }

    fn monotone_subgoals(&self, inst: &ProblemInstance) -> Vec<bool> {
        self.inner.monotone_subgoals(inst)
    }

    fn source_preference(&self, inst: &ProblemInstance, source: SourceRef) -> f64 {
        self.inner.source_preference(inst, source)
    }

    fn independent(&self, inst: &ProblemInstance, p: &[usize], q: &[usize]) -> bool {
        self.inner.independent(inst, p, q)
    }

    fn all_independent(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        d: &[usize],
    ) -> bool {
        self.inner.all_independent(inst, candidates, d)
    }

    fn exists_independent(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        executed: &[Vec<usize>],
    ) -> bool {
        self.inner.exists_independent(inst, candidates, executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::{Extent, SourceStats};

    /// A toy measure for exercising trait defaults: utility = −Σ access
    /// cost, context-free.
    struct Toy;

    impl UtilityMeasure for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn utility(&self, inst: &ProblemInstance, plan: &[usize], _ctx: &ExecutionContext) -> f64 {
            -inst
                .plan_stats(plan)
                .iter()
                .map(|s| s.access_cost)
                .sum::<f64>()
        }
        fn utility_interval(
            &self,
            inst: &ProblemInstance,
            candidates: &[Vec<usize>],
            _ctx: &ExecutionContext,
        ) -> Interval {
            let mut lo = 0.0;
            let mut hi = 0.0;
            for (b, cands) in candidates.iter().enumerate() {
                let costs = cands.iter().map(|&i| inst.buckets[b][i].access_cost);
                lo -= costs.clone().fold(f64::MIN, f64::max);
                hi -= costs.fold(f64::MAX, f64::min);
            }
            Interval::new(lo, hi)
        }
        fn diminishing_returns(&self) -> bool {
            true
        }
        fn monotone_subgoals(&self, inst: &ProblemInstance) -> Vec<bool> {
            vec![true; inst.query_len()]
        }
        fn source_preference(&self, inst: &ProblemInstance, source: SourceRef) -> f64 {
            -inst.stat(source).access_cost
        }
        fn independent(&self, _inst: &ProblemInstance, _p: &[usize], _q: &[usize]) -> bool {
            true
        }
    }

    fn inst() -> ProblemInstance {
        let src = |c: f64| {
            SourceStats::new()
                .with_extent(Extent::new(0, 10))
                .with_access_cost(c)
        };
        ProblemInstance::new(
            0.0,
            vec![100, 100],
            vec![vec![src(1.0), src(2.0)], vec![src(3.0), src(4.0)]],
        )
        .unwrap()
    }

    #[test]
    fn as_concrete_detects_singletons() {
        assert_eq!(as_concrete(&[vec![3], vec![1]]), Some(vec![3, 1]));
        assert_eq!(as_concrete(&[vec![3], vec![1, 2]]), None);
        assert_eq!(as_concrete(&[]), Some(vec![]));
    }

    #[test]
    fn default_abstract_independence_is_conservative() {
        let inst = inst();
        let toy = Toy;
        // Concrete candidates reduce to the pairwise test.
        assert!(toy.all_independent(&inst, &[vec![0], vec![0]], &[1, 1]));
        assert!(toy.exists_independent(&inst, &[vec![0], vec![0]], &[vec![1, 1]]));
        // Genuinely abstract candidates: defaults answer false.
        assert!(!toy.all_independent(&inst, &[vec![0, 1], vec![0]], &[1, 1]));
        assert!(!toy.exists_independent(&inst, &[vec![0, 1], vec![0]], &[]));
    }

    #[test]
    fn fully_monotonic_flag() {
        let inst = inst();
        assert!(Toy.is_fully_monotonic(&inst));
        assert_eq!(Toy.source_preference(&inst, SourceRef::new(0, 1)), -2.0);
    }

    #[test]
    fn counting_decorator_counts() {
        let inst = inst();
        let m = CountingMeasure::new(Toy);
        let ctx = ExecutionContext::new();
        assert_eq!(m.total_evals(), 0);
        let u = m.utility(&inst, &[0, 0], &ctx);
        assert_eq!(u, -4.0);
        let iv = m.utility_interval(&inst, &[vec![0, 1], vec![0, 1]], &ctx);
        assert!(iv.contains(u));
        assert_eq!(m.concrete_evals(), 1);
        assert_eq!(m.interval_evals(), 1);
        assert_eq!(m.total_evals(), 2);
        m.reset();
        assert_eq!(m.total_evals(), 0);
        assert_eq!(m.name(), "toy");
        assert!(m.diminishing_returns());
        assert!(m.is_fully_monotonic(&inst));
        assert!(m.independent(&inst, &[0, 0], &[1, 1]));
        assert_eq!(m.inner().name(), "toy");
    }

    /// Answers every method with something its default would not give,
    /// so a pointer that falls back on a default instead of forwarding
    /// answers differently.
    struct Probe;

    impl UtilityMeasure for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn utility(&self, _: &ProblemInstance, _: &[usize], _: &ExecutionContext) -> f64 {
            7.0
        }
        fn utility_interval(
            &self,
            _: &ProblemInstance,
            _: &[Vec<usize>],
            _: &ExecutionContext,
        ) -> Interval {
            Interval::new(1.0, 2.0)
        }
        fn resume_interval(
            &self,
            _: &ProblemInstance,
            _: &[Vec<usize>],
            _: &ExecutionContext,
            carry: &mut IntervalCarry,
        ) -> Interval {
            carry.state = CarryState::Standing(Interval::point(3.0));
            Interval::new(3.0, 4.0)
        }
        fn diminishing_returns(&self) -> bool {
            false
        }
        fn context_free(&self) -> bool {
            true
        }
        fn monotone_subgoals(&self, inst: &ProblemInstance) -> Vec<bool> {
            vec![true; inst.query_len()]
        }
        fn is_fully_monotonic(&self, _: &ProblemInstance) -> bool {
            false
        }
        fn source_preference(&self, _: &ProblemInstance, _: SourceRef) -> f64 {
            5.0
        }
        fn independent(&self, _: &ProblemInstance, _: &[usize], _: &[usize]) -> bool {
            false
        }
        fn all_independent(&self, _: &ProblemInstance, _: &[Vec<usize>], _: &[usize]) -> bool {
            false
        }
        fn exists_independent(
            &self,
            _: &ProblemInstance,
            _: &[Vec<usize>],
            _: &[Vec<usize>],
        ) -> bool {
            false
        }
    }

    /// Every answer `m` gives on one fixed input, method by method.
    fn answers<M: UtilityMeasure + ?Sized>(m: &M) -> Vec<String> {
        let inst = inst();
        let ctx = ExecutionContext::new();
        let cands = [vec![0, 1], vec![0]];
        let mut carry = IntervalCarry::default();
        let resumed = m.resume_interval(&inst, &cands, &ctx, &mut carry);
        vec![
            m.name().to_string(),
            format!("{:?}", m.utility(&inst, &[0, 0], &ctx)),
            format!("{:?}", m.utility_interval(&inst, &cands, &ctx)),
            format!("{resumed:?} {:?}", carry.state),
            format!("{:?}", m.diminishing_returns()),
            format!("{:?}", m.context_free()),
            format!("{:?}", m.monotone_subgoals(&inst)),
            format!("{:?}", m.is_fully_monotonic(&inst)),
            format!("{:?}", m.source_preference(&inst, SourceRef::new(0, 1))),
            format!("{:?}", m.independent(&inst, &[0, 0], &[1, 1])),
            format!(
                "{:?}",
                m.all_independent(&inst, &[vec![0], vec![0]], &[1, 1])
            ),
            format!(
                "{:?}",
                m.exists_independent(&inst, &[vec![0], vec![0]], &[])
            ),
        ]
    }

    #[test]
    fn pointers_forward_every_method() {
        let want = answers(&Probe);
        let boxed: Box<dyn UtilityMeasure> = Box::new(Probe);
        assert_eq!(answers(&&Probe), want, "&P");
        assert_eq!(answers(&&&Probe), want, "&&P");
        assert_eq!(answers(&Box::new(Probe)), want, "Box<P>");
        assert_eq!(answers(&boxed), want, "Box<dyn UtilityMeasure>");
        assert_eq!(answers(&std::sync::Arc::new(Probe)), want, "Arc<P>");
    }

    #[test]
    fn toy_interval_contains_all_members() {
        let inst = inst();
        let ctx = ExecutionContext::new();
        let cands = vec![vec![0, 1], vec![0, 1]];
        let iv = Toy.utility_interval(&inst, &cands, &ctx);
        for p in inst.all_plans() {
            assert!(iv.contains(Toy.utility(&inst, &p, &ctx)), "{p:?}");
        }
    }
}
