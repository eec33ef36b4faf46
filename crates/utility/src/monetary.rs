//! Average monetary cost per output tuple (§6's fourth measure):
//! `u(p) = −Cost(p) / NumOutputTuples(p)`, where `Cost` charges each
//! source's per-tuple fee on the items it ships (computed over the eq. (2)
//! bound-parameter chain, `cost::chain`) and `NumOutputTuples` is the chain's
//! final result size, as in \[23\] (Yerneni et al., EDBT '98).

use crate::context::ExecutionContext;
use crate::cost::{caching, chain};
use crate::measure::{IntervalCarry, UtilityMeasure};
use qpo_catalog::ProblemInstance;
use qpo_interval::Interval;

/// The average-monetary-cost-per-tuple measure, with optional caching of
/// source operations (a cached operation incurs no fee).
///
/// Its [`utility`](UtilityMeasure::utility) is the trait's default, the
/// point of the singleton interval: `fee · (1/out)` as interval division
/// rounds it, which may sit an ulp from `fee / out`. No subgoal is
/// monotonic (the default): a ratio of two source-dependent quantities,
/// replacing a source can raise the numerator and denominator together,
/// so no per-bucket total order exists in general.
#[derive(Debug, Clone, Copy)]
pub struct MonetaryCost {
    caching: bool,
}

impl MonetaryCost {
    /// No-caching variant: context-free, hence fully plan-independent and
    /// (trivially) diminishing-returns; Streamer applies.
    pub fn without_caching() -> Self {
        MonetaryCost { caching: false }
    }

    /// Caching variant: fees are waived for cached operations, so utilities
    /// grow as caches fill — no diminishing returns.
    pub fn with_caching() -> Self {
        MonetaryCost { caching: true }
    }

    /// Whether this variant models caching.
    pub fn caching(&self) -> bool {
        self.caching
    }
}

impl UtilityMeasure for MonetaryCost {
    fn name(&self) -> &'static str {
        if self.caching {
            "monetary+cache"
        } else {
            "monetary"
        }
    }

    fn utility_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
    ) -> Interval {
        // A fee is a slope on the incoming result size (a constant for the
        // first bucket); a waived one is zero.
        let (fee, out) = chain(inst, candidates, |b, i, first| {
            if self.caching && ctx.is_cached(b, i) {
                return (0.0, 0.0);
            }
            let s = &inst.buckets[b][i];
            if first {
                (s.fee_per_tuple * s.tuples, 0.0)
            } else {
                (0.0, s.fee_per_tuple * s.tuples / inst.universes[b] as f64)
            }
        });
        assert!(
            out.lo() > 0.0,
            "candidate plans may produce no tuples; fee/tuple undefined"
        );
        -(fee / out)
    }

    fn resume_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
        carry: &mut IntervalCarry,
    ) -> Interval {
        caching::resume_interval(self, inst, candidates, ctx, carry)
    }

    fn context_free(&self) -> bool {
        !self.caching
    }

    fn independent(&self, _inst: &ProblemInstance, p: &[usize], q: &[usize]) -> bool {
        !self.caching || caching::independent(p, q)
    }

    fn all_independent(&self, _: &ProblemInstance, candidates: &[Vec<usize>], d: &[usize]) -> bool {
        !self.caching || caching::all_independent(candidates, d)
    }

    fn exists_independent(
        &self,
        _: &ProblemInstance,
        candidates: &[Vec<usize>],
        executed: &[Vec<usize>],
    ) -> bool {
        !self.caching || caching::exists_independent(candidates, executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::{Extent, SourceStats};

    fn inst() -> ProblemInstance {
        let src = |n: f64, fee: f64| {
            SourceStats::new()
                .with_extent(Extent::new(0, 10))
                .with_tuples(n)
                .with_fee(fee)
        };
        ProblemInstance::new(
            1.0,
            vec![100, 100],
            vec![
                vec![src(10.0, 0.5), src(40.0, 0.1)],
                vec![src(50.0, 0.2), src(25.0, 0.4)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn hand_computed_ratio() {
        let inst = inst();
        let ctx = ExecutionContext::new();
        // plan [0,0]: fee = 0.5·10 + 0.2·(10·50/100) = 5 + 1 = 6; out = 5,
        // divided as the interval divides: 6 · (1/5), an ulp past 1.2.
        assert_eq!(
            MonetaryCost::without_caching().utility(&inst, &[0, 0], &ctx),
            -(6.0 * (1.0 / 5.0))
        );
        // plan [1,0]: fee = 0.1·40 + 0.2·(40·50/100) = 4 + 4 = 8; out = 20.
        assert_eq!(
            MonetaryCost::without_caching().utility(&inst, &[1, 0], &ctx),
            -0.4
        );
    }

    #[test]
    fn interval_contains_all_members() {
        let inst = inst();
        let ctx = ExecutionContext::new();
        let m = MonetaryCost::without_caching();
        let cands = vec![vec![0, 1], vec![0, 1]];
        let iv = m.utility_interval(&inst, &cands, &ctx);
        for p in inst.all_plans() {
            let u = m.utility(&inst, &p, &ctx);
            assert!(
                iv.lo() - 1e-12 <= u && u <= iv.hi() + 1e-12,
                "utility {u} of {p:?} outside {iv}"
            );
        }
        assert!(m
            .utility_interval(&inst, &[vec![1], vec![1]], &ctx)
            .is_point());
    }

    #[test]
    fn caching_waives_fees() {
        let inst = inst();
        let m = MonetaryCost::with_caching();
        let mut ctx = ExecutionContext::new();
        let before = m.utility(&inst, &[0, 0], &ctx);
        ctx.record(&[0, 1]); // caches (0,0) and (1,1)
        let after = m.utility(&inst, &[0, 0], &ctx);
        // fee drops from 6 to 1 (first term waived); out stays 5.
        assert_eq!(after, -0.2);
        assert!(after > before);
        assert!(!m.diminishing_returns());
        assert!(MonetaryCost::without_caching().diminishing_returns());
    }

    #[test]
    fn caching_interval_soundness_with_context() {
        let inst = inst();
        let m = MonetaryCost::with_caching();
        let mut ctx = ExecutionContext::new();
        ctx.record(&[1, 0]);
        let cands = vec![vec![0, 1], vec![0, 1]];
        let iv = m.utility_interval(&inst, &cands, &ctx);
        for p in inst.all_plans() {
            let u = m.utility(&inst, &p, &ctx);
            assert!(
                iv.lo() - 1e-12 <= u && u <= iv.hi() + 1e-12,
                "utility {u} of {p:?} outside {iv}"
            );
        }
    }

    #[test]
    fn independence_mirrors_cost_caching_semantics() {
        let inst = inst();
        let nc = MonetaryCost::without_caching();
        assert!(nc.independent(&inst, &[0, 0], &[0, 0]));
        assert!(nc.exists_independent(&inst, &[vec![0, 1], vec![0]], &[vec![0, 0]]));
        let c = MonetaryCost::with_caching();
        assert!(!c.independent(&inst, &[0, 0], &[0, 1]));
        assert!(c.independent(&inst, &[0, 0], &[1, 1]));
        assert!(!c.all_independent(&inst, &[vec![0, 1], vec![0]], &[1, 1]));
        assert!(c.all_independent(&inst, &[vec![0], vec![0]], &[1, 1]));
    }

    #[test]
    fn names_and_flags() {
        assert_eq!(MonetaryCost::without_caching().name(), "monetary");
        assert_eq!(MonetaryCost::with_caching().name(), "monetary+cache");
        assert!(!MonetaryCost::without_caching().is_fully_monotonic(&inst()));
        assert!(MonetaryCost::with_caching().caching());
    }
}
