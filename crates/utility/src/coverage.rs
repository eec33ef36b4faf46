//! Plan coverage (§2, Example 2.1): the probability that a random answer
//! tuple is returned by this plan and by no previously executed plan.
//!
//! Under the extent/box model (see [`crate::geometry`]): the coverage of
//! plan `p` given executed plans `E` is
//! `vol(box_p \ ∪_{e∈E} box_e) / Π_b N_b`. Coverage exhibits
//! *utility-diminishing returns* (executing more plans can only shrink what
//! is new) and plans with disjoint boxes are *independent* — both exactly
//! the properties §3 of the paper derives for its coverage measure.
//! Abstract bounds are integer volumes normalized once, as a concrete
//! plan's are, so they enclose every member bit for bit (tolerance 0).

use crate::context::ExecutionContext;
use crate::geometry::Residual;
use crate::measure::{as_concrete, CarryState, IntervalCarry, UtilityMeasure};
use qpo_catalog::{Extent, ProblemInstance};
use qpo_interval::Interval;

/// The plan-coverage utility measure.
///
/// No subgoal is monotonic (the trait's default): coverage depends on
/// overlap structure, not a per-bucket total order, so replacing a source
/// can help in one plan and hurt in another.
#[derive(Debug, Clone, Copy, Default)]
pub struct Coverage;

impl Coverage {
    fn extent(inst: &ProblemInstance, bucket: usize, index: usize) -> Extent {
        inst.buckets[bucket][index].extent
    }

    fn total_volume(inst: &ProblemInstance) -> f64 {
        inst.universes.iter().map(|&u| u as f64).product()
    }

    /// What is left of a concrete plan's box before anything executed.
    fn plan_residual(inst: &ProblemInstance, plan: &[usize]) -> Residual {
        let extents = plan.iter().enumerate();
        Residual::new(extents.map(|(b, &i)| Self::extent(inst, b, i)))
    }

    /// The concrete fold step: cuts executed plan `e`'s box out of what is
    /// left of `plan`'s. A box that misses `plan`'s costs the overlap test.
    fn subtract_plan(
        &self,
        inst: &ProblemInstance,
        plan: &[usize],
        left: &mut Residual,
        e: &[usize],
    ) {
        if !self.independent(inst, plan, e) {
            left.subtract(|b| Self::extent(inst, b, e[b]));
        }
    }

    /// `(Π_b min, Π_b max)` of `len(b, i)` over each bucket's candidates.
    fn volume_hull(candidates: &[Vec<usize>], len: impl Fn(usize, usize) -> u64) -> (u128, u128) {
        let mut hull = (1, 1);
        for (b, cands) in candidates.iter().enumerate() {
            let lens = cands.iter().map(|&i| len(b, i) as u128);
            hull.0 *= lens.clone().min().unwrap_or(0);
            hull.1 *= lens.max().unwrap_or(0);
        }
        hull
    }
}

impl UtilityMeasure for Coverage {
    fn name(&self) -> &'static str {
        "coverage"
    }

    fn utility(&self, inst: &ProblemInstance, plan: &[usize], ctx: &ExecutionContext) -> f64 {
        let mut left = Self::plan_residual(inst, plan);
        for e in ctx.executed() {
            self.subtract_plan(inst, plan, &mut left, e);
        }
        left.volume() as f64 / Self::total_volume(inst)
    }

    fn utility_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
    ) -> Interval {
        self.resume_interval(inst, candidates, ctx, &mut IntervalCarry::default())
    }

    /// Sound interval via per-axis candidate ranges and Bonferroni bounds:
    /// for any member plan `s`,
    /// `max_e vol(s∩e) ≤ vol(s ∩ ∪E) ≤ Σ_e vol(s∩e)`, so
    /// `coverage(s) ∈ [vol_lo(p) − Σ_e hi(p∩e),  vol_hi(p) − max_e lo(p∩e)]`
    /// (clamped to non-negative). Both accumulators — and, for a concrete
    /// plan, the exact residual box — are left-to-right folds over the
    /// executed plans, so the carry holds them and a resumed call folds in
    /// the appended plans only.
    fn resume_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
        carry: &mut IntervalCarry,
    ) -> Interval {
        const MISMATCH: &str = "carry belongs to another candidate list";
        if let Some(plan) = as_concrete(candidates) {
            let init = || CarryState::Residual(Self::plan_residual(inst, &plan));
            let (CarryState::Residual(left), unseen) = carry.resume(ctx, init) else {
                unreachable!("{MISMATCH}");
            };
            for e in unseen {
                self.subtract_plan(inst, &plan, left, e);
            }
            return Interval::point(left.volume() as f64 / Self::total_volume(inst));
        }
        let init = || {
            let (lo, hi) = Self::volume_hull(candidates, |b, i| Self::extent(inst, b, i).len);
            CarryState::Overlap(lo, hi, 0, 0)
        };
        let (CarryState::Overlap(vol_lo, vol_hi, hi_sum, lo_max), unseen) = carry.resume(ctx, init)
        else {
            unreachable!("{MISMATCH}");
        };
        for e in unseen {
            let shared_len = |b, i| {
                Self::extent(inst, b, i)
                    .intersect(Self::extent(inst, b, e[b]))
                    .len
            };
            let (ov_lo, ov_hi) = Self::volume_hull(candidates, shared_len);
            *hi_sum = hi_sum.saturating_add(ov_hi);
            *lo_max = (*lo_max).max(ov_lo);
        }
        // `lo_max ≤ hi_sum` and `vol_lo ≤ vol_hi`, so `lo ≤ hi`.
        let total = Self::total_volume(inst);
        let lo = vol_lo.saturating_sub(*hi_sum) as f64 / total;
        let hi = vol_hi.saturating_sub(*lo_max) as f64 / total;
        Interval::new(lo, hi)
    }

    fn diminishing_returns(&self) -> bool {
        true
    }

    /// Exact under the box model: disjoint boxes cannot affect each other's
    /// residual volume.
    fn independent(&self, inst: &ProblemInstance, p: &[usize], q: &[usize]) -> bool {
        p.iter()
            .zip(q)
            .enumerate()
            .any(|(b, (&i, &j))| !Self::extent(inst, b, i).overlaps(Self::extent(inst, b, j)))
    }

    /// Every member of the abstract plan is independent of `d` if on some
    /// axis *all* candidates are disjoint from `d`'s extent.
    fn all_independent(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        d: &[usize],
    ) -> bool {
        candidates.iter().enumerate().any(|(b, cands)| {
            let d_ext = Self::extent(inst, b, d[b]);
            cands
                .iter()
                .all(|&i| !Self::extent(inst, b, i).overlaps(d_ext))
        })
    }

    /// Greedy per-axis witness construction: choose on each axis the
    /// candidate disjoint from the most remaining executed plans; the
    /// resulting member plan is independent of every executed plan it
    /// "kills" on some axis. Sound and incomplete, as §3 allows.
    fn exists_independent(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        executed: &[Vec<usize>],
    ) -> bool {
        let mut remaining: Vec<&Vec<usize>> = executed.iter().collect();
        if remaining.is_empty() {
            return true;
        }
        for (b, cands) in candidates.iter().enumerate() {
            let kills = |i: usize, e: &Vec<usize>| {
                !Self::extent(inst, b, i).overlaps(Self::extent(inst, b, e[b]))
            };
            let best = cands
                .iter()
                .max_by_key(|&&i| remaining.iter().filter(|e| kills(i, e)).count());
            if let Some(&i) = best {
                remaining.retain(|e| !kills(i, e));
                if remaining.is_empty() {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::SourceStats;

    /// 2 buckets over universes of 10; extents chosen for hand-computable
    /// volumes.
    fn inst() -> ProblemInstance {
        let src = |s, l| SourceStats::new().with_extent(Extent::new(s, l));
        ProblemInstance::new(
            0.0,
            vec![10, 10],
            vec![
                vec![src(0, 4), src(2, 4), src(8, 2)],
                vec![src(0, 5), src(5, 5)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn first_plan_coverage_is_box_volume() {
        let inst = inst();
        let ctx = ExecutionContext::new();
        // box = [0,4) x [0,5): 20 cells of 100.
        assert_eq!(Coverage.utility(&inst, &[0, 0], &ctx), 0.20);
        assert_eq!(Coverage.utility(&inst, &[2, 1], &ctx), 0.10);
    }

    #[test]
    fn coverage_shrinks_after_overlapping_execution() {
        let inst = inst();
        let mut ctx = ExecutionContext::new();
        ctx.record(&[0, 0]);
        // [2,6) x [0,5) minus [0,4) x [0,5): remaining [4,6) x [0,5) = 10.
        assert_eq!(Coverage.utility(&inst, &[1, 0], &ctx), 0.10);
        // A disjoint plan is unaffected.
        assert_eq!(Coverage.utility(&inst, &[2, 1], &ctx), 0.10);
        // Executing the same plan again yields zero new coverage.
        assert_eq!(Coverage.utility(&inst, &[0, 0], &ctx), 0.0);
    }

    #[test]
    fn diminishing_returns_holds_empirically() {
        let inst = inst();
        let plan = [1, 0];
        let mut ctx = ExecutionContext::new();
        let mut prev = Coverage.utility(&inst, &plan, &ctx);
        for e in [[0, 0], [2, 1], [0, 1]] {
            ctx.record(&e);
            let now = Coverage.utility(&inst, &plan, &ctx);
            assert!(now <= prev, "coverage increased after executing {e:?}");
            prev = now;
        }
        assert!(Coverage.diminishing_returns());
    }

    #[test]
    fn independence_is_exact_for_disjoint_boxes() {
        let inst = inst();
        // axis 0: [0,4) vs [8,10) disjoint → independent.
        assert!(Coverage.independent(&inst, &[0, 0], &[2, 0]));
        // overlapping on both axes → dependent.
        assert!(!Coverage.independent(&inst, &[0, 0], &[1, 0]));
        // disjoint on axis 1 → independent.
        assert!(Coverage.independent(&inst, &[0, 0], &[1, 1]));
    }

    #[test]
    fn interval_is_point_for_concrete() {
        let inst = inst();
        let mut ctx = ExecutionContext::new();
        ctx.record(&[0, 0]);
        ctx.record(&[2, 1]);
        let iv = Coverage.utility_interval(&inst, &[vec![1], vec![0]], &ctx);
        assert!(iv.is_point());
        assert_eq!(iv.lo(), Coverage.utility(&inst, &[1, 0], &ctx));
    }

    #[test]
    fn interval_contains_all_members_under_context() {
        let inst = inst();
        let mut ctx = ExecutionContext::new();
        for e in [[0usize, 0usize], [1, 1]] {
            ctx.record(&e);
        }
        let cands = vec![vec![0, 1, 2], vec![0, 1]];
        let iv = Coverage.utility_interval(&inst, &cands, &ctx);
        for &i in &cands[0] {
            for &j in &cands[1] {
                let u = Coverage.utility(&inst, &[i, j], &ctx);
                assert!(
                    iv.lo() <= u && u <= iv.hi(),
                    "utility {u} of [{i},{j}] outside {iv}"
                );
            }
        }
    }

    /// The `serve-mix` benchmark's shape: 3 buckets × 6 sources of length
    /// 160, starts staggered by 4, in a universe of 2000 per axis. Every
    /// plan's box has volume `160³`, and the root interval must enclose
    /// that exactly — a product of `f64` fractions lands one ulp above.
    #[test]
    fn root_interval_encloses_equal_volume_members_exactly() {
        let src = |b: u64, j: u64| SourceStats::new().with_extent(Extent::new(4 * j + b, 160));
        let buckets = (0..3)
            .map(|b| (0..6).map(|j| src(b, j)).collect())
            .collect();
        let inst = ProblemInstance::new(0.0, vec![2000; 3], buckets).unwrap();
        let root = vec![(0..6).collect::<Vec<usize>>(); 3];
        let mut ctx = ExecutionContext::new();
        for executed in [None, Some([0, 5, 2]), Some([3, 3, 3])] {
            if let Some(e) = executed {
                ctx.record(&e);
            }
            let iv = Coverage.utility_interval(&inst, &root, &ctx);
            for plan in inst.all_plans() {
                let u = Coverage.utility(&inst, &plan, &ctx);
                assert!(
                    iv.lo() <= u && u <= iv.hi(),
                    "utility {u} of {plan:?} outside {iv} after {} plans",
                    ctx.len()
                );
            }
        }
        let fresh = Coverage.utility_interval(&inst, &root, &ExecutionContext::new());
        assert!(fresh.is_point() && fresh.lo() == 0.000512, "{fresh}");
    }

    #[test]
    fn all_independent_needs_a_fully_disjoint_axis() {
        let inst = inst();
        // Candidates {0,1} on axis 0 both overlap d=[1,0]'s extent [2,6).
        assert!(!Coverage.all_independent(&inst, &[vec![0, 1], vec![0]], &[1, 0]));
        // But axis 1 candidate {0}=[0,5) is disjoint from d=[*,1]'s [5,10).
        assert!(Coverage.all_independent(&inst, &[vec![0, 1], vec![0]], &[1, 1]));
    }

    #[test]
    fn exists_independent_finds_witnesses_across_axes() {
        let inst = inst();
        // Executed: e1=[0,0] and e2=[0,1]. Candidate set: axis0 {2} kills
        // both on axis 0 (extent [8,10) disjoint from [0,4)).
        assert!(Coverage.exists_independent(
            &inst,
            &[vec![2], vec![0, 1]],
            &[vec![0, 0], vec![0, 1]]
        ));
        // Candidates {0,1} on axis 0 overlap e=[1,*]; axis 1 {0} vs e_1=0
        // also overlaps → no witness.
        assert!(!Coverage.exists_independent(&inst, &[vec![0, 1], vec![0]], &[vec![1, 0]]));
        // Empty executed set: trivially true.
        assert!(Coverage.exists_independent(&inst, &[vec![0, 1], vec![0]], &[]));
    }

    #[test]
    fn not_monotonic() {
        let inst = inst();
        assert!(!Coverage.is_fully_monotonic(&inst));
    }
}
