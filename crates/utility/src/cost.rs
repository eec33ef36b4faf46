//! Transmission-cost utility measures (§3 of the paper), and the
//! bound-parameter chain every chain-shaped measure prices plans with.
//!
//! `chain` is the *bound-parameter chain* estimate of intermediate
//! result sizes: the first source returns `r̂_0 = n_0` items; source
//! `i > 0` is probed with the `r_{i-1}` items produced so far and returns
//! `r̂_i = r_{i-1}·n_i/N_i` (eq. (2)'s `n_j·n_i/N`, generalized to query
//! length `m`). Utilities are negated costs so that higher is better.
//!
//! - [`LinearCost`] — eq. (1): `Σ (h + α_i·n_i)`; *fully monotonic*.
//! - [`FusionCost`] — eq. (2): `Σ (h + α_i·r̂_i)`; monotonic w.r.t. the
//!   last subgoal, and w.r.t. earlier ones only when their bucket's `α`s
//!   coincide (§3's observation).
//! - [`FailureCost`] — eq. (2) with source failure: each term is multiplied
//!   by the expected number of attempts `1/(1−f_i)`; optional *caching*
//!   zeroes the term of an already-cached source operation, which breaks
//!   both plan independence and diminishing returns (§6). `caching` is
//!   that model, shared with [`MonetaryCost`](crate::MonetaryCost).

use crate::context::ExecutionContext;
use crate::measure::{IntervalCarry, UtilityMeasure};
use qpo_catalog::{ProblemInstance, SourceRef};
use qpo_interval::Interval;

/// Per-bucket term computation for chain-shaped costs.
///
/// For bucket `b` with incoming-result interval `r_prev` (`None` for the
/// first bucket), each candidate contributes a term that is affine in the
/// incoming result size; `term_of` returns `(constant, slope)` for a
/// candidate, and the bucket term interval is the hull over candidates with
/// `r_prev` at its extremes (slopes are non-negative, so the extremes are
/// attained at the interval endpoints).
fn bucket_term(
    cands: &[usize],
    r_prev: Option<Interval>,
    mut term_of: impl FnMut(usize) -> (f64, f64),
) -> Interval {
    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    for &i in cands {
        let (constant, slope) = term_of(i);
        debug_assert!(slope >= 0.0, "chain slopes must be non-negative");
        let (t_lo, t_hi) = match r_prev {
            None => (constant, constant),
            Some(r) => (constant + slope * r.lo(), constant + slope * r.hi()),
        };
        lo = lo.min(t_lo);
        hi = hi.max(t_hi);
    }
    Interval::new(lo, hi)
}

/// The bound-parameter chain over a candidate product: the sum of the
/// per-bucket [`bucket_term`]s, and the interval of the chain's final
/// result size `r̂_{m-1}` (zero for no buckets). `term_of(b, i, first)`
/// gives candidate `i` of bucket `b` its `(constant, slope)`; `first` says
/// `b` is the first bucket, which has no incoming result. Data flows out
/// of every operation, cached or not: only its term can vanish.
pub(crate) fn chain(
    inst: &ProblemInstance,
    candidates: &[Vec<usize>],
    mut term_of: impl FnMut(usize, usize, bool) -> (f64, f64),
) -> (Interval, Interval) {
    let mut total = Interval::ZERO;
    let mut r_prev: Option<Interval> = None;
    for (b, cands) in candidates.iter().enumerate() {
        total = total + bucket_term(cands, r_prev, |i| term_of(b, i, r_prev.is_none()));
        let n = |i: usize| inst.buckets[b][i].tuples;
        let n_lo = cands.iter().map(|&i| n(i)).fold(f64::MAX, f64::min);
        let n_hi = cands.iter().map(|&i| n(i)).fold(f64::MIN, f64::max);
        r_prev = Some(match r_prev {
            None => Interval::new(n_lo, n_hi),
            Some(r) => {
                let universe = inst.universes[b] as f64;
                Interval::new(r.lo() * n_lo / universe, r.hi() * n_hi / universe)
            }
        });
    }
    (total, r_prev.unwrap_or(Interval::ZERO))
}

/// The caching model of §6, shared by the caching variants of
/// [`FailureCost`] and [`MonetaryCost`](crate::MonetaryCost): one
/// operation per `(bucket, source)`, and a cached operation is free. Two
/// plans are dependent iff some bucket uses the same source in both.
pub(crate) mod caching {
    use super::*;
    use crate::measure::CarryState;

    /// No bucket uses the same source in `p` and `q`.
    pub(crate) fn independent(p: &[usize], q: &[usize]) -> bool {
        p.iter().zip(q).all(|(a, b)| a != b)
    }

    /// No candidate is the source `d` uses in its bucket.
    pub(crate) fn all_independent(candidates: &[Vec<usize>], d: &[usize]) -> bool {
        candidates
            .iter()
            .zip(d)
            .all(|(cands, &di)| !cands.contains(&di))
    }

    /// Exact: pick per bucket any candidate unused by every executed plan
    /// at that bucket.
    pub(crate) fn exists_independent(candidates: &[Vec<usize>], executed: &[Vec<usize>]) -> bool {
        candidates
            .iter()
            .enumerate()
            .all(|(b, cands)| cands.iter().any(|&i| executed.iter().all(|e| e[b] != i)))
    }

    /// A caching measure reads the context only through `is_cached(b, i)`
    /// for `i ∈ candidates[b]`: exactly what `all_independent` tests. So
    /// the carried interval stands until an appended plan uses a candidate
    /// source, and is recomputed from scratch then (or on a fresh carry).
    pub(crate) fn resume_interval<M: UtilityMeasure + ?Sized>(
        m: &M,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
        carry: &mut IntervalCarry,
    ) -> Interval {
        let stale = carry.is_fresh();
        let init = || CarryState::Standing(Interval::ZERO);
        let (CarryState::Standing(interval), unseen) = carry.resume(ctx, init) else {
            unreachable!("carry belongs to another measure");
        };
        if stale
            || unseen
                .iter()
                .any(|e| !m.all_independent(inst, candidates, e))
        {
            *interval = m.utility_interval(inst, candidates, ctx);
        }
        *interval
    }
}

/// Eq. (1): `cost = Σ_i (h + α_i·n_i)` — retrieve everything, join at the
/// mediator. Fully monotonic; the paper's example of a measure Greedy
/// handles in time linear in the number of sources (§4).
#[derive(Debug, Clone, Copy, Default)]
pub struct LinearCost;

impl LinearCost {
    /// Creates the measure.
    pub fn new() -> Self {
        LinearCost
    }

    fn term(&self, inst: &ProblemInstance, bucket: usize, index: usize) -> f64 {
        let s = &inst.buckets[bucket][index];
        inst.overhead + s.transmission_cost * s.tuples
    }
}

impl UtilityMeasure for LinearCost {
    fn name(&self) -> &'static str {
        "linear-cost"
    }

    fn utility(&self, inst: &ProblemInstance, plan: &[usize], _ctx: &ExecutionContext) -> f64 {
        -plan
            .iter()
            .enumerate()
            .map(|(b, &i)| self.term(inst, b, i))
            .sum::<f64>()
    }

    fn utility_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        _ctx: &ExecutionContext,
    ) -> Interval {
        let cost: Interval = candidates
            .iter()
            .enumerate()
            .map(|(b, cands)| bucket_term(cands, None, |i| (self.term(inst, b, i), 0.0)))
            .sum();
        -cost
    }

    fn context_free(&self) -> bool {
        true
    }

    fn monotone_subgoals(&self, inst: &ProblemInstance) -> Vec<bool> {
        vec![true; inst.query_len()]
    }

    fn source_preference(&self, inst: &ProblemInstance, source: SourceRef) -> f64 {
        -self.term(inst, source.bucket, source.index)
    }
}

/// Eq. (2): `cost = Σ_i (h + α_i·r̂_i)` — bound-parameter joins pushed to
/// the sources, with transmission costs varying across sources.
#[derive(Debug, Clone, Copy, Default)]
pub struct FusionCost;

impl FusionCost {
    /// Creates the measure.
    pub fn new() -> Self {
        FusionCost
    }

    /// True iff all sources in `bucket` share the same transmission cost —
    /// the condition under which eq. (2) is monotonic w.r.t. a non-final
    /// subgoal (§3).
    fn uniform_alpha(inst: &ProblemInstance, bucket: usize) -> bool {
        let mut it = inst.buckets[bucket].iter().map(|s| s.transmission_cost);
        match it.next() {
            None => true,
            Some(first) => it.all(|a| a == first),
        }
    }
}

impl UtilityMeasure for FusionCost {
    fn name(&self) -> &'static str {
        "fusion-cost"
    }

    fn context_free(&self) -> bool {
        true
    }

    fn utility_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        _ctx: &ExecutionContext,
    ) -> Interval {
        let (cost, _) = chain(inst, candidates, |b, i, first| {
            let s = &inst.buckets[b][i];
            if first {
                (inst.overhead + s.transmission_cost * s.tuples, 0.0)
            } else {
                let universe = inst.universes[b] as f64;
                (inst.overhead, s.transmission_cost * s.tuples / universe)
            }
        });
        -cost
    }

    fn monotone_subgoals(&self, inst: &ProblemInstance) -> Vec<bool> {
        let last = inst.query_len().saturating_sub(1);
        (0..inst.query_len())
            .map(|b| b == last || Self::uniform_alpha(inst, b))
            .collect()
    }

    fn source_preference(&self, inst: &ProblemInstance, source: SourceRef) -> f64 {
        let s = inst.stat(source);
        if source.bucket + 1 == inst.query_len() {
            // Only the own term depends on this source: order by α·n.
            -s.transmission_cost * s.tuples
        } else {
            // Monotonic only under uniform α: order by n (downstream flow).
            -s.tuples
        }
    }
}

/// Eq. (2) with source failure and optional result caching (§6's "cost with
/// probability of source failure"). Each access is retried until success,
/// multiplying its term by `1/(1−f_i)`; with `caching`, the term of a
/// source operation whose result is cached is zero.
///
/// No subgoal is monotonic (the trait's default): the attempts multiplier
/// couples the overhead and transmission terms, so no per-bucket total
/// order exists in general (sound: Greedy simply does not apply).
#[derive(Debug, Clone, Copy)]
pub struct FailureCost {
    caching: bool,
}

impl FailureCost {
    /// The no-caching variant: full plan independence, diminishing returns
    /// holds (utilities are context-free), Streamer applies.
    pub fn without_caching() -> Self {
        FailureCost { caching: false }
    }

    /// The caching variant: plans sharing a source operation are dependent
    /// and utilities *increase* as caches fill, so diminishing returns does
    /// not hold and Streamer is inapplicable (§6, Figures 6.g–i).
    pub fn with_caching() -> Self {
        FailureCost { caching: true }
    }

    /// Whether this variant models caching.
    pub fn caching(&self) -> bool {
        self.caching
    }
}

impl UtilityMeasure for FailureCost {
    fn name(&self) -> &'static str {
        if self.caching {
            "failure-cost+cache"
        } else {
            "failure-cost"
        }
    }

    fn utility_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
    ) -> Interval {
        let (cost, _) = chain(inst, candidates, |b, i, first| {
            if self.caching && ctx.is_cached(b, i) {
                return (0.0, 0.0);
            }
            let s = &inst.buckets[b][i];
            let attempts = s.expected_attempts();
            if first {
                let constant = attempts * (inst.overhead + s.transmission_cost * s.tuples);
                (constant, 0.0)
            } else {
                let universe = inst.universes[b] as f64;
                let slope = attempts * s.transmission_cost * s.tuples / universe;
                (attempts * inst.overhead, slope)
            }
        });
        -cost
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

    /// With caching, executing plans makes overlapping plans *cheaper*.
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

    /// Two buckets; distinct α/n/failure per source for exercise.
    fn inst() -> ProblemInstance {
        let src = |n: f64, alpha: f64, fail: f64| {
            SourceStats::new()
                .with_extent(Extent::new(0, 10))
                .with_tuples(n)
                .with_transmission_cost(alpha)
                .with_failure_prob(fail)
        };
        ProblemInstance::new(
            2.0, // h
            vec![100, 100],
            vec![
                vec![src(10.0, 1.0, 0.0), src(20.0, 0.5, 0.5)],
                vec![src(50.0, 2.0, 0.0), src(40.0, 1.0, 0.2)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn linear_cost_hand_computed() {
        let inst = inst();
        let ctx = ExecutionContext::new();
        // plan [0,0]: (2 + 1·10) + (2 + 2·50) = 12 + 102 = 114.
        assert_eq!(LinearCost.utility(&inst, &[0, 0], &ctx), -114.0);
        // plan [1,1]: (2 + 0.5·20) + (2 + 1·40) = 12 + 42 = 54.
        assert_eq!(LinearCost.utility(&inst, &[1, 1], &ctx), -54.0);
    }

    #[test]
    fn linear_cost_is_fully_monotonic_with_preferences() {
        let inst = inst();
        assert!(LinearCost.is_fully_monotonic(&inst));
        // bucket 0: terms 12 vs 12 — equal; bucket 1: 102 vs 42.
        assert!(
            LinearCost.source_preference(&inst, SourceRef::new(1, 1))
                > LinearCost.source_preference(&inst, SourceRef::new(1, 0))
        );
    }

    #[test]
    fn fusion_cost_hand_computed() {
        let inst = inst();
        let ctx = ExecutionContext::new();
        // plan [0,0]: term0 = 2 + 1·10 = 12; r̂_1 = 10·50/100 = 5;
        // term1 = 2 + 2·5 = 12 → cost 24.
        assert_eq!(FusionCost.utility(&inst, &[0, 0], &ctx), -24.0);
        // plan [1,0]: term0 = 2 + 0.5·20 = 12; r̂_1 = 20·50/100 = 10;
        // term1 = 2 + 2·10 = 22 → cost 34.
        assert_eq!(FusionCost.utility(&inst, &[1, 0], &ctx), -34.0);
    }

    #[test]
    fn fusion_monotonicity_flags_follow_alpha_uniformity() {
        let inst = inst();
        // bucket 0 has α ∈ {1.0, 0.5} → not monotonic; bucket 1 is last.
        assert_eq!(FusionCost.monotone_subgoals(&inst), vec![false, true]);
        assert!(!FusionCost.is_fully_monotonic(&inst));

        // With uniform α everywhere, fully monotonic.
        let mut uniform = inst.clone();
        for b in &mut uniform.buckets {
            for s in b {
                s.transmission_cost = 1.0;
            }
        }
        assert!(FusionCost.is_fully_monotonic(&uniform));
    }

    #[test]
    fn interval_contains_all_members_fusion() {
        let inst = inst();
        let ctx = ExecutionContext::new();
        let cands = vec![vec![0, 1], vec![0, 1]];
        let iv = FusionCost.utility_interval(&inst, &cands, &ctx);
        for p in inst.all_plans() {
            let u = FusionCost.utility(&inst, &p, &ctx);
            assert!(iv.contains(u), "utility {u} of {p:?} outside {iv}");
        }
        // Concrete candidates give a point.
        assert!(FusionCost
            .utility_interval(&inst, &[vec![1], vec![0]], &ctx)
            .is_point());
    }

    #[test]
    fn failure_cost_multiplies_expected_attempts() {
        let inst = inst();
        let ctx = ExecutionContext::new();
        let m = FailureCost::without_caching();
        // plan [1,1]: attempts0 = 2, term0 = 2·(2 + 0.5·20) = 24;
        // r̂_1 = 20·40/100 = 8; attempts1 = 1.25, term1 = 1.25·(2+1·8) = 12.5.
        assert_eq!(m.utility(&inst, &[1, 1], &ctx), -36.5);
        assert!(m.diminishing_returns());
        assert!(m.independent(&inst, &[0, 0], &[0, 1]));
        assert!(!m.caching());
    }

    #[test]
    fn caching_zeroes_cached_terms_and_breaks_diminishing_returns() {
        let inst = inst();
        let m = FailureCost::with_caching();
        let mut ctx = ExecutionContext::new();
        let before = m.utility(&inst, &[1, 1], &ctx);
        ctx.record(&[1, 0]); // caches (0,1) and (1,0)
        let after = m.utility(&inst, &[1, 1], &ctx);
        // bucket-0 source 1 is now cached: cost drops by term0 = 24.
        assert_eq!(after - before, 24.0);
        assert!(after > before, "utility increased → no diminishing returns");
        assert!(!m.diminishing_returns());
        // Fully cached plan costs nothing.
        ctx.record(&[1, 1]);
        assert_eq!(m.utility(&inst, &[1, 1], &ctx), 0.0);
    }

    #[test]
    fn caching_independence_is_source_disjointness() {
        let inst = inst();
        let m = FailureCost::with_caching();
        assert!(m.independent(&inst, &[0, 0], &[1, 1]));
        assert!(
            !m.independent(&inst, &[0, 0], &[0, 1]),
            "shares bucket-0 source"
        );
        // Abstract: all candidates differ from d per bucket.
        assert!(!m.all_independent(&inst, &[vec![0], vec![0, 1]], &[1, 0]));
        assert!(m.all_independent(&inst, &[vec![0], vec![0]], &[1, 1]));
        // exists: bucket 0 must offer a source unused by executed plans.
        assert!(m.exists_independent(&inst, &[vec![0, 1], vec![0]], &[vec![0, 1]]));
        assert!(!m.exists_independent(&inst, &[vec![0], vec![0]], &[vec![0, 1]]));
    }

    #[test]
    fn caching_interval_handles_mixed_candidates() {
        let inst = inst();
        let m = FailureCost::with_caching();
        let mut ctx = ExecutionContext::new();
        ctx.record(&[0, 0]);
        let cands = vec![vec![0, 1], vec![0, 1]];
        let iv = m.utility_interval(&inst, &cands, &ctx);
        for p in inst.all_plans() {
            let u = m.utility(&inst, &p, &ctx);
            assert!(iv.contains(u), "utility {u} of {p:?} outside {iv}");
        }
    }

    #[test]
    fn failure_cost_names() {
        assert_eq!(FailureCost::without_caching().name(), "failure-cost");
        assert_eq!(FailureCost::with_caching().name(), "failure-cost+cache");
        assert!(FailureCost::with_caching().caching());
    }
}
