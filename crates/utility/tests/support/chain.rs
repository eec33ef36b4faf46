//! The three chain-shaped measures as they were before they shared one
//! bound-parameter chain and one caching model, kept as reference twins.
//! None of this ships.
//!
//! Each twin walks its own copy of the chain (`cost_interval` twice,
//! `fee_and_output` once) and states its own caching independence tests,
//! verbatim. A twin's `resume_interval` is the trait's default, which
//! starts over: the shipped measures must resume to exactly those bits.

use qpo_catalog::{ProblemInstance, SourceRef};
use qpo_interval::Interval;
use qpo_utility::{ExecutionContext, UtilityMeasure};

/// Builds singleton candidate vectors for a concrete plan, letting the
/// concrete path share the interval code (a point interval falls out).
fn singletons(plan: &[usize]) -> Vec<Vec<usize>> {
    plan.iter().map(|&i| vec![i]).collect()
}

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

/// Interval of `r̂_b` (items returned by bucket `b`'s source) given the
/// candidates and the incoming interval.
fn flow_out(
    inst: &ProblemInstance,
    bucket: usize,
    cands: &[usize],
    r_prev: Option<Interval>,
) -> Interval {
    let n = |i: usize| inst.buckets[bucket][i].tuples;
    let n_lo = cands.iter().map(|&i| n(i)).fold(f64::MAX, f64::min);
    let n_hi = cands.iter().map(|&i| n(i)).fold(f64::MIN, f64::max);
    match r_prev {
        None => Interval::new(n_lo, n_hi),
        Some(r) => {
            let universe = inst.universes[bucket] as f64;
            Interval::new(r.lo() * n_lo / universe, r.hi() * n_hi / universe)
        }
    }
}

/// Eq. (2)'s fusion cost with its own chain.
pub struct ReferenceFusionCost;

impl ReferenceFusionCost {
    fn cost_interval(&self, inst: &ProblemInstance, candidates: &[Vec<usize>]) -> Interval {
        let mut total = Interval::ZERO;
        let mut r_prev: Option<Interval> = None;
        for (b, cands) in candidates.iter().enumerate() {
            let universe = inst.universes[b] as f64;
            let term = bucket_term(cands, r_prev, |i| {
                let s = &inst.buckets[b][i];
                match r_prev {
                    None => (inst.overhead + s.transmission_cost * s.tuples, 0.0),
                    Some(_) => (inst.overhead, s.transmission_cost * s.tuples / universe),
                }
            });
            total = total + term;
            r_prev = Some(flow_out(inst, b, cands, r_prev));
        }
        total
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

impl UtilityMeasure for ReferenceFusionCost {
    fn name(&self) -> &'static str {
        "fusion-cost"
    }

    fn context_free(&self) -> bool {
        true
    }

    fn utility(&self, inst: &ProblemInstance, plan: &[usize], _ctx: &ExecutionContext) -> f64 {
        (-self.cost_interval(inst, &singletons(plan))).lo()
    }

    fn utility_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        _ctx: &ExecutionContext,
    ) -> Interval {
        -self.cost_interval(inst, candidates)
    }

    fn diminishing_returns(&self) -> bool {
        true
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

    fn independent(&self, _inst: &ProblemInstance, _p: &[usize], _q: &[usize]) -> bool {
        true
    }

    fn all_independent(&self, _: &ProblemInstance, _: &[Vec<usize>], _: &[usize]) -> bool {
        true
    }

    fn exists_independent(&self, _: &ProblemInstance, _: &[Vec<usize>], _: &[Vec<usize>]) -> bool {
        true
    }
}

/// Eq. (2) with source failure and optional caching, with its own chain
/// and caching tests.
pub struct ReferenceFailureCost {
    pub caching: bool,
}

impl ReferenceFailureCost {
    fn cost_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
    ) -> Interval {
        let mut total = Interval::ZERO;
        let mut r_prev: Option<Interval> = None;
        for (b, cands) in candidates.iter().enumerate() {
            let universe = inst.universes[b] as f64;
            let term = bucket_term(cands, r_prev, |i| {
                if self.caching && ctx.is_cached(b, i) {
                    return (0.0, 0.0);
                }
                let s = &inst.buckets[b][i];
                let attempts = s.expected_attempts();
                match r_prev {
                    None => (
                        attempts * (inst.overhead + s.transmission_cost * s.tuples),
                        0.0,
                    ),
                    Some(_) => (
                        attempts * inst.overhead,
                        attempts * s.transmission_cost * s.tuples / universe,
                    ),
                }
            });
            total = total + term;
            // Data still flows out of cached operations; only cost is saved.
            r_prev = Some(flow_out(inst, b, cands, r_prev));
        }
        total
    }
}

impl UtilityMeasure for ReferenceFailureCost {
    fn name(&self) -> &'static str {
        if self.caching {
            "failure-cost+cache"
        } else {
            "failure-cost"
        }
    }

    fn utility(&self, inst: &ProblemInstance, plan: &[usize], ctx: &ExecutionContext) -> f64 {
        (-self.cost_interval(inst, &singletons(plan), ctx)).lo()
    }

    fn utility_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
    ) -> Interval {
        -self.cost_interval(inst, candidates, ctx)
    }

    fn diminishing_returns(&self) -> bool {
        // With caching, executing plans makes overlapping plans *cheaper*.
        !self.caching
    }

    fn context_free(&self) -> bool {
        !self.caching
    }

    fn monotone_subgoals(&self, inst: &ProblemInstance) -> Vec<bool> {
        // The attempts multiplier couples the overhead and transmission
        // terms, so no per-bucket total order exists in general; report
        // non-monotonic (sound: Greedy simply does not apply).
        vec![false; inst.query_len()]
    }

    fn independent(&self, _inst: &ProblemInstance, p: &[usize], q: &[usize]) -> bool {
        if !self.caching {
            return true;
        }
        // Source-operation model: dependent iff some bucket uses the same
        // source in both plans.
        p.iter().zip(q).all(|(a, b)| a != b)
    }

    fn all_independent(
        &self,
        _inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        d: &[usize],
    ) -> bool {
        if !self.caching {
            return true;
        }
        candidates
            .iter()
            .zip(d)
            .all(|(cands, &di)| !cands.contains(&di))
    }

    fn exists_independent(
        &self,
        _inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        executed: &[Vec<usize>],
    ) -> bool {
        if !self.caching {
            return true;
        }
        // Exact: pick per bucket any candidate unused by every executed
        // plan at that bucket.
        candidates
            .iter()
            .enumerate()
            .all(|(b, cands)| cands.iter().any(|&i| executed.iter().all(|e| e[b] != i)))
    }
}

/// The average monetary cost per output tuple, with its own chain and
/// caching tests.
pub struct ReferenceMonetaryCost {
    pub caching: bool,
}

impl ReferenceMonetaryCost {
    /// Returns `(fee interval, output-tuples interval)` for the candidate
    /// product under `ctx`.
    fn fee_and_output(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
    ) -> (Interval, Interval) {
        let mut fee = Interval::ZERO;
        let mut r_prev: Option<Interval> = None;
        for (b, cands) in candidates.iter().enumerate() {
            let universe = inst.universes[b] as f64;
            // Fee term per candidate is affine in the incoming result size
            // (constant for the first bucket); hull over candidates at the
            // extremes of r_prev, exactly as the cost chain does.
            let mut lo = f64::MAX;
            let mut hi = f64::MIN;
            let mut n_lo = f64::MAX;
            let mut n_hi = f64::MIN;
            for &i in cands {
                let s = &inst.buckets[b][i];
                let waived = self.caching && ctx.is_cached(b, i);
                let (t_lo, t_hi) = match r_prev {
                    None => {
                        let t = if waived {
                            0.0
                        } else {
                            s.fee_per_tuple * s.tuples
                        };
                        (t, t)
                    }
                    Some(r) => {
                        let slope = if waived {
                            0.0
                        } else {
                            s.fee_per_tuple * s.tuples / universe
                        };
                        (slope * r.lo(), slope * r.hi())
                    }
                };
                lo = lo.min(t_lo);
                hi = hi.max(t_hi);
                n_lo = n_lo.min(s.tuples);
                n_hi = n_hi.max(s.tuples);
            }
            fee = fee + Interval::new(lo, hi);
            r_prev = Some(match r_prev {
                None => Interval::new(n_lo, n_hi),
                Some(r) => Interval::new(r.lo() * n_lo / universe, r.hi() * n_hi / universe),
            });
        }
        let out = r_prev.expect("at least one bucket");
        (fee, out)
    }
}

impl UtilityMeasure for ReferenceMonetaryCost {
    fn name(&self) -> &'static str {
        if self.caching {
            "monetary+cache"
        } else {
            "monetary"
        }
    }

    /// The point of the singleton interval, so the two agree bit for bit
    /// (the trait's contract): `fee · (1/out)` as interval division
    /// rounds it, which may sit an ulp from `fee / out`.
    fn utility(&self, inst: &ProblemInstance, plan: &[usize], ctx: &ExecutionContext) -> f64 {
        let singles: Vec<Vec<usize>> = plan.iter().map(|&i| vec![i]).collect();
        self.utility_interval(inst, &singles, ctx).lo()
    }

    fn utility_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
    ) -> Interval {
        let (fee, out) = self.fee_and_output(inst, candidates, ctx);
        assert!(
            out.lo() > 0.0,
            "candidate plans may produce no tuples; fee/tuple undefined"
        );
        -(fee / out)
    }

    fn diminishing_returns(&self) -> bool {
        !self.caching
    }

    fn context_free(&self) -> bool {
        !self.caching
    }

    fn monotone_subgoals(&self, inst: &ProblemInstance) -> Vec<bool> {
        // A ratio of two source-dependent quantities: replacing a source
        // can raise the numerator and denominator together, so no
        // per-bucket total order exists in general.
        vec![false; inst.query_len()]
    }

    fn independent(&self, _inst: &ProblemInstance, p: &[usize], q: &[usize]) -> bool {
        if !self.caching {
            return true;
        }
        p.iter().zip(q).all(|(a, b)| a != b)
    }

    fn all_independent(
        &self,
        _inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        d: &[usize],
    ) -> bool {
        if !self.caching {
            return true;
        }
        candidates
            .iter()
            .zip(d)
            .all(|(cands, &di)| !cands.contains(&di))
    }

    fn exists_independent(
        &self,
        _inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        executed: &[Vec<usize>],
    ) -> bool {
        if !self.caching {
            return true;
        }
        candidates
            .iter()
            .enumerate()
            .all(|(b, cands)| cands.iter().any(|&i| executed.iter().all(|e| e[b] != i)))
    }
}
