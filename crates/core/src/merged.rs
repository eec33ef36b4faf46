//! Merged ordering across several plan spaces (§7).
//!
//! MiniCon produces *multiple* plan spaces (one per partition of the query
//! subgoals into covered sets); §7 notes that "modifying the ordering
//! algorithms to handle a set of plan spaces (instead of one) is trivial".
//! For **context-free** measures — utilities that do not depend on what has
//! executed — the global ordering is exactly the merge of the per-space
//! orderings: each space's orderer emits in decreasing utility, so a k-way
//! merge by head utility is globally correct. Context-dependent measures
//! (coverage, caching costs) would need cross-space context threading,
//! which per-space orderers cannot provide; [`merge_streamers`] therefore
//! refuses them.

use crate::abstraction::AbstractionHeuristic;
use crate::orderer::{OrderedPlan, OrdererError, PlanOrderer};
use crate::streamer::Streamer;
use qpo_catalog::ProblemInstance;
use qpo_utility::UtilityMeasure;

/// K-way merge over per-space orderers. Each emitted item carries the index
/// of the plan space it came from, so callers can map index plans back to
/// the right generalized buckets.
pub struct MergedOrderer<'a> {
    orderers: Vec<Box<dyn PlanOrderer + 'a>>,
    /// Buffered head of each orderer (`None` = exhausted).
    heads: Vec<Option<OrderedPlan>>,
}

impl<'a> MergedOrderer<'a> {
    /// Merges the given per-space orderers.
    ///
    /// # Correctness requirement
    /// The utility measure driving the orderers must be context-free;
    /// otherwise emissions from one space would change utilities in
    /// another and the merge order would be wrong. Use
    /// [`merge_streamers`] to get this checked, or uphold it yourself.
    pub fn new(mut orderers: Vec<Box<dyn PlanOrderer + 'a>>) -> Self {
        let heads = orderers.iter_mut().map(|o| o.next_plan()).collect();
        MergedOrderer { orderers, heads }
    }

    /// Number of plan spaces being merged.
    pub fn spaces(&self) -> usize {
        self.orderers.len()
    }

    /// Emits the globally next-best plan as `(space index, plan)`, or
    /// `None` when every space is exhausted.
    pub fn next_plan(&mut self) -> Option<(usize, OrderedPlan)> {
        let best = self
            .heads
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.as_ref().map(|p| (i, p.utility)))
            .max_by(|(ia, ua), (ib, ub)| {
                crate::utility_cmp(*ua, *ub).then(ib.cmp(ia)) // ties → lower space index
            })
            .map(|(i, _)| i)?;
        let plan = self.heads[best].take()?;
        self.heads[best] = self.orderers[best].next_plan();
        Some((best, plan))
    }

    /// Emits up to `k` plans.
    pub fn order_k(&mut self, k: usize) -> Vec<(usize, OrderedPlan)> {
        let mut out = Vec::with_capacity(k.min(1024));
        for _ in 0..k {
            match self.next_plan() {
                Some(p) => out.push(p),
                None => break,
            }
        }
        out
    }
}

/// Builds one [`Streamer`] per plan-space instance and merges them.
///
/// Fails with [`OrdererError::ContextDependent`] unless the measure is
/// context-free, and with [`OrdererError::NoDiminishingReturns`] if
/// Streamer itself does not apply (context-free implies diminishing
/// returns for well-behaved measures, but the check is kept explicit).
pub fn merge_streamers<'a, M, H>(
    instances: &'a [ProblemInstance],
    measure: &'a M,
    heuristic: &H,
) -> Result<MergedOrderer<'a>, OrdererError>
where
    M: UtilityMeasure,
    H: AbstractionHeuristic + ?Sized,
{
    if !measure.context_free() {
        return Err(OrdererError::ContextDependent(measure.name()));
    }
    let mut orderers: Vec<Box<dyn PlanOrderer + 'a>> = Vec::with_capacity(instances.len());
    for inst in instances {
        orderers.push(Box::new(Streamer::new(inst, measure, heuristic)?));
    }
    Ok(MergedOrderer::new(orderers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::ByExpectedTuples;
    use qpo_catalog::GeneratorConfig;
    use qpo_utility::{Coverage, ExecutionContext, FailureCost, MonetaryCost};

    fn instances() -> Vec<ProblemInstance> {
        vec![
            GeneratorConfig::new(2, 3).with_seed(1).build(),
            GeneratorConfig::new(3, 2).with_seed(2).build(),
            GeneratorConfig::new(1, 4).with_seed(3).build(),
        ]
    }

    #[test]
    fn rejects_context_dependent_measures() {
        let insts = instances();
        assert!(matches!(
            merge_streamers(&insts, &Coverage, &ByExpectedTuples)
                .err()
                .unwrap(),
            OrdererError::ContextDependent("coverage")
        ));
        assert!(merge_streamers(&insts, &MonetaryCost::with_caching(), &ByExpectedTuples).is_err());
    }

    #[test]
    fn merge_is_globally_sorted_and_complete() {
        let insts = instances();
        let m = FailureCost::without_caching();
        let mut merged = merge_streamers(&insts, &m, &ByExpectedTuples).unwrap();
        assert_eq!(merged.spaces(), 3);
        let total: usize = insts.iter().map(ProblemInstance::plan_count).sum();
        let out = merged.order_k(total + 10);
        assert_eq!(out.len(), total, "every plan of every space emitted");
        // Globally non-increasing utilities.
        for w in out.windows(2) {
            assert!(w[0].1.utility >= w[1].1.utility - 1e-12);
        }
        // Matches the brute-force global ordering's utility sequence.
        let ctx = ExecutionContext::new();
        let mut brute: Vec<f64> = Vec::new();
        for inst in &insts {
            for p in inst.all_plans() {
                brute.push(m.utility(inst, &p, &ctx));
            }
        }
        brute.sort_by(|a, b| crate::utility_cmp(*b, *a));
        for (o, b) in out.iter().zip(&brute) {
            assert!((o.1.utility - b).abs() < 1e-12);
        }
        // Space indices are in range.
        assert!(out.iter().all(|(s, _)| *s < 3));
        assert!(merged.next_plan().is_none());
    }

    #[test]
    fn empty_space_list_is_empty() {
        let mut merged = MergedOrderer::new(Vec::new());
        assert_eq!(merged.spaces(), 0);
        assert!(merged.next_plan().is_none());
    }
}
