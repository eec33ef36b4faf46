//! The Greedy algorithm (§4): plan ordering for fully monotonic measures.
//!
//! Full monotonicity gives each bucket a total source order, so the best
//! plan of a plan space is found by picking the best source per bucket —
//! no plan enumeration at all. After emitting a plan, Greedy removes it by
//! recursive splitting (Figure 2), keeping a frontier of at most `O(k·n)`
//! plan spaces whose best plans are re-compared each round. The paper
//! proves correctness and an `O(m·n²·k²)` bound.

use crate::orderer::{OrderedPlan, OrdererError, PlanOrderer};
use crate::planspace::{full_space, remove_plan, PlanSpace};
use qpo_catalog::{ProblemInstance, SourceRef};
use qpo_utility::{ExecutionContext, UtilityMeasure};

/// Greedy plan orderer. Construction fails if the measure is not fully
/// monotonic.
pub struct Greedy<'a, M: UtilityMeasure + ?Sized> {
    inst: &'a ProblemInstance,
    measure: &'a M,
    ctx: ExecutionContext,
    spaces: Vec<PlanSpace>,
    emitted: usize,
}

impl<'a, M: UtilityMeasure + ?Sized> Greedy<'a, M> {
    /// Creates the orderer over the instance's full plan space.
    pub fn new(inst: &'a ProblemInstance, measure: &'a M) -> Result<Self, OrdererError> {
        if !measure.is_fully_monotonic(inst) {
            return Err(OrdererError::NotFullyMonotonic(measure.name()));
        }
        Ok(Greedy {
            inst,
            measure,
            ctx: ExecutionContext::new(),
            spaces: vec![full_space(inst)],
            emitted: 0,
        })
    }

    /// Number of plan spaces currently on the frontier.
    pub fn frontier_size(&self) -> usize {
        self.spaces.len()
    }

    /// Number of plans emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Best plan of a space: the most-preferred source per bucket
    /// (monotonicity makes this exact). Ties break to the smallest index
    /// for determinism; `None` only for an empty bucket, which no plan
    /// space holds.
    fn best_of_space(&self, space: &PlanSpace) -> Option<Vec<usize>> {
        space
            .iter()
            .enumerate()
            .map(|(b, cands)| {
                cands.iter().copied().max_by(|&x, &y| {
                    let kx = self
                        .measure
                        .source_preference(self.inst, SourceRef::new(b, x));
                    let ky = self
                        .measure
                        .source_preference(self.inst, SourceRef::new(b, y));
                    crate::utility_cmp(kx, ky).then(y.cmp(&x)) // prefer the smaller index on ties
                })
            })
            .collect()
    }
}

impl<M: UtilityMeasure + ?Sized> PlanOrderer for Greedy<'_, M> {
    fn algorithm_name(&self) -> &'static str {
        "greedy"
    }

    fn next_plan(&mut self) -> Option<OrderedPlan> {
        // Compare the best plan of every frontier space under the current
        // context; monotonicity fixes each space's champion, but champions
        // across spaces must be compared by actual utility.
        let mut best: Option<(usize, Vec<usize>, f64)> = None;
        for (idx, space) in self.spaces.iter().enumerate() {
            let plan = self.best_of_space(space)?;
            let utility = self.measure.utility(self.inst, &plan, &self.ctx);
            let better = match &best {
                None => true,
                Some((_, bplan, bu)) => utility > *bu || (utility == *bu && plan < *bplan),
            };
            if better {
                best = Some((idx, plan, utility));
            }
        }
        let (idx, plan, utility) = best?;
        let space = self.spaces.swap_remove(idx);
        self.spaces.extend(remove_plan(&space, &plan));
        self.ctx.record(&plan);
        self.emitted += 1;
        Some(OrderedPlan { plan, utility })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orderer::verify_ordering;
    use qpo_catalog::{Extent, SourceStats};
    use qpo_utility::{Coverage, FusionCost, LinearCost};

    fn inst(costs: &[&[f64]]) -> ProblemInstance {
        let buckets = costs
            .iter()
            .map(|bucket| {
                bucket
                    .iter()
                    .map(|&c| {
                        SourceStats::new()
                            .with_extent(Extent::new(0, 10))
                            .with_tuples(c)
                            .with_transmission_cost(1.0)
                    })
                    .collect()
            })
            .collect();
        ProblemInstance::new(0.0, vec![100; costs.len()], buckets).unwrap()
    }

    #[test]
    fn rejects_non_monotonic_measures() {
        let i = inst(&[&[1.0, 2.0]]);
        assert!(matches!(
            Greedy::new(&i, &Coverage).err().unwrap(),
            OrdererError::NotFullyMonotonic("coverage")
        ));
    }

    #[test]
    fn emits_exact_ordering_for_linear_cost() {
        let i = inst(&[&[3.0, 1.0, 2.0], &[5.0, 4.0]]);
        let mut g = Greedy::new(&i, &LinearCost).unwrap();
        let ordering = g.order_k(6);
        assert_eq!(ordering.len(), 6, "all plans emitted");
        verify_ordering(&i, &LinearCost, &ordering, 1e-9).unwrap();
        // First plan combines the cheapest source of each bucket.
        assert_eq!(ordering[0].plan, vec![1, 1]);
        assert_eq!(ordering[0].utility, -(1.0 + 4.0));
        assert_eq!(g.next_plan(), None, "space exhausted");
        assert_eq!(g.emitted(), 6);
    }

    #[test]
    fn works_for_uniform_alpha_fusion_cost() {
        let i = inst(&[&[5.0, 2.0, 9.0], &[7.0, 3.0, 4.0], &[6.0, 8.0]]);
        assert!(FusionCost.is_fully_monotonic(&i));
        let mut g = Greedy::new(&i, &FusionCost).unwrap();
        let ordering = g.order_k(18);
        assert_eq!(ordering.len(), 18);
        verify_ordering(&i, &FusionCost, &ordering, 1e-9).unwrap();
    }

    #[test]
    fn single_bucket_degenerates_to_sorting() {
        let i = inst(&[&[4.0, 1.0, 3.0, 2.0]]);
        let mut g = Greedy::new(&i, &LinearCost).unwrap();
        let plans: Vec<Vec<usize>> = g.order_k(10).into_iter().map(|o| o.plan).collect();
        assert_eq!(plans, vec![vec![1], vec![3], vec![2], vec![0]]);
    }

    #[test]
    fn tie_breaks_to_lexicographically_smallest() {
        let i = inst(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let mut g = Greedy::new(&i, &LinearCost).unwrap();
        let plans: Vec<Vec<usize>> = g.order_k(4).into_iter().map(|o| o.plan).collect();
        assert_eq!(plans, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn frontier_stays_small() {
        let i = inst(&[&[1.0, 2.0, 3.0, 4.0, 5.0], &[1.0, 2.0, 3.0, 4.0, 5.0]]);
        let mut g = Greedy::new(&i, &LinearCost).unwrap();
        for _ in 0..10 {
            g.next_plan().unwrap();
            // After k removals the frontier holds at most k·n spaces.
            assert!(g.frontier_size() <= g.emitted() * i.query_len() + 1);
        }
    }
}
