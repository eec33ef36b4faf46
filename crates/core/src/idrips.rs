//! iDrips (§5.2): iterated Drips over shrinking plan spaces.
//!
//! Each round, iDrips re-abstracts the sources of every surviving plan
//! space, runs Drips across the spaces to find the current best plan,
//! emits it, and removes it from its space by the recursive splitting of
//! §4. The paper notes this deliberately redoes dominance work each round —
//! the weakness Streamer fixes — but it needs no structural assumptions at
//! all: it works for *every* utility measure, caching included.

use crate::abstraction::AbstractionHeuristic;
use crate::kernel::{KernelStats, OrderingKernel};
use crate::orderer::{OrderedPlan, PlanOrderer, PlanOutcome};
use crate::planspace::{full_space, remove_plan, PlanSpace};
use qpo_catalog::ProblemInstance;
use qpo_utility::{ExecutionContext, UtilityMeasure};

/// The iDrips plan orderer.
///
/// Owns a long-lived [`OrderingKernel`], so the per-emission Drips runs
/// share hash-consed abstraction trees and (epoch-guarded) memoized
/// utility intervals — the cross-round reuse §5.2's "redoes dominance
/// work" remark invites — and late in the order answers by brute force
/// (the kernel's floor). `crates/core/tests/kernel_equivalence.rs` pins
/// its emitted utilities bit for bit to the textbook loop's, re-run per
/// emission, and its plans up to the first tied maximum.
pub struct IDrips<'a, M: UtilityMeasure + ?Sized, H> {
    inst: &'a ProblemInstance,
    measure: &'a M,
    heuristic: H,
    ctx: ExecutionContext,
    spaces: Vec<PlanSpace>,
    kernel: OrderingKernel,
    emitted: usize,
}

impl<'a, M: UtilityMeasure + ?Sized, H: AbstractionHeuristic> IDrips<'a, M, H> {
    /// Creates the orderer over the instance's full plan space.
    pub fn new(inst: &'a ProblemInstance, measure: &'a M, heuristic: H) -> Self {
        IDrips {
            inst,
            measure,
            heuristic,
            ctx: ExecutionContext::new(),
            spaces: vec![full_space(inst)],
            kernel: OrderingKernel::new(),
            emitted: 0,
        }
    }

    /// Wires the underlying kernel to a shared observability bundle: its
    /// `qpo_kernel_*` counters land on `obs.registry` and its refinement /
    /// elimination / champion / cache events go to `obs.journal` — each
    /// `kernel_elimination` event is a certificate
    /// ([`qpo_obs::EliminationCertificate::from_record`]) whose intervals
    /// re-derive from the measure given the plans emitted before it.
    pub fn with_obs(mut self, obs: &qpo_obs::Obs) -> Self {
        self.kernel = std::mem::take(&mut self.kernel).with_obs(obs);
        self
    }

    /// Counter snapshot from the kernel.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel.stats()
    }

    /// Plan spaces currently alive.
    pub fn frontier_size(&self) -> usize {
        self.spaces.len()
    }

    /// Plans emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }
}

impl<M: UtilityMeasure + ?Sized, H: AbstractionHeuristic> PlanOrderer for IDrips<'_, M, H> {
    fn algorithm_name(&self) -> &'static str {
        "idrips"
    }

    fn next_plan(&mut self) -> Option<OrderedPlan> {
        let outcome = self.kernel.find_best(
            self.inst,
            self.measure,
            &self.ctx,
            &self.spaces,
            &self.heuristic,
        )?;
        let space = self.spaces.swap_remove(outcome.space);
        self.spaces.extend(remove_plan(&space, &outcome.plan));
        self.ctx.record(&outcome.plan);
        self.emitted += 1;
        Some(OrderedPlan {
            plan: outcome.plan,
            utility: outcome.utility,
        })
    }

    /// iDrips re-runs Drips from the context on every emission, so
    /// retracting a failed plan is exact: the next round's dominance work
    /// simply no longer credits it.
    fn observe(&mut self, outcome: &PlanOutcome) {
        if outcome.is_failure() {
            self.ctx.retract(&outcome.plan);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::{ByExpectedTuples, RandomKey};
    use crate::orderer::verify_ordering;
    use qpo_catalog::GeneratorConfig;
    use qpo_utility::{Coverage, FailureCost, FusionCost, MonetaryCost};

    #[test]
    fn exact_ordering_for_coverage() {
        let inst = GeneratorConfig::new(2, 5).with_seed(3).build();
        let mut alg = IDrips::new(&inst, &Coverage, ByExpectedTuples);
        let ordering = alg.order_k(inst.plan_count());
        assert_eq!(ordering.len(), inst.plan_count());
        verify_ordering(&inst, &Coverage, &ordering, 1e-12).unwrap();
        assert_eq!(alg.next_plan(), None);
        assert_eq!(alg.emitted(), inst.plan_count());
    }

    #[test]
    fn exact_ordering_for_caching_cost() {
        // The caching measure has plan dependence and growing utilities;
        // iDrips must still be exact because it re-runs Drips per round.
        let inst = GeneratorConfig::new(3, 4).with_seed(8).build();
        let m = FailureCost::with_caching();
        let ordering = IDrips::new(&inst, &m, ByExpectedTuples).order_k(10);
        assert_eq!(ordering.len(), 10);
        verify_ordering(&inst, &m, &ordering, 1e-9).unwrap();
    }

    #[test]
    fn exact_ordering_for_monetary_both_variants() {
        let inst = GeneratorConfig::new(3, 4).with_seed(21).build();
        for caching in [false, true] {
            let m = if caching {
                MonetaryCost::with_caching()
            } else {
                MonetaryCost::without_caching()
            };
            let ordering = IDrips::new(&inst, &m, ByExpectedTuples).order_k(8);
            verify_ordering(&inst, &m, &ordering, 1e-9).unwrap();
        }
    }

    #[test]
    fn exact_even_with_a_bad_heuristic() {
        // A random grouping heuristic affects only speed, never output.
        let inst = GeneratorConfig::new(2, 6).with_seed(5).build();
        let good = IDrips::new(&inst, &Coverage, ByExpectedTuples).order_k(12);
        let bad = IDrips::new(&inst, &Coverage, RandomKey { seed: 4 }).order_k(12);
        verify_ordering(&inst, &Coverage, &bad, 1e-12).unwrap();
        let gu: Vec<f64> = good.iter().map(|o| o.utility).collect();
        let bu: Vec<f64> = bad.iter().map(|o| o.utility).collect();
        for (a, b) in gu.iter().zip(&bu) {
            assert!(
                (a - b).abs() < 1e-12,
                "utility sequences diverge: {gu:?} vs {bu:?}"
            );
        }
    }

    #[test]
    fn matches_fusion_cost_bruteforce() {
        let inst = GeneratorConfig::new(3, 5).with_seed(13).build();
        let ordering = IDrips::new(&inst, &FusionCost, ByExpectedTuples).order_k(15);
        verify_ordering(&inst, &FusionCost, &ordering, 1e-9).unwrap();
    }

    #[test]
    fn emits_every_plan_exactly_once() {
        let inst = GeneratorConfig::new(2, 4).with_seed(2).build();
        let ordering = IDrips::new(&inst, &Coverage, ByExpectedTuples).order_k(usize::MAX);
        assert_eq!(ordering.len(), 16);
        let set: std::collections::BTreeSet<_> = ordering.iter().map(|o| o.plan.clone()).collect();
        assert_eq!(set.len(), 16);
    }

    #[test]
    fn observed_failures_match_the_bruteforce_orderer() {
        use crate::orderer::PlanOutcome;
        use crate::pi::Naive;
        let inst = GeneratorConfig::new(2, 4).with_seed(11).build();
        let m = FailureCost::with_caching();
        let mut idrips = IDrips::new(&inst, &m, ByExpectedTuples);
        let mut naive = Naive::new(&inst, &m);
        for step in 0..inst.plan_count() {
            let a = idrips.next_plan().unwrap();
            let b = naive.next_plan().unwrap();
            assert!((a.utility - b.utility).abs() < 1e-9, "step {step}");
            if step % 3 == 0 {
                let outcome = PlanOutcome::failed(&a.plan);
                idrips.observe(&outcome);
                naive.observe(&PlanOutcome::failed(&b.plan));
            }
        }
    }

    #[test]
    fn reports_refinements() {
        let inst = GeneratorConfig::new(2, 6).with_seed(17).build();
        let mut alg = IDrips::new(&inst, &Coverage, ByExpectedTuples);
        alg.order_k(3);
        assert!(alg.kernel_stats().refinements > 0);
        assert!(alg.frontier_size() <= 3 * inst.query_len());
        assert_eq!(alg.algorithm_name(), "idrips");
    }
}
