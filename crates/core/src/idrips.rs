//! iDrips (§5.2): iterated Drips over shrinking plan spaces.
//!
//! Each round, iDrips re-abstracts the sources of every surviving plan
//! space, runs Drips across the spaces to find the current best plan,
//! emits it, and removes it from its space by the recursive splitting of
//! §4. The paper notes this deliberately redoes dominance work each round —
//! the weakness Streamer fixes — but it needs no structural assumptions at
//! all: it works for *every* utility measure, caching included.
//!
//! Late in an order the spaces have fragmented and a Drips call touches
//! about as many plans as remain (§6 finds iDrips losing to PI there), so
//! an order has two stages. [`OrderingKernel::find_best`] answers calls
//! until a rent-or-buy rule says *buy*; then iDrips hands its context and
//! the plans left in its spaces to [`Pi::from_plans`], which answers every
//! later call and `observe`, re-valuing a row from its measure carry. The
//! *rent* is the evaluations the Drips calls have made, the *price* the
//! plans remaining. iDrips buys when rent ≥ 2 × price (`RENT_FACTOR`) and
//! the plans left not `independent` of the last emitted one (a bound on
//! the rows a later `Pi` call re-values; 0 under a context-free measure)
//! are no more than the last Drips call's evaluations. A failed guard is
//! checked again only after another `price` evaluations, so counting
//! costs at most one independence test per Drips evaluation. Probes chose
//! the 2 and the guard: at 1× rent, context-free m 8, k 100
//! `regen-experiments` rows ended above PI; without the guard,
//! `fig6-failure-cache` m 8, k 100 went from 1 545 to 6 548–8 658
//! evaluations. `Pi` takes the maximum of the point values Drips'
//! survivors would carry, so no utility bit moves; a tied maximum goes to
//! the smallest plan, where Drips takes its pool's first.

use crate::abstraction::AbstractionHeuristic;
use crate::kernel::{KernelStats, OrderingKernel};
use crate::orderer::{OrderedPlan, PlanOrderer, PlanOutcome};
use crate::pi::Pi;
use crate::planspace::{full_space, remove_plan, space_plans, space_size, PlanSpace};
use qpo_catalog::ProblemInstance;
use qpo_utility::{ExecutionContext, UtilityMeasure};

/// The rent, in prices, that buys brute force (module doc).
const RENT_FACTOR: u64 = 2;

/// The iDrips plan orderer.
///
/// Owns a long-lived [`OrderingKernel`], so the per-emission Drips runs
/// share hash-consed abstraction trees and (epoch-guarded) memoized
/// utility intervals — the cross-round reuse §5.2's "redoes dominance
/// work" remark invites — and late in the order hands over to [`Pi`]
/// (module doc). `crates/core/tests/kernel_equivalence.rs` pins its
/// emitted utilities bit for bit to the textbook loop's, re-run per
/// emission, and its plans up to the first tied maximum.
pub struct IDrips<'a, M: UtilityMeasure + ?Sized, H> {
    inst: &'a ProblemInstance,
    measure: &'a M,
    heuristic: H,
    ctx: ExecutionContext,
    spaces: Vec<PlanSpace>,
    kernel: OrderingKernel,
    emitted: usize,
    /// The last Drips call's evaluations, and the rent before which the
    /// rule's guard is not checked again.
    last_call: u64,
    next_check: u64,
    /// Once bought: the call of the hand-over, and the `Pi` answering.
    brute_force: Option<(usize, Pi<'a, M>)>,
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
            last_call: 0,
            next_check: 0,
            brute_force: None,
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

    /// Counter snapshot from the kernel; the calls [`Pi`] answered count
    /// in `floor_calls`, their evaluations in `interval_evals`.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel.stats()
    }

    /// Plan spaces currently alive (none once [`Pi`] holds the plans).
    pub fn frontier_size(&self) -> usize {
        self.spaces.len()
    }

    /// Plans emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// The call (from 1) since which [`Pi`] answers, if it was bought.
    pub fn handed_over_at(&self) -> Option<usize> {
        self.brute_force.as_ref().map(|(call, _)| *call)
    }

    /// The plans remaining when the rent-or-buy rule (module doc) buys;
    /// never after a buy, which empties the spaces.
    fn rule(&mut self) -> Option<Vec<Vec<usize>>> {
        let rent = self.kernel.stats().interval_evals; // `Pi` adds none before the buy
        let price: u64 = self.spaces.iter().map(|s| space_size(s) as u64).sum();
        if price == 0 || rent < RENT_FACTOR * price || rent < self.next_check {
            return None;
        }
        let plans: Vec<Vec<usize>> = self.spaces.iter().flat_map(space_plans).collect();
        let (inst, m) = (self.inst, self.measure);
        let last = self.ctx.executed().last().filter(|_| !m.context_free());
        let moved = |e: &Vec<usize>| plans.iter().filter(|p| !m.independent(inst, p, e)).count();
        if last.map_or(0, moved) as u64 > self.last_call {
            self.next_check = rent + price;
            return None;
        }
        Some(plans)
    }

    /// Hands the context and the remaining `plans` to [`Pi`].
    fn buy(&mut self, plans: Vec<Vec<usize>>) {
        let ctx = std::mem::take(&mut self.ctx);
        self.spaces.clear();
        let pi = Pi::from_plans(self.inst, self.measure, ctx, plans);
        self.brute_force = Some((self.emitted + 1, pi));
    }
}

impl<M: UtilityMeasure + ?Sized, H: AbstractionHeuristic> PlanOrderer for IDrips<'_, M, H> {
    fn algorithm_name(&self) -> &'static str {
        "idrips"
    }

    fn next_plan(&mut self) -> Option<OrderedPlan> {
        if let Some(plans) = self.rule() {
            self.buy(plans);
        }
        let next = if let Some((_, pi)) = &mut self.brute_force {
            let before = pi.evaluations;
            let next = pi.next_plan()?;
            self.kernel.count_brute_force(pi.evaluations - before);
            next
        } else {
            let before = self.kernel.stats().interval_evals;
            let outcome = self.kernel.find_best(
                self.inst,
                self.measure,
                &self.ctx,
                &self.spaces,
                &self.heuristic,
            )?;
            self.last_call = self.kernel.stats().interval_evals - before;
            let space = self.spaces.swap_remove(outcome.space);
            self.spaces.extend(remove_plan(&space, &outcome.plan));
            self.ctx.record(&outcome.plan);
            OrderedPlan {
                plan: outcome.plan,
                utility: outcome.utility,
            }
        };
        self.emitted += 1;
        Some(next)
    }

    /// Both stages re-derive utilities from the context, so retracting a
    /// failed plan is exact.
    fn observe(&mut self, outcome: &PlanOutcome) {
        match &mut self.brute_force {
            Some((_, pi)) => pi.observe(outcome),
            None if outcome.is_failure() => {
                self.ctx.retract(&outcome.plan);
            }
            None => {}
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

    /// [`IDrips::next_plan`], except that the rent-or-buy rule never
    /// fires: the hand-over to `Pi` happens right before call `j`.
    fn next_buying_at<M, H>(alg: &mut IDrips<'_, M, H>, j: usize) -> Option<OrderedPlan>
    where
        M: UtilityMeasure + ?Sized,
        H: AbstractionHeuristic,
    {
        alg.next_check = u64::MAX;
        if alg.emitted + 1 == j {
            let plans = alg.spaces.iter().flat_map(space_plans).collect();
            alg.buy(plans);
        }
        alg.next_plan()
    }

    use crate::support::{all_measures, assert_same_steps, ReferenceIDrips};

    /// An [`IDrips`] driven by [`next_buying_at`].
    struct BuyingAt<'a, M: UtilityMeasure + ?Sized>(IDrips<'a, M, ByExpectedTuples>, usize);

    impl<M: UtilityMeasure + ?Sized> PlanOrderer for BuyingAt<'_, M> {
        fn algorithm_name(&self) -> &'static str {
            "idrips-buying-at"
        }

        fn next_plan(&mut self) -> Option<OrderedPlan> {
            next_buying_at(&mut self.0, self.1)
        }

        fn observe(&mut self, outcome: &PlanOutcome) {
            self.0.observe(outcome);
        }
    }

    /// The reference's first plans, then the reference itself from there.
    struct Replay<'p, 'a, M: UtilityMeasure + ?Sized>(
        &'p [OrderedPlan],
        ReferenceIDrips<'a, M, ByExpectedTuples>,
    );

    impl<M: UtilityMeasure + ?Sized> PlanOrderer for Replay<'_, '_, M> {
        fn algorithm_name(&self) -> &'static str {
            "idrips-reference-replay"
        }

        fn next_plan(&mut self) -> Option<OrderedPlan> {
            let Some((first, rest)) = self.0.split_first() else {
                return self.1.next_plan();
            };
            self.0 = rest;
            Some(first.clone())
        }

        fn observe(&mut self, outcome: &PlanOutcome) {
            self.1.observe(outcome);
        }
    }

    /// Bought at every call `j` of a 3 × 4 instance, with or without the
    /// plan of the first call `Pi` answers observed failed one pop late
    /// (after carries have folded it in), every measure: the reference's utility bits, its plans up to the first
    /// tied maximum, and (without the failure) a Def. 2.1 order at
    /// tolerance 0. The reference runs once per measure; each retraction
    /// resumes a copy of it.
    fn assert_a_hand_over_at_any_call_matches_the_reference(seed: u64) {
        let inst = GeneratorConfig::new(3, 4).with_seed(seed).build();
        for (name, m) in all_measures() {
            let m = m.as_ref();
            let mut prefix = ReferenceIDrips::new(&inst, m, ByExpectedTuples);
            let mut exhausted = ReferenceIDrips::new(&inst, m, ByExpectedTuples);
            let all = exhausted.order_k(usize::MAX);
            for j in 1..=inst.plan_count() {
                for retract in [false, true] {
                    let label = format!("seed {seed}, {name}, bought at {j}, retract {retract}");
                    let mut fast = BuyingAt(IDrips::new(&inst, m, ByExpectedTuples), j);
                    let mut slow = match retract {
                        true => Replay(&all[..j - 1], prefix.clone()),
                        false => Replay(&all, exhausted.clone()),
                    };
                    let fails = |step| (retract && step == j).then_some(j - 1);
                    let plans = assert_same_steps(&label, &inst, m, &mut fast, &mut slow, fails);
                    assert_eq!(fast.0.handed_over_at(), Some(j), "{label}");
                    if !retract {
                        verify_ordering(&inst, m, &plans, 0.0)
                            .unwrap_or_else(|e| panic!("{label}: {e}"));
                    }
                }
                prefix.next_plan();
            }
        }
    }

    #[test]
    fn a_hand_over_at_any_call_matches_the_reference_seed_0() {
        assert_a_hand_over_at_any_call_matches_the_reference(0);
    }

    #[test]
    fn a_hand_over_at_any_call_matches_the_reference_seed_7() {
        assert_a_hand_over_at_any_call_matches_the_reference(7);
    }

    #[test]
    fn a_hand_over_at_any_call_matches_the_reference_seed_23() {
        assert_a_hand_over_at_any_call_matches_the_reference(23);
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
