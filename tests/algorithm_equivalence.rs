//! Cross-algorithm equivalence: every applicable algorithm must solve
//! Definition 2.1 *exactly* on randomly generated instances, for every
//! utility measure — the paper's central correctness claim ("Both iDrips
//! and Streamer return the correct plan ordering", §6).

use proptest::prelude::*;
use query_plan_ordering::prelude::*;

/// Builds a small random instance from proptest-chosen knobs.
fn instance(seed: u64, query_len: usize, bucket_size: usize, overlap: f64) -> ProblemInstance {
    GeneratorConfig::new(query_len, bucket_size)
        .with_seed(seed)
        .with_overlap_rate(overlap)
        .build()
}

fn check_all<M: UtilityMeasure>(inst: &ProblemInstance, measure: &M, k: usize) {
    let tol = 1e-9;
    // iDrips: always applicable.
    let ordering = IDrips::new(inst, measure, ByExpectedTuples).order_k(k);
    verify_ordering(inst, measure, &ordering, tol)
        .unwrap_or_else(|e| panic!("idrips/{}: {e}", measure.name()));
    // PI and Naive: always applicable.
    let ordering = Pi::new(inst, measure).order_k(k);
    verify_ordering(inst, measure, &ordering, tol)
        .unwrap_or_else(|e| panic!("pi/{}: {e}", measure.name()));
    let ordering = Naive::new(inst, measure).order_k(k);
    verify_ordering(inst, measure, &ordering, tol)
        .unwrap_or_else(|e| panic!("naive/{}: {e}", measure.name()));
    // Streamer: when diminishing returns holds.
    if measure.diminishing_returns() {
        let ordering = Streamer::new(inst, measure, &ByExpectedTuples)
            .expect("diminishing returns checked")
            .order_k(k);
        verify_ordering(inst, measure, &ordering, tol)
            .unwrap_or_else(|e| panic!("streamer/{}: {e}", measure.name()));
    }
    // Greedy: when fully monotonic.
    if measure.is_fully_monotonic(inst) {
        let ordering = Greedy::new(inst, measure)
            .expect("monotonicity checked")
            .order_k(k);
        verify_ordering(inst, measure, &ordering, tol)
            .unwrap_or_else(|e| panic!("greedy/{}: {e}", measure.name()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn coverage_orderings_are_exact(seed in 0u64..1000, m in 2usize..6, ov in 0.1f64..0.8) {
        let inst = instance(seed, 2, m, ov);
        check_all(&inst, &Coverage, 8);
    }

    #[test]
    fn failure_cost_orderings_are_exact(seed in 0u64..1000, m in 2usize..5) {
        let inst = instance(seed, 3, m, 0.3);
        check_all(&inst, &FailureCost::without_caching(), 8);
        check_all(&inst, &FailureCost::with_caching(), 8);
    }

    #[test]
    fn monetary_orderings_are_exact(seed in 0u64..1000, m in 2usize..5) {
        let inst = instance(seed, 3, m, 0.3);
        check_all(&inst, &MonetaryCost::without_caching(), 6);
        check_all(&inst, &MonetaryCost::with_caching(), 6);
    }

    #[test]
    fn monotone_cost_orderings_are_exact(seed in 0u64..1000, m in 2usize..6) {
        let inst = instance(seed, 3, m, 0.3);
        check_all(&inst, &LinearCost, 10);
        check_all(&inst, &FusionCost, 10);
    }

    /// Example 1.2's weighted combination orders exactly too (Streamer
    /// applies: both components exhibit diminishing returns).
    #[test]
    fn combined_orderings_are_exact(seed in 0u64..1000, m in 2usize..5) {
        let inst = instance(seed, 2, m, 0.4);
        let measure = Combined::new(Coverage, 50.0, FailureCost::without_caching(), 1.0);
        check_all(&inst, &measure, 8);
    }

    /// The emitted *utility sequences* coincide across algorithms (plans
    /// may differ on exact ties, the utilities may not).
    #[test]
    fn utility_sequences_coincide(seed in 0u64..1000, m in 2usize..5) {
        let inst = instance(seed, 3, m, 0.3);
        let k = 10;
        let pi: Vec<f64> = Pi::new(&inst, &Coverage).order_k(k)
            .into_iter().map(|o| o.utility).collect();
        let idrips: Vec<f64> = IDrips::new(&inst, &Coverage, ByExpectedTuples).order_k(k)
            .into_iter().map(|o| o.utility).collect();
        let streamer: Vec<f64> = Streamer::new(&inst, &Coverage, &ByExpectedTuples).unwrap()
            .order_k(k).into_iter().map(|o| o.utility).collect();
        prop_assert_eq!(pi.len(), idrips.len());
        prop_assert_eq!(pi.len(), streamer.len());
        for i in 0..pi.len() {
            prop_assert!((pi[i] - idrips[i]).abs() < 1e-9, "pi {:?} vs idrips {:?}", pi, idrips);
            prop_assert!((pi[i] - streamer[i]).abs() < 1e-9, "pi {:?} vs streamer {:?}", pi, streamer);
        }
    }
}

/// A context-free measure summing one entry per `(bucket, source)` — the
/// shape of `plan_bound` — so it is fully monotone and Greedy (§4) exact.
struct Additive(Vec<Vec<f64>>);

impl UtilityMeasure for Additive {
    fn name(&self) -> &'static str {
        "additive"
    }

    fn utility(&self, _: &ProblemInstance, plan: &[usize], _: &ExecutionContext) -> f64 {
        plan.iter()
            .enumerate()
            .fold(0.0, |a, (b, &s)| a + self.0[b][s])
            + 0.0
    }

    fn utility_interval(
        &self,
        _: &ProblemInstance,
        candidates: &[Vec<usize>],
        _: &ExecutionContext,
    ) -> Interval {
        let entries = |b: usize| candidates[b].iter().map(move |&s| self.0[b][s]);
        let (lo, hi) = (0..candidates.len()).fold((0.0, 0.0), |(lo, hi), b| {
            let min = entries(b).fold(f64::INFINITY, f64::min);
            (lo + min, hi + entries(b).fold(f64::NEG_INFINITY, f64::max))
        });
        Interval::new(lo + 0.0, hi + 0.0)
    }

    fn diminishing_returns(&self) -> bool {
        true
    }

    fn context_free(&self) -> bool {
        true
    }

    fn monotone_subgoals(&self, inst: &ProblemInstance) -> Vec<bool> {
        vec![true; inst.query_len()]
    }

    fn source_preference(&self, _: &ProblemInstance, source: SourceRef) -> f64 {
        self.0[source.bucket][source.index]
    }

    fn independent(&self, _: &ProblemInstance, _: &[usize], _: &[usize]) -> bool {
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A tuple stream's schedule — the release gate's walk over the
    /// catalog's score bounds — is Greedy's order over the same table:
    /// utilities bit-equal, plans equal wherever the utility is not tied,
    /// and exact under Definition 2.1.
    #[test]
    fn the_score_bound_schedule_is_greedy_over_the_bound(
        seed in 0u64..1000,
        m in 2usize..5,
        jitter in 0.0f64..0.5,
    ) {
        use query_plan_ordering::anyk::{ReleaseGate, ScoreBoundOrder};
        let inst = instance(seed, 3, m, 0.3);
        let scorer = CatalogScorer::new(100).with_jitter(jitter);
        let table: Vec<Vec<f64>> = (inst.buckets.iter().enumerate())
            .map(|(b, bucket)| bucket.iter().map(|s| scorer.atom_bound(b, s)).collect())
            .collect();
        let total = inst.plan_count();
        let order = ScoreBoundOrder::new(ReleaseGate::new(table.clone())).order_k(total);
        let measure = Additive(table);
        let greedy = Greedy::new(&inst, &measure).unwrap().order_k(total);
        prop_assert_eq!(order.len(), total);
        verify_ordering(&inst, &measure, &order, 0.0).unwrap();
        let bits = |o: &OrderedPlan| o.utility.to_bits();
        for (i, (got, want)) in order.iter().zip(&greedy).enumerate() {
            prop_assert_eq!(bits(got), bits(want), "utility {}", i);
            let tied = |j: usize| greedy.get(j).is_some_and(|o| bits(o) == bits(want));
            if (i == 0 || !tied(i - 1)) && !tied(i + 1) {
                prop_assert_eq!(&got.plan, &want.plan, "untied plan {}", i);
            }
        }
    }
}

/// Exhausting the plan space emits every plan exactly once, whatever the
/// algorithm.
#[test]
fn exhaustive_emission_is_a_permutation() {
    let inst = instance(99, 2, 4, 0.4);
    let total = inst.plan_count();
    let orderings: Vec<Vec<OrderedPlan>> = vec![
        IDrips::new(&inst, &Coverage, ByExpectedTuples).order_k(total + 5),
        Streamer::new(&inst, &Coverage, &ByExpectedTuples)
            .unwrap()
            .order_k(total + 5),
        Pi::new(&inst, &Coverage).order_k(total + 5),
    ];
    for ordering in orderings {
        assert_eq!(ordering.len(), total);
        let distinct: std::collections::BTreeSet<_> =
            ordering.iter().map(|o| o.plan.clone()).collect();
        assert_eq!(distinct.len(), total);
    }
}

/// Streamer recomputes a reset utility from the node's carry; the sequence
/// it emits must still be the brute-force one, to the bit (coverage of a
/// concrete plan is an exact volume over the universe volume, so Naive,
/// PI and a resumed fold cannot differ by rounding).
#[test]
fn streamer_with_live_carries_matches_the_bruteforce_orderers() {
    for seed in [3u64, 58, 401] {
        let inst = instance(seed, 3, 4, 0.5);
        let total = inst.plan_count();
        let mut streamer = Streamer::new(&inst, &Coverage, &ByExpectedTuples).unwrap();
        let emitted = streamer.order_k(total);
        let stats = streamer.stats();
        assert!(
            stats.utility_resumes > 0 && stats.utility_resumes < stats.utility_recomputations,
            "seed {seed}: carries never came into play: {stats:?}"
        );
        let bits = |ordering: Vec<OrderedPlan>| -> Vec<u64> {
            ordering.iter().map(|o| o.utility.to_bits()).collect()
        };
        let streamer = bits(emitted);
        assert_eq!(streamer.len(), total);
        assert_eq!(streamer, bits(Naive::new(&inst, &Coverage).order_k(total)));
        assert_eq!(streamer, bits(Pi::new(&inst, &Coverage).order_k(total)));
    }
}

/// Heuristics change work done, never the utility sequence.
#[test]
fn heuristics_do_not_change_results() {
    let inst = instance(5, 3, 4, 0.3);
    let reference: Vec<f64> = Streamer::new(&inst, &Coverage, &ByExpectedTuples)
        .unwrap()
        .order_k(12)
        .into_iter()
        .map(|o| o.utility)
        .collect();
    let alternates: Vec<Vec<f64>> = vec![
        Streamer::new(&inst, &Coverage, &ByExtentMidpoint)
            .unwrap()
            .order_k(12)
            .into_iter()
            .map(|o| o.utility)
            .collect(),
        Streamer::new(&inst, &Coverage, &RandomKey { seed: 3 })
            .unwrap()
            .order_k(12)
            .into_iter()
            .map(|o| o.utility)
            .collect(),
        IDrips::new(&inst, &Coverage, RandomKey { seed: 8 })
            .order_k(12)
            .into_iter()
            .map(|o| o.utility)
            .collect(),
    ];
    for alt in alternates {
        assert_eq!(reference.len(), alt.len());
        for (a, b) in reference.iter().zip(&alt) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
