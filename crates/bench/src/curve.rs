//! The motivation experiment (§1): cumulative answers against plans
//! executed, coverage-ordered vs arbitrary order.
//!
//! Not a Figure 6 panel — it quantifies the claim the whole paper rests
//! on: "executing query plans in the decreasing order of their coverage
//! returns as many answers as possible as soon as possible" (Example 1.2).

use qpo_catalog::{Catalog, GeneratorConfig, MediatedSchema, ProblemInstance, SchemaRelation};
use qpo_core::{ByExpectedTuples, Naive, PlanOrderer, Streamer};
use qpo_datalog::{parse_query, ConjunctiveQuery, SourceDescription};
use qpo_exec::populate_sources;
use qpo_reformulation::reformulate;
use qpo_utility::{Coverage, UtilityMeasure};
use std::collections::BTreeSet;

/// A synthetic LAV catalog mirroring a generated [`ProblemInstance`]: for
/// each of `query_len` chain subgoals `r{b}(A, B)`, `bucket_size`
/// fragment views `v{b}_{i}` with the generator's statistics. Returns the
/// catalog and the matching chain query.
pub fn synthetic_catalog(
    query_len: usize,
    bucket_size: usize,
    overlap: f64,
    seed: u64,
) -> (Catalog, ConjunctiveQuery) {
    let inst = GeneratorConfig::new(query_len, bucket_size)
        .with_overlap_rate(overlap)
        .with_seed(seed)
        .with_universe(200)
        .build();
    let schema = MediatedSchema::with_relations(
        (0..query_len).map(|b| SchemaRelation::new(format!("r{b}"), 2)),
    );
    let mut catalog = Catalog::new(schema);
    for (b, bucket) in inst.buckets.iter().enumerate() {
        for (i, stats) in bucket.iter().enumerate() {
            let mut stats = stats.clone();
            stats.name = None; // let the catalog name it after the view
            catalog
                .add_source(
                    SourceDescription::new(
                        parse_query(&format!("v{b}_{i}(A, B) :- r{b}(A, B)"))
                            .expect("synthetic view parses"),
                    ),
                    stats,
                )
                .expect("synthetic source registers");
        }
    }
    // Star query: every subgoal shares the key attribute K (bound to the
    // populator's single pool value), so a plan's answers are exactly the
    // product of its sources' item sets — the box model, literally.
    let body: Vec<String> = (0..query_len).map(|b| format!("r{b}(K, X{b})")).collect();
    let head: Vec<String> = (0..query_len).map(|b| format!("X{b}")).collect();
    let query = parse_query(&format!("q({}) :- {}", head.join(", "), body.join(", ")))
        .expect("star query parses");
    (catalog, query)
}

/// One point of the answers curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Plans executed so far.
    pub plans: usize,
    /// Distinct answers under coverage (Streamer) ordering.
    pub ordered: usize,
    /// Distinct answers under lexicographic (arbitrary) ordering.
    pub arbitrary: usize,
}

/// Runs the curve experiment: executes every plan under both orders and
/// reports the cumulative distinct-answer counts after each plan.
pub fn answers_curve(query_len: usize, bucket_size: usize, seed: u64) -> Vec<CurvePoint> {
    let (catalog, query) = synthetic_catalog(query_len, bucket_size, 0.3, seed);
    let db = populate_sources(&catalog, &["k"]);
    let reform = reformulate(&catalog, &query).expect("synthetic catalog covers the query");
    let inst = reform
        .problem_instance(&catalog, 200, 5.0)
        .expect("instance assembles");

    // Coverage ordering (all plans are sound here: identity fragments).
    let mut streamer =
        Streamer::new(&inst, &Coverage, &ByExpectedTuples).expect("coverage diminishes");
    let ordered_plans: Vec<Vec<usize>> = streamer
        .order_k(inst.plan_count())
        .into_iter()
        .map(|o| o.plan)
        .collect();
    // Arbitrary ordering: lexicographic enumeration.
    let arbitrary_plans = inst.all_plans();
    assert_eq!(ordered_plans.len(), arbitrary_plans.len());

    let mut curve = Vec::with_capacity(ordered_plans.len());
    let mut ordered_answers: BTreeSet<_> = BTreeSet::new();
    let mut arbitrary_answers: BTreeSet<_> = BTreeSet::new();
    for (k, (op, ap)) in ordered_plans.iter().zip(&arbitrary_plans).enumerate() {
        ordered_answers.extend(db.evaluate(&reform.plan_query(op)));
        arbitrary_answers.extend(db.evaluate(&reform.plan_query(ap)));
        curve.push(CurvePoint {
            plans: k + 1,
            ordered: ordered_answers.len(),
            arbitrary: arbitrary_answers.len(),
        });
    }
    curve
}

/// The regret of an emitted utility sequence against the exact
/// Definition 2.1 oracle over the same instance: oracle prefix mass minus
/// emitted mass after `utilities.len()` emissions.
///
/// The workspace's one measure of ordering quality, and an offline one:
/// the blind [`Naive`] oracle enumerates the whole plan space, which is
/// what the paper's orderers exist to avoid, so no session computes it
/// live. Both masses accumulate strictly left-to-right from `0.0`. Every
/// shipped exact strategy scores zero on it, which the
/// `regret_crosscheck` test pins down.
pub fn ordering_regret<M: UtilityMeasure + ?Sized>(
    inst: &ProblemInstance,
    measure: &M,
    utilities: &[f64],
) -> f64 {
    let mut mass = 0.0;
    let mut oracle_mass = 0.0;
    let mut oracle = Naive::new(inst, measure);
    for &u in utilities {
        mass += u;
        oracle_mass += oracle.next_plan().map_or(0.0, |o| o.utility);
    }
    oracle_mass - mass
}

/// Formats the curve as a table (sampled rows for readability).
pub fn format_curve(points: &[CurvePoint]) -> String {
    let mut out = String::from("plans  ordered  arbitrary  lead\n");
    let step = (points.len() / 12).max(1);
    for (i, p) in points.iter().enumerate() {
        if i % step == 0 || i + 1 == points.len() {
            out.push_str(&format!(
                "{:>5}  {:>7}  {:>9}  {:>+5}\n",
                p.plans,
                p.ordered,
                p.arbitrary,
                p.ordered as i64 - p.arbitrary as i64
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_catalog_is_answerable() {
        let (catalog, query) = synthetic_catalog(2, 3, 0.3, 5);
        assert_eq!(catalog.len(), 6);
        assert!(catalog.validate_query(&query).is_ok());
        let reform = reformulate(&catalog, &query).unwrap();
        assert_eq!(reform.buckets.len(), 2);
        assert!(reform.buckets.iter().all(|b| b.len() == 3));
    }

    #[test]
    fn ordering_regret_vanishes_for_the_oracle_and_penalizes_shuffles() {
        let inst = GeneratorConfig::new(2, 4).with_seed(9).build();
        let exact: Vec<f64> = Naive::new(&inst, &Coverage)
            .order_k(usize::MAX)
            .iter()
            .map(|o| o.utility)
            .collect();
        assert_eq!(exact.len(), 16);
        let r = ordering_regret(&inst, &Coverage, &exact);
        assert_eq!(r.to_bits(), 0.0f64.to_bits(), "the oracle has zero regret");
        // A complete run always ends at ~0 regret (same total mass in a
        // different order); the penalty lives in the *prefixes*, so judge
        // the worst-first order on one.
        let mut reversed = exact.clone();
        reversed.reverse();
        assert!(
            ordering_regret(&inst, &Coverage, &reversed[..5]) > 0.0,
            "a worst-first prefix must trail the oracle"
        );
        // An exact prefix still has zero regret.
        assert_eq!(
            ordering_regret(&inst, &Coverage, &exact[..5]).to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn curve_is_monotone_and_converges() {
        let curve = answers_curve(2, 4, 11);
        assert_eq!(curve.len(), 16);
        for w in curve.windows(2) {
            assert!(w[0].ordered <= w[1].ordered);
            assert!(w[0].arbitrary <= w[1].arbitrary);
        }
        let last = curve.last().unwrap();
        assert_eq!(
            last.ordered, last.arbitrary,
            "both orders end at the same union"
        );
        assert!(last.ordered > 0, "the experiment must produce answers");
        // Coverage ordering is never behind at any prefix... that is only
        // guaranteed on average; assert the summary statistic instead:
        let area_ordered: usize = curve.iter().map(|p| p.ordered).sum();
        let area_arbitrary: usize = curve.iter().map(|p| p.arbitrary).sum();
        assert!(
            area_ordered >= area_arbitrary,
            "coverage ordering should dominate in answer-area: {area_ordered} vs {area_arbitrary}"
        );
        let table = format_curve(&curve);
        assert!(table.contains("plans"));
    }
}
