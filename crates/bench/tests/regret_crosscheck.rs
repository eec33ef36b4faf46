//! The regret contract: every shipped strategy emits plans in exact
//! Definition 2.1 order, so the offline [`ordering_regret`] of a drained
//! session's utilities is zero. Regret has no live counterpart — the
//! oracle it folds enumerates the plan space — so this is where it is
//! pinned.

use qpo_bench::{ordering_regret, synthetic_catalog, AlgorithmKind, MeasureKind, RunConfig};
use qpo_core::{ByExpectedTuples, Greedy, IDrips, PlanOrderer};
use qpo_exec::{Mediator, QuerySession, Strategy};
use qpo_utility::{Coverage, LinearCost, UtilityMeasure};

#[test]
fn drained_sessions_have_zero_offline_regret() {
    let (catalog, query) = synthetic_catalog(3, 3, 0.3, 7);
    let mediator = Mediator::new(catalog, 200, &["k"]);
    let prepared = mediator.prepare(&query).unwrap();
    let regret = |measure: &dyn UtilityMeasure, strategy: Strategy| {
        let mut session = QuerySession::new(&mediator, &prepared, &measure, strategy).unwrap();
        let mut utilities = Vec::new();
        while let Some(report) = session.next_report() {
            assert!(report.failure.is_none(), "{strategy}: fault-free");
            utilities.push(report.ordered.utility);
        }
        assert_eq!(
            utilities.len(),
            27,
            "{strategy}: the full 3x3x3 space drains"
        );
        ordering_regret(&prepared.instance, &measure, &utilities)
    };
    let runs: [(&dyn UtilityMeasure, Strategy); 7] = [
        (&LinearCost, Strategy::Greedy),
        (&LinearCost, Strategy::IDrips),
        (&LinearCost, Strategy::Streamer),
        (&LinearCost, Strategy::Pi),
        (&Coverage, Strategy::IDrips),
        (&Coverage, Strategy::Streamer),
        (&Coverage, Strategy::Pi),
    ];
    for (measure, strategy) in runs {
        let r = regret(measure, strategy);
        assert!(
            r.abs() < 1e-9,
            "{} / {strategy}: regret {r}",
            measure.name()
        );
    }
}

#[test]
fn greedy_never_beats_the_exact_prefix_on_a_fully_monotone_measure() {
    // Greedy (per-bucket argmax, no dominance) and iDrips are both exact
    // on `LinearCost`, so both prefixes sit at ~0 regret against the
    // Def. 2.1 oracle; a negative gap would mean the regret accounting
    // itself is broken.
    let inst = RunConfig::new("regret", MeasureKind::Linear, AlgorithmKind::IDrips, 8).instance();
    let regret = |orderer: &mut dyn PlanOrderer| {
        let utilities: Vec<f64> = orderer.order_k(60).iter().map(|o| o.utility).collect();
        assert_eq!(utilities.len(), 60);
        ordering_regret(&inst, &LinearCost, &utilities)
    };
    let idrips = regret(&mut IDrips::new(&inst, &LinearCost, ByExpectedTuples));
    let greedy = regret(&mut Greedy::new(&inst, &LinearCost).unwrap());
    assert!(
        greedy - idrips >= -1e-9,
        "greedy {greedy} vs idrips {idrips}"
    );
    assert!(idrips.abs() < 1e-9 && greedy.abs() < 1e-9);
}
