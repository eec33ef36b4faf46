//! The live/offline regret contract: the `qpo_session_regret{strategy}`
//! gauge a quality-tracking [`QuerySession`] maintains online must equal
//! the offline [`ordering_regret`] recomputation over the same emitted
//! utilities — to f64 *bit equality*, not a tolerance. Both sides
//! accumulate strictly left-to-right from `0.0` with the same blind
//! Def. 2.1 oracle, so any drift (reordered sums, a different oracle,
//! an off-by-one prefix) shows up as a changed bit pattern here.

use qpo_bench::{ordering_regret, synthetic_catalog, AlgorithmKind, MeasureKind, RunConfig};
use qpo_core::{ByExpectedTuples, Greedy, IDrips, PlanOrderer};
use qpo_exec::{Mediator, QuerySession, Strategy};
use qpo_obs::Obs;
use qpo_utility::{Coverage, LinearCost};

#[test]
fn live_session_regret_bit_equals_the_offline_recomputation() {
    let (catalog, query) = synthetic_catalog(2, 4, 0.3, 11);
    let obs = Obs::new();
    let mediator = Mediator::new(catalog, 200, &["k"]).with_obs(&obs);
    let prepared = mediator.prepare(&query).unwrap();
    let mut session = QuerySession::new(&mediator, &prepared, &Coverage, Strategy::IDrips)
        .unwrap()
        .with_quality(true);
    let mut utilities = Vec::new();
    while let Some(report) = session.next_report() {
        utilities.push(report.ordered.utility);
    }
    assert_eq!(utilities.len(), 16, "the full 4x4 plan space drains");

    let offline = ordering_regret(&prepared.instance, &Coverage, &utilities);
    let snap = session.quality().expect("quality tracking is on");
    assert_eq!(
        snap.regret.to_bits(),
        offline.to_bits(),
        "snapshot regret {} != offline regret {}",
        snap.regret,
        offline
    );
    let gauge = obs
        .registry
        .gauge("qpo_session_regret", &[("strategy", "idrips")])
        .get();
    assert_eq!(
        gauge.to_bits(),
        offline.to_bits(),
        "gauge regret {gauge} != offline regret {offline}"
    );
    // Mass agrees the same way: plain left-to-right summation.
    let mass = utilities.iter().fold(0.0f64, |a, u| a + u);
    assert_eq!(snap.mass.to_bits(), mass.to_bits());
}

#[test]
fn prefix_sessions_agree_with_prefix_recomputations() {
    // Stop after k plans: the gauge must equal the offline regret of the
    // same k-length prefix (the oracle advanced exactly k times).
    let (catalog, query) = synthetic_catalog(3, 3, 0.3, 7);
    let obs = Obs::new();
    let mediator = Mediator::new(catalog, 200, &["k"]).with_obs(&obs);
    let prepared = mediator.prepare(&query).unwrap();
    let mut session = QuerySession::new(&mediator, &prepared, &Coverage, Strategy::Streamer)
        .unwrap()
        .with_quality(true);
    let mut utilities = Vec::new();
    for _ in 0..10 {
        utilities.push(
            session
                .next_report()
                .expect("27 plans exist")
                .ordered
                .utility,
        );
    }
    let offline = ordering_regret(&prepared.instance, &Coverage, &utilities);
    assert_eq!(
        session.quality().unwrap().regret.to_bits(),
        offline.to_bits()
    );
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
