//! The chain-shaped measures beside their reference twins
//! (`support/chain.rs`, the three hand-written chains and two copies of
//! the caching tests they replaced): `FusionCost`, and `FailureCost` and
//! `MonetaryCost` with and without caching, must return the twins' bits
//! from every entry point over generated instances, abstract and concrete
//! candidate products, and contexts of random executed plans — and,
//! release only, wide, over longer histories and more products. Beside
//! them, the trait's context-free defaults hold for every shipped measure.

#[path = "support/chain.rs"]
mod chain;

use chain::{ReferenceFailureCost, ReferenceFusionCost, ReferenceMonetaryCost};
use proptest::prelude::*;
use qpo_catalog::{GeneratorConfig, ProblemInstance};
use qpo_interval::Interval;
use qpo_utility::{
    as_concrete, Combined, CountingMeasure, Coverage, ExecutionContext, FailureCost, FusionCost,
    IntervalCarry, LinearCost, MonetaryCost, UtilityMeasure,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

type Boxed = Box<dyn UtilityMeasure>;

/// Each chain measure beside its twin.
fn twins() -> Vec<(Boxed, Boxed)> {
    let failure = |caching| ReferenceFailureCost { caching };
    let monetary = |caching| ReferenceMonetaryCost { caching };
    vec![
        (Box::new(FusionCost), Box::new(ReferenceFusionCost)),
        (
            Box::new(FailureCost::without_caching()),
            Box::new(failure(false)),
        ),
        (
            Box::new(FailureCost::with_caching()),
            Box::new(failure(true)),
        ),
        (
            Box::new(MonetaryCost::without_caching()),
            Box::new(monetary(false)),
        ),
        (
            Box::new(MonetaryCost::with_caching()),
            Box::new(monetary(true)),
        ),
    ]
}

/// Every measure the crate ships, and combinations of them.
fn shipped() -> Vec<Boxed> {
    vec![
        Box::new(Coverage),
        Box::new(LinearCost),
        Box::new(FusionCost),
        Box::new(FailureCost::without_caching()),
        Box::new(FailureCost::with_caching()),
        Box::new(MonetaryCost::without_caching()),
        Box::new(MonetaryCost::with_caching()),
        Box::new(Combined::new(LinearCost, 1.0, FusionCost, 2.0)),
        Box::new(Combined::new(Coverage, 100.0, FusionCost, 1.0)),
        Box::new(Combined::new(
            Coverage,
            100.0,
            MonetaryCost::with_caching(),
            1.0,
        )),
        Box::new(CountingMeasure::new(MonetaryCost::without_caching())),
    ]
}

/// One generated instance and what the checks run over.
struct Draw {
    inst: ProblemInstance,
    /// `contexts[s]` holds the first `s` plans of one append-only history.
    contexts: Vec<ExecutionContext>,
    /// Concrete and abstract candidate products, alternating.
    products: Vec<Vec<Vec<usize>>>,
    /// A concrete plan outside the history.
    probe: Vec<usize>,
    rng: StdRng,
}

impl Draw {
    fn new(n: usize, m: usize, overlap: f64, seed: u64, history: usize, products: usize) -> Self {
        let inst = GeneratorConfig::new(n, m)
            .with_overlap_rate(overlap)
            .with_seed(seed)
            .build();
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = |rng: &mut StdRng| -> Vec<usize> {
            inst.buckets
                .iter()
                .map(|b| rng.gen_range(0..b.len()))
                .collect()
        };
        let mut contexts = vec![ExecutionContext::new()];
        for _ in 0..rng.gen_range(0..=history) {
            let mut next = contexts[contexts.len() - 1].clone();
            next.record(&plan(&mut rng));
            contexts.push(next);
        }
        let mut drawn = Vec::new();
        for _ in 0..products {
            drawn.push(plan(&mut rng).into_iter().map(|i| vec![i]).collect());
            let mut subset = |len: usize| {
                let mut c: Vec<usize> = (0..len).filter(|_| rng.gen_bool(0.5)).collect();
                if c.is_empty() {
                    c.push(rng.gen_range(0..len));
                }
                c
            };
            drawn.push(inst.buckets.iter().map(|b| subset(b.len())).collect());
        }
        let probe = plan(&mut rng);
        Draw {
            inst,
            contexts,
            products: drawn,
            probe,
            rng,
        }
    }

    /// The whole history.
    fn executed(&self) -> &[Vec<usize>] {
        self.contexts[self.contexts.len() - 1].executed()
    }
}

fn assert_same_bits(label: &str, shipped: Interval, twin: Interval) {
    assert!(
        shipped.lo().to_bits() == twin.lo().to_bits()
            && shipped.hi().to_bits() == twin.hi().to_bits(),
        "{label}: shipped {shipped} vs twin {twin}"
    );
}

/// Asserts every chain measure answers as its twin does on one draw:
/// `utility`, `utility_interval`, `resume_interval` from a fresh carry and
/// from one resumed over random stops of the history, the three
/// independence tests, and the structural flags.
fn check_beside_twins(n: usize, m: usize, overlap: f64, seed: u64, wide: bool) {
    let (history, products) = if wide { (12, 8) } else { (5, 4) };
    let mut draw = Draw::new(n, m, overlap, seed, history, products);
    let last = draw.contexts.len() - 1;
    let inst = &draw.inst;
    for (shipped, twin) in twins() {
        let label = format!(
            "n {n}, m {m}, overlap {overlap}, seed {seed}, {}",
            twin.name()
        );
        assert_eq!(shipped.name(), twin.name(), "{label}");
        assert_eq!(shipped.context_free(), twin.context_free(), "{label}");
        let dr = (shipped.diminishing_returns(), twin.diminishing_returns());
        assert_eq!(dr.0, dr.1, "{label}: diminishing returns");
        let flags = (
            shipped.monotone_subgoals(inst),
            twin.monotone_subgoals(inst),
        );
        assert_eq!(flags.0, flags.1, "{label}: monotone subgoals");
        for (k, cands) in draw.products.iter().enumerate() {
            let s1 = draw.rng.gen_range(0..=last);
            let s2 = draw.rng.gen_range(s1..=last);
            let (mut carry, mut twin_carry) = (IntervalCarry::default(), IntervalCarry::default());
            for stop in [s1, s2, last] {
                let ctx = &draw.contexts[stop];
                let at = format!("{label}, product {k} {cands:?}, stops {s1}/{s2}, at {stop}");
                let want = twin.utility_interval(inst, cands, ctx);
                assert_same_bits(&at, shipped.utility_interval(inst, cands, ctx), want);
                let fresh =
                    |m: &Boxed| m.resume_interval(inst, cands, ctx, &mut Default::default());
                assert_same_bits(&format!("{at}, fresh"), fresh(&shipped), fresh(&twin));
                assert_same_bits(
                    &format!("{at}, resumed"),
                    shipped.resume_interval(inst, cands, ctx, &mut carry),
                    twin.resume_interval(inst, cands, ctx, &mut twin_carry),
                );
                if let Some(plan) = as_concrete(cands) {
                    let u = (
                        shipped.utility(inst, &plan, ctx),
                        twin.utility(inst, &plan, ctx),
                    );
                    assert_eq!(
                        u.0.to_bits(),
                        u.1.to_bits(),
                        "{at}: utility {} vs {}",
                        u.0,
                        u.1
                    );
                }
                let executed = ctx.executed();
                assert_eq!(
                    shipped.exists_independent(inst, cands, executed),
                    twin.exists_independent(inst, cands, executed),
                    "{at}: exists_independent"
                );
            }
            for d in draw.executed().iter().chain([&draw.probe]) {
                assert_eq!(
                    shipped.all_independent(inst, cands, d),
                    twin.all_independent(inst, cands, d),
                    "{label}, product {k} {cands:?}: all_independent of {d:?}"
                );
                if let Some(p) = as_concrete(cands) {
                    assert_eq!(
                        shipped.independent(inst, &p, d),
                        twin.independent(inst, &p, d),
                        "{label}: independent({p:?}, {d:?})"
                    );
                }
            }
        }
    }
}

/// Cases per run of the properties below; the wide twin runs
/// [`WIDE_CASES`].
const CASES: u32 = 64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The chain measures return their reference twins' bits and answers
    /// (module doc) on generated instances of every shape n 1–4 × m 1–6.
    #[test]
    fn chain_measures_match_their_reference_twins(
        shape in (1usize..=4, 1usize..=6),
        overlap in 0.0f64..=0.9,
        seed in any::<u64>(),
    ) {
        check_beside_twins(shape.0, shape.1, overlap, seed, false);
    }

    /// A context-free measure has diminishing returns and passes all three
    /// independence tests, for every shipped measure: the trait's defaults
    /// derive them, and no override may contradict them.
    #[test]
    fn context_free_implies_diminishing_returns_and_independence(
        shape in (1usize..=4, 1usize..=6),
        overlap in 0.0f64..=0.9,
        seed in any::<u64>(),
    ) {
        let draw = Draw::new(shape.0, shape.1, overlap, seed, 5, 4);
        let inst = &draw.inst;
        for m in shipped().into_iter().filter(|m| m.context_free()) {
            prop_assert!(m.diminishing_returns(), "{}", m.name());
            for cands in &draw.products {
                prop_assert!(m.exists_independent(inst, cands, draw.executed()), "{}", m.name());
                for d in draw.executed().iter().chain([&draw.probe]) {
                    prop_assert!(m.all_independent(inst, cands, d), "{}", m.name());
                    if let Some(p) = as_concrete(cands) {
                        prop_assert!(m.independent(inst, &p, d), "{}", m.name());
                    }
                }
            }
        }
    }
}

/// Instances per run of the wide twin below.
const WIDE_CASES: u32 = 5_000;

/// The twin property over more instances, histories of up to 12 plans and
/// eight products each. Release only (`scripts/ci.sh` runs it).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: cargo test --release -p qpo-utility --test twins wide"
)]
fn chain_measures_match_their_reference_twins_wide() {
    let mut rng = proptest::test_rng("chain_measures_match_their_reference_twins_wide");
    let draw = ((1usize..=4, 1usize..=6), 0.0f64..=0.9, any::<u64>());
    for _ in 0..WIDE_CASES {
        let ((n, m), overlap, seed) = draw.generate(&mut rng);
        check_beside_twins(n, m, overlap, seed, true);
    }
}
