//! Soundness of abstract-plan evaluation: the utility interval of an
//! abstract plan must contain the exact utility of *every* concrete plan it
//! represents, for every measure, under arbitrary execution contexts —
//! the invariant the whole Drips family rests on (§5.1). Coverage must
//! enclose its members bit for bit (an orderer reads an exact tie between
//! equal-volume plans off its bounds); the cost measures chain `f64`
//! bounds and may miss by rounding.

use proptest::prelude::*;
use query_plan_ordering::prelude::*;

fn instance(seed: u64, query_len: usize, bucket_size: usize) -> ProblemInstance {
    GeneratorConfig::new(query_len, bucket_size)
        .with_seed(seed)
        .build()
}

/// An instance whose sources all have the same length, so every plan's
/// box has the same volume and the plans tie until some run.
fn jitter_free(seed: u64, query_len: usize, bucket_size: usize) -> ProblemInstance {
    GeneratorConfig {
        extent_jitter: 0.0,
        ..GeneratorConfig::new(query_len, bucket_size).with_seed(seed)
    }
    .build()
}

/// The slack [`assert_sound`] allows the chained-`f64` cost measures.
const COST_TOLERANCE: f64 = 1e-9;

/// Deterministically picks a sub-cube of candidates and an executed set
/// from the seed.
fn candidates_and_context(
    inst: &ProblemInstance,
    pick: u64,
) -> (Vec<Vec<usize>>, ExecutionContext) {
    let mut state = pick.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let candidates: Vec<Vec<usize>> = inst
        .buckets
        .iter()
        .map(|b| {
            let mut set: Vec<usize> = (0..b.len()).filter(|_| next() % 2 == 0).collect();
            if set.is_empty() {
                set.push((next() % b.len() as u64) as usize);
            }
            set
        })
        .collect();
    let mut ctx = ExecutionContext::new();
    for _ in 0..(next() % 4) {
        let plan: Vec<usize> = inst
            .buckets
            .iter()
            .map(|b| (next() % b.len() as u64) as usize)
            .collect();
        ctx.record(&plan);
    }
    (candidates, ctx)
}

fn assert_sound<M: UtilityMeasure + ?Sized>(
    inst: &ProblemInstance,
    measure: &M,
    candidates: &[Vec<usize>],
    ctx: &ExecutionContext,
    tolerance: f64,
) {
    let interval = measure.utility_interval(inst, candidates, ctx);
    // Enumerate the member product.
    let mut members = vec![Vec::new()];
    for cands in candidates {
        let mut next = Vec::with_capacity(members.len() * cands.len());
        for m in &members {
            for &i in cands {
                let mut p = m.clone();
                p.push(i);
                next.push(p);
            }
        }
        members = next;
    }
    for plan in members {
        let u = measure.utility(inst, &plan, ctx);
        assert!(
            interval.lo() - tolerance <= u && u <= interval.hi() + tolerance,
            "{}: member {:?} utility {} outside {} (ctx: {} executed)",
            measure.name(),
            plan,
            u,
            interval,
            ctx.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Each draw is checked on its instance and on the instance's
    /// jitter-free twin.
    #[test]
    fn intervals_contain_members(seed in 0u64..10_000, pick in 0u64..10_000,
                                 qlen in 1usize..4, m in 2usize..6) {
        for inst in [instance(seed, qlen, m), jitter_free(seed, qlen, m)] {
            let (cands, ctx) = candidates_and_context(&inst, pick);
            assert_sound(&inst, &Coverage, &cands, &ctx, 0.0);
            for measure in [
                Box::new(LinearCost) as Box<dyn UtilityMeasure>,
                Box::new(FusionCost),
                Box::new(FailureCost::without_caching()),
                Box::new(FailureCost::with_caching()),
                Box::new(MonetaryCost::without_caching()),
                Box::new(MonetaryCost::with_caching()),
            ] {
                assert_sound(&inst, &*measure, &cands, &ctx, COST_TOLERANCE);
            }
        }
    }

    /// Concrete candidate lists collapse to exact points.
    #[test]
    fn concrete_intervals_are_points(seed in 0u64..10_000, pick in 0u64..10_000,
                                     m in 2usize..6) {
        let inst = instance(seed, 3, m);
        let (_, ctx) = candidates_and_context(&inst, pick);
        let plan: Vec<usize> = inst.buckets.iter()
            .map(|b| (pick as usize) % b.len())
            .collect();
        let singles: Vec<Vec<usize>> = plan.iter().map(|&i| vec![i]).collect();
        for measure in [
            Box::new(Coverage) as Box<dyn UtilityMeasure>,
            Box::new(FailureCost::with_caching()),
            Box::new(MonetaryCost::without_caching()),
            Box::new(FusionCost),
        ] {
            let iv = measure.utility_interval(&inst, &singles, &ctx);
            prop_assert!(iv.is_point(), "{}: {iv} not a point", measure.name());
            let u = measure.utility(&inst, &plan, &ctx);
            prop_assert!((iv.lo() - u).abs() < 1e-12);
        }
    }

    /// Independence oracles must be sound: if two plans are declared
    /// independent, executing one must not change the other's utility.
    #[test]
    fn independence_is_sound(seed in 0u64..10_000, pick in 0u64..10_000,
                             m in 2usize..6) {
        let inst = instance(seed, 3, m);
        let (_, mut ctx) = candidates_and_context(&inst, pick);
        let pa = (pick as usize) % inst.plan_count();
        let pb = (pick as usize / 7) % inst.plan_count();
        let plans = inst.all_plans();
        let (p, q) = (&plans[pa], &plans[pb]);
        for measure in [
            Box::new(Coverage) as Box<dyn UtilityMeasure>,
            Box::new(FailureCost::with_caching()),
            Box::new(FailureCost::without_caching()),
            Box::new(MonetaryCost::with_caching()),
        ] {
            if measure.independent(&inst, p, q) {
                let before = measure.utility(&inst, p, &ctx);
                ctx.record(q);
                let after = measure.utility(&inst, p, &ctx);
                prop_assert!((before - after).abs() < 1e-12,
                    "{}: utility of {:?} changed ({before} → {after}) after executing independent {:?}",
                    measure.name(), p, q);
            }
        }
    }

    /// Diminishing returns: measures that declare it must never increase a
    /// plan's utility as the context grows.
    #[test]
    fn diminishing_returns_holds_when_declared(seed in 0u64..10_000, pick in 0u64..10_000,
                                               m in 2usize..6) {
        let inst = instance(seed, 2, m);
        let plans = inst.all_plans();
        let target = &plans[(pick as usize) % plans.len()];
        for measure in [
            Box::new(Coverage) as Box<dyn UtilityMeasure>,
            Box::new(FailureCost::without_caching()),
            Box::new(MonetaryCost::without_caching()),
            Box::new(LinearCost),
            Box::new(FusionCost),
        ] {
            prop_assert!(measure.diminishing_returns());
            let mut ctx = ExecutionContext::new();
            let mut prev = measure.utility(&inst, target, &ctx);
            for (i, e) in plans.iter().enumerate().take(6) {
                ctx.record(e);
                let now = measure.utility(&inst, target, &ctx);
                prop_assert!(now <= prev + 1e-12,
                    "{}: utility rose {prev} → {now} at step {i}", measure.name());
                prev = now;
            }
        }
    }
}
