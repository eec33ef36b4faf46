//! Differential tests for the incremental ordering kernel.
//!
//! The optimized kernel (champion dominance, heap frontier, tree/interval
//! caches) and iDrips over it, with its hand-over to `Pi`, must be
//! *observationally equivalent* to the pre-optimization textbook loop
//! they replaced — the same utilities, bit for bit, at every step, and
//! the same plans up to the first step whose maximum is shared: there
//! `Pi` breaks the tie on the plan encoding where Drips breaks it on its
//! pool order. Three oracles pin that down, the first and the certificate
//! verifier living in `support/` (test support; none of it ships):
//!
//! 1. `support::reference_find_best`, the preserved original kernel, via
//!    `support::ReferenceIDrips` (iDrips re-running it per emission) —
//!    `(plan, utility)` sequence equality under that contract, per
//!    emission; a single call is still exact.
//! 2. Exhaustive enumeration (`verify_ordering`, at tolerance 0) — the
//!    emitted sequence is a correct utility ordering in its own right.
//! 3. `CountingMeasure` — the caches actually *save* measure evaluations
//!    (otherwise the kernel is just complexity), and context-sensitive
//!    measures re-evaluate after every context change (otherwise it is
//!    just wrong) — resuming from their carries after an append, starting
//!    over after a retract.
//!
//! `Pi` has its own twin there too: `support::pi::ReferencePi`, the
//! eager PI of §6 it replaced, which it must match emission for emission
//! with no more evaluations.
//!
//! Streamer has its own twin in `support/`: `support::streamer::ReferenceStreamer`,
//! the Streamer that kept its dominance links in a list beside the graph,
//! which the shipped one must match emission for emission, counters
//! included.

mod support;

use proptest::prelude::*;
use qpo_catalog::{GeneratorConfig, ProblemInstance, StatRange};
use qpo_core::{
    full_space, verify_ordering, AbstractionHeuristic, ByExpectedTuples, ByExtentMidpoint, IDrips,
    KernelStats, Naive, OrderedPlan, OrderingKernel, Pi, PlanOrderer, PlanOutcome, RandomKey,
    Streamer, StreamerStats,
};
use qpo_obs::{EliminationCertificate, Obs};
use qpo_utility::{
    Combined, CountingMeasure, Coverage, ExecutionContext, FailureCost, FusionCost, LinearCost,
    MonetaryCost, UtilityMeasure,
};
use support::pi::ReferencePi;
use support::streamer::ReferenceStreamer;
use support::{
    all_measures, assert_same_steps, reference_find_best, tied_max, verify_certificates,
    ReferenceIDrips,
};

/// Follows two failure-free orderings of `inst` from the start: utility
/// bits equal at every step, plans equal up to the first step whose
/// maximum is tied, and `fast` a Def. 2.1 order at tolerance 0.
fn assert_same_sequence<M: UtilityMeasure + ?Sized>(
    label: &str,
    inst: &ProblemInstance,
    m: &M,
    fast: &[OrderedPlan],
    slow: &[OrderedPlan],
) {
    let (ctx, all) = (ExecutionContext::new(), inst.all_plans());
    assert_same_tail(label, inst, m, ctx, all, fast, slow);
    verify_ordering(inst, m, fast, 0.0).unwrap_or_else(|e| panic!("{label}: {e}"));
}

/// [`assert_same_sequence`]'s step rule for orderings that continue
/// from `ctx` over the plans still `remaining`.
fn assert_same_tail<M: UtilityMeasure + ?Sized>(
    label: &str,
    inst: &ProblemInstance,
    m: &M,
    mut ctx: ExecutionContext,
    mut remaining: Vec<Vec<usize>>,
    fast: &[OrderedPlan],
    slow: &[OrderedPlan],
) {
    assert_eq!(fast.len(), slow.len(), "{label}: emission counts diverge");
    let mut tied = false;
    for (step, (a, b)) in fast.iter().zip(slow).enumerate() {
        assert!(
            a.utility.to_bits() == b.utility.to_bits(),
            "{label}: utilities diverge at step {step}: {} vs {}",
            a.utility,
            b.utility
        );
        tied = tied || tied_max(inst, m, &ctx, &remaining);
        if !tied {
            assert_eq!(
                a.plan, b.plan,
                "{label}: untied plans diverge at step {step}"
            );
        }
        remaining.retain(|p| *p != a.plan);
        ctx.record(&a.plan);
    }
}

/// Two runs of the same kernel: identical, plans and utility bits.
fn assert_identical(label: &str, a: &[OrderedPlan], b: &[OrderedPlan]) {
    assert_eq!(a.len(), b.len(), "{label}: emission counts diverge");
    for (step, (a, b)) in a.iter().zip(b).enumerate() {
        assert_eq!(a.plan, b.plan, "{label}: plans diverge at step {step}");
        assert_eq!(
            a.utility.to_bits(),
            b.utility.to_bits(),
            "{label}: utilities diverge at step {step}"
        );
    }
}

/// The benchmark's `order-coverage` shape: 3 buckets × 5 sources over a
/// universe of 12 per axis, extents overlapping.
fn order_coverage_shape() -> ProblemInstance {
    use qpo_catalog::{Extent, SourceStats};
    let src = |b: u64, j: u64| {
        SourceStats::new().with_extent(Extent::new((2 * j + b) % 6, 4 + (j + 2 * b) % 4))
    };
    let buckets = (0..3)
        .map(|b| (0..5).map(|j| src(b, j)).collect())
        .collect();
    ProblemInstance::new(1.0, vec![12; 3], buckets).unwrap()
}

/// All-identical sources, 2 buckets × 3: every plan covers 0.25 until
/// one has run and 0 after, so every step is a tie.
fn all_tied() -> ProblemInstance {
    use qpo_catalog::{Extent, SourceStats};
    let src = || SourceStats::new().with_extent(Extent::new(0, 5));
    ProblemInstance::new(
        0.0,
        vec![10, 10],
        vec![vec![src(), src(), src()], vec![src(), src(), src()]],
    )
    .unwrap()
}

#[test]
fn full_orderings_match_the_reference_kernel_for_every_measure() {
    for seed in [0u64, 7, 23] {
        let inst = GeneratorConfig::new(3, 4).with_seed(seed).build();
        for (name, m) in all_measures() {
            let label = format!("seed {seed}, measure {name}");
            let fast = IDrips::new(&inst, m.as_ref(), ByExpectedTuples).order_k(usize::MAX);
            let slow =
                ReferenceIDrips::new(&inst, m.as_ref(), ByExpectedTuples).order_k(usize::MAX);
            assert_eq!(fast.len(), inst.plan_count(), "{label}: incomplete");
            assert_same_sequence(&label, &inst, m.as_ref(), &fast, &slow);
        }
    }
}

#[test]
fn orderings_match_exhaustive_enumeration() {
    for seed in [1u64, 5] {
        let inst = GeneratorConfig::new(2, 5).with_seed(seed).build();
        for (name, m) in all_measures() {
            let ordering = IDrips::new(&inst, m.as_ref(), ByExpectedTuples).order_k(12);
            verify_ordering(&inst, m.as_ref(), &ordering, 1e-9)
                .unwrap_or_else(|e| panic!("seed {seed}, measure {name}: {e}"));
        }
    }
}

#[test]
fn equivalence_survives_alternative_heuristics() {
    // The heuristic changes the refinement order, not the emissions; both
    // kernels must track each other under every grouping.
    let inst = GeneratorConfig::new(3, 5).with_seed(42).build();
    let fast = IDrips::new(&inst, &Coverage, ByExtentMidpoint).order_k(20);
    let slow = ReferenceIDrips::new(&inst, &Coverage, ByExtentMidpoint).order_k(20);
    assert_same_sequence("by-extent-midpoint", &inst, &Coverage, &fast, &slow);
    let fast = IDrips::new(&inst, &Coverage, RandomKey { seed: 9 }).order_k(20);
    let slow = ReferenceIDrips::new(&inst, &Coverage, RandomKey { seed: 9 }).order_k(20);
    assert_same_sequence("random-key", &inst, &Coverage, &fast, &slow);
}

#[test]
fn equivalence_survives_observed_failures() {
    // Failures retract from the context (bumping the epoch); the caching
    // measures make later utilities depend on what actually survived, and
    // coverage on which boxes are still counted as covered, so any stale
    // cached interval — or a carry resumed across the retraction — would
    // surface here.
    let inst = GeneratorConfig::new(3, 4).with_seed(17).build();
    let measures: [(&str, Box<dyn UtilityMeasure>); 3] = [
        ("failure-cache", Box::new(FailureCost::with_caching())),
        ("coverage", Box::new(Coverage)),
        ("monetary-cache", Box::new(MonetaryCost::with_caching())),
    ];
    for (name, m) in measures {
        let mut fast = IDrips::new(&inst, m.as_ref(), ByExpectedTuples);
        let mut slow = ReferenceIDrips::new(&inst, m.as_ref(), ByExpectedTuples);
        let fails = |step| (step % 2 == 0).then_some(step);
        assert_same_steps(name, &inst, m.as_ref(), &mut fast, &mut slow, fails);
    }
}

#[test]
fn appends_resume_carries_and_a_retract_discards_them() {
    let inst = GeneratorConfig::new(3, 5).with_seed(4).build();
    let m = CountingMeasure::new(Coverage);
    let mut alg = IDrips::new(&inst, &m, ByExpectedTuples);
    // What one emission cost: (measure evaluations, those the kernel
    // resumed from a carry). The rest started from scratch.
    let emit = |alg: &mut IDrips<_, _>| {
        let before = (m.interval_evals(), alg.kernel_stats().interval_resumes);
        let plan = alg.next_plan().expect("plans remain").plan;
        let evals = m.interval_evals() - before.0;
        (plan, evals, alg.kernel_stats().interval_resumes - before.1)
    };
    let (_, evals, resumes) = emit(&mut alg);
    assert!(evals > 0 && resumes == 0, "nothing to resume at the start");
    // Pure appends: once the full space has split into spaces that
    // outlive an emission, their intervals pick up from the carries (only
    // candidate sets never seen before start over).
    for _ in 0..4 {
        emit(&mut alg);
    }
    let (last, evals, resumes) = emit(&mut alg);
    assert!(
        resumes * 2 > evals,
        "after an append {resumes} of {evals} evaluations resumed"
    );
    // A retract: the history is no longer an extension of what the
    // carries saw, so every evaluation starts over.
    alg.observe(&PlanOutcome::failed(&last));
    let (_, evals, resumes) = emit(&mut alg);
    assert!(
        evals > 0 && resumes == 0,
        "{resumes} resumed across a retract"
    );
    let (_, _, resumes) = emit(&mut alg);
    assert!(resumes > 0, "resuming picks up again after the retract");
    assert_eq!(alg.kernel_stats().interval_evals, m.interval_evals());
}

#[test]
fn order_coverage_shape_matches_the_reference_kernel() {
    // Sixty emissions split the space into many sub-spaces, whose trees
    // share the kernel's candidate-set ids.
    let inst = order_coverage_shape();
    let fast = IDrips::new(&inst, &Coverage, ByExpectedTuples).order_k(60);
    let slow = ReferenceIDrips::new(&inst, &Coverage, ByExpectedTuples).order_k(60);
    assert_eq!(fast.len(), 60);
    assert_same_sequence("order-coverage shape", &inst, &Coverage, &fast, &slow);
}

#[test]
fn tie_heavy_instances_match_exactly() {
    // All-identical sources: every interval ties, so emission order is
    // decided purely by the deterministic tie-breaks — the part of the
    // kernel rewrite most likely to drift.
    let inst = all_tied();
    let fast = IDrips::new(&inst, &Coverage, ByExpectedTuples).order_k(usize::MAX);
    let slow = ReferenceIDrips::new(&inst, &Coverage, ByExpectedTuples).order_k(usize::MAX);
    assert_eq!(fast.len(), 9);
    assert_same_sequence("all-tied", &inst, &Coverage, &fast, &slow);
}

#[test]
fn the_floor_answers_late_calls_and_breaks_ties_on_the_smallest_plan() {
    // Late in an order-coverage run iDrips hands its remaining plans to
    // `Pi`, which answers every call from then on.
    let inst = order_coverage_shape();
    let mut alg = IDrips::new(&inst, &Coverage, ByExpectedTuples);
    alg.order_k(60);
    let floor_calls = alg.kernel_stats().floor_calls;
    assert!(
        floor_calls > 0 && floor_calls < 60,
        "{floor_calls} of 60 calls answered by brute force"
    );
    assert_eq!(alg.handed_over_at(), Some(61 - floor_calls as usize));
    // All tied after the first plan: the first two calls run Drips, and
    // the rent-or-buy rule hands over at the third; `Pi` takes the
    // smallest remaining plan at every later call.
    let inst = all_tied();
    let mut alg = IDrips::new(&inst, &Coverage, ByExpectedTuples);
    let drips = alg.order_k(2);
    assert_eq!(
        alg.kernel_stats().floor_calls,
        0,
        "the first calls run Drips"
    );
    let rest = alg.order_k(usize::MAX);
    assert_eq!(alg.kernel_stats().floor_calls, 7);
    assert_eq!(alg.handed_over_at(), Some(3));
    let mut smallest_first = inst.all_plans();
    smallest_first.retain(|p| drips.iter().all(|o| o.plan != *p));
    smallest_first.sort();
    let plans: Vec<Vec<usize>> = rest.iter().map(|o| o.plan.clone()).collect();
    assert_eq!(plans, smallest_first);
    assert!(rest.iter().all(|o| o.utility.to_bits() == 0.0f64.to_bits()));
}

#[test]
fn pi_carries_change_no_bit() {
    // `Pi` values a row from its carry, `Naive` every plan from scratch
    // through `utility`: the same plans and utility bits at every step,
    // every third plan observed failed two pops late, after `Pi`'s
    // carries have folded it in (so the retraction must drop them).
    let mut instances = vec![("order-coverage shape".to_string(), order_coverage_shape())];
    for seed in [0u64, 7, 23] {
        let inst = GeneratorConfig::new(3, 4).with_seed(seed).build();
        instances.push((format!("seed {seed}"), inst));
    }
    for (shape, inst) in &instances {
        for (name, m) in all_measures() {
            let mut pi = Pi::new(inst, m.as_ref());
            let mut naive = Naive::new(inst, m.as_ref());
            let mut plans = Vec::new();
            for step in 0..inst.plan_count() {
                let label = format!("{shape}, {name}, step {step}");
                let a = pi.next_plan().expect("Pi exhausted early");
                let b = naive.next_plan().expect("Naive exhausted early");
                assert_eq!(a.plan, b.plan, "{label}");
                assert_eq!(a.utility.to_bits(), b.utility.to_bits(), "{label}");
                plans.push(a.plan);
                if step >= 2 && (step - 2) % 3 == 0 {
                    let failed = PlanOutcome::failed(&plans[step - 2]);
                    pi.observe(&failed);
                    naive.observe(&failed);
                }
            }
            assert_eq!(pi.next_plan(), None);
        }
    }
}

#[test]
fn caches_save_evaluations_without_changing_results() {
    // Context-free measures: the incremental kernel must do the same job
    // with at most half the `utility_interval` calls (the ≥2× bar). First
    // a full ordering at test scale, then the context-free family of §6
    // on the experiment harness' instance shape (`RunConfig::instance`)
    // for its first 60 plans — 100 for cost measure (2), which reads
    // exactly 2.00× at 60 (634 → 317) and 2.14× at 100 (992 → 464).
    let small = GeneratorConfig::new(3, 6).with_seed(3).build();
    let harness = GeneratorConfig::new(3, 8)
        .with_overlap_rate(0.3)
        .with_seed(7)
        .with_failure_prob(StatRange::new(0.0, 0.3))
        .build();
    let failure = FailureCost::without_caching();
    let cases: [(&str, &ProblemInstance, usize, &dyn UtilityMeasure); 5] = [
        ("failure 3x6", &small, usize::MAX, &failure),
        ("failure", &harness, 60, &failure),
        ("monetary", &harness, 60, &MonetaryCost::without_caching()),
        ("cost2", &harness, 100, &FusionCost),
        ("linear", &harness, 60, &LinearCost),
    ];
    for (name, inst, k, measure) in cases {
        let fast_m = CountingMeasure::new(measure);
        let slow_m = CountingMeasure::new(measure);
        let mut fast = IDrips::new(inst, &fast_m, ByExpectedTuples);
        let a = fast.order_k(k);
        let b = ReferenceIDrips::new(inst, &slow_m, ByExpectedTuples).order_k(k);
        assert_same_sequence(name, inst, measure, &a, &b);
        let fast_evals = fast_m.interval_evals();
        let slow_evals = slow_m.interval_evals();
        assert!(
            fast_evals * 2 <= slow_evals,
            "{name}: expected ≥2× fewer interval evals: fast {fast_evals} vs reference {slow_evals}"
        );
        let stats = fast.kernel_stats();
        assert_eq!(
            stats.interval_evals, fast_evals,
            "{name}: counter agreement"
        );
        if name == "failure 3x6" {
            // Run to exhaustion, the tail falls to the floor, which
            // enumerates plans Drips would have pruned inside abstract
            // ones — and still demands no more than the reference.
            assert!(stats.floor_calls > 0, "{name}: the floor answers the tail");
            assert!(
                stats.interval_evals + stats.interval_cache_hits <= slow_evals,
                "{name}: the floor demands more than the reference evaluates"
            );
        } else {
            assert_eq!(stats.floor_calls, 0, "{name}: no floor call");
            assert_eq!(
                stats.interval_evals + stats.interval_cache_hits,
                slow_evals,
                "{name}: every reference eval is either recomputed or a cache hit"
            );
        }
        assert_eq!(stats.evals_saved(), stats.interval_cache_hits);
        assert!(
            stats.tree_cache_hits > 0,
            "{name}: trees reused across emissions"
        );
    }
}

#[test]
fn instrumentation_does_not_change_emissions() {
    // Full qpo-obs instrumentation — shared registry *and* an enabled
    // trace journal — must be observationally invisible: bit-for-bit the
    // same emissions as an uninstrumented run, for every measure.
    let obs = Obs::with_trace();
    for seed in [0u64, 23] {
        let inst = GeneratorConfig::new(3, 4).with_seed(seed).build();
        for (name, m) in all_measures() {
            let plain = IDrips::new(&inst, m.as_ref(), ByExpectedTuples).order_k(usize::MAX);
            let traced = IDrips::new(&inst, m.as_ref(), ByExpectedTuples)
                .with_obs(&obs)
                .order_k(usize::MAX);
            assert_identical(
                &format!("seed {seed}, instrumented {name}"),
                &traced,
                &plain,
            );
        }
    }
    assert!(!obs.journal.is_empty(), "kernel events were journalled");
    assert!(
        obs.registry.counter_total("qpo_kernel_rounds_total") > 0,
        "kernel counters landed on the shared registry"
    );
}

/// A counter's registry name (less its prefix and `_total`) and its
/// field in an orderer's stats.
type Count<S, N> = (&'static str, fn(&S) -> N);

#[test]
fn shared_registry_totals_are_the_sum_of_each_orderers_stats() {
    // Two sessions on one mediator put their orderers on its one registry.
    // Each orderer counts into its own fields and publishes at the end of
    // every call, so after any call the registry holds the sum of the
    // orderers' `stats()` — what it held when every count went straight
    // to the shared cells — and each `stats()` is that orderer's alone.
    let obs = Obs::new();
    let inst = order_coverage_shape();
    let mut idrips = (
        IDrips::new(&inst, &Coverage, ByExpectedTuples).with_obs(&obs),
        IDrips::new(&inst, &Coverage, ByExtentMidpoint).with_obs(&obs),
    );
    let streamer =
        |h: &dyn AbstractionHeuristic| Streamer::new(&inst, &Coverage, h).unwrap().with_obs(&obs);
    let mut streamers = (streamer(&ByExpectedTuples), streamer(&ByExtentMidpoint));
    let registry = |name: &str| obs.registry.counter_value(name, &[]);
    let kernel: [Count<KernelStats, u64>; 11] = [
        ("rounds", |s| s.rounds),
        ("refinements", |s| s.refinements),
        ("dominance_checks", |s| s.dominance_checks),
        ("eliminations", |s| s.eliminations),
        ("champion_sweeps", |s| s.champion_sweeps),
        ("interval_evals", |s| s.interval_evals),
        ("interval_resumes", |s| s.interval_resumes),
        ("interval_cache_hits", |s| s.interval_cache_hits),
        ("tree_builds", |s| s.tree_builds),
        ("tree_cache_hits", |s| s.tree_cache_hits),
        ("floor_calls", |s| s.floor_calls),
    ];
    let streamer_counts: [Count<StreamerStats, usize>; 6] = [
        ("refinements", |s| s.refinements),
        ("links_created", |s| s.links_created),
        ("links_recycled", |s| s.links_recycled),
        ("links_invalidated", |s| s.links_invalidated),
        ("utility_recomputations", |s| s.utility_recomputations),
        ("utility_resumes", |s| s.utility_resumes),
    ];
    for step in 0..=inst.plan_count() {
        // Interleaved, as two clients' pulls are.
        idrips.0.next_plan();
        streamers.1.next_plan();
        idrips.1.next_plan();
        streamers.0.next_plan();
        let (a, b) = (idrips.0.kernel_stats(), idrips.1.kernel_stats());
        for (name, count) in kernel {
            let total = registry(&format!("qpo_kernel_{name}_total"));
            assert_eq!(total, count(&a) + count(&b), "step {step}: {name}");
        }
        let (a, b) = (streamers.0.stats(), streamers.1.stats());
        for (name, count) in streamer_counts {
            let total = registry(&format!("qpo_streamer_{name}_total"));
            assert_eq!(total, (count(&a) + count(&b)) as u64, "step {step}: {name}");
        }
    }
    assert!(
        idrips.0.kernel_stats().floor_calls > 0,
        "Pi's calls count too"
    );
    assert_ne!(idrips.0.kernel_stats(), idrips.1.kernel_stats());
}

/// Every elimination `obs`'s journal holds, as the certificate its event
/// decodes to — the journal is the kernel's only record of one.
fn journalled_certificates(obs: &Obs) -> Vec<EliminationCertificate> {
    let events = obs.journal.events();
    let kills = events.iter().filter(|e| e.kind == "kernel_elimination");
    kills
        .map(|e| EliminationCertificate::from_record(&e.into()).expect("every field present"))
        .collect()
}

#[test]
fn certificate_recording_does_not_change_emissions() {
    // Dominance provenance must be pure bookkeeping: with the journal
    // recording, every measure still emits bit-for-bit the same
    // sequence, and each recorded certificate replays cleanly against the
    // emissions that preceded it.
    for seed in [0u64, 23] {
        let inst = GeneratorConfig::new(3, 4).with_seed(seed).build();
        for (name, m) in all_measures() {
            let label = format!("seed {seed}, certified {name}");
            let plain = IDrips::new(&inst, m.as_ref(), ByExpectedTuples).order_k(usize::MAX);
            let obs = Obs::with_trace();
            let mut certified = IDrips::new(&inst, m.as_ref(), ByExpectedTuples).with_obs(&obs);
            let emitted = certified.order_k(usize::MAX);
            assert_identical(&label, &emitted, &plain);
            let certs = journalled_certificates(&obs);
            assert!(!certs.is_empty(), "{label}: no eliminations recorded");
            let plans: Vec<Vec<usize>> = emitted.iter().map(|o| o.plan.clone()).collect();
            let checked = verify_certificates(&inst, m.as_ref(), &plans, &certs)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(
                checked,
                certs.len(),
                "{label}: not every certificate replayed"
            );
        }
    }
}

#[test]
fn fig6_coverage_run_verifies_every_certificate() {
    // The ISSUE's acceptance bar: a full fig6-scale coverage workload
    // (query length 3, 12 sources per bucket, overlap 0.3, top-100) with
    // zero certificate mismatches on replay.
    let inst = GeneratorConfig::new(3, 12)
        .with_overlap_rate(0.3)
        .with_seed(0)
        .build();
    let obs = Obs::with_trace();
    let mut alg = IDrips::new(&inst, &Coverage, ByExpectedTuples).with_obs(&obs);
    let emitted = alg.order_k(100);
    assert_eq!(emitted.len(), 100);
    let certs = journalled_certificates(&obs);
    assert!(
        certs.len() > 100,
        "a 12³-plan space should eliminate far more than it emits (got {})",
        certs.len()
    );
    let plans: Vec<Vec<usize>> = emitted.iter().map(|o| o.plan.clone()).collect();
    let checked = verify_certificates(&inst, &Coverage, &plans, &certs)
        .expect("every elimination certificate must replay without mismatch");
    assert_eq!(checked, certs.len());
    // Each certificate is also independently checkable without the
    // measure: the recorded intervals themselves justify the kill.
    for (i, c) in certs.iter().enumerate() {
        assert!(
            c.comparison_holds(),
            "certificate {i} does not justify its kill"
        );
    }
    // The kernel journals its certificates and nothing else, one per
    // elimination.
    let events = obs.journal.events();
    let other = events.iter().find(|e| e.kind != "kernel_elimination");
    assert!(other.is_none(), "a non-certificate event: {other:?}");
    assert_eq!(events.len() as u64, alg.kernel_stats().eliminations);
}

#[test]
fn context_sensitive_measures_reevaluate_on_every_epoch() {
    // The caching FailureCost's intervals depend on the executed history;
    // after each emission records a plan, the memo table must be cold.
    let inst = GeneratorConfig::new(2, 3).with_seed(6).build();
    let m = CountingMeasure::new(FailureCost::with_caching());
    let mut alg = IDrips::new(&inst, &m, ByExpectedTuples);
    let first = alg.next_plan().expect("non-empty instance");
    let after_first = m.interval_evals();
    let second = alg.next_plan().expect("more than one plan");
    assert!(
        m.interval_evals() > after_first,
        "second emission must re-evaluate under the new context"
    );
    // And retraction (failure) also invalidates: observing a failure then
    // re-running matches a fresh reference run over the same history.
    alg.observe(&PlanOutcome::failed(&first.plan));
    let rest = alg.order_k(usize::MAX);
    let mut oracle = ReferenceIDrips::new(&inst, &m, ByExpectedTuples);
    let o_first = oracle.next_plan().unwrap();
    let o_second = oracle.next_plan().unwrap();
    assert_eq!((&first, &second), (&o_first, &o_second));
    oracle.observe(&PlanOutcome::failed(&o_first.plan));
    let o_rest = oracle.order_k(usize::MAX);
    let mut ctx = ExecutionContext::new();
    ctx.record(&second.plan);
    let mut remaining = inst.all_plans();
    remaining.retain(|p| *p != first.plan && *p != second.plan);
    let (inner, label) = (m.inner(), "post-retract");
    assert_same_tail(label, &inst, inner, ctx, remaining, &rest, &o_rest);
}

#[test]
fn kernel_and_reference_agree_on_a_single_space() {
    for seed in 0..8u64 {
        let inst = GeneratorConfig::new(3, 6).with_seed(seed).build();
        let ctx = ExecutionContext::new();
        let spaces = [full_space(&inst)];
        let mut kernel = OrderingKernel::new();
        let fast = kernel.find_best(&inst, &Coverage, &ctx, &spaces, &ByExpectedTuples);
        let slow = reference_find_best(&inst, &Coverage, &ctx, &spaces, &ByExpectedTuples);
        assert_eq!(fast, slow, "seed {seed}");
    }
}

#[test]
fn context_epoch_invalidates_the_interval_cache() {
    let inst = GeneratorConfig::new(2, 4).with_seed(3).build();
    let spaces = [full_space(&inst)];
    let m = CountingMeasure::new(FailureCost::with_caching());
    let mut ctx = ExecutionContext::new();
    let mut kernel = OrderingKernel::new();
    let first = kernel
        .find_best(&inst, &m, &ctx, &spaces, &ByExpectedTuples)
        .unwrap();
    let before = m.interval_evals();
    ctx.record(&first.plan);
    kernel.find_best(&inst, &m, &ctx, &spaces, &ByExpectedTuples);
    assert!(
        m.interval_evals() > before,
        "context-sensitive measure re-evaluates after record"
    );
    // And the re-evaluated result matches the reference kernel.
    let slow = reference_find_best(&inst, &m, &ctx, &spaces, &ByExpectedTuples);
    let fast = kernel.find_best(&inst, &m, &ctx, &spaces, &ByExpectedTuples);
    assert_eq!(fast, slow);
}

#[test]
fn certificates_record_every_elimination_and_verify() {
    let inst = GeneratorConfig::new(3, 6).with_seed(2).build();
    let ctx = ExecutionContext::new();
    let spaces = [full_space(&inst)];
    let mut plain = OrderingKernel::new();
    let obs = Obs::with_trace();
    let mut certified = OrderingKernel::new().with_obs(&obs);
    let expected = plain.find_best(&inst, &Coverage, &ctx, &spaces, &ByExpectedTuples);
    let got = certified.find_best(&inst, &Coverage, &ctx, &spaces, &ByExpectedTuples);
    assert_eq!(got, expected, "recording provenance never changes emission");
    let certs = journalled_certificates(&obs);
    assert_eq!(
        certs.len() as u64,
        certified.stats().eliminations,
        "one certificate per elimination"
    );
    assert!(!certs.is_empty(), "dominance prunes something at 3×6");
    for cert in &certs {
        assert!(cert.comparison_holds());
        assert!(!cert.victim.is_empty() && !cert.champion.is_empty());
    }
    let verified = verify_certificates(&inst, &Coverage, &[], &certs).expect("all replay");
    assert_eq!(verified, certs.len());
}

#[test]
fn verify_rejects_tampered_certificates() {
    let inst = GeneratorConfig::new(3, 6).with_seed(2).build();
    let ctx = ExecutionContext::new();
    let spaces = [full_space(&inst)];
    let obs = Obs::with_trace();
    let mut kernel = OrderingKernel::new().with_obs(&obs);
    kernel.find_best(&inst, &Coverage, &ctx, &spaces, &ByExpectedTuples);
    let certs = journalled_certificates(&obs);

    // Inflate the victim's upper bound past the champion's lower
    // bound: the dominance comparison no longer holds.
    let mut broken = certs.clone();
    broken[0].victim_interval.1 = broken[0].champion_interval.0 + 1.0;
    broken[0].victim_interval.0 = broken[0].victim_interval.1.min(broken[0].victim_interval.0);
    let err = verify_certificates(&inst, &Coverage, &[], &broken).unwrap_err();
    assert_eq!(err.index, 0);
    assert!(err.reason.contains("do not dominate"), "{err}");

    // Nudge a recorded bound slightly downward: the comparison still
    // holds, but the bit-for-bit re-derivation catches it.
    let mut nudged = certs;
    nudged[0].victim_interval.0 -= 1e-9;
    let err = verify_certificates(&inst, &Coverage, &[], &nudged).unwrap_err();
    assert!(err.reason.contains("interval mismatch"), "{err}");

    // And malformed intervals are rejected, not panicked on.
    let mut malformed = nudged;
    malformed[0].champion_interval = (1.0, 0.0);
    let err = verify_certificates(&inst, &Coverage, &[], &malformed).unwrap_err();
    assert!(err.reason.contains("malformed"), "{err}");
}

#[test]
fn verify_replays_context_sensitive_epochs_from_emissions() {
    let inst = GeneratorConfig::new(2, 4).with_seed(3).build();
    let spaces = [full_space(&inst)];
    let measure = FailureCost::with_caching();
    let mut ctx = ExecutionContext::new();
    let obs = Obs::with_trace();
    let mut kernel = OrderingKernel::new().with_obs(&obs);
    let mut emissions: Vec<Vec<usize>> = Vec::new();
    for _ in 0..3 {
        let out = kernel
            .find_best(&inst, &measure, &ctx, &spaces, &ByExpectedTuples)
            .expect("space is non-empty");
        ctx.record(&out.plan);
        emissions.push(out.plan);
    }
    let certs = journalled_certificates(&obs);
    assert!(
        certs.iter().any(|c| c.epoch > 0),
        "later rounds eliminate at non-zero epochs"
    );
    verify_certificates(&inst, &measure, &emissions, &certs).expect("epoch replay verifies");
    // Without the emissions the later epochs are unreachable.
    let err = verify_certificates(&inst, &measure, &[], &certs).unwrap_err();
    assert!(err.reason.contains("unreachable"), "{err}");
}

/// Instances per run of the twin property below.
const CASES: u32 = 64;

/// Plans per instance of the twin property: a drain costs about the
/// square of the space, and the property runs in the debug test suite, so
/// four subgoals stop at three sources each.
const MAX_TWIN_PLANS: usize = 216;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Streamer, with one dominance link held by each node it dominates, is
    /// the Streamer that kept its links in a list beside the graph: the
    /// same plan, the same utility bits and the same work counters after
    /// every emission, drained to the end under every measure with
    /// diminishing returns and both abstraction heuristics.
    #[test]
    fn streamer_matches_its_reference_twin(
        shape in (1usize..=4, 1usize..=6)
            .prop_filter("space too large", |&(n, m)| m.pow(n as u32) <= MAX_TWIN_PLANS),
        overlap in 0.0f64..=0.9,
        seed in any::<u64>(),
    ) {
        let (n, m) = shape;
        let inst = GeneratorConfig::new(n, m)
            .with_overlap_rate(overlap)
            .with_seed(seed)
            .build();
        let (failure, monetary) = (FailureCost::without_caching(), MonetaryCost::without_caching());
        let measures: [&dyn UtilityMeasure; 4] = [&Coverage, &FusionCost, &failure, &monetary];
        let heuristics: [(&str, &dyn AbstractionHeuristic); 2] =
            [("by-tuples", &ByExpectedTuples), ("by-extent", &ByExtentMidpoint)];
        for measure in measures {
            for (by, heuristic) in heuristics {
                let label = format!(
                    "n {n}, m {m}, overlap {overlap}, seed {seed}, {} {by}",
                    measure.name()
                );
                let mut fast = Streamer::new(&inst, measure, heuristic).unwrap();
                let mut slow = ReferenceStreamer::new(&inst, measure, heuristic).unwrap();
                for step in 0..=inst.plan_count() {
                    let (a, b) = (fast.next_plan(), slow.next_plan());
                    prop_assert_eq!(
                        a.as_ref().map(|o| (&o.plan, o.utility.to_bits())),
                        b.as_ref().map(|o| (&o.plan, o.utility.to_bits())),
                        "{}: emissions diverge at step {}", label, step
                    );
                    prop_assert_eq!(
                        fast.stats(),
                        slow.stats(),
                        "{}: work diverges at step {}", label, step
                    );
                }
            }
        }
    }
}

/// Instances per run of the wide twin below (≈ 20 s in release on a
/// 2-core x86-64 VM).
const WIDE_CASES: u32 = 200;

/// Drains `Streamer` beside [`ReferenceStreamer`] on one generated
/// instance, as `streamer_matches_its_reference_twin` does, panicking on
/// the first emission or counter that differs. A `tied` instance has
/// sources of one length, so Coverage ties every plan until some run.
fn drain_beside_twin(n: usize, m: usize, overlap: f64, seed: u64, tied: bool) {
    let mut config = GeneratorConfig::new(n, m)
        .with_overlap_rate(overlap)
        .with_seed(seed);
    if tied {
        config.extent_jitter = 0.0;
    }
    let inst = config.build();
    let (failure, monetary) = (
        FailureCost::without_caching(),
        MonetaryCost::without_caching(),
    );
    let measures: [&dyn UtilityMeasure; 4] = [&Coverage, &FusionCost, &failure, &monetary];
    let heuristics: [(&str, &dyn AbstractionHeuristic); 2] = [
        ("by-tuples", &ByExpectedTuples),
        ("by-extent", &ByExtentMidpoint),
    ];
    for measure in measures {
        for (by, heuristic) in heuristics {
            let label = format!(
                "n {n}, m {m}, overlap {overlap}, seed {seed}, tied {tied}, {} {by}",
                measure.name()
            );
            let mut fast = Streamer::new(&inst, measure, heuristic).unwrap();
            let mut slow = ReferenceStreamer::new(&inst, measure, heuristic).unwrap();
            for step in 0..=inst.plan_count() {
                let (a, b) = (fast.next_plan(), slow.next_plan());
                assert_eq!(
                    a.as_ref().map(|o| (&o.plan, o.utility.to_bits())),
                    b.as_ref().map(|o| (&o.plan, o.utility.to_bits())),
                    "{label}: emissions diverge at step {step}"
                );
                assert_eq!(
                    fast.stats(),
                    slow.stats(),
                    "{label}: work diverges at step {step}"
                );
            }
        }
    }
}

/// The twin property over the whole n 1–4 × m 1–6 range, up to 1 296
/// plans per instance: the large graphs are where step 2.b's fresh-pair
/// rule skips the most. Every other draw is drained a second time tied
/// (jitter-free), where step 2.b's `(members, id)` tie rule decides the
/// links. A debug drain of those takes minutes, so this one runs in
/// release (`scripts/ci.sh` does).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: cargo test --release -p qpo-core --test kernel_equivalence wide"
)]
fn streamer_matches_its_reference_twin_wide() {
    let mut rng = proptest::test_rng("streamer_matches_its_reference_twin_wide");
    let draw = ((1usize..=4, 1usize..=6), 0.0f64..=0.9, any::<u64>());
    for case in 0..WIDE_CASES {
        let ((n, m), overlap, seed) = draw.generate(&mut rng);
        drain_beside_twin(n, m, overlap, seed, false);
        if case % 2 == 1 {
            drain_beside_twin(n, m, overlap, seed, true);
        }
    }
}

/// Every measure `Pi` accepts, for its twin property: [`all_measures`],
/// a context-free one, and two combined ones, one with diminishing returns
/// and one without.
fn pi_measures() -> Vec<Box<dyn UtilityMeasure>> {
    let mut measures: Vec<_> = all_measures().into_iter().map(|(_, m)| m).collect();
    measures.push(Box::new(LinearCost));
    let cost = MonetaryCost::without_caching();
    measures.push(Box::new(Combined::new(Coverage, 100.0, cost, 1.0)));
    let cost = FailureCost::with_caching();
    measures.push(Box::new(Combined::new(Coverage, 100.0, cost, 1.0)));
    measures
}

/// Drains `Pi` beside [`ReferencePi`] on one generated instance, under
/// every measure of [`pi_measures`]: both take over a random prefix of a
/// shuffled plan list as their context through `from_plans`, and after a
/// random fifth of the emissions both observe a random plan of the history
/// failed. Per emission: the same plan and utility bits, and no more
/// evaluations than the twin — exactly as many without diminishing
/// returns, where every row an emission moves is keyed +∞.
fn drain_pi_beside_twin(n: usize, m: usize, overlap: f64, seed: u64) {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let inst = GeneratorConfig::new(n, m)
        .with_overlap_rate(overlap)
        .with_seed(seed)
        .build();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plans = inst.all_plans();
    for i in (1..plans.len()).rev() {
        plans.swap(i, rng.gen_range(0..=i));
    }
    let taken = match rng.gen_bool(0.25) {
        true => 0,
        false => rng.gen_range(0..=plans.len()),
    };
    let rest = plans.split_off(taken);
    let mut ctx = ExecutionContext::new();
    plans.iter().for_each(|p| ctx.record(p));
    for measure in pi_measures() {
        let label = format!(
            "n {n}, m {m}, overlap {overlap}, seed {seed}, {} from {taken}",
            measure.name()
        );
        let (fast_m, slow_m) = (
            CountingMeasure::new(measure.as_ref()),
            CountingMeasure::new(measure.as_ref()),
        );
        let mut fast = Pi::from_plans(&inst, &fast_m, ctx.clone(), rest.clone());
        let mut slow = ReferencePi::from_plans(&inst, &slow_m, ctx.clone(), rest.clone());
        let mut history = plans.clone();
        for step in 0..=rest.len() {
            let (a, b) = (fast.next_plan(), slow.next_plan());
            assert_eq!(
                a.as_ref().map(|o| (&o.plan, o.utility.to_bits())),
                b.as_ref().map(|o| (&o.plan, o.utility.to_bits())),
                "{label}: emissions diverge at step {step}"
            );
            let (lazy, eager) = (fast_m.total_evals(), slow_m.total_evals());
            match measure.diminishing_returns() {
                true => assert!(
                    lazy <= eager,
                    "{label}: {lazy} > {eager} evaluations at step {step}"
                ),
                false => assert_eq!(lazy, eager, "{label}: evaluations at step {step}"),
            }
            history.extend(a.map(|o| o.plan));
            if !history.is_empty() && rng.gen_bool(0.2) {
                let failed = history.swap_remove(rng.gen_range(0..history.len()));
                fast.observe(&PlanOutcome::failed(&failed));
                slow.observe(&PlanOutcome::failed(&failed));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// `Pi`, popping a heap of utility bounds, is the eager PI that
    /// re-valued every invalidated row per emission (module doc of
    /// `support::pi`), emission for emission, under every measure `Pi`
    /// accepts, from a random hand-over and through random retractions.
    #[test]
    fn pi_matches_its_reference_twin(
        shape in (1usize..=4, 1usize..=6)
            .prop_filter("space too large", |&(n, m)| m.pow(n as u32) <= MAX_TWIN_PLANS),
        overlap in 0.0f64..=0.9,
        seed in any::<u64>(),
    ) {
        let (n, m) = shape;
        drain_pi_beside_twin(n, m, overlap, seed);
    }
}

/// Instances per run of the wide `Pi` twin below (≈ 10 s in release on a
/// 2-core x86-64 VM; the eager twin's drains of the largest spaces are
/// most of it, and 100 instances take ≈ 40 s).
const WIDE_PI_CASES: u32 = 60;

/// The `Pi` twin property over the whole n 1–4 × m 1–6 range, up to
/// 1 296 plans per instance, where the lazy heap skips the most. Release
/// only, like the Streamer's wide twin (`scripts/ci.sh` runs both).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: cargo test --release -p qpo-core --test kernel_equivalence wide"
)]
fn pi_matches_its_reference_twin_wide() {
    let mut rng = proptest::test_rng("pi_matches_its_reference_twin_wide");
    let draw = ((1usize..=4, 1usize..=6), 0.0f64..=0.9, any::<u64>());
    for _ in 0..WIDE_PI_CASES {
        let ((n, m), overlap, seed) = draw.generate(&mut rng);
        drain_pi_beside_twin(n, m, overlap, seed);
    }
}

/// The paper's eager §6 baseline stays reproducible: the twin's
/// `fig6-coverage` PI evaluations at k = 100 (the `regen-experiments`
/// instance: n 3, overlap 0.3, seed 7), before `Pi` became lazy.
#[test]
fn the_eager_twin_keeps_the_fig6_coverage_counts() {
    for (m, evals) in [(4, 272), (8, 3_570), (12, 9_478), (16, 17_275)] {
        let inst = GeneratorConfig::new(3, m)
            .with_overlap_rate(0.3)
            .with_seed(7)
            .with_failure_prob(StatRange::new(0.0, 0.3))
            .build();
        let measure = CountingMeasure::new(Coverage);
        let mut eager = ReferencePi::new(&inst, &measure);
        eager.order_k(100);
        assert_eq!(measure.total_evals(), evals, "m {m}");
        assert_eq!(eager.evaluations, evals, "m {m}");
    }
}
