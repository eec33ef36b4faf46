//! `resume_interval` must return the bits `utility_interval` returns, from
//! whatever prefix of an append-only history its carry was last advanced
//! over — the contract the ordering kernel's interval memo and Streamer's
//! step 2.a rest on.

use proptest::prelude::*;
use qpo_catalog::{GeneratorConfig, ProblemInstance, SourceRef};
use qpo_interval::Interval;
use qpo_utility::{
    Combined, Coverage, ExecutionContext, FailureCost, FusionCost, IntervalCarry, MonetaryCost,
    UtilityMeasure,
};

/// Forwards everything except `resume_interval`, like a measure written
/// before the method existed: it must fall back to starting over.
struct NoResume<M>(M);

impl<M: UtilityMeasure> UtilityMeasure for NoResume<M> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn utility(&self, inst: &ProblemInstance, plan: &[usize], ctx: &ExecutionContext) -> f64 {
        self.0.utility(inst, plan, ctx)
    }
    fn utility_interval(
        &self,
        inst: &ProblemInstance,
        candidates: &[Vec<usize>],
        ctx: &ExecutionContext,
    ) -> Interval {
        self.0.utility_interval(inst, candidates, ctx)
    }
    fn diminishing_returns(&self) -> bool {
        self.0.diminishing_returns()
    }
    fn monotone_subgoals(&self, inst: &ProblemInstance) -> Vec<bool> {
        self.0.monotone_subgoals(inst)
    }
    fn source_preference(&self, inst: &ProblemInstance, source: SourceRef) -> f64 {
        self.0.source_preference(inst, source)
    }
    fn independent(&self, inst: &ProblemInstance, p: &[usize], q: &[usize]) -> bool {
        self.0.independent(inst, p, q)
    }
}

/// `kernel_equivalence::all_measures()`, a `Combined` whose components
/// both resume, and the non-overriding wrapper; the flag says whether the
/// measure is expected to leave a non-fresh carry behind.
fn measures() -> Vec<(&'static str, Box<dyn UtilityMeasure>, bool)> {
    vec![
        ("coverage", Box::new(Coverage), true),
        (
            "failure-nocache",
            Box::new(FailureCost::without_caching()),
            true,
        ),
        ("failure-cache", Box::new(FailureCost::with_caching()), true),
        (
            "monetary-nocache",
            Box::new(MonetaryCost::without_caching()),
            true,
        ),
        (
            "monetary-cache",
            Box::new(MonetaryCost::with_caching()),
            true,
        ),
        ("fusion", Box::new(FusionCost), false),
        (
            "combined",
            Box::new(Combined::new(
                Coverage,
                100.0,
                MonetaryCost::with_caching(),
                1.0,
            )),
            true,
        ),
        ("no-resume", Box::new(NoResume(Coverage)), false),
    ]
}

fn assert_same_bits(label: &str, resumed: Interval, scratch: Interval) {
    assert!(
        resumed.lo().to_bits() == scratch.lo().to_bits()
            && resumed.hi().to_bits() == scratch.hi().to_bits(),
        "{label}: resumed {resumed} vs from scratch {scratch}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resumed_intervals_equal_from_scratch_intervals(
        seed in 0u64..1_000,
        overlap in 0.1f64..0.9,
        picks in proptest::collection::vec(any::<u64>(), 12),
        history_len in 0usize..6,
    ) {
        let inst = GeneratorConfig::new(3, 4)
            .with_overlap_rate(overlap)
            .with_seed(seed)
            .build();
        let mut picks = picks.into_iter().cycle();
        let mut pick = |n: usize| (picks.next().expect("cycled") % n as u64) as usize;
        // contexts[s] holds the first s plans of one append-only history.
        let mut contexts = vec![ExecutionContext::new()];
        for _ in 0..history_len {
            let plan: Vec<usize> = inst.buckets.iter().map(|b| pick(b.len())).collect();
            let mut next = contexts.last().expect("non-empty").clone();
            next.record(&plan);
            contexts.push(next);
        }
        let concrete: Vec<Vec<usize>> = inst.buckets.iter().map(|b| vec![pick(b.len())]).collect();
        // Widen bucket 0 always (so the list is abstract) and the others
        // at random, each by one source the concrete plan does not use.
        let mut abstracted = concrete.clone();
        for (b, cands) in abstracted.iter_mut().enumerate() {
            let len = inst.buckets[b].len();
            if b == 0 || pick(2) == 0 {
                cands.push((cands[0] + 1 + pick(len - 1)) % len);
            }
        }

        for (name, m, resumes) in measures() {
            for (kind, cands) in [("concrete", &concrete), ("abstract", &abstracted)] {
                // Every pair of stops s1 ≤ s2 on the way to the full
                // history: from scratch at s1, resumed at s2, resumed again
                // at the end (a stop may repeat: a resume over no appends).
                for s1 in 0..=history_len {
                    for s2 in s1..=history_len {
                        let mut carry = IntervalCarry::default();
                        for stop in [s1, s2, history_len] {
                            let ctx = &contexts[stop];
                            let label = format!("{name}, {kind}, stops {s1}/{s2}, at {stop}");
                            let resumed = m.resume_interval(&inst, cands, ctx, &mut carry);
                            assert_same_bits(&label, resumed, m.utility_interval(&inst, cands, ctx));
                        }
                        // A Combined's concrete point is not carried.
                        let carried = resumes && !(name == "combined" && kind == "concrete");
                        prop_assert_eq!(!carry.is_fresh(), carried, "{}, {}", name, kind);
                    }
                }
            }
        }
    }
}
