//! Tuple scoring: the rank the any-k stream orders answers by.
//!
//! A [`TupleScorer`] assigns every source fact a score and the stream's
//! rank of an answer tuple is the **sum** of its per-subgoal fact scores.
//! Summing is what makes the enumerator's A\*-style bound admissible: the
//! best completion of a partial join is bounded by the sum of the
//! remaining subgoals' best fact scores, so tuples pop from the frontier
//! in exact non-increasing true-score order (see
//! [`RankedJoin`](crate::RankedJoin)).
//!
//! The default [`CatalogScorer`] derives per-source weights from the
//! catalog statistics the plan orderers already consume — coverage
//! fraction discounted by failure probability, minus the per-tuple fee —
//! so "good sources first" at the plan level and at the tuple level agree.
//! Because those weights are fact-independent, intra-plan ties fall to
//! the enumerator's deterministic tuple tie-break; tests and demos that
//! want fact-sensitive ranks enable [`CatalogScorer::with_jitter`], which
//! adds a deterministic content-hash fraction per fact.

use qpo_catalog::{ProblemInstance, SourceRef, SourceStats};
use qpo_datalog::{Constant, Tuple};

/// Scores the facts a source contributes to one subgoal (bucket).
///
/// Contract: for every fact `f` of a source,
/// `atom_score(bucket, stats, f) <= atom_bound(bucket, stats)` — the
/// enumerator and the cross-plan merge both lean on the bound to decide
/// when a head tuple is safe to emit.
pub trait TupleScorer {
    /// Score of one fact drawn from the source described by `stats` for
    /// subgoal `bucket`.
    fn atom_score(&self, bucket: usize, stats: &SourceStats, fact: &Tuple) -> f64;

    /// Upper bound on [`TupleScorer::atom_score`] over every fact the
    /// source can contribute for `bucket`.
    fn atom_bound(&self, bucket: usize, stats: &SourceStats) -> f64;
}

impl<T: TupleScorer + ?Sized> TupleScorer for &T {
    fn atom_score(&self, bucket: usize, stats: &SourceStats, fact: &Tuple) -> f64 {
        (**self).atom_score(bucket, stats, fact)
    }

    fn atom_bound(&self, bucket: usize, stats: &SourceStats) -> f64 {
        (**self).atom_bound(bucket, stats)
    }
}

/// Upper bound on the score of any tuple `plan` can produce: the sum of
/// its sources' per-subgoal bounds (normalized so `-0.0` never leaks
/// into comparisons).
pub fn plan_bound(scorer: &dyn TupleScorer, inst: &ProblemInstance, plan: &[usize]) -> f64 {
    plan.iter()
        .enumerate()
        .map(|(b, &i)| scorer.atom_bound(b, inst.stat(SourceRef::new(b, i))))
        .sum::<f64>()
        + 0.0
}

/// The default scorer: catalog-statistics-derived per-source weights.
///
/// A fact from a source with extent `e`, failure probability `p`, and
/// per-tuple fee `fee` scores
/// `(1 - p) · |e| / universe - fee  (+ jitter · hash(fact))`.
#[derive(Debug, Clone, Copy)]
pub struct CatalogScorer {
    universe: f64,
    jitter: f64,
}

impl CatalogScorer {
    /// A scorer for sources over a universe of `universe` items.
    pub fn new(universe: u64) -> Self {
        CatalogScorer {
            universe: (universe.max(1)) as f64,
            jitter: 0.0,
        }
    }

    /// Adds `amplitude · h(fact)` to every fact score, where
    /// `h(fact) ∈ [0, 1)` is a deterministic content hash. Makes ranks
    /// fact-sensitive (distinct facts from one source score differently)
    /// while staying reproducible across runs and worker counts.
    pub fn with_jitter(mut self, amplitude: f64) -> Self {
        self.jitter = amplitude.max(0.0);
        self
    }

    fn weight(&self, stats: &SourceStats) -> f64 {
        (1.0 - stats.failure_prob) * (stats.extent.len as f64 / self.universe) - stats.fee_per_tuple
    }
}

impl TupleScorer for CatalogScorer {
    fn atom_score(&self, _bucket: usize, stats: &SourceStats, fact: &Tuple) -> f64 {
        let mut s = self.weight(stats);
        if self.jitter > 0.0 {
            s += self.jitter * hash_frac(fact);
        }
        s + 0.0
    }

    fn atom_bound(&self, _bucket: usize, stats: &SourceStats) -> f64 {
        self.weight(stats) + self.jitter + 0.0
    }
}

/// Deterministic content hash of a ground tuple, folded to `[0, 1)`.
/// SplitMix64-style mixing over the constants' bytes — stable across
/// platforms, worker counts, and re-runs.
fn hash_frac(fact: &Tuple) -> f64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut feed = |word: u64| {
        h ^= word;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    };
    for c in fact {
        match c {
            Constant::Int(i) => feed(*i as u64),
            Constant::Str(s) => {
                for b in s.bytes() {
                    feed(u64::from(b) | 0x100);
                }
            }
        }
    }
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::Extent;

    fn stats(len: u64, fee: f64, p: f64) -> SourceStats {
        SourceStats::new()
            .with_extent(Extent::new(0, len))
            .with_fee(fee)
            .with_failure_prob(p)
    }

    #[test]
    fn weight_combines_coverage_failure_and_fee() {
        let sc = CatalogScorer::new(100);
        let s = stats(50, 0.1, 0.2);
        let w = sc.atom_score(0, &s, &vec![Constant::int(1)]);
        assert!((w - (0.8 * 0.5 - 0.1)).abs() < 1e-12);
        assert_eq!(w.to_bits(), sc.atom_bound(0, &s).to_bits());
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let sc = CatalogScorer::new(100).with_jitter(0.5);
        let s = stats(50, 0.0, 0.0);
        let f1 = vec![Constant::int(1)];
        let f2 = vec![Constant::int(2)];
        let a = sc.atom_score(0, &s, &f1);
        let b = sc.atom_score(0, &s, &f2);
        assert_eq!(a.to_bits(), sc.atom_score(0, &s, &f1).to_bits());
        assert_ne!(a.to_bits(), b.to_bits(), "distinct facts, distinct ranks");
        let bound = sc.atom_bound(0, &s);
        assert!(a <= bound && b <= bound);
    }

    #[test]
    fn hash_frac_stays_in_unit_interval() {
        for i in 0..100 {
            let f = hash_frac(&vec![Constant::int(i), Constant::str("x")]);
            assert!((0.0..1.0).contains(&f));
        }
    }
}
