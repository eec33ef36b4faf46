//! Single-configuration experiment runner.

use qpo_catalog::{GeneratorConfig, ProblemInstance, StatRange};
use qpo_core::{
    AbstractionHeuristic, ByExpectedTuples, ByExtentMidpoint, ByTransmissionCost, Greedy, IDrips,
    Naive, Pi, PlanOrderer, RandomKey, Streamer,
};
use qpo_utility::{
    CountingMeasure, Coverage, FailureCost, FusionCost, LinearCost, MonetaryCost, UtilityMeasure,
};
use std::time::Instant;

/// Which utility measure a run uses (§6's four measures plus the monotone
/// ones used by Greedy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum MeasureKind {
    Coverage,
    /// Cost measure (2) with varying transmission costs.
    Cost2,
    FailureNoCache,
    FailureCache,
    MonetaryNoCache,
    MonetaryCache,
    Linear,
}

impl MeasureKind {
    /// Instantiates the measure.
    pub fn build(self) -> Box<dyn UtilityMeasure> {
        match self {
            MeasureKind::Coverage => Box::new(Coverage),
            MeasureKind::Cost2 => Box::new(FusionCost),
            MeasureKind::FailureNoCache => Box::new(FailureCost::without_caching()),
            MeasureKind::FailureCache => Box::new(FailureCost::with_caching()),
            MeasureKind::MonetaryNoCache => Box::new(MonetaryCost::without_caching()),
            MeasureKind::MonetaryCache => Box::new(MonetaryCost::with_caching()),
            MeasureKind::Linear => Box::new(LinearCost),
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            MeasureKind::Coverage => "coverage",
            MeasureKind::Cost2 => "cost2",
            MeasureKind::FailureNoCache => "failure",
            MeasureKind::FailureCache => "failure+cache",
            MeasureKind::MonetaryNoCache => "monetary",
            MeasureKind::MonetaryCache => "monetary+cache",
            MeasureKind::Linear => "linear",
        }
    }
}

/// Which abstraction heuristic the abstraction-based algorithms use
/// (the §6 default plus the ablation alternatives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum HeuristicKind {
    ByTuples,
    ByExtent,
    ByAlpha,
    Random,
}

impl HeuristicKind {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            HeuristicKind::ByTuples => "by-tuples",
            HeuristicKind::ByExtent => "by-extent",
            HeuristicKind::ByAlpha => "by-alpha",
            HeuristicKind::Random => "random",
        }
    }

    /// Instantiates the heuristic.
    pub fn build(self) -> Box<dyn AbstractionHeuristic> {
        match self {
            HeuristicKind::ByTuples => Box::new(ByExpectedTuples),
            HeuristicKind::ByExtent => Box::new(ByExtentMidpoint),
            HeuristicKind::ByAlpha => Box::new(ByTransmissionCost),
            HeuristicKind::Random => Box::new(RandomKey { seed: 1 }),
        }
    }
}

/// Which ordering algorithm a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AlgorithmKind {
    Streamer,
    IDrips,
    Pi,
    Naive,
    Greedy,
}

impl AlgorithmKind {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            AlgorithmKind::Streamer => "streamer",
            AlgorithmKind::IDrips => "idrips",
            AlgorithmKind::Pi => "pi",
            AlgorithmKind::Naive => "naive",
            AlgorithmKind::Greedy => "greedy",
        }
    }

    /// Builds the orderer, or `None` when the algorithm's applicability
    /// condition fails for this measure (e.g. Streamer under caching).
    pub fn build<'a, M: UtilityMeasure>(
        self,
        inst: &'a ProblemInstance,
        measure: &'a M,
        heuristic: HeuristicKind,
    ) -> Option<Box<dyn PlanOrderer + 'a>> {
        match self {
            AlgorithmKind::Streamer => Streamer::new(inst, measure, &heuristic.build())
                .ok()
                .map(|s| Box::new(s) as Box<dyn PlanOrderer + 'a>),
            AlgorithmKind::IDrips => Some(Box::new(IDrips::new(inst, measure, heuristic.build()))),
            AlgorithmKind::Pi => Some(Box::new(Pi::new(inst, measure))),
            AlgorithmKind::Naive => Some(Box::new(Naive::new(inst, measure))),
            AlgorithmKind::Greedy => Greedy::new(inst, measure)
                .ok()
                .map(|g| Box::new(g) as Box<dyn PlanOrderer + 'a>),
        }
    }
}

/// One experiment configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Experiment id (e.g. `fig6-a`).
    pub experiment: &'static str,
    /// Utility measure.
    pub measure: MeasureKind,
    /// Algorithm under test.
    pub algorithm: AlgorithmKind,
    /// Query length `n`.
    pub query_len: usize,
    /// Bucket size `m`.
    pub bucket_size: usize,
    /// Overlap rate ρ.
    pub overlap: f64,
    /// Emission counts to time (cumulative: times are measured at each).
    pub ks: Vec<usize>,
    /// RNG seed for the synthetic instance.
    pub seed: u64,
    /// Abstraction heuristic for Streamer/iDrips.
    pub heuristic: HeuristicKind,
}

impl RunConfig {
    /// Paper defaults: query length 3, overlap 0.3, k ∈ {1, 10, 100}.
    pub fn new(
        experiment: &'static str,
        measure: MeasureKind,
        algorithm: AlgorithmKind,
        bucket_size: usize,
    ) -> Self {
        RunConfig {
            experiment,
            measure,
            algorithm,
            query_len: 3,
            bucket_size,
            overlap: 0.3,
            ks: vec![1, 10, 100],
            seed: 7,
            heuristic: HeuristicKind::ByTuples,
        }
    }

    /// Builds the synthetic instance for this configuration.
    pub fn instance(&self) -> ProblemInstance {
        GeneratorConfig::new(self.query_len, self.bucket_size)
            .with_overlap_rate(self.overlap)
            .with_seed(self.seed)
            // Keep failure probabilities moderate and α varying (the
            // "transmission costs vary across sources" setting of §6).
            .with_failure_prob(StatRange::new(0.0, 0.3))
            .build()
    }
}

/// Measured result at one `k` for one configuration.
#[derive(Debug, Clone)]
pub struct ResultRow {
    /// Experiment id.
    pub experiment: &'static str,
    /// Measure label.
    pub measure: &'static str,
    /// Algorithm label.
    pub algorithm: &'static str,
    /// Query length.
    pub query_len: usize,
    /// Bucket size.
    pub bucket_size: usize,
    /// Overlap rate.
    pub overlap: f64,
    /// Abstraction heuristic label.
    pub heuristic: &'static str,
    /// Plans requested.
    pub k: usize,
    /// Plans actually emitted (the space may be smaller than `k`).
    pub emitted: usize,
    /// Milliseconds from query issue to the `k`-th plan (bucket generation
    /// excluded, per §6).
    pub millis: f64,
    /// Utility evaluations performed (abstract + concrete).
    pub evals: u64,
    /// iDrips only: the call at which it handed its remaining plans to
    /// brute force, if it had by the `k`-th plan.
    pub handover: Option<usize>,
}

/// Runs one configuration, returning one row per requested `k` (or `None`
/// if the algorithm is inapplicable to the measure).
pub fn run_config(cfg: &RunConfig) -> Option<Vec<ResultRow>> {
    let inst = cfg.instance();
    let measure = CountingMeasure::new(cfg.measure.build());
    // iDrips is built here, not boxed, so its hand-over call stays readable.
    let mut idrips = (cfg.algorithm == AlgorithmKind::IDrips)
        .then(|| IDrips::new(&inst, &measure, cfg.heuristic.build()));
    let mut boxed = match idrips {
        Some(_) => None,
        None => Some(cfg.algorithm.build(&inst, &measure, cfg.heuristic)?),
    };
    let orderer: &mut dyn PlanOrderer = match (&mut idrips, &mut boxed) {
        (Some(o), _) => o,
        (None, o) => o.as_deref_mut()?,
    };
    let mut rows = Vec::with_capacity(cfg.ks.len());
    let mut emitted = 0usize;
    let start = Instant::now();
    for &k in &cfg.ks {
        while emitted < k {
            if orderer.next_plan().is_none() {
                break;
            }
            emitted += 1;
        }
        rows.push(ResultRow {
            experiment: cfg.experiment,
            measure: cfg.measure.label(),
            algorithm: cfg.algorithm.label(),
            query_len: cfg.query_len,
            bucket_size: cfg.bucket_size,
            overlap: cfg.overlap,
            heuristic: cfg.heuristic.label(),
            k,
            emitted: emitted.min(k),
            millis: start.elapsed().as_secs_f64() * 1e3,
            evals: measure.total_evals(),
            handover: None,
        });
    }
    let handover = idrips.and_then(|o| o.handed_over_at());
    for row in &mut rows {
        row.handover = handover.filter(|&call| call <= row.emitted);
    }
    Some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_config_produces_monotone_times() {
        let cfg = RunConfig::new("test", MeasureKind::Coverage, AlgorithmKind::Pi, 4);
        let rows = run_config(&cfg).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].millis <= rows[1].millis && rows[1].millis <= rows[2].millis);
        assert_eq!(rows[0].k, 1);
        assert_eq!(rows[2].emitted, 64);
        assert!(rows[2].evals >= 64, "PI evaluates the whole space first");
    }

    #[test]
    fn inapplicable_combinations_return_none() {
        let cfg = RunConfig::new(
            "test",
            MeasureKind::FailureCache,
            AlgorithmKind::Streamer,
            4,
        );
        assert!(run_config(&cfg).is_none());
        let cfg = RunConfig::new("test", MeasureKind::Coverage, AlgorithmKind::Greedy, 4);
        assert!(run_config(&cfg).is_none());
    }

    #[test]
    fn greedy_applies_to_linear() {
        let cfg = RunConfig::new("test", MeasureKind::Linear, AlgorithmKind::Greedy, 6);
        let rows = run_config(&cfg).unwrap();
        assert_eq!(rows.last().unwrap().emitted, 100);
    }

    #[test]
    fn all_measure_kinds_build() {
        for m in [
            MeasureKind::Coverage,
            MeasureKind::Cost2,
            MeasureKind::FailureNoCache,
            MeasureKind::FailureCache,
            MeasureKind::MonetaryNoCache,
            MeasureKind::MonetaryCache,
            MeasureKind::Linear,
        ] {
            let built = m.build();
            assert!(!built.name().is_empty());
            assert!(!m.label().is_empty());
        }
    }

    #[test]
    fn streamer_and_pi_agree_on_utilities() {
        // Cross-check through the harness plumbing (boxed measures etc.).
        let inst = RunConfig::new("x", MeasureKind::Coverage, AlgorithmKind::Pi, 5).instance();
        let m = MeasureKind::Coverage.build();
        let mut s = AlgorithmKind::Streamer
            .build(&inst, &m, HeuristicKind::ByTuples)
            .unwrap();
        let mut p = AlgorithmKind::Pi
            .build(&inst, &m, HeuristicKind::ByTuples)
            .unwrap();
        for _ in 0..10 {
            let a = s.next_plan().unwrap();
            let b = p.next_plan().unwrap();
            assert!((a.utility - b.utility).abs() < 1e-12);
        }
    }
}
