//! Pipelined mediation: planning and execution overlap.
//!
//! §1 of the paper: "Query execution can then be aborted as soon as the
//! user has found a satisfactory answer … the rest of the plans can be
//! found while the execution has begun." This module runs the plan orderer
//! on a producer thread and the soundness-test/execute/union loop on the
//! consumer side, connected by a bounded channel — the k-th best plan is
//! being computed while the (k−1)-th is executing.

use crate::mediator::{execute_plan, Mediator, MediatorError, MediatorRun, PlanReport, Strategy};
use qpo_core::{ByExpectedTuples, Greedy, IDrips, OrderedPlan, Pi, PlanOrderer, Streamer};
use qpo_datalog::Tuple;
use qpo_utility::UtilityMeasure;
use std::collections::BTreeSet;

impl Mediator {
    /// Like [`Mediator::answer`], but with the orderer running on its own
    /// thread so plan *finding* overlaps plan *execution*. Results are
    /// identical to the sequential path (same plans, same order, same
    /// answers); only the wall-clock interleaving differs.
    ///
    /// The measure must be `Sync` (it is shared with the producer thread).
    pub fn answer_pipelined<M: UtilityMeasure + Sync>(
        &self,
        query: &qpo_datalog::ConjunctiveQuery,
        measure: &M,
        strategy: Strategy,
        k: usize,
    ) -> Result<MediatorRun, MediatorError> {
        let prepared = self.prepare(query)?;
        let inst = &prepared.instance;
        let reform = &prepared.reformulation;

        // Validate applicability on this thread so errors surface before
        // any thread is spawned.
        let mut orderer: Box<dyn PlanOrderer + Send + '_> = match strategy {
            Strategy::Greedy => {
                Box::new(Greedy::new(inst, measure).map_err(MediatorError::Orderer)?)
            }
            Strategy::IDrips => Box::new(IDrips::new(inst, measure, ByExpectedTuples)),
            Strategy::Streamer => Box::new(
                Streamer::new(inst, measure, &ByExpectedTuples).map_err(MediatorError::Orderer)?,
            ),
            Strategy::Pi => Box::new(Pi::new(inst, measure)),
        };

        let (tx, rx) = std::sync::mpsc::sync_channel::<OrderedPlan>(4);
        let run = std::thread::scope(|scope| {
            // Producer: emit plans as fast as the consumer drains them.
            scope.spawn(move || {
                for _ in 0..k {
                    match orderer.next_plan() {
                        Some(plan) => {
                            if tx.send(plan).is_err() {
                                break; // consumer hung up
                            }
                        }
                        None => break,
                    }
                }
                // Dropping tx closes the channel.
            });

            // Consumer: soundness-test, execute, union — while the
            // producer works on the next plan.
            let mut answers: BTreeSet<Tuple> = BTreeSet::new();
            let mut reports: Vec<PlanReport> = Vec::new();
            while let Ok(ordered) = rx.recv() {
                reports.push(execute_plan(
                    reform,
                    self.view_map(),
                    self.database(),
                    &mut answers,
                    ordered,
                ));
            }
            MediatorRun { reports, answers }
        });
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_UNIVERSE};
    use qpo_utility::{Coverage, FailureCost, LinearCost};

    fn mediator() -> Mediator {
        Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"])
    }

    #[test]
    fn pipelined_matches_sequential() {
        let m = mediator();
        let q = movie_query();
        for strategy in [Strategy::Greedy, Strategy::Pi] {
            let measure = LinearCost;
            let seq = m.answer(&q, &measure, strategy, 9).unwrap();
            let pip = m.answer_pipelined(&q, &measure, strategy, 9).unwrap();
            assert_eq!(seq.answers, pip.answers, "{strategy}");
            assert_eq!(seq.reports.len(), pip.reports.len());
            for (a, b) in seq.reports.iter().zip(&pip.reports) {
                assert_eq!(a.ordered.plan, b.ordered.plan, "{strategy}");
                assert_eq!(a.new_tuples, b.new_tuples);
            }
        }
    }

    #[test]
    fn pipelined_streamer_coverage() {
        let m = mediator();
        let q = movie_query();
        let seq = m.answer(&q, &Coverage, Strategy::Streamer, 6).unwrap();
        let pip = m
            .answer_pipelined(&q, &Coverage, Strategy::Streamer, 6)
            .unwrap();
        assert_eq!(seq.answers, pip.answers);
        for (a, b) in seq.reports.iter().zip(&pip.reports) {
            assert!((a.ordered.utility - b.ordered.utility).abs() < 1e-12);
        }
    }

    #[test]
    fn pipelined_surfaces_applicability_errors() {
        let m = mediator();
        let err = m
            .answer_pipelined(&movie_query(), &Coverage, Strategy::Greedy, 3)
            .err()
            .unwrap();
        assert!(matches!(err, MediatorError::Orderer(_)));
        let err = m
            .answer_pipelined(
                &movie_query(),
                &FailureCost::with_caching(),
                Strategy::Streamer,
                3,
            )
            .err()
            .unwrap();
        assert!(err.to_string().contains("diminishing"));
    }

    #[test]
    fn pipelined_handles_small_k_and_exhaustion() {
        let m = mediator();
        let run = m
            .answer_pipelined(&movie_query(), &LinearCost, Strategy::Greedy, 0)
            .unwrap();
        assert!(run.reports.is_empty());
        let run = m
            .answer_pipelined(&movie_query(), &LinearCost, Strategy::Greedy, 500)
            .unwrap();
        assert_eq!(run.reports.len(), 9, "plan space exhausted cleanly");
    }
}
