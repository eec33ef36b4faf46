//! Any-k answer streaming wired into the mediator: per-plan ranked
//! enumeration and the exact offline oracle.
//!
//! This module is the glue between `qpo-anyk`'s kernel and the serving
//! layer. [`ranked_join_for_plan`] builds the lazy best-first enumerator
//! for one plan's conjunctive query, scoring each subgoal fact through the
//! catalog statistics of the source the plan picked for that bucket.
//! [`offline_ranked_answers`] is the exact offline oracle — every sound
//! plan fully drained, deduplicated at each tuple's maximum score, sorted
//! — that the anytime stream must equal, prefix by prefix.
//!
//! The cross-plan merge itself — attach when a plan is scheduled, evict
//! when it merges unsound or failed, release only what strictly clears the
//! best bound of every plan the orderer has not yet emitted — is the any-k
//! part of the `core` module's hooks, shared by
//! [`QuerySession::next_tuple`](crate::QuerySession::next_tuple) and
//! [`Mediator::run`](crate::Mediator::run).

use qpo_anyk::{LevelCache, RankedJoin, TupleScorer};
use qpo_catalog::{ProblemInstance, SourceRef};
use qpo_core::utility_cmp;
use qpo_datalog::{is_sound_plan, ConjunctiveQuery, Database, SourceDescription, Tuple};
use qpo_reformulation::Reformulation;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builds the lazy ranked enumerator for `plan`'s conjunctive query,
/// scoring each subgoal's facts with `scorer` under the catalog
/// statistics of the source `plan` chose for that bucket.
pub fn ranked_join_for_plan(
    db: &Database,
    reform: &Reformulation,
    inst: &ProblemInstance,
    scorer: &dyn TupleScorer,
    plan: &[usize],
) -> RankedJoin {
    let plan_query = reform.plan_query(plan);
    ranked_join(db, &plan_query, inst, scorer, plan, &LevelCache::new())
}

/// [`ranked_join_for_plan`] over the already materialized `plan_query`,
/// reading its levels through `levels`: plans that chose the same source
/// for a bucket share that bucket's scored level ([`Arc`]), instead of
/// re-scanning, re-scoring, and re-sorting it. The key carries `(bucket,
/// entry)` plus the rendered atom (the cache appends the shared
/// variables), so distinct choices never alias; the cache assumes one
/// scorer per cache (see [`ExecutionMemo`](crate::ExecutionMemo)). The
/// stream is bit-identical whether a level hits or is built.
pub(crate) fn ranked_join(
    db: &Database,
    plan_query: &ConjunctiveQuery,
    inst: &ProblemInstance,
    scorer: &dyn TupleScorer,
    plan: &[usize],
    levels: &LevelCache,
) -> RankedJoin {
    let score = |atom: usize, fact: &Tuple| {
        scorer.atom_score(atom, inst.stat(SourceRef::new(atom, plan[atom])), fact)
    };
    RankedJoin::new(db, plan_query, score, levels, |ai| {
        format!("b{ai}e{}|{}", plan[ai], plan_query.body[ai])
    })
}

/// The exact offline reference the anytime stream trails: drain every
/// *sound* plan's [`RankedJoin`] completely, keep each distinct answer at
/// its maximum score, and sort non-increasing (ties on the smaller
/// tuple). The any-k stream's contract is this list: the differential
/// tests pin every delivered prefix to it. The plans share one
/// [`LevelCache`]: one scorer for the whole call.
pub fn offline_ranked_answers(
    db: &Database,
    reform: &Reformulation,
    view_map: &BTreeMap<Arc<str>, SourceDescription>,
    inst: &ProblemInstance,
    scorer: &dyn TupleScorer,
) -> Vec<(f64, Tuple)> {
    let mut best: BTreeMap<Tuple, f64> = BTreeMap::new();
    let levels = LevelCache::new();
    for plan in inst.all_plans() {
        let plan_query = reform.plan_query(&plan);
        if !is_sound_plan(&plan_query, view_map, &reform.query).unwrap_or(false) {
            continue;
        }
        for (score, tuple) in ranked_join(db, &plan_query, inst, scorer, &plan, &levels).drain() {
            let best_score = best.entry(tuple).or_insert(score);
            if utility_cmp(score, *best_score) == Ordering::Greater {
                *best_score = score;
            }
        }
    }
    let mut out: Vec<(f64, Tuple)> = best.into_iter().map(|(t, s)| (s, t)).collect();
    out.sort_by(|a, b| utility_cmp(b.0, a.0).then_with(|| a.1.cmp(&b.1)));
    out
}
