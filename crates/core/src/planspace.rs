//! Plan spaces and the recursive-splitting removal of §4.
//!
//! A *plan space* is a Cartesian product of candidate sets, one per bucket.
//! Removing a single plan from a space (as Greedy and iDrips must after
//! emitting it) splits the space into at most `n` disjoint sub-spaces that
//! together contain every other plan (Figure 2 of the paper).

use qpo_catalog::ProblemInstance;

/// A plan space: per bucket, the candidate source indices (non-empty,
/// strictly increasing).
pub type PlanSpace = Vec<Vec<usize>>;

/// The space containing every plan of the instance.
pub fn full_space(inst: &ProblemInstance) -> PlanSpace {
    inst.buckets
        .iter()
        .map(|b| (0..b.len()).collect())
        .collect()
}

/// Number of plans in the space.
pub fn space_size(space: &PlanSpace) -> usize {
    space.iter().map(Vec::len).product()
}

/// Every plan of the space, the last bucket turning fastest.
pub(crate) fn space_plans(space: &PlanSpace) -> Vec<Vec<usize>> {
    space.iter().fold(vec![Vec::new()], |plans, cands| {
        let next = plans
            .iter()
            .flat_map(|p| cands.iter().map(|&s| [p, &[s][..]].concat()));
        next.collect()
    })
}

/// True iff the plan lies in the space.
pub fn space_contains(space: &PlanSpace, plan: &[usize]) -> bool {
    plan.len() == space.len()
        && space
            .iter()
            .zip(plan)
            .all(|(cands, i)| cands.binary_search(i).is_ok())
}

/// Removes `plan` from `space` by recursive splitting (§4, Figure 2):
/// sub-space `b` fixes buckets `0..b` to the plan's sources, excludes the
/// plan's source from bucket `b`, and keeps the rest of the space intact.
/// Empty sub-spaces (where the excluded source was the only candidate) are
/// dropped.
///
/// # Panics
/// Panics if the plan is not in the space.
pub fn remove_plan(space: &PlanSpace, plan: &[usize]) -> Vec<PlanSpace> {
    assert!(
        space_contains(space, plan),
        "plan {plan:?} not in space {space:?}"
    );
    let mut result = Vec::with_capacity(space.len());
    for b in 0..space.len() {
        let mut sub: PlanSpace = Vec::with_capacity(space.len());
        for (bb, cands) in space.iter().enumerate() {
            if bb < b {
                sub.push(vec![plan[bb]]);
            } else if bb == b {
                sub.push(cands.iter().copied().filter(|&i| i != plan[b]).collect());
            } else {
                sub.push(cands.clone());
            }
        }
        if sub.iter().all(|c| !c.is_empty()) {
            result.push(sub);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::{Extent, SourceStats};

    fn space() -> PlanSpace {
        vec![vec![0, 1, 2], vec![0, 1, 2]]
    }

    #[test]
    fn full_space_of_instance() {
        let src = || SourceStats::new().with_extent(Extent::new(0, 1));
        let inst = ProblemInstance::new(
            0.0,
            vec![10, 10],
            vec![vec![src(), src()], vec![src(), src(), src()]],
        )
        .unwrap();
        let s = full_space(&inst);
        assert_eq!(s, vec![vec![0, 1], vec![0, 1, 2]]);
        assert_eq!(space_size(&s), 6);
    }

    #[test]
    fn contains() {
        let s = space();
        assert!(space_contains(&s, &[0, 2]));
        assert!(!space_contains(&s, &[0, 3]));
        assert!(!space_contains(&s, &[0]));
    }

    #[test]
    fn figure2_example() {
        // Removing V1V5 (= [0, 1]) from {V1,V2,V3} × {V4,V5,V6} gives
        // S3 = {V2,V3} × {V4,V5,V6} and S5 = {V1} × {V4,V6}.
        let subs = remove_plan(&space(), &[0, 1]);
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0], vec![vec![1, 2], vec![0, 1, 2]]);
        assert_eq!(subs[1], vec![vec![0], vec![0, 2]]);
    }

    #[test]
    fn removal_partitions_the_space() {
        let s = space();
        let plan = [1, 2];
        let subs = remove_plan(&s, &plan);
        // Together the sub-spaces hold every plan except the removed one,
        // exactly once.
        let mut all: Vec<Vec<usize>> = Vec::new();
        for sub in &subs {
            for &i in &sub[0] {
                for &j in &sub[1] {
                    all.push(vec![i, j]);
                }
            }
        }
        all.sort();
        assert_eq!(all.len(), space_size(&s) - 1);
        let dedup: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(dedup.len(), all.len(), "sub-spaces are disjoint");
        assert!(!all.contains(&plan.to_vec()));
    }

    #[test]
    fn removal_from_singleton_space_gives_nothing() {
        let s: PlanSpace = vec![vec![3], vec![7]];
        assert!(remove_plan(&s, &[3, 7]).is_empty());
    }

    #[test]
    fn removal_keeps_partial_singletons() {
        let s: PlanSpace = vec![vec![3], vec![5, 7]];
        let subs = remove_plan(&s, &[3, 5]);
        assert_eq!(subs, vec![vec![vec![3], vec![7]]]);
    }

    #[test]
    #[should_panic(expected = "not in space")]
    fn removal_of_foreign_plan_panics() {
        remove_plan(&space(), &[0, 9]);
    }

    #[test]
    fn repeated_removal_empties_the_space() {
        // Keep removing the lexicographically smallest plan until nothing
        // is left; we must see each plan exactly once.
        let mut spaces = vec![space()];
        let mut seen = std::collections::BTreeSet::new();
        while let Some(s) = spaces.pop() {
            let plan: Vec<usize> = s.iter().map(|c| c[0]).collect();
            assert!(seen.insert(plan.clone()), "plan {plan:?} seen twice");
            spaces.extend(remove_plan(&s, &plan));
        }
        assert_eq!(seen.len(), 9);
    }
}
