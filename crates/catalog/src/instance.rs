//! Problem instances: the numeric input of the ordering algorithms.

use crate::stats::SourceStats;
use std::fmt;

/// Identifies a source by bucket position and index within the bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceRef {
    /// Which bucket (query subgoal position).
    pub bucket: usize,
    /// Index within that bucket.
    pub index: usize,
}

impl SourceRef {
    /// Creates a reference.
    pub fn new(bucket: usize, index: usize) -> Self {
        SourceRef { bucket, index }
    }
}

impl fmt::Display for SourceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}s{}", self.bucket, self.index)
    }
}

/// A plan-ordering problem instance: one bucket of sources per query
/// subgoal, the subgoal universes `N_i`, and the global access overhead `h`
/// of the cost measures (§3, eq. (1)/(2)).
///
/// The *plan space* is the Cartesian product of the buckets; a concrete plan
/// is one index per bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemInstance {
    /// Per-access overhead `h`.
    pub overhead: f64,
    /// Universe size `N_i` per subgoal (total items across sources).
    pub universes: Vec<u64>,
    /// One bucket of source statistics per subgoal, same order as
    /// `universes`.
    pub buckets: Vec<Vec<SourceStats>>,
}

/// Instance validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// `universes` and `buckets` lengths differ.
    LengthMismatch,
    /// A bucket contains no sources: the plan space is empty.
    EmptyBucket(usize),
    /// A source's extent extends past its subgoal universe.
    ExtentOutOfRange(SourceRef),
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::LengthMismatch => {
                write!(f, "universes and buckets have different lengths")
            }
            InstanceError::EmptyBucket(b) => write!(f, "bucket {b} is empty"),
            InstanceError::ExtentOutOfRange(r) => {
                write!(f, "source {r} has an extent outside its universe")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

impl ProblemInstance {
    /// Creates and validates an instance.
    pub fn new(
        overhead: f64,
        universes: Vec<u64>,
        buckets: Vec<Vec<SourceStats>>,
    ) -> Result<Self, InstanceError> {
        let inst = ProblemInstance {
            overhead,
            universes,
            buckets,
        };
        inst.validate()?;
        Ok(inst)
    }

    /// Re-checks the structural invariants.
    pub fn validate(&self) -> Result<(), InstanceError> {
        if self.universes.len() != self.buckets.len() {
            return Err(InstanceError::LengthMismatch);
        }
        for (b, bucket) in self.buckets.iter().enumerate() {
            if bucket.is_empty() {
                return Err(InstanceError::EmptyBucket(b));
            }
            for (i, s) in bucket.iter().enumerate() {
                if s.extent.end() > self.universes[b] {
                    return Err(InstanceError::ExtentOutOfRange(SourceRef::new(b, i)));
                }
            }
        }
        Ok(())
    }

    /// The paper's query length `n` (number of subgoals / buckets).
    pub fn query_len(&self) -> usize {
        self.buckets.len()
    }

    /// Statistics of one source.
    ///
    /// # Panics
    /// Panics if the reference is out of range.
    pub fn stat(&self, r: SourceRef) -> &SourceStats {
        &self.buckets[r.bucket][r.index]
    }

    /// Statistics of the sources of a concrete plan (one index per bucket).
    ///
    /// # Panics
    /// Panics if `plan.len() != query_len()` or any index is out of range.
    pub fn plan_stats<'a>(&'a self, plan: &[usize]) -> Vec<&'a SourceStats> {
        assert_eq!(plan.len(), self.query_len(), "plan/bucket arity mismatch");
        plan.iter()
            .enumerate()
            .map(|(b, &i)| &self.buckets[b][i])
            .collect()
    }

    /// Total number of concrete plans (product of bucket sizes).
    pub fn plan_count(&self) -> usize {
        self.buckets.iter().map(Vec::len).product()
    }

    /// Enumerates every concrete plan in lexicographic order. Intended for
    /// tests and brute-force baselines only.
    pub fn all_plans(&self) -> Vec<Vec<usize>> {
        let mut plans = vec![Vec::new()];
        for bucket in &self.buckets {
            let mut next = Vec::with_capacity(plans.len() * bucket.len());
            for p in &plans {
                for i in 0..bucket.len() {
                    let mut q = p.clone();
                    q.push(i);
                    next.push(q);
                }
            }
            plans = next;
        }
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::Extent;

    fn src(len: u64) -> SourceStats {
        SourceStats::new().with_extent(Extent::new(0, len))
    }

    fn inst() -> ProblemInstance {
        ProblemInstance::new(
            1.0,
            vec![100, 200],
            vec![vec![src(10), src(20), src(30)], vec![src(40), src(50)]],
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let i = inst();
        assert_eq!(i.query_len(), 2);
        assert_eq!(i.plan_count(), 6);
        assert_eq!(i.stat(SourceRef::new(0, 2)).tuples, 30.0);
        assert_eq!(SourceRef::new(0, 2).to_string(), "b0s2");
    }

    #[test]
    fn plan_stats() {
        let i = inst();
        let stats = i.plan_stats(&[1, 0]);
        assert_eq!(stats[0].tuples, 20.0);
        assert_eq!(stats[1].tuples, 40.0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn plan_stats_checks_arity() {
        inst().plan_stats(&[0]);
    }

    #[test]
    fn all_plans_enumerates_cartesian_product() {
        let plans = inst().all_plans();
        assert_eq!(plans.len(), 6);
        assert_eq!(plans[0], vec![0, 0]);
        assert_eq!(plans[5], vec![2, 1]);
        // All distinct.
        let set: std::collections::BTreeSet<_> = plans.iter().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            ProblemInstance::new(0.0, vec![10], vec![]).unwrap_err(),
            InstanceError::LengthMismatch
        );
        assert_eq!(
            ProblemInstance::new(0.0, vec![10], vec![vec![]]).unwrap_err(),
            InstanceError::EmptyBucket(0)
        );
        let err = ProblemInstance::new(0.0, vec![10], vec![vec![src(11)]]).unwrap_err();
        assert_eq!(err, InstanceError::ExtentOutOfRange(SourceRef::new(0, 0)));
        assert!(err.to_string().contains("b0s0"));
    }
}
