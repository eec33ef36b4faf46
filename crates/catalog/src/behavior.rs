//! Behavior models: how a source *acts* at runtime, derived from how it is
//! *described* in the catalog.
//!
//! The statistics of [`crate::stats`] parameterize the paper's utility
//! measures; the same numbers also induce a simulation model of the remote
//! source — how long an access takes, how likely an attempt is to fail,
//! what an access costs in fees. `qpo-runtime` executes plans against
//! services driven by these models, which is what lets the experiments
//! close the loop: the ordering algorithms *predict* utility from the
//! stats, and the runtime *realizes* those predictions (noisily) from the
//! very same stats.

use crate::stats::SourceStats;

/// The runtime behavior of one source, in virtual time units.
///
/// Virtual time is the unit of the cost measures (`c_i`, `α_i` from §3):
/// one access of the source costs `base_latency + per_tuple_latency · n`
/// time for `n` shipped tuples. Executors may map virtual time to wall
/// time with any scale, including zero (pure simulation).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceBehavior {
    /// Flat per-access latency, from the access cost `c_i`.
    pub base_latency: f64,
    /// Latency per shipped tuple, from the transmission cost `α_i`.
    pub per_tuple_latency: f64,
    /// Expected tuples per access, from `n_i`.
    pub expected_tuples: f64,
    /// Probability an individual access attempt fails transiently, from
    /// the failure probability of the failure-cost measure.
    pub transient_failure_rate: f64,
    /// Monetary fee charged for one (successful) access: the per-tuple fee
    /// times the expected tuples shipped.
    pub fee_per_access: f64,
    /// Symmetric latency noise as a fraction of the access latency: an
    /// access draws its latency uniformly from `expected · [1 − j, 1 + j]`.
    pub latency_jitter: f64,
}

impl SourceBehavior {
    /// Derives the behavior model from catalog statistics.
    pub fn from_stats(stats: &SourceStats) -> Self {
        SourceBehavior {
            base_latency: stats.access_cost,
            per_tuple_latency: stats.transmission_cost,
            expected_tuples: stats.tuples,
            transient_failure_rate: stats.failure_prob,
            fee_per_access: stats.fee_per_tuple * stats.tuples,
            latency_jitter: 0.2,
        }
    }

    /// Expected latency of one successful access (the deterministic center
    /// of the jittered draw): `c_i + α_i · n_i`.
    pub fn expected_latency(&self) -> f64 {
        self.base_latency + self.per_tuple_latency * self.expected_tuples
    }

    /// Expected attempts until one access succeeds, `1 / (1 − f)` — the
    /// quantity the failure-cost measure multiplies into the plan cost.
    pub fn expected_attempts(&self) -> f64 {
        1.0 / (1.0 - self.transient_failure_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::Extent;

    #[test]
    fn derives_every_field_from_stats() {
        let stats = SourceStats::new()
            .with_extent(Extent::new(0, 50))
            .with_access_cost(5.0)
            .with_transmission_cost(0.5)
            .with_fee(0.1)
            .with_failure_prob(0.25);
        let b = SourceBehavior::from_stats(&stats);
        assert_eq!(b.base_latency, 5.0);
        assert_eq!(b.per_tuple_latency, 0.5);
        assert_eq!(b.expected_tuples, 50.0);
        assert_eq!(b.transient_failure_rate, 0.25);
        assert_eq!(b.fee_per_access, 5.0, "0.1 fee × 50 tuples");
        assert_eq!(b.expected_latency(), 30.0, "5 + 0.5 × 50");
        assert!((b.expected_attempts() - 4.0 / 3.0).abs() < 1e-12);
    }
}
