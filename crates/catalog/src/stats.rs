//! Per-source statistics consumed by the utility measures.

use crate::extent::Extent;
use std::sync::Arc;

/// Statistics of one data source with respect to one query subgoal.
///
/// The fields correspond to the parameters of the paper's utility measures
/// (§3, §6):
///
/// - `tuples` — `n_i`, the expected number of items the source returns for
///   the subgoal;
/// - `transmission_cost` — `α_i`, cost of shipping one item to the mediator;
/// - `fee_per_tuple` — the monetary fee per retrieved item (the "average
///   monetary cost" measure);
/// - `failure_prob` — probability an access attempt fails (the "cost with
///   probability of source failure" measure);
/// - `access_cost` — `c_i`, the flat per-access cost of the fully monotonic
///   linear measure;
/// - `extent` — the source's coverage extent over the subgoal universe (see
///   [`crate::extent`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceStats {
    /// Optional symbolic name (e.g. the LAV source relation `v1`).
    pub name: Option<Arc<str>>,
    /// Expected output tuples `n_i`.
    pub tuples: f64,
    /// Per-item transmission cost `α_i`.
    pub transmission_cost: f64,
    /// Monetary fee charged per retrieved tuple.
    pub fee_per_tuple: f64,
    /// Probability an access fails (retried until success).
    pub failure_prob: f64,
    /// Flat access cost `c_i`.
    pub access_cost: f64,
    /// Coverage extent over the subgoal universe.
    pub extent: Extent,
}

impl SourceStats {
    /// A neutral baseline: free, reliable, empty source. Builders below
    /// adjust individual fields.
    pub fn new() -> Self {
        SourceStats {
            name: None,
            tuples: 0.0,
            transmission_cost: 0.0,
            fee_per_tuple: 0.0,
            failure_prob: 0.0,
            access_cost: 0.0,
            extent: Extent::EMPTY,
        }
    }

    /// Sets the symbolic name.
    pub fn with_name(mut self, name: impl AsRef<str>) -> Self {
        self.name = Some(Arc::from(name.as_ref()));
        self
    }

    /// Sets the expected output tuples `n_i`.
    pub fn with_tuples(mut self, tuples: f64) -> Self {
        assert!(
            tuples >= 0.0 && tuples.is_finite(),
            "invalid tuples {tuples}"
        );
        self.tuples = tuples;
        self
    }

    /// Sets the per-item transmission cost `α_i`.
    pub fn with_transmission_cost(mut self, cost: f64) -> Self {
        assert!(cost >= 0.0 && cost.is_finite(), "invalid α {cost}");
        self.transmission_cost = cost;
        self
    }

    /// Sets the per-tuple monetary fee.
    pub fn with_fee(mut self, fee: f64) -> Self {
        assert!(fee >= 0.0 && fee.is_finite(), "invalid fee {fee}");
        self.fee_per_tuple = fee;
        self
    }

    /// Sets the failure probability (must lie in `[0, 1)` so the expected
    /// retry count is finite).
    pub fn with_failure_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "failure probability {p} not in [0, 1)"
        );
        self.failure_prob = p;
        self
    }

    /// Sets the flat access cost `c_i`.
    pub fn with_access_cost(mut self, cost: f64) -> Self {
        assert!(
            cost >= 0.0 && cost.is_finite(),
            "invalid access cost {cost}"
        );
        self.access_cost = cost;
        self
    }

    /// Sets the coverage extent and, if `tuples` is still zero, defaults it
    /// to the extent length (the natural scale of the coverage model).
    pub fn with_extent(mut self, extent: Extent) -> Self {
        self.extent = extent;
        if self.tuples == 0.0 {
            self.tuples = extent.len as f64;
        }
        self
    }

    /// Expected number of access attempts until success: `1 / (1 - f)`.
    pub fn expected_attempts(&self) -> f64 {
        1.0 / (1.0 - self.failure_prob)
    }

    /// Expected latency of one successful access, in virtual time (the
    /// unit of the cost measures): `c_i + α_i · n_i`. The runtime's
    /// simulated sources jitter their draws around it.
    pub fn expected_latency(&self) -> f64 {
        self.access_cost + self.transmission_cost * self.tuples
    }
}

impl Default for SourceStats {
    fn default() -> Self {
        SourceStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let s = SourceStats::new()
            .with_name("v1")
            .with_tuples(100.0)
            .with_transmission_cost(0.5)
            .with_fee(0.02)
            .with_failure_prob(0.25)
            .with_access_cost(3.0)
            .with_extent(Extent::new(10, 50));
        assert_eq!(s.name.as_deref(), Some("v1"));
        assert_eq!(s.tuples, 100.0, "explicit tuples not overwritten by extent");
        assert_eq!(s.transmission_cost, 0.5);
        assert_eq!(s.fee_per_tuple, 0.02);
        assert_eq!(s.failure_prob, 0.25);
        assert_eq!(s.access_cost, 3.0);
        assert_eq!(s.extent, Extent::new(10, 50));
    }

    #[test]
    fn extent_defaults_tuples() {
        let s = SourceStats::new().with_extent(Extent::new(0, 40));
        assert_eq!(s.tuples, 40.0);
    }

    #[test]
    fn expected_attempts() {
        assert_eq!(SourceStats::new().expected_attempts(), 1.0);
        assert_eq!(
            SourceStats::new()
                .with_failure_prob(0.5)
                .expected_attempts(),
            2.0
        );
    }

    #[test]
    fn expected_latency() {
        let s = SourceStats::new()
            .with_extent(Extent::new(0, 50))
            .with_access_cost(5.0)
            .with_transmission_cost(0.5);
        assert_eq!(s.expected_latency(), 30.0, "5 + 0.5 × 50");
    }

    #[test]
    #[should_panic(expected = "not in [0, 1)")]
    fn rejects_certain_failure() {
        let _ = SourceStats::new().with_failure_prob(1.0);
    }

    #[test]
    #[should_panic(expected = "invalid tuples")]
    fn rejects_negative_tuples() {
        let _ = SourceStats::new().with_tuples(-1.0);
    }
}
