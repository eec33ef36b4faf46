//! Execution policies: parallelism, retries with capped exponential
//! backoff, per-access timeouts, and fault injection.

use std::collections::BTreeSet;

/// Fault injection applied on top of each source's behavior model.
///
/// All injected faults are *deterministic*: whether attempt `a` of plan
/// `s`'s access to a source fails is a pure function of `(seed, source,
/// plan sequence number, attempt)`, so a run is bit-for-bit reproducible
/// regardless of worker count or thread interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Master switch. When `false`, every access succeeds on the first
    /// attempt (latency is still drawn, deterministically).
    pub enabled: bool,
    /// Seed for the deterministic failure/latency rolls.
    pub seed: u64,
    /// Added to each source's cataloged transient failure rate
    /// (milli-probability: 200 ⇒ +0.2), for stress experiments.
    pub extra_transient_millis: u32,
    /// Sources (by name) that are permanently down: every access fails
    /// immediately and unretryably.
    pub permanently_down: BTreeSet<String>,
}

impl FaultConfig {
    /// No faults at all: the configuration under which the concurrent
    /// executor is equivalent to the serial mediator.
    pub fn disabled() -> Self {
        FaultConfig {
            enabled: false,
            seed: 0,
            extra_transient_millis: 0,
            permanently_down: BTreeSet::new(),
        }
    }

    /// Faults on, driven by `seed`, with each source's cataloged transient
    /// failure rate.
    pub fn with_seed(seed: u64) -> Self {
        FaultConfig {
            enabled: true,
            ..FaultConfig::disabled()
        }
        .seeded(seed)
    }

    fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds `rate` (a probability, clamped to `[0, 0.999]`) to every
    /// source's transient failure rate.
    pub fn with_extra_transient_rate(mut self, rate: f64) -> Self {
        self.extra_transient_millis = (rate.clamp(0.0, 0.999) * 1000.0).round() as u32;
        self
    }

    /// The extra transient failure rate as a probability.
    pub fn extra_transient_rate(&self) -> f64 {
        f64::from(self.extra_transient_millis) / 1000.0
    }

    /// Marks a source as permanently down.
    pub fn with_source_down(mut self, name: impl Into<String>) -> Self {
        self.permanently_down.insert(name.into());
        self
    }
}

/// Retry discipline for one source access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per access before the plan is marked failed (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in virtual time units.
    pub base_backoff: f64,
    /// Multiplier applied per further attempt.
    pub backoff_factor: f64,
    /// Ceiling on a single backoff.
    pub max_backoff: f64,
    /// Per-attempt latency budget: an attempt whose drawn latency exceeds
    /// this counts as a transient failure charged at the timeout.
    pub access_timeout: f64,
}

impl RetryPolicy {
    /// Four attempts, backoff 1·2^k capped at 8, no timeout.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: 1.0,
            backoff_factor: 2.0,
            max_backoff: 8.0,
            access_timeout: f64::INFINITY,
        }
    }

    /// One attempt, no backoff — fail fast.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::standard()
        }
    }

    /// Virtual time waited before `attempt` (0-based): nothing before the
    /// first, then `base · factor^(attempt−1)` capped at `max_backoff`.
    pub fn backoff_before(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        let raw = self.base_backoff * self.backoff_factor.powi(attempt as i32 - 1);
        raw.min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::standard()
    }
}

/// Everything the executor needs to know about *how* to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimePolicy {
    /// Plans in flight at once (≥ 1), the coordinating thread included;
    /// threads beyond it exist only while an access waits. Affects wall
    /// time only, never results.
    pub workers: usize,
    /// Speculation depth: how many plans are popped from the orderer and
    /// put in flight before their outcomes are known (≥ 1). Pops within a
    /// window are optimistic — exactly the assumption the serial mediator
    /// makes — so with faults disabled any depth gives the serial ordering.
    pub lookahead: usize,
    /// Retry discipline per source access.
    pub retry: RetryPolicy,
    /// Fault injection.
    pub faults: FaultConfig,
}

impl RuntimePolicy {
    /// Serial-equivalent defaults: one worker, no speculation, standard
    /// retries, faults off.
    pub fn serial() -> Self {
        RuntimePolicy {
            workers: 1,
            lookahead: 1,
            retry: RetryPolicy::standard(),
            faults: FaultConfig::disabled(),
        }
    }

    /// `workers` workers speculating `workers` plans ahead.
    pub fn parallel(workers: usize) -> Self {
        let workers = workers.max(1);
        RuntimePolicy {
            workers,
            lookahead: workers,
            ..RuntimePolicy::serial()
        }
    }

    /// Replaces the fault configuration.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces the speculation depth (≥ 1 enforced).
    pub fn with_lookahead(mut self, lookahead: usize) -> Self {
        self.lookahead = lookahead.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps() {
        let r = RetryPolicy::standard();
        assert_eq!(r.backoff_before(0), 0.0);
        assert_eq!(r.backoff_before(1), 1.0);
        assert_eq!(r.backoff_before(2), 2.0);
        assert_eq!(r.backoff_before(3), 4.0);
        assert_eq!(r.backoff_before(4), 8.0);
        assert_eq!(r.backoff_before(9), 8.0, "capped");
    }

    #[test]
    fn fault_config_builders() {
        let f = FaultConfig::with_seed(42)
            .with_extra_transient_rate(0.25)
            .with_source_down("v3");
        assert!(f.enabled);
        assert_eq!(f.seed, 42);
        assert!((f.extra_transient_rate() - 0.25).abs() < 1e-9);
        assert!(f.permanently_down.contains("v3"));
        assert!(!FaultConfig::disabled().enabled);
    }

    #[test]
    fn extra_rate_clamps() {
        let f = FaultConfig::with_seed(0).with_extra_transient_rate(5.0);
        assert!(f.extra_transient_rate() <= 0.999);
        let f = FaultConfig::with_seed(0).with_extra_transient_rate(-1.0);
        assert_eq!(f.extra_transient_rate(), 0.0);
    }

    #[test]
    fn policy_builders_enforce_minima() {
        assert_eq!(RuntimePolicy::parallel(0).workers, 1);
        assert_eq!(RuntimePolicy::serial().with_lookahead(0).lookahead, 1);
        let p = RuntimePolicy::parallel(4);
        assert_eq!((p.workers, p.lookahead), (4, 4));
    }
}
