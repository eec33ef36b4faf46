//! Execution policies: parallelism, an attempt count per access (with a
//! fixed capped exponential backoff), and fault injection.

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

/// The wait before a source's second attempt, in virtual time units; each
/// further attempt doubles it.
const FIRST_BACKOFF: f64 = 1.0;
/// Ceiling on a single backoff.
const MAX_BACKOFF: f64 = 8.0;

/// Virtual time waited before `attempt` (0-based): nothing before the
/// first, then `FIRST_BACKOFF · 2^(attempt−1)` capped at `MAX_BACKOFF`.
pub(crate) fn backoff_before(attempt: u32) -> f64 {
    if attempt == 0 {
        return 0.0;
    }
    (FIRST_BACKOFF * 2f64.powi(attempt as i32 - 1)).min(MAX_BACKOFF)
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
    /// Attempts per source access before the plan is marked failed (≥ 1),
    /// with the fixed capped exponential backoff between them.
    pub max_attempts: u32,
    /// Fault injection.
    pub faults: FaultConfig,
}

impl RuntimePolicy {
    /// Serial-equivalent defaults: one worker, no speculation, four
    /// attempts per access, faults off.
    pub fn serial() -> Self {
        RuntimePolicy {
            workers: 1,
            lookahead: 1,
            max_attempts: 4,
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

    /// Replaces the attempts per access (≥ 1 enforced).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
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
        assert_eq!(backoff_before(0), 0.0);
        assert_eq!(backoff_before(1), 1.0);
        assert_eq!(backoff_before(2), 2.0);
        assert_eq!(backoff_before(3), 4.0);
        assert_eq!(backoff_before(4), 8.0);
        assert_eq!(backoff_before(9), 8.0, "capped");
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
        assert_eq!(RuntimePolicy::serial().with_max_attempts(0).max_attempts, 1);
        let p = RuntimePolicy::parallel(4);
        assert_eq!((p.workers, p.lookahead), (4, 4));
    }
}
