//! Simulated remote sources: each catalog source wrapped as a service with
//! deterministic, seed-driven latency and failure behavior.
//!
//! Determinism is the load-bearing property. An access outcome is a pure
//! function of `(fault seed, source identity, plan sequence number,
//! attempt)` — never of wall time, thread identity, or interleaving — so a
//! concurrent run replays bit-for-bit under any worker count, and tests
//! can assert on exact failure traces.

use crate::policy::FaultConfig;
use qpo_catalog::{ProblemInstance, SourceStats};
use std::sync::Arc;

/// Symmetric latency noise as a fraction of the access latency: an access
/// draws its latency uniformly from `expected · [1 − j, 1 + j]`.
const JITTER: f64 = 0.2;

/// What one simulated access attempt did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The attempt succeeded.
    Success,
    /// The attempt failed transiently; retrying may succeed.
    TransientFailure,
    /// The source is permanently down; retrying is pointless.
    PermanentFailure,
}

/// One simulated access attempt: outcome plus charged virtual latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Access {
    /// What happened.
    pub outcome: AccessOutcome,
    /// Virtual time the attempt took.
    pub latency: f64,
}

/// A catalog source wrapped as a runtime service.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceService {
    /// Bucket (subgoal) the service answers.
    pub bucket: usize,
    /// Index within the bucket.
    pub index: usize,
    /// Source name (from the catalog, or `b<bucket>s<index>` if unnamed).
    pub name: Arc<str>,
    /// The catalog statistics its accesses are drawn from and charged by.
    pub stats: SourceStats,
}

/// SplitMix64: the standard 64-bit finalizer; full-period, well mixed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a byte string, for hashing source names into the roll.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Maps a hash to a uniform draw in `[0, 1)` using the top 53 bits.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl SourceService {
    /// Wraps one source of a problem instance.
    pub fn from_instance(inst: &ProblemInstance, bucket: usize, index: usize) -> Self {
        let stats = &inst.buckets[bucket][index];
        let name = match &stats.name {
            Some(n) => n.clone(),
            None => Arc::from(format!("b{bucket}s{index}").as_str()),
        };
        SourceService {
            bucket,
            index,
            name,
            stats: stats.clone(),
        }
    }

    /// The per-attempt roll: a distinct, deterministic stream per
    /// `(seed, source, plan sequence, attempt, stream)` tuple.
    fn roll(&self, faults: &FaultConfig, plan_seq: u64, attempt: u32, stream: u64) -> u64 {
        let mut h = faults.seed ^ fnv1a(self.name.as_bytes());
        h = splitmix64(h ^ (self.bucket as u64).rotate_left(17));
        h = splitmix64(h ^ (self.index as u64).rotate_left(34));
        h = splitmix64(h ^ plan_seq);
        h = splitmix64(h ^ (u64::from(attempt) << 8) ^ stream);
        splitmix64(h)
    }

    /// The transient failure probability in effect under `faults`.
    pub fn effective_transient_rate(&self, faults: &FaultConfig) -> f64 {
        if !faults.enabled {
            return 0.0;
        }
        (self.stats.failure_prob + faults.extra_transient_rate()).min(0.999)
    }

    /// Simulates one access attempt. Pure: equal arguments give equal
    /// results, on any thread, in any order.
    pub fn simulate_access(&self, faults: &FaultConfig, plan_seq: u64, attempt: u32) -> Access {
        if faults.enabled && faults.permanently_down.contains(self.name.as_ref()) {
            return Access {
                outcome: AccessOutcome::PermanentFailure,
                latency: 0.0,
            };
        }
        let u_latency = unit(self.roll(faults, plan_seq, attempt, 1));
        let latency = self.stats.expected_latency() * (1.0 - JITTER + 2.0 * JITTER * u_latency);
        let rate = self.effective_transient_rate(faults);
        let failed = rate > 0.0 && unit(self.roll(faults, plan_seq, attempt, 2)) < rate;
        Access {
            outcome: if failed {
                AccessOutcome::TransientFailure
            } else {
                AccessOutcome::Success
            },
            latency,
        }
    }
}

/// All services of an instance, addressable by `(bucket, index)` — the
/// coordinates concrete plans are written in.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceGrid {
    buckets: Vec<Vec<SourceService>>,
}

impl SourceGrid {
    /// Wraps every source of the instance.
    pub fn from_instance(inst: &ProblemInstance) -> Self {
        SourceGrid {
            buckets: (0..inst.buckets.len())
                .map(|b| {
                    (0..inst.buckets[b].len())
                        .map(|i| SourceService::from_instance(inst, b, i))
                        .collect()
                })
                .collect(),
        }
    }

    /// The service at plan coordinates `(bucket, index)`.
    ///
    /// # Panics
    /// Panics if the coordinates are out of range.
    pub fn service(&self, bucket: usize, index: usize) -> &SourceService {
        &self.buckets[bucket][index]
    }

    /// Services of one concrete plan, bucket by bucket. Lazy: no per-plan
    /// allocation — the executor walks this once per plan on the hot path.
    pub fn plan_services<'a>(
        &'a self,
        plan: &'a [usize],
    ) -> impl ExactSizeIterator<Item = &'a SourceService> + 'a {
        plan.iter().enumerate().map(|(b, &i)| self.service(b, i))
    }

    /// All services, flattened.
    pub fn iter(&self) -> impl Iterator<Item = &SourceService> {
        self.buckets.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpo_catalog::{Extent, SourceStats};

    fn inst() -> ProblemInstance {
        let src = |name: &str, f: f64| {
            SourceStats::new()
                .with_name(name)
                .with_extent(Extent::new(0, 10))
                .with_access_cost(2.0)
                .with_transmission_cost(0.1)
                .with_failure_prob(f)
        };
        ProblemInstance::new(
            0.0,
            vec![100, 100],
            vec![
                vec![src("v1", 0.0), src("v2", 0.5)],
                vec![
                    src("v3", 0.2),
                    SourceStats::new().with_extent(Extent::new(0, 5)),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn grid_wraps_every_source_with_names() {
        let grid = SourceGrid::from_instance(&inst());
        assert_eq!(grid.iter().count(), 4);
        assert_eq!(grid.service(0, 1).name.as_ref(), "v2");
        assert_eq!(grid.service(1, 1).name.as_ref(), "b1s1", "unnamed fallback");
        let choice = [1, 0];
        let mut services = grid.plan_services(&choice);
        assert_eq!(services.len(), 2, "lazy but exact-size");
        assert_eq!(services.next().unwrap().name.as_ref(), "v2");
        assert_eq!(services.next().unwrap().name.as_ref(), "v3");
        assert!(services.next().is_none());
    }

    #[test]
    fn accesses_are_deterministic() {
        let grid = SourceGrid::from_instance(&inst());
        let faults = FaultConfig::with_seed(7);
        let svc = grid.service(0, 1);
        for seq in 0..20 {
            for attempt in 0..4 {
                let a = svc.simulate_access(&faults, seq, attempt);
                let b = svc.simulate_access(&faults, seq, attempt);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn disabled_faults_always_succeed() {
        let grid = SourceGrid::from_instance(&inst());
        let faults = FaultConfig::disabled();
        for svc in grid.iter() {
            for seq in 0..50 {
                let a = svc.simulate_access(&faults, seq, 0);
                assert_eq!(a.outcome, AccessOutcome::Success);
                assert!(a.latency >= 0.0);
            }
        }
    }

    #[test]
    fn transient_rate_tracks_the_behavior_model() {
        let grid = SourceGrid::from_instance(&inst());
        let faults = FaultConfig::with_seed(3);
        let svc = grid.service(0, 1); // failure_prob 0.5
        let n = 2000;
        let failures = (0..n)
            .filter(|&seq| {
                svc.simulate_access(&faults, seq, 0).outcome == AccessOutcome::TransientFailure
            })
            .count();
        let rate = failures as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.05, "observed {rate}");
        // And the reliable source never fails.
        let svc = grid.service(0, 0);
        assert!((0..200)
            .all(|seq| { svc.simulate_access(&faults, seq, 0).outcome == AccessOutcome::Success }));
    }

    #[test]
    fn attempts_are_independent_rolls() {
        let grid = SourceGrid::from_instance(&inst());
        let faults = FaultConfig::with_seed(3);
        let svc = grid.service(0, 1);
        // Some sequence must fail on attempt 0 yet succeed on a retry.
        let recovered = (0..100).any(|seq| {
            svc.simulate_access(&faults, seq, 0).outcome == AccessOutcome::TransientFailure
                && (1..4).any(|attempt| {
                    svc.simulate_access(&faults, seq, attempt).outcome == AccessOutcome::Success
                })
        });
        assert!(recovered);
    }

    #[test]
    fn permanent_failure_short_circuits() {
        let grid = SourceGrid::from_instance(&inst());
        let faults = FaultConfig::with_seed(1).with_source_down("v1");
        let a = grid.service(0, 0).simulate_access(&faults, 0, 0);
        assert_eq!(a.outcome, AccessOutcome::PermanentFailure);
        // The same source under disabled faults is fine.
        let a = grid
            .service(0, 0)
            .simulate_access(&FaultConfig::disabled(), 0, 0);
        assert_eq!(a.outcome, AccessOutcome::Success);
    }

    #[test]
    fn latency_is_jittered_around_the_expectation() {
        let grid = SourceGrid::from_instance(&inst());
        let svc = grid.service(0, 0);
        let expected = svc.stats.expected_latency();
        let j = JITTER;
        let faults = FaultConfig::with_seed(9);
        let mut distinct = std::collections::BTreeSet::new();
        for seq in 0..50 {
            let lat = svc.simulate_access(&faults, seq, 0).latency;
            assert!(lat >= expected * (1.0 - j) - 1e-12);
            assert!(lat <= expected * (1.0 + j) + 1e-12);
            distinct.insert((lat * 1e9) as i64);
        }
        assert!(distinct.len() > 10, "latency actually varies");
    }
}
