//! The metrics registry: atomic counters, gauges, and fixed-bucket log₂
//! histograms, keyed by metric name plus a small label set.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! of shared atomics; recording never takes the registry lock, only
//! handle *creation* does. All updates use relaxed atomics — the registry
//! carries statistics, not synchronization — and every reader sees a
//! value that some interleaving of the updates could have produced.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not registered anywhere (still counts; useful as a
    /// default before [`Registry::counter`] re-homes the metric).
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (nothing to do for 0).
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge (also supports accumulation).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `v` (compare-and-swap loop; contention here is negligible).
    pub fn add(&self, v: f64) {
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Exponent of the smallest finite bucket edge: values `≤ 2⁻¹⁰` land in
/// the underflow bucket (index 0).
pub const BUCKET_MIN_EXP: i32 = -10;
/// Exponent of the largest finite bucket edge: values `> 2²⁰` land in the
/// overflow bucket (the last index, upper edge `+∞`).
pub const BUCKET_MAX_EXP: i32 = 20;
/// Finite bucket count: one per edge `2ᵉ`, `e ∈ [−10, 20]`.
pub const FINITE_BUCKETS: usize = (BUCKET_MAX_EXP - BUCKET_MIN_EXP + 1) as usize;
/// Total bucket count, overflow included.
pub const TOTAL_BUCKETS: usize = FINITE_BUCKETS + 1;

/// Upper edge of finite bucket `i` (a power of two; le-semantics: a value
/// equal to an edge belongs to that edge's bucket).
pub fn bucket_edge(i: usize) -> f64 {
    debug_assert!(i < FINITE_BUCKETS);
    2f64.powi(BUCKET_MIN_EXP + i as i32)
}

fn bucket_index(v: f64) -> usize {
    if v.is_nan() {
        return FINITE_BUCKETS; // degenerate input: count it, in overflow
    }
    if v <= bucket_edge(0) {
        return 0; // underflow bucket (zero and negatives included)
    }
    // Powers of two are exact in IEEE, so `v <= edge` places `v == 2ᵏ`
    // precisely in the bucket whose edge is 2ᵏ.
    let mut lo = 1usize;
    let mut hi = FINITE_BUCKETS; // == overflow when no finite edge fits
    while lo < hi {
        let mid = (lo + hi) / 2;
        if v <= bucket_edge(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[derive(Debug, Default)]
struct HistogramInner {
    buckets: [AtomicU64; TOTAL_BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// A fixed-bucket base-2 logarithmic histogram: 31 finite buckets with
/// upper edges `2⁻¹⁰ … 2²⁰` plus an overflow bucket. The fixed layout
/// keeps recording allocation-free and lets exporters merge snapshots
/// without negotiating bucket boundaries.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// A histogram not registered anywhere.
    pub fn detached() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .inner
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Records `values` in order, as one [`record`](Histogram::record)
    /// each would, with one atomic add per bucket they touch: a client
    /// that buffers its observations publishes them at a call's end.
    pub fn record_all(&self, values: &[f64]) {
        let mut buckets = [0u64; TOTAL_BUCKETS];
        values.iter().for_each(|&v| buckets[bucket_index(v)] += 1);
        let (inner, count) = (&self.inner, values.len() as u64);
        for (cell, n) in inner.buckets.iter().zip(buckets).filter(|b| b.1 > 0) {
            cell.fetch_add(n, Ordering::Relaxed);
        }
        inner.count.fetch_add(count, Ordering::Relaxed);
        let sum = |bits: u64| values.iter().fold(f64::from_bits(bits), |s, v| s + v);
        let add = |bits| Some(sum(bits).to_bits());
        let _ = (inner.sum_bits).fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed))
    }

    /// Point-in-time copy of the bucket counts (non-cumulative, overflow
    /// last).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum(),
        }
    }

    /// Upper edge of the bucket containing the `q`-quantile observation
    /// (`q ∈ [0, 1]`), `None` when empty. Overflow reports `+∞`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }
}

/// A point-in-time copy of one histogram's state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, overflow last (length [`TOTAL_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Upper edge of the bucket containing the `q`-quantile observation.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based: ceil(q·n), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i < FINITE_BUCKETS {
                    bucket_edge(i)
                } else {
                    f64::INFINITY
                });
            }
        }
        Some(f64::INFINITY)
    }
}

/// Metric identity: name plus sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric family name (`qpo_kernel_rounds_total`, …).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// `name` + `suffix`, then `{k="v",…}` over the labels and `extra`
    /// after them (bare when there are neither): the one label renderer
    /// of the exporters.
    pub fn render(&self, suffix: &str, extra: Option<(&str, &str)>) -> String {
        let mut out = format!("{}{suffix}", self.name);
        let labels = self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        let mut sep = '{';
        for (k, v) in labels.chain(extra) {
            let v = crate::export::escape_label_value(v);
            let _ = write!(out, "{sep}{k}=\"{v}\"");
            sep = ',';
        }
        if sep == ',' {
            out.push('}');
        }
        out
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<MetricId, Counter>,
    gauges: BTreeMap<MetricId, Gauge>,
    histograms: BTreeMap<MetricId, Histogram>,
}

/// Shared metric storage. Cloning shares the store; the `BTreeMap` keys
/// give exporters a deterministic iteration order.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter for `(name, labels)`, creating it on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = MetricId::new(name, labels);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.counters.entry(id).or_default().clone()
    }

    /// Registers an existing counter handle under `(name, labels)`,
    /// replacing any counter already there: a component that counts
    /// before (or without) knowing a registry — a source backend's
    /// connection pool — keeps its own handle and is adopted here.
    pub fn adopt_counter(&self, name: &str, labels: &[(&str, &str)], counter: &Counter) {
        let id = MetricId::new(name, labels);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.counters.insert(id, counter.clone());
    }

    /// Returns the gauge for `(name, labels)`, creating it on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = MetricId::new(name, labels);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.gauges.entry(id).or_default().clone()
    }

    /// Returns the histogram for `(name, labels)`, creating it on first
    /// use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let id = MetricId::new(name, labels);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.histograms.entry(id).or_default().clone()
    }

    /// Current value of one counter (0 when absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let id = MetricId::new(name, labels);
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.counters.get(&id).map_or(0, Counter::get)
    }

    /// Sum of a counter family over all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .counters
            .iter()
            .filter(|(id, _)| id.name == name)
            .map(|(_, c)| c.get())
            .sum()
    }

    /// Deterministically ordered copies of every metric, for exporters.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(id, c)| (id.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(id, g)| (id.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(id, h)| (id.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Everything a registry held at one instant, in sorted key order.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// Counter values.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauge values.
    pub gauges: Vec<(MetricId, f64)>,
    /// Histogram snapshots.
    pub histograms: Vec<(MetricId, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_all_is_one_record_per_value() {
        let values = [0.0, 1e-9, 0.1, 0.3, 0.3, 7.5, 1e9, -2.0, 1.0 / 3.0];
        let (one_by_one, batched) = (Histogram::detached(), Histogram::detached());
        one_by_one.record(0.25);
        batched.record(0.25);
        values.iter().for_each(|&v| one_by_one.record(v));
        batched.record_all(&values);
        batched.record_all(&[]);
        let (a, b) = (one_by_one.snapshot(), batched.snapshot());
        assert_eq!((a.buckets, a.count), (b.buckets, b.count));
        assert_eq!(a.sum.to_bits(), b.sum.to_bits());
    }

    #[test]
    fn counters_accumulate_and_share_storage() {
        let reg = Registry::new();
        let a = reg.counter("hits", &[("orderer", "idrips")]);
        let b = reg.counter("hits", &[("orderer", "idrips")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same (name, labels) → same cell");
        assert_eq!(reg.counter_value("hits", &[("orderer", "idrips")]), 3);
        assert_eq!(reg.counter_value("hits", &[]), 0, "different label set");
        reg.counter("hits", &[]).add(4);
        assert_eq!(reg.counter_total("hits"), 7);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = Registry::new();
        reg.counter("c", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(reg.counter_value("c", &[("b", "2"), ("a", "1")]), 1);
    }

    #[test]
    fn gauges_set_and_add() {
        let g = Registry::new().gauge("vt", &[]);
        g.set(2.5);
        g.add(1.5);
        assert_eq!(g.get(), 4.0);
    }

    #[test]
    fn exact_powers_of_two_land_on_their_own_edge() {
        for e in BUCKET_MIN_EXP..=BUCKET_MAX_EXP {
            let h = Histogram::detached();
            h.record(2f64.powi(e));
            let snap = h.snapshot();
            let idx = (e - BUCKET_MIN_EXP) as usize;
            assert_eq!(snap.buckets[idx], 1, "2^{e} belongs to its edge bucket");
            assert_eq!(snap.count, 1);
        }
        // … and a nudge above an edge falls into the next bucket.
        let h = Histogram::detached();
        h.record(1.0 + 1e-9);
        assert_eq!(h.snapshot().buckets[(0 - BUCKET_MIN_EXP) as usize + 1], 1);
    }

    #[test]
    fn underflow_and_overflow_buckets() {
        let h = Histogram::detached();
        h.record(0.0);
        h.record(-3.0);
        h.record(2f64.powi(BUCKET_MIN_EXP)); // the smallest edge itself
        h.record(1e-12);
        assert_eq!(h.snapshot().buckets[0], 4, "≤ 2⁻¹⁰ underflows");
        h.record(2f64.powi(BUCKET_MAX_EXP) * 1.01);
        h.record(f64::INFINITY);
        h.record(f64::NAN);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[FINITE_BUCKETS], 3, "> 2²⁰ overflows");
        assert_eq!(snap.count, 7);
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let h = Histogram::detached();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        for v in [0.5, 0.5, 0.5, 6.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(0.5), "p50 edge is 2⁻¹ = 0.5");
        assert_eq!(h.quantile(0.0), Some(0.5), "p0 clamps to the first bucket");
        assert_eq!(h.quantile(1.0), Some(8.0), "6.0 sits under the 2³ edge");
        h.record(f64::INFINITY);
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
        assert_eq!(h.sum(), f64::INFINITY);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let reg = Registry::new();
        reg.counter("z", &[]).inc();
        reg.counter("a", &[("l", "2")]).inc();
        reg.counter("a", &[("l", "1")]).inc();
        let names: Vec<String> = reg
            .snapshot()
            .counters
            .iter()
            .map(|(id, _)| id.render("", None))
            .collect();
        assert_eq!(names, vec!["a{l=\"1\"}", "a{l=\"2\"}", "z"]);
    }

    #[test]
    fn metric_id_renders_prometheus_style() {
        let id = MetricId::new("m", &[("b", "2"), ("a", "1")]);
        assert_eq!(id.render("", None), "m{a=\"1\",b=\"2\"}");
        assert_eq!(MetricId::new("bare", &[]).render("", None), "bare");
    }

    #[test]
    fn metric_id_escapes_label_values() {
        let id = MetricId::new("m", &[("q", "a\"b\\c\nd")]);
        assert_eq!(id.render("", None), "m{q=\"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn poisoned_lock_still_registers_and_exports() {
        let reg = Registry::new();
        reg.counter("qpo_survivors_total", &[]).add(2);
        // Poison the registry mutex: a thread panics while holding it.
        let poisoner = reg.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("worker dies mid-registration");
        })
        .join();
        assert!(reg.inner.is_poisoned(), "the panic must poison the lock");
        // Telemetry keeps working: registration, reads, and export all
        // recover the inner state instead of cascading the panic.
        reg.counter("qpo_survivors_total", &[]).inc();
        assert_eq!(reg.counter_value("qpo_survivors_total", &[]), 3);
        assert_eq!(reg.counter_total("qpo_survivors_total"), 3);
        reg.gauge("qpo_after_poison", &[]).set(1.5);
        reg.histogram("qpo_after_poison_hist", &[]).record(0.5);
        let text = crate::export::prometheus_text(&reg);
        assert!(text.contains("qpo_survivors_total 3\n"));
        assert!(text.contains("qpo_after_poison 1.5\n"));
    }
}
