//! The machine-speed reference every timing is expressed against.
//!
//! The machines this benchmark runs on are two virtual cores of a shared
//! host. Whatever else the host runs slows them by 10–45 %, for a fraction
//! of a second or for minutes, without the guest seeing stolen time: wall
//! *and* CPU time of the same deterministic work go up together. Whole
//! 15 s runs of one commit and one seed then differ by a fifth, whatever
//! is taken from them — medians, lower quartiles, minima.
//!
//! So the load threads also time a fixed *reference kernel* every few
//! milliseconds between queries, and a [`RefClock`] built from those
//! readings turns measured time into *reference time*: time as it would
//! have passed had the kernel taken [`REFERENCE_NS`] throughout. Half a
//! second in which the kernel ran 20 % slow counts as 1/1.2 of its wall
//! time. The kernel is ordinary branchy, cache-resident code (sort, binary
//! search, hash probing) because that is what the slow-downs hit and what
//! the mediator is made of; a serial arithmetic chain does not feel them
//! and a main-memory pointer chase varies on its own. It works in two
//! buffers of its own and never allocates, so its speed does not depend on
//! what the system under test has done to the heap.

use std::time::{Duration, Instant};

/// What one kernel run takes on the machine class the bounds were
/// measured on while nothing slows it (the lowest tenth of the readings of
/// quiet runs). It only fixes the unit: on such a machine, left alone,
/// reference time is wall time.
pub const REFERENCE_NS: f64 = 140_000.0;

/// A load thread takes a reading after a query once this much time has
/// passed since its last one: ≈ 2.5 % of the timed section, spread evenly.
pub const READING_EVERY: Duration = Duration::from_millis(8);

/// Readings are pooled over slices of this length; a slice's slow-down is
/// the median of its readings.
const SLICE_NS: u64 = 500_000_000;

const KEYS: usize = 6_000;
const TABLE: usize = 16_384;
const LOOKUPS: u64 = 2_000;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x
}

/// The reference kernel and its two buffers.
pub struct Kernel {
    keys: Vec<u64>,
    table: Vec<u64>,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

impl Kernel {
    pub fn new() -> Kernel {
        Kernel {
            keys: vec![0; KEYS],
            table: vec![0; TABLE],
        }
    }

    /// The same work every time: fill, sort, search, hash.
    fn run(&mut self) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15;
        for slot in self.keys.iter_mut() {
            *slot = (lcg(&mut x) >> 20) | 1;
        }
        self.keys.sort_unstable();
        let mut found = 0;
        for i in 0..LOOKUPS {
            let draw = lcg(&mut x);
            let key = if i % 2 == 0 {
                self.keys[(draw >> 40) as usize % KEYS]
            } else {
                draw >> 20
            };
            found += u64::from(self.keys.binary_search(&key).is_ok());
        }
        self.table.fill(0);
        let mask = TABLE - 1;
        for &key in &self.keys {
            let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize & mask;
            while self.table[slot] != 0 && self.table[slot] != key {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = key;
        }
        found + self.table.iter().filter(|&&slot| slot != 0).count() as u64
    }

    /// One reading: the nanoseconds one kernel run took.
    pub fn reading(&mut self) -> u64 {
        let start = Instant::now();
        std::hint::black_box(self.run());
        start.elapsed().as_nanos() as u64
    }

    /// The slow-down right now: the median of `n` back-to-back readings
    /// over [`REFERENCE_NS`].
    pub fn slowdown_now(&mut self, n: usize) -> f64 {
        let mut readings: Vec<u64> = (0..n.max(1)).map(|_| self.reading()).collect();
        readings.sort_unstable();
        readings[readings.len() / 2] as f64 / REFERENCE_NS
    }
}

/// A clock that runs at reference speed, built from a timed section's
/// readings `(taken at, kernel ns)`, both in ns since the section began.
pub struct RefClock {
    /// Slow-down (median reading ÷ [`REFERENCE_NS`]) of every slice.
    slowdown: Vec<f64>,
}

impl RefClock {
    /// `end_ns` is the section's length. A slice without a reading takes
    /// the slow-down of the nearest earlier slice that has one (else the
    /// nearest later one; 1 if there is no reading at all).
    pub fn new(readings: &[(u64, u64)], end_ns: u64) -> RefClock {
        let slices = (end_ns / SLICE_NS + 1) as usize;
        let mut pooled: Vec<Vec<u64>> = vec![Vec::new(); slices];
        for &(at, ns) in readings {
            pooled[((at / SLICE_NS) as usize).min(slices - 1)].push(ns);
        }
        let medians: Vec<Option<f64>> = pooled
            .into_iter()
            .map(|mut slice| {
                slice.sort_unstable();
                slice.get(slice.len() / 2).map(|&m| m as f64 / REFERENCE_NS)
            })
            .collect();
        let first = medians.iter().flatten().next().copied().unwrap_or(1.0);
        let mut last = first;
        let slowdown = medians
            .into_iter()
            .map(|m| {
                last = m.unwrap_or(last);
                last
            })
            .collect();
        RefClock { slowdown }
    }

    /// The slow-down of the slice instant `at_ns` lies in.
    pub fn slowdown_at(&self, at_ns: u64) -> f64 {
        let slice = ((at_ns / SLICE_NS) as usize).min(self.slowdown.len() - 1);
        self.slowdown[slice]
    }

    /// Reference nanoseconds between two instants of the section.
    pub fn elapsed(&self, from_ns: u64, to_ns: u64) -> f64 {
        let mut total = 0.0;
        let mut at = from_ns;
        while at < to_ns {
            let slice_end = (at / SLICE_NS + 1) * SLICE_NS;
            let until = slice_end.min(to_ns);
            total += (until - at) as f64 / self.slowdown_at(at);
            at = until;
        }
        total
    }

    /// `(lowest, median, highest)` slice slow-down — how steady the
    /// machine was.
    pub fn range(&self) -> (f64, f64, f64) {
        let mut sorted = self.slowdown.clone();
        sorted.sort_by(f64::total_cmp);
        (
            sorted[0],
            sorted[sorted.len() / 2],
            sorted[sorted.len() - 1],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_time() {
        let mut kernel = Kernel::new();
        let first = kernel.run();
        assert_eq!(first, kernel.run());
        // Every key lands in the table; every other lookup is for a key.
        assert!(first >= LOOKUPS / 2 + KEYS as u64 - 8, "{first}");
        assert!(kernel.reading() > 0);
    }

    #[test]
    fn clock_runs_slower_where_the_kernel_did() {
        let reference = REFERENCE_NS as u64;
        // Slice 0 at reference speed, slice 1 twice as slow, slice 2 unread.
        let readings = [
            (10, reference),
            (20, reference),
            (SLICE_NS + 5, 2 * reference),
        ];
        let clock = RefClock::new(&readings, 3 * SLICE_NS - 1);
        assert_eq!(clock.slowdown_at(0), 1.0);
        assert_eq!(clock.slowdown_at(SLICE_NS), 2.0);
        assert_eq!(clock.slowdown_at(2 * SLICE_NS + 7), 2.0);
        assert_eq!(clock.elapsed(0, SLICE_NS), SLICE_NS as f64);
        assert_eq!(
            clock.elapsed(SLICE_NS / 2, 2 * SLICE_NS),
            SLICE_NS as f64 / 2.0 + SLICE_NS as f64 / 2.0
        );
        assert_eq!(clock.range(), (1.0, 2.0, 2.0));
    }

    #[test]
    fn clock_without_readings_is_wall_time() {
        let clock = RefClock::new(&[], 10);
        assert_eq!(clock.elapsed(2, 9), 7.0);
        // A leading unread slice takes the first reading there is.
        let late = RefClock::new(&[(SLICE_NS, 3 * REFERENCE_NS as u64)], 2 * SLICE_NS - 1);
        assert_eq!(late.slowdown_at(0), 3.0);
    }
}
