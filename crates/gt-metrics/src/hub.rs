//! The metrics hub — the Level-1/Level-2 instrumentation surface.
//!
//! A system under test registers named counters, gauges, and histograms;
//! logger threads snapshot them periodically without coordination.
//! Counters are monotone `u64` (e.g. events processed), gauges are
//! instantaneous `i64` values (e.g. queue length), histograms record
//! `u64` sample distributions (e.g. emit latencies) in power-of-two
//! buckets. All are lock-free on the hot path.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use gt_core::sync::{read, write};

/// A monotone counter handle. Cloning shares the underlying value.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A microsecond [`Counter`] fed with [`Duration`]s by one thread. Each
/// add carries its sub-microsecond remainder into the next, so intervals
/// shorter than a microsecond still add up — truncating each one to whole
/// microseconds would book a thousand 900 ns intervals as nothing.
#[derive(Debug)]
pub struct MicrosCounter {
    micros: Counter,
    /// Nanoseconds added but not yet booked, always below 1 000.
    carry: Cell<u64>,
}

impl MicrosCounter {
    /// Books durations on `micros`.
    pub fn new(micros: Counter) -> Self {
        MicrosCounter {
            micros,
            carry: Cell::new(0),
        }
    }

    /// Adds `elapsed`, rounded down to whole microseconds together with
    /// what earlier adds left over.
    #[inline]
    pub fn add(&self, elapsed: Duration) {
        let nanos = self.carry.get() + elapsed.as_nanos() as u64;
        self.micros.add(nanos / 1_000);
        self.carry.set(nanos % 1_000);
    }
}

/// An instantaneous gauge handle. Cloning shares the underlying value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two histogram buckets: bucket `i` counts samples
/// `v` with `floor(log2(v + 1)) == i`, so bucket 0 is `{0}`, bucket 1 is
/// `{1, 2}`, …, covering the full `u64` range in 64 buckets.
const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free histogram of `u64` samples (latencies in microseconds,
/// queue depths, …) with power-of-two buckets. Cloning shares the
/// underlying storage.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    saturated: AtomicBool,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            saturated: AtomicBool::new(false),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = (u64::BITS - (value.saturating_add(1)).leading_zeros() - 1) as usize;
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        // The sum must saturate, not wrap: a week-long run recording large
        // latencies would otherwise overflow and make `mean()` silently
        // wrong. Saturation is flagged so the snapshot can report it.
        let prev = self
            .0
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |sum| {
                Some(sum.saturating_add(value))
            })
            .expect("closure always returns Some");
        if prev.checked_add(value).is_none() {
            self.0.saturated.store(true, Ordering::Relaxed);
        }
        self.0.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy (buckets are read without a
    /// global lock, so a snapshot taken mid-record may be off by the
    /// in-flight sample — fine for monitoring).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed)),
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            max: self.0.max.load(Ordering::Relaxed),
            saturated: self.0.saturated.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sample counts per power-of-two bucket (bucket `i` holds values in
    /// `[2^i - 1, 2^(i+1) - 2]`).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Whether the sample sum overflowed `u64` and was clamped to
    /// `u64::MAX`. When set, [`Self::mean`] is a lower bound, not the
    /// true mean.
    pub saturated: bool,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty; a lower bound when
    /// [`Self::saturated`] is set).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]` —
    /// a conservative estimate with power-of-two resolution (0 when
    /// empty).
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                // Bucket i spans [2^i - 1, 2^(i+1) - 2].
                return (1u128 << (i + 1)).saturating_sub(2) as u64;
            }
        }
        self.max
    }
}

/// A shared, thread-safe registry of named counters and gauges.
///
/// Registration takes a write lock; reads and metric updates are
/// lock-free / read-locked, so sampling never stalls the system under
/// test.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Arc<RwLock<Registry>>,
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) a counter by name.
    pub fn counter(&self, name: &str) -> Counter {
        let known = read(&self.inner).counters.get(name).cloned();
        known.unwrap_or_else(|| registered(&mut write(&self.inner).counters, name))
    }

    /// Registers (or retrieves) a gauge by name.
    pub fn gauge(&self, name: &str) -> Gauge {
        let known = read(&self.inner).gauges.get(name).cloned();
        known.unwrap_or_else(|| registered(&mut write(&self.inner).gauges, name))
    }

    /// Registers (or retrieves) a histogram by name.
    pub fn histogram(&self, name: &str) -> Histogram {
        let known = read(&self.inner).histograms.get(name).cloned();
        known.unwrap_or_else(|| registered(&mut write(&self.inner).histograms, name))
    }

    /// Snapshot of all counters, sorted by name.
    pub(crate) fn counter_values(&self) -> Vec<(String, u64)> {
        values(&read(&self.inner).counters, Counter::get)
    }

    /// Snapshot of all gauges, sorted by name.
    pub(crate) fn gauge_values(&self) -> Vec<(String, i64)> {
        values(&read(&self.inner).gauges, Gauge::get)
    }

    /// Snapshot of all histograms, sorted by name.
    pub fn histogram_values(&self) -> Vec<(String, HistogramSnapshot)> {
        values(&read(&self.inner).histograms, Histogram::snapshot)
    }
}

/// The metric under `name` in `map`, registered first if new.
fn registered<T: Clone + Default>(map: &mut BTreeMap<String, T>, name: &str) -> T {
    map.entry(name.to_owned()).or_default().clone()
}

/// `(name, value)` of every metric in `map`, sorted by name.
fn values<T, V>(map: &BTreeMap<String, T>, value: impl Fn(&T) -> V) -> Vec<(String, V)> {
    map.iter()
        .map(|(name, m)| (name.clone(), value(m)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_are_shared_by_name() {
        let hub = MetricsHub::new();
        let a = hub.counter("events");
        let b = hub.counter("events");
        a.inc();
        b.add(2);
        assert_eq!(hub.counter("events").get(), 3);
    }

    #[test]
    fn micros_counter_carries_the_sub_microsecond_rest() {
        let hub = MetricsHub::new();
        let busy = MicrosCounter::new(hub.counter("busy_micros"));
        let mut truncated = 0;
        for _ in 0..1_000 {
            let round = Duration::from_nanos(900);
            busy.add(round);
            truncated += round.as_micros() as u64;
        }
        assert_eq!(hub.counter("busy_micros").get(), 900);
        assert_eq!(truncated, 0, "what adding whole microseconds books");
        busy.add(Duration::from_micros(3));
        assert_eq!(hub.counter("busy_micros").get(), 903);
    }

    #[test]
    fn gauges_set_and_add() {
        let hub = MetricsHub::new();
        let g = hub.gauge("queue");
        g.set(10);
        g.add(-3);
        assert_eq!(hub.gauge("queue").get(), 7);
    }

    #[test]
    fn snapshots_are_sorted() {
        let hub = MetricsHub::new();
        hub.counter("zeta").add(1);
        hub.counter("alpha").add(2);
        hub.gauge("mid").set(5);
        let counters = hub.counter_values();
        assert_eq!(counters, [("alpha".to_owned(), 2), ("zeta".to_owned(), 1)]);
        assert_eq!(hub.gauge_values(), [("mid".to_owned(), 5)]);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let hub = MetricsHub::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = hub.counter("hits");
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hub.counter("hits").get(), 80_000);
    }

    #[test]
    fn cloned_hub_shares_registry() {
        let hub = MetricsHub::new();
        let clone = hub.clone();
        hub.counter("x").inc();
        assert_eq!(clone.counter("x").get(), 1);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 6, 7, 100, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.buckets[0], 1); // {0}
        assert_eq!(snap.buckets[1], 2); // {1, 2}
        assert_eq!(snap.buckets[2], 2); // {3..=6}
        assert_eq!(snap.buckets[3], 1); // {7..=14}
        assert_eq!(snap.buckets[6], 1); // {63..=126}
        assert_eq!(snap.buckets[63], 1); // top bucket
    }

    #[test]
    fn histogram_mean_and_quantiles() {
        let h = Histogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert!((snap.mean() - 49.5).abs() < 1e-9);
        // The median of 0..100 is ~50; the p50 bucket upper bound must be
        // at least that and within one power of two.
        let p50 = snap.quantile_upper_bound(0.5);
        assert!((50..=126).contains(&p50), "p50 bound {p50}");
        assert!(snap.quantile_upper_bound(1.0) >= 99);
        let empty = Histogram::new().snapshot();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.quantile_upper_bound(0.9), 0);
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        // Regression: `sum` used `fetch_add`, so the second sample here
        // wrapped the sum around to ~89 and the mean collapsed to ~44
        // with no indication anything was wrong.
        let h = Histogram::new();
        h.record(u64::MAX - 10);
        h.record(100);
        let snap = h.snapshot();
        assert_eq!(snap.sum, u64::MAX, "sum must clamp at u64::MAX");
        assert!(snap.saturated, "overflow must be flagged");
        assert!(
            snap.mean() > 1e18,
            "mean must stay a large lower bound, got {}",
            snap.mean()
        );
        // A histogram that never overflows stays unflagged.
        let clean = Histogram::new();
        clean.record(5);
        clean.record(7);
        let snap = clean.snapshot();
        assert!(!snap.saturated);
        assert_eq!(snap.sum, 12);
    }

    #[test]
    fn histograms_shared_by_name_and_thread_safe() {
        let hub = MetricsHub::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = hub.histogram("lat");
            handles.push(thread::spawn(move || {
                for v in 0..1_000u64 {
                    h.record(v);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        let values = hub.histogram_values();
        assert_eq!(values.len(), 1);
        assert_eq!(values[0].1.count, 4_000);
    }
}
