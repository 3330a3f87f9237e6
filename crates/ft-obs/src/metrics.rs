//! Lock-free metric primitives: counters, gauges and power-of-two latency
//! histograms, plus the shared quantile helper used by both the ft-serve
//! stats line and the text exposition format.
//!
//! All mutation is `Ordering::Relaxed` `fetch_add`/`store` on `AtomicU64`:
//! no locks, no lost updates (see `tests/concurrency.rs`), and no ordering
//! guarantees beyond each individual cell — snapshots are advisory, which
//! is the right trade for telemetry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of latency buckets: bucket `i` covers `[2^(i−1), 2^i)` µs
/// (bucket 0 is `< 1 µs`), bucket 21 tops out at ~2 s and slower samples
/// saturate into it. Matches the scale ft-serve has used since PR 2 so
/// dashboards keep their resolution.
pub const BUCKETS: usize = 22;

/// The power-of-two µs bucket a latency sample lands in.
pub fn bucket_of_us(us: u64) -> usize {
    // 64 − leading_zeros(us) = position of the highest set bit + 1, which
    // is exactly the [2^(i−1), 2^i) bucket index; 0 µs lands in bucket 0.
    let idx = usize::try_from(64 - us.leading_zeros()).unwrap_or(BUCKETS - 1);
    idx.min(BUCKETS - 1)
}

/// The inclusive lower bound of bucket `i`, in µs (0 for bucket 0).
pub fn bucket_lower_bound_us(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1).min(63)
    }
}

/// The lower bound of the histogram bucket that crosses quantile `q`
/// (`0.0 < q <= 1.0`) of `count` samples — 0 when `count` is 0. This is
/// the single quantile implementation shared by the ft-serve stats line
/// and the exposition renderer: quantiles are bucket-resolution
/// approximations, reported as the lower edge of the crossing bucket.
pub fn quantile_lower_bound(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let threshold = ((count as f64 * q).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen = seen.saturating_add(c);
        if seen >= threshold {
            return bucket_lower_bound_us(i);
        }
    }
    bucket_lower_bound_us(BUCKETS - 1)
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter (const, so it can live in statics).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (worker counts, queue depths).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zero gauge (const, so it can live in statics).
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A power-of-two µs latency histogram with sample count and µs sum.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh all-zero histogram (const, so it can live in statics).
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }

    /// Record one sample of `us` microseconds.
    #[inline]
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of_us(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Record one sample from a [`Duration`] (saturating at `u64::MAX` µs).
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_us(duration_us(d));
    }

    /// Reset every bucket, the count and the sum to zero. Only the
    /// sliding-window ring recycles epoch slots this way (see
    /// [`crate::window`]); cumulative histograms never clear.
    pub(crate) fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_us.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket array, count and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of a [`Histogram`] at snapshot time.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (power-of-two µs buckets).
    pub buckets: [u64; BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Summed sample value in microseconds.
    pub sum_us: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum_us: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Quantile `q` as a bucket lower bound in µs (see
    /// [`quantile_lower_bound`]).
    pub fn quantile_us(&self, q: f64) -> u64 {
        quantile_lower_bound(&self.buckets, self.count, q)
    }

    /// Approximate median in µs.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.5)
    }

    /// Approximate 95th percentile in µs.
    pub fn p95_us(&self) -> u64 {
        self.quantile_us(0.95)
    }

    /// Approximate 99th percentile in µs.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    /// Mean sample in µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Accumulate another snapshot into this one, bucket-wise and
    /// saturating — how the sliding window merges its epoch slots.
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of_us(0), 0);
        assert_eq!(bucket_of_us(1), 1);
        assert_eq!(bucket_of_us(2), 2);
        assert_eq!(bucket_of_us(3), 2);
        assert_eq!(bucket_of_us(1024), 11);
        assert_eq!(bucket_of_us(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_match_bucket_of() {
        for i in 1..BUCKETS {
            let lo = bucket_lower_bound_us(i);
            assert_eq!(bucket_of_us(lo), i, "lower bound of bucket {i}");
        }
        assert_eq!(bucket_lower_bound_us(0), 0);
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = Histogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(5000));
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_us, 5200);
        assert_eq!(s.buckets.iter().sum::<u64>(), 3);
        assert!(s.p50_us() >= 64 && s.p50_us() <= 128);
        assert!(s.p95_us() >= 4096);
        assert!(s.p99_us() >= 4096);
        assert_eq!(s.mean_us(), 5200 / 3);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.p50_us(), 0);
        assert_eq!(s.p95_us(), 0);
        assert_eq!(s.p99_us(), 0);
        assert_eq!(s.mean_us(), 0);
    }

    #[test]
    fn quantile_walks_the_mass() {
        // 9 fast samples, 1 slow: p50 in the fast bucket, p99 in the slow.
        let mut buckets = [0u64; BUCKETS];
        buckets[4] = 9; // [8, 16) µs
        buckets[12] = 1; // [2048, 4096) µs
        assert_eq!(quantile_lower_bound(&buckets, 10, 0.5), 8);
        assert_eq!(quantile_lower_bound(&buckets, 10, 0.99), 2048);
        assert_eq!(quantile_lower_bound(&buckets, 10, 1.0), 2048);
    }
}
