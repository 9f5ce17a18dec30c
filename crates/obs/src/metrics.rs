//! Monotonic counters, gauges and log-bucketed duration histograms.
//!
//! Everything here is plain single-threaded state: the chase runners are
//! single-threaded at the observer boundary (worker threads report through
//! the runner, never directly), so no atomics are needed and recording a
//! sample is a few arithmetic instructions.

use std::collections::BTreeMap;
use std::time::Duration;

/// Number of power-of-two buckets: bucket `i` holds samples with
/// `floor(log2(ns)) == i - 1`, bucket 0 holds zero-duration samples. 64
/// buckets cover every representable `u64` nanosecond count (≈ 584 years).
const BUCKETS: usize = 64;

/// A fixed-size histogram over durations with power-of-two bucket widths.
///
/// Quantiles are approximate (resolution is one octave — the reported value
/// is the upper bound of the bucket containing the quantile) but `count`,
/// `sum` and `max` are exact. This is the classic trade-off used by
/// HdrHistogram-style recorders: constant memory, O(1) insert, and quantile
/// error bounded by 2×.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: Duration,
    max: Duration,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_index(nanos: u64) -> usize {
    (64 - nanos.leading_zeros()) as usize
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: Duration::ZERO,
            max: Duration::ZERO,
        }
    }

    pub fn record(&mut self, sample: Duration) {
        let nanos = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        let index = bucket_index(nanos).min(BUCKETS - 1);
        self.buckets[index] += 1;
        self.count += 1;
        self.sum += sample;
        if sample > self.max {
            self.max = sample;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> Duration {
        self.sum
    }

    /// Exact maximum of all recorded samples.
    pub fn max(&self) -> Duration {
        self.max
    }

    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.sum / u32::try_from(self.count).unwrap_or(u32::MAX)
        }
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`), clamped to the exact max. Zero if empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        // rank = smallest r such that r samples are <= the answer.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if index == 0 {
                    Duration::ZERO
                } else {
                    Duration::from_nanos(1u64.checked_shl(index as u32).unwrap_or(u64::MAX))
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }
}

/// A named collection of counters, gauges and histograms.
///
/// Names are plain strings; the registry imposes no hierarchy. `BTreeMap`
/// keeps iteration (and therefore serialised output) deterministic.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments a monotonic counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increments a monotonic counter by `delta`.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(existing) = self.counters.get_mut(name) {
            *existing += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to an absolute value.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records one duration sample into the named histogram.
    pub fn record(&mut self, name: &str, sample: Duration) {
        if let Some(existing) = self.histograms.get_mut(name) {
            existing.record(sample);
        } else {
            let mut h = Histogram::new();
            h.record(sample);
            self.histograms.insert(name.to_string(), h);
        }
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_count_sum_max_exactly() {
        let mut h = Histogram::new();
        for ms in [1u64, 2, 3, 100] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), Duration::from_millis(106));
        assert_eq!(h.max(), Duration::from_millis(100));
        assert_eq!(h.mean(), Duration::from_micros(26_500));
    }

    #[test]
    fn quantiles_are_within_one_octave() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(Duration::from_nanos(1_000));
        }
        h.record(Duration::from_millis(10));
        // p50 falls in the 1µs bucket: upper bound is 1024ns.
        assert!(h.p50() >= Duration::from_nanos(1_000));
        assert!(h.p50() <= Duration::from_nanos(2_048));
        // p95 still in the small bucket; p100 == max exactly.
        assert!(h.p95() <= Duration::from_nanos(2_048));
        assert_eq!(h.quantile(1.0), Duration::from_millis(10));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn zero_duration_samples_land_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), Duration::ZERO);
    }

    #[test]
    fn registry_counters_and_gauges() {
        let mut reg = MetricsRegistry::new();
        reg.inc("steps");
        reg.add("steps", 4);
        reg.set_gauge("facts", 17);
        reg.set_gauge("facts", 23);
        assert_eq!(reg.counter("steps"), 5);
        assert_eq!(reg.counter("untouched"), 0);
        assert_eq!(reg.gauge("facts"), Some(23));
        assert_eq!(reg.gauge("untouched"), None);
        let names: Vec<&str> = reg.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["steps"]);
    }
}
