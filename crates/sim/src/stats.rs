//! Measurement primitives: counters and log-bucketed latency histograms.

/// A named monotonically increasing counter.
#[derive(Debug, Default, Clone)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Resets to zero and returns the previous value.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.value)
    }
}

const SUB_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BITS; // 32 linear sub-buckets per power of two
const GROUPS: usize = 64;

/// A log-bucketed histogram of `u64` samples (HDR-style).
///
/// Values are classified by their leading bit into 64 magnitude groups, each
/// split into 32 linear sub-buckets, giving a worst-case relative error of
/// about 3% on reported quantiles — ample for latency distributions while
/// using a fixed 16 KiB of memory regardless of sample count.
#[derive(Clone)]
pub struct Histogram {
    buckets: Box<[u64; GROUPS * SUB_BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new([0; GROUPS * SUB_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let group = 63 - value.leading_zeros(); // position of the leading bit
        let shift = group - SUB_BITS;
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        ((group - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// Representative (lower-bound) value of bucket `idx`.
    fn value_of(idx: usize) -> u64 {
        let group = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if group == 0 {
            sub
        } else {
            let shift = (group - 1) as u32;
            ((SUB_BUCKETS as u64) + sub) << shift
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `p`-quantile, `p` in `[0, 1]`. Returns the exact `max` for
    /// `p = 1.0`. Empty histograms report 0.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p >= 1.0 {
            return self.max;
        }
        let target = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_of(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// One-line summary of the distribution.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram({:?})", self.summary())
    }
}

/// Point-in-time digest of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub mean: f64,
    pub min: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.add(1);
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.quantile(1.0), 31);
        // Sub-32 values are stored exactly; the 16th of 32 samples is 15.
        assert_eq!(h.quantile(0.5), 15);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        // Uniform over [1, 1_000_000].
        for v in (1..=1_000_000u64).step_by(17) {
            h.record(v);
        }
        for &(p, expect) in &[(0.5, 500_000.0), (0.95, 950_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(p) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.05, "p={p} got={got} expect={expect} err={err}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.mean(), 25.0);
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
        assert!(h.quantile(0.99) >= h.quantile(0.5));
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = Histogram::new();
        h.record(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn index_value_roundtrip_is_monotonic() {
        let mut last = 0;
        for i in 0..(GROUPS - SUB_BITS as usize) * SUB_BUCKETS / 2 {
            let v = Histogram::value_of(i);
            assert!(v >= last, "bucket values must be non-decreasing");
            last = v;
            // The representative value must map back into the same bucket.
            assert_eq!(Histogram::index_of(v), i, "v={v}");
        }
    }
}
