//! Measurement plumbing: histograms and counters.
//!
//! The paper reports mean latency (Table II, Figs. 3a/4a), throughput in
//! MB/s (Figs. 3b/4b/6/8) and KIOPS (Figs. 7/9).  [`Histogram`] is an
//! HDR-style log-linear histogram good to ~1 % relative error across
//! nanoseconds-to-minutes, cheap enough to record every simulated I/O.

use crate::time::SimDuration;

/// Log-linear latency histogram (HDR-histogram layout: buckets double in
/// width, each with `SUB_BUCKETS` linear sub-buckets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

/// Linear region: values `[0, 64)` get unit-width buckets.  Beyond that,
/// each doubling `[64·2^(k-1), 64·2^k)` is split into 32 sub-buckets of
/// width `2^k`, bounding relative error by `1/32 ≈ 3.1 %`.
const LINEAR: u64 = 64;
const SUBS: u64 = 32;
/// 58 log segments cover the full u64 range.
const SEGMENTS: u64 = 58;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; (LINEAR + SEGMENTS * SUBS) as usize],
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < LINEAR {
            return v as usize;
        }
        let b = 63 - v.leading_zeros() as u64; // floor(log2 v), ≥ 6
        let k = b - 5; // log segment number, ≥ 1
        let sub = v >> k; // in [32, 64)
        (LINEAR + (k - 1) * SUBS + (sub - SUBS)) as usize
    }

    fn bucket_value(index: usize) -> u64 {
        let index = index as u64;
        if index < LINEAR {
            return index;
        }
        let k = (index - LINEAR) / SUBS + 1;
        let sub = (index - LINEAR) % SUBS + SUBS;
        sub << k
    }

    /// Record one duration.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let idx = Self::index(ns).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.total as f64
        }
    }

    /// Mean in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / 1_000.0
    }

    /// Approximate quantile (`q` in `[0, 1]`) in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i);
            }
        }
        self.max_ns
    }

    /// p99 latency in microseconds — the paper quotes a 49 µs p99
    /// comparison against Electrode (§VI).
    pub fn p99_us(&self) -> f64 {
        self.quantile_ns(0.99) as f64 / 1_000.0
    }

    /// Interpolated quantile (`q` in `[0, 1]`) in nanoseconds.
    ///
    /// Unlike [`Histogram::quantile_ns`], which answers with the lower
    /// bound of the bucket holding the target rank, this interpolates
    /// linearly *within* the sub-bucket by the fraction of the bucket's
    /// population below the rank, then clamps to the observed
    /// `[min, max]`.  Error stays bounded by one sub-bucket width
    /// (`value/32` beyond the linear region, 1 ns inside it), and the
    /// estimate is exact for every quantile of a single-valued
    /// distribution — which is what makes the p50 ≈ mean sanity check
    /// on near-constant stage costs meaningful.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lo = Self::bucket_value(i);
                let hi = if i + 1 < self.counts.len() {
                    Self::bucket_value(i + 1)
                } else {
                    lo + 1
                };
                let frac = (target - seen) as f64 / c as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return est.clamp(self.min_ns as f64, self.max_ns as f64);
            }
            seen += c;
        }
        self.max_ns as f64
    }

    /// Samples at or below `d` — the "good events" count of an SLO
    /// whose target latency is `d`.  Counted on bucket granularity:
    /// every sample in the bucket holding `d` counts as good, matching
    /// the resolution [`Histogram::record`] stored it at.
    pub(crate) fn count_le(&self, d: SimDuration) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let idx = Self::index(d.as_nanos()).min(self.counts.len() - 1);
        self.counts[..=idx].iter().sum()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Monotonic counter with byte accounting, used per operation class.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter {
    ops: u64,
    bytes: u64,
}

impl Counter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one operation of `bytes` payload.
    pub fn record(&mut self, bytes: u64) {
        self.ops += 1;
        self.bytes += bytes;
    }

    /// Operations recorded.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Operations per second over a window.
    pub fn iops(&self, window: SimDuration) -> f64 {
        let s = window.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.ops as f64 / s
        }
    }

    /// Throughput in MB/s (decimal MB, matching fio's default reporting
    /// which the paper uses).
    pub fn mbps(&self, window: SimDuration) -> f64 {
        let s = window.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.bytes as f64 / 1e6 / s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        for us in [10u64, 20, 30] {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean_us() - 20.0).abs() < 1e-9);
        assert_eq!(h.min_ns, 10_000);
        assert_eq!(h.max_ns, 30_000);
    }

    #[test]
    fn histogram_quantiles_within_bucket_error() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(SimDuration::from_nanos(i));
        }
        let p50 = h.quantile_ns(0.5) as f64;
        let p99 = h.quantile_ns(0.99) as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.05, "p50={p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.05, "p99={p99}");
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.quantile_ns(0.5), 0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_micros(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean_us() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_wide_range() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(1));
        h.record(SimDuration::from_secs(100));
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_ns, 100_000_000_000);
    }

    #[test]
    fn counter_rates() {
        let mut c = Counter::new();
        for _ in 0..1000 {
            c.record(4096);
        }
        let window = SimDuration::from_secs(2);
        assert!((c.iops(window) - 500.0).abs() < 1e-9);
        let expected_mbps = 1000.0 * 4096.0 / 1e6 / 2.0;
        assert!((c.mbps(window) - expected_mbps).abs() < 1e-9);
    }

    #[test]
    fn counter_zero_window() {
        let c = Counter::new();
        assert_eq!(c.iops(SimDuration::ZERO), 0.0);
        assert_eq!(c.mbps(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn bucket_value_is_monotonic() {
        let mut last = 0;
        for i in 0..((LINEAR + SEGMENTS * SUBS) as usize) {
            let v = Histogram::bucket_value(i);
            assert!(v >= last, "bucket values must not decrease at {i}");
            last = v;
        }
    }

    #[test]
    fn interpolated_quantile_exact_for_constant_distribution() {
        let mut h = Histogram::new();
        for _ in 0..1_000 {
            h.record(SimDuration::from_nanos(9_137));
        }
        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 9_137.0, "q={q}");
        }
    }

    #[test]
    fn interpolated_quantile_tracks_uniform_ramp() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(SimDuration::from_nanos(i));
        }
        for (q, exact) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0), (0.999, 9_990.0)] {
            let est = h.quantile(q);
            let err = (est - exact).abs();
            // One sub-bucket of width exact/32 bounds the estimate.
            assert!(err <= exact / 32.0 + 1.0, "q={q} est={est} exact={exact}");
        }
    }

    #[test]
    fn interpolated_quantile_is_monotone_and_clamped() {
        let mut h = Histogram::new();
        for &v in &[10u64, 200, 3_000, 40_000, 500_000] {
            h.record(SimDuration::from_nanos(v));
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let mut last = f64::NEG_INFINITY;
        for &q in &qs {
            let est = h.quantile(q);
            assert!(est >= last, "quantile must be monotone in q ({q})");
            assert!((10.0..=500_000.0).contains(&est), "clamped to [min,max]");
            last = est;
        }
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn index_value_round_trip_error_bounded() {
        for &v in &[1u64, 7, 63, 64, 65, 1000, 4096, 1_000_000, 123_456_789] {
            let idx = Histogram::index(v);
            let back = Histogram::bucket_value(idx);
            let err = (back as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.04, "v={v} back={back} err={err}");
        }
    }
}
