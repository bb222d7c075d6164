//! Statistics helpers used by the workload monitor and the benchmark
//! harness (means, standard deviations, quantiles, fixed-resolution
//! latency histograms).
//!
//! Quantiles and histograms delegate to `esdb-telemetry`, which owns the
//! single codebase-wide interpolation rule (see
//! `esdb_telemetry::histogram`): exact sample sets interpolate linearly
//! between order statistics; bucketed histograms report the inclusive
//! upper bound of the first bucket whose cumulative count reaches
//! `ceil(q · n)`, clamped to the recorded max.

use esdb_telemetry::HistogramSnapshot;

pub use esdb_telemetry::{quantile, quantile_sorted};

/// Requests a serving layer rejected before they reached the engine,
/// broken down by the reason taxonomy the network front-end enforces.
/// The embedded API never rejects (all four stay 0 there); the server
/// fills these so the work-conservation invariant
/// `issued == admitted + rejected.total()` extends through the network
/// layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectedCounts {
    /// Authentication/authorization failures (unknown token, tenant
    /// mismatch, non-admin on an admin endpoint).
    pub auth: u64,
    /// Per-tenant in-flight quota exceeded.
    pub quota: u64,
    /// Per-tenant token-bucket rate limit exceeded.
    pub rate: u64,
    /// Shed under overload as one of the hottest tenants.
    pub shed: u64,
}

impl RejectedCounts {
    /// Total rejected requests across all reasons.
    pub fn total(&self) -> u64 {
        self.auth + self.quota + self.rate + self.shed
    }
}

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Mean of a slice (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation of a slice.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// A latency histogram for p50/p90/p99/p999 reporting without storing
/// every sample. Thin microsecond-unit wrapper over the telemetry
/// crate's log-bucketed [`HistogramSnapshot`] (16 sub-buckets per power
/// of two, ≤6.25% relative bucket width).
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    inner: HistogramSnapshot,
}

impl LatencyHistogram {
    /// Empty histogram covering the full `u64` microsecond range.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency observation in microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.inner.record(us);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.inner.mean()
    }

    /// Maximum recorded latency in microseconds.
    pub fn max_us(&self) -> u64 {
        self.inner.max()
    }

    /// Approximate `q`-quantile in microseconds (the canonical bucketed
    /// rule from `esdb_telemetry::histogram`).
    pub fn quantile_us(&self, q: f64) -> u64 {
        self.inner.quantile(q)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.inner.merge(&other.inner);
    }

    /// The underlying telemetry snapshot.
    pub fn snapshot(&self) -> &HistogramSnapshot {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_batch() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0];
        let mut o = OnlineStats::new();
        for &x in &xs {
            o.push(x);
        }
        assert!((o.mean() - mean(&xs)).abs() < 1e-12);
        assert!((o.stddev() - stddev(&xs)).abs() < 1e-12);
        assert_eq!(o.min(), Some(1.0));
        assert_eq!(o.max(), Some(10.0));
        assert_eq!(o.count(), 5);
    }

    #[test]
    fn online_stats_merge_equals_combined() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let (a, b) = xs.split_at(37);
        let mut sa = OnlineStats::new();
        let mut sb = OnlineStats::new();
        for &x in a {
            sa.push(x);
        }
        for &x in b {
            sb.push(x);
        }
        sa.merge(&sb);
        assert!((sa.mean() - mean(&xs)).abs() < 1e-9);
        assert!((sa.stddev() - stddev(&xs)).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let o = OnlineStats::new();
        assert_eq!(o.mean(), 0.0);
        assert_eq!(o.stddev(), 0.0);
        assert_eq!(o.min(), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = LatencyHistogram::new();
        for us in 1..=10_000u64 {
            h.record_us(us);
        }
        let p50 = h.quantile_us(0.5) as f64;
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.06, "p50 = {p50}");
        let p99 = h.quantile_us(0.99) as f64;
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.06, "p99 = {p99}");
        assert_eq!(h.max_us(), 10_000);
        assert!((h.mean_us() - 5000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_us(10);
        b.record_us(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_us(), 1000);
    }
}
