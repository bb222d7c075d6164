//! Log-bucketed latency histograms.
//!
//! Bucketing is log-linear (HdrHistogram style): 16 linear sub-buckets
//! per power of two, giving a worst-case relative bucket width of 1/16
//! (6.25%) and ~4.4% geometric-mean resolution — the "~5% resolution"
//! the telemetry layer promises. The full `u64` range maps onto
//! [`BUCKETS`] = 976 buckets, and the bucket index is computed with a
//! couple of shifts and a `leading_zeros` — no floats, no binary search —
//! so the atomic [`Histogram`] hot path is one index computation plus
//! three relaxed atomic adds.
//!
//! # The one interpolation rule
//!
//! Every quantile reported from a *bucketed* histogram in this codebase
//! uses the same rule: the `q`-quantile is the **inclusive upper bound of
//! the first bucket whose cumulative count reaches `ceil(q · n)`**,
//! clamped to the recorded maximum. Quantiles over *exact* sample sets
//! (e.g. per-figure delay vectors in the bench harness) use
//! [`quantile_sorted`]'s linear interpolation between neighboring order
//! statistics. Both live here so no other crate re-derives its own rule.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-bucket bits per power of two.
const SUB_BITS: u32 = 4;
/// Sub-buckets per power of two (16).
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`.
pub const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS as usize; // 976

/// Bucket index for a value. Values below [`SUB`] get exact (width-1)
/// buckets; larger values land in one of 16 equal-width sub-buckets of
/// their power-of-two range.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let base = ((msb - SUB_BITS + 1) as usize) << SUB_BITS;
        base + ((v >> (msb - SUB_BITS)) - SUB) as usize
    }
}

/// Inclusive upper bound of bucket `i` — the value quantiles report.
#[inline]
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i < SUB as usize {
        i as u64
    } else {
        let msb = (i >> SUB_BITS as usize) as u32 + SUB_BITS - 1;
        let sub = (i & (SUB as usize - 1)) as u64;
        // The top bucket's bound is 2^64 - 1; compute in u128 and clamp.
        let upper = (((SUB + sub + 1) as u128) << (msb - SUB_BITS)) - 1;
        upper.min(u64::MAX as u128) as u64
    }
}

/// Thread-safe histogram: relaxed atomics only, no locks. Record from any
/// number of threads; [`Histogram::snapshot`] produces a mergeable
/// single-threaded [`HistogramSnapshot`] for reporting.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Sum of recorded values. `u64` of nanoseconds is ~584 years.
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation (unit is the metric's convention, e.g.
    /// `_ns` / `_us` / `_ms` suffixed into the metric name).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy. Concurrent recorders may straddle the copy;
    /// per-bucket counts are each exact, aggregates may lag by in-flight
    /// records (fine for reporting).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c != 0 {
                counts.push((i as u16, c));
            }
        }
        let count = counts.iter().map(|&(_, c)| c).sum();
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed) as u128,
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish_non_exhaustive()
    }
}

/// Single-threaded, mergeable histogram with the same bucketing as
/// [`Histogram`]. Sparse: only occupied buckets are stored, sorted by
/// index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(bucket index, count)`, sorted by index, counts non-zero.
    counts: Vec<(u16, u64)>,
    count: u64,
    sum: u128,
    max: u64,
}

impl HistogramSnapshot {
    /// Empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v) as u16;
        match self.counts.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.counts[pos].1 += 1,
            Err(pos) => self.counts.insert(pos, (idx, 1)),
        }
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The canonical bucketed quantile (see module docs): inclusive upper
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(q · n)`, clamped to the recorded max.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for &(i, c) in &self.counts {
            acc += c;
            if acc >= target {
                return bucket_upper(i as usize).min(self.max);
            }
        }
        self.max
    }

    /// Merges another snapshot into this one. Associative and
    /// commutative: per-bucket counts, sums, and maxes all combine
    /// exactly, so merge order never changes any reported statistic.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged = Vec::with_capacity(self.counts.len() + other.counts.len());
        let (mut a, mut b) = (
            self.counts.iter().peekable(),
            other.counts.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, cb));
                        b.next();
                    } else {
                        merged.push((ia, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.counts = merged;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Occupied buckets as `(inclusive upper bound, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .map(|&(i, c)| (bucket_upper(i as usize), c))
    }
}

/// Quantile via linear interpolation on a *sorted* slice of exact
/// samples. `q` in `[0,1]`. This is the second half of the codebase-wide
/// interpolation rule (see module docs): exact sample sets interpolate
/// linearly between order statistics; bucketed histograms report bucket
/// upper bounds.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Sorts a copy of `xs` and returns the `q`-quantile per
/// [`quantile_sorted`].
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    quantile_sorted(&v, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_upper_are_consistent() {
        // Every value maps into a bucket whose upper bound is >= the
        // value, and the previous bucket's upper bound is < the value.
        let probes: Vec<u64> = (0..200)
            .chain([
                1_000,
                65_535,
                65_536,
                1 << 40,
                u64::MAX / 2,
                u64::MAX - 1,
                u64::MAX,
            ])
            .collect();
        for v in probes {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            assert!(bucket_upper(i) >= v, "upper({i}) < {v}");
            if i > 0 {
                assert!(bucket_upper(i - 1) < v, "upper({}) >= {v}", i - 1);
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_resolution_within_one_sixteenth() {
        for i in (SUB as usize)..BUCKETS - 1 {
            let hi = bucket_upper(i) as f64;
            let lo = bucket_upper(i - 1) as f64 + 1.0;
            let width = hi - lo + 1.0;
            assert!(width / lo <= 1.0 / 16.0 + 1e-9, "bucket {i} too wide");
        }
    }

    #[test]
    fn atomic_and_snapshot_agree() {
        let h = Histogram::new();
        let mut s = HistogramSnapshot::new();
        for v in [0u64, 1, 15, 16, 17, 1000, 123_456] {
            h.record(v);
            s.record(v);
        }
        assert_eq!(h.snapshot(), s);
        // u64::MAX lands in the top bucket (its sum would wrap the
        // atomic u64 accumulator, so it is checked via counts only).
        h.record(u64::MAX);
        assert_eq!(h.snapshot().max(), u64::MAX);
        assert_eq!(h.snapshot().count(), 8);
    }

    #[test]
    fn quantiles_track_uniform_data() {
        let mut s = HistogramSnapshot::new();
        for v in 1..=10_000u64 {
            s.record(v);
        }
        for (q, expect) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = s.quantile(q) as f64;
            assert!(
                (got - expect).abs() / expect < 0.0626,
                "q{q}: got {got}, want ~{expect}"
            );
        }
        assert_eq!(s.quantile(1.0), 10_000);
        assert!((s.mean() - 5_000.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_clamps_to_max() {
        let mut s = HistogramSnapshot::new();
        s.record(1_000_000); // bucket upper bound is above the value
        assert_eq!(s.quantile(0.99), 1_000_000);
    }

    #[test]
    fn merge_is_exact_and_commutative() {
        let mut a = HistogramSnapshot::new();
        let mut b = HistogramSnapshot::new();
        let mut all = HistogramSnapshot::new();
        for v in 0..500u64 {
            let x = v * v % 7_777;
            if v % 3 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            all.record(x);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all);
    }

    #[test]
    fn exact_quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }
}
