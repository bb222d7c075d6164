//! Frequency-based sub-attribute indexing (paper §3.2, §6.3.3).
//!
//! The "attributes" column carries ~1500 distinct sub-attribute names whose
//! read/write frequencies are heavily skewed (the top 30 appear in ~50% of
//! workloads). Indexing all of them is prohibitive; ESDB tracks usage
//! frequency and indexes only the top-k. This tracker counts occurrences in
//! both write and query workloads and exposes the current top-k set.

use esdb_common::fastmap::{fast_map, fast_set, FastMap, FastSet};

/// Counts sub-attribute usage and ranks the hottest.
#[derive(Debug, Default)]
pub struct AttrFrequencyTracker {
    counts: FastMap<String, u64>,
    total: u64,
}

impl AttrFrequencyTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        AttrFrequencyTracker {
            counts: fast_map(),
            total: 0,
        }
    }

    /// Records one use of sub-attribute `name` (a write carrying it or a
    /// query filtering on it).
    pub fn record(&mut self, name: &str) {
        if let Some(c) = self.counts.get_mut(name) {
            *c += 1;
        } else {
            self.counts.insert(name.to_string(), 1);
        }
        self.total += 1;
    }

    /// Records every sub-attribute of a write.
    pub fn record_write<'a>(&mut self, attrs: impl IntoIterator<Item = &'a (String, String)>) {
        for (name, _) in attrs {
            self.record(name);
        }
    }

    /// The current top-k sub-attribute names (ties broken by name for
    /// determinism).
    pub fn top_k(&self, k: usize) -> FastSet<String> {
        let mut v: Vec<(&String, &u64)> = self.counts.iter().collect();
        v.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let mut out = fast_set();
        for (name, _) in v.into_iter().take(k) {
            out.insert(name.clone());
        }
        out
    }

    /// Fraction of total occurrences covered by the top-k set (the paper
    /// reports top-30 covering ~50%).
    pub fn coverage(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let top = self.top_k(k);
        let covered: u64 = self
            .counts
            .iter()
            .filter(|(n, _)| top.contains(*n))
            .map(|(_, c)| *c)
            .sum();
        covered as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_by_frequency() {
        let mut t = AttrFrequencyTracker::new();
        for _ in 0..10 {
            t.record("activity");
        }
        for _ in 0..5 {
            t.record("size");
        }
        t.record("material");
        let top2 = t.top_k(2);
        assert!(top2.contains("activity") && top2.contains("size"));
        assert!(!top2.contains("material"));
        assert_eq!(t.counts.len(), 3);
        assert_eq!(t.total, 16);
    }

    #[test]
    fn coverage_fraction() {
        let mut t = AttrFrequencyTracker::new();
        for _ in 0..50 {
            t.record("a");
        }
        for _ in 0..50 {
            t.record("b");
        }
        assert!((t.coverage(1) - 0.5).abs() < 1e-12);
        assert!((t.coverage(2) - 1.0).abs() < 1e-12);
        assert_eq!(AttrFrequencyTracker::new().coverage(5), 0.0);
    }

    #[test]
    fn record_write_counts_all_attrs() {
        let mut t = AttrFrequencyTracker::new();
        let attrs = vec![
            ("a".to_string(), "1".to_string()),
            ("b".to_string(), "2".to_string()),
        ];
        t.record_write(&attrs);
        assert_eq!(t.total, 2);
    }

    #[test]
    fn zipf_skew_matches_paper_shape() {
        // With Zipf(θ=1)-distributed sub-attribute usage over 1500 names,
        // the top 30 should cover a large share (paper: ~50%).
        let mut t = AttrFrequencyTracker::new();
        let z = esdb_common::zipf::ZipfSampler::new(1500, 1.0);
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100_000 {
            let rank = z.sample(&mut rng);
            t.record(&format!("attr_{rank}"));
        }
        let cov = t.coverage(30);
        assert!(cov > 0.4 && cov < 0.7, "top-30 coverage {cov}");
    }
}
