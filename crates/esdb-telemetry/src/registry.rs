//! The sharded, lock-free-on-the-hot-path metrics registry.
//!
//! Metrics are identified by a `&'static str` name plus a small
//! fixed-shape [`Labels`] set (`tenant`, `shard`, `node`, `stage`) —
//! exactly the axes the paper's evaluation slices by (Figs. 13/14).
//! Registration (first touch of a name+labels pair) takes a striped
//! `RwLock`; every update after that is a relaxed atomic on a handle
//! (`Arc<Counter>` etc.) the caller caches, or a single read-lock +
//! hash probe for callers whose label values vary per operation
//! ([`MetricsRegistry::add`]).

use crate::histogram::Histogram;
use crate::json::{obj, Json};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Fixed label set for a metric series. All fields optional; unset
/// fields are omitted from exposition. Fixed shape keeps the hot-path
/// key `Copy` and hashable without allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Labels {
    /// Tenant the sample belongs to.
    pub tenant: Option<u64>,
    /// Physical shard.
    pub shard: Option<u32>,
    /// Node (paper's per-node throughput/delay axes).
    pub node: Option<u32>,
    /// Pipeline stage (span stage taxonomy).
    pub stage: Option<&'static str>,
}

impl Labels {
    /// No labels.
    pub const fn none() -> Labels {
        Labels {
            tenant: None,
            shard: None,
            node: None,
            stage: None,
        }
    }

    /// Labels with only `tenant` set.
    pub const fn tenant(t: u64) -> Labels {
        Labels {
            tenant: Some(t),
            ..Labels::none()
        }
    }

    /// Labels with only `shard` set.
    pub const fn shard(s: u32) -> Labels {
        Labels {
            shard: Some(s),
            ..Labels::none()
        }
    }

    /// Labels with only `node` set.
    pub const fn node(n: u32) -> Labels {
        Labels {
            node: Some(n),
            ..Labels::none()
        }
    }

    /// Labels with only `stage` set.
    pub const fn stage(s: &'static str) -> Labels {
        Labels {
            stage: Some(s),
            ..Labels::none()
        }
    }

    /// Returns a copy with `shard` set.
    pub const fn with_shard(mut self, s: u32) -> Labels {
        self.shard = Some(s);
        self
    }

    /// The set labels as one object, in `tenant, shard, node, stage`
    /// order (the Prometheus label order).
    pub(crate) fn to_json(self) -> Json {
        let mut members = Vec::new();
        if let Some(t) = self.tenant {
            members.push(("tenant", t.into()));
        }
        if let Some(s) = self.shard {
            members.push(("shard", s.into()));
        }
        if let Some(n) = self.node {
            members.push(("node", n.into()));
        }
        if let Some(st) = self.stage {
            members.push(("stage", st.into()));
        }
        obj(members)
    }
}

/// Monotone counter. Updates are relaxed atomic adds.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous gauge (signed). Updates are relaxed atomics.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A registered metric of any kind.
#[derive(Debug, Clone)]
pub(crate) enum Metric {
    /// Monotone counter.
    Counter(Arc<Counter>),
    /// Instantaneous gauge.
    Gauge(Arc<Gauge>),
    /// Log-bucketed histogram.
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// FxHash (the Firefox/rustc hash): one rotate+xor+multiply per word.
/// Re-implemented here (rather than using `esdb-common`'s) because the
/// telemetry crate sits *below* esdb-common in the dependency graph.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;
type Key = (&'static str, Labels);

const STRIPES: usize = 16;

/// The registry: [`STRIPES`] independently-locked maps from
/// `(name, labels)` to a metric. Get-or-register takes a read lock
/// (write lock only on first registration); updates through returned
/// handles touch no lock at all.
pub struct MetricsRegistry {
    stripes: Vec<RwLock<HashMap<Key, Metric, FxBuild>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            stripes: (0..STRIPES)
                .map(|_| RwLock::new(HashMap::default()))
                .collect(),
        }
    }

    #[inline]
    fn stripe(&self, key: &Key) -> &RwLock<HashMap<Key, Metric, FxBuild>> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.stripes[(h.finish() as usize) & (STRIPES - 1)]
    }

    fn get_or_register(
        &self,
        name: &'static str,
        labels: Labels,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let key = (name, labels);
        let stripe = self.stripe(&key);
        if let Some(m) = stripe.read().expect("registry stripe").get(&key) {
            return m.clone();
        }
        let mut map = stripe.write().expect("registry stripe");
        map.entry(key).or_insert_with(make).clone()
    }

    /// Handle to the counter `name{labels}`, registering it on first use.
    /// Panics if the series is already registered with a different type.
    pub fn counter(&self, name: &'static str, labels: Labels) -> Arc<Counter> {
        match self.get_or_register(name, labels, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            m => panic!("{name} is a {}, not a counter", m.kind()),
        }
    }

    /// Handle to the gauge `name{labels}`.
    pub fn gauge(&self, name: &'static str, labels: Labels) -> Arc<Gauge> {
        match self.get_or_register(name, labels, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            m => panic!("{name} is a {}, not a gauge", m.kind()),
        }
    }

    /// Handle to the histogram `name{labels}`.
    pub fn histogram(&self, name: &'static str, labels: Labels) -> Arc<Histogram> {
        match self.get_or_register(name, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            m => panic!("{name} is a {}, not a histogram", m.kind()),
        }
    }

    /// Counter fast path for callers whose label values vary per
    /// operation (e.g. the workload monitor's per-tenant counters):
    /// one hash + read-lock probe + relaxed add, no `Arc` refcount
    /// traffic. Falls back to registration on first touch.
    #[inline]
    pub fn add(&self, name: &'static str, labels: Labels, delta: u64) {
        let key = (name, labels);
        let stripe = self.stripe(&key);
        if let Some(Metric::Counter(c)) = stripe.read().expect("registry stripe").get(&key) {
            c.add(delta);
            return;
        }
        self.counter(name, labels).add(delta);
    }

    /// Histogram fast path: one probe + record, registering on miss.
    #[inline]
    pub fn observe(&self, name: &'static str, labels: Labels, v: u64) {
        let key = (name, labels);
        let stripe = self.stripe(&key);
        if let Some(Metric::Histogram(h)) = stripe.read().expect("registry stripe").get(&key) {
            h.record(v);
            return;
        }
        self.histogram(name, labels).record(v);
    }

    /// Current value of a counter (0 if unregistered).
    pub fn counter_value(&self, name: &'static str, labels: Labels) -> u64 {
        let key = (name, labels);
        match self.stripe(&key).read().expect("registry stripe").get(&key) {
            Some(Metric::Counter(c)) => c.get(),
            _ => 0,
        }
    }

    /// Every series of counter `name`, as `(labels, value)` pairs in
    /// unspecified order. The workload monitor's period reports are
    /// built from this.
    pub fn counters_with(&self, name: &'static str) -> Vec<(Labels, u64)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            for (&(n, labels), m) in stripe.read().expect("registry stripe").iter() {
                if n == name {
                    if let Metric::Counter(c) = m {
                        out.push((labels, c.get()));
                    }
                }
            }
        }
        out
    }

    /// Every registered series, sorted by `(name, labels)` so snapshots
    /// are deterministic.
    pub(crate) fn series(&self) -> Vec<(&'static str, Labels, Metric)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            for (&(name, labels), m) in stripe.read().expect("registry stripe").iter() {
                out.push((name, labels, m.clone()));
            }
        }
        out.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n: usize = self
            .stripes
            .iter()
            .map(|s| s.read().expect("registry stripe").len())
            .sum();
        f.debug_struct("MetricsRegistry")
            .field("series", &n)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_series() {
        let r = MetricsRegistry::new();
        let a = r.counter("esdb_test_total", Labels::tenant(1));
        let b = r.counter("esdb_test_total", Labels::tenant(2));
        a.add(5);
        b.add(7);
        r.add("esdb_test_total", Labels::tenant(1), 3);
        assert_eq!(r.counter_value("esdb_test_total", Labels::tenant(1)), 8);
        assert_eq!(r.counter_value("esdb_test_total", Labels::tenant(2)), 7);
        let mut all = r.counters_with("esdb_test_total");
        all.sort();
        assert_eq!(all, vec![(Labels::tenant(1), 8), (Labels::tenant(2), 7)]);
    }

    #[test]
    fn same_series_returns_same_handle() {
        let r = MetricsRegistry::new();
        let a = r.counter("esdb_x_total", Labels::none());
        let b = r.counter("esdb_x_total", Labels::none());
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn gauges_and_histograms_register() {
        let r = MetricsRegistry::new();
        r.gauge("esdb_g", Labels::none()).set(-3);
        assert_eq!(r.gauge("esdb_g", Labels::none()).get(), -3);
        r.observe("esdb_h_ns", Labels::stage("route"), 1000);
        assert_eq!(r.histogram("esdb_h_ns", Labels::stage("route")).count(), 1);
        assert_eq!(r.series().len(), 2);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn type_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("esdb_dup", Labels::none());
        r.gauge("esdb_dup", Labels::none());
    }

    #[test]
    fn concurrent_updates_sum_exactly() {
        let r = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    let c = r.counter("esdb_conc_total", Labels::none());
                    let h = r.histogram("esdb_conc_ns", Labels::none());
                    for i in 0..per {
                        c.inc();
                        h.record(t * per + i);
                    }
                });
            }
        });
        assert_eq!(
            r.counter_value("esdb_conc_total", Labels::none()),
            threads * per
        );
        let s = r.histogram("esdb_conc_ns", Labels::none()).snapshot();
        assert_eq!(s.count(), threads * per);
    }
}
