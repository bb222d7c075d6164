//! The workload monitor (the "Monitor" component on the control layer of
//! Fig. 3): collects per-tenant, per-shard and per-node write counters over
//! a reporting period, and per-tenant storage totals.
//!
//! Counters live in an `esdb-telemetry` [`MetricsRegistry`] — by default a
//! private one, or (via [`WorkloadMonitor::with_registry`]) the same
//! registry the rest of the stack exposes through
//! `Esdb::telemetry_snapshot()`, so the balancing loop's inputs are
//! observable as `esdb_monitor_*` series. Period harvesting diffs the
//! cumulative counters against a baseline taken at the previous harvest,
//! which is what makes the counters double as externally-scrapeable
//! monotone series.

use esdb_common::fastmap::{fast_map, FastMap};
use esdb_common::{NodeId, ShardId, TenantId};
use esdb_telemetry::{Counter, Labels, MetricsRegistry};
use std::sync::{Arc, Mutex, RwLock};

/// Cumulative writes per tenant.
const TENANT_WRITES: &str = "esdb_monitor_tenant_writes_total";
/// Cumulative writes per shard.
const SHARD_WRITES: &str = "esdb_monitor_shard_writes_total";
/// Cumulative writes per node.
const NODE_WRITES: &str = "esdb_monitor_node_writes_total";
/// Cumulative writes overall.
const WRITES: &str = "esdb_monitor_writes_total";
/// Cumulative storage bytes per tenant (Algorithm 1 line 5, `S(K)`).
const TENANT_STORAGE: &str = "esdb_monitor_tenant_storage_bytes";
/// Cumulative storage bytes overall.
const STORAGE: &str = "esdb_monitor_storage_bytes_total";

/// A snapshot of one reporting period.
#[derive(Debug, Clone, Default)]
pub struct PeriodReport {
    /// Writes per tenant during the period.
    pub per_tenant: FastMap<TenantId, u64>,
    /// Writes per shard during the period.
    pub per_shard: FastMap<ShardId, u64>,
    /// Writes per node during the period.
    pub per_node: FastMap<NodeId, u64>,
    /// Total writes during the period.
    pub total: u64,
}

impl PeriodReport {
    /// Throughput proportion `r = T(k) / ΣT` of one tenant (Algorithm 1
    /// line 15). Returns 0 when the period saw no writes.
    pub fn tenant_proportion(&self, k: TenantId) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        *self.per_tenant.get(&k).unwrap_or(&0) as f64 / self.total as f64
    }
}

/// Stripes in the per-tenant handle cache (power of two). Writers on
/// different tenants contend on different stripes; within a stripe the
/// steady state is a read-lock probe plus relaxed atomic adds.
const TENANT_STRIPES: usize = 16;

/// Cached counter handles for one tenant's write + storage series.
#[derive(Debug)]
struct TenantHandles {
    writes: Arc<Counter>,
    storage: Arc<Counter>,
}

/// Counter values at the last `take_period`, so period reports are
/// deltas over monotone series.
#[derive(Debug, Default)]
struct Baselines {
    tenant: FastMap<TenantId, u64>,
    shard: FastMap<ShardId, u64>,
    node: FastMap<NodeId, u64>,
    total: u64,
}

/// Accumulates write events and storage sizes; `take_period` harvests the
/// delta since the previous harvest while storage totals persist.
///
/// Recording is `&self` and safe from any number of writer threads: the
/// hot path is cached `Arc<Counter>` handles (relaxed atomic adds) found
/// through striped read-mostly caches — a registry probe happens only the
/// first time a tenant/shard/node is seen. Harvesting serializes on a
/// baselines mutex, off the write path.
#[derive(Debug)]
pub struct WorkloadMonitor {
    registry: Arc<MetricsRegistry>,
    /// Cached handles for the unlabeled totals (hot-path: one atomic
    /// add, no registry probe).
    writes_total: Arc<Counter>,
    storage_total: Arc<Counter>,
    /// Striped per-tenant handle cache (tenant ids are unbounded).
    tenant_handles: Vec<RwLock<FastMap<u64, TenantHandles>>>,
    /// Dense handle caches indexed by shard / node id (ids are small and
    /// contiguous; a read-locked `Vec` index is the whole lookup).
    shard_handles: RwLock<Vec<Arc<Counter>>>,
    node_handles: RwLock<Vec<Arc<Counter>>>,
    baselines: Mutex<Baselines>,
}

impl Default for WorkloadMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkloadMonitor {
    /// Empty monitor over a private registry.
    pub(crate) fn new() -> Self {
        Self::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// Monitor recording into a shared registry (its `esdb_monitor_*`
    /// series then appear in telemetry snapshots).
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        let writes_total = registry.counter(WRITES, Labels::none());
        let storage_total = registry.counter(STORAGE, Labels::none());
        WorkloadMonitor {
            registry,
            writes_total,
            storage_total,
            tenant_handles: (0..TENANT_STRIPES)
                .map(|_| RwLock::new(fast_map()))
                .collect(),
            shard_handles: RwLock::new(Vec::new()),
            node_handles: RwLock::new(Vec::new()),
            baselines: Mutex::new(Baselines::default()),
        }
    }

    /// Records one write routed to `shard` on `node`, adding `bytes` to the
    /// tenant's storage. Safe to call concurrently from any thread; the
    /// steady state is six relaxed atomic adds behind read-locked handle
    /// caches.
    pub fn record_write(&self, tenant: TenantId, shard: ShardId, node: NodeId, bytes: u64) {
        self.record_tenant(tenant, bytes);
        Self::add_indexed(
            &self.shard_handles,
            &self.registry,
            SHARD_WRITES,
            Labels::shard,
            shard.0,
        );
        Self::add_indexed(
            &self.node_handles,
            &self.registry,
            NODE_WRITES,
            Labels::node,
            node.0,
        );
        self.writes_total.inc();
        self.storage_total.add(bytes);
    }

    /// Bumps the tenant's write + storage counters through the striped
    /// handle cache, probing the registry only on first sight.
    fn record_tenant(&self, tenant: TenantId, bytes: u64) {
        // splitmix-style finalizer so consecutive tenant ids land on
        // different stripes.
        let mut x = tenant.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        let stripe = &self.tenant_handles[(x as usize) & (TENANT_STRIPES - 1)];
        {
            let map = stripe.read().expect("tenant stripe poisoned");
            if let Some(h) = map.get(&tenant.0) {
                h.writes.inc();
                h.storage.add(bytes);
                return;
            }
        }
        // First sight of this tenant on this stripe: resolve the handles
        // outside the write lock (the registry is itself thread-safe and
        // dedups by name+labels, so racing resolvers get the same
        // counters).
        let writes = self
            .registry
            .counter(TENANT_WRITES, Labels::tenant(tenant.0));
        let storage = self
            .registry
            .counter(TENANT_STORAGE, Labels::tenant(tenant.0));
        let mut map = stripe.write().expect("tenant stripe poisoned");
        let h = map
            .entry(tenant.0)
            .or_insert(TenantHandles { writes, storage });
        h.writes.inc();
        h.storage.add(bytes);
    }

    /// Bumps a dense-id counter (shard/node) through `cache`, growing it
    /// under the write lock on first sight of a new id.
    fn add_indexed(
        cache: &RwLock<Vec<Arc<Counter>>>,
        registry: &MetricsRegistry,
        name: &'static str,
        labels: impl Fn(u32) -> Labels,
        idx: u32,
    ) {
        {
            let v = cache.read().expect("handle cache poisoned");
            if let Some(c) = v.get(idx as usize) {
                c.inc();
                return;
            }
        }
        let mut v = cache.write().expect("handle cache poisoned");
        while v.len() <= idx as usize {
            let next = v.len() as u32;
            v.push(registry.counter(name, labels(next)));
        }
        v[idx as usize].inc();
    }

    /// The running period's counters as deltas over `base`, without
    /// touching the baselines.
    fn period_since_base(&self, base: &Baselines) -> PeriodReport {
        let mut report = PeriodReport {
            total: self.writes_total.get() - base.total,
            ..PeriodReport::default()
        };
        for (labels, v) in self.registry.counters_with(TENANT_WRITES) {
            let tenant = TenantId(labels.tenant.expect("tenant-labeled series"));
            let delta = v - base.tenant.get(&tenant).copied().unwrap_or(0);
            if delta > 0 {
                report.per_tenant.insert(tenant, delta);
            }
        }
        for (labels, v) in self.registry.counters_with(SHARD_WRITES) {
            let shard = ShardId(labels.shard.expect("shard-labeled series"));
            let delta = v - base.shard.get(&shard).copied().unwrap_or(0);
            if delta > 0 {
                report.per_shard.insert(shard, delta);
            }
        }
        for (labels, v) in self.registry.counters_with(NODE_WRITES) {
            let node = NodeId(labels.node.expect("node-labeled series"));
            let delta = v - base.node.get(&node).copied().unwrap_or(0);
            if delta > 0 {
                report.per_node.insert(node, delta);
            }
        }
        report
    }

    /// Harvests the current period's counters, resetting the period for
    /// the next harvest (Algorithm 1 line 13: "collect periodic write
    /// throughput"). The underlying counters stay monotone; only the
    /// baselines move. Concurrent harvesters serialize on the baselines
    /// mutex; concurrent recorders are unaffected.
    pub fn take_period(&self) -> PeriodReport {
        let mut base = self.baselines.lock().expect("baselines poisoned");
        let report = self.period_since_base(&base);
        for (labels, v) in self.registry.counters_with(TENANT_WRITES) {
            base.tenant
                .insert(TenantId(labels.tenant.expect("tenant-labeled series")), v);
        }
        for (labels, v) in self.registry.counters_with(SHARD_WRITES) {
            base.shard
                .insert(ShardId(labels.shard.expect("shard-labeled series")), v);
        }
        for (labels, v) in self.registry.counters_with(NODE_WRITES) {
            base.node
                .insert(NodeId(labels.node.expect("node-labeled series")), v);
        }
        base.total = self.writes_total.get();
        report
    }

    /// Snapshot of the running period (deltas since the last harvest).
    pub fn current(&self) -> PeriodReport {
        let base = self.baselines.lock().expect("baselines poisoned");
        self.period_since_base(&base)
    }

    /// Storage proportion `r = S(k) / ΣS` (Algorithm 1 line 7).
    pub(crate) fn storage_proportion(&self, k: TenantId) -> f64 {
        let total = self.storage_total.get();
        if total == 0 {
            return 0.0;
        }
        self.registry
            .counter_value(TENANT_STORAGE, Labels::tenant(k.0)) as f64
            / total as f64
    }

    /// All tenants with recorded storage.
    pub(crate) fn storage_tenants(&self) -> impl Iterator<Item = (TenantId, u64)> + '_ {
        self.registry
            .counters_with(TENANT_STORAGE)
            .into_iter()
            .filter(|&(_, v)| v > 0)
            .map(|(labels, v)| (TenantId(labels.tenant.expect("tenant-labeled series")), v))
    }

    /// Bulk-loads a storage snapshot (used to seed the initialization phase
    /// from an existing cluster's state).
    pub fn load_storage(&self, sizes: impl IntoIterator<Item = (TenantId, u64)>) {
        for (k, b) in sizes {
            self.registry.add(TENANT_STORAGE, Labels::tenant(k.0), b);
            self.storage_total.add(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_harvests_periods() {
        let m = WorkloadMonitor::new();
        m.record_write(TenantId(1), ShardId(0), NodeId(0), 100);
        m.record_write(TenantId(1), ShardId(1), NodeId(0), 100);
        m.record_write(TenantId(2), ShardId(2), NodeId(1), 50);
        let p = m.take_period();
        assert_eq!(p.total, 3);
        assert_eq!(p.per_tenant[&TenantId(1)], 2);
        assert_eq!(p.per_node[&NodeId(0)], 2);
        assert!((p.tenant_proportion(TenantId(1)) - 2.0 / 3.0).abs() < 1e-12);
        // Period counters reset, storage persists.
        assert_eq!(m.current().total, 0);
        assert!((m.storage_proportion(TenantId(1)) - 200.0 / 250.0).abs() < 1e-12);
    }

    #[test]
    fn empty_proportions_are_zero() {
        let m = WorkloadMonitor::new();
        assert_eq!(m.current().tenant_proportion(TenantId(1)), 0.0);
        assert_eq!(m.storage_proportion(TenantId(1)), 0.0);
    }

    #[test]
    fn load_storage_seeds_initialization() {
        let m = WorkloadMonitor::new();
        m.load_storage([(TenantId(1), 900), (TenantId(2), 100)]);
        assert!((m.storage_proportion(TenantId(1)) - 0.9).abs() < 1e-12);
        assert_eq!(m.storage_total.get(), 1000);
    }

    #[test]
    fn counters_stay_monotone_across_harvests() {
        let m = WorkloadMonitor::new();
        m.record_write(TenantId(1), ShardId(0), NodeId(0), 10);
        assert_eq!(m.take_period().total, 1);
        m.record_write(TenantId(1), ShardId(0), NodeId(0), 10);
        m.record_write(TenantId(2), ShardId(1), NodeId(1), 10);
        let p = m.take_period();
        assert_eq!(p.total, 2, "second period sees only its own writes");
        assert_eq!(p.per_tenant[&TenantId(1)], 1);
        assert!(!p.per_shard.contains_key(&ShardId(2)));
        // The registry series kept counting from the start.
        assert_eq!(
            m.registry.counter_value(TENANT_WRITES, Labels::tenant(1)),
            2
        );
        assert_eq!(m.take_period().total, 0, "drained");
    }

    #[test]
    fn concurrent_recording_totals_match_sequential_sum() {
        let m = WorkloadMonitor::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..500u64 {
                        m.record_write(
                            TenantId(t % 3),
                            ShardId((i % 4) as u32),
                            NodeId((i % 2) as u32),
                            8,
                        );
                    }
                });
            }
        });
        let p = m.take_period();
        assert_eq!(p.total, 2000);
        assert_eq!(p.per_tenant.values().sum::<u64>(), 2000);
        assert_eq!(p.per_shard.values().sum::<u64>(), 2000);
        assert_eq!(p.per_node.values().sum::<u64>(), 2000);
        assert_eq!(m.storage_total.get(), 16_000);
        assert_eq!(m.current().total, 0, "harvest reset the period");
    }

    #[test]
    fn shared_registry_exposes_monitor_series() {
        let registry = Arc::new(MetricsRegistry::new());
        let m = WorkloadMonitor::with_registry(Arc::clone(&registry));
        m.record_write(TenantId(3), ShardId(1), NodeId(0), 64);
        assert_eq!(registry.counter_value(WRITES, Labels::none()), 1);
        assert_eq!(
            registry.counter_value(TENANT_STORAGE, Labels::tenant(3)),
            64
        );
    }
}
