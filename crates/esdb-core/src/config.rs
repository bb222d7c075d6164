//! Instance configuration: what an embedded [`crate::Esdb`] is opened
//! with.

use esdb_balancer::BalancerConfig;
use esdb_storage::WriteFault;
use esdb_telemetry::TelemetryConfig;
use std::path::PathBuf;
use std::sync::Arc;

/// Which routing policy the instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingMode {
    /// Plain hashing (single shard per tenant).
    Hashing,
    /// Static double hashing with offset `s`.
    DoubleHashing(u32),
    /// Dynamic secondary hashing with the load balancer (the ESDB default).
    Dynamic,
}

/// Configuration for an embedded instance.
#[derive(Debug, Clone)]
pub struct EsdbConfig {
    /// Root data directory (one subdirectory per shard).
    pub data_dir: PathBuf,
    /// Shard count.
    pub n_shards: u32,
    /// Routing policy.
    pub routing: RoutingMode,
    /// Run the load balancer every this many writes (0 = manual only).
    pub balance_every_writes: u64,
    /// Balancer tuning (hotspot threshold, offset policy).
    pub balancer: BalancerConfig,
    /// Auto-refresh shards whose buffer reaches this many docs (0 = manual
    /// refresh).
    pub refresh_buffer_docs: usize,
    /// Worker threads for scatter-gather query fan-out and shard
    /// maintenance sweeps. `1` runs everything sequentially on the caller
    /// thread (deterministic mode); `0` selects the number of available
    /// CPU cores.
    pub parallelism: usize,
    /// Enables both query-cache tiers: the tier-1 segment filter cache
    /// (byte budget ~1% of resident shard bytes, floor 256 KiB,
    /// retargeted on every maintenance sweep) and the tier-2 per-shard
    /// request cache (1 024 whole result sets). Off, the query path is
    /// exactly the uncached one — the oracle cached runs compare against.
    pub query_caches: bool,
    /// Telemetry knobs (metrics registry, trace sampling, slow-query
    /// log). The workload monitor records into the shared registry
    /// regardless of `telemetry.enabled` — balancing needs its counters —
    /// but spans, stage histograms, and the slow log obey the switch.
    pub telemetry: TelemetryConfig,
    /// Optional storage fault injector applied to every shard's translog
    /// (chaos testing: torn/failed appends surface as write errors).
    /// `None` for production use.
    pub write_fault: Option<Arc<dyn WriteFault>>,
    /// Commit-wait before a committed grow-rule activates, in clock
    /// milliseconds: the rule's effective time is `commit + wait`, so
    /// every participant — including nodes whose clock lags by up to
    /// this much — agrees on which side of the rule a record falls
    /// before any record can carry a timestamp past it. `0` (the
    /// default) activates immediately, which is exact under the
    /// embedded single-clock deployment.
    pub commit_wait_ms: u64,
    /// Bound on the translog tail a live migration may capture while
    /// its segment handoff is in flight. Exceeding it aborts the
    /// migration (writes are outrunning the drain) rather than chasing
    /// an unbounded backlog.
    pub migration_tail_max_ops: usize,
}

impl EsdbConfig {
    /// Sensible embedded defaults: 16 shards, dynamic routing, balancing
    /// every 5000 writes.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        let n_shards = 16;
        EsdbConfig {
            data_dir: data_dir.into(),
            n_shards,
            routing: RoutingMode::Dynamic,
            balance_every_writes: 5_000,
            balancer: BalancerConfig::new(n_shards, n_shards.div_ceil(4).max(1)),
            refresh_buffer_docs: 0,
            parallelism: 0,
            query_caches: true,
            telemetry: TelemetryConfig::default(),
            write_fault: None,
            commit_wait_ms: 0,
            migration_tail_max_ops: 100_000,
        }
    }

    /// Overrides the shard count (also rescales the balancer).
    pub fn shards(mut self, n: u32) -> Self {
        self.n_shards = n;
        self.balancer = BalancerConfig::new(n, n.div_ceil(4).max(1));
        self
    }

    /// Overrides the routing mode.
    pub fn routing(mut self, mode: RoutingMode) -> Self {
        self.routing = mode;
        self
    }

    /// Overrides the scatter-gather parallelism degree (`1` =
    /// deterministic sequential, `0` = all available cores).
    pub fn parallelism(mut self, degree: usize) -> Self {
        self.parallelism = degree;
        self
    }

    /// Enables/disables both query-cache tiers at once. With both off the
    /// query path is exactly the uncached one.
    pub fn query_caches(mut self, enabled: bool) -> Self {
        self.query_caches = enabled;
        self
    }

    /// Enables/disables telemetry (latency histograms, stage tracing,
    /// slow-query log).
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry.enabled = enabled;
        self
    }

    /// Overrides the full telemetry configuration.
    pub fn telemetry_config(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Installs a storage fault injector on every shard's translog
    /// (chaos testing). Injected failures are counted in
    /// [`crate::EsdbStats::write_errors`] and `esdb_write_errors_total`, then
    /// surfaced to the caller.
    pub fn write_fault(mut self, fault: Arc<dyn WriteFault>) -> Self {
        self.write_fault = Some(fault);
        self
    }

    /// Overrides the commit-wait window for rule activation (clock
    /// milliseconds; `0` = activate immediately).
    pub fn commit_wait_ms(mut self, ms: u64) -> Self {
        self.commit_wait_ms = ms;
        self
    }

    /// Overrides the captured-tail bound for live migrations.
    pub fn migration_tail_max_ops(mut self, ops: usize) -> Self {
        self.migration_tail_max_ops = ops;
        self
    }
}
