//! What the instance reports about itself: [`EsdbStats`], the cached
//! latency-histogram handles of the hot paths, and the assembly of the
//! telemetry snapshot and the debug bundle.

use crate::db::Esdb;
use crate::migrate::MigrationStatus;
use esdb_common::{CacheStats, RejectedCounts};
use esdb_routing::rules_json;
use esdb_telemetry::json::Json;
use esdb_telemetry::{Counter, DebugBundle, Histogram, Labels, MetricsRegistry, TelemetrySnapshot};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Instance-level statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EsdbStats {
    /// Searchable documents across shards.
    pub live_docs: usize,
    /// Buffered (not yet searchable) documents.
    pub buffered_docs: usize,
    /// Total segments.
    pub segments: usize,
    /// Approximate bytes.
    pub size_bytes: usize,
    /// Committed secondary hashing rules.
    pub rules: usize,
    /// Writes applied.
    pub writes: u64,
    /// Writes that failed (translog or engine error surfaced to the
    /// caller) — never silently swallowed.
    pub write_errors: u64,
    /// Queries executed.
    pub queries: u64,
    /// Queries (row and aggregate) served by the block-at-a-time
    /// executor.
    pub block_queries: u64,
    /// Queries served by the scalar executor (block execution disabled,
    /// plan not block-eligible, or aggregate not pushdown-eligible).
    pub scalar_queries: u64,
    /// Per-shard cumulative busy time (microseconds a query, write, or
    /// maintenance operation held the shard), indexed by shard.
    pub shard_busy_micros: Vec<u64>,
    /// The parallelism degree the instance executes fan-out with.
    pub parallelism: usize,
    /// Tier-1 segment filter cache counters (`bytes` = resident bytes).
    pub filter_cache: CacheStats,
    /// Tier-2 request cache counters (`bytes` = resident entries).
    pub request_cache: CacheStats,
    /// Requests rejected before reaching the engine, by reason. Always
    /// zero for the embedded API — the `esdb-server` front-end fills
    /// these in its stats view so the conservation invariant
    /// `issued == admitted + rejected` extends through the network
    /// layer.
    pub requests_rejected: RejectedCounts,
}

/// Cached end-to-end latency histogram handles, present iff telemetry
/// is enabled. The hot paths then pay one clock read and one atomic
/// bucket increment each; when absent the paths take a single branch.
#[derive(Clone)]
pub(crate) struct CoreTimers {
    pub(crate) query_total: Arc<Histogram>,
    pub(crate) agg_total: Arc<Histogram>,
    pub(crate) write_total: Arc<Histogram>,
    pub(crate) batch_total: Arc<Histogram>,
    pub(crate) write_errors: Arc<Counter>,
    /// Ops applied per hold of a shard's engine lock (1 for a single
    /// write, a batch's per-shard group size otherwise).
    pub(crate) group_size: Arc<Histogram>,
    /// Engine-lock hold time of one submission (lock acquired → ops
    /// applied and accounted).
    pub(crate) drain_total: Arc<Histogram>,
    /// Nanoseconds a contended submission blocked on the engine lock,
    /// from its failed `try_write` until it acquired the lock.
    /// Uncontended submissions record nothing — the fast path stays
    /// free of the extra clock read.
    pub(crate) lock_wait: Arc<Histogram>,
    pub(crate) block_queries: Arc<Counter>,
    pub(crate) scalar_queries: Arc<Counter>,
    pub(crate) blocks_scanned: Arc<Counter>,
    pub(crate) blocks_skipped: Arc<Counter>,
    pub(crate) blocks_pruned: Arc<Counter>,
}

impl CoreTimers {
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        CoreTimers {
            query_total: registry.histogram("esdb_query_total_ns", Labels::none()),
            agg_total: registry.histogram("esdb_aggregate_total_ns", Labels::none()),
            write_total: registry.histogram("esdb_write_total_ns", Labels::none()),
            batch_total: registry.histogram("esdb_write_batch_ns", Labels::none()),
            write_errors: registry.counter("esdb_write_errors_total", Labels::none()),
            group_size: registry.histogram("esdb_write_group_size", Labels::none()),
            drain_total: registry.histogram("esdb_write_drain_ns", Labels::none()),
            lock_wait: registry.histogram("esdb_write_lock_wait_ns", Labels::none()),
            block_queries: registry.counter("esdb_block_exec_queries_total", Labels::none()),
            scalar_queries: registry.counter("esdb_scalar_exec_queries_total", Labels::none()),
            blocks_scanned: registry
                .counter("esdb_block_exec_blocks_scanned_total", Labels::none()),
            blocks_skipped: registry
                .counter("esdb_block_exec_blocks_skipped_total", Labels::none()),
            blocks_pruned: registry.counter("esdb_block_exec_blocks_pruned_total", Labels::none()),
        }
    }

    /// Charges one query's executor choice (and, on the block path, its
    /// posting-block counters — `Some` iff blocks served it) to the
    /// registry.
    #[inline]
    pub(crate) fn record_exec_path(&self, blocks: Option<&esdb_index::BlockStats>) {
        match blocks {
            Some(blocks) => {
                self.block_queries.inc();
                self.blocks_scanned.add(blocks.scanned);
                self.blocks_skipped.add(blocks.skipped);
                self.blocks_pruned.add(blocks.pruned);
            }
            None => self.scalar_queries.inc(),
        }
    }
}

/// Nanoseconds since `t0`, clamped into `u64`.
#[inline]
pub(crate) fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

impl Esdb {
    /// Aggregated statistics.
    pub fn stats(&self) -> EsdbStats {
        let rd = &self.reader;
        let (filter_cache, request_cache) = rd.cache_stats();
        let mut s = EsdbStats {
            rules: self.rule_count(),
            writes: self.writer.state.writes_total.load(Ordering::Relaxed),
            write_errors: self.writer.state.write_errors_total.load(Ordering::Relaxed),
            queries: rd.queries_total.load(Ordering::Relaxed),
            block_queries: rd.block_queries_total.load(Ordering::Relaxed),
            scalar_queries: rd.scalar_queries_total.load(Ordering::Relaxed),
            parallelism: rd.executor.parallelism(),
            filter_cache,
            request_cache,
            ..EsdbStats::default()
        };
        for slot in &rd.shards {
            let st = slot.engine.read().stats();
            s.live_docs += st.live_docs;
            s.buffered_docs += st.buffered_docs;
            s.segments += st.segments;
            s.size_bytes += st.size_bytes;
            s.shard_busy_micros
                .push(slot.busy_micros.load(Ordering::Relaxed));
        }
        s
    }

    /// One-call postmortem artifact: the refreshed metrics snapshot,
    /// the journal tail, both slow-path logs, the engine configuration,
    /// the committed rule list and the migration states, rendered as a
    /// single JSON document by `bundle.to_json()`.
    pub fn debug_bundle(&self) -> DebugBundle {
        let mut bundle =
            DebugBundle::from_telemetry(&self.reader.telemetry, self.telemetry_snapshot(), 512);
        let c = &self.config;
        let t = &c.telemetry;
        bundle.config = [
            ("n_shards", c.n_shards.into()),
            ("routing", format!("{:?}", c.routing).into()),
            ("balance_every_writes", c.balance_every_writes.into()),
            ("refresh_buffer_docs", c.refresh_buffer_docs.into()),
            ("parallelism", c.parallelism.into()),
            ("query_caches", c.query_caches.into()),
            ("trace_sample_every", t.trace_sample_every.into()),
            ("slow_query_threshold_us", t.slow_query_threshold_us.into()),
            ("slow_write_threshold_us", t.slow_write_threshold_us.into()),
            ("tail_capture", t.tail_capture.into()),
            ("journal_capacity", t.journal_capacity.into()),
            ("commit_wait_ms", c.commit_wait_ms.into()),
            ("migration_tail_max_ops", c.migration_tail_max_ops.into()),
        ]
        .map(|(k, v): (&str, Json)| (k.to_string(), v))
        .into();
        bundle.rules = rules_json(self.writer.state.rules.read().rules());
        bundle.migrations = self
            .migrations_snapshot()
            .iter()
            .map(MigrationStatus::to_json)
            .collect();
        bundle
    }

    /// Point-in-time snapshot of every metric, for Prometheus text or
    /// JSON exposition. Instance-level gauges — cache counters, active
    /// rules, per-shard busy time — are refreshed into the registry
    /// first, so the snapshot is self-contained.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let rd = &self.reader;
        if rd.telemetry.enabled() {
            let registry = rd.telemetry.registry();
            registry
                .gauge("esdb_rules_active", Labels::none())
                .set(self.rule_count() as i64);
            registry
                .gauge("esdb_migrations_active", Labels::none())
                .set(self.writer.state.migrations.active_count() as i64);
            let (filter, request) = rd.cache_stats();
            for (tier, s) in [("filter", filter), ("request", request)] {
                let labels = Labels::stage(tier);
                registry.gauge("esdb_cache_hits", labels).set(s.hits as i64);
                registry
                    .gauge("esdb_cache_misses", labels)
                    .set(s.misses as i64);
                registry
                    .gauge("esdb_cache_evictions", labels)
                    .set(s.evictions as i64);
                registry
                    .gauge("esdb_cache_entries", labels)
                    .set(s.entries as i64);
                registry
                    .gauge("esdb_cache_weight", labels)
                    .set(s.bytes as i64);
            }
            for (i, slot) in rd.shards.iter().enumerate() {
                registry
                    .gauge("esdb_shard_busy_micros", Labels::shard(i as u32))
                    .set(slot.busy_micros.load(Ordering::Relaxed) as i64);
            }
            // Share of queries the block-at-a-time executor served, as a
            // percentage (gauges are integral).
            let block = rd.block_queries_total.load(Ordering::Relaxed);
            let scalar = rd.scalar_queries_total.load(Ordering::Relaxed);
            let total = block + scalar;
            registry
                .gauge("esdb_block_exec_hit_ratio_percent", Labels::none())
                .set((block * 100).checked_div(total).unwrap_or(0) as i64);
        }
        rd.telemetry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use crate::testkit::{doc, open, rich_doc};
    use esdb_query::QueryOptions;
    use esdb_telemetry::TelemetryConfig;

    #[test]
    fn stats_reflect_state() {
        let (mut db, _) = open("stats", |c| c.shards(4));
        let w = db.writer();
        for r in 0..30 {
            w.insert(doc(1, r, 100 + r)).unwrap();
        }
        let s = db.stats();
        assert_eq!(s.writes, 30);
        assert_eq!(s.buffered_docs, 30);
        assert_eq!(s.live_docs, 0);
        db.refresh();
        let s = db.stats();
        assert_eq!(s.live_docs, 30);
        assert_eq!(s.buffered_docs, 0);
        let total: usize = db.shard_doc_counts().iter().sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn busy_time_and_parallelism_surface_in_stats() {
        let (mut db, _) = open("busy-stats", |c| c.shards(4).parallelism(2));
        let (w, rd) = (db.writer(), db.reader());
        for r in 0..100 {
            w.insert(doc(1, r, 100 + r)).unwrap();
        }
        db.refresh();
        rd.query("SELECT * FROM transaction_logs WHERE status = 1")
            .unwrap();
        let s = db.stats();
        assert_eq!(s.parallelism, 2);
        assert_eq!(s.shard_busy_micros.len(), 4);
        // The refresh + fan-out query touched every shard; at least the
        // tenant's write shard must have accumulated busy time.
        assert!(
            s.shard_busy_micros.iter().any(|&m| m > 0),
            "busy counters never advanced: {:?}",
            s.shard_busy_micros
        );
    }

    #[test]
    fn telemetry_snapshot_traces_and_slow_log() {
        let (mut db, _) = open("telemetry-on", |c| {
            c.shards(4).telemetry_config(TelemetryConfig {
                trace_sample_every: 1,      // trace every request
                slow_query_threshold_us: 0, // every query is "slow"
                ..TelemetryConfig::default()
            })
        });
        let (w, rd) = (db.writer(), db.reader());
        for r in 0..40 {
            w.insert(doc(r % 6, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        // Tenantless fan-out: hits all 4 shards, most return few/no rows.
        let rows = rd
            .query("SELECT * FROM transaction_logs WHERE status = 1")
            .unwrap();
        assert!(!rows.docs.is_empty());
        let snap = db.telemetry_snapshot();
        let totals = snap
            .histograms
            .iter()
            .find(|(n, _, _)| n == "esdb_query_total_ns")
            .expect("query total histogram");
        assert_eq!(totals.2.count(), 1);
        assert!(snap
            .histograms
            .iter()
            .any(|(n, _, _)| n == "esdb_write_total_ns"));
        assert!(snap
            .gauges
            .iter()
            .any(|(n, _, _)| n == "esdb_shard_busy_micros"));
        // The slow log (threshold 0) captured the query with its trace.
        let slow = db.slow_queries();
        assert_eq!(slow.len(), 1);
        let entry = &slow[0];
        assert_eq!(entry.fanout, 4);
        assert_eq!(entry.tenant, None);
        assert!(entry.plan.contains("Filter") || !entry.plan.is_empty());
        // Every shard of the fan-out reported an execute sample even
        // though some shards contributed zero rows.
        let execs: Vec<u32> = entry
            .stages
            .iter()
            .filter(|s| s.stage == "execute")
            .filter_map(|s| s.shard)
            .collect();
        assert_eq!(execs.len(), 4, "one execute sample per shard: {execs:?}");
        for stage in ["route", "plan", "cache_probe", "gather"] {
            assert!(
                entry.stages.iter().any(|s| s.stage == stage),
                "missing {stage} stage in {:?}",
                entry.stages
            );
        }
    }

    #[test]
    fn telemetry_disabled_records_nothing_extra() {
        let (mut db, _) = open("telemetry-off", |c| c.shards(4).telemetry(false));
        let (w, rd) = (db.writer(), db.reader());
        for r in 0..20 {
            w.insert(doc(1, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        rd.query("SELECT * FROM transaction_logs WHERE tenant_id = 1")
            .unwrap();
        let snap = db.telemetry_snapshot();
        assert!(snap.histograms.is_empty(), "no latency histograms when off");
        assert!(snap.gauges.is_empty(), "no injected gauges when off");
        // The monitor still records into the shared registry (balancing
        // depends on it), so counter series remain.
        assert!(snap
            .counters
            .iter()
            .any(|(n, _, _)| n == "esdb_monitor_writes_total"));
        assert!(db.slow_queries().is_empty());
    }

    #[test]
    fn block_exec_telemetry_counters_ratio_and_prune_stage() {
        let (mut db, _) = open("block-telemetry", |c| {
            c.shards(4).telemetry_config(TelemetryConfig {
                trace_sample_every: 1,
                slow_query_threshold_us: 0,
                ..TelemetryConfig::default()
            })
        });
        let (w, rd) = (db.writer(), db.reader());
        for r in 0..200u64 {
            w.insert(rich_doc(r % 4, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        // An OR of two index lookups plans as a Union — a block set
        // operation, so the posting-block counters advance.
        rd.query("SELECT * FROM transaction_logs WHERE status = 1 OR group = 2")
            .unwrap();
        rd.aggregate("SELECT COUNT(*), SUM(amount) FROM transaction_logs WHERE status = 0")
            .unwrap();
        let snap = db.telemetry_snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, _, v)| *v)
        };
        assert_eq!(counter("esdb_block_exec_queries_total"), Some(2));
        assert!(
            counter("esdb_block_exec_blocks_scanned_total").unwrap_or(0)
                + counter("esdb_block_exec_blocks_skipped_total").unwrap_or(0)
                + counter("esdb_block_exec_blocks_pruned_total").unwrap_or(0)
                > 0,
            "block counters must account for posting blocks"
        );
        let ratio = snap
            .gauges
            .iter()
            .find(|(n, _, _)| n == "esdb_block_exec_hit_ratio_percent")
            .expect("hit ratio gauge")
            .2;
        assert_eq!(ratio, 100, "both queries took the block path");
        // The sampled trace carried the block_prune stage end to end.
        let slow = db.slow_queries();
        assert!(slow
            .iter()
            .any(|e| e.stages.iter().any(|s| s.stage == "block_prune")));
        // The aggregate total landed in its own histogram.
        assert!(snap
            .histograms
            .iter()
            .any(|(n, _, _)| n == "esdb_aggregate_total_ns"));
        // Exposition stays lint-clean with the new series.
        let text = snap.to_prometheus();
        let errors = esdb_telemetry::lint_prometheus(&text);
        assert!(errors.is_empty(), "prometheus lint errors: {errors:?}");
        // Forcing the scalar path moves the ratio off 100%.
        rd.query_opts(
            "SELECT * FROM transaction_logs WHERE status = 1",
            QueryOptions {
                block_execution: false,
                ..QueryOptions::default()
            },
        )
        .unwrap();
        let snap = db.telemetry_snapshot();
        let ratio = snap
            .gauges
            .iter()
            .find(|(n, _, _)| n == "esdb_block_exec_hit_ratio_percent")
            .unwrap()
            .2;
        assert_eq!(ratio, 66, "2 of 3 queries on the block path");
    }
}
