//! The embedded ESDB instance.

use crate::migrate::{
    statuses_to_json, MigrationEntry, MigrationPhase, MigrationStatus, MigrationTable, RulesLog,
};
use esdb_balancer::{BalancerConfig, LoadBalancer, WorkloadMonitor};
use esdb_common::exec::Executor;
use esdb_common::fastmap::{fast_map, fast_set, FastMap, FastSet};
use esdb_common::{
    CacheStats, Clock, EsdbError, NodeId, RecordId, RejectedCounts, Result, ShardId, ShardedCache,
    SharedClock, TenantId, TimestampMs,
};
use esdb_doc::{CollectionSchema, Document, WriteKind, WriteOp};
use esdb_index::{AttrFrequencyTracker, SegmentId};
use esdb_query::aggregate::merge_results;
use esdb_query::naive::naive_plan;
use esdb_query::Expr;
use esdb_query::{
    aggregate_prepared_blocks_on_snapshot, aggregate_pushdown_eligible, aggregate_rows,
    block_eligible, execute_prepared_blocks_on_snapshot, execute_prepared_on_snapshot, optimize,
    parse_sql, query_fingerprint, translate, AggPartials, AggResult, FilterCacheContext, Plan,
    PreparedPlan, Query, QueryOptions, QueryRows, SegmentFilterCache,
};
use esdb_replication::{build_handoff, HandoffPlan};
use esdb_routing::{
    place, DoubleHashRouting, DynamicRouting, HashRouting, RoutingPolicy, RuleList,
    SecondaryHashingRule, ShardSpan,
};
use esdb_storage::{ShardConfig, ShardEngine, ShardSnapshot, SnapshotCell, WriteFault};
use esdb_telemetry::{
    json_escape, Counter, DebugBundle, EventKind, Histogram, Labels, MetricsRegistry, QueryTrace,
    SlowQueryEntry, SlowWriteEntry, Telemetry, TelemetryConfig, TelemetrySnapshot, NO_PARENT,
};
use parking_lot::{Mutex, RwLock};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    /// Byte budget of the tier-1 segment filter cache. `0` = automatic:
    /// ~1% of resident shard bytes (floor 256 KiB), retargeted on every
    /// maintenance sweep.
    pub query_cache_bytes: u64,
    /// Entry budget of the tier-2 per-shard request cache (whole result
    /// sets). Values below 16 are rounded up to 16.
    pub request_cache_entries: u64,
    /// Enables the tier-1 segment filter cache.
    pub filter_cache_enabled: bool,
    /// Enables the tier-2 request cache.
    pub request_cache_enabled: bool,
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
            query_cache_bytes: 0,
            request_cache_entries: 1_024,
            filter_cache_enabled: true,
            request_cache_enabled: true,
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

    /// Overrides the filter-cache byte budget (`0` = automatic ~1% of
    /// shard bytes).
    pub fn query_cache_bytes(mut self, bytes: u64) -> Self {
        self.query_cache_bytes = bytes;
        self
    }

    /// Overrides the request-cache entry budget.
    pub fn request_cache_entries(mut self, entries: u64) -> Self {
        self.request_cache_entries = entries;
        self
    }

    /// Enables/disables both query-cache tiers at once. With both off the
    /// query path is exactly the uncached one.
    pub fn query_caches(mut self, enabled: bool) -> Self {
        self.filter_cache_enabled = enabled;
        self.request_cache_enabled = enabled;
        self
    }

    /// Enables/disables only the tier-1 segment filter cache.
    pub fn filter_cache(mut self, enabled: bool) -> Self {
        self.filter_cache_enabled = enabled;
        self
    }

    /// Enables/disables only the tier-2 request cache.
    pub fn request_cache(mut self, enabled: bool) -> Self {
        self.request_cache_enabled = enabled;
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
    /// [`EsdbStats::write_errors`] and `esdb_write_errors_total`, then
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

enum Router {
    Hash(HashRouting),
    Double(DoubleHashRouting),
    Dynamic(DynamicRouting),
}

impl Router {
    fn route(&self, k1: TenantId, k2: RecordId, tc: TimestampMs) -> ShardId {
        match self {
            Router::Hash(r) => r.route_write(k1, k2, tc),
            Router::Double(r) => r.route_write(k1, k2, tc),
            Router::Dynamic(r) => r.route_write(k1, k2, tc),
        }
    }

    fn span(&self, k1: TenantId, now: TimestampMs) -> ShardSpan {
        match self {
            Router::Hash(r) => r.read_span(k1, now),
            Router::Double(r) => r.read_span(k1, now),
            Router::Dynamic(r) => r.read_span(k1, now),
        }
    }
}

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

/// One shard behind its own lock, so scatter-gather paths touch shards
/// independently instead of serializing on the instance.
///
/// The engine lock guards only the *mutable* indexing state (buffer,
/// translog, segment working set). The read path never takes it: the
/// slot carries the engine's [`SnapshotCell`] and queries pin the
/// published point-in-time view from there, so maintenance holding the
/// write lock never blocks a reader and vice versa.
struct ShardSlot {
    engine: RwLock<ShardEngine>,
    /// The engine's snapshot publication point (shared with the engine;
    /// readers pin from here without touching `engine`).
    snapshots: Arc<SnapshotCell>,
    /// The engine's attr-frequency tracker (shared with the engine;
    /// the query path records sub-attribute usage here lock-free with
    /// respect to the engine).
    attr_tracker: Arc<Mutex<AttrFrequencyTracker>>,
    /// Cumulative microseconds operations spent serving this shard —
    /// write-lock hold time plus lock-free query execution time — the
    /// per-shard busy counter surfaced through
    /// [`EsdbStats::shard_busy_micros`].
    busy_micros: AtomicU64,
}

impl ShardSlot {
    fn new(engine: ShardEngine) -> Arc<Self> {
        let snapshots = engine.snapshot_cell();
        let attr_tracker = engine.attr_tracker();
        Arc::new(ShardSlot {
            engine: RwLock::new(engine),
            snapshots,
            attr_tracker,
            busy_micros: AtomicU64::new(0),
        })
    }

    /// Runs `f` under the shard's write lock, charging elapsed time to
    /// the busy counter.
    fn with_write<R>(&self, f: impl FnOnce(&mut ShardEngine) -> R) -> R {
        let t0 = Instant::now();
        let mut engine = self.engine.write();
        let r = f(&mut engine);
        self.busy_micros
            .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        r
    }
}

/// Per-shard application counts returned by [`Esdb::write_batch`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchApplied {
    /// Operations applied in total.
    pub total: usize,
    /// `(shard, operations applied to it)`, ascending by shard.
    pub per_shard: Vec<(ShardId, usize)>,
}

/// Everything the shared (`&self`) write pipeline needs, held in one
/// `Arc` so [`Esdb`] and every [`EsdbWriter`] clone drive the identical
/// path: same shards and engine locks, same router and rules, same
/// monitor/balancer, same atomic accounting.
struct WriteState {
    shards: Vec<Arc<ShardSlot>>,
    n_shards: u32,
    router: Arc<Router>,
    rules: Arc<RwLock<RuleList>>,
    monitor: Arc<WorkloadMonitor>,
    /// The balancing pass is single-entrant (one writer claims each
    /// epoch), but the mutex keeps the type honest about it.
    balancer: Mutex<LoadBalancer>,
    clock: SharedClock,
    /// Worker-node count shards map onto (from the balancer's offset
    /// policy, which models consecutive shards on consecutive nodes).
    node_count: u32,
    balance_every_writes: u64,
    dynamic_routing: bool,
    writes_total: AtomicU64,
    write_errors_total: AtomicU64,
    writes_since_balance: AtomicU64,
    /// Monotone rebalance-epoch counter; each claimed pass gets the next
    /// number, journaled as claimed/completed event pairs.
    rebalance_epochs: AtomicU64,
    telemetry: Arc<Telemetry>,
    timers: Option<CoreTimers>,
    /// The collection schema (the migration coordinator builds shipped
    /// segments from it).
    schema: CollectionSchema,
    /// Live-migration coordinator state: entries, the write-permit
    /// barrier, the reader fence, and the tail-capture hook.
    migrations: Arc<MigrationTable>,
    /// Durable append-only log of rule commits, cutover intents, and
    /// completions (`data_dir/rules.log`), replayed at open.
    rules_log: Arc<RulesLog>,
    /// Commit-wait applied to every rule's effective time.
    commit_wait_ms: u64,
}

/// Key of one tier-2 entry: `(shard, search generation, query
/// fingerprint)`. Any searchable-state change bumps the shard's
/// generation, so stale entries become unreachable immediately and are
/// reaped by the maintenance sweeps.
type RequestCacheKey = (u32, u64, u128);

/// Floor (and pre-data default) for the automatic filter-cache budget.
const AUTO_FILTER_BUDGET_FLOOR: u64 = 256 * 1024;

/// ~1% of resident shard bytes, with a floor so small datasets still
/// cache.
fn auto_filter_budget(shard_bytes: usize) -> u64 {
    ((shard_bytes / 100) as u64).max(AUTO_FILTER_BUDGET_FLOOR)
}

/// Cached end-to-end latency histogram handles, present iff telemetry
/// is enabled. The hot paths then pay one clock read and one atomic
/// bucket increment each; when absent the paths take a single branch.
#[derive(Clone)]
struct CoreTimers {
    query_total: Arc<Histogram>,
    agg_total: Arc<Histogram>,
    write_total: Arc<Histogram>,
    batch_total: Arc<Histogram>,
    write_errors: Arc<Counter>,
    /// Ops applied per hold of a shard's engine lock (1 for a single
    /// write, a batch's per-shard group size otherwise).
    group_size: Arc<Histogram>,
    /// Engine-lock hold time of one submission (lock acquired → ops
    /// applied and accounted).
    drain_total: Arc<Histogram>,
    /// Nanoseconds a contended submission blocked on the engine lock,
    /// from its failed `try_write` until it acquired the lock.
    /// Uncontended submissions record nothing — the fast path stays
    /// free of the extra clock read.
    lock_wait: Arc<Histogram>,
    block_queries: Arc<Counter>,
    scalar_queries: Arc<Counter>,
    blocks_scanned: Arc<Counter>,
    blocks_skipped: Arc<Counter>,
    blocks_pruned: Arc<Counter>,
}

impl CoreTimers {
    fn new(registry: &MetricsRegistry) -> Self {
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
    fn record_exec_path(&self, blocks: Option<&esdb_index::BlockStats>) {
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
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// An embedded ESDB database: lifecycle, maintenance and admin around
/// one [`EsdbReader`] and one [`EsdbWriter`], which own the data plane.
pub struct Esdb {
    config: EsdbConfig,
    /// The read state (shards, caches, router, counters). `reader()`
    /// clones it; the `query`/`aggregate`/`get` methods forward to it.
    reader: EsdbReader,
    /// The write state (shards, rules, monitor/balancer, migrations,
    /// accounting). `writer()` clones it; the write methods forward.
    writer: EsdbWriter,
    /// Baseline for [`Esdb::take_stats`] delta snapshots.
    stats_base: EsdbStats,
}

impl Esdb {
    /// Opens (or recovers) an instance rooted at `config.data_dir`.
    pub fn open(schema: CollectionSchema, config: EsdbConfig) -> Result<Self> {
        Self::open_with_clock(schema, config, SharedClock::real())
    }

    /// Opens with an explicit clock (tests use a manual clock so rule
    /// effective times are deterministic).
    pub fn open_with_clock(
        schema: CollectionSchema,
        config: EsdbConfig,
        clock: SharedClock,
    ) -> Result<Self> {
        if config.n_shards == 0 {
            return Err(EsdbError::Config("n_shards must be > 0".into()));
        }
        let telemetry = Arc::new(Telemetry::new(config.telemetry.clone()));
        let mut shards = Vec::with_capacity(config.n_shards as usize);
        for s in 0..config.n_shards {
            let mut sc = ShardConfig::new(config.data_dir.join(format!("shard-{s:04}")));
            sc.refresh_buffer_docs = config.refresh_buffer_docs;
            sc.write_fault = config.write_fault.clone();
            if telemetry.enabled() {
                sc = sc.with_telemetry(s, Arc::clone(&telemetry));
            }
            shards.push(ShardSlot::new(ShardEngine::open(schema.clone(), sc)?));
        }
        // Restore the durable routing state before anything routes: the
        // committed rule list and the migrated markings, in log order.
        let rules_log = Arc::new(RulesLog::new(&config.data_dir));
        let replayed = rules_log.replay()?;
        let rules = Arc::new(RwLock::new(RuleList::new()));
        {
            let mut r = rules.write();
            for (tenant, offset, t_eff) in &replayed.rules {
                r.update(*t_eff, *offset, *tenant);
            }
            for (tenant, offset) in &replayed.migrated {
                r.mark_migrated(*tenant, *offset);
            }
        }
        let router = Arc::new(match config.routing {
            RoutingMode::Hashing => Router::Hash(HashRouting::new(config.n_shards)),
            RoutingMode::DoubleHashing(s) => {
                Router::Double(DoubleHashRouting::new(config.n_shards, s))
            }
            RoutingMode::Dynamic => {
                let mut r = DynamicRouting::with_rules(config.n_shards, rules.clone());
                if telemetry.enabled() {
                    r = r.with_telemetry(telemetry.registry());
                }
                Router::Dynamic(r)
            }
        });
        let mut balancer = LoadBalancer::new(config.balancer);
        if telemetry.enabled() {
            balancer = balancer.with_journal(Arc::clone(telemetry.journal()));
        }
        let executor = Executor::new(config.parallelism);
        let filter_cache = config.filter_cache_enabled.then(|| {
            Arc::new(SegmentFilterCache::new(if config.query_cache_bytes == 0 {
                AUTO_FILTER_BUDGET_FLOOR
            } else {
                config.query_cache_bytes
            }))
        });
        let request_cache = config
            .request_cache_enabled
            .then(|| Arc::new(ShardedCache::new(config.request_cache_entries.max(16))));
        // The monitor shares the telemetry registry, so the balancing
        // loop's inputs surface as `esdb_monitor_*` series for free.
        let monitor = Arc::new(WorkloadMonitor::with_registry(Arc::clone(
            telemetry.registry(),
        )));
        let timers = telemetry
            .enabled()
            .then(|| CoreTimers::new(telemetry.registry()));
        let write = Arc::new(WriteState {
            shards: shards.clone(),
            n_shards: config.n_shards,
            router: Arc::clone(&router),
            rules,
            monitor,
            balancer: Mutex::new(balancer),
            clock: clock.clone(),
            node_count: config.balancer.offset.node_count.max(1),
            balance_every_writes: config.balance_every_writes,
            dynamic_routing: matches!(config.routing, RoutingMode::Dynamic),
            writes_total: AtomicU64::new(0),
            write_errors_total: AtomicU64::new(0),
            writes_since_balance: AtomicU64::new(0),
            rebalance_epochs: AtomicU64::new(0),
            telemetry: Arc::clone(&telemetry),
            timers: timers.clone(),
            schema: schema.clone(),
            migrations: Arc::new(MigrationTable::new(config.migration_tail_max_ops)),
            rules_log,
            commit_wait_ms: config.commit_wait_ms,
        });
        // A cutover whose intent was logged but whose completion never
        // was is finished now, before the instance serves anything:
        // idempotent logical completion (every row moved to its
        // new-span placement, sources tombstoned, routing re-marked).
        for (tenant, offset, t_eff) in &replayed.pending_cutovers {
            complete_cutover_by_scan(&write, *tenant, *offset, *t_eff)?;
        }
        let reader = EsdbReader {
            schema,
            n_shards: config.n_shards,
            shards,
            migrations: Arc::clone(&write.migrations),
            filter_cache,
            request_cache,
            executor: executor.clone(),
            router,
            clock,
            queries_total: Arc::new(AtomicU64::new(0)),
            block_queries_total: Arc::new(AtomicU64::new(0)),
            scalar_queries_total: Arc::new(AtomicU64::new(0)),
            telemetry,
            timers,
        };
        let db = Esdb {
            reader,
            writer: EsdbWriter {
                state: write,
                executor,
            },
            stats_base: EsdbStats::default(),
            config,
        };
        // Recovered segments are already resident: point the automatic
        // filter-cache budget at them right away.
        db.sweep_caches();
        Ok(db)
    }

    /// The collection schema.
    pub fn schema(&self) -> &CollectionSchema {
        &self.reader.schema
    }

    /// The scatter-gather parallelism degree in effect.
    pub fn parallelism(&self) -> usize {
        self.reader.executor.parallelism()
    }

    /// Changes the scatter-gather parallelism degree at runtime (`1` =
    /// deterministic sequential, `0` = all available cores). Results are
    /// identical across degrees; only wall-clock time changes.
    pub fn set_parallelism(&mut self, degree: usize) {
        self.reader.executor = Executor::new(degree);
        self.writer.executor = self.reader.executor.clone();
    }

    /// Inserts a document, returning the shard it was routed to.
    pub fn insert(&mut self, doc: Document) -> Result<ShardId> {
        self.writer.insert(doc)
    }

    /// Updates an existing record (routing triple must match the original
    /// creation time, §4.2).
    pub fn update(&mut self, doc: Document) -> Result<ShardId> {
        self.writer.update(doc)
    }

    /// Deletes a record by routing triple.
    pub fn delete(
        &mut self,
        tenant: TenantId,
        record: RecordId,
        created_at: TimestampMs,
    ) -> Result<ShardId> {
        self.writer.delete(tenant, record, created_at)
    }

    /// Flushes a [`crate::WriteBatcher`]'s coalesced operations into the
    /// database (see [`EsdbWriter::write_batch`]).
    pub fn write_batch(&mut self, batcher: &mut crate::WriteBatcher) -> Result<BatchApplied> {
        self.writer.write_batch(batcher)
    }

    /// Applies a raw write operation.
    pub fn write(&mut self, op: WriteOp) -> Result<ShardId> {
        self.writer.write(op)
    }

    /// Runs one balancing pass now (Algorithm 1 runtime phase): detect
    /// hotspots in the monitor window, commit grow-rules effective
    /// immediately for *future* records.
    pub fn rebalance(&mut self) -> usize {
        let ws = &self.writer.state;
        ws.writes_since_balance.store(0, Ordering::Release);
        rebalance_pass(ws)
    }

    /// Runs `f` on every shard's engine under its write lock, shards
    /// concurrently on the executor; results in shard order.
    fn each_engine<R: Send>(&self, f: impl Fn(&mut ShardEngine) -> R + Sync) -> Vec<R> {
        self.writer
            .executor
            .map(&self.reader.shards, |_, slot| slot.with_write(&f))
    }

    /// Makes all buffered writes searchable (near-real-time refresh).
    /// Shards refresh concurrently on the executor.
    pub fn refresh(&mut self) {
        self.each_engine(|engine| engine.refresh());
        self.sweep_caches();
    }

    /// Durably flushes all shards (segments + commit points, translog
    /// roll). Shards flush concurrently; the first error (by shard
    /// order) is reported after every shard has completed its attempt.
    pub fn flush(&mut self) -> Result<()> {
        let result = self
            .each_engine(|engine| engine.flush())
            .into_iter()
            .collect();
        self.sweep_caches();
        result
    }

    /// Force-merges each shard's full segment list into one segment,
    /// ignoring the merge policy (maximum merge pressure — benches and
    /// tests race queries against this). Returns merges performed.
    pub fn force_merge(&mut self) -> usize {
        let merged: usize = self
            .each_engine(|engine| {
                let ids: Vec<SegmentId> = engine.segments().iter().map(|s| s.id).collect();
                if ids.len() > 1 {
                    engine.force_merge(&ids);
                    1
                } else {
                    0
                }
            })
            .into_iter()
            .sum();
        self.sweep_caches();
        merged
    }

    /// Runs the merge policy on every shard concurrently; returns merges
    /// performed.
    pub fn merge(&mut self) -> usize {
        let merged = self
            .each_engine(|engine| engine.maybe_merge())
            .into_iter()
            .flatten()
            .count();
        self.sweep_caches();
        merged
    }

    /// Reaps query-cache entries that can no longer be served — request
    /// results from superseded generations, filter lists for merged-away
    /// segments — and retargets the automatic filter-cache byte budget at
    /// ~1% of resident shard bytes. Runs after every maintenance sweep;
    /// correctness never depends on it (stale keys are unreachable by
    /// construction), it just returns their memory.
    fn sweep_caches(&self) {
        let rd = &self.reader;
        let mut gens: Vec<u64> = Vec::with_capacity(rd.shards.len());
        let mut live: Vec<FastSet<SegmentId>> = Vec::with_capacity(rd.shards.len());
        let mut shard_bytes = 0usize;
        for slot in &rd.shards {
            // The published snapshot *is* the state the caches are keyed
            // by (queries key entries off pinned views), so the sweep
            // reads it directly — no engine lock.
            let snap = slot.snapshots.pin();
            gens.push(snap.search_generation());
            let mut ids = fast_set();
            for seg in snap.segments() {
                ids.insert(seg.id);
                shard_bytes += seg.size_bytes();
            }
            live.push(ids);
        }
        let cached_entries = || {
            let (filter, request) = rd.cache_stats();
            filter.entries + request.entries
        };
        let entries_before = rd.telemetry.enabled().then(cached_entries);
        if let Some(rc) = &rd.request_cache {
            rc.retain(|k| gens.get(k.0 as usize).is_some_and(|&g| g == k.1));
        }
        if let Some(fc) = &rd.filter_cache {
            fc.retain(|k| live.get(k.0 as usize).is_some_and(|ids| ids.contains(&k.1)));
        }
        if let Some(before) = entries_before {
            let entries = cached_entries();
            rd.telemetry.emit(
                EventKind::CacheSweep {
                    evicted: before.saturating_sub(entries),
                    entries,
                },
                Labels::none(),
                NO_PARENT,
            );
        }
        if let (Some(fc), 0) = (&rd.filter_cache, self.config.query_cache_bytes) {
            fc.set_budget(auto_filter_budget(shard_bytes));
        }
    }

    /// Executes a SQL query (see [`EsdbReader::query`]).
    pub fn query(&self, sql: &str) -> Result<QueryRows> {
        self.reader.query(sql)
    }

    /// Executes SQL with explicit options (see
    /// [`EsdbReader::query_opts`]).
    pub fn query_opts(&self, sql: &str, opts: QueryOptions) -> Result<QueryRows> {
        self.reader.query_opts(sql, opts)
    }

    /// Executes an aggregate SQL query (see [`EsdbReader::aggregate`]).
    pub fn aggregate(&self, sql: &str) -> Result<AggResult> {
        self.reader.aggregate(sql)
    }

    /// Executes an aggregate query with explicit options (see
    /// [`EsdbReader::aggregate_opts`]).
    pub fn aggregate_opts(&self, sql: &str, opts: QueryOptions) -> Result<AggResult> {
        self.reader.aggregate_opts(sql, opts)
    }

    /// Point lookup by routing triple (see [`EsdbReader::get`]).
    pub fn get(
        &self,
        tenant: TenantId,
        record: RecordId,
        created_at: TimestampMs,
    ) -> Option<Document> {
        self.reader.get(tenant, record, created_at)
    }

    /// Pins the current published snapshot of one shard (see
    /// [`EsdbReader::pin_snapshot`]).
    pub fn pin_snapshot(&self, shard: ShardId) -> Arc<ShardSnapshot> {
        self.reader.pin_snapshot(shard)
    }

    /// A clone of the instance's read handle: same shards, caches,
    /// router, counters and telemetry. Readers query concurrently from
    /// other threads while this instance keeps writing — see
    /// [`EsdbReader`].
    pub fn reader(&self) -> EsdbReader {
        self.reader.clone()
    }

    /// A clone of the instance's write handle: same shards, router,
    /// workload monitor, accounting and telemetry. Writer clones ingest
    /// concurrently from other threads while this instance (and any
    /// [`EsdbReader`]) keeps operating — see [`EsdbWriter`].
    pub fn writer(&self) -> EsdbWriter {
        self.writer.clone()
    }

    /// The read span for a tenant right now.
    pub fn read_span(&self, tenant: TenantId) -> ShardSpan {
        self.reader.router.span(tenant, self.reader.clock.now())
    }

    /// Snapshot of committed rules (for inspection).
    pub fn rule_count(&self) -> usize {
        self.writer.state.rules.read().len()
    }

    /// Clone of the committed rule list, in insertion order (the
    /// server's `/admin/rules` endpoint renders this).
    pub fn rules_snapshot(&self) -> Vec<SecondaryHashingRule> {
        self.writer.state.rules.read().rules().to_vec()
    }

    /// Live migration state, one entry per tenant whose span ever grew
    /// under this instance (the server's `/admin/migrations` endpoint
    /// renders this). Terminal entries stay until the tenant migrates
    /// again.
    pub fn migrations_snapshot(&self) -> Vec<MigrationStatus> {
        self.writer.state.migrations.statuses()
    }

    /// Advances every live migration one lifecycle phase (commit-wait →
    /// handoff → drain → cutover). Normally driven by balancer epochs;
    /// exposed for deterministic stepping in tests and operations.
    pub fn step_migrations(&mut self) {
        step_migrations(&self.writer.state);
    }

    /// Drives every live migration to completion — or to a blocked
    /// commit-wait when the activation timestamp is still in the
    /// future. Returns how many migrations reached `Done`.
    pub fn drive_migrations(&mut self) -> usize {
        let done = |statuses: &[MigrationStatus]| {
            statuses
                .iter()
                .filter(|s| s.phase == MigrationPhase::Done)
                .count()
        };
        let before = done(&self.writer.state.migrations.statuses());
        loop {
            let snapshot = self.writer.state.migrations.statuses();
            if !snapshot.iter().any(|s| s.phase.is_active()) {
                break;
            }
            step_migrations(&self.writer.state);
            if self.writer.state.migrations.statuses() == snapshot {
                break;
            }
        }
        done(&self.writer.state.migrations.statuses()) - before
    }

    /// Aborts every live migration: staged plans and tails are dropped,
    /// the balancer re-armed. Committed rules stay (spans never
    /// shrink); unmoved rows remain readable at their old placement.
    /// Returns how many migrations were aborted.
    pub fn abort_migrations(&mut self) -> usize {
        let _step = self.writer.state.migrations.step_lock.lock();
        let tenants: Vec<TenantId> = self
            .writer
            .state
            .migrations
            .entries()
            .iter()
            .filter(|e| e.phase.is_active())
            .map(|e| e.tenant)
            .collect();
        for t in &tenants {
            abort_migration(&self.writer.state, *t);
        }
        tenants.len()
    }

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

    /// Like [`Esdb::stats`], but monotone fields — writes, queries,
    /// per-shard busy time, cache hit/miss/eviction counters — are
    /// returned as **deltas since the previous `take_stats` call** (or
    /// since open), while level fields (docs, segments, bytes, rules,
    /// cache residency, parallelism) stay absolute. Lets callers poll
    /// for per-interval rates without keeping their own baselines.
    pub fn take_stats(&mut self) -> EsdbStats {
        let current = self.stats();
        let base = &self.stats_base;
        let mut out = current.clone();
        out.writes = current.writes.saturating_sub(base.writes);
        out.write_errors = current.write_errors.saturating_sub(base.write_errors);
        out.queries = current.queries.saturating_sub(base.queries);
        out.block_queries = current.block_queries.saturating_sub(base.block_queries);
        out.scalar_queries = current.scalar_queries.saturating_sub(base.scalar_queries);
        for (i, v) in out.shard_busy_micros.iter_mut().enumerate() {
            *v = v.saturating_sub(base.shard_busy_micros.get(i).copied().unwrap_or(0));
        }
        out.filter_cache = cache_delta(&current.filter_cache, &base.filter_cache);
        out.request_cache = cache_delta(&current.request_cache, &base.request_cache);
        out.requests_rejected = current
            .requests_rejected
            .saturating_sub(&base.requests_rejected);
        self.stats_base = current;
        out
    }

    /// The shared telemetry facade (registry, slow-query log, config).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.reader.telemetry
    }

    /// The workload monitor feeding the balancer. The network front-end
    /// shares this as its skew signal, so admission control sheds the
    /// same hot tenants the balancer would grow shard spans for.
    pub fn workload_monitor(&self) -> Arc<WorkloadMonitor> {
        Arc::clone(&self.writer.state.monitor)
    }

    /// The clock this instance runs on. Components layered on top (the
    /// network front-end's token buckets) share it so a
    /// [`esdb_common::ManualClock`] drives engine and admission
    /// decisions in lockstep.
    pub fn clock(&self) -> SharedClock {
        self.reader.clock.clone()
    }

    /// Current slow-query log contents, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQueryEntry> {
        self.reader.telemetry.slow_queries()
    }

    /// Current slow-write log contents, oldest first.
    pub fn slow_writes(&self) -> Vec<SlowWriteEntry> {
        self.reader.telemetry.slow_writes()
    }

    /// One-call postmortem artifact: serializes the refreshed metrics
    /// snapshot, the journal tail, both slow-path logs, the engine
    /// configuration, and the committed rule list into a single JSON
    /// document (`bundle.to_json()`).
    pub fn debug_bundle(&self) -> DebugBundle {
        let mut bundle = DebugBundle::from_telemetry(&self.reader.telemetry, 512);
        // Replace the raw snapshot with the instance-refreshed one so
        // cache/rule gauges are current.
        bundle.metrics = self.telemetry_snapshot();
        let c = &self.config;
        bundle.config = vec![
            ("n_shards".to_string(), c.n_shards.to_string()),
            (
                "routing".to_string(),
                format!("\"{}\"", json_escape(&format!("{:?}", c.routing))),
            ),
            (
                "balance_every_writes".to_string(),
                c.balance_every_writes.to_string(),
            ),
            (
                "refresh_buffer_docs".to_string(),
                c.refresh_buffer_docs.to_string(),
            ),
            ("parallelism".to_string(), c.parallelism.to_string()),
            (
                "query_cache_bytes".to_string(),
                c.query_cache_bytes.to_string(),
            ),
            (
                "request_cache_entries".to_string(),
                c.request_cache_entries.to_string(),
            ),
            (
                "trace_sample_every".to_string(),
                c.telemetry.trace_sample_every.to_string(),
            ),
            (
                "slow_query_threshold_us".to_string(),
                c.telemetry.slow_query_threshold_us.to_string(),
            ),
            (
                "slow_write_threshold_us".to_string(),
                c.telemetry.slow_write_threshold_us.to_string(),
            ),
            (
                "tail_capture".to_string(),
                c.telemetry.tail_capture.to_string(),
            ),
            (
                "journal_capacity".to_string(),
                c.telemetry.journal_capacity.to_string(),
            ),
            ("commit_wait_ms".to_string(), c.commit_wait_ms.to_string()),
            (
                "migration_tail_max_ops".to_string(),
                c.migration_tail_max_ops.to_string(),
            ),
        ];
        bundle.rules = {
            let rules = self.writer.state.rules.read();
            let mut out = String::from("[");
            for (i, r) in rules.rules().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let tenants: Vec<String> = r.tenants.iter().map(|t| t.0.to_string()).collect();
                out.push_str(&format!(
                    "{{\"effective_time\": {}, \"offset\": {}, \"tenants\": [{}]}}",
                    r.effective_time,
                    r.offset,
                    tenants.join(", ")
                ));
            }
            out.push(']');
            out
        };
        bundle.migrations = statuses_to_json(&self.migrations_snapshot());
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

    /// Per-shard live-doc counts (for balance inspection).
    pub fn shard_doc_counts(&self) -> Vec<usize> {
        self.reader
            .shards
            .iter()
            .map(|slot| slot.engine.read().stats().live_docs)
            .collect()
    }
}

/// Applies `ops` to `shard` under one hold of its engine lock (one
/// translog append batch) and does the full monitor/stats/tail-capture
/// accounting before releasing it. `stop_on_error` is the batch
/// semantics: the first failing op stops the group; single-op
/// submissions pass `false`. Returns how many ops applied and the first
/// error, if any.
fn apply_to_shard(
    ws: &WriteState,
    shard: ShardId,
    ops: &[WriteOp],
    stop_on_error: bool,
    trace_id: u64,
) -> (usize, Option<EsdbError>) {
    let slot = &ws.shards[shard.index()];
    let mut lock_wait_ns = 0;
    let mut engine = match slot.engine.try_write() {
        Some(engine) => engine,
        None => {
            // Contended: only now start the wait clock, so uncontended
            // submissions never pay for it.
            let wait_t0 = ws.timers.as_ref().map(|_| Instant::now());
            let engine = slot.engine.write();
            if let (Some(t), Some(t0)) = (&ws.timers, wait_t0) {
                lock_wait_ns = elapsed_ns(t0);
                t.lock_wait.record(lock_wait_ns);
            }
            engine
        }
    };
    let t0 = Instant::now();
    let results = engine.apply_group(ops, stop_on_error);
    let mut applied = 0usize;
    let mut first_err = None;
    let mut translog_bytes = 0u64;
    // Only the ops that actually applied count toward the monitor and
    // the write totals; a stopped group's unattempted tail counts
    // toward neither total.
    for (op, r) in ops.iter().zip(results) {
        match r {
            Ok(()) => {
                applied += 1;
                let (tenant, _, _) = op.routing();
                let bytes = op.doc.approx_size() as u64;
                translog_bytes += bytes;
                // Migration tail capture, at the op's success point and
                // still under the engine lock (capture order = apply
                // order): while a handoff is in flight, pre-rule ops
                // that just landed at an old placement are recorded
                // (with the shard they hit) so cutover can re-route
                // them. One atomic load when no migration is active.
                if ws.migrations.any_active() {
                    ws.migrations.capture(op, shard.0);
                }
                ws.monitor
                    .record_write(tenant, shard, NodeId(shard.0 % ws.node_count), bytes);
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    ws.writes_total.fetch_add(applied as u64, Ordering::Relaxed);
    ws.writes_since_balance
        .fetch_add(applied as u64, Ordering::Relaxed);
    if first_err.is_some() {
        ws.write_errors_total.fetch_add(1, Ordering::Relaxed);
    }
    drop(engine);
    let held_ns = elapsed_ns(t0);
    slot.busy_micros
        .fetch_add(held_ns / 1_000, Ordering::Relaxed);
    if let Some(t) = &ws.timers {
        t.group_size.record(ops.len() as u64);
        t.drain_total.record(held_ns);
        if first_err.is_some() {
            t.write_errors.inc();
        }
        if held_ns >= ws.telemetry.slow_write_threshold_ns() {
            ws.telemetry.log_slow_write(SlowWriteEntry {
                trace_id,
                shard: shard.0,
                ops: ops.len() as u32,
                lock_wait_ns,
                translog_bytes,
                total_ns: held_ns,
            });
        }
    }
    (applied, first_err)
}

/// Claims a balancing epoch if one is due: the writer whose
/// compare-exchange resets the counter runs the pass; everyone else
/// carries on immediately. At most one writer balances per epoch and no
/// writer ever waits on another's pass.
fn maybe_rebalance_shared(ws: &WriteState) {
    if ws.balance_every_writes == 0 {
        return;
    }
    loop {
        let n = ws.writes_since_balance.load(Ordering::Acquire);
        if n < ws.balance_every_writes {
            return;
        }
        if ws
            .writes_since_balance
            .compare_exchange(n, 0, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            rebalance_pass(ws);
            return;
        }
    }
}

/// One balancing pass (Algorithm 1 runtime phase): harvest the monitor
/// window, ask the balancer for grow-rules, commit them effective now
/// for *future* records. Takes no engine lock — writers keep flowing
/// while rules change under them.
fn rebalance_pass(ws: &WriteState) -> usize {
    if !ws.dynamic_routing {
        return 0;
    }
    // Journal the epoch bracket so the flight recorder shows who claimed
    // the pass and what it committed; the rule events parent onto the
    // balancer's hot-tenant detections.
    let claim = ws.telemetry.enabled().then(|| {
        let epoch = ws.rebalance_epochs.fetch_add(1, Ordering::Relaxed) + 1;
        let seq = ws.telemetry.emit(
            EventKind::RebalanceEpochClaimed { epoch },
            Labels::none(),
            NO_PARENT,
        );
        (epoch, seq)
    });
    let period = ws.monitor.take_period();
    let proposals = ws.balancer.lock().on_period(&period);
    let committed = proposals.len();
    if committed > 0 {
        let t = ws.clock.now();
        // Commit-wait (§4.2 on the live clock): the rule activates at
        // `commit + wait`, so every participant — however skewed within
        // the wait — agrees on which side of the rule a record falls
        // before any record can carry a timestamp past it.
        let t_eff = t + ws.commit_wait_ms;
        let commit_t0 = claim.map(|_| Instant::now());
        let mut rules = ws.rules.write();
        // Spans before the commit, read under the same write-lock hold
        // so the old→new transition is exact.
        let old_spans: Vec<u32> = proposals
            .iter()
            .map(|p| rules.offset_for_write(p.tenant, t))
            .collect();
        LoadBalancer::commit_direct(&proposals, &mut rules, t_eff);
        drop(rules);
        let commit_wait_ns = commit_t0.map_or(0, elapsed_ns);
        for (p, old_span) in proposals.iter().zip(old_spans) {
            // Durable before acted on: a crash from here on replays the
            // rule at open, so acked writes routed by it stay routable.
            let _ = ws.rules_log.append_rule(p.tenant, p.offset, t_eff);
            let started_seq = if claim.is_some() {
                let rule_seq = ws.telemetry.emit(
                    EventKind::RuleAppended {
                        tenant: p.tenant.0,
                        old_span,
                        new_span: p.offset,
                        commit_wait_ns,
                    },
                    Labels::tenant(p.tenant.0),
                    p.detected_seq,
                );
                ws.telemetry.emit(
                    EventKind::MigrationStarted {
                        tenant: p.tenant.0,
                        old_span,
                        new_span: p.offset,
                        effective_time: t_eff,
                    },
                    Labels::tenant(p.tenant.0),
                    rule_seq,
                )
            } else {
                NO_PARENT
            };
            // The committed rule becomes a live migration: the tenant's
            // pre-rule rows will be handed off to the widened span.
            ws.migrations.register(MigrationEntry {
                tenant: p.tenant,
                old_span,
                new_span: p.offset,
                effective_time: t_eff,
                last_seq: started_seq,
                phase: MigrationPhase::CommitWait,
                plan: None,
                tail: Vec::new(),
                capturing: false,
                overflowed: false,
                needs_recovery: false,
                rows_moved: 0,
                bytes_shipped: 0,
                segments_shipped: 0,
                tail_ops: 0,
            });
        }
    }
    if let Some((epoch, claim_seq)) = claim {
        ws.telemetry.emit(
            EventKind::RebalanceEpochCompleted {
                epoch,
                rules_committed: committed as u32,
            },
            Labels::none(),
            claim_seq,
        );
    }
    // Advance every live migration one lifecycle phase. Each pass moves
    // commit-wait → handoff/draining, and the next pass performs the
    // cutover, so a migration completes within two rebalance epochs
    // without any writer ever blocking on the export.
    step_migrations(ws);
    committed
}

/// Advances every live migration one lifecycle phase. Serialized by the
/// table's step lock (`try_lock`: concurrent epochs skip stepping, they
/// never wait), so each phase transition runs exactly once.
fn step_migrations(ws: &WriteState) {
    let Some(_step) = ws.migrations.step_lock.try_lock() else {
        return;
    };
    // Snapshot the active tenants; the entries lock is never held
    // across engine work (the write path's capture hook needs it).
    let pending: Vec<TenantId> = ws
        .migrations
        .entries()
        .iter()
        .filter(|e| e.phase.is_active())
        .map(|e| e.tenant)
        .collect();
    for tenant in pending {
        step_one_migration(ws, tenant);
    }
}

/// One phase transition for one tenant's migration.
fn step_one_migration(ws: &WriteState, tenant: TenantId) {
    let (phase, t_eff, new_span, overflowed, needs_recovery) = {
        let entries = ws.migrations.entries();
        let Some(e) = entries
            .iter()
            .find(|e| e.tenant == tenant && e.phase.is_active())
        else {
            return;
        };
        (
            e.phase,
            e.effective_time,
            e.new_span,
            e.overflowed,
            e.needs_recovery,
        )
    };
    match phase {
        MigrationPhase::CommitWait => {
            // Nothing moves until the live clock passes the rule's
            // activation timestamp: after that, no new record can carry
            // a timestamp on the old side of the rule.
            if ws.clock.now() >= t_eff {
                begin_handoff(ws, tenant, t_eff, new_span);
            }
        }
        MigrationPhase::Handoff | MigrationPhase::Draining => {
            if overflowed {
                abort_migration(ws, tenant);
            } else {
                perform_cutover(ws, tenant, t_eff, new_span);
            }
        }
        MigrationPhase::Cutover => {
            // Only reachable when a cutover attempt failed *after* its
            // durable intent was logged: completion is owed, run the
            // idempotent logical completion (retried every step until
            // it lands).
            if needs_recovery {
                if let Ok(rows) = complete_cutover_by_scan(ws, tenant, new_span, t_eff) {
                    finish_migration_done(ws, tenant, rows, 0, 0);
                }
            }
        }
        MigrationPhase::Done | MigrationPhase::Aborted => {}
    }
}

/// Commit-wait elapsed → export the tenant's pre-rule rows into
/// per-destination shipped segments while writes keep flowing.
fn begin_handoff(ws: &WriteState, tenant: TenantId, t_eff: TimestampMs, new_span: u32) {
    // 1. Tail capture on FIRST: a pre-rule write landing between here
    //    and the snapshot pins appears in both the export and the tail,
    //    and re-applying it at cutover is idempotent. The reverse order
    //    would lose writes that land just after the pin.
    {
        let mut entries = ws.migrations.entries();
        let Some(e) = entries
            .iter_mut()
            .find(|e| e.tenant == tenant && e.phase.is_active())
        else {
            return;
        };
        e.phase = MigrationPhase::Handoff;
        e.capturing = true;
    }
    // 2. The widened span covers every historical placement
    //    (consecutive spans nest) and `now >= effective_time`, so the
    //    current read span is the full source set.
    let source_shards: Vec<ShardId> = ws.router.span(tenant, ws.clock.now()).iter().collect();
    // 3. Refresh sources so buffered rows are in the pinned snapshots,
    //    then export — per-destination segments built entirely outside
    //    the engine locks.
    for s in &source_shards {
        ws.shards[s.index()].with_write(|e| e.refresh());
    }
    let sources: Vec<(u32, Arc<ShardSnapshot>)> = source_shards
        .iter()
        .map(|s| (s.0, ws.shards[s.index()].snapshots.pin()))
        .collect();
    let mut indexed: FastSet<String> = fast_set();
    for (_, snap) in &sources {
        for attr in snap.indexed_attrs() {
            indexed.insert(attr.clone());
        }
    }
    let n = ws.n_shards;
    let plan = build_handoff(&sources, &ws.schema, &indexed, tenant, t_eff, &|d| {
        place(tenant, d.record_id, new_span, n).0
    });
    // 4. Stage the plan; the migration drains its tail until cutover.
    let segments = plan.shipments.len() as u32;
    let (rows, bytes) = (plan.rows_total, plan.bytes_total);
    let mut entries = ws.migrations.entries();
    let Some(e) = entries
        .iter_mut()
        .find(|e| e.tenant == tenant && e.phase.is_active())
    else {
        return;
    };
    if ws.telemetry.enabled() {
        e.last_seq = ws.telemetry.emit(
            EventKind::MigrationSegmentsShipped {
                tenant: tenant.0,
                segments,
                rows,
                bytes,
            },
            Labels::tenant(tenant.0),
            e.last_seq,
        );
    }
    e.segments_shipped = segments;
    e.bytes_shipped = bytes;
    e.plan = Some(plan);
    e.phase = MigrationPhase::Draining;
}

/// The cutover: barrier writes, make the placement switch durable and
/// visible, release. Readers that overlap the window retry (the
/// migration version is bumped on entry and exit).
fn perform_cutover(ws: &WriteState, tenant: TenantId, t_eff: TimestampMs, new_span: u32) {
    let t0 = Instant::now();
    // No new write permits; wait out the in-flight ones. On return, no
    // write is between routing and apply anywhere.
    ws.migrations.close_write_barrier();
    ws.migrations.bump_version();
    // Durable intent: once this line is synced, completion is
    // inevitable — a crash re-runs the idempotent completion at open.
    // A failed sync aborts instead: nothing has moved yet.
    if ws
        .rules_log
        .append_cutover(tenant, new_span, t_eff)
        .is_err()
    {
        ws.migrations.bump_version();
        ws.migrations.open_write_barrier();
        abort_migration(ws, tenant);
        return;
    }
    let (plan, tail) = {
        let mut entries = ws.migrations.entries();
        let Some(e) = entries
            .iter_mut()
            .find(|e| e.tenant == tenant && e.phase.is_active())
        else {
            ws.migrations.bump_version();
            ws.migrations.open_write_barrier();
            return;
        };
        e.capturing = false;
        e.phase = MigrationPhase::Cutover;
        (e.plan.take(), std::mem::take(&mut e.tail))
    };
    let plan = plan.unwrap_or(HandoffPlan {
        shipments: Vec::new(),
        exported: Vec::new(),
        rows_total: 0,
        bytes_total: 0,
    });
    let tail_ops = tail.len() as u64;
    match apply_cutover(ws, tenant, new_span, plan, &tail) {
        Ok(rows_moved) => {
            ws.migrations.bump_version();
            ws.migrations.open_write_barrier();
            finish_migration_done(ws, tenant, rows_moved, tail_ops, elapsed_ns(t0));
        }
        Err(_) => {
            // The intent is durable, so completion is owed. Release the
            // barrier for liveness and flag the entry: the next step —
            // or the next open — runs the logical completion.
            {
                let mut entries = ws.migrations.entries();
                if let Some(e) = entries
                    .iter_mut()
                    .find(|e| e.tenant == tenant && e.phase.is_active())
                {
                    e.needs_recovery = true;
                }
            }
            ws.migrations.bump_version();
            ws.migrations.open_write_barrier();
        }
    }
}

/// The cutover body, runnable only inside the closed write barrier:
/// adopt shipments, re-route the captured tail, flush destinations
/// durable, tombstone sources, switch routing.
fn apply_cutover(
    ws: &WriteState,
    tenant: TenantId,
    new_span: u32,
    plan: HandoffPlan,
    tail: &[(WriteOp, u32)],
) -> Result<u64> {
    let HandoffPlan {
        shipments,
        exported,
        rows_total,
        ..
    } = plan;
    let mut rows_moved = rows_total;
    let mut dests: FastSet<u32> = fast_set();
    // 1. Destinations adopt the shipped segments: searchable in their
    //    published views immediately, durable at the flush below.
    for s in shipments {
        let dest = s.dest;
        ws.shards[dest as usize].with_write(|e| e.adopt_segment(s.segment));
        dests.insert(dest);
    }
    // 2. Re-apply the captured tail at the new placement, in capture
    //    order. Ops already at their new home are left alone; moved
    //    inserts/updates queue a tombstone for their source copy,
    //    deletes propagate to the (possibly shipped) destination copy.
    let mut source_dels: Vec<(u32, WriteOp)> = Vec::new();
    for (op, applied_shard) in tail {
        let (k1, k2, tc) = op.routing();
        let dest = place(k1, k2, new_span, ws.n_shards).0;
        if dest == *applied_shard {
            continue;
        }
        ws.shards[dest as usize].with_write(|e| e.apply(op))?;
        dests.insert(dest);
        rows_moved += 1;
        if !matches!(op.kind, WriteKind::Delete) {
            source_dels.push((*applied_shard, WriteOp::delete(k1, k2, tc)));
        }
    }
    // 3. Destinations durable BEFORE any source copy disappears — every
    //    row has at least one durable home at every instant. (Flush
    //    refreshes internally, so adopted segments and tail rows become
    //    visible and persisted together.)
    for d in &dests {
        ws.shards[*d as usize].with_write(|e| e.flush())?;
    }
    // 4. Tombstone every copy that left a source shard.
    let mut sources: FastSet<u32> = fast_set();
    for (src, op) in &source_dels {
        ws.shards[*src as usize].with_write(|e| e.apply(op))?;
        sources.insert(*src);
    }
    for ex in &exported {
        for (rid, created_at) in &ex.rows {
            let del = WriteOp::delete(tenant, RecordId(*rid), *created_at);
            ws.shards[ex.source as usize].with_write(|e| e.apply(&del))?;
        }
        sources.insert(ex.source);
    }
    for s in &sources {
        ws.shards[*s as usize].with_write(|e| e.flush())?;
    }
    // 5. Routing switch: `offset_for_write` now returns the migrated
    //    offset for ANY creation time, so point ops on pre-rule records
    //    route to their new placement. Then the durable completion.
    ws.rules.write().mark_migrated(tenant, new_span);
    let _ = ws.rules_log.append_migrated(tenant, new_span);
    Ok(rows_moved)
}

/// Idempotent logical completion of a cutover whose intent is durable:
/// scan every shard for the tenant's pre-rule rows, move each to its
/// new-span placement, tombstone the rest. Used at open (crash between
/// the `cutover` and `migrated` log lines) and when a live cutover
/// attempt fails mid-flight.
fn complete_cutover_by_scan(
    ws: &WriteState,
    tenant: TenantId,
    new_span: u32,
    t_eff: TimestampMs,
) -> Result<u64> {
    // Everything searchable first: translog recovery leaves rows
    // buffered, and the scan below reads published snapshots.
    for slot in &ws.shards {
        slot.with_write(|e| e.refresh());
    }
    // record → (copy to keep, shards holding a copy). A crash
    // mid-cutover can leave a row at both its source and destination;
    // the destination copy wins — it may carry tail ops the source
    // never saw.
    let mut copies: FastMap<u64, (Document, Vec<u32>)> = fast_map();
    for (i, slot) in ws.shards.iter().enumerate() {
        let shard = i as u32;
        let snap = slot.snapshots.pin();
        let mut seen_here: FastSet<u64> = fast_set();
        for seg in snap.segments() {
            for (_, doc) in seg.live_docs() {
                if doc.tenant_id != tenant || doc.created_at > t_eff {
                    continue;
                }
                let rid = doc.record_id.raw();
                if !seen_here.insert(rid) {
                    continue;
                }
                let entry = copies
                    .entry(rid)
                    .or_insert_with(|| (doc.clone(), Vec::new()));
                entry.1.push(shard);
                if place(tenant, doc.record_id, new_span, ws.n_shards).0 == shard {
                    entry.0 = doc.clone();
                }
            }
        }
    }
    let mut moves: Vec<(u32, WriteOp)> = Vec::new();
    let mut dels: Vec<(u32, WriteOp)> = Vec::new();
    for (_, (doc, holders)) in copies {
        let dest = place(tenant, doc.record_id, new_span, ws.n_shards).0;
        for h in &holders {
            if *h != dest {
                dels.push((*h, WriteOp::delete(tenant, doc.record_id, doc.created_at)));
            }
        }
        if !holders.contains(&dest) {
            moves.push((dest, WriteOp::insert(doc)));
        }
    }
    let rows_moved = moves.len() as u64;
    // Same ordering discipline as the live cutover: destination copies
    // durable before any source copy disappears.
    let mut dests: FastSet<u32> = fast_set();
    for (dest, op) in &moves {
        ws.shards[*dest as usize].with_write(|e| e.apply(op))?;
        dests.insert(*dest);
    }
    for d in &dests {
        ws.shards[*d as usize].with_write(|e| e.flush())?;
    }
    let mut sources: FastSet<u32> = fast_set();
    for (src, op) in &dels {
        ws.shards[*src as usize].with_write(|e| e.apply(op))?;
        sources.insert(*src);
    }
    for s in &sources {
        ws.shards[*s as usize].with_write(|e| e.flush())?;
    }
    ws.rules.write().mark_migrated(tenant, new_span);
    ws.migrations.bump_version();
    let _ = ws.rules_log.append_migrated(tenant, new_span);
    Ok(rows_moved)
}

/// Marks one migration `Done`: journal chain (tail drained → cutover →
/// completed) and the `esdb_migration_*` counters.
fn finish_migration_done(
    ws: &WriteState,
    tenant: TenantId,
    rows_moved: u64,
    tail_ops: u64,
    cutover_ns: u64,
) {
    let (old_span, new_span, parent, segments, bytes) = {
        let mut entries = ws.migrations.entries();
        let Some(e) = entries
            .iter_mut()
            .find(|e| e.tenant == tenant && e.phase.is_active())
        else {
            return;
        };
        e.rows_moved += rows_moved;
        let out = (
            e.old_span,
            e.new_span,
            e.last_seq,
            e.segments_shipped,
            e.bytes_shipped,
        );
        ws.migrations.finish(e, MigrationPhase::Done);
        out
    };
    if ws.telemetry.enabled() {
        let drained = ws.telemetry.emit(
            EventKind::MigrationTailDrained {
                tenant: tenant.0,
                ops: tail_ops,
            },
            Labels::tenant(tenant.0),
            parent,
        );
        let cut = ws.telemetry.emit(
            EventKind::MigrationCutover {
                tenant: tenant.0,
                rows_moved,
                tail_ops,
                cutover_ns,
            },
            Labels::tenant(tenant.0),
            drained,
        );
        ws.telemetry.emit(
            EventKind::MigrationCompleted {
                tenant: tenant.0,
                old_span,
                new_span,
            },
            Labels::tenant(tenant.0),
            cut,
        );
        let registry = ws.telemetry.registry();
        registry
            .counter("esdb_migration_segments_moved_total", Labels::none())
            .add(segments as u64);
        registry
            .counter("esdb_migration_bytes_shipped_total", Labels::none())
            .add(bytes);
        registry
            .counter("esdb_migration_rows_moved_total", Labels::none())
            .add(rows_moved);
        registry
            .counter("esdb_migration_tail_ops_total", Labels::none())
            .add(tail_ops);
        registry
            .histogram("esdb_migration_cutover_ns", Labels::none())
            .record(cutover_ns);
        registry
            .counter("esdb_migration_completed_total", Labels::none())
            .inc();
    }
}

/// Aborts one migration: staged plan and tail dropped, capture off, the
/// balancer re-armed. The committed rule stays — the append-only list
/// keeps the span grown for future records, old rows simply never move,
/// and read-your-writes holds throughout (the read span still covers
/// every historical placement).
fn abort_migration(ws: &WriteState, tenant: TenantId) {
    let (new_span, parent, phase) = {
        let mut entries = ws.migrations.entries();
        let Some(e) = entries
            .iter_mut()
            .find(|e| e.tenant == tenant && e.phase.is_active())
        else {
            return;
        };
        let out = (e.new_span, e.last_seq, e.phase.as_str());
        ws.migrations.finish(e, MigrationPhase::Aborted);
        out
    };
    ws.balancer.lock().on_abort(tenant, new_span);
    ws.migrations.bump_version();
    if ws.telemetry.enabled() {
        ws.telemetry.emit(
            EventKind::MigrationAborted {
                tenant: tenant.0,
                phase,
            },
            Labels::tenant(tenant.0),
            parent,
        );
        ws.telemetry
            .registry()
            .counter("esdb_migration_aborted_total", Labels::none())
            .inc();
    }
}

/// A clone-able write handle over a live [`Esdb`] instance — the
/// write-side twin of [`EsdbReader`], and the instance's one write
/// state: [`Esdb::writer`] clones it and [`Esdb::write`] and friends
/// forward to it.
///
/// Every clone shares the same shards, router/rules, workload monitor,
/// and atomic write accounting via `Arc`, so N threads ingest
/// concurrently through `&self` methods. Writers routed to different
/// shards proceed fully in parallel; writers colliding on the same shard
/// take turns on its engine lock, each applying its own ops (one
/// translog append batch, one monitor/stats pass) per hold. A hot
/// tenant is relieved by spreading it over more shards (dynamic
/// secondary hashing) and by batching in the write client
/// ([`crate::WriteBatcher`], §3.1), not by the lock.
///
/// Errors — chaos `WriteFault` injection included — surface to the
/// caller and are counted in [`EsdbStats::write_errors`].
#[derive(Clone)]
pub struct EsdbWriter {
    state: Arc<WriteState>,
    executor: Executor,
}

impl EsdbWriter {
    /// Inserts a document, returning the shard it was routed to.
    pub fn insert(&self, doc: Document) -> Result<ShardId> {
        self.write(WriteOp::insert(doc))
    }

    /// Updates an existing record (routing triple must match the
    /// original creation time, §4.2).
    pub fn update(&self, doc: Document) -> Result<ShardId> {
        self.write(WriteOp::update(doc))
    }

    /// Deletes a record by routing triple.
    pub fn delete(
        &self,
        tenant: TenantId,
        record: RecordId,
        created_at: TimestampMs,
    ) -> Result<ShardId> {
        self.write(WriteOp::delete(tenant, record, created_at))
    }

    /// Applies a raw write operation: route, apply under the shard's
    /// engine lock, surface the op's error. The single-op twin of
    /// [`EsdbWriter::write_batch`] — same apply, same monitor/stats
    /// accounting (both live in [`apply_to_shard`]).
    pub fn write(&self, op: WriteOp) -> Result<ShardId> {
        let ws = &*self.state;
        let t0 = ws.timers.as_ref().map(|_| Instant::now());
        let (tenant, record, created_at) = op.routing();
        // The permit covers route → apply, so a migration cutover switching
        // placements can barrier until no write is between the two. It must
        // be released before the rebalance hook: the claiming writer may
        // run the cutover itself, and the barrier waits on permits.
        let permit = ws.migrations.begin_write();
        let shard = ws.router.route(tenant, record, created_at);
        let (_, first_err) = apply_to_shard(ws, shard, std::slice::from_ref(&op), false, 0);
        drop(permit);
        if let Some(e) = first_err {
            return Err(e);
        }
        if let (Some(t), Some(t0)) = (&ws.timers, t0) {
            t.write_total.record(elapsed_ns(t0));
        }
        maybe_rebalance_shared(ws);
        Ok(shard)
    }

    /// Flushes a [`crate::WriteBatcher`]'s coalesced operations into the
    /// database (the write-client workload-batching path, §3.1).
    ///
    /// Operations are routed first, grouped by destination shard, and
    /// each group applied under a single acquisition of its shard's
    /// lock — groups for different shards run concurrently on the
    /// executor. Returns how many operations each shard received.
    pub fn write_batch(&self, batcher: &mut crate::WriteBatcher) -> Result<BatchApplied> {
        let ws = &*self.state;
        let ops = batcher.flush();
        let t0 = ws.timers.as_ref().map(|_| Instant::now());
        // Same tail-capture split as the query path: every batch buffers a
        // span tree when tail capture is on; only head-sampled batches feed
        // the per-stage histograms.
        let (capture, sampled) = ws.telemetry.trace_decision();
        let trace = capture.then(QueryTrace::new);
        // Route every op up front into a pre-sized bucket table indexed by
        // shard — O(ops) assembly no matter how many shards are hit.
        // Grouping preserves arrival order within each shard, which is all
        // replay semantics require (cross-shard order carries no meaning
        // once routed).
        let mut buckets: Vec<Vec<WriteOp>> = Vec::new();
        buckets.resize_with(ws.n_shards as usize, Vec::new);
        // One permit for the whole batch: routing below and application on
        // the executor both happen under it, so no op of the batch can
        // straddle a migration cutover's placement switch. Released before
        // the rebalance hook (the barrier waits on permits).
        let permit = ws.migrations.begin_write();
        {
            let _span = trace.as_ref().map(|t| t.span("batch_group", 0));
            for op in ops {
                let (tenant, record, created_at) = op.routing();
                let shard = ws.router.route(tenant, record, created_at);
                buckets[shard.index()].push(op);
            }
        }
        // Bucket order keeps `per_shard` ascending by shard.
        let groups: Vec<(ShardId, Vec<WriteOp>)> = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, ops)| !ops.is_empty())
            .map(|(s, ops)| (ShardId(s as u32), ops))
            .collect();
        let trace_ref = trace.as_ref();
        let trace_id = trace_ref.map_or(0, QueryTrace::trace_id);
        // Each group applies as far as it can; a failing op stops its own
        // shard's group but other shards still land and are accounted.
        let outcomes = self.executor.map(&groups, |_, (shard, ops)| {
            let _span = trace_ref.map(|t| t.span_for_shard("apply", 0, Some(shard.0)));
            apply_to_shard(ws, *shard, ops, true, trace_id)
        });
        drop(permit);
        let mut applied = BatchApplied::default();
        let mut first_err = None;
        for ((shard, _), (n, err)) in groups.iter().zip(outcomes) {
            applied.total += n;
            applied.per_shard.push((*shard, n));
            if first_err.is_none() {
                first_err = err;
            }
        }
        if let (Some(t), Some(t0)) = (&ws.timers, t0) {
            t.batch_total.record(elapsed_ns(t0));
        }
        if let Some(trace) = trace {
            if sampled {
                ws.telemetry
                    .record_stages("esdb_write_stage_ns", &trace.into_samples());
            }
        }
        maybe_rebalance_shared(ws);
        // The first error (by shard order) surfaces only after every
        // group's outcome has been counted — no silent partial batches.
        match first_err {
            Some(e) => Err(e),
            None => Ok(applied),
        }
    }
}

/// A clone-able, thread-safe read handle over a live [`Esdb`] instance:
/// the instance's one read state. [`Esdb::reader`] clones it and
/// [`Esdb::query`] and friends forward to it, so every read — through
/// the instance or through a handle on another thread — runs the same
/// pipeline against the same pinned snapshots, cache tiers, routing
/// rules and telemetry, and never waits on a shard engine lock.
///
/// A clone captures the parallelism degree at creation; routing rules
/// and published snapshots are shared live.
#[derive(Clone)]
pub struct EsdbReader {
    schema: CollectionSchema,
    n_shards: u32,
    shards: Vec<Arc<ShardSlot>>,
    migrations: Arc<MigrationTable>,
    /// Tier-1: per-segment posting lists of cacheable sub-plans
    /// (`None` when disabled by config).
    filter_cache: Option<Arc<SegmentFilterCache>>,
    /// Tier-2: whole per-shard result sets, keyed by search generation
    /// (`None` when disabled by config).
    request_cache: Option<Arc<ShardedCache<RequestCacheKey, Arc<QueryRows>>>>,
    executor: Executor,
    router: Arc<Router>,
    clock: SharedClock,
    queries_total: Arc<AtomicU64>,
    block_queries_total: Arc<AtomicU64>,
    scalar_queries_total: Arc<AtomicU64>,
    telemetry: Arc<Telemetry>,
    timers: Option<CoreTimers>,
}

impl EsdbReader {
    /// Executes a SQL query (parse → Xdriver4ES translate → route to the
    /// tenant's shard span → optimize → execute → gather).
    ///
    /// The read path is lock-free: each shard of the fan-out pins the
    /// shard's published snapshot once and executes entirely against it —
    /// the per-shard engine lock is never taken, so concurrent
    /// maintenance (refresh, merge, flush) neither blocks nor is blocked
    /// by queries.
    pub fn query(&self, sql: &str) -> Result<QueryRows> {
        self.query_opts(sql, QueryOptions::default())
    }

    /// Executes SQL with explicit options (the Fig. 17 harness turns the
    /// optimizer off through this; benches pin the executor by toggling
    /// `block_execution`).
    pub fn query_opts(&self, sql: &str, opts: QueryOptions) -> Result<QueryRows> {
        run_read(self, sql, opts, false, run_query)
    }

    /// Executes an aggregate SQL query (`SELECT COUNT(*)/SUM/AVG/MIN/MAX
    /// ... [GROUP BY col]`). Pushdown-eligible plans compute mergeable
    /// per-shard partials straight from columnar doc values — no stored
    /// payload is ever materialized ([`AggResult::payload_reads`] stays
    /// 0); other plans fall back to materializing matching rows and
    /// aggregating them at the coordinator with the scalar reference
    /// semantics. Both paths produce identical rows.
    pub fn aggregate(&self, sql: &str) -> Result<AggResult> {
        self.aggregate_opts(sql, QueryOptions::default())
    }

    /// Executes an aggregate query with explicit options
    /// (`block_execution: false` forces the scalar fallback — the oracle
    /// the block path is gated against).
    pub fn aggregate_opts(&self, sql: &str, opts: QueryOptions) -> Result<AggResult> {
        run_read(self, sql, opts, true, run_agg_query)
    }

    /// Point lookup by routing triple against the routed shard's pinned
    /// snapshot (lock-free; sees data as of the last refresh, like a
    /// query). Fenced like a query: waits out a migration cutover and
    /// retries if the routing version moved between route and pin.
    pub fn get(
        &self,
        tenant: TenantId,
        record: RecordId,
        created_at: TimestampMs,
    ) -> Option<Document> {
        loop {
            self.migrations.wait_read_stable();
            let v = self.migrations.version();
            let shard = self.router.route(tenant, record, created_at);
            let doc = self.shards[shard.index()]
                .snapshots
                .pin()
                .get_record(record.raw())
                .cloned();
            if self.migrations.version() == v {
                return doc;
            }
        }
    }

    /// Pins the current published snapshot of one shard. The returned
    /// view answers identically forever, no matter what the engine does
    /// afterwards.
    pub fn pin_snapshot(&self, shard: ShardId) -> Arc<ShardSnapshot> {
        self.shards[shard.index()].snapshots.pin()
    }

    /// The collection schema.
    pub fn schema(&self) -> &CollectionSchema {
        &self.schema
    }

    /// `(filter, request)` cache counters; all zero for a disabled tier.
    fn cache_stats(&self) -> (CacheStats, CacheStats) {
        (
            self.filter_cache
                .as_ref()
                .map_or_else(CacheStats::default, |c| c.stats()),
            self.request_cache
                .as_ref()
                .map_or_else(CacheStats::default, |c| c.stats()),
        )
    }
}

/// One attempt of a read inside the migration fence: the routed span,
/// the shared plan, and the trace, handed to the shard bodies of
/// [`run_query`] / [`run_agg_query`].
struct Scatter<'a> {
    rd: &'a EsdbReader,
    query: &'a Query,
    opts: QueryOptions,
    plan: &'a Plan,
    prepared: &'a PreparedPlan<'a>,
    fp: u128,
    shards: &'a [ShardId],
    trace: Option<&'a QueryTrace>,
    /// Head-sampled (feeds the per-stage histograms), as opposed to
    /// captured only for the slow log.
    sampled: bool,
}

impl Scatter<'_> {
    /// Runs `body` once per shard of the span on the executor, results
    /// in span order (so gathers are deterministic for any parallelism
    /// degree). Around the body: pin the shard's published snapshot —
    /// the read path's only synchronization, two ref-count bumps under a
    /// sub-microsecond cell lock — build the tier-1 filter-cache context
    /// (namespaced by shard: segment ids repeat across shards), charge
    /// the lock-free execution time to the shard's busy counter, and
    /// push the shard's spans in one batch. Span boundaries reuse the
    /// busy-accounting clock reads, so tail capture costs one mutex
    /// round-trip and no extra `now` call per shard.
    ///
    /// Every shard reports an `execute` sample — cache hits and empty
    /// result sets included — so a gather over k shards always sees
    /// exactly k samples. The body returns, besides its result, the
    /// trace offset at which its request-cache probe ended (a
    /// `cache_probe` span) and the block set operations' own wall time
    /// (a `block_prune` span), each when it has one.
    fn per_shard<T: Send>(
        &self,
        body: impl Fn(
                ShardId,
                &ShardSnapshot,
                Option<&FilterCacheContext<'_>>,
            ) -> (T, Option<u64>, Option<u64>)
            + Sync,
    ) -> Vec<T> {
        let rd = self.rd;
        rd.executor.map(self.shards, |_, shard| {
            let slot = &rd.shards[shard.index()];
            let t_busy = Instant::now();
            let snap = slot.snapshots.pin();
            let ctx = rd.filter_cache.as_deref().map(|cache| FilterCacheContext {
                cache,
                shard: shard.0,
            });
            let (out, probe_end, prune_ns) = body(*shard, snap.as_ref(), ctx.as_ref());
            let t_end = Instant::now();
            if let Some(t) = self.trace {
                let s0 = t.offset_of(t_busy);
                let end = t.offset_of(t_end);
                let sh = Some(shard.0);
                let mut batch = [("", 0, sh, 0, 0); 3];
                let mut n = 0;
                if let Some(probe_end) = probe_end {
                    batch[n] = ("cache_probe", 0, sh, s0, probe_end.saturating_sub(s0));
                    n += 1;
                }
                if let Some(prune) = prune_ns {
                    batch[n] = ("block_prune", 0, sh, end.saturating_sub(prune), prune);
                    n += 1;
                }
                batch[n] = ("execute", 0, sh, s0, end.saturating_sub(s0));
                t.record_span_batch(&batch[..=n]);
            }
            slot.busy_micros.fetch_add(
                t_end.duration_since(t_busy).as_micros() as u64,
                Ordering::Relaxed,
            );
            out
        })
    }
}

/// The frame every read shares (parse → translate → shape check → route
/// → plan → scatter → gather), lock-free end to end. `body` is the part
/// that differs between row queries and aggregates: it scatters over the
/// span, gathers, and reports the block counters iff the block executor
/// served the read.
fn run_read<R>(
    rd: &EsdbReader,
    sql: &str,
    opts: QueryOptions,
    aggregate: bool,
    body: impl Fn(&Scatter<'_>) -> (R, Option<esdb_index::BlockStats>),
) -> Result<R> {
    let query = translate(parse_sql(sql)?);
    if query.table != rd.schema.name {
        return Err(EsdbError::UnknownCollection(query.table));
    }
    if query.is_aggregate() != aggregate {
        return Err(EsdbError::Plan(
            if aggregate {
                "aggregate() requires an aggregate select list (COUNT/SUM/AVG/MIN/MAX)"
            } else {
                "aggregate select lists run through aggregate(), not query()"
            }
            .into(),
        ));
    }
    rd.queries_total.fetch_add(1, Ordering::Relaxed);
    let t0 = rd.timers.as_ref().map(|_| Instant::now());
    // Tail-based capture: head-sampled reads feed the per-stage
    // histograms; with tail capture on, *every* read buffers its span
    // tree so a slow one keeps the full trace even when unsampled.
    let (capture, sampled) = rd.telemetry.trace_decision();
    let trace = capture.then(QueryTrace::new);
    // Record sub-attribute usage for frequency-based indexing (shared
    // tracker — no engine lock).
    record_attr_usage(&query.filter, &rd.shards);
    // Migration fence: the span is read here, the snapshots are pinned
    // later — a cutover between the two could hide rows mid-move. The
    // attempt retries whenever the migration version moves underneath
    // it (bumped on cutover entry AND exit, so any overlap is seen).
    let (result, blocks, plan, fp, fanout) = loop {
        rd.migrations.wait_read_stable();
        let mv0 = rd.migrations.version();
        // Route: the tenant's span when the filter pins `tenant_id`,
        // otherwise every shard. The route and plan stages share clock
        // reads at their boundary and land in one batched push.
        let t_route = trace.as_ref().map(QueryTrace::now_ns);
        let span = match extract_tenant(&query.filter) {
            Some(tenant) => rd.router.span(tenant, rd.clock.now()),
            None => ShardSpan::new(0, rd.n_shards, rd.n_shards),
        };
        // Plan once per read: plans depend only on the filter and the
        // schema, so every shard of the fan-out shares one plan (and one
        // fingerprint annotation).
        let t_plan = trace.as_ref().map(QueryTrace::now_ns);
        let plan = if opts.use_optimizer {
            optimize(&query.filter, &rd.schema)
        } else {
            naive_plan(&query.filter)
        };
        if let (Some(t), Some(r0), Some(p0)) = (trace.as_ref(), t_route, t_plan) {
            let end = t.now_ns();
            t.record_span_batch(&[
                ("route", 0, None, r0, p0.saturating_sub(r0)),
                ("plan", 0, None, p0, end.saturating_sub(p0)),
            ]);
        }
        let span_shards: Vec<ShardId> = span.iter().collect();
        let fp = query_fingerprint(&plan, &query);
        let (result, blocks) = body(&Scatter {
            rd,
            query: &query,
            opts,
            plan: &plan,
            prepared: &PreparedPlan::new(&plan),
            fp,
            shards: &span_shards,
            trace: trace.as_ref(),
            sampled,
        });
        if rd.migrations.version() == mv0 {
            break (result, blocks, plan, fp, span_shards.len() as u32);
        }
    };
    // Count the read against the executor that served it, in both the
    // instance stats and (when telemetry is on) the metrics registry.
    match blocks {
        Some(_) => rd.block_queries_total.fetch_add(1, Ordering::Relaxed),
        None => rd.scalar_queries_total.fetch_add(1, Ordering::Relaxed),
    };
    let total_ns = t0.map(elapsed_ns);
    if let (Some(t), Some(ns)) = (&rd.timers, total_ns) {
        t.record_exec_path(blocks.as_ref());
        let total = if aggregate {
            &t.agg_total
        } else {
            &t.query_total
        };
        total.record(ns);
    }
    let trace_id = trace.as_ref().map_or(0, QueryTrace::trace_id);
    let samples = trace.map(QueryTrace::into_samples);
    // Histogram feeding keeps the 1-in-N head-sampling volume; the
    // buffered span tree of an unsampled read exists only to ride
    // along with a slow-log entry (or be dropped for free).
    if sampled {
        if let Some(samples) = &samples {
            rd.telemetry.record_stages("esdb_query_stage_ns", samples);
        }
    }
    // Slow-query detection is always on when telemetry is enabled;
    // under tail capture the span tree is always populated.
    if let Some(ns) = total_ns {
        if ns >= rd.telemetry.slow_threshold_ns() {
            rd.telemetry.log_slow(SlowQueryEntry {
                trace_id,
                sql: sql.to_string(),
                plan: plan.to_string(),
                fingerprint: fp,
                tenant: extract_tenant(&query.filter).map(|t| t.0),
                fanout,
                total_ns: ns,
                stages: samples.unwrap_or_default(),
            });
        }
    }
    Ok(result)
}

/// The row-query body: per-shard result sets through the tier-2 request
/// cache, merged under ORDER BY/LIMIT.
fn run_query(sc: &Scatter<'_>) -> (QueryRows, Option<esdb_index::BlockStats>) {
    // Executor choice is made once per query, from the plan shape alone:
    // the block path runs whenever it is enabled and every residual
    // predicate is a flat comparison (no nested booleans). Both
    // executors are row-identical by construction — the scalar one stays
    // the always-available equivalence oracle.
    let use_blocks = sc.opts.block_execution && block_eligible(sc.plan);
    let request_cache = sc.rd.request_cache.as_deref();
    let shard_results = sc.per_shard(|shard, snap, ctx| {
        // Tier 2: the whole per-shard result. The generation is read
        // out of the *pinned* snapshot, so key and data always travel
        // together — a concurrent refresh between pin and probe cannot
        // pair the new generation with the old segments (or vice
        // versa).
        let key: RequestCacheKey = (shard.0, snap.search_generation(), sc.fp);
        let hit = request_cache.and_then(|rc| rc.get(&key));
        // The probe/execute boundary is the one per-shard instant the
        // busy-accounting reads can't supply. Head-sampled traces pay
        // the extra clock read for the fine-grained `cache_probe` stage
        // (it feeds the per-stage histograms); capture-only traces keep
        // the coarse tree — every stage a slow query needs — for free.
        let t_probe = sc.trace.filter(|_| sc.sampled).map(QueryTrace::now_ns);
        let rows = match hit {
            Some(hit) => (*hit).clone(),
            None => {
                let rows = if use_blocks {
                    execute_prepared_blocks_on_snapshot(sc.query, sc.prepared, snap, ctx)
                } else {
                    execute_prepared_on_snapshot(sc.query, sc.prepared, snap, ctx)
                };
                if let Some(rc) = request_cache {
                    rc.insert(key, Arc::new(rows.clone()), 1);
                }
                rows
            }
        };
        let prune_ns = use_blocks.then_some(rows.block_prune_ns);
        (rows, t_probe, prune_ns)
    });
    let _span = sc.trace.map(|t| t.span("gather", 0));
    let merged = merge_results(shard_results, sc.query.order_by.as_ref(), sc.query.limit);
    let blocks = use_blocks.then_some(merged.blocks);
    (merged, blocks)
}

/// The aggregate body. Eligible plans push the aggregation below row
/// materialization: every shard computes mergeable [`AggPartials`]
/// straight from columnar doc values against its pinned snapshot, and
/// the coordinator merges them in span order (keeping MIN/MAX
/// tie-breaking deterministic) before finishing. Ineligible plans —
/// block execution off, nested-boolean residuals, or an aggregate over a
/// column without doc values — fall back to materializing matching rows
/// per shard and aggregating once at the coordinator with the scalar
/// reference semantics. Both paths produce identical rows; only
/// `payload_reads` differs (0 under pushdown).
fn run_agg_query(sc: &Scatter<'_>) -> (AggResult, Option<esdb_index::BlockStats>) {
    let query = sc.query;
    let pushdown = sc.opts.block_execution
        && block_eligible(sc.plan)
        && aggregate_pushdown_eligible(query, &sc.rd.schema);
    if pushdown {
        let partials = sc.per_shard(|_, snap, ctx| {
            let part = aggregate_prepared_blocks_on_snapshot(query, sc.prepared, snap, ctx);
            let prune_ns = part.block_prune_ns;
            (part, None, Some(prune_ns))
        });
        let _span = sc.trace.map(|t| t.span("gather", 0));
        let mut merged = AggPartials::default();
        for p in partials {
            merged.merge(p);
        }
        let result = merged.finish(&query.aggregates, query.group_by.is_some());
        let blocks = result.blocks;
        return (result, Some(blocks));
    }
    // The scalar fallback strips the aggregate clauses off the query
    // and materializes every matching row — ORDER BY/LIMIT don't
    // apply below an aggregate, so shards return their full match
    // sets and one reference aggregation runs over the gather.
    let row_query = Query {
        aggregates: Vec::new(),
        group_by: None,
        projection: Vec::new(),
        order_by: None,
        limit: None,
        ..query.clone()
    };
    let shard_rows = sc.per_shard(|_, snap, ctx| {
        let rows = execute_prepared_on_snapshot(&row_query, sc.prepared, snap, ctx);
        (rows, None, None)
    });
    let _span = sc.trace.map(|t| t.span("gather", 0));
    let mut docs = Vec::new();
    let mut out = AggResult::default();
    for rows in shard_rows {
        out.postings_scanned += rows.postings_scanned;
        out.docs_scanned += rows.docs_scanned;
        docs.extend(rows.docs);
    }
    out.payload_reads = docs.len() as u64;
    out.rows = aggregate_rows(&docs, &query.aggregates, query.group_by.as_deref());
    (out, None)
}

/// Delta of the monotone cache counters; residency (`bytes`, `entries`)
/// stays absolute since those are levels, not totals.
fn cache_delta(current: &CacheStats, base: &CacheStats) -> CacheStats {
    CacheStats {
        hits: current.hits.saturating_sub(base.hits),
        misses: current.misses.saturating_sub(base.misses),
        evictions: current.evictions.saturating_sub(base.evictions),
        bytes: current.bytes,
        entries: current.entries,
    }
}

/// Finds a `tenant_id = <n>` equality that holds for *every* match of the
/// filter (top level or present in every OR branch).
fn extract_tenant(e: &Expr) -> Option<TenantId> {
    match e {
        Expr::Eq(col, v) if col == "tenant_id" => v.as_int().map(|i| TenantId(i as u64)),
        Expr::And(cs) => cs.iter().find_map(extract_tenant),
        Expr::Or(cs) => {
            let tenants: Vec<Option<TenantId>> = cs.iter().map(extract_tenant).collect();
            let first = tenants.first().copied().flatten()?;
            tenants.iter().all(|t| *t == Some(first)).then_some(first)
        }
        _ => None,
    }
}

fn record_attr_usage(e: &Expr, shards: &[Arc<ShardSlot>]) {
    fn collect<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
        match e {
            Expr::AttrEq(name, _) => out.push(name),
            Expr::And(cs) | Expr::Or(cs) => {
                for c in cs {
                    collect(c, out);
                }
            }
            _ => {}
        }
    }
    let mut names = Vec::new();
    collect(e, &mut names);
    if names.is_empty() {
        return;
    }
    // The tracker is shared with each engine (which reads it at refresh
    // to rank attrs), so recording here needs no engine lock.
    for slot in shards {
        let mut tracker = slot.attr_tracker.lock();
        for n in &names {
            tracker.record(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::ManualClock;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("esdb-core-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn open(name: &str, cfg: impl FnOnce(EsdbConfig) -> EsdbConfig) -> (Esdb, Arc<ManualClock>) {
        let (clock, driver) = SharedClock::manual(1_000_000);
        let db = Esdb::open_with_clock(
            CollectionSchema::transaction_logs(),
            cfg(EsdbConfig::new(tmpdir(name))),
            clock,
        )
        .unwrap();
        (db, driver)
    }

    fn doc(tenant: u64, record: u64, at: TimestampMs) -> Document {
        Document::builder(TenantId(tenant), RecordId(record), at)
            .field("status", (record % 2) as i64)
            .field("group", (record % 5) as i64)
            .field("auction_title", format!("item number {record}"))
            .build()
    }

    #[test]
    fn insert_refresh_query_roundtrip() {
        let (mut db, _) = open("roundtrip", |c| c);
        for r in 0..50 {
            db.insert(doc(10086, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        let rows = db
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 10086 AND status = 1")
            .unwrap();
        assert_eq!(rows.docs.len(), 25);
        let rows = db
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 10086 ORDER BY created_time DESC LIMIT 3")
            .unwrap();
        assert_eq!(rows.docs.len(), 3);
        assert_eq!(rows.docs[0].record_id, RecordId(49));
    }

    #[test]
    fn unknown_table_rejected() {
        let (db, _) = open("badtable", |c| c);
        assert!(matches!(
            db.query("SELECT * FROM nope"),
            Err(EsdbError::UnknownCollection(_))
        ));
    }

    #[test]
    fn cold_tenant_stays_on_one_shard() {
        let (mut db, _) = open("cold", |c| c);
        let mut shards = std::collections::HashSet::new();
        for r in 0..20 {
            shards.insert(db.insert(doc(5, r, 2_000 + r)).unwrap());
        }
        assert_eq!(shards.len(), 1, "cold tenant must not spread");
        assert_eq!(db.read_span(TenantId(5)).len, 1);
    }

    #[test]
    fn hot_tenant_spreads_after_rebalance_and_stays_readable() {
        let (mut db, driver) = open("hot", |c| c.shards(16));
        // Hot tenant dominates the monitor window.
        for r in 0..3_000u64 {
            let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
            db.insert(doc(tenant, r, driver.now() - 1)).unwrap();
        }
        db.rebalance();
        driver.advance(10);
        let span = db.read_span(TenantId(777));
        assert!(span.len > 1, "hot tenant should spread, span {span:?}");
        // New writes spread across the span.
        let mut new_shards = std::collections::HashSet::new();
        for r in 10_000..10_200u64 {
            let t = driver.now();
            new_shards.insert(db.insert(doc(777, r, t)).unwrap());
            driver.advance(1);
        }
        assert!(new_shards.len() > 1, "writes should hit multiple shards");
        db.refresh();
        // Read-your-writes: all 2700 old + 200 new rows visible.
        let rows = db
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 777")
            .unwrap();
        assert_eq!(rows.docs.len(), 2_700 + 200);
    }

    #[test]
    fn updates_route_to_original_shard_after_rule_change() {
        let (mut db, driver) = open("update-after-rule", |c| c.shards(16));
        let created = driver.now() - 1;
        let shard_before = db.insert(doc(42, 1, created)).unwrap();
        // Force a rule for tenant 42 by making it hot.
        for r in 100..2_100u64 {
            db.insert(doc(42, r, driver.now() - 1)).unwrap();
        }
        db.rebalance();
        driver.advance(10);
        assert!(db.read_span(TenantId(42)).len > 1);
        // Update the original record: same routing triple → same shard.
        let shard_after = db
            .update(
                Document::builder(TenantId(42), RecordId(1), created)
                    .field("status", 9i64)
                    .build(),
            )
            .unwrap();
        assert_eq!(
            shard_before, shard_after,
            "update must follow the original rule"
        );
        db.refresh();
        let rows = db
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 42 AND status = 9")
            .unwrap();
        assert_eq!(rows.docs.len(), 1);
        assert_eq!(rows.docs[0].record_id, RecordId(1));
    }

    #[test]
    fn delete_across_rule_change() {
        let (mut db, driver) = open("delete-after-rule", |c| c.shards(16));
        let created = driver.now() - 1;
        db.insert(doc(42, 1, created)).unwrap();
        for r in 100..2_100u64 {
            db.insert(doc(42, r, driver.now() - 1)).unwrap();
        }
        db.rebalance();
        driver.advance(10);
        db.delete(TenantId(42), RecordId(1), created).unwrap();
        db.refresh();
        let rows = db
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 42 AND record_id = 1")
            .unwrap();
        assert!(rows.docs.is_empty(), "deleted record must not resurface");
    }

    #[test]
    fn queries_without_tenant_fan_out_everywhere() {
        let (mut db, _) = open("fanout", |c| c.shards(8));
        for t in 0..20u64 {
            db.insert(doc(t, t, 3_000 + t)).unwrap();
        }
        db.refresh();
        let rows = db
            .query("SELECT * FROM transaction_logs WHERE status = 0")
            .unwrap();
        assert_eq!(rows.docs.len(), 10);
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = tmpdir("persist");
        {
            let mut db = Esdb::open(
                CollectionSchema::transaction_logs(),
                EsdbConfig::new(&dir).shards(4),
            )
            .unwrap();
            for r in 0..40 {
                db.insert(doc(9, r, 5_000 + r)).unwrap();
            }
            db.flush().unwrap();
        }
        let db = Esdb::open(
            CollectionSchema::transaction_logs(),
            EsdbConfig::new(&dir).shards(4),
        )
        .unwrap();
        let rows = db
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 9")
            .unwrap();
        assert_eq!(rows.docs.len(), 40, "all rows recovered after reopen");
    }

    #[test]
    fn hashing_and_double_modes_work() {
        let (mut db, _) = open("hashmode", |c| c.routing(RoutingMode::Hashing).shards(8));
        for r in 0..10 {
            db.insert(doc(3, r, 100 + r)).unwrap();
        }
        assert_eq!(db.read_span(TenantId(3)).len, 1);
        assert_eq!(db.rebalance(), 0, "balancer inert outside dynamic mode");

        let (mut db2, _) = open("dblmode", |c| {
            c.routing(RoutingMode::DoubleHashing(4)).shards(8)
        });
        let mut shards = std::collections::HashSet::new();
        for r in 0..50 {
            shards.insert(db2.insert(doc(3, r, 100 + r)).unwrap());
        }
        assert_eq!(db2.read_span(TenantId(3)).len, 4);
        assert!(shards.len() > 1);
    }

    #[test]
    fn stats_reflect_state() {
        let (mut db, _) = open("stats", |c| c.shards(4));
        for r in 0..30 {
            db.insert(doc(1, r, 100 + r)).unwrap();
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
    fn mixed_shard_batch_reports_per_shard_counts() {
        let (mut db, _) = open("mixed-batch", |c| c.shards(8));
        // Many tenants → ops hash to several distinct shards.
        let mut batcher = crate::WriteBatcher::new();
        for t in 0..40u64 {
            batcher.push(WriteOp::insert(doc(t, t, 9_000 + t)));
        }
        assert_eq!(batcher.accepted(), 40);
        let applied = db.write_batch(&mut batcher).unwrap();
        assert_eq!(applied.total, 40);
        assert!(
            applied.per_shard.len() > 1,
            "40 tenants should land on multiple shards: {:?}",
            applied.per_shard
        );
        let sum: usize = applied.per_shard.iter().map(|(_, n)| n).sum();
        assert_eq!(sum, 40);
        // Ascending, unique shard ids.
        let ids: Vec<u32> = applied.per_shard.iter().map(|(s, _)| s.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "per-shard counts sorted and unique");
        // Per-shard counts agree with where the data actually lives.
        assert_eq!(db.stats().writes, 40);
        db.refresh();
        for (shard, n) in &applied.per_shard {
            assert_eq!(
                db.shard_doc_counts()[shard.index()],
                *n,
                "shard {shard:?} holds its batched rows"
            );
        }
    }

    #[test]
    fn batch_and_singles_agree() {
        // The batched write path must land every op on the same shard the
        // one-at-a-time path picks.
        let (mut db_a, _) = open("batch-vs-single-a", |c| c.shards(8));
        let (mut db_b, _) = open("batch-vs-single-b", |c| c.shards(8));
        let mut batcher = crate::WriteBatcher::new();
        for t in 0..30u64 {
            let d = doc(t % 5, t, 4_000 + t);
            batcher.push(WriteOp::insert(d.clone()));
            db_b.insert(d).unwrap();
        }
        db_a.write_batch(&mut batcher).unwrap();
        db_a.refresh();
        db_b.refresh();
        assert_eq!(db_a.shard_doc_counts(), db_b.shard_doc_counts());
    }

    #[test]
    fn parallel_and_sequential_queries_agree() {
        let sqls = [
            "SELECT * FROM transaction_logs WHERE tenant_id = 777 AND status = 1 \
             ORDER BY created_time DESC LIMIT 25",
            "SELECT * FROM transaction_logs WHERE tenant_id = 777 \
             ORDER BY created_time ASC LIMIT 50",
            "SELECT * FROM transaction_logs WHERE status = 0",
        ];
        let (mut db, driver) = open("par-vs-seq", |c| c.shards(16).parallelism(1));
        for r in 0..2_500u64 {
            let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
            db.insert(doc(tenant, r, driver.now() - 1)).unwrap();
        }
        db.rebalance();
        driver.advance(10);
        for r in 2_500..2_700u64 {
            let t = driver.now();
            db.insert(doc(777, r, t)).unwrap();
            driver.advance(1);
        }
        db.refresh();
        assert!(
            db.read_span(TenantId(777)).len > 1,
            "span must be parallel-worthy"
        );
        for sql in sqls {
            assert_eq!(db.parallelism(), 1);
            let sequential = db.query(sql).unwrap();
            for degree in [2, 4, 8] {
                db.set_parallelism(degree);
                let parallel = db.query(sql).unwrap();
                assert_eq!(
                    parallel.docs, sequential.docs,
                    "row-identical results required at parallelism {degree} for {sql}"
                );
                assert_eq!(parallel.postings_scanned, sequential.postings_scanned);
                assert_eq!(parallel.docs_scanned, sequential.docs_scanned);
            }
            db.set_parallelism(1);
        }
    }

    #[test]
    fn busy_time_and_parallelism_surface_in_stats() {
        let (mut db, _) = open("busy-stats", |c| c.shards(4).parallelism(2));
        for r in 0..100 {
            db.insert(doc(1, r, 100 + r)).unwrap();
        }
        db.refresh();
        db.query("SELECT * FROM transaction_logs WHERE status = 1")
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
    fn parallel_maintenance_matches_sequential_state() {
        let mk = |name: &str, degree: usize| {
            let (mut db, _) = open(name, |c| c.shards(8).parallelism(degree));
            for r in 0..400u64 {
                db.insert(doc(r % 7, r, 1_000 + r)).unwrap();
            }
            db.refresh();
            for r in 400..800u64 {
                db.insert(doc(r % 7, r, 1_000 + r)).unwrap();
            }
            db.refresh();
            db.merge();
            db.flush().unwrap();
            db
        };
        let seq = mk("maint-seq", 1);
        let par = mk("maint-par", 4);
        assert_eq!(seq.shard_doc_counts(), par.shard_doc_counts());
        let (a, b) = (seq.stats(), par.stats());
        assert_eq!(a.live_docs, b.live_docs);
        assert_eq!(a.segments, b.segments);
    }

    #[test]
    fn query_caches_hit_and_stay_correct_across_deletes() {
        let (mut db, _) = open("cache-deletes", |c| c.shards(4));
        for r in 0..200 {
            db.insert(doc(7, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        let sql = "SELECT * FROM transaction_logs WHERE tenant_id = 7 AND status = 1 \
                   ORDER BY created_time ASC LIMIT 50";
        let first = db.query(sql).unwrap();
        assert_eq!(first.docs.len(), 50);
        let second = db.query(sql).unwrap();
        assert_eq!(second.docs, first.docs);
        let s = db.stats();
        assert!(
            s.request_cache.hits >= 1,
            "repeat query must hit tier 2: {:?}",
            s.request_cache
        );
        assert!(s.filter_cache.entries >= 1, "{:?}", s.filter_cache);
        assert!(s.filter_cache.bytes > 0);
        // Tombstone a matching row *without* a refresh: the generation
        // bump makes the tier-2 entry unreachable and the tier-1 hit is
        // re-filtered through the new liveness.
        db.delete(TenantId(7), RecordId(1), 1_001).unwrap();
        let third = db.query(sql).unwrap();
        assert!(third.docs.iter().all(|d| d.record_id != RecordId(1)));
        assert_eq!(third.docs.len(), 50, "limit refilled from later rows");
        assert_ne!(third.docs, first.docs);
    }

    #[test]
    fn caches_survive_merge_and_sweeps_reap_stale_entries() {
        let (mut db, _) = open("cache-merge", |c| c.shards(2));
        let sql = "SELECT * FROM transaction_logs WHERE tenant_id = 3 AND status = 0";
        // Four same-tier segments on the tenant's shard, so the tiered
        // policy fires.
        for round in 0..4u64 {
            for r in round * 50..(round + 1) * 50 {
                db.insert(doc(3, r, 1_000 + r)).unwrap();
            }
            db.refresh();
        }
        let before = db.query(sql).unwrap();
        db.query(sql).unwrap(); // warm both tiers
        let entries_before = db.stats().filter_cache.entries;
        assert!(entries_before >= 1);
        let merged = db.merge();
        assert!(merged >= 1, "merge policy should fold the segments");
        // The sweep reaped every entry keyed by a merged-away segment and
        // every request result from a superseded generation.
        let s = db.stats();
        assert_eq!(s.request_cache.entries, 0, "{:?}", s.request_cache);
        let after = db.query(sql).unwrap();
        assert_eq!(after.docs.len(), before.docs.len());
        let mut a: Vec<_> = after.docs.iter().map(|d| d.record_id).collect();
        let mut b: Vec<_> = before.docs.iter().map(|d| d.record_id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "merge must not change results");
    }

    #[test]
    fn disabled_caches_restore_uncached_behavior() {
        let (mut db_on, _) = open("cache-on", |c| c.shards(4));
        let (mut db_off, _) = open("cache-off", |c| c.shards(4).query_caches(false));
        for r in 0..150 {
            db_on.insert(doc(9, r, 1_000 + r)).unwrap();
            db_off.insert(doc(9, r, 1_000 + r)).unwrap();
        }
        db_on.refresh();
        db_off.refresh();
        let sqls = [
            "SELECT * FROM transaction_logs WHERE tenant_id = 9 AND status = 0",
            "SELECT * FROM transaction_logs WHERE tenant_id = 9 AND group = 3 \
             ORDER BY created_time DESC LIMIT 10",
            "SELECT * FROM transaction_logs WHERE status = 1",
        ];
        for sql in sqls {
            for _ in 0..2 {
                let a = db_on.query(sql).unwrap();
                let b = db_off.query(sql).unwrap();
                assert_eq!(a.docs, b.docs, "{sql}");
            }
        }
        let s = db_off.stats();
        assert_eq!(s.filter_cache.hits + s.filter_cache.misses, 0);
        assert_eq!(s.filter_cache.entries, 0);
        assert_eq!(s.request_cache.hits + s.request_cache.misses, 0);
        assert_eq!(s.request_cache.entries, 0);
        let s_on = db_on.stats();
        assert!(s_on.request_cache.hits >= sqls.len() as u64);
    }

    #[test]
    fn refresh_invalidates_request_cache() {
        let (mut db, _) = open("cache-refresh", |c| c.shards(2));
        for r in 0..60 {
            db.insert(doc(5, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        let sql = "SELECT * FROM transaction_logs WHERE tenant_id = 5";
        assert_eq!(db.query(sql).unwrap().docs.len(), 60);
        db.query(sql).unwrap();
        assert!(db.stats().request_cache.entries >= 1);
        // New rows become searchable at refresh; the cached result for the
        // old generation must not serve.
        for r in 60..90 {
            db.insert(doc(5, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        assert_eq!(db.stats().request_cache.entries, 0, "sweep reaped stale");
        assert_eq!(db.query(sql).unwrap().docs.len(), 90);
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
        for r in 0..40 {
            db.insert(doc(r % 6, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        // Tenantless fan-out: hits all 4 shards, most return few/no rows.
        let rows = db
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
        for r in 0..20 {
            db.insert(doc(1, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        db.query("SELECT * FROM transaction_logs WHERE tenant_id = 1")
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
    fn take_stats_returns_deltas() {
        let (mut db, _) = open("take-stats", |c| c.shards(4));
        for r in 0..10 {
            db.insert(doc(1, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        db.query("SELECT * FROM transaction_logs WHERE tenant_id = 1")
            .unwrap();
        let first = db.take_stats();
        assert_eq!(first.writes, 10);
        assert_eq!(first.queries, 1);
        assert_eq!(first.live_docs, 10, "levels stay absolute");
        for r in 10..15 {
            db.insert(doc(1, r, 1_000 + r)).unwrap();
        }
        let second = db.take_stats();
        assert_eq!(second.writes, 5, "delta since previous take");
        assert_eq!(second.queries, 0);
        assert_eq!(second.live_docs, 10, "levels stay absolute");
        assert!(
            second.shard_busy_micros.iter().sum::<u64>()
                <= first.shard_busy_micros.iter().sum::<u64>()
                    + db.stats().shard_busy_micros.iter().sum::<u64>()
        );
        // Cache *counters* are deltas, residency is a level.
        let warm = db.query("SELECT * FROM transaction_logs WHERE tenant_id = 1");
        warm.unwrap();
        db.query("SELECT * FROM transaction_logs WHERE tenant_id = 1")
            .unwrap();
        let third = db.take_stats();
        assert_eq!(third.queries, 2);
        assert!(third.request_cache.hits >= 1);
        let fourth = db.take_stats();
        assert_eq!(fourth.request_cache.hits, 0, "hit counter drained");
    }

    #[test]
    fn extract_tenant_from_or_branches() {
        use esdb_doc::FieldValue;
        let same = Expr::Or(vec![
            Expr::And(vec![
                Expr::Eq("tenant_id".into(), FieldValue::Int(7)),
                Expr::Eq("status".into(), FieldValue::Int(1)),
            ]),
            Expr::And(vec![
                Expr::Eq("tenant_id".into(), FieldValue::Int(7)),
                Expr::Eq("group".into(), FieldValue::Int(2)),
            ]),
        ]);
        assert_eq!(extract_tenant(&same), Some(TenantId(7)));
        let mixed = Expr::Or(vec![
            Expr::Eq("tenant_id".into(), FieldValue::Int(7)),
            Expr::Eq("tenant_id".into(), FieldValue::Int(8)),
        ]);
        assert_eq!(extract_tenant(&mixed), None, "different tenants → fan out");
    }

    /// Documents with enough typed fields to exercise every aggregate.
    fn rich_doc(tenant: u64, record: u64, at: TimestampMs) -> Document {
        Document::builder(TenantId(tenant), RecordId(record), at)
            .field("status", (record % 3) as i64)
            .field("group", (record % 5) as i64)
            .field("amount", esdb_doc::FieldValue::Float(record as f64 * 1.5))
            .field(
                "province",
                if record % 2 == 0 {
                    "zhejiang"
                } else {
                    "jiangsu"
                },
            )
            .field("auction_title", format!("item number {record}"))
            .build()
    }

    #[test]
    fn block_and_scalar_query_paths_agree_and_are_counted() {
        let (mut db, _) = open("block-vs-scalar", |c| c.shards(4));
        for r in 0..300u64 {
            db.insert(rich_doc(r % 6, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        let sqls = [
            "SELECT * FROM transaction_logs WHERE tenant_id = 1 AND status = 1",
            "SELECT * FROM transaction_logs WHERE status = 2 AND group = 4 \
             ORDER BY created_time DESC LIMIT 20",
            "SELECT * FROM transaction_logs WHERE amount >= 100.5 AND province = 'zhejiang'",
            "SELECT * FROM transaction_logs WHERE MATCH(auction_title, 'number') LIMIT 50",
        ];
        for sql in sqls {
            let block = db.query(sql).unwrap();
            let scalar = db
                .query_opts(
                    sql,
                    QueryOptions {
                        block_execution: false,
                        ..QueryOptions::default()
                    },
                )
                .unwrap();
            assert_eq!(block.docs, scalar.docs, "row identity for {sql}");
        }
        let s = db.stats();
        assert_eq!(s.block_queries, sqls.len() as u64, "{s:?}");
        assert_eq!(s.scalar_queries, sqls.len() as u64, "{s:?}");
        assert_eq!(s.queries, 2 * sqls.len() as u64);
    }

    #[test]
    fn aggregates_match_scalar_oracle_across_shards() {
        let (mut db, _) = open("agg-oracle", |c| c.shards(8));
        for r in 0..500u64 {
            db.insert(rich_doc(r % 7, r, 1_000 + r)).unwrap();
        }
        // Tombstones so liveness filtering is part of the equivalence.
        for r in (0..500u64).step_by(9) {
            db.delete(TenantId(r % 7), RecordId(r), 1_000 + r).unwrap();
        }
        db.refresh();
        let sqls = [
            "SELECT COUNT(*) FROM transaction_logs WHERE status = 1",
            "SELECT COUNT(*), SUM(amount), AVG(amount) FROM transaction_logs \
             WHERE tenant_id = 3",
            "SELECT MIN(created_time), MAX(created_time) FROM transaction_logs \
             WHERE province = 'jiangsu'",
            "SELECT COUNT(*), SUM(amount) FROM transaction_logs \
             WHERE status = 0 GROUP BY province",
            "SELECT COUNT(*), MIN(amount) FROM transaction_logs GROUP BY group",
            "SELECT COUNT(*) FROM transaction_logs WHERE tenant_id = 9999",
        ];
        for sql in sqls {
            let pushed = db.aggregate(sql).unwrap();
            let oracle = db
                .aggregate_opts(
                    sql,
                    QueryOptions {
                        block_execution: false,
                        ..QueryOptions::default()
                    },
                )
                .unwrap();
            assert_eq!(pushed.rows, oracle.rows, "aggregate identity for {sql}");
            assert_eq!(
                pushed.payload_reads, 0,
                "pushdown must not touch stored payloads for {sql}"
            );
        }
        let s = db.stats();
        assert_eq!(s.block_queries, sqls.len() as u64);
        assert_eq!(s.scalar_queries, sqls.len() as u64);
    }

    #[test]
    fn aggregate_api_rejects_mismatched_select_lists() {
        let (mut db, _) = open("agg-guards", |c| c.shards(2));
        db.insert(rich_doc(1, 1, 1_000)).unwrap();
        db.refresh();
        assert!(matches!(
            db.aggregate("SELECT * FROM transaction_logs WHERE status = 1"),
            Err(EsdbError::Plan(_))
        ));
        assert!(matches!(
            db.query("SELECT COUNT(*) FROM transaction_logs WHERE status = 1"),
            Err(EsdbError::Plan(_))
        ));
        // Readers share the same pipeline and guards.
        let reader = db.reader();
        assert!(matches!(
            reader.aggregate("SELECT * FROM transaction_logs"),
            Err(EsdbError::Plan(_))
        ));
        let agg = reader
            .aggregate("SELECT COUNT(*) FROM transaction_logs")
            .unwrap();
        assert_eq!(agg.rows[0].values[0], esdb_doc::FieldValue::Int(1));
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
        for r in 0..200u64 {
            db.insert(rich_doc(r % 4, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        // An OR of two index lookups plans as a Union — a block set
        // operation, so the posting-block counters advance.
        db.query("SELECT * FROM transaction_logs WHERE status = 1 OR group = 2")
            .unwrap();
        db.aggregate("SELECT COUNT(*), SUM(amount) FROM transaction_logs WHERE status = 0")
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
        db.query_opts(
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

    /// Every copy of every row the hot tenant wrote before `upto`, as
    /// `(record, shards holding it)` — the physical-placement oracle the
    /// migration tests assert collapse with.
    fn physical_copies(db: &Esdb, tenant: u64, records: u64) -> Vec<(u64, Vec<u32>)> {
        let n = db.stats().shard_busy_micros.len() as u32;
        (0..records)
            .map(|r| {
                let holders: Vec<u32> = (0..n)
                    .filter(|s| {
                        db.pin_snapshot(ShardId(*s))
                            .get_record(r)
                            .is_some_and(|d| d.tenant_id == TenantId(tenant))
                    })
                    .collect();
                (r, holders)
            })
            .collect()
    }

    #[test]
    fn live_migration_moves_rows_and_collapses_old_span() {
        let (mut db, _driver) = open("migrate-live", |c| c.shards(16));
        // Distinct creation times: ORDER BY has no ties, so row-identity
        // comparisons are insensitive to which shard each row lives on.
        for r in 0..3_000u64 {
            let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
            db.insert(doc(tenant, r, 900_000 + r)).unwrap();
        }
        db.refresh();
        let before = db
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 777 ORDER BY created_time ASC")
            .unwrap();
        // Commit the rule; the same pass starts the migration and ships
        // the segments (commit-wait is 0 on the manual clock).
        db.rebalance();
        let rule = db.rules_snapshot().last().cloned().expect("rule committed");
        assert!(rule.offset > 1);
        assert_eq!(db.drive_migrations(), 1, "one migration to completion");
        let status = db.migrations_snapshot().pop().unwrap();
        assert_eq!(status.phase, MigrationPhase::Done);
        assert_eq!(status.new_span, rule.offset);
        assert!(status.rows_moved > 0, "hot tenant rows physically moved");
        // Old span fully collapsed: every row lives at exactly its
        // new-span placement, nowhere else.
        for (r, holders) in physical_copies(&db, 777, 3_000) {
            if r % 10 >= 9 {
                continue; // other tenants' records
            }
            let dest = place(TenantId(777), RecordId(r), rule.offset, 16).0;
            assert_eq!(holders, vec![dest], "record {r} collapsed to {dest}");
        }
        // Row-identity across the cutover.
        let after = db
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 777 ORDER BY created_time ASC")
            .unwrap();
        assert_eq!(before.docs, after.docs, "cutover must not change results");
        // Point reads follow the migrated routing to the new placement.
        assert!(db.get(TenantId(777), RecordId(0), 900_000).is_some());
        // The journal carries the full parent-linked lifecycle chain.
        let events = db.telemetry().journal().tail(usize::MAX);
        let seq_of = |name: &str| events.iter().find(|e| e.kind.name() == name).map(|e| e.seq);
        let parent_of = |name: &str| {
            events
                .iter()
                .find(|e| e.kind.name() == name)
                .map(|e| e.parent_seq)
        };
        for (child, parent) in [
            ("migration_started", "rule_appended"),
            ("migration_segments_shipped", "migration_started"),
            ("migration_tail_drained", "migration_segments_shipped"),
            ("migration_cutover", "migration_tail_drained"),
            ("migration_completed", "migration_cutover"),
        ] {
            assert_eq!(
                parent_of(child).expect(child),
                seq_of(parent).expect(parent),
                "{child} must parent-link to {parent}"
            );
        }
        // Metrics surfaced and exposition stays lint-clean.
        let snap = db.telemetry_snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, _, v)| *v)
        };
        assert_eq!(counter("esdb_migration_completed_total"), Some(1));
        assert!(counter("esdb_migration_rows_moved_total").unwrap_or(0) > 0);
        let errors = esdb_telemetry::lint_prometheus(&snap.to_prometheus());
        assert!(errors.is_empty(), "prometheus lint errors: {errors:?}");
        // The debug bundle renders the terminal migration state.
        let bundle = db.debug_bundle().to_json();
        assert!(bundle.contains("\"phase\": \"done\""), "bundle: {bundle}");
    }

    #[test]
    fn migration_tail_rides_through_cutover() {
        let (mut db, driver) = open("migrate-tail", |c| c.shards(16));
        for r in 0..2_500u64 {
            let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
            db.insert(doc(tenant, r, driver.now() - 1)).unwrap();
        }
        db.rebalance(); // rule committed, handoff shipped, now Draining
        let rule = db.rules_snapshot().last().cloned().unwrap();
        // Pre-rule writes racing the drain: created before the rule's
        // effective time, landed after the export — the captured tail.
        for r in 5_000..5_040u64 {
            db.insert(doc(777, r, rule.effective_time - 1)).unwrap();
        }
        driver.advance(10);
        assert_eq!(db.drive_migrations(), 1);
        let status = db.migrations_snapshot().pop().unwrap();
        assert_eq!(status.phase, MigrationPhase::Done);
        assert!(status.tail_ops >= 40, "tail captured: {}", status.tail_ops);
        db.refresh();
        // Tail rows are exactly-once at their new placement.
        for r in 5_000..5_040u64 {
            let dest = place(TenantId(777), RecordId(r), rule.offset, 16).0;
            let holders: Vec<u32> = (0..16u32)
                .filter(|s| db.pin_snapshot(ShardId(*s)).get_record(r).is_some())
                .collect();
            assert_eq!(holders, vec![dest], "tail record {r}");
        }
        let rows = db
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 777")
            .unwrap();
        assert_eq!(rows.docs.len(), 2_250 + 40, "no loss, no duplication");
    }

    #[test]
    fn migration_abort_leaves_reads_intact_and_rearms_balancer() {
        let (mut db, driver) = open("migrate-abort", |c| c.shards(16));
        for r in 0..2_500u64 {
            let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
            db.insert(doc(tenant, r, driver.now() - 1)).unwrap();
        }
        db.refresh();
        let before = db
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 777 ORDER BY created_time ASC")
            .unwrap();
        db.rebalance();
        driver.advance(10);
        assert!(db.migrations_snapshot().iter().any(|s| s.phase.is_active()));
        assert_eq!(db.abort_migrations(), 1);
        let status = db.migrations_snapshot().pop().unwrap();
        assert_eq!(status.phase, MigrationPhase::Aborted);
        // The rule stays committed (spans never shrink) and every row is
        // still readable at its old placement.
        assert!(db.read_span(TenantId(777)).len > 1);
        let after = db
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 777 ORDER BY created_time ASC")
            .unwrap();
        assert_eq!(before.docs, after.docs, "abort must not lose rows");
        let events = db.telemetry().journal().tail(usize::MAX);
        assert!(events.iter().any(|e| e.kind.name() == "migration_aborted"));
    }

    #[test]
    fn migration_tail_overflow_aborts_instead_of_cutover() {
        let (mut db, driver) = open("migrate-overflow", |c| {
            c.shards(16).migration_tail_max_ops(0)
        });
        for r in 0..2_500u64 {
            let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
            db.insert(doc(tenant, r, driver.now() - 1)).unwrap();
        }
        db.rebalance(); // Draining, capturing
        let rule = db.rules_snapshot().last().cloned().unwrap();
        // One pre-rule write overflows the zero-length tail bound.
        db.insert(doc(777, 9_999, rule.effective_time - 1)).unwrap();
        driver.advance(10);
        assert_eq!(
            db.drive_migrations(),
            0,
            "overflow must abort, not cut over"
        );
        let status = db.migrations_snapshot().pop().unwrap();
        assert_eq!(status.phase, MigrationPhase::Aborted);
        db.refresh();
        let rows = db
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 777")
            .unwrap();
        assert_eq!(rows.docs.len(), 2_250 + 1, "acked writes survive the abort");
    }

    #[test]
    fn committed_rules_and_migrations_survive_reopen() {
        let dir = tmpdir("migrate-reopen");
        let (clock, driver) = SharedClock::manual(1_000_000);
        let rule;
        {
            let mut db = Esdb::open_with_clock(
                CollectionSchema::transaction_logs(),
                EsdbConfig::new(&dir).shards(16),
                clock.clone(),
            )
            .unwrap();
            for r in 0..2_500u64 {
                let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
                db.insert(doc(tenant, r, driver.now() - 1)).unwrap();
            }
            db.rebalance();
            driver.advance(10);
            assert_eq!(db.drive_migrations(), 1);
            rule = db.rules_snapshot().last().cloned().unwrap();
            db.flush().unwrap();
        }
        let db = Esdb::open_with_clock(
            CollectionSchema::transaction_logs(),
            EsdbConfig::new(&dir).shards(16),
            clock,
        )
        .unwrap();
        // The replayed rule list has both the rule and its migrated mark:
        // a point write on an old record routes to the *new* placement.
        assert_eq!(db.rules_snapshot().last().unwrap().offset, rule.offset);
        let rows = db
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 777")
            .unwrap();
        assert_eq!(rows.docs.len(), 2_250, "all rows visible after reopen");
        for (r, holders) in physical_copies(&db, 777, 2_500) {
            if r % 10 >= 9 {
                continue;
            }
            let dest = place(TenantId(777), RecordId(r), rule.offset, 16).0;
            assert_eq!(holders, vec![dest], "record {r} stays collapsed");
        }
    }

    #[test]
    fn interrupted_cutover_completes_at_open() {
        let dir = tmpdir("migrate-recover");
        let (clock, driver) = SharedClock::manual(1_000_000);
        let rule;
        {
            let mut db = Esdb::open_with_clock(
                CollectionSchema::transaction_logs(),
                EsdbConfig::new(&dir).shards(16),
                clock.clone(),
            )
            .unwrap();
            for r in 0..2_500u64 {
                let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
                db.insert(doc(tenant, r, driver.now() - 1)).unwrap();
            }
            // Commit the rule but kill the migration before its cutover:
            // rows stay at their old placement, the rule is durable.
            db.rebalance();
            rule = db.rules_snapshot().last().cloned().unwrap();
            db.abort_migrations();
            db.flush().unwrap();
        }
        // Simulate a crash *after* the durable cutover intent was logged
        // but before any row moved: the completion is owed at open.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("rules.log"))
                .unwrap();
            writeln!(f, "cutover {} {} {}", 777, rule.offset, rule.effective_time).unwrap();
        }
        driver.advance(10);
        let db = Esdb::open_with_clock(
            CollectionSchema::transaction_logs(),
            EsdbConfig::new(&dir).shards(16),
            clock,
        )
        .unwrap();
        // Recovery ran the idempotent completion scan: the old span is
        // collapsed and every acked row survived, exactly once.
        let rows = db
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 777")
            .unwrap();
        assert_eq!(rows.docs.len(), 2_250, "no rows lost in recovery");
        for (r, holders) in physical_copies(&db, 777, 2_500) {
            if r % 10 >= 9 {
                continue;
            }
            let dest = place(TenantId(777), RecordId(r), rule.offset, 16).0;
            assert_eq!(holders, vec![dest], "record {r} recovered to {dest}");
        }
    }

    /// `Esdb::get` is fenced like every other read: while a cutover
    /// holds the barrier closed it waits, instead of routing and pinning
    /// across the placement switch.
    #[test]
    fn get_waits_out_a_closed_cutover_barrier() {
        let (mut db, _) = open("get-fence", |c| c.shards(4));
        db.insert(doc(7, 1, 1_000)).unwrap();
        db.refresh();
        let db = &db;
        let migrations = &db.writer.state.migrations;
        migrations.close_write_barrier();
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            scope.spawn(move || tx.send(db.get(TenantId(7), RecordId(1), 1_000)));
            let early = rx.recv_timeout(std::time::Duration::from_millis(100));
            migrations.open_write_barrier();
            assert!(early.is_err(), "get returned through a closed barrier");
            let got = rx.recv_timeout(std::time::Duration::from_secs(30));
            assert!(got.expect("get returns once the barrier opens").is_some());
        });
    }
}
