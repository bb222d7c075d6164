//! The query client (§3.1): translate SQL, route to the tenant's shard
//! span, plan once, scatter over pinned snapshots, gather.
//! [`EsdbReader`] is the instance's one read front door.

use crate::migrate::MigrationTable;
use crate::stats::{elapsed_ns, CoreTimers};
use crate::write::ShardSlot;
use esdb_common::exec::Executor;
use esdb_common::{
    CacheStats, Clock, EsdbError, RecordId, Result, ShardId, ShardedCache, SharedClock, TenantId,
    TimestampMs,
};
use esdb_doc::{CollectionSchema, Document};
use esdb_query::aggregate::merge_results;
use esdb_query::naive::naive_plan;
use esdb_query::{
    aggregate_prepared_blocks_on_snapshot, aggregate_pushdown_eligible, aggregate_rows,
    block_eligible, execute_prepared_blocks_on_snapshot, execute_prepared_on_snapshot, optimize,
    parse_sql, query_fingerprint, translate, AggPartials, AggResult, Expr, FilterCacheContext,
    Plan, PreparedPlan, Query, QueryOptions, QueryRows, SegmentFilterCache,
};
use esdb_routing::{RoutingPolicy, ShardSpan};
use esdb_storage::ShardSnapshot;
use esdb_telemetry::{QueryTrace, SlowQueryEntry, Telemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Key of one tier-2 entry: `(shard, search generation, query
/// fingerprint)`. Any searchable-state change bumps the shard's
/// generation, so stale entries become unreachable immediately and are
/// reaped by the maintenance sweeps.
pub(crate) type RequestCacheKey = (u32, u64, u128);

/// A clone-able, thread-safe read handle over a live [`crate::Esdb`]
/// instance, and its one read front door: [`crate::Esdb::reader`] hands
/// out clones of it, so every read — on whichever thread — runs the same
/// pipeline against the same pinned snapshots, cache tiers, routing
/// rules and telemetry, and never waits on a shard engine lock.
///
/// A clone captures the parallelism degree at creation; routing rules
/// and published snapshots are shared live.
#[derive(Clone)]
pub struct EsdbReader {
    pub(crate) schema: CollectionSchema,
    pub(crate) shards: Vec<Arc<ShardSlot>>,
    pub(crate) migrations: Arc<MigrationTable>,
    /// Tier-1: per-segment posting lists of cacheable sub-plans
    /// (`None` when disabled by config).
    pub(crate) filter_cache: Option<Arc<SegmentFilterCache>>,
    /// Tier-2: whole per-shard result sets, keyed by search generation
    /// (`None` when disabled by config).
    pub(crate) request_cache: Option<Arc<ShardedCache<RequestCacheKey, Arc<QueryRows>>>>,
    pub(crate) executor: Executor,
    pub(crate) router: Arc<dyn RoutingPolicy>,
    pub(crate) clock: SharedClock,
    pub(crate) queries_total: Arc<AtomicU64>,
    pub(crate) block_queries_total: Arc<AtomicU64>,
    pub(crate) scalar_queries_total: Arc<AtomicU64>,
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) timers: Option<CoreTimers>,
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
    /// retries if the routing version moved between route and pin. A row
    /// of another tenant that happens to share `record` is not returned.
    pub fn get(
        &self,
        tenant: TenantId,
        record: RecordId,
        created_at: TimestampMs,
    ) -> Option<Document> {
        loop {
            self.migrations.wait_gate_open();
            let v = self.migrations.version();
            let shard = self.router.route_write(tenant, record, created_at);
            let doc = self.shards[shard.index()]
                .snapshots
                .pin()
                .get_record(record.raw())
                .filter(|doc| doc.tenant_id == tenant)
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

    /// `(filter, request)` cache counters; all zero for a disabled tier.
    pub(crate) fn cache_stats(&self) -> (CacheStats, CacheStats) {
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
        rd.migrations.wait_gate_open();
        let mv0 = rd.migrations.version();
        // Route: the tenant's span when the filter pins `tenant_id`,
        // otherwise every shard. The route and plan stages share clock
        // reads at their boundary and land in one batched push.
        let t_route = trace.as_ref().map(QueryTrace::now_ns);
        let span = match extract_tenant(&query.filter) {
            Some(tenant) => rd.router.read_span(tenant, rd.clock.now()),
            None => ShardSpan::new(0, rd.router.shard_count(), rd.router.shard_count()),
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
        // A hit shares the cached rows; a miss wraps its rows once and
        // hands the same `Arc` to the cache and the gather. The merge
        // copies only the LIMIT survivors.
        let rows = match hit {
            Some(hit) => hit,
            None => {
                let rows = Arc::new(if use_blocks {
                    execute_prepared_blocks_on_snapshot(sc.query, sc.prepared, snap, ctx)
                } else {
                    execute_prepared_on_snapshot(sc.query, sc.prepared, snap, ctx)
                });
                if let Some(rc) = request_cache {
                    rc.insert(key, Arc::clone(&rows), 1);
                }
                rows
            }
        };
        let prune_ns = use_blocks.then_some(rows.block_prune_ns);
        (rows, t_probe, prune_ns)
    });
    #[cfg(test)]
    tests::note_gather(&shard_results);
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
    use crate::testkit::{doc, open, rich_doc};

    #[test]
    fn insert_refresh_query_roundtrip() {
        let (mut db, _) = open("roundtrip", |c| c);
        let (w, rd) = (db.writer(), db.reader());
        for r in 0..50 {
            w.insert(doc(10086, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        let rows = rd
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 10086 AND status = 1")
            .unwrap();
        assert_eq!(rows.docs.len(), 25);
        let rows = rd
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 10086 ORDER BY created_time DESC LIMIT 3")
            .unwrap();
        assert_eq!(rows.docs.len(), 3);
        assert_eq!(rows.docs[0].record_id, RecordId(49));
    }

    #[test]
    fn get_returns_only_the_callers_tenant() {
        let (mut db, driver) = open("get-tenant", |c| c.shards(1));
        let (w, rd) = (db.writer(), db.reader());
        let t = driver.now();
        w.insert(doc(1, 7, t)).unwrap();
        db.refresh();
        assert!(rd.get(TenantId(1), RecordId(7), t).is_some());
        assert_eq!(rd.get(TenantId(2), RecordId(7), t), None);
    }

    #[test]
    fn unknown_table_rejected() {
        let (db, _) = open("badtable", |c| c);
        let rd = db.reader();
        assert!(matches!(
            rd.query("SELECT * FROM nope"),
            Err(EsdbError::UnknownCollection(_))
        ));
    }

    #[test]
    fn queries_without_tenant_fan_out_everywhere() {
        let (mut db, _) = open("fanout", |c| c.shards(8));
        let (w, rd) = (db.writer(), db.reader());
        for t in 0..20u64 {
            w.insert(doc(t, t, 3_000 + t)).unwrap();
        }
        db.refresh();
        let rows = rd
            .query("SELECT * FROM transaction_logs WHERE status = 0")
            .unwrap();
        assert_eq!(rows.docs.len(), 10);
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
        let w = db.writer();
        for r in 0..2_500u64 {
            let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
            w.insert(doc(tenant, r, driver.now() - 1)).unwrap();
        }
        db.rebalance();
        driver.advance(10);
        for r in 2_500..2_700u64 {
            let t = driver.now();
            w.insert(doc(777, r, t)).unwrap();
            driver.advance(1);
        }
        db.refresh();
        assert!(
            db.read_span(TenantId(777)).len > 1,
            "span must be parallel-worthy"
        );
        for sql in sqls {
            assert_eq!(db.parallelism(), 1);
            let sequential = db.reader().query(sql).unwrap();
            for degree in [2, 4, 8] {
                // A handle captures the degree it was cloned at.
                db.set_parallelism(degree);
                let parallel = db.reader().query(sql).unwrap();
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
    fn query_caches_hit_and_stay_correct_across_deletes() {
        let (mut db, _) = open("cache-deletes", |c| c.shards(4));
        let (w, rd) = (db.writer(), db.reader());
        for r in 0..200 {
            w.insert(doc(7, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        let sql = "SELECT * FROM transaction_logs WHERE tenant_id = 7 AND status = 1 \
                   ORDER BY created_time ASC LIMIT 50";
        let first = rd.query(sql).unwrap();
        assert_eq!(first.docs.len(), 50);
        let second = rd.query(sql).unwrap();
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
        w.delete(TenantId(7), RecordId(1), 1_001).unwrap();
        let third = rd.query(sql).unwrap();
        assert!(third.docs.iter().all(|d| d.record_id != RecordId(1)));
        assert_eq!(third.docs.len(), 50, "limit refilled from later rows");
        assert_ne!(third.docs, first.docs);
    }

    thread_local! {
        /// `(allocation, strong count)` of each shard result the last
        /// row query on this thread gathered.
        static GATHERED: std::cell::RefCell<Vec<(usize, usize)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    pub(super) fn note_gather(shard_results: &[Arc<QueryRows>]) {
        let seen = shard_results
            .iter()
            .map(|r| (Arc::as_ptr(r) as usize, Arc::strong_count(r)))
            .collect();
        GATHERED.with(|g| *g.borrow_mut() = seen);
    }

    #[test]
    fn cache_hits_share_the_cached_rows() {
        let (mut db, _) = open("cache-share", |c| c.shards(4));
        let (w, rd) = (db.writer(), db.reader());
        for r in 0..120 {
            w.insert(doc(7, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        let sql = "SELECT * FROM transaction_logs WHERE tenant_id = 7 \
                   ORDER BY created_time DESC LIMIT 30";
        let first = rd.query(sql).unwrap();
        let miss = GATHERED.with(|g| g.borrow().clone());
        let second = rd.query(sql).unwrap();
        let hit = GATHERED.with(|g| g.borrow().clone());
        assert_eq!(second.docs, first.docs);
        assert_eq!(first.docs.len(), 30);
        assert!(db.stats().request_cache.hits >= 1);
        // The miss handed the cache and the gather one allocation (two
        // owners); the hit gathered that same allocation, not a copy.
        assert_eq!(miss.len(), 1, "a cold tenant spans one shard");
        assert_eq!(miss[0].1, 2, "cache + gather share the miss's rows");
        assert_eq!(hit, miss, "the hit gathers the cached allocation");
    }

    #[test]
    fn disabled_caches_restore_uncached_behavior() {
        let (mut db_on, _) = open("cache-on", |c| c.shards(4));
        let (w_on, rd_on) = (db_on.writer(), db_on.reader());
        let (mut db_off, _) = open("cache-off", |c| c.shards(4).query_caches(false));
        let (w_off, rd_off) = (db_off.writer(), db_off.reader());
        for r in 0..150 {
            w_on.insert(doc(9, r, 1_000 + r)).unwrap();
            w_off.insert(doc(9, r, 1_000 + r)).unwrap();
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
                let a = rd_on.query(sql).unwrap();
                let b = rd_off.query(sql).unwrap();
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

    #[test]
    fn block_and_scalar_query_paths_agree_and_are_counted() {
        let (mut db, _) = open("block-vs-scalar", |c| c.shards(4));
        let (w, rd) = (db.writer(), db.reader());
        for r in 0..300u64 {
            w.insert(rich_doc(r % 6, r, 1_000 + r)).unwrap();
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
            let block = rd.query(sql).unwrap();
            let scalar = rd
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
        let (w, rd) = (db.writer(), db.reader());
        for r in 0..500u64 {
            w.insert(rich_doc(r % 7, r, 1_000 + r)).unwrap();
        }
        // Tombstones so liveness filtering is part of the equivalence.
        for r in (0..500u64).step_by(9) {
            w.delete(TenantId(r % 7), RecordId(r), 1_000 + r).unwrap();
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
            let pushed = rd.aggregate(sql).unwrap();
            let oracle = rd
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
        let (w, rd) = (db.writer(), db.reader());
        w.insert(rich_doc(1, 1, 1_000)).unwrap();
        db.refresh();
        assert!(matches!(
            rd.aggregate("SELECT * FROM transaction_logs WHERE status = 1"),
            Err(EsdbError::Plan(_))
        ));
        assert!(matches!(
            rd.query("SELECT COUNT(*) FROM transaction_logs WHERE status = 1"),
            Err(EsdbError::Plan(_))
        ));
        // Readers share the same pipeline and guards.
        let rdeader = db.reader();
        assert!(matches!(
            rdeader.aggregate("SELECT * FROM transaction_logs"),
            Err(EsdbError::Plan(_))
        ));
        let agg = rdeader
            .aggregate("SELECT COUNT(*) FROM transaction_logs")
            .unwrap();
        assert_eq!(agg.rows[0].values[0], esdb_doc::FieldValue::Int(1));
    }

    /// `EsdbReader::get` is fenced like every other read: while a cutover
    /// holds the barrier closed it waits, instead of routing and pinning
    /// across the placement switch.
    #[test]
    fn get_waits_out_a_closed_cutover_barrier() {
        let (mut db, _) = open("get-fence", |c| c.shards(4));
        let (w, rd) = (db.writer(), db.reader());
        w.insert(doc(7, 1, 1_000)).unwrap();
        db.refresh();
        let window = w.state.migrations.close_write_barrier();
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            scope.spawn(move || tx.send(rd.get(TenantId(7), RecordId(1), 1_000)));
            let early = rx.recv_timeout(std::time::Duration::from_millis(100));
            drop(window);
            assert!(early.is_err(), "get returned through a closed barrier");
            let got = rx.recv_timeout(std::time::Duration::from_secs(30));
            assert!(got.expect("get returns once the barrier opens").is_some());
        });
    }
}
