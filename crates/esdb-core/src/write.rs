//! The write client (§3.1): route each operation to its shard, apply a
//! shard's group under one hold of its engine lock, account for it, and
//! claim a balancing epoch when one is due. [`EsdbWriter`] is the
//! instance's one write front door.

use crate::coordinator::rebalance_pass;
use crate::migrate::{MigrationTable, RulesLog};
use crate::stats::{elapsed_ns, CoreTimers};
use esdb_balancer::{LoadBalancer, WorkloadMonitor};
use esdb_common::exec::Executor;
use esdb_common::{
    EsdbError, NodeId, RecordId, Result, ShardId, SharedClock, TenantId, TimestampMs,
};
use esdb_doc::{CollectionSchema, Document, WriteOp};
use esdb_index::AttrFrequencyTracker;
use esdb_routing::{RoutingPolicy, RuleList};
use esdb_storage::{ShardEngine, SnapshotCell};
use esdb_telemetry::{QueryTrace, SlowWriteEntry, Telemetry};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One shard behind its own lock, so scatter-gather paths touch shards
/// independently instead of serializing on the instance.
///
/// The engine lock guards only the *mutable* indexing state (buffer,
/// translog, segment working set). The read path never takes it: the
/// slot carries the engine's [`SnapshotCell`] and queries pin the
/// published point-in-time view from there, so maintenance holding the
/// write lock never blocks a reader and vice versa.
pub(crate) struct ShardSlot {
    pub(crate) engine: RwLock<ShardEngine>,
    /// The engine's snapshot publication point (shared with the engine;
    /// readers pin from here without touching `engine`).
    pub(crate) snapshots: Arc<SnapshotCell>,
    /// The engine's attr-frequency tracker (shared with the engine;
    /// the query path records sub-attribute usage here lock-free with
    /// respect to the engine).
    pub(crate) attr_tracker: Arc<Mutex<AttrFrequencyTracker>>,
    /// Cumulative microseconds operations spent serving this shard —
    /// write-lock hold time plus lock-free query execution time — the
    /// per-shard busy counter surfaced through
    /// [`crate::EsdbStats::shard_busy_micros`].
    pub(crate) busy_micros: AtomicU64,
}

impl ShardSlot {
    pub(crate) fn new(engine: ShardEngine) -> Arc<Self> {
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
    pub(crate) fn with_write<R>(&self, f: impl FnOnce(&mut ShardEngine) -> R) -> R {
        let t0 = Instant::now();
        let mut engine = self.engine.write();
        let r = f(&mut engine);
        self.busy_micros
            .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        r
    }
}

/// Per-shard application counts returned by [`EsdbWriter::write_batch`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchApplied {
    /// Operations applied in total.
    pub total: usize,
    /// `(shard, operations applied to it)`, ascending by shard.
    pub per_shard: Vec<(ShardId, usize)>,
}

/// Everything the shared (`&self`) write pipeline needs, held in one
/// `Arc` so every [`EsdbWriter`] clone drives the identical
/// path: same shards and engine locks, same router and rules, same
/// monitor/balancer, same atomic accounting.
pub(crate) struct WriteState {
    pub(crate) shards: Vec<Arc<ShardSlot>>,
    /// The routing policy in effect, shared with the read handle.
    pub(crate) router: Arc<dyn RoutingPolicy>,
    pub(crate) rules: Arc<RwLock<RuleList>>,
    pub(crate) monitor: Arc<WorkloadMonitor>,
    /// The balancing pass is single-entrant (one writer claims each
    /// epoch), but the mutex keeps the type honest about it.
    pub(crate) balancer: Mutex<LoadBalancer>,
    pub(crate) clock: SharedClock,
    /// Worker-node count shards map onto (from the balancer's offset
    /// policy, which models consecutive shards on consecutive nodes).
    pub(crate) node_count: u32,
    pub(crate) balance_every_writes: u64,
    pub(crate) writes_total: AtomicU64,
    pub(crate) write_errors_total: AtomicU64,
    pub(crate) writes_since_balance: AtomicU64,
    /// Monotone rebalance-epoch counter; each claimed pass gets the next
    /// number, journaled as claimed/completed event pairs.
    pub(crate) rebalance_epochs: AtomicU64,
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) timers: Option<CoreTimers>,
    /// The collection schema (the migration coordinator builds shipped
    /// segments from it).
    pub(crate) schema: CollectionSchema,
    /// Live-migration coordinator state: entries, the write-permit
    /// barrier, the reader fence, and the tail-capture hook.
    pub(crate) migrations: Arc<MigrationTable>,
    /// Durable append-only log of rule commits, cutover intents, and
    /// completions (`data_dir/rules.log`), replayed at open.
    pub(crate) rules_log: Arc<RulesLog>,
    /// Commit-wait applied to every rule's effective time.
    pub(crate) commit_wait_ms: u64,
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
                if ws.migrations.active_count() > 0 {
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

/// A clone-able write handle over a live [`crate::Esdb`] instance — the
/// write-side twin of [`crate::EsdbReader`], and the instance's one
/// write front door: [`crate::Esdb::writer`] hands out clones of it.
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
/// caller and are counted in [`crate::EsdbStats::write_errors`].
#[derive(Clone)]
pub struct EsdbWriter {
    pub(crate) state: Arc<WriteState>,
    pub(crate) executor: Executor,
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
        let shard = ws.router.route_and_mark(tenant, record, created_at);
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
        buckets.resize_with(ws.shards.len(), Vec::new);
        // One permit for the whole batch: routing below and application on
        // the executor both happen under it, so no op of the batch can
        // straddle a migration cutover's placement switch. Released before
        // the rebalance hook (the barrier waits on permits).
        let permit = ws.migrations.begin_write();
        {
            let _span = trace.as_ref().map(|t| t.span("batch_group", 0));
            for op in ops {
                let (tenant, record, created_at) = op.routing();
                let shard = ws.router.route_and_mark(tenant, record, created_at);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{doc, open};
    use esdb_common::Clock;

    #[test]
    fn cold_tenant_stays_on_one_shard() {
        let (db, _) = open("cold", |c| c);
        let w = db.writer();
        let mut shards = std::collections::HashSet::new();
        for r in 0..20 {
            shards.insert(w.insert(doc(5, r, 2_000 + r)).unwrap());
        }
        assert_eq!(shards.len(), 1, "cold tenant must not spread");
        assert_eq!(db.read_span(TenantId(5)).len, 1);
    }

    #[test]
    fn updates_route_to_original_shard_after_rule_change() {
        let (mut db, driver) = open("update-after-rule", |c| c.shards(16));
        let (w, rd) = (db.writer(), db.reader());
        let created = driver.now() - 1;
        let shard_before = w.insert(doc(42, 1, created)).unwrap();
        // Force a rule for tenant 42 by making it hot.
        for r in 100..2_100u64 {
            w.insert(doc(42, r, driver.now() - 1)).unwrap();
        }
        db.rebalance();
        driver.advance(10);
        assert!(db.read_span(TenantId(42)).len > 1);
        // Update the original record: same routing triple → same shard.
        let shard_after = w
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
        let rows = rd
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 42 AND status = 9")
            .unwrap();
        assert_eq!(rows.docs.len(), 1);
        assert_eq!(rows.docs[0].record_id, RecordId(1));
    }

    #[test]
    fn delete_across_rule_change() {
        let (mut db, driver) = open("delete-after-rule", |c| c.shards(16));
        let (w, rd) = (db.writer(), db.reader());
        let created = driver.now() - 1;
        w.insert(doc(42, 1, created)).unwrap();
        for r in 100..2_100u64 {
            w.insert(doc(42, r, driver.now() - 1)).unwrap();
        }
        db.rebalance();
        driver.advance(10);
        w.delete(TenantId(42), RecordId(1), created).unwrap();
        db.refresh();
        let rows = rd
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 42 AND record_id = 1")
            .unwrap();
        assert!(rows.docs.is_empty(), "deleted record must not resurface");
    }

    #[test]
    fn mixed_shard_batch_reports_per_shard_counts() {
        let (mut db, _) = open("mixed-batch", |c| c.shards(8));
        let w = db.writer();
        // Many tenants → ops hash to several distinct shards.
        let mut batcher = crate::WriteBatcher::new();
        for t in 0..40u64 {
            batcher.push(WriteOp::insert(doc(t, t, 9_000 + t)));
        }
        assert_eq!(batcher.accepted(), 40);
        let applied = w.write_batch(&mut batcher).unwrap();
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
        let w_a = db_a.writer();
        let (mut db_b, _) = open("batch-vs-single-b", |c| c.shards(8));
        let w_b = db_b.writer();
        let mut batcher = crate::WriteBatcher::new();
        for t in 0..30u64 {
            let d = doc(t % 5, t, 4_000 + t);
            batcher.push(WriteOp::insert(d.clone()));
            w_b.insert(d).unwrap();
        }
        w_a.write_batch(&mut batcher).unwrap();
        db_a.refresh();
        db_b.refresh();
        assert_eq!(db_a.shard_doc_counts(), db_b.shard_doc_counts());
    }
}
