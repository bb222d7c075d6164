//! The embedded ESDB instance: open/recover, maintenance and admin
//! around the read and write handles that own the data plane.

use crate::config::{EsdbConfig, RoutingMode};
use crate::coordinator::{complete_cutover_by_scan, rebalance_pass, step_migrations};
use crate::migrate::{MigrationPhase, MigrationStatus, MigrationTable, RulesLog};
use crate::read::EsdbReader;
use crate::stats::CoreTimers;
use crate::write::{EsdbWriter, ShardSlot, WriteState};
use esdb_balancer::{LoadBalancer, WorkloadMonitor};
use esdb_common::exec::Executor;
use esdb_common::fastmap::{fast_set, FastSet};
use esdb_common::{Clock, EsdbError, Result, ShardId, ShardedCache, SharedClock, TenantId};
use esdb_doc::CollectionSchema;
use esdb_index::SegmentId;
use esdb_query::SegmentFilterCache;
use esdb_routing::{
    DoubleHashRouting, DynamicRouting, HashRouting, RoutingPolicy, RuleList, SecondaryHashingRule,
    ShardSpan,
};
use esdb_storage::{ShardConfig, ShardEngine, ShardSnapshot};
use esdb_telemetry::{EventKind, Labels, SlowQueryEntry, SlowWriteEntry, Telemetry, NO_PARENT};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Floor (and pre-data default) for the automatic filter-cache budget.
const AUTO_FILTER_BUDGET_FLOOR: u64 = 256 * 1024;

/// Entry budget of the tier-2 request cache (whole per-shard result
/// sets).
const REQUEST_CACHE_ENTRIES: u64 = 1_024;

/// An embedded ESDB database: lifecycle, maintenance and admin around
/// one [`EsdbReader`] and one [`EsdbWriter`], which own the data plane.
pub struct Esdb {
    pub(crate) config: EsdbConfig,
    /// The read state (shards, caches, router, counters); `reader()`
    /// clones it.
    pub(crate) reader: EsdbReader,
    /// The write state (shards, rules, monitor/balancer, migrations,
    /// accounting); `writer()` clones it.
    pub(crate) writer: EsdbWriter,
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
        let router: Arc<dyn RoutingPolicy> = match config.routing {
            RoutingMode::Hashing => Arc::new(HashRouting::new(config.n_shards)),
            RoutingMode::DoubleHashing(s) => Arc::new(DoubleHashRouting::new(config.n_shards, s)),
            RoutingMode::Dynamic => {
                let mut r = DynamicRouting::with_rules(config.n_shards, rules.clone());
                if telemetry.enabled() {
                    r = r.with_telemetry(telemetry.registry());
                }
                Arc::new(r)
            }
        };
        let mut balancer = LoadBalancer::new(config.balancer);
        if telemetry.enabled() {
            balancer = balancer.with_journal(Arc::clone(telemetry.journal()));
        }
        let executor = Executor::new(config.parallelism);
        let filter_cache = config
            .query_caches
            .then(|| Arc::new(SegmentFilterCache::new(AUTO_FILTER_BUDGET_FLOOR)));
        let request_cache = config
            .query_caches
            .then(|| Arc::new(ShardedCache::new(REQUEST_CACHE_ENTRIES)));
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
            router: Arc::clone(&router),
            rules,
            monitor,
            balancer: Mutex::new(balancer),
            clock: clock.clone(),
            node_count: config.balancer.offset.node_count.max(1),
            balance_every_writes: config.balance_every_writes,
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

    /// Changes the scatter-gather parallelism degree at runtime (`1` =
    /// deterministic sequential, `0` = all available cores). Results are
    /// identical across degrees; only wall-clock time changes. Handles
    /// cloned before the call keep the degree they were cloned at.
    pub fn set_parallelism(&mut self, degree: usize) {
        self.reader.executor = Executor::new(degree);
        self.writer.executor = self.reader.executor.clone();
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
        if let Some(fc) = &rd.filter_cache {
            fc.set_budget(((shard_bytes / 100) as u64).max(AUTO_FILTER_BUDGET_FLOOR));
        }
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
        self.reader
            .router
            .read_span(tenant, self.reader.clock.now())
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

    /// Per-shard live-doc counts (for balance inspection).
    pub fn shard_doc_counts(&self) -> Vec<usize> {
        self.reader
            .shards
            .iter()
            .map(|slot| slot.engine.read().stats().live_docs)
            .collect()
    }
}

#[cfg(test)]
impl Esdb {
    /// The scatter-gather parallelism degree in effect.
    pub(crate) fn parallelism(&self) -> usize {
        self.reader.executor.parallelism()
    }

    /// Aborts every live migration: staged plans and tails are dropped,
    /// the balancer re-armed. Committed rules stay (spans never
    /// shrink); unmoved rows remain readable at their old placement.
    /// Returns how many migrations were aborted.
    pub(crate) fn abort_migrations(&mut self) -> usize {
        crate::coordinator::abort_migrations(&self.writer.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{doc, open, tmpdir};

    #[test]
    fn persistence_roundtrip() {
        let dir = tmpdir("persist");
        {
            let mut db = Esdb::open(
                CollectionSchema::transaction_logs(),
                EsdbConfig::new(&dir).shards(4),
            )
            .unwrap();
            let w = db.writer();
            for r in 0..40 {
                w.insert(doc(9, r, 5_000 + r)).unwrap();
            }
            db.flush().unwrap();
        }
        let db = Esdb::open(
            CollectionSchema::transaction_logs(),
            EsdbConfig::new(&dir).shards(4),
        )
        .unwrap();
        let rd = db.reader();
        let rows = rd
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 9")
            .unwrap();
        assert_eq!(rows.docs.len(), 40, "all rows recovered after reopen");
    }

    #[test]
    fn hashing_and_double_modes_work() {
        let (mut db, _) = open("hashmode", |c| c.routing(RoutingMode::Hashing).shards(8));
        let w = db.writer();
        for r in 0..10 {
            w.insert(doc(3, r, 100 + r)).unwrap();
        }
        assert_eq!(db.read_span(TenantId(3)).len, 1);
        assert_eq!(db.rebalance(), 0, "balancer inert outside dynamic mode");

        let (db2, _) = open("dblmode", |c| {
            c.routing(RoutingMode::DoubleHashing(4)).shards(8)
        });
        let w2 = db2.writer();
        let mut shards = std::collections::HashSet::new();
        for r in 0..50 {
            shards.insert(w2.insert(doc(3, r, 100 + r)).unwrap());
        }
        assert_eq!(db2.read_span(TenantId(3)).len, 4);
        assert!(shards.len() > 1);
    }

    #[test]
    fn parallel_maintenance_matches_sequential_state() {
        let mk = |name: &str, degree: usize| {
            let (mut db, _) = open(name, |c| c.shards(8).parallelism(degree));
            let w = db.writer();
            for r in 0..400u64 {
                w.insert(doc(r % 7, r, 1_000 + r)).unwrap();
            }
            db.refresh();
            for r in 400..800u64 {
                w.insert(doc(r % 7, r, 1_000 + r)).unwrap();
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
    fn caches_survive_merge_and_sweeps_reap_stale_entries() {
        let (mut db, _) = open("cache-merge", |c| c.shards(2));
        let (w, rd) = (db.writer(), db.reader());
        let sql = "SELECT * FROM transaction_logs WHERE tenant_id = 3 AND status = 0";
        // Four same-tier segments on the tenant's shard, so the tiered
        // policy fires.
        for round in 0..4u64 {
            for r in round * 50..(round + 1) * 50 {
                w.insert(doc(3, r, 1_000 + r)).unwrap();
            }
            db.refresh();
        }
        let before = rd.query(sql).unwrap();
        rd.query(sql).unwrap(); // warm both tiers
        let entries_before = db.stats().filter_cache.entries;
        assert!(entries_before >= 1);
        let merged = db.merge();
        assert!(merged >= 1, "merge policy should fold the segments");
        // The sweep reaped every entry keyed by a merged-away segment and
        // every request result from a superseded generation.
        let s = db.stats();
        assert_eq!(s.request_cache.entries, 0, "{:?}", s.request_cache);
        let after = rd.query(sql).unwrap();
        assert_eq!(after.docs.len(), before.docs.len());
        let mut a: Vec<_> = after.docs.iter().map(|d| d.record_id).collect();
        let mut b: Vec<_> = before.docs.iter().map(|d| d.record_id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "merge must not change results");
    }

    #[test]
    fn refresh_invalidates_request_cache() {
        let (mut db, _) = open("cache-refresh", |c| c.shards(2));
        let (w, rd) = (db.writer(), db.reader());
        for r in 0..60 {
            w.insert(doc(5, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        let sql = "SELECT * FROM transaction_logs WHERE tenant_id = 5";
        assert_eq!(rd.query(sql).unwrap().docs.len(), 60);
        rd.query(sql).unwrap();
        assert!(db.stats().request_cache.entries >= 1);
        // New rows become searchable at refresh; the cached result for the
        // old generation must not serve.
        for r in 60..90 {
            w.insert(doc(5, r, 1_000 + r)).unwrap();
        }
        db.refresh();
        assert_eq!(db.stats().request_cache.entries, 0, "sweep reaped stale");
        assert_eq!(rd.query(sql).unwrap().docs.len(), 90);
    }
}
