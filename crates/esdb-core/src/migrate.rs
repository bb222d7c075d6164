//! Live-migration state: the data plane of the [`crate::Esdb`]
//! migration coordinator.
//!
//! A committed grow-rule widens a hot tenant's *write* span immediately
//! (dynamic secondary hashing, §4.2), but rows created before the rule
//! still live at their historical placement. The coordinator moves them
//! through a phase machine held here:
//!
//! ```text
//! CommitWait ─▶ Handoff ─▶ Draining ─▶ Cutover ─▶ Done
//!      │            │          │           │
//!      └────────────┴──────────┴───────────┴──▶ Aborted
//! ```
//!
//! * **CommitWait** — the rule is appended with an activation timestamp
//!   `effective_time = commit + commit_wait`; nothing moves until the
//!   live clock passes it, so every node's writes agree on which side of
//!   the rule a record falls (clock-skew-safe activation).
//! * **Handoff** — translog-tail capture switches on *first*, then the
//!   source shards refresh and pin snapshots, and the tenant's
//!   pre-rule rows are exported into per-destination shipped segments
//!   (`esdb-replication` physical mode). Writes keep flowing.
//! * **Draining** — the captured tail is bounded; exceeding the bound
//!   aborts rather than chasing an unbounded backlog.
//! * **Cutover** — the write barrier closes (new write permits block,
//!   in-flight permits drain), shipped segments are adopted, the tail is
//!   re-applied at the new placement, destinations are flushed durable,
//!   source copies are tombstoned, and the rule list is marked migrated
//!   so *all* future point operations route by the new span.
//! * **Done / Aborted** — terminal. Abort keeps the committed rule (the
//!   append-only list is safe: the span stays grown for future records,
//!   old rows simply never move) and re-arms the balancer via
//!   `on_abort`.
//!
//! This module owns the concurrency primitives — the write-permit
//! barrier, the reader fence, the migration version used for query
//! retry — and the durable `rules.log` that makes rule commits and
//! cutovers crash-safe. The engine-touching step logic lives next door
//! in `coordinator.rs`.

use esdb_common::{EsdbError, Result, TenantId, TimestampMs};
use esdb_doc::WriteOp;
use esdb_replication::HandoffPlan;
use esdb_telemetry::json::{obj, Json};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Lifecycle phase of one live migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Rule committed; waiting out the commit-wait window.
    CommitWait,
    /// Exporting the tenant's pre-rule rows into shipped segments.
    Handoff,
    /// Handoff staged; bounded translog tail pending cutover.
    Draining,
    /// Write barrier closed; adopting, tombstoning, switching routing.
    Cutover,
    /// Migration complete; the old span has fully collapsed.
    Done,
    /// Migration abandoned; staged state dropped, rule kept.
    Aborted,
}

impl MigrationPhase {
    /// Stable snake_case name for JSON exposition and journal payloads.
    pub fn as_str(self) -> &'static str {
        match self {
            MigrationPhase::CommitWait => "commit_wait",
            MigrationPhase::Handoff => "handoff",
            MigrationPhase::Draining => "draining",
            MigrationPhase::Cutover => "cutover",
            MigrationPhase::Done => "done",
            MigrationPhase::Aborted => "aborted",
        }
    }

    /// Whether the migration still holds coordinator state.
    pub fn is_active(self) -> bool {
        !matches!(self, MigrationPhase::Done | MigrationPhase::Aborted)
    }
}

/// Public snapshot of one migration, rendered by `/admin/migrations`
/// and `debug_bundle()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationStatus {
    /// Tenant being migrated.
    pub tenant: TenantId,
    /// Shard span before the rule.
    pub old_span: u32,
    /// Shard span after the rule.
    pub new_span: u32,
    /// Rule activation timestamp (commit + commit-wait).
    pub effective_time: TimestampMs,
    /// Current phase.
    pub phase: MigrationPhase,
    /// Rows whose placement changed (export + moved tail), so far.
    pub rows_moved: u64,
    /// Approximate bytes shipped in segments.
    pub bytes_shipped: u64,
    /// Shipped segments built.
    pub segments_shipped: u32,
    /// Translog-tail ops captured during handoff.
    pub tail_ops: u64,
}

impl MigrationStatus {
    /// One status as a JSON object (`/admin/migrations` and the debug
    /// bundle render a list of these).
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("tenant", self.tenant.0.into()),
            ("old_span", self.old_span.into()),
            ("new_span", self.new_span.into()),
            ("effective_time", self.effective_time.into()),
            ("phase", self.phase.as_str().into()),
            ("rows_moved", self.rows_moved.into()),
            ("bytes_shipped", self.bytes_shipped.into()),
            ("segments_shipped", self.segments_shipped.into()),
            ("tail_ops", self.tail_ops.into()),
        ])
    }
}

/// One live migration's coordinator state. Fields are crate-visible:
/// the step logic in `coordinator.rs` mutates entries under the table
/// lock ([`MigrationTable::with_active`]).
pub(crate) struct MigrationEntry {
    pub tenant: TenantId,
    pub old_span: u32,
    pub new_span: u32,
    pub effective_time: TimestampMs,
    /// Journal seq of the last lifecycle event, for causal chaining.
    pub last_seq: u64,
    pub phase: MigrationPhase,
    /// Staged handoff (built during Handoff, consumed at Cutover).
    pub plan: Option<HandoffPlan>,
    /// Captured translog tail: ops for this tenant with
    /// `created_at <= effective_time` that applied to source shards
    /// while the handoff was in flight, with the shard they landed on.
    pub tail: Vec<(WriteOp, u32)>,
    /// Whether the per-write tail capture hook feeds this entry.
    pub capturing: bool,
    /// The tail exceeded its bound; capture stopped and the next step
    /// must abort (ops past the bound were dropped, so cutover would
    /// lose them — abort leaves every row at its acked placement).
    pub overflowed: bool,
    /// A cutover attempt failed *after* its durable intent was logged:
    /// the next step (or the next open) must run the idempotent logical
    /// completion instead of a fresh cutover.
    pub needs_recovery: bool,
    pub rows_moved: u64,
    pub bytes_shipped: u64,
    pub segments_shipped: u32,
    /// Cumulative tail ops captured (survives the tail being consumed
    /// at cutover, for status/metrics).
    pub tail_ops: u64,
}

impl MigrationEntry {
    pub(crate) fn status(&self) -> MigrationStatus {
        MigrationStatus {
            tenant: self.tenant,
            old_span: self.old_span,
            new_span: self.new_span,
            effective_time: self.effective_time,
            phase: self.phase,
            rows_moved: self.rows_moved,
            bytes_shipped: self.bytes_shipped,
            segments_shipped: self.segments_shipped,
            tail_ops: self.tail_ops,
        }
    }
}

/// RAII write permit: holding one means a write may be anywhere between
/// routing and apply. Cutover's barrier waits for the count to reach
/// zero, so no operation can route by the old placement and land after
/// the switch.
pub(crate) struct WritePermit<'a> {
    table: &'a MigrationTable,
}

impl Drop for WritePermit<'_> {
    fn drop(&mut self) {
        self.table.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// RAII cutover window: while one is held the write barrier is closed
/// and readers wait. Dropping it bumps the migration version (so a read
/// that overlapped the window retries) and lowers the gate — the one
/// exit every path out of a cutover takes.
pub(crate) struct CutoverWindow<'a> {
    table: &'a MigrationTable,
}

impl Drop for CutoverWindow<'_> {
    fn drop(&mut self) {
        self.table.bump_version();
        self.table.gate.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Shared migration table: the entries plus the atomics the write and
/// read hot paths check. With no migration active every check is a
/// single relaxed-ish atomic load.
pub(crate) struct MigrationTable {
    entries: Mutex<Vec<MigrationEntry>>,
    /// Entries in a non-terminal phase (gates the capture hook).
    active: AtomicU64,
    /// Migrations currently inside the cutover window. While nonzero,
    /// new write permits and reads block — the seqlock's write side.
    gate: AtomicU64,
    /// Write permits outstanding.
    in_flight: AtomicU64,
    /// Bumped on every visibility transition (cutover enter/leave,
    /// abort). Readers capture it before the scatter and retry the
    /// query if it moved — the seqlock's read side.
    version: AtomicU64,
    /// Serializes coordinator stepping across threads.
    pub(crate) step_lock: Mutex<()>,
    /// Captured-tail bound; exceeding it aborts the migration.
    tail_max_ops: usize,
}

impl MigrationTable {
    pub(crate) fn new(tail_max_ops: usize) -> Self {
        MigrationTable {
            entries: Mutex::new(Vec::new()),
            active: AtomicU64::new(0),
            gate: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            version: AtomicU64::new(0),
            step_lock: Mutex::new(()),
            tail_max_ops,
        }
    }

    /// Registers a rule commit as a pending migration.
    pub(crate) fn register(&self, entry: MigrationEntry) {
        let mut entries = self.entries.lock();
        // A tenant re-proposed after an abort replaces its terminal
        // entry; concurrent active duplicates are not registered.
        if entries
            .iter()
            .any(|e| e.tenant == entry.tenant && e.phase.is_active())
        {
            return;
        }
        entries.retain(|e| e.tenant != entry.tenant || e.phase.is_active());
        entries.push(entry);
        self.active.fetch_add(1, Ordering::AcqRel);
    }

    /// Count of active migrations: the `esdb_migrations_active` gauge,
    /// and — one atomic load — the write path's capture-hook gate.
    #[inline]
    pub(crate) fn active_count(&self) -> u64 {
        self.active.load(Ordering::Acquire)
    }

    /// Acquires a write permit, blocking while a cutover is switching
    /// placements. Fast path: one load (gate) + one RMW (permit count).
    pub(crate) fn begin_write(&self) -> WritePermit<'_> {
        self.wait_gate_open();
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        WritePermit { table: self }
    }

    /// Blocks while a cutover is mid-switch — readers before they route,
    /// writers before they take a permit. Fast path: one atomic load.
    #[inline]
    pub(crate) fn wait_gate_open(&self) {
        while self.gate.load(Ordering::Acquire) > 0 {
            std::thread::yield_now();
        }
    }

    /// The migration version — capture before a scatter, compare after
    /// the gather, retry the query on mismatch.
    #[inline]
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    pub(crate) fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// Raises the cutover gate, waits until every in-flight write
    /// permit drains, and bumps the migration version. On return no
    /// write is between routing and apply; the returned window reopens
    /// the barrier when dropped.
    pub(crate) fn close_write_barrier(&self) -> CutoverWindow<'_> {
        self.gate.fetch_add(1, Ordering::AcqRel);
        while self.in_flight.load(Ordering::Acquire) > 0 {
            std::thread::yield_now();
        }
        self.bump_version();
        CutoverWindow { table: self }
    }

    /// Marks one entry terminal, decrementing the active count.
    pub(crate) fn finish(&self, entry: &mut MigrationEntry, phase: MigrationPhase) {
        debug_assert!(!phase.is_active());
        if entry.phase.is_active() {
            self.active.fetch_sub(1, Ordering::AcqRel);
        }
        entry.phase = phase;
        entry.capturing = false;
        entry.plan = None;
        entry.tail = Vec::new();
    }

    /// The tail-capture hook, called from the write path at each op's
    /// success point, under the shard's engine lock (so capture order is
    /// apply order, and capture happens before the submitter's permit
    /// releases). When the tail exceeds its bound,
    /// capture stops and the entry is flagged for abort — the op is
    /// still durable at its (old-placement) shard, and abort leaves it
    /// there, so nothing acked is ever lost.
    pub(crate) fn capture(&self, op: &WriteOp, shard: u32) {
        let (tenant, _, created_at) = op.routing();
        let mut entries = self.entries.lock();
        for e in entries.iter_mut() {
            if e.capturing && e.tenant == tenant && created_at <= e.effective_time {
                if e.tail.len() >= self.tail_max_ops {
                    e.overflowed = true;
                    e.capturing = false;
                } else {
                    e.tail.push((op.clone(), shard));
                    e.tail_ops += 1;
                }
                return;
            }
        }
    }

    /// Snapshot of every migration's public status, newest last.
    pub(crate) fn statuses(&self) -> Vec<MigrationStatus> {
        self.entries.lock().iter().map(|e| e.status()).collect()
    }

    /// Runs `f` on `tenant`'s active entry under the table lock — the
    /// coordinator's one way to read or advance a migration. `None` when
    /// the tenant has no active migration. `f` must not touch an engine:
    /// the write path's capture hook takes the same lock.
    pub(crate) fn with_active<R>(
        &self,
        tenant: TenantId,
        f: impl FnOnce(&mut MigrationEntry) -> R,
    ) -> Option<R> {
        self.entries
            .lock()
            .iter_mut()
            .find(|e| e.tenant == tenant && e.phase.is_active())
            .map(f)
    }
}

/// A replayed `rules.log`: everything needed to restore routing state
/// and finish interrupted cutovers at open.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct RulesLogReplay {
    /// Committed rules in append order: `(tenant, offset, effective_time)`.
    pub rules: Vec<(TenantId, u32, TimestampMs)>,
    /// Migrated markings in append order: `(tenant, offset)`.
    pub migrated: Vec<(TenantId, u32)>,
    /// Cutovers that began but never logged `migrated`: the recovery
    /// completion must finish these deterministically.
    pub pending_cutovers: Vec<(TenantId, u32, TimestampMs)>,
}

/// Append-only durable log of routing decisions under `data_dir`.
///
/// Three line kinds, space-separated plain text:
///
/// ```text
/// rule <tenant> <offset> <effective_time>   # committed grow-rule
/// cutover <tenant> <offset> <effective_time># cutover began (intent)
/// migrated <tenant> <offset>                # cutover finished
/// ```
///
/// `cutover` is the migration's durable commit point: once it is
/// synced, completion is inevitable — a crash before `migrated`
/// re-runs the idempotent logical completion at the next open. A crash
/// with no `cutover` line aborts the handoff (nothing durable moved;
/// the rule itself survives, so the span stays grown).
pub(crate) struct RulesLog {
    path: PathBuf,
    file: Mutex<Option<File>>,
}

impl RulesLog {
    pub(crate) fn new(data_dir: &Path) -> Self {
        RulesLog {
            path: data_dir.join("rules.log"),
            file: Mutex::new(None),
        }
    }

    fn append(&self, line: &str) -> Result<()> {
        let mut guard = self.file.lock();
        if guard.is_none() {
            if let Some(parent) = self.path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            *guard = Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)?,
            );
        }
        let f = guard.as_mut().expect("rules.log just opened");
        f.write_all(line.as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_data()?;
        Ok(())
    }

    pub(crate) fn append_rule(&self, tenant: TenantId, offset: u32, t: TimestampMs) -> Result<()> {
        self.append(&format!("rule {} {} {}", tenant.0, offset, t))
    }

    pub(crate) fn append_cutover(
        &self,
        tenant: TenantId,
        offset: u32,
        t: TimestampMs,
    ) -> Result<()> {
        self.append(&format!("cutover {} {} {}", tenant.0, offset, t))
    }

    pub(crate) fn append_migrated(&self, tenant: TenantId, offset: u32) -> Result<()> {
        self.append(&format!("migrated {} {}", tenant.0, offset))
    }

    /// Replays the log (missing file = empty state). Unparseable lines
    /// are rejected loudly — routing state is not something to guess at.
    pub(crate) fn replay(&self) -> Result<RulesLogReplay> {
        let mut out = RulesLogReplay::default();
        let file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e.into()),
        };
        let mut cutovers: Vec<(TenantId, u32, TimestampMs)> = Vec::new();
        for line in BufReader::new(file).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            let bad = || EsdbError::Config(format!("corrupt rules.log line: {line:?}"));
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            match parts.as_slice() {
                ["rule", t, s, at] => {
                    out.rules
                        .push((TenantId(num(t)?), num(s)? as u32, num(at)?));
                }
                ["cutover", t, s, at] => {
                    cutovers.push((TenantId(num(t)?), num(s)? as u32, num(at)?));
                }
                ["migrated", t, s] => {
                    let (tenant, offset) = (TenantId(num(t)?), num(s)? as u32);
                    cutovers.retain(|(ct, cs, _)| !(*ct == tenant && *cs == offset));
                    out.migrated.push((tenant, offset));
                }
                _ => return Err(bad()),
            }
        }
        out.pending_cutovers = cutovers;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("esdb-migrate-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn rules_log_roundtrip_and_pending_cutover() {
        let dir = tmp("log");
        let log = RulesLog::new(&dir);
        assert_eq!(log.replay().unwrap(), RulesLogReplay::default());
        log.append_rule(TenantId(7), 4, 1_000).unwrap();
        log.append_cutover(TenantId(7), 4, 1_000).unwrap();
        log.append_rule(TenantId(9), 2, 2_000).unwrap();
        log.append_cutover(TenantId(9), 2, 2_000).unwrap();
        log.append_migrated(TenantId(7), 4).unwrap();
        let replay = log.replay().unwrap();
        assert_eq!(
            replay.rules,
            vec![(TenantId(7), 4, 1_000), (TenantId(9), 2, 2_000)]
        );
        assert_eq!(replay.migrated, vec![(TenantId(7), 4)]);
        assert_eq!(replay.pending_cutovers, vec![(TenantId(9), 2, 2_000)]);
        // Reopen sees identical state (durability is the whole point).
        let again = RulesLog::new(&dir);
        assert_eq!(again.replay().unwrap(), replay);
    }

    #[test]
    fn corrupt_rules_log_is_rejected() {
        let dir = tmp("corrupt");
        std::fs::write(dir.join("rules.log"), "rule 1 nonsense 3\n").unwrap();
        assert!(RulesLog::new(&dir).replay().is_err());
        std::fs::write(dir.join("rules.log"), "unknown 1 2 3\n").unwrap();
        assert!(RulesLog::new(&dir).replay().is_err());
    }

    #[test]
    fn write_barrier_drains_permits() {
        let table = MigrationTable::new(10);
        let p1 = table.begin_write();
        let p2 = table.begin_write();
        drop(p1);
        let t = std::thread::spawn({
            let table: &'static MigrationTable = unsafe { std::mem::transmute(&table) };
            move || drop(table.close_write_barrier())
        });
        // The barrier cannot close while p2 is held.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!t.is_finished(), "barrier must wait for in-flight permit");
        drop(p2);
        t.join().unwrap();
        // Gate reopened: new permits come straight through.
        drop(table.begin_write());
    }

    #[test]
    fn status_json_is_stable() {
        let s = MigrationStatus {
            tenant: TenantId(7),
            old_span: 1,
            new_span: 4,
            effective_time: 1_000,
            phase: MigrationPhase::Draining,
            rows_moved: 12,
            bytes_shipped: 3_400,
            segments_shipped: 3,
            tail_ops: 2,
        };
        assert_eq!(
            s.to_json(),
            esdb_telemetry::json::parse(
                r#"{"tenant": 7, "old_span": 1, "new_span": 4, "effective_time": 1000,
                    "phase": "draining", "rows_moved": 12, "bytes_shipped": 3400,
                    "segments_shipped": 3, "tail_ops": 2}"#
            )
            .unwrap()
        );
    }
}
