//! The coordinator (§3.1, §4.2): watch skew, commit secondary-hashing
//! rules, and move a grown tenant's pre-rule rows onto its widened span.
//! The phase machine's state and concurrency primitives live next door
//! in `migrate.rs`; the engine-touching steps are here.

use crate::migrate::{MigrationEntry, MigrationPhase};
use crate::stats::elapsed_ns;
use crate::write::WriteState;
use esdb_balancer::{LoadBalancer, RuleProposal};
use esdb_common::fastmap::{fast_map, fast_set, FastMap, FastSet};
use esdb_common::{Clock, RecordId, Result, ShardId, TenantId, TimestampMs};
use esdb_doc::{Document, WriteKind, WriteOp};
use esdb_replication::{build_handoff, HandoffPlan};
use esdb_routing::{place, PolicyKind};
use esdb_storage::ShardSnapshot;
use esdb_telemetry::{EventKind, Labels, NO_PARENT};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One balancing pass (Algorithm 1 runtime phase): harvest the monitor
/// window, ask the balancer for grow-rules, commit them effective now
/// for *future* records. Takes no engine lock — writers keep flowing
/// while rules change under them.
pub(crate) fn rebalance_pass(ws: &WriteState) -> usize {
    if ws.router.kind() != PolicyKind::DynamicSecondaryHashing {
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
    let mut committed = 0;
    if !proposals.is_empty() {
        let commit_t0 = claim.map(|_| Instant::now());
        // One write-lock hold covers choosing the effective time, the
        // durable append and the publish. Writers mark their `created_at`
        // under the read lock they route by, so the high-water mark read
        // here bounds every record the old list placed, and none can be
        // routed by the old list between here and the publish.
        let mut rules = ws.rules.write();
        let t = ws.clock.now();
        // Commit-wait (§4.2 on the live clock): the rule activates at
        // `commit + wait`, so every participant — however skewed within
        // the wait — agrees on which side of the rule a record falls
        // before any record can carry a timestamp past it. It also lands
        // above every routed `created_at`: a record stamped ahead of the
        // clock keeps the placement it was written at.
        let t_eff = (t + ws.commit_wait_ms).max(rules.routed_high_water() + 1);
        // Durable before visible: the rule is synced to `rules.log`
        // before any writer can route by it, so a write routed by it can
        // only be acked once a reopen would replay it. A proposal whose
        // line did not land is never committed: the balancer forgets it
        // (and may propose it again next period) and the failure is
        // counted. Each commit costs one fsync with routing paused.
        let (landed, failed): (Vec<RuleProposal>, Vec<RuleProposal>) = proposals
            .into_iter()
            .partition(|p| ws.rules_log.append_rule(p.tenant, p.offset, t_eff).is_ok());
        committed = landed.len();
        // Spans before the commit, read under the same write-lock hold
        // so the old→new transition is exact.
        let old_spans: Vec<u32> = landed
            .iter()
            .map(|p| rules.offset_for_write(p.tenant, t))
            .collect();
        LoadBalancer::commit_direct(&landed, &mut rules, t_eff);
        drop(rules);
        for p in &failed {
            ws.balancer.lock().on_abort(p.tenant, p.offset);
            ws.telemetry
                .registry()
                .counter("esdb_rule_append_errors_total", Labels::none())
                .inc();
        }
        let commit_wait_ns = commit_t0.map_or(0, elapsed_ns);
        for (p, old_span) in landed.iter().zip(old_spans) {
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

/// Tenants with a live migration, oldest first.
fn active_tenants(ws: &WriteState) -> Vec<TenantId> {
    ws.migrations
        .statuses()
        .iter()
        .filter(|s| s.phase.is_active())
        .map(|s| s.tenant)
        .collect()
}

/// Advances every live migration one lifecycle phase. Serialized by the
/// table's step lock (`try_lock`: concurrent epochs skip stepping, they
/// never wait), so each phase transition runs exactly once.
pub(crate) fn step_migrations(ws: &WriteState) {
    let Some(_step) = ws.migrations.step_lock.try_lock() else {
        return;
    };
    // The tenants are snapshotted; the table lock is never held across
    // engine work (the write path's capture hook needs it).
    for tenant in active_tenants(ws) {
        step_one_migration(ws, tenant);
    }
}

/// One phase transition for one tenant's migration.
fn step_one_migration(ws: &WriteState, tenant: TenantId) {
    let Some((phase, t_eff, new_span, overflowed, needs_recovery)) =
        ws.migrations.with_active(tenant, |e| {
            (
                e.phase,
                e.effective_time,
                e.new_span,
                e.overflowed,
                e.needs_recovery,
            )
        })
    else {
        return;
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
    let capturing = ws.migrations.with_active(tenant, |e| {
        e.phase = MigrationPhase::Handoff;
        e.capturing = true;
    });
    if capturing.is_none() {
        return;
    }
    // 2. The widened span covers every historical placement
    //    (consecutive spans nest) and `now >= effective_time`, so the
    //    current read span is the full source set.
    let source_shards: Vec<ShardId> = ws.router.read_span(tenant, ws.clock.now()).iter().collect();
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
    let n = ws.router.shard_count();
    let plan = build_handoff(&sources, &ws.schema, &indexed, tenant, t_eff, &|d| {
        place(tenant, d.record_id, new_span, n).0
    });
    // 4. Stage the plan; the migration drains its tail until cutover.
    ws.migrations.with_active(tenant, |e| {
        e.segments_shipped = plan.shipments.len() as u32;
        e.bytes_shipped = plan.bytes_total;
        if ws.telemetry.enabled() {
            e.last_seq = ws.telemetry.emit(
                EventKind::MigrationSegmentsShipped {
                    tenant: tenant.0,
                    segments: e.segments_shipped,
                    rows: plan.rows_total,
                    bytes: plan.bytes_total,
                },
                Labels::tenant(tenant.0),
                e.last_seq,
            );
        }
        e.plan = Some(plan);
        e.phase = MigrationPhase::Draining;
    });
}

/// The cutover: barrier writes, make the placement switch durable and
/// visible, release. Readers that overlap the window retry (the
/// migration version is bumped on entry and exit).
fn perform_cutover(ws: &WriteState, tenant: TenantId, t_eff: TimestampMs, new_span: u32) {
    let t0 = Instant::now();
    // No new write permits; wait out the in-flight ones. From here until
    // the window drops, no write is between routing and apply anywhere.
    let window = ws.migrations.close_write_barrier();
    // Durable intent: once this line is synced, completion is
    // inevitable — a crash re-runs the idempotent completion at open.
    // A failed sync aborts instead: nothing has moved yet.
    if ws
        .rules_log
        .append_cutover(tenant, new_span, t_eff)
        .is_err()
    {
        drop(window);
        abort_migration(ws, tenant);
        return;
    }
    let Some((plan, tail)) = ws.migrations.with_active(tenant, |e| {
        e.capturing = false;
        e.phase = MigrationPhase::Cutover;
        (e.plan.take(), std::mem::take(&mut e.tail))
    }) else {
        return;
    };
    let plan = plan.unwrap_or(HandoffPlan {
        shipments: Vec::new(),
        exported: Vec::new(),
        rows_total: 0,
        bytes_total: 0,
    });
    let tail_ops = tail.len() as u64;
    match apply_cutover(ws, tenant, new_span, plan, tail) {
        Ok(rows_moved) => {
            drop(window);
            finish_migration_done(ws, tenant, rows_moved, tail_ops, elapsed_ns(t0));
        }
        Err(_) => {
            // The intent is durable, so completion is owed. The window
            // still reopens (liveness); the flagged entry makes the next
            // step — or the next open — run the logical completion.
            ws.migrations
                .with_active(tenant, |e| e.needs_recovery = true);
        }
    }
}

/// The cutover body, runnable only inside the closed write barrier:
/// adopt shipments, re-route the captured tail, land the moves.
fn apply_cutover(
    ws: &WriteState,
    tenant: TenantId,
    new_span: u32,
    plan: HandoffPlan,
    tail: Vec<(WriteOp, u32)>,
) -> Result<u64> {
    let HandoffPlan {
        shipments,
        exported,
        rows_total,
        ..
    } = plan;
    // 1. Destinations adopt the shipped segments: searchable in their
    //    published views immediately, durable at the landing's flush.
    let mut dests: FastSet<u32> = fast_set();
    for s in shipments {
        let dest = s.dest;
        ws.shards[dest as usize].with_write(|e| e.adopt_segment(s.segment));
        dests.insert(dest);
    }
    // 2. Re-route the captured tail to the new placement, in capture
    //    order. Ops already at their new home are left alone; moved
    //    inserts/updates queue a tombstone for their source copy,
    //    deletes propagate to the (possibly shipped) destination copy.
    let mut moves: Vec<(u32, WriteOp)> = Vec::new();
    let mut source_dels: Vec<(u32, WriteOp)> = Vec::new();
    for (op, applied_shard) in tail {
        let (k1, k2, tc) = op.routing();
        let dest = place(k1, k2, new_span, ws.router.shard_count()).0;
        if dest == applied_shard {
            continue;
        }
        if !matches!(op.kind, WriteKind::Delete) {
            source_dels.push((applied_shard, WriteOp::delete(k1, k2, tc)));
        }
        moves.push((dest, op));
    }
    // 3. Every copy that left a source shard is tombstoned there: the
    //    moved tail first, then the exported rows.
    let exported_dels = exported.iter().flat_map(|ex| {
        ex.rows
            .iter()
            .map(move |(rid, at)| (ex.source, WriteOp::delete(tenant, RecordId(*rid), *at)))
    });
    let tail_moved = land_moves(
        ws,
        tenant,
        new_span,
        dests,
        moves,
        source_dels.into_iter().chain(exported_dels),
    )?;
    Ok(rows_total + tail_moved)
}

/// The common tail of every cutover, live or recovered: apply `moves` at
/// their destinations, make the destinations (`dests` plus every shard a
/// move hit) durable, only then tombstone the source copies (`dels`) and
/// make the sources durable, and switch routing. Every row keeps a
/// durable home at every instant. Returns how many moves were applied.
fn land_moves(
    ws: &WriteState,
    tenant: TenantId,
    new_span: u32,
    mut dests: FastSet<u32>,
    moves: Vec<(u32, WriteOp)>,
    dels: impl Iterator<Item = (u32, WriteOp)>,
) -> Result<u64> {
    for (dest, op) in &moves {
        ws.shards[*dest as usize].with_write(|e| e.apply(op))?;
        dests.insert(*dest);
    }
    // Flush refreshes internally, so adopted segments and moved rows
    // become visible and persisted together.
    for d in &dests {
        ws.shards[*d as usize].with_write(|e| e.flush())?;
    }
    let mut sources: FastSet<u32> = fast_set();
    for (src, op) in dels {
        ws.shards[src as usize].with_write(|e| e.apply(&op))?;
        sources.insert(src);
    }
    for s in &sources {
        ws.shards[*s as usize].with_write(|e| e.flush())?;
    }
    // Routing switch: `offset_for_write` now returns the migrated
    // offset for ANY creation time, so point ops on pre-rule records
    // route to their new placement. Then the durable completion.
    ws.rules.write().mark_migrated(tenant, new_span);
    let _ = ws.rules_log.append_migrated(tenant, new_span);
    Ok(moves.len() as u64)
}

/// Idempotent logical completion of a cutover whose intent is durable:
/// scan every shard for the tenant's pre-rule rows, move each to its
/// new-span placement, tombstone the rest. Used at open (crash between
/// the `cutover` and `migrated` log lines) and when a live cutover
/// attempt fails mid-flight.
pub(crate) fn complete_cutover_by_scan(
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
                if place(tenant, doc.record_id, new_span, ws.router.shard_count()).0 == shard {
                    entry.0 = doc.clone();
                }
            }
        }
    }
    let mut moves: Vec<(u32, WriteOp)> = Vec::new();
    let mut dels: Vec<(u32, WriteOp)> = Vec::new();
    for (_, (doc, holders)) in copies {
        let dest = place(tenant, doc.record_id, new_span, ws.router.shard_count()).0;
        for h in &holders {
            if *h != dest {
                dels.push((*h, WriteOp::delete(tenant, doc.record_id, doc.created_at)));
            }
        }
        if !holders.contains(&dest) {
            moves.push((dest, WriteOp::insert(doc)));
        }
    }
    let rows_moved = land_moves(ws, tenant, new_span, fast_set(), moves, dels.into_iter())?;
    ws.migrations.bump_version();
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
    let Some((old_span, new_span, parent, segments, bytes)) =
        ws.migrations.with_active(tenant, |e| {
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
        })
    else {
        return;
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
    let Some((new_span, parent, phase)) = ws.migrations.with_active(tenant, |e| {
        let out = (e.new_span, e.last_seq, e.phase.as_str());
        ws.migrations.finish(e, MigrationPhase::Aborted);
        out
    }) else {
        return;
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

/// Aborts every live migration; returns how many there were.
#[cfg(test)]
pub(crate) fn abort_migrations(ws: &WriteState) -> usize {
    let _step = ws.migrations.step_lock.lock();
    let tenants = active_tenants(ws);
    for t in &tenants {
        abort_migration(ws, *t);
    }
    tenants.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{doc, open, physical_copies, tmpdir};
    use crate::{Esdb, EsdbConfig, EsdbWriter};
    use esdb_common::SharedClock;
    use esdb_doc::CollectionSchema;
    use esdb_telemetry::json::Json;

    /// Loads the skewed corpus the migration tests use — 9 of 10 rows
    /// on tenant 777, distinct pre-rule creation times — into each
    /// writer.
    fn load_skewed(writers: &[&EsdbWriter], rows: u64) {
        for r in 0..rows {
            let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
            for w in writers {
                w.insert(doc(tenant, r, 900_000 + r)).unwrap();
            }
        }
    }

    #[test]
    fn hot_tenant_spreads_after_rebalance_and_stays_readable() {
        let (mut db, driver) = open("hot", |c| c.shards(16));
        let (w, rd) = (db.writer(), db.reader());
        // Hot tenant dominates the monitor window.
        for r in 0..3_000u64 {
            let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
            w.insert(doc(tenant, r, driver.now() - 1)).unwrap();
        }
        db.rebalance();
        driver.advance(10);
        let span = db.read_span(TenantId(777));
        assert!(span.len > 1, "hot tenant should spread, span {span:?}");
        // New writes spread across the span.
        let mut new_shards = std::collections::HashSet::new();
        for r in 10_000..10_200u64 {
            let t = driver.now();
            new_shards.insert(w.insert(doc(777, r, t)).unwrap());
            driver.advance(1);
        }
        assert!(new_shards.len() > 1, "writes should hit multiple shards");
        db.refresh();
        // Read-your-writes: all 2700 old + 200 new rows visible.
        let rows = rd
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 777")
            .unwrap();
        assert_eq!(rows.docs.len(), 2_700 + 200);
    }

    #[test]
    fn rule_never_takes_effect_below_a_routed_created_at() {
        let (mut db, driver) = open("rule-above-routed", |c| c.shards(16));
        let (w, rd) = (db.writer(), db.reader());
        load_skewed(&[&w], 3_000);
        // A record stamped ahead of the engine clock is routed by the
        // current (empty) rule list.
        let ahead = driver.now() + 50;
        let first = w.insert(doc(777, 99_999, ahead)).unwrap();
        db.rebalance();
        let rule = db.rules_snapshot().last().cloned().expect("rule committed");
        assert!(rule.offset > 1);
        // The update carries the same routing triple, so it must find
        // the copy the insert made, not upsert a second one elsewhere.
        let second = w.update(doc(777, 99_999, ahead)).unwrap();
        db.drive_migrations();
        db.refresh();
        let rows = rd
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 777 AND record_id = 99999")
            .unwrap();
        assert_eq!(rows.docs.len(), 1, "one live copy of the record");
        assert_eq!(second, first);
        assert!(
            rule.effective_time >= ahead,
            "rule effective at {} below routed created_at {ahead}",
            rule.effective_time
        );
    }

    #[test]
    fn live_migration_moves_rows_and_collapses_old_span() {
        let (mut db, _driver) = open("migrate-live", |c| c.shards(16));
        let (w, rd) = (db.writer(), db.reader());
        // Distinct creation times: ORDER BY has no ties, so row-identity
        // comparisons are insensitive to which shard each row lives on.
        load_skewed(&[&w], 3_000);
        db.refresh();
        let before = rd
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
        let after = rd
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 777 ORDER BY created_time ASC")
            .unwrap();
        assert_eq!(before.docs, after.docs, "cutover must not change results");
        // Point reads follow the migrated routing to the new placement.
        assert!(rd.get(TenantId(777), RecordId(0), 900_000).is_some());
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
        let phases: Vec<_> = bundle
            .get("migrations")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("phase").and_then(Json::as_str))
            .collect();
        assert_eq!(phases, [Some("done")], "bundle: {}", bundle.to_text());
    }

    #[test]
    fn migration_tail_rides_through_cutover() {
        let (mut db, driver) = open("migrate-tail", |c| c.shards(16));
        let (w, rd) = (db.writer(), db.reader());
        for r in 0..2_500u64 {
            let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
            w.insert(doc(tenant, r, driver.now() - 1)).unwrap();
        }
        db.rebalance(); // rule committed, handoff shipped, now Draining
        let rule = db.rules_snapshot().last().cloned().unwrap();
        // Pre-rule writes racing the drain: created before the rule's
        // effective time, landed after the export — the captured tail.
        for r in 5_000..5_040u64 {
            w.insert(doc(777, r, rule.effective_time - 1)).unwrap();
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
        let rows = rd
            .query("SELECT * FROM transaction_logs WHERE tenant_id = 777")
            .unwrap();
        assert_eq!(rows.docs.len(), 2_250 + 40, "no loss, no duplication");
    }

    #[test]
    fn migration_abort_leaves_reads_intact_and_rearms_balancer() {
        let (mut db, driver) = open("migrate-abort", |c| c.shards(16));
        let (w, rd) = (db.writer(), db.reader());
        for r in 0..2_500u64 {
            let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
            w.insert(doc(tenant, r, driver.now() - 1)).unwrap();
        }
        db.refresh();
        let before = rd
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
        let after = rd
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
        let (w, rd) = (db.writer(), db.reader());
        for r in 0..2_500u64 {
            let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
            w.insert(doc(tenant, r, driver.now() - 1)).unwrap();
        }
        db.rebalance(); // Draining, capturing
        let rule = db.rules_snapshot().last().cloned().unwrap();
        // One pre-rule write overflows the zero-length tail bound.
        w.insert(doc(777, 9_999, rule.effective_time - 1)).unwrap();
        driver.advance(10);
        assert_eq!(
            db.drive_migrations(),
            0,
            "overflow must abort, not cut over"
        );
        let status = db.migrations_snapshot().pop().unwrap();
        assert_eq!(status.phase, MigrationPhase::Aborted);
        db.refresh();
        let rows = rd
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
            let w = db.writer();
            for r in 0..2_500u64 {
                let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
                w.insert(doc(tenant, r, driver.now() - 1)).unwrap();
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
        let rd = db.reader();
        // The replayed rule list has both the rule and its migrated mark:
        // a point write on an old record routes to the *new* placement.
        assert_eq!(db.rules_snapshot().last().unwrap().offset, rule.offset);
        let rows = rd
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
            let w = db.writer();
            for r in 0..2_500u64 {
                let tenant = if r % 10 < 9 { 777 } else { 1_000 + r };
                w.insert(doc(tenant, r, driver.now() - 1)).unwrap();
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
        let rd = db.reader();
        // Recovery ran the idempotent completion scan: the old span is
        // collapsed and every acked row survived, exactly once.
        let rows = rd
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

    #[test]
    fn rule_whose_log_line_cannot_land_is_never_committed() {
        let (mut db, _) = open("rule-append-fails", |c| c.shards(16));
        let (w, rd) = (db.writer(), db.reader());
        // `rules.log` is opened at the first append: a directory in its
        // place fails every one.
        let log = db.config.data_dir.join("rules.log");
        std::fs::create_dir(&log).unwrap();
        load_skewed(&[&w], 2_500);
        assert_eq!(db.rebalance(), 0, "no durable line, no rule");
        assert_eq!(db.rule_count(), 0);
        assert!(db.migrations_snapshot().is_empty(), "nothing to migrate");
        assert_eq!(db.read_span(TenantId(777)).len, 1);
        db.refresh();
        let sql = "SELECT * FROM transaction_logs WHERE tenant_id = 777";
        assert_eq!(rd.query(sql).unwrap().docs.len(), 2_250);
        let failures = db
            .telemetry_snapshot()
            .counters
            .iter()
            .find(|(n, _, _)| n == "esdb_rule_append_errors_total")
            .map(|(_, _, v)| *v);
        assert_eq!(failures, Some(1), "the failed append is counted");
        // The balancer was re-armed: once the log is writable the same
        // hot tenant is proposed, logged and committed.
        std::fs::remove_dir(&log).unwrap();
        load_skewed(&[&w], 2_500);
        assert_eq!(db.rebalance(), 1);
        assert_eq!(db.rule_count(), 1);
        assert_eq!(db.drive_migrations(), 1);
        db.refresh();
        assert_eq!(rd.query(sql).unwrap().docs.len(), 2_250);
    }

    /// Tears every translog append while armed.
    #[derive(Debug, Default)]
    struct ArmedTear(std::sync::atomic::AtomicBool);

    impl esdb_storage::WriteFault for ArmedTear {
        fn torn_write_len(&self, _frame_len: usize) -> Option<usize> {
            self.0.load(Ordering::SeqCst).then_some(0)
        }
    }

    #[test]
    fn failed_live_cutover_is_completed_by_the_next_step() {
        let fault = Arc::new(ArmedTear::default());
        let dir = tmpdir("migrate-owed");
        let (clock, _driver) = SharedClock::manual(1_000_000);
        let reopen = || {
            Esdb::open_with_clock(
                CollectionSchema::transaction_logs(),
                EsdbConfig::new(&dir).shards(16).write_fault(fault.clone()),
                clock.clone(),
            )
            .unwrap()
        };
        let mut db = reopen();
        let (mut oracle, _) = open("migrate-owed-oracle", |c| c.shards(1));
        let (w, rd) = (db.writer(), db.reader());
        let (w_oracle, rd_oracle) = (oracle.writer(), oracle.reader());
        load_skewed(&[&w, &w_oracle], 2_500);
        db.rebalance(); // rule committed, handoff shipped, now Draining
        let rule = db.rules_snapshot().last().cloned().unwrap();
        // Pre-rule writes racing the drain: the captured tail.
        for r in 5_000..5_040u64 {
            for w in [&w, &w_oracle] {
                w.insert(doc(777, r, 990_000 + r)).unwrap();
            }
        }
        oracle.refresh();
        let sql = "SELECT * FROM transaction_logs WHERE tenant_id = 777 ORDER BY created_time ASC";
        let expected = rd_oracle.query(sql).unwrap().docs;
        assert_eq!(expected.len(), 2_250 + 40);
        // The cutover logs its intent and adopts the shipments; then the
        // first tail re-apply at a destination is torn.
        fault.0.store(true, Ordering::SeqCst);
        db.step_migrations();
        fault.0.store(false, Ordering::SeqCst);
        let status = db.migrations_snapshot().pop().unwrap();
        assert_eq!(status.phase, MigrationPhase::Cutover, "completion is owed");
        // The barrier reopened (a write goes through) and no acked row is
        // lost: every one answers a point read, and the span query
        // returns each of them. It returns the adopted ones twice until
        // the completion lands — their source copies are not tombstoned
        // yet (ROADMAP item 3(c)) — so this compares distinct rows.
        w.insert(doc(5, 9_000, 999_000)).unwrap();
        db.refresh();
        for d in &expected {
            let got = rd.get(d.tenant_id, d.record_id, d.created_at);
            assert_eq!(got.as_ref(), Some(d), "point read of {:?}", d.record_id);
        }
        let mut owed = rd.query(sql).unwrap().docs;
        owed.dedup_by_key(|d| d.record_id);
        assert_eq!(owed, expected, "every acked row readable while owed");
        // Disarmed, the next step runs the logical completion: one
        // physical copy of every record, reads byte-identical.
        db.step_migrations();
        let status = db.migrations_snapshot().pop().unwrap();
        assert_eq!(status.phase, MigrationPhase::Done);
        let settled = |db: &Esdb| {
            for (r, holders) in physical_copies(db, 777, 5_040) {
                if r % 10 >= 9 || (2_500..5_000).contains(&r) {
                    continue; // other tenants' records, unused ids
                }
                let dest = place(TenantId(777), RecordId(r), rule.offset, 16).0;
                assert_eq!(holders, vec![dest], "record {r} collapsed to {dest}");
            }
            assert_eq!(db.reader().query(sql).unwrap().docs, expected);
        };
        settled(&db);
        // A reopen replays to the same state.
        drop((db, w, rd));
        let db = reopen();
        assert_eq!(db.rules_snapshot().last().unwrap().offset, rule.offset);
        settled(&db);
    }
}
