//! Live dynamic secondary hashing: the full migration lifecycle on the
//! real multi-shard engine. A committed grow-rule triggers segment
//! handoff (physical snapshot shipping), a bounded translog-tail drain,
//! and a barriered cutover that physically collapses the hot tenant's
//! rows onto the widened span — while writes and readers keep flowing.
//!
//! Chaos coverage per ISSUE 10: a node crash during segment handoff
//! (process death without flush, and a deterministic crash window that
//! fails a burst of appends mid-cutover) must abort or complete the
//! migration without losing acknowledged writes or duplicating rows.

use esdb_chaos::CrashWindowInjector;
use esdb_common::{RecordId, ShardId, SharedClock, TenantId};
use esdb_core::{Esdb, EsdbConfig, MigrationPhase};
use esdb_doc::{CollectionSchema, Document};
use esdb_integration_tests::test_dir;
use esdb_routing::place;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const HOT: u64 = 777;
const SHARDS: u32 = 16;

fn doc(tenant: u64, record: u64, at: u64) -> Document {
    Document::builder(TenantId(tenant), RecordId(record), at)
        .field("status", (record % 2) as i64)
        .field("group", (record % 5) as i64)
        .field("auction_title", format!("live rebalance {record}"))
        .build()
}

/// Writes a skewed corpus (9 of 10 writes on the hot tenant) with
/// distinct creation times, so ORDER BY comparisons have no ties.
fn load_skewed(db: &Esdb, rows: u64) -> u64 {
    let w = db.writer();
    let mut hot = 0;
    for r in 0..rows {
        let tenant = if r % 10 < 9 {
            hot += 1;
            HOT
        } else {
            1_000 + r
        };
        w.insert(doc(tenant, r, 900_000 + r)).expect("insert");
    }
    hot
}

/// Every shard holding a live copy of `record`, by direct snapshot
/// inspection — the physical-placement oracle.
fn holders(db: &Esdb, record: u64) -> Vec<u32> {
    (0..SHARDS)
        .filter(|s| db.pin_snapshot(ShardId(*s)).get_record(record).is_some())
        .collect()
}

/// Asserts the old span fully collapsed: every hot-tenant row lives at
/// exactly its new-span placement, nowhere else.
fn assert_collapsed(db: &Esdb, rows: u64, offset: u32) {
    for r in 0..rows {
        if r % 10 >= 9 {
            continue;
        }
        let dest = place(TenantId(HOT), RecordId(r), offset, SHARDS).0;
        assert_eq!(holders(db, r), vec![dest], "record {r} not collapsed");
    }
}

#[test]
fn migration_lifecycle_end_to_end_with_racing_readers() {
    let (clock, driver) = SharedClock::manual(1_000_000);
    let mut db = Esdb::open_with_clock(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir("live-rebalance-e2e"))
            .shards(SHARDS)
            .commit_wait_ms(5),
        clock,
    )
    .expect("open");
    let rd = db.reader();
    let hot_rows = load_skewed(&db, 3_000);
    db.refresh();
    let sql = "SELECT * FROM transaction_logs WHERE tenant_id = 777 ORDER BY created_time ASC";
    let oracle = rd.query(sql).expect("oracle").docs;
    assert_eq!(oracle.len() as u64, hot_rows);

    // Readers hammer the tenant throughout commit, handoff and cutover:
    // any fan-out that straddles the rule boundary or the cutover
    // barrier must still see exactly the full row set.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let reader = db.reader();
            let stop = Arc::clone(&stop);
            let oracle_len = oracle.len();
            std::thread::spawn(move || {
                let mut observed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let rows = reader.query(sql).expect("racing query").docs;
                    assert_eq!(rows.len(), oracle_len, "reader saw partial row set");
                    observed += 1;
                }
                observed
            })
        })
        .collect();

    // Commit the rule under commit-wait: the activation timestamp is 5ms
    // in the future, so the migration holds in commit-wait until the
    // live clock passes it.
    assert!(db.rebalance() > 0, "skew must commit a grow-rule");
    let rule = db.rules_snapshot().last().cloned().expect("rule");
    assert!(rule.offset > 1, "span must grow");
    assert_eq!(rule.effective_time, 1_000_000 + 5, "commit-wait applied");
    db.step_migrations();
    let status = db.migrations_snapshot().pop().unwrap();
    assert_eq!(
        status.phase,
        MigrationPhase::CommitWait,
        "nothing moves before the activation timestamp"
    );
    // Clock passes the rule: handoff ships segments, drain, cutover.
    driver.advance(10);
    assert_eq!(db.drive_migrations(), 1, "migration must complete");
    let status = db.migrations_snapshot().pop().unwrap();
    assert_eq!(status.phase, MigrationPhase::Done);
    assert_eq!((status.old_span, status.new_span), (1, rule.offset));
    assert!(status.segments_shipped > 0, "handoff shipped real segments");
    assert!(status.rows_moved > 0, "rows physically moved");

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "readers must have run");
    }

    // Row identity across the cutover, physical collapse, point reads.
    let after = rd.query(sql).expect("after").docs;
    assert_eq!(oracle, after, "cutover changed query results");
    assert_collapsed(&db, 3_000, rule.offset);
    assert!(rd.get(TenantId(HOT), RecordId(0), 900_000).is_some());

    // Journal causal chain: detection → rule → started → shipped →
    // drained → cutover → completed, each parent-linked to the last.
    let events = db.telemetry().journal().tail(usize::MAX);
    let find = |name: &str| {
        events
            .iter()
            .find(|e| e.kind.name() == name)
            .unwrap_or_else(|| panic!("missing journal event {name}"))
    };
    let chain = [
        "hot_tenant_detected",
        "rule_appended",
        "migration_started",
        "migration_segments_shipped",
        "migration_tail_drained",
        "migration_cutover",
        "migration_completed",
    ];
    for pair in chain.windows(2) {
        assert_eq!(
            find(pair[1]).parent_seq,
            find(pair[0]).seq,
            "{} must parent-link to {}",
            pair[1],
            pair[0]
        );
    }

    // Metrics: migration series present and lint-clean.
    let snap = db.telemetry_snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(counter("esdb_migration_completed_total"), 1);
    assert!(counter("esdb_migration_rows_moved_total") > 0);
    assert!(counter("esdb_migration_segments_moved_total") > 0);
    assert!(counter("esdb_migration_bytes_shipped_total") > 0);
    let errors = esdb_telemetry::lint_prometheus(&snap.to_prometheus());
    assert!(errors.is_empty(), "prometheus lint: {errors:?}");
    // Admin surface parity: the bundle carries the migration state.
    let bundle = db.debug_bundle().to_json();
    assert!(bundle.contains("\"phase\": \"done\""), "bundle: {bundle}");
}

#[test]
fn crash_during_handoff_recovers_every_acked_write_exactly_once() {
    let dir = test_dir("live-rebalance-crash-handoff");
    {
        let mut db = Esdb::open(
            CollectionSchema::transaction_logs(),
            EsdbConfig::new(&dir).shards(SHARDS),
        )
        .expect("open");
        load_skewed(&db, 2_500);
        // Rule commits and the handoff ships; the migration is left
        // mid-flight (Draining) when the process dies without flushing.
        db.rebalance();
        let status = db.migrations_snapshot().pop().unwrap();
        assert!(
            status.phase == MigrationPhase::Draining || status.phase == MigrationPhase::CommitWait,
            "migration mid-flight at crash: {status:?}"
        );
    }
    // Recovery: translog replay restores every acknowledged write; the
    // durable rule list restores routing. The half-done handoff is
    // memory-only, so nothing of it survives to duplicate rows.
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(&dir).shards(SHARDS),
    )
    .expect("recover");
    let rd = db.reader();
    db.refresh();
    let rows = rd
        .query("SELECT * FROM transaction_logs WHERE tenant_id = 777 ORDER BY created_time ASC")
        .expect("query")
        .docs;
    assert_eq!(rows.len(), 2_250, "acked writes conserved across crash");
    // Row identity + exactly-once: each record held by exactly one shard.
    for (i, d) in rows.iter().enumerate() {
        assert!(d.record_id.raw() % 10 < 9, "foreign row leaked: {d:?}");
        assert_eq!(d.created_at, 900_000 + d.record_id.raw());
        let h = holders(&db, d.record_id.raw());
        assert_eq!(h.len(), 1, "row {i} duplicated across shards: {h:?}");
    }
    // The committed rule still routes reads over the widened span.
    assert!(db.read_span(TenantId(HOT)).len > 1);
}

#[test]
fn crash_window_mid_cutover_completes_without_loss_or_duplication() {
    // Deterministic node-death burst: every insert is one translog
    // append, so after 2 500 loads the next appends are the cutover's
    // own tombstone/tail writes — the window lands squarely inside the
    // segment-handoff cutover and fails it mid-flight.
    let injector = Arc::new(CrashWindowInjector::new(2_505, 25));
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir("live-rebalance-crash-window"))
            .shards(SHARDS)
            .write_fault(injector.clone()),
    )
    .expect("open");
    let rd = db.reader();
    load_skewed(&db, 2_500);
    db.refresh();
    let sql = "SELECT * FROM transaction_logs WHERE tenant_id = 777 ORDER BY created_time ASC";
    let oracle = rd.query(sql).expect("oracle").docs;
    db.rebalance();
    let rule = db.rules_snapshot().last().cloned().expect("rule");
    // Drive with retries: the first cutover attempt dies inside the
    // crash window (durable intent already logged), recovery reruns the
    // idempotent completion until the window has passed. Each failed
    // retry consumes one torn append, so the bound comfortably covers
    // the 25-append window.
    let mut done = false;
    for _ in 0..100 {
        if db.drive_migrations() > 0 {
            done = true;
            break;
        }
        let status = db.migrations_snapshot().pop().unwrap();
        if !status.phase.is_active() {
            break;
        }
    }
    let status = db.migrations_snapshot().pop().unwrap();
    match status.phase {
        MigrationPhase::Done => {
            assert!(done);
            assert!(injector.window_elapsed(), "window consumed by the cutover");
            assert_collapsed(&db, 2_500, rule.offset);
        }
        MigrationPhase::Aborted => {
            // Legal outcome: the migration gave up cleanly before its
            // durable commit point; rows stay at their old placement.
        }
        other => panic!("migration stuck in {other:?}"),
    }
    // Either way: zero lost acked writes, zero duplicates, row identity.
    db.refresh();
    let after = rd.query(sql).expect("after").docs;
    assert_eq!(oracle, after, "acked rows conserved through the crash");
    for d in &after {
        let h = holders(&db, d.record_id.raw());
        assert_eq!(h.len(), 1, "record {} duplicated: {h:?}", d.record_id.raw());
    }
}

#[test]
fn admin_migrations_endpoint_exposes_live_state() {
    use esdb_server::{
        start, AdmissionConfig, EsdbClient, ServerConfig, TcpTransport, TokenTable, Transport,
    };
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir("live-rebalance-admin")).shards(SHARDS),
    )
    .expect("open");
    load_skewed(&db, 2_500);
    db.rebalance();
    db.drive_migrations();
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
    let addr = transport.local_addr();
    let handle = start(
        db,
        ServerConfig {
            tokens: TokenTable::new().admin("root", TenantId(0)),
            admission: AdmissionConfig::default(),
        },
        Box::new(transport),
    );
    let mut admin = EsdbClient::connect(&addr, "root").expect("connect");
    let body = admin.admin_migrations().expect("admin/migrations");
    assert!(body.contains("\"active\": 0"), "terminal state: {body}");
    assert!(body.contains("\"phase\": \"done\""), "body: {body}");
    assert!(body.contains("\"tenant\": 777"), "body: {body}");
    handle.shutdown();
}
