//! Lock-free snapshot reader integration: N reader threads iterate a
//! fixed query corpus while a writer thread interleaves
//! write/refresh/force-merge/tombstone maintenance. Every result a
//! reader observes must be an internally-consistent point-in-time view
//! (no torn reads, no duplicate or impossible record ids), and a pinned
//! snapshot must keep answering identically even after the engine
//! merges away every segment it references.

use esdb_common::{RecordId, ShardId, TenantId};
use esdb_core::{Esdb, EsdbConfig, EsdbReader};
use esdb_doc::{CollectionSchema, Document};
use esdb_integration_tests::test_dir;
use esdb_query::{execute_on_snapshot, parse_sql, translate, QueryOptions};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One tenant, one shard: every reader invariant below is about
/// intra-shard snapshot consistency, so routing noise is kept out.
const TENANT: u64 = 1;

/// All rows in insertion order (created_time is monotone in record id).
const Q_ALL: &str = "SELECT * FROM transaction_logs WHERE tenant_id = 1 ORDER BY created_time ASC";
/// Odd record ids only (status = rid % 2); these are never tombstoned.
const Q_ODD: &str =
    "SELECT * FROM transaction_logs WHERE tenant_id = 1 AND status = 1 ORDER BY created_time ASC";

fn doc(rid: u64) -> Document {
    Document::builder(TenantId(TENANT), RecordId(rid), 1_000 + rid * 10)
        .field("status", (rid % 2) as i64)
        .field("auction_title", format!("snapshot corpus {rid}"))
        .build()
}

fn rids(rows: &esdb_query::QueryRows) -> Vec<u64> {
    rows.docs.iter().map(|d| d.record_id.raw()).collect()
}

/// The per-result consistency oracle. `max_inserted` must be loaded
/// *after* the query ran: any row visible in the snapshot was inserted
/// (and its id published) before the snapshot was.
fn check_view(rids: &[u64], max_inserted: u64, what: &str) {
    let mut seen = HashSet::new();
    for &r in rids {
        assert!(
            seen.insert(r),
            "{what}: duplicate record id {r} in one result"
        );
        assert!(
            max_inserted != u64::MAX && r <= max_inserted,
            "{what}: impossible record id {r} (max inserted {max_inserted})"
        );
    }
    // ORDER BY created_time ASC is record-id order here; a torn view
    // could interleave segments out of order.
    assert!(
        rids.windows(2).all(|w| w[0] < w[1]),
        "{what}: result not in created_time order: {rids:?}"
    );
    // Odd ids are never deleted and are inserted in ascending order, so
    // the odd ids visible in any snapshot form an exact prefix
    // 1, 3, 5, … — a gap means the snapshot tore across a refresh.
    let odds: Vec<u64> = rids.iter().copied().filter(|r| r % 2 == 1).collect();
    for (i, &r) in odds.iter().enumerate() {
        assert_eq!(
            r,
            2 * i as u64 + 1,
            "{what}: odd record ids are not a contiguous prefix: {odds:?}"
        );
    }
}

/// Reader loop: runs the corpus through the lock-free handle, checking
/// every answer, and double-executes one query on a single pinned
/// snapshot to prove the view is frozen.
fn reader_loop(
    reader: &EsdbReader,
    schema: &CollectionSchema,
    max_inserted: &AtomicU64,
    done: &AtomicBool,
) -> u64 {
    let q_all = translate(parse_sql(Q_ALL).expect("parse"));
    let mut iterations = 0u64;
    while iterations == 0 || !done.load(Ordering::Acquire) {
        let all = rids(&reader.query(Q_ALL).expect("corpus query"));
        check_view(&all, max_inserted.load(Ordering::Acquire), "all-rows");

        let odd = rids(&reader.query(Q_ODD).expect("corpus query"));
        check_view(&odd, max_inserted.load(Ordering::Acquire), "status=1");
        assert!(
            odd.iter().all(|r| r % 2 == 1),
            "status=1 returned an even record id: {odd:?}"
        );

        // One pinned view answers identically no matter how many times
        // it is asked — even while the writer merges underneath it.
        let snap = reader.pin_snapshot(ShardId(0));
        let opts = QueryOptions {
            use_optimizer: true,
            ..QueryOptions::default()
        };
        let a = rids(&execute_on_snapshot(&q_all, schema, snap.as_ref(), opts));
        let b = rids(&execute_on_snapshot(&q_all, schema, snap.as_ref(), opts));
        assert_eq!(a, b, "pinned snapshot gave two different answers");
        check_view(&a, max_inserted.load(Ordering::Acquire), "pinned");

        iterations += 1;
    }
    iterations
}

/// Writer schedule steps, proptest-generated.
#[derive(Debug, Clone)]
enum Op {
    /// Insert the next 1..=8 sequential record ids.
    Insert(u8),
    /// Tombstone one not-yet-deleted record with id % 10 == 0.
    Delete(u8),
    /// Make buffered writes searchable (publishes a snapshot).
    Refresh,
    /// Merge every segment into one (publishes a snapshot).
    ForceMerge,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u8..8).prop_map(Op::Insert),
        2 => any::<u8>().prop_map(Op::Delete),
        3 => Just(Op::Refresh),
        1 => Just(Op::ForceMerge),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Three readers race one writer executing a generated maintenance
    /// schedule; every observed result must be a consistent snapshot.
    #[test]
    fn readers_observe_consistent_snapshots_under_maintenance(
        ops in proptest::collection::vec(arb_op(), 24..64),
    ) {
        let schema = CollectionSchema::transaction_logs();
        let mut db = Esdb::open(
            schema.clone(),
            EsdbConfig::new(std::env::temp_dir().join(format!(
                "esdb-snap-prop-{}-{}",
                std::process::id(),
                rand::random::<u64>()
            )))
            .shards(1),
        )
        .expect("open");
        let (w, rd) = (db.writer(), db.reader());

        // Readers must never see an id above this; stored *after* the
        // insert is acknowledged, so it is published before any refresh
        // can make the row visible. Starts at MAX-as-"nothing yet".
        let max_inserted = AtomicU64::new(u64::MAX);
        let done = AtomicBool::new(false);
        let reader = db.reader();

        let iterations: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let r = reader.clone();
                    let (schema, max_inserted, done) = (&schema, &max_inserted, &done);
                    s.spawn(move || reader_loop(&r, schema, max_inserted, done))
                })
                .collect();

            // The writer runs the schedule on the &mut facade while the
            // readers spin: maintenance must never wait on them, and
            // they must never see it half-applied.
            let mut next_rid = 0u64;
            let mut deletable: Vec<u64> = Vec::new();
            for op in &ops {
                match op {
                    Op::Insert(n) => {
                        for _ in 0..=(*n % 8) {
                            w.insert(doc(next_rid)).expect("insert");
                            if next_rid % 10 == 0 {
                                deletable.push(next_rid);
                            }
                            max_inserted.store(next_rid, Ordering::Release);
                            next_rid += 1;
                        }
                    }
                    Op::Delete(k) => {
                        if !deletable.is_empty() {
                            let rid = deletable.swap_remove(*k as usize % deletable.len());
                            w.delete(TenantId(TENANT), RecordId(rid), 1_000 + rid * 10)
                                .expect("delete");
                        }
                    }
                    Op::Refresh => db.refresh(),
                    Op::ForceMerge => {
                        db.force_merge();
                    }
                }
            }
            db.refresh();
            done.store(true, Ordering::Release);
            handles.into_iter().map(|h| h.join().expect("reader")).collect()
        });

        // Writer finished and refreshed; a final read sees everything.
        let all = rids(&rd.query(Q_ALL).expect("final query"));
        let odd_total = (0..next_rid_of(&ops)).filter(|r| r % 2 == 1).count();
        prop_assert_eq!(
            all.iter().filter(|r| *r % 2 == 1).count(),
            odd_total,
            "odd rows must all survive the schedule"
        );
        prop_assert!(iterations.iter().all(|&i| i >= 1));
    }
}

/// How many ids the schedule inserts in total (mirrors the writer).
fn next_rid_of(ops: &[Op]) -> u64 {
    ops.iter()
        .map(|op| match op {
            Op::Insert(n) => (*n % 8) as u64 + 1,
            _ => 0,
        })
        .sum()
}

/// A pinned snapshot is a true point-in-time view: after the engine
/// merges away every segment it references and buries the survivors in
/// new writes, the pinned view still answers byte-identically, while a
/// fresh pin sees the merged world.
#[test]
fn pinned_snapshot_answers_identically_after_merge() {
    let schema = CollectionSchema::transaction_logs();
    let mut db = Esdb::open(
        schema.clone(),
        EsdbConfig::new(test_dir("snap-pin-merge")).shards(1),
    )
    .expect("open");
    let (w, rd) = (db.writer(), db.reader());

    // Four refreshes -> four sealed segments.
    for batch in 0..4u64 {
        for i in 0..25u64 {
            w.insert(doc(batch * 25 + i)).expect("insert");
        }
        db.refresh();
    }

    let pinned = db.pin_snapshot(ShardId(0));
    assert_eq!(
        pinned.segments().len(),
        4,
        "expected one segment per refresh"
    );
    assert_eq!(pinned.live_docs(), 100);

    let opts = QueryOptions {
        use_optimizer: true,
        ..QueryOptions::default()
    };
    let corpus: Vec<_> = [Q_ALL, Q_ODD]
        .iter()
        .map(|sql| translate(parse_sql(sql).expect("parse")))
        .collect();
    let baseline: Vec<Vec<u64>> = corpus
        .iter()
        .map(|q| rids(&execute_on_snapshot(q, &schema, pinned.as_ref(), opts)))
        .collect();
    assert_eq!(baseline[0].len(), 100);

    // Merge all four segments away, then change the world: new rows,
    // tombstones against rows the pinned view can see, another refresh.
    assert_eq!(db.force_merge(), 1, "four segments must merge into one");
    for i in 100..140u64 {
        w.insert(doc(i)).expect("insert");
    }
    for rid in [0u64, 50, 90] {
        w.delete(TenantId(TENANT), RecordId(rid), 1_000 + rid * 10)
            .expect("delete");
    }
    db.refresh();

    // The pinned view is frozen: same segments, same rows, same order.
    assert_eq!(
        pinned.segments().len(),
        4,
        "pinned segment set must not change"
    );
    assert_eq!(pinned.live_docs(), 100);
    for (q, want) in corpus.iter().zip(&baseline) {
        let got = rids(&execute_on_snapshot(q, &schema, pinned.as_ref(), opts));
        assert_eq!(&got, want, "pinned snapshot drifted after merge");
    }
    assert!(
        pinned.contains_record(50),
        "pinned view keeps pre-merge rows"
    );

    // A fresh pin sees the merged + mutated state.
    let fresh = db.pin_snapshot(ShardId(0));
    assert!(
        fresh.segments().len() < 4,
        "fresh pin must see the merged segment set"
    );
    assert_eq!(fresh.live_docs(), 137);
    assert!(!fresh.contains_record(50), "tombstone visible to fresh pin");
    assert!(
        fresh.search_generation() > pinned.search_generation(),
        "generation must advance with every publish"
    );
    let fresh_all = rids(&execute_on_snapshot(
        &corpus[0],
        &schema,
        fresh.as_ref(),
        opts,
    ));
    assert_eq!(fresh_all.len(), 137);

    // The facade's own query path agrees with the fresh pin.
    assert_eq!(rids(&rd.query(Q_ALL).expect("query")), fresh_all);
}
