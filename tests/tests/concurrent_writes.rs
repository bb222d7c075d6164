//! Concurrent multi-writer correctness: `EsdbWriter` clones applying a
//! generated op schedule from N threads must leave a row set
//! byte-identical to a sequential oracle applying the same per-thread
//! op order, conserve every op in the write accounting
//! (`writes_total + write_errors_total == ops issued`), and never lose
//! an acknowledged write under injected translog faults.

use esdb_chaos::TornWriteInjector;
use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, WriteBatcher};
use esdb_doc::{CollectionSchema, Document, FieldValue, WriteOp};
use esdb_integration_tests::test_dir;
use esdb_storage::WriteFault;
use esdb_telemetry::lint_prometheus;
use proptest::prelude::*;
use std::sync::Arc;

const THREADS: usize = 4;
/// Record-id stride per writer thread. Threads own disjoint id ranges,
/// so each record's op sequence lives on one thread and the final row
/// set is independent of cross-thread interleaving.
const STRIDE: u64 = 10_000;

/// Zipf-flavored deterministic tenant for a record: half the records on
/// the hot tenant, a short tail behind it. Concentrating load on one
/// tenant's shard makes same-shard writers actually collide, so the
/// contended engine-lock path is exercised, not just the
/// disjoint-shard fast path.
fn tenant_for(rid: u64) -> u64 {
    match rid % 10 {
        0..=4 => 1,
        5..=7 => 2,
        8 => 3,
        _ => 4 + (rid / 10) % 5,
    }
}

fn doc(rid: u64, status: i64) -> Document {
    Document::builder(TenantId(tenant_for(rid)), RecordId(rid), 1_000 + rid)
        .field("status", status)
        .build()
}

#[derive(Debug, Clone)]
enum OpKind {
    Insert(i64),
    Update(i64),
    Delete,
}

fn op_for(rid: u64, kind: &OpKind) -> WriteOp {
    match kind {
        OpKind::Insert(s) => WriteOp::insert(doc(rid, *s)),
        OpKind::Update(s) => WriteOp::update(doc(rid, *s)),
        OpKind::Delete => WriteOp::delete(TenantId(tenant_for(rid)), RecordId(rid), 1_000 + rid),
    }
}

/// One thread's schedule: (record offset within its private range, op).
/// Offsets are drawn from a small range so updates and deletes hit
/// records the same thread actually inserted.
fn arb_schedule() -> impl Strategy<Value = Vec<(u64, OpKind)>> {
    proptest::collection::vec(
        (
            0u64..64,
            prop_oneof![
                5 => (0i64..100).prop_map(OpKind::Insert),
                3 => (0i64..100).prop_map(OpKind::Update),
                2 => Just(OpKind::Delete),
            ],
        ),
        1..120,
    )
}

/// Every visible row as `(tenant, record, status)`, sorted — the
/// byte-comparable image of the searchable state.
fn visible_rows(db: &Esdb) -> Vec<(u64, u64, i64)> {
    let rd = db.reader();
    let mut rows = Vec::new();
    for t in 1..=8u64 {
        let sql = format!(
            "SELECT * FROM transaction_logs WHERE tenant_id = {t} ORDER BY created_time ASC"
        );
        for d in rd.query(&sql).expect("visible-rows query").docs.iter() {
            let status = match d.get("status") {
                Some(FieldValue::Int(s)) => s,
                other => panic!("status field missing or non-int: {other:?}"),
            };
            rows.push((t, d.record_id.raw(), status));
        }
    }
    rows.sort_unstable();
    rows
}

fn open(tag: &str) -> Esdb {
    Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir(&format!("conc-{tag}-{}", rand::random::<u64>()))).shards(8),
    )
    .expect("open")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N writer threads issue generated single-op schedules through
    /// `EsdbWriter` clones; the visible row set must match a sequential
    /// oracle and the atomic accounting must conserve every op.
    #[test]
    fn concurrent_single_op_writers_match_sequential_oracle(
        schedules in proptest::collection::vec(arb_schedule(), THREADS)
    ) {
        let total_ops: usize = schedules.iter().map(Vec::len).sum();
        let mut db = open("single");
        std::thread::scope(|scope| {
            for (t, sched) in schedules.iter().enumerate() {
                let writer = db.writer();
                scope.spawn(move || {
                    for (off, kind) in sched {
                        let rid = t as u64 * STRIDE + off;
                        writer.write(op_for(rid, kind)).expect("fault-free write");
                    }
                });
            }
        });
        // Conservation: no faults, so every issued op must be counted
        // as applied — nothing lost, nothing double-counted.
        let stats = db.stats();
        prop_assert_eq!(stats.write_errors, 0);
        prop_assert_eq!(stats.writes, total_ops as u64);

        let mut oracle = open("single-oracle");
        let w_oracle = oracle.writer();
        for (t, sched) in schedules.iter().enumerate() {
            for (off, kind) in sched {
                w_oracle.write(op_for(t as u64 * STRIDE + off, kind)).expect("oracle write");
            }
        }
        db.refresh();
        oracle.refresh();
        prop_assert_eq!(visible_rows(&db), visible_rows(&oracle));
    }

    /// Same oracle identity through the batch path: each thread flushes
    /// its schedule in `WriteBatcher` chunks, colliding whole groups on
    /// hot shards. Coalescing is deterministic per chunk, so applied-op
    /// counts must also match the sequential oracle exactly.
    #[test]
    fn concurrent_batch_writers_match_sequential_oracle(
        schedules in proptest::collection::vec(arb_schedule(), THREADS)
    ) {
        let mut db = open("batch");
        std::thread::scope(|scope| {
            for (t, sched) in schedules.iter().enumerate() {
                let writer = db.writer();
                scope.spawn(move || {
                    for chunk in sched.chunks(16) {
                        let mut batcher = WriteBatcher::new();
                        for (off, kind) in chunk {
                            batcher.push(op_for(t as u64 * STRIDE + off, kind));
                        }
                        writer.write_batch(&mut batcher).expect("fault-free batch");
                    }
                });
            }
        });
        let mut oracle = open("batch-oracle");
        let w_oracle = oracle.writer();
        for (t, sched) in schedules.iter().enumerate() {
            for chunk in sched.chunks(16) {
                let mut batcher = WriteBatcher::new();
                for (off, kind) in chunk {
                    batcher.push(op_for(t as u64 * STRIDE + off, kind));
                }
                w_oracle.write_batch(&mut batcher).expect("oracle batch");
            }
        }
        prop_assert_eq!(db.stats().write_errors, 0);
        prop_assert_eq!(db.stats().writes, oracle.stats().writes);
        db.refresh();
        oracle.refresh();
        prop_assert_eq!(visible_rows(&db), visible_rows(&oracle));
    }
}

/// Under injected torn appends, an acknowledged write must always be
/// durable-and-visible, a failed write must always be counted, and the
/// accounting must partition the issued ops exactly.
#[test]
fn no_acknowledged_write_lost_under_injected_faults() {
    const PER_THREAD: u64 = 200;
    // Every 7th translog append (db-wide) tears mid-frame.
    let injector = Arc::new(TornWriteInjector::new(0xE5DB7, 7));
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir("conc-faults"))
            .shards(4)
            .write_fault(injector.clone()),
    )
    .expect("open");
    let rd = db.reader();

    let mut acked: Vec<u64> = Vec::new();
    let mut failed = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let writer = db.writer();
                scope.spawn(move || {
                    let mut acked = Vec::new();
                    let mut failed = 0u64;
                    for off in 0..PER_THREAD {
                        let rid = t * STRIDE + off;
                        match writer.insert(doc(rid, (rid % 5) as i64)) {
                            Ok(_) => acked.push(rid),
                            Err(_) => failed += 1,
                        }
                    }
                    (acked, failed)
                })
            })
            .collect();
        for h in handles {
            let (a, f) = h.join().expect("writer thread");
            acked.extend(a);
            failed += f;
        }
    });

    let issued = THREADS as u64 * PER_THREAD;
    assert_eq!(acked.len() as u64 + failed, issued, "every op resolves");
    assert!(failed > 0, "the injector must actually fire");
    let stats = db.stats();
    assert_eq!(stats.writes, acked.len() as u64, "acked == counted writes");
    assert_eq!(stats.write_errors, failed, "failed == counted errors");
    assert_eq!(stats.writes + stats.write_errors, issued, "conservation");

    db.refresh();
    for &rid in &acked {
        assert!(
            rd.get(TenantId(tenant_for(rid)), RecordId(rid), 1_000 + rid)
                .is_some(),
            "acknowledged write of record {rid} was lost"
        );
    }
}

/// Tears (at offset 0) every translog frame of at least `min_len` bytes:
/// a fault keyed on the op itself, so it hits the same ops however the
/// writers interleave.
#[derive(Debug)]
struct TearLongFrames {
    min_len: usize,
}

impl WriteFault for TearLongFrames {
    fn torn_write_len(&self, frame_len: usize) -> Option<usize> {
        (frame_len >= self.min_len).then_some(0)
    }
}

/// Hot-shard collisions must surface through the write telemetry: every
/// submitted op shows up in `esdb_write_group_size`, contended
/// submissions in `esdb_write_lock_wait_ns`, and the exposition stays
/// Prometheus-lint clean. And a `stop_on_error` batch failing mid-group
/// on a contended shard applies and counts exactly its prefix.
#[test]
fn group_commit_telemetry_accounts_every_op_and_lints() {
    const PER_THREAD: u64 = 300;
    let db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir("conc-telemetry")).shards(4),
    )
    .expect("open");

    // Every thread hammers the same tenant: one hot shard, maximal
    // same-shard collision.
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let writer = db.writer();
            scope.spawn(move || {
                for off in 0..PER_THREAD {
                    let rid = t * STRIDE + off;
                    let hot = Document::builder(TenantId(1), RecordId(rid), 1_000 + rid)
                        .field("status", (rid % 3) as i64)
                        .build();
                    writer.insert(hot).expect("hot insert");
                }
            });
        }
    });

    let issued = THREADS as u64 * PER_THREAD;
    let snap = db.telemetry_snapshot();
    let hist = |name: &str| {
        snap.histograms
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from snapshot"))
    };
    let (_, _, group_size) = hist("esdb_write_group_size");
    // Each lock hold records the ops it was handed, so the observation
    // sum re-counts exactly the issued ops.
    assert_eq!(group_size.sum(), issued as u128, "group sizes sum to ops");
    assert!(group_size.count() >= 1 && group_size.count() <= issued);
    // Lock-wait samples only contended submissions, so its count is
    // schedule-dependent (can be zero on a single-core host) — but the
    // series must exist and never exceed one sample per submission.
    let (_, _, lock_wait) = hist("esdb_write_lock_wait_ns");
    assert!(
        lock_wait.count() <= issued,
        "at most one lock-wait sample per submission"
    );
    let errors = lint_prometheus(&snap.to_prometheus());
    assert!(errors.is_empty(), "lint violations: {errors:?}");

    // The fault case: batches of 9 single-tenant ops whose 5th op
    // carries a payload long enough to be torn, racing a second writer
    // that hammers the same shard with healthy single inserts.
    const BATCHES: u64 = 50;
    const BATCH_OPS: u64 = 9;
    const FAULT_AT: u64 = 4;
    const HAMMER: u64 = 300;
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir("conc-batch-fault"))
            .shards(4)
            .write_fault(Arc::new(TearLongFrames { min_len: 4_096 })),
    )
    .expect("open");
    let rd = db.reader();
    let small = |rid: u64| {
        Document::builder(TenantId(1), RecordId(rid), 1_000 + rid)
            .field("status", (rid % 3) as i64)
            .build()
    };
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        let (batch_writer, hammer_writer) = (db.writer(), db.writer());
        let (start, small) = (&start, &small);
        scope.spawn(move || {
            start.wait();
            for b in 0..BATCHES {
                let mut batcher = WriteBatcher::new();
                for i in 0..BATCH_OPS {
                    let rid = b * BATCH_OPS + i;
                    batcher.push(WriteOp::insert(if i == FAULT_AT {
                        Document::builder(TenantId(1), RecordId(rid), 1_000 + rid)
                            .field("memo", "x".repeat(8_192))
                            .build()
                    } else {
                        small(rid)
                    }));
                }
                batch_writer
                    .write_batch(&mut batcher)
                    .expect_err("the torn op fails its batch");
            }
        });
        scope.spawn(move || {
            start.wait();
            for off in 0..HAMMER {
                hammer_writer
                    .insert(small(STRIDE + off))
                    .expect("healthy insert");
            }
        });
    });
    let stats = db.stats();
    assert_eq!(
        stats.writes,
        BATCHES * FAULT_AT + HAMMER,
        "batch prefixes + hammer"
    );
    assert_eq!(stats.write_errors, BATCHES, "one error per stopped group");
    assert_eq!(
        stats.writes + stats.write_errors,
        BATCHES * (FAULT_AT + 1) + HAMMER,
        "every attempted op resolves; unattempted tails count nowhere"
    );
    db.refresh();
    for b in 0..BATCHES {
        for i in 0..BATCH_OPS {
            let rid = b * BATCH_OPS + i;
            assert_eq!(
                rd.get(TenantId(1), RecordId(rid), 1_000 + rid).is_some(),
                i < FAULT_AT,
                "batch {b} op {i}: only the prefix before the fault applies"
            );
        }
    }
    assert_eq!(stats.live_docs + stats.buffered_docs, stats.writes as usize);
}
