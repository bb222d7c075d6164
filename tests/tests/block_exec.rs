//! Property-based equivalence of the block-at-a-time executor against the
//! scalar oracle: random write/delete/refresh schedules produce databases
//! with multiple segments, tombstone-heavy liveness bitmaps, and buffered
//! tails, then mixed filter and aggregate queries must return byte-identical
//! results on both paths — end-to-end through `Esdb` *and* directly against
//! the same pinned per-shard snapshots.

use esdb_common::{RecordId, ShardId, TenantId};
use esdb_core::{Esdb, EsdbConfig};
use esdb_doc::{CollectionSchema, Document, FieldValue};
use esdb_query::{
    execute_blocks_on_snapshot, execute_on_snapshot, parse_sql, translate, QueryOptions,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// One step of a randomized workload schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a new record for `tenant` with the given field mix.
    Write {
        tenant: u64,
        status: i64,
        group: i64,
        amount_q: u32,
        province: &'static str,
        title: &'static str,
    },
    /// Tombstone one previously written record (index modulo the count of
    /// writes so far — dense deletes make tombstone-heavy segments).
    Delete(usize),
    /// Make everything buffered searchable, sealing a segment per shard.
    Refresh,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (
            0u64..5,
            0i64..3,
            0i64..4,
            0u32..64,
            prop::sample::select(vec!["zhejiang", "jiangsu", "guangdong"]),
            prop::sample::select(vec!["rust book", "java book", "desk lamp"]),
        )
            .prop_map(|(tenant, status, group, amount_q, province, title)| Op::Write {
                tenant,
                status,
                group,
                amount_q,
                province,
                title,
            }),
        3 => (0usize..4096).prop_map(Op::Delete),
        1 => Just(Op::Refresh),
    ]
}

fn tmpdir(tag: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!("esdb-block-exec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Filter-shaped queries: every residual predicate is a flat comparison,
/// so all of these are block-eligible end to end.
const FILTER_SQLS: &[&str] = &[
    "SELECT * FROM transaction_logs WHERE tenant_id = 2 AND status = 1",
    "SELECT * FROM transaction_logs WHERE status = 0 OR group = 3",
    "SELECT * FROM transaction_logs WHERE amount >= 2.0 AND amount <= 10.0",
    "SELECT * FROM transaction_logs WHERE province = 'zhejiang' AND created_time >= 10020",
    "SELECT * FROM transaction_logs WHERE MATCH(auction_title, 'book') \
     ORDER BY created_time DESC LIMIT 10",
    "SELECT * FROM transaction_logs WHERE tenant_id = 4 ORDER BY created_time ASC LIMIT 5",
    "SELECT * FROM transaction_logs WHERE tenant_id = 999 AND status = 2",
];

/// Aggregate-only plans, all pushdown-eligible on the transaction_logs
/// schema (doc-values columns, no Bool).
const AGG_SQLS: &[&str] = &[
    "SELECT COUNT(*) FROM transaction_logs WHERE status = 1",
    "SELECT COUNT(*), SUM(amount), AVG(amount) FROM transaction_logs WHERE tenant_id = 1",
    "SELECT MIN(amount), MAX(created_time) FROM transaction_logs WHERE group = 2",
    "SELECT COUNT(*), SUM(amount) FROM transaction_logs GROUP BY province",
    "SELECT COUNT(*), MIN(created_time) FROM transaction_logs WHERE status = 2 GROUP BY group",
    "SELECT COUNT(*) FROM transaction_logs WHERE tenant_id = 999",
];

fn scalar_opts() -> QueryOptions {
    QueryOptions {
        block_execution: false,
        ..QueryOptions::default()
    }
}

/// Exact equality for everything except floats, which compare within a
/// tiny relative epsilon (per-shard partial sums may re-associate float
/// addition relative to the single-pass oracle).
fn values_close(a: &FieldValue, b: &FieldValue) -> bool {
    match (a, b) {
        (FieldValue::Float(x), FieldValue::Float(y)) => {
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn block_execution_matches_scalar_oracle_under_random_schedules(
        ops in proptest::collection::vec(arb_op(), 10..100),
        seed in any::<u64>(),
    ) {
        let mut db = Esdb::open(
            CollectionSchema::transaction_logs(),
            EsdbConfig::new(tmpdir(seed)).shards(3).parallelism(1),
        )
        .unwrap();
        let (w, rd) = (db.writer(), db.reader());
        let mut written: Vec<(u64, u64, u64)> = Vec::new();
        let mut next_record = 0u64;
        for op in &ops {
            match op {
                Op::Write { tenant, status, group, amount_q, province, title } => {
                    let record = next_record;
                    next_record += 1;
                    let created = 10_000 + record;
                    w.insert(
                        Document::builder(TenantId(*tenant), RecordId(record), created)
                            .field("status", *status)
                            .field("group", *group)
                            .field("amount", FieldValue::Float(*amount_q as f64 * 0.25))
                            .field("province", *province)
                            .field("auction_title", format!("{title} vol {record}"))
                            .build(),
                    )
                    .unwrap();
                    written.push((*tenant, record, created));
                }
                Op::Delete(i) => {
                    if !written.is_empty() {
                        let (tenant, record, created) = written[i % written.len()];
                        w.delete(TenantId(tenant), RecordId(record), created).unwrap();
                    }
                }
                Op::Refresh => db.refresh(),
            }
        }
        db.refresh();

        // End-to-end row identity: the dispatcher's block path against the
        // scalar executor on the same published snapshots.
        for sql in FILTER_SQLS {
            let block = rd.query(sql).unwrap();
            let scalar = rd.query_opts(sql, scalar_opts()).unwrap();
            prop_assert_eq!(&block.docs, &scalar.docs, "row divergence on {}", sql);
        }

        // Aggregate identity: pushdown partials vs the materialize-then-
        // aggregate oracle, and zero stored-payload reads under pushdown.
        for sql in AGG_SQLS {
            let pushed = rd.aggregate(sql).unwrap();
            let oracle = rd.aggregate_opts(sql, scalar_opts()).unwrap();
            prop_assert_eq!(
                pushed.rows.len(),
                oracle.rows.len(),
                "group count divergence on {}",
                sql
            );
            for (p, o) in pushed.rows.iter().zip(&oracle.rows) {
                prop_assert_eq!(&p.group, &o.group, "group key divergence on {}", sql);
                prop_assert_eq!(p.values.len(), o.values.len());
                for (pv, ov) in p.values.iter().zip(&o.values) {
                    prop_assert!(
                        values_close(pv, ov),
                        "aggregate divergence on {}: {:?} vs {:?}",
                        sql, pv, ov
                    );
                }
            }
            prop_assert_eq!(pushed.payload_reads, 0, "pushdown read payloads on {}", sql);
        }

        // Same check against explicitly pinned per-shard snapshots: both
        // executors run over the *same* point-in-time view, including its
        // tombstone bitmaps, even while the engine keeps running.
        let schema = CollectionSchema::transaction_logs();
        for sql in FILTER_SQLS {
            let query = translate(parse_sql(sql).unwrap());
            for s in 0..3 {
                let snap = db.pin_snapshot(ShardId(s));
                let scalar = execute_on_snapshot(
                    &query, &schema, snap.as_ref(), QueryOptions::default(),
                );
                let block = execute_blocks_on_snapshot(
                    &query, &schema, snap.as_ref(), QueryOptions::default(),
                );
                prop_assert_eq!(
                    &block.docs, &scalar.docs,
                    "pinned-snapshot divergence on shard {} for {}", s, sql
                );
            }
        }
    }
}
