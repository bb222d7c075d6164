//! Query-cache correctness end-to-end: a cache-enabled instance must be
//! row-identical to a cache-disabled one under arbitrary interleavings of
//! writes, deletes, refreshes, merges, and repeated (hot) queries.
//!
//! The two tiers are exercised exactly where they can go wrong: tier 1
//! across tombstones landing *after* a posting list was cached and across
//! merges that retire segment ids; tier 2 across refreshes/merges that
//! change the searchable state between identical SQL texts.

use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig};
use esdb_doc::{CollectionSchema, Document};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("esdb-qcache-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(tag: &str, caches: bool) -> Esdb {
    Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(tmpdir(tag))
            .shards(2)
            .parallelism(1)
            .query_caches(caches),
    )
    .unwrap()
}

fn doc(tenant: u64, record: u64, at: u64) -> Document {
    Document::builder(TenantId(tenant), RecordId(record), at)
        .field("status", (record % 3) as i64)
        .field("group", (record % 5) as i64)
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

const SQLS: &[&str] = &[
    "SELECT * FROM transaction_logs WHERE tenant_id = 1 AND status = 1 \
     ORDER BY created_time ASC LIMIT 20",
    "SELECT * FROM transaction_logs WHERE tenant_id = 2 AND group IN (1, 2) \
     ORDER BY created_time DESC LIMIT 10",
    "SELECT * FROM transaction_logs WHERE tenant_id = 3",
    "SELECT * FROM transaction_logs WHERE status = 2",
    "SELECT * FROM transaction_logs WHERE tenant_id = 1 AND created_time >= 10000 \
     AND created_time <= 10500",
];

/// One step of the random interleaving.
#[derive(Debug, Clone)]
enum Op {
    Write { tenant: u64 },
    Delete { pick: usize },
    Refresh,
    Merge,
    Query { sql: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..5).prop_map(|tenant| Op::Write { tenant }),
        2 => any::<usize>().prop_map(|pick| Op::Delete { pick }),
        2 => Just(Op::Refresh),
        1 => Just(Op::Merge),
        4 => (0usize..SQLS.len()).prop_map(|sql| Op::Query { sql }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cache-on and cache-off instances fed the identical op stream must
    /// return identical rows for every query at every point.
    #[test]
    fn cache_on_off_equivalence(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let mut on = open("on", true);
        let (w_on, rd_on) = (on.writer(), on.reader());
        let mut off = open("off", false);
        let (w_off, rd_off) = (off.writer(), off.reader());
        let mut inserted: Vec<(u64, u64, u64)> = Vec::new();
        let mut next_record = 0u64;
        for op in ops {
            match op {
                Op::Write { tenant } => {
                    let record = next_record;
                    next_record += 1;
                    let at = 10_000 + record * 7;
                    w_on.insert(doc(tenant, record, at)).unwrap();
                    w_off.insert(doc(tenant, record, at)).unwrap();
                    inserted.push((tenant, record, at));
                }
                Op::Delete { pick } => {
                    if inserted.is_empty() {
                        continue;
                    }
                    let (tenant, record, at) = inserted.swap_remove(pick % inserted.len());
                    w_on.delete(TenantId(tenant), RecordId(record), at).unwrap();
                    w_off.delete(TenantId(tenant), RecordId(record), at).unwrap();
                }
                Op::Refresh => {
                    on.refresh();
                    off.refresh();
                }
                Op::Merge => {
                    on.merge();
                    off.merge();
                }
                Op::Query { sql } => {
                    // Run twice so the second execution can hit both tiers.
                    for pass in 0..2 {
                        let a = rd_on.query(SQLS[sql]).unwrap();
                        let b = rd_off.query(SQLS[sql]).unwrap();
                        prop_assert_eq!(
                            &a.docs, &b.docs,
                            "rows diverged (pass {}) on {}", pass, SQLS[sql]
                        );
                    }
                }
            }
        }
        // Final sweep: every probe query agrees on the end state.
        for sql in SQLS {
            let a = rd_on.query(sql).unwrap();
            let b = rd_off.query(sql).unwrap();
            prop_assert_eq!(&a.docs, &b.docs, "final rows diverged on {}", sql);
        }
    }
}

/// Deterministic hot-tenant scenario: cache entries live through
/// tombstones and a merge, and never serve a stale row.
#[test]
fn hot_tenant_cache_survives_tombstones_and_merge() {
    let mut on = open("det-on", true);
    let (w_on, rd_on) = (on.writer(), on.reader());
    let mut off = open("det-off", false);
    let (w_off, rd_off) = (off.writer(), off.reader());
    let sql = "SELECT * FROM transaction_logs WHERE tenant_id = 1 AND status = 0 \
               ORDER BY created_time ASC LIMIT 30";
    // Four refresh rounds → enough same-tier segments for the merge
    // policy to fire.
    for round in 0..4u64 {
        for r in round * 40..(round + 1) * 40 {
            let at = 10_000 + r;
            w_on.insert(doc(1, r, at)).unwrap();
            w_off.insert(doc(1, r, at)).unwrap();
        }
        on.refresh();
        off.refresh();
        // Query every round so cached entries exist before the next
        // mutation batch.
        assert_eq!(
            rd_on.query(sql).unwrap().docs,
            rd_off.query(sql).unwrap().docs
        );
    }
    // Tombstones land after caching, without a refresh in between.
    for r in [0u64, 3, 6, 9, 12] {
        w_on.delete(TenantId(1), RecordId(r), 10_000 + r).unwrap();
        w_off.delete(TenantId(1), RecordId(r), 10_000 + r).unwrap();
    }
    assert_eq!(
        rd_on.query(sql).unwrap().docs,
        rd_off.query(sql).unwrap().docs
    );
    // Merge retires the old segment ids; a stale id must never serve.
    let merged_on = on.merge();
    let merged_off = off.merge();
    assert_eq!(merged_on, merged_off);
    assert!(merged_on >= 1, "scenario must actually exercise a merge");
    assert_eq!(
        rd_on.query(sql).unwrap().docs,
        rd_off.query(sql).unwrap().docs
    );
    // Repeat within one generation: this is the skewed hot path both
    // tiers exist for.
    assert_eq!(
        rd_on.query(sql).unwrap().docs,
        rd_off.query(sql).unwrap().docs
    );
    // The enabled instance really cached: it must report activity.
    let s = on.stats();
    assert!(s.request_cache.hits >= 1, "{:?}", s.request_cache);
    assert!(
        s.filter_cache.hits + s.filter_cache.misses >= 1,
        "{:?}",
        s.filter_cache
    );
    let s_off = off.stats();
    assert_eq!(s_off.filter_cache.entries + s_off.request_cache.entries, 0);
}
