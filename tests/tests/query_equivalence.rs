//! Property-based query equivalence: for random datasets and random
//! filters, the optimized plan, the naive Lucene plan, and the reference
//! `Expr::matches` semantics must agree — end-to-end through segments.
//!
//! The second property targets the live dynamic-hashing path: a random
//! write/query schedule racing online rule commits and segment-handoff
//! migrations on the real multi-shard engine must stay byte-identical
//! to a single-shard oracle at every query point — before, during, and
//! after the span boundary, including tombstones and aggregates.

use esdb_common::{RecordId, SharedClock, TenantId};
use esdb_core::{Esdb, EsdbConfig};
use esdb_doc::{CollectionSchema, Document, FieldValue};
use esdb_index::{Segment, SegmentBuilder};
use esdb_integration_tests::test_dir;
use esdb_query::ast::{Bound, Expr, Query};
use esdb_query::xdriver::normalize_choose;
use esdb_query::{execute_on_segments, QueryOptions};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

fn build_segments(docs: &[Document], pieces: usize) -> Vec<Segment> {
    let schema = CollectionSchema::transaction_logs();
    let chunk = docs.len().div_ceil(pieces.max(1)).max(1);
    docs.chunks(chunk)
        .enumerate()
        .map(|(i, ds)| {
            let mut b = SegmentBuilder::without_attr_index(schema.clone());
            for d in ds {
                b.add(d.clone());
            }
            b.refresh(i as u64 + 1)
        })
        .collect()
}

fn arb_doc(id: u64) -> impl Strategy<Value = Document> {
    (
        0u64..6,     // tenant
        0i64..4,     // status
        0i64..5,     // group
        0u64..1_000, // created offset
        prop::sample::select(vec!["zhejiang", "jiangsu", "guangdong"]),
        prop::sample::select(vec!["rust book", "java book", "coffee beans", "desk lamp"]),
    )
        .prop_map(move |(tenant, status, group, t, prov, title)| {
            Document::builder(TenantId(tenant), RecordId(id), 10_000 + t)
                .field("status", status)
                .field("group", group)
                .field("province", prov)
                .field("auction_title", title)
                .build()
        })
}

fn arb_leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0i64..6).prop_map(|t| Expr::Eq("tenant_id".into(), FieldValue::Int(t))),
        (0i64..4).prop_map(|s| Expr::Eq("status".into(), FieldValue::Int(s))),
        (0i64..5).prop_map(|g| Expr::Eq("group".into(), FieldValue::Int(g))),
        proptest::collection::vec(0i64..5, 1..3).prop_map(|vs| Expr::In(
            "group".into(),
            vs.into_iter().map(FieldValue::Int).collect()
        )),
        (0u64..1_000, 0u64..1_000).prop_map(|(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            Expr::Range(
                "created_time".into(),
                Bound::Included(FieldValue::Timestamp(10_000 + lo)),
                Bound::Included(FieldValue::Timestamp(10_000 + hi)),
            )
        }),
        prop::sample::select(vec!["zhejiang", "jiangsu", "shanghai"])
            .prop_map(|p| Expr::Eq("province".into(), FieldValue::Str(p.into()))),
        prop::sample::select(vec!["rust", "book", "coffee", "lamp"])
            .prop_map(|w| Expr::Match("auction_title".into(), w.into())),
        (0i64..4).prop_map(|s| Expr::Ne("status".into(), FieldValue::Int(s))),
    ]
}

fn arb_filter() -> impl Strategy<Value = Expr> {
    arb_leaf().prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Expr::And),
            proptest::collection::vec(inner, 1..4).prop_map(Expr::Or),
        ]
    })
}

// ---------------------------------------------------------------------------
// Boundary-straddling equivalence on the live engine (ISSUE 10 / Fig. 17).
// ---------------------------------------------------------------------------

/// One step of a random schedule applied in lockstep to the multi-shard
/// engine and the single-shard oracle. Only the engine side ever sees
/// `Rebalance`/`Step` — the oracle has one shard and no rules, so its
/// results are the routing-free ground truth.
#[derive(Debug, Clone)]
enum LiveOp {
    /// Insert a row (85% land on the hot tenant).
    Insert { hot: bool, status: i64, group: i64 },
    /// Tombstone a previously inserted live row.
    Delete { pick: usize },
    /// Ordered SELECT; results must be byte-identical.
    Query { template: usize },
    /// Aggregate (COUNT/SUM/MIN/MAX, with and without GROUP BY).
    Aggregate { template: usize },
    /// Run a balancer period: may commit a grow-rule under commit-wait.
    Rebalance,
    /// Advance the migration one lifecycle phase (handoff/drain/cutover).
    Step,
    /// Move the shared manual clock (lets commit-wait expire mid-run).
    Advance { ms: u64 },
}

fn arb_live_op() -> impl Strategy<Value = LiveOp> {
    prop_oneof![
        6 => (0u8..10, 0i64..4, 0i64..5).prop_map(|(h, status, group)| LiveOp::Insert {
            hot: h < 9,
            status,
            group,
        }),
        2 => (0usize..1_000).prop_map(|pick| LiveOp::Delete { pick }),
        3 => (0usize..3).prop_map(|template| LiveOp::Query { template }),
        2 => (0usize..2).prop_map(|template| LiveOp::Aggregate { template }),
        1 => Just(LiveOp::Rebalance),
        2 => Just(LiveOp::Step),
        1 => (1u64..4).prop_map(|ms| LiveOp::Advance { ms }),
    ]
}

fn live_doc(tenant: u64, record: u64, at: u64, status: i64, group: i64) -> Document {
    Document::builder(TenantId(tenant), RecordId(record), at)
        .field("status", status)
        .field("group", group)
        .field(
            "province",
            if record % 2 == 0 {
                "zhejiang"
            } else {
                "jiangsu"
            },
        )
        .field("auction_title", format!("straddle {record}"))
        .build()
}

const LIVE_QUERIES: [&str; 3] = [
    "SELECT * FROM transaction_logs WHERE tenant_id = 7 ORDER BY created_time ASC",
    "SELECT * FROM transaction_logs WHERE tenant_id = 7 AND status = 1 \
     ORDER BY created_time ASC",
    "SELECT * FROM transaction_logs WHERE group IN (0, 2, 4) ORDER BY created_time DESC",
];

const LIVE_AGGS: [&str; 2] = [
    "SELECT COUNT(*), SUM(status) FROM transaction_logs WHERE tenant_id = 7",
    "SELECT COUNT(*), MIN(created_time), MAX(created_time) FROM transaction_logs \
     WHERE tenant_id = 7 GROUP BY group",
];

/// Distinguishes case directories across proptest iterations.
static LIVE_CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn live_rule_commits_preserve_query_equivalence(
        schedule in proptest::collection::vec(arb_live_op(), 30..90),
    ) {
        let case = LIVE_CASE.fetch_add(1, Ordering::Relaxed);
        let (clock, driver) = SharedClock::manual(1_000_000);
        let schema = CollectionSchema::transaction_logs();
        let mut live = Esdb::open_with_clock(
            schema.clone(),
            EsdbConfig::new(test_dir(&format!("straddle-live-{case}")))
                .shards(8)
                .commit_wait_ms(2),
            clock.clone(),
        )
        .expect("open live");
        let (w_live, rd_live) = (live.writer(), live.reader());
        let mut oracle = Esdb::open_with_clock(
            schema,
            EsdbConfig::new(test_dir(&format!("straddle-oracle-{case}"))).shards(1),
            clock,
        )
        .expect("open oracle");
        let (w_oracle, rd_oracle) = (oracle.writer(), oracle.reader());

        let mut now = 1_000_000u64;
        let mut seq = 0u64;
        let mut alive: Vec<(u64, u64, u64)> = Vec::new();
        let insert = |now: &mut u64,
                          seq: &mut u64,
                          alive: &mut Vec<(u64, u64, u64)>,
                          hot: bool,
                          status: i64,
                          group: i64| {
            // Advance the clock per insert so created_time is unique
            // (ORDER BY must have no cross-shard tie-break freedom) and
            // writes genuinely straddle any committed rule boundary.
            driver.advance(1);
            *now += 1;
            let tenant = if hot { 7 } else { 100 + *seq % 3 };
            let d = live_doc(tenant, *seq, *now, status, group);
            w_live.insert(d.clone()).expect("live insert");
            w_oracle.insert(d).expect("oracle insert");
            alive.push((tenant, *seq, *now));
            *seq += 1;
        };

        // Skew prefix: fuels the workload monitor past its per-period
        // minimum so the schedule's Rebalance ops can commit a rule.
        for r in 0..150u64 {
            insert(
                &mut now,
                &mut seq,
                &mut alive,
                r % 10 < 9,
                (r % 4) as i64,
                (r % 5) as i64,
            );
        }

        for op in &schedule {
            match *op {
                LiveOp::Insert { hot, status, group } => {
                    insert(&mut now, &mut seq, &mut alive, hot, status, group);
                }
                LiveOp::Delete { pick } => {
                    if !alive.is_empty() {
                        let (t, r, at) = alive.remove(pick % alive.len());
                        w_live.delete(TenantId(t), RecordId(r), at).expect("live delete");
                        w_oracle
                            .delete(TenantId(t), RecordId(r), at)
                            .expect("oracle delete");
                    }
                }
                LiveOp::Query { template } => {
                    live.refresh();
                    oracle.refresh();
                    let sql = LIVE_QUERIES[template % LIVE_QUERIES.len()];
                    let got = rd_live.query(sql).expect("live query").docs;
                    let want = rd_oracle.query(sql).expect("oracle query").docs;
                    prop_assert_eq!(got, want, "query diverged mid-schedule: {}", sql);
                }
                LiveOp::Aggregate { template } => {
                    live.refresh();
                    oracle.refresh();
                    let sql = LIVE_AGGS[template % LIVE_AGGS.len()];
                    let got = rd_live.aggregate(sql).expect("live agg").rows;
                    let want = rd_oracle.aggregate(sql).expect("oracle agg").rows;
                    prop_assert_eq!(got, want, "aggregate diverged mid-schedule: {}", sql);
                }
                LiveOp::Rebalance => {
                    live.rebalance();
                }
                LiveOp::Step => {
                    live.step_migrations();
                }
                LiveOp::Advance { ms } => {
                    driver.advance(ms);
                    now += ms;
                }
            }
        }

        // Force the boundary if the schedule never got there, then let
        // every in-flight migration run to a terminal phase.
        live.rebalance();
        driver.advance(5);
        live.drive_migrations();
        for s in live.migrations_snapshot() {
            prop_assert!(!s.phase.is_active(), "migration left mid-flight: {:?}", s);
        }

        // Post-cutover equivalence: every template, byte-identical.
        live.refresh();
        oracle.refresh();
        for sql in LIVE_QUERIES {
            let got = rd_live.query(sql).expect("live query").docs;
            let want = rd_oracle.query(sql).expect("oracle query").docs;
            prop_assert_eq!(got, want, "query diverged post-cutover: {}", sql);
        }
        for sql in LIVE_AGGS {
            let got = rd_live.aggregate(sql).expect("live agg").rows;
            let want = rd_oracle.aggregate(sql).expect("oracle agg").rows;
            prop_assert_eq!(got, want, "aggregate diverged post-cutover: {}", sql);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plans_agree_with_reference(
        docs in proptest::collection::vec(any::<u64>(), 1..60).prop_flat_map(|seeds| {
            let strategies: Vec<_> = seeds
                .iter()
                .enumerate()
                .map(|(i, _)| arb_doc(i as u64))
                .collect();
            strategies
        }),
        filter in arb_filter(),
        pieces in 1usize..4,
    ) {
        let filter = normalize_choose(filter);
        let segments = build_segments(&docs, pieces);
        let seg_refs: Vec<&Segment> = segments.iter().collect();
        let schema = CollectionSchema::transaction_logs();
        let query = Query {
            table: "transaction_logs".into(),
            projection: vec![],
            filter: filter.clone(),
            order_by: None,
            limit: None,
            aggregates: vec![],
            group_by: None,
        };
        let mut expected: Vec<u64> = docs
            .iter()
            .filter(|d| filter.matches(d))
            .map(|d| d.record_id.raw())
            .collect();
        expected.sort_unstable();
        for use_optimizer in [true, false] {
            let rows = execute_on_segments(
                &query,
                &schema,
                &seg_refs,
                QueryOptions {
                    use_optimizer,
                    ..QueryOptions::default()
                },
            );
            let mut got: Vec<u64> = rows.docs.iter().map(|d| d.record_id.raw()).collect();
            got.sort_unstable();
            prop_assert_eq!(
                &got, &expected,
                "plan disagreement (optimizer={}) on filter {:?}",
                use_optimizer, filter
            );
        }
    }
}
