//! End-to-end telemetry correctness: lock-free registry totals under
//! contention, histogram merge algebra, trace/slow-log behavior through
//! the full query path, and exposition format gates.

use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig};
use esdb_doc::{CollectionSchema, Document};
use esdb_telemetry::{
    json_histogram_counts, lint_prometheus, prometheus_histogram_counts, Histogram,
    HistogramSnapshot, Labels, MetricsRegistry, TelemetryConfig,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("esdb-telem-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn doc(tenant: u64, record: u64, at: u64) -> Document {
    Document::builder(TenantId(tenant), RecordId(record), at)
        .field("status", (record % 2) as i64)
        .field("group", (record % 5) as i64)
        .field("auction_title", format!("item number {record}"))
        .build()
}

/// Concurrent counter adds across threads must total exactly the
/// sequential sum — the registry's whole reason to be lock-free is that
/// it never drops or double-counts an update.
#[test]
fn concurrent_counter_totals_match_sequential_sum() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let registry = Arc::new(MetricsRegistry::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let registry = Arc::clone(&registry);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    // Mix cached-handle and probe paths, plus labeled
                    // series that contend on the same stripes.
                    registry.add("esdb_test_ops_total", Labels::none(), 1);
                    registry.add("esdb_test_ops_total", Labels::shard((t % 4) as u32), 1);
                    registry.observe("esdb_test_latency_ns", Labels::none(), i + 1);
                }
            });
        }
    });
    assert_eq!(
        registry.counter_value("esdb_test_ops_total", Labels::none()),
        THREADS * PER_THREAD
    );
    let per_shard: u64 = (0..4)
        .map(|s| registry.counter_value("esdb_test_ops_total", Labels::shard(s)))
        .sum();
    assert_eq!(per_shard, THREADS * PER_THREAD);
    let h = registry.histogram("esdb_test_latency_ns", Labels::none());
    assert_eq!(h.count(), THREADS * PER_THREAD);
    // Sum is exact: every thread contributed 1 + 2 + … + PER_THREAD.
    let expected_sum = THREADS * (PER_THREAD * (PER_THREAD + 1) / 2);
    assert_eq!(h.snapshot().sum(), expected_sum as u128);
}

/// Concurrent histogram records agree with a sequentially built one
/// bucket for bucket.
#[test]
fn concurrent_histogram_matches_sequential() {
    const THREADS: u64 = 8;
    let concurrent = Arc::new(Histogram::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let h = Arc::clone(&concurrent);
            s.spawn(move || {
                for i in 0..5_000u64 {
                    h.record(i * 37 + t);
                }
            });
        }
    });
    let mut sequential = HistogramSnapshot::default();
    for t in 0..THREADS {
        for i in 0..5_000u64 {
            sequential.record(i * 37 + t);
        }
    }
    let snap = concurrent.snapshot();
    assert_eq!(snap.count(), sequential.count());
    assert_eq!(snap.max(), sequential.max());
    let a: Vec<(u64, u64)> = snap.buckets().collect();
    let b: Vec<(u64, u64)> = sequential.buckets().collect();
    assert_eq!(a, b, "bucket-for-bucket identical");
}

proptest! {
    /// Histogram merge is associative and order-independent: any
    /// grouping and ordering of per-shard snapshots yields the same
    /// merged distribution (counts, sum, max, every quantile).
    #[test]
    fn histogram_merge_is_associative_and_commutative(
        parts in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000, 0..40), 2..5),
        perm_seed in 0usize..24,
    ) {
        let snaps: Vec<HistogramSnapshot> = parts.iter().map(|vs| {
            let mut h = HistogramSnapshot::default();
            for &v in vs { h.record(v); }
            h
        }).collect();

        // Left fold: ((a ∪ b) ∪ c) ∪ d …
        let mut left = HistogramSnapshot::default();
        for s in &snaps { left.merge(s); }

        // Right fold: a ∪ (b ∪ (c ∪ d)) …
        let mut right = HistogramSnapshot::default();
        for s in snaps.iter().rev() { right.merge(s); }

        // An arbitrary permutation.
        let mut order: Vec<usize> = (0..snaps.len()).collect();
        let k = perm_seed % order.len();
        order.rotate_left(k);
        if perm_seed % 2 == 1 { order.reverse(); }
        let mut permuted = HistogramSnapshot::default();
        for &i in &order { permuted.merge(&snaps[i]); }

        for other in [&right, &permuted] {
            prop_assert_eq!(left.count(), other.count());
            prop_assert_eq!(left.sum(), other.sum());
            prop_assert_eq!(left.max(), other.max());
            let a: Vec<(u64, u64)> = left.buckets().collect();
            let b: Vec<(u64, u64)> = other.buckets().collect();
            prop_assert_eq!(a, b);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            prop_assert_eq!(left.quantile(q), right.quantile(q));
        }
    }
}

/// Telemetry on vs off must be row-identical across writes, refreshes,
/// and repeated queries — observation must not perturb the observed.
#[test]
fn telemetry_on_off_results_identical() {
    let mut on = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(tmpdir("on"))
            .shards(4)
            .telemetry_config(TelemetryConfig {
                trace_sample_every: 1,
                slow_query_threshold_us: 0,
                ..TelemetryConfig::default()
            }),
    )
    .unwrap();
    let (w_on, rd_on) = (on.writer(), on.reader());
    let mut off = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(tmpdir("off")).shards(4).telemetry(false),
    )
    .unwrap();
    let (w_off, rd_off) = (off.writer(), off.reader());
    for r in 0..300u64 {
        let d = doc(r % 7, r, 1_000 + r);
        w_on.insert(d.clone()).unwrap();
        w_off.insert(d).unwrap();
    }
    on.refresh();
    off.refresh();
    let sqls = [
        "SELECT * FROM transaction_logs WHERE tenant_id = 3 AND status = 1",
        "SELECT * FROM transaction_logs WHERE status = 0 ORDER BY created_time DESC LIMIT 25",
        "SELECT * FROM transaction_logs WHERE tenant_id = 5 ORDER BY created_time ASC LIMIT 10",
    ];
    for sql in sqls {
        for _ in 0..2 {
            let a = rd_on.query(sql).unwrap();
            let b = rd_off.query(sql).unwrap();
            assert_eq!(a.docs, b.docs, "{sql}");
        }
    }
    assert!(!on.slow_queries().is_empty());
    assert!(off.slow_queries().is_empty());
}

/// Satellite fix: a scatter-gather over k shards reports exactly k
/// execute samples, even for shards that contribute zero rows and for
/// request-cache hits.
#[test]
fn every_shard_reports_execute_sample() {
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(tmpdir("empty-shards"))
            .shards(8)
            .telemetry_config(TelemetryConfig {
                trace_sample_every: 1,
                slow_query_threshold_us: 0,
                ..TelemetryConfig::default()
            }),
    )
    .unwrap();
    let (w, rd) = (db.writer(), db.reader());
    // One tenant only: most of the 8 shards stay completely empty.
    for r in 0..50u64 {
        w.insert(doc(1, r, 1_000 + r)).unwrap();
    }
    db.refresh();
    // Tenantless fan-out twice: second pass is served from the request
    // cache and must still report all shards.
    for pass in 0..2 {
        rd.query("SELECT * FROM transaction_logs WHERE status = 1")
            .unwrap();
        let slow = db.slow_queries();
        let entry = slow.last().expect("slow-logged");
        assert_eq!(entry.fanout, 8);
        let mut shards: Vec<u32> = entry
            .stages
            .iter()
            .filter(|s| s.stage == "execute")
            .filter_map(|s| s.shard)
            .collect();
        shards.sort_unstable();
        assert_eq!(
            shards,
            (0..8).collect::<Vec<u32>>(),
            "pass {pass}: every shard reports execute, empty or cached"
        );
    }
}

/// The live snapshot of a real instance passes the Prometheus lint and
/// histogram counts round-trip identically through both renderings.
#[test]
fn live_snapshot_lints_and_round_trips() {
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(tmpdir("lint"))
            .shards(4)
            .telemetry_config(TelemetryConfig {
                trace_sample_every: 1,
                ..TelemetryConfig::default()
            }),
    )
    .unwrap();
    let (w, rd) = (db.writer(), db.reader());
    for r in 0..200u64 {
        w.insert(doc(r % 9, r, 1_000 + r)).unwrap();
    }
    db.refresh();
    db.merge();
    db.flush().unwrap();
    for _ in 0..5 {
        rd.query("SELECT * FROM transaction_logs WHERE tenant_id = 1")
            .unwrap();
        rd.query("SELECT * FROM transaction_logs WHERE status = 0 LIMIT 10")
            .unwrap();
    }
    let snap = db.telemetry_snapshot();
    assert!(!snap.histograms.is_empty());
    let prom = snap.to_prometheus();
    let errors = lint_prometheus(&prom);
    assert!(errors.is_empty(), "lint violations: {errors:?}");
    let prom_counts = prometheus_histogram_counts(&prom);
    let json_counts = json_histogram_counts(&snap.to_json().to_text());
    assert!(!prom_counts.is_empty());
    assert_eq!(prom_counts, json_counts, "Prometheus/JSON count round-trip");
    // Storage-layer stage series made it into the shared registry.
    assert!(prom.contains("esdb_storage_stage_ns"));
    assert!(prom.contains("esdb_query_total_ns"));
    assert!(prom.contains("esdb_monitor_writes_total"));
    // Flight-recorder write-path series: engine-lock hold time.
    assert!(prom.contains("esdb_write_drain_ns"));
}
