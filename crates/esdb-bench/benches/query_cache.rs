//! Skew-aware query-cache benchmark: Zipf-distributed repeated queries
//! against hot tenants, cold versus warm, cache on versus off.
//!
//! The access pattern is the one the paper's workload analysis motivates
//! (§2, §6.1): a handful of hot tenants issue the same template queries
//! over and over between refresh intervals, so both cache tiers should
//! convert the repeats into hits. The benchmark:
//!
//! 1. loads identical data into a cache-enabled and a cache-disabled
//!    instance,
//! 2. draws one query sequence with Zipf(θ)-skewed tenant choice,
//! 3. verifies row-identical results between the two instances on a cold
//!    AND a warm pass (the determinism gate),
//! 4. times the cold pass, warm passes (enabled), and uncached passes
//!    (disabled).
//!
//! Exits non-zero if the determinism gate fails or the warm passes are
//! slower than the uncached baseline (speedup < 1.0), in every mode. Run
//! with `-- --fast` for the CI smoke scale.

use criterion::black_box;
use esdb_bench::report::{median, Report};
use esdb_bench::{query_sequence, row_keys};
use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, EsdbReader};
use esdb_doc::CollectionSchema;
use esdb_workload::{DocGenerator, WriteEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

/// Zipf skew of the tenant choice (the paper's hot-tenant regime).
const THETA: f64 = 0.99;

struct Scale {
    shards: u32,
    tenants: usize,
    rows: u64,
    queries_per_pass: usize,
    samples: usize,
}

const FULL: Scale = Scale {
    shards: 8,
    tenants: 20,
    rows: 48_000,
    queries_per_pass: 200,
    samples: 9,
};

const FAST: Scale = Scale {
    shards: 4,
    tenants: 10,
    rows: 6_000,
    queries_per_pass: 60,
    samples: 5,
};

fn build(scale: &Scale, caches: bool) -> Esdb {
    let dir =
        std::env::temp_dir().join(format!("esdb-bench-qcache-{caches}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(&dir)
            .shards(scale.shards)
            .query_caches(caches),
    )
    .expect("open bench instance");
    let w = db.writer();
    let mut docs = DocGenerator::new(1_500, 20, 7);
    // Tenant data itself is Zipf-skewed too: hot tenants own most rows,
    // so their queries are the expensive ones the cache absorbs.
    let zipf = ZipfSampler::new(scale.tenants, THETA);
    let mut rng = StdRng::seed_from_u64(7);
    for r in 0..scale.rows {
        let tenant = 1 + zipf.sample(&mut rng) as u64;
        w.insert(docs.materialize(&WriteEvent {
            tenant: TenantId(tenant),
            record: RecordId(r),
            created_at: 1_000_000 + r * 350,
            bytes: 512,
        }))
        .expect("insert row");
    }
    db.refresh();
    db.merge();
    db.refresh();
    db
}

fn time_pass(rd: &EsdbReader, seq: &[String]) -> u128 {
    let t0 = Instant::now();
    black_box(row_keys(rd, seq));
    t0.elapsed().as_nanos()
}

fn main() -> ExitCode {
    let mut report = Report::from_args("query_cache");
    let scale = if report.fast() { FAST } else { FULL };
    let seq = query_sequence(scale.tenants, scale.queries_per_pass);

    let mut on = build(&scale, true);
    let mut off = build(&scale, false);
    let (w_on, rd_on, w_off, rd_off) = (on.writer(), on.reader(), off.writer(), off.reader());

    // Determinism gate: cache-on must be row-identical to cache-off on
    // the cold pass (both empty) and on warm passes (hits serving).
    let mut determinism_ok = true;
    let reference = row_keys(&rd_off, &seq);
    let cold_check = row_keys(&rd_on, &seq);
    if cold_check != reference {
        eprintln!("DETERMINISM VIOLATION: cold cached pass diverged from uncached");
        determinism_ok = false;
    }
    for pass in 0..2 {
        if row_keys(&rd_on, &seq) != reference {
            eprintln!("DETERMINISM VIOLATION: warm cached pass {pass} diverged from uncached");
            determinism_ok = false;
        }
    }

    // Tier-1 exercise: land new rows for the hottest tenants and refresh.
    // Every mutated shard's generation bumps, so tier 2 misses there —
    // but the *old* segments are untouched and their cached posting lists
    // must serve (tier-1 hits) under the new segment lists.
    let mut docs = DocGenerator::new(1_500, 20, 7);
    for (i, tenant) in (1..=3u64).enumerate() {
        for k in 0..20u64 {
            let r = scale.rows + i as u64 * 100 + k;
            let ev = WriteEvent {
                tenant: TenantId(tenant),
                record: RecordId(r),
                created_at: 1_000_000 + r * 350,
                bytes: 512,
            };
            let d = docs.materialize(&ev);
            w_on.insert(d.clone()).expect("insert row");
            w_off.insert(d).expect("insert row");
        }
    }
    on.refresh();
    off.refresh();
    for sql in &seq {
        let a = rd_off.query(sql).expect("query");
        let b = rd_on.query(sql).expect("query");
        let ka: Vec<u64> = a.docs.iter().map(|d| d.record_id.raw()).collect();
        let kb: Vec<u64> = b.docs.iter().map(|d| d.record_id.raw()).collect();
        if ka != kb {
            eprintln!(
                "DETERMINISM VIOLATION: post-mutation divergence on {sql}\n  uncached: {ka:?}\n  cached:   {kb:?}"
            );
            determinism_ok = false;
            break;
        }
    }
    let tier1_hits_after_mutation = on.stats().filter_cache.hits;

    // Timings. A fresh cache-enabled instance gives an honest cold pass;
    // `on` is already warm for the warm samples.
    let cold_ns = time_pass(&build(&scale, true).reader(), &seq);
    let mut warm: Vec<u128> = (0..scale.samples)
        .map(|_| time_pass(&rd_on, &seq))
        .collect();
    let mut uncached: Vec<u128> = (0..scale.samples)
        .map(|_| time_pass(&rd_off, &seq))
        .collect();
    let warm_median = median(&mut warm);
    let uncached_median = median(&mut uncached);
    let warm_speedup = uncached_median as f64 / warm_median as f64;
    let cold_vs_warm = cold_ns as f64 / warm_median as f64;

    let stats = on.stats();
    println!(
        "query_cache: cold {:.3} ms, warm median {:.3} ms, uncached median {:.3} ms \
         (warm speedup {warm_speedup:.2}x, cold vs warm {cold_vs_warm:.2}x)",
        cold_ns as f64 / 1e6,
        warm_median as f64 / 1e6,
        uncached_median as f64 / 1e6,
    );
    report
        .field("theta", THETA)
        .field("shards", scale.shards)
        .field("tenants", scale.tenants)
        .field("rows", scale.rows)
        .field("queries_per_pass", scale.queries_per_pass)
        .field("samples", scale.samples)
        .field("cold_pass_ns", cold_ns)
        .field("warm_median_ns", warm_median)
        .field("uncached_median_ns", uncached_median)
        .field("warm_speedup_vs_uncached", warm_speedup)
        .field("cold_vs_warm_speedup", cold_vs_warm)
        .field("tier1_hits_after_mutation", tier1_hits_after_mutation)
        .field("filter_cache_hits", stats.filter_cache.hits)
        .field("filter_cache_misses", stats.filter_cache.misses)
        .field("filter_cache_evictions", stats.filter_cache.evictions)
        .field("filter_cache_bytes", stats.filter_cache.bytes)
        .field("filter_cache_entries", stats.filter_cache.entries)
        .field("request_cache_hits", stats.request_cache.hits)
        .field("request_cache_misses", stats.request_cache.misses)
        .field("request_cache_evictions", stats.request_cache.evictions)
        .field("request_cache_entries", stats.request_cache.entries);
    report.check("cached_results_identical_to_uncached", determinism_ok);
    report.check("warm_speedup_at_least_1x", warm_speedup >= 1.0);
    report.finish()
}
