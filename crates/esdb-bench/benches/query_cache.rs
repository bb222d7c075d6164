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
//!    (disabled), and
//! 5. writes `BENCH_query_cache.json` at the repository root.
//!
//! Exits non-zero if the determinism gate fails or the warm passes are
//! slower than the uncached baseline (speedup < 1.0). Pass `--fast` (or
//! set `QUERY_CACHE_BENCH_FAST=1`) for the CI smoke configuration.

use criterion::black_box;
use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, EsdbReader};
use esdb_doc::CollectionSchema;
use esdb_workload::{DocGenerator, WriteEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Instant;

/// Zipf skew of the tenant choice (the paper's hot-tenant regime).
const THETA: f64 = 0.99;

struct Scale {
    mode: &'static str,
    shards: u32,
    tenants: usize,
    rows: u64,
    queries_per_pass: usize,
    samples: usize,
}

const FULL: Scale = Scale {
    mode: "full",
    shards: 8,
    tenants: 20,
    rows: 48_000,
    queries_per_pass: 200,
    samples: 9,
};

const FAST: Scale = Scale {
    mode: "fast",
    shards: 4,
    tenants: 10,
    rows: 6_000,
    queries_per_pass: 60,
    samples: 5,
};

/// The template queries a hot tenant repeats (filter + sort + top-k
/// shapes from Fig. 17). Small LIMITs keep the fetch phase — paid by
/// cached and uncached execution alike — from hiding the index and sort
/// work the cache saves.
fn templates(tenant: u64) -> [String; 3] {
    [
        format!(
            "SELECT * FROM transaction_logs WHERE tenant_id = {tenant} \
             AND status = 1 ORDER BY created_time DESC LIMIT 50"
        ),
        format!(
            "SELECT * FROM transaction_logs WHERE tenant_id = {tenant} \
             AND group IN (1, 2, 3) ORDER BY created_time ASC LIMIT 50"
        ),
        format!(
            "SELECT * FROM transaction_logs WHERE tenant_id = {tenant} \
             AND created_time BETWEEN 1000000 AND 100000000 \
             ORDER BY created_time DESC LIMIT 50"
        ),
    ]
}

fn build(scale: &Scale, caches: bool) -> Esdb {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "esdb-bench-qcache-{}-{}-{}",
        scale.mode,
        caches,
        std::process::id()
    ));
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

/// The Zipf-skewed query sequence: identical for every instance and pass.
fn query_sequence(scale: &Scale) -> Vec<String> {
    let zipf = ZipfSampler::new(scale.tenants, THETA);
    let mut rng = StdRng::seed_from_u64(42);
    (0..scale.queries_per_pass)
        .map(|_| {
            let tenant = 1 + zipf.sample(&mut rng) as u64;
            let t = templates(tenant);
            t[rng.random_range(0..t.len())].clone()
        })
        .collect()
}

/// Runs one pass; returns the row-key fingerprint of every result.
fn run_pass(rd: &EsdbReader, seq: &[String]) -> Vec<u64> {
    let mut fingerprint = Vec::new();
    for sql in seq {
        let rows = rd.query(sql).expect("query");
        fingerprint.push(rows.docs.len() as u64);
        fingerprint.extend(rows.docs.iter().map(|d| d.record_id.raw()));
    }
    fingerprint
}

fn time_pass(rd: &EsdbReader, seq: &[String]) -> u128 {
    let t0 = Instant::now();
    black_box(run_pass(rd, seq));
    t0.elapsed().as_nanos()
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast" || a == "fast")
        || std::env::var("QUERY_CACHE_BENCH_FAST").is_ok_and(|v| v == "1");
    let scale = if fast { FAST } else { FULL };
    let host_cores = esdb_bench::host_cores();
    let degraded = esdb_bench::degraded_single_core(fast);
    let seq = query_sequence(&scale);

    let mut on = build(&scale, true);
    let mut off = build(&scale, false);
    let (w_on, rd_on, w_off, rd_off) = (on.writer(), on.reader(), off.writer(), off.reader());

    // Determinism gate: cache-on must be row-identical to cache-off on
    // the cold pass (both empty) and on warm passes (hits serving).
    let mut determinism_ok = true;
    let reference = run_pass(&rd_off, &seq);
    let cold_check = run_pass(&rd_on, &seq);
    if cold_check != reference {
        eprintln!("DETERMINISM VIOLATION: cold cached pass diverged from uncached");
        determinism_ok = false;
    }
    for pass in 0..2 {
        if run_pass(&rd_on, &seq) != reference {
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
    let warm_median = esdb_bench::median(&mut warm);
    let uncached_median = esdb_bench::median(&mut uncached);
    let warm_speedup = uncached_median as f64 / warm_median as f64;
    let cold_vs_warm = cold_ns as f64 / warm_median as f64;

    let stats = on.stats();
    println!(
        "query_cache/{}: cold {:.3} ms, warm median {:.3} ms, uncached median {:.3} ms",
        scale.mode,
        cold_ns as f64 / 1e6,
        warm_median as f64 / 1e6,
        uncached_median as f64 / 1e6,
    );
    println!(
        "query_cache/{}: warm speedup vs uncached {:.2}x, cold vs warm {:.2}x",
        scale.mode, warm_speedup, cold_vs_warm
    );
    println!(
        "query_cache/{}: tier1 hits {} (of which {} post-mutation) misses {} bytes {}, \
         tier2 hits {} misses {} entries {}",
        scale.mode,
        stats.filter_cache.hits,
        tier1_hits_after_mutation,
        stats.filter_cache.misses,
        stats.filter_cache.bytes,
        stats.request_cache.hits,
        stats.request_cache.misses,
        stats.request_cache.entries,
    );

    let json = format!(
        "{{\n  \"bench\": \"query_cache\",\n  \"mode\": \"{}\",\n  \"theta\": {THETA},\n  \
         \"shards\": {},\n  \"tenants\": {},\n  \"rows\": {},\n  \"queries_per_pass\": {},\n  \
         \"samples\": {},\n  \"host_cores\": {host_cores},\n  \
         \"degraded_single_core\": {degraded},\n  \"cold_pass_ns\": {cold_ns},\n  \
         \"warm_median_ns\": {warm_median},\n  \"uncached_median_ns\": {uncached_median},\n  \
         \"warm_speedup_vs_uncached\": {warm_speedup:.4},\n  \
         \"cold_vs_warm_speedup\": {cold_vs_warm:.4},\n  \
         \"cached_results_identical_to_uncached\": {determinism_ok},\n  \
         \"tier1_hits_after_mutation\": {tier1_hits_after_mutation},\n  \
         \"filter_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
         \"bytes\": {}, \"entries\": {}}},\n  \
         \"request_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
         \"entries\": {}}}\n}}\n",
        scale.mode,
        scale.shards,
        scale.tenants,
        scale.rows,
        scale.queries_per_pass,
        scale.samples,
        stats.filter_cache.hits,
        stats.filter_cache.misses,
        stats.filter_cache.evictions,
        stats.filter_cache.bytes,
        stats.filter_cache.entries,
        stats.request_cache.hits,
        stats.request_cache.misses,
        stats.request_cache.evictions,
        stats.request_cache.entries,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query_cache.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    if !determinism_ok {
        eprintln!("query_cache: FAILED determinism gate");
        std::process::exit(1);
    }
    if warm_speedup < 1.0 {
        eprintln!("query_cache: FAILED warm speedup {warm_speedup:.2}x < 1.0x");
        std::process::exit(1);
    }
}
