//! Snapshot-reader benchmark: Zipf-skewed queries racing forced merges.
//!
//! The lock-free read path's promise is that maintenance and queries
//! never wait on each other: a query pins the published snapshot once
//! and runs to completion against sealed segments, while refresh and
//! force-merge publish new snapshots without blocking. This bench
//! measures that promise directly:
//!
//! 1. loads Zipf(0.99)-skewed tenant data and draws one fixed query
//!    sequence (seeded — identical across runs and passes),
//! 2. times every query on an **uncontended** pass (no writer),
//! 3. times the same sequence **contended** — a writer thread loops
//!    insert-batch / refresh / force-merge the whole time, churning the
//!    segment set under the readers,
//! 4. verifies the determinism gate: churn touches only a noise tenant
//!    the queries never select, so every pass — quiescent or racing
//!    merges — must return byte-identical row keys, and
//! 5. writes `BENCH_snapshot_reads.json` at the repository root with
//!    contended vs. uncontended p50/p99.
//!
//! Exits non-zero if results ever diverge, or if the contended p99
//! exceeds 1.25x the uncontended p99. The timing gate needs the reader
//! and the writer to actually run simultaneously, so it is enforced
//! only in full mode on hosts with >= 2 available cores: on one core
//! the tail measures the OS scheduler's timeslice (the reader loses the
//! CPU to the merge for whole quanta), not the locking the gate is
//! about — and CI timing noise at smoke scale swamps the margin either
//! way. The ratio is always reported and recorded. Before this read
//! path existed, each forced merge held the shard's engine lock for its
//! full duration and contended readers stalled behind it outright.
//! Pass `--fast` (or set `READ_UNDER_MERGE_BENCH_FAST=1`) for the CI
//! smoke configuration.

use criterion::black_box;
use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, EsdbReader};
use esdb_doc::CollectionSchema;
use esdb_workload::{DocGenerator, WriteEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Zipf skew of the tenant choice (the paper's hot-tenant regime).
const THETA: f64 = 0.99;

/// Churn lands here — far outside the queried tenant range, so merges
/// reshape every segment the queries read without changing any answer.
const NOISE_TENANT: u64 = 1_000_000;

/// Contended-p99 budget relative to uncontended (full mode only).
const P99_BUDGET: f64 = 1.25;

struct Scale {
    mode: &'static str,
    shards: u32,
    tenants: usize,
    rows: u64,
    queries_per_pass: usize,
    repeats: usize,
    churn_batch: u64,
}

const FULL: Scale = Scale {
    mode: "full",
    shards: 4,
    tenants: 20,
    rows: 24_000,
    queries_per_pass: 160,
    repeats: 4,
    churn_batch: 600,
};

const FAST: Scale = Scale {
    mode: "fast",
    shards: 2,
    tenants: 10,
    rows: 4_000,
    queries_per_pass: 50,
    repeats: 2,
    churn_batch: 250,
};

/// The template queries a hot tenant repeats (Fig. 17 filter + sort +
/// top-k shapes).
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

/// Caches off: this bench isolates snapshot pin + execution latency;
/// cache hits would hide exactly the path under test.
fn build(scale: &Scale) -> Esdb {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "esdb-bench-rum-{}-{}",
        scale.mode,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(&dir)
            .shards(scale.shards)
            .query_caches(false),
    )
    .expect("open bench instance");
    let w = db.writer();
    let mut docs = DocGenerator::new(1_500, 20, 7);
    let zipf = ZipfSampler::new(scale.tenants, THETA);
    let mut rng = StdRng::seed_from_u64(7);
    // Refresh in slices so the working set starts multi-segment — the
    // contended pass then races merges that actually have work to do.
    let slice = scale.rows / 6;
    for r in 0..scale.rows {
        let tenant = 1 + zipf.sample(&mut rng) as u64;
        w.insert(docs.materialize(&WriteEvent {
            tenant: TenantId(tenant),
            record: RecordId(r),
            created_at: 1_000_000 + r * 350,
            bytes: 512,
        }))
        .expect("insert row");
        if r % slice == slice - 1 {
            db.refresh();
        }
    }
    db.refresh();
    db
}

/// The Zipf-skewed query sequence: identical for every pass.
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

/// Runs `repeats` passes over the sequence on the lock-free reader,
/// recording one latency per query execution and the row-key
/// fingerprint of every pass (all passes must agree).
fn measure(reader: &EsdbReader, seq: &[String], repeats: usize) -> (Vec<u64>, Vec<Vec<u64>>) {
    let mut latencies = Vec::with_capacity(seq.len() * repeats);
    let mut fingerprints = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let mut fp = Vec::new();
        for sql in seq {
            let t0 = Instant::now();
            let rows = black_box(reader.query(sql).expect("query"));
            latencies.push(t0.elapsed().as_nanos() as u64);
            fp.push(rows.docs.len() as u64);
            fp.extend(rows.docs.iter().map(|d| d.record_id.raw()));
        }
        fingerprints.push(fp);
    }
    (latencies, fingerprints)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn p50_p99(latencies: &mut [u64]) -> (u64, u64) {
    latencies.sort_unstable();
    (percentile(latencies, 0.50), percentile(latencies, 0.99))
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast" || a == "fast")
        || std::env::var("READ_UNDER_MERGE_BENCH_FAST").is_ok_and(|v| v == "1");
    let scale = if fast { FAST } else { FULL };
    let seq = query_sequence(&scale);

    let cores = esdb_bench::host_cores();
    let degraded = esdb_bench::degraded_single_core(fast);

    let mut db = build(&scale);
    let rd = db.reader();
    // Sequential per-query execution: one latency sample per query with
    // no scatter-gather thread-spawn jitter in it. The writer keeps the
    // default degree — merges are the contention source under test.
    db.set_parallelism(1);
    let reader = db.reader();
    db.set_parallelism(0);

    // Uncontended: nothing else touches the shards.
    let (mut lat_u, fp_u) = measure(&reader, &seq, scale.repeats);
    let mut determinism_ok = fp_u.iter().all(|fp| fp == &fp_u[0]);
    if !determinism_ok {
        eprintln!("DETERMINISM VIOLATION: uncontended passes disagree with each other");
    }

    // Contended: a writer thread churns insert/refresh/force-merge for
    // the whole measurement window. Only the noise tenant changes, so
    // answers must stay byte-identical to the quiescent pass.
    let done = AtomicBool::new(false);
    let merges = AtomicU64::new(0);
    let refreshes = AtomicU64::new(0);
    let (mut lat_c, fp_c) = std::thread::scope(|s| {
        let churn = db.writer();
        let writer_db = &mut db;
        let (done, merges, refreshes, scale_ref) = (&done, &merges, &refreshes, &scale);
        s.spawn(move || {
            let mut docs = DocGenerator::new(2_500, 20, 11);
            let mut next = scale_ref.rows;
            // At least one full churn cycle even if the readers finish
            // first, so "contended" is never an empty claim.
            loop {
                for _ in 0..scale_ref.churn_batch {
                    churn
                        .insert(docs.materialize(&WriteEvent {
                            tenant: TenantId(NOISE_TENANT),
                            record: RecordId(next),
                            created_at: 1_000_000 + next * 350,
                            bytes: 512,
                        }))
                        .expect("churn insert");
                    next += 1;
                }
                writer_db.refresh();
                refreshes.fetch_add(1, Ordering::Relaxed);
                merges.fetch_add(writer_db.force_merge() as u64, Ordering::Relaxed);
                if done.load(Ordering::Acquire) {
                    break;
                }
            }
        });
        let out = measure(&reader, &seq, scale.repeats);
        done.store(true, Ordering::Release);
        out
    });
    let merges = merges.load(Ordering::Relaxed);
    let refreshes = refreshes.load(Ordering::Relaxed);

    for (i, fp) in fp_c.iter().enumerate() {
        if fp != &fp_u[0] {
            eprintln!(
                "DETERMINISM VIOLATION: contended pass {i} diverged from the quiescent answers"
            );
            determinism_ok = false;
        }
    }
    // And the facade agrees once the dust settles.
    for sql in &seq {
        let _ = rd.query(sql).expect("post-churn query");
    }

    let (p50_u, p99_u) = p50_p99(&mut lat_u);
    let (p50_c, p99_c) = p50_p99(&mut lat_c);
    let p99_ratio = p99_c as f64 / p99_u as f64;

    println!(
        "read_under_merge/{}: uncontended p50 {:.1} us, p99 {:.1} us",
        scale.mode,
        p50_u as f64 / 1e3,
        p99_u as f64 / 1e3,
    );
    println!(
        "read_under_merge/{}: contended   p50 {:.1} us, p99 {:.1} us \
         ({refreshes} refreshes, {merges} forced merges during window)",
        scale.mode,
        p50_c as f64 / 1e3,
        p99_c as f64 / 1e3,
    );
    let gate_enforced = !fast && cores >= 2;
    println!(
        "read_under_merge/{}: contended/uncontended p99 ratio {p99_ratio:.3} \
         (budget {P99_BUDGET}, gate {}, {cores} cores)",
        scale.mode,
        if gate_enforced {
            "enforced"
        } else {
            "report-only"
        },
    );

    let json = format!(
        "{{\n  \"bench\": \"read_under_merge\",\n  \"mode\": \"{}\",\n  \"theta\": {THETA},\n  \
         \"shards\": {},\n  \"tenants\": {},\n  \"rows\": {},\n  \
         \"queries_per_pass\": {},\n  \"repeats\": {},\n  \
         \"uncontended_p50_ns\": {p50_u},\n  \"uncontended_p99_ns\": {p99_u},\n  \
         \"contended_p50_ns\": {p50_c},\n  \"contended_p99_ns\": {p99_c},\n  \
         \"contended_p99_ratio\": {p99_ratio:.4},\n  \"p99_budget\": {P99_BUDGET},\n  \
         \"available_parallelism\": {cores},\n  \"host_cores\": {cores},\n  \
         \"degraded_single_core\": {degraded},\n  \"p99_gate_enforced\": {gate_enforced},\n  \
         \"refreshes_during_contended\": {refreshes},\n  \
         \"forced_merges_during_contended\": {merges},\n  \
         \"contended_results_identical_to_quiescent\": {determinism_ok}\n}}\n",
        scale.mode, scale.shards, scale.tenants, scale.rows, scale.queries_per_pass, scale.repeats,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_snapshot_reads.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    if !determinism_ok {
        eprintln!("read_under_merge: FAILED determinism gate");
        std::process::exit(1);
    }
    if gate_enforced && p99_ratio > P99_BUDGET {
        eprintln!(
            "read_under_merge: FAILED contended p99 {p99_ratio:.3}x > {P99_BUDGET}x uncontended"
        );
        std::process::exit(1);
    }
}
