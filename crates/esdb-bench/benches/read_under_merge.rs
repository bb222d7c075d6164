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
//! 5. reports contended vs. uncontended p50/p99.
//!
//! Exits non-zero if results ever diverge, or if the contended p99
//! exceeds 1.25x the uncontended p99. The timing gate needs the reader
//! and the writer to actually run simultaneously, so it is enforced
//! only in full mode on hosts with >= 2 available cores: on one core
//! the tail measures the OS scheduler's timeslice (the reader loses the
//! CPU to the merge for whole quanta), not the locking the gate is
//! about — and CI timing noise at smoke scale swamps the margin either
//! way. The ratio is always reported. Before this read path existed,
//! each forced merge held the shard's engine lock for its full duration
//! and contended readers stalled behind it outright. Run with
//! `-- --fast` for the CI smoke scale.

use criterion::black_box;
use esdb_bench::query_sequence;
use esdb_bench::report::{percentile, Report};
use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, EsdbReader};
use esdb_doc::CollectionSchema;
use esdb_workload::{DocGenerator, WriteEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
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
    shards: u32,
    tenants: usize,
    rows: u64,
    queries_per_pass: usize,
    repeats: usize,
    churn_batch: u64,
}

const FULL: Scale = Scale {
    shards: 4,
    tenants: 20,
    rows: 24_000,
    queries_per_pass: 160,
    repeats: 4,
    churn_batch: 600,
};

const FAST: Scale = Scale {
    shards: 2,
    tenants: 10,
    rows: 4_000,
    queries_per_pass: 50,
    repeats: 2,
    churn_batch: 250,
};

/// Caches off: this bench isolates snapshot pin + execution latency;
/// cache hits would hide exactly the path under test.
fn build(scale: &Scale) -> Esdb {
    let dir = std::env::temp_dir().join(format!("esdb-bench-rum-{}", std::process::id()));
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

fn p50_p99(latencies: &mut [u64]) -> (u64, u64) {
    latencies.sort_unstable();
    (percentile(latencies, 0.50), percentile(latencies, 0.99))
}

fn main() -> ExitCode {
    let mut report = Report::from_args("read_under_merge");
    let scale = if report.fast() { FAST } else { FULL };
    let seq = query_sequence(scale.tenants, scale.queries_per_pass);

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
        "read_under_merge: uncontended p50 {:.1} us p99 {:.1} us, contended p50 {:.1} us \
         p99 {:.1} us ({p99_ratio:.3}x; {refreshes} refreshes, {merges} forced merges)",
        p50_u as f64 / 1e3,
        p99_u as f64 / 1e3,
        p50_c as f64 / 1e3,
        p99_c as f64 / 1e3,
    );
    report
        .field("theta", THETA)
        .field("shards", scale.shards)
        .field("tenants", scale.tenants)
        .field("rows", scale.rows)
        .field("queries_per_pass", scale.queries_per_pass)
        .field("repeats", scale.repeats)
        .field("uncontended_p50_ns", p50_u)
        .field("uncontended_p99_ns", p99_u)
        .field("contended_p50_ns", p50_c)
        .field("contended_p99_ns", p99_c)
        .field("contended_p99_ratio", p99_ratio)
        .field("p99_budget", P99_BUDGET)
        .field("refreshes_during_contended", refreshes)
        .field("forced_merges_during_contended", merges);
    report.check("contended_results_identical_to_quiescent", determinism_ok);
    report.timing_gate("contended_p99_within_1_25x", p99_ratio <= P99_BUDGET, 2);
    report.finish()
}
