//! Multi-writer ingest benchmark: `EsdbWriter` clones on N threads
//! against the single-writer baseline, on a Zipf(0.99)-skewed tenant
//! mix (the paper's real-time ingest regime, §1/§3.1).
//!
//! The benchmark:
//!
//! 1. pre-generates one deterministic op schedule per writer thread
//!    (disjoint record-id ranges, shared Zipf-hot tenants),
//! 2. ingests it single-threaded, then with `WRITER_THREADS` concurrent
//!    `EsdbWriter` clones, each into a fresh instance, and times both,
//! 3. gates hard (all modes) on identity — the multi-writer instance's
//!    per-shard doc distribution and live totals must equal the
//!    sequential baseline's — and on conservation:
//!    `writes_total + write_errors_total == ops issued`, errors zero,
//! 4. gates multi-writer scaling at >= 2x single-writer ops/s in full
//!    mode on hosts with >= `WRITER_THREADS` cores (a core per writer);
//!    with fewer cores the gate is report-only — the recorded 2-core
//!    runs miss it, see EXPERIMENTS.md — and
//! 5. reports how contended submissions waited
//!    (`esdb_write_lock_wait_ns`: share of submissions, mean, p50,
//!    p99).
//!
//! Run with `-- --fast` for the CI smoke scale: identity and
//! conservation gates stay hard, the scaling gate turns report-only.

use esdb_bench::report::{median, Report};
use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, EsdbWriter};
use esdb_doc::{CollectionSchema, Document};
use esdb_telemetry::HistogramSnapshot;
use esdb_workload::{DocGenerator, WriteEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

/// Zipf skew of tenant choice (the paper's regime).
const THETA: f64 = 0.99;

/// Concurrent writer threads in the multi-writer pass.
const WRITER_THREADS: usize = 4;

/// Minimum multi-writer ops/s over single-writer ops/s.
const SCALING_GATE: f64 = 2.0;

struct Scale {
    shards: u32,
    tenants: usize,
    ops_per_thread: u64,
    samples: usize,
}

const FULL: Scale = Scale {
    shards: 8,
    tenants: 100,
    ops_per_thread: 10_000,
    samples: 5,
};

const FAST: Scale = Scale {
    shards: 4,
    tenants: 10,
    ops_per_thread: 500,
    samples: 2,
};

/// One writer thread's deterministic schedule: inserts with a private
/// record-id range and Zipf-skewed tenants, so every run (single or
/// multi, any sample) ingests the identical op multiset.
fn schedules(scale: &Scale) -> Vec<Vec<Document>> {
    let zipf = ZipfSampler::new(scale.tenants, THETA);
    (0..WRITER_THREADS as u64)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(0xE5DB + t);
            let mut docs = DocGenerator::new(1_500, 20, 7 + t);
            (0..scale.ops_per_thread)
                .map(|i| {
                    let tenant = 1 + zipf.sample(&mut rng) as u64;
                    docs.materialize(&WriteEvent {
                        tenant: TenantId(tenant),
                        record: RecordId(t * 10_000_000 + i),
                        created_at: 1_000_000 + i * 250,
                        bytes: 512,
                    })
                })
                .collect()
        })
        .collect()
}

fn open(scale: &Scale, tag: &str) -> Esdb {
    let dir = std::env::temp_dir().join(format!("esdb-bench-writetp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(&dir).shards(scale.shards),
    )
    .expect("open bench instance")
}

/// Ingests every schedule on one thread; returns elapsed nanoseconds.
fn run_single(writer: &EsdbWriter, schedules: &[Vec<Document>]) -> u128 {
    let t0 = Instant::now();
    for sched in schedules {
        for doc in sched {
            writer.insert(doc.clone()).expect("single-writer insert");
        }
    }
    t0.elapsed().as_nanos()
}

/// Ingests schedule `t` on thread `t` through writer clones; returns
/// wall-clock elapsed nanoseconds across the whole fan-out.
fn run_multi(writer: &EsdbWriter, schedules: &[Vec<Document>]) -> u128 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for sched in schedules {
            let writer = writer.clone();
            scope.spawn(move || {
                for doc in sched {
                    writer.insert(doc.clone()).expect("multi-writer insert");
                }
            });
        }
    });
    t0.elapsed().as_nanos()
}

/// Hard per-run gates: zero write errors and every issued op counted.
fn check_conservation(db: &Esdb, issued: u64, label: &str) -> bool {
    let stats = db.stats();
    let ok = stats.write_errors == 0 && stats.writes == issued;
    if !ok {
        eprintln!(
            "CONSERVATION VIOLATION ({label}): issued {issued}, \
             counted {} writes + {} errors",
            stats.writes, stats.write_errors
        );
    }
    ok
}

fn main() -> ExitCode {
    let mut report = Report::from_args("write_throughput");
    let scale = if report.fast() { FAST } else { FULL };

    let scheds = schedules(&scale);
    let issued = WRITER_THREADS as u64 * scale.ops_per_thread;

    let mut single_ns: Vec<u128> = Vec::with_capacity(scale.samples);
    let mut multi_ns: Vec<u128> = Vec::with_capacity(scale.samples);
    let mut identity_ok = true;
    let mut conservation_ok = true;
    let mut lock_wait = HistogramSnapshot::new();
    for sample in 0..scale.samples {
        let mut single_db = open(&scale, &format!("single-{sample}"));
        single_ns.push(run_single(&single_db.writer(), &scheds));
        conservation_ok &= check_conservation(&single_db, issued, "single");

        let mut multi_db = open(&scale, &format!("multi-{sample}"));
        multi_ns.push(run_multi(&multi_db.writer(), &scheds));
        conservation_ok &= check_conservation(&multi_db, issued, "multi");

        // Identity gate: routing is deterministic, so the multi-writer
        // instance must hold exactly the baseline's doc distribution.
        single_db.refresh();
        multi_db.refresh();
        if multi_db.shard_doc_counts() != single_db.shard_doc_counts()
            || multi_db.stats().live_docs as u64 != issued
        {
            eprintln!(
                "IDENTITY VIOLATION: multi-writer shard distribution {:?} \
                 != single-writer {:?} (issued {issued})",
                multi_db.shard_doc_counts(),
                single_db.shard_doc_counts()
            );
            identity_ok = false;
        }
        // Where contended submissions spent their time: blocked on a
        // shard's engine lock behind another writer.
        if let Some((_, _, h)) = multi_db
            .telemetry_snapshot()
            .histograms
            .iter()
            .find(|(n, _, _)| n == "esdb_write_lock_wait_ns")
        {
            lock_wait.merge(h);
        }
    }

    let sn = median(&mut single_ns);
    let mn = median(&mut multi_ns);
    let single_ops_s = issued as f64 / (sn as f64 / 1e9);
    let multi_ops_s = issued as f64 / (mn as f64 / 1e9);
    let scaling = multi_ops_s / single_ops_s;
    let contended_share = lock_wait.count() as f64 / (issued * scale.samples as u64) as f64;
    let (wait_p50, wait_p99) = (lock_wait.quantile(0.5), lock_wait.quantile(0.99));
    let wait_mean = lock_wait.mean();

    println!(
        "write_throughput: single-writer median {:.1}k ops/s, \
         {WRITER_THREADS}-writer median {:.1}k ops/s ({scaling:.2}x); \
         {:.1}% of multi-writer submissions waited on a shard lock \
         (mean {wait_mean:.0} ns, p50 {wait_p50} ns, p99 {wait_p99} ns)",
        single_ops_s / 1e3,
        multi_ops_s / 1e3,
        contended_share * 100.0,
    );
    report
        .field("theta", THETA)
        .field("shards", scale.shards)
        .field("tenants", scale.tenants)
        .field("writer_threads", WRITER_THREADS)
        .field("ops_per_thread", scale.ops_per_thread)
        .field("ops_per_run", issued)
        .field("samples", scale.samples)
        .field("single_median_ns", sn)
        .field("multi_median_ns", mn)
        .field("single_ops_per_s", single_ops_s)
        .field("multi_ops_per_s", multi_ops_s)
        .field("scaling", scaling)
        .field("lock_wait_share", contended_share)
        .field("lock_wait_mean_ns", wait_mean)
        .field("lock_wait_p50_ns", wait_p50)
        .field("lock_wait_p99_ns", wait_p99)
        .field("scaling_gate", SCALING_GATE);
    report.check("multi_writer_distribution_identical", identity_ok);
    report.check("writes_conserved", conservation_ok);
    report.timing_gate("scaling_2x", scaling >= SCALING_GATE, WRITER_THREADS);
    report.finish()
}
