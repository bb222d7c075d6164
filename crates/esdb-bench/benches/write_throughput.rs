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
//!    mode on hosts with >= `WRITER_THREADS` cores; with fewer cores
//!    the bar is 1x (concurrent writers should not lose to one) and
//!    report-only — the recorded 2-core runs miss it, see
//!    EXPERIMENTS.md — with `degraded_single_core` marking one core,
//! 5. reports how contended submissions waited
//!    (`esdb_write_lock_wait_ns`: share of submissions, mean, p50,
//!    p99), and
//! 6. writes `BENCH_write_throughput.json` at the repository root.
//!
//! Pass `--fast` (or set `WRITE_THROUGHPUT_BENCH_FAST=1`) for the CI
//! smoke configuration: identity and conservation gates stay hard, the
//! scaling gate turns report-only.

use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, EsdbWriter};
use esdb_doc::{CollectionSchema, Document};
use esdb_telemetry::HistogramSnapshot;
use esdb_workload::{DocGenerator, WriteEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

/// Zipf skew of tenant choice (the paper's regime).
const THETA: f64 = 0.99;

/// Concurrent writer threads in the multi-writer pass.
const WRITER_THREADS: usize = 4;

/// Minimum multi-writer ops/s over single-writer ops/s for this host,
/// and whether a full run that misses it fails: with a core per writer
/// thread, writers must scale 2x; with fewer, the bar is not losing to
/// one writer, reported but not enforced.
fn scaling_gate(host_cores: usize) -> (f64, bool) {
    if host_cores >= WRITER_THREADS {
        (2.0, true)
    } else {
        (1.0, false)
    }
}

struct Scale {
    mode: &'static str,
    shards: u32,
    tenants: usize,
    ops_per_thread: u64,
    samples: usize,
}

const FULL: Scale = Scale {
    mode: "full",
    shards: 8,
    tenants: 100,
    ops_per_thread: 10_000,
    samples: 5,
};

const FAST: Scale = Scale {
    mode: "fast",
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
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "esdb-bench-writetp-{}-{tag}-{}",
        scale.mode,
        std::process::id()
    ));
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

fn main() {
    let fast = std::env::args().any(|a| a == "--fast" || a == "fast")
        || std::env::var("WRITE_THROUGHPUT_BENCH_FAST").is_ok_and(|v| v == "1");
    let scale = if fast { FAST } else { FULL };
    let host_cores = esdb_bench::host_cores();
    let degraded = esdb_bench::degraded_single_core(fast);

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

    let sn = esdb_bench::median(&mut single_ns);
    let mn = esdb_bench::median(&mut multi_ns);
    let single_ops_s = issued as f64 / (sn as f64 / 1e9);
    let multi_ops_s = issued as f64 / (mn as f64 / 1e9);
    let scaling = multi_ops_s / single_ops_s;
    let contended_share = lock_wait.count() as f64 / (issued * scale.samples as u64) as f64;
    let (wait_p50, wait_p99) = (lock_wait.quantile(0.5), lock_wait.quantile(0.99));
    let wait_mean = lock_wait.mean();

    println!(
        "write_throughput/{}: single-writer median {:.1}k ops/s, \
         {WRITER_THREADS}-writer median {:.1}k ops/s ({scaling:.2}x); \
         {:.1}% of multi-writer submissions waited on a shard lock \
         (mean {wait_mean:.0} ns, p50 {wait_p50} ns, p99 {wait_p99} ns)",
        scale.mode,
        single_ops_s / 1e3,
        multi_ops_s / 1e3,
        contended_share * 100.0,
    );

    let (scaling_gate, enforceable) = scaling_gate(host_cores);
    let gate_enforced = !fast && enforceable;
    let json = format!(
        "{{\n  \"bench\": \"write_throughput\",\n  \"mode\": \"{}\",\n  \"theta\": {THETA},\n  \
         \"shards\": {},\n  \"tenants\": {},\n  \"writer_threads\": {WRITER_THREADS},\n  \
         \"ops_per_thread\": {},\n  \"ops_per_run\": {issued},\n  \"samples\": {},\n  \
         \"host_cores\": {host_cores},\n  \"degraded_single_core\": {degraded},\n  \
         \"single_median_ns\": {sn},\n  \"multi_median_ns\": {mn},\n  \
         \"single_ops_per_s\": {single_ops_s:.1},\n  \"multi_ops_per_s\": {multi_ops_s:.1},\n  \
         \"scaling\": {scaling:.4},\n  \"lock_wait_share\": {contended_share:.4},\n  \
         \"lock_wait_mean_ns\": {wait_mean:.0},\n  \"lock_wait_p50_ns\": {wait_p50},\n  \
         \"lock_wait_p99_ns\": {wait_p99},\n  \
         \"scaling_gate\": {scaling_gate},\n  \"scaling_gate_enforced\": {gate_enforced},\n  \
         \"identity_ok\": {identity_ok},\n  \"conservation_ok\": {conservation_ok}\n}}\n",
        scale.mode, scale.shards, scale.tenants, scale.ops_per_thread, scale.samples,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_write_throughput.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    if !identity_ok || !conservation_ok {
        eprintln!("write_throughput: FAILED identity/conservation gate");
        std::process::exit(1);
    }
    if gate_enforced && scaling < scaling_gate {
        eprintln!(
            "write_throughput: FAILED scaling gate: {scaling:.2}x \
             (need {scaling_gate}x with {WRITER_THREADS} writers on {host_cores} cores)"
        );
        std::process::exit(1);
    }
    println!("write_throughput/{}: all gates passed", scale.mode);
}
