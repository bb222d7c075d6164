//! Telemetry overhead benchmark: the same skewed write + query workload
//! against a telemetry-enabled and a telemetry-disabled instance.
//!
//! The tentpole claim the telemetry layer makes is that its hot paths
//! are cheap enough to leave on: atomic-only metric updates, 1-in-N
//! trace sampling, and branch-only probes when disabled. This benchmark
//! checks that claim end to end:
//!
//! 1. loads identical data into a telemetry-on and a telemetry-off
//!    instance (everything else identical, parallelism 1 so timings are
//!    not scheduler noise) — the on arm runs the metrics plane only
//!    (`tail_capture: false`, `journal_capacity: 0`); the flight
//!    recorder's increment over this arm has its own bench and budget
//!    (`observability_overhead`),
//! 2. times interleaved write passes (identical pre-materialized
//!    documents) and warm query passes (identical Zipf-skewed sequence)
//!    on both, alternating measurement order to cancel drift,
//! 3. verifies row-identical query results between the two instances
//!    (the determinism gate — telemetry must never change results),
//! 4. lints the Prometheus exposition of the enabled instance and
//!    checks histogram counts round-trip identically between the
//!    Prometheus and JSON renderings, and
//! 5. writes `BENCH_telemetry_overhead.json` at the repository root.
//!
//! Exits non-zero if determinism, the format lint, or the round-trip
//! gate fails — or, in full mode on a host with >= 2 cores, if the
//! median paired overhead of either path exceeds the gate (3%). On a
//! single-core host the overhead gate is report-only and the JSON is
//! `degraded_single_core`-marked, per the bench-honesty policy. Fast
//! mode (`--fast` / `TELEMETRY_OVERHEAD_BENCH_FAST=1`) reports
//! overhead but only enforces the correctness gates, since CI timing
//! noise at small scales swamps single-digit percentages.

use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, EsdbReader, EsdbWriter};
use esdb_doc::{CollectionSchema, Document};
use esdb_telemetry::{json_histogram_counts, lint_prometheus, prometheus_histogram_counts};
use esdb_workload::{DocGenerator, WriteEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Zipf skew of tenant choice, writes and queries alike.
const THETA: f64 = 0.99;

/// Full-mode overhead ceiling, percent, for each path.
const OVERHEAD_GATE_PCT: f64 = 3.0;

struct Scale {
    mode: &'static str,
    shards: u32,
    tenants: usize,
    preload_rows: u64,
    rows_per_pass: u64,
    queries_per_pass: usize,
    samples: usize,
}

const FULL: Scale = Scale {
    mode: "full",
    shards: 8,
    tenants: 20,
    preload_rows: 24_000,
    rows_per_pass: 4_000,
    queries_per_pass: 200,
    samples: 13,
};

const FAST: Scale = Scale {
    mode: "fast",
    shards: 4,
    tenants: 10,
    preload_rows: 4_000,
    rows_per_pass: 800,
    queries_per_pass: 60,
    samples: 5,
};

/// Query templates a hot tenant repeats (same shapes as the query-cache
/// bench, so both benches exercise the same paths).
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

fn build(scale: &Scale, telemetry: bool) -> Esdb {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "esdb-bench-telemetry-{}-{}-{}",
        scale.mode,
        telemetry,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = EsdbConfig::new(&dir)
        .shards(scale.shards)
        .parallelism(1)
        .telemetry(telemetry);
    if telemetry {
        // This bench gates the *metrics plane* — registry, histograms,
        // head sampling, slow log — against telemetry fully off. The
        // flight recorder (tail capture + event journal) that later
        // grew into the same crate is measured separately, as its own
        // increment over this configuration, by the
        // `observability_overhead` bench; leaving it on here would
        // double-charge it to the metrics plane's 3% budget.
        config = config.telemetry_config(esdb_telemetry::TelemetryConfig {
            tail_capture: false,
            journal_capacity: 0,
            ..esdb_telemetry::TelemetryConfig::default()
        });
    }
    Esdb::open(CollectionSchema::transaction_logs(), config).expect("open bench instance")
}

/// Deterministic stream of pre-materialized documents; both instances
/// insert clones of the same documents in the same order.
struct RowStream {
    docs: DocGenerator,
    zipf: ZipfSampler,
    rng: StdRng,
    next_record: u64,
}

impl RowStream {
    fn new(tenants: usize) -> Self {
        RowStream {
            docs: DocGenerator::new(1_500, 20, 7),
            zipf: ZipfSampler::new(tenants, THETA),
            rng: StdRng::seed_from_u64(7),
            next_record: 0,
        }
    }

    fn batch(&mut self, n: u64) -> Vec<Document> {
        (0..n)
            .map(|_| {
                let r = self.next_record;
                self.next_record += 1;
                let tenant = 1 + self.zipf.sample(&mut self.rng) as u64;
                self.docs.materialize(&WriteEvent {
                    tenant: TenantId(tenant),
                    record: RecordId(r),
                    created_at: 1_000_000 + r * 350,
                    bytes: 512,
                })
            })
            .collect()
    }
}

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

fn run_query_pass(rd: &EsdbReader, seq: &[String]) -> Vec<u64> {
    let mut fingerprint = Vec::new();
    for sql in seq {
        let rows = rd.query(sql).expect("query");
        fingerprint.push(rows.docs.len() as u64);
        fingerprint.extend(rows.docs.iter().map(|d| d.record_id.raw()));
    }
    fingerprint
}

fn time_query_pass(rd: &EsdbReader, seq: &[String]) -> u128 {
    let t0 = Instant::now();
    black_box(run_query_pass(rd, seq));
    t0.elapsed().as_nanos()
}

fn time_write_pass(w: &EsdbWriter, docs: &[Document]) -> u128 {
    let t0 = Instant::now();
    for d in docs {
        black_box(w.insert(d.clone()).expect("insert row"));
    }
    t0.elapsed().as_nanos()
}

/// Overhead from the median of *paired* chunk ratios. Each pair is the
/// two arms measured back-to-back on the same chunk, so slow drift
/// (instance growth, frequency scaling) cancels within the pair; taking
/// the median over ~100 pairs then discards the few where a one-off
/// event (scheduler preemption, page reclaim, translog rollover) landed
/// in one arm only. Far more stable than the ratio of per-arm medians.
fn paired_overhead_pct(pairs: &[(u128, u128)]) -> f64 {
    let mut ratios: Vec<f64> = pairs
        .iter()
        .filter(|&&(_, b)| b > 0)
        .map(|&(a, b)| a as f64 / b as f64)
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    (ratios[ratios.len() / 2] - 1.0) * 100.0
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast" || a == "fast")
        || std::env::var("TELEMETRY_OVERHEAD_BENCH_FAST").is_ok_and(|v| v == "1");
    let scale = if fast { FAST } else { FULL };

    let mut on = build(&scale, true);
    let mut off = build(&scale, false);
    let (w_on, rd_on, w_off, rd_off) = (on.writer(), on.reader(), off.writer(), off.reader());
    let mut rows = RowStream::new(scale.tenants);

    // Identical preload.
    for d in rows.batch(scale.preload_rows) {
        w_on.insert(d.clone()).expect("insert row");
        w_off.insert(d).expect("insert row");
    }
    on.refresh();
    off.refresh();
    on.merge();
    off.merge();
    on.refresh();
    off.refresh();

    // Write-path timing: each sample inserts the same fresh batch into
    // both instances, alternating the arm order chunk by chunk so
    // system-level events (frequency scaling, reclaim) hit both arms
    // evenly, and refreshing between samples so buffered-write state
    // doesn't accumulate into monotone drift across the run. Chunks are
    // kept sub-millisecond so a scheduler preemption lands inside a few
    // pairs — which the ratio median discards — not across a whole
    // pass.
    let chunk_rows = (scale.rows_per_pass / 64).max(1) as usize;
    // Untimed warm-up pass: the first writes after a merge pay one-off
    // costs (buffer growth, translog open) that belong to neither arm.
    for d in rows.batch(scale.rows_per_pass) {
        w_on.insert(d.clone()).expect("insert row");
        w_off.insert(d).expect("insert row");
    }
    on.refresh();
    off.refresh();
    let mut write_on: Vec<u128> = Vec::with_capacity(scale.samples);
    let mut write_off: Vec<u128> = Vec::with_capacity(scale.samples);
    let mut write_pairs: Vec<(u128, u128)> = Vec::new();
    for s in 0..scale.samples {
        let batch = rows.batch(scale.rows_per_pass);
        let mut t_on = 0u128;
        let mut t_off = 0u128;
        for (c, chunk) in batch.chunks(chunk_rows).enumerate() {
            let (a, b) = if (s + c) % 2 == 0 {
                let a = time_write_pass(&w_on, chunk);
                let b = time_write_pass(&w_off, chunk);
                (a, b)
            } else {
                let b = time_write_pass(&w_off, chunk);
                let a = time_write_pass(&w_on, chunk);
                (a, b)
            };
            t_on += a;
            t_off += b;
            write_pairs.push((a, b));
        }
        write_on.push(t_on);
        write_off.push(t_off);
        on.refresh();
        off.refresh();
    }

    // Determinism gate: telemetry must never change query results.
    let seq = query_sequence(&scale);
    let mut determinism_ok = true;
    if run_query_pass(&rd_on, &seq) != run_query_pass(&rd_off, &seq) {
        eprintln!("DETERMINISM VIOLATION: telemetry-on results diverged from telemetry-off");
        determinism_ok = false;
    }

    // Query-path timing: warm passes (both instances just ran the
    // sequence once), paired per *individual query* — the same SQL runs
    // back-to-back on both arms in alternating order, so the overhead
    // estimate is the median over thousands of same-query ratios and a
    // multi-millisecond scheduler spike inflates one ~100µs pair, not a
    // whole pass.
    let mut query_on: Vec<u128> = Vec::with_capacity(scale.samples);
    let mut query_off: Vec<u128> = Vec::with_capacity(scale.samples);
    let mut query_pairs: Vec<(u128, u128)> = Vec::new();
    for s in 0..scale.samples {
        let mut t_on = 0u128;
        let mut t_off = 0u128;
        for (c, sql) in seq.iter().enumerate() {
            let q = std::slice::from_ref(sql);
            let (a, b) = if (s + c) % 2 == 0 {
                let a = time_query_pass(&rd_on, q);
                let b = time_query_pass(&rd_off, q);
                (a, b)
            } else {
                let b = time_query_pass(&rd_off, q);
                let a = time_query_pass(&rd_on, q);
                (a, b)
            };
            t_on += a;
            t_off += b;
            query_pairs.push((a, b));
        }
        query_on.push(t_on);
        query_off.push(t_off);
    }

    let write_overhead = paired_overhead_pct(&write_pairs);
    let query_overhead = paired_overhead_pct(&query_pairs);
    let write_on_med = esdb_bench::median(&mut write_on);
    let write_off_med = esdb_bench::median(&mut write_off);
    let query_on_med = esdb_bench::median(&mut query_on);
    let query_off_med = esdb_bench::median(&mut query_off);

    // Exposition gates on the enabled instance: the Prometheus text
    // must lint clean, and histogram counts must round-trip identically
    // between the Prometheus and JSON renderings.
    let snap = on.telemetry_snapshot();
    let prom = snap.to_prometheus();
    let json = snap.to_json();
    let lint = lint_prometheus(&prom);
    let prom_counts = prometheus_histogram_counts(&prom);
    let json_counts = json_histogram_counts(&json);
    let round_trip_ok = !prom_counts.is_empty() && prom_counts == json_counts;
    let histogram_series = snap.histograms.len();
    let slow_logged = on.slow_queries().len();

    println!(
        "telemetry_overhead/{}: write on {:.3} ms / off {:.3} ms ({:+.2}%)",
        scale.mode,
        write_on_med as f64 / 1e6,
        write_off_med as f64 / 1e6,
        write_overhead,
    );
    println!(
        "telemetry_overhead/{}: query on {:.3} ms / off {:.3} ms ({:+.2}%)",
        scale.mode,
        query_on_med as f64 / 1e6,
        query_off_med as f64 / 1e6,
        query_overhead,
    );
    println!(
        "telemetry_overhead/{}: {} histogram series, {} slow-logged, \
         lint violations {}, round-trip {}",
        scale.mode,
        histogram_series,
        slow_logged,
        lint.len(),
        if round_trip_ok { "ok" } else { "MISMATCH" },
    );
    for v in &lint {
        eprintln!("PROMETHEUS LINT: {v}");
    }

    let host_cores = esdb_bench::host_cores();
    let degraded = esdb_bench::degraded_single_core(scale.mode == "fast");
    // On a single-core host the two arms share the CPU with the rest of
    // the system and background load lands asymmetrically in whichever
    // arm is running when it hits; the paired median still wanders by
    // over a point between identical runs. Per the bench-honesty policy
    // the overhead gate downgrades to report-only there; the
    // determinism, lint, and round-trip gates stay hard always.
    let gate_enforced = !fast && !degraded;
    let json_out = format!(
        "{{\n  \"bench\": \"telemetry_overhead\",\n  \"mode\": \"{}\",\n  \"theta\": {THETA},\n  \
         \"shards\": {},\n  \"tenants\": {},\n  \"preload_rows\": {},\n  \
         \"rows_per_pass\": {},\n  \"queries_per_pass\": {},\n  \"samples\": {},\n  \
         \"host_cores\": {host_cores},\n  \"degraded_single_core\": {degraded},\n  \
         \"write_on_median_ns\": {write_on_med},\n  \"write_off_median_ns\": {write_off_med},\n  \
         \"write_overhead_pct\": {write_overhead:.4},\n  \
         \"query_on_median_ns\": {query_on_med},\n  \"query_off_median_ns\": {query_off_med},\n  \
         \"query_overhead_pct\": {query_overhead:.4},\n  \
         \"overhead_gate_pct\": {OVERHEAD_GATE_PCT},\n  \
         \"overhead_gate_enforced\": {gate_enforced},\n  \
         \"results_identical_on_vs_off\": {determinism_ok},\n  \
         \"prometheus_lint_violations\": {},\n  \
         \"histogram_counts_round_trip\": {round_trip_ok},\n  \
         \"histogram_series\": {histogram_series},\n  \
         \"slow_queries_logged\": {slow_logged}\n}}\n",
        scale.mode,
        scale.shards,
        scale.tenants,
        scale.preload_rows,
        scale.rows_per_pass,
        scale.queries_per_pass,
        scale.samples,
        lint.len(),
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_telemetry_overhead.json"
    );
    match std::fs::write(path, &json_out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    let mut failed = false;
    if !determinism_ok {
        eprintln!("telemetry_overhead: FAILED determinism gate");
        failed = true;
    }
    if !lint.is_empty() {
        eprintln!(
            "telemetry_overhead: FAILED Prometheus lint ({} violations)",
            lint.len()
        );
        failed = true;
    }
    if !round_trip_ok {
        eprintln!("telemetry_overhead: FAILED histogram count round-trip");
        failed = true;
    }
    if gate_enforced && (write_overhead > OVERHEAD_GATE_PCT || query_overhead > OVERHEAD_GATE_PCT) {
        eprintln!(
            "telemetry_overhead: FAILED overhead gate (write {write_overhead:+.2}%, \
             query {query_overhead:+.2}% > {OVERHEAD_GATE_PCT}%)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
