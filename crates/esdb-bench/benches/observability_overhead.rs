//! Observability overhead benchmark: the flight recorder (event
//! journal + trace ids + tail-based capture) against the PR 3 baseline
//! telemetry (histograms + head sampling only).
//!
//! The flight recorder's claim is that always-on forensic capture is
//! cheap enough to leave on: journal emission is a striped atomic
//! append, trace ids are one relaxed counter increment, and tail
//! capture buffers spans it would otherwise drop. This benchmark checks
//! that claim end to end:
//!
//! 1. loads identical data into a recorder-on instance (journal +
//!    tail capture, the defaults) and a baseline instance (telemetry
//!    enabled but `tail_capture: false`, `journal_capacity: 0` — the
//!    pre-flight-recorder configuration), parallelism 1,
//! 2. times interleaved write and warm query passes on both —
//!    sub-millisecond write chunks and individual queries, paired and
//!    order-alternated so the ratio median cancels drift and discards
//!    scheduler spikes,
//! 3. verifies row-identical query results between the two instances
//!    (the recorder must never change results),
//! 4. verifies every slow-query entry on the recorder arm carries a
//!    non-empty span tree (tail capture closes the `stages: []` gap),
//! 5. runs the same seeded `SimCluster` failover scenario twice and
//!    requires byte-identical `debug_bundle()` JSON (the forensic
//!    artifact is deterministic), and
//! 6. writes `BENCH_observability.json` at the repository root.
//!
//! Exits non-zero if row identity, the tail-capture gate, or bundle
//! determinism fails — or, in full mode on a host with >= 2 cores, if
//! the median paired overhead of either path exceeds the gate (3%). On
//! a single-core host the overhead gate is report-only and the JSON is
//! `degraded_single_core`-marked, per the bench-honesty policy: the
//! bench shares its only core with the rest of the system, so the
//! paired median still wanders by over a point between runs. Fast mode
//! (`--fast` / `OBSERVABILITY_BENCH_FAST=1`) reports overhead but only
//! enforces the correctness gates.

use esdb_chaos::{ChaosEvent, ChaosSchedule};
use esdb_cluster::{ClusterConfig, PolicySpec, SimCluster};
use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, EsdbReader, EsdbWriter};
use esdb_doc::{CollectionSchema, Document};
use esdb_telemetry::TelemetryConfig;
use esdb_workload::{DocGenerator, RateSchedule, TraceGenerator, WriteEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Zipf skew of tenant choice, writes and queries alike.
const THETA: f64 = 0.99;

/// Full-mode overhead ceiling, percent, for each path.
const OVERHEAD_GATE_PCT: f64 = 3.0;

/// Seed of the failover scenario whose debug bundle must be
/// byte-identical across reruns.
const SIM_SEED: u64 = 42;

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
    samples: 21,
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

/// Query templates a hot tenant repeats (same shapes as the telemetry
/// overhead bench, so the two benches exercise the same paths).
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

fn build(scale: &Scale, recorder: bool) -> Esdb {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "esdb-bench-observability-{}-{}-{}",
        scale.mode,
        recorder,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let telemetry = if recorder {
        // The flight recorder: journal + tail capture on (defaults).
        TelemetryConfig::default()
    } else {
        // PR 3 baseline: histograms and head sampling only.
        TelemetryConfig {
            tail_capture: false,
            journal_capacity: 0,
            ..TelemetryConfig::default()
        }
    };
    Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(&dir)
            .shards(scale.shards)
            .parallelism(1)
            .telemetry_config(telemetry),
    )
    .expect("open bench instance")
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

/// Overhead from the median of *paired* chunk ratios (see the telemetry
/// overhead bench for the rationale: pairing cancels drift, the median
/// discards one-off events that land in one arm only).
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

/// One seeded failover scenario; returns the debug bundle JSON. Two
/// calls with the same seed must produce identical bytes.
fn sim_bundle_json(seed: u64) -> String {
    let mut cfg = ClusterConfig::small(PolicySpec::DoubleHashing { s: 8 });
    cfg.n_nodes = 4;
    cfg.n_shards = 32;
    cfg.node_capacity_per_sec = 1_000.0;
    cfg.balancer = esdb_balancer::BalancerConfig::new(32, 4);
    let tick_ms = cfg.tick_ms;
    let mut cluster = SimCluster::new(cfg);
    let mut gen = TraceGenerator::new(100, THETA, RateSchedule::constant(1_000.0), seed);
    let mut load = |cluster: &mut SimCluster, ticks: u64| {
        for _ in 0..ticks {
            let now = cluster.now();
            let events = gen.tick(now, tick_ms);
            cluster.step(events);
        }
    };
    load(&mut cluster, 20);
    let crash_ms = cluster.now();
    cluster.set_chaos_schedule(
        ChaosSchedule::new()
            .at(crash_ms, ChaosEvent::NodeCrash { node: 1 })
            .at(crash_ms + 3_000, ChaosEvent::NodeRestart { node: 1 }),
    );
    load(&mut cluster, 60);
    let mut drain = 0u64;
    while cluster.in_flight() > 0 && drain < 400 {
        cluster.step(Vec::new());
        drain += 1;
    }
    cluster.debug_bundle().to_json()
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast" || a == "fast")
        || std::env::var("OBSERVABILITY_BENCH_FAST").is_ok_and(|v| v == "1");
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

    // Write-path timing, chunk-paired with alternating arm order (see
    // the telemetry overhead bench for the methodology). Chunks are
    // kept sub-millisecond so a scheduler preemption lands inside a few
    // pairs — which the ratio median then discards — instead of
    // skewing a whole pass.
    let chunk_rows = (scale.rows_per_pass / 64).max(1) as usize;
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

    // Row-identity gate: the recorder must never change results.
    let seq = query_sequence(&scale);
    let mut rows_identical = true;
    if run_query_pass(&rd_on, &seq) != run_query_pass(&rd_off, &seq) {
        eprintln!("ROW IDENTITY VIOLATION: recorder-on results diverged from recorder-off");
        rows_identical = false;
    }

    // Query-path timing: warm passes, paired per *individual query* —
    // the same SQL runs back-to-back on both arms in alternating order,
    // and the overhead estimate is the median over thousands of
    // same-query ratios. A multi-millisecond scheduler spike inflates
    // one ~100µs pair, not an entire 200-query pass, so the median
    // stays pinned to the systematic on/off difference.
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

    // Tail-capture gate: with the recorder on, every slow-query entry
    // must carry a non-empty span tree (no `stages: []` survivors). The
    // gate is vacuous when nothing crossed the threshold; the count is
    // reported so a vacuous pass is visible.
    let slow_entries = on.slow_queries();
    let slow_logged = slow_entries.len();
    let tail_capture_ok = slow_entries.iter().all(|e| !e.stages.is_empty());

    // Journal liveness: the write/maintenance workload above must have
    // left events in the recorder arm's journal.
    let journal_events = on.telemetry().journal().tail(usize::MAX).len();

    // Bundle determinism: same seed, same bytes.
    let bundle_a = sim_bundle_json(SIM_SEED);
    let bundle_b = sim_bundle_json(SIM_SEED);
    let bundle_identical = bundle_a == bundle_b;

    println!(
        "observability_overhead/{}: write on {:.3} ms / off {:.3} ms ({:+.2}%)",
        scale.mode,
        write_on_med as f64 / 1e6,
        write_off_med as f64 / 1e6,
        write_overhead,
    );
    println!(
        "observability_overhead/{}: query on {:.3} ms / off {:.3} ms ({:+.2}%)",
        scale.mode,
        query_on_med as f64 / 1e6,
        query_off_med as f64 / 1e6,
        query_overhead,
    );
    println!(
        "observability_overhead/{}: {} journal events, {} slow-logged \
         (stages {}), bundle determinism {}",
        scale.mode,
        journal_events,
        slow_logged,
        if tail_capture_ok { "ok" } else { "MISSING" },
        if bundle_identical { "ok" } else { "VIOLATED" },
    );

    let host_cores = esdb_bench::host_cores();
    let degraded = esdb_bench::degraded_single_core(scale.mode == "fast");
    // The overhead gate needs the bench to own a core: on a single-core
    // host the two arms share the CPU with the rest of the system, and
    // background load lands asymmetrically in whichever arm is running
    // when it hits — the paired-ratio median still wanders by more than
    // a percentage point run to run. Per the bench-honesty policy the
    // gate downgrades to report-only there (`degraded_single_core` is
    // already marked in the JSON); correctness gates stay hard always.
    let gate_enforced = !fast && !degraded;
    let json_out = format!(
        "{{\n  \"bench\": \"observability\",\n  \"mode\": \"{}\",\n  \"theta\": {THETA},\n  \
         \"shards\": {},\n  \"tenants\": {},\n  \"preload_rows\": {},\n  \
         \"rows_per_pass\": {},\n  \"queries_per_pass\": {},\n  \"samples\": {},\n  \
         \"host_cores\": {host_cores},\n  \"degraded_single_core\": {degraded},\n  \
         \"write_on_median_ns\": {write_on_med},\n  \"write_off_median_ns\": {write_off_med},\n  \
         \"write_overhead_pct\": {write_overhead:.4},\n  \
         \"query_on_median_ns\": {query_on_med},\n  \"query_off_median_ns\": {query_off_med},\n  \
         \"query_overhead_pct\": {query_overhead:.4},\n  \
         \"overhead_gate_pct\": {OVERHEAD_GATE_PCT},\n  \
         \"overhead_gate_enforced\": {gate_enforced},\n  \
         \"results_identical_on_vs_off\": {rows_identical},\n  \
         \"journal_events\": {journal_events},\n  \
         \"slow_queries_logged\": {slow_logged},\n  \
         \"slow_queries_have_stages\": {tail_capture_ok},\n  \
         \"sim_seed\": {SIM_SEED},\n  \
         \"debug_bundle_byte_identical\": {bundle_identical}\n}}\n",
        scale.mode,
        scale.shards,
        scale.tenants,
        scale.preload_rows,
        scale.rows_per_pass,
        scale.queries_per_pass,
        scale.samples,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_observability.json"
    );
    match std::fs::write(path, &json_out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    let mut failed = false;
    if !rows_identical {
        eprintln!("observability_overhead: FAILED row-identity gate");
        failed = true;
    }
    if !tail_capture_ok {
        eprintln!("observability_overhead: FAILED tail-capture gate (slow query without stages)");
        failed = true;
    }
    if journal_events == 0 {
        eprintln!("observability_overhead: FAILED journal liveness (no events recorded)");
        failed = true;
    }
    if !bundle_identical {
        eprintln!("observability_overhead: FAILED debug-bundle determinism gate");
        failed = true;
    }
    if gate_enforced && (write_overhead > OVERHEAD_GATE_PCT || query_overhead > OVERHEAD_GATE_PCT) {
        eprintln!(
            "observability_overhead: FAILED overhead gate (write {write_overhead:+.2}%, \
             query {query_overhead:+.2}% > {OVERHEAD_GATE_PCT}%)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
