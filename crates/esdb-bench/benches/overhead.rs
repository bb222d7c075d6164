//! Telemetry overhead benchmark: the same skewed write + query workload
//! against three instances that differ only in telemetry.
//!
//! The telemetry layer claims its hot paths are cheap enough to leave
//! on: atomic-only metric updates, 1-in-N head sampling, branch-only
//! probes when disabled; and the flight recorder on top (event journal,
//! trace ids, tail-based capture) claims the same for always-on forensic
//! capture. This benchmark checks both claims end to end:
//!
//! 1. loads identical data into three instances, parallelism 1 so
//!    timings are not scheduler noise: telemetry **off**, the
//!    **metrics** plane only (`tail_capture: false`,
//!    `journal_capacity: 0`), and the **recorder** on (the defaults),
//! 2. times two paired arms, metrics against off and recorder against
//!    metrics, on sub-millisecond write chunks (identical pre-made
//!    documents) and on individual warm queries (one Zipf-skewed
//!    sequence). The instance order cycles through all six orders
//!    chunk by chunk: with a fixed middle instance, position in the
//!    order biased the arms by several points. Pairing cancels drift
//!    and the ratio median discards scheduler spikes,
//! 3. gates hard, in every mode: rows identical across the three
//!    instances; the metrics instance's Prometheus exposition lints
//!    clean and its histogram counts round-trip identically between the
//!    Prometheus and JSON renderings; every slow-query entry on the
//!    recorder carries a span tree; the recorder's journal is not empty;
//!    and one seeded `SimCluster` failover scenario produces a
//!    byte-identical debug bundle across two runs,
//! 4. gates each arm's median paired overhead, write and query, at 3%
//!    in full mode on a host with >= 2 cores. With one core the arms
//!    share it with the rest of the system and background load lands in
//!    whichever arm is running, so the median wanders by over a point
//!    between identical runs.
//!
//! Run with `-- --fast` for the CI smoke scale.

use esdb_bench::report::{median, paired_overhead_pct, Report};
use esdb_bench::{query_sequence, row_keys};
use esdb_chaos::{ChaosEvent, ChaosSchedule};
use esdb_cluster::{ClusterConfig, PolicySpec, SimCluster};
use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, EsdbReader, EsdbWriter};
use esdb_doc::{CollectionSchema, Document};
use esdb_telemetry::{
    json_histogram_counts, lint_prometheus, prometheus_histogram_counts, TelemetryConfig,
};
use esdb_workload::{DocGenerator, RateSchedule, TraceGenerator, WriteEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Zipf skew of tenant choice, writes and queries alike.
const THETA: f64 = 0.99;

/// Full-mode overhead ceiling, percent, for each path of each arm.
const OVERHEAD_GATE_PCT: f64 = 3.0;

/// Seed of the failover scenario whose debug bundle must be
/// byte-identical across reruns.
const SIM_SEED: u64 = 42;

struct Scale {
    shards: u32,
    tenants: usize,
    preload_rows: u64,
    rows_per_pass: u64,
    queries_per_pass: usize,
    samples: usize,
}

const FULL: Scale = Scale {
    shards: 8,
    tenants: 20,
    preload_rows: 24_000,
    rows_per_pass: 4_000,
    queries_per_pass: 200,
    samples: 21,
};

const FAST: Scale = Scale {
    shards: 4,
    tenants: 10,
    preload_rows: 4_000,
    rows_per_pass: 800,
    queries_per_pass: 60,
    samples: 5,
};

/// The three instances, in arm order.
const ARMS: [&str; 3] = ["off", "metrics", "recorder"];

fn build(scale: &Scale, arm: &str) -> Esdb {
    let dir =
        std::env::temp_dir().join(format!("esdb-bench-overhead-{arm}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = EsdbConfig::new(&dir).shards(scale.shards).parallelism(1);
    let config = match arm {
        "off" => config.telemetry(false),
        "metrics" => config.telemetry_config(TelemetryConfig {
            tail_capture: false,
            journal_capacity: 0,
            ..TelemetryConfig::default()
        }),
        _ => config.telemetry_config(TelemetryConfig::default()),
    };
    Esdb::open(CollectionSchema::transaction_logs(), config).expect("open bench instance")
}

/// Deterministic stream of pre-materialized documents; every instance
/// inserts clones of the same documents in the same order.
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

fn time_write(w: &EsdbWriter, docs: &[Document]) -> u128 {
    let t0 = Instant::now();
    for d in docs {
        black_box(w.insert(d.clone()).expect("insert row"));
    }
    t0.elapsed().as_nanos()
}

fn time_queries(rd: &EsdbReader, seq: &[String]) -> u128 {
    let t0 = Instant::now();
    black_box(row_keys(rd, seq));
    t0.elapsed().as_nanos()
}

/// Runs `op` on each instance in the `turn`-th of the six orders, so
/// every instance takes every position equally often and each arm's
/// pair runs either side first equally often.
fn time_all(turn: usize, mut op: impl FnMut(usize) -> u128) -> [u128; 3] {
    const ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [2, 1, 0],
        [1, 2, 0],
        [0, 2, 1],
        [2, 0, 1],
        [1, 0, 2],
    ];
    let mut t = [0u128; 3];
    for i in ORDERS[turn % 6] {
        t[i] = op(i);
    }
    t
}

/// Per-instance pass totals and the two arms' per-chunk pairs:
/// `(metrics, off)` and `(recorder, metrics)`.
#[derive(Default)]
struct Timings {
    totals: [Vec<u128>; 3],
    pairs: [Vec<(u128, u128)>; 2],
}

impl Timings {
    fn push_pass(&mut self, chunks: &[[u128; 3]]) {
        for i in 0..3 {
            self.totals[i].push(chunks.iter().map(|t| t[i]).sum());
        }
        for t in chunks {
            self.pairs[0].push((t[1], t[0]));
            self.pairs[1].push((t[2], t[1]));
        }
    }

    /// Median pass time per instance, ms, then each arm's overhead.
    fn summary(&mut self) -> ([f64; 3], [f64; 2]) {
        (
            self.totals.each_mut().map(|v| median(v) as f64 / 1e6),
            self.pairs.each_ref().map(|p| paired_overhead_pct(p)),
        )
    }
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
    cluster.debug_bundle().to_json().to_text()
}

fn main() -> ExitCode {
    let mut report = Report::from_args("overhead");
    let scale = if report.fast() { FAST } else { FULL };

    let mut dbs = ARMS.map(|arm| build(&scale, arm));
    let writers = dbs.each_ref().map(Esdb::writer);
    let readers = dbs.each_ref().map(Esdb::reader);
    let mut rows = RowStream::new(scale.tenants);
    let insert_all = |docs: Vec<Document>| {
        for d in docs {
            for w in &writers {
                w.insert(d.clone()).expect("insert row");
            }
        }
    };

    // Identical preload, merged, then one untimed warm-up pass: the
    // first writes after a merge pay one-off costs (buffer growth,
    // translog open) that belong to no arm.
    insert_all(rows.batch(scale.preload_rows));
    for db in &mut dbs {
        db.refresh();
        db.merge();
        db.refresh();
    }
    insert_all(rows.batch(scale.rows_per_pass));
    dbs.iter_mut().for_each(Esdb::refresh);

    // Write path: each sample inserts the same fresh batch into every
    // instance in sub-millisecond chunks, so a preemption lands inside
    // a few pairs (which the median discards), and refreshes between
    // samples so buffered-write state does not drift across the run.
    let chunk_rows = (scale.rows_per_pass / 64).max(1) as usize;
    let mut writes = Timings::default();
    for s in 0..scale.samples {
        let batch = rows.batch(scale.rows_per_pass);
        let chunks: Vec<[u128; 3]> = batch
            .chunks(chunk_rows)
            .enumerate()
            .map(|(c, chunk)| time_all(s + c, |i| time_write(&writers[i], chunk)))
            .collect();
        writes.push_pass(&chunks);
        dbs.iter_mut().for_each(Esdb::refresh);
    }

    // Row identity: telemetry must never change results. This pass also
    // warms every instance for the timed query passes.
    let seq = query_sequence(scale.tenants, scale.queries_per_pass);
    let keys = readers.each_ref().map(|rd| row_keys(rd, &seq));
    report.check("rows_identical", keys[1] == keys[0] && keys[2] == keys[0]);

    // Query path: paired per individual query, so a multi-millisecond
    // spike inflates one ~100 µs pair, not a whole pass.
    let mut queries = Timings::default();
    for s in 0..scale.samples {
        let chunks: Vec<[u128; 3]> = seq
            .iter()
            .enumerate()
            .map(|(c, sql)| {
                let q = std::slice::from_ref(sql);
                time_all(s + c, |i| time_queries(&readers[i], q))
            })
            .collect();
        queries.push_pass(&chunks);
    }
    let (write_ms, write_pct) = writes.summary();
    let (query_ms, query_pct) = queries.summary();

    // Exposition gates on the metrics instance.
    let snap = dbs[1].telemetry_snapshot();
    let prom = snap.to_prometheus();
    let lint = lint_prometheus(&prom);
    for v in &lint {
        eprintln!("PROMETHEUS LINT: {v}");
    }
    let prom_counts = prometheus_histogram_counts(&prom);
    let round_trip_ok =
        !prom_counts.is_empty() && prom_counts == json_histogram_counts(&snap.to_json().to_text());

    // Recorder gates: every slow-query entry carries its span tree (the
    // gate is vacuous when nothing crossed the threshold, so the count
    // is reported), and the workload left events in the journal.
    let slow = dbs[2].slow_queries();
    let journal_events = dbs[2].telemetry().journal().tail(usize::MAX).len();

    for (arm, i) in [("metrics", 0), ("recorder", 1)] {
        println!(
            "overhead/{arm}: write {:.3} ms vs {:.3} ms ({:+.2}%), \
             query {:.3} ms vs {:.3} ms ({:+.2}%)",
            write_ms[i + 1],
            write_ms[i],
            write_pct[i],
            query_ms[i + 1],
            query_ms[i],
            query_pct[i],
        );
    }
    report
        .field("theta", THETA)
        .field("shards", scale.shards)
        .field("tenants", scale.tenants)
        .field("preload_rows", scale.preload_rows)
        .field("rows_per_pass", scale.rows_per_pass)
        .field("queries_per_pass", scale.queries_per_pass)
        .field("samples", scale.samples);
    for (i, arm) in ARMS.iter().enumerate() {
        report
            .field(&format!("write_{arm}_median_ms"), write_ms[i])
            .field(&format!("query_{arm}_median_ms"), query_ms[i]);
    }
    report
        .field("metrics_write_overhead_pct", write_pct[0])
        .field("metrics_query_overhead_pct", query_pct[0])
        .field("recorder_write_overhead_pct", write_pct[1])
        .field("recorder_query_overhead_pct", query_pct[1])
        .field("overhead_gate_pct", OVERHEAD_GATE_PCT)
        .field("prometheus_lint_violations", lint.len())
        .field("histogram_series", snap.histograms.len())
        .field("slow_queries_logged", slow.len())
        .field("journal_events", journal_events)
        .field("sim_seed", SIM_SEED);
    report.check("prometheus_lint", lint.is_empty());
    report.check("histogram_counts_round_trip", round_trip_ok);
    report.check(
        "slow_queries_have_stages",
        slow.iter().all(|e| !e.stages.is_empty()),
    );
    report.check("journal_not_empty", journal_events > 0);
    report.check(
        "debug_bundle_byte_identical",
        sim_bundle_json(SIM_SEED) == sim_bundle_json(SIM_SEED),
    );
    for (arm, i) in [("metrics", 0), ("recorder", 1)] {
        report.timing_gate(
            &format!("{arm}_overhead_within_3pct"),
            write_pct[i] <= OVERHEAD_GATE_PCT && query_pct[i] <= OVERHEAD_GATE_PCT,
            2,
        );
    }
    report.finish()
}
