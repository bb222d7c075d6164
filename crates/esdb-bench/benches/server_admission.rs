//! Network front-end benchmark: hot-tenant load shedding under a
//! Zipf(0.99) tenant mix, over real TCP.
//!
//! The paper's motivating scenario (§1): one extremely hot tenant
//! dominates traffic, and the platform must keep every *other*
//! tenant's latency sane. This bench drives the `esdb-server`
//! front-end with concurrent clients whose tenant choice is
//! Zipf(0.99)-skewed, with a tight rate limit on the hot tenant, and
//! A/Bs admission shedding:
//!
//! * **pass off** — shedding disabled (rate limit only),
//! * **pass on** — shedding enabled (overload + hot-proportion 503s),
//! * **pass on, rerun** — same seed again, for the determinism gate.
//!
//! Clients retry throttled writes with the server-suggested back-off
//! until acknowledged, so every pass applies the identical dataset.
//!
//! Gates:
//!
//! * **hard (all modes)** — row identity: every pass's visible rows
//!   match an embedded oracle applying the same schedule; determinism:
//!   same-seed reruns produce byte-identical row signatures; the hot
//!   tenant was actually throttled (429 > 0); per-tenant admission
//!   conservation `issued == admitted + throttled + shed`.
//! * **timing (full mode, >= `CLIENT_THREADS` cores)** — victim-tenant
//!   p99 request latency with shedding on must be strictly better than
//!   with shedding off. Below that the client threads serialize and the
//!   tail measures the scheduler, so the gate is report-only there and
//!   under `--fast`.
//!
//! Run with `-- --fast` for the CI smoke scale.

use esdb_bench::report::Report;
use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, EsdbReader};
use esdb_doc::{CollectionSchema, Document, FieldValue};
use esdb_server::{
    start, AdmissionConfig, EsdbClient, RateLimit, ServerConfig, TcpTransport, TokenTable,
    Transport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

/// Zipf skew of tenant choice (the paper's regime).
const THETA: f64 = 0.99;

/// Concurrent client connections.
const CLIENT_THREADS: u64 = 4;

/// The Zipf-rank-1 tenant.
const HOT_TENANT: u64 = 1;

/// The hot tenant's rate limit: low enough that the client mix is
/// guaranteed to hit it.
const HOT_RATE: RateLimit = RateLimit {
    capacity: 20,
    per_sec: 500,
};

struct Scale {
    shards: u32,
    tenants: usize,
    ops_per_thread: u64,
}

const FULL: Scale = Scale {
    shards: 8,
    tenants: 20,
    ops_per_thread: 1_200,
};

const FAST: Scale = Scale {
    shards: 4,
    tenants: 10,
    ops_per_thread: 150,
};

/// One client thread's deterministic schedule (disjoint record ids,
/// shared Zipf-hot tenant choice).
fn schedules(scale: &Scale) -> Vec<Vec<Document>> {
    let zipf = ZipfSampler::new(scale.tenants, THETA);
    (0..CLIENT_THREADS)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(0x5EDB + t);
            (0..scale.ops_per_thread)
                .map(|i| {
                    // sample() is 1-based: rank 1 == HOT_TENANT.
                    let tenant = zipf.sample(&mut rng) as u64;
                    let rid = t * 10_000_000 + i;
                    Document::builder(TenantId(tenant), RecordId(rid), 1_000_000 + i * 250)
                        .field("status", (rid % 7) as i64)
                        .field("amount", FieldValue::Float((rid % 100) as f64 + 0.5))
                        .field("province", format!("prov-{}", rid % 5))
                        .build()
                })
                .collect()
        })
        .collect()
}

fn open(scale: &Scale, tag: &str) -> Esdb {
    let dir = std::env::temp_dir().join(format!("esdb-bench-srvadm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(&dir).shards(scale.shards),
    )
    .expect("open bench instance")
}

fn admission(shedding: bool) -> AdmissionConfig {
    AdmissionConfig {
        tenant_rates: vec![(TenantId(HOT_TENANT), HOT_RATE)],
        shedding,
        // Overload arms as soon as half the client fleet is in flight,
        // so the shed path actually exercises on a 4-connection bench.
        overload_inflight: 2,
        shed_proportion: 0.2,
        ..AdmissionConfig::default()
    }
}

fn tokens(scale: &Scale) -> TokenTable {
    let mut t = TokenTable::new().admin("root", TenantId(0));
    for k in 1..=scale.tenants as u64 {
        t = t.tenant(format!("tok-{k}"), TenantId(k));
    }
    t
}

/// FNV-1a over the visible row set: the byte-comparable image used by
/// the identity and determinism gates.
fn row_signature(rd: &EsdbReader, scale: &Scale) -> (u64, u64) {
    // Rows are sorted before hashing: concurrent passes interleave
    // equal `created_time` keys differently, and insertion tie-order
    // is not part of the result contract.
    let mut rows: Vec<[u64; 4]> = Vec::new();
    for t in 1..=scale.tenants as u64 {
        let sql = format!("SELECT * FROM transaction_logs WHERE tenant_id = {t}");
        for d in rd.query(&sql).expect("signature query").docs.iter() {
            let status = match d.get("status") {
                Some(FieldValue::Int(s)) => s,
                other => panic!("status missing: {other:?}"),
            };
            rows.push([
                d.tenant_id.0,
                d.record_id.raw(),
                d.created_at,
                status as u64,
            ]);
        }
    }
    rows.sort_unstable();
    let mut hash = 0xcbf29ce484222325u64;
    for row in &rows {
        for word in row {
            for b in word.to_le_bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x100000001b3);
            }
        }
    }
    (hash, rows.len() as u64)
}

struct PassResult {
    wall_ns: u128,
    victim_p99_ns: u64,
    victim_samples: usize,
    hot_throttled: u64,
    hot_shed: u64,
    conserved: bool,
    signature: (u64, u64),
}

/// Runs one full pass: serve, fan out clients, retry-until-acked,
/// drain, and signature the surviving engine.
fn run_pass(scale: &Scale, shedding: bool, tag: &str) -> PassResult {
    let db = open(scale, tag);
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
    let addr = transport.local_addr();
    let handle = start(
        db,
        ServerConfig {
            tokens: tokens(scale),
            admission: admission(shedding),
        },
        Box::new(transport),
    );

    let scheds = schedules(scale);
    let t0 = Instant::now();
    let mut victim_ns: Vec<u64> = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = scheds
            .iter()
            .map(|sched| {
                let addr = addr.clone();
                scope.spawn(move || {
                    // One connection per tenant this thread writes for,
                    // opened lazily (tokens are per tenant).
                    let mut conns: std::collections::HashMap<u64, EsdbClient> =
                        std::collections::HashMap::new();
                    let mut victim_ns = Vec::new();
                    for doc in sched {
                        let tenant = doc.tenant_id.0;
                        let client = conns.entry(tenant).or_insert_with(|| {
                            EsdbClient::connect(&addr, &format!("tok-{tenant}")).expect("connect")
                        });
                        let started = Instant::now();
                        client
                            .insert_with_retry(doc.clone(), 1_000_000)
                            .expect("write eventually acknowledged");
                        if tenant != HOT_TENANT {
                            victim_ns.push(started.elapsed().as_nanos() as u64);
                        }
                    }
                    victim_ns
                })
            })
            .collect();
        for w in workers {
            victim_ns.extend(w.join().expect("client thread"));
        }
    });
    let wall_ns = t0.elapsed().as_nanos();

    let hot = handle.admission().tenant_counts(TenantId(HOT_TENANT));
    let mut conserved = hot.conserved();
    for k in 1..=scale.tenants as u64 {
        conserved &= handle.admission().tenant_counts(TenantId(k)).conserved();
    }
    let (mut db, _report) = handle.shutdown();
    db.refresh();
    let signature = row_signature(&db.reader(), scale);

    victim_ns.sort_unstable();
    let victim_p99_ns = if victim_ns.is_empty() {
        0
    } else {
        victim_ns[(victim_ns.len() - 1).min(victim_ns.len() * 99 / 100)]
    };
    PassResult {
        wall_ns,
        victim_p99_ns,
        victim_samples: victim_ns.len(),
        hot_throttled: hot.throttled(),
        hot_shed: hot.shed,
        conserved,
        signature,
    }
}

/// The embedded oracle: the same schedule applied directly, no server.
fn oracle_signature(scale: &Scale) -> (u64, u64) {
    let mut db = open(scale, "oracle");
    let w = db.writer();
    for sched in schedules(scale) {
        for doc in sched {
            w.insert(doc).expect("oracle insert");
        }
    }
    db.refresh();
    row_signature(&db.reader(), scale)
}

fn main() -> ExitCode {
    let mut report = Report::from_args("server_admission");
    let scale = if report.fast() { FAST } else { FULL };

    let oracle = oracle_signature(&scale);
    let off = run_pass(&scale, false, "off");
    let on = run_pass(&scale, true, "on");
    let rerun = run_pass(&scale, true, "on-rerun");
    let p99_improved = on.victim_p99_ns < off.victim_p99_ns;

    println!(
        "server_admission: victim p99 off {:.2}ms on {:.2}ms, \
         hot throttled off {} on {}, hot shed on {}, rows {}",
        off.victim_p99_ns as f64 / 1e6,
        on.victim_p99_ns as f64 / 1e6,
        off.hot_throttled,
        on.hot_throttled,
        on.hot_shed,
        oracle.1,
    );
    report
        .field("theta", THETA)
        .field("shards", scale.shards)
        .field("tenants", scale.tenants)
        .field("client_threads", CLIENT_THREADS)
        .field("ops_per_thread", scale.ops_per_thread)
        .field("hot_tenant", HOT_TENANT)
        .field("hot_rate_per_sec", HOT_RATE.per_sec)
        .field("wall_ns_shed_off", off.wall_ns)
        .field("wall_ns_shed_on", on.wall_ns)
        .field("victim_p99_ns_shed_off", off.victim_p99_ns)
        .field("victim_p99_ns_shed_on", on.victim_p99_ns)
        .field("victim_samples", on.victim_samples)
        .field("hot_throttled_shed_off", off.hot_throttled)
        .field("hot_throttled_shed_on", on.hot_throttled)
        .field("hot_shed_shed_on", on.hot_shed)
        .field("rows", oracle.1);
    if !report.check(
        "rows_identical_to_oracle",
        off.signature == oracle && on.signature == oracle,
    ) {
        eprintln!(
            "oracle {:?}, off {:?}, on {:?}",
            oracle, off.signature, on.signature
        );
    }
    report.check("same_seed_same_rows", on.signature == rerun.signature);
    report.check(
        "admission_conserved",
        off.conserved && on.conserved && rerun.conserved,
    );
    report.check(
        "hot_tenant_throttled",
        off.hot_throttled > 0 && on.hot_throttled > 0,
    );
    report.timing_gate("victim_p99_improved", p99_improved, CLIENT_THREADS as usize);
    report.finish()
}
