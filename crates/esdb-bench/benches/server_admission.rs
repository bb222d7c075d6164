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
//! * **timing (full mode, multi-core hosts)** — victim-tenant p99
//!   request latency with shedding on must be strictly better than
//!   with shedding off. Report-only under `--fast` or on degraded
//!   single-core hosts, per the bench-honesty policy.
//!
//! Pass `--fast` (or set `SERVER_ADMISSION_BENCH_FAST=1`) for the CI
//! smoke configuration. Writes `BENCH_server.json` at the repo root.

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
use std::path::PathBuf;
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
    mode: &'static str,
    shards: u32,
    tenants: usize,
    ops_per_thread: u64,
}

const FULL: Scale = Scale {
    mode: "full",
    shards: 8,
    tenants: 20,
    ops_per_thread: 1_200,
};

const FAST: Scale = Scale {
    mode: "fast",
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
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "esdb-bench-srvadm-{}-{tag}-{}",
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

fn main() {
    let fast = std::env::args().any(|a| a == "--fast" || a == "fast")
        || std::env::var("SERVER_ADMISSION_BENCH_FAST").is_ok_and(|v| v == "1");
    let scale = if fast { FAST } else { FULL };
    let host_cores = esdb_bench::host_cores();
    let degraded = esdb_bench::degraded_single_core(fast);

    let oracle = oracle_signature(&scale);
    let off = run_pass(&scale, false, "off");
    let on = run_pass(&scale, true, "on");
    let rerun = run_pass(&scale, true, "on-rerun");

    let identity_ok = off.signature == oracle && on.signature == oracle;
    let determinism_ok = on.signature == rerun.signature;
    let conservation_ok = off.conserved && on.conserved && rerun.conserved;
    let throttled_ok = off.hot_throttled > 0 && on.hot_throttled > 0;
    let p99_improved = on.victim_p99_ns < off.victim_p99_ns;

    println!(
        "server_admission/{}: victim p99 off {:.2}ms on {:.2}ms ({}), \
         hot throttled off {} on {}, hot shed on {}, rows {}",
        scale.mode,
        off.victim_p99_ns as f64 / 1e6,
        on.victim_p99_ns as f64 / 1e6,
        if p99_improved {
            "improved"
        } else {
            "regressed"
        },
        off.hot_throttled,
        on.hot_throttled,
        on.hot_shed,
        oracle.1,
    );

    // Timing gates need real parallelism to mean anything: enforce on
    // full runs with enough cores for the client fleet, report-only
    // elsewhere (same policy as the other benches).
    let gate_enforced = !fast && host_cores >= CLIENT_THREADS as usize;
    let json = format!(
        "{{\n  \"bench\": \"server_admission\",\n  \"mode\": \"{}\",\n  \"theta\": {THETA},\n  \
         \"shards\": {},\n  \"tenants\": {},\n  \"client_threads\": {CLIENT_THREADS},\n  \
         \"ops_per_thread\": {},\n  \"hot_tenant\": {HOT_TENANT},\n  \
         \"hot_rate_per_sec\": {},\n  \"host_cores\": {host_cores},\n  \
         \"degraded_single_core\": {degraded},\n  \
         \"wall_ns_shed_off\": {},\n  \"wall_ns_shed_on\": {},\n  \
         \"victim_p99_ns_shed_off\": {},\n  \"victim_p99_ns_shed_on\": {},\n  \
         \"victim_samples\": {},\n  \
         \"hot_throttled_shed_off\": {},\n  \"hot_throttled_shed_on\": {},\n  \
         \"hot_shed_shed_on\": {},\n  \"rows\": {},\n  \
         \"p99_gate_enforced\": {gate_enforced},\n  \"p99_improved\": {p99_improved},\n  \
         \"identity_ok\": {identity_ok},\n  \"determinism_ok\": {determinism_ok},\n  \
         \"conservation_ok\": {conservation_ok},\n  \"throttled_ok\": {throttled_ok}\n}}\n",
        scale.mode,
        scale.shards,
        scale.tenants,
        scale.ops_per_thread,
        HOT_RATE.per_sec,
        off.wall_ns,
        on.wall_ns,
        off.victim_p99_ns,
        on.victim_p99_ns,
        on.victim_samples,
        off.hot_throttled,
        on.hot_throttled,
        on.hot_shed,
        oracle.1,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    if !identity_ok {
        eprintln!(
            "server_admission: FAILED identity gate: oracle {:?}, off {:?}, on {:?}",
            oracle, off.signature, on.signature
        );
        std::process::exit(1);
    }
    if !determinism_ok {
        eprintln!(
            "server_admission: FAILED determinism gate: {:?} != {:?}",
            on.signature, rerun.signature
        );
        std::process::exit(1);
    }
    if !conservation_ok || !throttled_ok {
        eprintln!(
            "server_admission: FAILED conservation/throttle gate \
             (conserved {conservation_ok}, throttled {throttled_ok})"
        );
        std::process::exit(1);
    }
    if gate_enforced && !p99_improved {
        eprintln!(
            "server_admission: FAILED victim-p99 gate: shedding on {} ns \
             >= shedding off {} ns",
            on.victim_p99_ns, off.victim_p99_ns
        );
        std::process::exit(1);
    }
    println!("server_admission/{}: all gates passed", scale.mode);
}
