//! Network front-end integration: wire-protocol round-trips, TCP
//! end-to-end row identity against the embedded API, auth failure
//! paths, per-tenant quota conservation under concurrent clients, and
//! graceful shutdown with zero lost acknowledged writes.

use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig};
use esdb_doc::{CollectionSchema, Document, FieldValue};
use esdb_integration_tests::test_dir;
use esdb_server::json::Json;
use esdb_server::{
    start, wire, AdmissionConfig, ClientError, EsdbClient, RateLimit, ServerConfig, TcpTransport,
    TokenTable, Transport, WireOp,
};
use esdb_telemetry::lint_prometheus;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn open(tag: &str) -> Esdb {
    Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir(&format!("srv-{tag}-{}", rand::random::<u64>()))).shards(4),
    )
    .expect("open")
}

fn serve(db: Esdb, config: ServerConfig) -> (esdb_server::ServerHandle, String) {
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
    let addr = transport.local_addr();
    (start(db, config, Box::new(transport)), addr)
}

fn default_tokens() -> TokenTable {
    TokenTable::new()
        .tenant("tok-1", TenantId(1))
        .tenant("tok-2", TenantId(2))
        .admin("root", TenantId(0))
}

// ---------------------------------------------------------------------
// Wire-protocol round-trip properties
// ---------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = FieldValue> {
    prop_oneof![
        Just(FieldValue::Null),
        any::<bool>().prop_map(FieldValue::Bool),
        any::<i64>().prop_map(FieldValue::Int),
        // Finite floats only: NaN breaks PartialEq and the engine
        // rejects non-finite values anyway.
        (-1.0e12f64..1.0e12).prop_map(FieldValue::Float),
        any::<u64>().prop_map(FieldValue::Timestamp),
        "[a-zA-Z0-9 \"\\\\\n\t\u{4e00}-\u{4e10}]{0,24}".prop_map(FieldValue::Str),
    ]
}

fn arb_doc() -> impl Strategy<Value = Document> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(("[a-z]{1,8}", arb_value()), 0..6),
        proptest::collection::vec(("[a-z]{1,6}", "[a-z0-9]{0,8}"), 0..3),
    )
        .prop_map(|(t, r, c, fields, attrs)| {
            let mut b = Document::builder(TenantId(t), RecordId(r), c);
            for (name, value) in fields {
                b = b.field(name, value);
            }
            for (k, v) in attrs {
                b = b.attr(k, v);
            }
            b.build()
        })
}

/// The `Json`-tree body `wire::encode_rows` wrote before it became a
/// single pass, kept as its byte-identity oracle.
fn encode_rows_tree(r: &wire::WireRows) -> String {
    Json::Obj(vec![
        (
            "rows".to_string(),
            Json::Arr(r.docs.iter().map(wire::encode_doc).collect()),
        ),
        (
            "postings_scanned".to_string(),
            Json::UInt(r.postings_scanned),
        ),
        ("docs_scanned".to_string(), Json::UInt(r.docs_scanned)),
    ])
    .to_text()
}

/// Strings over characters that reach every escape branch: quotes,
/// backslashes, control characters, multi-byte unicode, and the empty
/// string.
fn arb_text() -> impl Strategy<Value = String> {
    let chars = vec![
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}',
        'é', '中', '😀', '\u{2028}',
    ];
    proptest::collection::vec(proptest::sample::select(chars), 0..6)
        .prop_map(|cs| cs.into_iter().collect())
}

/// Documents with every value kind, edge floats (signed zero, extremes,
/// NaN, infinities) and hostile strings in names, values and attrs.
fn arb_edge_doc() -> impl Strategy<Value = Document> {
    let floats = vec![
        0.0,
        -0.0,
        1.0,
        -2.5,
        1e300,
        5e-324,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let value = prop_oneof![
        Just(FieldValue::Null),
        any::<bool>().prop_map(FieldValue::Bool),
        any::<i64>().prop_map(FieldValue::Int),
        proptest::sample::select(floats).prop_map(FieldValue::Float),
        any::<u64>().prop_map(FieldValue::Timestamp),
        arb_text().prop_map(FieldValue::Str),
    ];
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec((arb_text(), value), 0..5),
        proptest::collection::vec((arb_text(), arb_text()), 0..3),
    )
        .prop_map(|((t, r, c), fields, attrs)| {
            let mut b = Document::builder(TenantId(t), RecordId(r), c);
            for (name, value) in fields {
                b = b.field(name, value);
            }
            for (k, v) in attrs {
                b = b.attr(k, v);
            }
            b.build()
        })
}

fn arb_wire_op() -> impl Strategy<Value = WireOp> {
    prop_oneof![
        arb_doc().prop_map(WireOp::Insert),
        arb_doc().prop_map(WireOp::Update),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(t, r, c)| WireOp::Delete {
            tenant: TenantId(t),
            record: RecordId(r),
            created_at: c,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass row writer is byte-identical to the `Json` tree.
    #[test]
    fn rows_writer_matches_the_json_tree(
        docs in proptest::collection::vec(arb_edge_doc(), 0..5),
        postings in any::<u64>(),
        scanned in any::<u64>(),
    ) {
        let rows = wire::WireRows { docs, postings_scanned: postings, docs_scanned: scanned };
        prop_assert_eq!(wire::encode_rows(&rows), encode_rows_tree(&rows));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Write requests (arbitrary op mixes) survive encode → decode.
    #[test]
    fn write_request_round_trips(ops in proptest::collection::vec(arb_wire_op(), 0..8)) {
        let req = wire::WriteRequest { ops };
        let decoded = wire::decode_write_request(&wire::encode_write_request(&req)).unwrap();
        prop_assert_eq!(decoded, req);
    }

    /// Query results with arbitrary documents survive encode → decode,
    /// including integral floats, u64-range timestamps, and unicode.
    #[test]
    fn rows_round_trip(
        docs in proptest::collection::vec(arb_doc(), 0..6),
        postings in any::<u64>(),
        scanned in any::<u64>(),
    ) {
        let rows = wire::WireRows { docs, postings_scanned: postings, docs_scanned: scanned };
        let decoded = wire::decode_rows(&wire::encode_rows(&rows)).unwrap();
        prop_assert_eq!(decoded, rows);
    }

    /// Aggregate results round-trip, group keys included.
    #[test]
    fn agg_round_trips(
        rows in proptest::collection::vec(
            (
                prop_oneof![Just(None), arb_value().prop_map(Some)],
                proptest::collection::vec(arb_value(), 0..4),
            ),
            0..6,
        ),
        payload_reads in any::<u64>(),
    ) {
        let agg = wire::WireAgg { rows, payload_reads };
        let decoded = wire::decode_agg(&wire::encode_agg(&agg)).unwrap();
        prop_assert_eq!(decoded, agg);
    }

    /// Error responses round-trip with retry hints, and acks with
    /// per-shard splits.
    #[test]
    fn error_and_ack_round_trip(
        code in "[a-z_]{1,16}",
        message in "[ -~]{0,64}",
        retry in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        applied in any::<u64>(),
        per_shard in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..6),
    ) {
        let e = wire::WireError { code, message, retry_after_ms: retry };
        prop_assert_eq!(wire::decode_error(&wire::encode_error(&e)).unwrap(), e);
        let a = wire::WriteAck { applied, per_shard };
        prop_assert_eq!(wire::decode_write_ack(&wire::encode_write_ack(&a)).unwrap(), a);
    }
}

// ---------------------------------------------------------------------
// TCP end-to-end
// ---------------------------------------------------------------------

fn sample_doc(tenant: u64, rid: u64, status: i64) -> Document {
    Document::builder(TenantId(tenant), RecordId(rid), 1_000 + rid)
        .field("status", status)
        .field("amount", FieldValue::Float(status as f64 + 0.25))
        .field("province", format!("prov-{}", rid % 3))
        .build()
}

/// An authenticated client writes over TCP, refreshes, and reads its
/// rows back byte-identically to the embedded `Esdb::query` on the
/// same engine after shutdown.
#[test]
fn tcp_round_trip_matches_embedded_query() {
    let db = open("e2e");
    let (handle, addr) = serve(
        db,
        ServerConfig {
            tokens: default_tokens(),
            admission: AdmissionConfig::default(),
        },
    );

    let mut client = EsdbClient::connect(&addr, "tok-1").expect("connect");
    let mut admin = EsdbClient::connect(&addr, "root").expect("connect admin");
    for rid in 0..40u64 {
        client
            .insert(sample_doc(1, rid, (rid % 7) as i64))
            .expect("insert over tcp");
    }
    admin.admin_refresh().expect("refresh");

    let sql = "SELECT * FROM transaction_logs WHERE tenant_id = 1 ORDER BY created_time ASC";
    let over_wire = client.query(sql).expect("query over tcp");

    // Point lookups work over the wire too.
    let got = client
        .get(TenantId(1), RecordId(7), 1_007)
        .expect("get over tcp")
        .expect("doc exists");
    assert_eq!(got.record_id, RecordId(7));
    // ...but not for another tenant's rows.
    let denied = client.get(TenantId(2), RecordId(7), 1_007);
    assert!(matches!(
        denied,
        Err(ClientError::Server { status: 403, .. })
    ));

    let (db, report) = handle.shutdown();
    let rd = db.reader();
    assert_eq!(report.refused, 0);
    let embedded = rd.query(sql).expect("embedded query");
    assert_eq!(
        over_wire.docs, embedded.docs,
        "rows over the wire must be identical to the embedded result"
    );
    assert_eq!(over_wire.docs.len(), 40);

    // Aggregates too.
    drop(db);
}

/// Aggregate results over the wire match the embedded aggregate.
#[test]
fn tcp_aggregate_matches_embedded() {
    let mut db = open("agg");
    let (w, rd) = (db.writer(), db.reader());
    for rid in 0..30u64 {
        w.insert(sample_doc(1, rid, (rid % 3) as i64))
            .expect("insert");
    }
    db.refresh();
    let sql =
        "SELECT COUNT(*), SUM(amount) FROM transaction_logs WHERE tenant_id = 1 GROUP BY status";
    let embedded = rd.aggregate(sql).expect("embedded aggregate");

    let (handle, addr) = serve(
        db,
        ServerConfig {
            tokens: default_tokens(),
            admission: AdmissionConfig::default(),
        },
    );
    let mut client = EsdbClient::connect(&addr, "tok-1").expect("connect");
    let over_wire = client.aggregate(sql).expect("aggregate over tcp");
    assert_eq!(over_wire.to_rows(), embedded.rows);
    handle.shutdown();
}

/// Bad tokens get 401; tenant tokens get 403 on admin routes and on
/// cross-tenant writes; all are visible in `rejected_counts`.
#[test]
fn auth_failures_are_rejected_and_counted() {
    let db = open("auth");
    let (handle, addr) = serve(
        db,
        ServerConfig {
            tokens: default_tokens(),
            admission: AdmissionConfig::default(),
        },
    );

    let mut bad = EsdbClient::connect(&addr, "wrong-token").expect("connect");
    assert!(matches!(
        bad.query("SELECT * FROM transaction_logs WHERE tenant_id = 1"),
        Err(ClientError::Server { status: 401, .. })
    ));

    let mut t1 = EsdbClient::connect(&addr, "tok-1").expect("connect");
    assert!(matches!(
        t1.admin_metrics(),
        Err(ClientError::Server { status: 403, .. })
    ));
    // Cross-tenant write: token for tenant 1 writing tenant 2's doc.
    assert!(matches!(
        t1.insert(sample_doc(2, 1, 0)),
        Err(ClientError::Server { status: 403, .. })
    ));
    // Admin token may write any tenant and read admin routes.
    let mut admin = EsdbClient::connect(&addr, "root").expect("connect");
    admin
        .insert(sample_doc(2, 1, 0))
        .expect("admin cross-tenant write");
    let metrics = admin.admin_metrics().expect("metrics");
    assert!(
        lint_prometheus(&metrics).is_empty(),
        "prometheus lint: {:?}",
        lint_prometheus(&metrics)
    );
    assert!(metrics.contains("esdb_server_requests_total"));
    let rules = admin.admin_rules().expect("rules json");
    assert!(rules.contains("rule_count"));
    let stats = admin.admin_stats().expect("stats json");
    assert!(stats.contains("requests_rejected"));

    let rejected = handle.rejected_counts();
    assert!(
        rejected.auth >= 3,
        "401 + 403s should be counted as auth rejections, got {rejected:?}"
    );
    handle.shutdown();
}

/// Tenant tokens are confined on the SQL read path too: a tenant-1
/// token cannot query or aggregate tenant-2's rows (or run a query
/// with no tenant predicate at all), while an admin token can.
#[test]
fn queries_are_confined_to_the_token_tenant() {
    let mut db = open("confine");
    let w = db.writer();
    for rid in 0..8u64 {
        w.insert(sample_doc(1, rid, 0)).expect("insert t1");
        w.insert(sample_doc(2, 100 + rid, 0)).expect("insert t2");
    }
    db.refresh();
    let (handle, addr) = serve(
        db,
        ServerConfig {
            tokens: default_tokens(),
            admission: AdmissionConfig::default(),
        },
    );

    let mut t1 = EsdbClient::connect(&addr, "tok-1").expect("connect");
    // Own tenant: fine.
    let rows = t1
        .query("SELECT * FROM transaction_logs WHERE tenant_id = 1")
        .expect("own-tenant query");
    assert_eq!(rows.docs.len(), 8);
    assert!(rows.docs.iter().all(|d| d.tenant_id == TenantId(1)));

    // Every escape hatch gets 403 before the engine runs anything.
    for sql in [
        // Another tenant's id.
        "SELECT * FROM transaction_logs WHERE tenant_id = 2",
        // No tenant predicate at all.
        "SELECT * FROM transaction_logs",
        "SELECT * FROM transaction_logs WHERE status = 0",
        // OR branch that escapes the tenant predicate.
        "SELECT * FROM transaction_logs WHERE tenant_id = 1 OR status = 0",
        // IN wider than the token's tenant.
        "SELECT * FROM transaction_logs WHERE tenant_id IN (1, 2)",
        // Inequality / range tricks.
        "SELECT * FROM transaction_logs WHERE tenant_id != 2",
        "SELECT * FROM transaction_logs WHERE tenant_id >= 1",
    ] {
        assert!(
            matches!(t1.query(sql), Err(ClientError::Server { status: 403, .. })),
            "{sql} should be rejected for a tenant-1 token"
        );
    }
    assert!(matches!(
        t1.aggregate("SELECT COUNT(*) FROM transaction_logs WHERE tenant_id = 2"),
        Err(ClientError::Server { status: 403, .. })
    ));
    // Confined aggregate still works.
    let agg = t1
        .aggregate("SELECT COUNT(*) FROM transaction_logs WHERE tenant_id = 1")
        .expect("own-tenant aggregate");
    assert_eq!(agg.rows.len(), 1);

    // Admin tokens cross tenants on the read path.
    let mut admin = EsdbClient::connect(&addr, "root").expect("connect admin");
    let all = admin
        .query("SELECT * FROM transaction_logs")
        .expect("admin unconfined query");
    assert_eq!(all.docs.len(), 16);

    let rejected = handle.rejected_counts();
    assert!(
        rejected.auth >= 8,
        "confinement rejections must be counted as auth, got {rejected:?}"
    );
    handle.shutdown();
}

/// A point get is confined like a query: tenant 2's token asking for
/// tenant 1's record id (same routing shard) sees no row.
#[test]
fn get_does_not_cross_tenants() {
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(test_dir(&format!("srv-get-{}", rand::random::<u64>()))).shards(1),
    )
    .expect("open");
    let a = sample_doc(1, 7, 0);
    db.writer().insert(a.clone()).expect("insert t1");
    db.refresh();
    let (handle, addr) = serve(
        db,
        ServerConfig {
            tokens: default_tokens(),
            admission: AdmissionConfig::default(),
        },
    );

    let mut t1 = EsdbClient::connect(&addr, "tok-1").expect("connect t1");
    let own = t1
        .get(TenantId(1), RecordId(7), a.created_at)
        .expect("own get");
    assert_eq!(own, Some(a.clone()));
    let mut t2 = EsdbClient::connect(&addr, "tok-2").expect("connect t2");
    let other = t2.get(TenantId(2), RecordId(7), a.created_at).expect("get");
    assert_eq!(other, None, "tenant 2 must not read tenant 1's row");

    // The admin client endpoints answer with JSON documents.
    let mut admin = EsdbClient::connect(&addr, "root").expect("connect admin");
    assert!(admin.admin_telemetry().expect("telemetry").starts_with('{'));
    assert!(admin.admin_bundle().expect("bundle").starts_with('{'));
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Admission conservation under concurrency
// ---------------------------------------------------------------------

/// N client threads hammer one tenant through a tight rate limit;
/// every request is accounted exactly once:
/// `issued == admitted + throttled + shed`, and the engine applied
/// exactly the admitted writes.
#[test]
fn concurrent_clients_conserve_admission_counts() {
    let db = open("conserve");
    let (handle, addr) = serve(
        db,
        ServerConfig {
            tokens: default_tokens(),
            admission: AdmissionConfig {
                tenant_rates: vec![(
                    TenantId(1),
                    RateLimit {
                        capacity: 8,
                        per_sec: 200,
                    },
                )],
                shedding: false,
                ..AdmissionConfig::default()
            },
        },
    );

    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 50;
    let acked = AtomicU64::new(0);
    let throttled = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let addr = addr.clone();
            let acked = &acked;
            let throttled = &throttled;
            scope.spawn(move || {
                let mut client = EsdbClient::connect(&addr, "tok-1").expect("connect");
                for i in 0..PER_THREAD {
                    let rid = t * 1_000 + i;
                    match client.insert(sample_doc(1, rid, 0)) {
                        Ok(ack) => {
                            assert_eq!(ack.applied, 1);
                            acked.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.is_throttle() => {
                            throttled.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });

    let counts = handle.admission().tenant_counts(TenantId(1));
    assert!(counts.conserved(), "conservation violated: {counts:?}");
    assert_eq!(counts.issued, THREADS * PER_THREAD);
    assert_eq!(counts.admitted, acked.load(Ordering::Relaxed));
    assert_eq!(
        counts.throttled() + counts.shed,
        throttled.load(Ordering::Relaxed)
    );
    assert!(
        counts.throttled() > 0,
        "a 200/s limit under 4 unthrottled client threads must throttle"
    );

    let (db, _report) = handle.shutdown();
    // Engine-side conservation: exactly the admitted writes applied.
    assert_eq!(db.stats().writes, counts.admitted);
}

// ---------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------

/// Writers race a graceful shutdown; every write acknowledged before
/// the drain must be present in the returned engine, and refused
/// requests must not be.
#[test]
fn graceful_shutdown_loses_no_acknowledged_write() {
    let db = open("drain");
    let (handle, addr) = serve(
        db,
        ServerConfig {
            tokens: default_tokens(),
            admission: AdmissionConfig::default(),
        },
    );

    const THREADS: u64 = 3;
    let acked = std::sync::Mutex::new(Vec::<u64>::new());
    let stop = AtomicU64::new(0);
    let handle = std::thread::scope(|scope| {
        for t in 0..THREADS {
            let addr = addr.clone();
            let acked = &acked;
            let stop = &stop;
            scope.spawn(move || {
                let mut client = EsdbClient::connect(&addr, "tok-1").expect("connect");
                let mut rid = t * 100_000;
                loop {
                    if stop.load(Ordering::Acquire) != 0 {
                        break;
                    }
                    match client.insert(sample_doc(1, rid, 0)) {
                        Ok(_) => {
                            acked.lock().unwrap().push(rid);
                            rid += 1;
                        }
                        // Draining (503) or torn connection: stop writing.
                        Err(_) => break,
                    }
                }
            });
        }
        // Let the writers make progress, then drain while they're hot.
        std::thread::sleep(std::time::Duration::from_millis(150));
        let (db, report) = handle.shutdown();
        stop.store(1, Ordering::Release);
        (db, report)
    });
    let (mut db, _report) = handle;
    let rd = db.reader();

    let acked = acked.into_inner().unwrap();
    assert!(
        !acked.is_empty(),
        "writers should have landed some acknowledged writes"
    );
    db.refresh();
    let rows = rd
        .query("SELECT * FROM transaction_logs WHERE tenant_id = 1")
        .expect("query");
    let present: std::collections::HashSet<u64> =
        rows.docs.iter().map(|d| d.record_id.raw()).collect();
    for rid in &acked {
        assert!(
            present.contains(rid),
            "acknowledged write {rid} missing after graceful shutdown"
        );
    }
}

/// After drain starts, new data-plane requests are refused with 503
/// and never acknowledged; `DrainReport::refused` counts them.
#[test]
fn requests_after_drain_get_503() {
    let db = open("refuse");
    let (handle, addr) = serve(
        db,
        ServerConfig {
            tokens: default_tokens(),
            admission: AdmissionConfig::default(),
        },
    );
    let mut client = EsdbClient::connect(&addr, "tok-1").expect("connect");
    client.insert(sample_doc(1, 1, 0)).expect("pre-drain write");

    // Drain in the background while the connection stays open.
    let drainer = std::thread::spawn(move || handle.shutdown());
    std::thread::sleep(std::time::Duration::from_millis(60));
    // The open keep-alive connection is torn down or the request is
    // refused — either way the write is not acknowledged.
    match client.insert(sample_doc(1, 2, 0)) {
        Ok(ack) => panic!("write acknowledged during drain: {ack:?}"),
        Err(ClientError::Server { status, .. }) => assert_eq!(status, 503),
        Err(_) => {} // connection closed: also fine, not acknowledged
    }
    let (mut db, _report) = drainer.join().expect("drain thread");
    let rd = db.reader();
    db.refresh();
    let rows = rd
        .query("SELECT * FROM transaction_logs WHERE tenant_id = 1")
        .expect("query");
    let ids: Vec<u64> = rows.docs.iter().map(|d| d.record_id.raw()).collect();
    assert!(
        ids.contains(&1),
        "acknowledged pre-drain write must survive"
    );
    assert!(
        !ids.contains(&2),
        "unacknowledged post-drain write must not be applied"
    );
}

/// A client that sends half a request and then goes quiet cannot hang
/// the drain: the worker abandons the incomplete (never-acknowledged)
/// request after the drain grace period and `shutdown()` returns.
#[test]
fn drain_is_not_hung_by_a_stalled_partial_request() {
    let db = open("stall");
    let (handle, addr) = serve(
        db,
        ServerConfig {
            tokens: default_tokens(),
            admission: AdmissionConfig::default(),
        },
    );

    // Raw socket: begin a request, never finish it.
    use std::io::Write as _;
    let mut stalled = std::net::TcpStream::connect(&addr).expect("connect raw");
    stalled
        .write_all(b"POST /v1/write HTTP/1.1\r\nauthorization: Bearer tok-1\r\ncontent-length: 4096\r\n\r\npartial")
        .expect("send partial request");
    // Give the worker time to buffer the fragment.
    std::thread::sleep(std::time::Duration::from_millis(100));

    let started = std::time::Instant::now();
    let (db, report) = handle.shutdown();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "shutdown must not wait on a stalled client (took {:?})",
        started.elapsed()
    );
    // The abandoned request was never acknowledged, so nothing landed.
    assert_eq!(report.drained, 0);
    assert_eq!(db.stats().writes, 0);
    drop(stalled);
}

/// Journal carries the server lifecycle events (throttle + drain).
#[test]
fn journal_records_server_events() {
    let db = open("journal");
    let telemetry = std::sync::Arc::clone(db.telemetry());
    let (handle, addr) = serve(
        db,
        ServerConfig {
            tokens: default_tokens(),
            admission: AdmissionConfig {
                tenant_rates: vec![(
                    TenantId(1),
                    RateLimit {
                        capacity: 1,
                        per_sec: 1,
                    },
                )],
                ..AdmissionConfig::default()
            },
        },
    );
    let mut client = EsdbClient::connect(&addr, "tok-1").expect("connect");
    let _ = client.insert(sample_doc(1, 1, 0));
    // Bucket of 1 at 1/s: the second write must throttle.
    assert!(matches!(
        client.insert(sample_doc(1, 2, 0)),
        Err(ClientError::Server { status: 429, .. })
    ));
    handle.shutdown();

    let names: Vec<&'static str> = telemetry
        .journal()
        .tail(256)
        .iter()
        .map(|e| e.kind.name())
        .collect();
    assert!(names.contains(&"server_throttle"), "events: {names:?}");
    assert!(names.contains(&"server_drain_started"), "events: {names:?}");
    assert!(
        names.contains(&"server_drain_completed"),
        "events: {names:?}"
    );
}
