//! The server: accept loop, per-connection workers, request dispatch,
//! and graceful drain.
//!
//! Threading model: one accept thread polls the [`Transport`]; each
//! accepted connection gets a worker thread (connections are bounded
//! by `AdmissionConfig::max_connections`, so the thread count is too).
//! Workers block on resumable HTTP reads with a short timeout so they
//! observe the drain flag even on idle keep-alive connections.
//!
//! Graceful shutdown ([`ServerHandle::shutdown`]) follows the paper's
//! "no acknowledged write is ever lost" discipline: the accept loop
//! stops, requests already executing complete and are acknowledged,
//! requests arriving after the drain flag flips are *refused* with 503
//! before touching the engine (so they are never acknowledged), and
//! the engine is handed back to the caller only after every worker has
//! exited.

use crate::admission::{AdmissionConfig, AdmissionController, Decision};
use crate::auth::{Identity, TokenTable};
use crate::http::{self, ReadError, Request};
use crate::transport::{Conn, Transport};
use crate::wire::{self, WireAgg, WireError, WireOp, WriteAck};
use esdb_common::RejectedCounts;
use esdb_core::routing::rules_json;
use esdb_core::{Esdb, MigrationStatus};
use esdb_query::QueryOptions;
use esdb_telemetry::json::{obj, Json};
use esdb_telemetry::{EventKind, Labels, Telemetry};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;

/// How long a worker blocks on a socket read before re-checking the
/// drain flag.
const READ_POLL: Duration = Duration::from_millis(25);

/// Longest wall-clock time a worker waits for one request to finish
/// arriving once its first byte is in. Bounds both a client that
/// trickles bytes forever and one that stalls mid-request, so a
/// hostile sender cannot pin a worker thread (or a later drain)
/// indefinitely.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Once the drain flag flips, how long a worker keeps waiting for the
/// rest of a partially received request before abandoning it. Keeps
/// [`ServerHandle::shutdown`] from blocking on a stalled client; the
/// abandoned request was never acknowledged.
const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// Server configuration: identity plus admission policy.
#[derive(Clone, Default)]
pub struct ServerConfig {
    /// Token → tenant table.
    pub tokens: TokenTable,
    /// Admission-control policy.
    pub admission: AdmissionConfig,
}

/// What happened during a graceful drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests in flight when the drain began; all completed and were
    /// acknowledged.
    pub drained: u32,
    /// Requests refused with 503 after the drain began; none were
    /// acknowledged.
    pub refused: u64,
}

struct Shared {
    db: Mutex<Esdb>,
    reader: esdb_core::EsdbReader,
    writer: esdb_core::EsdbWriter,
    tokens: TokenTable,
    admission: AdmissionController,
    telemetry: Arc<Telemetry>,
    state: AtomicU8,
    /// 401/403 rejections (admission never sees these).
    rejected_auth: AtomicU64,
    /// Data-plane requests refused because the server was draining.
    refused_draining: AtomicU64,
}

impl Shared {
    fn draining(&self) -> bool {
        self.state.load(Ordering::Acquire) != RUNNING
    }

    /// Requests rejected before reaching the engine, by reason — the
    /// server-side extension of [`esdb_core::EsdbStats`]'s
    /// `requests_rejected`.
    fn rejected_counts(&self) -> RejectedCounts {
        let totals = self.admission.total_counts();
        RejectedCounts {
            auth: self.rejected_auth.load(Ordering::Relaxed),
            quota: totals.quota,
            rate: totals.rate,
            shed: totals.shed,
        }
    }
}

/// A running server. Dropping the handle aborts without draining;
/// call [`ServerHandle::shutdown`] for the graceful path.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    addr: String,
}

/// Starts serving `db` over `transport`.
pub fn start(db: Esdb, config: ServerConfig, transport: Box<dyn Transport>) -> ServerHandle {
    let telemetry = Arc::clone(db.telemetry());
    let admission = AdmissionController::new(
        config.admission,
        db.clock(),
        Arc::clone(&telemetry),
        Some(db.workload_monitor()),
    );
    let reader = db.reader();
    let writer = db.writer();
    let shared = Arc::new(Shared {
        db: Mutex::new(db),
        reader,
        writer,
        tokens: config.tokens,
        admission,
        telemetry,
        state: AtomicU8::new(RUNNING),
        rejected_auth: AtomicU64::new(0),
        refused_draining: AtomicU64::new(0),
    });
    let addr = transport.local_addr();
    let workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let shared = Arc::clone(&shared);
        let workers = Arc::clone(&workers);
        std::thread::Builder::new()
            .name("esdb-server-accept".into())
            .spawn(move || accept_loop(shared, transport, workers))
            .expect("spawn accept thread")
    };
    ServerHandle {
        shared,
        accept: Some(accept),
        workers,
        addr,
    }
}

impl ServerHandle {
    /// The bound address, e.g. `127.0.0.1:39143`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The admission controller (tests read its counters).
    pub fn admission(&self) -> &AdmissionController {
        &self.shared.admission
    }

    /// Requests rejected before reaching the engine, by reason.
    pub fn rejected_counts(&self) -> RejectedCounts {
        self.shared.rejected_counts()
    }

    /// Drains gracefully and returns the engine plus a report.
    ///
    /// Ordering guarantee: every response acknowledged before this
    /// call returns reflects a write durably applied to the returned
    /// [`Esdb`]; every request refused during the drain got a 503 and
    /// was never applied.
    pub fn shutdown(mut self) -> (Esdb, DrainReport) {
        let in_flight = self.shared.admission.global_inflight();
        self.shared.telemetry.emit(
            EventKind::ServerDrainStarted { in_flight },
            Labels::none(),
            esdb_telemetry::NO_PARENT,
        );
        self.shared.state.store(DRAINING, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The accept thread has exited, so no new workers appear.
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        let refused = self.shared.refused_draining.load(Ordering::Relaxed);
        self.shared.telemetry.emit(
            EventKind::ServerDrainCompleted {
                drained: in_flight,
                refused,
            },
            Labels::none(),
            esdb_telemetry::NO_PARENT,
        );
        let shared = Arc::try_unwrap(self.shared)
            .ok()
            .expect("all worker threads joined, no Shared refs remain");
        (
            shared.db.into_inner(),
            DrainReport {
                drained: in_flight,
                refused,
            },
        )
    }
}

fn accept_loop(
    shared: Arc<Shared>,
    mut transport: Box<dyn Transport>,
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let registry = Arc::clone(shared.telemetry.registry());
    while !shared.draining() {
        match transport.poll_accept() {
            Ok(Some(mut conn)) => {
                if !shared.admission.try_open_connection() {
                    let err = WireError::new("shed", "connection limit reached");
                    let mut w = WriteHalf(conn.as_mut());
                    let _ = http::write_response(
                        &mut w,
                        503,
                        "application/json",
                        &wire::encode_error(&err),
                        None,
                    );
                    continue;
                }
                registry
                    .gauge("esdb_server_connections", Labels::none())
                    .set(shared.admission.connections() as i64);
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("esdb-server-conn".into())
                    .spawn(move || serve_conn(shared, conn))
                    .expect("spawn connection thread");
                workers.lock().push(handle);
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(1)),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Borrowed `Read` view of a [`Conn`] (trait-object upcasting shim).
struct ReadHalf<'a>(&'a mut dyn Conn);
impl Read for ReadHalf<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}
/// Borrowed `Write` view of a [`Conn`].
struct WriteHalf<'a>(&'a mut dyn Conn);
impl Write for WriteHalf<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

fn serve_conn(shared: Arc<Shared>, mut conn: Box<dyn Conn>) {
    let _ = conn.set_read_timeout(Some(READ_POLL));
    let mut buf = Vec::new();
    // When the partially received request in `buf` started stalling
    // (first `TimedOut` with bytes pending). Bounds a client that
    // sends part of a request and then goes quiet.
    let mut partial_since: Option<Instant> = None;
    loop {
        let limit = if shared.draining() {
            DRAIN_GRACE
        } else {
            REQUEST_DEADLINE
        };
        let req = match http::read_request(
            &mut ReadHalf(conn.as_mut()),
            &mut buf,
            Some(Instant::now() + limit),
        ) {
            Ok(req) => {
                partial_since = None;
                req
            }
            Err(ReadError::TimedOut) => {
                if buf.is_empty() {
                    // Idle keep-alive connection: wait indefinitely,
                    // bail as soon as the drain flag flips.
                    partial_since = None;
                    if shared.draining() {
                        break;
                    }
                } else {
                    // Mid-request stall: resume reading, but not
                    // forever — and only briefly once draining.
                    let since = *partial_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= limit {
                        break;
                    }
                }
                continue;
            }
            // DeadlineExceeded (trickling sender), Eof, Malformed, Io.
            Err(_) => break,
        };
        let close = req.wants_close();
        let resp = handle_request(&shared, &req);
        let mut w = WriteHalf(conn.as_mut());
        if http::write_response(
            &mut w,
            resp.status,
            resp.content_type,
            &resp.body,
            resp.retry_after_ms,
        )
        .is_err()
        {
            break;
        }
        if close || (shared.draining() && buf.is_empty()) {
            break;
        }
    }
    shared.admission.close_connection();
    shared
        .telemetry
        .registry()
        .gauge("esdb_server_connections", Labels::none())
        .set(shared.admission.connections() as i64);
}

struct Resp {
    status: u16,
    content_type: &'static str,
    body: String,
    retry_after_ms: Option<u64>,
}

impl Resp {
    fn json(status: u16, body: String) -> Resp {
        Resp {
            status,
            content_type: "application/json",
            body,
            retry_after_ms: None,
        }
    }

    fn error(e: WireError) -> Resp {
        Resp {
            status: e.status(),
            content_type: "application/json",
            body: wire::encode_error(&e),
            retry_after_ms: e.retry_after_ms,
        }
    }
}

fn handle_request(shared: &Shared, req: &Request) -> Resp {
    let registry = shared.telemetry.registry();

    // Authenticate.
    let identity = match req.bearer_token().and_then(|t| shared.tokens.resolve(t)) {
        Some(id) => id,
        None => {
            shared.rejected_auth.fetch_add(1, Ordering::Relaxed);
            registry.add("esdb_server_rejected_total", Labels::stage("auth"), 1);
            return Resp::error(WireError::new("auth", "missing or unknown bearer token"));
        }
    };

    if let Some(admin_path) = req.path.strip_prefix("/admin") {
        if !identity.admin {
            shared.rejected_auth.fetch_add(1, Ordering::Relaxed);
            registry.add("esdb_server_rejected_total", Labels::stage("auth"), 1);
            return Resp::error(WireError::new("forbidden", "admin token required"));
        }
        return handle_admin(shared, req, admin_path);
    }

    let tenant = identity.tenant;
    registry.add("esdb_server_requests_total", Labels::tenant(tenant.0), 1);

    // Refuse data-plane work once draining — before admission, so a
    // refused request is never acknowledged and never counted admitted.
    if shared.draining() {
        shared.refused_draining.fetch_add(1, Ordering::Relaxed);
        return Resp::error(WireError::new("draining", "server is draining"));
    }

    // Admission control (admin identities still pass through it for
    // data-plane requests — admin bypass covers /admin only).
    let queued_at = Instant::now();
    let permit = match shared.admission.admit(tenant) {
        Decision::Admitted(p) => p,
        Decision::Rejected {
            reason,
            retry_after_ms,
        } => {
            registry.add(
                "esdb_server_rejected_total",
                Labels::stage(reason.stage()),
                1,
            );
            match reason {
                crate::admission::RejectReason::Shed => {
                    registry.add("esdb_server_shed_total", Labels::tenant(tenant.0), 1)
                }
                _ => registry.add("esdb_server_throttled_total", Labels::tenant(tenant.0), 1),
            }
            let mut e = WireError::new(
                reason.code(),
                format!("tenant {} {}", tenant.0, reason.stage()),
            );
            e.retry_after_ms = retry_after_ms;
            return Resp::error(e);
        }
    };
    registry.add("esdb_server_admitted_total", Labels::tenant(tenant.0), 1);
    registry.observe(
        "esdb_server_queue_wait_ns",
        Labels::tenant(tenant.0),
        queued_at.elapsed().as_nanos() as u64,
    );
    registry
        .gauge("esdb_server_inflight", Labels::none())
        .set(shared.admission.global_inflight() as i64);

    let started = Instant::now();
    let resp = dispatch(shared, req, identity);
    registry.observe(
        "esdb_server_request_ns",
        Labels::tenant(tenant.0),
        started.elapsed().as_nanos() as u64,
    );
    drop(permit);
    registry
        .gauge("esdb_server_inflight", Labels::none())
        .set(shared.admission.global_inflight() as i64);
    resp
}

fn dispatch(shared: &Shared, req: &Request, identity: Identity) -> Resp {
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => return Resp::error(WireError::new("bad_request", "non-utf8 body")),
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/write") => handle_write(shared, body, identity),
        ("POST", "/v1/query") => handle_query(shared, body, identity, false),
        ("POST", "/v1/aggregate") => handle_query(shared, body, identity, true),
        ("POST", "/v1/get") => match wire::decode_get_request(body) {
            Ok((tenant, record, created_at)) => {
                if tenant != identity.tenant && !identity.admin {
                    shared.rejected_auth.fetch_add(1, Ordering::Relaxed);
                    return Resp::error(WireError::new(
                        "forbidden",
                        format!("token is not tenant {}", tenant.0),
                    ));
                }
                let doc = shared.reader.get(tenant, record, created_at);
                Resp::json(200, wire::encode_get_response(doc.as_ref()))
            }
            Err(m) => Resp::error(WireError::new("bad_request", m)),
        },
        _ => Resp::error(WireError::new(
            "not_found",
            format!("no route {} {}", req.method, req.path),
        )),
    }
}

/// `/v1/query` and `/v1/aggregate`: decode, confine the SQL to the
/// token's tenant (admin tokens cross tenants), execute.
fn handle_query(shared: &Shared, body: &str, identity: Identity, aggregate: bool) -> Resp {
    let q = match wire::decode_query_request(body) {
        Ok(q) => q,
        Err(m) => return Resp::error(WireError::new("bad_request", m)),
    };
    if !identity.admin {
        if let Err(e) = crate::confine::ensure_confined(&q.sql, identity.tenant) {
            if e.code == "forbidden" {
                shared.rejected_auth.fetch_add(1, Ordering::Relaxed);
                shared.telemetry.registry().add(
                    "esdb_server_rejected_total",
                    Labels::stage("auth"),
                    1,
                );
            }
            return Resp::error(e);
        }
    }
    let opts = query_options(&q);
    if aggregate {
        match shared.reader.aggregate_opts(&q.sql, opts) {
            Ok(agg) => Resp::json(200, wire::encode_agg(&WireAgg::from_agg(&agg))),
            Err(e) => Resp::error(WireError::from_engine(&e)),
        }
    } else {
        match shared.reader.query_opts(&q.sql, opts) {
            Ok(rows) => {
                // Straight from the engine's rows: no `WireRows` copy.
                let mut body = String::new();
                wire::write_rows(
                    &mut body,
                    &rows.docs,
                    rows.postings_scanned,
                    rows.docs_scanned,
                );
                Resp::json(200, body)
            }
            Err(e) => Resp::error(WireError::from_engine(&e)),
        }
    }
}

fn query_options(q: &wire::QueryRequest) -> QueryOptions {
    let mut opts = QueryOptions::default();
    if let Some(block) = q.block_execution {
        opts.block_execution = block;
    }
    opts
}

fn handle_write(shared: &Shared, body: &str, identity: Identity) -> Resp {
    let request = match wire::decode_write_request(body) {
        Ok(r) => r,
        Err(m) => return Resp::error(WireError::new("bad_request", m)),
    };
    if !identity.admin {
        if let Some(op) = request.ops.iter().find(|op| op.tenant() != identity.tenant) {
            shared.rejected_auth.fetch_add(1, Ordering::Relaxed);
            shared
                .telemetry
                .registry()
                .add("esdb_server_rejected_total", Labels::stage("auth"), 1);
            return Resp::error(WireError::new(
                "forbidden",
                format!("token is not tenant {}", op.tenant().0),
            ));
        }
    }
    let mut per_shard: BTreeMap<u32, u64> = BTreeMap::new();
    let mut applied = 0u64;
    for op in request.ops {
        match apply_op(shared, op) {
            Ok(shard) => {
                applied += 1;
                *per_shard.entry(shard).or_insert(0) += 1;
            }
            // Ops already applied stay applied; the error response is
            // not an acknowledgment of the remainder.
            Err(e) => return Resp::error(WireError::from_engine(&e)),
        }
    }
    let ack = WriteAck {
        applied,
        per_shard: per_shard.into_iter().collect(),
    };
    Resp::json(200, wire::encode_write_ack(&ack))
}

fn apply_op(shared: &Shared, op: WireOp) -> esdb_common::Result<u32> {
    shared.writer.write(op.into_write_op()).map(|s| s.0)
}

fn handle_admin(shared: &Shared, req: &Request, admin_path: &str) -> Resp {
    match (req.method.as_str(), admin_path) {
        ("GET", "/metrics") => {
            let snap = shared.telemetry.snapshot();
            Resp {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body: snap.to_prometheus(),
                retry_after_ms: None,
            }
        }
        ("GET", "/telemetry") => Resp::json(200, shared.telemetry.snapshot().to_json().to_text()),
        ("GET", "/bundle") => {
            let db = shared.db.lock();
            Resp::json(200, db.debug_bundle().to_json().to_text())
        }
        ("GET", "/rules") => {
            let rules = shared.db.lock().rules_snapshot();
            Resp::json(
                200,
                obj(vec![
                    ("rule_count", rules.len().into()),
                    ("rules", rules_json(&rules)),
                ])
                .to_text(),
            )
        }
        ("GET", "/migrations") => {
            // Live migration lifecycle state, one entry per tenant whose
            // shard span ever grew under this instance, rendered as the
            // debug bundle renders it.
            let statuses = shared.db.lock().migrations_snapshot();
            let active = statuses.iter().filter(|s| s.phase.is_active()).count();
            Resp::json(
                200,
                obj(vec![
                    ("active", active.into()),
                    (
                        "migrations",
                        statuses.iter().map(MigrationStatus::to_json).collect(),
                    ),
                ])
                .to_text(),
            )
        }
        ("GET", "/stats") => {
            let db = shared.db.lock();
            let mut stats = db.stats();
            drop(db);
            stats.requests_rejected = shared.rejected_counts();
            let admission = shared.admission.total_counts();
            Resp::json(
                200,
                obj(vec![
                    ("rules", Json::UInt(stats.rules as u64)),
                    ("writes", Json::UInt(stats.writes)),
                    ("write_errors", Json::UInt(stats.write_errors)),
                    ("queries", Json::UInt(stats.queries)),
                    ("live_docs", Json::UInt(stats.live_docs as u64)),
                    ("segments", Json::UInt(stats.segments as u64)),
                    ("size_bytes", Json::UInt(stats.size_bytes as u64)),
                    (
                        "requests_rejected",
                        obj(vec![
                            ("auth", Json::UInt(stats.requests_rejected.auth)),
                            ("quota", Json::UInt(stats.requests_rejected.quota)),
                            ("rate", Json::UInt(stats.requests_rejected.rate)),
                            ("shed", Json::UInt(stats.requests_rejected.shed)),
                        ]),
                    ),
                    (
                        "admission",
                        obj(vec![
                            ("issued", Json::UInt(admission.issued)),
                            ("admitted", Json::UInt(admission.admitted)),
                            ("rate", Json::UInt(admission.rate)),
                            ("quota", Json::UInt(admission.quota)),
                            ("shed", Json::UInt(admission.shed)),
                        ]),
                    ),
                    (
                        "connections",
                        Json::UInt(shared.admission.connections() as u64),
                    ),
                ])
                .to_text(),
            )
        }
        ("POST", "/refresh") => {
            let mut db = shared.db.lock();
            db.refresh();
            Resp::json(200, obj(vec![("refreshed", Json::Bool(true))]).to_text())
        }
        _ => Resp::error(WireError::new(
            "not_found",
            format!("no admin route {} {}", req.method, admin_path),
        )),
    }
}
