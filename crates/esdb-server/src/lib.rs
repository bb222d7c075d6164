//! ESDB-RS network front-end: a threaded TCP server with multi-tenant
//! admission control and hot-tenant load shedding.
//!
//! The paper's setting is a multi-tenant cloud database facing
//! extremely skewed workloads — a single hot tenant (Singles' Day
//! merchants, §1) can dominate traffic by orders of magnitude. Inside
//! the engine, dynamic secondary hashing spreads that tenant over more
//! shards; at the front door, this crate applies the *same* skew
//! signal to protect every other tenant's latency:
//!
//! * [`auth`] — bearer-token authentication to a tenant identity,
//! * [`confine`] — tenant confinement for wire SQL: non-admin tokens
//!   may only run queries whose filter provably pins `tenant_id` to
//!   their own tenant,
//! * [`admission`] — per-tenant token buckets, in-flight quotas, a
//!   global connection cap, and overload shedding that targets the
//!   hottest tenants first (driven by the engine's
//!   [`esdb_balancer::WorkloadMonitor`], the balancer's
//!   `r = T(k)/ΣT` proportion from Algorithm 1),
//! * [`wire`] — a lossless JSON wire protocol over the one JSON module,
//!   [`esdb_telemetry::json`] (hand-rolled: the workspace's serde shim
//!   has no real serialization),
//! * [`http`] — minimal resumable HTTP/1.1 framing,
//! * [`transport`] — the listener abstraction ([`TcpTransport`]
//!   today; the trait keeps a future gRPC listener from touching the
//!   engine-facing code),
//! * [`server`] — accept loop, worker threads, dispatch, graceful
//!   drain with a zero-lost-acknowledged-writes guarantee,
//! * [`client`] — a small blocking client for tests, benches, and
//!   examples.
//!
//! ```no_run
//! use esdb_common::TenantId;
//! use esdb_server::{
//!     start, AdmissionConfig, EsdbClient, ServerConfig, TcpTransport, TokenTable, Transport,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let db: esdb_core::Esdb = unimplemented!();
//! let config = ServerConfig {
//!     tokens: TokenTable::new()
//!         .tenant("tok-7", TenantId(7))
//!         .admin("root", TenantId(0)),
//!     admission: AdmissionConfig::default(),
//! };
//! let transport = TcpTransport::bind("127.0.0.1:0")?;
//! let addr = transport.local_addr();
//! let handle = start(db, config, Box::new(transport));
//!
//! let mut client = EsdbClient::connect(&addr, "tok-7")?;
//! // Non-admin tokens must confine queries to their own tenant_id.
//! let rows = client.query("SELECT * FROM transaction_logs WHERE tenant_id = 7")?;
//! println!("{} rows", rows.docs.len());
//!
//! let (db, report) = handle.shutdown();
//! println!("drained {} refused {}", report.drained, report.refused);
//! # drop(db); Ok(())
//! # }
//! ```

pub mod admission;
pub mod auth;
pub mod client;
pub mod confine;
pub mod http;
pub mod server;
pub mod transport;
pub mod wire;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionCounts, Decision, RateLimit, RejectReason,
};
pub use auth::{Identity, TokenTable};
pub use client::{ClientError, EsdbClient};
pub use server::{start, DrainReport, ServerConfig, ServerHandle};
pub use transport::{Conn, TcpTransport, Transport};
pub use wire::{WireAgg, WireError, WireOp, WireRows, WriteAck, WriteRequest};
