//! ESDB-RS: an embeddable reproduction of ESDB (SIGMOD '22), Alibaba's
//! cloud-native document database for extremely skewed multi-tenant
//! workloads.
//!
//! The [`Esdb`] facade runs the full stack in one process: `N` real storage
//! shards (translog + segments + indexes), the three routing policies with
//! **dynamic secondary hashing** as the default, the workload monitor +
//! load balancer (Algorithm 1), the append-only secondary-hashing rule list
//! with read-your-writes matching (§4.2), SQL queries through Xdriver4ES
//! translation and the rule-based optimizer (§5.1), and frequency-based
//! sub-attribute indexing (§3.2).
//!
//! ```no_run
//! use esdb_core::{Esdb, EsdbConfig};
//! use esdb_doc::{CollectionSchema, Document};
//! use esdb_common::{TenantId, RecordId};
//!
//! let mut db = Esdb::open(
//!     CollectionSchema::transaction_logs(),
//!     EsdbConfig::new("/tmp/esdb-demo"),
//! ).unwrap();
//! // The data plane is two clone-able handles; `Esdb` keeps lifecycle,
//! // maintenance and admin.
//! let (writer, reader) = (db.writer(), db.reader());
//! writer.insert(
//!     Document::builder(TenantId(10086), RecordId(1), 1_000)
//!         .field("status", 1i64)
//!         .field("auction_title", "rust in action hardcover")
//!         .build(),
//! ).unwrap();
//! db.refresh();
//! let rows = reader.query(
//!     "SELECT * FROM transaction_logs WHERE tenant_id = 10086 AND status = 1 LIMIT 10",
//! ).unwrap();
//! assert_eq!(rows.docs.len(), 1);
//! ```

mod batcher;
mod config;
mod coordinator;
mod db;
mod migrate;
mod read;
mod stats;
mod testkit;
mod write;

pub use batcher::WriteBatcher;
pub use config::{EsdbConfig, RoutingMode};
pub use db::Esdb;
pub use migrate::{MigrationPhase, MigrationStatus};
pub use read::EsdbReader;
pub use stats::EsdbStats;
pub use write::{BatchApplied, EsdbWriter};

// The layered crates, re-exported so applications can depend on
// `esdb-core` alone.
pub use esdb_balancer as balancer;
pub use esdb_cluster as cluster;
pub use esdb_common as common;
pub use esdb_consensus as consensus;
pub use esdb_doc as doc;
pub use esdb_index as index;
pub use esdb_query as query;
pub use esdb_replication as replication;
pub use esdb_routing as routing;
pub use esdb_storage as storage;
pub use esdb_telemetry as telemetry;
pub use esdb_workload as workload;
