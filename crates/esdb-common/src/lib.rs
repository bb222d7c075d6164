//! Common foundation types for ESDB-RS.
//!
//! This crate hosts the vocabulary shared by every other crate in the
//! workspace:
//!
//! * strongly-typed identifiers ([`ids::TenantId`], [`ids::RecordId`],
//!   [`ids::ShardId`], [`ids::NodeId`]) and millisecond timestamps,
//! * the two independent hash functions used by ESDB's routing layer
//!   ([`hash::murmur3_32`] / [`hash::h1`] / [`hash::h2`]), implemented from
//!   scratch to match the behaviour the paper inherits from Elasticsearch,
//! * clock abstractions ([`clock::Clock`]) with real and simulated
//!   implementations so the discrete-event cluster simulator and the real
//!   storage engine share code,
//! * the Zipf(θ) sampler ([`zipf::ZipfSampler`]) used by the paper's
//!   workload generator (§6.1),
//! * light-weight statistics helpers ([`stats`]) used by the monitor and the
//!   benchmark harness,
//! * sharded weight-budgeted LRU caches ([`cache::ShardedCache`]) backing
//!   the skew-aware query caches, and
//! * the workspace-wide error type ([`error::EsdbError`]).

pub mod cache;
pub mod clock;
pub mod error;
pub mod exec;
pub mod fastmap;
pub mod hash;
pub mod ids;
pub mod stats;
pub mod zipf;

pub use cache::{CacheStats, ShardedCache};
pub use clock::{Clock, ManualClock, SharedClock};
pub use error::{EsdbError, Result};
pub use exec::Executor;
pub use ids::{NodeId, RecordId, ShardId, TenantId, TimestampMs};
pub use stats::RejectedCounts;
