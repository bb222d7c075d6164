//! Workload routing for ESDB-RS: hashing, double hashing, and the paper's
//! core contribution, **dynamic secondary hashing** (paper §2.2, §4).
//!
//! All three policies map a write identified by *(tenant ID `k1`, record ID
//! `k2`, creation time `tc`)* to one of `N` shards:
//!
//! * **Hashing** — `p = h1(k1) mod N`. Perfect query locality (one shard per
//!   tenant), no load balancing (Fig. 2a).
//! * **Double hashing** — `p = (h1(k1) + h2(k2) mod s) mod N` with a static
//!   `s` (Eq. 1). Spreads every tenant over `s` consecutive shards; balanced
//!   but every query fans out to `s` shards (Fig. 2b).
//! * **Dynamic secondary hashing** — Eq. 2 replaces the static `s` with a
//!   per-tenant, time-varying offset `L(k1)` driven by the secondary hashing
//!   rule list (Fig. 2c, §4.1–4.2). Cold tenants stay on one shard; hot
//!   tenants grow to 2, 4, 8, ... consecutive shards as rules commit.
//!
//! The [`rules::RuleList`] implements the paper's Algorithm 2 plus the
//! write/read matching conditions of §4.2, which are what make rule changes
//! safe for read-your-writes consistency.

pub mod policy;
pub mod rules;
pub mod span;

pub use policy::{
    place, DoubleHashRouting, DynamicRouting, HashRouting, PolicyKind, RoutingPolicy,
};
pub use rules::{rules_json, RuleList, SecondaryHashingRule};
pub use span::ShardSpan;
