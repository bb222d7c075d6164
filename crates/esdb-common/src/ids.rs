//! Strongly-typed identifiers used across the workspace.
//!
//! The paper routes every write by a *(tenant ID, record ID, creation time)*
//! triple (§4.2). We keep these as newtypes so the routing, balancing, and
//! consensus layers cannot accidentally swap them.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A tenant (seller) identifier — the primary routing attribute `k1`.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct TenantId(pub u64);

/// A record (transaction-log row) identifier — the secondary routing
/// attribute `k2`. In production this is an auto-increment unique key.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct RecordId(pub u64);

/// A shard index in `0..N` where `N` is the cluster shard count.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct ShardId(pub u32);

/// A worker-node index.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

/// A millisecond timestamp. Under the simulator this is simulated time; in
/// the embedded engine it is wall-clock milliseconds since the UNIX epoch.
pub type TimestampMs = u64;

impl TenantId {
    /// Returns the raw integer value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl RecordId {
    /// Returns the raw integer value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl ShardId {
    /// Returns the shard index as a `usize` for vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "record-{}", self.0)
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard-{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

impl From<u64> for TenantId {
    fn from(v: u64) -> Self {
        TenantId(v)
    }
}

impl From<u64> for RecordId {
    fn from(v: u64) -> Self {
        RecordId(v)
    }
}

impl From<u32> for ShardId {
    fn from(v: u32) -> Self {
        ShardId(v)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(TenantId(7).to_string(), "tenant-7");
        assert_eq!(RecordId(9).to_string(), "record-9");
        assert_eq!(ShardId(3).to_string(), "shard-3");
        assert_eq!(NodeId(1).to_string(), "node-1");
    }

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(TenantId::from(5).raw(), 5);
        assert_eq!(RecordId::from(6).raw(), 6);
        assert_eq!(ShardId::from(4).index(), 4);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(TenantId(1) < TenantId(2));
        assert!(RecordId(10) > RecordId(9));
    }
}
