//! Fault injection for the consensus rounds.
//!
//! The protocol itself is synchronous round-based; the [`FaultPlan`]
//! describes, per participant, how its link behaves during a round:
//! extra one-way delay, dropped messages (which the master observes as a
//! timeout after `T/2`), or a full partition.

use esdb_common::fastmap::{fast_map, FastMap};
use esdb_common::NodeId;

/// Behaviour of one participant's link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkFault {
    /// Healthy link with the plan's base latency.
    #[default]
    Healthy,
    /// Additional one-way delay in milliseconds (applied to each direction).
    Delay(u64),
    /// The prepare (or its ack) is lost — the master times out.
    DropPrepare,
    /// The commit message is lost — the participant misses the decision
    /// (exercises the fault-tolerance discussion of §4.3).
    DropCommit,
    /// Fully partitioned: no message in either direction.
    Partitioned,
}

/// Per-round fault plan.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Base one-way latency for healthy links, ms.
    pub base_latency_ms: u64,
    faults: FastMap<NodeId, LinkFault>,
}

impl FaultPlan {
    /// Healthy network with the given base one-way latency.
    pub fn healthy(base_latency_ms: u64) -> Self {
        FaultPlan {
            base_latency_ms,
            faults: fast_map(),
        }
    }

    /// Sets the fault for one participant's link.
    pub fn set(&mut self, node: NodeId, fault: LinkFault) -> &mut Self {
        self.faults.insert(node, fault);
        self
    }

    /// The fault configured for `node`.
    pub fn fault(&self, node: NodeId) -> LinkFault {
        self.faults.get(&node).copied().unwrap_or_default()
    }

    /// One-way latency to `node`, or `None` if the message is lost.
    pub(crate) fn one_way_latency(&self, node: NodeId) -> Option<u64> {
        match self.fault(node) {
            LinkFault::Healthy | LinkFault::DropCommit => Some(self.base_latency_ms),
            LinkFault::Delay(d) => Some(self.base_latency_ms + d),
            LinkFault::DropPrepare | LinkFault::Partitioned => None,
        }
    }

    /// Whether the commit broadcast reaches `node`.
    pub(crate) fn commit_reaches(&self, node: NodeId) -> bool {
        !matches!(
            self.fault(node),
            LinkFault::DropCommit | LinkFault::Partitioned
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_plan_has_base_latency() {
        let p = FaultPlan::healthy(5);
        assert_eq!(p.one_way_latency(NodeId(0)), Some(5));
        assert!(p.commit_reaches(NodeId(0)));
    }

    #[test]
    fn faults_apply_per_node() {
        let mut p = FaultPlan::healthy(5);
        p.set(NodeId(1), LinkFault::Delay(100));
        p.set(NodeId(2), LinkFault::DropPrepare);
        p.set(NodeId(3), LinkFault::DropCommit);
        p.set(NodeId(4), LinkFault::Partitioned);
        assert_eq!(p.one_way_latency(NodeId(1)), Some(105));
        assert_eq!(p.one_way_latency(NodeId(2)), None);
        assert_eq!(p.one_way_latency(NodeId(3)), Some(5));
        assert!(!p.commit_reaches(NodeId(3)));
        assert_eq!(p.one_way_latency(NodeId(4)), None);
        assert!(!p.commit_reaches(NodeId(4)));
        // Untouched node stays healthy.
        assert_eq!(p.one_way_latency(NodeId(0)), Some(5));
    }
}
