//! The unified, seed-driven fault schedule.

use esdb_common::{NodeId, TimestampMs};
use esdb_consensus::{FaultPlan, LinkFault};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled fault. Events are applied at the first simulation tick
/// whose start time is `>=` the event's timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosEvent {
    /// The node dies: its queue is lost, its primary shards promote their
    /// replicas, its links partition.
    NodeCrash {
        /// Victim node.
        node: u32,
    },
    /// The node rejoins empty (diskless restart) and becomes a placement
    /// candidate again.
    NodeRestart {
        /// Restarting node.
        node: u32,
    },
    /// Service-rate degradation: the node's capacity is multiplied by
    /// `factor` (1.0 restores full speed).
    SlowNode {
        /// Affected node.
        node: u32,
        /// Capacity multiplier in `(0, 1]`.
        factor: f64,
    },
    /// Consensus link fault for one participant ([`LinkFault::Healthy`]
    /// clears it). Subsumes what `SimCluster::set_fault_plan` injected.
    Link {
        /// Affected participant.
        node: u32,
        /// The link behaviour.
        fault: LinkFault,
    },
}

/// Shape of a randomly generated failure scenario (see
/// [`ChaosSchedule::seeded`]).
#[derive(Debug, Clone, Copy)]
pub struct ChaosProfile {
    /// Nodes in the cluster (victims are drawn from `0..n_nodes`).
    pub n_nodes: u32,
    /// Events are placed in `[start_ms, end_ms)`.
    pub start_ms: TimestampMs,
    /// End of the placement window.
    pub end_ms: TimestampMs,
    /// Crash/restart pairs to generate.
    pub crashes: usize,
    /// Downtime range for each crash, ms.
    pub downtime_ms: (u64, u64),
    /// Slow-node windows to generate.
    pub slow_windows: usize,
    /// Degradation factor range for slow windows.
    pub slow_factor: (f64, f64),
    /// Consensus link-fault windows to generate.
    pub link_faults: usize,
}

impl ChaosProfile {
    /// A mild default: one crash, one slow window, one link fault.
    pub fn mild(n_nodes: u32, end_ms: TimestampMs) -> Self {
        ChaosProfile {
            n_nodes,
            start_ms: end_ms / 4,
            end_ms,
            crashes: 1,
            downtime_ms: (end_ms / 8, end_ms / 4),
            slow_windows: 1,
            slow_factor: (0.3, 0.8),
            link_faults: 1,
        }
    }
}

/// A time-ordered plan of fault events plus the base consensus fault plan,
/// the single source of truth for every fault class in a run.
#[derive(Debug, Clone, Default)]
pub struct ChaosSchedule {
    /// `(at_ms, event)`, kept sorted by time (stable for equal times).
    events: Vec<(TimestampMs, ChaosEvent)>,
    /// Events before this index have already been taken.
    cursor: usize,
    /// Base consensus plan; `Link` events mutate it as they fire, and
    /// `SimCluster::set_fault_plan` writes it directly (the legacy shim).
    base_consensus: FaultPlan,
}

impl ChaosSchedule {
    /// An empty schedule with a healthy consensus network.
    pub fn new() -> Self {
        ChaosSchedule {
            events: Vec::new(),
            cursor: 0,
            base_consensus: FaultPlan::healthy(50),
        }
    }

    /// Builder: schedules `event` at `at_ms`.
    pub fn at(mut self, at_ms: TimestampMs, event: ChaosEvent) -> Self {
        self.push(at_ms, event);
        self
    }

    /// Schedules `event` at `at_ms`. Events already consumed by
    /// [`ChaosSchedule::take_due`] are unaffected.
    pub(crate) fn push(&mut self, at_ms: TimestampMs, event: ChaosEvent) {
        // Stable insertion position: after every event with time <= at_ms,
        // but never before the cursor (the past is immutable).
        let mut i = self.events.len();
        while i > self.cursor && self.events[i - 1].0 > at_ms {
            i -= 1;
        }
        self.events.insert(i, (at_ms, event));
    }

    /// Generates a random scenario from `seed`: each crash gets a matching
    /// restart after a profile-ranged downtime, each slow window and link
    /// fault gets a matching clear. Same seed + profile ⇒ same schedule.
    pub fn seeded(seed: u64, profile: &ChaosProfile) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = ChaosSchedule::new();
        let window = profile.end_ms.saturating_sub(profile.start_ms).max(1);
        let at = |rng: &mut StdRng| profile.start_ms + rng.random_range(0..window);
        for _ in 0..profile.crashes {
            let node = rng.random_range(0..profile.n_nodes);
            let t = at(&mut rng);
            let (lo, hi) = profile.downtime_ms;
            let down = if hi > lo {
                rng.random_range(lo..hi)
            } else {
                lo
            };
            s.push(t, ChaosEvent::NodeCrash { node });
            s.push(t + down.max(1), ChaosEvent::NodeRestart { node });
        }
        for _ in 0..profile.slow_windows {
            let node = rng.random_range(0..profile.n_nodes);
            let t = at(&mut rng);
            let (lo, hi) = profile.slow_factor;
            let factor = lo + (hi - lo) * rng.random_range(0..1_000u32) as f64 / 1_000.0;
            s.push(t, ChaosEvent::SlowNode { node, factor });
            s.push(t + window / 4, ChaosEvent::SlowNode { node, factor: 1.0 });
        }
        for _ in 0..profile.link_faults {
            let node = rng.random_range(0..profile.n_nodes);
            let t = at(&mut rng);
            let fault = match rng.random_range(0..3u32) {
                0 => LinkFault::Delay(200),
                1 => LinkFault::DropPrepare,
                _ => LinkFault::DropCommit,
            };
            s.push(t, ChaosEvent::Link { node, fault });
            s.push(
                t + window / 4,
                ChaosEvent::Link {
                    node,
                    fault: LinkFault::Healthy,
                },
            );
        }
        s
    }

    /// Drains every event scheduled at or before `now`, in (time,
    /// insertion) order. `Link` events also update the base consensus plan
    /// so consumers that only read [`ChaosSchedule::consensus_plan`] see
    /// them too.
    pub fn take_due(&mut self, now: TimestampMs) -> Vec<ChaosEvent> {
        let mut out = Vec::new();
        while self.cursor < self.events.len() && self.events[self.cursor].0 <= now {
            let (_, ev) = self.events[self.cursor];
            if let ChaosEvent::Link { node, fault } = ev {
                self.base_consensus.set(NodeId(node), fault);
            }
            out.push(ev);
            self.cursor += 1;
        }
        out
    }

    /// The current base consensus plan (base latency + the link faults
    /// fired so far).
    pub fn consensus_plan(&self) -> &FaultPlan {
        &self.base_consensus
    }

    /// Overwrites the base consensus plan (the `set_fault_plan` shim).
    pub fn set_consensus_plan(&mut self, plan: FaultPlan) {
        self.base_consensus = plan;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut s = ChaosSchedule::new()
            .at(500, ChaosEvent::NodeRestart { node: 1 })
            .at(100, ChaosEvent::NodeCrash { node: 1 })
            .at(
                100,
                ChaosEvent::SlowNode {
                    node: 2,
                    factor: 0.5,
                },
            );
        assert_eq!(s.events.len() - s.cursor, 3);
        let due = s.take_due(100);
        // Both t=100 events, crash first (insertion order at equal times).
        assert_eq!(due.len(), 2);
        assert_eq!(due[0], ChaosEvent::NodeCrash { node: 1 });
        assert!(matches!(due[1], ChaosEvent::SlowNode { node: 2, .. }));
        assert!(s.take_due(499).is_empty());
        assert_eq!(s.take_due(500).len(), 1);
        assert_eq!(s.events.len() - s.cursor, 0);
    }

    #[test]
    fn link_events_mutate_consensus_plan() {
        let mut s = ChaosSchedule::new()
            .at(
                100,
                ChaosEvent::Link {
                    node: 2,
                    fault: LinkFault::DropPrepare,
                },
            )
            .at(
                200,
                ChaosEvent::Link {
                    node: 2,
                    fault: LinkFault::Healthy,
                },
            );
        assert_eq!(s.consensus_plan().fault(NodeId(2)), LinkFault::Healthy);
        s.take_due(100);
        assert_eq!(s.consensus_plan().fault(NodeId(2)), LinkFault::DropPrepare);
        s.take_due(200);
        assert_eq!(s.consensus_plan().fault(NodeId(2)), LinkFault::Healthy);
    }

    #[test]
    fn seeded_schedules_are_reproducible() {
        let p = ChaosProfile::mild(8, 60_000);
        let a = ChaosSchedule::seeded(42, &p);
        let b = ChaosSchedule::seeded(42, &p);
        assert_eq!(a.events, b.events);
        let c = ChaosSchedule::seeded(43, &p);
        assert_ne!(a.events, c.events, "different seed, different plan");
        // Crash/restart pairing: every crash has a later restart of the
        // same node.
        for &(t, ev) in &a.events {
            if let ChaosEvent::NodeCrash { node } = ev {
                assert!(a
                    .events
                    .iter()
                    .any(|&(t2, e2)| t2 > t && e2 == ChaosEvent::NodeRestart { node }));
            }
        }
    }

    #[test]
    fn push_after_take_keeps_past_immutable() {
        let mut s = ChaosSchedule::new().at(100, ChaosEvent::NodeCrash { node: 0 });
        assert_eq!(s.take_due(100).len(), 1);
        // Scheduling "in the past" lands at the cursor and fires next take.
        s.push(50, ChaosEvent::NodeRestart { node: 0 });
        assert_eq!(s.take_due(100), vec![ChaosEvent::NodeRestart { node: 0 }]);
    }
}
