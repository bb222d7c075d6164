//! Simulated worker nodes.

use esdb_common::ShardId;
use esdb_workload::WriteEvent;
use std::collections::VecDeque;

/// A unit of work queued on a node.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Task {
    /// Index a write on the primary shard (cost 1.0). Carries the original
    /// client event so a crashed node's unacknowledged work can re-enter
    /// routing, plus what the metrics layer needs at completion time.
    Primary {
        /// The client write this task executes.
        ev: WriteEvent,
        /// Target shard.
        shard: ShardId,
    },
    /// Apply the write on a replica (cost = `replica_cost`).
    Replica,
    /// Replay a translog tail after a failover (cost = `work`, fixed at
    /// enqueue time). `promote: true` finishes a replica promotion;
    /// `promote: false` rebuilds a replica on a surviving node.
    Recovery {
        /// Recovering shard.
        shard: ShardId,
        /// Translog ops replayed.
        ops: u64,
        /// Total work units this replay costs.
        work: f64,
        /// Whether completion promotes the shard's new primary.
        promote: bool,
        /// Journal seq of the crash/restart that caused this recovery
        /// (`NO_PARENT` when the journal is disabled).
        cause: u64,
    },
}

/// A worker node: fixed capacity per tick, FIFO queue.
#[derive(Debug)]
pub(crate) struct SimNode {
    /// Capacity in work units per tick.
    capacity_per_tick: f64,
    /// Service-rate degradation multiplier in `(0, 1]` (chaos
    /// `SlowNode`); effective capacity is `capacity_per_tick * factor`.
    capacity_factor: f64,
    /// Unused budget carried across ticks (fractional capacities).
    budget: f64,
    queue: VecDeque<Task>,
    /// Work units queued but not yet executed.
    pub pending_work: f64,
    /// Work units executed in the current tick (reset each tick).
    pub work_this_tick: f64,
    /// Total work units executed.
    pub total_work: f64,
    /// Total primary completions.
    pub completed_primaries: u64,
    /// Primary tasks currently queued (for in-system accounting).
    pub pending_primaries: u64,
    /// Sum of capacity offered so far (for utilization).
    pub offered_capacity: f64,
}

impl SimNode {
    /// A node processing `capacity_per_tick` work units each tick.
    pub(crate) fn new(capacity_per_tick: f64) -> Self {
        SimNode {
            capacity_per_tick,
            capacity_factor: 1.0,
            budget: 0.0,
            queue: VecDeque::new(),
            pending_work: 0.0,
            work_this_tick: 0.0,
            total_work: 0.0,
            completed_primaries: 0,
            pending_primaries: 0,
            offered_capacity: 0.0,
        }
    }

    /// Sets the service-rate degradation multiplier (clamped to `(0, 1]`).
    pub(crate) fn set_capacity_factor(&mut self, factor: f64) {
        self.capacity_factor = factor.clamp(0.01, 1.0);
    }

    /// Kills the node: every queued task is lost (returned so the caller
    /// can re-drive unacknowledged work through the client) and all
    /// in-flight accounting resets. Cumulative totals survive — a crash
    /// does not erase work already done.
    pub(crate) fn crash(&mut self) -> Vec<Task> {
        self.budget = 0.0;
        self.pending_work = 0.0;
        self.pending_primaries = 0;
        self.work_this_tick = 0.0;
        self.queue.drain(..).collect()
    }

    /// Enqueues a task costing `cost` units.
    pub(crate) fn enqueue(&mut self, task: Task, cost: f64) {
        if matches!(task, Task::Primary { .. }) {
            self.pending_primaries += 1;
        }
        self.pending_work += cost;
        self.queue.push_back(task);
    }

    /// Runs one tick; every completed task is passed to `on_complete`.
    /// `replica_cost` prices Replica tasks; Recovery tasks carry their own
    /// cost.
    pub(crate) fn run_tick<F: FnMut(Task)>(&mut self, replica_cost: f64, mut on_complete: F) {
        let effective = self.capacity_per_tick * self.capacity_factor;
        self.budget += effective;
        self.offered_capacity += effective;
        self.work_this_tick = 0.0;
        while let Some(task) = self.queue.front() {
            let cost = match task {
                Task::Primary { .. } => 1.0,
                Task::Replica => replica_cost,
                Task::Recovery { work, .. } => *work,
            };
            if self.budget < cost {
                break;
            }
            self.budget -= cost;
            self.pending_work -= cost;
            self.work_this_tick += cost;
            self.total_work += cost;
            let task = self.queue.pop_front().expect("front checked");
            if let Task::Primary { .. } = task {
                self.completed_primaries += 1;
                self.pending_primaries -= 1;
            }
            on_complete(task);
        }
        // An idle node cannot bank more than one tick of capacity
        // (capacity is not storable in a real CPU).
        if self.queue.is_empty() {
            self.budget = self.budget.min(effective);
        }
    }

    /// Lifetime utilization in `[0, 1]`.
    pub(crate) fn utilization(&self) -> f64 {
        if self.offered_capacity == 0.0 {
            0.0
        } else {
            (self.total_work / self.offered_capacity).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::TenantId;

    fn primary(shard: u32) -> Task {
        Task::Primary {
            ev: WriteEvent {
                tenant: TenantId(1),
                record: esdb_common::RecordId(1),
                created_at: 0,
                bytes: 100,
            },
            shard: ShardId(shard),
        }
    }

    fn completed_primaries(n: &mut SimNode, replica_cost: f64) -> usize {
        let mut done = 0;
        n.run_tick(replica_cost, |t| {
            if matches!(t, Task::Primary { .. }) {
                done += 1;
            }
        });
        done
    }

    #[test]
    fn processes_up_to_capacity() {
        let mut n = SimNode::new(5.0);
        for _ in 0..12 {
            n.enqueue(primary(0), 1.0);
        }
        assert_eq!(completed_primaries(&mut n, 1.0), 5);
        assert_eq!(completed_primaries(&mut n, 1.0), 5);
        assert_eq!(completed_primaries(&mut n, 1.0), 2);
        assert_eq!(n.queue.len(), 0);
    }

    #[test]
    fn replica_tasks_consume_budget_but_dont_count_as_primaries() {
        let mut n = SimNode::new(4.0);
        n.enqueue(Task::Replica, 0.5);
        n.enqueue(Task::Replica, 0.5);
        n.enqueue(primary(0), 1.0);
        let mut all = 0;
        let mut primaries = 0;
        n.run_tick(0.5, |t| {
            all += 1;
            if matches!(t, Task::Primary { .. }) {
                primaries += 1;
            }
        });
        assert_eq!(all, 3, "every completion is reported");
        assert_eq!(primaries, 1);
        assert_eq!(n.completed_primaries, 1);
        assert!((n.total_work - 2.0).abs() < 1e-9);
    }

    #[test]
    fn recovery_tasks_cost_their_declared_work() {
        let mut n = SimNode::new(4.0);
        let recovery = Task::Recovery {
            shard: ShardId(3),
            ops: 20,
            work: 3.0,
            promote: true,
            cause: 0,
        };
        n.enqueue(recovery, 3.0);
        n.enqueue(primary(0), 1.0);
        let mut seen = Vec::new();
        n.run_tick(1.0, |t| seen.push(t));
        assert_eq!(seen.len(), 2, "3.0 + 1.0 fits the 4.0 budget");
        assert!(
            matches!(
                seen[0],
                Task::Recovery {
                    ops: 20,
                    promote: true,
                    ..
                }
            ),
            "recovery completes first (FIFO)"
        );
        assert!((n.total_work - 4.0).abs() < 1e-9);
    }

    #[test]
    fn degraded_capacity_slows_service() {
        let mut n = SimNode::new(10.0);
        n.set_capacity_factor(0.5);
        for _ in 0..10 {
            n.enqueue(primary(0), 1.0);
        }
        assert_eq!(completed_primaries(&mut n, 1.0), 5, "half speed");
        n.set_capacity_factor(1.0);
        assert_eq!(completed_primaries(&mut n, 1.0), 5, "full speed restored");
    }

    #[test]
    fn crash_loses_queue_but_keeps_totals() {
        let mut n = SimNode::new(2.0);
        for _ in 0..6 {
            n.enqueue(primary(0), 1.0);
        }
        assert_eq!(completed_primaries(&mut n, 1.0), 2);
        let lost = n.crash();
        assert_eq!(lost.len(), 4);
        assert_eq!(n.queue.len(), 0);
        assert_eq!(n.pending_primaries, 0);
        assert!((n.pending_work).abs() < 1e-9);
        assert_eq!(n.completed_primaries, 2, "done work survives the crash");
    }

    #[test]
    fn fractional_capacity_carries() {
        let mut n = SimNode::new(0.6);
        n.enqueue(primary(0), 1.0);
        assert_eq!(completed_primaries(&mut n, 1.0), 0, "0.6 < 1.0");
        assert_eq!(completed_primaries(&mut n, 1.0), 1, "1.2 >= 1.0");
    }

    #[test]
    fn idle_budget_does_not_accumulate() {
        let mut n = SimNode::new(10.0);
        for _ in 0..5 {
            n.run_tick(1.0, |_| {});
        }
        for _ in 0..25 {
            n.enqueue(primary(0), 1.0);
        }
        let done = completed_primaries(&mut n, 1.0);
        // At most 2 ticks of budget (one banked + one fresh).
        assert!(done <= 20, "burst {done} exceeds banked+fresh capacity");
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut n = SimNode::new(10.0);
        for _ in 0..10 {
            n.enqueue(primary(0), 1.0);
        }
        n.run_tick(1.0, |_| {});
        n.run_tick(1.0, |_| {});
        assert!((n.utilization() - 0.5).abs() < 1e-9);
    }
}
