//! Discrete-event cluster simulator.
//!
//! The paper evaluates ESDB on 8 worker VMs hosting 512 shards (+1 replica
//! each) driven by 3 client machines (§6.1). This crate reproduces that
//! testbed as a deterministic discrete-event simulation:
//!
//! * `node::SimNode` — a worker with a fixed indexing capacity
//!   (work-units/sec) and a FIFO task queue; primaries cost 1 unit, replica
//!   executions cost `replica_cost` units (1.0 = logical replication,
//!   <1 = physical replication, §5.2).
//! * [`sim::SimCluster`] — write clients (one-hop routing, bounded worker
//!   queues with head-of-line blocking, optional hotspot isolation, §3.1),
//!   shard→node placement with replicas on distinct nodes, the routing
//!   policy under test, the workload monitor + load balancer (Algorithm 1)
//!   and the rule-commit consensus (§4.3) running in simulated time.
//! * [`query_model`] — the analytic query-throughput model used for the
//!   Fig. 16 reproduction: per-subquery cost grows with the tenant's data
//!   in the shard and the shard's total size; a query fans out to the
//!   tenant's shard span.
//!
//! What this preserves from the real system: queueing delay, saturation
//! points, per-node/per-shard load distribution, balancer reaction time
//! (detection period + commit-wait `T`), and replication CPU cost — the
//! quantities Figures 10–16 and 19 measure. What it abstracts away: x86
//! microarchitecture and JVM overheads, which shift absolute numbers only.

pub mod config;
pub mod node;
pub mod query_model;
pub mod sim;

pub use config::{ClientConfig, ClusterConfig, PolicySpec};
pub use query_model::{QueryCostModel, QueryThroughputModel};
pub use sim::{RunReport, SimCluster, TickStats};
