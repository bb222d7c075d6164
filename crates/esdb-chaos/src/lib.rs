//! Deterministic fault injection and failover control.
//!
//! The paper's availability story (§3.3/§5.2: translog replay on crash,
//! replica promotion when a worker dies, physical replication keeping the
//! replica promotable in real time) needs a way to be *driven* and
//! *measured*. This crate supplies the FoundationDB-style simulation
//! toolkit for that:
//!
//! * [`schedule::ChaosSchedule`] — a seed-driven, time-ordered plan of
//!   fault events (node crash/restart, slow-node degradation, consensus
//!   link faults). One schedule drives every fault class, so a single
//!   seed reproduces an entire failure scenario byte-for-byte.
//! * [`injector::TornWriteInjector`] — a deterministic implementation of
//!   the [`esdb_storage::WriteFault`] hook that tears translog appends at
//!   seed-derived byte offsets (the crash-mid-`write(2)` disk state).
//! * [`retry::RetryPolicy`] — bounded exponential backoff for writes that
//!   hit a dead or in-transition shard.
//! * [`controller::FailoverController`] — tracks node health and shard
//!   promotion state, and threads the recovery telemetry
//!   (`esdb_sim_node_up`, promotion latency, replayed-op counts,
//!   unavailability windows) through `esdb-telemetry`.
//!
//! Determinism rules: every random choice flows from a caller-supplied
//! `u64` seed through `StdRng`; event application order is (time,
//! insertion order); no wall-clock reads anywhere. The same seed and the
//! same simulated workload therefore produce identical fault timelines,
//! identical recovery metrics and identical bench JSON.

pub mod controller;
pub mod injector;
pub mod retry;
pub mod schedule;

pub use controller::{FailoverConfig, FailoverController};
pub use injector::{CrashWindowInjector, TornWriteInjector};
pub use retry::RetryPolicy;
pub use schedule::{ChaosEvent, ChaosProfile, ChaosSchedule};
