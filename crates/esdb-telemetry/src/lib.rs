//! End-to-end telemetry for ESDB-RS: a sharded, atomic-hot-path metrics
//! registry, log-bucketed latency histograms, lightweight tracing spans,
//! ring-buffer slow-query/slow-write logs, a causally-linked event
//! journal ([`journal`]), Chrome-trace/structured-JSON trace exporters
//! ([`trace_export`]), a one-call postmortem [`bundle::DebugBundle`],
//! Prometheus/JSON exposition, and the one [`json`] module every JSON
//! document of the program is built and parsed with.
//!
//! The paper's balancing loop is measurement-driven — the workload
//! monitor's per-tenant/shard/node counters (Fig. 3, Algorithm 1) feed
//! dynamic secondary hashing, and the whole evaluation (Figs. 10–16)
//! reads as per-node latency/throughput distributions under skew. This
//! crate is the substrate those measurements flow through: every series
//! is named `esdb_<subsystem>_<name>` and labeled along the paper's
//! `{tenant, shard, node}` axes plus a `stage` axis for pipeline
//! breakdowns.
//!
//! Design constraints:
//!
//! - **Leaf crate.** Depends only on `std`, so even `esdb-common` can
//!   (and does) build its statistics types on top of it.
//! - **Lock-free hot path.** Metric updates through cached handles are
//!   single relaxed atomics; registration is the only write-locked
//!   operation.
//! - **No async runtime.** Spans are RAII wall-clock timers with
//!   explicit parent IDs ([`span`]).
//! - **One JSON.** Every emitter returns a [`json::Json`] value; callers
//!   that need text call `to_text()`, which writes compact JSON.
//! - **One interpolation rule.** All bucketed quantiles in the codebase
//!   come from [`histogram`], which documents the rule once.

pub mod bundle;
pub mod expo;
pub mod histogram;
pub mod journal;
pub mod json;
pub mod registry;
pub mod slowlog;
pub mod span;
mod telemetry;
pub mod trace_export;

pub use bundle::DebugBundle;
pub use expo::{
    json_histogram_counts, lint_prometheus, prometheus_histogram_counts, TelemetrySnapshot,
};
pub use histogram::{quantile, quantile_sorted, Histogram, HistogramSnapshot};
pub use journal::{unresolved_parents, Event, EventKind, Journal, NO_PARENT};
pub use registry::{Counter, Gauge, Labels, MetricsRegistry};
pub use slowlog::{SlowQueryEntry, SlowWriteEntry};
pub use span::{QueryTrace, Span, StageSample};
pub use telemetry::{Telemetry, TelemetryConfig};
pub use trace_export::chrome_trace_json;
