//! Ring-buffer slow-path logs: one for queries, one for writes.
//!
//! Requests whose total latency crosses the configured threshold get an
//! entry capturing everything needed to reproduce and diagnose them.
//! For queries: the SQL text, the plan (fingerprint + rendered form),
//! which tenant, the shard fan-out, and the per-stage span tree (always
//! populated under tail-based capture, regardless of head sampling).
//! For writes: the shard, op count, lock wait and translog bytes of
//! the submission whose engine-lock hold crossed the threshold. Both
//! logs are bounded rings: the newest `capacity` entries win, and
//! logging is off the hot path (one branch on the threshold; the mutex
//! is taken only for actual slow requests).

use crate::json::{obj, Json};
use crate::span::StageSample;
use crate::trace_export::trace_json;
use std::collections::VecDeque;
use std::sync::Mutex;

/// One slow query.
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    /// Trace id of the request's span tree (0 when tracing was off).
    pub trace_id: u64,
    /// The SQL text as submitted.
    pub sql: String,
    /// Rendered physical plan.
    pub plan: String,
    /// Canonical plan fingerprint (cache key).
    pub fingerprint: u128,
    /// Tenant the query filtered on, when derivable from the plan.
    pub tenant: Option<u64>,
    /// Number of shards the query fanned out to.
    pub fanout: u32,
    /// End-to-end latency in nanoseconds.
    pub total_ns: u64,
    /// Per-stage timings; empty only when stage capture was disabled.
    pub stages: Vec<StageSample>,
}

/// One slow write submission — a single op, or one shard's group of a
/// batch — timed over its hold of the shard's engine lock (the
/// write-side twin of [`SlowQueryEntry`]).
#[derive(Debug, Clone)]
pub struct SlowWriteEntry {
    /// Trace id of the write batch (0 when untraced, e.g. a single-op
    /// write).
    pub trace_id: u64,
    /// Shard written to.
    pub shard: u32,
    /// Ops submitted under the lock hold.
    pub ops: u32,
    /// The submission's engine-lock wait (ns); 0 when uncontended.
    pub lock_wait_ns: u64,
    /// Approximate translog bytes appended.
    pub translog_bytes: u64,
    /// Lock hold time (lock acquired → ops applied) in nanoseconds.
    pub total_ns: u64,
}

impl SlowQueryEntry {
    /// The entry as one JSON object; `trace` is the structured span
    /// list ([`trace_json`]).
    pub(crate) fn to_json(&self) -> Json {
        obj(vec![
            ("trace_id", self.trace_id.into()),
            ("sql", self.sql.as_str().into()),
            ("plan", self.plan.as_str().into()),
            ("fingerprint", format!("{:032x}", self.fingerprint).into()),
            ("tenant", self.tenant.into()),
            ("fanout", self.fanout.into()),
            ("total_ns", self.total_ns.into()),
            ("trace", trace_json(self.trace_id, &self.stages)),
        ])
    }
}

impl SlowWriteEntry {
    /// The entry as one JSON object.
    pub(crate) fn to_json(&self) -> Json {
        obj(vec![
            ("trace_id", self.trace_id.into()),
            ("shard", self.shard.into()),
            ("ops", self.ops.into()),
            ("lock_wait_ns", self.lock_wait_ns.into()),
            ("translog_bytes", self.translog_bytes.into()),
            ("total_ns", self.total_ns.into()),
        ])
    }
}

/// A bounded ring, newest last: one holds the slow queries, one the
/// slow writes.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    capacity: usize,
    ring: Mutex<VecDeque<T>>,
}

impl<T: Clone> Ring<T> {
    /// A ring holding at most `capacity` entries (0 drops everything).
    pub(crate) fn new(capacity: usize) -> Self {
        Ring {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
        }
    }

    /// Appends an entry, evicting the oldest when full.
    pub(crate) fn push(&self, entry: T) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock().expect("slow-log ring");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Copies out the current entries, oldest first.
    pub(crate) fn entries(&self) -> Vec<T> {
        self.ring
            .lock()
            .expect("slow-log ring")
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Telemetry, TelemetryConfig};

    fn entry(sql: &str) -> SlowQueryEntry {
        SlowQueryEntry {
            trace_id: 11,
            sql: sql.into(),
            plan: "All".into(),
            fingerprint: 7,
            tenant: Some(1),
            fanout: 4,
            total_ns: 1_000_000,
            stages: Vec::new(),
        }
    }

    fn write_entry(shard: u32) -> SlowWriteEntry {
        SlowWriteEntry {
            trace_id: 0,
            shard,
            ops: 12,
            lock_wait_ns: 4_000,
            translog_bytes: 1_024,
            total_ns: 2_000_000,
        }
    }

    fn telemetry(slow_log_capacity: usize) -> Telemetry {
        Telemetry::new(TelemetryConfig {
            slow_log_capacity,
            ..TelemetryConfig::default()
        })
    }

    #[test]
    fn ring_evicts_oldest() {
        let t = telemetry(2);
        t.log_slow(entry("a"));
        t.log_slow(entry("b"));
        t.log_slow(entry("c"));
        let sqls: Vec<String> = t.slow_queries().into_iter().map(|e| e.sql).collect();
        assert_eq!(sqls, ["b", "c"]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let t = telemetry(0);
        t.log_slow(entry("a"));
        t.log_slow_write(write_entry(0));
        assert!(t.slow_queries().is_empty());
        assert!(t.slow_writes().is_empty());
    }

    #[test]
    fn write_log_mirrors_query_log_semantics() {
        let t = telemetry(2);
        assert!(t.slow_writes().is_empty());
        t.log_slow_write(write_entry(0));
        t.log_slow_write(write_entry(1));
        t.log_slow_write(write_entry(2));
        let entries = t.slow_writes();
        assert_eq!(
            entries.iter().map(|e| e.shard).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(entries[0].lock_wait_ns, 4_000);
        assert_eq!(entries[0].translog_bytes, 1_024);
        assert!(t.slow_queries().is_empty(), "the two logs are separate");
    }
}
