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

use crate::span::StageSample;
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

/// Shared bounded-ring machinery for both logs.
#[derive(Debug)]
struct Ring<T> {
    capacity: usize,
    ring: Mutex<VecDeque<T>>,
}

impl<T: Clone> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
        }
    }

    fn push(&self, entry: T) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock().expect("slow-log ring");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    fn entries(&self) -> Vec<T> {
        self.ring
            .lock()
            .expect("slow-log ring")
            .iter()
            .cloned()
            .collect()
    }

    /// Length and entries copied under a single lock hold.
    fn snapshot(&self) -> (usize, Vec<T>) {
        let ring = self.ring.lock().expect("slow-log ring");
        (ring.len(), ring.iter().cloned().collect())
    }
}

/// Bounded ring of [`SlowQueryEntry`]s, newest last.
#[derive(Debug)]
pub(crate) struct SlowQueryLog {
    ring: Ring<SlowQueryEntry>,
}

impl SlowQueryLog {
    /// Ring holding at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        SlowQueryLog {
            ring: Ring::new(capacity),
        }
    }

    /// Appends an entry, evicting the oldest when full.
    pub(crate) fn push(&self, entry: SlowQueryEntry) {
        self.ring.push(entry);
    }

    /// Copies out the current entries, oldest first.
    pub(crate) fn entries(&self) -> Vec<SlowQueryEntry> {
        self.ring.entries()
    }

    /// Length and entries under **one** lock hold, so the pair can't
    /// tear across a concurrent push.
    pub(crate) fn snapshot(&self) -> (usize, Vec<SlowQueryEntry>) {
        self.ring.snapshot()
    }
}

/// Bounded ring of [`SlowWriteEntry`]s, newest last.
#[derive(Debug)]
pub(crate) struct SlowWriteLog {
    ring: Ring<SlowWriteEntry>,
}

impl SlowWriteLog {
    /// Ring holding at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        SlowWriteLog {
            ring: Ring::new(capacity),
        }
    }

    /// Appends an entry, evicting the oldest when full.
    pub(crate) fn push(&self, entry: SlowWriteEntry) {
        self.ring.push(entry);
    }

    /// Copies out the current entries, oldest first.
    pub(crate) fn entries(&self) -> Vec<SlowWriteEntry> {
        self.ring.entries()
    }

    /// Length and entries under one lock hold.
    pub(crate) fn snapshot(&self) -> (usize, Vec<SlowWriteEntry>) {
        self.ring.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn ring_evicts_oldest() {
        let log = SlowQueryLog::new(2);
        log.push(entry("a"));
        log.push(entry("b"));
        log.push(entry("c"));
        let sqls: Vec<String> = log.entries().into_iter().map(|e| e.sql).collect();
        assert_eq!(sqls, ["b", "c"]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let log = SlowQueryLog::new(0);
        log.push(entry("a"));
        assert!(log.entries().is_empty());
    }

    #[test]
    fn snapshot_is_len_plus_entries_atomically() {
        let log = SlowQueryLog::new(4);
        log.push(entry("a"));
        log.push(entry("b"));
        let (len, entries) = log.snapshot();
        assert_eq!(len, 2);
        assert_eq!(entries.len(), len);
        assert_eq!(entries[0].sql, "a");
    }

    #[test]
    fn write_log_mirrors_query_log_semantics() {
        let log = SlowWriteLog::new(2);
        assert!(log.entries().is_empty());
        log.push(write_entry(0));
        log.push(write_entry(1));
        log.push(write_entry(2));
        let (len, entries) = log.snapshot();
        assert_eq!(len, 2);
        assert_eq!(
            entries.iter().map(|e| e.shard).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(entries[0].lock_wait_ns, 4_000);
        assert_eq!(entries[0].translog_bytes, 1_024);
    }
}
