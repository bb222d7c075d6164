//! Lightweight tracing spans: RAII-timed stages with explicit parent
//! IDs, no async runtime, `Sync` so per-shard worker threads can record
//! into the same trace during scatter-gather.
//!
//! A [`QueryTrace`] is created per traced request (query or write
//! batch) and carries a **process-unique trace id** so a slow-log
//! entry, a Chrome-trace export and a journal line can all be joined on
//! one number. Stages open a [`Span`] with `trace.span(stage, parent)`;
//! the span records its duration into the trace when dropped (or
//! explicitly via [`Span::finish`]). Span IDs are small integers unique
//! within the trace; `parent == 0` marks root spans. Every sample also
//! records its **start offset** from the trace origin, so exporters
//! ([`crate::trace_export`]) can lay spans on a real timeline instead of
//! only knowing durations. After the request completes, the collected
//! [`StageSample`]s are fed into the metrics registry (per-stage
//! histograms) and/or attached to a slow-query log entry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Process-wide trace-id allocator (ids start at 1).
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSample {
    /// Stage name from the span taxonomy (e.g. `"execute"`).
    pub stage: &'static str,
    /// Span ID, unique within the trace (never 0).
    pub id: u64,
    /// Parent span ID (0 for roots).
    pub parent: u64,
    /// Shard the stage ran against, when per-shard.
    pub shard: Option<u32>,
    /// Start offset from the trace origin in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

/// Per-request span collector. Cheap to create; shareable across the
/// scoped threads of a scatter-gather fan-out.
#[derive(Debug)]
pub struct QueryTrace {
    trace_id: u64,
    origin: Instant,
    next_id: AtomicU64,
    samples: Mutex<Vec<StageSample>>,
}

impl Default for QueryTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryTrace {
    /// Empty trace with a fresh process-unique id.
    pub fn new() -> Self {
        QueryTrace {
            trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            // A scatter-gather over 8 shards records ~3 samples per
            // shard plus the root stages; start big enough that the
            // common case never reallocates under the lock.
            samples: Mutex::new(Vec::with_capacity(32)),
        }
    }

    /// The process-unique trace id.
    #[inline]
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Nanoseconds elapsed since the trace origin. Public so hot paths
    /// can time several stages off one clock read via
    /// `QueryTrace::record_span`.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Converts an already-read [`Instant`] into a trace-origin offset
    /// without touching the clock. Hot paths that time themselves for
    /// other reasons (per-shard busy accounting) reuse those reads for
    /// span boundaries — on hosts where `clock_gettime` costs tens of
    /// nanoseconds this is what keeps tail capture inside its overhead
    /// budget. Saturates to zero for instants before the origin.
    #[inline]
    pub fn offset_of(&self, at: Instant) -> u64 {
        at.duration_since(self.origin)
            .as_nanos()
            .min(u64::MAX as u128) as u64
    }

    /// Opens a span for `stage` under `parent` (0 = root). Timing starts
    /// now and ends when the span is dropped or finished.
    pub fn span(&self, stage: &'static str, parent: u64) -> Span<'_> {
        self.span_for_shard(stage, parent, None)
    }

    /// [`QueryTrace::span`] with a shard label attached.
    pub fn span_for_shard(&self, stage: &'static str, parent: u64, shard: Option<u32>) -> Span<'_> {
        Span {
            trace: self,
            stage,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            shard,
            start_ns: self.now_ns(),
        }
    }

    /// Records an externally-timed sample (used when a duration is
    /// measured without holding a `Span`, e.g. satellite-path timings).
    /// The start offset is derived as "now minus duration".
    pub fn record(&self, stage: &'static str, parent: u64, shard: Option<u32>, dur_ns: u64) {
        let start_ns = self.now_ns().saturating_sub(dur_ns);
        self.record_span(stage, parent, shard, start_ns, dur_ns);
    }

    /// Records a sample from trace-origin offsets with **no clock
    /// read** — the caller times one or more stages off a shared
    /// [`QueryTrace::now_ns`] pair. This keeps tail-based capture cheap
    /// enough to run on every request.
    pub(crate) fn record_span(
        &self,
        stage: &'static str,
        parent: u64,
        shard: Option<u32>,
        start_ns: u64,
        dur_ns: u64,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.samples
            .lock()
            .expect("trace samples")
            .push(StageSample {
                stage,
                id,
                parent,
                shard,
                start_ns,
                dur_ns,
            });
    }

    /// Records several externally-timed samples with one id allocation
    /// and one lock acquisition. The per-shard hot path batches its
    /// probe/prune/execute samples through here so tail-based capture
    /// pays one mutex round-trip per shard, not one per stage. Each
    /// entry is `(stage, parent, shard, start_ns, dur_ns)` in
    /// trace-origin offsets.
    pub fn record_span_batch(&self, spans: &[(&'static str, u64, Option<u32>, u64, u64)]) {
        if spans.is_empty() {
            return;
        }
        let first = self
            .next_id
            .fetch_add(spans.len() as u64, Ordering::Relaxed);
        let mut samples = self.samples.lock().expect("trace samples");
        for (i, &(stage, parent, shard, start_ns, dur_ns)) in spans.iter().enumerate() {
            samples.push(StageSample {
                stage,
                id: first + i as u64,
                parent,
                shard,
                start_ns,
                dur_ns,
            });
        }
    }

    /// Consumes the trace, returning samples ordered by completion time.
    pub fn into_samples(self) -> Vec<StageSample> {
        self.samples.into_inner().expect("trace samples")
    }
}

/// An open span; records its duration into the owning trace on drop.
#[derive(Debug)]
pub struct Span<'a> {
    trace: &'a QueryTrace,
    stage: &'static str,
    id: u64,
    parent: u64,
    shard: Option<u32>,
    start_ns: u64,
}

impl Span<'_> {
    /// This span's ID, for use as a child's `parent`.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        // One clock read, shared with the start offset's origin; span
        // open + close is two reads total, not three.
        let dur_ns = self.trace.now_ns().saturating_sub(self.start_ns);
        self.trace
            .samples
            .lock()
            .expect("trace samples")
            .push(StageSample {
                stage: self.stage,
                id: self.id,
                parent: self.parent,
                shard: self.shard,
                start_ns: self.start_ns,
                dur_ns,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_explicit_parent() {
        let trace = QueryTrace::new();
        let root = trace.span("query", 0);
        let root_id = root.id();
        {
            let child = trace.span("route", root_id);
            assert_ne!(child.id(), root_id);
        }
        root.finish();
        let samples = trace.into_samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].stage, "route");
        assert_eq!(samples[0].parent, root_id);
        assert_eq!(samples[1].stage, "query");
        assert_eq!(samples[1].parent, 0);
        // The child started at or after the root.
        assert!(samples[0].start_ns >= samples[1].start_ns);
    }

    #[test]
    fn trace_ids_are_process_unique() {
        let a = QueryTrace::new();
        let b = QueryTrace::new();
        assert_ne!(a.trace_id(), b.trace_id());
        assert_ne!(a.trace_id(), 0);
    }

    #[test]
    fn trace_is_shareable_across_threads() {
        let trace = QueryTrace::new();
        std::thread::scope(|s| {
            for shard in 0..4u32 {
                let t = &trace;
                s.spawn(move || {
                    let _span = t.span_for_shard("execute", 0, Some(shard));
                });
            }
        });
        let samples = trace.into_samples();
        assert_eq!(samples.len(), 4);
        let mut ids: Vec<u64> = samples.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "span ids unique within a trace");
    }

    #[test]
    fn external_samples_record() {
        let trace = QueryTrace::new();
        trace.record("translog_append", 0, Some(3), 12_345);
        let s = trace.into_samples();
        assert_eq!(s[0].shard, Some(3));
        assert_eq!(s[0].dur_ns, 12_345);
    }
}
