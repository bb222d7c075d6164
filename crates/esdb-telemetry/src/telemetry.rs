//! The `Telemetry` facade the rest of the stack threads around: one
//! shared registry, the event journal, the slow-query and slow-write
//! logs, and the trace-sampling/tail-capture decisions.

use crate::expo::TelemetrySnapshot;
use crate::journal::{EventKind, Journal};
use crate::registry::{Labels, MetricsRegistry};
use crate::slowlog::{Ring, SlowQueryEntry, SlowWriteEntry};
use crate::span::StageSample;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Telemetry knobs (the `EsdbConfig.telemetry` field).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Master switch. Off = no spans, no per-stage histograms, no slow
    /// logs, no journal, zero extra clock reads on the hot paths.
    pub enabled: bool,
    /// Feed per-stage histograms from 1 in N requests (total-latency
    /// histograms and slow-path *detection* are always on when
    /// `enabled`). 1 samples everything; 0 disables histogram feeding.
    pub trace_sample_every: u64,
    /// Queries slower than this land in the slow-query log.
    pub slow_query_threshold_us: u64,
    /// Write submissions that hold a shard's engine lock longer than
    /// this land in the slow-write log.
    pub slow_write_threshold_us: u64,
    /// Slow-query / slow-write ring capacity (each).
    pub slow_log_capacity: usize,
    /// Tail-based capture: when on, *every* request buffers its span
    /// tree cheaply and promotes it into the slow log on crossing the
    /// threshold — slow requests always carry full traces even when not
    /// head-sampled. When off, unsampled slow queries log `stages: []`
    /// (the pre-flight-recorder behavior).
    pub tail_capture: bool,
    /// Event-journal retention (events). 0 disables the journal.
    pub journal_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            trace_sample_every: 8,
            slow_query_threshold_us: 50_000,
            slow_write_threshold_us: 50_000,
            slow_log_capacity: 128,
            tail_capture: true,
            journal_capacity: 1_024,
        }
    }
}

impl TelemetryConfig {
    /// Everything off.
    pub(crate) fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            ..TelemetryConfig::default()
        }
    }
}

/// Shared telemetry state. Cheap to clone the `Arc` into every layer.
#[derive(Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    registry: Arc<MetricsRegistry>,
    slow_queries: Ring<SlowQueryEntry>,
    slow_writes: Ring<SlowWriteEntry>,
    journal: Arc<Journal>,
    trace_tick: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new(TelemetryConfig::default())
    }
}

impl Telemetry {
    /// Telemetry with a fresh registry.
    pub fn new(config: TelemetryConfig) -> Self {
        Self::with_registry(config, Arc::new(MetricsRegistry::new()))
    }

    /// Telemetry over an existing registry (so e.g. the workload monitor
    /// and the query path share one).
    pub(crate) fn with_registry(config: TelemetryConfig, registry: Arc<MetricsRegistry>) -> Self {
        let cap = if config.enabled {
            config.slow_log_capacity
        } else {
            0
        };
        let journal = Arc::new(Journal::new(if config.enabled {
            config.journal_capacity
        } else {
            0
        }));
        Telemetry {
            config,
            registry,
            slow_queries: Ring::new(cap),
            slow_writes: Ring::new(cap),
            journal,
            trace_tick: AtomicU64::new(0),
        }
    }

    /// A disabled facade (every probe is a single branch).
    pub fn disabled() -> Self {
        Self::new(TelemetryConfig::disabled())
    }

    /// Whether telemetry is on at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The shared registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The event journal.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// Emits a journal event; returns its sequence number (0 when the
    /// journal is disabled).
    #[inline]
    pub fn emit(&self, kind: EventKind, labels: Labels, parent_seq: u64) -> u64 {
        self.journal.emit(kind, labels, parent_seq)
    }

    /// Whether the *next* request's stage samples should feed the
    /// per-stage histograms (1-in-N sampling; the counter is shared
    /// across threads).
    #[inline]
    pub fn should_trace(&self) -> bool {
        if !self.config.enabled || self.config.trace_sample_every == 0 {
            return false;
        }
        let n = self.config.trace_sample_every;
        n == 1 || self.trace_tick.fetch_add(1, Ordering::Relaxed) % n == 0
    }

    /// Whether a request should buffer a span tree at all: head-sampled
    /// requests feed histograms, and under tail capture *every* request
    /// buffers so slow ones keep their trace. Returns
    /// `(capture, sampled)`.
    #[inline]
    pub fn trace_decision(&self) -> (bool, bool) {
        let sampled = self.should_trace();
        let capture = sampled || (self.config.enabled && self.config.tail_capture);
        (capture, sampled)
    }

    /// Slow-query threshold in nanoseconds.
    #[inline]
    pub fn slow_threshold_ns(&self) -> u64 {
        self.config.slow_query_threshold_us.saturating_mul(1_000)
    }

    /// Slow-write threshold in nanoseconds.
    #[inline]
    pub fn slow_write_threshold_ns(&self) -> u64 {
        self.config.slow_write_threshold_us.saturating_mul(1_000)
    }

    /// Records a finished request's stage samples into per-stage
    /// histograms under `name{stage,shard}`.
    pub fn record_stages(&self, name: &'static str, samples: &[StageSample]) {
        for s in samples {
            let mut labels = Labels::stage(s.stage);
            labels.shard = s.shard;
            self.registry.observe(name, labels, s.dur_ns);
        }
    }

    /// Appends a slow-query entry.
    pub fn log_slow(&self, entry: SlowQueryEntry) {
        self.slow_queries.push(entry);
    }

    /// Appends a slow-write entry.
    pub fn log_slow_write(&self, entry: SlowWriteEntry) {
        self.slow_writes.push(entry);
    }

    /// Current slow-query log contents, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQueryEntry> {
        self.slow_queries.entries()
    }

    /// Current slow-write log contents, oldest first.
    pub fn slow_writes(&self) -> Vec<SlowWriteEntry> {
        self.slow_writes.entries()
    }

    /// Point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::from_registry(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_rate_is_one_in_n() {
        let t = Telemetry::new(TelemetryConfig {
            trace_sample_every: 4,
            ..TelemetryConfig::default()
        });
        let traced = (0..100).filter(|_| t.should_trace()).count();
        assert_eq!(traced, 25);
    }

    #[test]
    fn tail_capture_buffers_even_unsampled_requests() {
        let t = Telemetry::new(TelemetryConfig {
            trace_sample_every: 1_000_000,
            tail_capture: true,
            ..TelemetryConfig::default()
        });
        let (capture0, sampled0) = t.trace_decision();
        assert!(capture0 && sampled0, "first request head-samples");
        let (capture1, sampled1) = t.trace_decision();
        assert!(capture1, "tail capture buffers unsampled requests");
        assert!(!sampled1);
        let off = Telemetry::new(TelemetryConfig {
            trace_sample_every: 1_000_000,
            tail_capture: false,
            ..TelemetryConfig::default()
        });
        off.trace_decision();
        let (capture, _) = off.trace_decision();
        assert!(
            !capture,
            "without tail capture unsampled requests skip spans"
        );
    }

    #[test]
    fn disabled_never_traces_logs_or_journals() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        assert!(!t.should_trace());
        assert_eq!(t.trace_decision(), (false, false));
        t.log_slow(SlowQueryEntry {
            trace_id: 0,
            sql: "SELECT 1".into(),
            plan: String::new(),
            fingerprint: 0,
            tenant: None,
            fanout: 0,
            total_ns: u64::MAX,
            stages: Vec::new(),
        });
        t.log_slow_write(SlowWriteEntry {
            trace_id: 0,
            shard: 0,
            ops: 1,
            lock_wait_ns: 0,
            translog_bytes: 0,
            total_ns: u64::MAX,
        });
        assert!(t.slow_queries().is_empty());
        assert!(t.slow_writes().is_empty());
        assert_eq!(
            t.emit(EventKind::NodeCrashed { node: 0 }, Labels::none(), 0),
            0
        );
        assert!(t.journal().snapshot().is_empty());
    }

    #[test]
    fn record_stages_feeds_registry() {
        let t = Telemetry::default();
        t.record_stages(
            "esdb_query_stage_ns",
            &[
                StageSample {
                    stage: "route",
                    id: 1,
                    parent: 0,
                    shard: None,
                    start_ns: 0,
                    dur_ns: 500,
                },
                StageSample {
                    stage: "execute",
                    id: 2,
                    parent: 1,
                    shard: Some(3),
                    start_ns: 600,
                    dur_ns: 9_000,
                },
            ],
        );
        let snap = t.snapshot();
        assert_eq!(snap.histograms.len(), 2);
        let exec = snap
            .histograms
            .iter()
            .find(|(_, l, _)| l.stage == Some("execute"))
            .expect("execute series");
        assert_eq!(exec.1.shard, Some(3));
        assert_eq!(exec.2.count(), 1);
    }

    #[test]
    fn slow_logs_read_through_the_facade() {
        let t = Telemetry::default();
        t.log_slow_write(SlowWriteEntry {
            trace_id: 0,
            shard: 2,
            ops: 9,
            lock_wait_ns: 100,
            translog_bytes: 640,
            total_ns: 1,
        });
        assert!(t.slow_queries().is_empty());
        let writes = t.slow_writes();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].shard, 2);
    }
}
