//! The one-call postmortem artifact: a [`DebugBundle`] serializes the
//! metrics snapshot, the journal tail, both slow-path logs, the engine
//! configuration and the rule-list state into a single JSON document.
//!
//! The rendering is fully deterministic for deterministic inputs (the
//! chaos failover bench gates byte-identical bundles across same-seed
//! reruns of the simulated cluster). The telemetry crate is a leaf, so
//! config and rule-list state arrive pre-rendered as JSON fragments from
//! the owning layer (`Esdb::debug_bundle()` / the cluster sim).

use crate::expo::TelemetrySnapshot;
use crate::journal::{events_to_json, Event};
use crate::slowlog::{SlowQueryEntry, SlowWriteEntry};
use crate::telemetry::Telemetry;
use crate::trace_export::trace_json;
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json_escape_into(&mut out, s);
    out
}

/// Appends `s` escaped for a JSON string literal to `out`, copying runs
/// that need no escape in one piece and allocating nothing else.
/// Inlined: the wire writer calls it for every string of every row.
#[inline]
pub fn json_escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        return;
    }
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// Everything a postmortem needs, in one serializable place.
#[derive(Debug, Clone, Default)]
pub struct DebugBundle {
    /// Configuration as `(key, raw JSON value)` pairs, rendered by the
    /// owning layer in a fixed order.
    pub config: Vec<(String, String)>,
    /// Rule-list state as a raw JSON fragment (`"null"` when absent).
    pub rules: String,
    /// Live-migration state as a raw JSON fragment (`"null"` when
    /// absent): tenant, old/new span, phase, progress per migration.
    pub migrations: String,
    /// Point-in-time metrics snapshot.
    pub metrics: TelemetrySnapshot,
    /// Journal tail, oldest first.
    pub journal: Vec<Event>,
    /// Journal eviction watermark at capture time.
    pub journal_evicted_max: u64,
    /// Slow-query log contents.
    pub slow_queries: Vec<SlowQueryEntry>,
    /// Slow-write log contents.
    pub slow_writes: Vec<SlowWriteEntry>,
}

impl DebugBundle {
    /// Captures the telemetry-owned parts (metrics, journal tail, slow
    /// logs); the caller fills `config` and `rules`.
    pub fn from_telemetry(telemetry: &Telemetry, journal_tail: usize) -> Self {
        DebugBundle {
            config: Vec::new(),
            rules: "null".to_string(),
            migrations: "null".to_string(),
            metrics: telemetry.snapshot(),
            journal: telemetry.journal().tail(journal_tail),
            journal_evicted_max: telemetry.journal().evicted_max(),
            slow_queries: telemetry.slow_queries(),
            slow_writes: telemetry.slow_writes(),
        }
    }

    /// Renders the bundle as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(8 * 1024);
        out.push_str("{\n  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(k), v));
        }
        out.push_str("\n  },\n  \"rules\": ");
        out.push_str(if self.rules.is_empty() {
            "null"
        } else {
            &self.rules
        });
        out.push_str(",\n  \"migrations\": ");
        out.push_str(if self.migrations.is_empty() {
            "null"
        } else {
            &self.migrations
        });
        out.push_str(",\n  \"journal\": {\"evicted_max\": ");
        out.push_str(&self.journal_evicted_max.to_string());
        out.push_str(", \"events\": ");
        out.push_str(&events_to_json(&self.journal));
        out.push_str("},\n  \"slow_queries\": [");
        for (i, e) in self.slow_queries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"trace_id\": {}, \"sql\": \"{}\", \"plan\": \"{}\", \
                 \"fingerprint\": \"{:032x}\", \"tenant\": {}, \"fanout\": {}, \
                 \"total_ns\": {}, \"trace\": {}}}",
                e.trace_id,
                json_escape(&e.sql),
                json_escape(&e.plan),
                e.fingerprint,
                e.tenant
                    .map_or_else(|| "null".to_string(), |t| t.to_string()),
                e.fanout,
                e.total_ns,
                trace_json(e.trace_id, &e.stages)
            ));
        }
        out.push_str("\n  ],\n  \"slow_writes\": [");
        for (i, e) in self.slow_writes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"trace_id\": {}, \"shard\": {}, \"ops\": {}, \"lock_wait_ns\": {}, \
                 \"translog_bytes\": {}, \"total_ns\": {}}}",
                e.trace_id, e.shard, e.ops, e.lock_wait_ns, e.translog_bytes, e.total_ns
            ));
        }
        out.push_str("\n  ],\n  \"metrics\": ");
        out.push_str(&self.metrics.to_json());
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::EventKind;
    use crate::registry::Labels;
    use crate::telemetry::TelemetryConfig;

    #[test]
    fn bundle_renders_all_sections() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.registry()
            .counter("esdb_writes_total", Labels::none())
            .add(3);
        t.journal()
            .emit(EventKind::NodeCrashed { node: 1 }, Labels::node(1), 0);
        t.log_slow(SlowQueryEntry {
            trace_id: 5,
            sql: "SELECT \"x\"".into(),
            plan: "All".into(),
            fingerprint: 0xabc,
            tenant: None,
            fanout: 2,
            total_ns: 99,
            stages: Vec::new(),
        });
        t.log_slow_write(SlowWriteEntry {
            trace_id: 0,
            shard: 3,
            ops: 5,
            lock_wait_ns: 10,
            translog_bytes: 512,
            total_ns: 88,
        });
        let mut bundle = DebugBundle::from_telemetry(&t, 64);
        bundle.config.push(("shards".to_string(), "8".to_string()));
        bundle.rules = "[{\"tenant\": 1, \"offset\": 4}]".to_string();
        bundle.migrations = "[{\"tenant\": 1, \"phase\": \"cutover\"}]".to_string();
        let json = bundle.to_json();
        for section in [
            "\"config\"",
            "\"shards\": 8",
            "\"rules\"",
            "\"migrations\"",
            "\"phase\": \"cutover\"",
            "\"journal\"",
            "\"node_crashed\"",
            "\"slow_queries\"",
            "SELECT \\\"x\\\"",
            "\"slow_writes\"",
            "\"translog_bytes\": 512",
            "\"metrics\"",
            "esdb_writes_total",
        ] {
            assert!(json.contains(section), "missing {section} in:\n{json}");
        }
    }

    #[test]
    fn same_state_renders_byte_identically() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.journal().emit(
            EventKind::CacheSweep {
                evicted: 2,
                entries: 8,
            },
            Labels::none(),
            0,
        );
        let a = DebugBundle::from_telemetry(&t, 16).to_json();
        let b = DebugBundle::from_telemetry(&t, 16).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn escaping_handles_control_and_quote_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("é\u{1f}\"x\u{7f}"), "é\\u001f\\\"x\u{7f}");
        let mut out = String::from("[");
        json_escape_into(&mut out, "\t\r");
        assert_eq!(out, "[\\t\\r");
    }
}
