//! The one-call postmortem artifact: a [`DebugBundle`] holds the
//! metrics snapshot, the journal tail, both slow-path logs, the engine
//! configuration and the rule-list state, and renders them as a single
//! JSON document.
//!
//! The rendering is fully deterministic for deterministic inputs (the
//! chaos failover bench gates byte-identical bundles across same-seed
//! reruns of the simulated cluster). The telemetry crate is a leaf, so
//! config and rule-list state arrive as [`Json`] values built by the
//! owning layer (`Esdb::debug_bundle()` / the cluster sim).

use crate::expo::TelemetrySnapshot;
use crate::journal::Event;
use crate::json::{obj, Json};
use crate::slowlog::{SlowQueryEntry, SlowWriteEntry};
use crate::telemetry::Telemetry;

/// Everything a postmortem needs, in one serializable place.
#[derive(Debug, Clone)]
pub struct DebugBundle {
    /// Configuration as `(key, value)` pairs, in the owning layer's
    /// fixed order.
    pub config: Vec<(String, Json)>,
    /// Rule-list state ([`Json::Null`] when absent).
    pub rules: Json,
    /// Live-migration state ([`Json::Null`] when absent): tenant,
    /// old/new span, phase, progress per migration.
    pub migrations: Json,
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
    /// Captures the telemetry-owned parts (journal tail, slow logs)
    /// around `metrics`, the caller's snapshot; the caller fills
    /// `config`, `rules` and `migrations`.
    pub fn from_telemetry(
        telemetry: &Telemetry,
        metrics: TelemetrySnapshot,
        journal_tail: usize,
    ) -> Self {
        DebugBundle {
            config: Vec::new(),
            rules: Json::Null,
            migrations: Json::Null,
            metrics,
            journal: telemetry.journal().tail(journal_tail),
            journal_evicted_max: telemetry.journal().evicted_max(),
            slow_queries: telemetry.slow_queries(),
            slow_writes: telemetry.slow_writes(),
        }
    }

    /// The bundle as one JSON document.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("config", Json::Obj(self.config.clone())),
            ("rules", self.rules.clone()),
            ("migrations", self.migrations.clone()),
            (
                "journal",
                obj(vec![
                    ("evicted_max", self.journal_evicted_max.into()),
                    ("events", self.journal.iter().map(Event::to_json).collect()),
                ]),
            ),
            (
                "slow_queries",
                self.slow_queries
                    .iter()
                    .map(SlowQueryEntry::to_json)
                    .collect(),
            ),
            (
                "slow_writes",
                self.slow_writes
                    .iter()
                    .map(SlowWriteEntry::to_json)
                    .collect(),
            ),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::EventKind;
    use crate::json::parse;
    use crate::registry::Labels;
    use crate::telemetry::TelemetryConfig;

    fn slow_query(sql: &str) -> SlowQueryEntry {
        SlowQueryEntry {
            trace_id: 5,
            sql: sql.into(),
            plan: "All".into(),
            fingerprint: 0xabc,
            tenant: None,
            fanout: 2,
            total_ns: 99,
            stages: Vec::new(),
        }
    }

    fn bundle(t: &Telemetry) -> DebugBundle {
        DebugBundle::from_telemetry(t, t.snapshot(), 64)
    }

    #[test]
    fn bundle_renders_all_sections() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.registry()
            .counter("esdb_writes_total", Labels::none())
            .add(3);
        t.journal()
            .emit(EventKind::NodeCrashed { node: 1 }, Labels::node(1), 0);
        t.log_slow(slow_query("SELECT \"x\""));
        t.log_slow_write(SlowWriteEntry {
            trace_id: 0,
            shard: 3,
            ops: 5,
            lock_wait_ns: 10,
            translog_bytes: 512,
            total_ns: 88,
        });
        let mut bundle = bundle(&t);
        bundle.config.push(("shards".to_string(), 8u64.into()));
        bundle.rules = parse(r#"[{"tenant": 1, "offset": 4}]"#).unwrap();
        bundle.migrations = parse(r#"[{"tenant": 1, "phase": "cutover"}]"#).unwrap();
        let doc = parse(&bundle.to_json().to_text()).expect("bundle parses");
        let at = |path: &[&str]| {
            path.iter()
                .try_fold(&doc, |v, k| v.get(k))
                .unwrap_or_else(|| panic!("missing {path:?}"))
        };
        let first = |path: &[&str]| at(path).as_arr().and_then(|a| a.first()).unwrap();
        assert_eq!(at(&["config", "shards"]).as_u64(), Some(8));
        assert_eq!(first(&["rules"]).get("offset"), Some(&Json::UInt(4)));
        assert_eq!(
            first(&["migrations"]).get("phase").and_then(Json::as_str),
            Some("cutover")
        );
        assert_eq!(
            first(&["journal", "events"])
                .get("kind")
                .and_then(Json::as_str),
            Some("node_crashed")
        );
        assert_eq!(
            first(&["slow_queries"]).get("sql").and_then(Json::as_str),
            Some("SELECT \"x\"")
        );
        assert_eq!(
            first(&["slow_writes"]).get("translog_bytes"),
            Some(&Json::UInt(512))
        );
        assert_eq!(
            first(&["metrics", "counters"])
                .get("name")
                .and_then(Json::as_str),
            Some("esdb_writes_total")
        );
    }

    #[test]
    fn slow_query_sql_round_trips_through_the_bundle() {
        let sql = "SELECT \"a\\b\" FROM t WHERE s = '\u{1}\t\u{7f}' -- é 😀";
        let t = Telemetry::default();
        t.log_slow(slow_query(sql));
        let doc = parse(&bundle(&t).to_json().to_text()).expect("bundle parses");
        let entry = &doc.get("slow_queries").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(entry.get("sql").and_then(Json::as_str), Some(sql));
        assert_eq!(
            entry.get("fingerprint").and_then(Json::as_str),
            Some("00000000000000000000000000000abc")
        );
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
        let a = bundle(&t).to_json().to_text();
        let b = bundle(&t).to_json().to_text();
        assert_eq!(a, b);
    }
}
