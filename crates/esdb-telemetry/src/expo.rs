//! Exposition: Prometheus text format and a JSON snapshot, plus a
//! format lint used by CI.
//!
//! Both formats render the same [`TelemetrySnapshot`], so histogram
//! counts round-trip bit-exactly between them (the bench harness and
//! integration tests check this via [`prometheus_histogram_counts`] /
//! [`json_histogram_counts`]). Output is deterministic: series are
//! sorted by `(name, labels)`.

use crate::histogram::HistogramSnapshot;
use crate::json::{self, obj, Json};
use crate::registry::{Labels, Metric, MetricsRegistry};

/// Quantiles every histogram reports.
const QUANTILES: [(&str, f64); 4] = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// A point-in-time copy of every registered series.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Counters: `(name, labels, value)`, sorted.
    pub counters: Vec<(String, Labels, u64)>,
    /// Gauges: `(name, labels, value)`, sorted.
    pub gauges: Vec<(String, Labels, i64)>,
    /// Histograms: `(name, labels, snapshot)`, sorted.
    pub histograms: Vec<(String, Labels, HistogramSnapshot)>,
}

impl TelemetrySnapshot {
    /// Snapshots a registry.
    pub(crate) fn from_registry(registry: &MetricsRegistry) -> Self {
        let mut snap = TelemetrySnapshot::default();
        for (name, labels, metric) in registry.series() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.to_string(), labels, c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.to_string(), labels, g.get())),
                Metric::Histogram(h) => {
                    snap.histograms
                        .push((name.to_string(), labels, h.snapshot()))
                }
            }
        }
        snap
    }

    /// Renders the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        fn type_line(out: &mut String, name: &str, kind: &str) {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
        }
        let mut prev: Option<String> = None;
        for (name, labels, value) in &self.counters {
            if prev.as_deref() != Some(name) {
                type_line(&mut out, name, "counter");
                prev = Some(name.clone());
            }
            out.push_str(name);
            out.push_str(&render_labels(labels, None));
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        prev = None;
        for (name, labels, value) in &self.gauges {
            if prev.as_deref() != Some(name) {
                type_line(&mut out, name, "gauge");
                prev = Some(name.clone());
            }
            out.push_str(name);
            out.push_str(&render_labels(labels, None));
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        prev = None;
        for (name, labels, h) in &self.histograms {
            if prev.as_deref() != Some(name) {
                type_line(&mut out, name, "histogram");
                prev = Some(name.clone());
            }
            let mut cumulative = 0u64;
            for (upper, count) in h.buckets() {
                cumulative += count;
                out.push_str(name);
                out.push_str("_bucket");
                out.push_str(&render_labels(labels, Some(&upper.to_string())));
                out.push(' ');
                out.push_str(&cumulative.to_string());
                out.push('\n');
            }
            out.push_str(name);
            out.push_str("_bucket");
            out.push_str(&render_labels(labels, Some("+Inf")));
            out.push(' ');
            out.push_str(&h.count().to_string());
            out.push('\n');
            out.push_str(name);
            out.push_str("_sum");
            out.push_str(&render_labels(labels, None));
            out.push(' ');
            out.push_str(&h.sum().to_string());
            out.push('\n');
            out.push_str(name);
            out.push_str("_count");
            out.push_str(&render_labels(labels, None));
            out.push(' ');
            out.push_str(&h.count().to_string());
            out.push('\n');
        }
        out
    }

    /// The JSON snapshot: `counters`, `gauges` and `histograms`, each
    /// an array of `{name, labels, ...}` objects in series order.
    pub fn to_json(&self) -> Json {
        fn series(name: &str, labels: &Labels, rest: Vec<(&str, Json)>) -> Json {
            let mut members = vec![("name", name.into()), ("labels", labels.to_json())];
            members.extend(rest);
            obj(members)
        }
        let counters = self
            .counters
            .iter()
            .map(|(name, labels, v)| series(name, labels, vec![("value", (*v).into())]));
        let gauges = self
            .gauges
            .iter()
            .map(|(name, labels, v)| series(name, labels, vec![("value", (*v).into())]));
        let histograms = self.histograms.iter().map(|(name, labels, h)| {
            let mut rest = vec![
                ("count", h.count().into()),
                ("sum", u64::try_from(h.sum()).unwrap_or(u64::MAX).into()),
                ("max", h.max().into()),
                ("mean", h.mean().into()),
            ];
            rest.extend(QUANTILES.map(|(qname, q)| (qname, h.quantile(q).into())));
            let buckets = h
                .buckets()
                .map(|(upper, count)| Json::from_iter([upper, count]));
            rest.push(("buckets", buckets.collect()));
            series(name, labels, rest)
        });
        obj(vec![
            ("counters", counters.collect()),
            ("gauges", gauges.collect()),
            ("histograms", histograms.collect()),
        ])
    }
}

/// Renders `{tenant="..",shard="..",node="..",stage="..",le=".."}` (empty
/// string when no label is set and `le` is `None`).
fn render_labels(labels: &Labels, le: Option<&str>) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(t) = labels.tenant {
        parts.push(format!("tenant=\"{t}\""));
    }
    if let Some(s) = labels.shard {
        parts.push(format!("shard=\"{s}\""));
    }
    if let Some(n) = labels.node {
        parts.push(format!("node=\"{n}\""));
    }
    if let Some(st) = labels.stage {
        parts.push(format!("stage=\"{st}\""));
    }
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Lints Prometheus text output. Checks:
///
/// - metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`;
/// - no duplicate series (same name + same label set);
/// - per histogram series: `le` bounds strictly increasing, cumulative
///   bucket values non-decreasing, a terminal `+Inf` bucket equal to the
///   series' `_count`.
///
/// Returns the list of violations (empty = clean).
pub fn lint_prometheus(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let mut seen_series = std::collections::HashSet::new();
    /// Per-histogram lint state.
    #[derive(Default)]
    struct HistState {
        last_le: Option<f64>,
        last_cumulative: Option<u64>,
        inf: Option<u64>,
    }
    let mut hist: std::collections::HashMap<String, HistState> = std::collections::HashMap::new();
    let mut counts: std::collections::HashMap<String, u64> = std::collections::HashMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            errors.push(format!("line {}: no value: {line}", lineno + 1));
            continue;
        };
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => (n, rest.strip_suffix('}').unwrap_or(rest)),
            None => (series, ""),
        };
        if name.is_empty()
            || !name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            errors.push(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        if !seen_series.insert(series.to_string()) {
            errors.push(format!("line {}: duplicate series {series}", lineno + 1));
        }
        let value: f64 = match value.parse() {
            Ok(v) => v,
            Err(_) => {
                errors.push(format!("line {}: bad value {value:?}", lineno + 1));
                continue;
            }
        };
        if let Some(base) = name.strip_suffix("_bucket") {
            let mut le = None;
            let others: Vec<&str> = labels
                .split(',')
                .filter(|kv| {
                    if let Some(v) = kv.strip_prefix("le=") {
                        le = Some(v.trim_matches('"').to_string());
                        false
                    } else {
                        !kv.is_empty()
                    }
                })
                .collect();
            let key = format!("{base}{{{}}}", others.join(","));
            let Some(le) = le else {
                errors.push(format!("line {}: bucket without le label", lineno + 1));
                continue;
            };
            let entry = hist.entry(key.clone()).or_default();
            if le == "+Inf" {
                entry.inf = Some(value as u64);
            } else {
                let bound: f64 = match le.parse() {
                    Ok(b) => b,
                    Err(_) => {
                        errors.push(format!("line {}: bad le bound {le:?}", lineno + 1));
                        continue;
                    }
                };
                if entry.inf.is_some() {
                    errors.push(format!("line {}: bucket after +Inf in {key}", lineno + 1));
                }
                if let Some(prev) = entry.last_le {
                    if bound <= prev {
                        errors.push(format!(
                            "line {}: le bounds not increasing in {key} ({prev} -> {bound})",
                            lineno + 1
                        ));
                    }
                }
                entry.last_le = Some(bound);
            }
            if let Some(prev) = entry.last_cumulative {
                if (value as u64) < prev {
                    errors.push(format!(
                        "line {}: cumulative count decreased in {key}",
                        lineno + 1
                    ));
                }
            }
            entry.last_cumulative = Some(value as u64);
        } else if let Some(base) = name.strip_suffix("_count") {
            counts.insert(format!("{base}{{{labels}}}"), value as u64);
        }
    }
    for (key, st) in &hist {
        match st.inf {
            None => errors.push(format!("histogram {key}: missing +Inf bucket")),
            Some(inf) => {
                if let Some(&count) = counts.get(key) {
                    if inf != count {
                        errors.push(format!(
                            "histogram {key}: +Inf bucket {inf} != _count {count}"
                        ));
                    }
                } else {
                    errors.push(format!("histogram {key}: missing _count"));
                }
            }
        }
    }
    errors.sort();
    errors
}

/// Extracts `(series-without-le, total count)` for every histogram in a
/// Prometheus text exposition, via the `_count` lines. Sorted.
pub fn prometheus_histogram_counts(text: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => (n, rest.strip_suffix('}').unwrap_or(rest)),
            None => (series, ""),
        };
        if let Some(base) = name.strip_suffix("_count") {
            if let Ok(v) = value.parse::<u64>() {
                out.push((format!("{base}{{{labels}}}"), v));
            }
        }
    }
    out.sort();
    out
}

/// Extracts `(series, total count)` for every histogram in a JSON
/// snapshot produced by [`TelemetrySnapshot::to_json`]. Sorted with the
/// same key format as [`prometheus_histogram_counts`]; text that is not
/// such a snapshot yields nothing.
pub fn json_histogram_counts(text: &str) -> Vec<(String, u64)> {
    let Ok(doc) = json::parse(text) else {
        return Vec::new();
    };
    let series = doc.get("histograms").and_then(Json::as_arr).unwrap_or(&[]);
    let mut out: Vec<(String, u64)> = series
        .iter()
        .filter_map(|h| {
            let name = h.get("name")?.as_str()?;
            let count = h.get("count")?.as_u64()?;
            let Json::Obj(labels) = h.get("labels")? else {
                return None;
            };
            let labels: Vec<String> = labels
                .iter()
                .map(|(k, v)| {
                    let v = v.as_str().map_or_else(|| v.to_text(), str::to_string);
                    format!("{k}=\"{v}\"")
                })
                .collect();
            Some((format!("{name}{{{}}}", labels.join(",")), count))
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.counter("esdb_writes_total", Labels::tenant(1)).add(10);
        r.counter("esdb_writes_total", Labels::tenant(2)).add(4);
        r.gauge("esdb_rules_active", Labels::none()).set(3);
        let h = r.histogram("esdb_query_ns", Labels::stage("execute").with_shard(0));
        for v in [100, 200, 300, 40_000] {
            h.record(v);
        }
        r
    }

    #[test]
    fn prometheus_passes_lint() {
        let snap = TelemetrySnapshot::from_registry(&sample_registry());
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE esdb_writes_total counter"));
        assert!(text.contains("esdb_writes_total{tenant=\"1\"} 10"));
        assert!(text.contains("esdb_query_ns_bucket{shard=\"0\",stage=\"execute\",le=\"+Inf\"} 4"));
        let errors = lint_prometheus(&text);
        assert!(errors.is_empty(), "lint errors: {errors:?}");
    }

    #[test]
    fn lint_catches_violations() {
        let bad = "esdb_x_total 1\nesdb_x_total 2\n";
        assert!(!lint_prometheus(bad).is_empty(), "duplicate series");
        let bad = "1bad_name 1\n";
        assert!(!lint_prometheus(bad).is_empty(), "bad name");
        let bad =
            "h_bucket{le=\"10\"} 5\nh_bucket{le=\"5\"} 6\nh_bucket{le=\"+Inf\"} 6\nh_count 6\n";
        assert!(!lint_prometheus(bad).is_empty(), "non-monotone le");
        let bad =
            "h_bucket{le=\"10\"} 5\nh_bucket{le=\"20\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n";
        assert!(!lint_prometheus(bad).is_empty(), "decreasing cumulative");
        let bad = "h_bucket{le=\"10\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_count 7\n";
        assert!(!lint_prometheus(bad).is_empty(), "+Inf != _count");
    }

    #[test]
    fn histogram_counts_round_trip() {
        let snap = TelemetrySnapshot::from_registry(&sample_registry());
        let prom = prometheus_histogram_counts(&snap.to_prometheus());
        let json = json_histogram_counts(&snap.to_json().to_text());
        assert!(!prom.is_empty());
        assert_eq!(prom, json);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let a = TelemetrySnapshot::from_registry(&sample_registry()).to_prometheus();
        let b = TelemetrySnapshot::from_registry(&sample_registry()).to_prometheus();
        assert_eq!(a, b);
    }
}
