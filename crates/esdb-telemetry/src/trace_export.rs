//! Trace-tree exporters: Chrome trace-event JSON (loadable in
//! `chrome://tracing` / Perfetto) and a structured JSON form, both
//! rendered from the [`StageSample`]s a [`crate::QueryTrace`] collected.
//!
//! The Chrome exporter emits `B`/`E` (begin/end) event pairs. Chrome's
//! nesting model is *timeline containment per `(pid, tid)` lane*, so the
//! exporter lays coordinator-level stages on lane 0 and each shard's
//! stages on lane `shard + 1`, then enforces stack discipline per lane:
//! spans are swept in start order and a span's end is clamped into its
//! enclosing span when measured durations overlap by a hair (derived
//! start offsets of externally-timed samples can drift past a parent's
//! recorded end by the cost of the clock reads themselves). The result
//! is well-nested by construction — every `B` has a matching `E` on the
//! same lane with LIFO ordering — which the exporter tests and the
//! observability integration suite verify through a real JSON parse.

use crate::json::{obj, Json};
use crate::span::StageSample;

/// Lane for a sample: coordinator stages on 0, shard stages on shard+1.
fn lane(s: &StageSample) -> u64 {
    s.shard.map_or(0, |sh| sh as u64 + 1)
}

/// Renders samples as Chrome trace-event JSON: an object with a
/// `traceEvents` array of well-nested `B`/`E` pairs, timestamps in
/// microseconds. `trace_id` labels every event's args so multiple
/// exports can be concatenated and still attributed.
pub fn chrome_trace_json(trace_id: u64, samples: &[StageSample]) -> Json {
    // Per-lane sweep with a stack of open ends, clamping children into
    // their enclosing spans so each lane is a legal call stack.
    let mut lanes: Vec<u64> = samples.iter().map(lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut events = Vec::with_capacity(samples.len() * 2);
    let event = |ph: &str, s: &StageSample, ts_ns: u64, tid: u64| {
        obj(vec![
            ("name", s.stage.into()),
            ("cat", "esdb".into()),
            ("ph", ph.into()),
            ("ts", (ts_ns as f64 / 1_000.0).into()),
            ("pid", 1u64.into()),
            ("tid", tid.into()),
            (
                "args",
                obj(vec![
                    ("trace_id", trace_id.into()),
                    ("span", s.id.into()),
                    ("parent", s.parent.into()),
                ]),
            ),
        ])
    };
    for tid in lanes {
        let mut spans: Vec<&StageSample> = samples.iter().filter(|s| lane(s) == tid).collect();
        spans.sort_by_key(|s| (s.start_ns, u64::MAX - s.dur_ns, s.id));
        // Stack of (sample, clamped end).
        let mut open: Vec<(&StageSample, u64)> = Vec::new();
        for s in spans {
            while let Some(&(top, top_end)) = open.last() {
                if top_end <= s.start_ns {
                    events.push(event("E", top, top_end, tid));
                    open.pop();
                } else {
                    break;
                }
            }
            let mut end = s.start_ns.saturating_add(s.dur_ns);
            if let Some(&(_, top_end)) = open.last() {
                end = end.min(top_end);
            }
            let end = end.max(s.start_ns);
            events.push(event("B", s, s.start_ns, tid));
            open.push((s, end));
        }
        while let Some((top, top_end)) = open.pop() {
            events.push(event("E", top, top_end, tid));
        }
    }
    obj(vec![
        ("displayTimeUnit", "ns".into()),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// The structured form: the lossless flat span list (tree via `parent`
/// ids), sorted by start offset then span id.
pub(crate) fn trace_json(trace_id: u64, samples: &[StageSample]) -> Json {
    let mut ordered: Vec<&StageSample> = samples.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, s.id));
    let spans = ordered.iter().map(|s| {
        obj(vec![
            ("stage", s.stage.into()),
            ("id", s.id.into()),
            ("parent", s.parent.into()),
            ("shard", s.shard.into()),
            ("start_ns", s.start_ns.into()),
            ("dur_ns", s.dur_ns.into()),
        ])
    });
    obj(vec![
        ("trace_id", trace_id.into()),
        ("spans", spans.collect()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample(
        stage: &'static str,
        id: u64,
        parent: u64,
        shard: Option<u32>,
        start_ns: u64,
        dur_ns: u64,
    ) -> StageSample {
        StageSample {
            stage,
            id,
            parent,
            shard,
            start_ns,
            dur_ns,
        }
    }

    /// Checks per-lane B/E stack discipline: every E closes the most
    /// recent open B on its tid, timestamps never go backwards, and
    /// nothing stays open. Reads the rendered text back through the
    /// parser, so the check covers the writer too.
    fn assert_well_nested(json: &Json) {
        let doc = parse(&json.to_text()).expect("chrome trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        let mut stacks: std::collections::HashMap<u64, Vec<&str>> = Default::default();
        let mut last_ts: std::collections::HashMap<u64, f64> = Default::default();
        for ev in events {
            let name = ev.get("name").and_then(Json::as_str).expect("name");
            let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
            let ts = match ev.get("ts").expect("ts") {
                Json::Float(f) => *f,
                other => other.as_u64().expect("ts value") as f64,
            };
            let tid = ev.get("tid").and_then(Json::as_u64).expect("tid");
            let prev = last_ts.entry(tid).or_insert(0.0);
            assert!(ts >= *prev, "timestamps monotone per lane");
            *prev = ts;
            let stack = stacks.entry(tid).or_default();
            match ph {
                "B" => stack.push(name),
                "E" => assert_eq!(stack.pop(), Some(name), "LIFO close"),
                other => panic!("unexpected phase {other}"),
            }
        }
        for (tid, stack) in stacks {
            assert!(stack.is_empty(), "lane {tid} left spans open: {stack:?}");
        }
    }

    fn phases(json: &Json, ph: &str) -> usize {
        let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .count()
    }

    #[test]
    fn chrome_export_nests_parent_and_children() {
        let samples = vec![
            sample("query", 1, 0, None, 0, 10_000),
            sample("route", 2, 1, None, 100, 500),
            sample("execute", 3, 1, Some(0), 700, 8_000),
            sample("execute", 4, 1, Some(1), 700, 6_000),
            sample("gather", 5, 1, None, 9_000, 800),
        ];
        let json = chrome_trace_json(42, &samples);
        let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(events
            .iter()
            .all(|e| { e.get("args").and_then(|a| a.get("trace_id")) == Some(&Json::UInt(42)) }));
        assert_eq!(phases(&json, "B"), 5);
        assert_eq!(phases(&json, "E"), 5);
        assert_well_nested(&json);
    }

    #[test]
    fn overlapping_samples_are_clamped_not_crossed() {
        // Derived starts can overlap; the exporter must still emit a
        // legal stack.
        let samples = vec![
            sample("a", 1, 0, None, 0, 1_000),
            sample("b", 2, 1, None, 500, 1_500),
            sample("c", 3, 1, None, 600, 100),
        ];
        assert_well_nested(&chrome_trace_json(7, &samples));
    }

    #[test]
    fn structured_json_is_lossless_and_sorted() {
        let samples = vec![
            sample("execute", 3, 1, Some(2), 700, 8_000),
            sample("query", 1, 0, None, 0, 10_000),
        ];
        let json = parse(&trace_json(9, &samples).to_text()).unwrap();
        assert_eq!(json.get("trace_id"), Some(&Json::UInt(9)));
        let spans = json.get("spans").and_then(Json::as_arr).unwrap();
        let stage = |i: usize| spans[i].get("stage").and_then(Json::as_str);
        assert_eq!((stage(0), stage(1)), (Some("query"), Some("execute")));
        assert_eq!(spans[0].get("shard"), Some(&Json::Null));
        assert_eq!(spans[1].get("shard"), Some(&Json::UInt(2)));
        assert_eq!(spans[1].get("start_ns"), Some(&Json::UInt(700)));
        assert_eq!(spans[1].get("dur_ns"), Some(&Json::UInt(8_000)));
    }

    #[test]
    fn empty_trace_exports_empty_arrays() {
        assert_eq!(
            chrome_trace_json(1, &[]),
            parse(r#"{"displayTimeUnit": "ns", "traceEvents": []}"#).unwrap()
        );
        assert_eq!(
            trace_json(1, &[]),
            parse(r#"{"trace_id": 1, "spans": []}"#).unwrap()
        );
    }
}
