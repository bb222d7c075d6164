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

use crate::span::StageSample;

/// Timestamp in microseconds with nanosecond precision, rendered
/// deterministically (`1234.567`).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Lane for a sample: coordinator stages on 0, shard stages on shard+1.
fn lane(s: &StageSample) -> u64 {
    s.shard.map_or(0, |sh| sh as u64 + 1)
}

/// Renders samples as Chrome trace-event JSON: an object with a
/// `traceEvents` array of well-nested `B`/`E` pairs. `trace_id` labels
/// every event's args so multiple exports can be concatenated and still
/// attributed.
pub fn chrome_trace_json(trace_id: u64, samples: &[StageSample]) -> String {
    // Per-lane sweep with a stack of open ends, clamping children into
    // their enclosing spans so each lane is a legal call stack.
    let mut lanes: Vec<u64> = samples.iter().map(lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut out = String::with_capacity(samples.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    let mut first = true;
    let push_event =
        |out: &mut String, first: &mut bool, ph: char, s: &StageSample, ts_ns: u64, tid: u64| {
            if !*first {
                out.push_str(", ");
            }
            *first = false;
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"esdb\", \"ph\": \"{}\", \"ts\": {}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"trace_id\": {}, \"span\": {}, \
             \"parent\": {}}}}}",
                s.stage,
                ph,
                us(ts_ns),
                tid,
                trace_id,
                s.id,
                s.parent
            ));
        };
    for tid in lanes {
        let mut spans: Vec<&StageSample> = samples.iter().filter(|s| lane(s) == tid).collect();
        spans.sort_by_key(|s| (s.start_ns, u64::MAX - s.dur_ns, s.id));
        // Stack of (sample, clamped end).
        let mut open: Vec<(&StageSample, u64)> = Vec::new();
        for s in spans {
            while let Some(&(top, top_end)) = open.last() {
                if top_end <= s.start_ns {
                    push_event(&mut out, &mut first, 'E', top, top_end, tid);
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
            push_event(&mut out, &mut first, 'B', s, s.start_ns, tid);
            open.push((s, end));
        }
        while let Some((top, top_end)) = open.pop() {
            push_event(&mut out, &mut first, 'E', top, top_end, tid);
        }
    }
    out.push_str("]}");
    out
}

/// Renders samples as structured JSON: the lossless flat form (tree via
/// `parent` ids), sorted by start offset then span id.
pub(crate) fn trace_json(trace_id: u64, samples: &[StageSample]) -> String {
    let mut ordered: Vec<&StageSample> = samples.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = String::with_capacity(samples.len() * 120 + 48);
    out.push_str(&format!("{{\"trace_id\": {trace_id}, \"spans\": ["));
    for (i, s) in ordered.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"stage\": \"{}\", \"id\": {}, \"parent\": {}, \"shard\": {}, \
             \"start_ns\": {}, \"dur_ns\": {}}}",
            s.stage,
            s.id,
            s.parent,
            s.shard
                .map_or_else(|| "null".to_string(), |sh| sh.to_string()),
            s.start_ns,
            s.dur_ns
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// nothing stays open.
    fn assert_well_nested(json: &str) {
        let mut stacks: std::collections::HashMap<String, Vec<String>> = Default::default();
        let mut last_ts: std::collections::HashMap<String, f64> = Default::default();
        for ev in json.split("{\"name\": \"").skip(1) {
            let name = &ev[..ev.find('"').expect("name end")];
            let ph = ev
                .split("\"ph\": \"")
                .nth(1)
                .and_then(|r| r.chars().next())
                .expect("ph");
            let ts: f64 = ev
                .split("\"ts\": ")
                .nth(1)
                .and_then(|r| r.split(',').next())
                .expect("ts")
                .parse()
                .expect("ts value");
            let tid = ev
                .split("\"tid\": ")
                .nth(1)
                .and_then(|r| r.split(',').next())
                .expect("tid")
                .to_string();
            let prev = last_ts.entry(tid.clone()).or_insert(0.0);
            assert!(ts >= *prev, "timestamps monotone per lane");
            *prev = ts;
            let stack = stacks.entry(tid).or_default();
            match ph {
                'B' => stack.push(name.to_string()),
                'E' => assert_eq!(stack.pop().as_deref(), Some(name), "LIFO close"),
                other => panic!("unexpected phase {other}"),
            }
        }
        for (tid, stack) in stacks {
            assert!(stack.is_empty(), "lane {tid} left spans open: {stack:?}");
        }
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
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"trace_id\": 42"));
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 5);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 5);
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
        let json = chrome_trace_json(7, &samples);
        assert_well_nested(&json);
    }

    #[test]
    fn structured_json_is_lossless_and_sorted() {
        let samples = vec![
            sample("execute", 3, 1, Some(2), 700, 8_000),
            sample("query", 1, 0, None, 0, 10_000),
        ];
        let json = trace_json(9, &samples);
        assert!(json.starts_with("{\"trace_id\": 9, \"spans\": ["));
        let qpos = json.find("\"stage\": \"query\"").expect("query span");
        let epos = json.find("\"stage\": \"execute\"").expect("execute span");
        assert!(qpos < epos, "sorted by start offset");
        assert!(json.contains("\"shard\": 2"));
        assert!(json.contains("\"shard\": null"));
    }

    #[test]
    fn empty_trace_exports_empty_arrays() {
        assert_eq!(
            chrome_trace_json(1, &[]),
            "{\"displayTimeUnit\": \"ns\", \"traceEvents\": []}"
        );
        assert_eq!(trace_json(1, &[]), "{\"trace_id\": 1, \"spans\": []}");
    }
}
