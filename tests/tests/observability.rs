//! Flight-recorder correctness: journal concurrency invariants, causal
//! link integrity, Chrome-trace export well-formedness, tail-based
//! capture through the full query path, and the debug bundle artifact.

use esdb_common::{RecordId, TenantId};
use esdb_core::{Esdb, EsdbConfig, WriteBatcher};
use esdb_doc::{CollectionSchema, Document, WriteOp};
use esdb_telemetry::{
    chrome_trace_json, unresolved_parents, EventKind, Journal, Labels, QueryTrace, TelemetryConfig,
    NO_PARENT,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("esdb-obs-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn doc(tenant: u64, record: u64, at: u64) -> Document {
    Document::builder(TenantId(tenant), RecordId(record), at)
        .field("status", (record % 2) as i64)
        .field("group", (record % 5) as i64)
        .field("auction_title", format!("item number {record}"))
        .build()
}

// ---------------------------------------------------------------------
// A minimal recursive-descent JSON parser, so export well-formedness is
// checked by an independent reader rather than by string matching.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at {}", self.pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?} at {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 passes through unvalidated; the
                    // input came from a &str so it is valid already.
                    out.push(b as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("bad array sep {other:?} at {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("bad object sep {other:?} at {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Journal concurrency invariants.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N threads emitting concurrently: every emission gets a distinct
    /// strictly-positive seq; below capacity nothing is lost; at
    /// capacity retention stays bounded and eviction is acknowledged
    /// through `evicted_max`.
    #[test]
    fn concurrent_emission_keeps_journal_invariants(
        threads in 2usize..6,
        per_thread in 1usize..80,
        capacity in 16usize..256,
    ) {
        let journal = Arc::new(Journal::new(capacity));
        let mut all_seqs: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let journal = Arc::clone(&journal);
                    s.spawn(move || {
                        let mut seqs = Vec::with_capacity(per_thread);
                        for i in 0..per_thread {
                            let seq = journal.emit(
                                EventKind::CacheSweep {
                                    evicted: t as u64,
                                    entries: i as u64,
                                },
                                Labels::none(),
                                NO_PARENT,
                            );
                            seqs.push(seq);
                        }
                        seqs
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });

        let emitted = threads * per_thread;
        // Seqs are distinct, positive, and each thread saw its own
        // strictly increasing subsequence (checked via global dedup:
        // fetch_add can never hand out a duplicate).
        prop_assert!(all_seqs.iter().all(|&s| s > 0));
        all_seqs.sort_unstable();
        let before_dedup = all_seqs.len();
        all_seqs.dedup();
        prop_assert_eq!(all_seqs.len(), before_dedup, "duplicate seq handed out");

        let retained = journal.snapshot();
        // Retention is bounded: at most capacity rounded up to the
        // stripe granularity, no matter how many events were emitted.
        let stripe_cap = capacity.div_ceil(8) * 8;
        prop_assert!(retained.len() <= stripe_cap.min(emitted));
        if emitted <= capacity.div_ceil(8) {
            // Guaranteed-below-capacity regime (even if every event
            // landed on one stripe): nothing may be lost.
            prop_assert_eq!(retained.len(), emitted, "lost events below capacity");
        }
        if emitted > stripe_cap {
            prop_assert!(journal.evicted_max() > 0, "eviction must be acknowledged");
        }
        // Retained events are sorted and unique by seq.
        let seqs: Vec<u64> = retained.iter().map(|e| e.seq).collect();
        prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    /// Concurrently-emitted causal chains never leave a dangling
    /// parent: every retained `parent_seq` either resolves to a
    /// retained event or is explicitly acknowledged as evicted.
    #[test]
    fn causal_links_resolve_or_are_evicted(
        threads in 2usize..5,
        chains in 1usize..40,
        capacity in 8usize..96,
    ) {
        let journal = Arc::new(Journal::new(capacity));
        std::thread::scope(|s| {
            for t in 0..threads {
                let journal = Arc::clone(&journal);
                s.spawn(move || {
                    for c in 0..chains {
                        let root = journal.emit(
                            EventKind::RebalanceEpochClaimed { epoch: (t * chains + c) as u64 },
                            Labels::none(),
                            NO_PARENT,
                        );
                        let mid = journal.emit(
                            EventKind::RuleAppended {
                                tenant: t as u64,
                                old_span: 1,
                                new_span: 4,
                                commit_wait_ns: 0,
                            },
                            Labels::tenant(t as u64),
                            root,
                        );
                        journal.emit(
                            EventKind::RebalanceEpochCompleted {
                                epoch: (t * chains + c) as u64,
                                rules_committed: 1,
                            },
                            Labels::none(),
                            mid,
                        );
                    }
                });
            }
        });
        let events = journal.snapshot();
        let orphans = unresolved_parents(&events, journal.evicted_max());
        prop_assert!(orphans.is_empty(), "dangling parents: {orphans:?}");
    }
}

// ---------------------------------------------------------------------
// Chrome-trace export round-trips through an independent JSON parser.
// ---------------------------------------------------------------------

#[test]
fn chrome_trace_export_is_valid_and_well_nested() {
    let trace = QueryTrace::new();
    {
        let root = trace.span("query", 0);
        let root_id = root.id();
        {
            let plan = trace.span("plan", root_id);
            plan.finish();
        }
        for shard in 0..3u32 {
            let exec = trace.span_for_shard("execute", root_id, Some(shard));
            trace.record("cache_probe", exec.id(), Some(shard), 50);
        }
        root.finish();
    }
    let trace_id = trace.trace_id();
    let json = chrome_trace_json(trace_id, &trace.into_samples()).to_text();

    let parsed = Parser::parse(&json).expect("chrome trace must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Replay each (pid, tid) lane: B pushes, E pops its matching name —
    // a legal flame graph never crosses pairs within a lane.
    let mut lanes: std::collections::HashMap<(u64, u64), Vec<String>> =
        std::collections::HashMap::new();
    let mut begins = 0usize;
    for ev in events {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .expect("name")
            .to_string();
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        let pid = ev.get("pid").and_then(Json::as_num).expect("pid") as u64;
        let tid = ev.get("tid").and_then(Json::as_num).expect("tid") as u64;
        assert_eq!(
            ev.get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Json::as_num),
            Some(trace_id as f64),
            "every event carries the trace id"
        );
        let stack = lanes.entry((pid, tid)).or_default();
        match ph {
            "B" => {
                begins += 1;
                stack.push(name);
            }
            "E" => {
                let open = stack.pop().unwrap_or_else(|| {
                    panic!("E event for {name} with empty stack in lane ({pid},{tid})")
                });
                assert_eq!(open, name, "E must close the innermost open B");
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for ((pid, tid), stack) in &lanes {
        assert!(
            stack.is_empty(),
            "lane ({pid},{tid}) left spans open: {stack:?}"
        );
    }
    // Every recorded sample produced exactly one B/E pair.
    assert_eq!(begins * 2, events.len());
}

// ---------------------------------------------------------------------
// Tail-based capture through the full query path.
// ---------------------------------------------------------------------

/// With head sampling effectively off and the slow threshold at zero,
/// every query is slow and none is head-sampled — yet each slow-log
/// entry must still carry a full span tree and a usable trace id.
#[test]
fn unsampled_slow_queries_carry_full_span_trees() {
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(tmpdir("tail"))
            .shards(4)
            .parallelism(1)
            .telemetry_config(TelemetryConfig {
                trace_sample_every: 1_000_000,
                slow_query_threshold_us: 0,
                ..TelemetryConfig::default()
            }),
    )
    .unwrap();
    let (w, rd) = (db.writer(), db.reader());
    for r in 0..200 {
        w.insert(doc(1 + r % 5, r, 1_000_000 + r * 700)).unwrap();
    }
    db.refresh();
    for _ in 0..4 {
        rd.query("SELECT * FROM transaction_logs WHERE tenant_id = 1 AND status = 1 LIMIT 10")
            .unwrap();
    }
    let entries = db.slow_queries();
    assert!(!entries.is_empty(), "threshold 0 must log every query");
    for e in &entries {
        assert_ne!(e.trace_id, 0, "tail capture must assign a trace id");
        assert!(
            !e.stages.is_empty(),
            "slow query logged without stages: {:?}",
            e.sql
        );
        assert!(
            e.stages.iter().any(|s| s.stage == "execute"),
            "span tree must include per-shard execute stages"
        );
    }

    // The pre-flight-recorder configuration keeps the old behavior:
    // unsampled slow queries log with empty stages.
    let mut db_old = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(tmpdir("tail-off"))
            .shards(4)
            .parallelism(1)
            .telemetry_config(TelemetryConfig {
                trace_sample_every: 1_000_000,
                slow_query_threshold_us: 0,
                tail_capture: false,
                ..TelemetryConfig::default()
            }),
    )
    .unwrap();
    let (w_old, rd_old) = (db_old.writer(), db_old.reader());
    w_old.insert(doc(1, 1, 1_000_000)).unwrap();
    db_old.refresh();
    rd_old
        .query("SELECT * FROM transaction_logs WHERE tenant_id = 1 LIMIT 5")
        .unwrap();
    let old = db_old.slow_queries();
    assert!(!old.is_empty());
    assert!(
        old.iter().all(|e| e.stages.is_empty()),
        "tail_capture off must not buffer spans"
    );
}

/// Slow-write twin: threshold 0 logs every per-shard write submission
/// with the shard, op counts, and byte accounting filled in, and the
/// debug bundle carries the log next to the slow queries.
#[test]
fn slow_write_log_records_drains() {
    let db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(tmpdir("slow-write"))
            .shards(2)
            .parallelism(1)
            .telemetry_config(TelemetryConfig {
                slow_write_threshold_us: 0,
                ..TelemetryConfig::default()
            }),
    )
    .unwrap();
    let w = db.writer();
    let mut batcher = WriteBatcher::new();
    for r in 0..40 {
        batcher.push(WriteOp::insert(doc(1 + r % 3, r, 1_000_000 + r)));
    }
    w.write_batch(&mut batcher).unwrap();
    let writes = db.slow_writes();
    assert!(!writes.is_empty(), "threshold 0 must log every submission");
    let total_ops: u64 = writes.iter().map(|w| w.ops as u64).sum();
    assert_eq!(total_ops, 40, "every written op is attributed to an entry");
    for w in &writes {
        assert!(w.shard < 2);
        assert!(w.translog_bytes > 0, "entries account translog bytes");
        assert!(w.total_ns > 0);
    }
    assert_eq!(db.debug_bundle().slow_writes.len(), writes.len());
}

// ---------------------------------------------------------------------
// The debug bundle artifact.
// ---------------------------------------------------------------------

#[test]
fn debug_bundle_serializes_state_as_valid_json() {
    let mut db = Esdb::open(
        CollectionSchema::transaction_logs(),
        EsdbConfig::new(tmpdir("bundle")).shards(2).parallelism(1),
    )
    .unwrap();
    let (w, rd) = (db.writer(), db.reader());
    for r in 0..120 {
        w.insert(doc(1 + r % 4, r, 1_000_000 + r * 500)).unwrap();
    }
    db.refresh();
    rd.query("SELECT * FROM transaction_logs WHERE tenant_id = 1 LIMIT 5")
        .unwrap();
    let bundle = db.debug_bundle();
    let json = bundle.to_json().to_text();
    let parsed = Parser::parse(&json).expect("debug bundle must be valid JSON");

    let config = parsed.get("config").expect("config section");
    for key in ["n_shards", "tail_capture", "journal_capacity", "routing"] {
        assert!(config.get(key).is_some(), "config must carry {key}");
    }
    let journal = parsed.get("journal").expect("journal section");
    assert!(journal.get("evicted_max").and_then(Json::as_num).is_some());
    let events = journal
        .get("events")
        .and_then(Json::as_arr)
        .expect("journal events array");
    assert!(
        !events.is_empty(),
        "refresh/write activity must leave journal events"
    );
    for ev in events {
        assert!(ev.get("seq").and_then(Json::as_num).is_some());
        assert!(ev.get("kind").and_then(Json::as_str).is_some());
    }
    assert!(parsed.get("metrics").is_some(), "metrics snapshot present");
    assert!(parsed.get("rules").is_some(), "rule-list state present");
    assert!(parsed.get("slow_queries").is_some());
    assert!(parsed.get("slow_writes").is_some());
}
