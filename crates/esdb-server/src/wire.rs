//! The wire protocol: JSON encodings of writes, queries, aggregates,
//! rows, and errors.
//!
//! Design rules:
//!
//! * **Lossless round-trip.** Every message satisfies
//!   `decode(encode(m)) == m`. Field values are *tagged* —
//!   `{"t": "int", "v": -3}` — so `Int`, `Timestamp`, and `Float` never
//!   collapse into one JSON number type, and floats travel as their
//!   shortest-round-trip *string* (`{"t": "float", "v": "1"}`) so an
//!   integral float can't be re-parsed as an integer. The proptests in
//!   `tests/tests/server_front.rs` pin this down for arbitrary
//!   documents, queries, acks, aggregates, and errors.
//! * **Version-prefixed paths.** Messages are bodies of `/v1/...`
//!   endpoints; adding fields is backward-compatible (decoders ignore
//!   unknown members), breaking changes bump the prefix.

use esdb_common::{EsdbError, RecordId, TenantId, TimestampMs};
use esdb_doc::{Document, FieldValue, WriteOp};
use esdb_query::{AggResult, AggRow, QueryRows};
use esdb_telemetry::json::{escape_into, obj, parse, Json};
use std::fmt::Write as _;

/// One write operation as it travels over the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOp {
    /// Insert a new document.
    Insert(Document),
    /// Replace an existing record (same routing triple).
    Update(Document),
    /// Tombstone a record by routing triple.
    Delete {
        /// Routing `k1`.
        tenant: TenantId,
        /// Routing `k2`.
        record: RecordId,
        /// Routing `tc`.
        created_at: TimestampMs,
    },
}

impl WireOp {
    /// The tenant this operation touches (enforced against the
    /// authenticated tenant by the server).
    pub fn tenant(&self) -> TenantId {
        match self {
            WireOp::Insert(d) | WireOp::Update(d) => d.tenant_id,
            WireOp::Delete { tenant, .. } => *tenant,
        }
    }

    /// Converts into the engine's write operation.
    pub fn into_write_op(self) -> WriteOp {
        match self {
            WireOp::Insert(d) => WriteOp::insert(d),
            WireOp::Update(d) => WriteOp::update(d),
            WireOp::Delete {
                tenant,
                record,
                created_at,
            } => WriteOp::delete(tenant, record, created_at),
        }
    }
}

/// Body of `POST /v1/write`.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteRequest {
    /// Operations, applied in order.
    pub ops: Vec<WireOp>,
}

/// Success body of `POST /v1/write`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteAck {
    /// Operations applied (== acknowledged as durable in the translog).
    pub applied: u64,
    /// `(shard, ops applied to it)`, ascending by shard.
    pub per_shard: Vec<(u32, u64)>,
}

/// Body of `POST /v1/query` and `POST /v1/aggregate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// The SQL text.
    pub sql: String,
    /// Executor override; `None` = server default (block execution on).
    pub block_execution: Option<bool>,
}

/// Success body of `POST /v1/query`: rows plus the work counters the
/// embedded API reports.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRows {
    /// Matching documents, in result order.
    pub docs: Vec<Document>,
    /// Posting entries materialized while executing.
    pub postings_scanned: u64,
    /// Documents touched by scan filters.
    pub docs_scanned: u64,
}

impl WireRows {
    /// Projects the wire-visible part of an engine result.
    pub fn from_rows(rows: &QueryRows) -> Self {
        WireRows {
            docs: rows.docs.clone(),
            postings_scanned: rows.postings_scanned,
            docs_scanned: rows.docs_scanned,
        }
    }
}

/// Success body of `POST /v1/aggregate`.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAgg {
    /// `(group key, values)` rows in group order.
    pub rows: Vec<(Option<FieldValue>, Vec<FieldValue>)>,
    /// Stored payloads the execution materialized (0 = pure pushdown).
    pub payload_reads: u64,
}

impl WireAgg {
    /// Projects the wire-visible part of an engine aggregate result.
    pub fn from_agg(agg: &AggResult) -> Self {
        WireAgg {
            rows: agg
                .rows
                .iter()
                .map(|r| (r.group.clone(), r.values.clone()))
                .collect(),
            payload_reads: agg.payload_reads,
        }
    }

    /// Rebuilds engine-shaped aggregate rows (for equivalence checks).
    pub fn to_rows(&self) -> Vec<AggRow> {
        self.rows
            .iter()
            .map(|(group, values)| AggRow {
                group: group.clone(),
                values: values.clone(),
            })
            .collect()
    }
}

/// An error response body (any non-2xx status).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable machine-readable code (`"rate_limited"`, `"parse"`, ...).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
    /// Suggested client back-off for `rate_limited`/`quota_exceeded`.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// An error with just a code and message.
    pub(crate) fn new(code: &str, message: impl Into<String>) -> Self {
        WireError {
            code: code.to_string(),
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Maps an engine error onto a wire code.
    pub(crate) fn from_engine(e: &EsdbError) -> Self {
        let code = match e {
            EsdbError::Parse(_) => "parse",
            EsdbError::Plan(_) => "plan",
            EsdbError::Execution(_) => "execution",
            EsdbError::InvalidDocument(_) => "invalid_document",
            EsdbError::UnknownCollection(_) => "unknown_collection",
            EsdbError::Io(_) => "io",
            EsdbError::Corruption(_) => "corruption",
            EsdbError::WorkloadBlocked { .. } => "workload_blocked",
            EsdbError::Retry(_) => "retry",
            _ => "internal",
        };
        WireError::new(code, e.to_string())
    }

    /// The HTTP status the server pairs with this code.
    pub(crate) fn status(&self) -> u16 {
        match self.code.as_str() {
            "auth" => 401,
            "forbidden" => 403,
            "not_found" => 404,
            "parse" | "plan" | "invalid_document" | "unknown_collection" | "bad_request" => 400,
            "too_large" => 413,
            "rate_limited" | "quota_exceeded" => 429,
            "shed" | "draining" => 503,
            _ => 500,
        }
    }
}

// ---------------------------------------------------------------------
// Field values
// ---------------------------------------------------------------------

/// Encodes a field value as a tagged object.
pub(crate) fn encode_value(v: &FieldValue) -> Json {
    match v {
        FieldValue::Null => obj(vec![("t", Json::Str("null".into()))]),
        FieldValue::Bool(b) => obj(vec![("t", Json::Str("bool".into())), ("v", Json::Bool(*b))]),
        FieldValue::Int(i) => obj(vec![("t", Json::Str("int".into())), ("v", Json::Int(*i))]),
        FieldValue::Float(f) => obj(vec![
            ("t", Json::Str("float".into())),
            // Shortest round-trip decimal, carried as a string so the
            // JSON layer can never re-type it.
            ("v", Json::Str(format!("{f}"))),
        ]),
        FieldValue::Timestamp(t) => obj(vec![("t", Json::Str("ts".into())), ("v", Json::UInt(*t))]),
        FieldValue::Str(s) => obj(vec![
            ("t", Json::Str("str".into())),
            ("v", Json::Str(s.clone())),
        ]),
    }
}

/// Decodes a tagged field value.
pub(crate) fn decode_value(j: &Json) -> Result<FieldValue, String> {
    let tag = j
        .get("t")
        .and_then(Json::as_str)
        .ok_or("field value missing tag")?;
    let v = j.get("v");
    match tag {
        "null" => Ok(FieldValue::Null),
        "bool" => v
            .and_then(Json::as_bool)
            .map(FieldValue::Bool)
            .ok_or_else(|| "bad bool value".to_string()),
        "int" => v
            .and_then(Json::as_i64)
            .map(FieldValue::Int)
            .ok_or_else(|| "bad int value".to_string()),
        "float" => v
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<f64>().ok())
            .map(FieldValue::Float)
            .ok_or_else(|| "bad float value".to_string()),
        "ts" => v
            .and_then(Json::as_u64)
            .map(FieldValue::Timestamp)
            .ok_or_else(|| "bad timestamp value".to_string()),
        "str" => v
            .and_then(Json::as_str)
            .map(|s| FieldValue::Str(s.to_string()))
            .ok_or_else(|| "bad str value".to_string()),
        other => Err(format!("unknown field value tag {other:?}")),
    }
}

/// `Some(v)` → tagged object, `None` → JSON null (GROUP BY's missing
/// group).
fn encode_opt_value(v: &Option<FieldValue>) -> Json {
    match v {
        Some(v) => encode_value(v),
        None => Json::Null,
    }
}

fn decode_opt_value(j: &Json) -> Result<Option<FieldValue>, String> {
    match j {
        Json::Null => Ok(None),
        other => decode_value(other).map(Some),
    }
}

// ---------------------------------------------------------------------
// Documents
// ---------------------------------------------------------------------

/// Encodes a document (routing triple + ordered fields + attrs).
pub fn encode_doc(d: &Document) -> Json {
    obj(vec![
        ("tenant", Json::UInt(d.tenant_id.0)),
        ("record", Json::UInt(d.record_id.0)),
        ("created_at", Json::UInt(d.created_at)),
        (
            "fields",
            Json::Arr(
                d.fields()
                    .map(|(n, v)| Json::Arr(vec![Json::Str(n.to_string()), encode_value(v)]))
                    .collect(),
            ),
        ),
        (
            "attrs",
            Json::Arr(
                d.attrs()
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Str(v.clone())]))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a document (builder re-sorts fields, so decode ∘ encode is
/// the identity — fields are emitted sorted).
pub(crate) fn decode_doc(j: &Json) -> Result<Document, String> {
    let tenant = j
        .get("tenant")
        .and_then(Json::as_u64)
        .ok_or("doc missing tenant")?;
    let record = j
        .get("record")
        .and_then(Json::as_u64)
        .ok_or("doc missing record")?;
    let created_at = j
        .get("created_at")
        .and_then(Json::as_u64)
        .ok_or("doc missing created_at")?;
    let mut b = Document::builder(TenantId(tenant), RecordId(record), created_at);
    if let Some(fields) = j.get("fields").and_then(Json::as_arr) {
        for f in fields {
            let pair = f.as_arr().ok_or("bad field pair")?;
            let [name, value] = pair else {
                return Err("bad field pair arity".to_string());
            };
            let name = name.as_str().ok_or("bad field name")?;
            b = b.field(name, decode_value(value)?);
        }
    }
    if let Some(attrs) = j.get("attrs").and_then(Json::as_arr) {
        for a in attrs {
            let pair = a.as_arr().ok_or("bad attr pair")?;
            let [k, v] = pair else {
                return Err("bad attr pair arity".to_string());
            };
            b = b.attr(
                k.as_str().ok_or("bad attr key")?,
                v.as_str().ok_or("bad attr value")?,
            );
        }
    }
    Ok(b.build())
}

// ---------------------------------------------------------------------
// Requests / responses
// ---------------------------------------------------------------------

/// Encodes a write request body.
pub fn encode_write_request(r: &WriteRequest) -> String {
    let ops: Vec<Json> = r
        .ops
        .iter()
        .map(|op| match op {
            WireOp::Insert(d) => obj(vec![
                ("op", Json::Str("insert".into())),
                ("doc", encode_doc(d)),
            ]),
            WireOp::Update(d) => obj(vec![
                ("op", Json::Str("update".into())),
                ("doc", encode_doc(d)),
            ]),
            WireOp::Delete {
                tenant,
                record,
                created_at,
            } => obj(vec![
                ("op", Json::Str("delete".into())),
                ("tenant", Json::UInt(tenant.0)),
                ("record", Json::UInt(record.0)),
                ("created_at", Json::UInt(*created_at)),
            ]),
        })
        .collect();
    obj(vec![("ops", Json::Arr(ops))]).to_text()
}

/// Decodes a write request body.
pub fn decode_write_request(body: &str) -> Result<WriteRequest, String> {
    let j = parse(body)?;
    let ops = j.get("ops").and_then(Json::as_arr).ok_or("missing ops")?;
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        let kind = op
            .get("op")
            .and_then(Json::as_str)
            .ok_or("op missing kind")?;
        out.push(match kind {
            "insert" => WireOp::Insert(decode_doc(op.get("doc").ok_or("insert missing doc")?)?),
            "update" => WireOp::Update(decode_doc(op.get("doc").ok_or("update missing doc")?)?),
            "delete" => WireOp::Delete {
                tenant: TenantId(
                    op.get("tenant")
                        .and_then(Json::as_u64)
                        .ok_or("delete missing tenant")?,
                ),
                record: RecordId(
                    op.get("record")
                        .and_then(Json::as_u64)
                        .ok_or("delete missing record")?,
                ),
                created_at: op
                    .get("created_at")
                    .and_then(Json::as_u64)
                    .ok_or("delete missing created_at")?,
            },
            other => return Err(format!("unknown op kind {other:?}")),
        });
    }
    Ok(WriteRequest { ops: out })
}

/// Encodes a write acknowledgment body.
pub fn encode_write_ack(a: &WriteAck) -> String {
    obj(vec![
        ("applied", Json::UInt(a.applied)),
        (
            "per_shard",
            Json::Arr(
                a.per_shard
                    .iter()
                    .map(|(s, n)| Json::Arr(vec![Json::UInt(*s as u64), Json::UInt(*n)]))
                    .collect(),
            ),
        ),
    ])
    .to_text()
}

/// Decodes a write acknowledgment body.
pub fn decode_write_ack(body: &str) -> Result<WriteAck, String> {
    let j = parse(body)?;
    let applied = j
        .get("applied")
        .and_then(Json::as_u64)
        .ok_or("ack missing applied")?;
    let mut per_shard = Vec::new();
    for pair in j
        .get("per_shard")
        .and_then(Json::as_arr)
        .ok_or("ack missing per_shard")?
    {
        let [s, n] = pair.as_arr().ok_or("bad per_shard pair")? else {
            return Err("bad per_shard arity".to_string());
        };
        per_shard.push((
            s.as_u64().ok_or("bad shard")? as u32,
            n.as_u64().ok_or("bad count")?,
        ));
    }
    Ok(WriteAck { applied, per_shard })
}

/// Encodes a query/aggregate request body.
pub fn encode_query_request(q: &QueryRequest) -> String {
    let mut members = vec![("sql", Json::Str(q.sql.clone()))];
    if let Some(b) = q.block_execution {
        members.push(("block_execution", Json::Bool(b)));
    }
    obj(members).to_text()
}

/// Decodes a query/aggregate request body.
pub fn decode_query_request(body: &str) -> Result<QueryRequest, String> {
    let j = parse(body)?;
    Ok(QueryRequest {
        sql: j
            .get("sql")
            .and_then(Json::as_str)
            .ok_or("missing sql")?
            .to_string(),
        block_execution: j.get("block_execution").and_then(Json::as_bool),
    })
}

/// Encodes a query result body.
pub fn encode_rows(r: &WireRows) -> String {
    let mut out = String::new();
    write_rows(&mut out, &r.docs, r.postings_scanned, r.docs_scanned);
    out
}

/// Appends a query result body to `out`: the same bytes as
/// `encode_doc`'s tagged documents in an `obj` tree, written in one
/// pass with no tree and no per-value allocation. The server replies
/// straight from the engine's rows through this, and [`encode_rows`]
/// is this over a [`WireRows`].
pub(crate) fn write_rows(out: &mut String, docs: &[Document], postings: u64, scanned: u64) {
    out.push_str("{\"rows\":[");
    let start = out.len();
    for (i, d) in docs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if i == 1 {
            // Size the rest of the body after the first row's length.
            out.reserve((out.len() - start) * (docs.len() - 1));
        }
        write_doc(out, d);
    }
    let _ = write!(
        out,
        "],\"postings_scanned\":{postings},\"docs_scanned\":{scanned}}}"
    );
}

/// Appends `encode_doc(d).to_text()` to `out`.
fn write_doc(out: &mut String, d: &Document) {
    let _ = write!(
        out,
        "{{\"tenant\":{},\"record\":{},\"created_at\":{},\"fields\":[",
        d.tenant_id.0, d.record_id.0, d.created_at
    );
    for (i, (name, v)) in d.fields().enumerate() {
        out.push_str(if i > 0 { ",[\"" } else { "[\"" });
        escape_into(out, name);
        out.push_str("\",");
        write_value(out, v);
        out.push(']');
    }
    out.push_str("],\"attrs\":[");
    for (i, (k, v)) in d.attrs().iter().enumerate() {
        out.push_str(if i > 0 { ",[\"" } else { "[\"" });
        escape_into(out, k);
        out.push_str("\",\"");
        escape_into(out, v);
        out.push_str("\"]");
    }
    out.push_str("]}");
}

/// Appends `encode_value(v).to_text()` to `out`.
fn write_value(out: &mut String, v: &FieldValue) {
    let _ = match v {
        FieldValue::Null => {
            out.push_str("{\"t\":\"null\"}");
            Ok(())
        }
        FieldValue::Bool(b) => write!(out, "{{\"t\":\"bool\",\"v\":{b}}}"),
        FieldValue::Int(i) => write!(out, "{{\"t\":\"int\",\"v\":{i}}}"),
        // Float text never needs escaping.
        FieldValue::Float(f) => write!(out, "{{\"t\":\"float\",\"v\":\"{f}\"}}"),
        FieldValue::Timestamp(t) => write!(out, "{{\"t\":\"ts\",\"v\":{t}}}"),
        FieldValue::Str(s) => {
            out.push_str("{\"t\":\"str\",\"v\":\"");
            escape_into(out, s);
            out.push_str("\"}");
            Ok(())
        }
    };
}

/// Decodes a query result body.
pub fn decode_rows(body: &str) -> Result<WireRows, String> {
    let j = parse(body)?;
    let rows = j.get("rows").and_then(Json::as_arr).ok_or("missing rows")?;
    Ok(WireRows {
        docs: rows.iter().map(decode_doc).collect::<Result<_, _>>()?,
        postings_scanned: j
            .get("postings_scanned")
            .and_then(Json::as_u64)
            .ok_or("missing postings_scanned")?,
        docs_scanned: j
            .get("docs_scanned")
            .and_then(Json::as_u64)
            .ok_or("missing docs_scanned")?,
    })
}

/// Encodes an aggregate result body.
pub fn encode_agg(a: &WireAgg) -> String {
    obj(vec![
        (
            "rows",
            Json::Arr(
                a.rows
                    .iter()
                    .map(|(group, values)| {
                        obj(vec![
                            ("group", encode_opt_value(group)),
                            (
                                "values",
                                Json::Arr(values.iter().map(encode_value).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("payload_reads", Json::UInt(a.payload_reads)),
    ])
    .to_text()
}

/// Decodes an aggregate result body.
pub fn decode_agg(body: &str) -> Result<WireAgg, String> {
    let j = parse(body)?;
    let mut rows = Vec::new();
    for r in j.get("rows").and_then(Json::as_arr).ok_or("missing rows")? {
        let group = decode_opt_value(r.get("group").ok_or("agg row missing group")?)?;
        let values = r
            .get("values")
            .and_then(Json::as_arr)
            .ok_or("agg row missing values")?
            .iter()
            .map(decode_value)
            .collect::<Result<_, _>>()?;
        rows.push((group, values));
    }
    Ok(WireAgg {
        rows,
        payload_reads: j
            .get("payload_reads")
            .and_then(Json::as_u64)
            .ok_or("missing payload_reads")?,
    })
}

/// Encodes an error body.
pub fn encode_error(e: &WireError) -> String {
    let mut members = vec![
        ("code", Json::Str(e.code.clone())),
        ("message", Json::Str(e.message.clone())),
    ];
    if let Some(ms) = e.retry_after_ms {
        members.push(("retry_after_ms", Json::UInt(ms)));
    }
    obj(vec![("error", obj(members))]).to_text()
}

/// Decodes an error body.
pub fn decode_error(body: &str) -> Result<WireError, String> {
    let j = parse(body)?;
    let e = j.get("error").ok_or("missing error object")?;
    Ok(WireError {
        code: e
            .get("code")
            .and_then(Json::as_str)
            .ok_or("error missing code")?
            .to_string(),
        message: e
            .get("message")
            .and_then(Json::as_str)
            .ok_or("error missing message")?
            .to_string(),
        retry_after_ms: e.get("retry_after_ms").and_then(Json::as_u64),
    })
}

/// Encodes a point-lookup request (`POST /v1/get`).
pub(crate) fn encode_get_request(
    tenant: TenantId,
    record: RecordId,
    created_at: TimestampMs,
) -> String {
    obj(vec![
        ("tenant", Json::UInt(tenant.0)),
        ("record", Json::UInt(record.0)),
        ("created_at", Json::UInt(created_at)),
    ])
    .to_text()
}

/// Decodes a point-lookup request.
pub(crate) fn decode_get_request(body: &str) -> Result<(TenantId, RecordId, TimestampMs), String> {
    let j = parse(body)?;
    Ok((
        TenantId(
            j.get("tenant")
                .and_then(Json::as_u64)
                .ok_or("missing tenant")?,
        ),
        RecordId(
            j.get("record")
                .and_then(Json::as_u64)
                .ok_or("missing record")?,
        ),
        j.get("created_at")
            .and_then(Json::as_u64)
            .ok_or("missing created_at")?,
    ))
}

/// Encodes a point-lookup response (`doc: null` = not found).
pub(crate) fn encode_get_response(doc: Option<&Document>) -> String {
    obj(vec![("doc", doc.map_or(Json::Null, encode_doc))]).to_text()
}

/// Decodes a point-lookup response.
pub(crate) fn decode_get_response(body: &str) -> Result<Option<Document>, String> {
    let j = parse(body)?;
    match j.get("doc").ok_or("missing doc")? {
        Json::Null => Ok(None),
        d => decode_doc(d).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Document {
        Document::builder(TenantId(10086), RecordId(7), 1_000)
            .field("status", 1i64)
            .field("amount", FieldValue::Float(3.25))
            .field("flag", FieldValue::Bool(true))
            .field("none", FieldValue::Null)
            .field("when", FieldValue::Timestamp(123_456))
            .field("title", "rust \"quoted\" \n book")
            .attr("color", "red")
            .attr("size", "xl")
            .build()
    }

    #[test]
    fn doc_round_trips() {
        let d = sample_doc();
        assert_eq!(
            decode_doc(&parse(&encode_doc(&d).to_text()).unwrap()).unwrap(),
            d
        );
    }

    #[test]
    fn integral_float_stays_float() {
        let d = Document::builder(TenantId(1), RecordId(1), 1)
            .field("amount", FieldValue::Float(1.0))
            .build();
        let back = decode_doc(&parse(&encode_doc(&d).to_text()).unwrap()).unwrap();
        assert_eq!(back.get("amount"), Some(FieldValue::Float(1.0)));
        assert_eq!(back, d);
    }

    #[test]
    fn write_request_round_trips() {
        let r = WriteRequest {
            ops: vec![
                WireOp::Insert(sample_doc()),
                WireOp::Update(sample_doc()),
                WireOp::Delete {
                    tenant: TenantId(3),
                    record: RecordId(9),
                    created_at: 77,
                },
            ],
        };
        assert_eq!(decode_write_request(&encode_write_request(&r)).unwrap(), r);
    }

    #[test]
    fn ack_rows_agg_error_round_trip() {
        let a = WriteAck {
            applied: 3,
            per_shard: vec![(0, 1), (5, 2)],
        };
        assert_eq!(decode_write_ack(&encode_write_ack(&a)).unwrap(), a);

        let rows = WireRows {
            docs: vec![sample_doc()],
            postings_scanned: 10,
            docs_scanned: 4,
        };
        assert_eq!(decode_rows(&encode_rows(&rows)).unwrap(), rows);

        let agg = WireAgg {
            rows: vec![
                (None, vec![FieldValue::Int(3)]),
                (
                    Some(FieldValue::Str("zj".into())),
                    vec![FieldValue::Float(2.5), FieldValue::Int(1)],
                ),
            ],
            payload_reads: 0,
        };
        assert_eq!(decode_agg(&encode_agg(&agg)).unwrap(), agg);

        let e = WireError {
            code: "rate_limited".into(),
            message: "tenant 5 over budget".into(),
            retry_after_ms: Some(40),
        };
        assert_eq!(decode_error(&encode_error(&e)).unwrap(), e);
        assert_eq!(e.status(), 429);
    }
}
