//! The traced run: where a request's time goes, layer by layer.
//!
//! Spans are recorded from this file, around public calls — nothing in
//! the engine is instrumented for it. Two kinds:
//!
//! * **Pipeline replay.** Per request, the exact call sequence
//!   `esdb-server/src/server.rs` makes between socket read and socket
//!   write: `http::read_request` on the encoded bytes,
//!   `TokenTable::resolve`, `AdmissionController::admit`,
//!   `wire::decode_*`, the tenant confinement check, the core call
//!   (`EsdbReader::query_opts` / `aggregate_opts`, or `EsdbWriter::write`
//!   per op), `wire::encode_*`, `http::write_response` into a buffer.
//!   These stage spans are children of one request span and must close
//!   to it within 5%.
//! * **Shadow spans.** For a deterministic 1-in-16 sample, the layers
//!   *below* the core call are run again standalone and recorded as
//!   flagged children of the core span: `parse_sql` → `translate` →
//!   `optimize`, `Esdb::read_span`, per shard `pin_snapshot` + block
//!   execution, the gather; for writes `esdb_routing::place`,
//!   `Translog::append_batch` and `ShardEngine::apply_group`/`refresh`
//!   on a scratch shard. They repeat work the core call already did, so
//!   they are excluded from closure and never run inside a timed span.
//!
//! The replay runs on rounds of the same seeded streams the TCP phase
//! used (the *next* rounds: a write cannot be applied twice, and a cold
//! query replayed would be a cache hit), once with spans off and once
//! with spans on; the ratio of the two medians is the tracing overhead.

use crate::inputs::{Kind, Request};
use crate::report::Report;
use crate::run::Source;
use crate::stack::{self, advance_to, DataDir};
use crate::util::{median, percentile_sorted};
use crate::{Args, Workload};
use esdb_common::{ManualClock, ShardId, TenantId};
use esdb_core::{Esdb, EsdbReader, EsdbStats, EsdbWriter, MigrationPhase};
use esdb_doc::WriteOp;
use esdb_query::{
    aggregate_prepared_blocks_on_snapshot, aggregate_pushdown_eligible, block_eligible,
    execute_prepared_blocks_on_snapshot, merge_results, optimize, parse_sql, translate,
    AggPartials, PreparedPlan, QueryOptions,
};
use esdb_server::http;
use esdb_server::wire::{self, WireAgg, WireRows, WriteAck};
use esdb_server::{AdmissionController, Decision, TokenTable};
use esdb_storage::shard::{ShardConfig, ShardEngine};
use esdb_storage::translog::Translog;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// One request in this many gets shadow spans.
const SHADOW_EVERY: usize = 16;
/// Requests per replay pass (spans stay in memory until exit).
const REPLAY_MAX: usize = 8_000;
/// Scratch-shard refresh threshold: the served engine's own.
const SCRATCH_REFRESH_DOCS: usize = 512;

pub struct Span {
    trace_id: u32,
    span_id: u32,
    parent: u32,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    shadow: bool,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; `on = false` runs the closures untimed.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u32,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index, to be closed with `close`.
    fn open(
        &mut self,
        trace_id: u32,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        shadow: bool,
    ) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let span_id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now();
        self.spans.push(Span {
            trace_id,
            span_id,
            parent,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            shadow,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, index: usize) {
        if index != usize::MAX {
            self.spans[index].end_ns = self.now();
        }
    }

    fn id_of(&self, index: usize) -> u32 {
        self.spans.get(index).map_or(0, |s| s.span_id)
    }

    /// Runs `f` inside a span.
    fn stage<T>(
        &mut self,
        at: (u32, u32),
        layer: &'static str,
        name: &'static str,
        shadow: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(at.0, at.1, layer, name, shadow);
        let out = f();
        self.close(index);
        out
    }
}

/// What one replayed request produced, beyond its spans.
#[derive(Default)]
struct Served {
    total_ns: u64,
    rows: u64,
    examined: u64,
    blocks_scanned: u64,
    blocks_avoided: u64,
    /// Span id of the core call (parent of the shadow spans).
    core_span: u32,
}

/// The server's request pipeline, rebuilt from its public pieces.
struct Pipeline<'a> {
    db: &'a Esdb,
    clock: &'a ManualClock,
    tokens: TokenTable,
    admission: AdmissionController,
    reader: EsdbReader,
    writer: EsdbWriter,
    /// Stands in for the socket on the response side.
    sink: Vec<u8>,
}

impl<'a> Pipeline<'a> {
    fn new(db: &'a Esdb, clock: &'a ManualClock) -> Pipeline<'a> {
        Pipeline {
            db,
            clock,
            tokens: stack::tokens(),
            // Exactly how `esdb_server::start` wires admission.
            admission: AdmissionController::new(
                stack::admission(),
                db.clock(),
                Arc::clone(db.telemetry()),
                Some(db.workload_monitor()),
            ),
            reader: db.reader(),
            writer: db.writer(),
            sink: Vec::new(),
        }
    }

    fn serve(&mut self, req: &Request, tr: &mut Tracer, trace_id: u32) -> Result<Served, String> {
        if req.kind == Kind::Write {
            advance_to(self.clock, req.at_ms);
        }
        let t0 = Instant::now();
        let root = tr.open(trace_id, 0, "server", "request", false);
        let at = (trace_id, tr.id_of(root));
        let mut served = Served::default();

        let mut buf = Vec::new();
        let http_req = tr
            .stage(at, "server", "http_parse", false, || {
                http::read_request(&mut std::io::Cursor::new(&req.bytes[..]), &mut buf, None)
            })
            .map_err(|e| format!("{e:?}"))?;
        let identity = tr
            .stage(at, "server", "auth", false, || {
                http_req.bearer_token().and_then(|t| self.tokens.resolve(t))
            })
            .ok_or("unknown token")?;
        let permit = match tr.stage(at, "server", "admit", false, || {
            self.admission.admit(identity.tenant)
        }) {
            Decision::Admitted(p) => p,
            Decision::Rejected { reason, .. } => return Err(format!("rejected: {reason:?}")),
        };
        let body = std::str::from_utf8(&http_req.body).map_err(|e| e.to_string())?;
        let text = match req.kind {
            Kind::Write => {
                let request = tr.stage(at, "server", "wire_decode", false, || {
                    wire::decode_write_request(body)
                })?;
                let confined = tr.stage(at, "server", "confine", false, || {
                    request.ops.iter().all(|op| op.tenant() == identity.tenant)
                });
                if !confined {
                    return Err("write escapes its tenant".into());
                }
                let core = tr.open(trace_id, at.1, "core", "write_call", false);
                served.core_span = tr.id_of(core);
                let mut per_shard: BTreeMap<u32, u64> = BTreeMap::new();
                let mut applied = 0;
                for op in request.ops {
                    let shard = self
                        .writer
                        .write(op.into_write_op())
                        .map_err(|e| e.to_string())?;
                    applied += 1;
                    *per_shard.entry(shard.0).or_insert(0) += 1;
                }
                tr.close(core);
                tr.stage(at, "server", "wire_encode", false, || {
                    wire::encode_write_ack(&WriteAck {
                        applied,
                        per_shard: per_shard.into_iter().collect(),
                    })
                })
            }
            Kind::Query | Kind::Aggregate => {
                let q = tr.stage(at, "server", "wire_decode", false, || {
                    wire::decode_query_request(body)
                })?;
                tr.stage(at, "server", "confine", false, || {
                    esdb_server::confine::ensure_confined(&q.sql, identity.tenant)
                })
                .map_err(|e| e.message)?;
                let core = tr.open(trace_id, at.1, "core", "query_call", false);
                served.core_span = tr.id_of(core);
                if req.kind == Kind::Query {
                    let rows = self
                        .reader
                        .query_opts(&q.sql, QueryOptions::default())
                        .map_err(|e| e.to_string())?;
                    tr.close(core);
                    served.rows = rows.docs.len() as u64;
                    served.examined = rows.postings_scanned + rows.docs_scanned;
                    served.blocks_scanned = rows.blocks.scanned;
                    served.blocks_avoided = rows.blocks.skipped + rows.blocks.pruned;
                    tr.stage(at, "server", "wire_encode", false, || {
                        wire::encode_rows(&WireRows::from_rows(&rows))
                    })
                } else {
                    let agg = self
                        .reader
                        .aggregate_opts(&q.sql, QueryOptions::default())
                        .map_err(|e| e.to_string())?;
                    tr.close(core);
                    served.rows = agg.rows.len() as u64;
                    served.examined = agg.postings_scanned + agg.docs_scanned;
                    served.blocks_scanned = agg.blocks.scanned;
                    served.blocks_avoided = agg.blocks.skipped + agg.blocks.pruned;
                    tr.stage(at, "server", "wire_encode", false, || {
                        wire::encode_agg(&WireAgg::from_agg(&agg))
                    })
                }
            }
        };
        self.sink.clear();
        let sink = &mut self.sink;
        tr.stage(at, "server", "http_write", false, || {
            http::write_response(sink, 200, "application/json", &text, None)
        })
        .map_err(|e| e.to_string())?;
        drop(permit);
        tr.close(root);
        served.total_ns = t0.elapsed().as_nanos() as u64;
        Ok(served)
    }

    /// Shadow children of a read's core span: the layers below it, run
    /// again standalone (no cache, shards in span order).
    fn shadow_read(&self, req: &Request, tr: &mut Tracer, at: (u32, u32)) -> Result<(), String> {
        let body = std::str::from_utf8(req.body()).map_err(|e| e.to_string())?;
        let sql = wire::decode_query_request(body)?.sql;
        let ast = tr
            .stage(at, "query", "parse_sql", true, || parse_sql(&sql))
            .map_err(|e| e.to_string())?;
        let query = tr.stage(at, "query", "translate", true, || translate(ast));
        let schema = self.db.schema();
        let plan = tr.stage(at, "query", "optimize", true, || {
            optimize(&query.filter, schema)
        });
        let span = tr.stage(at, "routing", "read_span", true, || {
            self.db.read_span(TenantId(req.tenant))
        });
        if !block_eligible(&plan) {
            return Ok(());
        }
        let prepared = PreparedPlan::new(&plan);
        let shards: Vec<ShardId> = span.iter().collect();
        if req.kind == Kind::Query {
            let mut results = Vec::with_capacity(shards.len());
            for shard in shards {
                let snap = tr.stage(at, "core", "pin_snapshot", true, || {
                    self.db.pin_snapshot(shard)
                });
                results.push(tr.stage(at, "query", "execute_blocks", true, || {
                    execute_prepared_blocks_on_snapshot(&query, &prepared, snap.as_ref(), None)
                }));
            }
            tr.stage(at, "query", "gather", true, || {
                merge_results(results, query.order_by.as_ref(), query.limit)
            });
        } else if aggregate_pushdown_eligible(&query, schema) {
            let mut partials = Vec::with_capacity(shards.len());
            for shard in shards {
                let snap = tr.stage(at, "core", "pin_snapshot", true, || {
                    self.db.pin_snapshot(shard)
                });
                partials.push(tr.stage(at, "query", "execute_blocks", true, || {
                    aggregate_prepared_blocks_on_snapshot(&query, &prepared, snap.as_ref(), None)
                }));
            }
            tr.stage(at, "query", "gather", true, || {
                let mut merged = AggPartials::default();
                for p in partials {
                    merged.merge(p);
                }
                merged.finish(&query.aggregates, query.group_by.is_some())
            });
        }
        Ok(())
    }
}

/// A standalone shard and translog for the storage-layer shadow spans.
struct Scratch {
    _dir: DataDir,
    engine: ShardEngine,
    translog: Translog,
    buffered: usize,
}

impl Scratch {
    fn open(db: &Esdb) -> Scratch {
        let dir = DataDir::create("scratch");
        let engine = ShardEngine::open(db.schema().clone(), ShardConfig::new(dir.0.join("shard")))
            .expect("open scratch shard");
        let translog = Translog::open(dir.0.join("translog")).expect("open scratch translog");
        Scratch {
            _dir: dir,
            engine,
            translog,
            buffered: 0,
        }
    }

    /// Shadow children of a write's core span.
    fn shadow_write(
        &mut self,
        db: &Esdb,
        req: &Request,
        tr: &mut Tracer,
        at: (u32, u32),
    ) -> Result<(), String> {
        let body = std::str::from_utf8(req.body()).map_err(|e| e.to_string())?;
        let ops: Vec<WriteOp> = wire::decode_write_request(body)?
            .ops
            .into_iter()
            .map(|op| op.into_write_op())
            .collect();
        let span = db.read_span(TenantId(req.tenant));
        tr.stage(at, "routing", "place", true, || {
            for op in &ops {
                std::hint::black_box(esdb_routing::place(
                    op.doc.tenant_id,
                    op.doc.record_id,
                    span.len,
                    span.n,
                ));
            }
        });
        let appended = tr.stage(at, "storage", "translog_append_batch", true, || {
            self.translog.append_batch(&ops, true)
        });
        let applied = tr.stage(at, "storage", "apply_group", true, || {
            self.engine.apply_group(&ops, true)
        });
        if appended.iter().chain(&applied).any(|r| r.is_err()) {
            return Err("scratch shard refused a write".into());
        }
        self.buffered += ops.len();
        if self.buffered >= SCRATCH_REFRESH_DOCS {
            self.buffered = 0;
            tr.stage(at, "storage", "refresh", true, || self.engine.refresh());
        }
        Ok(())
    }
}

/// What the TCP phase of the traced run hands over.
pub struct TcpView<'a> {
    /// Latencies of the primary request kind over TCP, ns, sorted.
    pub latency_sorted: &'a [u64],
    pub req_bytes: u64,
    pub resp_bytes: u64,
    pub requests: u64,
    /// Documents acknowledged per shard, from the write acks.
    pub acked_per_shard: &'a [u64],
    pub rejected_total: u64,
    /// Paced writer: delay from due time to ack, and how late it sent;
    /// both sorted, empty for closed-loop workloads.
    pub write_delay_sorted: &'a [u64],
    pub late_sorted: &'a [u64],
    /// Share of the timed phase's operations that hit the hottest tenant.
    pub hot_tenant_share: f64,
    /// Engine counters when serving began.
    pub baseline: &'a Baseline,
}

/// Engine counters captured when serving begins, for deltas.
pub struct Baseline {
    pub stats: EsdbStats,
    pub migrations_done: u64,
    pub rows_moved: u64,
    /// `(count, sum)` of the write group-size histogram (traced runs).
    group_sizes: (u64, u128),
}

impl Baseline {
    pub fn capture(db: &Esdb, traced: bool) -> Baseline {
        let (migrations_done, rows_moved) = migration_totals(db);
        Baseline {
            stats: db.stats(),
            migrations_done,
            rows_moved,
            group_sizes: if traced { group_sizes(db) } else { (0, 0) },
        }
    }
}

/// `(count, sum)` of `esdb_write_group_size`. Telemetry series are
/// looked up by name and read as absent (zero) if a later change
/// renames or drops them.
fn group_sizes(db: &Esdb) -> (u64, u128) {
    db.telemetry_snapshot()
        .histograms
        .iter()
        .filter(|(name, _, _)| name == "esdb_write_group_size")
        .fold((0, 0), |(count, sum), (_, _, h)| {
            (count + h.count(), sum + h.sum())
        })
}

fn migration_totals(db: &Esdb) -> (u64, u64) {
    let statuses = db.migrations_snapshot();
    (
        statuses
            .iter()
            .filter(|s| s.phase == MigrationPhase::Done)
            .count() as u64,
        statuses.iter().map(|s| s.rows_moved).sum(),
    )
}

/// The per-layer metrics of one traced run.
pub struct Layer {
    values: BTreeMap<&'static str, f64>,
}

/// Every per-layer metric, in report order, with its unit. A metric a
/// workload does not exercise is reported as 0 and named in the
/// `absent` note.
const METRICS: &[(&str, &str)] = &[
    ("server.http_parse_us", "us"),
    ("server.admit_us", "us"),
    ("server.confine_us", "us"),
    ("server.wire_decode_us", "us"),
    ("server.wire_encode_us", "us"),
    ("server.transport_us", "us"),
    ("server.req_bytes_per_op", "B"),
    ("server.resp_bytes_per_op", "B"),
    ("server.rejected_total", "count"),
    ("query.parse_us", "us"),
    ("query.optimize_us", "us"),
    ("query.execute_us", "us"),
    ("query.gather_us", "us"),
    ("query.examined_per_row", "ratio"),
    ("query.block_share", "ratio"),
    ("index.blocks_pruned_share", "ratio"),
    ("index.segments_per_shard", "count"),
    ("core.query_call_us", "us"),
    ("core.write_call_us", "us"),
    ("core.self_share", "ratio"),
    ("core.request_cache_hit_rate", "ratio"),
    ("core.filter_cache_hit_rate", "ratio"),
    ("core.cache_evictions", "count"),
    ("core.write_group_size_mean", "count"),
    ("core.shard_busy_skew", "ratio"),
    ("core.migrations_completed", "count"),
    ("core.migration_rows_moved", "count"),
    ("routing.route_us", "us"),
    ("routing.read_fanout_mean", "count"),
    ("routing.rules", "count"),
    ("balancer.rules_committed", "count"),
    ("balancer.max_shard_write_share", "ratio"),
    ("storage.translog_append_us_per_doc", "us"),
    ("storage.apply_us_per_doc", "us"),
    ("storage.refresh_ms", "ms"),
    ("storage.flush_ms", "ms"),
    ("storage.reopen_ms", "ms"),
    ("storage.translog_bytes_per_user_byte", "ratio"),
    ("storage.segment_bytes_per_user_byte", "ratio"),
    ("workload.write_delay_p50_us", "us"),
    ("workload.write_delay_p99_us", "us"),
    ("workload.gen_late_p99_us", "us"),
    ("workload.hot_tenant_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

impl Layer {
    /// Records a metric; a value that could not be computed (0/0)
    /// stays absent.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            METRICS.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        if value.is_finite() {
            self.values.insert(name, value);
        }
    }

    /// Prints every declared metric; the ones never set are 0 and
    /// listed as absent.
    pub fn emit(&self, report: &mut Report) {
        let mut absent = Vec::new();
        for &(name, unit) in METRICS {
            match self.values.get(name) {
                Some(&v) => report.metric(name, v, unit),
                None => {
                    absent.push(name);
                    report.metric(name, 0.0, unit);
                }
            }
        }
        report.note("absent", absent.join(" "));
    }
}

/// Median duration in µs of the spans named `layer.name`; `None` when
/// there are none.
fn median_us(spans: &[Span], layer: &str, name: &str) -> Option<f64> {
    let ns: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.ns() as f64)
        .collect();
    (!ns.is_empty()).then(|| median(&ns) / 1e3)
}

/// Per trace, the summed duration of the spans named `layer.name`.
fn per_trace_ns(spans: &[Span], layer: &str, names: &[&str]) -> BTreeMap<u32, u64> {
    let mut sums = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.layer == layer && names.contains(&s.name))
    {
        *sums.entry(s.trace_id).or_insert(0) += s.ns();
    }
    sums
}

fn median_of_map(m: &BTreeMap<u32, u64>) -> Option<f64> {
    let v: Vec<f64> = m.values().map(|&ns| ns as f64).collect();
    (!v.is_empty()).then(|| median(&v) / 1e3)
}

/// Requests of one replay pass: the next round of the run's streams.
/// `mixed_spike` interleaves them as the server saw them over TCP,
/// `reads_per_write` queries to one write batch: the reader's hit rate,
/// and with it its median, depends on how much is written between two
/// queries.
fn replay_inputs(src: &mut Source, n: usize, reads_per_write: usize) -> Vec<Request> {
    match src.workload {
        Workload::MixedSpike => {
            let Source {
                reader_cycle,
                writers,
                ..
            } = src;
            let every = reads_per_write + 1;
            (0..n)
                .map(|i| {
                    if i % every == every - 1 {
                        writers[0].next()
                    } else {
                        reader_cycle[i % reader_cycle.len()].clone()
                    }
                })
                .collect()
        }
        _ => src.round(0, n),
    }
}

/// What one replay pass produced.
struct Pass {
    /// Per-request outcomes of the primary request kind.
    served: Vec<Served>,
    /// Per sampled read: its trace id and whether the real core call
    /// missed the request cache.
    sampled_miss: Vec<(u32, bool)>,
}

fn replay(
    pipe: &mut Pipeline<'_>,
    scratch: &mut Scratch,
    requests: &[Request],
    tr: &mut Tracer,
    primary: Kind,
) -> Result<Pass, String> {
    let mut served = Vec::with_capacity(requests.len());
    let mut sampled_miss = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        let trace_id = i as u32 + 1;
        let sampled = tr.on && i % SHADOW_EVERY == 0;
        let misses_before = sampled.then(|| pipe.db.stats().request_cache.misses);
        let s = pipe.serve(req, tr, trace_id)?;
        if sampled {
            let at = (trace_id, s.core_span);
            if req.kind == Kind::Write {
                scratch.shadow_write(pipe.db, req, tr, at)?;
            } else {
                let missed = req.kind == Kind::Aggregate
                    || pipe.db.stats().request_cache.misses > misses_before.unwrap_or(0);
                sampled_miss.push((trace_id, missed));
                pipe.shadow_read(req, tr, at)?;
            }
        }
        let is_primary = (primary == Kind::Write) == (req.kind == Kind::Write);
        if is_primary {
            served.push(s);
        }
    }
    Ok(Pass {
        served,
        sampled_miss,
    })
}

fn p50_us(served: &[Served]) -> f64 {
    let mut ns: Vec<u64> = served.iter().map(|s| s.total_ns).collect();
    ns.sort_unstable();
    percentile_sorted(&ns, 0.5) as f64 / 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64
    }
}

/// Runs the replay on the drained engine and assembles the per-layer
/// metrics the engine and the TCP phase can supply. The storage numbers
/// that need a reopen (`flush_ms`, `reopen_ms`, the byte ratios) are
/// added by the caller afterwards.
pub fn per_layer(
    args: &Args,
    db: &Esdb,
    clock: &ManualClock,
    src: &mut Source,
    round_requests: usize,
    tcp: &TcpView<'_>,
    report: &mut Report,
) -> Layer {
    let mut layer = Layer {
        values: BTreeMap::new(),
    };
    let primary = if args.workload == Workload::IngestBulk {
        Kind::Write
    } else {
        Kind::Query
    };

    // Counts: deltas of public snapshots across the TCP phase.
    let stats = db.stats();
    let base = &tcp.baseline.stats;
    let rc = (&stats.request_cache, &base.request_cache);
    let fc = (&stats.filter_cache, &base.filter_cache);
    let lookups = |c: (&esdb_common::CacheStats, &esdb_common::CacheStats)| {
        (
            c.0.hits - c.1.hits,
            c.0.hits - c.1.hits + c.0.misses - c.1.misses,
        )
    };
    let (rc_hits, rc_lookups) = lookups(rc);
    let (fc_hits, fc_lookups) = lookups(fc);
    let rc_rate = ratio(rc_hits, rc_lookups);
    layer.set("core.request_cache_hit_rate", rc_rate);
    // The working set must sit where the workload says it does. The
    // counters cover the warm-up too, whose first touches are misses;
    // at a tenth of the op count those weigh ten times more.
    match args.workload {
        Workload::QueryHot => {
            let floor = if args.quick { 0.90 } else { 0.99 };
            report.check(
                "query_hot fits the request cache",
                rc_rate >= floor,
                format!("hit rate {rc_rate:.4}, required >= {floor}"),
            );
        }
        Workload::QueryCold => report.check(
            "query_cold defeats the request cache",
            rc_rate <= 0.05,
            format!("hit rate {rc_rate:.4}, required <= 0.05"),
        ),
        _ => {}
    }
    layer.set("core.filter_cache_hit_rate", ratio(fc_hits, fc_lookups));
    layer.set(
        "core.cache_evictions",
        (rc.0.evictions - rc.1.evictions + fc.0.evictions - fc.1.evictions) as f64,
    );
    let block = stats.block_queries - base.block_queries;
    let scalar = stats.scalar_queries - base.scalar_queries;
    layer.set("query.block_share", ratio(block, block + scalar));
    layer.set(
        "index.segments_per_shard",
        stats.segments as f64 / stats.shard_busy_micros.len() as f64,
    );
    layer.set("routing.rules", stats.rules as f64);
    layer.set(
        "balancer.rules_committed",
        (stats.rules - base.rules) as f64,
    );
    let busy: Vec<u64> = stats
        .shard_busy_micros
        .iter()
        .zip(&base.shard_busy_micros)
        .map(|(now, then)| now - then)
        .collect();
    let busy_total: u64 = busy.iter().sum();
    layer.set(
        "core.shard_busy_skew",
        ratio(
            busy.iter().copied().max().unwrap_or(0) * busy.len() as u64,
            busy_total,
        ),
    );
    let (done, moved) = migration_totals(db);
    layer.set(
        "core.migrations_completed",
        (done - tcp.baseline.migrations_done) as f64,
    );
    layer.set(
        "core.migration_rows_moved",
        (moved - tcp.baseline.rows_moved) as f64,
    );
    let acked: u64 = tcp.acked_per_shard.iter().sum();
    layer.set(
        "balancer.max_shard_write_share",
        ratio(
            tcp.acked_per_shard.iter().copied().max().unwrap_or(0),
            acked,
        ),
    );
    let (groups, grouped_ops) = group_sizes(db);
    let groups = groups - tcp.baseline.group_sizes.0;
    if groups > 0 {
        let ops = (grouped_ops - tcp.baseline.group_sizes.1) as f64;
        layer.set("core.write_group_size_mean", ops / groups as f64);
    }
    layer.set("server.rejected_total", tcp.rejected_total as f64);
    layer.set(
        "server.req_bytes_per_op",
        ratio(tcp.req_bytes, tcp.requests),
    );
    layer.set(
        "server.resp_bytes_per_op",
        ratio(tcp.resp_bytes, tcp.requests),
    );
    layer.set("workload.hot_tenant_share", tcp.hot_tenant_share);
    if !tcp.write_delay_sorted.is_empty() {
        let us = |sorted: &[u64], q| percentile_sorted(sorted, q) as f64 / 1e3;
        layer.set(
            "workload.write_delay_p50_us",
            us(tcp.write_delay_sorted, 0.50),
        );
        layer.set(
            "workload.write_delay_p99_us",
            us(tcp.write_delay_sorted, 0.99),
        );
        layer.set("workload.gen_late_p99_us", us(tcp.late_sorted, 0.99));
    }

    // Times: the pipeline replay, spans off then on.
    let n = round_requests.min(REPLAY_MAX);
    let mut pipe = Pipeline::new(db, clock);
    let mut scratch = Scratch::open(db);
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    on.spans.reserve(n * 12);
    let reads_per_write =
        (tcp.latency_sorted.len() as f64 / tcp.write_delay_sorted.len().max(1) as f64).round();
    let reads_per_write = (reads_per_write as usize).max(1);
    let passes = (|| {
        let inputs_off = replay_inputs(src, n, reads_per_write);
        let pass_off = replay(&mut pipe, &mut scratch, &inputs_off, &mut off, primary)?;
        // A hot query is idempotent and already cached either way, so
        // both passes run the very same requests; writes and cold
        // queries need fresh ones.
        let inputs_on = if src.workload == Workload::QueryHot {
            inputs_off
        } else {
            replay_inputs(src, n, reads_per_write)
        };
        let pass_on = replay(&mut pipe, &mut scratch, &inputs_on, &mut on, primary)?;
        Ok::<_, String>((pass_off.served, pass_on, inputs_on))
    })();
    let (served_off, pass_on, inputs_on) = match passes {
        Ok(p) => p,
        Err(e) => {
            report.check("pipeline replay", false, e);
            return layer;
        }
    };
    report.check(
        "pipeline replay",
        true,
        format!("{n} requests per pass, spans off then on"),
    );
    let spans = &on.spans;

    let off_p50 = p50_us(&served_off);
    let served_on = &pass_on.served;
    let on_p50 = p50_us(served_on);
    let tcp_p50 = percentile_sorted(tcp.latency_sorted, 0.5) as f64 / 1e3;
    layer.set("trace.overhead_share", on_p50 / off_p50 - 1.0);
    report.note("pipeline_p50_us_spans_off", format!("{off_p50:.2}"));
    report.note("pipeline_p50_us_spans_on", format!("{on_p50:.2}"));
    report.note("tcp_p50_us", format!("{tcp_p50:.2}"));
    // The replay serves the same kind of request from the same state as
    // the TCP phase did, minus the socket, so it cannot be slower. Not so
    // in `mixed_spike`: there the TCP reader shared the CPU with a paced
    // writer on a growing engine, the replay runs alone on the end state,
    // and the two medians are not medians of the same thing.
    if src.workload != Workload::MixedSpike {
        layer.set("server.transport_us", tcp_p50 - off_p50);
        report.check(
            "pipeline p50 <= TCP p50",
            off_p50 <= tcp_p50,
            format!("{off_p50:.2} us vs {tcp_p50:.2} us"),
        );
    }

    // Closure: per request, the stage spans against the request span.
    let mut stage_sum: BTreeMap<u32, u64> = BTreeMap::new();
    let mut request_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.shadow) {
        if s.parent == 0 {
            request_ns.insert(s.trace_id, s.ns());
        } else {
            *stage_sum.entry(s.trace_id).or_insert(0) += s.ns();
        }
    }
    // The median request is checked, not the totals: a stage the replay
    // failed to wrap is missing from every request, while the one request
    // the scheduler parked between two stages (the process has one CPU)
    // is not the trace's doing and can outweigh a short pass.
    let covered: Vec<f64> = request_ns
        .iter()
        .map(|(id, &ns)| ratio(stage_sum.get(id).copied().unwrap_or(0), ns))
        .collect();
    let closure = if covered.is_empty() {
        f64::NAN
    } else {
        median(&covered)
    };
    report.check(
        "stage spans close to request span within 5%",
        (0.95..=1.0).contains(&closure),
        format!(
            "stages cover {:.2}% of the median request's time",
            closure * 100.0
        ),
    );

    for (metric, lyr, name) in [
        ("server.http_parse_us", "server", "http_parse"),
        ("server.admit_us", "server", "admit"),
        ("server.confine_us", "server", "confine"),
        ("server.wire_decode_us", "server", "wire_decode"),
        ("server.wire_encode_us", "server", "wire_encode"),
        ("core.query_call_us", "core", "query_call"),
        ("core.write_call_us", "core", "write_call"),
        ("query.optimize_us", "query", "optimize"),
        ("query.gather_us", "query", "gather"),
        (
            "routing.route_us",
            "routing",
            if primary == Kind::Write {
                "place"
            } else {
                "read_span"
            },
        ),
    ] {
        if let Some(us) = median_us(spans, lyr, name) {
            layer.set(metric, us);
        }
    }
    let parse = per_trace_ns(spans, "query", &["parse_sql", "translate"]);
    if let Some(us) = median_of_map(&parse) {
        layer.set("query.parse_us", us);
    }
    let execute = per_trace_ns(spans, "query", &["execute_blocks"]);
    if let Some(us) = median_of_map(&execute) {
        layer.set("query.execute_us", us);
    }
    let fanout: Vec<f64> = {
        let mut per_trace: BTreeMap<u32, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == "pin_snapshot") {
            *per_trace.entry(s.trace_id).or_insert(0.0) += 1.0;
        }
        per_trace.into_values().collect()
    };
    if !fanout.is_empty() {
        layer.set(
            "routing.read_fanout_mean",
            fanout.iter().sum::<f64>() / fanout.len() as f64,
        );
    }

    // Storage shadows: per document.
    let docs_of = |trace_id: u32| inputs_on[trace_id as usize - 1].ops as f64;
    for (metric, name) in [
        (
            "storage.translog_append_us_per_doc",
            "translog_append_batch",
        ),
        ("storage.apply_us_per_doc", "apply_group"),
    ] {
        let per_doc: Vec<f64> = spans
            .iter()
            .filter(|s| s.layer == "storage" && s.name == name)
            .map(|s| s.ns() as f64 / 1e3 / docs_of(s.trace_id))
            .collect();
        if !per_doc.is_empty() {
            layer.set(metric, median(&per_doc));
        }
    }
    if let Some(us) = median_us(spans, "storage", "refresh") {
        layer.set("storage.refresh_ms", us / 1e3);
    }

    // Self share of the core call: what is left of it once the shadow
    // children are taken out. A read's execute and gather children
    // count only when the real call missed the request cache.
    let missed: BTreeMap<u32, bool> = pass_on.sampled_miss.iter().copied().collect();
    let mut children: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.shadow && s.name != "refresh") {
        let below_cache = matches!(s.name, "pin_snapshot" | "execute_blocks" | "gather");
        if below_cache && !missed.get(&s.trace_id).copied().unwrap_or(true) {
            continue;
        }
        *children.entry(s.trace_id).or_insert(0) += s.ns();
    }
    let core_ns: BTreeMap<u32, u64> = spans
        .iter()
        .filter(|s| s.layer == "core" && !s.shadow)
        .map(|s| (s.trace_id, s.ns()))
        .collect();
    let shares: Vec<f64> = children
        .iter()
        .filter_map(|(id, &c)| {
            core_ns
                .get(id)
                .map(|&core| 1.0 - c as f64 / core.max(1) as f64)
        })
        .collect();
    if !shares.is_empty() {
        layer.set("core.self_share", median(&shares));
    }

    // Work ratios from what the replayed core calls returned.
    let sum = |f: fn(&Served) -> u64| served_on.iter().map(f).sum::<u64>();
    if primary != Kind::Write {
        layer.set(
            "query.examined_per_row",
            ratio(sum(|s| s.examined), sum(|s| s.rows)),
        );
        let scanned = sum(|s| s.blocks_scanned);
        let avoided = sum(|s| s.blocks_avoided);
        layer.set(
            "index.blocks_pruned_share",
            ratio(avoided, scanned + avoided),
        );
    }

    write_trace(args, spans, report);
    layer
}

/// Writes the spans, one JSON object per line, at exit.
fn write_trace(args: &Args, spans: &[Span], report: &mut Report) {
    let path = std::env::current_dir()
        .expect("current dir")
        .join(".bench_out")
        .join(format!("trace-{}.jsonl", args.workload.name()));
    let result = (|| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in spans {
            writeln!(
                out,
                "{{\"trace_id\": {}, \"span_id\": {}, \"parent\": {}, \"layer\": \"{}\", \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"shadow\": {}}}",
                s.trace_id, s.span_id, s.parent, s.layer, s.name, s.start_ns, s.end_ns, s.shadow
            )?;
        }
        out.flush()
    })();
    report.check(
        "trace.jsonl written",
        result.is_ok(),
        format!("{} spans -> {}", spans.len(), path.display()),
    );
}
