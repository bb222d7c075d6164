//! Output checks. Any failure makes the run incorrect (non-zero exit).

use crate::inputs::{Kind, RecordKey, Request, SPIKE_TENANT, T0};
use crate::report::Report;
use crate::run::Source;
use crate::stack;
use crate::util::{self, rows_signature};
use esdb_common::{Clock, ManualClock, RecordId, TenantId};
use esdb_core::{Esdb, EsdbReader, MigrationPhase};
use esdb_query::QueryOptions;
use esdb_server::wire::{self, WireAgg, WireRows};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Unique queries replayed in a full run; a `--quick` run replays all.
const VERIFY_UNIQUE_MAX: usize = 6_000;
/// Point lookups after the reopen.
const SAMPLED_GETS: usize = 1_000;

/// The rows signature the embedded reader gives for a read request:
/// same SQL, same wire encoding, no socket.
fn embedded_signature(reader: &EsdbReader, req: &Request) -> Result<u64, String> {
    let body = std::str::from_utf8(req.body()).map_err(|e| e.to_string())?;
    let sql = wire::decode_query_request(body)?.sql;
    let text = match req.kind {
        Kind::Query => {
            let rows = reader
                .query_opts(&sql, QueryOptions::default())
                .map_err(|e| e.to_string())?;
            wire::encode_rows(&WireRows::from_rows(&rows))
        }
        Kind::Aggregate => {
            let agg = reader
                .aggregate_opts(&sql, QueryOptions::default())
                .map_err(|e| e.to_string())?;
            wire::encode_agg(&WireAgg::from_agg(&agg))
        }
        Kind::Write => return Err("not a read".into()),
    };
    Ok(rows_signature(text.as_bytes()))
}

/// Read-only workloads: what came back over TCP must equal what the
/// embedded `EsdbReader` answers for the same queries on the same
/// (unchanged) data. Repeated queries are replayed once per distinct
/// query and every occurrence is compared; unique queries are replayed
/// at an even stride (all of them with `--quick`).
pub fn read_signatures(
    db: &Esdb,
    reads: &[Request],
    signatures: &[u64],
    quick: bool,
    report: &mut Report,
) {
    let received = signatures.iter().fold(0u64, |a, s| a.wrapping_add(*s));
    report.note("output_fnv", format!("{received:016x}"));
    if reads.len() != signatures.len() {
        report.check(
            "TCP == embedded signatures",
            false,
            "a request got no reply",
        );
        return;
    }
    let unique = reads.iter().filter(|r| r.query_id == u32::MAX).count();
    let stride = if quick {
        1
    } else {
        unique.div_ceil(VERIFY_UNIQUE_MAX).max(1)
    };
    let reader = db.reader();
    let mut by_id: HashMap<u32, u64> = HashMap::new();
    let (mut compared, mut replayed, mut mismatched, mut seen_unique) = (0u64, 0u64, 0u64, 0usize);
    for (req, &got) in reads.iter().zip(signatures) {
        let expected = if req.query_id != u32::MAX {
            match by_id.get(&req.query_id) {
                Some(&sig) => Ok(sig),
                None => {
                    replayed += 1;
                    embedded_signature(&reader, req).inspect(|&sig| {
                        by_id.insert(req.query_id, sig);
                    })
                }
            }
        } else {
            seen_unique += 1;
            if (seen_unique - 1) % stride != 0 {
                continue;
            }
            replayed += 1;
            embedded_signature(&reader, req)
        };
        compared += 1;
        if expected != Ok(got) {
            mismatched += 1;
        }
    }
    report.check(
        "TCP == embedded signatures",
        mismatched == 0 && compared > 0,
        format!(
            "{compared} of {} replies compared against {replayed} embedded replays, {mismatched} differ",
            reads.len()
        ),
    );
}

/// `mixed_spike` must have driven hot-tenant detection → rule commit →
/// live migration to completion for the flash-sale tenant.
pub fn migration_completed(db: &Esdb, report: &mut Report) {
    let status = db
        .migrations_snapshot()
        .into_iter()
        .find(|s| s.tenant == TenantId(SPIKE_TENANT));
    report.check(
        "flash-sale tenant migrated live",
        status
            .as_ref()
            .is_some_and(|s| s.phase == MigrationPhase::Done),
        match &status {
            Some(s) => format!(
                "span {} -> {}, {} rows moved, phase {}",
                s.old_span,
                s.new_span,
                s.rows_moved,
                s.phase.as_str()
            ),
            None => "no migration registered for the tenant".to_string(),
        },
    );
}

/// What the post-run storage pass measured.
#[derive(Default)]
pub struct Post {
    /// Bytes on disk after the final flush (segments + live translog).
    pub disk_bytes: u64,
    pub segment_bytes: u64,
    /// Translog bytes on disk when the timed phase ended (before any
    /// flush): everything written since the preload's flush.
    pub translog_bytes: u64,
    pub reopen_ms: f64,
    pub flush_ms: f64,
}

pub fn is_translog(name: &str) -> bool {
    name.starts_with("translog-")
}

/// The durability check of the writing workloads. The drained engine is
/// dropped **without** a flush, so the only durable copy of everything
/// written since the preload is the translog; the data directory is then
/// reopened and every acknowledged insert must be there: the live count
/// matches, sampled live records are found, sampled deleted ones are
/// not. Only then does the one `flush()` of the run happen.
pub fn durability(
    db: Esdb,
    dir: &Path,
    clock: &ManualClock,
    src: &Source,
    report: &mut Report,
) -> Post {
    let mut post = Post {
        translog_bytes: util::dir_bytes_where(dir, &is_translog),
        ..Post::default()
    };
    let now_ms = clock.now();
    drop(db);

    let t0 = Instant::now();
    let mut engine = stack::open(dir, now_ms.max(T0));
    post.reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
    engine.db.refresh();

    let live: Vec<RecordKey> = src.writers.iter().flat_map(|w| w.live_records()).collect();
    let expected = src.preload.as_ref().map_or(0, |p| p.docs.len()) + live.len();
    let stats = engine.db.stats();
    report.check(
        "acked inserts durable: live count after reopen",
        stats.live_docs + stats.buffered_docs == expected,
        format!(
            "expected {expected}, found {}",
            stats.live_docs + stats.buffered_docs
        ),
    );

    let reader = engine.db.reader();
    let get = |k: &RecordKey| reader.get(TenantId(k.tenant), RecordId(k.record), k.created_at);
    let mut rng = StdRng::seed_from_u64(live.len() as u64);
    let missing = (0..SAMPLED_GETS.min(live.len()))
        .filter(|_| get(&live[rng.random_range(0..live.len())]).is_none())
        .count();
    let deleted: Vec<&RecordKey> = src.writers.iter().flat_map(|w| &w.deleted).collect();
    let resurrected = deleted
        .iter()
        .take(SAMPLED_GETS)
        .filter(|k| get(k).is_some())
        .count();
    report.check(
        "acked inserts durable: sampled gets after reopen",
        missing == 0 && resurrected == 0 && !live.is_empty(),
        format!(
            "{missing} of {} live records missing, {resurrected} of {} deleted records present",
            SAMPLED_GETS.min(live.len()),
            deleted.len().min(SAMPLED_GETS)
        ),
    );

    let t0 = Instant::now();
    let flushed = engine.db.flush();
    post.flush_ms = t0.elapsed().as_secs_f64() * 1e3;
    report.check("final flush", flushed.is_ok(), format!("{flushed:?}"));
    post.disk_bytes = util::dir_bytes_where(dir, &|_| true);
    post.segment_bytes = post.disk_bytes - util::dir_bytes_where(dir, &is_translog);
    post
}
