//! Seeded input generation. Everything the system under test receives is
//! produced here from `--seed` and encoded to wire bytes before any
//! clock starts; the server sees only the generated requests.
//!
//! Time is virtual: documents carry `created_at` stamps on a fixed
//! timeline starting at [`T0`], and the load generator moves the
//! engine's manual clock to each request's stamp before sending it, so
//! rule effective times and read spans depend on the inputs, never on
//! the wall clock.

use crate::util::fnv64;
use esdb_common::zipf::ZipfSampler;
use esdb_common::{RecordId, TenantId};
use esdb_doc::Document;
use esdb_server::wire::{self, QueryRequest, WireOp, WriteRequest};
use esdb_workload::{DocGenerator, QueryGenerator, RateSchedule, TraceGenerator, WriteEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Start of the virtual timeline (ms).
pub const T0: u64 = 1_700_000_000_000;
/// Tenants in the Zipf population; tenant ids are `0..TENANTS`, id =
/// Zipf rank − 1, so tenant 0 is the hottest.
pub const TENANTS: usize = 2_000;
/// Tenant skew (the paper's production regime).
pub const THETA: f64 = 0.99;
/// Distinct sub-attribute names / sampled per document (paper §6.3.3).
const N_ATTRS: usize = 1_500;
const ATTRS_PER_DOC: usize = 20;
/// Preload documents per virtual millisecond.
const PRELOAD_DOCS_PER_MS: u64 = 10;
/// The flash-sale tenant of `mixed_spike`: the coldest Zipf rank, so it
/// holds next to nothing before the spike.
pub const SPIKE_TENANT: u64 = TENANTS as u64 - 1;
/// The hot query set and the preloaded corpus are part of the workloads'
/// definition, like a TPC data set and its templates, not of one run's
/// inputs: 64 queries on 16 tenants are too few for their selectivities
/// and result sizes to average out (with a seeded corpus the median hot
/// query moved by 20% from seed to seed, the same seed by 4%). `--seed`
/// decides every stream of requests: the order of the hot mix, every
/// cold query, every write batch and its tenant.
const SHAPE_SEED: u64 = 0xE5DB;
const CORPUS_SEED: u64 = 0xC0B5;
/// Distinct queries in the hot set, and the tenants they touch.
pub const HOT_QUERIES: usize = 64;
const HOT_TENANTS: usize = 16;

/// The bearer token of a tenant.
pub fn token(tenant: u64) -> String {
    format!("tok-{tenant}")
}

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Write,
    Query,
    Aggregate,
}

/// One encoded request plus what the load generator needs to know
/// about it.
#[derive(Debug, Clone)]
pub struct Request {
    /// The complete HTTP/1.1 request (head + body).
    pub bytes: Vec<u8>,
    pub kind: Kind,
    /// The tenant whose token the request carries.
    pub tenant: u64,
    /// Operations carried: documents in a write batch, 1 for a query.
    pub ops: u32,
    /// Virtual-time stamp; the sender moves the engine clock here first.
    pub at_ms: u64,
    /// Index into the distinct-query table for repeated queries
    /// (`u32::MAX` when the query is unique).
    pub query_id: u32,
}

impl Request {
    fn new(kind: Kind, path: &str, tenant: u64, body: &str, ops: u32, at_ms: u64) -> Request {
        let mut bytes = format!(
            "POST {path} HTTP/1.1\r\nauthorization: Bearer {}\r\ncontent-length: {}\r\n\r\n",
            token(tenant),
            body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(body.as_bytes());
        Request {
            bytes,
            kind,
            tenant,
            ops,
            at_ms,
            query_id: u32::MAX,
        }
    }

    /// The body part of `bytes`.
    pub fn body(&self) -> &[u8] {
        let head_end = self
            .bytes
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("request has a head");
        &self.bytes[head_end + 4..]
    }
}

/// Order-independent hash of the bodies of `requests`, so two runs that
/// were fed different inputs are visibly not comparable.
pub fn input_fnv(requests: &[Request]) -> u64 {
    requests
        .iter()
        .fold(0u64, |acc, r| acc.wrapping_add(fnv64(r.body())))
}

fn wire_len(doc: &Document) -> u64 {
    wire::encode_doc(doc).to_text().len() as u64
}

/// The preloaded corpus: Zipf-skewed transaction logs over [`TENANTS`]
/// tenants on `[T0, end_ms)`, fixed by [`CORPUS_SEED`].
pub struct Preload {
    pub docs: Vec<Document>,
    /// Wire-encoded size of every document (the "user bytes" written).
    pub user_bytes: u64,
    /// End of the preload's span of the virtual timeline.
    pub end_ms: u64,
}

pub fn preload(n_docs: usize) -> Preload {
    let seed = CORPUS_SEED;
    const TICK_MS: u64 = 100;
    let rate = (PRELOAD_DOCS_PER_MS * 1_000) as f64;
    let mut trace = TraceGenerator::new(TENANTS, THETA, RateSchedule::constant(rate), seed);
    let mut gen = DocGenerator::new(N_ATTRS, ATTRS_PER_DOC, seed ^ 0xD0C5);
    let mut docs = Vec::with_capacity(n_docs);
    let mut user_bytes = 0;
    let mut now = T0;
    while docs.len() < n_docs {
        for ev in trace.tick(now, TICK_MS) {
            if docs.len() == n_docs {
                break;
            }
            let doc = gen.materialize(&ev);
            user_bytes += wire_len(&doc);
            docs.push(doc);
        }
        now += TICK_MS;
    }
    Preload {
        docs,
        user_bytes,
        end_ms: now,
    }
}

/// A live record the stream may later update or delete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordKey {
    pub tenant: u64,
    pub record: u64,
    pub created_at: u64,
}

/// A stream of single-tenant write batches (the server confines a
/// tenant token to its own tenant, so a batch never mixes tenants):
/// Zipf-drawn tenants from a [`TraceGenerator`] running at `base_rate`
/// batches per virtual second, optionally overlaid with a second
/// generator pinned to one tenant (the flash sale). Each op is 90%
/// insert / 8% update / 2% delete; updates and deletes only ever target
/// records this stream inserted in an *earlier* batch, so on one
/// connection the target is always acknowledged first.
pub struct WriteStream {
    base: TraceGenerator,
    overlay: Option<TraceGenerator>,
    docs: DocGenerator,
    rng: StdRng,
    batch_ops: usize,
    next_record: u64,
    now_ms: u64,
    /// Live records per tenant id.
    live: Vec<Vec<(u64, u64)>>,
    pub deleted: Vec<RecordKey>,
    pub user_bytes: u64,
    /// Batches due at `now_ms` that `next` has not handed out yet.
    pending: std::collections::VecDeque<u64>,
}

impl WriteStream {
    /// `first_record` keeps the record ids of concurrent streams (and
    /// of the preload) disjoint.
    pub fn new(
        seed: u64,
        start_ms: u64,
        first_record: u64,
        batch_ops: usize,
        base_rate: f64,
    ) -> Self {
        WriteStream {
            base: TraceGenerator::new(TENANTS, THETA, RateSchedule::constant(base_rate), seed),
            overlay: None,
            docs: DocGenerator::new(N_ATTRS, ATTRS_PER_DOC, seed ^ 0xD0C5),
            rng: StdRng::seed_from_u64(seed ^ 0x0B5),
            batch_ops,
            next_record: first_record,
            now_ms: start_ms,
            live: vec![Vec::new(); TENANTS],
            deleted: Vec::new(),
            user_bytes: 0,
            pending: std::collections::VecDeque::new(),
        }
    }

    /// Adds batches for `tenant` alone, at `schedule` batches per
    /// virtual second (absolute virtual time).
    pub fn with_overlay(mut self, tenant: u64, schedule: RateSchedule, seed: u64) -> Self {
        self.overlay = Some(TraceGenerator::new(1, 0.0, schedule, seed).with_offsets(tenant, 0));
        self
    }

    /// Records still live (inserted and not deleted), for the
    /// durability check.
    pub fn live_records(&self) -> impl Iterator<Item = RecordKey> + '_ {
        self.live.iter().enumerate().flat_map(|(tenant, recs)| {
            recs.iter().map(move |&(record, created_at)| RecordKey {
                tenant: tenant as u64,
                record,
                created_at,
            })
        })
    }

    /// The next batch, stamped with the virtual millisecond it is due.
    pub fn next(&mut self) -> Request {
        loop {
            if let Some(tenant) = self.pending.pop_front() {
                return self.batch(tenant);
            }
            let now = self.now_ms;
            self.now_ms += 1;
            for ev in self.base.tick(now, 1) {
                self.pending.push_back(ev.tenant.0);
            }
            if let Some(overlay) = &mut self.overlay {
                for ev in overlay.tick(now, 1) {
                    self.pending.push_back(ev.tenant.0);
                }
            }
        }
    }

    fn batch(&mut self, tenant: u64) -> Request {
        // `next` already advanced past the tick that produced this batch.
        let at_ms = self.now_ms - 1;
        let t = tenant as usize;
        let mut ops = Vec::with_capacity(self.batch_ops);
        // Inserts of this batch join `live` only afterwards, so updates
        // and deletes pick among records of earlier batches.
        let mut fresh = Vec::new();
        for _ in 0..self.batch_ops {
            let roll = self.rng.random_range(0..100u32);
            let known = self.live[t].len();
            if roll < 90 || known == 0 {
                let doc = self.materialize(tenant, self.next_record, at_ms);
                fresh.push((self.next_record, at_ms));
                self.next_record += 1;
                ops.push(WireOp::Insert(doc));
                continue;
            }
            let slot = self.rng.random_range(0..known);
            let (record, created_at) = self.live[t][slot];
            if roll < 98 {
                ops.push(WireOp::Update(self.materialize(tenant, record, created_at)));
            } else {
                self.live[t].swap_remove(slot);
                self.deleted.push(RecordKey {
                    tenant,
                    record,
                    created_at,
                });
                ops.push(WireOp::Delete {
                    tenant: TenantId(tenant),
                    record: RecordId(record),
                    created_at,
                });
            }
        }
        self.live[t].extend(fresh);
        let body = wire::encode_write_request(&WriteRequest { ops });
        Request::new(
            Kind::Write,
            "/v1/write",
            tenant,
            &body,
            self.batch_ops as u32,
            at_ms,
        )
    }

    fn materialize(&mut self, tenant: u64, record: u64, created_at: u64) -> Document {
        let doc = self.docs.materialize(&WriteEvent {
            tenant: TenantId(tenant),
            record: RecordId(record),
            created_at,
            bytes: 0,
        });
        self.user_bytes += wire_len(&doc);
        doc
    }
}

/// Generates query requests against the preloaded span of the timeline.
pub struct QueryStream {
    gen: QueryGenerator,
    rng: StdRng,
    tenants: ZipfSampler,
    /// Time range the queried windows fall in.
    from_ms: u64,
    to_ms: u64,
    /// The engine clock stamp for reads: the end of everything written.
    at_ms: u64,
}

impl QueryStream {
    pub fn new(seed: u64, from_ms: u64, to_ms: u64) -> Self {
        QueryStream {
            gen: QueryGenerator::new(N_ATTRS, seed ^ 0x9E7),
            rng: StdRng::seed_from_u64(seed ^ 0x51A),
            tenants: ZipfSampler::new(TENANTS, THETA),
            from_ms,
            to_ms,
            at_ms: to_ms,
        }
    }

    /// A fresh window of a quarter to a half of the range.
    fn window(&mut self) -> (u64, u64) {
        let span = self.to_ms - self.from_ms;
        let len = self.rng.random_range(span / 4..span / 2);
        let from = self.from_ms + self.rng.random_range(0..span - len);
        (from, from + len)
    }

    fn select(&mut self, tenant: u64) -> Request {
        let (from, to) = self.window();
        let sql = self.gen.generate(TenantId(tenant), from, to);
        self.request(Kind::Query, "/v1/query", tenant, sql)
    }

    fn aggregate(&mut self, tenant: u64) -> Request {
        let (from, to) = self.window();
        let sql = format!(
            "SELECT COUNT(*), SUM(amount) FROM transaction_logs WHERE tenant_id = {tenant} \
             AND created_time BETWEEN {from} AND {to} GROUP BY status"
        );
        self.request(Kind::Aggregate, "/v1/aggregate", tenant, sql)
    }

    fn request(&self, kind: Kind, path: &str, tenant: u64, sql: String) -> Request {
        let body = wire::encode_query_request(&QueryRequest {
            sql,
            block_execution: None,
        });
        Request::new(kind, path, tenant, &body, 1, self.at_ms)
    }

    /// The hot set: [`HOT_QUERIES`] distinct template queries on the
    /// `HOT_TENANTS` hottest tenants, tenants drawn Zipf, windows inside
    /// `[from_ms, to_ms)`. Fixed by [`SHAPE_SEED`], not by `--seed`.
    pub fn hot_set(from_ms: u64, to_ms: u64) -> Vec<Request> {
        let mut shape = QueryStream::new(SHAPE_SEED, from_ms, to_ms);
        let tenants = ZipfSampler::new(HOT_TENANTS, THETA);
        (0..HOT_QUERIES)
            .map(|i| {
                let tenant = tenants.sample(&mut shape.rng) as u64 - 1;
                let mut r = shape.select(tenant);
                r.query_id = i as u32;
                r
            })
            .collect()
    }

    /// `n` requests from `set` in Zipf proportions over its members. How
    /// often each member occurs is fixed (`n · pmf`, the remainder going to
    /// the largest fractions), so every round of `n` carries the same work
    /// whatever the seed; the seed decides the order. Independent draws
    /// made rounds of 1 700 differ by ±10% in cost, because the members'
    /// costs span two orders of magnitude.
    pub fn zipf_mix(&mut self, set: &[Request], n: usize) -> Vec<Request> {
        let zipf = ZipfSampler::new(set.len(), THETA);
        let share: Vec<f64> = (1..=set.len()).map(|k| zipf.pmf(k) * n as f64).collect();
        let mut counts: Vec<usize> = share.iter().map(|s| *s as usize).collect();
        let mut by_fraction: Vec<usize> = (0..set.len()).collect();
        by_fraction.sort_by(|&a, &b| share[b].fract().total_cmp(&share[a].fract()));
        let short = n - counts.iter().sum::<usize>();
        for &i in by_fraction.iter().cycle().take(short) {
            counts[i] += 1;
        }
        let mut out: Vec<Request> = set
            .iter()
            .zip(counts)
            .flat_map(|(r, c)| std::iter::repeat_n(r, c).cloned())
            .collect();
        for i in (1..out.len()).rev() {
            out.swap(i, self.rng.random_range(0..=i));
        }
        out
    }

    /// `n` queries, every one distinct: Zipf tenant over the whole
    /// population, fresh window and filters, one in five an aggregate.
    pub fn cold(&mut self, n: usize) -> Vec<Request> {
        (0..n)
            .map(|_| {
                let tenant = self.tenants.sample(&mut self.rng) as u64 - 1;
                if self.rng.random_range(0..5u32) == 0 {
                    self.aggregate(tenant)
                } else {
                    self.select(tenant)
                }
            })
            .collect()
    }

    /// Distinct queries on one tenant (the spiking tenant's readers),
    /// fixed by [`SHAPE_SEED`] like the hot set.
    pub fn tenant_set(
        tenant: u64,
        n: usize,
        first_id: u32,
        from_ms: u64,
        to_ms: u64,
    ) -> Vec<Request> {
        let mut shape = QueryStream::new(SHAPE_SEED ^ tenant, from_ms, to_ms);
        (0..n)
            .map(|i| {
                let mut r = shape.select(tenant);
                r.query_id = first_id + i as u32;
                r
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How often each member of `set` occurs in `mix`.
    fn counts(mix: &[Request], set: &[Request]) -> Vec<usize> {
        let mut c = vec![0; set.len()];
        for r in mix {
            c[r.query_id as usize] += 1;
        }
        c
    }

    #[test]
    fn zipf_mix_fixes_the_counts_and_seeds_the_order() {
        let set = QueryStream::hot_set(T0, T0 + 10_000);
        let a = QueryStream::new(1, T0, T0 + 10_000).zipf_mix(&set, 5_667);
        let b = QueryStream::new(2, T0, T0 + 10_000).zipf_mix(&set, 5_667);
        assert_eq!(a.len(), 5_667);
        assert_eq!(counts(&a, &set), counts(&b, &set));
        let order = |m: &[Request]| m.iter().map(|r| r.query_id).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b));
        // Zipf proportions: the first member is the most frequent, every
        // member occurs.
        let c = counts(&a, &set);
        assert!(c.iter().all(|&n| n > 0 && n <= c[0]));
    }
}
