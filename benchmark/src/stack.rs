//! The system under test: an [`Esdb`] with `EsdbConfig::new` defaults
//! behind `esdb_server::start` over loopback TCP.
//!
//! Deviations from the defaults, each forced by served mode:
//! `refresh_buffer_docs = 512` (a served engine has no refresh timer, so
//! without a size trigger nothing written ever becomes searchable), a
//! manual clock the load generator drives from request stamps (see
//! `inputs`), and admission rates no steady request can exhaust.
//!
//! Flush policy is the engine's own: translog appends go to the page
//! cache with no per-write fsync, and nothing flushes during the timed
//! phase; `flush()` runs once after it.

use crate::inputs::{self, Preload};
use esdb_common::{ManualClock, SharedClock, TenantId};
use esdb_core::{Esdb, EsdbConfig, WriteBatcher};
use esdb_doc::{CollectionSchema, WriteOp};
use esdb_server::{
    AdmissionConfig, RateLimit, ServerConfig, ServerHandle, TcpTransport, TokenTable,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Documents per `write_batch` call while preloading.
const PRELOAD_CHUNK: usize = 1_024;

pub fn config(dir: &Path) -> EsdbConfig {
    let mut cfg = EsdbConfig::new(dir);
    cfg.refresh_buffer_docs = 512;
    cfg
}

/// One token per tenant; a request authenticates as the tenant it
/// touches, so confinement and per-tenant admission stay on the path.
pub fn tokens() -> TokenTable {
    (0..inputs::TENANTS as u64).fold(TokenTable::new(), |t, tenant| {
        t.tenant(inputs::token(tenant), TenantId(tenant))
    })
}

/// Admission left on, with buckets deep enough that the benchmark's two
/// connections never drain one: a refusal here would be a failed op.
pub fn admission() -> AdmissionConfig {
    AdmissionConfig {
        default_rate: RateLimit {
            capacity: 1 << 40,
            per_sec: 1 << 30,
        },
        ..AdmissionConfig::default()
    }
}

/// An open engine plus the handle that moves its clock.
pub struct Engine {
    pub db: Esdb,
    pub clock: Arc<ManualClock>,
}

pub fn open(dir: &Path, now_ms: u64) -> Engine {
    let (clock, driver) = SharedClock::manual(now_ms);
    let db = Esdb::open_with_clock(CollectionSchema::transaction_logs(), config(dir), clock)
        .expect("open engine");
    Engine { db, clock: driver }
}

/// Moves a manual clock forward to `t`, never backwards. `ManualClock`
/// has `now` and `advance` but no atomic maximum, so the pair is taken
/// under a lock: with two senders the clock lands exactly on the later
/// stamp, not past it by whatever the other one added in between.
pub fn advance_to(clock: &ManualClock, t: u64) {
    use esdb_common::Clock;
    static DRIVING: Mutex<()> = Mutex::new(());
    let _one_driver = DRIVING.lock().expect("a clock driver panicked");
    let now = clock.now();
    if t > now {
        clock.advance(t - now);
    }
}

/// Writes the corpus through the embedded writer, lets every live
/// migration the skew triggered finish, then refreshes, merges and
/// flushes so the timed phase starts from a settled, durable state.
pub fn load(engine: &mut Engine, preload: &Preload) {
    let writer = engine.db.writer();
    let mut batcher = WriteBatcher::new();
    for chunk in preload.docs.chunks(PRELOAD_CHUNK) {
        let last = chunk.last().expect("non-empty chunk").created_at;
        advance_to(&engine.clock, last);
        for doc in chunk {
            batcher.push(WriteOp::insert(doc.clone()));
        }
        writer.write_batch(&mut batcher).expect("preload batch");
    }
    advance_to(&engine.clock, preload.end_ms);
    engine.db.drive_migrations();
    engine.db.refresh();
    engine.db.merge();
    engine.db.flush().expect("flush after preload");
}

pub fn serve(db: Esdb) -> ServerHandle {
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind loopback");
    let config = ServerConfig {
        tokens: tokens(),
        admission: admission(),
    };
    esdb_server::start(db, config, Box::new(transport))
}

/// A scratch directory inside the checkout, removed on drop.
pub struct DataDir(pub PathBuf);

impl DataDir {
    pub fn create(name: &str) -> DataDir {
        let dir = std::env::current_dir()
            .expect("current dir")
            .join(".bench_out")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create data dir");
        DataDir(dir)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
