//! One workload run: one set-up, the timed phase over TCP, the output
//! checks, and the metrics.
//!
//! Work is fixed by *count*: every op count below is a constant times
//! `--seconds`, calibrated once at the commit that added the benchmark.
//! Every trigger the engine reaches in a run is count-driven too
//! (size-based refresh, write-count rebalance epochs), so two runs do the
//! same work and a faster engine simply finishes sooner.

use crate::checks;
use crate::inputs::{self, Preload, QueryStream, Request, WriteStream, SPIKE_TENANT, T0};
use crate::load::{self, Conn, Paced, Tally};
use crate::report::Report;
use crate::stack::{self, DataDir};
use crate::trace::{self, Baseline, TcpView};
use crate::util::{self, median, percentile_sorted};
use crate::{Args, Workload};
use esdb_common::ManualClock;
use esdb_server::ServerHandle;
use esdb_workload::RateSchedule;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Timed rounds of equal op count. `ops_per_s` is the **median round's**
/// rate: the host's speed wanders by ±10% over a second or three (noisy
/// neighbours), and rounds of about a second let the median step over a
/// slow spell that a whole-run rate would absorb.
const ROUNDS: usize = 15;
/// TCP rounds of a traced run (it only needs the TCP median and the
/// engine's counters; the time goes to the pipeline replay instead).
const TRACE_ROUNDS: usize = 8;
/// Corpus of the three workloads that read. The issue's 200 000 is
/// rescaled: its merge and flush sync ≈ 115 MB to the checkout's disk,
/// which took anything from 8 to 25 s here (see README, "Workloads").
const PRELOAD_DOCS: usize = 60_000;

/// Calibration constants: requests per second of `--seconds`. The query
/// workloads time for about `--seconds`. `ingest_bulk` stops at ≈ 220 000
/// documents (≈ 0.45 × `--seconds`): the served engine never merges, and
/// near 300 000 documents its rate halves within a round or two, at a
/// point that moves from run to run.
const INGEST_BATCHES_PER_S: f64 = 345.0;
const HOT_QUERIES_PER_S: f64 = 4_250.0;
const COLD_QUERIES_PER_S: f64 = 3_000.0;

const INGEST_BATCH_OPS: usize = 32;
const SPIKE_BATCH_OPS: usize = 16;
/// `mixed_spike` schedule, documents per second.
const BASE_DOCS_PER_S: f64 = 3_000.0;
const SPIKE_EXTRA_DOCS_PER_S: f64 = 6_000.0;
const MIN_PHASE_MS: u64 = 1_500;
/// Virtual milliseconds of write traffic used as `mixed_spike` warm-up.
const SPIKE_WARM_MS: u64 = 200;
/// Distinct queries on the spiking tenant, and the reader's cycle.
const SPIKE_QUERIES: usize = 16;
const READER_CYCLE: usize = 4_096;

/// Record-id base keeping the preload and the write streams disjoint.
const STREAM_RECORD_BASE: u64 = 1 << 40;

/// Op counts of this run.
pub struct Sizes {
    pub connections: usize,
    /// Requests per connection per round.
    pub round_requests: usize,
    pub warm_requests: usize,
    pub preload_docs: usize,
    /// Length of one `mixed_spike` phase, ms.
    pub phase_ms: u64,
    pub rounds: usize,
    /// Requests per pass of the traced pipeline replay.
    pub replay_requests: usize,
}

impl Sizes {
    fn new(args: &Args) -> Sizes {
        let scale = args.seconds as f64 * if args.quick { 0.1 } else { 1.0 };
        let (connections, per_s) = match args.workload {
            Workload::IngestBulk => (2, INGEST_BATCHES_PER_S),
            Workload::QueryHot => (1, HOT_QUERIES_PER_S),
            Workload::QueryCold => (1, COLD_QUERIES_PER_S),
            Workload::MixedSpike => (2, 0.0),
        };
        let round_requests = (per_s * scale / ROUNDS as f64 / connections as f64).ceil() as usize;
        Sizes {
            connections,
            round_requests,
            warm_requests: round_requests,
            preload_docs: match args.workload {
                Workload::IngestBulk => 0,
                _ if args.quick => PRELOAD_DOCS / 10,
                _ => PRELOAD_DOCS,
            },
            // Detection, rule commit and cutover take two to three
            // rebalance epochs of 5 000 writes inside the spike, so a
            // `--quick` schedule is floored where that still fits.
            phase_ms: ((scale * 1_000.0 / 3.0) as u64).max(MIN_PHASE_MS),
            rounds: if args.trace { TRACE_ROUNDS } else { ROUNDS },
            replay_requests: match args.workload {
                Workload::MixedSpike => READER_CYCLE / if args.quick { 8 } else { 1 },
                _ => round_requests,
            },
        }
    }
}

/// Everything seeded: created once per run, before the set-up.
pub struct Source {
    pub workload: Workload,
    pub preload: Option<Preload>,
    /// One stream per writing connection.
    pub writers: Vec<WriteStream>,
    pub queries: Option<QueryStream>,
    pub hot_set: Vec<Request>,
    /// Per connection: the discarded warm-up every set-up replays.
    warmup: Vec<Vec<Request>>,
    /// `mixed_spike`: the whole paced schedule and the reader's cycle.
    paced: Vec<Request>,
    due_us: Vec<u64>,
    pub reader_cycle: Vec<Request>,
}

impl Source {
    fn new(args: &Args, sizes: &Sizes) -> Source {
        let seed = args.seed;
        let preload = (sizes.preload_docs > 0).then(|| inputs::preload(sizes.preload_docs));
        let start_ms = preload.as_ref().map_or(T0, |p| p.end_ms);
        let mut src = Source {
            workload: args.workload,
            preload,
            writers: Vec::new(),
            queries: None,
            hot_set: Vec::new(),
            warmup: Vec::new(),
            paced: Vec::new(),
            due_us: Vec::new(),
            reader_cycle: Vec::new(),
        };
        match args.workload {
            Workload::IngestBulk => {
                // One independent stream per connection (own record-id
                // space, tenants drawn from the same Zipf), each one
                // batch per virtual millisecond.
                for c in 0..sizes.connections as u64 {
                    src.writers.push(WriteStream::new(
                        seed.wrapping_mul(31).wrapping_add(c),
                        start_ms,
                        STREAM_RECORD_BASE * (c + 1),
                        INGEST_BATCH_OPS,
                        1_000.0,
                    ));
                }
                src.warmup = (0..sizes.connections)
                    .map(|c| src.round(c, sizes.warm_requests))
                    .collect();
            }
            Workload::QueryHot | Workload::QueryCold => {
                if args.workload == Workload::QueryHot {
                    src.hot_set = QueryStream::hot_set(T0, start_ms);
                }
                src.queries = Some(QueryStream::new(seed, T0, start_ms));
                src.warmup = vec![src.round(0, sizes.warm_requests)];
            }
            Workload::MixedSpike => src.spike_schedule(seed, start_ms, sizes.phase_ms),
        }
        src
    }

    /// The next `n` requests of connection `conn` (closed-loop
    /// workloads).
    pub fn round(&mut self, conn: usize, n: usize) -> Vec<Request> {
        match self.workload {
            Workload::IngestBulk => (0..n).map(|_| self.writers[conn].next()).collect(),
            Workload::QueryHot => self
                .queries
                .as_mut()
                .expect("query stream")
                .zipf_mix(&self.hot_set, n),
            Workload::QueryCold => self.queries.as_mut().expect("query stream").cold(n),
            Workload::MixedSpike => unreachable!("mixed_spike runs a schedule, not rounds"),
        }
    }

    /// Builds the `mixed_spike` inputs: `phase_ms` at the base rate,
    /// `phase_ms` with the flash sale on top, `phase_ms` back at the
    /// base rate; one virtual millisecond is one real millisecond.
    fn spike_schedule(&mut self, seed: u64, start_ms: u64, phase_ms: u64) {
        let sched_start = start_ms + SPIKE_WARM_MS;
        let sched_end = sched_start + 3 * phase_ms;
        let batches = |docs_per_s: f64| docs_per_s / SPIKE_BATCH_OPS as f64;
        let flash_sale = RateSchedule::steps(vec![
            (0, 0.0),
            (sched_start + phase_ms, batches(SPIKE_EXTRA_DOCS_PER_S)),
            (sched_start + 2 * phase_ms, 0.0),
        ]);
        let mut writer = WriteStream::new(
            seed,
            start_ms,
            STREAM_RECORD_BASE,
            SPIKE_BATCH_OPS,
            batches(BASE_DOCS_PER_S),
        )
        .with_overlay(SPIKE_TENANT, flash_sale, seed ^ 0x5A1E);
        let mut warm_writes = Vec::new();
        loop {
            let r = writer.next();
            let done = r.at_ms >= sched_end;
            if r.at_ms < sched_start {
                warm_writes.push(r);
            } else {
                self.due_us.push((r.at_ms - sched_start) * 1_000);
                self.paced.push(r);
            }
            // The stream has already counted the batch that crosses the
            // end as written, so it is sent too.
            if done {
                break;
            }
        }
        self.writers.push(writer);

        let mut q = QueryStream::new(seed, T0, start_ms);
        self.hot_set = QueryStream::hot_set(T0, start_ms);
        // The spiking tenant's readers look at the run itself.
        let spike_set = QueryStream::tenant_set(
            SPIKE_TENANT,
            SPIKE_QUERIES,
            inputs::HOT_QUERIES as u32,
            sched_start,
            sched_end,
        );
        self.reader_cycle = q
            .zipf_mix(&self.hot_set, READER_CYCLE)
            .into_iter()
            .enumerate()
            .map(|(i, hot)| {
                if i % 4 == 3 {
                    spike_set[(i / 4) % SPIKE_QUERIES].clone()
                } else {
                    hot
                }
            })
            .collect();
        self.queries = Some(q);
        self.warmup = vec![warm_writes, self.reader_cycle[..READER_CYCLE / 16].to_vec()];
    }

    /// Wire bytes of every document written so far (preload included).
    pub fn user_bytes(&self) -> u64 {
        self.preload.as_ref().map_or(0, |p| p.user_bytes)
            + self.writers.iter().map(|w| w.user_bytes).sum::<u64>()
    }
}

/// One set-up's product: a served engine with warm connections.
struct Stage {
    dir: DataDir,
    server: ServerHandle,
    clock: Arc<ManualClock>,
    conns: Vec<Conn>,
    /// Engine counters when serving began (after the preload).
    baseline: Baseline,
    /// Warm-up outcome, pooled over connections.
    warm: Tally,
}

impl Stage {
    /// Open + preload + maintenance + serve + one discarded warm-up
    /// round: everything `setup_s` covers.
    fn setup(args: &Args, src: &Source) -> Stage {
        let dir = DataDir::create(args.workload.name());
        let mut engine = stack::open(&dir.0, T0);
        if let Some(p) = &src.preload {
            stack::load(&mut engine, p);
        }
        let baseline = Baseline::capture(&engine.db, args.trace);
        let server = stack::serve(engine.db);
        let mut conns: Vec<Conn> = src
            .warmup
            .iter()
            .map(|_| Conn::connect(server.addr()))
            .collect();
        let clock = src.workload.writes().then_some(&*engine.clock);
        let mut warm = Tally::default();
        for (conn, requests) in conns.iter_mut().zip(&src.warmup) {
            warm.merge(load::closed_loop(conn, requests, clock));
        }
        Stage {
            dir,
            server,
            clock: engine.clock,
            conns,
            baseline,
            warm,
        }
    }
}

/// What the timed phase observed.
struct Timed {
    /// The workload's primary request kind, all rounds pooled.
    primary: Tally,
    /// `mixed_spike`: the paced writer.
    writer: Option<Paced>,
    /// Operations per second of each round (`mixed_spike`: of the one
    /// schedule).
    round_rates: Vec<f64>,
    /// Hypervisor steal during the rounds, ticks of 1/100 s.
    steal_ticks: u64,
    /// Wall and process CPU time inside the rounds (input generation
    /// between rounds is outside both).
    wall_s: f64,
    cpu_us: u64,
    /// Read requests in send order, kept for the signature check.
    reads: Vec<Request>,
    input_fnv: u64,
    /// Operations sent per tenant id (confirms the skew delivered).
    tenant_ops: Vec<u64>,
}

impl Timed {
    fn new() -> Timed {
        Timed {
            primary: Tally::default(),
            writer: None,
            round_rates: Vec::new(),
            steal_ticks: 0,
            wall_s: 0.0,
            cpu_us: 0,
            reads: Vec::new(),
            input_fnv: 0,
            tenant_ops: vec![0; inputs::TENANTS],
        }
    }

    fn count_inputs(&mut self, requests: &[Request]) {
        self.input_fnv = self.input_fnv.wrapping_add(inputs::input_fnv(requests));
        for r in requests {
            self.tenant_ops[r.tenant as usize] += r.ops as u64;
        }
    }
}

/// Closed-loop rounds: inputs of a round are generated first (one
/// thread per stream), the senders meet at a barrier, and only then
/// does the round's clock start.
fn closed_rounds(stage: &mut Stage, src: &mut Source, sizes: &Sizes) -> Timed {
    let mut timed = Timed::new();
    let clock = src.workload.writes().then_some(&*stage.clock);
    let n = sizes.round_requests;
    for _ in 0..sizes.rounds {
        let rounds: Vec<Vec<Request>> = if src.workload == Workload::IngestBulk {
            std::thread::scope(|s| {
                let handles: Vec<_> = src
                    .writers
                    .iter_mut()
                    .map(|w| s.spawn(move || (0..n).map(|_| w.next()).collect()))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("generator thread"))
                    .collect()
            })
        } else {
            vec![src.round(0, n)]
        };
        for r in &rounds {
            timed.count_inputs(r);
        }
        let barrier = Barrier::new(rounds.len() + 1);
        let (tallies, wall, cpu) = std::thread::scope(|s| {
            let handles: Vec<_> = stage
                .conns
                .iter_mut()
                .zip(&rounds)
                .map(|(conn, requests)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        load::closed_loop(conn, requests, clock)
                    })
                })
                .collect();
            barrier.wait();
            let steal0 = util::host_steal_ticks();
            let (t0, cpu0) = (Instant::now(), util::process_cpu_us());
            let tallies: Vec<Tally> = handles
                .into_iter()
                .map(|h| h.join().expect("sender thread"))
                .collect();
            let out = (tallies, t0.elapsed(), util::process_cpu_us() - cpu0);
            timed.steal_ticks += util::host_steal_ticks() - steal0;
            out
        });
        let ops: u64 = tallies.iter().map(|t| t.ops).sum();
        timed.round_rates.push(ops as f64 / wall.as_secs_f64());
        timed.wall_s += wall.as_secs_f64();
        timed.cpu_us += cpu;
        for t in tallies {
            timed.primary.merge(t);
        }
        if !src.workload.writes() {
            timed.reads.extend(rounds.into_iter().flatten());
        }
    }
    timed
}

/// `mixed_spike`: connection A follows the schedule open-loop while
/// connection B reads closed-loop until A is done.
fn spike_phase(stage: &mut Stage, src: &Source) -> Timed {
    let mut timed = Timed::new();
    timed.count_inputs(&src.paced);
    let stop = AtomicBool::new(false);
    let [writer_conn, reader_conn] = &mut stage.conns[..] else {
        panic!("mixed_spike uses two connections");
    };
    let clock = &*stage.clock;
    let steal0 = util::host_steal_ticks();
    let (t0, cpu0) = (Instant::now(), util::process_cpu_us());
    let (paced, reader) = std::thread::scope(|s| {
        let reader = s.spawn(|| load::closed_loop_until(reader_conn, &src.reader_cycle, &stop));
        let paced = load::paced(writer_conn, &src.paced, &src.due_us, clock);
        stop.store(true, Ordering::Release);
        (paced, reader.join().expect("reader thread"))
    });
    timed.wall_s = t0.elapsed().as_secs_f64();
    timed.cpu_us = util::process_cpu_us() - cpu0;
    timed.steal_ticks = util::host_steal_ticks() - steal0;
    // The phases differ by design, so the schedule is one round.
    timed.round_rates.push(reader.ops as f64 / timed.wall_s);
    timed.primary = reader;
    timed.writer = Some(paced);
    timed
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Bytes under `dir`: all of them, and the share that is segments.
fn disk_use(dir: &std::path::Path) -> (u64, u64) {
    let all = util::dir_bytes_where(dir, &|_| true);
    (all, all - util::dir_bytes_where(dir, &checks::is_translog))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new(args);
    let sizes = Sizes::new(args);
    let run_start = Instant::now();
    let mut src = Source::new(args, &sizes);
    report.note(
        "generate_inputs_s",
        format!("{:.3}", run_start.elapsed().as_secs_f64()),
    );

    let t0 = Instant::now();
    let mut stage = Stage::setup(args, &src);
    let setup_s = t0.elapsed().as_secs_f64();
    report.check(
        "warm-up clean",
        stage.warm.failed == 0,
        format!(
            "{} of {} requests failed {:?}",
            stage.warm.failed, stage.warm.attempted, stage.warm.errors
        ),
    );
    // For the workloads that only read, space is the preload's.
    let mut post = checks::Post::default();
    (post.disk_bytes, post.segment_bytes) = disk_use(&stage.dir.0);

    let mut timed = match args.workload {
        Workload::MixedSpike => spike_phase(&mut stage, &src),
        _ => closed_rounds(&mut stage, &mut src, &sizes),
    };
    // Peak memory of set-up plus timed phase; the post-run reopen keeps
    // two engines' worth of heap alive and is not part of it.
    let peak_rss_mb = util::peak_rss_mb();

    // Drain: everything acknowledged is applied to the returned engine.
    let rejected = stage.server.rejected_counts();
    let admission = stage.server.admission().total_counts();
    drop(std::mem::take(&mut stage.conns));
    let (db, _) = stage.server.shutdown();
    let mut writer = timed.writer.take();
    let writer_tally = writer.as_ref().map(|w| &w.tally);
    report.attempted = timed.primary.attempted + writer_tally.map_or(0, |t| t.attempted);
    report.failed = timed.primary.failed + writer_tally.map_or(0, |t| t.failed);
    for e in timed
        .primary
        .errors
        .iter()
        .chain(writer_tally.iter().flat_map(|t| &t.errors))
    {
        report.note("failure", e);
    }
    report.check(
        "no request refused",
        rejected.total() == 0 && admission.admitted == admission.issued,
        format!(
            "rejected {rejected:?}, admitted {} of {}",
            admission.admitted, admission.issued
        ),
    );
    let latency = sorted(std::mem::take(&mut timed.primary.latency_ns));
    if latency.is_empty() {
        report.check("latency samples", false, "no request succeeded");
        return report;
    }

    // What the traced replay needs to know about the TCP phase.
    let write_tally = writer_tally.unwrap_or(&timed.primary);
    let acked_docs = stage.warm.docs + write_tally.docs;
    let acked_per_shard = write_tally.acked_per_shard.clone();
    let (req_bytes, resp_bytes) = (
        timed.primary.req_bytes + writer_tally.map_or(0, |t| t.req_bytes),
        timed.primary.resp_bytes + writer_tally.map_or(0, |t| t.resp_bytes),
    );
    let delays = sorted(
        writer
            .as_mut()
            .map_or(Vec::new(), |w| std::mem::take(&mut w.tally.latency_ns)),
    );
    let late = sorted(
        writer
            .as_mut()
            .map_or(Vec::new(), |w| std::mem::take(&mut w.late_ns)),
    );
    let tcp = TcpView {
        latency_sorted: &latency,
        req_bytes,
        resp_bytes,
        requests: report.attempted,
        acked_per_shard: &acked_per_shard,
        rejected_total: rejected.total(),
        write_delay_sorted: &delays,
        late_sorted: &late,
        hot_tenant_share: *timed.tenant_ops.iter().max().unwrap_or(&0) as f64
            / timed.tenant_ops.iter().sum::<u64>().max(1) as f64,
        baseline: &stage.baseline,
    };

    // Output checks. The traced replay runs while the drained engine is
    // still in hand, before the durability check consumes it.
    if args.workload.writes() {
        let applied = db.stats().writes - stage.baseline.stats.writes;
        report.check(
            "acked ops == engine writes",
            applied == acked_docs,
            format!("acked {acked_docs}, engine applied {applied}"),
        );
        if args.workload == Workload::MixedSpike {
            checks::migration_completed(&db, &mut report);
        }
    } else {
        checks::read_signatures(
            &db,
            &timed.reads,
            &timed.primary.signatures,
            args.quick,
            &mut report,
        );
    }
    let layer = args.trace.then(|| {
        trace::per_layer(
            args,
            &db,
            &stage.clock,
            &mut src,
            sizes.replay_requests,
            &tcp,
            &mut report,
        )
    });
    if args.workload.writes() {
        post = checks::durability(db, &stage.dir.0, &stage.clock, &src, &mut report);
    } else {
        drop(db);
    }

    // What the numbers were measured on.
    let rates: Vec<f64> = timed.round_rates.iter().map(|r| r.round()).collect();
    report.note("input_fnv", format!("{:016x}", timed.input_fnv));
    report.note("latency_samples", latency.len());
    report.note("timed_wall_s", format!("{:.3}", timed.wall_s));
    report.note("round_ops_per_s", format!("{rates:?}"));
    report.note(
        "pinned_to_cpu",
        args.cpu
            .map_or("no (affinity call failed)".to_string(), |c| c.to_string()),
    );
    report.note("host_steal_ticks", timed.steal_ticks);
    if !delays.is_empty() {
        // The paper's Fig 13 write delay; per-layer in the traced run,
        // shown here too because it is what `mixed_spike` is about.
        let us = |v: &[u64], q: f64| percentile_sorted(v, q) as f64 / 1e3;
        report.note("write_delay_p50_us", us(&delays, 0.50));
        report.note("write_delay_p99_us", us(&delays, 0.99));
        report.note("gen_late_p99_us", us(&late, 0.99));
    }
    report.note("preload_docs", sizes.preload_docs);
    report.note("requests_per_round_per_conn", sizes.round_requests);
    report.note("connections", sizes.connections);
    report.note(
        "host_cores",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.note("data_dir_fs", util::filesystem_of(&stage.dir.0));
    report.note("user_bytes", src.user_bytes());
    report.note("disk_bytes", post.disk_bytes);
    report.note(
        "run_wall_s",
        format!("{:.3}", run_start.elapsed().as_secs_f64()),
    );

    let user_bytes = src.user_bytes().max(1) as f64;
    if let Some(mut layer) = layer {
        layer.set(
            "storage.segment_bytes_per_user_byte",
            post.segment_bytes as f64 / user_bytes,
        );
        if args.workload.writes() {
            let written: u64 = src.writers.iter().map(|w| w.user_bytes).sum();
            layer.set(
                "storage.translog_bytes_per_user_byte",
                post.translog_bytes as f64 / written.max(1) as f64,
            );
            layer.set("storage.reopen_ms", post.reopen_ms);
            layer.set("storage.flush_ms", post.flush_ms);
        }
        layer.emit(&mut report);
        return report;
    }
    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s", median(&timed.round_rates), "1/s");
    let us = |q: f64| percentile_sorted(&latency, q) as f64 / 1e3;
    report.metric("p50_us", us(0.50), "us");
    report.metric("p99_us", us(0.99), "us");
    let ops = timed.primary.ops + writer.as_ref().map_or(0, |w| w.tally.ops);
    report.metric(
        "cpu_us_per_op",
        timed.cpu_us as f64 / ops.max(1) as f64,
        "us",
    );
    report.metric("peak_rss_mb", peak_rss_mb, "MiB");
    report.metric("space_amp", post.disk_bytes as f64 / user_bytes, "ratio");
    report
}
