//! The load generator: keep-alive connections speaking the server's own
//! HTTP framing, a closed loop, and an open-loop paced sender.

use crate::inputs::{Kind, Request};
use crate::stack::advance_to;
use crate::util::rows_signature;
use esdb_common::ManualClock;
use esdb_server::http::{self, ReadError};
use esdb_server::wire;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One keep-alive connection. Each request carries its own bearer
/// token, so one socket serves every tenant.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream.set_nodelay(true).expect("set nodelay");
        Conn {
            stream,
            buf: Vec::new(),
        }
    }

    /// Sends one request and reads its reply.
    fn call(&mut self, bytes: &[u8]) -> Result<http::Response, String> {
        self.stream.write_all(bytes).map_err(|e| e.to_string())?;
        loop {
            match http::read_response(&mut self.stream, &mut self.buf) {
                Ok(resp) => return Ok(resp),
                Err(ReadError::TimedOut) => continue,
                Err(e) => return Err(format!("{e:?}")),
            }
        }
    }
}

/// What one sender observed.
#[derive(Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that got anything but a well-formed 2xx: non-2xx reply,
    /// refusal, transport error, or a short write ack.
    pub failed: u64,
    /// Operations acknowledged (documents, or queries answered).
    pub ops: u64,
    /// The documents among them.
    pub docs: u64,
    /// Per successful request: latency in ns.
    pub latency_ns: Vec<u64>,
    /// Per request, in send order: the rows signature of a read reply
    /// (0 for writes and failures).
    pub signatures: Vec<u64>,
    /// Reply body bytes received.
    pub resp_bytes: u64,
    /// Request bytes sent.
    pub req_bytes: u64,
    /// Documents acknowledged per shard, from the write acks.
    pub acked_per_shard: Vec<u64>,
    /// First few failure descriptions, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    /// Scores one reply; `elapsed` is what the caller timed for it.
    fn score(&mut self, req: &Request, reply: Result<http::Response, String>, elapsed: Duration) {
        self.attempted += 1;
        self.req_bytes += req.bytes.len() as u64;
        let outcome = reply.and_then(|resp| {
            self.resp_bytes += resp.body.len() as u64;
            if resp.status / 100 != 2 {
                let body = String::from_utf8_lossy(&resp.body).into_owned();
                return Err(format!("status {}: {body}", resp.status));
            }
            match req.kind {
                Kind::Write => {
                    let ack = wire::decode_write_ack(resp.text()?)?;
                    if ack.applied != req.ops as u64 {
                        return Err(format!("ack {} of {} ops", ack.applied, req.ops));
                    }
                    for (shard, n) in ack.per_shard {
                        let shard = shard as usize;
                        if self.acked_per_shard.len() <= shard {
                            self.acked_per_shard.resize(shard + 1, 0);
                        }
                        self.acked_per_shard[shard] += n;
                    }
                    self.docs += ack.applied;
                    Ok(0)
                }
                Kind::Query | Kind::Aggregate => Ok(rows_signature(&resp.body)),
            }
        });
        match outcome {
            Ok(signature) => {
                self.ops += req.ops as u64;
                self.latency_ns.push(elapsed.as_nanos() as u64);
                self.signatures.push(signature);
            }
            Err(e) => {
                self.failed += 1;
                self.signatures.push(0);
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.ops += other.ops;
        self.docs += other.docs;
        self.latency_ns.extend(other.latency_ns);
        self.signatures.extend(other.signatures);
        self.resp_bytes += other.resp_bytes;
        self.req_bytes += other.req_bytes;
        if self.acked_per_shard.len() < other.acked_per_shard.len() {
            self.acked_per_shard.resize(other.acked_per_shard.len(), 0);
        }
        for (mine, theirs) in self.acked_per_shard.iter_mut().zip(other.acked_per_shard) {
            *mine += theirs;
        }
        self.errors.extend(other.errors);
    }
}

/// Closed loop: the next request leaves only after the previous reply.
/// With `drive_clock`, the engine clock follows the request stamps.
pub fn closed_loop(conn: &mut Conn, requests: &[Request], clock: Option<&ManualClock>) -> Tally {
    let mut tally = Tally::default();
    for req in requests {
        if let Some(clock) = clock {
            advance_to(clock, req.at_ms);
        }
        let t0 = Instant::now();
        let reply = conn.call(&req.bytes);
        tally.score(req, reply, t0.elapsed());
    }
    tally
}

/// Closed loop over `requests` (cycled) until `stop` is raised.
pub fn closed_loop_until(conn: &mut Conn, requests: &[Request], stop: &AtomicBool) -> Tally {
    let mut tally = Tally::default();
    for req in requests.iter().cycle() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let t0 = Instant::now();
        let reply = conn.call(&req.bytes);
        tally.score(req, reply, t0.elapsed());
    }
    tally
}

/// What the paced sender adds to its tally.
pub struct Paced {
    pub tally: Tally,
    /// How late each request left, in ns after it was due.
    pub late_ns: Vec<u64>,
}

/// Open loop on one connection: request `i` is due `due_us[i]` after
/// the start, is never sent early, and its latency in the tally runs
/// from its *due* time to its acknowledgment — a stall therefore
/// charges every request queued behind it (the paper's write delay).
pub fn paced(conn: &mut Conn, requests: &[Request], due_us: &[u64], clock: &ManualClock) -> Paced {
    let mut tally = Tally::default();
    let mut late_ns = Vec::with_capacity(requests.len());
    let start = Instant::now();
    for (req, &due) in requests.iter().zip(due_us) {
        let due = start + Duration::from_micros(due);
        wait_until(due);
        advance_to(clock, req.at_ms);
        late_ns.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        let reply = conn.call(&req.bytes);
        tally.score(req, reply, Instant::now().saturating_duration_since(due));
    }
    Paced { tally, late_ns }
}

/// Sleeps to within a fraction of a millisecond of `t`, then spins.
fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let left = t.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}
