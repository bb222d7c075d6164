//! The Translog — ESDB's write-ahead log (paper §3.3: "Every write workload
//! will be added to the Translog once it is successfully submitted ... data
//! that has not been flushed to the disk can be safely recovered from
//! Translogs").
//!
//! The log is a sequence of checksummed frames (see [`crate::codec`]).
//! `flush` (§3.3, Elasticsearch "flush") rolls the generation: a new file
//! starts and the old one is deleted once segments are durable. Replay
//! tolerates a torn tail (the standard crash contract: a partially-written
//! final record is discarded).

use crate::codec::{decode_op, encode_op, frame, read_frame};
use esdb_common::{EsdbError, Result};
use esdb_doc::WriteOp;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An injectable append-fault hook (chaos testing). Consulted once per
/// [`Translog::append`] with the length of the framed record about to be
/// written; returning `Some(k)` tears the write after `k` bytes — only the
/// prefix reaches the file and the append reports an I/O error, which is
/// exactly what a crash mid-`write(2)` leaves on disk. Returning `None`
/// lets the append proceed untouched.
///
/// Implementations must be deterministic for a given seed so that chaos
/// schedules replay identically (see `esdb-chaos`).
pub trait WriteFault: Send + Sync + std::fmt::Debug {
    /// How many bytes of the `frame_len`-byte frame actually land, or
    /// `None` for a healthy full write.
    fn torn_write_len(&self, frame_len: usize) -> Option<usize>;
}

/// An append-only, generation-rolled write-ahead log.
#[derive(Debug)]
pub struct Translog {
    dir: PathBuf,
    generation: u64,
    file: File,
    /// Ops appended since the last sync (for sync-batching stats).
    unsynced: usize,
    /// Optional chaos hook torn through every append.
    write_fault: Option<Arc<dyn WriteFault>>,
}

impl Translog {
    /// Opens (or creates) the translog in `dir`, resuming the latest
    /// generation.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let generation = Self::latest_generation(&dir)?.unwrap_or(0);
        let path = Self::gen_path(&dir, generation);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Translog {
            dir,
            generation,
            file,
            unsynced: 0,
            write_fault: None,
        })
    }

    /// Installs (or clears) the chaos append-fault hook.
    pub(crate) fn set_write_fault(&mut self, fault: Option<Arc<dyn WriteFault>>) {
        self.write_fault = fault;
    }

    fn gen_path(dir: &Path, generation: u64) -> PathBuf {
        dir.join(format!("translog-{generation:010}.log"))
    }

    fn latest_generation(dir: &Path) -> Result<Option<u64>> {
        let mut latest = None;
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(g) = name
                .strip_prefix("translog-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                latest = Some(latest.map_or(g, |l: u64| l.max(g)));
            }
        }
        Ok(latest)
    }

    /// Appends one operation (buffered; call [`Translog::sync`] to make it
    /// durable).
    pub fn append(&mut self, op: &WriteOp) -> Result<()> {
        let framed = frame(&encode_op(op));
        if let Some(fault) = &self.write_fault {
            if let Some(k) = fault.torn_write_len(framed.len()) {
                // Torn write: only a prefix lands (flushed so the partial
                // frame really is on disk for the recovery path to see),
                // and the append fails loudly — the caller must treat the
                // engine as crashed and recover via `replay`.
                let k = k.min(framed.len());
                self.file.write_all(&framed[..k])?;
                self.file.sync_data()?;
                return Err(EsdbError::Io(format!(
                    "chaos: torn translog append ({k} of {} bytes written)",
                    framed.len()
                )));
            }
        }
        self.file.write_all(&framed)?;
        self.unsynced += 1;
        Ok(())
    }

    /// Appends a group of operations (buffered). The healthy path encodes
    /// every frame into one contiguous buffer and issues a single
    /// `write_all` — the batching the per-shard group commit relies on.
    /// When a chaos [`WriteFault`] hook is installed the ops go through
    /// [`Translog::append`] one at a time instead, so tear placement and
    /// the on-disk prefix stay byte-identical to the sequential path.
    ///
    /// Returns one result per *attempted* op, in submission order. With
    /// `stop_on_error`, ops after the first failure are not attempted and
    /// the returned vector is short; without it every op is attempted.
    pub fn append_batch(&mut self, ops: &[WriteOp], stop_on_error: bool) -> Vec<Result<()>> {
        if self.write_fault.is_some() {
            let mut out = Vec::with_capacity(ops.len());
            for op in ops {
                let r = self.append(op);
                let failed = r.is_err();
                out.push(r);
                if failed && stop_on_error {
                    break;
                }
            }
            return out;
        }
        let mut buf = Vec::new();
        for op in ops {
            buf.extend_from_slice(&frame(&encode_op(op)));
        }
        match self.file.write_all(&buf) {
            Ok(()) => {
                self.unsynced += ops.len();
                ops.iter().map(|_| Ok(())).collect()
            }
            Err(e) => {
                // A failed group write leaves the file in an unknown
                // state; conservatively fail every op — recovery keeps
                // whatever whole frames actually landed.
                let msg = e.to_string();
                ops.iter()
                    .map(|_| Err(EsdbError::Io(msg.clone())))
                    .collect()
            }
        }
    }

    /// Fsyncs pending appends; returns how many ops were made durable.
    pub fn sync(&mut self) -> Result<usize> {
        self.file.sync_data()?;
        Ok(std::mem::take(&mut self.unsynced))
    }

    /// Replays every generation in order. A torn final record (crash during
    /// append) is silently dropped; corruption elsewhere is an error.
    pub fn replay(&self) -> Result<Vec<WriteOp>> {
        let mut gens: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(g) = name
                .strip_prefix("translog-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                gens.push(g);
            }
        }
        gens.sort_unstable();
        let mut ops = Vec::new();
        for (gi, g) in gens.iter().enumerate() {
            let mut data = Vec::new();
            File::open(Self::gen_path(&self.dir, *g))?.read_to_end(&mut data)?;
            let mut offset = 0usize;
            loop {
                match read_frame(&data[offset..]) {
                    Ok(None) => break,
                    Ok(Some((payload, n))) => {
                        ops.push(decode_op(payload)?);
                        offset += n;
                    }
                    Err(e) => {
                        // A torn tail is only acceptable on the *last*
                        // generation (a crash mid-append).
                        if gi == gens.len() - 1 {
                            break;
                        }
                        return Err(e);
                    }
                }
            }
        }
        Ok(ops)
    }

    /// Rolls to a new generation after a successful flush, deleting older
    /// generations (their data is now durable in segment files).
    pub(crate) fn roll_generation(&mut self) -> Result<()> {
        self.sync()?;
        let old = self.generation;
        self.generation += 1;
        let path = Self::gen_path(&self.dir, self.generation);
        self.file = OpenOptions::new().create(true).append(true).open(&path)?;
        // Delete all generations <= old.
        for g in 0..=old {
            let p = Self::gen_path(&self.dir, g);
            if p.exists() {
                std::fs::remove_file(p)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::{RecordId, TenantId};
    use esdb_doc::Document;

    fn op(r: u64) -> WriteOp {
        WriteOp::insert(
            Document::builder(TenantId(1), RecordId(r), r * 10)
                .field("status", (r % 3) as i64)
                .build(),
        )
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("esdb-translog-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn append_sync_replay() {
        let dir = tmpdir("basic");
        let mut t = Translog::open(&dir).unwrap();
        for r in 0..10 {
            t.append(&op(r)).unwrap();
        }
        assert_eq!(t.sync().unwrap(), 10);
        assert_eq!(t.sync().unwrap(), 0, "second sync has nothing pending");
        let ops = t.replay().unwrap();
        assert_eq!(ops.len(), 10);
        assert_eq!(ops[3].doc.record_id, RecordId(3));
    }

    #[test]
    fn reopen_resumes_generation_and_data() {
        let dir = tmpdir("reopen");
        {
            let mut t = Translog::open(&dir).unwrap();
            t.append(&op(1)).unwrap();
            t.sync().unwrap();
        }
        let mut t = Translog::open(&dir).unwrap();
        t.append(&op(2)).unwrap();
        t.sync().unwrap();
        assert_eq!(t.replay().unwrap().len(), 2, "both ops survive reopen");
    }

    #[test]
    fn roll_generation_truncates_history() {
        let dir = tmpdir("roll");
        let mut t = Translog::open(&dir).unwrap();
        t.append(&op(1)).unwrap();
        t.roll_generation().unwrap();
        assert_eq!(t.generation, 1);
        assert!(t.replay().unwrap().is_empty(), "old generation deleted");
        t.append(&op(2)).unwrap();
        t.sync().unwrap();
        assert_eq!(t.replay().unwrap().len(), 1);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let dir = tmpdir("torn");
        let mut t = Translog::open(&dir).unwrap();
        t.append(&op(1)).unwrap();
        t.append(&op(2)).unwrap();
        t.sync().unwrap();
        // Simulate a crash mid-append: chop bytes off the file tail.
        let path = Translog::gen_path(&dir, 0);
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();
        let t = Translog::open(&dir).unwrap();
        let ops = t.replay().unwrap();
        assert_eq!(
            ops.len(),
            1,
            "complete first record survives, torn second dropped"
        );
        assert_eq!(ops[0].doc.record_id, RecordId(1));
    }

    /// Tears the `nth` append (0-based) after `bytes` bytes of the frame.
    #[derive(Debug)]
    struct TearNth {
        nth: usize,
        bytes: usize,
        seen: std::sync::atomic::AtomicUsize,
    }

    impl WriteFault for TearNth {
        fn torn_write_len(&self, _frame_len: usize) -> Option<usize> {
            let i = self.seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            (i == self.nth).then_some(self.bytes)
        }
    }

    #[test]
    fn write_fault_hook_tears_append_and_replay_recovers_prefix() {
        let dir = tmpdir("fault-hook");
        let mut t = Translog::open(&dir).unwrap();
        t.set_write_fault(Some(Arc::new(TearNth {
            nth: 2,
            bytes: 7,
            seen: std::sync::atomic::AtomicUsize::new(0),
        })));
        t.append(&op(1)).unwrap();
        t.append(&op(2)).unwrap();
        let err = t.append(&op(3)).expect_err("third append is torn");
        assert!(matches!(err, EsdbError::Io(_)), "fault surfaces as Io");
        // Crash-and-recover: a fresh open replays exactly the un-torn
        // prefix; the partial third frame is dropped.
        drop(t);
        let t = Translog::open(&dir).unwrap();
        let ops = t.replay().unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1].doc.record_id, RecordId(2));
    }

    proptest::proptest! {
        /// Chop the *final* record at an arbitrary byte offset: replay must
        /// return exactly the un-torn prefix — never an error, never a
        /// partial decode of the torn record (satellite of the chaos PR;
        /// generalizes `torn_tail_is_dropped`'s fixed offset).
        #[test]
        fn prop_random_truncation_yields_untorn_prefix(
            n_ops in 1u64..9,
            cut_seed in proptest::prelude::any::<u64>(),
        ) {
            let dir = tmpdir(&format!("prop-trunc-{n_ops}"));
            let mut t = Translog::open(&dir).unwrap();
            for r in 0..n_ops {
                t.append(&op(r)).unwrap();
            }
            t.sync().unwrap();
            let last_len = frame(&encode_op(&op(n_ops - 1))).len();
            // Cut strictly inside the final frame (0 = clean boundary
            // after n_ops-1 records, last_len-1 = one byte short).
            let k = (cut_seed % last_len as u64) as usize;
            let path = Translog::gen_path(&dir, 0);
            let data = std::fs::read(&path).unwrap();
            std::fs::write(&path, &data[..data.len() - last_len + k]).unwrap();
            let t = Translog::open(&dir).unwrap();
            let ops = t.replay().unwrap();
            proptest::prop_assert_eq!(ops.len() as u64, n_ops - 1);
            for (i, o) in ops.iter().enumerate() {
                proptest::prop_assert_eq!(o.doc.record_id, RecordId(i as u64));
            }
        }
    }

    #[test]
    fn bitflip_detected_as_torn_tail() {
        let dir = tmpdir("flip");
        let mut t = Translog::open(&dir).unwrap();
        t.append(&op(1)).unwrap();
        t.sync().unwrap();
        let path = Translog::gen_path(&dir, 0);
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let t = Translog::open(&dir).unwrap();
        assert!(
            t.replay().unwrap().is_empty(),
            "corrupt sole record dropped"
        );
    }
}
