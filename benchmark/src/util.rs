//! Small measurement helpers: percentiles, process counters from
//! `/proc`, directory sizes, and the order-independent signature hash.

use std::path::Path;

/// Nearest-rank percentile of an already sorted sample.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a small float sample (round rates, span ratios).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Confines the process to one CPU (the highest it is allowed on) and
/// returns it; must run before any thread is spawned, since threads
/// inherit the mask. On this 2-vCPU VM a wake-up that crosses CPUs goes
/// through the hypervisor: with client and server threads on different
/// CPUs the median hot query took five times as long and every timing
/// spread 10–25% from run to run, depending on where the scheduler had
/// put them. `std` has no affinity call, hence the two libc symbols.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // glibc's cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // which is what the call fills; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of `bytes` bytes that the call only
    // reads; the CPU it names was in the mask just read.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// Process user+system CPU time in microseconds (`/proc/self/stat`
/// fields 14 and 15, in clock ticks of 1/100 s on Linux).
pub fn process_cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields
        .nth(11)
        .and_then(|s| s.parse().ok())
        .expect("utime field");
    let stime: u64 = fields
        .next()
        .and_then(|s| s.parse().ok())
        .expect("stime field");
    (utime + stime) * 10_000
}

/// Ticks (1/100 s) the hypervisor ran something else while one of this
/// VM's CPUs wanted to run: the `steal` column of `/proc/stat`, summed
/// over CPUs.
pub fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().and_then(|l| {
                l.split_ascii_whitespace()
                    .nth(8)
                    .and_then(|v| v.parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Bytes of files under `dir` whose name passes `keep`.
pub fn dir_bytes_where(dir: &Path, keep: &dyn Fn(&str) -> bool) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).expect("read data dir") {
        let entry = entry.expect("dir entry");
        let meta = entry.metadata().expect("file metadata");
        if meta.is_dir() {
            total += dir_bytes_where(&entry.path(), keep);
        } else if keep(&entry.file_name().to_string_lossy()) {
            total += meta.len();
        }
    }
    total
}

/// The filesystem type holding `path`, from `/proc/self/mountinfo`
/// (longest mount point that prefixes the path).
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best = (0usize, String::from("unknown"));
    for line in info.lines() {
        // "... <mount point> <opts> [optional]... - <fstype> <source> ..."
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount) = left.split(' ').nth(4) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            let fstype = right.split(' ').next().unwrap_or("unknown");
            best = (mount.len(), fstype.to_string());
        }
    }
    best.1
}

/// FNV-1a folded over 8-byte words (tail bytes one at a time): the same
/// multiply-xor recurrence as FNV-1a, eight times fewer steps, so hashing
/// a 70 KB response costs microseconds in the load generator.
pub fn fnv64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
        h ^= h >> 29;
    }
    for &b in chunks.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h ^ (bytes.len() as u64).wrapping_mul(PRIME)
}

/// Signature of one query or aggregate response body: the hash of the
/// rows array only. The trailing work counters (`postings_scanned`,
/// `docs_scanned`, `payload_reads`) legitimately differ between a cold
/// execution and a cache-served one, and hold no `]`, so the last `]`
/// of the body closes the rows.
pub fn rows_signature(body: &[u8]) -> u64 {
    let end = body.iter().rposition(|&b| b == b']').map_or(0, |i| i + 1);
    fnv64(&body[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[7], 0.5), 7);
    }

    #[test]
    fn signature_ignores_trailing_counters() {
        let a = br#"{"rows":[{"x":1}],"postings_scanned":5,"docs_scanned":0}"#;
        let b = br#"{"rows":[{"x":1}],"postings_scanned":0,"docs_scanned":9}"#;
        let c = br#"{"rows":[{"x":2}],"postings_scanned":5,"docs_scanned":0}"#;
        assert_eq!(rows_signature(a), rows_signature(b));
        assert_ne!(rows_signature(a), rows_signature(c));
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let _ = process_cpu_us();
    }
}
