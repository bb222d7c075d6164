//! Benchmark harness for ESDB-RS.
//!
//! The `figures` binary (`src/bin/figures.rs`) regenerates every figure of
//! the paper's evaluation (§6); the Criterion benches under `benches/`
//! micro-benchmark the engine pieces. This library holds the shared
//! plumbing: simulation runners, dataset builders for the real-engine
//! experiments, and plain-text table output.

pub mod datasets;
pub mod figures;
pub mod harness;
pub mod output;

pub use output::Table;

/// Host CPU count every `BENCH_*.json` reports as `host_cores`, so a
/// result can never masquerade as a multi-core measurement.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of timing samples (sorts in place; the upper middle for an
/// even count).
pub fn median(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Whether a full-mode run is degraded by a single-core host. Benches
/// mark their JSON with `"degraded_single_core": true` and warn on
/// stderr; parallelism-dependent gates must downgrade to report-only.
/// Fast (CI smoke) runs are never marked — they make no perf claims.
pub fn degraded_single_core(fast: bool) -> bool {
    let degraded = !fast && host_cores() < 2;
    if degraded {
        eprintln!(
            "WARNING: full-mode benchmark on a single-core host — concurrent \
             and parallel measurements are serialized; marking degraded_single_core"
        );
    }
    degraded
}
