//! `esdb-benchmark`: one workload run per process.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]`
//!
//! `--trace 0` measures the end-to-end metrics over loopback TCP with
//! tracing off; `--trace 1` runs the same stack, then replays the
//! request pipeline with spans on and reports the per-layer metrics
//! (see `trace.rs`). The last line of standard output is one JSON
//! object; the exit code is non-zero when an output check fails.

mod checks;
mod inputs;
mod load;
mod report;
mod run;
mod stack;
mod trace;
mod util;

use std::process::ExitCode;

/// The four traffic mixes. Why each exists is in `README.md` and in
/// `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestBulk,
    QueryHot,
    QueryCold,
    MixedSpike,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "ingest_bulk" => Workload::IngestBulk,
            "query_hot" => Workload::QueryHot,
            "query_cold" => Workload::QueryCold,
            "mixed_spike" => Workload::MixedSpike,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestBulk => "ingest_bulk",
            Workload::QueryHot => "query_hot",
            Workload::QueryCold => "query_cold",
            Workload::MixedSpike => "mixed_spike",
        }
    }

    /// Whether the timed phase writes (and so ends with the durability
    /// check instead of the read-signature check).
    pub fn writes(self) -> bool {
        matches!(self, Workload::IngestBulk | Workload::MixedSpike)
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    /// The one CPU the process runs on (`None`: pinning failed).
    pub cpu: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?} (ingest_bulk, query_hot, query_cold, mixed_spike)"
                ))?);
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        quick,
        cpu: None,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => Args {
            cpu: util::pin_to_one_cpu(),
            ..a
        },
        Err(e) => {
            eprintln!("esdb-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run::run(&args);
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
