//! The one report every gate bench builds.
//!
//! A gate bench records its measurements as ordered fields and its
//! verdicts as gates, then returns [`Report::finish`] from `main`. That
//! prints one `GATE <name>: ok|FAIL|report-only` line per gate, then the
//! whole report as one JSON line (the last line on stdout), and exits
//! non-zero only if an enforced gate failed. No bench writes a file.
//!
//! Two kinds of gate:
//!
//! - [`Report::check`] guards correctness (row identity, determinism,
//!   conservation, format lints) and is enforced in every mode;
//! - [`Report::timing_gate`] guards a speedup or an overhead budget and is
//!   enforced only in full mode on a host with at least `min_cores`
//!   cores. At `--fast` smoke scale, and on fewer cores than the
//!   measurement needs to run side by side, the number measures the
//!   scheduler, so the gate is reported but does not fail the run.

use esdb_telemetry::json::Json;
use std::process::ExitCode;

/// Fields and gates of one gate-bench run.
#[derive(Debug)]
pub struct Report {
    fields: Vec<(String, Json)>,
    gates: Vec<Gate>,
    fast: bool,
    host_cores: usize,
}

#[derive(Debug)]
struct Gate {
    name: String,
    ok: bool,
    enforced: bool,
}

impl Gate {
    fn verdict(&self) -> &'static str {
        match (self.enforced, self.ok) {
            (false, _) => "report-only",
            (true, true) => "ok",
            (true, false) => "FAIL",
        }
    }
}

impl Report {
    /// A report for `bench` on this host, in the mode the command line
    /// asks for: `--fast` selects the CI smoke scale, anything else the
    /// full one.
    pub fn from_args(bench: &str) -> Report {
        let fast = std::env::args().any(|a| a == "--fast");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Report::new(bench, fast, cores)
    }

    /// A report whose first fields are `bench`, `mode` and `host_cores`.
    pub fn new(bench: &str, fast: bool, host_cores: usize) -> Report {
        let mut report = Report {
            fields: Vec::new(),
            gates: Vec::new(),
            fast,
            host_cores,
        };
        report
            .field("bench", bench)
            .field("mode", if fast { "fast" } else { "full" })
            .field("host_cores", host_cores);
        report
    }

    /// Whether this is a `--fast` (smoke-scale) run.
    pub fn fast(&self) -> bool {
        self.fast
    }

    /// Appends one field; fields render in the order they were added.
    pub fn field(&mut self, key: &str, value: impl IntoJson) -> &mut Self {
        self.fields.push((key.to_string(), value.into_json()));
        self
    }

    /// A correctness gate, enforced in every mode. Returns `ok`.
    pub fn check(&mut self, name: &str, ok: bool) -> bool {
        self.gate(name, ok, true)
    }

    /// A timing gate, enforced only in full mode on a host with at least
    /// `min_cores` cores. Returns `ok`.
    pub fn timing_gate(&mut self, name: &str, ok: bool, min_cores: usize) -> bool {
        let enforced = !self.fast && self.host_cores >= min_cores;
        self.gate(name, ok, enforced)
    }

    fn gate(&mut self, name: &str, ok: bool, enforced: bool) -> bool {
        self.gates.push(Gate {
            name: name.to_string(),
            ok,
            enforced,
        });
        ok
    }

    /// The fields, then `gates`: one `{name, ok, enforced}` per gate.
    pub fn to_json(&self) -> Json {
        let gates = self
            .gates
            .iter()
            .map(|g| {
                Json::Obj(vec![
                    ("name".into(), g.name.as_str().into_json()),
                    ("ok".into(), Json::Bool(g.ok)),
                    ("enforced".into(), Json::Bool(g.enforced)),
                ])
            })
            .collect();
        let mut members = self.fields.clone();
        members.push(("gates".into(), Json::Arr(gates)));
        Json::Obj(members)
    }

    fn exit_code(&self) -> ExitCode {
        if self.gates.iter().all(|g| g.ok || !g.enforced) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    /// Prints the gate lines and the report, and returns the exit code.
    pub fn finish(self) -> ExitCode {
        for g in &self.gates {
            println!("GATE {}: {}", g.name, g.verdict());
        }
        println!("{}", self.to_json().to_text());
        self.exit_code()
    }
}

/// A value a report field can hold.
pub trait IntoJson {
    /// The value as JSON.
    fn into_json(self) -> Json;
}

impl IntoJson for Json {
    fn into_json(self) -> Json {
        self
    }
}

impl IntoJson for bool {
    fn into_json(self) -> Json {
        Json::Bool(self)
    }
}

impl IntoJson for f64 {
    fn into_json(self) -> Json {
        Json::Float(self)
    }
}

impl IntoJson for &str {
    fn into_json(self) -> Json {
        Json::Str(self.to_string())
    }
}

impl IntoJson for String {
    fn into_json(self) -> Json {
        Json::Str(self)
    }
}

macro_rules! uint_into_json {
    ($($t:ty),*) => {$(
        impl IntoJson for $t {
            fn into_json(self) -> Json {
                Json::UInt(self as u64)
            }
        }
    )*};
}
uint_into_json!(u32, u64, usize, u128);

/// Median of timing samples (sorts in place; the upper middle for an
/// even count).
pub fn median(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The `p`-quantile (0..=1) of ascending `sorted`, nearest rank.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Overhead of arm `a` over arm `b`, percent, from the median of *paired*
/// ratios `a / b`. Each pair is the two arms measured back to back on the
/// same chunk of work, so slow drift (instance growth, frequency scaling)
/// cancels within the pair; the median over many pairs then discards the
/// few where a one-off event (preemption, page reclaim, translog
/// rollover) landed in one arm only. Far steadier than the ratio of
/// per-arm medians.
pub fn paired_overhead_pct(pairs: &[(u128, u128)]) -> f64 {
    let mut ratios: Vec<f64> = pairs
        .iter()
        .filter(|&&(_, b)| b > 0)
        .map(|&(a, b)| a as f64 / b as f64)
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    (ratios[ratios.len() / 2] - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_fields_in_order_and_escapes_strings() {
        let mut r = Report::new("demo", true, 2);
        r.field("rows", 3u64)
            .field("ratio", 1.5)
            .field("note", "a\"b\\c\u{1}")
            .field("identical", true);
        r.check("identity", true);
        assert_eq!(
            r.to_json().to_text(),
            r#"{"bench":"demo","mode":"fast","host_cores":2,"rows":3,"ratio":1.5,"#.to_string()
                + r#""note":"a\"b\\c\u0001","identical":true,"#
                + r#""gates":[{"name":"identity","ok":true,"enforced":true}]}"#
        );
    }

    fn exit_of(fast: bool, cores: usize, gate: impl FnOnce(&mut Report)) -> ExitCode {
        let mut r = Report::new("demo", fast, cores);
        r.check("passing", true);
        gate(&mut r);
        r.exit_code()
    }

    #[test]
    fn failed_check_fails_in_every_mode() {
        for fast in [true, false] {
            assert_eq!(
                exit_of(fast, 8, |r| _ = r.check("c", false)),
                ExitCode::FAILURE
            );
            assert_eq!(
                exit_of(fast, 8, |r| _ = r.check("c", true)),
                ExitCode::SUCCESS
            );
        }
    }

    #[test]
    fn failed_timing_gate_fails_only_in_full_mode_with_enough_cores() {
        let failing = |r: &mut Report| _ = r.timing_gate("t", false, 2);
        assert_eq!(exit_of(true, 8, failing), ExitCode::SUCCESS);
        assert_eq!(exit_of(false, 1, failing), ExitCode::SUCCESS);
        assert_eq!(exit_of(false, 2, failing), ExitCode::FAILURE);
        assert_eq!(exit_of(false, 4, failing), ExitCode::FAILURE);
        let passing = |r: &mut Report| _ = r.timing_gate("t", true, 2);
        assert_eq!(exit_of(false, 4, passing), ExitCode::SUCCESS);
    }

    #[test]
    fn gate_verdicts() {
        let mut r = Report::new("demo", false, 1);
        r.check("a", true);
        r.check("b", false);
        r.timing_gate("c", false, 2);
        let verdicts: Vec<&str> = r.gates.iter().map(Gate::verdict).collect();
        assert_eq!(verdicts, ["ok", "FAIL", "report-only"]);
    }

    #[test]
    fn paired_overhead_is_the_median_ratio() {
        let pairs = [(110, 100), (101, 100), (300, 100), (0, 0)];
        assert!((paired_overhead_pct(&pairs) - 10.0).abs() < 1e-9);
        assert_eq!(paired_overhead_pct(&[]), 0.0);
    }
}
