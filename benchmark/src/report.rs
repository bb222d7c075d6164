//! What a run prints: every metric by name with its unit, the outcome
//! of every output check, and — last — the one-line JSON result.

use crate::Args;

pub struct Report {
    header: String,
    /// `(name, value, unit)` in print order.
    metrics: Vec<(String, f64, &'static str)>,
    /// Facts about the run that are not metrics (sizes, sample counts,
    /// input hash, filesystem).
    notes: Vec<(String, String)>,
    /// `(check, passed, detail)`.
    checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(args: &Args) -> Report {
        Report {
            header: format!(
                "workload={} seed={} seconds={} trace={}{}",
                args.workload.name(),
                args.seed,
                args.seconds,
                args.trace as u8,
                if args.quick {
                    " QUICK (1/10 op counts: numbers are not comparable with a full run)"
                } else {
                    ""
                }
            ),
            metrics: Vec::new(),
            notes: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, name: &str, value: impl std::fmt::Display) {
        self.notes.push((name.to_string(), value.to_string()));
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: impl std::fmt::Display) {
        self.checks
            .push((name.to_string(), passed, detail.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    pub fn print(&self) {
        println!("# esdb-benchmark {}", self.header);
        for (name, value) in &self.notes {
            println!("note    {name:<34} {value}");
        }
        for (name, passed, detail) in &self.checks {
            let verdict = if *passed { "ok  " } else { "FAIL" };
            println!("check   {name:<34} {verdict} {detail}");
        }
        println!(
            "ops     attempted={} failed={}",
            self.attempted, self.failed
        );
        for (name, value, unit) in &self.metrics {
            println!("metric  {name:<34} {value:>16.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A float with all its digits; non-finite values have no JSON form and
/// would only come from a bug, so they print as 0 and fail loudly
/// elsewhere.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
