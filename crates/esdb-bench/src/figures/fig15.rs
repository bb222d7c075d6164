//! Figure 15: write throughput (a) and average cluster CPU usage (b),
//! logical versus physical replication.
//!
//! Paper shape: logical replication saturates at ~140K TPS while physical
//! climbs past 180K; at equal rates physical uses less CPU. In the
//! simulator physical replication prices a replica execution at 0.3 of a
//! primary (translog append + segment install instead of re-indexing) —
//! calibrated against the micro-benchmarked engine (see
//! `benches/replication.rs`).

use crate::harness::{run_write_sim, warmup_ms, SimParams};
use crate::output::{banner, fmt_k, Table};
use esdb_cluster::PolicySpec;

/// Replica cost factor under physical replication.
pub(crate) const PHYSICAL_REPLICA_COST: f64 = 0.3;

/// Runs the reproduction.
pub fn run(quick: bool) {
    banner("Figure 15 — logical vs physical replication: throughput (a), CPU (b)");
    let rates: &[f64] = if quick {
        &[120_000.0, 160_000.0, 200_000.0]
    } else {
        &[
            100_000.0, 120_000.0, 140_000.0, 160_000.0, 180_000.0, 200_000.0, 220_000.0,
        ]
    };
    let mut tput = Table::new(&["rate", "logical (TPS)", "physical (TPS)"]);
    let mut cpu = Table::new(&["rate", "logical cpu (%)", "physical cpu (%)"]);
    for &rate in rates {
        let mut t_row = vec![fmt_k(rate)];
        let mut c_row = vec![fmt_k(rate)];
        for cost in [1.0, PHYSICAL_REPLICA_COST] {
            let mut p = SimParams::paper(PolicySpec::DoubleHashing { s: 8 });
            p.rate = rate;
            p.replica_cost = cost;
            if quick {
                p = p.quick();
            }
            let r = run_write_sim(&p);
            t_row.push(fmt_k(r.throughput_tps(warmup_ms(&p))));
            let avg_cpu: f64 =
                r.per_node_utilization.iter().sum::<f64>() / r.per_node_utilization.len() as f64;
            c_row.push(format!("{:.0}", avg_cpu * 100.0));
        }
        tput.row(t_row);
        cpu.row(c_row);
    }
    println!("(a) write throughput");
    tput.print();
    println!("\n(b) average cluster CPU usage");
    cpu.print();
}
