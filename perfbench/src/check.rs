//! The benchmark's own determinism check, on short runs: every simulated
//! metric and every count must repeat bit for bit between two runs, and on
//! `oltp` between one and two worker threads; a second seed must give
//! different inputs and no failures.

use std::process::ExitCode;

use wdtg_workloads::oltp::run_oltp;

use crate::oltp::{config, sim_fields};
use crate::sqlwork::new_db;
use crate::{run_workload, Outcome, Run, WORKLOADS};

const SEED: u64 = 1;
const OTHER_SEED: u64 = 2;

/// End-to-end metrics taken on the simulated clock.
const SIM_END_TO_END: [&str; 3] = ["sim_p50_ms", "sim_tail_ms", "sim_ops_per_s"];

/// Per-layer metrics that are counts or simulated quantities.
const COUNT_PER_LAYER: [&str; 18] = [
    "sql.allocs_per_stmt",
    "plan.candidates_per_stmt",
    "plan.replan_frac",
    "plan.allocs_per_stmt",
    "exec.allocs_per_row",
    "sim.instr_per_row",
    "sim.cycles_per_row",
    "sim.l2_miss_per_row",
    "sim.br_mispredict_per_row",
    "sim.tc_share",
    "sim.tm_share",
    "sim.tb_share",
    "sim.tr_share",
    "shard.skew",
    "shard.retries",
    "txn.allocs_per_txn",
    "txn.conflict_frac",
    "txn.wal_records_per_commit",
];

fn compare(what: &str, a: &Outcome, b: &Outcome, names: &[&str], bad: &mut Vec<String>) {
    if (a.attempted, a.failed) != (b.attempted, b.failed) {
        bad.push(format!(
            "{what}: attempted/failed {}/{} vs {}/{}",
            a.attempted, a.failed, b.attempted, b.failed
        ));
    }
    for &name in names {
        let (x, y) = (a.get(name), b.get(name));
        if x.to_bits() != y.to_bits() {
            bad.push(format!("{what}: {name} {x} vs {y}"));
        }
    }
}

fn checks() -> Result<Vec<String>, String> {
    let mut bad = Vec::new();
    for w in WORKLOADS {
        for trace in [false, true] {
            let run = Run::short(SEED, trace);
            let a = run_workload(w, &run)?;
            let b = run_workload(w, &run)?;
            let names: &[&str] = if trace {
                &COUNT_PER_LAYER
            } else {
                &SIM_END_TO_END
            };
            compare(
                &format!("{w} trace={}", trace as u8),
                &a,
                &b,
                names,
                &mut bad,
            );
            if a.failed > 0 {
                bad.push(format!("{w} trace={}: {} failed", trace as u8, a.failed));
            }
            if !trace {
                let c = run_workload(w, &Run::short(OTHER_SEED, false))?;
                if c.failed > 0 {
                    bad.push(format!("{w} seed {OTHER_SEED}: {} failed", c.failed));
                }
                if c.digest == a.digest {
                    bad.push(format!(
                        "{w}: seeds {SEED} and {OTHER_SEED} gave the same inputs"
                    ));
                }
            }
            eprintln!("checked {w} trace={}", trace as u8);
        }
    }
    let run = Run::short(SEED, false);
    let one = run_oltp(&config(SEED, run.txns_per_client, 1), new_db).map_err(|e| e.to_string())?;
    let two = run_oltp(&config(SEED, run.txns_per_client, 2), new_db).map_err(|e| e.to_string())?;
    if sim_fields(&one) != sim_fields(&two) {
        bad.push(format!("oltp: workers 1 and 2 differ: {one:?} vs {two:?}"));
    }
    Ok(bad)
}

/// Runs every check, printing each mismatch; fails on any.
pub fn run() -> ExitCode {
    match checks() {
        Ok(bad) if bad.is_empty() => {
            println!("determinism check passed");
            ExitCode::SUCCESS
        }
        Ok(bad) => {
            for b in &bad {
                println!("MISMATCH {b}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            println!("determinism check could not run: {e}");
            ExitCode::FAILURE
        }
    }
}
