//! The repository benchmark: one command per workload run, printing every
//! metric by name with its unit and checking every answer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload adhoc|report|oltp|all --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --check
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run; `--trace 1`
//! a separate traced run's per-layer metrics. `--workload all` runs each
//! workload in a process of its own, so `peak_rss_mb` is per workload.
//! `--check` runs the determinism check instead. The last line of standard output is one JSON
//! object; the exit code is non-zero if any operation failed. See
//! `perfbench/README.md` for every metric's definition.

mod alloc;
mod calib;
mod check;
mod oltp;
mod speed;
mod sqlwork;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("sim_p50_ms", "ms"),
    ("sim_tail_ms", "ms"),
    ("sim_ops_per_s", "1/s"),
    ("host_ns_per_sim_cycle", "ns"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("sql.allocs_per_stmt", "count"),
    ("plan.ms_per_stmt", "ms"),
    ("plan.share", "ratio"),
    ("plan.candidates_per_stmt", "count"),
    ("plan.replan_frac", "ratio"),
    ("plan.allocs_per_stmt", "count"),
    ("exec.ms_per_stmt", "ms"),
    ("exec.scan_ms", "ms"),
    ("exec.group_ms", "ms"),
    ("exec.join_ms", "ms"),
    ("exec.count_ms", "ms"),
    ("exec.host_ns_per_row", "ns"),
    ("exec.allocs_per_row", "count"),
    ("sim.instr_per_row", "count"),
    ("sim.cycles_per_row", "cycles"),
    ("sim.l2_miss_per_row", "count"),
    ("sim.br_mispredict_per_row", "count"),
    ("sim.tc_share", "ratio"),
    ("sim.tm_share", "ratio"),
    ("sim.tb_share", "ratio"),
    ("sim.tr_share", "ratio"),
    ("sim.ns_per_load", "ns"),
    ("sim.ns_per_branch", "ns"),
    ("sim.ns_per_block", "ns"),
    ("sim.host_ns_per_event", "ns"),
    ("shard.ms_per_stmt", "ms"),
    ("shard.skew", "ratio"),
    ("shard.retries", "count"),
    ("txn.begin_us", "us"),
    ("txn.stage_us", "us"),
    ("txn.commit_us", "us"),
    ("txn.allocs_per_txn", "count"),
    ("txn.replay_us_per_record", "us"),
    ("txn.conflict_frac", "ratio"),
    ("txn.wal_records_per_commit", "count"),
    ("index.point_us", "us"),
    ("index.create_ms", "ms"),
    ("heap.load_rows_per_s", "1/s"),
    ("workloads.gen_s", "s"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_frac", "ratio"),
];

/// How one run is sized: the timed phase lasts `seconds` but always covers
/// the fixed operation prefix the deterministic metrics are taken over.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Statements in the fixed prefix (`adhoc`, `report`).
    pub stmts: usize,
    /// Transactions per `run_oltp` client (`oltp`).
    pub txns_per_client: usize,
    /// Transactions per round of the outside-driven replica (`oltp`).
    pub replica_txns: usize,
}

impl Run {
    /// The benchmark's sizing.
    pub fn full(seed: u64, seconds: Duration, trace: bool) -> Run {
        Run {
            seed,
            seconds,
            trace,
            stmts: 150,
            txns_per_client: 500,
            replica_txns: 500,
        }
    }

    /// A short run for the determinism check.
    pub fn short(seed: u64, trace: bool) -> Run {
        Run {
            seed,
            seconds: Duration::ZERO,
            trace,
            stmts: 12,
            txns_per_client: 20,
            replica_txns: 30,
        }
    }
}

/// What one workload run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name: the names of [`END_TO_END`] untraced, of
    /// [`PER_LAYER`] traced.
    pub metrics: Vec<(&'static str, f64)>,
    /// Digest of the inputs the benchmark generated from the seed.
    pub digest: u64,
}

impl Outcome {
    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("metric {name} not reported"))
    }
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["adhoc", "report", "oltp"];

/// Runs one workload.
pub fn run_workload(name: &str, run: &Run) -> Result<Outcome, String> {
    let out = match name {
        "adhoc" => sqlwork::adhoc(run),
        "report" => sqlwork::report(run),
        "oltp" => oltp::run(run),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    }
    .map_err(|e| format!("{name}: {e}"))?;
    let want: Vec<&str> = if run.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let got: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
    assert_eq!(
        got, want,
        "{name} must report exactly the registered metrics"
    );
    Ok(out)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` when the working directory is
/// a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.check && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Runs every workload with the same arguments, one child process each,
/// waiting for each to end.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = args.clone();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload given")
            + 1;
        child_args[at] = w.to_string();
        let status = std::process::Command::new(&exe).args(&child_args).status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.check {
        return check::run();
    }
    if args.workload == "all" {
        return run_all();
    }
    let run = Run::full(args.seed, Duration::from_secs(args.seconds), args.trace);
    let out = match run_workload(&args.workload, &run) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let units = if run.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"profile\": {}, \"git_commit\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        run.trace as u8,
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(&git_commit()),
    );
    let mut finite = true;
    let mut fields = Vec::new();
    for (&(name, value), &(_, unit)) in out.metrics.iter().zip(units) {
        eprintln!("{name:<28} {value:>16.6} {unit}");
        finite &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let correct = out.failed == 0 && finite;
    eprintln!(
        "{} operations attempted, {} failed ({:.4} failed_frac)",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one list in `BENCHMARK.json`; workloads
    /// have no unit.
    fn listed(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |entry: &str, key: &str| {
            entry
                .split(&format!("\"{key}\""))
                .nth(1)
                .and_then(|s| s.split('"').nth(1))
                .unwrap_or_default()
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_the_reported_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), pairs(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), pairs(&PER_LAYER));
        let workloads: Vec<String> = listed(&json, "workloads")
            .into_iter()
            .map(|p| p.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
