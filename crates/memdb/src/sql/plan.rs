//! The simulator-costed physical planner.
//!
//! For a bound aggregate query the planner enumerates every candidate
//! physical configuration over the engine's knobs — execution mode
//! ([`ExecMode`]), qualification strategy ([`SelectionMode`]) and join
//! algorithm ([`JoinAlgo`]) — and *measures* each candidate by running it on
//! a **pilot database**: a fresh [`Database`] (its own simulated processor,
//! so the session's counters are untouched) loaded with a sampled prefix of
//! the real tables in the same page layouts. The cost model is the paper's
//! execution-time breakdown itself: each candidate's simulated
//! `T_Q = T_C + T_M + T_B + T_R` on the pilot, extrapolated to full size.
//!
//! * **Scans / grouped aggregates** are page-linear: the pilot holds a
//!   row prefix (up to [`PILOT_SCAN_ROWS`]) and costs scale by
//!   `full_rows / pilot_rows`.
//! * **Joins** are *not* linear in the build side — the hash table's
//!   residency in L2 is exactly what separates the naive and partitioned
//!   joins — so the pilot keeps the **full build side** and samples only
//!   the probe side, at two sizes; per-probe-row cost comes from the linear
//!   fit through the two measurements (`cost(n) = fixed + rate·n`), which
//!   separates the build-side fixed cost from the probe rate instead of
//!   wrongly scaling both.
//!
//! Every candidate — and for joins every probe-sample size of every
//! candidate — is an independent job: it builds its own pilot from a shared
//! row prefix and the session profile's privatized code blocks, then makes
//! a warm-up run (the §4.3 methodology) and a measured run. No candidate
//! inherits another's cache, TLB or predictor state, so each estimate is
//! that of a fresh pilot, whatever the enumeration order. The jobs run in
//! parallel on [`run_jobs_parallel`] with one worker per host core and come
//! back in enumeration order; ties keep the earlier candidate, so the
//! report is the same for every worker count.

use wdtg_sim::{Component, CpuConfig, Mode, Snapshot};

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::exec::{ExecMode, SelectionMode};
use crate::heap::PageLayout;
use crate::parallel::run_jobs_parallel;
use crate::profiles::{EngineProfile, JoinAlgo};
use crate::query::{AggSpec, Query, QueryPredicate};
use crate::schema::Schema;

use super::bind::BoundStatement;

/// Max pilot rows for page-linear plans (scans, grouped aggregates).
pub const PILOT_SCAN_ROWS: usize = 2048;
/// The two probe-side sample sizes of the join pilot's linear fit.
pub const PILOT_PROBE_ROWS: (usize, usize) = (512, 1536);

/// One knob setting the planner can choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalConfig {
    /// Row-at-a-time or vectorized execution.
    pub exec_mode: ExecMode,
    /// Qualification strategy; `None` when the plan has no filter.
    pub selection_mode: Option<SelectionMode>,
    /// Join algorithm; `None` for non-join plans.
    pub join_algo: Option<JoinAlgo>,
}

impl PhysicalConfig {
    /// Compact human label, e.g. `batch/predicated` or `row/partitioned`.
    pub fn label(&self) -> String {
        let mut parts = vec![match self.exec_mode {
            ExecMode::Row => "row",
            ExecMode::Batch => "batch",
        }
        .to_string()];
        if let Some(s) = self.selection_mode {
            parts.push(
                match s {
                    SelectionMode::Branching => "branching",
                    SelectionMode::Predicated => "predicated",
                }
                .to_string(),
            );
        }
        if let Some(j) = self.join_algo {
            parts.push(
                match j {
                    JoinAlgo::Hash => "hash",
                    JoinAlgo::PartitionedHash => "partitioned",
                    JoinAlgo::IndexNestedLoop => "index-nl",
                }
                .to_string(),
            );
        }
        parts.join("/")
    }

    /// Applies the chosen knobs to a database.
    pub fn apply(&self, db: &mut Database) {
        db.set_exec_mode(self.exec_mode);
        if let Some(s) = self.selection_mode {
            db.set_selection_mode(s);
        }
        if let Some(j) = self.join_algo {
            db.set_join_algo(j);
        }
    }
}

/// One candidate's estimated full-size cost, with the paper's breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateCost {
    /// The knob setting measured.
    pub config: PhysicalConfig,
    /// Estimated full-size simulated cycles (T_Q), the ranking key.
    pub est_cycles: f64,
    /// Estimated computation cycles (T_C).
    pub t_c: f64,
    /// Estimated memory-stall cycles (T_M).
    pub t_m: f64,
    /// Estimated branch-misprediction cycles (T_B).
    pub t_b: f64,
    /// Estimated resource-stall cycles (T_R).
    pub t_r: f64,
    /// Rows the pilot measured (probe-side rows for joins).
    pub pilot_rows: u64,
}

/// The planner's verdict for one statement: every candidate's simulated
/// stall-term cost and which one won.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// The statement text.
    pub sql: String,
    /// Plan shape of the chosen candidate (the engine's structural explain).
    pub shape: String,
    /// Every candidate, in enumeration order.
    pub candidates: Vec<CandidateCost>,
    /// Index of the winner in `candidates`.
    pub chosen: usize,
    /// Driving cardinality the estimates extrapolate to (outer-table rows).
    pub full_rows: u64,
}

impl PlanReport {
    /// The winning candidate.
    pub fn chosen(&self) -> &CandidateCost {
        &self.candidates[self.chosen]
    }

    /// Renders the candidate table, winner starred — `EXPLAIN` output.
    pub fn render(&self) -> String {
        let mut out = format!("sql: {}\nplan:\n", self.sql);
        for line in self.shape.lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!(
            "candidates (pilot-simulated T_Q over {} rows, extrapolated):\n",
            self.full_rows
        ));
        for (i, c) in self.candidates.iter().enumerate() {
            out.push_str(&format!(
                "{} {:24} T_Q {:>14.0}  = T_C {:>12.0} + T_M {:>12.0} + T_B {:>10.0} + T_R {:>10.0}\n",
                if i == self.chosen { "*" } else { " " },
                c.config.label(),
                c.est_cycles,
                c.t_c,
                c.t_m,
                c.t_b,
                c.t_r,
            ));
        }
        out
    }
}

/// The four stall terms + total of one pilot measurement (user mode).
#[derive(Debug, Clone, Copy, Default)]
struct Measured {
    cycles: f64,
    t_c: f64,
    t_m: f64,
    t_b: f64,
    t_r: f64,
}

impl Measured {
    fn from_delta(d: &Snapshot) -> Measured {
        let l = &d.ledger;
        Measured {
            cycles: d.cycles,
            t_c: l.get(Mode::User, Component::Tc),
            t_m: l.memory_total(Mode::User),
            t_b: l.get(Mode::User, Component::Tb),
            t_r: l.resource_total(Mode::User),
        }
    }

    fn scale(&self, f: f64) -> Measured {
        Measured {
            cycles: self.cycles * f,
            t_c: self.t_c * f,
            t_m: self.t_m * f,
            t_b: self.t_b * f,
            t_r: self.t_r * f,
        }
    }

    /// Linear fit through `(n1, self)` and `(n2, m2)` evaluated at `n`,
    /// per component, clamped at zero (a negative extrapolation is noise).
    fn extrapolate(&self, m2: &Measured, n1: f64, n2: f64, n: f64) -> Measured {
        let at = |a: f64, b: f64| {
            let rate = (b - a) / (n2 - n1).max(1.0);
            (b + rate * (n - n2)).max(0.0)
        };
        Measured {
            cycles: at(self.cycles, m2.cycles),
            t_c: at(self.t_c, m2.t_c),
            t_m: at(self.t_m, m2.t_m),
            t_b: at(self.t_b, m2.t_b),
            t_r: at(self.t_r, m2.t_r),
        }
    }
}

/// Warm-up run, then a measured run, of `go` on `db`.
fn measure(db: &mut Database, go: &PilotRun<'_>) -> DbResult<Measured> {
    go(db)?;
    let before = db.cpu().snapshot();
    go(db)?;
    Ok(Measured::from_delta(&db.cpu().snapshot().delta(&before)))
}

/// The statement a pilot runs, shared by every candidate job.
type PilotRun<'a> = dyn Fn(&mut Database) -> DbResult<()> + Sync + 'a;

/// One table of a [`PilotSpec`]: what a pilot needs to mirror it.
struct PilotTable {
    name: String,
    schema: Schema,
    layout: PageLayout,
    indexed: Vec<String>,
    rows: Vec<Vec<i32>>,
}

/// The read-only recipe every candidate builds its own pilot from: the
/// planning database's profile (code blocks privatized once, so every pilot
/// starts from the same rotation state), processor config, and per table
/// its schema, page layout, indexed columns and the row prefix pilots load.
struct PilotSpec {
    profile: EngineProfile,
    cpu: CpuConfig,
    tables: Vec<PilotTable>,
}

impl PilotSpec {
    /// Copies the first `max_rows` rows of each `(table, max_rows)`.
    fn new(db: &Database, tables: &[(&str, usize)]) -> DbResult<PilotSpec> {
        let mut profile = db.profile().clone();
        // Private code blocks: pilots are their own simulated cores, and
        // must not advance the session's block-rotation state.
        profile.privatize_blocks();
        let tables = tables
            .iter()
            .map(|&(name, max_rows)| {
                let ti = db.table_idx(name)?;
                let t = db.table(name)?;
                Ok(PilotTable {
                    name: name.to_string(),
                    schema: t.schema.clone(),
                    layout: t.heap.layout,
                    indexed: (0..t.schema.arity())
                        .filter(|&ci| db.index_on(ti, ci).is_some())
                        .map(|ci| t.schema.columns()[ci].name.clone())
                        .collect(),
                    rows: db.table_rows(ti, max_rows)?,
                })
            })
            .collect::<DbResult<_>>()?;
        Ok(PilotSpec {
            profile,
            cpu: db.cpu().config().clone(),
            tables,
        })
    }

    /// A fresh pilot database loaded (uninstrumented) with the first
    /// `lead_rows` rows of the first table and every row of the others,
    /// with the planning database's secondary indexes rebuilt.
    fn build(&self, lead_rows: usize) -> DbResult<Database> {
        let limit = |i: usize| if i == 0 { lead_rows } else { usize::MAX };
        let total_rows: usize = (self.tables.iter().enumerate())
            .map(|(i, t)| t.rows.len().min(limit(i)))
            .sum();
        let mut profile = self.profile.clone();
        profile.privatize_blocks();
        let mut pilot =
            Database::with_capacity(profile, self.cpu.clone(), (total_rows as u64 / 8).max(1024));
        pilot.ctx.instrument = false;
        for (i, t) in self.tables.iter().enumerate() {
            pilot.create_table_with_layout(&t.name, t.schema.clone(), t.layout)?;
            pilot.load_rows(&t.name, t.rows.iter().take(limit(i)).cloned())?;
            for col in &t.indexed {
                pilot.create_index(&t.name, col)?;
            }
        }
        pilot.ctx.instrument = true;
        Ok(pilot)
    }
}

/// Measures every `(config, lead_rows)` job on its own fresh pilot, in
/// parallel over `workers` threads, returning each measurement with the
/// chosen-shape explain of `shape_q` under that config — in job order.
/// No job sees another's cache, TLB or predictor state, so the results do
/// not depend on the order or the worker count; the first error in job
/// order wins.
fn measure_jobs(
    spec: &PilotSpec,
    jobs: Vec<(PhysicalConfig, usize)>,
    workers: usize,
    shape_q: &Query,
    go: &PilotRun<'_>,
) -> DbResult<Vec<(Measured, String)>> {
    run_jobs_parallel(jobs, workers, 0, |_, (config, lead_rows)| {
        let mut pilot = spec.build(lead_rows)?;
        config.apply(&mut pilot);
        Ok((measure(&mut pilot, go)?, pilot.explain(shape_q)?))
    })
    .into_iter()
    .collect()
}

fn candidate(config: PhysicalConfig, m: &Measured, pilot_rows: u64) -> CandidateCost {
    CandidateCost {
        config,
        est_cycles: m.cycles,
        t_c: m.t_c,
        t_m: m.t_m,
        t_b: m.t_b,
        t_r: m.t_r,
        pilot_rows,
    }
}

/// Index of the minimum-cost candidate (first wins ties — deterministic).
fn pick(cands: &[CandidateCost]) -> usize {
    let mut best = 0;
    for (i, c) in cands.iter().enumerate().skip(1) {
        if c.est_cycles < cands[best].est_cycles {
            best = i;
        }
    }
    best
}

/// Plans a bound statement against `db`. Returns `None` for statements with
/// no physical choice to make (point reads and mutations run as-is).
pub(crate) fn plan(
    db: &Database,
    sql: &str,
    stmt: &BoundStatement,
) -> DbResult<Option<PlanReport>> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    plan_with_workers(db, sql, stmt, workers)
}

/// [`plan`] with an explicit pilot worker count; the report is the same
/// for every count.
pub(crate) fn plan_with_workers(
    db: &Database,
    sql: &str,
    stmt: &BoundStatement,
    workers: usize,
) -> DbResult<Option<PlanReport>> {
    match stmt {
        BoundStatement::Scalar(q) => match q {
            Query::SelectAgg {
                table, predicate, ..
            } => plan_scan(db, sql, q, table, predicate.as_ref(), None, workers).map(Some),
            Query::JoinAgg { .. } => plan_join(db, sql, q, workers).map(Some),
            _ => Ok(None),
        },
        BoundStatement::Grouped {
            table,
            group_col,
            predicate,
            agg,
        } => plan_grouped(db, sql, table, group_col, predicate.as_ref(), agg, workers).map(Some),
    }
}

/// Exec-mode × selection-mode candidates for a filtered plan; exec modes
/// only when there is no filter to qualify.
fn scan_configs(has_filter: bool) -> Vec<PhysicalConfig> {
    let mut out = Vec::new();
    for mode in [ExecMode::Row, ExecMode::Batch] {
        if has_filter {
            for sel in [SelectionMode::Branching, SelectionMode::Predicated] {
                out.push(PhysicalConfig {
                    exec_mode: mode,
                    selection_mode: Some(sel),
                    join_algo: None,
                });
            }
        } else {
            out.push(PhysicalConfig {
                exec_mode: mode,
                selection_mode: None,
                join_algo: None,
            });
        }
    }
    out
}

fn plan_scan(
    db: &Database,
    sql: &str,
    q: &Query,
    table: &str,
    predicate: Option<&QueryPredicate>,
    grouped: Option<(&str, &AggSpec)>,
    workers: usize,
) -> DbResult<PlanReport> {
    let full = db.table(table)?.heap.n_records as usize;
    let pilot_rows = full.min(PILOT_SCAN_ROWS);
    let spec = PilotSpec::new(db, &[(table, pilot_rows)])?;
    let factor = full as f64 / pilot_rows.max(1) as f64;

    let configs = scan_configs(predicate.is_some());
    let go = |p: &mut Database| match grouped {
        None => p.run(q).map(|_| ()),
        Some((group_col, agg)) => p.run_grouped(table, group_col, predicate, agg).map(|_| ()),
    };
    let jobs = configs.iter().map(|&c| (c, pilot_rows)).collect();
    let mut measured = measure_jobs(&spec, jobs, workers, q, &go)?;
    let candidates: Vec<_> = (configs.iter().zip(&measured))
        .map(|(&c, (m, _))| candidate(c, &m.scale(factor), pilot_rows as u64))
        .collect();
    let chosen = pick(&candidates);
    Ok(PlanReport {
        sql: sql.to_string(),
        shape: measured.swap_remove(chosen).1,
        candidates,
        chosen,
        full_rows: full as u64,
    })
}

fn plan_grouped(
    db: &Database,
    sql: &str,
    table: &str,
    group_col: &str,
    predicate: Option<&QueryPredicate>,
    agg: &AggSpec,
    workers: usize,
) -> DbResult<PlanReport> {
    // The grouped plan is the scan plan plus a group map; reuse the scan
    // pilot with the grouped runner. The structural explain renders the
    // equivalent ungrouped aggregate (grouping adds no physical choice).
    let q = Query::SelectAgg {
        table: table.to_string(),
        predicate: predicate.cloned(),
        agg: agg.clone(),
    };
    plan_scan(
        db,
        sql,
        &q,
        table,
        predicate,
        Some((group_col, agg)),
        workers,
    )
}

fn plan_join(db: &Database, sql: &str, q: &Query, workers: usize) -> DbResult<PlanReport> {
    let Query::JoinAgg {
        left,
        right,
        right_col,
        ..
    } = q
    else {
        return Err(DbError::PlanError("plan_join on a non-join".into()));
    };
    let ri = db.table_idx(right)?;
    let full = db.table(left)?.heap.n_records as usize;

    // Full build side, two probe prefixes: the hash table the pilot builds
    // is the real one, so its (non-)residency in L2 — the crossover the
    // partitioned join exists for — is measured, not modeled. Each probe
    // size of each candidate is its own pilot job.
    let (p1, p2) = (
        full.min(PILOT_PROBE_ROWS.0).max(1),
        full.min(PILOT_PROBE_ROWS.1).max(1),
    );
    let sizes: &[usize] = if p2 > p1 { &[p1, p2] } else { &[p1] };
    let spec = PilotSpec::new(db, &[(left, p2), (right, usize::MAX)])?;

    let rkey = db.table(right)?.schema.col(right_col)?;
    let mut algos = vec![JoinAlgo::Hash, JoinAlgo::PartitionedHash];
    if db.index_on(ri, rkey).is_some() {
        algos.push(JoinAlgo::IndexNestedLoop);
    }
    let configs: Vec<_> = [ExecMode::Row, ExecMode::Batch]
        .into_iter()
        .flat_map(|mode| {
            algos.iter().map(move |&algo| PhysicalConfig {
                exec_mode: mode,
                selection_mode: None,
                join_algo: Some(algo),
            })
        })
        .collect();
    let jobs = (configs.iter())
        .flat_map(|&c| sizes.iter().map(move |&n| (c, n)))
        .collect();
    let go = |p: &mut Database| p.run(q).map(|_| ());
    let mut measured = measure_jobs(&spec, jobs, workers, q, &go)?;

    let candidates: Vec<_> = (configs.iter().zip(measured.chunks(sizes.len())))
        .map(|(&config, ms)| {
            let est = match ms {
                [(m1, _), (m2, _)] => m1.extrapolate(m2, p1 as f64, p2 as f64, full as f64),
                _ => ms[0].0,
            };
            candidate(config, &est, p2 as u64)
        })
        .collect();
    let chosen = pick(&candidates);
    Ok(PlanReport {
        sql: sql.to_string(),
        shape: measured.swap_remove(chosen * sizes.len()).1,
        candidates,
        chosen,
        full_rows: full as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::SystemId;
    use crate::sql::bind::compile;
    use crate::testutil::{build_db_with_indexes, rows_for};

    const SCAN: &str = "SELECT AVG(a3) FROM R WHERE a2 > 10 AND a2 < 300";
    const GROUPED: &str = "SELECT a4, SUM(a3) FROM R WHERE a2 > 10 AND a2 < 300 GROUP BY a4";
    const JOIN: &str = "SELECT AVG(R.a3) FROM R JOIN S ON R.a2 = S.a1";

    /// R is larger than one scan pilot; S is indexed on the join key, so
    /// the join enumerates all three algorithms.
    fn db() -> Database {
        let (r, s) = (rows_for(3000, 7), rows_for(300, 11));
        build_db_with_indexes(
            SystemId::C,
            PageLayout::Nsm,
            &[("R", &r), ("S", &s)],
            &[("S", "a1")],
        )
    }

    fn report(db: &Database, sql: &str, workers: usize) -> PlanReport {
        let stmt = compile(db, sql).unwrap();
        plan_with_workers(db, sql, &stmt, workers).unwrap().unwrap()
    }

    #[test]
    fn plan_reports_do_not_depend_on_the_worker_count() {
        let db = db();
        for sql in [SCAN, GROUPED, JOIN] {
            let one = report(&db, sql, 1);
            for workers in [2, 4] {
                let many = report(&db, sql, workers);
                assert_eq!(many, one, "{sql} at {workers} workers");
                for (a, b) in many.candidates.iter().zip(&one.candidates) {
                    assert_eq!(a.est_cycles.to_bits(), b.est_cycles.to_bits(), "{sql}");
                }
            }
        }
    }

    /// The old construction, one configuration at a time: a fresh pilot
    /// holding `tables`, warmed up once and then measured.
    fn standalone(
        db: &Database,
        tables: &[(&str, &[Vec<i32>])],
        config: PhysicalConfig,
        go: &PilotRun<'_>,
    ) -> Measured {
        let mut profile = db.profile().clone();
        profile.privatize_blocks();
        let total: usize = tables.iter().map(|(_, r)| r.len()).sum();
        let cpu = db.cpu().config().clone();
        let mut pilot = Database::with_capacity(profile, cpu, (total as u64 / 8).max(1024));
        pilot.ctx.instrument = false;
        for (name, rows) in tables {
            let t = db.table(name).unwrap();
            pilot
                .create_table_with_layout(name, t.schema.clone(), t.heap.layout)
                .unwrap();
            pilot.load_rows(name, rows.iter().cloned()).unwrap();
        }
        if tables.len() > 1 {
            pilot.create_index("S", "a1").unwrap();
        }
        pilot.ctx.instrument = true;
        config.apply(&mut pilot);
        measure(&mut pilot, go).unwrap()
    }

    #[test]
    fn each_estimate_equals_a_standalone_fresh_pilot() {
        let db = db();
        let (r, s) = (rows_for(3000, 7), rows_for(300, 11));

        let BoundStatement::Scalar(q) = compile(&db, SCAN).unwrap() else {
            panic!("scalar")
        };
        let go = |p: &mut Database| p.run(&q).map(|_| ());
        let scan = report(&db, SCAN, 2);
        for c in &scan.candidates {
            let m = standalone(&db, &[("R", &r[..PILOT_SCAN_ROWS])], c.config, &go);
            let est = m.scale(3000.0 / PILOT_SCAN_ROWS as f64);
            assert_eq!(c.est_cycles.to_bits(), est.cycles.to_bits(), "{c:?}");
            assert_eq!(c.t_m.to_bits(), est.t_m.to_bits(), "{c:?}");
        }

        let BoundStatement::Scalar(q) = compile(&db, JOIN).unwrap() else {
            panic!("scalar")
        };
        let go = |p: &mut Database| p.run(&q).map(|_| ());
        let join = report(&db, JOIN, 2);
        assert_eq!(join.candidates.len(), 6);
        let (p1, p2) = PILOT_PROBE_ROWS;
        for c in &join.candidates {
            let m1 = standalone(&db, &[("R", &r[..p1]), ("S", &s)], c.config, &go);
            let m2 = standalone(&db, &[("R", &r[..p2]), ("S", &s)], c.config, &go);
            let est = m1.extrapolate(&m2, p1 as f64, p2 as f64, 3000.0);
            assert_eq!(c.est_cycles.to_bits(), est.cycles.to_bits(), "{c:?}");
            assert_eq!(c.t_b.to_bits(), est.t_b.to_bits(), "{c:?}");
        }
    }
}
