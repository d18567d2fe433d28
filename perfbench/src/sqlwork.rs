//! The two SQL workloads, `adhoc` and `report`, and the answer oracle they
//! share.
//!
//! Both run one closed-loop client through a [`Session`]. `adhoc` sends a
//! new statement text every time over a table that fits the modelled L2,
//! so every statement is lexed, parsed, bound and planned. `report` repeats
//! five statements over a sharded table far larger than the modelled
//! caches; their plans are made once during set-up. Every answer is
//! compared, bit for bit, with a fold over the generated rows.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdtg_memdb::sql::{bind, parser, BoundStatement, PhysicalConfig};
use wdtg_memdb::{
    AggKind, Database, DbError, DbResult, EngineProfile, Query, QueryResult, Schema, Session,
    SystemId,
};
use wdtg_sim::{merge_cores, Component, CpuConfig, Event, InterruptCfg, Snapshot};
use wdtg_workloads::micro;
use wdtg_workloads::scale::Scale;

use crate::speed::{Speed, Timed};
use crate::stats::{fnv, median, quantile, FNV_START};
use crate::trace::Tracer;
use crate::{calib, peak_rss_mb, Outcome, Run};

/// Simulated cycles per millisecond of the modelled 400 MHz processor.
pub const CYCLES_PER_MS: f64 = 4e5;

/// Record size of R and S on both SQL workloads, as in the paper.
const RECORD_BYTES: u32 = 100;
/// `adhoc` data: R fits the modelled 512 KB L2 (4,800 × 100 B ≈ 470 KB).
const ADHOC_SCALE: Scale = Scale {
    r_records: 4_800,
    s_records: 160,
    record_bytes: RECORD_BYTES,
};
/// Set-ups per `adhoc` run; `setup_s` is their median.
const ADHOC_SETUPS: usize = 15;
/// Set-ups per `report` run.
const REPORT_SETUPS: usize = 3;
/// Hash shards of the `report` database.
const REPORT_SHARDS: usize = 2;

/// The engine every workload runs: System C on the Pentium II Xeon model
/// with interrupts disabled.
pub fn new_db() -> Database {
    Database::new(
        EngineProfile::system(SystemId::C),
        CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled()),
    )
}

/// The generated tables, kept for the oracle.
struct Rows {
    r: Vec<Vec<i32>>,
    s: Vec<Vec<i32>>,
}

impl Rows {
    fn digest(&self) -> u64 {
        self.r
            .iter()
            .chain(&self.s)
            .flatten()
            .fold(FNV_START, |h, v| fnv(h, &v.to_le_bytes()))
    }
}

/// Statement shapes; each times its execute step under its own span.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Scan,
    Group,
    Join,
    Count,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Scan => "exec.scan",
            Kind::Group => "exec.group",
            Kind::Join => "exec.join",
            Kind::Count => "exec.count",
        }
    }
}

const KINDS: [Kind; 4] = [Kind::Scan, Kind::Group, Kind::Join, Kind::Count];

/// An answer with its value's bits, so equality is exact.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Scalar { value: u64, rows: u64 },
    Grouped(Vec<(i32, u64)>),
}

fn scalar(r: QueryResult) -> Answer {
    Answer::Scalar {
        value: r.value.to_bits(),
        rows: r.rows,
    }
}

fn grouped(g: Vec<(i32, f64)>) -> Answer {
    Answer::Grouped(g.into_iter().map(|(k, v)| (k, v.to_bits())).collect())
}

#[derive(Debug, Clone)]
struct Stmt {
    text: String,
    kind: Kind,
    want: Answer,
}

/// The oracle's accumulator: integer sum, count, min and max, rendered the
/// way SQL defines each aggregate.
#[derive(Clone, Copy)]
struct Acc {
    sum: i64,
    count: u64,
    min: i32,
    max: i32,
}

impl Acc {
    const EMPTY: Acc = Acc {
        sum: 0,
        count: 0,
        min: i32::MAX,
        max: i32::MIN,
    };

    fn add(&mut self, v: i32, times: u64) {
        if times > 0 {
            self.sum += v as i64 * times as i64;
            self.count += times;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    fn value(&self, kind: AggKind) -> f64 {
        match (kind, self.count) {
            (AggKind::Count, n) => n as f64,
            (AggKind::Sum, _) => self.sum as f64,
            (_, 0) => 0.0,
            (AggKind::Avg, n) => self.sum as f64 / n as f64,
            (AggKind::Min, _) => self.min as f64,
            (AggKind::Max, _) => self.max as f64,
        }
    }

    fn answer(&self, kind: AggKind) -> Answer {
        Answer::Scalar {
            value: self.value(kind).to_bits(),
            rows: self.count,
        }
    }
}

const AGGS: [(AggKind, &str); 4] = [
    (AggKind::Avg, "AVG"),
    (AggKind::Sum, "SUM"),
    (AggKind::Min, "MIN"),
    (AggKind::Max, "MAX"),
];

/// `SELECT agg(a{col+1}) FROM R WHERE a2 > lo AND a2 < hi`; `agg = None`
/// is `COUNT(*)`.
fn scan_stmt(rows: &Rows, agg: Option<(AggKind, &str)>, col: usize, lo: i32, hi: i32) -> Stmt {
    let mut acc = Acc::EMPTY;
    for r in rows.r.iter().filter(|r| lo < r[1] && r[1] < hi) {
        acc.add(r[col], 1);
    }
    let (kind, proj, agg) = match agg {
        None => (Kind::Count, "COUNT(*)".to_string(), AggKind::Count),
        Some((k, name)) => (Kind::Scan, format!("{name}(a{})", col + 1), k),
    };
    Stmt {
        text: format!("SELECT {proj} FROM R WHERE a2 > {lo} AND a2 < {hi}"),
        kind,
        want: acc.answer(agg),
    }
}

/// `SELECT a{g+1}, agg(a{col+1}) FROM R WHERE a2 > lo AND a2 < hi GROUP BY
/// a{g+1}`.
fn group_stmt(
    rows: &Rows,
    (agg, name): (AggKind, &str),
    g: usize,
    col: usize,
    lo: i32,
    hi: i32,
) -> Stmt {
    let mut groups: BTreeMap<i32, Acc> = BTreeMap::new();
    for r in rows.r.iter().filter(|r| lo < r[1] && r[1] < hi) {
        groups.entry(r[g]).or_insert(Acc::EMPTY).add(r[col], 1);
    }
    let gname = format!("a{}", g + 1);
    Stmt {
        text: format!(
            "SELECT {gname}, {name}(a{}) FROM R WHERE a2 > {lo} AND a2 < {hi} GROUP BY {gname}",
            col + 1
        ),
        kind: Kind::Group,
        want: Answer::Grouped(
            groups
                .into_iter()
                .map(|(k, a)| (k, a.value(agg).to_bits()))
                .collect(),
        ),
    }
}

/// R ⋈ S on `R.a2 = S.a1`, aggregating `S.a{col+1}` if `on_s`, else
/// `R.a{col+1}`; `agg = None` is `COUNT(*)`, which counts on the first
/// table in FROM, so it names S first exactly when `on_s`. `form` picks the
/// comma, `JOIN … ON` or `INNER JOIN` spelling (the last with the condition
/// reversed); `s_first` the table order of the others.
fn join_stmt(
    rows: &Rows,
    agg: Option<(AggKind, &str)>,
    on_s: bool,
    col: usize,
    form: usize,
    s_first: bool,
) -> Stmt {
    let s_first = if agg.is_none() { on_s } else { s_first };
    let (t1, t2) = if s_first { ("S", "R") } else { ("R", "S") };
    let (probe, pk, build, bk) = if on_s {
        (&rows.s, 0, &rows.r, 1)
    } else {
        (&rows.r, 1, &rows.s, 0)
    };
    let mut matches: HashMap<i32, u64> = HashMap::new();
    for b in build {
        *matches.entry(b[bk]).or_insert(0) += 1;
    }
    let mut acc = Acc::EMPTY;
    for p in probe {
        acc.add(p[col], matches.get(&p[pk]).copied().unwrap_or(0));
    }
    let key = |t: &str| if t == "R" { "R.a2" } else { "S.a1" };
    let on = match form {
        0 => format!("{t1}, {t2} WHERE {} = {}", key(t1), key(t2)),
        1 => format!("{t1} JOIN {t2} ON {} = {}", key(t1), key(t2)),
        _ => format!("{t1} INNER JOIN {t2} ON {} = {}", key(t2), key(t1)),
    };
    let (proj, agg) = match agg {
        None => ("COUNT(*)".to_string(), AggKind::Count),
        Some((k, name)) => (
            format!("{name}({}.a{})", if on_s { "S" } else { "R" }, col + 1),
            k,
        ),
    };
    Stmt {
        text: format!("SELECT {proj} FROM {on}"),
        kind: Kind::Join,
        want: acc.answer(agg),
    }
}

/// The `adhoc` statement stream: range scans, `GROUP BY a4`s and joins with
/// seeded aggregates, columns and literals, no text ever repeated.
struct AdhocGen {
    rng: StdRng,
    seen: HashSet<String>,
    next: usize,
    digest: u64,
}

impl AdhocGen {
    fn new(seed: u64) -> AdhocGen {
        AdhocGen {
            rng: StdRng::seed_from_u64(seed ^ 0xAD_0C),
            seen: HashSet::new(),
            next: 0,
            digest: FNV_START,
        }
    }

    /// A seeded range covering 10–30% of the domain: wide enough that the
    /// planner's pilots see the filter at work, narrow in spread so one
    /// run's mix of selectivities is like another's.
    fn range(&mut self, domain: i32) -> (i32, i32) {
        let width = self.rng.random_range(domain / 10..=domain * 3 / 10);
        let lo = self.rng.random_range(0..=domain - width);
        (lo, lo + width)
    }

    fn agg(&mut self) -> (AggKind, &'static str) {
        AGGS[self.rng.random_range(0..AGGS.len())]
    }

    /// Draws a statement of the next shape in a fixed rotation — scan,
    /// group, join aggregating R, scan, group, join aggregating S — so every
    /// run of one length sends the same mix.
    fn draw(&mut self, rows: &Rows) -> Stmt {
        let domain = ADHOC_SCALE.a2_domain();
        let shape = self.next % 6;
        match shape {
            0 | 3 => {
                let (lo, hi) = self.range(domain);
                let agg = (self.rng.random_range(0..5) > 0).then(|| self.agg());
                scan_stmt(rows, agg, self.rng.random_range(2..25), lo, hi)
            }
            1 | 4 => {
                let (lo, hi) = self.range(domain);
                let agg = self.agg();
                group_stmt(rows, agg, 3, self.rng.random_range(2..25), lo, hi)
            }
            _ => {
                let agg = (self.rng.random_range(0..10) > 0).then(|| self.agg());
                let col = self.rng.random_range(0..25);
                let form = self.rng.random_range(0..3);
                let s_first = self.rng.random_range(0..2) == 1;
                join_stmt(rows, agg, shape == 5, col, form, s_first)
            }
        }
    }

    /// The next statement; a drawn text already sent is drawn again, and
    /// after many repeats padded with spaces, which keeps it new text.
    fn next(&mut self, rows: &Rows) -> Stmt {
        let mut st = self.draw(rows);
        let mut tries = 0;
        while self.seen.contains(&st.text) {
            tries += 1;
            st = self.draw(rows);
            if tries > 64 {
                st.text = format!("{}{}", st.text, " ".repeat(tries - 64));
            }
        }
        self.digest = fnv(self.digest, st.text.as_bytes());
        self.seen.insert(st.text.clone());
        self.next += 1;
        st
    }
}

/// Where a run's statements come from.
enum Source<'a> {
    Adhoc(AdhocGen, &'a Rows),
    /// The fixed `report` statements with the plan each was given in set-up.
    Report(&'a [(Stmt, PhysicalConfig)]),
}

impl Source<'_> {
    /// Digest of the statement texts sent so far.
    fn digest(&self) -> u64 {
        match self {
            Source::Adhoc(generator, _) => generator.digest,
            Source::Report(stmts) => texts_digest(stmts),
        }
    }

    fn next(&mut self, i: usize) -> (Stmt, Option<PhysicalConfig>) {
        match self {
            Source::Adhoc(generator, rows) => (generator.next(rows), None),
            Source::Report(stmts) => {
                let (st, cfg) = &stmts[i % stmts.len()];
                (st.clone(), Some(*cfg))
            }
        }
    }
}

/// Loads `rows` into a fresh database with an index on `S.a1`, recording
/// the load and index spans.
fn load(rows: &Rows, tr: &mut Tracer) -> DbResult<Database> {
    let mut db = new_db();
    db.create_table("R", Schema::paper_relation(RECORD_BYTES))?;
    db.create_table("S", Schema::paper_relation(RECORD_BYTES))?;
    let (r, s) = (rows.r.clone(), rows.s.clone());
    let sp = tr.enter("heap.load");
    let loaded = db.load_rows("R", r).and_then(|_| db.load_rows("S", s));
    tr.exit(sp);
    loaded?;
    let sp = tr.enter("index.create");
    let indexed = db.create_index("S", "a1");
    tr.exit(sp);
    indexed?;
    Ok(db)
}

fn gen_rows(scale: Scale, seed: u64, tr: &mut Tracer) -> Rows {
    let sp = tr.enter("workloads.gen");
    let rows = Rows {
        r: micro::r_rows(scale, seed).collect(),
        s: micro::s_rows(scale, seed).collect(),
    };
    tr.exit(sp);
    rows
}

fn setup_adhoc(seed: u64, tr: &mut Tracer) -> DbResult<(Session, Rows)> {
    let rows = gen_rows(ADHOC_SCALE, seed, tr);
    let db = load(&rows, tr)?;
    Ok((Session::open(db), rows))
}

/// The five `report` statements: a 1% scan, a 50% scan, a `GROUP BY`, the
/// R ⋈ S join and `COUNT(*)`, with seeded ranges.
fn report_stmts(rows: &Rows, seed: u64) -> Vec<Stmt> {
    let domain = Scale::dev().a2_domain();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4E_9047);
    let mut range = |frac: f64| {
        let width = (domain as f64 * frac).round() as i32 + 1;
        let lo = rng.random_range(0..=domain - width);
        (lo, lo + width)
    };
    let (lo1, hi1) = range(0.01);
    let (lo50, hi50) = range(0.5);
    let (log, hig) = range(0.2);
    let mut all = Acc::EMPTY;
    for r in &rows.r {
        all.add(r[0], 1);
    }
    vec![
        scan_stmt(rows, Some(AGGS[0]), 2, lo1, hi1),
        scan_stmt(rows, Some(AGGS[1]), 3, lo50, hi50),
        group_stmt(rows, AGGS[3], 1, 2, log, hig),
        join_stmt(rows, Some(AGGS[0]), false, 2, 1, false),
        Stmt {
            text: "SELECT COUNT(*) FROM R".into(),
            kind: Kind::Count,
            want: all.answer(AggKind::Count),
        },
    ]
}

/// Per-core simulated cycles: one entry for a single-core session, one per
/// shard for a sharded one.
fn core_cycles(sess: &Session) -> Vec<f64> {
    match sess.db() {
        Some(db) => vec![db.cpu().cycles()],
        None => sess.sharded().map_or(Vec::new(), |s| {
            s.shards().iter().map(|d| d.cpu().cycles()).collect()
        }),
    }
}

fn snapshots(sess: &Session) -> Vec<Snapshot> {
    match sess.db() {
        Some(db) => vec![db.cpu().snapshot()],
        None => sess.sharded().map_or(Vec::new(), |s| s.snapshots()),
    }
}

fn catalog(sess: &Session) -> &Database {
    match sess.db() {
        Some(db) => db,
        None => &sess
            .sharded()
            .expect("a session is single-core or sharded")
            .shards()[0],
    }
}

/// Rows of `table` summed over shards.
fn table_rows(sess: &Session, table: &str) -> DbResult<u64> {
    match sess.db() {
        Some(db) => Ok(db.table(table)?.heap.n_records),
        None => {
            let shards = sess
                .sharded()
                .expect("a session is single-core or sharded")
                .shards();
            shards
                .iter()
                .map(|d| Ok(d.table(table)?.heap.n_records))
                .sum()
        }
    }
}

fn run_sql(sess: &mut Session, st: &Stmt) -> DbResult<Answer> {
    match st.kind {
        Kind::Group => sess.sql_grouped(&st.text).map(grouped),
        _ => sess.sql(&st.text).map(scalar),
    }
}

/// Applies a plan's knobs the way [`Session::sql`] does.
fn apply(sess: &mut Session, cfg: &PhysicalConfig) {
    if let Some(db) = sess.db_mut() {
        cfg.apply(db);
    } else if let Some(db) = sess.sharded_mut() {
        db.set_exec_mode(cfg.exec_mode);
        if let Some(s) = cfg.selection_mode {
            db.set_selection_mode(s);
        }
        if let Some(j) = cfg.join_algo {
            db.set_join_algo(j);
        }
    }
}

/// The execute step alone: `Database::run`/`run_grouped`, or the
/// `ShardedDatabase` calls through `Session::sharded_mut`.
fn execute(sess: &mut Session, bound: &BoundStatement) -> DbResult<Answer> {
    if let Some(db) = sess.db_mut() {
        return match bound {
            BoundStatement::Scalar(q) => db.run(q).map(scalar),
            BoundStatement::Grouped {
                table,
                group_col,
                predicate,
                agg,
            } => db
                .run_grouped(table, group_col, predicate.as_ref(), agg)
                .map(grouped),
        };
    }
    let db = sess
        .sharded_mut()
        .expect("a session is single-core or sharded");
    match bound {
        BoundStatement::Scalar(q) => db.run(q).map(scalar),
        BoundStatement::Grouped {
            table,
            group_col,
            predicate,
            agg,
        } => db
            .run_grouped(table, group_col, predicate.as_ref(), agg)
            .map(grouped),
    }
}

/// What an untraced phase measured.
struct Untraced {
    /// Host time of each statement at the reference speed, ms.
    host_ms: Vec<f64>,
    /// Simulated latency of each statement in the fixed prefix (the
    /// slowest core's cycles), ms.
    sim_ms: Vec<f64>,
    wall_s: f64,
    /// The statements' host seconds at the reference speed.
    host_s: f64,
    /// Simulated cycles summed over cores and over every statement.
    core_cycles: f64,
    failed: u64,
    replans: u64,
}

/// Sends statements through `Session::sql`/`sql_grouped` until `run.stmts`
/// have run and `run.seconds` have passed, timing each on `speed`.
fn untraced(sess: &mut Session, src: &mut Source, run: &Run, speed: &mut Speed) -> Untraced {
    let mut out = Untraced {
        host_ms: Vec::new(),
        sim_ms: Vec::new(),
        wall_s: 0.0,
        host_s: 0.0,
        core_cycles: 0.0,
        failed: 0,
        replans: 0,
    };
    let mut last_plan = sess.last_plan().cloned();
    let mut host = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < run.stmts || start.elapsed() < run.seconds {
        let (st, _) = src.next(i);
        let before = core_cycles(sess);
        let (got, timed) = speed.time(|| run_sql(sess, &st));
        host.push(timed);
        let deltas: Vec<f64> = core_cycles(sess)
            .iter()
            .zip(&before)
            .map(|(a, b)| a - b)
            .collect();
        if i < run.stmts {
            out.sim_ms
                .push(deltas.iter().copied().fold(0.0, f64::max) / CYCLES_PER_MS);
        }
        out.core_cycles += deltas.iter().sum::<f64>();
        if got.as_ref() != Ok(&st.want) {
            out.failed += 1;
            eprintln!("wrong answer or error for {:?}: {:?}", st.text, got.err());
        }
        if sess.last_plan() != last_plan.as_ref() {
            out.replans += 1;
            last_plan = sess.last_plan().cloned();
        }
        i += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    speed.finish();
    out.host_ms = host.iter().map(|t| speed.scaled(t) * 1e3).collect();
    out.host_s = out.host_ms.iter().sum::<f64>() / 1e3;
    out
}

/// What a traced phase measured besides its spans.
struct Traced {
    stmts: u64,
    failed: u64,
    wall_s: f64,
    candidates: u64,
    driving_rows: u64,
    /// Simulated work of the execute steps, summed over cores.
    sim: Snapshot,
    /// Simulated cycles of the execute steps, per core.
    per_core: Vec<f64>,
}

/// One statement decomposed into the calls of each layer: parse, bind,
/// plan (`Session::explain`, unless set-up planned it) and execute.
fn traced_stmt(
    sess: &mut Session,
    st: &Stmt,
    planned: Option<PhysicalConfig>,
    tr: &mut Tracer,
    acc: &mut Traced,
) -> DbResult<Answer> {
    let sp = tr.enter("sql.parse");
    let ast = parser::parse(&st.text);
    tr.exit(sp);
    let sp = tr.enter("sql.bind");
    let bound = ast.and_then(|a| bind::bind(catalog(sess), &st.text, &a));
    tr.exit(sp);
    let bound = bound?;
    let cfg = match planned {
        Some(cfg) => cfg,
        None => {
            let sp = tr.enter("plan");
            let explained = sess.explain(&st.text);
            tr.exit(sp);
            explained?;
            let report = sess
                .last_plan()
                .ok_or(DbError::Internal("no plan".into()))?;
            acc.candidates += report.candidates.len() as u64;
            report.chosen().config
        }
    };
    apply(sess, &cfg);
    let driving = match &bound {
        BoundStatement::Scalar(Query::SelectAgg { table, .. })
        | BoundStatement::Scalar(Query::JoinAgg { left: table, .. })
        | BoundStatement::Grouped { table, .. } => table_rows(sess, table)?,
        BoundStatement::Scalar(_) => 0,
    };
    let before = snapshots(sess);
    let sp = tr.enter(st.kind.span());
    let got = execute(sess, &bound);
    tr.exit(sp);
    let deltas: Vec<Snapshot> = snapshots(sess)
        .iter()
        .zip(&before)
        .map(|(a, b)| a.delta(b))
        .collect();
    acc.sim.absorb(&merge_cores(&deltas).total);
    for (c, d) in acc.per_core.iter_mut().zip(&deltas) {
        *c += d.cycles;
    }
    acc.driving_rows += driving;
    got
}

fn traced(sess: &mut Session, src: &mut Source, run: &Run, tr: &mut Tracer) -> Traced {
    let now = snapshots(sess);
    let mut acc = Traced {
        stmts: 0,
        failed: 0,
        wall_s: 0.0,
        candidates: 0,
        driving_rows: 0,
        sim: now[0].delta(&now[0]),
        per_core: vec![0.0; now.len()],
    };
    let start = Instant::now();
    for i in 0..run.stmts {
        let (st, planned) = src.next(i);
        tr.request(i as u64);
        let root = tr.enter("stmt");
        let got = traced_stmt(sess, &st, planned, tr, &mut acc);
        tr.exit(root);
        if got.as_ref() != Ok(&st.want) {
            acc.failed += 1;
            eprintln!("wrong answer or error for {:?}: {:?}", st.text, got.err());
        }
        acc.stmts += 1;
    }
    acc.wall_s = start.elapsed().as_secs_f64();
    acc
}

/// `a / b`, or 0 when nothing was measured.
pub fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Failures of the traced decomposition's invariant: the untraced and
/// traced phases ran the same statements, and decomposing `Session::sql`
/// into its layer calls must not change the simulated work.
fn same_sim_work(u: &Untraced, t: &Traced) -> u64 {
    let traced: f64 = t.per_core.iter().sum();
    if (traced - u.core_cycles).abs() > 1e-9 * u.core_cycles.abs() {
        eprintln!(
            "traced statements simulated {traced} cycles, untraced {}",
            u.core_cycles
        );
        return 1;
    }
    0
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(setup_s: &[f64], u: &Untraced) -> Vec<(&'static str, f64)> {
    let stmts = u.host_ms.len() as f64;
    let sim_total_s = u.sim_ms.iter().sum::<f64>() / 1e3;
    vec![
        ("setup_s", median(setup_s)),
        ("ops_per_s", stmts / u.host_s),
        ("p50_ms", quantile(&u.host_ms, 0.5)),
        ("p90_ms", quantile(&u.host_ms, 0.9)),
        ("sim_p50_ms", quantile(&u.sim_ms, 0.5)),
        ("sim_tail_ms", quantile(&u.sim_ms, 0.9)),
        ("sim_ops_per_s", u.sim_ms.len() as f64 / sim_total_s),
        ("host_ns_per_sim_cycle", u.host_s * 1e9 / u.core_cycles),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// Set-up facts the per-layer metrics need besides the spans.
struct SetupFacts {
    /// Candidates costed over all statements planned, and how many were.
    candidates: u64,
    planned: u64,
    loaded_rows: u64,
    /// Router retries, for a sharded session.
    router_retries: Option<u64>,
}

/// The per-layer metrics of a traced phase, with the paired untraced phase
/// for the tracing overhead and the plan cache's replan share.
fn per_layer(
    tr: &Tracer,
    t: &Traced,
    u: &Untraced,
    facts: &SetupFacts,
) -> Vec<(&'static str, f64)> {
    let n = t.stmts as f64;
    let parse = tr.total_ns("sql.parse");
    let bind = tr.total_ns("sql.bind");
    // `Session::explain` compiles before it plans: its plan time is the span
    // less the mean compile time the parse and bind spans measured.
    let compile_ns = (parse + bind) / n;
    let compile_allocs = (tr.allocs("sql.parse") + tr.allocs("sql.bind")) as f64 / n;
    let plans = tr.count("plan") as f64;
    let plan_ns = tr.total_ns("plan") - plans * compile_ns;
    let (plans_in_stmt, plan_in_stmt_ns) = tr.under("plan", "stmt");
    let plan_in_stmt_ns = plan_in_stmt_ns - plans_in_stmt as f64 * compile_ns;
    let plan_allocs = tr.allocs("plan") as f64 - plans * compile_allocs;
    let exec_ns: f64 = KINDS.iter().map(|k| tr.total_ns(k.span())).sum();
    let exec_allocs: u64 = KINDS.iter().map(|k| tr.allocs(k.span())).sum();
    let kind_ms = |k: Kind| per(tr.total_ns(k.span()), tr.count(k.span()) as f64) / 1e6;
    let rows = t.driving_rows as f64;
    let mut m = sim_layer(&t.sim, rows, exec_ns);
    let (shard_ms, skew, retries) = match facts.router_retries {
        Some(retries) => {
            let mean = t.per_core.iter().sum::<f64>() / t.per_core.len() as f64;
            let max = t.per_core.iter().copied().fold(0.0, f64::max);
            (exec_ns / n / 1e6, per(max, mean), retries as f64)
        }
        None => (0.0, 0.0, 0.0),
    };
    let untraced_ops = u.host_ms.len() as f64 / u.wall_s;
    let traced_ops = n / t.wall_s;
    let mut out = vec![
        ("sql.parse_us", parse / n / 1e3),
        ("sql.bind_us", bind / n / 1e3),
        ("sql.allocs_per_stmt", compile_allocs),
        ("plan.ms_per_stmt", per(plan_ns, plans) / 1e6),
        ("plan.share", per(plan_in_stmt_ns, tr.total_ns("stmt"))),
        (
            "plan.candidates_per_stmt",
            per(facts.candidates as f64, facts.planned as f64),
        ),
        (
            "plan.replan_frac",
            u.replans as f64 / u.host_ms.len() as f64,
        ),
        ("plan.allocs_per_stmt", per(plan_allocs, plans)),
        ("exec.ms_per_stmt", exec_ns / n / 1e6),
        ("exec.scan_ms", kind_ms(Kind::Scan)),
        ("exec.group_ms", kind_ms(Kind::Group)),
        ("exec.join_ms", kind_ms(Kind::Join)),
        ("exec.count_ms", kind_ms(Kind::Count)),
        ("exec.host_ns_per_row", per(exec_ns, rows)),
        ("exec.allocs_per_row", per(exec_allocs as f64, rows)),
    ];
    out.append(&mut m);
    out.extend([
        ("shard.ms_per_stmt", shard_ms),
        ("shard.skew", skew),
        ("shard.retries", retries),
        ("txn.begin_us", 0.0),
        ("txn.stage_us", 0.0),
        ("txn.commit_us", 0.0),
        ("txn.allocs_per_txn", 0.0),
        ("txn.replay_us_per_record", 0.0),
        ("txn.conflict_frac", 0.0),
        ("txn.wal_records_per_commit", 0.0),
        ("index.point_us", 0.0),
        (
            "index.create_ms",
            per(tr.total_ns("index.create"), tr.count("index.create") as f64) / 1e6,
        ),
        (
            "heap.load_rows_per_s",
            per(facts.loaded_rows as f64 * 1e9, tr.total_ns("heap.load")),
        ),
        ("workloads.gen_s", tr.total_ns("workloads.gen") / 1e9),
    ]);
    out.extend(overhead(untraced_ops, traced_ops));
    out
}

/// The `sim.*` metrics of simulated work `sim` over `rows` rows that took
/// `host_ns` on the host, and the calibration stream's costs.
pub fn sim_layer(sim: &Snapshot, rows: f64, host_ns: f64) -> Vec<(&'static str, f64)> {
    let c = &sim.counters;
    let l = &sim.ledger;
    let sum_of = |pick: fn(Component) -> bool| -> f64 {
        Component::ALL
            .iter()
            .filter(|&&x| pick(x))
            .map(|&x| l.total(x))
            .sum()
    };
    let (tc, tm, tb, tr) = (
        l.total(Component::Tc),
        sum_of(Component::is_memory),
        l.total(Component::Tb),
        sum_of(Component::is_resource),
    );
    let total = tc + tm + tb + tr;
    let events = (c.total(Event::InstRetired)
        + c.total(Event::DataMemRefs)
        + c.total(Event::BrInstRetired)) as f64;
    let l2_misses = c.total(Event::SimL2DataMiss) + c.total(Event::SimL2IfetchMiss);
    let cal = calib::run();
    vec![
        (
            "sim.instr_per_row",
            per(c.total(Event::InstRetired) as f64, rows),
        ),
        ("sim.cycles_per_row", per(sim.cycles, rows)),
        ("sim.l2_miss_per_row", per(l2_misses as f64, rows)),
        (
            "sim.br_mispredict_per_row",
            per(c.total(Event::BrMissPredRetired) as f64, rows),
        ),
        ("sim.tc_share", per(tc, total)),
        ("sim.tm_share", per(tm, total)),
        ("sim.tb_share", per(tb, total)),
        ("sim.tr_share", per(tr, total)),
        ("sim.ns_per_load", cal.ns_per_load),
        ("sim.ns_per_branch", cal.ns_per_branch),
        ("sim.ns_per_block", cal.ns_per_block),
        ("sim.host_ns_per_event", per(host_ns, events)),
    ]
}

/// The tracing-overhead metrics from the two phases' throughputs.
pub fn overhead(untraced_ops: f64, traced_ops: f64) -> [(&'static str, f64); 3] {
    [
        ("trace.ops_per_s_untraced", untraced_ops),
        ("trace.ops_per_s_traced", traced_ops),
        ("trace.overhead_frac", 1.0 - traced_ops / untraced_ops),
    ]
}

/// Prints the probe's median beside the result, so the scaling of the host
/// times can be undone.
pub fn report_speed(speed: &Speed) {
    eprintln!(
        "host speed probe: median {:.4} ms over the run; host times are scaled to {} ms",
        speed.median_ms(),
        crate::speed::REF_PROBE_MS
    );
}

/// Where a traced run writes its spans, relative to the working directory.
pub fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::PathBuf::from(format!(".perfbench/{workload}-seed{seed}.spans.tsv"))
}

fn write_spans(tr: &Tracer, workload: &str, seed: u64) {
    let path = spans_path(workload, seed);
    if let Err(e) = tr.write_tsv(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Runs `adhoc`.
pub fn adhoc(run: &Run) -> DbResult<Outcome> {
    if !run.trace {
        let mut speed = Speed::new();
        let mut times = Vec::new();
        let mut kept = None;
        for _ in 0..ADHOC_SETUPS {
            drop(kept.take());
            let (built, timed) = speed.time(|| setup_adhoc(run.seed, &mut Tracer::off()));
            times.push(timed);
            kept = Some(built?);
        }
        let (mut sess, rows) = kept.expect("at least one set-up");
        let mut src = Source::Adhoc(AdhocGen::new(run.seed), &rows);
        let u = untraced(&mut sess, &mut src, run, &mut speed);
        let setup_s: Vec<f64> = times.iter().map(|t| speed.scaled(t)).collect();
        let digest = rows.digest() ^ src.digest();
        report_speed(&speed);
        return Ok(Outcome {
            attempted: u.host_ms.len() as u64,
            failed: u.failed,
            metrics: end_to_end(&setup_s, &u),
            digest,
        });
    }
    let fixed = Run {
        seconds: std::time::Duration::ZERO,
        ..*run
    };
    let (mut sess, rows) = setup_adhoc(run.seed, &mut Tracer::off())?;
    let u = untraced(
        &mut sess,
        &mut Source::Adhoc(AdhocGen::new(run.seed), &rows),
        &fixed,
        &mut Speed::off(),
    );
    drop(sess);
    let mut tr = Tracer::new();
    let (mut sess, rows) = setup_adhoc(run.seed, &mut tr)?;
    let mut src = Source::Adhoc(AdhocGen::new(run.seed), &rows);
    let t = traced(&mut sess, &mut src, &fixed, &mut tr);
    tr.finish();
    write_spans(&tr, "adhoc", run.seed);
    let facts = SetupFacts {
        candidates: t.candidates,
        planned: tr.count("plan"),
        loaded_rows: (rows.r.len() + rows.s.len()) as u64,
        router_retries: None,
    };
    Ok(Outcome {
        attempted: u.host_ms.len() as u64 + t.stmts,
        failed: u.failed + t.failed + same_sim_work(&u, &t),
        metrics: per_layer(&tr, &t, &u, &facts),
        digest: rows.digest() ^ src.digest(),
    })
}

/// One `report` set-up.
struct ReportSetup {
    sess: Session,
    /// The statements, each with the plan set-up gave it.
    fixed: Vec<(Stmt, PhysicalConfig)>,
    /// Candidates the planner costed over all statements.
    candidates: u64,
    rows: Rows,
    /// Host time of generation and of the rest, the oracle's folds between
    /// them excluded.
    parts: [Timed; 2],
}

/// Generates and loads the `report` tables, shards them and plans each
/// statement once.
fn report_setup(seed: u64, tr: &mut Tracer, speed: &mut Speed) -> DbResult<ReportSetup> {
    let (rows, gen) = speed.time(|| gen_rows(Scale::dev(), seed, tr));
    let stmts = report_stmts(&rows, seed);
    let (built, rest) = speed.time(|| -> DbResult<_> {
        let mut db = load(&rows, tr)?;
        micro::declare_shard_keys(&mut db)?;
        let mut sess = Session::open_sharded(db.shard(REPORT_SHARDS)?);
        let mut fixed = Vec::new();
        let mut candidates = 0;
        for st in stmts {
            let sp = tr.enter("plan");
            let planned = sess.explain(&st.text);
            tr.exit(sp);
            planned?;
            let report = sess
                .last_plan()
                .ok_or(DbError::Internal("no plan".into()))?;
            candidates += report.candidates.len() as u64;
            let cfg = report.chosen().config;
            fixed.push((st, cfg));
        }
        Ok((sess, fixed, candidates))
    });
    let (sess, fixed, candidates) = built?;
    Ok(ReportSetup {
        sess,
        fixed,
        candidates,
        rows,
        parts: [gen, rest],
    })
}

/// Runs `report`.
pub fn report(run: &Run) -> DbResult<Outcome> {
    if !run.trace {
        let mut speed = Speed::new();
        let mut times = Vec::new();
        let mut kept = None;
        for _ in 0..REPORT_SETUPS {
            drop(kept.take());
            let setup = report_setup(run.seed, &mut Tracer::off(), &mut speed)?;
            times.push(setup.parts);
            kept = Some(setup);
        }
        let mut s = kept.expect("at least one set-up");
        let u = untraced(&mut s.sess, &mut Source::Report(&s.fixed), run, &mut speed);
        let setup_s: Vec<f64> = times
            .iter()
            .map(|parts| parts.iter().map(|t| speed.scaled(t)).sum())
            .collect();
        report_speed(&speed);
        return Ok(Outcome {
            attempted: u.host_ms.len() as u64,
            failed: u.failed,
            metrics: end_to_end(&setup_s, &u),
            digest: s.rows.digest() ^ texts_digest(&s.fixed),
        });
    }
    let fixed_run = Run {
        seconds: std::time::Duration::ZERO,
        ..*run
    };
    let mut plain = report_setup(run.seed, &mut Tracer::off(), &mut Speed::off())?;
    let u = untraced(
        &mut plain.sess,
        &mut Source::Report(&plain.fixed),
        &fixed_run,
        &mut Speed::off(),
    );
    drop(plain);
    let mut tr = Tracer::new();
    let mut s = report_setup(run.seed, &mut tr, &mut Speed::off())?;
    let t = traced(
        &mut s.sess,
        &mut Source::Report(&s.fixed),
        &fixed_run,
        &mut tr,
    );
    tr.finish();
    write_spans(&tr, "report", run.seed);
    let facts = SetupFacts {
        candidates: s.candidates,
        planned: s.fixed.len() as u64,
        loaded_rows: (s.rows.r.len() + s.rows.s.len()) as u64,
        router_retries: s.sess.sharded().map(|d| d.router_stats().retries),
    };
    Ok(Outcome {
        attempted: u.host_ms.len() as u64 + t.stmts,
        failed: u.failed + t.failed + same_sim_work(&u, &t),
        metrics: per_layer(&tr, &t, &u, &facts),
        digest: s.rows.digest() ^ texts_digest(&s.fixed),
    })
}

fn texts_digest(fixed: &[(Stmt, PhysicalConfig)]) -> u64 {
    fixed
        .iter()
        .fold(FNV_START, |h, (st, _)| fnv(h, st.text.as_bytes()))
}
