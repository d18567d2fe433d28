//! The `oltp` workload: `workloads::oltp::run_oltp` (8 clients over 4
//! nodes at TPC-C dev scale), plus one replica loaded with `tpcc::load` and
//! driven from outside with the same five-kind mix, one transaction at a
//! time, which is where per-transaction host latency and the `txn` layer's
//! spans are visible.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdtg_memdb::{Database, DbError, DbResult, Query, QueryResult};
use wdtg_sim::Snapshot;
use wdtg_workloads::oltp::{run_oltp, OltpConfig, OltpReport};
use wdtg_workloads::tpcc::{self, TpccScale};

use crate::speed::{Speed, Timed};
use crate::sqlwork::{new_db, overhead, per, report_speed, sim_layer, spans_path};
use crate::stats::{fnv, median, quantile, FNV_START};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Outcome, Run};

/// `run_oltp` set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `run_oltp` calls per timed phase (a fixed count keeps the process's
/// memory history, and so `peak_rss_mb`, the same from run to run); the
/// replica has the rest of the phase.
const RUN_OLTP_CALLS: usize = 3;

fn scale() -> TpccScale {
    TpccScale::dev()
}

/// Host threads for `run_oltp`: one per core, at most four.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// The `run_oltp` configuration: 8 clients over 4 nodes.
pub fn config(seed: u64, txns_per_client: usize, workers: usize) -> OltpConfig {
    OltpConfig {
        scale: scale(),
        clients: 8,
        txns_per_client,
        nodes: 4,
        workers,
        seed,
        retry_cap: 64,
    }
}

/// Runs `run_oltp`, returning its report and host seconds.
fn timed_run_oltp(cfg: &OltpConfig) -> DbResult<(OltpReport, f64)> {
    let t = Instant::now();
    let r = run_oltp(cfg, new_db)?;
    Ok((r, t.elapsed().as_secs_f64()))
}

/// Attempted and failed transactions of one `run_oltp` report. A transaction
/// fails if it exhausted its retries or counts toward `wrong_answers` or
/// `anomalies`; a failed recovery fails them all.
fn tally(r: &OltpReport) -> (u64, u64) {
    let attempted = r.committed + r.retries_exhausted;
    let failed = if r.recovery_ok {
        r.retries_exhausted + r.wrong_answers + r.anomalies
    } else {
        attempted
    };
    (attempted, failed.min(attempted))
}

/// The simulated fields of a report, as bits: equal for equal inputs on any
/// host and any worker count.
pub fn sim_fields(r: &OltpReport) -> Vec<u64> {
    let mut v = vec![
        r.committed,
        r.conflicts,
        r.retries_exhausted,
        r.wrong_answers,
        r.anomalies,
        r.recovery_ok as u64,
        r.wal_records,
        r.sim_tps.to_bits(),
        r.p50_ms.to_bits(),
        r.p99_ms.to_bits(),
    ];
    v.extend(r.per_kind);
    v
}

/// What one statement of a transaction must return.
enum Want {
    /// At least one row.
    Row,
    /// At least one row, with this value.
    Value(f64),
}

/// Host-side effects of a transaction, applied to the oracle on commit.
enum Effect {
    NewOrder {
        d: usize,
        o_id: i32,
        c_id: i32,
        ol_cnt: i32,
        items: Vec<i32>,
    },
    Payment {
        c_id: i32,
        d: usize,
        amount: i32,
    },
    Delivery {
        credited: Vec<i32>,
    },
    ReadOnly,
}

struct Txn {
    steps: Vec<(Query, Want)>,
    effect: Effect,
}

fn point(table: &str, key_col: &str, key: i32, read_col: &str) -> Query {
    Query::PointSelect {
        table: table.into(),
        key_col: key_col.into(),
        key,
        read_col: read_col.into(),
    }
}

fn add(table: &str, key_col: &str, key: i32, set_col: &str, delta: i32) -> Query {
    Query::UpdateAdd {
        table: table.into(),
        key_col: key_col.into(),
        key,
        set_col: set_col.into(),
        delta,
    }
}

fn insert(table: &str, head: &[i32]) -> Query {
    let mut values = vec![0i32; 15];
    values[..head.len()].copy_from_slice(head);
    Query::InsertRow {
        table: table.into(),
        values,
    }
}

/// One replica, its transaction stream and the committed state the
/// stream's answers are checked against.
struct Replica {
    db: Database,
    rng: StdRng,
    txns: u64,
    d_next: [i32; 10],
    d_ytd: [i64; 10],
    w_ytd: i64,
    /// Committed `(o_id, c_id, ol_cnt)`.
    orders: Vec<(i32, i32, i32)>,
    order_lines: u64,
    history: u64,
    stock: BTreeMap<i32, i64>,
    cust: BTreeMap<i32, i64>,
    digest: u64,
}

impl Replica {
    /// Loads the replica from `seed`; `round` picks its transaction stream.
    fn load(seed: u64, round: u64) -> DbResult<Replica> {
        let mut db = new_db();
        tpcc::load(&mut db, scale(), seed)?;
        Ok(Replica {
            db,
            rng: StdRng::seed_from_u64(
                seed ^ 0x0E_7A11 ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            txns: 0,
            d_next: [1; 10],
            d_ytd: [0; 10],
            w_ytd: 0,
            orders: Vec::new(),
            order_lines: 0,
            history: 0,
            stock: BTreeMap::new(),
            cust: BTreeMap::new(),
            digest: FNV_START,
        })
    }

    /// The next transaction of the standard 45/43/4/4/4 mix, parameterised
    /// from committed state.
    fn next_txn(&mut self) -> Txn {
        let customers = (scale().customers_per_district * 10) as i32;
        let items = scale().items as i32;
        let rng = &mut self.rng;
        let txn = match rng.random_range(0..100) {
            0..=44 => {
                let c_id = rng.random_range(1..=customers);
                let d = rng.random_range(0..10usize);
                let d_id = d as i32 + 1;
                let o_id = d_id * 1_000_000 + self.d_next[d];
                let ol_cnt = rng.random_range(5..=15);
                let mut steps = vec![
                    (point("customer", "c_id", c_id, "c_balance"), Want::Row),
                    (
                        add("district", "d_id", d_id, "d_next_o_id", 1),
                        Want::Value((self.d_next[d] + 1) as f64),
                    ),
                    (insert("orders", &[o_id, c_id, d_id, ol_cnt]), Want::Row),
                ];
                let mut line_items = Vec::new();
                for line in 0..ol_cnt {
                    let i_id = rng.random_range(1..=items);
                    let qty = rng.random_range(1..=10);
                    line_items.push(i_id);
                    steps.push((point("item", "i_id", i_id, "i_price"), Want::Row));
                    steps.push((add("stock", "s_i_id", i_id, "s_quantity", -1), Want::Row));
                    steps.push((
                        insert("order_line", &[o_id * 16 + line, o_id, i_id, qty]),
                        Want::Row,
                    ));
                }
                Txn {
                    steps,
                    effect: Effect::NewOrder {
                        d,
                        o_id,
                        c_id,
                        ol_cnt,
                        items: line_items,
                    },
                }
            }
            45..=87 => {
                let c_id = rng.random_range(1..=customers);
                let d = rng.random_range(0..10usize);
                let amount = rng.random_range(100..5_000);
                let h_key = self.history as i32 + 1;
                Txn {
                    steps: vec![
                        (add("warehouse", "w_id", 1, "w_ytd", amount), Want::Row),
                        (
                            add("district", "d_id", d as i32 + 1, "d_ytd", amount),
                            Want::Row,
                        ),
                        (
                            add("customer", "c_id", c_id, "c_balance", -amount),
                            Want::Row,
                        ),
                        (insert("history", &[h_key, c_id, amount]), Want::Row),
                    ],
                    effect: Effect::Payment { c_id, d, amount },
                }
            }
            88..=91 => {
                let c_id = rng.random_range(1..=customers);
                let mut steps = vec![(point("customer", "c_id", c_id, "c_balance"), Want::Row)];
                if !self.orders.is_empty() {
                    let (o_id, _, ol_cnt) = self.orders[rng.random_range(0..self.orders.len())];
                    steps.push((
                        point("orders", "o_id", o_id, "o_ol_cnt"),
                        Want::Value(ol_cnt as f64),
                    ));
                    steps.push((point("order_line", "ol_o_id", o_id, "ol_qty"), Want::Row));
                }
                Txn {
                    steps,
                    effect: Effect::ReadOnly,
                }
            }
            92..=95 => {
                let mut steps = Vec::new();
                let mut credited = Vec::new();
                for _ in 0..10 {
                    if self.orders.is_empty() {
                        break;
                    }
                    let (o_id, c_id, _) = self.orders[rng.random_range(0..self.orders.len())];
                    steps.push((
                        point("orders", "o_id", o_id, "o_c_id"),
                        Want::Value(c_id as f64),
                    ));
                    steps.push((add("customer", "c_id", c_id, "c_balance", 10), Want::Row));
                    credited.push(c_id);
                }
                Txn {
                    steps,
                    effect: Effect::Delivery { credited },
                }
            }
            _ => {
                let d = rng.random_range(0..10usize);
                let mut steps = vec![(
                    point("district", "d_id", d as i32 + 1, "d_next_o_id"),
                    Want::Value(self.d_next[d] as f64),
                )];
                for _ in 0..20 {
                    let i_id = rng.random_range(1..=items);
                    steps.push((point("stock", "s_i_id", i_id, "s_quantity"), Want::Row));
                }
                Txn {
                    steps,
                    effect: Effect::ReadOnly,
                }
            }
        };
        for (q, _) in &txn.steps {
            self.digest = fnv(self.digest, format!("{q:?}").as_bytes());
        }
        txn
    }

    fn commit_effect(&mut self, effect: Effect) {
        match effect {
            Effect::NewOrder {
                d,
                o_id,
                c_id,
                ol_cnt,
                items,
            } => {
                self.d_next[d] += 1;
                self.orders.push((o_id, c_id, ol_cnt));
                self.order_lines += ol_cnt as u64;
                for i in items {
                    *self.stock.entry(i).or_insert(0) -= 1;
                }
            }
            Effect::Payment { c_id, d, amount } => {
                self.w_ytd += amount as i64;
                self.d_ytd[d] += amount as i64;
                *self.cust.entry(c_id).or_insert(0) -= amount as i64;
                self.history += 1;
            }
            Effect::Delivery { credited } => {
                for c in credited {
                    *self.cust.entry(c).or_insert(0) += 10;
                }
            }
            Effect::ReadOnly => {}
        }
    }

    /// Runs one transaction: begin, stage every statement with `txn_run`,
    /// commit. Returns whether every answer was right and the commit held.
    fn run_txn(&mut self, txn: Txn, tr: &mut Tracer) -> bool {
        let db = &mut self.db;
        db.txn_overhead();
        db.session_touch((self.txns % 8) as u32, 72 * 1024);
        self.txns += 1;
        let sp = tr.enter("txn.begin");
        let tid = db.begin();
        tr.exit(sp);
        let mut ok = true;
        for (q, want) in &txn.steps {
            let sp = tr.enter(match q {
                Query::PointSelect { .. } => "txn.run.point",
                Query::UpdateAdd { .. } => "txn.run.update",
                _ => "txn.run.insert",
            });
            let got = db.txn_run(tid, q);
            tr.exit(sp);
            ok &= match (got, want) {
                (Ok(r), Want::Row) => r.rows >= 1,
                (Ok(r), Want::Value(v)) => r.rows >= 1 && r.value == *v,
                (Err(_), _) => false,
            };
        }
        let sp = tr.enter("txn.commit");
        let committed = db.commit(tid);
        tr.exit(sp);
        if committed.is_ok() {
            self.commit_effect(txn.effect);
        }
        ok && committed.is_ok()
    }

    /// Checks the final state against the committed effects, then replays
    /// the WAL onto a freshly loaded replica and compares state digests.
    /// Returns the mismatches and the replay's host µs per WAL record.
    fn verify(&mut self, seed: u64) -> DbResult<(u64, f64)> {
        self.db.ctx.instrument = false;
        let mut fresh = new_db();
        fresh.ctx.instrument = false;
        tpcc::load(&mut fresh, scale(), seed)?;
        let mut wrong = 0u64;
        let mut expect = |got: DbResult<QueryResult>, want: f64| match got {
            Ok(r) if r.rows >= 1 && r.value == want => {}
            _ => wrong += 1,
        };
        let db = &mut self.db;
        expect(
            db.run(&point("warehouse", "w_id", 1, "w_ytd")),
            self.w_ytd as f64,
        );
        for d in 0..10 {
            let d_id = d as i32 + 1;
            expect(
                db.run(&point("district", "d_id", d_id, "d_ytd")),
                self.d_ytd[d] as f64,
            );
            expect(
                db.run(&point("district", "d_id", d_id, "d_next_o_id")),
                self.d_next[d] as f64,
            );
        }
        for &(o_id, _, ol_cnt) in &self.orders {
            expect(
                db.run(&point("orders", "o_id", o_id, "o_ol_cnt")),
                ol_cnt as f64,
            );
        }
        for (&i_id, &delta) in &self.stock {
            let init = fresh
                .run(&point("stock", "s_i_id", i_id, "s_quantity"))?
                .value;
            expect(
                db.run(&point("stock", "s_i_id", i_id, "s_quantity")),
                init + delta as f64,
            );
        }
        for (&c_id, &delta) in &self.cust {
            let init = fresh
                .run(&point("customer", "c_id", c_id, "c_balance"))?
                .value;
            expect(
                db.run(&point("customer", "c_id", c_id, "c_balance")),
                init + delta as f64,
            );
        }
        for (table, rows) in [
            ("orders", self.orders.len() as u64),
            ("order_line", self.order_lines),
            ("history", self.history),
        ] {
            if db.table(table)?.heap.n_records != rows {
                wrong += 1;
            }
        }
        let records = db.wal().records().to_vec();
        let t = Instant::now();
        fresh.replay_wal(&records, db.wal().commit_count())?;
        let replay_us = t.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64;
        if fresh.state_digest() != db.state_digest() {
            wrong += 1;
        }
        Ok((wrong, replay_us))
    }
}

/// What a replica phase measured.
struct ReplicaPhase {
    /// Host time of each transaction.
    host: Vec<Timed>,
    wall_s: f64,
    statements: u64,
    failed: u64,
    sim: Snapshot,
    replay_us: f64,
    /// Digest of the transactions sent.
    digest: u64,
}

/// Drives a freshly loaded replica through `txns` transactions of stream
/// `round`, timing each on `speed`, then verifies it.
fn drive(
    seed: u64,
    round: u64,
    txns: usize,
    tr: &mut Tracer,
    speed: &mut Speed,
) -> DbResult<ReplicaPhase> {
    let mut rep = Replica::load(seed, round)?;
    let before = rep.db.cpu().snapshot();
    let mut host = Vec::new();
    let mut statements = 0u64;
    let mut failed = 0u64;
    let start = Instant::now();
    while host.len() < txns {
        let txn = rep.next_txn();
        statements += txn.steps.len() as u64;
        tr.request(host.len() as u64);
        let (ok, timed) = speed.time(|| {
            let root = tr.enter("txn");
            let ok = rep.run_txn(txn, tr);
            tr.exit(root);
            ok
        });
        host.push(timed);
        failed += u64::from(!ok);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let sim = rep.db.cpu().snapshot().delta(&before);
    let (wrong, replay_us) = rep.verify(seed)?;
    if wrong > 0 {
        eprintln!("replica: {wrong} final-state mismatches");
    }
    Ok(ReplicaPhase {
        host,
        wall_s,
        statements,
        failed: failed + wrong,
        sim,
        replay_us,
        digest: rep.digest,
    })
}

/// Runs `oltp`.
pub fn run(run: &Run) -> DbResult<Outcome> {
    let workers = workers();
    if run.trace {
        return traced(run, workers);
    }
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let (r, secs) = timed_run_oltp(&config(run.seed, 0, workers))?;
        if r.committed != 0 || !r.recovery_ok {
            return Err(DbError::Internal(format!(
                "empty run_oltp set-up misbehaved: {r:?}"
            )));
        }
        setups.push(secs);
    }
    let start = Instant::now();
    let cfg = config(run.seed, run.txns_per_client, workers);
    let (first, secs) = timed_run_oltp(&cfg)?;
    let (mut attempted, mut failed) = tally(&first);
    let mut tps = vec![first.committed as f64 / secs];
    for _ in 1..RUN_OLTP_CALLS {
        let (r, secs) = timed_run_oltp(&cfg)?;
        let (a, f) = tally(&r);
        attempted += a;
        failed += f;
        if sim_fields(&r) != sim_fields(&first) {
            eprintln!("run_oltp repeated with the same seed gave different simulated results");
            failed += a;
        }
        tps.push(r.committed as f64 / secs);
    }
    // Each replica round runs a fixed number of transactions on a fresh
    // load, so the process's memory peak does not grow with host speed;
    // each round has its own stream, so the latency quantiles see the mix
    // over many transactions. The replica runs on one thread, which the
    // speed probe follows; the `run_oltp` calls above keep every core busy
    // and are not scaled.
    let mut speed = Speed::new();
    let mut tracer = Tracer::off();
    let mut rep = drive(run.seed, 0, run.replica_txns, &mut tracer, &mut speed)?;
    for round in 1.. {
        if start.elapsed() >= run.seconds {
            break;
        }
        let more = drive(run.seed, round, run.replica_txns, &mut tracer, &mut speed)?;
        rep.host.extend(more.host);
        rep.sim.absorb(&more.sim);
        rep.failed += more.failed;
    }
    speed.finish();
    let host_ms: Vec<f64> = rep.host.iter().map(|t| speed.scaled(t) * 1e3).collect();
    let host_s = host_ms.iter().sum::<f64>() / 1e3;
    report_speed(&speed);
    Ok(Outcome {
        attempted: attempted + host_ms.len() as u64,
        failed: failed + rep.failed,
        metrics: vec![
            ("setup_s", median(&setups)),
            ("ops_per_s", median(&tps)),
            ("p50_ms", quantile(&host_ms, 0.5)),
            ("p90_ms", quantile(&host_ms, 0.9)),
            ("sim_p50_ms", first.p50_ms),
            ("sim_tail_ms", first.p99_ms),
            ("sim_ops_per_s", first.sim_tps),
            ("host_ns_per_sim_cycle", host_s * 1e9 / rep.sim.cycles),
            ("peak_rss_mb", peak_rss_mb()),
        ],
        digest: rep.digest,
    })
}

fn traced(run: &Run, workers: usize) -> DbResult<Outcome> {
    let (report, _) = timed_run_oltp(&config(run.seed, run.txns_per_client, workers))?;
    let (attempted, failed) = tally(&report);
    let plain = drive(
        run.seed,
        0,
        run.replica_txns,
        &mut Tracer::off(),
        &mut Speed::off(),
    )?;
    let mut tr = Tracer::new();
    let rep = drive(run.seed, 0, run.replica_txns, &mut tr, &mut Speed::off())?;
    tr.finish();
    if let Err(e) = tr.write_tsv(&spans_path("oltp", run.seed)) {
        eprintln!("could not write spans: {e}");
    }
    let txns = rep.host.len() as f64;
    let mean_us = |name: &str| per(tr.total_ns(name), tr.count(name) as f64) / 1e3;
    let stage_ns: f64 = ["txn.run.point", "txn.run.update", "txn.run.insert"]
        .iter()
        .map(|n| tr.total_ns(n))
        .sum();
    let mut metrics = vec![
        ("sql.parse_us", 0.0),
        ("sql.bind_us", 0.0),
        ("sql.allocs_per_stmt", 0.0),
        ("plan.ms_per_stmt", 0.0),
        ("plan.share", 0.0),
        ("plan.candidates_per_stmt", 0.0),
        ("plan.replan_frac", 0.0),
        ("plan.allocs_per_stmt", 0.0),
        ("exec.ms_per_stmt", 0.0),
        ("exec.scan_ms", 0.0),
        ("exec.group_ms", 0.0),
        ("exec.join_ms", 0.0),
        ("exec.count_ms", 0.0),
        ("exec.host_ns_per_row", 0.0),
        ("exec.allocs_per_row", 0.0),
    ];
    metrics.extend(sim_layer(
        &rep.sim,
        rep.statements as f64,
        tr.total_ns("txn"),
    ));
    metrics.extend([
        ("shard.ms_per_stmt", 0.0),
        ("shard.skew", 0.0),
        ("shard.retries", 0.0),
        ("txn.begin_us", mean_us("txn.begin")),
        ("txn.stage_us", stage_ns / txns / 1e3),
        ("txn.commit_us", mean_us("txn.commit")),
        ("txn.allocs_per_txn", tr.allocs("txn") as f64 / txns),
        ("txn.replay_us_per_record", rep.replay_us),
        (
            "txn.conflict_frac",
            per(
                report.conflicts as f64,
                (report.committed + report.conflicts) as f64,
            ),
        ),
        (
            "txn.wal_records_per_commit",
            per(report.wal_records as f64, report.committed as f64),
        ),
        ("index.point_us", mean_us("txn.run.point")),
        ("index.create_ms", 0.0),
        ("heap.load_rows_per_s", 0.0),
        ("workloads.gen_s", 0.0),
    ]);
    metrics.extend(overhead(
        plain.host.len() as f64 / plain.wall_s,
        txns / rep.wall_s,
    ));
    // Spans must not change the simulated work of the same transactions.
    let perturbed = u64::from(plain.sim.cycles.to_bits() != rep.sim.cycles.to_bits());
    Ok(Outcome {
        attempted: attempted + plain.host.len() as u64 + rep.host.len() as u64,
        failed: failed + plain.failed + rep.failed + perturbed,
        metrics,
        digest: rep.digest,
    })
}
