//! Morsel-driven OS-thread parallel execution over a sharded database.
//!
//! [`crate::shard`] executes its shards one after another on the calling
//! thread; this module executes them on a scoped worker pool with a
//! work-stealing deque, morselizing each shard's scan
//! ([`Database::run_partial_morsels`]) — and produces **bit-identical**
//! answers and merged counters for every worker count, morsel schedule and
//! steal order.
//!
//! # The determinism argument
//!
//! The cache and branch simulators are stateful: a core's counters depend
//! on the exact instruction/data stream it has seen. Parallel execution
//! stays bit-identical to sequential execution because that stream is
//! pinned *before* any thread runs:
//!
//! 1. **A shard is a simulated core.** Each shard owns its
//!    [`wdtg_sim::Cpu`], arenas and buffer pool; no simulated state is
//!    shared between shards.
//! 2. **Morsels of one shard run in order on that shard's core.** A
//!    shard's sub-query is one *task*: its morsel sequence, executed
//!    front-to-back on its own `Cpu`. The stream each core sees is a pure
//!    function of (data, plan, morsel size) — never of the host schedule.
//! 3. **The deque schedules tasks, not state.** Work stealing decides
//!    *which OS thread* runs a task and *when* — a worker adopts the
//!    shard's `Cpu` for the duration of the task (`Cpu` is `Send`). Since
//!    threads share no simulated state, the schedule cannot perturb any
//!    counter.
//! 4. **Merging is order-insensitive.** Partial aggregates merge with
//!    exact integer arithmetic ([`AggState::merge`], commutative and
//!    associative), counter merging sums per-core deltas and takes the max
//!    for wall clock ([`wdtg_sim::merge_cores`]), and both are applied in
//!    shard order after all tasks complete. Errors are surfaced in shard
//!    order too, so even a failing run reports the same typed error under
//!    every schedule.
//!
//! Consequently `run_parallel` with 1 worker, 8 workers, or any steal seed
//! produces the same bytes; `tests/parallel_equivalence.rs` holds it to
//! that. Host wall-clock time, of course, *does* change with workers —
//! that is the point — and the `scale_compare` bench reports it next to
//! the modeled (simulated) scaling.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::exec::partial::AggState;
use crate::fault::{splitmix64, CancelToken};
use crate::query::{Query, QueryPredicate, QueryResult};
use crate::shard::{run_mutation, run_with_retry, shard_of, RouterStats, ShardedDatabase};

/// Knobs for one parallel run. All of them affect only *host* scheduling —
/// answers and merged simulated counters are bit-identical for every
/// configuration with the same `morsel_rows` (and for aggregate answers,
/// identical across `morsel_rows` too, since partials merge exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// OS worker threads. `0` means one per available host core
    /// ([`std::thread::available_parallelism`]); `1` runs inline on the
    /// calling thread (the sequential baseline).
    pub workers: usize,
    /// Target rows per morsel. Morsels are page-aligned (at least one heap
    /// page); `u32::MAX` gives one whole-table morsel per shard, which
    /// reproduces [`ShardedDatabase::run`]'s per-shard stream exactly.
    pub morsel_rows: u32,
    /// Seed perturbing the task deal and steal-victim order — host
    /// schedule only, asserted harmless by the steal-order stress test.
    pub steal_seed: u64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 0,
            morsel_rows: 16 * 1024,
            steal_seed: 0,
        }
    }
}

impl ParallelConfig {
    /// Config with explicit worker count (0 = one per host core).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Config with explicit morsel size in rows.
    pub fn with_morsel_rows(mut self, rows: u32) -> Self {
        self.morsel_rows = rows;
        self
    }

    /// Config with an explicit steal-schedule seed.
    pub fn with_steal_seed(mut self, seed: u64) -> Self {
        self.steal_seed = seed;
        self
    }

    /// The worker count after resolving `0` to the host's parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Runs `op` once per job across a scoped worker pool with work-stealing
/// deques, returning per-job outputs **in job order** regardless of the
/// schedule.
///
/// Tasks (job indices) are dealt round-robin into per-worker deques, in an
/// order shuffled by `seed`; a worker pops its own deque from the front and
/// steals from the back of a seeded rotation of victims when empty. The
/// calling thread is worker 0, so a call spawns `workers - 1` threads. With
/// `workers <= 1` the jobs run inline on the calling thread in job order —
/// the sequential baseline the equivalence suite compares against.
///
/// Each job value is handed to exactly one worker by value (`T: Send`), so
/// jobs that own mutable state — a `&mut Database` shard, or a whole
/// [`Database`] replica in the OLTP driver — move across threads without
/// any shared simulated state.
pub fn run_jobs_parallel<T, R, F>(jobs: Vec<T>, workers: usize, seed: u64, op: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = jobs.len();
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 || n <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, j)| op(i, j))
            .collect();
    }

    // Deal tasks round-robin in a seed-shuffled order. The shuffle (like
    // the steal order below) only stresses the scheduler: per-job work is
    // schedule-independent, and outputs are re-indexed by job below.
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
    for i in (1..n).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (k, &job_no) in order.iter().enumerate() {
        deques[k % workers]
            .lock()
            .expect("deque lock poisoned")
            .push_back(job_no);
    }

    // One claimable slot per job hands the exclusive value to whichever
    // worker wins the task; results land in per-job cells so
    // post-processing is in job order no matter who computed what.
    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    let work = |w: usize| {
        let mut rng = splitmix64(seed ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        loop {
            // Own deque first (front), then steal from the back of a
            // seeded rotation of victims. No task is ever re-queued, so
            // finding every deque empty means all tasks are claimed and
            // this worker is done.
            let mut task = deques[w].lock().expect("deque lock poisoned").pop_front();
            if task.is_none() {
                rng = splitmix64(rng);
                let start = (rng % workers as u64) as usize;
                for k in 0..workers {
                    let v = (start + k) % workers;
                    if v == w {
                        continue;
                    }
                    task = deques[v].lock().expect("deque lock poisoned").pop_back();
                    if task.is_some() {
                        break;
                    }
                }
            }
            let Some(job_no) = task else { break };
            let job = slots[job_no]
                .lock()
                .expect("slot lock poisoned")
                .take()
                .expect("job task claimed twice");
            let out = op(job_no, job);
            *results[job_no].lock().expect("result lock poisoned") = Some(out);
        }
    };
    std::thread::scope(|scope| {
        let work = &work;
        for w in 1..workers {
            scope.spawn(move || work(w));
        }
        work(0);
    });

    results
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("result lock poisoned")
                .expect("worker pool completed every job task")
        })
        .collect()
}

/// [`run_jobs_parallel`] specialized to a sharded database's shards: runs
/// `op` once per shard, outputs in shard order.
fn for_each_shard_parallel<R, F>(
    shards: &mut [Database],
    workers: usize,
    seed: u64,
    op: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut Database) -> R + Sync,
{
    run_jobs_parallel(shards.iter_mut().collect(), workers, seed, |i, db| {
        op(i, db)
    })
}

/// Folds per-shard `(result, stats)` outputs in shard order: router stats
/// always merge; the first error *in shard order* wins (so the surfaced
/// typed error is schedule-independent), else `fold` consumes each value.
fn merge_shard_outputs<T>(
    stats: &mut RouterStats,
    outs: Vec<(DbResult<T>, RouterStats)>,
    mut fold: impl FnMut(usize, T),
) -> DbResult<()> {
    let mut first_err = None;
    for (shard_no, (r, st)) in outs.into_iter().enumerate() {
        stats.absorb(&st);
        match r {
            Ok(v) => fold(shard_no, v),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

impl ShardedDatabase {
    /// The cancellation token shared by every shard (and the database the
    /// shards were split from). Cloning it onto another thread and calling
    /// [`CancelToken::cancel`] aborts an in-flight parallel query at its
    /// next morsel or batch checkpoint on every worker.
    pub fn cancel_token(&self) -> CancelToken {
        self.shards[0].cancel_token()
    }

    /// [`ShardedDatabase::run`] on a work-stealing OS-thread pool.
    ///
    /// Aggregates morselize each shard's scan and merge exact partials;
    /// point reads and updates broadcast; inserts route — all with the
    /// same merge rules (and the same refusals) as the sequential router.
    /// Answers and merged counters are bit-identical to
    /// `run_parallel` with one worker for every `cfg`; see the module docs
    /// for why, and `tests/parallel_equivalence.rs` for proof.
    pub fn run_parallel(&mut self, q: &Query, cfg: &ParallelConfig) -> DbResult<QueryResult> {
        match q {
            Query::SelectAgg { agg, .. } => self.parallel_merged_agg(q, agg.kind, cfg),
            Query::JoinAgg { agg, .. } => {
                self.check_join_co_partitioning(q)?;
                self.parallel_merged_agg(q, agg.kind, cfg)
            }
            Query::PointSelect { .. } => {
                let outs = for_each_shard_parallel(
                    &mut self.shards,
                    cfg.effective_workers(),
                    cfg.steal_seed,
                    |i, db| {
                        let mut st = RouterStats::default();
                        let r = run_with_retry(db, i, &mut st, |db| db.run(q));
                        (r, st)
                    },
                );
                let mut out = QueryResult {
                    value: 0.0,
                    rows: 0,
                };
                let mut shards_with_matches = 0u32;
                merge_shard_outputs(&mut self.stats, outs, |_, r: QueryResult| {
                    if r.rows > 0 {
                        shards_with_matches += 1;
                        if out.rows == 0 {
                            out.value = r.value;
                        }
                        out.rows += r.rows;
                    }
                })?;
                if shards_with_matches > 1 {
                    return Err(DbError::PlanError(format!(
                        "point select matched rows on {shards_with_matches} shards: the \
                         key is duplicated across shards, so a single returned value is \
                         not well defined; shard the table on the lookup column \
                         (Database::set_shard_key) or use an aggregate query"
                    )));
                }
                Ok(out)
            }
            Query::UpdateAdd { .. } => {
                // A cancellation that is already pending must imply *zero*
                // mutation, so check before any shard can apply (each
                // shard re-checks at its own entry; a cancel landing
                // mid-broadcast behaves like the sequential router's:
                // per-shard atomic, already-applied shards stay applied).
                if self.cancel_token().is_cancelled() {
                    return Err(DbError::Cancelled);
                }
                let outs = for_each_shard_parallel(
                    &mut self.shards,
                    cfg.effective_workers(),
                    cfg.steal_seed,
                    |i, db| {
                        let mut st = RouterStats::default();
                        let r = run_mutation(db, i, &mut st, |db| db.run(q));
                        (r, st)
                    },
                );
                let mut out = QueryResult {
                    value: 0.0,
                    rows: 0,
                };
                merge_shard_outputs(&mut self.stats, outs, |_, r: QueryResult| {
                    if r.rows > 0 {
                        out.value = r.value;
                    }
                    out.rows += r.rows;
                })?;
                Ok(out)
            }
            Query::InsertRow { table, values } => {
                // Single-shard route: nothing to parallelize, and the
                // pre-check keeps "Cancelled implies no mutation".
                if self.cancel_token().is_cancelled() {
                    return Err(DbError::Cancelled);
                }
                let t = self.shards[0].table(table)?;
                let col = t.shard_col;
                if col >= values.len() {
                    return Err(DbError::ArityMismatch {
                        expected: t.schema.arity(),
                        got: values.len(),
                    });
                }
                let target = shard_of(values[col], self.shards.len());
                run_mutation(&mut self.shards[target], target, &mut self.stats, |db| {
                    db.run(q)
                })
            }
        }
    }

    /// [`ShardedDatabase::run_grouped`] on the work-stealing pool: each
    /// shard's grouped sub-query runs morselized on a worker; per-key
    /// exact partials merge in shard order (ascending key output, like the
    /// sequential path, bit-identical for every schedule).
    pub fn run_grouped_parallel(
        &mut self,
        table: &str,
        group_col: &str,
        predicate: Option<&QueryPredicate>,
        agg: &crate::query::AggSpec,
        cfg: &ParallelConfig,
    ) -> DbResult<Vec<(i32, f64)>> {
        let kind = agg.kind;
        let morsel = cfg.morsel_rows;
        let outs = for_each_shard_parallel(
            &mut self.shards,
            cfg.effective_workers(),
            cfg.steal_seed,
            |i, db| {
                let mut st = RouterStats::default();
                let r = run_with_retry(db, i, &mut st, |db| {
                    db.run_grouped_partial_morsels(table, group_col, predicate, agg, morsel)
                });
                (r, st)
            },
        );
        let mut merged: BTreeMap<i32, AggState> = BTreeMap::new();
        merge_shard_outputs(
            &mut self.stats,
            outs,
            |_, partials: Vec<(i32, AggState)>| {
                for (k, st) in partials {
                    merged.entry(k).or_default().merge(&st);
                }
            },
        )?;
        Ok(merged
            .into_iter()
            .map(|(k, st)| (k, st.value(kind)))
            .collect())
    }

    /// The aggregate arm of [`ShardedDatabase::run_parallel`]: every shard
    /// runs its morselized sub-query (under the router's bounded retry) on
    /// the pool; partials and errors merge in shard order.
    fn parallel_merged_agg(
        &mut self,
        q: &Query,
        kind: crate::query::AggKind,
        cfg: &ParallelConfig,
    ) -> DbResult<QueryResult> {
        let morsel = cfg.morsel_rows;
        let outs = for_each_shard_parallel(
            &mut self.shards,
            cfg.effective_workers(),
            cfg.steal_seed,
            |i, db| {
                let mut st = RouterStats::default();
                let r = run_with_retry(db, i, &mut st, |db| db.run_partial_morsels(q, morsel));
                (r, st)
            },
        );
        let mut state = AggState::new();
        merge_shard_outputs(&mut self.stats, outs, |_, p: AggState| state.merge(&p))?;
        Ok(state.result(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compile-time lock on the `Send + Sync` refactor: parallel execution
    /// moves whole shards (Cpu, arenas, buffer pool, fault state) across
    /// OS threads, and shares profiles/tokens between them. If any of
    /// these types regresses to `Rc`/`Cell` plumbing, this stops
    /// compiling — the `assert_send_sync` satellite of the refactor.
    #[test]
    fn engine_types_are_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}

        assert_send::<wdtg_sim::Cpu>();
        assert_send_sync::<wdtg_sim::Snapshot>();
        assert_send::<crate::db::Database>();
        assert_send::<crate::db::DbCtx>();
        assert_send::<ShardedDatabase>();
        assert_send_sync::<crate::profiles::EngineProfile>();
        assert_send_sync::<crate::profiles::EngineBlocks>();
        assert_send_sync::<crate::heap::HeapFile>();
        assert_send_sync::<CancelToken>();
        assert_send_sync::<crate::fault::FaultPlan>();
        assert_send::<crate::fault::FaultInjector>();
        assert_send_sync::<crate::fault::ResourceBudget>();
        assert_send_sync::<crate::query::Query>();
        assert_send_sync::<AggState>();
        assert_send_sync::<ParallelConfig>();
    }

    #[test]
    fn effective_workers_resolves_zero_to_host_parallelism() {
        assert!(ParallelConfig::default().effective_workers() >= 1);
        assert_eq!(
            ParallelConfig::default()
                .with_workers(3)
                .effective_workers(),
            3
        );
    }

    #[test]
    fn steal_seed_and_worker_count_only_affect_scheduling_metadata() {
        let a = ParallelConfig::default().with_steal_seed(7).with_workers(4);
        let b = ParallelConfig::default().with_steal_seed(9).with_workers(2);
        // Same morsel size => same simulated stream (the full proof lives
        // in tests/parallel_equivalence.rs; this pins the config contract).
        assert_eq!(a.morsel_rows, b.morsel_rows);
    }
}
