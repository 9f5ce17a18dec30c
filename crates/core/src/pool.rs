//! A persistent, process-wide worker pool for the parallel chase paths.
//!
//! PR 5's round-parallel discovery spawned a fresh [`std::thread::scope`] every
//! round, paying thread creation and teardown on each drain — measurable pure
//! overhead on the 1-CPU bench container and wasted work everywhere else. This
//! module replaces that with **long-lived workers fed by channels**: threads are
//! spawned once (growing on demand, never shrinking) and parked on a shared
//! [`mpsc`] receiver between batches, so steady-state dispatch is a channel send
//! plus a wake-up instead of a `clone`/`spawn`/`join` cycle.
//!
//! # Architecture
//!
//! - One global [`WorkerPool`] (see [`with_workers`]) shared by sharded trigger
//!   discovery (`chase_trigger::parallel`) and the round-parallel
//!   (semi-)oblivious runner built on it (`chase_engine::parallel`) — the only
//!   chase paths that run on more than one thread. The standard and core
//!   chases run sequentially at every worker count. Sharing one pool keeps the
//!   thread count bounded by the largest `workers(n)` ever requested.
//! - **Channel protocol:** submitters push type-erased jobs into a single
//!   shared injector queue (a mutex-guarded deque paired with a condvar — an
//!   MPMC channel in which a *blocked consumer holds no lock*, which is what
//!   lets the caller steal; see below) and wake the workers; workers loop
//!   `wait → pop → run`. Results travel back over a per-call [`mpsc`] channel
//!   created by each [`run_jobs`](WorkerPool::run_jobs) invocation, so concurrent submitters never
//!   see each other's results even though they share the injector.
//! - **Caller participation:** the submitting thread does not block idle while
//!   its jobs run — it steals queued jobs from the shared injector and executes
//!   them inline until all of its own results have arrived. A pool sized for
//!   `workers(n)` therefore holds only `n - 1` threads; the caller is the
//!   n-th lane. This also makes *nested* `run_jobs` calls deadlock-free: a job
//!   that itself submits a batch drains the queue from inside a worker thread.
//!
//! # Determinism
//!
//! The pool is deliberately order-oblivious: [`run_jobs`](WorkerPool::run_jobs) returns results in
//! **submission order** regardless of which thread ran which job or in what
//! order they finished. Every deterministic-merge argument made by the callers
//! (canonical trigger merge, shard-order concatenation) only needs that
//! positional guarantee.
//!
//! # Lifetime safety
//!
//! Jobs borrow from the caller's stack (`&DependencySet`, `&IndexedInstance`, …)
//! but travel through a `'static` channel, so [`run_jobs`](WorkerPool::run_jobs)
//! erases their lifetime internally. This is sound because `run_jobs` is a
//! completion barrier: it does not return until every submitted job has finished
//! running (it collects exactly one result per job, and panicking jobs still send
//! a result), so the borrows outlive every use. The global pool's injector is
//! never dropped, meaning a submitted job can never be silently discarded while
//! borrowed data goes out of scope.

#![allow(unsafe_code)] // lifetime erasure for scoped jobs; see `run_jobs` safety comment

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

/// A type-erased unit of work after lifetime erasure.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A scoped job as submitted by callers: may borrow from the caller's stack.
pub type ScopedJob<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// Locks a mutex, ignoring poisoning.
///
/// Pool state (the job deque, a spawn counter) is never left logically
/// inconsistent by a panic — job panics are caught *inside* the job wrapper and
/// the critical sections here contain no unwinding code paths — so recovering
/// the guard is always safe and keeps one panicked run from wedging every later
/// parallel call in the process.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// State shared between the pool handle and its worker threads: the injector
/// queue all workers (and stealing callers) pull from.
///
/// Deliberately a deque + condvar rather than a `Mutex<mpsc::Receiver>`: a
/// worker parked in `Condvar::wait` holds no lock, so a caller's non-blocking
/// [`WorkerPool::try_steal`] always gets through. (A consumer blocked inside
/// `Receiver::recv` would sit *inside* the mutex and deadlock the steal.)
struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled on every submission; workers wait on it when the queue is dry.
    available: Condvar,
}

/// A persistent pool of worker threads fed by a shared channel.
///
/// Obtain the process-wide instance with [`with_workers`]; constructing private
/// pools is possible (tests do) but defeats the reuse the pool exists for.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Number of worker threads spawned so far (grow-only).
    spawned: Mutex<usize>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new()
    }
}

impl WorkerPool {
    /// Creates an empty pool with no worker threads.
    ///
    /// Threads are added by [`ensure_workers`](WorkerPool::ensure_workers);
    /// until then [`run_jobs`](WorkerPool::run_jobs) still completes (the
    /// caller steals every job), so a pool is usable at any size.
    pub fn new() -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
            }),
            spawned: Mutex::new(0),
        }
    }

    /// Grows the pool so that a `run_jobs` call from a single submitter can use
    /// `workers` lanes of parallelism: `workers - 1` pool threads plus the
    /// submitting thread itself.
    ///
    /// Grow-only: requesting fewer workers than a previous call never stops
    /// threads. `workers == 0` is treated as 1 (the caller-only pool), matching
    /// the `Chase::workers(0)` normalization.
    pub fn ensure_workers(&self, workers: usize) {
        let target = workers.max(1) - 1;
        let mut spawned = lock_unpoisoned(&self.spawned);
        while *spawned < target {
            let shared = Arc::clone(&self.shared);
            thread::Builder::new()
                .name(format!("chase-pool-{}", *spawned))
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn chase pool worker thread");
            *spawned += 1;
        }
    }

    /// Number of worker threads currently alive (excluding submitting threads).
    pub fn threads(&self) -> usize {
        *lock_unpoisoned(&self.spawned)
    }

    /// Runs every job and returns their results **in submission order**.
    ///
    /// Blocks until all jobs have completed; the calling thread participates by
    /// stealing queued jobs while it waits. If any job panics, the panic is
    /// re-raised on the calling thread — but only after every job in the batch
    /// has finished, so borrowed data is never freed under a running job.
    ///
    /// Jobs may themselves call `run_jobs` (the nested caller steals), but a
    /// deep recursion serializes: stolen jobs run inline on whatever thread
    /// picked them up.
    pub fn run_jobs<'env, T: Send + 'env>(&self, jobs: Vec<ScopedJob<'env, T>>) -> Vec<T> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            // One job: running it inline is strictly cheaper than a dispatch
            // round-trip and keeps single-worker paths allocation-free.
            let mut jobs = jobs;
            return vec![jobs.pop().expect("len checked")()];
        }

        let (done_tx, done_rx) = mpsc::channel::<(usize, thread::Result<T>)>();
        {
            // Enqueue under one lock so a submitter's jobs are contiguous in
            // the queue, then wake every parked worker.
            let mut queue = lock_unpoisoned(&self.shared.queue);
            for (index, job) in jobs.into_iter().enumerate() {
                let done = done_tx.clone();
                let task: ScopedJob<'env, ()> = Box::new(move || {
                    let result = panic::catch_unwind(AssertUnwindSafe(job));
                    // The receiver only disappears if the submitter panicked
                    // for an unrelated reason; dropping the result is fine.
                    let _ = done.send((index, result));
                });
                // SAFETY: `run_jobs` does not return before it has received
                // exactly `n` results, one per submitted task, and each task
                // sends its result only after the borrowed job has finished
                // running (including by panic, which `catch_unwind` converts
                // into a result). The queue outlives the pool and is never
                // cleared without running the jobs, so a queued task cannot be
                // dropped unrun while the submitter is still waiting. Hence
                // every `'env` borrow captured by the job strictly outlives
                // its use, and erasing the lifetime to `'static` for
                // transport is sound.
                let task: Job = unsafe {
                    std::mem::transmute::<ScopedJob<'env, ()>, ScopedJob<'static, ()>>(task)
                };
                queue.push_back(task);
            }
            self.shared.available.notify_all();
        }
        drop(done_tx);

        let mut slots: Vec<Option<thread::Result<T>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut completed = 0;
        while completed < n {
            // Prefer stealing real work over blocking on the results channel:
            // with fewer pool threads than jobs (always, since the caller is a
            // lane) this is what closes the batch.
            if let Some(task) = self.try_steal() {
                task();
                continue;
            }
            match done_rx.recv() {
                Ok((index, result)) => {
                    slots[index] = Some(result);
                    completed += 1;
                }
                Err(_) => unreachable!("tasks hold the sender until they have reported"),
            }
        }

        let mut out = Vec::with_capacity(n);
        for slot in slots {
            match slot.expect("barrier collected every result") {
                Ok(value) => out.push(value),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        out
    }

    /// Takes one queued job, if any is waiting, without blocking.
    fn try_steal(&self) -> Option<Job> {
        lock_unpoisoned(&self.shared.queue).pop_front()
    }
}

/// The worker thread body: park until a job is queued, run it, repeat forever.
fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                // `wait` releases the lock while parked — crucial, or callers
                // could never steal from an idle pool.
                queue = match shared.available.wait(queue) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            // The guard drops here, before the job runs.
        };
        job();
    }
}

/// The process-wide pool shared by every parallel chase path.
fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

/// Returns the global pool, grown (never shrunk) to serve `workers` lanes.
///
/// This is the entry point every parallel path uses:
///
/// ```
/// use chase_core::pool::{self, ScopedJob};
///
/// let inputs = [1u64, 2, 3, 4];
/// let jobs: Vec<ScopedJob<'_, u64>> = inputs
///     .iter()
///     .map(|&x| Box::new(move || x * x) as ScopedJob<'_, u64>)
///     .collect();
/// let squares = pool::with_workers(4).run_jobs(jobs);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn with_workers(workers: usize) -> &'static WorkerPool {
    let pool = global();
    pool.ensure_workers(workers);
    pool
}

/// Work done by one worker over its shard of a discovery batch: how many
/// interned fact ids it scanned as seeds, how many triggers its joins produced,
/// and how long the shard took wall-clock.
///
/// Shard stats are the raw material for attributing parallel-discovery cost:
/// a balanced round has near-equal `elapsed` across workers, while a skewed
/// predicate distribution shows up as one hot shard. They are collected by
/// `chase_trigger::parallel::discover_batch` (when asked for stats) and surfaced
/// through the `ChaseObserver::discovery_completed` phase event.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Index of the worker that processed the shard (0-based; sequential
    /// discovery reports a single shard for worker 0).
    pub worker: usize,
    /// Seed fact ids scanned by this shard.
    pub facts_scanned: usize,
    /// Triggers the shard's joins produced that the caller's filter kept
    /// (before cross-shard dedup).
    pub triggers_found: usize,
    /// Wall-clock time of the shard, measured inside the worker.
    pub elapsed: Duration,
}

/// One discovery batch: the per-worker [`ShardStats`] plus the wall-clock of
/// the whole batch as seen by the coordinating thread (spawn + join overhead
/// included, which is why `elapsed` can exceed the max shard time).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiscoveryStats {
    /// Per-worker shard statistics, in worker order.
    pub shards: Vec<ShardStats>,
    /// End-to-end batch wall-clock (coordinator view).
    pub elapsed: Duration,
}

impl DiscoveryStats {
    /// Total seed fact ids scanned across all shards.
    pub fn facts_scanned(&self) -> usize {
        self.shards.iter().map(|s| s.facts_scanned).sum()
    }

    /// Total triggers produced across all shards (before dedup).
    pub fn triggers_found(&self) -> usize {
        self.shards.iter().map(|s| s.triggers_found).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn squares(pool: &WorkerPool, upto: usize) -> Vec<usize> {
        let jobs: Vec<ScopedJob<'_, usize>> = (0..upto)
            .map(|i| Box::new(move || i * i) as ScopedJob<'_, usize>)
            .collect();
        pool.run_jobs(jobs)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new();
        pool.ensure_workers(4);
        let expected: Vec<usize> = (0..64).map(|i| i * i).collect();
        assert_eq!(squares(&pool, 64), expected);
    }

    #[test]
    fn zero_thread_pool_still_completes_via_caller_stealing() {
        let pool = WorkerPool::new();
        assert_eq!(pool.threads(), 0);
        assert_eq!(squares(&pool, 8), vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn jobs_borrow_caller_stack_data() {
        let pool = WorkerPool::new();
        pool.ensure_workers(3);
        let data: Vec<u32> = (0..100).collect();
        let view: &[u32] = &data;
        let jobs: Vec<ScopedJob<'_, u32>> = view
            .chunks(7)
            .map(|chunk| Box::new(move || chunk.iter().sum::<u32>()) as ScopedJob<'_, u32>)
            .collect();
        let total: u32 = pool.run_jobs(jobs).into_iter().sum();
        assert_eq!(total, data.iter().sum::<u32>());
    }

    #[test]
    fn ensure_workers_is_grow_only_and_zero_means_one_lane() {
        let pool = WorkerPool::new();
        pool.ensure_workers(0);
        assert_eq!(
            pool.threads(),
            0,
            "workers(0) normalizes to the caller lane"
        );
        pool.ensure_workers(4);
        assert_eq!(pool.threads(), 3);
        pool.ensure_workers(2);
        assert_eq!(pool.threads(), 3, "pool never shrinks");
        pool.ensure_workers(6);
        assert_eq!(pool.threads(), 5);
    }

    #[test]
    fn pool_is_reused_across_batches() {
        let pool = WorkerPool::new();
        pool.ensure_workers(4);
        let before = pool.threads();
        for round in 0..32 {
            let got = squares(&pool, 16);
            assert_eq!(got[15], 225, "round {round}");
        }
        assert_eq!(pool.threads(), before, "no re-spawn between batches");
    }

    #[test]
    fn panicking_job_propagates_after_the_batch_completes() {
        let pool = WorkerPool::new();
        pool.ensure_workers(2);
        let ran = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<ScopedJob<'_, ()>> = (0..8)
                .map(|i| {
                    let ran = &ran;
                    Box::new(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        ran.fetch_add(1, Ordering::SeqCst);
                    }) as ScopedJob<'_, ()>
                })
                .collect();
            pool.run_jobs(jobs);
        }));
        assert!(result.is_err(), "the job panic must surface to the caller");
        assert_eq!(
            ran.load(Ordering::SeqCst),
            7,
            "all non-panicking jobs still ran to completion"
        );
        // The pool must remain usable after a panicked batch.
        assert_eq!(squares(&pool, 4), vec![0, 1, 4, 9]);
    }

    #[test]
    fn nested_run_jobs_from_inside_a_job_completes() {
        let pool = WorkerPool::new();
        pool.ensure_workers(2);
        let inner_pool = &pool;
        let jobs: Vec<ScopedJob<'_, usize>> = (0usize..4)
            .map(|i| {
                Box::new(move || {
                    let inner: Vec<ScopedJob<'_, usize>> = (0..3)
                        .map(|j| Box::new(move || i * 10 + j) as ScopedJob<'_, usize>)
                        .collect();
                    inner_pool.run_jobs(inner).into_iter().sum()
                }) as ScopedJob<'_, usize>
            })
            .collect();
        let got = pool.run_jobs(jobs);
        assert_eq!(got, vec![3, 33, 63, 93]);
    }

    #[test]
    fn global_pool_grows_on_demand() {
        let before = global().threads();
        let pool = with_workers(2);
        assert!(pool.threads() >= 1);
        assert!(pool.threads() >= before);
        let results = squares(pool, 32);
        assert_eq!(results[31], 31 * 31);
    }
}
