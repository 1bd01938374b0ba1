//! The repository's two execution primitives: a bounded pool for
//! long-lived serve sessions and a scoped fork-join for batch work.
//!
//! * [`TaskPool`] hosts the serving daemon's sessions. Each rack session
//!   is a `'static` [`PollTask`] that advances one epoch (or one waiting
//!   quantum) per [`PollTask::poll`] call and yields the thread between
//!   steps, so a 1,000-session daemon runs on `workers` threads instead
//!   of 1,000. Tasks that need to wait (pacing, crash backoff, manual
//!   ticks) return [`TaskPoll::After`] and are parked on a deadline map
//!   rather than blocking a worker; idle workers steal runnable tasks
//!   from each other.
//! * [`for_each_bounded`] runs a closure over a borrowed slice on the
//!   caller plus `workers - 1` scoped threads and joins them. Fleet
//!   epochs ([`run_epoch_batches`]) and experiment sweeps
//!   ([`crate::runner::run_all`]) are built on it: execution order is
//!   free, while folds and flushes happen afterwards on the caller in
//!   ascending index order, which is exactly the determinism contract
//!   the fleet byte-identity suite enforces.
//!
//! Determinism proof obligation (see DESIGN.md §15): no task may derive
//! behaviour from worker identity, claim order, or wall-clock readings;
//! those inputs exist only in this module and never flow into task
//! state. Everything a task computes is a function of its own spec and
//! its own step counter.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use greenhetero_core::error::CoreError;

/// What a task wants the pool to do after one `poll`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPoll {
    /// Re-run the task as soon as a worker is free (it has more work
    /// ready right now).
    Again,
    /// Park the task and re-poll it no sooner than this many
    /// milliseconds from now (pacing, crash backoff, waiting for a
    /// manual tick). A [`TaskPool::kick`] may wake it earlier.
    After(u64),
    /// The task reached a terminal state; drop it.
    Done,
}

/// A cooperatively-scheduled unit of work: one rack session, polled one
/// epoch (or one waiting quantum) at a time on the bounded pool.
pub trait PollTask: Send {
    /// Advances the task by one step and reports what to do next.
    ///
    /// A poll should stay short — one epoch step, one queue check — so
    /// thousands of tasks share a handful of workers fairly. Blocking
    /// inside `poll` stalls one worker (the pool tolerates it, the
    /// other workers keep stealing) but is reserved for genuinely
    /// stuck tasks, not for pacing.
    fn poll(&mut self) -> TaskPoll;
}

/// Counters describing pool activity, for telemetry export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskPoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Tasks ever submitted via [`TaskPool::spawn`].
    pub spawned: u64,
    /// Tasks that returned [`TaskPoll::Done`].
    pub completed: u64,
    /// Total `poll` invocations across all tasks.
    pub polls: u64,
    /// Polls that ran on a task stolen from another worker's deque or
    /// taken from the shared injector.
    pub steals: u64,
}

/// How long an idle worker sleeps when no parked task has a nearer
/// deadline — bounds wake-up latency for `kick` racing a sleep.
const IDLE_WAIT_MS: u64 = 50;

struct PoolInner {
    /// Per-worker runnable deques; owners pop the front, thieves steal
    /// the back.
    queues: Vec<Mutex<VecDeque<Box<dyn PollTask>>>>,
    /// Overflow/injection queue: `spawn` and timer promotion land here.
    injector: Mutex<VecDeque<Box<dyn PollTask>>>,
    /// Parked tasks keyed by `(wake_deadline_ms, sequence)` so the
    /// earliest deadline is always the first key.
    parked: Mutex<BTreeMap<(u64, u64), Box<dyn PollTask>>>,
    /// Condvar pair for idle workers.
    idle: Mutex<()>,
    wake: Condvar,
    live: AtomicBool,
    seq: AtomicU64,
    epoch: Instant,
    spawned: AtomicU64,
    completed: AtomicU64,
    polls: AtomicU64,
    steals: AtomicU64,
}

impl PoolInner {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Moves every parked task whose deadline has passed into the
    /// injector; returns the next pending deadline, if any.
    fn promote_due(&self) -> (usize, Option<u64>) {
        let now = self.now_ms();
        let mut parked = self.parked.lock().unwrap_or_else(PoisonError::into_inner);
        let later = parked.split_off(&(now.saturating_add(1), 0));
        let due = std::mem::replace(&mut *parked, later);
        let next = parked.keys().next().map(|(deadline, _)| *deadline);
        drop(parked);
        let promoted = due.len();
        if promoted > 0 {
            let mut injector = self.injector.lock().unwrap_or_else(PoisonError::into_inner);
            injector.extend(due.into_values());
        }
        (promoted, next)
    }

    /// Pops the next runnable task for worker `me`: own deque first,
    /// then the injector, then the back of every other deque.
    fn next_task(&self, me: usize) -> Option<(Box<dyn PollTask>, bool)> {
        if let Some(task) = self.queues[me]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
        {
            return Some((task, false));
        }
        if let Some(task) = self
            .injector
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
        {
            return Some((task, true));
        }
        for offset in 1..self.queues.len() {
            let victim = (me + offset) % self.queues.len();
            if let Some(task) = self.queues[victim]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_back()
            {
                return Some((task, true));
            }
        }
        None
    }

    fn worker_loop(&self, me: usize) {
        while self.live.load(Ordering::Acquire) {
            if let Some((mut task, stolen)) = self.next_task(me) {
                self.polls.fetch_add(1, Ordering::Relaxed);
                if stolen {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                }
                match task.poll() {
                    TaskPoll::Again => self.queues[me]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push_back(task),
                    TaskPoll::After(ms) => {
                        let key = (
                            self.now_ms().saturating_add(ms),
                            self.seq.fetch_add(1, Ordering::Relaxed),
                        );
                        self.parked
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .insert(key, task);
                    }
                    TaskPoll::Done => {
                        self.completed.fetch_add(1, Ordering::Relaxed);
                        drop(task);
                    }
                }
                continue;
            }
            let (promoted, next_deadline) = self.promote_due();
            if promoted > 0 {
                continue;
            }
            let wait = next_deadline
                .map(|deadline| {
                    deadline
                        .saturating_sub(self.now_ms())
                        .clamp(1, IDLE_WAIT_MS)
                })
                .unwrap_or(IDLE_WAIT_MS);
            let guard = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
            // Re-check under the idle lock so a notify between our last
            // queue scan and this wait is not lost entirely; the bounded
            // timeout caps the cost of the residual race.
            if self.live.load(Ordering::Acquire) {
                let _unused = self
                    .wake
                    .wait_timeout(guard, Duration::from_millis(wait))
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// A bounded work-stealing pool hosting [`PollTask`]s on `workers` OS
/// threads. Dropping the pool stops the workers; tasks still resident
/// (runnable or parked) are dropped without further polls — callers
/// that need orderly shutdown should stop their tasks first (the serve
/// supervisor's drain raises every session's stop flag, then
/// [`kick`](TaskPool::kick)s the pool so parked sessions observe it).
pub struct TaskPool {
    inner: Arc<PoolInner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for TaskPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskPool")
            .field("workers", &self.inner.queues.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl TaskPool {
    /// Starts a pool with `workers` threads (0 ⇒ `available_parallelism`).
    pub fn start(workers: usize) -> Result<Self, CoreError> {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            workers
        };
        let inner = Arc::new(PoolInner {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            parked: Mutex::new(BTreeMap::new()),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            live: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
            spawned: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("gh-pool-{i}"))
                .spawn(move || inner.worker_loop(i))
                .map_err(|e| CoreError::InvalidConfig {
                    reason: format!("pool worker spawn failed: {e}"),
                })?;
            handles.push(handle);
        }
        Ok(TaskPool {
            inner,
            handles: Mutex::new(handles),
        })
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.inner.queues.len()
    }

    /// Submits a task; it will be polled by the next free worker.
    pub fn spawn(&self, task: Box<dyn PollTask>) {
        self.inner.spawned.fetch_add(1, Ordering::Relaxed);
        self.inner
            .injector
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(task);
        self.inner.wake.notify_one();
    }

    /// Wakes every parked task immediately (their `After` deadlines are
    /// forfeited) and nudges all workers. Used by drain so sessions
    /// sitting out a backoff or pacing interval observe their stop
    /// flags now rather than at the next deadline.
    pub fn kick(&self) {
        let due = {
            let mut parked = self
                .inner
                .parked
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *parked)
        };
        if !due.is_empty() {
            let mut injector = self
                .inner
                .injector
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            injector.extend(due.into_values());
        }
        self.inner.wake.notify_all();
    }

    /// Activity counters for telemetry export.
    pub fn stats(&self) -> TaskPoolStats {
        TaskPoolStats {
            workers: self.inner.queues.len(),
            spawned: self.inner.spawned.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            polls: self.inner.polls.load(Ordering::Relaxed),
            steals: self.inner.steals.load(Ordering::Relaxed),
        }
    }

    /// Stops the workers and joins them. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.inner.live.store(false, Ordering::Release);
        self.inner.wake.notify_all();
        let handles = {
            let mut guard = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *guard)
        };
        for handle in handles {
            if handle.join().is_err() {
                // A worker panicked while unwinding a task poll; the
                // pool is shutting down anyway, nothing to salvage.
            }
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Scoped fork-join for batch work: fleet epochs and experiment sweeps.
// ---------------------------------------------------------------------------

/// Runs `f` once on every item of `items` on at most `workers` threads:
/// the caller plus `workers - 1` scoped threads (none at one worker).
///
/// Workers claim items one at a time through a shared cursor, so which
/// thread runs which item is first-come-first-served; `f` must not let
/// that choice reach the item's state. Returns once every item is done.
/// A panic in `f` on a spawned worker is resumed on the caller with its
/// original payload (the first panicked worker in spawn order wins); a
/// panic on the caller itself propagates once the workers are joined.
pub fn for_each_bounded<T: Send>(items: &mut [T], workers: usize, f: impl Fn(&mut T) + Sync) {
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let cursor = Mutex::new(items.iter_mut());
    let work = || loop {
        let claimed = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
        match claimed {
            Some(item) => f(item),
            None => break,
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        work();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Runs `epochs` lock-step epochs over `batches` on up to `workers`
/// threads.
///
/// Each epoch steps every batch exactly once via `step(&mut batch,
/// epoch)`, in parallel through [`for_each_bounded`]. Then, on the
/// calling thread, it calls `fold(epoch, &mut batch)` for every batch in
/// **ascending batch index order** (the exact order the sequential
/// oracle folds in) and `epoch_done(epoch)` (sink flush). No batch starts
/// epoch `e+1` before every batch finished epoch `e`, which is the
/// lock-step contract the shared solve cache and the one-epoch sink
/// buffering rely on.
///
/// `step` returns `false` to report a failed batch: the run stops once
/// the current epoch's steps are done, that epoch is neither folded nor
/// flushed, and the caller inspects its own per-batch error state.
/// Returns the batches for post-run harvest.
pub fn run_epoch_batches<B: Send>(
    workers: usize,
    epochs: u64,
    mut batches: Vec<B>,
    step: &(dyn Fn(&mut B, u64) -> bool + Sync),
    fold: &dyn Fn(u64, &mut B),
    epoch_done: &dyn Fn(u64),
) -> Vec<B> {
    if batches.is_empty() {
        return batches;
    }
    let failed = AtomicBool::new(false);
    for epoch in 0..epochs {
        for_each_bounded(&mut batches, workers, |batch| {
            if !step(batch, epoch) {
                failed.store(true, Ordering::Relaxed);
            }
        });
        // The scope join orders every step before this load.
        if failed.load(Ordering::Relaxed) {
            break;
        }
        for batch in &mut batches {
            fold(epoch, batch);
        }
        epoch_done(epoch);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        n: u64,
        limit: u64,
        hits: Arc<AtomicU64>,
    }

    impl PollTask for Counter {
        fn poll(&mut self) -> TaskPoll {
            self.n += 1;
            self.hits.fetch_add(1, Ordering::Relaxed);
            if self.n >= self.limit {
                TaskPoll::Done
            } else if self.n.is_multiple_of(3) {
                TaskPoll::After(1)
            } else {
                TaskPoll::Again
            }
        }
    }

    fn wait_for<F: FnMut() -> bool>(mut done: F, what: &str) {
        let start = Instant::now();
        while !done() {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn pool_runs_many_tasks_to_completion_on_few_workers() {
        let pool = TaskPool::start(2).expect("pool");
        assert_eq!(pool.workers(), 2);
        let hits = Arc::new(AtomicU64::new(0));
        let tasks = 64u64;
        let polls_each = 10u64;
        for _ in 0..tasks {
            pool.spawn(Box::new(Counter {
                n: 0,
                limit: polls_each,
                hits: Arc::clone(&hits),
            }));
        }
        wait_for(
            || pool.stats().completed == tasks,
            "all pool tasks to finish",
        );
        assert_eq!(hits.load(Ordering::Relaxed), tasks * polls_each);
        let stats = pool.stats();
        assert_eq!(stats.spawned, tasks);
        assert!(stats.polls >= tasks * polls_each);
        pool.shutdown();
    }

    #[test]
    fn kick_wakes_parked_tasks_early() {
        struct Sleeper {
            woke: Arc<AtomicU64>,
        }
        impl PollTask for Sleeper {
            fn poll(&mut self) -> TaskPoll {
                if self.woke.fetch_add(1, Ordering::Relaxed) == 0 {
                    // Park far beyond the test timeout; only a kick can
                    // bring us back.
                    TaskPoll::After(3_600_000)
                } else {
                    TaskPoll::Done
                }
            }
        }
        let pool = TaskPool::start(1).expect("pool");
        let woke = Arc::new(AtomicU64::new(0));
        pool.spawn(Box::new(Sleeper {
            woke: Arc::clone(&woke),
        }));
        wait_for(|| woke.load(Ordering::Relaxed) == 1, "first poll");
        pool.kick();
        wait_for(|| pool.stats().completed == 1, "kicked task to finish");
        pool.shutdown();
    }

    #[test]
    fn for_each_bounded_visits_every_item_once_at_every_worker_count() {
        let start = Instant::now();
        let rounds = 50u32;
        for workers in [1usize, 2, 4, 16] {
            let calls = AtomicU64::new(0);
            let mut items = vec![0u32; 37];
            for _ in 0..rounds {
                for_each_bounded(&mut items, workers, |visits| {
                    *visits += 1;
                    calls.fetch_add(1, Ordering::Relaxed);
                });
            }
            assert!(
                items.iter().all(|&visits| visits == rounds),
                "an item was skipped or revisited at {workers} workers: {items:?}"
            );
            assert_eq!(calls.load(Ordering::Relaxed), u64::from(rounds) * 37);
        }
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "fork-join rounds took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn for_each_bounded_writes_results_in_place_in_input_order() {
        let mut items: Vec<(usize, usize)> = (0..23).map(|x| (x, 0)).collect();
        for_each_bounded(&mut items, 3, |(x, doubled)| *doubled = *x * 2);
        let got: Vec<usize> = items.iter().map(|&(_, doubled)| doubled).collect();
        assert_eq!(got, (0..23).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_bounded_handles_more_workers_than_items_and_empty_slices() {
        let mut items = vec![1u32, 2];
        for_each_bounded(&mut items, 16, |x| *x += 1);
        assert_eq!(items, vec![2, 3]);
        let mut none: Vec<u32> = Vec::new();
        for_each_bounded(&mut none, 4, |_| unreachable!("no items to visit"));
    }

    #[derive(Debug, PartialEq)]
    struct Boom(usize);

    #[test]
    fn for_each_bounded_resumes_a_worker_panic_with_its_payload() {
        // Two items, two threads, and a barrier: each thread must hold
        // one item before either proceeds, so the spawned worker is the
        // one that panics — never the caller.
        let caller = std::thread::current().id();
        let both_claimed = std::sync::Barrier::new(2);
        let mut items = vec![0usize, 1];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_bounded(&mut items, 2, |item| {
                both_claimed.wait();
                if std::thread::current().id() != caller {
                    std::panic::panic_any(Boom(*item));
                }
            });
        }));
        let payload = caught.expect_err("the worker panic must reach the caller");
        let boom = payload
            .downcast_ref::<Boom>()
            .expect("the original payload, not a generic scope panic");
        assert!(boom.0 < 2, "payload names a claimed item: {boom:?}");
    }

    #[test]
    fn for_each_bounded_panic_on_any_thread_reaches_the_caller() {
        let mut items: Vec<u32> = (0..5).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_bounded(&mut items, 2, |x| assert!(*x != 3, "boom on item 3"));
        }));
        assert!(caught.is_err(), "the pool should resume the panic");
    }

    #[test]
    fn epoch_batches_step_counts_hold_over_many_short_epochs() {
        // Many short epochs at more workers than cores: the loop that
        // once deadlocked on an epoch rollover must finish, stepping each
        // batch exactly once per epoch.
        for workers in [2usize, 4] {
            let steps = AtomicU64::new(0);
            let out = run_epoch_batches(
                workers,
                300,
                (0..8u64).collect(),
                &|_b, _e| {
                    steps.fetch_add(1, Ordering::Relaxed);
                    true
                },
                &|_e, _b| {},
                &|_e| {},
            );
            assert_eq!(out.len(), 8);
            assert_eq!(steps.load(Ordering::Relaxed), 300 * 8);
        }
    }

    #[test]
    fn epoch_batches_fold_in_order_at_every_worker_count() {
        // Each batch appends (epoch, batch_id) at fold time; the fold
        // log must be identical — ascending batch order within each
        // ascending epoch — no matter how many workers steal the steps.
        let epochs = 7u64;
        let batches = 13usize;
        let reference: Vec<(u64, usize)> = (0..epochs)
            .flat_map(|e| (0..batches).map(move |b| (e, b)))
            .collect();
        for workers in [1usize, 2, 4, 16] {
            let log = Mutex::new(Vec::new());
            let steps = AtomicU64::new(0);
            let slots: Vec<usize> = (0..batches).collect();
            let out = run_epoch_batches(
                workers,
                epochs,
                slots,
                &|_b, _e| {
                    steps.fetch_add(1, Ordering::Relaxed);
                    true
                },
                &|e, b| {
                    log.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((e, *b));
                },
                &|_e| {},
            );
            assert_eq!(out.len(), batches);
            assert_eq!(
                steps.load(Ordering::Relaxed),
                epochs * batches as u64,
                "every batch steps once per epoch at {workers} workers"
            );
            assert_eq!(
                *log.lock().unwrap_or_else(PoisonError::into_inner),
                reference,
                "fold order must be (epoch, batch) ascending at {workers} workers"
            );
        }
    }

    #[test]
    fn epoch_batches_abort_skips_the_failed_epochs_rollover() {
        // Batch 3 fails in epoch 2: the run stops after epoch 2's
        // dependency counter drains, and epoch 2 is neither folded nor
        // flushed (partial epochs never reach the artifacts).
        let folded = Mutex::new(Vec::new());
        let flushed = Mutex::new(Vec::new());
        let slots: Vec<usize> = (0..5).collect();
        let epoch_of = Mutex::new(vec![0u64; 5]);
        run_epoch_batches(
            4,
            10,
            slots,
            &|b, _e| {
                let mut epochs = epoch_of.lock().unwrap_or_else(PoisonError::into_inner);
                let e = epochs[*b];
                epochs[*b] += 1;
                !(*b == 3 && e == 2)
            },
            &|e, _b| {
                folded
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(e);
            },
            &|e| {
                flushed
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(e);
            },
        );
        let folded = folded.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(
            folded.iter().all(|&e| e < 2),
            "aborted epoch must not fold: {folded:?}"
        );
        assert_eq!(
            *flushed.lock().unwrap_or_else(PoisonError::into_inner),
            vec![0, 1],
            "only complete epochs flush"
        );
    }

    #[test]
    fn epoch_batches_handle_more_workers_than_batches() {
        let slots: Vec<u64> = vec![0, 0];
        let out = run_epoch_batches(
            16,
            3,
            slots,
            &|b, _e| {
                *b += 1;
                true
            },
            &|_e, _b| {},
            &|_e| {},
        );
        assert_eq!(out, vec![3, 3]);
    }
}
