//! Persistent-pool execution engine for the multi-threaded trainer.
//!
//! A step pass is one [`WorkerPool::run`] call over one job per row
//! chunk. Job `k` of a call runs on lane `k`: lane 0 is the calling
//! thread itself, and lanes `1..n` are long-lived worker threads spawned
//! once per [`Trainer`](crate::Trainer). `run` posts jobs `1..` into their
//! workers' slots, runs job 0 inline and returns once every job returned.
//! The jobs may borrow the caller's stack (batch, scratch, gradient
//! shards) exactly like `std::thread::scope` closures could: the pool
//! never returns from `run` while a job is still in flight.
//!
//! **Spin, then park.** A round creates no channel and allocates nothing
//! beyond the caller's `Vec<Job>`. Each waiting side, an idle worker
//! between rounds and the caller after job 0, first polls an atomic for a
//! short time (1 ms, bounded by the clock, not by a count of spin-loop
//! hints, whose cost varies ≈ 10× across x86 generations) and then parks
//! with [`std::thread::park`]. The other side unparks it only if it said
//! it was asleep. A step's rounds follow each other within microseconds,
//! so most hand-offs end inside the spin. Where the process may use fewer
//! CPUs than the pool has lanes (`available_parallelism() < n`, read once
//! in [`WorkerPool::new`]), the budget is zero: a spinning side would only
//! hold the CPU the side it waits for needs.
//!
//! [`Engine`] bundles the compute pool with a persistent
//! [`SamplerPool`], so neither the per-batch step passes nor the
//! per-epoch negative sampling spawn any threads after trainer start-up.

use bsl_sampling::SamplerPool;
use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// A unit of work submitted to [`WorkerPool::run`]. Jobs may borrow the
/// caller's stack (`'scope`); the pool blocks until every job of the call
/// has finished, so the borrows never outlive their referents.
pub type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// A job with its borrow lifetime erased, as it sits in a worker's slot;
/// `None` tells the worker to exit.
type Task = Option<Box<dyn FnOnce() + Send + 'static>>;

/// A caught panic's payload.
type Payload = Box<dyn Any + Send>;

/// How long a waiting side polls before it parks, where the pool's lanes
/// fit the CPUs the process may use. Of 0, 20, 100, 350, 1,000 and
/// 2,000 µs on the in-batch step, it left the least hand-off time without
/// lengthening the op (the sweep is in `CHANGES.md`).
const SPIN: Duration = Duration::from_millis(1);

/// Slot states: no task (a new slot's), a task posted, the worker parked.
const EMPTY: u8 = 0;
const POSTED: u8 = 1;
const ASLEEP: u8 = 2;

/// The bit of [`Shared::pending`] the caller sets before it parks.
const CALLER_ASLEEP: usize = 1 << (usize::BITS - 1);

/// One worker's mailbox. The caller and the worker hand its two cells to
/// each other through `state` and the round's pending count, so no two
/// threads touch a cell at once.
#[derive(Default)]
struct Slot {
    state: AtomicU8,
    task: UnsafeCell<Task>,
    panic: UnsafeCell<Option<Payload>>,
}

// SAFETY: the cells hold `Send` values, and the slot protocol gives each
// cell one owner at a time. The caller writes `task` only while the slot
// is not POSTED (its worker took the last task before counting it done,
// and the next round starts after the count reached zero) and publishes
// it with a Release swap to POSTED. The worker takes it after an Acquire
// load of POSTED, writes `panic` before its Release decrement of the
// count, and the caller reads `panic` after an Acquire load of zero.
#[allow(unsafe_code)]
unsafe impl Sync for Slot {}

impl Slot {
    /// Hands `task` to this slot's worker (`worker` is its thread) and
    /// unparks the worker if it said it was asleep.
    ///
    /// # Safety
    /// The slot's worker must have taken its previous task: every job
    /// posted before has been counted done (or none was posted), and no
    /// other thread posts to this slot meanwhile.
    #[allow(unsafe_code)]
    unsafe fn post(&self, task: Task, worker: &Thread) {
        // SAFETY: by the contract above the worker no longer reads the
        // cell, and it reads it again only after the swap below.
        unsafe { *self.task.get() = task };
        // ORDERING: Release publishes the task (and the round's pending
        // count stored before it) to the worker's Acquire load of POSTED.
        // Reading ASLEEP needs no Acquire: the worker wrote nothing for us.
        if self.state.swap(POSTED, Ordering::Release) == ASLEEP {
            worker.unpark();
        }
    }

    /// Blocks the worker until a task is posted: spins for `spin`, then
    /// says it is asleep and parks until the state reads POSTED.
    fn wait_posted(&self, spin: Duration) {
        // ORDERING: Acquire on every load of POSTED below (and the failed
        // exchange, which read POSTED) synchronizes with the caller's
        // Release swap, so the task written before it is visible.
        if spin_until(spin, || self.state.load(Ordering::Acquire) == POSTED) {
            return;
        }
        // Only this worker writes ASLEEP, and the caller can only have
        // turned EMPTY into POSTED: a failure means the task is here.
        // ORDERING: Acquire, as above; success publishes nothing.
        if self.state.compare_exchange(EMPTY, ASLEEP, Ordering::Acquire, Ordering::Acquire).is_err()
        {
            return;
        }
        // ORDERING: Acquire, as above.
        while self.state.load(Ordering::Acquire) != POSTED {
            std::thread::park();
        }
    }
}

/// What the caller and the workers share.
struct Shared {
    /// Lane `k + 1`'s mailbox is `slots[k]`.
    slots: Box<[Slot]>,
    /// Jobs of the current round still running on workers, plus
    /// [`CALLER_ASLEEP`] once the caller parked.
    pending: AtomicUsize,
    /// The thread that last parked in [`Shared::wait`], for the worker
    /// whose job finishes a round it sleeps on.
    caller: Mutex<Option<Thread>>,
    /// The spin budget: [`SPIN`], or zero when the lanes outnumber the
    /// CPUs.
    spin: Duration,
}

impl Shared {
    /// Blocks the caller until the round's pending count reaches zero:
    /// spins for the budget, then sets [`CALLER_ASLEEP`] and parks.
    fn wait(&self) {
        // ORDERING: Acquire on every read of the count synchronizes with
        // each worker's Release decrement of this round: the later ones
        // are read-modify-writes, so they continue every earlier one's
        // release sequence. The jobs' writes and panic cells are then
        // visible here.
        if spin_until(self.spin, || self.pending.load(Ordering::Acquire) == 0) {
            return;
        }
        *self.caller.lock().unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
        // ORDERING: AcqRel. Acquire as above when the count is already
        // zero; Release orders the handle stored above before the lock of
        // the worker that reads the bit (its decrement is AcqRel).
        if self.pending.fetch_or(CALLER_ASLEEP, Ordering::AcqRel) == 0 {
            return;
        }
        // ORDERING: Acquire, as above.
        while self.pending.load(Ordering::Acquire) != CALLER_ASLEEP {
            std::thread::park();
        }
    }

    /// Unparks the thread that parked in [`Shared::wait`]. If it woke by
    /// itself and a new round already began, the new caller gets a stray
    /// token, which costs one extra look at the count.
    fn wake_caller(&self) {
        if let Some(caller) = &*self.caller.lock().unwrap_or_else(PoisonError::into_inner) {
            caller.unpark();
        }
    }
}

/// Polls `done` for at most `budget`, with a spin-loop hint between polls;
/// whether it came true. A zero budget polls once.
fn spin_until(budget: Duration, done: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if done() {
            return true;
        }
        if start.elapsed() >= budget {
            return false;
        }
        std::hint::spin_loop();
    }
}

/// Aborts the process if dropped. Armed where an unwind would free what
/// jobs still in flight borrow, or leave a round waiting on a worker
/// that is gone; defused with [`std::mem::forget`] on the normal path.
struct AbortOnDrop(&'static str);

impl Drop for AbortOnDrop {
    fn drop(&mut self) {
        eprintln!("bsl-core engine: {}; aborting", self.0);
        std::process::abort();
    }
}

/// A pool of `n` lanes executing borrowed jobs: the calling thread and
/// `n − 1` long-lived worker threads.
///
/// [`WorkerPool::run`] runs job 0 on the calling thread and job `k ≥ 1`
/// on worker `k`, so a caller that always submits jobs in shard order
/// gets a stable job-to-thread assignment (useful for cache locality of
/// per-shard scratch). Between rounds each worker spins for a short,
/// clock-bounded time and then parks, and so does the caller while it
/// waits for the workers' jobs; the spin is off when the process may use
/// fewer CPUs than `n` (see the [module docs](self)). Two threads may
/// call `run` on one pool at once: their rounds take turns. A job must
/// not call `run` on the pool it runs on. Dropping the pool shuts the
/// workers down and joins them.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Worker `k` (lane `k + 1`) serves `shared.slots[k]`.
    workers: Vec<JoinHandle<()>>,
    /// Held for a whole round, so concurrent callers take turns.
    round: Mutex<()>,
}

impl WorkerPool {
    /// A pool of `n_workers` lanes: the calling thread of each
    /// [`run`](Self::run) plus `n_workers − 1` spawned, idle workers.
    /// `new(1)` spawns no thread and runs every job inline.
    ///
    /// # Panics
    /// Panics if `n_workers == 0`.
    pub fn new(n_workers: usize) -> Self {
        assert!(n_workers > 0, "need at least one worker");
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spin = if cpus < n_workers { Duration::ZERO } else { SPIN };
        let shared = Arc::new(Shared {
            slots: (1..n_workers).map(|_| Slot::default()).collect(),
            pending: AtomicUsize::new(0),
            caller: Mutex::new(None),
            spin,
        });
        // Built in place, so a failed spawn drops a pool that shuts down
        // the workers spawned before it.
        let mut pool =
            Self { shared, workers: Vec::with_capacity(n_workers - 1), round: Mutex::new(()) };
        for lane in 1..n_workers {
            let shared = Arc::clone(&pool.shared);
            let handle = std::thread::Builder::new()
                .name(format!("bsl-engine-{lane}"))
                .spawn(move || worker_loop(&shared, lane - 1))
                .expect("spawning engine worker");
            pool.workers.push(handle);
        }
        pool
    }

    /// Number of lanes in the pool, the calling thread's included.
    pub fn n_workers(&self) -> usize {
        self.workers.len() + 1
    }

    /// Executes `jobs` (job 0 on the calling thread, job `k` on worker
    /// `k`), blocking until every job has returned. If any job panicked,
    /// a payload (job 0's first, then the lowest worker's) is re-raised
    /// on the caller *after* all jobs finished, so borrowed data is never
    /// observable by a still-running job past this call.
    ///
    /// # Panics
    /// Panics if more jobs than lanes are submitted, or (propagated) if a
    /// job panicked. A worker *thread* dying aborts the process instead
    /// of panicking: see the safety notes below.
    #[allow(unsafe_code)] // lifetime erasure for scoped jobs; see SAFETY
    pub fn run<'scope>(&self, jobs: Vec<Job<'scope>>) {
        assert!(jobs.len() <= self.n_workers(), "more jobs than pool workers");
        let posted = jobs.len().saturating_sub(1);
        let mut jobs = jobs.into_iter();
        let Some(first) = jobs.next() else { return };
        let turn = self.round.lock().unwrap_or_else(PoisonError::into_inner);
        let shared = &*self.shared;
        // ORDERING: Relaxed; each post's Release swap publishes the count
        // to its worker, and no worker decrements it before that.
        shared.pending.store(posted, Ordering::Relaxed);
        // Until every posted job has returned, unwinding out of this frame
        // would free what the jobs borrow: abort instead.
        let in_flight = AbortOnDrop("a pool round unwound with jobs in flight");
        for ((slot, worker), job) in shared.slots.iter().zip(&self.workers).zip(jobs) {
            // SAFETY: lifetime erasure. `run` returns only after `wait`
            // saw every posted job return, and nothing between here and
            // there unwinds (job 0 runs under `catch_unwind`, any other
            // unwind aborts through `in_flight`), so no job outlives
            // `'scope`.
            let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
            // SAFETY: `turn` makes this the only caller posting, and the
            // previous round (if any) returned only after its pending
            // count reached zero, so the worker took its last task.
            unsafe { slot.post(Some(job), worker.thread()) };
        }
        let mut panic = std::panic::catch_unwind(AssertUnwindSafe(first)).err();
        shared.wait();
        std::mem::forget(in_flight);
        for slot in &shared.slots[..posted] {
            // SAFETY: the worker wrote its payload before its Release
            // decrement, which `wait`'s Acquire read of zero saw, and it
            // writes the cell again only after a new post.
            let payload = unsafe { (*slot.panic.get()).take() };
            panic = panic.or(payload);
        }
        drop(turn);
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    #[allow(unsafe_code)] // posts the exit task; see SAFETY
    fn drop(&mut self) {
        for (slot, worker) in self.shared.slots.iter().zip(&self.workers) {
            // SAFETY: `&mut self` rules out a round in progress, and every
            // round returned only after its jobs were counted done.
            unsafe { slot.post(None, worker.thread()) };
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Worker `k`: wait for a task in `slots[k]`, run it, count it done, until
/// the pool posts the exit task. Panics are caught and handed to the
/// caller, which re-raises them; the worker's own frame unwinding would
/// leave a round waiting forever, so it aborts the process.
#[allow(unsafe_code)] // the slot's cells; see SAFETY
fn worker_loop(shared: &Shared, k: usize) {
    let slot = &shared.slots[k];
    let alive = AbortOnDrop("an engine worker died");
    loop {
        slot.wait_posted(shared.spin);
        // SAFETY: `wait_posted` read POSTED with Acquire after the
        // caller's Release swap, and the caller writes the cell again only
        // after this task is counted done below.
        let task = unsafe { (*slot.task.get()).take() };
        // ORDERING: Relaxed; the next post comes after this round's count
        // reaches zero, which the decrement below orders after this store.
        slot.state.store(EMPTY, Ordering::Relaxed);
        let Some(job) = task else { break };
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(job)) {
            // SAFETY: between a post and its count only this worker
            // touches the cell; the caller reads it after the count.
            unsafe { *slot.panic.get() = Some(payload) };
        }
        // ORDERING: AcqRel. Release hands the job's writes and the panic
        // cell to the caller's Acquire read of the count; Acquire orders
        // the caller's handle before `wake_caller` when the bit is set.
        if shared.pending.fetch_sub(1, Ordering::AcqRel) == CALLER_ASLEEP | 1 {
            shared.wake_caller();
        }
    }
    std::mem::forget(alive);
}

/// The trainer's persistent execution engine: a compute [`WorkerPool`]
/// for the per-batch step passes plus a [`SamplerPool`] whose long-lived
/// shard workers produce each epoch's batches. Created once per
/// [`Trainer`](crate::Trainer) (lazily, on the first multi-threaded fit)
/// and reused across batches, epochs, and repeated fits.
pub struct Engine {
    pool: WorkerPool,
    samplers: SamplerPool,
}

impl Engine {
    /// An engine with `n_threads` compute lanes and `n_threads` sampling
    /// shard workers.
    ///
    /// # Panics
    /// Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> Self {
        Self { pool: WorkerPool::new(n_threads), samplers: SamplerPool::new(n_threads) }
    }

    /// The compute pool the step passes run on.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The persistent sampling pool batches come from.
    pub fn samplers(&self) -> &SamplerPool {
        &self.samplers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    #[test]
    fn pool_runs_borrowed_jobs_to_completion() {
        let pool = WorkerPool::new(4);
        let mut out = vec![0usize; 4];
        let chunks: Vec<&mut usize> = out.iter_mut().collect();
        let mut jobs: Vec<Job> = Vec::new();
        for (k, slot) in chunks.into_iter().enumerate() {
            jobs.push(Box::new(move || *slot = k + 1));
        }
        pool.run(jobs);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn pool_is_reusable_across_many_rounds() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..100 {
            let jobs: Vec<Job> = (0..3)
                .map(|_| {
                    let c = &counter;
                    Box::new(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    }) as Job
                })
                .collect();
            pool.run(jobs);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn fewer_jobs_than_workers_is_fine() {
        let pool = WorkerPool::new(4);
        let mut x = 0u32;
        pool.run(vec![Box::new(|| x += 7)]);
        assert_eq!(x, 7);
        pool.run(Vec::new()); // zero jobs is a no-op
    }

    #[test]
    fn job_panic_propagates_after_all_jobs_finish() {
        let pool = WorkerPool::new(2);
        let done = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| panic!("job failed")),
                Box::new(|| {
                    done.fetch_add(1, Ordering::Relaxed);
                }),
            ]);
        }));
        assert!(result.is_err(), "the job panic must reach the caller");
        assert_eq!(done.load(Ordering::Relaxed), 1, "the healthy job still ran");
        // The pool survives a panicked job.
        pool.run(vec![Box::new(|| {
            done.fetch_add(1, Ordering::Relaxed);
        })]);
        assert_eq!(done.load(Ordering::Relaxed), 2);
    }

    /// One round of `n` jobs that each record the thread they ran on.
    fn thread_ids(pool: &WorkerPool, n: usize) -> Vec<ThreadId> {
        let mut ids = vec![std::thread::current().id(); n];
        let jobs: Vec<Job> = ids
            .iter_mut()
            .map(|id| Box::new(move || *id = std::thread::current().id()) as Job)
            .collect();
        pool.run(jobs);
        ids
    }

    #[test]
    fn job_zero_runs_on_the_caller_and_job_k_on_one_worker_every_round() {
        let pool = WorkerPool::new(3);
        let me = std::thread::current().id();
        let first = thread_ids(&pool, 3);
        assert_eq!(first[0], me, "job 0 runs on the calling thread");
        assert!(first[1] != me && first[2] != me && first[1] != first[2], "{first:?}");
        for round in 0..50 {
            // Rounds right after each other and after the workers parked.
            if round % 10 == 9 {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(thread_ids(&pool, 3), first, "round {round}");
            assert_eq!(thread_ids(&pool, 2)[..], first[..2], "round {round}, two jobs");
        }
    }

    #[test]
    fn worker_panic_is_reraised_after_job_zero_returned() {
        let pool = WorkerPool::new(2);
        let job0_done = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| {
                    std::thread::sleep(Duration::from_millis(20));
                    job0_done.fetch_add(1, Ordering::Relaxed);
                }),
                Box::new(|| panic!("worker job failed")),
            ]);
        }));
        let payload = result.expect_err("the worker's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker job failed"));
        assert_eq!(job0_done.load(Ordering::Relaxed), 1, "job 0 returned first");
        // Both lanes keep working.
        assert_eq!(thread_ids(&pool, 2).len(), 2);
    }

    #[test]
    fn many_tiny_rounds_lose_no_wakeup() {
        for n in [2, 3] {
            let pool = WorkerPool::new(n);
            let counter = AtomicUsize::new(0);
            let rounds = 100_000;
            for _ in 0..rounds {
                let jobs: Vec<Job> = (0..n)
                    .map(|_| {
                        let c = &counter;
                        Box::new(move || {
                            c.fetch_add(1, Ordering::Relaxed);
                        }) as Job
                    })
                    .collect();
                pool.run(jobs);
            }
            assert_eq!(counter.load(Ordering::Relaxed), n * rounds, "n = {n}");
        }
    }

    #[test]
    fn drop_joins_promptly_while_spinning_and_after_parking() {
        for idle in [Duration::ZERO, Duration::from_millis(50)] {
            let pool = WorkerPool::new(3);
            pool.run((0..3).map(|_| Box::new(|| ()) as Job).collect());
            std::thread::sleep(idle);
            let start = Instant::now();
            drop(pool);
            let took = start.elapsed();
            assert!(took < Duration::from_secs(1), "join after {idle:?} idle took {took:?}");
        }
    }

    #[test]
    fn one_lane_spawns_no_thread_and_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.n_workers(), 1);
        assert!(pool.workers.is_empty() && pool.shared.slots.is_empty());
        assert_eq!(thread_ids(&pool, 1), vec![std::thread::current().id()]);
    }

    #[test]
    fn two_callers_sharing_a_pool_each_get_every_job_run_once() {
        let pool = WorkerPool::new(3);
        let rounds = 2_000;
        let counts: [Vec<AtomicUsize>; 2] = [
            (0..3).map(|_| AtomicUsize::new(0)).collect(),
            (0..3).map(|_| AtomicUsize::new(0)).collect(),
        ];
        std::thread::scope(|s| {
            for mine in &counts {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..rounds {
                        let jobs: Vec<Job> = mine
                            .iter()
                            .map(|c| {
                                Box::new(move || {
                                    c.fetch_add(1, Ordering::Relaxed);
                                }) as Job
                            })
                            .collect();
                        pool.run(jobs);
                    }
                });
            }
        });
        for (caller, mine) in counts.iter().enumerate() {
            for (k, c) in mine.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), rounds, "caller {caller}, job {k}");
            }
        }
    }
}
