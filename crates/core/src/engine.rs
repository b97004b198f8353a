//! Persistent-pool execution engine for the multi-threaded trainer.
//!
//! PR 2's sharded trainer spawned 2–3 rounds of scoped threads per batch
//! (one per pass), so every step paid thread-creation latency. This module
//! replaces that with a [`WorkerPool`] of **long-lived workers** created
//! once per [`Trainer`](crate::Trainer) and fed per-batch work items over
//! `std::sync::mpsc` channels: a step pass is one [`WorkerPool::run`] call
//! that enqueues one job per shard and blocks until all of them finish.
//! The jobs may borrow the caller's stack (batch, scratch, gradient
//! shards) exactly like `std::thread::scope` closures could — the pool
//! guarantees the borrow discipline by never returning from `run` while a
//! job is still in flight.
//!
//! [`Engine`] bundles the compute pool with a persistent
//! [`SamplerPool`], so neither the per-batch
//! step passes nor the per-epoch negative sampling spawn any threads after
//! trainer start-up.

use bsl_sampling::SamplerPool;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A unit of work submitted to [`WorkerPool::run`]. Jobs may borrow the
/// caller's stack (`'scope`); the pool blocks until every job of the call
/// has finished, so the borrows never outlive their referents.
pub type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// The lifetime-erased job representation that travels through the
/// worker channels, paired with the completion channel of its `run` call.
struct Task {
    job: Box<dyn FnOnce() + Send + 'static>,
    done: Sender<std::thread::Result<()>>,
}

/// A pool of long-lived worker threads executing borrowed jobs.
///
/// Workers are spawned once and parked on their channel between batches;
/// [`WorkerPool::run`] hands worker `k` the `k`-th job of the call, so a
/// caller that always submits jobs in shard order gets a stable
/// job-to-thread assignment (useful for cache locality of per-shard
/// scratch). Dropping the pool shuts the workers down and joins them.
pub struct WorkerPool {
    txs: Vec<Sender<Task>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `n_workers` parked worker threads.
    ///
    /// # Panics
    /// Panics if `n_workers == 0`.
    pub fn new(n_workers: usize) -> Self {
        assert!(n_workers > 0, "need at least one worker");
        let mut txs = Vec::with_capacity(n_workers);
        let mut handles = Vec::with_capacity(n_workers);
        for k in 0..n_workers {
            let (tx, rx): (Sender<Task>, Receiver<Task>) = channel();
            txs.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("bsl-engine-{k}"))
                .spawn(move || worker_loop(&rx))
                .expect("spawning engine worker");
            handles.push(handle);
        }
        Self { txs, handles }
    }

    /// Number of workers in the pool.
    pub fn n_workers(&self) -> usize {
        self.txs.len()
    }

    /// Executes `jobs` (job `k` on worker `k`), blocking until every job
    /// has returned. If any job panicked, the first payload is re-raised
    /// on the caller *after* all jobs finished, so borrowed data is never
    /// observable by a still-running job past this call.
    ///
    /// # Panics
    /// Panics if more jobs than workers are submitted, or (propagated) if
    /// a job panicked. A worker *thread* dying with jobs in flight aborts
    /// the process instead of panicking — see the safety notes below.
    #[allow(unsafe_code)] // lifetime erasure for scoped jobs; see SAFETY
    pub fn run<'scope>(&self, jobs: Vec<Job<'scope>>) {
        assert!(jobs.len() <= self.txs.len(), "more jobs than pool workers");
        let (done_tx, done_rx) = channel();
        let n = jobs.len();
        for (tx, job) in self.txs.iter().zip(jobs) {
            // SAFETY: the loop below receives exactly one completion per
            // submitted job before `run` returns, so no job outlives
            // `'scope`. The failure paths uphold this too: a job panic is
            // caught worker-side and still produces a completion, and a
            // *worker-thread* death (send/recv failing below) aborts the
            // process rather than unwinding — unwinding the caller's
            // frame here could free buffers that jobs already dispatched
            // to *other, still-healthy* workers are borrowing.
            let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
            if tx.send(Task { job, done: done_tx.clone() }).is_err() {
                eprintln!("bsl-core engine: worker died with scoped jobs in flight; aborting");
                std::process::abort();
            }
        }
        drop(done_tx);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for _ in 0..n {
            match done_rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(payload)) => panic = Some(payload),
                Err(_) => {
                    eprintln!("bsl-core engine: worker died with scoped jobs in flight; aborting");
                    std::process::abort();
                }
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels wakes the workers out of `recv`; then reap.
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One worker: execute jobs until the pool drops the sending side.
/// Panics are caught and forwarded so a failing job cannot wedge the
/// blocked `run` caller (which re-raises them).
fn worker_loop(rx: &Receiver<Task>) {
    while let Ok(Task { job, done }) = rx.recv() {
        let result = std::panic::catch_unwind(AssertUnwindSafe(job));
        let _ = done.send(result);
    }
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
    /// An engine with `n_threads` compute workers and `n_threads`
    /// sampling shard workers.
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
}
