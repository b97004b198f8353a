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
//!
//! [`HogwildView`] is the engine's support for the approximate
//! [`SyncMode::Hogwild`](crate::config::SyncMode) trainer: a racy,
//! lock-free view of an embedding matrix whose rows workers read and
//! write through relaxed per-element atomics (so concurrent updates may
//! lose increments — the Hogwild bargain — but never tear or invoke
//! undefined behaviour).

use bsl_linalg::Matrix;
use bsl_sampling::SamplerPool;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU32, Ordering};
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

/// A lock-free shared view of an embedding matrix for Hogwild updates.
///
/// Every element is accessed as a relaxed [`AtomicU32`] holding the f32's
/// bits, so concurrent row updates from multiple workers are race-*ful*
/// (read-modify-write sequences can lose each other's increments — the
/// approximation Hogwild accepts by design) but individual elements never
/// tear and the program stays well-defined. The exclusive `&mut Matrix`
/// taken at construction guarantees no plain `f32` access can alias the
/// view while it lives.
pub struct HogwildView<'a> {
    cells: &'a [AtomicU32],
    cols: usize,
}

impl<'a> HogwildView<'a> {
    /// Wraps `m` in an atomic view for the view's lifetime.
    #[allow(unsafe_code)] // f32 → AtomicU32 reinterpretation; see SAFETY
    pub fn new(m: &'a mut Matrix) -> Self {
        let cols = m.cols();
        let data = m.as_mut_slice();
        // SAFETY: `AtomicU32` has the same size and alignment as `f32`
        // (4/4), every bit pattern is valid for both, and the `&mut`
        // borrow makes this the only live reference to the buffer for
        // `'a`, so reinterpreting the element type is sound.
        let cells = unsafe {
            std::slice::from_raw_parts(data.as_mut_ptr().cast::<AtomicU32>(), data.len())
        };
        Self { cells, cols }
    }

    /// Row width of the underlying matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Copies row `r` into `out` with relaxed loads.
    ///
    /// # Panics
    /// Panics if `out.len() != self.cols()` or `r` is out of bounds.
    // ORDERING: Relaxed by design — hogwild readers tolerate torn row
    // views (each u32 cell is individually atomic, no cross-cell order is
    // claimed); the stale/mixed values this admits are exactly the
    // asynchrony the Hogwild! convergence argument prices in.
    pub fn load_row(&self, r: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "row buffer width mismatch");
        let row = &self.cells[r * self.cols..(r + 1) * self.cols];
        for (o, cell) in out.iter_mut().zip(row) {
            *o = f32::from_bits(cell.load(Ordering::Relaxed));
        }
    }

    /// Stores `vals` into row `r` with relaxed stores.
    ///
    /// # Panics
    /// Panics if `vals.len() != self.cols()` or `r` is out of bounds.
    // ORDERING: Relaxed by design — see `load_row`; publication of the
    // final values happens at the pool join (a synchronizing edge), not
    // through these stores.
    pub fn store_row(&self, r: usize, vals: &[f32]) {
        assert_eq!(vals.len(), self.cols, "row buffer width mismatch");
        let row = &self.cells[r * self.cols..(r + 1) * self.cols];
        for (cell, &v) in row.iter().zip(vals) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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

    #[test]
    fn hogwild_view_round_trips_rows() {
        let mut m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        {
            let view = HogwildView::new(&mut m);
            let mut buf = vec![0.0f32; 4];
            view.load_row(1, &mut buf);
            assert_eq!(buf, vec![4.0, 5.0, 6.0, 7.0]);
            for v in buf.iter_mut() {
                *v *= 2.0;
            }
            view.store_row(1, &buf);
        }
        assert_eq!(m.row(1), &[8.0, 10.0, 12.0, 14.0]);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0, 3.0], "other rows untouched");
    }

    #[test]
    fn hogwild_view_is_shareable_across_pool_jobs() {
        let pool = WorkerPool::new(4);
        let mut m = Matrix::zeros(4, 8);
        let view = HogwildView::new(&mut m);
        let mut jobs: Vec<Job> = Vec::new();
        for k in 0..4usize {
            let view = &view;
            jobs.push(Box::new(move || {
                let mut buf = vec![0.0f32; 8];
                view.load_row(k, &mut buf);
                for v in buf.iter_mut() {
                    *v += (k + 1) as f32;
                }
                view.store_row(k, &buf);
            }));
        }
        pool.run(jobs);
        for r in 0..4 {
            assert!(m.row(r).iter().all(|&v| v == (r + 1) as f32));
        }
    }
}
