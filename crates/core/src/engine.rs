//! The trainer's persistent execution engine.
//!
//! [`Engine`] bundles a compute [`WorkerPool`] with a persistent
//! [`SamplerPool`], so neither the per-batch step passes nor the
//! per-epoch negative sampling spawn any threads after trainer start-up.
//! The pool itself lives in [`bsl_linalg::pool`], the leaf crate every
//! layer depends on, and is re-exported here: the backbone's propagation
//! and dense Adam and the trainer's evaluation run their rounds on the
//! same lanes as the step passes.

use bsl_sampling::SamplerPool;

pub use bsl_linalg::pool::{Job, WorkerPool};

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
