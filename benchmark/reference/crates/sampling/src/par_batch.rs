//! Sharded, multi-threaded batch production.
//!
//! [`ParBatchIter`] is the parallel counterpart of [`BatchIter`]: the
//! shuffled epoch pair list is partitioned round-robin across `n_shards`
//! worker threads, each sampling negatives with its own deterministic RNG
//! stream and pushing finished batches through a bounded channel. The
//! consumer (the trainer) therefore overlaps negative sampling with
//! gradient computation while seeing batches in exactly the serial order.
//!
//! Since the persistent-pool engine landed, `ParBatchIter` is a
//! convenience wrapper that owns a single-epoch [`SamplerPool`]: it
//! spawns its shard workers at construction and joins them on drop.
//! Long-running consumers (the multi-threaded `Trainer`) hold one
//! `SamplerPool` for their whole lifetime and call
//! [`SamplerPool::start_epoch`] per epoch instead, which produces the
//! *same* batch stream without any per-epoch thread spawning.
//!
//! # Determinism contract
//!
//! * The pair shuffle and batch boundaries depend only on `seed` — the
//!   `(user, positive)` stream is identical for **every** shard count.
//! * Negative draws depend on `(seed, n_shards)`: shard 0 continues the
//!   shuffle RNG stream (so `n_shards = 1` reproduces [`BatchIter`]
//!   bit-for-bit), shards `s > 0` run a SplitMix64-split stream derived
//!   from `seed ^ s`. Changing the shard count re-draws negatives, like
//!   changing the seed would; re-running with the same `(seed, n_shards)`
//!   replays the epoch exactly.

use crate::batch::{BatchIter, TrainBatch};
use crate::negative::NegativeSampler;
use crate::pool::{PooledEpochIter, SamplerPool};
use bsl_data::Dataset;
use std::sync::Arc;

/// Multi-threaded epoch iterator yielding the same `(user, positive)`
/// stream as [`BatchIter`] with negatives sampled on `n_shards` worker
/// threads. See the [module docs](self) for the determinism contract.
pub struct ParBatchIter {
    // Field order matters: the epoch iterator must drop before the pool
    // (dropping the batch receivers is what unblocks workers still
    // sending, letting the pool's drop join them).
    inner: PooledEpochIter,
    _pool: SamplerPool,
}

impl ParBatchIter {
    /// Starts a sharded epoch over `ds`'s training pairs.
    ///
    /// # Panics
    /// Panics if `batch_size == 0`, `m == 0` or `n_shards == 0`.
    pub fn new(
        ds: &Arc<Dataset>,
        sampler: Arc<dyn NegativeSampler>,
        batch_size: usize,
        m: usize,
        seed: u64,
        n_shards: usize,
    ) -> Self {
        let pool = SamplerPool::new(n_shards);
        let inner = pool.start_epoch(ds, &sampler, batch_size, m, seed);
        Self { inner, _pool: pool }
    }

    /// Total number of batches this epoch will yield.
    pub fn n_batches(&self) -> usize {
        self.inner.n_batches()
    }
}

impl Iterator for ParBatchIter {
    type Item = TrainBatch;

    fn next(&mut self) -> Option<TrainBatch> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Convenience: a boxed epoch iterator — serial for `n_shards == 1`
/// (zero thread overhead, bit-identical to [`BatchIter`]), sharded
/// otherwise.
pub fn epoch_batches<'a>(
    ds: &Arc<Dataset>,
    sampler: &'a Arc<dyn NegativeSampler>,
    batch_size: usize,
    m: usize,
    seed: u64,
    n_shards: usize,
) -> Box<dyn Iterator<Item = TrainBatch> + 'a> {
    if n_shards <= 1 {
        Box::new(BatchIter::new(ds, sampler.as_ref(), batch_size, m, seed))
    } else {
        Box::new(ParBatchIter::new(ds, Arc::clone(sampler), batch_size, m, seed, n_shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::negative::UniformSampler;
    use bsl_data::synth::{generate, SynthConfig};

    fn ds() -> Arc<Dataset> {
        Arc::new(generate(&SynthConfig::tiny(1)))
    }

    fn collect_par(ds: &Arc<Dataset>, bs: usize, m: usize, seed: u64, k: usize) -> Vec<TrainBatch> {
        let sampler: Arc<dyn NegativeSampler> = Arc::new(UniformSampler::new(ds.clone()));
        ParBatchIter::new(ds, sampler, bs, m, seed, k).collect()
    }

    #[test]
    fn one_shard_matches_serial_iterator_exactly() {
        let ds = ds();
        let sampler = UniformSampler::new(ds.clone());
        let serial: Vec<TrainBatch> = BatchIter::new(&ds, &sampler, 37, 4, 99).collect();
        let par = collect_par(&ds, 37, 4, 99, 1);
        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(par.iter()) {
            assert_eq!(a.users, b.users);
            assert_eq!(a.pos, b.pos);
            assert_eq!(a.negs, b.negs, "n_shards = 1 must replay the serial negative stream");
        }
    }

    #[test]
    fn sharded_epoch_covers_all_pairs_exactly_once() {
        let ds = ds();
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for batch in collect_par(&ds, 32, 3, 5, 3) {
            assert_eq!(batch.negs.len(), batch.len() * batch.m);
            for b in 0..batch.len() {
                seen.push((batch.users[b], batch.pos[b]));
            }
        }
        let mut want = ds.train_pairs();
        want.sort_unstable();
        seen.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn pair_stream_is_invariant_to_shard_count() {
        let ds = ds();
        let serial = collect_par(&ds, 32, 2, 7, 1);
        for k in [2usize, 3, 5] {
            let par = collect_par(&ds, 32, 2, 7, k);
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(par.iter()) {
                assert_eq!(a.users, b.users, "user order must not depend on n_shards");
                assert_eq!(a.pos, b.pos, "positive order must not depend on n_shards");
            }
        }
    }

    #[test]
    fn deterministic_per_seed_and_shard_count() {
        let ds = ds();
        let a = collect_par(&ds, 32, 2, 5, 4);
        let b = collect_par(&ds, 32, 2, 5, 4);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.users, y.users);
            assert_eq!(x.pos, y.pos);
            assert_eq!(x.negs, y.negs);
        }
    }

    #[test]
    fn shard_count_changes_negative_streams() {
        let ds = ds();
        let a = collect_par(&ds, 32, 4, 5, 1);
        let b = collect_par(&ds, 32, 4, 5, 4);
        let negs = |v: &[TrainBatch]| v.iter().flat_map(|x| x.negs.clone()).collect::<Vec<u32>>();
        assert_ne!(negs(&a), negs(&b), "shards > 0 run split RNG streams");
    }

    #[test]
    fn n_batches_matches_iteration_and_size_hint() {
        let ds = ds();
        let sampler: Arc<dyn NegativeSampler> = Arc::new(UniformSampler::new(ds.clone()));
        let iter = ParBatchIter::new(&ds, sampler, 50, 1, 3, 2);
        let n = iter.n_batches();
        assert_eq!(iter.size_hint(), (n, Some(n)));
        assert_eq!(n, iter.count());
    }

    #[test]
    fn early_drop_joins_workers_without_hanging() {
        let ds = ds();
        let sampler: Arc<dyn NegativeSampler> = Arc::new(UniformSampler::new(ds.clone()));
        let mut iter = ParBatchIter::new(&ds, sampler, 8, 2, 1, 4);
        let _ = iter.next();
        drop(iter); // workers blocked on full channels must exit cleanly
    }

    #[test]
    fn epoch_batches_dispatches_on_shard_count() {
        let ds = ds();
        let sampler: Arc<dyn NegativeSampler> = Arc::new(UniformSampler::new(ds.clone()));
        let serial: Vec<TrainBatch> = epoch_batches(&ds, &sampler, 16, 2, 11, 1).collect();
        let par: Vec<TrainBatch> = epoch_batches(&ds, &sampler, 16, 2, 11, 3).collect();
        assert_eq!(serial.len(), par.len());
        let direct: Vec<TrainBatch> = BatchIter::new(&ds, &*sampler, 16, 2, 11).collect();
        for (a, b) in serial.iter().zip(direct.iter()) {
            assert_eq!(a.negs, b.negs);
        }
    }
}
