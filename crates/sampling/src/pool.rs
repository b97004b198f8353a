//! Sharded, multi-threaded batch production on persistent workers.
//!
//! [`SamplerPool`] is the parallel counterpart of
//! [`BatchIter`](crate::BatchIter). It spawns its shard workers **once**;
//! every epoch is then one [`SamplerPool::start_epoch`] call that shuffles
//! the pair list on the caller's thread (identically to `BatchIter`) and
//! mails each worker an epoch-job descriptor for its shard. The shards
//! take the epoch's batches round-robin, sample their negatives and push
//! finished batches through bounded channels, so the consumer (the
//! trainer) overlaps negative sampling with gradient computation while
//! seeing batches in exactly the serial order. Workers park on their job
//! channel between epochs, so no epoch spawns a thread.
//!
//! # Determinism contract
//!
//! * The pair shuffle and batch boundaries depend only on `seed` — the
//!   `(user, positive)` stream is identical for **every** shard count.
//! * Negative draws depend on `(seed, n_shards)`: shard 0 continues the
//!   shuffle RNG stream (so `n_shards = 1` reproduces `BatchIter`
//!   bit-for-bit), shards `s > 0` run a SplitMix64-split stream derived
//!   from `seed ^ s`. Changing the shard count re-draws negatives, like
//!   changing the seed would; re-running with the same `(seed, n_shards)`
//!   replays the epoch exactly, on the same pool or a fresh one.

use crate::batch::TrainBatch;
use crate::negative::NegativeSampler;
use bsl_data::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Batches buffered per shard before its worker blocks; small enough to
/// bound memory at `n_shards · DEPTH · batch_size · (m + 2)` ids, large
/// enough to keep samplers ahead of the training step.
pub(crate) const CHANNEL_DEPTH: usize = 2;

/// Derives shard `s`'s RNG seed from the epoch seed with one SplitMix64
/// finalizer round, so nearby `(seed, shard)` pairs land on unrelated
/// streams.
pub(crate) fn shard_seed(seed: u64, shard: u64) -> u64 {
    let mut z = seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything one shard worker needs to produce its share of an epoch.
struct EpochJob {
    pairs: Arc<Vec<(u32, u32)>>,
    sampler: Arc<dyn NegativeSampler>,
    batch_size: usize,
    m: usize,
    shard: usize,
    n_shards: usize,
    rng: StdRng,
    tx: SyncSender<TrainBatch>,
}

/// A pool of persistent sampling shard workers, created once and fed one
/// epoch-job descriptor per worker per epoch.
pub struct SamplerPool {
    txs: Vec<Sender<EpochJob>>,
    handles: Vec<JoinHandle<()>>,
}

impl SamplerPool {
    /// Spawns `n_shards` parked shard workers.
    ///
    /// # Panics
    /// Panics if `n_shards == 0`.
    pub fn new(n_shards: usize) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        let mut txs = Vec::with_capacity(n_shards);
        let mut handles = Vec::with_capacity(n_shards);
        for s in 0..n_shards {
            let (tx, rx): (Sender<EpochJob>, Receiver<EpochJob>) = std::sync::mpsc::channel();
            txs.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("bsl-sampler-{s}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        run_shard(job);
                    }
                })
                .expect("spawning sampler worker");
            handles.push(handle);
        }
        Self { txs, handles }
    }

    /// Number of shard workers (the epoch's shard count).
    pub fn n_shards(&self) -> usize {
        self.txs.len()
    }

    /// Starts one sharded epoch over `ds`'s training pairs and returns the
    /// batch iterator, with `n_shards = self.n_shards()` in the
    /// [determinism contract](self).
    ///
    /// Epochs are sequential per pool: start the next epoch after the
    /// previous iterator is exhausted or dropped (each worker processes
    /// its queued jobs in order, abandoning an epoch whose consumer went
    /// away the next time it tries to send a batch).
    ///
    /// # Panics
    /// Panics if `batch_size == 0` or `m == 0`.
    pub fn start_epoch(
        &self,
        ds: &Arc<Dataset>,
        sampler: &Arc<dyn NegativeSampler>,
        batch_size: usize,
        m: usize,
        seed: u64,
    ) -> PooledEpochIter {
        assert!(batch_size > 0, "batch_size must be positive");
        assert!(m > 0, "need at least one negative per row");
        let n_shards = self.n_shards();

        // Identical shuffle to BatchIter: same RNG, same Fisher–Yates.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = ds.train_pairs();
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..=i));
        }
        let pairs = Arc::new(pairs);
        let n_batches = pairs.len().div_ceil(batch_size);

        let mut rxs = Vec::with_capacity(n_shards);
        for (s, job_tx) in self.txs.iter().enumerate() {
            let (tx, rx): (SyncSender<TrainBatch>, Receiver<TrainBatch>) =
                sync_channel(CHANNEL_DEPTH);
            rxs.push(rx);
            // Shard 0 continues the post-shuffle stream so a single shard
            // reproduces the serial iterator bit-for-bit; the rest split
            // fresh streams off the epoch seed.
            let shard_rng = if s == 0 {
                rng.clone()
            } else {
                StdRng::seed_from_u64(shard_seed(seed, s as u64))
            };
            job_tx
                .send(EpochJob {
                    pairs: Arc::clone(&pairs),
                    sampler: Arc::clone(sampler),
                    batch_size,
                    m,
                    shard: s,
                    n_shards,
                    rng: shard_rng,
                    tx,
                })
                .expect("sampler worker died");
        }
        PooledEpochIter { rxs, n_shards, n_batches, yielded: 0 }
    }
}

impl Drop for SamplerPool {
    fn drop(&mut self) {
        // Closing the job channels wakes parked workers; any worker still
        // blocked sending a batch exits when its epoch receiver drops
        // (which `PooledEpochIter`'s owner has done by the time the pool
        // goes away, since the iterator borrows nothing from the pool).
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Builds every `n_shards`-th batch starting at `shard`, in order, until
/// the epoch ends or the consumer goes away.
fn run_shard(job: EpochJob) {
    let EpochJob { pairs, sampler, batch_size, m, shard, n_shards, mut rng, tx } = job;
    let n_batches = pairs.len().div_ceil(batch_size);
    for bi in (shard..n_batches).step_by(n_shards) {
        let start = bi * batch_size;
        let end = (start + batch_size).min(pairs.len());
        let rows = &pairs[start..end];
        let mut users = Vec::with_capacity(rows.len());
        let mut pos = Vec::with_capacity(rows.len());
        let mut negs = Vec::with_capacity(rows.len() * m);
        for &(u, i) in rows {
            users.push(u);
            pos.push(i);
            sampler.sample_into(u, m, &mut rng, &mut negs);
        }
        if tx.send(TrainBatch { users, pos, negs, m }).is_err() {
            return; // consumer dropped the epoch iterator mid-epoch
        }
    }
}

/// One epoch's batch stream off a [`SamplerPool`], yielding batches in
/// exactly the serial epoch order (round-robin over the shard channels).
pub struct PooledEpochIter {
    rxs: Vec<Receiver<TrainBatch>>,
    n_shards: usize,
    n_batches: usize,
    yielded: usize,
}

impl PooledEpochIter {
    /// Total number of batches this epoch will yield.
    pub fn n_batches(&self) -> usize {
        self.n_batches
    }
}

impl Iterator for PooledEpochIter {
    type Item = TrainBatch;

    fn next(&mut self) -> Option<TrainBatch> {
        if self.yielded >= self.n_batches {
            return None;
        }
        let shard = self.yielded % self.n_shards;
        let batch = self.rxs[shard].recv().expect("batch shard worker died mid-epoch");
        self.yielded += 1;
        Some(batch)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n_batches - self.yielded;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchIter;
    use crate::negative::UniformSampler;
    use bsl_data::synth::{generate, SynthConfig};

    fn ds() -> Arc<Dataset> {
        Arc::new(generate(&SynthConfig::tiny(1)))
    }

    fn uniform(ds: &Arc<Dataset>) -> Arc<dyn NegativeSampler> {
        Arc::new(UniformSampler::new(ds.clone()))
    }

    #[test]
    fn pooled_epochs_match_serial_iterator_with_one_shard() {
        let ds = ds();
        let sampler = uniform(&ds);
        let pool = SamplerPool::new(1);
        for seed in [3u64, 9] {
            let serial: Vec<TrainBatch> =
                BatchIter::new(&ds, sampler.as_ref(), 37, 4, seed).collect();
            let pooled: Vec<TrainBatch> = pool.start_epoch(&ds, &sampler, 37, 4, seed).collect();
            assert_eq!(serial.len(), pooled.len());
            for (a, b) in serial.iter().zip(pooled.iter()) {
                assert_eq!(a.users, b.users);
                assert_eq!(a.pos, b.pos);
                assert_eq!(a.negs, b.negs, "one shard must replay the serial stream");
            }
        }
    }

    #[test]
    fn pool_reuse_across_epochs_replays_each_seed_exactly() {
        let ds = ds();
        let sampler = uniform(&ds);
        let pool = SamplerPool::new(3);
        let run =
            |seed: u64| pool.start_epoch(&ds, &sampler, 32, 2, seed).collect::<Vec<TrainBatch>>();
        // Same pool, many epochs: per-seed streams are stable no matter
        // what ran before (workers carry no state across jobs).
        let a5 = run(5);
        let _ = run(6);
        let b5 = run(5);
        assert_eq!(a5.len(), b5.len());
        for (x, y) in a5.iter().zip(b5.iter()) {
            assert_eq!(x.users, y.users);
            assert_eq!(x.pos, y.pos);
            assert_eq!(x.negs, y.negs);
        }
    }

    #[test]
    fn early_drop_mid_epoch_leaves_pool_usable() {
        let ds = ds();
        let sampler = uniform(&ds);
        let pool = SamplerPool::new(4);
        {
            let mut iter = pool.start_epoch(&ds, &sampler, 8, 2, 1);
            let _ = iter.next();
            // Dropped mid-epoch: workers blocked on full channels abandon.
        }
        // The next epoch must still produce the full batch count.
        let n = pool.start_epoch(&ds, &sampler, 8, 2, 2).count();
        let expected = ds.train_pairs().len().div_ceil(8);
        assert_eq!(n, expected);
    }

    #[test]
    fn size_hint_tracks_remaining_batches() {
        let ds = ds();
        let sampler = uniform(&ds);
        let pool = SamplerPool::new(2);
        let mut iter = pool.start_epoch(&ds, &sampler, 50, 1, 3);
        let n = iter.n_batches();
        assert_eq!(iter.size_hint(), (n, Some(n)));
        let _ = iter.next();
        assert_eq!(iter.size_hint(), (n - 1, Some(n - 1)));
    }
}
