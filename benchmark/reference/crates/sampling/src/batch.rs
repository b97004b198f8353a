//! Mini-batch iteration over training interactions.

use crate::negative::NegativeSampler;
use bsl_data::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One training batch: `users[b]` interacted with `pos[b]`; its `m`
/// negatives are `negs[b*m .. (b+1)*m]`.
#[derive(Clone, Debug)]
pub struct TrainBatch {
    /// User ids, length `B`.
    pub users: Vec<u32>,
    /// Positive item ids, length `B`.
    pub pos: Vec<u32>,
    /// Flattened negatives, length `B·m`.
    pub negs: Vec<u32>,
    /// Negatives per row.
    pub m: usize,
}

impl TrainBatch {
    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The negatives of row `b`.
    #[inline]
    pub fn negs_of(&self, b: usize) -> &[u32] {
        &self.negs[b * self.m..(b + 1) * self.m]
    }
}

/// Iterates one epoch of shuffled `(user, positive)` pairs, attaching `m`
/// freshly-sampled negatives per row.
pub struct BatchIter<'a> {
    pairs: Vec<(u32, u32)>,
    cursor: usize,
    batch_size: usize,
    m: usize,
    sampler: &'a dyn NegativeSampler,
    rng: StdRng,
}

impl<'a> BatchIter<'a> {
    /// Starts an epoch. The pair order and all negative draws are
    /// deterministic in `seed`.
    ///
    /// # Panics
    /// Panics if `batch_size == 0` or `m == 0`.
    pub fn new(
        ds: &Arc<Dataset>,
        sampler: &'a dyn NegativeSampler,
        batch_size: usize,
        m: usize,
        seed: u64,
    ) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        assert!(m > 0, "need at least one negative per row");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = ds.train_pairs();
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..=i));
        }
        Self { pairs, cursor: 0, batch_size, m, sampler, rng }
    }

    /// Total number of batches this epoch will yield.
    pub fn n_batches(&self) -> usize {
        self.pairs.len().div_ceil(self.batch_size)
    }
}

impl Iterator for BatchIter<'_> {
    type Item = TrainBatch;

    fn next(&mut self) -> Option<TrainBatch> {
        if self.cursor >= self.pairs.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.pairs.len());
        let rows = &self.pairs[self.cursor..end];
        self.cursor = end;
        let mut users = Vec::with_capacity(rows.len());
        let mut pos = Vec::with_capacity(rows.len());
        let mut negs = Vec::with_capacity(rows.len() * self.m);
        for &(u, i) in rows {
            users.push(u);
            pos.push(i);
            self.sampler.sample_into(u, self.m, &mut self.rng, &mut negs);
        }
        Some(TrainBatch { users, pos, negs, m: self.m })
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

    #[test]
    fn epoch_covers_all_pairs_exactly_once() {
        let ds = ds();
        let sampler = UniformSampler::new(ds.clone());
        let iter = BatchIter::new(&ds, &sampler, 37, 4, 99);
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for batch in iter {
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
    fn batch_sizes_respected() {
        let ds = ds();
        let sampler = UniformSampler::new(ds.clone());
        let iter = BatchIter::new(&ds, &sampler, 64, 3, 1);
        let total = ds.train.nnz();
        let sizes: Vec<usize> = iter.map(|b| b.len()).collect();
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == 64));
        assert_eq!(sizes.iter().sum::<usize>(), total);
    }

    #[test]
    fn deterministic_in_seed() {
        let ds = ds();
        let sampler = UniformSampler::new(ds.clone());
        let a: Vec<TrainBatch> = BatchIter::new(&ds, &sampler, 32, 2, 5).collect();
        let b: Vec<TrainBatch> = BatchIter::new(&ds, &sampler, 32, 2, 5).collect();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.users, y.users);
            assert_eq!(x.pos, y.pos);
            assert_eq!(x.negs, y.negs);
        }
    }

    #[test]
    fn different_seeds_shuffle_differently() {
        let ds = ds();
        let sampler = UniformSampler::new(ds.clone());
        let a = BatchIter::new(&ds, &sampler, 32, 2, 5).next().expect("non-empty");
        let b = BatchIter::new(&ds, &sampler, 32, 2, 6).next().expect("non-empty");
        assert_ne!(a.users, b.users);
    }

    #[test]
    fn negs_of_slices_correctly() {
        let ds = ds();
        let sampler = UniformSampler::new(ds.clone());
        let batch = BatchIter::new(&ds, &sampler, 8, 5, 2).next().expect("non-empty");
        assert_eq!(batch.negs_of(0).len(), 5);
        assert_eq!(batch.negs_of(3), &batch.negs[15..20]);
    }

    #[test]
    fn n_batches_matches_iteration() {
        let ds = ds();
        let sampler = UniformSampler::new(ds.clone());
        let iter = BatchIter::new(&ds, &sampler, 50, 1, 3);
        let n = iter.n_batches();
        assert_eq!(n, iter.count());
    }
}
