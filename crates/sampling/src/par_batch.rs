//! Tests of the sharded epoch stream that
//! [`SamplerPool::start_epoch`](crate::SamplerPool::start_epoch) yields:
//! the pair and negative streams across shard counts (the one-shard replay
//! of [`BatchIter`](crate::BatchIter) and the pool's reuse are tested in
//! [`pool`](crate::pool)). The contract they check is in the
//! [`pool`](crate::pool) module docs.

mod tests {
    use crate::batch::TrainBatch;
    use crate::negative::{NegativeSampler, UniformSampler};
    use crate::pool::SamplerPool;
    use bsl_data::synth::{generate, SynthConfig};
    use bsl_data::Dataset;
    use std::sync::Arc;

    fn ds() -> Arc<Dataset> {
        Arc::new(generate(&SynthConfig::tiny(1)))
    }

    fn uniform(ds: &Arc<Dataset>) -> Arc<dyn NegativeSampler> {
        Arc::new(UniformSampler::new(ds.clone()))
    }

    fn collect(ds: &Arc<Dataset>, bs: usize, m: usize, seed: u64, k: usize) -> Vec<TrainBatch> {
        SamplerPool::new(k).start_epoch(ds, &uniform(ds), bs, m, seed).collect()
    }

    #[test]
    fn sharded_epoch_covers_all_pairs_exactly_once() {
        let ds = ds();
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for batch in collect(&ds, 32, 3, 5, 3) {
            assert_eq!(batch.negs.len(), batch.len() * batch.m);
            seen.extend(batch.users.iter().copied().zip(batch.pos.iter().copied()));
        }
        let mut want = ds.train_pairs();
        want.sort_unstable();
        seen.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn pair_stream_is_invariant_to_shard_count() {
        let ds = ds();
        let serial = collect(&ds, 32, 2, 7, 1);
        for k in [2usize, 3, 5] {
            let par = collect(&ds, 32, 2, 7, k);
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
        let a = collect(&ds, 32, 2, 5, 4);
        let b = collect(&ds, 32, 2, 5, 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.users, y.users);
            assert_eq!(x.pos, y.pos);
            assert_eq!(x.negs, y.negs);
        }
    }

    #[test]
    fn shard_count_changes_negative_streams() {
        let ds = ds();
        let negs = |v: Vec<TrainBatch>| v.into_iter().flat_map(|x| x.negs).collect::<Vec<u32>>();
        let (a, b) = (collect(&ds, 32, 4, 5, 1), collect(&ds, 32, 4, 5, 4));
        assert_ne!(negs(a), negs(b), "shards > 0 run split RNG streams");
    }

    #[test]
    fn n_batches_matches_iteration_and_size_hint() {
        let ds = ds();
        let pool = SamplerPool::new(2);
        let iter = pool.start_epoch(&ds, &uniform(&ds), 50, 1, 3);
        let n = iter.n_batches();
        assert_eq!(iter.size_hint(), (n, Some(n)));
        assert_eq!(n, iter.count());
    }
}
