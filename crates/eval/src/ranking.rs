//! Full-catalogue ranking evaluation through the frozen artifact path.
//!
//! Evaluation is "serving plus ground truth": each user gets the list that
//! [`top_k_into`], the masked exact top-k `bsl-serve` answers requests
//! with, gives it with the training items masked, and the top-k is
//! compared against the test split. One private driver, `rank_blocks`,
//! does that for [`evaluate_artifact`] and for both group decompositions
//! in [`crate::groups`]. Raw embedding matrices are accepted via
//! [`evaluate`], which freezes them into an ad-hoc artifact first, so
//! there is exactly one scoring implementation in the workspace.
//!
//! Evaluation runs `top_k_into`'s plain scan, four users at a time: one
//! pass over the item table scores up to four users
//! ([`ModelArtifact::score_catalogue_queries_into`], each score the plain
//! scan's bits), and each user's run is selected by the plain scan's own
//! [`select_catalogue_into`]. So the lists are the ones `top_k_into` and
//! serving give, and a user costs a quarter of a pass over the items.
//! Serving's sketch is not used here. Measured on trained models (2-vCPU
//! Xeon), it made per-user evaluation 1.5× as slow at 800 items (LightGCN),
//! where 35–40 % of users fall back to the plain scan after paying for the
//! sketch scan, and saved about a tenth at 2,500 items (MF), where nearly
//! every user is pruned.
//!
//! Users are ranked in fixed blocks of `BLOCK_USERS`; every block sums
//! its users' metrics into its own partial, and the partials are merged in
//! block order. The reported means are therefore the same bits whatever
//! number of threads shared the blocks.
//!
//! [`top_k_into`]: bsl_models::top_k_into

use crate::metrics::{user_metrics, MetricSet};
use bsl_data::Dataset;
use bsl_linalg::pool::{host_workers, Job, WorkerPool};
use bsl_linalg::topk::TopK;
use bsl_models::{select_catalogue_into, EvalScore, ModelArtifact};

/// Evaluation report: one [`MetricSet`] per requested cutoff.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// The cutoffs, in the order requested.
    pub ks: Vec<usize>,
    /// Mean metrics at each cutoff.
    pub at: Vec<MetricSet>,
}

impl EvalReport {
    /// The metrics at cutoff `k`.
    ///
    /// # Panics
    /// Panics if `k` was not evaluated.
    pub fn at_k(&self, k: usize) -> &MetricSet {
        let idx = self
            .ks
            .iter()
            .position(|&x| x == k)
            .unwrap_or_else(|| panic!("cutoff {k} was not evaluated (have {:?})", self.ks));
        &self.at[idx]
    }

    /// Shorthand for `Recall@k`.
    pub fn recall(&self, k: usize) -> f64 {
        self.at_k(k).recall
    }

    /// Shorthand for `NDCG@k`.
    pub fn ndcg(&self, k: usize) -> f64 {
        self.at_k(k).ndcg
    }
}

impl std::fmt::Display for EvalReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (k, m) in self.ks.iter().zip(self.at.iter()) {
            writeln!(
                f,
                "@{k:<3} recall {:.4}  ndcg {:.4}  precision {:.4}  hit {:.4}  map {:.4}",
                m.recall, m.ndcg, m.precision, m.hit_rate, m.map
            )?;
        }
        Ok(())
    }
}

/// Users per block of [`rank_blocks`]. Each block sums its users' metrics
/// into one partial, so the reported bits depend on it (it fixes the
/// summation order): it is a constant, not a tunable. Users are scored
/// [`GROUP_USERS`] at a time, so it sizes no buffer.
const BLOCK_USERS: usize = 16;

/// Users scored in one pass over the item table: the query count of
/// [`bsl_linalg::simd::scores_block_multi`]'s register tile.
const GROUP_USERS: usize = 4;

/// One lane's ranking buffers.
#[derive(Default)]
struct RankScratch {
    /// A group's catalogue scores, one run of `n_items` per user.
    scores: Vec<f32>,
    topk: TopK,
    ranked: Vec<u32>,
}

/// Ranks each user of `block` with the training items masked and hands
/// `(user, top-k)` to `per_user`, scoring [`GROUP_USERS`] users per pass
/// over the item table.
fn rank_block<P>(
    ds: &Dataset,
    artifact: &ModelArtifact,
    k: usize,
    block: &[u32],
    scratch: &mut RankScratch,
    partial: &mut P,
    per_user: &impl Fn(&mut P, u32, &[u32]),
) {
    let n = artifact.n_items();
    for group in block.chunks(GROUP_USERS) {
        let mut qs: [&[f32]; GROUP_USERS] = [&[]; GROUP_USERS];
        for (q, &u) in qs.iter_mut().zip(group) {
            *q = artifact.users().row(u as usize);
        }
        artifact.score_catalogue_queries_into(&qs[..group.len()], &mut scratch.scores);
        for (g, &u) in group.iter().enumerate() {
            let (scores, train) = (&scratch.scores[g * n..(g + 1) * n], ds.train_items(u as usize));
            select_catalogue_into(scores, k, train, &mut scratch.topk, &mut scratch.ranked);
            per_user(partial, u, &scratch.ranked);
        }
    }
}

/// The ranking driver: every user of `users` gets its masked top-`k`,
/// folded by `per_user` into the partial of the user's block, which starts
/// as a copy of `empty`. Returns the partials in block order. The blocks
/// are shared out as one `pool` round, one contiguous run of blocks per
/// lane, and since a partial only ever sees its own block's users in
/// order, the result does not depend on the lane count.
pub(crate) fn rank_blocks<P: Clone + Send>(
    ds: &Dataset,
    artifact: &ModelArtifact,
    users: &[u32],
    k: usize,
    pool: &WorkerPool,
    empty: P,
    per_user: impl Fn(&mut P, u32, &[u32]) + Sync,
) -> Vec<P> {
    let mut partials = vec![empty; users.len().div_ceil(BLOCK_USERS)];
    let run = partials.len().div_ceil(pool.n_workers()).max(1);
    let per_user = &per_user;
    let jobs: Vec<Job> = partials
        .chunks_mut(run)
        .zip(users.chunks(run * BLOCK_USERS))
        .map(|(parts, users)| {
            Box::new(move || {
                let mut scratch = RankScratch::default();
                for (part, block) in parts.iter_mut().zip(users.chunks(BLOCK_USERS)) {
                    rank_block(ds, artifact, k, block, &mut scratch, part, per_user);
                }
            }) as Job
        })
        .collect();
    pool.run(jobs);
    partials
}

/// Evaluates a frozen [`ModelArtifact`] on `ds`'s test split at each cutoff
/// in `ks`, averaging over users with at least one test interaction.
/// Training items are masked out of the ranking (the standard CF
/// protocol). The artifact's tables are served as-is — no per-call
/// normalization or augmentation is repaid here.
///
/// Blocks of users are shared between the lanes of a call-local
/// [`WorkerPool`] (the calling thread and up to seven workers, one per
/// further available core), each lane with its own score and top-k
/// scratch; the report does not depend on how many.
/// [`evaluate_artifact_on`] runs on a pool the caller keeps.
///
/// # Panics
/// Panics if `ks` is empty or holds a zero, or if the artifact's shape
/// disagrees with `ds`. All of it is checked on the calling thread before
/// any ranking starts.
pub fn evaluate_artifact(ds: &Dataset, artifact: &ModelArtifact, ks: &[usize]) -> EvalReport {
    evaluate_artifact_on(ds, artifact, ks, &WorkerPool::new(host_workers()))
}

/// [`evaluate_artifact`] on the lanes of `pool` (the trainer passes the
/// pool its steps run on, so an evaluation spawns no thread): the same
/// report, bit for bit, at any lane count.
///
/// # Panics
/// As [`evaluate_artifact`].
pub fn evaluate_artifact_on(
    ds: &Dataset,
    artifact: &ModelArtifact,
    ks: &[usize],
    pool: &WorkerPool,
) -> EvalReport {
    assert!(!ks.is_empty(), "need at least one cutoff");
    assert!(ks.iter().all(|&k| k > 0), "cutoff must be positive");
    assert_eq!(artifact.n_users(), ds.n_users, "artifact user rows != n_users");
    assert_eq!(artifact.n_items(), ds.n_items, "artifact item rows != n_items");
    let max_k = *ks.iter().max().expect("non-empty ks");

    let partials = rank_blocks(
        ds,
        artifact,
        &ds.evaluable_users(),
        max_k,
        pool,
        vec![MetricSet::default(); ks.len()],
        |acc, u, ranked| {
            let relevant = ds.test_items(u as usize);
            for (slot, &k) in acc.iter_mut().zip(ks.iter()) {
                slot.accumulate(&user_metrics(ranked, relevant, k));
            }
        },
    );

    let mut at = vec![MetricSet::default(); ks.len()];
    for part in &partials {
        for (slot, p) in at.iter_mut().zip(part.iter()) {
            slot.merge(p);
        }
    }
    for slot in &mut at {
        slot.finalize();
    }
    EvalReport { ks: ks.to_vec(), at }
}

/// Evaluates raw embedding matrices under `score` by freezing them into an
/// ad-hoc artifact (normalizing / augmenting once) and ranking through
/// [`evaluate_artifact`]. Use this for embeddings that never pass through
/// a [`Backbone`](bsl_models::Backbone), e.g. the ENMF/UltraGCN baselines;
/// trained models should export an artifact instead and evaluate that.
///
/// # Panics
/// Panics if `ks` is empty or holds a zero, or if embedding shapes
/// disagree with the dataset.
pub fn evaluate(
    ds: &Dataset,
    user_emb: &bsl_linalg::Matrix,
    item_emb: &bsl_linalg::Matrix,
    score: EvalScore,
    ks: &[usize],
) -> EvalReport {
    assert_eq!(user_emb.rows(), ds.n_users, "user embedding rows != n_users");
    assert_eq!(item_emb.rows(), ds.n_items, "item embedding rows != n_items");
    let artifact = ModelArtifact::from_embeddings("adhoc", user_emb, item_emb, score);
    evaluate_artifact(ds, &artifact, ks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_data::synth::{generate, SynthConfig};
    use bsl_linalg::Matrix;
    use bsl_models::{top_k_into, Candidates, TopKScratch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A dataset where item embeddings are one-hot indicators of the test
    /// items: the oracle ranking must achieve perfect recall.
    #[test]
    fn oracle_embeddings_score_perfectly() {
        let ds = Dataset::from_pairs("oracle", 2, 4, &[(0, 0), (1, 1)], &[(0, 2), (1, 3)]);
        // dim = n_items; user u's vector = indicator of its test item.
        let mut users = Matrix::zeros(2, 4);
        users.set(0, 2, 1.0);
        users.set(1, 3, 1.0);
        let items = Matrix::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        let rep = evaluate(&ds, &users, &items, EvalScore::Dot, &[1, 2]);
        assert!((rep.recall(1) - 1.0).abs() < 1e-12);
        assert!((rep.ndcg(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn train_items_are_masked() {
        // User 0 trains on item 0 whose score would dominate.
        let ds = Dataset::from_pairs("mask", 1, 3, &[(0, 0)], &[(0, 1)]);
        let users = Matrix::from_vec(1, 1, vec![1.0]);
        // Item scores: item0 = 10, item1 = 2, item2 = 1.
        let items = Matrix::from_vec(3, 1, vec![10.0, 2.0, 1.0]);
        let rep = evaluate(&ds, &users, &items, EvalScore::Dot, &[1]);
        assert!((rep.recall(1) - 1.0).abs() < 1e-12, "train item must be excluded");
    }

    #[test]
    fn cosine_ignores_magnitude() {
        let ds = Dataset::from_pairs("cos", 1, 2, &[], &[(0, 0)]);
        let users = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        // Item 0 aligned but tiny; item 1 misaligned but huge.
        let items = Matrix::from_vec(2, 2, vec![0.01, 0.0, 5.0, 8.0]);
        let rep = evaluate(&ds, &users, &items, EvalScore::Cosine, &[1]);
        assert!((rep.recall(1) - 1.0).abs() < 1e-12);
        let rep_dot = evaluate(&ds, &users, &items, EvalScore::Dot, &[1]);
        assert_eq!(rep_dot.recall(1), 0.0);
    }

    #[test]
    fn negsqdist_ranks_by_proximity() {
        // Item 1 is closest to the user; item 0 has the larger dot product.
        let ds = Dataset::from_pairs("dist", 1, 2, &[], &[(0, 1)]);
        let users = Matrix::from_vec(1, 1, vec![1.0]);
        let items = Matrix::from_vec(2, 1, vec![5.0, 1.2]);
        let rep = evaluate(&ds, &users, &items, EvalScore::NegSqDist, &[1]);
        assert!((rep.recall(1) - 1.0).abs() < 1e-12);
        let rep_dot = evaluate(&ds, &users, &items, EvalScore::Dot, &[1]);
        assert_eq!(rep_dot.recall(1), 0.0);
    }

    #[test]
    fn random_embeddings_score_near_chance() {
        let ds = generate(&SynthConfig::tiny(3));
        let mut rng = StdRng::seed_from_u64(0);
        let users = Matrix::gaussian(ds.n_users, 8, 1.0, &mut rng);
        let items = Matrix::gaussian(ds.n_items, 8, 1.0, &mut rng);
        let rep = evaluate(&ds, &users, &items, EvalScore::Dot, &[10]);
        // Chance recall@10 ≈ 10/n_items ≈ 0.2 for the tiny config; random
        // embeddings must stay in the same ballpark, far below 1.
        assert!(rep.recall(10) < 0.5, "recall {}", rep.recall(10));
        assert!(rep.at_k(10).n_users > 0);
    }

    #[test]
    fn parallel_eval_is_deterministic() {
        let ds = generate(&SynthConfig::tiny(5));
        let mut rng = StdRng::seed_from_u64(1);
        let users = Matrix::gaussian(ds.n_users, 8, 1.0, &mut rng);
        let items = Matrix::gaussian(ds.n_items, 8, 1.0, &mut rng);
        let a = evaluate(&ds, &users, &items, EvalScore::Cosine, &[5, 20]);
        let b = evaluate(&ds, &users, &items, EvalScore::Cosine, &[5, 20]);
        assert_eq!(a.at_k(20), b.at_k(20));
        assert_eq!(a.at_k(5), b.at_k(5));
    }

    /// Enough users for ten blocks, so 1, 2, 3 and 8 workers split them
    /// into runs of 10, 5, 4 and 2, and enough items for the sketch to
    /// answer at k = 20.
    fn ten_block_case() -> (Dataset, ModelArtifact) {
        let ds = generate(&SynthConfig { n_users: 150, n_items: 1000, ..SynthConfig::tiny(5) });
        let mut rng = StdRng::seed_from_u64(1);
        let users = Matrix::gaussian(ds.n_users, 8, 1.0, &mut rng);
        let items = Matrix::gaussian(ds.n_items, 8, 1.0, &mut rng);
        (ds, ModelArtifact::from_embeddings("MF", &users, &items, EvalScore::Cosine))
    }

    #[test]
    fn report_is_bit_equal_for_any_worker_count() {
        let (ds, art) = ten_block_case();
        assert!(ds.evaluable_users().len() > 9 * BLOCK_USERS);
        let one = evaluate_artifact_on(&ds, &art, &[5, 20], &WorkerPool::new(1));
        for workers in [2, 3, 8] {
            let many = evaluate_artifact_on(&ds, &art, &[5, 20], &WorkerPool::new(workers));
            for (a, b) in one.at.iter().zip(&many.at) {
                assert_eq!(a.ndcg.to_bits(), b.ndcg.to_bits(), "{workers} workers");
                assert_eq!(a, b, "{workers} workers");
            }
        }
        assert_eq!(one.at, evaluate_artifact(&ds, &art, &[5, 20]).at);
    }

    #[test]
    fn driver_ranks_every_user_like_the_per_user_loop() {
        let (ds, art) = ten_block_case();
        let users = ds.evaluable_users();
        let pool = WorkerPool::new(3);
        let lists = rank_blocks(&ds, &art, &users, 20, &pool, Vec::new(), |acc, u, ranked| {
            acc.push((u, ranked.to_vec()));
        });
        let lists: Vec<(u32, Vec<u32>)> = lists.into_iter().flatten().collect();
        assert_eq!(lists.iter().map(|l| l.0).collect::<Vec<_>>(), users);
        // The same lists from the plain per-user loop, and from the shared
        // ranking routine through serving's sketch of the item table.
        let sketch = bsl_models::Sketch::new(art.items()).expect("a finite table");
        let (mut scores, mut scratch, mut pruned) = (Vec::new(), TopKScratch::default(), 0);
        for (u, ranked) in lists {
            art.score_catalogue_into(u, &mut scores);
            let train = ds.train_items(u as usize);
            let want = bsl_linalg::topk::top_k_masked(&scores, 20, |i| {
                train.binary_search(&(i as u32)).is_ok()
            });
            assert_eq!(ranked, want, "user {u}");
            let q = art.users().row(u as usize);
            let among = Candidates::Catalogue(Some(&sketch));
            let served = top_k_into(&art, q, among, 20, train, &mut scratch);
            assert_eq!(served.iter().map(|&(i, _)| i).collect::<Vec<_>>(), want, "user {u}");
            pruned += usize::from(scratch.pruned());
        }
        assert!(pruned > 0, "the sketch answered no user");
    }

    /// Four users per pass over the items changes no list and no bit of the
    /// report: at d + 1 = 65 (CML's augmentation) and d = 64, for every
    /// similarity, with a last block of 16 and a last group of 4 both
    /// short, `evaluate_artifact` equals ranking each user alone through
    /// `top_k_into` and summing the metrics in the same blocks.
    #[test]
    fn blocked_scoring_reports_the_per_user_loop_bit_for_bit() {
        let ds = generate(&SynthConfig { n_users: 91, n_items: 700, ..SynthConfig::tiny(5) });
        let users = ds.evaluable_users();
        let last_block = users.len() % BLOCK_USERS;
        assert!(!last_block.is_multiple_of(GROUP_USERS), "{} users", users.len());
        let mut rng = StdRng::seed_from_u64(2);
        let user_emb = Matrix::gaussian(ds.n_users, 64, 1.0, &mut rng);
        let item_emb = Matrix::gaussian(ds.n_items, 64, 1.0, &mut rng);
        let ks = [5, 20];
        for score in [EvalScore::Dot, EvalScore::Cosine, EvalScore::NegSqDist] {
            let art = ModelArtifact::from_embeddings("MF", &user_emb, &item_emb, score);
            let mut scratch = TopKScratch::default();
            let mut per_block = Vec::new();
            for block in users.chunks(BLOCK_USERS) {
                let mut part = vec![MetricSet::default(); ks.len()];
                for &u in block {
                    let (q, train) = (art.users().row(u as usize), ds.train_items(u as usize));
                    let among = Candidates::Catalogue(None);
                    let top = top_k_into(&art, q, among, 20, train, &mut scratch);
                    let ranked: Vec<u32> = top.iter().map(|&(i, _)| i).collect();
                    for (slot, &k) in part.iter_mut().zip(&ks) {
                        slot.accumulate(&user_metrics(&ranked, ds.test_items(u as usize), k));
                    }
                }
                per_block.push(part);
            }
            let mut want = vec![MetricSet::default(); ks.len()];
            for part in &per_block {
                for (slot, p) in want.iter_mut().zip(part) {
                    slot.merge(p);
                }
            }
            want.iter_mut().for_each(MetricSet::finalize);
            let got = evaluate_artifact_on(&ds, &art, &ks, &WorkerPool::new(2));
            assert_eq!(art.dim(), if score == EvalScore::NegSqDist { 65 } else { 64 });
            for (g, w) in got.at.iter().zip(&want) {
                assert_eq!(g.ndcg.to_bits(), w.ndcg.to_bits(), "{score:?}");
                assert_eq!(g, w, "{score:?}");
            }
        }
    }

    /// A zero cutoff is refused on the calling thread, with its own message,
    /// before any worker starts.
    #[test]
    #[should_panic(expected = "cutoff must be positive")]
    fn zero_cutoff_panics_on_the_calling_thread() {
        let (ds, art) = ten_block_case();
        let _ = evaluate_artifact(&ds, &art, &[0, 5]);
    }

    #[test]
    fn artifact_eval_equals_raw_embedding_eval() {
        let ds = generate(&SynthConfig::tiny(7));
        let mut rng = StdRng::seed_from_u64(4);
        let users = Matrix::gaussian(ds.n_users, 8, 1.0, &mut rng);
        let items = Matrix::gaussian(ds.n_items, 8, 1.0, &mut rng);
        for score in [EvalScore::Dot, EvalScore::Cosine, EvalScore::NegSqDist] {
            let art = ModelArtifact::from_embeddings("MF", &users, &items, score);
            let via_art = evaluate_artifact(&ds, &art, &[10, 20]);
            let via_raw = evaluate(&ds, &users, &items, score, &[10, 20]);
            assert_eq!(via_art.at_k(20), via_raw.at_k(20), "{score:?}");
            assert_eq!(via_art.at_k(10), via_raw.at_k(10), "{score:?}");
        }
    }

    #[test]
    #[should_panic(expected = "was not evaluated")]
    fn report_rejects_unknown_cutoff() {
        let rep = EvalReport { ks: vec![10], at: vec![MetricSet::default()] };
        let _ = rep.at_k(20);
    }
}
