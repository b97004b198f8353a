//! Popularity-group decomposition of NDCG — the fairness lens of Figs 4a
//! and 5.
//!
//! Following §III-B4, items are split into popularity groups (larger group
//! id = more popular) and each user's DCG is *decomposed by the group of
//! the hit item*: a hit at 0-based rank `r` on an item of group `g`
//! contributes `discount(r)/IDCG_u` to group `g`. Summing a user's
//! contributions over groups recovers the user's NDCG@K exactly, so the
//! per-group curves of Fig 4a are an exact partition of overall NDCG.
//!
//! Both decompositions rank through [`crate::ranking`]'s block driver —
//! the loop [`crate::evaluate`] itself runs — so they partition *exactly*
//! the ranking it reports, with no second score → select → mask loop to
//! drift.

use crate::metrics::{dcg_discount, idcg, user_metrics};
use crate::ranking::rank_blocks;
use bsl_data::Dataset;
use bsl_linalg::pool::{host_workers, WorkerPool};
use bsl_linalg::Matrix;
use bsl_models::{EvalScore, ModelArtifact};

fn check_inputs(
    ds: &Dataset,
    user_emb: &Matrix,
    item_emb: &Matrix,
    groups: &[u8],
    n_groups: usize,
    k: usize,
) {
    assert!(k > 0, "cutoff must be positive");
    assert_eq!(groups.len(), ds.n_items, "one group label per item");
    assert!(groups.iter().all(|&g| (g as usize) < n_groups), "group id out of range");
    assert_eq!(user_emb.rows(), ds.n_users, "user embedding rows != n_users");
    assert_eq!(item_emb.rows(), ds.n_items, "item embedding rows != n_items");
}

/// Mean per-group NDCG@K contributions across evaluable users.
///
/// `groups[i]` is the popularity group of item `i` with ids in
/// `0..n_groups`; the returned vector has length `n_groups` and sums to the
/// overall NDCG@K.
///
/// # Panics
/// Panics if `k == 0`, shapes disagree, or any group id is out of range.
pub fn group_ndcg(
    ds: &Dataset,
    user_emb: &Matrix,
    item_emb: &Matrix,
    score: EvalScore,
    groups: &[u8],
    n_groups: usize,
    k: usize,
) -> Vec<f64> {
    check_inputs(ds, user_emb, item_emb, groups, n_groups, k);
    let artifact = ModelArtifact::from_embeddings("group-eval", user_emb, item_emb, score);

    let users = ds.evaluable_users();
    let partials = rank_blocks(
        ds,
        &artifact,
        &users,
        k,
        &WorkerPool::new(host_workers()),
        vec![0.0f64; n_groups],
        |acc, u, ranked| {
            let relevant = ds.test_items(u as usize);
            let denom = idcg(relevant.len(), k);
            if denom <= 0.0 {
                return;
            }
            for (rank, &item) in ranked.iter().enumerate() {
                if relevant.binary_search(&item).is_ok() {
                    acc[groups[item as usize] as usize] += dcg_discount(rank) / denom;
                }
            }
        },
    );
    let n = users.len().max(1) as f64;
    (0..n_groups).map(|g| partials.iter().map(|part| part[g]).sum::<f64>() / n).collect()
}

/// Per-group NDCG@K with *restricted relevance*: group `g` is scored as if
/// only that group's test items were relevant (full ranking, train items
/// masked), averaged over users that hold at least one test item in `g`.
///
/// Unlike [`group_ndcg`], the group values do **not** sum to the overall
/// NDCG — each group is its own retrieval task. This matches how the
/// paper's Figs 4a/5 report "performance over item groups": a model that
/// surfaces tail items scores visibly on tail groups even while popular
/// items still occupy most top-K slots.
///
/// # Panics
/// Panics under the same conditions as [`group_ndcg`].
pub fn group_ndcg_restricted(
    ds: &Dataset,
    user_emb: &Matrix,
    item_emb: &Matrix,
    score: EvalScore,
    groups: &[u8],
    n_groups: usize,
    k: usize,
) -> Vec<f64> {
    check_inputs(ds, user_emb, item_emb, groups, n_groups, k);
    let artifact = ModelArtifact::from_embeddings("group-eval", user_emb, item_emb, score);

    let partials = rank_blocks(
        ds,
        &artifact,
        &ds.evaluable_users(),
        k,
        &WorkerPool::new(host_workers()),
        vec![(0.0f64, 0usize); n_groups],
        |acc, u, ranked| {
            let relevant = ds.test_items(u as usize);
            for (g, (sum, count)) in acc.iter_mut().enumerate() {
                let rel_g: Vec<u32> = relevant
                    .iter()
                    .copied()
                    .filter(|&i| groups[i as usize] as usize == g)
                    .collect();
                if rel_g.is_empty() {
                    continue;
                }
                *count += 1;
                *sum += user_metrics(ranked, &rel_g, k).ndcg;
            }
        },
    );
    (0..n_groups)
        .map(|g| {
            let sum: f64 = partials.iter().map(|part| part[g].0).sum();
            let count: usize = partials.iter().map(|part| part[g].1).sum();
            if count > 0 {
                sum / count as f64
            } else {
                sum
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::evaluate;
    use bsl_data::synth::{generate, SynthConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn group_decomposition_sums_to_overall_ndcg() {
        let ds = generate(&SynthConfig::tiny(11));
        let mut rng = StdRng::seed_from_u64(2);
        let users = Matrix::gaussian(ds.n_users, 8, 1.0, &mut rng);
        let items = Matrix::gaussian(ds.n_items, 8, 1.0, &mut rng);
        let groups = ds.popularity_groups(10);
        let per_group = group_ndcg(&ds, &users, &items, EvalScore::Dot, &groups, 10, 20);
        let total: f64 = per_group.iter().sum();
        let overall = evaluate(&ds, &users, &items, EvalScore::Dot, &[20]).ndcg(20);
        assert!((total - overall).abs() < 1e-9, "decomposed {total} vs overall {overall}");
    }

    #[test]
    fn single_group_captures_everything() {
        let ds = generate(&SynthConfig::tiny(13));
        let mut rng = StdRng::seed_from_u64(3);
        let users = Matrix::gaussian(ds.n_users, 8, 1.0, &mut rng);
        let items = Matrix::gaussian(ds.n_items, 8, 1.0, &mut rng);
        let groups = vec![0u8; ds.n_items];
        let per_group = group_ndcg(&ds, &users, &items, EvalScore::Cosine, &groups, 1, 10);
        let overall = evaluate(&ds, &users, &items, EvalScore::Cosine, &[10]).ndcg(10);
        assert_eq!(per_group.len(), 1);
        assert!((per_group[0] - overall).abs() < 1e-9);
    }

    #[test]
    fn hits_land_in_the_right_group() {
        // 1 user, 2 items: test item 1 is in group 1.
        let ds = Dataset::from_pairs("g", 1, 2, &[], &[(0, 1)]);
        let users = Matrix::from_vec(1, 1, vec![1.0]);
        let items = Matrix::from_vec(2, 1, vec![0.1, 5.0]);
        let per_group = group_ndcg(&ds, &users, &items, EvalScore::Dot, &[0, 1], 2, 1);
        assert_eq!(per_group[0], 0.0);
        assert!((per_group[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "group id out of range")]
    fn rejects_bad_group_labels() {
        let ds = Dataset::from_pairs("g", 1, 2, &[], &[(0, 1)]);
        let users = Matrix::zeros(1, 1);
        let items = Matrix::zeros(2, 1);
        let _ = group_ndcg(&ds, &users, &items, EvalScore::Dot, &[0, 5], 2, 1);
    }
}
