//! Per-user ranking metrics.
//!
//! Definitions follow the LightGCN / NGCF evaluation protocol the paper
//! adheres to: for a user with relevance set `R` and ranked list
//! `L = (l_1, …, l_K)`,
//!
//! * `Recall@K = |L ∩ R| / |R|`
//! * `NDCG@K = DCG@K / IDCG@K`, `DCG = Σ_k 1[l_k ∈ R]/log2(k+1)` (1-based
//!   ranks), `IDCG` the DCG of the ideal ranking of `min(|R|, K)` hits
//! * `Precision@K = |L ∩ R| / K`
//! * `HitRate@K = 1[|L ∩ R| > 0]`
//! * `MAP@K` — mean average precision truncated at `K`, normalized by
//!   `min(|R|, K)`.

/// Metrics of one user at one cutoff.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UserMetrics {
    /// Recall@K.
    pub recall: f64,
    /// NDCG@K.
    pub ndcg: f64,
    /// Precision@K.
    pub precision: f64,
    /// HitRate@K.
    pub hit_rate: f64,
    /// MAP@K.
    pub map: f64,
}

/// Accumulated means over many users.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetricSet {
    /// Mean Recall@K.
    pub recall: f64,
    /// Mean NDCG@K.
    pub ndcg: f64,
    /// Mean Precision@K.
    pub precision: f64,
    /// Mean HitRate@K.
    pub hit_rate: f64,
    /// Mean MAP@K.
    pub map: f64,
    /// Number of users averaged.
    pub n_users: usize,
}

impl MetricSet {
    /// Adds one user's metrics to the running sums.
    pub fn accumulate(&mut self, m: &UserMetrics) {
        self.recall += m.recall;
        self.ndcg += m.ndcg;
        self.precision += m.precision;
        self.hit_rate += m.hit_rate;
        self.map += m.map;
        self.n_users += 1;
    }

    /// Merges another partial accumulator (for parallel reduction).
    pub fn merge(&mut self, other: &MetricSet) {
        self.recall += other.recall;
        self.ndcg += other.ndcg;
        self.precision += other.precision;
        self.hit_rate += other.hit_rate;
        self.map += other.map;
        self.n_users += other.n_users;
    }

    /// Converts sums to means. No-op on an empty accumulator.
    pub fn finalize(&mut self) {
        if self.n_users == 0 {
            return;
        }
        let n = self.n_users as f64;
        self.recall /= n;
        self.ndcg /= n;
        self.precision /= n;
        self.hit_rate /= n;
        self.map /= n;
    }
}

/// Correctly rounded `1/log2(rank + 2)` for ranks `0..32`: every cutoff
/// the experiments use reads its discounts from here, so NDCG does not
/// depend on the host's `log2` (libm results differ by an ULP between
/// hosts, which showed up in bit-pinned NDCG fingerprints).
const DCG_DISCOUNT: [f64; 32] = [
    1.0,
    0.6309297535714574,
    0.5,
    0.43067655807339306,
    0.3868528072345416,
    0.3562071871080222,
    0.3333333333333333,
    0.3154648767857287,
    std::f64::consts::LOG10_2, // 1/log2(10)
    0.2890648263178879,
    0.27894294565112987,
    0.27023815442731974,
    0.26264953503719357,
    0.2559580248098155,
    0.25,
    0.24465054211822604,
    0.23981246656813143,
    0.23540891336663824,
    0.23137821315975918,
    0.227670248696953,
    0.22424382421757544,
    0.22106472945750374,
    0.21810429198553155,
    0.21533827903669653,
    0.21274605355336315,
    0.21030991785715247,
    0.20801459767650946,
    0.20584683246043445,
    0.2037950470905062,
    0.20184908658209985,
    0.2,
    0.19823986317056053,
];

/// `1/log2(rank + 2)` — the DCG discount of 0-based `rank` (tabulated for
/// `rank < 32`, host `log2` beyond).
#[inline]
pub fn dcg_discount(rank: usize) -> f64 {
    match DCG_DISCOUNT.get(rank) {
        Some(&d) => d,
        None => 1.0 / ((rank + 2) as f64).log2(),
    }
}

/// Ideal DCG for `n_rel` relevant items at cutoff `k`.
pub fn idcg(n_rel: usize, k: usize) -> f64 {
    (0..n_rel.min(k)).map(dcg_discount).sum()
}

/// Computes all metrics at cutoff `k` for `ranked` (the model's top-K or
/// longer, best first, duplicate-free — top-K selection guarantees this)
/// against the sorted relevance set `relevant`.
///
/// Returns all-zero metrics when `relevant` is empty (such users are
/// normally excluded upstream).
///
/// # Panics
/// Panics if `k == 0`.
pub fn user_metrics(ranked: &[u32], relevant: &[u32], k: usize) -> UserMetrics {
    assert!(k > 0, "cutoff must be positive");
    debug_assert!(relevant.windows(2).all(|w| w[0] < w[1]), "relevance set must be sorted");
    if relevant.is_empty() {
        return UserMetrics::default();
    }
    let mut hits = 0usize;
    let mut dcg = 0.0f64;
    let mut ap = 0.0f64;
    for (rank, &item) in ranked.iter().take(k).enumerate() {
        if relevant.binary_search(&item).is_ok() {
            hits += 1;
            dcg += dcg_discount(rank);
            ap += hits as f64 / (rank + 1) as f64;
        }
    }
    let n_rel = relevant.len();
    UserMetrics {
        recall: hits as f64 / n_rel as f64,
        ndcg: if hits > 0 { dcg / idcg(n_rel, k) } else { 0.0 },
        precision: hits as f64 / k as f64,
        hit_rate: if hits > 0 { 1.0 } else { 0.0 },
        map: ap / n_rel.min(k) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_ranking_maxes_everything() {
        let m = user_metrics(&[1, 2, 3], &[1, 2, 3], 3);
        assert!((m.recall - 1.0).abs() < 1e-12);
        assert!((m.ndcg - 1.0).abs() < 1e-12);
        assert!((m.precision - 1.0).abs() < 1e-12);
        assert_eq!(m.hit_rate, 1.0);
        assert!((m.map - 1.0).abs() < 1e-12);
    }

    #[test]
    fn discount_table_matches_log2_and_continues_past_it() {
        for rank in 0..DCG_DISCOUNT.len() + 8 {
            let want = 1.0 / ((rank + 2) as f64).log2();
            assert!((dcg_discount(rank) - want).abs() <= 1e-15, "rank {rank}");
        }
        // Exact powers of two are exact in any libm.
        assert_eq!(dcg_discount(0), 1.0);
        assert_eq!(dcg_discount(2), 0.5);
        assert_eq!(dcg_discount(14), 0.25);
        assert_eq!(dcg_discount(30), 0.2);
        assert_eq!(dcg_discount(8).to_bits(), 0x3fd3_4413_509f_79ff, "LOG10_2 is 1/log2(10)");
    }

    #[test]
    fn empty_intersection_zeroes_everything() {
        let m = user_metrics(&[4, 5, 6], &[1, 2, 3], 3);
        assert_eq!(m, UserMetrics::default());
    }

    #[test]
    fn hand_worked_example() {
        // K = 4, relevant = {10, 20}, ranked = [10, 7, 20, 9].
        // hits at ranks 0 and 2; DCG = 1/log2(2) + 1/log2(4) = 1 + 0.5.
        // IDCG = 1/log2(2) + 1/log2(3).
        let m = user_metrics(&[10, 7, 20, 9], &[10, 20], 4);
        let want_ndcg = 1.5 / (1.0 + 1.0 / 3.0f64.log2());
        assert!((m.ndcg - want_ndcg).abs() < 1e-12, "{} vs {want_ndcg}", m.ndcg);
        assert!((m.recall - 1.0).abs() < 1e-12);
        assert!((m.precision - 0.5).abs() < 1e-12);
        // AP = (1/1 + 2/3) / 2.
        assert!((m.map - (1.0 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn rank_position_matters_for_ndcg() {
        let early = user_metrics(&[1, 8, 9], &[1], 3);
        let late = user_metrics(&[8, 9, 1], &[1], 3);
        assert!(early.ndcg > late.ndcg);
        assert_eq!(early.recall, late.recall);
    }

    #[test]
    fn k_truncates_list() {
        let m = user_metrics(&[9, 9, 9, 1], &[1], 3);
        assert_eq!(m.recall, 0.0, "hit at rank 4 must not count at K=3");
    }

    #[test]
    fn idcg_saturates_at_k() {
        assert_eq!(idcg(10, 3), idcg(3, 3));
        assert!(idcg(2, 3) < idcg(3, 3));
    }

    #[test]
    fn empty_relevance_is_zero() {
        assert_eq!(user_metrics(&[1, 2], &[], 2), UserMetrics::default());
    }

    #[test]
    fn metric_set_accumulate_finalize() {
        let mut acc = MetricSet::default();
        acc.accumulate(&UserMetrics {
            recall: 1.0,
            ndcg: 0.5,
            precision: 0.2,
            hit_rate: 1.0,
            map: 0.4,
        });
        acc.accumulate(&UserMetrics::default());
        acc.finalize();
        assert_eq!(acc.n_users, 2);
        assert!((acc.recall - 0.5).abs() < 1e-12);
        assert!((acc.ndcg - 0.25).abs() < 1e-12);
    }

    #[test]
    fn metric_set_merge_matches_sequential() {
        let users = [
            UserMetrics { recall: 0.3, ndcg: 0.2, precision: 0.1, hit_rate: 1.0, map: 0.15 },
            UserMetrics { recall: 0.6, ndcg: 0.5, precision: 0.3, hit_rate: 1.0, map: 0.4 },
            UserMetrics { recall: 0.0, ndcg: 0.0, precision: 0.0, hit_rate: 0.0, map: 0.0 },
        ];
        let mut seq = MetricSet::default();
        for u in &users {
            seq.accumulate(u);
        }
        let mut a = MetricSet::default();
        a.accumulate(&users[0]);
        let mut b = MetricSet::default();
        b.accumulate(&users[1]);
        b.accumulate(&users[2]);
        a.merge(&b);
        assert_eq!(a, seq);
    }

    proptest! {
        #[test]
        fn prop_metrics_in_unit_interval(
            ranked_set in proptest::collection::hash_set(0u32..50, 1..30),
            rel_raw in proptest::collection::btree_set(0u32..50, 1..10),
            k in 1usize..25,
        ) {
            // Ranked lists are duplicate-free by construction upstream.
            let ranked: Vec<u32> = ranked_set.into_iter().collect();
            let relevant: Vec<u32> = rel_raw.into_iter().collect();
            let m = user_metrics(&ranked, &relevant, k);
            for v in [m.recall, m.ndcg, m.precision, m.hit_rate, m.map] {
                prop_assert!((0.0..=1.0 + 1e-12).contains(&v), "metric {v} out of range");
            }
        }

        /// Recall and NDCG are monotone non-decreasing in K.
        #[test]
        fn prop_monotone_in_k(
            ranked_set in proptest::collection::hash_set(0u32..50, 5..30),
            rel_raw in proptest::collection::btree_set(0u32..50, 1..10),
        ) {
            let ranked: Vec<u32> = ranked_set.into_iter().collect();
            let relevant: Vec<u32> = rel_raw.into_iter().collect();
            let mut prev_recall = 0.0;
            for k in 1..ranked.len() {
                let m = user_metrics(&ranked, &relevant, k);
                prop_assert!(m.recall >= prev_recall - 1e-12);
                prev_recall = m.recall;
            }
        }
    }
}
