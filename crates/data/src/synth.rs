//! Synthetic implicit-feedback generator with a latent-factor ground truth.
//!
//! The generative model (README's "Reproducing the paper's figures and
//! tables" says what it stands in for):
//!
//! 1. Items belong to `n_clusters` latent clusters; item factors are
//!    cluster centre + isotropic noise. Users mix cluster affinities.
//! 2. Item popularity is Zipf-distributed over a random permutation of the
//!    items (power-law long tail, as in all four paper datasets).
//! 3. A user with activity `n_u` (log-normal across users) interacts with
//!    `n_u` distinct items drawn by weighted sampling without replacement
//!    with weight `exp(<u, v_i>/T) · pop_i^γ` — preference *and* popularity
//!    bias, which is what creates the popularity-unfairness that Figs 4a/5
//!    measure.
//! 4. A fraction `intrinsic_pos_noise` of each user's interactions is drawn
//!    uniformly at random instead — organic false positives (clickbait /
//!    conformity in the paper's telling). Gowalla-like sets this high,
//!    reproducing the paper's observation that BSL's positive-side
//!    robustness matters most there.
//! 5. A per-user fraction `test_fraction` of interactions is held out.

use crate::dataset::Dataset;
use bsl_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic generator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Dataset name.
    pub name: String,
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Mean interactions per user (before the test split).
    pub mean_activity: f64,
    /// Log-normal sigma of per-user activity.
    pub activity_sigma: f64,
    /// Latent dimensionality of the ground-truth factors.
    pub latent_dim: usize,
    /// Number of ground-truth item clusters.
    pub n_clusters: usize,
    /// Zipf exponent of item popularity (larger = heavier head).
    pub zipf_exponent: f64,
    /// Popularity-bias strength γ in the interaction weights.
    pub popularity_bias: f64,
    /// Preference temperature `T` (smaller = users more selective).
    pub preference_temp: f64,
    /// Fraction of interactions that are organic false positives.
    pub intrinsic_pos_noise: f64,
    /// Per-user fraction of interactions held out for testing.
    pub test_fraction: f64,
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
}

impl SynthConfig {
    /// Yelp2018-like: mid-size, mid density, moderate popularity skew.
    pub fn yelp_like(seed: u64) -> Self {
        Self {
            name: "yelp-like".into(),
            n_users: 700,
            n_items: 800,
            mean_activity: 36.0,
            activity_sigma: 0.6,
            latent_dim: 16,
            n_clusters: 8,
            zipf_exponent: 0.9,
            popularity_bias: 0.8,
            preference_temp: 0.35,
            intrinsic_pos_noise: 0.05,
            test_fraction: 0.2,
            seed,
        }
    }

    /// Amazon-book-like: the sparsest of the four, strong long tail.
    pub fn amazon_like(seed: u64) -> Self {
        Self {
            name: "amazon-like".into(),
            n_users: 900,
            n_items: 1100,
            mean_activity: 22.0,
            activity_sigma: 0.7,
            latent_dim: 16,
            n_clusters: 10,
            zipf_exponent: 1.1,
            popularity_bias: 1.0,
            preference_temp: 0.35,
            intrinsic_pos_noise: 0.06,
            test_fraction: 0.2,
            seed,
        }
    }

    /// Gowalla-like: check-in data with the most organic positive noise —
    /// the dataset where the paper finds BSL's positive denoising matters
    /// most (Table II discussion).
    pub fn gowalla_like(seed: u64) -> Self {
        Self {
            name: "gowalla-like".into(),
            n_users: 750,
            n_items: 850,
            mean_activity: 30.0,
            activity_sigma: 0.7,
            latent_dim: 16,
            n_clusters: 8,
            zipf_exponent: 0.8,
            popularity_bias: 0.7,
            preference_temp: 0.4,
            intrinsic_pos_noise: 0.18,
            test_fraction: 0.2,
            seed,
        }
    }

    /// MovieLens-1M-like: small, dense (5.4% in the paper), light noise.
    pub fn ml1m_like(seed: u64) -> Self {
        Self {
            name: "ml1m-like".into(),
            n_users: 420,
            n_items: 300,
            mean_activity: 75.0,
            activity_sigma: 0.5,
            latent_dim: 16,
            n_clusters: 6,
            zipf_exponent: 0.7,
            popularity_bias: 0.6,
            preference_temp: 0.35,
            intrinsic_pos_noise: 0.03,
            test_fraction: 0.2,
            seed,
        }
    }

    /// A tiny config for fast unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            name: "tiny".into(),
            n_users: 60,
            n_items: 50,
            mean_activity: 10.0,
            activity_sigma: 0.4,
            latent_dim: 8,
            n_clusters: 4,
            zipf_exponent: 0.8,
            popularity_bias: 0.6,
            preference_temp: 0.4,
            intrinsic_pos_noise: 0.05,
            test_fraction: 0.25,
            seed,
        }
    }

    /// The four paper-shaped datasets in paper order
    /// (Amazon, Yelp2018, Gowalla, MovieLens-1M).
    pub fn paper_suite(seed: u64) -> Vec<Self> {
        vec![
            Self::amazon_like(seed),
            Self::yelp_like(seed.wrapping_add(1)),
            Self::gowalla_like(seed.wrapping_add(2)),
            Self::ml1m_like(seed.wrapping_add(3)),
        ]
    }
}

/// Weighted sampling of `k` distinct indices without replacement
/// (Efraimidis–Spirakis exponential-key trick).
fn sample_without_replacement(weights: &[f64], k: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut keys: Vec<(f64, u32)> = weights
        .iter()
        .enumerate()
        .filter(|&(_, &w)| w > 0.0)
        .map(|(i, &w)| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            // key = ln(u)/w; larger is better.
            (u.ln() / w, i as u32)
        })
        .collect();
    let k = k.min(keys.len());
    keys.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    keys.truncate(k);
    keys.into_iter().map(|(_, i)| i).collect()
}

/// Generates a dataset from `cfg`. Deterministic in `cfg.seed`.
pub fn generate(cfg: &SynthConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let d = cfg.latent_dim;

    // Ground-truth factors: cluster centres + noise.
    let centres = Matrix::gaussian(cfg.n_clusters, d, 1.0, &mut rng);
    let mut item_cluster = vec![0u16; cfg.n_items];
    let mut item_f = Matrix::zeros(cfg.n_items, d);
    for (i, cluster) in item_cluster.iter_mut().enumerate() {
        let c = rng.gen_range(0..cfg.n_clusters);
        *cluster = c as u16;
        let noise = Matrix::gaussian(1, d, 0.35, &mut rng);
        for j in 0..d {
            item_f.set(i, j, centres.get(c, j) + noise.get(0, j));
        }
    }
    // Users: sparse affinity over 1-3 clusters plus noise.
    let mut user_f = Matrix::zeros(cfg.n_users, d);
    for u in 0..cfg.n_users {
        let n_aff = rng.gen_range(1..=3usize);
        let noise = Matrix::gaussian(1, d, 0.25, &mut rng);
        for j in 0..d {
            user_f.set(u, j, noise.get(0, j));
        }
        for _ in 0..n_aff {
            let c = rng.gen_range(0..cfg.n_clusters);
            let w = rng.gen_range(0.4..1.0f32);
            for j in 0..d {
                user_f.set(u, j, user_f.get(u, j) + w * centres.get(c, j) / n_aff as f32);
            }
        }
    }

    // Zipf popularity over a random permutation of items.
    let mut perm: Vec<usize> = (0..cfg.n_items).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let mut pop = vec![0.0f64; cfg.n_items];
    for (rank, &item) in perm.iter().enumerate() {
        pop[item] = 1.0 / ((rank + 1) as f64).powf(cfg.zipf_exponent);
    }

    // Interactions.
    let mut train_pairs: Vec<(u32, u32)> = Vec::new();
    let mut test_pairs: Vec<(u32, u32)> = Vec::new();
    let mut weights = vec![0.0f64; cfg.n_items];
    for u in 0..cfg.n_users {
        // Log-normal activity.
        let z: f64 = {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let n_u = (cfg.mean_activity * (cfg.activity_sigma * z).exp())
            .round()
            .clamp(4.0, (cfg.n_items / 2) as f64) as usize;

        // Interaction weights for this user.
        let urow = user_f.row(u);
        let mut max_s = f64::NEG_INFINITY;
        let mut scores = vec![0.0f64; cfg.n_items];
        for (i, score) in scores.iter_mut().enumerate() {
            let s = bsl_linalg::kernels::dot(urow, item_f.row(i)) as f64 / cfg.preference_temp;
            *score = s;
            if s > max_s {
                max_s = s;
            }
        }
        for i in 0..cfg.n_items {
            weights[i] = (scores[i] - max_s).exp() * pop[i].powf(cfg.popularity_bias);
        }

        let n_noise = ((n_u as f64) * cfg.intrinsic_pos_noise).round() as usize;
        let n_pref = n_u - n_noise.min(n_u);
        let mut items = sample_without_replacement(&weights, n_pref, &mut rng);
        // Organic false positives: uniform over items not already chosen.
        let chosen: std::collections::HashSet<u32> = items.iter().copied().collect();
        let mut added = 0usize;
        let mut guard = 0usize;
        while added < n_noise && guard < 50 * n_noise.max(1) {
            let cand = rng.gen_range(0..cfg.n_items as u32);
            if !chosen.contains(&cand) && !items.contains(&cand) {
                items.push(cand);
                added += 1;
            }
            guard += 1;
        }

        // Per-user split; keep at least one train item.
        let n_test = (((items.len() as f64) * cfg.test_fraction).round() as usize)
            .min(items.len().saturating_sub(1));
        // Shuffle for an unbiased split.
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..=i));
        }
        for (k, &i) in items.iter().enumerate() {
            if k < n_test {
                test_pairs.push((u as u32, i));
            } else {
                train_pairs.push((u as u32, i));
            }
        }
    }

    let mut ds =
        Dataset::from_pairs(cfg.name.clone(), cfg.n_users, cfg.n_items, &train_pairs, &test_pairs);
    ds.item_cluster = Some(item_cluster);
    ds.item_factors = Some(item_f);
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&SynthConfig::tiny(42));
        let b = generate(&SynthConfig::tiny(42));
        assert_eq!(a.train.to_dense(), b.train.to_dense());
        assert_eq!(a.test.to_dense(), b.test.to_dense());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SynthConfig::tiny(1));
        let b = generate(&SynthConfig::tiny(2));
        assert_ne!(a.train.to_dense(), b.train.to_dense());
    }

    #[test]
    fn split_is_disjoint() {
        let d = generate(&SynthConfig::tiny(7));
        for u in 0..d.n_users {
            for &i in d.test_items(u) {
                assert!(!d.train.contains(u, i), "({u},{i}) in both splits");
            }
        }
    }

    #[test]
    fn every_user_has_train_items() {
        let d = generate(&SynthConfig::tiny(3));
        for u in 0..d.n_users {
            assert!(!d.train_items(u).is_empty(), "user {u} has no train items");
        }
    }

    #[test]
    fn activity_roughly_matches_mean() {
        let cfg = SynthConfig::tiny(11);
        let d = generate(&cfg);
        let total = (d.train.nnz() + d.test.nnz()) as f64;
        let per_user = total / cfg.n_users as f64;
        // Log-normal mean is exp(sigma^2/2) times the base.
        let expected = cfg.mean_activity * (cfg.activity_sigma.powi(2) / 2.0).exp();
        assert!(
            per_user > expected * 0.55 && per_user < expected * 1.6,
            "per-user activity {per_user} vs expected ~{expected}"
        );
    }

    #[test]
    fn popularity_is_long_tailed() {
        let d = generate(&SynthConfig::yelp_like(5));
        let mut pop = d.popularity();
        pop.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = pop.iter().map(|&p| p as u64).sum();
        let top10: u64 = pop.iter().take(d.n_items / 10).map(|&p| p as u64).sum();
        let share = top10 as f64 / total as f64;
        assert!(share > 0.25, "top-10% items only cover {share:.2} of interactions");
    }

    #[test]
    fn ground_truth_metadata_present() {
        let d = generate(&SynthConfig::tiny(9));
        assert_eq!(d.item_cluster.as_ref().map(Vec::len), Some(d.n_items));
        assert_eq!(d.item_factors.as_ref().map(|m| m.rows()), Some(d.n_items));
    }

    #[test]
    fn interactions_prefer_matching_clusters() {
        // A user's interacted items should share clusters more than chance.
        let d = generate(&SynthConfig::tiny(13));
        let clusters = d.item_cluster.as_ref().expect("clusters set");
        let n_clusters = 4.0;
        let mut agree = 0usize;
        let mut total = 0usize;
        for u in 0..d.n_users {
            let items = d.train_items(u);
            if items.len() < 2 {
                continue;
            }
            // Majority cluster share within the user's basket.
            let mut counts = [0usize; 16];
            for &i in items {
                counts[clusters[i as usize] as usize] += 1;
            }
            agree += counts.iter().max().copied().unwrap_or(0);
            total += items.len();
        }
        let share = agree as f64 / total as f64;
        assert!(
            share > 1.0 / n_clusters + 0.08,
            "cluster coherence {share:.3} not above chance {:.3}",
            1.0 / n_clusters
        );
    }

    #[test]
    fn paper_suite_density_ordering() {
        // ML-1M-like must be the densest; Amazon-like the sparsest.
        let suite = SynthConfig::paper_suite(1);
        let dens: Vec<(String, f64)> = suite
            .iter()
            .map(|c| {
                let d = generate(c);
                (c.name.clone(), d.stats().density)
            })
            .collect();
        let get = |n: &str| dens.iter().find(|(name, _)| name.contains(n)).expect("present").1;
        assert!(get("ml1m") > get("yelp"));
        assert!(get("yelp") > get("amazon"));
        assert!(get("gowalla") > get("amazon"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_sample_without_replacement_distinct(k in 1usize..20, seed in 0u64..50) {
            let mut rng = StdRng::seed_from_u64(seed);
            let weights: Vec<f64> = (0..30).map(|i| (i + 1) as f64).collect();
            let s = sample_without_replacement(&weights, k, &mut rng);
            let set: std::collections::HashSet<u32> = s.iter().copied().collect();
            prop_assert_eq!(set.len(), s.len());
            prop_assert_eq!(s.len(), k.min(30));
        }

        #[test]
        #[ignore] // statistical; run with --ignored
        fn prop_sampling_respects_weights(seed in 0u64..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Item 0 has weight 100, item 1 weight 1: item 0 should nearly
            // always be drawn first when k = 1.
            let mut hits = 0;
            for _ in 0..200 {
                let s = sample_without_replacement(&[100.0, 1.0], 1, &mut rng);
                if s[0] == 0 {
                    hits += 1;
                }
            }
            prop_assert!(hits > 170, "item 0 drawn {hits}/200");
        }
    }
}
