//! Controlled noise injection for the robustness experiments.
//!
//! The paper's positive-noise protocol (§V-D, Table IV, Fig 6): "contaminate
//! the positive instances by introducing a certain proportion of randomly
//! sampled negative items … in accordance with the interaction frequency per
//! user, while keeping the test set unchanged."

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of injecting false positives.
pub struct NoisyDataset {
    /// The contaminated dataset (train enlarged, test untouched).
    pub dataset: Dataset,
    /// The injected `(user, item)` pairs — ground-truth noise labels,
    /// available because we control the generator.
    pub injected: Vec<(u32, u32)>,
}

/// Adds `ratio · |train|` false-positive interactions, distributed across
/// users proportionally to their interaction frequency. Injected items are
/// uniform over the user's non-interacted (train ∪ test) items.
///
/// # Panics
/// Panics if `ratio < 0`.
pub fn inject_false_positives(ds: &Dataset, ratio: f64, seed: u64) -> NoisyDataset {
    assert!(ratio >= 0.0, "noise ratio must be non-negative, got {ratio}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train_pairs = ds.train_pairs();
    let mut injected = Vec::new();
    for u in 0..ds.n_users {
        let have = ds.train_items(u).len();
        let n_add = ((have as f64) * ratio).round() as usize;
        let free = ds.n_items - have - ds.test_items(u).len();
        let n_add = n_add.min(free);
        let mut added = 0usize;
        let mut chosen: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut guard = 0usize;
        while added < n_add && guard < 100 * n_add.max(1) {
            let cand = rng.gen_range(0..ds.n_items as u32);
            if !ds.train.contains(u, cand) && !ds.test.contains(u, cand) && chosen.insert(cand) {
                train_pairs.push((u as u32, cand));
                injected.push((u as u32, cand));
                added += 1;
            }
            guard += 1;
        }
    }
    let test_pairs: Vec<(u32, u32)> = ds.test.iter().map(|(u, i, _)| (u, i)).collect();
    let mut noisy = Dataset::from_pairs(
        format!("{}+pos-noise{:.0}%", ds.name, ratio * 100.0),
        ds.n_users,
        ds.n_items,
        &train_pairs,
        &test_pairs,
    );
    noisy.item_cluster = ds.item_cluster.clone();
    noisy.item_factors = ds.item_factors.clone();
    NoisyDataset { dataset: noisy, injected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthConfig};

    #[test]
    fn zero_ratio_is_identity() {
        let d = generate(&SynthConfig::tiny(1));
        let n = inject_false_positives(&d, 0.0, 9);
        assert_eq!(n.dataset.train.nnz(), d.train.nnz());
        assert!(n.injected.is_empty());
    }

    #[test]
    fn injected_count_close_to_ratio() {
        let d = generate(&SynthConfig::tiny(2));
        let n = inject_false_positives(&d, 0.3, 9);
        let got = n.injected.len() as f64 / d.train.nnz() as f64;
        assert!((got - 0.3).abs() < 0.05, "injected fraction {got}");
        assert_eq!(n.dataset.train.nnz(), d.train.nnz() + n.injected.len());
    }

    #[test]
    fn injection_proportional_to_user_activity() {
        let d = generate(&SynthConfig::tiny(3));
        let n = inject_false_positives(&d, 0.4, 5);
        for u in 0..d.n_users {
            let have = d.train_items(u).len() as f64;
            let added = n.injected.iter().filter(|&&(uu, _)| uu as usize == u).count() as f64;
            // round(0.4 * have) within ±1 (capping by free slots aside).
            assert!(
                (added - (0.4 * have).round()).abs() <= 1.0,
                "user {u}: have {have}, added {added}"
            );
        }
    }

    #[test]
    fn test_split_untouched_and_no_overlap() {
        let d = generate(&SynthConfig::tiny(4));
        let n = inject_false_positives(&d, 0.2, 5);
        assert_eq!(n.dataset.test.to_dense(), d.test.to_dense());
        for &(u, i) in &n.injected {
            assert!(!d.train.contains(u as usize, i), "injected an existing positive");
            assert!(!d.test.contains(u as usize, i), "injected a test item");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let d = generate(&SynthConfig::tiny(5));
        let a = inject_false_positives(&d, 0.25, 11);
        let b = inject_false_positives(&d, 0.25, 11);
        assert_eq!(a.injected, b.injected);
    }

    #[test]
    fn metadata_preserved() {
        let d = generate(&SynthConfig::tiny(6));
        let n = inject_false_positives(&d, 0.1, 2);
        assert_eq!(n.dataset.item_cluster, d.item_cluster);
    }
}
