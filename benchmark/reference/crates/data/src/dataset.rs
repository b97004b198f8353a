//! The [`Dataset`] type: train/test interaction matrices plus the
//! popularity metadata the fairness experiments group by.

use bsl_linalg::Matrix;
use bsl_sparse::Csr;

/// An implicit-feedback dataset with a train/test split.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Human-readable name (e.g. `"yelp-like"`).
    pub name: String,
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Binary training interactions (`n_users × n_items`).
    pub train: Csr,
    /// Binary held-out test interactions (`n_users × n_items`).
    pub test: Csr,
    /// Ground-truth item cluster labels from the generator, when available;
    /// used by the embedding-separation experiments (Figs 10–11).
    pub item_cluster: Option<Vec<u16>>,
    /// Ground-truth latent item factors from the generator, when available.
    pub item_factors: Option<Matrix>,
}

/// Table-I style summary statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetStats {
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Number of training interactions.
    pub n_train: usize,
    /// Number of test interactions.
    pub n_test: usize,
    /// `(train + test) / (users · items)`, as a fraction.
    pub density: f64,
}

impl std::fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>8} users {:>8} items {:>9} interactions (train {} / test {})  density {:.3}%",
            self.n_users,
            self.n_items,
            self.n_train + self.n_test,
            self.n_train,
            self.n_test,
            self.density * 100.0
        )
    }
}

impl Dataset {
    /// Builds a dataset from explicit train/test pairs.
    ///
    /// # Panics
    /// Panics if any pair is out of bounds.
    pub fn from_pairs(
        name: impl Into<String>,
        n_users: usize,
        n_items: usize,
        train_pairs: &[(u32, u32)],
        test_pairs: &[(u32, u32)],
    ) -> Self {
        let to_csr = |pairs: &[(u32, u32)]| {
            let trips: Vec<(u32, u32, f32)> = pairs.iter().map(|&(u, i)| (u, i, 1.0)).collect();
            let mut m = Csr::from_coo(n_users, n_items, &trips);
            for r in 0..n_users {
                for v in m.row_values_mut(r) {
                    *v = 1.0;
                }
            }
            m
        };
        Self {
            name: name.into(),
            n_users,
            n_items,
            train: to_csr(train_pairs),
            test: to_csr(test_pairs),
            item_cluster: None,
            item_factors: None,
        }
    }

    /// Items user `u` interacted with in the training split (sorted).
    #[inline]
    pub fn train_items(&self, u: usize) -> &[u32] {
        self.train.row_indices(u)
    }

    /// Items user `u` holds out in the test split (sorted).
    #[inline]
    pub fn test_items(&self, u: usize) -> &[u32] {
        self.test.row_indices(u)
    }

    /// All `(user, item)` training pairs in row order.
    pub fn train_pairs(&self) -> Vec<(u32, u32)> {
        self.train.iter().map(|(u, i, _)| (u, i)).collect()
    }

    /// Per-item training interaction counts (the popularity signal the
    /// paper groups by).
    pub fn popularity(&self) -> Vec<u32> {
        self.train.col_degrees().into_iter().map(|d| d as u32).collect()
    }

    /// Assigns every item to one of `n_groups` popularity groups with
    /// (nearly) equal item counts. Group ids run `0..n_groups` with larger
    /// id = more popular, matching "the larger GroupID denotes the group
    /// where items are more popular" (paper §III-B4).
    ///
    /// # Panics
    /// Panics if `n_groups == 0`.
    pub fn popularity_groups(&self, n_groups: usize) -> Vec<u8> {
        assert!(n_groups > 0, "need at least one group");
        assert!(n_groups <= u8::MAX as usize + 1, "too many groups for u8 labels");
        let pop = self.popularity();
        let mut order: Vec<usize> = (0..self.n_items).collect();
        // Ascending popularity; ties broken by index for determinism.
        order.sort_by_key(|&i| (pop[i], i));
        let mut groups = vec![0u8; self.n_items];
        for (rank, &item) in order.iter().enumerate() {
            groups[item] = ((rank * n_groups) / self.n_items.max(1)) as u8;
        }
        groups
    }

    /// Summary statistics (Table I).
    pub fn stats(&self) -> DatasetStats {
        let n_train = self.train.nnz();
        let n_test = self.test.nnz();
        DatasetStats {
            n_users: self.n_users,
            n_items: self.n_items,
            n_train,
            n_test,
            density: (n_train + n_test) as f64 / (self.n_users * self.n_items) as f64,
        }
    }

    /// Users that have at least one test interaction (the evaluation set).
    pub fn evaluable_users(&self) -> Vec<u32> {
        (0..self.n_users as u32).filter(|&u| self.test.row_nnz(u as usize) > 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::from_pairs("toy", 3, 4, &[(0, 0), (0, 1), (1, 1), (2, 3)], &[(0, 2), (1, 0)])
    }

    #[test]
    fn stats_counts() {
        let d = toy();
        let s = d.stats();
        assert_eq!(s.n_train, 4);
        assert_eq!(s.n_test, 2);
        assert!((s.density - 6.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn train_test_access() {
        let d = toy();
        assert_eq!(d.train_items(0), &[0, 1]);
        assert_eq!(d.test_items(1), &[0]);
        assert!(d.test_items(2).is_empty());
    }

    #[test]
    fn duplicates_are_binarized() {
        let d = Dataset::from_pairs("dup", 1, 2, &[(0, 0), (0, 0)], &[]);
        assert_eq!(d.train.nnz(), 1);
        assert_eq!(d.train.get(0, 0), 1.0);
    }

    #[test]
    fn popularity_counts_train_only() {
        let d = toy();
        assert_eq!(d.popularity(), vec![1, 2, 0, 1]);
    }

    #[test]
    fn popularity_groups_equal_sizes_and_order() {
        let d = toy();
        let g = d.popularity_groups(2);
        assert_eq!(g.len(), 4);
        // Item 1 (pop 2) must be in the top group; item 2 (pop 0) in the
        // bottom group.
        assert_eq!(g[1], 1);
        assert_eq!(g[2], 0);
        // Two items per group.
        assert_eq!(g.iter().filter(|&&x| x == 0).count(), 2);
    }

    #[test]
    fn popularity_group_means_monotone() {
        // 10 items with popularity = index.
        let pairs: Vec<(u32, u32)> = (0..10u32).flat_map(|i| (0..i).map(move |u| (u, i))).collect();
        let d = Dataset::from_pairs("mono", 10, 10, &pairs, &[]);
        let g = d.popularity_groups(5);
        let pop = d.popularity();
        let mut means = [(0.0f64, 0usize); 5];
        for i in 0..10 {
            means[g[i] as usize].0 += pop[i] as f64;
            means[g[i] as usize].1 += 1;
        }
        let means: Vec<f64> = means.iter().map(|&(s, n)| s / n as f64).collect();
        for w in means.windows(2) {
            assert!(w[0] <= w[1], "group means not monotone: {means:?}");
        }
    }

    #[test]
    fn evaluable_users_filters_empty_test_rows() {
        let d = toy();
        assert_eq!(d.evaluable_users(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn popularity_groups_rejects_zero() {
        toy().popularity_groups(0);
    }
}
