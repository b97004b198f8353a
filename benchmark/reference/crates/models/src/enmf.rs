//! ENMF (Chen et al., TOIS'20): Efficient Neural Matrix Factorization
//! *without sampling* — every unobserved pair contributes to the loss with
//! a uniform weight `c0`, made tractable by the `d × d` Gram-matrix trick:
//!
//! ```text
//! L = Σ_u Σ_{i∈S+} [(û·î − 1)² − c0·(û·î)²] + c0·Σ_u ûᵀ·G_I·û + reg
//! G_I = Σ_i î·îᵀ   (d × d, recomputed once per half-epoch)
//! ```
//!
//! Training alternates full-gradient Adam steps on the user and item
//! tables, which is the whole-data (non-sampling) protocol the paper's
//! Table II row refers to.

use bsl_data::Dataset;
use bsl_linalg::kernels::{axpy, dot};
use bsl_linalg::Matrix;
use bsl_opt::Adam;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// ENMF hyperparameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EnmfConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Uniform negative weight `c0 ∈ (0, 1]`.
    pub c0: f32,
    /// Learning rate.
    pub lr: f32,
    /// L2 coefficient.
    pub l2: f32,
    /// Training epochs (one user sweep + one item sweep each).
    pub epochs: usize,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl Default for EnmfConfig {
    fn default() -> Self {
        Self { dim: 64, c0: 0.05, lr: 0.01, l2: 1e-5, epochs: 60, seed: 0 }
    }
}

/// Trains ENMF and returns `(user_emb, item_emb)` (dot-product scoring).
///
/// # Panics
/// Panics unless `0 < c0 <= 1`, `dim > 0` and `epochs > 0`.
pub fn train_enmf(ds: &Dataset, cfg: &EnmfConfig) -> (Matrix, Matrix) {
    assert!(cfg.c0 > 0.0 && cfg.c0 <= 1.0, "c0 must be in (0,1], got {}", cfg.c0);
    assert!(cfg.dim > 0, "dim must be positive");
    assert!(cfg.epochs > 0, "epochs must be positive");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let d = cfg.dim;
    let mut user_emb = Matrix::xavier_uniform(ds.n_users, d, &mut rng);
    let mut item_emb = Matrix::xavier_uniform(ds.n_items, d, &mut rng);
    let mut adam_u = Adam::new(ds.n_users, d);
    let mut adam_i = Adam::new(ds.n_items, d);
    let item_of_user = ds.train.clone();
    let user_of_item = ds.train.transpose();

    for _ in 0..cfg.epochs {
        // --- user sweep (items fixed) ---
        let gram_i = item_emb.matmul_tn(&item_emb); // d × d
        let mut grad_u = Matrix::zeros(ds.n_users, d);
        for u in 0..ds.n_users {
            let urow = user_emb.row(u).to_vec();
            let g = grad_u.row_mut(u);
            // 2·c0·G_I·u
            for (j, gj) in g.iter_mut().enumerate() {
                *gj = 2.0 * cfg.c0 * dot(gram_i.row(j), &urow);
            }
            // positives: 2(1−c0)(u·i)·i − 2·i
            for &i in item_of_user.row_indices(u) {
                let irow = item_emb.row(i as usize);
                let s = dot(&urow, irow);
                axpy(2.0 * (1.0 - cfg.c0) * s - 2.0, irow, g);
            }
            axpy(cfg.l2, &urow, g);
        }
        adam_u.step_dense(&mut user_emb, &grad_u, cfg.lr);

        // --- item sweep (users fixed) ---
        let gram_u = user_emb.matmul_tn(&user_emb);
        let mut grad_i = Matrix::zeros(ds.n_items, d);
        for i in 0..ds.n_items {
            let irow = item_emb.row(i).to_vec();
            let g = grad_i.row_mut(i);
            for (j, gj) in g.iter_mut().enumerate() {
                *gj = 2.0 * cfg.c0 * dot(gram_u.row(j), &irow);
            }
            for &u in user_of_item.row_indices(i) {
                let urow = user_emb.row(u as usize);
                let s = dot(&irow, urow);
                axpy(2.0 * (1.0 - cfg.c0) * s - 2.0, urow, g);
            }
            axpy(cfg.l2, &irow, g);
        }
        adam_i.step_dense(&mut item_emb, &grad_i, cfg.lr);
    }
    (user_emb, item_emb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_data::synth::{generate, SynthConfig};

    /// The ENMF objective, computed naively over every (u, i) pair —
    /// ground truth for the Gram-trick gradients.
    fn naive_loss(ds: &Dataset, users: &Matrix, items: &Matrix, c0: f32) -> f64 {
        let mut l = 0.0f64;
        for u in 0..ds.n_users {
            for i in 0..ds.n_items {
                let s = dot(users.row(u), items.row(i)) as f64;
                let w = if ds.train.contains(u, i as u32) { 1.0 } else { c0 as f64 };
                let r = if ds.train.contains(u, i as u32) { 1.0 } else { 0.0 };
                l += w * (s - r) * (s - r);
            }
        }
        l
    }

    #[test]
    fn training_decreases_whole_data_loss() {
        let ds = generate(&SynthConfig::tiny(1));
        let cfg = EnmfConfig { dim: 8, c0: 0.1, lr: 0.02, l2: 0.0, epochs: 1, seed: 4 };
        let (u0, i0) = {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            (
                Matrix::xavier_uniform(ds.n_users, cfg.dim, &mut rng),
                Matrix::xavier_uniform(ds.n_items, cfg.dim, &mut rng),
            )
        };
        let before = naive_loss(&ds, &u0, &i0, cfg.c0);
        let long = EnmfConfig { epochs: 40, ..cfg };
        let (u1, i1) = train_enmf(&ds, &long);
        let after = naive_loss(&ds, &u1, &i1, cfg.c0);
        assert!(after < before * 0.9, "loss {before} -> {after}");
    }

    #[test]
    fn trained_embeddings_beat_random_on_recall() {
        let ds = generate(&SynthConfig::tiny(2));
        let cfg = EnmfConfig { dim: 16, c0: 0.1, lr: 0.02, l2: 1e-6, epochs: 80, seed: 9 };
        let (u, i) = train_enmf(&ds, &cfg);
        // Score test items above random guessing: positives should score
        // higher than average.
        let mut pos_mean = 0.0f64;
        let mut all_mean = 0.0f64;
        let mut n_pos = 0usize;
        let mut n_all = 0usize;
        for uu in 0..ds.n_users {
            for ii in 0..ds.n_items {
                let s = dot(u.row(uu), i.row(ii)) as f64;
                all_mean += s;
                n_all += 1;
                if ds.train.contains(uu, ii as u32) {
                    pos_mean += s;
                    n_pos += 1;
                }
            }
        }
        pos_mean /= n_pos as f64;
        all_mean /= n_all as f64;
        assert!(pos_mean > all_mean + 0.1, "positives {pos_mean} vs overall {all_mean}");
    }

    #[test]
    fn deterministic_in_seed() {
        let ds = generate(&SynthConfig::tiny(3));
        let cfg = EnmfConfig { dim: 4, c0: 0.2, lr: 0.05, l2: 0.0, epochs: 3, seed: 11 };
        let (a, _) = train_enmf(&ds, &cfg);
        let (b, _) = train_enmf(&ds, &cfg);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    #[should_panic(expected = "c0 must be in")]
    fn rejects_bad_c0() {
        let ds = generate(&SynthConfig::tiny(4));
        let cfg = EnmfConfig { c0: 0.0, ..EnmfConfig::default() };
        let _ = train_enmf(&ds, &cfg);
    }
}
