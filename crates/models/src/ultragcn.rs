//! UltraGCN-lite (Mao et al., CIKM'21): skips explicit message passing and
//! instead bakes the graph into *per-edge constraint weights* on a BCE
//! objective:
//!
//! ```text
//! β_{u,i} = (1/d_u)·sqrt((d_u+1)/(d_i+1))
//! L = −Σ (1 + λ·β_{u,i})·log σ(u·i)  −  Σ_j log σ(−u·j)
//! ```
//!
//! This is the main (`L_C + L_O`) branch of UltraGCN; the item–item
//! co-occurrence constraint is omitted (listed in README's "Reproducing
//! the paper's figures and tables" — it is a second additive term of the
//! same shape, not a different mechanism).

use bsl_data::Dataset;
use bsl_linalg::kernels::{axpy, dot};
use bsl_linalg::stats::sigmoid;
use bsl_linalg::Matrix;
use bsl_opt::Adam;
use bsl_sampling::{BatchIter, UniformSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// UltraGCN-lite hyperparameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct UltraGcnConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Constraint-loss weight λ.
    pub lambda: f32,
    /// Negatives per positive.
    pub negatives: usize,
    /// Negative-loss weight.
    pub neg_weight: f32,
    /// Learning rate.
    pub lr: f32,
    /// L2 coefficient.
    pub l2: f32,
    /// Batch size.
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UltraGcnConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            lambda: 1.0,
            negatives: 64,
            neg_weight: 1.0,
            lr: 1e-3,
            l2: 1e-5,
            batch_size: 512,
            epochs: 60,
            seed: 0,
        }
    }
}

/// The UltraGCN constraint weights `β_{u,i}` for every training edge order
/// (`d_u`, `d_i` are train-split degrees; isolated nodes get degree 1).
pub fn constraint_weight(d_u: usize, d_i: usize) -> f32 {
    let du = d_u.max(1) as f32;
    let di = d_i.max(1) as f32;
    (1.0 / du) * ((du + 1.0) / (di + 1.0)).sqrt()
}

/// Trains UltraGCN-lite and returns `(user_emb, item_emb)` (dot-product
/// scoring).
///
/// # Panics
/// Panics on degenerate hyperparameters (zero dim/epochs/batch/negatives).
pub fn train_ultragcn(ds: &Arc<Dataset>, cfg: &UltraGcnConfig) -> (Matrix, Matrix) {
    assert!(cfg.dim > 0 && cfg.epochs > 0 && cfg.batch_size > 0 && cfg.negatives > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut user_emb = Matrix::xavier_uniform(ds.n_users, cfg.dim, &mut rng);
    let mut item_emb = Matrix::xavier_uniform(ds.n_items, cfg.dim, &mut rng);
    let mut adam_u = Adam::new(ds.n_users, cfg.dim);
    let mut adam_i = Adam::new(ds.n_items, cfg.dim);
    let du = ds.train.row_degrees();
    let di = ds.train.col_degrees();
    let sampler = UniformSampler::new(ds.clone());

    let mut gu_rows: Vec<(u32, Vec<f32>)> = Vec::new();
    let mut gi_rows: Vec<(u32, Vec<f32>)> = Vec::new();
    for epoch in 0..cfg.epochs {
        let seed = cfg.seed ^ (epoch as u64).wrapping_mul(0x9E3779B97F4A7C15);
        for batch in BatchIter::new(ds, &sampler, cfg.batch_size, cfg.negatives, seed) {
            gu_rows.clear();
            gi_rows.clear();
            let inv_b = 1.0 / batch.len() as f32;
            for b in 0..batch.len() {
                let u = batch.users[b] as usize;
                let i = batch.pos[b] as usize;
                let urow = user_emb.row(u).to_vec();
                let mut gu = vec![0.0f32; cfg.dim];
                // Positive term with constraint weight.
                let beta = constraint_weight(du[u], di[i]);
                let w = (1.0 + cfg.lambda * beta) * inv_b;
                let s = dot(&urow, item_emb.row(i));
                let coef = -w * (1.0 - sigmoid(s)); // d(−w·logσ(s))/ds = −w(1−σ)
                axpy(coef, item_emb.row(i), &mut gu);
                let mut gi = vec![0.0f32; cfg.dim];
                axpy(coef, &urow, &mut gi);
                gi_rows.push((i as u32, gi));
                // Negatives.
                let wn = cfg.neg_weight * inv_b / cfg.negatives as f32;
                for &j in batch.negs_of(b) {
                    let jrow = item_emb.row(j as usize);
                    let s = dot(&urow, jrow);
                    let coef = wn * sigmoid(s); // d(−w·logσ(−s))/ds = w·σ(s)
                    axpy(coef, jrow, &mut gu);
                    let mut gj = vec![0.0f32; cfg.dim];
                    axpy(coef, &urow, &mut gj);
                    gi_rows.push((j, gj));
                }
                gu_rows.push((u as u32, gu));
            }
            // Apply: coalesce rows, add L2, lazy Adam.
            adam_u.begin_step();
            coalesce(&mut gu_rows);
            for (u, g) in &mut gu_rows {
                let r = *u as usize;
                axpy(cfg.l2, user_emb.row(r), g);
                adam_u.update_row(user_emb.row_mut(r), r, g, cfg.lr);
            }
            adam_i.begin_step();
            coalesce(&mut gi_rows);
            for (i, g) in &mut gi_rows {
                let r = *i as usize;
                axpy(cfg.l2, item_emb.row(r), g);
                adam_i.update_row(item_emb.row_mut(r), r, g, cfg.lr);
            }
        }
    }
    (user_emb, item_emb)
}

/// Sums gradient rows with equal index (stable order of first occurrence).
fn coalesce(rows: &mut Vec<(u32, Vec<f32>)>) {
    rows.sort_by_key(|(idx, _)| *idx);
    let mut out: Vec<(u32, Vec<f32>)> = Vec::with_capacity(rows.len());
    for (idx, g) in rows.drain(..) {
        match out.last_mut() {
            Some((last, acc)) if *last == idx => {
                for (a, b) in acc.iter_mut().zip(g.iter()) {
                    *a += b;
                }
            }
            _ => out.push((idx, g)),
        }
    }
    *rows = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_data::synth::{generate, SynthConfig};

    #[test]
    fn constraint_weights_favour_unpopular_items() {
        // Same user degree: rarer item ⇒ larger β (its edge is more
        // informative), matching UltraGCN's Eq. 10.
        assert!(constraint_weight(10, 2) > constraint_weight(10, 50));
        // Degenerate degrees stay finite.
        assert!(constraint_weight(0, 0).is_finite());
    }

    #[test]
    fn coalesce_sums_duplicates() {
        let mut rows = vec![(3u32, vec![1.0, 0.0]), (1, vec![0.5, 0.5]), (3, vec![1.0, 2.0])];
        coalesce(&mut rows);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (1, vec![0.5, 0.5]));
        assert_eq!(rows[1], (3, vec![2.0, 2.0]));
    }

    #[test]
    fn training_separates_positives_from_negatives() {
        let ds = Arc::new(generate(&SynthConfig::tiny(5)));
        let cfg = UltraGcnConfig {
            dim: 16,
            epochs: 25,
            batch_size: 128,
            negatives: 8,
            lr: 5e-3,
            ..UltraGcnConfig::default()
        };
        let (u, i) = train_ultragcn(&ds, &cfg);
        let mut pos = 0.0f64;
        let mut neg = 0.0f64;
        let mut n_pos = 0usize;
        let mut n_neg = 0usize;
        for uu in 0..ds.n_users {
            for ii in 0..ds.n_items {
                let s = dot(u.row(uu), i.row(ii)) as f64;
                if ds.train.contains(uu, ii as u32) {
                    pos += s;
                    n_pos += 1;
                } else {
                    neg += s;
                    n_neg += 1;
                }
            }
        }
        pos /= n_pos as f64;
        neg /= n_neg as f64;
        assert!(pos > neg + 0.3, "positives {pos} vs negatives {neg}");
    }

    #[test]
    fn deterministic_in_seed() {
        let ds = Arc::new(generate(&SynthConfig::tiny(6)));
        let cfg = UltraGcnConfig {
            dim: 4,
            epochs: 2,
            batch_size: 64,
            negatives: 4,
            ..Default::default()
        };
        let (a, _) = train_ultragcn(&ds, &cfg);
        let (b, _) = train_ultragcn(&ds, &cfg);
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
