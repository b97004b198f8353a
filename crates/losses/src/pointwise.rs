//! Pointwise losses (paper Eq. 1–2): classification/regression against the
//! binary labels, no interaction between rows.

use crate::{RankingLoss, RowTerm, ScoreBatch};
use bsl_linalg::stats::{log_sigmoid, sigmoid};
use std::ops::Range;

/// Binary cross entropy:
/// `L = mean_b [ −log σ(p_b) − c · mean_j log(1 − σ(n_bj)) ]`.
///
/// Gradients: `∂L/∂p_b = (σ(p_b) − 1)/B`, `∂L/∂n_bj = c·σ(n_bj)/(B·m)`.
#[derive(Clone, Copy, Debug)]
pub struct Bce {
    neg_weight: f32,
}

impl Bce {
    /// `neg_weight` is the paper's balance coefficient `c`.
    ///
    /// # Panics
    /// Panics if `neg_weight` is not positive.
    pub fn new(neg_weight: f32) -> Self {
        assert!(neg_weight > 0.0, "neg_weight must be positive");
        Self { neg_weight }
    }
}

impl RankingLoss for Bce {
    fn name(&self) -> &'static str {
        "BCE"
    }

    fn row_phase(
        &self,
        batch: &ScoreBatch<'_>,
        rows: Range<usize>,
        grad_pos: &mut [f32],
        grad_neg: &mut [f32],
        _terms: &mut [RowTerm],
    ) {
        let (b, c) = (batch.len() as f64, self.neg_weight as f64);
        let bm = b * batch.m as f64;
        for ((p, negs), (gp, gn)) in
            batch.rows(rows).zip(grad_pos.iter_mut().zip(grad_neg.chunks_exact_mut(batch.m)))
        {
            *gp = ((sigmoid(p) - 1.0) as f64 / b) as f32;
            for (&n, g) in negs.iter().zip(gn) {
                *g = (c * sigmoid(n) as f64 / bm) as f32;
            }
        }
    }

    fn batch_phase(
        &self,
        batch: &ScoreBatch<'_>,
        _terms: &[RowTerm],
        _grad_pos: &mut [f32],
        scales: &mut [f32],
    ) -> f64 {
        let (b, c) = (batch.len() as f64, self.neg_weight as f64);
        let bm = b * batch.m as f64;
        scales.fill(1.0);
        let mut loss = 0.0f64;
        for (p, negs) in batch.rows(0..batch.len()) {
            loss += -log_sigmoid(p) / b;
            for &n in negs {
                // log(1 − σ(n)) = log σ(−n)
                loss += -c * log_sigmoid(-n) / bm;
            }
        }
        loss
    }
}

/// Mean squared error against the binary labels:
/// `L = mean_b [ (p_b − 1)² + c · mean_j n_bj² ]`.
#[derive(Clone, Copy, Debug)]
pub struct Mse {
    neg_weight: f32,
}

impl Mse {
    /// `neg_weight` is the balance coefficient `c`.
    ///
    /// # Panics
    /// Panics if `neg_weight` is not positive.
    pub fn new(neg_weight: f32) -> Self {
        assert!(neg_weight > 0.0, "neg_weight must be positive");
        Self { neg_weight }
    }
}

impl RankingLoss for Mse {
    fn name(&self) -> &'static str {
        "MSE"
    }

    fn row_phase(
        &self,
        batch: &ScoreBatch<'_>,
        rows: Range<usize>,
        grad_pos: &mut [f32],
        grad_neg: &mut [f32],
        _terms: &mut [RowTerm],
    ) {
        let (b, c) = (batch.len() as f64, self.neg_weight as f64);
        let bm = b * batch.m as f64;
        for ((p, negs), (gp, gn)) in
            batch.rows(rows).zip(grad_pos.iter_mut().zip(grad_neg.chunks_exact_mut(batch.m)))
        {
            *gp = (2.0 * (p as f64 - 1.0) / b) as f32;
            for (&n, g) in negs.iter().zip(gn) {
                *g = (2.0 * c * n as f64 / bm) as f32;
            }
        }
    }

    fn batch_phase(
        &self,
        batch: &ScoreBatch<'_>,
        _terms: &[RowTerm],
        _grad_pos: &mut [f32],
        scales: &mut [f32],
    ) -> f64 {
        let (b, c) = (batch.len() as f64, self.neg_weight as f64);
        let bm = b * batch.m as f64;
        scales.fill(1.0);
        let mut loss = 0.0f64;
        for (p, negs) in batch.rows(0..batch.len()) {
            let d = p as f64 - 1.0;
            loss += d * d / b;
            for &n in negs {
                loss += c * (n as f64) * (n as f64) / bm;
            }
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{assert_grads_match, synthetic_scores};

    #[test]
    fn bce_gradcheck() {
        let (pos, neg) = synthetic_scores(6, 4, 1);
        assert_grads_match(&Bce::new(1.0), &pos, &neg, 4, 1e-3);
        assert_grads_match(&Bce::new(0.3), &pos, &neg, 4, 1e-3);
    }

    #[test]
    fn mse_gradcheck() {
        let (pos, neg) = synthetic_scores(5, 3, 2);
        assert_grads_match(&Mse::new(1.0), &pos, &neg, 3, 1e-3);
        assert_grads_match(&Mse::new(2.0), &pos, &neg, 3, 1e-3);
    }

    #[test]
    fn mse_perfect_predictions_zero_loss() {
        let pos = [1.0f32; 3];
        let neg = [0.0f32; 6];
        let out = Mse::new(1.0).compute(&ScoreBatch::new(&pos, &neg, 2));
        assert!(out.loss.abs() < 1e-12);
        assert!(out.grad_pos.iter().all(|&g| g.abs() < 1e-7));
        assert!(out.grad_neg.iter().all(|&g| g.abs() < 1e-7));
    }

    #[test]
    fn bce_loss_decreases_with_better_scores() {
        let neg = [0.0f32; 2];
        let bad = Bce::new(1.0).compute(&ScoreBatch::new(&[-1.0], &neg, 2)).loss;
        let good = Bce::new(1.0).compute(&ScoreBatch::new(&[1.0], &neg, 2)).loss;
        assert!(good < bad);
    }

    #[test]
    fn bce_gradient_signs() {
        let out = Bce::new(1.0).compute(&ScoreBatch::new(&[0.2], &[0.1, -0.3], 2));
        // Positive score should be pushed up (negative gradient), negatives
        // pushed down (positive gradient).
        assert!(out.grad_pos[0] < 0.0);
        assert!(out.grad_neg.iter().all(|&g| g > 0.0));
    }

    #[test]
    fn neg_weight_scales_negative_gradients() {
        let (pos, neg) = synthetic_scores(3, 2, 5);
        let g1 = Bce::new(1.0).compute(&ScoreBatch::new(&pos, &neg, 2));
        let g2 = Bce::new(2.0).compute(&ScoreBatch::new(&pos, &neg, 2));
        for (a, b) in g1.grad_neg.iter().zip(g2.grad_neg.iter()) {
            assert!((b - 2.0 * a).abs() < 1e-6);
        }
        assert_eq!(g1.grad_pos, g2.grad_pos);
    }
}
