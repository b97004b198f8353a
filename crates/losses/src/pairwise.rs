//! Pairwise losses (paper Eq. 3): positives must outscore their negative
//! counterparts.

use crate::{RankingLoss, RowTerm, ScoreBatch};
use bsl_linalg::stats::{log_sigmoid, sigmoid};
use std::ops::Range;

/// Bayesian Personalized Ranking (Rendle et al., UAI'09):
/// `L = mean_{b,j} [ −log σ(p_b − n_bj) ]`.
///
/// Gradients: with `g_bj = σ(p_b − n_bj) − 1`,
/// `∂L/∂p_b = mean_j g_bj / B`, `∂L/∂n_bj = −g_bj/(B·m)`.
#[derive(Clone, Copy, Debug)]
pub struct Bpr;

impl RankingLoss for Bpr {
    fn name(&self) -> &'static str {
        "BPR"
    }

    fn row_phase(
        &self,
        batch: &ScoreBatch<'_>,
        rows: Range<usize>,
        grad_pos: &mut [f32],
        grad_neg: &mut [f32],
        _terms: &mut [RowTerm],
    ) {
        let bm = (batch.len() * batch.m) as f64;
        for ((p, negs), (gp, gn)) in
            batch.rows(rows).zip(grad_pos.iter_mut().zip(grad_neg.chunks_exact_mut(batch.m)))
        {
            let mut sum = 0.0f64;
            for (&n, g_out) in negs.iter().zip(gn) {
                let g = (sigmoid(p - n) - 1.0) as f64 / bm;
                sum += g;
                *g_out = (-g) as f32;
            }
            *gp = sum as f32;
        }
    }

    fn batch_phase(
        &self,
        batch: &ScoreBatch<'_>,
        _terms: &[RowTerm],
        _grad_pos: &mut [f32],
        scales: &mut [f32],
    ) -> f64 {
        let bm = (batch.len() * batch.m) as f64;
        scales.fill(1.0);
        let mut loss = 0.0f64;
        for (p, negs) in batch.rows(0..batch.len()) {
            for &n in negs {
                loss += -log_sigmoid(p - n) / bm;
            }
        }
        loss
    }
}

/// Hinge / margin loss on scores, the ranking objective of Collaborative
/// Metric Learning (CML): `L = mean_{b,j} max(0, margin − p_b + n_bj)`.
/// (CML scores are negated squared distances; the backbone handles that.)
#[derive(Clone, Copy, Debug)]
pub struct Hinge {
    margin: f32,
}

impl Hinge {
    /// Creates the loss with the given margin.
    ///
    /// # Panics
    /// Panics if `margin` is negative.
    pub fn new(margin: f32) -> Self {
        assert!(margin >= 0.0, "margin must be non-negative");
        Self { margin }
    }
}

impl RankingLoss for Hinge {
    fn name(&self) -> &'static str {
        "Hinge"
    }

    fn row_phase(
        &self,
        batch: &ScoreBatch<'_>,
        rows: Range<usize>,
        grad_pos: &mut [f32],
        grad_neg: &mut [f32],
        _terms: &mut [RowTerm],
    ) {
        let scale = 1.0 / (batch.len() * batch.m) as f64;
        for ((p, negs), (gp, gn)) in
            batch.rows(rows).zip(grad_pos.iter_mut().zip(grad_neg.chunks_exact_mut(batch.m)))
        {
            let mut sum = 0.0f64;
            for (&n, g_out) in negs.iter().zip(gn) {
                let active = self.margin - p + n > 0.0;
                if active {
                    sum -= scale;
                }
                *g_out = if active { scale as f32 } else { 0.0 };
            }
            *gp = sum as f32;
        }
    }

    fn batch_phase(
        &self,
        batch: &ScoreBatch<'_>,
        _terms: &[RowTerm],
        _grad_pos: &mut [f32],
        scales: &mut [f32],
    ) -> f64 {
        let scale = 1.0 / (batch.len() * batch.m) as f64;
        scales.fill(1.0);
        let mut loss = 0.0f64;
        for (p, negs) in batch.rows(0..batch.len()) {
            for &n in negs {
                let v = self.margin - p + n;
                if v > 0.0 {
                    loss += v as f64 * scale;
                }
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
    fn bpr_gradcheck() {
        let (pos, neg) = synthetic_scores(6, 5, 3);
        assert_grads_match(&Bpr, &pos, &neg, 5, 1e-3);
    }

    #[test]
    fn hinge_gradcheck_away_from_kink() {
        // Keep scores away from the non-differentiable point.
        let pos = [0.8f32, -0.5, 0.2];
        let neg = [0.1f32, -0.6, 0.9, 0.0, -0.2, 0.5];
        assert_grads_match(&Hinge::new(0.5), &pos, &neg, 2, 1e-3);
    }

    #[test]
    fn bpr_zero_margin_is_log2() {
        // p == n ⇒ per-pair loss is −log σ(0) = ln 2.
        let out = Bpr.compute(&ScoreBatch::new(&[0.3], &[0.3, 0.3], 2));
        assert!((out.loss - std::f64::consts::LN_2).abs() < 1e-9);
    }

    #[test]
    fn bpr_prefers_larger_margin() {
        let tight = Bpr.compute(&ScoreBatch::new(&[0.4], &[0.3], 1)).loss;
        let wide = Bpr.compute(&ScoreBatch::new(&[0.9], &[-0.5], 1)).loss;
        assert!(wide < tight);
    }

    #[test]
    fn bpr_gradient_signs() {
        let out = Bpr.compute(&ScoreBatch::new(&[0.1], &[0.4], 1));
        assert!(out.grad_pos[0] < 0.0);
        assert!(out.grad_neg[0] > 0.0);
    }

    #[test]
    fn hinge_inactive_when_margin_satisfied() {
        let out = Hinge::new(0.2).compute(&ScoreBatch::new(&[1.0], &[0.0, -0.5], 2));
        assert_eq!(out.loss, 0.0);
        assert!(out.grad_pos.iter().all(|&g| g == 0.0));
        assert!(out.grad_neg.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn hinge_active_pairs_counted() {
        // margin 0.5: pair 1 violates (0.2−0.0 < 0.5), pair 2 satisfied.
        let out = Hinge::new(0.5).compute(&ScoreBatch::new(&[0.2], &[0.0, -0.9], 2));
        assert!(out.loss > 0.0);
        assert!(out.grad_neg[0] > 0.0);
        assert_eq!(out.grad_neg[1], 0.0);
    }
}
