//! Cosine Contrastive Loss (CCL) from SimpleX (Mao et al., CIKM'21),
//! one of the Table-II baselines:
//!
//! ```text
//! L = mean_b [ (1 − p_b) + (c/m)·Σ_j max(0, n_bj − margin) ]
//! ```
//!
//! Negatives only contribute once they score above the margin; `c` is the
//! negative weight SimpleX tunes per dataset.

use crate::{RankingLoss, RowTerm, ScoreBatch};
use std::ops::Range;

/// Cosine contrastive loss with negative margin and weight.
#[derive(Clone, Copy, Debug)]
pub struct Ccl {
    margin: f32,
    neg_weight: f32,
}

impl Ccl {
    /// Creates CCL.
    ///
    /// # Panics
    /// Panics if `margin` is outside `[-1, 1]` (scores are cosines) or
    /// `neg_weight` is not positive.
    pub fn new(margin: f32, neg_weight: f32) -> Self {
        assert!((-1.0..=1.0).contains(&margin), "cosine margin must be in [-1,1], got {margin}");
        assert!(neg_weight > 0.0, "neg_weight must be positive");
        Self { margin, neg_weight }
    }
}

impl RankingLoss for Ccl {
    fn name(&self) -> &'static str {
        "CCL"
    }

    fn row_phase(
        &self,
        batch: &ScoreBatch<'_>,
        rows: Range<usize>,
        grad_pos: &mut [f32],
        grad_neg: &mut [f32],
        _terms: &mut [RowTerm],
    ) {
        let b = batch.len() as f64;
        let g_active = (self.neg_weight as f64 / (b * batch.m as f64)) as f32;
        for ((_, negs), (gp, gn)) in
            batch.rows(rows).zip(grad_pos.iter_mut().zip(grad_neg.chunks_exact_mut(batch.m)))
        {
            *gp = (-1.0 / b) as f32;
            for (&n, g) in negs.iter().zip(gn) {
                *g = if n - self.margin > 0.0 { g_active } else { 0.0 };
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
            loss += (1.0 - p as f64) / b;
            for &n in negs {
                let slack = n - self.margin;
                if slack > 0.0 {
                    loss += c * slack as f64 / bm;
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
    use proptest::prelude::*;

    #[test]
    fn gradcheck_away_from_kink() {
        // Keep scores away from the margin so finite differences do not
        // straddle the hinge kink.
        let pos = [0.5f32, -0.2, 0.8];
        let neg = [0.6f32, -0.4, 0.2, 0.9, -0.7, 0.45];
        assert_grads_match(&Ccl::new(0.0, 1.0), &pos, &neg, 2, 1e-3);
        assert_grads_match(&Ccl::new(0.3, 2.0), &pos, &neg, 2, 1e-3);
    }

    #[test]
    fn negatives_below_margin_are_free() {
        let out = Ccl::new(0.5, 1.0).compute(&ScoreBatch::new(&[0.9], &[0.2, 0.4], 2));
        assert_eq!(out.grad_neg, vec![0.0, 0.0]);
        assert!((out.loss - (1.0 - 0.9)).abs() < 1e-6);
    }

    #[test]
    fn negatives_above_margin_are_penalized_linearly() {
        let a = Ccl::new(0.0, 1.0).compute(&ScoreBatch::new(&[0.0], &[0.2], 1)).loss;
        let b = Ccl::new(0.0, 1.0).compute(&ScoreBatch::new(&[0.0], &[0.4], 1)).loss;
        assert!((b - a - 0.2).abs() < 1e-6);
    }

    #[test]
    fn perfect_prediction_zero_loss() {
        let out = Ccl::new(0.0, 1.0).compute(&ScoreBatch::new(&[1.0], &[-0.5, -0.9], 2));
        assert!(out.loss.abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "cosine margin")]
    fn rejects_out_of_range_margin() {
        let _ = Ccl::new(1.5, 1.0);
    }

    proptest! {
        #[test]
        fn prop_loss_nonnegative_for_cosine_scores(
            b in 1usize..5,
            m in 1usize..6,
            seed in 0u64..200,
        ) {
            // synthetic_scores yields values in [-0.9, 0.9] ⊂ [-1, 1], so
            // (1 − p) ≥ 0 and the hinge is ≥ 0.
            let (pos, neg) = synthetic_scores(b, m, seed);
            let out = Ccl::new(0.2, 1.5).compute(&ScoreBatch::new(&pos, &neg, m));
            prop_assert!(out.loss >= -1e-9);
        }

        #[test]
        fn prop_raising_margin_never_raises_loss(
            b in 1usize..5,
            m in 1usize..6,
            seed in 0u64..200,
        ) {
            let (pos, neg) = synthetic_scores(b, m, seed);
            let lo = Ccl::new(0.0, 1.0).compute(&ScoreBatch::new(&pos, &neg, m)).loss;
            let hi = Ccl::new(0.4, 1.0).compute(&ScoreBatch::new(&pos, &neg, m)).loss;
            prop_assert!(hi <= lo + 1e-9);
        }
    }
}
