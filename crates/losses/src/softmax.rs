//! Softmax loss (SL) — paper Eq. 4/5.
//!
//! Implemented in the decomposed Eq.-5 form
//!
//! ```text
//! L = mean_b [ −p_b  +  τ · logmeanexp_j(n_bj / τ) ]
//! ```
//!
//! i.e. the positive part is the plain expectation and the negative part is
//! the Log-Expectation-Exp structure whose DRO interpretation Section III
//! of the paper establishes. We keep the *unscaled* Eq.-5 normalization
//! (no global `1/τ` factor) so that [`crate::Bsl`] with `τ1 → ∞`
//! reproduces SL *exactly*, gradients included; the common InfoNCE-style
//! `1/τ` rescaling only changes the effective learning rate.

use crate::{RankingLoss, RowTerm, ScoreBatch};
use bsl_linalg::simd;
use bsl_linalg::stats::{ln, softmax_into};
use std::ops::Range;

/// The negative side of one row, shared by SL and BSL, at one `exp` per
/// score: leaves the un-normalized weights `exp((n_j − max)/τ)` in `out` and
/// returns the margin `z = p − τ·logmeanexp_j(n_j/τ)` with their sum `Σ_j`
/// (the softmax weights are `out[j]/Σ`).
pub(crate) fn margin(tau: f32, p: f32, negs: &[f32], out: &mut [f32]) -> (f64, f64) {
    let (max, sum) = simd::softmax_row(negs, tau, out);
    // τ·logmeanexp(n/τ) = max + τ·ln(Σ/m)
    let lme = max as f64 + tau as f64 * ln(sum / negs.len() as f64);
    (p as f64 - lme, sum)
}

/// The Softmax loss with temperature `τ` (paper Eq. 5).
///
/// Gradients: `∂L/∂p_b = −1/B` and `∂L/∂n_bj = q_bj / B` where
/// `q_bj = softmax_j(n_bj/τ)` — the worst-case DRO weights of Lemma 1.
#[derive(Clone, Copy, Debug)]
pub struct SoftmaxLoss {
    tau: f32,
}

impl SoftmaxLoss {
    /// Creates SL with temperature `tau`.
    ///
    /// # Panics
    /// Panics if `tau <= 0`.
    pub fn new(tau: f32) -> Self {
        assert!(tau > 0.0, "temperature must be positive, got {tau}");
        Self { tau }
    }

    /// The temperature τ.
    #[inline]
    pub fn tau(&self) -> f32 {
        self.tau
    }

    /// The DRO worst-case weights `q_bj = softmax_j(n_bj/τ)` for row `b` of
    /// `batch`, written into `out` (length `m`). Exposed for the Fig-4b
    /// analysis.
    pub fn worst_case_row(&self, batch: &ScoreBatch<'_>, b: usize, out: &mut [f32]) {
        softmax_into(batch.negs_of(b), self.tau, out);
    }
}

impl RankingLoss for SoftmaxLoss {
    fn name(&self) -> &'static str {
        "SL"
    }

    /// Each row's un-normalized softmax weights and `RowTerm(z_b, Σ_j)`;
    /// `∂L/∂p_b = −1/B`.
    fn row_phase(
        &self,
        batch: &ScoreBatch<'_>,
        rows: Range<usize>,
        grad_pos: &mut [f32],
        grad_neg: &mut [f32],
        terms: &mut [RowTerm],
    ) {
        let inv_b = 1.0 / batch.len() as f64;
        for (((p, negs), out), (gp, term)) in batch
            .rows(rows)
            .zip(grad_neg.chunks_exact_mut(batch.m))
            .zip(grad_pos.iter_mut().zip(terms))
        {
            let (z, sum) = margin(self.tau, p, negs, out);
            *gp = -(inv_b as f32);
            *term = RowTerm(z, sum);
        }
    }

    /// `L = mean_b(−z_b)`; row `b`'s negatives scale by `1/(B·Σ_j)`, as
    /// `∂z_b/∂n_bj = −e_bj/Σ_j`.
    fn batch_phase(
        &self,
        batch: &ScoreBatch<'_>,
        terms: &[RowTerm],
        _grad_pos: &mut [f32],
        scales: &mut [f32],
    ) -> f64 {
        let inv_b = 1.0 / batch.len() as f64;
        let mut loss = 0.0f64;
        for (s, &RowTerm(z, sum)) in scales.iter_mut().zip(terms) {
            loss -= inv_b * z;
            *s = (inv_b / sum) as f32;
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
    fn gradcheck_various_taus() {
        let (pos, neg) = synthetic_scores(6, 5, 3);
        for tau in [0.07f32, 0.1, 0.2, 1.0] {
            assert_grads_match(&SoftmaxLoss::new(tau), &pos, &neg, 5, 2e-3);
        }
    }

    #[test]
    fn negative_gradients_are_softmax_weights() {
        let pos = [0.5f32];
        let neg = [0.1f32, 0.4, -0.2];
        let out = SoftmaxLoss::new(0.1).compute(&ScoreBatch::new(&pos, &neg, 3));
        let sum: f32 = out.grad_neg.iter().sum();
        // Row weights sum to 1/B = 1.
        assert!((sum - 1.0).abs() < 1e-5);
        // The hardest (highest-scoring) negative carries the most weight.
        let max_idx =
            out.grad_neg.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i);
        assert_eq!(max_idx, Some(1));
    }

    #[test]
    fn lower_tau_sharpens_weights() {
        let pos = [0.0f32];
        let neg = [0.1f32, 0.4, -0.2];
        let sharp = SoftmaxLoss::new(0.05).compute(&ScoreBatch::new(&pos, &neg, 3));
        let soft = SoftmaxLoss::new(0.5).compute(&ScoreBatch::new(&pos, &neg, 3));
        assert!(sharp.grad_neg[1] > soft.grad_neg[1]);
    }

    #[test]
    fn loss_decreases_when_positive_rises() {
        let neg = [0.1f32, 0.2];
        let low = SoftmaxLoss::new(0.1).compute(&ScoreBatch::new(&[0.0], &neg, 2)).loss;
        let high = SoftmaxLoss::new(0.1).compute(&ScoreBatch::new(&[0.8], &neg, 2)).loss;
        assert!(high < low);
    }

    #[test]
    fn worst_case_row_matches_grad_direction() {
        let (pos, neg) = synthetic_scores(3, 4, 9);
        let sl = SoftmaxLoss::new(0.1);
        let batch = ScoreBatch::new(&pos, &neg, 4);
        let out = sl.compute(&batch);
        let mut w = [0.0f32; 4];
        sl.worst_case_row(&batch, 1, &mut w);
        for (j, &wj) in w.iter().enumerate() {
            // grad_neg = w / B with B = 3.
            assert!((out.grad_neg[4 + j] - wj / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn rejects_nonpositive_tau() {
        let _ = SoftmaxLoss::new(0.0);
    }

    proptest! {
        /// SL is invariant to shifting *all* scores of a row by a constant
        /// in its gradient structure: the negative-side weights stay a
        /// probability distribution.
        #[test]
        fn prop_neg_weights_sum_to_inv_b(
            b in 1usize..6,
            m in 1usize..8,
            seed in 0u64..500,
            tau in 0.05f32..1.0,
        ) {
            let (pos, neg) = synthetic_scores(b, m, seed);
            let out = SoftmaxLoss::new(tau).compute(&ScoreBatch::new(&pos, &neg, m));
            for row in 0..b {
                let s: f64 = out.grad_neg[row * m..(row + 1) * m]
                    .iter()
                    .map(|&g| g as f64)
                    .sum();
                prop_assert!((s - 1.0 / b as f64).abs() < 1e-5);
            }
        }

        /// Eq. 5's negative part upper-bounds the mean (Jensen) so SL ≥ the
        /// "no-variance" pointwise surrogate on identical scores.
        #[test]
        fn prop_sl_dominates_mean_surrogate(
            b in 1usize..5,
            m in 2usize..8,
            seed in 0u64..200,
        ) {
            let (pos, neg) = synthetic_scores(b, m, seed);
            let sl = SoftmaxLoss::new(0.2).compute(&ScoreBatch::new(&pos, &neg, m)).loss;
            let mut surrogate = 0.0f64;
            for row in 0..b {
                let negs = &neg[row * m..(row + 1) * m];
                let mean: f64 = negs.iter().map(|&x| x as f64).sum::<f64>() / m as f64;
                surrogate += (-(pos[row] as f64) + mean) / b as f64;
            }
            prop_assert!(sl >= surrogate - 1e-6);
        }
    }
}
