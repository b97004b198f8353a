//! Bilateral Softmax Loss (BSL) — the paper's contribution (Eq. 18).
//!
//! BSL applies the Log-Expectation-Exp structure to **both** sides:
//!
//! ```text
//! L_BSL(u) = −τ1·log E_{i∼P+}[exp(f(u,i)/τ1)] + τ2·log E_{j∼P−}[exp(f(u,j)/τ2)]
//! ```
//!
//! With one sampled positive per batch row (the paper's Algorithm 1), the
//! expectation over positives is realized across the batch: each row `b`
//! carries the DRO-corrected margin
//!
//! ```text
//! z_b = p_b − τ2·logmeanexp_j(n_bj / τ2)
//! ```
//!
//! and the loss pools rows through the positive-side Log-E-Exp:
//!
//! ```text
//! L = −τ1 · logmeanexp_b(z_b / τ1)
//! ```
//!
//! This is exactly "one line changed vs. SL": the uniform row weight `1/B`
//! becomes the softmax weight `w_b = softmax_b(z_b/τ1)`. Rows whose
//! positive already scores well above their negatives (`z_b` large — clean
//! positives) get *more* weight; rows with low `z_b` (likely false
//! positives) are attenuated, which is the positive-side robustness
//! mechanism of §IV-B. As `τ1 → ∞` the weights flatten to `1/B` and BSL
//! degenerates to [`crate::SoftmaxLoss`] exactly.

use crate::softmax::margin;
use crate::{RankingLoss, RowTerm, ScoreBatch};
use bsl_linalg::simd;
use bsl_linalg::stats::ln;
use std::ops::Range;

/// The Bilateral Softmax Loss with positive temperature `τ1` and negative
/// temperature `τ2`.
#[derive(Clone, Copy, Debug)]
pub struct Bsl {
    tau1: f32,
    tau2: f32,
}

impl Bsl {
    /// Creates BSL.
    ///
    /// # Panics
    /// Panics unless both temperatures are positive.
    pub fn new(tau1: f32, tau2: f32) -> Self {
        assert!(tau1 > 0.0, "tau1 must be positive, got {tau1}");
        assert!(tau2 > 0.0, "tau2 must be positive, got {tau2}");
        Self { tau1, tau2 }
    }

    /// Positive-side temperature τ1.
    #[inline]
    pub fn tau1(&self) -> f32 {
        self.tau1
    }

    /// Negative-side temperature τ2.
    #[inline]
    pub fn tau2(&self) -> f32 {
        self.tau2
    }

    /// The DRO-corrected margins `z_b` and positive-side row weights `w_b`
    /// for a batch, through the same two phases as training: each `w_b`
    /// has the bits of the weight the batch's gradients apply. Exposed for
    /// the positive-denoising diagnostics.
    pub fn row_weights(&self, batch: &ScoreBatch<'_>) -> (Vec<f32>, Vec<f32>) {
        let b = batch.len();
        let mut grad_neg = vec![0.0f32; batch.neg.len()];
        let mut terms = vec![RowTerm::default(); b];
        let (mut w, mut scales) = (vec![0.0f32; b], vec![0.0f32; b]);
        self.row_phase(batch, 0..b, &mut w, &mut grad_neg, &mut terms);
        self.batch_phase(batch, &terms, &mut w, &mut scales);
        // grad_pos = −w_b.
        w.iter_mut().for_each(|x| *x = -*x);
        (terms.iter().map(|t| t.0 as f32).collect(), w)
    }
}

impl RankingLoss for Bsl {
    fn name(&self) -> &'static str {
        "BSL"
    }

    /// Each row's un-normalized negative-side softmax weights and
    /// `RowTerm(z_b, Σ_j)`; `grad_pos` waits for the batch phase.
    fn row_phase(
        &self,
        batch: &ScoreBatch<'_>,
        rows: Range<usize>,
        _grad_pos: &mut [f32],
        grad_neg: &mut [f32],
        terms: &mut [RowTerm],
    ) {
        for (((p, negs), out), term) in
            batch.rows(rows).zip(grad_neg.chunks_exact_mut(batch.m)).zip(terms)
        {
            let (z, sum) = margin(self.tau2, p, negs, out);
            *term = RowTerm(z, sum);
        }
    }

    /// The one line SL does not have: rows pool through a second
    /// Log-E-Exp over the margins `z_b` (rounded to f32), `L =
    /// −τ1·logmeanexp_b(z_b/τ1) = −(max + τ1·ln(Σ_b/B))`. `∂L/∂z_b = −w_b`,
    /// `∂z_b/∂p_b = 1` and `∂z_b/∂n_bj = −e_bj/Σ_j`, so row `b`'s negatives
    /// scale by `w_b/Σ_j`.
    fn batch_phase(
        &self,
        batch: &ScoreBatch<'_>,
        terms: &[RowTerm],
        grad_pos: &mut [f32],
        scales: &mut [f32],
    ) -> f64 {
        // `scales` holds the margins until the weights replace them.
        for (z, term) in scales.iter_mut().zip(terms) {
            *z = term.0 as f32;
        }
        let (z_max, z_sum) = simd::softmax_row(scales, self.tau1, grad_pos);
        for ((gp, s), &RowTerm(_, sum)) in grad_pos.iter_mut().zip(scales).zip(terms) {
            let wb = (*gp as f64 / z_sum) as f32;
            *gp = -wb;
            *s = (wb as f64 / sum) as f32;
        }
        -(z_max as f64 + self.tau1 as f64 * ln(z_sum / batch.len() as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{assert_grads_match, synthetic_scores};
    use crate::SoftmaxLoss;
    use proptest::prelude::*;

    #[test]
    fn gradcheck_matched_and_split_temperatures() {
        let (pos, neg) = synthetic_scores(5, 4, 17);
        assert_grads_match(&Bsl::new(0.1, 0.1), &pos, &neg, 4, 2e-3);
        assert_grads_match(&Bsl::new(0.15, 0.1), &pos, &neg, 4, 2e-3);
        assert_grads_match(&Bsl::new(0.08, 0.12), &pos, &neg, 4, 2e-3);
    }

    #[test]
    fn large_tau1_recovers_sl_gradients() {
        let (pos, neg) = synthetic_scores(6, 5, 4);
        let tau2 = 0.11f32;
        let bsl = Bsl::new(1e6, tau2).compute(&ScoreBatch::new(&pos, &neg, 5));
        let sl = SoftmaxLoss::new(tau2).compute(&ScoreBatch::new(&pos, &neg, 5));
        for (a, b) in bsl.grad_pos.iter().zip(sl.grad_pos.iter()) {
            assert!((a - b).abs() < 1e-4, "pos grad {a} vs {b}");
        }
        for (a, b) in bsl.grad_neg.iter().zip(sl.grad_neg.iter()) {
            assert!((a - b).abs() < 1e-4, "neg grad {a} vs {b}");
        }
    }

    #[test]
    fn low_margin_rows_are_downweighted() {
        // Row 0: clean positive (scores far above negatives).
        // Row 1: suspicious positive (scores below its negatives).
        let pos = [0.9f32, -0.5];
        let neg = [0.0f32, 0.1, 0.3, 0.4];
        let bsl = Bsl::new(0.2, 0.1);
        let (_, w) = bsl.row_weights(&ScoreBatch::new(&pos, &neg, 2));
        assert!(w[0] > w[1], "clean row should outweigh noisy row: {w:?}");
        let out = bsl.compute(&ScoreBatch::new(&pos, &neg, 2));
        assert!(out.grad_pos[0].abs() > out.grad_pos[1].abs());
    }

    #[test]
    fn weights_sharpen_as_tau1_drops() {
        let pos = [0.9f32, -0.5];
        let neg = [0.0f32, 0.1, 0.3, 0.4];
        let (_, sharp) = Bsl::new(0.05, 0.1).row_weights(&ScoreBatch::new(&pos, &neg, 2));
        let (_, soft) = Bsl::new(1.0, 0.1).row_weights(&ScoreBatch::new(&pos, &neg, 2));
        assert!(sharp[0] > soft[0]);
    }

    proptest! {
        #[test]
        fn prop_row_weights_are_distribution(
            b in 1usize..8,
            m in 1usize..6,
            seed in 0u64..300,
            tau1 in 0.05f32..2.0,
            tau2 in 0.05f32..2.0,
        ) {
            let (pos, neg) = synthetic_scores(b, m, seed);
            let (_, w) = Bsl::new(tau1, tau2).row_weights(&ScoreBatch::new(&pos, &neg, m));
            let s: f64 = w.iter().map(|&x| x as f64).sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }

        /// Total gradient mass on positives equals −1 (the pooled softmax
        /// weights), and each row's negative mass equals its positive mass.
        #[test]
        fn prop_gradient_mass_balance(
            b in 1usize..6,
            m in 1usize..6,
            seed in 0u64..300,
        ) {
            let (pos, neg) = synthetic_scores(b, m, seed);
            let out = Bsl::new(0.2, 0.1).compute(&ScoreBatch::new(&pos, &neg, m));
            let pos_mass: f64 = out.grad_pos.iter().map(|&g| g as f64).sum();
            prop_assert!((pos_mass + 1.0).abs() < 1e-4);
            for row in 0..b {
                let neg_mass: f64 = out.grad_neg[row * m..(row + 1) * m]
                    .iter().map(|&g| g as f64).sum();
                prop_assert!((neg_mass + out.grad_pos[row] as f64).abs() < 1e-4);
            }
        }

        /// BSL's loss never exceeds SL's on the same batch when τ1 is
        /// finite: log-mean-exp ≥ mean ⇒ −τ1·lme(z/τ1) ≤ −mean(z) = L_SL.
        #[test]
        fn prop_bsl_lower_bounds_sl(
            b in 1usize..6,
            m in 1usize..6,
            seed in 0u64..300,
            tau1 in 0.05f32..1.0,
        ) {
            let (pos, neg) = synthetic_scores(b, m, seed);
            let tau2 = 0.1f32;
            let bsl = Bsl::new(tau1, tau2).compute(&ScoreBatch::new(&pos, &neg, m)).loss;
            let sl = SoftmaxLoss::new(tau2).compute(&ScoreBatch::new(&pos, &neg, m)).loss;
            prop_assert!(bsl <= sl + 1e-5, "BSL {bsl} > SL {sl}");
        }
    }
}
